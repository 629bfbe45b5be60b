//! Host-provided native intrinsics.
//!
//! Components may call a small library of built-in functions supplied by the
//! host runtime (string and list utilities). Natives are *not* dynamic
//! functions: they are not in the DFM, cannot be evolved, and cannot make
//! outcalls — they model the unchanging runtime library a Legion object is
//! linked against.

use dcdo_types::FunctionName;

use crate::error::VmError;
use crate::value::Value;

/// A native intrinsic: pure function from arguments to a value.
pub type NativeFn = fn(&[Value]) -> Result<Value, String>;

/// The host's native intrinsics: `abs`, `min`, `max`, `str_upper`,
/// `str_lower`, `list_sum`, `list_reverse`, `list_sort`, `list_contains`.
/// The set is fixed, so the registry holds nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NativeRegistry;

impl NativeRegistry {
    /// The standard intrinsics.
    pub const fn standard() -> Self {
        NativeRegistry
    }

    /// Invokes an intrinsic.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::UnknownNative`] if no intrinsic has the name and
    /// [`VmError::NativeError`] if the intrinsic itself fails.
    pub fn call(&self, name: &FunctionName, args: &[Value]) -> Result<Value, VmError> {
        let f: NativeFn = match name.as_str() {
            "abs" => native_abs,
            "min" => native_min,
            "max" => native_max,
            "str_upper" => native_str_upper,
            "str_lower" => native_str_lower,
            "list_sum" => native_list_sum,
            "list_reverse" => native_list_reverse,
            "list_sort" => native_list_sort,
            "list_contains" => native_list_contains,
            _ => return Err(VmError::UnknownNative(name.clone())),
        };
        f(args).map_err(VmError::NativeError)
    }
}

fn want_int(args: &[Value], i: usize) -> Result<i64, String> {
    args.get(i)
        .and_then(Value::as_int)
        .ok_or_else(|| format!("argument {i} must be an int"))
}

fn want_str(args: &[Value], i: usize) -> Result<&str, String> {
    args.get(i)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("argument {i} must be a str"))
}

fn want_list(args: &[Value], i: usize) -> Result<&[Value], String> {
    args.get(i)
        .and_then(Value::as_list)
        .ok_or_else(|| format!("argument {i} must be a list"))
}

fn native_abs(args: &[Value]) -> Result<Value, String> {
    Ok(Value::Int(want_int(args, 0)?.saturating_abs()))
}

fn native_min(args: &[Value]) -> Result<Value, String> {
    Ok(Value::Int(want_int(args, 0)?.min(want_int(args, 1)?)))
}

fn native_max(args: &[Value]) -> Result<Value, String> {
    Ok(Value::Int(want_int(args, 0)?.max(want_int(args, 1)?)))
}

fn native_str_upper(args: &[Value]) -> Result<Value, String> {
    Ok(Value::str(want_str(args, 0)?.to_uppercase()))
}

fn native_str_lower(args: &[Value]) -> Result<Value, String> {
    Ok(Value::str(want_str(args, 0)?.to_lowercase()))
}

fn native_list_sum(args: &[Value]) -> Result<Value, String> {
    let mut sum: i64 = 0;
    for (i, v) in want_list(args, 0)?.iter().enumerate() {
        sum = sum.saturating_add(
            v.as_int()
                .ok_or_else(|| format!("element {i} is not an int"))?,
        );
    }
    Ok(Value::Int(sum))
}

fn native_list_reverse(args: &[Value]) -> Result<Value, String> {
    let mut v = want_list(args, 0)?.to_vec();
    v.reverse();
    Ok(Value::List(v))
}

fn native_list_sort(args: &[Value]) -> Result<Value, String> {
    let list = want_list(args, 0)?;
    let mut ints = Vec::with_capacity(list.len());
    for (i, v) in list.iter().enumerate() {
        ints.push(
            v.as_int()
                .ok_or_else(|| format!("element {i} is not an int"))?,
        );
    }
    ints.sort_unstable();
    Ok(Value::List(ints.into_iter().map(Value::Int).collect()))
}

fn native_list_contains(args: &[Value]) -> Result<Value, String> {
    let list = want_list(args, 0)?;
    let needle = args.get(1).ok_or("missing needle argument")?;
    Ok(Value::Bool(list.contains(needle)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_is_populated() {
        let r = NativeRegistry::standard();
        assert_eq!(std::mem::size_of::<NativeRegistry>(), 0);
        let names = [
            "abs",
            "min",
            "max",
            "str_upper",
            "str_lower",
            "list_sum",
            "list_reverse",
            "list_sort",
            "list_contains",
        ];
        for name in names {
            assert!(
                !matches!(r.call(&name.into(), &[]), Err(VmError::UnknownNative(_))),
                "{name} is an intrinsic"
            );
        }
    }

    #[test]
    fn arithmetic_intrinsics() {
        let r = NativeRegistry::standard();
        assert_eq!(
            r.call(&"abs".into(), &[Value::Int(-5)]).expect("abs"),
            Value::Int(5)
        );
        assert_eq!(
            r.call(&"min".into(), &[Value::Int(3), Value::Int(7)])
                .expect("min"),
            Value::Int(3)
        );
        assert_eq!(
            r.call(&"max".into(), &[Value::Int(3), Value::Int(7)])
                .expect("max"),
            Value::Int(7)
        );
    }

    #[test]
    fn string_intrinsics() {
        let r = NativeRegistry::standard();
        assert_eq!(
            r.call(&"str_upper".into(), &[Value::str("abc")])
                .expect("upper"),
            Value::str("ABC")
        );
        assert_eq!(
            r.call(&"str_lower".into(), &[Value::str("ABC")])
                .expect("lower"),
            Value::str("abc")
        );
    }

    #[test]
    fn list_intrinsics() {
        let r = NativeRegistry::standard();
        let list = Value::List(vec![Value::Int(3), Value::Int(1), Value::Int(2)]);
        assert_eq!(
            r.call(&"list_sum".into(), std::slice::from_ref(&list))
                .expect("sum"),
            Value::Int(6)
        );
        assert_eq!(
            r.call(&"list_sort".into(), std::slice::from_ref(&list))
                .expect("sort"),
            Value::List(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        );
        assert_eq!(
            r.call(&"list_reverse".into(), std::slice::from_ref(&list))
                .expect("reverse"),
            Value::List(vec![Value::Int(2), Value::Int(1), Value::Int(3)])
        );
        assert_eq!(
            r.call(&"list_contains".into(), &[list, Value::Int(2)])
                .expect("contains"),
            Value::Bool(true)
        );
    }

    #[test]
    fn unknown_native_errors() {
        let r = NativeRegistry::standard();
        assert!(matches!(
            r.call(&"nope".into(), &[]),
            Err(VmError::UnknownNative(_))
        ));
    }

    #[test]
    fn native_type_errors_are_reported() {
        let r = NativeRegistry::standard();
        assert!(matches!(
            r.call(&"abs".into(), &[Value::str("x")]),
            Err(VmError::NativeError(_))
        ));
        assert!(matches!(
            r.call(&"list_sum".into(), &[Value::List(vec![Value::str("x")])]),
            Err(VmError::NativeError(_))
        ));
    }
}
