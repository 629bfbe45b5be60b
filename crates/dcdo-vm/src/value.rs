//! Runtime values of the dynamic-code substrate.

use std::fmt;
use std::rc::Rc;

use dcdo_types::{ObjectId, TypeTag};
use serde::{Deserialize, Serialize};

/// A value manipulated by dynamic functions.
///
/// Values are dynamically typed; [`TypeTag`]s are checked at call
/// boundaries (argument and return positions) against declared signatures.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Value {
    /// The unit value.
    #[default]
    Unit,
    /// A 64-bit signed integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// An immutable string.
    Str(Rc<str>),
    /// A list of values.
    List(Vec<Value>),
    /// A reference to another distributed object.
    ObjRef(ObjectId),
}

impl Value {
    /// Creates a string value.
    pub fn str(s: impl Into<Rc<str>>) -> Self {
        Value::Str(s.into())
    }

    /// Returns the [`TypeTag`] describing this value.
    pub fn type_tag(&self) -> TypeTag {
        match self {
            Value::Unit => TypeTag::Unit,
            Value::Int(_) => TypeTag::Int,
            Value::Bool(_) => TypeTag::Bool,
            Value::Str(_) => TypeTag::Str,
            Value::List(_) => TypeTag::List,
            Value::ObjRef(_) => TypeTag::ObjRef,
        }
    }

    /// Returns the integer payload, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the list payload, if this is a [`Value::List`].
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the object reference, if this is a [`Value::ObjRef`].
    pub fn as_obj_ref(&self) -> Option<ObjectId> {
        match self {
            Value::ObjRef(o) => Some(*o),
            _ => None,
        }
    }

    /// Approximate serialized size in bytes, used for wire-size accounting.
    pub fn approx_size(&self) -> u64 {
        match self {
            Value::Unit => 1,
            Value::Int(_) => 9,
            Value::Bool(_) => 2,
            Value::Str(s) => 5 + s.len() as u64,
            Value::List(v) => 5 + v.iter().map(Value::approx_size).sum::<u64>(),
            Value::ObjRef(_) => 9,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::List(v) => {
                write!(f, "[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
            Value::ObjRef(o) => write!(f, "{o}"),
        }
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Int(n)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<ObjectId> for Value {
    fn from(o: ObjectId) -> Self {
        Value::ObjRef(o)
    }
}

impl From<()> for Value {
    fn from((): ()) -> Self {
        Value::Unit
    }
}

impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::List(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_tags_match_variants() {
        assert_eq!(Value::Unit.type_tag(), TypeTag::Unit);
        assert_eq!(Value::Int(1).type_tag(), TypeTag::Int);
        assert_eq!(Value::Bool(true).type_tag(), TypeTag::Bool);
        assert_eq!(Value::str("x").type_tag(), TypeTag::Str);
        assert_eq!(Value::List(vec![]).type_tag(), TypeTag::List);
        assert_eq!(
            Value::ObjRef(ObjectId::from_raw(1)).type_tag(),
            TypeTag::ObjRef
        );
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::str("hi").as_str(), Some("hi"));
        assert_eq!(
            Value::List(vec![Value::Int(1)]).as_list(),
            Some(&[Value::Int(1)][..])
        );
        assert_eq!(
            Value::ObjRef(ObjectId::from_raw(2)).as_obj_ref(),
            Some(ObjectId::from_raw(2))
        );
        assert_eq!(Value::Unit.as_int(), None);
        assert_eq!(Value::Int(0).as_bool(), None);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(7i64), Value::Int(7));
        assert_eq!(Value::from(false), Value::Bool(false));
        assert_eq!(Value::from("s"), Value::str("s"));
        assert_eq!(Value::from(()), Value::Unit);
        assert_eq!(Value::default(), Value::Unit);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Unit.to_string(), "()");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::str("a").to_string(), "\"a\"");
        assert_eq!(
            Value::List(vec![Value::Int(1), Value::Bool(true)]).to_string(),
            "[1, true]"
        );
    }

    #[test]
    fn approx_size_grows_with_content() {
        assert!(Value::str("hello world").approx_size() > Value::str("x").approx_size());
        let nested = Value::List(vec![Value::Int(1); 10]);
        assert!(nested.approx_size() > Value::List(vec![]).approx_size());
    }
}
