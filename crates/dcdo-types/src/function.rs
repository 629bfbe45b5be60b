//! Dynamic-function identity and classification (§2, §2.2, §3.2).
//!
//! A dynamic function is identified by name, carries a signature, is either
//! *exported* (callable from other objects) or *internal* (callable only from
//! within the object), is *enabled* or *disabled* at any moment, and may be
//! protected as *mandatory* or *permanent* to restrict evolution.

use std::fmt;
use std::rc::Rc;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// The name of a dynamic function, e.g. `"sort"`.
///
/// Names are the unit of identity in a DFM: all implementations of the same
/// logical function (possibly in different components) share one name.
/// Cheap to clone (`Rc`-backed).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct FunctionName(Rc<str>);

impl FunctionName {
    /// Creates a function name.
    pub fn new(name: impl Into<Rc<str>>) -> Self {
        FunctionName(name.into())
    }

    /// Returns the name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// An identity key for this name's shared allocation.
    ///
    /// Clones of one `FunctionName` share it; equal names created
    /// independently do not. Suitable only as a per-call-site cache key
    /// (two sites sharing a key is required for correctness-by-identity;
    /// two equal names with different keys merely miss the cache), and only
    /// while a clone of the name is alive — a freed allocation's address
    /// can be reused.
    pub fn identity_key(&self) -> usize {
        Rc::as_ptr(&self.0) as *const u8 as usize
    }
}

impl fmt::Display for FunctionName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for FunctionName {
    fn from(s: &str) -> Self {
        FunctionName::new(s)
    }
}

impl From<String> for FunctionName {
    fn from(s: String) -> Self {
        FunctionName::new(s)
    }
}

impl AsRef<str> for FunctionName {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

/// A value type in a dynamic-function signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TypeTag {
    /// The unit (void) type.
    Unit,
    /// A 64-bit signed integer.
    Int,
    /// A boolean.
    Bool,
    /// A string.
    Str,
    /// A heterogeneous list of values.
    List,
    /// A reference to another distributed object (for outcalls).
    ObjRef,
    /// Any value; disables type checking for that position.
    Any,
}

impl TypeTag {
    /// Returns `true` if a value of type `actual` is acceptable where `self`
    /// is expected.
    pub fn accepts(self, actual: TypeTag) -> bool {
        self == TypeTag::Any || actual == TypeTag::Any || self == actual
    }
}

impl fmt::Display for TypeTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TypeTag::Unit => "unit",
            TypeTag::Int => "int",
            TypeTag::Bool => "bool",
            TypeTag::Str => "str",
            TypeTag::List => "list",
            TypeTag::ObjRef => "objref",
            TypeTag::Any => "any",
        };
        f.write_str(s)
    }
}

impl FromStr for TypeTag {
    type Err = ParseSignatureError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "unit" => Ok(TypeTag::Unit),
            "int" => Ok(TypeTag::Int),
            "bool" => Ok(TypeTag::Bool),
            "str" => Ok(TypeTag::Str),
            "list" => Ok(TypeTag::List),
            "objref" => Ok(TypeTag::ObjRef),
            "any" => Ok(TypeTag::Any),
            _ => Err(ParseSignatureError {
                input: s.to_owned(),
            }),
        }
    }
}

/// The signature of a dynamic function: name, parameter types, return type.
///
/// Replacing a function's implementation while keeping the signature the same
/// never causes the disappearing-function failures of §3.1; signature
/// equality is therefore what DFM descriptors check when one implementation
/// is swapped for another.
///
/// # Examples
///
/// ```
/// use dcdo_types::{FunctionSignature, TypeTag};
///
/// let sig: FunctionSignature = "sort(list) -> list".parse()?;
/// assert_eq!(sig.name().as_str(), "sort");
/// assert_eq!(sig.params(), &[TypeTag::List]);
/// assert_eq!(sig.ret(), TypeTag::List);
/// # Ok::<(), dcdo_types::ParseSignatureError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FunctionSignature {
    name: FunctionName,
    params: Vec<TypeTag>,
    ret: TypeTag,
}

impl FunctionSignature {
    /// Creates a signature from parts.
    pub fn new(name: impl Into<FunctionName>, params: Vec<TypeTag>, ret: TypeTag) -> Self {
        FunctionSignature {
            name: name.into(),
            params,
            ret,
        }
    }

    /// Returns the function name.
    pub fn name(&self) -> &FunctionName {
        &self.name
    }

    /// Returns the parameter types.
    pub fn params(&self) -> &[TypeTag] {
        &self.params
    }

    /// Returns the return type.
    pub fn ret(&self) -> TypeTag {
        self.ret
    }

    /// Returns `true` if `other` can replace `self` without breaking callers:
    /// same name, same arity, pairwise-compatible parameter and return types.
    pub fn compatible_with(&self, other: &FunctionSignature) -> bool {
        self.name == other.name
            && self.params.len() == other.params.len()
            && self
                .params
                .iter()
                .zip(other.params.iter())
                .all(|(a, b)| a.accepts(*b))
            && self.ret.accepts(other.ret)
    }
}

impl fmt::Display for FunctionSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, ") -> {}", self.ret)
    }
}

/// Error returned when parsing a [`FunctionSignature`] or [`TypeTag`] fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSignatureError {
    input: String,
}

impl fmt::Display for ParseSignatureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid signature {:?}: expected `name(type, ...) -> type`",
            self.input
        )
    }
}

impl std::error::Error for ParseSignatureError {}

impl FromStr for FunctionSignature {
    type Err = ParseSignatureError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseSignatureError {
            input: s.to_owned(),
        };
        let (head, ret) = match s.split_once("->") {
            Some((head, ret)) => (head.trim(), ret.trim().parse::<TypeTag>()?),
            None => (s.trim(), TypeTag::Unit),
        };
        let open = head.find('(').ok_or_else(err)?;
        if !head.ends_with(')') {
            return Err(err());
        }
        let name = head[..open].trim();
        if name.is_empty() {
            return Err(err());
        }
        let inner = head[open + 1..head.len() - 1].trim();
        let params = if inner.is_empty() {
            Vec::new()
        } else {
            inner
                .split(',')
                .map(|p| p.trim().parse::<TypeTag>())
                .collect::<Result<_, _>>()?
        };
        Ok(FunctionSignature::new(name, params, ret))
    }
}

/// Whether a dynamic function may be invoked from outside the object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Visibility {
    /// Part of the object's public interface; invokable from other objects.
    Exported,
    /// Callable only from within the object in which it resides.
    Internal,
}

impl Visibility {
    /// Returns `true` for [`Visibility::Exported`].
    pub fn is_exported(self) -> bool {
        self == Visibility::Exported
    }
}

impl fmt::Display for Visibility {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Visibility::Exported => "exported",
            Visibility::Internal => "internal",
        })
    }
}

/// Whether calls to a dynamic function are currently allowed (§2).
///
/// Disabling a function does not evict threads already executing inside it —
/// only *future* calls are disallowed by the DFM (§3.2, thread activity
/// monitoring).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FunctionState {
    /// Some thread's flow of control may enter the function.
    Enabled,
    /// The object disallows all (new) calls to the function.
    Disabled,
}

impl FunctionState {
    /// Returns `true` for [`FunctionState::Enabled`].
    pub fn is_enabled(self) -> bool {
        self == FunctionState::Enabled
    }
}

impl fmt::Display for FunctionState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FunctionState::Enabled => "enabled",
            FunctionState::Disabled => "disabled",
        })
    }
}

/// Evolution protection of a dynamic function (§3.2).
///
/// Protections are ordered by strictness: `FullyDynamic < Mandatory <
/// Permanent`, and a derived version may strengthen but never weaken a
/// protection inherited from its parent.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub enum Protection {
    /// No restriction; the function can be replaced, disabled, and removed.
    #[default]
    FullyDynamic,
    /// Some enabled implementation of the function must always be present in
    /// every instantiable version derived from the version that marked it.
    Mandatory,
    /// The specific implementation is frozen: it can be neither replaced nor
    /// disabled in any derived version.
    Permanent,
}

impl Protection {
    /// Returns `true` if the protection requires *some* implementation to
    /// remain enabled (both `Mandatory` and `Permanent` do).
    pub fn requires_presence(self) -> bool {
        self >= Protection::Mandatory
    }

    /// Returns `true` if the protection freezes the specific implementation.
    pub fn freezes_implementation(self) -> bool {
        self == Protection::Permanent
    }
}

impl fmt::Display for Protection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Protection::FullyDynamic => "fully-dynamic",
            Protection::Mandatory => "mandatory",
            Protection::Permanent => "permanent",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn function_name_round_trips() {
        let f = FunctionName::new("compare");
        assert_eq!(f.as_str(), "compare");
        assert_eq!(f.to_string(), "compare");
        assert_eq!(FunctionName::from("compare"), f);
        assert_eq!(f.as_ref(), "compare");
    }

    #[test]
    fn signature_parses_the_paper_example() {
        // §3.2: "Integer[] sort(Integer[])" and "Integer compare(Integer, Integer)".
        let sort: FunctionSignature = "sort(list) -> list".parse().unwrap();
        assert_eq!(sort.to_string(), "sort(list) -> list");
        let compare: FunctionSignature = "compare(int, int) -> int".parse().unwrap();
        assert_eq!(compare.params().len(), 2);
        assert_eq!(compare.ret(), TypeTag::Int);
    }

    #[test]
    fn signature_defaults_to_unit_return() {
        let sig: FunctionSignature = "ping()".parse().unwrap();
        assert_eq!(sig.ret(), TypeTag::Unit);
        assert!(sig.params().is_empty());
    }

    #[test]
    fn signature_parse_rejects_malformed() {
        for bad in ["", "noparens", "(int)", "f(int", "f(wibble)", "f() -> wat"] {
            assert!(bad.parse::<FunctionSignature>().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn compatible_same_signature() {
        let a: FunctionSignature = "compare(int, int) -> int".parse().unwrap();
        let b: FunctionSignature = "compare(int, int) -> int".parse().unwrap();
        assert!(a.compatible_with(&b));
    }

    #[test]
    fn incompatible_on_name_arity_or_types() {
        let a: FunctionSignature = "compare(int, int) -> int".parse().unwrap();
        let renamed: FunctionSignature = "cmp(int, int) -> int".parse().unwrap();
        let arity: FunctionSignature = "compare(int) -> int".parse().unwrap();
        let types: FunctionSignature = "compare(str, int) -> int".parse().unwrap();
        assert!(!a.compatible_with(&renamed));
        assert!(!a.compatible_with(&arity));
        assert!(!a.compatible_with(&types));
    }

    #[test]
    fn any_accepts_everything() {
        assert!(TypeTag::Any.accepts(TypeTag::Int));
        assert!(TypeTag::Int.accepts(TypeTag::Any));
        assert!(!TypeTag::Int.accepts(TypeTag::Str));
        let generic: FunctionSignature = "apply(any) -> any".parse().unwrap();
        let concrete: FunctionSignature = "apply(int) -> str".parse().unwrap();
        assert!(generic.compatible_with(&concrete));
    }

    #[test]
    fn protection_ordering_matches_strictness() {
        assert!(Protection::FullyDynamic < Protection::Mandatory);
        assert!(Protection::Mandatory < Protection::Permanent);
        assert!(!Protection::FullyDynamic.requires_presence());
        assert!(Protection::Mandatory.requires_presence());
        assert!(Protection::Permanent.requires_presence());
        assert!(Protection::Permanent.freezes_implementation());
        assert!(!Protection::Mandatory.freezes_implementation());
        assert_eq!(Protection::default(), Protection::FullyDynamic);
    }

    #[test]
    fn visibility_and_state_helpers() {
        assert!(Visibility::Exported.is_exported());
        assert!(!Visibility::Internal.is_exported());
        assert!(FunctionState::Enabled.is_enabled());
        assert!(!FunctionState::Disabled.is_enabled());
        assert_eq!(Visibility::Internal.to_string(), "internal");
        assert_eq!(FunctionState::Disabled.to_string(), "disabled");
    }
}
