//! Context space: the human-readable hierarchical namespace.
//!
//! Legion names objects with hierarchical context paths (like a filesystem)
//! that resolve to object identifiers; the DCDO model leans on this global
//! namespace so implementation components can be *named* rather than copied
//! around (§2.3). The context space maps paths to [`ObjectId`]s; binding
//! agents then map identities to physical addresses.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use dcdo_sim::{Actor, ActorId, Ctx};
use dcdo_types::{CallId, ObjectId};
use serde::{Deserialize, Serialize};

use crate::msg::{Ack, Msg};
use crate::object::{self, LegionObject, Served};

/// A hierarchical context path like `/home/components/sorting-v2`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ContextPath(String);

impl ContextPath {
    /// The root context, `/`.
    pub fn root() -> Self {
        ContextPath("/".to_owned())
    }

    /// Returns the path as a string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Returns the path segments.
    pub fn segments(&self) -> impl Iterator<Item = &str> {
        self.0.split('/').filter(|s| !s.is_empty())
    }

    /// Appends a segment.
    ///
    /// # Panics
    ///
    /// Panics if `segment` is empty or contains `/`.
    pub fn join(&self, segment: &str) -> ContextPath {
        assert!(
            !segment.is_empty() && !segment.contains('/'),
            "invalid path segment {segment:?}"
        );
        if self.0 == "/" {
            ContextPath(format!("/{segment}"))
        } else {
            ContextPath(format!("{}/{segment}", self.0))
        }
    }

    /// Returns `true` if `self` is a (non-strict) prefix context of `other`.
    pub fn contains(&self, other: &ContextPath) -> bool {
        if self.0 == "/" {
            return true;
        }
        other.0 == self.0 || other.0.starts_with(&format!("{}/", self.0))
    }
}

impl fmt::Display for ContextPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Error returned when parsing a [`ContextPath`] fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePathError {
    input: String,
}

impl fmt::Display for ParsePathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid context path {:?}: must start with '/' and have no empty segments",
            self.input
        )
    }
}

impl std::error::Error for ParsePathError {}

impl FromStr for ContextPath {
    type Err = ParsePathError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParsePathError {
            input: s.to_owned(),
        };
        if s == "/" {
            return Ok(ContextPath::root());
        }
        if !s.starts_with('/') || s.ends_with('/') {
            return Err(err());
        }
        if s[1..].split('/').any(str::is_empty) {
            return Err(err());
        }
        Ok(ContextPath(s.to_owned()))
    }
}

/// Control op: bind a path to an object.
#[derive(Debug, Clone)]
pub struct BindName {
    /// The path to bind.
    pub path: ContextPath,
    /// The object it names.
    pub object: ObjectId,
}

/// Control op: remove a path binding.
#[derive(Debug, Clone)]
pub struct UnbindName {
    /// The path to remove.
    pub path: ContextPath,
}

/// Control op: resolve a path.
#[derive(Debug, Clone)]
pub struct LookupName {
    /// The path to resolve.
    pub path: ContextPath,
}

/// Control reply to [`LookupName`].
#[derive(Debug, Clone)]
pub struct NameResult {
    /// The path asked about.
    pub path: ContextPath,
    /// The object it names, if bound.
    pub object: Option<ObjectId>,
}

/// Control op: list bindings under a context.
#[derive(Debug, Clone)]
pub struct ListContext {
    /// The context to list.
    pub context: ContextPath,
}

/// Control reply to [`ListContext`].
#[derive(Debug, Clone)]
pub struct ContextListing {
    /// The bindings under the requested context, in path order.
    pub entries: Vec<(ContextPath, ObjectId)>,
}

crate::control_ops! {
    /// The ops a context space serves.
    pub enum NamingOp {
        BindName = "bind-name", 64;
        UnbindName = "unbind-name", 64;
        LookupName = "lookup-name", 64;
        ListContext = "list-context", 64;
    }

    /// A context space's replies.
    pub enum NamingReply {
        NameResult = "name-result", 64;
        ContextListing = "context-listing",
            |op| 32 + op.entries.iter().map(|(p, _)| p.as_str().len() as u64 + 8).sum::<u64>();
    }
}

/// The context-space object: hierarchical path → object map.
#[derive(Debug)]
pub struct ContextSpace {
    object: ObjectId,
    bindings: BTreeMap<ContextPath, ObjectId>,
}

impl ContextSpace {
    /// Creates an empty context space.
    pub fn new(object: ObjectId) -> Self {
        ContextSpace {
            object,
            bindings: BTreeMap::new(),
        }
    }

    /// Direct (driver-side) bind.
    pub fn bind(&mut self, path: ContextPath, object: ObjectId) {
        self.bindings.insert(path, object);
    }

    /// Direct (driver-side) lookup.
    pub fn lookup(&self, path: &ContextPath) -> Option<ObjectId> {
        self.bindings.get(path).copied()
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// Returns `true` if the namespace is empty.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }
}

impl LegionObject for ContextSpace {
    type Ops<'a> = NamingOp<'a>;

    fn object_id(&self) -> ObjectId {
        self.object
    }

    fn control(
        &mut self,
        _: &mut Ctx<'_, Msg>,
        _: ActorId,
        call: CallId,
        op: NamingOp<'_>,
    ) -> Served {
        Served::Reply(match op {
            NamingOp::BindName(bind) => {
                self.bindings.insert(bind.path.clone(), bind.object);
                Msg::control_ok(call, Ack)
            }
            NamingOp::UnbindName(unbind) => {
                self.bindings.remove(&unbind.path);
                Msg::control_ok(call, Ack)
            }
            NamingOp::LookupName(lookup) => Msg::control_ok(
                call,
                NameResult {
                    path: lookup.path.clone(),
                    object: self.bindings.get(&lookup.path).copied(),
                },
            ),
            NamingOp::ListContext(list) => {
                let entries = self
                    .bindings
                    .iter()
                    .filter(|(p, _)| list.context.contains(p))
                    .map(|(p, o)| (p.clone(), *o))
                    .collect();
                Msg::control_ok(call, ContextListing { entries })
            }
        })
    }
}

impl Actor<Msg> for ContextSpace {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
        object::deliver(self, ctx, from, msg);
    }

    fn name(&self) -> &str {
        "context-space"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_parse_and_display() {
        let p: ContextPath = "/home/components/sort".parse().expect("valid");
        assert_eq!(p.to_string(), "/home/components/sort");
        assert_eq!(
            p.segments().collect::<Vec<_>>(),
            vec!["home", "components", "sort"]
        );
        assert_eq!(ContextPath::root().to_string(), "/");
    }

    #[test]
    fn path_parse_rejects_malformed() {
        for bad in ["", "relative", "/a//b", "/trailing/"] {
            assert!(bad.parse::<ContextPath>().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn path_join_and_contains() {
        let home: ContextPath = "/home".parse().expect("valid");
        let sub = home.join("components");
        assert_eq!(sub.to_string(), "/home/components");
        assert!(home.contains(&sub));
        assert!(home.contains(&home));
        assert!(!sub.contains(&home));
        assert!(ContextPath::root().contains(&home));
        let homer: ContextPath = "/homer".parse().expect("valid");
        assert!(!home.contains(&homer), "prefix must respect segment bounds");
    }

    #[test]
    #[should_panic(expected = "invalid path segment")]
    fn join_rejects_bad_segment() {
        let _ = ContextPath::root().join("a/b");
    }

    #[test]
    fn direct_bind_lookup() {
        let mut cs = ContextSpace::new(ObjectId::from_raw(1));
        let p: ContextPath = "/svc".parse().expect("valid");
        assert!(cs.is_empty());
        cs.bind(p.clone(), ObjectId::from_raw(9));
        assert_eq!(cs.lookup(&p), Some(ObjectId::from_raw(9)));
        assert_eq!(cs.len(), 1);
    }
}
