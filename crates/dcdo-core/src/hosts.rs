//! The manager's view of the testbed hosts.
//!
//! A DCDO Manager places instances on hosts and must know, per node, the
//! host object (component cache) and the native architecture — the latter so
//! DCDOs can refuse to map implementation components built for the wrong
//! architecture (§2.1) and so migration targets can be checked.

use std::collections::HashMap;

use dcdo_sim::NodeId;
use dcdo_types::{Architecture, ObjectId};
use legion_substrate::harness::Testbed;
use legion_substrate::host::HostObject;
use legion_substrate::object::LegionObject;

/// One node's host entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostEntry {
    /// The host object's identity (serves the component cache).
    pub object: ObjectId,
    /// The node's native architecture.
    pub arch: Architecture,
}

/// Node → host-object/architecture directory.
#[derive(Debug, Clone, Default)]
pub struct HostDirectory {
    entries: HashMap<NodeId, HostEntry>,
}

impl HostDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        HostDirectory::default()
    }

    /// Adds (or replaces) a node's entry.
    pub fn insert(&mut self, node: NodeId, object: ObjectId, arch: Architecture) {
        self.entries.insert(node, HostEntry { object, arch });
    }

    /// Builds the directory from a [`Testbed`]'s host objects.
    pub fn from_testbed(bed: &Testbed) -> Self {
        let mut dir = HostDirectory::new();
        for (node, actor) in bed.nodes.iter().zip(&bed.hosts) {
            let host = bed
                .sim
                .actor::<HostObject>(*actor)
                .expect("testbed hosts are alive");
            dir.insert(*node, host.object_id(), host.architecture());
        }
        dir
    }

    /// Overrides one node's architecture (heterogeneous-testbed scenarios).
    pub fn set_arch(&mut self, node: NodeId, arch: Architecture) {
        if let Some(entry) = self.entries.get_mut(&node) {
            entry.arch = arch;
        }
    }

    /// The entry for a node.
    pub fn entry(&self, node: NodeId) -> Option<HostEntry> {
        self.entries.get(&node).copied()
    }

    /// Returns `true` if the node is known.
    pub fn contains(&self, node: NodeId) -> bool {
        self.entries.contains_key(&node)
    }

    /// Number of known nodes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no nodes are known.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl FromIterator<(NodeId, ObjectId)> for HostDirectory {
    /// Builds a directory assuming x86 hosts (the Centurion default).
    fn from_iter<I: IntoIterator<Item = (NodeId, ObjectId)>>(iter: I) -> Self {
        let mut dir = HostDirectory::new();
        for (node, object) in iter {
            dir.insert(node, object, Architecture::X86);
        }
        dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut dir = HostDirectory::new();
        assert!(dir.is_empty());
        let node = NodeId::from_raw(3);
        dir.insert(node, ObjectId::from_raw(9), Architecture::Alpha);
        assert!(dir.contains(node));
        assert_eq!(dir.len(), 1);
        let entry = dir.entry(node).expect("present");
        assert_eq!(entry.object, ObjectId::from_raw(9));
        assert_eq!(entry.arch, Architecture::Alpha);
        assert_eq!(dir.entry(NodeId::from_raw(4)), None);
    }

    #[test]
    fn set_arch_overrides() {
        let mut dir: HostDirectory = [(NodeId::from_raw(0), ObjectId::from_raw(1))]
            .into_iter()
            .collect();
        assert_eq!(
            dir.entry(NodeId::from_raw(0)).expect("present").arch,
            Architecture::X86
        );
        dir.set_arch(NodeId::from_raw(0), Architecture::Sparc);
        assert_eq!(
            dir.entry(NodeId::from_raw(0)).expect("present").arch,
            Architecture::Sparc
        );
        // Unknown nodes are ignored.
        dir.set_arch(NodeId::from_raw(9), Architecture::Alpha);
        assert!(!dir.contains(NodeId::from_raw(9)));
    }

    #[test]
    fn from_testbed_reads_host_objects() {
        let bed = Testbed::centurion(1);
        let dir = HostDirectory::from_testbed(&bed);
        assert_eq!(dir.len(), bed.nodes.len());
        for node in &bed.nodes {
            assert_eq!(dir.entry(*node).expect("present").arch, Architecture::X86);
        }
    }
}
