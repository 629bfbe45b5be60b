//! The configuration join-semilattice.
//!
//! A group's next configuration is negotiated as a [`ConfigDelta`]: a
//! joinable description of *what should change*. Deltas form a
//! join-semilattice — [`ConfigDelta::join`] is commutative, associative,
//! and idempotent by construction (a product of max- and union-lattices) —
//! so concurrent proposals merge instead of aborting, the central idea of
//! reconfigurable lattice agreement. Whatever order proposals arrive in,
//! one epoch round joins them to the same delta, and applying the joined
//! delta to the previous [`GroupConfig`] yields the same next config on
//! every replica. The property suite in `tests/lattice_props.rs` is the
//! oracle for all three laws plus permutation-invariance of the digest.

use std::collections::{BTreeMap, BTreeSet};

use dcdo_sim::Fold;

/// A joinable description of a configuration change.
///
/// Each field is itself a join-semilattice: optional version tags merge by
/// max, member sets by union, and parameters by per-key max. Upgrade and
/// downgrade mark which members should run the new (resp. previous)
/// implementation version; at [`GroupConfig::apply`] time downgrade wins
/// over upgrade and removal wins over addition, which keeps apply a pure
/// function of the joined delta.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConfigDelta {
    /// Target implementation version (max-merge; `None` means unchanged).
    pub version: Option<u32>,
    /// Members to add to the group (union).
    pub add_members: BTreeSet<u32>,
    /// Members to remove from the group (union; wins over add at apply).
    pub remove_members: BTreeSet<u32>,
    /// Members to move to the target version (union).
    pub upgrade: BTreeSet<u32>,
    /// Members to move back to the base version (union; wins over upgrade
    /// at apply).
    pub downgrade: BTreeSet<u32>,
    /// Tunable parameters (per-key max-merge).
    pub params: BTreeMap<u32, u64>,
}

impl ConfigDelta {
    /// The empty delta (the lattice's bottom element).
    pub fn new() -> Self {
        ConfigDelta::default()
    }

    /// Sets the target version tag.
    pub fn with_version(mut self, version: u32) -> Self {
        self.version = Some(version);
        self
    }

    /// Marks `members` for upgrade to the target version.
    pub fn upgrading(mut self, members: impl IntoIterator<Item = u32>) -> Self {
        self.upgrade.extend(members);
        self
    }

    /// Marks `members` for downgrade back to the base version.
    pub fn downgrading(mut self, members: impl IntoIterator<Item = u32>) -> Self {
        self.downgrade.extend(members);
        self
    }

    /// Adds a member to the group.
    pub fn adding(mut self, member: u32) -> Self {
        self.add_members.insert(member);
        self
    }

    /// Removes a member from the group.
    pub fn removing(mut self, member: u32) -> Self {
        self.remove_members.insert(member);
        self
    }

    /// Sets parameter `key` to at least `value`.
    pub fn with_param(mut self, key: u32, value: u64) -> Self {
        let slot = self.params.entry(key).or_insert(value);
        *slot = (*slot).max(value);
        self
    }

    /// `true` if this is the empty delta (joining it changes nothing).
    pub fn is_empty(&self) -> bool {
        self == &ConfigDelta::default()
    }

    /// The least upper bound of two deltas.
    pub fn join(&self, other: &ConfigDelta) -> ConfigDelta {
        let version = match (self.version, other.version) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        let mut params = self.params.clone();
        for (&k, &v) in &other.params {
            let slot = params.entry(k).or_insert(v);
            *slot = (*slot).max(v);
        }
        ConfigDelta {
            version,
            add_members: self
                .add_members
                .union(&other.add_members)
                .copied()
                .collect(),
            remove_members: self
                .remove_members
                .union(&other.remove_members)
                .copied()
                .collect(),
            upgrade: self.upgrade.union(&other.upgrade).copied().collect(),
            downgrade: self.downgrade.union(&other.downgrade).copied().collect(),
            params,
        }
    }

    /// Joins `self` with `other` in place.
    pub fn join_in_place(&mut self, other: &ConfigDelta) {
        *self = self.join(other);
    }

    /// The join of an arbitrary collection of deltas (empty → bottom).
    pub fn join_all<'a>(deltas: impl IntoIterator<Item = &'a ConfigDelta>) -> ConfigDelta {
        deltas
            .into_iter()
            .fold(ConfigDelta::new(), |acc, d| acc.join(d))
    }

    /// Build-independent [`Fold`] digest over the delta's integer content.
    pub fn digest(&self) -> u64 {
        let mut h = Fold::new(self.params.len() as u64);
        tagged(&mut h, 1, self.version.map(|v| v as u64 + 1).unwrap_or(0));
        set(&mut h, 2, &self.add_members);
        set(&mut h, 3, &self.remove_members);
        set(&mut h, 4, &self.upgrade);
        set(&mut h, 5, &self.downgrade);
        for (&k, &v) in &self.params {
            tagged(&mut h, 6, k as u64);
            h.word(v);
        }
        h.finish()
    }
}

/// One committed configuration of a replica group.
///
/// `epoch` counts commits: the initial config is epoch 0 and every
/// committed round advances it by exactly one. All other fields are the
/// deterministic result of folding committed deltas over the initial
/// config with [`GroupConfig::apply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupConfig {
    /// The epoch this configuration was committed at.
    pub epoch: u64,
    /// The implementation version the group is converging to.
    pub version: u32,
    /// Current membership.
    pub members: BTreeSet<u32>,
    /// Members currently running [`GroupConfig::version`] (the rest still
    /// run the previous version — mid-rollout states are first-class).
    pub upgraded: BTreeSet<u32>,
    /// Tunable parameters.
    pub params: BTreeMap<u32, u64>,
}

impl GroupConfig {
    /// The epoch-0 configuration: `members` all running `version`, nobody
    /// upgraded, no parameters.
    pub fn initial(members: impl IntoIterator<Item = u32>, version: u32) -> Self {
        GroupConfig {
            epoch: 0,
            version,
            members: members.into_iter().collect(),
            upgraded: BTreeSet::new(),
            params: BTreeMap::new(),
        }
    }

    /// Applies a joined delta, producing the next epoch's configuration.
    ///
    /// Deterministic in the joined delta alone: removal wins over addition
    /// and downgrade wins over upgrade, so every replica that applies the
    /// same delta to the same config reaches the same successor.
    pub fn apply(&self, delta: &ConfigDelta) -> GroupConfig {
        let mut members = self.members.clone();
        members.extend(&delta.add_members);
        for m in &delta.remove_members {
            members.remove(m);
        }
        let mut upgraded = self.upgraded.clone();
        upgraded.extend(&delta.upgrade);
        for m in &delta.downgrade {
            upgraded.remove(m);
        }
        upgraded.retain(|m| members.contains(m));
        let mut params = self.params.clone();
        for (&k, &v) in &delta.params {
            params.insert(k, v);
        }
        GroupConfig {
            epoch: self.epoch + 1,
            version: delta.version.unwrap_or(self.version),
            members,
            upgraded,
            params,
        }
    }

    /// Build-independent [`Fold`] digest over the config's integer content.
    pub fn digest(&self) -> u64 {
        let mut h = Fold::new(self.params.len() as u64);
        tagged(&mut h, 1, self.epoch);
        tagged(&mut h, 2, self.version as u64);
        set(&mut h, 3, &self.members);
        set(&mut h, 4, &self.upgraded);
        for (&k, &v) in &self.params {
            tagged(&mut h, 5, k as u64);
            h.word(v);
        }
        h.finish()
    }
}

/// Digest framing over the workspace's one word fold: a tag word before
/// each field, a length word before each set, and the parameter count as
/// the fold's element count.
fn tagged(h: &mut Fold, tag: u64, w: u64) {
    h.word(tag);
    h.word(w);
}

fn set(h: &mut Fold, tag: u64, s: &BTreeSet<u32>) {
    tagged(h, tag, s.len() as u64);
    for &m in s {
        h.word(m as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(a: u32) -> ConfigDelta {
        ConfigDelta::new()
            .with_version(a)
            .upgrading([a, a + 1])
            .with_param(1, a as u64 * 10)
    }

    #[test]
    fn join_is_commutative_associative_idempotent() {
        let (a, b, c) = (sample(1), sample(2).downgrading([3]), sample(3).removing(7));
        assert_eq!(a.join(&b), b.join(&a));
        assert_eq!(a.join(&b).join(&c), a.join(&b.join(&c)));
        assert_eq!(a.join(&a), a);
        assert_eq!(a.join(&ConfigDelta::new()), a);
    }

    #[test]
    fn apply_is_deterministic_and_biased_to_removal() {
        let base = GroupConfig::initial(0..4, 1);
        let delta = ConfigDelta::new()
            .with_version(2)
            .upgrading([0, 1])
            .downgrading([1])
            .adding(9)
            .removing(9);
        let next = base.apply(&delta);
        assert_eq!(next.epoch, 1);
        assert_eq!(next.version, 2);
        // Downgrade wins over upgrade, removal wins over addition.
        assert!(next.upgraded.contains(&0) && !next.upgraded.contains(&1));
        assert!(!next.members.contains(&9));
        assert_eq!(base.apply(&delta), next);
    }

    #[test]
    fn digests_separate_distinct_content() {
        assert_ne!(sample(1).digest(), sample(2).digest());
        assert_ne!(
            ConfigDelta::new().upgrading([1]).digest(),
            ConfigDelta::new().downgrading([1]).digest()
        );
        let cfg = GroupConfig::initial(0..4, 1);
        assert_ne!(cfg.digest(), cfg.apply(&sample(1)).digest());
    }

    #[test]
    fn empty_delta_still_advances_the_epoch() {
        let base = GroupConfig::initial(0..3, 1);
        let next = base.apply(&ConfigDelta::new());
        assert_eq!(next.epoch, 1);
        assert_eq!(next.version, base.version);
        assert_eq!(next.members, base.members);
    }
}
