//! The evolution management strategies of §3.3–3.5, as named presets.
//!
//! A strategy combines three knobs the paper describes:
//!
//! - the **version policy** (single-version vs the multi-version variants),
//!   enforced by the DCDO Manager;
//! - the **update propagation** (proactive push vs explicit request);
//! - the **lazy check** configuration of the DCDOs themselves (per call,
//!   every *k* calls, periodic).

use dcdo_core::ops::LazyCheck;
use dcdo_core::{UpdatePropagation, VersionPolicy};
use dcdo_sim::SimDuration;

/// A named evolution management strategy.
///
/// # Examples
///
/// ```
/// use dcdo_core::{UpdatePropagation, VersionPolicy};
/// use dcdo_workloads::Strategy;
///
/// let s = Strategy::SingleVersionProactive;
/// assert_eq!(s.version_policy(), VersionPolicy::SingleVersion);
/// assert_eq!(s.propagation(), UpdatePropagation::Proactive);
/// assert!(s.self_propagating());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Single-version; the manager pushes updates to every instance the
    /// moment a new current version is designated (§3.4 "proactive").
    SingleVersionProactive,
    /// Single-version; other objects call `updateInstance()` explicitly
    /// (§3.4 "explicit").
    SingleVersionExplicit,
    /// Single-version; each DCDO consults the manager on every invocation —
    /// strict consistency (§3.4 "lazy", first variant).
    SingleVersionLazyEveryCall,
    /// Single-version; each DCDO checks once every `k` invocations.
    SingleVersionLazyEveryK(u32),
    /// Single-version; each DCDO checks at most once per period.
    SingleVersionLazyPeriodic(SimDuration),
    /// Multi-version; instances never evolve (§3.5 "no-update").
    MultiNoUpdate,
    /// Multi-version; explicit updates restricted to descendants in the
    /// version tree (§3.5 "increasing version number").
    MultiIncreasingExplicit,
    /// Multi-version; explicit updates to any instantiable version
    /// (§3.5 "general evolution").
    MultiGeneralExplicit,
    /// Multi-version; any version that preserves mandatory functions and
    /// permanent implementations (§3.5 "hybrid").
    MultiHybridExplicit,
}

impl Strategy {
    /// All strategies, for sweeps and ablations.
    pub fn all() -> Vec<Strategy> {
        vec![
            Strategy::SingleVersionProactive,
            Strategy::SingleVersionExplicit,
            Strategy::SingleVersionLazyEveryCall,
            Strategy::SingleVersionLazyEveryK(8),
            Strategy::SingleVersionLazyPeriodic(SimDuration::from_secs(5)),
            Strategy::MultiNoUpdate,
            Strategy::MultiIncreasingExplicit,
            Strategy::MultiGeneralExplicit,
            Strategy::MultiHybridExplicit,
        ]
    }

    /// The manager-side version policy.
    pub fn version_policy(self) -> VersionPolicy {
        match self {
            Strategy::SingleVersionProactive
            | Strategy::SingleVersionExplicit
            | Strategy::SingleVersionLazyEveryCall
            | Strategy::SingleVersionLazyEveryK(_)
            | Strategy::SingleVersionLazyPeriodic(_) => VersionPolicy::SingleVersion,
            Strategy::MultiNoUpdate => VersionPolicy::MultiNoUpdate,
            Strategy::MultiIncreasingExplicit => VersionPolicy::MultiIncreasingVersion,
            Strategy::MultiGeneralExplicit => VersionPolicy::MultiGeneralEvolution,
            Strategy::MultiHybridExplicit => VersionPolicy::MultiHybrid,
        }
    }

    /// The manager-side propagation mode.
    pub fn propagation(self) -> UpdatePropagation {
        match self {
            Strategy::SingleVersionProactive => UpdatePropagation::Proactive,
            _ => UpdatePropagation::Explicit,
        }
    }

    /// The DCDO-side lazy-check configuration.
    pub fn lazy_check(self) -> LazyCheck {
        match self {
            Strategy::SingleVersionLazyEveryCall => LazyCheck::EveryCall,
            Strategy::SingleVersionLazyEveryK(k) => LazyCheck::EveryKCalls(k),
            Strategy::SingleVersionLazyPeriodic(t) => LazyCheck::Every(t),
            _ => LazyCheck::Never,
        }
    }

    /// A short display name for tables.
    pub fn name(self) -> String {
        match self {
            Strategy::SingleVersionProactive => "sv-proactive".into(),
            Strategy::SingleVersionExplicit => "sv-explicit".into(),
            Strategy::SingleVersionLazyEveryCall => "sv-lazy-call".into(),
            Strategy::SingleVersionLazyEveryK(k) => format!("sv-lazy-k{k}"),
            Strategy::SingleVersionLazyPeriodic(t) => {
                format!("sv-lazy-{}s", t.as_secs_f64())
            }
            Strategy::MultiNoUpdate => "mv-no-update".into(),
            Strategy::MultiIncreasingExplicit => "mv-increasing".into(),
            Strategy::MultiGeneralExplicit => "mv-general".into(),
            Strategy::MultiHybridExplicit => "mv-hybrid".into(),
        }
    }

    /// Whether instances are expected to converge to a newly designated
    /// current version without explicit per-instance requests.
    pub fn self_propagating(self) -> bool {
        matches!(
            self,
            Strategy::SingleVersionProactive
                | Strategy::SingleVersionLazyEveryCall
                | Strategy::SingleVersionLazyEveryK(_)
                | Strategy::SingleVersionLazyPeriodic(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_match_the_paper_taxonomy() {
        assert_eq!(
            Strategy::SingleVersionProactive.version_policy(),
            VersionPolicy::SingleVersion
        );
        assert_eq!(
            Strategy::SingleVersionProactive.propagation(),
            UpdatePropagation::Proactive
        );
        assert_eq!(
            Strategy::MultiIncreasingExplicit.version_policy(),
            VersionPolicy::MultiIncreasingVersion
        );
        assert_eq!(
            Strategy::MultiNoUpdate.version_policy(),
            VersionPolicy::MultiNoUpdate
        );
        assert_eq!(
            Strategy::SingleVersionLazyEveryCall.lazy_check(),
            LazyCheck::EveryCall
        );
        assert_eq!(
            Strategy::SingleVersionLazyEveryK(5).lazy_check(),
            LazyCheck::EveryKCalls(5)
        );
    }

    #[test]
    fn names_are_unique() {
        let names: Vec<String> = Strategy::all().into_iter().map(Strategy::name).collect();
        let mut deduped = names.clone();
        deduped.sort();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len());
    }

    #[test]
    fn self_propagation_classification() {
        assert!(Strategy::SingleVersionProactive.self_propagating());
        assert!(Strategy::SingleVersionLazyEveryCall.self_propagating());
        assert!(!Strategy::SingleVersionExplicit.self_propagating());
        assert!(!Strategy::MultiNoUpdate.self_propagating());
    }
}
