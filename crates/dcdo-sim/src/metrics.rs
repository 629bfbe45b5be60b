//! Named event counters, and the nearest-rank quantile rule.
//!
//! Actors bump counters through `Ctx::metrics`; the workload drivers, the
//! scenario runner's `metric_*` expectations and the repo benchmark read
//! them after a run. A counter is kept only where something reads it: an
//! event the span log records (a completed RPC, a binding miss, a flow) is
//! counted from its spans, not here; the engine's own counts are typed
//! fields (`Simulation::counter` resolves their `sim.*` names). No duration
//! is kept here either: every timed operation is a flow or a flow step in
//! the span log, and its latency is read from there.

use std::collections::BTreeMap;

/// The nearest-rank `q`-quantile (`0.0 ..= 1.0`) of samples already in
/// ascending order, or `None` if there are none.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let last = sorted.len().checked_sub(1)?;
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
    Some(sorted[rank.min(last)])
}

/// A named collection of counters, in name order.
///
/// A counter exists (in [`Metrics::counters`]) only once bumped; only its
/// first bump allocates its key.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
}

impl Metrics {
    /// Creates an empty metrics registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds `delta` to the named counter, creating it at zero if absent.
    pub fn add(&mut self, name: &str, delta: u64) {
        // Look up by `&str`: only a counter's first touch allocates its key.
        match self.counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                self.counters.insert(name.to_owned(), delta);
            }
        }
    }

    /// Increments the named counter by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Returns the value of the named counter (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Iterates over all counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(n, v)| (n.as_str(), *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        assert_eq!(m.counter("x"), 0);
        m.incr("x");
        m.add("x", 4);
        assert_eq!(m.counter("x"), 5);
        assert_eq!(m.counters().collect::<Vec<_>>(), vec![("x", 5)]);
    }

    #[test]
    fn a_known_key_is_found_not_reinserted() {
        let mut m = Metrics::new();
        m.incr("x");
        let keys = |m: &Metrics| m.counters.keys().map(|k| k.as_ptr()).collect::<Vec<_>>();
        let before = keys(&m);
        m.incr("x");
        // Same map, same key allocation: the second touch built no key.
        assert_eq!(keys(&m), before);
        assert_eq!(m.counter("x"), 2);
    }

    #[test]
    fn histogram_statistics() {
        assert_eq!(nearest_rank(&[], 0.5), None);
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(nearest_rank(&sorted, 0.5), Some(3.0));
        assert_eq!(nearest_rank(&sorted, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&sorted, 1.0), Some(5.0));
    }

    #[test]
    fn quantile_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&sorted, 0.25), Some(25.0));
        assert_eq!(nearest_rank(&sorted, 0.99), Some(99.0));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn quantile_rejects_out_of_range() {
        let _ = nearest_rank(&[1.0], 1.5);
    }

    #[test]
    fn metrics_iteration_is_sorted_by_name() {
        // The exporters rely on deterministic iteration: counters come back
        // in lexicographic name order regardless of insertion order.
        let mut m = Metrics::new();
        for name in ["zeta", "alpha", "mid/sub", "mid", "Alpha"] {
            m.incr(name);
        }
        let counter_names: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(
            counter_names,
            vec!["Alpha", "alpha", "mid", "mid/sub", "zeta"]
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// The nearest-rank oracle: sort a copy, index directly.
        fn oracle_quantile(samples: &[f64], q: f64) -> f64 {
            let mut sorted = samples.to_vec();
            sorted.sort_by(f64::total_cmp);
            let rank = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
            sorted[rank.min(sorted.len() - 1)]
        }

        fn sorted(samples: &[f64]) -> Vec<f64> {
            let mut sorted = samples.to_vec();
            sorted.sort_by(f64::total_cmp);
            sorted
        }

        proptest! {
            #[test]
            fn quantile_matches_sort_oracle(
                samples in prop::collection::vec(-1e9..1e9f64, 1..200),
                q in 0.0..=1.0f64,
            ) {
                prop_assert_eq!(
                    nearest_rank(&sorted(&samples), q).expect("nonempty"),
                    oracle_quantile(&samples, q)
                );
            }

            #[test]
            fn quantiles_are_monotone_in_q(
                samples in prop::collection::vec(-1e6..1e6f64, 1..100),
                qs in prop::collection::vec(0.0..=1.0f64, 2..8),
            ) {
                let samples = sorted(&samples);
                let mut qs = qs;
                qs.sort_by(f64::total_cmp);
                let values: Vec<f64> = qs
                    .iter()
                    .map(|&q| nearest_rank(&samples, q).expect("nonempty"))
                    .collect();
                for w in values.windows(2) {
                    prop_assert!(w[0] <= w[1], "quantiles must be monotone: {w:?}");
                }
            }
        }
    }
}
