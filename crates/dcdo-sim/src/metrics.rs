//! Measurement collection for experiments.
//!
//! Counters count events; histograms collect sample distributions (latencies,
//! sizes) and report means and quantiles. The benchmark harness reads these
//! after a run to print the paper-style tables.

use std::collections::BTreeMap;
use std::fmt;

use crate::time::SimDuration;

/// A distribution of `f64` samples with quantile reporting.
///
/// Samples are kept raw (the experiments collect at most tens of thousands of
/// points), so quantiles are exact. The running sum, minimum, and maximum are
/// maintained incrementally on [`record`](Histogram::record), so
/// [`mean`](Histogram::mean), [`min`](Histogram::min), and
/// [`max`](Histogram::max) are O(1) even mid-run — the experiment drivers
/// poll them between batches without paying a rescan of the sample buffer.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
    sum: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Creates an empty histogram with capacity for `n` samples, avoiding
    /// buffer regrowth when the sample count is known up front.
    pub fn with_capacity(n: usize) -> Self {
        Histogram {
            samples: Vec::with_capacity(n),
            ..Histogram::default()
        }
    }

    /// Reserves capacity for at least `additional` more samples.
    pub fn reserve(&mut self, additional: usize) {
        self.samples.reserve(additional);
    }

    /// Records a sample.
    ///
    /// Non-finite samples (NaN, ±∞) are rejected — silently dropped — since
    /// they carry no usable measurement and would poison the running sum
    /// and the quantile sort. Count, mean, min, max, and quantiles reflect
    /// only the finite samples recorded.
    pub fn record(&mut self, sample: f64) {
        if !sample.is_finite() {
            return;
        }
        self.samples.push(sample);
        self.sorted = false;
        self.sum += sample;
        self.min = Some(self.min.map_or(sample, |m| m.min(sample)));
        self.max = Some(self.max.map_or(sample, |m| m.max(sample)));
    }

    /// Records a duration sample in seconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_secs_f64());
    }

    /// Returns the number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Returns the arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.sum / self.samples.len() as f64)
        }
    }

    /// Returns the smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// Returns the largest sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.max
    }

    /// Returns the `q`-quantile (`0.0 ..= 1.0`) by nearest-rank, or `None` if
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if !self.sorted {
            // All samples are finite (`record` rejects non-finite), so
            // total_cmp agrees with the numeric order.
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        nearest_rank(&self.samples, q)
    }

    /// Returns the median, or `None` if empty.
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Returns the population standard deviation, or `None` if empty.
    ///
    /// Two-pass: the mean comes from the cached running sum (O(1)), then one
    /// sweep accumulates squared deviations — numerically stable without the
    /// per-record cost of Welford. A single sample yields `Some(0.0)`.
    /// Non-finite samples never enter the buffer
    /// ([`record`](Histogram::record) rejects them), so the result is always
    /// finite for a non-empty histogram.
    pub fn stddev(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let n = self.samples.len() as f64;
        let mean = self.sum / n;
        let var = self
            .samples
            .iter()
            .map(|s| {
                let d = s - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        Some(var.sqrt())
    }

    /// Returns a view of the raw samples, in insertion order unless a
    /// quantile has been computed (which sorts them).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

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

/// A counter resolved to its slot in one [`Metrics`] registry, for a
/// per-call path: bumping it through [`Metrics::add_at`] is an index, with
/// no name lookup. Valid only with the registry that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSlot(u32);

/// A named collection of counters and histograms.
///
/// A counter lives in one of two places: the name-ordered `counters` map,
/// or — once a caller resolved it with [`Metrics::counter_slot`] — the slot
/// table, indexed by [`CounterSlot`]. A slot holds `None` until its counter
/// is first bumped, so a counter exists (in [`Metrics::counters`]) only
/// once bumped. Slots are never removed, so a [`CounterSlot`] stays valid
/// for the registry's life. The table is boxed and absent until the first
/// resolution, so a registry that resolves no slot pays one pointer for it.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    slots: Option<Box<SlotTable>>,
    histograms: BTreeMap<String, Histogram>,
}

/// Resolved counters, indexed by [`CounterSlot`]: name and value (`None`
/// until first bumped).
#[derive(Debug, Clone, Default)]
struct SlotTable(Vec<(String, Option<u64>)>);

impl Metrics {
    /// Creates an empty metrics registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Resolves the named counter to its slot, once, for a caller that
    /// bumps it per call. Resolving does not create the counter; a value it
    /// already has moves to the slot.
    pub fn counter_slot(&mut self, name: &str) -> CounterSlot {
        let table = &mut self.slots.get_or_insert_with(Box::default).0;
        let slot = match table.iter().position(|(n, _)| n == name) {
            Some(slot) => slot,
            None => {
                table.push((name.to_owned(), self.counters.remove(name)));
                table.len() - 1
            }
        };
        CounterSlot(u32::try_from(slot).expect("counter slot overflow"))
    }

    /// Adds `delta` to the counter at `slot`, creating it at zero if absent.
    #[inline]
    pub fn add_at(&mut self, slot: CounterSlot, delta: u64) {
        let table = self
            .slots
            .as_deref_mut()
            .expect("a CounterSlot comes from its own registry");
        *table.0[slot.0 as usize].1.get_or_insert(0) += delta;
    }

    /// Adds `delta` to the named counter, creating it at zero if absent.
    pub fn add(&mut self, name: &str, delta: u64) {
        // Look up by `&str`: only a counter's first touch allocates its key.
        if let Some(v) = self.counters.get_mut(name) {
            *v += delta;
            return;
        }
        let slotted = self.slots.as_deref_mut().map_or(&mut [][..], |t| &mut t.0);
        match slotted.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v.get_or_insert(0) += delta,
            None => {
                self.counters.insert(name.to_owned(), delta);
            }
        }
    }

    /// The resolved counters, in slot order.
    fn slotted(&self) -> &[(String, Option<u64>)] {
        self.slots.as_deref().map_or(&[], |t| &t.0)
    }

    /// Increments the named counter by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Returns the value of the named counter (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .get(name)
            .copied()
            .or_else(|| self.slotted().iter().find(|(n, _)| n == name)?.1)
            .unwrap_or(0)
    }

    /// Records a sample into the named histogram.
    pub fn sample(&mut self, name: &str, value: f64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.record(value),
            None => self
                .histograms
                .entry(name.to_owned())
                .or_default()
                .record(value),
        }
    }

    /// Records a duration sample (in seconds) into the named histogram.
    pub fn sample_duration(&mut self, name: &str, d: SimDuration) {
        self.sample(name, d.as_secs_f64());
    }

    /// Returns the named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Returns the named histogram mutably (needed for quantiles), if any.
    pub fn histogram_mut(&mut self, name: &str) -> Option<&mut Histogram> {
        self.histograms.get_mut(name)
    }

    /// Iterates over all counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        let mut slotted: Vec<(&str, u64)> = self
            .slotted()
            .iter()
            .filter_map(|(n, v)| Some((n.as_str(), (*v)?)))
            .collect();
        slotted.sort_unstable_by_key(|&(n, _)| n);
        let mut slotted = slotted.into_iter().peekable();
        let mut named = self
            .counters
            .iter()
            .map(|(n, v)| (n.as_str(), *v))
            .peekable();
        std::iter::from_fn(move || match (named.peek(), slotted.peek()) {
            (Some(a), Some(b)) if b.0 < a.0 => slotted.next(),
            (Some(_), _) => named.next(),
            (None, _) => slotted.next(),
        })
    }

    /// Iterates over all histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Clears all counters and histograms. Resolved [`CounterSlot`]s stay
    /// valid.
    pub fn reset(&mut self) {
        self.counters.clear();
        if let Some(table) = self.slots.as_deref_mut() {
            table.0.iter_mut().for_each(|(_, v)| *v = None);
        }
        self.histograms.clear();
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "counters:")?;
        for (name, v) in self.counters() {
            writeln!(f, "  {name} = {v}")?;
        }
        writeln!(f, "histograms:")?;
        for (name, h) in &self.histograms {
            writeln!(
                f,
                "  {name}: n={} mean={:?} min={:?} max={:?}",
                h.count(),
                h.mean(),
                h.min(),
                h.max()
            )?;
        }
        Ok(())
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
        m.sample("lat", 1.0);
        let keys = |m: &Metrics| {
            let ptrs = |k: &String| k.as_ptr();
            (
                m.counters.keys().map(ptrs).collect::<Vec<_>>(),
                m.histograms.keys().map(ptrs).collect::<Vec<_>>(),
            )
        };
        let before = keys(&m);
        m.incr("x");
        m.sample("lat", 2.0);
        // Same maps, same key allocations: the second touch built no key.
        assert_eq!(keys(&m), before);
        assert_eq!(m.counter("x"), 2);
        assert_eq!(m.histogram("lat").expect("recorded").count(), 2);
    }

    #[test]
    fn a_resolved_slot_bumps_the_named_counter_and_exists_only_once_bumped() {
        let mut m = Metrics::new();
        m.incr("b");
        let slot = m.counter_slot("a");
        assert_eq!(m.counter_slot("a"), slot, "resolving twice finds one slot");
        assert_eq!(m.counter("a"), 0);
        assert_eq!(m.counters().collect::<Vec<_>>(), vec![("b", 1)]);
        m.add_at(slot, 2);
        m.incr("a");
        assert_eq!(m.counter("a"), 3);
        m.incr("c");
        assert_eq!(
            m.counters().collect::<Vec<_>>(),
            vec![("a", 3), ("b", 1), ("c", 1)]
        );
        // A counter bumped by name keeps its value when resolved.
        let b = m.counter_slot("b");
        m.add_at(b, 1);
        assert_eq!(
            m.counters().collect::<Vec<_>>(),
            vec![("a", 3), ("b", 2), ("c", 1)]
        );
        m.reset();
        assert_eq!(m.counters().count(), 0);
        m.add_at(slot, 1);
        assert_eq!(m.counters().collect::<Vec<_>>(), vec![("a", 1)]);
    }

    #[test]
    fn histogram_statistics() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        for x in [4.0, 1.0, 3.0, 2.0, 5.0] {
            h.record(x);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean(), Some(3.0));
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(5.0));
        assert_eq!(h.median(), Some(3.0));
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(5.0));
    }

    #[test]
    fn running_statistics_survive_capacity_and_sorting() {
        let mut h = Histogram::with_capacity(8);
        h.reserve(100);
        assert!(h.samples.capacity() >= 100);
        for x in [2.0, -1.0, 7.0, 3.0] {
            h.record(x);
        }
        // Sorting for a quantile must not disturb the cached aggregates.
        assert_eq!(h.median(), Some(2.0));
        assert_eq!(h.mean(), Some(2.75));
        assert_eq!(h.min(), Some(-1.0));
        assert_eq!(h.max(), Some(7.0));
        h.record(-9.0);
        assert_eq!(h.min(), Some(-9.0));
        assert_eq!(h.max(), Some(7.0));
    }

    #[test]
    fn quantile_nearest_rank() {
        let mut h = Histogram::new();
        for x in 1..=100 {
            h.record(x as f64);
        }
        assert_eq!(h.quantile(0.25), Some(25.0));
        assert_eq!(h.quantile(0.99), Some(99.0));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn quantile_rejects_out_of_range() {
        let mut h = Histogram::new();
        h.record(1.0);
        let _ = h.quantile(1.5);
    }

    #[test]
    fn duration_sampling() {
        let mut m = Metrics::new();
        m.sample_duration("lat", SimDuration::from_millis(250));
        let h = m.histogram("lat").expect("recorded");
        assert_eq!(h.count(), 1);
        assert!((h.mean().expect("nonempty") - 0.25).abs() < 1e-12);
        assert!(m.histogram("other").is_none());
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = Metrics::new();
        m.incr("a");
        m.sample("b", 1.0);
        m.reset();
        assert_eq!(m.counter("a"), 0);
        assert!(m.histogram("b").is_none());
    }

    #[test]
    fn display_never_empty() {
        let m = Metrics::new();
        let s = m.to_string();
        assert!(s.contains("counters"));
    }

    #[test]
    fn stddev_known_values() {
        let mut h = Histogram::new();
        assert_eq!(h.stddev(), None);
        h.record(4.0);
        assert_eq!(h.stddev(), Some(0.0), "single sample has zero spread");
        // 2, 4, 4, 4, 5, 5, 7, 9: the classic example with σ = 2.
        let mut h = Histogram::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            h.record(x);
        }
        assert!((h.stddev().expect("nonempty") - 2.0).abs() < 1e-12);
        // Non-finite junk never reaches the buffer, so it cannot skew σ.
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert!((h.stddev().expect("nonempty") - 2.0).abs() < 1e-12);
    }

    #[test]
    fn metrics_iteration_is_sorted_by_name() {
        // The exporters rely on deterministic iteration: counters and
        // histograms come back in lexicographic name order regardless of
        // insertion order.
        let mut m = Metrics::new();
        for name in ["zeta", "alpha", "mid/sub", "mid", "Alpha"] {
            m.incr(name);
            m.sample(name, 1.0);
        }
        let counter_names: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(
            counter_names,
            vec!["Alpha", "alpha", "mid", "mid/sub", "zeta"]
        );
        let histogram_names: Vec<&str> = m.histograms().map(|(k, _)| k).collect();
        assert_eq!(histogram_names, counter_names);
    }

    #[test]
    fn non_finite_samples_are_rejected() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        assert!(h.is_empty());
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        h.record(2.0);
        h.record(f64::NAN);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), Some(2.0));
        assert_eq!(h.median(), Some(2.0));
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

        /// Naive from-scratch oracle for the standard deviation: recompute
        /// the mean directly from the samples (ignoring the histogram's
        /// cached running sum) and take the population variance.
        fn oracle_stddev(samples: &[f64]) -> f64 {
            let n = samples.len() as f64;
            let mean = samples.iter().sum::<f64>() / n;
            (samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n).sqrt()
        }

        proptest! {
            #[test]
            fn stddev_matches_naive_oracle(
                samples in prop::collection::vec(-1e6..1e6f64, 1..200),
            ) {
                let mut h = Histogram::new();
                for &s in &samples {
                    h.record(s);
                }
                let got = h.stddev().expect("nonempty");
                let want = oracle_stddev(&samples);
                prop_assert!(
                    (got - want).abs() <= 1e-9 * (1.0 + want),
                    "stddev {got} != oracle {want}"
                );
                prop_assert!(got.is_finite() && got >= 0.0);
            }

            #[test]
            fn quantile_matches_sort_oracle(
                samples in prop::collection::vec(-1e9..1e9f64, 1..200),
                q in 0.0..=1.0f64,
            ) {
                let mut h = Histogram::new();
                for &s in &samples {
                    h.record(s);
                }
                prop_assert_eq!(
                    h.quantile(q).expect("nonempty"),
                    oracle_quantile(&samples, q)
                );
            }

            #[test]
            fn quantiles_are_monotone_in_q(
                samples in prop::collection::vec(-1e6..1e6f64, 1..100),
                qs in prop::collection::vec(0.0..=1.0f64, 2..8),
            ) {
                let mut h = Histogram::new();
                for &s in &samples {
                    h.record(s);
                }
                let mut qs = qs;
                qs.sort_by(f64::total_cmp);
                let values: Vec<f64> =
                    qs.iter().map(|&q| h.quantile(q).expect("nonempty")).collect();
                for w in values.windows(2) {
                    prop_assert!(w[0] <= w[1], "quantiles must be monotone: {w:?}");
                }
            }

            #[test]
            fn running_aggregates_survive_interleaved_quantiles(
                batches in prop::collection::vec(
                    prop::collection::vec(-1e6..1e6f64, 1..20),
                    1..6,
                ),
            ) {
                // Interleave record batches with quantile calls (which sort
                // the buffer) and check the incremental sum/min/max always
                // match a from-scratch recomputation.
                let mut h = Histogram::new();
                let mut all: Vec<f64> = Vec::new();
                for batch in &batches {
                    for &s in batch {
                        h.record(s);
                        all.push(s);
                    }
                    let _ = h.median(); // forces a sort mid-run
                    let n = all.len() as f64;
                    let mean = all.iter().sum::<f64>() / n;
                    let min = all.iter().copied().fold(f64::INFINITY, f64::min);
                    let max = all.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    prop_assert!((h.mean().expect("nonempty") - mean).abs() <= 1e-6 * n);
                    prop_assert_eq!(h.min().expect("nonempty"), min);
                    prop_assert_eq!(h.max().expect("nonempty"), max);
                    prop_assert_eq!(h.count(), all.len());
                }
            }

            #[test]
            fn non_finite_samples_never_poison_statistics(
                finite in prop::collection::vec(-1e6..1e6f64, 1..50),
                junk_positions in prop::collection::vec(any::<usize>(), 0..10),
                junk_kind in prop::collection::vec(0u8..3, 0..10),
            ) {
                // Splice NaN/±inf into the stream at arbitrary positions:
                // every statistic must behave as if they were never recorded.
                let mut h = Histogram::new();
                let junk: Vec<(usize, f64)> = junk_positions
                    .iter()
                    .zip(junk_kind.iter().chain(std::iter::repeat(&0)))
                    .map(|(pos, kind)| {
                        let junk = match kind {
                            0 => f64::NAN,
                            1 => f64::INFINITY,
                            _ => f64::NEG_INFINITY,
                        };
                        (pos % finite.len(), junk)
                    })
                    .collect();
                for (i, &s) in finite.iter().enumerate() {
                    for (_, j) in junk.iter().filter(|(at, _)| *at == i) {
                        h.record(*j);
                    }
                    h.record(s);
                }
                prop_assert_eq!(h.count(), finite.len());
                prop_assert_eq!(
                    h.quantile(0.5).expect("nonempty"),
                    oracle_quantile(&finite, 0.5)
                );
                let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
                prop_assert_eq!(h.min().expect("nonempty"), min);
            }
        }
    }
}
