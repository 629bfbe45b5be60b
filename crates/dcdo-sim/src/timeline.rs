//! Windowed time-series telemetry: sim-time-bucketed snapshots of the
//! engine's event stream plus named counters and sample series.
//!
//! The aggregate [`Metrics`](crate::metrics::Metrics) registry answers
//! "what happened over the whole run"; the [`Timeline`] answers "when".
//! Simulated time is divided into fixed-width buckets (default 100 ms) and
//! every executed event lands in the bucket its timestamp falls in. The
//! hot path ([`Timeline::account`]) is one enabled-branch, one cached
//! end-of-bucket comparison, and a handful of plain `u64` increments — no
//! division, no map lookups — which is what lets the timeline stay on
//! during benchmarks.
//!
//! Bucketing is by *sim time*, not processing order: series derived after
//! the run land in the buckets the hot path already filled. The exporters
//! emit only order-independent statistics (counts, exact min/max,
//! nearest-rank quantiles — never float sums) through the one writer
//! ([`JsonWriter`], [`PromWriter`]), so the JSON and Prometheus text are
//! byte-identical across build profiles.

use dcdo_trace::{JsonWriter, PromWriter};

use crate::metrics::{Histogram, Metrics};

/// Default bucket width: 100 ms of simulated time.
pub const DEFAULT_BUCKET_NS: u64 = 100_000_000;

/// Per-bucket engine event counts, incremented on the hot path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Events executed in the bucket (all kinds).
    pub events: u64,
    /// Messages delivered to a live actor.
    pub delivered: u64,
    /// Timers fired.
    pub timers: u64,
    /// Messages dead-lettered (no such actor, or node down).
    pub dead_letters: u64,
    /// Node crashes.
    pub crashes: u64,
    /// Node restarts.
    pub restarts: u64,
}

/// The exported [`WindowStats`] fields, in export order.
const STAT_FIELDS: [&str; 6] = [
    "events",
    "delivered",
    "timers",
    "dead_letters",
    "crashes",
    "restarts",
];

impl WindowStats {
    fn merge(&mut self, other: &WindowStats) {
        self.events += other.events;
        self.delivered += other.delivered;
        self.timers += other.timers;
        self.dead_letters += other.dead_letters;
        self.crashes += other.crashes;
        self.restarts += other.restarts;
    }

    fn is_zero(&self) -> bool {
        *self == WindowStats::default()
    }

    /// Sum of the classified per-kind counts — what `events` is derived
    /// from when the accumulator flushes.
    fn observed(&self) -> u64 {
        self.delivered + self.timers + self.dead_letters + self.crashes + self.restarts
    }

    /// The counts in [`STAT_FIELDS`] order.
    fn values(&self) -> [u64; 6] {
        [
            self.events,
            self.delivered,
            self.timers,
            self.dead_letters,
            self.crashes,
            self.restarts,
        ]
    }
}

/// One finished time bucket: hot-path stats plus named counters/series.
#[derive(Debug, Clone, Default)]
pub struct Bucket {
    /// Engine event counts for the bucket.
    pub stats: WindowStats,
    /// Named counters and sample series recorded into the bucket.
    pub metrics: Metrics,
}

/// The windowed time-series registry. Enabled by default (always-on);
/// bucket width is fixed once the first event is accounted.
#[derive(Debug, Clone)]
pub struct Timeline {
    enabled: bool,
    bucket_ns: u64,
    /// Index of the bucket `cur` accumulates into.
    cur_idx: u64,
    /// Exclusive end time of the current bucket — the hot path compares
    /// against this instead of dividing.
    cur_end_ns: u64,
    cur: WindowStats,
    /// Finished buckets, one per window index, sorted by it. The hot path
    /// and a run's derived series mostly touch the last window, an O(1)
    /// append; a record behind it pays a binary search.
    done: Vec<(u64, Bucket)>,
}

impl Default for Timeline {
    fn default() -> Self {
        Timeline::new()
    }
}

impl Timeline {
    /// Creates an enabled timeline with the default bucket width.
    pub fn new() -> Self {
        Timeline {
            enabled: true,
            bucket_ns: DEFAULT_BUCKET_NS,
            cur_idx: 0,
            cur_end_ns: DEFAULT_BUCKET_NS,
            cur: WindowStats::default(),
            done: Vec::new(),
        }
    }

    /// Turns accounting on.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Turns accounting off (finished buckets are kept).
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Returns `true` while accounting.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The bucket width in nanoseconds.
    pub fn bucket_ns(&self) -> u64 {
        self.bucket_ns
    }

    /// Replaces the bucket width (minimum 1 ns).
    ///
    /// # Panics
    ///
    /// Panics if anything has already been recorded — re-bucketing recorded
    /// history is not supported.
    pub fn set_bucket_ns(&mut self, bucket_ns: u64) {
        assert!(
            self.done.is_empty() && self.cur.is_zero(),
            "bucket width is fixed once recording starts"
        );
        self.bucket_ns = bucket_ns.max(1);
        self.cur_end_ns = self.bucket_ns;
    }

    /// Accounts one executed engine event at `at_ns` with the stable
    /// [`SpanKind`](dcdo_trace::SpanKind) code of its kind. This is the
    /// per-event hot path: callers gate on
    /// [`is_enabled`](Timeline::is_enabled). Only the engine's five
    /// executed-event codes (2/3/4/7/8) are classified — the bucket's
    /// `events` total is derived from them at flush time, so the hot path
    /// is one boundary compare and a single counter increment.
    #[inline(always)]
    pub fn account(&mut self, at_ns: u64, code: u8) {
        if at_ns >= self.cur_end_ns {
            self.roll(at_ns);
        }
        match code {
            2 => self.cur.delivered += 1,
            3 => self.cur.dead_letters += 1,
            4 => self.cur.timers += 1,
            7 => self.cur.crashes += 1,
            8 => self.cur.restarts += 1,
            _ => {}
        }
    }

    /// Moves the accumulator to the bucket containing `at_ns`. Cold: runs
    /// once per bucket boundary, and is the only place that divides.
    #[cold]
    fn roll(&mut self, at_ns: u64) {
        self.flush();
        self.cur_idx = at_ns / self.bucket_ns;
        self.cur_end_ns = (self.cur_idx + 1) * self.bucket_ns;
    }

    /// The finished bucket of window `idx`, created empty if new.
    fn bucket_mut(&mut self, idx: u64) -> &mut Bucket {
        let pos = match self.done.last() {
            Some(&(last, _)) if last == idx => self.done.len() - 1,
            Some(&(last, _)) if last > idx => {
                match self.done.binary_search_by_key(&idx, |&(i, _)| i) {
                    Ok(pos) => pos,
                    Err(pos) => {
                        self.done.insert(pos, (idx, Bucket::default()));
                        pos
                    }
                }
            }
            _ => {
                self.done.push((idx, Bucket::default()));
                self.done.len() - 1
            }
        };
        &mut self.done[pos].1
    }

    /// Adds `delta` to the named counter in the bucket containing `at_ns`.
    /// Off the hot path: meant for derived series (per-window RPC outcomes,
    /// flow completions) written after or alongside the run.
    pub fn record_counter(&mut self, at_ns: u64, name: &str, delta: u64) {
        if !self.enabled {
            return;
        }
        let idx = at_ns / self.bucket_ns;
        self.bucket_mut(idx).metrics.add(name, delta);
    }

    /// Records a sample into the named series in the bucket containing
    /// `at_ns`. Off the hot path.
    pub fn record_sample(&mut self, at_ns: u64, name: &str, value: f64) {
        if !self.enabled {
            return;
        }
        let idx = at_ns / self.bucket_ns;
        self.bucket_mut(idx).metrics.sample(name, value);
    }

    /// Flushes the in-flight accumulator so [`buckets`](Timeline::buckets)
    /// and the exporters see everything recorded so far.
    pub fn flush(&mut self) {
        if !self.cur.is_zero() {
            let mut stats = std::mem::take(&mut self.cur);
            stats.events = stats.observed();
            self.bucket_mut(self.cur_idx).stats.merge(&stats);
        }
    }

    /// Finished buckets in ascending window order (call
    /// [`flush`](Timeline::flush) first to include the in-flight bucket).
    pub fn buckets(&self) -> impl Iterator<Item = (u64, &Bucket)> {
        self.done.iter().map(|(k, v)| (*k, v))
    }

    /// Finished buckets from window `idx` on, ascending: a binary search
    /// for the start, not a scan of the windows before it.
    pub fn buckets_from(&self, idx: u64) -> impl Iterator<Item = (u64, &Bucket)> {
        let start = self.done.partition_point(|&(i, _)| i < idx);
        self.done[start..].iter().map(|(k, v)| (*k, v))
    }

    /// Total events accounted across all buckets (including in-flight).
    pub fn total_events(&self) -> u64 {
        self.done.iter().map(|(_, b)| b.stats.events).sum::<u64>() + self.cur.observed()
    }

    /// Drops all recorded buckets and the in-flight accumulator.
    pub fn clear(&mut self) {
        self.done.clear();
        self.cur = WindowStats::default();
        self.cur_idx = 0;
        self.cur_end_ns = self.bucket_ns;
    }

    /// Deterministic JSON: fixed key order, buckets ascending, series
    /// reporting only count / exact min / nearest-rank quantiles / exact
    /// max — statistics of the sample *multiset*, so the bytes are
    /// identical across build profiles.
    pub fn to_json(&mut self) -> String {
        self.flush();
        let bucket_ns = self.bucket_ns;
        let mut w = JsonWriter::spaced();
        w.object_lines().key("bucket_ns").u64(bucket_ns);
        w.key("buckets").array_lines();
        for (idx, b) in &mut self.done {
            w.object().key("window").u64(*idx);
            w.key("start_ns").u64(*idx * bucket_ns);
            for (field, v) in STAT_FIELDS.iter().zip(b.stats.values()) {
                w.key(field).u64(v);
            }
            w.key("counters").object();
            for (name, v) in b.metrics.counters() {
                w.key(name).u64(v);
            }
            w.close().key("series").object();
            for (name, h) in b.metrics.histograms_mut() {
                let [_, min, p50, p90, p99, max] = series_stats(h);
                w.key(name).object().key("count").u64(h.count() as u64);
                w.key("min").f64(min).key("p50").f64(p50);
                w.key("p90").f64(p90).key("p99").f64(p99);
                w.key("max").f64(max).close();
            }
            w.close().close();
        }
        w.close().close().newline();
        w.finish()
    }

    /// Deterministic Prometheus text exposition of the same statistics,
    /// with the window index as a label. Rendered only on request: the
    /// scenario runner returns the finished timeline and leaves this call to
    /// the caller that writes it out.
    pub fn to_prometheus(&mut self) -> String {
        self.flush();
        let mut p = PromWriter::default();
        for (k, field) in STAT_FIELDS.iter().enumerate() {
            let metric = format!("dcdo_window_{field}");
            p.gauge(&metric);
            for (idx, b) in &self.done {
                p.sample(&metric).label_u64("window", *idx);
                p.u64(b.stats.values()[k]);
            }
        }
        p.gauge("dcdo_window_counter");
        for (idx, b) in &self.done {
            for (name, v) in b.metrics.counters() {
                p.sample("dcdo_window_counter").label("name", name);
                p.label_u64("window", *idx).u64(v);
            }
        }
        p.gauge("dcdo_window_series");
        for (idx, b) in &mut self.done {
            for (name, h) in b.metrics.histograms_mut() {
                let stats = series_stats(h);
                for (stat, v) in ["count", "min", "p50", "p90", "p99", "max"]
                    .iter()
                    .zip(stats)
                {
                    p.sample("dcdo_window_series").label("name", name);
                    p.label("stat", stat).label_u64("window", *idx).f64(v);
                }
            }
        }
        p.finish()
    }
}

/// What both exporters report of one series: count, exact min,
/// nearest-rank p50/p90/p99, exact max (0 where empty). The first quantile
/// sorts the samples once; everything after reads the sorted buffer.
fn series_stats(h: &mut Histogram) -> [f64; 6] {
    [
        h.count() as f64,
        h.min().unwrap_or(0.0),
        h.quantile(0.5).unwrap_or(0.0),
        h.quantile(0.9).unwrap_or(0.0),
        h.quantile(0.99).unwrap_or(0.0),
        h.max().unwrap_or(0.0),
    ]
}

#[cfg(test)]
mod tests {
    use std::fmt::Write as _;

    use super::*;

    #[test]
    fn events_land_in_their_sim_time_bucket() {
        let mut t = Timeline::new();
        t.set_bucket_ns(100);
        t.account(10, 2);
        t.account(50, 4);
        t.account(150, 2);
        t.account(310, 3);
        t.flush();
        let buckets: Vec<(u64, WindowStats)> = t.buckets().map(|(i, b)| (i, b.stats)).collect();
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0].0, 0);
        assert_eq!(buckets[0].1.events, 2);
        assert_eq!(buckets[0].1.delivered, 1);
        assert_eq!(buckets[0].1.timers, 1);
        assert_eq!(buckets[1].0, 1);
        assert_eq!(buckets[1].1.delivered, 1);
        assert_eq!(buckets[2].0, 3);
        assert_eq!(buckets[2].1.dead_letters, 1);
        assert_eq!(t.total_events(), 4);
    }

    #[test]
    fn disabled_timeline_costs_nothing_observable() {
        let mut t = Timeline::new();
        t.set_bucket_ns(100);
        t.disable();
        t.record_counter(10, "x", 1);
        t.record_sample(10, "y", 1.0);
        assert!(!t.is_enabled());
        assert_eq!(t.buckets().count(), 0);
    }

    #[test]
    fn bucket_width_is_fixed_once_recording() {
        let mut t = Timeline::new();
        t.set_bucket_ns(100);
        t.account(10, 2);
        assert!(std::panic::catch_unwind(move || t.set_bucket_ns(200)).is_err());
    }

    #[test]
    fn json_reports_multiset_statistics_only() {
        let mut t = Timeline::new();
        t.set_bucket_ns(1000);
        for v in [3.0, 1.0, 2.0] {
            t.record_sample(10, "lat", v);
        }
        t.record_counter(10, "ok", 7);
        t.account(10, 2);
        let json = t.to_json();
        assert!(json.contains("\"bucket_ns\": 1000"));
        assert!(json.contains("\"ok\": 7"));
        assert!(json.contains("\"count\": 3"));
        assert!(json.contains("\"min\": 1.0"));
        assert!(json.contains("\"p50\": 2.0"));
        assert!(json.contains("\"max\": 3.0"));
        assert!(!json.contains("mean"), "float-sum stats are excluded");
    }

    #[test]
    fn prometheus_lines_cover_every_bucket() {
        let mut t = Timeline::new();
        t.set_bucket_ns(100);
        t.account(10, 2);
        t.account(150, 4);
        t.record_sample(10, "lat", 0.25);
        let prom = t.to_prometheus();
        assert!(prom.contains("dcdo_window_events{window=\"0\"} 1"));
        assert!(prom.contains("dcdo_window_events{window=\"1\"} 1"));
        assert!(prom.contains("dcdo_window_timers{window=\"1\"} 1"));
        assert!(prom.contains("dcdo_window_series{name=\"lat\",stat=\"p50\",window=\"0\"} 0.25"));
    }

    #[test]
    fn out_of_order_cross_bucket_accounting_still_lands_correctly() {
        // Derived series are recorded after the run, behind the hot path's
        // clock: account rolls forward only on boundary crossings, record_*
        // always indexes by division. Mixed use must still bucket correctly.
        let mut t = Timeline::new();
        t.set_bucket_ns(100);
        t.account(250, 2);
        t.record_counter(50, "early", 1);
        t.flush();
        let buckets: Vec<u64> = t.buckets().map(|(i, _)| i).collect();
        assert_eq!(buckets, vec![0, 2]);
        let from: Vec<u64> = t.buckets_from(1).map(|(i, _)| i).collect();
        assert_eq!(from, vec![2]);
        assert_eq!(t.buckets_from(3).count(), 0);
    }

    #[test]
    fn decimal_writer_matches_display() {
        let mut cases = vec![0, 9, 10, u64::MAX];
        cases.extend((0..20).map(|k| 10u64.pow(k)));
        cases.extend((1..20).map(|k| 10u64.pow(k) - 1));
        for v in cases {
            let mut t = Timeline::new();
            t.set_bucket_ns(100);
            t.record_counter(v / 2, "c", v);
            let window = v / 200;
            let json = t.to_json();
            assert!(json.contains(&format!("\"window\": {window}, ")), "{json}");
            assert!(
                json.contains(&format!("\"counters\": {{\"c\": {v}}}")),
                "{json}"
            );
            let line = format!("dcdo_window_counter{{name=\"c\",window=\"{window}\"}} {v}\n");
            assert!(t.to_prometheus().contains(&line));
        }
    }

    #[test]
    fn names_are_escaped_in_both_exports() {
        // `record_counter` and `record_sample` are public, so a series name
        // may hold anything.
        let name = "a\"b\\c\nd";
        let mut t = Timeline::new();
        t.record_counter(0, name, 2);
        t.record_sample(0, name, 0.5);
        let json = t.to_json();
        assert!(json.contains(r#""counters": {"a\"b\\c\nd": 2}"#), "{json}");
        assert!(
            json.contains(r#""series": {"a\"b\\c\nd": {"count": 1,"#),
            "{json}"
        );
        let prom = t.to_prometheus();
        let escaped = r#"name="a\"b\\c\nd""#;
        assert!(prom.contains(&format!(
            "dcdo_window_counter{{{escaped},window=\"0\"}} 2\n"
        )));
        let p50 = format!("dcdo_window_series{{{escaped},stat=\"p50\",window=\"0\"}} 0.5\n");
        assert!(prom.contains(&p50), "{prom}");
        // A type line and a sample per window gauge, two lines for the
        // counter, seven for the series: a raw newline would add one.
        assert_eq!(prom.lines().count(), 6 * 2 + 1 + 1 + 1 + 6, "{prom}");
    }

    /// The window store this module had before the sorted `Vec`: a
    /// `BTreeMap` keyed by window, rendered through `write!`.
    struct Oracle {
        bucket_ns: u64,
        cur_idx: u64,
        cur_end_ns: u64,
        cur: WindowStats,
        done: std::collections::BTreeMap<u64, Bucket>,
    }

    impl Oracle {
        fn new(bucket_ns: u64) -> Self {
            Oracle {
                bucket_ns,
                cur_idx: 0,
                cur_end_ns: bucket_ns,
                cur: WindowStats::default(),
                done: Default::default(),
            }
        }

        fn account(&mut self, at_ns: u64, code: u8) {
            if at_ns >= self.cur_end_ns {
                self.flush();
                self.cur_idx = at_ns / self.bucket_ns;
                self.cur_end_ns = (self.cur_idx + 1) * self.bucket_ns;
            }
            match code {
                2 => self.cur.delivered += 1,
                3 => self.cur.dead_letters += 1,
                4 => self.cur.timers += 1,
                7 => self.cur.crashes += 1,
                8 => self.cur.restarts += 1,
                _ => {}
            }
        }

        fn bucket(&mut self, at_ns: u64) -> &mut Bucket {
            self.done.entry(at_ns / self.bucket_ns).or_default()
        }

        fn flush(&mut self) {
            if !self.cur.is_zero() {
                let mut stats = std::mem::take(&mut self.cur);
                stats.events = stats.observed();
                self.done
                    .entry(self.cur_idx)
                    .or_default()
                    .stats
                    .merge(&stats);
            }
        }

        fn json(&mut self) -> String {
            self.flush();
            let bucket_ns = self.bucket_ns;
            let mut out = String::new();
            let _ = write!(out, "{{\n  \"bucket_ns\": {bucket_ns},\n  \"buckets\": [");
            for (i, (idx, b)) in self.done.iter_mut().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let [events, delivered, timers, dead_letters, crashes, restarts] = b.stats.values();
                let _ = write!(
                    out,
                    "\n    {{\"window\": {idx}, \"start_ns\": {}, \"events\": {events}, \
                     \"delivered\": {delivered}, \"timers\": {timers}, \"dead_letters\": \
                     {dead_letters}, \"crashes\": {crashes}, \"restarts\": {restarts}, \
                     \"counters\": {{",
                    idx * bucket_ns,
                );
                for (j, (name, v)) in b.metrics.counters().enumerate() {
                    let sep = if j > 0 { ", " } else { "" };
                    let _ = write!(out, "{sep}\"{name}\": {v}");
                }
                out.push_str("}, \"series\": {");
                for (j, (name, h)) in b.metrics.histograms_mut().enumerate() {
                    let sep = if j > 0 { ", " } else { "" };
                    let [count, min, p50, p90, p99, max] = series_stats(h);
                    let _ = write!(
                        out,
                        "{sep}\"{name}\": {{\"count\": {count}, \"min\": {min:?}, \"p50\": \
                         {p50:?}, \"p90\": {p90:?}, \"p99\": {p99:?}, \"max\": {max:?}}}"
                    );
                }
                out.push_str("}}");
            }
            if !self.done.is_empty() {
                out.push_str("\n  ");
            }
            out.push_str("]\n}\n");
            out
        }

        fn prometheus(&mut self) -> String {
            self.flush();
            let mut out = String::new();
            for (k, field) in STAT_FIELDS.iter().enumerate() {
                let _ = writeln!(out, "# TYPE dcdo_window_{field} gauge");
                for (idx, b) in &self.done {
                    let v = b.stats.values()[k];
                    let _ = writeln!(out, "dcdo_window_{field}{{window=\"{idx}\"}} {v}");
                }
            }
            out.push_str("# TYPE dcdo_window_counter gauge\n");
            for (idx, b) in &self.done {
                for (name, v) in b.metrics.counters() {
                    let _ = writeln!(
                        out,
                        "dcdo_window_counter{{name=\"{name}\",window=\"{idx}\"}} {v}"
                    );
                }
            }
            out.push_str("# TYPE dcdo_window_series gauge\n");
            for (idx, b) in &mut self.done {
                for (name, h) in b.metrics.histograms_mut() {
                    let stats = series_stats(h);
                    for (stat, v) in ["count", "min", "p50", "p90", "p99", "max"]
                        .iter()
                        .zip(stats)
                    {
                        let _ = writeln!(
                            out,
                            "dcdo_window_series{{name=\"{name}\",stat=\"{stat}\",\
                             window=\"{idx}\"}} {v:?}"
                        );
                    }
                }
            }
            out
        }
    }

    /// A bucket as comparable plain data.
    type Flat = (
        u64,
        WindowStats,
        Vec<(String, u64)>,
        Vec<(String, Vec<f64>)>,
    );

    fn flat<'a>(buckets: impl Iterator<Item = (u64, &'a Bucket)>) -> Vec<Flat> {
        buckets
            .map(|(idx, b)| {
                let counters = b.metrics.counters().map(|(n, v)| (n.into(), v));
                let series = b.metrics.histograms();
                let series = series.map(|(n, h)| (n.into(), h.samples().to_vec()));
                (idx, b.stats, counters.collect(), series.collect())
            })
            .collect()
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        const BUCKET_NS: u64 = 100;
        const NAMES: [&str; 3] = ["lat.rpc", "ok.rpc", "served"];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Any interleaving of hot-path accounting, derived records (in
            /// and behind the current window, near and far apart) and
            /// flushes leaves the sorted-`Vec` store holding and exporting
            /// exactly what the `BTreeMap` store did; an empty op list is
            /// the empty timeline.
            #[test]
            fn sorted_vec_store_matches_btreemap_oracle(
                ops in prop::collection::vec(
                    (
                        0u8..4,
                        prop_oneof![0u64..6, 6u64..40, 1_000u64..1_003, 1_000_000_000u64..1_000_000_002],
                        0u64..BUCKET_NS,
                        (0usize..3, 0u8..9),
                    ),
                    0..48,
                ),
            ) {
                let mut t = Timeline::new();
                t.set_bucket_ns(BUCKET_NS);
                let mut oracle = Oracle::new(BUCKET_NS);
                for &(op, window, offset, (name, small)) in &ops {
                    let at_ns = window * BUCKET_NS + offset;
                    match op {
                        0 => {
                            t.account(at_ns, small);
                            oracle.account(at_ns, small);
                        }
                        1 => {
                            t.record_counter(at_ns, NAMES[name], small as u64);
                            oracle.bucket(at_ns).metrics.add(NAMES[name], small as u64);
                        }
                        2 => {
                            let value = small as f64 / 4.0 - offset as f64;
                            t.record_sample(at_ns, NAMES[name], value);
                            oracle.bucket(at_ns).metrics.sample(NAMES[name], value);
                        }
                        _ => {
                            t.flush();
                            oracle.flush();
                        }
                    }
                    prop_assert_eq!(flat(t.buckets()), flat(oracle.done.iter().map(|(k, v)| (*k, v))));
                }
                prop_assert_eq!(t.to_json(), oracle.json());
                prop_assert_eq!(t.to_prometheus(), oracle.prometheus());
                prop_assert_eq!(flat(t.buckets()), flat(oracle.done.iter().map(|(k, v)| (*k, v))));
            }
        }
    }
}
