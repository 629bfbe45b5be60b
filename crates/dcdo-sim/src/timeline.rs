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
//! the run land in the buckets the hot path already filled. The named
//! counters and series of every window share one name table and two flat
//! columns, which [`Timeline::flush`] sorts once by window and name; the
//! exporters and the SLO judges then read a window's counters and series as
//! contiguous runs. The exporters emit only order-independent statistics
//! (counts, exact min/max, nearest-rank quantiles — never float sums)
//! through the one writer ([`JsonWriter`], [`PromWriter`]), so the JSON and
//! Prometheus text are byte-identical across build profiles.

use dcdo_trace::{JsonWriter, PromWriter, SpanKind};

use crate::metrics::nearest_rank;

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

/// One finished time bucket: the hot path's event counts. Its named
/// counters and series live in the timeline's columns
/// ([`Timeline::counter`], [`Timeline::series`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Bucket {
    /// Engine event counts for the bucket.
    pub stats: WindowStats,
}

/// The named counters and sample series of every window: one name table
/// and two flat columns. A record appends; [`Columns::sort`] orders both
/// columns by window, then name in byte order, merging what one window
/// recorded under one name into one cell or run.
#[derive(Debug, Clone, Default)]
struct Columns {
    /// Counter and series names, indexed by id in first-recorded order.
    names: Vec<String>,
    /// Counter cells; once sorted, one per (window, name).
    counters: Vec<CounterCell>,
    /// The finite samples, run after run.
    samples: Vec<f64>,
    /// Run `i` holds `samples[runs[i].start..runs[i + 1].start]` (the last
    /// runs to the column's end). Once sorted, one run per (window, name),
    /// its samples ascending; a run may be empty (only non-finite samples).
    runs: Vec<Run>,
    /// A record landed since the last sort.
    dirty: bool,
}

/// One counter's value in one window.
#[derive(Debug, Clone, Copy)]
struct CounterCell {
    window: u64,
    name: u32,
    value: u64,
}

/// Where one window's samples of one series start in the sample column.
#[derive(Debug, Clone, Copy)]
struct Run {
    window: u64,
    name: u32,
    start: u32,
}

/// What a timeline that never recorded a counter or series reads.
static NO_COLUMNS: Columns = Columns {
    names: Vec::new(),
    counters: Vec::new(),
    samples: Vec::new(),
    runs: Vec::new(),
    dirty: false,
};

impl Columns {
    /// The id of `name`, added to the table on first sight. The table holds
    /// the handful of series the runner derives, so a scan beats a hash.
    fn name_id(&mut self, name: &str) -> u32 {
        if let Some(id) = self.id_of(name) {
            return id;
        }
        self.names.push(name.to_owned());
        u32::try_from(self.names.len() - 1).expect("timeline name table overflow")
    }

    fn id_of(&self, name: &str) -> Option<u32> {
        let id = self.names.iter().position(|n| n == name)?;
        Some(id as u32)
    }

    fn add(&mut self, window: u64, name: &str, delta: u64) {
        let name = self.name_id(name);
        self.dirty = true;
        match self.counters.last_mut() {
            Some(c) if c.window == window && c.name == name => c.value += delta,
            _ => self.counters.push(CounterCell {
                window,
                name,
                value: delta,
            }),
        }
    }

    /// Records `value` into series `name` of `window`. A non-finite sample
    /// carries no measurement, so it only makes the series exist in the
    /// window.
    fn sample(&mut self, window: u64, name: &str, value: f64) {
        let name = self.name_id(name);
        self.dirty = true;
        match self.runs.last() {
            Some(r) if r.window == window && r.name == name => {}
            _ => {
                let start = u32::try_from(self.samples.len()).expect("timeline sample overflow");
                self.runs.push(Run {
                    window,
                    name,
                    start,
                });
            }
        }
        if value.is_finite() {
            self.samples.push(value);
        }
    }

    /// Where run `i` ends in the sample column.
    fn end(&self, i: usize) -> usize {
        self.runs
            .get(i + 1)
            .map_or(self.samples.len(), |r| r.start as usize)
    }

    /// Every run with its samples, in column order.
    fn series(&self) -> impl Iterator<Item = (&Run, &[f64])> {
        let runs = self.runs.iter().enumerate();
        runs.map(|(i, r)| (r, &self.samples[r.start as usize..self.end(i)]))
    }

    fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// Sorts both columns by (window, name in byte order) and merges equal
    /// keys; a no-op unless something was recorded since the last sort.
    fn sort(&mut self) {
        if !std::mem::take(&mut self.dirty) {
            return;
        }
        let mut by_bytes: Vec<u32> = (0..self.names.len() as u32).collect();
        by_bytes.sort_unstable_by(|&a, &b| self.name(a).cmp(self.name(b)));
        let mut rank = vec![0u32; by_bytes.len()];
        for (r, &id) in by_bytes.iter().enumerate() {
            rank[id as usize] = r as u32;
        }
        let key = |window: u64, name: u32| (window, rank[name as usize]);

        self.counters.sort_by_key(|c| key(c.window, c.name));
        self.counters.dedup_by(|later, kept| {
            let same = (later.window, later.name) == (kept.window, kept.name);
            if same {
                kept.value += later.value;
            }
            same
        });

        let in_order = self
            .runs
            .windows(2)
            .all(|w| key(w[0].window, w[0].name) < key(w[1].window, w[1].name));
        // The common case is in order: records arrived window by window
        // with one run per series, and no second sample column is built.
        if !in_order {
            let mut order: Vec<usize> = (0..self.runs.len()).collect();
            order.sort_by_key(|&i| key(self.runs[i].window, self.runs[i].name));
            let mut samples = Vec::with_capacity(self.samples.len());
            let mut runs: Vec<Run> = Vec::new();
            for i in order {
                let r = self.runs[i];
                if runs
                    .last()
                    .is_none_or(|l| (l.window, l.name) != (r.window, r.name))
                {
                    let start = u32::try_from(samples.len()).expect("timeline sample overflow");
                    runs.push(Run { start, ..r });
                }
                samples.extend_from_slice(&self.samples[r.start as usize..self.end(i)]);
            }
            self.samples = samples;
            self.runs = runs;
        }
        for i in 0..self.runs.len() {
            let (start, end) = (self.runs[i].start as usize, self.end(i));
            self.samples[start..end].sort_by(f64::total_cmp);
        }
    }
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
    /// The named counters and series, absent until the first record.
    columns: Option<Box<Columns>>,
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
            columns: None,
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
    /// [`SpanKind`] code of its kind. This is the per-event hot path:
    /// callers gate on [`is_enabled`](Timeline::is_enabled). Only the
    /// engine's five executed-event codes ([`SpanKind::DELIVERED`] and the
    /// four declared beside it) are classified — the bucket's `events`
    /// total is derived from them at flush time, so the hot path is one
    /// boundary compare and a single counter increment.
    #[inline(always)]
    pub fn account(&mut self, at_ns: u64, code: u8) {
        if at_ns >= self.cur_end_ns {
            self.roll(at_ns);
        }
        match code {
            SpanKind::DELIVERED => self.cur.delivered += 1,
            SpanKind::DEAD_LETTER => self.cur.dead_letters += 1,
            SpanKind::TIMER => self.cur.timers += 1,
            SpanKind::CRASH => self.cur.crashes += 1,
            SpanKind::RESTART => self.cur.restarts += 1,
            _ => {}
        }
    }

    /// Moves the accumulator to the bucket containing `at_ns`. Cold: runs
    /// once per bucket boundary, and is the only place that divides.
    #[cold]
    fn roll(&mut self, at_ns: u64) {
        self.flush_stats();
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

    /// The columns of the window containing `at_ns`, whose bucket now
    /// exists.
    fn columns_at(&mut self, at_ns: u64) -> (u64, &mut Columns) {
        let idx = at_ns / self.bucket_ns;
        self.bucket_mut(idx);
        (idx, self.columns.get_or_insert_with(Box::default))
    }

    /// Adds `delta` to the named counter in the bucket containing `at_ns`.
    /// Off the hot path: meant for derived series (per-window RPC outcomes,
    /// flow completions) written after or alongside the run.
    pub fn record_counter(&mut self, at_ns: u64, name: &str, delta: u64) {
        if !self.enabled {
            return;
        }
        let (idx, columns) = self.columns_at(at_ns);
        columns.add(idx, name, delta);
    }

    /// Records a sample into the named series in the bucket containing
    /// `at_ns`. Off the hot path. A non-finite sample is dropped, but the
    /// series still exists in that bucket.
    pub fn record_sample(&mut self, at_ns: u64, name: &str, value: f64) {
        if !self.enabled {
            return;
        }
        let (idx, columns) = self.columns_at(at_ns);
        columns.sample(idx, name, value);
    }

    /// Moves the in-flight accumulator into its bucket.
    fn flush_stats(&mut self) {
        if !self.cur.is_zero() {
            let mut stats = std::mem::take(&mut self.cur);
            stats.events = stats.observed();
            self.bucket_mut(self.cur_idx).stats.merge(&stats);
        }
    }

    /// Flushes the in-flight accumulator and sorts the counter and series
    /// columns, so [`buckets`](Timeline::buckets), the readers and the
    /// exporters see everything recorded so far.
    pub fn flush(&mut self) {
        self.flush_stats();
        if let Some(columns) = self.columns.as_deref_mut() {
            columns.sort();
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

    /// The sorted columns.
    ///
    /// # Panics
    ///
    /// Panics if something was recorded since the last
    /// [`flush`](Timeline::flush).
    fn sorted(&self) -> &Columns {
        let columns = self.columns.as_deref().unwrap_or(&NO_COLUMNS);
        assert!(!columns.dirty, "flush the timeline before reading it");
        columns
    }

    /// The named counter in every window that recorded it, ascending by
    /// window. Reads what the last [`flush`](Timeline::flush) sorted.
    ///
    /// # Panics
    ///
    /// Panics if something was recorded since the last flush.
    pub fn counter<'a>(&'a self, name: &str) -> impl Iterator<Item = (u64, u64)> + 'a {
        let columns = self.sorted();
        let id = columns.id_of(name);
        let cells = columns.counters.iter().filter(move |c| Some(c.name) == id);
        cells.map(|c| (c.window, c.value))
    }

    /// The named series in every window that recorded it, ascending by
    /// window: each window's finite samples in ascending order (empty where
    /// only non-finite ones were recorded). Reads what the last
    /// [`flush`](Timeline::flush) sorted.
    ///
    /// # Panics
    ///
    /// Panics if something was recorded since the last flush.
    pub fn series<'a>(&'a self, name: &str) -> impl Iterator<Item = (u64, &'a [f64])> + 'a {
        let columns = self.sorted();
        let id = columns.id_of(name);
        let runs = columns.series().filter(move |(r, _)| Some(r.name) == id);
        runs.map(|(r, samples)| (r.window, samples))
    }

    /// Total events accounted across all buckets (including in-flight).
    pub fn total_events(&self) -> u64 {
        self.done.iter().map(|(_, b)| b.stats.events).sum::<u64>() + self.cur.observed()
    }

    /// Drops all recorded buckets, counters, series and the in-flight
    /// accumulator.
    pub fn clear(&mut self) {
        self.done.clear();
        self.columns = None;
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
        let columns = self.sorted();
        let mut counters = columns.counters.iter().peekable();
        let mut series = columns.series().peekable();
        let bucket_ns = self.bucket_ns;
        let mut w = JsonWriter::spaced();
        w.object_lines().key("bucket_ns").u64(bucket_ns);
        w.key("buckets").array_lines();
        for &(idx, b) in &self.done {
            w.object().key("window").u64(idx);
            w.key("start_ns").u64(idx * bucket_ns);
            for (field, v) in STAT_FIELDS.iter().zip(b.stats.values()) {
                w.key(field).u64(v);
            }
            // Every record made its window's bucket, so the columns' next
            // cells are this window's or a later one's.
            w.key("counters").object();
            while let Some(c) = counters.next_if(|c| c.window == idx) {
                w.key(columns.name(c.name)).u64(c.value);
            }
            w.close().key("series").object();
            while let Some((r, samples)) = series.next_if(|(r, _)| r.window == idx) {
                let [_, min, p50, p90, p99, max] = series_stats(samples);
                let name = columns.name(r.name);
                w.key(name).object().key("count").u64(samples.len() as u64);
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
        let columns = self.sorted();
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
        for c in &columns.counters {
            p.sample("dcdo_window_counter");
            p.label("name", columns.name(c.name));
            p.label_u64("window", c.window).u64(c.value);
        }
        p.gauge("dcdo_window_series");
        for (r, samples) in columns.series() {
            let stats = series_stats(samples);
            for (stat, v) in ["count", "min", "p50", "p90", "p99", "max"]
                .iter()
                .zip(stats)
            {
                p.sample("dcdo_window_series");
                p.label("name", columns.name(r.name)).label("stat", stat);
                p.label_u64("window", r.window).f64(v);
            }
        }
        p.finish()
    }
}

/// What both exporters report of one series' ascending samples: count,
/// exact min, nearest-rank p50/p90/p99, exact max (0 where empty).
fn series_stats(sorted: &[f64]) -> [f64; 6] {
    let q = |q| nearest_rank(sorted, q).unwrap_or(0.0);
    [
        sorted.len() as f64,
        sorted.first().copied().unwrap_or(0.0),
        q(0.5),
        q(0.9),
        q(0.99),
        sorted.last().copied().unwrap_or(0.0),
    ]
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
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

    /// The window store this module had before the sorted columns: a
    /// `BTreeMap` keyed by window holding string-keyed counters and sample
    /// vectors per window, rendered through `write!`.
    struct Oracle {
        bucket_ns: u64,
        cur_idx: u64,
        cur_end_ns: u64,
        cur: WindowStats,
        done: BTreeMap<u64, (WindowStats, Named)>,
    }

    /// One window's counters and series by name; a series holds its finite
    /// samples in recording order.
    #[derive(Default)]
    struct Named {
        counters: BTreeMap<String, u64>,
        series: BTreeMap<String, Vec<f64>>,
    }

    impl Oracle {
        fn new(bucket_ns: u64) -> Self {
            Oracle {
                bucket_ns,
                cur_idx: 0,
                cur_end_ns: bucket_ns,
                cur: WindowStats::default(),
                done: BTreeMap::new(),
            }
        }

        fn account(&mut self, at_ns: u64, code: u8) {
            if at_ns >= self.cur_end_ns {
                self.flush();
                self.cur_idx = at_ns / self.bucket_ns;
                self.cur_end_ns = (self.cur_idx + 1) * self.bucket_ns;
            }
            match code {
                SpanKind::DELIVERED => self.cur.delivered += 1,
                SpanKind::DEAD_LETTER => self.cur.dead_letters += 1,
                SpanKind::TIMER => self.cur.timers += 1,
                SpanKind::CRASH => self.cur.crashes += 1,
                SpanKind::RESTART => self.cur.restarts += 1,
                _ => {}
            }
        }

        fn named(&mut self, at_ns: u64) -> &mut Named {
            &mut self.done.entry(at_ns / self.bucket_ns).or_default().1
        }

        fn add(&mut self, at_ns: u64, name: &str, delta: u64) {
            *self.named(at_ns).counters.entry(name.into()).or_default() += delta;
        }

        fn sample(&mut self, at_ns: u64, name: &str, value: f64) {
            let samples = self.named(at_ns).series.entry(name.into()).or_default();
            if value.is_finite() {
                samples.push(value);
            }
        }

        fn flush(&mut self) {
            if !self.cur.is_zero() {
                let mut stats = std::mem::take(&mut self.cur);
                stats.events = stats.observed();
                self.done.entry(self.cur_idx).or_default().0.merge(&stats);
            }
        }

        /// Each window's series by name, with the statistics both
        /// exporters print.
        fn series(named: &Named) -> Vec<(String, [f64; 6])> {
            let series = named.series.iter().map(|(name, samples)| {
                let mut sorted = samples.clone();
                sorted.sort_by(f64::total_cmp);
                let q = |q| nearest_rank(&sorted, q).unwrap_or(0.0);
                let stats = [
                    sorted.len() as f64,
                    sorted.first().copied().unwrap_or(0.0),
                    q(0.5),
                    q(0.9),
                    q(0.99),
                    sorted.last().copied().unwrap_or(0.0),
                ];
                (name.clone(), stats)
            });
            series.collect()
        }

        fn json(&mut self) -> String {
            self.flush();
            let bucket_ns = self.bucket_ns;
            let mut out = String::new();
            let _ = write!(out, "{{\n  \"bucket_ns\": {bucket_ns},\n  \"buckets\": [");
            for (i, (idx, (stats, named))) in self.done.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let [events, delivered, timers, dead_letters, crashes, restarts] = stats.values();
                let _ = write!(
                    out,
                    "\n    {{\"window\": {idx}, \"start_ns\": {}, \"events\": {events}, \
                     \"delivered\": {delivered}, \"timers\": {timers}, \"dead_letters\": \
                     {dead_letters}, \"crashes\": {crashes}, \"restarts\": {restarts}, \
                     \"counters\": {{",
                    idx * bucket_ns,
                );
                for (j, (name, v)) in named.counters.iter().enumerate() {
                    let sep = if j > 0 { ", " } else { "" };
                    let _ = write!(out, "{sep}\"{name}\": {v}");
                }
                out.push_str("}, \"series\": {");
                for (j, (name, stats)) in Oracle::series(named).into_iter().enumerate() {
                    let sep = if j > 0 { ", " } else { "" };
                    let [count, min, p50, p90, p99, max] = stats;
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
                for (idx, (stats, _)) in &self.done {
                    let v = stats.values()[k];
                    let _ = writeln!(out, "dcdo_window_{field}{{window=\"{idx}\"}} {v}");
                }
            }
            out.push_str("# TYPE dcdo_window_counter gauge\n");
            for (idx, (_, named)) in &self.done {
                for (name, v) in &named.counters {
                    let _ = writeln!(
                        out,
                        "dcdo_window_counter{{name=\"{name}\",window=\"{idx}\"}} {v}"
                    );
                }
            }
            out.push_str("# TYPE dcdo_window_series gauge\n");
            for (idx, (_, named)) in &self.done {
                for (name, stats) in Oracle::series(named) {
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

        /// The oracle's windows as plain data, each series' samples sorted.
        fn flat(&self) -> Vec<Flat> {
            let flat = self.done.iter().map(|(idx, (stats, named))| {
                let counters = named.counters.iter().map(|(n, v)| (n.clone(), *v));
                let series = named.series.iter().map(|(n, samples)| {
                    let mut samples = samples.clone();
                    samples.sort_by(f64::total_cmp);
                    (n.clone(), samples)
                });
                (*idx, *stats, counters.collect(), series.collect())
            });
            flat.collect()
        }
    }

    /// A window as comparable plain data: stats, counters and series by
    /// name.
    type Flat = (
        u64,
        WindowStats,
        Vec<(String, u64)>,
        Vec<(String, Vec<f64>)>,
    );

    /// The timeline's windows as plain data, read from its sorted columns.
    fn flat(t: &Timeline) -> Vec<Flat> {
        let columns = t.sorted();
        let flat = t.buckets().map(|(idx, b)| {
            let counters = columns.counters.iter().filter(|c| c.window == idx);
            let counters = counters.map(|c| (columns.name(c.name).into(), c.value));
            let series = columns.series().filter(|(r, _)| r.window == idx);
            let series = series.map(|(r, s)| (columns.name(r.name).into(), s.to_vec()));
            (idx, b.stats, counters.collect(), series.collect())
        });
        flat.collect()
    }

    /// The windows and their stats alone, readable mid-recording.
    fn windows<'a>(
        buckets: impl Iterator<Item = (u64, &'a WindowStats)>,
    ) -> Vec<(u64, WindowStats)> {
        buckets.map(|(idx, stats)| (idx, *stats)).collect()
    }

    #[test]
    fn the_public_readers_see_the_sorted_columns() {
        let mut t = Timeline::new();
        t.set_bucket_ns(100);
        t.record_sample(250, "lat", 3.0);
        t.record_sample(10, "lat", f64::NAN);
        t.record_counter(250, "ok", 2);
        t.record_sample(250, "lat", 1.0);
        t.record_counter(260, "ok", 5);
        t.record_counter(20, "err", 1);
        t.flush();
        let lat: Vec<(u64, Vec<f64>)> = t.series("lat").map(|(w, s)| (w, s.to_vec())).collect();
        assert_eq!(lat, vec![(0, vec![]), (2, vec![1.0, 3.0])]);
        assert_eq!(t.counter("ok").collect::<Vec<_>>(), vec![(2, 7)]);
        assert_eq!(t.counter("err").collect::<Vec<_>>(), vec![(0, 1)]);
        assert_eq!(t.counter("nope").count(), 0);
        t.record_counter(0, "err", 1);
        let unsorted = std::panic::catch_unwind(|| t.counter("err").count());
        assert!(unsorted.is_err(), "a read before the flush is refused");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        const BUCKET_NS: u64 = 100;
        /// Names whose byte order is not the order a run first records
        /// them in: an upper-case name sorts first, a prefix before its
        /// extensions.
        const NAMES: [&str; 5] = ["lat.rpc", "ok.rpc", "served", "Z", "lat"];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Any interleaving of hot-path accounting, derived records (in
            /// and behind the current window, near and far apart; several
            /// to one counter or series in one window; non-finite samples,
            /// alone in a series or among finite ones; names first recorded
            /// in any order) and flushes leaves the sorted columns holding
            /// and exporting exactly what the per-window name-keyed store
            /// did; an empty op list is the empty timeline.
            #[test]
            fn sorted_vec_store_matches_btreemap_oracle(
                ops in prop::collection::vec(
                    (
                        0u8..4,
                        prop_oneof![0u64..6, 6u64..40, 1_000u64..1_003, 1_000_000_000u64..1_000_000_002],
                        0u64..BUCKET_NS,
                        (0usize..NAMES.len(), 0u8..9),
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
                            oracle.add(at_ns, NAMES[name], small as u64);
                        }
                        2 => {
                            let value = match small {
                                0 => f64::NAN,
                                1 => f64::INFINITY,
                                2 => f64::NEG_INFINITY,
                                _ => small as f64 / 4.0 - offset as f64,
                            };
                            t.record_sample(at_ns, NAMES[name], value);
                            oracle.sample(at_ns, NAMES[name], value);
                        }
                        _ => {
                            t.flush();
                            oracle.flush();
                            prop_assert_eq!(flat(&t), oracle.flat());
                        }
                    }
                    let stats = oracle.done.iter().map(|(idx, (stats, _))| (*idx, stats));
                    prop_assert_eq!(windows(t.buckets().map(|(i, b)| (i, &b.stats))), windows(stats));
                }
                prop_assert_eq!(t.to_json(), oracle.json());
                prop_assert_eq!(t.to_prometheus(), oracle.prometheus());
                prop_assert_eq!(flat(&t), oracle.flat());
            }
        }
    }
}
