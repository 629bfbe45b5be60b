//! The end-to-end run: what a `dcdo-inspect scenario` user pays.
//!
//! One timed repetition is one `run_artifacts(scenario, None)` call — the
//! runner's own trace and span sinks on, the benchmark's spans off —
//! preceded by [`SETUPS_PER_REP`] back-to-back fresh set-ups timed as one.
//!
//! Host time on two of the workloads depends on the seed by about ±10 %
//! (the tail sampler's retention is tie-sensitive), so one text per seed
//! would make two seeds incomparable. A seed therefore names a *set* of
//! [`INPUTS_PER_SEED`] inputs;
//! repetitions go round them, each input's timings collapse to their
//! median, and the reported value is the median over inputs.

use std::time::{Duration, Instant};

use dcdo_scenario::{run_artifacts, RunArtifacts, Scenario, ScenarioReport};

use crate::host;
use crate::replica::{build_world, Fingerprint, Recorder, Sinks};
use crate::report::{ratio, Metric, RunResult, END_TO_END};
use crate::spanscan::{OpCounts, SpanScan};
use crate::stats::{median, Summary};
use crate::workloads;

/// Scenario texts one seed stands for.
pub const INPUTS_PER_SEED: usize = 16;
/// Untimed repetitions before the clock starts: caches fill, the allocator
/// reaches its working size.
pub const WARMUP_REPS: usize = 2;
/// Fresh set-ups timed back to back per repetition (one takes ~0.1 ms).
pub const SETUPS_PER_REP: usize = 32;

/// The seed of input `i` of `seed`'s set. Input 0 is the seed itself, so
/// `--seed 42` runs the very text `seed 42` names; the rest are a
/// splitmix64 step apart so neighbouring seeds share no input.
pub fn input_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The scenario texts `seed` stands for on `workload`.
pub fn inputs(workload: &str, seed: u64, scale: f64) -> Option<Vec<String>> {
    (0..INPUTS_PER_SEED)
        .map(|i| workloads::generate(workload, input_seed(seed, i), scale))
        .collect()
}

/// The identity of a finished run, from its report.
pub fn fingerprint_of(report: &ScenarioReport) -> Fingerprint {
    Fingerprint {
        trace_hash: report.trace_hash,
        span_digest: report.span_digest,
        flight_digest: report.flight_digest,
        events: report.events_processed,
    }
}

/// One timed `run_artifacts` call on `text`: wall seconds and artifacts.
pub fn run_once(text: &str) -> (f64, RunArtifacts) {
    let scenario = Scenario::from_text(text).expect("generated scenario text parses");
    let start = Instant::now();
    let artifacts = run_artifacts(scenario, None).expect("generated scenario validates");
    (start.elapsed().as_secs_f64(), artifacts)
}

/// Seconds per set-up: text → parse → validate → build the world → every
/// `Workload::setup`, with the sinks the runner switches on.
fn time_setups(text: &str) -> f64 {
    let mut rec = Recorder::new(false);
    let start = Instant::now();
    for _ in 0..SETUPS_PER_REP {
        std::hint::black_box(build_world(text, Sinks::RUNNER, None, &mut rec));
    }
    start.elapsed().as_secs_f64() / SETUPS_PER_REP as f64
}

/// Why a run's outputs were wrong, if they were.
pub fn failed_verdicts(report: &ScenarioReport) -> Vec<String> {
    report
        .verdicts
        .iter()
        .filter(|v| !v.passed)
        .map(|v| {
            format!(
                "{} seed {}: expectation {} failed: {}",
                report.name, report.seed, v.expectation, v.detail
            )
        })
        .collect()
}

/// Timings of one metric, kept per input.
struct PerInput(Vec<Vec<f64>>);

impl PerInput {
    fn new() -> Self {
        PerInput(vec![Vec::new(); INPUTS_PER_SEED])
    }

    /// Median over inputs of each input's median; quartiles over inputs
    /// too, `n` the number of timed repetitions.
    fn summary(&self) -> Summary {
        let per_input: Vec<f64> = self
            .0
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| median(s))
            .collect();
        Summary {
            n: self.0.iter().map(Vec::len).sum(),
            ..Summary::of(&per_input)
        }
    }
}

/// The simulated-time metrics of one run: exact for one input, so two
/// commits compare bit for bit.
pub fn sim_metrics(report: &ScenarioReport, scan: &SpanScan) -> Vec<Metric> {
    let ops = OpCounts::of(report);
    vec![
        Metric::value("sim_rpc_p50_s", "s", scan.rpc_percentile_s(50.0)),
        Metric::value("sim_rpc_p99_s", "s", scan.rpc_percentile_s(99.0)),
        Metric::value("sim_flow_p50_s", "s", scan.flow_percentile_s(50.0)),
        Metric::value("sim_flow_p99_s", "s", scan.flow_percentile_s(99.0)),
        Metric::value(
            "msgs_per_op",
            "count",
            ratio(scan.msgs_sent as f64, ops.attempted as f64),
        ),
        Metric::value("ops_failed_frac", "frac", ops.failed_frac()),
    ]
}

/// Runs `workload` end to end for about `seconds` (never less than one
/// pass over the seed's inputs) and prints every metric by name.
pub fn run(workload: &str, seed: u64, scale: f64, seconds: f64) -> Option<RunResult> {
    let texts = inputs(workload, seed, scale)?;
    let mut result = RunResult::default();
    let mut first: Vec<Option<Fingerprint>> = vec![None; INPUTS_PER_SEED];

    // Every rep's outputs are checked: expectations, then the fingerprint
    // against the first run of the same input.
    let mut check = |input: usize, report: &ScenarioReport, problems: &mut Vec<String>| {
        problems.extend(failed_verdicts(report));
        let fingerprint = fingerprint_of(report);
        match first[input] {
            None => first[input] = Some(fingerprint),
            Some(expected) if expected != fingerprint => problems.push(format!(
                "{workload} input {input}: fingerprint changed between reps: \
                 {expected} then {fingerprint}"
            )),
            Some(_) => {}
        }
    };

    let mut exact = Vec::new();
    for rep in 0..WARMUP_REPS {
        let (_, artifacts) = run_once(&texts[0]);
        check(0, &artifacts.report, &mut result.problems);
        if rep == 0 {
            exact = sim_metrics(&artifacts.report, &SpanScan::of(&artifacts.spans));
        }
    }

    let (mut setup, mut wall, mut rate) = (PerInput::new(), PerInput::new(), PerInput::new());
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let clock = Instant::now();
    let mut rep = 0;
    while rep < INPUTS_PER_SEED || clock.elapsed() < budget {
        let input = rep % INPUTS_PER_SEED;
        setup.0[input].push(time_setups(&texts[input]));
        let (wall_s, artifacts) = run_once(&texts[input]);
        wall.0[input].push(wall_s);
        rate.0[input].push(artifacts.report.events_processed as f64 / wall_s);
        check(input, &artifacts.report, &mut result.problems);
        let ops = OpCounts::of(&artifacts.report);
        result.attempted += ops.attempted;
        result.failed += ops.failed;
        rep += 1;
    }

    let fingerprint = first[0].expect("input 0 ran in warm-up");
    println!("fingerprint {workload} seed={seed} {fingerprint}");
    // Every input's identity folded into one word, so two commits compare
    // the whole set with one line.
    let words: Vec<u8> = first
        .iter()
        .flatten()
        .flat_map(|f| [f.trace_hash, f.span_digest, f.flight_digest, f.events])
        .flat_map(u64::to_le_bytes)
        .collect();
    let folded = dcdo_chaos::fnv1a(&words);
    println!("fingerprint_all {workload} seed={seed} inputs={INPUTS_PER_SEED} {folded:016x}");

    for e in &END_TO_END {
        let metric = match e.name {
            "setup_s" => Metric::timed(e.name, e.unit, setup.summary()),
            "run_wall_s" => Metric::timed(e.name, e.unit, wall.summary()),
            "events_per_s" => Metric::timed(e.name, e.unit, rate.summary()),
            "peak_rss_mb" => Metric::value(e.name, e.unit, host::peak_rss_mib()),
            other => unreachable!("no measurement for end-to-end metric {other}"),
        };
        result.metrics.push(metric);
    }
    for m in &result.metrics {
        println!("{}", m.line());
    }
    for m in &exact {
        println!("exact {} {} {}", m.name, m.value, m.unit);
    }
    Some(result)
}
