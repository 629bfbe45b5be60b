//! Self-tests of the benchmark: the generated inputs, the statistics
//! helpers, and the output contract `BENCHMARK.json` declares.

use std::process::Command;
use std::time::{Duration, Instant};

use dcdo_benchmark::plain::{input_seed, inputs, INPUTS_PER_SEED};
use dcdo_benchmark::report::END_TO_END;
use dcdo_benchmark::stats::{median, percentile_nearest_rank, quantile, Summary};
use dcdo_benchmark::workloads::{generate, WORKLOADS};
use dcdo_scenario::{parse_scenario, Scenario};

const BIN: &str = env!("CARGO_BIN_EXE_dcdo-benchmark");

/// `BENCHMARK.json`, one `(section, name, rest of the line)` per entry.
/// The file keeps one entry per line so this needs no JSON parser.
fn benchmark_json_entries() -> Vec<(String, String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let mut section = String::new();
    let mut entries = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        for key in ["workloads", "end_to_end", "per_layer"] {
            if line.starts_with(&format!("\"{key}\":")) {
                section = key.to_string();
            }
        }
        if let Some(rest) = line.strip_prefix("{\"name\": \"") {
            let (name, rest) = rest.split_once('"').expect("a closing quote");
            entries.push((section.clone(), name.to_string(), rest.to_string()));
        }
    }
    entries
}

fn names_in(section: &str) -> Vec<String> {
    benchmark_json_entries()
        .into_iter()
        .filter(|(s, _, _)| s == section)
        .map(|(_, name, _)| name)
        .collect()
}

/// Runs the benchmark binary and returns `(stdout, elapsed)`.
fn run_bin(args: &[&str]) -> (String, Duration) {
    let start = Instant::now();
    let output = Command::new(BIN)
        .args(args)
        .output()
        .expect("the benchmark starts");
    let elapsed = start.elapsed();
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "benchmark {args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    (stdout, elapsed)
}

#[test]
fn every_generated_scenario_parses_and_validates() {
    for seed in [7, 42] {
        for w in &WORKLOADS {
            for scale in [1.0, 0.02] {
                let texts = inputs(w.name, seed, scale).expect("a known workload");
                assert_eq!(texts.len(), INPUTS_PER_SEED);
                for text in &texts {
                    let scenario = Scenario::from_text(text)
                        .unwrap_or_else(|e| panic!("{} does not parse: {e}\n{text}", w.name));
                    scenario
                        .validate()
                        .unwrap_or_else(|e| panic!("{} does not validate: {e}\n{text}", w.name));
                    assert_eq!(scenario.name, w.name);
                }
            }
        }
    }
    assert!(generate("no_such_workload", 1, 1.0).is_none());
}

#[test]
fn the_seed_reaches_the_seed_line() {
    for seed in [7u64, 42, u64::MAX] {
        assert_eq!(input_seed(seed, 0), seed, "input 0 is the seed itself");
        for w in &WORKLOADS {
            for i in 0..INPUTS_PER_SEED {
                let text = generate(w.name, input_seed(seed, i), 1.0).expect("a known workload");
                let decl = parse_scenario(&text).expect("parses");
                assert_eq!(decl.seed, input_seed(seed, i));
                assert!(text.contains(&format!("\nseed {}\n", input_seed(seed, i))));
            }
        }
    }
    // Neighbouring seeds share no input beyond their own input 0.
    let a: Vec<u64> = (0..INPUTS_PER_SEED).map(|i| input_seed(7, i)).collect();
    let b: Vec<u64> = (0..INPUTS_PER_SEED).map(|i| input_seed(8, i)).collect();
    assert!(a.iter().all(|s| !b.contains(s)));
}

#[test]
fn quantiles_on_known_vectors() {
    let v = [4.0, 1.0, 3.0, 2.0];
    assert_eq!(median(&v), 2.5);
    assert_eq!(quantile(&v, 0.0), 1.0);
    assert_eq!(quantile(&v, 1.0), 4.0);
    assert_eq!(quantile(&v, 0.25), 1.75);
    assert_eq!(quantile(&v, 0.75), 3.25);
    assert_eq!(median(&[5.0]), 5.0);
    assert_eq!(median(&[]), 0.0);
    let s = Summary::of(&[10.0, 20.0, 30.0, 40.0, 50.0]);
    assert_eq!((s.median, s.q1, s.q3, s.n), (30.0, 20.0, 40.0, 5));

    let mut ns: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile_nearest_rank(&mut ns, 50.0), 50);
    assert_eq!(percentile_nearest_rank(&mut ns, 99.0), 99);
    assert_eq!(percentile_nearest_rank(&mut ns, 100.0), 100);
    assert_eq!(percentile_nearest_rank(&mut [7, 3, 5], 50.0), 5);
    assert_eq!(percentile_nearest_rank(&mut [9], 99.0), 9);
    assert_eq!(percentile_nearest_rank(&mut [], 99.0), 0);
}

#[test]
fn benchmark_json_matches_the_code() {
    let declared = names_in("workloads");
    let coded: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(declared, coded);

    let entries = benchmark_json_entries();
    let end_to_end: Vec<_> = entries.iter().filter(|e| e.0 == "end_to_end").collect();
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (entry, coded) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(entry.1, coded.name);
        let better = if coded.lower_is_better {
            "lower"
        } else {
            "higher"
        };
        let expected = format!(
            ", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
            coded.unit, coded.bound
        );
        assert_eq!(entry.2.trim_end_matches(','), expected, "{}", coded.name);
    }
}

/// The `"name": {"value": V, "unit": "U"}` pairs of a result line.
fn result_metrics(stdout: &str) -> Vec<(String, String)> {
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    let (_, metrics) = last.split_once("\"metrics\": {").expect("a metrics object");
    metrics
        .split("}, ")
        .map(|pair| {
            let (name, rest) = pair.split_once("\": {\"value\": ").expect("a value");
            let (value, unit) = rest.split_once(", \"unit\": \"").expect("a unit");
            value.parse::<f64>().expect("a number");
            (
                name.trim_start_matches('"').to_string(),
                unit.trim_end_matches(['"', '}']).to_string(),
            )
        })
        .collect()
}

#[test]
fn the_output_carries_every_declared_metric() {
    let entries = benchmark_json_entries();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let declared: Vec<(String, String)> = entries
            .iter()
            .filter(|e| e.0 == section)
            .map(|(_, name, rest)| {
                let (_, unit) = rest.split_once("\"unit\": \"").expect("a unit");
                let (unit, _) = unit.split_once('"').expect("a closing quote");
                (name.clone(), unit.to_string())
            })
            .collect();
        assert!(!declared.is_empty());
        for w in &WORKLOADS {
            let (stdout, _) = run_bin(&[
                "--workload",
                w.name,
                "--seed",
                "7",
                "--seconds",
                "0",
                // Large enough that `mix_converged 0.06` holds on every
                // input: at 0.02 a 400-tick mix can miss it by chance.
                "--scale",
                "0.05",
                "--trace",
                trace,
            ]);
            assert_eq!(
                result_metrics(&stdout),
                declared,
                "{} --trace {trace}",
                w.name
            );
            assert!(stdout.contains(&format!("fingerprint {} seed=7 trace_hash=", w.name)));
            assert!(stdout.contains("host nproc="));
        }
    }
}

#[test]
fn a_scaled_down_smoke_of_all_four_is_quick_and_repeats_exactly() {
    let args = [
        "--workload",
        "all",
        "--seed",
        "42",
        "--seconds",
        "0",
        "--scale",
        "0.02",
    ];
    let (first, elapsed) = run_bin(&args);
    // Unoptimised test builds of the simulator are several times slower.
    let limit = if cfg!(debug_assertions) { 60 } else { 5 };
    assert!(
        elapsed < Duration::from_secs(limit),
        "the smoke took {elapsed:?}"
    );
    let exact = |stdout: &str| -> Vec<String> {
        stdout
            .lines()
            .filter(|l| l.starts_with("exact ") || l.starts_with("fingerprint"))
            .map(str::to_string)
            .collect()
    };
    let (second, _) = run_bin(&args);
    assert_eq!(exact(&first).len(), WORKLOADS.len() * 8);
    assert_eq!(exact(&first), exact(&second));
}
