//! The repo benchmark's one command. See `benchmark/README.md`.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use dcdo_benchmark::report::{RunResult, END_TO_END};
use dcdo_benchmark::workloads::WORKLOADS;
use dcdo_benchmark::{host, plain, traced};

const USAGE: &str = "\
usage: dcdo-benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
                      [--scale F] [--repeat-check]

  --workload      calls_steady | reconfig_churn | mixed_traffic_x50 |
                  upgrade_crash_long | all (one child process per workload)
  --seed          names the set of generated inputs (default 42)
  --seconds       how long the end-to-end run measures (default 20; never
                  less than one pass over the seed's inputs)
  --trace         0: end-to-end metrics (default); 1: per-layer metrics
  --scale         multiplies every run window (default 1; self-tests use 0.02)
  --repeat-check  run two end-to-end sets of every workload and compare them:
                  timed medians within their bounds, exact values identical
";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    repeat_check: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 20.0,
        trace: false,
        scale: 1.0,
        repeat_check: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--repeat-check" {
            args.repeat_check = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.to_string(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=600.0).contains(&args.seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                args.scale = value.parse().map_err(|_| bad())?;
                if !(args.scale > 0.0 && args.scale <= 16.0) {
                    return Err(bad());
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.repeat_check && args.workload.is_empty() {
        args.workload = "all".to_string();
    }
    let known = args.workload == "all" || WORKLOADS.iter().any(|w| w.name == args.workload);
    if !known {
        return Err(format!("unknown or missing workload {:?}", args.workload));
    }
    Ok(args)
}

/// glibc's knob for the size above which `malloc` maps a block of its own
/// and returns it to the kernel on `free`. Setting it — here to glibc's own
/// default — switches off the dynamic growth of that size, under which a
/// process keeps, rep after rep, the physical pages its first large
/// buffers were dealt. The tail sampler scans the span log hundreds of
/// times, so that deal is worth ±8 % of `run_wall_s` on `reconfig_churn`
/// and no number of repetitions in one process averages it out. With the
/// knob fixed every rep's large buffers get fresh pages, as they do in the
/// one-shot `dcdo-inspect` process a user runs.
const FRESH_PAGES_ENV: (&str, &str) = ("MALLOC_MMAP_THRESHOLD_", "131072");

/// This executable, to be started again with [`FRESH_PAGES_ENV`] set.
fn self_command() -> Command {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut command = Command::new(exe);
    command.env(FRESH_PAGES_ENV.0, FRESH_PAGES_ENV.1);
    command
}

/// Where the traced run dumps its host-time spans: inside the benchmark's
/// own directory, which `.gitignore` covers.
fn spans_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}.spans.tsv"))
}

/// Runs one workload in this process and prints its result line last.
fn run_one(args: &Args) -> ExitCode {
    if std::env::var_os(FRESH_PAGES_ENV.0).is_none() {
        // The allocator reads the knob at start-up, so start again with it.
        let status = self_command()
            .args(std::env::args_os().skip(1))
            .status()
            .expect("the benchmark can start itself");
        return ExitCode::from(status.code().map_or(1, |c| c as u8));
    }
    println!(
        "benchmark workload={} seed={} seconds={} trace={} scale={} inputs={} warmup_reps={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        args.scale,
        plain::INPUTS_PER_SEED,
        plain::WARMUP_REPS
    );
    let why = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .map_or("", |w| w.why);
    println!("why {why}");
    println!("host {}", host::describe());
    let result = if args.trace {
        traced::run(
            &args.workload,
            args.seed,
            args.scale,
            &spans_path(&args.workload),
        )
    } else {
        plain::run(&args.workload, args.seed, args.scale, args.seconds)
    };
    let mut result: RunResult = result.expect("the workload name was checked");
    for m in &result.metrics {
        if !m.value.is_finite() {
            result
                .problems
                .push(format!("metric {} is not a finite number", m.name));
        }
    }
    for problem in &result.problems {
        println!("problem {problem}");
    }
    println!("{}", result.json_line());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `workload` in a child process — so `VmHWM` is that workload's
/// alone — and returns its standard output, or `None` if it failed.
fn run_child(args: &Args, workload: &str) -> Option<String> {
    let output = self_command()
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--scale", &args.scale.to_string()])
        .output()
        .expect("the benchmark can start itself");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    output.status.success().then_some(stdout)
}

/// `--workload all`: every workload, one child process each, in order.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for w in &WORKLOADS {
        ok &= run_child(args, w.name).is_some();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `metric`, `exact` and `fingerprint` lines of one child's output:
/// `(timed metrics by name, every exact line verbatim)`.
fn parse_output(stdout: &str) -> (Vec<(String, f64)>, Vec<String>) {
    let mut timed = Vec::new();
    let mut exact = Vec::new();
    for line in stdout.lines() {
        let mut words = line.split_whitespace();
        match words.next() {
            Some("metric") => {
                if let (Some(name), Some(Ok(value))) =
                    (words.next(), words.next().map(str::parse::<f64>))
                {
                    timed.push((name.to_string(), value));
                }
            }
            Some("exact" | "fingerprint" | "fingerprint_all") => exact.push(line.to_string()),
            _ => {}
        }
    }
    (timed, exact)
}

/// `--repeat-check`: two end-to-end sets of the same build must agree —
/// timed medians within their bounds, everything exact byte for byte.
fn repeat_check(args: &Args) -> ExitCode {
    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| args.workload == "all" || args.workload == *n)
        .collect();
    let mut sets = Vec::new();
    for set in 0..2 {
        println!("repeat-check set {set}");
        let mut outputs = Vec::new();
        for name in &names {
            let Some(stdout) = run_child(args, name) else {
                println!("repeat-check FAILED: {name} did not run correctly in set {set}");
                return ExitCode::FAILURE;
            };
            outputs.push(parse_output(&stdout));
        }
        sets.push(outputs);
    }
    let mut failures = 0;
    println!("repeat-check workload metric set0 set1 difference bound verdict");
    for (i, name) in names.iter().enumerate() {
        let (timed_a, exact_a) = &sets[0][i];
        let (timed_b, exact_b) = &sets[1][i];
        for ((metric, a), (_, b)) in timed_a.iter().zip(timed_b) {
            let bound = END_TO_END
                .iter()
                .find(|e| e.name == metric)
                .map_or(0.0, |e| e.bound);
            let difference = (a - b).abs() / a.min(*b);
            let within = difference <= bound;
            failures += !within as u32;
            println!(
                "repeat-check {name} {metric} {a} {b} {difference:.4} {bound} {}",
                if within { "ok" } else { "DIFFERS" }
            );
        }
        if exact_a == exact_b {
            println!(
                "repeat-check {name} exact {} lines identical ok",
                exact_a.len()
            );
        } else {
            failures += 1;
            for (a, b) in exact_a.iter().zip(exact_b).filter(|(a, b)| a != b) {
                println!("repeat-check {name} exact DIFFERS:\n  {a}\n  {b}");
            }
        }
    }
    if failures == 0 {
        println!("repeat-check passed");
        ExitCode::SUCCESS
    } else {
        println!("repeat-check FAILED: {failures} difference(s) beyond bound");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dcdo-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.repeat_check {
        repeat_check(&args)
    } else if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}
