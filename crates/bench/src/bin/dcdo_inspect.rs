//! Trace inspector: runs any declared scenario or `.scn` file with full
//! tracing, feeds the span log through the `dcdo-profile` analyzers, and
//! prints the paper-style tables — per-kind reconfiguration costs, the
//! longest critical path with its per-layer split, the VM hot-function
//! list, and RPC amplification. Exports the full report as deterministic
//! JSON and Prometheus text (CI diffs the JSON debug-vs-release).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p dcdo-bench --bin dcdo-inspect -- \
//!     [vm] <scenario|file.scn> [seed] [--out PREFIX]
//! ```
//!
//! `reconfig`, `reconfig_faulted` and `crash_during_reconfig` run the
//! `reconfig_run` driver and profile it with its layer map. Any other name
//! is a declared scenario or a `.scn` file, run through the `dcdo-scenario`
//! runner and profiled with an empty layer map (everything attributes to
//! `other`/`network`), which still shows the traffic and RPC shape. Seed
//! defaults to 42; output defaults to BENCH_profile.json /
//! BENCH_profile.prom.
//!
//! The `vm` subcommand (`dcdo-inspect vm <scenario> …`) runs the same
//! scenario and then reports the VM's view of it from the world's
//! `VmTotals` (`ReconfigRun::vm_totals`, `RunArtifacts::vm`): the
//! per-function cost table, the per-opcode retirement table (in
//! original-opcode terms, so the numbers are identical with fusion on or
//! off), and the superinstruction coverage the threaded dispatch achieved.
//! It writes `PREFIX.vm.json` (`BENCH_profile.vm.json` by default), like
//! every export here, through `dcdo_sim::JsonWriter`.
//!
//! The `scenarios` subcommand lists every declared scenario; `scenario
//! <name|file.scn|all> [seed] [--out FILE]` runs declared
//! scenarios (or a `.scn` file) through the `dcdo-scenario` runner, prints
//! each verdict table, and writes the deterministic per-run JSON reports to
//! `BENCH_scenarios.json`. The process exits nonzero if any expectation
//! fails, so CI can gate on declared behavior. With `--phases` it also
//! prints each run's host wall time per runner phase (setup, drive,
//! measure, the post-run sweep, judge, the timeline render, the take).
//!
//! The `epochs` subcommand (`dcdo-inspect epochs <name|file.scn> [seed]`)
//! runs one scenario and renders the group-epoch timeline
//! reconstructed from its span log: every proposal, commit, and replica
//! adoption in deterministic log order — the observability view of the
//! epoch-based reconfiguration protocol.
//!
//! The `timeline` subcommand runs one scenario and exports its windowed
//! time-series telemetry (per-100ms-bucket event counts, derived latency
//! series) as deterministic JSON and Prometheus text; `flight` runs one
//! scenario and renders the tail-sampled flight-recorder dump — the causal
//! span trees of every aborted, invariant-violating, or slowest-percentile
//! flow. Both honor the `--out FILE` flag every subcommand shares, and both
//! exit nonzero if the scenario fails.
//!
//! The `trace` subcommand (`dcdo-inspect trace <name|file.scn> [seed]
//! [--out FILE]`) runs one scenario and writes its span log
//! as Chrome-trace JSON (`chrome://tracing` / Perfetto), printing the span
//! count and the build-independent digest.

use dcdo_profile::{CriticalPath, FnNames, LayerMap, ProfileReport};
use dcdo_scenario::RunArtifacts;
use dcdo_sim::{JsonWriter, TraceLog};
use dcdo_vm::{VmProfile, VmTotals, OPCODE_NAMES};
use dcdo_workloads::reconfig;

fn usage() -> ! {
    eprintln!("usage: dcdo-inspect [vm] <scenario|file.scn> [seed] [--out PREFIX]");
    eprintln!("       dcdo-inspect scenarios");
    eprintln!("       dcdo-inspect scenario <name|file.scn|all> [seed] [--out FILE] [--phases]");
    eprintln!("       dcdo-inspect epochs <name|file.scn> [seed]");
    eprintln!("       dcdo-inspect timeline <name|file.scn> [seed] [--out FILE]");
    eprintln!("       dcdo-inspect flight <name|file.scn> [seed] [--out FILE]");
    eprintln!("       dcdo-inspect trace <name|file.scn> [seed] [--out FILE]");
    eprintln!("profile: reconfig, reconfig_faulted, crash_during_reconfig use reconfig_run's");
    eprintln!("    layer map; any other scenario or .scn file an empty one");
    eprintln!("vm: print the VM per-function/per-opcode cost tables and");
    eprintln!("    superinstruction coverage for the scenario");
    eprintln!("scenarios: list the declared scenarios the runner knows");
    eprintln!("scenario: run declared scenarios (or a .scn file), print verdicts,");
    eprintln!("    and write deterministic reports to BENCH_scenarios.json;");
    eprintln!("    --phases also prints each run's host wall time per runner phase");
    eprintln!("epochs: run one scenario and print the group-epoch timeline");
    eprintln!("    (proposals, commits, replica adoptions) from its span log");
    eprintln!("timeline: run one scenario and export its windowed telemetry");
    eprintln!("    as deterministic JSON (+ Prometheus text alongside)");
    eprintln!("flight: run one scenario and render the tail-sampled");
    eprintln!("    flight-recorder dump (aborted/violating/slowest flows)");
    eprintln!("trace: run one scenario and write its span log as Chrome-trace JSON");
    eprintln!("every subcommand accepts --out FILE");
    std::process::exit(2);
}

/// The command-line tail every subcommand shares: positional arguments
/// plus the uniform `--out FILE` flag.
struct Cli {
    positionals: Vec<String>,
    out: Option<String>,
}

/// Parses the shared flag set. Unknown flags exit with the usage text
/// (status 2).
fn parse_cli(args: &[String]) -> Cli {
    let mut cli = Cli {
        positionals: Vec::new(),
        out: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                cli.out = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--help" | "-h" => usage(),
            a if a.starts_with("--") => usage(),
            a => cli.positionals.push(a.to_string()),
        }
        i += 1;
    }
    cli
}

/// Splits a subcommand's positionals into `<target> [seed]`.
fn target_and_seed(cli: &Cli) -> (String, Option<u64>) {
    if cli.positionals.is_empty() || cli.positionals.len() > 2 {
        usage();
    }
    let target = cli.positionals[0].clone();
    let seed = cli
        .positionals
        .get(1)
        .map(|s| s.parse().unwrap_or_else(|_| usage()));
    (target, seed)
}

/// One-line summary of a declared scenario for `dcdo-inspect scenarios`.
fn scenario_summary(text: &str) -> String {
    let decl = dcdo_scenario::parse_scenario(text).expect("embedded scenario text parses");
    let window = match decl.window {
        dcdo_scenario::Window::Ticks(n) => format!("ticks={n}"),
        dcdo_scenario::Window::Timed(d) => format!("secs={}", d.as_secs_f64()),
        dcdo_scenario::Window::Episode => "episode".to_string(),
    };
    let workloads = decl
        .workloads
        .iter()
        .map(|w| w.name.as_str())
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{:<8} nodes={:<3} {:<10} workloads: {}",
        decl.topology.infra.name(),
        decl.topology.nodes,
        window,
        workloads
    )
}

fn list_scenarios() {
    for (name, text) in dcdo_scenario::registry::declared() {
        println!("{name:<22} {}", scenario_summary(text));
    }
}

/// Resolves a `scenario` target: `all`, a declared name, or a `.scn` file
/// path. Exits with status 2 on unreadable or unparseable input.
fn scenario_targets(target: &str) -> Vec<dcdo_scenario::Scenario> {
    if target == "all" {
        return dcdo_scenario::registry::declared()
            .iter()
            .map(|(name, _)| {
                dcdo_scenario::registry::load_declared(name).expect("declared scenario loads")
            })
            .collect();
    }
    if let Some(scenario) = dcdo_scenario::registry::load_declared(target) {
        return vec![scenario];
    }
    let text = std::fs::read_to_string(target).unwrap_or_else(|e| {
        eprintln!("dcdo-inspect: {target} is not a declared scenario and not a readable file: {e}");
        eprintln!(
            "declared scenarios: {}",
            dcdo_scenario::registry::declared()
                .iter()
                .map(|(n, _)| *n)
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(2);
    });
    match dcdo_scenario::Scenario::from_text(&text) {
        Ok(scenario) => vec![scenario],
        Err(e) => {
            eprintln!("dcdo-inspect: {target}: {e}");
            std::process::exit(2);
        }
    }
}

/// The `scenario` subcommand: run one declared scenario, a `.scn` file, or
/// all declared scenarios; print verdicts; export deterministic JSON. An
/// SLO breach additionally writes the full-fidelity flight-recorder dump
/// to `FLIGHT_<scenario>.breach.json`.
fn run_scenarios(args: &[String]) {
    let phases = args.iter().any(|a| a == "--phases");
    let args: Vec<String> = args.iter().filter(|a| *a != "--phases").cloned().collect();
    let cli = parse_cli(&args);
    let (target, seed) = target_and_seed(&cli);
    let out_path = cli
        .out
        .unwrap_or_else(|| "BENCH_scenarios.json".to_string());
    let mut scenarios = scenario_targets(&target);
    if let Some(seed) = seed {
        scenarios = scenarios.into_iter().map(|s| s.with_seed(seed)).collect();
    }

    let mut all_passed = true;
    // The file is `{"scenarios":[…]}`, one report per run in run order.
    let mut file = JsonWriter::compact();
    file.object().key("scenarios").array();
    for scenario in scenarios {
        let name = scenario.name.clone();
        let mut times = dcdo_scenario::PhaseTimes::default();
        match dcdo_scenario::run_artifacts_timed(scenario, &mut times) {
            Ok(artifacts) => {
                print!("{}", artifacts.report.render());
                if phases {
                    print!("{}", render_phases(&name, &times));
                }
                all_passed &= artifacts.report.passed;
                if artifacts.trace_entries_dropped > 0 {
                    eprintln!(
                        "dcdo-inspect: scenario {name}: trace_hash covers the last {} \
                         structural events; {} earlier ones are outside it",
                        dcdo_scenario::TRACE_RING_CAPACITY,
                        artifacts.trace_entries_dropped
                    );
                }
                if artifacts.slo_breached {
                    if let Some(flight) = &artifacts.flight {
                        let dump_path = format!("FLIGHT_{name}.breach.json");
                        std::fs::write(&dump_path, flight.to_json())
                            .expect("write breach flight dump");
                        eprintln!(
                            "dcdo-inspect: scenario {name} breached {} SLO watchdog(s); \
                             flight dump written to {dump_path}",
                            artifacts.report.slo_breaches
                        );
                    }
                }
                artifacts.report.write_json(&mut file);
            }
            Err(e) => {
                eprintln!("dcdo-inspect: scenario {name} is invalid: {e}");
                std::process::exit(2);
            }
        }
    }
    file.close().close().newline();
    std::fs::write(&out_path, file.finish()).expect("write scenario report JSON");
    println!("wrote {out_path}");
    if !all_passed {
        std::process::exit(1);
    }
}

/// The `--phases` table: each runner phase's host wall time and share of
/// the whole call, then the post-run share (everything after `measure`).
fn render_phases(name: &str, times: &dcdo_scenario::PhaseTimes) -> String {
    let total = times.total_s();
    let share = |s: f64| if total > 0.0 { 100.0 * s / total } else { 0.0 };
    let mut out = format!("phases of {name} (host wall time):\n");
    for (phase, s) in times.rows() {
        out.push_str(&format!(
            "  {phase:<8} {:>10.3} ms {:>6.1} %\n",
            s * 1e3,
            share(s)
        ));
    }
    out.push_str(&format!(
        "  {:<8} {:>10.3} ms {:>6.1} %\n  {:<8} {:>10.3} ms {:>6.1} %\n",
        "total",
        total * 1e3,
        share(total),
        "post-run",
        times.post_run_s() * 1e3,
        share(times.post_run_s()),
    ));
    out
}

/// Runs the one scenario an `epochs`/`timeline`/`flight`/`trace` command
/// line names (they take one scenario, not `all`); exits with status 2 if
/// the declaration is invalid.
fn run_single(subcommand: &str, args: &[String]) -> (Cli, String, RunArtifacts) {
    let cli = parse_cli(args);
    let (target, seed) = target_and_seed(&cli);
    if target == "all" {
        eprintln!("dcdo-inspect: {subcommand} takes one scenario, not `all`");
        std::process::exit(2);
    }
    let mut scenario = scenario_targets(&target).remove(0);
    if let Some(seed) = seed {
        scenario = scenario.with_seed(seed);
    }
    let name = scenario.name.clone();
    match dcdo_scenario::run_artifacts(scenario, None) {
        Ok(artifacts) => (cli, name, artifacts),
        Err(e) => {
            eprintln!("dcdo-inspect: scenario {name} is invalid: {e}");
            std::process::exit(2);
        }
    }
}

/// Exits with status 1 if the scenario failed its expectations.
fn exit_unless_passed(name: &str, passed: bool) {
    if !passed {
        eprintln!("dcdo-inspect: scenario {name} failed its expectations");
        std::process::exit(1);
    }
}

/// The `epochs` subcommand: run one scenario with span logging and render
/// the per-group epoch timeline (proposals, commits, replica adoptions).
fn run_epochs(args: &[String]) {
    let (_, name, artifacts) = run_single("epochs", args);
    let rows = dcdo_group::epoch_timeline(&artifacts.spans);
    println!(
        "scenario {name}, seed {}: {} epoch events over {} spans",
        artifacts.report.seed,
        rows.len(),
        artifacts.spans.len()
    );
    if rows.is_empty() {
        println!("(no group-epoch spans — does the scenario deploy a replica group?)");
    } else {
        print!("{}", dcdo_group::render_timeline(&rows));
    }
    exit_unless_passed(&name, artifacts.report.passed);
}

/// The `timeline` subcommand: run one scenario, print a per-window summary
/// table, and export the windowed telemetry as deterministic JSON (and
/// Prometheus text alongside).
fn run_timeline(args: &[String]) {
    let (cli, name, mut artifacts) = run_single("timeline", args);
    let r = &artifacts.report;
    println!(
        "scenario {name}, seed {}: {} events over the run",
        r.seed, r.events_processed
    );
    print_timeline_table(&artifacts.timeline);
    let json_path = cli.out.unwrap_or_else(|| format!("TIMELINE_{name}.json"));
    let prom_path = sibling_prom_path(&json_path);
    std::fs::write(&json_path, &artifacts.timeline_json).expect("write timeline JSON");
    let prom = artifacts.timeline.to_prometheus();
    std::fs::write(&prom_path, prom).expect("write timeline Prometheus");
    println!("wrote {json_path} and {prom_path}");
    exit_unless_passed(&name, artifacts.report.passed);
}

/// The `flight` subcommand: run one scenario, render the tail-sampled
/// flight-recorder dump, and export it as deterministic JSON.
fn run_flight(args: &[String]) {
    let (cli, name, artifacts) = run_single("flight", args);
    let r = &artifacts.report;
    let Some(flight) = &artifacts.flight else {
        eprintln!("dcdo-inspect: scenario {name} never built a world");
        std::process::exit(2);
    };
    println!(
        "scenario {name}, seed {}: flight digest {:016x}, {} frames recorded, \
         {} of {} flows retained",
        r.seed,
        r.flight_digest,
        flight.frames_recorded,
        flight.flows.len(),
        flight.total_flows
    );
    print!("{}", flight.render());
    let json_path = cli.out.unwrap_or_else(|| format!("FLIGHT_{name}.json"));
    std::fs::write(&json_path, flight.to_json()).expect("write flight dump JSON");
    println!("wrote {json_path}");
    exit_unless_passed(&name, artifacts.report.passed);
}

/// The `trace` subcommand: run one scenario and write its span log as
/// Chrome-trace JSON, printing the span count and the build-independent
/// digest.
fn run_trace(args: &[String]) {
    let (cli, name, artifacts) = run_single("trace", args);
    let log = TraceLog::from_events(artifacts.spans, artifacts.span_groups);
    let json_path = cli.out.unwrap_or_else(|| format!("TRACE_{name}.json"));
    std::fs::write(&json_path, log.to_chrome_trace()).expect("write chrome trace");
    println!(
        "wrote {json_path}: {} spans, digest {:016x}",
        log.len(),
        artifacts.report.span_digest
    );
    exit_unless_passed(&name, artifacts.report.passed);
}

/// Derives the Prometheus export path from the JSON path (`x.json` →
/// `x.prom`, anything else gets `.prom` appended).
fn sibling_prom_path(json_path: &str) -> String {
    match json_path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.prom"),
        None => format!("{json_path}.prom"),
    }
}

/// Prints the human-readable per-window table of the finished timeline
/// (the JSON is the machine artifact; this is the eyeball view).
fn print_timeline_table(timeline: &dcdo_sim::Timeline) {
    println!(
        "{:>8} {:>10} {:>10} {:>8} {:>12} {:>8} {:>9}",
        "window", "events", "delivered", "timers", "dead_letters", "crashes", "restarts"
    );
    for (window, b) in timeline.buckets() {
        let s = b.stats;
        println!(
            "{:>8} {:>10} {:>10} {:>8} {:>12} {:>8} {:>9}",
            window, s.events, s.delivered, s.timers, s.dead_letters, s.crashes, s.restarts
        );
    }
}

/// Runs `name` (a declared scenario or a `.scn` file) and returns its
/// profile together with the world's VM totals.
fn run_workload(name: &str, seed: u64) -> (ProfileReport, VmTotals) {
    match name {
        "reconfig" | "reconfig_faulted" | "crash_during_reconfig" => {
            let mut run = reconfig::reconfig_run(seed, name != "reconfig");
            if name == "crash_during_reconfig" {
                // The declared scenario's episode drains the queue.
                run.bed.sim.run_until_idle();
            }
            if run.drive.recovery_time_s > 0.0 {
                println!(
                    "recovery after injected crash: {:.3}s",
                    run.drive.recovery_time_s
                );
            }
            println!(
                "reconfiguration window: {} messages",
                run.drive.window_messages
            );
            (run.profile(), run.vm_totals())
        }
        _ => {
            let scenario = scenario_targets(name).remove(0).with_seed(seed);
            let artifacts = dcdo_scenario::run_artifacts(scenario, None).unwrap_or_else(|e| {
                eprintln!("dcdo-inspect: scenario {name} is invalid: {e}");
                std::process::exit(2);
            });
            print!("{}", artifacts.report.render());
            let report = ProfileReport::analyze(
                &TraceLog::from_events(artifacts.spans, artifacts.span_groups),
                &LayerMap::new(),
                &FnNames::new(),
            );
            (report, artifacts.vm)
        }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn print_cost_table(report: &ProfileReport) {
    println!("\nreconfiguration-cost table (per flow kind)");
    println!(
        "{:<12} {:>6} {:>8} {:>10} {:>10} {:>10} {:>10} {:>9} {:>12}",
        "kind", "flows", "aborted", "mean_ms", "median_ms", "p99_ms", "max_ms", "messages", "bytes"
    );
    for r in &report.cost_table {
        println!(
            "{:<12} {:>6} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>9} {:>12}",
            r.kind.name(),
            r.flows,
            r.aborted,
            ms(r.mean_ns),
            ms(r.median_ns),
            ms(r.p99_ns),
            ms(r.max_ns),
            r.messages,
            r.bytes
        );
    }
    if report.cost_table.is_empty() {
        println!("(no terminated flows in this trace)");
    }
}

fn print_critical_path(report: &ProfileReport) {
    let Some(path) = report.paths.iter().max_by_key(|p| p.total_ns()) else {
        println!("\nno critical paths (no terminated flows)");
        return;
    };
    println!(
        "\nlongest critical path: {} flow {} — {:.3} ms over {} hops",
        path.kind.name(),
        path.flow,
        ms(path.total_ns()),
        path.segments.len()
    );
    for (layer, ns) in &path.by_layer {
        if *ns > 0 {
            println!("  {:<8} {:>10.3} ms", layer.name(), ms(*ns));
        }
    }
    let check: u64 = path.by_layer.iter().map(|(_, ns)| ns).sum();
    assert_eq!(check, path.total_ns(), "layer split must sum to end-to-end");
}

fn print_flow_steps(report: &ProfileReport) {
    println!("\nslowest flow steps");
    let mut steps = report.steps.clone();
    steps.sort_by_key(|s| std::cmp::Reverse(s.total_ns));
    for s in steps.iter().take(8) {
        println!(
            "  {:<10} {:<12} count {:>5}   total {:>10.3} ms   mean {:>9.3} ms",
            s.kind.name(),
            dcdo_profile::step_name(s.kind, s.step),
            s.count,
            ms(s.total_ns),
            ms(s.mean_ns())
        );
    }
}

fn print_vm(report: &ProfileReport) {
    println!("\nVM hot functions");
    if report.vm.is_empty() {
        println!("(no profiled VM threads in this trace)");
        return;
    }
    for f in report.vm.iter().take(10) {
        let name = f
            .name
            .clone()
            .unwrap_or_else(|| format!("{:#018x}", f.function));
        println!(
            "  {:<16} calls {:>6}   instructions {:>9}   work {:>10.3} ms",
            name,
            f.calls,
            f.instructions,
            ms(f.work_nanos)
        );
    }
}

fn print_rpc(report: &ProfileReport) {
    let r = &report.rpc;
    println!(
        "\nRPC: {} calls, {} attempts ({} retries), amplification {:.3}x, worst attempts/call {}",
        r.calls,
        r.attempts,
        r.retries,
        r.amplification_millis() as f64 / 1000.0,
        r.max_attempts
    );
}

fn longest(paths: &[CriticalPath]) -> u64 {
    paths.iter().map(|p| p.total_ns()).max().unwrap_or(0)
}

/// Per-function VM cost table from the process-wide aggregate (real names —
/// unlike the trace-side table, which only has hashes for unseen names).
fn print_vm_functions(profile: &VmProfile) {
    println!("\nVM per-function costs");
    if profile.functions.is_empty() {
        println!("(no profiled VM threads in this scenario)");
        return;
    }
    println!(
        "{:<20} {:>8} {:>14} {:>12}",
        "function", "calls", "instructions", "work_ms"
    );
    let mut rows = profile.functions.clone();
    rows.sort_by(|a, b| {
        b.stats
            .instructions
            .cmp(&a.stats.instructions)
            .then_with(|| a.name.as_str().cmp(b.name.as_str()))
    });
    for f in &rows {
        println!(
            "{:<20} {:>8} {:>14} {:>12.3}",
            f.name.as_str(),
            f.stats.calls,
            f.stats.instructions,
            ms(f.stats.work_nanos)
        );
    }
}

/// Per-opcode retirement table, in original-opcode terms: fused
/// superinstructions attribute each constituent, so this table is identical
/// with fusion on or off.
fn print_vm_opcodes(profile: &VmProfile) {
    println!("\nVM per-opcode retirement (original-opcode terms)");
    let mut rows: Vec<(usize, u64)> = profile
        .opcodes
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, n)| n > 0)
        .collect();
    if rows.is_empty() {
        println!("(no instructions retired)");
        return;
    }
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let total: u64 = rows.iter().map(|&(_, n)| n).sum();
    println!("{:<14} {:>12} {:>8}", "opcode", "retired", "share");
    for (op, n) in &rows {
        println!(
            "{:<14} {:>12} {:>7.2}%",
            OPCODE_NAMES[*op],
            n,
            100.0 * *n as f64 / total as f64
        );
    }
    println!("{:<14} {:>12}", "total", total);
}

fn print_vm_fusion(totals: &VmTotals) {
    println!(
        "\nsuperinstruction coverage: {:.2}% ({} of {} retired opcodes ran fused)",
        100.0 * totals.coverage(),
        totals.fused,
        totals.retired
    );
}

fn vm_json(totals: &VmTotals) -> String {
    let profile = &totals.profile;
    let mut w = JsonWriter::spaced();
    w.object_lines().key("functions").array_lines();
    for f in &profile.functions {
        w.object().key("name").str(f.name.as_str());
        w.key("calls").u64(f.stats.calls);
        w.key("instructions").u64(f.stats.instructions);
        w.key("work_nanos").u64(f.stats.work_nanos).close();
    }
    w.close_on_line().key("opcodes").object_lines();
    for (op, n) in profile.opcodes.iter().enumerate() {
        if *n > 0 {
            w.key(OPCODE_NAMES[op]).u64(*n);
        }
    }
    w.close_on_line().key("fusion").object();
    w.key("retired").u64(totals.retired);
    w.key("fused").u64(totals.fused);
    // Coverage in ten-thousandths, as four fixed decimals.
    let coverage = (totals.coverage() * 1e4).round() as u64;
    w.key("coverage").decimal(coverage, 4);
    w.close().close().newline();
    w.finish()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("scenarios") => {
            list_scenarios();
            return;
        }
        Some("scenario") => {
            run_scenarios(&args[1..]);
            return;
        }
        Some("epochs") => {
            run_epochs(&args[1..]);
            return;
        }
        Some("timeline") => {
            run_timeline(&args[1..]);
            return;
        }
        Some("flight") => {
            run_flight(&args[1..]);
            return;
        }
        Some("trace") => {
            run_trace(&args[1..]);
            return;
        }
        _ => {}
    }
    // The profile path (`[vm] <scenario> [seed]`) shares the same flag
    // parser as every subcommand.
    let cli = parse_cli(&args);
    let mut positionals = cli.positionals.as_slice();
    let vm_mode = positionals.first().map(String::as_str) == Some("vm");
    if vm_mode {
        positionals = &positionals[1..];
    }
    let Some(workload) = positionals.first().cloned() else {
        usage();
    };
    let seed: u64 = positionals
        .get(1)
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(42);
    if positionals.len() > 2 {
        usage();
    }
    let out_prefix = cli.out.unwrap_or_else(|| "BENCH_profile".to_string());
    if workload == "all" {
        usage();
    }

    println!("workload {workload}, seed {seed}");
    let (report, vm) = run_workload(&workload, seed);

    if vm_mode {
        print_vm_functions(&vm.profile);
        print_vm_opcodes(&vm.profile);
        print_vm_fusion(&vm);
        let json_path = format!("{out_prefix}.vm.json");
        std::fs::write(&json_path, vm_json(&vm)).expect("write VM cost JSON");
        println!("wrote {json_path}");
        return;
    }

    print_cost_table(&report);
    print_critical_path(&report);
    print_flow_steps(&report);
    print_vm(&report);
    print_rpc(&report);
    println!(
        "\nflows: {} completed, {} aborted; longest path {:.3} ms",
        report.flows_completed(),
        report.flows_aborted(),
        ms(longest(&report.paths))
    );

    let json_path = format!("{out_prefix}.json");
    let prom_path = format!("{out_prefix}.prom");
    std::fs::write(&json_path, report.to_json()).expect("write profile JSON");
    std::fs::write(&prom_path, report.to_prometheus()).expect("write profile Prometheus");
    println!("wrote {json_path} and {prom_path}");
}

#[cfg(test)]
#[path = "../../../dcdo-trace/src/write/parse.rs"]
mod json_parse;

#[cfg(test)]
mod tests {
    use dcdo_vm::{FnProfile, FnStats};

    use super::json_parse::{parse, Json};
    use super::*;

    /// Every JSON export of one real run is one well-formed document (each
    /// JSON Lines record is one), and reads back what the run produced.
    #[test]
    fn every_json_export_of_a_run_parses() {
        let scenario = dcdo_scenario::registry::load_declared("mixed_traffic").expect("declared");
        let artifacts = dcdo_scenario::run_artifacts(scenario, None).expect("valid");

        // `scenario all` writes the committed file (golden_parity pins it).
        let report = parse(&artifacts.report.to_json());
        let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scenarios.json");
        let file = parse(&std::fs::read_to_string(golden).expect("the committed golden"));
        let runs = file.get("scenarios").expect("scenarios").items();
        assert!(runs.contains(&report), "the golden holds this run's report");

        let flight = parse(&artifacts.flight.expect("a built world").to_json());
        assert!(!flight.get("flows").expect("flows").items().is_empty());
        let timeline = parse(&artifacts.timeline_json);
        assert!(!timeline.get("buckets").expect("buckets").items().is_empty());

        let vm = parse(&vm_json(&artifacts.vm));
        let functions = vm.get("functions").expect("functions").items();
        assert_eq!(functions.len(), artifacts.vm.profile.functions.len());
        assert!(!functions.is_empty());

        let mut names = FnNames::new();
        for f in &artifacts.vm.profile.functions {
            names.insert(f.name.as_str());
        }
        let log = TraceLog::from_events(artifacts.spans, artifacts.span_groups);
        let profile = ProfileReport::analyze(&log, &LayerMap::new(), &names);
        let doc = parse(&profile.to_json());
        let hot = doc.get("vm_functions").expect("vm_functions").items();
        assert_eq!(hot.len(), profile.vm.len());
        assert!(hot
            .iter()
            .all(|f| matches!(f.get("name"), Some(Json::Str(_)))));

        let jsonl = log.to_jsonl();
        assert_eq!(jsonl.lines().count(), log.len());
        for line in jsonl.lines() {
            assert!(matches!(parse(line), Json::Obj(_)), "{line}");
        }
        let chrome = parse(&log.to_chrome_trace());
        assert_eq!(
            chrome.get("traceEvents").expect("events").items().len(),
            log.len()
        );
    }

    #[test]
    fn vm_json_escapes_function_names() {
        // The signature parser and the codec both accept quotes and
        // backslashes in a function name.
        let mut totals = VmTotals::default();
        totals.profile.functions.push(FnProfile {
            name: "a\"b\\c".into(),
            stats: FnStats::default(),
        });
        let json = vm_json(&totals);
        assert!(
            json.contains(r#"{"name": "a\"b\\c", "calls": 0,"#),
            "{json}"
        );
    }
}
