//! Sim-core throughput tracker: runs the four canonical workload shapes
//! from `dcdo_workloads::simbench` under wall-clock timing and emits a
//! machine-readable `BENCH_sim.json` so the events/sec trajectory is
//! tracked across PRs (CI uploads it as an artifact).
//!
//! Usage: `cargo run --release -p dcdo-bench --bin sim_bench [-- out.json]`

use std::time::Instant;

use dcdo_workloads::simbench;

struct Shot {
    name: &'static str,
    events: u64,
    best_events_per_sec: f64,
    mean_events_per_sec: f64,
}

/// Times one workload: a warmup run, then `reps` measured runs; reports the
/// best (least-noise) and mean rates.
fn measure(name: &'static str, reps: u32, run: impl Fn() -> u64) -> Shot {
    let warm_events = run();
    let mut best = 0.0f64;
    let mut sum = 0.0f64;
    let mut events = warm_events;
    for _ in 0..reps {
        let t = Instant::now();
        events = run();
        let secs = t.elapsed().as_secs_f64().max(1e-12);
        let rate = events as f64 / secs;
        best = best.max(rate);
        sum += rate;
    }
    Shot {
        name,
        events,
        best_events_per_sec: best,
        mean_events_per_sec: sum / f64::from(reps),
    }
}

/// Times two variants of one workload with interleaved reps (off, on,
/// off, on, …): slow clock-frequency and scheduler drift then hits both
/// arms equally instead of biasing whichever measured block runs second.
/// Reports best and mean per arm, like [`measure`].
fn measure_paired(
    name_off: &'static str,
    name_on: &'static str,
    reps: u32,
    run: impl Fn(bool) -> u64,
) -> (Shot, Shot) {
    run(false);
    run(true);
    let mut best = [0.0f64; 2];
    let mut sum = [0.0f64; 2];
    let mut events = [0u64; 2];
    for rep in 0..reps {
        // Alternate which arm goes first so within-pair warmup/throttle
        // drift doesn't systematically tax one arm.
        let order = if rep % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for enabled in order {
            let i = usize::from(enabled);
            let t = Instant::now();
            events[i] = run(enabled);
            let secs = t.elapsed().as_secs_f64().max(1e-12);
            let rate = events[i] as f64 / secs;
            best[i] = best[i].max(rate);
            sum[i] += rate;
        }
    }
    let shot = |i: usize, name: &'static str| Shot {
        name,
        events: events[i],
        best_events_per_sec: best[i],
        mean_events_per_sec: sum[i] / f64::from(reps),
    };
    (shot(0, name_off), shot(1, name_on))
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sim.json".to_string());
    let reps = 5;
    let shots = [
        measure("ping_pong", reps, || simbench::ping_pong(100_000)),
        measure("fan_out", reps, || simbench::fan_out(500, 200, 512)),
        measure("timer_heavy", reps, || simbench::timer_heavy(64, 2_000)),
        measure("transfer_heavy", reps, || simbench::transfer_heavy(100, 50)),
    ];

    // Tracing overhead probe: the same fan_out shape with the span log
    // recording every send/deliver, against the disabled run above. The
    // disabled cost is one predicted branch per emit site; the enabled
    // cost is the honest price of capturing everything.
    let traced = measure("fan_out_traced", reps, || {
        let (mut sim, budget) = simbench::fan_out_sim(500, 200, 512);
        sim.spans_mut().enable();
        sim.run_with_budget(budget)
    });
    let fan_out = &shots[1];
    // Throughput ratio (traced / untraced, < 1) and its reciprocal — the
    // "tracing costs N×" slowdown factor quoted in EXPERIMENTS.md.
    let traced_ratio = traced.best_events_per_sec / fan_out.best_events_per_sec;
    let overhead_x = fan_out.best_events_per_sec / traced.best_events_per_sec;

    // Always-on observability probe: the same fan_out shape with the
    // flight recorder and timeline disabled (the bare baseline) vs the
    // shipped default with both on. Reps are interleaved off-on-off-on so
    // slow clock-frequency or scheduler drift hits both arms equally
    // instead of biasing whichever block runs second; the acceptance bar
    // is <2% throughput cost.
    // A 4×-longer fan_out run than the headline shape: per-rep scheduler
    // noise shrinks with run length, which matters when the quantity under
    // test is a couple of percent.
    let (flight_off, flight_on) =
        measure_paired("fan_out_flight_off", "fan_out_flight_on", 10, |enabled| {
            let (mut sim, budget) = simbench::fan_out_sim(500, 800, 512);
            if !enabled {
                sim.flight_mut().disable();
                sim.timeline_mut().disable();
            }
            sim.run_with_budget(budget)
        });
    let flight_ratio = flight_on.best_events_per_sec / flight_off.best_events_per_sec;
    let flight_overhead_frac = 1.0 - flight_ratio;
    let flight_overhead_x = flight_off.best_events_per_sec / flight_on.best_events_per_sec;

    // VM profiling overhead probe: a pure interpreter hot loop (a function
    // call crossing per iteration) with the per-thread cost profile off vs
    // on. Off is the shipped default — its cost is one predicted branch at
    // each call/return/instruction hook — and the fraction reported here is
    // the honest price of turning attribution on.
    const SPIN_ITERS: i64 = 200_000;
    let spin_off = measure("vm_spin", reps, || simbench::vm_spin(SPIN_ITERS, false));
    let spin_on = measure("vm_spin_profiled", reps, || {
        simbench::vm_spin(SPIN_ITERS, true)
    });
    let vm_overhead_frac = 1.0 - spin_on.best_events_per_sec / spin_off.best_events_per_sec;
    // Dispatch-mode split: the legacy single-step interpreter ("before"),
    // the threaded loop without fusion, and the full fused path (== vm_spin
    // above, re-measured for a same-process comparison).
    let spin_legacy = measure("vm_spin_legacy", reps, || {
        simbench::vm_spin_with(SPIN_ITERS, false, simbench::VmSpinMode::Legacy).0
    });
    let spin_unfused = measure("vm_spin_unfused", reps, || {
        simbench::vm_spin_with(SPIN_ITERS, false, simbench::VmSpinMode::Unfused).0
    });
    let speedup_vs_legacy = spin_off.best_events_per_sec / spin_legacy.best_events_per_sec;
    let fusion_probe = simbench::vm_spin_fusion_probe(SPIN_ITERS.min(10_000));

    let mut json = String::from("{\n  \"suite\": \"sim_throughput\",\n  \"unit\": \"events_per_sec\",\n  \"workloads\": {\n");
    for (i, s) in shots.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{\"events\": {}, \"best\": {:.0}, \"mean\": {:.0}}}{}\n",
            s.name,
            s.events,
            s.best_events_per_sec,
            s.mean_events_per_sec,
            if i + 1 < shots.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n  \"tracing\": {\n");
    json.push_str(&format!(
        "    \"fan_out_traced\": {{\"events\": {}, \"best\": {:.0}, \"mean\": {:.0}}},\n",
        traced.events, traced.best_events_per_sec, traced.mean_events_per_sec
    ));
    json.push_str(&format!(
        "    \"traced_throughput_ratio\": {traced_ratio:.4},\n"
    ));
    json.push_str(&format!("    \"overhead_x\": {overhead_x:.2},\n"));
    json.push_str(&format!(
        "    \"flight_recorder\": {{\"traced_throughput_ratio\": {flight_ratio:.4}, \"overhead_x\": {flight_overhead_x:.2}}}\n  }},\n"
    ));
    json.push_str("  \"flight\": {\n");
    json.push_str(&format!(
        "    \"fan_out_flight_off\": {{\"events\": {}, \"best\": {:.0}, \"mean\": {:.0}}},\n",
        flight_off.events, flight_off.best_events_per_sec, flight_off.mean_events_per_sec
    ));
    json.push_str(&format!(
        "    \"fan_out_flight_on\": {{\"events\": {}, \"best\": {:.0}, \"mean\": {:.0}}},\n",
        flight_on.events, flight_on.best_events_per_sec, flight_on.mean_events_per_sec
    ));
    json.push_str(&format!(
        "    \"flight_throughput_ratio\": {flight_ratio:.4},\n"
    ));
    json.push_str(&format!(
        "    \"overhead_frac\": {flight_overhead_frac:.4}\n  }},\n"
    ));
    json.push_str("  \"vm_profiling\": {\n");
    json.push_str(&format!(
        "    \"vm_spin\": {{\"iters\": {SPIN_ITERS}, \"best\": {:.0}, \"mean\": {:.0}}},\n",
        spin_off.best_events_per_sec, spin_off.mean_events_per_sec
    ));
    json.push_str(&format!(
        "    \"vm_spin_profiled\": {{\"iters\": {SPIN_ITERS}, \"best\": {:.0}, \"mean\": {:.0}}},\n",
        spin_on.best_events_per_sec, spin_on.mean_events_per_sec
    ));
    json.push_str(&format!(
        "    \"enabled_overhead_frac\": {vm_overhead_frac:.4},\n"
    ));
    json.push_str(&format!(
        "    \"vm_spin_legacy\": {{\"iters\": {SPIN_ITERS}, \"best\": {:.0}, \"mean\": {:.0}}},\n",
        spin_legacy.best_events_per_sec, spin_legacy.mean_events_per_sec
    ));
    json.push_str(&format!(
        "    \"vm_spin_unfused\": {{\"iters\": {SPIN_ITERS}, \"best\": {:.0}, \"mean\": {:.0}}},\n",
        spin_unfused.best_events_per_sec, spin_unfused.mean_events_per_sec
    ));
    json.push_str(&format!(
        "    \"speedup_vs_legacy_x\": {speedup_vs_legacy:.2},\n"
    ));
    json.push_str(&format!(
        "    \"fused_coverage_frac\": {:.4},\n",
        fusion_probe.coverage()
    ));
    json.push_str(&format!(
        "    \"decode_cache\": {{\"decodes\": {}, \"hits\": {}, \"invalidations\": {}}}\n  }}\n}}\n",
        fusion_probe.stats.decodes, fusion_probe.stats.hits, fusion_probe.stats.invalidations
    ));

    for s in shots.iter().chain([
        &traced,
        &flight_off,
        &flight_on,
        &spin_off,
        &spin_on,
        &spin_legacy,
        &spin_unfused,
    ]) {
        println!(
            "{:<16} {:>10} events   best {:>12.0} ev/s   mean {:>12.0} ev/s",
            s.name, s.events, s.best_events_per_sec, s.mean_events_per_sec
        );
    }
    println!("tracing on fan_out: throughput ratio {traced_ratio:.2}, overhead {overhead_x:.2}x");
    println!(
        "vm profiling enabled overhead on vm_spin: {:.1}%",
        vm_overhead_frac * 100.0
    );
    println!(
        "vm dispatch: {speedup_vs_legacy:.2}x vs legacy, fused coverage {:.1}%, decode cache {}/{} hits/decodes ({} invalidations)",
        fusion_probe.coverage() * 100.0,
        fusion_probe.stats.hits,
        fusion_probe.stats.decodes,
        fusion_probe.stats.invalidations
    );
    std::fs::write(&out_path, json).expect("write BENCH_sim.json");
    println!("wrote {out_path}");
}
