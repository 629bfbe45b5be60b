//! The four benchmark workloads, generated as `.scn` text from the seed.
//!
//! The program under test receives only the generated text: the seed
//! reaches it through the `seed` line, exactly as a `dcdo-inspect
//! scenario file.scn` user would supply it.

use dcdo_scenario::registry::{MIXED_TRAFFIC, ROLLING_UPGRADE_COORD_CRASH};

/// One benchmark workload: its name and the reason it is in the set.
pub struct WorkloadSpec {
    /// The name `--workload` takes and `BENCHMARK.json` lists.
    pub name: &'static str,
    /// Which layers this workload loads, and so which changes it can show.
    pub why: &'static str,
}

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "calls_steady",
        why: "reads only: legion RPC and binding, DFM dispatch and the VM with every cache warm; \
              no manager flows, so the linear observation sinks are what is left beside the drive",
    },
    WorkloadSpec {
        name: "reconfig_churn",
        why: "writes: manager flows, generation bumps that invalidate DFM tokens and VM decodes, \
              migrations with stale-binding discovery; the VM does little and tail_sample dominates",
    },
    WorkloadSpec {
        name: "mixed_traffic_x50",
        why: "the declared mixed_traffic scenario (80/15/5, every expectation) at a timeable size: \
              a read-path gain that costs the write path, or the reverse, shows here",
    },
    WorkloadSpec {
        name: "upgrade_crash_long",
        why: "timer-driven, no legion/VM/manager: engine queue, timers, net plan, group epochs, chaos \
              and the per-event sinks do all the work; the only one the parallel engine engages on",
    },
];

const CALLS_STEADY_TICKS: u64 = 60_000;
const RECONFIG_CHURN_TICKS: u64 = 10_000;
const MIXED_TRAFFIC_TICKS: u64 = 20_000;
const UPGRADE_CRASH_SECS: f64 = 240.0;

fn scaled_ticks(base: u64, scale: f64) -> u64 {
    ((base as f64 * scale).round() as u64).max(1)
}

/// Replaces the one occurrence of `from` in a declared scenario text. A
/// declared text that no longer carries the line is a bug in this file, so
/// it panics with the line it looked for.
fn replace_once(text: &str, from: &str, to: &str) -> String {
    assert_eq!(
        text.matches(from).count(),
        1,
        "declared scenario text no longer has exactly one {from:?}"
    );
    text.replacen(from, to, 1)
}

/// Generates workload `name`'s scenario text for `seed`. `scale`
/// multiplies the run window (ticks or simulated seconds); the benchmark
/// proper runs at 1, the self-tests at 0.02. `None` for an unknown name.
pub fn generate(name: &str, seed: u64, scale: f64) -> Option<String> {
    let text = match name {
        "calls_steady" => {
            let ticks = scaled_ticks(CALLS_STEADY_TICKS, scale);
            format!(
                "\
# Reads only: closed-loop incr/get calls against a warm counter service.
scenario calls_steady
seed {seed}
topology legion nodes=16 net=centurion
window ticks={ticks}
workload counter_service home=4
workload calls weight=100
expect trace_invariants
expect no_leaks
expect traffic_flowed
expect counter_equals calls.ok {ticks}
expect counter_equals calls.err 0
"
            )
        }
        "reconfig_churn" => {
            let ticks = scaled_ticks(RECONFIG_CHURN_TICKS, scale);
            format!(
                "\
# Writes: 10/70/20 calls / config-ops / migrations against a live service.
scenario reconfig_churn
seed {seed}
topology legion nodes=16 net=centurion
window ticks={ticks}
workload counter_service home=4
workload calls weight=10
workload config_ops weight=70
workload migrations weight=20 nodes=4+5+6+7
expect trace_invariants
expect no_leaks
expect traffic_flowed
expect counter_at_least calls.ok 1
expect counter_at_least config_ops.ok 1
expect counter_at_least migrations.ok 1
expect counter_equals calls.err 0
expect counter_equals config_ops.err 0
expect counter_equals migrations.err 0
expect mix_converged 0.1
"
            )
        }
        "mixed_traffic_x50" => {
            let ticks = scaled_ticks(MIXED_TRAFFIC_TICKS, scale);
            let text = replace_once(
                MIXED_TRAFFIC,
                "scenario mixed_traffic\n",
                "scenario mixed_traffic_x50\n",
            );
            let text = replace_once(&text, "seed 42\n", &format!("seed {seed}\n"));
            replace_once(
                &text,
                "window ticks=400\n",
                &format!("window ticks={ticks}\n"),
            )
        }
        "upgrade_crash_long" => {
            // Never shorter than the declared 2 s: the wave plan ends at
            // 0.7 s and the scenario expects 500 served calls.
            let secs = format!("{:.3}", (UPGRADE_CRASH_SECS * scale).max(2.0));
            let text = replace_once(
                ROLLING_UPGRADE_COORD_CRASH,
                "scenario rolling_upgrade_coord_crash\n",
                "scenario upgrade_crash_long\n",
            );
            let text = replace_once(&text, "seed 42\n", &format!("seed {seed}\n"));
            let text = replace_once(&text, "window secs=2\n", &format!("window secs={secs}\n"));
            replace_once(&text, " until=2\n", &format!(" until={secs}\n"))
        }
        _ => return None,
    };
    Some(text)
}
