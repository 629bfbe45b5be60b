//! The four benchmark shapes, generated as `.scn` text from a seed and a
//! scale.
//!
//! The repo benchmark times these shapes, the shape-pin test counts their
//! allocations, and the post-run sweep's oracle test runs them small. The
//! program under test receives only the generated text: the seed reaches
//! it through the `seed` line, exactly as a `dcdo-inspect scenario
//! file.scn` user would supply it.

use crate::registry::{MIXED_TRAFFIC, ROLLING_UPGRADE_COORD_CRASH};

/// Every shape, in the order the benchmark's `--workload all` runs them.
pub const NAMES: [&str; 4] = [
    "calls_steady",
    "reconfig_churn",
    "mixed_traffic_x50",
    "upgrade_crash_long",
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

/// Generates shape `name`'s scenario text for `seed`. `scale` multiplies
/// the run window (ticks or simulated seconds); the benchmark proper runs
/// at 1. `None` for an unknown name.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shape_parses_at_any_scale_and_no_other_name_exists() {
        for name in NAMES {
            for scale in [0.01, 0.1, 1.0] {
                let text = generate(name, 7, scale).expect("a named shape");
                let scenario = crate::Scenario::from_text(&text).expect("a shape parses");
                assert_eq!(scenario.name, name);
                assert_eq!(scenario.seed, 7);
            }
        }
        assert_eq!(generate("nope", 7, 1.0), None);
    }
}
