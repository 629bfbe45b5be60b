//! Rolling upgrade of a DCDO fleet under the paper's update policies.
//!
//! ```text
//! cargo run --release --example rolling_upgrade
//! ```
//!
//! Creates a 12-instance counter fleet under each §3.4 strategy, rolls out
//! a new version, and compares convergence, staleness, and message
//! overhead — the trade-off space the paper describes for proactive vs
//! explicit vs lazy update policies.

use dcdo::core::ops::VersionConfigOp;
use dcdo::sim::SimDuration;
use dcdo::types::{ComponentId, VersionId};
use dcdo::vm::ComponentBuilder;
use dcdo::workloads::{Fleet, Strategy};

fn tick(id: u64, amount: i64) -> dcdo::vm::ComponentBinary {
    ComponentBuilder::new(ComponentId::from_raw(id), format!("tick-{amount}"))
        .exported("tick() -> int", move |b| b.push_int(amount).ret())
        .expect("tick assembles")
        .build()
        .expect("component validates")
}

fn main() {
    println!(
        "{:<14} {:>9} {:>16} {:>14} {:>10} {:>12}",
        "strategy", "converged", "all updated", "staleness", "messages", "lazy checks"
    );
    for strategy in [
        Strategy::SingleVersionProactive,
        Strategy::SingleVersionExplicit,
        Strategy::SingleVersionLazyEveryCall,
        Strategy::SingleVersionLazyEveryK(4),
        Strategy::MultiNoUpdate,
    ] {
        let mut fleet = Fleet::new(strategy, 23);
        // Version 1.1: tick() -> 1.
        let base = tick(1, 1);
        let ico = fleet.publish_component(&base, 1);
        let root = VersionId::root();
        let v1 = fleet.build_version(
            &root,
            vec![
                VersionConfigOp::IncorporateComponent { ico },
                VersionConfigOp::EnableFunction {
                    function: "tick".into(),
                    component: ComponentId::from_raw(1),
                },
            ],
        );
        fleet.set_current(&v1);
        fleet.create_instances(12);

        // Roll out version 1.1.1: tick() -> 10.
        let next = tick(2, 10);
        let ico = fleet.publish_component(&next, 2);
        let v2 = fleet.build_version(
            &v1,
            vec![
                VersionConfigOp::IncorporateComponent { ico },
                VersionConfigOp::EnableFunction {
                    function: "tick".into(),
                    component: ComponentId::from_raw(2),
                },
            ],
        );
        let lazy = strategy.lazy_check() != dcdo::core::ops::LazyCheck::Never;
        let report = fleet.measure_rollout_with_traffic(
            &v2,
            SimDuration::from_secs(60),
            SimDuration::from_millis(500),
            lazy.then_some("tick"),
        );
        println!(
            "{:<14} {:>8.0}% {:>16} {:>14} {:>10} {:>12}",
            strategy.name(),
            report.converged_fraction() * 100.0,
            report
                .all_converged_after
                .map(|d| format!("{d}"))
                .unwrap_or_else(|| "-".into()),
            report
                .mean_staleness_secs()
                .map(|s| format!("{s:.2}s"))
                .unwrap_or_else(|| "-".into()),
            report.messages_sent,
            report.version_checks,
        );
    }
    println!();
    println!(
        "proactive/lazy-per-call converge within one sampling slice; explicit \
         needs an external driver; no-update (by design) never converges — \
         old instances keep running their version"
    );
}
