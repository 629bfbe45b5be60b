//! E7: update-propagation policy ablation — convergence time, staleness,
//! and overhead vs fleet size for the §3.4 policies.

use dcdo_core::ops::VersionConfigOp;
use dcdo_sim::SimDuration;
use dcdo_types::{ComponentId, VersionId};
use dcdo_vm::{ComponentBinary, ComponentBuilder};
use dcdo_workloads::{Fleet, Strategy};

use crate::table::{secs, Table};

fn tick_component(id: u64, amount: i64) -> ComponentBinary {
    ComponentBuilder::new(ComponentId::from_raw(id), format!("tick-{amount}"))
        .exported("tick() -> int", move |b| b.push_int(amount).ret())
        .expect("tick")
        .build()
        .expect("valid")
}

fn base_version(fleet: &mut Fleet) -> VersionId {
    let comp = tick_component(1, 1);
    let ico = fleet.publish_component(&comp, 1);
    let root = VersionId::root();
    let v = fleet.build_version(
        &root,
        vec![
            VersionConfigOp::IncorporateComponent { ico },
            VersionConfigOp::EnableFunction {
                function: "tick".into(),
                component: ComponentId::from_raw(1),
            },
        ],
    );
    fleet.set_current(&v);
    v
}

fn next_version(fleet: &mut Fleet, from: &VersionId) -> VersionId {
    let comp = tick_component(2, 10);
    let ico = fleet.publish_component(&comp, 2);
    fleet.build_version(
        from,
        vec![
            VersionConfigOp::IncorporateComponent { ico },
            VersionConfigOp::EnableFunction {
                function: "tick".into(),
                component: ComponentId::from_raw(2),
            },
        ],
    )
}

/// E7: rollout behavior per strategy and fleet size.
pub fn e7(seed: u64, sizes: &[usize]) -> Table {
    let mut t = Table::new(
        "E7",
        "Update propagation: policy x fleet size",
        "the proactive strategy allows a DCDO to be out of date only briefly but \
         does not scale well with the number of DCDOs managed by a particular \
         DCDO Manager; lazy strategies trade staleness for overhead (§3.4)",
        &[
            "strategy",
            "instances",
            "converged",
            "all updated after",
            "mean staleness",
            "messages",
            "lazy checks",
        ],
    );
    let strategies = [
        Strategy::SingleVersionProactive,
        Strategy::SingleVersionExplicit,
        Strategy::SingleVersionLazyEveryCall,
        Strategy::SingleVersionLazyEveryK(8),
    ];
    for (si, strategy) in strategies.iter().enumerate() {
        for &n in sizes {
            let mut fleet = Fleet::new(*strategy, seed + (si * 1000 + n) as u64);
            let v1 = base_version(&mut fleet);
            fleet.create_instances(n);
            let v2 = next_version(&mut fleet, &v1);
            let needs_traffic = strategy.lazy_check() != dcdo_core::ops::LazyCheck::Never;
            let report = fleet.measure_rollout_with_traffic(
                &v2,
                SimDuration::from_secs(120),
                SimDuration::from_millis(500),
                needs_traffic.then_some("tick"),
            );
            t.row(vec![
                strategy.name(),
                format!("{n}"),
                format!("{:.0}%", report.converged_fraction() * 100.0),
                report
                    .all_converged_after
                    .map(|d| secs(d.as_secs_f64()))
                    .unwrap_or_else(|| "-".into()),
                report
                    .mean_staleness_secs()
                    .map(secs)
                    .unwrap_or_else(|| "-".into()),
                format!("{}", report.messages_sent),
                format!("{}", report.version_checks),
            ]);
        }
    }
    t.verdict(
        "proactive converges fastest but its message count grows linearly with \
         the fleet (the paper's scalability concern); lazy policies pay \
         per-invocation checks instead and converge only under traffic",
    );
    t
}
