//! Shared scenario builders for the experiments.

use dcdo_core::ops::VersionConfigOp;
use dcdo_types::VersionId;
use dcdo_vm::{CodeBlock, ComponentBinary, ComponentBuilder, FunctionBuilder};
use dcdo_workloads::{ComponentSuite, SuiteSpec};
use dcdo_workloads::{Fleet, Strategy};

/// A `name() -> int` that performs `k` dynamic calls to `callee` and
/// returns their sum (each callee returns 1, so the result is `k`).
pub fn chain_code(name: &str, callee: &str, k: usize) -> CodeBlock {
    let mut b = FunctionBuilder::parse(&format!("{name}() -> int")).expect("signature");
    b.push_int(0);
    for _ in 0..k {
        b.call_dyn(callee, 0).add();
    }
    b.ret();
    b.build().expect("valid chain")
}

/// The E1 components: `bench-a` holds `leaf` plus intra-component chains;
/// `bench-b` holds a cross-component chain calling `leaf` in `bench-a`.
pub fn bench_components(k: usize) -> Vec<ComponentBinary> {
    let a = ComponentBuilder::new(dcdo_types::ComponentId::from_raw(201), "bench-a")
        .exported("leaf() -> int", |b| b.push_int(1).ret())
        .expect("leaf")
        .exported_fn(chain_code("chain0", "leaf", 0))
        .exported_fn(chain_code("self_chain", "leaf", k))
        .build()
        .expect("valid bench-a");
    let b = ComponentBuilder::new(dcdo_types::ComponentId::from_raw(202), "bench-b")
        .exported_fn(chain_code("cross_chain", "leaf", k))
        .build()
        .expect("valid bench-b");
    vec![a, b]
}

/// Builds a fleet whose current version incorporates (and fully enables)
/// the given components.
pub fn fleet_with_components(
    components: &[ComponentBinary],
    strategy: Strategy,
    seed: u64,
) -> (Fleet, VersionId) {
    let mut fleet = Fleet::new(strategy, seed);
    let mut steps = Vec::new();
    for (i, comp) in components.iter().enumerate() {
        let ico = fleet.publish_component(comp, 1 + i);
        steps.push(VersionConfigOp::IncorporateComponent { ico });
    }
    // Enable dependency targets before their sources, or enabling a source
    // would be refused while its target is still disabled.
    let mut enables: Vec<(dcdo_types::FunctionName, dcdo_types::ComponentId)> = components
        .iter()
        .flat_map(|c| c.functions().iter().map(|f| (f.name().clone(), c.id())))
        .collect();
    let targets: std::collections::HashSet<dcdo_types::FunctionName> = components
        .iter()
        .flat_map(|c| {
            c.dependencies()
                .iter()
                .map(|d| d.target().function().clone())
        })
        .collect();
    enables.sort_by_key(|(f, _)| !targets.contains(f));
    for (function, component) in enables {
        steps.push(VersionConfigOp::EnableFunction {
            function,
            component,
        });
    }
    let root = VersionId::root();
    let v = fleet.build_version(&root, steps);
    fleet.set_current(&v);
    (fleet, v)
}

/// Builds a fleet around a generated [`ComponentSuite`].
pub fn fleet_with_suite(spec: &SuiteSpec, strategy: Strategy, seed: u64) -> (Fleet, VersionId) {
    let suite = ComponentSuite::generate(spec);
    fleet_with_components(suite.components(), strategy, seed)
}
