//! Shared scenario builders for the experiments.

use dcdo_core::ops::VersionConfigOp;
use dcdo_sim::NodeId;
use dcdo_types::{ClassId, ObjectId, VersionId};
use dcdo_vm::{CodeBlock, ComponentBinary, ComponentBuilder, FunctionBuilder};
use dcdo_workloads::{ComponentSuite, SuiteSpec};
use dcdo_workloads::{Fleet, Strategy};
use legion_substrate::class::{ClassObject, CreateInstance, InstanceCreated};
use legion_substrate::harness::Testbed;
use legion_substrate::monolithic::ExecutableImage;
use legion_substrate::ControlOp;

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

/// Spawns a monolithic class object into a testbed and returns its object
/// identity.
pub fn spawn_class(bed: &mut Testbed, class_id: u64, image: ExecutableImage) -> ObjectId {
    let class_obj = bed.fresh_object_id();
    let class = ClassObject::new(
        class_obj,
        ClassId::from_raw(class_id),
        image,
        bed.cost.clone(),
        bed.agent,
    );
    let actor = bed.sim.spawn(bed.nodes[0], class);
    bed.register(class_obj, actor);
    class_obj
}

/// Creates a monolithic instance on `node`, returning its identity.
pub fn create_monolithic(
    bed: &mut Testbed,
    admin: dcdo_sim::ActorId,
    class_obj: ObjectId,
    node: NodeId,
) -> ObjectId {
    let completion =
        bed.control_and_wait(admin, class_obj, ControlOp::new(CreateInstance { node }));
    completion
        .result
        .expect("monolithic creation succeeds")
        .control_as::<InstanceCreated>()
        .expect("instance-created reply")
        .object
}

/// An executable image exposing the same functions as a component suite
/// (the monolithic baseline of the creation experiment).
pub fn suite_image(spec: &SuiteSpec, version: u32, size_bytes: u64) -> ExecutableImage {
    let suite = ComponentSuite::generate(spec);
    let functions: Vec<CodeBlock> = suite
        .components()
        .iter()
        .flat_map(|c| c.functions().iter().map(|f| f.code().clone()))
        .collect();
    ExecutableImage::new(version, functions, size_bytes)
}

/// Measures mean round-trip latency of `n` sequential invocations from a
/// fresh client on `client_node`.
pub fn mean_latency_secs(
    fleet: &mut Fleet,
    client_node: usize,
    target: ObjectId,
    function: &str,
    n: usize,
) -> f64 {
    let node = fleet.bed.nodes[client_node % fleet.bed.nodes.len()];
    let (_, client) = fleet.bed.spawn_client(node);
    // Warm-up call: pays the one-time binding query so it does not skew
    // the mean.
    fleet
        .bed
        .call_and_wait(client, target, function, vec![])
        .result
        .expect("warm-up call succeeds");
    let mut total = 0.0;
    for _ in 0..n {
        let completion = fleet.bed.call_and_wait(client, target, function, vec![]);
        let payload = completion.result.expect("bench call succeeds");
        let _ = payload;
        total += completion.elapsed.as_secs_f64();
    }
    total / n as f64
}
