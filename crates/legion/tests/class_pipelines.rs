//! Pins every `ClassObject` pipeline: create (cold and warm), set image,
//! evolve, migrate, checkpoint, crash-and-reactivate, and a refused
//! evolve, with and without a vault, at two seeds. Each run renders the
//! outcome and exact simulated duration of every step, the sorted metric
//! counters, the engine's event count and the span digest; the rendering
//! must equal the constant below byte for byte. Every run here is traced,
//! and the trace-invariant checker must find nothing in it.

use dcdo_sim::{check_trace_invariants, FlowKind, NodeId, SimDuration, SpanKind};
use dcdo_types::{ClassId, ObjectId};
use dcdo_vm::{FunctionBuilder, Value};
use legion_substrate::binding::BindingAgent;
use legion_substrate::class::{
    CheckpointInstance, ClassObject, CreateInstance, EvolveInstance, InstanceCreated,
    MigrateInstance, ReactivateInstance, SetCurrentImage,
};
use legion_substrate::harness::Testbed;
use legion_substrate::monolithic::ExecutableImage;
use legion_substrate::ControlOp;
use std::fmt::Write;

/// An image with `bump() -> int` (a counter global) and `keep(str)`
/// (stores its argument as a global).
fn image(version: u32) -> ExecutableImage {
    let mut bump = FunctionBuilder::parse("bump() -> int").expect("signature");
    let has_value = bump.new_label();
    bump.global_get("count")
        .dup()
        .push(())
        .eq()
        .jump_if_false(has_value)
        .pop()
        .push_int(0)
        .bind(has_value)
        .push_int(1)
        .add()
        .dup()
        .global_set("count")
        .ret();
    let keep = FunctionBuilder::parse("keep(str) -> unit")
        .expect("signature")
        .load_arg(0)
        .global_set("blob")
        .push(())
        .ret()
        .build()
        .expect("valid");
    ExecutableImage::new(version, vec![bump.build().expect("valid"), keep], 550_000)
}

/// Spawns a class object (with the testbed's vault when `vault`) and a
/// driver client, both on node 0, and turns span tracing on.
fn stand_up(bed: &mut Testbed, vault: bool) -> (ObjectId, dcdo_sim::ActorId, dcdo_sim::ActorId) {
    bed.sim.spans_mut().enable();
    let object = bed.fresh_object_id();
    let mut class = ClassObject::new(
        object,
        ClassId::from_raw(1),
        image(1),
        bed.cost.clone(),
        bed.agent,
    );
    if vault {
        class = class.with_vault(bed.vault_object);
    }
    let actor = bed.sim.spawn(bed.nodes[0], class);
    bed.register(object, actor);
    let (_, driver) = bed.spawn_client(bed.nodes[0]);
    (object, actor, driver)
}

/// The trace-invariant checker finds nothing in the run's span log.
fn assert_trace_clean(bed: &Testbed) {
    let violations = check_trace_invariants(bed.sim.spans());
    assert!(violations.is_empty(), "trace violations: {violations:?}");
}

/// Drives every pipeline once; returns the testbed and the rendering.
fn run(vault: bool, seed: u64) -> (Testbed, String) {
    let mut bed = Testbed::centurion(seed);
    let (class, class_actor, driver) = stand_up(&mut bed, vault);
    let mut out = format!("vault={vault} seed={seed}\n");
    let mut step = |bed: &mut Testbed, name: &str, op: ControlOp| {
        let c = bed.control_and_wait(driver, class, op);
        let outcome = if c.result.is_ok() { "ok" } else { "refused" };
        writeln!(out, "{name} {outcome} {}", c.elapsed.as_nanos()).expect("write");
        c.result.ok()
    };
    let node = bed.nodes[2];
    let created = step(
        &mut bed,
        "create-cold",
        ControlOp::new(CreateInstance { node }),
    );
    let instance = created
        .expect("created")
        .control_as::<InstanceCreated>()
        .expect("instance-created reply")
        .object;
    step(
        &mut bed,
        "create-warm",
        ControlOp::new(CreateInstance { node }),
    );
    for _ in 0..3 {
        bed.call_and_wait(driver, instance, "bump", vec![])
            .result
            .expect("bump");
    }
    let image = image(2);
    step(
        &mut bed,
        "set-image",
        ControlOp::new(SetCurrentImage { image }),
    );
    let object = instance;
    step(
        &mut bed,
        "evolve",
        ControlOp::new(EvolveInstance { object }),
    );
    let to = bed.nodes[5];
    step(
        &mut bed,
        "migrate",
        ControlOp::new(MigrateInstance { object, to }),
    );
    step(
        &mut bed,
        "checkpoint",
        ControlOp::new(CheckpointInstance { object }),
    );
    let dead = bed.sim.actors_on(to);
    bed.sim.crash_node(to);
    bed.sim
        .actor_mut::<BindingAgent>(bed.agent.actor)
        .expect("agent alive")
        .invalidate_addresses(&dead);
    bed.sim
        .actor_mut::<ClassObject>(class_actor)
        .expect("class alive")
        .forget_downloads(to);
    bed.sim.restart_node(to);
    let reactivate = ReactivateInstance { object, node: to };
    step(&mut bed, "reactivate", ControlOp::new(reactivate));
    let object = ObjectId::from_raw(u64::MAX);
    step(
        &mut bed,
        "evolve-unknown",
        ControlOp::new(EvolveInstance { object }),
    );
    // Every run crashes a node; the engine's own counts come first, as
    // their names sort.
    let sim = &bed.sim;
    let engine = [
        ("sim.node_crashes", sim.node_crashes().len() as u64),
        ("sim.node_restarts", sim.node_restarts()),
        (
            "sim.timers_cancelled_by_crash",
            sim.timers_cancelled_by_crash(),
        ),
    ];
    let counters: Vec<String> = engine
        .into_iter()
        .chain(sim.metrics().counters())
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    writeln!(out, "counters {}", counters.join(" ")).expect("write");
    writeln!(out, "events {}", bed.sim.events_processed()).expect("write");
    writeln!(out, "spans {:016x}", bed.sim.spans().digest()).expect("write");
    assert_trace_clean(&bed);
    (bed, out)
}

/// Evolves an instance holding a 64 KB string global and returns how long
/// the evolve took.
fn evolve_holding_64kb(vault: bool) -> SimDuration {
    let mut bed = Testbed::centurion(7);
    let (class, _, driver) = stand_up(&mut bed, vault);
    let node = bed.nodes[2];
    let instance = bed
        .control_and_wait(driver, class, ControlOp::new(CreateInstance { node }))
        .result
        .expect("created")
        .control_as::<InstanceCreated>()
        .expect("instance-created reply")
        .object;
    let blob = Value::str("x".repeat(64 * 1024));
    bed.call_and_wait(driver, instance, "keep", vec![blob])
        .result
        .expect("keep");
    let image = image(2);
    bed.control_and_wait(driver, class, ControlOp::new(SetCurrentImage { image }))
        .result
        .expect("image set");
    let evolve = ControlOp::new(EvolveInstance { object: instance });
    let done = bed.control_and_wait(driver, class, evolve);
    done.result.expect("evolved");
    assert_trace_clean(&bed);
    done.elapsed
}

/// Parking the state in a vault adds two round trips to an evolve; it must
/// never make the evolve cheaper than holding the state in the class.
#[test]
fn a_vault_never_makes_an_evolve_faster() {
    let (held, parked) = (evolve_holding_64kb(false), evolve_holding_64kb(true));
    assert!(
        parked >= held,
        "with a vault the evolve took {parked}, without one {held}"
    );
}

#[test]
fn class_pipelines_are_pinned() {
    let got: String = [(false, 3), (false, 42), (true, 3), (true, 42)]
        .into_iter()
        .map(|(vault, seed)| run(vault, seed).1)
        .collect();
    assert_eq!(got, PINNED, "\n{got}");
}

/// Per class flow, in start order: its kind, the `FlowStep` codes it left,
/// and whether `FlowCompleted` closed it.
fn walked(bed: &Testbed) -> Vec<(FlowKind, Vec<u32>, bool)> {
    let mut flows: Vec<(u64, FlowKind, Vec<u32>, bool)> = Vec::new();
    for e in bed.sim.spans().events() {
        match e.kind {
            SpanKind::FlowStarted { flow, kind, .. } => flows.push((flow, kind, vec![], false)),
            SpanKind::FlowStep { flow, step } => {
                let f = flows.iter_mut().find(|f| f.0 == flow).expect("started");
                f.2.push(step);
            }
            SpanKind::FlowCompleted { flow } => {
                let f = flows.iter_mut().find(|f| f.0 == flow).expect("started");
                f.3 = true;
            }
            SpanKind::FlowAborted { flow } => panic!("flow {flow} aborted"),
            _ => {}
        }
    }
    flows
        .into_iter()
        .map(|(_, k, s, done)| (k, s, done))
        .collect()
}

// The class-side twin of the manager's `plans_declare_the_observed_step_
// sequences`: step codes read off the span log of the pinned runs (Download
// 9, Spawn 3, Register 4, Capture 0, CaptureCost 10, SaveVault 7,
// Deactivate 1, LoadVault 8, RestoreCost 11, Restore 6).
#[test]
fn class_plans_declare_the_observed_step_sequences() {
    use FlowKind::{ClassCheckpoint, ClassCreate, ClassEvolve, ClassMigrate, ClassReactivate};
    let replace_held = vec![0, 10, 9, 1, 3, 11, 6, 4];
    let replace_parked = vec![0, 10, 7, 9, 1, 3, 8, 11, 6, 4];
    let without_vault = [
        (ClassCreate, vec![9, 3, 4], true),
        (ClassCreate, vec![3, 4], true),
        (ClassEvolve, replace_held.clone(), true),
        (ClassMigrate, replace_held, true),
    ];
    let with_vault = [
        (ClassCreate, vec![9, 3, 4], true),
        (ClassCreate, vec![3, 4], true),
        (ClassEvolve, replace_parked.clone(), true),
        (ClassMigrate, replace_parked, true),
        (ClassCheckpoint, vec![0, 10, 7], true),
        (ClassReactivate, vec![9, 3, 8, 11, 6, 4], true),
    ];
    assert_eq!(walked(&run(false, 3).0), without_vault);
    assert_eq!(walked(&run(true, 3).0), with_vault);
}

/// Creates one instance on node 2 and returns it.
fn create_one(bed: &mut Testbed, class: ObjectId, driver: dcdo_sim::ActorId) -> ObjectId {
    let node = bed.nodes[2];
    bed.control_and_wait(driver, class, ControlOp::new(CreateInstance { node }))
        .result
        .expect("created")
        .control_as::<InstanceCreated>()
        .expect("instance-created reply")
        .object
}

/// The outcome of one control op: `Ok(())` or the refusal's text.
fn outcome(
    bed: &mut Testbed,
    driver: dcdo_sim::ActorId,
    class: ObjectId,
    op: ControlOp,
) -> Result<(), String> {
    bed.control_and_wait(driver, class, op)
        .result
        .map(|_| ())
        .map_err(|fault| fault.to_string())
}

#[test]
fn set_current_image_refuses_a_version_that_is_not_above_the_current_one() {
    let mut bed = Testbed::centurion(5);
    let (class, _, driver) = stand_up(&mut bed, false);
    let set = |bed: &mut Testbed, image| {
        outcome(
            bed,
            driver,
            class,
            ControlOp::new(SetCurrentImage { image }),
        )
    };
    assert_eq!(set(&mut bed, image(2)), Ok(()));
    let stale = "image version 2 is not above the current version 2";
    assert!(set(&mut bed, image(2)).is_err_and(|why| why.contains(stale)));
    let older = "image version 1 is not above the current version 2";
    assert!(set(&mut bed, image(1)).is_err_and(|why| why.contains(older)));
    // New instances still run the image that was current before.
    let node = bed.nodes[3];
    let created = bed
        .control_and_wait(driver, class, ControlOp::new(CreateInstance { node }))
        .result
        .expect("created");
    let version = created
        .control_as::<InstanceCreated>()
        .expect("reply")
        .version;
    assert_eq!(version, 2);
    assert_trace_clean(&bed);
}

/// A node outside the engine's lane space is refused at admission, for
/// each op kind that names a node, and the simulation goes on.
#[test]
fn ops_naming_a_node_outside_the_lane_space_are_refused() {
    let mut bed = Testbed::centurion(5);
    let (class, _, driver) = stand_up(&mut bed, true);
    let object = create_one(&mut bed, class, driver);
    let far = NodeId::from_raw(NodeId::LIMIT);
    let ops = [
        ControlOp::new(CreateInstance { node: far }),
        ControlOp::new(MigrateInstance { object, to: far }),
        ControlOp::new(ReactivateInstance { object, node: far }),
    ];
    for op in ops {
        let refused = outcome(&mut bed, driver, class, op);
        assert!(refused.is_err_and(|why| why.contains("unknown node")));
    }
    let node = bed.nodes[4];
    let migrate = ControlOp::new(MigrateInstance { object, to: node });
    assert_eq!(outcome(&mut bed, driver, class, migrate), Ok(()));
    assert_trace_clean(&bed);
}

/// Captured before the pipelines became a declared plan table. The vault
/// rows moved once, by -1.2 ms per restore, when a vault-backed restore
/// stopped being charged for a 4096-byte placeholder instead of the state
/// it loads. The span digests moved twice, when class operations started
/// leaving flow spans and when an instance's death from its own handler
/// started leaving an `ActorKilled` span (without those spans each log
/// digests to its earlier pin); no step time, counter or event count moved
/// with them.
const PINNED: &str = "\
vault=false seed=3
create-cold ok 4306203496
create-warm ok 208080000
set-image ok 40000
evolve ok 4308859494
migrate ok 4308807762
checkpoint refused 40000
reactivate refused 40000
evolve-unknown refused 40000
counters sim.node_crashes=1 sim.node_restarts=1 sim.timers_cancelled_by_crash=0
events 66
spans b73d29e944851ca2
vault=false seed=42
create-cold ok 4306203496
create-warm ok 208080000
set-image ok 40000
evolve ok 4308844925
migrate ok 4308853906
checkpoint refused 40000
reactivate refused 40000
evolve-unknown refused 40000
counters sim.node_crashes=1 sim.node_restarts=1 sim.timers_cancelled_by_crash=0
events 66
spans c4d1d556b013b24a
vault=true seed=3
create-cold ok 4306203496
create-warm ok 208080000
set-image ok 40000
evolve ok 4308977073
migrate ok 4308860904
checkpoint ok 1089182
reactivate ok 4307237557
evolve-unknown refused 40000
counters sim.node_crashes=1 sim.node_restarts=1 sim.timers_cancelled_by_crash=0 vault.loads=3 vault.saves=3
events 92
spans 9a944fc33a2a523e
vault=true seed=42
create-cold ok 4306203496
create-warm ok 208080000
set-image ok 40000
evolve ok 4308979708
migrate ok 4308951321
checkpoint ok 1105631
reactivate ok 4307204788
evolve-unknown refused 40000
counters sim.node_crashes=1 sim.node_restarts=1 sim.timers_cancelled_by_crash=0 vault.loads=3 vault.saves=3
events 92
spans c76b6725721c3191
";
