//! Pins every `ClassObject` pipeline: create (cold and warm), set image,
//! evolve, migrate, checkpoint, crash-and-reactivate, and a refused
//! evolve, with and without a vault, at two seeds. Each run renders the
//! outcome and exact simulated duration of every step, the sorted metric
//! counters, the engine's event count and the span digest; the rendering
//! must equal the constant below byte for byte.

use dcdo_sim::SimDuration;
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
/// driver client, both on node 0.
fn stand_up(bed: &mut Testbed, vault: bool) -> (ObjectId, dcdo_sim::ActorId, dcdo_sim::ActorId) {
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

fn run(vault: bool, seed: u64) -> String {
    let mut bed = Testbed::centurion(seed);
    bed.sim.spans_mut().enable();
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
    let metrics = bed.sim.metrics();
    let counters: Vec<String> = metrics
        .counters()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    writeln!(out, "counters {}", counters.join(" ")).expect("write");
    writeln!(out, "events {}", bed.sim.events_processed()).expect("write");
    writeln!(out, "spans {:016x}", bed.sim.spans().digest()).expect("write");
    out
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
        .map(|(vault, seed)| run(vault, seed))
        .collect();
    assert_eq!(got, PINNED, "\n{got}");
}

/// Captured before the pipelines became a declared plan table. The vault
/// rows moved once, by -1.2 ms per restore, when a vault-backed restore
/// stopped being charged for a 4096-byte placeholder instead of the state
/// it loads.
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
counters binding.queries=3 binding.registered=4 class.executable_downloads=3 class.processes_created=4 rpc.completed=21 rpc.faulted=3 sim.node_crashes=1 sim.node_restarts=1 sim.timers_cancelled_by_crash=0
events 66
spans 8da424400b7c0efe
vault=false seed=42
create-cold ok 4306203496
create-warm ok 208080000
set-image ok 40000
evolve ok 4308844925
migrate ok 4308853906
checkpoint refused 40000
reactivate refused 40000
evolve-unknown refused 40000
counters binding.queries=3 binding.registered=4 class.executable_downloads=3 class.processes_created=4 rpc.completed=21 rpc.faulted=3 sim.node_crashes=1 sim.node_restarts=1 sim.timers_cancelled_by_crash=0
events 66
spans 28a14bf6f82f829d
vault=true seed=3
create-cold ok 4306203496
create-warm ok 208080000
set-image ok 40000
evolve ok 4308977073
migrate ok 4308860904
checkpoint ok 1089182
reactivate ok 4307237557
evolve-unknown refused 40000
counters binding.queries=4 binding.registered=5 class.executable_downloads=4 class.processes_created=5 class.reactivations_started=1 rpc.completed=30 rpc.faulted=1 sim.node_crashes=1 sim.node_restarts=1 sim.timers_cancelled_by_crash=0 vault.loads=3 vault.saves=3
events 92
spans fafb093db67ce907
vault=true seed=42
create-cold ok 4306203496
create-warm ok 208080000
set-image ok 40000
evolve ok 4308979708
migrate ok 4308951321
checkpoint ok 1105631
reactivate ok 4307204788
evolve-unknown refused 40000
counters binding.queries=4 binding.registered=5 class.executable_downloads=4 class.processes_created=5 class.reactivations_started=1 rpc.completed=30 rpc.faulted=1 sim.node_crashes=1 sim.node_restarts=1 sim.timers_cancelled_by_crash=0 vault.loads=3 vault.saves=3
events 92
spans d641ceb652fa053b
";
