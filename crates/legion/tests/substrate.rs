//! End-to-end substrate scenarios: instance creation, remote invocation,
//! whole-executable evolution, migration, and the stale-binding discovery
//! costs the paper reports in §4.

use dcdo_sim::{SimDuration, SimTime, SpanKind};
use dcdo_types::{ClassId, ObjectId};
use dcdo_vm::{FunctionBuilder, Value};
use legion_substrate::class::{
    CheckpointDone, CheckpointInstance, ClassObject, CreateInstance, EvolveInstance,
    InstanceCreated, LifecycleDone, ListInstances, MigrateInstance, ReactivateInstance,
    SetCurrentImage,
};
use legion_substrate::harness::{Class, Testbed};
use legion_substrate::monolithic::{ExecutableImage, QueryVersion, VersionReport};
use legion_substrate::{ControlOp, InvocationFault, ReplyPayload};

fn adder_image(version: u32, extra_functions: usize, size_bytes: u64) -> ExecutableImage {
    let mut functions = vec![
        FunctionBuilder::parse("add(int, int) -> int")
            .expect("signature")
            .load_arg(0)
            .load_arg(1)
            .add()
            .ret()
            .build()
            .expect("valid"),
        FunctionBuilder::parse("scale(int) -> int")
            .expect("signature")
            .load_arg(0)
            .push_int(version as i64)
            .mul()
            .ret()
            .build()
            .expect("valid"),
        {
            // bump() = count := (count is unset ? 0 : count) + 1
            let mut b = FunctionBuilder::parse("bump() -> int").expect("signature");
            let has_value = b.new_label();
            b.global_get("count")
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
            b.build().expect("valid")
        },
    ];
    for i in 0..extra_functions {
        functions.push(
            FunctionBuilder::parse(&format!("filler_{i}() -> unit"))
                .expect("signature")
                .ret()
                .build()
                .expect("valid"),
        );
    }
    ExecutableImage::new(version, functions, size_bytes)
}

/// Builds a testbed with one class object managing `adder` images.
fn setup(seed: u64) -> (Testbed, Class) {
    let mut bed = Testbed::centurion(seed);
    let class = Class::spawn(&mut bed, adder_image(1, 0, 550_000));
    (bed, class)
}

fn create_instance(bed: &mut Testbed, class: Class, node: u32) -> ObjectId {
    let node = bed.nodes[node as usize];
    class.create(bed, node)
}

#[test]
fn create_and_invoke_across_the_network() {
    let (mut bed, class) = setup(1);
    let instance = create_instance(&mut bed, class, 3);
    let (_, client) = bed.spawn_client(bed.nodes[7]);
    let completion = bed.call_and_wait(
        client,
        instance,
        "add",
        vec![Value::Int(20), Value::Int(22)],
    );
    let value = completion
        .result
        .expect("invocation succeeds")
        .into_value()
        .expect("user-level reply");
    assert_eq!(value, Value::Int(42));
    // Remote roundtrip is milliseconds, not seconds.
    assert!(completion.elapsed < SimDuration::from_millis(100));
    assert_eq!(completion.rebinds, 0);
}

#[test]
fn creation_cost_matches_paper_calibration() {
    let (mut bed, class) = setup(2);
    let node = bed.nodes[1];
    // First creation pays executable download (550 KB ~ 4s) + spawn.
    let completion = class.control(&mut bed, ControlOp::new(CreateInstance { node }));
    assert!(completion.result.is_ok());
    let first = completion.elapsed.as_secs_f64();
    assert!((3.5..=6.5).contains(&first), "first creation {first}s");

    // Second creation on the same node: executable cached, only spawn cost.
    let completion = class.control(&mut bed, ControlOp::new(CreateInstance { node }));
    let second = completion.elapsed.as_secs_f64();
    assert!(second < 0.5, "cached creation {second}s");
}

#[test]
fn invocations_mutate_persistent_state() {
    let (mut bed, class) = setup(3);
    let instance = create_instance(&mut bed, class, 2);
    let (_, client) = bed.spawn_client(bed.nodes[4]);
    for expected in 1..=3 {
        let completion = bed.call_and_wait(client, instance, "bump", vec![]);
        let value = completion
            .result
            .expect("invocation succeeds")
            .into_value()
            .expect("value");
        assert_eq!(value, Value::Int(expected));
    }
}

#[test]
fn unknown_function_is_reported_to_the_client() {
    let (mut bed, class) = setup(4);
    let instance = create_instance(&mut bed, class, 1);
    let (_, client) = bed.spawn_client(bed.nodes[0]);
    let completion = bed.call_and_wait(client, instance, "missing", vec![]);
    assert!(matches!(
        completion.result,
        Err(InvocationFault::NoSuchFunction(_))
    ));
}

#[test]
fn evolution_replaces_executable_and_preserves_state() {
    let (mut bed, class) = setup(5);
    let instance = create_instance(&mut bed, class, 2);
    let (_, client) = bed.spawn_client(bed.nodes[5]);

    // Accumulate some state, then evolve.
    for _ in 0..5 {
        bed.call_and_wait(client, instance, "bump", vec![]);
    }
    let completion = class.replace(&mut bed, instance, adder_image(2, 0, 5_100_000));
    let payload = completion.result.expect("evolution succeeds");
    let done = payload
        .control_as::<LifecycleDone>()
        .expect("lifecycle-done");
    assert_eq!(done.version, 2);
    // Full monolithic pipeline: capture + 5.1MB download (~22s) + process
    // creation + restore. Paper band for the download alone is 15-25s.
    let total = completion.elapsed.as_secs_f64();
    assert!((15.0..=35.0).contains(&total), "evolution took {total}s");

    // New version answers with the new behavior...
    let mut fresh_client = bed.spawn_client(bed.nodes[6]).1;
    let scaled = bed
        .call_and_wait(fresh_client, instance, "scale", vec![Value::Int(10)])
        .result
        .expect("invocation succeeds")
        .into_value()
        .expect("value");
    assert_eq!(scaled, Value::Int(20), "scale uses the v2 multiplier");
    // ...and the state survived the evolution.
    fresh_client = bed.spawn_client(bed.nodes[6]).1;
    let count = bed
        .call_and_wait(fresh_client, instance, "bump", vec![])
        .result
        .expect("invocation succeeds")
        .into_value()
        .expect("value");
    assert_eq!(
        count,
        Value::Int(6),
        "counter continued from captured state"
    );
}

#[test]
fn stale_binding_discovery_takes_25_to_35_seconds() {
    let (mut bed, class) = setup(6);
    let instance = create_instance(&mut bed, class, 2);
    let (_, client) = bed.spawn_client(bed.nodes[9]);

    // Prime the client's binding cache with a successful call.
    let completion = bed.call_and_wait(client, instance, "add", vec![Value::Int(1), Value::Int(1)]);
    assert!(completion.result.is_ok());
    assert!(completion.rebinds == 0);

    // Evolve the instance: the old process dies, the binding changes.
    let done = class.replace(&mut bed, instance, adder_image(3, 0, 550_000));
    assert!(done.result.is_ok());

    // The client still holds the stale address; its next call must ride
    // through timeouts and a rebind.
    bed.sim.spans_mut().enable();
    let issued = bed.sim.now();
    let completion = bed.call_and_wait(client, instance, "add", vec![Value::Int(2), Value::Int(2)]);
    let value = completion
        .result
        .expect("eventually succeeds")
        .into_value()
        .expect("value");
    assert_eq!(value, Value::Int(4));
    assert_eq!(completion.rebinds, 1);
    let discovery = completion.elapsed.as_secs_f64();
    assert!(
        (25.0..=40.0).contains(&discovery),
        "stale-binding discovery took {discovery}s (paper: 25-35s before rebind)"
    );
    // The pre-rebind discovery window ends at the call's
    // `BindingInvalidated` span.
    let invalidated = bed
        .sim
        .spans()
        .events()
        .iter()
        .find(|e| matches!(e.kind, SpanKind::BindingInvalidated { .. }))
        .expect("discovery traced");
    let observed = SimTime::from_nanos(invalidated.at_ns)
        .duration_since(issued)
        .as_secs_f64();
    assert!(
        (25.0..=35.0).contains(&observed),
        "discovery window {observed}s"
    );
}

#[test]
fn migration_moves_an_instance_between_hosts() {
    let (mut bed, class) = setup(7);
    let instance = create_instance(&mut bed, class, 1);
    let (_, client) = bed.spawn_client(bed.nodes[0]);
    for _ in 0..3 {
        bed.call_and_wait(client, instance, "bump", vec![]);
    }
    let completion = bed.control_and_wait(
        client,
        class.object,
        ControlOp::new(MigrateInstance {
            object: instance,
            to: bed.nodes[8],
        }),
    );
    let payload = completion.result.expect("migration succeeds");
    assert!(payload.control_as::<LifecycleDone>().is_some());

    // Instance table reflects the new placement.
    let listing = bed.control_and_wait(client, class.object, ControlOp::new(ListInstances));
    let payload = listing.result.expect("list succeeds");
    let table = payload
        .control_as::<legion_substrate::class::InstanceTable>()
        .expect("instance table");
    assert_eq!(table.entries.len(), 1);
    assert_eq!(table.entries[0].1, bed.nodes[8]);

    // State survived the migration (a fresh client avoids the stale path).
    let (_, fresh) = bed.spawn_client(bed.nodes[3]);
    let count = bed
        .call_and_wait(fresh, instance, "bump", vec![])
        .result
        .expect("invocation succeeds")
        .into_value()
        .expect("value");
    assert_eq!(count, Value::Int(4));
}

#[test]
fn version_query_reports_running_image() {
    let (mut bed, class) = setup(8);
    let instance = create_instance(&mut bed, class, 1);
    let (_, client) = bed.spawn_client(bed.nodes[2]);
    let completion = bed.control_and_wait(client, instance, ControlOp::new(QueryVersion));
    let payload = completion.result.expect("query succeeds");
    let report = payload
        .control_as::<VersionReport>()
        .expect("version report");
    assert_eq!(report.version, 1);
    assert_eq!(report.functions, 3);
}

#[test]
fn replies_use_reply_payload_helpers() {
    let (mut bed, class) = setup(9);
    let instance = create_instance(&mut bed, class, 1);
    let (_, client) = bed.spawn_client(bed.nodes[2]);
    let completion = bed.call_and_wait(client, instance, "add", vec![Value::Int(1), Value::Int(2)]);
    let payload = completion.result.expect("ok");
    match &payload {
        ReplyPayload::Value(v) => assert_eq!(*v, Value::Int(3)),
        ReplyPayload::Control(_) => panic!("expected a value reply"),
    }
    assert!(payload.control_as::<VersionReport>().is_none());
}

#[test]
fn evolution_can_park_state_in_the_vault() {
    // Same evolution pipeline, but the class object is configured to park
    // captured state in the vault between the old and new processes.
    let mut bed = Testbed::centurion(10);
    let class_object = bed.fresh_object_id();
    let vault_object = bed.vault_object;
    let class = ClassObject::new(
        class_object,
        ClassId::from_raw(1),
        adder_image(1, 0, 550_000),
        bed.cost.clone(),
        bed.agent,
    )
    .with_vault(vault_object);
    let actor = bed.sim.spawn(bed.nodes[0], class);
    bed.register(class_object, actor);

    let (_, client) = bed.spawn_client(bed.nodes[0]);
    let created = bed.control_and_wait(
        client,
        class_object,
        ControlOp::new(CreateInstance { node: bed.nodes[2] }),
    );
    let instance = created
        .result
        .expect("creation succeeds")
        .control_as::<InstanceCreated>()
        .expect("reply")
        .object;
    for _ in 0..3 {
        bed.call_and_wait(client, instance, "bump", vec![])
            .result
            .expect("bump");
    }

    bed.control_and_wait(
        client,
        class_object,
        ControlOp::new(SetCurrentImage {
            image: adder_image(2, 0, 550_000),
        }),
    )
    .result
    .expect("image set");
    let done = bed.control_and_wait(
        client,
        class_object,
        ControlOp::new(EvolveInstance { object: instance }),
    );
    assert!(done.result.is_ok());

    // The vault served a save and a load, and still holds the parked blob.
    assert!(bed.sim.metrics().counter("vault.saves") >= 1);
    assert!(bed.sim.metrics().counter("vault.loads") >= 1);
    let vault_ref = bed
        .sim
        .actor::<legion_substrate::vault::Vault>(bed.vault)
        .expect("vault alive");
    assert!(vault_ref.stored_state(instance).is_some());

    // State survived the vault round-trip.
    let (_, fresh) = bed.spawn_client(bed.nodes[5]);
    let count = bed
        .call_and_wait(fresh, instance, "bump", vec![])
        .result
        .expect("bump")
        .into_value()
        .expect("value");
    assert_eq!(count, Value::Int(4));
}

#[test]
fn crashed_instance_reactivates_from_vault_snapshot() {
    // Checkpoint an instance into the vault, crash its host, then bring it
    // back with ReactivateInstance: a fresh process is spawned, the parked
    // state restored, the binding re-registered — and a client that still
    // holds the dead address recovers through the stale-binding path.
    let mut bed = Testbed::centurion(11);
    let class_object = bed.fresh_object_id();
    let class = ClassObject::new(
        class_object,
        ClassId::from_raw(1),
        adder_image(1, 0, 550_000),
        bed.cost.clone(),
        bed.agent,
    )
    .with_vault(bed.vault_object);
    let class_actor = bed.sim.spawn(bed.nodes[0], class);
    bed.register(class_object, class_actor);

    let (_, client) = bed.spawn_client(bed.nodes[1]);
    let created = bed.control_and_wait(
        client,
        class_object,
        ControlOp::new(CreateInstance { node: bed.nodes[3] }),
    );
    let instance = created
        .result
        .expect("creation succeeds")
        .control_as::<InstanceCreated>()
        .expect("reply")
        .object;
    for _ in 0..3 {
        bed.call_and_wait(client, instance, "bump", vec![])
            .result
            .expect("bump");
    }

    let ck = bed.control_and_wait(
        client,
        class_object,
        ControlOp::new(CheckpointInstance { object: instance }),
    );
    assert!(ck
        .result
        .expect("checkpoint succeeds")
        .control_as::<CheckpointDone>()
        .is_some());

    // The host dies. Its actors are gone, its executables are gone, and
    // the authoritative bindings to it are invalidated.
    let dead = bed.sim.actors_on(bed.nodes[3]);
    bed.sim.crash_node(bed.nodes[3]);
    bed.sim
        .actor_mut::<legion_substrate::binding::BindingAgent>(bed.agent.actor)
        .expect("agent alive")
        .invalidate_addresses(&dead);
    bed.sim
        .actor_mut::<ClassObject>(class_actor)
        .expect("class alive")
        .forget_downloads(bed.nodes[3]);
    bed.sim.restart_node(bed.nodes[3]);

    let (_, operator) = bed.spawn_client(bed.nodes[2]);
    let done = bed.control_and_wait(
        operator,
        class_object,
        ControlOp::new(ReactivateInstance {
            object: instance,
            node: bed.nodes[3],
        }),
    );
    let done = done
        .result
        .expect("reactivation succeeds")
        .control_as::<LifecycleDone>()
        .expect("lifecycle-done reply")
        .clone();
    assert_eq!(done.object, instance);
    assert!(
        !dead.contains(&done.address),
        "the revived process must be a fresh actor"
    );

    // A fresh client sees the checkpointed state.
    let (_, fresh) = bed.spawn_client(bed.nodes[5]);
    let count = bed
        .call_and_wait(fresh, instance, "bump", vec![])
        .result
        .expect("bump after reactivation")
        .into_value()
        .expect("value");
    assert_eq!(count, Value::Int(4), "three bumps survived the crash");

    // The original client still holds the dead address; its next call pays
    // the stale-binding discovery and then lands on the revived process.
    let c = bed.call_and_wait(client, instance, "bump", vec![]);
    assert_eq!(
        c.result.expect("recovers").into_value().expect("value"),
        Value::Int(5)
    );
    assert!(c.rebinds >= 1, "client rebound after the crash");
    // The node restarted immediately, so sends to the dead process land as
    // dead letters (the crash/queue sweep is covered by node_crashes).
    assert_eq!(bed.sim.node_crashes().len(), 1);
    assert!(bed.sim.dead_letters() >= 1);
}
