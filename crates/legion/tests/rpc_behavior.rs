//! Focused tests of the client-side RPC machinery: retry/backoff against
//! dead addresses, rebinding via the agent, overall deadlines, and the
//! handling of late/duplicate replies.

use dcdo_sim::{NetConfig, SimDuration};
use dcdo_types::ObjectId;
use dcdo_vm::{FunctionBuilder, Value};
use legion_substrate::client::ClientObject;
use legion_substrate::cost::CostModel;
use legion_substrate::harness::Testbed;
use legion_substrate::monolithic::{ExecutableImage, MonolithicObject};
use legion_substrate::rpc::RpcClient;
use legion_substrate::InvocationFault;

fn echo_image() -> ExecutableImage {
    let echo = FunctionBuilder::parse("echo(int) -> int")
        .expect("signature")
        .load_arg(0)
        .ret()
        .build()
        .expect("valid");
    ExecutableImage::new(1, vec![echo], 100_000)
}

/// Spawns a monolithic echo object directly (no class object) and registers
/// its binding.
fn spawn_echo(bed: &mut Testbed, node: usize) -> (ObjectId, dcdo_sim::ActorId) {
    let object = bed.fresh_object_id();
    let image = echo_image();
    let rpc = RpcClient::new(bed.agent, bed.cost.clone());
    let actor = bed.sim.spawn(
        bed.nodes[node],
        MonolithicObject::new(object, &image, &bed.cost.clone(), rpc),
    );
    bed.register(object, actor);
    (object, actor)
}

#[test]
fn calls_to_unregistered_objects_time_out_at_the_deadline() {
    let mut bed = Testbed::centurion(1);
    let ghost = bed.fresh_object_id(); // never registered anywhere
    let (_, client) = bed.spawn_client(bed.nodes[1]);
    let completion = bed.call_and_wait(client, ghost, "echo", vec![Value::Int(1)]);
    assert!(matches!(completion.result, Err(InvocationFault::Timeout)));
    let elapsed = completion.elapsed.as_secs_f64();
    let deadline = CostModel::centurion().invocation_deadline.as_secs_f64();
    assert!(
        (deadline - 10.0..=deadline + 10.0).contains(&elapsed),
        "gave up near the deadline: {elapsed}s"
    );
}

#[test]
fn dead_address_with_reregistration_recovers_after_retries() {
    let mut bed = Testbed::centurion(2);
    let (object, actor) = spawn_echo(&mut bed, 2);
    let (_, client) = bed.spawn_client(bed.nodes[5]);
    // Prime the cache.
    let c = bed.call_and_wait(client, object, "echo", vec![Value::Int(7)]);
    assert!(c.result.is_ok());
    assert_eq!(c.attempts, 1);

    // Kill the process and immediately re-register at a new address.
    bed.sim.kill(actor);
    let (_, new_actor) = {
        let object2 = object;
        let image = echo_image();
        let rpc = RpcClient::new(bed.agent, bed.cost.clone());
        let node = bed.nodes[6];
        let cost = bed.cost.clone();
        let actor = bed
            .sim
            .spawn(node, MonolithicObject::new(object2, &image, &cost, rpc));
        bed.register(object2, actor);
        (object2, actor)
    };
    let _ = new_actor;

    let c = bed.call_and_wait(client, object, "echo", vec![Value::Int(8)]);
    assert_eq!(
        c.result.expect("recovered").into_value().expect("value"),
        Value::Int(8)
    );
    assert_eq!(c.rebinds, 1);
    assert!(
        c.attempts >= CostModel::centurion().binding_attempts,
        "exhausted the attempt budget before consulting the agent: {} attempts",
        c.attempts
    );
    let elapsed = c.elapsed.as_secs_f64();
    assert!(
        (25.0..=40.0).contains(&elapsed),
        "discovery window {elapsed}s"
    );
}

#[test]
fn no_such_object_reply_short_circuits_to_rebind() {
    // An *alive* actor hosting a different object answers NoSuchObject,
    // which skips the 25-35 s timeout path entirely.
    let mut bed = Testbed::centurion(3);
    let (object_a, actor_a) = spawn_echo(&mut bed, 2);
    let (object_b, _) = spawn_echo(&mut bed, 3);
    let (_, client) = bed.spawn_client(bed.nodes[5]);
    // Poison the client's cache: object_b supposedly lives at actor_a.
    bed.sim
        .actor_mut::<ClientObject>(client)
        .expect("client alive")
        .seed_binding(object_b, actor_a);
    let c = bed.call_and_wait(client, object_b, "echo", vec![Value::Int(9)]);
    assert_eq!(
        c.result.expect("recovered").into_value().expect("value"),
        Value::Int(9)
    );
    assert_eq!(c.rebinds, 1);
    assert!(
        c.elapsed < SimDuration::from_secs(1),
        "fast recovery, no timeout needed: {}",
        c.elapsed
    );
    let _ = object_a;
}

#[test]
fn message_loss_triggers_same_address_retries() {
    let mut cfg = NetConfig::centurion();
    cfg.loss_rate = 0.35;
    // Seed chosen so every call eventually succeeds within its retry budget
    // while still forcing a healthy number of loss-driven retries.
    let mut bed = Testbed::new(16, CostModel::centurion(), cfg, 2);
    let (object, _) = spawn_echo(&mut bed, 2);
    let (_, client) = bed.spawn_client(bed.nodes[5]);
    let mut total_attempts = 0;
    for i in 0..10 {
        let c = bed.call_and_wait(client, object, "echo", vec![Value::Int(i)]);
        assert!(c.result.is_ok(), "call {i} failed");
        total_attempts += c.attempts;
    }
    assert!(
        total_attempts > 10,
        "at 35% loss some calls must have retried (attempts = {total_attempts})"
    );
}

#[test]
fn in_flight_accounting_balances() {
    let mut bed = Testbed::centurion(5);
    let (object, _) = spawn_echo(&mut bed, 1);
    let (_, client) = bed.spawn_client(bed.nodes[2]);
    let calls: Vec<_> = (0..5)
        .map(|i| bed.client_call(client, object, "echo", vec![Value::Int(i)]))
        .collect();
    {
        let c = bed.sim.actor::<ClientObject>(client).expect("client alive");
        assert_eq!(c.in_flight(), 5);
    }
    for call in calls {
        bed.wait_for(client, call);
    }
    let c = bed.sim.actor::<ClientObject>(client).expect("client alive");
    assert_eq!(c.in_flight(), 0);
    assert!(c.completions().is_empty(), "all completions were drained");
}

#[test]
fn concurrent_clients_share_one_server() {
    let mut bed = Testbed::centurion(6);
    let (object, _) = spawn_echo(&mut bed, 0);
    let clients: Vec<_> = (1..9).map(|n| bed.spawn_client(bed.nodes[n]).1).collect();
    let calls: Vec<_> = clients
        .iter()
        .enumerate()
        .map(|(i, c)| {
            (
                *c,
                bed.client_call(*c, object, "echo", vec![Value::Int(i as i64)]),
            )
        })
        .collect();
    for (i, (client, call)) in calls.into_iter().enumerate() {
        let c = bed.wait_for(client, call);
        assert_eq!(
            c.result.expect("ok").into_value().expect("value"),
            Value::Int(i as i64)
        );
    }
}

#[test]
fn duplicate_deliveries_do_not_confuse_the_protocol() {
    // Duplication injection: the engine re-delivers messages late; duplicate
    // replies to an already-settled call must be dropped as stale, and every
    // call still completes exactly once.
    let mut cfg = NetConfig::centurion();
    cfg.duplicate_rate = 0.5;
    let mut bed = Testbed::new(16, CostModel::centurion(), cfg, 7);
    let (object, _) = spawn_echo(&mut bed, 2);
    let (_, client) = bed.spawn_client(bed.nodes[5]);
    for i in 0..20 {
        let c = bed.call_and_wait(client, object, "echo", vec![Value::Int(i)]);
        let v = c
            .result
            .expect("completes once")
            .into_value()
            .expect("value");
        assert_eq!(v, Value::Int(i));
    }
    let c = bed.sim.actor::<ClientObject>(client).expect("client alive");
    assert_eq!(c.in_flight(), 0);
    assert!(
        bed.sim.network().stats().duplicates_planned > 0,
        "duplication actually occurred"
    );
}

#[test]
fn dead_address_without_reregistration_fails_unreachable_before_deadline() {
    // The agent keeps handing out the same dead address (nobody invalidated
    // it): the client burns its rebind budget and reports Unreachable well
    // before the 120 s deadline, instead of cycling until Timeout.
    let mut bed = Testbed::centurion(8);
    let (object, actor) = spawn_echo(&mut bed, 2);
    let (_, client) = bed.spawn_client(bed.nodes[5]);
    let c = bed.call_and_wait(client, object, "echo", vec![Value::Int(1)]);
    assert!(c.result.is_ok());

    bed.sim.kill(actor); // binding left stale on purpose
    let c = bed.call_and_wait(client, object, "echo", vec![Value::Int(2)]);
    assert!(matches!(c.result, Err(InvocationFault::Unreachable)));
    let max_rebinds = CostModel::centurion().max_rebinds;
    assert_eq!(c.rebinds, max_rebinds + 1);
    let elapsed = c.elapsed.as_secs_f64();
    let deadline = CostModel::centurion().invocation_deadline.as_secs_f64();
    assert!(
        elapsed < deadline,
        "gave up before the deadline: {elapsed}s >= {deadline}s"
    );
    assert!(bed.sim.metrics().counter("rpc.unreachable") >= 1);
}

#[test]
fn unanswered_binding_queries_back_off_and_fail_unreachable() {
    // The binding agent itself is dead: the client's queries go unanswered,
    // each retry backs off exponentially, and after the budget is spent the
    // call fails Unreachable (not an endless requery loop).
    let mut bed = Testbed::centurion(9);
    let ghost = bed.fresh_object_id();
    let (_, client) = bed.spawn_client(bed.nodes[3]);
    bed.sim.kill(bed.agent.actor);
    let c = bed.call_and_wait(client, ghost, "echo", vec![Value::Int(1)]);
    assert!(matches!(c.result, Err(InvocationFault::Unreachable)));
    // 4 unanswered queries at 5 s, 10 s, 20 s, 40 s: gone by ~75 s.
    let elapsed = c.elapsed.as_secs_f64();
    assert!(
        (70.0..=80.0).contains(&elapsed),
        "exponential backoff window: {elapsed}s"
    );
}
