//! Whole-stack integration tests through the umbrella crate: live services
//! under client load during evolution, determinism, and fault injection.

use dcdo::core::ops::VersionConfigOp;
use dcdo::legion::ControlOp;
use dcdo::sim::SimDuration;
use dcdo::types::{ComponentId, VersionId};
use dcdo::vm::{ComponentBuilder, Value};
use dcdo::workloads::{service, ClosedLoopClient, Fleet, Manager, Strategy};

/// Builds a counter fleet (the canonical service) at version 1.1.
fn counter_fleet(strategy: Strategy, seed: u64) -> (Fleet, VersionId) {
    let mut fleet = Fleet::new(strategy, seed);
    let core = service::counter_core();
    let ico = fleet.publish_component(&core, 1);
    let root = VersionId::root();
    let v1 = fleet.build_version(&root, service::counter_v1(ico));
    fleet.set_current(&v1);
    fleet.create_instances(1);
    (fleet, v1)
}

#[test]
fn service_keeps_answering_through_an_evolution() {
    // A closed-loop client hammers the counter while the manager evolves
    // it; no call fails, no binding breaks, and the behavior change lands
    // mid-stream.
    let (mut fleet, v1) = counter_fleet(Strategy::SingleVersionExplicit, 1);
    let (target, _) = fleet.instances[0];

    let client_obj = fleet.bed.fresh_object_id();
    let agent = fleet.bed.agent;
    let cost = fleet.bed.cost.clone();
    let node = fleet.bed.nodes[9];
    let client = fleet.bed.sim.spawn(
        node,
        ClosedLoopClient::new(
            client_obj,
            agent,
            cost,
            target,
            "incr",
            vec![],
            200,
            SimDuration::from_millis(20),
        ),
    );
    fleet.bed.register(client_obj, client);
    fleet
        .bed
        .sim
        .with_actor::<ClosedLoopClient, _>(client, |c, ctx| c.start(ctx));

    // Let some traffic flow, then evolve step 1 -> 10 under load.
    fleet.bed.run_for(SimDuration::from_secs(1));
    let step10 = service::step_by(10);
    let ico = fleet.publish_component(&step10, 2);
    let v2 = fleet.build_version(
        &v1,
        vec![
            VersionConfigOp::IncorporateComponent { ico },
            VersionConfigOp::EnableFunction {
                function: "step".into(),
                component: service::ids::STEP_TEN,
            },
        ],
    );
    fleet.set_current(&v2);
    assert_eq!(fleet.update_all_explicitly(), 1);
    fleet.bed.sim.run_until_idle();

    let c = fleet
        .bed
        .sim
        .actor::<ClosedLoopClient>(client)
        .expect("client alive");
    assert!(c.is_done(), "all 200 calls completed");
    assert!(c.faults().is_empty(), "no call failed: {:?}", c.faults());
    assert_eq!(c.records().len(), 200);
    assert!(
        c.records().iter().all(|r| r.rebinds == 0),
        "evolution never invalidated the client's binding"
    );
    // The counter's trajectory shows the switch: early increments +1, later
    // ones +10.
    let final_count = fleet.call(target, "get", vec![]).expect("get succeeds");
    let n = final_count.as_int().expect("int");
    assert!(n > 200, "some increments were by 10 (got {n})");
    assert_eq!(n % 9, 200 % 9, "n = 200 + 9k for k calls after the switch");
}

#[test]
fn same_seed_same_story() {
    // Full-stack determinism: identical seeds yield identical final counter
    // values, latencies, and message counts.
    let run = |seed: u64| -> (i64, u64, String) {
        let (mut fleet, v1) = counter_fleet(Strategy::SingleVersionProactive, seed);
        let (target, _) = fleet.instances[0];
        for _ in 0..10 {
            fleet.call(target, "incr", vec![]).expect("incr");
        }
        let step = service::step_by(7);
        let ico = fleet.publish_component(&step, 2);
        let v2 = fleet.build_version(
            &v1,
            vec![
                VersionConfigOp::IncorporateComponent { ico },
                VersionConfigOp::EnableFunction {
                    function: "step".into(),
                    component: service::ids::STEP_TEN,
                },
            ],
        );
        fleet.set_current(&v2);
        fleet.bed.sim.run_until_idle();
        for _ in 0..10 {
            fleet.call(target, "incr", vec![]).expect("incr");
        }
        let count = fleet
            .call(target, "get", vec![])
            .expect("get")
            .as_int()
            .expect("int");
        (
            count,
            fleet.bed.sim.network().messages_sent(),
            fleet.bed.sim.now().to_string(),
        )
    };
    let a = run(77);
    let b = run(77);
    assert_eq!(a, b, "identical seeds give identical traces");
    assert_eq!(a.0, 10 + 70, "10 increments by 1, then 10 by 7");
    let c = run(78);
    assert!(
        a.2 != c.2 || a.1 != c.1,
        "different seeds jitter differently"
    );
}

#[test]
fn calls_survive_message_loss() {
    // Fault injection: 10% message loss. The RPC retry machinery rides
    // through it; pure (idempotent) calls still complete correctly.
    let (mut fleet, _v) = counter_fleet(Strategy::SingleVersionExplicit, 3);
    let (target, _) = fleet.instances[0];
    let mut cfg = fleet.bed.sim.network().config().clone();
    cfg.loss_rate = 0.10;
    fleet.bed.sim.network_mut().set_config(cfg);

    let mut ok = 0;
    for _ in 0..30 {
        if let Ok(v) = fleet.call(target, "get", vec![]) {
            assert!(v.as_int().is_some());
            ok += 1;
        }
    }
    assert_eq!(ok, 30, "every idempotent call completed despite 10% loss");
    assert!(
        fleet.bed.sim.network().stats().messages_lost > 0,
        "losses actually happened"
    );
}

#[test]
fn two_services_coexist_and_interact() {
    // Two DCDO types under separate managers: a front service relays to a
    // backend counter via remote outcalls; evolving the backend changes the
    // front's observable behavior without touching the front.
    let (mut fleet, v1) = counter_fleet(Strategy::SingleVersionExplicit, 4);
    let (backend, _) = fleet.instances[0];

    // The front: a component whose `poke(objref)` outcalls backend.incr().
    let front_comp = ComponentBuilder::new(ComponentId::from_raw(9), "front")
        .exported("poke(objref) -> int", |b| {
            b.load_arg(0).call_remote("incr", 0).ret()
        })
        .expect("poke assembles")
        .build()
        .expect("component validates");
    let ico = fleet.publish_component(&front_comp, 3);
    let v_front = fleet.build_version(
        &v1,
        vec![
            VersionConfigOp::IncorporateComponent { ico },
            VersionConfigOp::EnableFunction {
                function: "poke".into(),
                component: ComponentId::from_raw(9),
            },
        ],
    );
    fleet.set_current(&v_front);
    fleet.create_instances(1);
    let (front, _) = fleet.instances[1];

    let v = fleet
        .call(front, "poke", vec![Value::ObjRef(backend)])
        .expect("poke relays");
    assert_eq!(v, Value::Int(1));

    // Evolve the backend's step to 100; the front's next poke shows it.
    let step = service::step_by(100);
    let ico = fleet.publish_component(&step, 2);
    let v2 = fleet.build_version(
        &v_front,
        vec![
            VersionConfigOp::IncorporateComponent { ico },
            VersionConfigOp::EnableFunction {
                function: "step".into(),
                component: service::ids::STEP_TEN,
            },
        ],
    );
    fleet.set_current(&v2);
    // Update only the backend instance.
    fleet
        .bed
        .control_and_wait(
            fleet.manager.driver,
            fleet.manager.object,
            ControlOp::new(dcdo::core::ops::UpdateInstance {
                object: backend,
                to: None,
            }),
        )
        .result
        .expect("backend update succeeds");
    let v = fleet
        .call(front, "poke", vec![Value::ObjRef(backend)])
        .expect("poke relays");
    assert_eq!(v, Value::Int(101), "1 + 100 after the backend evolved");
}

#[test]
fn interface_queries_reflect_live_configuration() {
    let (mut fleet, _v) = counter_fleet(Strategy::SingleVersionExplicit, 5);
    let (target, _) = fleet.instances[0];
    let completion = fleet.bed.control_and_wait(
        fleet.manager.driver,
        target,
        ControlOp::new(dcdo::core::ops::QueryImplementation),
    );
    let payload = completion.result.expect("query succeeds");
    let report = payload
        .control_as::<dcdo::core::ops::ImplementationReport>()
        .expect("implementation report");
    assert_eq!(report.components, vec![service::ids::COUNTER_CORE]);
    assert_eq!(report.function_count, 3);
    assert_eq!(report.version.to_string(), "1.1");

    let completion = fleet.bed.control_and_wait(
        fleet.manager.driver,
        target,
        ControlOp::new(dcdo::core::ops::QueryFunctionStatus {
            function: "step".into(),
        }),
    );
    let payload = completion.result.expect("query succeeds");
    let status = payload
        .control_as::<dcdo::core::ops::FunctionStatusReport>()
        .expect("status report");
    assert!(status.present);
    assert_eq!(status.enabled, Some(service::ids::COUNTER_CORE));
    assert_eq!(status.active_threads, 0);
}

#[test]
fn two_managers_two_types_one_testbed() {
    // Two independent object types under two DCDO Managers on the same
    // testbed: a counter type and a sorting type. Evolving one type leaves
    // the other untouched; both share the binding agent and hosts.
    use dcdo::core::{DcdoManager, HostDirectory};
    use dcdo::types::ClassId;

    let (mut fleet, _v) = counter_fleet(Strategy::SingleVersionExplicit, 71);
    let (counter, _) = fleet.instances[0];

    // A second manager for the sorting type, on the same testbed.
    let hosts = HostDirectory::from_testbed(&fleet.bed);
    let sorter_mgr_obj = fleet.bed.fresh_object_id();
    let sorter_mgr = DcdoManager::new(
        sorter_mgr_obj,
        ClassId::from_raw(2),
        fleet.bed.cost.clone(),
        fleet.bed.agent,
        hosts,
        dcdo::core::VersionPolicy::SingleVersion,
        dcdo::core::UpdatePropagation::Explicit,
    );
    let sorter_mgr_actor = fleet.bed.sim.spawn(fleet.bed.nodes[1], sorter_mgr);
    fleet.bed.register(sorter_mgr_obj, sorter_mgr_actor);

    // Configure the sorting type's version 1.1 through its own manager,
    // driven by the fleet's driver client.
    let sorter_mgr = Manager {
        object: sorter_mgr_obj,
        actor: sorter_mgr_actor,
        driver: fleet.manager.driver,
    };
    let (ico_obj, _) = Manager::publish(&mut fleet.bed, &service::sorting_component(), 2);
    let steps = vec![
        VersionConfigOp::IncorporateComponent { ico: ico_obj },
        VersionConfigOp::EnableFunction {
            function: "compare".into(),
            component: service::ids::SORTING,
        },
        VersionConfigOp::EnableFunction {
            function: "sort".into(),
            component: service::ids::SORTING,
        },
    ];
    let v1 = sorter_mgr.build_version(&mut fleet.bed, &VersionId::root(), steps);
    sorter_mgr.set_current(&mut fleet.bed, &v1);
    let node = fleet.bed.nodes[6];
    let (sorter, _) = sorter_mgr.create(&mut fleet.bed, node);

    // Both types serve, independently.
    let sorted = fleet
        .bed
        .call_and_wait(
            fleet.manager.driver,
            sorter,
            "sort",
            vec![Value::List(vec![
                Value::Int(3),
                Value::Int(1),
                Value::Int(2),
            ])],
        )
        .result
        .expect("sort succeeds")
        .into_value()
        .expect("value");
    assert_eq!(
        sorted,
        Value::List(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
    );
    let n = fleet
        .bed
        .call_and_wait(fleet.manager.driver, counter, "incr", vec![])
        .result
        .expect("incr succeeds")
        .into_value()
        .expect("value");
    assert_eq!(n, Value::Int(1));

    // Evolving the counter type does not disturb the sorter.
    let step = service::step_by(50);
    let ico2 = fleet.publish_component(&step, 3);
    let v2 = fleet.build_version(
        &"1.1".parse::<VersionId>().expect("v"),
        vec![
            VersionConfigOp::IncorporateComponent { ico: ico2 },
            VersionConfigOp::EnableFunction {
                function: "step".into(),
                component: service::ids::STEP_TEN,
            },
        ],
    );
    fleet.set_current(&v2);
    fleet.update_all_explicitly();
    let n = fleet
        .bed
        .call_and_wait(fleet.manager.driver, counter, "incr", vec![])
        .result
        .expect("incr succeeds")
        .into_value()
        .expect("value");
    assert_eq!(n, Value::Int(51), "counter evolved (+50)");
    let sorted = fleet
        .bed
        .call_and_wait(
            fleet.manager.driver,
            sorter,
            "sort",
            vec![Value::List(vec![Value::Int(9), Value::Int(8)])],
        )
        .result
        .expect("sort still succeeds")
        .into_value()
        .expect("value");
    assert_eq!(sorted, Value::List(vec![Value::Int(8), Value::Int(9)]));
}
