//! Churn stress: a fleet rides through many successive evolutions under
//! continuous client load and message loss, without dropping a call.

use dcdo::core::ops::{ListVersions, VersionConfigOp, VersionTable};
use dcdo::legion::ControlOp;
use dcdo::sim::SimDuration;
use dcdo::types::{ComponentId, VersionId};
use dcdo::vm::ComponentBuilder;
use dcdo::workloads::ClosedLoopClient;
use dcdo::workloads::{Fleet, Strategy};

fn tick(id: u64, amount: i64) -> dcdo::vm::ComponentBinary {
    ComponentBuilder::new(ComponentId::from_raw(id), format!("tick-{id}"))
        .exported("tick() -> int", move |b| b.push_int(amount).ret())
        .expect("tick assembles")
        .build()
        .expect("component validates")
}

#[test]
fn ten_generations_under_load_and_loss() {
    let mut fleet = Fleet::new(Strategy::SingleVersionProactive, 61);

    // Version 1.1: tick() -> 1.
    let base = tick(1, 1);
    let ico = fleet.publish_component(&base, 1);
    let root = VersionId::root();
    let mut current = fleet.build_version(
        &root,
        vec![
            VersionConfigOp::IncorporateComponent { ico },
            VersionConfigOp::EnableFunction {
                function: "tick".into(),
                component: ComponentId::from_raw(1),
            },
        ],
    );
    fleet.set_current(&current);
    fleet.create_instances(3);

    // Continuous client load on each instance.
    let mut clients = Vec::new();
    for (i, (target, _)) in fleet.instances.clone().into_iter().enumerate() {
        let obj = fleet.bed.fresh_object_id();
        let node = fleet.bed.nodes[10 + (i % 5)];
        let agent = fleet.bed.agent;
        let cost = fleet.bed.cost.clone();
        let actor = fleet.bed.sim.spawn(
            node,
            ClosedLoopClient::new(
                obj,
                agent,
                cost,
                target,
                "tick",
                vec![],
                400,
                SimDuration::from_millis(25),
            ),
        );
        fleet.bed.register(obj, actor);
        fleet
            .bed
            .sim
            .with_actor::<ClosedLoopClient, _>(actor, |c, ctx| c.start(ctx));
        clients.push(actor);
    }

    // 3% message loss throughout.
    let mut cfg = fleet.bed.sim.network().config().clone();
    cfg.loss_rate = 0.03;
    fleet.bed.sim.network_mut().set_config(cfg);

    // Ten generations, one every simulated second.
    for gen in 2..=11u64 {
        let comp = tick(gen, gen as i64);
        let ico = fleet.publish_component(&comp, (gen % 8) as usize);
        current = fleet.build_version(
            &current,
            vec![
                VersionConfigOp::IncorporateComponent { ico },
                VersionConfigOp::EnableFunction {
                    function: "tick".into(),
                    component: ComponentId::from_raw(gen),
                },
            ],
        );
        fleet.set_current(&current);
        fleet.bed.run_for(SimDuration::from_secs(1));
    }
    fleet.bed.sim.run_until_idle();

    // Every instance converged to the last generation.
    for (obj, v) in fleet.instance_versions() {
        assert_eq!(v, current, "instance {obj} converged");
    }

    // Every client call completed (losses were retried) and the observed
    // tick values only ever step through the published generations.
    for actor in clients {
        let c = fleet
            .bed
            .sim
            .actor::<ClosedLoopClient>(actor)
            .expect("client alive");
        assert!(c.is_done(), "all calls completed");
        assert!(
            c.faults().is_empty(),
            "no user-visible faults under churn: {:?}",
            c.faults()
        );
        assert_eq!(c.records().len(), 400);
        assert!(c.records().iter().all(|r| r.ok));
    }

    // The manager's DFM store holds the whole derivation chain.
    let completion = fleet.bed.control_and_wait(
        fleet.manager.driver,
        fleet.manager.object,
        ControlOp::new(ListVersions),
    );
    let payload = completion.result.expect("list succeeds");
    let table = payload.control_as::<VersionTable>().expect("version table");
    assert_eq!(table.current, current);
    // Root + 11 derived versions.
    assert_eq!(table.entries.len(), 12);
    // The chain is strictly derived: every non-root version's parent is in
    // the store.
    for (v, instantiable, _, _) in &table.entries {
        if *v != VersionId::root() {
            assert!(*instantiable);
            let parent = v.parent().expect("derived versions have parents");
            assert!(table.entries.iter().any(|(p, _, _, _)| *p == parent));
        }
    }
}
