//! Integration tests for the epoch round itself: fencing, stale refusal,
//! fence-timeout recovery, quorum fallback, and abort.

mod common;

use common::{control_reply, invoke_reply, send_control, send_invoke, Courier};
use dcdo_group::{
    deploy_group, EpochPrepare, GroupClient, GroupCoordinator, GroupReplica, ProposalResult,
    ProposeConfig, ReplicaStatus,
};
use dcdo_group::{ConfigDelta, ProbeReplica};
use dcdo_sim::{check_trace_invariants, NetConfig, NodeId, SimDuration, Simulation};
use legion_substrate::{ControlOp, InvocationFault, Msg};

fn new_sim(seed: u64) -> Simulation<Msg> {
    let mut sim = Simulation::new(NetConfig::centurion(), seed);
    sim.spans_mut().enable();
    sim
}

fn replica_nodes(n: u32) -> Vec<NodeId> {
    (1..=n).map(NodeId::from_raw).collect()
}

#[test]
fn a_proposal_commits_and_every_replica_adopts_the_epoch() {
    let mut sim = new_sim(3);
    let dep = deploy_group(&mut sim, 1, NodeId::from_raw(5), &replica_nodes(4), 1);
    let courier = sim.spawn(NodeId::from_raw(6), Courier::default());
    let call = send_control(
        &mut sim,
        courier,
        dep.coordinator,
        dep.coordinator_object,
        ControlOp::new(ProposeConfig {
            group: 1,
            delta: ConfigDelta::new().with_version(2).upgrading([0]),
        }),
    );
    sim.run_for(SimDuration::from_secs(1));
    sim.run_until_idle();

    let result = control_reply(&sim, courier, call)
        .expect("proposal resolved")
        .expect("not a fault");
    let result = result.downcast_ref::<ProposalResult>().expect("typed");
    assert!(result.committed);
    assert_eq!(result.epoch, 1);

    for r in &dep.replicas {
        let rep = sim.actor::<GroupReplica>(r.actor).expect("alive");
        assert_eq!(rep.epoch(), 1);
        assert_eq!(rep.config().digest(), result.config_digest);
        assert!(!rep.is_fenced());
    }
    // Replica 0 runs v2 now; the others still serve v1 — mid-rollout
    // mixed-version states are first-class.
    let v: Vec<u32> = dep
        .replicas
        .iter()
        .map(|r| {
            sim.actor::<GroupReplica>(r.actor)
                .expect("alive")
                .running_version()
        })
        .collect();
    assert_eq!(v, [2, 1, 1, 1]);
    assert_eq!(check_trace_invariants(sim.spans()), vec![]);
}

#[test]
fn fenced_replicas_refuse_invokes_until_commit_or_timeout() {
    let mut sim = new_sim(11);
    let dep = deploy_group(&mut sim, 1, NodeId::from_raw(5), &replica_nodes(3), 1);
    let courier = sim.spawn(NodeId::from_raw(6), Courier::default());
    let target = dep.replicas[0];

    // Fence member 0 by hand with a prepare no coordinator will resolve.
    send_control(
        &mut sim,
        courier,
        target.actor,
        target.object,
        ControlOp::new(EpochPrepare {
            group: 1,
            epoch: 1,
            joined_digest: 0xdead,
        }),
    );
    sim.run_for(SimDuration::from_millis(10));
    assert!(sim
        .actor::<GroupReplica>(target.actor)
        .expect("alive")
        .is_fenced());

    let refused = send_invoke(&mut sim, courier, target.actor, target.object, "work");
    sim.run_for(SimDuration::from_millis(10));
    assert!(matches!(
        invoke_reply(&sim, courier, refused),
        Some(Err(InvocationFault::Refused(_)))
    ));

    // No commit ever comes: the fence timeout reverts the replica to the
    // last committed epoch and it serves again.
    sim.run_for(SimDuration::from_millis(500));
    assert!(!sim
        .actor::<GroupReplica>(target.actor)
        .expect("alive")
        .is_fenced());
    let served = send_invoke(&mut sim, courier, target.actor, target.object, "work");
    sim.run_for(SimDuration::from_millis(10));
    assert!(matches!(invoke_reply(&sim, courier, served), Some(Ok(_))));
    assert_eq!(
        sim.actor::<GroupReplica>(target.actor)
            .expect("alive")
            .epoch(),
        0,
        "an unresolved round must not advance the epoch"
    );
    assert_eq!(check_trace_invariants(sim.spans()), vec![]);
}

#[test]
fn stale_prepares_and_commits_are_refused_or_ignored() {
    let mut sim = new_sim(17);
    let dep = deploy_group(&mut sim, 1, NodeId::from_raw(5), &replica_nodes(3), 1);
    let courier = sim.spawn(NodeId::from_raw(6), Courier::default());

    // Commit epoch 1 normally first.
    send_control(
        &mut sim,
        courier,
        dep.coordinator,
        dep.coordinator_object,
        ControlOp::new(ProposeConfig {
            group: 1,
            delta: ConfigDelta::new().with_param(0, 9),
        }),
    );
    sim.run_for(SimDuration::from_secs(1));

    // A prepare for epoch 1 is now stale: typed refusal, no fence.
    let target = dep.replicas[1];
    let stale = send_control(
        &mut sim,
        courier,
        target.actor,
        target.object,
        ControlOp::new(EpochPrepare {
            group: 1,
            epoch: 1,
            joined_digest: 1,
        }),
    );
    sim.run_for(SimDuration::from_millis(10));
    assert!(matches!(
        control_reply(&sim, courier, stale),
        Some(Err(InvocationFault::Refused(_)))
    ));
    assert!(!sim
        .actor::<GroupReplica>(target.actor)
        .expect("alive")
        .is_fenced());
    assert_eq!(
        sim.actor::<GroupReplica>(target.actor)
            .expect("alive")
            .epoch(),
        1
    );
    assert_eq!(check_trace_invariants(sim.spans()), vec![]);
}

#[test]
fn quorum_commits_at_the_deadline_when_a_minority_is_down() {
    let mut sim = new_sim(23);
    let dep = deploy_group(&mut sim, 1, NodeId::from_raw(6), &replica_nodes(5), 1);
    // Two of five replicas die before the round: the all-ack fast path is
    // unreachable, but three acks are a majority at the deadline.
    sim.crash_node(dep.replicas[3].node);
    sim.crash_node(dep.replicas[4].node);
    let courier = sim.spawn(NodeId::from_raw(7), Courier::default());
    let call = send_control(
        &mut sim,
        courier,
        dep.coordinator,
        dep.coordinator_object,
        ControlOp::new(ProposeConfig {
            group: 1,
            delta: ConfigDelta::new().with_version(2).upgrading([0, 1, 2]),
        }),
    );
    sim.run_for(SimDuration::from_secs(1));
    sim.run_until_idle();

    let result = control_reply(&sim, courier, call)
        .expect("proposal resolved")
        .expect("not a fault");
    let result = result.downcast_ref::<ProposalResult>().expect("typed");
    assert!(result.committed, "majority at the deadline commits");
    assert_eq!(result.epoch, 1);
    for r in &dep.replicas[..3] {
        assert_eq!(
            sim.actor::<GroupReplica>(r.actor).expect("alive").epoch(),
            1
        );
    }
    assert_eq!(
        sim.actor::<GroupCoordinator>(dep.coordinator)
            .expect("alive")
            .committed_rounds(),
        1
    );
    assert_eq!(check_trace_invariants(sim.spans()), vec![]);
}

#[test]
fn a_minority_of_acks_aborts_the_round_and_unfences_survivors() {
    let mut sim = new_sim(29);
    let dep = deploy_group(&mut sim, 1, NodeId::from_raw(6), &replica_nodes(5), 1);
    // Three of five down: no quorum, the round must abort.
    sim.crash_node(dep.replicas[2].node);
    sim.crash_node(dep.replicas[3].node);
    sim.crash_node(dep.replicas[4].node);
    let courier = sim.spawn(NodeId::from_raw(7), Courier::default());
    let call = send_control(
        &mut sim,
        courier,
        dep.coordinator,
        dep.coordinator_object,
        ControlOp::new(ProposeConfig {
            group: 1,
            delta: ConfigDelta::new().with_version(2),
        }),
    );
    sim.run_for(SimDuration::from_secs(1));
    sim.run_until_idle();

    let result = control_reply(&sim, courier, call)
        .expect("proposal resolved")
        .expect("not a fault");
    let result = result.downcast_ref::<ProposalResult>().expect("typed");
    assert!(!result.committed, "minority must not commit");
    for r in &dep.replicas[..2] {
        let rep = sim.actor::<GroupReplica>(r.actor).expect("alive");
        assert_eq!(rep.epoch(), 0, "aborted round leaves the epoch alone");
        assert!(!rep.is_fenced(), "abort unfences the survivors");
    }
    assert_eq!(
        sim.actor::<GroupCoordinator>(dep.coordinator)
            .expect("alive")
            .aborted_rounds(),
        1
    );
    assert_eq!(check_trace_invariants(sim.spans()), vec![]);
}

#[test]
fn probes_report_health_version_and_counters() {
    let mut sim = new_sim(31);
    let dep = dcdo_group::deploy_group_with(
        &mut sim,
        1,
        NodeId::from_raw(5),
        &replica_nodes(2),
        1,
        |r| r.with_unhealthy_from_version(2),
    );
    let courier = sim.spawn(NodeId::from_raw(6), Courier::default());
    let probe = send_control(
        &mut sim,
        courier,
        dep.replicas[0].actor,
        dep.replicas[0].object,
        ControlOp::new(ProbeReplica),
    );
    sim.run_for(SimDuration::from_millis(10));
    let status = control_reply(&sim, courier, probe)
        .expect("probe resolved")
        .expect("not a fault");
    let status = status
        .downcast_ref::<ReplicaStatus>()
        .expect("typed")
        .clone();
    assert_eq!(status.member, 0);
    assert_eq!(status.epoch, 0);
    assert_eq!(status.version, 1);
    assert!(status.healthy, "fault only arms at version >= 2");

    // Upgrade member 0 to v2: the planted fault now reports unhealthy.
    send_control(
        &mut sim,
        courier,
        dep.coordinator,
        dep.coordinator_object,
        ControlOp::new(ProposeConfig {
            group: 1,
            delta: ConfigDelta::new().with_version(2).upgrading([0]),
        }),
    );
    sim.run_for(SimDuration::from_secs(1));
    let probe2 = send_control(
        &mut sim,
        courier,
        dep.replicas[0].actor,
        dep.replicas[0].object,
        ControlOp::new(ProbeReplica),
    );
    sim.run_for(SimDuration::from_millis(10));
    let status2 = control_reply(&sim, courier, probe2)
        .expect("probe resolved")
        .expect("not a fault");
    let status2 = status2
        .downcast_ref::<ReplicaStatus>()
        .expect("typed")
        .clone();
    assert_eq!(status2.version, 2);
    assert!(!status2.healthy);
    assert_eq!(check_trace_invariants(sim.spans()), vec![]);
}

#[test]
fn sustained_traffic_across_a_reconfiguration_only_sees_typed_refusals() {
    let run = |seed: u64| {
        let mut sim = new_sim(seed);
        let dep = deploy_group(&mut sim, 1, NodeId::from_raw(5), &replica_nodes(4), 1);
        let client = sim.spawn(
            NodeId::from_raw(6),
            GroupClient::new(
                dep.replica_targets(),
                SimDuration::from_millis(2),
                SimDuration::from_millis(800),
            ),
        );
        sim.with_actor::<GroupClient, _>(client, |c, ctx| c.start(ctx));
        let courier = sim.spawn(NodeId::from_raw(7), Courier::default());
        sim.run_for(SimDuration::from_millis(200));
        send_control(
            &mut sim,
            courier,
            dep.coordinator,
            dep.coordinator_object,
            ControlOp::new(ProposeConfig {
                group: 1,
                delta: ConfigDelta::new().with_version(2).upgrading([0, 1, 2, 3]),
            }),
        );
        sim.run_for(SimDuration::from_secs(1));
        sim.run_until_idle();
        let c = sim.actor::<GroupClient>(client).expect("alive");
        (
            c.sent(),
            c.ok(),
            c.refused(),
            c.failed(),
            check_trace_invariants(sim.spans()).len(),
        )
    };
    let (sent, ok, refused, failed, violations) = run(41);
    assert!(sent >= 300, "sustained traffic ran ({sent} sent)");
    assert!(ok >= sent - refused - failed);
    assert_eq!(failed, 0, "only typed fence refusals are acceptable");
    assert!(
        refused < sent / 10,
        "fence window must be brief ({refused}/{sent} refused)"
    );
    assert_eq!(violations, 0);
}
