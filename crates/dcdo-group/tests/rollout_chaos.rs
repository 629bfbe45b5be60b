//! Rolling upgrades under fire: the full canary → 25% → 100% orchestration
//! with sustained traffic, a planted-unhealthy rollback, and the chaos
//! composition — a `FaultPlan` crashing the wave coordinator at every wave
//! boundary. The group must either complete or roll back cleanly, with
//! zero trace violations and same-seed replay hashes.

mod common;

use dcdo_chaos::{trace_hash, ChaosController, FaultPlan};
use dcdo_group::{
    deploy_group, deploy_group_with, GroupClient, GroupReplica, RolloutDriver, RolloutPlan,
    RolloutState,
};
use dcdo_sim::{check_trace_invariants, NetConfig, NodeId, SimDuration, Simulation};
use legion_substrate::Msg;

const REPLICAS: u32 = 4;
const COORD_NODE: u32 = 5;
const CLIENT_NODE: u32 = 6;
const DRIVER_NODE: u32 = 7;
// Node 0 hosts the chaos controller: no plan ever crashes it.
const CHAOS_NODE: u32 = 0;

const WINDOW: SimDuration = SimDuration::from_secs(2);

fn plan() -> RolloutPlan {
    RolloutPlan::canary_then_waves(
        1,
        2,
        SimDuration::from_millis(100),
        SimDuration::from_millis(300),
    )
}

struct RunResult {
    state: RolloutState,
    waves_committed: u32,
    replica_epochs: Vec<u64>,
    replica_digests: Vec<u64>,
    replica_versions: Vec<u32>,
    any_fenced: bool,
    client_sent: u64,
    client_ok: u64,
    client_failed: u64,
    violations: Vec<dcdo_sim::Violation>,
    span_digest: u64,
    trace_hash: u64,
}

/// Deploys group + client + rollout driver (+ an optional fault plan on
/// node 0), runs the window, and reports the end state.
fn run_rollout(seed: u64, faults: Option<FaultPlan>, unhealthy_canary: bool) -> RunResult {
    let mut sim: Simulation<Msg> = Simulation::new(NetConfig::centurion(), seed);
    sim.spans_mut().enable();
    sim.trace_mut().enable(1 << 18);
    let replica_nodes: Vec<NodeId> = (1..=REPLICAS).map(NodeId::from_raw).collect();
    let dep = deploy_group_with(
        &mut sim,
        1,
        NodeId::from_raw(COORD_NODE),
        &replica_nodes,
        1,
        |r| {
            if unhealthy_canary {
                r.with_unhealthy_from_version(2)
            } else {
                r
            }
        },
    );
    let client = sim.spawn(
        NodeId::from_raw(CLIENT_NODE),
        GroupClient::new(dep.replica_targets(), SimDuration::from_millis(2), WINDOW),
    );
    sim.with_actor::<GroupClient, _>(client, |c, ctx| c.start(ctx));
    let driver =
        RolloutDriver::install(&mut sim, NodeId::from_raw(DRIVER_NODE), dep.clone(), plan());
    if let Some(p) = faults {
        ChaosController::install(&mut sim, NodeId::from_raw(CHAOS_NODE), p);
    }
    sim.run_for(WINDOW);
    sim.run_until_idle();

    let d = sim.actor::<RolloutDriver>(driver).expect("driver alive");
    let mut replica_epochs = Vec::new();
    let mut replica_digests = Vec::new();
    let mut replica_versions = Vec::new();
    let mut any_fenced = false;
    for r in &dep.replicas {
        let rep = sim.actor::<GroupReplica>(r.actor).expect("replica alive");
        replica_epochs.push(rep.epoch());
        replica_digests.push(rep.config().digest());
        replica_versions.push(rep.running_version());
        any_fenced |= rep.is_fenced();
    }
    // The client's node may have been crashed by the fault plan.
    let (client_sent, client_ok, client_failed) = sim
        .actor::<GroupClient>(client)
        .map(|c| (c.sent(), c.ok(), c.failed()))
        .unwrap_or((0, 0, 0));
    RunResult {
        state: d.state(),
        waves_committed: d.waves_committed(),
        replica_epochs,
        replica_digests,
        replica_versions,
        any_fenced,
        client_sent,
        client_ok,
        client_failed,
        violations: check_trace_invariants(sim.spans()),
        span_digest: sim.spans().digest(),
        trace_hash: trace_hash(sim.trace()),
    }
}

#[test]
fn rolling_upgrade_completes_under_sustained_traffic() {
    let r = run_rollout(101, None, false);
    assert_eq!(r.state, RolloutState::Completed);
    assert_eq!(r.waves_committed, 3);
    // Canary, 25% (same single member for 4 replicas), then 100%.
    assert!(r.replica_epochs.iter().all(|&e| e == 3));
    assert!(r.replica_versions.iter().all(|&v| v == 2));
    assert_eq!(
        r.replica_digests
            .iter()
            .collect::<std::collections::BTreeSet<_>>()
            .len(),
        1
    );
    assert!(!r.any_fenced);
    assert!(r.client_sent >= 500);
    assert_eq!(r.client_failed, 0);
    assert!(
        r.client_ok >= r.client_sent * 9 / 10,
        "fence windows must stay brief ({} ok of {})",
        r.client_ok,
        r.client_sent
    );
    assert_eq!(r.violations, vec![]);
}

#[test]
fn an_unhealthy_canary_rolls_the_group_back() {
    let r = run_rollout(103, None, true);
    assert_eq!(r.state, RolloutState::RolledBack);
    assert_eq!(r.waves_committed, 1, "only the canary wave committed");
    // Canary epoch + rollback epoch.
    assert!(r.replica_epochs.iter().all(|&e| e == 2));
    assert!(
        r.replica_versions.iter().all(|&v| v == 1),
        "rollback re-pins the base version everywhere"
    );
    assert_eq!(
        r.replica_digests
            .iter()
            .collect::<std::collections::BTreeSet<_>>()
            .len(),
        1
    );
    assert!(!r.any_fenced);
    assert_eq!(r.client_failed, 0);
    assert_eq!(r.violations, vec![]);
}

#[test]
fn coordinator_crash_at_each_wave_boundary_completes_or_rolls_back_cleanly() {
    let p = plan();
    for (i, wave) in p.waves.iter().enumerate() {
        // Crash the coordinator 2ms after the wave's proposal leaves the
        // driver: mid-round, before the commit can resolve.
        let faults = FaultPlan::new().crash_at(
            wave.at + SimDuration::from_millis(2),
            NodeId::from_raw(COORD_NODE),
        );
        let seed = 200 + i as u64;
        let r = run_rollout(seed, Some(faults.clone()), false);
        assert!(
            matches!(r.state, RolloutState::Completed | RolloutState::RolledBack),
            "wave {i}: rollout must complete or roll back, got {:?}",
            r.state
        );
        // Whatever happened, the group converged: one configuration,
        // nobody fenced, traffic only ever saw typed refusals.
        assert_eq!(
            r.replica_digests
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            1,
            "wave {i}: replicas must agree on one config"
        );
        assert!(!r.any_fenced, "wave {i}: fences must clear");
        assert_eq!(r.client_failed, 0, "wave {i}: no untyped failures");
        assert_eq!(r.violations, vec![], "wave {i}: zero trace violations");
        // The rollout never half-applies a wave: committed waves show up
        // as whole epochs, the crashed wave not at all.
        assert!(
            r.replica_epochs
                .iter()
                .all(|&e| e == r.waves_committed as u64),
            "wave {i}: epochs {:?} must equal committed waves {}",
            r.replica_epochs,
            r.waves_committed
        );

        // Same-seed replay is byte-identical.
        let replay = run_rollout(seed, Some(faults), false);
        assert_eq!(replay.trace_hash, r.trace_hash, "wave {i}: replay hash");
        assert_eq!(replay.span_digest, r.span_digest);
    }
}

#[test]
fn crashing_the_coordinator_between_waves_strands_no_fences() {
    // Crash *between* wave 1 and wave 2: wave 1 commits, wave 2's proposal
    // goes to a dead coordinator, the driver's deadline rolls the wave back.
    let faults =
        FaultPlan::new().crash_at(SimDuration::from_millis(250), NodeId::from_raw(COORD_NODE));
    let r = run_rollout(211, Some(faults), false);
    assert_eq!(r.state, RolloutState::RolledBack);
    assert_eq!(r.waves_committed, 1);
    assert!(r.replica_epochs.iter().all(|&e| e == 1));
    assert!(!r.any_fenced);
    assert_eq!(r.violations, vec![]);
    // The canary keeps running v2 — rolling back the *in-flight* wave
    // cannot undo a committed epoch without a live coordinator.
    assert_eq!(r.replica_versions[0], 2);
    assert!(r.replica_versions[1..].iter().all(|&v| v == 1));
}

#[test]
fn the_deployment_survives_an_uninvolved_node_crash() {
    // Sanity composition: crashing the *client's* node mid-rollout leaves
    // the reconfiguration protocol untouched.
    let faults =
        FaultPlan::new().crash_at(SimDuration::from_millis(350), NodeId::from_raw(CLIENT_NODE));
    let r = run_rollout(223, Some(faults), false);
    assert_eq!(r.state, RolloutState::Completed);
    assert!(r.replica_versions.iter().all(|&v| v == 2));
    assert_eq!(r.violations, vec![]);
}

#[test]
fn group_deployment_is_deterministic_across_seeds_only() {
    // Different seeds change delivery jitter and thus the trace; the
    // protocol outcome stays the same.
    let a = run_rollout(301, None, false);
    let b = run_rollout(302, None, false);
    assert_ne!(a.trace_hash, b.trace_hash, "seed must matter");
    assert_eq!(a.state, RolloutState::Completed);
    assert_eq!(b.state, RolloutState::Completed);
    assert_eq!(a.replica_digests, b.replica_digests);
    let _ = deploy_group; // silence unused import when features shift
}
