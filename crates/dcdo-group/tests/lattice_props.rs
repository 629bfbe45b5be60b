//! The lattice-agreement oracle.
//!
//! Two layers of property testing:
//!
//! 1. Pure lattice laws — join is commutative, associative, idempotent,
//!    and `join_all` is permutation-invariant, digests included.
//! 2. Protocol-level convergence — random sets of concurrent config
//!    proposals, issued within one batching round under random seeds
//!    (delivery orders), leave every replica at the identical joined
//!    epoch with byte-equal config digests.

mod common;

use common::Courier;
use dcdo_group::ProposeConfig;
use dcdo_group::{deploy_group, ConfigDelta, GroupConfig, GroupCoordinator, GroupReplica};
use dcdo_sim::{check_trace_invariants, NetConfig, NodeId, SimDuration, Simulation};
use dcdo_types::CallId;
use legion_substrate::{ControlOp, Msg};
use proptest::prelude::*;

// ---- strategies ---------------------------------------------------------

const MEMBERS: u32 = 4;

fn arb_delta() -> impl Strategy<Value = ConfigDelta> {
    (
        (0u32..6).prop_map(|v| if v >= 2 { Some(v) } else { None }),
        prop::collection::vec(0u32..MEMBERS, 0..4),
        prop::collection::vec(0u32..MEMBERS, 0..2),
        prop::collection::vec((0u32..3, 1u64..100), 0..3),
    )
        .prop_map(|(version, upgrade, downgrade, params)| {
            let mut d = ConfigDelta::new().upgrading(upgrade).downgrading(downgrade);
            if let Some(v) = version {
                d = d.with_version(v);
            }
            for (k, v) in params {
                d = d.with_param(k, v);
            }
            d
        })
}

// ---- pure lattice laws --------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn join_laws_hold(a in arb_delta(), b in arb_delta(), c in arb_delta()) {
        // Commutativity, associativity, idempotence — by value and digest.
        prop_assert_eq!(a.join(&b), b.join(&a));
        prop_assert_eq!(a.join(&b).join(&c), a.join(&b.join(&c)));
        prop_assert_eq!(a.join(&a), a.clone());
        prop_assert_eq!(a.join(&b).digest(), b.join(&a).digest());
        // Bottom is the identity.
        prop_assert_eq!(a.join(&ConfigDelta::new()), a.clone());
    }

    #[test]
    fn join_all_is_permutation_invariant(
        deltas in prop::collection::vec(arb_delta(), 1..5),
        rotate in 0usize..5,
        apply_seed in 1u32..10,
    ) {
        let joined = ConfigDelta::join_all(&deltas);
        // A rotation plus a reversal cover enough of the permutation group
        // given commutativity + associativity already hold pairwise.
        let k = rotate % deltas.len();
        let mut rotated: Vec<_> = deltas[k..].to_vec();
        rotated.extend_from_slice(&deltas[..k]);
        prop_assert_eq!(ConfigDelta::join_all(&rotated), joined.clone());
        let reversed: Vec<_> = deltas.iter().rev().cloned().collect();
        prop_assert_eq!(ConfigDelta::join_all(&reversed), joined.clone());
        // Applying the same joined delta to the same config is a function.
        let base = GroupConfig::initial(0..MEMBERS, apply_seed);
        prop_assert_eq!(base.apply(&joined).digest(), base.apply(&joined).digest());
    }
}

// ---- protocol-level convergence -----------------------------------------

/// One proposal to fire: the proposer courier sends `delta` at `at`.
struct Shot {
    delta: ConfigDelta,
    at: SimDuration,
}

/// What a run converged to.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    replica_epochs: Vec<u64>,
    replica_digests: Vec<u64>,
    coordinator_digest: u64,
    violations: usize,
}

/// Runs `shots` (all inside one batching round) against a fresh group and
/// reports where every replica ended up.
fn run_round(seed: u64, shots: &[Shot]) -> Outcome {
    let mut sim: Simulation<Msg> = Simulation::new(NetConfig::centurion(), seed);
    sim.spans_mut().enable();
    let replica_nodes: Vec<NodeId> = (1..=MEMBERS).map(NodeId::from_raw).collect();
    let dep = deploy_group(&mut sim, 1, NodeId::from_raw(5), &replica_nodes, 1);
    // Widen the batching round so every staggered shot joins one epoch.
    sim.actor_mut::<GroupCoordinator>(dep.coordinator)
        .expect("coordinator alive")
        .set_round_delay(SimDuration::from_millis(20));
    // One proposer per shot, on distinct nodes so delivery order varies
    // with the seed: advance to each shot time and fire from a courier.
    let mut order: Vec<usize> = (0..shots.len()).collect();
    order.sort_by_key(|&i| shots[i].at);
    let mut now = SimDuration::ZERO;
    for i in order {
        let shot = &shots[i];
        if shot.at > now {
            sim.run_for(shot.at - now);
            now = shot.at;
        }
        let proposer = sim.spawn(NodeId::from_raw(6 + i as u32), Courier::default());
        let delta = shot.delta.clone();
        sim.with_actor::<Courier, _>(proposer, |_, ctx| {
            let call = CallId::from_raw(ctx.fresh_u64());
            ctx.send(
                dep.coordinator,
                Msg::Control {
                    call,
                    target: dep.coordinator_object,
                    op: ControlOp::new(ProposeConfig { group: 1, delta }),
                },
            );
        });
    }
    sim.run_for(SimDuration::from_secs(1));
    sim.run_until_idle();

    let mut replica_epochs = Vec::new();
    let mut replica_digests = Vec::new();
    for r in &dep.replicas {
        let rep = sim.actor::<GroupReplica>(r.actor).expect("replica alive");
        replica_epochs.push(rep.epoch());
        replica_digests.push(rep.config().digest());
    }
    let coordinator_digest = sim
        .actor::<GroupCoordinator>(dep.coordinator)
        .expect("coordinator alive")
        .config()
        .digest();
    Outcome {
        replica_epochs,
        replica_digests,
        coordinator_digest,
        violations: check_trace_invariants(sim.spans()).len(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn concurrent_proposals_join_to_one_epoch(
        seed in 0u64..1_000_000,
        deltas in prop::collection::vec(arb_delta(), 1..4),
        staggers in prop::collection::vec(0u64..15, 3),
    ) {
        let shots: Vec<Shot> = deltas
            .iter()
            .zip(&staggers)
            .map(|(d, &ms)| Shot {
                delta: d.clone(),
                at: SimDuration::from_millis(ms),
            })
            .collect();
        let seq = run_round(seed, &shots);

        // All proposals landed in one round: every replica is at epoch 1
        // with the digest predicted by the pure lattice.
        let joined = ConfigDelta::join_all(deltas.iter());
        let expected = GroupConfig::initial(0..MEMBERS, 1).apply(&joined).digest();
        for (&e, &d) in seq.replica_epochs.iter().zip(&seq.replica_digests) {
            prop_assert_eq!(e, 1, "replica converged to the joined epoch");
            prop_assert_eq!(d, expected, "replica config matches the lattice oracle");
        }
        prop_assert_eq!(seq.coordinator_digest, expected);
        prop_assert_eq!(seq.violations, 0, "no invariant violations");
    }
}
