//! Property tests: fault plans replay bit-identically, and crashes leave no
//! leaked events behind.

use dcdo_chaos::{trace_hash, ChaosController, FaultPlan};
use dcdo_sim::{Actor, ActorId, Ctx, NetConfig, NodeId, Payload, SimDuration, Simulation};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Ping(u32);

impl Payload for Ping {
    fn clone_for_redelivery(&self) -> Option<Self> {
        Some(self.clone())
    }
}

const TICK: u64 = 0;

/// Sends a ping to each peer on a periodic timer; echoes pings back.
struct Gossip {
    peers: Vec<ActorId>,
    period: SimDuration,
    sent: u32,
    heard: u32,
}

impl Gossip {
    fn new(period: SimDuration) -> Self {
        Gossip {
            peers: Vec::new(),
            period,
            sent: 0,
            heard: 0,
        }
    }
}

impl Actor<Ping> for Gossip {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Ping>, from: ActorId, msg: Ping) {
        self.heard += 1;
        // Echo odd-tagged pings once so traffic flows both ways.
        if msg.0 % 2 == 1 {
            ctx.send(from, Ping(msg.0 + 1));
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Ping>, _token: u64) {
        for &peer in &self.peers.clone() {
            self.sent += 1;
            ctx.send(peer, Ping(self.sent * 2 + 1));
        }
        ctx.schedule_timer(self.period, TICK);
    }

    fn name(&self) -> &str {
        "gossip"
    }
}

/// Spawns one gossip actor per node (node 0 is the chaos observer) and lets
/// them ping each other under `plan` for `horizon`. Returns the sim.
fn run_gossip(seed: u64, nodes: u32, plan: FaultPlan, horizon: SimDuration) -> Simulation<Ping> {
    let mut sim = Simulation::new(NetConfig::centurion(), seed);
    sim.trace_mut().enable(1 << 16);
    let actors: Vec<ActorId> = (1..=nodes)
        .map(|n| {
            sim.spawn(
                NodeId::from_raw(n),
                Gossip::new(SimDuration::from_millis(700 + u64::from(n) * 130)),
            )
        })
        .collect();
    for (i, &a) in actors.iter().enumerate() {
        let peers: Vec<ActorId> = actors.iter().copied().filter(|&p| p != a).collect();
        sim.actor_mut::<Gossip>(a).expect("alive").peers = peers;
        sim.schedule_timer_for(a, SimDuration::from_millis(50 * (i as u64 + 1)), TICK);
    }
    ChaosController::install(&mut sim, NodeId::from_raw(0), plan);
    sim.run_for(horizon);
    sim
}

fn sample_plan() -> FaultPlan {
    FaultPlan::new()
        .crash_for(
            SimDuration::from_secs(2),
            SimDuration::from_secs(3),
            NodeId::from_raw(2),
        )
        .partition_at(
            SimDuration::from_secs(6),
            &[
                vec![NodeId::from_raw(1)],
                vec![NodeId::from_raw(2), NodeId::from_raw(3)],
            ],
        )
        .heal_at(SimDuration::from_secs(8))
}

#[test]
fn same_plan_and_seed_replay_to_identical_trace_hashes() {
    let horizon = SimDuration::from_secs(10);
    let a = run_gossip(7, 3, sample_plan(), horizon);
    let b = run_gossip(7, 3, sample_plan(), horizon);
    let ha = trace_hash(a.trace());
    let hb = trace_hash(b.trace());
    assert_eq!(ha, hb, "same seed + plan must replay bit-identically");
    assert!(!a.node_crashes().is_empty());
    assert!(a.network().stats().unreachable >= 1);

    // A different seed perturbs network jitter and thus the trace.
    let c = run_gossip(8, 3, sample_plan(), horizon);
    assert_ne!(ha, trace_hash(c.trace()), "seed must matter");
}

#[test]
fn crash_restart_cycle_leaves_no_leaked_events() {
    let plan = FaultPlan::new().crash_for(
        SimDuration::from_secs(1),
        SimDuration::from_secs(1),
        NodeId::from_raw(3),
    );
    let mut sim = run_gossip(11, 3, plan, SimDuration::from_secs(4));
    // The dead node's gossip actor lost its periodic timer in the crash, so
    // once the survivors' horizon traffic drains the queue must empty...
    assert!(sim.timers_cancelled_by_crash() >= 1);
    // ...except for the survivors' own periodic timers, which we stop by
    // crashing the remaining gossip nodes (the observer node 0 has no
    // timers of its own once the plan is exhausted).
    sim.crash_node(NodeId::from_raw(1));
    sim.crash_node(NodeId::from_raw(2));
    sim.run_until_idle();
    assert_eq!(
        sim.pending_events(),
        0,
        "crashed actors must not leak timers or messages"
    );
}

#[test]
fn controller_reports_applied_actions() {
    let sim = run_gossip(5, 3, sample_plan(), SimDuration::from_secs(10));
    let controllers: Vec<_> = sim
        .actors_on(NodeId::from_raw(0))
        .into_iter()
        .filter_map(|id| sim.actor::<ChaosController<Ping>>(id))
        .collect();
    assert_eq!(controllers.len(), 1);
    let stats = controllers[0].stats();
    assert_eq!(stats.crashes, 1);
    assert_eq!(stats.restarts, 1);
    assert_eq!(stats.partitions, 1);
    assert_eq!(stats.heals, 1);
    assert_eq!(stats.total(), 4);
    assert_eq!(controllers[0].remaining(), 0);
}

#[test]
fn empty_plan_applies_nothing() {
    let sim = run_gossip(9, 2, FaultPlan::new(), SimDuration::from_secs(1));
    assert_eq!(sim.metrics().counter("chaos.actions_applied"), 0);
    assert!(sim.node_crashes().is_empty());
}

#[test]
#[should_panic(expected = "crashed by its own plan")]
fn installing_a_plan_that_crashes_the_controller_panics() {
    let mut sim: Simulation<Ping> = Simulation::new(NetConfig::centurion(), 1);
    let plan = FaultPlan::new().crash_at(SimDuration::from_secs(1), NodeId::from_raw(0));
    ChaosController::install(&mut sim, NodeId::from_raw(0), plan);
}

/// Strategy: a small random fault plan over nodes 1..=3 (node 0 is the
/// observer and never crashed).
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    let action = prop_oneof![
        (1u32..=3, 1u64..8000).prop_map(|(n, ms)| (ms, 0u8, n)),
        (1u32..=3, 1u64..8000).prop_map(|(n, ms)| (ms, 1u8, n)),
        (1u64..8000).prop_map(|ms| (ms, 2u8, 0u32)),
        (1u64..8000).prop_map(|ms| (ms, 3u8, 0u32)),
    ];
    prop::collection::vec(action, 0..6).prop_map(|actions| {
        let mut plan = FaultPlan::new();
        for (ms, kind, node) in actions {
            let at = SimDuration::from_millis(ms);
            plan = match kind {
                0 => plan.crash_at(at, NodeId::from_raw(node)),
                1 => plan.restart_at(at, NodeId::from_raw(node)),
                2 => plan.partition_at(
                    at,
                    &[
                        vec![NodeId::from_raw(1)],
                        vec![NodeId::from_raw(2), NodeId::from_raw(3)],
                    ],
                ),
                _ => plan.heal_at(at),
            };
        }
        plan
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arbitrary_plans_replay_bit_identically(seed in 0u64..1_000_000, plan in arb_plan()) {
        let horizon = SimDuration::from_secs(9);
        let a = run_gossip(seed, 3, plan.clone(), horizon);
        let b = run_gossip(seed, 3, plan, horizon);
        prop_assert_eq!(trace_hash(a.trace()), trace_hash(b.trace()));
        prop_assert_eq!(a.events_processed(), b.events_processed());
        prop_assert_eq!(a.network().stats(), b.network().stats());
    }
}
