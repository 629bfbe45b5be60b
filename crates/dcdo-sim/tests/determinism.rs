//! Property tests: the simulator is deterministic and its network model is
//! physically sensible.

use dcdo_sim::{
    Actor, ActorId, Ctx, NetConfig, NodeId, Payload, SimDuration, SimRng, SimTime, Simulation,
    TransferModel,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Job {
    tag: u32,
    size: u64,
}

impl Payload for Job {
    fn wire_size(&self) -> u64 {
        self.size
    }
}

/// Echo server that replies after a random think time.
struct Worker;

impl Actor<Job> for Worker {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Job>, from: ActorId, msg: Job) {
        let think = ctx
            .rng()
            .duration_between(SimDuration::from_micros(10), SimDuration::from_micros(500));
        // Model think time by delaying the reply with a timer-free trick:
        // send the reply now; the jittered network provides the variance we
        // want for the determinism check.
        let _ = think;
        ctx.send(
            from,
            Job {
                tag: msg.tag,
                size: 64,
            },
        );
    }
}

#[derive(Default)]
struct Origin {
    completions: Vec<(u32, SimTime)>,
}

impl Actor<Job> for Origin {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Job>, _from: ActorId, msg: Job) {
        let now = ctx.now();
        self.completions.push((msg.tag, now));
    }
}

fn run_workload(seed: u64, sizes: &[u64], nodes: u32) -> Vec<(u32, SimTime)> {
    let mut sim = Simulation::new(NetConfig::centurion(), seed);
    let origin = sim.spawn(NodeId::from_raw(0), Origin::default());
    let workers: Vec<ActorId> = (0..nodes)
        .map(|n| sim.spawn(NodeId::from_raw(n % 16), Worker))
        .collect();
    for (i, &size) in sizes.iter().enumerate() {
        let dst = workers[i % workers.len()];
        sim.post(
            origin,
            dst,
            Job {
                tag: i as u32,
                size,
            },
        );
    }
    sim.run_until_idle();
    sim.actor::<Origin>(origin)
        .expect("origin alive")
        .completions
        .clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The same seed and workload yields the exact same completion trace.
    #[test]
    fn identical_seeds_identical_traces(
        seed in any::<u64>(),
        sizes in prop::collection::vec(1u64..100_000, 1..40),
        nodes in 1u32..8,
    ) {
        let a = run_workload(seed, &sizes, nodes);
        let b = run_workload(seed, &sizes, nodes);
        prop_assert_eq!(a, b);
    }

    /// Completion timestamps never decrease along the event order.
    #[test]
    fn event_times_monotone(
        seed in any::<u64>(),
        sizes in prop::collection::vec(1u64..100_000, 1..40),
    ) {
        let trace = run_workload(seed, &sizes, 4);
        prop_assert_eq!(trace.len(), sizes.len());
        for w in trace.windows(2) {
            prop_assert!(w[0].1 <= w[1].1);
        }
    }

    /// Transfer time is monotone in size and always at least the setup cost.
    #[test]
    fn transfer_time_monotone(a in 0u64..100_000_000, b in 0u64..100_000_000) {
        let m = TransferModel::legion_file_transfer();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(m.transfer_time(lo) <= m.transfer_time(hi));
        prop_assert!(m.transfer_time(lo) >= m.setup);
    }

    /// Serialization time scales linearly with message size.
    #[test]
    fn serialization_linear(bytes in 1u64..10_000_000) {
        let cfg = NetConfig::centurion();
        let one = cfg.serialization_time(bytes).as_secs_f64();
        let two = cfg.serialization_time(bytes * 2).as_secs_f64();
        prop_assert!((two - 2.0 * one).abs() < 1e-9);
    }

    /// Jitter bands contain the base value's scaled envelope for any seed.
    #[test]
    fn jitter_band(seed in any::<u64>(), micros in 1u64..1_000_000, frac in 0.0f64..0.5) {
        let mut rng = SimRng::seed_from_u64(seed);
        let base = SimDuration::from_micros(micros);
        let j = rng.jitter(base, frac);
        // Allow one nanosecond of rounding slack at each edge.
        let lo = base.mul_f64((1.0 - frac).max(0.0)).saturating_sub(SimDuration::from_nanos(1));
        let hi = base.mul_f64(1.0 + frac) + SimDuration::from_nanos(1);
        prop_assert!(j >= lo && j <= hi, "jitter {j} outside [{lo}, {hi}]");
    }
}

#[test]
fn identical_seeds_produce_identical_traces_verbatim() {
    let run = |seed: u64| -> String {
        let mut sim = Simulation::new(NetConfig::centurion(), seed);
        sim.trace_mut().enable(10_000);
        let origin = sim.spawn(NodeId::from_raw(0), Origin::default());
        let workers: Vec<_> = (0..4)
            .map(|n| sim.spawn(NodeId::from_raw(n + 1), Worker))
            .collect();
        for i in 0..30u32 {
            sim.post(
                origin,
                workers[i as usize % workers.len()],
                Job {
                    tag: i,
                    size: 100 + u64::from(i) * 37,
                },
            );
        }
        sim.run_until_idle();
        sim.trace().render()
    };
    let a = run(99);
    assert!(!a.is_empty());
    assert_eq!(a, run(99), "the golden trace is bit-identical across runs");
    assert_ne!(a, run(100), "different seeds produce different traces");
}

/// Lane isolation: the names the engine mints for a node's handlers — RNG
/// draws, fresh `u64`s, timer ids, actor ids, span ids — come from that
/// node's lane alone, so node 0's history is the same whether or not other
/// nodes are busy.
mod lane_isolation {
    use super::Job;
    use dcdo_sim::{
        Actor, ActorId, Ctx, NetConfig, NodeId, SimDuration, Simulation, SpanId, TimerId,
    };

    const ROUNDS: u64 = 12;

    /// Every name minted for one actor's handler, in order.
    #[derive(Debug, Default, Clone, PartialEq)]
    struct Minted {
        draws: Vec<u64>,
        fresh: Vec<u64>,
        timers: Vec<TimerId>,
        actors: Vec<ActorId>,
        spans: Vec<Option<SpanId>>,
    }

    struct Idle;

    impl Actor<Job> for Idle {
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Job>, _from: ActorId, _msg: Job) {}
    }

    /// Timer-driven: each round mints one name of every kind and records it.
    #[derive(Default)]
    struct Probe {
        minted: Minted,
    }

    impl Actor<Job> for Probe {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Job>, _from: ActorId, _msg: Job) {
            self.minted.spans.push(ctx.current_span());
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, Job>, token: u64) {
            let m = &mut self.minted;
            m.draws.push(ctx.rng().range_u64(0, u64::MAX));
            m.fresh.push(ctx.fresh_u64());
            m.spans.push(ctx.current_span());
            let node = ctx.node();
            m.actors.push(ctx.spawn(node, Box::new(Idle)));
            // A same-node send: keyed by this lane's event counter.
            let me = ctx.self_id();
            ctx.send(me, Job { tag: 0, size: 64 });
            if token < ROUNDS {
                m.timers
                    .push(ctx.schedule_timer(SimDuration::from_millis(3), token + 1));
            }
        }
    }

    /// Unrelated load: draws, mints and sends across nodes 1–3.
    struct Chatter {
        peer: Option<ActorId>,
    }

    impl Actor<Job> for Chatter {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Job>, _from: ActorId, _msg: Job) {
            ctx.fresh_u64();
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, Job>, token: u64) {
            let size = ctx.rng().range_u64(64, 4096);
            ctx.fresh_u64();
            let node = ctx.node();
            ctx.spawn(node, Box::new(Idle));
            let peer = self.peer.expect("wired before the run");
            ctx.send(peer, Job { tag: 0, size });
            if token < 5 * ROUNDS {
                ctx.schedule_timer(SimDuration::from_micros(700), token + 1);
            }
        }
    }

    fn node0_history(seed: u64, with_chatter: bool) -> Minted {
        let mut sim = Simulation::new(NetConfig::centurion(), seed);
        sim.spans_mut().enable();
        let probe = sim.spawn(NodeId::from_raw(0), Probe::default());
        sim.schedule_timer_for(probe, SimDuration::from_millis(1), 0);
        if with_chatter {
            let chatters: Vec<ActorId> = (1..=3)
                .map(|n| sim.spawn(NodeId::from_raw(n), Chatter { peer: None }))
                .collect();
            for (i, &c) in chatters.iter().enumerate() {
                let peer = chatters[(i + 1) % chatters.len()];
                sim.actor_mut::<Chatter>(c).expect("alive").peer = Some(peer);
                sim.schedule_timer_for(c, SimDuration::from_millis(1), 0);
            }
        }
        sim.run_until_idle();
        sim.actor::<Probe>(probe).expect("alive").minted.clone()
    }

    #[test]
    fn a_lanes_history_does_not_depend_on_other_lanes() {
        let alone = node0_history(11, false);
        assert_eq!(alone.draws.len() as u64, ROUNDS + 1);
        assert_eq!(alone.timers.len() as u64, ROUNDS);
        assert_eq!(alone.spans.len() as u64, 2 * (ROUNDS + 1));
        assert!(alone.spans.iter().all(Option::is_some));
        assert_eq!(alone, node0_history(11, true));
        assert_ne!(alone.draws, node0_history(12, false).draws);
    }
}

/// Golden-trace pinning: the exact event order of the engine, hashed.
///
/// These hashes pin the observable event order of the lane-structured
/// engine (per-lane `(time, lane, seq)` keys and per-lane RNG streams).
/// The ping-pong and timer-heavy constants were re-captured when lanes were
/// introduced — per-lane RNG streams legitimately re-jitter arrival times,
/// and per-lane sub-keys reorder same-tick events across lanes — while the
/// fan-out constant survived from the seed engine unchanged (single-hub
/// FIFO order is lane-invariant). If one of these fails, event ordering
/// changed — that is a correctness bug, not a test to update.
mod golden_trace {
    // FNV-1a: stable across platforms and Rust versions (unlike
    // `DefaultHasher`).
    use dcdo_sim::{
        fnv1a, Actor, ActorId, Ctx, NetConfig, NodeId, Payload, SimDuration, Simulation, TimerId,
    };

    #[derive(Debug, Clone)]
    struct Packet {
        tag: u32,
        size: u64,
    }

    impl Payload for Packet {
        fn wire_size(&self) -> u64 {
            self.size
        }
    }

    /// Ping-pong: two actors volley a packet back and forth `rounds` times
    /// over the jittered centurion network (exercises the time-ordered heap
    /// path with RNG-perturbed arrival times).
    struct Volley {
        remaining: u32,
    }

    impl Actor<Packet> for Volley {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Packet>, from: ActorId, msg: Packet) {
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.send(
                    from,
                    Packet {
                        tag: msg.tag + 1,
                        size: 64 + u64::from(msg.tag % 7) * 100,
                    },
                );
            }
        }
    }

    fn ping_pong_trace() -> String {
        let mut sim = Simulation::new(NetConfig::centurion(), 7);
        sim.trace_mut().enable(100_000);
        let a = sim.spawn(NodeId::from_raw(0), Volley { remaining: 40 });
        let b = sim.spawn(NodeId::from_raw(1), Volley { remaining: 40 });
        sim.post(a, b, Packet { tag: 0, size: 64 });
        sim.run_until_idle();
        sim.trace().render()
    }

    /// Fan-out: a hub broadcasts to every spoke each round; each spoke acks;
    /// when all acks are in, the next round starts. Run on the instant
    /// network so every delivery is same-tick (exercises the FIFO ring path
    /// and seq-order tie-breaking).
    struct Hub {
        spokes: Vec<ActorId>,
        rounds_remaining: u32,
        acks_pending: u32,
    }

    impl Hub {
        fn broadcast(&mut self, ctx: &mut Ctx<'_, Packet>, tag: u32) {
            self.acks_pending = self.spokes.len() as u32;
            for &s in &self.spokes.clone() {
                ctx.send(s, Packet { tag, size: 256 });
            }
        }
    }

    impl Actor<Packet> for Hub {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Packet>, _from: ActorId, _msg: Packet) {
            self.acks_pending -= 1;
            if self.acks_pending == 0 && self.rounds_remaining > 0 {
                self.rounds_remaining -= 1;
                let tag = self.rounds_remaining;
                self.broadcast(ctx, tag);
            }
        }
    }

    struct Spoke {
        hub: ActorId,
    }

    impl Actor<Packet> for Spoke {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Packet>, _from: ActorId, msg: Packet) {
            ctx.send(
                self.hub,
                Packet {
                    tag: msg.tag,
                    size: 64,
                },
            );
        }
    }

    fn fan_out_trace() -> String {
        let mut sim = Simulation::new(NetConfig::instant(), 11);
        sim.trace_mut().enable(100_000);
        let hub = sim.spawn(
            NodeId::from_raw(0),
            Hub {
                spokes: Vec::new(),
                rounds_remaining: 12,
                acks_pending: 0,
            },
        );
        let spokes: Vec<ActorId> = (0..6)
            .map(|i| sim.spawn(NodeId::from_raw(i % 16), Spoke { hub }))
            .collect();
        sim.actor_mut::<Hub>(hub).expect("alive").spokes = spokes;
        // Kick off round one via a self-ack.
        sim.actor_mut::<Hub>(hub).expect("alive").acks_pending = 1;
        sim.post(hub, hub, Packet { tag: 0, size: 64 });
        sim.run_until_idle();
        sim.trace().render()
    }

    /// Timer-heavy: each fire schedules a keeper and a decoy and cancels the
    /// decoy — the retry-timer-cancelled-by-reply pattern that dominates the
    /// RPC layer (exercises cancellation bookkeeping and timer ordering,
    /// including same-tick timers against same-tick deliveries).
    struct TimerStorm {
        fires_remaining: u32,
        decoy: Option<TimerId>,
    }

    impl Actor<Packet> for TimerStorm {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Packet>, _from: ActorId, msg: Packet) {
            ctx.schedule_timer(SimDuration::ZERO, u64::from(msg.tag));
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, Packet>, token: u64) {
            if let Some(decoy) = self.decoy.take() {
                ctx.cancel_timer(decoy);
            }
            if self.fires_remaining == 0 {
                return;
            }
            self.fires_remaining -= 1;
            let step = SimDuration::from_micros(10 + (token % 5) * 3);
            ctx.schedule_timer(step, token + 1);
            let decoy = ctx.schedule_timer(step * 2, token + 1_000_000);
            self.decoy = Some(decoy);
            if self.fires_remaining.is_multiple_of(5) {
                // A same-tick self-delivery racing the same-tick timer it
                // schedules in on_message: pins ring-vs-heap tie-breaking.
                let me = ctx.self_id();
                ctx.send(
                    me,
                    Packet {
                        tag: (token % 97) as u32,
                        size: 64,
                    },
                );
            }
        }
    }

    fn timer_heavy_trace() -> String {
        let mut sim = Simulation::new(NetConfig::instant(), 13);
        sim.trace_mut().enable(100_000);
        let actors: Vec<ActorId> = (0..3)
            .map(|i| {
                sim.spawn(
                    NodeId::from_raw(i),
                    TimerStorm {
                        fires_remaining: 25,
                        decoy: None,
                    },
                )
            })
            .collect();
        for (i, &a) in actors.iter().enumerate() {
            sim.post(
                a,
                a,
                Packet {
                    tag: i as u32,
                    size: 64,
                },
            );
        }
        sim.run_until_idle();
        sim.trace().render()
    }

    #[test]
    fn golden_ping_pong_event_order_is_pinned() {
        let trace = ping_pong_trace();
        assert!(!trace.is_empty());
        assert_eq!(fnv1a(trace.as_bytes()), GOLDEN_PING_PONG, "\n{trace}");
    }

    #[test]
    fn golden_fan_out_event_order_is_pinned() {
        let trace = fan_out_trace();
        assert!(!trace.is_empty());
        assert_eq!(fnv1a(trace.as_bytes()), GOLDEN_FAN_OUT, "\n{trace}");
    }

    #[test]
    fn golden_timer_heavy_event_order_is_pinned() {
        let trace = timer_heavy_trace();
        assert!(!trace.is_empty());
        assert_eq!(fnv1a(trace.as_bytes()), GOLDEN_TIMER_HEAVY, "\n{trace}");
    }

    // Ping-pong and timer-heavy: captured at the lane-structured engine
    // introduction; fan-out: captured from the seed engine (BinaryHeap +
    // tombstone HashSet) and unchanged since. See the module docs.
    const GOLDEN_PING_PONG: u64 = 15442814594347510452;
    const GOLDEN_FAN_OUT: u64 = 6123350677609424778;
    const GOLDEN_TIMER_HEAVY: u64 = 321700192501723950;
}

/// The fault knobs must be free when zeroed: a fault-free configuration
/// draws nothing from the RNG for loss or duplication, so traces are
/// identical whether the knobs are "disabled" or merely set to `0.0`.
mod fault_knob_gating {
    use super::{Job, Origin, Worker};
    use dcdo_sim::{NetConfig, Network, NodeId, SimRng, SimTime, Simulation};

    fn jittered_trace(cfg: NetConfig, seed: u64) -> String {
        let mut sim = Simulation::new(cfg, seed);
        sim.trace_mut().enable(100_000);
        let origin = sim.spawn(NodeId::from_raw(0), Origin::default());
        let workers: Vec<_> = (0..4)
            .map(|n| sim.spawn(NodeId::from_raw(n + 1), Worker))
            .collect();
        for i in 0..50u32 {
            sim.post(
                origin,
                workers[i as usize % workers.len()],
                Job {
                    tag: i,
                    size: 100 + u64::from(i) * 53,
                },
            );
        }
        sim.run_until_idle();
        sim.trace().render()
    }

    #[test]
    fn zeroed_duplicate_knob_leaves_fault_free_traces_unchanged() {
        for seed in [3u64, 41, 977] {
            let base = NetConfig::centurion();
            let mut explicit = NetConfig::centurion();
            explicit.duplicate_rate = 0.0;
            explicit.loss_rate = 0.0;
            assert_eq!(
                jittered_trace(base, seed),
                jittered_trace(explicit, seed),
                "zero-valued fault knobs shifted the RNG stream (seed {seed})"
            );
        }
    }

    #[test]
    fn nonzero_duplicate_knob_actually_perturbs_traces() {
        // Guards the previous test against vacuity: the knob is live, so
        // its zero case being free is a real property, not a dead branch.
        let base = NetConfig::centurion();
        let mut dup = NetConfig::centurion();
        dup.duplicate_rate = 0.5;
        assert_ne!(jittered_trace(base, 3), jittered_trace(dup, 3));
    }

    #[test]
    fn fault_free_remote_plans_draw_nothing_from_the_rng() {
        let mut cfg = NetConfig::centurion();
        cfg.jitter_frac = 0.0;
        let mut net = Network::new(cfg);
        let mut used = SimRng::seed_from_u64(9);
        let mut untouched = SimRng::seed_from_u64(9);
        for i in 0..100u64 {
            net.plan(
                SimTime::ZERO,
                NodeId::from_raw(0),
                NodeId::from_raw(1),
                64 + i,
                &mut used,
            );
        }
        assert_eq!(
            used.fork_seed(),
            untouched.fork_seed(),
            "a fault-free plan consumed an RNG draw"
        );
    }

    #[test]
    fn same_node_plans_bypass_faults_and_the_rng() {
        // Even with every knob hot, local traffic must not touch the RNG.
        let mut cfg = NetConfig::centurion();
        cfg.loss_rate = 0.5;
        cfg.duplicate_rate = 0.5;
        cfg.jitter_frac = 0.25;
        let mut net = Network::new(cfg);
        let mut used = SimRng::seed_from_u64(10);
        let mut untouched = SimRng::seed_from_u64(10);
        for i in 0..100u64 {
            net.plan(
                SimTime::ZERO,
                NodeId::from_raw(3),
                NodeId::from_raw(3),
                64 + i,
                &mut used,
            );
        }
        assert_eq!(used.fork_seed(), untouched.fork_seed());
    }
}

mod net_props {
    use dcdo_sim::{DeliveryPlan, NetConfig, Network, NodeId, SimRng, SimTime};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Remote deliveries never arrive before propagation latency, and
        /// successive sends from one node arrive in order (egress FIFO).
        #[test]
        fn remote_arrivals_respect_latency_and_fifo(
            seed in any::<u64>(),
            sizes in prop::collection::vec(1u64..500_000, 1..20),
        ) {
            let mut cfg = NetConfig::centurion();
            cfg.jitter_frac = 0.0;
            let latency = cfg.latency;
            let mut net = Network::new(cfg);
            let mut rng = SimRng::seed_from_u64(seed);
            let a = NodeId::from_raw(0);
            let b = NodeId::from_raw(1);
            let mut last = SimTime::ZERO;
            for size in sizes {
                match net.plan(SimTime::ZERO, a, b, size, &mut rng) {
                    DeliveryPlan::Deliver(t) => {
                        prop_assert!(t >= SimTime::ZERO + latency);
                        prop_assert!(t >= last, "egress is FIFO");
                        last = t;
                    }
                    other => prop_assert!(false, "unexpected plan {other:?}"),
                }
            }
        }

        /// With loss injection at rate p, the loss counter matches the
        /// number of Lost plans exactly.
        #[test]
        fn loss_accounting_is_exact(seed in any::<u64>(), p in 0.0f64..1.0) {
            let mut cfg = NetConfig::centurion();
            cfg.loss_rate = p;
            let mut net = Network::new(cfg);
            let mut rng = SimRng::seed_from_u64(seed);
            let mut lost = 0;
            for i in 0..200u64 {
                let plan = net.plan(
                    SimTime::ZERO,
                    NodeId::from_raw(0),
                    NodeId::from_raw(1),
                    64 + i,
                    &mut rng,
                );
                if plan == DeliveryPlan::Lost {
                    lost += 1;
                }
            }
            prop_assert_eq!(net.messages_lost(), lost);
            prop_assert_eq!(net.messages_sent(), 200);
        }
    }
}
