//! Engine robustness: large actor populations, timer storms, budget
//! enforcement, and nearest-rank quantile properties.

use dcdo_sim::{
    nearest_rank, Actor, ActorId, Ctx, NetConfig, NodeId, Payload, SimDuration, Simulation,
};
use proptest::prelude::*;

#[derive(Debug)]
struct Token(u32);

impl Payload for Token {}

/// Forwards each token around a ring a fixed number of laps.
struct RingNode {
    next: Option<ActorId>,
    laps_remaining: u32,
    seen: u32,
}

impl Actor<Token> for RingNode {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Token>, _from: ActorId, msg: Token) {
        self.seen += 1;
        if let Some(next) = self.next {
            if msg.0 > 0 {
                ctx.send(next, Token(msg.0 - 1));
            }
        }
        let _ = self.laps_remaining;
    }
}

#[test]
fn thousand_actor_ring_drains() {
    let n = 1000u32;
    let mut sim = Simulation::new(NetConfig::centurion(), 1);
    let ids: Vec<ActorId> = (0..n)
        .map(|i| {
            sim.spawn(
                NodeId::from_raw(i % 16),
                RingNode {
                    next: None,
                    laps_remaining: 0,
                    seen: 0,
                },
            )
        })
        .collect();
    for (i, id) in ids.iter().enumerate() {
        let next = ids[(i + 1) % ids.len()];
        sim.actor_mut::<RingNode>(*id).expect("alive").next = Some(next);
    }
    // 5 laps around the 1000-node ring.
    sim.post(ids[0], ids[0], Token(5 * n));
    let events = sim.run_until_idle();
    assert!(events >= (5 * n) as u64);
    let total_seen: u32 = ids
        .iter()
        .map(|id| sim.actor::<RingNode>(*id).expect("alive").seen)
        .sum();
    assert_eq!(total_seen, 5 * n + 1);
}

/// An actor that reschedules itself forever.
struct Forever;

impl Actor<Token> for Forever {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Token>, _from: ActorId, _msg: Token) {
        ctx.schedule_timer(SimDuration::from_nanos(1), 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Token>, _token: u64) {
        ctx.schedule_timer(SimDuration::from_nanos(1), 0);
    }
}

#[test]
#[should_panic(expected = "event budget")]
fn runaway_loops_hit_the_budget_backstop() {
    let mut sim = Simulation::new(NetConfig::instant(), 2);
    let a = sim.spawn(NodeId::from_raw(0), Forever);
    sim.post(a, a, Token(0));
    sim.run_with_budget(10_000);
}

/// Sink for the cancelled-timer storm; counts any timer that actually fires.
#[derive(Default)]
struct TimerSink {
    fired: u64,
}

impl Actor<Token> for TimerSink {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Token>, _from: ActorId, _msg: Token) {}
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, Token>, _token: u64) {
        self.fired += 1;
    }
}

/// Scheduling and cancelling a million timers must not grow the event
/// queue: cancellation removes the entry immediately (no tombstones), and
/// freed slots are reused. The seed engine kept every cancelled timer in
/// the heap plus a tombstone-set entry until its deadline, so this exact
/// workload grew the queue to ~2M entries; the indexed heap keeps the
/// high-water mark at the in-flight batch size.
#[test]
fn million_cancelled_timers_stay_bounded() {
    const BATCH: usize = 64;
    const BATCHES: usize = 1_000_000 / BATCH;
    let mut sim = Simulation::new(NetConfig::instant(), 5);
    let sink = sim.spawn(NodeId::from_raw(0), TimerSink::default());
    let mut ids = Vec::with_capacity(BATCH);
    for batch in 0..BATCHES {
        for i in 0..BATCH {
            let delay = SimDuration::from_micros(1 + ((batch + i) % 17) as u64);
            ids.push(sim.schedule_timer_for(sink, delay, i as u64));
        }
        for id in ids.drain(..) {
            sim.cancel_timer(id);
        }
    }
    assert_eq!(sim.pending_events(), 0, "every timer was cancelled");
    assert!(
        sim.peak_pending_events() <= BATCH,
        "queue high-water mark {} exceeds the in-flight batch size {BATCH}: \
         cancelled timers are accumulating",
        sim.peak_pending_events()
    );
    // None of the million cancelled timers may fire.
    sim.run_until_idle();
    assert_eq!(sim.actor::<TimerSink>(sink).expect("alive").fired, 0);
    assert_eq!(sim.events_processed(), 0);
}

/// Cancelling timers out of insertion order (newest-first, then a shuffled
/// pattern) exercises hole-punching in the middle of the heap rather than
/// just root removal.
#[test]
fn out_of_order_cancellation_is_exact() {
    let mut sim = Simulation::new(NetConfig::instant(), 6);
    let sink = sim.spawn(NodeId::from_raw(0), TimerSink::default());
    let ids: Vec<_> = (0..1_000u64)
        .map(|i| sim.schedule_timer_for(sink, SimDuration::from_micros(1 + i % 31), i))
        .collect();
    // Cancel every other timer, newest first.
    for id in ids.iter().rev().step_by(2) {
        sim.cancel_timer(*id);
    }
    assert_eq!(sim.pending_events(), 500);
    sim.run_until_idle();
    assert_eq!(sim.actor::<TimerSink>(sink).expect("alive").fired, 500);
}

#[test]
fn run_until_on_empty_queue_advances_the_clock() {
    let mut sim = Simulation::<Token>::new(NetConfig::instant(), 3);
    let deadline = dcdo_sim::SimTime::from_nanos(5_000_000_000);
    assert_eq!(sim.run_until(deadline), 0);
    assert_eq!(sim.now(), deadline);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Nearest-rank quantiles are monotone in q and bounded by the
    /// smallest and largest sample.
    #[test]
    fn histogram_quantiles_are_monotone(
        samples in prop::collection::vec(-1e6f64..1e6, 1..200),
        qs in prop::collection::vec(0.0f64..=1.0, 1..8),
    ) {
        let mut sorted = samples;
        sorted.sort_by(f64::total_cmp);
        let (min, max) = (sorted[0], sorted[sorted.len() - 1]);
        let mut sorted_qs = qs.clone();
        sorted_qs.sort_by(f64::total_cmp);
        let mut last = f64::NEG_INFINITY;
        for q in sorted_qs {
            let v = nearest_rank(&sorted, q).expect("nonempty");
            prop_assert!(v >= min && v <= max);
            prop_assert!(v >= last, "quantiles must be monotone");
            last = v;
        }
    }

    /// Every quantile is one of the samples (nearest-rank property).
    #[test]
    fn quantiles_return_recorded_samples(
        samples in prop::collection::vec(-1e6f64..1e6, 1..100),
        q in 0.0f64..=1.0,
    ) {
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let v = nearest_rank(&sorted, q).expect("nonempty");
        prop_assert!(samples.contains(&v));
    }
}
