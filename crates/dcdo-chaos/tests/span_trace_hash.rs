//! `SpanTraceHash` against the ring it replaces: random engine worlds run
//! with the legacy trace ring and the span log switched on together, and
//! the span fold must give `trace_hash(sim.trace())` every time. The same
//! worlds check the flight ring and the timeline against the span log: a
//! replay of the log's executed events must give the engine's frames,
//! digest and per-bucket counts.

use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;

use dcdo_chaos::{trace_hash, SpanTraceHash};
use dcdo_sim::{
    Actor, ActorId, Ctx, FlightFrame, FlightRecorder, NetConfig, NodeId, Payload, SendVerdict,
    SimDuration, SimRng, Simulation, SpanEvent, SpanKind, Timeline, WindowStats,
};

const NODES: u32 = 4;

#[derive(Debug, Clone)]
struct Hop(u32);

impl Payload for Hop {
    fn clone_for_redelivery(&self) -> Option<Self> {
        Some(self.clone())
    }
}

/// Every actor spawned so far, shared by the driver and the actors.
type Roster = Rc<RefCell<Vec<ActorId>>>;

/// Forwards hops to random actors, rearms its timer, and now and then
/// spawns a child or kills someone: every structural event the engine has.
struct Chatter {
    roster: Roster,
}

impl Chatter {
    fn pick(&self, ctx: &mut Ctx<'_, Hop>) -> ActorId {
        let roster = self.roster.borrow();
        roster[ctx.rng().range_u64(0, roster.len() as u64) as usize]
    }
}

impl Actor<Hop> for Chatter {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Hop>, _from: ActorId, msg: Hop) {
        if msg.0 > 0 {
            let next = self.pick(ctx);
            ctx.send(next, Hop(msg.0 - 1));
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Hop>, token: u64) {
        let next = self.pick(ctx);
        ctx.send(next, Hop(3));
        match ctx.rng().range_u64(0, 16) {
            0 => {
                let node = NodeId::from_raw(ctx.rng().range_u64(0, NODES as u64) as u32);
                let child = ctx.spawn(
                    node,
                    Box::new(Chatter {
                        roster: self.roster.clone(),
                    }),
                );
                self.roster.borrow_mut().push(child);
            }
            1 => {
                let victim = self.pick(ctx);
                ctx.kill(victim);
            }
            _ => {}
        }
        if token < 40 {
            let delay = SimDuration::from_micros(ctx.rng().range_u64(100, 5_000));
            ctx.schedule_timer(delay, token + 1);
        }
    }
}

/// What one world exercised, so the test can tell it covered its cases.
#[derive(Default)]
struct Seen {
    evicted: bool,
    flight_evicted: bool,
    buckets: usize,
    unreachable: bool,
    dead_letters: bool,
    crashes: bool,
    restarts: bool,
}

/// The timeline's bucket width in the random worlds: a world spans many.
const BUCKET_NS: u64 = 1_000_000;

/// A random world of `seed`: some actors spawned before the sinks are on
/// (they must not count), a ring of `capacity` and a flight ring of as
/// many frames (at least 8), then timers, driver posts, kills, crashes,
/// restarts and partitions between bursts of steps. Every world also
/// schedules a timer for an actor it kills before the timer fires, and one
/// for an id that was never spawned.
fn world(seed: u64, capacity: usize) -> Simulation<Hop> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut sim = Simulation::new(NetConfig::centurion(), seed);
    let roster: Roster = Rc::default();
    let spawn = |sim: &mut Simulation<Hop>, node: u32| {
        let id = sim.spawn(
            NodeId::from_raw(node),
            Chatter {
                roster: roster.clone(),
            },
        );
        roster.borrow_mut().push(id);
        id
    };
    for node in 0..NODES {
        spawn(&mut sim, node);
    }
    sim.trace_mut().enable(capacity);
    sim.spans_mut().enable();
    sim.flight_mut().set_capacity(capacity);
    sim.timeline_mut().set_bucket_ns(BUCKET_NS);

    for (i, &actor) in roster.borrow().clone().iter().enumerate() {
        sim.schedule_timer_for(actor, SimDuration::from_micros(50 * i as u64 + 10), 0);
    }
    // A timer that fires for a killed actor.
    let doomed = spawn(&mut sim, 1);
    sim.schedule_timer_for(doomed, SimDuration::from_millis(2), 7);
    // A timer for an id that was never spawned.
    let never = ActorId::from_raw(u32::MAX);
    sim.schedule_timer_for(never, SimDuration::from_millis(3), 8);

    for round in 0..24 {
        let roster_now = roster.borrow().clone();
        let any = |rng: &mut SimRng| roster_now[rng.range_u64(0, roster_now.len() as u64) as usize];
        match rng.range_u64(0, 8) {
            0 => {
                let node = rng.range_u64(0, NODES as u64) as u32;
                let id = spawn(&mut sim, node);
                sim.schedule_timer_for(id, SimDuration::from_micros(200), 0);
            }
            1 => sim.kill(any(&mut rng)),
            2 => {
                sim.crash_node(NodeId::from_raw(rng.range_u64(1, NODES as u64) as u32));
            }
            3 => sim.restart_node(NodeId::from_raw(rng.range_u64(1, NODES as u64) as u32)),
            4 => sim.set_partition(&[
                vec![NodeId::from_raw(0), NodeId::from_raw(1)],
                vec![NodeId::from_raw(2), NodeId::from_raw(3)],
            ]),
            5 => sim.heal_partition(),
            _ => {}
        }
        for _ in 0..rng.range_u64(1, 6) {
            let (src, dst) = (any(&mut rng), any(&mut rng));
            sim.post(src, dst, Hop(rng.range_u64(0, 6) as u32));
        }
        if round == 2 {
            sim.kill(doomed);
        }
        for _ in 0..rng.range_u64(20, 400) {
            sim.step();
        }
    }
    sim.heal_partition();
    sim.run_until_idle();
    sim
}

/// The fold under test: [`SpanTraceHash`] over `sim`'s span log.
fn span_fold(sim: &Simulation<Hop>, capacity: usize) -> u64 {
    let mut fold = SpanTraceHash::new(sim.structural_spans(), capacity);
    for e in sim.spans().events() {
        fold.observe(e);
    }
    fold.finish()
}

fn is_unreachable_send(kind: &SpanKind) -> bool {
    matches!(
        kind,
        SpanKind::MsgSent {
            verdict: SendVerdict::Unreachable,
            ..
        }
    )
}

/// A planted fault: the same fold, blind to unreachable sends.
fn fold_skipping_unreachable(sim: &Simulation<Hop>, capacity: usize) -> u64 {
    let spans = sim.spans().events();
    let unreachable = spans
        .iter()
        .filter(|e| is_unreachable_send(&e.kind))
        .count();
    let mut fold = SpanTraceHash::new(sim.structural_spans() - unreachable as u64, capacity);
    for e in spans.iter().filter(|e| !is_unreachable_send(&e.kind)) {
        fold.observe(e);
    }
    fold.finish()
}

/// The ring hash and its span fold agree.
fn fold_agrees(sim: &mut Simulation<Hop>, capacity: usize) -> bool {
    span_fold(sim, capacity) == trace_hash(sim.trace())
}

/// The planted fault's fold agrees with the ring hash.
fn skipping_fold_agrees(sim: &mut Simulation<Hop>, capacity: usize) -> bool {
    fold_skipping_unreachable(sim, capacity) == trace_hash(sim.trace())
}

/// The executed event a span records, as its flight-frame code and actor:
/// written out here as the oracle, not taken from the engine's mapping.
fn executed(kind: &SpanKind) -> Option<(u8, u64)> {
    Some(match *kind {
        SpanKind::MsgDelivered { dst, .. } => (SpanKind::DELIVERED, u64::from(dst)),
        SpanKind::MsgDeadLetter { dst, .. } => (SpanKind::DEAD_LETTER, u64::from(dst)),
        SpanKind::TimerFired { actor, .. } => (SpanKind::TIMER, u64::from(actor)),
        SpanKind::NodeCrashed { .. } => (SpanKind::CRASH, 0),
        SpanKind::NodeRestarted { .. } => (SpanKind::RESTART, 0),
        _ => return None,
    })
}

/// A flight ring and a timeline shaped like `sim`'s, fed every executed
/// event of its span log that `keep` lets through.
fn replay(sim: &Simulation<Hop>, keep: fn(&SpanEvent) -> bool) -> (FlightRecorder, Timeline) {
    let mut flight = FlightRecorder::new();
    flight.set_capacity(sim.flight().capacity());
    let mut timeline = Timeline::new();
    timeline.set_bucket_ns(sim.timeline().bucket_ns());
    for e in sim.spans().events().iter().filter(|e| keep(e)) {
        if let Some((code, actor)) = executed(&e.kind) {
            flight.push(FlightFrame::pack(e.at_ns, code, e.node, actor));
            timeline.account(e.at_ns, code);
        }
    }
    timeline.flush();
    (flight, timeline)
}

fn window_stats(timeline: &Timeline) -> Vec<(u64, WindowStats)> {
    timeline.buckets().map(|(i, b)| (i, b.stats)).collect()
}

/// The engine's flight ring and timeline equal the replay `keep` selects:
/// the same frames, digest and total, and the same counts per bucket.
fn sinks_agree_with(sim: &mut Simulation<Hop>, keep: fn(&SpanEvent) -> bool) -> bool {
    sim.timeline_mut().flush();
    let (flight, timeline) = replay(sim, keep);
    let engine = sim.flight();
    engine.frames() == flight.frames()
        && engine.digest() == flight.digest()
        && engine.recorded() == flight.recorded()
        && window_stats(sim.timeline()) == window_stats(&timeline)
}

fn sinks_agree(sim: &mut Simulation<Hop>, _: usize) -> bool {
    sinks_agree_with(sim, |_| true)
}

/// A planted fault: a replay blind to dead letters.
fn sinks_agree_skipping_dead_letters(sim: &mut Simulation<Hop>, _: usize) -> bool {
    sinks_agree_with(sim, |e| !matches!(e.kind, SpanKind::MsgDeadLetter { .. }))
}

/// Runs the corpus through `agrees` and returns the worlds where it found
/// a mismatch, with what the corpus exercised.
fn misses(agrees: fn(&mut Simulation<Hop>, usize) -> bool) -> (Vec<String>, Seen) {
    let mut missed = Vec::new();
    let mut seen = Seen::default();
    for seed in 0..48 {
        for capacity in [1, 7, 64, 1 << 16] {
            let mut sim = world(seed, capacity);
            let trace = sim.trace();
            seen.evicted |= trace.dropped() > 0;
            seen.flight_evicted |= sim.flight().evicted() > 0;
            seen.unreachable |= sim.network().stats().unreachable > 0;
            seen.dead_letters |= sim.dead_letters() > 0;
            seen.crashes |= !sim.node_crashes().is_empty();
            seen.restarts |= sim.node_restarts() > 0;
            let ring_entries = trace.len() as u64 + trace.dropped();
            assert_eq!(
                sim.structural_spans(),
                ring_entries,
                "seed {seed} capacity {capacity}: one structural span per ring entry"
            );
            if !agrees(&mut sim, capacity) {
                missed.push(format!("seed {seed} capacity {capacity}"));
            }
            seen.buckets = seen.buckets.max(sim.timeline().buckets().count());
        }
    }
    (missed, seen)
}

#[test]
fn the_span_fold_equals_the_ring_hash_on_random_worlds() {
    let (missed, seen) = misses(fold_agrees);
    assert!(missed.is_empty(), "span fold missed the ring on {missed:?}");
    assert!(seen.evicted, "no world evicted ring entries");
    assert!(seen.unreachable, "no world sent to an unreachable node");
    assert!(seen.dead_letters, "no world dead-lettered a message");
}

#[test]
fn a_fold_that_skips_unreachable_sends_fails_the_comparison() {
    let (missed, _) = misses(skipping_fold_agrees);
    assert!(!missed.is_empty(), "the planted fold passed every world");
}

#[test]
fn the_flight_ring_and_the_timeline_equal_a_replay_of_the_span_log() {
    let (missed, seen) = misses(sinks_agree);
    assert!(
        missed.is_empty(),
        "the sinks missed the replay on {missed:?}"
    );
    assert!(seen.flight_evicted, "no world evicted flight frames");
    assert!(seen.buckets > 1, "no world spanned two timeline buckets");
    assert!(seen.dead_letters, "no world dead-lettered a message");
    assert!(
        seen.crashes && seen.restarts,
        "no world crashed and restarted a node"
    );
}

#[test]
fn a_replay_that_skips_dead_letters_fails_the_comparison() {
    let (missed, _) = misses(sinks_agree_skipping_dead_letters);
    assert!(!missed.is_empty(), "the planted replay passed every world");
}

#[test]
fn events_for_dead_or_never_spawned_actors_record_nothing_in_either_sink() {
    let mut sim: Simulation<Hop> = Simulation::new(NetConfig::centurion(), 1);
    sim.trace_mut().enable(16);
    sim.spans_mut().enable();
    let roster: Roster = Rc::default();
    let doomed = sim.spawn(NodeId::from_raw(1), Chatter { roster });
    let never = ActorId::from_raw(u32::MAX);
    sim.schedule_timer_for(doomed, SimDuration::from_millis(1), 0);
    sim.schedule_timer_for(never, SimDuration::from_millis(1), 0);
    sim.kill(doomed);
    let recorded = |sim: &Simulation<Hop>| (sim.spans().len(), sim.trace().len());
    let before = recorded(&sim);
    // A message to an actor that was never spawned: the engine refuses it
    // at the send, before either sink records anything.
    let send = panic::catch_unwind(AssertUnwindSafe(|| sim.post(doomed, never, Hop(0))));
    assert!(
        send.is_err(),
        "a send to a never-spawned actor must not queue"
    );
    assert_eq!(sim.run_until_idle(), 2, "both timers fire");
    assert_eq!(recorded(&sim), before);
    assert_eq!(sim.structural_spans(), 2, "the spawn and the kill");
    assert_eq!(span_fold(&sim, 16), trace_hash(sim.trace()));
}
