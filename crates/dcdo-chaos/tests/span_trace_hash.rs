//! `SpanTraceHash` against the ring it replaces: random engine worlds run
//! with the legacy trace ring and the span log switched on together, and
//! the span fold must give `trace_hash(sim.trace())` every time.

use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;

use dcdo_chaos::{trace_hash, SpanTraceHash};
use dcdo_sim::{
    Actor, ActorId, Ctx, NetConfig, NodeId, Payload, SendVerdict, SimDuration, SimRng, Simulation,
    SpanKind,
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
    unreachable: bool,
    dead_letters: bool,
}

/// A random world of `seed`: some actors spawned before the sinks are on
/// (they must not count), a ring of `capacity`, then timers, driver
/// posts, kills, crashes, restarts and partitions between bursts of steps.
/// Every world also schedules a timer for an actor it kills before the
/// timer fires, and one for an id that was never spawned.
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

/// Runs the corpus through `fold` and returns the worlds where it missed
/// the ring's hash, with what the corpus exercised.
fn misses(fold: fn(&Simulation<Hop>, usize) -> u64) -> (Vec<String>, Seen) {
    let mut missed = Vec::new();
    let mut seen = Seen::default();
    for seed in 0..48 {
        for capacity in [1, 7, 64, 1 << 16] {
            let sim = world(seed, capacity);
            let trace = sim.trace();
            seen.evicted |= trace.dropped() > 0;
            seen.unreachable |= sim.metrics().counter("sim.unreachable_drops") > 0;
            seen.dead_letters |= sim.metrics().counter("sim.dead_letters") > 0;
            let ring_entries = trace.len() as u64 + trace.dropped();
            assert_eq!(
                sim.structural_spans(),
                ring_entries,
                "seed {seed} capacity {capacity}: one structural span per ring entry"
            );
            if fold(&sim, capacity) != trace_hash(trace) {
                missed.push(format!("seed {seed} capacity {capacity}"));
            }
        }
    }
    (missed, seen)
}

#[test]
fn the_span_fold_equals_the_ring_hash_on_random_worlds() {
    let (missed, seen) = misses(span_fold);
    assert!(missed.is_empty(), "span fold missed the ring on {missed:?}");
    assert!(seen.evicted, "no world evicted ring entries");
    assert!(seen.unreachable, "no world sent to an unreachable node");
    assert!(seen.dead_letters, "no world dead-lettered a message");
}

#[test]
fn a_fold_that_skips_unreachable_sends_fails_the_comparison() {
    let (missed, _) = misses(fold_skipping_unreachable);
    assert!(!missed.is_empty(), "the planted fold passed every world");
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
