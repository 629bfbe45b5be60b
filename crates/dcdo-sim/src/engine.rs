//! The discrete-event engine: actors, timers, and the event loop.
//!
//! Every active entity of the simulated system — hosts, class objects,
//! binding agents, DCDOs, ICOs, managers, clients — is an [`Actor`] placed on
//! a [`NodeId`] of the simulated network. Actors interact only through
//! messages (routed through the [`Network`](crate::net::Network) model) and
//! timers.
//!
//! Events execute in a total order keyed by `(time, lane, lane-seq)`, where
//! a *lane* is one execution context: lane 0 is the driver, lane `u + 1` is
//! the handlers of node `u`. Every name the engine mints — event sequence
//! numbers, timer ids, fresh `u64`s, span ids, actor ids, RNG draws — comes
//! from a per-lane counter or a per-lane RNG stream split deterministically
//! from the run seed. Because a lane's counters advance only with that
//! lane's own activity, a node's history does not depend on what unrelated
//! nodes do, and every golden trace hash and span digest is keyed on these
//! names.
use std::any::Any;
use std::fmt;

use dcdo_trace::{FlightFrame, FlightRecorder, SendVerdict, SpanEvent, SpanId, SpanKind, TraceLog};

use crate::metrics::Metrics;
use crate::net::{DeliveryPlan, LinkFault, NetConfig, Network, NodeId};
use crate::queue::EventQueue;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::timeline::Timeline;
use crate::trace::{Trace, TraceEvent};

/// Bit position splitting a lane from a per-lane counter in 64-bit ids.
pub(crate) const LANE_SHIFT: u32 = 48;

/// `splitmix64` finalizer — mixes a lane index into the run seed to derive
/// statistically independent per-lane RNG streams.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG seed of one lane, a pure function of the run seed and the lane.
fn lane_seed(run_seed: u64, lane: u16) -> u64 {
    splitmix64(run_seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(lane as u64 + 1))
}

/// Identifies an actor within one [`Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(u32);

impl ActorId {
    /// Creates an actor id from a raw value (normally produced by
    /// [`Simulation::spawn`]).
    pub const fn from_raw(raw: u32) -> Self {
        ActorId(raw)
    }

    /// Returns the raw value. The high 16 bits are the lane that allocated
    /// the id (0 for driver-side spawns), the low 16 bits its per-lane
    /// spawn counter — driver-spawned actors keep the dense ids 0, 1, 2, …
    pub const fn as_raw(self) -> u32 {
        self.0
    }

    const fn from_parts(lane: u16, ctr: u16) -> Self {
        ActorId(((lane as u32) << 16) | ctr as u32)
    }

    fn lane_index(self) -> usize {
        (self.0 >> 16) as usize
    }

    fn ctr_index(self) -> usize {
        (self.0 & 0xFFFF) as usize
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor:{}", self.0)
    }
}

/// Identifies a scheduled timer so it can be cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

/// A message type routable by the engine.
///
/// `wire_size` is the payload size the network model charges for; the
/// default of 64 bytes approximates an empty RPC header.
pub trait Payload: 'static {
    /// Returns the on-the-wire size of this message in bytes.
    fn wire_size(&self) -> u64 {
        64
    }

    /// Clones the message for duplicate delivery (fault injection).
    ///
    /// The default returns `None`, keeping `Clone` optional for payload
    /// types: the engine then models a planned duplicate as a single
    /// delivery at the later of the two arrival times. Types that are
    /// cheaply clonable (e.g. with `Rc`-shared bodies) should return
    /// `Some(clone)` to get true double delivery.
    fn clone_for_redelivery(&self) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }
}

/// An active entity of the simulation.
///
/// Actors own their state and react to messages and timers via the [`Ctx`]
/// handle, which exposes the clock, the network, randomness, metrics, and
/// actor management. `Actor` requires [`Any`] so drivers can downcast actors
/// for inspection between events.
pub trait Actor<M: Payload>: Any {
    /// Handles a message delivered to this actor.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: ActorId, msg: M);

    /// Handles a timer scheduled by this actor. `token` is the value passed
    /// to [`Ctx::schedule_timer`].
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, token: u64) {
        let _ = (ctx, token);
    }

    /// A short human-readable name used in traces.
    fn name(&self) -> &str {
        "actor"
    }
}

pub(crate) enum EventKind<M> {
    Deliver {
        src: ActorId,
        dst: ActorId,
        msg: M,
        /// The span of the send that put this delivery in flight (only set
        /// while structured tracing is enabled).
        cause: Option<SpanId>,
    },
    Timer {
        dst: ActorId,
        id: TimerId,
        token: u64,
        /// The span of the event whose handler scheduled this timer (only
        /// set while structured tracing is enabled).
        cause: Option<SpanId>,
    },
}

/// Mutable name-allocation state of one lane: its RNG stream and the
/// counters behind event keys, timer ids, fresh `u64`s, span ids, and actor
/// ids. Created lazily from [`lane_seed`] the first time a lane acts, so a
/// lane's history is identical whether or not other lanes exist.
pub(crate) struct LaneState {
    rng: SimRng,
    /// Event sub-key counter (48 bits used).
    seq: u64,
    next_timer: u64,
    fresh: u64,
    span_ctr: u64,
    actor_ctr: u32,
}

impl LaneState {
    fn new(seed: u64) -> Self {
        LaneState {
            rng: SimRng::seed_from_u64(seed),
            seq: 0,
            next_timer: 0,
            fresh: 0,
            span_ctr: 0,
            actor_ctr: 0,
        }
    }
}

/// The handle through which an actor (or a driver) interacts with the engine.
pub struct Ctx<'a, M: Payload> {
    sim: &'a mut Simulation<M>,
    self_id: ActorId,
    killed_self: bool,
}

impl<'a, M: Payload> Ctx<'a, M> {
    /// Returns the current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.time
    }

    /// Returns the id of the actor being executed.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// Returns the node this actor is placed on.
    pub fn node(&self) -> NodeId {
        self.sim.node_of(self.self_id)
    }

    /// Returns the node an arbitrary actor is placed on.
    pub fn node_of(&self, actor: ActorId) -> NodeId {
        self.sim.node_of(actor)
    }

    /// Sends `msg` to `dst` through the network model.
    ///
    /// Delivery time accounts for protocol overhead, serialization,
    /// latency, egress contention, and fault injection. Messages to dead
    /// actors become dead letters (counted by the engine, otherwise dropped) —
    /// this is how a stale physical address behaves.
    pub fn send(&mut self, dst: ActorId, msg: M) {
        self.sim.route(self.self_id, dst, msg);
    }

    /// Schedules a timer `delay` from now; `token` is handed back to
    /// [`Actor::on_timer`]. Returns an id usable with [`Ctx::cancel_timer`].
    pub fn schedule_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
        self.sim.schedule_timer_for(self.self_id, delay, token)
    }

    /// Cancels a previously scheduled timer, removing it from the event
    /// queue immediately. Cancelling an already-fired or unknown timer is a
    /// no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.sim.queue.cancel_timer(id.0);
    }

    /// Returns the RNG stream of the executing lane (this actor's node).
    pub fn rng(&mut self) -> &mut SimRng {
        let lane = self.sim.cur_lane;
        &mut self.sim.lane_state(lane).rng
    }

    /// Returns the simulation's metrics registry.
    pub fn metrics(&mut self) -> &mut Metrics {
        &mut self.sim.metrics
    }

    /// Returns the world's totals slot (see [`Simulation::totals_mut`]).
    pub fn totals<T: Any + Default>(&mut self) -> &mut T {
        self.sim.totals_mut()
    }

    /// Mints a fresh unique `u64` (for object ids, call ids, …).
    pub fn fresh_u64(&mut self) -> u64 {
        self.sim.fresh_u64()
    }

    /// Spawns a new actor on `node` and returns its id.
    pub fn spawn(&mut self, node: NodeId, actor: Box<dyn Actor<M>>) -> ActorId {
        self.sim.spawn_boxed(node, actor)
    }

    /// Kills an actor. Pending messages to it become dead letters. Killing
    /// the running actor defers removal until its handler returns.
    pub fn kill(&mut self, actor: ActorId) {
        if actor == self.self_id {
            self.killed_self = true;
        } else {
            self.sim.kill(actor);
        }
    }

    /// Returns `true` if the actor exists (has been spawned and not killed).
    pub fn is_alive(&self, actor: ActorId) -> bool {
        self.sim.is_alive(actor)
    }

    /// Crashes a node (see [`Simulation::crash_node`]). If the executing
    /// actor itself lives on the node, it dies too — removal is deferred
    /// until its handler returns, like [`Ctx::kill`].
    pub fn crash_node(&mut self, node: NodeId) -> usize {
        if self.sim.node_of(self.self_id) == node {
            self.killed_self = true;
        }
        self.sim.crash_node(node)
    }

    /// Restarts a crashed node (see [`Simulation::restart_node`]).
    pub fn restart_node(&mut self, node: NodeId) {
        self.sim.restart_node(node);
    }

    /// Returns `true` if the node is up.
    pub fn is_node_up(&self, node: NodeId) -> bool {
        self.sim.is_node_up(node)
    }

    /// Returns the network model mutably (partitions, link faults, stats).
    pub fn network_mut(&mut self) -> &mut Network {
        self.sim.network_mut()
    }

    /// Returns the network model.
    pub fn network(&self) -> &Network {
        self.sim.network()
    }

    /// Returns `true` if structured span tracing is recording. Callers with
    /// expensive span construction should gate on this.
    #[inline(always)]
    pub fn tracing_enabled(&self) -> bool {
        self.sim.spans.is_enabled()
    }

    /// Records a structured span at the current time on this actor's node,
    /// causally parented to the event being handled. Returns `None` when
    /// tracing is disabled.
    #[inline]
    pub fn emit_span(&mut self, kind: SpanKind) -> Option<SpanId> {
        let node = self.sim.node_of(self.self_id).as_raw();
        let parent = self.sim.current_span;
        self.sim.span_emit(node, parent, kind)
    }

    /// The span of the event currently being dispatched, if traced.
    pub fn current_span(&self) -> Option<SpanId> {
        self.sim.current_span
    }

    /// Installs a partition (see [`Network::set_partition`]), recording the
    /// topology change in the structured trace.
    pub fn set_partition(&mut self, partition_groups: &[Vec<NodeId>]) {
        self.sim.set_partition(partition_groups);
    }

    /// Heals any installed partition (see [`Network::heal_partition`]),
    /// recording the topology change in the structured trace.
    pub fn heal_partition(&mut self) {
        self.sim.heal_partition();
    }

    /// Installs a directed link fault (see [`Network::set_link_fault`]),
    /// recording it in the structured trace.
    pub fn set_link_fault(&mut self, src: NodeId, dst: NodeId, fault: LinkFault) {
        self.sim.set_link_fault(src, dst, fault);
    }

    /// Clears a directed link fault (see [`Network::clear_link_fault`]),
    /// recording it in the structured trace.
    pub fn clear_link_fault(&mut self, src: NodeId, dst: NodeId) {
        self.sim.clear_link_fault(src, dst);
    }
}

enum Slot<M> {
    Occupied(Box<dyn Actor<M>>),
    Running,
    Vacant,
}

/// The discrete-event simulation engine.
///
/// # Examples
///
/// ```
/// use dcdo_sim::{Actor, ActorId, Ctx, NetConfig, NodeId, Payload, Simulation};
///
/// struct Ping;
/// struct Echo;
///
/// impl Payload for Ping {}
///
/// impl Actor<Ping> for Echo {
///     fn on_message(&mut self, ctx: &mut Ctx<'_, Ping>, from: ActorId, _msg: Ping) {
///         ctx.metrics().incr("echoed");
///         let _ = from;
///     }
/// }
///
/// let mut sim = Simulation::<Ping>::new(NetConfig::centurion(), 42);
/// let node = NodeId::from_raw(0);
/// let echo = sim.spawn(node, Echo);
/// sim.post(echo, echo, Ping);
/// sim.run_until_idle();
/// assert_eq!(sim.metrics().counter("echoed"), 1);
/// ```
pub struct Simulation<M: Payload> {
    time: SimTime,
    run_seed: u64,
    queue: EventQueue<EventKind<M>>,
    /// Actor slots, indexed `[allocating lane][per-lane spawn counter]`.
    actors: Vec<Vec<Slot<M>>>,
    /// Placements, parallel to `actors`.
    placements: Vec<Vec<NodeId>>,
    /// Per-lane allocation state, created lazily (index = lane).
    lanes: Vec<Option<LaneState>>,
    network: Network,
    metrics: Metrics,
    events_processed: u64,
    trace: Trace,
    spans: TraceLog,
    /// Structural spans written to `spans` (see [`Simulation::structural_spans`]).
    structural_spans: u64,
    /// The span of the event currently being dispatched — the causal parent
    /// of everything its handler emits. `None` outside dispatch or when
    /// tracing is disabled.
    current_span: Option<SpanId>,
    /// The lane charged for names minted right now: 0 driver-side, node + 1
    /// while that node's handler runs.
    cur_lane: u16,
    /// The always-on flight recorder: a bounded ring of compact frames per
    /// executed event.
    flight: FlightRecorder,
    /// The always-on windowed time-series registry.
    timeline: Timeline,
    /// When each node crash happened, in order (a run has a handful).
    crashes: Vec<SimTime>,
    /// Node restarts that brought a down node back up.
    node_restarts: u64,
    /// Messages that arrived for a dead actor.
    dead_letters: u64,
    /// Timers a node crash cancelled with their actors.
    timers_cancelled_by_crash: u64,
    /// Per-world totals a layer above the engine keeps (the VM's), typed
    /// `dyn Any` because this crate cannot name them.
    totals: Option<Box<dyn Any>>,
}

impl<M: Payload> Simulation<M> {
    /// Creates a simulation with the given network configuration and RNG
    /// seed.
    pub fn new(net: NetConfig, seed: u64) -> Self {
        Simulation {
            time: SimTime::ZERO,
            run_seed: seed,
            queue: EventQueue::new(),
            actors: Vec::new(),
            placements: Vec::new(),
            lanes: Vec::new(),
            network: Network::new(net),
            metrics: Metrics::new(),
            events_processed: 0,
            trace: Trace::new(),
            spans: TraceLog::new(),
            structural_spans: 0,
            current_span: None,
            cur_lane: 0,
            flight: FlightRecorder::new(),
            timeline: Timeline::new(),
            crashes: Vec::new(),
            node_restarts: 0,
            dead_letters: 0,
            timers_cancelled_by_crash: 0,
            totals: None,
        }
    }

    /// Returns the current simulated time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Returns the metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Returns the network model.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Returns the network model mutably (for fault-injection tests).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Returns the number of events processed so far.
    ///
    /// Cancelled timers are removed from the queue at cancellation time and
    /// never surface here.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Returns the number of pending events: live timers plus undelivered
    /// messages. Cancelled timers leave this count immediately.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Returns the high-water mark of [`pending_events`]
    /// (memory-boundedness witness for cancel-heavy workloads).
    ///
    /// [`pending_events`]: Simulation::pending_events
    pub fn peak_pending_events(&self) -> usize {
        self.queue.peak_len()
    }

    /// The execution trace (disabled by default; see [`Trace::enable`]).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable access to the execution trace, e.g. to enable it.
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// The structured span log (disabled by default; see
    /// [`TraceLog::enable`]).
    pub fn spans(&self) -> &TraceLog {
        &self.spans
    }

    /// Mutable access to the structured span log, e.g. to enable it before a
    /// run or export it afterwards.
    pub fn spans_mut(&mut self) -> &mut TraceLog {
        &mut self.spans
    }

    /// How many structural spans (those [`TraceEvent::of_span`] maps to a
    /// ring entry) the engine has written to the span log: counted only
    /// while the log is on, and not reset by clearing it. With the log on
    /// from world build, this is the number of entries a ring switched on
    /// with it would have recorded, evictions included.
    pub fn structural_spans(&self) -> u64 {
        self.structural_spans
    }

    /// The always-on flight recorder (enabled by default; see
    /// [`FlightRecorder`]).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Mutable access to the flight recorder, e.g. to disable it or resize
    /// the ring before a run.
    pub fn flight_mut(&mut self) -> &mut FlightRecorder {
        &mut self.flight
    }

    /// The windowed time-series registry (enabled by default; see
    /// [`Timeline`]).
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Mutable access to the timeline, e.g. to change the bucket width
    /// before a run or export it afterwards.
    pub fn timeline_mut(&mut self) -> &mut Timeline {
        &mut self.timeline
    }

    /// The world's totals as a `T`, created as `T::default()` on first use:
    /// counters a layer above the engine keeps per world rather than per
    /// process (the VM's `VmTotals`, which the object runtime folds into).
    ///
    /// # Panics
    ///
    /// Panics if the slot already holds a value of another type.
    pub fn totals_mut<T: Any + Default>(&mut self) -> &mut T {
        let slot = self.totals.get_or_insert_with(|| Box::new(T::default()));
        (**slot)
            .downcast_mut()
            .expect("a world's totals slot holds one type")
    }

    /// The world's totals, if a `T` was ever stored (see
    /// [`totals_mut`](Simulation::totals_mut)).
    pub fn totals<T: Any>(&self) -> Option<&T> {
        self.totals.as_deref()?.downcast_ref()
    }

    /// The instants of every node crash so far, ascending. Kept whether or
    /// not spans are recorded.
    pub fn node_crashes(&self) -> &[SimTime] {
        &self.crashes
    }

    /// Node restarts so far (restarting a node that is up is not one).
    pub fn node_restarts(&self) -> u64 {
        self.node_restarts
    }

    /// Messages so far that arrived for a dead actor.
    pub fn dead_letters(&self) -> u64 {
        self.dead_letters
    }

    /// Pending timers node crashes have cancelled so far.
    pub fn timers_cancelled_by_crash(&self) -> u64 {
        self.timers_cancelled_by_crash
    }

    /// A count by name, as a `.scn` `metric_*` line names it: a `sim.*` name
    /// is the engine's own count, any other a [`Metrics`] counter.
    pub fn counter(&self, name: &str) -> u64 {
        let net = self.network.stats();
        match name {
            "sim.messages_lost" => net.messages_lost,
            "sim.duplicates_planned" => net.duplicates_planned,
            "sim.duplicates_degraded" => net.duplicates_degraded,
            "sim.unreachable_drops" => net.unreachable,
            "sim.node_crashes" => self.crashes.len() as u64,
            "sim.node_restarts" => self.node_restarts,
            "sim.dead_letters" => self.dead_letters,
            "sim.timers_cancelled_by_crash" => self.timers_cancelled_by_crash,
            _ => self.metrics.counter(name),
        }
    }

    /// Has no effect: the engine has one, sequential, execution path. Kept
    /// only because `benchmark/src/replica.rs:187`, its one caller, cannot
    /// be edited outside a benchmark PR (see ROADMAP.md), which removes both.
    pub fn set_threads(&mut self, _n: u32) {}

    /// Records a structured span at the current time with no node
    /// attribution (driver-side). Returns `None` when tracing is disabled.
    pub fn emit_span(&mut self, kind: SpanKind) -> Option<SpanId> {
        let parent = self.current_span;
        self.span_emit(dcdo_trace::NO_NODE, parent, kind)
    }

    /// Installs a partition and records the topology change in the
    /// structured trace (prefer this over
    /// [`network_mut`](Simulation::network_mut) + `set_partition` so the
    /// trace-invariant checker can replay reachability).
    pub fn set_partition(&mut self, partition_groups: &[Vec<NodeId>]) {
        self.network.set_partition(partition_groups);
        if self.spans.is_enabled() {
            let groups = self.spans.intern_groups(self.network.partition_groups());
            self.emit_span(SpanKind::PartitionChanged { groups });
        }
    }

    /// Heals any installed partition, recording the change in the
    /// structured trace.
    pub fn heal_partition(&mut self) {
        self.network.heal_partition();
        self.emit_span(SpanKind::PartitionHealed);
    }

    /// Installs a directed link fault, recording it in the structured trace.
    pub fn set_link_fault(&mut self, src: NodeId, dst: NodeId, fault: LinkFault) {
        self.network.set_link_fault(src, dst, fault);
        self.emit_span(SpanKind::LinkFaultSet {
            src_node: src.as_raw(),
            dst_node: dst.as_raw(),
        });
    }

    /// Clears a directed link fault, recording it in the structured trace.
    pub fn clear_link_fault(&mut self, src: NodeId, dst: NodeId) {
        self.network.clear_link_fault(src, dst);
        self.emit_span(SpanKind::LinkFaultCleared {
            src_node: src.as_raw(),
            dst_node: dst.as_raw(),
        });
    }

    /// Mints a fresh unique `u64`. Values carry the minting lane in the
    /// high bits; driver-side values stay the dense 1, 2, 3, …
    pub fn fresh_u64(&mut self) -> u64 {
        let lane = self.cur_lane;
        let ls = self.lane_state(lane);
        ls.fresh += 1;
        debug_assert!(ls.fresh < 1 << LANE_SHIFT);
        ((lane as u64) << LANE_SHIFT) | ls.fresh
    }

    /// Driver-side access to the deterministic RNG stream of `node`'s lane —
    /// the same stream [`Ctx::rng`] hands an actor executing on that node.
    ///
    /// Draws advance only that lane's state (the per-lane streams are the
    /// engine's determinism backbone; see the module docs). Scenario drivers
    /// use this for weighted workload selection.
    pub fn rng_for(&mut self, node: NodeId) -> &mut SimRng {
        assert!(
            node.as_raw() < NodeId::LIMIT,
            "node ids must fit the engine's 16-bit lane space"
        );
        let lane = node.as_raw() as u16 + 1;
        &mut self.lane_state(lane).rng
    }

    /// Spawns an actor on `node` and returns its id.
    pub fn spawn(&mut self, node: NodeId, actor: impl Actor<M>) -> ActorId {
        self.spawn_boxed(node, Box::new(actor))
    }

    /// Spawns a boxed actor on `node` and returns its id.
    pub fn spawn_boxed(&mut self, node: NodeId, actor: Box<dyn Actor<M>>) -> ActorId {
        assert!(
            node.as_raw() < NodeId::LIMIT,
            "node ids must fit the engine's 16-bit lane space"
        );
        let lane = self.cur_lane;
        let ls = self.lane_state(lane);
        let ctr = ls.actor_ctr;
        assert!(
            ctr < u16::MAX as u32,
            "lane {lane} exhausted its 16-bit actor-id space"
        );
        ls.actor_ctr += 1;
        let id = ActorId::from_parts(lane, ctr as u16);
        self.ensure_lane_slots(lane);
        debug_assert_eq!(self.actors[lane as usize].len(), ctr as usize);
        self.actors[lane as usize].push(Slot::Occupied(actor));
        self.placements[lane as usize].push(node);
        let parent = self.current_span;
        self.emit_event(
            node.as_raw(),
            parent,
            SpanKind::ActorSpawned {
                actor: id.as_raw(),
                node: node.as_raw(),
            },
        );
        id
    }

    /// Kills an actor; subsequent messages to it are dead letters.
    pub fn kill(&mut self, actor: ActorId) {
        let Some(node) = self.placement(actor) else {
            return;
        };
        let parent = self.current_span;
        self.vacate(actor, node, parent);
    }

    /// The one way an actor dies (killed, by its own handler, or in a
    /// crash): vacates its slot and records the death, caused by `parent`.
    fn vacate(&mut self, actor: ActorId, node: NodeId, parent: Option<SpanId>) {
        *self.slot_mut(actor).expect("placement implies slot") = Slot::Vacant;
        self.emit_event(
            node.as_raw(),
            parent,
            SpanKind::ActorKilled {
                actor: actor.as_raw(),
            },
        );
    }

    /// Returns `true` if the actor is alive.
    pub fn is_alive(&self, actor: ActorId) -> bool {
        matches!(self.slot(actor), Some(Slot::Occupied(_) | Slot::Running))
    }

    /// Returns the node an actor is placed on.
    ///
    /// # Panics
    ///
    /// Panics if the actor id was never spawned.
    pub fn node_of(&self, actor: ActorId) -> NodeId {
        self.placements[actor.lane_index()][actor.ctr_index()]
    }

    /// Downcasts an actor to a concrete type for inspection.
    pub fn actor<T: Actor<M>>(&self, id: ActorId) -> Option<&T> {
        match self.slot(id)? {
            Slot::Occupied(a) => (a.as_ref() as &dyn Any).downcast_ref::<T>(),
            _ => None,
        }
    }

    /// Downcasts an actor to a concrete type for mutation between events.
    pub fn actor_mut<T: Actor<M>>(&mut self, id: ActorId) -> Option<&mut T> {
        match self.slot_mut(id)? {
            Slot::Occupied(a) => (a.as_mut() as &mut dyn Any).downcast_mut::<T>(),
            _ => None,
        }
    }

    /// Runs `f` against a concrete actor with a live [`Ctx`], letting drivers
    /// initiate activity (e.g. start a client) at the current time.
    ///
    /// # Panics
    ///
    /// Panics if the actor is dead or not of type `T`.
    pub fn with_actor<T: Actor<M>, R>(
        &mut self,
        id: ActorId,
        f: impl FnOnce(&mut T, &mut Ctx<'_, M>) -> R,
    ) -> R {
        let Some(node) = self.placement(id) else {
            panic!("with_actor: {id} is not alive");
        };
        let ran = self.run_actor(id, node, |actor, ctx| {
            let t = (actor as &mut dyn Any)
                .downcast_mut::<T>()
                .expect("with_actor: actor has a different concrete type");
            f(t, ctx)
        });
        ran.unwrap_or_else(|| panic!("with_actor: {id} is not alive"))
    }

    /// The one way a handler runs: takes `id`'s slot to `Running`, sets the
    /// lane to `node`'s, runs `handler` with a [`Ctx`], puts the actor back
    /// — or, if the handler killed its own actor, vacates the slot and
    /// records the death from the handler's lane, caused by its span — and
    /// restores the lane. `None`, with the slot vacated, if no live actor
    /// is there.
    fn run_actor<R>(
        &mut self,
        id: ActorId,
        node: NodeId,
        handler: impl FnOnce(&mut dyn Actor<M>, &mut Ctx<'_, M>) -> R,
    ) -> Option<R> {
        let slot = self.slot_mut(id).expect("placement implies slot");
        let Slot::Occupied(mut actor) = std::mem::replace(slot, Slot::Running) else {
            *slot = Slot::Vacant;
            return None;
        };
        let prev_lane = std::mem::replace(&mut self.cur_lane, node.as_raw() as u16 + 1);
        let mut ctx = Ctx {
            sim: self,
            self_id: id,
            killed_self: false,
        };
        let out = handler(actor.as_mut(), &mut ctx);
        if ctx.killed_self {
            let parent = self.current_span;
            self.vacate(id, node, parent);
        } else {
            *self.slot_mut(id).expect("slot exists") = Slot::Occupied(actor);
        }
        self.cur_lane = prev_lane;
        Some(out)
    }

    /// Posts a message from `src` to `dst` through the network at the
    /// current time (driver-side injection).
    pub fn post(&mut self, src: ActorId, dst: ActorId, msg: M) {
        self.route(src, dst, msg);
    }

    /// Schedules a timer for an actor (driver-side).
    pub fn schedule_timer_for(
        &mut self,
        actor: ActorId,
        delay: SimDuration,
        token: u64,
    ) -> TimerId {
        let lane = self.cur_lane;
        let ls = self.lane_state(lane);
        ls.next_timer += 1;
        debug_assert!(ls.next_timer < 1 << LANE_SHIFT);
        let id = TimerId(((lane as u64) << LANE_SHIFT) | ls.next_timer);
        let at = self.time + delay;
        // `current_span` is only ever set while tracing is enabled, so this
        // costs nothing in the disabled case.
        let cause = self.current_span;
        self.push(
            at,
            EventKind::Timer {
                dst: actor,
                id,
                token,
                cause,
            },
        );
        id
    }

    /// Cancels a timer (driver-side). The entry is removed from the queue
    /// immediately; a cancelled or already-fired timer id is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.queue.cancel_timer(id.0);
    }

    // ---- lane internals -------------------------------------------------

    fn lane_state(&mut self, lane: u16) -> &mut LaneState {
        let idx = lane as usize;
        if self.lanes.len() <= idx {
            self.lanes.resize_with(idx + 1, || None);
        }
        let run_seed = self.run_seed;
        self.lanes[idx].get_or_insert_with(|| LaneState::new(lane_seed(run_seed, lane)))
    }

    fn ensure_lane_slots(&mut self, lane: u16) {
        let idx = lane as usize;
        if self.actors.len() <= idx {
            self.actors.resize_with(idx + 1, Vec::new);
            self.placements.resize_with(idx + 1, Vec::new);
        }
    }

    /// The node `id` was spawned on, if it ever was.
    fn placement(&self, id: ActorId) -> Option<NodeId> {
        self.placements
            .get(id.lane_index())?
            .get(id.ctr_index())
            .copied()
    }

    fn slot(&self, id: ActorId) -> Option<&Slot<M>> {
        self.actors.get(id.lane_index())?.get(id.ctr_index())
    }

    fn slot_mut(&mut self, id: ActorId) -> Option<&mut Slot<M>> {
        self.actors
            .get_mut(id.lane_index())?
            .get_mut(id.ctr_index())
    }

    /// Emits one engine event's span and, derived from its kind, its ring
    /// entry while the ring is on ([`TraceEvent::of_span`]) and, for an
    /// executed event, its timeline count and flight frame
    /// ([`SpanKind::executed`]), whether or not spans are on. Every ring
    /// entry, count and frame is written here, beside the span it mirrors,
    /// so a ring switched on with the span log holds exactly the log's
    /// structural spans (the equality the scenario runner's span-folded
    /// `trace_hash` rests on), and the timeline and flight ring replay from
    /// the log.
    #[inline]
    fn emit_event(&mut self, node: u32, parent: Option<SpanId>, kind: SpanKind) -> Option<SpanId> {
        let executed = kind.executed();
        let structural = match TraceEvent::of_span(&kind) {
            Some(event) => {
                if self.trace.is_enabled() {
                    self.trace.record(self.time, event);
                }
                true
            }
            None => false,
        };
        let id = self.span_emit(node, parent, kind);
        if structural && id.is_some() {
            self.structural_spans += 1;
        }
        if let Some((code, actor)) = executed {
            self.observe(code, node, actor);
        }
        id
    }

    /// Emits a structured span from the current lane: ids are
    /// `((lane + 1) << 48) | per-lane counter`, so they are unique and never
    /// collide with the dense ids of standalone [`TraceLog::emit`] calls.
    fn span_emit(&mut self, node: u32, parent: Option<SpanId>, kind: SpanKind) -> Option<SpanId> {
        if !self.spans.is_enabled() {
            return None;
        }
        let lane = self.cur_lane;
        let at_ns = self.time.as_nanos();
        let ls = self.lane_state(lane);
        ls.span_ctr += 1;
        debug_assert!(ls.span_ctr < 1 << LANE_SHIFT);
        let raw = ((lane as u64 + 1) << LANE_SHIFT) | ls.span_ctr;
        let id = SpanId::from_raw(raw).expect("lane span ids are nonzero");
        self.spans.push_event(SpanEvent {
            id,
            parent,
            at_ns,
            node,
            kind,
        });
        Some(id)
    }

    fn push(&mut self, at: SimTime, kind: EventKind<M>) {
        let lane = self.cur_lane;
        let ls = self.lane_state(lane);
        ls.seq += 1;
        debug_assert!(ls.seq < 1 << LANE_SHIFT);
        let key = ((at.as_nanos() as u128) << 64) | ((lane as u128) << LANE_SHIFT) | ls.seq as u128;
        match &kind {
            // Timers always go through the heap — even zero-delay ones —
            // so every timer stays cancellable.
            EventKind::Timer { id, .. } => {
                let timer_id = id.0;
                self.queue.push_raw_timer(key, timer_id, kind);
            }
            EventKind::Deliver { .. } if at == self.time => {
                self.queue.push_same_tick_raw(key, kind);
            }
            EventKind::Deliver { .. } => self.queue.push_raw(key, kind),
        }
    }

    fn route(&mut self, src: ActorId, dst: ActorId, msg: M) {
        let bytes = msg.wire_size();
        let (src_node, dst_node) = (self.node_of(src), self.node_of(dst));
        let now = self.time;
        let lane = self.cur_lane;
        self.lane_state(lane);
        let plan = {
            let Simulation { lanes, network, .. } = self;
            let rng = &mut lanes[lane as usize].as_mut().expect("lane state").rng;
            network.plan(now, src_node, dst_node, bytes, rng)
        };
        let cause = if self.spans.is_enabled() || self.trace.is_enabled() {
            let verdict = match plan {
                DeliveryPlan::Deliver(_) => SendVerdict::Sent,
                DeliveryPlan::DeliverTwice(..) => SendVerdict::SentTwice,
                DeliveryPlan::Lost => SendVerdict::Lost,
                DeliveryPlan::Unreachable => SendVerdict::Unreachable,
            };
            let parent = self.current_span;
            self.emit_event(
                src_node.as_raw(),
                parent,
                SpanKind::MsgSent {
                    src: src.as_raw(),
                    dst: dst.as_raw(),
                    src_node: src_node.as_raw(),
                    dst_node: dst_node.as_raw(),
                    verdict,
                    bytes,
                },
            )
        } else {
            None
        };
        match plan {
            DeliveryPlan::Deliver(at) => self.push(
                at,
                EventKind::Deliver {
                    src,
                    dst,
                    msg,
                    cause,
                },
            ),
            DeliveryPlan::DeliverTwice(first, second) => {
                match msg.clone_for_redelivery() {
                    // True double delivery for payloads that opt in.
                    Some(dup) => {
                        self.push(
                            first,
                            EventKind::Deliver {
                                src,
                                dst,
                                msg,
                                cause,
                            },
                        );
                        self.push(
                            second,
                            EventKind::Deliver {
                                src,
                                dst,
                                msg: dup,
                                cause,
                            },
                        );
                    }
                    // Non-clonable payloads degrade to the old model: one
                    // delivery at the later of the two arrival times. The
                    // dropped second delivery is counted, not silent.
                    None => {
                        self.network.note_duplicate_degraded();
                        self.push(
                            second,
                            EventKind::Deliver {
                                src,
                                dst,
                                msg,
                                cause,
                            },
                        );
                    }
                }
            }
            // The network counted the drop in its stats.
            DeliveryPlan::Lost | DeliveryPlan::Unreachable => {}
        }
    }

    /// Crashes a node: marks it down in the network (traffic to or from it
    /// is dropped as unreachable), kills every actor placed on it, and
    /// cancels all their pending timers so nothing owned by a dead actor
    /// ever fires. Messages already in flight toward the node dead-letter
    /// on arrival. Returns the number of actors killed.
    ///
    /// Crashing an already-down node is a no-op. The currently executing
    /// actor (if any) is not touched — use [`Ctx::crash_node`] from inside
    /// a handler, which also handles self-destruction.
    pub fn crash_node(&mut self, node: NodeId) -> usize {
        if !self.network.is_node_up(node) {
            return 0;
        }
        self.network.set_node_down(node);
        self.crashes.push(self.time);
        let parent = self.current_span;
        let crash_span = self.emit_event(
            node.as_raw(),
            parent,
            SpanKind::NodeCrashed {
                node: node.as_raw(),
            },
        );
        let mut killed = 0;
        for lane in 0..self.actors.len() {
            for ctr in 0..self.actors[lane].len() {
                if self.placements[lane][ctr] != node
                    || !matches!(self.actors[lane][ctr], Slot::Occupied(_))
                {
                    continue;
                }
                let actor = ActorId::from_parts(lane as u16, ctr as u16);
                self.vacate(actor, node, crash_span);
                killed += 1;
            }
        }
        let placements = &self.placements;
        let cancelled = self.queue.cancel_timers_where(|kind| {
            matches!(kind, EventKind::Timer { dst, .. }
                if placements.get(dst.lane_index()).and_then(|l| l.get(dst.ctr_index()))
                    == Some(&node))
        });
        self.timers_cancelled_by_crash += cancelled as u64;
        killed
    }

    /// Brings a crashed node back up: traffic can reach it again. Actors
    /// that died in the crash stay dead — recovery layers spawn fresh ones.
    /// Restarting a node that is up is a no-op.
    pub fn restart_node(&mut self, node: NodeId) {
        if self.network.is_node_up(node) {
            return;
        }
        self.network.set_node_up(node);
        self.node_restarts += 1;
        let parent = self.current_span;
        self.emit_event(
            node.as_raw(),
            parent,
            SpanKind::NodeRestarted {
                node: node.as_raw(),
            },
        );
    }

    /// Returns `true` if the node is up (never crashed, or restarted).
    pub fn is_node_up(&self, node: NodeId) -> bool {
        self.network.is_node_up(node)
    }

    /// Returns the live actors placed on `node`, in id order (driver-side
    /// spawns first, in spawn order).
    pub fn actors_on(&self, node: NodeId) -> Vec<ActorId> {
        let mut out = Vec::new();
        for lane in 0..self.actors.len() {
            for ctr in 0..self.actors[lane].len() {
                if self.placements[lane][ctr] != node {
                    continue;
                }
                let id = ActorId::from_parts(lane as u16, ctr as u16);
                if self.is_alive(id) {
                    out.push(id);
                }
            }
        }
        out
    }

    /// Processes the next event. Returns `false` if the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((key, kind)) = self.queue.pop_raw() else {
            return false;
        };
        let at = SimTime::from_nanos((key >> 64) as u64);
        debug_assert!(at >= self.time, "time cannot go backwards");
        self.time = at;
        self.events_processed += 1;
        match kind {
            EventKind::Deliver {
                src,
                dst,
                msg,
                cause,
            } => self.dispatch_message(src, dst, msg, cause),
            EventKind::Timer {
                dst, token, cause, ..
            } => self.dispatch_timer(dst, token, cause),
        }
        true
    }

    /// The always-on observability hook [`emit_event`](Self::emit_event)
    /// runs for each executed event: accounts it into the timeline bucket
    /// and leaves a compact frame in the flight ring.
    /// This is the per-event hot path — one enabled branch per facility, a
    /// cached bucket-end compare, plain integer increments, and a 16-byte
    /// ring store; no division or map lookups.
    #[inline(always)]
    fn observe(&mut self, code: u8, node: u32, actor: u64) {
        let at_ns = self.time.as_nanos();
        if self.timeline.is_enabled() {
            self.timeline.account(at_ns, code);
        }
        if self.flight.is_enabled() {
            self.flight
                .push(FlightFrame::pack(at_ns, code, node, actor));
        }
    }

    fn dispatch_message(&mut self, src: ActorId, dst: ActorId, msg: M, cause: Option<SpanId>) {
        // `route` read both placements when it queued the message, so a
        // never-spawned destination panicked there and never gets here.
        let dst_node = self.node_of(dst);
        let delivered = self.run_actor(dst, dst_node, |actor, ctx| {
            let sim = &mut *ctx.sim;
            sim.current_span = sim.emit_event(
                dst_node.as_raw(),
                cause,
                SpanKind::MsgDelivered {
                    src: src.as_raw(),
                    dst: dst.as_raw(),
                    dst_node: dst_node.as_raw(),
                },
            );
            actor.on_message(ctx, src, msg);
        });
        self.current_span = None;
        if delivered.is_some() {
            return;
        }
        self.cur_lane = dst_node.as_raw() as u16 + 1;
        self.dead_letters += 1;
        self.emit_event(
            dst_node.as_raw(),
            cause,
            SpanKind::MsgDeadLetter {
                src: src.as_raw(),
                dst: dst.as_raw(),
                dst_node: dst_node.as_raw(),
            },
        );
        self.cur_lane = 0;
    }

    /// Fires `dst`'s timer. A timer for an actor that is dead, or was never
    /// placed, fires nothing and records nothing.
    fn dispatch_timer(&mut self, dst: ActorId, token: u64, cause: Option<SpanId>) {
        let Some(node) = self.placement(dst) else {
            return;
        };
        self.run_actor(dst, node, |actor, ctx| {
            let sim = &mut *ctx.sim;
            sim.current_span = sim.emit_event(
                node.as_raw(),
                cause,
                SpanKind::TimerFired {
                    actor: dst.as_raw(),
                    token,
                },
            );
            actor.on_timer(ctx, token);
        });
        self.current_span = None;
    }

    /// Runs until the queue is empty. Returns the number of events
    /// processed.
    ///
    /// # Panics
    ///
    /// Panics after 100 million events as a runaway-loop backstop.
    pub fn run_until_idle(&mut self) -> u64 {
        self.run_with_budget(100_000_000)
    }

    /// Runs until the queue is empty or `budget` events have been processed;
    /// returns the number processed.
    ///
    /// # Panics
    ///
    /// Panics if the budget is exhausted with events still pending — a
    /// deterministic simulation that exceeds its budget is a bug, not load.
    pub fn run_with_budget(&mut self, budget: u64) -> u64 {
        let mut n = 0;
        while n < budget {
            if !self.step() {
                return n;
            }
            n += 1;
        }
        if self.queue.is_empty() {
            n
        } else {
            panic!("simulation exceeded event budget of {budget}");
        }
    }

    /// Runs until simulated time reaches `deadline` (events at exactly
    /// `deadline` are processed) or the queue empties. Returns events
    /// processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut n = 0;
        while let Some((at, _)) = self.queue.peek_key() {
            if at > deadline {
                break;
            }
            self.step();
            n += 1;
        }
        if self.time < deadline {
            self.time = deadline;
        }
        n
    }

    /// Runs for `d` of simulated time from now.
    pub fn run_for(&mut self, d: SimDuration) -> u64 {
        let deadline = self.time + d;
        self.run_until(deadline)
    }
}

impl<M: Payload> fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("time", &self.time)
            .field("actors", &self.actors.iter().map(Vec::len).sum::<usize>())
            .field("pending_events", &self.queue.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    enum TestMsg {
        Ping(u32),
        Pong(u32),
    }

    impl Payload for TestMsg {
        fn wire_size(&self) -> u64 {
            32
        }
    }

    /// Replies to every Ping with a Pong carrying the same tag.
    struct Responder;

    impl Actor<TestMsg> for Responder {
        fn on_message(&mut self, ctx: &mut Ctx<'_, TestMsg>, from: ActorId, msg: TestMsg) {
            if let TestMsg::Ping(tag) = msg {
                ctx.send(from, TestMsg::Pong(tag));
            }
        }

        fn name(&self) -> &str {
            "responder"
        }
    }

    /// Records received pongs and the times they arrived.
    #[derive(Default)]
    struct Collector {
        pongs: Vec<(u32, SimTime)>,
    }

    impl Actor<TestMsg> for Collector {
        fn on_message(&mut self, ctx: &mut Ctx<'_, TestMsg>, _from: ActorId, msg: TestMsg) {
            if let TestMsg::Pong(tag) = msg {
                let now = ctx.now();
                self.pongs.push((tag, now));
            }
        }
    }

    fn two_node_sim() -> (Simulation<TestMsg>, ActorId, ActorId) {
        let mut sim = Simulation::new(NetConfig::centurion(), 1);
        let client = sim.spawn(NodeId::from_raw(0), Collector::default());
        let server = sim.spawn(NodeId::from_raw(1), Responder);
        (sim, client, server)
    }

    #[test]
    fn ping_pong_round_trip() {
        let (mut sim, client, server) = two_node_sim();
        sim.post(client, server, TestMsg::Ping(7));
        sim.run_until_idle();
        let c = sim.actor::<Collector>(client).expect("alive");
        assert_eq!(c.pongs.len(), 1);
        assert_eq!(c.pongs[0].0, 7);
        assert!(c.pongs[0].1 > SimTime::ZERO);
    }

    #[test]
    fn events_fire_in_time_order_with_fifo_ties() {
        let (mut sim, client, server) = two_node_sim();
        for tag in 0..10 {
            sim.post(client, server, TestMsg::Ping(tag));
        }
        sim.run_until_idle();
        let c = sim.actor::<Collector>(client).expect("alive");
        let tags: Vec<u32> = c.pongs.iter().map(|(t, _)| *t).collect();
        assert_eq!(tags, (0..10).collect::<Vec<_>>());
        let times: Vec<SimTime> = c.pongs.iter().map(|(_, t)| *t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn driver_side_ids_stay_dense() {
        // Lane-structured allocation must not disturb the driver's view:
        // spawns, timers, and fresh u64s minted driver-side keep the same
        // dense numbering the pre-lane engine produced.
        let mut sim = Simulation::<TestMsg>::new(NetConfig::instant(), 99);
        let a = sim.spawn(NodeId::from_raw(0), Responder);
        let b = sim.spawn(NodeId::from_raw(1), Responder);
        assert_eq!(a.as_raw(), 0);
        assert_eq!(b.as_raw(), 1);
        assert_eq!(sim.fresh_u64(), 1);
        assert_eq!(sim.fresh_u64(), 2);
    }

    #[test]
    fn dead_actor_messages_become_dead_letters() {
        let (mut sim, client, server) = two_node_sim();
        sim.kill(server);
        sim.post(client, server, TestMsg::Ping(1));
        sim.run_until_idle();
        assert_eq!(sim.dead_letters(), 1);
        let c = sim.actor::<Collector>(client).expect("alive");
        assert!(c.pongs.is_empty());
    }

    /// An actor that kills itself upon the first message.
    struct SelfDestruct;

    impl Actor<TestMsg> for SelfDestruct {
        fn on_message(&mut self, ctx: &mut Ctx<'_, TestMsg>, _from: ActorId, _msg: TestMsg) {
            let me = ctx.self_id();
            ctx.kill(me);
        }
    }

    #[test]
    fn self_kill_takes_effect_after_handler() {
        let mut sim = Simulation::new(NetConfig::instant(), 2);
        let a = sim.spawn(NodeId::from_raw(0), SelfDestruct);
        let b = sim.spawn(NodeId::from_raw(0), Collector::default());
        sim.post(b, a, TestMsg::Ping(0));
        sim.post(b, a, TestMsg::Ping(1));
        sim.run_until_idle();
        assert!(!sim.is_alive(a));
        assert_eq!(sim.dead_letters(), 1);
    }

    /// Crashes its own node upon the first message.
    struct CrashOwnNode;

    impl Actor<TestMsg> for CrashOwnNode {
        fn on_message(&mut self, ctx: &mut Ctx<'_, TestMsg>, _from: ActorId, _msg: TestMsg) {
            let node = ctx.node();
            ctx.crash_node(node);
        }
    }

    #[test]
    fn every_death_leaves_one_actor_killed_span() {
        let mut sim = Simulation::new(NetConfig::instant(), 3);
        sim.spans_mut().enable();
        let (n0, n1) = (NodeId::from_raw(0), NodeId::from_raw(1));
        let driven = sim.spawn(n0, Collector::default());
        let selfish = sim.spawn(n0, SelfDestruct);
        let crasher = sim.spawn(n1, CrashOwnNode);
        let bystander = sim.spawn(n1, Collector::default());
        sim.kill(driven);
        sim.post(driven, selfish, TestMsg::Ping(0));
        sim.post(driven, crasher, TestMsg::Ping(1));
        sim.run_until_idle();
        let log = sim.spans();
        let deaths: Vec<(u32, Option<SpanKind>)> = log
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                SpanKind::ActorKilled { actor } => {
                    Some((actor, e.parent.and_then(|p| log.get(p)).map(|p| p.kind)))
                }
                _ => None,
            })
            .collect();
        let delivered = |dst: ActorId, dst_node: NodeId| SpanKind::MsgDelivered {
            src: driven.as_raw(),
            dst: dst.as_raw(),
            dst_node: dst_node.as_raw(),
        };
        assert_eq!(
            deaths,
            [
                (driven.as_raw(), None),
                (selfish.as_raw(), Some(delivered(selfish, n0))),
                (bystander.as_raw(), Some(SpanKind::NodeCrashed { node: 1 })),
                (crasher.as_raw(), Some(delivered(crasher, n1))),
            ]
        );
        assert!(![driven, selfish, crasher, bystander]
            .iter()
            .any(|&a| sim.is_alive(a)));
    }

    /// Fires a timer chain: each on_timer schedules the next until 5 fired.
    #[derive(Default)]
    struct TimerChain {
        fired: Vec<(u64, SimTime)>,
    }

    impl Actor<TestMsg> for TimerChain {
        fn on_message(&mut self, ctx: &mut Ctx<'_, TestMsg>, _from: ActorId, _msg: TestMsg) {
            ctx.schedule_timer(SimDuration::from_millis(10), 0);
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, token: u64) {
            let now = ctx.now();
            self.fired.push((token, now));
            if token < 4 {
                ctx.schedule_timer(SimDuration::from_millis(10), token + 1);
            }
        }
    }

    #[test]
    fn timer_chains_advance_the_clock() {
        let mut sim = Simulation::new(NetConfig::instant(), 3);
        let a = sim.spawn(NodeId::from_raw(0), TimerChain::default());
        sim.post(a, a, TestMsg::Ping(0));
        sim.run_until_idle();
        let chain = sim.actor::<TimerChain>(a).expect("alive");
        assert_eq!(chain.fired.len(), 5);
        assert_eq!(
            chain.fired.last().expect("five").1,
            SimTime::ZERO + SimDuration::from_millis(50)
        );
    }

    #[test]
    fn cancelled_timers_do_not_fire() {
        let mut sim = Simulation::new(NetConfig::instant(), 4);
        let a = sim.spawn(NodeId::from_raw(0), TimerChain::default());
        let id = sim.schedule_timer_for(a, SimDuration::from_secs(1), 99);
        sim.with_actor::<TimerChain, _>(a, |_, ctx| ctx.cancel_timer(id));
        sim.run_until_idle();
        let chain = sim.actor::<TimerChain>(a).expect("alive");
        assert!(chain.fired.is_empty());
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = Simulation::new(NetConfig::instant(), 5);
        let a = sim.spawn(NodeId::from_raw(0), TimerChain::default());
        sim.post(a, a, TestMsg::Ping(0));
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(25));
        let fired = sim.actor::<TimerChain>(a).expect("alive").fired.len();
        assert_eq!(fired, 2, "only timers at 10ms and 20ms fire by 25ms");
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_millis(25));
        sim.run_until_idle();
        assert_eq!(sim.actor::<TimerChain>(a).expect("alive").fired.len(), 5);
    }

    #[test]
    fn with_actor_returns_closure_result() {
        let mut sim = Simulation::new(NetConfig::instant(), 6);
        let a = sim.spawn(NodeId::from_raw(0), Collector::default());
        let n = sim.with_actor::<Collector, _>(a, |c, _ctx| c.pongs.len());
        assert_eq!(n, 0);
    }

    #[test]
    #[should_panic(expected = "not alive")]
    fn with_actor_panics_on_dead_actor() {
        let mut sim = Simulation::new(NetConfig::instant(), 7);
        let a = sim.spawn(NodeId::from_raw(0), Collector::default());
        sim.kill(a);
        sim.with_actor::<Collector, _>(a, |_, _| ());
    }

    #[test]
    fn fresh_u64_is_monotonic() {
        let mut sim = Simulation::<TestMsg>::new(NetConfig::instant(), 8);
        let a = sim.fresh_u64();
        let b = sim.fresh_u64();
        assert!(b > a);
    }

    #[test]
    fn crash_kills_actors_cancels_timers_and_blocks_traffic() {
        let mut sim = Simulation::new(NetConfig::centurion(), 9);
        let n0 = NodeId::from_raw(0);
        let n1 = NodeId::from_raw(1);
        let client = sim.spawn(n0, Collector::default());
        let server = sim.spawn(n1, Responder);
        let chain = sim.spawn(n1, TimerChain::default());
        sim.post(chain, chain, TestMsg::Ping(0));
        sim.run_for(SimDuration::from_millis(1));
        assert!(sim.pending_events() > 0, "a chain timer is pending");

        let killed = sim.crash_node(n1);
        assert_eq!(killed, 2);
        assert!(!sim.is_alive(server));
        assert!(!sim.is_alive(chain));
        assert!(sim.is_alive(client));
        assert!(!sim.is_node_up(n1));
        assert_eq!(
            sim.pending_events(),
            0,
            "dead actors' timers are swept from the queue"
        );
        assert_eq!(sim.timers_cancelled_by_crash(), 1);

        // New traffic toward the dead node is dropped as unreachable, with
        // a counted reason — not a dead letter (it never reached the node).
        sim.post(client, server, TestMsg::Ping(1));
        sim.run_until_idle();
        assert_eq!(sim.network().stats().unreachable, 1);
        assert_eq!(sim.network().stats().unreachable, 1);
        assert_eq!(sim.dead_letters(), 0);

        // Restart: the node is reachable again, but old actors stay dead —
        // deliveries to them now dead-letter.
        sim.restart_node(n1);
        assert!(sim.is_node_up(n1));
        sim.post(client, server, TestMsg::Ping(2));
        sim.run_until_idle();
        assert_eq!(sim.dead_letters(), 1);

        // A replacement spawned after the restart serves traffic.
        let server2 = sim.spawn(n1, Responder);
        sim.post(client, server2, TestMsg::Ping(3));
        sim.run_until_idle();
        let c = sim.actor::<Collector>(client).expect("alive");
        assert_eq!(c.pongs.len(), 1);
        assert_eq!(sim.actors_on(n1), vec![server2]);
    }

    #[test]
    fn crash_of_a_down_node_is_a_noop() {
        let mut sim = Simulation::<TestMsg>::new(NetConfig::instant(), 10);
        let n = NodeId::from_raw(3);
        sim.spawn(n, Responder);
        assert_eq!(sim.crash_node(n), 1);
        assert_eq!(sim.crash_node(n), 0, "second crash is a no-op");
        assert_eq!(sim.node_crashes().len(), 1);
        sim.restart_node(n);
        sim.restart_node(n);
        assert_eq!(sim.node_restarts(), 1);
    }

    #[test]
    fn partitioned_nodes_drop_cross_group_traffic() {
        let mut sim = Simulation::new(NetConfig::centurion(), 11);
        let a = sim.spawn(NodeId::from_raw(0), Collector::default());
        let b = sim.spawn(NodeId::from_raw(1), Responder);
        sim.network_mut()
            .set_partition(&[vec![NodeId::from_raw(0)], vec![NodeId::from_raw(1)]]);
        sim.post(a, b, TestMsg::Ping(1));
        sim.run_until_idle();
        assert!(sim.actor::<Collector>(a).expect("alive").pongs.is_empty());
        assert_eq!(sim.network().stats().unreachable, 1);
        sim.network_mut().heal_partition();
        sim.post(a, b, TestMsg::Ping(2));
        sim.run_until_idle();
        assert_eq!(sim.actor::<Collector>(a).expect("alive").pongs.len(), 1);
    }

    #[test]
    fn degraded_duplicates_are_counted() {
        // TestMsg does not implement clone_for_redelivery, so a planned
        // duplicate degrades to one late delivery — and is counted.
        let mut cfg = NetConfig::centurion();
        cfg.duplicate_rate = 1.0;
        let mut sim = Simulation::new(cfg, 12);
        let a = sim.spawn(NodeId::from_raw(0), Collector::default());
        let b = sim.spawn(NodeId::from_raw(1), Collector::default());
        sim.post(a, b, TestMsg::Pong(1));
        sim.run_until_idle();
        let stats = sim.network().stats();
        assert_eq!(stats.duplicates_planned, 1);
        assert_eq!(stats.duplicates_degraded, 1);
        assert_eq!(
            sim.actor::<Collector>(b).expect("alive").pongs.len(),
            1,
            "degraded duplicate still delivers exactly once"
        );
    }

    #[test]
    fn identical_seeds_give_identical_traces() {
        let run = |seed: u64| -> Vec<(u32, SimTime)> {
            let mut sim = Simulation::new(NetConfig::centurion(), seed);
            let client = sim.spawn(NodeId::from_raw(0), Collector::default());
            let server = sim.spawn(NodeId::from_raw(1), Responder);
            for tag in 0..20 {
                sim.post(client, server, TestMsg::Ping(tag));
            }
            sim.run_until_idle();
            sim.actor::<Collector>(client).expect("alive").pongs.clone()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(
            run(42),
            run(43),
            "different seeds should jitter differently"
        );
    }
}
