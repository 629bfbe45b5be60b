//! Deterministic discrete-event testbed simulator.
//!
//! This crate stands in for the paper's evaluation testbed — the Legion
//! "Centurion" machine subset: 16 dual 400 MHz Pentium II nodes on 100 Mbps
//! switched Ethernet. It provides:
//!
//! - a virtual clock with nanosecond resolution ([`SimTime`], [`SimDuration`]);
//! - an actor-based event engine ([`Simulation`], [`Actor`], [`Ctx`]) with
//!   timers and deterministic `(time, lane, seq)` event ordering;
//! - a calibrated network model ([`NetConfig`], [`Network`]) with per-message
//!   overhead, bandwidth serialization, egress contention, and optional
//!   loss/duplication fault injection;
//! - a bulk [`TransferModel`] calibrated to Legion's file-transfer
//!   throughput as implied by the paper's own numbers;
//! - seeded randomness ([`SimRng`]) and measurement collection ([`Metrics`],
//!   [`Histogram`]).
//!
//! Determinism: events are totally ordered by `(time, lane, sequence)` keys
//! minted from per-lane counters, and all jitter comes from per-lane seeded
//! generators split deterministically from the run seed — identical seeds
//! produce identical traces. Execution is sequential, on the calling
//! thread.
//!
//! # Examples
//!
//! ```
//! use dcdo_sim::{Actor, ActorId, Ctx, NetConfig, NodeId, Payload, SimDuration, Simulation};
//!
//! struct Tick;
//! impl Payload for Tick {}
//!
//! #[derive(Default)]
//! struct Clock {
//!     ticks: u32,
//! }
//!
//! impl Actor<Tick> for Clock {
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, Tick>, _from: ActorId, _msg: Tick) {
//!         ctx.schedule_timer(SimDuration::from_secs(1), 0);
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Ctx<'_, Tick>, _token: u64) {
//!         self.ticks += 1;
//!     }
//! }
//!
//! let mut sim = Simulation::new(NetConfig::instant(), 7);
//! let clock = sim.spawn(NodeId::from_raw(0), Clock::default());
//! sim.post(clock, clock, Tick);
//! sim.run_until_idle();
//! assert_eq!(sim.actor::<Clock>(clock).unwrap().ticks, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod metrics;
mod net;
mod queue;
mod rng;
mod time;
mod timeline;
mod trace;

pub use engine::{Actor, ActorId, Ctx, Payload, Simulation, TimerId};
pub use metrics::{Histogram, Metrics};
pub use net::{DeliveryPlan, LinkFault, NetConfig, NetStats, Network, NodeId, TransferModel};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use timeline::{Bucket, Timeline, WindowStats, DEFAULT_BUCKET_NS};
pub use trace::{Trace, TraceEntry, TraceEvent};

// The always-on flight recorder (see the `dcdo-trace` crate): re-exported
// alongside the engine that feeds it.
pub use dcdo_trace::{
    tail_sample, tail_sample_checked, FlightDump, FlightFrame, FlightRecorder, RetainedFlow,
};

// Structured causal tracing (see the `dcdo-trace` crate): re-exported so
// layers above the engine can emit spans through [`Ctx`] without depending
// on the tracing crate directly.
pub use dcdo_trace::{
    cfg_step, check as check_trace_invariants, fn_hash, fnv1a, mgr_step, FlowKind, Fnv1a, Fold,
    GroupArena, GroupsRef, IdHasher, IdMap, IdSet, RpcOutcome, SendVerdict, SpanEvent, SpanId,
    SpanKind, TraceLog, Violation, NO_NODE,
};
