//! Deterministic fault injection for the DCDO testbed.
//!
//! The simulator can drop or duplicate individual messages, but the
//! interesting failures for a *reconfigurable* object system are coarser:
//! whole nodes crash mid-reconfiguration, the network partitions and heals,
//! links degrade. This crate turns those into first-class, replayable
//! events:
//!
//! - a [`FaultPlan`] is a declarative schedule of fault actions (crash node
//!   at *t*, restart it *d* later, partition node sets, inject per-link
//!   loss/latency) built with a fluent API;
//! - a [`ChaosController`] actor executes the plan inside the simulation:
//!   every action is carried by an ordinary engine timer, so fault timing
//!   participates in the same `(time, seq)` total order as all other events
//!   and replays bit-identically for a given seed;
//! - [`trace_hash`] folds an execution trace into one golden hash word
//!   so tests can assert that two runs of the same plan + seed are
//!   indistinguishable; [`SpanTraceHash`] folds the same word from a span
//!   log, for runs that never record the trace ring.
//!
//! Determinism invariants (checked by this crate's tests):
//!
//! - applying a plan draws nothing from the simulation RNG — fault timing
//!   comes from the plan, not from randomness;
//! - a crash cancels every pending timer owned by the dead node's actors,
//!   so `pending_events()` stays bounded across crash/restart cycles;
//! - an empty plan leaves the event stream untouched apart from the
//!   controller's own spawn record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
mod hash;
mod plan;

pub use controller::{ChaosController, ChaosStats};
pub use hash::{fnv1a, trace_hash, SpanTraceHash};
pub use plan::{FaultAction, FaultPlan, FaultStep, PlanError};
