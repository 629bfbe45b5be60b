//! Structured causal tracing for the DCDO reproduction stack.
//!
//! The simulator's original [`Trace`](../dcdo_sim/trace/index.html) is a flat
//! ring of engine-level delivery events; it answers "what happened" but not
//! "why". This crate adds a second, richer channel: every interesting action
//! — message send/deliver/drop, RPC attempt/retry/timeout, binding
//! hit/invalidation, manager flow step, chaos fault — emits a typed
//! [`SpanKind`] recorded as a [`SpanEvent`] in a per-run [`TraceLog`]. Each
//! event carries a causal parent (the span of the event whose handler emitted
//! it), the simulated time, and the node it happened on, so a finished log is
//! a causal forest over the whole run.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** [`TraceLog::emit`] is a single branch on a
//!    bool when tracing is off; callers never allocate or format eagerly.
//! 2. **Deterministic.** Span ids are dense sequence numbers in emit order;
//!    every field is an integer. Two runs with the same seed produce
//!    byte-identical logs, and [`TraceLog::digest`] is stable across
//!    debug/release builds because no floats ever enter the hash.
//! 3. **Checkable.** [`check`] replays a finished log and verifies
//!    system-wide conformance invariants (no delivery to a dead node, flows
//!    terminate, generations are monotone, retry chains resolve, recovered
//!    objects re-register before serving).
//!
//! This crate sits below `dcdo-sim` in the dependency order, so identifiers
//! are raw integers (`u32` actors/nodes, `u64` objects/calls/flows); the
//! simulator and the layers above convert their newtypes at the emit site.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod check;
mod export;
mod flight;
mod hash;
mod log;
mod span;
mod write;

pub use check::{check, Checker, Violation};
pub use flight::{
    tail_sample, FlightDump, FlightFrame, FlightRecorder, RetainedFlow, TailSampler,
    DEFAULT_FLIGHT_CAPACITY,
};
pub use hash::{fn_hash, fnv1a, Fnv1a, Fold, IdHasher, IdMap, IdSet};
pub use log::{SpanDigest, TraceLog};
pub use span::{
    cfg_step, mgr_step, FlowKind, GroupArena, GroupsRef, RpcOutcome, SendVerdict, SpanEvent,
    SpanId, SpanKind, NO_NODE,
};
pub use write::{JsonWriter, PromWriter};
