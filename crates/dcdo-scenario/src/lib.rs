//! Declarative scenario framework for the DCDO testbed.
//!
//! The layers below this crate each answer one question — the simulator
//! executes, the substrate binds, the core evolves, chaos injects faults,
//! workloads drive traffic. This crate composes them behind a strict
//! division of labor:
//!
//! - **Topologies describe.** A [`Topology`] is a description — node
//!   count, network characteristics, infrastructure tier — that builds a
//!   [`World`]: a bare simulation or a full Legion testbed. It is the only
//!   place a scenario's world comes from.
//! - **Workloads drive.** A [`Workload`] is a trait object with
//!   setup/step/episode/measure phases. Inside a tick window the runner
//!   picks which workload steps by a **weighted draw from the engine's
//!   per-lane deterministic RNG streams**, so the traffic mix is a pure
//!   function of the seed.
//!   `FaultPlan`s attach as workloads ([`ChaosAttachment`]) and
//!   participate in validation.
//! - **Expectations judge.** An [`Expectation`] captures a baseline
//!   before the window and judges the finished run into a [`Verdict`].
//!   The repo's invariant checker and leak check are reusable
//!   impls ([`TraceInvariantsClean`], [`NoLeakedEvents`], the
//!   counter/metric/gauge bounds, [`MixConverged`]).
//!
//! A [`Scenario`] bundles all three plus a run [`Window`] and validates as
//! a whole ([`Scenario::validate`] returns typed [`ScenarioError`]s before
//! any simulation state exists). [`run`] drives it and returns a
//! [`ScenarioReport`] — trace hash, span digest, mix counts, verdicts —
//! with deterministic JSON export for the CI scenario matrix.
//!
//! Scenarios are declared two ways: the Rust builder
//! ([`Scenario::builder`]) or self-contained `.scn` text files
//! ([`Scenario::from_text`], no external parser dependencies). The
//! canonical workloads are embedded declarations in [`registry`], each
//! one's full report pinned by the committed `BENCH_scenarios.json`.
//!
//! # Example
//!
//! ```
//! use dcdo_scenario as scn;
//! use dcdo_sim::{NodeId, SimDuration};
//!
//! // A small composed scenario: a 4-node chatter ring, one mid-run crash
//! // with restart, judged for clean traces and a drained queue.
//! let plan = dcdo_chaos::FaultPlan::new()
//!     .crash_for(SimDuration::from_millis(500), SimDuration::from_millis(300), NodeId::from_raw(2));
//! let scenario = scn::Scenario::builder("ring_crash")
//!     .seed(7)
//!     .topology(scn::Topology::bare(4, scn::NetKind::Centurion))
//!     .timed(SimDuration::from_secs(2))
//!     .workload(0, scn::ChatterRing::new(4, SimDuration::from_secs(2)))
//!     .workload(0, scn::ChaosAttachment::new(NodeId::from_raw(0), plan))
//!     .expect(scn::TraceInvariantsClean)
//!     .expect(scn::NoLeakedEvents)
//!     .build();
//! let report = scn::run(scenario).expect("valid scenario");
//! assert!(report.passed, "{}", report.render());
//!
//! // The same scenario as self-contained text:
//! let declared = scn::Scenario::from_text("
//! scenario ring_crash
//! seed 7
//! topology bare nodes=4 net=centurion
//! window secs=2
//! workload chatter_ring nodes=4 until=2
//! workload chaos node=0 crash_for@0.5+0.3=2
//! expect trace_invariants
//! expect no_leaks
//! ").expect("parses");
//! let redeclared = scn::run(declared).expect("valid scenario");
//! assert_eq!(report.trace_hash, redeclared.trace_hash);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod episodes;
mod error;
mod expect;
mod group;
#[cfg(test)]
mod oracle;
mod parse;
mod report;
mod ring;
mod runner;
mod scenario;
mod slo;
mod topology;
mod traffic;
mod workload;

pub mod registry;
pub mod shapes;

pub use episodes::{ReconfigEpisode, SimBench};
pub use error::ScenarioError;
pub use expect::{
    CounterBound, Expectation, GaugeBound, MetricBound, MixConverged, NoLeakedEvents,
    TraceInvariantsClean, TrafficFlowed, Verdict,
};
pub use group::{ReplicaGroup, RollingUpgrade};
pub use parse::{
    parse_fault_tokens, parse_scenario, parse_secs, ExpectDecl, ScenarioDecl, WorkloadDecl,
};
pub use registry::Registry;
pub use report::ScenarioReport;
pub use ring::{ChaosAttachment, ChatterRing};
pub use runner::{
    run, run_artifacts, run_artifacts_timed, PhaseTimes, RunArtifacts, FLIGHT_SLOW_QUANTILE,
    TRACE_RING_CAPACITY,
};
pub use scenario::{Scenario, ScenarioBuilder, Window, WorkloadSlot};
pub use slo::{SloErrorRate, SloLatency, SloRecovery};
pub use topology::{Infra, NetKind, Topology, World};
pub use traffic::{Calls, ConfigOps, CounterService, Migrations};
pub use workload::{GroupHandles, RunCx, ServiceHandles, Workload};
