//! Umbrella crate for the DCDO reproduction.
//!
//! Re-exports every layer of the stack so examples, integration tests, and
//! downstream users can depend on a single crate:
//!
//! - [`types`] — identifiers, version identifiers, interface vocabulary.
//! - [`sim`] — the deterministic discrete-event testbed simulator.
//! - [`vm`] — the bytecode substrate standing in for native dynamic loading.
//! - [`legion`] — the Legion-like distributed object substrate and the
//!   monolithic-object baseline.
//! - [`core`] — the paper's contribution: DFMs, DCDOs, ICOs, DCDO Managers,
//!   dependencies, and evolution restrictions.
//! - [`chaos`] — deterministic fault injection (crashes, partitions, link
//!   faults) and the FaultPlan DSL driving the recovery paths.
//! - [`group`] — epoch-based group reconfiguration: joinable config deltas
//!   (lattice agreement), propose/commit epochs over replica sets, and
//!   rolling-upgrade orchestration.
//! - [`profile`] — the trace-driven profiler: flow latency breakdowns,
//!   critical paths, reconfiguration cost tables, VM cost attribution, and
//!   deterministic metric exporters.
//! - [`workloads`] — fixtures and workload generators: the manager
//!   stand-up handle, the §3.3–3.5 evolution strategies and the `Fleet`
//!   that measures their rollouts, canonical services, and load drivers.
//! - [`scenario`] — the declarative scenario framework: topologies,
//!   weighted workload mixes, pluggable expectations, and the `.scn`
//!   loader behind `dcdo-inspect scenario`.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for an end-to-end tour: build components,
//! publish them in ICOs, define versions in a DCDO Manager, create a DCDO,
//! invoke it, and evolve it on the fly while clients keep calling.

#![forbid(unsafe_code)]

pub use dcdo_chaos as chaos;
pub use dcdo_core as core;
pub use dcdo_group as group;
pub use dcdo_profile as profile;
pub use dcdo_scenario as scenario;
pub use dcdo_sim as sim;
pub use dcdo_types as types;
pub use dcdo_vm as vm;
pub use dcdo_workloads as workloads;
pub use legion_substrate as legion;
