//! Workload generators and fixtures for the DCDO reproduction's benches,
//! examples, scenarios, and integration tests.
//!
//! - [`Manager`] — the one way to stand up a DCDO manager on a testbed and
//!   drive its version workflow (publish, build a version, set it current,
//!   create an instance);
//! - [`Strategy`] — the §3.3–3.5 evolution management strategies as named
//!   presets: version policy, propagation mode, and lazy-check setting;
//! - [`Fleet`] — a manager plus a population of DCDOs under one strategy,
//!   with rollout/convergence measurement ([`PropagationReport`]): the
//!   apparatus behind the paper's scalability observations about
//!   proactive updates;
//! - [`ComponentSuite`] / [`SuiteSpec`] — populations of components for the
//!   creation/overhead sweeps (the paper's 500-functions-in-N-components
//!   shape);
//! - [`service`] — the canonical counter and sort/compare services
//!   (including the paper's §3.2 behavioral-dependency example);
//! - [`ClosedLoopClient`] — the sequential-call load driver behind the
//!   end-to-end tests' background traffic and lazy update checks;
//! - [`simbench`] — the sim-core event-mix shapes behind the episode
//!   scenarios and the trace-invariant suite, and the spin component the
//!   `dispatch` bench's `vm_spin` group times;
//! - [`reconfig`] — the canonical reconfiguration workload with the layer
//!   map and name tables the `dcdo-profile` analyzers consume.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clients;
mod components;
mod fleet;
mod manager;
pub mod reconfig;
pub mod service;
pub mod simbench;
mod strategy;

pub use clients::{CallRecord, ClosedLoopClient};
pub use components::{kernel_function, ComponentSuite, SuiteSpec};
pub use fleet::{Fleet, PropagationReport};
pub use manager::Manager;
pub use strategy::Strategy;
