//! Workload generators for the DCDO reproduction's benches, examples, and
//! integration tests.
//!
//! - [`ComponentSuite`] / [`SuiteSpec`] — populations of components for the
//!   creation/overhead sweeps (the paper's 500-functions-in-N-components
//!   shape);
//! - [`service`] — the canonical counter and sort/compare services
//!   (including the paper's §3.2 behavioral-dependency example);
//! - [`ClosedLoopClient`] — the sequential-call load driver used to measure
//!   remote-invocation latency and to feed lazy update checks;
//! - [`simbench`] — the sim-core throughput workload shapes behind the
//!   `sim_throughput` bench suite and the `BENCH_sim.json` emitter;
//! - [`reconfig`] — the canonical reconfiguration workload with the layer
//!   map and name tables the `dcdo-profile` analyzers consume.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clients;
mod components;
pub mod reconfig;
pub mod service;
pub mod simbench;

pub use clients::{CallRecord, ClosedLoopClient};
pub use components::{kernel_function, ComponentSuite, SuiteSpec};
