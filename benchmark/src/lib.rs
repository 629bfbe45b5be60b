//! The repo benchmark: four scaled declared scenarios run through
//! `dcdo_scenario::run_artifacts`, end-to-end host and simulated metrics,
//! and a phase-traced per-layer split. See `benchmark/README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod host;
pub mod kernels;
pub mod plain;
pub mod replica;
pub mod report;
pub mod spanscan;
pub mod stats;
pub mod traced;
pub mod workloads;
