//! Benchmark harness for the DCDO reproduction.
//!
//! Two entry points:
//!
//! - `cargo run -p dcdo-bench --bin reproduce --release` regenerates every
//!   evaluation table of the paper in simulated time (experiments E1–E8,
//!   the P1 profile and the A1 ablation; see DESIGN.md §3 for the index);
//! - `cargo bench` runs the Criterion micro-benchmarks that measure the
//!   real (wall-clock) cost of the DFM mechanism: dispatch vs a static
//!   table, descriptor operations, dependency validation, and the
//!   component codec.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod setup;
pub mod table;

pub use table::{secs, Table};
