//! The reproduction experiments, one per claim of the paper's §4.

use std::fmt::Write;

mod cost;
mod ext;
mod perf;
mod policy;
mod profile;

pub use cost::{e4, e5, e6};
pub use ext::{a1, e8};
pub use perf::{e1, e2, e3};
pub use policy::e7;
pub use profile::{p1, traced_replacement};

use crate::table::Table;

/// One experiment: its command-line id and how to run it at `(seed, quick)`.
pub type Experiment = (&'static str, fn(u64, bool) -> Table);

/// Every experiment `reproduce` knows, in print order. `quick` shrinks E4's
/// trial count and E7's fleet sizes; the others have no reduced form.
pub const EXPERIMENTS: [Experiment; 10] = [
    ("e1", |seed, _| e1(seed)),
    ("e2", |seed, _| e2(seed)),
    ("e3", |seed, _| e3(seed)),
    ("e4", |seed, quick| e4(seed, if quick { 4 } else { 12 })),
    ("e5", |seed, _| e5(seed)),
    ("e6", |seed, _| e6(seed)),
    ("e7", |seed, quick| {
        let sizes: &[usize] = if quick { &[4, 16] } else { &[4, 16, 64] };
        e7(seed, sizes)
    }),
    ("e8", |seed, _| e8(seed)),
    ("p1", |seed, _| p1(seed)),
    ("a1", |seed, _| a1(seed)),
];

/// The report header followed by the table of every experiment whose id
/// `want` accepts, in print order, exactly as `reproduce` prints them.
pub fn render_with(seed: u64, quick: bool, want: impl Fn(&str) -> bool) -> String {
    let mut out = String::new();
    out.push_str("# DCDO reproduction — paper evaluation tables (simulated time)\n\n");
    let mode = if quick { "quick" } else { "full" };
    out.push_str(&format!(
        "seed = {seed}; testbed = 16 nodes, 100 Mbps switched Ethernet (calibrated); \
         mode = {mode}\n\n"
    ));
    for (id, run) in EXPERIMENTS {
        if want(id) {
            writeln!(out, "{}", run(seed, quick)).expect("writing to a String cannot fail");
        }
    }
    out
}

/// The whole report: every experiment, except that `quick` drops the A1
/// sweep. `reproduce` with no experiment named prints this, and
/// `reproduce_output.md` is `render(42, false)`.
pub fn render(seed: u64, quick: bool) -> String {
    render_with(seed, quick, |id| !(quick && id == "a1"))
}
