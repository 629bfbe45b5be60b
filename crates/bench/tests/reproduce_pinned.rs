//! The paper's tables, pinned: `reproduce`'s full report at seed 42 must
//! equal the committed `reproduce_output.md` byte for byte. The report is
//! simulated time only, so it is the same in debug and release builds. A
//! change that moves a paper number regenerates the file in the same commit:
//!
//! ```text
//! cargo run --release -p dcdo-bench --bin reproduce > reproduce_output.md
//! ```
//!
//! P1's `class_*` rows are also checked against the cost model they price.

#[test]
fn reproduce_output_md_is_the_seed_42_report() {
    let live = dcdo_bench::experiments::render(42, false);
    let committed = include_str!("../../../reproduce_output.md");
    if live != committed {
        let first = live
            .lines()
            .zip(committed.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| live.lines().count().min(committed.lines().count()));
        panic!(
            "reproduce output drifted from reproduce_output.md at line {}:\n  live:      {:?}\n  committed: {:?}",
            first + 1,
            live.lines().nth(first),
            committed.lines().nth(first),
        );
    }
}

/// P1's class rows measure the cost model: the traced E6 evolve's download
/// and spawn segments are its figures, to the nanosecond.
#[test]
fn traced_replacement_segments_are_the_cost_model() {
    use dcdo_profile::collect_flows;
    use dcdo_sim::{mgr_step, FlowKind};

    let bed = dcdo_bench::experiments::traced_replacement(42);
    let flows = collect_flows(bed.sim.spans());
    let evolve = flows
        .iter()
        .find(|f| f.kind == FlowKind::ClassEvolve)
        .expect("a class evolve flow");
    let segment = |code| {
        let (_, from, to) = evolve.segments().into_iter().find(|s| s.0 == code)?;
        Some(to - from)
    };
    let functions = dcdo_workloads::service::counter_core().functions().len();
    let download = bed.cost.transfer.transfer_time(550_000).as_nanos();
    let spawn = bed.cost.process_creation(functions).as_nanos();
    assert_eq!(segment(mgr_step::DOWNLOAD), Some(download));
    assert_eq!(segment(mgr_step::SPAWN), Some(spawn));
}
