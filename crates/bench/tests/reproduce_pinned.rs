//! The paper's tables, pinned: `reproduce`'s full report at seed 42 must
//! equal the committed `reproduce_output.md` byte for byte. The report is
//! simulated time only, so it is the same in debug and release builds. A
//! change that moves a paper number regenerates the file in the same commit:
//!
//! ```text
//! cargo run --release -p dcdo-bench --bin reproduce > reproduce_output.md
//! ```

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
