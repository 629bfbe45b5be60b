//! Pins what each benchmark shape costs the heap, exactly.
//!
//! A counting global allocator sees every allocation, reallocation and
//! free the test thread makes while `run_artifacts` runs each of the four
//! benchmark shapes (`dcdo_scenario::shapes`) at seed 42: at a tenth of
//! the benchmark's size, and, in an ignored test that release CI runs, at
//! the benchmark's own size. The counts are a function of the program
//! alone (the engine is deterministic and single-threaded), so they hold
//! in debug and release builds alike and do not wobble between runs: a
//! moved pin means the program's memory behaviour moved. Counting is per
//! thread, so the two tests may run side by side. A change that moves a
//! pin re-pins it in a commit of its own and says why.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

use dcdo_scenario::{run_artifacts, shapes, Scenario};

/// The counting allocator: forwards to `System`, tallying the thread
/// that switched [`COUNTING`] on.
struct Counting;

/// An allocation at least this large counts as large.
const LARGE: usize = 128 << 10;

/// What the counted thread did to the heap.
#[derive(Clone, Copy, Default)]
struct Tally {
    allocs: u64,
    reallocs: u64,
    /// Bytes requested by allocations and by reallocations' new sizes.
    alloc_bytes: u64,
    /// Allocations and reallocations to at least [`LARGE`] bytes.
    large: u64,
    /// Bytes live now, counted from the window's start (frees of older
    /// blocks take it below zero).
    live: i64,
    peak_live: i64,
}

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally {
            allocs: 0,
            reallocs: 0,
            alloc_bytes: 0,
            large: 0,
            live: 0,
            peak_live: 0,
        })
    };
}

/// Applies `f` to the tally if this thread is counting.
fn tally(f: impl FnOnce(&mut Tally)) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = TALLY.try_with(|t| {
            let mut v = t.get();
            f(&mut v);
            v.peak_live = v.peak_live.max(v.live);
            t.set(v);
        });
    }
}

fn grown(t: &mut Tally, size: usize) {
    t.alloc_bytes += size as u64;
    t.large += u64::from(size >= LARGE);
    t.live += size as i64;
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only const-initialised thread-locals, none
// of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(|t| {
            t.allocs += 1;
            grown(t, layout.size());
        });
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(|t| {
            t.allocs += 1;
            grown(t, layout.size());
        });
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(|t| {
            t.reallocs += 1;
            t.live -= layout.size() as i64;
            grown(t, new_size);
        });
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(|t| t.live -= layout.size() as i64);
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SEED: u64 = 42;

/// A pin table: per shape, in `shapes::NAMES` order, allocations,
/// reallocations, bytes allocated, large allocations, peak live bytes,
/// events, spans.
type Pins = [(&'static str, [u64; 7]); 4];

/// At a tenth of the benchmark's size.
const PINS: Pins = [
    (
        "calls_steady",
        [326, 96, 9994166, 10, 5009224, 18044, 63145],
    ),
    (
        "reconfig_churn",
        [9008, 158, 6961812, 8, 2668650, 7653, 25934],
    ),
    (
        "mixed_traffic_x50",
        [5825, 141, 6650349, 9, 2760135, 8573, 29324],
    ),
    (
        "upgrade_crash_long",
        [236, 71, 18008327, 10, 9003971, 36071, 72167],
    ),
];

/// At the benchmark's size.
const PINS_FULL: Pins = [
    (
        "calls_steady",
        [331, 118, 141723022, 23, 71589745, 180044, 630145],
    ),
    (
        "reconfig_churn",
        [86051, 378, 62098244, 36, 23146890, 76734, 259656],
    ),
    (
        "mixed_traffic_x50",
        [58944, 267, 86042341, 29, 37239017, 87239, 298041],
    ),
    (
        "upgrade_crash_long",
        [236, 81, 136796423, 17, 68398019, 360071, 720167],
    ),
];

/// One shape's row at `scale`: its counts over one `run_artifacts` call,
/// with the run's events and spans.
fn measure(name: &str, scale: f64) -> [u64; 7] {
    let text = shapes::generate(name, SEED, scale).expect("a named shape");
    let scenario = Scenario::from_text(&text).expect("a shape parses");
    TALLY.with(|t| t.set(Tally::default()));
    COUNTING.with(|c| c.set(true));
    let artifacts = run_artifacts(scenario, None).expect("a valid shape");
    COUNTING.with(|c| c.set(false));
    let t = TALLY.with(Cell::get);
    assert!(artifacts.report.passed, "{name}: every expectation holds");
    [
        t.allocs,
        t.reallocs,
        t.alloc_bytes,
        t.large,
        t.peak_live as u64,
        artifacts.report.events_processed,
        artifacts.spans.len() as u64,
    ]
}

/// Renders rows as the source of [`PINS`], so a failure shows the table
/// to re-pin from.
fn render(rows: &[(&str, [u64; 7])]) -> String {
    let mut out = String::new();
    for (name, row) in rows {
        let _ = writeln!(out, "    ({name:?}, {row:?}),");
    }
    out
}

/// Fails, showing the measured table, unless every shape at `scale`
/// matches `pins`.
fn check(scale: f64, pins: &Pins) {
    let got: Vec<(&str, [u64; 7])> = shapes::NAMES
        .iter()
        .map(|&n| (n, measure(n, scale)))
        .collect();
    assert_eq!(
        render(&got),
        render(pins),
        "allocations, reallocations, bytes allocated, allocations >= 128 KiB, \
         peak live bytes, events, spans per shape at scale {scale}, seed {SEED}"
    );
}

#[test]
fn each_shape_costs_the_heap_exactly_this_much() {
    check(0.1, &PINS);
}

#[test]
#[ignore = "the benchmark's size: seconds in release, minutes in debug"]
fn each_shape_at_full_size_costs_the_heap_exactly_this_much() {
    check(1.0, &PINS_FULL);
}
