//! Pins the heap allocations of a served DCDO call.
//!
//! A counting global allocator sees every allocation this test thread
//! makes while a warm, traced counter service serves a window of
//! alternating `incr`/`get` calls from one client: the client's RPC, the
//! DCDO's DFM dispatch and thread-activity counters, the VM thread (frames,
//! stacks, profile) and its `VmCost` harvest. The steady-state call path
//! allocates nothing; what the window does allocate is the amortized
//! growth of the world's observation sinks (timeline buckets, the span
//! log, the flight ring). This file holds exactly one test, so no other
//! test's allocations reach the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use dcdo_types::{FunctionName, VersionId};
use dcdo_workloads::{service, Manager, Strategy};
use legion_substrate::harness::Testbed;

/// Counts the allocations of the thread that switched [`COUNTING`] on.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only an atomic and a const-initialised
// thread-local, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Warm-up calls before the measured window: every pool, cache and
/// counter slot on the path is filled by then.
const WARM_CALLS: usize = 2_000;
/// Calls in the measured window.
const CALLS: usize = 1_000;
/// Allocations the measured window makes: none per call, two amortized
/// growths of observation sinks.
const WINDOW_ALLOCATIONS: u64 = 2;

#[test]
fn a_warm_traced_call_allocates_nothing() {
    let mut bed = Testbed::centurion(42);
    bed.sim.spans_mut().enable();
    let client_node = bed.nodes[15];
    let manager = Manager::spawn(&mut bed, Strategy::SingleVersionExplicit, client_node);
    let (ico, _) = Manager::publish(&mut bed, &service::counter_core(), 1);
    let v1 = manager.build_version(&mut bed, &VersionId::root(), service::counter_v1(ico));
    manager.set_current(&mut bed, &v1);
    let home = bed.nodes[4];
    let (dcdo, _) = manager.create(&mut bed, home);
    let names: [FunctionName; 2] = ["incr".into(), "get".into()];
    let call = |bed: &mut Testbed, i: usize| {
        bed.call_and_wait(manager.driver, dcdo, names[i % 2].clone(), vec![])
            .result
            .expect("the counter serves every call");
    };
    for i in 0..WARM_CALLS {
        call(&mut bed, i);
    }

    ALLOCATIONS.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    for i in 0..CALLS {
        call(&mut bed, i);
    }
    COUNTING.with(|c| c.set(false));

    assert_eq!(
        ALLOCATIONS.load(Ordering::Relaxed),
        WINDOW_ALLOCATIONS,
        "allocations across {CALLS} warm traced calls"
    );
    let totals = bed.sim.totals::<dcdo_vm::VmTotals>().expect("tracing on");
    assert!(
        totals.profile.function("incr").is_some(),
        "the window was profiled"
    );
}
