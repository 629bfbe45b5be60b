//! Pins the heap allocations of the DCDO write path.
//!
//! A counting global allocator sees every allocation this test thread
//! makes while a warm, traced counter service is migrated back and forth
//! between hosts that already cache its component, with a configuration
//! op on the live object after each move: the manager's migrate flow
//! (capture, deactivate, spawn, apply the version's descriptor, restore),
//! the new incarnation's component map from the host cache, the client's
//! stale-binding discovery, and `reconfig_churn`'s rotating
//! `QueryInterface` / `QueryFunctionStatus` / `SetLazyCheck` ops. This
//! file holds exactly one test, so no other test's allocations reach the
//! counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use dcdo_core::ops::{
    LazyCheck, MigrateDcdo, MigrateDone, QueryFunctionStatus, QueryInterface, SetLazyCheck,
};
use dcdo_sim::NodeId;
use dcdo_types::{ObjectId, VersionId};
use dcdo_workloads::{service, Manager, Strategy};
use legion_substrate::harness::Testbed;
use legion_substrate::ControlOp;

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

/// Node indices the instance alternates between; both hosts cache the
/// counter component after the warm-up's first visit.
const HOMES: [usize; 2] = [4, 5];
/// Migrate-and-configure rounds before the measured window.
const WARM_ROUNDS: usize = 6;
/// Rounds in the measured window: one migration and one config op each.
const ROUNDS: usize = 12;
/// Allocations the measured window makes.
const WINDOW_ALLOCATIONS: u64 = 393;

/// One round: migrate the instance to `to`, then one config op on it.
fn round(bed: &mut Testbed, manager: &Manager, dcdo: ObjectId, to: NodeId, i: usize) {
    let migrate = ControlOp::new(MigrateDcdo { object: dcdo, to });
    let done = bed
        .control_and_wait(manager.driver, manager.object, migrate)
        .result
        .expect("the migration succeeds");
    assert!(done.control_as::<MigrateDone>().is_some());
    let op = match i % 3 {
        0 => ControlOp::new(QueryInterface),
        1 => ControlOp::new(QueryFunctionStatus {
            function: "get".into(),
        }),
        _ => {
            let mode = if (i / 3).is_multiple_of(2) {
                LazyCheck::EveryKCalls(8)
            } else {
                LazyCheck::Never
            };
            ControlOp::new(SetLazyCheck { mode })
        }
    };
    bed.control_and_wait(manager.driver, dcdo, op)
        .result
        .expect("the live object answers its config op");
}

#[test]
fn a_warm_migration_and_config_op_window_allocates_this_much() {
    let mut bed = Testbed::centurion(42);
    bed.sim.spans_mut().enable();
    let driver_node = bed.nodes[15];
    let manager = Manager::spawn(&mut bed, Strategy::SingleVersionExplicit, driver_node);
    let (ico, _) = Manager::publish(&mut bed, &service::counter_core(), 1);
    let v1 = manager.build_version(&mut bed, &VersionId::root(), service::counter_v1(ico));
    manager.set_current(&mut bed, &v1);
    let home = bed.nodes[HOMES[0]];
    let (dcdo, _) = manager.create(&mut bed, home);
    let to = |bed: &Testbed, i: usize| bed.nodes[HOMES[(i + 1) % HOMES.len()]];
    for i in 0..WARM_ROUNDS {
        let node = to(&bed, i);
        round(&mut bed, &manager, dcdo, node, i);
    }

    ALLOCATIONS.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    for i in WARM_ROUNDS..WARM_ROUNDS + ROUNDS {
        let node = to(&bed, i);
        round(&mut bed, &manager, dcdo, node, i);
    }
    COUNTING.with(|c| c.set(false));

    assert_eq!(
        ALLOCATIONS.load(Ordering::Relaxed),
        WINDOW_ALLOCATIONS,
        "allocations across {ROUNDS} warm migrate-and-configure rounds"
    );
}
