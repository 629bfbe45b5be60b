//! Superinstruction fusion is invisible at the DFM: one sequence of
//! configuration operations and calls — incorporate, enable, call,
//! reconfigure, call — gives the same outcomes, consumed nanoseconds,
//! dispatch count, VM profile and retired-opcode totals on a default
//! (fusing) `Dfm` as on one switched to the unfused reference. The decode
//! cache differs only by the switch's own re-decode of the loaded code.

use dcdo_core::Dfm;
use dcdo_sim::SimDuration;
use dcdo_types::{ComponentId, VersionId};
use dcdo_vm::{
    CallOrigin, ComponentBinary, ComponentBuilder, DecodeCacheStats, NativeRegistry, RunOutcome,
    Value, ValueStore, VmProfile, VmThread,
};

const SPIN: ComponentId = ComponentId::from_raw(1);
const BUMP_TWO: ComponentId = ComponentId::from_raw(2);

/// Exported `spin(n)`: a counted loop (fused loop latch) that calls the
/// leaf `bump` through the DFM every iteration (the inline leaf cache, when
/// the thread is not profiled) and charges simulated work.
fn spin_component() -> ComponentBinary {
    ComponentBuilder::new(SPIN, "spin")
        .exported("spin(int) -> int", |b| {
            let top = b.new_label();
            let end = b.new_label();
            b.locals(2)
                .push_int(0)
                .store_local(0)
                .load_arg(0)
                .store_local(1)
                .bind(top)
                .load_local(1)
                .push_int(0)
                .gt()
                .jump_if_false(end)
                .work(250)
                .load_local(0)
                .call_dyn("bump", 1)
                .store_local(0)
                .load_local(1)
                .push_int(1)
                .sub()
                .store_local(1)
                .jump(top)
                .bind(end)
                .load_local(0)
                .ret()
        })
        .expect("spin")
        .internal("bump(int) -> int", |b| {
            b.load_arg(0).push_int(1).add().ret()
        })
        .expect("bump")
        .build()
        .expect("valid component")
}

/// The reconfiguration's replacement `bump`, stepping by two.
fn bump_two() -> ComponentBinary {
    ComponentBuilder::new(BUMP_TWO, "bump-two")
        .internal("bump(int) -> int", |b| {
            b.load_arg(0).push_int(2).add().ret()
        })
        .expect("bump")
        .build()
        .expect("valid component")
}

/// Everything the sequence lets a caller observe.
#[derive(Debug, PartialEq)]
struct Observed {
    outcomes: Vec<RunOutcome>,
    nanos: Vec<u64>,
    dispatches: u64,
    profile: VmProfile,
    retired: u64,
}

/// Calls `spin(40)` twice, profiled (framed calls) and not (inlined leaf
/// calls); returns the opcodes that ran fused.
fn call_spin(dfm: &mut Dfm, observed: &mut Observed) -> u64 {
    (0..2).map(|i| call_spin_once(dfm, observed, i == 0)).sum()
}

fn call_spin_once(dfm: &mut Dfm, observed: &mut Observed, profiled: bool) -> u64 {
    let mut thread = VmThread::call(
        dfm,
        &"spin".into(),
        vec![Value::Int(40)],
        CallOrigin::External,
    )
    .expect("spin starts");
    if profiled {
        thread.enable_profiling();
    }
    let outcome = thread.run(
        dfm,
        &NativeRegistry::standard(),
        &mut ValueStore::new(),
        100_000,
    );
    observed.outcomes.push(outcome);
    observed.nanos.push(thread.take_consumed_nanos());
    if let Some(profile) = thread.profile() {
        observed.profile.merge(profile);
    }
    let (retired, fused) = thread.retired_counts();
    observed.retired += retired;
    fused
}

/// Runs the sequence; `fuse == false` switches the DFM to the unfused
/// reference once the first component is loaded. Returns what the caller
/// saw, the fused share of the retired opcodes, and the decode cache.
fn run(fuse: bool) -> (Observed, u64, DecodeCacheStats) {
    let band = (SimDuration::from_nanos(100), SimDuration::from_nanos(900));
    let mut dfm = Dfm::new(VersionId::root(), band, 5);
    let mut observed = Observed {
        outcomes: Vec::new(),
        nanos: Vec::new(),
        dispatches: 0,
        profile: VmProfile::new(),
        retired: 0,
    };
    dfm.incorporate_component(&spin_component(), None)
        .expect("incorporates");
    if !fuse {
        dfm.set_fusion(false);
    }
    for f in ["spin", "bump"] {
        dfm.enable_function(&f.into(), SPIN).expect("enables");
    }
    let mut fused = call_spin(&mut dfm, &mut observed);
    // The reconfiguration: a new component replaces `bump` under the
    // running configuration, expiring every cached token and leaf.
    dfm.incorporate_component(&bump_two(), None)
        .expect("incorporates");
    dfm.enable_function(&"bump".into(), BUMP_TWO)
        .expect("replaces");
    fused += call_spin(&mut dfm, &mut observed);
    observed.dispatches = dfm.dispatches();
    (observed, fused, dfm.decode_cache_stats())
}

#[test]
fn a_dfm_observes_the_same_with_fusion_on_and_off() {
    let (fused, fused_part, fused_cache) = run(true);
    let (unfused, unfused_part, unfused_cache) = run(false);

    assert_eq!(
        fused.outcomes,
        [40, 40, 80, 80].map(|v| RunOutcome::Completed(Value::Int(v)))
    );
    assert_eq!(fused, unfused);
    assert!(fused_part > 0, "the fused run executed superinstructions");
    assert_eq!(unfused_part, 0);

    // The switch re-decoded the two functions loaded at the time; every
    // other decode, hit and invalidation is the same.
    let redecoded = 2;
    assert_eq!(unfused_cache.hits, fused_cache.hits);
    assert_eq!(unfused_cache.decodes, fused_cache.decodes + redecoded);
    assert_eq!(
        unfused_cache.invalidations,
        fused_cache.invalidations + redecoded
    );
}
