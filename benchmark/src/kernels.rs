//! Isolated kernels: the unit cost of a layer that is buried inside the
//! engine loop and cannot be spanned from outside. Multiplied by the exact
//! op counts of a run they size that layer's share of the bare drive.
//!
//! Every kernel runs with the observation sinks off and reports the median
//! of [`BATCHES`] batches.

use std::hint::black_box;
use std::time::Instant;

use dcdo_core::Dfm;
use dcdo_group::ConfigDelta;
use dcdo_sim::{NetConfig, Network, NodeId, SimDuration, SimRng, SimTime};
use dcdo_types::VersionId;
use dcdo_vm::{CallOrigin, CallResolver, NativeRegistry, RunOutcome, ValueStore, VmThread};
use dcdo_workloads::{service, simbench};

use crate::stats::median;

/// Batches each kernel is timed over.
const BATCHES: usize = 5;

/// The unit costs, in host nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Kernels {
    /// One engine event between trivial actors (the `fan_out` shape of
    /// `BENCH_sim.json`, instant network): queue pop, delivery, the
    /// reply's queue push.
    pub engine_floor_ns_per_event: f64,
    /// One `Network::plan` call between two nodes of the centurion network.
    pub net_plan_ns: f64,
    /// One by-name DFM resolution with the slot table warm.
    pub dfm_resolve_hit_ns: f64,
    /// One configuration op (slot-table rebuild, fresh generation) plus
    /// the first resolution after it.
    pub dfm_resolve_post_reconfig_ns: f64,
    /// One VM instruction of the counter component's `incr`, thread
    /// creation and dispatch through the DFM included.
    pub vm_ns_per_instr: f64,
    /// One join of two rollout-sized `ConfigDelta`s.
    pub group_delta_join_ns: f64,
}

/// Median over [`BATCHES`] batches of `batch()`'s `(elapsed ns, ops)`.
fn ns_per_op(mut batch: impl FnMut() -> (f64, u64)) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (ns, ops) = batch();
            ns / ops.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// Times `iters` calls of `op`.
fn timed_loop(iters: u64, mut op: impl FnMut()) -> (f64, u64) {
    let start = Instant::now();
    for _ in 0..iters {
        op();
    }
    (start.elapsed().as_nanos() as f64, iters)
}

/// A DFM holding the counter service's component, as the workloads'
/// live instance does.
fn counter_dfm() -> Dfm {
    let mut dfm = Dfm::new(VersionId::root(), (SimDuration::ZERO, SimDuration::ZERO), 7);
    let core = service::counter_core();
    dfm.incorporate_component(&core, None)
        .expect("the counter core incorporates");
    for f in ["step", "get", "incr"] {
        dfm.enable_function(&f.into(), service::ids::COUNTER_CORE)
            .expect("the counter core's functions enable");
    }
    dfm
}

/// Runs every kernel. `scale` shrinks the iteration counts for the
/// self-tests; the unit costs do not depend on it.
pub fn measure(scale: f64) -> Kernels {
    let iters = |base: u64| ((base as f64 * scale) as u64).max(100);

    let engine_floor_ns_per_event = ns_per_op(|| {
        let (mut sim, budget) = simbench::fan_out_sim(iters(4_000), 16, 0);
        sim.flight_mut().disable();
        sim.timeline_mut().disable();
        let start = Instant::now();
        let events = sim.run_with_budget(budget);
        (start.elapsed().as_nanos() as f64, events)
    });

    let net_plan_ns = ns_per_op(|| {
        let mut net = Network::new(NetConfig::centurion());
        let mut rng = SimRng::seed_from_u64(11);
        let (src, dst) = (NodeId::from_raw(0), NodeId::from_raw(1));
        let mut now = SimTime::ZERO;
        timed_loop(iters(200_000), || {
            black_box(net.plan(now, src, dst, 64, &mut rng));
            now = now.saturating_add(SimDuration::from_micros(50));
        })
    });

    let dfm_resolve_hit_ns = ns_per_op(|| {
        let mut dfm = counter_dfm();
        timed_loop(iters(200_000), || {
            let r = dfm.resolve_with_token(&"incr".into(), CallOrigin::External);
            black_box(r.is_ok());
        })
    });

    let dfm_resolve_post_reconfig_ns = ns_per_op(|| {
        let mut dfm = counter_dfm();
        timed_loop(iters(20_000), || {
            dfm.enable_function(&"incr".into(), service::ids::COUNTER_CORE)
                .expect("re-enables");
            let r = dfm.resolve_with_token(&"incr".into(), CallOrigin::External);
            black_box(r.is_ok());
        })
    });

    let vm_ns_per_instr = ns_per_op(|| {
        let mut dfm = counter_dfm();
        let natives = NativeRegistry::standard();
        let mut globals = ValueStore::new();
        let mut instructions = 0u64;
        let (ns, _) = timed_loop(iters(50_000), || {
            let mut thread = VmThread::call(&mut dfm, &"incr".into(), vec![], CallOrigin::External)
                .expect("incr starts");
            match thread.run(&mut dfm, &natives, &mut globals, 1_000) {
                RunOutcome::Completed(v) => {
                    black_box(v);
                }
                other => panic!("incr did not complete: {other:?}"),
            }
            instructions += thread.retired_counts().0;
        });
        (ns, instructions)
    });

    let group_delta_join_ns = ns_per_op(|| {
        let a = ConfigDelta::new().with_version(2).upgrading([1]);
        let b = ConfigDelta::new()
            .with_version(2)
            .upgrading([2, 3])
            .with_param(1, 7);
        timed_loop(iters(200_000), || {
            black_box(black_box(&a).join(black_box(&b)));
        })
    });

    Kernels {
        engine_floor_ns_per_event,
        net_plan_ns,
        dfm_resolve_hit_ns,
        dfm_resolve_post_reconfig_ns,
        vm_ns_per_instr,
        group_delta_join_ns,
    }
}
