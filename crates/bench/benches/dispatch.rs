//! Criterion micro-benchmarks: the *real* (wall-clock) cost of the DFM
//! indirection vs a static call table — the mechanism behind the paper's
//! E1 overhead claim, measured on today's hardware rather than the 400 MHz
//! Pentium II of the Centurion testbed — and of the VM's hot loop under
//! each dispatch mode, with its cost profile off and on (`vm_spin`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dcdo_core::Dfm;
use dcdo_sim::SimDuration;
use dcdo_types::{ComponentId, VersionId};
use dcdo_vm::{
    CallOrigin, CallResolver, NativeRegistry, RunOutcome, StaticResolver, Value, ValueStore,
    VmThread,
};
use dcdo_workloads::simbench::vm_spin_component;
use dcdo_workloads::{kernel_function, ComponentSuite, SuiteSpec};
use std::hint::black_box;

fn static_resolver() -> StaticResolver {
    let mut r = StaticResolver::new();
    r.insert(kernel_function("leaf", 0), ComponentId::from_raw(1));
    r
}

fn dfm_with(functions: usize, components: usize) -> Dfm {
    let mut dfm = Dfm::new(VersionId::root(), (SimDuration::ZERO, SimDuration::ZERO), 7);
    let spec = SuiteSpec {
        total_functions: functions.max(components),
        components,
        work_nanos: 0,
        static_data_size: 0,
        first_component_id: 10,
    };
    for comp in ComponentSuite::generate(&spec).components() {
        dfm.incorporate_component(comp, None).expect("incorporates");
        for f in comp.functions() {
            dfm.enable_function(f.name(), comp.id()).expect("enables");
        }
    }
    // The benched function itself.
    let leaf = dcdo_vm::ComponentBuilder::new(ComponentId::from_raw(1), "leaf")
        .exported_fn(kernel_function("leaf", 0))
        .build()
        .expect("valid");
    dfm.incorporate_component(&leaf, None)
        .expect("incorporates");
    dfm.enable_function(&"leaf".into(), ComponentId::from_raw(1))
        .expect("enables");
    dfm
}

/// A DFM populated like [`dfm_with`], plus the `driver` loop function.
fn dfm_with_driver(functions: usize, components: usize) -> Dfm {
    let mut dfm = dfm_with(functions, components);
    let driver = dcdo_vm::ComponentBuilder::new(ComponentId::from_raw(2), "driver")
        .exported_fn(driver_function())
        .build()
        .expect("valid");
    dfm.incorporate_component(&driver, None)
        .expect("incorporates");
    dfm.enable_function(&"driver".into(), ComponentId::from_raw(2))
        .expect("enables");
    dfm
}

fn run_leaf(resolver: &mut dyn CallResolver, natives: &NativeRegistry, globals: &mut ValueStore) {
    let mut t = VmThread::call(
        resolver,
        &"leaf".into(),
        vec![Value::Int(1)],
        CallOrigin::External,
    )
    .expect("starts");
    match t.run(resolver, natives, globals, 1_000) {
        RunOutcome::Completed(v) => {
            black_box(v);
        }
        other => panic!("unexpected outcome {other:?}"),
    }
}

/// `driver(int) -> int`: performs `arg0` dynamic calls to `leaf` in a loop.
/// Every `CallDyn` goes through the resolver's inline-cache path, so one
/// run measures one cold resolution plus `arg0 - 1` cache hits.
fn driver_function() -> dcdo_vm::CodeBlock {
    let mut b = dcdo_vm::FunctionBuilder::parse("driver(int) -> int").expect("signature");
    b.locals(1);
    let top = b.new_label();
    let done = b.new_label();
    b.load_arg(0)
        .store_local(0)
        .bind(top)
        .load_local(0)
        .push_int(0)
        .le()
        .jump_if_true(done)
        .push_int(1)
        .call_dyn("leaf", 1)
        .pop()
        .load_local(0)
        .push_int(1)
        .sub()
        .store_local(0)
        .jump(top)
        .bind(done)
        .push_int(0)
        .ret();
    b.build().expect("driver is valid")
}

/// Runs `driver(calls)` to completion on a fresh thread.
fn run_driver(
    resolver: &mut dyn CallResolver,
    natives: &NativeRegistry,
    globals: &mut ValueStore,
    calls: i64,
) {
    let mut t = VmThread::call(
        resolver,
        &"driver".into(),
        vec![Value::Int(calls)],
        CallOrigin::External,
    )
    .expect("starts");
    match t.run(resolver, natives, globals, 64 + 32 * calls as u64) {
        RunOutcome::Completed(v) => {
            black_box(v);
        }
        other => panic!("unexpected outcome {other:?}"),
    }
}

fn bench_dispatch(c: &mut Criterion) {
    let natives = NativeRegistry::standard();
    let mut group = c.benchmark_group("dispatch");

    let mut static_r = static_resolver();
    let mut globals = ValueStore::new();
    group.bench_function("static_table_call", |b| {
        b.iter(|| run_leaf(&mut static_r, &natives, &mut globals));
    });

    for (functions, components) in [(10usize, 1usize), (100, 10), (500, 50)] {
        let mut dfm = dfm_with(functions, components);
        group.bench_with_input(
            BenchmarkId::new("dfm_call", format!("{functions}fns_{components}comps")),
            &(),
            |b, ()| {
                b.iter(|| run_leaf(&mut dfm, &natives, &mut globals));
            },
        );
    }

    // Inline-cache variants: a driver loop performing `CALLS` dynamic calls
    // per run. Steady state pays one cold resolution then `CALLS - 1`
    // token redemptions; the post-reconfiguration variant runs a
    // configuration operation before each run, so the run also pays the
    // slot-table rebuild and starts from an expired generation.
    const CALLS: i64 = 64;
    for (functions, components) in [(100usize, 10usize), (500, 50)] {
        let mut dfm = dfm_with_driver(functions, components);
        group.bench_with_input(
            BenchmarkId::new(
                "dfm_calldyn_hot_loop64",
                format!("{functions}fns_{components}comps"),
            ),
            &(),
            |b, ()| {
                b.iter(|| run_driver(&mut dfm, &natives, &mut globals, CALLS));
            },
        );
        let mut dfm = dfm_with_driver(functions, components);
        group.bench_with_input(
            BenchmarkId::new(
                "dfm_calldyn_post_reconfig64",
                format!("{functions}fns_{components}comps"),
            ),
            &(),
            |b, ()| {
                b.iter(|| {
                    // A real configuration operation: expires every token
                    // and forces the slot table to rebuild.
                    dfm.enable_function(&"leaf".into(), ComponentId::from_raw(1))
                        .expect("re-enables");
                    run_driver(&mut dfm, &natives, &mut globals, CALLS);
                });
            },
        );
    }

    // Pure resolution (no interpretation): the indirection alone.
    let mut dfm = dfm_with(500, 50);
    group.bench_function("dfm_resolve_only", |b| {
        b.iter(|| {
            let r = dfm.resolve(&"leaf".into(), CallOrigin::External);
            black_box(r.is_ok());
        });
    });
    let mut static_r = static_resolver();
    group.bench_function("static_resolve_only", |b| {
        b.iter(|| {
            let r = static_r.resolve(&"leaf".into(), CallOrigin::External);
            black_box(r.is_ok());
        });
    });

    // Token redemption (the steady-state inline-cache hit) vs a resolve
    // forced to re-issue after a configuration change.
    let mut dfm = dfm_with(500, 50);
    let (_, token) = dfm
        .resolve_with_token(&"leaf".into(), CallOrigin::External)
        .expect("resolves");
    let token = token.expect("dfm issues tokens");
    group.bench_function("dfm_resolve_token_hit", |b| {
        b.iter(|| {
            let r = dfm.resolve_token(token);
            black_box(r.is_some());
        });
    });
    let mut dfm = dfm_with(500, 50);
    group.bench_function("dfm_resolve_post_reconfig", |b| {
        b.iter(|| {
            dfm.enable_function(&"leaf".into(), ComponentId::from_raw(1))
                .expect("re-enables");
            let r = dfm.resolve_with_token(&"leaf".into(), CallOrigin::External);
            black_box(r.is_ok());
        });
    });

    group.finish();
}

/// Iterations of the spin loop per timed run.
const SPIN_ITERS: i64 = 200_000;

/// A frozen resolver holding the spin component, its code decoded with
/// superinstruction fusion or without.
fn spin_resolver(fused: bool) -> StaticResolver {
    let component = vm_spin_component();
    let mut resolver = StaticResolver::new().with_fusion(fused);
    for f in component.functions() {
        resolver.insert(f.code().clone(), component.id());
    }
    resolver
}

/// Runs `spin(SPIN_ITERS)` to completion on a fresh thread, on the legacy
/// single-step interpreter or the threaded loop, with the thread's cost
/// profile enabled or not.
fn run_spin(resolver: &mut StaticResolver, natives: &NativeRegistry, legacy: bool, profiled: bool) {
    let mut globals = ValueStore::new();
    let mut thread = VmThread::call(
        resolver,
        &"spin".into(),
        vec![Value::Int(SPIN_ITERS)],
        CallOrigin::External,
    )
    .expect("spin starts");
    thread.set_legacy_stepper(legacy);
    if profiled {
        thread.enable_profiling();
    }
    let fuel = SPIN_ITERS as u64 * 24 + 64;
    match thread.run(resolver, natives, &mut globals, fuel) {
        RunOutcome::Completed(Value::Int(v)) => assert_eq!(v, SPIN_ITERS, "spin result"),
        other => panic!("spin must complete: {other:?}"),
    }
}

/// The interpreter's hot loop, a function call crossing per iteration, so
/// both the per-instruction and the per-call profiling hooks sit on the
/// path. `fused` is the shipped configuration; `fused_profiled` over
/// `fused` is the price of turning attribution on (off, the hooks cost one
/// predicted branch each); `unfused` and `legacy` are the threaded loop
/// without superinstructions and the single-step interpreter the
/// differential tests hold both to.
fn bench_vm_spin(c: &mut Criterion) {
    let natives = NativeRegistry::standard();
    let mut group = c.benchmark_group("vm_spin");
    for (arm, fused, legacy, profiled) in [
        ("fused", true, false, false),
        ("fused_profiled", true, false, true),
        ("unfused", false, false, false),
        ("legacy", false, true, false),
    ] {
        let mut resolver = spin_resolver(fused);
        group.bench_function(arm, |b| {
            b.iter(|| run_spin(&mut resolver, &natives, legacy, profiled));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dispatch, bench_vm_spin);
criterion_main!(benches);
