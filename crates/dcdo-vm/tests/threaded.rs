//! Threaded-dispatch regressions: `Work` accounting after folding the
//! pre-dispatch special case into the dispatch table, fuel exhaustion inside
//! superinstructions, the inline leaf-call path, decode-cache invalidation
//! across reconfiguration, and the `vm_spin` bench loop on every path.

use dcdo_types::{ComponentId, FunctionName};
use dcdo_vm::{
    CallOrigin, CallResolver, CodeBlock, Instr, NativeRegistry, ResolveError, ResolvedCall,
    RunOutcome, StaticResolver, Value, ValueStore, VmError, VmProfile, VmThread,
};

fn block(sig: &str, locals: u8, instrs: Vec<Instr>) -> CodeBlock {
    CodeBlock::new(sig.parse().expect("signature"), locals, instrs)
}

/// Runs `entry(11)` against `resolver` and returns the outcome plus the
/// profile (when `profiled`) and consumed nanos.
fn run_one(
    resolver: &mut StaticResolver,
    legacy: bool,
    profiled: bool,
    fuel: u64,
) -> (RunOutcome, Option<VmProfile>, u64, (u64, u64)) {
    let natives = NativeRegistry::standard();
    let mut globals = ValueStore::new();
    let mut thread = VmThread::call(
        resolver,
        &"entry".into(),
        vec![Value::Int(11)],
        CallOrigin::External,
    )
    .expect("entry resolves");
    thread.set_legacy_stepper(legacy);
    if profiled {
        thread.enable_profiling();
    }
    let outcome = thread.run(resolver, &natives, &mut globals, fuel);
    let retired = thread.retired_counts();
    (
        outcome,
        thread.profile().cloned(),
        thread.take_consumed_nanos(),
        retired,
    )
}

/// `Work` is dispatched like any other decoded op (no pre-dispatch branch):
/// its nanoseconds must still reach both the simulated-time accumulator and
/// the profiler's per-function `work_nanos`, identically on the legacy,
/// unfused, and fused paths — including when the `Work` sits between
/// fusable runs.
#[test]
fn work_nanos_land_in_profiler_on_every_path() {
    let body = vec![
        Instr::Work(100),
        Instr::LoadArg(0),
        Instr::Push(Value::Int(1)),
        Instr::Add,
        Instr::Work(50),
        Instr::Ret,
    ];
    let mut snapshots = Vec::new();
    for (legacy, fuse) in [(true, false), (false, false), (false, true)] {
        let mut r = StaticResolver::new().with_fusion(fuse);
        r.insert(
            block("entry(int) -> int", 0, body.clone()),
            ComponentId::from_raw(1),
        );
        let (outcome, profile, nanos, _) = run_one(&mut r, legacy, true, 1_000);
        assert_eq!(outcome, RunOutcome::Completed(Value::Int(12)));
        assert_eq!(nanos, 150, "Work charges simulated time exactly");
        let profile = profile.expect("profiling enabled");
        let stats = profile.function("entry").expect("entry profiled");
        assert_eq!(stats.work_nanos, 150, "Work nanos attributed to frame");
        assert_eq!(stats.instructions, 6);
        snapshots.push(profile);
    }
    assert_eq!(snapshots[0], snapshots[1]);
    assert_eq!(snapshots[0], snapshots[2]);
}

/// Fuel exhaustion inside a fused superinstruction lands on exactly the
/// constituent the unfused program would have reached, with the same retired
/// counts and the same per-opcode profile.
#[test]
fn fuel_exhausts_mid_superinstruction_exactly() {
    let body = vec![
        Instr::LoadArg(0),
        Instr::Push(Value::Int(1)),
        Instr::Add,
        Instr::Ret,
    ];
    let mut profiles = Vec::new();
    for (legacy, fuse) in [(true, false), (false, false), (false, true)] {
        let mut r = StaticResolver::new().with_fusion(fuse);
        r.insert(
            block("entry(int) -> int", 0, body.clone()),
            ComponentId::from_raw(1),
        );
        // Fuel for the first two constituents only; the third faults.
        let (outcome, profile, _, retired) = run_one(&mut r, legacy, true, 2);
        assert_eq!(outcome, RunOutcome::Faulted(VmError::FuelExhausted));
        let profile = profile.expect("profiling enabled");
        assert_eq!(profile.total_instructions(), 2);
        if !legacy {
            assert_eq!(retired.0, 2, "threaded path retired the charged ops");
        }
        profiles.push(profile);
    }
    assert_eq!(profiles[0], profiles[1]);
    assert_eq!(profiles[0], profiles[2]);
}

/// Wrapper that counts enter/exit pairs, as the DFM's thread-activity
/// monitor does, so the inline leaf-call path is checked for balanced
/// notifications.
struct BalanceResolver {
    inner: StaticResolver,
    active: i64,
    enters: u64,
}

impl CallResolver for BalanceResolver {
    fn resolve(
        &mut self,
        function: &FunctionName,
        origin: CallOrigin,
    ) -> Result<ResolvedCall, ResolveError> {
        self.inner.resolve(function, origin)
    }

    fn resolve_with_token(
        &mut self,
        function: &FunctionName,
        origin: CallOrigin,
    ) -> Result<(ResolvedCall, Option<dcdo_vm::CallToken>), ResolveError> {
        self.inner.resolve_with_token(function, origin)
    }

    fn resolve_token(&mut self, token: dcdo_vm::CallToken) -> Option<ResolvedCall> {
        self.inner.resolve_token(token)
    }

    fn revalidate_token(&mut self, token: dcdo_vm::CallToken) -> bool {
        self.inner.revalidate_token(token)
    }

    fn enter(&mut self, _activity: u32) {
        self.active += 1;
        self.enters += 1;
    }

    fn exit(&mut self, _activity: u32) {
        self.active -= 1;
        assert!(self.active >= 0, "exit without matching enter");
    }
}

/// A call to a leaf-shaped callee (single fused arith-return, no locals)
/// executes inline, but the result, retirement totals, and the resolver's
/// enter/exit stream must match the framed execution bit-for-bit.
#[test]
fn inline_leaf_calls_are_transparent() {
    let caller = vec![
        Instr::LoadArg(0),
        Instr::CallDyn {
            function: "triple".into(),
            argc: 1,
        },
        Instr::StoreLocal(0),
        Instr::LoadArg(0),
        Instr::CallDyn {
            function: "triple".into(),
            argc: 1,
        },
        Instr::Pop,
        Instr::LoadLocal(0),
        Instr::Ret,
    ];
    let leaf = vec![
        Instr::LoadArg(0),
        Instr::Push(Value::Int(3)),
        Instr::Mul,
        Instr::Ret,
    ];
    let mut results = Vec::new();
    for fuse in [false, true] {
        let mut inner = StaticResolver::new().with_fusion(fuse);
        inner.insert(
            block("entry(int) -> int", 1, caller.clone()),
            ComponentId::from_raw(1),
        );
        inner.insert(
            block("triple(int) -> int", 0, leaf.clone()),
            ComponentId::from_raw(2),
        );
        let mut r = BalanceResolver {
            inner,
            active: 0,
            enters: 0,
        };
        let natives = NativeRegistry::standard();
        let mut globals = ValueStore::new();
        let mut thread = VmThread::call(
            &mut r,
            &"entry".into(),
            vec![Value::Int(11)],
            CallOrigin::External,
        )
        .expect("entry resolves");
        let outcome = thread.run(&mut r, &natives, &mut globals, 1_000);
        assert_eq!(outcome, RunOutcome::Completed(Value::Int(33)));
        assert_eq!(r.active, 0, "every enter saw its exit");
        assert_eq!(r.enters, 3, "entry + two leaf calls");
        let (total, fused_part) = thread.retired_counts();
        if !fuse {
            assert_eq!(fused_part, 0);
        }
        results.push(total);
    }
    assert_eq!(results[0], results[1], "retirement is fusion-invariant");
}

/// A leaf callee that faults (type mismatch inside the inlined body) must
/// unwind identically to the framed path, with balanced enter/exit.
#[test]
fn inline_leaf_call_faults_unwind_identically() {
    let caller = vec![
        // Warm the site with a good call, then fault on a bad argument.
        Instr::LoadArg(0),
        Instr::CallDyn {
            function: "triple".into(),
            argc: 1,
        },
        Instr::Pop,
        Instr::Push(Value::Bool(true)),
        Instr::CallDyn {
            function: "triple".into(),
            argc: 1,
        },
        Instr::Ret,
    ];
    let leaf = vec![
        Instr::LoadArg(0),
        Instr::Push(Value::Int(3)),
        Instr::Mul,
        Instr::Ret,
    ];
    let mut outcomes = Vec::new();
    for (legacy, fuse) in [(true, false), (false, false), (false, true)] {
        let mut r = StaticResolver::new().with_fusion(fuse);
        r.insert(
            block("entry(int) -> int", 0, caller.clone()),
            ComponentId::from_raw(1),
        );
        // `any` parameter so the bool passes the argument check and the
        // fault happens inside the callee's fused body.
        r.insert(
            block("triple(any) -> any", 0, leaf.clone()),
            ComponentId::from_raw(2),
        );
        let (outcome, profile, _, _) = run_one(&mut r, legacy, true, 1_000);
        assert!(
            matches!(outcome, RunOutcome::Faulted(VmError::TypeMismatch { .. })),
            "expected a type fault, got {outcome:?}"
        );
        outcomes.push((outcome, profile.expect("profiled")));
    }
    assert_eq!(outcomes[0], outcomes[1]);
    assert_eq!(outcomes[0], outcomes[2]);
}

/// Reconfiguration (replacing an implementation) invalidates the cached
/// decode exactly like a stale `CallToken`: the decode counter moves, the
/// invalidation is recorded, and new threads run the new code.
#[test]
fn reconfiguration_invalidates_cached_decodes() {
    let mut r = StaticResolver::new();
    r.insert(
        block(
            "entry(int) -> int",
            0,
            vec![Instr::Push(Value::Int(1)), Instr::Ret],
        ),
        ComponentId::from_raw(1),
    );
    let gen_before = r.generation();
    let (outcome, _, _, _) = run_one(&mut r, false, false, 100);
    assert_eq!(outcome, RunOutcome::Completed(Value::Int(1)));

    r.insert(
        block(
            "entry(int) -> int",
            0,
            vec![Instr::Push(Value::Int(2)), Instr::Ret],
        ),
        ComponentId::from_raw(1),
    );
    assert_ne!(r.generation(), gen_before, "config op bumps the generation");
    let (outcome, _, _, _) = run_one(&mut r, false, false, 100);
    assert_eq!(outcome, RunOutcome::Completed(Value::Int(2)));

    let stats = r.decode_stats();
    assert_eq!(stats.decodes, 2, "each insert decodes once");
    assert_eq!(stats.invalidations, 1, "replacement invalidated the decode");

    // Flipping fusion re-decodes everything, like any other config op.
    let gen_before = r.generation();
    r.set_fusion(false); // fusion is on by default
    assert_ne!(r.generation(), gen_before);
    assert_eq!(r.decode_stats().decodes, 3);
    assert_eq!(r.decode_stats().invalidations, 2);
}

/// Installs the loop the `dispatch` bench's `vm_spin` group times (the body
/// of `dcdo_workloads::simbench::vm_spin_component`): `entry(n)` counts `n`
/// down, crossing into `bump` once per iteration. Installing it again is a
/// reconfiguration that replaces both functions.
fn insert_spin(r: &mut StaticResolver) {
    let spin = vec![
        Instr::Push(Value::Int(0)), // 0: acc = 0
        Instr::StoreLocal(0),
        Instr::LoadArg(0), // 2: left = n
        Instr::StoreLocal(1),
        Instr::LoadLocal(1), // 4: while left > 0
        Instr::Push(Value::Int(0)),
        Instr::Gt,
        Instr::JumpIfFalse(16),
        Instr::LoadLocal(0), // 8: acc = bump(acc)
        Instr::CallDyn {
            function: "bump".into(),
            argc: 1,
        },
        Instr::StoreLocal(0),
        Instr::LoadLocal(1), // 11: left -= 1
        Instr::Push(Value::Int(1)),
        Instr::Sub,
        Instr::StoreLocal(1),
        Instr::Jump(4),
        Instr::LoadLocal(0), // 16: return acc
        Instr::Ret,
    ];
    let bump = vec![
        Instr::LoadArg(0),
        Instr::Push(Value::Int(1)),
        Instr::Add,
        Instr::Ret,
    ];
    r.insert(
        block("entry(int) -> int", 2, spin),
        ComponentId::from_raw(1),
    );
    r.insert(block("bump(int) -> int", 0, bump), ComponentId::from_raw(1));
}

/// [`run_one`] of the spin loop (11 iterations) on a fresh resolver.
fn spin(legacy: bool, fuse: bool, profiled: bool) -> (RunOutcome, (u64, u64)) {
    let mut r = StaticResolver::new().with_fusion(fuse);
    insert_spin(&mut r);
    let (outcome, _, _, retired) = run_one(&mut r, legacy, profiled, 1_000);
    (outcome, retired)
}

/// The spin loop returns its iteration count with the cost profile off and
/// on, on every dispatch path.
#[test]
fn vm_spin_spins_profiled_or_not() {
    for (legacy, fuse) in [(true, false), (false, false), (false, true)] {
        for profiled in [false, true] {
            let (outcome, _) = spin(legacy, fuse, profiled);
            assert_eq!(outcome, RunOutcome::Completed(Value::Int(11)));
        }
    }
}

/// The three paths agree on the spin loop; the fused one retires the same
/// original-opcode total as the unfused one, most of it inside
/// superinstructions (the loop is built from fusable shapes).
#[test]
fn vm_spin_modes_agree_and_fusion_covers_the_loop() {
    let (legacy, legacy_counts) = spin(true, false, false);
    let (unfused, unfused_counts) = spin(false, false, false);
    let (fused, fused_counts) = spin(false, true, false);
    for outcome in [legacy, unfused, fused] {
        assert_eq!(outcome, RunOutcome::Completed(Value::Int(11)));
    }
    assert_eq!(legacy_counts, (0, 0), "legacy stepper does not count");
    assert_eq!(unfused_counts.1, 0, "no fusion without the fuse pass");
    assert_eq!(fused_counts.0, unfused_counts.0);
    assert!(
        fused_counts.1 * 2 > fused_counts.0,
        "expected >50% fused coverage on the spin loop, got {}/{}",
        fused_counts.1,
        fused_counts.0
    );
}

/// Re-installing the spin loop between two fused runs invalidates both
/// cached decodes; both runs keep their fused coverage, and every
/// resolution (the entry call and each iteration's `bump`) is served from
/// the decode cache.
#[test]
fn vm_spin_probe_sees_reconfiguration_invalidations() {
    let mut r = StaticResolver::new().with_fusion(true);
    insert_spin(&mut r);
    let (mut retired, mut fused) = (0, 0);
    for round in 0..2 {
        if round == 1 {
            insert_spin(&mut r);
        }
        let (outcome, _, _, counts) = run_one(&mut r, false, false, 1_000);
        assert_eq!(outcome, RunOutcome::Completed(Value::Int(11)));
        retired += counts.0;
        fused += counts.1;
    }
    assert!(fused * 2 > retired, "coverage {fused}/{retired}");
    let stats = r.decode_stats();
    assert_eq!(stats.decodes, 4, "two installs of two functions");
    assert_eq!(stats.invalidations, 2, "the second install replaced both");
    assert_eq!(stats.hits, 2 * (1 + 11));
}
