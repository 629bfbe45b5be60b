//! Differential execution properties: the threaded/fused dispatch path must
//! be observably indistinguishable from the legacy single-step interpreter.
//!
//! Random programs — arithmetic, stack shuffles, branches, dynamic calls
//! (hitting the inline leaf-call path), natives, remote outcalls, `Work`,
//! globals — run through three configurations:
//!
//! 1. **legacy**: the original single-step interpreter over undecoded code
//!    (the oracle),
//! 2. **unfused**: the threaded loop with superinstruction fusion disabled,
//! 3. **fused**: the threaded loop over the peephole-fused stream.
//!
//! All three must produce identical outcomes (results, suspension requests,
//! faults — in order), identical simulated-time consumption, identical
//! global-store state, and — with profiling on — bit-identical [`VmProfile`]s
//! in original-opcode terms. Fuel values are chosen small enough that
//! exhaustion regularly lands *inside* fused superinstructions, which must
//! charge per-constituent exactly like the unfused program.

use dcdo_types::{ComponentId, ObjectId};
use dcdo_vm::{
    CallOrigin, CodeBlock, Instr, NativeRegistry, RunOutcome, StaticResolver, Value, ValueStore,
    VmError, VmProfile, VmThread,
};
use proptest::prelude::*;

/// Everything one run makes observable.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    /// Suspension requests in order, then how the thread ended.
    events: Vec<String>,
    consumed_nanos: u64,
    globals: ValueStore,
    profile: Option<VmProfile>,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Legacy,
    Unfused,
    Fused,
}

/// Instructions drawn for random bodies. Call targets name the real
/// functions `f0`/`f1` (arity 2) so dynamic calls mostly resolve — with the
/// occasional missing name and wrong arity so resolution and arity faults
/// are diffed too.
fn arb_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        (-50i64..50).prop_map(|n| Instr::Push(Value::Int(n))),
        any::<bool>().prop_map(|b| Instr::Push(Value::Bool(b))),
        Just(Instr::Push(Value::Unit)),
        Just(Instr::Push(Value::str("s"))),
        Just(Instr::Push(Value::ObjRef(ObjectId::from_raw(7)))),
        Just(Instr::Pop),
        Just(Instr::Dup),
        Just(Instr::Swap),
        (0u8..2).prop_map(Instr::LoadArg),
        (0u8..4).prop_map(Instr::LoadLocal),
        (0u8..4).prop_map(Instr::StoreLocal),
        Just(Instr::Add),
        Just(Instr::Sub),
        Just(Instr::Mul),
        Just(Instr::Div),
        Just(Instr::Eq),
        Just(Instr::Ne),
        Just(Instr::Lt),
        Just(Instr::Le),
        Just(Instr::Gt),
        Just(Instr::Ge),
        Just(Instr::Not),
        Just(Instr::Ret),
        (0u32..16).prop_map(Instr::Jump),
        (0u32..16).prop_map(Instr::JumpIfFalse),
        (0u32..16).prop_map(Instr::JumpIfTrue),
        (0u8..4).prop_map(Instr::MakeList),
        Just(Instr::ListLen),
        Just(Instr::ListPush),
        Just(Instr::StrConcat),
        Just(Instr::StrLen),
        (0u64..500).prop_map(Instr::Work),
        (prop_oneof![Just("f0"), Just("f1"), Just("nope")], 0u8..3).prop_map(|(f, argc)| {
            Instr::CallDyn {
                function: f.into(),
                argc,
            }
        }),
        Just(Instr::CallNative {
            function: "abs".into(),
            argc: 1,
        }),
        (prop_oneof![Just("remote")], 0u8..2).prop_map(|(f, argc)| Instr::CallRemote {
            function: f.into(),
            argc,
        }),
        Just(Instr::GlobalGet("g".into())),
        Just(Instr::GlobalSet("g".into())),
    ]
}

/// A program is a set of bodies for `f0`, `f1`, `f2`; `f0` is the entry.
/// `f2` is shaped like the hot leaf the interpreter inlines (`arg + const,
/// return`) so the leaf fast path gets differential coverage through `f1`'s
/// random calls; its own body still comes last so selector coverage varies.
fn arb_program() -> impl Strategy<Value = Vec<Vec<Instr>>> {
    (
        prop::collection::vec(arb_instr(), 0..14),
        prop::collection::vec(arb_instr(), 0..14),
    )
        .prop_map(|(b0, b1)| {
            let mut b1 = b1;
            // Bias f1 toward the fused call shape: operand + CallDyn f2/1.
            b1.push(Instr::LoadArg(0));
            b1.push(Instr::CallDyn {
                function: "f2".into(),
                argc: 1,
            });
            b1.push(Instr::Ret);
            let b2 = vec![
                Instr::LoadArg(0),
                Instr::Push(Value::Int(3)),
                Instr::Mul,
                Instr::Ret,
            ];
            vec![b0, b1, b2]
        })
}

fn build_resolver(bodies: &[Vec<Instr>], mode: Mode) -> StaticResolver {
    let mut r = StaticResolver::new().with_fusion(mode == Mode::Fused);
    for (i, body) in bodies.iter().enumerate() {
        let sig = match i {
            2 => "f2(any) -> any".parse().expect("sig"),
            _ => format!("f{i}(any, any) -> any").parse().expect("sig"),
        };
        r.insert(
            CodeBlock::new(sig, 4, body.clone()),
            ComponentId::from_raw(1),
        );
    }
    r
}

/// Runs the program to quiescence in one mode, resuming suspensions a fixed
/// number of times and then aborting the next one with an error so the
/// unwind path is diffed as well.
fn observe(bodies: &[Vec<Instr>], mode: Mode, fuel: u64, profiled: bool) -> Observed {
    let mut resolver = build_resolver(bodies, mode);
    let natives = NativeRegistry::standard();
    let mut globals = ValueStore::new();
    let mut events = Vec::new();
    let args = vec![Value::Int(11), Value::Int(4)];
    let mut thread = match VmThread::call(&mut resolver, &"f0".into(), args, CallOrigin::External) {
        Ok(thread) => thread,
        Err(err) => {
            return Observed {
                events: vec![format!("call-err {err:?}")],
                consumed_nanos: 0,
                globals,
                profile: None,
            }
        }
    };
    thread.set_legacy_stepper(mode == Mode::Legacy);
    if profiled {
        thread.enable_profiling();
    }
    let mut resumes = 0;
    loop {
        match thread.run(&mut resolver, &natives, &mut globals, fuel) {
            RunOutcome::Completed(v) => {
                events.push(format!("done {v:?}"));
                break;
            }
            RunOutcome::Faulted(e) => {
                events.push(format!("fault {e:?}"));
                break;
            }
            RunOutcome::Suspended(req) => {
                events.push(format!(
                    "suspend {} {} {:?} depth={} fns={:?}",
                    req.target,
                    req.function,
                    req.args,
                    thread.depth(),
                    thread.functions_on_stack(),
                ));
                if resumes < 3 {
                    resumes += 1;
                    thread.resume(Value::Int(9));
                } else {
                    thread.resume_err(VmError::StackUnderflow);
                }
            }
        }
    }
    Observed {
        events,
        consumed_nanos: thread.take_consumed_nanos(),
        globals,
        profile: thread.profile().cloned(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Unprofiled: outcomes, nanos, and global state agree across all three
    /// paths, and the two threaded paths retire identical original-opcode
    /// counts, for fuels that exhaust mid-superinstruction and fuels that
    /// never exhaust.
    #[test]
    fn threaded_paths_match_the_legacy_oracle(
        bodies in arb_program(),
        fuel in prop_oneof![Just(3u64), Just(7), Just(19), Just(41), Just(100_000)],
    ) {
        let legacy = observe(&bodies, Mode::Legacy, fuel, false);
        let unfused = observe(&bodies, Mode::Unfused, fuel, false);
        let fused = observe(&bodies, Mode::Fused, fuel, false);
        prop_assert_eq!(&legacy, &unfused);
        prop_assert_eq!(&legacy, &fused);
    }

    /// Profiled: the per-opcode/per-function accounting is bit-identical in
    /// original-opcode terms on every path (superinstructions charge their
    /// constituents through the same hook, in program order).
    #[test]
    fn profiles_are_identical_in_original_opcode_terms(
        bodies in arb_program(),
        fuel in prop_oneof![Just(5u64), Just(23), Just(100_000)],
    ) {
        let legacy = observe(&bodies, Mode::Legacy, fuel, true);
        let unfused = observe(&bodies, Mode::Unfused, fuel, true);
        let fused = observe(&bodies, Mode::Fused, fuel, true);
        prop_assert!(legacy.profile.is_some());
        prop_assert_eq!(&legacy, &unfused);
        prop_assert_eq!(&legacy, &fused);
    }

    /// The fused and unfused threaded paths retire the same total number of
    /// original opcodes; only the share executed inside superinstructions
    /// may differ.
    #[test]
    fn retirement_totals_are_fusion_invariant(
        bodies in arb_program(),
        fuel in prop_oneof![Just(13u64), Just(100_000)],
    ) {
        let natives = NativeRegistry::standard();
        let mut totals = Vec::new();
        for mode in [Mode::Unfused, Mode::Fused] {
            let mut resolver = build_resolver(&bodies, mode);
            let mut globals = ValueStore::new();
            let args = vec![Value::Int(11), Value::Int(4)];
            let Ok(mut thread) =
                VmThread::call(&mut resolver, &"f0".into(), args, CallOrigin::External)
            else {
                return Ok(());
            };
            let mut resumes = 0;
            loop {
                match thread.run(&mut resolver, &natives, &mut globals, fuel) {
                    RunOutcome::Suspended(_) if resumes < 3 => {
                        resumes += 1;
                        thread.resume(Value::Int(9));
                    }
                    RunOutcome::Suspended(_) => {
                        thread.resume_err(VmError::StackUnderflow);
                    }
                    _ => break,
                }
            }
            let (total, fused_part) = thread.retired_counts();
            prop_assert!(fused_part <= total);
            if mode == Mode::Unfused {
                prop_assert_eq!(fused_part, 0);
            }
            totals.push(total);
        }
        prop_assert_eq!(totals[0], totals[1]);
    }
}
