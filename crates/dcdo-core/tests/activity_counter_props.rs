//! Differential property test for the DFM's thread-activity counters.
//!
//! The DFM counts the threads inside each (function, component)
//! implementation by a dense activity index that travels with every
//! resolved call and frame (§3.2). This test drives a DFM through random
//! sequences of configuration operations — incorporate (and enable), stage,
//! enable (and replace), disable, remove, a bulk descriptor swap that
//! unloads a component, and dependency additions — interleaved with real VM threads
//! that enter implementations, park at an outcall across configuration
//! generations, and then complete or abort. After every step the DFM's
//! three name-keyed answers, [`Dfm::active_threads`],
//! [`Dfm::component_active_threads`] and [`Dfm::dependents_active`], must
//! equal an oracle that counts each live frame by (name, component) in a
//! `HashMap`, written without the DFM's indices.

use std::collections::HashMap;

use dcdo_core::Dfm;
use dcdo_sim::SimDuration;
use dcdo_types::{ComponentId, Dependency, FunctionName, ObjectId, Protection, VersionId};
use dcdo_vm::{
    CallOrigin, CallResolver, CodeBlock, ComponentBinary, ComponentBuilder, Instr, NativeRegistry,
    RunOutcome, Value, ValueStore, VmThread,
};
use proptest::prelude::*;

const FUNCTIONS: &[&str] = &["alpha", "beta", "gamma", "delta"];
const COMPONENTS: u64 = 3;
const FUEL: u64 = 1_000;

/// Even-indexed functions park at an outcall; odd-indexed ones call
/// `alpha` (parking two frames deep, or faulting if `alpha` is gone).
fn code(f: usize) -> CodeBlock {
    let signature = format!("{}() -> int", FUNCTIONS[f]).parse().expect("sig");
    let body = if f.is_multiple_of(2) {
        vec![
            Instr::Push(Value::ObjRef(ObjectId::from_raw(9))),
            Instr::CallRemote {
                function: "peer".into(),
                argc: 0,
            },
            Instr::Ret,
        ]
    } else {
        vec![
            Instr::CallDyn {
                function: FUNCTIONS[0].into(),
                argc: 0,
            },
            Instr::Ret,
        ]
    };
    CodeBlock::new(signature, 0, body)
}

fn binary(id: u64, fns: &[usize]) -> ComponentBinary {
    let mut b = ComponentBuilder::new(ComponentId::from_raw(id), format!("c{id}"));
    for &f in fns {
        b = b.function(
            code(f),
            dcdo_types::Visibility::Exported,
            Protection::FullyDynamic,
        );
    }
    b.build().expect("generated component valid")
}

#[derive(Debug, Clone)]
enum Op {
    /// Incorporates component `id` and enables each of its functions.
    Incorporate {
        id: u64,
        fns: Vec<usize>,
    },
    Stage {
        id: u64,
        fns: Vec<usize>,
    },
    Enable {
        f: usize,
        c: u64,
    },
    Disable(usize),
    Remove(u64),
    /// Bulk evolution: the current descriptor without component `c`, which
    /// unloads its code while threads may still be parked in it.
    SwapOut(u64),
    Depend {
        source: usize,
        c: u64,
        target: usize,
    },
    /// Starts a thread in function `f` and runs it until it parks.
    Enter(usize),
    /// Resumes parked thread `i` (modulo the live count) to completion.
    Finish(usize),
    /// Aborts parked thread `i`, unwinding its frames.
    Abort(usize),
}

fn fns_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0..FUNCTIONS.len(), 1..=4).prop_map(|mut fns| {
        fns.sort_unstable();
        fns.dedup();
        fns
    })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let f = 0..FUNCTIONS.len();
    let c = 1..=COMPONENTS;
    prop_oneof![
        (c.clone(), fns_strategy()).prop_map(|(id, fns)| Op::Incorporate { id, fns }),
        (c.clone(), fns_strategy()).prop_map(|(id, fns)| Op::Stage { id, fns }),
        (f.clone(), c.clone()).prop_map(|(f, c)| Op::Enable { f, c }),
        f.clone().prop_map(Op::Disable),
        c.clone().prop_map(Op::Remove),
        c.clone().prop_map(Op::SwapOut),
        (f.clone(), c, f.clone()).prop_map(|(source, c, target)| Op::Depend { source, c, target }),
        f.clone().prop_map(Op::Enter),
        f.prop_map(Op::Enter),
        any::<usize>().prop_map(Op::Finish),
        any::<usize>().prop_map(Op::Abort),
    ]
}

/// A parked thread and the (name, component) of each of its frames,
/// outermost first, as the oracle predicted them.
struct Parked {
    thread: VmThread,
    frames: Vec<(FunctionName, ComponentId)>,
}

/// Where a call to `f` resolves right now, found by name.
fn component_of(dfm: &mut Dfm, f: &FunctionName) -> Option<ComponentId> {
    dfm.resolve(f, CallOrigin::Internal)
        .ok()
        .map(|r| r.component)
}

fn apply(dfm: &mut Dfm, parked: &mut Vec<Parked>, op: &Op) -> Result<(), TestCaseError> {
    let natives = NativeRegistry::standard();
    let mut globals = ValueStore::new();
    match op {
        Op::Incorporate { id, fns } => {
            // Deploys: incorporates, then enables each function it carries.
            if dfm.incorporate_component(&binary(*id, fns), None).is_ok() {
                for &f in fns {
                    let _ = dfm.enable_function(&FUNCTIONS[f].into(), ComponentId::from_raw(*id));
                }
            }
        }
        Op::Stage { id, fns } => {
            let _ = dfm.stage_component(&binary(*id, fns));
        }
        Op::Enable { f, c } => {
            let _ = dfm.enable_function(&FUNCTIONS[*f].into(), ComponentId::from_raw(*c));
        }
        Op::Disable(f) => {
            let _ = dfm.disable_function(&FUNCTIONS[*f].into());
        }
        Op::Remove(c) => {
            let _ = dfm.remove_component(ComponentId::from_raw(*c));
        }
        Op::SwapOut(c) => {
            let mut target = dfm.descriptor().clone();
            if target.remove_component(ComponentId::from_raw(*c)).is_ok() {
                let _ = dfm.apply_descriptor(target);
            }
        }
        Op::Depend { source, c, target } => {
            let dep = Dependency::type_a(
                FUNCTIONS[*source],
                ComponentId::from_raw(*c),
                FUNCTIONS[*target],
            );
            let _ = dfm.with_descriptor_mut(|d| d.add_dependency(dep));
        }
        Op::Enter(f) => {
            let name: FunctionName = FUNCTIONS[*f].into();
            let Some(root) = component_of(dfm, &name) else {
                return Ok(());
            };
            let mut frames = vec![(name.clone(), root)];
            let callee: FunctionName = FUNCTIONS[0].into();
            let callee_component = component_of(dfm, &callee);
            let mut thread =
                VmThread::call(dfm, &name, vec![], CallOrigin::Internal).expect("resolves");
            let outcome = thread.run(dfm, &natives, &mut globals, FUEL);
            if f.is_multiple_of(2) {
                prop_assert!(matches!(outcome, RunOutcome::Suspended(_)), "{outcome:?}");
            } else {
                match callee_component {
                    // The root enters alpha, which parks.
                    Some(c) => {
                        prop_assert!(matches!(outcome, RunOutcome::Suspended(_)), "{outcome:?}");
                        frames.push((callee, c));
                    }
                    None => {
                        prop_assert!(matches!(outcome, RunOutcome::Faulted(_)), "{outcome:?}");
                        return Ok(());
                    }
                }
            }
            let names: Vec<FunctionName> = frames.iter().map(|(n, _)| n.clone()).collect();
            prop_assert_eq!(thread.functions_on_stack(), names);
            parked.push(Parked { thread, frames });
        }
        Op::Finish(i) => {
            if parked.is_empty() {
                return Ok(());
            }
            let mut p = parked.swap_remove(i % parked.len());
            p.thread.resume(Value::Int(1));
            let outcome = p.thread.run(dfm, &natives, &mut globals, FUEL);
            prop_assert_eq!(outcome, RunOutcome::Completed(Value::Int(1)));
        }
        Op::Abort(i) => {
            if parked.is_empty() {
                return Ok(());
            }
            let mut p = parked.swap_remove(i % parked.len());
            p.thread.abort(dfm, "forced removal");
        }
    }
    Ok(())
}

/// Checks the DFM's activity answers against the name-keyed oracle.
fn check(dfm: &Dfm, parked: &[Parked], step: usize) -> Result<(), TestCaseError> {
    let mut oracle: HashMap<(FunctionName, ComponentId), u32> = HashMap::new();
    for (name, c) in parked.iter().flat_map(|p| &p.frames) {
        *oracle.entry((name.clone(), *c)).or_insert(0) += 1;
    }
    let count =
        |f: &FunctionName, c: ComponentId| oracle.get(&(f.clone(), c)).copied().unwrap_or(0);
    for c in (1..=COMPONENTS).map(ComponentId::from_raw) {
        let mut in_component = 0;
        for &f in FUNCTIONS {
            let name: FunctionName = f.into();
            prop_assert_eq!(
                dfm.active_threads(&name, c),
                count(&name, c),
                "active_threads({}, {}) after step {}",
                f,
                c,
                step
            );
            in_component += count(&name, c);
        }
        prop_assert_eq!(
            dfm.component_active_threads(c),
            in_component,
            "component_active_threads({}) after step {}",
            c,
            step
        );
    }
    for &f in FUNCTIONS {
        let name: FunctionName = f.into();
        let expected = dfm.descriptor().dependencies().iter().any(|dep| {
            dep.target().function() == &name
                && oracle
                    .iter()
                    .any(|((n, c), k)| *k > 0 && dep.source().matches(n, *c))
        });
        prop_assert_eq!(
            dfm.dependents_active(&name),
            expected,
            "dependents_active({}) after step {}",
            f,
            step
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn activity_counters_match_a_name_keyed_oracle(
        ops in prop::collection::vec(op_strategy(), 1..60)
    ) {
        let band = (SimDuration::from_micros(10), SimDuration::from_micros(15));
        let mut dfm = Dfm::new(VersionId::root(), band, 7);
        let mut parked = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            apply(&mut dfm, &mut parked, op)?;
            check(&dfm, &parked, step)?;
        }
        // Every parked thread leaves; every counter returns to zero.
        while let Some(mut p) = parked.pop() {
            p.thread.abort(&mut dfm, "teardown");
        }
        check(&dfm, &parked, ops.len())?;
    }
}
