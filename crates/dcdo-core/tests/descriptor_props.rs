//! Property tests: no sequence of *accepted* configuration operations can
//! drive a DFM descriptor into a state that violates the model's
//! invariants (§2.4, §3.2).
//!
//! The descriptor refuses operations that would break its rules; these
//! tests throw randomized operation sequences at it and verify that, no
//! matter which operations were accepted and which refused, the surviving
//! state always satisfies:
//!
//! 1. every enabled implementation names a component that is incorporated
//!    and actually provides the function;
//! 2. every declared dependency is satisfied (source-enabled ⇒
//!    target-enabled, respecting pins);
//! 3. every mandatory/permanent function has an enabled implementation;
//! 4. protections never weaken;
//! 5. `validate()` agrees (it never fails on a state built from accepted
//!    operations).

use dcdo_core::{ConfigError, DfmDescriptor};
use dcdo_types::{ComponentId, Dependency, Protection, VersionId, Visibility};
use dcdo_vm::{CodeBlock, ComponentBuilder, ComponentDescriptor, Instr};
use proptest::prelude::*;
use std::collections::HashMap;

const FUNCTIONS: &[&str] = &["alpha", "beta", "gamma", "delta"];
const COMPONENTS: u64 = 4;

fn component(id: u64, fns: &[usize]) -> ComponentDescriptor {
    let mut b = ComponentBuilder::new(ComponentId::from_raw(id), format!("c{id}"));
    for &f in fns {
        let code = CodeBlock::new(
            format!("{}() -> int", FUNCTIONS[f]).parse().expect("sig"),
            0,
            vec![Instr::Push(dcdo_vm::Value::Int(1)), Instr::Ret],
        );
        b = b.function(code, Visibility::Exported, Protection::FullyDynamic);
    }
    b.build().expect("generated component valid").descriptor()
}

#[derive(Debug, Clone)]
enum Op {
    Incorporate {
        id: u64,
        fns: Vec<usize>,
    },
    Remove(u64),
    Enable {
        f: usize,
        c: u64,
    },
    Disable(usize),
    Protect {
        f: usize,
        p: Protection,
    },
    Depend {
        from: usize,
        to: usize,
        pin_from: bool,
        pin_to: bool,
        c1: u64,
        c2: u64,
    },
    Undepend(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            1..=COMPONENTS,
            prop::collection::vec(0..FUNCTIONS.len(), 1..=3)
        )
            .prop_map(|(id, mut fns)| {
                fns.sort_unstable();
                fns.dedup();
                Op::Incorporate { id, fns }
            }),
        (1..=COMPONENTS).prop_map(Op::Remove),
        (0..FUNCTIONS.len(), 1..=COMPONENTS).prop_map(|(f, c)| Op::Enable { f, c }),
        (0..FUNCTIONS.len()).prop_map(Op::Disable),
        (
            0..FUNCTIONS.len(),
            prop_oneof![Just(Protection::Mandatory), Just(Protection::Permanent)]
        )
            .prop_map(|(f, p)| Op::Protect { f, p }),
        (
            0..FUNCTIONS.len(),
            0..FUNCTIONS.len(),
            any::<bool>(),
            any::<bool>(),
            1..=COMPONENTS,
            1..=COMPONENTS
        )
            .prop_map(|(from, to, pin_from, pin_to, c1, c2)| Op::Depend {
                from,
                to,
                pin_from,
                pin_to,
                c1,
                c2
            }),
        (0..16usize).prop_map(Op::Undepend),
    ]
}

fn apply(d: &mut DfmDescriptor, op: &Op) -> Result<(), ConfigError> {
    match op {
        Op::Incorporate { id, fns } => d.incorporate_component(&component(*id, fns), None),
        Op::Remove(c) => d.remove_component(ComponentId::from_raw(*c)),
        Op::Enable { f, c } => d.enable_function(&FUNCTIONS[*f].into(), ComponentId::from_raw(*c)),
        Op::Disable(f) => d.disable_function(&FUNCTIONS[*f].into()),
        Op::Protect { f, p } => d.set_protection(&FUNCTIONS[*f].into(), *p),
        Op::Depend {
            from,
            to,
            pin_from,
            pin_to,
            c1,
            c2,
        } => {
            let dep = match (pin_from, pin_to) {
                (true, true) => Dependency::type_b(
                    FUNCTIONS[*from],
                    ComponentId::from_raw(*c1),
                    FUNCTIONS[*to],
                    ComponentId::from_raw(*c2),
                ),
                (true, false) => {
                    Dependency::type_a(FUNCTIONS[*from], ComponentId::from_raw(*c1), FUNCTIONS[*to])
                }
                (false, true) => {
                    Dependency::type_c(FUNCTIONS[*from], FUNCTIONS[*to], ComponentId::from_raw(*c2))
                }
                (false, false) => Dependency::type_d(FUNCTIONS[*from], FUNCTIONS[*to]),
            };
            d.add_dependency(dep)
        }
        Op::Undepend(i) => {
            if let Some(dep) = d.dependencies().get(*i).cloned() {
                d.remove_dependency(&dep);
            }
            Ok(())
        }
    }
}

fn check_invariants(d: &DfmDescriptor) -> Result<(), String> {
    // 1. Enabled implementations exist.
    for (name, record) in d.functions() {
        if let Some(c) = record.enabled() {
            if !record.impls().contains(&c) {
                return Err(format!("{name} enabled in {c} which provides no impl"));
            }
            let comp = d
                .component(c)
                .ok_or_else(|| format!("{name} enabled in missing component {c}"))?;
            if !comp.functions.contains(name) {
                return Err(format!("component {c} record does not list {name}"));
            }
        }
        // 3. Protections imply presence.
        if record.protection().requires_presence() && record.enabled().is_none() {
            return Err(format!("{name} is {} but disabled", record.protection()));
        }
    }
    // 2. Dependencies hold.
    for dep in d.dependencies() {
        if !d.dependency_satisfied(dep) {
            return Err(format!("violated dependency {dep}"));
        }
    }
    // 5. validate() agrees.
    d.validate().map_err(|e| format!("validate(): {e}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Invariants survive any sequence of accepted operations.
    #[test]
    fn accepted_operations_preserve_invariants(ops in prop::collection::vec(op_strategy(), 1..40)) {
        let mut d = DfmDescriptor::new(VersionId::root());
        let mut protections: HashMap<String, Protection> = HashMap::new();
        for op in &ops {
            let before = d.clone();
            match apply(&mut d, op) {
                Ok(()) => {
                    if let Err(why) = check_invariants(&d) {
                        prop_assert!(
                            false,
                            "invariant broken after accepted {op:?}: {why}\nbefore: {before:?}"
                        );
                    }
                    // 4. Protections never weaken.
                    for (name, record) in d.functions() {
                        let prev = protections
                            .entry(name.as_str().to_owned())
                            .or_insert(Protection::FullyDynamic);
                        prop_assert!(
                            record.protection() >= *prev,
                            "{name} weakened from {prev} to {}",
                            record.protection()
                        );
                        *prev = record.protection();
                    }
                    // Removed functions may drop out of the map entirely
                    // (their component left); forget their protections.
                    protections.retain(|name, _| {
                        d.function(&name.as_str().into()).is_some()
                    });
                }
                Err(_) => {
                    // A refused operation must not have changed anything.
                    prop_assert_eq!(
                        &d, &before,
                        "refused operation {:?} mutated the descriptor", op
                    );
                }
            }
        }
    }

    /// A descriptor built from accepted operations always derives cleanly:
    /// the copy respects inheritance from its parent.
    #[test]
    fn derivation_respects_inheritance(ops in prop::collection::vec(op_strategy(), 1..25)) {
        let mut d = DfmDescriptor::new(VersionId::root());
        for op in &ops {
            let _ = apply(&mut d, op);
        }
        let child = d.clone().with_version(VersionId::root().child(1));
        prop_assert!(child.respects_inheritance(&d).is_ok());
    }

    /// diff_components is consistent: applying `diff(a, b)` adds and
    /// removals to `a`'s component set yields `b`'s component set.
    #[test]
    fn diff_components_is_sound(
        ops_a in prop::collection::vec(op_strategy(), 1..20),
        ops_b in prop::collection::vec(op_strategy(), 1..20),
    ) {
        let mut a = DfmDescriptor::new(VersionId::root());
        for op in &ops_a {
            let _ = apply(&mut a, op);
        }
        let mut b = DfmDescriptor::new(VersionId::root());
        for op in &ops_b {
            let _ = apply(&mut b, op);
        }
        let diff = a.diff_components(&b);
        let remove: Vec<ComponentId> = diff.remove().collect();
        let mut result: Vec<ComponentId> = a
            .components()
            .map(|(c, _)| c)
            .filter(|c| !remove.contains(c))
            .chain(diff.add().map(|(c, _)| c))
            .collect();
        result.sort();
        let mut expected: Vec<ComponentId> = b.components().map(|(c, _)| c).collect();
        expected.sort();
        prop_assert_eq!(result, expected);
    }
}
