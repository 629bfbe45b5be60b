//! Canonical services used by examples, tests, and benches.
//!
//! - the **counter** service (`incr`/`get` calling an internal `step`):
//!   the minimal service whose internal function can be hot-swapped;
//! - the paper's **sort/compare** pair (§3.2): `sort(list)` calls the
//!   dynamic `compare(int, int)`, whose implementation determines the sort
//!   order — the motivating example for behavioral dependencies.

use dcdo_core::ops::VersionConfigOp;
use dcdo_types::ObjectId;
use dcdo_vm::{CodeBlock, ComponentBinary, ComponentBuilder, FunctionBuilder};

/// Well-known component ids used by the canonical services.
pub mod ids {
    use dcdo_types::ComponentId;

    /// The counter core component.
    pub const COUNTER_CORE: ComponentId = ComponentId::from_raw(101);
    /// The step-by-ten replacement component.
    pub const STEP_TEN: ComponentId = ComponentId::from_raw(102);
    /// The sorting component (sort + ascending compare).
    pub const SORTING: ComponentId = ComponentId::from_raw(103);
    /// The descending-compare replacement component.
    pub const COMPARE_DESC: ComponentId = ComponentId::from_raw(104);
}

fn counter_read(slot: &str) -> CodeBlock {
    // get() -> int, treating an unset slot as zero.
    let mut b = FunctionBuilder::parse("get() -> int").expect("signature");
    let has = b.new_label();
    b.global_get(slot)
        .dup()
        .push(())
        .eq()
        .jump_if_false(has)
        .pop()
        .push_int(0)
        .bind(has)
        .ret();
    b.build().expect("valid")
}

fn counter_incr(slot: &str) -> CodeBlock {
    // incr() -> int: count := (count or 0) + step(); returns the new count.
    let mut b = FunctionBuilder::parse("incr() -> int").expect("signature");
    let has = b.new_label();
    b.global_get(slot)
        .dup()
        .push(())
        .eq()
        .jump_if_false(has)
        .pop()
        .push_int(0)
        .bind(has)
        .call_dyn("step", 0)
        .add()
        .dup()
        .global_set(slot)
        .ret();
    b.build().expect("valid")
}

/// The counter core: exported `incr`/`get`, internal `step` (by one), with
/// the structural dependency `[incr] -> [step]` found by static analysis.
pub fn counter_core() -> ComponentBinary {
    ComponentBuilder::new(ids::COUNTER_CORE, "counter-core")
        .exported_fn(counter_incr("count"))
        .exported_fn(counter_read("count"))
        .internal("step() -> int", |b| b.push_int(1).ret())
        .expect("step")
        .auto_structural_deps()
        .build()
        .expect("valid component")
}

/// The counter's first version: incorporate the core published in `ico`,
/// then enable `step`, `get` and `incr` from it.
pub fn counter_v1(ico: ObjectId) -> Vec<VersionConfigOp> {
    let mut steps = vec![VersionConfigOp::IncorporateComponent { ico }];
    for function in ["step", "get", "incr"] {
        steps.push(VersionConfigOp::EnableFunction {
            function: function.into(),
            component: ids::COUNTER_CORE,
        });
    }
    steps
}

/// A replacement internal `step` advancing by `amount`.
pub fn step_by(amount: i64) -> ComponentBinary {
    ComponentBuilder::new(ids::STEP_TEN, "step-by")
        .internal("step() -> int", move |b| b.push_int(amount).ret())
        .expect("step")
        .build()
        .expect("valid component")
}

/// The sorting component of §3.2: exported `sort(list) -> list` (insertion
/// sort ordered by the dynamic `compare`) plus the ascending `compare`.
///
/// `compare(a, b) -> int` follows the paper: it returns the element that
/// should come *first*. `sort` places `compare(a, b)`'s winner earlier.
pub fn sorting_component() -> ComponentBinary {
    // Insertion sort, one comparison per adjacent pair, repeated n times
    // (bubble sort, in truth — simple to express in stack code).
    //
    // locals: 0 = list, 1 = i (outer), 2 = j (inner), 3 = a, 4 = b
    let mut b = FunctionBuilder::parse("sort(list) -> list").expect("signature");
    b.locals(5);
    let outer = b.new_label();
    let inner = b.new_label();
    let no_swap = b.new_label();
    let inner_done = b.new_label();
    let done = b.new_label();
    b.load_arg(0)
        .store_local(0)
        .push_int(0)
        .store_local(1)
        // outer: if i >= len(list) -> done
        .bind(outer)
        .load_local(1)
        .load_local(0)
        .instr(dcdo_vm::Instr::ListLen)
        .ge()
        .jump_if_true(done)
        .push_int(0)
        .store_local(2)
        // inner: if j >= len(list) - 1 -> inner_done
        .bind(inner)
        .load_local(2)
        .load_local(0)
        .instr(dcdo_vm::Instr::ListLen)
        .push_int(1)
        .sub()
        .ge()
        .jump_if_true(inner_done)
        // a = list[j]; b = list[j+1]
        .load_local(0)
        .load_local(2)
        .instr(dcdo_vm::Instr::ListGet)
        .store_local(3)
        .load_local(0)
        .load_local(2)
        .push_int(1)
        .add()
        .instr(dcdo_vm::Instr::ListGet)
        .store_local(4)
        // if compare(a, b) == a -> no swap
        .load_local(3)
        .load_local(4)
        .call_dyn("compare", 2)
        .load_local(3)
        .eq()
        .jump_if_true(no_swap)
        // swap: list[j] = b; list[j+1] = a
        .load_local(0)
        .load_local(2)
        .load_local(4)
        .instr(dcdo_vm::Instr::ListSet)
        .load_local(2)
        .push_int(1)
        .add()
        .load_local(3)
        .instr(dcdo_vm::Instr::ListSet)
        .store_local(0)
        .bind(no_swap)
        // j += 1; continue inner
        .load_local(2)
        .push_int(1)
        .add()
        .store_local(2)
        .jump(inner)
        .bind(inner_done)
        // i += 1; continue outer
        .load_local(1)
        .push_int(1)
        .add()
        .store_local(1)
        .jump(outer)
        .bind(done)
        .load_local(0)
        .ret();
    let sort = b.build().expect("sort is valid");

    ComponentBuilder::new(ids::SORTING, "sorting")
        .exported_fn(sort)
        .exported("compare(int, int) -> int", |b| {
            // ascending: return the smaller
            b.load_arg(0).load_arg(1).call_native("min", 2).ret()
        })
        .expect("compare")
        .auto_structural_deps()
        .build()
        .expect("valid component")
}

/// The §3.2 twist: a `compare` with the same signature that returns the
/// *larger* element, reversing `sort`'s output.
pub fn compare_descending() -> ComponentBinary {
    ComponentBuilder::new(ids::COMPARE_DESC, "compare-desc")
        .exported("compare(int, int) -> int", |b| {
            b.load_arg(0).load_arg(1).call_native("max", 2).ret()
        })
        .expect("compare")
        .build()
        .expect("valid component")
}

#[cfg(test)]
mod tests {
    use dcdo_types::Dependency;
    use dcdo_vm::{
        CallOrigin, CallResolver, NativeRegistry, RunOutcome, StaticResolver, Value, ValueStore,
        VmThread,
    };

    use super::*;

    fn run(
        resolver: &mut dyn CallResolver,
        globals: &mut ValueStore,
        f: &str,
        args: Vec<Value>,
    ) -> Value {
        let mut t =
            VmThread::call(resolver, &f.into(), args, CallOrigin::External).expect("starts");
        match t.run(resolver, &NativeRegistry::standard(), globals, 1_000_000) {
            RunOutcome::Completed(v) => v,
            other => panic!("expected completion, got {other:?}"),
        }
    }

    fn load(r: &mut StaticResolver, binary: &ComponentBinary) {
        for f in binary.functions() {
            r.insert(f.code().clone(), binary.id());
        }
    }

    #[test]
    fn counter_core_counts() {
        let mut r = StaticResolver::new();
        load(&mut r, &counter_core());
        let mut g = ValueStore::new();
        assert_eq!(run(&mut r, &mut g, "get", vec![]), Value::Int(0));
        assert_eq!(run(&mut r, &mut g, "incr", vec![]), Value::Int(1));
        assert_eq!(run(&mut r, &mut g, "incr", vec![]), Value::Int(2));
        assert_eq!(run(&mut r, &mut g, "get", vec![]), Value::Int(2));
    }

    #[test]
    fn counter_ships_its_structural_dependency() {
        let deps = counter_core().dependencies().to_vec();
        assert!(deps.contains(&Dependency::type_a("incr", ids::COUNTER_CORE, "step")));
    }

    #[test]
    fn step_by_changes_the_increment() {
        let mut r = StaticResolver::new();
        load(&mut r, &counter_core());
        // Link order: the later step wins in a static resolver.
        load(&mut r, &step_by(10));
        let mut g = ValueStore::new();
        assert_eq!(run(&mut r, &mut g, "incr", vec![]), Value::Int(10));
    }

    #[test]
    fn sort_ascends_with_the_default_compare() {
        let mut r = StaticResolver::new();
        load(&mut r, &sorting_component());
        let mut g = ValueStore::new();
        let list = Value::List(vec![
            Value::Int(3),
            Value::Int(1),
            Value::Int(4),
            Value::Int(1),
            Value::Int(5),
        ]);
        let out = run(&mut r, &mut g, "sort", vec![list]);
        assert_eq!(
            out,
            Value::List(vec![
                Value::Int(1),
                Value::Int(1),
                Value::Int(3),
                Value::Int(4),
                Value::Int(5),
            ])
        );
    }

    #[test]
    fn swapping_compare_reverses_the_sort_order() {
        // The paper's behavioral-dependency example: replacing compare with
        // a same-signature implementation flips sort's output.
        let mut r = StaticResolver::new();
        load(&mut r, &sorting_component());
        load(&mut r, &compare_descending());
        let mut g = ValueStore::new();
        let list = Value::List(vec![Value::Int(2), Value::Int(9), Value::Int(5)]);
        let out = run(&mut r, &mut g, "sort", vec![list]);
        assert_eq!(
            out,
            Value::List(vec![Value::Int(9), Value::Int(5), Value::Int(2)])
        );
    }

    #[test]
    fn sort_handles_degenerate_lists() {
        let mut r = StaticResolver::new();
        load(&mut r, &sorting_component());
        let mut g = ValueStore::new();
        assert_eq!(
            run(&mut r, &mut g, "sort", vec![Value::List(vec![])]),
            Value::List(vec![])
        );
        assert_eq!(
            run(
                &mut r,
                &mut g,
                "sort",
                vec![Value::List(vec![Value::Int(7)])]
            ),
            Value::List(vec![Value::Int(7)])
        );
    }
}
