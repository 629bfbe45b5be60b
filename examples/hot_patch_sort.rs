//! The paper's §3.2 sort/compare story, live.
//!
//! ```text
//! cargo run --example hot_patch_sort
//! ```
//!
//! A sorting service exports `sort(list)` whose order is decided by the
//! dynamic `compare(int, int)`. We hot-swap `compare` with a same-signature
//! implementation and watch the sort order flip — then declare the paper's
//! Type C behavioral dependency (`[sort] -> [compare, sorting]`) and watch
//! the manager refuse exactly that swap.

use dcdo::core::ops::VersionConfigOp;
use dcdo::legion::ControlOp;
use dcdo::types::{Dependency, VersionId};
use dcdo::vm::Value;
use dcdo::workloads::service;
use dcdo::workloads::{Fleet, Strategy};

fn show(fleet: &mut Fleet, label: &str) {
    let (obj, _) = fleet.instances[0];
    let list = Value::List(vec![
        Value::Int(3),
        Value::Int(1),
        Value::Int(4),
        Value::Int(1),
        Value::Int(5),
        Value::Int(9),
        Value::Int(2),
        Value::Int(6),
    ]);
    let sorted = fleet.call(obj, "sort", vec![list]).expect("sort succeeds");
    println!("{label}: sort([3,1,4,1,5,9,2,6]) = {sorted}");
}

fn main() {
    let mut fleet = Fleet::new(Strategy::SingleVersionExplicit, 11);

    // Version 1.1: the sorting component (sort + ascending compare).
    let sorting = service::sorting_component();
    let ico = fleet.publish_component(&sorting, 1);
    let root = VersionId::root();
    let v1 = fleet.build_version(
        &root,
        vec![
            VersionConfigOp::IncorporateComponent { ico },
            VersionConfigOp::EnableFunction {
                function: "compare".into(),
                component: service::ids::SORTING,
            },
            VersionConfigOp::EnableFunction {
                function: "sort".into(),
                component: service::ids::SORTING,
            },
        ],
    );
    fleet.set_current(&v1);
    fleet.create_instances(1);
    show(&mut fleet, "v1 (ascending compare)");

    // Version 1.1.1: swap in the descending compare. Same signature, so no
    // structural rule objects — but the behavior flips.
    let desc = service::compare_descending();
    let ico2 = fleet.publish_component(&desc, 2);
    let v2 = fleet.build_version(
        &v1,
        vec![
            VersionConfigOp::IncorporateComponent { ico: ico2 },
            VersionConfigOp::EnableFunction {
                function: "compare".into(),
                component: service::ids::COMPARE_DESC,
            },
        ],
    );
    fleet.set_current(&v2);
    let accepted = fleet.update_all_explicitly();
    assert_eq!(accepted, 1);
    show(&mut fleet, "v2 (descending compare hot-swapped)");

    // Now protect sort's behavior: derive a version pinning compare to the
    // original implementation (Type C behavioral dependency), and try the
    // swap again.
    let v3 = fleet.build_version(
        &v2,
        vec![
            VersionConfigOp::EnableFunction {
                function: "compare".into(),
                component: service::ids::SORTING,
            },
            VersionConfigOp::AddDependency {
                dependency: Dependency::type_c("sort", "compare", service::ids::SORTING),
            },
        ],
    );
    fleet.set_current(&v3);
    fleet.update_all_explicitly();
    show(&mut fleet, "v3 (ascending again, now behaviorally pinned)");

    // The forbidden configuration: enable the descending compare while the
    // behavioral dependency stands.
    let derive = fleet.bed.control_and_wait(
        fleet.manager.driver,
        fleet.manager.object,
        ControlOp::new(dcdo::core::ops::DeriveVersion { from: v3.clone() }),
    );
    let v4 = derive
        .result
        .expect("derive succeeds")
        .control_as::<dcdo::core::ops::DerivedVersion>()
        .expect("reply")
        .version
        .clone();
    let refusal = fleet.bed.control_and_wait(
        fleet.manager.driver,
        fleet.manager.object,
        ControlOp::new(dcdo::core::ops::ConfigureVersion {
            version: v4,
            op: VersionConfigOp::EnableFunction {
                function: "compare".into(),
                component: service::ids::COMPARE_DESC,
            },
        }),
    );
    match refusal.result {
        Err(fault) => println!("manager refused the swap: {fault}"),
        Ok(_) => unreachable!("the behavioral dependency must block this"),
    }
    println!("sort()'s behavior is now protected exactly as §3.2 prescribes");
}
