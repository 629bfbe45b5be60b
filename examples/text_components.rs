//! Authoring components as text and hot-deploying them.
//!
//! ```text
//! cargo run --example text_components
//! ```
//!
//! Components are written in the `dcdo-vm` assembly language (the
//! `Language::VmAssembly` of §2.1's implementation types), assembled at
//! runtime, published as ICOs, and rolled onto a live DCDO — the closest
//! this reproduction gets to the paper's "programmers can make these changes
//! on the fly … without having to know what the changes will be at the time
//! the objects are initially compiled and run".

use dcdo::core::ops::VersionConfigOp;
use dcdo::types::{ComponentId, VersionId};
use dcdo::vm::{assemble, disassemble};
use dcdo::workloads::{Fleet, Strategy};

const TALLY_V1: &str = r#"
component "tally" id=41
export fn record(int) -> int {
    global_get total
    dup
    push unit
    eq
    jump_if_false has
    pop
    push 0
  has:
    load_arg 0
    call_dyn weight/1
    add
    dup
    global_set total
    ret
}

internal fn weight(int) -> int {
    load_arg 0
    ret
}
auto_deps
"#;

/// The upgrade, written later: squares each recorded value.
const WEIGHT_SQUARED: &str = r#"
component "weight-squared" id=42
internal fn weight(int) -> int {
    load_arg 0
    load_arg 0
    mul
    ret
}
"#;

fn main() {
    let v1_component = assemble(TALLY_V1).expect("v1 assembles");
    println!(
        "assembled {:?}: {} functions, {} declared dependencies",
        v1_component.name(),
        v1_component.functions().len(),
        v1_component.dependencies().len()
    );
    println!("--- disassembly round-trip ---");
    print!("{}", disassemble(&v1_component));
    assert_eq!(
        assemble(&disassemble(&v1_component)).expect("round trip"),
        v1_component
    );
    println!("-------------------------------");

    let mut fleet = Fleet::new(Strategy::SingleVersionExplicit, 51);
    let ico = fleet.publish_component(&v1_component, 1);
    let root = VersionId::root();
    let v1 = fleet.build_version(
        &root,
        vec![
            VersionConfigOp::IncorporateComponent { ico },
            VersionConfigOp::EnableFunction {
                function: "weight".into(),
                component: ComponentId::from_raw(41),
            },
            VersionConfigOp::EnableFunction {
                function: "record".into(),
                component: ComponentId::from_raw(41),
            },
        ],
    );
    fleet.set_current(&v1);
    fleet.create_instances(1);
    let (tally, _) = fleet.instances[0];

    for x in [2, 3] {
        let total = fleet
            .call(tally, "record", vec![dcdo::vm::Value::Int(x)])
            .expect("record succeeds");
        println!("record({x}) -> running total {total}");
    }

    // The upgrade arrives as *text*, long after deployment.
    let v2_component = assemble(WEIGHT_SQUARED).expect("v2 assembles");
    let ico2 = fleet.publish_component(&v2_component, 2);
    let v2 = fleet.build_version(
        &v1,
        vec![
            VersionConfigOp::IncorporateComponent { ico: ico2 },
            VersionConfigOp::EnableFunction {
                function: "weight".into(),
                component: ComponentId::from_raw(42),
            },
        ],
    );
    fleet.set_current(&v2);
    fleet.update_all_explicitly();
    println!("hot-swapped weight() from source text; totals now grow quadratically:");
    for x in [2, 3] {
        let total = fleet
            .call(tally, "record", vec![dcdo::vm::Value::Int(x)])
            .expect("record succeeds");
        println!("record({x}) -> running total {total}");
    }
}
