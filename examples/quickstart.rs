//! Quickstart: build a component, publish it, create a DCDO, call it, and
//! evolve it on the fly.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! The tour follows the paper's workflow (§2): author dynamic-function
//! implementations as bytecode components, maintain them in implementation
//! component objects (ICOs), define versions in a DCDO Manager's DFM store,
//! create a DCDO reflecting the current version, invoke it remotely, and
//! then evolve it — without restarting anything and without invalidating
//! any client's binding.

use dcdo::core::ops::{CreateDcdo, DcdoCreated, InterfaceReport, QueryInterface, VersionConfigOp};
use dcdo::core::{DcdoManager, Ico, UpdatePropagation, VersionPolicy};
use dcdo::legion::harness::Testbed;
use dcdo::legion::ControlOp;
use dcdo::types::{ClassId, ComponentId, ObjectId, VersionId};
use dcdo::vm::{ComponentBuilder, Value};

fn main() {
    // 1. A simulated 16-node testbed with the calibrated cost model.
    let mut bed = Testbed::centurion(7);
    println!(
        "testbed up: {} nodes, binding agent, vault, context space",
        bed.nodes.len()
    );

    // 2. Author a component: one exported function `shout(str) -> str`.
    let component = ComponentBuilder::new(ComponentId::from_raw(1), "greeter-v1")
        .exported("shout(str) -> str", |b| {
            b.load_arg(0).call_native("str_upper", 1).ret()
        })
        .expect("shout assembles")
        .build()
        .expect("component validates");

    // 3. Publish it in an ICO so it has a name in the global namespace.
    let ico_obj = bed.fresh_object_id();
    let ico = bed.sim.spawn(
        bed.nodes[1],
        Ico::new(ico_obj, &component, bed.cost.clone()),
    );
    bed.register(ico_obj, ico);
    println!("published component {} in ICO {ico_obj}", component.name());

    // 4. Stand up a DCDO Manager for this object type.
    let hosts = dcdo::core::HostDirectory::from_testbed(&bed);
    let manager_obj = bed.fresh_object_id();
    let manager = DcdoManager::new(
        manager_obj,
        ClassId::from_raw(1),
        bed.cost.clone(),
        bed.agent,
        hosts,
        VersionPolicy::SingleVersion,
        UpdatePropagation::Explicit,
    );
    let manager_actor = bed.sim.spawn(bed.nodes[0], manager);
    bed.register(manager_obj, manager_actor);

    // 5. Configure version 1.1 in the DFM store and freeze it.
    let (_, admin) = bed.spawn_client(bed.nodes[0]);
    let derive = bed.control_and_wait(
        admin,
        manager_obj,
        ControlOp::new(dcdo::core::ops::DeriveVersion {
            from: VersionId::root(),
        }),
    );
    let v1: VersionId = derive
        .result
        .expect("derive succeeds")
        .control_as::<dcdo::core::ops::DerivedVersion>()
        .expect("reply")
        .version
        .clone();
    for op in [
        VersionConfigOp::IncorporateComponent { ico: ico_obj },
        VersionConfigOp::EnableFunction {
            function: "shout".into(),
            component: ComponentId::from_raw(1),
        },
    ] {
        bed.control_and_wait(
            admin,
            manager_obj,
            ControlOp::new(dcdo::core::ops::ConfigureVersion {
                version: v1.clone(),
                op,
            }),
        )
        .result
        .expect("configure succeeds");
    }
    bed.control_and_wait(
        admin,
        manager_obj,
        ControlOp::new(dcdo::core::ops::MarkInstantiable {
            version: v1.clone(),
        }),
    )
    .result
    .expect("mark succeeds");
    bed.control_and_wait(
        admin,
        manager_obj,
        ControlOp::new(dcdo::core::ops::SetCurrentVersion {
            version: v1.clone(),
        }),
    )
    .result
    .expect("set-current succeeds");
    println!("version {v1} configured and instantiable");

    // 6. Create a DCDO on node 4 and call it from node 9.
    let created = bed.control_and_wait(
        admin,
        manager_obj,
        ControlOp::new(CreateDcdo { node: bed.nodes[4] }),
    );
    let dcdo: ObjectId = created
        .result
        .expect("creation succeeds")
        .control_as::<DcdoCreated>()
        .expect("reply")
        .object;
    println!("DCDO {dcdo} created at simulated t={}", bed.sim.now());

    let (_, client) = bed.spawn_client(bed.nodes[9]);
    let reply = bed.call_and_wait(client, dcdo, "shout", vec![Value::str("hello, legion")]);
    println!(
        "shout(\"hello, legion\") -> {} ({} round-trip)",
        reply
            .result
            .expect("call succeeds")
            .into_value()
            .expect("value"),
        reply.elapsed
    );

    // 7. Evolve on the fly: version 1.1.1 swaps in a new implementation.
    let v2_component = ComponentBuilder::new(ComponentId::from_raw(2), "greeter-v2")
        .exported("shout(str) -> str", |b| {
            b.load_arg(0)
                .call_native("str_upper", 1)
                .push("!!!")
                .instr(dcdo::vm::Instr::StrConcat)
                .ret()
        })
        .expect("shout v2 assembles")
        .build()
        .expect("component validates");
    let ico2_obj = bed.fresh_object_id();
    let ico2 = bed.sim.spawn(
        bed.nodes[2],
        Ico::new(ico2_obj, &v2_component, bed.cost.clone()),
    );
    bed.register(ico2_obj, ico2);

    let derive = bed.control_and_wait(
        admin,
        manager_obj,
        ControlOp::new(dcdo::core::ops::DeriveVersion { from: v1.clone() }),
    );
    let v2: VersionId = derive
        .result
        .expect("derive succeeds")
        .control_as::<dcdo::core::ops::DerivedVersion>()
        .expect("reply")
        .version
        .clone();
    for op in [
        VersionConfigOp::IncorporateComponent { ico: ico2_obj },
        VersionConfigOp::EnableFunction {
            function: "shout".into(),
            component: ComponentId::from_raw(2),
        },
    ] {
        bed.control_and_wait(
            admin,
            manager_obj,
            ControlOp::new(dcdo::core::ops::ConfigureVersion {
                version: v2.clone(),
                op,
            }),
        )
        .result
        .expect("configure succeeds");
    }
    bed.control_and_wait(
        admin,
        manager_obj,
        ControlOp::new(dcdo::core::ops::MarkInstantiable {
            version: v2.clone(),
        }),
    )
    .result
    .expect("mark succeeds");
    bed.control_and_wait(
        admin,
        manager_obj,
        ControlOp::new(dcdo::core::ops::SetCurrentVersion {
            version: v2.clone(),
        }),
    )
    .result
    .expect("set-current succeeds");

    let update = bed.control_and_wait(
        admin,
        manager_obj,
        ControlOp::new(dcdo::core::ops::UpdateInstance {
            object: dcdo,
            to: None,
        }),
    );
    update.result.expect("update succeeds");
    println!("evolved {dcdo} to {v2} in {}", update.elapsed);

    // 8. The same client, same cached binding, new behavior.
    let reply = bed.call_and_wait(client, dcdo, "shout", vec![Value::str("hello, legion")]);
    assert_eq!(reply.rebinds, 0, "evolution never invalidated the binding");
    println!(
        "shout(\"hello, legion\") -> {} (same address, {} rebinds)",
        reply
            .result
            .expect("call succeeds")
            .into_value()
            .expect("value"),
        reply.rebinds
    );

    // 9. Status reporting: the object's exported interface.
    let interface = bed.control_and_wait(admin, dcdo, ControlOp::new(QueryInterface));
    let report = interface.result.expect("query succeeds");
    let report = report.control_as::<InterfaceReport>().expect("report");
    println!("exported interface:");
    for (sig, prot) in report.functions() {
        println!("  {sig}  [{prot}]");
    }
}
