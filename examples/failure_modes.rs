//! The §3.1 failure taxonomy, reproduced and then prevented.
//!
//! ```text
//! cargo run --example failure_modes
//! ```
//!
//! Dynamic configurability enables new failure modes: exported functions
//! disappearing out from under clients, internal callees vanishing beneath
//! their callers, and components being unmapped while suspended threads
//! still live inside them. This example triggers each one with the
//! restrictions off, then shows the §3.2 machinery (dependencies,
//! protections, thread activity monitoring) closing each hole.

use dcdo::core::ops::{
    DisableFunction, RemovalPolicy, RemoveComponent, SetRemovalPolicy, VersionConfigOp,
};
use dcdo::legion::harness::Class;
use dcdo::legion::monolithic::ExecutableImage;
use dcdo::legion::ControlOp;
use dcdo::sim::SimDuration;
use dcdo::types::{ComponentId, Protection, VersionId};
use dcdo::vm::{ComponentBuilder, FunctionBuilder, Value};
use dcdo::workloads::{Fleet, Strategy};

/// counter without declared dependencies — deliberately unprotected.
fn unprotected_counter() -> dcdo::vm::ComponentBinary {
    ComponentBuilder::new(ComponentId::from_raw(1), "counter-unprotected")
        .exported("incr() -> int", |b| b.call_dyn("step", 0).ret())
        .expect("incr assembles")
        .internal("step() -> int", |b| b.push_int(1).ret())
        .expect("step assembles")
        .build()
        .expect("component validates")
}

fn main() {
    let mut fleet = Fleet::new(Strategy::SingleVersionExplicit, 31);
    let comp = unprotected_counter();
    let ico = fleet.publish_component(&comp, 1);
    let root = VersionId::root();
    let v1 = fleet.build_version(
        &root,
        vec![
            VersionConfigOp::IncorporateComponent { ico },
            VersionConfigOp::EnableFunction {
                function: "step".into(),
                component: ComponentId::from_raw(1),
            },
            VersionConfigOp::EnableFunction {
                function: "incr".into(),
                component: ComponentId::from_raw(1),
            },
        ],
    );
    fleet.set_current(&v1);
    fleet.create_instances(1);
    let (dcdo, _) = fleet.instances[0];

    println!("== problem 1: the disappearing exported function ==");
    println!("client observes incr() in the interface, then it is disabled:");
    fleet
        .bed
        .control_and_wait(
            fleet.manager.driver,
            dcdo,
            ControlOp::new(DisableFunction {
                function: "incr".into(),
            }),
        )
        .result
        .expect("disable succeeds (nothing protects incr)");
    match fleet.call(dcdo, "incr", vec![]) {
        Err(e) => println!("  client's call now fails: {e}"),
        Ok(_) => unreachable!(),
    }
    // Re-enable for the next act.
    fleet
        .bed
        .control_and_wait(
            fleet.manager.driver,
            dcdo,
            ControlOp::new(dcdo::core::ops::EnableFunction {
                function: "incr".into(),
                component: ComponentId::from_raw(1),
            }),
        )
        .result
        .expect("re-enable succeeds");

    println!();
    println!("== problem 2: the missing internal function ==");
    println!("step() is disabled out from under incr():");
    fleet
        .bed
        .control_and_wait(
            fleet.manager.driver,
            dcdo,
            ControlOp::new(DisableFunction {
                function: "step".into(),
            }),
        )
        .result
        .expect("disable succeeds (no dependency declared)");
    match fleet.call(dcdo, "incr", vec![]) {
        Err(e) => println!("  incr() breaks at runtime: {e}"),
        Ok(_) => unreachable!(),
    }

    println!();
    println!("== prevention: structural dependency + mandatory marking ==");
    fleet
        .bed
        .control_and_wait(
            fleet.manager.driver,
            dcdo,
            ControlOp::new(dcdo::core::ops::EnableFunction {
                function: "step".into(),
                component: ComponentId::from_raw(1),
            }),
        )
        .result
        .expect("re-enable succeeds");
    fleet
        .bed
        .control_and_wait(
            fleet.manager.driver,
            dcdo,
            ControlOp::new(dcdo::core::ops::AddFunctionDependency {
                dependency: dcdo::types::Dependency::type_a(
                    "incr",
                    ComponentId::from_raw(1),
                    "step",
                ),
            }),
        )
        .result
        .expect("dependency declared");
    match fleet
        .bed
        .control_and_wait(
            fleet.manager.driver,
            dcdo,
            ControlOp::new(DisableFunction {
                function: "step".into(),
            }),
        )
        .result
    {
        Err(e) => println!("  disable of step now refused: {e}"),
        Ok(_) => unreachable!(),
    }
    fleet
        .bed
        .control_and_wait(
            fleet.manager.driver,
            dcdo,
            ControlOp::new(dcdo::core::ops::SetFunctionProtection {
                function: "incr".into(),
                protection: Protection::Mandatory,
            }),
        )
        .result
        .expect("incr marked mandatory");
    match fleet
        .bed
        .control_and_wait(
            fleet.manager.driver,
            dcdo,
            ControlOp::new(DisableFunction {
                function: "incr".into(),
            }),
        )
        .result
    {
        Err(e) => println!("  disable of mandatory incr refused: {e}"),
        Ok(_) => unreachable!(),
    }

    println!();
    println!("== problem 3: the disappearing component ==");
    // A relay function suspends on a slow peer; removal policies decide
    // what happens to the component under its feet.
    let relay = ComponentBuilder::new(ComponentId::from_raw(2), "relay")
        .exported("relay(objref) -> int", |b| {
            b.load_arg(0).call_remote("slow", 0).ret()
        })
        .expect("relay assembles")
        .build()
        .expect("component validates");
    let ico2 = fleet.publish_component(&relay, 2);
    fleet
        .bed
        .control_and_wait(
            fleet.manager.driver,
            dcdo,
            ControlOp::new(dcdo::core::ops::IncorporateComponent { ico: ico2 }),
        )
        .result
        .expect("incorporation succeeds");
    fleet
        .bed
        .control_and_wait(
            fleet.manager.driver,
            dcdo,
            ControlOp::new(dcdo::core::ops::EnableFunction {
                function: "relay".into(),
                component: ComponentId::from_raw(2),
            }),
        )
        .result
        .expect("relay enabled");

    // A slow monolithic peer (3 simulated seconds of work).
    let slow = FunctionBuilder::parse("slow() -> int")
        .expect("signature")
        .work(3_000_000_000)
        .push_int(99)
        .ret()
        .build()
        .expect("slow assembles");
    let class = Class::spawn(&mut fleet.bed, ExecutableImage::new(1, vec![slow], 100_000));
    let node = fleet.bed.nodes[2];
    let peer = class.create(&mut fleet.bed, node);

    let pending = fleet.bed.client_call(
        fleet.manager.driver,
        dcdo,
        "relay",
        vec![Value::ObjRef(peer)],
    );
    fleet.bed.run_for(SimDuration::from_millis(100));
    println!("a thread is suspended inside the relay component; removal under Refuse policy:");
    match fleet
        .bed
        .control_and_wait(
            fleet.manager.driver,
            dcdo,
            ControlOp::new(RemoveComponent {
                component: ComponentId::from_raw(2),
            }),
        )
        .result
    {
        Err(e) => println!("  refused: {e}"),
        Ok(_) => unreachable!(),
    }

    println!("switching to DelayUntilIdle and retrying:");
    fleet
        .bed
        .control_and_wait(
            fleet.manager.driver,
            dcdo,
            ControlOp::new(SetRemovalPolicy {
                policy: RemovalPolicy::DelayUntilIdle,
            }),
        )
        .result
        .expect("policy set");
    let removal = fleet.bed.client_control(
        fleet.manager.driver,
        dcdo,
        ControlOp::new(RemoveComponent {
            component: ComponentId::from_raw(2),
        }),
    );
    let relay_reply = fleet.bed.wait_for(fleet.manager.driver, pending);
    println!(
        "  suspended thread completed first: relay -> {}",
        relay_reply
            .result
            .expect("relay succeeds")
            .into_value()
            .expect("value")
    );
    let removal_reply = fleet.bed.wait_for(fleet.manager.driver, removal);
    assert!(removal_reply.result.is_ok());
    println!("  then the removal proceeded — no thread lost its code");
}
