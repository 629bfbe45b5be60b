//! Two worlds on one thread stay apart. Each simulated world owns its VM
//! totals, so stepping two DCDO worlds alternately leaves every witness of
//! each one — VM totals, span digest, trace hash — what it is when that
//! world runs alone.

use dcdo::core::ops::{UpdateInstance, VersionConfigOp};
use dcdo::legion::harness::Testbed;
use dcdo::legion::ControlOp;
use dcdo::sim::ActorId;
use dcdo::types::{ObjectId, VersionId};
use dcdo::vm::{Value, VmTotals};
use dcdo::workloads::{service, Manager, Strategy};

/// A traced counter service: one DCDO instance at version 1.1, with
/// version 1.1.1 (step by ten) built and current but not yet applied.
struct World {
    bed: Testbed,
    client: ActorId,
    manager: ObjectId,
    dcdo: ObjectId,
    calls: usize,
}

impl World {
    fn new(seed: u64, calls: usize) -> World {
        let mut bed = Testbed::centurion(seed);
        bed.sim.trace_mut().enable(1 << 16);
        bed.sim.spans_mut().enable();
        let (driver_node, dcdo_node) = (bed.nodes[15], bed.nodes[4]);
        let manager = Manager::spawn(&mut bed, Strategy::SingleVersionExplicit, driver_node);
        let (core_ico, _) = Manager::publish(&mut bed, &service::counter_core(), 1);
        let root = VersionId::root();
        let v1 = manager.build_version(&mut bed, &root, service::counter_v1(core_ico));
        manager.set_current(&mut bed, &v1);
        let (dcdo, _) = manager.create(&mut bed, dcdo_node);
        let (step_ico, _) = Manager::publish(&mut bed, &service::step_by(10), 2);
        let steps = vec![
            VersionConfigOp::IncorporateComponent { ico: step_ico },
            VersionConfigOp::EnableFunction {
                function: "step".into(),
                component: service::ids::STEP_TEN,
            },
        ];
        let v2 = manager.build_version(&mut bed, &v1, steps);
        manager.set_current(&mut bed, &v2);
        World {
            bed,
            client: manager.driver,
            manager: manager.object,
            dcdo,
            calls,
        }
    }

    /// Issues one phase's operations without running the world.
    fn issue(&mut self, phase: usize) {
        if phase == 1 {
            let update = UpdateInstance {
                object: self.dcdo,
                to: None,
            };
            self.bed
                .client_control(self.client, self.manager, ControlOp::new(update));
        } else {
            for _ in 0..self.calls {
                self.bed.client_call(self.client, self.dcdo, "incr", vec![]);
            }
        }
    }

    fn witnesses(&self) -> (VmTotals, u64, u64) {
        let sim = &self.bed.sim;
        (
            sim.totals::<VmTotals>().cloned().unwrap_or_default(),
            sim.spans().digest(),
            dcdo::chaos::trace_hash(sim.trace()),
        )
    }
}

/// Calls, the update to 1.1.1, calls again. Each phase issues its
/// operations in every world, then steps the worlds round robin, one event
/// each, until all of them are idle.
fn drive(worlds: &mut [&mut World]) {
    for phase in 0..3 {
        for w in worlds.iter_mut() {
            w.issue(phase);
        }
        loop {
            let mut stepped = false;
            for w in worlds.iter_mut() {
                stepped |= w.bed.sim.step();
            }
            if !stepped {
                break;
            }
        }
    }
}

#[test]
fn interleaved_worlds_keep_their_own_totals_and_witnesses() {
    let (mut a_alone, mut b_alone) = (World::new(42, 2), World::new(7, 3));
    drive(&mut [&mut a_alone]);
    drive(&mut [&mut b_alone]);

    let (mut a, mut b) = (World::new(42, 2), World::new(7, 3));
    drive(&mut [&mut a, &mut b]);

    let (a_vm, _, _) = a.witnesses();
    let (b_vm, _, _) = b.witnesses();
    assert!(a_vm.retired > 0 && !a_vm.profile.functions.is_empty());
    assert_ne!(a_vm, b_vm, "the worlds ran different call counts");
    assert_eq!(a.witnesses(), a_alone.witnesses(), "world A");
    assert_eq!(b.witnesses(), b_alone.witnesses(), "world B");
    // Both updates landed mid-interleave: each world's second round of
    // calls stepped by ten.
    for (w, expected) in [(&mut a, 22), (&mut b, 33)] {
        let get = w.bed.call_and_wait(w.client, w.dcdo, "get", vec![]);
        let value = get.result.expect("get").into_value().expect("value");
        assert_eq!(value, Value::Int(expected));
    }
}
