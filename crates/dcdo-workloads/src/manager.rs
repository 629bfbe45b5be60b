//! The one way to stand up a DCDO manager on a Legion testbed and drive
//! its version workflow: publish components in ICOs, derive and configure
//! versions, designate the current one, create instances.
//!
//! [`Manager`] is a `Copy` handle; every method takes the [`Testbed`] it
//! lives on, so the fleet, the scenario service and the reconfiguration
//! workload all keep their testbed wherever they already keep it.

use dcdo_core::ops::{
    ConfigureVersion, CreateDcdo, DcdoCreated, DeriveVersion, DerivedVersion, MarkInstantiable,
    SetCurrentVersion, VersionConfigOp,
};
use dcdo_core::{DcdoManager, HostDirectory, Ico};
use dcdo_sim::{ActorId, NodeId};
use dcdo_types::{ClassId, ObjectId, VersionId};
use dcdo_vm::ComponentBinary;
use legion_substrate::harness::Testbed;
use legion_substrate::ControlOp;

use crate::strategy::Strategy;

/// A DCDO manager spawned on a testbed, plus the admin client that drives it.
#[derive(Debug, Clone, Copy)]
pub struct Manager {
    /// The manager's object identity.
    pub object: ObjectId,
    /// The manager's actor.
    pub actor: ActorId,
    /// The admin client that issues every control operation below.
    pub driver: ActorId,
}

impl Manager {
    /// Spawns a manager with `strategy`'s version policy and propagation on
    /// node 0, with the testbed's hosts and vault attached, and its driver
    /// client on `driver_node`.
    pub fn spawn(bed: &mut Testbed, strategy: Strategy, driver_node: NodeId) -> Manager {
        let hosts = HostDirectory::from_testbed(bed);
        let object = bed.fresh_object_id();
        let manager = DcdoManager::new(
            object,
            ClassId::from_raw(1),
            bed.cost.clone(),
            bed.agent,
            hosts,
            strategy.version_policy(),
            strategy.propagation(),
        )
        .with_vault(bed.vault_object);
        let actor = bed.sim.spawn(bed.nodes[0], manager);
        bed.register(object, actor);
        let (_, driver) = bed.spawn_client(driver_node);
        Manager {
            object,
            actor,
            driver,
        }
    }

    /// Publishes `binary` in a fresh ICO on node index `node` (modulo the
    /// node count), returning the ICO's identity and actor.
    pub fn publish(
        bed: &mut Testbed,
        binary: &ComponentBinary,
        node: usize,
    ) -> (ObjectId, ActorId) {
        let object = bed.fresh_object_id();
        let node = bed.nodes[node % bed.nodes.len()];
        let actor = bed
            .sim
            .spawn(node, Ico::new(object, binary, bed.cost.clone()));
        bed.register(object, actor);
        (object, actor)
    }

    /// Sends one control operation to `target` from the driver and waits
    /// for the reply.
    pub fn control(
        &self,
        bed: &mut Testbed,
        target: ObjectId,
        op: ControlOp,
    ) -> Result<(), String> {
        let completion = bed.control_and_wait(self.driver, target, op);
        completion.result.map(|_| ()).map_err(|e| e.to_string())
    }

    fn expect(&self, bed: &mut Testbed, op: ControlOp) {
        if let Err(e) = self.control(bed, self.object, op) {
            panic!("manager refused a control op: {e}");
        }
    }

    /// Derives a new version from `from`, applies `steps`, and marks it
    /// instantiable. Returns the new version.
    ///
    /// # Panics
    ///
    /// Panics if the manager refuses any step.
    pub fn build_version(
        &self,
        bed: &mut Testbed,
        from: &VersionId,
        steps: Vec<VersionConfigOp>,
    ) -> VersionId {
        let derive = ControlOp::new(DeriveVersion { from: from.clone() });
        let version = bed
            .control_and_wait(self.driver, self.object, derive)
            .result
            .expect("derive succeeds")
            .control_as::<DerivedVersion>()
            .expect("derived-version reply")
            .version
            .clone();
        for op in steps {
            let configure = ConfigureVersion {
                version: version.clone(),
                op,
            };
            self.expect(bed, ControlOp::new(configure));
        }
        let mark = MarkInstantiable {
            version: version.clone(),
        };
        self.expect(bed, ControlOp::new(mark));
        version
    }

    /// Designates `version` as current; a proactive manager starts pushing
    /// it to every instance.
    ///
    /// # Panics
    ///
    /// Panics if the manager refuses.
    pub fn set_current(&self, bed: &mut Testbed, version: &VersionId) {
        let version = version.clone();
        self.expect(bed, ControlOp::new(SetCurrentVersion { version }));
    }

    /// Creates an instance of the current version on `node`, returning its
    /// identity and actor.
    ///
    /// # Panics
    ///
    /// Panics if the manager refuses.
    pub fn create(&self, bed: &mut Testbed, node: NodeId) -> (ObjectId, ActorId) {
        let completion = bed.control_and_wait(
            self.driver,
            self.object,
            ControlOp::new(CreateDcdo { node }),
        );
        let created = completion.result.expect("creation succeeds");
        let created = created
            .control_as::<DcdoCreated>()
            .expect("dcdo-created reply");
        (created.object, created.address)
    }
}
