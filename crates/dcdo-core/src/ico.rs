//! Implementation component objects (§2.3).
//!
//! An ICO is an active distributed object that *maintains* one
//! implementation component: the executable code (the [`ComponentBinary`],
//! shared with every reader), the descriptor describing its contents, and
//! the component's implementation type. Keeping components in first-class
//! objects lets them be named through the system's global namespace and
//! spares their (potentially large) data from traveling with every
//! reference; a DCDO reads the data only when it actually incorporates the
//! component.

use std::rc::Rc;

use dcdo_sim::{Actor, ActorId, Ctx, SimDuration};
use dcdo_types::{CallId, ComponentId, ImplementationType, ObjectId};
use dcdo_vm::{ComponentBinary, ComponentDescriptor};
use legion_substrate::object::{self, LegionObject, Served};
use legion_substrate::{CostModel, Msg};

use crate::ops::{ComponentDescriptorReply, ComponentPayload, IcoOp};

/// An active object serving one implementation component's data.
pub struct Ico {
    object: ObjectId,
    descriptor: ComponentDescriptor,
    binary: Rc<ComponentBinary>,
    cost: CostModel,
    reads_served: u64,
    // Deferred data replies: timer token -> (requester, call).
    pending_reads: std::collections::HashMap<u64, (ActorId, CallId)>,
}

impl Ico {
    /// Creates an ICO maintaining `binary`.
    pub fn new(object: ObjectId, binary: &ComponentBinary, cost: CostModel) -> Self {
        Ico {
            object,
            descriptor: binary.descriptor(),
            binary: Rc::new(binary.clone()),
            cost,
            reads_served: 0,
            pending_reads: std::collections::HashMap::new(),
        }
    }

    /// The component maintained.
    pub fn component_id(&self) -> ComponentId {
        self.binary.id()
    }

    /// The component's implementation type.
    pub fn impl_type(&self) -> ImplementationType {
        self.descriptor.impl_type
    }

    /// The component's descriptor.
    pub fn descriptor(&self) -> &ComponentDescriptor {
        &self.descriptor
    }

    /// The component data's transferable size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.descriptor.size_bytes
    }

    /// Data reads served so far.
    pub fn reads_served(&self) -> u64 {
        self.reads_served
    }

    /// The time a data read takes for this component.
    pub fn read_time(&self) -> SimDuration {
        self.cost
            .component_transfer
            .transfer_time(self.size_bytes())
    }
}

impl LegionObject for Ico {
    type Ops<'a> = IcoOp<'a>;

    fn object_id(&self) -> ObjectId {
        self.object
    }

    fn control(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: ActorId,
        call: CallId,
        op: IcoOp<'_>,
    ) -> Served {
        match op {
            IcoOp::ReadComponent(_) => {
                // Serving the data takes the component-transfer time;
                // acknowledge immediately, deliver when done.
                ctx.send(from, Msg::Progress { call });
                let token = ctx.fresh_u64();
                self.pending_reads.insert(token, (from, call));
                let delay = self.read_time();
                ctx.schedule_timer(delay, token);
                Served::Later
            }
            IcoOp::ReadComponentDescriptor(_) => Served::Reply(Msg::control_ok(
                call,
                ComponentDescriptorReply {
                    descriptor: self.descriptor.clone(),
                },
            )),
        }
    }
}

impl Actor<Msg> for Ico {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
        object::deliver(self, ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        if let Some((requester, call)) = self.pending_reads.remove(&token) {
            self.reads_served += 1;
            ctx.send(
                requester,
                Msg::control_ok(
                    call,
                    ComponentPayload {
                        binary: Rc::clone(&self.binary),
                    },
                ),
            );
        }
    }

    fn name(&self) -> &str {
        "ico"
    }
}

impl std::fmt::Debug for Ico {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ico")
            .field("object", &self.object)
            .field("component", &self.component_id())
            .field("size_bytes", &self.size_bytes())
            .field("reads_served", &self.reads_served)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use dcdo_sim::{NetConfig, NodeId, Simulation};
    use dcdo_vm::ComponentBuilder;
    use legion_substrate::{ControlOp, InvocationFault, OpTable};

    use super::*;
    use crate::ops::{IcoReply, ReadComponent, ReadComponentDescriptor};

    fn component(id: u64, padding: u64) -> ComponentBinary {
        ComponentBuilder::new(ComponentId::from_raw(id), "served")
            .exported("f() -> unit", |b| b.ret())
            .expect("f")
            .static_data_size(padding)
            .build()
            .expect("valid")
    }

    /// Probe recording control replies.
    #[derive(Default)]
    struct Probe {
        replies: Vec<Result<ControlOp, InvocationFault>>,
        progress: u32,
    }

    impl Actor<Msg> for Probe {
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: ActorId, msg: Msg) {
            match msg {
                Msg::ControlReply { result, .. } => self.replies.push(result),
                Msg::Progress { .. } => self.progress += 1,
                _ => {}
            }
        }
    }

    #[test]
    fn read_component_round_trips_and_takes_transfer_time() {
        let mut sim = Simulation::new(NetConfig::centurion(), 1);
        let binary = component(1, 256 * 1024);
        let ico_obj = ObjectId::from_raw(1);
        let ico = sim.spawn(
            NodeId::from_raw(0),
            Ico::new(ico_obj, &binary, CostModel::centurion()),
        );
        let probe = sim.spawn(NodeId::from_raw(1), Probe::default());
        sim.post(
            probe,
            ico,
            Msg::Control {
                call: CallId::from_raw(1),
                target: ico_obj,
                op: ControlOp::new(ReadComponent),
            },
        );
        sim.run_until_idle();
        let elapsed = sim.now().as_secs_f64();
        // 256 KiB at 256 KiB/s + 40ms setup ≈ 1.04s.
        assert!((0.9..=1.3).contains(&elapsed), "read took {elapsed}s");
        let probe_ref = sim.actor::<Probe>(probe).expect("alive");
        assert_eq!(probe_ref.progress, 1, "progress ack sent");
        let payload = probe_ref.replies[0].as_ref().expect("read succeeds");
        let Some(IcoReply::ComponentPayload(data)) = IcoReply::decode(payload) else {
            panic!("not a component payload: {payload:?}");
        };
        assert_eq!(*data.binary, binary);
        assert_eq!(sim.actor::<Ico>(ico).expect("alive").reads_served(), 1);
    }

    #[test]
    fn descriptor_read_is_fast() {
        let mut sim = Simulation::new(NetConfig::centurion(), 2);
        let binary = component(2, 10 << 20);
        let ico_obj = ObjectId::from_raw(1);
        let ico = sim.spawn(
            NodeId::from_raw(0),
            Ico::new(ico_obj, &binary, CostModel::centurion()),
        );
        let probe = sim.spawn(NodeId::from_raw(1), Probe::default());
        sim.post(
            probe,
            ico,
            Msg::Control {
                call: CallId::from_raw(1),
                target: ico_obj,
                op: ControlOp::new(ReadComponentDescriptor),
            },
        );
        sim.run_until_idle();
        assert!(
            sim.now().as_secs_f64() < 0.1,
            "metadata read is not a download"
        );
        let probe_ref = sim.actor::<Probe>(probe).expect("alive");
        let payload = probe_ref.replies[0].as_ref().expect("read succeeds");
        let Some(IcoReply::ComponentDescriptorReply(reply)) = IcoReply::decode(payload) else {
            panic!("not a descriptor reply: {payload:?}");
        };
        assert_eq!(reply.descriptor.id, ComponentId::from_raw(2));
        let _ = ico;
    }

    #[test]
    fn accessors() {
        let binary = component(3, 0);
        let ico = Ico::new(ObjectId::from_raw(9), &binary, CostModel::instant());
        assert_eq!(ico.object_id(), ObjectId::from_raw(9));
        assert_eq!(ico.component_id(), ComponentId::from_raw(3));
        assert_eq!(ico.impl_type(), ImplementationType::portable_bytecode());
        assert_eq!(ico.descriptor().name, "served");
        assert!(ico.size_bytes() > 0);
        assert_eq!(ico.read_time(), SimDuration::ZERO);
    }
}
