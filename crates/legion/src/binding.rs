//! Binding agents: the Legion naming layer from object identity to
//! physical address.
//!
//! A *binding* maps an [`ObjectId`] to the physical address where the
//! object's process currently runs (in the simulation, the [`ActorId`]).
//! Clients cache bindings; when an object migrates or is recreated the
//! cached address goes stale, and a client discovers this only by timing
//! out against the dead address — the paper measures 25–35 seconds for this
//! discovery (§4, "Cost"). The client-side machinery lives in
//! [`rpc`](crate::rpc); this module provides the agent that holds the
//! authoritative map.

use std::collections::HashMap;

use dcdo_sim::{Actor, ActorId, Ctx, SpanKind};
use dcdo_types::{CallId, ObjectId};

use crate::msg::{Ack, Msg};
use crate::object::{self, LegionObject, Served};

/// Registers (or updates) the binding for an object.
#[derive(Debug, Clone)]
pub struct RegisterBinding {
    /// The object being bound.
    pub object: ObjectId,
    /// The physical address its process now runs at.
    pub address: ActorId,
}

/// Removes the binding for an object (deactivation or deletion).
#[derive(Debug, Clone)]
pub struct UnregisterBinding {
    /// The object whose binding is removed.
    pub object: ObjectId,
}

/// Drops every binding that points at one of the given physical addresses.
///
/// Recovery layers send this when a host crashes: the actors that lived on
/// it are gone, so any binding still naming them would send clients into
/// the slow stale-binding timeout path. Answered with
/// [`InvalidatedBindings`].
#[derive(Debug, Clone)]
pub struct InvalidateBindings {
    /// Addresses that are no longer valid (e.g. actors of a crashed node).
    pub addresses: Vec<ActorId>,
}

/// The answer to an [`InvalidateBindings`]: how many bindings were dropped.
#[derive(Debug, Clone)]
pub struct InvalidatedBindings {
    /// Objects whose bindings were removed.
    pub removed: Vec<ObjectId>,
}

/// Asks for the current binding of an object.
#[derive(Debug, Clone)]
pub struct QueryBinding {
    /// The object being located.
    pub object: ObjectId,
}

/// The answer to a [`QueryBinding`].
#[derive(Debug, Clone)]
pub struct BindingResult {
    /// The object asked about.
    pub object: ObjectId,
    /// Its current address, or `None` if it has no active process.
    pub address: Option<ActorId>,
}

crate::control_ops! {
    /// The ops a binding agent serves.
    pub enum BindingOp {
        RegisterBinding = "register-binding", 64;
        UnregisterBinding = "unregister-binding", 64;
        InvalidateBindings = "invalidate-bindings", |op| 16 + op.addresses.len() as u64 * 8;
        QueryBinding = "query-binding", 64;
    }

    /// A binding agent's replies.
    pub enum BindingReply {
        InvalidatedBindings = "invalidated-bindings", |op| 16 + op.removed.len() as u64 * 8;
        BindingResult = "binding-result", 64;
    }
}

/// The binding agent: authoritative ObjectId → physical-address map.
#[derive(Debug)]
pub struct BindingAgent {
    object: ObjectId,
    bindings: HashMap<ObjectId, ActorId>,
    queries_served: u64,
}

impl BindingAgent {
    /// Creates a binding agent with the given object identity.
    pub fn new(object: ObjectId) -> Self {
        BindingAgent {
            object,
            bindings: HashMap::new(),
            queries_served: 0,
        }
    }

    /// Direct (driver-side) registration, used during scenario setup.
    pub fn register(&mut self, object: ObjectId, address: ActorId) {
        self.bindings.insert(object, address);
    }

    /// Direct (driver-side) lookup.
    pub fn lookup(&self, object: ObjectId) -> Option<ActorId> {
        self.bindings.get(&object).copied()
    }

    /// Number of query operations served over the wire.
    pub fn queries_served(&self) -> u64 {
        self.queries_served
    }

    /// Drops every binding that points at one of `addresses`; returns the
    /// objects that lost their binding (driver-side twin of
    /// [`InvalidateBindings`]).
    pub fn invalidate_addresses(&mut self, addresses: &[ActorId]) -> Vec<ObjectId> {
        let mut removed: Vec<ObjectId> = self
            .bindings
            .iter()
            .filter(|(_, a)| addresses.contains(a))
            .map(|(o, _)| *o)
            .collect();
        removed.sort_unstable();
        for object in &removed {
            self.bindings.remove(object);
        }
        removed
    }
}

impl LegionObject for BindingAgent {
    type Ops<'a> = BindingOp<'a>;

    fn object_id(&self) -> ObjectId {
        self.object
    }

    fn control(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        _: ActorId,
        call: CallId,
        op: BindingOp<'_>,
    ) -> Served {
        Served::Reply(match op {
            BindingOp::RegisterBinding(reg) => {
                self.bindings.insert(reg.object, reg.address);
                if ctx.tracing_enabled() {
                    ctx.emit_span(SpanKind::BindingRegistered {
                        object: reg.object.as_raw(),
                        dst: reg.address.as_raw(),
                    });
                }
                Msg::control_ok(call, Ack)
            }
            BindingOp::UnregisterBinding(unreg) => {
                self.bindings.remove(&unreg.object);
                if ctx.tracing_enabled() {
                    ctx.emit_span(SpanKind::BindingInvalidated {
                        object: unreg.object.as_raw(),
                    });
                }
                Msg::control_ok(call, Ack)
            }
            BindingOp::InvalidateBindings(inv) => {
                let removed = self.invalidate_addresses(&inv.addresses);
                if ctx.tracing_enabled() {
                    for object in &removed {
                        ctx.emit_span(SpanKind::BindingInvalidated {
                            object: object.as_raw(),
                        });
                    }
                }
                Msg::control_ok(call, InvalidatedBindings { removed })
            }
            BindingOp::QueryBinding(query) => {
                self.queries_served += 1;
                Msg::control_ok(
                    call,
                    BindingResult {
                        object: query.object,
                        address: self.bindings.get(&query.object).copied(),
                    },
                )
            }
        })
    }
}

impl Actor<Msg> for BindingAgent {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
        object::deliver(self, ctx, from, msg);
    }

    fn name(&self) -> &str {
        "binding-agent"
    }
}

#[cfg(test)]
mod tests {
    use dcdo_sim::{NetConfig, NodeId, Simulation};
    use dcdo_vm::Value;

    use super::*;
    use crate::msg::{ControlOp, ControlPayload, InvocationFault, OpTable};

    /// Driver actor that records the control and invocation replies it
    /// receives.
    #[derive(Default)]
    struct Probe {
        replies: Vec<Result<ControlOp, InvocationFault>>,
        invocation_replies: Vec<(CallId, Result<Value, InvocationFault>)>,
    }

    impl Actor<Msg> for Probe {
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: ActorId, msg: Msg) {
            match msg {
                Msg::ControlReply { result, .. } => self.replies.push(result),
                Msg::Reply { call, result } => self.invocation_replies.push((call, result)),
                _ => {}
            }
        }
    }

    fn setup() -> (Simulation<Msg>, ActorId, ActorId, ObjectId) {
        let mut sim = Simulation::new(NetConfig::instant(), 1);
        let agent_obj = ObjectId::from_raw(1);
        let agent = sim.spawn(NodeId::from_raw(0), BindingAgent::new(agent_obj));
        let probe = sim.spawn(NodeId::from_raw(1), Probe::default());
        (sim, agent, probe, agent_obj)
    }

    fn control(call: u64, target: ObjectId, op: impl ControlPayload) -> Msg {
        Msg::Control {
            call: CallId::from_raw(call),
            target,
            op: ControlOp::new(op),
        }
    }

    #[test]
    fn register_then_query_round_trip() {
        let (mut sim, agent, probe, agent_obj) = setup();
        let obj = ObjectId::from_raw(42);
        let addr = ActorId::from_raw(9);
        sim.post(
            probe,
            agent,
            control(
                1,
                agent_obj,
                RegisterBinding {
                    object: obj,
                    address: addr,
                },
            ),
        );
        sim.post(
            probe,
            agent,
            control(2, agent_obj, QueryBinding { object: obj }),
        );
        sim.run_until_idle();
        let probe_ref = sim.actor::<Probe>(probe).expect("alive");
        assert_eq!(probe_ref.replies.len(), 2);
        let result = probe_ref.replies[1].as_ref().expect("query succeeds");
        let Some(BindingReply::BindingResult(binding)) = BindingReply::decode(result) else {
            panic!("not a binding result: {result:?}");
        };
        assert_eq!(binding.address, Some(addr));
    }

    #[test]
    fn query_for_unbound_object_returns_none() {
        let (mut sim, agent, probe, agent_obj) = setup();
        sim.post(
            probe,
            agent,
            control(
                1,
                agent_obj,
                QueryBinding {
                    object: ObjectId::from_raw(404),
                },
            ),
        );
        sim.run_until_idle();
        let probe_ref = sim.actor::<Probe>(probe).expect("alive");
        let result = probe_ref.replies[0].as_ref().expect("query succeeds");
        let Some(BindingReply::BindingResult(binding)) = BindingReply::decode(result) else {
            panic!("not a binding result: {result:?}");
        };
        assert_eq!(binding.address, None);
    }

    #[test]
    fn unregister_removes_binding() {
        let (mut sim, agent, probe, agent_obj) = setup();
        let obj = ObjectId::from_raw(5);
        sim.post(
            probe,
            agent,
            control(
                1,
                agent_obj,
                RegisterBinding {
                    object: obj,
                    address: ActorId::from_raw(3),
                },
            ),
        );
        sim.post(
            probe,
            agent,
            control(2, agent_obj, UnregisterBinding { object: obj }),
        );
        sim.post(
            probe,
            agent,
            control(3, agent_obj, QueryBinding { object: obj }),
        );
        sim.run_until_idle();
        let probe_ref = sim.actor::<Probe>(probe).expect("alive");
        let result = probe_ref.replies[2].as_ref().expect("query succeeds");
        let Some(BindingReply::BindingResult(binding)) = BindingReply::decode(result) else {
            panic!("not a binding result: {result:?}");
        };
        assert_eq!(binding.address, None);
    }

    #[test]
    fn invalidate_drops_only_bindings_at_dead_addresses() {
        let (mut sim, agent, probe, agent_obj) = setup();
        let dead = ActorId::from_raw(3);
        let alive = ActorId::from_raw(4);
        let (a, b, c) = (
            ObjectId::from_raw(10),
            ObjectId::from_raw(11),
            ObjectId::from_raw(12),
        );
        for (obj, addr) in [(a, dead), (b, dead), (c, alive)] {
            sim.post(
                probe,
                agent,
                control(
                    obj.as_raw(),
                    agent_obj,
                    RegisterBinding {
                        object: obj,
                        address: addr,
                    },
                ),
            );
        }
        sim.post(
            probe,
            agent,
            control(
                99,
                agent_obj,
                InvalidateBindings {
                    addresses: vec![dead],
                },
            ),
        );
        sim.run_until_idle();
        let probe_ref = sim.actor::<Probe>(probe).expect("alive");
        let reply = probe_ref
            .replies
            .last()
            .expect("reply")
            .as_ref()
            .expect("ok");
        let Some(BindingReply::InvalidatedBindings(inv)) = BindingReply::decode(reply) else {
            panic!("not invalidated-bindings: {reply:?}");
        };
        assert_eq!(inv.removed, vec![a, b]);
        let agent_ref = sim.actor::<BindingAgent>(agent).expect("alive");
        assert_eq!(agent_ref.lookup(a), None);
        assert_eq!(agent_ref.lookup(b), None);
        assert_eq!(agent_ref.lookup(c), Some(alive));
    }

    #[test]
    fn user_invocations_are_rejected() {
        let (mut sim, agent, probe, agent_obj) = setup();
        sim.post(
            probe,
            agent,
            Msg::Invoke {
                call: CallId::from_raw(1),
                target: agent_obj,
                function: "anything".into(),
                args: vec![],
            },
        );
        sim.run_until_idle();
        // The agent exports no functions: the call is answered with the
        // envelope's NoSuchFunction, and serves no binding query.
        let probe_ref = sim.actor::<Probe>(probe).expect("alive");
        let [(call, Err(fault))] = probe_ref.invocation_replies.as_slice() else {
            panic!(
                "want one refused reply, got {:?}",
                probe_ref.invocation_replies
            );
        };
        assert_eq!(*call, CallId::from_raw(1));
        assert_eq!(fault.to_string(), "function anything not in interface");
        assert!(probe_ref.replies.is_empty());
        assert_eq!(
            sim.actor::<BindingAgent>(agent)
                .expect("alive")
                .queries_served(),
            0
        );
    }

    #[test]
    fn direct_register_lookup() {
        let mut agent = BindingAgent::new(ObjectId::from_raw(1));
        let obj = ObjectId::from_raw(2);
        assert_eq!(agent.lookup(obj), None);
        agent.register(obj, ActorId::from_raw(7));
        assert_eq!(agent.lookup(obj), Some(ActorId::from_raw(7)));
    }
}
