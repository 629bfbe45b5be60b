//! Scenario harness: a ready-made simulated testbed.
//!
//! [`Testbed`] assembles the standing infrastructure every experiment
//! needs — the simulation engine, a binding agent, host objects for each
//! node, a vault, and a context space — and provides driver-side helpers to
//! issue calls from clients and wait for their completions. [`Class`] stands
//! up the monolithic baseline on it. Benches, integration tests, and
//! examples all build on this.

use dcdo_sim::{ActorId, NetConfig, NodeId, SimDuration, Simulation};
use dcdo_types::{Architecture, ClassId, FunctionName, HostId, ObjectId};
use dcdo_vm::Value;

use crate::binding::BindingAgent;
use crate::class::{ClassObject, CreateInstance, EvolveInstance, InstanceCreated, SetCurrentImage};
use crate::client::ClientObject;
use crate::cost::CostModel;
use crate::host::HostObject;
use crate::monolithic::ExecutableImage;
use crate::msg::{ControlOp, Msg};
use crate::naming::ContextSpace;
use crate::rpc::{AgentAddress, RpcCompletion};
use crate::vault::Vault;

/// The number of nodes in the paper's testbed subset.
pub const CENTURION_NODES: u32 = 16;

/// A simulated testbed with standing Legion infrastructure.
pub struct Testbed {
    /// The simulation engine.
    pub sim: Simulation<Msg>,
    /// The binding agent's address.
    pub agent: AgentAddress,
    /// The nodes of the testbed.
    pub nodes: Vec<NodeId>,
    /// The host object on each node (parallel to `nodes`).
    pub hosts: Vec<ActorId>,
    /// The vault actor (on node 0).
    pub vault: ActorId,
    /// The vault's object identity.
    pub vault_object: ObjectId,
    /// The context-space actor (on node 0).
    pub context: ActorId,
    /// The context space's object identity.
    pub context_object: ObjectId,
    /// The cost model in force.
    pub cost: CostModel,
    /// Per-node host metadata, kept so crashed host daemons can be revived
    /// with their original identities (parallel to `nodes`).
    host_meta: Vec<(ObjectId, HostId, Architecture)>,
}

impl Testbed {
    /// Builds a testbed with `n_nodes` nodes, the given cost/network models,
    /// and RNG seed.
    pub fn new(n_nodes: u32, cost: CostModel, net: NetConfig, seed: u64) -> Self {
        assert!(n_nodes >= 1, "a testbed needs at least one node");
        let mut sim = Simulation::new(net, seed);
        let nodes: Vec<NodeId> = (0..n_nodes).map(NodeId::from_raw).collect();

        let agent_object = ObjectId::from_raw(sim.fresh_u64());
        let agent_actor = sim.spawn(nodes[0], BindingAgent::new(agent_object));
        let agent = AgentAddress {
            actor: agent_actor,
            object: agent_object,
        };

        let mut hosts = Vec::with_capacity(nodes.len());
        let mut host_meta = Vec::with_capacity(nodes.len());
        for (i, node) in nodes.iter().enumerate() {
            let host_object = ObjectId::from_raw(sim.fresh_u64());
            let host_id = HostId::from_raw(i as u64);
            let host = sim.spawn(
                *node,
                HostObject::new(host_object, host_id, *node, Architecture::X86),
            );
            sim.actor_mut::<BindingAgent>(agent_actor)
                .expect("agent alive")
                .register(host_object, host);
            hosts.push(host);
            host_meta.push((host_object, host_id, Architecture::X86));
        }

        let vault_object = ObjectId::from_raw(sim.fresh_u64());
        let vault = sim.spawn(nodes[0], Vault::new(vault_object));
        let context_object = ObjectId::from_raw(sim.fresh_u64());
        let context = sim.spawn(nodes[0], ContextSpace::new(context_object));
        for (obj, actor) in [(vault_object, vault), (context_object, context)] {
            sim.actor_mut::<BindingAgent>(agent_actor)
                .expect("agent alive")
                .register(obj, actor);
        }

        Testbed {
            sim,
            agent,
            nodes,
            hosts,
            vault,
            vault_object,
            context,
            context_object,
            cost,
            host_meta,
        }
    }

    /// A 16-node Centurion testbed with calibrated costs.
    pub fn centurion(seed: u64) -> Self {
        Testbed::new(
            CENTURION_NODES,
            CostModel::centurion(),
            NetConfig::centurion(),
            seed,
        )
    }

    /// Mints a fresh object identity.
    pub fn fresh_object_id(&mut self) -> ObjectId {
        ObjectId::from_raw(self.sim.fresh_u64())
    }

    /// Registers an object's physical address with the binding agent
    /// (driver-side, instantaneous).
    pub fn register(&mut self, object: ObjectId, address: ActorId) {
        self.sim
            .actor_mut::<BindingAgent>(self.agent.actor)
            .expect("agent alive")
            .register(object, address);
    }

    /// Spawns a client object on `node`.
    pub fn spawn_client(&mut self, node: NodeId) -> (ObjectId, ActorId) {
        let object = self.fresh_object_id();
        let client = ClientObject::new(object, self.agent, self.cost.clone());
        let actor = self.sim.spawn(node, client);
        self.register(object, actor);
        (object, actor)
    }

    /// Issues an invocation from a client (by actor id) and returns the call
    /// id without running the simulation.
    ///
    /// A caller that repeats a call passes a [`FunctionName`] it built
    /// once: each clone shares one allocation, which the callee's DFM
    /// recognises without hashing the name.
    pub fn client_call(
        &mut self,
        client: ActorId,
        target: ObjectId,
        function: impl Into<FunctionName>,
        args: Vec<Value>,
    ) -> dcdo_types::CallId {
        self.sim
            .with_actor::<ClientObject, _>(client, |c, ctx| c.call(ctx, target, function, args))
    }

    /// Issues a control operation from a client.
    pub fn client_control(
        &mut self,
        client: ActorId,
        target: ObjectId,
        op: ControlOp,
    ) -> dcdo_types::CallId {
        self.sim
            .with_actor::<ClientObject, _>(client, |c, ctx| c.control_op(ctx, target, op))
    }

    /// Runs the simulation until the given client call completes, and
    /// returns its completion.
    ///
    /// # Panics
    ///
    /// Panics if the simulation drains without the call completing.
    pub fn wait_for(&mut self, client: ActorId, call: dcdo_types::CallId) -> RpcCompletion {
        loop {
            let done = self
                .sim
                .actor_mut::<ClientObject>(client)
                .expect("client alive")
                .take_completion(call);
            if let Some(completion) = done {
                return completion;
            }
            if !self.sim.step() {
                panic!("simulation drained before call {call} completed");
            }
        }
    }

    /// Convenience: issue an invocation and run until it completes.
    pub fn call_and_wait(
        &mut self,
        client: ActorId,
        target: ObjectId,
        function: impl Into<FunctionName>,
        args: Vec<Value>,
    ) -> RpcCompletion {
        let call = self.client_call(client, target, function, args);
        self.wait_for(client, call)
    }

    /// Convenience: issue a control op and run until it completes.
    pub fn control_and_wait(
        &mut self,
        client: ActorId,
        target: ObjectId,
        op: ControlOp,
    ) -> RpcCompletion {
        let call = self.client_control(client, target, op);
        self.wait_for(client, call)
    }

    /// The mean round trip, in seconds, of `n` sequential `function()`
    /// invocations from `client`, after one warm-up call that pays the
    /// client's one-time binding query.
    ///
    /// # Panics
    ///
    /// Panics if any call fails.
    pub fn mean_call_secs(
        &mut self,
        client: ActorId,
        target: ObjectId,
        function: &str,
        n: usize,
    ) -> f64 {
        let function = FunctionName::from(function);
        self.call_and_wait(client, target, function.clone(), vec![])
            .result
            .expect("warm-up call succeeds");
        let mut total = 0.0;
        for _ in 0..n {
            let completion = self.call_and_wait(client, target, function.clone(), vec![]);
            completion.result.expect("timed call succeeds");
            total += completion.elapsed.as_secs_f64();
        }
        total / n as f64
    }

    /// Lets the simulation run for a span of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        self.sim.run_for(d);
    }

    /// Respawns the host daemon of a restarted node: a fresh [`HostObject`]
    /// with the node's original identity and an empty (cold) component
    /// cache, re-registered with the binding agent. Call after
    /// `sim.restart_node(node)` — a crash kills the daemon along with every
    /// other actor on the node, and nothing placed there works until it is
    /// back.
    pub fn revive_host(&mut self, node: NodeId) -> ActorId {
        let idx = self
            .nodes
            .iter()
            .position(|n| *n == node)
            .expect("node in testbed");
        let (object, host_id, arch) = self.host_meta[idx];
        let actor = self
            .sim
            .spawn(node, HostObject::new(object, host_id, node, arch));
        self.register(object, actor);
        self.hosts[idx] = actor;
        actor
    }
}

/// A monolithic class object spawned on a testbed, plus the client that
/// drives it: the one way to stand up the normal-object baseline. (A class
/// that parks state in a vault is built with [`ClassObject::with_vault`].)
#[derive(Debug, Clone, Copy)]
pub struct Class {
    /// The class object's identity.
    pub object: ObjectId,
    /// The client that issues every control operation below.
    pub driver: ActorId,
}

impl Class {
    /// Spawns a class object managing `image`, then its driver client, both
    /// on node 0.
    pub fn spawn(bed: &mut Testbed, image: ExecutableImage) -> Class {
        let object = bed.fresh_object_id();
        let class = ClassObject::new(
            object,
            ClassId::from_raw(1),
            image,
            bed.cost.clone(),
            bed.agent,
        );
        let actor = bed.sim.spawn(bed.nodes[0], class);
        bed.register(object, actor);
        let (_, driver) = bed.spawn_client(bed.nodes[0]);
        Class { object, driver }
    }

    /// Sends one control operation to the class from the driver and waits
    /// for the reply.
    pub fn control(&self, bed: &mut Testbed, op: ControlOp) -> RpcCompletion {
        bed.control_and_wait(self.driver, self.object, op)
    }

    /// Creates an instance on `node`, returning its identity.
    ///
    /// # Panics
    ///
    /// Panics if the class refuses.
    pub fn create(&self, bed: &mut Testbed, node: NodeId) -> ObjectId {
        self.control(bed, ControlOp::new(CreateInstance { node }))
            .result
            .expect("creation succeeds")
            .control_as::<InstanceCreated>()
            .expect("instance-created reply")
            .object
    }

    /// Replaces `object`'s executable: makes `image` current, then evolves
    /// `object` to it, returning the evolve's completion.
    ///
    /// # Panics
    ///
    /// Panics if the class refuses the image.
    pub fn replace(
        &self,
        bed: &mut Testbed,
        object: ObjectId,
        image: ExecutableImage,
    ) -> RpcCompletion {
        self.control(bed, ControlOp::new(SetCurrentImage { image }))
            .result
            .expect("image set");
        self.control(bed, ControlOp::new(EvolveInstance { object }))
    }
}
