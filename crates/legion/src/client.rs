//! A scriptable client object.
//!
//! Drivers (tests, benches, examples) use [`ClientObject`] to issue
//! invocations and control operations from "user" objects and collect the
//! completions, including the binding-discovery statistics the experiments
//! measure.

use dcdo_sim::{Actor, ActorId, Ctx};
use dcdo_types::{CallId, FunctionName, ObjectId};
use dcdo_vm::Value;

use crate::cost::CostModel;
use crate::msg::{ControlOp, Msg};
use crate::rpc::{AgentAddress, Handled, RpcClient, RpcCompletion};

/// A client: a Legion object that only makes calls.
pub struct ClientObject {
    object: ObjectId,
    rpc: RpcClient,
    completions: Vec<RpcCompletion>,
}

impl ClientObject {
    /// Creates a client resolving names through `agent`.
    pub fn new(object: ObjectId, agent: AgentAddress, cost: CostModel) -> Self {
        ClientObject {
            object,
            rpc: RpcClient::new(agent, cost),
            completions: Vec::new(),
        }
    }

    /// The client's object identity.
    pub fn object_id(&self) -> ObjectId {
        self.object
    }

    /// Issues a user-level invocation (driver-side via
    /// [`Simulation::with_actor`](dcdo_sim::Simulation::with_actor)).
    pub fn call(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        target: ObjectId,
        function: impl Into<FunctionName>,
        args: Vec<Value>,
    ) -> CallId {
        self.rpc.invoke(ctx, target, function, args)
    }

    /// Issues a control operation.
    pub fn control_op(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        target: ObjectId,
        op: ControlOp,
    ) -> CallId {
        self.rpc.control(ctx, target, op)
    }

    /// Pre-seeds the client's binding cache (models a previously used
    /// binding — the precondition of the stale-binding experiment).
    pub fn seed_binding(&mut self, object: ObjectId, address: ActorId) {
        self.rpc.seed_binding(object, address);
    }

    /// Returns the cached binding, if any.
    pub fn cached_binding(&self, object: ObjectId) -> Option<ActorId> {
        self.rpc.cached_binding(object)
    }

    /// Completions collected so far, in completion order.
    pub fn completions(&self) -> &[RpcCompletion] {
        &self.completions
    }

    /// Finds a completion by call id.
    pub fn completion(&self, call: CallId) -> Option<&RpcCompletion> {
        self.completions.iter().find(|c| c.call == call)
    }

    /// Removes and returns the completion for `call`, if it has arrived.
    pub fn take_completion(&mut self, call: CallId) -> Option<RpcCompletion> {
        let idx = self.completions.iter().position(|c| c.call == call)?;
        Some(self.completions.remove(idx))
    }

    /// Calls still in flight.
    pub fn in_flight(&self) -> usize {
        self.rpc.in_flight()
    }
}

impl Actor<Msg> for ClientObject {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: ActorId, msg: Msg) {
        if let Handled::Completed(completion) = self.rpc.handle_message(ctx, msg) {
            self.completions.push(completion);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        if self.rpc.owns_timer(token) {
            if let Some(completion) = self.rpc.handle_timer(ctx, token) {
                self.completions.push(completion);
            }
        }
    }

    fn name(&self) -> &str {
        "client"
    }
}

impl std::fmt::Debug for ClientObject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientObject")
            .field("object", &self.object)
            .field("completions", &self.completions.len())
            .field("in_flight", &self.rpc.in_flight())
            .finish()
    }
}
