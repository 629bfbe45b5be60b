//! Step plans: the one driver behind the class object's, the DCDO
//! Manager's and the DCDO's multi-step operations (DESIGN.md §2.4).
//!
//! An owner declares each kind of operation as a [`Kind`], admits requests
//! and supplies the per-step hooks of [`PlanOwner`]; the driver answers the
//! admission, holds the in-flight table and the route map of the calls and
//! timers flows wait on, walks each flow past the steps the owner's skip
//! rule drops, and leaves its `FlowStarted`, `FlowStep`, `FlowCompleted`
//! and `FlowAborted` spans, the one record of a flow's timing. [`Step`] is
//! the lifecycle vocabulary class objects and DCDO Managers share, with the
//! steps both take built here.

use bytes::Bytes;
use dcdo_sim::{mgr_step, ActorId, Ctx, FlowKind, IdMap, SimDuration, SpanKind};
use dcdo_types::{CallId, ObjectId};

use crate::binding::RegisterBinding;
use crate::msg::{ControlOp, InvocationFault, Msg};
use crate::object::{CaptureState, Deactivate, RestoreState, StateBlob};
use crate::rpc::{AgentAddress, ReplyPayload, RpcCompletion};
use crate::vault::{LoadState, LoadedState, SaveState};

/// One kind of planned operation: a declared sequence of steps.
pub trait Kind: Copy {
    /// The owner's step vocabulary; a step's `u32` is its wire-stable
    /// `FlowStep` code.
    type Step: Copy + Into<u32>;
    /// The flow's kind in the span log.
    fn trace(self) -> FlowKind;
    /// The step at position `at` of the plan; `None` past the last.
    fn step(self, at: usize) -> Option<Self::Step>;
    /// Whether the first step leaves a `FlowStep` span (otherwise
    /// `FlowStarted` implies it).
    fn marks_first(self) -> bool {
        true
    }
}

/// What an entered step does.
#[derive(Debug)]
pub enum Action {
    /// Sent one control op (this call); the step ends with its reply.
    Rpc(CallId),
    /// Waits; the step ends when the delay is over.
    Timer(SimDuration),
    /// Waits, then enters the same step again.
    Recheck(SimDuration),
    /// Nothing to wait for: the step is done.
    Done,
}

/// One operation in flight.
#[derive(Debug)]
pub struct Flow<K, D> {
    /// Its kind (and so its plan).
    pub kind: K,
    /// The object it works on.
    pub object: ObjectId,
    /// Who waits for the outcome, if anyone.
    pub reply: Option<(ActorId, CallId)>,
    /// The owner's per-flow state.
    pub data: D,
    at: usize,
}

impl<K: Kind, D> Flow<K, D> {
    /// The flow's position in its plan.
    pub fn at(&self) -> usize {
        self.at
    }

    /// The step the flow is at; `None` once past the last.
    pub fn step(&self) -> Option<K::Step> {
        self.kind.step(self.at)
    }
}

/// The in-flight table and the route map of one owner's flows.
#[derive(Debug)]
pub struct Plans<K, D> {
    flows: IdMap<u64, Flow<K, D>>,
    /// RPC call id or timer token → (flow, whether it re-enters its step).
    routes: IdMap<u64, (u64, bool)>,
}

impl<K, D> Default for Plans<K, D> {
    fn default() -> Self {
        Plans {
            flows: IdMap::default(),
            routes: IdMap::default(),
        }
    }
}

impl<K, D> Plans<K, D> {
    /// Flows in flight.
    pub fn in_flight(&self) -> usize {
        self.flows.len()
    }

    /// The flows in flight, by id (in no particular order).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Flow<K, D>)> {
        self.flows.iter().map(|(id, flow)| (*id, flow))
    }
}

/// How an RPC step ended.
pub type Reply = Result<ReplyPayload, InvocationFault>;

/// An actor whose operations of kinds `K`, each holding a `D`, the plan
/// driver walks: it supplies the per-step hooks, and the provided methods
/// are the driver.
pub trait PlanOwner<K: Kind, D>: Sized {
    /// Why a request was refused or a step failed.
    type Error: Into<InvocationFault>;

    /// The owner's in-flight table.
    fn plans(&mut self) -> &mut Plans<K, D>;
    /// The skip rule: `true` when `step` does not apply to `flow`, and the
    /// walk drops it.
    fn skip(&self, flow: &Flow<K, D>, step: K::Step) -> bool;
    /// The entered step's action: the only place it is built (an RPC step
    /// sends its op here).
    fn action(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        flow: &mut Flow<K, D>,
        step: K::Step,
    ) -> Result<Action, Self::Error>;
    /// The step ended: an RPC step with its `reply`, a timer step with none.
    fn done(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        flow: &mut Flow<K, D>,
        step: K::Step,
        reply: Option<Reply>,
    ) -> Result<(), Self::Error>;
    /// The last step is done (`FlowCompleted` is already left).
    fn finish(&mut self, ctx: &mut Ctx<'_, Msg>, flow: Flow<K, D>);
    /// A step failed (`FlowAborted` is already left).
    fn fail(&mut self, ctx: &mut Ctx<'_, Msg>, flow: Flow<K, D>, why: Self::Error);

    /// Opens a flow of `kind` on `object` (`None`: mint a new object id)
    /// with the data the owner's admission handed back, and enters its
    /// first step. A refused request opens no flow and sends no `Progress`.
    fn open_flow(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        kind: K,
        reply: Option<(ActorId, CallId)>,
        object: Option<ObjectId>,
        admitted: Result<D, Self::Error>,
    ) {
        let data = match admitted {
            Ok(data) => data,
            Err(why) => return answer(ctx, reply, |call| Msg::refused(call, why)),
        };
        answer(ctx, reply, |call| Msg::Progress { call });
        let id = ctx.fresh_u64();
        let object = object.unwrap_or_else(|| ObjectId::from_raw(ctx.fresh_u64()));
        let (raw, trace) = (object.as_raw(), kind.trace());
        ctx.emit_span(SpanKind::FlowStarted {
            flow: id,
            object: raw,
            kind: trace,
        });
        let flow = Flow {
            kind,
            object,
            reply,
            data,
            at: 0,
        };
        self.walk(ctx, id, flow);
    }

    /// Enters the flow's current step, past the steps the skip rule drops,
    /// and issues its action; finishes the flow after its last step.
    fn walk(&mut self, ctx: &mut Ctx<'_, Msg>, id: u64, mut flow: Flow<K, D>) {
        let step = loop {
            let Some(step) = flow.step() else {
                ctx.emit_span(SpanKind::FlowCompleted { flow: id });
                return self.finish(ctx, flow);
            };
            if !self.skip(&flow, step) {
                break step;
            }
            flow.at += 1;
        };
        if flow.at > 0 || flow.kind.marks_first() {
            let step = step.into();
            ctx.emit_span(SpanKind::FlowStep { flow: id, step });
        }
        let route = match self.action(ctx, &mut flow, step) {
            Err(why) => return self.fail_flow(ctx, id, flow, why),
            Ok(Action::Done) => {
                flow.at += 1;
                return self.walk(ctx, id, flow);
            }
            Ok(Action::Rpc(call)) => (call.as_raw(), false),
            Ok(Action::Timer(delay)) => (timer(ctx, delay), false),
            Ok(Action::Recheck(delay)) => (timer(ctx, delay), true),
        };
        self.plans().routes.insert(route.0, (id, route.1));
        self.plans().flows.insert(id, flow);
    }

    /// The call or timer `route` a flow waits on came in: the flow re-enters
    /// its step (a recheck), or the step ends and the flow moves on or fails.
    fn end_step(&mut self, ctx: &mut Ctx<'_, Msg>, route: u64, reply: Option<Reply>) {
        let (id, recheck) = self.plans().routes.remove(&route).expect("routed");
        let Some(mut flow) = self.plans().flows.remove(&id) else {
            return;
        };
        if recheck {
            return self.walk(ctx, id, flow);
        }
        let step = flow.step().expect("a waiting flow is at a step");
        match self.done(ctx, &mut flow, step, reply) {
            Ok(()) => {
                flow.at += 1;
                self.walk(ctx, id, flow);
            }
            Err(why) => self.fail_flow(ctx, id, flow, why),
        }
    }

    /// Closes a flow whose step failed.
    fn fail_flow(&mut self, ctx: &mut Ctx<'_, Msg>, id: u64, flow: Flow<K, D>, why: Self::Error) {
        ctx.emit_span(SpanKind::FlowAborted { flow: id });
        self.fail(ctx, flow, why);
    }

    /// Removes a flow that cannot go on, leaving `FlowAborted`; what the
    /// abort means is the caller's to record.
    fn abort_flow(&mut self, ctx: &mut Ctx<'_, Msg>, id: u64) -> Option<Flow<K, D>> {
        let flow = self.plans().flows.remove(&id)?;
        ctx.emit_span(SpanKind::FlowAborted { flow: id });
        Some(flow)
    }

    /// Routes an RPC completion to the flow step waiting for it; hands back
    /// a completion no flow step waits for.
    fn plan_reply(&mut self, ctx: &mut Ctx<'_, Msg>, c: RpcCompletion) -> Option<RpcCompletion> {
        if !self.plans().routes.contains_key(&c.call.as_raw()) {
            return Some(c);
        }
        self.end_step(ctx, c.call.as_raw(), Some(c.result));
        None
    }

    /// Routes a fired timer to the flow step waiting for it; `false` when
    /// the token is not a plan timer.
    fn plan_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) -> bool {
        let routed = self.plans().routes.contains_key(&token);
        if routed {
            self.end_step(ctx, token, None);
        }
        routed
    }
}

/// Schedules a timer `delay` from now and returns its token.
fn timer(ctx: &mut Ctx<'_, Msg>, delay: SimDuration) -> u64 {
    let token = ctx.fresh_u64();
    ctx.schedule_timer(delay, token);
    token
}

/// Sends `msg(call)` to whoever waits on `reply`, if anyone.
pub fn answer(
    ctx: &mut Ctx<'_, Msg>,
    reply: Option<(ActorId, CallId)>,
    msg: impl FnOnce(CallId) -> Msg,
) {
    if let Some((reply_to, call)) = reply {
        ctx.send(reply_to, msg(call));
    }
}

/// One step of a lifecycle flow, shared by class objects and DCDO
/// Managers. The discriminant is the step's wire-stable `FlowStep` code
/// ([`mgr_step`]). Spawn, Download, CaptureCost and RestoreCost are timers;
/// every other step is one RPC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum Step {
    /// Capture the running instance's state.
    Capture = mgr_step::CAPTURE,
    /// Stop the instance's process.
    Deactivate = mgr_step::DEACTIVATE,
    /// Remove the instance's binding (manager).
    Unregister = mgr_step::UNREGISTER,
    /// Create a fresh process.
    Spawn = mgr_step::SPAWN,
    /// Register the new process's address.
    Register = mgr_step::REGISTER,
    /// Apply the flow's DFM descriptor (manager).
    Apply = mgr_step::APPLY,
    /// Restore the held state into the new process.
    Restore = mgr_step::RESTORE,
    /// Park the held state in the vault.
    SaveVault = mgr_step::SAVE_VAULT,
    /// Load the instance's snapshot from the vault.
    LoadVault = mgr_step::LOAD_VAULT,
    /// Download the executable image to the target host (class).
    Download = mgr_step::DOWNLOAD,
    /// Pay for the state capture (class).
    CaptureCost = mgr_step::CAPTURE_COST,
    /// Pay for the state restore (class).
    RestoreCost = mgr_step::RESTORE_COST,
}

impl From<Step> for u32 {
    fn from(step: Step) -> u32 {
        step as u32
    }
}

/// What a lifecycle flow holds between its steps.
#[derive(Debug, Default)]
pub struct Held {
    /// The state Capture or LoadVault returned, or admission found parked.
    pub state: Option<Bytes>,
    /// The process the Spawn step created.
    pub new_actor: Option<ActorId>,
}

impl Step {
    /// The shared skip rule: SaveVault and LoadVault without a vault (the
    /// flow holds the state itself), Restore with no state to restore.
    pub fn skips(self, vault: Option<ObjectId>, held: &Held) -> bool {
        match self {
            Step::SaveVault | Step::LoadVault => vault.is_none(),
            Step::Restore => held.state.is_none(),
            _ => false,
        }
    }

    /// The op (and its target) of a step both owners take the same way;
    /// `None` for the owner's own steps.
    pub fn shared_op(
        self,
        object: ObjectId,
        held: &mut Held,
        agent: AgentAddress,
        vault: Option<ObjectId>,
    ) -> Option<(ObjectId, ControlOp)> {
        let vault = || vault.expect("admission checked the vault");
        Some(match self {
            Step::Capture => (object, ControlOp::new(CaptureState)),
            Step::Deactivate => (object, ControlOp::new(Deactivate)),
            Step::SaveVault => {
                let bytes = held.state.take().expect("state captured");
                (
                    vault(),
                    ControlOp::new(SaveState {
                        owner: object,
                        bytes,
                    }),
                )
            }
            Step::LoadVault => (vault(), ControlOp::new(LoadState { owner: object })),
            Step::Restore => {
                let bytes = held.state.clone().expect("state held");
                (object, ControlOp::new(RestoreState { bytes }))
            }
            Step::Register => {
                let address = held.new_actor.expect("spawned");
                let register = RegisterBinding { object, address };
                (agent.object, ControlOp::new(register))
            }
            _ => return None,
        })
    }

    /// Folds an RPC step's reply into `held`: the state Capture returns, and
    /// the snapshot LoadVault returns (`None` when the vault holds none).
    pub fn absorb(self, reply: Reply, held: &mut Held) -> Result<(), String> {
        let payload = reply.map_err(|fault| format!("step {self:?} failed: {fault}"))?;
        match self {
            Step::Capture => {
                let blob = payload
                    .control_as::<StateBlob>()
                    .ok_or("capture returned no state")?;
                held.state = Some(blob.bytes.clone());
            }
            Step::LoadVault => {
                held.state = payload
                    .control_as::<LoadedState>()
                    .and_then(|l| l.bytes.clone());
            }
            _ => {}
        }
        Ok(())
    }
}
