//! Class objects: Legion's managers for normal (monolithic) objects.
//!
//! A class object holds the executable images for its type and drives the
//! heavyweight lifecycle pipelines the paper measures in §4. Process
//! creation costs `0.2 s + 4 ms × functions`; evolve is E6's baseline, and
//! it kills the old physical address, so clients pay the 25–35 s
//! stale-binding discovery on their next call.
//!
//! # Pipelines
//!
//! Every lifecycle operation is a fixed sequence of steps declared in one
//! table (`OpKind::plan`) and walked by one interpreter: `start` admits the
//! operation, `enter_step` issues the current step's action (the only place
//! each action is built), a reply or timer moves the operation on through
//! `advance`, and `finish_op` records the outcome:
//!
//! | kind              | steps                                                                                              | version   | finishing records                     |
//! |-------------------|----------------------------------------------------------------------------------------------------|-----------|---------------------------------------|
//! | Create            | Download → Spawn → Register                                                                        | current   | new instance; `InstanceCreated`       |
//! | Evolve, Migrate   | Capture → CaptureCost → SaveVault → Download → Deactivate → Spawn → LoadVault → RestoreCost → Restore → Register | Evolve: current; Migrate: its own | node and version; `LifecycleDone` |
//! | Checkpoint        | Capture → CaptureCost → SaveVault                                                                  | its own   | nothing (the vault holds the snapshot); `CheckpointDone` |
//! | Reactivate        | Download → Spawn → LoadVault → RestoreCost → Restore → Register                                    | its own   | node and version; `LifecycleDone`     |
//!
//! One skip rule drops a step that does not apply: Download when the target
//! host already holds the executable, SaveVault when the class has no vault,
//! and LoadVault when it has none or the state is still held. Download,
//! Spawn and the two cost steps are timers; every other step is one RPC.
//! A step that fails aborts the operation with a refusal.
//!
//! One admission check (`admit`) stands in front of every operation on an
//! existing instance; a refused request starts nothing and sends no
//! `Progress`:
//!
//! | kind                   | instance must be | also             |
//! |------------------------|------------------|------------------|
//! | Create                 | (none yet)       |                  |
//! | Evolve, Migrate        | known            |                  |
//! | Checkpoint, Reactivate | known            | vault configured |

use bytes::Bytes;
use dcdo_sim::{Actor, ActorId, Ctx, IdMap, IdSet, NodeId, SimDuration, SimTime};
use dcdo_types::{CallId, ClassId, ObjectId};

use crate::binding::RegisterBinding;
use crate::control_payload;
use crate::cost::CostModel;
use crate::monolithic::{
    CaptureState, Deactivate, ExecutableImage, MonolithicObject, RestoreState, StateBlob,
};
use crate::msg::{ControlOp, InvocationFault, Msg};
use crate::rpc::{AgentAddress, Handled, RpcClient, RpcCompletion};
use crate::vault::{LoadState, LoadedState, SaveState};

/// Control op: create a new instance on `node`.
#[derive(Debug, Clone)]
pub struct CreateInstance {
    /// The node to place the instance on.
    pub node: NodeId,
}

control_payload!(CreateInstance, "create-instance");

/// Control reply: an instance was created.
#[derive(Debug, Clone)]
pub struct InstanceCreated {
    /// The new object's identity.
    pub object: ObjectId,
    /// Its physical address.
    pub address: ActorId,
    /// The image version it runs.
    pub version: u32,
}

control_payload!(InstanceCreated, "instance-created");

/// Control op: install a new executable image and make it current.
#[derive(Debug, Clone)]
pub struct SetCurrentImage {
    /// The new image. Its version must be fresh for this class.
    pub image: ExecutableImage,
}

control_payload!(
    SetCurrentImage,
    "set-current-image",
    wire_size = |op| { 64 + op.image.size_bytes() }
);

/// Control op: evolve an instance to the class's current image (the full
/// monolithic replacement pipeline).
#[derive(Debug, Clone)]
pub struct EvolveInstance {
    /// The instance to evolve.
    pub object: ObjectId,
}

control_payload!(EvolveInstance, "evolve-instance");

/// Control op: migrate an instance to another node at its current version.
#[derive(Debug, Clone)]
pub struct MigrateInstance {
    /// The instance to migrate.
    pub object: ObjectId,
    /// The destination node.
    pub to: NodeId,
}

control_payload!(MigrateInstance, "migrate-instance");

/// Control op: capture an instance's state and park a snapshot in the
/// class's vault, leaving the running process untouched. The snapshot is
/// what [`ReactivateInstance`] restores from after a crash.
#[derive(Debug, Clone)]
pub struct CheckpointInstance {
    /// The instance to checkpoint.
    pub object: ObjectId,
}

control_payload!(CheckpointInstance, "checkpoint-instance");

/// Control reply: a checkpoint was parked in the vault.
#[derive(Debug, Clone)]
pub struct CheckpointDone {
    /// The instance checkpointed.
    pub object: ObjectId,
}

control_payload!(CheckpointDone, "checkpoint-done");

/// Control op: bring a crashed instance back up on `node` from its vault
/// snapshot — download the executable if needed, spawn a fresh process,
/// restore the parked state, and re-register the binding. Requires the
/// class to be configured [`with_vault`](ClassObject::with_vault) and a
/// snapshot to exist (from a [`CheckpointInstance`] or an earlier
/// vault-mediated evolve/migrate).
#[derive(Debug, Clone)]
pub struct ReactivateInstance {
    /// The instance to bring back.
    pub object: ObjectId,
    /// The node to respawn it on (often the restarted host).
    pub node: NodeId,
}

control_payload!(ReactivateInstance, "reactivate-instance");

/// Control reply: an evolve/migrate pipeline finished.
#[derive(Debug, Clone)]
pub struct LifecycleDone {
    /// The instance operated on.
    pub object: ObjectId,
    /// Its (possibly new) physical address.
    pub address: ActorId,
    /// The image version it now runs.
    pub version: u32,
}

control_payload!(LifecycleDone, "lifecycle-done");

/// Control op: list the instances this class manages.
#[derive(Debug, Clone)]
pub struct ListInstances;

control_payload!(ListInstances, "list-instances");

/// Control reply to [`ListInstances`].
#[derive(Debug, Clone)]
pub struct InstanceTable {
    /// `(object, node, image version)` per instance.
    pub entries: Vec<(ObjectId, NodeId, u32)>,
}

control_payload!(InstanceTable, "instance-table");

#[derive(Debug, Clone, Copy)]
struct Instance {
    node: NodeId,
    version: u32,
}

/// One step of a lifecycle pipeline. Download, Spawn (the new process
/// exists once its timer fires), CaptureCost and RestoreCost wait out a
/// delay; every other step is one RPC, and the state Capture and LoadVault
/// return is kept for the steps after them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Capture,
    CaptureCost,
    SaveVault,
    Download,
    Deactivate,
    Spawn,
    LoadVault,
    RestoreCost,
    Restore,
    Register,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Create,
    Evolve,
    Migrate,
    Checkpoint,
    Reactivate,
}

/// The declared shape of one kind of operation: a row of the module docs'
/// pipeline and admission tables.
struct Plan {
    /// The steps, walked in order.
    steps: &'static [Step],
    /// What the operation needs the vault for; without one it is refused.
    vault_use: Option<&'static str>,
    /// Counter bumped when the operation is admitted.
    counter: Option<&'static str>,
    /// Histogram sampled with the operation's duration when it finishes.
    timer: &'static str,
}

impl OpKind {
    const fn plan(self) -> Plan {
        use Step::{
            Capture, CaptureCost, Deactivate, Download, LoadVault, Register, Restore, RestoreCost,
            SaveVault, Spawn,
        };
        const REPLACE: &[Step] = &[
            Capture,
            CaptureCost,
            SaveVault,
            Download,
            Deactivate,
            Spawn,
            LoadVault,
            RestoreCost,
            Restore,
            Register,
        ];
        match self {
            OpKind::Create => Plan {
                steps: &[Download, Spawn, Register],
                vault_use: None,
                counter: None,
                timer: "class.create_time",
            },
            OpKind::Evolve => Plan {
                steps: REPLACE,
                vault_use: None,
                counter: None,
                timer: "class.evolve_time",
            },
            OpKind::Migrate => Plan {
                steps: REPLACE,
                vault_use: None,
                counter: None,
                timer: "class.migrate_time",
            },
            OpKind::Checkpoint => Plan {
                steps: &[Capture, CaptureCost, SaveVault],
                vault_use: Some("checkpoint into"),
                counter: None,
                timer: "class.checkpoint_time",
            },
            OpKind::Reactivate => Plan {
                steps: &[Download, Spawn, LoadVault, RestoreCost, Restore, Register],
                vault_use: Some("reactivate from"),
                counter: Some("class.reactivations_started"),
                timer: "class.reactivate_time",
            },
        }
    }
}

struct PendingOp {
    kind: OpKind,
    reply_to: ActorId,
    call: CallId,
    started: SimTime,
    object: ObjectId,
    target_node: NodeId,
    target_version: u32,
    /// The captured (or reloaded) state, while the class holds it.
    state: Option<Bytes>,
    new_actor: Option<ActorId>,
    /// Index of the current step in the plan.
    at: usize,
}

impl PendingOp {
    fn step(&self) -> Option<Step> {
        self.kind.plan().steps.get(self.at).copied()
    }
}

/// The class object for a type of monolithic Legion objects.
pub struct ClassObject {
    object: ObjectId,
    class: ClassId,
    cost: CostModel,
    agent: AgentAddress,
    rpc: RpcClient,
    vault: Option<ObjectId>,
    images: IdMap<u32, ExecutableImage>,
    current_version: u32,
    instances: IdMap<ObjectId, Instance>,
    downloaded: IdSet<(NodeId, u32)>,
    ops: IdMap<u64, PendingOp>,
    timer_routes: IdMap<u64, u64>,
    rpc_routes: IdMap<u64, u64>,
}

impl ClassObject {
    /// Creates a class object managing instances of `initial` image.
    pub fn new(
        object: ObjectId,
        class: ClassId,
        initial: ExecutableImage,
        cost: CostModel,
        agent: AgentAddress,
    ) -> Self {
        let current_version = initial.version();
        let mut images = IdMap::default();
        images.insert(current_version, initial);
        ClassObject {
            object,
            class,
            rpc: RpcClient::new(agent, cost.clone()),
            cost,
            agent,
            vault: None,
            images,
            current_version,
            instances: IdMap::default(),
            downloaded: IdSet::default(),
            ops: IdMap::default(),
            timer_routes: IdMap::default(),
            rpc_routes: IdMap::default(),
        }
    }

    /// Parks captured state in `vault` during evolution and migration
    /// (Legion's persistent-state path) instead of holding it in the class
    /// object's memory. Adds two vault round-trips (the state blob crosses
    /// the network twice more) to each lifecycle pipeline.
    pub fn with_vault(mut self, vault: ObjectId) -> Self {
        self.vault = Some(vault);
        self
    }

    /// The class object's own identity.
    pub fn object_id(&self) -> ObjectId {
        self.object
    }

    /// The class managed.
    pub fn class_id(&self) -> ClassId {
        self.class
    }

    /// The current image version.
    pub fn current_version(&self) -> u32 {
        self.current_version
    }

    /// Instances currently managed: `(object, node, version)`.
    pub fn instances(&self) -> Vec<(ObjectId, NodeId, u32)> {
        self.instances
            .iter()
            .map(|(o, i)| (*o, i.node, i.version))
            .collect()
    }

    /// Lifecycle operations still in flight.
    pub fn ops_in_flight(&self) -> usize {
        self.ops.len()
    }

    /// Forgets that executables were ever downloaded to `node` — call when
    /// a host crashes, since its local store is gone and the next spawn
    /// there must pay the transfer again.
    pub fn forget_downloads(&mut self, node: NodeId) {
        self.downloaded.retain(|(n, _)| *n != node);
    }

    fn schedule_step(&mut self, ctx: &mut Ctx<'_, Msg>, op_id: u64, after: SimDuration) {
        let token = ctx.fresh_u64();
        self.timer_routes.insert(token, op_id);
        ctx.schedule_timer(after, token);
    }

    fn rpc_step(&mut self, ctx: &mut Ctx<'_, Msg>, op_id: u64, target: ObjectId, op: ControlOp) {
        let call = self.rpc.control(ctx, target, op);
        self.rpc_routes.insert(call.as_raw(), op_id);
    }

    fn fail_op(&mut self, ctx: &mut Ctx<'_, Msg>, op_id: u64, why: String) {
        if let Some(op) = self.ops.remove(&op_id) {
            ctx.metrics().incr("class.ops_failed");
            ctx.send(op.reply_to, Msg::refused(op.call, why));
        }
    }

    /// The instance an operation works on (`None` for a create), or why
    /// the operation is refused.
    fn admit(&self, plan: &Plan, object: Option<ObjectId>) -> Result<Option<Instance>, String> {
        if let (Some(what), None) = (plan.vault_use, self.vault) {
            return Err(format!("class has no vault to {what}"));
        }
        object
            .map(|object| {
                self.instances
                    .get(&object)
                    .copied()
                    .ok_or_else(|| format!("unknown instance {object}"))
            })
            .transpose()
    }

    /// Admits and starts an operation of `kind` on `object` (a create
    /// names none and mints it), placing the result on `node` (default:
    /// where the instance runs).
    fn start(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        kind: OpKind,
        reply_to: ActorId,
        call: CallId,
        object: Option<ObjectId>,
        node: Option<NodeId>,
    ) {
        let plan = kind.plan();
        let instance = match self.admit(&plan, object) {
            Ok(instance) => instance,
            Err(why) => return ctx.send(reply_to, Msg::refused(call, why)),
        };
        ctx.send(reply_to, Msg::Progress { call });
        if let Some(counter) = plan.counter {
            ctx.metrics().incr(counter);
        }
        let op_id = ctx.fresh_u64();
        let object = object.unwrap_or_else(|| ObjectId::from_raw(ctx.fresh_u64()));
        let target_version = match instance {
            Some(i) if kind != OpKind::Evolve => i.version,
            _ => self.current_version,
        };
        let op = PendingOp {
            kind,
            reply_to,
            call,
            started: ctx.now(),
            object,
            target_node: node
                .or(instance.map(|i| i.node))
                .expect("a create names its node"),
            target_version,
            state: None,
            new_actor: None,
            at: 0,
        };
        self.ops.insert(op_id, op);
        self.enter_step(ctx, op_id);
    }

    /// Whether `step` does not apply to `op` (the skip rule).
    fn skips(&self, op: &PendingOp, step: Step) -> bool {
        match step {
            Step::Download => self
                .downloaded
                .contains(&(op.target_node, op.target_version)),
            Step::SaveVault => self.vault.is_none(),
            Step::LoadVault => self.vault.is_none() || op.state.is_some(),
            _ => false,
        }
    }

    /// Issues the action of the operation's current step — the single
    /// place each step's action is built — after skipping the steps that
    /// do not apply; finishes the operation after its last step.
    fn enter_step(&mut self, ctx: &mut Ctx<'_, Msg>, op_id: u64) {
        let step = loop {
            let op = &self.ops[&op_id];
            match op.step() {
                None => return self.finish_op(ctx, op_id),
                Some(step) if self.skips(op, step) => {
                    self.ops.get_mut(&op_id).expect("op exists").at += 1;
                }
                Some(step) => break step,
            }
        };
        let op = self.ops.get_mut(&op_id).expect("op exists");
        let object = op.object;
        let vault = || self.vault.expect("the skip rule checked the vault");
        let (target, action) = match step {
            Step::Capture => (object, ControlOp::new(CaptureState)),
            Step::CaptureCost => {
                let bytes = op.state.as_ref().expect("state captured").len() as u64;
                let delay = self.cost.state_capture(bytes);
                return self.schedule_step(ctx, op_id, delay);
            }
            Step::SaveVault => {
                let bytes = op.state.take().expect("state captured");
                let save = SaveState {
                    owner: object,
                    bytes,
                };
                (vault(), ControlOp::new(save))
            }
            Step::Download => {
                let size = self.images[&op.target_version].size_bytes();
                let delay = self.cost.transfer.transfer_time(size);
                ctx.metrics().incr("class.executable_downloads");
                ctx.metrics()
                    .sample_duration("class.executable_download_time", delay);
                return self.schedule_step(ctx, op_id, delay);
            }
            Step::Deactivate => (object, ControlOp::new(Deactivate)),
            Step::Spawn => {
                let functions = self.images[&op.target_version].functions().len();
                let delay = self.cost.process_creation(functions);
                return self.schedule_step(ctx, op_id, delay);
            }
            Step::RestoreCost => {
                let bytes = op.state.as_ref().expect("state held").len() as u64;
                let delay = self.cost.state_restore(bytes);
                return self.schedule_step(ctx, op_id, delay);
            }
            Step::LoadVault => (vault(), ControlOp::new(LoadState { owner: object })),
            Step::Restore => {
                // The new process has no binding yet; address it directly
                // by seeding the rpc cache with the fresh actor.
                let bytes = op.state.clone().expect("state held");
                self.rpc
                    .seed_binding(object, op.new_actor.expect("spawned"));
                (object, ControlOp::new(RestoreState { bytes }))
            }
            Step::Register => {
                let address = op.new_actor.expect("spawned");
                let register = RegisterBinding { object, address };
                (self.agent.object, ControlOp::new(register))
            }
        };
        self.rpc_step(ctx, op_id, target, action);
    }

    /// The operation's current step is done: moves on to the next.
    fn advance(&mut self, ctx: &mut Ctx<'_, Msg>, op_id: u64) {
        self.ops.get_mut(&op_id).expect("op exists").at += 1;
        self.enter_step(ctx, op_id);
    }

    /// The last step of the plan is done: records the outcome (see the
    /// module docs' pipeline table), times it, and answers the caller.
    fn finish_op(&mut self, ctx: &mut Ctx<'_, Msg>, op_id: u64) {
        let op = self.ops.remove(&op_id).expect("op exists");
        let elapsed = ctx.now().duration_since(op.started);
        ctx.metrics().sample_duration(op.kind.plan().timer, elapsed);
        let (object, version) = (op.object, op.target_version);
        let reply = match op.new_actor {
            // Only a checkpoint spawns nothing.
            None => Msg::control_ok(op.call, CheckpointDone { object }),
            Some(address) => {
                let node = op.target_node;
                self.instances.insert(object, Instance { node, version });
                if op.kind == OpKind::Create {
                    let created = InstanceCreated {
                        object,
                        address,
                        version,
                    };
                    Msg::control_ok(op.call, created)
                } else {
                    let done = LifecycleDone {
                        object,
                        address,
                        version,
                    };
                    Msg::control_ok(op.call, done)
                }
            }
        };
        ctx.send(op.reply_to, reply);
    }

    /// An RPC step's reply arrived: keeps the state a Capture or LoadVault
    /// returned, then advances (or fails the operation).
    fn handle_rpc_completion(&mut self, ctx: &mut Ctx<'_, Msg>, completion: RpcCompletion) {
        let Some(op_id) = self.rpc_routes.remove(&completion.call.as_raw()) else {
            return;
        };
        let Some(step) = self.ops.get(&op_id).and_then(PendingOp::step) else {
            return;
        };
        let state = completion
            .result
            .map_err(|fault| format!("step {step:?} failed: {fault}"))
            .and_then(|payload| match step {
                Step::Capture => payload
                    .control_as::<StateBlob>()
                    .map(|b| Some(b.bytes.clone()))
                    .ok_or_else(|| "capture returned no state".to_string()),
                Step::LoadVault => payload
                    .control_as::<LoadedState>()
                    .and_then(|l| l.bytes.clone())
                    .map(Some)
                    .ok_or_else(|| "vault lost the parked state".to_string()),
                _ => Ok(None),
            });
        match state {
            Err(why) => self.fail_op(ctx, op_id, why),
            Ok(state) => {
                if state.is_some() {
                    self.ops.get_mut(&op_id).expect("op exists").state = state;
                }
                self.advance(ctx, op_id);
            }
        }
    }

    /// A timer step's delay is over: the download lands or the process is
    /// created (the Spawn step's new process), then the operation advances.
    fn handle_step_timer(&mut self, ctx: &mut Ctx<'_, Msg>, op_id: u64) {
        let Some(op) = self.ops.get(&op_id) else {
            return;
        };
        match op.step() {
            Some(Step::Download) => {
                self.downloaded.insert((op.target_node, op.target_version));
            }
            Some(Step::Spawn) => {
                let image = &self.images[&op.target_version];
                let rpc = RpcClient::new(self.agent, self.cost.clone());
                let process = MonolithicObject::new(op.object, image, &self.cost, rpc);
                let actor = ctx.spawn(op.target_node, Box::new(process));
                ctx.metrics().incr("class.processes_created");
                self.ops.get_mut(&op_id).expect("op exists").new_actor = Some(actor);
            }
            _ => {}
        }
        self.advance(ctx, op_id);
    }
}

impl Actor<Msg> for ClassObject {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
        match msg {
            Msg::Control { call, target, op } => {
                if target != self.object {
                    ctx.send(
                        from,
                        Msg::refused(call, InvocationFault::NoSuchObject(target)),
                    );
                    return;
                }
                let any = op.as_any();
                let (kind, object, node) = if let Some(c) = any.downcast_ref::<CreateInstance>() {
                    (OpKind::Create, None, Some(c.node))
                } else if let Some(e) = any.downcast_ref::<EvolveInstance>() {
                    (OpKind::Evolve, Some(e.object), None)
                } else if let Some(m) = any.downcast_ref::<MigrateInstance>() {
                    (OpKind::Migrate, Some(m.object), Some(m.to))
                } else if let Some(c) = any.downcast_ref::<CheckpointInstance>() {
                    (OpKind::Checkpoint, Some(c.object), None)
                } else if let Some(r) = any.downcast_ref::<ReactivateInstance>() {
                    (OpKind::Reactivate, Some(r.object), Some(r.node))
                } else {
                    let reply = if let Some(set) = any.downcast_ref::<SetCurrentImage>() {
                        let version = set.image.version();
                        self.images.insert(version, set.image.clone());
                        self.current_version = version;
                        Msg::control_ok(call, crate::msg::Ack)
                    } else if any.downcast_ref::<ListInstances>().is_some() {
                        let entries = self.instances();
                        Msg::control_ok(call, InstanceTable { entries })
                    } else {
                        let why = format!("class object does not understand {}", op.describe());
                        Msg::refused(call, why)
                    };
                    return ctx.send(from, reply);
                };
                self.start(ctx, kind, from, call, object, node);
            }
            Msg::Invoke { call, function, .. } => {
                ctx.send(
                    from,
                    Msg::Reply {
                        call,
                        result: Err(InvocationFault::NoSuchFunction(function)),
                    },
                );
            }
            reply => {
                if let Handled::Completed(completion) = self.rpc.handle_message(ctx, reply) {
                    self.handle_rpc_completion(ctx, completion);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        if self.rpc.owns_timer(token) {
            if let Some(completion) = self.rpc.handle_timer(ctx, token) {
                self.handle_rpc_completion(ctx, completion);
            }
            return;
        }
        if let Some(op_id) = self.timer_routes.remove(&token) {
            self.handle_step_timer(ctx, op_id);
        }
    }

    fn name(&self) -> &str {
        "class-object"
    }
}

impl std::fmt::Debug for ClassObject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClassObject")
            .field("object", &self.object)
            .field("class", &self.class)
            .field("current_version", &self.current_version)
            .field("instances", &self.instances.len())
            .field("ops_in_flight", &self.ops.len())
            .finish()
    }
}
