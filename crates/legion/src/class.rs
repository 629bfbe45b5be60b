//! Class objects: Legion's managers for normal (monolithic) objects.
//!
//! A class object holds the executable images for its type and drives the
//! heavyweight lifecycle pipelines the paper measures in §4:
//!
//! - **create**: download the executable to the target host (if absent),
//!   create a process (`0.2 s + 4 ms × functions`), register the binding;
//! - **evolve** (the baseline for E6): capture state → download the new
//!   executable → deactivate the old process → create a new process →
//!   restore state → re-register the binding. The old physical address dies,
//!   so clients pay the 25–35 s stale-binding discovery on their next call;
//! - **migrate**: the same pipeline at the current version onto a new host.

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
    actor: ActorId,
    node: NodeId,
    version: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Waiting for CaptureState reply from the old process.
    Capture,
    /// Waiting for the state-capture cost timer.
    CaptureCost,
    /// Waiting for the vault to acknowledge the parked state.
    SaveVault,
    /// Waiting for the vault to hand the parked state back.
    LoadVault,
    /// Waiting for the executable download timer.
    Download,
    /// Waiting for the Deactivate reply from the old process.
    Deactivate,
    /// Waiting for the process-creation timer.
    Spawn,
    /// Waiting for the state-restore cost timer.
    RestoreCost,
    /// Waiting for the RestoreState reply from the new process.
    Restore,
    /// Waiting for the binding (re-)registration reply.
    Register,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Create,
    Evolve,
    Migrate,
    /// Capture → park in vault; no process replacement.
    Checkpoint,
    /// Spawn a fresh process from the vault snapshot after a crash.
    Reactivate,
}

struct PendingOp {
    kind: OpKind,
    reply_to: ActorId,
    call: CallId,
    started: SimTime,
    object: ObjectId,
    target_node: NodeId,
    target_version: u32,
    old_actor: Option<ActorId>,
    state: Option<Bytes>,
    /// Set once state was captured (it may be parked in the vault rather
    /// than held in `state`).
    needs_restore: bool,
    new_actor: Option<ActorId>,
    step: Step,
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

    fn start_create(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        reply_to: ActorId,
        call: CallId,
        node: NodeId,
    ) {
        ctx.send(reply_to, Msg::Progress { call });
        let op_id = ctx.fresh_u64();
        let object = ObjectId::from_raw(ctx.fresh_u64());
        let version = self.current_version;
        let op = PendingOp {
            kind: OpKind::Create,
            reply_to,
            call,
            started: ctx.now(),
            object,
            target_node: node,
            target_version: version,
            old_actor: None,
            state: None,
            needs_restore: false,
            new_actor: None,
            step: Step::Download,
        };
        self.ops.insert(op_id, op);
        self.begin_download_or_spawn(ctx, op_id);
    }

    fn begin_download_or_spawn(&mut self, ctx: &mut Ctx<'_, Msg>, op_id: u64) {
        let (node, version) = {
            let op = &self.ops[&op_id];
            (op.target_node, op.target_version)
        };
        if self.downloaded.contains(&(node, version)) {
            self.after_download(ctx, op_id);
        } else {
            let size = self.images[&version].size_bytes();
            let delay = self.cost.transfer.transfer_time(size);
            ctx.metrics().incr("class.executable_downloads");
            ctx.metrics()
                .sample_duration("class.executable_download_time", delay);
            self.ops.get_mut(&op_id).expect("op exists").step = Step::Download;
            self.schedule_step(ctx, op_id, delay);
        }
    }

    /// The executable is on the target host; deactivate the old process if
    /// there is one, otherwise go straight to process creation.
    fn after_download(&mut self, ctx: &mut Ctx<'_, Msg>, op_id: u64) {
        let (kind, old, object) = {
            let op = &self.ops[&op_id];
            (op.kind, op.old_actor, op.object)
        };
        if kind == OpKind::Create || old.is_none() {
            self.begin_spawn(ctx, op_id);
        } else {
            self.ops.get_mut(&op_id).expect("op exists").step = Step::Deactivate;
            self.rpc_step(ctx, op_id, object, ControlOp::new(Deactivate));
        }
    }

    fn begin_spawn(&mut self, ctx: &mut Ctx<'_, Msg>, op_id: u64) {
        let version = self.ops[&op_id].target_version;
        let functions = self.images[&version].functions().len();
        let delay = self.cost.process_creation(functions);
        self.ops.get_mut(&op_id).expect("op exists").step = Step::Spawn;
        self.schedule_step(ctx, op_id, delay);
    }

    fn spawn_process(&mut self, ctx: &mut Ctx<'_, Msg>, op_id: u64) {
        let (object, node, version) = {
            let op = &self.ops[&op_id];
            (op.object, op.target_node, op.target_version)
        };
        let image = &self.images[&version];
        let rpc = RpcClient::new(self.agent, self.cost.clone());
        let actor = ctx.spawn(
            node,
            Box::new(MonolithicObject::new(object, image, &self.cost, rpc)),
        );
        ctx.metrics().incr("class.processes_created");
        let op = self.ops.get_mut(&op_id).expect("op exists");
        op.new_actor = Some(actor);
        if op.needs_restore {
            // Charge restore cost, then push the state into the new process
            // (loading it back from the vault first, when one is configured).
            let bytes = op.state.as_ref().map_or(4096, |s| s.len() as u64);
            op.step = Step::RestoreCost;
            let delay = self.cost.state_restore(bytes);
            self.schedule_step(ctx, op_id, delay);
        } else {
            self.begin_register(ctx, op_id);
        }
    }

    /// Pushes `state` into the freshly spawned process.
    fn begin_restore(&mut self, ctx: &mut Ctx<'_, Msg>, op_id: u64, state: Bytes) {
        let (object, new_actor) = {
            let op = self.ops.get_mut(&op_id).expect("op exists");
            op.step = Step::Restore;
            (op.object, op.new_actor.expect("spawned"))
        };
        // The new process has no binding yet; address it directly by
        // seeding the rpc cache with the fresh actor.
        self.rpc.seed_binding(object, new_actor);
        self.rpc_step(
            ctx,
            op_id,
            object,
            ControlOp::new(RestoreState { bytes: state }),
        );
    }

    fn begin_register(&mut self, ctx: &mut Ctx<'_, Msg>, op_id: u64) {
        let (object, address) = {
            let op = self.ops.get_mut(&op_id).expect("op exists");
            op.step = Step::Register;
            (op.object, op.new_actor.expect("spawned"))
        };
        self.rpc_step(
            ctx,
            op_id,
            self.agent.object,
            ControlOp::new(RegisterBinding { object, address }),
        );
    }

    fn finish_op(&mut self, ctx: &mut Ctx<'_, Msg>, op_id: u64) {
        let op = self.ops.remove(&op_id).expect("op exists");
        let address = op.new_actor.expect("spawned");
        self.downloaded.insert((op.target_node, op.target_version));
        self.instances.insert(
            op.object,
            Instance {
                actor: address,
                node: op.target_node,
                version: op.target_version,
            },
        );
        let elapsed = ctx.now().duration_since(op.started);
        let metric = match op.kind {
            OpKind::Create => "class.create_time",
            OpKind::Evolve => "class.evolve_time",
            OpKind::Migrate => "class.migrate_time",
            OpKind::Reactivate => "class.reactivate_time",
            OpKind::Checkpoint => unreachable!("checkpoints finish via finish_checkpoint"),
        };
        ctx.metrics().sample_duration(metric, elapsed);
        let (object, version) = (op.object, op.target_version);
        let reply = if op.kind == OpKind::Create {
            Msg::control_ok(
                op.call,
                InstanceCreated {
                    object,
                    address,
                    version,
                },
            )
        } else {
            Msg::control_ok(
                op.call,
                LifecycleDone {
                    object,
                    address,
                    version,
                },
            )
        };
        ctx.send(op.reply_to, reply);
    }

    /// The instance an operation works on, or why the operation is refused.
    /// `vault_use` says what a vault-backed operation needs the vault for.
    fn admit(&self, object: ObjectId, vault_use: Option<&str>) -> Result<Instance, String> {
        if let (Some(what), None) = (vault_use, self.vault) {
            return Err(format!("class has no vault to {what}"));
        }
        self.instances
            .get(&object)
            .copied()
            .ok_or_else(|| format!("unknown instance {object}"))
    }

    fn start_lifecycle(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        kind: OpKind,
        reply_to: ActorId,
        call: CallId,
        object: ObjectId,
        target_node: Option<NodeId>,
    ) {
        let vault_use = (kind == OpKind::Checkpoint).then_some("checkpoint into");
        let instance = match self.admit(object, vault_use) {
            Ok(instance) => instance,
            Err(why) => return ctx.send(reply_to, Msg::refused(call, why)),
        };
        ctx.send(reply_to, Msg::Progress { call });
        let op_id = ctx.fresh_u64();
        let target_version = match kind {
            OpKind::Evolve => self.current_version,
            _ => instance.version,
        };
        let op = PendingOp {
            kind,
            reply_to,
            call,
            started: ctx.now(),
            object,
            target_node: target_node.unwrap_or(instance.node),
            target_version,
            old_actor: Some(instance.actor),
            state: None,
            // A checkpoint leaves the running process as it is.
            needs_restore: kind != OpKind::Checkpoint,
            new_actor: None,
            step: Step::Capture,
        };
        self.ops.insert(op_id, op);
        self.rpc_step(ctx, op_id, object, ControlOp::new(CaptureState));
    }

    fn start_reactivate(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        reply_to: ActorId,
        call: CallId,
        object: ObjectId,
        node: NodeId,
    ) {
        let instance = match self.admit(object, Some("reactivate from")) {
            Ok(instance) => instance,
            Err(why) => return ctx.send(reply_to, Msg::refused(call, why)),
        };
        ctx.send(reply_to, Msg::Progress { call });
        ctx.metrics().incr("class.reactivations_started");
        let op_id = ctx.fresh_u64();
        let op = PendingOp {
            kind: OpKind::Reactivate,
            reply_to,
            call,
            started: ctx.now(),
            object,
            target_node: node,
            target_version: instance.version,
            // The old process died with its host; there is nothing to
            // capture or deactivate.
            old_actor: None,
            state: None,
            needs_restore: true,
            new_actor: None,
            step: Step::Download,
        };
        self.ops.insert(op_id, op);
        self.begin_download_or_spawn(ctx, op_id);
    }

    fn finish_checkpoint(&mut self, ctx: &mut Ctx<'_, Msg>, op_id: u64) {
        let op = self.ops.remove(&op_id).expect("op exists");
        let elapsed = ctx.now().duration_since(op.started);
        ctx.metrics()
            .sample_duration("class.checkpoint_time", elapsed);
        ctx.send(
            op.reply_to,
            Msg::control_ok(op.call, CheckpointDone { object: op.object }),
        );
    }

    fn handle_rpc_completion(&mut self, ctx: &mut Ctx<'_, Msg>, completion: RpcCompletion) {
        let Some(op_id) = self.rpc_routes.remove(&completion.call.as_raw()) else {
            return;
        };
        if !self.ops.contains_key(&op_id) {
            return;
        }
        let step = self.ops[&op_id].step;
        match completion.result {
            Err(fault) => {
                self.fail_op(ctx, op_id, format!("step {step:?} failed: {fault}"));
            }
            Ok(payload) => match step {
                Step::Capture => {
                    let Some(blob) = payload.control_as::<StateBlob>().map(|b| b.bytes.clone())
                    else {
                        self.fail_op(ctx, op_id, "capture returned no state".into());
                        return;
                    };
                    let op = self.ops.get_mut(&op_id).expect("op exists");
                    let delay = self.cost.state_capture(blob.len() as u64);
                    op.state = Some(blob);
                    op.step = Step::CaptureCost;
                    self.schedule_step(ctx, op_id, delay);
                }
                Step::SaveVault => {
                    if self.ops[&op_id].kind == OpKind::Checkpoint {
                        self.finish_checkpoint(ctx, op_id);
                    } else {
                        self.begin_download_or_spawn(ctx, op_id);
                    }
                }
                Step::LoadVault => {
                    let Some(bytes) = payload
                        .control_as::<LoadedState>()
                        .and_then(|l| l.bytes.clone())
                    else {
                        self.fail_op(ctx, op_id, "vault lost the parked state".into());
                        return;
                    };
                    self.ops.get_mut(&op_id).expect("op exists").state = Some(bytes.clone());
                    self.begin_restore(ctx, op_id, bytes);
                }
                Step::Deactivate => {
                    // Old process is gone; its binding is stale from here on.
                    self.begin_spawn(ctx, op_id);
                }
                Step::Restore => {
                    self.begin_register(ctx, op_id);
                }
                Step::Register => {
                    self.finish_op(ctx, op_id);
                }
                other => {
                    self.fail_op(
                        ctx,
                        op_id,
                        format!("unexpected rpc reply in step {other:?}"),
                    );
                }
            },
        }
    }

    fn handle_step_timer(&mut self, ctx: &mut Ctx<'_, Msg>, op_id: u64) {
        if !self.ops.contains_key(&op_id) {
            return;
        }
        let step = self.ops[&op_id].step;
        match step {
            Step::Download => {
                let (node, version) = {
                    let op = &self.ops[&op_id];
                    (op.target_node, op.target_version)
                };
                self.downloaded.insert((node, version));
                self.after_download(ctx, op_id);
            }
            Step::CaptureCost => match self.vault {
                Some(vault) => {
                    let (object, state) = {
                        let op = self.ops.get_mut(&op_id).expect("op exists");
                        op.step = Step::SaveVault;
                        (op.object, op.state.clone().expect("state captured"))
                    };
                    self.rpc_step(
                        ctx,
                        op_id,
                        vault,
                        ControlOp::new(SaveState {
                            owner: object,
                            bytes: state,
                        }),
                    );
                    // The blob now lives in the vault; drop the local copy
                    // to keep the flow honest about where state resides.
                    self.ops.get_mut(&op_id).expect("op exists").state = None;
                }
                None => self.begin_download_or_spawn(ctx, op_id),
            },
            Step::Spawn => {
                self.spawn_process(ctx, op_id);
            }
            Step::RestoreCost => {
                if let (Some(vault), None) = (self.vault, self.ops[&op_id].state.as_ref()) {
                    let object = {
                        let op = self.ops.get_mut(&op_id).expect("op exists");
                        op.step = Step::LoadVault;
                        op.object
                    };
                    self.rpc_step(
                        ctx,
                        op_id,
                        vault,
                        ControlOp::new(LoadState { owner: object }),
                    );
                    return;
                }
                let state = self.ops[&op_id].state.clone().expect("state present");
                self.begin_restore(ctx, op_id, state);
            }
            other => {
                self.fail_op(ctx, op_id, format!("unexpected timer in step {other:?}"));
            }
        }
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
                if let Some(create) = op.as_any().downcast_ref::<CreateInstance>() {
                    self.start_create(ctx, from, call, create.node);
                } else if let Some(set) = op.as_any().downcast_ref::<SetCurrentImage>() {
                    let version = set.image.version();
                    self.images.insert(version, set.image.clone());
                    self.current_version = version;
                    ctx.send(from, Msg::control_ok(call, crate::msg::Ack));
                } else if let Some(ev) = op.as_any().downcast_ref::<EvolveInstance>() {
                    self.start_lifecycle(ctx, OpKind::Evolve, from, call, ev.object, None);
                } else if let Some(mig) = op.as_any().downcast_ref::<MigrateInstance>() {
                    self.start_lifecycle(
                        ctx,
                        OpKind::Migrate,
                        from,
                        call,
                        mig.object,
                        Some(mig.to),
                    );
                } else if let Some(ck) = op.as_any().downcast_ref::<CheckpointInstance>() {
                    self.start_lifecycle(ctx, OpKind::Checkpoint, from, call, ck.object, None);
                } else if let Some(re) = op.as_any().downcast_ref::<ReactivateInstance>() {
                    self.start_reactivate(ctx, from, call, re.object, re.node);
                } else if op.as_any().downcast_ref::<ListInstances>().is_some() {
                    ctx.send(
                        from,
                        Msg::control_ok(
                            call,
                            InstanceTable {
                                entries: self.instances(),
                            },
                        ),
                    );
                } else {
                    ctx.send(
                        from,
                        Msg::refused(
                            call,
                            format!("class object does not understand {}", op.describe()),
                        ),
                    );
                }
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
