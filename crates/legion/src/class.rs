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
//! table (`OpKind::plan`) and walked by the plan driver ([`crate::plan`]),
//! which leaves the same flow spans as the DCDO side (kinds `class_*`), the
//! only record of an operation's duration; the class object builds each
//! step's action and records the outcome:
//!
//! | kind              | steps                                                                                              | version   | finishing records                     |
//! |-------------------|----------------------------------------------------------------------------------------------------|-----------|---------------------------------------|
//! | Create            | Download → Spawn → Register                                                                        | current   | new instance; `InstanceCreated`       |
//! | Evolve, Migrate   | Capture → CaptureCost → SaveVault → Download → Deactivate → Spawn → LoadVault → RestoreCost → Restore → Register | Evolve: current; Migrate: its own | node and version; `LifecycleDone` |
//! | Checkpoint        | Capture → CaptureCost → SaveVault                                                                  | its own   | nothing (the vault holds the snapshot); `CheckpointDone` |
//! | Reactivate        | Download → Spawn → LoadVault → RestoreCost → Restore → Register                                    | its own   | node and version; `LifecycleDone`     |
//!
//! One skip rule drops a step that does not apply: Download when the target
//! host already holds the executable, SaveVault and LoadVault when the class
//! has no vault (it holds the state itself). Download,
//! Spawn and the two cost steps are timers; every other step is one RPC.
//! A step that fails aborts the operation with a refusal.
//!
//! One admission check (`admit`) stands in front of every operation; a
//! refused request starts nothing and sends no `Progress`:
//!
//! | kind                   | instance must be | also                       |
//! |------------------------|------------------|----------------------------|
//! | Create                 | (none yet)       | node in the lane space     |
//! | Evolve                 | known            |                            |
//! | Migrate                | known            | node in the lane space     |
//! | Checkpoint             | known            | vault configured           |
//! | Reactivate             | known            | vault configured; node in the lane space |
//!
//! `SetCurrentImage` is refused unless its version is above the current one.

use dcdo_sim::{Actor, ActorId, Ctx, FlowKind, IdMap, IdSet, NodeId};
use dcdo_types::{CallId, ClassId, ObjectId};

use crate::cost::CostModel;
use crate::monolithic::{ExecutableImage, MonolithicObject};
use crate::msg::{Ack, ControlOp, Msg};
use crate::object::{self, LegionObject, Served};
use crate::plan::{answer, Action, Flow, Held, Kind, PlanOwner, Plans, Reply, Step};
use crate::rpc::{AgentAddress, RpcClient, RpcCompletion};

/// Control op: create a new instance on `node`.
#[derive(Debug, Clone)]
pub struct CreateInstance {
    /// The node to place the instance on.
    pub node: NodeId,
}

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

/// Control op: install a new executable image and make it current.
#[derive(Debug, Clone)]
pub struct SetCurrentImage {
    /// The new image. Its version must be above the class's current one;
    /// a class refuses any other.
    pub image: ExecutableImage,
}

/// Control op: evolve an instance to the class's current image (the full
/// monolithic replacement pipeline).
#[derive(Debug, Clone)]
pub struct EvolveInstance {
    /// The instance to evolve.
    pub object: ObjectId,
}

/// Control op: migrate an instance to another node at its current version.
#[derive(Debug, Clone)]
pub struct MigrateInstance {
    /// The instance to migrate.
    pub object: ObjectId,
    /// The destination node.
    pub to: NodeId,
}

/// Control op: capture an instance's state and park a snapshot in the
/// class's vault, leaving the running process untouched. The snapshot is
/// what [`ReactivateInstance`] restores from after a crash.
#[derive(Debug, Clone)]
pub struct CheckpointInstance {
    /// The instance to checkpoint.
    pub object: ObjectId,
}

/// Control reply: a checkpoint was parked in the vault.
#[derive(Debug, Clone)]
pub struct CheckpointDone {
    /// The instance checkpointed.
    pub object: ObjectId,
}

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

/// Control op: list the instances this class manages.
#[derive(Debug, Clone)]
pub struct ListInstances;

/// Control reply to [`ListInstances`].
#[derive(Debug, Clone)]
pub struct InstanceTable {
    /// `(object, node, image version)` per instance.
    pub entries: Vec<(ObjectId, NodeId, u32)>,
}

crate::control_ops! {
    /// The ops a class object serves.
    pub enum ClassOp {
        CreateInstance = "create-instance", 64;
        SetCurrentImage = "set-current-image", |op| 64 + op.image.size_bytes();
        EvolveInstance = "evolve-instance", 64;
        MigrateInstance = "migrate-instance", 64;
        CheckpointInstance = "checkpoint-instance", 64;
        ReactivateInstance = "reactivate-instance", 64;
        ListInstances = "list-instances", 64;
    }

    /// A class object's replies.
    pub enum ClassReply {
        InstanceCreated = "instance-created", 64;
        CheckpointDone = "checkpoint-done", 64;
        LifecycleDone = "lifecycle-done", 64;
        InstanceTable = "instance-table", 64;
    }
}

#[derive(Debug, Clone, Copy)]
struct Instance {
    node: NodeId,
    version: u32,
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
    /// The operation's kind in the span log.
    trace: FlowKind,
    /// The steps, walked in order.
    steps: &'static [Step],
    /// What the operation needs the vault for; without one it is refused.
    vault_use: Option<&'static str>,
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
                trace: FlowKind::ClassCreate,
                steps: &[Download, Spawn, Register],
                vault_use: None,
            },
            OpKind::Evolve => Plan {
                trace: FlowKind::ClassEvolve,
                steps: REPLACE,
                vault_use: None,
            },
            OpKind::Migrate => Plan {
                trace: FlowKind::ClassMigrate,
                steps: REPLACE,
                vault_use: None,
            },
            OpKind::Checkpoint => Plan {
                trace: FlowKind::ClassCheckpoint,
                steps: &[Capture, CaptureCost, SaveVault],
                vault_use: Some("checkpoint into"),
            },
            OpKind::Reactivate => Plan {
                trace: FlowKind::ClassReactivate,
                steps: &[Download, Spawn, LoadVault, RestoreCost, Restore, Register],
                vault_use: Some("reactivate from"),
            },
        }
    }
}

impl Kind for OpKind {
    type Step = Step;

    fn trace(self) -> FlowKind {
        self.plan().trace
    }

    fn step(self, at: usize) -> Option<Step> {
        self.plan().steps.get(at).copied()
    }
}

/// Where an operation puts its result, and what it holds between steps.
#[derive(Debug)]
struct Target {
    node: NodeId,
    version: u32,
    held: Held,
}

type ClassFlow = Flow<OpKind, Target>;

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
    plans: Plans<OpKind, Target>,
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
            plans: Plans::default(),
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

    /// Forgets that executables were ever downloaded to `node` — call when
    /// a host crashes, since its local store is gone and the next spawn
    /// there must pay the transfer again.
    pub fn forget_downloads(&mut self, node: NodeId) {
        self.downloaded.retain(|(n, _)| *n != node);
    }

    /// Installs a new image and makes it current, or says why not.
    fn set_image(&mut self, image: &ExecutableImage) -> Result<(), String> {
        let (version, current) = (image.version(), self.current_version);
        if version <= current {
            return Err(format!(
                "image version {version} is not above the current version {current}"
            ));
        }
        self.images.insert(version, image.clone());
        self.current_version = version;
        Ok(())
    }

    /// The instance an operation works on (`None` for a create), or why
    /// the operation is refused.
    fn admit(
        &self,
        plan: &Plan,
        object: Option<ObjectId>,
        node: Option<NodeId>,
    ) -> Result<Option<Instance>, String> {
        if let (Some(what), None) = (plan.vault_use, self.vault) {
            return Err(format!("class has no vault to {what}"));
        }
        if let Some(node) = node.filter(|n| n.as_raw() >= NodeId::LIMIT) {
            return Err(format!("unknown node {node}"));
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
        let admitted = self.admit(&plan, object, node).map(|instance| Target {
            node: node
                .or(instance.map(|i| i.node))
                .expect("a create names its node"),
            version: match instance {
                Some(i) if kind != OpKind::Evolve => i.version,
                _ => self.current_version,
            },
            held: Held::default(),
        });
        self.open_flow(ctx, kind, Some((reply_to, call)), object, admitted);
    }
}

impl PlanOwner<OpKind, Target> for ClassObject {
    type Error = String;

    fn plans(&mut self) -> &mut Plans<OpKind, Target> {
        &mut self.plans
    }

    /// Download is dropped when the target host already holds the
    /// executable; the vault and restore steps follow the shared rule.
    fn skip(&self, flow: &ClassFlow, step: Step) -> bool {
        let target = &flow.data;
        match step {
            Step::Download => self.downloaded.contains(&(target.node, target.version)),
            _ => step.skips(self.vault, &target.held),
        }
    }

    fn action(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        flow: &mut ClassFlow,
        step: Step,
    ) -> Result<Action, String> {
        let target = &mut flow.data;
        let image = &self.images[&target.version];
        let state_len = |held: &Held| held.state.as_ref().expect("state held").len() as u64;
        let delay = match step {
            Step::Download => self.cost.transfer.transfer_time(image.size_bytes()),
            Step::Spawn => self.cost.process_creation(image.functions().len()),
            Step::CaptureCost => self.cost.state_capture(state_len(&target.held)),
            Step::RestoreCost => self.cost.state_restore(state_len(&target.held)),
            _ => {
                if step == Step::Restore {
                    // The new process has no binding yet; address it
                    // directly by seeding the rpc cache with the fresh actor.
                    let actor = target.held.new_actor.expect("spawned");
                    self.rpc.seed_binding(flow.object, actor);
                }
                let (to, op) = step
                    .shared_op(flow.object, &mut target.held, self.agent, self.vault)
                    .expect("every class step is built");
                return Ok(Action::Rpc(self.rpc.control(ctx, to, op)));
            }
        };
        Ok(Action::Timer(delay))
    }

    /// Keeps the state a Capture or LoadVault returns; the download
    /// lands, or the Spawn step's new process is created.
    fn done(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        flow: &mut ClassFlow,
        step: Step,
        reply: Option<Reply>,
    ) -> Result<(), String> {
        let target = &mut flow.data;
        match step {
            Step::Download => {
                self.downloaded.insert((target.node, target.version));
            }
            Step::Spawn => {
                let image = &self.images[&target.version];
                let rpc = RpcClient::new(self.agent, self.cost.clone());
                let process = MonolithicObject::new(flow.object, image, &self.cost, rpc);
                let actor = ctx.spawn(target.node, Box::new(process));
                target.held.new_actor = Some(actor);
            }
            Step::CaptureCost | Step::RestoreCost => {}
            _ => {
                step.absorb(reply.expect("an RPC step"), &mut target.held)?;
                if step == Step::LoadVault && target.held.state.is_none() {
                    return Err("vault lost the parked state".into());
                }
            }
        }
        Ok(())
    }

    /// Records the outcome (see the module docs' pipeline table) and
    /// answers the caller.
    fn finish(&mut self, ctx: &mut Ctx<'_, Msg>, flow: ClassFlow) {
        let (object, version) = (flow.object, flow.data.version);
        let reply = match flow.data.held.new_actor {
            // Only a checkpoint spawns nothing.
            None => ControlOp::new(CheckpointDone { object }),
            Some(address) => {
                let node = flow.data.node;
                self.instances.insert(object, Instance { node, version });
                match flow.kind {
                    OpKind::Create => ControlOp::new(InstanceCreated {
                        object,
                        address,
                        version,
                    }),
                    _ => ControlOp::new(LifecycleDone {
                        object,
                        address,
                        version,
                    }),
                }
            }
        };
        answer(ctx, flow.reply, |call| Msg::control_ok(call, reply));
    }

    fn fail(&mut self, ctx: &mut Ctx<'_, Msg>, flow: ClassFlow, why: String) {
        answer(ctx, flow.reply, |call| Msg::refused(call, why));
    }
}

impl LegionObject for ClassObject {
    type Ops<'a> = ClassOp<'a>;

    fn object_id(&self) -> ObjectId {
        self.object
    }

    fn control(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: ActorId,
        call: CallId,
        op: ClassOp<'_>,
    ) -> Served {
        let (kind, object, node) = match op {
            ClassOp::CreateInstance(c) => (OpKind::Create, None, Some(c.node)),
            ClassOp::EvolveInstance(e) => (OpKind::Evolve, Some(e.object), None),
            ClassOp::MigrateInstance(m) => (OpKind::Migrate, Some(m.object), Some(m.to)),
            ClassOp::CheckpointInstance(c) => (OpKind::Checkpoint, Some(c.object), None),
            ClassOp::ReactivateInstance(r) => (OpKind::Reactivate, Some(r.object), Some(r.node)),
            ClassOp::SetCurrentImage(set) => {
                return Served::Reply(match self.set_image(&set.image) {
                    Ok(()) => Msg::control_ok(call, Ack),
                    Err(why) => Msg::refused(call, why),
                });
            }
            ClassOp::ListInstances(_) => {
                let entries = self.instances();
                return Served::Reply(Msg::control_ok(call, InstanceTable { entries }));
            }
        };
        self.start(ctx, kind, from, call, object, node);
        Served::Later
    }

    fn rpc(&mut self) -> Option<&mut RpcClient> {
        Some(&mut self.rpc)
    }

    fn completed(&mut self, ctx: &mut Ctx<'_, Msg>, completion: RpcCompletion) {
        self.plan_reply(ctx, completion);
    }

    fn timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        self.plan_timer(ctx, token);
    }
}

impl Actor<Msg> for ClassObject {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
        object::deliver(self, ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        object::fire(self, ctx, token);
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
            .field("ops_in_flight", &self.plans.in_flight())
            .finish()
    }
}
