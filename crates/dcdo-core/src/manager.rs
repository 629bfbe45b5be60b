//! DCDO Managers (§2.4).
//!
//! A DCDO Manager maintains the implementation components and versions for
//! one object type and evolves the DCDOs under its control. Its two primary
//! data structures are:
//!
//! - the **DFM store**: versioned [`DfmDescriptor`]s, each *configurable*
//!   (editable, not instantiable) or *instantiable* (frozen, usable to
//!   create and evolve DCDOs) — the `<Manager, VersionId>` pair uniquely
//!   identifies an interface and implementation;
//! - the **DCDO table**: the version and implementation type of every
//!   instance.
//!
//! The manager implements the version-legality rules of §3.4–3.5
//! ([`VersionPolicy`]) and the push side of update propagation
//! ([`UpdatePropagation::Proactive`] evolves every instance when a new
//! current version is designated). The pull side (lazy checks) is served
//! through [`CheckVersion`].
//!
//! # Lifecycle flows
//!
//! Every lifecycle operation is a *flow*: a fixed sequence of steps declared
//! in one table (`MgrKind::plan`) and walked by one interpreter. `open_flow`
//! starts it, `enter_step` issues the step's action (the only place each
//! operation is built), `absorb` folds the reply into the flow, `advance`
//! moves on, and `finish_flow` records the outcome:
//!
//! | kind       | steps                                                    | finishing records                              |
//! |------------|----------------------------------------------------------|------------------------------------------------|
//! | Create     | Spawn → Register → Apply                                 | new table entry; `DcdoCreated`                 |
//! | Update     | Apply                                                    | entry's version and type; `UpdateDone`         |
//! | Migrate    | Capture → Deactivate → Spawn → Apply → Restore → Register | entry's address and host; `MigrateDone`        |
//! | Deactivate | Capture → Deactivate → Unregister                        | state parked in the entry; `Ack`               |
//! | Activate   | Spawn → Apply → Restore → Register                       | address and host, nothing parked; `DcdoCreated` |
//! | Checkpoint | Capture → SaveVault                                      | nothing (the vault holds the snapshot); `DcdoCheckpointed` |
//! | Recover    | Spawn → Apply → LoadVault → Restore → Register           | address and host, no longer crashed; resumes an interrupted update |
//!
//! Recover skips Restore when the vault holds no snapshot. Spawn is a timer
//! (process creation); every other step is one RPC. A step that fails, or a
//! host that dies under the flow ([`NodeFailed`]), aborts the flow.
//!
//! One admission check (`admit`) stands in front of every flow on an
//! existing instance; a refused request opens no flow and sends no
//! `Progress`:
//!
//! | kind                                   | instance must be | also                                  |
//! |----------------------------------------|------------------|---------------------------------------|
//! | Update, Migrate, Deactivate, Checkpoint | live             | Migrate: target host known; Checkpoint: vault configured |
//! | Activate                               | deactivated      | target host known                     |
//! | Recover                                | crashed          | vault configured                      |
//! | Create                                 | (none yet)       | current version instantiable; host known |
//!
//! Update additionally passes the group-epoch fence, the per-instance
//! serialisation queue and the version policy before its flow opens.

use std::collections::{BTreeMap, HashMap};

use bytes::Bytes;
use dcdo_sim::{mgr_step, Actor, ActorId, Ctx, FlowKind, IdMap, IdSet, NodeId, SimTime, SpanKind};
use dcdo_types::{CallId, ClassId, ImplementationType, ObjectId, VersionId};
use legion_substrate::binding::{RegisterBinding, UnregisterBinding};
use legion_substrate::monolithic::{CaptureState, Deactivate, RestoreState, StateBlob};
use legion_substrate::vault::{LoadState, LoadedState, SaveState};
use legion_substrate::{
    Ack, AgentAddress, ControlOp, CostModel, Handled, InvocationFault, Msg, ReplyPayload,
    RpcClient, RpcCompletion,
};

use crate::descriptor::DfmDescriptor;
use crate::error::{ack_or_refuse, ConfigError};
use crate::hosts::HostDirectory;
use crate::object::DcdoObject;
use crate::ops::{
    ActivateDcdo, ApplyDfmDescriptor, CheckVersion, CheckpointDcdo, ConfigureVersion, CreateDcdo,
    DcdoCheckpointed, DcdoCreated, DcdoTable, DeactivateDcdo, DeriveVersion, DerivedVersion,
    GroupEpochReport, ListDcdos, ListVersions, MarkInstantiable, MigrateDcdo, MigrateDone,
    NodeFailed, NodeFailureReport, NodeRecovered, QueryVersionInfo, ReadComponentDescriptor,
    RecoveryStarted, ReportVersion, SetCurrentVersion, SetGroupEpoch, UpdateDone, UpdateInstance,
    VersionCheckReply, VersionConfigOp, VersionInfo, VersionTable,
};

/// Which evolutions between versions are legal (§3.4–3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VersionPolicy {
    /// Exactly one official version at a time; instances evolve only to it.
    SingleVersion,
    /// Instances never evolve; new versions apply only to new instances.
    MultiNoUpdate,
    /// Instances evolve only to versions derived from their current one
    /// (the version tree's descendants).
    MultiIncreasingVersion,
    /// Instances may evolve to any instantiable version.
    MultiGeneralEvolution,
    /// Any instantiable version, provided mandatory functions survive and
    /// permanent implementations are preserved (the hybrid of §3.5).
    MultiHybrid,
}

/// When the manager pushes updates to instances (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdatePropagation {
    /// Designating a new current version immediately updates all instances.
    Proactive,
    /// Updates happen only via explicit [`UpdateInstance`] calls (or lazy
    /// pulls from the DCDOs themselves).
    Explicit,
}

#[derive(Debug, Clone)]
struct VersionEntry {
    descriptor: DfmDescriptor,
    instantiable: bool,
}

#[derive(Debug, Clone)]
struct DcdoInfo {
    actor: ActorId,
    node: NodeId,
    version: VersionId,
    impl_type: ImplementationType,
    /// `Some(state)` while the instance is deactivated (state parked here).
    parked_state: Option<Bytes>,
    /// `true` while the instance's host is down ([`NodeFailed`]); the
    /// instance refuses reconfiguration until [`NodeRecovered`] rebuilds it.
    crashed: bool,
}

/// One step of a lifecycle flow. The discriminant is the step's wire-stable
/// `FlowStep` code ([`mgr_step`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
enum MgrStep {
    Capture = mgr_step::CAPTURE,
    Deactivate = mgr_step::DEACTIVATE,
    Unregister = mgr_step::UNREGISTER,
    Spawn = mgr_step::SPAWN,
    Register = mgr_step::REGISTER,
    Apply = mgr_step::APPLY,
    Restore = mgr_step::RESTORE,
    SaveVault = mgr_step::SAVE_VAULT,
    LoadVault = mgr_step::LOAD_VAULT,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MgrKind {
    Create,
    Update,
    Migrate,
    Deactivate,
    Activate,
    Checkpoint,
    Recover,
}

/// What the DCDO table says about an instance, as admission sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InstanceState {
    /// Running in a process on a host that is up.
    Live,
    /// Deactivated: no process, state parked in the table.
    Parked,
    /// Its host went down ([`NodeFailed`]) and it has not been recovered.
    Crashed,
}

/// The declared shape of one kind of flow: a row of the module docs' plan
/// and admission tables.
struct Plan {
    /// The flow's kind in the span log.
    trace: FlowKind,
    /// The state the instance must be in for the flow to be admitted
    /// (`None`: the flow creates the instance).
    needs: Option<InstanceState>,
    /// The steps, walked in order by `enter_step` / `absorb` / `advance`.
    steps: &'static [MgrStep],
    /// Counter bumped when the flow finishes.
    counter: Option<&'static str>,
    /// Histogram sampled with the flow's duration when it finishes.
    timer: Option<&'static str>,
}

impl MgrKind {
    const fn plan(self) -> Plan {
        use InstanceState::{Crashed, Live, Parked};
        use MgrStep::{
            Apply, Capture, Deactivate, LoadVault, Register, Restore, SaveVault, Spawn, Unregister,
        };
        match self {
            MgrKind::Create => Plan {
                trace: FlowKind::Create,
                needs: None,
                steps: &[Spawn, Register, Apply],
                counter: None,
                timer: Some("manager.create_time"),
            },
            MgrKind::Update => Plan {
                trace: FlowKind::Update,
                needs: Some(Live),
                steps: &[Apply],
                counter: Some("manager.updates_done"),
                timer: Some("manager.update_time"),
            },
            MgrKind::Migrate => Plan {
                trace: FlowKind::Migrate,
                needs: Some(Live),
                steps: &[Capture, Deactivate, Spawn, Apply, Restore, Register],
                counter: Some("manager.migrations_done"),
                timer: Some("manager.migrate_time"),
            },
            MgrKind::Deactivate => Plan {
                trace: FlowKind::Deactivate,
                needs: Some(Live),
                steps: &[Capture, Deactivate, Unregister],
                counter: Some("manager.deactivations"),
                timer: None,
            },
            MgrKind::Activate => Plan {
                trace: FlowKind::Activate,
                needs: Some(Parked),
                steps: &[Spawn, Apply, Restore, Register],
                counter: Some("manager.activations"),
                timer: Some("manager.activate_time"),
            },
            MgrKind::Checkpoint => Plan {
                trace: FlowKind::Checkpoint,
                needs: Some(Live),
                steps: &[Capture, SaveVault],
                counter: Some("manager.checkpoints"),
                timer: Some("manager.checkpoint_time"),
            },
            MgrKind::Recover => Plan {
                trace: FlowKind::Recover,
                needs: Some(Crashed),
                steps: &[Spawn, Apply, LoadVault, Restore, Register],
                counter: Some("manager.recoveries"),
                timer: Some("manager.recover_time"),
            },
        }
    }
}

/// A queued (serialized) update request: reply channel, explicit target,
/// and retry count.
type QueuedUpdate = (Option<(ActorId, CallId)>, Option<VersionId>, u32);

/// The manager's enrolment in epoch-based group reconfiguration
/// ([`SetGroupEpoch`]). While fenced, new evolution flows are refused.
struct GroupGate {
    group: u64,
    epoch: u64,
    fenced: bool,
    refused_while_fenced: u64,
}

struct MgrFlow {
    kind: MgrKind,
    reply: Option<(ActorId, CallId)>,
    object: ObjectId,
    version: VersionId,
    target_node: NodeId,
    state: Option<Bytes>,
    new_actor: Option<ActorId>,
    /// Index of the current step in the kind's plan.
    at: usize,
    started: SimTime,
    /// Push attempts already burned (supervised internal updates retry).
    retries: u32,
}

impl MgrFlow {
    fn step(&self) -> MgrStep {
        self.kind.plan().steps[self.at]
    }

    /// The state an earlier step captured or loaded, or that admission
    /// found parked in the table.
    fn held_state(&self) -> Bytes {
        self.state
            .clone()
            .expect("state captured, parked or loaded")
    }
}

/// The manager object for one DCDO type.
pub struct DcdoManager {
    object: ObjectId,
    class: ClassId,
    cost: CostModel,
    agent: AgentAddress,
    rpc: RpcClient,
    hosts: HostDirectory,
    store: BTreeMap<VersionId, VersionEntry>,
    branch_counters: HashMap<VersionId, u32>,
    current: VersionId,
    table: IdMap<ObjectId, DcdoInfo>,
    version_policy: VersionPolicy,
    propagation: UpdatePropagation,
    flows: IdMap<u64, MgrFlow>,
    rpc_routes: IdMap<u64, u64>,
    timer_routes: IdMap<u64, u64>,
    // Supervised update retries: timer token -> (object, target, attempt).
    retry_updates: IdMap<u64, (ObjectId, VersionId, u32)>,
    // Per-instance serialization of update flows: an instance has at most
    // one Apply in flight; later requests queue here. Without this, two
    // overlapping pushes can complete out of order and roll the instance
    // back to the older version.
    updates_in_flight: IdSet<ObjectId>,
    queued_updates: IdMap<ObjectId, std::collections::VecDeque<QueuedUpdate>>,
    // The vault backing checkpoint/recovery flows, when configured.
    vault: Option<ObjectId>,
    // Updates interrupted by a host crash: object -> target version. Resumed
    // automatically once the instance is recovered.
    interrupted_updates: IdMap<ObjectId, VersionId>,
    // ConfigureVersion incorporations awaiting an ICO descriptor:
    // rpc call -> (reply_to, call, version, ico).
    pending_incorporations: IdMap<u64, (ActorId, CallId, VersionId, ObjectId)>,
    // Epoch-based group reconfiguration enrolment, if any (SetGroupEpoch).
    group_gate: Option<GroupGate>,
}

impl DcdoManager {
    /// Creates a manager whose DFM store starts with an empty, configurable
    /// root version `1`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        object: ObjectId,
        class: ClassId,
        cost: CostModel,
        agent: AgentAddress,
        hosts: HostDirectory,
        version_policy: VersionPolicy,
        propagation: UpdatePropagation,
    ) -> Self {
        let root = VersionId::root();
        let mut store = BTreeMap::new();
        store.insert(
            root.clone(),
            VersionEntry {
                descriptor: DfmDescriptor::new(root.clone()),
                instantiable: false,
            },
        );
        DcdoManager {
            object,
            class,
            rpc: RpcClient::new(agent, cost.clone()),
            cost,
            agent,
            hosts,
            store,
            branch_counters: HashMap::new(),
            current: root,
            table: IdMap::default(),
            version_policy,
            propagation,
            flows: IdMap::default(),
            rpc_routes: IdMap::default(),
            timer_routes: IdMap::default(),
            retry_updates: IdMap::default(),
            updates_in_flight: IdSet::default(),
            queued_updates: IdMap::default(),
            vault: None,
            interrupted_updates: IdMap::default(),
            pending_incorporations: IdMap::default(),
            group_gate: None,
        }
    }

    /// Configures the vault backing [`CheckpointDcdo`] and crash-recovery
    /// ([`NodeRecovered`]) flows. Without a vault both are refused.
    pub fn with_vault(mut self, vault: ObjectId) -> Self {
        self.vault = Some(vault);
        self
    }

    /// The manager's object identity.
    pub fn object_id(&self) -> ObjectId {
        self.object
    }

    /// The class managed.
    pub fn class_id(&self) -> ClassId {
        self.class
    }

    /// The current (official) version.
    pub fn current_version(&self) -> &VersionId {
        &self.current
    }

    /// The version policy in force.
    pub fn version_policy(&self) -> VersionPolicy {
        self.version_policy
    }

    /// Number of DCDOs in the table.
    pub fn instance_count(&self) -> usize {
        self.table.len()
    }

    /// The DCDO table (driver-side inspection).
    pub fn instances(&self) -> Vec<(ObjectId, VersionId, ImplementationType)> {
        self.table
            .iter()
            .map(|(o, i)| (*o, i.version.clone(), i.impl_type))
            .collect()
    }

    /// The stored descriptor for a version (driver-side inspection).
    pub fn descriptor(&self, version: &VersionId) -> Option<&DfmDescriptor> {
        self.store.get(version).map(|e| &e.descriptor)
    }

    /// Whether a version is instantiable.
    pub fn is_instantiable(&self, version: &VersionId) -> bool {
        self.store.get(version).is_some_and(|e| e.instantiable)
    }

    /// Lifecycle flows still in progress.
    pub fn flows_in_flight(&self) -> usize {
        self.flows.len()
    }

    /// Instances currently marked crashed (driver-side inspection).
    pub fn crashed_instances(&self) -> Vec<ObjectId> {
        let mut out: Vec<ObjectId> = self
            .table
            .iter()
            .filter(|(_, i)| i.crashed)
            .map(|(o, _)| *o)
            .collect();
        out.sort_unstable();
        out
    }

    /// Updates interrupted by a crash and awaiting resume (driver-side
    /// inspection).
    pub fn interrupted_update_count(&self) -> usize {
        self.interrupted_updates.len()
    }

    // ---- version store operations --------------------------------------

    fn entry(&self, version: &VersionId) -> Result<&VersionEntry, ConfigError> {
        self.store
            .get(version)
            .ok_or_else(|| ConfigError::UnknownVersion(version.clone()))
    }

    /// The entry of a version DCDOs can be created at or evolved to.
    fn instantiable_entry(&self, version: &VersionId) -> Result<&VersionEntry, ConfigError> {
        let entry = self.entry(version)?;
        if !entry.instantiable {
            return Err(ConfigError::VersionNotInstantiable(version.clone()));
        }
        Ok(entry)
    }

    fn derive_version(&mut self, from: &VersionId) -> Result<VersionId, ConfigError> {
        let parent = self.entry(from)?.descriptor.clone();
        let branch = self.branch_counters.entry(from.clone()).or_insert(0);
        *branch += 1;
        let version = from.child(*branch);
        let descriptor = parent.with_version(version.clone());
        self.store.insert(
            version.clone(),
            VersionEntry {
                descriptor,
                instantiable: false,
            },
        );
        Ok(version)
    }

    fn configurable_mut(&mut self, version: &VersionId) -> Result<&mut DfmDescriptor, ConfigError> {
        let entry = self
            .store
            .get_mut(version)
            .ok_or_else(|| ConfigError::UnknownVersion(version.clone()))?;
        if entry.instantiable {
            return Err(ConfigError::VersionFrozen(version.clone()));
        }
        Ok(&mut entry.descriptor)
    }

    fn mark_instantiable(&mut self, version: &VersionId) -> Result<(), ConfigError> {
        let entry = self.entry(version)?;
        if entry.instantiable {
            return Ok(());
        }
        entry.descriptor.validate()?;
        if let Some(parent_version) = version.parent() {
            if let Some(parent) = self.store.get(&parent_version) {
                entry.descriptor.respects_inheritance(&parent.descriptor)?;
            }
        }
        self.store
            .get_mut(version)
            .expect("entry exists")
            .instantiable = true;
        Ok(())
    }

    /// The version-policy check of §3.4–3.5.
    fn evolution_allowed(&self, from: &VersionId, to: &VersionId) -> Result<(), ConfigError> {
        let entry = self.instantiable_entry(to)?;
        let forbid = |rule: &str| {
            Err(ConfigError::PolicyForbids {
                from: from.clone(),
                to: to.clone(),
                rule: rule.to_owned(),
            })
        };
        match self.version_policy {
            VersionPolicy::SingleVersion => {
                if to != &self.current {
                    return forbid("single-version managers evolve only to the current version");
                }
            }
            VersionPolicy::MultiNoUpdate => {
                return forbid("no-update managers never evolve existing instances");
            }
            VersionPolicy::MultiIncreasingVersion => {
                if !to.is_derived_from(from) {
                    return forbid("increasing-version-number: target must derive from current");
                }
            }
            VersionPolicy::MultiGeneralEvolution => {}
            VersionPolicy::MultiHybrid => {
                if let Some(source) = self.store.get(from) {
                    entry.descriptor.respects_inheritance(&source.descriptor)?;
                }
            }
        }
        Ok(())
    }

    // ---- flows ----------------------------------------------------------

    fn schedule_flow_timer(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        flow_id: u64,
        delay: dcdo_sim::SimDuration,
    ) {
        let token = ctx.fresh_u64();
        self.timer_routes.insert(token, flow_id);
        ctx.schedule_timer(delay, token);
    }

    fn rpc_step(&mut self, ctx: &mut Ctx<'_, Msg>, flow_id: u64, target: ObjectId, op: ControlOp) {
        let call = self.rpc.control(ctx, target, op);
        self.rpc_routes.insert(call.as_raw(), flow_id);
    }

    /// Answers `reply`, if anyone is waiting, with a successful payload.
    fn answer(
        ctx: &mut Ctx<'_, Msg>,
        reply: Option<(ActorId, CallId)>,
        payload: impl Into<ControlOp>,
    ) {
        if let Some((reply_to, call)) = reply {
            ctx.send(reply_to, Msg::control_ok(call, payload));
        }
    }

    /// Answers `reply`, if anyone is waiting, with a refusal.
    fn refuse(
        ctx: &mut Ctx<'_, Msg>,
        reply: Option<(ActorId, CallId)>,
        why: impl Into<InvocationFault>,
    ) {
        if let Some((reply_to, call)) = reply {
            ctx.send(reply_to, Msg::refused(call, why));
        }
    }

    /// The one admission check in front of every flow on an existing
    /// instance (see the module docs' admission table): the vault is
    /// configured if the plan uses it, the instance is known and in the
    /// state the plan needs, and the target host (`node`, or the instance's
    /// own) is known. Returns the instance's record and the target host.
    fn admit(
        &self,
        kind: MgrKind,
        object: ObjectId,
        node: Option<NodeId>,
    ) -> Result<(DcdoInfo, NodeId), String> {
        let plan = kind.plan();
        let uses_vault = |s: &MgrStep| matches!(s, MgrStep::SaveVault | MgrStep::LoadVault);
        if plan.steps.iter().any(uses_vault) && self.vault.is_none() {
            return Err("manager has no vault configured".into());
        }
        let info = self
            .table
            .get(&object)
            .ok_or_else(|| format!("unknown instance {object}"))?;
        let state = if info.crashed {
            InstanceState::Crashed
        } else if info.parked_state.is_some() {
            InstanceState::Parked
        } else {
            InstanceState::Live
        };
        if plan.needs != Some(state) {
            let what = match (plan.needs, state) {
                (Some(InstanceState::Parked), _) => "is not deactivated",
                (Some(InstanceState::Crashed), _) => "is not crashed",
                (_, InstanceState::Parked) if kind == MgrKind::Deactivate => {
                    "is already deactivated"
                }
                (_, InstanceState::Parked) => "is deactivated",
                _ => "host crashed",
            };
            return Err(format!("instance {object} {what}"));
        }
        let node = node.unwrap_or(info.node);
        if !self.hosts.contains(node) {
            return Err(format!("unknown node {node}"));
        }
        Ok((info.clone(), node))
    }

    /// Opens a flow at the first step of its plan: acknowledges the caller
    /// with `Progress`, draws the flow id (and, for a flow that creates its
    /// instance, the new object id), and emits `FlowStarted`. The caller
    /// enters the first step.
    #[allow(clippy::too_many_arguments)]
    fn open_flow(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        kind: MgrKind,
        reply: Option<(ActorId, CallId)>,
        object: Option<ObjectId>,
        version: VersionId,
        target_node: NodeId,
        state: Option<Bytes>,
    ) -> u64 {
        if let Some((reply_to, call)) = reply {
            ctx.send(reply_to, Msg::Progress { call });
        }
        let flow_id = ctx.fresh_u64();
        let object = object.unwrap_or_else(|| ObjectId::from_raw(ctx.fresh_u64()));
        if ctx.tracing_enabled() {
            ctx.emit_span(SpanKind::FlowStarted {
                flow: flow_id,
                object: object.as_raw(),
                kind: kind.plan().trace,
            });
        }
        self.flows.insert(
            flow_id,
            MgrFlow {
                kind,
                reply,
                object,
                version,
                target_node,
                state,
                new_actor: None,
                at: 0,
                started: ctx.now(),
                retries: 0,
            },
        );
        flow_id
    }

    /// Admits and starts a flow of `kind` on an existing instance.
    fn start_flow(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        kind: MgrKind,
        reply: Option<(ActorId, CallId)>,
        object: ObjectId,
        node: Option<NodeId>,
    ) {
        match self.admit(kind, object, node) {
            Ok((info, node)) => {
                // Only a deactivated instance has state parked in the table.
                let state = info.parked_state;
                let flow_id =
                    self.open_flow(ctx, kind, reply, Some(object), info.version, node, state);
                self.enter_step(ctx, flow_id);
            }
            Err(why) => Self::refuse(ctx, reply, why),
        }
    }

    /// Issues the action of the flow's current step — the single place each
    /// step's operation is built. Every step but the first of a plan leaves
    /// a `FlowStep` span *before* its action (the first is implied by
    /// `FlowStarted`); Update's lone Apply has always been marked too, and
    /// the span digests pin that.
    fn enter_step(&mut self, ctx: &mut Ctx<'_, Msg>, flow_id: u64) {
        let flow = &self.flows[&flow_id];
        let (step, object) = (flow.step(), flow.object);
        if (flow.at > 0 || flow.kind == MgrKind::Update) && ctx.tracing_enabled() {
            ctx.emit_span(SpanKind::FlowStep {
                flow: flow_id,
                step: step as u32,
            });
        }
        let vault = || self.vault.expect("admission checked the vault");
        let (target, op) = match step {
            MgrStep::Capture => (object, ControlOp::new(CaptureState)),
            MgrStep::Deactivate => (object, ControlOp::new(Deactivate)),
            MgrStep::Unregister => (
                self.agent.object,
                ControlOp::new(UnregisterBinding { object }),
            ),
            MgrStep::Spawn => {
                // DCDO process creation: base spawn cost only — the function
                // "linking" happens per component during incorporation.
                let delay = self.cost.process_spawn_base;
                return self.schedule_flow_timer(ctx, flow_id, delay);
            }
            MgrStep::Register => {
                let address = flow.new_actor.expect("spawned");
                (
                    self.agent.object,
                    ControlOp::new(RegisterBinding { object, address }),
                )
            }
            MgrStep::Apply => {
                let descriptor = self.store[&flow.version].descriptor.clone();
                (object, ControlOp::new(ApplyDfmDescriptor { descriptor }))
            }
            MgrStep::Restore => {
                let bytes = flow.held_state();
                (object, ControlOp::new(RestoreState { bytes }))
            }
            MgrStep::SaveVault => {
                let (owner, bytes) = (object, flow.held_state());
                (vault(), ControlOp::new(SaveState { owner, bytes }))
            }
            MgrStep::LoadVault => (vault(), ControlOp::new(LoadState { owner: object })),
        };
        self.rpc_step(ctx, flow_id, target, op);
    }

    /// Folds the reply to the flow's current step into the flow: captured
    /// and loaded state are kept for the steps that consume them.
    fn absorb(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        flow_id: u64,
        payload: &ReplyPayload,
    ) -> Result<(), String> {
        let flow = self.flows.get_mut(&flow_id).expect("flow exists");
        match flow.step() {
            MgrStep::Capture => {
                let blob = payload
                    .control_as::<StateBlob>()
                    .ok_or("capture returned no state")?;
                flow.state = Some(blob.bytes.clone());
            }
            MgrStep::LoadVault => {
                flow.state = payload
                    .control_as::<LoadedState>()
                    .and_then(|l| l.bytes.clone());
                if flow.state.is_none() {
                    // No snapshot: the instance restarts fresh at its
                    // version, so the Restore that follows is skipped.
                    ctx.metrics().incr("manager.recoveries_without_snapshot");
                    flow.at += 1;
                    debug_assert_eq!(flow.step(), MgrStep::Restore);
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// The flow's current step is done: enters the next step of its plan,
    /// or finishes the flow after the last.
    fn advance(&mut self, ctx: &mut Ctx<'_, Msg>, flow_id: u64) {
        let flow = self.flows.get_mut(&flow_id).expect("flow exists");
        flow.at += 1;
        if flow.at < flow.kind.plan().steps.len() {
            self.enter_step(ctx, flow_id);
        } else {
            self.finish_flow(ctx, flow_id);
        }
    }

    /// The Spawn step's timer fired: creates the flow's new DCDO process.
    fn spawn_dcdo(&mut self, ctx: &mut Ctx<'_, Msg>, flow_id: u64) {
        let (node, object) = {
            let flow = &self.flows[&flow_id];
            (flow.target_node, flow.object)
        };
        let entry = self.hosts.entry(node).expect("node checked at admission");
        let seed = ctx.rng().fork_seed();
        let dcdo = DcdoObject::new(
            object,
            self.object,
            entry.object,
            entry.arch,
            // The DCDO starts empty at the root; the plan's Apply step
            // brings it to the flow's version.
            VersionId::root(),
            self.cost.clone(),
            RpcClient::new(self.agent, self.cost.clone()),
            seed,
        );
        let actor = ctx.spawn(node, Box::new(dcdo));
        ctx.metrics().incr("manager.dcdos_created");
        self.flows.get_mut(&flow_id).expect("flow exists").new_actor = Some(actor);
        // Address the new process directly until the binding is registered.
        self.rpc.seed_binding(object, actor);
    }

    /// Removes a flow that cannot complete, counting it under `counter`.
    fn abort_flow(&mut self, ctx: &mut Ctx<'_, Msg>, flow_id: u64, counter: &str) -> MgrFlow {
        let flow = self.flows.remove(&flow_id).expect("flow exists");
        ctx.metrics().incr(counter);
        if ctx.tracing_enabled() {
            ctx.emit_span(SpanKind::FlowAborted { flow: flow_id });
        }
        flow
    }

    fn fail_flow(&mut self, ctx: &mut Ctx<'_, Msg>, flow_id: u64, why: String) {
        let flow = self.abort_flow(ctx, flow_id, "manager.flows_failed");
        if flow.kind == MgrKind::Update {
            self.release_update_slot(ctx, flow.object);
            // Supervised internal updates (proactive pushes) are retried: a
            // lost reply must not strand an instance behind the current
            // version.
            if flow.reply.is_none() && flow.retries < 5 {
                ctx.metrics().incr("manager.update_retries");
                let token = ctx.fresh_u64();
                self.retry_updates
                    .insert(token, (flow.object, flow.version, flow.retries + 1));
                ctx.schedule_timer(dcdo_sim::SimDuration::from_secs(1), token);
                return;
            }
        }
        Self::refuse(ctx, flow.reply, why);
    }

    /// The last step of the plan is done: records what the flow changed in
    /// the DCDO table (see the module docs' plan table), counts and times
    /// it, and answers the caller.
    fn finish_flow(&mut self, ctx: &mut Ctx<'_, Msg>, flow_id: u64) {
        let flow = self.flows.remove(&flow_id).expect("flow exists");
        if ctx.tracing_enabled() {
            ctx.emit_span(SpanKind::FlowCompleted { flow: flow_id });
        }
        let plan = flow.kind.plan();
        let (object, version) = (flow.object, flow.version);
        let impl_type = self
            .store
            .get(&version)
            .map(|e| e.descriptor.implementation_type());
        if flow.kind == MgrKind::Create {
            self.table.insert(
                object,
                DcdoInfo {
                    actor: flow.new_actor.expect("spawned"),
                    node: flow.target_node,
                    version: version.clone(),
                    impl_type: impl_type.unwrap_or_default(),
                    parked_state: None,
                    crashed: false,
                },
            );
        } else if let Some(info) = self.table.get_mut(&object) {
            if let Some(address) = flow.new_actor {
                // Migrate, Activate, Recover: the instance is live again,
                // in its new process.
                info.actor = address;
                info.node = flow.target_node;
                info.parked_state = None;
                info.crashed = false;
            }
            match flow.kind {
                MgrKind::Update => {
                    info.version = version.clone();
                    info.impl_type = impl_type.unwrap_or(info.impl_type);
                }
                MgrKind::Deactivate => {
                    info.parked_state = Some(flow.state.expect("state captured"));
                }
                _ => {}
            }
        }
        if flow.kind == MgrKind::Update {
            self.release_update_slot(ctx, object);
        }
        if let Some(counter) = plan.counter {
            ctx.metrics().incr(counter);
        }
        if let Some(timer) = plan.timer {
            let elapsed = ctx.now().duration_since(flow.started);
            ctx.metrics().sample_duration(timer, elapsed);
        }
        let address = flow.new_actor;
        let payload = match flow.kind {
            MgrKind::Create | MgrKind::Activate => ControlOp::new(DcdoCreated {
                object,
                address: address.expect("spawned"),
                version,
            }),
            MgrKind::Update => ControlOp::new(UpdateDone { object, version }),
            MgrKind::Migrate => ControlOp::new(MigrateDone {
                object,
                address: address.expect("spawned"),
                version,
            }),
            MgrKind::Deactivate => ControlOp::new(Ack),
            MgrKind::Checkpoint => ControlOp::new(DcdoCheckpointed { object, version }),
            MgrKind::Recover => {
                // Nobody waits on a recovery; resume the reconfiguration
                // the crash interrupted, if any.
                if let Some(target) = self.interrupted_updates.remove(&object) {
                    self.start_update(ctx, None, object, Some(target));
                }
                return;
            }
        };
        Self::answer(ctx, flow.reply, payload);
    }

    /// Releases the per-instance update lock and starts the next queued
    /// update, if any.
    fn release_update_slot(&mut self, ctx: &mut Ctx<'_, Msg>, object: ObjectId) {
        self.updates_in_flight.remove(&object);
        let next = self
            .queued_updates
            .get_mut(&object)
            .and_then(std::collections::VecDeque::pop_front);
        if let Some((reply, to, retries)) = next {
            self.start_update_with_retries(ctx, reply, object, to, retries);
        }
    }

    fn start_create(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        reply_to: ActorId,
        call: CallId,
        node: NodeId,
    ) {
        let version = self.current.clone();
        if let Err(e) = self.instantiable_entry(&version) {
            return ctx.send(reply_to, Msg::refused(call, e));
        }
        if !self.hosts.contains(node) {
            return ctx.send(reply_to, Msg::refused(call, format!("unknown node {node}")));
        }
        let reply = Some((reply_to, call));
        let flow_id = self.open_flow(ctx, MgrKind::Create, reply, None, version, node, None);
        self.enter_step(ctx, flow_id);
    }

    fn start_update(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        reply: Option<(ActorId, CallId)>,
        object: ObjectId,
        to: Option<VersionId>,
    ) {
        self.start_update_with_retries(ctx, reply, object, to, 0);
    }

    #[allow(clippy::too_many_arguments)]
    fn start_update_with_retries(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        reply: Option<(ActorId, CallId)>,
        object: ObjectId,
        to: Option<VersionId>,
        retries: u32,
    ) {
        if let Some(gate) = &mut self.group_gate {
            if gate.fenced {
                // An epoch round is in flight: refuse rather than queue, so
                // the caller can retry after the commit (queued work could
                // otherwise apply a pre-epoch target post-commit).
                gate.refused_while_fenced += 1;
                ctx.metrics().incr("manager.group_fence_refusals");
                let why = format!(
                    "group {} epoch {} is fencing evolution",
                    gate.group, gate.epoch
                );
                return Self::refuse(ctx, reply, why);
            }
        }
        if self.updates_in_flight.contains(&object) {
            // Serialize: at most one Apply per instance at a time.
            if let Some((reply_to, call)) = reply {
                ctx.send(reply_to, Msg::Progress { call });
            }
            self.queued_updates
                .entry(object)
                .or_default()
                .push_back((reply, to, retries));
            return;
        }
        let target = to.unwrap_or_else(|| self.current.clone());
        let kind = MgrKind::Update;
        let (info, node) = match self.admit(kind, object, None) {
            Ok(admitted) => admitted,
            Err(why) => {
                // Internal pushes to a crashed instance are remembered and
                // resumed after recovery so the instance does not stay
                // stranded behind the current version.
                if reply.is_none() && self.table.get(&object).is_some_and(|i| i.crashed) {
                    self.interrupted_updates.insert(object, target);
                }
                return Self::refuse(ctx, reply, why);
            }
        };
        if info.version == target {
            // Already there: answer immediately.
            let version = target;
            return Self::answer(ctx, reply, UpdateDone { object, version });
        }
        if let Err(e) = self.evolution_allowed(&info.version, &target) {
            ctx.metrics().incr("manager.updates_refused");
            return Self::refuse(ctx, reply, e);
        }
        let flow_id = self.open_flow(ctx, kind, reply, Some(object), target, node, None);
        self.flows.get_mut(&flow_id).expect("just opened").retries = retries;
        self.updates_in_flight.insert(object);
        self.enter_step(ctx, flow_id);
    }

    /// A host crashed: mark resident instances crashed and abort every
    /// in-flight flow touching the host. Interrupted internal updates are
    /// remembered for resume; explicit callers get a `Refused` reply now
    /// rather than a dangling `Progress`.
    fn handle_node_failed(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: ActorId,
        call: CallId,
        node: NodeId,
    ) {
        let mut crashed: Vec<ObjectId> = Vec::new();
        for (object, info) in self.table.iter_mut() {
            if info.node == node && info.parked_state.is_none() && !info.crashed {
                info.crashed = true;
                crashed.push(*object);
            }
        }
        crashed.sort_unstable();
        let mut doomed: Vec<u64> = self
            .flows
            .iter()
            .filter(|(_, f)| f.target_node == node || crashed.contains(&f.object))
            .map(|(id, _)| *id)
            .collect();
        doomed.sort_unstable();
        let mut aborted: Vec<ObjectId> = Vec::new();
        for flow_id in doomed {
            let flow = self.abort_flow(ctx, flow_id, "manager.flows_aborted");
            aborted.push(flow.object);
            if flow.kind == MgrKind::Update {
                self.updates_in_flight.remove(&flow.object);
                if flow.reply.is_none() {
                    self.interrupted_updates.insert(flow.object, flow.version);
                }
            }
            let why = format!("node {node} failed mid-{:?}", flow.kind);
            Self::refuse(ctx, flow.reply, why);
        }
        // Queued updates behind an aborted flow cannot run while the
        // instance is down: refuse explicit ones, remember internal ones.
        for object in &crashed {
            for (reply, to, _) in self.queued_updates.remove(object).into_iter().flatten() {
                if reply.is_some() {
                    let why = format!("node {node} failed before queued update ran");
                    Self::refuse(ctx, reply, why);
                } else {
                    let target = to.unwrap_or_else(|| self.current.clone());
                    self.interrupted_updates.insert(*object, target);
                }
            }
        }
        aborted.sort_unstable();
        aborted.dedup();
        ctx.metrics()
            .add("manager.instances_crashed", crashed.len() as u64);
        let report = NodeFailureReport { crashed, aborted };
        ctx.send(from, Msg::control_ok(call, report));
    }

    /// A crashed host is back: rebuild every crashed instance that lived
    /// there from its vault snapshot (the Recover plan).
    fn handle_node_recovered(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: ActorId,
        call: CallId,
        node: NodeId,
    ) {
        if self.vault.is_none() {
            return ctx.send(from, Msg::refused(call, "manager has no vault configured"));
        }
        let mut objects = self.crashed_instances();
        objects.retain(|o| self.table[o].node == node);
        for &object in &objects {
            ctx.metrics().incr("manager.recoveries_started");
            self.start_flow(ctx, MgrKind::Recover, None, object, Some(node));
        }
        ctx.send(from, Msg::control_ok(call, RecoveryStarted { objects }));
    }

    fn handle_rpc_completion(&mut self, ctx: &mut Ctx<'_, Msg>, completion: RpcCompletion) {
        // ConfigureVersion incorporations.
        if let Some((reply_to, call, version, ico)) = self
            .pending_incorporations
            .remove(&completion.call.as_raw())
        {
            let result = completion
                .result
                .map_err(|f| ConfigError::BadComponent(format!("descriptor read failed: {f}")))
                .and_then(|payload| {
                    let reply = payload
                        .control_as::<crate::ops::ComponentDescriptorReply>()
                        .ok_or_else(|| ConfigError::BadComponent("bad descriptor reply".into()))?
                        .descriptor
                        .clone();
                    self.configurable_mut(&version)?
                        .incorporate_component(&reply, Some(ico))
                });
            return ctx.send(reply_to, ack_or_refuse(call, result));
        }
        let Some(flow_id) = self.rpc_routes.remove(&completion.call.as_raw()) else {
            return;
        };
        let Some(flow) = self.flows.get(&flow_id) else {
            return;
        };
        let step = flow.step();
        let absorbed = completion
            .result
            .map_err(|fault| format!("step {step:?} failed: {fault}"))
            .and_then(|payload| self.absorb(ctx, flow_id, &payload));
        match absorbed {
            Ok(()) => self.advance(ctx, flow_id),
            Err(why) => self.fail_flow(ctx, flow_id, why),
        }
    }

    fn handle_configure(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: ActorId,
        call: CallId,
        cfg: &ConfigureVersion,
    ) {
        // Incorporation needs an ICO round trip; everything else is local.
        if let VersionConfigOp::IncorporateComponent { ico } = cfg.op {
            // Check the version is configurable before paying the roundtrip.
            if let Err(e) = self.configurable_mut(&cfg.version) {
                return ctx.send(from, Msg::refused(call, e));
            }
            let rpc_call = self
                .rpc
                .control(ctx, ico, ControlOp::new(ReadComponentDescriptor));
            self.pending_incorporations
                .insert(rpc_call.as_raw(), (from, call, cfg.version.clone(), ico));
            return;
        }
        let result = self
            .configurable_mut(&cfg.version)
            .and_then(|d| match &cfg.op {
                VersionConfigOp::IncorporateComponent { .. } => unreachable!("handled above"),
                VersionConfigOp::RemoveComponent { component } => d.remove_component(*component),
                VersionConfigOp::EnableFunction {
                    function,
                    component,
                } => d.enable_function(function, *component),
                VersionConfigOp::DisableFunction { function } => d.disable_function(function),
                VersionConfigOp::SetProtection {
                    function,
                    protection,
                } => d.set_protection(function, *protection),
                VersionConfigOp::AddDependency { dependency } => {
                    d.add_dependency(dependency.clone())
                }
                VersionConfigOp::RemoveDependency { dependency } => {
                    d.remove_dependency(dependency);
                    Ok(())
                }
                VersionConfigOp::SetVisibility {
                    function,
                    visibility,
                } => d.set_visibility(function, *visibility),
            });
        ctx.send(from, ack_or_refuse(call, result));
    }

    fn handle_set_group_epoch(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: ActorId,
        call: CallId,
        set: &SetGroupEpoch,
    ) {
        let object = self.object;
        let reply = match &mut self.group_gate {
            Some(gate) if gate.group != set.group => Msg::refused(
                call,
                format!(
                    "manager is enrolled in group {}, not {}",
                    gate.group, set.group
                ),
            ),
            // Backwards never; re-fencing an epoch already adopted never.
            Some(gate)
                if set.epoch < gate.epoch
                    || (set.epoch == gate.epoch && set.fence && !gate.fenced) =>
            {
                Msg::refused(
                    call,
                    format!(
                        "stale group epoch {} (manager is at {})",
                        set.epoch, gate.epoch
                    ),
                )
            }
            gate => {
                let g = gate.get_or_insert(GroupGate {
                    group: set.group,
                    epoch: 0,
                    fenced: false,
                    refused_while_fenced: 0,
                });
                g.epoch = set.epoch;
                g.fenced = set.fence;
                if set.fence {
                    ctx.metrics().incr("manager.group_fences");
                } else {
                    // Adoption: the manager is a (non-serving) group member
                    // for timeline purposes.
                    ctx.emit_span(SpanKind::ReplicaEpoch {
                        group: set.group,
                        replica: object.as_raw(),
                        epoch: set.epoch,
                    });
                    ctx.metrics().incr("manager.group_epoch_adoptions");
                }
                Msg::control_ok(
                    call,
                    GroupEpochReport {
                        group: g.group,
                        epoch: g.epoch,
                        fenced: g.fenced,
                        refused_while_fenced: g.refused_while_fenced,
                    },
                )
            }
        };
        ctx.send(from, reply);
    }

    /// The manager's group enrolment, if any: `(group, epoch, fenced)`.
    pub fn group_epoch(&self) -> Option<(u64, u64, bool)> {
        self.group_gate
            .as_ref()
            .map(|g| (g.group, g.epoch, g.fenced))
    }

    /// Evolution requests refused while the group gate was fenced.
    pub fn group_fence_refusals(&self) -> u64 {
        self.group_gate
            .as_ref()
            .map_or(0, |g| g.refused_while_fenced)
    }

    fn handle_control(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: ActorId,
        call: CallId,
        op: ControlOp,
    ) {
        if let Some(create) = op.as_any().downcast_ref::<CreateDcdo>() {
            self.start_create(ctx, from, call, create.node);
            return;
        }
        if let Some(update) = op.as_any().downcast_ref::<UpdateInstance>() {
            self.start_update(ctx, Some((from, call)), update.object, update.to.clone());
            return;
        }
        let reply = Some((from, call));
        if let Some(mig) = op.as_any().downcast_ref::<MigrateDcdo>() {
            return self.start_flow(ctx, MgrKind::Migrate, reply, mig.object, Some(mig.to));
        }
        if let Some(de) = op.as_any().downcast_ref::<DeactivateDcdo>() {
            return self.start_flow(ctx, MgrKind::Deactivate, reply, de.object, None);
        }
        if let Some(act) = op.as_any().downcast_ref::<ActivateDcdo>() {
            return self.start_flow(ctx, MgrKind::Activate, reply, act.object, act.node);
        }
        if let Some(cp) = op.as_any().downcast_ref::<CheckpointDcdo>() {
            return self.start_flow(ctx, MgrKind::Checkpoint, reply, cp.object, None);
        }
        if let Some(nf) = op.as_any().downcast_ref::<NodeFailed>() {
            self.handle_node_failed(ctx, from, call, nf.node);
            return;
        }
        if let Some(nr) = op.as_any().downcast_ref::<NodeRecovered>() {
            self.handle_node_recovered(ctx, from, call, nr.node);
            return;
        }
        if let Some(cfg) = op.as_any().downcast_ref::<ConfigureVersion>() {
            self.handle_configure(ctx, from, call, cfg);
            return;
        }
        if let Some(set) = op.as_any().downcast_ref::<SetGroupEpoch>() {
            self.handle_set_group_epoch(ctx, from, call, set);
            return;
        }
        let reply = if let Some(derive) = op.as_any().downcast_ref::<DeriveVersion>() {
            match self.derive_version(&derive.from) {
                Ok(version) => Msg::control_ok(call, DerivedVersion { version }),
                Err(e) => Msg::refused(call, e),
            }
        } else if let Some(mark) = op.as_any().downcast_ref::<MarkInstantiable>() {
            ack_or_refuse(call, self.mark_instantiable(&mark.version))
        } else if let Some(set) = op.as_any().downcast_ref::<SetCurrentVersion>() {
            match self.instantiable_entry(&set.version) {
                Ok(_) => {
                    self.current = set.version.clone();
                    ctx.metrics().incr("manager.current_version_changes");
                    if self.propagation == UpdatePropagation::Proactive {
                        let instances: Vec<ObjectId> = self
                            .table
                            .iter()
                            .filter(|(_, i)| i.version != self.current)
                            .map(|(o, _)| *o)
                            .collect();
                        for object in instances {
                            self.start_update(ctx, None, object, None);
                        }
                    }
                    Msg::control_ok(call, Ack)
                }
                Err(e) => Msg::refused(call, e),
            }
        } else if let Some(check) = op.as_any().downcast_ref::<CheckVersion>() {
            ctx.metrics().incr("manager.version_checks");
            let up_to_date = check.current == self.current
                || self
                    .evolution_allowed(&check.current, &self.current)
                    .is_err();
            let descriptor = if up_to_date {
                None
            } else {
                self.store.get(&self.current).map(|e| e.descriptor.clone())
            };
            // Optimistically record the promise; the DCDO confirms with
            // ReportVersion once the evolution lands.
            Msg::control_ok(
                call,
                VersionCheckReply {
                    up_to_date,
                    descriptor,
                },
            )
        } else if let Some(report) = op.as_any().downcast_ref::<ReportVersion>() {
            if let Some(info) = self.table.get_mut(&report.object) {
                info.version = report.version.clone();
            }
            Msg::control_ok(call, Ack)
        } else if op.as_any().downcast_ref::<ListVersions>().is_some() {
            Msg::control_ok(
                call,
                VersionTable {
                    entries: self
                        .store
                        .iter()
                        .map(|(v, e)| {
                            (
                                v.clone(),
                                e.instantiable,
                                e.descriptor.component_count(),
                                e.descriptor.function_count(),
                            )
                        })
                        .collect(),
                    current: self.current.clone(),
                },
            )
        } else if op.as_any().downcast_ref::<ListDcdos>().is_some() {
            Msg::control_ok(
                call,
                DcdoTable {
                    entries: self.instances(),
                },
            )
        } else if let Some(q) = op.as_any().downcast_ref::<QueryVersionInfo>() {
            match self.entry(&q.version) {
                Ok(entry) => Msg::control_ok(
                    call,
                    VersionInfo {
                        version: q.version.clone(),
                        instantiable: entry.instantiable,
                        descriptor: entry.descriptor.clone(),
                    },
                ),
                Err(e) => Msg::refused(call, e),
            }
        } else {
            Msg::refused(
                call,
                format!("DCDO Manager does not understand {}", op.describe()),
            )
        };
        ctx.send(from, reply);
    }
}

impl Actor<Msg> for DcdoManager {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
        match msg {
            Msg::Control { call, target, op } => {
                if target != self.object {
                    return ctx.send(
                        from,
                        Msg::refused(call, InvocationFault::NoSuchObject(target)),
                    );
                }
                self.handle_control(ctx, from, call, op);
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
        if let Some((object, version, attempt)) = self.retry_updates.remove(&token) {
            self.start_update_with_retries(ctx, None, object, Some(version), attempt);
            return;
        }
        if let Some(flow_id) = self.timer_routes.remove(&token) {
            if self
                .flows
                .get(&flow_id)
                .is_some_and(|f| f.step() == MgrStep::Spawn)
            {
                self.spawn_dcdo(ctx, flow_id);
                self.advance(ctx, flow_id);
            }
        }
    }

    fn name(&self) -> &str {
        "dcdo-manager"
    }
}

impl std::fmt::Debug for DcdoManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DcdoManager")
            .field("object", &self.object)
            .field("class", &self.class)
            .field("current", &self.current)
            .field("versions", &self.store.len())
            .field("instances", &self.table.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::MgrKind::{Activate, Checkpoint, Create, Deactivate, Migrate, Recover, Update};
    use super::{MgrKind, MgrStep};

    /// The `FlowStep` codes a flow of `kind` leaves after its first step.
    fn later_step_codes(kind: MgrKind) -> Vec<u32> {
        kind.plan().steps[1..].iter().map(|s| *s as u32).collect()
    }

    // The same literals `dcdo_lifecycle.rs::every_flow_kind_walks_its_
    // declared_steps` reads off the span log of real flows.
    #[test]
    fn plans_declare_the_observed_step_sequences() {
        assert_eq!(later_step_codes(Create), [4, 5]);
        assert_eq!(later_step_codes(Update), []);
        assert_eq!(later_step_codes(Migrate), [1, 3, 5, 6, 4]);
        assert_eq!(later_step_codes(Deactivate), [1, 2]);
        assert_eq!(later_step_codes(Activate), [5, 6, 4]);
        assert_eq!(later_step_codes(Checkpoint), [7]);
        assert_eq!(later_step_codes(Recover), [5, 8, 6, 4]);
        // Update's only step is Apply, which it marks although it is first.
        assert_eq!(Update.plan().steps, [MgrStep::Apply]);
    }
}
