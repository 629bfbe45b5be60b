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
//! in one table (`MgrKind::plan`) and walked by the plan driver
//! ([`legion_substrate::plan`]), whose flow spans are the only record of a
//! flow's duration; the manager builds each step's action and records the
//! outcome:
//!
//! | kind       | steps                                                    | finishing records                              |
//! |------------|----------------------------------------------------------|------------------------------------------------|
//! | Create     | Spawn → Register → Apply                                 | new table entry; `DcdoCreated`                 |
//! | Update     | Apply                                                    | entry's version and type; `UpdateDone`         |
//! | Migrate    | Capture → Deactivate → Spawn → Apply → Restore → Register | entry's address and host; `MigrateDone`        |
//! | Deactivate | Capture → Deactivate → Unregister                        | state parked in the entry; `Ack`               |
//! | Activate   | Spawn → Apply → Restore → Register                       | address and host, nothing parked; `DcdoCreated` |
//! | Checkpoint | Capture → SaveVault                                      | nothing (the vault holds the snapshot); `DcdoCheckpointed` |
//! | Recover    | Spawn → Apply → LoadVault → Restore → Register           | address and host, no longer crashed; counts `manager.recoveries`; resumes an interrupted update |
//!
//! The shared skip rule drops Restore when the vault holds no snapshot.
//! Spawn is a timer (process creation); every other step is one RPC. A step
//! that fails, or a host that dies under the flow ([`NodeFailed`]), aborts
//! the flow.
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
use std::rc::Rc;

use bytes::Bytes;
use dcdo_sim::{Actor, ActorId, Ctx, FlowKind, IdMap, NodeId, SpanKind};
use dcdo_types::{CallId, ClassId, ImplementationType, ObjectId, VersionId};
use legion_substrate::binding::UnregisterBinding;
use legion_substrate::object::{self, LegionObject, Served};
use legion_substrate::plan::{answer, Action, Flow, Held, Kind, PlanOwner, Plans, Reply, Step};
use legion_substrate::{Ack, AgentAddress, ControlOp, CostModel, Msg, RpcClient, RpcCompletion};

use crate::descriptor::DfmDescriptor;
use crate::error::{ack_or_refuse, ConfigError};
use crate::hosts::HostDirectory;
use crate::object::DcdoObject;
use crate::ops::{
    ApplyDfmDescriptor, ConfigureVersion, DcdoCheckpointed, DcdoCreated, DcdoTable, DerivedVersion,
    GroupEpochReport, ManagerOp, MigrateDone, NodeFailureReport, ReadComponentDescriptor,
    RecoveryStarted, SetGroupEpoch, UpdateDone, VersionCheckReply, VersionConfigOp, VersionInfo,
    VersionTable,
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
    /// Updates happen only via explicit
    /// [`UpdateInstance`](crate::ops::UpdateInstance) calls (or lazy pulls
    /// from the DCDOs themselves).
    Explicit,
}

#[derive(Debug, Clone)]
struct VersionEntry {
    /// Shared with every `ApplyDfmDescriptor` and version-check reply sent
    /// for this version; only a configurable version is mutated.
    descriptor: Rc<DfmDescriptor>,
    instantiable: bool,
}

#[derive(Debug, Clone)]
struct DcdoInfo {
    node: NodeId,
    version: VersionId,
    impl_type: ImplementationType,
    /// `Some(state)` while the instance is deactivated (state parked here).
    parked_state: Option<Bytes>,
    /// `true` while the instance's host is down ([`NodeFailed`]); the
    /// instance refuses reconfiguration until [`NodeRecovered`] rebuilds it.
    crashed: bool,
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
    /// The steps, walked in order.
    steps: &'static [Step],
}

impl MgrKind {
    const fn plan(self) -> Plan {
        use InstanceState::{Crashed, Live, Parked};
        use Step::{
            Apply, Capture, Deactivate, LoadVault, Register, Restore, SaveVault, Spawn, Unregister,
        };
        match self {
            MgrKind::Create => Plan {
                trace: FlowKind::Create,
                needs: None,
                steps: &[Spawn, Register, Apply],
            },
            MgrKind::Update => Plan {
                trace: FlowKind::Update,
                needs: Some(Live),
                steps: &[Apply],
            },
            MgrKind::Migrate => Plan {
                trace: FlowKind::Migrate,
                needs: Some(Live),
                steps: &[Capture, Deactivate, Spawn, Apply, Restore, Register],
            },
            MgrKind::Deactivate => Plan {
                trace: FlowKind::Deactivate,
                needs: Some(Live),
                steps: &[Capture, Deactivate, Unregister],
            },
            MgrKind::Activate => Plan {
                trace: FlowKind::Activate,
                needs: Some(Parked),
                steps: &[Spawn, Apply, Restore, Register],
            },
            MgrKind::Checkpoint => Plan {
                trace: FlowKind::Checkpoint,
                needs: Some(Live),
                steps: &[Capture, SaveVault],
            },
            MgrKind::Recover => Plan {
                trace: FlowKind::Recover,
                needs: Some(Crashed),
                steps: &[Spawn, Apply, LoadVault, Restore, Register],
            },
        }
    }
}

impl Kind for MgrKind {
    type Step = Step;

    fn trace(self) -> FlowKind {
        self.plan().trace
    }

    fn step(self, at: usize) -> Option<Step> {
        self.plan().steps.get(at).copied()
    }

    /// `FlowStarted` implies a flow's first step; Update's lone Apply has
    /// always been marked too, and the span digests pin that.
    fn marks_first(self) -> bool {
        self == MgrKind::Update
    }
}

/// What a lifecycle flow works towards, and what it holds between steps.
#[derive(Debug)]
struct Target {
    version: VersionId,
    node: NodeId,
    held: Held,
    /// Push attempts already burned (supervised internal updates retry).
    retries: u32,
}

type MgrFlow = Flow<MgrKind, Target>;

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
    plans: Plans<MgrKind, Target>,
    // Supervised update retries: timer token -> (object, target, attempt).
    retry_updates: IdMap<u64, (ObjectId, VersionId, u32)>,
    // Per-instance serialization of update flows: an instance has at most
    // one Update flow in flight; later requests queue here. Without this,
    // two overlapping pushes can complete out of order and roll the
    // instance back to the older version.
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
                descriptor: Rc::new(DfmDescriptor::new(root.clone())),
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
            plans: Plans::default(),
            retry_updates: IdMap::default(),
            queued_updates: IdMap::default(),
            vault: None,
            interrupted_updates: IdMap::default(),
            pending_incorporations: IdMap::default(),
            group_gate: None,
        }
    }

    /// Configures the vault backing
    /// [`CheckpointDcdo`](crate::ops::CheckpointDcdo) and crash-recovery
    /// ([`NodeRecovered`](crate::ops::NodeRecovered)) flows. Without a vault
    /// both are refused.
    pub fn with_vault(mut self, vault: ObjectId) -> Self {
        self.vault = Some(vault);
        self
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
        self.store.get(version).map(|e| &*e.descriptor)
    }

    /// Lifecycle flows still in progress.
    pub fn flows_in_flight(&self) -> usize {
        self.plans.in_flight()
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
        let parent = DfmDescriptor::clone(&self.entry(from)?.descriptor);
        let branch = self.branch_counters.entry(from.clone()).or_insert(0);
        *branch += 1;
        let version = from.child(*branch);
        let descriptor = parent.with_version(version.clone());
        self.store.insert(
            version.clone(),
            VersionEntry {
                descriptor: Rc::new(descriptor),
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
        Ok(Rc::make_mut(&mut entry.descriptor))
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

    /// The one admission check in front of every flow (see the module
    /// docs' admission table): the vault is configured if the plan uses it,
    /// the instance is known and in the state the plan needs (a create:
    /// the current version is instantiable), and the target host (`node`,
    /// or the instance's own) is known. Returns what the flow starts from:
    /// the instance's version, its host or `node`, and any parked state.
    fn admit(
        &self,
        kind: MgrKind,
        object: Option<ObjectId>,
        node: Option<NodeId>,
    ) -> Result<Target, String> {
        let plan = kind.plan();
        let uses_vault = |s: &Step| matches!(s, Step::SaveVault | Step::LoadVault);
        if plan.steps.iter().any(uses_vault) && self.vault.is_none() {
            return Err("manager has no vault configured".into());
        }
        let Some(object) = object else {
            self.instantiable_entry(&self.current)
                .map_err(|e| e.to_string())?;
            return self.target(
                self.current.clone(),
                node.expect("a create names its node"),
                None,
            );
        };
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
        self.target(info.version.clone(), node, info.parked_state.clone())
    }

    /// A flow's target on `node`, if the node is a known host.
    fn target(
        &self,
        version: VersionId,
        node: NodeId,
        state: Option<Bytes>,
    ) -> Result<Target, String> {
        if !self.hosts.contains(node) {
            return Err(format!("unknown node {node}"));
        }
        let held = Held {
            state,
            new_actor: None,
        };
        let retries = 0;
        Ok(Target {
            version,
            node,
            held,
            retries,
        })
    }

    /// Admits and starts a flow of `kind` on `object` (a create names
    /// none and mints it).
    fn start_flow(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        kind: MgrKind,
        reply: Option<(ActorId, CallId)>,
        object: Option<ObjectId>,
        node: Option<NodeId>,
    ) {
        let admitted = self.admit(kind, object, node);
        self.open_flow(ctx, kind, reply, object, admitted);
    }

    /// Starts the update queued next behind `object`'s last one, if any.
    fn start_queued_update(&mut self, ctx: &mut Ctx<'_, Msg>, object: ObjectId) {
        let next = self
            .queued_updates
            .get_mut(&object)
            .and_then(std::collections::VecDeque::pop_front);
        if let Some((reply, to, retries)) = next {
            self.start_update(ctx, reply, object, to, retries);
        }
    }

    /// Starts an update of `object` to `to` (default: the current version)
    /// after `retries` failed pushes.
    fn start_update(
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
                let why = format!(
                    "group {} epoch {} is fencing evolution",
                    gate.group, gate.epoch
                );
                return answer(ctx, reply, |call| Msg::refused(call, why));
            }
        }
        if self
            .plans
            .iter()
            .any(|(_, f)| f.kind == MgrKind::Update && f.object == object)
        {
            // Serialize: at most one Apply per instance at a time.
            answer(ctx, reply, |call| Msg::Progress { call });
            self.queued_updates
                .entry(object)
                .or_default()
                .push_back((reply, to, retries));
            return;
        }
        let target = to.unwrap_or_else(|| self.current.clone());
        let kind = MgrKind::Update;
        let mut admitted = match self.admit(kind, Some(object), None) {
            Ok(admitted) => admitted,
            Err(why) => {
                // Internal pushes to a crashed instance are remembered and
                // resumed after recovery so the instance does not stay
                // stranded behind the current version.
                if reply.is_none() && self.table.get(&object).is_some_and(|i| i.crashed) {
                    self.interrupted_updates.insert(object, target);
                }
                return answer(ctx, reply, |call| Msg::refused(call, why));
            }
        };
        if admitted.version == target {
            // Already there: answer immediately.
            let version = target;
            return answer(ctx, reply, |call| {
                Msg::control_ok(call, UpdateDone { object, version })
            });
        }
        if let Err(e) = self.evolution_allowed(&admitted.version, &target) {
            return answer(ctx, reply, |call| Msg::refused(call, e));
        }
        (admitted.version, admitted.retries) = (target, retries);
        self.open_flow(ctx, kind, reply, Some(object), Ok(admitted));
    }

    /// A host crashed: mark resident instances crashed and abort every
    /// in-flight flow touching the host. Interrupted internal updates are
    /// remembered for resume; explicit callers get a `Refused` reply now
    /// rather than a dangling `Progress`.
    fn node_failed(&mut self, ctx: &mut Ctx<'_, Msg>, call: CallId, node: NodeId) -> Msg {
        let mut crashed: Vec<ObjectId> = Vec::new();
        for (object, info) in self.table.iter_mut() {
            if info.node == node && info.parked_state.is_none() && !info.crashed {
                info.crashed = true;
                crashed.push(*object);
            }
        }
        crashed.sort_unstable();
        let mut doomed: Vec<u64> = self
            .plans
            .iter()
            .filter(|(_, f)| f.data.node == node || crashed.contains(&f.object))
            .map(|(id, _)| id)
            .collect();
        doomed.sort_unstable();
        let mut aborted: Vec<ObjectId> = Vec::new();
        for flow_id in doomed {
            let flow = self.abort_flow(ctx, flow_id).expect("flow in flight");
            aborted.push(flow.object);
            if flow.kind == MgrKind::Update && flow.reply.is_none() {
                self.interrupted_updates
                    .insert(flow.object, flow.data.version);
            }
            let why = format!("node {node} failed mid-{:?}", flow.kind);
            answer(ctx, flow.reply, |call| Msg::refused(call, why));
        }
        // Queued updates behind an aborted flow cannot run while the
        // instance is down: refuse explicit ones, remember internal ones.
        for object in &crashed {
            for (reply, to, _) in self.queued_updates.remove(object).into_iter().flatten() {
                if reply.is_some() {
                    let why = format!("node {node} failed before queued update ran");
                    answer(ctx, reply, |call| Msg::refused(call, why));
                } else {
                    let target = to.unwrap_or_else(|| self.current.clone());
                    self.interrupted_updates.insert(*object, target);
                }
            }
        }
        aborted.sort_unstable();
        aborted.dedup();
        Msg::control_ok(call, NodeFailureReport { crashed, aborted })
    }

    /// A crashed host is back: rebuild every crashed instance that lived
    /// there from its vault snapshot (the Recover plan).
    fn node_recovered(&mut self, ctx: &mut Ctx<'_, Msg>, call: CallId, node: NodeId) -> Msg {
        if self.vault.is_none() {
            return Msg::refused(call, "manager has no vault configured");
        }
        let mut objects = self.crashed_instances();
        objects.retain(|o| self.table[o].node == node);
        for &object in &objects {
            self.start_flow(ctx, MgrKind::Recover, None, Some(object), Some(node));
        }
        Msg::control_ok(call, RecoveryStarted { objects })
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
        self.plan_reply(ctx, completion);
    }

    fn configure(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: ActorId,
        call: CallId,
        cfg: &ConfigureVersion,
    ) -> Served {
        // Incorporation needs an ICO round trip; everything else is local.
        if let VersionConfigOp::IncorporateComponent { ico } = cfg.op {
            // Check the version is configurable before paying the roundtrip.
            if let Err(e) = self.configurable_mut(&cfg.version) {
                return Served::Reply(Msg::refused(call, e));
            }
            let rpc_call = self
                .rpc
                .control(ctx, ico, ControlOp::new(ReadComponentDescriptor));
            self.pending_incorporations
                .insert(rpc_call.as_raw(), (from, call, cfg.version.clone(), ico));
            return Served::Later;
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
        Served::Reply(ack_or_refuse(call, result))
    }

    fn set_group_epoch(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        call: CallId,
        set: &SetGroupEpoch,
    ) -> Msg {
        let object = self.object;
        match &mut self.group_gate {
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
                if !set.fence {
                    // Adoption: the manager is a (non-serving) group member
                    // for timeline purposes.
                    ctx.emit_span(SpanKind::ReplicaEpoch {
                        group: set.group,
                        replica: object.as_raw(),
                        epoch: set.epoch,
                    });
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
        }
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
}

impl PlanOwner<MgrKind, Target> for DcdoManager {
    type Error = String;

    fn plans(&mut self) -> &mut Plans<MgrKind, Target> {
        &mut self.plans
    }

    fn skip(&self, flow: &MgrFlow, step: Step) -> bool {
        step.skips(self.vault, &flow.data.held)
    }

    fn action(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        flow: &mut MgrFlow,
        step: Step,
    ) -> Result<Action, String> {
        let object = flow.object;
        let (target, op) = match step {
            // DCDO process creation: base spawn cost only — the function
            // "linking" happens per component during incorporation.
            Step::Spawn => return Ok(Action::Timer(self.cost.process_spawn_base)),
            Step::Unregister => {
                let unregister = UnregisterBinding { object };
                (self.agent.object, ControlOp::new(unregister))
            }
            Step::Apply => {
                let descriptor = self.store[&flow.data.version].descriptor.clone();
                (object, ControlOp::new(ApplyDfmDescriptor { descriptor }))
            }
            _ => step
                .shared_op(object, &mut flow.data.held, self.agent, self.vault)
                .expect("every manager step is built"),
        };
        Ok(Action::Rpc(self.rpc.control(ctx, target, op)))
    }

    /// Keeps the state a Capture or LoadVault returns; Spawn, the only
    /// timer step, creates the new process.
    fn done(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        flow: &mut MgrFlow,
        step: Step,
        reply: Option<Reply>,
    ) -> Result<(), String> {
        if let Some(reply) = reply {
            step.absorb(reply, &mut flow.data.held)?;
        } else {
            let (node, object) = (flow.data.node, flow.object);
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
            flow.data.held.new_actor = Some(actor);
            // Address the new process directly until the binding is
            // registered.
            self.rpc.seed_binding(object, actor);
        }
        if step == Step::LoadVault && flow.data.held.state.is_none() {
            // No snapshot: the instance restarts fresh at its version, and
            // the skip rule drops the Restore that follows.
            ctx.metrics().incr("manager.recoveries_without_snapshot");
        }
        Ok(())
    }

    /// The last step of the plan is done: records what the flow changed in
    /// the DCDO table (see the module docs' plan table) and answers the
    /// caller.
    fn finish(&mut self, ctx: &mut Ctx<'_, Msg>, flow: MgrFlow) {
        let (object, version) = (flow.object, flow.data.version);
        let impl_type = self
            .store
            .get(&version)
            .map(|e| e.descriptor.implementation_type());
        // Create adds the entry; after Migrate, Activate and Recover the
        // instance is live again, in its new process.
        let info = self.table.entry(object).or_insert_with(|| DcdoInfo {
            node: flow.data.node,
            version: version.clone(),
            impl_type: ImplementationType::default(),
            parked_state: None,
            crashed: false,
        });
        if flow.data.held.new_actor.is_some() {
            info.node = flow.data.node;
            info.parked_state = None;
            info.crashed = false;
        }
        match flow.kind {
            MgrKind::Create | MgrKind::Update => {
                info.version = version.clone();
                info.impl_type = impl_type.unwrap_or(info.impl_type);
            }
            MgrKind::Deactivate => {
                info.parked_state = Some(flow.data.held.state.expect("state captured"));
            }
            _ => {}
        }
        if flow.kind == MgrKind::Update {
            self.start_queued_update(ctx, object);
        }
        let address = flow.data.held.new_actor;
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
                ctx.metrics().incr("manager.recoveries");
                // Nobody waits on a recovery; resume the reconfiguration
                // the crash interrupted, if any.
                if let Some(target) = self.interrupted_updates.remove(&object) {
                    self.start_update(ctx, None, object, Some(target), 0);
                }
                return;
            }
        };
        answer(ctx, flow.reply, |call| Msg::control_ok(call, payload));
    }

    fn fail(&mut self, ctx: &mut Ctx<'_, Msg>, flow: MgrFlow, why: String) {
        ctx.metrics().incr("manager.flows_failed");
        if flow.kind == MgrKind::Update {
            self.start_queued_update(ctx, flow.object);
            // Supervised internal updates (proactive pushes) are retried: a
            // lost reply must not strand an instance behind the current
            // version.
            let retries = flow.data.retries;
            if flow.reply.is_none() && retries < 5 {
                let token = ctx.fresh_u64();
                self.retry_updates
                    .insert(token, (flow.object, flow.data.version, retries + 1));
                ctx.schedule_timer(dcdo_sim::SimDuration::from_secs(1), token);
                return;
            }
        }
        answer(ctx, flow.reply, |call| Msg::refused(call, why));
    }
}

impl LegionObject for DcdoManager {
    type Ops<'a> = ManagerOp<'a>;

    fn object_id(&self) -> ObjectId {
        self.object
    }

    fn control(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: ActorId,
        call: CallId,
        op: ManagerOp<'_>,
    ) -> Served {
        let flow = Some((from, call));
        let reply = match op {
            ManagerOp::CreateDcdo(create) => {
                self.start_flow(ctx, MgrKind::Create, flow, None, Some(create.node));
                return Served::Later;
            }
            ManagerOp::UpdateInstance(update) => {
                self.start_update(ctx, flow, update.object, update.to.clone(), 0);
                return Served::Later;
            }
            ManagerOp::MigrateDcdo(mig) => {
                self.start_flow(ctx, MgrKind::Migrate, flow, Some(mig.object), Some(mig.to));
                return Served::Later;
            }
            ManagerOp::DeactivateDcdo(de) => {
                self.start_flow(ctx, MgrKind::Deactivate, flow, Some(de.object), None);
                return Served::Later;
            }
            ManagerOp::ActivateDcdo(act) => {
                self.start_flow(ctx, MgrKind::Activate, flow, Some(act.object), act.node);
                return Served::Later;
            }
            ManagerOp::CheckpointDcdo(cp) => {
                self.start_flow(ctx, MgrKind::Checkpoint, flow, Some(cp.object), None);
                return Served::Later;
            }
            ManagerOp::ConfigureVersion(cfg) => return self.configure(ctx, from, call, cfg),
            ManagerOp::NodeFailed(nf) => self.node_failed(ctx, call, nf.node),
            ManagerOp::NodeRecovered(nr) => self.node_recovered(ctx, call, nr.node),
            ManagerOp::SetGroupEpoch(set) => self.set_group_epoch(ctx, call, set),
            ManagerOp::DeriveVersion(derive) => match self.derive_version(&derive.from) {
                Ok(version) => Msg::control_ok(call, DerivedVersion { version }),
                Err(e) => Msg::refused(call, e),
            },
            ManagerOp::MarkInstantiable(mark) => {
                ack_or_refuse(call, self.mark_instantiable(&mark.version))
            }
            ManagerOp::SetCurrentVersion(set) => match self.instantiable_entry(&set.version) {
                Ok(_) => {
                    self.current = set.version.clone();
                    if self.propagation == UpdatePropagation::Proactive {
                        let instances: Vec<ObjectId> = self
                            .table
                            .iter()
                            .filter(|(_, i)| i.version != self.current)
                            .map(|(o, _)| *o)
                            .collect();
                        for object in instances {
                            self.start_update(ctx, None, object, None, 0);
                        }
                    }
                    Msg::control_ok(call, Ack)
                }
                Err(e) => Msg::refused(call, e),
            },
            ManagerOp::CheckVersion(check) => {
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
            }
            ManagerOp::ReportVersion(report) => {
                if let Some(info) = self.table.get_mut(&report.object) {
                    info.version = report.version.clone();
                }
                Msg::control_ok(call, Ack)
            }
            ManagerOp::ListVersions(_) => Msg::control_ok(
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
            ),
            ManagerOp::ListDcdos(_) => Msg::control_ok(
                call,
                DcdoTable {
                    entries: self.instances(),
                },
            ),
            ManagerOp::QueryVersionInfo(q) => match self.entry(&q.version) {
                Ok(entry) => Msg::control_ok(
                    call,
                    VersionInfo {
                        version: q.version.clone(),
                        instantiable: entry.instantiable,
                        descriptor: entry.descriptor.clone(),
                    },
                ),
                Err(e) => Msg::refused(call, e),
            },
        };
        Served::Reply(reply)
    }

    fn rpc(&mut self) -> Option<&mut RpcClient> {
        Some(&mut self.rpc)
    }

    fn completed(&mut self, ctx: &mut Ctx<'_, Msg>, completion: RpcCompletion) {
        self.handle_rpc_completion(ctx, completion);
    }

    fn timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        if let Some((object, version, attempt)) = self.retry_updates.remove(&token) {
            self.start_update(ctx, None, object, Some(version), attempt);
            return;
        }
        self.plan_timer(ctx, token);
    }
}

impl Actor<Msg> for DcdoManager {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
        object::deliver(self, ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        object::fire(self, ctx, token);
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
    use super::{MgrKind, Step};

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
        assert_eq!(Update.plan().steps, [Step::Apply]);
    }
}
