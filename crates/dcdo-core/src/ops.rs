//! The control-operation vocabulary of the DCDO model.
//!
//! These are the wire payloads of the three object types' interfaces:
//! ICO reads (§2.3), DCDO configuration and status-reporting functions
//! (§2.2), and DCDO Manager operations (§2.4). Names follow the paper
//! (`incorporateComponent()`, `enableFunction()`, …).

use std::rc::Rc;

use dcdo_sim::SimDuration;
use dcdo_types::{
    ComponentId, Dependency, FunctionName, FunctionSignature, ImplementationType, ObjectId,
    Protection, VersionId, Visibility,
};
use dcdo_vm::{ComponentBinary, ComponentDescriptor};
use legion_substrate::control_ops;
use serde::{Deserialize, Serialize};

use crate::descriptor::DfmDescriptor;

// ---- ICO operations (§2.3) -------------------------------------------------

/// Reads the component's full data (descriptor + code). The ICO answers
/// after the component-transfer time for its size.
#[derive(Debug, Clone)]
pub struct ReadComponent;

/// Reply to [`ReadComponent`].
#[derive(Debug, Clone)]
pub struct ComponentPayload {
    /// The component, shared with the ICO that maintains it.
    pub binary: Rc<ComponentBinary>,
}

/// Reads only the component's descriptor (metadata).
#[derive(Debug, Clone)]
pub struct ReadComponentDescriptor;

/// Reply to [`ReadComponentDescriptor`].
#[derive(Debug, Clone)]
pub struct ComponentDescriptorReply {
    /// The component's metadata.
    pub descriptor: ComponentDescriptor,
}

control_ops! {
    /// The reads an ICO serves.
    pub enum IcoOp {
        ReadComponent = "read-component", 64;
        ReadComponentDescriptor = "read-component-descriptor", 64;
    }

    /// An ICO's replies.
    pub enum IcoReply {
        // The transfer cost is charged by the ICO's reply delay; the message
        // itself carries a nominal header size to avoid double-charging the
        // network model.
        ComponentPayload = "component-payload", 64;
        ComponentDescriptorReply = "component-descriptor-reply",
            |op| 256 + op.descriptor.functions.len() as u64 * 48;
    }
}

// ---- DCDO configuration functions (§2.2) ------------------------------------

/// `incorporateComponent()`: fetch the component maintained by `ico` and
/// map it into the DCDO.
#[derive(Debug, Clone)]
pub struct IncorporateComponent {
    /// The ICO maintaining the component.
    pub ico: ObjectId,
}

/// `removeComponent()`: remove an incorporated component, subject to the
/// thread-activity policy (§3.2).
#[derive(Debug, Clone)]
pub struct RemoveComponent {
    /// The component to remove.
    pub component: ComponentId,
}

/// `enableFunction()`: enable (or switch to) the implementation of
/// `function` in `component`.
#[derive(Debug, Clone)]
pub struct EnableFunction {
    /// The function.
    pub function: FunctionName,
    /// The component providing the implementation.
    pub component: ComponentId,
}

/// `disableFunction()`: disallow future calls to `function`.
#[derive(Debug, Clone)]
pub struct DisableFunction {
    /// The function to disable.
    pub function: FunctionName,
}

/// Strengthens a function's protection on the live object.
#[derive(Debug, Clone)]
pub struct SetFunctionProtection {
    /// The function.
    pub function: FunctionName,
    /// The new (stronger) protection.
    pub protection: Protection,
}

/// Declares a dependency on the live object.
#[derive(Debug, Clone)]
pub struct AddFunctionDependency {
    /// The dependency.
    pub dependency: Dependency,
}

/// Retracts a dependency on the live object.
#[derive(Debug, Clone)]
pub struct RemoveFunctionDependency {
    /// The dependency.
    pub dependency: Dependency,
}

/// Bulk evolution: reconfigure the DCDO to match `descriptor`, fetching any
/// missing components from their ICOs first. This is the operation DCDO
/// Managers use to evolve their instances.
#[derive(Debug, Clone)]
pub struct ApplyDfmDescriptor {
    /// The target configuration, shared with the manager's version store.
    pub descriptor: Rc<DfmDescriptor>,
}

/// Thread-activity policy for component removal (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RemovalPolicy {
    /// Refuse removal while any thread is inside the component.
    Refuse,
    /// Delay the removal until all thread counts reach zero.
    DelayUntilIdle,
    /// Wait up to the given grace period, then abort remaining threads and
    /// remove anyway.
    ForceAfter(SimDuration),
}

/// Configures the DCDO's removal policy.
#[derive(Debug, Clone)]
pub struct SetRemovalPolicy {
    /// The policy to apply to subsequent removals.
    pub policy: RemovalPolicy,
}

/// When a DCDO checks its manager for a newer version (the lazy update
/// policies of §3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LazyCheck {
    /// Never check (updates arrive only by push or explicit request).
    Never,
    /// Check on every invocation (strict consistency).
    EveryCall,
    /// Check once every `k` invocations.
    EveryKCalls(u32),
    /// Check at most once per period.
    Every(SimDuration),
}

/// Configures the DCDO's lazy update checking.
#[derive(Debug, Clone)]
pub struct SetLazyCheck {
    /// The checking mode.
    pub mode: LazyCheck,
}

// ---- DCDO status-reporting functions (§2.2) ---------------------------------

/// Returns the object's exported interface.
#[derive(Debug, Clone)]
pub struct QueryInterface;

/// Reply to [`QueryInterface`]: the object's descriptor as it stood when
/// it answered, shared, not copied (the DFM copies its own on its next
/// mutation).
#[derive(Debug, Clone)]
pub struct InterfaceReport {
    /// The answering object's descriptor.
    pub descriptor: Rc<DfmDescriptor>,
}

impl InterfaceReport {
    /// Exported, enabled functions: signature and protection.
    pub fn functions(&self) -> impl Iterator<Item = (&FunctionSignature, Protection)> {
        self.descriptor.exported_interface()
    }
}

/// Returns the object's implementation status.
#[derive(Debug, Clone)]
pub struct QueryImplementation;

/// Reply to [`QueryImplementation`].
#[derive(Debug, Clone)]
pub struct ImplementationReport {
    /// The version identifier of the current implementation (§2.1).
    pub version: VersionId,
    /// Incorporated components.
    pub components: Vec<ComponentId>,
    /// The object's implementation type.
    pub impl_type: ImplementationType,
    /// Number of dynamic functions known to the DFM.
    pub function_count: usize,
}

/// Returns one function's status.
#[derive(Debug, Clone)]
pub struct QueryFunctionStatus {
    /// The function asked about.
    pub function: FunctionName,
}

/// Reply to [`QueryFunctionStatus`].
#[derive(Debug, Clone)]
pub struct FunctionStatusReport {
    /// The function asked about.
    pub function: FunctionName,
    /// Whether any implementation exists.
    pub present: bool,
    /// Whether an implementation is enabled, and in which component.
    pub enabled: Option<ComponentId>,
    /// Visibility, if present.
    pub visibility: Option<Visibility>,
    /// Protection, if present.
    pub protection: Option<Protection>,
    /// Active threads across all implementations of the function.
    pub active_threads: u32,
    /// Components providing an implementation.
    pub implementations: Vec<ComponentId>,
}

control_ops! {
    /// The configuration and status-reporting functions a DCDO serves
    /// (§2.2).
    pub enum DcdoOp {
        IncorporateComponent = "incorporate-component", 64;
        RemoveComponent = "remove-component", 64;
        EnableFunction = "enable-function", 64;
        DisableFunction = "disable-function", 64;
        SetFunctionProtection = "set-function-protection", 64;
        AddFunctionDependency = "add-function-dependency", 64;
        RemoveFunctionDependency = "remove-function-dependency", 64;
        ApplyDfmDescriptor = "apply-dfm-descriptor", |op| 256
            + op.descriptor.function_count() as u64 * 48
            + op.descriptor.component_count() as u64 * 64;
        SetRemovalPolicy = "set-removal-policy", 64;
        SetLazyCheck = "set-lazy-check", 64;
        QueryInterface = "query-interface", 64;
        QueryImplementation = "query-implementation", 64;
        QueryFunctionStatus = "query-function-status", 64;
    }

    /// A DCDO's status reports.
    pub enum DcdoReply {
        // Each function travels as its rendered signature and protection.
        InterfaceReport = "interface-report",
            |op| 64 + op.functions().map(|(sig, _)| sig.rendered_len() as u64 + 8).sum::<u64>();
        ImplementationReport = "implementation-report", 64;
        FunctionStatusReport = "function-status-report", 64;
    }
}

// ---- DCDO Manager operations (§2.4) -----------------------------------------

/// Derives a new **configurable** version from an existing one.
#[derive(Debug, Clone)]
pub struct DeriveVersion {
    /// The version to derive from.
    pub from: VersionId,
}

/// Reply to [`DeriveVersion`].
#[derive(Debug, Clone)]
pub struct DerivedVersion {
    /// The fresh configurable version.
    pub version: VersionId,
}

/// A configuration step applied to a configurable version's descriptor.
#[derive(Debug, Clone)]
pub enum VersionConfigOp {
    /// Incorporate the component maintained by the given ICO.
    IncorporateComponent {
        /// The ICO maintaining the component.
        ico: ObjectId,
    },
    /// Remove a component.
    RemoveComponent {
        /// The component.
        component: ComponentId,
    },
    /// Enable an implementation.
    EnableFunction {
        /// The function.
        function: FunctionName,
        /// The providing component.
        component: ComponentId,
    },
    /// Disable a function.
    DisableFunction {
        /// The function.
        function: FunctionName,
    },
    /// Strengthen a protection.
    SetProtection {
        /// The function.
        function: FunctionName,
        /// The new protection.
        protection: Protection,
    },
    /// Declare a dependency.
    AddDependency {
        /// The dependency.
        dependency: Dependency,
    },
    /// Retract a dependency.
    RemoveDependency {
        /// The dependency.
        dependency: Dependency,
    },
    /// Change a function's visibility.
    SetVisibility {
        /// The function.
        function: FunctionName,
        /// The new visibility.
        visibility: Visibility,
    },
}

/// Applies one [`VersionConfigOp`] to a configurable version.
#[derive(Debug, Clone)]
pub struct ConfigureVersion {
    /// The configurable version to modify.
    pub version: VersionId,
    /// The operation.
    pub op: VersionConfigOp,
}

/// Marks a configurable version **instantiable**, freezing it (§2.4).
#[derive(Debug, Clone)]
pub struct MarkInstantiable {
    /// The version to freeze.
    pub version: VersionId,
}

/// Designates the manager's current version (single-version managers
/// evolve all instances toward it, §3.4).
#[derive(Debug, Clone)]
pub struct SetCurrentVersion {
    /// The instantiable version to make current.
    pub version: VersionId,
}

/// Creates a new DCDO reflecting the current version.
#[derive(Debug, Clone)]
pub struct CreateDcdo {
    /// The node to place it on.
    pub node: dcdo_sim::NodeId,
}

/// Reply to [`CreateDcdo`].
#[derive(Debug, Clone)]
pub struct DcdoCreated {
    /// The new DCDO's identity.
    pub object: ObjectId,
    /// Its physical address.
    pub address: dcdo_sim::ActorId,
    /// The version it reflects.
    pub version: VersionId,
}

/// `updateInstance()`: explicitly evolve one DCDO (§3.4's explicit policy;
/// multi-version managers accept an explicit target).
#[derive(Debug, Clone)]
pub struct UpdateInstance {
    /// The DCDO to evolve.
    pub object: ObjectId,
    /// The target version; `None` means the manager's current version.
    pub to: Option<VersionId>,
}

/// Reply to [`UpdateInstance`] (and to internally triggered updates).
#[derive(Debug, Clone)]
pub struct UpdateDone {
    /// The DCDO evolved.
    pub object: ObjectId,
    /// The version it now reflects.
    pub version: VersionId,
}

/// A DCDO asking its manager whether it is out of date (lazy policies).
#[derive(Debug, Clone)]
pub struct CheckVersion {
    /// The asking DCDO.
    pub object: ObjectId,
    /// The version it currently reflects.
    pub current: VersionId,
}

/// Reply to [`CheckVersion`].
#[derive(Debug, Clone)]
pub struct VersionCheckReply {
    /// `true` if the asking DCDO is already at the version the manager
    /// wants it at.
    pub up_to_date: bool,
    /// The descriptor to evolve to, when out of date.
    pub descriptor: Option<Rc<DfmDescriptor>>,
}

/// Migrates a DCDO to another node at its current version. Unlike
/// evolution, migration does change the instance's physical address, so
/// clients pay stale-binding discovery afterwards.
#[derive(Debug, Clone)]
pub struct MigrateDcdo {
    /// The instance to migrate.
    pub object: ObjectId,
    /// The destination node.
    pub to: dcdo_sim::NodeId,
}

/// Reply to [`MigrateDcdo`].
#[derive(Debug, Clone)]
pub struct MigrateDone {
    /// The migrated instance.
    pub object: ObjectId,
    /// Its new physical address.
    pub address: dcdo_sim::ActorId,
    /// The version it reflects (unchanged by migration).
    pub version: VersionId,
}

/// Deactivates a DCDO: its state is captured and parked in the manager's
/// table, its process exits, and its binding is removed. Legion objects are
/// routinely deactivated when idle (§1: applications must be constantly
/// *available*, not constantly resident).
#[derive(Debug, Clone)]
pub struct DeactivateDcdo {
    /// The instance to deactivate.
    pub object: ObjectId,
}

/// Reactivates a previously deactivated DCDO: a fresh process is created
/// (optionally on a different node), brought to the instance's version,
/// restored from the parked state, and re-registered.
#[derive(Debug, Clone)]
pub struct ActivateDcdo {
    /// The instance to reactivate.
    pub object: ObjectId,
    /// Where to place it; `None` keeps its previous node.
    pub node: Option<dcdo_sim::NodeId>,
}

/// A DCDO reporting the version it now reflects (sent after a
/// lazily-triggered evolution completes, so the manager's DCDO table stays
/// accurate).
#[derive(Debug, Clone)]
pub struct ReportVersion {
    /// The reporting DCDO.
    pub object: ObjectId,
    /// The version it now reflects.
    pub version: VersionId,
}

/// Lists the DCDOs under the manager's control (the DCDO table, §2.4).
#[derive(Debug, Clone)]
pub struct ListDcdos;

/// Reply to [`ListDcdos`].
#[derive(Debug, Clone)]
pub struct DcdoTable {
    /// `(object, version, implementation type)` per instance.
    pub entries: Vec<(ObjectId, VersionId, ImplementationType)>,
}

/// Lists every version in the manager's DFM store.
#[derive(Debug, Clone)]
pub struct ListVersions;

/// Reply to [`ListVersions`].
#[derive(Debug, Clone)]
pub struct VersionTable {
    /// Per stored version: `(version, instantiable, components, functions)`,
    /// in version-tree order.
    pub entries: Vec<(VersionId, bool, usize, usize)>,
    /// The manager's current version.
    pub current: VersionId,
}

/// Queries one stored version's status.
#[derive(Debug, Clone)]
pub struct QueryVersionInfo {
    /// The version asked about.
    pub version: VersionId,
}

/// Reply to [`QueryVersionInfo`].
#[derive(Debug, Clone)]
pub struct VersionInfo {
    /// The version asked about.
    pub version: VersionId,
    /// Whether it is instantiable (frozen) or still configurable.
    pub instantiable: bool,
    /// Its descriptor, shared with the manager's version store.
    pub descriptor: Rc<DfmDescriptor>,
}

/// Checkpoints a DCDO: its state is captured and persisted in the
/// manager's vault *without* disturbing the running process. A checkpointed
/// instance can be rebuilt after a host crash ([`NodeRecovered`]).
#[derive(Debug, Clone)]
pub struct CheckpointDcdo {
    /// The instance to checkpoint.
    pub object: ObjectId,
}

/// Reply to [`CheckpointDcdo`].
#[derive(Debug, Clone)]
pub struct DcdoCheckpointed {
    /// The checkpointed instance.
    pub object: ObjectId,
    /// The version the persisted snapshot reflects.
    pub version: VersionId,
}

/// Notifies the manager that a host crashed. Instances resident there are
/// marked crashed (refusing further reconfiguration until recovered) and
/// every in-flight flow touching the host is aborted; interrupted internal
/// updates are remembered and resumed after recovery.
#[derive(Debug, Clone)]
pub struct NodeFailed {
    /// The crashed host.
    pub node: dcdo_sim::NodeId,
}

/// Reply to [`NodeFailed`].
#[derive(Debug, Clone)]
pub struct NodeFailureReport {
    /// Instances marked crashed (they were resident on the failed host).
    pub crashed: Vec<ObjectId>,
    /// Objects whose in-flight reconfiguration flows were aborted.
    pub aborted: Vec<ObjectId>,
}

/// Notifies the manager that a crashed host is back. Every crashed
/// instance previously resident there is rebuilt from its vault snapshot
/// (fresh process at the instance's version, state restored, binding
/// re-registered); updates interrupted by the crash then resume.
#[derive(Debug, Clone)]
pub struct NodeRecovered {
    /// The recovered host.
    pub node: dcdo_sim::NodeId,
}

/// Reply to [`NodeRecovered`].
#[derive(Debug, Clone)]
pub struct RecoveryStarted {
    /// Instances whose recovery flows were launched.
    pub objects: Vec<ObjectId>,
}

// ---- Group epoch gating ------------------------------------------------------

/// A group coordinator pinning the manager to a reconfiguration epoch.
///
/// With `fence: true` (the prepare half of an epoch round) the manager
/// refuses to *start* new evolution flows until the matching commit arrives
/// with `fence: false`; in-flight flows drain normally. Stale epochs —
/// anything below the manager's recorded epoch — are refused outright, so a
/// partitioned coordinator cannot drag a manager backwards.
#[derive(Debug, Clone)]
pub struct SetGroupEpoch {
    /// The reconfiguring group.
    pub group: u64,
    /// The epoch being prepared or committed.
    pub epoch: u64,
    /// `true` fences evolution (prepare); `false` adopts (commit).
    pub fence: bool,
}

/// Reply to [`SetGroupEpoch`]: the manager's view of its group enrolment.
#[derive(Debug, Clone)]
pub struct GroupEpochReport {
    /// The group the manager is enrolled in.
    pub group: u64,
    /// The epoch the manager is at.
    pub epoch: u64,
    /// Whether evolution is currently fenced.
    pub fenced: bool,
    /// Evolution requests refused while fenced, cumulative.
    pub refused_while_fenced: u64,
}

control_ops! {
    /// The operations a DCDO Manager serves (§2.4), and the group epoch
    /// gate.
    pub enum ManagerOp {
        DeriveVersion = "derive-version", 64;
        ConfigureVersion = "configure-version", 64;
        MarkInstantiable = "mark-instantiable", 64;
        SetCurrentVersion = "set-current-version", 64;
        CreateDcdo = "create-dcdo", 64;
        UpdateInstance = "update-instance", 64;
        CheckVersion = "check-version", 64;
        MigrateDcdo = "migrate-dcdo", 64;
        DeactivateDcdo = "deactivate-dcdo", 64;
        ActivateDcdo = "activate-dcdo", 64;
        ReportVersion = "report-version", 64;
        ListDcdos = "list-dcdos", 64;
        ListVersions = "list-versions", 64;
        QueryVersionInfo = "query-version-info", 64;
        CheckpointDcdo = "checkpoint-dcdo", 64;
        NodeFailed = "node-failed", 64;
        NodeRecovered = "node-recovered", 64;
        SetGroupEpoch = "set-group-epoch", 64;
    }

    /// A DCDO Manager's replies.
    pub enum ManagerReply {
        DerivedVersion = "derived-version", 64;
        DcdoCreated = "dcdo-created", 64;
        UpdateDone = "update-done", 64;
        VersionCheckReply = "version-check-reply", |op| 64 + op.descriptor.as_ref().map_or(0, |d| {
            d.function_count() as u64 * 48 + d.component_count() as u64 * 64
        });
        MigrateDone = "migrate-done", 64;
        DcdoTable = "dcdo-table", |op| 64 + op.entries.len() as u64 * 48;
        VersionTable = "version-table", |op| 64 + op.entries.len() as u64 * 32;
        VersionInfo = "version-info", |op| 64 + op.descriptor.function_count() as u64 * 48;
        DcdoCheckpointed = "dcdo-checkpointed", 64;
        NodeFailureReport = "node-failure-report",
            |op| 32 + (op.crashed.len() + op.aborted.len()) as u64 * 16;
        RecoveryStarted = "recovery-started", |op| 32 + op.objects.len() as u64 * 16;
        GroupEpochReport = "group-epoch-report", 64;
    }
}

#[cfg(test)]
mod tests {
    use legion_substrate::{ControlOp, ControlPayload, OpTable};

    use super::*;

    #[test]
    fn payloads_downcast_and_describe() {
        let op: ControlOp = ControlOp::new(EnableFunction {
            function: "f".into(),
            component: ComponentId::from_raw(1),
        });
        assert_eq!(op.describe(), "enable-function");
        assert!(matches!(
            DcdoOp::decode(&op),
            Some(DcdoOp::EnableFunction(e)) if e.function.as_str() == "f"
        ));
        assert!(ManagerOp::decode(&op).is_none());
    }

    #[test]
    fn descriptor_carrying_payloads_scale_wire_size() {
        let empty = ApplyDfmDescriptor {
            descriptor: DfmDescriptor::new("1".parse().expect("v")).into(),
        };
        assert_eq!(ControlPayload::wire_size(&empty), 256);
    }

    #[test]
    fn removal_policy_and_lazy_check_are_plain_data() {
        assert_eq!(RemovalPolicy::Refuse, RemovalPolicy::Refuse);
        assert_ne!(LazyCheck::EveryCall, LazyCheck::EveryKCalls(3),);
        let forced = RemovalPolicy::ForceAfter(SimDuration::from_secs(2));
        assert!(matches!(forced, RemovalPolicy::ForceAfter(d) if d.as_nanos() == 2_000_000_000));
    }
}
