//! Span identifiers and the typed event taxonomy.

use std::fmt;
use std::num::NonZeroU64;

use crate::hash::IdMap;

/// Sentinel node value for events not attributable to any node (driver-side
/// topology changes, for example).
pub const NO_NODE: u32 = u32::MAX;

/// Identifies one span event within a [`TraceLog`](crate::TraceLog).
///
/// Standalone [`emit`](crate::TraceLog::emit) calls assign dense sequence
/// numbers starting at 1. Producers that append pre-built events through
/// [`push_event`](crate::TraceLog::push_event) — like the simulation
/// engine, which mints ids per lane — supply their own nonzero ids instead;
/// log position, not id value, is the total order over a mixed log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(NonZeroU64);

impl SpanId {
    /// Creates a span id from a raw non-zero value.
    pub fn from_raw(raw: u64) -> Option<Self> {
        NonZeroU64::new(raw).map(SpanId)
    }

    /// Returns the raw value.
    pub fn as_raw(self) -> u64 {
        self.0.get()
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "span:{}", self.0)
    }
}

/// The network's verdict for a message at send time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendVerdict {
    /// Planned for a single delivery.
    Sent,
    /// Planned for double delivery (duplicate fault injection).
    SentTwice,
    /// Dropped by loss injection.
    Lost,
    /// Dropped because an endpoint was down or partitioned away.
    Unreachable,
}

impl SendVerdict {
    /// A stable small integer code (used in the digest and exporters).
    pub const fn code(self) -> u64 {
        match self {
            SendVerdict::Sent => 0,
            SendVerdict::SentTwice => 1,
            SendVerdict::Lost => 2,
            SendVerdict::Unreachable => 3,
        }
    }

    /// A stable short name.
    pub const fn name(self) -> &'static str {
        match self {
            SendVerdict::Sent => "sent",
            SendVerdict::SentTwice => "sent_twice",
            SendVerdict::Lost => "lost",
            SendVerdict::Unreachable => "unreachable",
        }
    }

    /// Returns `true` if at least one delivery was planned.
    pub const fn delivers(self) -> bool {
        matches!(self, SendVerdict::Sent | SendVerdict::SentTwice)
    }
}

/// How an RPC retry chain terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcOutcome {
    /// The call completed with a reply (possibly an application-level error).
    Ok,
    /// The call completed with an application-typed fault (e.g. refused).
    Fault,
    /// The call terminated with the typed `Unreachable` fault.
    Unreachable,
    /// The call terminated with the typed `Timeout` fault.
    Timeout,
}

impl RpcOutcome {
    /// A stable small integer code (used in the digest and exporters).
    pub const fn code(self) -> u64 {
        match self {
            RpcOutcome::Ok => 0,
            RpcOutcome::Fault => 1,
            RpcOutcome::Unreachable => 2,
            RpcOutcome::Timeout => 3,
        }
    }

    /// A stable short name.
    pub const fn name(self) -> &'static str {
        match self {
            RpcOutcome::Ok => "ok",
            RpcOutcome::Fault => "fault",
            RpcOutcome::Unreachable => "unreachable",
            RpcOutcome::Timeout => "timeout",
        }
    }
}

/// The semantic kind of a traced flow (manager or object side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowKind {
    /// Instance creation.
    Create,
    /// Implementation update / evolution.
    Update,
    /// Migration between hosts.
    Migrate,
    /// Deactivation to the vault.
    Deactivate,
    /// Reactivation from the vault.
    Activate,
    /// Checkpoint to the vault.
    Checkpoint,
    /// Crash recovery from the vault.
    Recover,
    /// Object-local configuration change (incorporate/apply/remove/disable).
    Config,
    /// Group epoch round (propose → prepare/ack → commit or abort).
    Epoch,
    /// A class object creating a monolithic instance.
    ClassCreate,
    /// A class object replacing an instance with its current image.
    ClassEvolve,
    /// A class object moving an instance to another node.
    ClassMigrate,
    /// A class object parking an instance's state in its vault.
    ClassCheckpoint,
    /// A class object bringing a crashed instance back from its vault.
    ClassReactivate,
}

impl FlowKind {
    /// A stable small integer code (used in the digest and exporters): the
    /// declaration order, so a new kind is only ever appended.
    pub const fn code(self) -> u64 {
        self as u64
    }

    /// A stable short name.
    pub const fn name(self) -> &'static str {
        match self {
            FlowKind::Create => "create",
            FlowKind::Update => "update",
            FlowKind::Migrate => "migrate",
            FlowKind::Deactivate => "deactivate",
            FlowKind::Activate => "activate",
            FlowKind::Checkpoint => "checkpoint",
            FlowKind::Recover => "recover",
            FlowKind::Config => "config",
            FlowKind::Epoch => "epoch",
            FlowKind::ClassCreate => "class_create",
            FlowKind::ClassEvolve => "class_evolve",
            FlowKind::ClassMigrate => "class_migrate",
            FlowKind::ClassCheckpoint => "class_checkpoint",
            FlowKind::ClassReactivate => "class_reactivate",
        }
    }

    /// Human name of a `FlowStep` code within this kind of flow: the
    /// [`cfg_step`] vocabulary for object-local [`FlowKind::Config`] flows,
    /// the [`mgr_step`] vocabulary for every lifecycle kind (the class
    /// object's included).
    pub fn step_name(self, code: u32) -> &'static str {
        let names: &[&str] = match self {
            FlowKind::Config => &cfg_step::NAMES,
            _ => &mgr_step::NAMES,
        };
        names.get(code as usize).copied().unwrap_or("unknown")
    }
}

/// Wire-stable `FlowStep` codes of the lifecycle flows: the DCDO Manager's
/// (create, update, migrate, deactivate, activate, checkpoint, recover) and
/// the class object's (`class_*`), which share one step vocabulary. The
/// profiler keys its per-step latency tables on them and the span digests
/// cover them, so a code is never renumbered.
pub mod mgr_step {
    /// Capturing the running instance's state.
    pub const CAPTURE: u32 = 0;
    /// Stopping the instance's process.
    pub const DEACTIVATE: u32 = 1;
    /// Removing the instance's binding.
    pub const UNREGISTER: u32 = 2;
    /// Creating a fresh process (timer).
    pub const SPAWN: u32 = 3;
    /// Registering the (new) address with the binding agent.
    pub const REGISTER: u32 = 4;
    /// Applying the flow's DFM descriptor to the process.
    pub const APPLY: u32 = 5;
    /// Restoring captured, parked or loaded state into the process.
    pub const RESTORE: u32 = 6;
    /// Persisting the captured state in the vault.
    pub const SAVE_VAULT: u32 = 7;
    /// Loading the instance's snapshot from the vault.
    pub const LOAD_VAULT: u32 = 8;
    /// Downloading the executable image to the target host (timer).
    pub const DOWNLOAD: u32 = 9;
    /// Paying for the state capture (timer).
    pub const CAPTURE_COST: u32 = 10;
    /// Paying for the state restore (timer).
    pub const RESTORE_COST: u32 = 11;

    /// Step names, indexed by code.
    pub(super) const NAMES: [&str; 12] = [
        "capture",
        "deactivate",
        "unregister",
        "spawn",
        "register",
        "apply",
        "restore",
        "save_vault",
        "load_vault",
        "download",
        "capture_cost",
        "restore_cost",
    ];
}

/// Wire-stable `FlowStep` codes of object-local [`FlowKind::Config`] flows:
/// the staged fetch pipeline, the removal gate, and the final semantic
/// application. Never renumbered, like [`mgr_step`].
pub mod cfg_step {
    /// Reading the component descriptor from the ICO.
    pub const DESCRIPTOR: u32 = 0;
    /// Consulting the local host's component cache.
    pub const HOST_CHECK: u32 = 1;
    /// Downloading the component data from the ICO.
    pub const ICO_READ: u32 = 2;
    /// Writing the downloaded data into the local host cache.
    pub const HOST_STORE: u32 = 3;
    /// Mapping the component into the address space (timer).
    pub const MAP: u32 = 4;
    /// Checking the thread-activity gate (may repeat on rechecks).
    pub const GATE: u32 = 5;
    /// Applying the semantic configuration change.
    pub const APPLY: u32 = 6;

    /// Step names, indexed by code.
    pub(super) const NAMES: [&str; 7] = [
        "descriptor",
        "host_check",
        "ico_read",
        "host_store",
        "map",
        "gate",
        "apply",
    ];
}

/// A `Copy` handle to one [`SpanKind::PartitionChanged`] group vector, held
/// in the [`SpanArena`] of the log that recorded the span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupsRef {
    start: u32,
    len: u32,
}

impl GroupsRef {
    /// The number of raw node ids the partition assigns a group.
    pub(crate) const fn len(self) -> usize {
        self.len as usize
    }
}

/// A `Copy` handle to one [`SpanKind::VmCost`] function hash, held in the
/// [`SpanArena`] of the log that recorded the span: the arena's 16-bit
/// index of the hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FnRef(u16);

/// Append-only storage for what a span record does not hold in place, so
/// the record itself stays a fixed-size `Copy` value: the group vectors of
/// a log's [`SpanKind::PartitionChanged`] spans, and each distinct function
/// hash its [`SpanKind::VmCost`] spans name, once.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SpanArena {
    groups: Vec<u32>,
    functions: Vec<u64>,
    function_of: IdMap<u64, FnRef>,
}

impl SpanArena {
    /// Stores `groups` and returns the handle a span carries.
    pub fn push(&mut self, groups: &[u32]) -> GroupsRef {
        let start = u32::try_from(self.groups.len()).expect("group arena exceeds u32");
        let len = u32::try_from(groups.len()).expect("partition exceeds u32 nodes");
        self.groups.extend_from_slice(groups);
        GroupsRef { start, len }
    }

    /// The group vector behind `groups`.
    ///
    /// # Panics
    ///
    /// Panics if `groups` was issued by another arena and reaches past this
    /// one's end.
    pub fn get(&self, groups: GroupsRef) -> &[u32] {
        &self.groups[groups.start as usize..][..groups.len()]
    }

    /// The handle of function hash `hash`, stored at its first sight.
    ///
    /// # Panics
    ///
    /// Panics if `hash` is new and the arena already holds 2^16 distinct
    /// hashes: a handle is never wrapped onto another function.
    pub fn intern_function(&mut self, hash: u64) -> FnRef {
        if let Some(&function) = self.function_of.get(&hash) {
            return function;
        }
        let function =
            FnRef(u16::try_from(self.functions.len()).expect("function arena holds 2^16 hashes"));
        self.functions.push(hash);
        self.function_of.insert(hash, function);
        function
    }

    /// The function hash behind `function`.
    ///
    /// # Panics
    ///
    /// Panics if `function` was issued by another arena and reaches past
    /// this one's end.
    pub fn function(&self, function: FnRef) -> u64 {
        self.functions[usize::from(function.0)]
    }

    /// Forgets every stored value (handles issued so far become invalid).
    pub(crate) fn clear(&mut self) {
        self.groups.clear();
        self.functions.clear();
        self.function_of.clear();
    }
}

/// The typed payload of one span event.
///
/// Identifiers are raw integers: `u32` for engine-level actors and nodes,
/// `u64` for the logical ids minted above the engine (objects, calls, flows).
/// Every variant is integer-only so the log digests identically across
/// builds, and at most 24 bytes so the record is a 48-byte `Copy` value: a
/// partition's groups and a VM function's hash live in the log's
/// [`SpanArena`], and fields narrower than the value they carry are built
/// through the constructors below, which say per field whether an
/// out-of-range value saturates or is refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    // ---- engine ---------------------------------------------------------
    /// A message was offered to the network.
    MsgSent {
        /// Sending actor.
        src: u32,
        /// Destination actor.
        dst: u32,
        /// Node of the sender.
        src_node: u32,
        /// Node of the destination.
        dst_node: u32,
        /// What the network decided to do with it.
        verdict: SendVerdict,
        /// Wire size of the payload in bytes, saturating at `u32::MAX`
        /// ([`SpanKind::msg_sent`]).
        bytes: u32,
    },
    /// A message reached a live destination actor.
    MsgDelivered {
        /// Sending actor.
        src: u32,
        /// Destination actor.
        dst: u32,
        /// Node of the destination.
        dst_node: u32,
    },
    /// A message arrived for a dead actor and was dropped.
    MsgDeadLetter {
        /// Sending actor.
        src: u32,
        /// Destination actor.
        dst: u32,
        /// Node of the destination.
        dst_node: u32,
    },
    /// A timer fired.
    TimerFired {
        /// Owning actor.
        actor: u32,
        /// The token passed at scheduling time.
        token: u64,
    },
    /// An actor was spawned.
    ActorSpawned {
        /// The new actor.
        actor: u32,
        /// Its placement.
        node: u32,
    },
    /// An actor was killed.
    ActorKilled {
        /// The dead actor.
        actor: u32,
    },
    /// A node crashed (actors killed, timers swept, traffic dropped).
    NodeCrashed {
        /// The crashed node.
        node: u32,
    },
    /// A crashed node came back up.
    NodeRestarted {
        /// The restarted node.
        node: u32,
    },
    /// A partition was installed; `groups[i]` is the partition group of the
    /// node with raw id `i` (nodes past the end are in group 0).
    PartitionChanged {
        /// Group assignment per raw node id, read through
        /// [`TraceLog::groups`](crate::TraceLog::groups).
        groups: GroupsRef,
    },
    /// Any installed partition was healed.
    PartitionHealed,
    /// A directed link fault was installed.
    LinkFaultSet {
        /// Source node of the faulted link.
        src_node: u32,
        /// Destination node of the faulted link.
        dst_node: u32,
    },
    /// A directed link fault was removed.
    LinkFaultCleared {
        /// Source node of the healed link.
        src_node: u32,
        /// Destination node of the healed link.
        dst_node: u32,
    },
    /// A chaos-plan step was applied (`action` is the plan's step code).
    ChaosFault {
        /// Stable code of the applied fault action.
        action: u32,
        /// The node the fault targets (or [`NO_NODE`]).
        node: u32,
    },

    // ---- RPC / binding --------------------------------------------------
    /// An RPC attempt was put on the wire.
    RpcAttempt {
        /// The call id.
        call: u64,
        /// The logical destination object.
        object: u64,
        /// 1-based attempt number within the retry chain, saturating at
        /// `u16::MAX` ([`SpanKind::rpc_attempt`]).
        attempt: u16,
        /// The physical destination actor tried.
        dst: u32,
    },
    /// An RPC attempt timed out and will be retried.
    RpcRetry {
        /// The call id.
        call: u64,
        /// The attempt that timed out.
        attempt: u32,
    },
    /// A binding cache lookup hit.
    BindingHit {
        /// The object looked up.
        object: u64,
        /// The cached physical actor.
        dst: u32,
    },
    /// A binding cache lookup missed (a query to the binding agent follows).
    BindingMiss {
        /// The object looked up.
        object: u64,
    },
    /// A binding was (re-)registered with the binding agent.
    BindingRegistered {
        /// The object registered.
        object: u64,
        /// The physical actor it binds to.
        dst: u32,
    },
    /// A binding was invalidated (stale address discovered or unregistered).
    BindingInvalidated {
        /// The object whose binding died.
        object: u64,
    },
    /// An RPC retry chain terminated.
    RpcCompleted {
        /// The call id.
        call: u64,
        /// How the chain ended.
        outcome: RpcOutcome,
    },

    // ---- manager / object flows ----------------------------------------
    /// A managed flow started.
    FlowStarted {
        /// The flow id.
        flow: u64,
        /// The object the flow concerns.
        object: u64,
        /// The flow's semantic kind.
        kind: FlowKind,
    },
    /// A flow advanced to a new step (`step` is the layer's own step code).
    FlowStep {
        /// The flow id.
        flow: u64,
        /// Stable code of the step entered.
        step: u32,
    },
    /// A flow finished successfully.
    FlowCompleted {
        /// The flow id.
        flow: u64,
    },
    /// A flow terminated without completing (failure or node loss).
    FlowAborted {
        /// The flow id.
        flow: u64,
    },
    /// An object's DFM reached a new configuration generation.
    GenerationStamp {
        /// The object.
        object: u64,
        /// The generation stamp (globally unique, monotone).
        generation: u64,
    },
    /// An object served an application invocation.
    CallServed {
        /// The serving object.
        object: u64,
        /// The call id served.
        call: u64,
    },
    // ---- group reconfiguration ------------------------------------------
    /// A group coordinator opened an epoch round: the joined batch of
    /// config deltas was broadcast for acknowledgement.
    EpochProposed {
        /// The reconfiguring group.
        group: u64,
        /// The epoch the round advances to on commit; one past `u32::MAX`
        /// is refused ([`SpanKind::epoch_proposed`]).
        epoch: u32,
        /// Digest of the joined delta under proposal.
        config: u64,
    },
    /// A quorum acknowledged the joined epoch and the coordinator committed
    /// it. Epochs must be strictly increasing per group, and no replica may
    /// serve at an older epoch after this point (it is fenced or caught up).
    EpochCommitted {
        /// The reconfiguring group.
        group: u64,
        /// The committed epoch; one past `u32::MAX` is refused
        /// ([`SpanKind::epoch_committed`]).
        epoch: u32,
        /// Digest of the committed configuration.
        config: u64,
    },
    /// A replica adopted a committed epoch (caught up).
    ReplicaEpoch {
        /// The group.
        group: u64,
        /// The adopting replica (member id); one past `u32::MAX` is refused
        /// ([`SpanKind::replica_epoch`]).
        replica: u32,
        /// The epoch adopted.
        epoch: u64,
    },
    /// A group replica served an application call at its current epoch.
    EpochServed {
        /// The group.
        group: u64,
        /// The serving replica (member id); one past `u16::MAX` is refused
        /// ([`SpanKind::epoch_served`]).
        replica: u16,
        /// The epoch the call was served at; one past `u32::MAX` is
        /// refused.
        epoch: u32,
        /// The call id served.
        call: u64,
    },

    /// VM compute attributed to one function while serving a call.
    ///
    /// Emitted (at most once per function per thread) when a VM thread
    /// finishes, enriching the thread's [`SpanKind::CallServed`] span so the
    /// profiler can attribute compute to components. `function` names the
    /// build-independent FNV-1a hash of the function's name (see
    /// [`fn_hash`](crate::fn_hash)) in the log's [`SpanArena`]; the layers
    /// above publish a hash → name table out of band. Build it with
    /// [`SpanKind::vm_cost`].
    VmCost {
        /// The FNV-1a hash of the function name, read through
        /// [`TraceLog::function`](crate::TraceLog::function).
        function: FnRef,
        /// Times the function was entered, saturating at `u32::MAX`.
        calls: u32,
        /// Instructions retired inside the function.
        instructions: u64,
        /// Simulated nanoseconds charged by `Work` instructions inside it.
        work_nanos: u64,
    },
}

/// Calls `$f(name, value)` for each `(name, value)` pair, in order.
macro_rules! fields {
    ($f:ident; $($pair:expr),* $(,)?) => {{
        $(
            let (name, value) = $pair;
            $f(name, value);
        )*
    }};
}

impl SpanKind {
    /// The [`code`](SpanKind::code) of [`MsgDelivered`](SpanKind::MsgDelivered).
    /// This and the next four are the executed engine events the timeline
    /// classifies and the flight recorder's frames carry.
    pub const DELIVERED: u8 = 2;
    /// The code of [`MsgDeadLetter`](SpanKind::MsgDeadLetter).
    pub const DEAD_LETTER: u8 = 3;
    /// The code of [`TimerFired`](SpanKind::TimerFired).
    pub const TIMER: u8 = 4;
    /// The code of [`NodeCrashed`](SpanKind::NodeCrashed).
    pub const CRASH: u8 = 7;
    /// The code of [`NodeRestarted`](SpanKind::NodeRestarted).
    pub const RESTART: u8 = 8;

    /// The executed engine event this span records, as one of the five
    /// codes above and the actor it ran (0 for a node's crash or restart);
    /// `None` for every other kind. The engine accounts exactly these into its timeline and
    /// flight ring, from the span it emits, so both replay from the log.
    #[inline]
    pub const fn executed(&self) -> Option<(u8, u64)> {
        Some(match *self {
            SpanKind::MsgDelivered { dst, .. } => (SpanKind::DELIVERED, dst as u64),
            SpanKind::MsgDeadLetter { dst, .. } => (SpanKind::DEAD_LETTER, dst as u64),
            SpanKind::TimerFired { actor, .. } => (SpanKind::TIMER, actor as u64),
            SpanKind::NodeCrashed { .. } => (SpanKind::CRASH, 0),
            SpanKind::NodeRestarted { .. } => (SpanKind::RESTART, 0),
            _ => return None,
        })
    }

    /// A stable integer code identifying the variant (digest, exporters).
    pub const fn code(&self) -> u64 {
        match self {
            SpanKind::MsgSent { .. } => 1,
            SpanKind::MsgDelivered { .. } => SpanKind::DELIVERED as u64,
            SpanKind::MsgDeadLetter { .. } => SpanKind::DEAD_LETTER as u64,
            SpanKind::TimerFired { .. } => SpanKind::TIMER as u64,
            SpanKind::ActorSpawned { .. } => 5,
            SpanKind::ActorKilled { .. } => 6,
            SpanKind::NodeCrashed { .. } => SpanKind::CRASH as u64,
            SpanKind::NodeRestarted { .. } => SpanKind::RESTART as u64,
            SpanKind::PartitionChanged { .. } => 9,
            SpanKind::PartitionHealed => 10,
            SpanKind::LinkFaultSet { .. } => 11,
            SpanKind::LinkFaultCleared { .. } => 12,
            SpanKind::ChaosFault { .. } => 13,
            SpanKind::RpcAttempt { .. } => 20,
            SpanKind::RpcRetry { .. } => 21,
            SpanKind::BindingHit { .. } => 22,
            SpanKind::BindingMiss { .. } => 23,
            SpanKind::BindingRegistered { .. } => 24,
            SpanKind::BindingInvalidated { .. } => 25,
            SpanKind::RpcCompleted { .. } => 26,
            SpanKind::FlowStarted { .. } => 30,
            SpanKind::FlowStep { .. } => 31,
            SpanKind::FlowCompleted { .. } => 32,
            SpanKind::FlowAborted { .. } => 33,
            SpanKind::GenerationStamp { .. } => 34,
            SpanKind::CallServed { .. } => 35,
            SpanKind::VmCost { .. } => 36,
            SpanKind::EpochProposed { .. } => 40,
            SpanKind::EpochCommitted { .. } => 41,
            SpanKind::ReplicaEpoch { .. } => 42,
            SpanKind::EpochServed { .. } => 43,
        }
    }

    /// A stable event name (Chrome-trace / JSONL `name` field).
    pub const fn name(&self) -> &'static str {
        match self {
            SpanKind::MsgSent { .. } => "msg_sent",
            SpanKind::MsgDelivered { .. } => "msg_delivered",
            SpanKind::MsgDeadLetter { .. } => "msg_dead_letter",
            SpanKind::TimerFired { .. } => "timer_fired",
            SpanKind::ActorSpawned { .. } => "actor_spawned",
            SpanKind::ActorKilled { .. } => "actor_killed",
            SpanKind::NodeCrashed { .. } => "node_crashed",
            SpanKind::NodeRestarted { .. } => "node_restarted",
            SpanKind::PartitionChanged { .. } => "partition_changed",
            SpanKind::PartitionHealed => "partition_healed",
            SpanKind::LinkFaultSet { .. } => "link_fault_set",
            SpanKind::LinkFaultCleared { .. } => "link_fault_cleared",
            SpanKind::ChaosFault { .. } => "chaos_fault",
            SpanKind::RpcAttempt { .. } => "rpc_attempt",
            SpanKind::RpcRetry { .. } => "rpc_retry",
            SpanKind::BindingHit { .. } => "binding_hit",
            SpanKind::BindingMiss { .. } => "binding_miss",
            SpanKind::BindingRegistered { .. } => "binding_registered",
            SpanKind::BindingInvalidated { .. } => "binding_invalidated",
            SpanKind::RpcCompleted { .. } => "rpc_completed",
            SpanKind::FlowStarted { .. } => "flow_started",
            SpanKind::FlowStep { .. } => "flow_step",
            SpanKind::FlowCompleted { .. } => "flow_completed",
            SpanKind::FlowAborted { .. } => "flow_aborted",
            SpanKind::GenerationStamp { .. } => "generation_stamp",
            SpanKind::CallServed { .. } => "call_served",
            SpanKind::VmCost { .. } => "vm_cost",
            SpanKind::EpochProposed { .. } => "epoch_proposed",
            SpanKind::EpochCommitted { .. } => "epoch_committed",
            SpanKind::ReplicaEpoch { .. } => "replica_epoch",
            SpanKind::EpochServed { .. } => "epoch_served",
        }
    }

    /// The flow id this event references, if any.
    pub const fn flow_id(&self) -> Option<u64> {
        match self {
            SpanKind::FlowStarted { flow, .. }
            | SpanKind::FlowStep { flow, .. }
            | SpanKind::FlowCompleted { flow }
            | SpanKind::FlowAborted { flow } => Some(*flow),
            _ => None,
        }
    }

    /// A [`SpanKind::MsgSent`]: `bytes` saturates at `u32::MAX`, a size
    /// past which the record undercounts rather than stop the run.
    pub fn msg_sent(
        src: u32,
        dst: u32,
        src_node: u32,
        dst_node: u32,
        verdict: SendVerdict,
        bytes: u64,
    ) -> Self {
        SpanKind::MsgSent {
            src,
            dst,
            src_node,
            dst_node,
            verdict,
            bytes: u32::try_from(bytes).unwrap_or(u32::MAX),
        }
    }

    /// A [`SpanKind::RpcAttempt`]: `attempt` saturates at `u16::MAX`, a
    /// count no retry budget reaches.
    pub fn rpc_attempt(call: u64, object: u64, attempt: u32, dst: u32) -> Self {
        SpanKind::RpcAttempt {
            call,
            object,
            attempt: u16::try_from(attempt).unwrap_or(u16::MAX),
            dst,
        }
    }

    /// A [`SpanKind::EpochProposed`].
    ///
    /// # Panics
    ///
    /// Refuses an `epoch` past `u32::MAX`: epochs order commits, so a
    /// saturated one would read as a regression.
    pub fn epoch_proposed(group: u64, epoch: u64, config: u64) -> Self {
        SpanKind::EpochProposed {
            group,
            epoch: narrow_epoch(epoch),
            config,
        }
    }

    /// A [`SpanKind::EpochCommitted`].
    ///
    /// # Panics
    ///
    /// Refuses an `epoch` past `u32::MAX`, as [`SpanKind::epoch_proposed`].
    pub fn epoch_committed(group: u64, epoch: u64, config: u64) -> Self {
        SpanKind::EpochCommitted {
            group,
            epoch: narrow_epoch(epoch),
            config,
        }
    }

    /// A [`SpanKind::ReplicaEpoch`].
    ///
    /// # Panics
    ///
    /// Refuses a `replica` past `u32::MAX`: a saturated id would merge two
    /// replicas' histories.
    pub fn replica_epoch(group: u64, replica: u64, epoch: u64) -> Self {
        SpanKind::ReplicaEpoch {
            group,
            replica: u32::try_from(replica).expect("replica id exceeds u32"),
            epoch,
        }
    }

    /// A [`SpanKind::EpochServed`].
    ///
    /// # Panics
    ///
    /// Refuses a `replica` past `u16::MAX` (an id, as in
    /// [`SpanKind::replica_epoch`]) and an `epoch` past `u32::MAX` (as in
    /// [`SpanKind::epoch_proposed`]).
    pub fn epoch_served(group: u64, replica: u32, epoch: u64, call: u64) -> Self {
        SpanKind::EpochServed {
            group,
            replica: u16::try_from(replica).expect("serving replica id exceeds u16"),
            epoch: narrow_epoch(epoch),
            call,
        }
    }

    /// A [`SpanKind::VmCost`] from a thread's `u64` counters: `calls`
    /// saturates at `u32::MAX`. `function` comes from the recording log's
    /// [`intern_function`](crate::TraceLog::intern_function), which refuses
    /// a 2^16th distinct hash.
    pub fn vm_cost(function: FnRef, calls: u64, instructions: u64, work_nanos: u64) -> Self {
        SpanKind::VmCost {
            function,
            calls: u32::try_from(calls).unwrap_or(u32::MAX),
            instructions,
            work_nanos,
        }
    }

    /// Calls `f(name, value)` for each named integer field, in declaration
    /// order: what the exporters print and the digest folds. Inlined into
    /// the digest, the names cost nothing and no pair is ever stored.
    ///
    /// A [`SpanKind::VmCost`]'s function hash is read from `arena`, the
    /// recording log's; a [`SpanKind::PartitionChanged`]'s group vector
    /// lives there too, and the exporters and the digest read it from it.
    #[inline(always)]
    pub(crate) fn for_each_field(&self, arena: &SpanArena, mut f: impl FnMut(&'static str, u64)) {
        match self {
            SpanKind::MsgSent {
                src,
                dst,
                src_node,
                dst_node,
                verdict,
                bytes,
            } => fields!(f;
                ("src", *src as u64),
                ("dst", *dst as u64),
                ("src_node", *src_node as u64),
                ("dst_node", *dst_node as u64),
                ("verdict", verdict.code()),
                ("bytes", u64::from(*bytes)),
            ),
            SpanKind::MsgDelivered { src, dst, dst_node }
            | SpanKind::MsgDeadLetter { src, dst, dst_node } => fields!(f;
                ("src", *src as u64),
                ("dst", *dst as u64),
                ("dst_node", *dst_node as u64),
            ),
            SpanKind::TimerFired { actor, token } => {
                fields!(f; ("actor", *actor as u64), ("token", *token))
            }
            SpanKind::ActorSpawned { actor, node } => {
                fields!(f; ("actor", *actor as u64), ("node", *node as u64))
            }
            SpanKind::ActorKilled { actor } => fields!(f; ("actor", *actor as u64)),
            SpanKind::NodeCrashed { node } | SpanKind::NodeRestarted { node } => {
                fields!(f; ("node", *node as u64))
            }
            SpanKind::PartitionChanged { groups } => {
                fields!(f; ("ngroups", groups.len() as u64))
            }
            SpanKind::PartitionHealed => {}
            SpanKind::LinkFaultSet { src_node, dst_node }
            | SpanKind::LinkFaultCleared { src_node, dst_node } => fields!(f;
                ("src_node", *src_node as u64),
                ("dst_node", *dst_node as u64),
            ),
            SpanKind::ChaosFault { action, node } => {
                fields!(f; ("action", *action as u64), ("node", *node as u64))
            }
            SpanKind::RpcAttempt {
                call,
                object,
                attempt,
                dst,
            } => fields!(f;
                ("call", *call),
                ("object", *object),
                ("attempt", u64::from(*attempt)),
                ("dst", *dst as u64),
            ),
            SpanKind::RpcRetry { call, attempt } => {
                fields!(f; ("call", *call), ("attempt", *attempt as u64))
            }
            SpanKind::BindingHit { object, dst } | SpanKind::BindingRegistered { object, dst } => {
                fields!(f; ("object", *object), ("dst", *dst as u64))
            }
            SpanKind::BindingMiss { object } | SpanKind::BindingInvalidated { object } => {
                fields!(f; ("object", *object))
            }
            SpanKind::RpcCompleted { call, outcome } => {
                fields!(f; ("call", *call), ("outcome", outcome.code()))
            }
            SpanKind::FlowStarted { flow, object, kind } => {
                fields!(f; ("flow", *flow), ("object", *object), ("kind", kind.code()))
            }
            SpanKind::FlowStep { flow, step } => {
                fields!(f; ("flow", *flow), ("step", *step as u64))
            }
            SpanKind::FlowCompleted { flow } | SpanKind::FlowAborted { flow } => {
                fields!(f; ("flow", *flow))
            }
            SpanKind::GenerationStamp { object, generation } => {
                fields!(f; ("object", *object), ("generation", *generation))
            }
            SpanKind::CallServed { object, call } => {
                fields!(f; ("object", *object), ("call", *call))
            }
            SpanKind::EpochProposed {
                group,
                epoch,
                config,
            }
            | SpanKind::EpochCommitted {
                group,
                epoch,
                config,
            } => fields!(f;
                ("group", *group),
                ("epoch", u64::from(*epoch)),
                ("config", *config),
            ),
            SpanKind::ReplicaEpoch {
                group,
                replica,
                epoch,
            } => fields!(f;
                ("group", *group),
                ("replica", u64::from(*replica)),
                ("epoch", *epoch),
            ),
            SpanKind::EpochServed {
                group,
                replica,
                epoch,
                call,
            } => fields!(f;
                ("group", *group),
                ("replica", u64::from(*replica)),
                ("epoch", u64::from(*epoch)),
                ("call", *call),
            ),
            SpanKind::VmCost {
                function,
                calls,
                instructions,
                work_nanos,
            } => fields!(f;
                ("function", arena.function(*function)),
                ("calls", *calls as u64),
                ("instructions", *instructions),
                ("work_nanos", *work_nanos),
            ),
        }
    }
}

/// An epoch in the 32 bits an epoch span field holds.
///
/// # Panics
///
/// Panics if `epoch` exceeds `u32::MAX`.
fn narrow_epoch(epoch: u64) -> u32 {
    u32::try_from(epoch).expect("group epoch exceeds u32")
}

/// One recorded event of a [`TraceLog`](crate::TraceLog): a 48-byte `Copy`
/// record, so a log of them is one flat allocation with nothing to drop.
///
/// The id and the node share one word: bits 32–47 of every span id are
/// zero (the engine's are `(lane + 1) << 48 | counter` with a 32-bit
/// counter, [`TraceLog::emit`](crate::TraceLog::emit)'s are dense), so the
/// node's 16 bits live there, [`NO_NODE`] as `0xFFFF`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// The id with the node in bits 32–47 (see [`SpanEvent::new`]).
    id_node: NonZeroU64,
    /// The event that causally triggered this one, if traced.
    pub parent: Option<SpanId>,
    /// Simulated time of the event, in nanoseconds since the run started.
    pub at_ns: u64,
    /// The typed payload.
    pub kind: SpanKind,
}

/// Where a [`SpanEvent`]'s node sits in its id word.
const NODE_SHIFT: u32 = 32;
/// The node field's value for [`NO_NODE`].
const NODE_FIELD_NONE: u64 = 0xFFFF;
/// The id word's node bits.
const NODE_BITS: u64 = NODE_FIELD_NONE << NODE_SHIFT;

impl SpanEvent {
    /// A record of event `id` on `node` ([`NO_NODE`] if not attributable).
    ///
    /// # Panics
    ///
    /// Refuses an `id` with any of bits 32–47 set and a `node` from
    /// `0xFFFF` up other than [`NO_NODE`]: neither fits the shared word,
    /// and folding one into the other would change both silently.
    #[inline]
    pub fn new(id: SpanId, parent: Option<SpanId>, at_ns: u64, node: u32, kind: SpanKind) -> Self {
        let raw = id.0.get();
        assert!(
            raw & NODE_BITS == 0,
            "span id {raw:#x} sets bits 32-47, which hold the node"
        );
        let field = if node == NO_NODE {
            NODE_FIELD_NONE
        } else {
            assert!(
                u64::from(node) < NODE_FIELD_NONE,
                "node {node} does not fit a span record's 16 bits"
            );
            u64::from(node)
        };
        SpanEvent {
            id_node: id.0 | (field << NODE_SHIFT),
            parent,
            at_ns,
            kind,
        }
    }

    /// This event's id (see [`SpanId`] for the allocation schemes).
    #[inline]
    pub fn id(&self) -> SpanId {
        let raw = self.id_node.get() & !NODE_BITS;
        SpanId::from_raw(raw).expect("a record's id is nonzero")
    }

    /// The node the event happened on, or [`NO_NODE`].
    #[inline]
    pub fn node(&self) -> u32 {
        match (self.id_node.get() & NODE_BITS) >> NODE_SHIFT {
            NODE_FIELD_NONE => NO_NODE,
            field => u32::try_from(field).expect("a 16-bit node field"),
        }
    }
}

impl fmt::Debug for SpanEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanEvent")
            .field("id", &self.id())
            .field("parent", &self.parent)
            .field("at_ns", &self.at_ns)
            .field("node", &self.node())
            .field("kind", &self.kind)
            .finish()
    }
}

// The record layout is part of tracing's cost: every span is written once,
// swept by each post-run reader, and first-touched as fresh pages.
const _: () = assert!(std::mem::size_of::<SpanKind>() == 24);
const _: () = assert!(std::mem::size_of::<SpanEvent>() == 48);
const _: () = {
    const fn copy<T: Copy>() {}
    copy::<SpanEvent>()
};

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `f` panics (the narrowing constructors refuse by panicking).
    fn refused<T>(f: impl FnOnce() -> T + std::panic::UnwindSafe) -> bool {
        std::panic::catch_unwind(f).is_err()
    }

    #[test]
    fn vm_cost_calls_saturate_at_u32_max() {
        let mut arena = SpanArena::default();
        let function = arena.intern_function(7);
        let calls = |n| match SpanKind::vm_cost(function, n, 1, 2) {
            SpanKind::VmCost { calls, .. } => calls,
            other => panic!("not a VmCost: {other:?}"),
        };
        assert_eq!(calls(3), 3);
        assert_eq!(calls(u32::MAX as u64), u32::MAX);
        assert_eq!(calls(u32::MAX as u64 + 1), u32::MAX);
        assert_eq!(calls(u64::MAX), u32::MAX);
        let mut fields = Vec::new();
        SpanKind::vm_cost(function, 1 << 40, 1, 2)
            .for_each_field(&arena, |name, value| fields.push((name, value)));
        assert_eq!(
            fields,
            [
                ("function", 7),
                ("calls", u32::MAX as u64),
                ("instructions", 1),
                ("work_nanos", 2)
            ]
        );
    }

    #[test]
    fn narrowed_fields_saturate_or_refuse_at_their_bound() {
        let field = |kind: SpanKind, name: &str| {
            let mut found = None;
            kind.for_each_field(&SpanArena::default(), |n, v| {
                if n == name {
                    found = Some(v);
                }
            });
            found.expect("field present")
        };
        let sent = |bytes| SpanKind::msg_sent(1, 2, 0, 1, SendVerdict::Sent, bytes);
        let top = u64::from(u32::MAX);
        assert_eq!(field(sent(top), "bytes"), top);
        assert_eq!(field(sent(top + 1), "bytes"), top, "bytes saturate");
        let attempt = |n| SpanKind::rpc_attempt(1, 2, n, 3);
        let top16 = u32::from(u16::MAX);
        assert_eq!(field(attempt(top16), "attempt"), u64::from(top16));
        assert_eq!(field(attempt(top16 + 1), "attempt"), u64::from(top16));
        assert_eq!(field(attempt(u32::MAX), "attempt"), u64::from(top16));

        assert_eq!(field(SpanKind::epoch_proposed(1, top, 9), "epoch"), top);
        assert!(refused(|| SpanKind::epoch_proposed(1, top + 1, 9)));
        assert_eq!(field(SpanKind::epoch_committed(1, top, 9), "epoch"), top);
        assert!(refused(|| SpanKind::epoch_committed(1, top + 1, 9)));
        assert_eq!(field(SpanKind::replica_epoch(1, top, 5), "replica"), top);
        assert!(refused(|| SpanKind::replica_epoch(1, top + 1, 5)));
        assert_eq!(
            field(SpanKind::replica_epoch(1, 2, u64::MAX), "epoch"),
            u64::MAX,
            "an adopted epoch keeps its 64 bits"
        );
        let served = SpanKind::epoch_served(1, top16, top, 4);
        assert_eq!(field(served, "replica"), u64::from(top16));
        assert_eq!(field(served, "epoch"), top);
        assert!(refused(|| SpanKind::epoch_served(1, top16 + 1, 1, 4)));
        assert!(refused(|| SpanKind::epoch_served(1, 2, top + 1, 4)));
    }

    #[test]
    fn function_arena_holds_each_hash_once_and_refuses_a_full_table() {
        let mut arena = SpanArena::default();
        let a = arena.intern_function(0xfeed);
        let b = arena.intern_function(0xbeef);
        assert_eq!(arena.intern_function(0xfeed), a, "a hash is stored once");
        assert_ne!(a, b);
        assert_eq!((arena.function(a), arena.function(b)), (0xfeed, 0xbeef));
        for hash in 2..1 << 16 {
            arena.intern_function(hash << 20);
        }
        let last = arena.intern_function(((1 << 16) - 1) << 20);
        assert_eq!(arena.function(last), ((1 << 16) - 1) << 20);
        assert_eq!(
            arena.intern_function(0xbeef),
            b,
            "known hashes still resolve"
        );
        let mut full = arena.clone();
        assert!(
            refused(move || full.intern_function(1)),
            "a 2^16th distinct hash is refused, not wrapped onto handle 0"
        );
        arena.clear();
        assert_eq!(arena, SpanArena::default());
    }

    #[test]
    fn group_arena_hands_back_what_was_pushed() {
        let mut arena = SpanArena::default();
        let a = arena.push(&[1, 1, 2]);
        let empty = arena.push(&[]);
        let b = arena.push(&[0, 3]);
        assert_eq!(arena.get(a), &[1, 1, 2]);
        assert_eq!(arena.get(b), &[0, 3]);
        assert!(arena.get(empty).is_empty());
        assert_eq!((a.len(), b.len(), empty.len()), (3, 2, 0));
        arena.clear();
        assert_eq!(arena, SpanArena::default());
    }

    #[test]
    fn record_refuses_ids_and_nodes_outside_the_shared_word() {
        let id = |raw| SpanId::from_raw(raw).expect("nonzero");
        let record = |raw, node| SpanEvent::new(id(raw), None, 0, node, SpanKind::PartitionHealed);
        for raw in [1 << 32, 1 << 47, 0xFFFF << 32, (1 << 48) | (1 << 40) | 1] {
            assert!(refused(|| record(raw, 0)), "id {raw:#x}");
        }
        for node in [0xFFFF, 0x1_0000, NO_NODE - 1] {
            assert!(refused(|| record(1, node)), "node {node:#x}");
        }
        let last = record(!NODE_BITS, 0xFFFE);
        assert_eq!((last.id().as_raw(), last.node()), (!NODE_BITS, 0xFFFE));
        assert_eq!(
            format!("{:?}", record(5, NO_NODE)),
            "SpanEvent { id: SpanId(5), parent: None, at_ns: 0, node: 4294967295, \
             kind: PartitionHealed }",
            "Debug prints the id and the node as fields"
        );
    }

    mod packing_props {
        use super::*;
        use proptest::prelude::*;

        /// The top 16 bits of a span id: 0 for dense ids, `lane + 1` for
        /// the engine's, edges first.
        fn lanes() -> impl Strategy<Value = u64> {
            prop_oneof![
                Just(0u64),
                Just(1),
                Just(0xFFFE),
                Just(0xFFFF),
                0u64..=0xFFFF
            ]
        }

        fn counters() -> impl Strategy<Value = u64> {
            prop_oneof![
                Just(0u64),
                Just(1),
                Just(u64::from(u32::MAX)),
                any::<u32>().prop_map(u64::from)
            ]
        }

        fn nodes() -> impl Strategy<Value = u32> {
            prop_oneof![Just(0u32), Just(0xFFFE), Just(NO_NODE), 0u32..0xFFFF]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// `id()` and `node()` read back what `new` packed, over the
            /// domain's edges, and the other fields are untouched.
            #[test]
            fn id_and_node_round_trip(
                lane in lanes(),
                counter in counters(),
                node in nodes(),
                parent in any::<u64>(),
                at_ns in any::<u64>(),
            ) {
                let raw = lane << 48 | counter;
                prop_assume!(raw != 0);
                let id = SpanId::from_raw(raw).expect("nonzero");
                let parent = SpanId::from_raw(parent);
                let kind = SpanKind::TimerFired { actor: 3, token: at_ns };
                let e = SpanEvent::new(id, parent, at_ns, node, kind);
                prop_assert_eq!(e.id(), id);
                prop_assert_eq!(e.node(), node);
                prop_assert_eq!((e.parent, e.at_ns, e.kind), (parent, at_ns, kind));
            }
        }
    }

    #[test]
    fn step_names_are_stable() {
        let mgr = [
            (mgr_step::CAPTURE, 0, "capture"),
            (mgr_step::DEACTIVATE, 1, "deactivate"),
            (mgr_step::UNREGISTER, 2, "unregister"),
            (mgr_step::SPAWN, 3, "spawn"),
            (mgr_step::REGISTER, 4, "register"),
            (mgr_step::APPLY, 5, "apply"),
            (mgr_step::RESTORE, 6, "restore"),
            (mgr_step::SAVE_VAULT, 7, "save_vault"),
            (mgr_step::LOAD_VAULT, 8, "load_vault"),
            (mgr_step::DOWNLOAD, 9, "download"),
            (mgr_step::CAPTURE_COST, 10, "capture_cost"),
            (mgr_step::RESTORE_COST, 11, "restore_cost"),
        ];
        for (code, wire, name) in mgr {
            assert_eq!(code, wire);
            assert_eq!(FlowKind::Migrate.step_name(code), name);
        }
        let cfg = [
            (cfg_step::DESCRIPTOR, 0, "descriptor"),
            (cfg_step::HOST_CHECK, 1, "host_check"),
            (cfg_step::ICO_READ, 2, "ico_read"),
            (cfg_step::HOST_STORE, 3, "host_store"),
            (cfg_step::MAP, 4, "map"),
            (cfg_step::GATE, 5, "gate"),
            (cfg_step::APPLY, 6, "apply"),
        ];
        for (code, wire, name) in cfg {
            assert_eq!(code, wire);
            assert_eq!(FlowKind::Config.step_name(code), name);
        }
        assert_eq!(FlowKind::Update.step_name(5), "apply");
        assert_eq!(FlowKind::Recover.step_name(8), "load_vault");
        assert_eq!(FlowKind::ClassEvolve.step_name(9), "download");
        assert_eq!(FlowKind::Create.step_name(12), "unknown");
        assert_eq!(FlowKind::Config.step_name(7), "unknown");
    }
}
