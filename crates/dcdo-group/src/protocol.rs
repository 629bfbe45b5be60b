//! The propose/commit epoch protocol over a replica set.
//!
//! A [`GroupCoordinator`] collects concurrent [`ProposeConfig`] deltas,
//! joins them (lattice agreement: joins commute, so arrival order is
//! irrelevant), and drives one *epoch round* at a time: an [`EpochPrepare`]
//! fences every replica, and once acknowledgements are in the coordinator
//! commits the joined configuration in a single handler — the
//! `EpochCommitted` span and the [`EpochCommit`] broadcast are atomic, so
//! a coordinator crash either commits a round fully-in-flight or not at
//! all. Fenced replicas refuse to serve (the stale-binding discipline from
//! the generation machinery, lifted to groups): that is what makes the
//! trace-level *no mixed-epoch serving* invariant hold with no grace
//! window. A replica whose coordinator dies mid-round unfences itself via
//! a one-shot fence timeout and reverts to the last committed epoch.
//!
//! Commit requires **every** live member's ack; only at the ack deadline
//! does the coordinator fall back to a majority quorum — by then the
//! silent members are presumed crashed, and crashed replicas cannot serve,
//! so the strict invariant survives the fallback.

use std::collections::{BTreeMap, BTreeSet};

use dcdo_sim::{
    Actor, ActorId, Ctx, FlowKind, NodeId, SimDuration, SimTime, Simulation, SpanKind, TimerId,
};
use dcdo_types::{CallId, FunctionName, ObjectId};
use dcdo_vm::Value;
use legion_substrate::object::{self, LegionObject, Served};
use legion_substrate::{control_ops, Ack, ControlOp, InvocationFault, Msg, OpTable};

use crate::lattice::{ConfigDelta, GroupConfig};

// ---- control payloads ---------------------------------------------------

/// Ask the coordinator to fold `delta` into the group's next epoch.
#[derive(Debug, Clone)]
pub struct ProposeConfig {
    /// The group being reconfigured.
    pub group: u64,
    /// The proposed change (joined with concurrent proposals).
    pub delta: ConfigDelta,
}

/// The coordinator's answer to a [`ProposeConfig`], sent when the round
/// carrying the proposal resolves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProposalResult {
    /// Whether the round committed (`false`: aborted at the deadline).
    pub committed: bool,
    /// The epoch the round targeted.
    pub epoch: u64,
    /// Digest of the committed configuration (last committed on abort).
    pub config_digest: u64,
}

/// Fence a replica for an in-flight epoch round.
#[derive(Debug, Clone)]
pub struct EpochPrepare {
    /// The group.
    pub group: u64,
    /// The epoch being prepared.
    pub epoch: u64,
    /// Digest of the joined delta the round will apply.
    pub joined_digest: u64,
}

/// A replica's acknowledgement that it is fenced for `epoch`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochPrepareAck {
    /// The acking member.
    pub member: u32,
    /// The epoch it is fenced for.
    pub epoch: u64,
    /// Echo of the joined-delta digest it fenced on.
    pub joined_digest: u64,
}

/// Commit a round: the full next configuration, so stragglers catch up in
/// one hop and digest agreement is checkable byte-for-byte.
#[derive(Debug, Clone)]
pub struct EpochCommit {
    /// The committed configuration (carries its own epoch).
    pub config: GroupConfig,
}

/// Abort an in-flight round: fenced replicas revert to the last committed
/// epoch. Sent by the coordinator at a failed deadline, or by a rollout
/// driver cleaning up after a dead coordinator.
#[derive(Debug, Clone)]
pub struct EpochAbort {
    /// The group.
    pub group: u64,
    /// The epoch whose round is being abandoned.
    pub epoch: u64,
}

/// Ask a replica for its health and epoch position.
#[derive(Debug, Clone)]
pub struct ProbeReplica;

/// A replica's answer to a [`ProbeReplica`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// The member.
    pub member: u32,
    /// Its adopted epoch.
    pub epoch: u64,
    /// The implementation version it is running.
    pub version: u32,
    /// Whether its health probe passes (see
    /// `GroupReplica::unhealthy_from_version`).
    pub healthy: bool,
    /// Invocations served.
    pub served: u64,
    /// Invocations refused (fenced or stale).
    pub refused: u64,
    /// Digest of its adopted configuration.
    pub config_digest: u64,
}

control_ops! {
    /// The op a group coordinator serves.
    pub enum CoordinatorOp { ProposeConfig = "propose-config", 64; }

    /// The epoch-round ops a group replica serves.
    pub enum ReplicaOp {
        EpochPrepare = "epoch-prepare", 64;
        EpochCommit = "epoch-commit", 64;
        EpochAbort = "epoch-abort", 64;
        ProbeReplica = "probe-replica", 64;
    }

    /// The group protocol's replies.
    pub enum GroupReply {
        ProposalResult = "proposal-result", 64;
        EpochPrepareAck = "epoch-prepare-ack", 64;
        ReplicaStatus = "replica-status", 64;
    }
}

// ---- replica ------------------------------------------------------------

/// Timer-token base for a replica's one-shot fence timeout; the pending
/// epoch is added so a stale timeout for an already-resolved round no-ops.
const FENCE_TOKEN_BASE: u64 = 1_000;

/// How long a fence survives without a commit or abort before the replica
/// reverts to serving the last committed epoch. It exceeds the
/// coordinator's [`ACK_DEADLINE`] plus a network delay, so a commit always
/// outruns the timeout.
const FENCE_TIMEOUT: SimDuration = SimDuration::from_millis(400);

/// An in-flight fence on a replica.
#[derive(Debug)]
struct Fence {
    epoch: u64,
    timer: TimerId,
}

/// One group member: serves application `work` calls at its adopted epoch
/// and participates in prepare/commit rounds.
///
/// The replica's version of the running implementation is whatever its
/// adopted [`GroupConfig`] says: `config.version` if the member is in the
/// upgraded set, the base version otherwise.
pub struct GroupReplica {
    group: u64,
    member: u32,
    object: ObjectId,
    base_version: u32,
    config: GroupConfig,
    fence: Option<Fence>,
    served: u64,
    refused: u64,
    /// Fault-injection knob: report unhealthy to probes once this replica
    /// is upgraded to a version `>= v`. Drives the rollback scenarios.
    unhealthy_from_version: Option<u32>,
}

impl GroupReplica {
    /// A member of `group` with identity `object`, starting at `config`.
    pub fn new(group: u64, member: u32, object: ObjectId, config: GroupConfig) -> Self {
        GroupReplica {
            group,
            member,
            object,
            base_version: config.version,
            config,
            fence: None,
            served: 0,
            refused: 0,
            unhealthy_from_version: None,
        }
    }

    /// Plants the health fault: probes report unhealthy once this replica
    /// runs a version `>= version`.
    pub fn with_unhealthy_from_version(mut self, version: u32) -> Self {
        self.unhealthy_from_version = Some(version);
        self
    }

    /// The adopted configuration.
    pub fn config(&self) -> &GroupConfig {
        &self.config
    }

    /// The adopted epoch.
    pub fn epoch(&self) -> u64 {
        self.config.epoch
    }

    /// The implementation version this member is running.
    pub fn running_version(&self) -> u32 {
        if self.config.upgraded.contains(&self.member) {
            self.config.version
        } else {
            self.base_version
        }
    }

    /// Invocations served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Invocations refused while fenced or stale.
    pub fn refused(&self) -> u64 {
        self.refused
    }

    /// `true` while an epoch round holds this replica fenced.
    pub fn is_fenced(&self) -> bool {
        self.fence.is_some()
    }

    fn healthy(&self) -> bool {
        match self.unhealthy_from_version {
            Some(v) => self.running_version() < v,
            None => true,
        }
    }

    fn adopt(&mut self, ctx: &mut Ctx<'_, Msg>, config: GroupConfig) {
        if let Some(fence) = self.fence.take() {
            ctx.cancel_timer(fence.timer);
        }
        if config.epoch <= self.config.epoch {
            // Duplicate or stale commit: adoption is idempotent.
            return;
        }
        self.config = config;
        ctx.emit_span(SpanKind::replica_epoch(
            self.group,
            u64::from(self.member),
            self.config.epoch,
        ));
        // The group epoch rides the same generation discipline single
        // objects use: one stamp per adoption, monotone per object.
        ctx.emit_span(SpanKind::GenerationStamp {
            object: self.object.as_raw(),
            generation: self.config.epoch,
        });
    }
}

impl LegionObject for GroupReplica {
    type Ops<'a> = ReplicaOp<'a>;

    fn object_id(&self) -> ObjectId {
        self.object
    }

    fn control(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        _: ActorId,
        call: CallId,
        op: ReplicaOp<'_>,
    ) -> Served {
        let reply = match op {
            ReplicaOp::EpochPrepare(prep)
                if prep.group != self.group || prep.epoch <= self.config.epoch =>
            {
                let at = self.config.epoch;
                Msg::refused(
                    call,
                    format!("stale prepare for epoch {} (at {at})", prep.epoch),
                )
            }
            ReplicaOp::EpochPrepare(prep) => {
                if let Some(old) = self.fence.take() {
                    ctx.cancel_timer(old.timer);
                }
                let timer = ctx.schedule_timer(FENCE_TIMEOUT, FENCE_TOKEN_BASE + prep.epoch);
                self.fence = Some(Fence {
                    epoch: prep.epoch,
                    timer,
                });
                Msg::control_ok(
                    call,
                    EpochPrepareAck {
                        member: self.member,
                        epoch: prep.epoch,
                        joined_digest: prep.joined_digest,
                    },
                )
            }
            ReplicaOp::EpochCommit(commit) => {
                self.adopt(ctx, commit.config.clone());
                Msg::control_ok(call, Ack)
            }
            ReplicaOp::EpochAbort(abort) => {
                if let Some(fence) = self.fence.take() {
                    if fence.epoch == abort.epoch && abort.group == self.group {
                        ctx.cancel_timer(fence.timer);
                    } else {
                        self.fence = Some(fence);
                    }
                }
                Msg::control_ok(call, Ack)
            }
            ReplicaOp::ProbeReplica(_) => Msg::control_ok(
                call,
                ReplicaStatus {
                    member: self.member,
                    epoch: self.config.epoch,
                    version: self.running_version(),
                    healthy: self.healthy(),
                    served: self.served,
                    refused: self.refused,
                    config_digest: self.config.digest(),
                },
            ),
        };
        Served::Reply(reply)
    }

    /// A replica serves any function: fenced, it refuses; otherwise it
    /// answers with the version it runs.
    fn invoke(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: ActorId,
        call: CallId,
        _: FunctionName,
        _: Vec<Value>,
    ) -> Result<(), FunctionName> {
        let result = if let Some(fence) = &self.fence {
            self.refused += 1;
            Err(InvocationFault::Refused(format!(
                "fenced for epoch {}",
                fence.epoch
            )))
        } else {
            self.served += 1;
            ctx.emit_span(SpanKind::epoch_served(
                self.group,
                self.member,
                self.config.epoch,
                call.as_raw(),
            ));
            Ok(Value::Int(self.running_version() as i64))
        };
        ctx.send(from, Msg::Reply { call, result });
        Ok(())
    }
}

impl Actor<Msg> for GroupReplica {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
        object::deliver(self, ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        // Fence timeout: the round died with its coordinator. Revert to the
        // last committed epoch and serve again.
        let _ = ctx;
        if let Some(fence) = self.fence.take() {
            if FENCE_TOKEN_BASE + fence.epoch != token {
                self.fence = Some(fence);
            }
        }
    }

    fn name(&self) -> &str {
        "group-replica"
    }
}

// ---- coordinator --------------------------------------------------------

/// Timer token for the proposal-batching round delay.
const ROUND_TOKEN: u64 = 1;
/// Timer-token base for a round's ack deadline (`+ epoch`).
const DEADLINE_TOKEN_BASE: u64 = 1_000;
/// How long a round waits for prepare acks before it aborts.
const ACK_DEADLINE: SimDuration = SimDuration::from_millis(100);

/// An in-flight epoch round on the coordinator.
struct Round {
    epoch: u64,
    joined_digest: u64,
    next: GroupConfig,
    /// Members that must ack: the *previous* config's membership (they are
    /// the replicas that could otherwise serve stale).
    expected: BTreeSet<u32>,
    acks: BTreeSet<u32>,
    flow: u64,
    deadline: TimerId,
    /// Proposers to answer when the round resolves.
    proposers: Vec<(ActorId, CallId)>,
}

/// The epoch sequencer for one group.
///
/// Batches proposals arriving within `round_delay` of each other into one
/// joined round (the lattice makes the batch order-insensitive), then
/// drives prepare → ack → commit. One round is in flight at a time; commit
/// span and commit broadcast happen in a single handler.
pub struct GroupCoordinator {
    group: u64,
    object: ObjectId,
    config: GroupConfig,
    replicas: BTreeMap<u32, (ActorId, ObjectId)>,
    round_delay: SimDuration,
    /// Joined delta of proposals waiting for the next round.
    inbox: ConfigDelta,
    inbox_proposers: Vec<(ActorId, CallId)>,
    round_scheduled: bool,
    round: Option<Round>,
    committed_rounds: u64,
    aborted_rounds: u64,
}

impl GroupCoordinator {
    /// A coordinator for `group` starting at `config`, sequencing the
    /// replicas in `replicas` (member id → actor + object identity).
    pub fn new(
        group: u64,
        object: ObjectId,
        config: GroupConfig,
        replicas: BTreeMap<u32, (ActorId, ObjectId)>,
    ) -> Self {
        GroupCoordinator {
            group,
            object,
            config,
            replicas,
            round_delay: SimDuration::from_millis(5),
            inbox: ConfigDelta::new(),
            inbox_proposers: Vec::new(),
            round_scheduled: false,
            round: None,
            committed_rounds: 0,
            aborted_rounds: 0,
        }
    }

    /// Adjusts the proposal-batching delay on a live coordinator (tests
    /// widen it to force concurrent proposals into one round).
    pub fn set_round_delay(&mut self, delay: SimDuration) {
        self.round_delay = delay;
    }

    /// The committed configuration.
    pub fn config(&self) -> &GroupConfig {
        &self.config
    }

    /// Rounds committed.
    pub fn committed_rounds(&self) -> u64 {
        self.committed_rounds
    }

    /// Rounds aborted at the deadline.
    pub fn aborted_rounds(&self) -> u64 {
        self.aborted_rounds
    }

    fn start_round(&mut self, ctx: &mut Ctx<'_, Msg>) {
        // Keyed on pending proposers, not delta emptiness: an empty joined
        // delta is a legitimate round (the epoch still advances) and its
        // proposers are still owed a resolution.
        if self.round.is_some() || self.inbox_proposers.is_empty() {
            return;
        }
        let delta = std::mem::take(&mut self.inbox);
        let proposers = std::mem::take(&mut self.inbox_proposers);
        let next = self.config.apply(&delta);
        let epoch = next.epoch;
        let joined_digest = delta.digest();
        let flow = ctx.fresh_u64();
        ctx.emit_span(SpanKind::FlowStarted {
            flow,
            object: self.group,
            kind: FlowKind::Epoch,
        });
        ctx.emit_span(SpanKind::epoch_proposed(self.group, epoch, joined_digest));
        let expected: BTreeSet<u32> = self
            .config
            .members
            .iter()
            .copied()
            .filter(|m| self.replicas.contains_key(m))
            .collect();
        for &m in &expected {
            let (actor, object) = self.replicas[&m];
            let call = CallId::from_raw(ctx.fresh_u64());
            ctx.send(
                actor,
                Msg::Control {
                    call,
                    target: object,
                    op: ControlOp::new(EpochPrepare {
                        group: self.group,
                        epoch,
                        joined_digest,
                    }),
                },
            );
        }
        let deadline = ctx.schedule_timer(ACK_DEADLINE, DEADLINE_TOKEN_BASE + epoch);
        self.round = Some(Round {
            epoch,
            joined_digest,
            next,
            expected,
            acks: BTreeSet::new(),
            flow,
            deadline,
            proposers,
        });
    }

    /// Commits the in-flight round: span, config adoption, commit
    /// broadcast, and proposer replies all in this one handler — atomic
    /// under crash.
    fn commit_round(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let Some(round) = self.round.take() else {
            return;
        };
        ctx.cancel_timer(round.deadline);
        self.config = round.next;
        self.committed_rounds += 1;
        ctx.emit_span(SpanKind::epoch_committed(
            self.group,
            self.config.epoch,
            self.config.digest(),
        ));
        ctx.emit_span(SpanKind::FlowCompleted { flow: round.flow });
        // Broadcast the full config to every known replica — including
        // members the new config dropped, so they learn they are out.
        for (&_m, &(actor, object)) in &self.replicas {
            let call = CallId::from_raw(ctx.fresh_u64());
            ctx.send(
                actor,
                Msg::Control {
                    call,
                    target: object,
                    op: ControlOp::new(EpochCommit {
                        config: self.config.clone(),
                    }),
                },
            );
        }
        let result = ProposalResult {
            committed: true,
            epoch: self.config.epoch,
            config_digest: self.config.digest(),
        };
        for (proposer, call) in round.proposers {
            ctx.send(proposer, Msg::control_ok(call, result.clone()));
        }
        if !self.inbox_proposers.is_empty() && !self.round_scheduled {
            self.round_scheduled = true;
            ctx.schedule_timer(self.round_delay, ROUND_TOKEN);
        }
    }

    fn abort_round(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let Some(round) = self.round.take() else {
            return;
        };
        self.aborted_rounds += 1;
        ctx.emit_span(SpanKind::FlowAborted { flow: round.flow });
        for &m in &round.expected {
            let (actor, object) = self.replicas[&m];
            let call = CallId::from_raw(ctx.fresh_u64());
            ctx.send(
                actor,
                Msg::Control {
                    call,
                    target: object,
                    op: ControlOp::new(EpochAbort {
                        group: self.group,
                        epoch: round.epoch,
                    }),
                },
            );
        }
        let result = ProposalResult {
            committed: false,
            epoch: round.epoch,
            config_digest: self.config.digest(),
        };
        for (proposer, call) in round.proposers {
            ctx.send(proposer, Msg::control_ok(call, result.clone()));
        }
    }
}

impl LegionObject for GroupCoordinator {
    type Ops<'a> = CoordinatorOp<'a>;

    fn object_id(&self) -> ObjectId {
        self.object
    }

    fn control(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: ActorId,
        call: CallId,
        op: CoordinatorOp<'_>,
    ) -> Served {
        let CoordinatorOp::ProposeConfig(p) = op;
        if p.group != self.group {
            let why = format!("coordinator serves group {}, not {}", self.group, p.group);
            return Served::Reply(Msg::refused(call, why));
        }
        // Accepted: the reply comes when the round resolves.
        ctx.send(from, Msg::Progress { call });
        self.inbox.join_in_place(&p.delta);
        self.inbox_proposers.push((from, call));
        if self.round.is_none() && !self.round_scheduled {
            self.round_scheduled = true;
            ctx.schedule_timer(self.round_delay, ROUND_TOKEN);
        }
        Served::Later
    }

    /// Prepare acks flow back here; commit/abort acks are Acks and
    /// stale-prepare refusals are faults — both ignored.
    fn reply(&mut self, ctx: &mut Ctx<'_, Msg>, msg: Msg) {
        let Msg::ControlReply { result: Ok(op), .. } = msg else {
            return;
        };
        let Some(GroupReply::EpochPrepareAck(ack)) = GroupReply::decode(&op) else {
            return;
        };
        let Some(round) = self.round.as_mut() else {
            return;
        };
        if ack.epoch != round.epoch || ack.joined_digest != round.joined_digest {
            return;
        }
        if round.expected.contains(&ack.member) {
            round.acks.insert(ack.member);
        }
        if round.acks.len() == round.expected.len() {
            self.commit_round(ctx);
        }
    }
}

impl Actor<Msg> for GroupCoordinator {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
        object::deliver(self, ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        if token == ROUND_TOKEN {
            self.round_scheduled = false;
            self.start_round(ctx);
            return;
        }
        let Some(round) = self.round.as_ref() else {
            return;
        };
        if token != DEADLINE_TOKEN_BASE + round.epoch {
            return;
        }
        // Ack deadline: members still silent are presumed crashed. A
        // majority of the previous membership is enough to commit — the
        // silent minority cannot serve, so no mixed-epoch serving is
        // possible. Short of a majority, the round aborts.
        if round.acks.len() * 2 > round.expected.len() {
            self.commit_round(ctx);
        } else {
            self.abort_round(ctx);
        }
    }

    fn name(&self) -> &str {
        "group-coordinator"
    }
}

// ---- client -------------------------------------------------------------

/// Timer token for the client's send tick.
const TICK_TOKEN: u64 = 1;

/// Sustained open-loop traffic against a group: round-robin `work` invokes
/// across the replicas until `until`, counting served and refused replies.
pub struct GroupClient {
    replicas: Vec<(ActorId, ObjectId)>,
    period: SimDuration,
    until: SimDuration,
    next: usize,
    sent: u64,
    ok: u64,
    refused: u64,
    failed: u64,
    /// `work`, built once; every invoke clones it.
    work: FunctionName,
}

impl GroupClient {
    /// A client ticking every `period` until simulated time `until`.
    pub fn new(
        replicas: Vec<(ActorId, ObjectId)>,
        period: SimDuration,
        until: SimDuration,
    ) -> Self {
        GroupClient {
            replicas,
            period,
            until,
            next: 0,
            sent: 0,
            ok: 0,
            refused: 0,
            failed: 0,
            work: "work".into(),
        }
    }

    /// Starts the tick loop (driver-side, via `with_actor`).
    pub fn start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        ctx.schedule_timer(self.period, TICK_TOKEN);
    }

    /// Invokes sent.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Invokes served.
    pub fn ok(&self) -> u64 {
        self.ok
    }

    /// Invokes refused by fenced or stale replicas.
    pub fn refused(&self) -> u64 {
        self.refused
    }

    /// Invokes that faulted for any other reason.
    pub fn failed(&self) -> u64 {
        self.failed
    }
}

impl Actor<Msg> for GroupClient {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: ActorId, msg: Msg) {
        if let Msg::Reply { result, .. } = msg {
            match result {
                Ok(_) => self.ok += 1,
                Err(InvocationFault::Refused(_)) => self.refused += 1,
                Err(_) => self.failed += 1,
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        if token != TICK_TOKEN || self.replicas.is_empty() {
            return;
        }
        let (actor, object) = self.replicas[self.next % self.replicas.len()];
        self.next += 1;
        self.sent += 1;
        let call = CallId::from_raw(ctx.fresh_u64());
        ctx.send(
            actor,
            Msg::Invoke {
                call,
                target: object,
                function: self.work.clone(),
                args: vec![],
            },
        );
        if ctx.now() + self.period <= SimTime::ZERO + self.until {
            ctx.schedule_timer(self.period, TICK_TOKEN);
        }
    }

    fn name(&self) -> &str {
        "group-client"
    }
}

// ---- deployment ---------------------------------------------------------

/// One spawned replica.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaHandle {
    /// Member id within the group.
    pub member: u32,
    /// The replica's actor.
    pub actor: ActorId,
    /// The replica's object identity.
    pub object: ObjectId,
    /// Where it lives.
    pub node: NodeId,
}

/// A spawned group: coordinator plus replicas, ready for traffic and
/// reconfiguration.
#[derive(Debug, Clone)]
pub struct GroupDeployment {
    /// The group id.
    pub group: u64,
    /// The coordinator's actor.
    pub coordinator: ActorId,
    /// The coordinator's object identity.
    pub coordinator_object: ObjectId,
    /// The coordinator's node.
    pub coordinator_node: NodeId,
    /// The replicas, in member order.
    pub replicas: Vec<ReplicaHandle>,
}

impl GroupDeployment {
    /// Replica (actor, object) pairs in member order — the shape
    /// [`GroupClient`] and the rollout driver consume.
    pub fn replica_targets(&self) -> Vec<(ActorId, ObjectId)> {
        self.replicas.iter().map(|r| (r.actor, r.object)).collect()
    }
}

/// Spawns a coordinator on `coordinator_node` and one replica per entry of
/// `replica_nodes` (member `i` on `replica_nodes[i]`), all at version
/// `version`, epoch 0. Object ids are carved from `group * 1_000`:
/// coordinator at the base, member `m` at `base + 1 + m`.
pub fn deploy_group(
    sim: &mut Simulation<Msg>,
    group: u64,
    coordinator_node: NodeId,
    replica_nodes: &[NodeId],
    version: u32,
) -> GroupDeployment {
    deploy_group_with(sim, group, coordinator_node, replica_nodes, version, |r| r)
}

/// [`deploy_group`] with a per-replica customization hook (fence timeouts,
/// planted health faults, …).
pub fn deploy_group_with(
    sim: &mut Simulation<Msg>,
    group: u64,
    coordinator_node: NodeId,
    replica_nodes: &[NodeId],
    version: u32,
    mut tweak: impl FnMut(GroupReplica) -> GroupReplica,
) -> GroupDeployment {
    let base = group * 1_000;
    let members: Vec<u32> = (0..replica_nodes.len() as u32).collect();
    let config = GroupConfig::initial(members.iter().copied(), version);
    let mut replicas = Vec::new();
    let mut directory = BTreeMap::new();
    for (&member, &node) in members.iter().zip(replica_nodes) {
        let object = ObjectId::from_raw(base + 1 + member as u64);
        let replica = tweak(GroupReplica::new(group, member, object, config.clone()));
        let actor = sim.spawn(node, replica);
        replicas.push(ReplicaHandle {
            member,
            actor,
            object,
            node,
        });
        directory.insert(member, (actor, object));
    }
    let coordinator_object = ObjectId::from_raw(base);
    let coordinator = sim.spawn(
        coordinator_node,
        GroupCoordinator::new(group, coordinator_object, config, directory),
    );
    GroupDeployment {
        group,
        coordinator,
        coordinator_object,
        coordinator_node,
        replicas,
    }
}
