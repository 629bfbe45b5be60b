//! Rolling-upgrade orchestration: canary → percentage waves → done, with
//! abort-and-roll-back when a post-wave health probe trips.
//!
//! The [`RolloutDriver`] is a timer-driven actor (installed like a chaos
//! controller, on a node the fault plan never crashes) that turns a
//! declarative [`RolloutPlan`] into a sequence of epoch proposals against
//! the group coordinator. Each wave proposes upgrading a cumulative prefix
//! of the membership; after a committed wave it probes every replica, and
//! any unhealthy report triggers a *rollback epoch* — a later epoch whose
//! delta downgrades everything and re-pins the base version (you cannot
//! un-join a lattice, so rollback is a new join, not an erase).
//!
//! If the coordinator dies mid-proposal the deadline fires, the driver
//! broadcasts [`EpochAbort`] so fenced replicas revert promptly (their own
//! fence timeout is the backstop), and the rollout ends in
//! [`RolloutState::RolledBack`]: the wave never committed, the group
//! serves the last committed configuration — the only sound outcome the
//! epoch model permits without a sequencer.

use std::collections::BTreeSet;

use dcdo_sim::{Actor, ActorId, Ctx, NodeId, SimDuration, Simulation, TimerId};
use dcdo_types::CallId;
use legion_substrate::{ControlOp, Msg, OpTable};

use crate::lattice::ConfigDelta;
use crate::protocol::{
    EpochAbort, GroupDeployment, GroupReply, ProbeReplica, ProposalResult, ProposeConfig,
    ReplicaStatus,
};

/// How many replicas a wave upgrades, cumulatively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaveTarget {
    /// Upgrade up to this many members in total.
    Count(u32),
    /// Upgrade up to this percentage of the membership (rounded up, so
    /// any nonzero percentage upgrades at least one member).
    Percent(u32),
}

impl WaveTarget {
    /// The cumulative member count this target means for a group of
    /// `members` replicas.
    pub fn cumulative(self, members: u32) -> u32 {
        match self {
            WaveTarget::Count(n) => n.min(members),
            WaveTarget::Percent(p) => (members * p.min(100)).div_ceil(100),
        }
    }
}

/// One wave of a rolling upgrade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wave {
    /// When the wave's proposal is issued (offset from driver install).
    pub at: SimDuration,
    /// How far the upgrade has reached after this wave.
    pub target: WaveTarget,
}

/// A declarative rolling-upgrade schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RolloutPlan {
    /// Version the group starts at (rollback re-pins this).
    pub from_version: u32,
    /// Version the waves converge to.
    pub to_version: u32,
    /// The waves, in schedule order.
    pub waves: Vec<Wave>,
    /// How long after a committed wave the health probes fire.
    pub probe_delay: SimDuration,
    /// How long the driver waits for a proposal to resolve before treating
    /// the coordinator as dead.
    pub proposal_deadline: SimDuration,
}

impl RolloutPlan {
    /// A canary → 25% → 100% default shape: canary at `start`, each later
    /// wave `spacing` after the previous.
    pub fn canary_then_waves(
        from_version: u32,
        to_version: u32,
        start: SimDuration,
        spacing: SimDuration,
    ) -> Self {
        RolloutPlan {
            from_version,
            to_version,
            waves: vec![
                Wave {
                    at: start,
                    target: WaveTarget::Count(1),
                },
                Wave {
                    at: start + spacing,
                    target: WaveTarget::Percent(25),
                },
                Wave {
                    at: start + spacing * 2,
                    target: WaveTarget::Percent(100),
                },
            ],
            probe_delay: SimDuration::from_millis(50),
            proposal_deadline: SimDuration::from_millis(250),
        }
    }

    /// The offset by which the schedule is fully resolved: the last wave's
    /// proposal, its deadline, and its probe. `None` for an empty plan.
    /// Scenario validation requires the run window to reach past this.
    pub fn last_at(&self) -> Option<SimDuration> {
        self.waves
            .iter()
            .map(|w| w.at + self.proposal_deadline + self.probe_delay)
            .max()
    }
}

/// Where a rollout ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutState {
    /// No wave has fired yet.
    Idle,
    /// Waves are in flight.
    Upgrading,
    /// Every wave committed and the final probes passed.
    Completed,
    /// A probe tripped (rollback epoch committed) or a mid-wave proposal
    /// died with its coordinator (wave aborted): the group serves a fully
    /// consistent pre-wave configuration.
    RolledBack,
    /// The rollback epoch itself could not commit — the group is stuck at
    /// its last committed epoch and needs operator attention.
    Failed,
}

impl RolloutState {
    /// A stable numeric code for reports and gauges.
    pub fn code(self) -> u64 {
        match self {
            RolloutState::Idle => 0,
            RolloutState::Upgrading => 1,
            RolloutState::Completed => 2,
            RolloutState::RolledBack => 3,
            RolloutState::Failed => 4,
        }
    }
}

/// Timer-token bases: wave `i` fires at `WAVE_BASE + i`, its proposal
/// deadline at `DEADLINE_BASE + i`, its probe at `PROBE_BASE + i`. The
/// rollback proposal uses wave index `ROLLBACK_WAVE`.
const WAVE_BASE: u64 = 1_000;
const DEADLINE_BASE: u64 = 2_000;
const PROBE_BASE: u64 = 3_000;
const ROLLBACK_WAVE: usize = 900;

/// An in-flight proposal (wave or rollback).
struct InFlight {
    call: CallId,
    wave: usize,
    deadline: TimerId,
}

/// The wave orchestrator.
pub struct RolloutDriver {
    deployment: GroupDeployment,
    plan: RolloutPlan,
    state: RolloutState,
    in_flight: Option<InFlight>,
    /// Probe replies still expected for the current probe round, and
    /// whether any reply so far was unhealthy.
    probes_pending: BTreeSet<u32>,
    probe_unhealthy: bool,
    probe_wave: usize,
    waves_committed: u32,
    observed_epoch: u64,
    observed_digest: u64,
}

impl RolloutDriver {
    /// Installs a driver on `node`: spawns the actor and schedules every
    /// wave timer up front, so the schedule survives even if individual
    /// waves fail.
    pub fn install(
        sim: &mut Simulation<Msg>,
        node: NodeId,
        deployment: GroupDeployment,
        plan: RolloutPlan,
    ) -> ActorId {
        let waves: Vec<SimDuration> = plan.waves.iter().map(|w| w.at).collect();
        let driver = RolloutDriver {
            deployment,
            plan,
            state: RolloutState::Idle,
            in_flight: None,
            probes_pending: BTreeSet::new(),
            probe_unhealthy: false,
            probe_wave: 0,
            waves_committed: 0,
            observed_epoch: 0,
            observed_digest: 0,
        };
        let actor = sim.spawn(node, driver);
        for (i, at) in waves.into_iter().enumerate() {
            sim.schedule_timer_for(actor, at, WAVE_BASE + i as u64);
        }
        actor
    }

    /// Where the rollout ended up.
    pub fn state(&self) -> RolloutState {
        self.state
    }

    /// Waves whose proposals committed.
    pub fn waves_committed(&self) -> u32 {
        self.waves_committed
    }

    /// The highest epoch the driver saw commit (via proposal results).
    pub fn observed_epoch(&self) -> u64 {
        self.observed_epoch
    }

    /// Digest of the configuration behind [`RolloutDriver::observed_epoch`].
    pub fn observed_digest(&self) -> u64 {
        self.observed_digest
    }

    fn members(&self) -> Vec<u32> {
        self.deployment.replicas.iter().map(|r| r.member).collect()
    }

    fn propose(&mut self, ctx: &mut Ctx<'_, Msg>, wave: usize, delta: ConfigDelta) {
        let call = CallId::from_raw(ctx.fresh_u64());
        ctx.send(
            self.deployment.coordinator,
            Msg::Control {
                call,
                target: self.deployment.coordinator_object,
                op: ControlOp::new(ProposeConfig {
                    group: self.deployment.group,
                    delta,
                }),
            },
        );
        let deadline = ctx.schedule_timer(self.plan.proposal_deadline, DEADLINE_BASE + wave as u64);
        self.in_flight = Some(InFlight {
            call,
            wave,
            deadline,
        });
    }

    fn start_wave(&mut self, ctx: &mut Ctx<'_, Msg>, wave: usize) {
        if self.in_flight.is_some()
            || !matches!(self.state, RolloutState::Idle | RolloutState::Upgrading)
        {
            // A previous wave already ended the rollout (or is still in
            // flight past its own schedule slot); skip.
            return;
        }
        self.state = RolloutState::Upgrading;
        let members = self.members();
        let cumulative = self.plan.waves[wave]
            .target
            .cumulative(members.len() as u32) as usize;
        let upgrade: Vec<u32> = members.into_iter().take(cumulative).collect();
        let delta = ConfigDelta::new()
            .with_version(self.plan.to_version)
            .upgrading(upgrade);
        self.propose(ctx, wave, delta);
    }

    fn start_rollback(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let delta = ConfigDelta::new()
            .with_version(self.plan.from_version)
            .downgrading(self.members());
        self.propose(ctx, ROLLBACK_WAVE, delta);
    }

    fn probe_all(&mut self, ctx: &mut Ctx<'_, Msg>, wave: usize) {
        self.probes_pending = self.members().into_iter().collect();
        self.probe_unhealthy = false;
        self.probe_wave = wave;
        for r in self.deployment.replicas.clone() {
            let call = CallId::from_raw(ctx.fresh_u64());
            ctx.send(
                r.actor,
                Msg::Control {
                    call,
                    target: r.object,
                    op: ControlOp::new(ProbeReplica),
                },
            );
        }
    }

    fn on_proposal_result(&mut self, ctx: &mut Ctx<'_, Msg>, result: &ProposalResult) {
        let Some(inflight) = self.in_flight.take() else {
            return;
        };
        ctx.cancel_timer(inflight.deadline);
        self.observed_epoch = self.observed_epoch.max(result.epoch);
        if result.committed {
            self.observed_digest = result.config_digest;
        }
        if inflight.wave == ROLLBACK_WAVE {
            self.state = if result.committed {
                RolloutState::RolledBack
            } else {
                RolloutState::Failed
            };
            return;
        }
        if result.committed {
            self.waves_committed += 1;
            ctx.schedule_timer(self.plan.probe_delay, PROBE_BASE + inflight.wave as u64);
        } else {
            // The coordinator aborted the wave (quorum lost). The group
            // still serves the pre-wave config; nothing to undo.
            self.state = RolloutState::RolledBack;
        }
    }

    fn on_probe_reply(&mut self, ctx: &mut Ctx<'_, Msg>, status: &ReplicaStatus) {
        if !self.probes_pending.remove(&status.member) {
            return;
        }
        self.probe_unhealthy |= !status.healthy;
        if !self.probes_pending.is_empty() {
            return;
        }
        // Probe round complete.
        if self.probe_unhealthy {
            self.start_rollback(ctx);
        } else if self.probe_wave + 1 == self.plan.waves.len() {
            self.state = RolloutState::Completed;
        }
        // Otherwise stay Upgrading; the next wave timer is already set.
    }
}

impl Actor<Msg> for RolloutDriver {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: ActorId, msg: Msg) {
        // Anything other than a control reply just confirms the
        // coordinator is alive; the deadline still guards the round.
        let Msg::ControlReply { call, result } = msg else {
            return;
        };
        match result {
            Ok(op) => match GroupReply::decode(&op) {
                Some(GroupReply::ProposalResult(r))
                    if self.in_flight.as_ref().is_some_and(|f| f.call == call) =>
                {
                    self.on_proposal_result(ctx, &r.clone());
                }
                Some(GroupReply::ReplicaStatus(s)) => self.on_probe_reply(ctx, &s.clone()),
                _ => {}
            },
            Err(_) => {
                // A refused proposal resolves the wave as not committed.
                if self.in_flight.as_ref().is_some_and(|f| f.call == call) {
                    let epoch = self.observed_epoch;
                    let digest = self.observed_digest;
                    self.on_proposal_result(
                        ctx,
                        &ProposalResult {
                            committed: false,
                            epoch,
                            config_digest: digest,
                        },
                    );
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        if (WAVE_BASE..WAVE_BASE + self.plan.waves.len() as u64).contains(&token) {
            self.start_wave(ctx, (token - WAVE_BASE) as usize);
            return;
        }
        if (PROBE_BASE..PROBE_BASE + self.plan.waves.len() as u64).contains(&token) {
            self.probe_all(ctx, (token - PROBE_BASE) as usize);
            return;
        }
        if !(DEADLINE_BASE..DEADLINE_BASE + 1_000).contains(&token) {
            return;
        }
        // Proposal deadline: the coordinator never resolved the round —
        // it is dead (or unreachable, which for the rollout is the same).
        let wave = (token - DEADLINE_BASE) as usize;
        let Some(inflight) = self.in_flight.take() else {
            return;
        };
        if inflight.wave != wave {
            self.in_flight = Some(inflight);
            return;
        }
        // Unfence promptly: the commit-or-nothing atomicity on the
        // coordinator means an unresolved round never half-committed, so
        // telling replicas to abandon the epoch is always safe. Their own
        // fence timeout would get there anyway; this shortens the outage.
        let epoch = self.observed_epoch + 1;
        for r in self.deployment.replicas.clone() {
            let call = CallId::from_raw(ctx.fresh_u64());
            ctx.send(
                r.actor,
                Msg::Control {
                    call,
                    target: r.object,
                    op: ControlOp::new(EpochAbort {
                        group: self.deployment.group,
                        epoch,
                    }),
                },
            );
        }
        self.state = if wave == ROLLBACK_WAVE {
            RolloutState::Failed
        } else {
            RolloutState::RolledBack
        };
    }

    fn name(&self) -> &str {
        "rollout-driver"
    }
}
