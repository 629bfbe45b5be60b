//! The actor that executes a [`FaultPlan`] inside a simulation.

use std::marker::PhantomData;

use dcdo_sim::{Actor, ActorId, Ctx, NodeId, Payload, Simulation, SpanKind, NO_NODE};

use crate::plan::{FaultAction, FaultPlan, FaultStep, PlanError};

/// Counters of fault actions actually applied (vs merely scheduled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Nodes crashed.
    pub crashes: u64,
    /// Nodes restarted.
    pub restarts: u64,
    /// Partitions installed.
    pub partitions: u64,
    /// Partitions healed.
    pub heals: u64,
    /// Link faults installed or cleared.
    pub link_changes: u64,
}

impl ChaosStats {
    /// Total actions applied.
    pub fn total(&self) -> u64 {
        self.crashes + self.restarts + self.partitions + self.heals + self.link_changes
    }
}

/// Executes a [`FaultPlan`]: one engine timer per step, applied in `(time,
/// seq)` order like every other event, so the whole fault schedule replays
/// bit-identically under a fixed seed.
///
/// The controller is an ordinary actor and draws nothing from the
/// simulation RNG. It must be placed on a node the plan never crashes
/// (crashing it would cancel the timers that carry the rest of the plan);
/// [`ChaosController::install`] enforces this.
pub struct ChaosController<M: Payload> {
    steps: Vec<FaultStep>,
    applied: usize,
    stats: ChaosStats,
    _payload: PhantomData<fn(M)>,
}

impl<M: Payload> ChaosController<M> {
    /// Spawns a controller on `node` and schedules every step of `plan`
    /// relative to the current simulation time. Returns the controller's
    /// actor id (downcast with [`Simulation::actor`] to read
    /// [`stats`](Self::stats) afterwards).
    ///
    /// # Panics
    ///
    /// Panics if the plan crashes `node` itself: the controller must
    /// outlive the plan it executes.
    pub fn install(sim: &mut Simulation<M>, node: NodeId, plan: FaultPlan) -> ActorId {
        assert!(
            !plan.crashes(node),
            "the chaos controller's node {node} is crashed by its own plan; \
             place the controller on an observer node"
        );
        let steps = plan.into_sorted_steps();
        let offsets: Vec<_> = steps.iter().map(|s| s.at).collect();
        let controller = ChaosController {
            steps,
            applied: 0,
            stats: ChaosStats::default(),
            _payload: PhantomData,
        };
        let actor = sim.spawn(node, controller);
        // Timers are scheduled in step order, so same-instant steps apply
        // in insertion order (seq breaks the tie).
        for (idx, at) in offsets.into_iter().enumerate() {
            sim.schedule_timer_for(actor, at, idx as u64);
        }
        actor
    }

    /// Like [`ChaosController::install`], but validates the plan first and
    /// returns a typed [`PlanError`] instead of installing a contradictory
    /// schedule (or panicking on a plan that crashes the controller's own
    /// node). Nothing is spawned or scheduled on error.
    pub fn try_install(
        sim: &mut Simulation<M>,
        node: NodeId,
        plan: FaultPlan,
    ) -> Result<ActorId, PlanError> {
        if plan.crashes(node) {
            return Err(PlanError::CrashesController { node });
        }
        plan.validate()?;
        Ok(Self::install(sim, node, plan))
    }

    /// Counters of actions applied so far.
    pub fn stats(&self) -> &ChaosStats {
        &self.stats
    }

    /// Steps not yet applied.
    pub fn remaining(&self) -> usize {
        self.steps.len() - self.applied
    }

    fn apply(&mut self, ctx: &mut Ctx<'_, M>, action: FaultAction) {
        // Stable action codes for `ChaosFault` spans (see `SpanKind`).
        let (code, target) = match &action {
            FaultAction::CrashNode(node) => (1, node.as_raw()),
            FaultAction::RestartNode(node) => (2, node.as_raw()),
            FaultAction::Partition(_) => (3, NO_NODE),
            FaultAction::Heal => (4, NO_NODE),
            FaultAction::SetLinkFault { src, .. } => (5, src.as_raw()),
            FaultAction::ClearLinkFault { src, .. } => (6, src.as_raw()),
        };
        if ctx.tracing_enabled() {
            ctx.emit_span(SpanKind::ChaosFault {
                action: code,
                node: target,
            });
        }
        match action {
            FaultAction::CrashNode(node) => {
                ctx.crash_node(node);
                self.stats.crashes += 1;
            }
            FaultAction::RestartNode(node) => {
                ctx.restart_node(node);
                self.stats.restarts += 1;
            }
            FaultAction::Partition(groups) => {
                // Traced wrappers so the invariant checker sees topology.
                ctx.set_partition(&groups);
                self.stats.partitions += 1;
            }
            FaultAction::Heal => {
                ctx.heal_partition();
                self.stats.heals += 1;
            }
            FaultAction::SetLinkFault { src, dst, fault } => {
                ctx.set_link_fault(src, dst, fault);
                self.stats.link_changes += 1;
            }
            FaultAction::ClearLinkFault { src, dst } => {
                ctx.clear_link_fault(src, dst);
                self.stats.link_changes += 1;
            }
        }
        ctx.metrics().incr("chaos.actions_applied");
    }
}

impl<M: Payload> Actor<M> for ChaosController<M> {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, M>, _from: ActorId, _msg: M) {
        // The controller is driven purely by its own timers.
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, token: u64) {
        let Some(step) = self.steps.get(token as usize) else {
            return;
        };
        let action = step.action.clone();
        self.applied += 1;
        self.apply(ctx, action);
    }

    fn name(&self) -> &str {
        "chaos-controller"
    }
}

impl<M: Payload> std::fmt::Debug for ChaosController<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosController")
            .field("steps", &self.steps.len())
            .field("stats", &self.stats)
            .finish()
    }
}
