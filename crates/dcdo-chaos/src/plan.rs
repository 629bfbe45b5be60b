//! The declarative fault schedule.

use dcdo_sim::{LinkFault, NodeId, SimDuration};

/// A structural defect in a [`FaultPlan`], caught by [`FaultPlan::validate`]
/// before the plan touches a simulation.
///
/// Only *contradictory* schedules are errors. Benign redundancies are
/// documented no-ops instead: healing when no partition is installed, or
/// clearing a link fault that was never set, leave the network unchanged at
/// runtime and pass validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A node is crashed again while an earlier crash window is still open
    /// (no restart between the two crashes). The second crash would be a
    /// silent no-op at runtime, so the window the author asked for —
    /// typically via overlapping [`FaultPlan::crash_for`] calls — would not
    /// be the window they get.
    OverlappingCrash {
        /// The doubly-crashed node.
        node: NodeId,
        /// When the still-open crash window began.
        first_at: SimDuration,
        /// When the conflicting second crash fires.
        second_at: SimDuration,
    },
    /// A restart is scheduled for a node the plan has not crashed by that
    /// point. The restart would be a silent no-op at runtime, which almost
    /// always means a typo'd node id or a misordered schedule.
    RestartWithoutCrash {
        /// The never-crashed node.
        node: NodeId,
        /// When the orphaned restart fires.
        at: SimDuration,
    },
    /// The plan crashes the node the controller itself runs on, which would
    /// cancel the timers carrying the rest of the plan (see
    /// [`crate::ChaosController::try_install`]).
    CrashesController {
        /// The controller's node.
        node: NodeId,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::OverlappingCrash {
                node,
                first_at,
                second_at,
            } => write!(
                f,
                "node {node} crashed again at {second_at:?} while the crash \
                 window opened at {first_at:?} is still open"
            ),
            PlanError::RestartWithoutCrash { node, at } => write!(
                f,
                "restart of node {node} at {at:?} but the plan never crashes \
                 it before then"
            ),
            PlanError::CrashesController { node } => write!(
                f,
                "plan crashes the controller's own node {node}; place the \
                 controller on an observer node"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// One fault action, applied instantaneously at its scheduled time.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Crash a node: its actors die, their timers are cancelled, and
    /// traffic to or from the node is dropped as unreachable.
    CrashNode(NodeId),
    /// Bring a crashed node back up. Actors that died in the crash stay
    /// dead; recovery layers are responsible for spawning replacements.
    RestartNode(NodeId),
    /// Partition the network into the given groups; nodes not listed in
    /// any group form an implicit group of their own. Replaces any
    /// partition installed earlier.
    Partition(Vec<Vec<NodeId>>),
    /// Heal the partition (crashed nodes stay down).
    Heal,
    /// Install (or replace) a fault on the directed link `src -> dst`.
    SetLinkFault {
        /// Sending side of the link.
        src: NodeId,
        /// Receiving side of the link.
        dst: NodeId,
        /// The loss/latency override.
        fault: LinkFault,
    },
    /// Remove the fault on the directed link `src -> dst`.
    ClearLinkFault {
        /// Sending side of the link.
        src: NodeId,
        /// Receiving side of the link.
        dst: NodeId,
    },
}

/// A scheduled fault: `action` fires `at` after the plan is installed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultStep {
    /// Offset from plan installation.
    pub at: SimDuration,
    /// What happens.
    pub action: FaultAction,
}

/// A deterministic, replayable schedule of fault actions.
///
/// Steps are kept in insertion order;
/// [`ChaosController::install`](crate::ChaosController::install) stably sorts them by time, so two steps
/// at the same instant apply in the order they were added.
///
/// # Examples
///
/// ```
/// use dcdo_chaos::FaultPlan;
/// use dcdo_sim::{NodeId, SimDuration};
///
/// let n3 = NodeId::from_raw(3);
/// let plan = FaultPlan::new()
///     .crash_for(SimDuration::from_secs(10), SimDuration::from_secs(30), n3)
///     .partition_at(
///         SimDuration::from_secs(60),
///         &[vec![NodeId::from_raw(0), NodeId::from_raw(1)]],
///     )
///     .heal_at(SimDuration::from_secs(90));
/// assert_eq!(plan.len(), 4);
/// assert_eq!(plan.last_at(), Some(SimDuration::from_secs(90)));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    steps: Vec<FaultStep>,
}

impl FaultPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds an arbitrary step.
    pub fn step(mut self, at: SimDuration, action: FaultAction) -> Self {
        self.steps.push(FaultStep { at, action });
        self
    }

    /// Crashes `node` at `at`.
    pub fn crash_at(self, at: SimDuration, node: NodeId) -> Self {
        self.step(at, FaultAction::CrashNode(node))
    }

    /// Restarts `node` at `at`.
    pub fn restart_at(self, at: SimDuration, node: NodeId) -> Self {
        self.step(at, FaultAction::RestartNode(node))
    }

    /// Crashes `node` at `at` and restarts it `down_for` later.
    pub fn crash_for(self, at: SimDuration, down_for: SimDuration, node: NodeId) -> Self {
        self.crash_at(at, node).restart_at(at + down_for, node)
    }

    /// Crashes `node` for `down_for` at *each* offset in `ats` — the chaos
    /// composition for boundary sweeps (e.g. bouncing a wave coordinator at
    /// every wave of a rolling upgrade). Offsets must be spaced further
    /// apart than `down_for`, or [`FaultPlan::validate`] reports the
    /// overlapping crash windows.
    pub fn crash_for_at_each(
        self,
        ats: impl IntoIterator<Item = SimDuration>,
        down_for: SimDuration,
        node: NodeId,
    ) -> Self {
        ats.into_iter()
            .fold(self, |plan, at| plan.crash_for(at, down_for, node))
    }

    /// Installs a partition at `at` (see [`FaultAction::Partition`]).
    pub fn partition_at(self, at: SimDuration, groups: &[Vec<NodeId>]) -> Self {
        self.step(at, FaultAction::Partition(groups.to_vec()))
    }

    /// Heals any partition at `at`.
    ///
    /// Healing when no partition is installed is a documented no-op: the
    /// network is already whole, the step applies without effect (and
    /// without error), and [`FaultPlan::validate`] accepts it. This lets
    /// plans defensively end with a heal regardless of which branches fired.
    pub fn heal_at(self, at: SimDuration) -> Self {
        self.step(at, FaultAction::Heal)
    }

    /// Installs a directed link fault at `at`.
    pub fn link_fault_at(
        self,
        at: SimDuration,
        src: NodeId,
        dst: NodeId,
        fault: LinkFault,
    ) -> Self {
        self.step(at, FaultAction::SetLinkFault { src, dst, fault })
    }

    /// Clears a directed link fault at `at`.
    pub fn clear_link_fault_at(self, at: SimDuration, src: NodeId, dst: NodeId) -> Self {
        self.step(at, FaultAction::ClearLinkFault { src, dst })
    }

    /// The scheduled steps, in insertion order.
    pub fn steps(&self) -> &[FaultStep] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Returns `true` if the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The latest scheduled offset, if any — useful for sizing a run.
    pub fn last_at(&self) -> Option<SimDuration> {
        self.steps.iter().map(|s| s.at).max()
    }

    /// Returns `true` if any step crashes `node`.
    pub fn crashes(&self, node: NodeId) -> bool {
        self.steps
            .iter()
            .any(|s| matches!(s.action, FaultAction::CrashNode(n) if n == node))
    }

    /// Checks the schedule for structural defects (see [`PlanError`]).
    ///
    /// The check replays the steps in the same stably-sorted `(time,
    /// insertion)` order the controller will apply them in, tracking which
    /// nodes are down. Crashing a node whose crash window is still open is
    /// [`PlanError::OverlappingCrash`]; restarting a node the plan has not
    /// crashed by then is [`PlanError::RestartWithoutCrash`]. Healing with
    /// no partition installed and clearing an absent link fault are benign
    /// no-ops, not errors.
    ///
    /// Validation is advisory for [`crate::ChaosController::install`]
    /// (which accepts any plan — every action is idempotent at runtime) and
    /// mandatory for [`crate::ChaosController::try_install`].
    pub fn validate(&self) -> Result<(), PlanError> {
        let mut ordered: Vec<&FaultStep> = self.steps.iter().collect();
        ordered.sort_by_key(|s| s.at);
        let mut down: Vec<(NodeId, SimDuration)> = Vec::new();
        for step in ordered {
            match step.action {
                FaultAction::CrashNode(node) => {
                    if let Some((_, first_at)) = down.iter().find(|(n, _)| *n == node) {
                        return Err(PlanError::OverlappingCrash {
                            node,
                            first_at: *first_at,
                            second_at: step.at,
                        });
                    }
                    down.push((node, step.at));
                }
                FaultAction::RestartNode(node) => {
                    let Some(idx) = down.iter().position(|(n, _)| *n == node) else {
                        return Err(PlanError::RestartWithoutCrash { node, at: step.at });
                    };
                    down.remove(idx);
                }
                // Partition/heal and link-fault set/clear are idempotent
                // replacements; any sequencing of them is well-formed.
                FaultAction::Partition(_)
                | FaultAction::Heal
                | FaultAction::SetLinkFault { .. }
                | FaultAction::ClearLinkFault { .. } => {}
            }
        }
        Ok(())
    }

    pub(crate) fn into_sorted_steps(mut self) -> Vec<FaultStep> {
        self.steps.sort_by_key(|s| s.at);
        self.steps
    }
}
