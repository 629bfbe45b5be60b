//! Typed validation and parse errors for scenario declarations.
//!
//! [`ScenarioError`] mirrors the `FaultPlan` → `PlanError` idiom one layer
//! up: a [`crate::Scenario`] is validated *before* any simulation state is
//! built, and every way a declaration can be wrong has its own variant with
//! enough context to print a precise, actionable message.

use dcdo_chaos::PlanError;
use dcdo_sim::SimDuration;
use std::fmt;

/// Why a scenario declaration was rejected.
///
/// Returned by [`crate::Scenario::validate`], the `.scn` loader, and the
/// registry's name-resolution step. `PartialEq` so tests can assert exact
/// variants.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The topology declares zero nodes — nothing could host an actor.
    NoNodes {
        /// The offending scenario's name.
        scenario: String,
    },
    /// The scenario declares no workloads at all, so the run window would
    /// drive nothing.
    NoWorkloads {
        /// The offending scenario's name.
        scenario: String,
    },
    /// A tick-driven window where every workload has weight zero: the
    /// weighted selector would have an empty distribution to draw from.
    ZeroTotalWeight {
        /// The offending scenario's name.
        scenario: String,
    },
    /// A workload's attached fault plan schedules a step past the end of
    /// the scenario's timed window, so the fault would never fire.
    WindowShorterThanFaultPlan {
        /// The workload carrying the plan.
        workload: String,
        /// The declared run window.
        window: SimDuration,
        /// When the plan's last step fires.
        plan_end: SimDuration,
    },
    /// A workload's internal schedule (e.g. a rolling upgrade's wave plan)
    /// extends past the end of the scenario's timed window, so its last
    /// step would never fire.
    WindowShorterThanSchedule {
        /// The workload carrying the schedule.
        workload: String,
        /// The declared run window.
        window: SimDuration,
        /// When the workload's schedule fires its last step.
        schedule_end: SimDuration,
    },
    /// An episode workload outside an `episode` window, or an `episode`
    /// window with a workload that has no episode: the window runs episode
    /// hooks and nothing else.
    EpisodeMismatch {
        /// The offending scenario's name.
        scenario: String,
    },
    /// A workload needs infrastructure the topology does not build (e.g. a
    /// traffic workload that drives a DCDO service on a bare topology with
    /// no Legion substrate).
    WorldMismatch {
        /// The workload that cannot run.
        workload: String,
        /// What it needs, in words (`"legion"`).
        needs: &'static str,
    },
    /// A workload drives the shared DCDO service (`calls`, `config_ops`,
    /// `migrations`) but no workload in the scenario stands one up, so
    /// every step would silently do nothing.
    MissingService {
        /// The workload with nothing to drive.
        workload: String,
    },
    /// A workload name no factory is registered for.
    UnknownWorkload {
        /// The unresolvable name.
        name: String,
    },
    /// An expectation name no factory is registered for.
    UnknownExpectation {
        /// The unresolvable name.
        name: String,
    },
    /// A workload's attached fault plan failed `FaultPlan::validate`.
    InvalidFaultPlan {
        /// The workload carrying the plan.
        workload: String,
        /// The plan's own typed error.
        error: PlanError,
    },
    /// A parameter that parsed but makes no sense (bad number, missing
    /// required key, out-of-range node).
    BadParam {
        /// Which workload/expectation/directive the parameter belongs to.
        context: String,
        /// What was wrong with it.
        msg: String,
    },
    /// A malformed scenario-file line (unknown directive, bad syntax).
    Parse {
        /// 1-based line number in the scenario text.
        line: usize,
        /// What was wrong with the line.
        msg: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::NoNodes { scenario } => {
                write!(f, "scenario {scenario:?}: topology declares zero nodes")
            }
            ScenarioError::NoWorkloads { scenario } => {
                write!(f, "scenario {scenario:?}: no workloads declared")
            }
            ScenarioError::ZeroTotalWeight { scenario } => write!(
                f,
                "scenario {scenario:?}: tick window with zero total workload weight"
            ),
            ScenarioError::WindowShorterThanFaultPlan {
                workload,
                window,
                plan_end,
            } => write!(
                f,
                "workload {workload:?}: fault plan ends at {:?}s but the run window is {:?}s",
                plan_end.as_secs_f64(),
                window.as_secs_f64()
            ),
            ScenarioError::WindowShorterThanSchedule {
                workload,
                window,
                schedule_end,
            } => write!(
                f,
                "workload {workload:?}: schedule ends at {:?}s but the run window is {:?}s",
                schedule_end.as_secs_f64(),
                window.as_secs_f64()
            ),
            ScenarioError::EpisodeMismatch { scenario } => write!(
                f,
                "scenario {scenario:?}: an episode window runs episode workloads and nothing else"
            ),
            ScenarioError::WorldMismatch { workload, needs } => {
                write!(f, "workload {workload:?} needs a {needs} topology")
            }
            ScenarioError::MissingService { workload } => write!(
                f,
                "workload {workload:?} drives a DCDO service but no workload stands one up \
                 (declare `counter_service`)"
            ),
            ScenarioError::UnknownWorkload { name } => {
                write!(f, "unknown workload {name:?}")
            }
            ScenarioError::UnknownExpectation { name } => {
                write!(f, "unknown expectation {name:?}")
            }
            ScenarioError::InvalidFaultPlan { workload, error } => {
                write!(f, "workload {workload:?}: invalid fault plan: {error}")
            }
            ScenarioError::BadParam { context, msg } => {
                write!(f, "{context}: {msg}")
            }
            ScenarioError::Parse { line, msg } => {
                write!(f, "scenario text line {line}: {msg}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}
