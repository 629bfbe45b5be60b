//! The scenario: a topology, a weighted workload mix, expectations, and a
//! run window, validated as a whole before anything is built.

use dcdo_sim::{NodeId, SimDuration};

use crate::error::ScenarioError;
use crate::expect::Expectation;
use crate::topology::{Infra, Topology};
use crate::workload::Workload;

/// How long and in what mode the run window drives the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// `n` closed-loop ticks; each tick the weighted selector draws one
    /// workload to step. Requires nonzero total weight.
    Ticks(u64),
    /// Run the simulator for a fixed span of simulated time, then drain.
    /// Timer-driven workloads (rings, chaos plans) supply the traffic.
    Timed(SimDuration),
    /// A single self-contained episode: each workload's
    /// [`Workload::episode`](crate::Workload::episode) hook runs once and
    /// installs the finished world.
    Episode,
}

/// One workload with its selection weight. Weight 0 means setup-only: the
/// workload participates in `setup`/`measure` but is never stepped.
pub struct WorkloadSlot {
    /// Relative selection weight inside a tick window; the probability of
    /// stepping this workload each tick is `weight / total_weight`.
    pub weight: u64,
    /// The workload itself.
    pub workload: Box<dyn Workload>,
}

/// A complete scenario declaration: what world to build, what drives it,
/// for how long, and what must hold afterwards.
pub struct Scenario {
    /// Scenario name (report key, `dcdo-inspect scenario <name>`).
    pub name: String,
    /// The RNG seed the whole run derives from.
    pub seed: u64,
    /// The world description.
    pub topology: Topology,
    /// The run window.
    pub window: Window,
    /// The workload mix, in declaration order (setup runs in this order).
    pub workloads: Vec<WorkloadSlot>,
    /// The expectations judged after the run.
    pub expectations: Vec<Box<dyn Expectation>>,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("seed", &self.seed)
            .field("topology", &self.topology)
            .field("window", &self.window)
            .field(
                "workloads",
                &self
                    .workloads
                    .iter()
                    .map(|s| format!("{} (weight {})", s.workload.name(), s.weight))
                    .collect::<Vec<_>>(),
            )
            .field(
                "expectations",
                &self
                    .expectations
                    .iter()
                    .map(|e| e.name().to_string())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Scenario {
    /// Starts a builder for a scenario named `name`.
    pub fn builder(name: &str) -> ScenarioBuilder {
        ScenarioBuilder {
            scenario: Scenario {
                name: name.to_string(),
                seed: 0,
                topology: Topology::bare(0, crate::topology::NetKind::Centurion),
                window: Window::Episode,
                workloads: Vec::new(),
                expectations: Vec::new(),
            },
        }
    }

    /// Replaces the seed (declared scenarios carry a default; tests and
    /// the CLI override it here).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sum of the workloads' selection weights, `None` on `u64` overflow.
    pub(crate) fn total_weight(&self) -> Option<u64> {
        self.workloads
            .iter()
            .try_fold(0u64, |sum, slot| sum.checked_add(slot.weight))
    }

    /// Checks the declaration for internal consistency without building
    /// any simulation state. Mirrors `FaultPlan::validate` one layer up.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.topology.nodes == 0 {
            return Err(ScenarioError::NoNodes {
                scenario: self.name.clone(),
            });
        }
        if self.topology.nodes >= NodeId::LIMIT {
            return Err(ScenarioError::BadParam {
                context: "topology".to_string(),
                msg: format!(
                    "{} nodes exceed the engine's limit of {}",
                    self.topology.nodes,
                    NodeId::LIMIT - 1
                ),
            });
        }
        if self.workloads.is_empty() {
            return Err(ScenarioError::NoWorkloads {
                scenario: self.name.clone(),
            });
        }
        let episode_window = self.window == Window::Episode;
        let episode_topology = self.topology.infra == Infra::Episode;
        if episode_window != episode_topology {
            return Err(ScenarioError::EpisodeMismatch {
                scenario: self.name.clone(),
            });
        }
        if let Window::Ticks(_) = self.window {
            let total = self.total_weight().ok_or_else(|| ScenarioError::BadParam {
                context: format!("scenario {:?}", self.name),
                msg: "total workload weight overflows u64".to_string(),
            })?;
            if total == 0 {
                return Err(ScenarioError::ZeroTotalWeight {
                    scenario: self.name.clone(),
                });
            }
        }
        let has_service = self.workloads.iter().any(|s| s.workload.provides_service());
        for slot in &self.workloads {
            let needs = slot.workload.needs();
            let compatible = match needs {
                Infra::Bare => self.topology.infra != Infra::Episode,
                Infra::Legion => self.topology.infra == Infra::Legion,
                Infra::Episode => self.topology.infra == Infra::Episode,
            };
            if !compatible {
                return Err(ScenarioError::WorldMismatch {
                    workload: slot.workload.name().to_string(),
                    needs: needs.name(),
                });
            }
            if slot.workload.drives_service() && !has_service {
                return Err(ScenarioError::MissingService {
                    workload: slot.workload.name().to_string(),
                });
            }
            slot.workload.check(&self.topology)?;
            if let Some(plan) = slot.workload.fault_plan() {
                if let Err(error) = plan.validate() {
                    return Err(ScenarioError::InvalidFaultPlan {
                        workload: slot.workload.name().to_string(),
                        error,
                    });
                }
                if let (Window::Timed(window), Some(plan_end)) = (self.window, plan.last_at()) {
                    if plan_end > window {
                        return Err(ScenarioError::WindowShorterThanFaultPlan {
                            workload: slot.workload.name().to_string(),
                            window,
                            plan_end,
                        });
                    }
                }
            }
            if let (Window::Timed(window), Some(schedule_end)) =
                (self.window, slot.workload.schedule_end())
            {
                if schedule_end > window {
                    return Err(ScenarioError::WindowShorterThanSchedule {
                        workload: slot.workload.name().to_string(),
                        window,
                        schedule_end,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Fluent construction of a [`Scenario`] in Rust (the file loader in
/// [`crate::parse`] is the declarative equivalent).
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl ScenarioBuilder {
    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.scenario.seed = seed;
        self
    }

    /// Sets the topology.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.scenario.topology = topology;
        self
    }

    /// Uses a tick-driven window of `n` weighted closed-loop ticks.
    pub fn ticks(mut self, n: u64) -> Self {
        self.scenario.window = Window::Ticks(n);
        self
    }

    /// Uses a timed window: run for `d`, then drain.
    pub fn timed(mut self, d: SimDuration) -> Self {
        self.scenario.window = Window::Timed(d);
        self
    }

    /// Uses an episode window (pair with [`Topology::episode`]).
    pub fn episode(mut self) -> Self {
        self.scenario.window = Window::Episode;
        self
    }

    /// Adds a workload with selection weight `weight` (0 = setup-only).
    pub fn workload(mut self, weight: u64, workload: impl Workload + 'static) -> Self {
        self.scenario.workloads.push(WorkloadSlot {
            weight,
            workload: Box::new(workload),
        });
        self
    }

    /// Adds an expectation.
    pub fn expect(mut self, expectation: impl Expectation + 'static) -> Self {
        self.scenario.expectations.push(Box::new(expectation));
        self
    }

    /// Finishes the builder. Validation happens in
    /// [`Scenario::validate`] / [`crate::run`], not here, so tests can
    /// construct deliberately-broken scenarios.
    pub fn build(self) -> Scenario {
        self.scenario
    }
}
