//! The workload trait and the run context workloads share.
//!
//! A [`Workload`] is a trait object with four phases:
//!
//! - [`setup`](Workload::setup) builds standing structure before the run
//!   window opens — spawn a chatter ring, install a chaos controller,
//!   stand up a DCDO service.
//! - [`step`](Workload::step) drives one closed-loop traffic unit. Inside
//!   a tick window the runner picks which workload steps by a weighted
//!   draw from the engine's per-lane deterministic RNG streams, so the
//!   mix is a pure function of the seed.
//! - [`episode`](Workload::episode) drives a complete canonical run (the
//!   reconfiguration workflow) to its end on the world the runner built,
//!   inside an `episode` window.
//! - [`measure`](Workload::measure) records workload-specific counters and
//!   gauges after the window closes and the queue drains.
//!
//! All phases share a [`RunCx`]: the built [`World`], the optional DCDO
//! [`ServiceHandles`], and the counter/gauge stats the report exports and
//! expectations judge.

use std::cell::{Ref, RefCell};
use std::collections::BTreeMap;

use dcdo_chaos::FaultPlan;
use dcdo_sim::{ActorId, NodeId, SimDuration, Violation};
use dcdo_types::ObjectId;

use crate::topology::{Infra, World};

/// Identities of a stood-up DCDO counter service, shared between the
/// service workload that builds it and the traffic workloads that drive it.
#[derive(Debug, Clone, Copy)]
pub struct ServiceHandles {
    /// The DCDO manager's object identity.
    pub manager: ObjectId,
    /// The DCDO manager's actor.
    pub manager_actor: ActorId,
    /// The closed-loop client actor issuing calls and control ops.
    pub client: ActorId,
    /// The node hosting the client (its lane seeds the weighted selector).
    pub client_node: NodeId,
    /// The live DCDO instance.
    pub dcdo: ObjectId,
    /// The node hosting the instance at creation time (migrations move it).
    pub dcdo_node: NodeId,
}

/// Identities of a deployed replica group, shared between the group
/// workload that stands it up and the rolling-upgrade workload that
/// reconfigures it.
#[derive(Clone)]
pub struct GroupHandles {
    /// The deployed group: coordinator, replicas, object ids.
    pub deployment: dcdo_group::GroupDeployment,
    /// The closed-loop client driving application traffic at the group.
    pub client: ActorId,
    /// The rolling-upgrade driver, once one is installed.
    pub driver: Option<ActorId>,
}

/// Shared state for one scenario run: the world, the service handles, and
/// the stats that workloads record and expectations judge.
pub struct RunCx {
    /// The scenario's RNG seed.
    pub seed: u64,
    /// The world the runner built from the topology.
    pub world: World,
    /// Handles to a stood-up DCDO service, if a service workload built one.
    pub service: Option<ServiceHandles>,
    /// Handles to a deployed replica group, if a group workload built one.
    pub group: Option<GroupHandles>,
    /// Monotonic counters recorded by workloads and the runner
    /// (`calls.ok`, `migrations.err`, …).
    pub counters: BTreeMap<String, u64>,
    /// Gauges recorded by workloads and the runner (`net.amplification`,
    /// `mix.calls.observed`, …).
    pub gauges: BTreeMap<String, f64>,
    /// The invariant checker's latest verdict and the length of the span
    /// log it judged (see [`RunCx::trace_violations`]).
    violations: RefCell<Option<(usize, Vec<Violation>)>>,
}

impl RunCx {
    /// A fresh context over `world`.
    pub fn new(seed: u64, world: World) -> Self {
        RunCx {
            seed,
            world,
            service: None,
            group: None,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            violations: RefCell::new(None),
        }
    }

    /// Every trace-invariant violation in the world's span log. The
    /// scenario runner installs the verdict of its post-run sweep, which
    /// the expectations and the report then share. A read before that —
    /// from a workload's `measure`, an expectation's `capture`, or a caller
    /// judging without the runner — checks the log as it stands, and the
    /// verdict is kept only until the log grows.
    pub fn trace_violations(&self) -> Ref<'_, [Violation]> {
        let spans = self.world.sim().expect("a built world").spans();
        let len = spans.len();
        let fresh = matches!(&*self.violations.borrow(), Some((judged, _)) if *judged == len);
        if !fresh {
            #[cfg(test)]
            crate::runner::SPAN_VISITS.with(|v| v.set(v.get() + len as u64));
            *self.violations.borrow_mut() = Some((len, dcdo_sim::check_trace_invariants(spans)));
        }
        Ref::map(self.violations.borrow(), |verdict| {
            verdict.as_ref().map_or(&[][..], |(_, v)| &v[..])
        })
    }

    /// Installs the checker's verdict on the span log as it stands now
    /// (the runner's post-run sweep), replacing any earlier one.
    pub(crate) fn install_trace_violations(&mut self, violations: Vec<Violation>) {
        let len = self.world.sim().expect("a built world").spans().len();
        *self.violations.get_mut() = Some((len, violations));
    }

    /// Increments counter `key` by one.
    pub fn bump(&mut self, key: &str) {
        self.add(key, 1);
    }

    /// Adds `n` to counter `key`.
    pub fn add(&mut self, key: &str, n: u64) {
        match self.counters.get_mut(key) {
            Some(v) => *v += n,
            None => {
                self.counters.insert(key.to_string(), n);
            }
        }
    }

    /// Records gauge `key` (last write wins).
    pub fn gauge(&mut self, key: &str, value: f64) {
        match self.gauges.get_mut(key) {
            Some(v) => *v = value,
            None => {
                self.gauges.insert(key.to_string(), value);
            }
        }
    }

    /// Counter `key`'s current value (0 when never recorded).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }
}

/// One traffic source, fault driver, or episode in a scenario.
///
/// Implementations only override the phases they participate in: a chaos
/// attachment only sets up, a call generator only steps, an episode only
/// runs whole. The default for every phase is a no-op.
pub trait Workload {
    /// Stable name, used in reports, tick counters, and mix gauges.
    fn name(&self) -> &str;

    /// Which infrastructure tier this workload needs; validated before the
    /// world is built. [`Infra::Bare`] workloads run on any world,
    /// [`Infra::Legion`] workloads need the testbed.
    fn needs(&self) -> Infra {
        Infra::Bare
    }

    /// `true` if this workload runs whole in its [`episode`](Workload::episode)
    /// hook; validation keeps an `episode` window for such workloads only.
    fn has_episode(&self) -> bool {
        false
    }

    /// `true` if `setup` publishes the [`ServiceHandles`] the
    /// service-driving workloads step against.
    fn provides_service(&self) -> bool {
        false
    }

    /// `true` if every `step` drives the shared DCDO service; validation
    /// rejects such a workload when nothing in the scenario provides one.
    fn drives_service(&self) -> bool {
        false
    }

    /// Validates this workload's parameters against the topology before
    /// anything is built (home node in range, ring fits the node count).
    /// Called by `Scenario::validate`.
    fn check(&self, topology: &crate::topology::Topology) -> Result<(), crate::ScenarioError> {
        let _ = topology;
        Ok(())
    }

    /// Builds standing structure before the run window opens.
    fn setup(&mut self, cx: &mut RunCx) {
        let _ = cx;
    }

    /// Drives one closed-loop traffic unit; called when the weighted
    /// selector picks this workload for tick `tick`.
    fn step(&mut self, cx: &mut RunCx, tick: u64) {
        let _ = (cx, tick);
    }

    /// Drives a complete episode on `cx.world`; the runner drains the
    /// queue afterwards.
    fn episode(&mut self, cx: &mut RunCx) {
        let _ = cx;
    }

    /// Records workload-specific stats after the window closes and the
    /// event queue drains.
    fn measure(&mut self, cx: &mut RunCx) {
        let _ = cx;
    }

    /// The fault plan this workload installs, if any; used to validate
    /// that the run window is long enough for every planned step to fire.
    fn fault_plan(&self) -> Option<&FaultPlan> {
        None
    }

    /// When this workload's own internal schedule (wave plans, staged
    /// phases) fires its last step, if it has one; used to validate that a
    /// timed run window is long enough to reach the end of the schedule.
    fn schedule_end(&self) -> Option<SimDuration> {
        None
    }
}
