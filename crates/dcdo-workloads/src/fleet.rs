//! Fleet orchestration: a manager and a population of DCDOs under one
//! evolution strategy, with propagation/staleness measurement.
//!
//! The paper observes that the proactive policy "does not scale well with
//! the number of DCDOs managed by a particular DCDO Manager" while lazy
//! policies trade staleness for overhead (§3.4). [`Fleet`] builds that
//! experiment: create *N* instances across the testbed, designate a new
//! current version, and measure when each instance converges and what it
//! cost.

use std::collections::HashMap;

use dcdo_core::ops::{LazyCheck, SetLazyCheck, UpdateInstance, VersionConfigOp};
use dcdo_core::DcdoObject;
use dcdo_sim::{ActorId, SimDuration};
use dcdo_types::{ObjectId, VersionId};
use dcdo_vm::ComponentBinary;
use legion_substrate::harness::Testbed;
use legion_substrate::ControlOp;

use crate::manager::Manager;
use crate::strategy::Strategy;

/// Convergence measurement for one version rollout.
#[derive(Debug)]
pub struct PropagationReport {
    /// The version rolled out.
    pub target: VersionId,
    /// Per instance: how long after designation it reflected the target
    /// (`None` = never converged within the observation window).
    pub per_instance: Vec<(ObjectId, Option<SimDuration>)>,
    /// Time until the last instance converged, if all did.
    pub all_converged_after: Option<SimDuration>,
    /// Messages the whole system sent during the rollout window.
    pub messages_sent: u64,
    /// Version-check (lazy poll) operations the manager served.
    pub version_checks: u64,
}

impl PropagationReport {
    /// Fraction of instances that converged.
    pub fn converged_fraction(&self) -> f64 {
        if self.per_instance.is_empty() {
            return 1.0;
        }
        let n = self
            .per_instance
            .iter()
            .filter(|(_, d)| d.is_some())
            .count();
        n as f64 / self.per_instance.len() as f64
    }

    /// Mean convergence delay across converged instances, seconds.
    pub fn mean_staleness_secs(&self) -> Option<f64> {
        let delays: Vec<f64> = self
            .per_instance
            .iter()
            .filter_map(|(_, d)| d.map(|d| d.as_secs_f64()))
            .collect();
        if delays.is_empty() {
            None
        } else {
            Some(delays.iter().sum::<f64>() / delays.len() as f64)
        }
    }
}

/// A manager plus a population of DCDOs under one strategy.
pub struct Fleet {
    /// The underlying testbed.
    pub bed: Testbed,
    /// The manager, driven from node 0.
    pub manager: Manager,
    /// The instances: `(object, actor)`.
    pub instances: Vec<(ObjectId, ActorId)>,
    strategy: Strategy,
}

impl Fleet {
    /// Builds a fleet on a fresh Centurion testbed.
    pub fn new(strategy: Strategy, seed: u64) -> Self {
        Fleet::on_testbed(Testbed::centurion(seed), strategy)
    }

    /// Builds a fleet on an existing testbed (lets callers customize the
    /// cost model or the network).
    pub fn on_testbed(mut bed: Testbed, strategy: Strategy) -> Self {
        let driver_node = bed.nodes[0];
        let manager = Manager::spawn(&mut bed, strategy, driver_node);
        Fleet {
            bed,
            manager,
            instances: Vec::new(),
            strategy,
        }
    }

    /// Publishes a component in a fresh ICO, returning the ICO's identity.
    pub fn publish_component(&mut self, binary: &ComponentBinary, node: usize) -> ObjectId {
        Manager::publish(&mut self.bed, binary, node).0
    }

    /// Derives a new version from `from`, applies the configuration steps,
    /// and marks it instantiable. Returns the new version.
    ///
    /// # Panics
    ///
    /// Panics if any step is refused.
    pub fn build_version(&mut self, from: &VersionId, steps: Vec<VersionConfigOp>) -> VersionId {
        self.manager.build_version(&mut self.bed, from, steps)
    }

    /// Designates `version` as current (triggering proactive push when the
    /// strategy calls for it).
    pub fn set_current(&mut self, version: &VersionId) {
        self.manager.set_current(&mut self.bed, version);
    }

    /// Creates `n` instances round-robin across nodes 1.. and applies the
    /// strategy's lazy-check configuration to each.
    pub fn create_instances(&mut self, n: usize) {
        let lazy = self.strategy.lazy_check();
        for i in 0..n {
            let node = self.bed.nodes[1 + (i % (self.bed.nodes.len() - 1))];
            let (object, actor) = self.manager.create(&mut self.bed, node);
            if lazy != LazyCheck::Never {
                let op = ControlOp::new(SetLazyCheck { mode: lazy });
                if let Err(e) = self.manager.control(&mut self.bed, object, op) {
                    panic!("fleet control op failed: {e}");
                }
            }
            self.instances.push((object, actor));
        }
    }

    /// Explicitly updates every instance to the current version (the
    /// explicit strategies' rollout driver). Returns how many updates the
    /// manager accepted; policy refusals (e.g. the no-update policy) are
    /// counted, not fatal.
    pub fn update_all_explicitly(&mut self) -> usize {
        let mut accepted = 0;
        for (object, _) in self.instances.clone() {
            let op = ControlOp::new(UpdateInstance { object, to: None });
            if self
                .manager
                .control(&mut self.bed, self.manager.object, op)
                .is_ok()
            {
                accepted += 1;
            }
        }
        accepted
    }

    /// The version each instance currently reflects (actor inspection).
    pub fn instance_versions(&self) -> Vec<(ObjectId, VersionId)> {
        self.instances
            .iter()
            .map(|(object, actor)| {
                let v = self
                    .bed
                    .sim
                    .actor::<DcdoObject>(*actor)
                    .map(|d| d.version().clone())
                    .unwrap_or_else(VersionId::root);
                (*object, v)
            })
            .collect()
    }

    /// Rolls out `version` and measures convergence by sampling instance
    /// versions every `sample` of simulated time up to `window`.
    ///
    /// For lazy strategies the caller should keep client traffic flowing
    /// (lazy checks only fire on invocations); use
    /// [`Fleet::measure_rollout_with_traffic`] for that.
    pub fn measure_rollout(
        &mut self,
        version: &VersionId,
        window: SimDuration,
        sample: SimDuration,
    ) -> PropagationReport {
        self.measure_rollout_with_traffic(version, window, sample, None)
    }

    /// Like [`Fleet::measure_rollout`], generating one invocation of
    /// `traffic_fn` per instance per sample slice when provided (to feed
    /// lazy checks).
    pub fn measure_rollout_with_traffic(
        &mut self,
        version: &VersionId,
        window: SimDuration,
        sample: SimDuration,
        traffic_fn: Option<&str>,
    ) -> PropagationReport {
        let msgs_before = self.bed.sim.network().messages_sent();
        let checks_before = self.bed.sim.metrics().counter("manager.version_checks");
        let start = self.bed.sim.now();
        self.set_current(version);
        if self.strategy.propagation() == dcdo_core::UpdatePropagation::Explicit
            && self.strategy.lazy_check() == LazyCheck::Never
        {
            self.update_all_explicitly();
        }

        let mut converged: HashMap<ObjectId, SimDuration> = HashMap::new();
        let deadline = start + window;
        while self.bed.sim.now() < deadline && converged.len() < self.instances.len() {
            if let Some(function) = traffic_fn {
                for (object, _) in self.instances.clone() {
                    self.bed
                        .client_call(self.manager.driver, object, function, vec![]);
                }
            }
            self.bed.run_for(sample);
            let now = self.bed.sim.now();
            for (object, v) in self.instance_versions() {
                if &v == version {
                    converged
                        .entry(object)
                        .or_insert_with(|| now.duration_since(start));
                }
            }
        }
        // Drain any leftover traffic replies.
        self.bed.sim.run_until_idle();

        let per_instance: Vec<(ObjectId, Option<SimDuration>)> = self
            .instances
            .iter()
            .map(|(o, _)| (*o, converged.get(o).copied()))
            .collect();
        let all_converged_after = if converged.len() == self.instances.len() {
            per_instance.iter().filter_map(|(_, d)| *d).max()
        } else {
            None
        };
        PropagationReport {
            target: version.clone(),
            per_instance,
            all_converged_after,
            messages_sent: self.bed.sim.network().messages_sent() - msgs_before,
            version_checks: self.bed.sim.metrics().counter("manager.version_checks")
                - checks_before,
        }
    }

    /// Measures the current time spent by the manager on a proactive push:
    /// designate + run to idle; returns elapsed simulated time.
    pub fn push_and_settle(&mut self, version: &VersionId) -> SimDuration {
        let start = self.bed.sim.now();
        self.set_current(version);
        self.bed.sim.run_until_idle();
        self.bed.sim.now().duration_since(start)
    }

    /// Issues an invocation from the driver and waits for the reply.
    pub fn call(
        &mut self,
        target: ObjectId,
        function: &str,
        args: Vec<dcdo_vm::Value>,
    ) -> Result<dcdo_vm::Value, String> {
        let completion = self
            .bed
            .call_and_wait(self.manager.driver, target, function, args);
        completion
            .result
            .map(|p| p.into_value().expect("value reply"))
            .map_err(|e| e.to_string())
    }
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("strategy", &self.strategy.name())
            .field("instances", &self.instances.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use dcdo_types::ComponentId;
    use dcdo_vm::ComponentBuilder;

    use super::*;

    fn tick_component(id: u64, amount: i64) -> ComponentBinary {
        ComponentBuilder::new(ComponentId::from_raw(id), format!("tick-{amount}"))
            .exported("tick() -> int", move |b| b.push_int(amount).ret())
            .expect("tick")
            .build()
            .expect("valid")
    }

    fn base_version(fleet: &mut Fleet) -> VersionId {
        let comp = tick_component(1, 1);
        let ico = fleet.publish_component(&comp, 1);
        let root = VersionId::root();
        let v = fleet.build_version(
            &root,
            vec![
                VersionConfigOp::IncorporateComponent { ico },
                VersionConfigOp::EnableFunction {
                    function: "tick".into(),
                    component: ComponentId::from_raw(1),
                },
            ],
        );
        fleet.set_current(&v);
        v
    }

    fn next_version(fleet: &mut Fleet, from: &VersionId) -> VersionId {
        let comp = tick_component(2, 10);
        let ico = fleet.publish_component(&comp, 2);
        fleet.build_version(
            from,
            vec![
                VersionConfigOp::IncorporateComponent { ico },
                VersionConfigOp::EnableFunction {
                    function: "tick".into(),
                    component: ComponentId::from_raw(2),
                },
            ],
        )
    }

    #[test]
    fn proactive_fleet_converges_without_traffic() {
        let mut fleet = Fleet::new(Strategy::SingleVersionProactive, 1);
        let v1 = base_version(&mut fleet);
        fleet.create_instances(6);
        let v2 = next_version(&mut fleet, &v1);
        let report = fleet.measure_rollout(
            &v2,
            SimDuration::from_secs(60),
            SimDuration::from_millis(250),
        );
        assert_eq!(report.converged_fraction(), 1.0, "{report:?}");
        assert!(report.all_converged_after.expect("converged") < SimDuration::from_secs(30));
        assert_eq!(report.version_checks, 0, "proactive needs no lazy polls");
    }

    #[test]
    fn explicit_fleet_converges_via_update_calls() {
        let mut fleet = Fleet::new(Strategy::SingleVersionExplicit, 2);
        let v1 = base_version(&mut fleet);
        fleet.create_instances(4);
        let v2 = next_version(&mut fleet, &v1);
        let report = fleet.measure_rollout(
            &v2,
            SimDuration::from_secs(60),
            SimDuration::from_millis(250),
        );
        assert_eq!(report.converged_fraction(), 1.0);
    }

    #[test]
    fn lazy_fleet_needs_traffic_to_converge() {
        let mut fleet = Fleet::new(Strategy::SingleVersionLazyEveryCall, 3);
        let v1 = base_version(&mut fleet);
        fleet.create_instances(3);
        let v2 = next_version(&mut fleet, &v1);

        // Without traffic, nothing converges.
        let report =
            fleet.measure_rollout(&v2, SimDuration::from_secs(10), SimDuration::from_secs(1));
        assert_eq!(report.converged_fraction(), 0.0);

        // With traffic, lazy checks pull the update.
        let v3 = {
            let comp = tick_component(3, 100);
            let ico = fleet.publish_component(&comp, 3);
            fleet.build_version(
                &v2,
                vec![
                    VersionConfigOp::IncorporateComponent { ico },
                    VersionConfigOp::EnableFunction {
                        function: "tick".into(),
                        component: ComponentId::from_raw(3),
                    },
                ],
            )
        };
        let report = fleet.measure_rollout_with_traffic(
            &v3,
            SimDuration::from_secs(30),
            SimDuration::from_millis(500),
            Some("tick"),
        );
        assert_eq!(report.converged_fraction(), 1.0, "{report:?}");
        assert!(report.version_checks > 0, "lazy polls happened");
    }

    #[test]
    fn no_update_fleet_never_converges() {
        let mut fleet = Fleet::new(Strategy::MultiNoUpdate, 4);
        let v1 = base_version(&mut fleet);
        fleet.create_instances(2);
        let v2 = next_version(&mut fleet, &v1);
        let report =
            fleet.measure_rollout(&v2, SimDuration::from_secs(10), SimDuration::from_secs(1));
        assert_eq!(report.converged_fraction(), 0.0);
        // Old instances still answer with the old behavior.
        let (obj, _) = fleet.instances[0];
        assert_eq!(
            fleet.call(obj, "tick", vec![]).expect("tick"),
            dcdo_vm::Value::Int(1)
        );
    }

    #[test]
    fn fleet_behavior_changes_after_rollout() {
        let mut fleet = Fleet::new(Strategy::SingleVersionProactive, 5);
        let v1 = base_version(&mut fleet);
        fleet.create_instances(2);
        let (obj, _) = fleet.instances[0];
        assert_eq!(
            fleet.call(obj, "tick", vec![]).expect("tick"),
            dcdo_vm::Value::Int(1)
        );
        let v2 = next_version(&mut fleet, &v1);
        fleet.push_and_settle(&v2);
        assert_eq!(
            fleet.call(obj, "tick", vec![]).expect("tick"),
            dcdo_vm::Value::Int(10)
        );
    }

    #[test]
    fn fleet_instances_can_checkpoint() {
        // The fleet's manager has the testbed's vault attached, so the
        // §3.1 checkpoint flow is admitted rather than refused.
        let mut fleet = Fleet::new(Strategy::SingleVersionExplicit, 6);
        base_version(&mut fleet);
        fleet.create_instances(1);
        let (object, _) = fleet.instances[0];
        let op = ControlOp::new(dcdo_core::ops::CheckpointDcdo { object });
        let checkpoint = fleet
            .manager
            .control(&mut fleet.bed, fleet.manager.object, op);
        assert_eq!(checkpoint, Ok(()));
    }
}

#[cfg(test)]
mod more_tests {
    use dcdo_types::ComponentId;
    use dcdo_vm::ComponentBuilder;

    use super::*;
    use crate::strategy::Strategy;

    fn tick_component(id: u64, amount: i64) -> ComponentBinary {
        ComponentBuilder::new(ComponentId::from_raw(id), format!("tick-{amount}"))
            .exported("tick() -> int", move |b| b.push_int(amount).ret())
            .expect("tick")
            .build()
            .expect("valid")
    }

    fn version_with(fleet: &mut Fleet, from: &VersionId, id: u64, amount: i64) -> VersionId {
        let comp = tick_component(id, amount);
        let ico = fleet.publish_component(&comp, id as usize % 8);
        fleet.build_version(
            from,
            vec![
                dcdo_core::ops::VersionConfigOp::IncorporateComponent { ico },
                dcdo_core::ops::VersionConfigOp::EnableFunction {
                    function: "tick".into(),
                    component: ComponentId::from_raw(id),
                },
            ],
        )
    }

    #[test]
    fn lazy_periodic_fleet_converges_under_traffic() {
        // The §3.4 "once every t time units" lazy variant.
        let mut fleet = Fleet::new(
            Strategy::SingleVersionLazyPeriodic(SimDuration::from_secs(2)),
            8,
        );
        let root = VersionId::root();
        let v1 = version_with(&mut fleet, &root, 1, 1);
        fleet.set_current(&v1);
        fleet.create_instances(3);
        let v2 = version_with(&mut fleet, &v1, 2, 10);
        let report = fleet.measure_rollout_with_traffic(
            &v2,
            SimDuration::from_secs(30),
            SimDuration::from_millis(500),
            Some("tick"),
        );
        assert_eq!(report.converged_fraction(), 1.0, "{report:?}");
        // The periodic check throttles polls: far fewer checks than calls.
        assert!(report.version_checks > 0);
        assert!(
            report.version_checks < 60,
            "periodic checks are throttled, got {}",
            report.version_checks
        );
    }

    #[test]
    fn overlapping_pushes_converge_to_the_latest_version() {
        // Two current-version changes in quick succession: per-instance
        // update serialization must make the *latest* one stick even though
        // the first push's Apply (with a slow component download) is still
        // in flight when the second arrives.
        let mut fleet = Fleet::new(Strategy::SingleVersionProactive, 9);
        let root = VersionId::root();
        let v1 = version_with(&mut fleet, &root, 1, 1);
        fleet.set_current(&v1);
        fleet.create_instances(2);

        // v2's component is padded so its download takes ~2 simulated
        // seconds; v3 is tiny.
        let big = ComponentBuilder::new(ComponentId::from_raw(2), "big")
            .exported("tick() -> int", |b| b.push_int(10).ret())
            .expect("tick")
            .static_data_size(500_000)
            .build()
            .expect("valid");
        let ico = fleet.publish_component(&big, 2);
        let v2 = fleet.build_version(
            &v1,
            vec![
                dcdo_core::ops::VersionConfigOp::IncorporateComponent { ico },
                dcdo_core::ops::VersionConfigOp::EnableFunction {
                    function: "tick".into(),
                    component: ComponentId::from_raw(2),
                },
            ],
        );
        let v3 = version_with(&mut fleet, &v2, 3, 100);

        fleet.set_current(&v2);
        // Let the v2 push get under way but not finish...
        fleet.bed.run_for(SimDuration::from_millis(200));
        // ...then supersede it.
        fleet.set_current(&v3);
        fleet.bed.sim.run_until_idle();

        for (obj, v) in fleet.instance_versions() {
            assert_eq!(v, v3, "instance {obj} must land on the latest version");
        }
        let (obj, _) = fleet.instances[0];
        assert_eq!(
            fleet.call(obj, "tick", vec![]).expect("tick"),
            dcdo_vm::Value::Int(100)
        );
    }
}
