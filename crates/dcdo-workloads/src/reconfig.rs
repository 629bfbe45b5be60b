//! The canonical reconfiguration workload: a counter service evolved to a
//! padded (1 MB) replacement `step` component, with the span log recording.
//!
//! This is the workload behind the paper-style reconfiguration-cost tables:
//! [`reconfig_run`] drives a complete version workflow (derive, incorporate,
//! enable, instantiate, update) on a 16-node testbed and returns the
//! finished [`Testbed`] together with every identifier the profiler needs —
//! which actor is the manager, which is the vault, which node hosts the
//! instance — so [`ReconfigRun::layer_map`] can attribute critical-path time
//! to the right layer and [`ReconfigRun::fn_names`] can print function names
//! instead of hashes.
//!
//! The same function (with `inject_fault = true`) is the driver the
//! declared `crash_during_reconfig` scenario's episode wraps.

use dcdo_core::ops::{CheckpointDcdo, NodeFailed, NodeRecovered, UpdateInstance, VersionConfigOp};
use dcdo_profile::{FnNames, Layer, LayerMap, ProfileReport};
use dcdo_sim::{ActorId, NodeId, SimDuration};
use dcdo_types::{ObjectId, VersionId};
use dcdo_vm::{ComponentBuilder, Value, VmTotals};
use legion_substrate::harness::Testbed;
use legion_substrate::ControlOp;

use crate::manager::Manager;
use crate::service;
use crate::strategy::Strategy;

/// A fat replacement `step` component: its static data makes the transfer
/// take seconds, leaving a wide window to crash the host mid-evolution.
pub fn padded_step() -> dcdo_vm::ComponentBinary {
    ComponentBuilder::new(service::ids::STEP_TEN, "step-by-ten-padded")
        .internal("step() -> int", |b| b.push_int(10).ret())
        .expect("step")
        .static_data_size(1_000_000)
        .build()
        .expect("valid component")
}

/// A finished reconfiguration run: the testbed (trace, metrics, spans) plus
/// the identities the profiler needs to attribute time to layers.
pub struct ReconfigRun {
    /// The testbed after the run; its span log holds the full trace.
    pub bed: Testbed,
    /// The DCDO manager's actor.
    pub manager_actor: ActorId,
    /// The DCDO manager's object identity.
    pub manager_object: ObjectId,
    /// The closed-loop client actor that drove the workflow.
    pub client: ActorId,
    /// The evolved DCDO instance.
    pub dcdo: ObjectId,
    /// The node hosting the DCDO instance (the VM layer's node).
    pub dcdo_node: NodeId,
    /// ICO actors publishing the service's components.
    pub ico_actors: Vec<ActorId>,
    /// Messages sent inside the measured reconfiguration window.
    pub window_messages: u64,
    /// Simulated seconds from crash to recovered instance (0 when no fault
    /// was injected).
    pub recovery_time_s: f64,
}

impl ReconfigRun {
    /// Builds the actor/node → layer attribution map for this run:
    /// manager → `Manager`, vault → `Vault`, the instance's node → `Vm`,
    /// the client → `Client`, and hosts/ICOs/directory services → `Host`.
    pub fn layer_map(&self) -> LayerMap {
        let mut map = LayerMap::new();
        for node in &self.bed.nodes {
            map.set_node(node.as_raw(), Layer::Host);
        }
        // Node fallbacks: flow machinery on the manager's node is manager
        // work, flow machinery on the instance's node is object/VM work,
        // and the client's node originates requests.
        map.set_node(self.bed.nodes[0].as_raw(), Layer::Manager);
        map.set_node(self.dcdo_node.as_raw(), Layer::Vm);
        map.set_node(self.bed.nodes[15].as_raw(), Layer::Client);
        // Actor overrides beat the node fallback, so co-located services on
        // node 0 (vault, agent, host object) still classify correctly.
        for host in &self.bed.hosts {
            map.set_actor(host.as_raw(), Layer::Host);
        }
        for ico in &self.ico_actors {
            map.set_actor(ico.as_raw(), Layer::Host);
        }
        map.set_actor(self.bed.vault.as_raw(), Layer::Vault);
        map.set_actor(self.bed.context.as_raw(), Layer::Host);
        map.set_actor(self.bed.agent.actor.as_raw(), Layer::Host);
        map.set_actor(self.manager_actor.as_raw(), Layer::Manager);
        map.set_actor(self.client.as_raw(), Layer::Client);
        map
    }

    /// The hash → name table for the counter service's functions.
    pub fn fn_names(&self) -> FnNames {
        let mut names = FnNames::new();
        names.insert("step").insert("get").insert("incr");
        names
    }

    /// Runs the full profiler over the finished run's span log.
    pub fn profile(&self) -> ProfileReport {
        ProfileReport::analyze(self.bed.sim.spans(), &self.layer_map(), &self.fn_names())
    }

    /// The world's VM totals so far: every profiled thread's counters and
    /// the opcodes its threaded runs retired.
    pub fn vm_totals(&self) -> VmTotals {
        self.bed.sim.totals().cloned().unwrap_or_default()
    }
}

/// Drives the counter service through an evolution to the padded step
/// component, optionally crashing the instance's host one second into the
/// flow. Returns the testbed (for trace/metric/profile extraction) plus the
/// message count of the reconfiguration window and the measured recovery
/// time.
pub fn reconfig_run(seed: u64, inject_fault: bool) -> ReconfigRun {
    let mut bed = Testbed::centurion(seed);
    bed.sim.spans_mut().enable();
    let driver_node = bed.nodes[15];
    let manager = Manager::spawn(&mut bed, Strategy::SingleVersionExplicit, driver_node);
    let (manager_obj, client) = (manager.object, manager.driver);

    // Version 1.1: the counter core, live in one instance on node 4.
    let (core_ico, core_actor) = Manager::publish(&mut bed, &service::counter_core(), 1);
    let v1 = manager.build_version(&mut bed, &VersionId::root(), service::counter_v1(core_ico));
    manager.set_current(&mut bed, &v1);
    let node = bed.nodes[4];
    let (dcdo, _) = manager.create(&mut bed, node);
    for _ in 0..2 {
        bed.call_and_wait(client, dcdo, "incr", vec![])
            .result
            .expect("incr");
    }
    // Snapshot (count = 2): what recovery will rebuild from.
    let checkpoint = ControlOp::new(CheckpointDcdo { object: dcdo });
    manager
        .control(&mut bed, manager_obj, checkpoint)
        .expect("checkpoint");

    // Version 1.1.1: the padded step.
    let (step_ico, step_actor) = Manager::publish(&mut bed, &padded_step(), 2);
    let steps = vec![
        VersionConfigOp::IncorporateComponent { ico: step_ico },
        VersionConfigOp::EnableFunction {
            function: "step".into(),
            component: service::ids::STEP_TEN,
        },
    ];
    let v2 = manager.build_version(&mut bed, &v1, steps);
    manager.set_current(&mut bed, &v2);

    // The measured window: update kickoff to verified post-update service.
    let window_start_messages = bed.sim.network().stats().messages_sent;
    let update = bed.client_control(
        client,
        manager_obj,
        ControlOp::new(UpdateInstance {
            object: dcdo,
            to: None,
        }),
    );
    let mut recovery_time_s = 0.0;
    if inject_fault {
        bed.run_for(SimDuration::from_secs(1));
        bed.sim.crash_node(node);
        let crashed_at = bed.sim.now();
        let failed = ControlOp::new(NodeFailed { node });
        manager
            .control(&mut bed, manager_obj, failed)
            .expect("failure report");
        bed.wait_for(client, update)
            .result
            .expect_err("interrupted update is refused");
        bed.sim.restart_node(node);
        bed.revive_host(node);
        let recovered = ControlOp::new(NodeRecovered { node });
        manager
            .control(&mut bed, manager_obj, recovered)
            .expect("recovery starts");
        while bed.sim.metrics().counter("manager.recoveries") == 0 {
            assert!(bed.sim.step(), "drained before recovery completed");
        }
        recovery_time_s = bed.sim.now().duration_since(crashed_at).as_secs_f64();
        let update = ControlOp::new(UpdateInstance {
            object: dcdo,
            to: None,
        });
        manager
            .control(&mut bed, manager_obj, update)
            .expect("re-issued update lands");
    } else {
        bed.wait_for(client, update).result.expect("update lands");
    }
    // Restored snapshot (count = 2) plus the new +10 step: both the
    // healthy and the faulted path must serve 12.
    let after = bed
        .call_and_wait(client, dcdo, "incr", vec![])
        .result
        .expect("post-update call")
        .into_value()
        .expect("value reply");
    assert_eq!(after, Value::Int(12), "service verified after the episode");
    let window_messages = bed.sim.network().stats().messages_sent - window_start_messages;
    ReconfigRun {
        bed,
        manager_actor: manager.actor,
        manager_object: manager_obj,
        client,
        dcdo,
        dcdo_node: node,
        ico_actors: vec![core_actor, step_actor],
        window_messages,
        recovery_time_s,
    }
}
