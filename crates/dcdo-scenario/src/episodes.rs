//! The workloads that wrap `dcdo-workloads`' canonical drivers, run on the
//! world the runner built from the scenario's `topology` line.
//!
//! [`ReconfigEpisode`] is an episode: inside a `window episode` it drives
//! the reconfiguration workflow (`dcdo_workloads::reconfig::reconfig_drive`)
//! to its end on the runner's 16-node centurion testbed. [`SimBench`] is a
//! setup-only workload: it spawns one engine shape (`dcdo_workloads::simbench`)
//! into the runner's bare simulation and posts its kick, and the timed
//! window runs it. The `golden_parity` suite compares both with direct runs
//! of the same drivers.

use dcdo_sim::Simulation;
use dcdo_workloads::{reconfig, simbench};
use legion_substrate::Msg;

use crate::topology::Infra;
use crate::workload::{RunCx, ServiceHandles, Workload};

/// The canonical reconfiguration workflow: a counter service evolved to a
/// padded replacement `step` component on the 16-node testbed, optionally
/// with the instance's host crashed mid-evolution.
///
/// The faulted variant first runs a healthy same-seed baseline on a testbed
/// of its own and records `reconfig.amplification` (faulted window messages
/// over baseline) and `reconfig.recovery_s` gauges.
pub struct ReconfigEpisode {
    faulted: bool,
}

impl ReconfigEpisode {
    /// A healthy (`faulted = false`) or crash-during-reconfig episode.
    pub fn new(faulted: bool) -> Self {
        ReconfigEpisode { faulted }
    }
}

impl Workload for ReconfigEpisode {
    fn name(&self) -> &str {
        if self.faulted {
            "reconfig_episode faulted"
        } else {
            "reconfig_episode"
        }
    }

    fn needs(&self) -> Infra {
        Infra::Legion
    }

    fn has_episode(&self) -> bool {
        true
    }

    fn episode(&mut self, cx: &mut RunCx) {
        // The baseline runs before the faulted drive: `next_generation`'s
        // process-wide counter sees the order.
        let baseline = self
            .faulted
            .then(|| reconfig::reconfig_run(cx.seed, false).drive.window_messages);
        let bed = cx.world.testbed_mut().expect("validated: a legion world");
        let drive = reconfig::reconfig_drive(bed, self.faulted);
        let client_node = bed.nodes[15];
        if let Some(baseline) = baseline {
            cx.gauge(
                "reconfig.amplification",
                drive.window_messages as f64 / baseline.max(1) as f64,
            );
            cx.gauge("reconfig.recovery_s", drive.recovery_time_s);
        }
        cx.add("reconfig.window_messages", drive.window_messages);
        cx.service = Some(ServiceHandles {
            manager: drive.manager_object,
            manager_actor: drive.manager_actor,
            client: drive.client,
            client_node,
            dcdo: drive.dcdo,
            dcdo_node: drive.dcdo_node,
        });
    }
}

/// One engine shape, spawned into the runner's simulation at setup with its
/// kick posted; a timed window runs it. The network and the seed are the
/// topology's and the scenario's.
pub struct SimBench {
    name: &'static str,
    populate: fn(&mut Simulation<Msg>) -> u64,
}

impl SimBench {
    /// The shape `name` (`ping_pong`, `fan_out` or `transfer_heavy`) at the
    /// canonical parameters the trace-invariant suite pins, if it is one.
    pub fn new(name: &str) -> Option<Self> {
        let (name, populate): (_, fn(&mut Simulation<Msg>) -> u64) = match name {
            "ping_pong" => ("ping_pong", |sim| simbench::ping_pong(sim, 200)),
            "fan_out" => ("fan_out", |sim| simbench::fan_out(sim, 20, 8, 16)),
            "transfer_heavy" => ("transfer_heavy", |sim| simbench::transfer_heavy(sim, 4, 6)),
            _ => return None,
        };
        Some(SimBench { name, populate })
    }
}

impl Workload for SimBench {
    fn name(&self) -> &str {
        self.name
    }

    fn setup(&mut self, cx: &mut RunCx) {
        (self.populate)(cx.world.sim_mut().expect("a built world"));
    }
}
