//! Episode workloads: complete, self-contained canonical runs re-expressed
//! as scenario declarations.
//!
//! An episode builds its own world, drives it to completion, and installs
//! the finished world into the run context; the scenario layer contributes
//! validation, expectations, and the report. The episodes here wrap the
//! PR 3–5 canonical drivers — the reconfiguration workflow
//! (`dcdo_workloads::reconfig::reconfig_run`) and the sim-bench shapes —
//! and reproduce their golden trace hashes byte-for-byte (asserted by the
//! `golden_parity` suite).

use dcdo_workloads::{reconfig, simbench};

use crate::topology::{Infra, World};
use crate::workload::{RunCx, ServiceHandles, Workload};

/// The canonical reconfiguration workflow: a counter service evolved to a
/// padded replacement `step` component on a 16-node testbed, optionally
/// with the instance's host crashed mid-evolution.
///
/// The faulted variant first runs a healthy same-seed baseline and records
/// `reconfig.amplification` (faulted window messages over baseline) and
/// `reconfig.recovery_s` gauges.
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
        Infra::Episode
    }

    fn episode(&mut self, cx: &mut RunCx) {
        if self.faulted {
            let baseline = reconfig::reconfig_run(cx.seed, false);
            let mut run = reconfig::reconfig_run(cx.seed, true);
            run.bed.sim.run_until_idle();
            cx.gauge(
                "reconfig.amplification",
                run.window_messages as f64 / baseline.window_messages.max(1) as f64,
            );
            cx.gauge("reconfig.recovery_s", run.recovery_time_s);
            cx.add("reconfig.window_messages", run.window_messages);
            cx.service = Some(handles_of(&run));
            cx.world = World::Legion(run.bed);
        } else {
            let mut run = reconfig::reconfig_run(cx.seed, false);
            run.bed.sim.run_until_idle();
            cx.add("reconfig.window_messages", run.window_messages);
            cx.service = Some(handles_of(&run));
            cx.world = World::Legion(run.bed);
        }
    }
}

fn handles_of(run: &reconfig::ReconfigRun) -> ServiceHandles {
    ServiceHandles {
        manager: run.manager_object,
        manager_actor: run.manager_actor,
        client: run.client,
        client_node: run.bed.nodes[15],
        dcdo: run.dcdo,
        dcdo_node: run.dcdo_node,
    }
}

/// Which sim-bench shape a [`SimBenchEpisode`] runs, at the canonical
/// parameters the trace-invariant suite pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Two actors ping-ponging 200 rounds on the calibrated network.
    PingPong,
    /// A hub bursting to 8 spokes for 20 rounds on the instant network.
    FanOut,
    /// The wide fan-out variant (48 spokes, 12 rounds).
    FanOutWide,
    /// Ownership-transfer chains: 4 rounds over 6 sinks.
    TransferHeavy,
}

impl Shape {
    /// The scenario-file token for this shape (`shape=<name>`).
    pub fn name(&self) -> &'static str {
        match self {
            Shape::PingPong => "ping_pong",
            Shape::FanOut => "fan_out",
            Shape::FanOutWide => "fan_out_wide",
            Shape::TransferHeavy => "transfer_heavy",
        }
    }

    /// Parses a `shape=` token.
    pub fn parse(name: &str) -> Option<Shape> {
        match name {
            "ping_pong" => Some(Shape::PingPong),
            "fan_out" => Some(Shape::FanOut),
            "fan_out_wide" => Some(Shape::FanOutWide),
            "transfer_heavy" => Some(Shape::TransferHeavy),
            _ => None,
        }
    }
}

/// One sim-bench shape run to completion with tracing enabled. The shapes
/// pin their own internal seeds (the bench suite's golden digests depend
/// on them), so the scenario seed is not consulted.
pub struct SimBenchEpisode {
    shape: Shape,
}

impl SimBenchEpisode {
    /// An episode running `shape` at its canonical parameters.
    pub fn new(shape: Shape) -> Self {
        SimBenchEpisode { shape }
    }
}

impl Workload for SimBenchEpisode {
    fn name(&self) -> &str {
        self.shape.name()
    }

    fn needs(&self) -> Infra {
        Infra::Episode
    }

    fn episode(&mut self, cx: &mut RunCx) {
        let (mut sim, budget) = match self.shape {
            Shape::PingPong => simbench::ping_pong_sim(200),
            Shape::FanOut => simbench::fan_out_sim(20, 8, 16),
            Shape::FanOutWide => simbench::fan_out_wide_sim(12, 48, 16),
            Shape::TransferHeavy => simbench::transfer_heavy_sim(4, 6),
        };
        sim.trace_mut().enable(1 << 18);
        sim.spans_mut().enable();
        sim.run_with_budget(budget);
        sim.run_until_idle();
        cx.add("simbench.budget", budget);
        cx.world = World::Bare(sim);
    }
}
