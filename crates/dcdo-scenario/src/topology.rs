//! Topologies describe the world a scenario runs in; workloads drive it.
//!
//! A [`Topology`] is a *description* — node count, network characteristics,
//! and which infrastructure tier to stand up — that [`Topology::build`]
//! turns into a [`World`]: either a bare [`Simulation`] (rings, chaos, the
//! engine shapes) or a full Legion [`Testbed`] (DCDO services, managers,
//! vaults). [`Topology::build`] is the only place a scenario's world comes
//! from: every workload, episodes included, drives the world it built.

use dcdo_sim::{NetConfig, Simulation};
use legion_substrate::harness::Testbed;
use legion_substrate::{CostModel, Msg};

/// The network shape a topology runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetKind {
    /// Zero-latency, lossless delivery ([`NetConfig::instant`]).
    Instant,
    /// The calibrated cluster profile ([`NetConfig::centurion`]).
    Centurion,
}

impl NetKind {
    /// The simulator network configuration this kind stands for.
    pub fn config(&self) -> NetConfig {
        match self {
            NetKind::Instant => NetConfig::instant(),
            NetKind::Centurion => NetConfig::centurion(),
        }
    }

    /// The name used in scenario files (`net=instant` / `net=centurion`).
    pub fn name(&self) -> &'static str {
        match self {
            NetKind::Instant => "instant",
            NetKind::Centurion => "centurion",
        }
    }
}

/// Which infrastructure tier the topology stands up before workloads run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Infra {
    /// A bare simulator: nodes and a network, no substrate objects.
    /// Workloads spawn their own actors (chatter rings, chaos controllers).
    Bare,
    /// A full Legion testbed: hosts, binding agent, vault, and context,
    /// ready for DCDO managers and services.
    Legion,
}

impl Infra {
    /// The name used in scenario files (`topology bare|legion`).
    pub fn name(&self) -> &'static str {
        match self {
            Infra::Bare => "bare",
            Infra::Legion => "legion",
        }
    }
}

/// A description of the world a scenario runs in: how many nodes, over
/// which network, with which infrastructure tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Number of simulated nodes.
    pub nodes: u32,
    /// Network characteristics.
    pub net: NetKind,
    /// Infrastructure tier to build.
    pub infra: Infra,
}

impl Topology {
    /// A bare simulator topology.
    pub fn bare(nodes: u32, net: NetKind) -> Self {
        Topology {
            nodes,
            net,
            infra: Infra::Bare,
        }
    }

    /// A Legion testbed topology.
    pub fn legion(nodes: u32, net: NetKind) -> Self {
        Topology {
            nodes,
            net,
            infra: Infra::Legion,
        }
    }

    /// Builds the world this topology describes.
    pub fn build(&self, seed: u64) -> World {
        match self.infra {
            Infra::Bare => World::Bare(Simulation::new(self.net.config(), seed)),
            Infra::Legion => World::Legion(Testbed::new(
                self.nodes,
                CostModel::centurion(),
                self.net.config(),
                seed,
            )),
        }
    }
}

/// The built world a scenario's workloads drive and its expectations judge.
// One World exists per run and it lives on the heap inside RunCx consumers
// anyway; boxing the variants would only add indirection to every access.
#[allow(clippy::large_enum_variant)]
pub enum World {
    /// A bare simulator.
    Bare(Simulation<Msg>),
    /// A full Legion testbed.
    Legion(Testbed),
}

impl World {
    /// The underlying simulator, whichever tier is built. Always `Some`:
    /// the `Option` is kept only because `benchmark/src/replica.rs` (lines
    /// 183 and 218) unwraps it and cannot be edited outside a change to
    /// the benchmark (ROADMAP.md item 1 removes both).
    pub fn sim(&self) -> Option<&Simulation<Msg>> {
        match self {
            World::Bare(sim) => Some(sim),
            World::Legion(bed) => Some(&bed.sim),
        }
    }

    /// Mutable access to the underlying simulator. Always `Some`, for the
    /// reason [`World::sim`] gives.
    pub fn sim_mut(&mut self) -> Option<&mut Simulation<Msg>> {
        match self {
            World::Bare(sim) => Some(sim),
            World::Legion(bed) => Some(&mut bed.sim),
        }
    }

    /// Mutable access to the Legion testbed.
    pub fn testbed_mut(&mut self) -> Option<&mut Testbed> {
        match self {
            World::Legion(bed) => Some(bed),
            World::Bare(_) => None,
        }
    }
}
