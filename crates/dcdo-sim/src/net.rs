//! The network model of the simulated testbed.
//!
//! Models a switched-Ethernet star (the paper's testbed: 16 nodes on
//! 100 Mbps switched Ethernet): per-message protocol overhead, link latency,
//! bandwidth serialization with per-node egress contention, and optional
//! fault injection (loss, duplication). Bulk data movement (implementation
//! downloads) uses the separate [`TransferModel`], calibrated to the
//! effective throughput Legion's file transfer achieved in the paper
//! (≈0.25 MB/s with ≈2 s fixed cost — derived from its own reported numbers:
//! 5.1 MB → 15–25 s, 550 KB → ≈4 s).

use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Identifies a node (machine) of the simulated testbed network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u32);

impl NodeId {
    /// Raw ids the engine can place actors on are below this: node `u`'s
    /// handlers run in lane `u + 1`, and lanes are 16 bits wide.
    pub const LIMIT: u32 = 0xFFFF;

    /// Creates a node id from a raw index.
    pub const fn from_raw(raw: u32) -> Self {
        NodeId(raw)
    }

    /// Returns the raw index.
    pub const fn as_raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node:{}", self.0)
    }
}

/// Configuration of the message-level network model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetConfig {
    /// One-way propagation + switching latency.
    pub latency: SimDuration,
    /// Link bandwidth in bits per second (100 Mbps on the Centurion testbed).
    pub bandwidth_bps: f64,
    /// Fixed protocol overhead charged per message (late-1990s RPC stack:
    /// marshalling, system calls, protocol processing).
    pub per_message_overhead: SimDuration,
    /// Delivery time for messages between objects on the same node.
    pub local_delivery: SimDuration,
    /// Probability that a message is silently dropped (fault injection).
    pub loss_rate: f64,
    /// Probability that a message is delivered twice (fault injection).
    pub duplicate_rate: f64,
    /// Fractional uniform jitter applied to the final delay (e.g. `0.05`).
    pub jitter_frac: f64,
}

impl NetConfig {
    /// The calibrated Centurion-testbed configuration used by the
    /// reproduction experiments (see DESIGN.md §6).
    pub fn centurion() -> Self {
        NetConfig {
            latency: SimDuration::from_micros(100),
            bandwidth_bps: 100e6,
            per_message_overhead: SimDuration::from_micros(200),
            local_delivery: SimDuration::from_micros(20),
            loss_rate: 0.0,
            duplicate_rate: 0.0,
            jitter_frac: 0.05,
        }
    }

    /// A zero-latency, infinite-bandwidth configuration for unit tests that
    /// do not care about timing.
    pub fn instant() -> Self {
        NetConfig {
            latency: SimDuration::ZERO,
            bandwidth_bps: f64::INFINITY,
            per_message_overhead: SimDuration::ZERO,
            local_delivery: SimDuration::ZERO,
            loss_rate: 0.0,
            duplicate_rate: 0.0,
            jitter_frac: 0.0,
        }
    }

    /// Returns the pure serialization time for `bytes` on one link.
    pub fn serialization_time(&self, bytes: u64) -> SimDuration {
        if self.bandwidth_bps.is_infinite() {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.bandwidth_bps)
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig::centurion()
    }
}

/// The outcome of offering a message to the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryPlan {
    /// Deliver once at the given time.
    Deliver(SimTime),
    /// Deliver twice (duplicate fault) at the given times.
    DeliverTwice(SimTime, SimTime),
    /// The message was lost.
    Lost,
    /// The destination (or source) node is down or on the far side of a
    /// partition; the message is dropped before it touches the wire.
    Unreachable,
}

/// Message-level delivery counters, including fault-injection outcomes.
///
/// `duplicates_degraded` counts planned duplicates whose payload could not
/// be cloned ([`Payload::clone_for_redelivery`](crate::Payload) returned
/// `None`): the engine then delivers once at the later arrival time, and
/// this counter is the only witness that the second delivery was dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Total messages offered to the network.
    pub messages_sent: u64,
    /// Messages dropped by loss injection (global or per-link).
    pub messages_lost: u64,
    /// Messages planned for double delivery by duplicate injection.
    pub duplicates_planned: u64,
    /// Planned duplicates degraded to a single (late) delivery because the
    /// payload does not support redelivery cloning.
    pub duplicates_degraded: u64,
    /// Messages dropped because a node was down or partitioned away.
    pub unreachable: u64,
    /// Total payload bytes offered.
    pub bytes_sent: u64,
}

/// An additional fault on one directed link (ordered `(src, dst)` pair),
/// layered on top of the global [`NetConfig`] knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Extra drop probability applied to messages crossing the link.
    pub loss_rate: f64,
    /// Extra one-way latency added to messages crossing the link.
    pub extra_latency: SimDuration,
}

/// The message-level network: computes delivery times with egress-queue
/// contention and fault injection.
#[derive(Debug, Clone)]
pub struct Network {
    config: NetConfig,
    /// Per-node egress-queue free time, indexed by raw node id (node ids are
    /// small dense integers; a flat vector beats a map on the send path).
    egress_free: Vec<SimTime>,
    stats: NetStats,
    /// Per-node down flags, indexed by raw node id (nodes past the end are
    /// up). Empty in fault-free runs so liveness checks are a `Vec::get`.
    down: Vec<bool>,
    /// Partition group per node, indexed by raw node id; nodes past the end
    /// are in group 0. Empty (no partition) in fault-free runs.
    groups: Vec<u32>,
    /// Per-link fault overrides. Empty in fault-free runs, so the lookup
    /// (and any RNG draw it would gate) is skipped entirely.
    link_faults: HashMap<(u32, u32), LinkFault>,
}

impl Network {
    /// Creates a network with the given configuration.
    pub fn new(config: NetConfig) -> Self {
        Network {
            config,
            egress_free: Vec::new(),
            stats: NetStats::default(),
            down: Vec::new(),
            groups: Vec::new(),
            link_faults: HashMap::new(),
        }
    }

    /// Returns the active configuration.
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// Replaces the configuration (used by fault-injection tests mid-run).
    pub fn set_config(&mut self, config: NetConfig) {
        self.config = config;
    }

    /// Plans the delivery of a `bytes`-sized message from `src` to `dst`
    /// offered at time `now`.
    ///
    /// Same-node messages are delivered after
    /// [`NetConfig::local_delivery`] and bypass contention and faults
    /// (a process on a down node cannot send at all, but the engine kills
    /// those actors at crash time, so the case never reaches the planner).
    pub fn plan(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        rng: &mut SimRng,
    ) -> DeliveryPlan {
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += bytes;
        if src == dst {
            // Same-node messages bypass contention and faults entirely: no
            // RNG draws, so toggling fault knobs cannot shift local traffic.
            return DeliveryPlan::Deliver(now + self.config.local_delivery);
        }
        // Reachability is a pure lookup — no RNG draws — so crash/partition
        // support cannot shift the stream in fault-free runs.
        if !self.reachable(src, dst) {
            self.stats.unreachable += 1;
            return DeliveryPlan::Unreachable;
        }
        // Fault knobs at zero draw nothing from the RNG, so fault-free
        // configurations produce identical traces whether the knobs are
        // "disabled" or merely set to 0.0.
        if self.config.loss_rate > 0.0 && rng.chance(self.config.loss_rate) {
            self.stats.messages_lost += 1;
            return DeliveryPlan::Lost;
        }
        let mut extra_latency = SimDuration::ZERO;
        if !self.link_faults.is_empty() {
            if let Some(fault) = self.link_faults.get(&(src.0, dst.0)).copied() {
                if fault.loss_rate > 0.0 && rng.chance(fault.loss_rate) {
                    self.stats.messages_lost += 1;
                    return DeliveryPlan::Lost;
                }
                extra_latency = fault.extra_latency;
            }
        }
        let tx = self.config.per_message_overhead + self.config.serialization_time(bytes);
        let free = self
            .egress_free
            .get(src.0 as usize)
            .copied()
            .unwrap_or(SimTime::ZERO);
        let egress_done = free.max(now) + tx;
        if !tx.is_zero() {
            // Zero-cost sends never push the free time past `now`, so the
            // store (and the vector growth) can be skipped for them.
            if self.egress_free.len() <= src.0 as usize {
                self.egress_free.resize(src.0 as usize + 1, SimTime::ZERO);
            }
            self.egress_free[src.0 as usize] = egress_done;
        }
        let mut delay = egress_done.duration_since(now) + self.config.latency + extra_latency;
        if self.config.jitter_frac > 0.0 {
            delay = rng.jitter(delay, self.config.jitter_frac);
        }
        let arrival = now + delay;
        if self.config.duplicate_rate > 0.0 && rng.chance(self.config.duplicate_rate) {
            self.stats.duplicates_planned += 1;
            let second = arrival + rng.duration_between(SimDuration::ZERO, self.config.latency * 4);
            DeliveryPlan::DeliverTwice(arrival, second)
        } else {
            DeliveryPlan::Deliver(arrival)
        }
    }

    /// Returns `true` iff both endpoints are up and in the same partition
    /// group. Same-node pairs are always reachable (checked by the caller's
    /// bypass; this method is also used directly by drivers).
    pub fn reachable(&self, src: NodeId, dst: NodeId) -> bool {
        if src == dst {
            return true;
        }
        if self.node_is_down(src) || self.node_is_down(dst) {
            return false;
        }
        self.group_of(src) == self.group_of(dst)
    }

    fn node_is_down(&self, node: NodeId) -> bool {
        self.down.get(node.0 as usize).copied().unwrap_or(false)
    }

    fn group_of(&self, node: NodeId) -> u32 {
        self.groups.get(node.0 as usize).copied().unwrap_or(0)
    }

    /// Returns `true` if the node has not been marked down.
    pub fn is_node_up(&self, node: NodeId) -> bool {
        !self.node_is_down(node)
    }

    /// Marks a node down: traffic to or from it is dropped as unreachable.
    pub fn set_node_down(&mut self, node: NodeId) {
        let idx = node.0 as usize;
        if self.down.len() <= idx {
            self.down.resize(idx + 1, false);
        }
        self.down[idx] = true;
    }

    /// Marks a node up again.
    pub fn set_node_up(&mut self, node: NodeId) {
        if let Some(flag) = self.down.get_mut(node.0 as usize) {
            *flag = false;
        }
    }

    /// Installs a partition: the nodes of each listed group can talk among
    /// themselves but not across groups; unlisted nodes form an implicit
    /// group of their own (group 0). Replaces any previous partition.
    pub fn set_partition(&mut self, partition_groups: &[Vec<NodeId>]) {
        self.groups.clear();
        for (i, group) in partition_groups.iter().enumerate() {
            for node in group {
                let idx = node.0 as usize;
                if self.groups.len() <= idx {
                    self.groups.resize(idx + 1, 0);
                }
                self.groups[idx] = i as u32 + 1;
            }
        }
    }

    /// Heals any installed partition (node down flags are unaffected).
    pub fn heal_partition(&mut self) {
        self.groups.clear();
    }

    /// The active partition as group ids per raw node id (nodes past the
    /// end are in group 0; empty when no partition is installed). This is
    /// the representation the structured trace records so the invariant
    /// checker can replay reachability.
    pub fn partition_groups(&self) -> &[u32] {
        &self.groups
    }

    /// Installs (or replaces) a fault on the directed link `src -> dst`.
    pub fn set_link_fault(&mut self, src: NodeId, dst: NodeId, fault: LinkFault) {
        self.link_faults.insert((src.0, dst.0), fault);
    }

    /// Removes the fault on the directed link `src -> dst`, if any.
    pub fn clear_link_fault(&mut self, src: NodeId, dst: NodeId) {
        self.link_faults.remove(&(src.0, dst.0));
    }

    /// Delivery and fault counters accumulated so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Records that a planned duplicate delivery was degraded to a single
    /// delivery (the payload could not be cloned). Called by the engine,
    /// which is the only place that knows the cloning outcome.
    pub fn note_duplicate_degraded(&mut self) {
        self.stats.duplicates_degraded += 1;
    }

    /// Total messages offered to the network.
    pub fn messages_sent(&self) -> u64 {
        self.stats.messages_sent
    }

    /// Messages dropped by loss injection.
    pub fn messages_lost(&self) -> u64 {
        self.stats.messages_lost
    }

    /// Total payload bytes offered.
    pub fn bytes_sent(&self) -> u64 {
        self.stats.bytes_sent
    }
}

impl Default for Network {
    fn default() -> Self {
        Network::new(NetConfig::default())
    }
}

/// Bulk-transfer cost model for implementation downloads.
///
/// Legion moved implementations through its file-transfer path, which was far
/// slower than raw Ethernet; the paper's own numbers imply roughly
/// `t(bytes) = setup + bytes / throughput`. This model reproduces that.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TransferModel {
    /// Fixed per-transfer setup cost (connection, naming, vault metadata).
    pub setup: SimDuration,
    /// Effective sustained throughput in bytes per second.
    pub throughput_bps: f64,
}

impl TransferModel {
    /// The calibrated Legion file-transfer model: 2 s setup + 256 KiB/s.
    ///
    /// Reproduces the paper: 5.1 MB → ≈22 s (paper: 15–25 s),
    /// 550 KB → ≈4.1 s (paper: ≈4 s).
    pub fn legion_file_transfer() -> Self {
        TransferModel {
            setup: SimDuration::from_secs(2),
            throughput_bps: 256.0 * 1024.0,
        }
    }

    /// An instantaneous transfer model for timing-agnostic tests.
    pub fn instant() -> Self {
        TransferModel {
            setup: SimDuration::ZERO,
            throughput_bps: f64::INFINITY,
        }
    }

    /// Returns the time to transfer `bytes`.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        if self.throughput_bps.is_infinite() {
            return self.setup;
        }
        self.setup + SimDuration::from_secs_f64(bytes as f64 / self.throughput_bps)
    }
}

impl Default for TransferModel {
    fn default() -> Self {
        TransferModel::legion_file_transfer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrival(plan: DeliveryPlan) -> SimTime {
        match plan {
            DeliveryPlan::Deliver(t) => t,
            DeliveryPlan::DeliverTwice(t, _) => t,
            DeliveryPlan::Lost => panic!("message lost"),
            DeliveryPlan::Unreachable => panic!("destination unreachable"),
        }
    }

    #[test]
    fn local_delivery_is_cheap_and_reliable() {
        let mut net = Network::new(NetConfig {
            loss_rate: 1.0,
            ..NetConfig::centurion()
        });
        let mut rng = SimRng::seed_from_u64(1);
        let n = NodeId::from_raw(0);
        let plan = net.plan(SimTime::ZERO, n, n, 1 << 20, &mut rng);
        assert_eq!(
            arrival(plan),
            SimTime::ZERO + NetConfig::centurion().local_delivery
        );
    }

    #[test]
    fn remote_delay_includes_overhead_latency_and_serialization() {
        let mut cfg = NetConfig::centurion();
        cfg.jitter_frac = 0.0;
        let mut net = Network::new(cfg.clone());
        let mut rng = SimRng::seed_from_u64(2);
        let a = NodeId::from_raw(0);
        let b = NodeId::from_raw(1);
        let bytes = 125_000; // 1 Mbit -> 10 ms at 100 Mbps
        let t = arrival(net.plan(SimTime::ZERO, a, b, bytes, &mut rng));
        let expected = cfg.per_message_overhead + cfg.serialization_time(bytes) + cfg.latency;
        assert_eq!(t, SimTime::ZERO + expected);
    }

    #[test]
    fn egress_contention_serializes_back_to_back_sends() {
        let mut cfg = NetConfig::centurion();
        cfg.jitter_frac = 0.0;
        let mut net = Network::new(cfg);
        let mut rng = SimRng::seed_from_u64(3);
        let a = NodeId::from_raw(0);
        let b = NodeId::from_raw(1);
        let t1 = arrival(net.plan(SimTime::ZERO, a, b, 1_000_000, &mut rng));
        let t2 = arrival(net.plan(SimTime::ZERO, a, b, 1_000_000, &mut rng));
        assert!(t2 > t1, "second send must queue behind the first");
    }

    #[test]
    fn infinite_bandwidth_means_zero_serialization() {
        assert_eq!(
            NetConfig::instant().serialization_time(u64::MAX),
            SimDuration::ZERO
        );
    }

    #[test]
    fn loss_injection_drops_messages() {
        let mut cfg = NetConfig::centurion();
        cfg.loss_rate = 1.0;
        let mut net = Network::new(cfg);
        let mut rng = SimRng::seed_from_u64(4);
        let plan = net.plan(
            SimTime::ZERO,
            NodeId::from_raw(0),
            NodeId::from_raw(1),
            100,
            &mut rng,
        );
        assert_eq!(plan, DeliveryPlan::Lost);
        assert_eq!(net.messages_lost(), 1);
    }

    #[test]
    fn duplicate_injection_delivers_twice() {
        let mut cfg = NetConfig::centurion();
        cfg.duplicate_rate = 1.0;
        let mut net = Network::new(cfg);
        let mut rng = SimRng::seed_from_u64(5);
        let plan = net.plan(
            SimTime::ZERO,
            NodeId::from_raw(0),
            NodeId::from_raw(1),
            100,
            &mut rng,
        );
        match plan {
            DeliveryPlan::DeliverTwice(a, b) => assert!(b >= a),
            other => panic!("expected duplicate delivery, got {other:?}"),
        }
    }

    #[test]
    fn transfer_model_matches_paper_calibration() {
        let m = TransferModel::legion_file_transfer();
        let t_5_1mb = m.transfer_time(5_100_000).as_secs_f64();
        let t_550kb = m.transfer_time(550_000).as_secs_f64();
        assert!((15.0..=25.0).contains(&t_5_1mb), "5.1MB -> {t_5_1mb}s");
        assert!((3.5..=4.5).contains(&t_550kb), "550KB -> {t_550kb}s");
    }

    #[test]
    fn network_accounting() {
        let mut net = Network::default();
        let mut rng = SimRng::seed_from_u64(6);
        let a = NodeId::from_raw(0);
        let b = NodeId::from_raw(1);
        net.plan(SimTime::ZERO, a, b, 100, &mut rng);
        net.plan(SimTime::ZERO, a, a, 50, &mut rng);
        assert_eq!(net.messages_sent(), 2);
        assert_eq!(net.bytes_sent(), 150);
    }

    #[test]
    fn down_node_makes_traffic_unreachable_both_ways() {
        let mut net = Network::default();
        let mut rng = SimRng::seed_from_u64(7);
        let a = NodeId::from_raw(0);
        let b = NodeId::from_raw(1);
        net.set_node_down(b);
        assert_eq!(
            net.plan(SimTime::ZERO, a, b, 10, &mut rng),
            DeliveryPlan::Unreachable
        );
        assert_eq!(
            net.plan(SimTime::ZERO, b, a, 10, &mut rng),
            DeliveryPlan::Unreachable
        );
        assert_eq!(net.stats().unreachable, 2);
        net.set_node_up(b);
        assert!(matches!(
            net.plan(SimTime::ZERO, a, b, 10, &mut rng),
            DeliveryPlan::Deliver(_)
        ));
    }

    #[test]
    fn partition_splits_and_heals() {
        let mut net = Network::default();
        let mut rng = SimRng::seed_from_u64(8);
        let nodes: Vec<NodeId> = (0..4).map(NodeId::from_raw).collect();
        net.set_partition(&[vec![nodes[0], nodes[1]], vec![nodes[2]]]);
        // Within a group: fine. Across: unreachable. Unlisted node 3 forms
        // its own implicit group.
        assert!(net.reachable(nodes[0], nodes[1]));
        assert!(!net.reachable(nodes[0], nodes[2]));
        assert!(!net.reachable(nodes[1], nodes[3]));
        assert!(net.reachable(nodes[3], nodes[3]));
        assert_eq!(
            net.plan(SimTime::ZERO, nodes[0], nodes[2], 10, &mut rng),
            DeliveryPlan::Unreachable
        );
        net.heal_partition();
        assert!(net.reachable(nodes[0], nodes[2]));
    }

    #[test]
    fn link_fault_drops_and_delays_one_direction_only() {
        // Zero overhead/serialization so repeated plans see no egress
        // contention and arrivals depend only on latency + link faults.
        let mut cfg = NetConfig::instant();
        cfg.latency = SimDuration::from_millis(1);
        let mut net = Network::new(cfg.clone());
        let mut rng = SimRng::seed_from_u64(9);
        let a = NodeId::from_raw(0);
        let b = NodeId::from_raw(1);
        let base = arrival(net.plan(SimTime::ZERO, b, a, 0, &mut rng));
        net.set_link_fault(
            a,
            b,
            LinkFault {
                loss_rate: 1.0,
                extra_latency: SimDuration::ZERO,
            },
        );
        assert_eq!(
            net.plan(SimTime::ZERO, a, b, 0, &mut rng),
            DeliveryPlan::Lost,
            "a->b has the fault"
        );
        // The reverse direction is unaffected.
        assert_eq!(arrival(net.plan(SimTime::ZERO, b, a, 0, &mut rng)), base);
        // Latency spike instead of loss.
        net.set_link_fault(
            a,
            b,
            LinkFault {
                loss_rate: 0.0,
                extra_latency: SimDuration::from_millis(50),
            },
        );
        let spiked = arrival(net.plan(SimTime::ZERO, a, b, 0, &mut rng));
        assert_eq!(spiked, base + SimDuration::from_millis(50));
        net.clear_link_fault(a, b);
        assert_eq!(arrival(net.plan(SimTime::ZERO, a, b, 0, &mut rng)), base);
    }
}
