//! Ring-traffic and fault-plan workloads: the building blocks the chaos
//! scenarios compose from.
//!
//! [`ChatterRing`] spawns a ring of timer-driven chatters and measures
//! delivery amplification and post-heal recovery. [`ChaosAttachment`]
//! turns a `FaultPlan` into an attachable workload: setup installs a
//! `ChaosController`, and the plan participates in scenario validation
//! (`FaultPlan::validate`, the window-length check, and the node bounds).

use dcdo_chaos::{ChaosController, FaultAction, FaultPlan};
use dcdo_sim::{Actor, ActorId, Ctx, NodeId, SimDuration, SimTime, Simulation};
use dcdo_types::{CallId, ObjectId};
use dcdo_vm::Value;
use legion_substrate::Msg;

use crate::error::ScenarioError;
use crate::topology::Topology;
use crate::workload::{RunCx, Workload};

/// A timer-driven ring talker: every period it pings its ring successor
/// (regardless of replies — partitions and crashes must not silence it)
/// and echoes pings it receives. Records when each echo arrived so
/// `measure` can tell how fast traffic resumes after a heal.
struct Chatter {
    peer: Option<ActorId>,
    period: SimDuration,
    until: SimTime,
    sent: u64,
    heard_times: Vec<SimTime>,
}

impl Actor<Msg> for Chatter {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
        match msg {
            Msg::Invoke { call, args, .. } => {
                let echo = args.into_iter().next().unwrap_or(Value::Unit);
                ctx.send(
                    from,
                    Msg::Reply {
                        call,
                        result: Ok(echo),
                    },
                );
            }
            Msg::Reply { .. } => {
                self.heard_times.push(ctx.now());
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _token: u64) {
        if let Some(peer) = self.peer {
            self.sent += 1;
            let call = CallId::from_raw(ctx.fresh_u64());
            ctx.send(
                peer,
                Msg::Invoke {
                    call,
                    target: ObjectId::from_raw(1),
                    function: "ping".into(),
                    args: vec![Value::Int(self.sent as i64)],
                },
            );
        }
        if ctx.now() + self.period < self.until {
            ctx.schedule_timer(self.period, 0);
        }
    }

    fn name(&self) -> &str {
        "chaos-chatter"
    }
}

/// Spawns one chatter per node in `1..n_nodes` (node 0 hosts the chaos
/// controller), with staggered periods and start offsets.
fn spawn_ring(sim: &mut Simulation<Msg>, n_nodes: u32, horizon: SimDuration) -> Vec<ActorId> {
    let until = sim.now() + horizon;
    let mut ring = Vec::new();
    for i in 1..n_nodes {
        let chatter = Chatter {
            peer: None,
            period: SimDuration::from_millis(80 + 17 * u64::from(i)),
            until,
            sent: 0,
            heard_times: Vec::new(),
        };
        ring.push(sim.spawn(NodeId::from_raw(i), chatter));
    }
    for (i, &actor) in ring.iter().enumerate() {
        let peer = ring[(i + 1) % ring.len()];
        sim.actor_mut::<Chatter>(actor).expect("chatter alive").peer = Some(peer);
        sim.schedule_timer_for(actor, SimDuration::from_millis(10 * (i as u64 + 1)), 0);
    }
    ring
}

/// Ratio of messages offered to messages actually delivered (loss and
/// unreachable drops removed): the price of talking through faults.
fn delivery_amplification(sim: &Simulation<Msg>) -> f64 {
    let stats = sim.network().stats();
    let delivered = stats
        .messages_sent
        .saturating_sub(stats.messages_lost)
        .saturating_sub(stats.unreachable);
    stats.messages_sent as f64 / delivered.max(1) as f64
}

/// The longest any chatter in `ring` waited after `healed_at` before
/// hearing an echo again, in simulated seconds; a chatter that never
/// resumed is charged the full span to `horizon_end`.
fn ring_recovery_time(
    sim: &Simulation<Msg>,
    ring: &[ActorId],
    healed_at: SimTime,
    horizon_end: SimTime,
) -> f64 {
    let mut recovery_time_s = 0.0f64;
    for &actor in ring {
        let chatter = sim.actor::<Chatter>(actor).expect("chatter alive");
        let resumed = chatter
            .heard_times
            .iter()
            .find(|t| **t > healed_at)
            .copied()
            .unwrap_or(horizon_end);
        recovery_time_s = recovery_time_s.max(resumed.duration_since(healed_at).as_secs_f64());
    }
    recovery_time_s
}

/// A ring of timer-driven chatters on nodes `1..nodes` (node 0 is left for
/// the chaos controller), talking until `until`; `measure` records
/// `net.amplification` and — when `final_heal` is set — the post-heal
/// recovery gauge `chatter.recovery_s`.
pub struct ChatterRing {
    nodes: u32,
    until: SimDuration,
    final_heal: Option<SimDuration>,
    actors: Vec<ActorId>,
}

impl ChatterRing {
    /// A ring across `nodes` nodes talking for `until` of simulated time.
    pub fn new(nodes: u32, until: SimDuration) -> Self {
        ChatterRing {
            nodes,
            until,
            final_heal: None,
            actors: Vec::new(),
        }
    }

    /// Measures recovery after a heal at `at`: the longest any chatter
    /// waited past `at` before hearing an echo again.
    pub fn with_final_heal(mut self, at: SimDuration) -> Self {
        self.final_heal = Some(at);
        self
    }
}

impl Workload for ChatterRing {
    fn name(&self) -> &str {
        "chatter_ring"
    }

    fn check(&self, topology: &Topology) -> Result<(), ScenarioError> {
        if self.nodes < 2 {
            return Err(ScenarioError::BadParam {
                context: "workload chatter_ring".to_string(),
                msg: "a ring needs at least 2 nodes".to_string(),
            });
        }
        if self.nodes > topology.nodes {
            return Err(ScenarioError::BadParam {
                context: "workload chatter_ring".to_string(),
                msg: format!(
                    "ring spans {} nodes but the topology has {}",
                    self.nodes, topology.nodes
                ),
            });
        }
        Ok(())
    }

    fn setup(&mut self, cx: &mut RunCx) {
        let sim = cx.world.sim_mut().expect("validated: built world");
        self.actors = spawn_ring(sim, self.nodes, self.until);
    }

    fn measure(&mut self, cx: &mut RunCx) {
        let (amplification, recovery) = {
            let sim = cx.world.sim().expect("validated: built world");
            let amplification = delivery_amplification(sim);
            let recovery = self.final_heal.map(|heal| {
                ring_recovery_time(
                    sim,
                    &self.actors,
                    SimTime::ZERO + heal,
                    SimTime::ZERO + self.until,
                )
            });
            (amplification, recovery)
        };
        cx.gauge("net.amplification", amplification);
        if let Some(recovery_s) = recovery {
            cx.gauge("chatter.recovery_s", recovery_s);
        }
    }
}

/// A `FaultPlan` attached to a scenario: setup installs a
/// `ChaosController` on `node` that replays the plan against the live sim.
pub struct ChaosAttachment {
    node: NodeId,
    plan: FaultPlan,
}

impl ChaosAttachment {
    /// Attaches `plan`, driven by a controller on `node`.
    pub fn new(node: NodeId, plan: FaultPlan) -> Self {
        ChaosAttachment { node, plan }
    }
}

impl Workload for ChaosAttachment {
    fn name(&self) -> &str {
        "chaos"
    }

    fn check(&self, topology: &Topology) -> Result<(), ScenarioError> {
        let bound = |role: &str, node: NodeId| {
            if node.as_raw() < topology.nodes {
                return Ok(());
            }
            Err(ScenarioError::BadParam {
                context: "workload chaos".to_string(),
                msg: format!(
                    "{role} node {} out of range (topology has {} nodes)",
                    node.as_raw(),
                    topology.nodes
                ),
            })
        };
        bound("controller", self.node)?;
        for step in self.plan.steps() {
            match &step.action {
                FaultAction::CrashNode(n) => bound("crashed", *n)?,
                FaultAction::RestartNode(n) => bound("restarted", *n)?,
                FaultAction::Partition(groups) => {
                    for n in groups.iter().flatten() {
                        bound("partitioned", *n)?;
                    }
                }
                FaultAction::Heal => {}
                FaultAction::SetLinkFault { src, dst, .. }
                | FaultAction::ClearLinkFault { src, dst } => {
                    bound("link-fault", *src)?;
                    bound("link-fault", *dst)?;
                }
            }
        }
        Ok(())
    }

    fn setup(&mut self, cx: &mut RunCx) {
        let sim = cx.world.sim_mut().expect("validated: built world");
        ChaosController::install(sim, self.node, self.plan.clone());
    }

    fn fault_plan(&self) -> Option<&FaultPlan> {
        Some(&self.plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdo_sim::NetConfig;

    #[test]
    fn chatter_ring_talks_on_a_quiet_network() {
        let mut sim: Simulation<Msg> = Simulation::new(NetConfig::centurion(), 1);
        let ring = spawn_ring(&mut sim, 4, SimDuration::from_secs(2));
        sim.run_until_idle();
        for actor in ring {
            let c = sim.actor::<Chatter>(actor).expect("alive");
            assert!(c.sent > 0);
            assert!(!c.heard_times.is_empty(), "echoes heard");
        }
        assert_eq!(sim.pending_events(), 0);
    }
}
