//! Name → implementation resolution and the canonical declared scenarios.
//!
//! A [`Registry`] maps workload and expectation names to factories that
//! consume a declaration's argument tokens. [`Registry::standard`] knows
//! every built-in; [`Registry::build`] resolves a parsed
//! [`ScenarioDecl`] into a runnable [`Scenario`], reporting unknown names
//! as [`ScenarioError::UnknownWorkload`] /
//! [`ScenarioError::UnknownExpectation`].
//!
//! The repo's canonical workloads live here as *embedded scenario text*,
//! parsed through the same `.scn` loader users feed files to — proving the
//! loader covers the whole canonical set. The golden-parity suite holds
//! each declaration's full report to the committed `BENCH_scenarios.json`.

use std::collections::BTreeMap;

use crate::episodes::{ReconfigEpisode, SimBench};
use crate::error::ScenarioError;
use crate::expect::{
    CounterBound, Expectation, GaugeBound, MetricBound, MixConverged, NoLeakedEvents,
    TraceInvariantsClean, TrafficFlowed,
};
use crate::group::{ReplicaGroup, RollingUpgrade};
use crate::parse::{parse_fault_tokens, parse_scenario, parse_secs, ScenarioDecl};
use crate::ring::{ChaosAttachment, ChatterRing};
use crate::scenario::{Scenario, WorkloadSlot};
use crate::slo::{SloErrorRate, SloLatency, SloRecovery};
use crate::traffic::{Calls, ConfigOps, CounterService, Migrations};
use crate::workload::Workload;

/// A factory turning a declaration's argument tokens into a workload.
pub type WorkloadFactory = Box<dyn Fn(&[String]) -> Result<Box<dyn Workload>, ScenarioError>>;
/// A factory turning a declaration's argument tokens into an expectation.
pub type ExpectFactory = Box<dyn Fn(&[String]) -> Result<Box<dyn Expectation>, ScenarioError>>;

/// The name → factory tables a [`ScenarioDecl`] resolves against.
#[derive(Default)]
pub struct Registry {
    workloads: BTreeMap<String, WorkloadFactory>,
    expectations: BTreeMap<String, ExpectFactory>,
}

impl Registry {
    /// An empty registry (extend with [`Registry::register_workload`]).
    pub fn new() -> Self {
        Registry::default()
    }

    /// The registry knowing every built-in workload and expectation.
    pub fn standard() -> Self {
        let mut r = Registry::new();
        r.register_workload("chatter_ring", |args| {
            let nodes = require_kv_u32(args, "chatter_ring", "nodes")?;
            let until = require_kv_secs(args, "chatter_ring", "until")?;
            let mut ring = ChatterRing::new(nodes, until);
            if let Some(heal) = optional_kv_secs(args, "chatter_ring", "final_heal")? {
                ring = ring.with_final_heal(heal);
            }
            Ok(Box::new(ring))
        });
        r.register_workload("chaos", |args| {
            let (node, plan) = parse_fault_tokens(args)?;
            Ok(Box::new(ChaosAttachment::new(node, plan)))
        });
        r.register_workload("counter_service", |args| {
            let home = optional_kv_u32(args, "counter_service", "home")?.unwrap_or(4);
            Ok(Box::new(CounterService::new(home)))
        });
        r.register_workload("calls", |_args| Ok(Box::new(Calls::new())));
        r.register_workload("config_ops", |_args| Ok(Box::new(ConfigOps::new())));
        r.register_workload("migrations", |args| {
            let list = require_kv(args, "migrations", "nodes")?;
            let mut cycle = Vec::new();
            for part in list.split('+') {
                cycle.push(part.parse().map_err(|_| ScenarioError::BadParam {
                    context: "workload migrations".to_string(),
                    msg: format!("bad destination node {part:?}"),
                })?);
            }
            Ok(Box::new(Migrations::new(cycle)))
        });
        r.register_workload("reconfig_episode", |args| {
            let faulted = match optional_kv(args, "faulted") {
                None => false,
                Some("true") => true,
                Some("false") => false,
                Some(other) => {
                    return Err(ScenarioError::BadParam {
                        context: "workload reconfig_episode".to_string(),
                        msg: format!("faulted must be true or false, got {other:?}"),
                    })
                }
            };
            Ok(Box::new(ReconfigEpisode::new(faulted)))
        });
        r.register_workload("replica_group", |args| {
            let replicas = optional_kv_u32(args, "replica_group", "replicas")?.unwrap_or(4);
            let version = optional_kv_u32(args, "replica_group", "version")?.unwrap_or(1);
            let until = require_kv_secs(args, "replica_group", "until")?;
            let mut group = ReplicaGroup::new(replicas, version, until);
            if let Some(period) = optional_kv_secs(args, "replica_group", "period")? {
                group = group.with_period(period);
            }
            Ok(Box::new(group))
        });
        r.register_workload("rolling_upgrade", |args| {
            let bad = |msg: String| ScenarioError::BadParam {
                context: "workload rolling_upgrade".to_string(),
                msg,
            };
            let from = optional_kv_u32(args, "rolling_upgrade", "from")?.unwrap_or(1);
            let to = require_kv_u32(args, "rolling_upgrade", "to")?;
            let mut waves = Vec::new();
            for token in args {
                if let Some(at) = token.strip_prefix("canary@") {
                    let at =
                        parse_secs(at).ok_or_else(|| bad(format!("bad canary time {at:?}")))?;
                    waves.push(dcdo_group::Wave {
                        at,
                        target: dcdo_group::WaveTarget::Count(1),
                    });
                } else if let Some(rest) = token.strip_prefix("wave@") {
                    let (at, pct) = rest
                        .split_once('=')
                        .ok_or_else(|| bad(format!("expected wave@T=PCT, got {token:?}")))?;
                    let at = parse_secs(at).ok_or_else(|| bad(format!("bad wave time {at:?}")))?;
                    let pct: u32 = pct
                        .parse()
                        .map_err(|_| bad(format!("bad wave percentage {pct:?}")))?;
                    waves.push(dcdo_group::Wave {
                        at,
                        target: dcdo_group::WaveTarget::Percent(pct),
                    });
                }
            }
            if waves.is_empty() {
                return Err(bad(
                    "expected at least one canary@T or wave@T=PCT token".to_string()
                ));
            }
            let mut plan = dcdo_group::RolloutPlan {
                from_version: from,
                to_version: to,
                waves,
                probe_delay: dcdo_sim::SimDuration::from_millis(50),
                proposal_deadline: dcdo_sim::SimDuration::from_millis(250),
            };
            if let Some(probe) = optional_kv_secs(args, "rolling_upgrade", "probe")? {
                plan.probe_delay = probe;
            }
            if let Some(deadline) = optional_kv_secs(args, "rolling_upgrade", "deadline")? {
                plan.proposal_deadline = deadline;
            }
            Ok(Box::new(RollingUpgrade::new(plan)))
        });
        r.register_workload("simbench", |args| {
            let shape = require_kv(args, "simbench", "shape")?;
            let shape = SimBench::new(shape).ok_or_else(|| ScenarioError::BadParam {
                context: "workload simbench".to_string(),
                msg: format!("unknown shape {shape:?}"),
            })?;
            Ok(Box::new(shape))
        });

        r.register_expectation("trace_invariants", |_| Ok(Box::new(TraceInvariantsClean)));
        r.register_expectation("no_leaks", |_| Ok(Box::new(NoLeakedEvents)));
        r.register_expectation("traffic_flowed", |_| Ok(Box::new(TrafficFlowed::default())));
        r.register_expectation("counter_at_least", |args| {
            let (key, bound) = key_and_u64(args, "counter_at_least")?;
            Ok(Box::new(CounterBound::at_least(&key, bound)))
        });
        r.register_expectation("counter_equals", |args| {
            let (key, bound) = key_and_u64(args, "counter_equals")?;
            Ok(Box::new(CounterBound::equals(&key, bound)))
        });
        r.register_expectation("metric_at_least", |args| {
            let (key, bound) = key_and_u64(args, "metric_at_least")?;
            Ok(Box::new(MetricBound::at_least(&key, bound)))
        });
        r.register_expectation("metric_equals", |args| {
            let (key, bound) = key_and_u64(args, "metric_equals")?;
            Ok(Box::new(MetricBound::equals(&key, bound)))
        });
        r.register_expectation("gauge_at_most", |args| {
            let (key, bound) = key_and_f64(args, "gauge_at_most")?;
            Ok(Box::new(GaugeBound::at_most(&key, bound)))
        });
        r.register_expectation("gauge_above", |args| {
            let (key, bound) = key_and_f64(args, "gauge_above")?;
            Ok(Box::new(GaugeBound::above(&key, bound)))
        });
        r.register_expectation("mix_converged", |args| {
            let [tol] = args else {
                return Err(ScenarioError::BadParam {
                    context: "expect mix_converged".to_string(),
                    msg: "expected: mix_converged <tolerance>".to_string(),
                });
            };
            let tol: f64 = tol.parse().map_err(|_| ScenarioError::BadParam {
                context: "expect mix_converged".to_string(),
                msg: format!("bad tolerance {tol:?}"),
            })?;
            Ok(Box::new(MixConverged::new(tol)))
        });
        r.register_expectation("slo_latency", |args| {
            let [series, q, bound] = args else {
                return Err(ScenarioError::BadParam {
                    context: "expect slo_latency".to_string(),
                    msg: "expected: slo_latency <series> <p50|p90|p95|p99|q=F> <bound_secs>"
                        .to_string(),
                });
            };
            let bad = |msg| ScenarioError::BadParam {
                context: "expect slo_latency".to_string(),
                msg,
            };
            let bound: f64 = bound
                .parse()
                .map_err(|_| bad(format!("bad bound {bound:?}")))?;
            let slo = SloLatency::new(series, q, bound)
                .ok_or_else(|| bad(format!("bad quantile {q:?}")))?;
            Ok(Box::new(slo))
        });
        r.register_expectation("slo_error_rate", |args| {
            let (prefix, max_frac) = key_and_f64(args, "slo_error_rate")?;
            Ok(Box::new(SloErrorRate::new(&prefix, max_frac)))
        });
        r.register_expectation("slo_recovery", |args| {
            let [budget] = args else {
                return Err(ScenarioError::BadParam {
                    context: "expect slo_recovery".to_string(),
                    msg: "expected: slo_recovery <budget_secs>".to_string(),
                });
            };
            let budget: f64 = budget.parse().map_err(|_| ScenarioError::BadParam {
                context: "expect slo_recovery".to_string(),
                msg: format!("bad budget {budget:?}"),
            })?;
            Ok(Box::new(SloRecovery::new(budget)))
        });
        r
    }

    /// Registers (or replaces) a workload factory under `name`.
    pub fn register_workload(
        &mut self,
        name: &str,
        f: impl Fn(&[String]) -> Result<Box<dyn Workload>, ScenarioError> + 'static,
    ) {
        self.workloads.insert(name.to_string(), Box::new(f));
    }

    /// Registers (or replaces) an expectation factory under `name`.
    pub fn register_expectation(
        &mut self,
        name: &str,
        f: impl Fn(&[String]) -> Result<Box<dyn Expectation>, ScenarioError> + 'static,
    ) {
        self.expectations.insert(name.to_string(), Box::new(f));
    }

    /// Resolves a parsed declaration into a runnable scenario; unknown
    /// names and malformed arguments are typed errors.
    pub fn build(&self, decl: &ScenarioDecl) -> Result<Scenario, ScenarioError> {
        let mut workloads = Vec::new();
        for w in &decl.workloads {
            let factory =
                self.workloads
                    .get(&w.name)
                    .ok_or_else(|| ScenarioError::UnknownWorkload {
                        name: w.name.clone(),
                    })?;
            workloads.push(WorkloadSlot {
                weight: w.weight,
                workload: factory(&w.args)?,
            });
        }
        let mut expectations = Vec::new();
        for e in &decl.expectations {
            let factory = self.expectations.get(&e.name).ok_or_else(|| {
                ScenarioError::UnknownExpectation {
                    name: e.name.clone(),
                }
            })?;
            expectations.push(factory(&e.args)?);
        }
        Ok(Scenario {
            name: decl.name.clone(),
            seed: decl.seed,
            topology: decl.topology,
            window: decl.window,
            workloads,
            expectations,
        })
    }
}

impl Scenario {
    /// Parses scenario text and resolves it against the standard registry.
    pub fn from_text(text: &str) -> Result<Scenario, ScenarioError> {
        Registry::standard().build(&parse_scenario(text)?)
    }
}

// ---------------------------------------------------------------------------
// Argument helpers

fn optional_kv<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    let prefix = format!("{key}=");
    args.iter().find_map(|a| a.strip_prefix(prefix.as_str()))
}

fn require_kv<'a>(args: &'a [String], context: &str, key: &str) -> Result<&'a str, ScenarioError> {
    optional_kv(args, key).ok_or_else(|| ScenarioError::BadParam {
        context: format!("workload {context}"),
        msg: format!("missing {key}=..."),
    })
}

fn optional_kv_u32(
    args: &[String],
    context: &str,
    key: &str,
) -> Result<Option<u32>, ScenarioError> {
    optional_kv(args, key)
        .map(|v| {
            v.parse().map_err(|_| ScenarioError::BadParam {
                context: format!("workload {context}"),
                msg: format!("bad {key} {v:?}"),
            })
        })
        .transpose()
}

fn require_kv_u32(args: &[String], context: &str, key: &str) -> Result<u32, ScenarioError> {
    optional_kv_u32(args, context, key)?.ok_or_else(|| ScenarioError::BadParam {
        context: format!("workload {context}"),
        msg: format!("missing {key}=..."),
    })
}

fn optional_kv_secs(
    args: &[String],
    context: &str,
    key: &str,
) -> Result<Option<dcdo_sim::SimDuration>, ScenarioError> {
    optional_kv(args, key)
        .map(|v| {
            parse_secs(v).ok_or_else(|| ScenarioError::BadParam {
                context: format!("workload {context}"),
                msg: format!("bad {key} {v:?}"),
            })
        })
        .transpose()
}

fn require_kv_secs(
    args: &[String],
    context: &str,
    key: &str,
) -> Result<dcdo_sim::SimDuration, ScenarioError> {
    optional_kv_secs(args, context, key)?.ok_or_else(|| ScenarioError::BadParam {
        context: format!("workload {context}"),
        msg: format!("missing {key}=..."),
    })
}

fn key_and_u64(args: &[String], context: &str) -> Result<(String, u64), ScenarioError> {
    let [key, bound] = args else {
        return Err(ScenarioError::BadParam {
            context: format!("expect {context}"),
            msg: "expected: <key> <value>".to_string(),
        });
    };
    let bound = bound.parse().map_err(|_| ScenarioError::BadParam {
        context: format!("expect {context}"),
        msg: format!("bad value {bound:?}"),
    })?;
    Ok((key.clone(), bound))
}

fn key_and_f64(args: &[String], context: &str) -> Result<(String, f64), ScenarioError> {
    let [key, bound] = args else {
        return Err(ScenarioError::BadParam {
            context: format!("expect {context}"),
            msg: "expected: <key> <value>".to_string(),
        });
    };
    let bound = bound.parse().map_err(|_| ScenarioError::BadParam {
        context: format!("expect {context}"),
        msg: format!("bad value {bound:?}"),
    })?;
    Ok((key.clone(), bound))
}

// ---------------------------------------------------------------------------
// Canonical declared scenarios

/// `mixed_traffic` — the first declaration-only workload: no hand-written
/// driver exists; this text is the whole scenario. 80% application calls,
/// 15% configuration ops, 5% live migrations against a stood-up counter
/// service, mixed by per-lane deterministic weighted draws.
pub const MIXED_TRAFFIC: &str = "\
# 80/15/5 calls / config-ops / migrations against a live counter service.
scenario mixed_traffic
seed 42
topology legion nodes=16 net=centurion
window ticks=400
workload counter_service home=4
workload calls weight=80
workload config_ops weight=15
workload migrations weight=5 nodes=4+5+6+7
expect trace_invariants
expect no_leaks
expect traffic_flowed
expect counter_at_least calls.ok 1
expect counter_at_least config_ops.ok 1
expect counter_at_least migrations.ok 1
expect counter_equals calls.err 0
expect counter_equals config_ops.err 0
expect counter_equals migrations.err 0
expect mix_converged 0.06
expect slo_latency lat.flow p99 1.0
expect slo_latency lat.rpc p99 60.0
expect slo_error_rate rpc 0.05
expect slo_recovery 1.0
";

/// `reconfig` — the canonical healthy reconfiguration workflow as an
/// episode on the 16-node centurion testbed.
pub const RECONFIG: &str = "\
scenario reconfig
seed 42
topology legion nodes=16 net=centurion
window episode
workload reconfig_episode
expect trace_invariants
expect no_leaks
expect counter_at_least reconfig.window_messages 1
";

/// `crash_during_reconfig` — the chaos variant: the instance's host dies
/// mid-evolution; recovery and amplification are judged.
pub const CRASH_DURING_RECONFIG: &str = "\
scenario crash_during_reconfig
seed 42
topology legion nodes=16 net=centurion
window episode
workload reconfig_episode faulted=true
expect trace_invariants
expect no_leaks
expect gauge_above reconfig.recovery_s 0
expect gauge_above reconfig.amplification 1
expect metric_equals sim.node_crashes 1
";

/// `rolling_partition` — a genuine composition: the ring
/// and the fault plan are independent declared workloads over a bare
/// topology.
pub const ROLLING_PARTITION: &str = "\
scenario rolling_partition
seed 42
topology bare nodes=8 net=centurion
window secs=12
workload chatter_ring nodes=8 until=12 final_heal=9
workload chaos node=0 partition@3=0+1+2+3/4+5+6+7 heal@5 partition@7=0+2+4+6/1+3+5+7 heal@9
expect trace_invariants
expect no_leaks
expect metric_at_least sim.unreachable_drops 1
expect gauge_above net.amplification 1
expect gauge_at_most chatter.recovery_s 1
";

/// `restart_storm` — three rounds of staggered crash/restart cycles over
/// the chatter ring, declared step by step.
pub const RESTART_STORM: &str = "\
scenario restart_storm
seed 42
topology bare nodes=8 net=centurion
window secs=10
workload chatter_ring nodes=8 until=10
workload chaos node=0 \
crash_for@1.3+0.5=1 crash_for@1.6+0.5=2 crash_for@1.9+0.5=3 crash_for@2.2+0.5=4 \
crash_for@3.3+0.5=1 crash_for@3.6+0.5=2 crash_for@3.9+0.5=3 crash_for@4.2+0.5=4 \
crash_for@5.3+0.5=1 crash_for@5.6+0.5=2 crash_for@5.9+0.5=3 crash_for@6.2+0.5=4
expect trace_invariants
expect no_leaks
expect metric_equals sim.node_crashes 12
expect gauge_above net.amplification 1
";

/// `ping_pong` — the ping-pong engine shape on a bare two-node world.
pub const PING_PONG: &str = "\
scenario ping_pong
seed 17
topology bare nodes=2 net=centurion
window secs=1
workload simbench shape=ping_pong
expect trace_invariants
expect no_leaks
";

/// `fan_out` — the fan-out burst engine shape on a bare world with an
/// instant network (every delivery lands at time zero).
pub const FAN_OUT: &str = "\
scenario fan_out
seed 19
topology bare nodes=16 net=instant
window secs=1
workload simbench shape=fan_out
expect trace_invariants
expect no_leaks
";

/// `transfer_heavy` — the ownership-transfer engine shape on a bare world.
pub const TRANSFER_HEAVY: &str = "\
scenario transfer_heavy
seed 29
topology bare nodes=16 net=centurion
window secs=2
workload simbench shape=transfer_heavy
expect trace_invariants
expect no_leaks
";

/// `rolling_upgrade` — an epoch-based group reconfiguration under
/// sustained traffic: canary at 100ms, 25% at 400ms, full fleet at 700ms.
/// The group must converge on one epoch and one config, nobody may stay
/// fenced, and the client may only ever see typed refusals.
pub const ROLLING_UPGRADE: &str = "\
# Canary -> 25% -> 100% rolling upgrade of a 4-replica group under traffic.
scenario rolling_upgrade
seed 42
topology bare nodes=8 net=centurion
window secs=2
workload replica_group replicas=4 version=1 until=2
workload rolling_upgrade from=1 to=2 canary@0.1 wave@0.4=25 wave@0.7=100
expect trace_invariants
expect no_leaks
expect counter_equals rollout.completed 1
expect counter_equals rollout.waves_committed 3
expect counter_equals group.epoch 3
expect counter_equals group.epoch.disagreement 0
expect counter_equals group.config.disagreement 0
expect counter_equals group.fenced 0
expect counter_equals group.calls.failed 0
expect counter_at_least group.calls.ok 500
expect slo_latency lat.flow p99 0.05
expect slo_error_rate flow 0.05
expect slo_recovery 1.0
";

/// `rolling_upgrade_coord_crash` — the chaos composition: the wave
/// coordinator's node dies right after the second wave commits (epoch
/// rounds resolve in ~6ms, so 20ms past the wave boundary the round is
/// already down). The committed epochs stay committed, the final wave's
/// proposal hits a dead coordinator and aborts at the driver's proposal
/// deadline, every fence clears, and traffic only ever sees typed
/// refusals.
pub const ROLLING_UPGRADE_COORD_CRASH: &str = "\
# The wave coordinator (node 5) crashes mid-rollout; the rollout rolls back.
scenario rolling_upgrade_coord_crash
seed 42
topology bare nodes=8 net=centurion
window secs=2
workload replica_group replicas=4 version=1 until=2
workload rolling_upgrade from=1 to=2 canary@0.1 wave@0.4=25 wave@0.7=100
workload chaos node=0 crash@0.42=5
expect trace_invariants
expect no_leaks
expect metric_equals sim.node_crashes 1
expect counter_equals rollout.completed 0
expect counter_equals rollout.rolled_back 1
expect counter_equals rollout.waves_committed 2
expect counter_equals group.epoch 2
expect counter_equals group.epoch.disagreement 0
expect counter_equals group.config.disagreement 0
expect counter_equals group.fenced 0
expect counter_equals group.calls.failed 0
expect counter_at_least group.calls.ok 500
expect slo_latency lat.flow p99 0.05
expect slo_error_rate flow 0.05
expect slo_recovery 1.0
";

/// Every canonical declaration, in the order `dcdo-inspect scenarios`
/// lists them: `(name, scenario text)`.
pub fn declared() -> &'static [(&'static str, &'static str)] {
    &[
        ("mixed_traffic", MIXED_TRAFFIC),
        ("reconfig", RECONFIG),
        ("crash_during_reconfig", CRASH_DURING_RECONFIG),
        ("rolling_partition", ROLLING_PARTITION),
        ("restart_storm", RESTART_STORM),
        ("rolling_upgrade", ROLLING_UPGRADE),
        ("rolling_upgrade_coord_crash", ROLLING_UPGRADE_COORD_CRASH),
        ("ping_pong", PING_PONG),
        ("fan_out", FAN_OUT),
        ("transfer_heavy", TRANSFER_HEAVY),
    ]
}

/// The embedded text of the declared scenario `name`, if it exists.
pub fn declared_text(name: &str) -> Option<&'static str> {
    declared()
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, text)| *text)
}

/// Loads a declared scenario by name. The embedded texts are covered by
/// the crate's own tests, so resolution cannot fail at runtime.
pub fn load_declared(name: &str) -> Option<Scenario> {
    declared_text(name)
        .map(|text| Scenario::from_text(text).expect("embedded scenario text resolves"))
}
