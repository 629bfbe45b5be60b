//! The self-contained scenario-file loader (`.scn` — no external parser
//! dependencies).
//!
//! A scenario file is line-oriented; `#` starts a comment and blank lines
//! are ignored:
//!
//! ```text
//! scenario rolling_partition
//! seed 42
//! topology bare nodes=8 net=centurion
//! window secs=12
//! workload chatter_ring nodes=8 until=12 final_heal=9
//! workload chaos node=0 partition@3=0+1+2+3/4+5+6+7 heal@5 partition@7=0+2+4+6/1+3+5+7 heal@9
//! expect trace_invariants
//! expect no_leaks
//! ```
//!
//! Directives:
//!
//! - `scenario <name>` — required, names the scenario.
//! - `seed <u64>` — default seed (overridable via
//!   [`Scenario::with_seed`](crate::Scenario::with_seed)).
//! - `topology <bare|legion> nodes=N [net=instant|centurion]`
//! - `window <ticks=N | secs=F | episode>`
//! - `workload <name> [weight=N] [key=value | token ...]` — the remaining
//!   tokens go to the workload's registry factory.
//! - `expect <name> [args...]`
//!
//! Times are decimal seconds with millisecond resolution. Fault-plan
//! tokens (`crash@T=N`, `restart@T=N`, `crash_for@T+D=N`,
//! `partition@T=0+1/2+3`, `heal@T`) are parsed by [`parse_fault_tokens`]
//! and attached through the `chaos` workload.
//!
//! Parsing produces a [`ScenarioDecl`] — names, not instances — which the
//! [`crate::registry::Registry`] resolves into a runnable
//! [`Scenario`](crate::Scenario), reporting unknown workload or
//! expectation names as typed errors.

use dcdo_chaos::FaultPlan;
use dcdo_sim::{NodeId, SimDuration};

use crate::error::ScenarioError;
use crate::scenario::Window;
use crate::topology::{Infra, NetKind, Topology};

/// A declared workload: a registry name, a selection weight, and the
/// unparsed argument tokens its factory consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadDecl {
    /// Registry name (`chatter_ring`, `chaos`, `calls`, …).
    pub name: String,
    /// Selection weight (0 = setup-only; `weight=N` token).
    pub weight: u64,
    /// Remaining tokens, passed verbatim to the factory.
    pub args: Vec<String>,
}

/// A declared expectation: a registry name plus argument tokens.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectDecl {
    /// Registry name (`trace_invariants`, `counter_at_least`, …).
    pub name: String,
    /// Argument tokens, passed verbatim to the factory.
    pub args: Vec<String>,
}

/// A parsed scenario file: structure resolved, names not yet bound to
/// implementations.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioDecl {
    /// The scenario's name.
    pub name: String,
    /// The declared default seed.
    pub seed: u64,
    /// The declared topology.
    pub topology: Topology,
    /// The declared run window.
    pub window: Window,
    /// Workloads in declaration order.
    pub workloads: Vec<WorkloadDecl>,
    /// Expectations in declaration order.
    pub expectations: Vec<ExpectDecl>,
}

/// Parses scenario text into a [`ScenarioDecl`]. Whole-file problems
/// (missing `scenario`/`topology`/`window` lines) report line 0.
pub fn parse_scenario(text: &str) -> Result<ScenarioDecl, ScenarioError> {
    let mut name: Option<String> = None;
    let mut seed = 0u64;
    let mut topology: Option<Topology> = None;
    let mut window: Option<Window> = None;
    let mut workloads = Vec::new();
    let mut expectations = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let mut tokens = content.split_whitespace();
        let directive = tokens.next().expect("non-empty line has a token");
        let rest: Vec<&str> = tokens.collect();
        match directive {
            "scenario" => {
                let [n] = rest[..] else {
                    return Err(err(line, "expected: scenario <name>"));
                };
                name = Some(n.to_string());
            }
            "seed" => {
                let [s] = rest[..] else {
                    return Err(err(line, "expected: seed <u64>"));
                };
                seed = s
                    .parse()
                    .map_err(|_| err(line, &format!("bad seed {s:?}")))?;
            }
            "topology" => {
                topology = Some(parse_topology(line, &rest)?);
            }
            "window" => {
                let [w] = rest[..] else {
                    return Err(err(line, "expected: window <ticks=N|secs=F|episode>"));
                };
                window = Some(parse_window(line, w)?);
            }
            "workload" => {
                let Some((wname, args)) = rest.split_first() else {
                    return Err(err(line, "expected: workload <name> [args...]"));
                };
                let mut weight = 0u64;
                let mut kept = Vec::new();
                for arg in args {
                    if let Some(w) = arg.strip_prefix("weight=") {
                        weight = w
                            .parse()
                            .map_err(|_| err(line, &format!("bad weight {w:?}")))?;
                    } else {
                        kept.push(arg.to_string());
                    }
                }
                workloads.push(WorkloadDecl {
                    name: wname.to_string(),
                    weight,
                    args: kept,
                });
            }
            "expect" => {
                let Some((ename, args)) = rest.split_first() else {
                    return Err(err(line, "expected: expect <name> [args...]"));
                };
                expectations.push(ExpectDecl {
                    name: ename.to_string(),
                    args: args.iter().map(|s| s.to_string()).collect(),
                });
            }
            other => {
                return Err(err(line, &format!("unknown directive {other:?}")));
            }
        }
    }

    Ok(ScenarioDecl {
        name: name.ok_or_else(|| err(0, "missing `scenario <name>` line"))?,
        seed,
        topology: topology.ok_or_else(|| err(0, "missing `topology` line"))?,
        window: window.ok_or_else(|| err(0, "missing `window` line"))?,
        workloads,
        expectations,
    })
}

fn err(line: usize, msg: &str) -> ScenarioError {
    ScenarioError::Parse {
        line,
        msg: msg.to_string(),
    }
}

fn parse_topology(line: usize, rest: &[&str]) -> Result<Topology, ScenarioError> {
    let Some((kind, args)) = rest.split_first() else {
        return Err(err(line, "expected: topology <bare|legion> [...]"));
    };
    let infra = match *kind {
        "bare" => Infra::Bare,
        "legion" => Infra::Legion,
        other => return Err(err(line, &format!("unknown topology kind {other:?}"))),
    };
    let mut nodes: Option<u32> = None;
    let mut net = NetKind::Centurion;
    for arg in args {
        if let Some(n) = arg.strip_prefix("nodes=") {
            nodes = Some(
                n.parse()
                    .map_err(|_| err(line, &format!("bad node count {n:?}")))?,
            );
        } else if let Some(n) = arg.strip_prefix("net=") {
            net = match n {
                "instant" => NetKind::Instant,
                "centurion" => NetKind::Centurion,
                other => return Err(err(line, &format!("unknown net {other:?}"))),
            };
        } else {
            return Err(err(line, &format!("unknown topology arg {arg:?}")));
        }
    }
    let nodes = nodes.ok_or_else(|| err(line, "topology needs nodes=N"))?;
    Ok(Topology { nodes, net, infra })
}

fn parse_window(line: usize, token: &str) -> Result<Window, ScenarioError> {
    if token == "episode" {
        return Ok(Window::Episode);
    }
    if let Some(n) = token.strip_prefix("ticks=") {
        return n
            .parse()
            .map(Window::Ticks)
            .map_err(|_| err(line, &format!("bad tick count {n:?}")));
    }
    if let Some(s) = token.strip_prefix("secs=") {
        return parse_secs(s)
            .map(Window::Timed)
            .ok_or_else(|| err(line, &format!("bad duration {s:?}")));
    }
    Err(err(line, &format!("unknown window {token:?}")))
}

/// Longest duration a declaration may name: ~31 years, so that sums of a
/// few parsed durations (a plan's start + downtime, now + delay) still fit
/// the engine's `u64` nanosecond clock.
const MAX_SECS: f64 = 1e9;

/// Parses decimal seconds (millisecond resolution) into a [`SimDuration`].
pub fn parse_secs(s: &str) -> Option<SimDuration> {
    let secs: f64 = s.parse().ok()?;
    if !(0.0..=MAX_SECS).contains(&secs) {
        return None;
    }
    Some(SimDuration::from_millis((secs * 1000.0).round() as u64))
}

/// Parses the `chaos` workload's argument tokens into a controller node
/// and a [`FaultPlan`].
///
/// Token forms (times in decimal seconds): `node=N` (controller node,
/// default 0), `crash@T=N`, `restart@T=N`, `crash_for@T+D=N`,
/// `partition@T=0+1/2+3` (groups split by `/`, members by `+`), `heal@T`.
pub fn parse_fault_tokens(args: &[String]) -> Result<(NodeId, FaultPlan), ScenarioError> {
    let bad = |token: &str, msg: &str| ScenarioError::BadParam {
        context: "workload chaos".to_string(),
        msg: format!("token {token:?}: {msg}"),
    };
    let mut node = NodeId::from_raw(0);
    let mut plan = FaultPlan::new();
    for token in args {
        if let Some(n) = token.strip_prefix("node=") {
            node = NodeId::from_raw(n.parse().map_err(|_| bad(token, "bad controller node"))?);
        } else if let Some(rest) = token.strip_prefix("crash_for@") {
            let (at_down, n) = rest
                .split_once('=')
                .ok_or_else(|| bad(token, "expected crash_for@T+D=N"))?;
            let (at, down) = at_down
                .split_once('+')
                .ok_or_else(|| bad(token, "expected crash_for@T+D=N"))?;
            let at = parse_secs(at).ok_or_else(|| bad(token, "bad start time"))?;
            let down = parse_secs(down).ok_or_else(|| bad(token, "bad downtime"))?;
            let n: u32 = n.parse().map_err(|_| bad(token, "bad node"))?;
            plan = plan.crash_for(at, down, NodeId::from_raw(n));
        } else if let Some(rest) = token.strip_prefix("crash@") {
            let (at, n) = split_at_eq(rest).ok_or_else(|| bad(token, "expected crash@T=N"))?;
            plan = plan.crash_at(at, NodeId::from_raw(n));
        } else if let Some(rest) = token.strip_prefix("restart@") {
            let (at, n) = split_at_eq(rest).ok_or_else(|| bad(token, "expected restart@T=N"))?;
            plan = plan.restart_at(at, NodeId::from_raw(n));
        } else if let Some(rest) = token.strip_prefix("partition@") {
            let (at, groups) = rest
                .split_once('=')
                .ok_or_else(|| bad(token, "expected partition@T=groups"))?;
            let at = parse_secs(at).ok_or_else(|| bad(token, "bad time"))?;
            let mut parsed: Vec<Vec<NodeId>> = Vec::new();
            for group in groups.split('/') {
                let mut members = Vec::new();
                for member in group.split('+') {
                    let n: u32 = member.parse().map_err(|_| bad(token, "bad group member"))?;
                    members.push(NodeId::from_raw(n));
                }
                parsed.push(members);
            }
            plan = plan.partition_at(at, &parsed);
        } else if let Some(at) = token.strip_prefix("heal@") {
            let at = parse_secs(at).ok_or_else(|| bad(token, "bad time"))?;
            plan = plan.heal_at(at);
        } else {
            return Err(bad(token, "unknown fault token"));
        }
    }
    Ok((node, plan))
}

/// Splits `T=N` into a parsed duration and node raw id.
fn split_at_eq(rest: &str) -> Option<(SimDuration, u32)> {
    let (at, n) = rest.split_once('=')?;
    Some((parse_secs(at)?, n.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        let decl = parse_scenario(
            "# a comment\n\
             scenario demo  # trailing comment\n\
             seed 9\n\
             topology legion nodes=16 net=centurion\n\
             window ticks=100\n\
             \n\
             workload counter_service home=4\n\
             workload calls weight=80\n\
             expect counter_at_least calls.ok 1\n",
        )
        .expect("parses");
        assert_eq!(decl.name, "demo");
        assert_eq!(decl.seed, 9);
        assert_eq!(decl.topology, Topology::legion(16, NetKind::Centurion));
        assert_eq!(decl.window, Window::Ticks(100));
        assert_eq!(decl.workloads.len(), 2);
        assert_eq!(decl.workloads[0].name, "counter_service");
        assert_eq!(decl.workloads[0].weight, 0);
        assert_eq!(decl.workloads[0].args, vec!["home=4".to_string()]);
        assert_eq!(decl.workloads[1].weight, 80);
        assert!(decl.workloads[1].args.is_empty(), "weight token consumed");
        assert_eq!(decl.expectations[0].name, "counter_at_least");
        assert_eq!(decl.expectations[0].args, vec!["calls.ok", "1"]);
    }

    #[test]
    fn errors_carry_precise_line_numbers() {
        let err = parse_scenario("scenario x\ntopology bare nodes=4\nfrobnicate\n").unwrap_err();
        assert_eq!(
            err,
            ScenarioError::Parse {
                line: 3,
                msg: "unknown directive \"frobnicate\"".to_string()
            }
        );
        for secs in ["oops", "30000000000"] {
            let text = format!("scenario x\ntopology bare nodes=4\nwindow secs={secs}\n");
            let err = parse_scenario(&text).unwrap_err();
            assert_eq!(
                err,
                ScenarioError::Parse {
                    line: 3,
                    msg: format!("bad duration {secs:?}")
                }
            );
        }
    }

    #[test]
    fn whole_file_problems_report_line_zero() {
        let err = parse_scenario("topology bare nodes=4\nwindow secs=1\n").unwrap_err();
        assert!(matches!(err, ScenarioError::Parse { line: 0, .. }), "{err}");
        let err = parse_scenario("scenario x\nwindow secs=1\n").unwrap_err();
        assert!(matches!(err, ScenarioError::Parse { line: 0, .. }), "{err}");
        let err = parse_scenario("scenario x\ntopology bare nodes=4\n").unwrap_err();
        assert!(matches!(err, ScenarioError::Parse { line: 0, .. }), "{err}");
    }

    #[test]
    fn seconds_parse_at_millisecond_resolution() {
        assert_eq!(parse_secs("12"), Some(SimDuration::from_secs(12)));
        assert_eq!(parse_secs("1.3"), Some(SimDuration::from_millis(1300)));
        assert_eq!(parse_secs("0.5"), Some(SimDuration::from_millis(500)));
        assert_eq!(parse_secs("-1"), None);
        assert_eq!(parse_secs("inf"), None);
        assert_eq!(parse_secs("NaN"), None);
        assert_eq!(
            parse_secs("1e9"),
            Some(SimDuration::from_secs(1_000_000_000))
        );
        assert_eq!(parse_secs("30000000000"), None, "ns would overflow u64");
        assert_eq!(parse_secs("x"), None);
    }

    #[test]
    fn fault_tokens_reproduce_the_builder_plan() {
        let n = NodeId::from_raw;
        let args: Vec<String> = [
            "node=3",
            "crash@1=1",
            "restart@1.5=1",
            "crash_for@2+0.5=2",
            "partition@3=0+1/2+3",
            "heal@4",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (node, plan) = parse_fault_tokens(&args).expect("parses");
        assert_eq!(node, n(3));
        let expected = FaultPlan::new()
            .crash_at(SimDuration::from_secs(1), n(1))
            .restart_at(SimDuration::from_millis(1500), n(1))
            .crash_for(
                SimDuration::from_secs(2),
                SimDuration::from_millis(500),
                n(2),
            )
            .partition_at(
                SimDuration::from_secs(3),
                &[vec![n(0), n(1)], vec![n(2), n(3)]],
            )
            .heal_at(SimDuration::from_secs(4));
        assert_eq!(plan, expected);
    }

    #[test]
    fn bad_fault_tokens_are_typed_errors() {
        for token in ["explode@3", "crash@x=1", "crash_for@1=2", "partition@1=a+b"] {
            let err = parse_fault_tokens(&[token.to_string()]).unwrap_err();
            match err {
                ScenarioError::BadParam { context, msg } => {
                    assert_eq!(context, "workload chaos");
                    assert!(msg.contains(token), "message names the token: {msg}");
                }
                other => panic!("expected BadParam for {token:?}, got {other:?}"),
            }
        }
    }
}
