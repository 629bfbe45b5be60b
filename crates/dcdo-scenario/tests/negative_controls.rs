//! Negative controls: broken declarations are rejected with precise typed
//! errors, and broken *runs* fail with precise verdicts — never a panic.

use dcdo_chaos::{FaultPlan, PlanError};
use dcdo_scenario::{
    run, run_artifacts, Calls, ChaosAttachment, ChatterRing, CounterBound, NetKind, NoLeakedEvents,
    ReconfigEpisode, RunCx, Scenario, ScenarioError, Topology, TraceInvariantsClean, Workload,
};
use dcdo_sim::{NodeId, SimDuration};

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

// ---------------------------------------------------------------------------
// Runtime negative controls: failures surface as verdicts, not panics.

/// Plants a leaked-flow span into an otherwise clean run after the window
/// closes, so the trace-invariant checker must flag it.
struct PlantViolation;

impl Workload for PlantViolation {
    fn name(&self) -> &str {
        "plant_violation"
    }

    fn measure(&mut self, cx: &mut RunCx) {
        let sim = cx.world.sim_mut().expect("built world");
        sim.spans_mut().emit(
            0,
            0,
            None,
            dcdo_sim::SpanKind::FlowStarted {
                flow: 999_999,
                object: 424_242,
                kind: dcdo_sim::FlowKind::Update,
            },
        );
    }
}

#[test]
fn planted_invariant_violation_fails_with_a_precise_verdict() {
    let scenario = Scenario::builder("planted")
        .seed(3)
        .topology(Topology::bare(4, NetKind::Centurion))
        .timed(secs(1))
        .workload(0, ChatterRing::new(4, secs(1)))
        .workload(0, PlantViolation)
        .expect(TraceInvariantsClean)
        .build();
    let artifacts = run_artifacts(scenario, None).expect("declaration itself is valid");
    let report = &artifacts.report;
    assert!(!report.passed, "planted violation must fail the run");
    // One checker verdict feeds the expectation, the report and the tail
    // sampler, and it is the one a fresh check of the returned spans gives.
    assert_eq!(report.trace_violations, 1);
    let flight = artifacts.flight.as_ref().expect("a world was built");
    assert!(flight
        .flows
        .iter()
        .any(|f| f.flow == 999_999 && f.violating));
    let log =
        dcdo_sim::TraceLog::from_events(artifacts.spans.clone(), artifacts.span_groups.clone());
    assert_eq!(dcdo_sim::check_trace_invariants(&log).len(), 1);
    let verdict = &report.verdicts[0];
    assert_eq!(verdict.expectation, "trace_invariants");
    assert!(!verdict.passed);
    assert!(
        verdict.detail.contains("violations"),
        "verdict names the problem: {}",
        verdict.detail
    );
}

#[test]
fn unmet_expectation_fails_with_a_precise_verdict() {
    let scenario = Scenario::builder("unmet")
        .seed(3)
        .topology(Topology::bare(4, NetKind::Centurion))
        .timed(secs(1))
        .workload(0, ChatterRing::new(4, secs(1)))
        .expect(CounterBound::at_least("nonexistent.counter", 5))
        .expect(NoLeakedEvents)
        .build();
    let report = run(scenario).expect("declaration itself is valid");
    assert!(!report.passed, "unmet expectation must fail the run");
    let unmet = &report.verdicts[0];
    assert!(!unmet.passed);
    assert_eq!(unmet.detail, "nonexistent.counter = 0 (>= 5)");
    // Other expectations still judge independently.
    assert!(report.verdicts[1].passed, "no_leaks still passes");
}

// ---------------------------------------------------------------------------
// Validation negative controls: typed errors before any state is built.

#[test]
fn zero_total_weight_is_rejected() {
    let scenario = Scenario::builder("zero")
        .seed(1)
        .topology(Topology::legion(4, NetKind::Centurion))
        .ticks(100)
        .workload(0, Calls::new())
        .build();
    assert_eq!(
        scenario.validate(),
        Err(ScenarioError::ZeroTotalWeight {
            scenario: "zero".to_string()
        })
    );
    // A total past u64 is rejected too, not wrapped into a skewed mix.
    let scenario = Scenario::builder("huge")
        .seed(1)
        .topology(Topology::legion(4, NetKind::Centurion))
        .ticks(100)
        .workload(u64::MAX, Calls::new())
        .workload(u64::MAX, Calls::new())
        .build();
    assert_eq!(
        scenario.validate(),
        Err(ScenarioError::BadParam {
            context: "scenario \"huge\"".to_string(),
            msg: "total workload weight overflows u64".to_string()
        })
    );
}

#[test]
fn no_workloads_is_rejected() {
    let scenario = Scenario::builder("empty")
        .seed(1)
        .topology(Topology::bare(4, NetKind::Centurion))
        .timed(secs(1))
        .build();
    assert_eq!(
        scenario.validate(),
        Err(ScenarioError::NoWorkloads {
            scenario: "empty".to_string()
        })
    );
}

#[test]
fn zero_nodes_is_rejected() {
    let scenario = Scenario::builder("hollow")
        .seed(1)
        .topology(Topology::bare(0, NetKind::Centurion))
        .timed(secs(1))
        .workload(0, ChatterRing::new(2, secs(1)))
        .build();
    assert_eq!(
        scenario.validate(),
        Err(ScenarioError::NoNodes {
            scenario: "hollow".to_string()
        })
    );
    // Nor may a topology outgrow the engine's 16-bit lane space.
    let scenario = Scenario::builder("vast")
        .seed(1)
        .topology(Topology::bare(70_000, NetKind::Centurion))
        .timed(secs(1))
        .workload(0, ChatterRing::new(70_000, secs(1)))
        .build();
    assert_eq!(
        scenario.validate(),
        Err(ScenarioError::BadParam {
            context: "topology".to_string(),
            msg: "70000 nodes exceed the engine's limit of 65534".to_string()
        })
    );
}

#[test]
fn window_shorter_than_fault_plan_is_rejected() {
    let plan = FaultPlan::new().crash_at(secs(30), NodeId::from_raw(1));
    let scenario = Scenario::builder("short")
        .seed(1)
        .topology(Topology::bare(4, NetKind::Centurion))
        .timed(secs(2))
        .workload(0, ChatterRing::new(4, secs(2)))
        .workload(0, ChaosAttachment::new(NodeId::from_raw(0), plan))
        .build();
    assert_eq!(
        scenario.validate(),
        Err(ScenarioError::WindowShorterThanFaultPlan {
            workload: "chaos".to_string(),
            window: secs(2),
            plan_end: secs(30),
        })
    );
}

#[test]
fn invalid_fault_plan_is_rejected_with_the_plan_error() {
    // Two overlapping crashes of the same node: FaultPlan::validate's own
    // typed error must surface through the scenario layer.
    let node = NodeId::from_raw(1);
    let plan = FaultPlan::new()
        .crash_at(secs(1), node)
        .crash_at(secs(2), node);
    let scenario = Scenario::builder("overlap")
        .seed(1)
        .topology(Topology::bare(4, NetKind::Centurion))
        .timed(secs(5))
        .workload(0, ChatterRing::new(4, secs(5)))
        .workload(0, ChaosAttachment::new(NodeId::from_raw(0), plan))
        .build();
    match scenario.validate() {
        Err(ScenarioError::InvalidFaultPlan { workload, error }) => {
            assert_eq!(workload, "chaos");
            assert!(matches!(error, PlanError::OverlappingCrash { .. }));
        }
        other => panic!("expected InvalidFaultPlan, got {other:?}"),
    }
}

#[test]
fn legion_workload_on_bare_topology_is_rejected() {
    let scenario = Scenario::builder("mismatch")
        .seed(1)
        .topology(Topology::bare(4, NetKind::Centurion))
        .ticks(10)
        .workload(1, Calls::new())
        .build();
    assert_eq!(
        scenario.validate(),
        Err(ScenarioError::WorldMismatch {
            workload: "calls".to_string(),
            needs: "legion",
        })
    );
}

#[test]
fn episode_window_with_a_workload_that_has_no_episode_is_rejected() {
    let scenario = Scenario::builder("confused")
        .seed(1)
        .topology(Topology::bare(4, NetKind::Centurion))
        .episode()
        .workload(0, ChatterRing::new(4, secs(1)))
        .build();
    assert_eq!(
        scenario.validate(),
        Err(ScenarioError::EpisodeMismatch {
            scenario: "confused".to_string()
        })
    );
}

#[test]
fn episode_workload_under_a_tick_window_is_rejected() {
    let scenario = Scenario::builder("stepped_episode")
        .seed(1)
        .topology(Topology::legion(16, NetKind::Centurion))
        .ticks(10)
        .workload(1, ReconfigEpisode::new(false))
        .build();
    assert_eq!(
        scenario.validate(),
        Err(ScenarioError::EpisodeMismatch {
            scenario: "stepped_episode".to_string()
        })
    );
}

#[test]
fn oversized_ring_is_rejected_as_bad_param() {
    let scenario = Scenario::builder("toobig")
        .seed(1)
        .topology(Topology::bare(4, NetKind::Centurion))
        .timed(secs(1))
        .workload(0, ChatterRing::new(8, secs(1)))
        .build();
    match scenario.validate() {
        Err(ScenarioError::BadParam { context, msg }) => {
            assert_eq!(context, "workload chatter_ring");
            assert!(msg.contains("8 nodes"), "message names the sizes: {msg}");
        }
        other => panic!("expected BadParam, got {other:?}"),
    }
}

#[test]
fn traffic_without_a_service_is_rejected() {
    // Without a `counter_service` every step would be a silent no-op and
    // the run would report PASS having done nothing.
    for workload in ["calls", "config_ops", "migrations nodes=1+2"] {
        let text = format!(
            "scenario idle\ntopology legion nodes=4\nwindow ticks=10\nworkload {workload} weight=1\n"
        );
        let scenario = Scenario::from_text(&text).expect("parses and resolves");
        let name = workload.split(' ').next().expect("name token");
        assert_eq!(
            scenario.validate(),
            Err(ScenarioError::MissingService {
                workload: name.to_string()
            })
        );
        assert!(run(scenario).is_err(), "rejected before any world is built");
    }
}

#[test]
fn fault_plan_naming_a_node_outside_the_topology_is_rejected() {
    for faults in [
        "crash_for@1+0.5=77",
        "crash@1=8",
        "crash@1=3 restart@1.5=3 restart@1.6=9",
        "partition@1=0+1/2+12 heal@1.5",
    ] {
        let text = format!(
            "scenario far\ntopology bare nodes=8\nwindow secs=2\n\
             workload chatter_ring nodes=8 until=2\nworkload chaos node=0 {faults}\n"
        );
        let scenario = Scenario::from_text(&text).expect("parses and resolves");
        match scenario.validate() {
            Err(ScenarioError::BadParam { context, msg }) => {
                assert_eq!(context, "workload chaos");
                assert!(msg.contains("out of range"), "{faults}: {msg}");
                assert!(msg.contains("8 nodes"), "{faults}: {msg}");
            }
            other => panic!("{faults}: expected BadParam, got {other:?}"),
        }
    }
    // Link faults have no `.scn` token; bound them through the builder.
    let plan =
        FaultPlan::new().clear_link_fault_at(secs(1), NodeId::from_raw(1), NodeId::from_raw(8));
    let scenario = Scenario::builder("far_link")
        .topology(Topology::bare(8, NetKind::Centurion))
        .timed(secs(2))
        .workload(0, ChaosAttachment::new(NodeId::from_raw(0), plan))
        .build();
    assert!(matches!(
        scenario.validate(),
        Err(ScenarioError::BadParam { ref msg, .. }) if msg.contains("link-fault node 8")
    ));
}

#[test]
fn unknown_names_are_rejected_by_the_loader() {
    let err = Scenario::from_text(
        "scenario x\ntopology bare nodes=4\nwindow secs=1\nworkload no_such_thing\n",
    )
    .expect_err("unknown workload");
    assert_eq!(
        err,
        ScenarioError::UnknownWorkload {
            name: "no_such_thing".to_string()
        }
    );

    let err = Scenario::from_text(
        "scenario x\ntopology bare nodes=4\nwindow secs=1\nworkload chatter_ring nodes=4 until=1\nexpect never_heard_of_it\n",
    )
    .expect_err("unknown expectation");
    assert_eq!(
        err,
        ScenarioError::UnknownExpectation {
            name: "never_heard_of_it".to_string()
        }
    );
}

#[test]
fn run_surfaces_validation_errors() {
    let scenario = Scenario::builder("empty")
        .seed(1)
        .topology(Topology::bare(4, NetKind::Centurion))
        .timed(secs(1))
        .build();
    assert!(matches!(
        run(scenario),
        Err(ScenarioError::NoWorkloads { .. })
    ));
}

#[test]
fn errors_display_precisely() {
    let err = ScenarioError::WindowShorterThanFaultPlan {
        workload: "chaos".to_string(),
        window: secs(2),
        plan_end: secs(30),
    };
    let msg = err.to_string();
    assert!(
        msg.contains("chaos") && msg.contains("30") && msg.contains("2"),
        "{msg}"
    );

    let msg = ScenarioError::UnknownWorkload {
        name: "ghost".to_string(),
    }
    .to_string();
    assert!(msg.contains("ghost"), "{msg}");
}

#[test]
fn window_shorter_than_rollout_schedule_is_rejected() {
    // The last wave fires at 0.9s and its proposal deadline + probe delay
    // push the schedule's end to 1.2s — past the 1s window.
    let text = "\
scenario short_rollout
seed 1
topology bare nodes=8 net=centurion
window secs=1
workload replica_group replicas=4 version=1 until=1
workload rolling_upgrade from=1 to=2 canary@0.1 wave@0.9=100
expect trace_invariants
";
    let scenario = Scenario::from_text(text).expect("parses and resolves");
    assert_eq!(
        scenario.validate(),
        Err(ScenarioError::WindowShorterThanSchedule {
            workload: "rolling_upgrade".to_string(),
            window: secs(1),
            schedule_end: SimDuration::from_millis(1200),
        })
    );
}

#[test]
fn empty_wave_plans_and_schedule_errors_display_precisely() {
    let err = ScenarioError::WindowShorterThanSchedule {
        workload: "rolling_upgrade".to_string(),
        window: secs(1),
        schedule_end: SimDuration::from_millis(1200),
    }
    .to_string();
    assert!(err.contains("schedule ends at 1.2s"), "got: {err}");
    let missing = Scenario::from_text(
        "\
scenario no_waves
seed 1
topology bare nodes=8 net=centurion
window secs=1
workload replica_group replicas=4 until=1
workload rolling_upgrade to=2
expect trace_invariants
",
    );
    assert!(
        matches!(
            missing,
            Err(ScenarioError::BadParam { ref context, .. }) if context.contains("rolling_upgrade")
        ),
        "got: {missing:?}"
    );
}
