//! Thread-count parity for the observability surface: for every declared
//! scenario, the flight-recorder digest, the timeline JSON/Prometheus
//! exports, and the full report JSON must be byte-identical whether the
//! world runs sequentially or sharded across 2, 4, or 8 workers.
//!
//! Episode workloads build their own simulations at the process-default
//! thread count, so the test also moves that default (it is the only test
//! in this binary, so nothing races on the global).

use dcdo_scenario::{registry, run_artifacts};

#[test]
fn observability_is_byte_identical_at_every_thread_count() {
    for (name, _) in registry::declared() {
        dcdo_sim::set_default_threads(1);
        let baseline =
            run_artifacts(registry::load_declared(name).expect("loads"), Some(1)).expect("runs");
        for threads in [2u32, 4, 8] {
            dcdo_sim::set_default_threads(threads);
            let run = run_artifacts(registry::load_declared(name).expect("loads"), Some(threads))
                .expect("runs");
            assert_eq!(
                baseline.report.flight_digest, run.report.flight_digest,
                "{name}: flight digest diverged at {threads} threads"
            );
            assert_eq!(
                baseline.timeline_json, run.timeline_json,
                "{name}: timeline JSON diverged at {threads} threads"
            );
            assert_eq!(
                baseline.timeline_prom, run.timeline_prom,
                "{name}: timeline Prometheus export diverged at {threads} threads"
            );
            assert_eq!(
                baseline.report.to_json(),
                run.report.to_json(),
                "{name}: report JSON diverged at {threads} threads"
            );
            let (a, b) = (&baseline.flight, &run.flight);
            assert_eq!(
                a.as_ref().map(|f| f.to_json()),
                b.as_ref().map(|f| f.to_json()),
                "{name}: flight dump diverged at {threads} threads"
            );
        }
    }
}
