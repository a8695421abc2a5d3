//! E17 — unified observability: one metrics/span registry across the whole
//! pipeline.
//!
//! The paper's pipeline spans four loosely coupled layers — Scribe
//! delivery, the main warehouse, Oink scheduling, and the Pig-style query
//! engine — and §2 motivates the whole system by how hard it was to answer
//! "where did this day's data go?" across them. This experiment threads a
//! single [`Registry`] through every layer, drives an E1-style faulty day
//! end to end (aggregator crash at hour 6, a two-hour staging outage, Oink
//! retrying the mover until it succeeds, then the daily materialize +
//! count query), and checks two things:
//!
//! 1. **Reconciliation** — the layers agree with each other through the
//!    registry alone: entries logged by Scribe equal records scanned by
//!    the dataflow source stage plus crash losses and policy drops.
//! 2. **Determinism** — the exported snapshot (metrics, span forest, and
//!    critical path) is byte-identical at every worker count, so a golden
//!    file diff is a meaningful CI gate.
//!
//! Both are its gates, as is that no metric is registered twice: no test
//! but this module's threads one registry through all four layers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use uli_core::client_event::{ClientEventLoader, CLIENT_EVENT_SCHEMA};
use uli_core::session::{day_dir, Materializer};
use uli_core::ClientEventLanding;
use uli_dataflow::prelude::*;
use uli_obs::Registry;
use uli_oink::Oink;
use uli_scribe::ScribePipeline;
use uli_workload::{generate_day, WorkloadConfig};

use crate::experiments::e1_scribe::log_hour;
use crate::harness::{object, topology, Body};
use crate::{Metrics, Outcome};

/// Drives one instrumented day: Scribe delivery, landing columnar, with
/// E1's fault plan, the Oink-scheduled hourly mover (retried through the
/// outage), and the daily materialize + count-query jobs, all sharing one
/// registry. Returns the registry's export (metrics, span forest and
/// critical path), the day's sample row, and whether its layers reconcile:
/// entries logged by Scribe equal records scanned by the query's source
/// stage plus crash losses and policy drops, and the query's own count
/// agrees with the scan counter.
fn run_once(users: u64, workers: usize) -> (String, String, bool) {
    let registry = Registry::new();
    let config = topology();
    let day = generate_day(
        &WorkloadConfig {
            users,
            ..Default::default()
        },
        0,
    );
    let mut pipe = ScribePipeline::new_with_obs(config, &registry);
    pipe.set_columnar_landing(Arc::new(ClientEventLanding::default()));
    let pipe = Arc::new(Mutex::new(pipe));
    let main = pipe.lock().unwrap().main_warehouse().clone();

    let mut oink = Oink::new();
    oink.attach_obs(&registry);
    let mover_pipe = Arc::clone(&pipe);
    oink.add_hourly("scribe_move", &[], move |hour| {
        let mut p = mover_pipe.lock().unwrap();
        p.seal_hour("client_events", hour);
        p.move_hour("client_events", hour)
            .map(|_| ())
            .map_err(|e| e.to_string())
    });
    let sessions_out = Arc::new(AtomicU64::new(0));
    let sessions_sink = Arc::clone(&sessions_out);
    let session_wh = main.clone();
    oink.add_daily("sessions", &["scribe_move"], move |day_index| {
        let m = Materializer::new(session_wh.clone()).with_parallelism(Parallelism::fixed(workers));
        let report = m.run_day(day_index).map_err(|e| e.to_string())?;
        sessions_sink.store(report.sessions, Ordering::SeqCst);
        Ok(())
    });
    // Build the engine once, outside the job closure: jobs may be retried,
    // and a second `with_obs` on the same registry would show up in the
    // duplicate-registration gate.
    let engine = Engine::new(main.clone())
        .with_obs(&registry)
        .with_parallelism(Parallelism::fixed(workers));
    let plan = Plan::load(
        day_dir("client_events", 0),
        Arc::new(ClientEventLoader),
        CLIENT_EVENT_SCHEMA.to_vec(),
    )
    .aggregate(vec![Agg::count()]);
    let counted_out = Arc::new(AtomicU64::new(0));
    let counted_sink = Arc::clone(&counted_out);
    oink.add_daily("count_query", &["sessions"], move |_day_index| {
        let result = engine.run(&plan).map_err(|e| e.to_string())?;
        match result.rows[0][0] {
            Value::Int(n) => counted_sink.store(n as u64, Ordering::SeqCst),
            ref other => return Err(format!("count query returned {other:?}")),
        }
        Ok(())
    });

    // E1's fault plan, with the mover driven by Oink instead of inline:
    // failed moves during the outage are retried on every later advance.
    for hour in 0..24u64 {
        {
            let mut p = pipe.lock().unwrap();
            log_hour(&mut p, &config, &day.events, hour, true);
            p.flush_hour(hour);
        }
        oink.advance_hour(hour);
    }
    // Recovery sweep: flush whatever is still buffered, then let Oink
    // retry anything that failed (all periods are already completed in the
    // fault-free case, so this is a no-op there).
    pipe.lock().unwrap().flush_hour(23);
    oink.advance_hour(23);

    let snap = registry.snapshot();
    let counter = |key: &str| snap.counter_value(key).unwrap_or(0);
    let [logged, moved, crash_lost, dropped, scanned, oink_failures] = [
        "scribe/logged",
        "scribe/moved",
        "scribe/lost_in_crashes",
        "scribe/dropped_disk_full",
        "dataflow/input_records",
        "oink/jobs_failed",
    ]
    .map(counter);
    let (sessions, counted) = (
        sessions_out.load(Ordering::SeqCst),
        counted_out.load(Ordering::SeqCst),
    );
    let row = object(&[
        ("workers", &workers),
        ("logged", &logged),
        ("moved", &moved),
        ("crash_lost", &crash_lost),
        ("scanned", &scanned),
        ("counted", &counted),
        ("sessions", &sessions),
        ("oink_failures", &oink_failures),
    ]);
    let reconciled = logged == scanned + crash_lost + dropped && counted == scanned;
    (snap.to_json(), row, reconciled)
}

/// Runs the sweep: 300 users at workers {1, 4, 8}, or for a smoke run the
/// 120-user day at workers {1, 2}, whose snapshot CI golden-diffs.
pub fn measure(smoke: bool) -> Outcome {
    if smoke {
        sweep(120, &[1, 2], true)
    } else {
        sweep(300, &[1, 4, 8], false)
    }
}

/// One instrumented day per worker count, and the verdicts across them.
///
/// The metrics are the first sample's registry snapshot, byte-identical to
/// every other sample's whenever the snapshot gate holds: on a smoke run
/// the file is the snapshot, on a full run the sweep's verdicts and samples
/// come ahead of its members.
fn sweep(users: u64, worker_counts: &[usize], smoke: bool) -> Outcome {
    let samples: Vec<(String, String, bool)> = worker_counts
        .iter()
        .map(|&workers| run_once(users, workers))
        .collect();
    let identical = samples.windows(2).all(|w| w[0].0 == w[1].0);
    let reconciled = samples.iter().all(|s| s.2);
    let clean = samples
        .iter()
        .all(|s| !s.0.contains("\"duplicate_registrations\": [\""));
    let snapshot = samples[0]
        .0
        .strip_prefix("{\n  \"schema\": \"uli-obs-v1\",\n")
        .and_then(|s| s.strip_suffix("\n}\n"))
        .expect("a uli-obs-v1 export");
    let body = if smoke {
        snapshot.to_string()
    } else {
        let verdicts = Body::default()
            .put("reconciled", reconciled)
            .put("snapshots_identical", identical)
            .put("duplicates_clean", clean)
            .rows("samples", samples.iter().map(|s| s.1.clone()));
        format!("{},\n{snapshot}", verdicts.finish())
    };
    let gates = vec![
        ("cross-layer totals did not reconcile".into(), reconciled),
        ("snapshot differs across worker counts".into(), identical),
        ("duplicate metric registrations found".into(), clean),
    ];
    let metrics = Metrics {
        experiment: (!smoke).then_some("obs"),
        schema: "uli-obs-v1",
        body,
        bench_file: "BENCH_obs.json",
    };
    Outcome::measured(gates, metrics, smoke)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uli_core::json::Json;

    #[test]
    fn snapshots_reconcile_and_are_worker_invariant() {
        let m = sweep(60, &[1, 4, 8], false);
        let json = crate::tests::assert_smoke_run(&m);
        let Some(Json::Array(samples)) = json.get("samples") else {
            panic!("no samples array");
        };
        for s in samples {
            let count = |key| s.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            assert!(
                count("crash_lost") > 0.0,
                "the hour-6 crash must lose something or the fault plan is dead"
            );
            assert!(
                count("oink_failures") > 0.0,
                "the staging outage must make the mover retry"
            );
        }
    }
}
