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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use uli_core::client_event::{ClientEventLoader, CLIENT_EVENT_SCHEMA};
use uli_core::session::{day_dir, Materializer};
use uli_dataflow::prelude::*;
use uli_obs::Registry;
use uli_oink::Oink;
use uli_scribe::pipeline::PipelineConfig;
use uli_scribe::{LogEntry, ScribePipeline};
use uli_thrift::ThriftRecord;
use uli_workload::{generate_day, WorkloadConfig};

use crate::harness::Table;
use crate::{cells, Measured, Metrics};

/// One run of the instrumented day at a fixed worker count.
pub struct ObsSample {
    /// Worker count used by the materializer and the query engine.
    pub workers: usize,
    /// `scribe/logged` — entries logged on production hosts.
    pub logged: u64,
    /// `scribe/moved` — entries merged into the main warehouse.
    pub moved: u64,
    /// `scribe/lost_in_crashes` — entries lost to the hour-6 crash.
    pub crash_lost: u64,
    /// `scribe/dropped_disk_full` — entries dropped at full host buffers.
    pub dropped: u64,
    /// `dataflow/input_records` — records scanned by the count query's
    /// source stage.
    pub scanned: u64,
    /// Sessions materialized by the Oink-scheduled daily job.
    pub sessions: u64,
    /// The count the query itself returned (must equal `scanned`).
    pub counted: u64,
    /// `oink/jobs_failed` — mover attempts that failed during the outage.
    pub oink_failures: u64,
    /// The full exported snapshot (metrics + span forest + critical path).
    pub snapshot_json: String,
    /// The rendered critical-path report.
    pub critical_path: String,
}

/// The full sweep result.
pub struct Measurements {
    /// Samples in worker order.
    pub samples: Vec<ObsSample>,
    /// True when every worker count exported a byte-identical snapshot.
    pub snapshots_identical: bool,
    /// True when `logged == scanned + crash_lost + dropped` in every
    /// sample (and the query's own count agrees with the scan counter).
    pub reconciled: bool,
    /// True when no sample recorded a duplicate metric registration.
    pub duplicates_clean: bool,
}

/// Drives one instrumented day: Scribe delivery with E1's fault plan, the
/// Oink-scheduled hourly mover (retried through the outage), and the daily
/// materialize + count-query jobs, all sharing one registry.
fn run_once(users: u64, workers: usize) -> ObsSample {
    let registry = Registry::new();
    let config = PipelineConfig {
        datacenters: 2,
        hosts_per_dc: 4,
        aggregators_per_dc: 2,
        records_per_file: 10_000,
        ..Default::default()
    };
    let day = generate_day(
        &WorkloadConfig {
            users,
            ..Default::default()
        },
        0,
    );
    let pipe = Arc::new(Mutex::new(ScribePipeline::new_with_obs(config, &registry)));
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
            for (i, ev) in day
                .events
                .iter()
                .filter(|e| e.timestamp.hour_index() == hour)
                .enumerate()
            {
                let dc = (ev.user_id as usize) % config.datacenters;
                p.log(
                    dc,
                    i % config.hosts_per_dc,
                    LogEntry::new("client_events", ev.to_bytes()),
                );
            }
            p.step();
            match hour {
                6 => {
                    p.crash_aggregator(0, 0);
                    p.spawn_aggregator(0, 0);
                    p.step();
                }
                12 => p.set_staging_available(1, false),
                14 => p.set_staging_available(1, true),
                _ => {}
            }
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
    ObsSample {
        workers,
        logged: counter("scribe/logged"),
        moved: counter("scribe/moved"),
        crash_lost: counter("scribe/lost_in_crashes"),
        dropped: counter("scribe/dropped_disk_full"),
        scanned: counter("dataflow/input_records"),
        sessions: sessions_out.load(Ordering::SeqCst),
        counted: counted_out.load(Ordering::SeqCst),
        oink_failures: counter("oink/jobs_failed"),
        critical_path: snap.critical_path_report(),
        snapshot_json: snap.to_json(),
    }
}

/// Runs the sweep: 300 users at workers {1, 4, 8}, or for a smoke run the
/// 120-user day at workers {1, 2}, whose snapshot CI golden-diffs.
pub fn measure(smoke: bool) -> Measurements {
    if smoke {
        sweep(120, &[1, 2])
    } else {
        sweep(300, &[1, 4, 8])
    }
}

/// One instrumented day per worker count, and the verdicts across them.
fn sweep(users: u64, worker_counts: &[usize]) -> Measurements {
    let samples: Vec<ObsSample> = worker_counts
        .iter()
        .map(|&workers| run_once(users, workers))
        .collect();
    let snapshots_identical = samples
        .windows(2)
        .all(|w| w[0].snapshot_json == w[1].snapshot_json);
    let reconciled = samples
        .iter()
        .all(|s| s.logged == s.scanned + s.crash_lost + s.dropped && s.counted == s.scanned);
    let duplicates_clean = samples
        .iter()
        .all(|s| !s.snapshot_json.contains("\"duplicate_registrations\": [\""));
    Measurements {
        samples,
        snapshots_identical,
        reconciled,
        duplicates_clean,
    }
}

impl Measured for Measurements {
    fn render(&self) -> String {
        let m = self;
        let mut out = String::from(
            "E17 — unified observability: one registry across scribe, warehouse,\n\
             oink, and dataflow; E1 fault plan; Oink-scheduled mover + daily jobs\n\n",
        );
        let mut t = Table::new(&[
            "workers",
            "logged",
            "moved",
            "crash-lost",
            "scanned",
            "counted",
            "sessions",
            "mover-failures",
            "snapshot-bytes",
        ]);
        for s in &m.samples {
            t.row(cells![
                s.workers,
                s.logged,
                s.moved,
                s.crash_lost,
                s.scanned,
                s.counted,
                s.sessions,
                s.oink_failures,
                s.snapshot_json.len()
            ]);
        }
        out.push_str(&t.render());
        out.push_str(&format!(
            "\nreconciled (logged == scanned + crash-lost + dropped): {}\n\
             snapshots byte-identical across worker counts: {}\n\
             duplicate registrations: {}\n\ncritical path (workers={}):\n{}",
            m.reconciled,
            m.snapshots_identical,
            if m.duplicates_clean { "none" } else { "FOUND" },
            m.samples[0].workers,
            m.samples[0].critical_path,
        ));
        out
    }

    fn gates(&self) -> Vec<(String, bool)> {
        vec![
            (
                "cross-layer totals did not reconcile".into(),
                self.reconciled,
            ),
            (
                "snapshot differs across worker counts".into(),
                self.snapshots_identical,
            ),
            (
                "duplicate metric registrations found".into(),
                self.duplicates_clean,
            ),
        ]
    }

    /// The first sample's registry snapshot, byte-identical to every other
    /// sample's whenever `snapshots_identical` holds: on a smoke run the
    /// file is the snapshot, on a full run the sweep's verdicts and samples
    /// come ahead of its members.
    fn metrics(&self, smoke: bool) -> Metrics {
        let snapshot = self.samples[0]
            .snapshot_json
            .strip_prefix("{\n  \"schema\": \"uli-obs-v1\",\n")
            .and_then(|s| s.strip_suffix("\n}\n"))
            .expect("a uli-obs-v1 export");
        let body = if smoke {
            snapshot.to_string()
        } else {
            let rows: Vec<String> = self
                .samples
                .iter()
                .map(|s| {
                    format!(
                        "    {{\"workers\": {}, \"logged\": {}, \"moved\": {}, \"crash_lost\": {}, \
                         \"scanned\": {}, \"counted\": {}, \"sessions\": {}, \"oink_failures\": {}}}",
                        s.workers,
                        s.logged,
                        s.moved,
                        s.crash_lost,
                        s.scanned,
                        s.counted,
                        s.sessions,
                        s.oink_failures
                    )
                })
                .collect();
            format!(
                "  \"reconciled\": {},\n  \"snapshots_identical\": {},\n  \
                 \"duplicates_clean\": {},\n  \"samples\": [\n{}\n  ],\n{snapshot}",
                self.reconciled,
                self.snapshots_identical,
                self.duplicates_clean,
                rows.join(",\n"),
            )
        };
        Metrics {
            experiment: (!smoke).then_some("obs"),
            schema: "uli-obs-v1",
            body,
            bench_file: "BENCH_obs.json",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_reconcile_and_are_worker_invariant() {
        let m = sweep(60, &[1, 4, 8]);
        assert!(m.reconciled, "cross-layer totals must reconcile");
        assert!(
            m.snapshots_identical,
            "metrics + span snapshot must not depend on worker count"
        );
        assert!(m.duplicates_clean, "no metric may be registered twice");
        assert!(
            m.samples.iter().all(|s| s.crash_lost > 0),
            "the hour-6 crash must lose something or the fault plan is dead"
        );
        assert!(
            m.samples.iter().all(|s| s.oink_failures > 0),
            "the staging outage must make the mover retry"
        );
        assert_eq!(
            m.samples[0].critical_path, m.samples[2].critical_path,
            "critical-path report must be identical at 1 and 8 workers"
        );
        // What a smoke run writes: the registry's export, headed by its
        // schema alone.
        let json = crate::tests::assert_smoke_run(&m);
        assert!(json.get("experiment").is_none());
        assert_eq!(
            json.get("schema").and_then(uli_core::json::Json::as_str),
            Some("uli-obs-v1")
        );
    }
}
