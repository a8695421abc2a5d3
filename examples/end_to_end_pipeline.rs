//! The full Figure-1 path with faults injected.
//!
//! Drives the Scribe pipeline — daemons on production hosts in three
//! datacenters, aggregators discovered through the coordination service,
//! staging clusters, the log mover's atomic hourly slide — while crashing
//! an aggregator and taking a staging cluster down, then lets the Oink
//! workflow manager run the daily jobs (roll-ups, dictionary, session
//! sequences) once all hours have landed.
//!
//! Run with: `cargo run --example end_to_end_pipeline`

use std::sync::Arc;

use uli_thrift::ThriftRecord;
use unified_logging::core::ClientEventLanding;
use unified_logging::oink::scheduler::JobStatus;
use unified_logging::prelude::*;
use unified_logging::scribe::message::LogEntry as Entry;

fn main() {
    let config = PipelineConfig {
        datacenters: 3,
        hosts_per_dc: 8,
        aggregators_per_dc: 2,
        records_per_file: 5_000,
        ..Default::default()
    };
    let mut pipe = ScribePipeline::new(config);
    pipe.set_columnar_landing(Arc::new(ClientEventLanding::default()));

    // Synthetic traffic for the first two hours of day 0.
    let day = generate_day(
        &WorkloadConfig {
            users: 150,
            ..Default::default()
        },
        0,
    );
    println!("workload: {} events across the day", day.events.len());

    // Route each event to a host by user id, hour by hour.
    for hour in 0..24u64 {
        for (i, ev) in day
            .events
            .iter()
            .filter(|e| e.timestamp.hour_index() == hour)
            .enumerate()
        {
            let dc = (ev.user_id as usize) % config.datacenters;
            let host = i % config.hosts_per_dc;
            pipe.log(dc, host, Entry::new("client_events", ev.to_bytes()));
        }
        pipe.step();

        // Inject faults mid-morning.
        if hour == 9 {
            let lost = pipe.crash_aggregator(0, 0);
            println!("hour 09: crashed dc0/agg0 — {lost} unflushed entries lost");
            pipe.spawn_aggregator(0, 0);
            pipe.step();
        }
        if hour == 14 {
            println!("hour 14: staging outage in dc1 (aggregators buffer locally)");
            pipe.set_staging_available(1, false);
        }
        if hour == 16 {
            println!("hour 16: dc1 staging recovered");
            pipe.set_staging_available(1, true);
        }

        pipe.flush_hour(hour);
        pipe.seal_hour("client_events", hour);
        match pipe.move_hour("client_events", hour) {
            Ok(report) => {
                if report.records > 0 {
                    println!(
                        "hour {hour:02}: moved {} records ({} small files -> {} big)",
                        report.records, report.input_files, report.output_files
                    );
                }
            }
            Err(e) => println!("hour {hour:02}: mover deferred ({e})"),
        }
    }
    // Retry any hours deferred by the outage, now that staging is back.
    pipe.flush_hour(23);
    for hour in 0..24u64 {
        pipe.seal_hour("client_events", hour);
        if let Ok(report) = pipe.move_hour("client_events", hour) {
            println!("retry hour {hour:02}: moved {} records", report.records);
        }
    }

    let totals = pipe.report();
    println!("\npipeline accounting: {totals:?}");
    assert_eq!(
        totals.moved + totals.lost_in_crashes,
        totals.logged,
        "every entry is moved or accounted as crash loss"
    );

    // Downstream: Oink runs the daily jobs against the main warehouse.
    let wh = pipe.main_warehouse().clone();
    let mut oink = Oink::new();
    let wh1 = wh.clone();
    oink.add_daily("rollups", &[], move |day| {
        compute_rollups(&wh1, day)
            .map(|_| ())
            .map_err(|e| e.to_string())
    });
    let wh2 = wh.clone();
    oink.add_daily("session_sequences", &[], move |day| {
        Materializer::new(wh2.clone())
            .run_day(day)
            .map(|_| ())
            .map_err(|e| e.to_string())
    });
    oink.advance_hour(23);
    assert_eq!(oink.status("session_sequences", 0), JobStatus::Completed);
    println!("\noink traces:");
    for t in oink.traces() {
        println!("  {} period {} -> {:?}", t.job, t.period, t.status);
    }

    // And the dashboard sees the day.
    let dict = Materializer::new(wh.clone()).load_dictionary(0).unwrap();
    let seqs = load_sequences(&wh, 0).unwrap();
    let summary = DailySummary::compute(0, &seqs, &dict);
    println!("\nBirdBrain:\n{}", summary.render());
}
