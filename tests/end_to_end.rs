//! End-to-end integration: workload → Scribe → log mover → Oink daily jobs
//! → session sequences → analytics, checked against generator ground truth.

use std::sync::Arc;

use unified_logging::core::{for_each_event_row, ClientEventLanding};
use unified_logging::oink::scheduler::JobStatus;
use unified_logging::prelude::*;
use unified_logging::scribe::message::LogEntry;
use unified_logging::thrift::ThriftRecord;
use unified_logging::warehouse::ScanFile;

fn workload() -> unified_logging::workload::DayWorkload {
    generate_day(
        &WorkloadConfig {
            users: 120,
            ..Default::default()
        },
        0,
    )
}

/// Pushes a day through the delivery pipeline hour by hour, landing it
/// columnar.
fn deliver(day: &unified_logging::workload::DayWorkload) -> ScribePipeline {
    let config = PipelineConfig {
        datacenters: 2,
        hosts_per_dc: 4,
        aggregators_per_dc: 2,
        records_per_file: 10_000,
        ..Default::default()
    };
    let mut pipe = ScribePipeline::new(config);
    pipe.set_columnar_landing(Arc::new(ClientEventLanding::default()));
    for hour in 0..24u64 {
        for (i, ev) in day
            .events
            .iter()
            .filter(|e| e.timestamp.hour_index() == hour)
            .enumerate()
        {
            pipe.log(
                (ev.user_id as usize) % 2,
                i % 4,
                LogEntry::new("client_events", ev.to_bytes()),
            );
        }
        pipe.step();
        pipe.flush_hour(hour);
        pipe.seal_hour("client_events", hour);
        pipe.move_hour("client_events", hour)
            .expect("all DCs sealed");
    }
    pipe
}

#[test]
fn scribe_delivery_preserves_every_event() {
    let day = workload();
    let pipe = deliver(&day);
    let totals = pipe.report();
    assert_eq!(totals.logged as usize, day.events.len());
    assert_eq!(totals.moved, totals.logged);
    assert_eq!(totals.lost_in_crashes, 0);

    // The main warehouse holds exactly the day's records, every one an
    // event.
    let wh = pipe.main_warehouse();
    let (mut events, mut skipped) = (0, 0);
    let day_dir = unified_logging::core::session::day_dir("client_events", 0);
    for path in wh.list_files_recursive(&day_dir).expect("day dir exists") {
        let file = ScanFile::open(wh, &path).expect("a landed file opens");
        let (e, s) = for_each_event_row(&file, 0..file.units(), [false; 7], |_, _| Ok(()))
            .expect("a landed file reads");
        (events, skipped) = (events + e, skipped + s);
    }
    assert_eq!((events as usize, skipped), (day.events.len(), 0));
}

#[test]
fn oink_pipeline_materializes_and_analytics_agree_with_truth() {
    let day = workload();
    let pipe = deliver(&day);
    let wh = pipe.main_warehouse().clone();

    // Daily jobs under Oink: roll-ups, then sequences.
    let mut oink = Oink::new();
    let wh1 = wh.clone();
    oink.add_daily("rollups", &[], move |d| {
        compute_rollups(&wh1, d)
            .map(|_| ())
            .map_err(|e| e.to_string())
    });
    let wh2 = wh.clone();
    oink.add_daily("sequences", &["rollups"], move |d| {
        Materializer::new(wh2.clone())
            .run_day(d)
            .map(|_| ())
            .map_err(|e| e.to_string())
    });
    oink.advance_hour(23);
    assert_eq!(oink.status("rollups", 0), JobStatus::Completed);
    assert_eq!(oink.status("sequences", 0), JobStatus::Completed);

    // Sessions reconstructed from delivered logs match the generator.
    let sequences = load_sequences(&wh, 0).expect("materialized");
    assert_eq!(sequences.len() as u64, day.truth.sessions);
    let events_total: u64 = sequences.iter().map(|s| s.len() as u64).sum();
    assert_eq!(events_total, day.truth.events);

    // BirdBrain drill-down by client matches the generator's client mix.
    let dict = Materializer::new(wh.clone()).load_dictionary(0).unwrap();
    let summary = DailySummary::compute(0, &sequences, &dict);
    for (client, sessions) in &day.truth.sessions_by_client {
        assert_eq!(
            summary.by_client.get(client),
            Some(sessions),
            "client {client}"
        );
    }

    // Funnel counts over sequences equal planted truth.
    let funnel = ClientEventsFunnel::new(signup_funnel().stages, &dict);
    let report = funnel.evaluate(sequences.iter().map(|s| s.sequence.as_str()));
    assert_eq!(report.reached, day.truth.funnel_stage_counts);
}

#[test]
fn rollups_are_consistent_with_event_totals() {
    let day = workload();
    let wh = Warehouse::new();
    write_client_events(&wh, &day.events, 4).unwrap();
    let table = compute_rollups(&wh, 0).unwrap();

    // Level-5 totals sum to the number of events.
    let level5_total: u64 = table
        .iter()
        .filter(|(k, _)| k.level == 5)
        .map(|(_, v)| v)
        .sum();
    assert_eq!(level5_total as usize, day.events.len());
    // Every level carries the same grand total (each event counted once
    // per schema).
    for level in 1..=5usize {
        let total: u64 = table
            .iter()
            .filter(|(k, _)| k.level == level)
            .map(|(_, v)| v)
            .sum();
        assert_eq!(total, level5_total, "level {level}");
    }
}

#[test]
fn catalog_covers_every_observed_event() {
    let day = workload();
    let wh = Warehouse::new();
    write_client_events(&wh, &day.events, 4).unwrap();
    let m = Materializer::new(wh.clone());
    m.run_day(0).unwrap();
    let dict = m.load_dictionary(0).unwrap();
    let samples = m.load_samples(0).unwrap();
    let catalog = ClientEventCatalog::build(0, &dict, &samples);
    assert_eq!(catalog.len() as u64, day.truth.distinct_events);
    // Every catalog entry for a frequent event carries samples.
    let top = catalog.by_frequency();
    assert!(!top[0].samples.is_empty());
    // Hierarchical browse totals equal the event count.
    let total: u64 = catalog.browse(&[]).iter().map(|(_, c)| c).sum();
    assert_eq!(total as usize, day.events.len());
}
