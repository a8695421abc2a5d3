//! Integration-level fault injection: the pipeline's delivery guarantees
//! under aggregator crashes, staging outages, and lagging datacenters (§2),
//! and the staging tier's lifecycle: a moved hour leaves staging, a refused
//! move leaves it where it was.

use unified_logging::prelude::*;
use unified_logging::scribe::message::LogEntry;
use unified_logging::scribe::mover::MoveError;
use unified_logging::scribe::{check_invariants, DeliveryTap};
use unified_logging::warehouse::HourlyPartition;

fn config() -> PipelineConfig {
    PipelineConfig {
        datacenters: 2,
        hosts_per_dc: 4,
        aggregators_per_dc: 2,
        records_per_file: 1_000,
        ..Default::default()
    }
}

fn log_batch(pipe: &mut ScribePipeline, n_per_host: usize, tag: &str) -> u64 {
    let mut total = 0;
    for dc in 0..2 {
        for host in 0..4 {
            for i in 0..n_per_host {
                pipe.log(
                    dc,
                    host,
                    LogEntry::new(
                        "client_events",
                        format!("{tag}-{dc}-{host}-{i}").into_bytes(),
                    ),
                );
                total += 1;
            }
        }
    }
    total
}

#[test]
fn repeated_crashes_never_lose_flushed_data() {
    let mut pipe = ScribePipeline::new(config());
    let mut logged = 0;
    let mut crash_lost = 0;
    for round in 0..6 {
        logged += log_batch(&mut pipe, 10, &format!("r{round}"));
        pipe.step();
        if round % 2 == 0 {
            // Crash one aggregator per even round, then replace it.
            crash_lost += pipe.crash_aggregator(round % 2, 0);
            pipe.spawn_aggregator(round % 2, 0);
            pipe.step();
        }
        pipe.flush_hour(0);
    }
    pipe.step();
    pipe.flush_hour(0);
    pipe.seal_hour("client_events", 0);
    let moved = pipe.move_hour("client_events", 0).unwrap().records;
    let report = pipe.report();
    assert_eq!(report.lost_in_crashes, crash_lost);
    assert_eq!(
        moved + crash_lost,
        logged,
        "moved + crash-lost must equal logged"
    );
    // Loss is bounded by what was unflushed at crash time; with flushes
    // every round, that is at most two rounds of one DC's traffic.
    assert!(crash_lost <= 2 * 40, "loss {crash_lost} out of bounds");
}

#[test]
fn total_aggregator_loss_buffers_at_hosts_until_replacement() {
    let mut pipe = ScribePipeline::new(config());
    // Kill every aggregator in dc0 before anything is logged.
    pipe.crash_aggregator(0, 0);
    pipe.crash_aggregator(0, 1);
    let logged = log_batch(&mut pipe, 5, "a");
    pipe.step();
    let mid = pipe.report();
    assert!(
        mid.host_buffered > 0,
        "dc0 hosts must hold data while no aggregator lives"
    );
    // Replacement arrives; everything drains.
    pipe.spawn_aggregator(0, 0);
    pipe.step();
    pipe.flush_hour(0);
    pipe.seal_hour("client_events", 0);
    let moved = pipe.move_hour("client_events", 0).unwrap().records;
    assert_eq!(moved, logged);
    assert_eq!(pipe.report().host_buffered, 0);
}

#[test]
fn staging_outage_defers_but_never_duplicates() {
    let mut pipe = ScribePipeline::new(config());
    let logged = log_batch(&mut pipe, 8, "a");
    pipe.step();
    pipe.set_staging_available(0, false);
    pipe.flush_hour(0); // dc0 buffers to "local disk"
    pipe.flush_hour(0); // repeated flush attempts must not duplicate
    pipe.set_staging_available(0, true);
    pipe.flush_hour(0);
    pipe.flush_hour(0); // idempotent once drained
    pipe.seal_hour("client_events", 0);
    let moved = pipe.move_hour("client_events", 0).unwrap().records;
    assert_eq!(moved, logged, "no loss and no duplication through outage");
}

#[test]
fn mover_is_exactly_once_per_hour() {
    let mut pipe = ScribePipeline::new(config());
    log_batch(&mut pipe, 5, "a");
    pipe.step();
    pipe.flush_hour(0);
    pipe.seal_hour("client_events", 0);
    pipe.move_hour("client_events", 0).unwrap();
    // A second move of the same hour is rejected, not duplicated.
    assert!(pipe.move_hour("client_events", 0).is_err());
    let meta = pipe
        .main_warehouse()
        .dir_meta(&unified_logging::core::session::day_dir("client_events", 0))
        .unwrap();
    assert_eq!(meta.records, pipe.report().logged);
}

#[test]
fn warehouse_checksums_catch_corruption() {
    // Not a scribe test, but the recovery story depends on it: a corrupt
    // block surfaces as an error, never as silent garbage.
    use unified_logging::warehouse::WarehouseError;
    let wh = Warehouse::with_block_capacity(128);
    let path = WhPath::parse("/f").unwrap();
    let mut w = wh.create(&path).unwrap();
    for i in 0..100 {
        w.append_record(format!("record-{i}").as_bytes());
    }
    w.finish().unwrap();
    // Reading with a tampered checksum is simulated via the corrupt-stream
    // guards in the compressor; here we verify a clean read passes its
    // checksums end to end.
    let records = wh.open(&path).unwrap().read_all();
    assert!(records.is_ok());
    assert!(!matches!(
        records,
        Err(WarehouseError::ChecksumMismatch { .. })
    ));
}

/// Files of hour 0 on each datacenter's staging cluster, done marker
/// included.
fn staged_files(pipe: &ScribePipeline) -> Vec<usize> {
    let dir = HourlyPartition::from_hour_index("client_events", 0).main_dir();
    (0..pipe.datacenter_count())
        .map(|dc| {
            let staging = pipe.staging_warehouse(dc);
            staging.list_files_recursive(&dir).map_or(0, |f| f.len())
        })
        .collect()
}

/// Logs a batch and stages and seals it as hour 0; returns what was logged.
fn staged_hour(pipe: &mut ScribePipeline) -> u64 {
    let logged = log_batch(pipe, 6, "a");
    pipe.step();
    pipe.flush_hour(0);
    pipe.seal_hour("client_events", 0);
    assert!(
        staged_files(pipe).iter().all(|&files| files > 1),
        "every staging cluster holds data files and a done marker"
    );
    logged
}

/// The delivery audit holds and counts every logged id as delivered.
fn assert_delivered_exactly_once(pipe: &ScribePipeline, logged: u64) {
    let audit = check_invariants(pipe);
    assert!(audit.violations.is_empty(), "{:?}", audit.violations);
    assert_eq!((audit.logged, audit.delivered), (logged, logged));
}

#[test]
fn a_moved_hour_leaves_nothing_on_staging() {
    let mut pipe = ScribePipeline::new(config());
    let logged = staged_hour(&mut pipe);
    assert_eq!(pipe.move_hour("client_events", 0).unwrap().records, logged);
    assert_eq!(staged_files(&pipe), vec![0, 0]);
    for dc in 0..pipe.datacenter_count() {
        let cache = pipe.staging_warehouse(dc).cache_stats();
        assert_eq!(
            (cache.bytes, cache.entries),
            (0, 0),
            "dc{dc} cached a staged block"
        );
    }
    assert_delivered_exactly_once(&pipe, logged);
}

#[test]
fn a_move_refused_under_a_main_outage_keeps_every_staged_file() {
    let mut pipe = ScribePipeline::new(config());
    let logged = staged_hour(&mut pipe);
    let staged = staged_files(&pipe);
    pipe.set_main_available(false);
    assert!(pipe.move_hour("client_events", 0).is_err());
    assert_eq!(
        staged_files(&pipe),
        staged,
        "a refused move deletes nothing"
    );
    pipe.set_main_available(true);
    assert_eq!(pipe.move_hour("client_events", 0).unwrap().records, logged);
    assert_eq!(staged_files(&pipe), vec![0, 0]);
    assert_delivered_exactly_once(&pipe, logged);
}

/// Takes every staging cluster down as an hour is delivered: after the
/// commit, before the mover cleans staging up.
struct StagingOutage(Vec<Warehouse>);

impl DeliveryTap for StagingOutage {
    fn hour_delivered(&mut self, _partition: &HourlyPartition, _payloads: &[Vec<u8>]) {
        for staging in &self.0 {
            staging.set_available(false);
        }
    }
}

#[test]
fn a_staging_outage_during_cleanup_keeps_the_files_of_a_delivered_hour() {
    let mut pipe = ScribePipeline::new(config());
    let staging: Vec<Warehouse> = (0..pipe.datacenter_count())
        .map(|dc| pipe.staging_warehouse(dc).clone())
        .collect();
    pipe.add_delivery_tap(Box::new(StagingOutage(staging.clone())));
    let logged = staged_hour(&mut pipe);
    let staged = staged_files(&pipe);
    assert_eq!(pipe.move_hour("client_events", 0).unwrap().records, logged);
    for cluster in &staging {
        cluster.set_available(true);
    }
    assert_eq!(staged_files(&pipe), staged, "the outage kept the files");
    assert_eq!(
        pipe.move_hour("client_events", 0).unwrap_err(),
        MoveError::AlreadyMoved
    );
    assert_delivered_exactly_once(&pipe, logged);
}
