//! The lambda invariant suite: streaming == batch over the delivered
//! partition.
//!
//! The speed layer ([`uli_stream::StreamAnalytics`]) taps the mover's
//! exactly-once delivery point and folds every delivered record into
//! sharded monoid state. The batch layer scans the same landed warehouse
//! hours and computes exact answers. The lambda invariant says the two
//! must agree:
//!
//! * **exactly** for exact aggregates (record/event/malformed counts,
//!   per-name and per-client rollups), and
//! * **within declared error bounds** for the sketches (HyperLogLog
//!   distinct users, Count-Min/TopK trending names, log-linear payload
//!   percentiles),
//!
//! no matter how many workers (shards) the speed layer runs, how records
//! were routed, in what order partials merge, and under arbitrary seeded
//! crash/retry/duplicate chaos schedules. Every test here carries its
//! seed or its shard count in the assertion message, so any failure
//! reproduces deterministically.
//!
//! The day lands columnar, as the system lands it. A columnar file keeps
//! no payload bytes, so the exact payload sizes the percentile sketch is
//! checked against are what the delivery handed its taps, recorded by a
//! [`PayloadSizes`] tap beside the speed layer.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uli_core::ClientEventLanding;
use uli_scribe::message::LogEntry;
use uli_scribe::network::LinkFaults;
use uli_scribe::{run_chaos_prepared, ChaosConfig, FaultConfig, PipelineConfig, ScribePipeline};
use uli_stream::{
    batch_reference, check_convergence, BatchSummary, PayloadSizes, StreamAnalytics, StreamConfig,
    StreamState,
};
use uli_thrift::{CompactWriter, ThriftRecord};
use uli_warehouse::{HourlyPartition, Parallelism, ScanFile};
use uli_workload::{generate_day, DayStream, WorkloadConfig};

const CATEGORY: &str = "client_events";

fn smoke_config(users: u64) -> WorkloadConfig {
    WorkloadConfig {
        users,
        ..WorkloadConfig::default()
    }
}

/// Drives one day of client events through the Scribe pipeline, landing
/// columnar, with a speed-layer tap and a [`PayloadSizes`] tap attached,
/// hour by hour (the end-to-end idiom), and returns the pipeline plus both
/// taps' handles.
fn deliver_tapped(
    events: &[uli_core::ClientEvent],
    stream_cfg: StreamConfig,
) -> (ScribePipeline, StreamAnalytics, PayloadSizes) {
    let config = PipelineConfig {
        datacenters: 2,
        hosts_per_dc: 4,
        aggregators_per_dc: 2,
        records_per_file: 10_000,
        ..Default::default()
    };
    let mut pipe = ScribePipeline::new(config);
    pipe.set_columnar_landing(Arc::new(ClientEventLanding::default()));
    let analytics = StreamAnalytics::new(stream_cfg);
    let sizes = PayloadSizes::default();
    pipe.add_delivery_tap(analytics.tap());
    pipe.add_delivery_tap(Box::new(sizes.clone()));
    for hour in 0..24u64 {
        for (i, ev) in events
            .iter()
            .filter(|e| e.timestamp.hour_index() == hour)
            .enumerate()
        {
            pipe.log(
                (ev.user_id as usize) % 2,
                i % 4,
                LogEntry::new(CATEGORY, ev.to_bytes()),
            );
        }
        pipe.step();
        pipe.flush_hour(hour);
        pipe.seal_hour(CATEGORY, hour);
        pipe.move_hour(CATEGORY, hour).expect("all DCs sealed");
    }
    (pipe, analytics, sizes)
}

/// The core invariant: for each worker (shard) count in {1, 4, 8}, the
/// streaming running view over a delivered day equals the batch answer
/// scanned back out of the main warehouse — exactly for exact aggregates,
/// within bounds for sketches — and the views at different shard counts
/// are byte-identical to each other.
#[test]
fn streaming_equals_batch_under_worker_counts() {
    let day = generate_day(&smoke_config(120), 0);
    let mut views: Vec<StreamState> = Vec::new();
    for shards in [1usize, 4, 8] {
        let (pipe, analytics, sizes) = deliver_tapped(
            &day.events,
            StreamConfig {
                shards,
                trending_k: 5,
            },
        );
        let batch = batch_reference(pipe.main_warehouse(), CATEGORY, 0..24).expect("batch scan");
        assert_eq!(
            batch.records as usize,
            day.events.len(),
            "shards {shards}: batch layer must see the whole day"
        );
        let stream = analytics.running_view();
        let c = check_convergence(&stream, &batch, &sizes.all());
        assert!(
            c.streaming_matches_batch,
            "shards {shards}: lambda invariant failed: {c:?}"
        );
        assert_eq!(stream.malformed(), 0, "shards {shards}");

        // Windowed views re-fold to the running view, and each window
        // matches a batch scan of just that hour.
        let mut refold = StreamState::new(5);
        for hour in analytics.hours() {
            let window = analytics.hour_view(hour).expect("hour listed");
            let mut hour_batch = BatchSummary::default();
            uli_stream::scan_hour(pipe.main_warehouse(), CATEGORY, hour, &mut hour_batch)
                .expect("hour scan");
            let hc = check_convergence(&window, &hour_batch, &sizes.hour(hour));
            assert!(
                hc.streaming_matches_batch,
                "shards {shards} hour {hour}: window diverged: {hc:?}"
            );
            refold.merge(&window);
        }
        assert_eq!(
            refold, stream,
            "shards {shards}: running != fold of windows"
        );
        views.push(stream);
    }
    assert_eq!(views[0], views[1], "1-shard and 4-shard views diverged");
    assert_eq!(views[1], views[2], "4-shard and 8-shard views diverged");
}

/// Random shard counts and random merge orderings: take every delivered
/// hour's window, merge them in a seeded-random order (and separately via
/// a random binary merge tree), and the result must equal both the running
/// view and the batch answer. This is the monoid contract at system level.
#[test]
fn random_shard_counts_and_merge_orders_converge() {
    let day = generate_day(&smoke_config(80), 0);
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0x1a3b_da00 + seed);
        let shards = rng.gen_range(1usize..=12);
        let (pipe, analytics, sizes) = deliver_tapped(
            &day.events,
            StreamConfig {
                shards,
                trending_k: 5,
            },
        );
        let batch = batch_reference(pipe.main_warehouse(), CATEGORY, 0..24).expect("batch scan");
        let reference = analytics.running_view();

        // Every delivered hour's window.
        let mut partials: Vec<StreamState> = analytics
            .hours()
            .into_iter()
            .map(|h| analytics.hour_view(h).expect("a delivered hour"))
            .collect();

        // Fisher–Yates shuffle, then a left fold in that order.
        for i in (1..partials.len()).rev() {
            partials.swap(i, rng.gen_range(0usize..=i));
        }
        let mut folded = StreamState::new(5);
        for p in &partials {
            folded.merge(p);
        }
        assert_eq!(
            folded, reference,
            "seed {seed} shards {shards}: shuffled fold diverged from running view"
        );

        // Random binary merge tree: repeatedly merge two random partials
        // until one remains — a different association every time.
        let mut pool = partials.clone();
        while pool.len() > 1 {
            let i = rng.gen_range(0usize..pool.len());
            let a = pool.swap_remove(i);
            let j = rng.gen_range(0usize..pool.len());
            let mut b = pool.swap_remove(j);
            b.merge(&a);
            pool.push(b);
        }
        let treed = pool.pop().unwrap_or_else(|| StreamState::new(5));
        assert_eq!(
            treed, reference,
            "seed {seed} shards {shards}: random merge tree diverged"
        );

        let c = check_convergence(&reference, &batch, &sizes.all());
        assert!(
            c.streaming_matches_batch,
            "seed {seed} shards {shards}: lambda invariant failed: {c:?}"
        );
    }
}

/// Chaos reconciliation: under seeded crash/expiry/outage/link-fault
/// schedules, the streaming layer must observe exactly the records the
/// audited run delivered — `check_invariants`' `delivered` partition — and
/// nothing from the lost or dropped partitions. Sixteen seeds, as E21's
/// full run swept before the sweep moved here.
#[test]
fn chaos_streaming_totals_match_delivered_partition() {
    let cfg = ChaosConfig::default();
    for seed in 0..16u64 {
        let analytics = StreamAnalytics::new(StreamConfig::default());
        let o = run_chaos_prepared(seed, &cfg, |p| p.add_delivery_tap(analytics.tap()));
        assert!(
            o.is_clean(),
            "seed {seed}: chaos run itself violated delivery invariants: {:?}",
            o.accounting.violations
        );
        let stream = analytics.running_view();
        assert_eq!(
            stream.records(),
            o.accounting.delivered,
            "seed {seed}: streaming must converge to the delivered partition \
             (logged {} buffered {} lost {} dropped {})",
            o.accounting.logged,
            o.accounting.buffered,
            o.accounting.lost,
            o.accounting.dropped,
        );
        // Chaos payloads are synthetic strings, not Thrift events: every
        // delivered record must be counted as malformed, never dropped.
        assert_eq!(stream.malformed(), stream.records(), "seed {seed}");
        assert_eq!(stream.events(), 0, "seed {seed}");
        // The windowed views partition the running total.
        let windowed: u64 = analytics
            .hours()
            .into_iter()
            .map(|h| analytics.hour_view(h).expect("listed hour").records())
            .sum();
        assert_eq!(windowed, stream.records(), "seed {seed}");
    }
}

/// No double-count under duplicate delivery: a hostile link layer floods
/// the mover with duplicates and retries; the tap sits *after* duplicate
/// squashing, so streaming totals must still equal the delivered partition
/// exactly. The sweep must actually squash duplicates to prove anything.
#[test]
fn chaos_duplicates_never_double_count_in_streaming_views() {
    let cfg = ChaosConfig {
        faults: FaultConfig {
            crash_rate: 0.03,
            link: LinkFaults {
                drop_rate: 0.08,
                ack_loss_rate: 0.08,
                duplicate_rate: 0.06,
                delay_rate: 0.15,
                max_delay_steps: 4,
            },
            ..FaultConfig::default()
        },
        ..ChaosConfig::default()
    };
    let mut dup_merges = 0u64;
    for seed in 7000..7008u64 {
        let analytics = StreamAnalytics::new(StreamConfig::default());
        let o = run_chaos_prepared(seed, &cfg, |p| p.add_delivery_tap(analytics.tap()));
        assert!(o.is_clean(), "seed {seed}: {:?}", o.accounting.violations);
        dup_merges += o.report.duplicates_merged;
        assert_eq!(
            analytics.running_view().records(),
            o.accounting.delivered,
            "seed {seed}: duplicate delivery leaked into streaming totals"
        );
    }
    assert!(
        dup_merges > 0,
        "sweep never squashed a duplicate: the no-double-count claim is vacuous"
    );
}

/// DayStream edge cases, byte-identical to batch generation:
/// * the streamed generator drives the speed layer to the exact state the
///   batch-materialized day does;
/// * hours with no traffic produce no streaming window and no batch rows;
/// * a day whose *last* hour is empty still moves, converges, and leaves
///   hour 23 windowless.
#[test]
fn daystream_edge_cases_match_batch_byte_for_byte() {
    let config = smoke_config(40);
    let day = generate_day(&config, 0);

    // Streamed generation vs batch generation: same delivered state.
    let streamed: Vec<uli_core::ClientEvent> = DayStream::new(&config, 0).collect();
    assert_eq!(streamed, day.events, "generator streams diverged");
    let (_, from_stream, _) = deliver_tapped(&streamed, StreamConfig::default());
    let (pipe, from_batch, sizes) = deliver_tapped(&day.events, StreamConfig::default());
    assert_eq!(
        from_stream.running_view(),
        from_batch.running_view(),
        "DayStream delivery and batch delivery must produce identical streaming state"
    );

    // Empty hour partitions: no window, no batch rows, and the invariant
    // holds over the full 24-hour span regardless.
    let mut occupied = [false; 24];
    for ev in &day.events {
        occupied[ev.timestamp.hour_index() as usize] = true;
    }
    assert!(
        occupied.iter().any(|o| !o),
        "a 40-user day should leave at least one hour empty; regenerate the config"
    );
    for hour in 0..24u64 {
        if occupied[hour as usize] {
            continue;
        }
        assert!(
            from_batch.hour_view(hour).is_none(),
            "hour {hour}: empty hour grew a streaming window"
        );
        let mut empty = BatchSummary::default();
        uli_stream::scan_hour(pipe.main_warehouse(), CATEGORY, hour, &mut empty).expect("scan");
        assert_eq!(empty.records, 0, "hour {hour}: empty hour has batch rows");
    }
    let batch = batch_reference(pipe.main_warehouse(), CATEGORY, 0..24).expect("batch scan");
    let c = check_convergence(&from_batch.running_view(), &batch, &sizes.all());
    assert!(c.streaming_matches_batch, "{c:?}");

    // Day whose last hour is empty: drop hour-23 traffic explicitly.
    let truncated: Vec<uli_core::ClientEvent> = day
        .events
        .iter()
        .filter(|e| e.timestamp.hour_index() != 23)
        .cloned()
        .collect();
    let (tpipe, tstream, tsizes) = deliver_tapped(&truncated, StreamConfig::default());
    assert!(
        tstream.hour_view(23).is_none(),
        "empty last hour grew a window"
    );
    let tbatch = batch_reference(tpipe.main_warehouse(), CATEGORY, 0..24).expect("batch scan");
    assert_eq!(tbatch.records as usize, truncated.len());
    let tc = check_convergence(&tstream.running_view(), &tbatch, &tsizes.all());
    assert!(tc.streaming_matches_batch, "truncated day: {tc:?}");
}

/// A generated event's payload as a writer that got it nearly right sends
/// it: `name` in place of its name, `details` in place of its details
/// (pairs of raw bytes, written as they come), field 5 left out unless
/// `with_ip`.
fn near_miss(
    ev: &uli_core::ClientEvent,
    name: &[u8],
    details: &[(&[u8], &[u8])],
    with_ip: bool,
) -> Vec<u8> {
    let mut pairs = Vec::new();
    for (key, value) in details {
        for text in [key, value] {
            uli_thrift::varint::write_u64(&mut pairs, text.len() as u64);
            pairs.extend_from_slice(text);
        }
    }
    let mut w = CompactWriter::new();
    w.struct_begin();
    w.field_i8(1, ev.initiator.code());
    w.field_binary(2, name);
    w.field_i64(3, ev.user_id);
    w.field_string(4, &ev.session_id);
    if with_ip {
        w.field_string(5, &ev.ip);
    }
    w.field_i64(6, ev.timestamp.millis());
    w.field_string_map_encoded(7, details.len(), &pairs);
    w.struct_end();
    w.into_bytes()
}

/// Files of `dir` that the mover landed columnar, and its `-rows` siblings
/// — the payloads the landing rejected — as (rows, records).
fn landed_rows_and_rejects(
    wh: &uli_warehouse::Warehouse,
    dir: &uli_warehouse::WhPath,
) -> (u64, u64) {
    let (mut rows, mut rejects) = (0, 0);
    for path in wh.list_files_recursive(dir).expect("the hour landed") {
        match ScanFile::open(wh, &path).expect("a landed file opens") {
            ScanFile::Columnar(file) => {
                assert!(!path.as_str().ends_with("-rows"), "{path:?}");
                for group in 0..file.group_count() {
                    rows += file
                        .read_group(group, &[false; 7])
                        .expect("a group reads")
                        .rows() as u64;
                }
            }
            ScanFile::Row(blocks) => {
                assert!(path.as_str().ends_with("-rows"), "{path:?}");
                for block in 0..blocks.block_count() {
                    blocks
                        .for_each_record(block, |_| rejects += 1)
                        .expect("a block reads");
                }
            }
        }
    }
    (rows, rejects)
}

/// The stream fold and the columnar landing walk each delivered payload
/// with the same reader, so they must tell the same payloads apart: an hour
/// of generated events with near misses slipped in — a name that is not six
/// levels, a detail that is not UTF-8, a missing field, a field id carried
/// past `i16::MAX`, and, accepted by both, a 200-byte detail value — folds
/// to as many events as landed rows, and to as many malformed records as
/// the `-rows` siblings hold, at every worker count; and the batch side,
/// reading that mixed hour back, converges with the stream.
#[test]
fn the_stream_and_the_landing_reject_the_same_payloads() {
    let day = generate_day(&smoke_config(120), 0);
    let hour = (0..24u64)
        .max_by_key(|h| {
            day.events
                .iter()
                .filter(|e| e.timestamp.hour_index() == *h)
                .count()
        })
        .expect("a day has hours");
    let events: Vec<&uli_core::ClientEvent> = day
        .events
        .iter()
        .filter(|e| e.timestamp.hour_index() == hour)
        .collect();
    assert!(
        events.len() > 100,
        "hour {hour} carries {} events",
        events.len()
    );
    let name = |ev: &uli_core::ClientEvent| ev.name.as_str().as_bytes().to_vec();
    let long_value = vec![b'v'; 200];
    let near_misses: Vec<(Vec<u8>, bool)> = vec![
        (near_miss(events[0], b"web:home:Click", &[], true), false),
        (
            near_miss(events[1], &name(events[1]), &[(b"lang", b"e\xffn")], true),
            false,
        ),
        (
            near_miss(events[2], &name(events[2]), &[(b"k", &long_value)], true),
            true,
        ),
        (near_miss(events[3], &name(events[3]), &[], false), false),
        (vec![0x06, 0xfe, 0xff, 0x03, 0x02, 0x16, 0x02, 0x00], false),
    ];
    let mut payloads: Vec<Vec<u8>> = events.iter().map(|ev| ev.to_bytes()).collect();
    for (i, (payload, _)) in near_misses.iter().enumerate() {
        payloads.insert(i * payloads.len() / near_misses.len(), payload.clone());
    }
    let accepted = events.len() as u64 + near_misses.iter().filter(|(_, ok)| *ok).count() as u64;
    let rejected = payloads.len() as u64 - accepted;
    for workers in [1usize, 4] {
        let workers = Parallelism::fixed(workers);
        let mut pipe = ScribePipeline::new(PipelineConfig {
            datacenters: 2,
            hosts_per_dc: 4,
            aggregators_per_dc: 2,
            records_per_file: 10_000,
            workers,
            ..Default::default()
        });
        pipe.set_columnar_landing(Arc::new(ClientEventLanding::default()));
        let analytics = StreamAnalytics::new(StreamConfig::default()).with_parallelism(workers);
        let sizes = PayloadSizes::default();
        pipe.add_delivery_tap(analytics.tap());
        pipe.add_delivery_tap(Box::new(sizes.clone()));
        for (i, payload) in payloads.iter().enumerate() {
            pipe.log(i % 2, i % 4, LogEntry::new(CATEGORY, payload.clone()));
        }
        pipe.step();
        pipe.flush_hour(hour);
        pipe.seal_hour(CATEGORY, hour);
        pipe.move_hour(CATEGORY, hour).expect("all DCs sealed");

        let view = analytics.hour_view(hour).expect("the hour delivered");
        let dir = HourlyPartition::from_hour_index(CATEGORY, hour).main_dir();
        let (rows, rejects) = landed_rows_and_rejects(pipe.main_warehouse(), &dir);
        assert_eq!(
            (view.events(), view.malformed()),
            (rows, rejects),
            "{workers:?}"
        );
        assert_eq!((rows, rejects), (accepted, rejected), "{workers:?}");
        assert_eq!(view.records(), payloads.len() as u64, "{workers:?}");
        let batch = batch_reference(pipe.main_warehouse(), CATEGORY, 0..24).expect("batch scan");
        let c = check_convergence(&view, &batch, &sizes.hour(hour));
        assert!(c.streaming_matches_batch, "{workers:?}: {c:?}");
        assert_eq!(
            (batch.events, batch.malformed),
            (rows, rejects),
            "{workers:?}"
        );
    }
}

/// Single-user smoke: the smallest day the generator will make. Exercises
/// the degenerate HLL (linear-counting regime, one or zero distinct users)
/// and a trending list shorter than k.
#[test]
fn single_user_day_converges() {
    let day = generate_day(&smoke_config(1), 0);
    let (pipe, analytics, sizes) = deliver_tapped(&day.events, StreamConfig::default());
    let batch = batch_reference(pipe.main_warehouse(), CATEGORY, 0..24).expect("batch scan");
    assert_eq!(batch.records as usize, day.events.len());
    let stream = analytics.running_view();
    let c = check_convergence(&stream, &batch, &sizes.all());
    assert!(c.streaming_matches_batch, "{c:?}");
    assert!(
        batch.distinct_users.len() <= 1,
        "one user (possibly logged out) can contribute at most one id"
    );
    assert_eq!(
        stream.distinct_users_estimate(),
        batch.distinct_users.len() as u64,
        "tiny cardinalities sit in the HLL's exact linear-counting regime"
    );
}

/// BirdBrain-style drill-down: the speed layer's per-client rollup equals
/// the exact per-client event counts from the warehouse, and the trending
/// names are genuinely the most frequent names in the batch truth.
#[test]
fn per_client_rollup_and_trending_names_match_batch_truth() {
    let day = generate_day(&smoke_config(120), 0);
    let (pipe, analytics, _) = deliver_tapped(&day.events, StreamConfig::default());
    let batch = batch_reference(pipe.main_warehouse(), CATEGORY, 0..24).expect("batch scan");
    let stream = analytics.running_view();

    assert_eq!(stream.by_client(), &batch.by_client);
    let client_total: u64 = stream.by_client().values().sum();
    assert_eq!(
        client_total,
        stream.events(),
        "rollup must cover every event"
    );

    // Every reported trending name must estimate within the Count-Min
    // bound of its true count, and the top-1 must be a true mode.
    let bound = stream.trending().cms().error_bound();
    let true_max = batch.by_name.values().copied().max().unwrap_or(0);
    let top = stream.trending().top();
    assert!(!top.is_empty());
    for (name, est) in &top {
        let name = std::str::from_utf8(name).expect("names are utf-8");
        let truth = batch.by_name.get(name).copied().unwrap_or(0);
        assert!(
            *est >= truth && *est <= truth + bound,
            "{name}: estimate {est} outside [{truth}, {}]",
            truth + bound
        );
    }
    let (top_name, _) = &top[0];
    let top_truth = batch
        .by_name
        .get(std::str::from_utf8(top_name).unwrap())
        .copied()
        .unwrap_or(0);
    assert!(
        top_truth + bound >= true_max,
        "top-1 trending name is not within a CM bound of the true mode"
    );
}
