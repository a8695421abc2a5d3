//! The stream fold pre-aggregates a delivered hour per event name; folding
//! the records one at a time must reach exactly the same state — for
//! undecodable payloads, logged-out users, and past the point where the
//! trending tracker's candidate set is full and starts to prune — in every
//! shard, whose merge in shard order is the hour's window, at every shard
//! and worker count.

use proptest::prelude::*;

use uli_core::{ClientEvent, EventInitiator, EventName, Timestamp};
use uli_dataflow::sketch::TOPK_CANDIDATES;
use uli_stream::{StreamAnalytics, StreamConfig, StreamState};
use uli_thrift::ThriftRecord;
use uli_warehouse::{fnv1a64_fold, HourlyPartition, Parallelism, FNV1A64_OFFSET};
use uli_workload::{DayStream, Scale};

/// A payload: mostly events over `names` distinct names (skewed toward the
/// low ones) and a few users, now and then logged out or not Thrift at all.
fn arb_payload(names: usize) -> impl Strategy<Value = Vec<u8>> {
    (0..names, 0..names, 0i64..6, 0i64..100_000, 0usize..20).prop_map(
        |(a, b, user, millis, kind)| {
            if kind == 0 {
                return format!("not thrift {a}").into_bytes();
            }
            let name = format!("web:page{}:::tweet:click", a.min(b));
            ClientEvent::new(
                EventInitiator::CLIENT_USER,
                EventName::parse(&name).unwrap(),
                user,
                format!("s{user}"),
                "10.0.0.1",
                Timestamp(millis),
            )
            .to_bytes()
        },
    )
}

/// A delivered hour over a handful of names, or over more names than the
/// trending tracker keeps candidates for.
fn arb_hour() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop_oneof![
        prop::collection::vec(arb_payload(12), 0..200).boxed(),
        prop::collection::vec(arb_payload(4 * TOPK_CANDIDATES), 1200..1800).boxed(),
    ]
}

fn one_at_a_time(payloads: &[Vec<u8>]) -> StreamState {
    let mut state = StreamState::new(3);
    payloads.iter().for_each(|p| state.observe(p));
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batch_fold_equals_record_by_record(first in arb_hour(), second in arb_hour()) {
        let mut batch = StreamState::new(3);
        batch.fold(&first);
        batch.fold(&second);
        let both = [first, second].concat();
        prop_assert_eq!(&batch, &one_at_a_time(&both));
        if both.len() > 2400 {
            let names = batch.by_name().len();
            prop_assert!(names > TOPK_CANDIDATES, "only {} names: nothing was pruned", names);
        }
    }

    #[test]
    fn every_shard_equals_record_by_record_at_any_worker_count(hour in arb_hour()) {
        for shards in [1usize, 4, 8] {
            // Shard `s` folds the `s`-th contiguous run of the delivery, and
            // the window is the shards merged in shard order from empty.
            let run = hour.len().div_ceil(shards).max(1);
            let mut expected = StreamState::new(3);
            hour.chunks(run).for_each(|run| expected.merge(&one_at_a_time(run)));
            for workers in [1usize, 4] {
                let stream = StreamAnalytics::new(StreamConfig { shards, trending_k: 3 })
                    .with_parallelism(Parallelism::fixed(workers));
                stream
                    .tap()
                    .hour_delivered(&HourlyPartition::from_hour_index("client_events", 7), &hour);
                if hour.is_empty() {
                    prop_assert!(stream.hour_view(7).is_none());
                } else {
                    prop_assert_eq!(stream.hour_view(7), Some(expected.clone()), "{} shards, {} workers", shards, workers);
                }
            }
        }
    }
}

/// The order-invariant content of a view: its counts, its per-name and
/// per-client maps and its three sketches' bytes.
fn view_digest(view: &StreamState) -> u64 {
    let mut h = FNV1A64_OFFSET;
    for v in [view.records(), view.events(), view.malformed()] {
        h = fnv1a64_fold(h, &v.to_le_bytes());
    }
    for map in [view.by_name(), view.by_client()] {
        for (key, count) in map {
            h = fnv1a64_fold(fnv1a64_fold(h, key.as_bytes()), &count.to_le_bytes());
        }
    }
    h = fnv1a64_fold(h, &view.users().to_bytes());
    h = fnv1a64_fold(h, &view.trending().to_bytes());
    fnv1a64_fold(h, &view.payload_bytes().to_bytes())
}

/// Every hour's window of `day`, then the running view, digested after
/// delivering it hour by hour to `shards` shards folded by `workers`.
fn views_digest(day: &[Vec<Vec<u8>>], shards: usize, workers: usize) -> (u64, u64) {
    let stream = StreamAnalytics::new(StreamConfig {
        shards,
        trending_k: 5,
    })
    .with_parallelism(Parallelism::fixed(workers));
    for (hour, payloads) in day.iter().enumerate() {
        let partition = HourlyPartition::from_hour_index("client_events", hour as u64);
        stream.tap().hour_delivered(&partition, payloads);
    }
    let mut windows = FNV1A64_OFFSET;
    for hour in stream.hours() {
        let window = stream.hour_view(hour).expect("a delivered hour");
        windows = fnv1a64_fold(windows, &view_digest(&window).to_le_bytes());
    }
    (windows, view_digest(&stream.running_view()))
}

/// A delivered day: each hour's payloads, hour by hour.
type Day = Vec<Vec<Vec<u8>>>;

/// The smoke day.
fn smoke_day() -> Day {
    let mut day = vec![Vec::new(); 24];
    for ev in DayStream::new(&Scale::Smoke.config(), 0) {
        day[ev.timestamp.hour_index() as usize].push(ev.to_bytes());
    }
    day
}

/// Six hours of 1,500 records over four times as many names as the
/// trending tracker keeps candidates for, so that its merges prune.
fn wide_day() -> Day {
    let mut state = 0x5eed_u64;
    let mut next = move || {
        // splitmix64: a fixed sequence, whatever the rand crate does.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let names = 4 * TOPK_CANDIDATES as u64;
    (0..6)
        .map(|_| {
            (0..1500)
                .map(|i| {
                    let (a, b) = (next() % names, next() % names);
                    if i % 97 == 0 {
                        return format!("not thrift {a}").into_bytes();
                    }
                    let user = (next() % 6) as i64;
                    ClientEvent::new(
                        EventInitiator::CLIENT_USER,
                        EventName::parse(&format!("web:page{}:::tweet:click", a.min(b))).unwrap(),
                        user,
                        format!("s{user}"),
                        "10.0.0.1",
                        Timestamp((next() % 100_000) as i64),
                    )
                    .to_bytes()
                })
                .collect()
        })
        .collect()
}

/// What the windows and the running view of two days digest to at every
/// shard and worker count: the smoke day, whose names all fit the trending
/// tracker, and a day with more names than it keeps, where the order of its
/// merges shows. `(shards, windows, running)`.
///
/// Every window, and both views of the smoke day, stand as first recorded.
/// The wide day's running views at 4 and 8 shards were recorded again when a
/// window became one state: the running view merges whole windows, each
/// already pruned to the tracker's candidate capacity, where it once merged
/// every shard of every hour in turn. Past that capacity the prune makes the
/// grouping of merges show (at 1 shard a window is its shard, so nothing
/// moved).
#[test]
fn views_are_pinned_at_every_shard_and_worker_count() {
    let pinned = [
        (
            "smoke",
            smoke_day(),
            [
                (1, 5889694417403510191, 3514970355766486979),
                (4, 5889694417403510191, 3514970355766486979),
                (8, 5889694417403510191, 3514970355766486979),
            ],
        ),
        (
            "wide",
            wide_day(),
            [
                (1, 3373189874340595411, 10482248489076616420),
                (4, 15637806638942353029, 3319587860314463026),
                (8, 4802065422736700830, 16558287777760979505),
            ],
        ),
    ];
    for (label, day, expected) in pinned {
        for (shards, windows, running) in expected {
            for workers in [1, 4] {
                let got = views_digest(&day, shards, workers);
                assert_eq!(
                    got,
                    (windows, running),
                    "{label} day, {shards} shards, {workers} workers"
                );
            }
        }
    }
}
