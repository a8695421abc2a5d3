//! The stream fold pre-aggregates a delivered hour per event name; folding
//! the records one at a time must reach exactly the same state — for
//! undecodable payloads, logged-out users, and past the point where the
//! trending tracker's candidate set is full and starts to prune — in every
//! shard, at every shard and worker count.

use proptest::prelude::*;

use uli_core::{ClientEvent, EventInitiator, EventName, Timestamp};
use uli_dataflow::sketch::TOPK_CANDIDATES;
use uli_stream::{StreamAnalytics, StreamConfig, StreamState};
use uli_thrift::ThriftRecord;
use uli_warehouse::{HourlyPartition, Parallelism};

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
            // Shard `s` folds the `s`-th contiguous run of the delivery.
            let run = hour.len().div_ceil(shards).max(1);
            let mut expected: Vec<StreamState> = hour.chunks(run).map(one_at_a_time).collect();
            expected.resize(shards, StreamState::new(3));
            for workers in [1usize, 4] {
                let stream = StreamAnalytics::new(StreamConfig { shards, trending_k: 3 })
                    .with_parallelism(Parallelism::fixed(workers));
                stream
                    .tap()
                    .hour_delivered(&HourlyPartition::from_hour_index("client_events", 7), &hour);
                if hour.is_empty() {
                    prop_assert!(stream.shard_states(7).is_empty());
                } else {
                    prop_assert_eq!(&stream.shard_states(7), &expected, "{} shards, {} workers", shards, workers);
                }
            }
        }
    }
}
