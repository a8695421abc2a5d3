//! Cross-crate property-based tests on the core invariants.

use proptest::prelude::*;

use unified_logging::core::session::dictionary::{char_for_rank, rank_for_char};
use unified_logging::prelude::*;
use unified_logging::thrift::ThriftRecord;

fn arb_action() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec![
        "impression",
        "click",
        "profile_click",
        "follow",
        "expand",
        "favorite",
    ])
}

fn arb_event() -> impl Strategy<Value = ClientEvent> {
    (
        0i64..20,
        0u8..4,
        arb_action(),
        0i64..86_400_000,
        prop::collection::btree_map("[a-z]{1,8}", "[a-z0-9]{0,12}", 0..4),
    )
        .prop_map(|(user, sess, action, t, details)| {
            let mut ev = ClientEvent::new(
                EventInitiator::CLIENT_USER,
                EventName::parse(&format!("web:home:home:stream:tweet:{action}")).unwrap(),
                user,
                format!("s-{user}-{sess}"),
                "10.1.2.3",
                Timestamp(t),
            );
            ev.details = details;
            ev
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Thrift round-trip holds for arbitrary client events.
    #[test]
    fn client_event_thrift_round_trips(ev in arb_event()) {
        let back = ClientEvent::from_bytes(&ev.to_bytes()).unwrap();
        prop_assert_eq!(back, ev);
    }

    /// Sessionization conservation: every event lands in exactly one
    /// session; durations are non-negative; events are time-ordered.
    #[test]
    fn sessionizer_conserves_events(events in prop::collection::vec(arb_event(), 0..300)) {
        let n = events.len();
        let sessions = Sessionizer::new().sessionize(events);
        let total: usize = sessions.iter().map(|s| s.events.len()).sum();
        prop_assert_eq!(total, n);
        for s in &sessions {
            prop_assert!(s.duration_secs >= 0);
            prop_assert!(!s.events.is_empty());
        }
    }

    /// Sessionization is insensitive to input order.
    #[test]
    fn sessionizer_is_order_insensitive(
        events in prop::collection::vec(arb_event(), 0..150),
        seed in any::<u64>(),
    ) {
        let mut shuffled = events.clone();
        // Deterministic Fisher-Yates from the seed.
        let mut state = seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let a = Sessionizer::new().sessionize(events);
        let b = Sessionizer::new().sessionize(shuffled);
        // Session sets match on (user, session_id, start, event count).
        let key = |s: &unified_logging::core::session::SessionRecord|
            (s.user_id, s.session_id.clone(), s.start, s.events.len());
        let mut ka: Vec<_> = a.iter().map(key).collect();
        let mut kb: Vec<_> = b.iter().map(key).collect();
        ka.sort();
        kb.sort();
        prop_assert_eq!(ka, kb);
    }

    /// Dictionary encode/decode is the identity on any event multiset.
    #[test]
    fn dictionary_round_trips_sequences(
        actions in prop::collection::vec((arb_action(), 1u64..1000), 1..6),
        walk in prop::collection::vec(any::<prop::sample::Index>(), 0..100),
    ) {
        let mut counts: Vec<(EventName, u64)> = actions
            .iter()
            .map(|(a, c)| {
                (EventName::parse(&format!("web:a:b:c:d:{a}")).unwrap(), *c)
            })
            .collect();
        counts.dedup_by(|a, b| a.0 == b.0);
        let dict = EventDictionary::from_counts(counts.clone());
        let names: Vec<&EventName> = walk
            .iter()
            .map(|ix| {
                let rank = ix.index(dict.len());
                dict.name_of(rank as u32).unwrap()
            })
            .collect();
        let encoded = dict.encode_sequence(names.iter().copied()).unwrap();
        let decoded = dict.decode_sequence(&encoded).unwrap();
        prop_assert_eq!(decoded.len(), names.len());
        for (d, n) in decoded.iter().zip(&names) {
            prop_assert_eq!(*d, *n);
        }
    }

    /// The rank↔char mapping is a bijection wherever defined.
    #[test]
    fn rank_char_bijection(rank in 0u32..1_000_000) {
        if let Some(c) = char_for_rank(rank) {
            prop_assert_eq!(rank_for_char(c), Some(rank));
        }
    }

    /// Frequency ordering: a more frequent event never gets a larger
    /// UTF-8 footprint than a less frequent one.
    #[test]
    fn frequent_events_never_encode_longer(counts in prop::collection::vec(1u64..10_000, 2..50)) {
        let names: Vec<(EventName, u64)> = counts
            .iter()
            .enumerate()
            .map(|(i, c)| {
                (EventName::parse(&format!("web:a:b:c:d:action{i}")).unwrap(), *c)
            })
            .collect();
        let dict = EventDictionary::from_counts(names);
        let mut prev_len = 0;
        for rank in 0..dict.len() as u32 {
            let c = char_for_rank(rank).unwrap();
            prop_assert!(c.len_utf8() >= prev_len);
            prev_len = c.len_utf8();
            let this_count = dict.count_of(rank).unwrap();
            if rank > 0 {
                prop_assert!(dict.count_of(rank - 1).unwrap() >= this_count);
            }
        }
    }

    /// The ulz compressor round-trips structured log-like data.
    #[test]
    fn warehouse_files_round_trip(records in prop::collection::vec(
        prop::collection::vec(any::<u8>(), 0..200), 0..100)) {
        let wh = Warehouse::with_block_capacity(512);
        let path = WhPath::parse("/prop/file").unwrap();
        let mut w = wh.create(&path).unwrap();
        for r in &records {
            w.append_record(r);
        }
        w.finish().unwrap();
        let back = wh.open(&path).unwrap().read_all().unwrap();
        prop_assert_eq!(back, records);
    }
}

#[test]
fn materializer_end_to_end_property_smoke() {
    // A fixed-seed version of the heavy property: materialized sequences
    // exactly partition the generated events for several seeds.
    for seed in [1u64, 42, 2012] {
        let day = generate_day(
            &WorkloadConfig {
                seed,
                users: 40,
                ..Default::default()
            },
            0,
        );
        let wh = Warehouse::new();
        write_client_events(&wh, &day.events, 3).unwrap();
        let report = Materializer::new(wh.clone()).run_day(0).unwrap();
        assert_eq!(report.events as usize, day.events.len(), "seed {seed}");
        assert_eq!(report.sessions, day.truth.sessions, "seed {seed}");
        let seqs = load_sequences(&wh, 0).unwrap();
        let total: usize = seqs.iter().map(SessionSequence::len).sum();
        assert_eq!(total, day.events.len(), "seed {seed}");
    }
}

/// Every payload a daemon logs is kept — in its `LogEntry`, in each staged
/// copy — so a buffer handed out half empty is carried half empty: over the
/// generated smoke day, `to_bytes` returns exactly the bytes `encode_into`
/// appends, in a buffer exactly that long.
#[test]
fn to_bytes_is_exact_over_the_smoke_day() {
    use unified_logging::workload::{DayStream, Scale};
    let mut appended = Vec::new();
    let mut events = 0;
    for ev in DayStream::new(&Scale::Smoke.config(), 0) {
        let bytes = ev.to_bytes();
        assert_eq!(bytes.capacity(), bytes.len(), "event {events}");
        appended.clear();
        ev.encode_into(&mut appended);
        assert_eq!(bytes, appended, "event {events}");
        events += 1;
    }
    assert!(events > 2000, "the smoke day has {events} events");
}
