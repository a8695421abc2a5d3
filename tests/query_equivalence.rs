//! Queries over raw client event logs and over session sequences must give
//! identical answers — the sequences are an *optimization*, not a different
//! dataset (§4.2, §5.2). Also checks index pushdown never changes results.

use std::sync::Arc;

use unified_logging::core::session::{day_dir, sequences_dir};
use unified_logging::prelude::*;

struct Fixture {
    wh: Warehouse,
    dict: EventDictionary,
    truth: unified_logging::workload::GroundTruth,
    events: Vec<ClientEvent>,
}

fn fixture() -> Fixture {
    let day = generate_day(
        &WorkloadConfig {
            users: 150,
            ..Default::default()
        },
        0,
    );
    let wh = Warehouse::new();
    write_client_events(&wh, &day.events, 4).unwrap();
    let m = Materializer::new(wh.clone());
    m.run_day(0).unwrap();
    let dict = m.load_dictionary(0).unwrap();
    Fixture {
        wh,
        dict,
        truth: day.truth,
        events: day.events,
    }
}

/// The raw-log count, stated once as a FILTER; `pruner` only adds evidence.
fn count_raw(
    f: &Fixture,
    pattern: &EventPattern,
    pruner: Option<Arc<dyn BlockPruner>>,
) -> (i64, JobStats) {
    let matching: Vec<String> = f
        .dict
        .iter()
        .filter(|(_, n, _)| pattern.matches(n))
        .map(|(_, n, _)| n.as_str().to_string())
        .collect();
    let mut predicate = Expr::lit(false);
    for name in &matching {
        predicate = predicate.or(Expr::col(1).eq(Expr::lit(name.as_str())));
    }
    let mut plan = Plan::load(
        day_dir("client_events", 0),
        Arc::new(ClientEventLoader),
        CLIENT_EVENT_SCHEMA.to_vec(),
    );
    if let Some(pruner) = pruner {
        plan = plan.with_pruner(pruner);
    }
    let plan = plan.filter(predicate).aggregate(vec![Agg::count()]);
    let r = Engine::new(f.wh.clone()).run(&plan).unwrap();
    (r.rows[0][0].as_int().unwrap(), r.stats)
}

fn count_sequences(f: &Fixture, pattern: &EventPattern) -> (i64, JobStats) {
    let udf = CountClientEvents::new(pattern, &f.dict);
    let plan = Plan::load(
        sequences_dir(0),
        Arc::new(SessionSequenceLoader),
        SESSION_SEQUENCE_SCHEMA.to_vec(),
    )
    .foreach(vec![("n", Expr::udf(udf, vec![Expr::col(3)]))])
    .aggregate(vec![Agg::sum(0).named("total")]);
    let r = Engine::new(f.wh.clone()).run(&plan).unwrap();
    (r.rows[0][0].as_int().unwrap(), r.stats)
}

#[test]
fn raw_and_sequence_counts_agree_across_patterns() {
    let f = fixture();
    for pattern in [
        "*:profile_click",
        "*:impression",
        "web:home:mentions:*",
        "iphone:*:*:*:*:click",
        "*:follow",
        "web:search:*",
    ] {
        let p = EventPattern::parse(pattern).unwrap();
        let (raw, raw_stats) = count_raw(&f, &p, None);
        let (seq, seq_stats) = count_sequences(&f, &p);
        assert_eq!(raw, seq, "pattern {pattern}");
        // Ground truth cross-check against the generator's event list.
        let truth = f.events.iter().filter(|e| p.matches(&e.name)).count() as i64;
        assert_eq!(raw, truth, "pattern {pattern} vs truth");
        // The paper's claim: sequences scan dramatically less.
        assert!(
            seq_stats.input_bytes_uncompressed * 5 < raw_stats.input_bytes_uncompressed,
            "pattern {pattern}: {} vs {}",
            seq_stats.input_bytes_uncompressed,
            raw_stats.input_bytes_uncompressed
        );
        assert!(seq_stats.map_tasks <= raw_stats.map_tasks);
    }
}

#[test]
fn sessions_containing_variant_agrees() {
    let f = fixture();
    let p = EventPattern::parse("*:profile_click").unwrap();
    let charset = EventCharSet::expand(&p, &f.dict);
    let seqs = load_sequences(&f.wh, 0).unwrap();
    let via_sequences = seqs
        .iter()
        .filter(|s| charset.occurs_in(&s.sequence))
        .count() as u64;

    // Truth: distinct (user, session) pairs containing a matching event.
    let mut keys: Vec<(i64, &str)> = f
        .events
        .iter()
        .filter(|e| p.matches(&e.name))
        .map(|e| (e.user_id, e.session_id.as_str()))
        .collect();
    keys.sort();
    keys.dedup();
    assert_eq!(via_sequences as usize, keys.len());
    assert!(via_sequences <= f.truth.sessions);
}

#[test]
fn index_pushdown_preserves_results_and_skips_blocks() {
    let f = fixture();
    // The serving layer's hour indexes, rebuilt from the landed log, are
    // the alongside-the-data index.
    let maintainer = IndexMaintainer::new(f.wh.clone(), "client_events");
    assert!(maintainer.recover().unwrap() > 0);

    // A selective pattern: funnel submits only occur in a few sessions.
    let p = EventPattern::parse("web:signup:*").unwrap();
    let (unindexed, unindexed_stats) = count_raw(&f, &p, None);
    let (indexed, stats) = count_raw(&f, &p, Some(maintainer.handle().pruner()));

    assert_eq!(indexed, unindexed, "index must not change the answer");
    assert!(indexed > 0, "the workload plants funnel events");
    assert!(stats.blocks_skipped > 0, "selective query must skip blocks");
    assert!(stats.input_blocks < unindexed_stats.input_blocks);
}

#[test]
fn dictionary_decode_recovers_exact_sessions() {
    let f = fixture();
    let seqs = load_sequences(&f.wh, 0).unwrap();
    // Reconstruct ground-truth per-session event name lists.
    use std::collections::BTreeMap;
    let mut truth: BTreeMap<(i64, String), Vec<&ClientEvent>> = BTreeMap::new();
    for ev in &f.events {
        truth
            .entry((ev.user_id, ev.session_id.clone()))
            .or_default()
            .push(ev);
    }
    for seq in seqs.iter().take(50) {
        let decoded = f
            .dict
            .decode_sequence(&seq.sequence)
            .expect("dictionary covers the day");
        let mut expected = truth
            .remove(&(seq.user_id, seq.session_id.clone()))
            .expect("session exists in truth");
        expected.sort_by_key(|e| e.timestamp);
        assert_eq!(decoded.len(), expected.len());
        for (d, e) in decoded.iter().zip(&expected) {
            assert_eq!(**d, e.name);
        }
    }
}
