//! E5 — §4.1/§5.2: query cost, raw client event logs vs session sequences.
//!
//! Paper claim: "queries over session sequences are substantially faster
//! than queries over the raw client event logs, both in terms of lower
//! latency and higher throughput", because the raw path pays "large
//! amounts of brute force scans and data shuffling".

use std::sync::Arc;

use uli_analytics::CountClientEvents;
use uli_core::client_event::{ClientEventLoader, CLIENT_EVENT_SCHEMA};
use uli_core::event::EventPattern;
use uli_core::session::{
    day_dir, sequences_dir, EventDictionary, SessionSequenceLoader, SESSION_SEQUENCE_SCHEMA,
};
use uli_dataflow::prelude::*;
use uli_warehouse::Warehouse;

use crate::cells;
use crate::harness::{prepare_day, standard_config, Table};

/// Counting query over the raw logs: load → filter by name → count.
pub fn raw_count_plan(dict: &EventDictionary, pattern: &EventPattern) -> Plan {
    let matching: Vec<String> = dict
        .iter()
        .filter(|(_, n, _)| pattern.matches(n))
        .map(|(_, n, _)| n.as_str().to_string())
        .collect();
    let mut predicate = Expr::lit(false);
    for name in &matching {
        predicate = predicate.or(Expr::col(1).eq(Expr::lit(name.as_str())));
    }
    Plan::load(
        day_dir("client_events", 0),
        Arc::new(ClientEventLoader),
        CLIENT_EVENT_SCHEMA.to_vec(),
    )
    .filter(predicate)
    .aggregate(vec![Agg::count()])
}

/// The same query over sequences via `CountClientEvents`.
pub fn sequence_count_plan(dict: &EventDictionary, pattern: &EventPattern) -> Plan {
    let udf = CountClientEvents::new(pattern, dict);
    Plan::load(
        sequences_dir(0),
        Arc::new(SessionSequenceLoader),
        SESSION_SEQUENCE_SCHEMA.to_vec(),
    )
    .foreach(vec![("n", Expr::udf(udf, vec![Expr::col(3)]))])
    .aggregate(vec![Agg::sum(0).named("total")])
}

/// The session-reconstruction job the sequences eliminate: group raw events
/// by (user, session) — "a large group-by across potentially terabytes".
pub fn raw_sessionize_plan() -> Plan {
    Plan::load(
        day_dir("client_events", 0),
        Arc::new(ClientEventLoader),
        CLIENT_EVENT_SCHEMA.to_vec(),
    )
    .foreach(vec![
        ("user_id", Expr::col(2)),
        ("session_id", Expr::col(3)),
        ("name", Expr::col(1)),
        ("timestamp", Expr::col(5)),
    ])
    .group_by(vec![0, 1])
}

/// Runs the experiment.
pub fn run() -> String {
    let prepared = prepare_day(&standard_config(), 0);
    let wh: &Warehouse = &prepared.warehouse;
    let dict = uli_core::session::Materializer::new(wh.clone())
        .load_dictionary(0)
        .expect("dictionary persisted");
    let engine = Engine::new(wh.clone());

    let mut out =
        String::from("E5 — event counting: raw logs vs session sequences (§4.1, §5.2)\n\n");
    let mut t = Table::new(&[
        "pattern",
        "path",
        "answer",
        "mappers",
        "KB scanned",
        "shuffle KB",
        "est. cluster s",
    ]);
    for pattern in ["*:impression", "*:profile_click", "web:search:*"] {
        let p = EventPattern::parse(pattern).expect("valid");
        let raw_plan = raw_count_plan(&dict, &p);
        let raw = engine.run(&raw_plan).expect("runs");
        let seq = engine.run(&sequence_count_plan(&dict, &p)).expect("runs");
        assert_eq!(raw.rows[0][0], seq.rows[0][0], "answers agree: {pattern}");
        for (label, r) in [("raw", &raw), ("sequences", &seq)] {
            t.row(cells![
                pattern,
                label,
                r.rows[0][0],
                r.stats.map_tasks,
                format!("{:.1}", r.stats.input_bytes_uncompressed as f64 / 1024.0),
                r.stats.shuffle_bytes / 1024,
                format!("{:.2}", r.estimated_cluster_ms / 1000.0)
            ]);
        }
        assert!(
            seq.stats.input_bytes_uncompressed * 5 < raw.stats.input_bytes_uncompressed,
            "sequences must scan far less"
        );
    }
    out.push_str(&t.render());

    // The group-by the sequences pre-materialize.
    let group = engine.run(&raw_sessionize_plan()).expect("runs");
    out.push_str(&format!(
        "\nsession reconstruction over raw logs (the job sequences replace):\n\
         {} sessions rebuilt; {} mappers, {} KB shuffled,\n\
         {:.2} s estimated cluster time — paid by EVERY session-level query\n\
         before unification; amortized once by materialization after.\n",
        group.rows.len(),
        group.stats.map_tasks,
        group.stats.shuffle_bytes / 1024,
        group.estimated_cluster_ms / 1000.0,
    ));
    assert_eq!(group.rows.len() as u64, prepared.report.sessions);
    out
}
