//! Quickstart: one day of logs, end to end.
//!
//! Generates a synthetic day of client events, lands them in the warehouse
//! as the log mover does — the paper's hourly layout, columnar part files —
//! materializes session sequences (§4), and answers the paper's running
//! example query — "how many profile clicks?" — both over the raw logs and
//! over the sequences, showing what each costs. The paper's gap was measured
//! against a row-format raw log, where the count decodes every record whole;
//! over the columnar landing it reads the name column alone, so the bytes
//! gap closes and what is left is the mapper count.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use unified_logging::prelude::*;

fn main() {
    // 1. A synthetic day with known ground truth.
    let config = WorkloadConfig {
        users: 300,
        ..Default::default()
    };
    let day = generate_day(&config, 0);
    println!(
        "generated day 0: {} events, {} sessions, {} distinct event types",
        day.truth.events, day.truth.sessions, day.truth.distinct_events
    );

    // 2. Land the logs in the warehouse: /logs/client_events/YYYY/MM/DD/HH.
    let wh = Warehouse::new();
    write_client_events(&wh, &day.events, 4).expect("warehouse is empty and available");

    // 3. Materialize session sequences (histogram pass + encode pass).
    let materializer = Materializer::new(wh.clone());
    let report = materializer.run_day(0).expect("day 0 exists");
    println!(
        "materialized {} sessions; raw {} KB -> sequences {} KB ({:.0}x smaller)",
        report.sessions,
        report.raw_compressed_bytes / 1024,
        report.sequences_compressed_bytes / 1024,
        report.compression_factor()
    );

    // 4. The paper's counting query over the *raw* client event logs:
    //    load → filter by name → count (every row group's name column).
    let dict = materializer.load_dictionary(0).expect("pass 1 wrote it");
    let pattern = EventPattern::parse("*:profile_click").expect("valid pattern");
    let engine = Engine::new(wh.clone());

    let raw_dir = unified_logging::core::session::day_dir("client_events", 0);
    let matching: Vec<String> = dict
        .iter()
        .filter(|(_, n, _)| pattern.matches(n))
        .map(|(_, n, _)| n.as_str().to_string())
        .collect();
    let mut predicate = Expr::lit(false);
    for name in &matching {
        predicate = predicate.or(Expr::col(1).eq(Expr::lit(name.as_str())));
    }
    let raw_plan = Plan::load(
        raw_dir,
        Arc::new(ClientEventLoader),
        CLIENT_EVENT_SCHEMA.to_vec(),
    )
    .filter(predicate)
    .aggregate(vec![Agg::count()]);
    let raw = engine.run(&raw_plan).expect("raw scan");

    // 5. The same query over session sequences: the CountClientEvents UDF.
    let udf = CountClientEvents::new(&pattern, &dict);
    let seq_plan = Plan::load(
        unified_logging::core::session::sequences_dir(0),
        Arc::new(SessionSequenceLoader),
        SESSION_SEQUENCE_SCHEMA.to_vec(),
    )
    .foreach(vec![("n", Expr::udf(udf, vec![Expr::col(3)]))])
    .aggregate(vec![Agg::sum(0).named("total")]);
    let seq = engine.run(&seq_plan).expect("sequence scan");

    println!("\nprofile clicks, raw logs        : {}", raw.rows[0][0]);
    println!("profile clicks, session sequences: {}", seq.rows[0][0]);
    assert_eq!(raw.rows[0][0], seq.rows[0][0], "both paths must agree");

    println!(
        "\ncost: raw scan {} mappers / {} KB uncompressed; sequences {} mappers / {} KB",
        raw.stats.map_tasks,
        raw.stats.input_bytes_uncompressed / 1024,
        seq.stats.map_tasks,
        seq.stats.input_bytes_uncompressed / 1024
    );
    println!(
        "estimated cluster time: raw {:.1}s vs sequences {:.1}s",
        raw.estimated_cluster_ms / 1000.0,
        seq.estimated_cluster_ms / 1000.0
    );
}
