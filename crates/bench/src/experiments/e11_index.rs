//! E11 — §6: Elephant Twin index-assisted selective scans.
//!
//! "Indexes are important for query performance … our approach … integrates
//! with Hadoop at the level of InputFormats … indexes reside alongside the
//! data … re-indexing large amounts of data is feasible."
//!
//! The index is the serving layer's per-hour postings (`uli-serve`) over the
//! default columnar landing, so the unit it prunes is the row group.

use std::collections::BTreeSet;
use std::sync::Arc;

use uli_core::client_event::{ClientEventLoader, CLIENT_EVENTS_CATEGORY, CLIENT_EVENT_SCHEMA};
use uli_core::event::EventPattern;
use uli_core::session::day_dir;
use uli_dataflow::prelude::*;
use uli_serve::IndexMaintainer;
use uli_warehouse::{Warehouse, WhPath};
use uli_workload::{generate_day, write_client_events};

use crate::cells;
use crate::harness::{standard_config, timed, Table};

/// Runs the experiment.
pub fn run() -> String {
    let day = generate_day(&standard_config(), 0);
    let wh = Warehouse::new();
    write_client_events(&wh, &day.events, 4).expect("fresh warehouse");
    let data_dir = day_dir(CLIENT_EVENTS_CATEGORY, 0);
    let files = wh.list_files_recursive(&data_dir).expect("day landed");

    // Build: a maintainer that finds landed hours with no index rebuilds
    // them from the log. Drop-and-rebuild is that same path from scratch;
    // it writes under `/index/serve` only, never a data file.
    let first = IndexMaintainer::new(wh.clone(), CLIENT_EVENTS_CATEGORY);
    let (hours, build_ms) = timed(|| first.recover().expect("data present"));
    wh.delete_dir(&WhPath::parse("/index/serve").expect("valid path"))
        .expect("index committed");
    let maintainer = IndexMaintainer::new(wh.clone(), CLIENT_EVENTS_CATEGORY);
    let (rebuilt, rebuild_ms) = timed(|| maintainer.recover().expect("rebuild from scratch"));
    assert_eq!(rebuilt, hours, "every dropped hour is rebuilt");
    for hour in first.indexed_hours() {
        assert_eq!(maintainer.hour_index(hour), first.hour_index(hour));
    }
    let pruner = maintainer.handle().pruner();

    let mut out = format!(
        "E11 — Elephant Twin index pushdown (§6)\n\
         index over {} files in {hours} hours built in {build_ms:.0} ms; \
         drop-and-rebuild {rebuild_ms:.0} ms\n\
         (rebuild never rewrites data files — the anti-Trojan-layout design).\n\n",
        files.len()
    );

    let mut t = Table::new(&[
        "pattern",
        "selectivity",
        "path",
        "answer",
        "mappers",
        "groups read",
        "groups skipped",
        "wall ms",
    ]);
    let names: BTreeSet<_> = day.events.iter().map(|e| &e.name).collect();
    let engine = Engine::new(wh.clone());
    let mut index_skipped_more = false;
    // Patterns from broad to highly selective (funnel events are rare).
    for pattern in ["*:impression", "*:follow", "web:signup:*"] {
        let p = EventPattern::parse(pattern).expect("valid");
        let matching = names.iter().filter(|n| p.matches(n));
        let predicate = matching.fold(Expr::lit(false), |acc, name| {
            acc.or(Expr::col(1).eq(Expr::lit(name.as_str())))
        });
        // The query is stated once, as the FILTER; the indexed arm differs
        // only in having the serve pruner attached to its LOAD.
        let load = || {
            Plan::load(
                data_dir.clone(),
                Arc::new(ClientEventLoader),
                CLIENT_EVENT_SCHEMA.to_vec(),
            )
        };
        let query = |load: Plan| load.filter(predicate.clone()).aggregate(vec![Agg::count()]);
        let (full, full_ms) = timed(|| engine.run(&query(load())).expect("runs"));
        let indexed = query(load().with_pruner(Arc::clone(&pruner)));
        let (pruned, pruned_ms) = timed(|| engine.run(&indexed).expect("runs"));
        assert_eq!(
            full.rows[0][0], pruned.rows[0][0],
            "answers agree: {pattern}"
        );

        let selectivity = full.rows[0][0].as_int().unwrap_or(0) as f64 / day.events.len() as f64;
        for (label, r, ms) in [
            ("full scan", &full, full_ms),
            ("indexed", &pruned, pruned_ms),
        ] {
            t.row(cells![
                pattern,
                format!("{:.2}%", selectivity * 100.0),
                label,
                r.rows[0][0],
                r.stats.map_tasks,
                r.stats.input_blocks,
                r.stats.blocks_skipped,
                format!("{ms:.1}")
            ]);
        }
        // "full scan" still checks in-file zone maps; postings only add.
        assert!(pruned.stats.blocks_skipped >= full.stats.blocks_skipped);
        index_skipped_more |= pruned.stats.blocks_skipped > full.stats.blocks_skipped;
        if pattern != "*:impression" {
            assert!(
                pruned.stats.blocks_skipped > 0,
                "selective patterns must skip row groups: {pattern}"
            );
            assert!(pruned.stats.map_tasks <= full.stats.map_tasks);
        }
    }
    assert!(index_skipped_more, "postings must beat zone maps somewhere");
    out.push_str(&t.render());
    out.push_str(
        "\nshape check: the more selective the pattern, the more row groups the\n\
         index skips; broad patterns degrade gracefully to a full scan.\n",
    );
    out
}
