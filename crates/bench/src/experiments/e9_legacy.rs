//! E9 — §3.1: application-specific logging vs unified client events.
//!
//! The same ground-truth day is logged both ways: once as unified client
//! events and once across three legacy categories (nested JSON with
//! `userId` and second-resolution timestamps, TSV with no session id,
//! "natural language" lines). The experiment measures what the legacy mess
//! costs in query complexity and sessionization accuracy — the pain that
//! motivated unification.

use std::sync::Arc;

use uli_core::client_event::{ClientEventLoader, CLIENT_EVENT_SCHEMA};
use uli_core::legacy::{
    approximate_sessions, LegacyCategory, LegacyEvent, LegacyLoader, LEGACY_SCHEMA,
};
use uli_core::session::day_dir;
use uli_core::time::SESSION_GAP_MS;
use uli_dataflow::prelude::*;
use uli_warehouse::Warehouse;
use uli_workload::{generate_day, write_legacy_events, write_paper_raw_log, WorkloadConfig};

use crate::cells;
use crate::harness::{timed, Table};

/// Runs the experiment.
pub fn run() -> String {
    let config = WorkloadConfig {
        users: 400,
        ..Default::default()
    };
    let day = generate_day(&config, 0);
    let wh = Warehouse::new();
    write_paper_raw_log(&wh, &day.events, 4).expect("fresh warehouse");
    write_legacy_events(&wh, &day.events, 4).expect("fresh warehouse");

    let engine = Engine::new(wh.clone());
    let mut out = String::from(
        "E9 — legacy application-specific logging vs unified client events (§3.1)\n\
         identical ground truth logged both ways.\n\n",
    );

    // --- Unified path: one category, one group-by. ---
    let unified_plan = Plan::load(
        day_dir("client_events", 0),
        Arc::new(ClientEventLoader),
        CLIENT_EVENT_SCHEMA.to_vec(),
    )
    .foreach(vec![
        ("user_id", Expr::col(2)),
        ("session_id", Expr::col(3)),
    ])
    .group_by(vec![0, 1]);
    let (unified, unified_ms) = timed(|| engine.run(&unified_plan).expect("runs"));
    let unified_sessions = unified.rows.len() as u64;

    // --- Legacy path: three categories, three formats, union, then a
    //     group-by on the only shared key (user id). ---
    let legacy_plan = {
        let mut loads = LegacyCategory::ALL.iter().map(|cat| {
            Plan::load(
                day_dir(cat.category_name(), 0),
                Arc::new(LegacyLoader::new(*cat)),
                LEGACY_SCHEMA.to_vec(),
            )
        });
        let first = loads.next().expect("three categories");
        first.union(loads.collect()).group_by(vec![0])
    };
    let (legacy, legacy_ms) = timed(|| engine.run(&legacy_plan).expect("runs"));

    let mut t = Table::new(&[
        "path",
        "categories",
        "formats parsed",
        "mappers",
        "shuffle KB",
        "wall ms",
    ]);
    t.row(cells![
        "unified",
        1,
        "thrift only",
        unified.stats.map_tasks,
        unified.stats.shuffle_bytes / 1024,
        format!("{unified_ms:.1}")
    ]);
    t.row(cells![
        "legacy",
        3,
        "json+tsv+natural",
        legacy.stats.map_tasks,
        legacy.stats.shuffle_bytes / 1024,
        format!("{legacy_ms:.1}")
    ]);
    out.push_str(&t.render());

    // --- Accuracy: sessionization. ---
    // Unified reconstructs sessions exactly (consistent ids everywhere).
    assert_eq!(unified_sessions, day.truth.sessions);
    // Legacy: search logs have no session id, so the best cross-category
    // strategy is user+gap approximation; frontend timestamps also lost
    // millisecond order.
    let mut legacy_events: Vec<LegacyEvent> = Vec::new();
    for cat in LegacyCategory::ALL {
        let dir = day_dir(cat.category_name(), 0);
        for file in wh.list_files_recursive(&dir).expect("written above") {
            let mut reader = wh.open(&file).expect("file exists");
            while let Some(record) = reader.next_record().expect("clean read") {
                if let Some(ev) = cat.decode(record) {
                    legacy_events.push(ev);
                }
            }
        }
    }
    assert_eq!(
        legacy_events.len(),
        day.events.len(),
        "no events lost in parsing"
    );
    let approx = approximate_sessions(legacy_events, SESSION_GAP_MS);
    let approx_sessions = approx.len() as u64;
    let err =
        (approx_sessions as f64 - day.truth.sessions as f64).abs() / day.truth.sessions as f64;

    out.push_str(&format!(
        "\nsessionization accuracy (truth: {} sessions):\n\
           unified  : {} sessions — exact (group-by on shared user/session ids)\n\
           legacy   : {} sessions — {:.1}% error (no session id in '{}';\n\
                      concurrent sessions of one user merge under the\n\
                      user+inactivity-gap approximation)\n",
        day.truth.sessions,
        unified_sessions,
        approx_sessions,
        err * 100.0,
        LegacyCategory::SearchBackend.category_name(),
    ));
    assert!(
        approx_sessions < day.truth.sessions,
        "the approximation must merge concurrent sessions"
    );
    assert!(err > 0.01, "the error must be visible");

    out.push_str(
        "\nresource discovery: the legacy data lives in categories named\n\
         'rainbird', 'quail_feed', 'm5_events' — nothing says which holds\n\
         search events (§3.1's discovery problem); unified logs live in one\n\
         place: /logs/client_events.\n",
    );
    out
}
