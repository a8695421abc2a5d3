//! E22 — the serving layer: point lookups off the incremental index vs
//! the batch engine.
//!
//! The paper's stack answers every question with a MapReduce-style scan;
//! §6 names the missing piece — a low-latency serving tier over the same
//! warehouse, kept fresh as hours land (Twitter's Elephant Twin lineage).
//! `uli-serve` supplies it; this experiment bills what it saves. A day is
//! delivered with the columnar landing and an [`IndexMaintainer`] tap, and
//! a deterministic point-lookup suite (users present and absent, names
//! hitting and missing the dictionary, busy/quiet/missing hours) runs once
//! on each side: each class's decoded bytes, and the suite's cost-model
//! milliseconds. That the answers match batch and the bill drops at least
//! 50× is `tests/serve_equivalence.rs`'s to hold. What a lookup takes in
//! wall-clock is the benchmark's `lookup_rps` and `user_events_p50_us`.

use std::collections::BTreeMap;
use std::sync::Arc;

use uli_core::client_event::CLIENT_EVENTS_CATEGORY as CAT;
use uli_core::ClientEventLanding;
use uli_dataflow::CostModel;
use uli_scribe::ScribePipeline;
use uli_serve::{
    batch_count, batch_sessions, batch_top_names, batch_user_events, IndexMaintainer, LookupStats,
    ServeHandle,
};
use uli_warehouse::Warehouse;
use uli_workload::{DayStream, Scale, WorkloadConfig};

use crate::harness::{deliver_day, object, quoted, topology, Body};
use crate::Outcome;

/// Rows per sealed row group in the columnar landing. Small groups keep
/// postings fine-grained, which is what makes point-lookup pruning sharp.
pub const ROWS_PER_GROUP: usize = 8;

/// The lookup classes, in report order; each lookup's bill adds to its
/// class's lookups, serve decoded bytes, groups read, groups pruned and
/// batch decoded bytes.
const CLASSES: [&str; 4] = ["sessions", "user-events", "count", "top-names"];

/// One point lookup of the suite.
enum Lookup {
    /// `sessions <user>` over day 0.
    Sessions(i64),
    /// `user-events <user> <hour>`.
    UserEvents(i64, u64),
    /// `count <name>` over the hours.
    Count(String, Vec<u64>),
    /// `top-names <hour> <k>`.
    TopNames(u64, usize),
}

/// The key with the most (or the fewest) counts, ties to the smallest key.
fn pick<K: Ord + Clone>(counts: &BTreeMap<K, u64>, most: bool) -> K {
    let score = |n: u64| if most { u64::MAX - n } else { n };
    let least = counts.iter().min_by_key(|(k, n)| (score(**n), *k));
    least.map(|(k, _)| k.clone()).expect("a non-empty day")
}

/// The suite, derived from the generated day so the same queries hit every
/// scale: the day's most active, median and least active users and one it
/// never saw (the heaviest user sits in nearly every tiny row group, so a
/// day-wide lookup on them would decode most of the day), its most frequent
/// name and one no dictionary holds, its busiest and quietest traffic hours
/// and one past the day.
fn suite(day: &WorkloadConfig) -> Vec<Lookup> {
    let (mut by_user, mut by_name, mut by_hour) =
        (BTreeMap::new(), BTreeMap::new(), BTreeMap::new());
    for ev in DayStream::new(day, 0) {
        *by_user.entry(ev.user_id).or_default() += 1;
        *by_name.entry(ev.name.as_str().to_string()).or_default() += 1;
        *by_hour.entry(ev.timestamp.hour_index()).or_default() += 1;
    }
    let mut ranked: Vec<(u64, i64)> = by_user.iter().map(|(&u, &n)| (n, u)).collect();
    ranked.sort_unstable();
    let (heavy, median, light) = (
        pick(&by_user, true),
        ranked[ranked.len() / 2].1,
        pick(&by_user, false),
    );
    let absent = by_user.keys().next_back().copied().unwrap_or(0) + 1_000;
    let (top, absent_name) = (pick(&by_name, true), "never:logged:by:any:client:ever");
    let (busy, quiet, missing) = (pick(&by_hour, true), pick(&by_hour, false), 27);
    use Lookup::*;
    vec![
        Sessions(median),
        Sessions(absent),
        UserEvents(heavy, busy),
        UserEvents(light, quiet),
        UserEvents(absent, busy),
        UserEvents(heavy, missing),
        Count(top.clone(), (0..24).collect()),
        Count(absent_name.to_string(), (0..24).collect()),
        Count(top.clone(), vec![busy]),
        Count(top, (24..48).collect()),
        TopNames(busy, 5),
        TopNames(quiet, 3),
        TopNames(missing, 5),
    ]
}

/// Answers one lookup on the serving layer, then on the batch engine at one
/// worker. Returns its class and its bill: one lookup, the serving layer's
/// decoded bytes, groups read and groups pruned, and the bytes batch
/// decoded.
fn bill(h: &ServeHandle, wh: &Warehouse, lookup: &Lookup) -> (usize, [u64; 5]) {
    let (class, stats) = match lookup {
        Lookup::Sessions(user) => (0, h.sessions(*user, 0).expect("serve").1),
        Lookup::UserEvents(user, hour) => (1, h.user_events(*user, *hour).expect("serve").stats),
        Lookup::Count(name, hours) => (2, h.count(name, hours.iter().copied()).stats),
        Lookup::TopNames(hour, k) => (3, h.top_names(*hour, *k).stats),
    };
    let before = wh.stats();
    let batch = match lookup {
        Lookup::Sessions(user) => batch_sessions(wh, CAT, 0, *user, 1).map(drop),
        Lookup::UserEvents(user, hour) => batch_user_events(wh, CAT, *hour, *user, 1).map(drop),
        Lookup::Count(name, hours) => {
            batch_count(wh, CAT, hours.iter().copied(), name, 1).map(drop)
        }
        Lookup::TopNames(hour, k) => batch_top_names(wh, CAT, *hour, *k, 1).map(drop),
    };
    batch.expect("batch");
    let batch = wh.stats().since(&before).uncompressed_bytes_read;
    let LookupStats {
        decoded_bytes,
        groups_read,
        groups_pruned,
        ..
    } = stats;
    (class, [1, decoded_bytes, groups_read, groups_pruned, batch])
}

/// Runs the serving measurement over the default day, or for a smoke run
/// the pinned smoke day, whose metrics CI golden-diffs.
pub fn measure(smoke: bool) -> Outcome {
    let scale = if smoke { Scale::Smoke } else { Scale::Default };
    let config = scale.config();
    let mut pipe = ScribePipeline::new(topology());
    pipe.set_columnar_landing(Arc::new(ClientEventLanding {
        dictionary: true,
        rows_per_group: ROWS_PER_GROUP,
    }));
    let maintainer = IndexMaintainer::new(pipe.main_warehouse().clone(), CAT);
    pipe.add_delivery_tap(maintainer.tap());
    let reports = deliver_day(&mut pipe, &config);

    let mut classes = [[0u64; 5]; CLASSES.len()];
    for lookup in suite(&config) {
        let (class, bill) = bill(&maintainer.handle(), pipe.main_warehouse(), &lookup);
        for (total, n) in classes[class].iter_mut().zip(bill) {
            *total += n;
        }
    }
    let rows = CLASSES
        .iter()
        .zip(classes)
        .map(|(label, [n, serve, read, pruned, batch])| {
            object(&[
                ("label", &quoted(label)),
                ("lookups", &n),
                ("serve_decoded_bytes", &serve),
                ("batch_decoded_bytes", &batch),
                ("groups_read", &read),
                ("groups_pruned", &pruned),
            ])
        });
    let total = |i: usize| classes.iter().map(|c| c[i]).sum::<u64>();
    let (lookups, serve, batch) = (total(0), total(1), total(4));
    // The cost model: serve pays the scan of what it decoded; every batch
    // lookup also pays job submission and a task startup before its much
    // larger scan.
    let cm = CostModel::default();
    let scan_ms = |bytes: u64| bytes as f64 / (cm.scan_mb_per_s * 1000.0);
    let submit_ms = lookups as f64 * (cm.job_submit_ms + cm.task_startup_ms);
    let m = &maintainer;
    let hours = m.indexed_hours();
    let events: u64 = hours
        .iter()
        .filter_map(|&h| m.hour_index(h))
        .map(|i| i.events)
        .sum();
    let (ratio, serve_ms) = (batch as f64 / serve.max(1) as f64, scan_ms(serve));
    let metrics = Body::default()
        .put("scale", quoted(scale.label()))
        .put("users", config.users)
        .put("records", reports.iter().map(|r| r.records).sum::<u64>())
        .put("events", events)
        .put("hours_indexed", hours.len())
        .put("index_lag_hours", m.lag_hours())
        .put("rows_per_group", ROWS_PER_GROUP)
        .put("postings_bytes", m.postings_bytes())
        .put("index_build_decoded_bytes", m.build_decoded_bytes())
        .rows("classes", rows)
        .put("lookups", lookups)
        .put("serve_decoded_bytes", serve)
        .put("batch_decoded_bytes", batch)
        .put("decoded_bytes_ratio", format!("{ratio:.1}"))
        .put("serve_cost_ms", format!("{serve_ms:.3}"))
        .put(
            "batch_cost_ms",
            format!("{:.1}", submit_ms + scan_ms(batch)),
        )
        .metrics("serve", "uli-serve-v1", "BENCH_serve.json");
    Outcome::measured(Vec::new(), metrics, smoke)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_serving_layer_runs_clean() {
        crate::tests::assert_smoke_run(&measure(true));
    }
}
