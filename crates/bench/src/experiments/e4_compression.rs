//! E4 — §4.2: session-sequence materialization and the "about fifty times
//! smaller" claim, plus the variable-length-coding ablation.
//!
//! The paper's raw log is one Thrift record per event, and that is what the
//! headline factor is measured against. The same day landed columnar (the
//! default landing) is a much smaller raw log, so the same sequences are
//! fewer times smaller than it; the table reports both.

use uli_core::session::dictionary::char_for_rank;
use uli_core::session::{EventDictionary, Materializer, SessionSequence, Sessionizer};
use uli_warehouse::Warehouse;
use uli_workload::{generate_day, write_client_events, write_paper_raw_log, WorkloadConfig};

use crate::cells;
use crate::harness::Table;

/// Runs the experiment.
pub fn run() -> String {
    let mut out = String::from(
        "E4 — session-sequence compression (§4.2)\n\
         paper: sequences are 'about fifty times smaller than the original\n\
         client event logs'. Ratio grows with session length because the\n\
         fixed per-session fields amortize.\n\n",
    );
    let mut t = Table::new(&[
        "mean session len",
        "events",
        "sessions",
        "raw KB (disk)",
        "seq KB (disk)",
        "factor",
        "columnar KB (disk)",
        "factor vs columnar",
    ]);
    let mut factors = Vec::new();
    for mean_len in [4.0, 12.0, 40.0] {
        let config = WorkloadConfig {
            users: 300,
            mean_session_len: mean_len,
            ..Default::default()
        };
        let day = generate_day(&config, 0);
        let wh = Warehouse::new();
        write_paper_raw_log(&wh, &day.events, 4).expect("fresh warehouse");
        let report = Materializer::new(wh).run_day(0).expect("day present");
        factors.push(report.compression_factor());
        let wh = Warehouse::new();
        write_client_events(&wh, &day.events, 4).expect("fresh warehouse");
        let columnar = Materializer::new(wh).run_day(0).expect("day present");
        assert_eq!(
            columnar.sequences_compressed_bytes, report.sequences_compressed_bytes,
            "the sequences do not depend on how the raw log is laid out"
        );
        t.row(cells![
            format!("{mean_len:.0}"),
            report.events,
            report.sessions,
            report.raw_compressed_bytes / 1024,
            report.sequences_compressed_bytes / 1024,
            format!("{:.1}x", report.compression_factor()),
            columnar.raw_compressed_bytes / 1024,
            format!("{:.1}x", columnar.compression_factor())
        ]);
    }
    out.push_str(&t.render());
    assert!(
        factors.windows(2).all(|w| w[1] > w[0]),
        "factor grows with session length"
    );
    assert!(
        factors[1] > 10.0,
        "double-digit compression at realistic session lengths"
    );

    // Dictionary code-point footprint: frequency-ranked coding puts the
    // traffic mass in 1-byte code points.
    let config = WorkloadConfig {
        users: 300,
        ..Default::default()
    };
    let day = generate_day(&config, 0);
    let mut counts = std::collections::BTreeMap::new();
    for ev in &day.events {
        *counts.entry(ev.name.clone()).or_insert(0u64) += 1;
    }
    let dict = EventDictionary::from_counts(counts.into_iter().collect());
    let mut by_width = [0u64; 4];
    let mut total = 0u64;
    for (rank, _, count) in dict.iter() {
        let width = char_for_rank(rank)
            .expect("alphabet fits unicode")
            .len_utf8();
        by_width[width - 1] += count;
        total += count;
    }
    out.push_str("\nUTF-8 footprint of the frequency-ranked dictionary:\n");
    let mut wt = Table::new(&["code width", "share of event traffic"]);
    for (w, c) in by_width.iter().enumerate() {
        if *c > 0 {
            wt.row(cells![
                format!("{} byte(s)", w + 1),
                format!("{:.1}%", 100.0 * *c as f64 / total as f64)
            ]);
        }
    }
    out.push_str(&wt.render());
    assert!(
        by_width[0] as f64 / total as f64 > 0.5,
        "most traffic encodes in one byte"
    );

    // Ablation: frequency-ranked vs arbitrary (alphabetical) assignment.
    let sessions = Sessionizer::new().sessionize(day.events.clone());
    let ranked_bytes: usize = sessions
        .iter()
        .filter_map(|s| SessionSequence::encode(s, &dict))
        .map(|s| s.sequence.len())
        .sum();
    let mut alpha: Vec<_> = dict.iter().map(|(_, n, _)| (n.clone(), 1u64)).collect();
    alpha.sort_by(|a, b| a.0.cmp(&b.0));
    // Equal counts → ties broken alphabetically → arbitrary order.
    let alpha_dict = EventDictionary::from_counts(alpha);
    let alpha_bytes: usize = sessions
        .iter()
        .filter_map(|s| SessionSequence::encode(s, &alpha_dict))
        .map(|s| s.sequence.len())
        .sum();
    out.push_str(&format!(
        "\nablation — encoded sequence bytes (no container overhead):\n\
         frequency-ranked {ranked_bytes} B vs arbitrary order {alpha_bytes} B \
         ({:.1}% smaller)\n",
        100.0 * (1.0 - ranked_bytes as f64 / alpha_bytes as f64)
    ));
    assert!(ranked_bytes <= alpha_bytes, "ranking can only help");
    out
}
