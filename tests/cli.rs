//! The `uli` binary, run as a user runs it.

use std::process::Command;

/// The smoke-day ceiling of `tests/landed_bytes.rs`: stored bytes a record
/// of the 120-user day, landed columnar.
const SMOKE_DAY_CEILING: f64 = 44.4;

/// What `uli ingest` printed: records logged, moved and lost, and the landed
/// day's stored bytes a record.
fn ingest(users: u64) -> (u64, u64, u64, f64) {
    let users = users.to_string();
    let out = Command::new(env!("CARGO_BIN_EXE_uli"))
        .args(["ingest", "--users", &users, "--days", "1"])
        .output()
        .expect("uli runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "uli ingest failed:\n{stdout}");
    // "  logged N -> moved M (retried R, lost L)"
    let words: Vec<&str> = stdout.split_whitespace().collect();
    let after = |word: &str| -> &str {
        let at = words.iter().position(|w| *w == word);
        let at = at.unwrap_or_else(|| panic!("no {word:?} in:\n{stdout}"));
        words[at + 1].trim_matches(|c: char| !c.is_ascii_digit() && c != '.')
    };
    let number = |word| after(word).parse::<u64>().expect("a count");
    // "  landed columnar: B stored bytes, F a record"
    let per_record = words
        .iter()
        .position(|w| *w == "record")
        .map(|at| words[at - 2].parse::<f64>().expect("a figure"))
        .unwrap_or_else(|| panic!("no bytes-a-record figure in:\n{stdout}"));
    (
        number("logged"),
        number("moved"),
        number("lost"),
        per_record,
    )
}

#[test]
fn ingest_lands_every_record_columnar() {
    let (logged, moved, lost, per_record) = ingest(60);
    assert!(logged > 0);
    assert_eq!((moved, lost), (logged, 0));
    assert!(per_record > 0.0);
    // The smoke day itself lands as small as the mover's landing keeps it
    // everywhere else; row-format Thrift would be over twice as large.
    let (logged, moved, lost, per_record) = ingest(120);
    assert_eq!((moved, lost), (logged, 0));
    assert!(
        per_record <= SMOKE_DAY_CEILING,
        "{per_record} stored bytes a record on the smoke day, over {SMOKE_DAY_CEILING}"
    );
}
