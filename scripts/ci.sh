#!/usr/bin/env bash
# The full local gate: formatting, lints (warnings are errors), and tests.
# Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Twice: tests that share a fixture must pass both beside each other and
# one at a time, whatever the host's core count.
echo "== cargo test (default test threads)"
cargo test --workspace -q
echo "== cargo test (RUST_TEST_THREADS=1)"
RUST_TEST_THREADS=1 cargo test --workspace -q

# e11's own asserts are the gate: indexed and unindexed answers agree, the
# serve index never skips fewer row groups than zone maps alone and skips
# strictly more on a selective pattern, drop-and-rebuild restores it.
echo "== index gate (e11: serve hour index as the scan pruner)"
cargo run --release -q -p uli-bench --bin repro -- e11

# There is one index crate (uli-serve); the folded one must not come back.
if grep -rnE 'uli[-_]index' Cargo.toml crates src tests examples; then
    echo "index gate: a manifest or source names the removed index crate." >&2
    exit 1
fi

# The hour index stores what a lookup reads: the per-user session summaries
# nobody read, and the join of two maps that held one key set, must not
# come back.
if grep -rnE 'UserHourSummary|user_summaries|fn joined' crates src tests examples; then
    echo "serve gate: the hour index keeps a summary or a second map per key kind again." >&2
    exit 1
fi

# There is one landed layout behind every helper — the columnar one the log
# mover's landing writes — and one way to run a query: no layout switch, no
# layout-taking writer, no flag that turns pushdown off.
if grep -rnE 'Layout::|write_client_events_layout|--layout|no[-_]pushdown' crates src tests examples; then
    echo "landing gate: a layout switch or a pushdown-off flag is back." >&2
    exit 1
fi
# The paper's row-format raw log has one writer, and callers only where a
# number is the paper's baseline (E1-E13's fixture, E4, E9, E19's row arms)
# or the row layout is the reference of an equivalence check.
if grep -rln 'write_paper_raw_log' crates src tests examples |
    grep -vxE 'crates/workload/src/(generator|lib)\.rs|crates/bench/src/harness\.rs|crates/bench/src/experiments/e(4_compression|9_legacy|19_columnar)\.rs|tests/query_equivalence\.rs|crates/core/tests/lazy_scan_equivalence\.rs'; then
    echo "landing gate: the row-format raw log has a caller outside the paper baselines." >&2
    exit 1
fi

# There is one way to read a landed client event (the row view of
# uli_core::for_each_event_row, under the columns its caller declares); the
# whole-struct-per-row visitor must not come back.
if grep -rnE 'for_each_client_event|client_event_from_group|vec!\[true; col\.columns\(\)\]' \
    crates src tests examples; then
    echo "read gate: a full-width per-row client-event read is back." >&2
    exit 1
fi

# There is one walk of a client-event payload on the delivery path, borrowed
# (uli_core::EventRow::read): the mover's landing, the stream fold and the
# serve index build must not decode a ClientEvent per record again. Code
# under a file's `#[cfg(test)]` module may.
for f in $(find crates/scribe/src crates/stream/src crates/serve/src -name '*.rs'); do
    if sed '/#\[cfg(test)\]/,$d' "$f" | grep -n 'ClientEvent::from_bytes'; then
        echo "write-path gate: $f decodes a whole ClientEvent per record." >&2
        exit 1
    fi
done

# There is one implementation of every reducing operator, the spilling one,
# and every query runs under a budget: no tracker without a budget and no
# fork on whether one is set.
if grep -rnE 'budget\(\)\.is_some\(\)|MemoryTracker::unbounded|fn unbounded' crates src; then
    echo "reduce gate: an unbudgeted tracker or a budget-is-set fork is back." >&2
    exit 1
fi

# There is one pass 2 — sessionization as an external sort of the day's
# events — and one run writer and merger (uli_warehouse::RunSet): the
# whole-day twin's sharded sessionizer and the hour-watermark twin must not
# come back.
if grep -rnE 'materialize_sequences_streaming|sessionize_sharded' crates src tests examples; then
    echo "materialize gate: a second pass 2 is back." >&2
    exit 1
fi

# Block integrity is `block_checksum`'s job (word-wide lanes): the
# byte-at-a-time FNV must not come back at any site that runs over stored
# bytes — the block seal and the cold-read check of file.rs, the group
# header and chunk checks of columnar.rs, the truncation fault hook.
if grep -n 'fnv1a64' crates/warehouse/src/file.rs crates/warehouse/src/columnar.rs ||
    sed -n '/pub fn truncate_block/,/^    }/p' crates/warehouse/src/store.rs | grep -n 'fnv1a64'; then
    echo "integrity gate: FNV is back on a block-integrity path." >&2
    exit 1
fi

# A row group is compressed once, chunk by chunk, and stored: the only
# record the columnar writer seals through the block compressor is the file
# header (a debug_assert in `append_header_record` holds it to the first
# block), and the retired seal-a-compressed-envelope call must not return.
columnar_src=$(sed '/#\[cfg(test)\]/,$d' crates/warehouse/src/columnar.rs)
if grep -rn 'append_record_sealed' crates src tests examples benchmark/src ||
    [ "$(grep -c 'append_header_record(' <<<"$columnar_src")" != 1 ] ||
    [ "$(grep -c 'append_stored_block(' <<<"$columnar_src")" != 1 ] ||
    ! grep -q 'debug_assert!' <(sed -n '/fn append_header_record/,/^    }/p' crates/warehouse/src/file.rs); then
    echo "single-pass gate: a row group can reach the block compressor a second time." >&2
    exit 1
fi

# One columnar format: the version this build writes and reads is 4.
if grep -rn 'COLUMNAR_VERSION' crates | grep -E 'COLUMNAR_VERSION: u8 = ' | grep -v '= 4;'; then
    echo "format gate: COLUMNAR_VERSION is not 4." >&2
    exit 1
fi

# Counts, so they hold on any host: the smoke day's landed bytes a record
# under the recorded ceiling, a name-only pass reading under a twentieth of
# a full-width pass's stored bytes, every landed byte and decoded row at
# its recorded digest.
echo "== bytes gate (landed smoke day: digests, bytes/record ceiling, narrow-read share)"
cargo test -q --test landed_bytes

# The benchmark package stands outside the workspace and calls the crates'
# public API; build and test it here, so that an API break against it fails
# locally and not in the driver.
echo "== benchmark package (builds and passes against this tree)"
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml

echo "== chaos gate (seeded sweep + delivery-invariant checker)"
cargo test -q --test chaos
cargo run --release -q -p uli-bench --bin repro -- --smoke e16

# golden_gate <exp> <label> [required-grep…]
# Runs `repro --smoke <exp>` (which exits nonzero if any of the experiment's
# own invariants fails), diffs the machine-independent metrics it writes
# against the committed golden, and requires every grep pattern in them —
# the greps keep a gate honest against accidental removal of an invariant
# from the experiment.
golden_gate() {
    local exp=$1 label=$2
    shift 2
    local out=target/${exp}_smoke.metrics.json
    local golden=crates/bench/golden/${exp}_smoke.golden.json
    echo "== $label gate ($exp smoke metrics vs golden)"
    cargo run --release -q -p uli-bench --bin repro -- --smoke "$exp"
    if ! diff -u "$golden" "$out"; then
        echo "$label gate: smoke metrics drifted from the golden file." >&2
        echo "If the change is intentional, refresh it with:" >&2
        echo "  cp $out $golden" >&2
        exit 1
    fi
    local pattern
    for pattern in "$@"; do
        if ! grep -q -- "$pattern" "$out"; then
            echo "$label gate: $out lacks $pattern" >&2
            exit 1
        fi
    done
}

# forbid <exp> <grep> <why>: the metrics of <exp> must not contain <grep>.
forbid() {
    if grep -q -- "$2" "target/$1_smoke.metrics.json"; then
        echo "$1 gate: $3" >&2
        exit 1
    fi
}

# e17: the registry snapshot of one instrumented run.
golden_gate e17 obs
forbid e17 '"duplicate_registrations": \["' "a metric was registered twice."

# e18: batched ingest.
golden_gate e18 ingest

# e19: every columnar arm returns the row reference's rows, and an aggregate
# straight over the LOAD still reads only the column it declares: a ratio of
# two byte counts, so the gate holds on any machine.
golden_gate e19 columnar '"outputs_identical": true'
forbid e19 '"arm": "events-per-user", .*"fields_skipped": 0,' \
    "events-per-user skipped no field — the aggregate's projection mask is not applied."
ratio=$(sed -n 's/.*"projection_bytes_ratio": \([0-9.]*\).*/\1/p' target/e19_smoke.metrics.json)
if ! awk -v r="$ratio" 'BEGIN { exit !(r != "" && r + 0 <= 0.20) }'; then
    echo "e19 gate: events-per-user decodes ${ratio:-?} of its full-width bytes (limit 0.20)." >&2
    exit 1
fi
# Values are stored as what they are: on the smoke day every run of the ids,
# timings and ranks of `details`, and every `ip` chunk, took a shape. A
# count, so a writer that quietly falls back to raw everywhere fails here on
# any host, not only in the benchmark's bytes a record.
for run in '"column": "ip", "key": ""' \
    '"key": "request_id"' '"key": "page_load_ms"' '"key": "target_id"' '"key": "tweet_id"' '"key": "rank"'; do
    if ! grep -q -- "$run, \"raw\": 0, " target/e19_smoke.metrics.json; then
        echo "e19 gate: a value run of {$run} is missing or stayed raw." >&2
        exit 1
    fi
done

# e20: tiny budgets on a real (smoke-sized) day: the materializer and at
# least one query's tight arm must spill, every tight arm must return the
# default arm's rows — and the tight pass 2 the default pass 2's part
# files — byte for byte, and every stage must keep its high-water mark
# under its budget.
golden_gate e20 bounded-memory \
    '"queries_identical": true' \
    '"mat_identical": true' \
    '"peaks_within_budget": true'
forbid e20 '"budgeted_spill_runs": 0,' "no stage spilled — the tiny budgets are not binding."
if ! grep -q '"arm": "tight", .*"spill_runs": [1-9]' target/e20_smoke.metrics.json; then
    echo "e20 gate: no tight-arm query spilled — the tight budget is not binding." >&2
    exit 1
fi

# e21: streaming analytics vs batch over the pinned smoke day plus a seeded
# chaos sweep: views identical across worker counts, equal to batch for
# exact aggregates, within every sketch's declared error bound, and
# reconciled against the audited delivered partition.
golden_gate e21 lambda \
    '"streaming_matches_batch": true' \
    '"hll_within_bound": true' \
    '"topk_within_bound": true' \
    '"percentile_within_bound": true' \
    '"chaos_reconciled": true'

# e22: point lookups off the incrementally-maintained index vs the batch
# engine: byte-identical answers at every worker count, >=50x fewer decoded
# bytes, serve/* registry reconciled against the maintainer, and chaos
# indexes (with crash-window injection between hour-land and index-commit)
# accounting for exactly the delivered partition after recovery.
golden_gate e22 serving \
    '"answers_match": true' \
    '"index_lag_hours": 0,' \
    '"obs_reconciled": true' \
    '"chaos_consistent": true'

# e23: the parallel mover: landed files, seen-set and tap dispatch
# byte-identical at workers {1,4,8}, the seeded chaos sweep invariant-clean
# and identical at 8 workers, and >=3x at 8 workers in the cost model.
golden_gate e23 delivery \
    '"identical_across_workers": true' \
    '"chaos_clean": true' \
    '"chaos_matches_serial": true'

echo "ci: all green"
