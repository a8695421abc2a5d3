#!/usr/bin/env bash
# The full local gate: formatting, lints (warnings are errors), tests, the
# forbidden-names table, DESIGN.md's citations, the structural gates and the
# smoke goldens. Run from anywhere inside the repo.
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

# word_gates ROOT: runs every row of scripts/forbidden.tsv read on stdin
# over the tree at ROOT and fails if any row has a hit outside its except
# column. A missing path is a hit too: grep's complaint is not excused.
word_gates() {
    local root=$1 bad=0 pat flags paths except reason pr hits
    while IFS=$'\t' read -r pat flags paths except reason pr; do
        # shellcheck disable=SC2086 # flags and paths are word lists
        hits=$(cd "$root" && grep -rHn $flags -e "$pat" $paths 2>&1 | grep -vE "^($except):" || true)
        [ -z "$hits" ] && continue
        printf '%s\nforbidden (PR %s): %s\n' "$hits" "$pr" "$reason" >&2
        bad=1
    done
    return $bad
}
rows() { grep -v '^#' scripts/forbidden.tsv; }

echo "== forbidden names (scripts/forbidden.tsv)"
rows | word_gates .

# sample PATTERN: a line the extended PATTERN matches — its first
# alternative, each bracket and group at its first choice, escapes dropped.
sample() {
    sed -E 's/\\b//g; s/\\\(/\x01/g; s/\\\)/\x02/g; s/\\\[/\x03/g; s/\\\]/\x04/g; s/\\(.)/\1/g
        s/\[(.)[^]]*\]/\1/g; s/\(([^|)]*)[^)]*\)/\1/g; s/\|.*//
        s/\x01/(/g; s/\x02/)/g; s/\x03/[/g; s/\x04/]/g' <<<"$1"
}

# Each row must still fire: plant a line its pattern matches in a copy of
# the row's first path, under a temporary root, and run that row there.
echo "== forbidden-names self-test (every row fires on a planted copy)"
while IFS=$'\t' read -r pat flags paths except reason pr; do
    p=${paths%% *} t=$(mktemp -d)
    mkdir -p "$t/$(dirname "$p")" && cp -r "$p" "$t/$p"
    [ -d "$p" ] && f=$t/$p/planted.rs || f=$t/$p
    if [ "$flags" = -F ]; then echo "$pat" >>"$f"; else sample "$pat" >>"$f"; fi
    if printf '%s\t%s\t%s\t%s\t%s\t%s\n' "$pat" "$flags" "$p" "$except" "$reason" "$pr" |
        word_gates "$t" 2>/dev/null; then
        echo "self-test: the row for '$pat' does not fire on a planted line in $p." >&2
        exit 1
    fi
    rm -rf "$t"
done < <(rows)

# DESIGN.md names the files and tests that pin what it says: every path it
# names must exist, and every `path.rs::name` must define `fn name` there.
echo "== citation gate (DESIGN.md's paths and tests exist)"
for c in $(grep -oE '[A-Za-z0-9_./-]+\.(rs|md|json|toml|sh|tsv)(::[a-z0-9_]+)?' DESIGN.md | sort -u); do
    f=${c%%::*} fn=${c#*::}
    if [ ! -e "$f" ] || { [ "$fn" != "$c" ] && ! grep -qw "fn $fn" "$f"; }; then
        echo "citation gate: DESIGN.md cites $c, which is not in the tree." >&2
        exit 1
    fi
done

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

# And that walk is the only one outside tests: the walk it replaced is the
# `#[cfg(test)]` reference EventRow::read is held to, never a twin beside
# it. A walk reads field 1 as an initiator code; one function may.
walks=0
for f in $(find crates/*/src src -name '*.rs'); do
    n=$(sed '/cfg(test)/,$d' "$f" | grep -cE 'from_code\([a-z_]*\.read_i8\(\)' || true)
    walks=$((walks + n))
done
if [ "$walks" != 1 ]; then
    echo "walk gate: $walks client-event walks outside #[cfg(test)], not one." >&2
    exit 1
fi

# A decoded event's details are one buffer (uli_core::EventDetails), not a
# map of two Strings a pair on ClientEvent.
if sed -n '/^pub struct ClientEvent {/,/^}/p' crates/core/src/client_event.rs | grep -n 'BTreeMap'; then
    echo "details gate: ClientEvent holds its details as a map again." >&2
    exit 1
fi

# The session-sequence part files are columnar: `PartFiles` appends a row
# of cells per session through the columnar writer, never a Thrift record
# through the row writer. Outside `#[cfg(test)]` no code decodes a
# row-format session record but the loader's `parse`, which the `Loader`
# trait requires.
if sed -n '/^struct PartFiles/,/^impl Materializer/p' crates/core/src/session/materialize.rs |
    grep -nE 'RecordFileWriter|\.append_record\('; then
    echo "sequence gate: PartFiles writes row-format records again." >&2
    exit 1
fi
for f in $(find crates/*/src src examples -name '*.rs'); do
    n=$(sed '/#\[cfg(test)\]/,$d' "$f" | grep -c 'SessionSequence::from_bytes' || true)
    allowed=0
    [ "$f" = crates/core/src/session/sequence.rs ] && allowed=1
    if [ "$n" -gt "$allowed" ]; then
        echo "sequence gate: $f decodes row-format session records outside tests." >&2
        exit 1
    fi
done

# The truncation fault hook damages stored bytes; their integrity is
# `block_checksum`'s, never the byte-at-a-time FNV's.
if sed -n '/pub fn truncate_block/,/^    }/p' crates/warehouse/src/store.rs | grep -n 'fnv1a64'; then
    echo "integrity gate: FNV is back on a block-integrity path." >&2
    exit 1
fi

# A row group is compressed once, chunk by chunk, and stored: the only
# record the columnar writer seals through the block compressor is the file
# header (a debug_assert in `append_header_record` holds it to the first
# block).
columnar_src=$(sed '/#\[cfg(test)\]/,$d' crates/warehouse/src/columnar.rs)
if [ "$(grep -c 'append_header_record(' <<<"$columnar_src")" != 1 ] ||
    [ "$(grep -c 'append_stored_block(' <<<"$columnar_src")" != 1 ] ||
    ! grep -q 'debug_assert!' <(sed -n '/fn append_header_record/,/^    }/p' crates/warehouse/src/file.rs); then
    echo "single-pass gate: a row group can reach the block compressor a second time." >&2
    exit 1
fi

# One columnar format: the version this build writes and reads is 5.
if grep -rn 'COLUMNAR_VERSION' crates | grep -E 'COLUMNAR_VERSION: u8 = ' | grep -v '= 5;'; then
    echo "format gate: COLUMNAR_VERSION is not 5." >&2
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

# golden_gate <exp> <label>
# Runs `repro --smoke <exp>`, which exits nonzero if any of the experiment's
# own gates fails, and diffs the machine-independent metrics it writes
# against the committed golden. A bound lives in one place: the
# experiment's gates or the test that holds it (DESIGN.md's experiment
# index names which), never in a grep here.
golden_gate() {
    local exp=$1 label=$2
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
}

golden_gate e17 obs
golden_gate e18 ingest
golden_gate e19 columnar
golden_gate e20 bounded-memory
golden_gate e21 lambda
golden_gate e22 serving
golden_gate e23 delivery

# Counts, not clocks: no smoke metrics file, and no persisted BENCH file but
# E20's, carries a wall-clock key (a cost-model figure says `cost` in its
# name), and none carries a wall-clock speedup or a basis switching to one.
for f in target/e*_smoke.metrics.json BENCH_*.json; do
    [ "$f" = BENCH_scale.json ] && continue
    if grep -oE '"[a-z_]*_(ms|us|per_sec)":' "$f" | grep -v cost ||
        grep -nE 'speedup_basis|speedup_wall_clock' "$f"; then
        echo "clock gate: $f carries a wall-clock field." >&2
        exit 1
    fi
done

echo "ci: all green"
