//! `ulz`: a small LZ-style block compressor.
//!
//! The aggregators "write the merged results to HDFS … compressing data on
//! the fly" (§2). The approved dependency set has no compression crate, so we
//! implement a simple byte-oriented LZ77 variant: greedy matching against a
//! 64 KiB window via a 4-byte hash table, literals in runs, matches as
//! (length, distance) tokens with varint distances.
//!
//! ## Format
//!
//! A compressed buffer is `varint(uncompressed_len)` followed by tokens:
//!
//! * `0x00..=0x7f`: literal run; token value + 1 literal bytes follow.
//! * `0x80..=0xff`: match; length = `(token & 0x7f) + MIN_MATCH`, followed by
//!   a varint distance (≥ 1). Distances may be smaller than the length
//!   (overlapping copy), which encodes runs cheaply.
//!
//! The format is deliberately simple; the point is realistic compression
//! *behaviour* (repetitive log text shrinks a lot, random bytes do not), not
//! a competitive ratio.

use std::sync::Mutex;

use uli_obs::lock;

/// Minimum match length worth encoding.
const MIN_MATCH: usize = 4;
/// Maximum match length a single token can express.
const MAX_MATCH: usize = MIN_MATCH + 0x7f;
/// Window size: matches may reach at most this far back.
const WINDOW: usize = 1 << 16;
/// Hash table size (power of two).
const HASH_BITS: u32 = 15;

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

fn read_varint(input: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *input.get(*pos)?;
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// What an empty table slot holds. Slots hold `base + position`, and
/// `base` is never below 1, so no position ever encodes to this.
const EMPTY: u32 = 0;
/// `base` is kept at or under this, and a block under `u32::MAX - BASE_LIMIT`
/// bytes, so `base + position` never wraps.
const BASE_LIMIT: u32 = 1 << 31;

#[inline]
fn load4(input: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(input[at..at + 4].try_into().expect("4 bytes"))
}

#[inline]
fn hash4(v: u32) -> usize {
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `input[a..]` and `input[b..]` (`a < b`),
/// capped at `max`; eight bytes a step.
#[inline]
fn match_len(input: &[u8], a: usize, b: usize, max: usize) -> usize {
    let (left, right) = (&input[a..a + max], &input[b..b + max]);
    let mut len = 0;
    while len + 8 <= max {
        let x = u64::from_le_bytes(left[len..len + 8].try_into().expect("8 bytes"));
        let y = u64::from_le_bytes(right[len..len + 8].try_into().expect("8 bytes"));
        if x != y {
            return len + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < max && left[len] == right[len] {
        len += 1;
    }
    len
}

/// The greedy matcher every `ulz` stream comes from, resumable: tokens for
/// `input[*pos..]` are appended to `tokens` as far as their outcome is
/// final. A match can extend up to [`MAX_MATCH`] bytes and seeds the table
/// up to [`MIN_MATCH`] bytes short of its end, so unless `finalize` a
/// position is deferred until `MAX_MATCH + MIN_MATCH` lookahead bytes
/// exist; that margin makes the stream independent of how the input was
/// chunked.
///
/// `table` slots hold `base + position` of the last sighting of a hash in
/// this block; anything below `base` is a leftover of an earlier block (or
/// [`EMPTY`]) and is no candidate, which is what lets a caller start the
/// next block by moving `base` past this one instead of clearing the table.
fn advance(
    table: &mut [u32],
    base: u32,
    input: &[u8],
    tokens: &mut Vec<u8>,
    pos: &mut usize,
    literal_start: &mut usize,
    finalize: bool,
) {
    let table: &mut [u32; 1 << HASH_BITS] = table.try_into().expect("table size");
    let len = input.len();
    assert!(
        len < (u32::MAX - BASE_LIMIT) as usize,
        "ulz block too large"
    );
    let lookahead = if finalize {
        MIN_MATCH
    } else {
        MAX_MATCH + MIN_MATCH
    };
    let (mut at, mut literals) = (*pos, *literal_start);
    while at + lookahead <= len {
        let here = load4(input, at);
        let slot = &mut table[hash4(here)];
        let seen = *slot;
        *slot = base + at as u32;
        // `seen - base` is an earlier position of this block, so below `at`.
        let candidate = seen.wrapping_sub(base) as usize;
        if seen < base || at - candidate > WINDOW || load4(input, candidate) != here {
            at += 1;
            continue;
        }
        let max = (len - at).min(MAX_MATCH) - MIN_MATCH;
        let mlen = MIN_MATCH + match_len(input, candidate + MIN_MATCH, at + MIN_MATCH, max);
        flush_literals(tokens, &input[literals..at]);
        tokens.push(0x80 | (mlen - MIN_MATCH) as u8);
        write_varint(tokens, (at - candidate) as u64);
        // Seed the table inside the match so later data can refer to it:
        // every position of it that still has `MIN_MATCH` bytes to hash.
        let end = at + mlen;
        let seeds = &input[at + 1..end.min(len - (MIN_MATCH - 1)) + (MIN_MATCH - 1)];
        for (p, four) in (at + 1..).zip(seeds.windows(MIN_MATCH)) {
            let four = u32::from_le_bytes(four.try_into().expect("4 bytes"));
            table[hash4(four)] = base + p as u32;
        }
        at = end;
        literals = end;
    }
    (*pos, *literal_start) = (at, literals);
}

/// Compresses `input`, returning the `ulz` byte stream.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    write_varint(&mut out, input.len() as u64);
    let mut table = vec![EMPTY; 1 << HASH_BITS];
    let (mut pos, mut literal_start) = (0, 0);
    advance(
        &mut table,
        1,
        input,
        &mut out,
        &mut pos,
        &mut literal_start,
        true,
    );
    flush_literals(&mut out, &input[literal_start..]);
    out
}

/// The matcher as first written, kept as the reference [`compress`] and
/// [`Compressor`] are tested against byte for byte.
#[cfg(test)]
fn compress_reference(input: &[u8]) -> Vec<u8> {
    fn hash4(bytes: &[u8]) -> usize {
        let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
    }
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    write_varint(&mut out, input.len() as u64);
    if input.is_empty() {
        return out;
    }

    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut pos = 0;
    let mut literal_start = 0;

    while pos + MIN_MATCH <= input.len() {
        let h = hash4(&input[pos..]);
        let candidate = table[h];
        table[h] = pos;

        let found = candidate != usize::MAX
            && pos - candidate <= WINDOW
            && input[candidate..candidate + MIN_MATCH] == input[pos..pos + MIN_MATCH];
        if found {
            // Extend the match.
            let mut len = MIN_MATCH;
            let max = (input.len() - pos).min(MAX_MATCH);
            while len < max && input[candidate + len] == input[pos + len] {
                len += 1;
            }
            flush_literals(&mut out, &input[literal_start..pos]);
            out.push(0x80 | (len - MIN_MATCH) as u8);
            write_varint(&mut out, (pos - candidate) as u64);
            // Seed the table inside the match so later data can refer to it.
            let end = pos + len;
            pos += 1;
            while pos < end && pos + MIN_MATCH <= input.len() {
                table[hash4(&input[pos..])] = pos;
                pos += 1;
            }
            pos = end;
            literal_start = pos;
        } else {
            pos += 1;
        }
    }
    flush_literals(&mut out, &input[literal_start..]);
    out
}

fn flush_literals(out: &mut Vec<u8>, mut lits: &[u8]) {
    while !lits.is_empty() {
        let n = lits.len().min(128);
        out.push((n - 1) as u8);
        out.extend_from_slice(&lits[..n]);
        lits = &lits[n..];
    }
}

/// A streaming `ulz` compressor that owns its hash table and buffers, so a
/// writer sealing many blocks reuses one allocation set instead of paying a
/// fresh 32 K-entry table plus output buffer per block.
///
/// Feed bytes with [`Compressor::write`]; tokens are emitted incrementally,
/// but only for positions whose greedy outcome is already fixed, so the
/// token stream is byte-for-byte identical to running [`compress`] on the
/// concatenated input, regardless of how the input was chunked.
#[derive(Debug)]
pub struct Compressor {
    table: Vec<u32>,
    /// What the table holds for position 0 of the current block: one past
    /// everything an earlier block left in it.
    base: u32,
    /// Uncompressed bytes of the current block — also the match window.
    input: Vec<u8>,
    /// Token stream; the length header is prepended at `finish_block`.
    tokens: Vec<u8>,
    pos: usize,
    literal_start: usize,
}

impl Default for Compressor {
    fn default() -> Self {
        Compressor::new()
    }
}

impl Compressor {
    /// A fresh compressor with an empty current block.
    pub fn new() -> Self {
        Compressor {
            table: vec![EMPTY; 1 << HASH_BITS],
            base: 1,
            input: Vec::new(),
            tokens: Vec::new(),
            pos: 0,
            literal_start: 0,
        }
    }

    /// Appends `bytes` to the current block and compresses as far as the
    /// greedy matcher's outcome is already final.
    pub fn write(&mut self, bytes: &[u8]) {
        self.input.extend_from_slice(bytes);
        self.advance(false);
    }

    /// Uncompressed bytes buffered in the current block so far.
    pub fn pending_len(&self) -> usize {
        self.input.len()
    }

    /// True when nothing has been written since the last `finish_block`.
    pub fn is_empty(&self) -> bool {
        self.input.is_empty()
    }

    /// Seals the current block: drains the remaining input, prepends the
    /// length header, and returns the complete `ulz` stream. The compressor
    /// resets (reusing its allocations) and is ready for the next block.
    pub fn finish_block(&mut self) -> Vec<u8> {
        self.advance(true);
        flush_literals(&mut self.tokens, &self.input[self.literal_start..]);
        let mut out = Vec::with_capacity(self.tokens.len() + 10);
        write_varint(&mut out, self.input.len() as u64);
        out.extend_from_slice(&self.tokens);
        // Everything this block left in the table now reads as stale, so a
        // reset costs nothing; the table is only cleared when `base` has
        // run through half the `u32` range, once per 2 GiB compressed.
        self.base += self.input.len() as u32;
        if self.base > BASE_LIMIT {
            self.table.fill(EMPTY);
            self.base = 1;
        }
        self.input.clear();
        self.tokens.clear();
        self.pos = 0;
        self.literal_start = 0;
        out
    }

    fn advance(&mut self, finalize: bool) {
        advance(
            &mut self.table,
            self.base,
            &self.input,
            &mut self.tokens,
            &mut self.pos,
            &mut self.literal_start,
            finalize,
        );
    }
}

/// Initial decompression buffer: grown to the declared length only once the
/// stream has actually produced this much output, so a hostile header can
/// never force a large allocation up front.
const DECOMPRESS_PREALLOC: usize = 64 * 1024;

/// Decompresses a `ulz` stream. Returns `None` on any structural error.
/// Hostile input never panics, never produces more than the declared
/// uncompressed length, and never allocates past it either: the output
/// buffer starts small and is grown with `reserve_exact` toward the
/// declared length only as real output accumulates.
pub fn decompress(input: &[u8]) -> Option<Vec<u8>> {
    let mut pos = 0;
    let expected = read_varint(input, &mut pos)? as usize;
    // Sanity bound: refuse to produce more than 1 GiB for one block.
    if expected > (1 << 30) {
        return None;
    }
    let mut out = Vec::with_capacity(expected.min(DECOMPRESS_PREALLOC));
    let grow = |out: &mut Vec<u8>, n: usize| -> Option<()> {
        // Reject streams that overrun the declared length before writing a
        // byte past it (the one-shot final check would catch them anyway,
        // but bailing early bounds both memory and work).
        if expected - out.len() < n {
            return None;
        }
        if out.capacity() - out.len() < n {
            out.reserve_exact(expected - out.len());
        }
        Some(())
    };
    while pos < input.len() {
        let token = input[pos];
        pos += 1;
        if token < 0x80 {
            let n = usize::from(token) + 1;
            let lits = input.get(pos..pos + n)?;
            grow(&mut out, n)?;
            out.extend_from_slice(lits);
            pos += n;
        } else {
            let len = usize::from(token & 0x7f) + MIN_MATCH;
            let dist = read_varint(input, &mut pos)? as usize;
            if dist == 0 || dist > out.len() {
                return None;
            }
            grow(&mut out, len)?;
            let start = out.len() - dist;
            // Overlapping copies must proceed byte by byte.
            for i in 0..len {
                let b = out[start + i];
                out.push(b);
            }
        }
    }
    (out.len() == expected).then_some(out)
}

/// A pool of reusable [`Compressor`] instances for multi-worker writers.
///
/// A fresh `Compressor` pays a 32 K-entry hash table plus buffer growth; a
/// delivery worker sealing dozens of files per hour would re-pay that per
/// file. The pool hands out reset compressors (`checkout`) and takes them
/// back (`recycle`) so each worker converges on one warm allocation set that
/// survives across blocks, files, and hours. Checkout never blocks: if the
/// pool is empty a new compressor is built on the spot.
#[derive(Debug, Default)]
pub struct CompressorPool {
    idle: Mutex<Vec<Compressor>>,
}

impl CompressorPool {
    /// An empty pool; compressors are created lazily on first checkout.
    pub fn new() -> Self {
        CompressorPool::default()
    }

    /// Takes an idle compressor, or builds a fresh one if none is available.
    pub fn checkout(&self) -> Compressor {
        lock(&self.idle).pop().unwrap_or_default()
    }

    /// Returns a compressor to the pool for reuse. Any half-written block is
    /// discarded so the next checkout starts clean.
    pub fn recycle(&self, mut compressor: Compressor) {
        if !compressor.is_empty() {
            let _ = compressor.finish_block();
        }
        lock(&self.idle).push(compressor);
    }

    /// Number of compressors currently idle in the pool.
    pub fn idle_len(&self) -> usize {
        lock(&self.idle).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip(data: &[u8]) {
        let c = compress(data);
        assert_eq!(decompress(&c).as_deref(), Some(data));
    }

    #[test]
    fn pool_recycles_and_reused_compressor_is_byte_identical() {
        let pool = CompressorPool::new();
        assert_eq!(pool.idle_len(), 0);
        let mut c = pool.checkout();
        let data = b"the quick brown fox jumps over the quick brown fox".repeat(20);
        c.write(&data);
        let first = c.finish_block();
        pool.recycle(c);
        assert_eq!(pool.idle_len(), 1);
        // A recycled compressor produces the same stream as a fresh one.
        let mut c = pool.checkout();
        assert_eq!(pool.idle_len(), 0);
        c.write(&data);
        assert_eq!(c.finish_block(), first);
        assert_eq!(first, compress(&data));
        // Recycling a dirty compressor discards the half-written block.
        c.write(b"leftover");
        pool.recycle(c);
        let mut c = pool.checkout();
        assert!(c.is_empty());
        c.write(&data);
        assert_eq!(c.finish_block(), first);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abc");
        round_trip(b"abcd");
    }

    #[test]
    fn repetitive_text_shrinks() {
        let line = b"web:home:mentions:stream:avatar:profile_click\tuid=12345\n";
        let mut data = Vec::new();
        for _ in 0..500 {
            data.extend_from_slice(line);
        }
        let c = compress(&data);
        assert!(
            c.len() * 10 < data.len(),
            "repetitive logs should compress >10x, got {} / {}",
            c.len(),
            data.len()
        );
        round_trip(&data);
    }

    #[test]
    fn run_of_one_byte_uses_overlapping_copy() {
        let data = vec![b'x'; 10_000];
        let c = compress(&data);
        assert!(c.len() < 200, "run should be tiny, got {}", c.len());
        round_trip(&data);
    }

    #[test]
    fn incompressible_data_grows_bounded() {
        // A pseudo-random, non-repeating sequence.
        let mut state = 0x9e3779b97f4a7c15u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        let c = compress(&data);
        // Worst case: 1 token byte per 128 literals plus the length prefix.
        assert!(c.len() <= data.len() + data.len() / 128 + 16);
        round_trip(&data);
    }

    #[test]
    fn corrupt_stream_is_rejected_not_panicking() {
        let c = compress(b"hello hello hello hello hello");
        // Truncations.
        for cut in 0..c.len() {
            let _ = decompress(&c[..cut]); // must not panic
        }
        // Bit flips.
        for i in 0..c.len() {
            let mut bad = c.clone();
            bad[i] ^= 0xff;
            let _ = decompress(&bad); // must not panic
        }
    }

    #[test]
    fn invalid_distance_is_rejected() {
        let mut bad = Vec::new();
        write_varint(&mut bad, 8);
        bad.push(0x00); // literal run of 1
        bad.push(b'a');
        bad.push(0x80); // match of MIN_MATCH
        write_varint(&mut bad, 99); // distance beyond output
        assert_eq!(decompress(&bad), None);
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let mut bad = Vec::new();
        write_varint(&mut bad, 100); // claims 100 bytes
        bad.push(0x00);
        bad.push(b'a'); // delivers 1
        assert_eq!(decompress(&bad), None);
    }

    /// Feeds `data` to a streaming compressor in the given chunk sizes and
    /// returns the sealed block.
    fn stream_compress(c: &mut Compressor, data: &[u8], chunks: &[usize]) -> Vec<u8> {
        let mut rest = data;
        for &n in chunks {
            let n = n.min(rest.len());
            c.write(&rest[..n]);
            rest = &rest[n..];
        }
        c.write(rest);
        c.finish_block()
    }

    #[test]
    fn streaming_matches_one_shot_on_fixtures() {
        let line = b"web:home:mentions:stream:avatar:profile_click\tuid=12345\n";
        let mut data = Vec::new();
        for _ in 0..300 {
            data.extend_from_slice(line);
        }
        let mut c = Compressor::new();
        for chunks in [&[][..], &[1][..], &[7, 13, 1000][..], &[56][..]] {
            assert_eq!(
                stream_compress(&mut c, &data, chunks),
                compress(&data),
                "chunking {chunks:?} must not change the token stream"
            );
        }
        // The reset compressor handles an empty block like the one-shot.
        assert_eq!(c.finish_block(), compress(b""));
        assert_eq!(stream_compress(&mut c, b"abcd", &[2]), compress(b"abcd"));
    }

    #[test]
    fn compressor_resets_between_blocks() {
        let a = vec![b'x'; 5000];
        let b: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        let mut c = Compressor::new();
        // Sealing `a` first must not let its window leak into `b`.
        assert_eq!(stream_compress(&mut c, &a, &[17]), compress(&a));
        assert_eq!(stream_compress(&mut c, &b, &[17]), compress(&b));
        assert!(c.is_empty());
        assert_eq!(c.pending_len(), 0);
    }

    #[test]
    fn huge_declared_length_fails_fast_without_allocating() {
        // Claims just under the 1 GiB sanity bound but delivers one byte;
        // the initial buffer must stay small and the stream must fail.
        let mut bad = Vec::new();
        write_varint(&mut bad, 1 << 30);
        bad.push(0x00);
        bad.push(b'a');
        assert_eq!(decompress(&bad), None);
        // Over the bound is rejected outright.
        let mut worse = Vec::new();
        write_varint(&mut worse, (1 << 30) + 1);
        assert_eq!(decompress(&worse), None);
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // Eleven continuation bytes: shift exceeds 63 before terminating.
        let bad = vec![0xffu8; 11];
        assert_eq!(decompress(&bad), None);
        // An overlong varint in a match distance, too.
        let mut c = compress(b"hello hello hello hello hello");
        c.extend_from_slice(&[0x80]);
        c.extend_from_slice(&[0xff; 11]);
        assert_eq!(decompress(&c), None);
    }

    /// A deterministic byte soup that no 4-byte window of repeats for long.
    fn noise(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn a_reused_compressor_never_matches_into_an_earlier_block() {
        // The large block leaves a table full of positions; the small one
        // repeats its opening bytes, so any slot that still read as live
        // would turn up as a match the one-shot matcher cannot see.
        let mut large = b"session=abcdef0123456789;".repeat(400);
        large.extend_from_slice(&noise(70_000, 7));
        let small = &large[..300];
        let mut c = Compressor::new();
        for _ in 0..3 {
            assert_eq!(
                stream_compress(&mut c, &large, &[4096]),
                compress_reference(&large)
            );
            assert_eq!(
                stream_compress(&mut c, small, &[]),
                compress_reference(small)
            );
            assert_eq!(
                stream_compress(&mut c, b"abc", &[]),
                compress_reference(b"abc")
            );
        }
    }

    #[test]
    fn the_table_is_cleared_when_base_runs_out() {
        let data = b"the quick brown fox jumps over the quick brown fox".repeat(30);
        let mut c = Compressor::new();
        c.base = BASE_LIMIT - 100;
        // This block ends past the limit, so the next one starts over at
        // base 1 on a cleared table.
        assert_eq!(
            stream_compress(&mut c, &data, &[]),
            compress_reference(&data)
        );
        assert_eq!(c.base, 1);
        assert!(c.table.iter().all(|slot| *slot == EMPTY));
        assert_eq!(
            stream_compress(&mut c, &data, &[7]),
            compress_reference(&data)
        );
    }

    /// Inputs of the four kinds the write path compresses: repetitive log
    /// text, noise, an already-compressed stream, and a few bytes.
    fn arb_input() -> impl Strategy<Value = Vec<u8>> {
        let text = proptest::collection::vec("[a-f]{1,10}", 0..600)
            .prop_map(|words| words.join("|").into_bytes());
        prop_oneof![
            text.clone().boxed(),
            proptest::collection::vec(any::<u8>(), 0..6000).boxed(),
            text.prop_map(|t| compress_reference(&t)).boxed(),
            proptest::collection::vec(any::<u8>(), 0..9).boxed(),
            // Long runs: matches at the token cap and overlapping copies.
            (any::<u8>(), 0usize..3000)
                .prop_map(|(b, n)| vec![b; n])
                .boxed(),
        ]
    }

    proptest! {
        /// One core behind both entry points, and it is the matcher as
        /// first written: same bytes on every kind of input, however the
        /// input is chunked, from a compressor that has sealed other
        /// blocks before.
        #[test]
        fn both_entry_points_equal_the_reference_matcher(
            first in arb_input(),
            second in arb_input(),
            chunks in proptest::collection::vec(1usize..700, 0..12),
        ) {
            let mut c = Compressor::new();
            for data in [&first, &second, &first] {
                let expected = compress_reference(data);
                prop_assert_eq!(&compress(data), &expected);
                prop_assert_eq!(&stream_compress(&mut c, data, &chunks), &expected);
                prop_assert_eq!(decompress(&expected).as_deref(), Some(&data[..]));
            }
        }
    }

    proptest! {
        #[test]
        fn random_round_trips(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            round_trip(&data);
        }

        #[test]
        fn structured_round_trips(
            words in proptest::collection::vec("[a-e]{1,8}", 0..256)
        ) {
            let data = words.join(":").into_bytes();
            round_trip(&data);
        }

        /// The tentpole equivalence claim: any input, chunked any way,
        /// streams to the exact bytes of the one-shot compressor — per
        /// block, across reuse of one compressor.
        #[test]
        fn streaming_equals_one_shot_under_random_chunking(
            words in proptest::collection::vec("[a-f]{1,10}", 0..512),
            chunks in proptest::collection::vec(1usize..400, 0..24),
        ) {
            let data = words.join("|").into_bytes();
            let mut c = Compressor::new();
            let streamed = stream_compress(&mut c, &data, &chunks);
            prop_assert_eq!(&streamed, &compress(&data));
            prop_assert_eq!(decompress(&streamed).as_deref(), Some(&data[..]));
            // Reuse after reset must stay equivalent as well.
            let again = stream_compress(&mut c, &data, &[3]);
            prop_assert_eq!(&again, &compress(&data));
        }

        /// Hostile input: arbitrary bytes must never panic, and any output
        /// accepted must respect the declared length — including the
        /// buffer's capacity (no over-allocation past the header's claim).
        #[test]
        fn hostile_streams_never_panic_or_overallocate(
            data in proptest::collection::vec(any::<u8>(), 0..512)
        ) {
            if let Some(out) = decompress(&data) {
                let mut pos = 0;
                let declared = read_varint(&data, &mut pos).unwrap() as usize;
                prop_assert_eq!(out.len(), declared);
                prop_assert!(out.capacity() <= declared.max(DECOMPRESS_PREALLOC));
            }
        }

        /// Every strict truncation of a valid stream is rejected: tokens
        /// only ever add output, so a cut stream can never reach the
        /// declared length.
        #[test]
        fn truncations_of_valid_streams_are_rejected(
            words in proptest::collection::vec("[a-d]{1,6}", 1..128)
        ) {
            let data = words.join(":").into_bytes();
            let c = compress(&data);
            for cut in 0..c.len() {
                prop_assert_eq!(decompress(&c[..cut]), None, "cut at {}", cut);
            }
        }
    }
}
