//! Bounded-memory aggregate sketches: HyperLogLog distinct counts,
//! log-linear-bucket percentiles, Count-Min frequency estimates, and a
//! Count-Min-backed TopK heavy-hitter tracker.
//!
//! Exact DISTINCT and exact percentiles are *holistic* — their state grows
//! with the number of distinct inputs, which is exactly the O(day)
//! structure the bounded-memory work bans. The sketches here are
//! fixed-size (HLL 4 KiB, percentiles 2 KiB, Count-Min 16 KiB), and all
//! merge **deterministically**: the merge is commutative, associative, and
//! idempotent-friendly (register max / bucket add / counter add), so
//! map-side partials combined in any grouping produce the same final
//! state as a single serial pass. That determinism is what lets the
//! approximate plan nodes ride the existing parallel-combine machinery
//! without violating the engine's byte-identical-across-workers contract,
//! and what lets the streaming layer (`uli-stream`) converge shard states
//! in arbitrary merge order.
//!
//! The percentile sketch reuses `uli-obs`'s log-linear bucket layout
//! ([`uli_obs::metric::bucket_index`]): 256 buckets, exact below 16, four
//! linear sub-buckets per octave, ≤ 25% relative error per bucket.

use std::collections::BTreeSet;

use uli_warehouse::{fnv1a64_fold, FNV1A64_OFFSET};

use crate::value::Value;

/// Precision: 2^12 = 4096 registers, ~1.6% relative standard error.
const HLL_P: u32 = 12;
/// Number of HLL registers.
pub const HLL_REGISTERS: usize = 1 << HLL_P;

/// FNV-1a 64-bit over a byte slice, with a murmur3-style finalizer. Plain
/// FNV's high bits barely move when inputs differ only in trailing bytes
/// (e.g. small consecutive ints), and HLL takes its register index from the
/// top bits — the finalizer's shift-xor-multiply rounds avalanche every
/// input bit across the whole word. Deterministic and dependency-free.
fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_seeded(FNV1A64_OFFSET, bytes)
}

/// FNV-1a with a caller-chosen offset basis, for families of independent
/// hash functions (one per Count-Min row). Same finalizer as [`fnv1a`].
fn fnv1a_seeded(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = fnv1a64_fold(seed, bytes);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// A HyperLogLog distinct-count sketch (p = 12, 4096 one-byte registers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hll {
    registers: Vec<u8>,
}

impl Default for Hll {
    fn default() -> Self {
        Hll::new()
    }
}

impl Hll {
    /// An empty sketch.
    pub fn new() -> Hll {
        Hll {
            registers: vec![0u8; HLL_REGISTERS],
        }
    }

    /// Folds in one value. Values hash via their wire encoding, so any two
    /// equal `Value`s (including across clones) collide by construction.
    pub fn insert(&mut self, v: &Value) {
        // An integer — a user id, the common distinct-count key — is hashed
        // from the stack.
        if let Value::Int(i) = v {
            return self.insert_hash(fnv1a(&crate::wire::encode_int(*i)));
        }
        let mut bytes = Vec::with_capacity(16);
        crate::wire::encode_value(v, &mut bytes);
        self.insert_hash(fnv1a(&bytes));
    }

    /// Folds in a pre-computed 64-bit hash.
    pub fn insert_hash(&mut self, hash: u64) {
        let idx = (hash >> (64 - HLL_P)) as usize;
        let rest = hash << HLL_P;
        // Rank: position of the first 1-bit in the remaining 52 bits.
        let rank = (rest.leading_zeros().min(64 - HLL_P) + 1) as u8;
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Merges another sketch in (register-wise max): commutative,
    /// associative, and exactly equal to having inserted both input
    /// streams into one sketch.
    pub fn merge(&mut self, other: &Hll) {
        for (a, b) in self.registers.iter_mut().zip(&other.registers) {
            if *b > *a {
                *a = *b;
            }
        }
    }

    /// The cardinality estimate, with linear-counting correction for the
    /// small range.
    pub fn estimate(&self) -> u64 {
        let m = HLL_REGISTERS as f64;
        let alpha = 0.7213 / (1.0 + 1.079 / m);
        let sum: f64 = self.registers.iter().map(|&r| 2f64.powi(-(r as i32))).sum();
        let raw = alpha * m * m / sum;
        let zeros = self.registers.iter().filter(|&&r| r == 0).count();
        if raw <= 2.5 * m && zeros > 0 {
            // Linear counting dominates in the small range.
            (m * (m / zeros as f64).ln()).round() as u64
        } else {
            raw.round() as u64
        }
    }

    /// Fixed-size serialization (the raw registers) for spill run files.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.registers.clone()
    }

    /// Inverse of [`Hll::to_bytes`]; `None` when the length is wrong.
    pub fn from_bytes(bytes: &[u8]) -> Option<Hll> {
        if bytes.len() != HLL_REGISTERS {
            return None;
        }
        Some(Hll {
            registers: bytes.to_vec(),
        })
    }

    /// Deterministic memory cost charged against the operator budget.
    pub fn cost_bytes() -> u64 {
        HLL_REGISTERS as u64
    }
}

/// A fixed-size percentile sketch over the `uli-obs` log-linear buckets.
///
/// Samples are taken as non-negative integers (doubles round, negatives
/// clamp to zero — the intended domain is latencies/sizes/counts). The
/// quantile estimate is the **upper bound** of the bucket holding the
/// target rank, so it never under-reports and over-reports by at most the
/// bucket width (≤ 25% relative).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PercentileSketch {
    counts: Vec<u64>,
    total: u64,
}

impl Default for PercentileSketch {
    fn default() -> Self {
        PercentileSketch::new()
    }
}

impl PercentileSketch {
    /// An empty sketch.
    pub fn new() -> PercentileSketch {
        PercentileSketch {
            counts: vec![0u64; uli_obs::metric::BUCKETS as usize],
            total: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: u64) {
        self.counts[uli_obs::metric::bucket_index(sample) as usize] += 1;
        self.total += 1;
    }

    /// Records a `Value` (ints/doubles; doubles round, negatives clamp).
    pub fn record_value(&mut self, v: &Value) {
        if let Some(d) = v.as_double() {
            self.record(d.round().max(0.0) as u64);
        }
    }

    /// Merges another sketch in (element-wise add): commutative and
    /// associative.
    pub fn merge(&mut self, other: &PercentileSketch) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.total += other.total;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The value at quantile `q_bp` (basis points: 5000 = median, 9900 =
    /// p99), or `None` when empty. Returns the containing bucket's upper
    /// bound.
    pub fn quantile_bp(&self, q_bp: u32) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        // Target rank, 1-based: ceil(q * total), at least 1.
        let rank = ((self.total as u128 * q_bp as u128).div_ceil(10_000) as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(uli_obs::metric::bucket_bounds(i as u32).1);
            }
        }
        Some(uli_obs::metric::bucket_bounds(uli_obs::metric::BUCKETS - 1).1)
    }

    /// Serialization for spill run files: total then each bucket, all
    /// big-endian u64.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 * (1 + self.counts.len()));
        out.extend_from_slice(&self.total.to_be_bytes());
        for &c in &self.counts {
            out.extend_from_slice(&c.to_be_bytes());
        }
        out
    }

    /// Inverse of [`PercentileSketch::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Option<PercentileSketch> {
        let want = 8 * (1 + uli_obs::metric::BUCKETS as usize);
        if bytes.len() != want {
            return None;
        }
        let total = u64::from_be_bytes(bytes[..8].try_into().unwrap());
        let counts: Vec<u64> = bytes[8..]
            .chunks_exact(8)
            .map(|c| u64::from_be_bytes(c.try_into().unwrap()))
            .collect();
        Some(PercentileSketch { counts, total })
    }

    /// Deterministic memory cost charged against the operator budget.
    pub fn cost_bytes() -> u64 {
        8 * (1 + uli_obs::metric::BUCKETS as u64)
    }
}

/// Count-Min width: 512 counters per row. ε = e / width ≈ 0.53% of the
/// stream total is the additive over-count bound per row.
pub const CM_WIDTH: usize = 512;
/// Count-Min depth: 4 independent rows. δ = e^-depth ≈ 1.8% is the
/// probability the ε bound is exceeded.
pub const CM_DEPTH: usize = 4;

/// Per-row FNV offset bases (arbitrary distinct odd constants).
const CM_SEEDS: [u64; CM_DEPTH] = [
    FNV1A64_OFFSET,
    0x9e37_79b9_7f4a_7c15,
    0xa076_1d64_78bd_642f,
    0xe703_7ed1_a0b4_28db,
];

/// A Count-Min frequency sketch: `depth` rows of `width` counters, each
/// key hashed once per row, point query = min over rows.
///
/// Guarantees (the classic Cormode–Muthukrishnan bounds):
/// * `estimate(k)` **never under-reports**: it is ≥ the true count of `k`.
/// * With probability ≥ 1 − e^-depth (≈ 98.2%), the over-count is at most
///   (e / width) · total ≈ 0.0053 · total.
///
/// The merge is an element-wise counter add plus a total add — a
/// commutative, associative monoid with the empty sketch as identity, so
/// shard partials combine in any order to the byte-identical state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountMin {
    rows: Vec<u64>, // CM_DEPTH * CM_WIDTH, row-major
    total: u64,
}

impl Default for CountMin {
    fn default() -> Self {
        CountMin::new()
    }
}

impl CountMin {
    /// An empty sketch.
    pub fn new() -> CountMin {
        CountMin {
            rows: vec![0u64; CM_DEPTH * CM_WIDTH],
            total: 0,
        }
    }

    fn slot(row: usize, key: &[u8]) -> usize {
        row * CM_WIDTH + (fnv1a_seeded(CM_SEEDS[row], key) as usize & (CM_WIDTH - 1))
    }

    /// Adds `count` occurrences of `key`.
    pub fn add(&mut self, key: &[u8], count: u64) {
        for row in 0..CM_DEPTH {
            self.rows[CountMin::slot(row, key)] += count;
        }
        self.total += count;
    }

    /// Adds one occurrence of `key`.
    pub fn insert(&mut self, key: &[u8]) {
        self.add(key, 1);
    }

    /// Point estimate for `key`: min over the rows. Never below the true
    /// count; above it by at most ε·total with probability ≥ 1 − δ.
    pub fn estimate(&self, key: &[u8]) -> u64 {
        (0..CM_DEPTH)
            .map(|row| self.rows[CountMin::slot(row, key)])
            .min()
            .unwrap_or(0)
    }

    /// Total weight added (exact — kept alongside the counters).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The additive error bound `ε·total` that point estimates respect
    /// with probability ≥ 1 − e^-depth.
    pub fn error_bound(&self) -> u64 {
        (std::f64::consts::E / CM_WIDTH as f64 * self.total as f64).ceil() as u64
    }

    /// Merges another sketch in (element-wise add): commutative,
    /// associative, identity = empty, and exactly equal to having added
    /// both input streams into one sketch.
    pub fn merge(&mut self, other: &CountMin) {
        for (a, b) in self.rows.iter_mut().zip(&other.rows) {
            *a += *b;
        }
        self.total += other.total;
    }

    /// Deterministic memory cost charged against the operator budget.
    pub fn cost_bytes() -> u64 {
        8 * (1 + (CM_DEPTH * CM_WIDTH) as u64)
    }
}

/// Candidate-set capacity for [`TopK`]. While the number of distinct keys
/// stays at or below this (true of the bounded event-name domain TopK is
/// built for — the default workload universe is ~370 names), merges are
/// *exactly* order-invariant; past it, a deterministic prune keeps the
/// sketch bounded.
pub const TOPK_CANDIDATES: usize = 512;

/// A Count-Min-backed heavy-hitter tracker (the Algebird `TopCMS` idiom):
/// a [`CountMin`] for frequencies plus a bounded candidate key set, with
/// `top()` reading the k keys with the highest estimates.
///
/// Merge is the Count-Min merge plus candidate-set union, then a
/// deterministic prune (keep the [`TOPK_CANDIDATES`] best by
/// (estimate desc, key asc)). While distinct keys ≤ the candidate
/// capacity the union never prunes, so the merge is a commutative,
/// associative monoid with order-invariant byte-identical state — the
/// regime the monoid-law tests pin. Ranked counts inherit the Count-Min
/// bound: never under the true count, over by ≤ ε·total w.h.p.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopK {
    k: usize,
    cms: CountMin,
    candidates: BTreeSet<Vec<u8>>,
}

impl TopK {
    /// An empty tracker reporting the top `k` keys.
    pub fn new(k: usize) -> TopK {
        TopK {
            k,
            cms: CountMin::new(),
            candidates: BTreeSet::new(),
        }
    }

    /// How many keys `top()` reports.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The backing frequency sketch.
    pub fn cms(&self) -> &CountMin {
        &self.cms
    }

    /// Adds `count` occurrences of `key`.
    pub fn add(&mut self, key: &[u8], count: u64) {
        self.cms.add(key, count);
        if !self.candidates.contains(key) {
            self.candidates.insert(key.to_vec());
            self.prune();
        }
    }

    /// Adds one occurrence of `key`.
    pub fn insert(&mut self, key: &[u8]) {
        self.add(key, 1);
    }

    /// True when adding all of `keys` (distinct) leaves the candidate set
    /// within its capacity. No add of them prunes then, so they commute: any
    /// order, and `add(key, n)` for `n` adds of one, reach the same state.
    pub fn admits<'k>(&self, keys: impl IntoIterator<Item = &'k [u8]>) -> bool {
        let new = keys
            .into_iter()
            .filter(|key| !self.candidates.contains(*key))
            .count();
        self.candidates.len() + new <= TOPK_CANDIDATES
    }

    /// [`add`](Self::add)s each `(key, count)` of a batch the tracker
    /// [`admits`](Self::admits), reaching the state adding them one by one
    /// reaches. A tracker with no candidates yet takes the batch's keys as
    /// its candidate set in one go, which costs least when they come in
    /// ascending order.
    pub fn add_admitted(&mut self, counts: &[(&[u8], u64)]) {
        debug_assert!(self.admits(counts.iter().map(|(key, _)| *key)));
        if !self.candidates.is_empty() {
            counts.iter().for_each(|(key, count)| self.add(key, *count));
            return;
        }
        for (key, count) in counts {
            self.cms.add(key, *count);
        }
        self.candidates = counts.iter().map(|(key, _)| key.to_vec()).collect();
    }

    /// Merges another tracker in (same `k` expected; the larger wins so
    /// the merge stays commutative).
    pub fn merge(&mut self, other: &TopK) {
        self.k = self.k.max(other.k);
        self.cms.merge(&other.cms);
        for key in &other.candidates {
            self.candidates.insert(key.clone());
        }
        self.prune();
    }

    /// Deterministic prune: keep the best `TOPK_CANDIDATES` candidates by
    /// (estimate desc, key asc). No-op while the set fits.
    fn prune(&mut self) {
        if self.candidates.len() <= TOPK_CANDIDATES {
            return;
        }
        let mut ranked: Vec<(u64, Vec<u8>)> = self
            .candidates
            .iter()
            .map(|key| (self.cms.estimate(key), key.clone()))
            .collect();
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        ranked.truncate(TOPK_CANDIDATES);
        self.candidates = ranked.into_iter().map(|(_, key)| key).collect();
    }

    /// The top `k` (key, estimated count) pairs, highest first, ties
    /// broken by ascending key so the listing is deterministic.
    pub fn top(&self) -> Vec<(Vec<u8>, u64)> {
        let mut ranked: Vec<(Vec<u8>, u64)> = self
            .candidates
            .iter()
            .map(|key| (key.clone(), self.cms.estimate(key)))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ranked.truncate(self.k);
        ranked
    }

    /// The state as bytes, for digests: k, the Count-Min total and each
    /// counter, the candidate count, then each candidate length-prefixed
    /// (integers big-endian).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.k as u64).to_be_bytes());
        out.extend_from_slice(&self.cms.total.to_be_bytes());
        for &c in &self.cms.rows {
            out.extend_from_slice(&c.to_be_bytes());
        }
        out.extend_from_slice(&(self.candidates.len() as u64).to_be_bytes());
        for key in &self.candidates {
            out.extend_from_slice(&(key.len() as u32).to_be_bytes());
            out.extend_from_slice(key);
        }
        out
    }

    /// Memory cost: the CMS plus the bounded candidate slots (each
    /// charged one cache line's worth for the key bytes).
    pub fn cost_bytes() -> u64 {
        CountMin::cost_bytes() + (TOPK_CANDIDATES as u64) * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hll_small_counts_are_near_exact() {
        let mut h = Hll::new();
        for i in 0..100i64 {
            h.insert(&Value::Int(i));
            h.insert(&Value::Int(i)); // duplicates must not count
        }
        let est = h.estimate();
        assert!((95..=105).contains(&est), "estimate {est} for 100 distinct");
    }

    #[test]
    fn hll_error_is_bounded_at_10k_distinct() {
        let mut h = Hll::new();
        for i in 0..10_000i64 {
            h.insert(&Value::Int(i * 7919));
        }
        let est = h.estimate() as f64;
        let err = (est - 10_000.0).abs() / 10_000.0;
        assert!(
            err < 0.05,
            "relative error {err:.3} out of bounds (est {est})"
        );
    }

    #[test]
    fn hll_merge_equals_single_stream() {
        let mut all = Hll::new();
        let mut left = Hll::new();
        let mut right = Hll::new();
        for i in 0..5_000i64 {
            let v = Value::Int(i % 3_000); // overlap between halves
            all.insert(&v);
            if i % 2 == 0 {
                left.insert(&v);
            } else {
                right.insert(&v);
            }
        }
        let mut lr = left.clone();
        lr.merge(&right);
        let mut rl = right.clone();
        rl.merge(&left);
        assert_eq!(lr, all, "merge must equal single-stream state");
        assert_eq!(rl, all, "merge must be commutative");
    }

    #[test]
    fn hll_roundtrips_bytes() {
        let mut h = Hll::new();
        for i in 0..500i64 {
            h.insert(&Value::Int(i));
        }
        assert_eq!(Hll::from_bytes(&h.to_bytes()).unwrap(), h);
        assert!(Hll::from_bytes(&[0u8; 3]).is_none());
    }

    #[test]
    fn percentile_upper_bound_never_under_reports() {
        let mut s = PercentileSketch::new();
        let samples: Vec<u64> = (1..=1000).map(|i| i * 13 % 4096).collect();
        for &v in &samples {
            s.record(v);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q_bp in [5000u32, 9500, 9900] {
            let rank = ((sorted.len() as u64 * q_bp as u64).div_ceil(10_000)).max(1) as usize;
            let exact = sorted[rank - 1];
            let est = s.quantile_bp(q_bp).unwrap();
            assert!(est >= exact, "q{q_bp}: est {est} < exact {exact}");
            assert!(
                est as f64 <= exact as f64 * 1.25 + 1.0,
                "q{q_bp}: est {est} above 25% bound of exact {exact}"
            );
        }
    }

    #[test]
    fn percentile_merge_matches_single_sketch() {
        let mut all = PercentileSketch::new();
        let mut a = PercentileSketch::new();
        let mut b = PercentileSketch::new();
        for i in 0..2_000u64 {
            let v = (i * 31) % 10_000;
            all.record(v);
            if i % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, all);
        assert_eq!(ba, all);
    }

    #[test]
    fn percentile_roundtrips_bytes_and_handles_empty() {
        let empty = PercentileSketch::new();
        assert_eq!(empty.quantile_bp(5000), None);
        let mut s = PercentileSketch::new();
        s.record(42);
        s.record(7);
        assert_eq!(PercentileSketch::from_bytes(&s.to_bytes()).unwrap(), s);
        assert!(PercentileSketch::from_bytes(&[1, 2, 3]).is_none());
    }

    #[test]
    fn countmin_never_under_reports_and_respects_bound() {
        let mut cm = CountMin::new();
        let mut truth = std::collections::BTreeMap::new();
        for i in 0..20_000u64 {
            // Zipf-ish: low keys are hot.
            let key = format!("key-{}", (i * i + i) % 97 % (1 + i % 40));
            cm.insert(key.as_bytes());
            *truth.entry(key).or_insert(0u64) += 1;
        }
        assert_eq!(cm.total(), 20_000);
        let bound = cm.error_bound();
        let mut violations = 0usize;
        for (key, &count) in &truth {
            let est = cm.estimate(key.as_bytes());
            assert!(est >= count, "{key}: est {est} < true {count}");
            if est > count + bound {
                violations += 1;
            }
        }
        // δ ≈ 1.8% per key; allow a small absolute slack over the keyset.
        assert!(
            violations <= truth.len() / 10,
            "{violations}/{} keys above the ε bound",
            truth.len()
        );
    }

    #[test]
    fn countmin_merge_equals_single_stream() {
        let mut all = CountMin::new();
        let mut a = CountMin::new();
        let mut b = CountMin::new();
        for i in 0..5_000u64 {
            let key = format!("k{}", i % 137);
            all.insert(key.as_bytes());
            if i % 2 == 0 {
                a.insert(key.as_bytes());
            } else {
                b.insert(key.as_bytes());
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, all);
        assert_eq!(ba, all);
    }

    #[test]
    fn topk_finds_heavy_hitters_exactly_on_skewed_stream() {
        let mut t = TopK::new(3);
        // 3 heavy keys far above the noise floor, 50 light keys.
        for _ in 0..5_000 {
            t.insert(b"hot-a");
        }
        for _ in 0..3_000 {
            t.insert(b"hot-b");
        }
        for _ in 0..2_000 {
            t.insert(b"hot-c");
        }
        for i in 0..50u64 {
            for _ in 0..10 {
                t.insert(format!("cold-{i}").as_bytes());
            }
        }
        let top = t.top();
        let names: Vec<&[u8]> = top.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(names, vec![&b"hot-a"[..], &b"hot-b"[..], &b"hot-c"[..]]);
        let bound = t.cms().error_bound();
        for ((_, est), truth) in top.iter().zip([5_000u64, 3_000, 2_000]) {
            assert!(*est >= truth && *est <= truth + bound);
        }
    }

    #[test]
    fn topk_merge_is_order_invariant_within_capacity() {
        let build = |range: std::ops::Range<u64>| {
            let mut t = TopK::new(5);
            for i in range {
                t.add(format!("name-{}", i % 60).as_bytes(), 1 + i % 7);
            }
            t
        };
        let (a, b, c) = (build(0..400), build(400..900), build(900..1500));
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut c_ba = c.clone();
        let mut ba = b.clone();
        ba.merge(&a);
        c_ba.merge(&ba);
        assert_eq!(ab_c, c_ba, "merge must be associative + commutative");
        let mut whole = build(0..1500);
        whole.k = 5;
        assert_eq!(ab_c, whole, "merged shards must equal the single pass");
    }

    #[test]
    fn topk_prunes_deterministically_past_capacity() {
        let mut t = TopK::new(4);
        for _ in 0..100 {
            t.insert(b"keeper");
        }
        for i in 0..(TOPK_CANDIDATES as u64 + 200) {
            t.insert(format!("flood-{i}").as_bytes());
        }
        assert!(t.candidates.len() <= TOPK_CANDIDATES);
        assert_eq!(t.top()[0].0, b"keeper".to_vec());
    }
}
