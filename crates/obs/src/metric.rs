//! Metric primitives: counters, gauges, and log-linear histograms.
//!
//! All three are cheap `Arc`-backed handles: cloning a handle clones a
//! pointer, and every mutation is either a single atomic RMW (counters,
//! gauges) or one short mutex hold (histograms). The registry keeps one
//! clone of each handle for snapshots; instrumented components keep the
//! other and update it without ever touching the registry again.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::lock;

/// A monotonically increasing event count.
///
/// `set_total` exists for counters whose total a component keeps in its own
/// fields ([`crate::Mirror`] writes it) and for resets.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A counter not attached to any registry (private accounting).
    pub fn detached() -> Counter {
        Counter::default()
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Overwrites the total — for mirroring a cumulative value computed by
    /// a single authoritative source, and for resets.
    pub fn set_total(&self, n: u64) {
        self.value.store(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A point-in-time level (buffer depth, queue length).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// A gauge not attached to any registry.
    pub fn detached() -> Gauge {
        Gauge::default()
    }

    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjusts the level by `d`.
    pub fn adjust(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    /// Raises the level to `v` if it is higher than the current value — a
    /// monotone high-water mark. Used by the memory accounting: operators
    /// report their tracked buffer bytes and the gauge keeps the peak, so
    /// the exported value is deterministic no matter how many times (or in
    /// what interleaving) the watermark is reported.
    pub fn raise(&self, v: i64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// The current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Total number of histogram buckets (see [`bucket_index`]).
pub const BUCKETS: u32 = 256;

/// Values below this are their own exact bucket; above, buckets are
/// log-linear: one power of two split into four linear sub-buckets.
const LINEAR_CUTOFF: u64 = 16;

/// Maps a sample to its bucket index.
///
/// The scheme is log-linear (HdrHistogram-style, coarse): values `0..16`
/// get exact singleton buckets; from 16 up, each power-of-two range
/// `[2^e, 2^(e+1))` is split into 4 equal linear sub-buckets. Every `u64`
/// maps to one of [`BUCKETS`] indexes, relative error is bounded by 25%,
/// and the mapping is monotonic.
pub fn bucket_index(v: u64) -> u32 {
    if v < LINEAR_CUTOFF {
        return v as u32;
    }
    let exp = 63 - v.leading_zeros();
    let sub = ((v >> (exp - 2)) & 3) as u32;
    LINEAR_CUTOFF as u32 + (exp - 4) * 4 + sub
}

/// Inclusive `[lo, hi]` value range of a bucket index.
pub fn bucket_bounds(index: u32) -> (u64, u64) {
    if (index as u64) < LINEAR_CUTOFF {
        return (index as u64, index as u64);
    }
    let exp = (index - LINEAR_CUTOFF as u32) / 4 + 4;
    let sub = ((index - LINEAR_CUTOFF as u32) % 4) as u64;
    let width = 1u64 << (exp - 2);
    let lo = (1u64 << exp) + sub * width;
    (lo, lo.saturating_add(width - 1))
}

/// Aggregate state behind a histogram handle. Buckets are sparse: only
/// indexes that received samples are stored.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct HistData {
    /// bucket index → sample count, sorted by construction (BTreeMap).
    buckets: std::collections::BTreeMap<u32, u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// A log-linear-bucket histogram of `u64` samples.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    data: Arc<Mutex<HistData>>,
}

impl Histogram {
    /// A histogram not attached to any registry.
    pub fn detached() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        let mut d = lock(&self.data);
        *d.buckets.entry(bucket_index(v)).or_insert(0) += 1;
        if d.count == 0 {
            d.min = v;
            d.max = v;
        } else {
            d.min = d.min.min(v);
            d.max = d.max.max(v);
        }
        d.count += 1;
        d.sum = d.sum.saturating_add(v);
    }

    /// A consistent copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let d = lock(&self.data);
        HistogramSnapshot {
            buckets: d.buckets.iter().map(|(&b, &c)| (b, c)).collect(),
            count: d.count,
            sum: d.sum,
            min: d.min,
            max: d.max,
        }
    }
}

/// An immutable histogram snapshot. Merging snapshots is associative and
/// commutative (bucket counts add, min/max fold), so per-shard histograms
/// can be combined in any order with a bit-identical result — the property
/// the determinism suite asserts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `(bucket index, sample count)` pairs, ascending by index.
    pub buckets: Vec<(u32, u64)>,
    /// Total samples.
    pub count: u64,
    /// Saturating sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Merges two snapshots into one, as if all samples of both had been
    /// recorded into a single histogram.
    pub fn merged(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        if self.count == 0 {
            return other.clone();
        }
        if other.count == 0 {
            return self.clone();
        }
        let mut buckets: std::collections::BTreeMap<u32, u64> =
            self.buckets.iter().copied().collect();
        for &(b, c) in &other.buckets {
            *buckets.entry(b).or_insert(0) += c;
        }
        HistogramSnapshot {
            buckets: buckets.into_iter().collect(),
            count: self.count + other.count,
            sum: self.sum.saturating_add(other.sum),
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counters_accumulate_and_mirror() {
        let c = Counter::detached();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        let clone = c.clone();
        clone.add(5);
        assert_eq!(c.get(), 15, "clones share the cell");
        c.set_total(100);
        assert_eq!(clone.get(), 100);
    }

    #[test]
    fn gauges_set_and_adjust() {
        let g = Gauge::detached();
        g.set(7);
        g.adjust(-10);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn bucket_mapping_is_exact_below_cutoff() {
        for v in 0..LINEAR_CUTOFF {
            assert_eq!(bucket_index(v), v as u32);
            assert_eq!(bucket_bounds(v as u32), (v, v));
        }
    }

    #[test]
    fn bucket_mapping_covers_u64() {
        assert!(bucket_index(u64::MAX) < BUCKETS);
        let mut prev = None;
        for e in 4..64 {
            for v in [1u64 << e, (1u64 << e) + 1, (1u64 << e) + (1u64 << (e - 1))] {
                let b = bucket_index(v);
                let (lo, hi) = bucket_bounds(b);
                assert!(lo <= v && v <= hi, "v={v} b={b} lo={lo} hi={hi}");
                if let Some(p) = prev {
                    assert!(b >= p, "monotonic");
                }
                prev = Some(b);
            }
        }
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::detached();
        for v in [0, 1, 1, 5, 100, 100_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 100_107);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 100_000);
        let total: u64 = s.buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 6);
    }

    proptest! {
        /// Every value lands inside its bucket's bounds.
        #[test]
        fn bucket_bounds_contain_value(v in any::<u64>()) {
            let b = bucket_index(v);
            prop_assert!(b < BUCKETS);
            let (lo, hi) = bucket_bounds(b);
            prop_assert!(lo <= v && v <= hi);
        }

        /// Merging shard snapshots is associative and commutative: any
        /// merge order over any sharding of the samples yields the same
        /// snapshot as recording everything into one histogram.
        #[test]
        fn merge_is_associative_and_commutative(
            samples in prop::collection::vec(0u64..1_000_000, 0..60),
            cuts in prop::collection::vec(0usize..60, 0..4),
        ) {
            // Reference: one histogram over all samples.
            let reference = Histogram::detached();
            for &v in &samples {
                reference.record(v);
            }
            let reference = reference.snapshot();

            // Shard at the cut points.
            let mut bounds: Vec<usize> =
                cuts.iter().map(|&c| c.min(samples.len())).collect();
            bounds.push(0);
            bounds.push(samples.len());
            bounds.sort_unstable();
            let mut shards = Vec::new();
            for w in bounds.windows(2) {
                let h = Histogram::detached();
                for &v in &samples[w[0]..w[1]] {
                    h.record(v);
                }
                shards.push(h.snapshot());
            }

            // Left fold, right fold, and reversed order must all agree.
            let left = shards
                .iter()
                .fold(HistogramSnapshot::default(), |acc, s| acc.merged(s));
            let right = shards
                .iter()
                .rev()
                .fold(HistogramSnapshot::default(), |acc, s| s.merged(&acc));
            let reversed = shards
                .iter()
                .rev()
                .fold(HistogramSnapshot::default(), |acc, s| acc.merged(s));
            prop_assert_eq!(&left, &reference);
            prop_assert_eq!(&right, &reference);
            prop_assert_eq!(&reversed, &reference);
        }
    }
}
