//! Monoid-law property tests for every dataflow sketch.
//!
//! The lambda architecture (uli-stream) and the spillable combiner both
//! rest on one algebraic fact: sketch merge is a commutative monoid whose
//! merge-of-partials is byte-identical to a single-pass accumulation.
//! These properties pin all four laws for all four sketches —
//! associativity, commutativity, identity, and merge-order invariance
//! across arbitrary random shard splits — over proptest-generated inputs.
//!
//! TopK's laws hold exactly while the distinct-key universe fits its
//! candidate capacity (the regime it is built for; the event-name domain
//! is bounded), so its generators draw keys from a pool well under
//! `TOPK_CANDIDATES`.

use proptest::prelude::*;

use uli_dataflow::sketch::{CountMin, Hll, PercentileSketch, TopK, TOPK_CANDIDATES};
use uli_dataflow::Value;

/// One generated observation, interpreted by each sketch in its own way:
/// `key` scopes identity (HLL distinct, CM/TopK key), `weight` scopes
/// magnitude (CM/TopK count, percentile sample).
type Obs = (u16, u8);

fn arb_items() -> impl Strategy<Value = Vec<Obs>> {
    prop::collection::vec((0u16..120, 1u8..40), 0..400)
}

fn key_bytes(key: u16) -> Vec<u8> {
    format!("key-{key}").into_bytes()
}

/// Deterministically splits items into `shards` piles and returns the
/// piles in a seed-shuffled merge order — the adversary every monoid
/// merge must shrug off.
fn sharded(items: &[Obs], shards: usize, seed: u64) -> Vec<Vec<Obs>> {
    let mut piles = vec![Vec::new(); shards];
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for &item in items {
        let p = next() as usize % shards;
        piles[p].push(item);
    }
    // Fisher-Yates over the merge order.
    for i in (1..piles.len()).rev() {
        let j = next() as usize % (i + 1);
        piles.swap(i, j);
    }
    piles
}

/// Pins all four monoid laws for one sketch type, given a fold function
/// and an identity constructor.
fn assert_monoid_laws<S, F, I>(
    items: &[Obs],
    split: (usize, usize),
    shards: usize,
    seed: u64,
    identity: I,
    fold: F,
) where
    S: Clone + PartialEq + std::fmt::Debug,
    F: Fn(&[Obs]) -> S,
    I: Fn() -> S,
    S: Mergeable,
{
    let single_pass = fold(items);

    // Identity, both sides.
    let mut left = identity();
    left.merge_from(&single_pass);
    prop_assert_eq!(&left, &single_pass, "left identity violated");
    let mut right = single_pass.clone();
    right.merge_from(&identity());
    prop_assert_eq!(&right, &single_pass, "right identity violated");

    // Associativity and commutativity over a generated three-way split.
    let (i, j) = (
        split.0.min(items.len()),
        (split.0 + split.1).min(items.len()),
    );
    let (a, b, c) = (fold(&items[..i]), fold(&items[i..j]), fold(&items[j..]));
    let mut ab_c = a.clone();
    ab_c.merge_from(&b);
    ab_c.merge_from(&c);
    let mut bc = b.clone();
    bc.merge_from(&c);
    let mut a_bc = a.clone();
    a_bc.merge_from(&bc);
    prop_assert_eq!(&ab_c, &a_bc, "associativity violated");
    prop_assert_eq!(&ab_c, &single_pass, "merge-of-partials != single pass");
    let mut ba = b.clone();
    ba.merge_from(&a);
    let mut ab = a;
    ab.merge_from(&b);
    prop_assert_eq!(&ab, &ba, "commutativity violated");

    // Merge-order invariance across a random shard split.
    let mut merged = identity();
    for pile in sharded(items, shards, seed) {
        merged.merge_from(&fold(&pile));
    }
    prop_assert_eq!(&merged, &single_pass, "shard-split merge diverged");
}

/// Uniform merge access for the law harness.
trait Mergeable {
    fn merge_from(&mut self, other: &Self);
}

impl Mergeable for Hll {
    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }
}
impl Mergeable for PercentileSketch {
    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }
}
impl Mergeable for CountMin {
    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }
}
impl Mergeable for TopK {
    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hll_is_a_commutative_monoid(
        items in arb_items(),
        split in (0usize..200, 0usize..200),
        shards in 1usize..9,
        seed in any::<u64>(),
    ) {
        assert_monoid_laws(
            &items,
            split,
            shards,
            seed,
            Hll::new,
            |obs| {
                let mut h = Hll::new();
                for (key, _) in obs {
                    h.insert(&Value::Int(*key as i64));
                }
                h
            },
        );
    }

    #[test]
    fn percentile_sketch_is_a_commutative_monoid(
        items in arb_items(),
        split in (0usize..200, 0usize..200),
        shards in 1usize..9,
        seed in any::<u64>(),
    ) {
        assert_monoid_laws(
            &items,
            split,
            shards,
            seed,
            PercentileSketch::new,
            |obs| {
                let mut p = PercentileSketch::new();
                for (key, weight) in obs {
                    // Spread samples over several orders of magnitude so
                    // many log-linear buckets participate.
                    p.record(*key as u64 * *weight as u64 + 1);
                }
                p
            },
        );
    }

    #[test]
    fn count_min_is_a_commutative_monoid(
        items in arb_items(),
        split in (0usize..200, 0usize..200),
        shards in 1usize..9,
        seed in any::<u64>(),
    ) {
        assert_monoid_laws(
            &items,
            split,
            shards,
            seed,
            CountMin::new,
            |obs| {
                let mut cm = CountMin::new();
                for (key, weight) in obs {
                    cm.add(&key_bytes(*key), *weight as u64);
                }
                cm
            },
        );
    }

    #[test]
    fn topk_is_a_commutative_monoid_within_capacity(
        items in arb_items(),
        split in (0usize..200, 0usize..200),
        shards in 1usize..9,
        seed in any::<u64>(),
        k in 1usize..12,
    ) {
        // The generator's key pool (120) stays far below the candidate
        // capacity, the exact-merge regime the streaming layer runs in.
        prop_assert!(120 < TOPK_CANDIDATES);
        assert_monoid_laws(
            &items,
            split,
            shards,
            seed,
            || TopK::new(k),
            |obs| {
                let mut t = TopK::new(k);
                for (key, weight) in obs {
                    t.add(&key_bytes(*key), *weight as u64);
                }
                t
            },
        );
    }

    /// A batch the tracker admits, added at once, is the batch added key
    /// by key — into an empty tracker, which takes the batch's keys as its
    /// candidates, and into one that already holds some.
    #[test]
    fn topk_adds_an_admitted_batch_as_it_adds_its_keys(
        before in arb_items(),
        batch in arb_items(),
        k in 1usize..12,
    ) {
        let mut counts: std::collections::BTreeMap<Vec<u8>, u64> = Default::default();
        for (key, weight) in &batch {
            *counts.entry(key_bytes(*key)).or_default() += u64::from(*weight);
        }
        let counts: Vec<(&[u8], u64)> = counts.iter().map(|(k, n)| (k.as_slice(), *n)).collect();
        let mut at_once = TopK::new(k);
        for (key, weight) in &before {
            at_once.add(&key_bytes(*key), u64::from(*weight));
        }
        let mut key_by_key = at_once.clone();
        prop_assert!(at_once.admits(counts.iter().map(|(key, _)| *key)));
        at_once.add_admitted(&counts);
        for (key, n) in &counts {
            key_by_key.add(key, *n);
        }
        prop_assert_eq!(at_once, key_by_key);
    }
}
