//! The workspace's two non-cryptographic hashes.
//!
//! FNV-1a is the *identity* hash: file digests and zone-map tags here,
//! shard routing, sketch hashing, pseudonyms and A/B buckets in the crates
//! above — values that are recorded, compared across runs, or small. It
//! goes a byte at a time, which is the wrong shape for the one job that
//! runs over every stored byte on every cold read: block integrity. That
//! job is [`block_checksum`]'s.

/// The standard 64-bit FNV offset basis: the state [`fnv1a64`] starts from.
pub const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running FNV-1a state. Start from
/// [`FNV1A64_OFFSET`] (or a keyed variant of it) and chain calls to hash a
/// sequence of slices as if they were concatenated.
pub fn fnv1a64_fold(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

/// FNV-1a 64-bit hash of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_fold(FNV1A64_OFFSET, bytes)
}

/// One odd multiplier per lane (the 64-bit primes xxHash and FNV made
/// familiar): distinct, so the lanes are distinct functions of their words.
const LANE_PRIMES: [u64; 4] = [
    0x9E37_79B1_85EB_CA87,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x85EB_CA77_C2B2_AE63,
];

/// The integrity checksum of a stored block, a row-group header or a column
/// chunk: what a cold read verifies before it decodes anything.
///
/// Four independent multiply–rotate lanes each consume every fourth 8-byte
/// little-endian word (`s = rotl((s ^ w) · p, 29)`), so the four multiplies
/// of a 32-byte stripe overlap in the pipeline; the tail is zero-padded to
/// a whole stripe and the length is folded in at the end, so padding never
/// aliases. Every lane step is a bijection of the lane's state and of the
/// word, and the final mix is a bijection of each lane and of the length,
/// so a change confined to one word (any single-bit flip) or to the length
/// alone (a truncation of trailing zeros) always changes the result;
/// anything wider is caught with the usual 2⁻⁶⁴ odds. Not keyed, not
/// cryptographic: it guards against damage, not against an adversary.
pub fn block_checksum(bytes: &[u8]) -> u64 {
    fn stripe(lanes: &mut [u64; 4], stripe: &[u8; 32]) {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let word = u64::from_le_bytes(stripe[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
            *lane = (*lane ^ word).wrapping_mul(LANE_PRIMES[i]).rotate_left(29);
        }
    }
    let mut lanes = LANE_PRIMES;
    let mut stripes = bytes.chunks_exact(32);
    for s in &mut stripes {
        stripe(&mut lanes, s.try_into().expect("32 bytes"));
    }
    let tail = stripes.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; 32];
        padded[..tail.len()].copy_from_slice(tail);
        stripe(&mut lanes, &padded);
    }
    let mut h = (bytes.len() as u64).wrapping_mul(LANE_PRIMES[0]);
    for (lane, turn) in lanes.iter().zip([1, 7, 12, 18]) {
        h = (h ^ lane.rotate_left(turn)).wrapping_mul(LANE_PRIMES[2]);
    }
    // Avalanche, so the high bits of the last lane reach the low bits.
    h ^= h >> 33;
    h = h.wrapping_mul(LANE_PRIMES[1]);
    h ^ (h >> 29)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn folding_in_pieces_equals_hashing_the_concatenation() {
        let h = fnv1a64_fold(fnv1a64(b"foo"), b"bar");
        assert_eq!(h, fnv1a64(b"foobar"));
    }

    #[test]
    fn block_checksum_is_pinned_and_tells_padding_from_data() {
        // Stored in every block footer and group header: a change to the
        // function is a format change, so its values are recorded.
        for (bytes, sum) in [
            (&b""[..], 2451789347848323252),
            (b"a", 1128054673246779701),
            (&[7u8; 100], 14462259650086646080),
        ] {
            assert_eq!(block_checksum(bytes), sum, "{bytes:?}");
        }
        let zeros = [0u8; 64];
        let sums: Vec<u64> = (0..=64).map(|n| block_checksum(&zeros[..n])).collect();
        for (i, a) in sums.iter().enumerate() {
            assert!(sums[..i].iter().all(|b| a != b), "{i} zero bytes alias");
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn any_single_bit_flip_changes_the_checksum(
                mut bytes in proptest::collection::vec(any::<u8>(), 1..300),
                at in any::<prop::sample::Index>(),
                bit in 0u8..8,
            ) {
                let before = block_checksum(&bytes);
                let at = at.index(bytes.len());
                bytes[at] ^= 1 << bit;
                prop_assert_ne!(block_checksum(&bytes), before);
            }

            #[test]
            fn any_truncation_changes_the_checksum(
                bytes in proptest::collection::vec(any::<u8>(), 1..300),
                keep in any::<prop::sample::Index>(),
            ) {
                let keep = keep.index(bytes.len());
                prop_assert_ne!(block_checksum(&bytes[..keep]), block_checksum(&bytes));
            }

            #[test]
            fn swapping_two_distinct_aligned_words_changes_the_checksum(
                mut words in proptest::collection::vec(any::<u64>(), 2..40),
                a in any::<prop::sample::Index>(),
                b in any::<prop::sample::Index>(),
                tail in proptest::collection::vec(any::<u8>(), 0..8),
            ) {
                let (a, b) = (a.index(words.len()), b.index(words.len()));
                if words[a] == words[b] {
                    return; // not a swap of distinct words
                }
                let bytes = |words: &[u64]| {
                    let mut out: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
                    out.extend_from_slice(&tail);
                    out
                };
                let before = block_checksum(&bytes(&words));
                words.swap(a, b);
                prop_assert_ne!(block_checksum(&bytes(&words)), before);
            }
        }
    }
}
