//! FNV-1a, the one non-cryptographic hash the workspace uses: block
//! checksums and file digests here, shard routing, sketch hashing,
//! pseudonyms and A/B buckets in the crates above.

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
}
