//! LEB128 varints and zigzag integer coding.
//!
//! The compact protocol stores all integers as unsigned LEB128 varints;
//! signed integers are first zigzag-mapped so that small magnitudes (positive
//! or negative) encode in few bytes. These are the same primitives the
//! session-sequence dictionary relies on for variable-length coding.

use crate::error::{ThriftError, ThriftResult};

/// Maximum number of bytes a 64-bit varint may occupy.
pub const MAX_VARINT_LEN: usize = 10;

/// Appends `value` to `out` as an unsigned LEB128 varint.
///
/// Returns the number of bytes written (1..=10).
pub fn write_u64(out: &mut Vec<u8>, mut value: u64) -> usize {
    let mut n = 0;
    loop {
        n += 1;
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return n;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a zigzag-encoded signed varint.
pub fn write_i64(out: &mut Vec<u8>, value: i64) -> usize {
    write_u64(out, zigzag_encode(value))
}

/// Decodes an unsigned LEB128 varint from the front of `input`.
///
/// Returns the decoded value and the number of bytes consumed.
#[inline]
pub fn read_u64(input: &[u8]) -> ThriftResult<(u64, usize)> {
    match input.first() {
        Some(&byte) if byte < 0x80 => Ok((u64::from(byte), 1)),
        _ => read_u64_multibyte(input),
    }
}

/// [`read_u64`] of a varint longer than one byte, or of no byte at all.
fn read_u64_multibyte(input: &[u8]) -> ThriftResult<(u64, usize)> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in input.iter().enumerate() {
        if i >= MAX_VARINT_LEN {
            return Err(ThriftError::VarintOverflow);
        }
        let low = u64::from(byte & 0x7f);
        // The 10th byte may only contribute a single bit.
        if shift == 63 && low > 1 {
            return Err(ThriftError::VarintOverflow);
        }
        value |= low << shift;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(ThriftError::UnexpectedEof { reading: "varint" })
}

/// Decodes a zigzag-encoded signed varint from the front of `input`.
#[inline]
pub fn read_i64(input: &[u8]) -> ThriftResult<(i64, usize)> {
    let (raw, n) = read_u64(input)?;
    Ok((zigzag_decode(raw), n))
}

/// Maps a signed integer onto an unsigned one with small absolute values
/// mapping to small codes: 0 → 0, -1 → 1, 1 → 2, -2 → 3, …
#[inline]
pub fn zigzag_encode(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
#[inline]
pub fn zigzag_decode(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Number of bytes [`write_u64`] would emit for `value`, without writing.
#[inline]
pub fn encoded_len_u64(value: u64) -> usize {
    // 64 - leading_zeros is the bit width; ceil(width / 7) bytes, min 1.
    let bits = 64 - value.leading_zeros() as usize;
    core::cmp::max(1, bits.div_ceil(7))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn small_values_are_one_byte() {
        for v in 0..128u64 {
            let mut buf = Vec::new();
            assert_eq!(write_u64(&mut buf, v), 1);
            assert_eq!(read_u64(&buf).unwrap(), (v, 1));
        }
    }

    #[test]
    fn boundary_values_round_trip() {
        for v in [127u64, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            let n = write_u64(&mut buf, v);
            assert_eq!(n, encoded_len_u64(v));
            assert_eq!(read_u64(&buf).unwrap(), (v, n));
        }
    }

    #[test]
    fn zigzag_maps_small_magnitudes_to_small_codes() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
        assert_eq!(zigzag_encode(i64::MIN), u64::MAX);
    }

    #[test]
    fn truncated_input_is_eof() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            assert!(matches!(
                read_u64(&buf[..cut]),
                Err(ThriftError::UnexpectedEof { .. })
            ));
        }
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // Eleven continuation bytes can never be a valid u64 varint.
        let buf = [0xffu8; 11];
        assert_eq!(read_u64(&buf), Err(ThriftError::VarintOverflow));
        // A 10-byte varint whose final byte has more than one significant bit
        // would overflow 64 bits.
        let mut buf = vec![0x80u8; 9];
        buf.push(0x02);
        assert_eq!(read_u64(&buf), Err(ThriftError::VarintOverflow));
    }

    proptest! {
        #[test]
        fn u64_round_trips(v in any::<u64>()) {
            let mut buf = Vec::new();
            let n = write_u64(&mut buf, v);
            prop_assert_eq!(buf.len(), n);
            prop_assert_eq!(read_u64(&buf).unwrap(), (v, n));
        }

        #[test]
        fn i64_round_trips(v in any::<i64>()) {
            let mut buf = Vec::new();
            let n = write_i64(&mut buf, v);
            prop_assert_eq!(read_i64(&buf).unwrap(), (v, n));
        }

        #[test]
        fn zigzag_is_bijective(v in any::<i64>()) {
            prop_assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }

        #[test]
        fn encoded_len_matches(v in any::<u64>()) {
            let mut buf = Vec::new();
            let n = write_u64(&mut buf, v);
            prop_assert_eq!(encoded_len_u64(v), n);
        }
    }
}
