//! Unsigned LEB128 varints: the length prefix of every record, column
//! chunk and cell the warehouse frames.

/// Encodes `v`, returning the bytes in a stack array plus how many of them
/// are used — the record-append hot path writes them straight into the
/// block compressor without an intermediate heap buffer.
pub(crate) fn encode_varint(mut v: u64) -> ([u8; 10], usize) {
    let mut buf = [0u8; 10];
    let mut n = 0;
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf[n] = b;
            return (buf, n + 1);
        }
        buf[n] = b | 0x80;
        n += 1;
    }
}

/// How many bytes [`encode_varint`] uses for `v`.
pub(crate) fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Appends `v` to `out`.
pub(crate) fn write_varint(out: &mut Vec<u8>, v: u64) {
    let (buf, n) = encode_varint(v);
    out.extend_from_slice(&buf[..n]);
}

/// Decodes one varint at `*pos`, advancing it. `None` on truncation or an
/// encoding that holds more than a `u64` can (an eleventh byte, or a tenth
/// carrying more than the one bit left) — the rule of `uli_thrift::varint`,
/// so a cell means the same to every reader.
pub(crate) fn read_varint(input: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *input.get(*pos)?;
        *pos += 1;
        if shift == 63 && b & 0x7f > 1 {
            return None;
        }
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
