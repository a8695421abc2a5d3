//! Framing for staged files.
//!
//! Aggregators wrap every record they flush in a small envelope carrying the
//! [`EntryId`] the host daemon stamped, so the log mover can deduplicate
//! entries that network faults delivered more than once. Envelopes never
//! reach the main warehouse: the mover strips them during the merge, which
//! keeps downstream readers (the materializer, the analytics jobs) oblivious
//! to delivery bookkeeping.
//!
//! A framed file announces itself with a magic first record; files without
//! it (hand-written fixtures, pre-envelope data) are passed through as raw
//! payloads. That keeps the format self-describing without a per-record
//! heuristic.

use crate::message::EntryId;

/// First record of every framed staging file. Starts with a 0 byte so no
/// Thrift-encoded payload (whose first byte is a field-type tag ≥ 1 or an
/// empty struct stop byte in a non-colliding position) is mistaken for it.
pub const MAGIC: &[u8] = b"\0ULI-STAGED-v1";

/// Envelope tag: record carries an [`EntryId`].
const TAG_STAMPED: u8 = 1;
/// Envelope tag: record has no id (entry was injected without a daemon).
const TAG_RAW: u8 = 0;

/// Appends the staged-file envelope for one payload to `out` — the
/// allocation-free form: callers flushing a stream of records keep a single
/// scratch buffer (clearing it between records) instead of paying one `Vec`
/// per record. Appends exactly the bytes [`encode`] would return.
pub fn encode_into(id: Option<EntryId>, payload: &[u8], out: &mut Vec<u8>) {
    match id {
        Some(id) => {
            out.reserve(1 + 16 + payload.len());
            out.push(TAG_STAMPED);
            out.extend_from_slice(&id.host.to_le_bytes());
            out.extend_from_slice(&id.seq.to_le_bytes());
        }
        None => {
            out.reserve(1 + payload.len());
            out.push(TAG_RAW);
        }
    }
    out.extend_from_slice(payload);
}

/// Wraps one payload in the staged-file envelope (a thin wrapper over
/// [`encode_into`]).
pub fn encode(id: Option<EntryId>, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(id, payload, &mut out);
    out
}

/// Unwraps one enveloped record into `(id, payload)`. `None` if the record
/// is malformed (truncated header) — callers treat that as a sanity-check
/// rejection, not a panic.
pub fn decode(record: &[u8]) -> Option<(Option<EntryId>, &[u8])> {
    match record.split_first()? {
        (&TAG_RAW, payload) => Some((None, payload)),
        (&TAG_STAMPED, rest) => {
            if rest.len() < 16 {
                return None;
            }
            let host = u64::from_le_bytes(rest[..8].try_into().expect("8 bytes"));
            let seq = u64::from_le_bytes(rest[8..16].try_into().expect("8 bytes"));
            Some((Some(EntryId { host, seq }), &rest[16..]))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamped_roundtrip() {
        let id = EntryId { host: 7, seq: 41 };
        let rec = encode(Some(id), b"payload");
        assert_eq!(decode(&rec), Some((Some(id), &b"payload"[..])));
    }

    #[test]
    fn raw_roundtrip() {
        let rec = encode(None, b"x");
        assert_eq!(decode(&rec), Some((None, &b"x"[..])));
    }

    #[test]
    fn truncated_stamped_record_is_rejected() {
        let rec = vec![1u8, 2, 3];
        assert_eq!(decode(&rec), None);
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert_eq!(decode(&[9u8, 0, 0]), None);
        assert_eq!(decode(&[]), None);
    }

    #[test]
    fn encode_into_reuses_one_buffer_and_matches_encode() {
        let id = EntryId { host: 2, seq: 9 };
        let mut scratch = Vec::new();
        for (id, payload) in [(Some(id), &b"abc"[..]), (None, &b"defgh"[..])] {
            scratch.clear();
            encode_into(id, payload, &mut scratch);
            assert_eq!(scratch, encode(id, payload));
            assert_eq!(decode(&scratch), Some((id, payload)));
        }
    }
}
