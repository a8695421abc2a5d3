//! The Scribe log entry and the batched wire message.

use uli_warehouse::varint::{read_varint, varint_len, write_varint};

/// Identity of an entry as stamped by the host daemon that accepted it:
/// the host id plus a per-host sequence number. Network faults can copy or
/// re-deliver an entry, but its id never changes — the log mover dedups on
/// it and the chaos invariant checker reconciles delivery against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntryId {
    /// Host that logged the entry.
    pub host: u64,
    /// Position in that host's log stream.
    pub seq: u64,
}

impl std::fmt::Display for EntryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h{}#{}", self.host, self.seq)
    }
}

/// "Each log entry consists of two strings, a category and a message. The
/// category is associated with configuration metadata that determine, among
/// other things, where the data is written." (§2)
///
/// Messages are bytes, not `String`: Thrift-encoded client events are binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Scribe category, e.g. `client_events`.
    pub category: String,
    /// Opaque message payload.
    pub message: Vec<u8>,
    /// Delivery identity, stamped by the daemon at `log()` time. `None` for
    /// entries injected directly onto the network (unit tests).
    pub id: Option<EntryId>,
}

impl LogEntry {
    /// Builds an entry.
    pub fn new(category: impl Into<String>, message: impl Into<Vec<u8>>) -> Self {
        LogEntry {
            category: category.into(),
            message: message.into(),
            id: None,
        }
    }

    /// Approximate wire size: category + payload.
    pub fn wire_size(&self) -> usize {
        self.category.len() + self.message.len()
    }
}

/// Entry tag inside a batch frame: carries an [`EntryId`].
const TAG_STAMPED: u8 = 1;
/// Entry tag inside a batch frame: no delivery id.
const TAG_RAW: u8 = 0;

/// Frame-encoded size of one entry inside a batch: tag, optional 16-byte
/// id, then length-prefixed category and message.
pub(crate) fn framed_entry_size(e: &LogEntry) -> usize {
    let id_bytes = if e.id.is_some() { 16 } else { 0 };
    1 + id_bytes
        + varint_len(e.category.len() as u64)
        + e.category.len()
        + varint_len(e.message.len() as u64)
        + e.message.len()
}

/// A size+count-bounded batch of log entries — the unit a daemon hands to
/// the network in one message. Faults land at batch granularity: a dropped
/// packet loses (and re-buffers) a whole batch, a duplicated packet
/// re-delivers every entry in it. The byte framing ([`MessageBatch::encode`]
/// / [`MessageBatch::decode`]) is what would cross a real wire; the
/// in-process network passes the structured form but charges
/// [`wire_size`](MessageBatch::wire_size) — the encoded length — to the
/// cost model.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MessageBatch {
    entries: Vec<LogEntry>,
    /// Cached encoded size of the entries (excludes the count header).
    entry_bytes: usize,
}

impl MessageBatch {
    /// An empty batch.
    pub fn new() -> Self {
        MessageBatch::default()
    }

    /// A batch of one entry (the unbatched compatibility path).
    pub fn of(entry: LogEntry) -> Self {
        let mut b = MessageBatch::new();
        b.push(entry);
        b
    }

    /// Appends an entry.
    pub fn push(&mut self, entry: LogEntry) {
        self.entry_bytes += framed_entry_size(&entry);
        self.entries.push(entry);
    }

    /// Entries in the batch.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the batch holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, in send order.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Consumes the batch into its entries.
    pub fn into_entries(self) -> Vec<LogEntry> {
        self.entries
    }

    /// Encoded size in bytes: what this batch would occupy on a real wire.
    pub fn wire_size(&self) -> usize {
        varint_len(self.entries.len() as u64) + self.entry_bytes
    }

    /// Serializes the batch: varint entry count, then per entry a tag byte
    /// (with the 16-byte little-endian id when stamped) and length-prefixed
    /// category and message.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_size());
        write_varint(&mut out, self.entries.len() as u64);
        for e in &self.entries {
            match e.id {
                Some(id) => {
                    out.push(TAG_STAMPED);
                    out.extend_from_slice(&id.host.to_le_bytes());
                    out.extend_from_slice(&id.seq.to_le_bytes());
                }
                None => out.push(TAG_RAW),
            }
            write_varint(&mut out, e.category.len() as u64);
            out.extend_from_slice(e.category.as_bytes());
            write_varint(&mut out, e.message.len() as u64);
            out.extend_from_slice(&e.message);
        }
        out
    }

    /// Parses an encoded batch. `None` on any truncation, bad tag, or
    /// trailing garbage — a malformed frame is rejected whole, never
    /// half-applied.
    pub fn decode(bytes: &[u8]) -> Option<MessageBatch> {
        let mut pos = 0usize;
        let count = read_varint(bytes, &mut pos)?;
        if count > bytes.len() as u64 {
            // Each entry needs at least one byte; an overlong count cannot
            // be honest, so fail before reserving anything.
            return None;
        }
        let mut batch = MessageBatch::new();
        for _ in 0..count {
            let tag = *bytes.get(pos)?;
            pos += 1;
            let id = match tag {
                TAG_RAW => None,
                TAG_STAMPED => {
                    let rest = bytes.get(pos..pos + 16)?;
                    pos += 16;
                    Some(EntryId {
                        host: u64::from_le_bytes(rest[..8].try_into().expect("8 bytes")),
                        seq: u64::from_le_bytes(rest[8..16].try_into().expect("8 bytes")),
                    })
                }
                _ => return None,
            };
            let category = read_slice(bytes, &mut pos)?;
            let message = read_slice(bytes, &mut pos)?;
            let mut e = LogEntry::new(String::from_utf8(category.to_vec()).ok()?, message.to_vec());
            e.id = id;
            batch.push(e);
        }
        if pos != bytes.len() {
            return None;
        }
        Some(batch)
    }
}

/// A varint length at `*pos` and that many bytes after it, advancing past
/// both; `None` when the bytes run out first, however large the length.
fn read_slice<'a>(bytes: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    let len = usize::try_from(read_varint(bytes, pos)?).ok()?;
    let slice = bytes.get(*pos..pos.checked_add(len)?)?;
    *pos += len;
    Some(slice)
}

impl<'a> IntoIterator for &'a MessageBatch {
    type Item = &'a LogEntry;
    type IntoIter = std::slice::Iter<'a, LogEntry>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_size() {
        let e = LogEntry::new("client_events", b"payload".to_vec());
        assert_eq!(e.category, "client_events");
        assert_eq!(e.message, b"payload");
        assert_eq!(e.wire_size(), "client_events".len() + 7);
    }

    fn stamped(host: u64, seq: u64, msg: &[u8]) -> LogEntry {
        let mut e = LogEntry::new("client_events", msg.to_vec());
        e.id = Some(EntryId { host, seq });
        e
    }

    #[test]
    fn batch_roundtrips_mixed_entries() {
        let mut b = MessageBatch::new();
        b.push(stamped(3, 0, b"first"));
        b.push(LogEntry::new("other", b"".to_vec()));
        b.push(stamped(3, 1, &[0xff; 200]));
        let bytes = b.encode();
        assert_eq!(bytes.len(), b.wire_size(), "wire_size is the frame size");
        assert_eq!(MessageBatch::decode(&bytes), Some(b));
    }

    #[test]
    fn empty_batch_roundtrips() {
        let b = MessageBatch::new();
        assert!(b.is_empty());
        assert_eq!(MessageBatch::decode(&b.encode()), Some(b));
    }

    #[test]
    fn truncations_and_garbage_are_rejected_whole() {
        let mut b = MessageBatch::new();
        b.push(stamped(1, 0, b"payload"));
        b.push(stamped(1, 1, b"payload2"));
        let bytes = b.encode();
        for cut in 0..bytes.len() {
            assert_eq!(
                MessageBatch::decode(&bytes[..cut]),
                None,
                "truncation at {cut} must reject the whole frame"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(MessageBatch::decode(&trailing), None, "trailing garbage");
        assert_eq!(MessageBatch::decode(&[9]), None, "bad count then EOF");
        assert_eq!(MessageBatch::decode(&[1, 7]), None, "unknown entry tag");
    }

    #[test]
    fn overlong_count_fails_before_allocating() {
        // Claims u64::MAX entries in a 10-byte frame.
        let mut bytes = Vec::new();
        write_varint(&mut bytes, u64::MAX);
        assert_eq!(MessageBatch::decode(&bytes), None);
    }

    #[test]
    fn a_length_past_the_frame_is_rejected_not_added() {
        // One raw entry whose category claims u64::MAX bytes.
        let mut frame = vec![0x01, 0x00];
        frame.extend_from_slice(&[0xff; 9]);
        frame.push(0x01);
        assert_eq!(MessageBatch::decode(&frame), None);
    }

    #[test]
    fn a_length_varint_past_u64_is_rejected() {
        // The category length's tenth byte carries more than the one bit a
        // u64 has left; read as zero, the frame would be a one-entry batch.
        let mut frame = vec![0x01, 0x00];
        frame.extend_from_slice(&[0x80; 9]);
        frame.extend_from_slice(&[0x02, 0x00]);
        assert_eq!(MessageBatch::decode(&frame), None);
    }

    #[test]
    fn wire_size_tracks_pushes_incrementally() {
        let mut b = MessageBatch::new();
        let mut prev = b.wire_size();
        for i in 0..130u64 {
            b.push(stamped(9, i, b"x"));
            let now = b.wire_size();
            assert!(now > prev);
            prev = now;
            assert_eq!(b.encode().len(), now);
        }
    }
}
