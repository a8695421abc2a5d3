//! The event dictionary: names ↔ Unicode code points.
//!
//! "We define the mapping between events and unicode code points (i.e., the
//! dictionary) such that more frequent events are assigned smaller code
//! points. This in essence captures a form of variable-length coding, as
//! smaller unicode points require fewer bytes to physically represent.
//! … Unicode comprises 1.1 million available code points, and it is
//! unlikely that the cardinality of our alphabet will exceed this." (§4.2)
//!
//! Rank *r* maps to the (r+1)-th valid Unicode scalar value, skipping the
//! surrogate block `U+D800..=U+DFFF` (surrogates are not scalar values and
//! cannot appear in a Rust `String` — the paper's "valid unicode string"
//! requirement made precise).

use std::collections::HashMap;

use crate::event::EventName;

/// Width of the surrogate gap that must be skipped.
const SURROGATE_GAP: u32 = 0x800;
/// First surrogate code point.
const SURROGATE_START: u32 = 0xD800;
/// Count of usable scalar values (all scalars except U+0000, which we
/// reserve so no event ever encodes to NUL).
pub const MAX_ALPHABET: u32 = 0x110000 - SURROGATE_GAP - 1;

/// Maps rank (0 = most frequent) to a Unicode scalar.
pub fn char_for_rank(rank: u32) -> Option<char> {
    if rank >= MAX_ALPHABET {
        return None;
    }
    let mut v = rank + 1;
    if v >= SURROGATE_START {
        v += SURROGATE_GAP;
    }
    char::from_u32(v)
}

/// Inverse of [`char_for_rank`].
pub fn rank_for_char(c: char) -> Option<u32> {
    let mut v = c as u32;
    if v == 0 {
        return None;
    }
    if v > SURROGATE_START {
        v -= SURROGATE_GAP;
    }
    Some(v - 1)
}

/// The rank order of two `(name, count)` histogram entries: more frequent
/// first, ties broken lexicographically for determinism.
pub(crate) fn by_frequency(a: (&str, u64), b: (&str, u64)) -> std::cmp::Ordering {
    b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0))
}

/// A frequency-ranked bijection between event names and code points.
#[derive(Debug, Clone, Default)]
pub struct EventDictionary {
    by_rank: Vec<EventName>,
    by_name: HashMap<EventName, u32>,
    counts: Vec<u64>,
}

impl EventDictionary {
    /// Builds a dictionary from an event histogram. More frequent events get
    /// smaller ranks ([`by_frequency`]).
    pub fn from_counts(counts: Vec<(EventName, u64)>) -> EventDictionary {
        let mut entries = counts;
        entries.sort_by(|a, b| by_frequency((a.0.as_str(), a.1), (b.0.as_str(), b.1)));
        let mut by_rank = Vec::with_capacity(entries.len());
        let mut by_name = HashMap::with_capacity(entries.len());
        let mut freq = Vec::with_capacity(entries.len());
        for (name, count) in entries {
            if by_name.contains_key(&name) {
                continue; // duplicate input names collapse to the first
            }
            // Rank is the current table size, not the input position —
            // skipped duplicates must not leave gaps.
            by_name.insert(name.clone(), by_rank.len() as u32);
            by_rank.push(name);
            freq.push(count);
        }
        EventDictionary {
            by_rank,
            by_name,
            counts: freq,
        }
    }

    /// Number of distinct events.
    pub fn len(&self) -> usize {
        self.by_rank.len()
    }

    /// True if the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.by_rank.is_empty()
    }

    /// Rank of a name (0 = most frequent).
    pub fn rank_of(&self, name: &EventName) -> Option<u32> {
        self.rank_of_str(name.as_str())
    }

    /// [`Self::rank_of`] for a name still borrowed from where it was read.
    pub fn rank_of_str(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    /// Name at a rank.
    pub fn name_of(&self, rank: u32) -> Option<&EventName> {
        self.by_rank.get(rank as usize)
    }

    /// Observed count of the event at `rank` in the histogram this
    /// dictionary was built from.
    pub fn count_of(&self, rank: u32) -> Option<u64> {
        self.counts.get(rank as usize).copied()
    }

    /// The code point for a name.
    pub fn encode_name(&self, name: &EventName) -> Option<char> {
        self.rank_of(name).and_then(char_for_rank)
    }

    /// The name for a code point.
    pub fn decode_char(&self, c: char) -> Option<&EventName> {
        rank_for_char(c).and_then(|r| self.name_of(r))
    }

    /// Encodes a session's event names as a Unicode string. `None` if any
    /// name is not in the dictionary.
    pub fn encode_sequence<'a, I>(&self, names: I) -> Option<String>
    where
        I: IntoIterator<Item = &'a EventName>,
    {
        let mut out = String::new();
        for name in names {
            out.push(self.encode_name(name)?);
        }
        Some(out)
    }

    /// Decodes a session sequence back to event names. `None` if any code
    /// point is out of range.
    pub fn decode_sequence(&self, seq: &str) -> Option<Vec<&EventName>> {
        seq.chars().map(|c| self.decode_char(c)).collect()
    }

    /// Iterates `(rank, name, count)` in rank order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &EventName, u64)> {
        self.by_rank
            .iter()
            .zip(&self.counts)
            .enumerate()
            .map(|(r, (n, c))| (r as u32, n, *c))
    }

    /// Serializes to warehouse records: one `count\tname` record per rank.
    pub fn to_records(&self) -> Vec<Vec<u8>> {
        self.iter()
            .map(|(_, name, count)| format!("{count}\t{name}").into_bytes())
            .collect()
    }

    /// Parses records produced by [`to_records`](Self::to_records). Records
    /// that fail to parse are skipped.
    pub fn from_records<I>(records: I) -> EventDictionary
    where
        I: IntoIterator<Item = Vec<u8>>,
    {
        let counts = records
            .into_iter()
            .filter_map(|rec| {
                let text = String::from_utf8(rec).ok()?;
                let (count, name) = text.split_once('\t')?;
                Some((EventName::parse(name).ok()?, count.parse().ok()?))
            })
            .collect();
        EventDictionary::from_counts(counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> EventName {
        EventName::parse(s).unwrap()
    }

    fn dict() -> EventDictionary {
        EventDictionary::from_counts(vec![
            (n("web:home:home:stream:tweet:impression"), 5000),
            (n("web:home:home:stream:tweet:click"), 500),
            (n("web:home:mentions:stream:avatar:profile_click"), 50),
        ])
    }

    #[test]
    fn frequency_determines_rank() {
        let d = dict();
        assert_eq!(
            d.rank_of(&n("web:home:home:stream:tweet:impression")),
            Some(0)
        );
        assert_eq!(d.rank_of(&n("web:home:home:stream:tweet:click")), Some(1));
        assert_eq!(
            d.rank_of(&n("web:home:mentions:stream:avatar:profile_click")),
            Some(2)
        );
        assert_eq!(d.count_of(0), Some(5000));
    }

    #[test]
    fn frequent_events_encode_smaller() {
        let d = dict();
        let frequent = d
            .encode_name(&n("web:home:home:stream:tweet:impression"))
            .unwrap();
        let rare = d
            .encode_name(&n("web:home:mentions:stream:avatar:profile_click"))
            .unwrap();
        assert!((frequent as u32) < (rare as u32));
        assert_eq!(frequent.len_utf8(), 1);
    }

    #[test]
    fn ties_break_deterministically() {
        let d1 = EventDictionary::from_counts(vec![(n("b:a:a:a:a:x"), 10), (n("a:a:a:a:a:x"), 10)]);
        let d2 = EventDictionary::from_counts(vec![(n("a:a:a:a:a:x"), 10), (n("b:a:a:a:a:x"), 10)]);
        assert_eq!(d1.name_of(0), d2.name_of(0));
        assert_eq!(d1.name_of(0).unwrap().as_str(), "a:a:a:a:a:x");
    }

    #[test]
    fn char_mapping_is_bijective_across_the_surrogate_gap() {
        for rank in [0u32, 100, 0xD7FE, 0xD7FF, 0xD800, 100_000, MAX_ALPHABET - 1] {
            let c = char_for_rank(rank).unwrap_or_else(|| panic!("rank {rank} must map"));
            assert_eq!(rank_for_char(c), Some(rank), "rank {rank} via {c:?}");
        }
        assert_eq!(char_for_rank(MAX_ALPHABET), None);
        // The boundary ranks straddle the surrogate block.
        assert_eq!(char_for_rank(0xD7FE), Some('\u{D7FF}'));
        assert_eq!(char_for_rank(0xD7FF), Some('\u{E000}'));
    }

    #[test]
    fn nul_is_never_assigned() {
        assert_eq!(char_for_rank(0), Some('\u{1}'));
        assert_eq!(rank_for_char('\u{0}'), None);
    }

    #[test]
    fn sequences_round_trip() {
        let d = dict();
        let session = vec![
            n("web:home:home:stream:tweet:impression"),
            n("web:home:home:stream:tweet:impression"),
            n("web:home:home:stream:tweet:click"),
            n("web:home:mentions:stream:avatar:profile_click"),
        ];
        let encoded = d.encode_sequence(session.iter()).unwrap();
        assert_eq!(encoded.chars().count(), 4);
        let decoded = d.decode_sequence(&encoded).unwrap();
        let decoded: Vec<EventName> = decoded.into_iter().cloned().collect();
        assert_eq!(decoded, session);
    }

    #[test]
    fn unknown_names_and_chars_fail_closed() {
        let d = dict();
        assert_eq!(d.encode_name(&n("x:y:z:a:b:c")), None);
        assert_eq!(d.encode_sequence([&n("x:y:z:a:b:c")]), None);
        assert_eq!(d.decode_char('\u{FFFF}'), None);
        assert_eq!(d.decode_sequence("\u{FFFF}"), None);
    }

    #[test]
    fn record_serialization_round_trips() {
        let d = dict();
        let records = d.to_records();
        let back = EventDictionary::from_records(records);
        assert_eq!(back.len(), d.len());
        for (rank, name, count) in d.iter() {
            assert_eq!(back.name_of(rank), Some(name));
            assert_eq!(back.count_of(rank), Some(count));
        }
    }

    #[test]
    fn duplicate_names_collapse() {
        let d = EventDictionary::from_counts(vec![(n("a:a:a:a:a:x"), 10), (n("a:a:a:a:a:x"), 3)]);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn empty_dictionary() {
        let d = EventDictionary::from_counts(vec![]);
        assert!(d.is_empty());
        assert_eq!(d.encode_sequence([]), Some(String::new()));
        assert_eq!(d.decode_sequence(""), Some(vec![]));
    }
}
