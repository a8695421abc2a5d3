//! Per-block zone maps: Elephant Twin-style block skipping, built in.
//!
//! §6's Elephant Twin indexes skip input "at the InputFormat level" — before
//! a block is ever decompressed. The serving layer's alongside-the-data
//! postings cover the hours where an index was *built*; zone maps cover
//! every file written through the annotated writer path for free: each
//! sealed block records the min/max of a sort-ish key (the event timestamp)
//! and a 64-bit membership bitmap over a tag dimension (the event name), and
//! a pushed predicate can prove a block irrelevant from the footer alone.
//!
//! Everything here fails open: a block with no zone map (legacy writer, log
//! mover copying opaque bytes) is always read.

use crate::hash::fnv1a64;

/// The hash that folds tags (event names) into a zone-map bitmap. Writers
/// and pruners must agree on it, so it is public and the only one used.
pub fn tag_hash(bytes: &[u8]) -> u64 {
    fnv1a64(bytes)
}

/// Summary of one block's annotated records: key min/max, a 64-bit tag
/// bloom bitmap (bit = `tag_hash % 64`), and the record count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneMap {
    /// Smallest key (event timestamp, millis) in the block.
    pub min_key: i64,
    /// Largest key in the block.
    pub max_key: i64,
    /// Tag membership bitmap: bit `tag_hash(tag) % 64` set for every tag
    /// present. A clear bit proves absence; a set bit proves nothing.
    pub tag_bits: u64,
    /// Annotated records folded in.
    pub records: u64,
}

impl ZoneMap {
    /// A zone map over zero records.
    pub fn empty() -> ZoneMap {
        ZoneMap {
            min_key: i64::MAX,
            max_key: i64::MIN,
            tag_bits: 0,
            records: 0,
        }
    }

    /// Folds one record's key and tag hash into the summary.
    pub fn fold(&mut self, key: i64, tag: u64) {
        self.min_key = self.min_key.min(key);
        self.max_key = self.max_key.max(key);
        self.tag_bits |= 1 << (tag % 64);
        self.records += 1;
    }

    /// True when the block's key range intersects `[min, max]` (either bound
    /// optional).
    pub fn key_overlaps(&self, min: Option<i64>, max: Option<i64>) -> bool {
        min.is_none_or(|lo| self.max_key >= lo) && max.is_none_or(|hi| self.min_key <= hi)
    }

    /// True unless the bitmap proves `tag` absent from the block.
    pub fn may_contain_tag(&self, tag: u64) -> bool {
        self.tag_bits & (1 << (tag % 64)) != 0
    }
}

impl Default for ZoneMap {
    fn default() -> Self {
        ZoneMap::empty()
    }
}

/// The constraints a pushed-down predicate implies on zone-map dimensions.
/// Built by the query planner, checked per block before decompression.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ZoneMapPruner {
    /// Surviving rows have key >= this.
    pub min_key: Option<i64>,
    /// Surviving rows have key <= this.
    pub max_key: Option<i64>,
    /// Surviving rows carry one of these tag hashes. `Some(vec![])` means
    /// the predicate admits no tag at all: every mapped block is skippable.
    pub tags: Option<Vec<u64>>,
}

impl ZoneMapPruner {
    /// Decides whether a block must be read. Fails open: `None` (no zone map
    /// for the block) always keeps it.
    pub fn keep(&self, zone: Option<&ZoneMap>) -> bool {
        let Some(z) = zone else { return true };
        if !z.key_overlaps(self.min_key, self.max_key) {
            return false;
        }
        if let Some(tags) = &self.tags {
            if !tags.iter().any(|t| z.may_contain_tag(*t)) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_tracks_range_and_bits() {
        let mut z = ZoneMap::empty();
        z.fold(10, tag_hash(b"a"));
        z.fold(-3, tag_hash(b"b"));
        assert_eq!((z.min_key, z.max_key, z.records), (-3, 10, 2));
        assert!(z.may_contain_tag(tag_hash(b"a")));
        assert!(z.may_contain_tag(tag_hash(b"b")));
    }

    #[test]
    fn key_overlap_bounds() {
        let mut z = ZoneMap::empty();
        z.fold(100, 0);
        z.fold(200, 0);
        assert!(z.key_overlaps(None, None));
        assert!(z.key_overlaps(Some(150), None));
        assert!(z.key_overlaps(None, Some(150)));
        assert!(z.key_overlaps(Some(200), Some(300)));
        assert!(!z.key_overlaps(Some(201), None));
        assert!(!z.key_overlaps(None, Some(99)));
    }

    #[test]
    fn bitmap_proves_absence_not_presence() {
        let mut z = ZoneMap::empty();
        z.fold(0, 5);
        assert!(z.may_contain_tag(5));
        assert!(z.may_contain_tag(5 + 64), "collisions keep the block");
        assert!(!z.may_contain_tag(6));
    }

    #[test]
    fn pruner_fails_open_without_zone() {
        let p = ZoneMapPruner {
            min_key: Some(0),
            max_key: Some(10),
            tags: Some(vec![1]),
        };
        assert!(p.keep(None), "no zone map → must read the block");
    }

    #[test]
    fn pruner_skips_disjoint_blocks() {
        let mut z = ZoneMap::empty();
        z.fold(100, tag_hash(b"click"));
        let in_range = ZoneMapPruner {
            min_key: Some(50),
            max_key: Some(150),
            tags: Some(vec![tag_hash(b"click")]),
        };
        assert!(in_range.keep(Some(&z)));
        let out_of_range = ZoneMapPruner {
            min_key: Some(101),
            ..Default::default()
        };
        assert!(!out_of_range.keep(Some(&z)));
        let wrong_tag = ZoneMapPruner {
            tags: Some(vec![tag_hash(b"impression")]),
            ..Default::default()
        };
        // Skips unless the hashes collide mod 64.
        assert_eq!(
            wrong_tag.keep(Some(&z)),
            tag_hash(b"impression") % 64 == tag_hash(b"click") % 64
        );
        let no_tags = ZoneMapPruner {
            tags: Some(vec![]),
            ..Default::default()
        };
        assert!(!no_tags.keep(Some(&z)), "empty tag set admits nothing");
    }

    #[test]
    fn trivial_pruner_keeps_everything() {
        let mut z = ZoneMap::empty();
        z.fold(1, 1);
        assert!(ZoneMapPruner::default().keep(Some(&z)));
    }
}
