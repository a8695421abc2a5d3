//! Decompressed-block cache.
//!
//! Repeated queries over the same hour re-decompress the same blocks — in
//! the paper's terms, every brute-force scan pays the full I/O and codec
//! cost even when the working set is hot. This module adds a bounded,
//! byte-capacity LRU cache of **decompressed** block payloads shared by all
//! readers of a [`crate::Warehouse`].
//!
//! Entries are keyed by what the block footer or group header already
//! stores about the bytes — their checksum, a length and how they are
//! encoded — so the key is content-addressed and costs no hashing: renames
//! and deletes need no invalidation, and a re-written block with different
//! bytes can never alias a stale entry (up to a 64-bit checksum collision,
//! which also bounds the checksum verification itself). Payloads are
//! handed out as `Arc<Vec<u8>>`, so concurrent scans share one copy.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use uli_obs::lock;

/// Default cache capacity: big enough to hold a laptop-scale hot hour,
/// small enough to be invisible next to the datasets the benches build.
pub const DEFAULT_CACHE_CAPACITY: usize = 64 * 1024 * 1024;

/// Content address of a cached payload: the stored checksum of the bytes
/// it was decoded from, plus a length (cheap extra guard against checksum
/// collisions) and the encoding that says what "decoded" meant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct BlockKey {
    checksum: u64,
    len: u64,
    encoding: u8,
}

impl BlockKey {
    /// A row block: the checksum of its `ulz` stream and the length it
    /// decompresses to.
    pub(crate) fn row_block(checksum: u64, uncompressed_len: u64) -> BlockKey {
        BlockKey {
            checksum,
            len: uncompressed_len,
            encoding: u8::MAX,
        }
    }

    /// A column chunk: its encoding tag, stored checksum and stored length,
    /// all read off the row group's header.
    pub(crate) fn chunk(tag: u8, checksum: u64, stored_len: u64) -> BlockKey {
        BlockKey {
            checksum,
            len: stored_len,
            encoding: tag,
        }
    }
}

struct CacheEntry {
    data: Arc<Vec<u8>>,
    /// Recency stamp; also the entry's key in `CacheInner::order`.
    tick: u64,
}

#[derive(Default)]
struct CacheInner {
    map: HashMap<BlockKey, CacheEntry>,
    /// Recency order: lowest tick = least recently used.
    order: BTreeMap<u64, BlockKey>,
    bytes: usize,
    next_tick: u64,
}

/// Cumulative cache counters plus a point-in-time occupancy snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Blocks inserted.
    pub insertions: u64,
    /// Blocks evicted to make room.
    pub evictions: u64,
    /// Blocks currently resident.
    pub entries: u64,
    /// Decompressed bytes currently resident.
    pub bytes: u64,
    /// Configured capacity in bytes (0 = disabled).
    pub capacity: u64,
}

impl CacheStats {
    /// Hits as a fraction of lookups (0.0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A bounded LRU cache of decompressed block payloads. Thread-safe; one
/// instance is shared by every reader of a warehouse.
pub struct BlockCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl BlockCache {
    /// A cache holding at most `capacity` decompressed bytes. Capacity 0
    /// disables caching entirely (every lookup misses, inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        BlockCache {
            capacity,
            inner: Mutex::new(CacheInner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn get(&self, key: BlockKey) -> Option<Arc<Vec<u8>>> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut inner = lock(&self.inner);
        let inner = &mut *inner;
        match inner.map.get_mut(&key) {
            Some(entry) => {
                // Touch: move to the most-recent end of the order map.
                inner.order.remove(&entry.tick);
                entry.tick = inner.next_tick;
                inner.next_tick += 1;
                inner.order.insert(entry.tick, key);
                let data = Arc::clone(&entry.data);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(data)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    pub(crate) fn insert(&self, key: BlockKey, data: Arc<Vec<u8>>) {
        if data.len() > self.capacity {
            // Never evict the whole cache for one oversized block.
            return;
        }
        let mut inner = lock(&self.inner);
        if inner.map.contains_key(&key) {
            return; // Racing reader already inserted the same content.
        }
        let mut evicted = 0u64;
        while inner.bytes + data.len() > self.capacity {
            let (&tick, &victim) = inner.order.iter().next().expect("bytes>0 implies entries");
            inner.order.remove(&tick);
            let gone = inner.map.remove(&victim).expect("order and map agree");
            inner.bytes -= gone.data.len();
            evicted += 1;
        }
        let tick = inner.next_tick;
        inner.next_tick += 1;
        inner.bytes += data.len();
        inner.order.insert(tick, key);
        inner.map.insert(key, CacheEntry { data, tick });
        drop(inner);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Counters plus current occupancy.
    pub fn stats(&self) -> CacheStats {
        let (entries, bytes) = {
            let inner = lock(&self.inner);
            (inner.map.len() as u64, inner.bytes as u64)
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
            capacity: self.capacity as u64,
        }
    }

    /// Drops every entry (counters are preserved).
    pub fn clear(&self) {
        let mut inner = lock(&self.inner);
        inner.map.clear();
        inner.order.clear();
        inner.bytes = 0;
    }
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> BlockKey {
        BlockKey::row_block(n, 10)
    }

    fn block(n: usize) -> Arc<Vec<u8>> {
        Arc::new(vec![0u8; n])
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let c = BlockCache::new(1024);
        assert!(c.get(key(1)).is_none());
        c.insert(key(1), block(10));
        let got = c.get(key(1)).expect("hit");
        assert_eq!(got.len(), 10);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert_eq!((s.entries, s.bytes), (1, 10));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let c = BlockCache::new(30);
        c.insert(key(1), block(10));
        c.insert(key(2), block(10));
        c.insert(key(3), block(10));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get(key(1)).is_some());
        c.insert(key(4), block(10));
        assert!(c.get(key(2)).is_none(), "LRU entry should be evicted");
        assert!(c.get(key(1)).is_some());
        assert!(c.get(key(3)).is_some());
        assert!(c.get(key(4)).is_some());
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.bytes, 30);
    }

    #[test]
    fn capacity_is_a_byte_budget() {
        let c = BlockCache::new(25);
        c.insert(key(1), block(10));
        c.insert(key(2), block(10));
        // 10+10+10 > 25: inserting a third evicts until it fits (two go).
        c.insert(key(3), block(20));
        let s = c.stats();
        assert!(s.bytes <= 25, "occupancy {} exceeds capacity", s.bytes);
        assert!(c.get(key(3)).is_some());
    }

    #[test]
    fn oversized_blocks_are_not_cached() {
        let c = BlockCache::new(16);
        c.insert(key(1), block(17));
        assert_eq!(c.stats().insertions, 0);
        assert!(c.get(key(1)).is_none());
    }

    #[test]
    fn zero_capacity_disables() {
        let c = BlockCache::new(0);
        c.insert(key(1), block(1));
        assert!(c.get(key(1)).is_none());
        let s = c.stats();
        assert_eq!(s.insertions, 0);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn clear_keeps_counters() {
        let c = BlockCache::new(100);
        c.insert(key(1), block(10));
        assert!(c.get(key(1)).is_some());
        c.clear();
        assert!(c.get(key(1)).is_none());
        let s = c.stats();
        assert_eq!((s.entries, s.bytes), (0, 0));
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let c = BlockCache::new(100);
        c.insert(key(1), block(10));
        c.insert(key(1), block(10));
        let s = c.stats();
        assert_eq!(s.insertions, 1);
        assert_eq!(s.bytes, 10);
    }
}
