//! Scan statistics.
//!
//! The paper's performance story is told in scans: session-reconstruction
//! jobs "routinely spawned tens of thousands of mappers … performing large
//! amounts of brute force scans" (§4.1). The warehouse counts every read so
//! experiments can report the same quantities.

use uli_obs::{Counter, Registry};

/// A snapshot of cumulative scan counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanStats {
    /// Record files opened for reading.
    pub files_opened: u64,
    /// Blocks decompressed. One block ≈ one HDFS block ≈ one map task's
    /// input split in the simulated cost model.
    pub blocks_read: u64,
    /// Compressed bytes read off "disk".
    pub compressed_bytes_read: u64,
    /// Bytes after decompression — what mappers actually process.
    pub uncompressed_bytes_read: u64,
    /// Individual records yielded to readers.
    pub records_read: u64,
    /// Blocks skipped without decompression thanks to index pushdown.
    pub blocks_skipped: u64,
    /// Blocks served from the decompressed-block cache. A hit still counts
    /// in `blocks_read` and `uncompressed_bytes_read`, but charges no
    /// `compressed_bytes_read` (nothing came off "disk").
    pub cache_hits: u64,
    /// Blocks that had to be decompressed because the cache missed.
    pub cache_misses: u64,
    /// Records decoded but dropped by a pushed-down predicate before any
    /// tuple reached the query plan.
    pub records_skipped_by_predicate: u64,
    /// Cells of masked columns a columnar read never decoded, thanks to
    /// projection pushdown: a columnar count. A row-format record is decoded
    /// whole, so a row scan charges nothing here.
    pub fields_skipped: u64,
    /// Cost-model bytes copied into per-record owned buffers by eager read
    /// paths (`read_all`, `read_block`). The borrowing visitor paths charge
    /// nothing here — the counter measures avoidable allocation churn.
    pub alloc_bytes: u64,
}

impl ScanStats {
    /// Difference of two snapshots (for measuring one query).
    pub fn since(&self, earlier: &ScanStats) -> ScanStats {
        ScanStats {
            files_opened: self.files_opened - earlier.files_opened,
            blocks_read: self.blocks_read - earlier.blocks_read,
            compressed_bytes_read: self.compressed_bytes_read - earlier.compressed_bytes_read,
            uncompressed_bytes_read: self.uncompressed_bytes_read - earlier.uncompressed_bytes_read,
            records_read: self.records_read - earlier.records_read,
            blocks_skipped: self.blocks_skipped - earlier.blocks_skipped,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            records_skipped_by_predicate: self.records_skipped_by_predicate
                - earlier.records_skipped_by_predicate,
            fields_skipped: self.fields_skipped - earlier.fields_skipped,
            alloc_bytes: self.alloc_bytes - earlier.alloc_bytes,
        }
    }

    /// Field-wise sum of two snapshots (for totalling the handles of one
    /// query).
    pub fn plus(&self, other: &ScanStats) -> ScanStats {
        ScanStats {
            files_opened: self.files_opened + other.files_opened,
            blocks_read: self.blocks_read + other.blocks_read,
            compressed_bytes_read: self.compressed_bytes_read + other.compressed_bytes_read,
            uncompressed_bytes_read: self.uncompressed_bytes_read + other.uncompressed_bytes_read,
            records_read: self.records_read + other.records_read,
            blocks_skipped: self.blocks_skipped + other.blocks_skipped,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
            records_skipped_by_predicate: self.records_skipped_by_predicate
                + other.records_skipped_by_predicate,
            fields_skipped: self.fields_skipped + other.fields_skipped,
            alloc_bytes: self.alloc_bytes + other.alloc_bytes,
        }
    }

    /// Cache hits as a fraction of blocks read (0.0 when nothing was read).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Thread-safe counters behind the snapshots.
///
/// Every field is a `uli_obs::Counter` handle. A cell built with
/// `Default` holds detached counters (private accounting, exactly the old
/// `AtomicU64` behavior); one built with [`StatsCell::registered`] shares
/// its cells with a [`Registry`], so the exported snapshot and `ScanStats`
/// are two views of the *same* atomics and can never diverge.
#[derive(Debug, Default)]
pub(crate) struct StatsCell {
    files_opened: Counter,
    blocks_read: Counter,
    compressed_bytes_read: Counter,
    uncompressed_bytes_read: Counter,
    records_read: Counter,
    blocks_skipped: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    records_skipped_by_predicate: Counter,
    fields_skipped: Counter,
    alloc_bytes: Counter,
}

impl StatsCell {
    /// A cell whose counters are registered under `component` in `registry`.
    pub(crate) fn registered(registry: &Registry, component: &str) -> StatsCell {
        StatsCell {
            files_opened: registry.counter(component, "files_opened"),
            blocks_read: registry.counter(component, "blocks_read"),
            compressed_bytes_read: registry.counter(component, "compressed_bytes_read"),
            uncompressed_bytes_read: registry.counter(component, "uncompressed_bytes_read"),
            records_read: registry.counter(component, "records_read"),
            blocks_skipped: registry.counter(component, "blocks_skipped"),
            cache_hits: registry.counter(component, "cache_hits"),
            cache_misses: registry.counter(component, "cache_misses"),
            records_skipped_by_predicate: registry
                .counter(component, "records_skipped_by_predicate"),
            fields_skipped: registry.counter(component, "fields_skipped"),
            alloc_bytes: registry.counter(component, "alloc_bytes"),
        }
    }

    pub(crate) fn snapshot(&self) -> ScanStats {
        ScanStats {
            files_opened: self.files_opened.get(),
            blocks_read: self.blocks_read.get(),
            compressed_bytes_read: self.compressed_bytes_read.get(),
            uncompressed_bytes_read: self.uncompressed_bytes_read.get(),
            records_read: self.records_read.get(),
            blocks_skipped: self.blocks_skipped.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            records_skipped_by_predicate: self.records_skipped_by_predicate.get(),
            fields_skipped: self.fields_skipped.get(),
            alloc_bytes: self.alloc_bytes.get(),
        }
    }

    pub(crate) fn reset(&self) {
        self.files_opened.set_total(0);
        self.blocks_read.set_total(0);
        self.compressed_bytes_read.set_total(0);
        self.uncompressed_bytes_read.set_total(0);
        self.records_read.set_total(0);
        self.blocks_skipped.set_total(0);
        self.cache_hits.set_total(0);
        self.cache_misses.set_total(0);
        self.records_skipped_by_predicate.set_total(0);
        self.fields_skipped.set_total(0);
        self.alloc_bytes.set_total(0);
    }

    pub(crate) fn file_opened(&self) {
        self.files_opened.inc();
    }

    pub(crate) fn block_read(&self, compressed: u64, uncompressed: u64) {
        self.blocks_read.inc();
        self.compressed_bytes_read.add(compressed);
        self.uncompressed_bytes_read.add(uncompressed);
    }

    /// A block served from the decompressed-block cache: logically read
    /// (blocks + uncompressed bytes) but with no compressed disk traffic.
    pub(crate) fn block_cache_hit(&self, uncompressed: u64) {
        self.blocks_read.inc();
        self.uncompressed_bytes_read.add(uncompressed);
        self.cache_hits.inc();
    }

    pub(crate) fn block_cache_miss(&self) {
        self.cache_misses.inc();
    }

    /// A column chunk served from the decompressed-chunk cache: its
    /// uncompressed bytes were logically read, and — unlike a whole-block
    /// hit — no additional `blocks_read` (the enclosing row group already
    /// counted, with the stored bytes of the chunks its read addressed).
    pub(crate) fn chunk_cache_hit(&self, uncompressed: u64) {
        self.uncompressed_bytes_read.add(uncompressed);
        self.cache_hits.inc();
    }

    /// A column chunk that had to be decompressed because the cache missed.
    pub(crate) fn chunk_cache_miss(&self, uncompressed: u64) {
        self.uncompressed_bytes_read.add(uncompressed);
        self.cache_misses.inc();
    }

    pub(crate) fn record_read(&self) {
        self.records_read.inc();
    }

    pub(crate) fn records_read_n(&self, n: u64) {
        self.records_read.add(n);
    }

    pub(crate) fn block_skipped(&self) {
        self.blocks_skipped.inc();
    }

    /// What pushing work into a scan saved: records dropped by a pushed
    /// predicate and cells of masked columns a columnar read never decoded.
    pub(crate) fn pushdown_skips(&self, records_skipped: u64, fields_skipped: u64) {
        self.records_skipped_by_predicate.add(records_skipped);
        self.fields_skipped.add(fields_skipped);
    }

    /// Cost-model bytes copied into per-record owned buffers.
    pub(crate) fn record_alloc(&self, bytes: u64) {
        self.alloc_bytes.add(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_increments() {
        let cell = StatsCell::default();
        cell.file_opened();
        cell.block_read(100, 400);
        cell.block_read(50, 200);
        cell.record_read();
        cell.block_skipped();
        let s = cell.snapshot();
        assert_eq!(s.files_opened, 1);
        assert_eq!(s.blocks_read, 2);
        assert_eq!(s.compressed_bytes_read, 150);
        assert_eq!(s.uncompressed_bytes_read, 600);
        assert_eq!(s.records_read, 1);
        assert_eq!(s.blocks_skipped, 1);
    }

    #[test]
    fn since_subtracts() {
        let cell = StatsCell::default();
        cell.block_read(10, 20);
        let before = cell.snapshot();
        cell.block_read(5, 9);
        let delta = cell.snapshot().since(&before);
        assert_eq!(delta.blocks_read, 1);
        assert_eq!(delta.compressed_bytes_read, 5);
        assert_eq!(delta.uncompressed_bytes_read, 9);
    }

    #[test]
    fn plus_inverts_since() {
        let cell = StatsCell::default();
        cell.block_read(10, 20);
        cell.pushdown_skips(1, 2);
        let first = cell.snapshot();
        cell.block_cache_hit(9);
        cell.record_alloc(4);
        let second = cell.snapshot();
        assert_eq!(first.plus(&second.since(&first)), second);
    }

    #[test]
    fn cache_hits_count_as_logical_reads() {
        let cell = StatsCell::default();
        cell.block_cache_miss();
        cell.block_read(100, 400);
        cell.block_cache_hit(400);
        cell.records_read_n(7);
        let s = cell.snapshot();
        assert_eq!(s.blocks_read, 2);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.compressed_bytes_read, 100, "hits charge no disk bytes");
        assert_eq!(s.uncompressed_bytes_read, 800);
        assert_eq!(s.records_read, 7);
        assert!((s.cache_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pushdown_counters_accumulate_and_subtract() {
        let cell = StatsCell::default();
        cell.pushdown_skips(3, 40);
        let before = cell.snapshot();
        cell.pushdown_skips(2, 2);
        let s = cell.snapshot();
        assert_eq!(s.records_skipped_by_predicate, 5);
        assert_eq!(s.fields_skipped, 42);
        let delta = s.since(&before);
        assert_eq!(delta.records_skipped_by_predicate, 2);
        assert_eq!(delta.fields_skipped, 2);
    }

    #[test]
    fn alloc_bytes_tracks_owned_copies() {
        let cell = StatsCell::default();
        cell.record_alloc(64);
        let before = cell.snapshot();
        cell.record_alloc(36);
        let s = cell.snapshot();
        assert_eq!(s.alloc_bytes, 100);
        assert_eq!(s.since(&before).alloc_bytes, 36);
        cell.reset();
        assert_eq!(cell.snapshot().alloc_bytes, 0);
    }

    #[test]
    fn reset_zeroes() {
        let cell = StatsCell::default();
        cell.file_opened();
        cell.reset();
        assert_eq!(cell.snapshot(), ScanStats::default());
    }

    #[test]
    fn registered_cell_shares_atomics_with_registry() {
        let registry = Registry::new();
        let cell = StatsCell::registered(&registry, "warehouse");
        cell.block_read(100, 400);
        cell.block_skipped();
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("warehouse/blocks_read"), Some(1));
        assert_eq!(
            snap.counter_value("warehouse/compressed_bytes_read"),
            Some(100)
        );
        assert_eq!(snap.counter_value("warehouse/blocks_skipped"), Some(1));
        assert_eq!(cell.snapshot().blocks_read, 1, "same cells, same numbers");
        assert!(registry.duplicate_registrations().is_empty());
        cell.reset();
        assert_eq!(
            registry.snapshot().counter_value("warehouse/blocks_read"),
            Some(0)
        );
    }
}
