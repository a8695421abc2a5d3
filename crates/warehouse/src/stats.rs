//! Scan statistics.
//!
//! The paper's performance story is told in scans: session-reconstruction
//! jobs "routinely spawned tens of thousands of mappers … performing large
//! amounts of brute force scans" (§4.1). The warehouse counts every read so
//! experiments can report the same quantities.

use uli_obs::{Counter, Registry};

/// Declares [`ScanStats`] and the [`StatsCell`] behind it from one list, so
/// a counter is named once: every snapshot, difference, sum, registration
/// and reset covers it.
macro_rules! scan_counters {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// A snapshot of cumulative scan counters.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct ScanStats {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl ScanStats {
            /// Each counter of `self` and of `other`, under `op`.
            fn zip(&self, other: &ScanStats, op: fn(u64, u64) -> u64) -> ScanStats {
                ScanStats { $($field: op(self.$field, other.$field),)* }
            }
        }

        /// Thread-safe counters behind the snapshots.
        ///
        /// Every field is a `uli_obs::Counter` handle. A cell built with
        /// `Default` holds detached counters (private accounting, exactly the
        /// old `AtomicU64` behavior); one built with [`StatsCell::registered`]
        /// shares its cells with a [`Registry`], so the exported snapshot and
        /// `ScanStats` are two views of the *same* atomics and can never
        /// diverge.
        #[derive(Debug, Default)]
        pub(crate) struct StatsCell {
            $($field: Counter,)*
        }

        impl StatsCell {
            /// A cell whose counters are registered under `component` in
            /// `registry`.
            pub(crate) fn registered(registry: &Registry, component: &str) -> StatsCell {
                StatsCell { $($field: registry.counter(component, stringify!($field)),)* }
            }

            pub(crate) fn snapshot(&self) -> ScanStats {
                ScanStats { $($field: self.$field.get(),)* }
            }

            pub(crate) fn reset(&self) {
                $(self.$field.set_total(0);)*
            }
        }
    };
}

scan_counters! {
    /// Record files opened for reading.
    files_opened,
    /// Blocks decompressed. One block ≈ one HDFS block ≈ one map task's
    /// input split in the simulated cost model.
    blocks_read,
    /// Compressed bytes read off "disk".
    compressed_bytes_read,
    /// Bytes after decompression — what mappers actually process.
    uncompressed_bytes_read,
    /// Individual records yielded to readers.
    records_read,
    /// Blocks skipped without decompression thanks to index pushdown.
    blocks_skipped,
    /// Blocks served from the decompressed-block cache. A hit still counts
    /// in `blocks_read` and `uncompressed_bytes_read`, but charges no
    /// `compressed_bytes_read` (nothing came off "disk").
    cache_hits,
    /// Blocks that had to be decompressed because the cache missed.
    cache_misses,
    /// Records decoded but dropped by a pushed-down predicate before any
    /// tuple reached the query plan.
    records_skipped_by_predicate,
    /// Cells of masked columns a columnar read never decoded, thanks to
    /// projection pushdown: a columnar count. A row-format record is decoded
    /// whole, so a row scan charges nothing here.
    fields_skipped,
    /// Cost-model bytes copied into per-record owned buffers by eager read
    /// paths (`read_all`, `read_block`). The borrowing visitor paths charge
    /// nothing here — the counter measures avoidable allocation churn.
    alloc_bytes,
}

impl ScanStats {
    /// Difference of two snapshots (for measuring one query).
    pub fn since(&self, earlier: &ScanStats) -> ScanStats {
        self.zip(earlier, |a, b| a - b)
    }

    /// Field-wise sum of two snapshots (for totalling the handles of one
    /// query).
    pub fn plus(&self, other: &ScanStats) -> ScanStats {
        self.zip(other, |a, b| a + b)
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

impl StatsCell {
    pub(crate) fn file_opened(&self) {
        self.files_opened.inc();
    }

    /// A block read: one `blocks_read`, and the `compressed` bytes that
    /// came off "disk" for it (none when the cache served it).
    pub(crate) fn block_read(&self, compressed: u64) {
        self.blocks_read.inc();
        self.compressed_bytes_read.add(compressed);
    }

    /// Bytes a read decoded — a row block's payload, or the cells a column
    /// chunk stands for — from the cache (`hit`) or not. A chunk counts no
    /// `blocks_read` of its own: its row group counted one.
    pub(crate) fn decoded(&self, bytes: u64, hit: bool) {
        self.uncompressed_bytes_read.add(bytes);
        match hit {
            true => self.cache_hits.inc(),
            false => self.cache_misses.inc(),
        }
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
        cell.block_read(100);
        cell.decoded(400, false);
        cell.block_read(50);
        cell.decoded(200, false);
        cell.records_read_n(1);
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
        cell.block_read(10);
        cell.decoded(20, false);
        let before = cell.snapshot();
        cell.block_read(5);
        cell.decoded(9, false);
        let delta = cell.snapshot().since(&before);
        assert_eq!(delta.blocks_read, 1);
        assert_eq!(delta.compressed_bytes_read, 5);
        assert_eq!(delta.uncompressed_bytes_read, 9);
    }

    #[test]
    fn plus_inverts_since() {
        let cell = StatsCell::default();
        cell.block_read(10);
        cell.decoded(20, false);
        cell.pushdown_skips(1, 2);
        let first = cell.snapshot();
        cell.block_read(0);
        cell.decoded(9, true);
        cell.record_alloc(4);
        let second = cell.snapshot();
        assert_eq!(first.plus(&second.since(&first)), second);
    }

    #[test]
    fn cache_hits_count_as_logical_reads() {
        let cell = StatsCell::default();
        cell.block_read(100);
        cell.decoded(400, false);
        cell.block_read(0);
        cell.decoded(400, true);
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
        cell.block_read(100);
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
