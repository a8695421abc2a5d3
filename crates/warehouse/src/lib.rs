//! An HDFS-lite data warehouse.
//!
//! In the paper, aggregated logs land on per-datacenter staging Hadoop
//! clusters and are then moved into the main Hadoop data warehouse, deposited
//! in "per-category, per-hour directories (e.g. `/logs/category/YYYY/MM/DD/HH/`)"
//! with "log messages bundled in a small number of large files" (§2). This
//! crate provides that substrate, scaled to a single process:
//!
//! * a hierarchical, in-memory filesystem ([`store::Warehouse`]) with the
//!   **atomic rename** the log-mover pipeline relies on to "atomically slide
//!   an hour's worth of logs into the main data warehouse";
//! * **block-structured record files** (the [`mod@file`] module): records are packed into
//!   fixed-capacity blocks, each independently compressed and checksummed —
//!   a block stands in for an HDFS block and hence for one map task;
//! * our own LZ-style compression ([`compress`]), standing in for the
//!   "compressing data on the fly" the aggregators perform; and
//! * **scan statistics** ([`stats::ScanStats`]): files opened, blocks read,
//!   compressed/uncompressed bytes — the currency in which the paper's
//!   performance arguments (brute-force scans, mapper counts) are expressed.
//!
//! # Example
//!
//! ```
//! use uli_warehouse::{Warehouse, WhPath};
//!
//! let wh = Warehouse::with_block_capacity(1 << 16);
//! let path = WhPath::parse("/logs/client_events/2012/08/21/14/part-00000.ulz").unwrap();
//! let mut w = wh.create(&path).unwrap();
//! for i in 0..1000u32 {
//!     w.append_record(format!("record {i}").as_bytes());
//! }
//! w.finish().unwrap();
//!
//! let mut records = 0;
//! let mut reader = wh.open(&path).unwrap();
//! while let Some(rec) = reader.next_record().unwrap() {
//!     assert!(rec.starts_with(b"record "));
//!     records += 1;
//! }
//! assert_eq!(records, 1000);
//! assert!(wh.stats().uncompressed_bytes_read > 0);
//! ```

pub mod cache;
pub mod chunk;
pub mod columnar;
pub mod compress;
pub mod error;
pub mod file;
pub mod hash;
pub mod hourly;
pub mod path;
pub mod pool;
pub mod scan;
pub mod spill;
pub mod stats;
pub mod store;
pub mod varint;
pub mod zone;

pub use cache::{BlockCache, CacheStats, DEFAULT_CACHE_CAPACITY};
pub use chunk::{Cell, Column, ColumnKind, StoredAs, StoredRun, Texts, ValueShape};
pub use columnar::{
    sniff_columnar, ColumnGroup, ColumnarFile, ColumnarFileWriter, ColumnarLanding, COLUMNAR_MAGIC,
    COLUMNAR_VERSION,
};
pub use compress::CompressorPool;
pub use error::{WarehouseError, WarehouseResult};
pub use file::{FileBlocks, RecordFileReader, RecordFileWriter};
pub use hash::{block_checksum, fnv1a64, fnv1a64_fold, FNV1A64_OFFSET};
pub use hourly::{delivered_hours, HourlyPartition};
pub use path::WhPath;
pub use pool::{Parallelism, ScanPool};
pub use scan::ScanFile;
pub use spill::{
    spill_root, ExternalByteSorter, MemoryTracker, MergedRuns, RunFormat, RunSet, SortedRuns,
    SpillSorter, DEFAULT_MEM_BUDGET, ENTRY_OVERHEAD,
};
pub use stats::ScanStats;
pub use store::{FileMeta, Warehouse};
pub use zone::{tag_hash, ZoneMap, ZoneMapPruner};
