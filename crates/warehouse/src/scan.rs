//! One way to open a landed file for scanning.
//!
//! A directory may mix row-format and columnar files (the mover migrated
//! mid-day, a backfill used the other format, an undecodable payload landed
//! in a row sibling). [`ScanFile`] is where that decision lives: it sniffs
//! the layout once at open and presents both layouts as a sequence of
//! independently readable *scan units* — a row file's blocks, a columnar
//! file's row groups — each ≈ one map task, with the same pruning and
//! accounting surface. Readers match on the variant only to decode a unit.

use crate::columnar::{first_record, ColumnarFile};
use crate::error::WarehouseResult;
use crate::file::FileBlocks;
use crate::path::WhPath;
use crate::stats::ScanStats;
use crate::store::Warehouse;
use crate::zone::ZoneMap;

/// A landed file opened for scanning, in whichever layout it was written.
/// Cheap to clone and safe to read from many threads; every read through
/// the handle (or its clones) is charged to the warehouse-global counters
/// *and* to the handle's own cell, so [`ScanFile::local_stats`] is exactly
/// what this scan cost no matter what else reads the warehouse meanwhile.
#[derive(Clone)]
pub enum ScanFile {
    /// Row format: one unit per block.
    Row(FileBlocks),
    /// Columnar: one unit per row group.
    Columnar(ColumnarFile),
}

impl ScanFile {
    /// Opens `path`, sniffing its layout from the first block. A file that
    /// carries the columnar magic but cannot be opened as one (unknown
    /// format version, corrupt header) is an error, not a row file.
    pub fn open(warehouse: &Warehouse, path: &WhPath) -> WarehouseResult<ScanFile> {
        let fb = warehouse.open_blocks(path)?;
        match first_record(&fb) {
            Some(header) if header.version().is_some() => {
                Ok(ScanFile::Columnar(ColumnarFile::with_header(fb, header)?))
            }
            _ => Ok(ScanFile::Row(fb)),
        }
    }

    /// Number of scan units: blocks of a row file, row groups of a columnar
    /// one.
    pub fn units(&self) -> usize {
        match self {
            ScanFile::Row(f) => f.block_count(),
            ScanFile::Columnar(f) => f.group_count(),
        }
    }

    /// Zone map of `unit`, if it was written fully annotated.
    pub fn zone_map(&self, unit: usize) -> Option<ZoneMap> {
        match self {
            ScanFile::Row(f) => f.zone_map(unit),
            ScanFile::Columnar(f) => f.zone_map(unit),
        }
    }

    /// Records that `unit` was pruned: counted as skipped exactly once,
    /// never decompressed and never served from the cache.
    pub fn skip_unit(&self, unit: usize) {
        match self {
            ScanFile::Row(f) => f.skip_block(unit),
            ScanFile::Columnar(f) => f.skip_group(unit),
        }
    }

    /// Charges pushdown accounting (records dropped by a pushed predicate,
    /// fields never materialized) globally and to this handle.
    pub fn charge_pushdown(&self, records_skipped: u64, fields_skipped: u64) {
        match self {
            ScanFile::Row(f) => f.charge_pushdown(records_skipped, fields_skipped),
            ScanFile::Columnar(f) => f.charge_pushdown(records_skipped, fields_skipped),
        }
    }

    /// Snapshot of this handle's own counters (shared by its clones).
    pub fn local_stats(&self) -> ScanStats {
        match self {
            ScanFile::Row(f) => f.local_stats(),
            ScanFile::Columnar(f) => f.local_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ColumnKind;
    use crate::columnar::ColumnarFileWriter;
    use crate::error::WarehouseError;

    fn p(s: &str) -> WhPath {
        WhPath::parse(s).unwrap()
    }

    #[test]
    fn open_sniffs_the_layout_and_units_follow_it() {
        let wh = Warehouse::with_block_capacity(128);
        let mut w = wh.create(&p("/row")).unwrap();
        for i in 0..100 {
            w.append_record(format!("record-{i:06}").as_bytes());
        }
        let blocks = w.finish().unwrap().blocks as usize;
        let mut w =
            ColumnarFileWriter::create(&wh, &p("/col"), &[ColumnKind::Bytes; 2], 4, None).unwrap();
        for i in 0..10 {
            w.append_row(&[b"a", i.to_string().as_bytes()]);
        }
        w.finish().unwrap();
        let w = wh.create(&p("/empty")).unwrap();
        w.finish().unwrap();

        let row = ScanFile::open(&wh, &p("/row")).unwrap();
        assert!(matches!(row, ScanFile::Row(_)));
        assert_eq!(row.units(), blocks);
        let col = ScanFile::open(&wh, &p("/col")).unwrap();
        assert!(matches!(col, ScanFile::Columnar(_)));
        assert_eq!(col.units(), 3, "ceil(10/4) groups, header excluded");
        let empty = ScanFile::open(&wh, &p("/empty")).unwrap();
        assert_eq!(empty.units(), 0);
        let w = ColumnarFileWriter::create(&wh, &p("/col-empty"), &[ColumnKind::Bytes; 2], 4, None)
            .unwrap();
        w.finish().unwrap();
        let col_empty = ScanFile::open(&wh, &p("/col-empty")).unwrap();
        assert!(matches!(col_empty, ScanFile::Columnar(_)));
        assert_eq!(col_empty.units(), 0, "a header and no groups");
        assert!(matches!(
            ScanFile::open(&wh, &p("/missing")),
            Err(WarehouseError::NotFound(_))
        ));
    }

    #[test]
    fn skips_and_reads_bill_the_handle_that_made_them() {
        let wh = Warehouse::new();
        let mut w =
            ColumnarFileWriter::create(&wh, &p("/col"), &[ColumnKind::Bytes], 4, None).unwrap();
        for i in 0..12 {
            w.append_row_annotated(&[i.to_string().as_bytes()], i, 0);
        }
        w.finish().unwrap();
        let a = ScanFile::open(&wh, &p("/col")).unwrap();
        let b = ScanFile::open(&wh, &p("/col")).unwrap();
        assert_eq!(a.zone_map(1).map(|z| (z.min_key, z.max_key)), Some((4, 7)));
        a.skip_unit(0);
        let ScanFile::Columnar(f) = &b else {
            panic!("sniffed columnar")
        };
        f.read_group(1, &[true]).unwrap();
        b.charge_pushdown(3, 0);
        assert_eq!(a.local_stats().blocks_skipped, 1);
        assert_eq!(a.local_stats().blocks_read, 0);
        assert_eq!(b.local_stats().blocks_skipped, 0);
        assert_eq!(b.local_stats().blocks_read, 1);
        assert_eq!(b.local_stats().records_skipped_by_predicate, 3);
        // The warehouse-global counters are the sum of the handles.
        assert_eq!(wh.stats().blocks_skipped, 1);
        assert_eq!(wh.stats().blocks_read, 1);
    }

    #[test]
    fn a_future_format_version_is_an_error_not_a_row_file() {
        let wh = Warehouse::new();
        let mut header = crate::columnar::COLUMNAR_MAGIC.to_vec();
        header.extend_from_slice(&[9, 3, 0]);
        let mut w = wh.create(&p("/future")).unwrap();
        w.append_record(&header);
        w.finish().unwrap();
        assert!(matches!(
            ScanFile::open(&wh, &p("/future")),
            Err(WarehouseError::Corrupt(
                "unsupported columnar format version"
            ))
        ));
    }
}
