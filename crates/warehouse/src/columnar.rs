//! An RCFile-like columnar layout (§4.2's rejected design alternative).
//!
//! "To mitigate that issue, we could adopt a columnar storage format such
//! as RCFile. However, this solution primarily focuses on reducing the
//! running time of each map task; without modification, RCFiles would not
//! reduce the number of mappers that are spawned for large analytics jobs."
//!
//! The format mirrors RCFile's row-group-of-column-chunks shape: rows are
//! buffered into groups; within a group each column's cells are
//! concatenated and compressed separately, so a projection decompresses
//! only the columns it needs. A row group is the unit of scan (≈ one map
//! task), which is exactly why the paper's mapper-count problem survives
//! this layout — the experiment the `layout` ablation reproduces.
//!
//! This is the **v2 warehouse format** ([`ColumnarFileWriter`] /
//! [`ColumnarFile`]), the default landing layout. A v2 file opens with a
//! header block (`ULCF` magic, a format-version byte, the column count, and
//! an optional embedded dictionary for one designated column), and then maps
//! each row group onto exactly one block so group-level zone maps and
//! skipping reuse the ordinary block machinery. Dictionary-column cells
//! store a small integer code instead of the value — the code its writer,
//! who built the dictionary, hands over with the row; values missing from
//! the dictionary fall back to inline bytes, so the file never refuses a
//! row. Decompressed column chunks are cached content-addressed in the
//! shared block cache, keyed by chunk checksum + decoded length.

use std::collections::HashMap;
use std::sync::Arc;

use crate::cache::BlockKey;
use crate::compress;
use crate::error::{WarehouseError, WarehouseResult};
use crate::file::{FileBlocks, FileData};
use crate::hash::fnv1a64;
use crate::path::WhPath;
use crate::stats::ScanStats;
use crate::store::Warehouse;
use crate::varint::{read_varint, write_varint};
use crate::zone::ZoneMap;

/// Magic prefix of a v2 columnar file's header record.
pub const COLUMNAR_MAGIC: [u8; 4] = *b"ULCF";

/// The format version this build writes and reads.
pub const COLUMNAR_VERSION: u8 = 2;

/// Writes a v2 columnar file: header block first, then one row group per
/// block. Rows may carry zone annotations; a group whose every row was
/// annotated gets a zone map in the block footer (fail open otherwise),
/// exactly like the row-format writer.
pub struct ColumnarFileWriter {
    inner: crate::file::RecordFileWriter,
    columns: usize,
    rows_per_group: usize,
    /// The dictionary-coded column and how many entries its dictionary has.
    dictionary: Option<(usize, usize)>,
    buffers: Vec<Vec<u8>>,
    buffered_rows: usize,
    group_zone: ZoneMap,
    group_annotated: usize,
}

impl ColumnarFileWriter {
    /// Opens a v2 columnar file at `path`. `dictionary` optionally names one
    /// column plus its code table (index = code); a cell of that column
    /// appended with its code ([`append_row_coded`](Self::append_row_coded))
    /// is stored as the code, any other inline.
    pub fn create(
        warehouse: &Warehouse,
        path: &WhPath,
        columns: usize,
        rows_per_group: usize,
        dictionary: Option<(usize, &[&[u8]])>,
    ) -> WarehouseResult<ColumnarFileWriter> {
        assert!(columns > 0 && rows_per_group > 0);
        if let Some((col, _)) = dictionary {
            assert!(col < columns, "dictionary column in range");
        }
        let mut inner = warehouse.create(path)?;
        let mut header = Vec::new();
        header.extend_from_slice(&COLUMNAR_MAGIC);
        header.push(COLUMNAR_VERSION);
        write_varint(&mut header, columns as u64);
        match dictionary {
            Some((col, entries)) => {
                write_varint(&mut header, col as u64 + 1);
                write_varint(&mut header, entries.len() as u64);
                for value in entries {
                    write_varint(&mut header, value.len() as u64);
                    header.extend_from_slice(value);
                }
            }
            None => write_varint(&mut header, 0),
        }
        inner.append_record_sealed(&header, None);
        Ok(ColumnarFileWriter {
            inner,
            columns,
            rows_per_group,
            dictionary: dictionary.map(|(col, entries)| (col, entries.len())),
            buffers: vec![Vec::new(); columns],
            buffered_rows: 0,
            group_zone: ZoneMap::empty(),
            group_annotated: 0,
        })
    }

    /// Appends one row, every cell inline; `cells.len()` must equal the
    /// column count.
    pub fn append_row(&mut self, cells: &[&[u8]]) {
        self.push_cells(cells, None);
        self.maybe_seal();
    }

    /// Appends one row, every cell inline, with zone annotations: `key`
    /// folds into the group's min/max range and `tag` into its membership
    /// bitmap, like `append_record_annotated` does for row-format blocks.
    pub fn append_row_annotated(&mut self, cells: &[&[u8]], key: i64, tag: u64) {
        self.append_row_coded(cells, None, key, tag);
    }

    /// [`append_row_annotated`](Self::append_row_annotated) with the
    /// dictionary column's cell stored as `code` — the index, in the
    /// dictionary given to [`create`](Self::create), of an entry equal to
    /// that cell. `None` stores the cell inline, as a value the dictionary
    /// lacks must be. The writer looks nothing up: whoever built the
    /// dictionary knows its codes.
    pub fn append_row_coded(&mut self, cells: &[&[u8]], code: Option<u32>, key: i64, tag: u64) {
        self.group_zone.fold(key, tag);
        self.group_annotated += 1;
        self.push_cells(cells, code);
        self.maybe_seal();
    }

    fn push_cells(&mut self, cells: &[&[u8]], code: Option<u32>) {
        assert_eq!(cells.len(), self.columns, "row width");
        let (dict_col, dict_len) = self.dictionary.unzip();
        assert!(
            code.is_none_or(|code| (code as usize) < dict_len.unwrap_or(0)),
            "dictionary code in range"
        );
        for (c, (buf, cell)) in self.buffers.iter_mut().zip(cells).enumerate() {
            if Some(c) == dict_col {
                // Dictionary cell: varint(code + 1) on a hit, or a 0 marker
                // followed by the ordinary length-prefixed inline bytes.
                if let Some(code) = code {
                    write_varint(buf, u64::from(code) + 1);
                    continue;
                }
                buf.push(0);
            }
            write_varint(buf, cell.len() as u64);
            buf.extend_from_slice(cell);
        }
        self.buffered_rows += 1;
    }

    fn maybe_seal(&mut self) {
        if self.buffered_rows >= self.rows_per_group {
            self.seal_group();
        }
    }

    fn seal_group(&mut self) {
        if self.buffered_rows == 0 {
            return;
        }
        // Row group record: varint row count, varint column count, then per
        // column varint compressed length + compressed cells.
        // Sized for chunks that compress to half: one allocation, seldom two.
        let cells: usize = self.buffers.iter().map(Vec::len).sum();
        let mut record = Vec::with_capacity(cells / 2 + 16);
        write_varint(&mut record, self.buffered_rows as u64);
        write_varint(&mut record, self.columns as u64);
        // Every group is sealed into a block of its own, so between groups
        // the file writer's compressor is idle: the chunks borrow it.
        let compressor = &mut self.inner.compressor;
        debug_assert!(compressor.is_empty(), "a block is open between groups");
        for buf in &mut self.buffers {
            compressor.write(buf);
            let compressed = compressor.finish_block();
            write_varint(&mut record, compressed.len() as u64);
            record.extend_from_slice(&compressed);
            buf.clear();
        }
        let zone = (self.group_annotated == self.buffered_rows).then_some(self.group_zone);
        self.inner.append_record_sealed(&record, zone);
        self.buffered_rows = 0;
        self.group_zone = ZoneMap::empty();
        self.group_annotated = 0;
    }

    /// Seals the final group and installs the file.
    pub fn finish(mut self) -> WarehouseResult<()> {
        self.seal_group();
        self.inner.finish()?;
        Ok(())
    }
}

/// Re-encodes merged record payloads into one columnar file — the pluggable
/// hook the log mover uses to land an hour columnar while itself staying
/// payload-agnostic. Implementations are category-specific (the client-event
/// one lives in `uli-core`); the warehouse only defines the contract.
pub trait ColumnarLanding: Send + Sync {
    /// Writes `payloads` as one columnar file at `path`, returning the
    /// indexes of payloads that could not be encoded. The caller lands those
    /// in a row-format sibling file so nothing is lost to the re-encode.
    fn write_file(
        &self,
        warehouse: &Warehouse,
        path: &WhPath,
        payloads: &[Vec<u8>],
    ) -> WarehouseResult<Vec<usize>>;
}

/// The first record of a file's first block — where a columnar file keeps
/// its header. File metadata, read once per open: decompressed directly,
/// uncharged and uncached, like the block footers the row path reads.
/// `None` for an empty file or a first block that is not a framed record.
pub(crate) fn first_record(data: &FileData) -> Option<Vec<u8>> {
    let mut payload = compress::decompress(&data.blocks.first()?.compressed)?;
    let mut pos = 0;
    let len = usize::try_from(read_varint(&payload, &mut pos)?).ok()?;
    let end = pos.checked_add(len).filter(|end| *end <= payload.len())?;
    payload.truncate(end);
    payload.drain(..pos);
    Some(payload)
}

/// The format version a header record declares, when it carries the magic.
pub(crate) fn header_version(record: &[u8]) -> Option<u8> {
    (record.len() > COLUMNAR_MAGIC.len() && record[..4] == COLUMNAR_MAGIC).then(|| record[4])
}

/// Peeks at a file's first block without charging scan counters or touching
/// the cache: `Ok(Some(version))` when it carries the columnar magic,
/// `Ok(None)` for anything else (row-format files, headerless column
/// files, garbage — those surface their own errors on their own read
/// paths).
pub fn sniff_columnar(warehouse: &Warehouse, path: &WhPath) -> WarehouseResult<Option<u8>> {
    let data = warehouse.file_data(path)?;
    Ok(first_record(&data).as_deref().and_then(header_version))
}

/// One decoded cell of a projected column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnCell<'a> {
    /// The cell's bytes, decoded or stored inline.
    Bytes(&'a [u8]),
    /// A dictionary code; resolve via [`ColumnarFile::dictionary_value`].
    Code(u32),
}

/// Cell offsets into a decoded chunk. `code == 0` marks an inline cell at
/// `start..start+len`; otherwise the cell is dictionary code `code - 1`.
#[derive(Debug, Clone, Copy)]
struct CellRef {
    start: u32,
    len: u32,
    code: u32,
}

/// One projected column's decoded chunk plus per-row cell offsets.
struct ColumnChunk {
    data: Arc<Vec<u8>>,
    cells: Vec<CellRef>,
}

/// One decoded row group: the projected columns' chunks, addressable by
/// `(column, row)`. Unprojected columns answer `None`.
pub struct ColumnGroup {
    rows: usize,
    columns: Vec<Option<ColumnChunk>>,
}

impl ColumnGroup {
    /// Rows in this group.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The cell at `(col, row)`, or `None` when the column was not
    /// projected.
    pub fn cell(&self, col: usize, row: usize) -> Option<ColumnCell<'_>> {
        let chunk = self.columns.get(col)?.as_ref()?;
        let r = chunk.cells[row];
        Some(if r.code != 0 {
            ColumnCell::Code(r.code - 1)
        } else {
            ColumnCell::Bytes(&chunk.data[r.start as usize..(r.start + r.len) as usize])
        })
    }

    /// The cell at `(col, row)` of a column the caller declared it reads.
    /// Asking for a column the projection left out is a bug in the caller's
    /// mask: it panics in debug builds and is a typed error in release, so
    /// it can never pass for "no such row".
    pub fn read_cell(&self, col: usize, row: usize) -> WarehouseResult<ColumnCell<'_>> {
        let cell = self.cell(col, row);
        debug_assert!(cell.is_some(), "column {col} was not read");
        cell.ok_or(WarehouseError::UnreadColumn(col))
    }
}

/// Random-access, thread-safe reader of a v2 columnar file — the columnar
/// counterpart of [`FileBlocks`]. Groups can be read from any thread in any
/// order (each group ≈ one map task); every read is charged both to the
/// warehouse-global counters and to a per-handle cell.
///
/// Accounting: reading a group charges one `blocks_read` plus the group
/// envelope's compressed bytes; `uncompressed_bytes_read` counts only the
/// *decoded column chunks* — the bytes a projection actually materializes,
/// and exactly what the chunk cache serves on a hit. A skipped group counts
/// `blocks_skipped` and never consults the cache.
#[derive(Clone)]
pub struct ColumnarFile {
    fb: FileBlocks,
    columns: usize,
    dict_col: Option<usize>,
    dict: Arc<Vec<Vec<u8>>>,
    dict_index: Arc<HashMap<Vec<u8>, u32>>,
}

impl ColumnarFile {
    /// Opens a v2 columnar file, parsing the header block. Rejects files
    /// that lack the magic or declare a format version this build does not
    /// understand.
    pub fn open(warehouse: &Warehouse, path: &WhPath) -> WarehouseResult<ColumnarFile> {
        let fb = warehouse.open_blocks(path)?;
        let header =
            first_record(&fb.data).ok_or(WarehouseError::Corrupt("not a columnar file"))?;
        ColumnarFile::with_header(fb, &header)
    }

    /// Parses `record`, the first record of `fb`'s file, as the v2 header.
    pub(crate) fn with_header(fb: FileBlocks, record: &[u8]) -> WarehouseResult<ColumnarFile> {
        match header_version(record) {
            None => return Err(WarehouseError::Corrupt("not a columnar file")),
            Some(COLUMNAR_VERSION) => {}
            Some(_) => {
                return Err(WarehouseError::Corrupt(
                    "unsupported columnar format version",
                ))
            }
        }
        let mut pos = 5;
        let columns = read_varint(record, &mut pos)
            .ok_or(WarehouseError::Corrupt("columnar header column count"))?
            as usize;
        if columns == 0 {
            return Err(WarehouseError::Corrupt("columnar header column count"));
        }
        let dict_tag = read_varint(record, &mut pos)
            .ok_or(WarehouseError::Corrupt("columnar header dictionary"))?;
        let mut dict_col = None;
        let mut dict: Vec<Vec<u8>> = Vec::new();
        let mut dict_index = HashMap::new();
        if dict_tag != 0 {
            let col = (dict_tag - 1) as usize;
            if col >= columns {
                return Err(WarehouseError::Corrupt("columnar dictionary column"));
            }
            dict_col = Some(col);
            let entries = read_varint(record, &mut pos)
                .ok_or(WarehouseError::Corrupt("columnar header dictionary"))?
                as usize;
            // Every entry costs at least one length byte, so a claimed count
            // beyond the remaining header bytes is structurally impossible —
            // reject before allocating.
            if entries > record.len() - pos {
                return Err(WarehouseError::Corrupt("columnar dictionary entries"));
            }
            dict.reserve(entries);
            for code in 0..entries {
                let len = read_varint(record, &mut pos)
                    .ok_or(WarehouseError::Corrupt("columnar dictionary entry"))?
                    as usize;
                let value = record
                    .get(pos..pos + len)
                    .ok_or(WarehouseError::Corrupt("columnar dictionary entry"))?;
                pos += len;
                dict_index.entry(value.to_vec()).or_insert(code as u32);
                dict.push(value.to_vec());
            }
        }
        Ok(ColumnarFile {
            fb,
            columns,
            dict_col,
            dict: Arc::new(dict),
            dict_index: Arc::new(dict_index),
        })
    }

    /// Number of columns per row.
    pub fn columns(&self) -> usize {
        self.columns
    }

    /// Number of row groups (header block excluded).
    pub fn group_count(&self) -> usize {
        self.fb.block_count().saturating_sub(1)
    }

    /// The dictionary-encoded column, if the file has one.
    pub fn dict_column(&self) -> Option<usize> {
        self.dict_col
    }

    /// The code the embedded dictionary assigns `value`, if any.
    pub fn dictionary_code(&self, value: &[u8]) -> Option<u32> {
        self.dict_index.get(value).copied()
    }

    /// The value behind a dictionary code.
    pub fn dictionary_value(&self, code: u32) -> Option<&[u8]> {
        self.dict.get(code as usize).map(Vec::as_slice)
    }

    /// The bytes of cell `(col, row)` of `group`, dictionary codes resolved
    /// through the embedded dictionary. Errors (see
    /// [`ColumnGroup::read_cell`]) when `group` was read without `col`.
    pub fn cell_bytes<'a>(
        &'a self,
        group: &'a ColumnGroup,
        col: usize,
        row: usize,
    ) -> WarehouseResult<&'a [u8]> {
        match group.read_cell(col, row)? {
            ColumnCell::Bytes(b) => Ok(b),
            ColumnCell::Code(c) => self
                .dictionary_value(c)
                .ok_or(WarehouseError::Corrupt("cell code")),
        }
    }

    /// Zone map of group `g`, if it was written fully annotated.
    pub fn zone_map(&self, g: usize) -> Option<ZoneMap> {
        self.fb.zone_map(g + 1)
    }

    /// Records that group `g` was skipped without decompression. Skips never
    /// consult the chunk cache, so a pruned-but-cached group still counts
    /// `blocks_skipped` and never a `cache_hit`.
    pub fn skip_group(&self, g: usize) {
        self.fb.skip_block(g + 1);
    }

    /// Charges pushdown accounting to both the warehouse-global counters and
    /// this handle's local cell.
    pub fn charge_pushdown(&self, records_skipped: u64, fields_skipped: u64) {
        self.fb.charge_pushdown(records_skipped, fields_skipped);
    }

    /// Snapshot of this handle's own counters (shared by its clones).
    pub fn local_stats(&self) -> ScanStats {
        self.fb.local_stats()
    }

    /// Reads group `g`, decoding only the columns whose entry in
    /// `projection` is true (`projection.len()` must equal the column
    /// count). Unprojected columns charge `fields_skipped` for every row.
    pub fn read_group(&self, g: usize, projection: &[bool]) -> WarehouseResult<ColumnGroup> {
        assert_eq!(projection.len(), self.columns, "projection width");
        let idx = g + 1;
        let block = self
            .fb
            .data
            .blocks
            .get(idx)
            .ok_or(WarehouseError::Corrupt("row group out of range"))?;
        if fnv1a64(&block.compressed) != block.checksum {
            return Err(WarehouseError::ChecksumMismatch {
                path: self.fb.path.clone(),
                block: idx,
            });
        }
        let payload = compress::decompress(&block.compressed)
            .ok_or(WarehouseError::Corrupt("block failed to decompress"))?;
        if payload.len() as u64 != block.uncompressed_len {
            return Err(WarehouseError::Corrupt("block length mismatch"));
        }
        // The envelope pass: one logical block read, compressed bytes off
        // "disk". Decoded bytes are charged per projected chunk below.
        self.fb.stats.block_read(block.compressed.len() as u64, 0);
        self.fb.local.block_read(block.compressed.len() as u64, 0);

        let mut pos = 0;
        let len = read_varint(&payload, &mut pos)
            .ok_or(WarehouseError::Corrupt("row group framing"))? as usize;
        let record = payload
            .get(pos..pos + len)
            .ok_or(WarehouseError::Corrupt("row group framing"))?;
        if pos + len != payload.len() {
            return Err(WarehouseError::Corrupt("row group framing"));
        }
        let mut pos = 0;
        let rows = read_varint(record, &mut pos)
            .ok_or(WarehouseError::Corrupt("row group header"))? as usize;
        let cols = read_varint(record, &mut pos)
            .ok_or(WarehouseError::Corrupt("row group header"))? as usize;
        if cols != self.columns {
            return Err(WarehouseError::Corrupt("row group column count"));
        }
        let mut columns: Vec<Option<ColumnChunk>> = Vec::with_capacity(cols);
        let mut fields_skipped = 0u64;
        for (c, &projected) in projection.iter().enumerate().take(cols) {
            let len = read_varint(record, &mut pos)
                .ok_or(WarehouseError::Corrupt("column length"))? as usize;
            let chunk = record
                .get(pos..pos + len)
                .ok_or(WarehouseError::Corrupt("column body"))?;
            pos += len;
            if !projected {
                fields_skipped += rows as u64;
                columns.push(None);
                continue;
            }
            let data = self.chunk_payload(chunk)?;
            let dict_len = (Some(c) == self.dict_col).then(|| self.dict.len() as u64);
            let cells = split_cells(&data, rows, dict_len)?;
            columns.push(Some(ColumnChunk { data, cells }));
        }
        self.fb.stats.records_read_n(rows as u64);
        self.fb.local.records_read_n(rows as u64);
        if fields_skipped > 0 {
            self.charge_pushdown(0, fields_skipped);
        }
        Ok(ColumnGroup { rows, columns })
    }

    /// Fetches one column chunk's decoded bytes — content-addressed from the
    /// shared cache when hot, decompressing (and populating the cache) when
    /// cold. Hits charge decoded bytes but no `blocks_read` (the group
    /// envelope already counted) and no compressed traffic.
    fn chunk_payload(&self, chunk: &[u8]) -> WarehouseResult<Arc<Vec<u8>>> {
        // The ulz stream's varint prefix declares the decoded length, so the
        // cache key is known without decompressing.
        let mut pos = 0;
        let decoded_len =
            read_varint(chunk, &mut pos).ok_or(WarehouseError::Corrupt("column chunk header"))?;
        let key = BlockKey {
            checksum: fnv1a64(chunk),
            uncompressed_len: decoded_len,
        };
        if let Some(data) = self.fb.cache.get(key) {
            self.fb.stats.chunk_cache_hit(data.len() as u64);
            self.fb.local.chunk_cache_hit(data.len() as u64);
            return Ok(data);
        }
        let decoded = compress::decompress(chunk)
            .ok_or(WarehouseError::Corrupt("column chunk decompress"))?;
        self.fb.stats.chunk_cache_miss(decoded.len() as u64);
        self.fb.local.chunk_cache_miss(decoded.len() as u64);
        let data = Arc::new(decoded);
        self.fb.cache.insert(key, Arc::clone(&data));
        Ok(data)
    }
}

/// Splits a decoded chunk into exactly `rows` cell references, validating
/// the whole chunk (trailing garbage is corruption, not slack). For a
/// dictionary column, `dict_len` bounds the codes a cell may carry.
fn split_cells(data: &[u8], rows: usize, dict_len: Option<u64>) -> WarehouseResult<Vec<CellRef>> {
    // Every cell costs at least one byte, so `rows` beyond the chunk length
    // is structurally impossible — reject before allocating.
    if rows > data.len() {
        return Err(WarehouseError::Corrupt("cell count"));
    }
    let mut cells = Vec::with_capacity(rows);
    let mut pos = 0;
    for _ in 0..rows {
        if let Some(dict_len) = dict_len {
            let v = read_varint(data, &mut pos).ok_or(WarehouseError::Corrupt("cell code"))?;
            if v != 0 {
                if v > dict_len {
                    return Err(WarehouseError::Corrupt("cell code"));
                }
                cells.push(CellRef {
                    start: 0,
                    len: 0,
                    code: v as u32,
                });
                continue;
            }
        }
        let len = read_varint(data, &mut pos).ok_or(WarehouseError::Corrupt("cell length"))?;
        let len = usize::try_from(len).map_err(|_| WarehouseError::Corrupt("cell length"))?;
        if data.len() - pos < len {
            return Err(WarehouseError::Corrupt("cell body"));
        }
        cells.push(CellRef {
            start: pos as u32,
            len: len as u32,
            code: 0,
        });
        pos += len;
    }
    if pos != data.len() {
        return Err(WarehouseError::Corrupt("cell trailing bytes"));
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> WhPath {
        WhPath::parse(s).unwrap()
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn wrong_width_panics() {
        let wh = Warehouse::new();
        let mut w = ColumnarFileWriter::create(&wh, &p("/x"), 2, 8, None).unwrap();
        w.append_row(&[b"only-one"]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Arbitrary cell contents round-trip through any projection.
            #[test]
            fn round_trips_any_projection(
                rows in proptest::collection::vec(
                    (proptest::collection::vec(any::<u8>(), 0..40),
                     proptest::collection::vec(any::<u8>(), 0..40)),
                    0..60,
                ),
                group in 1usize..16,
                project_second in any::<bool>(),
            ) {
                let wh = Warehouse::new();
                let path = WhPath::parse("/prop").unwrap();
                let mut w = ColumnarFileWriter::create(&wh, &path, 2, group, None).unwrap();
                for (a, b) in &rows {
                    w.append_row(&[a.as_slice(), b.as_slice()]);
                }
                w.finish().unwrap();
                let f = ColumnarFile::open(&wh, &path).unwrap();
                prop_assert_eq!(f.group_count(), rows.len().div_ceil(group));
                let mut i = 0;
                for g in 0..f.group_count() {
                    let grp = f.read_group(g, &[true, project_second]).unwrap();
                    for r in 0..grp.rows() {
                        prop_assert_eq!(grp.cell(0, r), Some(ColumnCell::Bytes(&rows[i].0)));
                        let second = project_second.then_some(ColumnCell::Bytes(&rows[i].1));
                        prop_assert_eq!(grp.cell(1, r), second);
                        i += 1;
                    }
                }
                prop_assert_eq!(i, rows.len());
            }
        }
    }

    mod v2 {
        use super::*;

        /// A 3-column fixture: col 1 is dictionary-encoded over two known
        /// values, with every 10th row carrying a value outside the
        /// dictionary (inline fallback). Rows are zone-annotated with
        /// key = row index and tag = hash of the col-1 value.
        fn write_v2(wh: &Warehouse, path: &str, rows: usize, group: usize) -> Vec<[Vec<u8>; 3]> {
            let dict: [&[u8]; 2] = [b"click", b"view"];
            let mut w =
                ColumnarFileWriter::create(wh, &p(path), 3, group, Some((1, &dict))).unwrap();
            let mut expect = Vec::with_capacity(rows);
            for i in 0..rows {
                let a = format!("user-{}", i % 7).into_bytes();
                let b = if i % 10 == 9 {
                    format!("rare-{i}").into_bytes()
                } else if i % 3 == 0 {
                    b"click".to_vec()
                } else {
                    b"view".to_vec()
                };
                let c = format!("payload-{i}-{}", "x".repeat(40)).into_bytes();
                let code = dict.iter().position(|entry| *entry == b).map(|c| c as u32);
                w.append_row_coded(&[&a, &b, &c], code, i as i64, crate::zone::tag_hash(&b));
                expect.push([a, b, c]);
            }
            w.finish().unwrap();
            expect
        }

        fn resolve<'a>(f: &'a ColumnarFile, cell: ColumnCell<'a>) -> &'a [u8] {
            match cell {
                ColumnCell::Bytes(b) => b,
                ColumnCell::Code(c) => f.dictionary_value(c).expect("code in range"),
            }
        }

        #[test]
        fn round_trips_with_dictionary_and_inline_fallback() {
            let wh = Warehouse::new();
            let expect = write_v2(&wh, "/v2", 95, 32);
            let f = ColumnarFile::open(&wh, &p("/v2")).unwrap();
            assert_eq!(f.columns(), 3);
            assert_eq!(f.group_count(), 3); // ceil(95/32)
            assert_eq!(f.dict_column(), Some(1));
            assert_eq!(f.dictionary_code(b"click"), Some(0));
            assert_eq!(f.dictionary_code(b"nope"), None);
            let mut i = 0;
            for g in 0..f.group_count() {
                let grp = f.read_group(g, &[true, true, true]).unwrap();
                for r in 0..grp.rows() {
                    for (c, want) in expect[i].iter().enumerate() {
                        let cell = grp.cell(c, r).unwrap();
                        assert_eq!(resolve(&f, cell), want.as_slice(), "row {i} col {c}");
                    }
                    // Dictionary hits come back as codes, misses inline.
                    match grp.cell(1, r).unwrap() {
                        ColumnCell::Code(code) => assert!(code < 2),
                        ColumnCell::Bytes(b) => assert!(b.starts_with(b"rare-")),
                    }
                    i += 1;
                }
            }
            assert_eq!(i, 95);
        }

        #[test]
        fn projection_decodes_only_requested_chunks() {
            let wh = Warehouse::with_config(64 * 1024, 0); // cache off
            write_v2(&wh, "/v2", 200, 64);
            let wide = ColumnarFile::open(&wh, &p("/v2")).unwrap();
            for g in 0..wide.group_count() {
                wide.read_group(g, &[true, true, true]).unwrap();
            }
            let w = wide.local_stats();
            let narrow = ColumnarFile::open(&wh, &p("/v2")).unwrap();
            for g in 0..narrow.group_count() {
                let grp = narrow.read_group(g, &[false, true, false]).unwrap();
                assert!(grp.cell(0, 0).is_none(), "unprojected column");
                assert!(grp.cell(1, 0).is_some());
            }
            let n = narrow.local_stats();
            assert_eq!(n.blocks_read, w.blocks_read, "groups visited unchanged");
            assert_eq!(n.records_read, w.records_read);
            assert_eq!(
                n.compressed_bytes_read, w.compressed_bytes_read,
                "the envelope always comes off disk"
            );
            assert!(
                n.uncompressed_bytes_read * 3 < w.uncompressed_bytes_read,
                "projection must cut decoded bytes: {} vs {}",
                n.uncompressed_bytes_read,
                w.uncompressed_bytes_read
            );
            assert_eq!(n.fields_skipped, 2 * 200, "two columns skipped per row");
        }

        #[test]
        fn chunk_cache_serves_repeat_reads() {
            let wh = Warehouse::new();
            write_v2(&wh, "/v2", 100, 50);
            let f = ColumnarFile::open(&wh, &p("/v2")).unwrap();
            for g in 0..f.group_count() {
                f.read_group(g, &[true, true, true]).unwrap();
            }
            let cold = f.local_stats();
            assert_eq!(cold.cache_hits, 0);
            assert_eq!(cold.cache_misses, 6, "3 chunks × 2 groups");
            let f2 = ColumnarFile::open(&wh, &p("/v2")).unwrap();
            for g in 0..f2.group_count() {
                f2.read_group(g, &[true, true, true]).unwrap();
            }
            let hot = f2.local_stats();
            assert_eq!(hot.cache_hits, 6, "every chunk served from cache");
            assert_eq!(hot.cache_misses, 0);
            assert_eq!(
                hot.uncompressed_bytes_read, cold.uncompressed_bytes_read,
                "hits charge the same decoded bytes"
            );
            assert_eq!(
                hot.compressed_bytes_read, cold.compressed_bytes_read,
                "the envelope is never cached"
            );
        }

        #[test]
        fn zone_maps_cover_groups_and_skips_never_hit_the_cache() {
            let wh = Warehouse::new();
            write_v2(&wh, "/v2", 100, 50);
            let f = ColumnarFile::open(&wh, &p("/v2")).unwrap();
            let z0 = f.zone_map(0).expect("fully annotated group");
            let z1 = f.zone_map(1).expect("fully annotated group");
            assert_eq!((z0.min_key, z0.max_key), (0, 49));
            assert_eq!((z1.min_key, z1.max_key), (50, 99));
            assert!(z0.may_contain_tag(crate::zone::tag_hash(b"click")));

            // Warm the cache with a full read, then prune group 0: it must
            // count blocks_skipped and never cache_hit (PR 2 semantics).
            for g in 0..f.group_count() {
                f.read_group(g, &[true, true, true]).unwrap();
            }
            let f2 = ColumnarFile::open(&wh, &p("/v2")).unwrap();
            f2.skip_group(0);
            f2.read_group(1, &[true, true, true]).unwrap();
            let s = f2.local_stats();
            assert_eq!(s.blocks_skipped, 1);
            assert_eq!(s.blocks_read, 1);
            assert_eq!(s.cache_hits, 3, "only the read group's chunks hit");
        }

        #[test]
        fn pruned_but_cached_group_pins_through_both_obs_exports() {
            let registry = uli_obs::Registry::new();
            let wh = Warehouse::new_with_obs(&registry);
            write_v2(&wh, "/v2", 100, 50);
            let f = ColumnarFile::open(&wh, &p("/v2")).unwrap();
            for g in 0..f.group_count() {
                f.read_group(g, &[true, true, true]).unwrap();
            }
            let hits_before = wh.stats().cache_hits;
            let f2 = ColumnarFile::open(&wh, &p("/v2")).unwrap();
            f2.skip_group(0);
            f2.skip_group(1);
            assert_eq!(wh.stats().blocks_skipped, 2);
            assert_eq!(wh.stats().cache_hits, hits_before, "skips never hit");
            let snap = registry.snapshot();
            assert_eq!(snap.counter_value("warehouse/blocks_skipped"), Some(2));
            assert_eq!(
                snap.counter_value("warehouse/cache_hits"),
                Some(hits_before)
            );
            let json = snap.to_json();
            assert!(
                json.contains(
                    "\"key\": \"warehouse/blocks_skipped\", \"labels\": {}, \"value\": 2}"
                ),
                "{json}"
            );
            let prom = snap.to_prometheus();
            assert!(prom.contains("uli_warehouse_blocks_skipped 2"), "{prom}");
        }

        #[test]
        fn sniff_tells_layouts_apart() {
            let wh = Warehouse::new();
            write_v2(&wh, "/v2", 10, 4);
            assert_eq!(sniff_columnar(&wh, &p("/v2")).unwrap(), Some(2));
            // Row-format file: no magic.
            let mut w = wh.create(&p("/row")).unwrap();
            w.append_record(b"plain record");
            w.finish().unwrap();
            assert_eq!(sniff_columnar(&wh, &p("/row")).unwrap(), None);
            // A headerless column file (the retired v1 shape: row-group
            // records from the first block on) sniffs as a row file.
            let mut group = Vec::new();
            write_varint(&mut group, 1); // rows
            write_varint(&mut group, 2); // columns
            for cells in [b"\x01a", b"\x01b"] {
                let chunk = compress::compress(cells);
                write_varint(&mut group, chunk.len() as u64);
                group.extend_from_slice(&chunk);
            }
            let mut w = wh.create(&p("/v1")).unwrap();
            w.append_record(&group);
            w.finish().unwrap();
            assert_eq!(sniff_columnar(&wh, &p("/v1")).unwrap(), None);
            // Empty file.
            let w = wh.create(&p("/empty")).unwrap();
            w.finish().unwrap();
            assert_eq!(sniff_columnar(&wh, &p("/empty")).unwrap(), None);
        }

        #[test]
        fn unknown_format_version_is_rejected_cleanly() {
            let wh = Warehouse::new();
            // Forge a header that claims version 9.
            let mut header = Vec::new();
            header.extend_from_slice(&COLUMNAR_MAGIC);
            header.push(9);
            write_varint(&mut header, 3);
            write_varint(&mut header, 0);
            let mut w = wh.create(&p("/future")).unwrap();
            w.append_record_sealed(&header, None);
            w.finish().unwrap();
            assert_eq!(sniff_columnar(&wh, &p("/future")).unwrap(), Some(9));
            assert!(matches!(
                ColumnarFile::open(&wh, &p("/future")),
                Err(WarehouseError::Corrupt(
                    "unsupported columnar format version"
                ))
            ));
            // And a non-columnar file is "not a columnar file", not a panic.
            let mut w = wh.create(&p("/row")).unwrap();
            w.append_record(b"some record");
            w.finish().unwrap();
            assert!(matches!(
                ColumnarFile::open(&wh, &p("/row")),
                Err(WarehouseError::Corrupt("not a columnar file"))
            ));
        }

        #[test]
        fn hostile_row_counts_are_rejected_before_allocation() {
            let wh = Warehouse::new();
            // Valid header, then a group record claiming u64::MAX rows.
            let mut header = Vec::new();
            header.extend_from_slice(&COLUMNAR_MAGIC);
            header.push(COLUMNAR_VERSION);
            write_varint(&mut header, 1);
            write_varint(&mut header, 0);
            let mut group = Vec::new();
            write_varint(&mut group, u64::MAX); // rows
            write_varint(&mut group, 1); // cols
            let chunk = compress::compress(b"\x00");
            write_varint(&mut group, chunk.len() as u64);
            group.extend_from_slice(&chunk);
            let mut w = wh.create(&p("/hostile")).unwrap();
            w.append_record_sealed(&header, None);
            w.append_record_sealed(&group, None);
            w.finish().unwrap();
            let f = ColumnarFile::open(&wh, &p("/hostile")).unwrap();
            assert!(f.read_group(0, &[true]).is_err());
        }

        #[test]
        fn truncated_group_is_rejected_whole() {
            let wh = Warehouse::new();
            write_v2(&wh, "/v2", 40, 20);
            // Drop the tail of group 1's block (checksum recomputed): the
            // read must fail as a unit, not yield a partial group.
            wh.truncate_block(&p("/v2"), 2).unwrap();
            let f = ColumnarFile::open(&wh, &p("/v2")).unwrap();
            assert!(f.read_group(0, &[true, true, true]).is_ok());
            assert!(f.read_group(1, &[true, true, true]).is_err());
        }

        mod hostile_properties {
            use super::*;
            use proptest::prelude::*;

            /// Builds a file whose single "row group" record is `body`,
            /// behind a well-formed v2 header for `cols` columns.
            fn forge(wh: &Warehouse, cols: u64, dict: bool, body: &[u8]) -> WhPath {
                let path = p("/forged");
                let mut header = Vec::new();
                header.extend_from_slice(&COLUMNAR_MAGIC);
                header.push(COLUMNAR_VERSION);
                write_varint(&mut header, cols);
                if dict {
                    write_varint(&mut header, 1); // dictionary on column 0
                    write_varint(&mut header, 2);
                    for v in [b"aa".as_slice(), b"bb".as_slice()] {
                        write_varint(&mut header, v.len() as u64);
                        header.extend_from_slice(v);
                    }
                } else {
                    write_varint(&mut header, 0);
                }
                let mut w = wh.create(&path).unwrap();
                w.append_record_sealed(&header, None);
                w.append_record_sealed(body, None);
                w.finish().unwrap();
                path
            }

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(64))]

                /// Arbitrary bytes in place of a row group must never panic
                /// and never yield a half-decoded group: either a clean
                /// error, or a structurally valid group whose every cell is
                /// addressable.
                #[test]
                fn garbage_groups_never_panic(
                    body in proptest::collection::vec(any::<u8>(), 0..200),
                    dict in any::<bool>(),
                ) {
                    let wh = Warehouse::new();
                    let path = forge(&wh, 2, dict, &body);
                    let f = ColumnarFile::open(&wh, &path).unwrap();
                    if let Ok(g) = f.read_group(0, &[true, true]) {
                        for r in 0..g.rows() {
                            for c in 0..2 {
                                let cell = g.cell(c, r).unwrap();
                                if let ColumnCell::Code(code) = cell {
                                    prop_assert!(f.dictionary_value(code).is_some());
                                }
                            }
                        }
                    }
                }

                /// Truncating a valid group record anywhere must reject the
                /// group whole.
                #[test]
                fn truncated_groups_are_rejected(cut_pct in 0u64..100) {
                    let wh = Warehouse::new();
                    // A valid group: 3 rows × 2 cols, col 0 dictionary.
                    let mut body = Vec::new();
                    write_varint(&mut body, 3);
                    write_varint(&mut body, 2);
                    let mut col0 = Vec::new();
                    for code in [1u64, 2, 0] {
                        write_varint(&mut col0, code);
                        if code == 0 {
                            write_varint(&mut col0, 4);
                            col0.extend_from_slice(b"miss");
                        }
                    }
                    let mut col1 = Vec::new();
                    for v in [b"x".as_slice(), b"yy", b"zzz"] {
                        write_varint(&mut col1, v.len() as u64);
                        col1.extend_from_slice(v);
                    }
                    for chunk in [compress::compress(&col0), compress::compress(&col1)] {
                        write_varint(&mut body, chunk.len() as u64);
                        body.extend_from_slice(&chunk);
                    }
                    let full = body.len();
                    let cut = (full as u64 * cut_pct / 100) as usize;
                    let wh2 = Warehouse::new();
                    let whole = forge(&wh, 2, true, &body);
                    let truncated = forge(&wh2, 2, true, &body[..cut]);
                    let f = ColumnarFile::open(&wh, &whole).unwrap();
                    prop_assert!(f.read_group(0, &[true, true]).is_ok());
                    let t = ColumnarFile::open(&wh2, &truncated).unwrap();
                    if cut < full {
                        prop_assert!(t.read_group(0, &[true, true]).is_err());
                    }
                }

                /// Overlong varints (11+ continuation bytes) anywhere in the
                /// group header are structural errors, not panics or hangs.
                #[test]
                fn overlong_varints_are_rejected(tail in proptest::collection::vec(any::<u8>(), 0..20)) {
                    let wh = Warehouse::new();
                    let mut body = vec![0x80u8; 11]; // overlong rows varint
                    body.extend_from_slice(&tail);
                    let path = forge(&wh, 2, false, &body);
                    let f = ColumnarFile::open(&wh, &path).unwrap();
                    prop_assert!(f.read_group(0, &[true, true]).is_err());
                }
            }
        }
    }
}
