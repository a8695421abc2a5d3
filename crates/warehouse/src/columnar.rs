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
//! This is the **v4 warehouse format** ([`ColumnarFileWriter`] /
//! [`ColumnarFile`]), the default landing layout. A file opens with a
//! header block (`ULCF` magic, a format-version byte, the column count, and
//! an optional embedded dictionary for one designated column), and then maps
//! each row group onto exactly one block so group-level zone maps and
//! skipping reuse the ordinary block machinery.
//!
//! A row group's block is stored as it stands — every chunk in it is
//! already compressed, once — and opens with a header: the row count, then
//! per column the chunk's encoding tag, stored length and checksum. The
//! block's own checksum covers that header. A read verifies the header,
//! then verifies, decompresses and is charged for only the chunks its
//! projection names; the stored chunk checksum doubles as the key of the
//! shared cache of decoded chunks, so a warm read hashes nothing.
//!
//! The writer is told each column's [`ColumnKind`]; a chunk whose cells all
//! fit the kind is transposed before compression — its values stored in the
//! shape they have, packed hex digits, numbers, dotted quads, where they have
//! one (see [`crate::chunk`]) — and rebuilt on read to exactly the cells
//! that were appended, so nothing above [`ColumnGroup`] can tell. Dictionary-column cells store a small
//! integer code instead of the value — the code its writer, who built the
//! dictionary, hands over with the row; values missing from the dictionary
//! fall back to inline bytes, so the file never refuses a row.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::cache::BlockKey;
use crate::chunk::{self, ColumnKind, StoredAs, StoredRun};
use crate::compress;
use crate::error::{WarehouseError, WarehouseResult};
use crate::file::FileBlocks;
use crate::hash::block_checksum;
use crate::path::WhPath;
use crate::stats::ScanStats;
use crate::store::Warehouse;
use crate::varint::{read_varint, write_varint};
use crate::zone::ZoneMap;

/// Magic prefix of a columnar file's header record.
pub const COLUMNAR_MAGIC: [u8; 4] = *b"ULCF";

/// The format version this build writes and reads.
pub const COLUMNAR_VERSION: u8 = 4;

/// Writes a v4 columnar file: header block first, then one row group per
/// block. Rows may carry zone annotations; a group whose every row was
/// annotated gets a zone map in the block footer (fail open otherwise),
/// exactly like the row-format writer.
pub struct ColumnarFileWriter {
    inner: crate::file::RecordFileWriter,
    /// Each column's declared kind; its length is the row width.
    schema: Vec<ColumnKind>,
    rows_per_group: usize,
    /// The dictionary-coded column and how many entries its dictionary has.
    dictionary: Option<(usize, usize)>,
    /// Per column, the open group's cells, each behind its varint length.
    buffers: Vec<Vec<u8>>,
    /// Where a typed chunk is transposed before it is compressed.
    transposer: chunk::Transposer,
    buffered_rows: usize,
    group_zone: ZoneMap,
    group_annotated: usize,
}

impl ColumnarFileWriter {
    /// Opens a v4 columnar file at `path` whose rows have one cell per
    /// entry of `schema`. `dictionary` optionally names one column plus its
    /// code table (index = code); a cell of that column appended with its
    /// code ([`append_row_coded`](Self::append_row_coded)) is stored as the
    /// code, any other inline.
    pub fn create(
        warehouse: &Warehouse,
        path: &WhPath,
        schema: &[ColumnKind],
        rows_per_group: usize,
        dictionary: Option<(usize, &[&[u8]])>,
    ) -> WarehouseResult<ColumnarFileWriter> {
        assert!(!schema.is_empty() && rows_per_group > 0);
        if let Some((col, _)) = dictionary {
            assert!(
                schema.get(col) == Some(&ColumnKind::Bytes),
                "the dictionary column is an opaque-bytes column in range"
            );
        }
        let mut inner = warehouse.create(path)?;
        let mut header = Vec::new();
        header.extend_from_slice(&COLUMNAR_MAGIC);
        header.push(COLUMNAR_VERSION);
        write_varint(&mut header, schema.len() as u64);
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
        inner.append_header_record(&header);
        Ok(ColumnarFileWriter {
            inner,
            schema: schema.to_vec(),
            rows_per_group,
            dictionary: dictionary.map(|(col, entries)| (col, entries.len())),
            buffers: vec![Vec::new(); schema.len()],
            transposer: chunk::Transposer::default(),
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
        assert_eq!(cells.len(), self.schema.len(), "row width");
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

    /// Seals the open group into one stored block: the header (varint row
    /// count, then per column a tag byte, the varint stored length and the
    /// eight checksum bytes of its chunk), then the chunks back to back.
    /// Each chunk is one `ulz` stream — of the column's transposed cells
    /// when they all fit its kind, of the cells as buffered otherwise (the
    /// dictionary column's always: they are codes already) — and that is the
    /// only time these bytes meet the compressor.
    fn seal_group(&mut self) {
        if self.buffered_rows == 0 {
            return;
        }
        // Every group is sealed into a block of its own, so between groups
        // the file writer's compressor is idle: the chunks borrow it.
        let compressor = &mut self.inner.compressor;
        debug_assert!(compressor.is_empty(), "a block is open between groups");
        let mut header = Vec::with_capacity(4 + 12 * self.schema.len());
        write_varint(&mut header, self.buffered_rows as u64);
        let mut chunks = Vec::with_capacity(self.schema.len());
        let dict_col = self.dictionary.map(|(col, _)| col);
        for (c, (kind, buf)) in self.schema.iter().zip(&mut self.buffers).enumerate() {
            let transposed = (Some(c) != dict_col)
                .then(|| self.transposer.transpose(*kind, buf, self.buffered_rows))
                .flatten();
            let (stored_as, cells) = transposed.unwrap_or((StoredAs::Cells, buf));
            compressor.write(cells);
            let stored = compressor.finish_block();
            header.push(stored_as.tag());
            write_varint(&mut header, stored.len() as u64);
            header.extend_from_slice(&block_checksum(&stored).to_le_bytes());
            chunks.push(stored);
            buf.clear();
        }
        let checksum = block_checksum(&header);
        let mut block = header;
        block.reserve_exact(chunks.iter().map(Vec::len).sum());
        for stored in &chunks {
            block.extend_from_slice(stored);
        }
        let zone = (self.group_annotated == self.buffered_rows).then_some(self.group_zone);
        self.inner.append_stored_block(block, checksum, zone);
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

/// A file's first block, decompressed, and where its first record lies in
/// it — where a columnar file keeps its header.
pub(crate) struct FirstRecord {
    block: Arc<Vec<u8>>,
    at: Range<usize>,
}

impl FirstRecord {
    /// Frames the first record of a decompressed block; `None` when the
    /// block does not open with a framed record.
    fn of(block: Arc<Vec<u8>>) -> Option<FirstRecord> {
        let mut pos = 0;
        let len = usize::try_from(read_varint(&block, &mut pos)?).ok()?;
        let end = pos.checked_add(len).filter(|end| *end <= block.len())?;
        Some(FirstRecord {
            block,
            at: pos..end,
        })
    }

    pub(crate) fn bytes(&self) -> &[u8] {
        &self.block[self.at.clone()]
    }

    /// The format version the record declares, when it carries the magic.
    pub(crate) fn version(&self) -> Option<u8> {
        let record = self.bytes();
        (record.len() > COLUMNAR_MAGIC.len() && record[..4] == COLUMNAR_MAGIC).then(|| record[4])
    }
}

/// The first record of `fb`'s file. File metadata, read on every open and
/// charged to no one, like the block footers the row path reads — `None`
/// for an empty file or a first block that is not a framed record. The
/// decompressed block is taken from the shared cache when it is there, and
/// a columnar file's header block is left there for the next open: the key
/// is what the file's footer says of the stored bytes, so a file landed
/// again under the same name with other content is never answered from
/// what the name held before.
pub(crate) fn first_record(fb: &FileBlocks) -> Option<FirstRecord> {
    let block = fb.data.blocks.first()?;
    let key = BlockKey::row_block(block.checksum, block.uncompressed_len);
    if let Some(cached) = fb.cache.get(key) {
        return FirstRecord::of(cached);
    }
    let first = FirstRecord::of(Arc::new(compress::decompress(&block.compressed)?))?;
    // Only what the key says it is goes under the key; a row file's first
    // block is left to the read that is charged for it.
    if first.version().is_some()
        && first.block.len() as u64 == block.uncompressed_len
        && block_checksum(&block.compressed) == block.checksum
    {
        fb.cache.insert(key, Arc::clone(&first.block));
    }
    Some(first)
}

/// Peeks at a file's first block without charging scan counters or touching
/// the cache: `Ok(Some(version))` when it carries the columnar magic,
/// `Ok(None)` for anything else (row-format files, headerless column
/// files, garbage — those surface their own errors on their own read
/// paths).
pub fn sniff_columnar(warehouse: &Warehouse, path: &WhPath) -> WarehouseResult<Option<u8>> {
    let data = warehouse.file_data(path)?;
    let block = data.blocks.first();
    let first = block
        .and_then(|block| compress::decompress(&block.compressed))
        .and_then(|block| FirstRecord::of(Arc::new(block)));
    Ok(first.and_then(|first| first.version()))
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

/// What a row group's header says of one chunk.
struct ChunkHeader {
    stored_as: StoredAs,
    /// Where the chunk's stored bytes sit in the block.
    start: usize,
    len: usize,
    checksum: u64,
}

/// Parses the header of a `columns`-wide row group's block: the row count,
/// one [`ChunkHeader`] per column — the chunk lengths adding up to exactly
/// the rest of the block — and the header's own length. Nothing is
/// allocated beyond what the bytes present can pay for, and nothing of it
/// is to be trusted until the caller has checked the header's checksum.
fn group_header(block: &[u8], columns: usize) -> Option<(usize, Vec<ChunkHeader>, usize)> {
    let mut pos = 0;
    let rows = usize::try_from(read_varint(block, &mut pos)?).ok()?;
    // A column costs ten header bytes at least.
    let mut chunks = Vec::with_capacity(columns.min(block.len() / 10));
    let mut start = 0usize;
    for _ in 0..columns {
        let stored_as = StoredAs::from_tag(*block.get(pos)?)?;
        pos += 1;
        let len = usize::try_from(read_varint(block, &mut pos)?).ok()?;
        let checksum = u64::from_le_bytes(block.get(pos..pos + 8)?.try_into().ok()?);
        pos += 8;
        chunks.push(ChunkHeader {
            stored_as,
            start,
            len,
            checksum,
        });
        start = start.checked_add(len)?;
    }
    if start != block.len() - pos {
        return None;
    }
    for chunk in &mut chunks {
        chunk.start += pos;
    }
    // Cell offsets are 32-bit.
    (rows <= u32::MAX as usize).then_some((rows, chunks, pos))
}

/// Random-access, thread-safe reader of a v4 columnar file — the columnar
/// counterpart of [`FileBlocks`]. Groups can be read from any thread in any
/// order (each group ≈ one map task); every read is charged both to the
/// warehouse-global counters and to a per-handle cell.
///
/// Accounting: reading a group charges one `blocks_read` and, as
/// `compressed_bytes_read`, the stored bytes the read addresses — the group
/// header plus every *projected* chunk; each projected chunk also charges
/// its decoded bytes as `uncompressed_bytes_read`, the bytes a projection
/// actually materializes. Both are charged on cache hits and misses alike,
/// so the byte counters of a scan depend on neither the worker count nor
/// what an earlier scan left in the cache; what a hit saves is the verify,
/// decompress and rebuild work (`cache_hits`). A chunk outside the
/// projection charges nothing. A skipped group counts `blocks_skipped` and
/// never consults the cache.
#[derive(Clone)]
pub struct ColumnarFile {
    fb: FileBlocks,
    columns: usize,
    dict_col: Option<usize>,
    dict: Arc<Dictionary>,
}

/// A file's embedded dictionary, kept where it sits in the header record:
/// opening a file finds where each entry lies and copies none of them, so
/// what an open allocates does not grow with the entries.
struct Dictionary {
    /// The file's header record, in the decompressed block it came in.
    header: FirstRecord,
    /// Where in the header the entry of each code lies, index = code.
    entries: Vec<Range<u32>>,
    /// The codes in the order of their values (of equal values, the smaller
    /// code first), sorted when a code is first asked for by its value: a
    /// read that resolves codes to values never asks.
    by_value: OnceLock<Vec<u32>>,
}

impl Dictionary {
    fn value(&self, code: u32) -> Option<&[u8]> {
        let at = self.entries.get(code as usize)?;
        Some(&self.header.bytes()[at.start as usize..at.end as usize])
    }

    fn code(&self, value: &[u8]) -> Option<u32> {
        let entry = |code: &u32| self.value(*code).expect("a code of this dictionary");
        let by_value = self.by_value.get_or_init(|| {
            let mut codes: Vec<u32> = (0..self.entries.len() as u32).collect();
            codes.sort_by_key(|code| (entry(code), *code));
            codes
        });
        let at = by_value.partition_point(|code| entry(code) < value);
        by_value
            .get(at)
            .copied()
            .filter(|code| entry(code) == value)
    }
}

impl ColumnarFile {
    /// Opens a v4 columnar file, parsing the header block. Rejects files
    /// that lack the magic or declare a format version this build does not
    /// understand.
    pub fn open(warehouse: &Warehouse, path: &WhPath) -> WarehouseResult<ColumnarFile> {
        let fb = warehouse.open_blocks(path)?;
        let header = first_record(&fb).ok_or(WarehouseError::Corrupt("not a columnar file"))?;
        ColumnarFile::with_header(fb, header)
    }

    /// Parses `header`, the first record of `fb`'s file, as the v4 header,
    /// and keeps it: the dictionary's values stay where they are.
    pub(crate) fn with_header(
        fb: FileBlocks,
        header: FirstRecord,
    ) -> WarehouseResult<ColumnarFile> {
        let record = header.bytes();
        match header.version() {
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
        let mut entries = Vec::new();
        if dict_tag != 0 {
            let col = (dict_tag - 1) as usize;
            if col >= columns {
                return Err(WarehouseError::Corrupt("columnar dictionary column"));
            }
            dict_col = Some(col);
            let count = read_varint(record, &mut pos)
                .ok_or(WarehouseError::Corrupt("columnar header dictionary"))?
                as usize;
            // Every entry costs at least one length byte, so a claimed count
            // beyond the remaining header bytes is structurally impossible —
            // reject before allocating.
            if count > record.len() - pos {
                return Err(WarehouseError::Corrupt("columnar dictionary entries"));
            }
            entries.reserve_exact(count);
            for _ in 0..count {
                let value = chunk::read_string(record, &mut pos)
                    .ok_or(WarehouseError::Corrupt("columnar dictionary entry"))?;
                let end = u32::try_from(pos)
                    .map_err(|_| WarehouseError::Corrupt("columnar dictionary entry"))?;
                entries.push(end - value.len() as u32..end);
            }
        }
        Ok(ColumnarFile {
            fb,
            columns,
            dict_col,
            dict: Arc::new(Dictionary {
                header,
                entries,
                by_value: OnceLock::new(),
            }),
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

    /// The code the embedded dictionary assigns `value`, if any (of two
    /// entries holding one value, the first).
    pub fn dictionary_code(&self, value: &[u8]) -> Option<u32> {
        self.dict.code(value)
    }

    /// The value behind a dictionary code.
    pub fn dictionary_value(&self, code: u32) -> Option<&[u8]> {
        self.dict.value(code)
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

    /// The block holding group `g`, and its index in the file.
    fn group_block(&self, g: usize) -> WarehouseResult<(usize, &crate::file::Block)> {
        let block = self.fb.data.blocks.get(g + 1);
        Ok((
            g + 1,
            block.ok_or(WarehouseError::Corrupt("row group out of range"))?,
        ))
    }

    /// How each column of group `g` is stored: the layout of its chunk (a
    /// typed column's reads `Cells` where the group fell back) and the
    /// chunk's stored bytes. File metadata like the zone map: read off the
    /// group header, uncharged, for whoever asks where a file's bytes went.
    pub fn stored_chunks(&self, g: usize) -> WarehouseResult<Vec<(StoredAs, u64)>> {
        let (_, block) = self.group_block(g)?;
        let (_, chunks, _) = group_header(&block.compressed, self.columns)
            .ok_or(WarehouseError::Corrupt("row group header"))?;
        Ok(chunks
            .iter()
            .map(|chunk| (chunk.stored_as, chunk.len as u64))
            .collect())
    }

    /// The value runs of column `col` of group `g` as they are laid out
    /// under the block compressor, each with the shape its values took (see
    /// [`crate::chunk`]). Like [`stored_chunks`](Self::stored_chunks), for
    /// whoever asks where a file's bytes went: verified and decompressed,
    /// but neither charged nor cached.
    pub fn stored_runs(&self, g: usize, col: usize) -> WarehouseResult<Vec<StoredRun>> {
        let (idx, block) = self.group_block(g)?;
        let stored = &block.compressed;
        let (rows, chunks, _) = group_header(stored, self.columns)
            .ok_or(WarehouseError::Corrupt("row group header"))?;
        let chunk = chunks
            .get(col)
            .ok_or(WarehouseError::Corrupt("column out of range"))?;
        let payload = self.chunk_payload(idx, chunk, stored)?;
        chunk::stored_runs(chunk.stored_as, &payload, rows)
            .ok_or(WarehouseError::Corrupt("column chunk layout"))
    }

    /// Reads group `g`, decoding only the columns whose entry in
    /// `projection` is true (`projection.len()` must equal the column
    /// count). Unprojected columns charge `fields_skipped` for every row
    /// and are neither verified nor decompressed.
    pub fn read_group(&self, g: usize, projection: &[bool]) -> WarehouseResult<ColumnGroup> {
        assert_eq!(projection.len(), self.columns, "projection width");
        let (idx, block) = self.group_block(g)?;
        let stored = &block.compressed;
        let (rows, chunks, header_len) = group_header(stored, self.columns)
            .ok_or(WarehouseError::Corrupt("row group header"))?;
        if block_checksum(&stored[..header_len]) != block.checksum {
            return Err(self.mismatch(idx));
        }
        // One logical block read: the header and the projected chunks are
        // the stored bytes it addresses. Decoded bytes are charged per chunk
        // below.
        let addressed = chunks
            .iter()
            .zip(projection)
            .filter(|(_, projected)| **projected)
            .fold(header_len, |sum, (chunk, _)| sum + chunk.len) as u64;
        self.fb.stats.block_read(addressed, 0);
        self.fb.local.block_read(addressed, 0);

        let mut columns: Vec<Option<ColumnChunk>> = Vec::with_capacity(chunks.len());
        let mut fields_skipped = 0u64;
        for (c, (chunk, &projected)) in chunks.iter().zip(projection).enumerate() {
            if !projected {
                fields_skipped += rows as u64;
                columns.push(None);
                continue;
            }
            let data = self.chunk_cells(idx, chunk, stored, rows)?;
            let dict_len = (Some(c) == self.dict_col).then(|| self.dict.entries.len() as u64);
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

    fn mismatch(&self, block: usize) -> WarehouseError {
        WarehouseError::ChecksumMismatch {
            path: self.fb.path.clone(),
            block,
        }
    }

    /// The decompressed payload of `chunk`, one chunk of block `block` whose
    /// stored bytes are `stored`, verified against its checksum first.
    fn chunk_payload(
        &self,
        block: usize,
        chunk: &ChunkHeader,
        stored: &[u8],
    ) -> WarehouseResult<Vec<u8>> {
        let stored = &stored[chunk.start..chunk.start + chunk.len];
        if block_checksum(stored) != chunk.checksum {
            return Err(self.mismatch(block));
        }
        compress::decompress(stored).ok_or(WarehouseError::Corrupt("column chunk decompress"))
    }

    /// Fetches the cells of one chunk of block `block` (each behind its
    /// varint length, as the writer buffered them) — from the shared cache
    /// when hot, keyed by what the group header already says of the chunk;
    /// verified, decompressed and rebuilt (and cached) when cold. Hits and
    /// misses charge the same decoded bytes.
    fn chunk_cells(
        &self,
        block: usize,
        chunk: &ChunkHeader,
        stored: &[u8],
        rows: usize,
    ) -> WarehouseResult<Arc<Vec<u8>>> {
        let key = BlockKey::chunk(chunk.stored_as.tag(), chunk.checksum, chunk.len as u64);
        if let Some(data) = self.fb.cache.get(key) {
            self.fb.stats.chunk_cache_hit(data.len() as u64);
            self.fb.local.chunk_cache_hit(data.len() as u64);
            return Ok(data);
        }
        let payload = self.chunk_payload(block, chunk, stored)?;
        let cells = chunk::rebuild(chunk.stored_as, payload, rows)
            .ok_or(WarehouseError::Corrupt("column chunk layout"))?;
        self.fb.stats.chunk_cache_miss(cells.len() as u64);
        self.fb.local.chunk_cache_miss(cells.len() as u64);
        let data = Arc::new(cells);
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
    use crate::chunk::{write_string_map_count, write_string_map_pair};

    const KINDS: [ColumnKind; 3] = [ColumnKind::Bytes, ColumnKind::I64, ColumnKind::StringMap];

    /// How a group of [`KINDS`] is stored when every cell fits its column's
    /// kind and the `Bytes` cells have a shape.
    const STORED: [StoredAs; 3] = [StoredAs::ValueRun, StoredAs::I64, StoredAs::StringMap];

    fn p(s: &str) -> WhPath {
        WhPath::parse(s).unwrap()
    }

    /// The header of group `g` of the file at `path`, and the stored bytes
    /// of its block.
    fn stored_group(
        wh: &Warehouse,
        path: &WhPath,
        g: usize,
        columns: usize,
    ) -> (Vec<ChunkHeader>, usize, Vec<u8>) {
        let block = wh.file_data(path).unwrap().blocks[g + 1].compressed.clone();
        let (_, chunks, header_len) = group_header(&block, columns).expect("a written group");
        (chunks, header_len, block)
    }

    fn map_cell(pairs: &[(&str, &str)]) -> Vec<u8> {
        let mut cell = Vec::new();
        write_string_map_count(&mut cell, pairs.len());
        for (k, v) in pairs {
            write_string_map_pair(&mut cell, k.as_bytes(), v.as_bytes());
        }
        cell
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn wrong_width_panics() {
        let wh = Warehouse::new();
        let mut w =
            ColumnarFileWriter::create(&wh, &p("/x"), &[ColumnKind::Bytes; 2], 8, None).unwrap();
        w.append_row(&[b"only-one"]);
    }

    #[test]
    #[should_panic(expected = "opaque-bytes column")]
    fn a_typed_column_cannot_carry_the_dictionary() {
        let wh = Warehouse::new();
        let dict: [&[u8]; 1] = [b"x"];
        let _ = ColumnarFileWriter::create(&wh, &p("/x"), &KINDS, 8, Some((1, &dict)));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A string of some shape a value run stores as what it is — hex
        /// digits, a number, a dotted quad, bare or behind a prefix — or
        /// nearly of one, or of none.
        fn value() -> BoxedStrategy<String> {
            prop_oneof![
                "[a-z0-9]{0,9}",
                "[0-9a-f]{8}",
                "t.co/[0-9a-f]{6}",
                "[0-9a-fA-F]{2,5}",
                "[1-9][0-9]{0,19}",
                "id=[0-9]{1,4}",
                "[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}",
            ]
            .boxed()
        }

        /// A cell that fits `kind`; for `Bytes`, anything.
        fn cell_of(kind: ColumnKind) -> BoxedStrategy<Vec<u8>> {
            match kind {
                ColumnKind::Bytes => prop_oneof![
                    proptest::collection::vec(any::<u8>(), 0..20),
                    value().prop_map(String::into_bytes),
                ]
                .boxed(),
                ColumnKind::I64 => any::<i64>().prop_map(|v| v.to_le_bytes().to_vec()).boxed(),
                ColumnKind::StringMap => {
                    proptest::collection::btree_map("[a-d]{0,2}", value(), 0..5)
                        .prop_map(|map| {
                            let pairs: Vec<(&str, &str)> =
                                map.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
                            map_cell(&pairs)
                        })
                        .boxed()
                }
            }
        }

        /// Rows of three columns whose cells are of the three kinds in some
        /// order — so under any schema some columns fit their declared kind
        /// and some never do — with, sometimes, one cell of one row replaced
        /// by bytes that fit nothing.
        fn rows() -> impl Strategy<Value = Vec<[Vec<u8>; 3]>> {
            (
                0usize..6,
                proptest::collection::vec(
                    (cell_of(KINDS[0]), cell_of(KINDS[1]), cell_of(KINDS[2])),
                    0..40,
                ),
                any::<prop::sample::Index>(),
                prop_oneof![
                    Just(None),
                    proptest::collection::vec(any::<u8>(), 0..7).prop_map(Some)
                ],
            )
                .prop_map(|(order, rows, at, spoiler)| {
                    const ORDERS: [[usize; 3]; 6] = [
                        [0, 1, 2],
                        [0, 2, 1],
                        [1, 0, 2],
                        [1, 2, 0],
                        [2, 0, 1],
                        [2, 1, 0],
                    ];
                    let mut rows: Vec<[Vec<u8>; 3]> = rows
                        .into_iter()
                        .map(|(a, b, c)| {
                            let by_kind = [a, b, c];
                            ORDERS[order].map(|k| by_kind[k].clone())
                        })
                        .collect();
                    if let (Some(bad), false) = (spoiler, rows.is_empty()) {
                        let i = at.index(rows.len() * 3);
                        rows[i / 3][i % 3] = bad;
                    }
                    rows
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// Any rows × every assignment of kinds to the columns × every
            /// projection × group sizes {1, 8, 512}: every projected cell
            /// comes back byte for byte, whether its chunk was transposed
            /// or fell back.
            #[test]
            fn round_trips_under_every_schema_and_projection(rows in rows()) {
                for schema in 0..27usize {
                    let schema = [KINDS[schema % 3], KINDS[schema / 3 % 3], KINDS[schema / 9]];
                    for group in [1usize, 8, 512] {
                        let wh = Warehouse::new();
                        let path = p("/prop");
                        let mut w =
                            ColumnarFileWriter::create(&wh, &path, &schema, group, None).unwrap();
                        for row in &rows {
                            w.append_row(&[&row[0], &row[1], &row[2]]);
                        }
                        w.finish().unwrap();
                        let f = ColumnarFile::open(&wh, &path).unwrap();
                        prop_assert_eq!(f.group_count(), rows.len().div_ceil(group));
                        for projection in 0..8usize {
                            let projection = [0, 1, 2].map(|c| projection >> c & 1 == 1);
                            let mut i = 0;
                            for g in 0..f.group_count() {
                                let grp = f.read_group(g, &projection).unwrap();
                                for r in 0..grp.rows() {
                                    for c in 0..3 {
                                        let want = projection[c]
                                            .then_some(ColumnCell::Bytes(&rows[i][c]));
                                        prop_assert_eq!(grp.cell(c, r), want);
                                    }
                                    i += 1;
                                }
                            }
                            prop_assert_eq!(i, rows.len());
                        }
                    }
                }
            }
        }
    }

    mod v4 {
        use super::*;

        /// A 3-column fixture: col 1 is dictionary-encoded over two known
        /// values, with every 10th row carrying a value outside the
        /// dictionary (inline fallback). Rows are zone-annotated with
        /// key = row index and tag = hash of the col-1 value.
        fn write_v4(wh: &Warehouse, path: &str, rows: usize, group: usize) -> Vec<[Vec<u8>; 3]> {
            let dict: [&[u8]; 2] = [b"click", b"view"];
            let schema = [ColumnKind::Bytes; 3];
            let mut w =
                ColumnarFileWriter::create(wh, &p(path), &schema, group, Some((1, &dict))).unwrap();
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

        /// A typed 3-column file (`KINDS`), `rows` rows in groups of
        /// `group`, whose every cell fits its column.
        fn write_typed(wh: &Warehouse, path: &str, rows: usize, group: usize) -> Vec<[Vec<u8>; 3]> {
            let mut w = ColumnarFileWriter::create(wh, &p(path), &KINDS, group, None).unwrap();
            let mut expect = Vec::with_capacity(rows);
            for i in 0..rows {
                let a = format!("session-{}", i % 7).into_bytes();
                let b = (1_344_000_000_000 + i as i64 * 977).to_le_bytes().to_vec();
                let rank = (i % 20).to_string();
                let c = match i % 3 {
                    0 => map_cell(&[("lang", "en"), ("rank", &rank)]),
                    1 => map_cell(&[
                        ("lang", "en"),
                        ("request_id", &format!("{:016x}", i * 7919)),
                    ]),
                    _ => map_cell(&[]),
                };
                w.append_row(&[&a, &b, &c]);
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

        fn read_back(f: &ColumnarFile, expect: &[[Vec<u8>; 3]]) {
            let mut i = 0;
            for g in 0..f.group_count() {
                let grp = f.read_group(g, &[true, true, true]).unwrap();
                for r in 0..grp.rows() {
                    for (c, want) in expect[i].iter().enumerate() {
                        let cell = grp.cell(c, r).unwrap();
                        assert_eq!(resolve(f, cell), want.as_slice(), "row {i} col {c}");
                    }
                    i += 1;
                }
            }
            assert_eq!(i, expect.len());
        }

        #[test]
        fn round_trips_with_dictionary_and_inline_fallback() {
            let wh = Warehouse::new();
            let expect = write_v4(&wh, "/v4", 95, 32);
            let f = ColumnarFile::open(&wh, &p("/v4")).unwrap();
            assert_eq!(f.columns(), 3);
            assert_eq!(f.group_count(), 3); // ceil(95/32)
            assert_eq!(f.dict_column(), Some(1));
            assert_eq!(f.dictionary_code(b"click"), Some(0));
            assert_eq!(f.dictionary_code(b"nope"), None);
            read_back(&f, &expect);
            // Dictionary hits come back as codes, misses inline.
            let grp = f.read_group(0, &[false, true, false]).unwrap();
            for r in 0..grp.rows() {
                match grp.cell(1, r).unwrap() {
                    ColumnCell::Code(code) => assert!(code < 2),
                    ColumnCell::Bytes(b) => assert!(b.starts_with(b"rare-")),
                }
            }
        }

        #[test]
        fn a_group_is_stored_once_and_typed_chunks_are_transposed() {
            let wh = Warehouse::new();
            let expect = write_typed(&wh, "/typed", 100, 64);
            let data = wh.file_data(&p("/typed")).unwrap();
            for block in &data.blocks[1..] {
                assert_eq!(
                    block.uncompressed_len,
                    block.compressed.len() as u64,
                    "a group block is stored, not compressed again"
                );
            }
            let (chunks, header_len, block) = stored_group(&wh, &p("/typed"), 0, 3);
            let stored_as: Vec<StoredAs> = chunks.iter().map(|c| c.stored_as).collect();
            assert_eq!(stored_as, STORED);
            assert_eq!(
                data.blocks[1].checksum,
                block_checksum(&block[..header_len])
            );
            for chunk in &chunks {
                let stored = &block[chunk.start..chunk.start + chunk.len];
                assert_eq!(chunk.checksum, block_checksum(stored));
            }
            // 64 timestamps 977 ms apart: a few bytes of minimum, two a row.
            assert!(chunks[1].len < 64 * 3, "{} bytes", chunks[1].len);
            read_back(&ColumnarFile::open(&wh, &p("/typed")).unwrap(), &expect);
        }

        #[test]
        fn a_cell_that_does_not_fit_stores_its_groups_chunk_as_bytes() {
            let unsorted = map_cell(&[("b", "y"), ("a", "x")]);
            let duplicate = map_cell(&[("a", "x"), ("a", "y")]);
            let cases: [(usize, &[u8]); 6] = [
                (1, &[1, 2, 3]),
                (1, &[]),
                (2, &[5]),
                (2, &unsorted),
                (2, &duplicate),
                (2, &[0x80, 0x00]),
            ];
            for (col, bad) in cases {
                let wh = Warehouse::new();
                let mut expect = write_typed(&wh, "/scratch", 20, 8);
                // The misfit sits in the second of three groups.
                expect[11][col] = bad.to_vec();
                let mut w = ColumnarFileWriter::create(&wh, &p("/f"), &KINDS, 8, None).unwrap();
                for row in &expect {
                    w.append_row(&[&row[0], &row[1], &row[2]]);
                }
                w.finish().unwrap();
                for g in 0..3 {
                    let (chunks, _, _) = stored_group(&wh, &p("/f"), g, 3);
                    let mut want = STORED;
                    if g == 1 {
                        want[col] = StoredAs::Cells;
                    }
                    let stored_as: Vec<StoredAs> = chunks.iter().map(|c| c.stored_as).collect();
                    assert_eq!(stored_as, want, "group {g}, column {col} holding {bad:?}");
                }
                read_back(&ColumnarFile::open(&wh, &p("/f")).unwrap(), &expect);
            }
        }

        #[test]
        fn a_read_is_charged_the_header_and_the_chunks_it_projects() {
            let wh = Warehouse::with_config(64 * 1024, 0); // cache off
            write_v4(&wh, "/v4", 200, 64);
            let wide = ColumnarFile::open(&wh, &p("/v4")).unwrap();
            for g in 0..wide.group_count() {
                wide.read_group(g, &[true, true, true]).unwrap();
            }
            let w = wide.local_stats();
            let narrow = ColumnarFile::open(&wh, &p("/v4")).unwrap();
            for g in 0..narrow.group_count() {
                let grp = narrow.read_group(g, &[false, true, false]).unwrap();
                assert!(grp.cell(0, 0).is_none(), "unprojected column");
                assert!(grp.cell(1, 0).is_some());
            }
            let n = narrow.local_stats();
            assert_eq!(n.blocks_read, w.blocks_read, "groups visited unchanged");
            assert_eq!(n.records_read, w.records_read);
            let (mut headers, mut names, mut all) = (0u64, 0u64, 0u64);
            for g in 0..wide.group_count() {
                let (chunks, header_len, block) = stored_group(&wh, &p("/v4"), g, 3);
                headers += header_len as u64;
                names += chunks[1].len as u64;
                all += block.len() as u64;
            }
            assert_eq!(w.compressed_bytes_read, all, "every stored byte, once");
            assert_eq!(n.compressed_bytes_read, headers + names);
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
            write_typed(&wh, "/typed", 100, 50);
            let f = ColumnarFile::open(&wh, &p("/typed")).unwrap();
            for g in 0..f.group_count() {
                f.read_group(g, &[true, true, true]).unwrap();
            }
            let cold = f.local_stats();
            assert_eq!(cold.cache_hits, 0);
            assert_eq!(cold.cache_misses, 6, "3 chunks × 2 groups");
            let f2 = ColumnarFile::open(&wh, &p("/typed")).unwrap();
            for g in 0..f2.group_count() {
                f2.read_group(g, &[true, true, true]).unwrap();
            }
            let hot = f2.local_stats();
            assert_eq!(hot.cache_hits, 6, "every chunk served from cache");
            assert_eq!(hot.cache_misses, 0);
            assert_eq!(
                hot.uncompressed_bytes_read, cold.uncompressed_bytes_read,
                "hits charge the same decoded bytes: the cells as they were appended"
            );
            assert_eq!(
                hot.compressed_bytes_read, cold.compressed_bytes_read,
                "and the same stored bytes: the bill does not depend on the cache"
            );
        }

        #[test]
        fn zone_maps_cover_groups_and_skips_never_hit_the_cache() {
            let wh = Warehouse::new();
            write_v4(&wh, "/v4", 100, 50);
            let f = ColumnarFile::open(&wh, &p("/v4")).unwrap();
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
            let f2 = ColumnarFile::open(&wh, &p("/v4")).unwrap();
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
            write_v4(&wh, "/v4", 100, 50);
            let f = ColumnarFile::open(&wh, &p("/v4")).unwrap();
            for g in 0..f.group_count() {
                f.read_group(g, &[true, true, true]).unwrap();
            }
            let hits_before = wh.stats().cache_hits;
            let f2 = ColumnarFile::open(&wh, &p("/v4")).unwrap();
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
            write_v4(&wh, "/v4", 10, 4);
            assert_eq!(
                sniff_columnar(&wh, &p("/v4")).unwrap(),
                Some(COLUMNAR_VERSION)
            );
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

        /// A file header for `cols` columns declaring `version`, optionally
        /// with a two-entry dictionary on column 0.
        fn file_header(version: u8, cols: u64, dict: bool) -> Vec<u8> {
            let mut header = Vec::new();
            header.extend_from_slice(&COLUMNAR_MAGIC);
            header.push(version);
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
            header
        }

        #[test]
        fn other_format_versions_are_rejected_cleanly() {
            let wh = Warehouse::new();
            // Headers of the retired v2 and v3, and one from the future.
            for version in [2, 3, 9] {
                let path = p(&format!("/version-{version}"));
                let mut w = wh.create(&path).unwrap();
                w.append_header_record(&file_header(version, 3, false));
                w.finish().unwrap();
                assert_eq!(sniff_columnar(&wh, &path).unwrap(), Some(version));
                assert!(matches!(
                    ColumnarFile::open(&wh, &path),
                    Err(WarehouseError::Corrupt(
                        "unsupported columnar format version"
                    ))
                ));
            }
            // And a non-columnar file is "not a columnar file", not a panic.
            let mut w = wh.create(&p("/row")).unwrap();
            w.append_record(b"some record");
            w.finish().unwrap();
            assert!(matches!(
                ColumnarFile::open(&wh, &p("/row")),
                Err(WarehouseError::Corrupt("not a columnar file"))
            ));
        }

        /// One chunk of a forged group.
        struct Forged {
            tag: u8,
            /// The length the header claims (`None`: the truth).
            claimed_len: Option<u64>,
            stored: Vec<u8>,
            honest_checksum: bool,
        }

        impl Forged {
            /// An honest chunk stored as `stored_as` whose decompressed
            /// payload is `payload`.
            fn of(stored_as: StoredAs, payload: &[u8]) -> Forged {
                Forged {
                    tag: stored_as.tag(),
                    claimed_len: None,
                    stored: compress::compress(payload),
                    honest_checksum: true,
                }
            }
        }

        /// Builds a file whose single row group is forged from `chunks`
        /// under a well-formed file header, the group header's own checksum
        /// honest — so a read gets as far as the forgery lets it.
        fn forge(wh: &Warehouse, rows: u64, dict: bool, chunks: &[Forged]) -> WhPath {
            let mut block = Vec::new();
            write_varint(&mut block, rows);
            for chunk in chunks {
                block.push(chunk.tag);
                write_varint(
                    &mut block,
                    chunk.claimed_len.unwrap_or(chunk.stored.len() as u64),
                );
                let sum = block_checksum(&chunk.stored) ^ u64::from(!chunk.honest_checksum);
                block.extend_from_slice(&sum.to_le_bytes());
            }
            let checksum = block_checksum(&block);
            for chunk in chunks {
                block.extend_from_slice(&chunk.stored);
            }
            forge_block(wh, chunks.len() as u64, dict, block, checksum)
        }

        /// A file whose single row group's block is `block`, as it stands.
        fn forge_block(
            wh: &Warehouse,
            cols: u64,
            dict: bool,
            block: Vec<u8>,
            checksum: u64,
        ) -> WhPath {
            let path = p("/forged");
            let mut w = wh.create(&path).unwrap();
            w.append_header_record(&file_header(COLUMNAR_VERSION, cols, dict));
            w.append_stored_block(block, checksum, None);
            w.finish().unwrap();
            path
        }

        fn cells(cells: &[&[u8]]) -> Vec<u8> {
            let mut out = Vec::new();
            for cell in cells {
                write_varint(&mut out, cell.len() as u64);
                out.extend_from_slice(cell);
            }
            out
        }

        #[test]
        fn hostile_headers_are_rejected_before_allocation() {
            let one_cell = || Forged::of(StoredAs::Cells, &cells(&[b"x"]));
            let read = |rows, chunks: &[Forged]| {
                let wh = Warehouse::new();
                let path = forge(&wh, rows, false, chunks);
                let f = ColumnarFile::open(&wh, &path).unwrap();
                f.read_group(0, &vec![true; chunks.len()]).map(|g| g.rows())
            };
            assert_eq!(read(1, &[one_cell()]), Ok(1), "the forger can be honest");
            // Row counts no chunk could pay for, under every encoding.
            let mut min_only = Vec::new();
            write_varint(&mut min_only, 0);
            for rows in [u64::MAX, 1 << 40, u32::MAX as u64, 2] {
                for chunk in [
                    one_cell(),
                    Forged::of(StoredAs::I64, &min_only),
                    Forged::of(StoredAs::StringMap, &[2, 0]),
                    Forged::of(StoredAs::ValueRun, &[8, 2, 0, 1, 2, 3, 4]),
                ] {
                    assert!(read(rows, &[chunk]).is_err(), "{rows} rows");
                }
            }
            // A chunk length past the block, and one short of it.
            for claimed in [u64::MAX, 1 << 20, 1] {
                let mut chunk = one_cell();
                chunk.claimed_len = Some(claimed);
                assert_eq!(
                    read(1, &[chunk, one_cell()]),
                    Err(WarehouseError::Corrupt("row group header"))
                );
            }
            // An encoding tag nobody wrote.
            let mut chunk = one_cell();
            chunk.tag = 4;
            assert_eq!(
                read(1, &[chunk]),
                Err(WarehouseError::Corrupt("row group header"))
            );
            // A map chunk declaring absurd key counts, sub-chunk lengths and
            // rebuilt lengths.
            for payload in [
                &[2, 0xff, 0xff, 0xff, 0xff, 0x0f][..],
                &[2, 1, 1, b'k', 0xff, 0xff, 0x03],
                &[0xff, 0xff, 0xff, 0xff, 0x7f, 0],
            ] {
                let chunk = Forged::of(StoredAs::StringMap, payload);
                assert_eq!(
                    read(1, &[chunk]),
                    Err(WarehouseError::Corrupt("column chunk layout"))
                );
            }
            // A value run — a column's, and a map key's — of a shape nobody
            // wrote, of no hex digits, an odd number of them, more than
            // there are bytes; with a prefix longer than the run, a bitmap
            // shorter than the rows, distances of no bytes and of nine.
            let runs: [(u64, &[u8]); 9] = [
                (1, &[4, 0, 1, 2, 3, 4]),
                (1, &[0x21, 0, 2, 0xab]),
                (1, &[1, 0, 0]),
                (1, &[1, 0, 3, 0xab, 0xcd]),
                (1, &[1, 0, 64, 0xab]),
                (1, &[1, 200, b'x', 2, 0xab]),
                (100, &[0x12, 0, 0xff, 1, 2, 3, 4]),
                (1, &[3, 0, 7, 0]),
                (1, &[3, 0, 7, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
            ];
            for (rows, run) in runs {
                let column = [&[40][..], run].concat();
                let map = [&[40, 1, 1, b'k', run.len() as u8][..], run].concat();
                for chunk in [
                    Forged::of(StoredAs::ValueRun, &column),
                    Forged::of(StoredAs::StringMap, &map),
                ] {
                    assert_eq!(
                        read(rows, &[chunk]),
                        Err(WarehouseError::Corrupt("column chunk layout")),
                        "{run:?}"
                    );
                }
            }
            let quad = Forged::of(StoredAs::ValueRun, &[8, 2, 0, 1, 2, 3, 4]);
            assert_eq!(read(1, &[quad]), Ok(1), "a run can be honest too");
            // A chunk whose stored bytes are not what its checksum says.
            let mut chunk = one_cell();
            chunk.honest_checksum = false;
            assert!(matches!(
                read(1, &[chunk]),
                Err(WarehouseError::ChecksumMismatch { block: 1, .. })
            ));
            // A file header whose dictionary entry is longer than a `usize`
            // can add to.
            let mut header = Vec::new();
            header.extend_from_slice(&COLUMNAR_MAGIC);
            header.push(COLUMNAR_VERSION);
            for v in [1, 1, 1, u64::MAX] {
                write_varint(&mut header, v); // columns, dictionary column + 1, entries, length
            }
            let wh = Warehouse::new();
            let mut w = wh.create(&p("/header")).unwrap();
            w.append_header_record(&header);
            w.finish().unwrap();
            // On the first open and on the one that finds the header block
            // where the first left it.
            for _ in 0..2 {
                assert!(matches!(
                    ColumnarFile::open(&wh, &p("/header")),
                    Err(WarehouseError::Corrupt("columnar dictionary entry"))
                ));
            }
            assert_eq!(wh.cache_stats().entries, 1, "the header block is kept");
        }

        #[test]
        fn an_open_reuses_the_header_block_and_never_one_of_other_content() {
            let wh = Warehouse::new();
            let expect = write_v4(&wh, "/v4", 30, 8);
            let before = wh.stats();
            let first = ColumnarFile::open(&wh, &p("/v4")).unwrap();
            assert_eq!(wh.cache_stats().entries, 1, "the header block");
            let again = ColumnarFile::open(&wh, &p("/v4")).unwrap();
            assert_eq!(wh.cache_stats().entries, 1);
            assert_eq!(wh.cache_stats().hits, 1, "the second open found it");
            // File metadata: two files opened, nothing else charged.
            let opened = ScanStats {
                files_opened: 2,
                ..ScanStats::default()
            };
            assert_eq!(wh.stats().since(&before), opened);
            read_back(&again, &expect);
            assert_eq!(again.dictionary_code(b"view"), Some(1));

            // The same name landed again with another dictionary: the next
            // open reads what is there now, and the handle opened before
            // still reads what it opened.
            wh.delete_file(&p("/v4")).unwrap();
            let dict: [&[u8]; 2] = [b"view", b"tap"];
            let mut w = ColumnarFileWriter::create(
                &wh,
                &p("/v4"),
                &[ColumnKind::Bytes; 3],
                8,
                Some((1, &dict)),
            )
            .unwrap();
            w.append_row_coded(&[b"u", b"tap", b"x"], Some(1), 0, 0);
            w.finish().unwrap();
            let relanded = ColumnarFile::open(&wh, &p("/v4")).unwrap();
            assert_eq!(relanded.dictionary_value(1), Some(&b"tap"[..]));
            assert_eq!(relanded.dictionary_code(b"view"), Some(0));
            assert_eq!(relanded.dictionary_code(b"click"), None);
            assert_eq!(first.dictionary_value(1), Some(&b"view"[..]));

            // A cleared cache means a cold open: the header is decompressed
            // again, and kept again.
            wh.clear_cache();
            assert_eq!(wh.cache_stats().entries, 0);
            let cold = ColumnarFile::open(&wh, &p("/v4")).unwrap();
            assert_eq!(cold.dictionary_value(1), Some(&b"tap"[..]));
            assert_eq!(wh.cache_stats().entries, 1);
            // A warehouse without a cache opens files all the same.
            let uncached = Warehouse::with_config(64 * 1024, 0);
            let expect = write_v4(&uncached, "/v4", 30, 8);
            read_back(&ColumnarFile::open(&uncached, &p("/v4")).unwrap(), &expect);
        }

        #[test]
        fn a_code_is_found_by_its_value_and_the_first_of_equals_wins() {
            let wh = Warehouse::new();
            let dict: [&[u8]; 5] = [b"m", b"b", b"", b"b", b"zz"];
            let w = ColumnarFileWriter::create(
                &wh,
                &p("/d"),
                &[ColumnKind::Bytes],
                8,
                Some((0, &dict)),
            )
            .unwrap();
            w.finish().unwrap();
            let f = ColumnarFile::open(&wh, &p("/d")).unwrap();
            for (code, value) in dict.iter().enumerate() {
                assert_eq!(f.dictionary_value(code as u32), Some(*value));
            }
            assert_eq!(f.dictionary_value(5), None);
            let codes = [b"m".as_slice(), b"b", b"", b"zz", b"a", b"zzz", b"n"]
                .map(|value| f.dictionary_code(value));
            assert_eq!(
                codes,
                [Some(0), Some(1), Some(2), Some(4), None, None, None]
            );
        }

        #[test]
        fn damage_is_seen_by_exactly_the_reads_that_touch_it() {
            let wh = Warehouse::new();
            let expect = write_typed(&wh, "/typed", 40, 20);
            let path = p("/typed");
            let (chunks, header_len, _) = stored_group(&wh, &path, 1, 3);
            // Warm the cache: the fault hooks clear it, so what follows are
            // cold reads — a cache hit is the one read that verifies nothing.
            read_back(&ColumnarFile::open(&wh, &path).unwrap(), &expect);
            let mismatch = Err(WarehouseError::ChecksumMismatch {
                path: "/typed".to_string(),
                block: 2,
            });
            // A handle reads the file as it stood when it was opened.
            let read = |g, projection: [bool; 3]| {
                let f = ColumnarFile::open(&wh, &path).unwrap();
                f.read_group(g, &projection).map(|g| g.rows())
            };
            let rows = |projection| read(1, projection);

            // A flipped byte in the middle of the timestamp chunk.
            let in_chunk = chunks[1].start + chunks[1].len / 2;
            wh.corrupt_block_at(&path, 2, in_chunk).unwrap();
            assert_eq!(rows([false, true, false]), mismatch);
            assert_eq!(rows([true, true, true]), mismatch);
            assert_eq!(rows([true, false, true]), Ok(20), "never touches it");
            assert_eq!(rows([false, false, false]), Ok(20));
            assert_eq!(read(0, [true; 3]), Ok(20));
            wh.corrupt_block_at(&path, 2, in_chunk).unwrap(); // flip it back
            assert_eq!(rows([true, true, true]), Ok(20));

            // A flipped byte anywhere in the header fails every read of the
            // group, whatever it projects.
            for at in [0, 1, 2, header_len / 2, header_len - 1] {
                wh.corrupt_block_at(&path, 2, at).unwrap();
                for projection in [[false; 3], [true, false, false], [true; 3]] {
                    assert!(rows(projection).is_err(), "header byte {at}");
                }
                wh.corrupt_block_at(&path, 2, at).unwrap();
            }
            read_back(&ColumnarFile::open(&wh, &path).unwrap(), &expect);
        }

        #[test]
        fn truncated_group_is_rejected_whole() {
            let wh = Warehouse::new();
            write_v4(&wh, "/v4", 40, 20);
            // Drop the tail of group 1's block: the read must fail as a
            // unit, not yield a partial group.
            wh.truncate_block(&p("/v4"), 2).unwrap();
            let f = ColumnarFile::open(&wh, &p("/v4")).unwrap();
            assert!(f.read_group(0, &[true, true, true]).is_ok());
            assert!(f.read_group(1, &[true, true, true]).is_err());
            assert!(f.read_group(1, &[false, false, false]).is_err());
        }

        mod hostile_properties {
            use super::*;
            use proptest::prelude::*;

            fn forged_chunk() -> impl Strategy<Value = Forged> {
                // Any bytes; or a value run of any shape byte and any bytes,
                // framed as a column's and as a map key's.
                let bytes = || proptest::collection::vec(any::<u8>(), 0..60);
                let payload = prop_oneof![
                    bytes(),
                    bytes().prop_map(|run| [&[60][..], &run].concat()),
                    bytes().prop_map(|run| [&[60, 1, 1, b'k', run.len() as u8][..], &run].concat()),
                ];
                (
                    0u8..5,
                    payload,
                    any::<bool>(),
                    prop_oneof![
                        Just(None),
                        any::<u64>().prop_map(Some),
                        (0u64..80).prop_map(Some)
                    ],
                    0u8..8,
                )
                    .prop_map(|(tag, payload, compressed, claimed_len, lie)| {
                        Forged {
                            tag,
                            // Mostly the truth: a lie in every header would
                            // never let a read past it.
                            claimed_len: if lie == 0 { claimed_len } else { None },
                            stored: if compressed {
                                compress::compress(&payload)
                            } else {
                                payload
                            },
                            honest_checksum: lie != 1,
                        }
                    })
            }

            /// A group that reads must be whole: every projected cell
            /// addressable, every code in the dictionary.
            fn check_group(f: &ColumnarFile, projection: &[bool]) {
                if let Ok(g) = f.read_group(0, projection) {
                    for r in 0..g.rows().min(1000) {
                        for (c, projected) in projection.iter().enumerate() {
                            match g.cell(c, r) {
                                Some(ColumnCell::Code(code)) => {
                                    assert!(f.dictionary_value(code).is_some())
                                }
                                Some(ColumnCell::Bytes(_)) => {}
                                None => assert!(!projected),
                            }
                        }
                    }
                }
            }

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(256))]

                /// Arbitrary bytes in place of a row group's block must
                /// never panic and never yield a half-decoded group.
                #[test]
                fn garbage_groups_never_panic(
                    block in proptest::collection::vec(any::<u8>(), 0..200),
                    dict in any::<bool>(),
                    sum in any::<u64>(),
                ) {
                    let wh = Warehouse::new();
                    let path = forge_block(&wh, 2, dict, block, sum);
                    let f = ColumnarFile::open(&wh, &path).unwrap();
                    check_group(&f, &[true, true]);
                }

                /// A well-framed group — the header's checksum honest, so a
                /// read gets past it — of hostile row counts, tags, lengths,
                /// checksums and chunk bytes, under every projection.
                #[test]
                fn forged_groups_never_panic(
                    rows in prop_oneof![0u64..6, any::<u64>()],
                    a in forged_chunk(),
                    b in forged_chunk(),
                    dict in any::<bool>(),
                ) {
                    let wh = Warehouse::new();
                    let path = forge(&wh, rows, dict, &[a, b]);
                    let f = ColumnarFile::open(&wh, &path).unwrap();
                    for projection in [[true, true], [true, false], [false, true]] {
                        check_group(&f, &projection);
                    }
                }

                /// Truncating a valid group's block anywhere must reject
                /// the group whole, even with the checksum recomputed.
                #[test]
                fn truncated_groups_are_rejected(cut_pct in 0u64..100, rehash in any::<bool>()) {
                    let wh = Warehouse::new();
                    write_typed(&wh, "/typed", 12, 12);
                    let (_, header_len, block) = stored_group(&wh, &p("/typed"), 0, 3);
                    let cut = (block.len() as u64 * cut_pct / 100) as usize;
                    let kept = block[..cut].to_vec();
                    let sum = match rehash {
                        true => block_checksum(&kept[..header_len.min(cut)]),
                        false => block_checksum(&block[..header_len]),
                    };
                    let path = forge_block(&wh, 3, false, kept, sum);
                    let f = ColumnarFile::open(&wh, &path).unwrap();
                    for projection in [[true; 3], [false; 3]] {
                        prop_assert!(f.read_group(0, &projection).is_err());
                    }
                }

                /// Overlong varints (11+ continuation bytes) anywhere in the
                /// group header are structural errors, not panics or hangs.
                #[test]
                fn overlong_varints_are_rejected(
                    tail in proptest::collection::vec(any::<u8>(), 0..40),
                    in_length in any::<bool>(),
                ) {
                    let wh = Warehouse::new();
                    let mut block = Vec::new();
                    if in_length {
                        block.extend_from_slice(&[1, 0]); // one row, a Bytes chunk
                    }
                    block.extend_from_slice(&[0x80u8; 11]);
                    block.extend_from_slice(&tail);
                    let sum = block_checksum(&block);
                    let path = forge_block(&wh, 2, false, block, sum);
                    let f = ColumnarFile::open(&wh, &path).unwrap();
                    prop_assert!(f.read_group(0, &[true, true]).is_err());
                }
            }
        }
    }
}
