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
//! This is the **v5 warehouse format** ([`ColumnarFileWriter`] /
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
//! The writer is told each column's [`ColumnKind`], takes typed [`Cell`]s
//! and buffers a group as the [`Column`]s a read decodes; a sealed chunk is
//! transposed before compression — its values stored in the shape they
//! have, packed hex digits, numbers and timestamps at their bit width,
//! dotted quads, a few values once each and a code a row, where they have
//! one (see [`crate::chunk`]). Dictionary-column cells store a small
//! integer code instead of the value — the code its writer, who built the
//! dictionary, hands over as the cell; values missing from the dictionary
//! fall back to inline bytes, so the file never refuses a row. A read
//! decodes each projected chunk once, into the [`Column`] the cache holds
//! and every reader above [`ColumnGroup`] works on.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::cache::{BlockKey, Cached};
use crate::chunk::{self, Cell, Column, ColumnKind, StoredAs, StoredRun};
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
pub const COLUMNAR_VERSION: u8 = 5;

/// Writes a v5 columnar file: header block first, then one row group per
/// block. Rows may carry zone annotations; a group whose every row was
/// annotated gets a zone map in the block footer (fail open otherwise),
/// exactly like the row-format writer.
pub struct ColumnarFileWriter {
    inner: crate::file::RecordFileWriter,
    rows_per_group: usize,
    /// How many entries the dictionary has; none without one.
    entries: usize,
    /// Per column, its declared kind and the open group's rows as a read
    /// decodes them; its length is the row width.
    columns: Vec<(ColumnKind, Column)>,
    /// Where a chunk is encoded before it is compressed.
    transposer: chunk::Transposer,
    buffered_rows: usize,
    group_zone: ZoneMap,
    group_annotated: usize,
}

impl ColumnarFileWriter {
    /// Opens a v5 columnar file at `path` whose rows have one cell per
    /// entry of `schema`. `dictionary` optionally names one column plus its
    /// code table (index = code); that column's cells are codes
    /// ([`Cell::Code`]), or the bytes of a value the table lacks.
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
        let coded = |c| dictionary.is_some_and(|(col, _)| col == c);
        Ok(ColumnarFileWriter {
            inner,
            rows_per_group,
            entries: dictionary.map_or(0, |(_, entries)| entries.len()),
            columns: (schema.iter().enumerate())
                .map(|(c, kind)| (*kind, Column::buffer(*kind, coded(c), rows_per_group)))
                .collect(),
            transposer: chunk::Transposer::default(),
            buffered_rows: 0,
            group_zone: ZoneMap::empty(),
            group_annotated: 0,
        })
    }

    /// Appends one row, a [`Cell`] per column; one its column cannot hold
    /// panics. The writer looks no code up: whoever built the dictionary
    /// knows them. With `zone` = `(key, tag)`, `key` folds into the group's
    /// min/max range and `tag` into its membership bitmap, like
    /// `append_record_annotated` does for row-format blocks.
    pub fn append_row(&mut self, cells: &[Cell<'_>], zone: Option<(i64, u64)>) {
        assert_eq!(cells.len(), self.columns.len(), "row width");
        for ((_, column), cell) in self.columns.iter_mut().zip(cells) {
            column.push(*cell, self.entries);
        }
        if let Some((key, tag)) = zone {
            self.group_zone.fold(key, tag);
            self.group_annotated += 1;
        }
        self.buffered_rows += 1;
        if self.buffered_rows >= self.rows_per_group {
            self.seal_group();
        }
    }

    /// Seals the open group into one stored block: the header (varint row
    /// count, then per column a tag byte, the varint stored length and the
    /// eight checksum bytes of its chunk), then the chunks back to back.
    /// Each chunk is one `ulz` stream of the column's encoded layout (see
    /// [`crate::chunk`]), and that is the only time these bytes meet the
    /// compressor (an integer column's two layouts meet it once each, and
    /// the shorter stream is kept).
    fn seal_group(&mut self) {
        if self.buffered_rows == 0 {
            return;
        }
        // Every group is sealed into a block of its own, so between groups
        // the file writer's compressor is idle: the chunks borrow it.
        let compressor = &mut self.inner.compressor;
        debug_assert!(compressor.is_empty(), "a block is open between groups");
        let mut compress = |bytes: &[u8]| {
            compressor.write(bytes);
            compressor.finish_block()
        };
        let mut header = Vec::with_capacity(4 + 12 * self.columns.len());
        write_varint(&mut header, self.buffered_rows as u64);
        let mut chunks = Vec::with_capacity(self.columns.len());
        for (kind, column) in &mut self.columns {
            let (stored_as, stored) = self.transposer.encode(*kind, column, &mut compress);
            header.push(stored_as.tag());
            write_varint(&mut header, stored.len() as u64);
            header.extend_from_slice(&block_checksum(&stored).to_le_bytes());
            chunks.push(stored);
            column.clear();
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
    if let Some(Cached::Block(cached)) = fb.cache.get(key) {
        return FirstRecord::of(cached);
    }
    let first = FirstRecord::of(Arc::new(compress::decompress(&block.compressed)?))?;
    // Only what the key says it is goes under the key; a row file's first
    // block is left to the read that is charged for it.
    if first.version().is_some()
        && first.block.len() as u64 == block.uncompressed_len
        && block_checksum(&block.compressed) == block.checksum
    {
        fb.cache.insert(key, Cached::Block(first.block.clone()));
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

/// One decoded row group: its projected columns, each decoded once.
pub struct ColumnGroup {
    rows: usize,
    columns: Vec<Option<Arc<Column>>>,
}

impl ColumnGroup {
    /// Rows in this group.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column `col`, of `rows()` values, of a column the caller declared it
    /// reads. Asking for a column the projection left out is a bug in the
    /// caller's mask: it panics in debug builds and is a typed error in
    /// release, so it can never pass for "no such row".
    pub fn column(&self, col: usize) -> WarehouseResult<&Column> {
        let column = self.columns.get(col).and_then(Option::as_deref);
        debug_assert!(column.is_some(), "column {col} was not read");
        column.ok_or(WarehouseError::UnreadColumn(col))
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
    // A chunk's cache key holds the rows in 32 bits.
    (rows <= u32::MAX as usize).then_some((rows, chunks, pos))
}

/// Random-access, thread-safe reader of a v5 columnar file — the columnar
/// counterpart of [`FileBlocks`]. Groups can be read from any thread in any
/// order (each group ≈ one map task), each into typed [`Column`]s; every
/// read is charged both to the warehouse-global counters and to a
/// per-handle cell.
///
/// Accounting: reading a group charges one `blocks_read` and, as
/// `compressed_bytes_read`, the stored bytes the read addresses — the group
/// header plus every *projected* chunk; each projected chunk also charges,
/// as `uncompressed_bytes_read`, the length of the cells it stands for (see
/// [`crate::chunk`]), never built. Both are charged on cache hits and
/// misses alike, so the byte counters of a scan depend on neither the
/// worker count nor what an earlier scan left in the cache; what a hit
/// saves is the verify, decompress and decode work (`cache_hits`). A chunk
/// outside the projection charges nothing. A skipped group counts
/// `blocks_skipped` and never consults the cache.
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
    /// Opens a v5 columnar file, parsing the header block. Rejects files
    /// that lack the magic or declare a format version this build does not
    /// understand.
    pub fn open(warehouse: &Warehouse, path: &WhPath) -> WarehouseResult<ColumnarFile> {
        let fb = warehouse.open_blocks(path)?;
        let header = first_record(&fb).ok_or(WarehouseError::Corrupt("not a columnar file"))?;
        ColumnarFile::with_header(fb, header)
    }

    /// Parses `header`, the first record of `fb`'s file, as the v5 header,
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

    /// The bytes row `row` of `column`, one of this file's, stands for: its
    /// own, or its dictionary code's value. `None` past the last row and for
    /// an integer.
    pub fn resolve<'a>(&'a self, column: &'a Column, row: usize) -> Option<&'a [u8]> {
        match column.code(row) {
            Some(code) => self.dictionary_value(code),
            None => column.bytes(row),
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
    /// string map's reads `Cells` where the group holds a cell that is not
    /// canonical) and the
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
        self.fb.stats.block_read(addressed);
        self.fb.local.block_read(addressed);

        let mut columns = Vec::with_capacity(chunks.len());
        let mut fields_skipped = 0u64;
        for (c, (chunk, &projected)) in chunks.iter().zip(projection).enumerate() {
            if !projected {
                fields_skipped += rows as u64;
                columns.push(None);
                continue;
            }
            let dictionary = (Some(c) == self.dict_col).then_some(self.dict.entries.len() as u32);
            columns.push(Some(
                self.chunk_column(idx, chunk, stored, rows, dictionary)?,
            ));
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

    /// The column of one chunk of block `block` — if it is the dictionary
    /// column, codes of a `dictionary` of that many entries — from the
    /// shared cache when hot, keyed by what the group header says of the
    /// chunk; verified, decompressed, decoded and cached when cold. Hits and
    /// misses charge the same cells.
    fn chunk_column(
        &self,
        block: usize,
        chunk: &ChunkHeader,
        stored: &[u8],
        rows: usize,
        dictionary: Option<u32>,
    ) -> WarehouseResult<Arc<Column>> {
        // Rows fit 32 bits.
        let (tag, checksum, len) = (chunk.stored_as.tag(), chunk.checksum, chunk.len as u64);
        let key = BlockKey::chunk(tag, checksum, len, rows as u32, dictionary);
        let (column, cells, hit) = match self.fb.cache.get(key) {
            Some(Cached::Column(column, cells)) => (column, cells, true),
            _ => {
                let payload = self.chunk_payload(block, chunk, stored)?;
                let (column, cells) = chunk::decode(chunk.stored_as, &payload, rows, dictionary)
                    .ok_or(WarehouseError::Corrupt("column chunk layout"))?;
                let column = Arc::new(column);
                let cached = Cached::Column(Arc::clone(&column), cells);
                self.fb.cache.insert(key, cached);
                (column, cells, false)
            }
        };
        for stats in [&self.fb.stats, &self.fb.local] {
            stats.decoded(cells as u64, hit);
        }
        Ok(column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{write_string_map_count, write_string_map_pair};

    const KINDS: [ColumnKind; 3] = [ColumnKind::Bytes, ColumnKind::I64, ColumnKind::StringMap];

    /// How a group of [`KINDS`] is stored when every cell fits its column's
    /// kind, the `Bytes` cells have a shape and the integers are timestamps
    /// close together: packed.
    const STORED: [StoredAs; 3] = [StoredAs::ValueRun, StoredAs::PackedI64, StoredAs::StringMap];

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

    /// Row `row` of column `col` of `group` as the cell it was appended as:
    /// an integer as its eight little-endian bytes, a code as its value.
    /// `None` when the column was not read.
    fn cell(f: &ColumnarFile, group: &ColumnGroup, col: usize, row: usize) -> Option<Vec<u8>> {
        let column = group.columns.get(col)?.as_deref()?;
        match column.int(row) {
            Some(int) => Some(int.to_le_bytes().to_vec()),
            None => f.resolve(column, row).map(<[u8]>::to_vec),
        }
    }

    /// `row` as a writer of `schema` appends it: an integer column's cell,
    /// eight little-endian bytes, as the integer.
    fn typed<'a>(schema: &[ColumnKind], row: &'a [Vec<u8>]) -> Vec<Cell<'a>> {
        (schema.iter().zip(row))
            .map(|(kind, cell)| match kind {
                ColumnKind::I64 => Cell::Int(i64::from_le_bytes(cell[..].try_into().unwrap())),
                _ => Cell::Bytes(cell),
            })
            .collect()
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
        w.append_row(&[Cell::Bytes(b"only-one")], None);
    }

    /// Appends `cells` to a file of a dictionary column of two entries, an
    /// integer column and a column of bytes.
    fn append_to_a_coded_file(cells: &[Cell<'_>]) {
        let wh = Warehouse::new();
        let dict: [&[u8]; 2] = [b"a", b"b"];
        let schema = [ColumnKind::Bytes, ColumnKind::I64, ColumnKind::Bytes];
        let mut w =
            ColumnarFileWriter::create(&wh, &p("/x"), &schema, 8, Some((0, &dict))).unwrap();
        w.append_row(&[Cell::Code(1), Cell::Int(7), Cell::Bytes(b"fits")], None);
        w.append_row(cells, None);
    }

    #[test]
    #[should_panic(expected = "an integer cell in a column that is not I64")]
    fn an_integer_outside_an_integer_column_panics() {
        append_to_a_coded_file(&[Cell::Code(0), Cell::Int(1), Cell::Int(2)]);
    }

    #[test]
    #[should_panic(expected = "bytes in an I64 column")]
    fn bytes_in_an_integer_column_panic() {
        append_to_a_coded_file(&[Cell::Code(0), Cell::Bytes(b"1"), Cell::Bytes(b"x")]);
    }

    #[test]
    #[should_panic(expected = "a code outside the dictionary column")]
    fn a_code_outside_the_dictionary_column_panics() {
        append_to_a_coded_file(&[Cell::Code(0), Cell::Int(1), Cell::Code(1)]);
    }

    #[test]
    #[should_panic(expected = "a code past the dictionary")]
    fn a_code_past_the_dictionary_panics() {
        append_to_a_coded_file(&[Cell::Code(2), Cell::Int(1), Cell::Bytes(b"x")]);
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

        /// Rows of a cell of each of the three kinds, [`KINDS`] in order —
        /// with, sometimes, one map cell replaced by bytes that are no
        /// canonical map.
        fn rows() -> impl Strategy<Value = Vec<[Vec<u8>; 3]>> {
            (
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
                .prop_map(|(rows, at, spoiler)| {
                    let mut rows: Vec<[Vec<u8>; 3]> =
                        rows.into_iter().map(|(a, b, c)| [a, b, c]).collect();
                    if let (Some(bad), false) = (spoiler, rows.is_empty()) {
                        let at = at.index(rows.len());
                        rows[at][2] = bad;
                    }
                    rows
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// Any rows × every assignment of kinds to the columns × every
            /// projection × group sizes {1, 8, 512}: every projected cell
            /// comes back as appended, whether its chunk was transposed or
            /// stored as cells.
            #[test]
            fn round_trips_under_every_schema_and_projection(by_kind in rows()) {
                for schema in 0..27usize {
                    let picks = [schema % 3, schema / 3 % 3, schema / 9];
                    let schema = picks.map(|k| KINDS[k]);
                    let rows: Vec<[Vec<u8>; 3]> =
                        by_kind.iter().map(|row| picks.map(|k| row[k].clone())).collect();
                    for group in [1usize, 8, 512] {
                        let wh = Warehouse::new();
                        let path = p("/prop");
                        let mut w =
                            ColumnarFileWriter::create(&wh, &path, &schema, group, None).unwrap();
                        for row in &rows {
                            w.append_row(&typed(&schema, row), None);
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
                                        let want = projection[c].then(|| rows[i][c].clone());
                                        prop_assert_eq!(cell(&f, &grp, c, r), want);
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

    mod v5 {
        use super::*;

        /// A 3-column fixture: col 1 is dictionary-encoded over two known
        /// values, with every 10th row carrying a value outside the
        /// dictionary (inline fallback). Rows are zone-annotated with
        /// key = row index and tag = hash of the col-1 value.
        fn write_v5(wh: &Warehouse, path: &str, rows: usize, group: usize) -> Vec<[Vec<u8>; 3]> {
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
                let name = match dict.iter().position(|entry| *entry == b) {
                    Some(code) => Cell::Code(code as u32),
                    None => Cell::Bytes(&b),
                };
                let zone = Some((i as i64, crate::zone::tag_hash(&b)));
                w.append_row(&[Cell::Bytes(&a), name, Cell::Bytes(&c)], zone);
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
                let row = [a, b, c];
                w.append_row(&typed(&KINDS, &row), None);
                expect.push(row);
            }
            w.finish().unwrap();
            expect
        }

        fn read_back(f: &ColumnarFile, expect: &[[Vec<u8>; 3]]) {
            let mut i = 0;
            for g in 0..f.group_count() {
                let grp = f.read_group(g, &[true, true, true]).unwrap();
                for r in 0..grp.rows() {
                    for (c, want) in expect[i].iter().enumerate() {
                        assert_eq!(cell(f, &grp, c, r).as_ref(), Some(want), "row {i} col {c}");
                    }
                    i += 1;
                }
            }
            assert_eq!(i, expect.len());
        }

        #[test]
        fn round_trips_with_dictionary_and_inline_fallback() {
            let wh = Warehouse::new();
            let expect = write_v5(&wh, "/v5", 95, 32);
            let f = ColumnarFile::open(&wh, &p("/v5")).unwrap();
            assert_eq!(f.columns(), 3);
            assert_eq!(f.group_count(), 3); // ceil(95/32)
            assert_eq!(f.dict_column(), Some(1));
            assert_eq!(f.dictionary_code(b"click"), Some(0));
            assert_eq!(f.dictionary_code(b"nope"), None);
            read_back(&f, &expect);
            // Dictionary hits come back as codes, misses inline.
            let grp = f.read_group(0, &[false, true, false]).unwrap();
            let names = grp.column(1).unwrap();
            for r in 0..grp.rows() {
                match names.code(r) {
                    Some(code) => assert!(code < 2 && names.bytes(r).is_none()),
                    None => assert!(names.bytes(r).unwrap().starts_with(b"rare-")),
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
            // 64 timestamps 977 ms apart: a few bytes of minimum and width,
            // then sixteen bits a row.
            assert!(chunks[1].len < 64 * 3, "{} bytes", chunks[1].len);
            read_back(&ColumnarFile::open(&wh, &p("/typed")).unwrap(), &expect);
        }

        #[test]
        fn a_map_cell_that_is_not_canonical_stores_its_groups_chunk_as_cells() {
            let unsorted = map_cell(&[("b", "y"), ("a", "x")]);
            let duplicate = map_cell(&[("a", "x"), ("a", "y")]);
            let cases: [&[u8]; 4] = [&[5], &unsorted, &duplicate, &[0x80, 0x00]];
            for bad in cases {
                let wh = Warehouse::new();
                let mut expect = write_typed(&wh, "/scratch", 20, 8);
                // The misfit sits in the second of three groups.
                expect[11][2] = bad.to_vec();
                let mut w = ColumnarFileWriter::create(&wh, &p("/f"), &KINDS, 8, None).unwrap();
                for row in &expect {
                    w.append_row(&typed(&KINDS, row), None);
                }
                w.finish().unwrap();
                for g in 0..3 {
                    let (chunks, _, _) = stored_group(&wh, &p("/f"), g, 3);
                    let mut want = STORED;
                    if g == 1 {
                        want[2] = StoredAs::Cells;
                    }
                    // Of the four-row tail's timestamps, `ulz` makes the
                    // varints the shorter stream.
                    if g == 2 {
                        want[1] = StoredAs::I64;
                    }
                    let stored_as: Vec<StoredAs> = chunks.iter().map(|c| c.stored_as).collect();
                    assert_eq!(stored_as, want, "group {g} holding {bad:?}");
                }
                read_back(&ColumnarFile::open(&wh, &p("/f")).unwrap(), &expect);
            }
        }

        #[test]
        fn a_read_is_charged_the_header_and_the_chunks_it_projects() {
            let wh = Warehouse::with_config(64 * 1024, 0); // cache off
            write_v5(&wh, "/v5", 200, 64);
            let wide = ColumnarFile::open(&wh, &p("/v5")).unwrap();
            for g in 0..wide.group_count() {
                wide.read_group(g, &[true, true, true]).unwrap();
            }
            let w = wide.local_stats();
            let narrow = ColumnarFile::open(&wh, &p("/v5")).unwrap();
            for g in 0..narrow.group_count() {
                let grp = narrow.read_group(g, &[false, true, false]).unwrap();
                assert!(cell(&narrow, &grp, 0, 0).is_none(), "unprojected column");
                assert!(cell(&narrow, &grp, 1, 0).is_some());
            }
            let n = narrow.local_stats();
            assert_eq!(n.blocks_read, w.blocks_read, "groups visited unchanged");
            assert_eq!(n.records_read, w.records_read);
            let (mut headers, mut names, mut all) = (0u64, 0u64, 0u64);
            for g in 0..wide.group_count() {
                let (chunks, header_len, block) = stored_group(&wh, &p("/v5"), g, 3);
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

        /// Every chunk is charged the cells it stands for, each behind its
        /// length, as appended — integers as their eight bytes — and holds
        /// its column's heap of the cache.
        #[test]
        fn a_read_is_charged_the_cells_a_chunk_stands_for() {
            let wh = Warehouse::new();
            let expect = write_typed(&wh, "/typed", 100, 50);
            let header = wh.file_data(&p("/typed")).unwrap().blocks[0].uncompressed_len;
            let f = ColumnarFile::open(&wh, &p("/typed")).unwrap();
            let mut heap = 0;
            for g in 0..f.group_count() {
                let group = f.read_group(g, &[true, true, true]).unwrap();
                heap += (0..3)
                    .map(|c| group.column(c).unwrap().heap_len())
                    .sum::<usize>();
            }
            let cells: usize = expect
                .iter()
                .flatten()
                .map(|cell| crate::varint::varint_len(cell.len() as u64) + cell.len())
                .sum();
            assert_eq!(f.local_stats().uncompressed_bytes_read, cells as u64);
            assert_eq!(wh.cache_stats().bytes, header + heap as u64);
        }

        /// Past the last row every column answers `None`, whatever it holds.
        #[test]
        fn a_row_past_the_group_is_none_in_every_column() {
            let wh = Warehouse::new();
            write_v5(&wh, "/v5", 40, 32);
            write_typed(&wh, "/typed", 40, 32);
            for path in ["/v5", "/typed"] {
                let f = ColumnarFile::open(&wh, &p(path)).unwrap();
                for g in 0..f.group_count() {
                    let grp = f.read_group(g, &[true; 3]).unwrap();
                    let rows = grp.rows();
                    for c in 0..3 {
                        let column = grp.column(c).unwrap();
                        assert!(
                            f.resolve(column, rows - 1).is_some() || column.int(rows - 1).is_some()
                        );
                        assert_eq!(column.int(rows), None);
                        assert_eq!(column.code(rows), None);
                        assert_eq!(column.bytes(rows), None);
                        assert_eq!(f.resolve(column, rows), None);
                    }
                }
            }
        }

        /// Twelve rows of one integer in groups of eight: both groups store
        /// the same chunk, no bits a row, and the cache must not hand the
        /// column of one to the other.
        #[test]
        fn groups_of_two_sizes_storing_one_chunk_are_read_apart() {
            let wh = Warehouse::new();
            let path = p("/same");
            let mut w =
                ColumnarFileWriter::create(&wh, &path, &[ColumnKind::I64], 8, None).unwrap();
            for _ in 0..12 {
                w.append_row(&[Cell::Int(42)], None);
            }
            w.finish().unwrap();
            let (a, _, block_a) = stored_group(&wh, &path, 0, 1);
            let (b, _, block_b) = stored_group(&wh, &path, 1, 1);
            assert_eq!(
                (a[0].stored_as, b[0].stored_as),
                (StoredAs::PackedI64, StoredAs::PackedI64)
            );
            assert_eq!(
                block_a[a[0].start..][..a[0].len],
                block_b[b[0].start..][..b[0].len]
            );
            let f = ColumnarFile::open(&wh, &path).unwrap();
            for (g, rows) in [(0, 8), (1, 4), (0, 8), (1, 4)] {
                let grp = f.read_group(g, &[true]).unwrap();
                assert_eq!(grp.rows(), rows);
                for r in 0..rows {
                    assert_eq!(grp.column(0).unwrap().int(r), Some(42));
                }
            }
            assert_eq!(f.local_stats().cache_hits, 2);
        }

        #[test]
        fn zone_maps_cover_groups_and_skips_never_hit_the_cache() {
            let wh = Warehouse::new();
            write_v5(&wh, "/v5", 100, 50);
            let f = ColumnarFile::open(&wh, &p("/v5")).unwrap();
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
            let f2 = ColumnarFile::open(&wh, &p("/v5")).unwrap();
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
            write_v5(&wh, "/v5", 100, 50);
            let f = ColumnarFile::open(&wh, &p("/v5")).unwrap();
            for g in 0..f.group_count() {
                f.read_group(g, &[true, true, true]).unwrap();
            }
            let hits_before = wh.stats().cache_hits;
            let f2 = ColumnarFile::open(&wh, &p("/v5")).unwrap();
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
            write_v5(&wh, "/v5", 10, 4);
            assert_eq!(
                sniff_columnar(&wh, &p("/v5")).unwrap(),
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
            // Headers of the retired v2, v3 and v4, and one from the future.
            for version in [2, 3, 4, 9] {
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

        /// A dictionary column's codes are checked against the reading
        /// file's dictionary once, when decoded: one stored chunk holding
        /// code 2 is a code in a file of three entries and corrupt in a file
        /// of two, whichever of the two one cache reads first.
        #[test]
        fn a_code_is_checked_against_its_own_files_dictionary() {
            for three_first in [true, false] {
                let wh = Warehouse::new();
                let two = forge(&wh, 1, true, &[Forged::of(StoredAs::Cells, &[3])]);
                let block = wh.file_data(&two).unwrap().blocks[1].clone();
                let mut header = file_header(COLUMNAR_VERSION, 1, false);
                header.pop(); // no dictionary
                write_varint(&mut header, 1);
                write_varint(&mut header, 3);
                for value in [b"aa", b"bb", b"cc"] {
                    write_varint(&mut header, 2);
                    header.extend_from_slice(value);
                }
                let three = p("/three");
                let mut w = wh.create(&three).unwrap();
                w.append_header_record(&header);
                w.append_stored_block(block.compressed, block.checksum, None);
                w.finish().unwrap();
                let read = |path: &WhPath| {
                    let f = ColumnarFile::open(&wh, path).unwrap();
                    let group = f.read_group(0, &[true]);
                    group.map(|g| f.resolve(g.column(0).unwrap(), 0).map(<[u8]>::to_vec))
                };
                let (of_three, of_two) = if three_first {
                    let of_three = read(&three);
                    (of_three, read(&two))
                } else {
                    let of_two = read(&two);
                    (read(&three), of_two)
                };
                assert_eq!(of_three, Ok(Some(b"cc".to_vec())));
                assert_eq!(of_two, Err(WarehouseError::Corrupt("column chunk layout")));
            }
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
                    Forged::of(StoredAs::PackedI64, &[0, 8, 0xff]),
                    Forged::of(StoredAs::StringMap, &[2, 0]),
                    Forged::of(StoredAs::ValueRun, &[8, 2, 0, 1, 2, 3, 4]),
                ] {
                    assert!(read(rows, &[chunk]).is_err(), "{rows} rows");
                }
            }
            // Integers of no bits each cost nothing stored, so the count is
            // held to what a chunk may rebuild to instead.
            let same = || Forged::of(StoredAs::PackedI64, &[0, 0]);
            assert_eq!(read(2, &[same()]), Ok(2));
            assert_eq!(
                read(u32::MAX as u64, &[same()]),
                Err(WarehouseError::Corrupt("column chunk layout"))
            );
            // A chunk length past the block, and one short of it.
            for claimed in [u64::MAX, 1 << 20, 1] {
                let mut chunk = one_cell();
                chunk.claimed_len = Some(claimed);
                assert_eq!(
                    read(1, &[chunk, one_cell()]),
                    Err(WarehouseError::Corrupt("row group header"))
                );
            }
            // An encoding tag nobody wrote, next to the packed integers'.
            let mut chunk = one_cell();
            chunk.tag = StoredAs::PackedI64.tag() + 1;
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
            // shorter than the rows, distances 65 bits wide, packed a byte
            // long, padded with a bit set; a dictionary of no values, codes
            // padded with a bit set, a code past the values.
            let runs: [(u64, &[u8]); 13] = [
                (1, &[5, 0, 1, 2, 3, 4]),
                (1, &[0x21, 0, 2, 0xab]),
                (1, &[1, 0, 0]),
                (1, &[1, 0, 3, 0xab, 0xcd]),
                (1, &[1, 0, 64, 0xab]),
                (1, &[1, 200, b'x', 2, 0xab]),
                (100, &[0x12, 0, 0xff, 1, 2, 3, 4]),
                (1, &[3, 0, 7, 65, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
                (1, &[3, 0, 7, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
                (1, &[3, 0, 7, 12, 0xff, 0x1f]),
                (1, &[4, 0, 0]),
                (1, &[4, 0, 2, 1, b'a', 1, b'b', 0b10]),
                (1, &[4, 0, 3, 1, b'a', 1, b'b', 1, b'c', 0b11]),
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
            let expect = write_v5(&wh, "/v5", 30, 8);
            let before = wh.stats();
            let first = ColumnarFile::open(&wh, &p("/v5")).unwrap();
            assert_eq!(wh.cache_stats().entries, 1, "the header block");
            let again = ColumnarFile::open(&wh, &p("/v5")).unwrap();
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
            wh.delete_file(&p("/v5")).unwrap();
            let dict: [&[u8]; 2] = [b"view", b"tap"];
            let mut w = ColumnarFileWriter::create(
                &wh,
                &p("/v5"),
                &[ColumnKind::Bytes; 3],
                8,
                Some((1, &dict)),
            )
            .unwrap();
            let cells = [Cell::Bytes(b"u"), Cell::Code(1), Cell::Bytes(b"x")];
            w.append_row(&cells, Some((0, 0)));
            w.finish().unwrap();
            let relanded = ColumnarFile::open(&wh, &p("/v5")).unwrap();
            assert_eq!(relanded.dictionary_value(1), Some(&b"tap"[..]));
            assert_eq!(relanded.dictionary_code(b"view"), Some(0));
            assert_eq!(relanded.dictionary_code(b"click"), None);
            assert_eq!(first.dictionary_value(1), Some(&b"view"[..]));

            // A cleared cache means a cold open: the header is decompressed
            // again, and kept again.
            wh.clear_cache();
            assert_eq!(wh.cache_stats().entries, 0);
            let cold = ColumnarFile::open(&wh, &p("/v5")).unwrap();
            assert_eq!(cold.dictionary_value(1), Some(&b"tap"[..]));
            assert_eq!(wh.cache_stats().entries, 1);
            // A warehouse without a cache opens files all the same.
            let uncached = Warehouse::with_config(64 * 1024, 0);
            let expect = write_v5(&uncached, "/v5", 30, 8);
            read_back(&ColumnarFile::open(&uncached, &p("/v5")).unwrap(), &expect);
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
            write_v5(&wh, "/v5", 40, 20);
            // Drop the tail of group 1's block: the read must fail as a
            // unit, not yield a partial group.
            wh.truncate_block(&p("/v5"), 2).unwrap();
            let f = ColumnarFile::open(&wh, &p("/v5")).unwrap();
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
                    0u8..6,
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

            /// A group that reads must be whole: every projected column a
            /// value a row, every code in the dictionary.
            fn check_group(f: &ColumnarFile, projection: &[bool]) {
                if let Ok(g) = f.read_group(0, projection) {
                    for (c, projected) in projection.iter().enumerate() {
                        let Some(column) = g.columns[c].as_deref() else {
                            assert!(!projected);
                            continue;
                        };
                        let rows = g.rows();
                        let present = |r| column.int(r).is_some() || f.resolve(column, r).is_some();
                        assert!((0..rows.min(1000)).chain(rows.checked_sub(1)).all(present));
                        assert!(!present(rows));
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
