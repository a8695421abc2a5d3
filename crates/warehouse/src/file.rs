//! Block-structured record files.
//!
//! A record file is a sequence of blocks; each block holds many
//! varint-length-prefixed records and is independently compressed and
//! checksummed. A block models an HDFS block: it is the unit of scan cost
//! (one simulated map task per block) and the unit an index can skip.

use std::ops::Range;
use std::sync::Arc;

use crate::cache::{BlockCache, BlockKey, Cached};
use crate::compress;
use crate::error::{WarehouseError, WarehouseResult};
use crate::hash::block_checksum;
use crate::stats::{ScanStats, StatsCell};
use crate::varint::{encode_varint, read_varint};
use crate::zone::ZoneMap;

/// One sealed block.
#[derive(Debug, Clone)]
pub(crate) struct Block {
    /// The block as it sits on disk: a `ulz` stream of framed records, or —
    /// a columnar row group — the group's envelope, stored as it stands.
    pub(crate) compressed: Vec<u8>,
    pub(crate) uncompressed_len: u64,
    /// [`block_checksum`] of `compressed`; of a row group, of its header
    /// alone, which carries the checksum of every chunk behind it.
    pub(crate) checksum: u64,
    pub(crate) num_records: u64,
    /// Zone-map footer entry. Present only when *every* record in the block
    /// was appended with annotations; absent zones fail open (always read).
    pub(crate) zone: Option<ZoneMap>,
}

/// Immutable contents of a finished file.
#[derive(Debug, Default, Clone)]
pub(crate) struct FileData {
    pub(crate) blocks: Vec<Block>,
    pub(crate) total_records: u64,
    pub(crate) total_compressed: u64,
    pub(crate) total_uncompressed: u64,
}

/// Summary metadata of a stored file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileMeta {
    /// Number of blocks (= simulated map tasks to scan the file).
    pub blocks: u64,
    /// Stored records: a row file's rows, a columnar file's header and groups.
    pub records: u64,
    /// Compressed (on-disk) size.
    pub compressed_bytes: u64,
    /// Uncompressed (logical) size.
    pub uncompressed_bytes: u64,
}

impl FileData {
    pub(crate) fn meta(&self) -> FileMeta {
        FileMeta {
            blocks: self.blocks.len() as u64,
            records: self.total_records,
            compressed_bytes: self.total_compressed,
            uncompressed_bytes: self.total_uncompressed,
        }
    }
}

/// Streaming writer: records are fed straight into a reusable
/// [`compress::Compressor`], which compresses incrementally as they append
/// (no buffer-then-compress); a block is sealed whenever the buffered
/// uncompressed bytes reach the configured capacity, and the file is
/// atomically installed on [`RecordFileWriter::finish`]. The token stream
/// is byte-identical to one-shot compression of the block, so on-disk files
/// do not depend on how records were chunked into appends.
pub struct RecordFileWriter {
    pub(crate) install: Box<dyn FnOnce(FileData) -> WarehouseResult<()> + Send>,
    pub(crate) block_capacity: usize,
    pub(crate) compressor: compress::Compressor,
    /// Pool the compressor came from; `finish` hands it back so concurrent
    /// writers converge on one warm allocation set per worker instead of
    /// paying a fresh hash table per file.
    pub(crate) recycle: std::sync::Arc<compress::CompressorPool>,
    pub(crate) pending_records: u64,
    pub(crate) pending_zone: ZoneMap,
    pub(crate) pending_annotated: u64,
    pub(crate) data: FileData,
}

impl RecordFileWriter {
    /// Appends one record.
    pub fn append_record(&mut self, record: &[u8]) {
        let (prefix, n) = encode_varint(record.len() as u64);
        self.compressor.write(&prefix[..n]);
        self.compressor.write(record);
        self.pending_records += 1;
        if self.compressor.pending_len() >= self.block_capacity {
            self.seal_block();
        }
    }

    /// Appends one record with zone-map annotations: the block being built
    /// folds `key` into its min/max range and `tag` into its membership
    /// bitmap. A block sealed with every record annotated gets a zone map in
    /// the file footer; mixing annotated and plain appends leaves the block
    /// unmapped (fail open).
    pub fn append_record_annotated(&mut self, record: &[u8], key: i64, tag: u64) {
        self.pending_zone.fold(key, tag);
        self.pending_annotated += 1;
        self.append_record(record);
    }

    /// Seals `record` into the file's first block, on its own: where a
    /// columnar file keeps its header. Nothing else goes through here — a
    /// row group is compressed chunk by chunk by its writer and stored
    /// ([`append_stored_block`](Self::append_stored_block)), never fed to
    /// the compressor a second time.
    pub(crate) fn append_header_record(&mut self, record: &[u8]) {
        debug_assert!(
            self.data.blocks.is_empty() && self.compressor.is_empty(),
            "only a file's header record is sealed through the compressor"
        );
        self.append_record(record);
        self.seal_block();
    }

    /// Appends `stored` as a block of its own, verbatim: one row group of a
    /// columnar file, so group-level skipping rides the ordinary block
    /// machinery (`zone_map`, `skip_block`). `checksum` is the caller's —
    /// it knows which prefix of the block is the header a reader verifies.
    pub(crate) fn append_stored_block(
        &mut self,
        stored: Vec<u8>,
        checksum: u64,
        zone: Option<ZoneMap>,
    ) {
        self.seal_block();
        let len = stored.len() as u64;
        self.data.total_compressed += len;
        self.data.total_uncompressed += len;
        self.data.total_records += 1;
        self.data.blocks.push(Block {
            compressed: stored,
            uncompressed_len: len,
            checksum,
            num_records: 1,
            zone,
        });
    }

    fn seal_block(&mut self) {
        if self.compressor.is_empty() {
            return;
        }
        let uncompressed_len = self.compressor.pending_len() as u64;
        let compressed = self.compressor.finish_block();
        let checksum = block_checksum(&compressed);
        self.data.total_compressed += compressed.len() as u64;
        self.data.total_uncompressed += uncompressed_len;
        self.data.total_records += self.pending_records;
        let zone = (self.pending_records > 0 && self.pending_annotated == self.pending_records)
            .then_some(self.pending_zone);
        self.data.blocks.push(Block {
            compressed,
            uncompressed_len,
            checksum,
            num_records: self.pending_records,
            zone,
        });
        self.pending_records = 0;
        self.pending_zone = ZoneMap::empty();
        self.pending_annotated = 0;
    }

    /// Seals the final block and installs the file in the warehouse. The
    /// writer's compressor (now reset) returns to the warehouse pool for the
    /// next writer to reuse.
    pub fn finish(mut self) -> WarehouseResult<FileMeta> {
        self.seal_block();
        let meta = self.data.meta();
        self.recycle.recycle(self.compressor);
        (self.install)(self.data)?;
        Ok(meta)
    }
}

/// Streaming reader over a file's records, decompressing block by block and
/// charging every read to the warehouse scan counters.
pub struct RecordFileReader {
    pub(crate) path: String,
    pub(crate) data: Arc<FileData>,
    pub(crate) stats: Arc<StatsCell>,
    pub(crate) cache: Arc<BlockCache>,
    next_block: usize,
    buf: Arc<Vec<u8>>,
    buf_pos: usize,
}

impl RecordFileReader {
    pub(crate) fn new(
        path: String,
        data: Arc<FileData>,
        stats: Arc<StatsCell>,
        cache: Arc<BlockCache>,
    ) -> Self {
        stats.file_opened();
        RecordFileReader {
            path,
            data,
            stats,
            cache,
            next_block: 0,
            buf: Arc::new(Vec::new()),
            buf_pos: 0,
        }
    }

    fn load_next_block(&mut self) -> WarehouseResult<bool> {
        let Some(block) = self.data.blocks.get(self.next_block) else {
            return Ok(false);
        };
        let idx = self.next_block;
        self.next_block += 1;
        self.buf = read_block_payload(&self.path, block, idx, &self.cache, &[&self.stats])?;
        self.buf_pos = 0;
        Ok(true)
    }

    /// Yields the next record, or `None` at end of file.
    pub fn next_record(&mut self) -> WarehouseResult<Option<&[u8]>> {
        while self.buf_pos >= self.buf.len() {
            if !self.load_next_block()? {
                return Ok(None);
            }
        }
        let body = framed_record(&self.buf, &mut self.buf_pos)?;
        self.stats.records_read_n(1);
        Ok(Some(&self.buf[body]))
    }

    /// Convenience: collects all remaining records as owned vectors. Each
    /// record costs one heap allocation, charged to the cost model's
    /// `alloc_bytes` counter; hot paths should prefer [`Self::next_record`]
    /// or [`FileBlocks::for_each_record`], which borrow from the block
    /// payload instead.
    pub fn read_all(mut self) -> WarehouseResult<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        while let Some(rec) = self.next_record()? {
            let owned = rec.to_vec();
            self.stats.record_alloc(owned.len() as u64);
            out.push(owned);
        }
        Ok(out)
    }
}

/// Fetches one block's decompressed payload — from the cache when hot,
/// verifying + decompressing (and populating the cache) when cold — and
/// charges every supplied stats cell identically.
///
/// Hit accounting: the block and its uncompressed bytes are charged (the
/// scan logically read them) but no compressed bytes are (nothing came off
/// disk). Cold blocks are charged exactly as before the cache existed.
fn read_block_payload(
    path: &str,
    block: &Block,
    idx: usize,
    cache: &BlockCache,
    cells: &[&StatsCell],
) -> WarehouseResult<Arc<Vec<u8>>> {
    let key = BlockKey::row_block(block.checksum, block.uncompressed_len);
    if let Some(Cached::Block(data)) = cache.get(key) {
        for cell in cells {
            cell.block_read(0);
            cell.decoded(data.len() as u64, true);
        }
        return Ok(data);
    }
    if block_checksum(&block.compressed) != block.checksum {
        return Err(WarehouseError::ChecksumMismatch {
            path: path.to_string(),
            block: idx,
        });
    }
    let decompressed = compress::decompress(&block.compressed)
        .ok_or(WarehouseError::Corrupt("block failed to decompress"))?;
    if decompressed.len() as u64 != block.uncompressed_len {
        return Err(WarehouseError::Corrupt("block length mismatch"));
    }
    for cell in cells {
        cell.block_read(block.compressed.len() as u64);
        cell.decoded(decompressed.len() as u64, false);
    }
    let data = Arc::new(decompressed);
    cache.insert(key, Cached::Block(Arc::clone(&data)));
    Ok(data)
}

/// Splits a decompressed block payload into owned records.
fn decode_records(payload: &[u8]) -> WarehouseResult<Vec<Vec<u8>>> {
    let mut out = Vec::new();
    visit_records(payload, |rec| out.push(rec.to_vec()))?;
    Ok(out)
}

/// Reads the varint length of the record framed at `*pos` and returns where
/// its body lies, leaving `*pos` behind it. A length that reaches past the
/// payload — or, added to the cursor, past `usize` — is corruption, never a
/// slice out of range.
fn framed_record(payload: &[u8], pos: &mut usize) -> WarehouseResult<Range<usize>> {
    let len = read_varint(payload, pos).ok_or(WarehouseError::Corrupt("record length"))?;
    let start = *pos;
    let end = usize::try_from(len)
        .ok()
        .and_then(|len| start.checked_add(len))
        .filter(|end| *end <= payload.len())
        .ok_or(WarehouseError::Corrupt("record body"))?;
    *pos = end;
    Ok(start..end)
}

/// Walks the varint-framed records of a decompressed block payload, handing
/// each to `f` as a borrowed slice — no per-record allocation.
fn visit_records(payload: &[u8], mut f: impl FnMut(&[u8])) -> WarehouseResult<u64> {
    let mut pos = 0usize;
    let mut count = 0u64;
    while pos < payload.len() {
        f(&payload[framed_record(payload, &mut pos)?]);
        count += 1;
    }
    Ok(count)
}

/// Random-access, thread-safe view of a file's blocks — the parallel-scan
/// counterpart of [`RecordFileReader`]. Blocks can be read from any thread
/// in any order (each block ≈ one map task), and every read is charged both
/// to the warehouse-global counters and to a per-handle cell so one query's
/// cost can be attributed exactly even while other scans run concurrently.
#[derive(Clone)]
pub struct FileBlocks {
    pub(crate) path: String,
    pub(crate) data: Arc<FileData>,
    pub(crate) stats: Arc<StatsCell>,
    pub(crate) local: Arc<StatsCell>,
    pub(crate) cache: Arc<BlockCache>,
}

impl FileBlocks {
    pub(crate) fn new(
        path: String,
        data: Arc<FileData>,
        stats: Arc<StatsCell>,
        cache: Arc<BlockCache>,
    ) -> Self {
        let local = Arc::new(StatsCell::default());
        stats.file_opened();
        local.file_opened();
        FileBlocks {
            path,
            data,
            stats,
            local,
            cache,
        }
    }

    /// Number of blocks in the file.
    pub fn block_count(&self) -> usize {
        self.data.blocks.len()
    }

    /// Number of records stored in block `idx`.
    pub fn block_records(&self, idx: usize) -> u64 {
        self.data.blocks[idx].num_records
    }

    /// Summary metadata of the whole file.
    pub fn meta(&self) -> FileMeta {
        self.data.meta()
    }

    /// Reads and decodes block `idx` into owned records, charging the scan
    /// counters (cache-aware, like the streaming reader). Each record is an
    /// owned `Vec`, charged to the cost model's `alloc_bytes` counter;
    /// [`Self::for_each_record`] avoids that churn entirely.
    pub fn read_block(&self, idx: usize) -> WarehouseResult<Vec<Vec<u8>>> {
        let payload = self.block_payload(idx)?;
        let records = decode_records(&payload)?;
        let alloc: u64 = records.iter().map(|r| r.len() as u64).sum();
        self.stats.records_read_n(records.len() as u64);
        self.stats.record_alloc(alloc);
        self.local.records_read_n(records.len() as u64);
        self.local.record_alloc(alloc);
        Ok(records)
    }

    /// Streams the records of block `idx` to `f` as borrowed slices — the
    /// allocation-free counterpart of [`Self::read_block`]: same cache-aware
    /// payload fetch and record accounting, but nothing is copied out of the
    /// decompressed payload, so `alloc_bytes` is never charged.
    pub fn for_each_record(&self, idx: usize, f: impl FnMut(&[u8])) -> WarehouseResult<()> {
        let payload = self.block_payload(idx)?;
        let count = visit_records(&payload, f)?;
        self.stats.records_read_n(count);
        self.local.records_read_n(count);
        Ok(())
    }

    fn block_payload(&self, idx: usize) -> WarehouseResult<Arc<Vec<u8>>> {
        let block = self
            .data
            .blocks
            .get(idx)
            .ok_or(WarehouseError::Corrupt("block index out of range"))?;
        read_block_payload(
            &self.path,
            block,
            idx,
            &self.cache,
            &[&self.stats, &self.local],
        )
    }

    /// Zone map of block `idx`, if the block was written fully annotated.
    pub fn zone_map(&self, idx: usize) -> Option<ZoneMap> {
        self.data.blocks.get(idx).and_then(|b| b.zone)
    }

    /// Records that block `idx` was skipped without decompression (index
    /// pushdown in a parallel scan).
    pub fn skip_block(&self, _idx: usize) {
        self.stats.block_skipped();
        self.local.block_skipped();
    }

    /// Charges pushdown accounting (records dropped by a pushed predicate,
    /// cells of masked columns a columnar read never decoded) to both the
    /// warehouse-global counters and this handle's local cell.
    pub fn charge_pushdown(&self, records_skipped: u64, fields_skipped: u64) {
        self.stats.pushdown_skips(records_skipped, fields_skipped);
        self.local.pushdown_skips(records_skipped, fields_skipped);
    }

    /// Snapshot of this handle's own counters (shared by its clones):
    /// exactly what reads through this handle cost, regardless of what other
    /// scans did to the warehouse-global counters meanwhile.
    pub fn local_stats(&self) -> ScanStats {
        self.local.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One well-formed record, then one whose length prefix is `len`.
    fn hostile_file(len: u64) -> Arc<FileData> {
        let mut payload = b"\x02ok".to_vec();
        let (prefix, n) = encode_varint(len);
        payload.extend_from_slice(&prefix[..n]);
        payload.extend_from_slice(b"tail");
        let compressed = compress::compress(&payload);
        Arc::new(FileData {
            blocks: vec![Block {
                checksum: block_checksum(&compressed),
                compressed,
                uncompressed_len: payload.len() as u64,
                num_records: 2,
                zone: None,
            }],
            total_records: 2,
            ..FileData::default()
        })
    }

    /// Both readers over [`hostile_file`]`(len)`.
    fn readers(len: u64) -> (RecordFileReader, FileBlocks) {
        let data = hostile_file(len);
        let stats = Arc::new(StatsCell::default());
        let cache = Arc::new(BlockCache::new(0));
        let path = || "/hostile".to_string();
        (
            RecordFileReader::new(path(), data.clone(), stats.clone(), cache.clone()),
            FileBlocks::new(path(), data, stats, cache),
        )
    }

    /// A record length that wraps the cursor, runs past `usize`, or ends one
    /// byte past the block is `Corrupt("record body")` from both readers —
    /// after the record before it was handed out — and never a panic.
    #[test]
    fn a_hostile_record_length_is_corrupt_not_a_panic() {
        // Behind a ten-byte length the second record's body starts at 13:
        // the middle length lands the cursor on `usize::MAX + 1` exactly.
        for len in [u64::MAX, usize::MAX as u64 - 13 + 1, 5] {
            let (mut reader, blocks) = readers(len);
            assert_eq!(reader.next_record().unwrap(), Some(&b"ok"[..]));
            assert!(
                matches!(
                    reader.next_record(),
                    Err(WarehouseError::Corrupt("record body"))
                ),
                "streaming reader, length {len}"
            );

            let mut seen = Vec::new();
            let walked = blocks.for_each_record(0, |r| seen.push(r.to_vec()));
            assert!(
                matches!(walked, Err(WarehouseError::Corrupt("record body"))),
                "block reader, length {len}"
            );
            assert_eq!(seen, vec![b"ok".to_vec()]);
            assert!(blocks.read_block(0).is_err());
        }
        // One byte shorter and the same block reads clean.
        let (_, blocks) = readers(4);
        assert_eq!(
            blocks.read_block(0).unwrap(),
            vec![b"ok".to_vec(), b"tail".to_vec()]
        );
    }
}
