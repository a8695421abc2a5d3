//! The warehouse filesystem: directories, files, atomic renames, outages.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use uli_obs::lock;

use crate::cache::{BlockCache, CacheStats, DEFAULT_CACHE_CAPACITY};
use crate::error::{WarehouseError, WarehouseResult};
use crate::file::{FileBlocks, FileData, RecordFileReader, RecordFileWriter};
use crate::hash::{block_checksum, fnv1a64_fold, FNV1A64_OFFSET};
use crate::path::WhPath;
use crate::stats::{ScanStats, StatsCell};
use crate::zone::ZoneMap;

pub use crate::file::FileMeta;

/// Default block capacity: small enough that laptop-scale datasets still
/// span many blocks (the unit of simulated map tasks).
pub const DEFAULT_BLOCK_CAPACITY: usize = 64 * 1024;

#[derive(Debug)]
enum Entry {
    Dir,
    File(Arc<FileData>),
}

#[derive(Default)]
struct Tree {
    /// Path string → entry. The root `/` is an implicit directory.
    entries: BTreeMap<String, Entry>,
}

impl Tree {
    fn is_dir(&self, path: &WhPath) -> bool {
        path.as_str() == "/" || matches!(self.entries.get(path.as_str()), Some(Entry::Dir))
    }

    fn mkdirs(&mut self, dir: &WhPath) -> WarehouseResult<()> {
        for anc in dir.ancestors().into_iter().chain([dir.clone()]) {
            if anc.as_str() == "/" {
                continue;
            }
            match self.entries.get(anc.as_str()) {
                None => {
                    self.entries.insert(anc.as_str().to_string(), Entry::Dir);
                }
                Some(Entry::Dir) => {}
                Some(Entry::File(_)) => {
                    return Err(WarehouseError::NotADirectory(anc.as_str().to_string()))
                }
            }
        }
        Ok(())
    }

    /// Immediate children of `dir` as (name, is_dir).
    fn list(&self, dir: &WhPath) -> WarehouseResult<Vec<(String, bool)>> {
        if !self.is_dir(dir) {
            return Err(if self.entries.contains_key(dir.as_str()) {
                WarehouseError::NotADirectory(dir.as_str().to_string())
            } else {
                WarehouseError::NotFound(dir.as_str().to_string())
            });
        }
        let prefix = if dir.as_str() == "/" {
            "/".to_string()
        } else {
            format!("{}/", dir.as_str())
        };
        let mut out = Vec::new();
        // Range over the borrowed prefix — no per-call key clone.
        for (path, entry) in self.subtree(&prefix) {
            let rest = &path[prefix.len()..];
            if rest.is_empty() || rest.contains('/') {
                continue;
            }
            out.push((rest.to_string(), matches!(entry, Entry::Dir)));
        }
        Ok(out)
    }

    /// Entries whose path starts with `prefix`, walked in order without
    /// cloning the prefix into an owned range bound.
    fn subtree<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = (&'a String, &'a Entry)> {
        use std::ops::Bound;
        self.entries
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(move |(p, _)| p.starts_with(prefix))
    }
}

/// The in-process warehouse. Clone-shareable.
#[derive(Clone)]
pub struct Warehouse {
    tree: Arc<Mutex<Tree>>,
    stats: Arc<StatsCell>,
    cache: Arc<BlockCache>,
    available: Arc<AtomicBool>,
    block_capacity: usize,
    compressors: Arc<crate::compress::CompressorPool>,
}

impl Default for Warehouse {
    fn default() -> Self {
        Self::with_block_capacity(DEFAULT_BLOCK_CAPACITY)
    }
}

impl Warehouse {
    /// Creates a warehouse with the default block capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a warehouse whose blocks seal at `block_capacity` uncompressed
    /// bytes, with the default decompressed-block cache.
    pub fn with_block_capacity(block_capacity: usize) -> Self {
        Self::with_config(block_capacity, DEFAULT_CACHE_CAPACITY)
    }

    /// Creates a warehouse with explicit block and block-cache capacities
    /// (both in bytes). `cache_capacity == 0` disables block caching, which
    /// restores the exact pre-cache read accounting.
    pub fn with_config(block_capacity: usize, cache_capacity: usize) -> Self {
        assert!(block_capacity > 0, "block capacity must be positive");
        Warehouse {
            tree: Arc::new(Mutex::new(Tree::default())),
            stats: Arc::new(StatsCell::default()),
            cache: Arc::new(BlockCache::new(cache_capacity)),
            available: Arc::new(AtomicBool::new(true)),
            block_capacity,
            compressors: Arc::new(crate::compress::CompressorPool::new()),
        }
    }

    /// Creates a warehouse (default capacities) whose scan counters are
    /// registered in `registry` under the `warehouse` component, so the
    /// exported snapshot and [`Warehouse::stats`] read the same atomics.
    pub fn new_with_obs(registry: &uli_obs::Registry) -> Self {
        Self::with_config_obs(
            DEFAULT_BLOCK_CAPACITY,
            DEFAULT_CACHE_CAPACITY,
            registry,
            "warehouse",
        )
    }

    /// [`Warehouse::with_config`] plus registry-backed scan counters under
    /// `component`. Distinct warehouses sharing a registry must use distinct
    /// component names, or the duplicate-registration gate trips.
    pub fn with_config_obs(
        block_capacity: usize,
        cache_capacity: usize,
        registry: &uli_obs::Registry,
        component: &str,
    ) -> Self {
        assert!(block_capacity > 0, "block capacity must be positive");
        Warehouse {
            tree: Arc::new(Mutex::new(Tree::default())),
            stats: Arc::new(StatsCell::registered(registry, component)),
            cache: Arc::new(BlockCache::new(cache_capacity)),
            available: Arc::new(AtomicBool::new(true)),
            block_capacity,
            compressors: Arc::new(crate::compress::CompressorPool::new()),
        }
    }

    /// The configured block capacity in bytes.
    pub fn block_capacity(&self) -> usize {
        self.block_capacity
    }

    /// The shared pool of reusable block compressors backing this warehouse's
    /// writers. Exposed so callers (and tests) can observe reuse.
    pub fn compressor_pool(&self) -> &Arc<crate::compress::CompressorPool> {
        &self.compressors
    }

    /// Counters and occupancy of the shared decompressed-block cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drops every cached block (for cold-cache measurements).
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Simulates an HDFS outage (`false`) or recovery (`true`). While
    /// unavailable, writes fail with [`WarehouseError::Unavailable`]; the
    /// Scribe aggregators react by buffering to local disk.
    pub fn set_available(&self, available: bool) {
        self.available.store(available, Ordering::SeqCst);
    }

    /// Whether the warehouse currently accepts writes.
    pub fn is_available(&self) -> bool {
        self.available.load(Ordering::SeqCst)
    }

    fn check_available(&self) -> WarehouseResult<()> {
        if self.is_available() {
            Ok(())
        } else {
            Err(WarehouseError::Unavailable)
        }
    }

    /// Cumulative scan statistics.
    pub fn stats(&self) -> ScanStats {
        self.stats.snapshot()
    }

    /// Zeroes the scan statistics.
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Creates all directories down to `dir`.
    pub fn mkdirs(&self, dir: &WhPath) -> WarehouseResult<()> {
        self.check_available()?;
        lock(&self.tree).mkdirs(dir)
    }

    /// True if a file or directory exists at `path`.
    pub fn exists(&self, path: &WhPath) -> bool {
        path.as_str() == "/" || lock(&self.tree).entries.contains_key(path.as_str())
    }

    /// True if `path` is a directory.
    pub fn is_dir(&self, path: &WhPath) -> bool {
        lock(&self.tree).is_dir(path)
    }

    /// Lists the immediate children of `dir` as `(name, is_dir)`, sorted.
    pub fn list(&self, dir: &WhPath) -> WarehouseResult<Vec<(String, bool)>> {
        lock(&self.tree).list(dir)
    }

    /// All file paths under `dir`, recursively, sorted.
    pub fn list_files_recursive(&self, dir: &WhPath) -> WarehouseResult<Vec<WhPath>> {
        let tree = lock(&self.tree);
        if !tree.is_dir(dir) {
            return Err(WarehouseError::NotFound(dir.as_str().to_string()));
        }
        let prefix = if dir.as_str() == "/" {
            "/".to_string()
        } else {
            format!("{}/", dir.as_str())
        };
        Ok(tree
            .subtree(&prefix)
            .filter(|(_, e)| matches!(e, Entry::File(_)))
            .map(|(p, _)| WhPath::parse(p).expect("stored paths are valid"))
            .collect())
    }

    /// Opens a writer for a new file. Parent directories are created
    /// implicitly (as HDFS does). The file becomes visible atomically when
    /// `finish` is called.
    pub fn create(&self, path: &WhPath) -> WarehouseResult<RecordFileWriter> {
        self.check_available()?;
        {
            let mut tree = lock(&self.tree);
            if tree.entries.contains_key(path.as_str()) {
                return Err(WarehouseError::AlreadyExists(path.as_str().to_string()));
            }
            if let Some(parent) = path.parent() {
                tree.mkdirs(&parent)?;
            }
        }
        let tree = Arc::clone(&self.tree);
        let available = Arc::clone(&self.available);
        let path_str = path.as_str().to_string();
        let install = Box::new(move |data: FileData| {
            if !available.load(Ordering::SeqCst) {
                return Err(WarehouseError::Unavailable);
            }
            let mut tree = lock(&tree);
            if tree.entries.contains_key(&path_str) {
                return Err(WarehouseError::AlreadyExists(path_str.clone()));
            }
            tree.entries
                .insert(path_str.clone(), Entry::File(Arc::new(data)));
            Ok(())
        });
        Ok(RecordFileWriter {
            install,
            block_capacity: self.block_capacity,
            compressor: self.compressors.checkout(),
            recycle: Arc::clone(&self.compressors),
            pending_records: 0,
            pending_zone: ZoneMap::empty(),
            pending_annotated: 0,
            data: FileData::default(),
        })
    }

    pub(crate) fn file_data(&self, path: &WhPath) -> WarehouseResult<Arc<FileData>> {
        let tree = lock(&self.tree);
        match tree.entries.get(path.as_str()) {
            Some(Entry::File(data)) => Ok(Arc::clone(data)),
            Some(Entry::Dir) => Err(WarehouseError::NotAFile(path.as_str().to_string())),
            None => Err(WarehouseError::NotFound(path.as_str().to_string())),
        }
    }

    /// Opens a record reader over `path`.
    pub fn open(&self, path: &WhPath) -> WarehouseResult<RecordFileReader> {
        let data = self.file_data(path)?;
        Ok(RecordFileReader::new(
            path.as_str().to_string(),
            data,
            Arc::clone(&self.stats),
            Arc::clone(&self.cache),
        ))
    }

    /// Opens a random-access block view of `path` for parallel scans; see
    /// [`FileBlocks`].
    pub fn open_blocks(&self, path: &WhPath) -> WarehouseResult<FileBlocks> {
        let data = self.file_data(path)?;
        Ok(FileBlocks::new(
            path.as_str().to_string(),
            data,
            Arc::clone(&self.stats),
            Arc::clone(&self.cache),
        ))
    }

    /// Deterministic FNV-1a digest of a file's physical representation:
    /// every block's compressed bytes plus block boundaries and record
    /// counts. Equal digests mean byte-identical block streams — the check
    /// the parallel mover's identity tests fold across worker counts,
    /// without exposing raw bytes or charging scan counters.
    pub fn file_digest(&self, path: &WhPath) -> WarehouseResult<u64> {
        let data = self.file_data(path)?;
        let mut h = FNV1A64_OFFSET;
        for block in &data.blocks {
            for v in [
                block.compressed.len() as u64,
                block.uncompressed_len,
                block.num_records,
            ] {
                h = fnv1a64_fold(h, &v.to_le_bytes());
            }
            h = fnv1a64_fold(h, &block.compressed);
        }
        Ok(h)
    }

    /// Summary metadata of a file.
    pub fn file_meta(&self, path: &WhPath) -> WarehouseResult<FileMeta> {
        Ok(self.file_data(path)?.meta())
    }

    /// Sum of file metadata under a directory: the sizing input for the
    /// simulated cost model.
    pub fn dir_meta(&self, dir: &WhPath) -> WarehouseResult<FileMeta> {
        let mut total = FileMeta {
            blocks: 0,
            records: 0,
            compressed_bytes: 0,
            uncompressed_bytes: 0,
        };
        for f in self.list_files_recursive(dir)? {
            let m = self.file_meta(&f)?;
            total.blocks += m.blocks;
            total.records += m.records;
            total.compressed_bytes += m.compressed_bytes;
            total.uncompressed_bytes += m.uncompressed_bytes;
        }
        Ok(total)
    }

    /// Deletes a file.
    pub fn delete_file(&self, path: &WhPath) -> WarehouseResult<()> {
        self.check_available()?;
        let mut tree = lock(&self.tree);
        match tree.entries.get(path.as_str()) {
            Some(Entry::File(_)) => {
                tree.entries.remove(path.as_str());
                Ok(())
            }
            Some(Entry::Dir) => Err(WarehouseError::NotAFile(path.as_str().to_string())),
            None => Err(WarehouseError::NotFound(path.as_str().to_string())),
        }
    }

    /// Fault hook: flips the first byte of one stored block of `path`
    /// *without* updating its checksum, so the next read fails verification
    /// with [`WarehouseError::ChecksumMismatch`]. Clears the block cache — a
    /// cached payload would otherwise keep serving the pre-corruption bytes.
    pub fn corrupt_block(&self, path: &WhPath, block: usize) -> WarehouseResult<()> {
        self.corrupt_block_at(path, block, 0)
    }

    /// [`corrupt_block`](Self::corrupt_block) at a chosen byte: a row
    /// group's block is verified a piece at a time (its header, then each
    /// chunk a read decodes), so where the damage sits decides which reads
    /// see it. An offset past the end appends a byte.
    pub fn corrupt_block_at(
        &self,
        path: &WhPath,
        block: usize,
        offset: usize,
    ) -> WarehouseResult<()> {
        self.mutate_block(path, block, |b| match b.compressed.get_mut(offset) {
            Some(byte) => *byte ^= 0xFF,
            None => b.compressed.push(0xFF),
        })
    }

    /// Fault hook: drops the tail half of one block's stored bytes and
    /// recomputes the checksum over what is left — a half-written file
    /// whose checksum was nonetheless persisted. Reads of a row block pass
    /// verification but fail to decompress, surfacing
    /// [`WarehouseError::Corrupt`]; a row group's checksum covers its header
    /// alone, so there the read fails verification instead.
    pub fn truncate_block(&self, path: &WhPath, block: usize) -> WarehouseResult<()> {
        self.mutate_block(path, block, |b| {
            let keep = b.compressed.len() / 2;
            b.compressed.truncate(keep);
            b.checksum = block_checksum(&b.compressed);
        })
    }

    fn mutate_block(
        &self,
        path: &WhPath,
        block: usize,
        f: impl FnOnce(&mut crate::file::Block),
    ) -> WarehouseResult<()> {
        let data = self.file_data(path)?;
        let mut copy = FileData::clone(&data);
        let b = copy
            .blocks
            .get_mut(block)
            .ok_or(WarehouseError::Corrupt("no such block to damage"))?;
        f(b);
        lock(&self.tree)
            .entries
            .insert(path.as_str().to_string(), Entry::File(Arc::new(copy)));
        self.cache.clear();
        Ok(())
    }

    /// Recursively deletes a directory and everything under it.
    pub fn delete_dir(&self, dir: &WhPath) -> WarehouseResult<()> {
        self.check_available()?;
        let mut tree = lock(&self.tree);
        if !tree.is_dir(dir) {
            return Err(WarehouseError::NotFound(dir.as_str().to_string()));
        }
        if dir.as_str() == "/" {
            tree.entries.clear();
            return Ok(());
        }
        let prefix = format!("{}/", dir.as_str());
        tree.entries
            .retain(|p, _| p != dir.as_str() && !p.starts_with(&prefix));
        Ok(())
    }

    /// Atomically renames a file or directory subtree. This is the primitive
    /// behind the log mover's "atomic slide": assemble under `/staging/...`,
    /// then rename into `/logs/...` so readers never observe a partial hour.
    pub fn rename(&self, src: &WhPath, dst: &WhPath) -> WarehouseResult<()> {
        self.check_available()?;
        if dst.starts_with(src) && dst != src {
            return Err(WarehouseError::BadPath(format!(
                "cannot rename {src} into its own subtree {dst}"
            )));
        }
        let mut tree = lock(&self.tree);
        if !tree.entries.contains_key(src.as_str()) {
            return Err(WarehouseError::NotFound(src.as_str().to_string()));
        }
        if tree.entries.contains_key(dst.as_str()) {
            return Err(WarehouseError::AlreadyExists(dst.as_str().to_string()));
        }
        if let Some(parent) = dst.parent() {
            tree.mkdirs(&parent)?;
        }
        // Collect the subtree, then reinsert under the new prefix.
        let src_prefix = format!("{}/", src.as_str());
        let moved: Vec<String> = tree
            .entries
            .keys()
            .filter(|p| *p == src.as_str() || p.starts_with(&src_prefix))
            .cloned()
            .collect();
        for old in moved {
            let entry = tree.entries.remove(&old).expect("key listed above");
            let new = format!("{}{}", dst.as_str(), &old[src.as_str().len()..]);
            tree.entries.insert(new, entry);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> WhPath {
        WhPath::parse(s).unwrap()
    }

    fn write_records(wh: &Warehouse, path: &str, n: usize) -> FileMeta {
        let mut w = wh.create(&p(path)).unwrap();
        for i in 0..n {
            w.append_record(format!("record-{i:06}").as_bytes());
        }
        w.finish().unwrap()
    }

    #[test]
    fn write_read_round_trip() {
        let wh = Warehouse::with_block_capacity(256);
        let meta = write_records(&wh, "/logs/ce/f1", 100);
        assert_eq!(meta.records, 100);
        assert!(meta.blocks > 1, "small blocks should force multiple blocks");
        let mut r = wh.open(&p("/logs/ce/f1")).unwrap();
        let mut n = 0;
        while let Some(rec) = r.next_record().unwrap() {
            assert_eq!(rec, format!("record-{n:06}").as_bytes());
            n += 1;
        }
        assert_eq!(n, 100);
    }

    #[test]
    fn stats_account_reads() {
        let wh = Warehouse::with_block_capacity(256);
        write_records(&wh, "/f", 50);
        wh.reset_stats();
        let r = wh.open(&p("/f")).unwrap();
        let all = r.read_all().unwrap();
        assert_eq!(all.len(), 50);
        let s = wh.stats();
        assert_eq!(s.files_opened, 1);
        assert_eq!(s.records_read, 50);
        assert!(s.blocks_read >= 1);
        assert!(s.uncompressed_bytes_read >= s.compressed_bytes_read / 4);
    }

    #[test]
    fn empty_file_reads_empty() {
        let wh = Warehouse::new();
        let w = wh.create(&p("/empty")).unwrap();
        let meta = w.finish().unwrap();
        assert_eq!(meta.records, 0);
        assert_eq!(meta.blocks, 0);
        let mut r = wh.open(&p("/empty")).unwrap();
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn create_is_invisible_until_finish() {
        let wh = Warehouse::new();
        let mut w = wh.create(&p("/f")).unwrap();
        w.append_record(b"x");
        assert!(!wh.exists(&p("/f")), "file must not be visible mid-write");
        w.finish().unwrap();
        assert!(wh.exists(&p("/f")));
    }

    #[test]
    fn duplicate_create_rejected() {
        let wh = Warehouse::new();
        write_records(&wh, "/f", 1);
        assert!(matches!(
            wh.create(&p("/f")),
            Err(WarehouseError::AlreadyExists(_))
        ));
    }

    #[test]
    fn list_and_recursive_listing() {
        let wh = Warehouse::new();
        write_records(&wh, "/logs/a/f1", 1);
        write_records(&wh, "/logs/a/f2", 1);
        write_records(&wh, "/logs/b/g", 1);
        let top = wh.list(&p("/logs")).unwrap();
        assert_eq!(top, vec![("a".to_string(), true), ("b".to_string(), true)]);
        let files = wh.list_files_recursive(&p("/logs")).unwrap();
        let names: Vec<&str> = files.iter().map(|f| f.as_str()).collect();
        assert_eq!(names, vec!["/logs/a/f1", "/logs/a/f2", "/logs/b/g"]);
    }

    #[test]
    fn rename_moves_subtree_atomically() {
        let wh = Warehouse::new();
        write_records(&wh, "/staging/ce/2012/08/21/14/part-0", 10);
        wh.rename(
            &p("/staging/ce/2012/08/21/14"),
            &p("/logs/ce/2012/08/21/14"),
        )
        .unwrap();
        assert!(!wh.exists(&p("/staging/ce/2012/08/21/14/part-0")));
        let r = wh.open(&p("/logs/ce/2012/08/21/14/part-0")).unwrap();
        assert_eq!(r.read_all().unwrap().len(), 10);
    }

    #[test]
    fn rename_refuses_existing_destination_and_cycles() {
        let wh = Warehouse::new();
        write_records(&wh, "/a/f", 1);
        write_records(&wh, "/b/f", 1);
        assert!(matches!(
            wh.rename(&p("/a"), &p("/b")),
            Err(WarehouseError::AlreadyExists(_))
        ));
        assert!(matches!(
            wh.rename(&p("/a"), &p("/a/inside")),
            Err(WarehouseError::BadPath(_))
        ));
        assert!(matches!(
            wh.rename(&p("/missing"), &p("/c")),
            Err(WarehouseError::NotFound(_))
        ));
    }

    #[test]
    fn outage_blocks_writes_but_not_reads() {
        let wh = Warehouse::new();
        write_records(&wh, "/f", 5);
        wh.set_available(false);
        assert!(matches!(
            wh.create(&p("/g")),
            Err(WarehouseError::Unavailable)
        ));
        assert!(matches!(
            wh.rename(&p("/f"), &p("/h")),
            Err(WarehouseError::Unavailable)
        ));
        // Reads still work (NameNode metadata served from cache, so to speak).
        assert_eq!(wh.open(&p("/f")).unwrap().read_all().unwrap().len(), 5);
        wh.set_available(true);
        write_records(&wh, "/g", 1);
    }

    #[test]
    fn outage_during_finish_fails_install() {
        let wh = Warehouse::new();
        let mut w = wh.create(&p("/f")).unwrap();
        w.append_record(b"x");
        wh.set_available(false);
        assert!(matches!(w.finish(), Err(WarehouseError::Unavailable)));
        assert!(!wh.exists(&p("/f")));
    }

    #[test]
    fn delete_file_and_dir() {
        let wh = Warehouse::new();
        write_records(&wh, "/d/f1", 1);
        write_records(&wh, "/d/sub/f2", 1);
        wh.delete_file(&p("/d/f1")).unwrap();
        assert!(!wh.exists(&p("/d/f1")));
        wh.delete_dir(&p("/d")).unwrap();
        assert!(!wh.exists(&p("/d")));
        assert!(matches!(
            wh.delete_file(&p("/d/sub/f2")),
            Err(WarehouseError::NotFound(_))
        ));
    }

    #[test]
    fn dir_meta_sums_files() {
        let wh = Warehouse::with_block_capacity(128);
        write_records(&wh, "/d/f1", 20);
        write_records(&wh, "/d/f2", 30);
        let m = wh.dir_meta(&p("/d")).unwrap();
        assert_eq!(m.records, 50);
        assert!(m.blocks >= 2);
        assert!(m.compressed_bytes > 0);
    }

    #[test]
    fn repeated_reads_hit_the_block_cache() {
        let wh = Warehouse::with_block_capacity(256);
        write_records(&wh, "/f", 100);
        let cold = wh.open(&p("/f")).unwrap().read_all().unwrap();
        let s1 = wh.stats();
        assert_eq!(s1.cache_hits, 0, "first read is all misses");
        assert_eq!(s1.cache_misses, s1.blocks_read);
        wh.reset_stats();
        let warm = wh.open(&p("/f")).unwrap().read_all().unwrap();
        assert_eq!(cold, warm, "cached reads must be byte-identical");
        let s2 = wh.stats();
        assert_eq!(s2.cache_hits, s2.blocks_read, "second read is all hits");
        assert_eq!(s2.compressed_bytes_read, 0, "hits cost no disk bytes");
        assert_eq!(s2.uncompressed_bytes_read, s1.uncompressed_bytes_read);
        assert_eq!(s2.records_read, 100);
        assert!(wh.cache_stats().hit_rate() > 0.0);
    }

    #[test]
    fn zero_capacity_cache_restores_old_accounting() {
        let wh = Warehouse::with_config(256, 0);
        write_records(&wh, "/f", 100);
        let first = {
            wh.reset_stats();
            wh.open(&p("/f")).unwrap().read_all().unwrap();
            wh.stats()
        };
        wh.reset_stats();
        wh.open(&p("/f")).unwrap().read_all().unwrap();
        let second = wh.stats();
        assert_eq!(second.cache_hits, 0);
        assert_eq!(second.compressed_bytes_read, first.compressed_bytes_read);
    }

    #[test]
    fn clear_cache_forces_cold_reads() {
        let wh = Warehouse::with_block_capacity(256);
        write_records(&wh, "/f", 50);
        wh.open(&p("/f")).unwrap().read_all().unwrap();
        wh.clear_cache();
        wh.reset_stats();
        wh.open(&p("/f")).unwrap().read_all().unwrap();
        assert_eq!(wh.stats().cache_hits, 0);
    }

    #[test]
    fn file_blocks_matches_streaming_reader() {
        let wh = Warehouse::with_block_capacity(256);
        write_records(&wh, "/f", 100);
        let streamed = wh.open(&p("/f")).unwrap().read_all().unwrap();
        let wh2 = Warehouse::with_block_capacity(256);
        write_records(&wh2, "/f", 100);
        let fb = wh2.open_blocks(&p("/f")).unwrap();
        let mut via_blocks = Vec::new();
        for idx in 0..fb.block_count() {
            let recs = fb.read_block(idx).unwrap();
            assert_eq!(recs.len() as u64, fb.block_records(idx));
            via_blocks.extend(recs);
        }
        assert_eq!(streamed, via_blocks);
        let local = fb.local_stats();
        assert_eq!(local.files_opened, 1);
        assert_eq!(local.records_read, 100);
        assert_eq!(local.blocks_read as usize, fb.block_count());
        // Handle-local and global counters agree when nothing else scans.
        assert_eq!(local.records_read, wh2.stats().records_read);
    }

    #[test]
    fn file_blocks_skip_and_errors() {
        let wh = Warehouse::with_block_capacity(128);
        write_records(&wh, "/f", 100);
        let fb = wh.open_blocks(&p("/f")).unwrap();
        assert!(fb.block_count() >= 4);
        wh.reset_stats();
        fb.read_block(0).unwrap();
        for idx in 1..fb.block_count() {
            fb.skip_block(idx);
        }
        let s = wh.stats();
        assert_eq!(s.blocks_read, 1);
        assert_eq!(s.blocks_skipped as usize, fb.block_count() - 1);
        assert!(fb.read_block(fb.block_count()).is_err(), "out of range");
        assert!(matches!(
            wh.open_blocks(&p("/missing")),
            Err(WarehouseError::NotFound(_))
        ));
    }

    #[test]
    fn annotated_writes_produce_zone_maps() {
        use crate::zone::{tag_hash, ZoneMapPruner};
        let wh = Warehouse::with_block_capacity(128);
        let mut w = wh.create(&p("/f")).unwrap();
        for i in 0..100i64 {
            let tag = if i % 2 == 0 { b"even".as_ref() } else { b"odd" };
            w.append_record_annotated(format!("record-{i:06}").as_bytes(), 1000 + i, tag_hash(tag));
        }
        let meta = w.finish().unwrap();
        assert!(meta.blocks >= 4);
        let fb = wh.open_blocks(&p("/f")).unwrap();
        let mut covered = 0u64;
        let mut prev_max = i64::MIN;
        for idx in 0..fb.block_count() {
            let z = fb.zone_map(idx).expect("every block fully annotated");
            assert_eq!(z.records, fb.block_records(idx));
            assert!(z.min_key >= 1000 && z.max_key <= 1099);
            assert!(z.min_key > prev_max, "keys written in order");
            prev_max = z.max_key;
            assert!(z.may_contain_tag(tag_hash(b"even")));
            covered += z.records;
        }
        assert_eq!(covered, 100);
        // A pruner over a disjoint key range skips every block.
        let pruner = ZoneMapPruner {
            min_key: Some(5000),
            ..Default::default()
        };
        assert!((0..fb.block_count()).all(|i| !pruner.keep(fb.zone_map(i).as_ref())));
    }

    #[test]
    fn mixed_appends_leave_block_unmapped() {
        let wh = Warehouse::with_block_capacity(1 << 20);
        let mut w = wh.create(&p("/f")).unwrap();
        w.append_record_annotated(b"a", 1, 2);
        w.append_record(b"b"); // plain append poisons the pending zone
        w.finish().unwrap();
        let fb = wh.open_blocks(&p("/f")).unwrap();
        assert_eq!(fb.block_count(), 1);
        assert!(fb.zone_map(0).is_none(), "partial annotation → no zone map");
    }

    #[test]
    fn pruned_block_in_cache_counts_skip_not_hit() {
        // Regression: a block that the pruner skips must count once as
        // blocks_skipped and never as a cache hit, even when a previous scan
        // left its payload in the block cache.
        let wh = Warehouse::with_block_capacity(128);
        write_records(&wh, "/f", 100);
        let fb = wh.open_blocks(&p("/f")).unwrap();
        assert!(fb.block_count() >= 2);
        for idx in 0..fb.block_count() {
            fb.read_block(idx).unwrap(); // warm the cache
        }
        wh.reset_stats();
        let fb2 = wh.open_blocks(&p("/f")).unwrap();
        fb2.skip_block(0); // pruned despite being cached
        fb2.read_block(1).unwrap();
        let s = wh.stats();
        assert_eq!(s.blocks_skipped, 1, "skip counted exactly once");
        assert_eq!(s.cache_hits, 1, "only the genuinely read block hits");
        assert_eq!(s.blocks_read, 1);
        assert_eq!(s.compressed_bytes_read, 0);
        let local = fb2.local_stats();
        assert_eq!(local.blocks_skipped, 1);
        assert_eq!(local.cache_hits, 1);
    }

    #[test]
    fn streaming_seal_matches_one_shot_compression() {
        // The tentpole byte-identity claim at the file layer: blocks sealed
        // by the incremental compressor must equal buffer-then-compress.
        let wh = Warehouse::with_block_capacity(256);
        let records: Vec<Vec<u8>> = (0..100)
            .map(|i| format!("record-{i:06}").into_bytes())
            .collect();
        let mut w = wh.create(&p("/f")).unwrap();
        for r in &records {
            w.append_record(r);
        }
        w.finish().unwrap();
        // Replay the framing through the old path: buffer varint-prefixed
        // records, compress whole blocks in one shot at the same threshold.
        let mut pending: Vec<u8> = Vec::new();
        let mut expected: Vec<Vec<u8>> = Vec::new();
        for r in &records {
            assert!(r.len() < 128, "single-byte varint assumed below");
            pending.push(r.len() as u8);
            pending.extend_from_slice(r);
            if pending.len() >= 256 {
                expected.push(crate::compress::compress(&pending));
                pending.clear();
            }
        }
        if !pending.is_empty() {
            expected.push(crate::compress::compress(&pending));
        }
        let data = wh.file_data(&p("/f")).unwrap();
        let got: Vec<Vec<u8>> = data.blocks.iter().map(|b| b.compressed.clone()).collect();
        assert_eq!(got, expected, "streamed blocks diverged from one-shot");
    }

    #[test]
    fn visitor_read_path_charges_no_alloc_bytes() {
        // Regression for the eager-path allocation churn: read_block pays
        // alloc_bytes for every copied record; for_each_record pays none.
        let wh = Warehouse::with_block_capacity(256);
        write_records(&wh, "/f", 100);
        let fb = wh.open_blocks(&p("/f")).unwrap();
        wh.reset_stats();
        let mut eager: Vec<Vec<u8>> = Vec::new();
        for idx in 0..fb.block_count() {
            eager.extend(fb.read_block(idx).unwrap());
        }
        let payload: u64 = eager.iter().map(|r| r.len() as u64).sum();
        assert!(payload > 0);
        assert_eq!(
            wh.stats().alloc_bytes,
            payload,
            "eager path must charge every copied byte"
        );
        wh.reset_stats();
        let mut i = 0usize;
        for idx in 0..fb.block_count() {
            fb.for_each_record(idx, |rec| {
                assert_eq!(rec, eager[i].as_slice(), "visitor must see the same bytes");
                i += 1;
            })
            .unwrap();
        }
        assert_eq!(i, 100);
        let s = wh.stats();
        assert_eq!(s.alloc_bytes, 0, "borrowing visitor must charge no allocs");
        assert_eq!(s.records_read, 100);
        // read_all charges too (the streaming reader copies per record).
        wh.reset_stats();
        wh.open(&p("/f")).unwrap().read_all().unwrap();
        assert_eq!(wh.stats().alloc_bytes, payload);
    }

    #[test]
    fn open_missing_or_dir_errors() {
        let wh = Warehouse::new();
        wh.mkdirs(&p("/d")).unwrap();
        assert!(matches!(
            wh.open(&p("/nope")),
            Err(WarehouseError::NotFound(_))
        ));
        assert!(matches!(
            wh.open(&p("/d")),
            Err(WarehouseError::NotAFile(_))
        ));
    }

    #[test]
    fn mkdirs_conflicts_with_file() {
        let wh = Warehouse::new();
        write_records(&wh, "/x", 1);
        assert!(matches!(
            wh.mkdirs(&p("/x/y")),
            Err(WarehouseError::NotADirectory(_))
        ));
    }
}
