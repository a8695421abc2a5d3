//! The log mover pipeline.
//!
//! "Another process is responsible for moving these logs from the
//! per-datacenter staging clusters into the main Hadoop data warehouse. It
//! applies certain sanity checks and transformations, such as merging many
//! small files into a few big ones … it ensures that by the time logs are
//! made available in the main data warehouse, all datacenters that produce a
//! given log category have transferred their logs. Once all of this is done,
//! the log mover pipeline atomically slides an hour's worth of logs into the
//! main data warehouse." (§2)
//!
//! ## Parallel pipelined delivery
//!
//! The hot path of a move is staged in three phases so the heavy work
//! shards across a [`ScanPool`] while every exactly-once guarantee keeps a
//! single serialization point:
//!
//! 1. **Decode** (parallel): each staged file is read, sanity-checked and
//!    envelope-decoded independently — pure per-file work with no shared
//!    state, mapped over the pool in input order.
//! 2. **Merge** (serial): decoded files are walked in the exact datacenter
//!    → file → record order the serial mover used, deduping against the
//!    seen set. This stage is the determinism anchor: it alone decides
//!    which records land, their order, and the `moved_ids` sequence, so
//!    the result is byte-identical at any worker count.
//! 3. **Land** (parallel): the accepted record sequence is cut into
//!    `records_per_file` chunks; each chunk's encode + block compression is
//!    an independent pool task writing `part-{chunk:05}`. File bytes are a
//!    pure function of chunk contents, and the warehouse tree is keyed by
//!    path, so install order cannot leak into the landed hour. Workers
//!    draw reusable [`Compressor`](uli_warehouse::compress::Compressor)s
//!    from the warehouse's shared pool, so compression of one chunk
//!    overlaps encode of the next without re-paying allocation.
//!
//! The **commit** — atomic slide, seen-set extend + compaction, tap
//! dispatch — stays serial and runs only after every chunk landed, so taps
//! fire exactly once per successful slide, in payload order, same as serial.
//!
//! ## Staging keeps an hour, not a day
//!
//! Once the slide commits, the landed hour is what every reader and every
//! rebuild reads; nothing reads the staged copy again. So after the commit
//! the mover deletes the hour's directory on every staging cluster — it
//! *moves* the hour, as §2 says, rather than copying it. The delete is
//! best-effort: a staging cluster that is down keeps its files, and since the
//! hour is already in the main warehouse, a later move of it is refused as
//! [`MoveError::AlreadyMoved`] before any staged file is read. A move that
//! fails before the commit deletes nothing, so its retry reads every staged
//! file again.

use std::collections::HashSet;
use std::sync::Arc;

use uli_obs::{Mirror, Reading};
use uli_warehouse::{
    ColumnarLanding, HourlyPartition, Parallelism, ScanPool, Warehouse, WarehouseError,
    WarehouseResult, WhPath,
};

use crate::message::EntryId;
use crate::seen::SeenSet;
use crate::staged;
use crate::tap::DeliveryTap;

/// Marker file an aggregator cluster writes once its hour is complete.
pub const DONE_MARKER: &str = "_DONE";

/// Result of moving one category-hour into the main warehouse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoveReport {
    /// The partition that was moved.
    pub partition: HourlyPartition,
    /// Small files read from all staging clusters.
    pub input_files: u64,
    /// Staging files rejected whole by sanity checks (unreadable: corrupt
    /// or truncated blocks). Rejection never poisons the slide.
    pub rejected_files: u64,
    /// Large files written into the main warehouse.
    pub output_files: u64,
    /// Records moved.
    pub records: u64,
    /// Records dropped by sanity checks (empty messages, bad envelopes).
    pub dropped: u64,
    /// Stamped records skipped because their id was already moved — the
    /// re-delivery duplicates the merge squashes.
    pub duplicates: u64,
    /// Delivery ids of the stamped records this move made visible.
    pub moved_ids: Vec<EntryId>,
    /// Uncompressed staged bytes the decode stage read (accepted files
    /// only). Deterministic — the cost-model input for the parallel decode
    /// stage.
    pub decode_bytes: u64,
    /// Payload bytes handed to the landing stage (encode + compression
    /// input). Deterministic — the cost-model input for the parallel land
    /// stage.
    pub encode_bytes: u64,
}

/// Errors specific to the mover's readiness protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MoveError {
    /// A datacenter has not sealed this hour yet.
    NotReady {
        /// Name of the lagging datacenter.
        dc: String,
    },
    /// The hour already exists in the main warehouse.
    AlreadyMoved,
    /// An underlying warehouse failure.
    Warehouse(WarehouseError),
}

impl std::fmt::Display for MoveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MoveError::NotReady { dc } => write!(f, "datacenter {dc} has not sealed the hour"),
            MoveError::AlreadyMoved => write!(f, "hour already present in main warehouse"),
            MoveError::Warehouse(e) => write!(f, "warehouse error: {e}"),
        }
    }
}

impl std::error::Error for MoveError {}

impl From<WarehouseError> for MoveError {
    fn from(e: WarehouseError) -> Self {
        MoveError::Warehouse(e)
    }
}

/// Seals a category-hour on one staging cluster by writing the done marker.
/// Called by the datacenter's flush driver once its aggregators have flushed
/// everything for the hour.
pub fn seal_hour(staging: &Warehouse, partition: &HourlyPartition) -> WarehouseResult<()> {
    let dir = partition.main_dir();
    staging.mkdirs(&dir)?;
    let marker = dir.child(DONE_MARKER).expect("valid marker name");
    staging.create(&marker)?.finish()?;
    Ok(())
}

/// Every successful move so far, summed: what `delivery/*` reports.
#[derive(Default)]
struct MoveTotals {
    hours: u64,
    records: u64,
    duplicates: u64,
    rejected_files: u64,
    dropped: u64,
    output_files: u64,
    decode_bytes: u64,
    encode_bytes: u64,
}

impl MoveTotals {
    fn add(&mut self, report: &MoveReport) {
        self.hours += 1;
        self.records += report.records;
        self.duplicates += report.duplicates;
        self.rejected_files += report.rejected_files;
        self.dropped += report.dropped;
        self.output_files += report.output_files;
        self.decode_bytes += report.decode_bytes;
        self.encode_bytes += report.encode_bytes;
    }
}

/// One staged file after the parallel decode stage.
enum DecodedFile {
    /// Sanity checks rejected the whole file (corrupt/truncated block).
    Rejected,
    /// The file decoded; records carry their envelope id (if stamped).
    Decoded {
        /// Records dropped inside this file (bad envelopes, empty payloads).
        dropped: u64,
        /// Uncompressed record bytes read from this file.
        bytes: u64,
        /// Surviving `(id, payload)` pairs, in file order.
        records: Vec<(Option<EntryId>, Vec<u8>)>,
    },
}

/// The mover: merges sealed staging hours into the main warehouse.
///
/// The mover is idempotent under re-delivery: it remembers the delivery
/// ids of every stamped record it has moved (across hours, compacted to
/// per-host watermarks — see [`SeenSet`]) and squashes duplicates during
/// the merge, and a whole hour that is already present is refused with
/// [`MoveError::AlreadyMoved`]. Envelopes are stripped — only bare
/// payloads reach the main warehouse.
pub struct LogMover {
    main: Warehouse,
    /// Target number of records per merged output file.
    records_per_file: u64,
    /// Delivery ids already made visible in the main warehouse.
    seen: SeenSet,
    /// Columnar landing codec, when the category lands columnar. `None`
    /// keeps the original row-format landing.
    landing: Option<Arc<dyn ColumnarLanding>>,
    /// Delivery taps, notified once per successful slide with the records
    /// it made visible.
    taps: Vec<Box<dyn DeliveryTap>>,
    /// Worker count for the decode and land stages. Serial by default;
    /// every worker count lands byte-identical hours.
    workers: Parallelism,
    /// Every successful move, summed.
    totals: MoveTotals,
    /// The registry view of the totals and the seen set, when attached;
    /// it also opens the `delivery/{decode,merge,land}` spans.
    obs: Option<Mirror>,
}

impl LogMover {
    /// Creates a mover targeting `main`, merging into files of
    /// `records_per_file` records.
    pub fn new(main: Warehouse, records_per_file: u64) -> Self {
        assert!(records_per_file > 0);
        LogMover {
            main,
            records_per_file,
            seen: SeenSet::new(),
            landing: None,
            taps: Vec::new(),
            workers: Parallelism::serial(),
            totals: MoveTotals::default(),
            obs: None,
        }
    }

    /// Shards the decode and land stages across `workers`. The merge and
    /// commit stay serial, so output is byte-identical at any setting.
    pub fn with_parallelism(mut self, workers: Parallelism) -> Self {
        self.workers = workers;
        self
    }

    /// The configured delivery parallelism.
    pub fn parallelism(&self) -> Parallelism {
        self.workers
    }

    /// Registers `delivery/*` counters and gauges in `registry` and opens
    /// `delivery/{decode,merge,land}` spans around every subsequent move.
    pub fn attach_obs(&mut self, registry: &uli_obs::Registry) {
        self.obs = Some(Mirror::attach(registry, "delivery", &self.metrics()));
    }

    /// The `delivery/*` metrics, in snapshot order.
    fn metrics(&self) -> [(&'static str, Reading); 10] {
        let t = &self.totals;
        [
            ("hours_moved", Reading::Total(t.hours)),
            ("records_moved", Reading::Total(t.records)),
            ("duplicates_squashed", Reading::Total(t.duplicates)),
            ("files_rejected", Reading::Total(t.rejected_files)),
            ("records_dropped", Reading::Total(t.dropped)),
            ("output_files", Reading::Total(t.output_files)),
            ("decode_bytes", Reading::Total(t.decode_bytes)),
            ("encode_bytes", Reading::Total(t.encode_bytes)),
            (
                "seen_residual_ids",
                Reading::level(self.seen.residual_len()),
            ),
            (
                "seen_watermark_hosts",
                Reading::level(self.seen.watermarked_hosts()),
            ),
        ]
    }

    fn span(&self, name: &str) -> Option<uli_obs::SpanGuard> {
        self.obs
            .as_ref()
            .map(|o| o.registry().span("delivery", name))
    }

    /// The committed seen set: every stamped id a successful slide made
    /// visible, and nothing else — the record of what was delivered.
    pub fn seen(&self) -> &SeenSet {
        &self.seen
    }

    /// Attaches a delivery tap. Taps observe every record a successful
    /// slide makes visible — nothing on failed or retried moves — so a
    /// tap's totals track the delivered partition exactly.
    pub fn add_tap(&mut self, tap: Box<dyn DeliveryTap>) {
        self.taps.push(tap);
    }

    /// Lands merged hours columnar through `landing` instead of row-format.
    /// Payloads the codec rejects go to a row-format `…-rows` sibling file,
    /// so the slide still moves every sane record. Row landings stay
    /// readable forever — readers sniff the layout per file — so switching
    /// landings mid-history needs no migration.
    pub fn set_landing(&mut self, landing: Arc<dyn ColumnarLanding>) {
        self.landing = Some(landing);
    }

    /// Moves one category-hour from every staging cluster into the main
    /// warehouse, atomically.
    ///
    /// `staging` lists `(datacenter name, staging warehouse)` for every
    /// datacenter that produces this category. All of them must have sealed
    /// the hour (via [`seal_hour`]); otherwise [`MoveError::NotReady`].
    pub fn move_hour(
        &mut self,
        partition: &HourlyPartition,
        staging: &[(&str, &Warehouse)],
    ) -> Result<MoveReport, MoveError> {
        let final_dir = partition.main_dir();
        if self.main.exists(&final_dir) {
            return Err(MoveError::AlreadyMoved);
        }
        let src_dir = partition.main_dir();
        // Readiness: every datacenter must have the done marker.
        for (dc, wh) in staging {
            let marker = src_dir.child(DONE_MARKER).expect("valid marker");
            if !wh.exists(&marker) {
                return Err(MoveError::NotReady { dc: dc.to_string() });
            }
        }

        // Assemble the merged hour under /staging in the main warehouse.
        let assembly_dir = partition.staging_dir();
        if self.main.exists(&assembly_dir) {
            // A previous failed attempt left debris; restart cleanly.
            self.main.delete_dir(&assembly_dir)?;
        }
        self.main.mkdirs(&assembly_dir)?;

        let mut report = MoveReport {
            partition: partition.clone(),
            input_files: 0,
            rejected_files: 0,
            output_files: 0,
            records: 0,
            dropped: 0,
            duplicates: 0,
            moved_ids: Vec::new(),
            decode_bytes: 0,
            encode_bytes: 0,
        };
        let pool = ScanPool::new(self.workers);

        // Stage 1 — decode (parallel). Gather the staged files in the
        // canonical datacenter → sorted-file order, then decode each one
        // independently: pure per-file work, results re-sequenced to input
        // order by the pool.
        let mut inputs: Vec<(&Warehouse, WhPath)> = Vec::new();
        for (_dc, wh) in staging {
            let files = match wh.list_files_recursive(&src_dir) {
                Ok(f) => f,
                Err(WarehouseError::NotFound(_)) => continue,
                Err(e) => return Err(e.into()),
            };
            for file in files {
                if file.name() == DONE_MARKER {
                    continue;
                }
                inputs.push((wh, file));
            }
        }
        let decode_span = self.span("decode");
        let decoded: Vec<Result<DecodedFile, WarehouseError>> =
            pool.map(inputs, |_i, (wh, file)| decode_staged_file(wh, &file));
        drop(decode_span);
        // A fatal (non-sanity) failure surfaces exactly as in the serial
        // mover: the first one in input order wins.
        for d in &decoded {
            if let Err(e) = d {
                return Err(e.clone().into());
            }
        }

        // Stage 2 — merge (serial). The determinism anchor: walks decoded
        // files in input order, applying the exact serial dedup, so the
        // accepted payload sequence, `moved_ids`, and every counter are
        // independent of worker count.
        //
        // `fresh` holds ids first seen during this move; it reaches
        // `self.seen` only once the slide succeeds, so a failed attempt
        // retries without its records counting as duplicates.
        let merge_span = self.span("merge");
        let mut fresh: HashSet<EntryId> = HashSet::new();
        let mut accepted: Vec<Vec<u8>> = Vec::new();
        for file in decoded {
            match file.expect("fatal errors surfaced above") {
                DecodedFile::Rejected => report.rejected_files += 1,
                DecodedFile::Decoded {
                    dropped,
                    bytes,
                    records,
                } => {
                    report.input_files += 1;
                    report.dropped += dropped;
                    report.decode_bytes += bytes;
                    for (id, payload) in records {
                        if let Some(id) = id {
                            if self.seen.contains(&id) || !fresh.insert(id) {
                                report.duplicates += 1;
                                continue;
                            }
                            report.moved_ids.push(id);
                        }
                        report.encode_bytes += payload.len() as u64;
                        accepted.push(payload);
                    }
                }
            }
        }
        report.records = accepted.len() as u64;
        drop(merge_span);

        // Stage 3 — land (parallel). The accepted sequence is cut into
        // `records_per_file` chunks; chunk `i` always becomes
        // `part-{i:05}` with exactly those payloads, so the landed bytes
        // are a pure function of the merge output. Workers reuse pooled
        // compressors via the warehouse, overlapping one chunk's block
        // compression with the next chunk's encode.
        let rpf = self.records_per_file as usize;
        let n_chunks = accepted.len().div_ceil(rpf);
        let chunks: Vec<(u64, std::ops::Range<usize>)> = (0..n_chunks)
            .map(|i| (i as u64, i * rpf..((i + 1) * rpf).min(accepted.len())))
            .collect();
        let land_span = self.span("land");
        let landed: Vec<Result<u64, MoveError>> = pool.map(chunks, |_i, (idx, range)| {
            land_chunk(
                &self.main,
                self.landing.as_deref(),
                &assembly_dir,
                idx,
                &accepted[range],
            )
        });
        drop(land_span);
        for files in landed {
            report.output_files += files?;
        }

        // Commit — the single serialization point. One rename makes the
        // whole hour visible; only then do the fresh ids commit (and the
        // seen set compact to watermarks) and the taps fire, in payload
        // order, exactly once.
        if let Some(parent) = final_dir.parent() {
            self.main.mkdirs(&parent)?;
        }
        self.main.rename(&assembly_dir, &final_dir)?;
        self.seen.extend(fresh);
        self.seen.compact();
        // The slide succeeded: the taps now see exactly what batch readers
        // of this hour will see.
        for tap in &mut self.taps {
            tap.hour_delivered(partition, &accepted);
        }
        self.totals.add(&report);
        if let Some(obs) = &self.obs {
            obs.update(&self.metrics());
        }
        for (_dc, wh) in staging {
            // Best-effort: what a staging outage keeps is never read again.
            let _ = wh.delete_dir(&src_dir);
        }
        Ok(report)
    }

    /// The main warehouse this mover writes into.
    pub fn main(&self) -> &Warehouse {
        &self.main
    }
}

/// Decode-stage worker: reads one staged file whole, applies the sanity
/// checks, and strips envelopes; each surviving payload is copied once,
/// straight out of its decompressed block. Corrupt or truncated blocks
/// reject the file without poisoning the slide; any other failure is fatal.
fn decode_staged_file(wh: &Warehouse, file: &WhPath) -> Result<DecodedFile, WarehouseError> {
    // A framed file announces itself with its first record.
    let mut framed = None;
    let mut dropped = 0u64;
    let mut bytes = 0u64;
    let mut records = Vec::new();
    let visit = wh.open_blocks(file).and_then(|blocks| {
        (0..blocks.block_count()).try_for_each(|block| {
            blocks.for_each_record(block, |record| {
                if framed.is_none() {
                    framed = Some(record == staged::MAGIC);
                    if framed == Some(true) {
                        return;
                    }
                }
                bytes += record.len() as u64;
                let decoded = match framed {
                    Some(true) => staged::decode(record),
                    _ => Some((None, record)),
                };
                match decoded {
                    // Sanity check: drop bad envelopes and empty messages.
                    Some((id, payload)) if !payload.is_empty() => {
                        records.push((id, payload.to_vec()))
                    }
                    _ => dropped += 1,
                }
            })
        })
    });
    match visit {
        Ok(()) => Ok(DecodedFile::Decoded {
            dropped,
            bytes,
            records,
        }),
        Err(WarehouseError::ChecksumMismatch { .. }) | Err(WarehouseError::Corrupt(_)) => {
            Ok(DecodedFile::Rejected)
        }
        Err(e) => Err(e),
    }
}

/// Land-stage worker: writes one chunk of the accepted sequence as
/// `part-{idx:05}` (plus a row-format `-rows` sibling for payloads a
/// columnar codec rejects). Returns the number of files written.
fn land_chunk(
    main: &Warehouse,
    landing: Option<&dyn ColumnarLanding>,
    assembly_dir: &WhPath,
    idx: u64,
    payloads: &[Vec<u8>],
) -> Result<u64, MoveError> {
    match landing {
        Some(landing) => flush_columnar(main, landing, assembly_dir, idx, payloads),
        None => {
            let path = assembly_dir
                .child(&format!("part-{idx:05}"))
                .expect("valid part name");
            let mut w = main.create(&path)?;
            for p in payloads {
                w.append_record(p);
            }
            w.finish()?;
            Ok(1)
        }
    }
}

/// Lands one output chunk columnar: the codec writes what it can decode to
/// `part-NNNNN`; rejected payloads go whole to a row-format
/// `part-NNNNN-rows` sibling. Returns the number of files written.
fn flush_columnar(
    main: &Warehouse,
    landing: &dyn ColumnarLanding,
    assembly_dir: &WhPath,
    idx: u64,
    chunk: &[Vec<u8>],
) -> Result<u64, MoveError> {
    let path = assembly_dir
        .child(&format!("part-{idx:05}"))
        .expect("valid part name");
    let rejected = landing.write_file(main, &path, chunk)?;
    let mut files = 1;
    if !rejected.is_empty() {
        let fallback = assembly_dir
            .child(&format!("part-{idx:05}-rows"))
            .expect("valid part name");
        let mut w = main.create(&fallback)?;
        for &i in &rejected {
            w.append_record(&chunk[i]);
        }
        w.finish()?;
        files += 1;
    }
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn staging_with(partition: &HourlyPartition, records: &[&[u8]]) -> Warehouse {
        let wh = Warehouse::new();
        let dir = partition.main_dir();
        let file = dir.child("agg-0-0").unwrap();
        let mut w = wh.create(&file).unwrap();
        for r in records {
            w.append_record(r);
        }
        w.finish().unwrap();
        wh
    }

    fn part() -> HourlyPartition {
        HourlyPartition::new("client_events", 2012, 8, 21, 14).unwrap()
    }

    /// Writes a framed staging file the way an aggregator would.
    fn framed_staging_with(
        partition: &HourlyPartition,
        file_name: &str,
        records: &[(Option<EntryId>, &[u8])],
    ) -> Warehouse {
        let wh = Warehouse::new();
        write_framed(&wh, partition, file_name, records);
        wh
    }

    fn write_framed(
        wh: &Warehouse,
        partition: &HourlyPartition,
        file_name: &str,
        records: &[(Option<EntryId>, &[u8])],
    ) {
        let file = partition.main_dir().child(file_name).unwrap();
        let mut w = wh.create(&file).unwrap();
        w.append_record(staged::MAGIC);
        for (id, payload) in records {
            w.append_record(&staged::encode(*id, payload));
        }
        w.finish().unwrap();
    }

    fn id(host: u64, seq: u64) -> EntryId {
        EntryId { host, seq }
    }

    #[test]
    fn refuses_until_all_dcs_sealed() {
        let p = part();
        let dc1 = staging_with(&p, &[b"a"]);
        let dc2 = staging_with(&p, &[b"b"]);
        seal_hour(&dc1, &p).unwrap();
        let mut mover = LogMover::new(Warehouse::new(), 1000);
        let err = mover
            .move_hour(&p, &[("dc1", &dc1), ("dc2", &dc2)])
            .unwrap_err();
        assert_eq!(err, MoveError::NotReady { dc: "dc2".into() });

        seal_hour(&dc2, &p).unwrap();
        let report = mover
            .move_hour(&p, &[("dc1", &dc1), ("dc2", &dc2)])
            .unwrap();
        assert_eq!(report.records, 2);
        assert_eq!(report.input_files, 2);
    }

    #[test]
    fn staging_keeps_an_hour_until_it_is_moved() {
        let p = part();
        let dc1 = staging_with(&p, &[b"a"]);
        let dc2 = staging_with(&p, &[b"b"]);
        seal_hour(&dc1, &p).unwrap();
        let staging = [("dc1", &dc1), ("dc2", &dc2)];
        let mut mover = LogMover::new(Warehouse::new(), 1000);
        assert!(mover.move_hour(&p, &staging).is_err());
        for wh in [&dc1, &dc2] {
            assert!(wh.exists(&p.main_dir()), "a refused move deletes nothing");
        }
        seal_hour(&dc2, &p).unwrap();
        mover.move_hour(&p, &staging).unwrap();
        for wh in [&dc1, &dc2] {
            assert!(!wh.exists(&p.main_dir()), "a moved hour leaves staging");
        }
        assert_eq!(
            mover.move_hour(&p, &staging).unwrap_err(),
            MoveError::AlreadyMoved
        );
    }

    #[test]
    fn merges_small_files_into_big_ones() {
        let p = part();
        let wh = Warehouse::new();
        let dir = p.main_dir();
        // Ten small files of 10 records each.
        for f in 0..10 {
            let file = dir.child(&format!("agg-{f}")).unwrap();
            let mut w = wh.create(&file).unwrap();
            for r in 0..10 {
                w.append_record(format!("r{f}-{r}").as_bytes());
            }
            w.finish().unwrap();
        }
        seal_hour(&wh, &p).unwrap();
        let mut mover = LogMover::new(Warehouse::new(), 60);
        let report = mover.move_hour(&p, &[("dc1", &wh)]).unwrap();
        assert_eq!(report.input_files, 10);
        assert_eq!(report.records, 100);
        assert_eq!(report.output_files, 2, "100 records at 60/file → 2 files");
        let files = mover.main().list_files_recursive(&p.main_dir()).unwrap();
        assert_eq!(files.len(), 2);
    }

    #[test]
    fn slide_is_atomic_nothing_under_logs_until_done() {
        let p = part();
        let dc1 = staging_with(&p, &[b"a", b"b"]);
        seal_hour(&dc1, &p).unwrap();
        let mut mover = LogMover::new(Warehouse::new(), 1000);
        assert!(!mover.main().exists(&p.main_dir()));
        mover.move_hour(&p, &[("dc1", &dc1)]).unwrap();
        assert!(mover.main().exists(&p.main_dir()));
        // Assembly area is gone after the rename.
        assert!(!mover.main().exists(&p.staging_dir()));
    }

    #[test]
    fn second_move_is_rejected() {
        let p = part();
        let dc1 = staging_with(&p, &[b"a"]);
        seal_hour(&dc1, &p).unwrap();
        let mut mover = LogMover::new(Warehouse::new(), 1000);
        mover.move_hour(&p, &[("dc1", &dc1)]).unwrap();
        assert_eq!(
            mover.move_hour(&p, &[("dc1", &dc1)]).unwrap_err(),
            MoveError::AlreadyMoved
        );
    }

    #[test]
    fn sanity_check_drops_empty_records() {
        let p = part();
        let dc1 = staging_with(&p, &[b"a", b"", b"c", b""]);
        seal_hour(&dc1, &p).unwrap();
        let mut mover = LogMover::new(Warehouse::new(), 1000);
        let report = mover.move_hour(&p, &[("dc1", &dc1)]).unwrap();
        assert_eq!(report.records, 2);
        assert_eq!(report.dropped, 2);
    }

    #[test]
    fn sealed_but_empty_hour_moves_cleanly() {
        let p = part();
        let wh = Warehouse::new();
        seal_hour(&wh, &p).unwrap();
        let mut mover = LogMover::new(Warehouse::new(), 1000);
        let report = mover.move_hour(&p, &[("dc1", &wh)]).unwrap();
        assert_eq!(report.records, 0);
        assert_eq!(report.output_files, 0);
        // The hour directory exists (readers see an empty, complete hour).
        assert!(mover.main().exists(&p.main_dir()));
    }

    #[test]
    fn framed_envelopes_are_stripped_in_main_warehouse() {
        let p = part();
        let wh = framed_staging_with(&p, "agg-0", &[(Some(id(1, 0)), b"alpha"), (None, b"beta")]);
        seal_hour(&wh, &p).unwrap();
        let mut mover = LogMover::new(Warehouse::new(), 1000);
        let report = mover.move_hour(&p, &[("dc1", &wh)]).unwrap();
        assert_eq!(report.records, 2);
        assert_eq!(report.moved_ids, vec![id(1, 0)]);
        let files = mover.main().list_files_recursive(&p.main_dir()).unwrap();
        let payloads = mover.main().open(&files[0]).unwrap().read_all().unwrap();
        assert_eq!(payloads, vec![b"alpha".to_vec(), b"beta".to_vec()]);
    }

    #[test]
    fn duplicate_stamped_records_are_squashed_within_a_move() {
        let p = part();
        let wh = Warehouse::new();
        // The same stamped record delivered to two aggregators (ack-loss
        // retry), plus a clean one.
        write_framed(
            &wh,
            &p,
            "agg-0",
            &[(Some(id(1, 0)), b"x"), (Some(id(1, 1)), b"y")],
        );
        write_framed(&wh, &p, "agg-1", &[(Some(id(1, 0)), b"x")]);
        seal_hour(&wh, &p).unwrap();
        let mut mover = LogMover::new(Warehouse::new(), 1000);
        let report = mover.move_hour(&p, &[("dc1", &wh)]).unwrap();
        assert_eq!(report.records, 2);
        assert_eq!(report.duplicates, 1);
        assert_eq!(report.moved_ids, vec![id(1, 0), id(1, 1)]);
    }

    #[test]
    fn redelivery_into_a_later_hour_is_a_no_op() {
        let h14 = part();
        let h15 = HourlyPartition::new("client_events", 2012, 8, 21, 15).unwrap();
        let wh = Warehouse::new();
        write_framed(
            &wh,
            &h14,
            "agg-0",
            &[(Some(id(2, 0)), b"x"), (Some(id(2, 1)), b"y")],
        );
        seal_hour(&wh, &h14).unwrap();
        let mut mover = LogMover::new(Warehouse::new(), 1000);
        assert_eq!(mover.move_hour(&h14, &[("dc1", &wh)]).unwrap().records, 2);

        // The sealed hour's content shows up again in the next hour (an
        // aggregator replayed its local-disk buffer after the move).
        write_framed(
            &wh,
            &h15,
            "agg-0",
            &[(Some(id(2, 0)), b"x"), (Some(id(2, 1)), b"y")],
        );
        seal_hour(&wh, &h15).unwrap();
        let report = mover.move_hour(&h15, &[("dc1", &wh)]).unwrap();
        assert_eq!(
            report.records, 0,
            "re-delivered records must not move twice"
        );
        assert_eq!(report.duplicates, 2);
        // And moving the sealed hour itself again is refused outright.
        assert_eq!(
            mover.move_hour(&h14, &[("dc1", &wh)]).unwrap_err(),
            MoveError::AlreadyMoved
        );
    }

    #[test]
    fn corrupt_block_rejects_the_file_without_poisoning_the_slide() {
        let p = part();
        let wh = Warehouse::new();
        write_framed(&wh, &p, "agg-0", &[(Some(id(1, 0)), b"good")]);
        write_framed(&wh, &p, "agg-1", &[(Some(id(1, 1)), b"bad")]);
        let damaged = p.main_dir().child("agg-1").unwrap();
        wh.corrupt_block(&damaged, 0).unwrap();
        seal_hour(&wh, &p).unwrap();
        let mut mover = LogMover::new(Warehouse::new(), 1000);
        let report = mover.move_hour(&p, &[("dc1", &wh)]).unwrap();
        assert_eq!(report.rejected_files, 1);
        assert_eq!(report.input_files, 1);
        assert_eq!(report.records, 1, "the healthy file still moves");
        assert_eq!(report.moved_ids, vec![id(1, 0)]);
        // The slide completed: the hour is visible and no debris remains.
        assert!(mover.main().exists(&p.main_dir()));
        assert!(!mover.main().exists(&p.staging_dir()));
    }

    #[test]
    fn truncated_file_rejects_without_poisoning_the_slide() {
        let p = part();
        let wh = Warehouse::new();
        write_framed(&wh, &p, "agg-0", &[(Some(id(3, 0)), b"keep")]);
        // A half-written file whose checksum was nonetheless persisted.
        let file = p.main_dir().child("agg-1").unwrap();
        let mut w = wh.create(&file).unwrap();
        w.append_record(staged::MAGIC);
        for i in 0..32u64 {
            w.append_record(&staged::encode(Some(id(3, 1 + i)), b"truncated-away"));
        }
        w.finish().unwrap();
        wh.truncate_block(&file, 0).unwrap();
        seal_hour(&wh, &p).unwrap();
        let mut mover = LogMover::new(Warehouse::new(), 1000);
        let report = mover.move_hour(&p, &[("dc1", &wh)]).unwrap();
        assert_eq!(report.rejected_files, 1);
        assert_eq!(report.records, 1);
        assert_eq!(report.moved_ids, vec![id(3, 0)]);
        assert!(mover.main().exists(&p.main_dir()));
    }

    /// A toy landing codec: payloads of the form `k,v` become two columns;
    /// anything else is rejected to the row fallback.
    struct CsvLanding;

    impl uli_warehouse::ColumnarLanding for CsvLanding {
        fn write_file(
            &self,
            warehouse: &Warehouse,
            path: &uli_warehouse::WhPath,
            payloads: &[Vec<u8>],
        ) -> WarehouseResult<Vec<usize>> {
            let mut w = uli_warehouse::ColumnarFileWriter::create(
                warehouse,
                path,
                &[uli_warehouse::ColumnKind::Bytes; 2],
                64,
                None,
            )?;
            let mut rejected = Vec::new();
            for (i, p) in payloads.iter().enumerate() {
                let cell_count = p.iter().filter(|b| **b == b',').count();
                match (std::str::from_utf8(p), cell_count) {
                    (Ok(s), 1) => {
                        let (k, v) = s.split_once(',').expect("one comma counted");
                        let cells = [k, v].map(|cell| uli_warehouse::Cell::Bytes(cell.as_bytes()));
                        w.append_row(&cells, None);
                    }
                    _ => rejected.push(i),
                }
            }
            w.finish()?;
            Ok(rejected)
        }
    }

    #[test]
    fn columnar_landing_writes_columnar_files_with_row_fallback() {
        let p = part();
        let wh = Warehouse::new();
        write_framed(
            &wh,
            &p,
            "agg-0",
            &[
                (Some(id(1, 0)), b"a,1"),
                (Some(id(1, 1)), b"not columnar"),
                (Some(id(1, 2)), b"b,2"),
            ],
        );
        seal_hour(&wh, &p).unwrap();
        let mut mover = LogMover::new(Warehouse::new(), 1000);
        mover.set_landing(std::sync::Arc::new(CsvLanding));
        let report = mover.move_hour(&p, &[("dc1", &wh)]).unwrap();
        assert_eq!(report.records, 3, "rejects still move, via the fallback");
        assert_eq!(report.output_files, 2, "one columnar + one fallback");

        let main = mover.main();
        let files = main.list_files_recursive(&p.main_dir()).unwrap();
        let col = files.iter().find(|f| f.name() == "part-00000").unwrap();
        let rows = files
            .iter()
            .find(|f| f.name() == "part-00000-rows")
            .unwrap();
        assert!(uli_warehouse::sniff_columnar(main, col).unwrap().is_some());
        let file = uli_warehouse::ColumnarFile::open(main, col).unwrap();
        let group = file.read_group(0, &[true, true]).unwrap();
        assert_eq!(group.rows(), 2);
        let first = group.column(0).unwrap();
        assert_eq!(file.resolve(first, 1), Some(&b"b"[..]));
        assert_eq!(
            main.open(rows).unwrap().read_all().unwrap(),
            vec![b"not columnar".to_vec()]
        );
    }

    #[test]
    fn columnar_landing_still_merges_and_chunks_by_records_per_file() {
        let p = part();
        let wh = Warehouse::new();
        for f in 0..4 {
            let file = p.main_dir().child(&format!("agg-{f}")).unwrap();
            let mut w = wh.create(&file).unwrap();
            for r in 0..10 {
                w.append_record(format!("f{f},{r}").as_bytes());
            }
            w.finish().unwrap();
        }
        seal_hour(&wh, &p).unwrap();
        let mut mover = LogMover::new(Warehouse::new(), 25);
        mover.set_landing(std::sync::Arc::new(CsvLanding));
        let report = mover.move_hour(&p, &[("dc1", &wh)]).unwrap();
        assert_eq!(report.records, 40);
        assert_eq!(report.output_files, 2, "40 records at 25/file → 2 files");
        // Every landed record is readable back out of the columnar files.
        let main = mover.main();
        let mut rows = 0;
        for f in main.list_files_recursive(&p.main_dir()).unwrap() {
            let file = uli_warehouse::ColumnarFile::open(main, &f).unwrap();
            for g in 0..file.group_count() {
                rows += file.read_group(g, &[true, true]).unwrap().rows();
            }
        }
        assert_eq!(rows, 40);
    }

    /// Tap that records every delivered payload, for dispatch-order checks.
    struct RecordingTap(std::sync::Arc<std::sync::Mutex<Vec<Vec<u8>>>>);

    impl DeliveryTap for RecordingTap {
        fn hour_delivered(&mut self, _partition: &HourlyPartition, payloads: &[Vec<u8>]) {
            self.0.lock().unwrap().extend(payloads.iter().cloned());
        }
    }

    /// Canonical view of a delivered hour: sorted (path, physical digest)
    /// pairs — byte-identical hours and nothing less.
    fn hour_digest(main: &Warehouse, partition: &HourlyPartition) -> Vec<(String, u64)> {
        let mut files: Vec<_> = main.list_files_recursive(&partition.main_dir()).unwrap();
        files.sort();
        files
            .into_iter()
            .map(|f| {
                let d = main.file_digest(&f).unwrap();
                (f.as_str().to_string(), d)
            })
            .collect()
    }

    /// Builds a messy staged hour — several DCs, many files, duplicates
    /// across aggregators, empty payloads, a corrupt file — and returns the
    /// staging warehouses.
    fn messy_staging(p: &HourlyPartition) -> Vec<Warehouse> {
        let mut dcs = Vec::new();
        for dc in 0..3u64 {
            let wh = Warehouse::new();
            for agg in 0..4u64 {
                let name = format!("agg-{agg}");
                let mut records: Vec<(Option<EntryId>, Vec<u8>)> = Vec::new();
                for r in 0..40u64 {
                    let host = dc * 4 + agg;
                    let payload = format!("dc{dc}-agg{agg}-rec{r}-{}", "x".repeat(r as usize % 23));
                    records.push((Some(id(host, r)), payload.into_bytes()));
                }
                // Cross-aggregator duplicates (ack-loss retry shape).
                if agg > 0 {
                    records.push((Some(id(dc * 4 + agg - 1, 7)), b"dup".to_vec()));
                }
                // Unstamped and empty records.
                records.push((None, format!("raw-{dc}-{agg}").into_bytes()));
                records.push((Some(id(dc * 4 + agg, 40)), Vec::new()));
                let refs: Vec<(Option<EntryId>, &[u8])> =
                    records.iter().map(|(i, p)| (*i, p.as_slice())).collect();
                write_framed(&wh, p, &name, &refs);
            }
            // One corrupt file per DC, rejected whole.
            let damaged = p.main_dir().child("agg-bad").unwrap();
            let mut w = wh.create(&damaged).unwrap();
            w.append_record(staged::MAGIC);
            w.append_record(&staged::encode(Some(id(99, dc)), b"doomed"));
            w.finish().unwrap();
            wh.corrupt_block(&damaged, 0).unwrap();
            seal_hour(&wh, p).unwrap();
            dcs.push(wh);
        }
        dcs
    }

    #[allow(clippy::type_complexity)]
    fn run_messy_move(
        workers: usize,
        columnar: bool,
    ) -> (
        MoveReport,
        Vec<(String, u64)>,
        (Vec<(u64, u64)>, Vec<EntryId>),
        Vec<Vec<u8>>,
    ) {
        let p = part();
        let dcs = messy_staging(&p);
        let staging: Vec<(&str, &Warehouse)> = dcs
            .iter()
            .enumerate()
            .map(|(i, wh)| (["dc0", "dc1", "dc2"][i], wh))
            .collect();
        let mut mover = LogMover::new(Warehouse::new(), 37)
            .with_parallelism(uli_warehouse::Parallelism::fixed(workers));
        if columnar {
            mover.set_landing(std::sync::Arc::new(CsvLanding));
        }
        let tapped = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        mover.add_tap(Box::new(RecordingTap(tapped.clone())));
        let report = mover.move_hour(&p, &staging).unwrap();
        let digest = hour_digest(mover.main(), &p);
        let seen = mover.seen().snapshot();
        let payloads = tapped.lock().unwrap().clone();
        (report, digest, seen, payloads)
    }

    #[test]
    fn parallel_landing_is_byte_identical_to_serial() {
        for columnar in [false, true] {
            let serial = run_messy_move(1, columnar);
            for workers in [4, 8] {
                let parallel = run_messy_move(workers, columnar);
                assert_eq!(
                    serial.0, parallel.0,
                    "report must not depend on workers ({workers}, columnar={columnar})"
                );
                assert_eq!(
                    serial.1, parallel.1,
                    "landed bytes must not depend on workers ({workers}, columnar={columnar})"
                );
                assert_eq!(
                    serial.2, parallel.2,
                    "seen set must not depend on workers ({workers}, columnar={columnar})"
                );
                assert_eq!(
                    serial.3, parallel.3,
                    "tap dispatch must not depend on workers ({workers}, columnar={columnar})"
                );
            }
            assert!(serial.0.duplicates > 0, "the fixture must exercise dedup");
            assert!(serial.0.rejected_files > 0 && serial.0.dropped > 0);
            assert!(serial.0.output_files > 1, "the fixture must chunk");
        }
    }

    #[test]
    fn seen_set_compacts_to_watermarks_after_a_clean_hour() {
        let p = part();
        let wh = Warehouse::new();
        let records: Vec<(Option<EntryId>, Vec<u8>)> = (0..30u64)
            .map(|r| (Some(id(r % 3, r / 3)), format!("r{r}").into_bytes()))
            .collect();
        let refs: Vec<(Option<EntryId>, &[u8])> =
            records.iter().map(|(i, p)| (*i, p.as_slice())).collect();
        write_framed(&wh, &p, "agg-0", &refs);
        seal_hour(&wh, &p).unwrap();
        let mut mover = LogMover::new(Warehouse::new(), 1000);
        mover.move_hour(&p, &[("dc1", &wh)]).unwrap();
        let (watermarks, residual) = mover.seen().snapshot();
        assert_eq!(watermarks, vec![(0, 10), (1, 10), (2, 10)]);
        assert!(
            residual.is_empty(),
            "contiguous per-host ids must fully compact"
        );
    }

    #[test]
    fn redelivery_of_a_compacted_hours_duplicate_is_still_squashed() {
        let h14 = part();
        let h15 = HourlyPartition::new("client_events", 2012, 8, 21, 15).unwrap();
        let wh = Warehouse::new();
        let records: Vec<(Option<EntryId>, &[u8])> = vec![
            (Some(id(5, 0)), b"a"),
            (Some(id(5, 1)), b"b"),
            (Some(id(5, 2)), b"c"),
        ];
        write_framed(&wh, &h14, "agg-0", &records);
        seal_hour(&wh, &h14).unwrap();
        let mut mover = LogMover::new(Warehouse::new(), 1000);
        mover.move_hour(&h14, &[("dc1", &wh)]).unwrap();
        // The hour compacted: its ids live only in the host-5 watermark.
        let (watermarks, residual) = mover.seen().snapshot();
        assert_eq!(watermarks, vec![(5, 3)]);
        assert!(residual.is_empty());

        // The same records replay into the next hour; the watermark alone
        // must squash them.
        write_framed(&wh, &h15, "agg-0", &records);
        seal_hour(&wh, &h15).unwrap();
        let report = mover.move_hour(&h15, &[("dc1", &wh)]).unwrap();
        assert_eq!(report.records, 0);
        assert_eq!(report.duplicates, 3);
    }

    #[test]
    fn landing_reuses_pooled_compressors_across_hours() {
        let h14 = part();
        let h15 = HourlyPartition::new("client_events", 2012, 8, 21, 15).unwrap();
        let wh = Warehouse::new();
        for (hour_idx, p) in [&h14, &h15].into_iter().enumerate() {
            let records: Vec<(Option<EntryId>, Vec<u8>)> = (0..200u64)
                .map(|r| {
                    let seq = hour_idx as u64 * 200 + r;
                    (Some(id(1, seq)), format!("payload-{seq}").into_bytes())
                })
                .collect();
            let refs: Vec<(Option<EntryId>, &[u8])> =
                records.iter().map(|(i, p)| (*i, p.as_slice())).collect();
            write_framed(&wh, p, "agg-0", &refs);
            seal_hour(&wh, p).unwrap();
        }
        let mut mover = LogMover::new(Warehouse::new(), 25)
            .with_parallelism(uli_warehouse::Parallelism::fixed(4));
        mover.move_hour(&h14, &[("dc1", &wh)]).unwrap();
        let pool = std::sync::Arc::clone(mover.main().compressor_pool());
        assert!(
            pool.idle_len() > 0,
            "finished writers must recycle their compressors"
        );
        mover.move_hour(&h15, &[("dc1", &wh)]).unwrap();
        // Two hours × 8 chunks each = 16 files written, but the pool never
        // holds more compressors than could run concurrently: every file
        // past the first wave reused a recycled one.
        assert!(
            pool.idle_len() <= 4,
            "pool must stay bounded by worker concurrency, got {}",
            pool.idle_len()
        );
    }

    #[test]
    fn malformed_envelope_is_dropped_not_fatal() {
        let p = part();
        let wh = Warehouse::new();
        let file = p.main_dir().child("agg-0").unwrap();
        let mut w = wh.create(&file).unwrap();
        w.append_record(staged::MAGIC);
        w.append_record(&staged::encode(Some(id(1, 0)), b"good"));
        w.append_record(&[1u8, 2, 3]); // truncated stamped envelope
        w.finish().unwrap();
        seal_hour(&wh, &p).unwrap();
        let mut mover = LogMover::new(Warehouse::new(), 1000);
        let report = mover.move_hour(&p, &[("dc1", &wh)]).unwrap();
        assert_eq!(report.records, 1);
        assert_eq!(report.dropped, 1);
    }
}
