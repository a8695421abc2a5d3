//! The daily materialization pipeline (§4.2).
//!
//! "Construction of session sequences proceeds in two steps. Once all logs
//! for one day have been successfully imported … Oink triggers a job that
//! scans the client event logs to compute a histogram of event counts.
//! These counts, as well as samples of each event type, are stored in a
//! known location in HDFS … In a second pass, sessions are reconstructed
//! from the raw client event logs … These sequences of event names are then
//! encoded using the dictionary."

use std::collections::{BTreeMap, HashMap};

use uli_thrift::ThriftRecord;
use uli_warehouse::{
    ExternalByteSorter, HourlyPartition, MemoryTracker, Parallelism, ScanFile, ScanPool, Warehouse,
    WarehouseError, WarehouseResult, WhPath,
};

use super::dictionary::EventDictionary;
use super::sequence::SessionSequence;
use super::sessionize::{SessionEvent, SessionRecord, Sessionizer};
use crate::client_event::{ClientEvent, CLIENT_EVENTS_CATEGORY};
use crate::columnar::{
    event_columns, for_each_event_row, EventColumns, EventRow, RowAt, ALL_COLUMNS, IP_COLUMN,
    NAME_COLUMN, SESSION_COLUMN, TIMESTAMP_COLUMN, USER_COLUMN,
};
use crate::event::EventName;
use crate::time::Timestamp;

/// Order-preserving byte key for the streaming sorter: sorting these keys
/// as raw bytes reproduces the batch output order `(user_id, session_id,
/// start)`. Signed fields flip their sign bit so two's complement orders
/// correctly; the session id NUL-escapes (`00 → 00 FF`, terminator
/// `00 00`) so a short id sorts before any extension of it.
fn session_sort_key(user_id: i64, session_id: &str, start: i64) -> Vec<u8> {
    let mut key = Vec::with_capacity(18 + session_id.len());
    key.extend_from_slice(&((user_id as u64) ^ (1 << 63)).to_be_bytes());
    for b in session_id.bytes() {
        if b == 0 {
            key.extend_from_slice(&[0x00, 0xff]);
        } else {
            key.push(b);
        }
    }
    key.extend_from_slice(&[0x00, 0x00]);
    key.extend_from_slice(&((start as u64) ^ (1 << 63)).to_be_bytes());
    key
}

/// The day directory of a category: `/logs/<cat>/YYYY/MM/DD`.
pub fn day_dir(category: &str, day_index: u64) -> WhPath {
    HourlyPartition::from_hour_index(category, day_index * 24)
        .main_dir()
        .parent()
        .expect("hour dirs have day parents")
}

/// Where a day's session sequences are materialized.
pub fn sequences_dir(day_index: u64) -> WhPath {
    let day = day_dir("session_sequences", day_index);
    // Reuse the calendar layout but under /session_sequences.
    WhPath::parse(&day.as_str().replacen("/logs/", "/", 1)).expect("constructed path is valid")
}

/// Where a day's dictionary, histogram, and samples live — the "known
/// location in HDFS" consumed by the client event catalog.
pub fn dictionary_dir(day_index: u64) -> WhPath {
    let day = day_dir("event_dictionary", day_index);
    WhPath::parse(&day.as_str().replacen("/logs/", "/", 1)).expect("constructed path is valid")
}

/// Outcome of one day's materialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaterializeReport {
    /// The day processed.
    pub day_index: u64,
    /// Client events scanned (per pass).
    pub events: u64,
    /// Undecodable records skipped.
    pub skipped: u64,
    /// Distinct event names.
    pub distinct_events: u64,
    /// Sessions materialized.
    pub sessions: u64,
    /// Uncompressed bytes of the raw client event logs.
    pub raw_uncompressed_bytes: u64,
    /// Compressed (on-disk) bytes of the raw client event logs.
    pub raw_compressed_bytes: u64,
    /// Compressed (on-disk) bytes of the session sequence files.
    pub sequences_compressed_bytes: u64,
    /// Files written.
    pub files_written: u64,
    /// Sort runs spilled to scratch files (streaming path only; the batch
    /// path never spills and reports 0).
    pub spill_runs: u64,
    /// Bytes written to spill runs.
    pub spill_bytes: u64,
    /// Peak tracked memory of the streaming sorter, bytes (0 on the batch
    /// path).
    pub mem_high_water_bytes: u64,
}

impl MaterializeReport {
    /// The paper's headline metric: raw on-disk size over sequence on-disk
    /// size ("about fifty times smaller than the original logs").
    pub fn compression_factor(&self) -> f64 {
        if self.sequences_compressed_bytes == 0 {
            return 0.0;
        }
        self.raw_compressed_bytes as f64 / self.sequences_compressed_bytes as f64
    }
}

/// The two-pass materializer.
pub struct Materializer {
    warehouse: Warehouse,
    sessionizer: Sessionizer,
    /// Worker threads for the scan, sessionize and encode shards. Any
    /// worker count produces byte-identical output (shards merge in scan
    /// order); one worker runs the same shards inline.
    parallelism: Parallelism,
    /// Samples of each event type retained for the catalog.
    samples_per_event: usize,
    /// Records per output part file.
    records_per_file: u64,
}

/// Sessions per encode shard in pass 2. Output bytes do not depend
/// on this (shard results concatenate in order); it only balances work.
const ENCODE_CHUNK: usize = 1024;

/// What pass 2 reads of an event: [`SessionEvent`]'s fields, nothing else.
const SESSION_COLUMNS: EventColumns = event_columns([
    NAME_COLUMN,
    USER_COLUMN,
    SESSION_COLUMN,
    IP_COLUMN,
    TIMESTAMP_COLUMN,
]);

fn session_event(row: &EventRow<'_>) -> WarehouseResult<SessionEvent> {
    Ok(SessionEvent {
        name: EventName::from_valid(row.name()?),
        user_id: row.user_id()?,
        session_id: row.session_id()?.to_string(),
        ip: row.ip()?.to_string(),
        timestamp: row.timestamp()?,
    })
}

impl Materializer {
    /// A materializer with the standard 30-minute sessionizer.
    pub fn new(warehouse: Warehouse) -> Materializer {
        Materializer {
            warehouse,
            sessionizer: Sessionizer::new(),
            parallelism: Parallelism::default(),
            samples_per_event: 3,
            records_per_file: 100_000,
        }
    }

    /// Overrides the sessionizer (ablation knob).
    pub fn with_sessionizer(mut self, s: Sessionizer) -> Materializer {
        self.sessionizer = s;
        self
    }

    /// Sets the scan/sessionize/encode worker count.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Materializer {
        self.parallelism = parallelism;
        self
    }

    /// The configured parallelism.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The landed client-event files of one hour, sorted (scan order).
    /// A missing hour directory is an empty hour.
    fn hour_files(&self, hour: u64) -> WarehouseResult<Vec<WhPath>> {
        let dir = HourlyPartition::from_hour_index(CLIENT_EVENTS_CATEGORY, hour).main_dir();
        if !self.warehouse.exists(&dir) {
            return Ok(Vec::new());
        }
        self.warehouse.list_files_recursive(&dir)
    }

    /// Scans one landed file unit by unit, invoking `f` per event in stored
    /// order with a view over `columns`. Returns `(events, skipped)` for the
    /// file.
    fn scan_file(
        &self,
        path: &WhPath,
        columns: EventColumns,
        mut f: impl FnMut(&EventRow<'_>) -> WarehouseResult<()>,
    ) -> WarehouseResult<(u64, u64)> {
        let file = ScanFile::open(&self.warehouse, path)?;
        for_each_event_row(&file, 0..file.units(), columns, |_, row| f(row))
    }

    /// The landed client-event files of a day in *scan order*: hours
    /// ascending, files sorted within an hour. A file, not a scan unit, is
    /// the shard both passes hand the pool: per-shard state is paid once per
    /// shard, and a delivered day has many more files than workers.
    fn day_files(&self, day_index: u64) -> WarehouseResult<Vec<WhPath>> {
        let mut paths = Vec::new();
        for hour in day_index * 24..(day_index + 1) * 24 {
            paths.extend(self.hour_files(hour)?);
        }
        Ok(paths)
    }

    /// Pass 1: histogram + samples + dictionary, persisted under
    /// [`dictionary_dir`]. Returns the dictionary.
    ///
    /// Names are counted under the name column alone: every row pass 2
    /// sessionizes has a name that decodes, so it is counted here whatever
    /// else of it does not, and the dictionary covers every session by
    /// construction. Each file is a shard — a hash map costing one lookup
    /// per event, whose iteration order never reaches the output — that
    /// also remembers where each name's first `samples_per_event` rows are
    /// stored. Shards merge in scan order into one `BTreeMap`: counts are
    /// order-independent sums and the candidates kept are the day's first
    /// per name, so nothing persisted depends on the worker count. Only the
    /// scan units holding a kept candidate are then read at full width; a
    /// candidate that does not decode there yields no sample, and moves no
    /// other. Rank order (count descending, ties by name ascending) is
    /// fixed by [`EventDictionary::from_counts`].
    pub fn build_dictionary(&self, day_index: u64) -> WarehouseResult<EventDictionary> {
        let per_event = self.samples_per_event;
        let pool = ScanPool::new(self.parallelism);
        let paths = self.day_files(day_index)?;
        type Shard = HashMap<EventName, (u64, Vec<RowAt>)>;
        let shards = pool.map(paths.iter().collect(), |_, path| {
            let file = ScanFile::open(&self.warehouse, path)?;
            let mut shard = Shard::new();
            let named = event_columns([NAME_COLUMN]);
            for_each_event_row(&file, 0..file.units(), named, |at, row| {
                let name = row.name()?;
                let (n, first) = match shard.get_mut(name) {
                    Some(entry) => entry,
                    None => shard.entry(EventName::from_valid(name)).or_default(),
                };
                *n += 1;
                if first.len() < per_event {
                    first.push(at);
                }
                Ok(())
            })?;
            Ok::<_, WarehouseError>(shard)
        });
        let mut counts: BTreeMap<EventName, u64> = BTreeMap::new();
        // Per name, its first rows of the day as (file, position).
        let mut candidates: BTreeMap<EventName, Vec<(usize, RowAt)>> = BTreeMap::new();
        for (file, shard) in shards.into_iter().enumerate() {
            for (name, (n, first)) in shard? {
                let kept = candidates.entry(name.clone()).or_default();
                let room = per_event.saturating_sub(kept.len());
                kept.extend(first.into_iter().take(room).map(|at| (file, at)));
                *counts.entry(name).or_insert(0) += n;
            }
        }

        // Per file, the candidate rows to serialize, in stored order.
        let mut wanted: BTreeMap<usize, Vec<RowAt>> = BTreeMap::new();
        for (file, at) in candidates.values().flatten() {
            wanted.entry(*file).or_default().push(*at);
        }
        let taken = pool.map(wanted.into_iter().collect(), |_, (file, mut rows)| {
            rows.sort_unstable();
            let scan = ScanFile::open(&self.warehouse, &paths[file])?;
            let mut units: Vec<usize> = rows.iter().map(|at| at.unit).collect();
            units.dedup();
            let mut samples = Vec::with_capacity(rows.len());
            for_each_event_row(&scan, units, ALL_COLUMNS, |at, row| {
                if rows.binary_search(&at).is_ok() {
                    samples.push(((file, at), row.to_event()?.to_bytes()));
                }
                Ok(())
            })?;
            Ok::<_, WarehouseError>(samples)
        });
        let mut samples: HashMap<(usize, RowAt), Vec<u8>> = HashMap::new();
        for file_samples in taken {
            samples.extend(file_samples?);
        }
        let dict = EventDictionary::from_counts(counts.into_iter().collect());

        let dir = dictionary_dir(day_index);
        // Rebuild daily: drop yesterday's run of the same day if present.
        if self.warehouse.exists(&dir) {
            self.warehouse.delete_dir(&dir)?;
        }
        let mut w = self
            .warehouse
            .create(&dir.child("dictionary").expect("valid"))?;
        for rec in dict.to_records() {
            w.append_record(&rec);
        }
        w.finish()?;
        let mut w = self
            .warehouse
            .create(&dir.child("samples").expect("valid"))?;
        for sample in candidates
            .values()
            .flatten()
            .filter_map(|at| samples.get(at))
        {
            w.append_record(sample);
        }
        w.finish()?;
        Ok(dict)
    }

    /// Loads a previously persisted dictionary.
    pub fn load_dictionary(&self, day_index: u64) -> WarehouseResult<EventDictionary> {
        let file = dictionary_dir(day_index)
            .child("dictionary")
            .expect("valid");
        let records = self.warehouse.open(&file)?.read_all()?;
        Ok(EventDictionary::from_records(records))
    }

    /// Loads the persisted per-event samples (raw Thrift bytes).
    pub fn load_samples(&self, day_index: u64) -> WarehouseResult<Vec<ClientEvent>> {
        let file = dictionary_dir(day_index).child("samples").expect("valid");
        let records = self.warehouse.open(&file)?.read_all()?;
        Ok(records
            .iter()
            .filter_map(|r| ClientEvent::from_bytes(r).ok())
            .collect())
    }

    /// Sharded sessionization: events partition by a user-id hash, each
    /// partition sessionizes independently on the pool, and the partition
    /// outputs merge back into [`Sessionizer::sessionize`]'s output order.
    /// `scan_shards` are the day's events as the scan produced them, in scan
    /// order; each is freed as soon as it is drained, so the day's events
    /// are never held twice.
    ///
    /// This is safe because a session never spans users — the group key is
    /// `(user_id, session_id)` — so hashing on user id puts every event of
    /// a group in exactly one partition, in scan order. Each partition's
    /// output is already sorted by `(user_id, session_id)` (then start time
    /// within a group), and no group key appears in two partitions, so a
    /// k-way merge on `(user_id, session_id)` reproduces the unpartitioned
    /// order byte for byte, independent of the worker count.
    fn sessionize_sharded(&self, scan_shards: Vec<Vec<SessionEvent>>) -> Vec<SessionRecord> {
        let n = self.parallelism.workers();
        let total: usize = scan_shards.iter().map(Vec::len).sum();
        let mut parts: Vec<Vec<SessionEvent>> =
            (0..n).map(|_| Vec::with_capacity(total / n + 1)).collect();
        for shard in scan_shards {
            for ev in shard {
                // SplitMix-style mix so contiguous user ids spread over
                // partitions.
                let h = (ev.user_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                parts[(h >> 32) as usize % n].push(ev);
            }
        }
        let sessionizer = self.sessionizer;
        let mut runs: Vec<std::vec::IntoIter<SessionRecord>> = ScanPool::new(self.parallelism)
            .map(parts, move |_, part| sessionizer.sessionize(part))
            .into_iter()
            .map(Vec::into_iter)
            .collect();

        // K-way merge by group key. Ties across runs are impossible (one
        // user, one partition), so the pick order is total and
        // deterministic. Keys are compared in place, never cloned.
        let mut merged = Vec::with_capacity(runs.iter().map(|r| r.len()).sum());
        while let Some((_, src)) = runs
            .iter()
            .enumerate()
            .filter_map(|(i, run)| {
                let head = run.as_slice().first()?;
                Some(((head.user_id, head.session_id.as_str()), i))
            })
            .min()
        {
            // Drain the whole group from its run: sessions of one group
            // stay in run-internal (start-time) order.
            let run = &mut runs[src];
            let head = run.next().expect("run has a head");
            let rest = run
                .as_slice()
                .iter()
                .take_while(|r| r.user_id == head.user_id && r.session_id == head.session_id)
                .count();
            merged.push(head);
            merged.extend(run.take(rest));
        }
        merged
    }

    /// Pass 2: reconstruct sessions, encode, and write the relation under
    /// [`sequences_dir`]. Requires the dictionary from pass 1.
    /// The scan shards per unit (shards stay in scan order, so
    /// sessionization sees one event order), the sessionize pass shards by
    /// user-id hash with a deterministic merge (see
    /// [`Self::sessionize_sharded`]), and the encode shards over fixed
    /// chunks of the session list; encoded records are written back in
    /// session order, so part files do not depend on the worker count.
    pub fn materialize_sequences(
        &self,
        day_index: u64,
        dict: &EventDictionary,
    ) -> WarehouseResult<MaterializeReport> {
        // One shard per file, on the pool, kept in scan order: whatever the
        // worker count, sessionization sees the day's events in one order.
        let scanned = ScanPool::new(self.parallelism).map(self.day_files(day_index)?, |_, path| {
            let mut shard = Vec::new();
            let counts = self.scan_file(&path, SESSION_COLUMNS, |row| {
                shard.push(session_event(row)?);
                Ok(())
            })?;
            Ok::<_, WarehouseError>((shard, counts))
        });
        let mut scan_shards = Vec::with_capacity(scanned.len());
        let (mut events, mut skipped) = (0, 0);
        for shard in scanned {
            let (shard, counts) = shard?;
            scan_shards.push(shard);
            events += counts.0;
            skipped += counts.1;
        }
        let sessions = self.sessionize_sharded(scan_shards);

        // Encode ahead of the write loop. `None` marks a session whose event
        // is missing from the dictionary (impossible when both passes saw
        // the same data; tolerated, not fatal).
        let chunks: Vec<&[_]> = sessions.chunks(ENCODE_CHUNK).collect();
        let encoded: Vec<Option<Vec<u8>>> = ScanPool::new(self.parallelism)
            .map(chunks, |_, chunk| {
                chunk
                    .iter()
                    .map(|s| SessionSequence::encode(s, dict).map(|seq| seq.to_bytes()))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();

        let dir = sequences_dir(day_index);
        if self.warehouse.exists(&dir) {
            self.warehouse.delete_dir(&dir)?;
        }
        let mut files_written = 0;
        let mut writer = None;
        let mut in_file = 0u64;
        let mut part = 0u64;
        let mut materialized = 0u64;
        for bytes in encoded {
            let Some(bytes) = bytes else {
                // Dictionary built from the same scan covers every event;
                // reaching here means passes saw different data.
                debug_assert!(false, "event missing from same-day dictionary");
                continue;
            };
            if writer.is_none() {
                let path = dir.child(&format!("part-{part:05}")).expect("valid");
                writer = Some(self.warehouse.create(&path)?);
                part += 1;
            }
            let w = writer.as_mut().expect("created above");
            w.append_record(&bytes);
            materialized += 1;
            in_file += 1;
            if in_file >= self.records_per_file {
                writer.take().expect("present").finish()?;
                files_written += 1;
                in_file = 0;
            }
        }
        if let Some(w) = writer.take() {
            w.finish()?;
            files_written += 1;
        } else {
            // Even an empty day leaves a marker directory so downstream jobs
            // can distinguish "no sessions" from "not yet materialized".
            self.warehouse.mkdirs(&dir)?;
        }

        let raw = self
            .warehouse
            .dir_meta(&day_dir(CLIENT_EVENTS_CATEGORY, day_index))
            .unwrap_or(uli_warehouse::FileMeta {
                blocks: 0,
                records: 0,
                compressed_bytes: 0,
                uncompressed_bytes: 0,
            });
        let seq_meta = self.warehouse.dir_meta(&dir)?;
        Ok(MaterializeReport {
            day_index,
            events,
            skipped,
            distinct_events: dict.len() as u64,
            sessions: materialized,
            raw_uncompressed_bytes: raw.uncompressed_bytes,
            raw_compressed_bytes: raw.compressed_bytes,
            sequences_compressed_bytes: seq_meta.compressed_bytes,
            files_written,
            spill_runs: 0,
            spill_bytes: 0,
            mem_high_water_bytes: 0,
        })
    }

    /// Streaming pass 2: identical output to [`Self::materialize_sequences`]
    /// without ever materializing the day's events or session list.
    ///
    /// Events are consumed one hour partition at a time. A bounded window of
    /// *open runs* (one per active `(user_id, session_id)` group) absorbs
    /// each hour's arrivals; once the hour watermark passes a run's last
    /// event by more than the inactivity gap, no future event can extend it
    /// (hour `H+1` events all have timestamps ≥ the watermark), so the run
    /// seals. Sealed sessions are dictionary-encoded immediately and fed to
    /// an external sorter keyed on `(user_id, session_id, start)` — the
    /// batch output order — which spills to scratch run files whenever
    /// `budget` is exceeded. Peak state is therefore one hour of arrivals +
    /// a ~`gap` window of open runs + the sorter's budget, independent of
    /// day size, and the part files come out byte-identical to the batch
    /// path at any worker count.
    pub fn materialize_sequences_streaming(
        &self,
        day_index: u64,
        dict: &EventDictionary,
        budget: u64,
    ) -> WarehouseResult<MaterializeReport> {
        let gap = self.sessionizer.gap_ms();
        let tracker = MemoryTracker::with_budget(budget);
        let mut sorter =
            ExternalByteSorter::new(self.warehouse.clone(), tracker.clone(), "sessionize");
        fn push_session(
            sorter: &mut ExternalByteSorter,
            user_id: i64,
            session_id: &str,
            run: Vec<SessionEvent>,
            dict: &EventDictionary,
        ) -> WarehouseResult<()> {
            let record = Sessionizer::seal(user_id, session_id, run);
            let Some(seq) = SessionSequence::encode(&record, dict) else {
                // Dictionary built from the same scan covers every event;
                // reaching here means passes saw different data.
                debug_assert!(false, "event missing from same-day dictionary");
                return Ok(());
            };
            let key = session_sort_key(record.user_id, &record.session_id, record.start.millis());
            sorter.push(key, seq.to_bytes())
        }

        let mut events = 0u64;
        let mut skipped = 0u64;
        let mut open: BTreeMap<(i64, String), Vec<SessionEvent>> = BTreeMap::new();
        for hour in day_index * 24..(day_index + 1) * 24 {
            let mut arrivals: BTreeMap<(i64, String), Vec<SessionEvent>> = BTreeMap::new();
            for path in self.hour_files(hour)? {
                let (e, s) = self.scan_file(&path, SESSION_COLUMNS, |row| {
                    let ev = session_event(row)?;
                    arrivals
                        .entry((ev.user_id, ev.session_id.clone()))
                        .or_default()
                        .push(ev);
                    Ok(())
                })?;
                events += e;
                skipped += s;
            }
            for ((user_id, session_id), mut new_evs) in arrivals {
                // Stable sort: equal timestamps keep arrival order, and all
                // prior hours' events sort strictly earlier, so appending to
                // the open run reproduces the batch group-wide stable sort.
                new_evs.sort_by_key(|ev| ev.timestamp);
                let run = open.entry((user_id, session_id.clone())).or_default();
                for ev in new_evs {
                    let split = run
                        .last()
                        .is_some_and(|prev| ev.timestamp.since(prev.timestamp) > gap);
                    if split {
                        push_session(&mut sorter, user_id, &session_id, std::mem::take(run), dict)?;
                    }
                    run.push(ev);
                }
            }
            // Bounded-window eviction: every event still to come has a
            // timestamp ≥ the watermark, so a run trailing it by more than
            // the gap is complete.
            let watermark = Timestamp::from_hour_index(hour + 1).millis();
            let expired: Vec<(i64, String)> = open
                .iter()
                .filter(|(_, run)| {
                    run.last()
                        .is_some_and(|last| watermark - last.timestamp.millis() > gap)
                })
                .map(|(k, _)| k.clone())
                .collect();
            for key in expired {
                let run = open.remove(&key).expect("selected above");
                push_session(&mut sorter, key.0, &key.1, run, dict)?;
            }
        }
        for ((user_id, session_id), run) in std::mem::take(&mut open) {
            push_session(&mut sorter, user_id, &session_id, run, dict)?;
        }

        let dir = sequences_dir(day_index);
        if self.warehouse.exists(&dir) {
            self.warehouse.delete_dir(&dir)?;
        }
        let mut sorted = sorter.finish()?;
        let mut files_written = 0;
        let mut writer = None;
        let mut in_file = 0u64;
        let mut part = 0u64;
        let mut materialized = 0u64;
        while let Some((_, bytes)) = sorted.next_entry()? {
            if writer.is_none() {
                let path = dir.child(&format!("part-{part:05}")).expect("valid");
                writer = Some(self.warehouse.create(&path)?);
                part += 1;
            }
            let w = writer.as_mut().expect("created above");
            w.append_record(&bytes);
            materialized += 1;
            in_file += 1;
            if in_file >= self.records_per_file {
                writer.take().expect("present").finish()?;
                files_written += 1;
                in_file = 0;
            }
        }
        drop(sorted);
        if let Some(w) = writer.take() {
            w.finish()?;
            files_written += 1;
        } else {
            self.warehouse.mkdirs(&dir)?;
        }

        let raw = self
            .warehouse
            .dir_meta(&day_dir(CLIENT_EVENTS_CATEGORY, day_index))
            .unwrap_or(uli_warehouse::FileMeta {
                blocks: 0,
                records: 0,
                compressed_bytes: 0,
                uncompressed_bytes: 0,
            });
        let seq_meta = self.warehouse.dir_meta(&dir)?;
        Ok(MaterializeReport {
            day_index,
            events,
            skipped,
            distinct_events: dict.len() as u64,
            sessions: materialized,
            raw_uncompressed_bytes: raw.uncompressed_bytes,
            raw_compressed_bytes: raw.compressed_bytes,
            sequences_compressed_bytes: seq_meta.compressed_bytes,
            files_written,
            spill_runs: tracker.spill_runs(),
            spill_bytes: tracker.spill_bytes(),
            mem_high_water_bytes: tracker.high_water(),
        })
    }

    /// Runs both passes for a day — what Oink schedules nightly.
    pub fn run_day(&self, day_index: u64) -> WarehouseResult<MaterializeReport> {
        let dict = self.build_dictionary(day_index)?;
        self.materialize_sequences(day_index, &dict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventInitiator;
    use crate::time::Timestamp;
    use uli_warehouse::DEFAULT_MEM_BUDGET;

    fn n(s: &str) -> EventName {
        EventName::parse(s).unwrap()
    }

    /// One hour of the synthetic day, in the order the fixtures write it.
    fn hour_events(hour: u64, users: i64, events_per_user: usize) -> Vec<ClientEvent> {
        let mut events = Vec::new();
        for u in 0..users {
            for i in 0..events_per_user {
                let action = if i % 5 == 0 { "click" } else { "impression" };
                events.push(ClientEvent::new(
                    EventInitiator::CLIENT_USER,
                    n(&format!("web:home:home:stream:tweet:{action}")),
                    u,
                    format!("s-{u}"),
                    "10.0.0.1",
                    Timestamp::from_hour_index(hour).plus(i as i64 * 1000),
                ));
            }
        }
        events
    }

    fn write_row_file(wh: &Warehouse, hour: u64, part: &str, events: &[ClientEvent]) {
        let dir = HourlyPartition::from_hour_index(CLIENT_EVENTS_CATEGORY, hour).main_dir();
        let mut w = wh.create(&dir.child(part).unwrap()).unwrap();
        for ev in events {
            w.append_record(&ev.to_bytes());
        }
        w.finish().unwrap();
    }

    fn write_columnar_file(wh: &Warehouse, hour: u64, part: &str, events: &[ClientEvent]) {
        let dir = HourlyPartition::from_hour_index(CLIENT_EVENTS_CATEGORY, hour).main_dir();
        crate::columnar::write_client_events_columnar(
            wh,
            &dir.child(part).unwrap(),
            events,
            true,
            64,
        )
        .unwrap();
    }

    /// Writes a day of synthetic client events into hour partitions.
    fn fixture(wh: &Warehouse, day: u64, users: i64, events_per_user: usize) -> u64 {
        let mut total = 0;
        for hour in day * 24..day * 24 + 2 {
            let events = hour_events(hour, users, events_per_user);
            write_row_file(wh, hour, "part-00000", &events);
            total += events.len() as u64;
        }
        total
    }

    #[test]
    fn two_pass_pipeline_materializes_sessions() {
        let wh = Warehouse::new();
        let total = fixture(&wh, 0, 10, 20);
        let m = Materializer::new(wh.clone());
        let report = m.run_day(0).unwrap();
        assert_eq!(report.events, total);
        assert_eq!(report.skipped, 0);
        assert_eq!(report.distinct_events, 2);
        // 10 users × 2 hours; the hour gap (> 30 min) splits sessions.
        assert_eq!(report.sessions, 20);
        assert!(report.files_written >= 1);
        assert!(wh.exists(&sequences_dir(0)));
    }

    #[test]
    fn sequences_are_dramatically_smaller() {
        let wh = Warehouse::new();
        fixture(&wh, 0, 20, 50);
        let report = Materializer::new(wh).run_day(0).unwrap();
        assert!(
            report.compression_factor() > 10.0,
            "expected a large compression factor, got {:.1}",
            report.compression_factor()
        );
    }

    #[test]
    fn dictionary_persists_and_reloads() {
        let wh = Warehouse::new();
        fixture(&wh, 0, 3, 10);
        let m = Materializer::new(wh);
        let dict = m.build_dictionary(0).unwrap();
        let reloaded = m.load_dictionary(0).unwrap();
        assert_eq!(reloaded.len(), dict.len());
        assert_eq!(reloaded.name_of(0), dict.name_of(0));
    }

    #[test]
    fn samples_are_capped_per_event() {
        let wh = Warehouse::new();
        fixture(&wh, 0, 5, 25);
        let m = Materializer::new(wh);
        m.build_dictionary(0).unwrap();
        let samples = m.load_samples(0).unwrap();
        // Two event types × at most 3 samples each.
        assert!(samples.len() <= 6);
        assert!(!samples.is_empty());
    }

    #[test]
    fn rerun_is_idempotent() {
        let wh = Warehouse::new();
        fixture(&wh, 0, 4, 10);
        let m = Materializer::new(wh);
        let r1 = m.run_day(0).unwrap();
        let r2 = m.run_day(0).unwrap();
        assert_eq!(r1.sessions, r2.sessions);
        assert_eq!(r1.sequences_compressed_bytes, r2.sequences_compressed_bytes);
    }

    #[test]
    fn empty_day_leaves_marker_directory() {
        let wh = Warehouse::new();
        let m = Materializer::new(wh.clone());
        let report = m.run_day(3).unwrap();
        assert_eq!(report.sessions, 0);
        assert_eq!(report.events, 0);
        assert!(wh.exists(&sequences_dir(3)));
    }

    #[test]
    fn corrupt_records_are_counted_not_fatal() {
        let wh = Warehouse::new();
        fixture(&wh, 0, 2, 5);
        // Append a file of garbage into one hour.
        let dir = HourlyPartition::from_hour_index(CLIENT_EVENTS_CATEGORY, 0).main_dir();
        let mut w = wh.create(&dir.child("garbage").unwrap()).unwrap();
        w.append_record(b"not a client event");
        w.finish().unwrap();
        let report = Materializer::new(wh).run_day(0).unwrap();
        assert_eq!(report.skipped, 1);
        assert!(report.sessions > 0);
    }

    /// Every persisted artifact of a day, as `(path, records)` pairs.
    fn day_artifacts(wh: &Warehouse, day: u64) -> Vec<(String, Vec<Vec<u8>>)> {
        let mut out = Vec::new();
        for dir in [sequences_dir(day), dictionary_dir(day)] {
            for file in wh.list_files_recursive(&dir).unwrap() {
                let records = wh.open(&file).unwrap().read_all().unwrap();
                out.push((file.as_str().to_string(), records));
            }
        }
        out
    }

    /// What a day's events must materialize to, computed from the event
    /// list (in scan order) with the public primitives alone — no scan, no
    /// pool, no shards: a plain histogram ranked by
    /// [`EventDictionary::from_counts`], the first `per_event` occurrences
    /// of each name, and [`Sessionizer::sessionize`] +
    /// [`SessionSequence::encode`] cut into files of `records_per_file`.
    fn expected_artifacts(
        day: u64,
        events: &[ClientEvent],
        per_event: usize,
        records_per_file: usize,
    ) -> Vec<(String, Vec<Vec<u8>>)> {
        let mut counts: BTreeMap<EventName, u64> = BTreeMap::new();
        let mut samples: BTreeMap<EventName, Vec<Vec<u8>>> = BTreeMap::new();
        for ev in events {
            *counts.entry(ev.name.clone()).or_insert(0) += 1;
            let bucket = samples.entry(ev.name.clone()).or_default();
            if bucket.len() < per_event {
                bucket.push(ev.to_bytes());
            }
        }
        let dict = EventDictionary::from_counts(counts.into_iter().collect());
        let sequences: Vec<Vec<u8>> = Sessionizer::new()
            .sessionize(events.to_vec())
            .iter()
            .map(|s| SessionSequence::encode(s, &dict).unwrap().to_bytes())
            .collect();
        let mut out: Vec<(String, Vec<Vec<u8>>)> = sequences
            .chunks(records_per_file)
            .enumerate()
            .map(|(part, chunk)| {
                let path = sequences_dir(day)
                    .child(&format!("part-{part:05}"))
                    .unwrap();
                (path.as_str().to_string(), chunk.to_vec())
            })
            .collect();
        let dir = dictionary_dir(day);
        out.push((
            dir.child("dictionary").unwrap().as_str().to_string(),
            dict.to_records(),
        ));
        out.push((
            dir.child("samples").unwrap().as_str().to_string(),
            samples.into_values().flatten().collect(),
        ));
        out
    }

    /// A day whose files each span several scan units and whose second hour
    /// mixes layouts: hour 0 is one row file, hour 1 a columnar file plus a
    /// row sibling. Returns the events in scan order.
    fn fixture_mixed(wh: &Warehouse) -> Vec<ClientEvent> {
        let actions = ["impression", "click", "impression", "follow", "hover"];
        let day: Vec<Vec<ClientEvent>> = (0..2u64)
            .map(|hour| {
                let mut events = hour_events(hour, 24, 20);
                for (i, ev) in events.iter_mut().enumerate() {
                    let action = actions[(i * 7 + i / 11) % actions.len()];
                    ev.name = n(&format!("web:home:home:stream:tweet:{action}"));
                }
                events
            })
            .collect();
        write_row_file(wh, 0, "part-00000", &day[0]);
        let (columnar, row) = day[1].split_at(day[1].len() / 2);
        write_columnar_file(wh, 1, "part-00000", columnar);
        write_row_file(wh, 1, "part-00001", row);
        for hour in 0..2 {
            let dir = HourlyPartition::from_hour_index(CLIENT_EVENTS_CATEGORY, hour).main_dir();
            for path in wh.list_files_recursive(&dir).unwrap() {
                let units = ScanFile::open(wh, &path).unwrap().units();
                assert!(units >= 3, "{path} has only {units} scan units");
            }
        }
        day.concat()
    }

    #[test]
    fn materialized_output_is_byte_identical_across_worker_counts() {
        // One worker and many run the same shards, so comparing them only
        // proves scheduling independence. The reference here is computed
        // from the event list itself, which the pool cannot influence.
        let mut expected = None;
        for workers in [1usize, 4, 8] {
            // Small blocks so every row file spans several units; a small
            // file cap so several part files exist.
            let wh = Warehouse::with_block_capacity(4096);
            let events = fixture_mixed(&wh);
            let mut m = Materializer::new(wh.clone()).with_parallelism(Parallelism::fixed(workers));
            m.records_per_file = 7;
            let report = m.run_day(0).unwrap();
            assert_eq!(report.events, events.len() as u64);
            assert_eq!(report.skipped, 0);
            let expected = expected.get_or_insert_with(|| {
                expected_artifacts(0, &events, m.samples_per_event, m.records_per_file as usize)
            });
            assert!(
                expected.len() >= 5,
                "several part files plus the dictionary"
            );
            assert_eq!(
                &day_artifacts(&wh, 0),
                expected,
                "materialized files diverged from the event list at {workers} workers"
            );
        }
    }

    /// Regression: pass 1 used to scan at full width while pass 2 reads five
    /// columns, so a row whose `details` cell does not decode was sessionized
    /// but never counted — its name missing from the same-day dictionary,
    /// its session dropped (a `debug_assert` in debug builds).
    #[test]
    fn a_row_with_undecodable_details_is_counted_and_sessionized_but_not_sampled() {
        use crate::columnar::{client_event_cells, CLIENT_EVENT_KINDS};
        use uli_warehouse::ColumnarFileWriter;
        let garbled = n("web:home:home:stream:tweet:garbled");
        let impression = n("web:home:home:stream:tweet:impression");
        // 4 users × 10 events, and one more user whose only event is the one
        // `garbled`. Its details cell is garbage, and so is that of the
        // day's second impression.
        let mut events = hour_events(0, 4, 10);
        events.push(ClientEvent::new(
            EventInitiator::CLIENT_USER,
            garbled.clone(),
            99,
            "s-99",
            "10.0.0.1",
            Timestamp::from_hour_index(0).plus(77),
        ));
        let impressions: Vec<usize> = (0..events.len())
            .filter(|i| events[*i].name == impression)
            .collect();
        let bad_rows = [impressions[1], events.len() - 1];
        for workers in [1usize, 4] {
            let wh = Warehouse::new();
            let dir = HourlyPartition::from_hour_index(CLIENT_EVENTS_CATEGORY, 0).main_dir();
            // Groups of 8, so candidates sit in several units of two files.
            for (part, rows) in [(0, 0..20), (1, 20..events.len())] {
                let path = dir.child(&format!("part-{part:05}")).unwrap();
                let mut w =
                    ColumnarFileWriter::create(&wh, &path, &CLIENT_EVENT_KINDS, 8, None).unwrap();
                for i in rows {
                    let cells = client_event_cells(&events[i]);
                    let mut refs: Vec<&[u8]> = cells.iter().map(Vec::as_slice).collect();
                    if bad_rows.contains(&i) {
                        refs[6] = &[5];
                    }
                    w.append_row(&refs);
                }
                w.finish().unwrap();
            }
            let m = Materializer::new(wh.clone()).with_parallelism(Parallelism::fixed(workers));
            let dict = m.build_dictionary(0).unwrap();
            let rank = dict.rank_of(&garbled).expect("counted by name alone");
            assert_eq!(dict.count_of(rank), Some(1));
            let impression_rank = dict.rank_of(&impression).unwrap();
            assert_eq!(dict.count_of(impression_rank), Some(32));

            let report = m.materialize_sequences(0, &dict).unwrap();
            assert_eq!(report.events, events.len() as u64);
            assert_eq!(report.sessions, 5, "the garbled row's session included");
            let streamed = m
                .materialize_sequences_streaming(0, &dict, DEFAULT_MEM_BUDGET)
                .unwrap();
            assert_eq!(streamed.sessions, 5);

            // The first three rows of each name are its candidates; one that
            // does not decode at full width leaves a gap, not a shift.
            let samples = m.load_samples(0).unwrap();
            let sampled = |name: &EventName| -> Vec<ClientEvent> {
                samples
                    .iter()
                    .filter(|s| s.name == *name)
                    .cloned()
                    .collect()
            };
            assert_eq!(sampled(&garbled), []);
            assert_eq!(
                sampled(&impression),
                [
                    events[impressions[0]].clone(),
                    events[impressions[2]].clone()
                ]
            );
            let click = n("web:home:home:stream:tweet:click");
            let clicks: Vec<ClientEvent> = events
                .iter()
                .filter(|ev| ev.name == click)
                .take(3)
                .cloned()
                .collect();
            assert_eq!(sampled(&click), clicks);
        }
    }

    /// The same fixture events, landed columnar instead of row-format.
    fn fixture_columnar(wh: &Warehouse, day: u64, users: i64, events_per_user: usize) -> u64 {
        let mut total = 0;
        for hour in day * 24..day * 24 + 2 {
            let events = hour_events(hour, users, events_per_user);
            write_columnar_file(wh, hour, "part-00000", &events);
            total += events.len() as u64;
        }
        total
    }

    #[test]
    fn columnar_landings_materialize_identically_to_row_landings() {
        // Same events, both layouts, every worker count: dictionary,
        // samples, and sequence files must all come out byte-identical.
        let baseline = {
            let wh = Warehouse::new();
            fixture(&wh, 0, 12, 20);
            Materializer::new(wh.clone())
                .with_parallelism(Parallelism::serial())
                .run_day(0)
                .unwrap();
            day_artifacts(&wh, 0)
        };
        for workers in [1usize, 4, 8] {
            let wh = Warehouse::new();
            let total = fixture_columnar(&wh, 0, 12, 20);
            let m = Materializer::new(wh.clone()).with_parallelism(Parallelism::fixed(workers));
            let report = m.run_day(0).unwrap();
            assert_eq!(report.events, total);
            assert_eq!(report.skipped, 0);
            assert_eq!(
                day_artifacts(&wh, 0),
                baseline,
                "columnar landing must materialize identically at {workers} workers"
            );
        }
    }

    #[test]
    fn streaming_materialize_matches_batch_at_any_worker_count() {
        // Sessions that straddle hour boundaries (events 1s apart across
        // the hour edge) exercise the watermark window, and 24 users give
        // the batch shards real work. The streaming output must be
        // byte-identical to every batch configuration.
        let reference = {
            let wh = Warehouse::new();
            fixture(&wh, 0, 24, 20);
            let m = Materializer::new(wh.clone()).with_parallelism(Parallelism::serial());
            m.run_day(0).unwrap();
            day_artifacts(&wh, 0)
        };
        for workers in [1usize, 4, 8] {
            let wh = Warehouse::new();
            fixture(&wh, 0, 24, 20);
            let m = Materializer::new(wh.clone()).with_parallelism(Parallelism::fixed(workers));
            let dict = m.build_dictionary(0).unwrap();
            let report = m
                .materialize_sequences_streaming(0, &dict, DEFAULT_MEM_BUDGET)
                .unwrap();
            assert!(report.sessions > 0);
            assert_eq!(
                report.spill_runs, 0,
                "a fixture this small must not spill at the default budget"
            );
            assert_eq!(
                day_artifacts(&wh, 0),
                reference,
                "streaming output diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn streaming_materialize_spills_under_budget_and_stays_identical() {
        let reference = {
            let wh = Warehouse::new();
            fixture(&wh, 0, 24, 20);
            Materializer::new(wh.clone()).run_day(0).unwrap();
            day_artifacts(&wh, 0)
        };
        let wh = Warehouse::new();
        fixture(&wh, 0, 24, 20);
        let m = Materializer::new(wh.clone());
        let dict = m.build_dictionary(0).unwrap();
        let budget = 2048;
        let report = m.materialize_sequences_streaming(0, &dict, budget).unwrap();
        assert!(report.spill_runs > 0, "tiny budget must force spills");
        assert!(report.spill_bytes > 0);
        assert!(report.mem_high_water_bytes <= budget);
        assert_eq!(day_artifacts(&wh, 0), reference);
        // Scratch runs are cleaned up even though we spilled.
        let spill_root = uli_warehouse::spill_root();
        assert!(
            !wh.exists(&spill_root) || wh.list_files_recursive(&spill_root).unwrap().is_empty(),
            "spill scratch files survived materialization"
        );
    }

    #[test]
    fn streaming_materialize_session_splits_match_batch_across_hours() {
        // A session idle for > gap inside the day must split identically in
        // both paths, including when the split crosses an hour boundary.
        let wh = Warehouse::new();
        let dir0 = HourlyPartition::from_hour_index(CLIENT_EVENTS_CATEGORY, 0).main_dir();
        let mut w = wh.create(&dir0.child("part-00000").unwrap()).unwrap();
        // Two bursts in hour 0 separated by > 30 min, then a burst in hour 2.
        for (t, action) in [
            (0, "click"),
            (1000, "impression"),
            (40 * 60 * 1000, "click"),
        ] {
            let ev = ClientEvent::new(
                EventInitiator::CLIENT_USER,
                n(&format!("web:home:home:stream:tweet:{action}")),
                7,
                "s-weird",
                "10.0.0.1",
                Timestamp(t),
            );
            w.append_record(&ev.to_bytes());
        }
        w.finish().unwrap();
        let dir2 = HourlyPartition::from_hour_index(CLIENT_EVENTS_CATEGORY, 2).main_dir();
        let mut w = wh.create(&dir2.child("part-00000").unwrap()).unwrap();
        let ev = ClientEvent::new(
            EventInitiator::CLIENT_USER,
            n("web:home:home:stream:tweet:follow"),
            7,
            "s-weird",
            "10.0.0.1",
            Timestamp::from_hour_index(2).plus(5000),
        );
        w.append_record(&ev.to_bytes());
        w.finish().unwrap();

        let m = Materializer::new(wh.clone());
        let dict = m.build_dictionary(0).unwrap();
        let batch = m.materialize_sequences(0, &dict).unwrap();
        let batch_files = day_artifacts(&wh, 0);
        let streaming = m
            .materialize_sequences_streaming(0, &dict, DEFAULT_MEM_BUDGET)
            .unwrap();
        assert_eq!(batch.sessions, 3, "two idle gaps → three sessions");
        assert_eq!(streaming.sessions, batch.sessions);
        assert_eq!(day_artifacts(&wh, 0), batch_files);
    }

    #[test]
    fn sharded_sessionize_matches_serial_on_interleaved_users() {
        // Interleave users within each scan shard so every partition gets
        // events from every shard.
        let shards: Vec<Vec<ClientEvent>> = (0..2u64)
            .map(|hour| {
                let mut events = hour_events(hour, 17, 9);
                events.sort_by_key(|ev| ev.timestamp);
                events
            })
            .collect();
        let expected = Sessionizer::new().sessionize(shards.concat());
        let shards: Vec<Vec<SessionEvent>> = shards
            .into_iter()
            .map(|shard| shard.into_iter().map(SessionEvent::from).collect())
            .collect();
        for workers in [1usize, 2, 4, 8] {
            let m =
                Materializer::new(Warehouse::new()).with_parallelism(Parallelism::fixed(workers));
            assert_eq!(
                m.sessionize_sharded(shards.clone()),
                expected,
                "{workers} workers"
            );
        }
    }

    #[test]
    fn directory_helpers_follow_the_calendar() {
        assert_eq!(
            day_dir(CLIENT_EVENTS_CATEGORY, 0).as_str(),
            "/logs/client_events/2012/08/01"
        );
        assert_eq!(sequences_dir(0).as_str(), "/session_sequences/2012/08/01");
        assert_eq!(dictionary_dir(1).as_str(), "/event_dictionary/2012/08/02");
    }
}
