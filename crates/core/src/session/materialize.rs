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
    Cell, ColumnarFileWriter, ExternalByteSorter, HourlyPartition, MemoryTracker, Parallelism,
    ScanFile, ScanPool, Warehouse, WarehouseError, WarehouseResult, WhPath, DEFAULT_MEM_BUDGET,
};

use super::dictionary::{char_for_rank, EventDictionary};
use super::sequence::SESSION_SEQUENCE_KINDS;
use crate::client_event::{ClientEvent, CLIENT_EVENTS_CATEGORY};
use crate::columnar::{
    event_columns, for_each_event_row, EventColumns, EventRow, RowAt, ALL_COLUMNS,
    DEFAULT_ROWS_PER_GROUP, IP_COLUMN, NAME_COLUMN, SESSION_COLUMN, TIMESTAMP_COLUMN, USER_COLUMN,
};
use crate::event::EventName;
use crate::time::{Timestamp, SESSION_GAP_MS};

/// Flips the sign bit, so that big-endian bytes order as the signed value.
const SIGN: u64 = 1 << 63;

/// Order-preserving byte key of one event: sorting these keys as raw bytes
/// is "group by user id, session id … order by timestamp" (§4.2), groups in
/// the output order `(user_id, session_id)`. Signed fields flip their sign
/// bit so two's complement orders correctly; the session id NUL-escapes
/// (`00 → 00 FF`, terminator `00 00`) so a short id sorts before any
/// extension of it.
fn session_sort_key(user_id: i64, session_id: &str, timestamp: i64) -> Vec<u8> {
    let mut key = Vec::with_capacity(18 + session_id.len());
    key.extend_from_slice(&((user_id as u64) ^ SIGN).to_be_bytes());
    for b in session_id.bytes() {
        if b == 0 {
            key.extend_from_slice(&[0x00, 0xff]);
        } else {
            key.push(b);
        }
    }
    key.extend_from_slice(&[0x00, 0x00]);
    key.extend_from_slice(&((timestamp as u64) ^ SIGN).to_be_bytes());
    key
}

/// A sort key or payload [`sort_entry`] cannot have written.
const CORRUPT_ENTRY: WarehouseError = WarehouseError::Corrupt("session sort entry");

/// Splits a [`session_sort_key`] into its group — the `(user_id,
/// session_id)` prefix, equal exactly for events of one group — and its
/// timestamp.
fn split_sort_key(key: &[u8]) -> WarehouseResult<(&[u8], Timestamp)> {
    let (group, timestamp) = key.split_last_chunk::<8>().ok_or(CORRUPT_ENTRY)?;
    let millis = (u64::from_be_bytes(*timestamp) ^ SIGN) as i64;
    Ok((group, Timestamp(millis)))
}

/// The `(user_id, session_id)` a group prefix encodes: returns the user and
/// leaves the session id, checked to be UTF-8, in `session`.
fn decode_group(group: &[u8], session: &mut Vec<u8>) -> WarehouseResult<i64> {
    let (user, escaped) = group.split_first_chunk::<8>().ok_or(CORRUPT_ENTRY)?;
    let mut escaped = escaped.strip_suffix(&[0, 0]).ok_or(CORRUPT_ENTRY)?.iter();
    session.clear();
    while let Some(&b) = escaped.next() {
        if b == 0 && escaped.next() != Some(&0xff) {
            return Err(CORRUPT_ENTRY);
        }
        session.push(b);
    }
    std::str::from_utf8(session).map_err(|_| CORRUPT_ENTRY)?;
    Ok((u64::from_be_bytes(*user) ^ SIGN) as i64)
}

/// What the event sort carries of one event: its [`session_sort_key`], and
/// as payload its name's dictionary rank (`u32`, big-endian; `u32::MAX`,
/// which no dictionary holds, for a name the dictionary lacks) and its ip.
fn sort_entry(row: &EventRow<'_>, dict: &EventDictionary) -> WarehouseResult<(Vec<u8>, Vec<u8>)> {
    let key = session_sort_key(row.user_id()?, row.session_id()?, row.timestamp()?.millis());
    let ip = row.ip()?;
    let mut payload = Vec::with_capacity(4 + ip.len());
    payload.extend_from_slice(
        &dict
            .rank_of_str(row.name()?)
            .unwrap_or(u32::MAX)
            .to_be_bytes(),
    );
    payload.extend_from_slice(ip.as_bytes());
    Ok((key, payload))
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
    /// Runs of sorted events pass 2 spilled to scratch files.
    pub spill_runs: u64,
    /// Bytes written to spill runs.
    pub spill_bytes: u64,
    /// Peak tracked memory of pass 2's event sort, bytes.
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
    /// Worker threads for the scan shards. Any worker count produces
    /// byte-identical output (shards merge in scan order); one worker runs
    /// the same shards inline.
    parallelism: Parallelism,
    /// What pass 2's event sort may buffer before it spills a run.
    mem_budget: u64,
    /// Samples of each event type retained for the catalog.
    samples_per_event: usize,
    /// Records per output part file.
    records_per_file: u64,
}

/// What pass 2 reads of an event: what a session is made of, nothing else.
const SESSION_COLUMNS: EventColumns = event_columns([
    NAME_COLUMN,
    USER_COLUMN,
    SESSION_COLUMN,
    IP_COLUMN,
    TIMESTAMP_COLUMN,
]);

/// The session the merge walk of pass 2 is in. The walk keeps one and
/// refills it as each session opens, so a session allocates nothing.
#[derive(Default)]
struct OpenSession {
    /// The group prefix of its events' sort keys.
    group: Vec<u8>,
    /// Ip of its first event.
    ip: String,
    /// Its events' code points so far.
    sequence: String,
    /// False once one of its events had no rank.
    encoded: bool,
    start: Timestamp,
    last: Timestamp,
}

impl OpenSession {
    /// Starts the session of `group` at an event of `ip` at `start`.
    fn reopen(&mut self, group: &[u8], ip: &[u8], start: Timestamp) -> WarehouseResult<()> {
        self.group.clear();
        self.group.extend_from_slice(group);
        self.ip.clear();
        self.ip
            .push_str(std::str::from_utf8(ip).map_err(|_| CORRUPT_ENTRY)?);
        self.sequence.clear();
        self.encoded = true;
        self.start = start;
        self.last = start;
        Ok(())
    }
}

/// The `part-NNNNN` files of one day's relation, written in order, each a
/// columnar file of [`SESSION_SEQUENCE_KINDS`].
struct PartFiles<'a> {
    warehouse: &'a Warehouse,
    dir: &'a WhPath,
    records_per_file: u64,
    writer: Option<ColumnarFileWriter>,
    files: u64,
    records: u64,
    /// The session id of the session being appended, unescaped.
    session_id: Vec<u8>,
}

impl PartFiles<'_> {
    /// Appends a closed session as one row.
    fn append_session(&mut self, session: &OpenSession) -> WarehouseResult<()> {
        if !session.encoded {
            // Dictionary built from the same scan covers every event;
            // reaching here means passes saw different data.
            debug_assert!(false, "event missing from same-day dictionary");
            return Ok(());
        }
        let user_id = decode_group(&session.group, &mut self.session_id)?;
        let duration_secs = session.last.since(session.start) / 1000;
        if self.writer.is_none() {
            let path = self.dir.child(&format!("part-{:05}", self.files));
            self.writer = Some(ColumnarFileWriter::create(
                self.warehouse,
                &path.expect("valid"),
                &SESSION_SEQUENCE_KINDS,
                DEFAULT_ROWS_PER_GROUP,
                None,
            )?);
            self.files += 1;
        }
        let cells = [
            Cell::Int(user_id),
            Cell::Bytes(&self.session_id),
            Cell::Bytes(session.ip.as_bytes()),
            Cell::Bytes(session.sequence.as_bytes()),
            Cell::Int(duration_secs),
        ];
        let writer = self.writer.as_mut().expect("created above");
        writer.append_row(&cells, None);
        self.records += 1;
        if self.records.is_multiple_of(self.records_per_file) {
            self.writer.take().expect("present").finish()?;
        }
        Ok(())
    }
}

impl Materializer {
    /// A materializer with the standard 30-minute inactivity gap, under the
    /// default operator memory budget.
    pub fn new(warehouse: Warehouse) -> Materializer {
        Materializer {
            warehouse,
            parallelism: Parallelism::default(),
            mem_budget: DEFAULT_MEM_BUDGET,
            samples_per_event: 3,
            records_per_file: 100_000,
        }
    }

    /// Sets the scan worker count.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Materializer {
        self.parallelism = parallelism;
        self
    }

    /// Sets what pass 2's event sort may buffer before it spills a run.
    /// The part files do not depend on it.
    pub fn with_mem_budget(mut self, budget: u64) -> Materializer {
        self.mem_budget = budget;
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

    /// Pass 2: reconstruct sessions, encode, and write the relation under
    /// [`sequences_dir`]. Requires the dictionary from pass 1.
    ///
    /// Sessionization is an external sort of the day's events. Each hour's
    /// files are scanned on the pool and, in scan order, every event goes
    /// into the budgeted sorter as one entry — an order-preserving key of
    /// `(user_id, session_id, timestamp)`, a payload of dictionary rank and
    /// ip; the sort is stable, so events of one group with one timestamp
    /// keep scan order. One walk of
    /// the merged stream then splits it wherever the group changes or the
    /// inactivity gap is exceeded, and each session is encoded and written
    /// as it closes — in `(user_id, session_id, start)` order, because that
    /// is the order of the sort. Nothing is assumed of which hour directory
    /// an event landed in (an aggregator that buffered through a staging
    /// outage lands it under a later hour), the day is never in memory, and
    /// the part files depend on neither the worker count nor the budget.
    pub fn materialize_sequences(
        &self,
        day_index: u64,
        dict: &EventDictionary,
    ) -> WarehouseResult<MaterializeReport> {
        let tracker = MemoryTracker::with_budget(self.mem_budget);
        let mut sorter =
            ExternalByteSorter::new(self.warehouse.clone(), tracker.clone(), "sessionize");
        let pool = ScanPool::new(self.parallelism);
        let (mut events, mut skipped) = (0, 0);
        for hour in day_index * 24..(day_index + 1) * 24 {
            let scanned = pool.map(self.hour_files(hour)?, |_, path| {
                let mut entries = Vec::new();
                let counts = self.scan_file(&path, SESSION_COLUMNS, |row| {
                    entries.push(sort_entry(row, dict)?);
                    Ok(())
                })?;
                Ok::<_, WarehouseError>((entries, counts))
            });
            for file in scanned {
                let (entries, counts) = file?;
                events += counts.0;
                skipped += counts.1;
                for (key, payload) in entries {
                    sorter.push(key, payload)?;
                }
            }
        }

        let dir = sequences_dir(day_index);
        if self.warehouse.exists(&dir) {
            self.warehouse.delete_dir(&dir)?;
        }
        let mut parts = PartFiles {
            warehouse: &self.warehouse,
            dir: &dir,
            records_per_file: self.records_per_file,
            writer: None,
            files: 0,
            records: 0,
            session_id: Vec::new(),
        };
        let mut sorted = sorter.finish()?;
        let mut open: Option<OpenSession> = None;
        while let Some((key, payload)) = sorted.next_entry()? {
            let (group, timestamp) = split_sort_key(&key)?;
            let (rank, ip) = payload.split_first_chunk::<4>().ok_or(CORRUPT_ENTRY)?;
            let continues = open.as_ref().is_some_and(|session| {
                session.group == group && timestamp.since(session.last) <= SESSION_GAP_MS
            });
            if !continues {
                if let Some(closed) = &open {
                    parts.append_session(closed)?;
                }
                open.get_or_insert_with(OpenSession::default)
                    .reopen(group, ip, timestamp)?;
            }
            let session = open.as_mut().expect("opened above");
            session.last = timestamp;
            match char_for_rank(u32::from_be_bytes(*rank)) {
                Some(code) if session.encoded => session.sequence.push(code),
                _ => session.encoded = false,
            }
        }
        if let Some(closed) = &open {
            parts.append_session(closed)?;
        }
        if let Some(w) = parts.writer.take() {
            w.finish()?;
        } else if parts.files == 0 {
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
            sessions: parts.records,
            raw_uncompressed_bytes: raw.uncompressed_bytes,
            raw_compressed_bytes: raw.compressed_bytes,
            sequences_compressed_bytes: seq_meta.compressed_bytes,
            files_written: parts.files,
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
    use crate::session::{SessionSequence, Sessionizer};
    use uli_warehouse::ColumnarFile;

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

    /// The sessions of one part file, each as its row-format record.
    fn part_file_records(wh: &Warehouse, path: &WhPath) -> Vec<Vec<u8>> {
        let file = ColumnarFile::open(wh, path).unwrap();
        let mut out = Vec::new();
        for g in 0..file.group_count() {
            let group = file.read_group(g, &[true; 5]).unwrap();
            for row in 0..group.rows() {
                let column = |col| group.column(col).unwrap();
                let int = |col| column(col).int(row).unwrap();
                let text = |col| file.resolve(column(col), row).unwrap().to_vec();
                let text = |col| String::from_utf8(text(col)).unwrap();
                let session = SessionSequence {
                    user_id: int(0),
                    session_id: text(1),
                    ip: text(2),
                    sequence: text(3),
                    duration_secs: int(4),
                };
                out.push(session.to_bytes());
            }
        }
        out
    }

    /// Every persisted artifact of a day, as `(path, records)` pairs: each
    /// part file's sessions as [`part_file_records`], the dictionary's and
    /// samples' records as stored.
    fn day_artifacts(wh: &Warehouse, day: u64) -> Vec<(String, Vec<Vec<u8>>)> {
        let mut out = Vec::new();
        for file in wh.list_files_recursive(&sequences_dir(day)).unwrap() {
            out.push((file.as_str().to_string(), part_file_records(wh, &file)));
        }
        for file in wh.list_files_recursive(&dictionary_dir(day)).unwrap() {
            let records = wh.open(&file).unwrap().read_all().unwrap();
            out.push((file.as_str().to_string(), records));
        }
        out
    }

    /// Every part file of a day and the digest of its stored bytes.
    fn part_file_digests(wh: &Warehouse, day: u64) -> Vec<(WhPath, u64)> {
        let files = wh.list_files_recursive(&sequences_dir(day)).unwrap();
        files
            .into_iter()
            .map(|file| {
                let digest = wh.file_digest(&file).unwrap();
                (file, digest)
            })
            .collect()
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
        let mut stored = None;
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
            let digests = part_file_digests(&wh, 0);
            assert_eq!(
                stored.get_or_insert_with(|| digests.clone()),
                &digests,
                "part files' bytes diverged at {workers} workers"
            );
        }
    }

    /// Regression: pass 1 used to scan at full width while pass 2 reads five
    /// columns, so a row whose `details` cell does not decode was sessionized
    /// but never counted — its name missing from the same-day dictionary,
    /// its session dropped (a `debug_assert` in debug builds).
    #[test]
    fn a_row_with_undecodable_details_is_counted_and_sessionized_but_not_sampled() {
        use crate::columnar::test_support::write_with_bad_cells;
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
                let bad: Vec<usize> = (rows.clone())
                    .filter(|i| bad_rows.contains(i))
                    .map(|i| i - rows.start)
                    .collect();
                write_with_bad_cells(&wh, &path, &events[rows], 8, (6, &[5], &bad));
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

    fn spill_scratch_is_empty(wh: &Warehouse) -> bool {
        let root = uli_warehouse::spill_root();
        !wh.exists(&root) || wh.list_files_recursive(&root).unwrap().is_empty()
    }

    /// Runs both passes over `wh` at every worker count and budget and holds
    /// the persisted files to [`expected_artifacts`] of `events` (the day in
    /// scan order). A `tight` budget must spill, stay under itself and leave
    /// no scratch file; the other two never spill a day this small.
    fn assert_materializes_as_the_whole_day_does(
        wh: &Warehouse,
        events: &[ClientEvent],
        tight: u64,
    ) -> MaterializeReport {
        let mut last = None;
        let mut stored = None;
        for workers in [1usize, 2, 4, 8] {
            for budget in [tight, DEFAULT_MEM_BUDGET, u64::MAX] {
                let mut m = Materializer::new(wh.clone())
                    .with_parallelism(Parallelism::fixed(workers))
                    .with_mem_budget(budget);
                m.records_per_file = 7;
                let report = m.run_day(0).unwrap();
                let expected = expected_artifacts(0, events, m.samples_per_event, 7);
                assert_eq!(
                    day_artifacts(wh, 0),
                    expected,
                    "{workers} workers, budget {budget}"
                );
                let digests = part_file_digests(wh, 0);
                assert_eq!(
                    stored.get_or_insert_with(|| digests.clone()),
                    &digests,
                    "part files' bytes: {workers} workers, budget {budget}"
                );
                assert_eq!(report.events, events.len() as u64);
                assert!(report.mem_high_water_bytes <= budget);
                assert_eq!(report.spill_runs > 0, budget == tight, "budget {budget}");
                assert_eq!(report.spill_bytes > 0, budget == tight);
                assert!(spill_scratch_is_empty(wh), "scratch runs survived pass 2");
                last = Some(report);
            }
        }
        last.expect("ran")
    }

    fn weird(t: Timestamp, action: &str) -> ClientEvent {
        ClientEvent::new(
            EventInitiator::CLIENT_USER,
            n(&format!("web:home:home:stream:tweet:{action}")),
            7,
            "s-weird",
            "10.0.0.1",
            t,
        )
    }

    /// `Aggregator::flush` lands what it buffered through a staging outage
    /// under the hour of the flush, so an hour directory can hold an event
    /// stamped hours earlier. A pass 2 that sealed a run once the hour
    /// watermark had passed it by the gap cut this day into three sessions.
    #[test]
    fn a_late_arrival_joins_the_session_its_timestamp_puts_it_in() {
        let minute = 60 * 1000;
        let hour0 = [
            weird(Timestamp(0), "click"),
            weird(Timestamp(20 * minute), "impression"),
        ];
        let hour2 = [
            weird(Timestamp(10 * minute), "follow"),
            weird(Timestamp::from_hour_index(2).plus(5000), "hover"),
        ];
        let wh = Warehouse::new();
        write_row_file(&wh, 0, "part-00000", &hour0);
        write_row_file(&wh, 2, "part-00000", &hour2);
        let events = [hour0, hour2].concat();
        // 150 bytes hold two of these entries: every other event is a run.
        let report = assert_materializes_as_the_whole_day_does(&wh, &events, 150);
        assert_eq!(report.sessions, 2, "the late event is inside the first");
        let first = &day_artifacts(&wh, 0)[0].1[0];
        let first = SessionSequence::from_bytes(first).unwrap();
        assert_eq!(first.sequence.chars().count(), 3);
        assert_eq!(first.duration_secs, 20 * 60);
    }

    #[test]
    fn idle_gaps_split_a_session_within_and_across_hours() {
        // Two bursts in hour 0 separated by > 30 min, then a burst in hour 2.
        let hour0 = [
            weird(Timestamp(0), "click"),
            weird(Timestamp(1000), "impression"),
            weird(Timestamp(40 * 60 * 1000), "click"),
        ];
        let hour2 = [weird(Timestamp::from_hour_index(2).plus(5000), "follow")];
        let wh = Warehouse::new();
        write_row_file(&wh, 0, "part-00000", &hour0);
        write_row_file(&wh, 2, "part-00000", &hour2);
        let events = [&hour0[..], &hour2[..]].concat();
        let report = assert_materializes_as_the_whole_day_does(&wh, &events, 150);
        assert_eq!(report.sessions, 3, "two idle gaps → three sessions");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// A day whose users interleave within every file and whose sessions
        /// straddle the hour edge (events 1 s apart across it), with a random
        /// share of each hour's events displaced into a file of a later hour
        /// directory — the shape a staging outage leaves. Whatever moved
        /// where, every worker count and budget writes what whole-day
        /// [`Sessionizer::sessionize`] + [`SessionSequence::encode`] make of
        /// the events.
        #[test]
        fn displaced_events_sessionize_as_the_whole_day_does(
            users in 3i64..18,
            per_user in 2usize..10,
            displaced in proptest::collection::vec((0usize..1000, 1u64..4), 0..40),
        ) {
            let mut hours: Vec<Vec<ClientEvent>> = (0..3u64)
                .map(|hour| {
                    let mut events = hour_events(hour, users, per_user);
                    events.sort_by_key(|ev| ev.timestamp);
                    events
                })
                .collect();
            let mut late: Vec<Vec<ClientEvent>> = vec![Vec::new(); 6];
            for (pick, later) in displaced {
                let hour = pick % 3;
                let on_time = &mut hours[hour];
                if on_time.len() > 1 {
                    let ev = on_time.remove(pick % on_time.len());
                    late[hour + later as usize].push(ev);
                }
            }
            let wh = Warehouse::new();
            let mut scan_order = Vec::new();
            for (hour, late) in late.iter().enumerate() {
                if let Some(on_time) = hours.get(hour) {
                    write_row_file(&wh, hour as u64, "part-00000", on_time);
                    scan_order.extend_from_slice(on_time);
                }
                if !late.is_empty() {
                    write_columnar_file(&wh, hour as u64, "part-00001", late);
                    scan_order.extend_from_slice(late);
                }
            }
            assert_materializes_as_the_whole_day_does(&wh, &scan_order, 512);
        }
    }

    #[test]
    fn sort_keys_order_as_the_tuples_they_encode_and_decode_back() {
        let users = [i64::MIN, -1, 0, 1, i64::MAX];
        let sessions = ["", "a", "a\0", "a\0b", "a\u{1}", "ab", "é"];
        let times = [i64::MIN, -5, 0, 5, i64::MAX];
        let mut tuples = Vec::new();
        for user in users {
            for session in sessions {
                for t in times {
                    tuples.push((user, session, t));
                }
            }
        }
        let keys: Vec<Vec<u8>> = tuples
            .iter()
            .map(|(user, session, t)| session_sort_key(*user, session, *t))
            .collect();
        for (a, ka) in tuples.iter().zip(&keys) {
            for (b, kb) in tuples.iter().zip(&keys) {
                assert_eq!(a.cmp(b), ka.cmp(kb), "{a:?} vs {b:?}");
            }
            let (group, t) = split_sort_key(ka).unwrap();
            assert_eq!(t, Timestamp(a.2));
            let mut session = Vec::new();
            assert_eq!(decode_group(group, &mut session), Ok(a.0));
            assert_eq!(session, a.1.as_bytes());
        }
        for damaged in [
            &b"short"[..],
            &[0; 9],
            &[0, 0, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0],
        ] {
            assert_eq!(decode_group(damaged, &mut Vec::new()), Err(CORRUPT_ENTRY));
        }
        assert_eq!(split_sort_key(b"1234567"), Err(CORRUPT_ENTRY));
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
