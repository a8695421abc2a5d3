//! The programmatic query front-end.
//!
//! [`ServeHandle`] answers point lookups by consulting the hour indexes,
//! pruning to the posted row groups, and decoding only those — never a
//! full-day scan. Answers are byte-identical to the batch dataflow
//! engine's over the same delivered hours (the serving layer's contract,
//! pinned by `crate::batch` and the equivalence suite): rows take exactly
//! the tuple shape `ClientEventLoader::parse` produces, in exactly the
//! engine's scan order (files sorted, groups ascending, rows in order).

use std::sync::{Arc, Mutex};

use uli_core::columnar::{for_each_event_row_where, ALL_COLUMNS, USER_COLUMN};
use uli_core::{ClientEvent, EventRow, SessionRecord, Sessionizer};
use uli_dataflow::{BlockPruner, Tuple, Value};
use uli_obs::lock;
use uli_warehouse::{HourlyPartition, ScanFile, Warehouse, WarehouseResult};

use crate::hour::{by_file, HourIndex};
use crate::maintain::Inner;
use crate::pruner::PostingsPruner;

/// What one lookup cost, in the decoded-bytes currency the cost model and
/// E22 use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LookupStats {
    /// Uncompressed bytes decoded to answer (the ≥50× reduction target).
    pub decoded_bytes: u64,
    /// Row groups actually read.
    pub groups_read: u64,
    /// Row groups the index proved irrelevant and skipped.
    pub groups_pruned: u64,
    /// Files opened.
    pub files_visited: u64,
}

/// One answered lookup: rows in the engine's tuple shape, plus cost.
#[derive(Debug, Clone, Default)]
pub struct ServeAnswer {
    /// Result rows, byte-identical to the batch engine's.
    pub rows: Vec<Tuple>,
    /// What answering cost.
    pub stats: LookupStats,
}

/// Converts a decoded event into the exact tuple
/// [`uli_core::ClientEventLoader`] produces, so serve rows compare
/// byte-identical to engine rows.
pub fn event_tuple(ev: ClientEvent) -> Tuple {
    let details = ev
        .details
        .iter()
        .map(|(k, v)| (k.to_string(), Value::str(v)))
        .collect();
    vec![
        Value::Str(ev.initiator.to_string()),
        Value::Str(ev.name.as_str().to_string()),
        Value::Int(ev.user_id),
        Value::Str(ev.session_id),
        Value::Str(ev.ip),
        Value::Int(ev.timestamp.millis()),
        Value::Map(details),
    ]
}

/// The serving layer's query handle. Cloneable; shares state with the
/// [`crate::IndexMaintainer`] that created it, so answers always reflect
/// the committed indexes.
#[derive(Clone)]
pub struct ServeHandle {
    inner: Arc<Mutex<Inner>>,
}

impl ServeHandle {
    pub(crate) fn new(inner: Arc<Mutex<Inner>>) -> ServeHandle {
        ServeHandle { inner }
    }

    fn context(&self) -> (Warehouse, String) {
        let inner = lock(&self.inner);
        (inner.warehouse.clone(), inner.category.clone())
    }

    fn hour(&self, hour: u64) -> Option<Arc<HourIndex>> {
        let inner = lock(&self.inner);
        inner.hours.get(&hour).map(|(index, _)| index.clone())
    }

    /// A scan-time pruner over the hours committed so far, for
    /// [`uli_dataflow::Plan::with_pruner`]: the engine hands it the tag
    /// constraint it derived from the plan's own FILTERs and skips every
    /// row group (or whole row-format sibling) the name postings prove
    /// irrelevant. Files outside the indexed hours are read in full.
    pub fn pruner(&self) -> Arc<dyn BlockPruner> {
        let inner = lock(&self.inner);
        let hours = inner.hours.values().map(|(index, _)| index);
        Arc::new(PostingsPruner::new(&inner.category, hours))
    }

    fn note_lookup(&self, stats: &LookupStats) {
        let mut inner = lock(&self.inner);
        inner.lookups_served += 1;
        inner.row_groups_pruned += stats.groups_pruned;
        inner.sync_obs();
    }

    /// Hours behind the newest delivered hour the index is.
    pub fn lag_hours(&self) -> u64 {
        lock(&self.inner).lag_hours()
    }

    /// Hours with a committed index, ascending.
    pub fn indexed_hours(&self) -> Vec<u64> {
        lock(&self.inner).hours.keys().copied().collect()
    }

    /// All events of `user` in `hour`, as engine-shaped tuples. Decodes
    /// only the row groups the user postings name.
    pub fn user_events(&self, user: i64, hour: u64) -> WarehouseResult<ServeAnswer> {
        let (warehouse, category) = self.context();
        let mut answer = ServeAnswer::default();
        if let Some(index) = self.hour(hour) {
            let events =
                collect_user_events(&warehouse, &category, &index, hour, user, &mut answer)?;
            answer.rows = events.into_iter().map(event_tuple).collect();
        }
        self.note_lookup(&answer.stats);
        Ok(answer)
    }

    /// Exact count of events named `name` over `hours`, answered from the
    /// index alone — zero bytes decoded. One row, `[Int count]`, exactly
    /// the global-aggregate row the engine produces.
    pub fn count(&self, name: &str, hours: impl IntoIterator<Item = u64>) -> ServeAnswer {
        let mut total: i64 = 0;
        let mut stats = LookupStats::default();
        for hour in hours {
            if let Some(index) = self.hour(hour) {
                total += index.name(name).map_or(0, |(count, _)| count) as i64;
                stats.groups_pruned += index.total_groups();
            }
        }
        self.note_lookup(&stats);
        ServeAnswer {
            rows: vec![vec![Value::Int(total)]],
            stats,
        }
    }

    /// The `k` most frequent event names in `hour`, count descending then
    /// name ascending — the engine's `aggregate_by(name, count) →
    /// order_by(count desc, name asc) → limit k` rows, from the index
    /// alone.
    pub fn top_names(&self, hour: u64, k: usize) -> ServeAnswer {
        let mut stats = LookupStats::default();
        let index = self.hour(hour);
        let mut counts: Vec<(&str, u64)> = match &index {
            Some(index) => {
                stats.groups_pruned = index.total_groups();
                index.names().map(|(n, c, _)| (n, c)).collect()
            }
            None => Vec::new(),
        };
        counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        counts.truncate(k);
        self.note_lookup(&stats);
        ServeAnswer {
            rows: counts
                .into_iter()
                .map(|(name, count)| vec![Value::Str(name.to_string()), Value::Int(count as i64)])
                .collect(),
            stats,
        }
    }

    /// The user's sessions over one day (24 hours), sessionized exactly as
    /// the batch materializer does. Decodes only the posted row groups of
    /// the day's indexed hours.
    pub fn sessions(
        &self,
        user: i64,
        day: u64,
    ) -> WarehouseResult<(Vec<SessionRecord>, LookupStats)> {
        let (warehouse, category) = self.context();
        let mut answer = ServeAnswer::default();
        let mut events = Vec::new();
        for hour in day * 24..(day + 1) * 24 {
            if let Some(index) = self.hour(hour) {
                events.extend(collect_user_events(
                    &warehouse,
                    &category,
                    &index,
                    hour,
                    user,
                    &mut answer,
                )?);
            }
        }
        let sessions = Sessionizer::new().sessionize(events);
        self.note_lookup(&answer.stats);
        Ok((sessions, answer.stats))
    }
}

/// Decodes the user's events out of one indexed hour, reading only the
/// posted groups, in engine scan order (files sorted, groups ascending,
/// rows in order). Charges `answer` the decoded bytes of exactly the file
/// handles this lookup opened.
fn collect_user_events(
    warehouse: &Warehouse,
    category: &str,
    index: &HourIndex,
    hour: u64,
    user: i64,
    answer: &mut ServeAnswer,
) -> WarehouseResult<Vec<ClientEvent>> {
    let mut events = Vec::new();
    let mut groups_read = 0u64;
    if let Some(postings) = index.user(user) {
        let dir = HourlyPartition::from_hour_index(category, hour).main_dir();
        for (file_no, groups) in by_file(postings) {
            let Some(entry) = index.files.get(file_no as usize) else {
                continue;
            };
            let file = ScanFile::open(warehouse, &dir.child(&entry.name)?)?;
            answer.stats.files_visited += 1;
            groups_read += groups.len() as u64;
            // No mask means the file no longer matches the index: read it
            // all — the user filter below keeps the answer right.
            let mask = index.unit_mask(file_no, &file, groups.iter().map(|&(_, group)| group));
            let units = (0..file.units()).filter(|unit| mask.as_ref().is_none_or(|m| m[*unit]));
            // An answer row is the whole event, so every column is read;
            // but only the user id cell of a row is decoded until it matched.
            let is_user = |row: &EventRow<'_>| Ok(row.user_id()? == user);
            for_each_event_row_where(
                &file,
                units,
                ALL_COLUMNS,
                (USER_COLUMN, is_user),
                |_, row| {
                    events.push(row.to_event()?);
                    Ok(())
                },
            )?;
            answer.stats.decoded_bytes += file.local_stats().uncompressed_bytes_read;
        }
    }
    answer.stats.groups_read += groups_read;
    answer.stats.groups_pruned += index.total_groups() - groups_read;
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexMaintainer;
    use uli_core::{
        write_client_events_columnar, ClientEvent, EventInitiator, EventName, Timestamp,
    };

    fn event(user: i64, name: &str, millis: i64) -> ClientEvent {
        ClientEvent::new(
            EventInitiator::CLIENT_USER,
            EventName::parse(name).unwrap(),
            user,
            format!("sess-{user}"),
            "10.0.0.1",
            Timestamp(millis),
        )
    }

    fn serve_over(hour: u64, events: &[ClientEvent], rows_per_group: usize) -> ServeHandle {
        let wh = Warehouse::new();
        let dir = HourlyPartition::from_hour_index("client_events", hour).main_dir();
        write_client_events_columnar(
            &wh,
            &dir.child("part-00000").unwrap(),
            events,
            true,
            rows_per_group,
        )
        .unwrap();
        let m = IndexMaintainer::new(wh, "client_events");
        m.tap().hour_delivered(
            &HourlyPartition::from_hour_index("client_events", hour),
            &[],
        );
        m.handle()
    }

    #[test]
    fn user_events_decodes_only_posted_groups() {
        // 32 events, groups of 8: user 7 appears only in rows 0..8 (group 0).
        let mut events: Vec<ClientEvent> =
            (0..8).map(|i| event(7, "a:b:c:d:e:f", i * 10)).collect();
        events.extend((8..32).map(|i| event(1, "a:b:c:d:e:f", i * 10)));
        let handle = serve_over(0, &events, 8);
        let answer = handle.user_events(7, 0).unwrap();
        assert_eq!(answer.rows.len(), 8);
        assert_eq!(answer.stats.groups_read, 1);
        assert_eq!(answer.stats.groups_pruned, 3);
        assert!(answer.stats.decoded_bytes > 0);
        // Absent user: pure pruning, nothing decoded.
        let absent = handle.user_events(999, 0).unwrap();
        assert!(absent.rows.is_empty());
        assert_eq!(absent.stats.groups_read, 0);
        assert_eq!(absent.stats.decoded_bytes, 0);
        assert_eq!(absent.stats.groups_pruned, 4);
    }

    #[test]
    fn a_lookup_builds_only_the_matching_rows_and_is_billed_full_width() {
        use uli_core::columnar::{event_columns, for_each_event_row};
        // 24 events in 3 groups of 8; user 7 owns exactly one row, in the
        // middle group.
        let events: Vec<ClientEvent> = (0..24)
            .map(|i| event(if i == 12 { 7 } else { 1 }, "a:b:c:d:e:f", i * 10))
            .collect();
        let handle = serve_over(0, &events, 8);
        let (warehouse, category) = handle.context();
        let index = handle.hour(0).unwrap();
        let mut answer = ServeAnswer::default();
        let found = collect_user_events(&warehouse, &category, &index, 0, 7, &mut answer).unwrap();
        assert_eq!(
            found,
            [events[12].clone()],
            "one row matched, one event built"
        );
        assert_eq!(answer.stats.groups_read, 1);

        // An answer row is the whole event, so the lookup is billed the
        // posted group at full width — what it always cost.
        let dir = HourlyPartition::from_hour_index(&category, 0).main_dir();
        let open = || ScanFile::open(&warehouse, &dir.child("part-00000").unwrap()).unwrap();
        let full = open();
        let ScanFile::Columnar(col) = &full else {
            panic!("the landing is columnar");
        };
        col.read_group(1, &[true; 7]).unwrap();
        assert_eq!(
            answer.stats.decoded_bytes,
            full.local_stats().uncompressed_bytes_read
        );

        // The user test itself needs one 8-byte cell per row: the view over
        // that column alone sees all 8 rows of the group, matches one, and
        // decodes a fraction of the bytes.
        let narrow = open();
        let mut matched = 0;
        let (rows, _) = for_each_event_row(&narrow, [1], event_columns([USER_COLUMN]), |_, row| {
            matched += u64::from(row.user_id()? == 7);
            Ok(())
        })
        .unwrap();
        assert_eq!((rows, matched), (8, 1));
        assert!(
            narrow.local_stats().uncompressed_bytes_read * 4
                < full.local_stats().uncompressed_bytes_read
        );
    }

    /// Recorded from the lookup that built every cell of every row before it
    /// looked at the user: a cell that does not decode drops its row only
    /// from the answer of the user it belongs to, and a `-rows` sibling is
    /// answered from record by record.
    #[test]
    fn garbage_cells_and_a_rows_sibling_answer_as_recorded() {
        use uli_core::columnar::CLIENT_EVENT_KINDS;
        use uli_thrift::ThriftRecord;
        use uli_warehouse::chunk::{write_string_map_count, write_string_map_pair};
        use uli_warehouse::{Cell, ColumnKind, ColumnarFileWriter};

        let wh = Warehouse::new();
        let dir = HourlyPartition::from_hour_index("client_events", 0).main_dir();
        // Twelve rows in groups of four, users 7 and 1 by turns; rows 5
        // (user 1) and 6 (user 7) carry a details cell that is no map.
        let events: Vec<ClientEvent> = (0..12)
            .map(|i| {
                event(if i % 2 == 0 { 7 } else { 1 }, "a:b:c:d:e:f", i * 10)
                    .with_detail("rank", i.to_string())
            })
            .collect();
        // The details are a column of bytes, which holds anything and which
        // a reader, who never sees a column's kind, reads as any other.
        let mut kinds = CLIENT_EVENT_KINDS;
        kinds[6] = ColumnKind::Bytes;
        let mut w =
            ColumnarFileWriter::create(&wh, &dir.child("part-00000").unwrap(), &kinds, 4, None)
                .unwrap();
        for (i, ev) in events.iter().enumerate() {
            let mut details = Vec::new();
            write_string_map_count(&mut details, ev.details.len());
            for (key, value) in ev.details.iter() {
                write_string_map_pair(&mut details, key.as_bytes(), value.as_bytes());
            }
            if i == 5 || i == 6 {
                details = vec![5];
            }
            let cells = [
                Cell::Bytes(&[ev.initiator.code() as u8]),
                Cell::Bytes(ev.name.as_str().as_bytes()),
                Cell::Int(ev.user_id),
                Cell::Bytes(ev.session_id.as_bytes()),
                Cell::Bytes(ev.ip.as_bytes()),
                Cell::Int(ev.timestamp.millis()),
                Cell::Bytes(&details),
            ];
            w.append_row(&cells, None);
        }
        w.finish().unwrap();
        // The sibling: two of user 7's events around a record that is none.
        let sibling = [event(7, "z:y:x:w:v:u", 500), event(7, "z:y:x:w:v:u", 510)];
        let mut rows = wh.create(&dir.child("part-00000-rows").unwrap()).unwrap();
        rows.append_record(&sibling[0].to_bytes());
        rows.append_record(b"not a client event");
        rows.append_record(&event(1, "z:y:x:w:v:u", 505).to_bytes());
        rows.append_record(&sibling[1].to_bytes());
        rows.finish().unwrap();
        let m = IndexMaintainer::new(wh, "client_events");
        m.tap()
            .hour_delivered(&HourlyPartition::from_hour_index("client_events", 0), &[]);
        let handle = m.handle();

        let tuples = |events: Vec<&ClientEvent>| -> Vec<Tuple> {
            events.into_iter().cloned().map(event_tuple).collect()
        };
        let seven = handle.user_events(7, 0).unwrap();
        let kept = [0, 2, 4, 8, 10].map(|i| &events[i]);
        assert_eq!(
            seven.rows,
            tuples(kept.into_iter().chain(&sibling).collect())
        );
        assert_eq!(
            seven.stats,
            LookupStats {
                decoded_bytes: 811,
                groups_read: 4,
                groups_pruned: 0,
                files_visited: 2,
            }
        );
        let one = handle.user_events(1, 0).unwrap();
        assert_eq!(
            one.rows.len(),
            6,
            "five of the file's six, one of the sibling's"
        );
        assert_eq!(one.stats, seven.stats, "both users sit in every group");
        let (sessions, stats) = handle.sessions(7, 0).unwrap();
        assert_eq!(sessions.iter().map(|s| s.events.len()).sum::<usize>(), 7);
        assert_eq!(stats, seven.stats);
    }

    #[test]
    fn a_file_landed_again_under_its_name_is_read_as_it_now_stands() {
        let first: Vec<ClientEvent> = (0..8).map(|i| event(7, "a:b:c:d:e:f", i * 10)).collect();
        let handle = serve_over(0, &first, 8);
        assert_eq!(
            handle.user_events(7, 0).unwrap().rows,
            first.iter().cloned().map(event_tuple).collect::<Vec<_>>()
        );
        // Same name, same group count, another dictionary and other rows:
        // nothing of the file the first lookup opened answers the second.
        let (warehouse, category) = handle.context();
        let path = HourlyPartition::from_hour_index(&category, 0)
            .main_dir()
            .child("part-00000")
            .unwrap();
        warehouse.delete_file(&path).unwrap();
        let second: Vec<ClientEvent> = (0..6).map(|i| event(7, "z:y:x:w:v:u", i * 7)).collect();
        write_client_events_columnar(&warehouse, &path, &second, true, 8).unwrap();
        assert_eq!(
            handle.user_events(7, 0).unwrap().rows,
            second.iter().cloned().map(event_tuple).collect::<Vec<_>>()
        );
    }

    #[test]
    fn count_and_top_names_answer_from_the_index_alone() {
        let mut events: Vec<ClientEvent> =
            (0..6).map(|i| event(i, "a:b:c:d:e:f", i * 10)).collect();
        events.extend((0..4).map(|i| event(i, "z:y:x:w:v:u", 100 + i * 10)));
        let handle = serve_over(2, &events, 4);
        let count = handle.count("a:b:c:d:e:f", [2]);
        assert_eq!(count.rows, vec![vec![Value::Int(6)]]);
        assert_eq!(count.stats.decoded_bytes, 0);
        let missing = handle.count("no:such:name:x:y:z", [2]);
        assert_eq!(missing.rows, vec![vec![Value::Int(0)]]);
        let top = handle.top_names(2, 1);
        assert_eq!(
            top.rows,
            vec![vec![Value::str("a:b:c:d:e:f"), Value::Int(6)]]
        );
        // Unindexed hour: empty top, zero count.
        assert!(handle.top_names(9, 5).rows.is_empty());
        assert_eq!(
            handle.count("a:b:c:d:e:f", [9]).rows,
            vec![vec![Value::Int(0)]]
        );
    }

    #[test]
    fn sessions_match_the_sessionizer_over_the_raw_events() {
        let events: Vec<ClientEvent> = (0..12)
            .map(|i| event(3, "a:b:c:d:e:f", i * 60_000))
            .collect();
        let handle = serve_over(0, &events, 8);
        let (sessions, stats) = handle.sessions(3, 0).unwrap();
        let expected = Sessionizer::new().sessionize(events);
        assert_eq!(sessions, expected);
        assert!(stats.groups_read > 0);
        let (none, _) = handle.sessions(999, 0).unwrap();
        assert!(none.is_empty());
    }
}
