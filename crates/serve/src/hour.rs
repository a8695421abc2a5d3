//! The per-hour secondary index: postings from user ids and event names to
//! the row groups that contain them, plus per-hour session summaries.
//!
//! One [`HourIndex`] is built per delivered warehouse hour by scanning the
//! landed files once — columnar files group by group with a narrow
//! projection, row-format siblings record by record. Because the build is a
//! wholesale scan of the committed hour, rebuilding after a crash replaces
//! the index rather than adding to it: an hour can never be double-counted
//! no matter how many times maintenance retries.
//!
//! The index persists beside the landed data under `/index/serve/...` with
//! the same assemble-then-rename discipline the log mover uses, so a
//! restarted server reloads committed hours and rebuilds missing ones.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use uli_core::columnar::{
    event_columns, for_each_event_row, EventColumns, NAME_COLUMN, SESSION_COLUMN, TIMESTAMP_COLUMN,
    USER_COLUMN,
};
use uli_core::time::MS_PER_HOUR;
use uli_thrift::varint;
use uli_warehouse::{
    HourlyPartition, Parallelism, ScanFile, ScanPool, ScanStats, Warehouse, WarehouseError,
    WarehouseResult, WhPath,
};

/// One landed file the index knows how to address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileEntry {
    /// File name inside the hour directory (files are indexed in the
    /// warehouse's sorted listing order, which is also scan order).
    pub name: String,
    /// Row groups in a columnar file; row-format files count as one
    /// pseudo-group (group 0 = the whole file).
    pub groups: u32,
    /// Whether the file is columnar (group-addressable) or row-format.
    pub columnar: bool,
}

/// Per-user activity summary for one hour.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UserHourSummary {
    /// Events attributed to the user this hour.
    pub events: u64,
    /// Distinct session ids the user touched this hour.
    pub sessions: u64,
    /// Earliest event timestamp (millis).
    pub first_millis: i64,
    /// Latest event timestamp (millis).
    pub last_millis: i64,
}

/// Postings: file index → the row groups (ascending) containing the key.
pub type Postings = BTreeMap<u32, BTreeSet<u32>>;

/// The secondary index over one delivered hour.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HourIndex {
    /// The hour this index covers.
    pub hour_index: u64,
    /// Raw records in the hour (including undecodable payloads).
    pub records: u64,
    /// Records that decoded as client events.
    pub events: u64,
    /// Files in the hour, in sorted (scan) order.
    pub files: Vec<FileEntry>,
    /// Exact per-name event counts — `count` and `top-names` answer from
    /// these without decoding anything.
    pub name_counts: BTreeMap<String, u64>,
    /// Event name → row groups containing at least one such event.
    pub name_postings: BTreeMap<String, Postings>,
    /// User id → row groups containing at least one of the user's events.
    pub user_postings: BTreeMap<i64, Postings>,
    /// Per-user session summaries for the hour.
    pub user_summaries: BTreeMap<i64, UserHourSummary>,
}

impl HourIndex {
    /// Total addressable row groups across the hour's files.
    pub fn total_groups(&self) -> u64 {
        self.files.iter().map(|f| f.groups as u64).sum()
    }

    /// Row groups posted for `user`.
    pub fn user_groups(&self, user: i64) -> u64 {
        self.user_postings
            .get(&user)
            .map(|p| p.values().map(|g| g.len() as u64).sum())
            .unwrap_or(0)
    }

    /// Keep-mask over the scan units of `file`, the hour's file number
    /// `file_no`, given the groups `posted` for it. A columnar file keeps
    /// exactly the posted row groups; a row-format sibling is posted as one
    /// pseudo-group, so it is all-or-nothing across its blocks.
    ///
    /// `None` when the index does not describe the file as it now stands —
    /// an unknown file number, the other layout, another group count (the
    /// hour was re-landed since the index committed): the caller must read
    /// every unit. A re-landing that keeps the group count is not detected;
    /// the mover re-indexes every hour it lands, so only writes that bypass
    /// it can leave one.
    pub fn unit_mask<'a>(
        &self,
        file_no: u32,
        file: &ScanFile,
        posted: impl IntoIterator<Item = &'a u32>,
    ) -> Option<Vec<bool>> {
        let entry = self.files.get(file_no as usize)?;
        let mut posted = posted.into_iter();
        match file {
            ScanFile::Columnar(_) if entry.columnar && entry.groups as usize == file.units() => {
                let mut mask = vec![false; file.units()];
                for &group in posted {
                    *mask.get_mut(group as usize)? = true;
                }
                Some(mask)
            }
            ScanFile::Row(_) if !entry.columnar => {
                Some(vec![posted.next().is_some(); file.units()])
            }
            _ => None,
        }
    }
}

/// Index directory for one hour: `/index/serve/<category>/YYYY/MM/DD/HH`.
pub fn index_dir(partition: &HourlyPartition) -> WhPath {
    serve_dir("/index/serve", partition)
}

/// Staging directory the commit protocol assembles under before renaming.
pub fn index_staging_dir(partition: &HourlyPartition) -> WhPath {
    serve_dir("/index/serve-staging", partition)
}

fn serve_dir(root: &str, p: &HourlyPartition) -> WhPath {
    WhPath::parse(&format!(
        "{root}/{}/{:04}/{:02}/{:02}/{:02}",
        p.category, p.year, p.month, p.day, p.hour
    ))
    .expect("constructed path is valid")
}

/// The single index file inside the committed hour directory.
const INDEX_FILE: &str = "hour.idx";

/// One file's contribution to the hour index: a complete partial index
/// (postings already keyed by the file's preassigned number) plus the raw
/// per-user session-id sets, which only fold to counts once every file's
/// partial is merged, and what scanning the file cost.
struct FilePartial {
    entry: FileEntry,
    partial: HourIndex,
    sessions: BTreeMap<i64, BTreeSet<String>>,
    scanned: ScanStats,
}

/// Builds the index for one delivered hour by scanning the landed files,
/// the per-file scans sharded across `workers`. Returns the index plus what
/// the scan cost — summed from the files' own handles, so it is exact even
/// while other readers use the warehouse. A missing hour directory yields
/// an empty index (zero files) — the form a delivered-but-empty hour takes.
///
/// Each file's number is preassigned from the sorted listing before any
/// scan runs, so the postings a file contributes are identical regardless
/// of which worker scans it or when; the merge folds partials in file
/// order using only commutative operations (counter sums, map unions,
/// min/max). The result therefore does not depend on the worker count —
/// pinned by the determinism tests.
pub fn build_hour_index(
    warehouse: &Warehouse,
    category: &str,
    hour_index: u64,
    workers: Parallelism,
) -> WarehouseResult<(HourIndex, ScanStats)> {
    let partition = HourlyPartition::from_hour_index(category, hour_index);
    let dir = partition.main_dir();
    let mut index = HourIndex {
        hour_index,
        ..HourIndex::default()
    };
    let mut scanned = ScanStats::default();
    let files = match warehouse.list_files_recursive(&dir) {
        Ok(f) => f,
        Err(WarehouseError::NotFound(_)) => return Ok((index, scanned)),
        Err(e) => return Err(e),
    };
    let numbered: Vec<(u32, WhPath)> = files
        .into_iter()
        .enumerate()
        .map(|(i, p)| (i as u32, p))
        .collect();
    let partials = ScanPool::new(workers).map(numbered, |_i, (file_no, path)| {
        scan_file(warehouse, &path, file_no)
    });

    // Merge in file order. Distinct session ids per user fold down to
    // counts only after every partial is in.
    let mut sessions: BTreeMap<i64, BTreeSet<String>> = BTreeMap::new();
    for partial in partials {
        let FilePartial {
            entry,
            partial,
            sessions: file_sessions,
            scanned: file_scanned,
        } = partial?;
        scanned = scanned.plus(&file_scanned);
        index.records += partial.records;
        index.events += partial.events;
        index.files.push(entry);
        // The first file's maps are the index so far; the others merge in.
        if index.files.len() == 1 {
            index.name_counts = partial.name_counts;
            index.name_postings = partial.name_postings;
            index.user_postings = partial.user_postings;
            index.user_summaries = partial.user_summaries;
            sessions = file_sessions;
            continue;
        }
        for (name, count) in partial.name_counts {
            *index.name_counts.entry(name).or_insert(0) += count;
        }
        // Postings merge by plain extension: each partial only posts its
        // own (unique) file number.
        for (name, postings) in partial.name_postings {
            index
                .name_postings
                .entry(name)
                .or_default()
                .extend(postings);
        }
        for (user, postings) in partial.user_postings {
            index
                .user_postings
                .entry(user)
                .or_default()
                .extend(postings);
        }
        for (user, s) in partial.user_summaries {
            let merged = index.user_summaries.entry(user).or_insert(UserHourSummary {
                events: 0,
                sessions: 0,
                first_millis: s.first_millis,
                last_millis: s.last_millis,
            });
            merged.events += s.events;
            merged.first_millis = merged.first_millis.min(s.first_millis);
            merged.last_millis = merged.last_millis.max(s.last_millis);
        }
        for (user, ids) in file_sessions {
            sessions.entry(user).or_default().extend(ids);
        }
    }
    for (user, ids) in sessions {
        index
            .user_summaries
            .get_mut(&user)
            .expect("summary exists for every user with sessions")
            .sessions = ids.len() as u64;
    }
    Ok((index, scanned))
}

/// What the index posts of an event — the only columns the build reads.
const INDEXED_COLUMNS: EventColumns =
    event_columns([NAME_COLUMN, USER_COLUMN, SESSION_COLUMN, TIMESTAMP_COLUMN]);

/// What one file posts under an event name.
#[derive(Default)]
struct NamePosted {
    count: u64,
    /// The groups holding the name, ascending.
    groups: Vec<u32>,
}

/// What one file posts under a user.
struct UserPosted {
    /// The groups holding the user, ascending.
    groups: Vec<u32>,
    summary: UserHourSummary,
    sessions: BTreeSet<String>,
}

/// Posts `group` once: the scan visits groups in ascending order.
fn post_group(groups: &mut Vec<u32>, group: u32) {
    if groups.last() != Some(&group) {
        groups.push(group);
    }
}

/// Scans one landed file into its partial index — the parallel unit of the
/// hour build. Pure per-file work: nothing here touches shared state. A row
/// costs one hash probe by name and one by user; the ordered maps of the
/// index are built once per file, from what the probes gathered.
fn scan_file(warehouse: &Warehouse, path: &WhPath, file_no: u32) -> WarehouseResult<FilePartial> {
    let mut names: HashMap<String, NamePosted> = HashMap::new();
    let mut users: HashMap<i64, UserPosted> = HashMap::new();
    let file = ScanFile::open(warehouse, path)?;
    // Row groups are addressable, so a columnar file posts the group an
    // event sits in; a row-format sibling posts as one pseudo-group, the
    // whole file.
    let columnar = matches!(file, ScanFile::Columnar(_));
    let (events, skipped) =
        for_each_event_row(&file, 0..file.units(), INDEXED_COLUMNS, |at, row| {
            let group = if columnar { at.unit as u32 } else { 0 };
            let name = row.name()?;
            // A name owns its key once, when first seen in the file.
            let posted = match names.get_mut(name) {
                Some(posted) => posted,
                None => names.entry(name.to_string()).or_default(),
            };
            posted.count += 1;
            post_group(&mut posted.groups, group);
            let millis = row.timestamp()?.millis();
            let posted = users.entry(row.user_id()?).or_insert_with(|| UserPosted {
                groups: Vec::new(),
                summary: UserHourSummary {
                    events: 0,
                    sessions: 0,
                    first_millis: millis,
                    last_millis: millis,
                },
                sessions: BTreeSet::new(),
            });
            post_group(&mut posted.groups, group);
            posted.summary.events += 1;
            posted.summary.first_millis = posted.summary.first_millis.min(millis);
            posted.summary.last_millis = posted.summary.last_millis.max(millis);
            let session_id = row.session_id()?;
            if !posted.sessions.contains(session_id) {
                posted.sessions.insert(session_id.to_string());
            }
            Ok(())
        })?;
    let mut partial = HourIndex {
        records: events + skipped,
        events,
        ..HourIndex::default()
    };
    let postings = |groups: Vec<u32>| Postings::from([(file_no, BTreeSet::from_iter(groups))]);
    for (name, posted) in names {
        partial.name_counts.insert(name.clone(), posted.count);
        partial.name_postings.insert(name, postings(posted.groups));
    }
    // In key order, so that every insert lands at the end of its map.
    let mut users: Vec<(i64, UserPosted)> = users.into_iter().collect();
    users.sort_unstable_by_key(|(user, _)| *user);
    let mut sessions = BTreeMap::new();
    for (user, posted) in users {
        partial.user_postings.insert(user, postings(posted.groups));
        partial.user_summaries.insert(user, posted.summary);
        sessions.insert(user, posted.sessions);
    }
    Ok(FilePartial {
        entry: FileEntry {
            name: path.name().to_string(),
            groups: if columnar { file.units() as u32 } else { 1 },
            columnar,
        },
        partial,
        sessions,
        scanned: file.local_stats(),
    })
}

/// Magic prefix of an encoded index: what tells it from anything else that
/// may sit under its name (the text format it replaced began with `H`).
const INDEX_MAGIC: [u8; 4] = *b"UHI\x01";

fn put_text(out: &mut Vec<u8>, text: &str) {
    varint::write_u64(out, text.len() as u64);
    out.extend_from_slice(text.as_bytes());
}

/// `count`, then the ascending `values` each as its distance from the one
/// before (the first from zero).
fn put_ascending(out: &mut Vec<u8>, count: usize, values: impl Iterator<Item = u32>) {
    varint::write_u64(out, count as u64);
    let mut last = 0;
    for v in values {
        varint::write_u64(out, u64::from(v - last));
        last = v;
    }
}

fn put_postings(out: &mut Vec<u8>, postings: &Postings) {
    put_ascending(out, postings.len(), postings.keys().copied());
    for groups in postings.values() {
        put_ascending(out, groups.len(), groups.iter().copied());
    }
}

/// The keys of `a` and `b` in ascending order, each with what either map
/// holds under it: the two maps of a key kind share their keys in every
/// index the build produces, but the type does not say so.
fn joined<'a, K: Ord, A, B>(
    a: &'a BTreeMap<K, A>,
    b: &'a BTreeMap<K, B>,
) -> impl Iterator<Item = (&'a K, Option<&'a A>, Option<&'a B>)> {
    use std::cmp::Ordering::{Greater, Less};
    let (mut a, mut b) = (a.iter().peekable(), b.iter().peekable());
    std::iter::from_fn(move || {
        let order = match (a.peek(), b.peek()) {
            (None, None) => return None,
            (Some(_), None) => Less,
            (None, Some(_)) => Greater,
            (Some((ka, _)), Some((kb, _))) => ka.cmp(kb),
        };
        let left = if order != Greater { a.next() } else { None };
        let right = if order != Less { b.next() } else { None };
        let key = match (left, right) {
            (Some((key, _)), _) | (None, Some((key, _))) => key,
            (None, None) => return None,
        };
        Some((key, left.map(|(_, v)| v), right.map(|(_, v)| v)))
    })
}

/// Serializes the index: varints throughout, every ascending run — user
/// ids, file numbers, the row groups of a posting — as distances from the
/// value before, and a user's first event relative to the start of the
/// hour, its last relative to its first. After the magic: hour, records,
/// events; the files; then one run of event names, each once, with its
/// count and its postings, and one run of users, each with its postings
/// and its summary (a flag byte says which of the two an entry has).
/// [`decode`] is the exact inverse.
pub fn encode(index: &HourIndex) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&INDEX_MAGIC);
    for v in [index.hour_index, index.records, index.events] {
        varint::write_u64(&mut out, v);
    }
    varint::write_u64(&mut out, index.files.len() as u64);
    for f in &index.files {
        put_text(&mut out, &f.name);
        varint::write_u64(&mut out, u64::from(f.groups));
        out.push(u8::from(f.columnar));
    }
    let flags = |a: bool, b: bool| u8::from(a) | u8::from(b) << 1;
    let names = || joined(&index.name_counts, &index.name_postings);
    varint::write_u64(&mut out, names().count() as u64);
    for (name, count, postings) in names() {
        put_text(&mut out, name);
        out.push(flags(count.is_some(), postings.is_some()));
        if let Some(count) = count {
            varint::write_u64(&mut out, *count);
        }
        if let Some(postings) = postings {
            put_postings(&mut out, postings);
        }
    }
    let hour_start = (index.hour_index as i64).wrapping_mul(MS_PER_HOUR);
    let users = || joined(&index.user_postings, &index.user_summaries);
    varint::write_u64(&mut out, users().count() as u64);
    let mut last_user = 0i64;
    for (user, postings, summary) in users() {
        varint::write_i64(&mut out, user.wrapping_sub(last_user));
        last_user = *user;
        out.push(flags(postings.is_some(), summary.is_some()));
        if let Some(postings) = postings {
            put_postings(&mut out, postings);
        }
        if let Some(s) = summary {
            varint::write_u64(&mut out, s.events);
            varint::write_u64(&mut out, s.sessions);
            varint::write_i64(&mut out, s.first_millis.wrapping_sub(hour_start));
            varint::write_i64(&mut out, s.last_millis.wrapping_sub(s.first_millis));
        }
    }
    out
}

/// What is left to decode of an encoded index.
struct IndexBytes<'a>(&'a [u8]);

impl<'a> IndexBytes<'a> {
    fn u64(&mut self) -> Option<u64> {
        let (v, n) = varint::read_u64(self.0).ok()?;
        self.0 = &self.0[n..];
        Some(v)
    }

    fn i64(&mut self) -> Option<i64> {
        self.u64().map(varint::zigzag_decode)
    }

    fn u32(&mut self) -> Option<u32> {
        u32::try_from(self.u64()?).ok()
    }

    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.0.split_at_checked(n)?;
        self.0 = rest;
        Some(head)
    }

    fn text(&mut self) -> Option<String> {
        let len = usize::try_from(self.u64()?).ok()?;
        Some(std::str::from_utf8(self.bytes(len)?).ok()?.to_string())
    }

    /// A count of things that cost a byte each at least: one larger than
    /// what is left is a lie, caught before anything is sized by it.
    fn count(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?)
            .ok()
            .filter(|n| *n <= self.0.len())
    }

    /// The inverse of [`put_ascending`]: strictly ascending, or `None`.
    fn ascending(&mut self) -> Option<Vec<u32>> {
        let count = self.count()?;
        let mut values: Vec<u32> = Vec::with_capacity(count);
        for i in 0..count {
            let step = self.u32()?;
            let last = values.last().copied().unwrap_or(0);
            if i > 0 && step == 0 {
                return None;
            }
            values.push(last.checked_add(step)?);
        }
        Some(values)
    }

    fn postings(&mut self) -> Option<Postings> {
        let mut postings = Postings::new();
        for file in self.ascending()? {
            postings.insert(file, self.ascending()?.into_iter().collect());
        }
        Some(postings)
    }

    /// One run of entries, each a key and then — as its flag byte says —
    /// a value for `left`, for `right`, or for both. A key that does not
    /// ascend, and a flag byte naming neither map, are structural errors.
    fn run<K: Ord + Clone, A, B>(
        &mut self,
        (left, right): (&mut BTreeMap<K, A>, &mut BTreeMap<K, B>),
        mut key: impl FnMut(&mut Self) -> Option<K>,
        mut a: impl FnMut(&mut Self) -> Option<A>,
        mut b: impl FnMut(&mut Self) -> Option<B>,
    ) -> Option<()> {
        let mut last: Option<K> = None;
        for _ in 0..self.count()? {
            let key = key(self)?;
            if last.as_ref().is_some_and(|last| *last >= key) {
                return None;
            }
            let flags = *self.bytes(1)?.first()?;
            if !(1..=3).contains(&flags) {
                return None;
            }
            if flags & 1 != 0 {
                left.insert(key.clone(), a(self)?);
            }
            if flags & 2 != 0 {
                right.insert(key.clone(), b(self)?);
            }
            last = Some(key);
        }
        Some(())
    }
}

/// Inverse of [`encode`]. `None` on any structural error — a missing magic,
/// truncation, an overlong varint, a count the remaining bytes cannot hold,
/// a run that does not ascend, trailing bytes: a committed index that does
/// not decode is treated as absent and rebuilt from the landed hour.
pub fn decode(bytes: &[u8]) -> Option<HourIndex> {
    let mut r = IndexBytes(bytes.strip_prefix(&INDEX_MAGIC)?);
    let mut index = HourIndex {
        hour_index: r.u64()?,
        records: r.u64()?,
        events: r.u64()?,
        ..HourIndex::default()
    };
    for _ in 0..r.count()? {
        index.files.push(FileEntry {
            name: r.text()?,
            groups: r.u32()?,
            columnar: match r.bytes(1)? {
                [0] => false,
                [1] => true,
                _ => return None,
            },
        });
    }
    r.run(
        (&mut index.name_counts, &mut index.name_postings),
        IndexBytes::text,
        IndexBytes::u64,
        IndexBytes::postings,
    )?;
    let hour_start = (index.hour_index as i64).wrapping_mul(MS_PER_HOUR);
    let mut last_user = 0i64;
    r.run(
        (&mut index.user_postings, &mut index.user_summaries),
        |r| {
            last_user = last_user.wrapping_add(r.i64()?);
            Some(last_user)
        },
        IndexBytes::postings,
        |r| {
            let (events, sessions) = (r.u64()?, r.u64()?);
            let first_millis = hour_start.wrapping_add(r.i64()?);
            Some(UserHourSummary {
                events,
                sessions,
                first_millis,
                last_millis: first_millis.wrapping_add(r.i64()?),
            })
        },
    )?;
    r.0.is_empty().then_some(index)
}

/// Commits an index beside its hour with the mover's assemble-then-rename
/// discipline: write under `/index/serve-staging/...`, then atomically
/// rename into `/index/serve/...`. Presence of the final directory *is*
/// the commit; a crash before the rename leaves nothing partial behind,
/// only a missing index that [`load_hour_index`] reports as absent and
/// maintenance rebuilds. Recommitting (a rebuild) replaces the previous
/// index wholesale.
pub fn commit_hour_index(
    warehouse: &Warehouse,
    category: &str,
    index: &HourIndex,
) -> WarehouseResult<u64> {
    let partition = HourlyPartition::from_hour_index(category, index.hour_index);
    let staging = index_staging_dir(&partition);
    let dir = index_dir(&partition);
    if warehouse.is_dir(&staging) {
        warehouse.delete_dir(&staging)?;
    }
    warehouse.mkdirs(&staging)?;
    let bytes = encode(index);
    let mut writer = warehouse.create(&staging.child(INDEX_FILE)?)?;
    writer.append_record(&bytes);
    writer.finish()?;
    if warehouse.is_dir(&dir) {
        warehouse.delete_dir(&dir)?;
    }
    warehouse.rename(&staging, &dir)?;
    Ok(bytes.len() as u64)
}

/// Loads a committed index, or `None` when the hour has never committed
/// (or its file is corrupt or does not decode — treated as absent, forcing
/// a rebuild from the landed hour, which is the source of truth).
pub fn load_hour_index(
    warehouse: &Warehouse,
    category: &str,
    hour_index: u64,
) -> WarehouseResult<Option<HourIndex>> {
    let partition = HourlyPartition::from_hour_index(category, hour_index);
    let file = index_dir(&partition).child(INDEX_FILE)?;
    if !warehouse.exists(&file) {
        return Ok(None);
    }
    match warehouse.open(&file).and_then(|reader| reader.read_all()) {
        Ok(records) => Ok(records.first().and_then(|r| decode(r))),
        Err(WarehouseError::ChecksumMismatch { .. } | WarehouseError::Corrupt(_)) => Ok(None),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uli_core::{
        write_client_events_columnar, ClientEvent, EventInitiator, EventName, Timestamp,
    };
    use uli_thrift::record::ThriftRecord;

    fn event(user: i64, session: &str, name: &str, millis: i64) -> ClientEvent {
        ClientEvent::new(
            EventInitiator::CLIENT_USER,
            EventName::parse(name).unwrap(),
            user,
            session,
            "10.0.0.1",
            Timestamp(millis),
        )
    }

    fn land_hour(wh: &Warehouse, hour: u64, events: &[ClientEvent], rows_per_group: usize) {
        let dir = HourlyPartition::from_hour_index("client_events", hour).main_dir();
        let path = dir.child("part-00000").unwrap();
        write_client_events_columnar(wh, &path, events, true, rows_per_group).unwrap();
    }

    fn build(wh: &Warehouse, hour: u64) -> HourIndex {
        build_hour_index(wh, "client_events", hour, Parallelism::serial())
            .unwrap()
            .0
    }

    #[test]
    fn build_posts_users_and_names_to_their_groups() {
        let wh = Warehouse::new();
        let mut events = Vec::new();
        for i in 0..10 {
            events.push(event(
                i % 2,
                &format!("s{}", i % 3),
                "web:home:timeline:tweet:avatar:click",
                1000 + i,
            ));
        }
        // Rows-per-group 4 → groups {0,1,2}; both users appear in each.
        land_hour(&wh, 0, &events, 4);
        let idx = build(&wh, 0);
        assert_eq!(idx.records, 10);
        assert_eq!(idx.events, 10);
        assert_eq!(idx.files.len(), 1);
        assert_eq!(idx.files[0].groups, 3);
        assert!(idx.files[0].columnar);
        assert_eq!(
            idx.name_counts.get("web:home:timeline:tweet:avatar:click"),
            Some(&10)
        );
        assert_eq!(idx.user_groups(0), 3);
        assert_eq!(idx.user_groups(1), 3);
        assert_eq!(idx.user_groups(42), 0);
        let s = &idx.user_summaries[&0];
        assert_eq!(s.events, 5);
        assert!(s.sessions >= 1 && s.sessions <= 3);
        assert_eq!(s.first_millis, 1000);
    }

    #[test]
    fn missing_hour_builds_empty() {
        let wh = Warehouse::new();
        let idx = build(&wh, 7);
        assert_eq!(idx.records, 0);
        assert!(idx.files.is_empty());
    }

    #[test]
    fn encode_decode_round_trips() {
        let wh = Warehouse::new();
        let events: Vec<ClientEvent> = (0..20)
            .map(|i| {
                event(
                    i % 4,
                    &format!("s{i}"),
                    if i % 2 == 0 {
                        "web:home:timeline:tweet:avatar:click"
                    } else {
                        "iphone:search:results:query:box:submit"
                    },
                    i * 50,
                )
            })
            .collect();
        land_hour(&wh, 3, &events, 8);
        let idx = build(&wh, 3);
        let decoded = decode(&encode(&idx)).expect("round trip");
        assert_eq!(decoded, idx);
    }

    #[test]
    fn decode_rejects_what_encode_never_writes() {
        let wh = Warehouse::new();
        land_hour(
            &wh,
            2,
            &[event(9, "s", "a:b:c:d:e:f", 2 * 3_600_000 + 10)],
            8,
        );
        let good = encode(&build(&wh, 2));
        assert!(decode(&good).is_some());
        for cut in 0..good.len() {
            assert!(decode(&good[..cut]).is_none(), "truncated at {cut}");
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode(&trailing).is_none(), "trailing byte");
        // The text format this replaced, and an index of nothing at all.
        assert!(decode(b"H\t2\t1\t1\nF\tpart-00000\t1\t1\n").is_none());
        assert!(decode(b"").is_none());
        // A count the remaining bytes cannot hold is refused before
        // anything is sized by it, and an overlong varint is no number.
        let header = |tail: &[u8]| [&INDEX_MAGIC[..], &[2, 1, 1], tail].concat();
        assert!(decode(&header(&[0xff, 0xff, 0xff, 0xff, 0x0f])).is_none());
        assert!(decode(&header(&[0x80; 11])).is_none());
        assert!(decode(&header(&[0, 0, 0])).is_some(), "an empty hour");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn postings() -> impl Strategy<Value = Postings> {
            proptest::collection::btree_map(
                prop_oneof![0u32..6, any::<u32>()],
                proptest::collection::btree_set(prop_oneof![0u32..40, any::<u32>()], 0..6),
                0..4,
            )
        }

        fn user() -> impl Strategy<Value = i64> {
            prop_oneof![0i64..50, any::<i64>()]
        }

        fn hour_index() -> impl Strategy<Value = HourIndex> {
            (
                (
                    prop_oneof![0u64..48, any::<u64>()],
                    any::<u64>(),
                    any::<u64>(),
                ),
                proptest::collection::vec(("[a-z0-9-]{0,12}", any::<u32>(), any::<bool>()), 0..4),
                proptest::collection::btree_map("[a-z:_]{0,20}", any::<u64>(), 0..5),
                proptest::collection::btree_map("[a-z:_]{0,20}", postings(), 0..5),
                proptest::collection::btree_map(user(), postings(), 0..8),
                proptest::collection::btree_map(
                    user(),
                    (any::<u64>(), any::<u64>(), any::<i64>(), any::<i64>()),
                    0..8,
                ),
            )
                .prop_map(
                    |(counts, files, names, name_postings, user_postings, summaries)| HourIndex {
                        hour_index: counts.0,
                        records: counts.1,
                        events: counts.2,
                        files: files
                            .into_iter()
                            .map(|(name, groups, columnar)| FileEntry {
                                name,
                                groups,
                                columnar,
                            })
                            .collect(),
                        name_counts: names,
                        name_postings,
                        user_postings,
                        user_summaries: summaries
                            .into_iter()
                            .map(|(user, (events, sessions, first_millis, last_millis))| {
                                let summary = UserHourSummary {
                                    events,
                                    sessions,
                                    first_millis,
                                    last_millis,
                                };
                                (user, summary)
                            })
                            .collect(),
                    },
                )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Any index the type can hold — key sets that differ between
            /// the maps, empty postings, extreme ids and times — comes back
            /// as it went in.
            #[test]
            fn any_index_round_trips(index in hour_index()) {
                prop_assert_eq!(decode(&encode(&index)), Some(index));
            }

            /// A damaged encoding decodes to an index or to `None`, never
            /// to a panic, whether it was cut short or had a byte changed.
            #[test]
            fn damaged_encodings_never_panic(
                index in hour_index(),
                at in any::<prop::sample::Index>(),
                byte in any::<u8>(),
            ) {
                let mut bytes = encode(&index);
                let at = at.index(bytes.len());
                prop_assert_eq!(decode(&bytes[..at]), None);
                bytes[at] = byte;
                let _ = decode(&bytes);
            }

            #[test]
            fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
                let _ = decode(&bytes);
                let _ = decode(&[&INDEX_MAGIC[..], &bytes].concat());
            }
        }
    }

    #[test]
    fn parallel_build_is_identical_to_serial() {
        let wh = Warehouse::new();
        let hour = 11;
        let dir = HourlyPartition::from_hour_index("client_events", hour).main_dir();
        // Several columnar files plus a row-format straggler, with users,
        // names, and sessions deliberately spanning file boundaries so the
        // merge has real work to do.
        for f in 0..5 {
            let events: Vec<ClientEvent> = (0..30)
                .map(|i| {
                    event(
                        (f + i) % 7,
                        &format!("s{}", (f * 30 + i) % 11),
                        if i % 3 == 0 {
                            "web:home:timeline:tweet:avatar:click"
                        } else {
                            "iphone:search:results:query:box:submit"
                        },
                        f * 1000 + i * 13,
                    )
                })
                .collect();
            let path = dir.child(&format!("part-{f:05}")).unwrap();
            write_client_events_columnar(&wh, &path, &events, true, 7).unwrap();
        }
        let mut row = wh.create(&dir.child("part-00009").unwrap()).unwrap();
        for i in 0..25 {
            row.append_record(
                &event(i % 5, &format!("r{}", i % 4), "a:b:c:d:e:f", 9000 + i).to_bytes(),
            );
        }
        row.finish().unwrap();

        let (serial, serial_cost) =
            build_hour_index(&wh, "client_events", hour, Parallelism::serial()).unwrap();
        assert_eq!(serial.files.len(), 6, "fixture should span several files");
        assert!(serial.user_summaries.len() >= 7);
        assert_eq!(serial_cost.files_opened, 6);
        assert_eq!(serial_cost.records_read, serial.records);
        for workers in [4, 8] {
            let (parallel, cost) =
                build_hour_index(&wh, "client_events", hour, Parallelism::fixed(workers)).unwrap();
            assert_eq!(parallel, serial, "divergence at {workers} workers");
            assert_eq!(encode(&parallel), encode(&serial));
            assert_eq!(
                cost.uncompressed_bytes_read, serial_cost.uncompressed_bytes_read,
                "scan bill at {workers} workers"
            );
        }
    }

    #[test]
    fn commit_then_load_and_recommit_replaces() {
        let wh = Warehouse::new();
        land_hour(&wh, 5, &[event(9, "s", "a:b:c:d:e:f", 10)], 8);
        let idx = build(&wh, 5);
        let bytes = commit_hour_index(&wh, "client_events", &idx).unwrap();
        assert!(bytes > 0);
        let loaded = load_hour_index(&wh, "client_events", 5).unwrap().unwrap();
        assert_eq!(loaded, idx);
        // A rebuild recommits over the previous index wholesale.
        commit_hour_index(&wh, "client_events", &idx).unwrap();
        let again = load_hour_index(&wh, "client_events", 5).unwrap().unwrap();
        assert_eq!(again, idx);
        assert!(load_hour_index(&wh, "client_events", 6).unwrap().is_none());
    }
}
