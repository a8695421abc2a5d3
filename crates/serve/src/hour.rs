//! The per-hour secondary index: postings from user ids and event names to
//! the row groups that contain them, and each name's exact count.
//!
//! One [`HourIndex`] is built per delivered warehouse hour by scanning the
//! landed files once — columnar files group by group under the two columns
//! it posts, row-format siblings record by record. Because the build is a
//! wholesale scan of the committed hour, rebuilding after a crash replaces
//! the index rather than adding to it: an hour can never be double-counted
//! no matter how many times maintenance retries.
//!
//! The index persists beside the landed data under `/index/serve/...` with
//! the same assemble-then-rename discipline the log mover uses, so a
//! restarted server reloads committed hours and rebuilds missing ones. It
//! stores what a lookup reads and nothing else.

use std::collections::HashMap;

use uli_core::columnar::{
    event_columns, for_each_event_row, EventColumns, NAME_COLUMN, USER_COLUMN,
};
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

/// Postings: the `(file, row group)` pairs that contain a key, ascending —
/// file numbers index [`HourIndex::files`], groups count within their file.
pub type Postings = [(u32, u32)];

/// `postings` cut by file: each file number with its run of the postings.
pub fn by_file(postings: &Postings) -> impl Iterator<Item = (u32, &Postings)> {
    postings
        .chunk_by(|a, b| a.0 == b.0)
        .map(|run| (run[0].0, run))
}

/// The run of `postings` in file `file_no`.
pub(crate) fn in_file(postings: &Postings, file_no: u32) -> &Postings {
    let start = postings.partition_point(|&(file, _)| file < file_no);
    let end = postings.partition_point(|&(file, _)| file <= file_no);
    &postings[start..end]
}

/// An event name of an index: where its text ends, its exact event count,
/// and where its postings end in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NameKey {
    text_end: u32,
    count: u64,
    postings_end: u32,
}

/// The secondary index over one delivered hour, held flat: sorted key
/// arrays and one posting arena the keys address by offset.
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
    /// Every event name's text, back to back, in name order.
    name_text: String,
    /// The event names, ascending — `count` and `top-names` answer from
    /// their counts without decoding anything.
    names: Vec<NameKey>,
    /// The user ids, ascending.
    users: Vec<i64>,
    /// Where each user's postings end in the arena.
    user_ends: Vec<u32>,
    /// Every name's postings in name order, then every user's in user order.
    postings: Vec<(u32, u32)>,
}

impl HourIndex {
    /// Total addressable row groups across the hour's files.
    pub fn total_groups(&self) -> u64 {
        self.files.iter().map(|f| f.groups as u64).sum()
    }

    /// The event names in order, each with its count and postings.
    pub fn names(&self) -> impl ExactSizeIterator<Item = (&str, u64, &Postings)> + '_ {
        (0..self.names.len()).map(|i| (self.name_at(i), self.names[i].count, self.name_postings(i)))
    }

    /// The count and postings of `name`, if any event of the hour has it.
    pub fn name(&self, name: &str) -> Option<(u64, &Postings)> {
        let (mut lo, mut hi) = (0, self.names.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.name_at(mid) < name {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo < self.names.len() && self.name_at(lo) == name)
            .then(|| (self.names[lo].count, self.name_postings(lo)))
    }

    /// The user ids in order, each with its postings.
    pub fn users(&self) -> impl ExactSizeIterator<Item = (i64, &Postings)> + '_ {
        (0..self.users.len()).map(|j| (self.users[j], self.user_postings(j)))
    }

    /// The postings of `user`, if any event of the hour is theirs.
    pub fn user(&self, user: i64) -> Option<&Postings> {
        let j = self.users.binary_search(&user).ok()?;
        Some(self.user_postings(j))
    }

    fn name_at(&self, i: usize) -> &str {
        let start = i.checked_sub(1).map_or(0, |i| self.names[i].text_end);
        &self.name_text[start as usize..self.names[i].text_end as usize]
    }

    fn name_postings(&self, i: usize) -> &Postings {
        let start = i.checked_sub(1).map_or(0, |i| self.names[i].postings_end);
        &self.postings[start as usize..self.names[i].postings_end as usize]
    }

    fn user_postings(&self, j: usize) -> &Postings {
        let names_end = self.names.last().map_or(0, |n| n.postings_end);
        let start = j.checked_sub(1).map_or(names_end, |j| self.user_ends[j]);
        &self.postings[start as usize..self.user_ends[j] as usize]
    }

    /// Appends the name after every name so far, before any user. `None`
    /// when the text or the arena outgrows the offsets.
    fn push_name(
        &mut self,
        name: &str,
        count: u64,
        postings: impl IntoIterator<Item = (u32, u32)>,
    ) -> Option<()> {
        debug_assert!(self.users.is_empty(), "names come before users");
        self.name_text.push_str(name);
        self.postings.extend(postings);
        self.names.push(NameKey {
            text_end: u32::try_from(self.name_text.len()).ok()?,
            count,
            postings_end: u32::try_from(self.postings.len()).ok()?,
        });
        Some(())
    }

    /// Appends the user after every user so far. `None` when the arena
    /// outgrows the offsets.
    fn push_user(
        &mut self,
        user: i64,
        postings: impl IntoIterator<Item = (u32, u32)>,
    ) -> Option<()> {
        self.postings.extend(postings);
        self.users.push(user);
        self.user_ends
            .push(u32::try_from(self.postings.len()).ok()?);
        Some(())
    }

    /// Gives back what the arrays reserved while they grew: an index lives
    /// as long as its hour is served.
    fn shrink_to_fit(&mut self) {
        self.name_text.shrink_to_fit();
        self.names.shrink_to_fit();
        self.users.shrink_to_fit();
        self.user_ends.shrink_to_fit();
        self.postings.shrink_to_fit();
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
    pub fn unit_mask(
        &self,
        file_no: u32,
        file: &ScanFile,
        posted: impl IntoIterator<Item = u32>,
    ) -> Option<Vec<bool>> {
        let entry = self.files.get(file_no as usize)?;
        let mut posted = posted.into_iter();
        match file {
            ScanFile::Columnar(_) if entry.columnar && entry.groups as usize == file.units() => {
                let mut mask = vec![false; file.units()];
                for group in posted {
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

/// Builds the index for one delivered hour by scanning the landed files,
/// the per-file scans sharded across `workers`. Returns the index plus what
/// the scan cost — summed from the files' own handles, so it is exact even
/// while other readers use the warehouse. A missing hour directory yields
/// an empty index (zero files) — the form a delivered-but-empty hour takes.
///
/// A file's number is its place in the sorted listing, and the partials
/// come back in that order whichever worker scanned them; the merge sums
/// their counters and sorts the `(key, file, group)` triples they posted
/// into the flat index. The result therefore does not depend on the worker
/// count — pinned by the determinism tests.
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
    let partials = ScanPool::new(workers).map(files, |_i, path| scan_file(warehouse, &path));

    // Per name and file its count and groups; per user, file and group one
    // triple. A file posts each key's groups once, ascending, so sorting by
    // key and file orders every key's postings.
    let mut names: Vec<(String, u32, u64, Vec<u32>)> = Vec::new();
    let mut users: Vec<(i64, u32, u32)> = Vec::new();
    for partial in partials {
        let (entry, partial, file_scanned) = partial?;
        let file_no = index.files.len() as u32;
        scanned = scanned.plus(&file_scanned);
        index.records += partial.records;
        index.events += partial.events;
        index.files.push(entry);
        let posted = partial.names.into_iter();
        names.extend(posted.map(|(name, (count, groups))| (name, file_no, count, groups)));
        for (user, groups) in partial.users {
            users.extend(groups.into_iter().map(|group| (user, file_no, group)));
        }
    }
    names.sort_unstable_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
    for run in names.chunk_by(|a, b| a.0 == b.0) {
        let postings = run
            .iter()
            .flat_map(|(_, file, _, groups)| groups.iter().map(|group| (*file, *group)));
        index
            .push_name(&run[0].0, run.iter().map(|n| n.2).sum(), postings)
            .expect(FITS);
    }
    users.sort_unstable();
    for run in users.chunk_by(|a, b| a.0 == b.0) {
        index
            .push_user(run[0].0, run.iter().map(|&(_, file, group)| (file, group)))
            .expect(FITS);
    }
    index.shrink_to_fit();
    Ok((index, scanned))
}

const FITS: &str = "an hour's index fits u32 offsets";

/// What one landed file posts: its counts, per name its count and groups,
/// per user its groups, each ascending.
struct FilePostings {
    records: u64,
    events: u64,
    names: HashMap<String, (u64, Vec<u32>)>,
    users: HashMap<i64, Vec<u32>>,
}

/// What the index posts of an event — the only columns the build reads.
const INDEXED_COLUMNS: EventColumns = event_columns([NAME_COLUMN, USER_COLUMN]);

/// Posts `group` once: the scan visits groups in ascending order.
fn post_group(groups: &mut Vec<u32>, group: u32) {
    if groups.last() != Some(&group) {
        groups.push(group);
    }
}

/// Scans one landed file into its entry, what it posts and what the scan
/// cost — the parallel unit of the hour build. Pure per-file work: nothing
/// here touches shared state. A row costs one hash probe by name and one by
/// user; the keys are put in order once, by the merge.
fn scan_file(
    warehouse: &Warehouse,
    path: &WhPath,
) -> WarehouseResult<(FileEntry, FilePostings, ScanStats)> {
    // Per name its count and its groups, per user its groups, ascending.
    let mut names: HashMap<String, (u64, Vec<u32>)> = HashMap::new();
    let mut users: HashMap<i64, Vec<u32>> = HashMap::new();
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
            posted.0 += 1;
            post_group(&mut posted.1, group);
            post_group(users.entry(row.user_id()?).or_default(), group);
            Ok(())
        })?;
    let partial = FilePostings {
        records: events + skipped,
        events,
        names,
        users,
    };
    let entry = FileEntry {
        name: path.name().to_string(),
        groups: if columnar { file.units() as u32 } else { 1 },
        columnar,
    };
    Ok((entry, partial, file.local_stats()))
}

/// Magic prefix of an encoded index: what tells it from anything else that
/// may sit under its name. The last byte is the layout's version: `1` kept
/// a session summary per user-hour and every name whole.
const INDEX_MAGIC: [u8; 4] = *b"UHI\x02";

fn put_text(out: &mut Vec<u8>, text: &[u8]) {
    varint::write_u64(out, text.len() as u64);
    out.extend_from_slice(text);
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
    put_ascending(
        out,
        by_file(postings).count(),
        by_file(postings).map(|(file, _)| file),
    );
    for (_, groups) in by_file(postings) {
        put_ascending(out, groups.len(), groups.iter().map(|&(_, group)| group));
    }
}

/// Serializes the index: varints throughout, and every ascending run — file
/// numbers, the row groups of a posting, user ids — as distances from the
/// value before. After the magic: hour, records, events; the files (name,
/// groups, a layout byte); then the event names in order, each as the
/// number of bytes it shares with the name before, the bytes it does not,
/// its count and its postings; then the users in order, the first as it is,
/// each other as its distance from the one before, each with its postings.
/// [`decode`] is the exact inverse for an index whose postings name its own
/// files and their groups, which every built index does.
pub fn encode(index: &HourIndex) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&INDEX_MAGIC);
    for v in [index.hour_index, index.records, index.events] {
        varint::write_u64(&mut out, v);
    }
    varint::write_u64(&mut out, index.files.len() as u64);
    for f in &index.files {
        put_text(&mut out, f.name.as_bytes());
        varint::write_u64(&mut out, u64::from(f.groups));
        out.push(u8::from(f.columnar));
    }
    varint::write_u64(&mut out, index.names.len() as u64);
    let mut last: &[u8] = &[];
    for (name, count, postings) in index.names() {
        let name = name.as_bytes();
        let shared = name.iter().zip(last).take_while(|(a, b)| a == b).count();
        varint::write_u64(&mut out, shared as u64);
        put_text(&mut out, &name[shared..]);
        varint::write_u64(&mut out, count);
        put_postings(&mut out, postings);
        last = name;
    }
    varint::write_u64(&mut out, index.users.len() as u64);
    let mut last = None;
    for (user, postings) in index.users() {
        match last {
            None => varint::write_i64(&mut out, user),
            Some(last) => varint::write_u64(&mut out, user.wrapping_sub(last) as u64),
        };
        put_postings(&mut out, postings);
        last = Some(user);
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

    fn u32(&mut self) -> Option<u32> {
        u32::try_from(self.u64()?).ok()
    }

    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.0.split_at_checked(n)?;
        self.0 = rest;
        Some(head)
    }

    fn text(&mut self) -> Option<&'a [u8]> {
        let len = usize::try_from(self.u64()?).ok()?;
        self.bytes(len)
    }

    /// A count of things that cost a byte each at least: one larger than
    /// what is left is a lie, caught before anything is sized by it.
    fn count(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?)
            .ok()
            .filter(|n| *n <= self.0.len())
    }

    /// The inverse of [`put_ascending`]: strictly ascending and under
    /// `limit`, or `None`.
    fn ascending(&mut self, limit: u64) -> Option<Vec<u32>> {
        let count = self.count()?;
        let mut values: Vec<u32> = Vec::with_capacity(count);
        for i in 0..count {
            let step = self.u32()?;
            let last = values.last().copied().unwrap_or(0);
            if i > 0 && step == 0 {
                return None;
            }
            let value = last.checked_add(step);
            values.push(value.filter(|v| u64::from(*v) < limit)?);
        }
        Some(values)
    }

    /// Postings over `files`: a file number they lack, a file posted with
    /// no group, and a group past the groups of its file, are structural
    /// errors.
    fn postings(&mut self, files: &[FileEntry]) -> Option<Vec<(u32, u32)>> {
        let mut postings = Vec::new();
        for file in self.ascending(files.len() as u64)? {
            let groups = self.ascending(u64::from(files[file as usize].groups))?;
            if groups.is_empty() {
                return None;
            }
            postings.extend(groups.into_iter().map(|group| (file, group)));
        }
        Some(postings)
    }
}

/// Inverse of [`encode`]. `None` on any structural error — a missing magic
/// or the magic of an older layout, truncation, an overlong varint, a count
/// the remaining bytes cannot hold, a name that shares more than the name
/// before has or is not UTF-8, names or users or postings that do not
/// ascend, a file posted with no group, a posting outside the hour's files
/// and their groups, a user's
/// distance that overflows, trailing bytes: a committed index that does not
/// decode is treated as absent and rebuilt from the landed hour. Nothing is
/// sized by a count the bytes present could not pay for.
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
            name: std::str::from_utf8(r.text()?).ok()?.to_string(),
            groups: r.u32()?,
            columnar: match r.bytes(1)? {
                [0] => false,
                [1] => true,
                _ => return None,
            },
        });
    }
    for _ in 0..r.count()? {
        let last = index.names.len().checked_sub(1).map(|i| index.name_at(i));
        let shared = usize::try_from(r.u64()?).ok()?;
        let shared = last.unwrap_or("").as_bytes().get(..shared)?;
        let name = String::from_utf8([shared, r.text()?].concat()).ok()?;
        if last.is_some_and(|last| last >= name.as_str()) {
            return None;
        }
        let (count, postings) = (r.u64()?, r.postings(&index.files)?);
        index.push_name(&name, count, postings)?;
    }
    for _ in 0..r.count()? {
        let user = match index.users.last() {
            None => varint::zigzag_decode(r.u64()?),
            Some(last) => last.checked_add_unsigned(r.u64().filter(|step| *step > 0)?)?,
        };
        let postings = r.postings(&index.files)?;
        index.push_user(user, postings)?;
    }
    index.shrink_to_fit();
    r.0.is_empty().then_some(index)
}

/// Commits an index beside its hour with the mover's assemble-then-rename
/// discipline: write under `/index/serve-staging/...`, then atomically
/// rename into `/index/serve/...`. Presence of the final directory *is*
/// the commit; a crash before the rename leaves nothing partial behind,
/// only a missing index that [`load_hour_index`] reports as absent and
/// maintenance rebuilds. Recommitting (a rebuild) replaces the previous
/// index wholesale. Returns the committed index's length in bytes.
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
/// (or its file is corrupt, of an older layout, or does not decode —
/// treated as absent, forcing a rebuild from the landed hour, which is the
/// source of truth).
pub fn load_hour_index(
    warehouse: &Warehouse,
    category: &str,
    hour_index: u64,
) -> WarehouseResult<Option<HourIndex>> {
    Ok(load_committed(warehouse, category, hour_index)?.map(|(index, _)| index))
}

/// [`load_hour_index`], with the committed index's length in bytes.
pub(crate) fn load_committed(
    warehouse: &Warehouse,
    category: &str,
    hour_index: u64,
) -> WarehouseResult<Option<(HourIndex, u64)>> {
    let partition = HourlyPartition::from_hour_index(category, hour_index);
    let file = index_dir(&partition).child(INDEX_FILE)?;
    if !warehouse.exists(&file) {
        return Ok(None);
    }
    match warehouse.open(&file).and_then(|reader| reader.read_all()) {
        Ok(records) => Ok(records
            .first()
            .and_then(|r| Some((decode(r)?, r.len() as u64)))),
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
        let every_group: &Postings = &[(0, 0), (0, 1), (0, 2)];
        assert_eq!(
            idx.name("web:home:timeline:tweet:avatar:click"),
            Some((10, every_group))
        );
        assert_eq!(idx.name("web:home:timeline:tweet:avatar:hover"), None);
        assert_eq!(idx.user(0), Some(every_group));
        assert_eq!(idx.user(1), Some(every_group));
        assert_eq!(idx.user(42), None);
    }

    #[test]
    fn missing_hour_builds_empty() {
        let wh = Warehouse::new();
        let idx = build(&wh, 7);
        assert_eq!(idx.records, 0);
        assert!(idx.files.is_empty());
    }

    #[test]
    fn the_build_reads_the_two_columns_it_posts() {
        let wh = Warehouse::new();
        let events: Vec<ClientEvent> = (0..40)
            .map(|i| event(i % 4, &format!("s{i}"), "a:b:c:d:e:f", i * 50))
            .collect();
        land_hour(&wh, 0, &events, 8);
        let (_, cost) = build_hour_index(&wh, "client_events", 0, Parallelism::serial()).unwrap();
        let dir = HourlyPartition::from_hour_index("client_events", 0).main_dir();
        let file = ScanFile::open(&wh, &dir.child("part-00000").unwrap()).unwrap();
        let ScanFile::Columnar(col) = &file else {
            panic!("the landing is columnar");
        };
        for g in 0..col.group_count() {
            col.read_group(g, &INDEXED_COLUMNS).unwrap();
        }
        assert_eq!(
            cost.uncompressed_bytes_read,
            file.local_stats().uncompressed_bytes_read
        );
        assert_eq!(cost.fields_skipped, 5 * 40, "five columns left alone");
    }

    /// An hour of two files whose names share long prefixes.
    fn two_file_index() -> HourIndex {
        let wh = Warehouse::new();
        let dir = HourlyPartition::from_hour_index("client_events", 3).main_dir();
        for f in 0..2 {
            let events: Vec<ClientEvent> = (0..20)
                .map(|i| {
                    let name = match i % 3 {
                        0 => "web:home:timeline:tweet:avatar:click",
                        1 => "web:home:timeline:tweet:avatar:hover",
                        _ => "iphone:search:results:query:box:submit",
                    };
                    event(i % 4 + f * 1000, &format!("s{i}"), name, i * 50)
                })
                .collect();
            let path = dir.child(&format!("part-{f:05}")).unwrap();
            write_client_events_columnar(&wh, &path, &events, true, 8).unwrap();
        }
        build(&wh, 3)
    }

    #[test]
    fn encode_decode_round_trips() {
        let idx = two_file_index();
        assert_eq!(idx.files.len(), 2);
        let bytes = encode(&idx);
        assert_eq!(decode(&bytes), Some(idx));
        // A name is stored as what the name before does not already say.
        let find = |text: &[u8]| bytes.windows(text.len()).any(|w| w == text);
        assert!(find(b"web:home:timeline:tweet:avatar:click"));
        assert!(find(b"hover") && !find(b":hover"));
    }

    fn varints(values: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        for v in values {
            varint::write_u64(&mut out, *v);
        }
        out
    }

    /// An index of hour 2 over one columnar file of three groups and one
    /// row-format sibling, holding `names` and `users` as they stand.
    fn forged(names: &[u8], users: &[u8]) -> Vec<u8> {
        let files = [&[2, 1, b'a', 3, 1][..], &[1, b'b', 1, 0]].concat();
        [&INDEX_MAGIC[..], &[2, 9, 9], &files, names, users].concat()
    }

    #[test]
    fn decode_rejects_what_encode_never_writes() {
        let good = encode(&two_file_index());
        assert!(decode(&good).is_some());
        for cut in 0..good.len() {
            assert!(decode(&good[..cut]).is_none(), "truncated at {cut}");
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode(&trailing).is_none(), "trailing byte");
        // The layouts this replaced — tab-separated text, and the varint
        // layout that kept a summary per user — and an index of nothing.
        assert!(decode(b"H\t2\t1\t1\nF\tpart-00000\t1\t1\n").is_none());
        assert!(decode(b"UHI\x01\x02\x01\x01\x00\x00\x00").is_none());
        assert!(decode(b"").is_none());
        // A count the remaining bytes cannot hold is refused before
        // anything is sized by it, and an overlong varint is no number.
        let header = |tail: &[u8]| [&INDEX_MAGIC[..], &[2, 1, 1], tail].concat();
        assert!(decode(&header(&[0xff, 0xff, 0xff, 0xff, 0x0f])).is_none());
        assert!(decode(&header(&[0x80; 11])).is_none());
        assert!(decode(&header(&[0, 0, 0])).is_some(), "an empty hour");

        // One name `ab` counted 7 in group 2 of file 0, and nobody.
        let posted = |file: u8, group: u8| [1, file, 1, group];
        let name = |shared: u8, suffix: &[u8], postings: &[u8]| {
            [&[shared, suffix.len() as u8][..], suffix, &[7], postings].concat()
        };
        let one = [&[1][..], &name(0, b"ab", &posted(0, 2))].concat();
        assert!(
            decode(&forged(&one, &[0])).is_some(),
            "the forger can be honest"
        );
        let names_of = |entries: &[Vec<u8>]| {
            let mut names = vec![entries.len() as u8];
            names.extend(entries.iter().flatten());
            decode(&forged(&names, &[0])).map(|index| {
                index
                    .names()
                    .map(|(name, _, _)| name.to_string())
                    .collect::<Vec<_>>()
            })
        };
        let ab = || name(0, b"ab", &posted(0, 2));
        // Front coding: `ab` then `ab` + `c`.
        assert_eq!(
            names_of(&[ab(), name(2, b"c", &posted(1, 0))]),
            Some(vec!["ab".to_string(), "abc".to_string()])
        );
        let bad_names: [(&str, Vec<Vec<u8>>); 9] = [
            (
                "shares more than the name before has",
                vec![ab(), name(3, b"c", &[0])],
            ),
            ("the first name shares anything", vec![name(1, b"b", &[0])]),
            ("a suffix past the end", vec![vec![0, 200, b'a', b'b']]),
            (
                "a suffix that is not UTF-8",
                vec![name(0, &[b'a', 0xff], &[0])],
            ),
            (
                "a shared prefix that splits a character",
                vec![name(0, "é".as_bytes(), &[0]), name(1, b"z", &[0])],
            ),
            ("the same name twice", vec![ab(), name(2, b"", &[0])]),
            ("names out of order", vec![ab(), name(1, b"a", &[0])]),
            ("a file the hour lacks", vec![name(0, b"ab", &posted(2, 0))]),
            (
                "a group past the file's groups",
                vec![name(0, b"ab", &posted(0, 3))],
            ),
        ];
        for (what, entries) in bad_names {
            assert_eq!(names_of(&entries), None, "{what}");
        }
        assert_eq!(
            names_of(&[name(0, b"ab", &posted(1, 1))]),
            None,
            "a row-format sibling has one pseudo-group"
        );
        // Postings: groups that do not ascend, files that do not, a count
        // of groups no bytes are left for, a file with no group.
        for postings in [
            &[1, 0, 2, 1, 0][..],
            &[2, 0, 0, 1, 0, 1, 0],
            &[1, 0, 0x80, 0x80, 0x01],
            &[1, 0, 0],
        ] {
            assert_eq!(names_of(&[name(0, b"ab", postings)]), None, "{postings:?}");
        }
        assert_eq!(
            names_of(&[name(0, b"ab", &[2, 0, 1, 2, 0, 2, 1, 0])]),
            Some(vec!["ab".to_string()]),
            "both files, groups 0 and 2 of the first"
        );

        // Users: the first as it is, the rest by their distance.
        let users_of = |count: u8, ids: &[u8]| {
            let mut users = vec![count];
            for id in ids.split_inclusive(|b| b & 0x80 == 0) {
                users.extend_from_slice(id);
                users.push(0); // posted nowhere
            }
            decode(&forged(&[0], &users))
                .map(|index| index.users().map(|(user, _)| user).collect::<Vec<_>>())
        };
        let zigzag = |v: i64| varints(&[varint::zigzag_encode(v)]);
        assert_eq!(
            users_of(2, &[zigzag(-3), vec![5]].concat()),
            Some(vec![-3, 2])
        );
        assert_eq!(
            users_of(2, &[zigzag(4), vec![0]].concat()),
            None,
            "a user twice"
        );
        let past_the_end = [zigzag(i64::MAX - 1), vec![2]].concat();
        assert_eq!(
            users_of(2, &past_the_end),
            None,
            "a distance that overflows"
        );
        let whole_range = [zigzag(i64::MIN), varints(&[u64::MAX])].concat();
        assert_eq!(users_of(2, &whole_range), Some(vec![i64::MIN, i64::MAX]));
        assert_eq!(users_of(200, &zigzag(1)), None, "more users than bytes");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        use std::collections::{BTreeMap, BTreeSet};

        /// File numbers and group numbers, any, repeated or out of order.
        type RawPostings = BTreeMap<u32, Vec<u32>>;

        fn raw_postings() -> impl Strategy<Value = RawPostings> {
            proptest::collection::btree_map(
                any::<u32>(),
                proptest::collection::vec(any::<u32>(), 0..6),
                0..4,
            )
        }

        /// `raw` folded onto `files`: every file number one of theirs,
        /// every group one of its file's.
        fn postings_over(files: &[FileEntry], raw: RawPostings) -> BTreeSet<(u32, u32)> {
            let mut postings = BTreeSet::new();
            if files.is_empty() {
                return postings;
            }
            for (file, groups) in raw {
                let file = file % files.len() as u32;
                let of_file = files[file as usize].groups;
                let groups = groups.into_iter().filter_map(|g| g.checked_rem(of_file));
                postings.extend(groups.map(|group| (file, group)));
            }
            postings
        }

        fn user() -> impl Strategy<Value = i64> {
            prop_oneof![0i64..50, any::<i64>()]
        }

        fn hour_index() -> impl Strategy<Value = HourIndex> {
            let groups = prop_oneof![0u32..40, any::<u32>()];
            (
                (
                    prop_oneof![0u64..48, any::<u64>()],
                    any::<u64>(),
                    any::<u64>(),
                ),
                proptest::collection::vec(("[a-z0-9-]{0,12}", groups, any::<bool>()), 0..4),
                proptest::collection::btree_map(
                    "(web:home:|web:|iphone:)?[a-zé:_]{0,12}",
                    (any::<u64>(), raw_postings()),
                    0..6,
                ),
                proptest::collection::btree_map(user(), raw_postings(), 0..8),
            )
                .prop_map(|(counts, files, names, users)| {
                    let files: Vec<FileEntry> = files
                        .into_iter()
                        .map(|(name, groups, columnar)| FileEntry {
                            name,
                            groups,
                            columnar,
                        })
                        .collect();
                    let mut index = HourIndex {
                        hour_index: counts.0,
                        records: counts.1,
                        events: counts.2,
                        ..HourIndex::default()
                    };
                    for (name, (count, raw)) in names {
                        index.push_name(&name, count, postings_over(&files, raw));
                    }
                    for (user, raw) in users {
                        index.push_user(user, postings_over(&files, raw));
                    }
                    HourIndex { files, ..index }
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Any index over its own files — names that share prefixes or
            /// nothing, empty postings, extreme ids and counts — comes back
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
        // Several columnar files plus a row-format straggler, with users
        // and names deliberately spanning file boundaries so the merge has
        // real work to do.
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
        assert!(serial.users().len() >= 7);
        assert!(serial
            .users()
            .any(|(_, postings)| by_file(postings).count() == 6));
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
        let loaded = load_committed(&wh, "client_events", 5).unwrap().unwrap();
        assert_eq!(loaded, (idx.clone(), bytes));
        // A rebuild recommits over the previous index wholesale.
        commit_hour_index(&wh, "client_events", &idx).unwrap();
        let again = load_hour_index(&wh, "client_events", 5).unwrap().unwrap();
        assert_eq!(again, idx);
        assert!(load_hour_index(&wh, "client_events", 6).unwrap().is_none());
    }
}
