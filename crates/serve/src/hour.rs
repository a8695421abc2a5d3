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

use std::collections::{BTreeMap, BTreeSet, HashMap};

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
    /// Event name → its exact event count — `count` and `top-names` answer
    /// from these without decoding anything — and the row groups containing
    /// at least one such event.
    pub names: BTreeMap<String, (u64, Postings)>,
    /// User id → row groups containing at least one of the user's events.
    pub users: BTreeMap<i64, Postings>,
}

impl HourIndex {
    /// Total addressable row groups across the hour's files.
    pub fn total_groups(&self) -> u64 {
        self.files.iter().map(|f| f.groups as u64).sum()
    }

    /// Row groups posted for `user`.
    pub fn user_groups(&self, user: i64) -> u64 {
        self.users
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

/// Builds the index for one delivered hour by scanning the landed files,
/// the per-file scans sharded across `workers`. Returns the index plus what
/// the scan cost — summed from the files' own handles, so it is exact even
/// while other readers use the warehouse. A missing hour directory yields
/// an empty index (zero files) — the form a delivered-but-empty hour takes.
///
/// Each file's number is preassigned from the sorted listing before any
/// scan runs, so the postings a file contributes are identical regardless
/// of which worker scans it or when; the merge folds partials in file
/// order using only commutative operations (counter sums, map unions). The
/// result therefore does not depend on the worker count — pinned by the
/// determinism tests.
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

    // Merge in file order. Postings merge by plain extension: each partial
    // only posts its own (unique) file number.
    for partial in partials {
        let (entry, partial, file_scanned) = partial?;
        scanned = scanned.plus(&file_scanned);
        index.records += partial.records;
        index.events += partial.events;
        index.files.push(entry);
        // The first file's maps are the index so far; the others merge in.
        if index.files.len() == 1 {
            index.names = partial.names;
            index.users = partial.users;
            continue;
        }
        for (name, (count, postings)) in partial.names {
            let merged = index.names.entry(name).or_default();
            merged.0 += count;
            merged.1.extend(postings);
        }
        for (user, postings) in partial.users {
            index.users.entry(user).or_default().extend(postings);
        }
    }
    Ok((index, scanned))
}

/// What the index posts of an event — the only columns the build reads.
const INDEXED_COLUMNS: EventColumns = event_columns([NAME_COLUMN, USER_COLUMN]);

/// Posts `group` once: the scan visits groups in ascending order.
fn post_group(groups: &mut Vec<u32>, group: u32) {
    if groups.last() != Some(&group) {
        groups.push(group);
    }
}

/// Scans one landed file into its entry, its partial index (postings keyed
/// by the file's preassigned number) and what the scan cost — the parallel
/// unit of the hour build. Pure per-file work: nothing here touches shared
/// state. A row costs one hash probe by name and one by user; the ordered
/// maps of the index are built once per file, from what the probes gathered.
fn scan_file(
    warehouse: &Warehouse,
    path: &WhPath,
    file_no: u32,
) -> WarehouseResult<(FileEntry, HourIndex, ScanStats)> {
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
    let postings = |groups: Vec<u32>| Postings::from([(file_no, BTreeSet::from_iter(groups))]);
    // Users in key order, so that every insert lands at the end of its map.
    let mut users: Vec<(i64, Vec<u32>)> = users.into_iter().collect();
    users.sort_unstable_by_key(|(user, _)| *user);
    let partial = HourIndex {
        records: events + skipped,
        events,
        names: names
            .into_iter()
            .map(|(name, (count, groups))| (name, (count, postings(groups))))
            .collect(),
        users: users
            .into_iter()
            .map(|(user, groups)| (user, postings(groups)))
            .collect(),
        ..HourIndex::default()
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
    put_ascending(out, postings.len(), postings.keys().copied());
    for groups in postings.values() {
        put_ascending(out, groups.len(), groups.iter().copied());
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
    for (name, (count, postings)) in &index.names {
        let name = name.as_bytes();
        let shared = name.iter().zip(last).take_while(|(a, b)| a == b).count();
        varint::write_u64(&mut out, shared as u64);
        put_text(&mut out, &name[shared..]);
        varint::write_u64(&mut out, *count);
        put_postings(&mut out, postings);
        last = name;
    }
    varint::write_u64(&mut out, index.users.len() as u64);
    let mut last = None;
    for (user, postings) in &index.users {
        match last {
            None => varint::write_i64(&mut out, *user),
            Some(last) => varint::write_u64(&mut out, user.wrapping_sub(last) as u64),
        };
        put_postings(&mut out, postings);
        last = Some(*user);
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

    /// Postings over `files`: a file number they lack, and a group past the
    /// groups of its file, are structural errors.
    fn postings(&mut self, files: &[FileEntry]) -> Option<Postings> {
        let mut postings = Postings::new();
        for file in self.ascending(files.len() as u64)? {
            let groups = self.ascending(u64::from(files[file as usize].groups))?;
            postings.insert(file, groups.into_iter().collect());
        }
        Some(postings)
    }
}

/// Inverse of [`encode`]. `None` on any structural error — a missing magic
/// or the magic of an older layout, truncation, an overlong varint, a count
/// the remaining bytes cannot hold, a name that shares more than the name
/// before has or is not UTF-8, names or users or postings that do not
/// ascend, a posting outside the hour's files and their groups, a user's
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
        let last = index.names.last_key_value().map(|(name, _)| name.as_str());
        let shared = usize::try_from(r.u64()?).ok()?;
        let shared = last.unwrap_or("").as_bytes().get(..shared)?;
        let name = String::from_utf8([shared, r.text()?].concat()).ok()?;
        if last.is_some_and(|last| last >= name.as_str()) {
            return None;
        }
        let posted = (r.u64()?, r.postings(&index.files)?);
        index.names.insert(name, posted);
    }
    for _ in 0..r.count()? {
        let user = match index.users.last_key_value() {
            None => varint::zigzag_decode(r.u64()?),
            Some((last, _)) => last.checked_add_unsigned(r.u64().filter(|step| *step > 0)?)?,
        };
        let postings = r.postings(&index.files)?;
        index.users.insert(user, postings);
    }
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
        let every_group = Postings::from([(0, BTreeSet::from([0, 1, 2]))]);
        assert_eq!(
            idx.names.get("web:home:timeline:tweet:avatar:click"),
            Some(&(10, every_group))
        );
        assert_eq!(idx.user_groups(0), 3);
        assert_eq!(idx.user_groups(1), 3);
        assert_eq!(idx.user_groups(42), 0);
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
            decode(&forged(&names, &[0])).map(|index| index.names.into_keys().collect::<Vec<_>>())
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
        // of groups no bytes are left for.
        for postings in [
            &[1, 0, 2, 1, 0][..],
            &[2, 0, 0, 1, 0, 1, 0],
            &[1, 0, 0x80, 0x80, 0x01],
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
            decode(&forged(&[0], &users)).map(|index| index.users.into_keys().collect::<Vec<_>>())
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

        type RawPostings = BTreeMap<u32, BTreeSet<u32>>;

        fn raw_postings() -> impl Strategy<Value = RawPostings> {
            proptest::collection::btree_map(
                any::<u32>(),
                proptest::collection::btree_set(any::<u32>(), 0..6),
                0..4,
            )
        }

        /// `raw` folded onto `files`: every file number one of theirs,
        /// every group one of its file's.
        fn postings_over(files: &[FileEntry], raw: RawPostings) -> Postings {
            let mut postings = Postings::new();
            if files.is_empty() {
                return postings;
            }
            for (file, groups) in raw {
                let file = file % files.len() as u32;
                let of_file = files[file as usize].groups;
                let groups = groups.into_iter().filter_map(|g| g.checked_rem(of_file));
                postings.entry(file).or_default().extend(groups);
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
                    let over = |raw| postings_over(&files, raw);
                    HourIndex {
                        hour_index: counts.0,
                        records: counts.1,
                        events: counts.2,
                        names: names
                            .into_iter()
                            .map(|(name, (count, raw))| (name, (count, over(raw))))
                            .collect(),
                        users: users
                            .into_iter()
                            .map(|(user, raw)| (user, over(raw)))
                            .collect(),
                        files,
                    }
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
        assert!(serial.users.len() >= 7);
        assert!(serial.users.values().any(|postings| postings.len() == 6));
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
