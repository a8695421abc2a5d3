//! Incremental index maintenance at the mover's exactly-once delivery
//! point.
//!
//! [`IndexMaintainer`] implements [`uli_scribe::DeliveryTap`], so it fires
//! exactly once per successful atomic slide — after the rename that makes
//! the hour visible and after the mover's dedup commit, which is what makes
//! re-delivered duplicates invisible to the index. On each delivered hour
//! it builds the [`HourIndex`](crate::hour::HourIndex) by scanning the
//! landed files, commits it with the assemble-then-rename protocol, and
//! caches it for the query side.
//!
//! Crash safety is by construction: the only commit point is the rename of
//! the staged index directory. A crash between hour-land and index-commit
//! (simulated with [`IndexMaintainer::fail_next_commits`]) leaves a landed
//! hour with no index — [`IndexMaintainer::recover`] finds it, rebuilds
//! from the warehouse, and because a build is a wholesale scan of the
//! committed hour, the rebuilt index can never double-count.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use uli_obs::{lock, Counter, Gauge, Registry};
use uli_scribe::DeliveryTap;
use uli_warehouse::{HourlyPartition, Warehouse, WarehouseResult, WhPath};

use crate::hour::{build_hour_index, commit_hour_index, load_committed, HourIndex};

/// Registry mirrors, `set_total` discipline: the maintainer state stays
/// authoritative and the registry can only show values it computed.
struct ServeObs {
    hours_indexed: Counter,
    postings_bytes: Counter,
    lookups_served: Counter,
    row_groups_pruned: Counter,
    index_build_failures: Counter,
    index_lag_hours: Gauge,
}

impl ServeObs {
    fn new(registry: &Registry) -> ServeObs {
        ServeObs {
            hours_indexed: registry.counter("serve", "hours_indexed"),
            postings_bytes: registry.counter("serve", "postings_bytes"),
            lookups_served: registry.counter("serve", "lookups_served"),
            row_groups_pruned: registry.counter("serve", "row_groups_pruned"),
            index_build_failures: registry.counter("serve", "index_build_failures"),
            index_lag_hours: registry.gauge("serve", "index_lag_hours"),
        }
    }
}

pub(crate) struct Inner {
    pub(crate) warehouse: Warehouse,
    pub(crate) category: String,
    /// Committed hour indexes, cached for the query side, each beside its
    /// serialized length. Shared, never copied: lookups and pruners hold
    /// the `Arc` outside the lock.
    pub(crate) hours: BTreeMap<u64, (Arc<HourIndex>, u64)>,
    /// Newest hour the mover has delivered (observed via the tap).
    pub(crate) newest_delivered: Option<u64>,
    /// Sum of committed index sizes, in serialized bytes.
    pub(crate) postings_bytes: u64,
    /// Point lookups answered by the query side.
    pub(crate) lookups_served: u64,
    /// Row groups the index let lookups skip, cumulative.
    pub(crate) row_groups_pruned: u64,
    /// Decoded bytes spent building indexes (the maintenance overhead the
    /// serving layer pays once per hour, amortized over every lookup).
    pub(crate) build_decoded_bytes: u64,
    /// Delivered hours whose build or commit failed: each is unindexed —
    /// its lookups answer nothing — until [`IndexMaintainer::recover`]
    /// rebuilds it, and `lag_hours` forgets it once a later hour commits.
    build_failures: u64,
    /// Fault injection: skip this many build+commit attempts, simulating a
    /// crash between hour-land and index-commit.
    fail_commits: u64,
    /// Worker budget for the per-file scans inside an hour build.
    workers: uli_warehouse::Parallelism,
    obs: Option<ServeObs>,
}

impl Inner {
    /// Hours behind the newest delivered hour the index is. Zero when
    /// fully caught up or nothing has been delivered; when nothing at all
    /// is indexed, every delivered hour (0..=newest) is behind.
    pub(crate) fn lag_hours(&self) -> u64 {
        let Some(newest) = self.newest_delivered else {
            return 0;
        };
        match self.hours.keys().next_back() {
            Some(&indexed) => newest.saturating_sub(indexed),
            None => newest + 1,
        }
    }

    pub(crate) fn sync_obs(&self) {
        let Some(obs) = &self.obs else { return };
        obs.hours_indexed.set_total(self.hours.len() as u64);
        obs.postings_bytes.set_total(self.postings_bytes);
        obs.lookups_served.set_total(self.lookups_served);
        obs.row_groups_pruned.set_total(self.row_groups_pruned);
        obs.index_build_failures.set_total(self.build_failures);
        obs.index_lag_hours
            .set(self.lag_hours().min(i64::MAX as u64) as i64);
    }

    /// Builds and commits the index for one delivered hour, replacing any
    /// previous index for that hour wholesale.
    fn index_hour(&mut self, hour: u64) -> WarehouseResult<()> {
        let (index, scanned) =
            build_hour_index(&self.warehouse, &self.category, hour, self.workers)?;
        self.build_decoded_bytes += scanned.uncompressed_bytes_read;
        let bytes = commit_hour_index(&self.warehouse, &self.category, &index)?;
        self.cache_hour(hour, index, bytes);
        Ok(())
    }

    /// Caches `index`, committed at `bytes` long, in place of whatever the
    /// hour held.
    fn cache_hour(&mut self, hour: u64, index: HourIndex, bytes: u64) {
        let replaced = self.hours.insert(hour, (Arc::new(index), bytes));
        self.postings_bytes -= replaced.map_or(0, |(_, bytes)| bytes);
        self.postings_bytes += bytes;
    }
}

/// The serving layer's index maintainer. Cloneable; all clones share
/// state, so one clone can be boxed as the pipeline tap while another
/// hands out query handles.
#[derive(Clone)]
pub struct IndexMaintainer {
    pub(crate) inner: Arc<Mutex<Inner>>,
}

impl IndexMaintainer {
    /// A maintainer bound to the main warehouse it indexes, with no
    /// registry attached.
    pub fn new(warehouse: Warehouse, category: impl Into<String>) -> IndexMaintainer {
        Self::build(warehouse, category.into(), None)
    }

    /// A maintainer mirroring its counters into `serve/*` registry
    /// metrics on every delivered hour and every lookup.
    pub fn with_obs(
        warehouse: Warehouse,
        category: impl Into<String>,
        registry: &Registry,
    ) -> IndexMaintainer {
        Self::build(warehouse, category.into(), Some(ServeObs::new(registry)))
    }

    fn build(warehouse: Warehouse, category: String, obs: Option<ServeObs>) -> IndexMaintainer {
        IndexMaintainer {
            inner: Arc::new(Mutex::new(Inner {
                warehouse,
                category,
                hours: BTreeMap::new(),
                newest_delivered: None,
                postings_bytes: 0,
                lookups_served: 0,
                row_groups_pruned: 0,
                build_decoded_bytes: 0,
                build_failures: 0,
                fail_commits: 0,
                workers: uli_warehouse::Parallelism::serial(),
                obs,
            })),
        }
    }

    /// Shards the per-file scans inside each hour build across
    /// `workers`. The built index is identical at any worker count —
    /// file numbers are preassigned from the sorted listing and partials
    /// merge in file order.
    pub fn with_parallelism(self, workers: uli_warehouse::Parallelism) -> IndexMaintainer {
        lock(&self.inner).workers = workers;
        self
    }

    /// A boxed tap sharing this maintainer's state, ready for
    /// [`uli_scribe::ScribePipeline::add_delivery_tap`].
    pub fn tap(&self) -> Box<dyn DeliveryTap> {
        Box::new(self.clone())
    }

    /// A query handle sharing this maintainer's state.
    pub fn handle(&self) -> crate::handle::ServeHandle {
        crate::handle::ServeHandle::new(self.inner.clone())
    }

    /// Fault injection: the next `n` delivered hours land but their index
    /// build+commit is skipped, simulating a crash in the window between
    /// hour-land and index-commit. [`IndexMaintainer::recover`] must make
    /// the index whole again.
    pub fn fail_next_commits(&self, n: u64) {
        lock(&self.inner).fail_commits = n;
    }

    /// Restart path: walks every delivered hour under `/logs/<category>`,
    /// loads hours with a committed index, and rebuilds hours without one
    /// (crash-window victims). Rebuilds replace wholesale, so recovery is
    /// idempotent and can never double-count an hour.
    pub fn recover(&self) -> WarehouseResult<u64> {
        let mut inner = lock(&self.inner);
        let delivered = delivered_hours(&inner.warehouse, &inner.category)?;
        let mut rebuilt = 0;
        for hour in delivered {
            inner.newest_delivered = Some(inner.newest_delivered.unwrap_or(0).max(hour));
            if inner.hours.contains_key(&hour) {
                continue;
            }
            match load_committed(&inner.warehouse, &inner.category, hour)? {
                Some((index, bytes)) => inner.cache_hour(hour, index, bytes),
                None => {
                    inner.index_hour(hour)?;
                    rebuilt += 1;
                }
            }
        }
        inner.sync_obs();
        Ok(rebuilt)
    }

    /// Hours with a committed index, ascending.
    pub fn indexed_hours(&self) -> Vec<u64> {
        lock(&self.inner).hours.keys().copied().collect()
    }

    /// The committed index for one hour, if any.
    pub fn hour_index(&self, hour: u64) -> Option<HourIndex> {
        lock(&self.inner)
            .hours
            .get(&hour)
            .map(|(index, _)| HourIndex::clone(index))
    }

    /// Newest hour the mover has delivered, if any.
    pub fn newest_delivered(&self) -> Option<u64> {
        lock(&self.inner).newest_delivered
    }

    /// Hours the index lags behind the newest delivered hour.
    pub fn lag_hours(&self) -> u64 {
        lock(&self.inner).lag_hours()
    }

    /// Sum of committed index sizes in serialized bytes.
    pub fn postings_bytes(&self) -> u64 {
        lock(&self.inner).postings_bytes
    }

    /// Decoded bytes spent building indexes so far.
    pub fn build_decoded_bytes(&self) -> u64 {
        lock(&self.inner).build_decoded_bytes
    }
}

/// Every delivered hour under `/logs/<category>`, ascending, by walking
/// the year/month/day/hour directory tree.
fn delivered_hours(warehouse: &Warehouse, category: &str) -> WarehouseResult<Vec<u64>> {
    let root = match WhPath::parse(&format!("/logs/{category}")) {
        Ok(p) => p,
        Err(_) => return Ok(Vec::new()),
    };
    if !warehouse.is_dir(&root) {
        return Ok(Vec::new());
    }
    let mut hours = Vec::new();
    let mut stack = vec![(root, Vec::<u16>::new())];
    while let Some((dir, parts)) = stack.pop() {
        for (name, is_dir) in warehouse.list(&dir)? {
            if !is_dir {
                continue;
            }
            let Ok(n) = name.parse::<u16>() else { continue };
            let mut next = parts.clone();
            next.push(n);
            let child = dir.child(&name)?;
            if next.len() == 4 {
                let partition = HourlyPartition {
                    category: category.to_string(),
                    year: next[0],
                    month: next[1] as u8,
                    day: next[2] as u8,
                    hour: next[3] as u8,
                };
                hours.push(partition.hour_index());
            } else {
                stack.push((child, next));
            }
        }
    }
    hours.sort_unstable();
    Ok(hours)
}

impl DeliveryTap for IndexMaintainer {
    fn hour_delivered(&mut self, partition: &HourlyPartition, _payloads: &[Vec<u8>]) {
        let mut inner = lock(&self.inner);
        if partition.category != inner.category {
            return;
        }
        let hour = partition.hour_index();
        inner.newest_delivered = Some(inner.newest_delivered.unwrap_or(0).max(hour));
        if inner.fail_commits > 0 {
            // Simulated crash between hour-land and index-commit: the hour
            // is visible, the index is not. recover() repairs this.
            inner.fail_commits -= 1;
        } else if inner.index_hour(hour).is_err() {
            // Maintenance must never fail the delivery path: the hour stays
            // unindexed, counted, and recover() retries it.
            inner.build_failures += 1;
        }
        inner.sync_obs();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uli_core::{
        write_client_events_columnar, ClientEvent, EventInitiator, EventName, Timestamp,
    };

    fn land_hour(wh: &Warehouse, hour: u64, n: i64) {
        let events: Vec<ClientEvent> = (0..n)
            .map(|i| {
                ClientEvent::new(
                    EventInitiator::CLIENT_USER,
                    EventName::parse("web:home:timeline:tweet:avatar:click").unwrap(),
                    i % 5,
                    format!("s{i}"),
                    "10.0.0.1",
                    Timestamp(hour as i64 * 3_600_000 + i * 1000),
                )
            })
            .collect();
        let dir = HourlyPartition::from_hour_index("client_events", hour).main_dir();
        write_client_events_columnar(wh, &dir.child("part-00000").unwrap(), &events, true, 8)
            .unwrap();
    }

    fn deliver(m: &IndexMaintainer, hour: u64) {
        let partition = HourlyPartition::from_hour_index("client_events", hour);
        m.tap().hour_delivered(&partition, &[]);
    }

    #[test]
    fn delivered_hours_are_indexed_and_persisted() {
        let wh = Warehouse::new();
        let m = IndexMaintainer::new(wh.clone(), "client_events");
        land_hour(&wh, 0, 20);
        land_hour(&wh, 1, 10);
        deliver(&m, 0);
        deliver(&m, 1);
        assert_eq!(m.indexed_hours(), vec![0, 1]);
        assert_eq!(m.lag_hours(), 0);
        assert!(m.postings_bytes() > 0);
        assert_eq!(m.hour_index(0).unwrap().events, 20);
        // A fresh maintainer reloads the committed indexes, no rebuild.
        let m2 = IndexMaintainer::new(wh.clone(), "client_events");
        assert_eq!(m2.recover().unwrap(), 0);
        assert_eq!(m2.hour_index(1), m.hour_index(1));
    }

    #[test]
    fn crash_between_land_and_commit_recovers_without_double_count() {
        let wh = Warehouse::new();
        let m = IndexMaintainer::new(wh.clone(), "client_events");
        land_hour(&wh, 0, 16);
        deliver(&m, 0);
        land_hour(&wh, 1, 24);
        m.fail_next_commits(1);
        deliver(&m, 1); // hour lands, index commit "crashes"
        assert_eq!(m.indexed_hours(), vec![0]);
        assert_eq!(m.lag_hours(), 1);
        assert_eq!(m.recover().unwrap(), 1);
        assert_eq!(m.indexed_hours(), vec![0, 1]);
        assert_eq!(m.lag_hours(), 0);
        assert_eq!(m.hour_index(1).unwrap().events, 24);
        // Recovering again is a no-op: wholesale rebuilds never add.
        assert_eq!(m.recover().unwrap(), 0);
        assert_eq!(m.hour_index(1).unwrap().events, 24);
    }

    #[test]
    fn corrupt_index_file_is_rebuilt_from_the_landed_hour() {
        use crate::batch::{batch_count, batch_user_events};

        let wh = Warehouse::new();
        let m = IndexMaintainer::new(wh.clone(), "client_events");
        land_hour(&wh, 0, 20);
        deliver(&m, 0);
        let partition = HourlyPartition::from_hour_index("client_events", 0);
        let idx = crate::hour::index_dir(&partition)
            .child("hour.idx")
            .unwrap();
        wh.corrupt_block(&idx, 0).unwrap();
        // The log is the source of truth: a fresh maintainer treats the
        // unreadable index as absent and rebuilds it.
        let restarted = IndexMaintainer::new(wh.clone(), "client_events");
        assert_eq!(restarted.recover().unwrap(), 1);
        assert_eq!(restarted.hour_index(0), m.hour_index(0));
        let handle = restarted.handle();
        assert_eq!(
            handle.user_events(3, 0).unwrap().rows,
            batch_user_events(&wh, "client_events", 0, 3, 1).unwrap()
        );
        let name = "web:home:timeline:tweet:avatar:click";
        assert_eq!(
            handle.count(name, [0]).rows,
            batch_count(&wh, "client_events", [0], name, 1).unwrap()
        );
    }

    fn hour_file(hour: u64) -> WhPath {
        let dir = HourlyPartition::from_hour_index("client_events", hour).main_dir();
        dir.child("part-00000").unwrap()
    }

    #[test]
    fn a_failed_build_is_counted_and_the_hour_stays_unindexed_until_recovered() {
        let registry = Registry::new();
        let wh = Warehouse::new();
        let m = IndexMaintainer::with_obs(wh.clone(), "client_events", &registry);
        for hour in 0..3 {
            land_hour(&wh, hour, 20);
        }
        // The middle hour's first row group does not verify: its build
        // fails, the delivery goes on.
        wh.corrupt_block(&hour_file(1), 1).unwrap();
        for hour in 0..3 {
            deliver(&m, hour);
        }
        let failures = || {
            let snap = registry.snapshot();
            snap.counter_value("serve/index_build_failures")
        };
        assert_eq!(failures(), Some(1));
        assert_eq!(m.indexed_hours(), vec![0, 2]);
        assert_eq!(
            m.lag_hours(),
            0,
            "a later hour committed: lag does not show it"
        );
        let handle = m.handle();
        assert!(handle.user_events(3, 1).unwrap().rows.is_empty());
        assert_eq!(handle.user_events(3, 2).unwrap().rows.len(), 4);
        // While the damage stands, recovery fails too and says so.
        assert!(m.recover().is_err());
        // The block flipped back, recovery rebuilds that hour and only it.
        wh.corrupt_block(&hour_file(1), 1).unwrap();
        assert_eq!(m.recover().unwrap(), 1);
        assert_eq!(m.indexed_hours(), vec![0, 1, 2]);
        assert_eq!(handle.user_events(3, 1).unwrap().rows.len(), 4);
        assert_eq!(failures(), Some(1), "failures are counted, not current");
    }

    #[test]
    fn an_index_that_does_not_decode_is_rebuilt_and_only_it() {
        let wh = Warehouse::new();
        let m = IndexMaintainer::new(wh.clone(), "client_events");
        for hour in 0..3 {
            land_hour(&wh, hour, 20);
            deliver(&m, hour);
        }
        let committed = crate::hour::encode(&m.hour_index(1).unwrap());
        // The layout this one replaced; a valid index cut short; one whose
        // postings do not ascend (a group of the last user's, posted twice).
        let mut unsorted = committed.clone();
        let at = unsorted.len() - 2;
        unsorted[at] = 0;
        let hostile: [&[u8]; 4] = [
            b"UHI\x01\x01\x14\x14\x00\x00\x00",
            &committed[..committed.len() / 2],
            &unsorted,
            b"",
        ];
        let partition = HourlyPartition::from_hour_index("client_events", 1);
        let idx = crate::hour::index_dir(&partition)
            .child("hour.idx")
            .unwrap();
        for bytes in hostile {
            wh.delete_file(&idx).unwrap();
            let mut w = wh.create(&idx).unwrap();
            w.append_record(bytes);
            w.finish().unwrap();
            let restarted = IndexMaintainer::new(wh.clone(), "client_events");
            assert_eq!(restarted.recover().unwrap(), 1, "{bytes:?}");
            for hour in 0..3 {
                assert_eq!(restarted.hour_index(hour), m.hour_index(hour));
            }
            assert_eq!(restarted.postings_bytes(), m.postings_bytes());
            // What recovery committed loads as it is.
            let again = IndexMaintainer::new(wh.clone(), "client_events");
            assert_eq!(again.recover().unwrap(), 0);
        }
    }

    #[test]
    fn postings_bytes_follow_a_rebuild_of_an_hour() {
        let wh = Warehouse::new();
        let m = IndexMaintainer::new(wh.clone(), "client_events");
        land_hour(&wh, 0, 20);
        deliver(&m, 0);
        let small = m.postings_bytes();
        assert_eq!(
            small,
            crate::hour::encode(&m.hour_index(0).unwrap()).len() as u64
        );
        // The hour landed again, larger, and delivered again: the sum holds
        // the new length in place of the old.
        wh.delete_file(&hour_file(0)).unwrap();
        land_hour(&wh, 0, 200);
        deliver(&m, 0);
        assert!(m.postings_bytes() > small);
        assert_eq!(
            m.postings_bytes(),
            crate::hour::encode(&m.hour_index(0).unwrap()).len() as u64
        );
    }

    #[test]
    fn obs_mirrors_maintainer_state() {
        let registry = Registry::new();
        let wh = Warehouse::new();
        let m = IndexMaintainer::with_obs(wh.clone(), "client_events", &registry);
        land_hour(&wh, 2, 12);
        deliver(&m, 2);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("serve/hours_indexed"), Some(1));
        assert_eq!(
            snap.counter_value("serve/postings_bytes"),
            Some(m.postings_bytes())
        );
        assert_eq!(snap.gauge_value("serve/index_lag_hours"), Some(0));
        assert_eq!(snap.counter_value("serve/index_build_failures"), Some(0));
        assert!(registry.duplicate_registrations().is_empty());
    }
}
