//! Automatic roll-up aggregations (§3.2).
//!
//! "Oink jobs automatically aggregate counts of events according to the
//! following schemas:
//! `(client, page, section, component, element, action)` …
//! `(client, *, *, *, *, action)`.
//! These counts are presented as top-level metrics in our internal
//! dashboard, further broken down by country and logged in/logged out
//! status. Thus, without any additional intervention from the application
//! developer, rudimentary statistics are computed and made available on a
//! daily basis."

use std::collections::BTreeMap;

use uli_core::client_event::{ClientEvent, CLIENT_EVENTS_CATEGORY};
use uli_core::columnar::{
    event_columns, for_each_event_row, EventColumns, IP_COLUMN, NAME_COLUMN, USER_COLUMN,
};
use uli_core::event::EventName;
use uli_core::session::day_dir;
use uli_warehouse::{ScanFile, Warehouse, WarehouseError, WarehouseResult, WhPath};

/// What a roll-up reads of an event.
const ROLLUP_COLUMNS: EventColumns = event_columns([NAME_COLUMN, USER_COLUMN, IP_COLUMN]);

/// The five roll-up schemas: how many leading levels are kept literal
/// (the action is always kept).
pub const ROLLUP_LEVELS: [usize; 5] = [5, 4, 3, 2, 1];

/// Key of one roll-up counter.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RollupKey {
    /// 1–5: leading levels kept.
    pub level: usize,
    /// The rolled-up name, e.g. `web:home:*:*:*:profile_click`.
    pub rollup: String,
    /// Country derived from the IP.
    pub country: String,
    /// Logged-in vs logged-out.
    pub logged_in: bool,
}

/// A day's roll-up counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RollupTable {
    counts: BTreeMap<RollupKey, u64>,
}

/// Fake GeoIP: a stable mapping from the leading IPv4 octet to a small
/// country set — the simulation's stand-in for the paper's per-country
/// breakdown.
pub fn country_of_ip(ip: &str) -> &'static str {
    const COUNTRIES: [&str; 5] = ["us", "uk", "jp", "br", "de"];
    let first_octet: u64 = ip
        .split('.')
        .next()
        .and_then(|o| o.parse().ok())
        .unwrap_or(0);
    COUNTRIES[(first_octet % COUNTRIES.len() as u64) as usize]
}

impl RollupTable {
    /// Folds one event into all five schemas.
    pub fn add_event(&mut self, ev: &ClientEvent) {
        self.add(&ev.name, ev.logged_in(), &ev.ip);
    }

    fn add(&mut self, name: &EventName, logged_in: bool, ip: &str) {
        let country = country_of_ip(ip).to_string();
        for level in ROLLUP_LEVELS {
            let key = RollupKey {
                level,
                rollup: name.rollup(level),
                country: country.clone(),
                logged_in,
            };
            *self.counts.entry(key).or_insert(0) += 1;
        }
    }

    /// Count for one fully-specified key.
    pub fn get(&self, level: usize, rollup: &str, country: &str, logged_in: bool) -> u64 {
        self.counts
            .get(&RollupKey {
                level,
                rollup: rollup.to_string(),
                country: country.to_string(),
                logged_in,
            })
            .copied()
            .unwrap_or(0)
    }

    /// Total for a rolled-up name across countries and login status — the
    /// number the dashboard's top-level metric shows.
    pub fn total(&self, level: usize, rollup: &str) -> u64 {
        self.counts
            .iter()
            .filter(|(k, _)| k.level == level && k.rollup == rollup)
            .map(|(_, v)| v)
            .sum()
    }

    /// Top-`k` rolled-up names at a level by total count.
    pub fn top_k(&self, level: usize, k: usize) -> Vec<(String, u64)> {
        let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
        for (key, v) in &self.counts {
            if key.level == level {
                *totals.entry(&key.rollup).or_insert(0) += v;
            }
        }
        let mut out: Vec<(String, u64)> = totals
            .into_iter()
            .map(|(n, c)| (n.to_string(), c))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out.truncate(k);
        out
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True if no events were folded in.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterates all counters.
    pub fn iter(&self) -> impl Iterator<Item = (&RollupKey, u64)> {
        self.counts.iter().map(|(k, v)| (k, *v))
    }

    /// Serializes as tab-separated warehouse records.
    pub fn to_records(&self) -> Vec<Vec<u8>> {
        self.counts
            .iter()
            .map(|(k, v)| {
                format!(
                    "{}\t{}\t{}\t{}\t{}",
                    k.level, k.rollup, k.country, k.logged_in as u8, v
                )
                .into_bytes()
            })
            .collect()
    }

    /// Parses records produced by [`to_records`](Self::to_records).
    pub fn from_records<I: IntoIterator<Item = Vec<u8>>>(records: I) -> RollupTable {
        let mut counts = BTreeMap::new();
        for rec in records {
            let Ok(text) = String::from_utf8(rec) else {
                continue;
            };
            let parts: Vec<&str> = text.split('\t').collect();
            if parts.len() != 5 {
                continue;
            }
            let (Ok(level), Ok(logged), Ok(v)) = (
                parts[0].parse::<usize>(),
                parts[3].parse::<u8>(),
                parts[4].parse::<u64>(),
            ) else {
                continue;
            };
            counts.insert(
                RollupKey {
                    level,
                    rollup: parts[1].to_string(),
                    country: parts[2].to_string(),
                    logged_in: logged != 0,
                },
                v,
            );
        }
        RollupTable { counts }
    }
}

/// Where a day's roll-ups are stored.
pub fn rollup_dir(day_index: u64) -> WhPath {
    let day = day_dir("rollups", day_index);
    WhPath::parse(&day.as_str().replacen("/logs/", "/", 1)).expect("constructed path is valid")
}

/// The daily roll-up job: scans a day of client events — whichever layout
/// each file landed in, reading only the name, user id and ip — computes all
/// five schemas, and persists the table. Records that do not decode are
/// passed over, as every reader of the raw log does. Returns the table for
/// dashboard use.
pub fn compute_rollups(warehouse: &Warehouse, day_index: u64) -> WarehouseResult<RollupTable> {
    let mut table = RollupTable::default();
    let day = day_dir(CLIENT_EVENTS_CATEGORY, day_index);
    if warehouse.exists(&day) {
        for path in warehouse.list_files_recursive(&day)? {
            let file = ScanFile::open(warehouse, &path)?;
            for_each_event_row(&file, 0..file.units(), ROLLUP_COLUMNS, |_, row| {
                let name = EventName::parse(row.name()?)
                    .map_err(|_| WarehouseError::Corrupt("event name"))?;
                table.add(&name, row.user_id()? != 0, row.ip()?);
                Ok(())
            })?;
        }
    }
    let dir = rollup_dir(day_index);
    if warehouse.exists(&dir) {
        warehouse.delete_dir(&dir)?;
    }
    let mut w = warehouse.create(&dir.child("counts").expect("valid name"))?;
    for rec in table.to_records() {
        w.append_record(&rec);
    }
    w.finish()?;
    Ok(table)
}

/// Loads a previously computed day's roll-up table.
pub fn load_rollups(warehouse: &Warehouse, day_index: u64) -> WarehouseResult<RollupTable> {
    let file = rollup_dir(day_index).child("counts").expect("valid name");
    Ok(RollupTable::from_records(
        warehouse.open(&file)?.read_all()?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uli_core::event::EventInitiator;
    use uli_core::time::Timestamp;
    use uli_core::ClientEventLanding;
    use uli_thrift::ThriftRecord;
    use uli_warehouse::{ColumnarLanding, HourlyPartition};

    fn ev(name: &str, user: i64, ip: &str) -> ClientEvent {
        ClientEvent::new(
            EventInitiator::CLIENT_USER,
            EventName::parse(name).unwrap(),
            user,
            "s-1",
            ip,
            Timestamp(0),
        )
    }

    #[test]
    fn one_event_counts_in_all_five_schemas() {
        let mut t = RollupTable::default();
        t.add_event(&ev(
            "web:home:mentions:stream:avatar:profile_click",
            7,
            "1.2.3.4",
        ));
        assert_eq!(t.len(), 5);
        assert_eq!(
            t.total(5, "web:home:mentions:stream:avatar:profile_click"),
            1
        );
        assert_eq!(t.total(1, "web:*:*:*:*:profile_click"), 1);
    }

    #[test]
    fn cross_client_rollups_merge_at_low_levels() {
        let mut t = RollupTable::default();
        t.add_event(&ev("web:home:home:stream:tweet:click", 1, "1.1.1.1"));
        t.add_event(&ev("iphone:home:home:stream:tweet:click", 1, "1.1.1.1"));
        // Level 5 keeps them apart; they only share lower levels per client.
        assert_eq!(t.total(5, "web:home:home:stream:tweet:click"), 1);
        assert_eq!(t.total(1, "web:*:*:*:*:click"), 1);
        assert_eq!(t.total(1, "iphone:*:*:*:*:click"), 1);
    }

    #[test]
    fn country_and_login_breakdowns() {
        let mut t = RollupTable::default();
        t.add_event(&ev("web:home:home:stream:tweet:click", 7, "0.0.0.1")); // us
        t.add_event(&ev("web:home:home:stream:tweet:click", 0, "1.0.0.1")); // uk, logged out
        assert_eq!(t.get(5, "web:home:home:stream:tweet:click", "us", true), 1);
        assert_eq!(t.get(5, "web:home:home:stream:tweet:click", "uk", false), 1);
        assert_eq!(t.get(5, "web:home:home:stream:tweet:click", "uk", true), 0);
        assert_eq!(t.total(5, "web:home:home:stream:tweet:click"), 2);
    }

    #[test]
    fn country_mapping_is_stable() {
        assert_eq!(country_of_ip("0.9.9.9"), "us");
        assert_eq!(country_of_ip("1.0.0.0"), "uk");
        assert_eq!(country_of_ip("6.0.0.0"), "uk");
        assert_eq!(country_of_ip("garbage"), "us");
    }

    #[test]
    fn top_k_orders_by_count() {
        let mut t = RollupTable::default();
        for _ in 0..5 {
            t.add_event(&ev("web:home:home:stream:tweet:impression", 1, "0.0.0.1"));
        }
        t.add_event(&ev("web:home:home:stream:tweet:click", 1, "0.0.0.1"));
        let top = t.top_k(5, 2);
        assert_eq!(top[0].0, "web:home:home:stream:tweet:impression");
        assert_eq!(top[0].1, 5);
        assert_eq!(top.len(), 2);
    }

    #[test]
    fn records_round_trip() {
        let mut t = RollupTable::default();
        t.add_event(&ev("web:home:home:stream:tweet:click", 1, "0.0.0.1"));
        t.add_event(&ev("iphone:a:b:c:d:fav", 0, "1.0.0.1"));
        let back = RollupTable::from_records(t.to_records());
        assert_eq!(back, t);
    }

    #[test]
    fn daily_job_scans_the_warehouse_and_persists() {
        let wh = Warehouse::new();
        let dir = HourlyPartition::from_hour_index(CLIENT_EVENTS_CATEGORY, 0).main_dir();
        let mut w = wh.create(&dir.child("part-0").unwrap()).unwrap();
        for i in 0..10 {
            let e = ev("web:home:home:stream:tweet:impression", i, "0.0.0.1");
            w.append_record(&e.to_bytes());
        }
        w.finish().unwrap();

        let table = compute_rollups(&wh, 0).unwrap();
        assert_eq!(table.total(5, "web:home:home:stream:tweet:impression"), 10);
        let loaded = load_rollups(&wh, 0).unwrap();
        assert_eq!(loaded, table);
        // Rebuild is idempotent.
        let again = compute_rollups(&wh, 0).unwrap();
        assert_eq!(again, table);
    }

    /// A day as the log mover's columnar landing leaves it — a columnar part
    /// file, and a row-format `-rows` sibling for the payload it could not
    /// encode — rolls up to the table of the same events landed row-format.
    #[test]
    fn columnar_and_row_landed_days_roll_up_to_one_table() {
        let names = [
            "web:home:home:stream:tweet:impression",
            "web:home:mentions:stream:avatar:profile_click",
            "iphone:profile:::tweet:follow",
        ];
        let events: Vec<ClientEvent> = (0..40)
            .map(|i| ev(names[i % 3], (i % 5) as i64, &format!("{}.0.0.1", i % 7)))
            .collect();
        let mut payloads: Vec<Vec<u8>> = events.iter().map(|e| e.to_bytes()).collect();
        payloads.insert(17, b"not a client event".to_vec());
        let dir = HourlyPartition::from_hour_index(CLIENT_EVENTS_CATEGORY, 0).main_dir();

        let row = Warehouse::new();
        let mut w = row.create(&dir.child("part-00000").unwrap()).unwrap();
        for p in &payloads {
            w.append_record(p);
        }
        w.finish().unwrap();

        let col = Warehouse::new();
        let rejected = ClientEventLanding::default()
            .write_file(&col, &dir.child("part-00000").unwrap(), &payloads)
            .unwrap();
        assert_eq!(rejected, vec![17]);
        let mut w = col.create(&dir.child("part-00000-rows").unwrap()).unwrap();
        w.append_record(&payloads[17]);
        w.finish().unwrap();

        let mut expected = RollupTable::default();
        events.iter().for_each(|e| expected.add_event(e));
        assert_eq!(compute_rollups(&row, 0).unwrap(), expected);
        assert_eq!(compute_rollups(&col, 0).unwrap(), expected);
    }

    #[test]
    fn empty_day_yields_empty_table() {
        let wh = Warehouse::new();
        let t = compute_rollups(&wh, 9).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.top_k(5, 3), vec![]);
    }
}
