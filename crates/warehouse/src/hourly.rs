//! Per-category, per-hour partition naming.
//!
//! "Logs arrive in the main data warehouse and are deposited in per-category,
//! per-hour directories (e.g., `/logs/category/YYYY/MM/DD/HH/`)" (§2).

use crate::error::{WarehouseError, WarehouseResult};
use crate::path::WhPath;
use crate::store::Warehouse;

/// Identifies one hour of one log category.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HourlyPartition {
    /// Scribe category, e.g. `client_events`.
    pub category: String,
    /// Year (e.g. 2012).
    pub year: u16,
    /// Month 1–12.
    pub month: u8,
    /// Day 1–31.
    pub day: u8,
    /// Hour 0–23.
    pub hour: u8,
}

impl HourlyPartition {
    /// Builds a partition, validating the calendar fields.
    pub fn new(
        category: impl Into<String>,
        year: u16,
        month: u8,
        day: u8,
        hour: u8,
    ) -> WarehouseResult<Self> {
        let category = category.into();
        if category.is_empty()
            || category.contains('/')
            || !(1..=12).contains(&month)
            || !(1..=31).contains(&day)
            || hour > 23
        {
            return Err(WarehouseError::BadPath(format!(
                "{category}/{year}/{month}/{day}/{hour}"
            )));
        }
        Ok(HourlyPartition {
            category,
            year,
            month,
            day,
            hour,
        })
    }

    /// Builds a partition from an hour index (hours since epoch hour zero in
    /// a simplified 30-day-month calendar used by the simulation clock).
    ///
    /// The simulation timestamps are milliseconds since an arbitrary origin;
    /// we map them to a synthetic calendar starting 2012-08-01 00:00.
    pub fn from_hour_index(category: impl Into<String>, hour_index: u64) -> Self {
        let hour = (hour_index % 24) as u8;
        let days = hour_index / 24;
        let day = (days % 30 + 1) as u8;
        let months = days / 30;
        let month = ((7 + months) % 12 + 1) as u8;
        let year = (2012 + (7 + months) / 12) as u16;
        HourlyPartition {
            category: category.into(),
            year,
            month,
            day,
            hour,
        }
    }

    /// The hour index this partition covers — the inverse of
    /// [`HourlyPartition::from_hour_index`] under the same synthetic
    /// 30-day-month calendar.
    pub fn hour_index(&self) -> u64 {
        let months = (self.year as u64 - 2012) * 12 + self.month as u64 - 1 - 7;
        ((months * 30 + self.day as u64 - 1) * 24) + self.hour as u64
    }

    /// The directory under the main warehouse: `/logs/<cat>/YYYY/MM/DD/HH`.
    pub fn main_dir(&self) -> WhPath {
        WhPath::parse(&format!(
            "/logs/{}/{:04}/{:02}/{:02}/{:02}",
            self.category, self.year, self.month, self.day, self.hour
        ))
        .expect("constructed path is valid")
    }

    /// The staging directory used while an hour is being assembled, sibling
    /// to the final location so the final move is a pure rename.
    pub fn staging_dir(&self) -> WhPath {
        WhPath::parse(&format!(
            "/staging/{}/{:04}/{:02}/{:02}/{:02}",
            self.category, self.year, self.month, self.day, self.hour
        ))
        .expect("constructed path is valid")
    }
}

impl std::fmt::Display for HourlyPartition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{:04}/{:02}/{:02}/{:02}",
            self.category, self.year, self.month, self.day, self.hour
        )
    }
}

/// Every delivered hour of `category`, ascending: the hour indexes whose
/// [`HourlyPartition::main_dir`] is a directory of `warehouse`. The walk is
/// the checked inverse of `main_dir`: a directory under `/logs/<category>`
/// counts only if [`HourlyPartition::from_hour_index`] names it exactly, so
/// a year before the calendar starts, a 31st day or an unpadded name is
/// skipped, never wrapped into some other hour.
pub fn delivered_hours(warehouse: &Warehouse, category: &str) -> WarehouseResult<Vec<u64>> {
    let Ok(root) = WhPath::parse(&format!("/logs/{category}")) else {
        return Ok(Vec::new());
    };
    if !warehouse.is_dir(&root) {
        return Ok(Vec::new());
    }
    let mut hours = Vec::new();
    let mut stack = vec![(root, Vec::new())];
    while let Some((dir, parts)) = stack.pop() {
        for (name, is_dir) in warehouse.list(&dir)? {
            let Ok(n) = name.parse::<u16>() else { continue };
            if !is_dir {
                continue;
            }
            let mut parts = parts.clone();
            parts.push(u64::from(n));
            let child = dir.child(&name)?;
            let [year, month, day, hour] = parts[..] else {
                stack.push((child, parts));
                continue;
            };
            // `hour_index`, checked: segments are u16, so only the
            // subtractions can leave range.
            let index = (year * 12 + month)
                .checked_sub(2012 * 12 + 8)
                .and_then(|months| (months * 30 + day).checked_sub(1))
                .map(|days| days * 24 + hour)
                .filter(|&i| HourlyPartition::from_hour_index(category, i).main_dir() == child);
            hours.extend(index);
        }
    }
    hours.sort_unstable();
    Ok(hours)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_calendar_fields() {
        assert!(HourlyPartition::new("ce", 2012, 8, 21, 14).is_ok());
        assert!(HourlyPartition::new("", 2012, 8, 21, 14).is_err());
        assert!(HourlyPartition::new("a/b", 2012, 8, 21, 14).is_err());
        assert!(HourlyPartition::new("ce", 2012, 0, 21, 14).is_err());
        assert!(HourlyPartition::new("ce", 2012, 13, 21, 14).is_err());
        assert!(HourlyPartition::new("ce", 2012, 8, 0, 14).is_err());
        assert!(HourlyPartition::new("ce", 2012, 8, 32, 14).is_err());
        assert!(HourlyPartition::new("ce", 2012, 8, 21, 24).is_err());
    }

    #[test]
    fn directory_layout_matches_paper() {
        let p = HourlyPartition::new("client_events", 2012, 8, 21, 9).unwrap();
        assert_eq!(p.main_dir().as_str(), "/logs/client_events/2012/08/21/09");
        assert_eq!(
            p.staging_dir().as_str(),
            "/staging/client_events/2012/08/21/09"
        );
    }

    #[test]
    fn hour_index_mapping_is_stable() {
        let p = HourlyPartition::from_hour_index("ce", 0);
        assert_eq!((p.year, p.month, p.day, p.hour), (2012, 8, 1, 0));
        let p = HourlyPartition::from_hour_index("ce", 25);
        assert_eq!((p.year, p.month, p.day, p.hour), (2012, 8, 2, 1));
        // 30 synthetic days later: next month.
        let p = HourlyPartition::from_hour_index("ce", 24 * 30);
        assert_eq!((p.year, p.month, p.day), (2012, 9, 1));
    }

    #[test]
    fn hour_index_round_trips() {
        for idx in [0u64, 1, 23, 24, 25, 24 * 30, 24 * 30 * 5 + 7, 24 * 365] {
            let p = HourlyPartition::from_hour_index("ce", idx);
            assert_eq!(p.hour_index(), idx, "round trip at {idx}");
        }
    }

    #[test]
    fn delivered_hours_are_exactly_the_written_hour_directories() {
        let wh = Warehouse::new();
        assert!(delivered_hours(&wh, "ce").unwrap().is_empty());
        let written = [24 * 30 * 5 + 7, 0, 24 * 365, 25];
        for idx in written {
            wh.mkdirs(&HourlyPartition::from_hour_index("ce", idx).main_dir())
                .unwrap();
        }
        for stray in [
            "2011/01/01/00",
            "2012/07/30/23",
            "2012/08/00/00",
            "2012/08/31/00",
            "2012/13/01/00",
            "2012/08/01/24",
            "2012/8/01/00",
            "+2012/08/01/00",
            "2012/08/01",
            "65535/65535/65535/65535",
            "notes/08/01/00",
        ] {
            wh.mkdirs(&WhPath::parse(&format!("/logs/ce/{stray}")).unwrap())
                .unwrap();
        }
        let mut want = written.to_vec();
        want.sort_unstable();
        assert_eq!(delivered_hours(&wh, "ce").unwrap(), want);
    }
}
