//! Shared fixtures and formatting for the experiments.

use std::fmt::Write as _;
use std::time::Instant;

use uli_core::session::Materializer;
use uli_warehouse::Warehouse;
use uli_workload::{generate_day, write_paper_raw_log, DayWorkload, WorkloadConfig};

/// The standard workload used by most experiments: large enough to have
/// stable statistics, small enough to run in seconds.
pub fn standard_config() -> WorkloadConfig {
    WorkloadConfig {
        users: 400,
        ..Default::default()
    }
}

/// A prepared day: events in the warehouse and sequences materialized.
pub struct PreparedDay {
    /// The warehouse holding raw logs, dictionary, and sequences.
    pub warehouse: Warehouse,
    /// The generated workload with ground truth.
    pub day: DayWorkload,
    /// The materialization report.
    pub report: uli_core::session::MaterializeReport,
}

/// Generates one day, lands it as the paper's row-format raw log — the
/// baseline E1–E13's tables are measured against — and materializes it.
pub fn prepare_day(config: &WorkloadConfig, day_index: u64) -> PreparedDay {
    let day = generate_day(config, day_index);
    let warehouse = Warehouse::new();
    write_paper_raw_log(&warehouse, &day.events, 4).expect("fresh warehouse");
    let report = Materializer::new(warehouse.clone())
        .run_day(day_index)
        .expect("day exists");
    PreparedDay {
        warehouse,
        day,
        report,
    }
}

/// Prepares several consecutive days into one warehouse, as [`prepare_day`]
/// does one.
pub fn prepare_days(config: &WorkloadConfig, days: u64) -> (Warehouse, Vec<DayWorkload>) {
    let warehouse = Warehouse::new();
    let mut out = Vec::new();
    for d in 0..days {
        let day = generate_day(config, d);
        write_paper_raw_log(&warehouse, &day.events, 4).expect("fresh warehouse");
        Materializer::new(warehouse.clone())
            .run_day(d)
            .expect("day exists");
        out.push(day);
    }
    (warehouse, out)
}

/// Hardware threads visible to this process. Recorded in every full-scale
/// `BENCH_*.json` so readers can judge whether a wall-clock speedup was
/// measurable on the machine that produced it; smoke outputs omit it so the
/// CI goldens stay machine-independent.
pub fn detected_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident memory (`VmHWM`) of this process so far, MB; 0 where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times a closure, returning (result, milliseconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed().as_secs_f64() * 1000.0)
}

/// A minimal fixed-width table printer.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (must match the header width).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:<w$}");
            }
            out.push('\n');
        };
        fmt_row(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }
}

/// Convenience macro-ish helper: stringifies cells.
#[macro_export]
macro_rules! cells {
    ($($x:expr),* $(,)?) => {
        &[$(format!("{}", $x)),*]
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns() {
        let mut t = Table::new(&["name", "count"]);
        t.row(cells!["a", 1]).row(cells!["long_name", 100]);
        let text = t.render();
        assert!(text.contains("name"));
        assert!(text.lines().count() == 4);
    }

    #[test]
    fn prepare_day_is_consistent() {
        let mut cfg = standard_config();
        cfg.users = 30;
        let p = prepare_day(&cfg, 0);
        assert_eq!(p.report.sessions, p.day.truth.sessions);
    }
}
