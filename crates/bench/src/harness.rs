//! Shared fixtures and formatting for the experiments.

use std::fmt::{Display, Write as _};
use std::process::Command;
use std::time::Instant;

use crate::Metrics;
use uli_core::client_event::CLIENT_EVENTS_CATEGORY;
use uli_core::session::Materializer;
use uli_scribe::{LogEntry, MoveReport, PipelineConfig, ScribePipeline};
use uli_thrift::ThriftRecord;
use uli_warehouse::Warehouse;
use uli_workload::{generate_day, write_paper_raw_log, DayStream, DayWorkload, WorkloadConfig};

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

/// Datacenters in [`topology`]; [`deliver_day`] spreads users over them.
const DATACENTERS: usize = 2;
/// Hosts a datacenter in [`topology`]; [`deliver_day`] deals events over them.
const HOSTS_PER_DC: usize = 4;

/// The delivery topology of every pipeline experiment: two datacenters of
/// four hosts and two aggregators each, 10,000 records a landed file.
pub fn topology() -> PipelineConfig {
    PipelineConfig {
        datacenters: DATACENTERS,
        hosts_per_dc: HOSTS_PER_DC,
        aggregators_per_dc: 2,
        records_per_file: 10_000,
        ..Default::default()
    }
}

/// Delivers day 0 of `day` through `pipe` — built on [`topology`], its
/// landing and taps already set — hour by hour, as production does: an
/// hour's events are logged (datacenter by user id, host by arrival), then
/// the pipeline steps, flushes, seals and moves the hour. Returns each
/// hour's move report.
pub fn deliver_day(pipe: &mut ScribePipeline, day: &WorkloadConfig) -> Vec<MoveReport> {
    let mut by_hour: Vec<Vec<(i64, Vec<u8>)>> = vec![Vec::new(); 24];
    for ev in DayStream::new(day, 0) {
        by_hour[ev.timestamp.hour_index() as usize].push((ev.user_id, ev.to_bytes()));
    }
    let mut reports = Vec::new();
    for (hour, events) in (0u64..).zip(by_hour) {
        for (i, (user, bytes)) in events.into_iter().enumerate() {
            let entry = LogEntry::new(CLIENT_EVENTS_CATEGORY, bytes);
            pipe.log((user as usize) % DATACENTERS, i % HOSTS_PER_DC, entry);
        }
        pipe.step();
        pipe.flush_hour(hour);
        pipe.seal_hour(CLIENT_EVENTS_CATEGORY, hour);
        let report = pipe.move_hour(CLIENT_EVENTS_CATEGORY, hour);
        reports.push(report.expect("fault-free day: every hour moves"));
    }
    reports
}

/// A persisted metrics file: `{`, the head, the experiment's body, `}`.
///
/// The head is the experiment and its schema and, on full runs only, the
/// host, recorded as `benchmark/`'s header records it: the hardware
/// threads visible to the process and `git rev-parse --short HEAD`
/// ("unknown" outside a checkout). A smoke head names no host, so the CI
/// goldens stay machine-independent.
pub fn envelope(metrics: &Metrics, smoke: bool) -> String {
    let mut out = String::from("{\n");
    if let Some(experiment) = metrics.experiment {
        let _ = writeln!(out, "  \"experiment\": \"{experiment}\",");
    }
    let _ = writeln!(out, "  \"schema\": \"{}\",", metrics.schema);
    if !smoke {
        let git = Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|rev| !rev.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        let _ = writeln!(
            out,
            "  \"cores\": {},\n  \"git\": \"{git}\",",
            std::thread::available_parallelism().map_or(0, usize::from)
        );
    }
    out.push_str(&metrics.body);
    out.push_str("\n}\n");
    out
}

/// A metrics body under construction: its members in order, one a line,
/// as [`Metrics::body`] holds them.
#[derive(Default)]
pub struct Body(Vec<String>);

impl Body {
    /// Adds a member whose value is printed as it is: a number, a bool, or
    /// an array or object already written.
    pub fn put(mut self, key: &str, value: impl Display) -> Body {
        self.0.push(format!("  \"{key}\": {value}"));
        self
    }

    /// Adds an array of objects, one a line.
    pub fn rows(self, key: &str, rows: impl IntoIterator<Item = String>) -> Body {
        let rows: Vec<String> = rows.into_iter().map(|r| format!("    {r}")).collect();
        self.put(key, format!("[\n{}\n  ]", rows.join(",\n")))
    }

    /// The members, as [`Metrics::body`] holds them.
    pub fn finish(self) -> String {
        self.0.join(",\n")
    }

    /// The metrics `experiment` persists in `bench_file` under `schema`.
    pub fn metrics(
        self,
        experiment: &'static str,
        schema: &'static str,
        bench_file: &'static str,
    ) -> Metrics {
        Metrics {
            experiment: Some(experiment),
            schema,
            body: self.finish(),
            bench_file,
        }
    }
}

/// A string as a JSON string (the experiments' strings need no escapes).
pub fn quoted(s: &str) -> String {
    format!("\"{s}\"")
}

/// A one-line JSON object: `{"key": value, ...}`, each value printed as it
/// is (see [`quoted`] for a string).
pub fn object_of<K: Display, V: Display>(members: impl IntoIterator<Item = (K, V)>) -> String {
    let members: Vec<String> = members
        .into_iter()
        .map(|(key, value)| format!("\"{key}\": {value}"))
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// [`object_of`] a fixed list of members of any printable types.
pub fn object(members: &[(&str, &dyn Display)]) -> String {
    object_of(members.iter().copied())
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

/// Times a closure, returning (result, milliseconds): E20's stage times
/// only, until the benchmark runs the 1m day.
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

    /// A smoke head names no host, so the CI goldens stay
    /// machine-independent; a full head carries cores and git rev.
    #[test]
    fn only_a_full_head_names_the_host() {
        use uli_core::json::Json;
        let metrics = Metrics {
            experiment: Some("example"),
            schema: "uli-example-v1",
            body: "  \"records\": 3".to_string(),
            bench_file: "BENCH_example.json",
        };
        let smoke = Json::parse(&envelope(&metrics, true)).expect("parses");
        assert_eq!(
            smoke.get("experiment").and_then(Json::as_str),
            Some("example")
        );
        assert_eq!(
            smoke.get("schema").and_then(Json::as_str),
            Some("uli-example-v1")
        );
        assert_eq!(smoke.get("records").and_then(Json::as_f64), Some(3.0));
        for host in ["cores", "git"] {
            assert!(smoke.get(host).is_none(), "the smoke head names {host}");
        }
        let full = Json::parse(&envelope(&metrics, false)).expect("parses");
        assert!(full.get("cores").and_then(Json::as_f64).is_some());
        assert!(full.get("git").and_then(Json::as_str).is_some());
        assert_eq!(full.get("records").and_then(Json::as_f64), Some(3.0));
    }

    #[test]
    fn prepare_day_is_consistent() {
        let mut cfg = standard_config();
        cfg.users = 30;
        let p = prepare_day(&cfg, 0);
        assert_eq!(p.report.sessions, p.day.truth.sessions);
    }
}
