//! One benchmark run: set-up, one warm-up round and three to five measured
//! rounds of the workload's phase over the whole day, the report.
//!
//! A workload is one phase of the path (`phases.rs`) run at full size, and
//! nothing else; its metrics are medians over the measured rounds.
//!
//! A traced run does more, because the driver's contract wants every
//! per-layer metric from the traced run of every workload ("with `--trace 1`
//! every `per_layer` metric"): after the rounds of its own phase it runs a
//! few rounds of each other phase over a *probe day* a twentieth the size,
//! and a per-layer metric its own phase does not produce is reported from
//! there. Those cells exist because the contract asks for them; the report
//! marks where each number came from.

use std::io::Write;
use std::process::Command;
use std::time::Instant;

use crate::host::HostProbe;
use crate::input::{lookup_plan, Day};
use crate::metrics::{Better, MetricDef, Recorder, END_TO_END, PER_LAYER, UNGATED};
use crate::phases::{
    analyze_once, analyze_round, cycle_round, deliver_round, serve_round, Ctx, Stage, Tally,
};
use crate::probes::{kernel_probes, storage_probes};
use crate::stats::{median, Summary};
use crate::trace::Tracer;

/// Users in the generated day: about 225 000 events and 70 MB of payload.
pub const USERS: u64 = 10_000;
/// Users in the probe day a traced run's other three phases run over.
pub const PROBE_USERS: u64 = 500;
/// Measured rounds after the warm-up round.
pub const ROUNDS: u32 = 5;
/// Rounds measured even when `--seconds` are already spent.
const MIN_ROUNDS: u32 = 3;
/// `run_seconds` in `BENCHMARK.json`: the measured rounds of a run end within
/// it. The driver's 92 runs and two builds share 3 420 s, so the two slowest
/// phases get four (`cycle`) and three (`analyze`) rounds on the reference
/// host; a slower host gets fewer rounds, not a longer run.
pub const RUN_SECONDS: u32 = 25;
/// Lookups per serve round.
const LOOKUPS: usize = 600;
/// Rounds of each other phase over the probe day, in a traced run.
const PROBE_ROUNDS: u32 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Deliver,
    Cycle,
    Analyze,
    Serve,
}

impl Phase {
    /// Delivery phases first: on the probe day they leave behind the
    /// pipeline the read phases run over.
    const ALL: [Phase; 4] = [Phase::Deliver, Phase::Cycle, Phase::Analyze, Phase::Serve];

    fn name(self) -> &'static str {
        match self {
            Phase::Deliver => "deliver",
            Phase::Cycle => "cycle",
            Phase::Analyze => "analyze",
            Phase::Serve => "serve",
        }
    }

    /// Name of the root span of one round, as `phases.rs` opens it.
    fn round_span(self) -> &'static str {
        match self {
            Phase::Deliver => "deliver.round",
            Phase::Cycle => "cycle.round",
            Phase::Analyze => "analyze.round",
            Phase::Serve => "serve.round",
        }
    }

    /// The end-to-end metric whose traced and untraced medians give
    /// `trace_overhead_pct`.
    fn headline(self) -> &'static str {
        match self {
            Phase::Deliver => "deliver_rps",
            Phase::Cycle => "cycle_rps",
            Phase::Analyze => "materialize_ns_per_record",
            Phase::Serve => "lookup_rps",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DeliverDay,
    AnalyzeDay,
    ServeLookups,
    HourlyCycle,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DeliverDay,
        Workload::AnalyzeDay,
        Workload::ServeLookups,
        Workload::HourlyCycle,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DeliverDay => "deliver-day",
            Workload::AnalyzeDay => "analyze-day",
            Workload::ServeLookups => "serve-lookups",
            Workload::HourlyCycle => "hourly-cycle",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload exists; the same line goes into `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::DeliverDay => {
                "write path only: scribe, thrift decode, columnar encode, compress, \
                 index build and stream fold do all the work, the read side none"
            }
            Workload::AnalyzeDay => {
                "nightly batch on a cold cache: warehouse read, decompress and column decode, \
                 dataflow and sessionizing do all the work, scribe none"
            }
            Workload::ServeLookups => {
                "interactive reads on a warm cache: serve postings and a few row-group reads; \
                 the same warehouse used for point reads instead of scans"
            }
            Workload::HourlyCycle => {
                "writes beside reads on one pipeline: every hour delivered then answered at once, \
                 so a change that helps one side and costs the other shows; yields freshness"
            }
        }
    }

    /// The phase the workload runs over the whole day.
    fn phase(self) -> Phase {
        match self {
            Workload::DeliverDay => Phase::Deliver,
            Workload::AnalyzeDay => Phase::Analyze,
            Workload::ServeLookups => Phase::Serve,
            Workload::HourlyCycle => Phase::Cycle,
        }
    }
}

/// Everything that decides what a run does. Nothing comes from the
/// environment.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Once [`MIN_ROUNDS`] are done, no round starts that would end more than
    /// this many seconds after the first measured one began, judged by how
    /// long the previous round took.
    pub seconds: f64,
    pub trace: bool,
    /// Users in the day and in the probe day; [`USERS`] and [`PROBE_USERS`]
    /// from the command line, less in tests.
    pub users: u64,
    pub probe_users: u64,
}

/// What a run hands to `main` and to the tests.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the run's mode, each with the summary of its samples.
    pub metrics: Vec<(MetricDef, Summary)>,
    pub trace_json: Option<String>,
}

impl RunResult {
    #[cfg(test)]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(m, _)| m.name == name)
            .map(|(_, s)| s.median)
    }

    /// The result object the driver reads from the last line of stdout.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, s)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, s.median, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A day, what is delivered from it, and the samples of the rounds over it.
struct Side {
    stage: Stage,
    rec: Recorder,
}

struct Run {
    /// The whole day: the workload's own phase runs here.
    day: Side,
    /// The probe day: the other three phases run here.
    probe: Side,
    tally: Tally,
}

impl Run {
    /// One round of `phase` over the probe day or the whole one. Round 0 is
    /// the warm-up: same code, no timing recorded. A read phase over a whole
    /// day nothing has been delivered from yet delivers it first, in round 0.
    /// On the probe day a delivery phase always runs before the read phases.
    fn round(&mut self, phase: Phase, on_probe: bool, round: u32, tracer: &Tracer) {
        tracer.set_round(round);
        let side = if on_probe {
            &mut self.probe
        } else {
            &mut self.day
        };
        let stage = &mut side.stage;
        let mut ctx = Ctx {
            tracer,
            rec: &mut side.rec,
            tally: &mut self.tally,
            measured: round > 0,
        };
        if matches!(phase, Phase::Analyze | Phase::Serve) && stage.delivered.is_none() {
            assert_eq!(round, 0, "the whole day is delivered in the warm-up");
            deliver_round(&mut ctx, stage, 1);
        }
        match phase {
            Phase::Deliver => {
                deliver_round(&mut ctx, stage, 1);
            }
            Phase::Cycle => cycle_round(&mut ctx, stage),
            Phase::Analyze => analyze_round(&mut ctx, stage),
            Phase::Serve => {
                let plan = lookup_plan(&stage.day, LOOKUPS);
                // Answers are verified on the first measured round only: the
                // batch reference scans are too slow to repeat.
                serve_round(&mut ctx, stage, &plan, round == 1);
            }
        }
    }
}

/// `git rev-parse` and `rustc -V`, or "unknown" where there is no git
/// checkout or no compiler on the path.
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload and writes the report to `out`.
pub fn run(cfg: &RunConfig, out: &mut dyn Write) -> std::io::Result<RunResult> {
    let process_start = Instant::now();
    let workload = cfg.workload;
    let phase = workload.phase();
    let others: Vec<Phase> = Phase::ALL.into_iter().filter(|&p| p != phase).collect();
    let tracer = if cfg.trace {
        Tracer::on(workload.name())
    } else {
        Tracer::off()
    };
    writeln!(
        out,
        "# uli-benchmark  workload={}  seed={}  seconds={}  trace={}",
        workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    )?;
    writeln!(
        out,
        "# host: nproc={}  rustc=\"{}\"  git={}",
        std::thread::available_parallelism().map_or(0, usize::from),
        tool_line("rustc", &["-V"]),
        tool_line("git", &["rev-parse", "--short", "HEAD"]),
    )?;
    writeln!(
        out,
        "# load: 1 generator thread, closed loop of 1 client, workers=1; \
         1 warm-up round + up to {ROUNDS} measured rounds (at least {MIN_ROUNDS}, within --seconds), \
         medians over the measured rounds"
    )?;
    writeln!(out, "# why: {}", workload.why())?;

    // The inputs. Only the whole day's generator and encoder spans feed the
    // per-layer metrics.
    let day = Day::generate(cfg.users, cfg.seed, &tracer);
    let generated = tracer.all();
    let probe_day = Day::generate(cfg.probe_users, cfg.seed, &tracer);
    writeln!(
        out,
        "# input: users={}  events={}  payload_bytes={}  traffic_hours={}  sessions={}",
        day.users,
        day.records,
        day.payload_bytes,
        day.traffic_hours.len(),
        day.truth.sessions
    )?;
    if cfg.trace {
        writeln!(
            out,
            "# probe day ({} run over it): users={}  events={}",
            others
                .iter()
                .map(|p| p.name())
                .collect::<Vec<_>>()
                .join(", "),
            probe_day.users,
            probe_day.records
        )?;
    }
    let mut run = Run {
        day: Side {
            stage: Stage::new(day),
            rec: Recorder::default(),
        },
        probe: Side {
            stage: Stage::new(probe_day),
            rec: Recorder::default(),
        },
        tally: Tally::default(),
    };
    if cfg.trace {
        let n = run.day.stage.day.records as f64;
        for (span, metric) in [
            ("workload.generate", "workload.generate_ns_per_record"),
            ("thrift.encode", "thrift.encode_ns_per_record"),
        ] {
            run.day
                .rec
                .push(metric, generated.total_ns_of(span) as f64 / n);
        }
    }

    // Round 0 warms up; rounds 1.. are measured. A traced run leaves its even
    // rounds untraced, into a recorder of their own: the same process then
    // yields `trace_overhead_pct`.
    let off = Tracer::off();
    let mut host = HostProbe::new();
    let mut untraced = Recorder::default();
    let mut measured_from = Instant::now();
    let mut rounds = 0;
    let mut last_round_s = 0.0;
    for round in 0..=ROUNDS {
        if round == 1 {
            measured_from = Instant::now();
            let setup_s = (measured_from - process_start).as_secs_f64();
            run.day.rec.push("setup_s", setup_s);
        }
        if round > MIN_ROUNDS
            && measured_from.elapsed().as_secs_f64() + last_round_s > cfg.seconds
        {
            break;
        }
        let round_start = Instant::now();
        host.probe();
        if cfg.trace && round > 0 && round % 2 == 0 {
            std::mem::swap(&mut run.day.rec, &mut untraced);
            run.round(phase, false, round, &off);
            std::mem::swap(&mut run.day.rec, &mut untraced);
        } else {
            run.round(phase, false, round, &tracer);
        }
        rounds = round;
        last_round_s = round_start.elapsed().as_secs_f64();
    }
    let measured_s = measured_from.elapsed().as_secs_f64();

    // Traced extras: the other phases over the probe day (its first round is
    // the cold one, and the median drops it); the analyze queries too slow
    // for every round, over the day the analyze phase ran on; then, over the
    // whole day, one delivery pass with two mover workers and the kernel and
    // storage probes.
    let mut ledger = None;
    if cfg.trace {
        for round in 1..=PROBE_ROUNDS {
            for &other in &others {
                run.round(other, true, round, &tracer);
            }
        }
        let analyzed = if phase == Phase::Analyze {
            &mut run.day
        } else {
            &mut run.probe
        };
        let mut ctx = Ctx {
            tracer: &tracer,
            rec: &mut analyzed.rec,
            tally: &mut run.tally,
            measured: true,
        };
        analyze_once(&mut ctx, &analyzed.stage);

        let Side { stage, rec } = &mut run.day;
        tracer.set_round(0);
        let mut ctx = Ctx {
            tracer: &tracer,
            rec,
            tally: &mut run.tally,
            measured: false,
        };
        // Checked like every pass, but not a sample of `deliver_rps`.
        let (secs, spans) = deliver_round(&mut ctx, stage, 2);
        ctx.measured = true;
        let n = stage.day.records as f64;
        ctx.push("deliver.rps_w2", n / secs);
        ctx.push(
            "scribe.move_w2_ns_per_record",
            spans.self_ns_of("scribe.move") as f64 / n,
        );
        kernel_probes(&mut ctx, &stage.day);
        let delivered = stage.delivered.as_ref().expect("the pass just delivered");
        storage_probes(&mut ctx, &stage.day, delivered);

        let (rows, residual) = tracer.all().measured_rounds_of(phase.round_span()).ledger();
        rec.push("trace.residual_pct", residual);
        ledger = Some((rows, residual));
        let traced = rec.summary(phase.headline()).map(|s| s.median);
        let untraced = untraced.summary(phase.headline()).map(|s| s.median);
        if let (Some(off), Some(on)) = (untraced, traced) {
            let slower = match metric_def(phase.headline()).better {
                Better::Higher => off / on,
                Better::Lower => on / off,
            };
            rec.push("trace_overhead_pct", (slower - 1.0) * 100.0);
        }
    }
    run.day.rec.push("peak_rss_mb", peak_rss_mb());

    // The report.
    writeln!(
        out,
        "# ran: {} over the whole day, {rounds} measured rounds in {measured_s:.1} s; \
         first measured round {:.2} s after process start",
        phase.name(),
        (measured_from - process_start).as_secs_f64()
    )?;
    let mut host_us = host.samples_us.clone();
    host_us.sort_by(f64::total_cmp);
    writeln!(
        out,
        "# host speed: a fixed kernel before each round took {:.0} / {:.0} / {:.0} us \
         (fastest / median / slowest)",
        host_us[0],
        median(&host_us),
        host_us[host_us.len() - 1]
    )?;
    writeln!(
        out,
        "\n{:<50} {:>10} {:>14} {:>14} {:>14} {:>4}  from",
        "metric", "unit", "median", "min", "max", "n"
    )?;
    // An untraced run reports the gated metrics and prints, ungated, the
    // timings its own phase produced. A traced run reports every per-layer
    // metric, the ungated timings among them.
    let mut metrics = Vec::new();
    for m in END_TO_END.iter().chain(UNGATED).chain(PER_LAYER) {
        let gated = m.bound.is_some();
        let whole = run.day.rec.summary(m.name);
        let Some(s) = whole.or_else(|| run.probe.rec.summary(m.name)) else {
            // Every metric of the run's mode must have a sample.
            if gated != cfg.trace {
                run.tally
                    .check(false, 1, || format!("no sample of {}", m.name));
            }
            continue;
        };
        writeln!(
            out,
            "{:<50} {:>10} {:>14.4} {:>14.4} {:>14.4} {:>4}  {}",
            m.name,
            m.unit,
            s.median,
            s.min,
            s.max,
            s.n,
            if whole.is_some() { "day" } else { "probe" }
        )?;
        if gated != cfg.trace {
            metrics.push((*m, s));
        }
    }
    if let Some((rows, residual)) = &ledger {
        writeln!(
            out,
            "\nledger of the {} rounds over the whole day: self time per layer, \
             share of the rounds' wall",
            phase.name()
        )?;
        for r in rows {
            writeln!(
                out,
                "  {:<12} {:>10.3} s {:>6.1} %",
                r.layer,
                r.self_ns as f64 / 1e9,
                r.share_pct
            )?;
        }
        writeln!(
            out,
            "  {:<12} {:>19.1} %  (round wall not covered by any layer span)",
            "residual", residual
        )?;
    }
    let correct = run.tally.failed == 0;
    for p in &run.tally.problems {
        writeln!(out, "FAILED CHECK: {p}")?;
    }
    writeln!(
        out,
        "\nops_attempted={}  ops_failed={}  correct: {correct}  total {:.1} s",
        run.tally.attempted,
        run.tally.failed,
        process_start.elapsed().as_secs_f64()
    )?;
    Ok(RunResult {
        correct,
        attempted: run.tally.attempted.max(1),
        failed: run.tally.failed,
        metrics,
        trace_json: cfg.trace.then(|| tracer.all().to_json()),
    })
}

fn metric_def(name: &str) -> &'static MetricDef {
    UNGATED
        .iter()
        .find(|m| m.name == name)
        .expect("a listed metric")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{manifest, EXACT};

    fn small(workload: Workload, seed: u64, trace: bool) -> RunResult {
        let cfg = RunConfig {
            workload,
            seed,
            seconds: 0.0,
            trace,
            users: 150,
            probe_users: 60,
        };
        let mut report = Vec::new();
        let result = run(&cfg, &mut report).expect("writing to a Vec cannot fail");
        assert!(result.correct, "{}", String::from_utf8_lossy(&report));
        result
    }

    /// Per-layer metrics that are exact for a seed: sizes and counts, no clock.
    fn exact(result: &RunResult) -> Vec<(&'static str, f64)> {
        result
            .metrics
            .iter()
            .filter(|(m, _)| {
                matches!(m.unit, "bytes" | "count") || m.name == "warehouse.compress_ratio"
            })
            .map(|(m, s)| (m.name, s.median))
            .collect()
    }

    #[test]
    fn every_workload_reports_the_gated_metrics_and_is_correct() {
        for workload in Workload::ALL {
            let r = small(workload, 3, false);
            let names: Vec<&str> = r.metrics.iter().map(|(m, _)| m.name).collect();
            let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, want, "{}", workload.name());
            for (m, s) in &r.metrics {
                assert!(
                    s.median.is_finite() && s.median > 0.0,
                    "{} = {}",
                    m.name,
                    s.median
                );
            }
            assert_eq!(r.failed, 0);
            assert!(r.trace_json.is_none());
            let line = r.to_json();
            let parsed = crate::repeat::parse_result(&line).expect("result line parses");
            assert_eq!(parsed.attempted, r.attempted);
            assert_eq!(parsed.values.len(), END_TO_END.len());
        }
    }

    #[test]
    fn the_four_untraced_reports_print_all_fourteen_metrics_between_them() {
        let mut printed = std::collections::BTreeSet::new();
        for workload in Workload::ALL {
            let cfg = RunConfig {
                workload,
                seed: 3,
                seconds: 0.0,
                trace: false,
                users: 150,
                probe_users: 60,
            };
            let mut report = Vec::new();
            run(&cfg, &mut report).expect("writing to a Vec cannot fail");
            let report = String::from_utf8(report).expect("the report is text");
            for m in END_TO_END.iter().chain(UNGATED) {
                if report
                    .lines()
                    .any(|l| l.split_whitespace().next() == Some(m.name))
                {
                    printed.insert(m.name);
                }
            }
        }
        assert_eq!(printed.len(), 14);
    }

    #[test]
    fn same_seed_repeats_exact_metrics_and_another_seed_changes_them() {
        let a = small(Workload::DeliverDay, 11, false);
        let b = small(Workload::DeliverDay, 11, false);
        let c = small(Workload::DeliverDay, 12, false);
        for name in EXACT {
            assert_eq!(a.value(name), b.value(name), "{name}");
            assert_ne!(a.value(name), c.value(name), "{name}");
        }
        assert_eq!(a.attempted, b.attempted);
        assert_ne!(a.attempted, c.attempted);
        // The sizes are the whole day's on every workload, never the probe's.
        let d = small(Workload::ServeLookups, 11, false);
        for name in EXACT {
            assert_eq!(a.value(name), d.value(name), "{name}");
        }
    }

    #[test]
    fn traced_run_reports_every_per_layer_metric_and_exact_counts_repeat() {
        let a = small(Workload::HourlyCycle, 11, true);
        let names: Vec<&str> = a.metrics.iter().map(|(m, _)| m.name).collect();
        let want: Vec<&str> = UNGATED.iter().chain(PER_LAYER).map(|m| m.name).collect();
        assert_eq!(names, want);
        for (m, s) in &a.metrics {
            assert!(s.median.is_finite(), "{} = {}", m.name, s.median);
        }
        let trace = a.trace_json.as_ref().expect("a traced run keeps its spans");
        for span in [
            "scribe.move",
            "serve.index_build",
            "stream.fold",
            "dataflow.q_top20",
        ] {
            assert!(trace.contains(span), "{span}");
        }
        let b = small(Workload::HourlyCycle, 11, true);
        assert_eq!(exact(&a), exact(&b));
        assert!(exact(&a).len() > 20);
        let c = small(Workload::HourlyCycle, 12, true);
        assert_ne!(exact(&a), exact(&c));
    }

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let workloads: Vec<(&str, &str)> =
            Workload::ALL.iter().map(|w| (w.name(), w.why())).collect();
        assert_eq!(on_disk, manifest(RUN_SECONDS, &workloads));
        for (_, why) in workloads {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert!(on_disk.len() < 64 * 1024);
    }
}
