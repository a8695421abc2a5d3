//! `uli` — explore the unified logging stack from the command line.
//!
//! The warehouse is in-memory, so every invocation generates a fresh
//! deterministic workload (fixed seed unless `--seed` is given), lands it,
//! materializes session sequences, and then runs the requested view:
//!
//! ```text
//! uli demo                         end-to-end day summary
//! uli script FILE [--param K=V]    run a Pig script against the day
//! uli catalog [--search PATTERN] [--browse C[:P[:S…]]]
//! uli flow [--depth N]             LifeFlow-style session overview
//! uli funnel                       signup funnel vs ground truth
//! uli scrape                       §3.1 legacy-JSON format archaeology
//! uli grammar                      §6 Re-Pair motifs over sessions
//! uli ingest                       drive a day through the Scribe tier
//! uli serve                        land a day columnar, index it, answer
//!                                  point lookups from stdin (REPL)
//! ```
//!
//! Common flags: `--users N` (default 300), `--seed S`, `--days D`,
//! `--workers W` (scan/execute worker threads; default: all cores, `1`
//! restores the serial path — results are identical either way),
//! `--mem-budget BYTES` (override the `script` operator
//! memory budget, default 64 MiB: sorts, group-bys and aggregates spill
//! warehouse-format runs past it — results are identical at any budget, and
//! the spill counters/high-water gauge land in `--metrics`), `--metrics PATH` (write the unified observability
//! snapshot — warehouse/dataflow counters, span forest, critical path — on
//! exit; `.prom` extension selects Prometheus text, anything else JSON).
//!
//! `ingest` flags: `--batch-records N` (entries per Scribe message, default
//! 32; `1` restores one message per entry), `--batch-bytes B` (encoded-batch
//! byte cap, default 32768), `--linger P` (pumps a partial batch may wait
//! for more entries, default 0). The landed warehouse bytes are identical
//! at every setting; only the message/allocation cost changes.

use std::process::ExitCode;

use unified_logging::analytics::{register_analytics, LifeFlow};
use unified_logging::prelude::*;
use unified_logging::thrift::ThriftRecord;

struct Cli {
    command: String,
    positional: Vec<String>,
    users: u64,
    seed: u64,
    days: u64,
    workers: Option<usize>,
    depth: usize,
    search: Option<String>,
    browse: Option<String>,
    params: Vec<(String, String)>,
    metrics: Option<String>,
    mem_budget: Option<u64>,
    batch_records: Option<usize>,
    batch_bytes: Option<usize>,
    linger: u64,
    /// Present when `--metrics` was given; threaded through the warehouse
    /// and the script engine so every scan lands in one snapshot.
    registry: Option<Registry>,
}

fn parse_args() -> Result<Cli, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or("no command given")?;
    let mut cli = Cli {
        command,
        positional: Vec::new(),
        users: 300,
        seed: 0x7717_7e4a,
        days: 1,
        workers: None,
        depth: 3,
        search: None,
        browse: None,
        params: Vec::new(),
        metrics: None,
        mem_budget: None,
        batch_records: None,
        batch_bytes: None,
        linger: 0,
        registry: None,
    };
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> Result<String, String> {
            args.next().ok_or(format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--users" => cli.users = value("--users")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => cli.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--days" => cli.days = value("--days")?.parse().map_err(|e| format!("{e}"))?,
            "--workers" => {
                cli.workers = Some(value("--workers")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--metrics" => cli.metrics = Some(value("--metrics")?),
            "--mem-budget" => {
                let budget: u64 = value("--mem-budget")?.parse().map_err(|e| format!("{e}"))?;
                if budget == 0 {
                    return Err("--mem-budget needs a positive byte count".into());
                }
                cli.mem_budget = Some(budget);
            }
            "--batch-records" => {
                cli.batch_records = Some(
                    value("--batch-records")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--batch-bytes" => {
                cli.batch_bytes = Some(
                    value("--batch-bytes")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--linger" => cli.linger = value("--linger")?.parse().map_err(|e| format!("{e}"))?,
            "--depth" => cli.depth = value("--depth")?.parse().map_err(|e| format!("{e}"))?,
            "--search" => cli.search = Some(value("--search")?),
            "--browse" => cli.browse = Some(value("--browse")?),
            "--param" => {
                let kv = value("--param")?;
                let (k, v) = kv
                    .split_once('=')
                    .ok_or("--param expects KEY=VALUE".to_string())?;
                cli.params.push((k.to_string(), v.to_string()));
            }
            other if !other.starts_with("--") => cli.positional.push(other.to_string()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(cli)
}

/// The scan/execute worker count the user asked for (default: all cores).
fn parallelism(cli: &Cli) -> Parallelism {
    cli.workers.map(Parallelism::fixed).unwrap_or_default()
}

/// Generates and materializes the requested days; returns the warehouse and
/// ground truths.
fn prepare(cli: &Cli) -> (Warehouse, Vec<unified_logging::workload::DayWorkload>) {
    let config = WorkloadConfig {
        users: cli.users,
        seed: cli.seed,
        ..Default::default()
    };
    let wh = match &cli.registry {
        Some(registry) => Warehouse::new_with_obs(registry),
        None => Warehouse::new(),
    };
    let mut days = Vec::new();
    for d in 0..cli.days {
        let day = generate_day(&config, d);
        write_client_events(&wh, &day.events, 4).expect("fresh warehouse");
        Materializer::new(wh.clone())
            .with_parallelism(parallelism(cli))
            .run_day(d)
            .expect("day exists");
        days.push(day);
    }
    (wh, days)
}

fn cmd_demo(cli: &Cli) {
    let (wh, days) = prepare(cli);
    for d in 0..cli.days {
        let m = Materializer::new(wh.clone());
        let dict = m.load_dictionary(d).expect("materialized");
        let seqs = load_sequences(&wh, d).expect("materialized");
        let summary = unified_logging::analytics::DailySummary::compute(d, &seqs, &dict);
        println!("{}", summary.render());
        let truth = &days[d as usize].truth;
        println!(
            "(generator truth: {} sessions, {} events — matches: {})\n",
            truth.sessions,
            truth.events,
            truth.sessions == summary.sessions && truth.events == summary.events
        );
    }
}

fn cmd_script(cli: &Cli) -> Result<(), String> {
    let path = cli
        .positional
        .first()
        .ok_or("usage: uli script FILE.pig [--param K=V …]")?;
    let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let (wh, _days) = prepare(cli);
    let dict = Materializer::new(wh.clone())
        .load_dictionary(0)
        .expect("materialized");
    let mut engine = Engine::new(wh).with_parallelism(parallelism(cli));
    if let Some(budget) = cli.mem_budget {
        engine = engine.with_mem_budget(budget);
    }
    if let Some(registry) = &cli.registry {
        engine = engine.with_obs(registry);
    }
    let mut runner = ScriptRunner::new(engine);
    register_analytics(&mut runner, dict);
    runner.set_param("DATE", "2012/08/01");
    for (k, v) in &cli.params {
        runner.set_param(k, v);
    }
    let outputs = runner.run(&source).map_err(|e| e.to_string())?;
    for out in outputs {
        println!(
            "-- dump {} ({} rows) --",
            out.relation,
            out.result.rows.len()
        );
        for row in out.result.rows.iter().take(50) {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            println!("({})", cells.join(", "));
        }
        if out.result.rows.len() > 50 {
            println!("… {} more rows", out.result.rows.len() - 50);
        }
        println!(
            "[{} mr jobs, {} mappers, {} records scanned, est. cluster {:.2}s]\n",
            out.result.stats.mr_jobs,
            out.result.stats.map_tasks,
            out.result.stats.input_records,
            out.result.estimated_cluster_ms / 1000.0
        );
    }
    Ok(())
}

fn cmd_catalog(cli: &Cli) -> Result<(), String> {
    let (wh, _days) = prepare(cli);
    let m = Materializer::new(wh);
    let dict = m.load_dictionary(0).expect("materialized");
    let samples = m.load_samples(0).expect("materialized");
    let catalog = ClientEventCatalog::build(0, &dict, &samples);
    println!("catalog: {} event types\n", catalog.len());
    if let Some(pattern) = &cli.search {
        let p = EventPattern::parse(pattern).map_err(|e| e.to_string())?;
        let hits = catalog.search(&p);
        println!("{} matches for {pattern}:", hits.len());
        for e in hits.iter().take(30) {
            println!("  {:<60} {:>8}", e.name.to_string(), e.count);
        }
        return Ok(());
    }
    let prefix: Vec<&str> = match &cli.browse {
        Some(b) => b.split(':').collect(),
        None => Vec::new(),
    };
    println!("browse {:?}:", prefix);
    for (value, count) in catalog.browse(&prefix) {
        println!("  {value:<24} {count:>8}");
    }
    Ok(())
}

fn cmd_flow(cli: &Cli) {
    let (wh, _days) = prepare(cli);
    let m = Materializer::new(wh.clone());
    let dict = m.load_dictionary(0).expect("materialized");
    let seqs = load_sequences(&wh, 0).expect("materialized");
    let mut flow = LifeFlow::new(cli.depth);
    for s in &seqs {
        flow.add_string(&s.sequence);
    }
    print!("{}", flow.render(&dict, 0.03));
}

fn cmd_funnel(cli: &Cli) {
    let (wh, days) = prepare(cli);
    let m = Materializer::new(wh.clone());
    let dict = m.load_dictionary(0).expect("materialized");
    let seqs = load_sequences(&wh, 0).expect("materialized");
    let spec = signup_funnel();
    let funnel = ClientEventsFunnel::new(spec.stages.clone(), &dict);
    let report = funnel.evaluate(seqs.iter().map(|s| s.sequence.as_str()));
    println!("signup funnel (stage, sessions) — truth in parentheses:");
    for (i, count) in report.reached.iter().enumerate() {
        println!("({i}, {count})  ({})", days[0].truth.funnel_stage_counts[i]);
    }
    println!("conversion: {:.1}%", report.conversion() * 100.0);
}

fn cmd_scrape(cli: &Cli) {
    use unified_logging::core::legacy::LegacyCategory;
    use unified_logging::core::scrape::FormatScrape;
    use unified_logging::core::session::day_dir;
    let config = WorkloadConfig {
        users: cli.users,
        seed: cli.seed,
        ..Default::default()
    };
    let day = generate_day(&config, 0);
    let wh = Warehouse::new();
    write_legacy_events(&wh, &day.events, 4).expect("fresh warehouse");
    let dir = day_dir(LegacyCategory::WebFrontend.category_name(), 0);
    let mut scraper = FormatScrape::new();
    for file in wh.list_files_recursive(&dir).expect("written") {
        let mut r = wh.open(&file).expect("opens");
        while let Some(rec) = r.next_record().expect("reads") {
            scraper.scan(rec);
        }
    }
    print!("{}", scraper.render());
    println!("optional (<95%): {:?}", scraper.optional_keys(0.95));
    println!("type-inconsistent: {:?}", scraper.inconsistent_keys());
}

fn cmd_grammar(cli: &Cli) {
    use unified_logging::analytics::Grammar;
    use unified_logging::core::session::dictionary::rank_for_char;
    let (wh, _days) = prepare(cli);
    let m = Materializer::new(wh.clone());
    let dict = m.load_dictionary(0).expect("materialized");
    let seqs = load_sequences(&wh, 0).expect("materialized");
    let corpus: Vec<Vec<u32>> = seqs
        .iter()
        .map(|s| s.sequence.chars().filter_map(rank_for_char).collect())
        .collect();
    let grammar = Grammar::induce(&corpus, 8);
    println!(
        "{} rules; corpus compresses {:.2}x under the grammar\n",
        grammar.rule_count(),
        grammar.compression_ratio()
    );
    for (idx, support, _) in grammar.top_motifs(cli.depth) {
        println!("motif R{idx} (supports {support} occurrences):");
        print!(
            "{}",
            grammar.render_tree(
                unified_logging::analytics::grammar::NONTERMINAL_BASE + idx as u32,
                &dict
            )
        );
        println!();
    }
}

/// Writes the observability snapshot where `--metrics` asked for it.
/// A `.prom` extension selects the Prometheus text format; everything else
/// gets the JSON snapshot (metrics, span forest, critical path).
fn write_metrics(path: &str, registry: &Registry) -> Result<(), String> {
    let snap = registry.snapshot();
    let payload = if path.ends_with(".prom") {
        snap.to_prometheus()
    } else {
        snap.to_json()
    };
    std::fs::write(path, payload).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("wrote metrics snapshot to {path}");
    Ok(())
}

/// The batch policy the `ingest` knobs select (defaults when omitted).
fn batch_policy(cli: &Cli) -> BatchPolicy {
    let mut policy = BatchPolicy::default();
    if let Some(n) = cli.batch_records {
        policy.max_records = n.max(1);
    }
    if let Some(b) = cli.batch_bytes {
        policy.max_bytes = b.max(1);
    }
    policy.linger_steps = cli.linger;
    policy
}

/// Drives the requested days through the Scribe delivery tier — daemons,
/// aggregators, staging, the hourly mover — and prints the ingest cost
/// accounting under the chosen batch policy.
fn cmd_ingest(cli: &Cli) {
    let config = PipelineConfig {
        datacenters: 2,
        hosts_per_dc: 4,
        aggregators_per_dc: 2,
        records_per_file: 10_000,
        batch: batch_policy(cli),
        workers: parallelism(cli),
    };
    let workload = WorkloadConfig {
        users: cli.users,
        seed: cli.seed,
        ..Default::default()
    };
    let mut pipe = match &cli.registry {
        Some(registry) => ScribePipeline::new_with_obs(config, registry),
        None => ScribePipeline::new(config),
    };
    for d in 0..cli.days {
        let day = generate_day(&workload, d);
        for hour in d * 24..(d + 1) * 24 {
            for (i, ev) in day
                .events
                .iter()
                .filter(|e| e.timestamp.hour_index() == hour)
                .enumerate()
            {
                let dc = (ev.user_id as usize) % config.datacenters;
                pipe.log(
                    dc,
                    i % config.hosts_per_dc,
                    LogEntry::new("client_events", ev.to_bytes()),
                );
            }
            pipe.step();
            pipe.flush_hour(hour);
            pipe.seal_hour("client_events", hour);
            pipe.move_hour("client_events", hour)
                .expect("fault-free ingest: every hour moves");
        }
    }
    let report = pipe.report();
    let (messages, wire_bytes) = pipe.network().message_cost();
    let policy = batch_policy(cli);
    println!(
        "ingest: {} day(s), batch policy: {} records / {} bytes / linger {}",
        cli.days, policy.max_records, policy.max_bytes, policy.linger_steps
    );
    println!(
        "  logged {} -> moved {} (retried {}, lost {})",
        report.logged, report.moved, report.retried, report.lost_in_crashes
    );
    println!(
        "  network messages {}  wire bytes {}  batches {}  avg {:.1} entries/batch",
        messages,
        wire_bytes,
        report.batches_sent,
        report.logged as f64 / report.batches_sent.max(1) as f64
    );
}

/// Lands the requested days through the Scribe tier with a columnar
/// landing and the serving layer's index maintainer tapped at the mover's
/// delivery point, then answers point lookups from stdin until EOF.
fn cmd_serve(cli: &Cli) -> Result<(), String> {
    use std::sync::Arc;
    use unified_logging::core::ClientEventLanding;
    use unified_logging::serve::{run_repl, IndexMaintainer};

    let config = PipelineConfig {
        datacenters: 2,
        hosts_per_dc: 4,
        aggregators_per_dc: 2,
        records_per_file: 10_000,
        batch: batch_policy(cli),
        workers: parallelism(cli),
    };
    let workload = WorkloadConfig {
        users: cli.users,
        seed: cli.seed,
        ..Default::default()
    };
    let mut pipe = match &cli.registry {
        Some(registry) => ScribePipeline::new_with_obs(config, registry),
        None => ScribePipeline::new(config),
    };
    pipe.set_columnar_landing(Arc::new(ClientEventLanding::default()));
    let maintainer = match &cli.registry {
        Some(registry) => {
            IndexMaintainer::with_obs(pipe.main_warehouse().clone(), "client_events", registry)
        }
        None => IndexMaintainer::new(pipe.main_warehouse().clone(), "client_events"),
    }
    .with_parallelism(parallelism(cli));
    pipe.add_delivery_tap(maintainer.tap());
    for d in 0..cli.days {
        let day = generate_day(&workload, d);
        for hour in d * 24..(d + 1) * 24 {
            for (i, ev) in day
                .events
                .iter()
                .filter(|e| e.timestamp.hour_index() == hour)
                .enumerate()
            {
                let dc = (ev.user_id as usize) % config.datacenters;
                pipe.log(
                    dc,
                    i % config.hosts_per_dc,
                    LogEntry::new("client_events", ev.to_bytes()),
                );
            }
            pipe.step();
            pipe.flush_hour(hour);
            pipe.seal_hour("client_events", hour);
            pipe.move_hour("client_events", hour)
                .expect("fault-free ingest: every hour moves");
        }
    }
    let handle = maintainer.handle();
    eprintln!(
        "serve: {} day(s) delivered and indexed ({} hours, lag {}); try `help`",
        cli.days,
        handle.indexed_hours().len(),
        handle.lag_hours()
    );
    let stdin = std::io::stdin();
    run_repl(&handle, stdin.lock(), std::io::stdout()).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let mut cli = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\nsee the module docs at the top of src/bin/uli.rs");
            return ExitCode::FAILURE;
        }
    };
    if cli.metrics.is_some() {
        cli.registry = Some(Registry::new());
    }
    let result = match cli.command.as_str() {
        "demo" => {
            cmd_demo(&cli);
            Ok(())
        }
        "script" => cmd_script(&cli),
        "catalog" => cmd_catalog(&cli),
        "flow" => {
            cmd_flow(&cli);
            Ok(())
        }
        "funnel" => {
            cmd_funnel(&cli);
            Ok(())
        }
        "scrape" => {
            cmd_scrape(&cli);
            Ok(())
        }
        "grammar" => {
            cmd_grammar(&cli);
            Ok(())
        }
        "ingest" => {
            cmd_ingest(&cli);
            Ok(())
        }
        "serve" => cmd_serve(&cli),
        other => Err(format!(
            "unknown command {other:?}; commands: demo, script, catalog, flow, funnel, scrape, \
             grammar, ingest, serve"
        )),
    };
    let result = result.and_then(|()| match (&cli.metrics, &cli.registry) {
        (Some(path), Some(registry)) => write_metrics(path, registry),
        _ => Ok(()),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
