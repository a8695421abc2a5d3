//! Plan execution as simulated MapReduce jobs.
//!
//! Every shuffle boundary (GROUP, JOIN, ORDER, DISTINCT) is one MapReduce
//! job. Map-task counts come from input blocks ("tens of thousands of
//! mappers", §4.1), shuffle volume from serialized tuple sizes ("the early
//! projection and filtering keeps the amount of data shuffling … to a
//! reasonable amount", §4.1), and a [`CostModel`] converts the counts into
//! estimated cluster milliseconds, charging Hadoop's "relatively high
//! \[task\] startup costs" (§4.2).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use uli_obs::{Counter, Gauge, Registry};
use uli_warehouse::{
    MemoryTracker, MergedRuns, Parallelism, ScanFile, ScanPool, ScanStats, SpillSorter, Warehouse,
    ZoneMapPruner, DEFAULT_MEM_BUDGET,
};

use crate::batch::scan_group;
use crate::error::{DataflowError, DataflowResult};
use crate::expr::Expr;
use crate::loader::{BlockPruner, Loader};
use crate::plan::{Agg, Plan, PlanNode, SortOrder};
use crate::pushdown::{
    collect_columns, expr_has_udf, total_boolean, zone_constraints, Pushdown, ScanSpec, ZoneColumn,
};
use crate::spill::{row_cost, AggSpiller, RowOrder, RowRuns, TopK};
use crate::udf::{AggFunc, AggState};
use crate::value::{tuple_wire_size, Tuple, Value};

/// Counters for one executed query (possibly several chained MR jobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobStats {
    /// MapReduce jobs launched.
    pub mr_jobs: u64,
    /// Map tasks across all jobs — the paper's "mappers spawned".
    pub map_tasks: u64,
    /// Reduce tasks across all jobs.
    pub reduce_tasks: u64,
    /// Records read from the warehouse.
    pub input_records: u64,
    /// Blocks read from the warehouse (input splits).
    pub input_blocks: u64,
    /// Blocks skipped via index pushdown.
    pub blocks_skipped: u64,
    /// Compressed bytes read.
    pub input_bytes_compressed: u64,
    /// Uncompressed bytes processed by mappers.
    pub input_bytes_uncompressed: u64,
    /// Records entering the shuffle after any combiner.
    pub shuffle_records: u64,
    /// Bytes entering the shuffle.
    pub shuffle_bytes: u64,
    /// Rows produced by the query.
    pub output_records: u64,
    /// Records decoded then dropped by a pushed-down predicate before any
    /// tuple reached the plan.
    pub records_skipped_by_predicate: u64,
    /// Fields a lazy loader skipped without materializing (projection
    /// pushdown).
    pub fields_skipped: u64,
    /// Run files spilled by operators whose state outgrew the memory budget.
    pub spill_runs: u64,
    /// Bytes written to spill run files.
    pub spill_bytes: u64,
    /// Peak operator-buffer bytes, in the deterministic wire-size cost
    /// currency; never above the budget while one entry fits in it.
    pub mem_high_water_bytes: u64,
}

/// Cluster constants turning [`JobStats`] into estimated milliseconds.
///
/// Defaults model a few-hundred-node 2012 cluster coarsely; the point of the
/// model is *relative* cost (raw logs vs session sequences), not absolute
/// accuracy.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Concurrent task slots available.
    pub slots: u64,
    /// Startup cost charged per task (JVM spawn, scheduling, jobtracker RPC).
    pub task_startup_ms: f64,
    /// Per-slot scan throughput over uncompressed data.
    pub scan_mb_per_s: f64,
    /// Aggregate shuffle throughput of the cluster.
    pub shuffle_mb_per_s: f64,
    /// Fixed per-job submission latency.
    pub job_submit_ms: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            slots: 200,
            task_startup_ms: 1_500.0,
            scan_mb_per_s: 60.0,
            shuffle_mb_per_s: 2_000.0,
            // Scaled down from real 2012 jobtracker latency (~10 s) so the
            // per-job constant does not drown the task/scan terms at the
            // laptop data scales the simulation runs at.
            job_submit_ms: 500.0,
        }
    }
}

impl CostModel {
    /// Estimated wall-clock milliseconds for the measured job stats.
    pub fn estimate_ms(&self, s: &JobStats) -> f64 {
        let slots = self.slots.max(1) as f64;
        let tasks = (s.map_tasks + s.reduce_tasks) as f64;
        let startup = tasks * self.task_startup_ms / slots;
        let scan_mb = s.input_bytes_uncompressed as f64 / (1024.0 * 1024.0);
        let scan = scan_mb / (self.scan_mb_per_s * slots) * 1_000.0;
        let shuffle_mb = s.shuffle_bytes as f64 / (1024.0 * 1024.0);
        let shuffle = shuffle_mb / self.shuffle_mb_per_s * 1_000.0;
        let submit = s.mr_jobs as f64 * self.job_submit_ms;
        startup + scan + shuffle + submit
    }
}

/// A completed query: rows plus accounting.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output column names.
    pub schema: Vec<String>,
    /// Result rows.
    pub rows: Vec<Tuple>,
    /// Execution counters.
    pub stats: JobStats,
    /// Cost-model estimate for the counters.
    pub estimated_cluster_ms: f64,
}

/// Pending (not yet charged) map-phase input of an intermediate result.
#[derive(Debug, Clone, Copy, Default)]
struct MapInput {
    tasks: u64,
    bytes: u64,
}

/// Scan units per worker in one map window (see [`Engine::map_window`]).
const UNITS_PER_WORKER: usize = 8;

/// Plan-stage kinds, in the fixed order their per-stage counters register.
const STAGE_KINDS: [&str; 11] = [
    "load",
    "values",
    "filter",
    "foreach",
    "group_by",
    "aggregate",
    "join",
    "order_by",
    "distinct",
    "union",
    "limit",
];

fn stage_kind(node: &PlanNode) -> &'static str {
    match node {
        PlanNode::Load { .. } => "load",
        PlanNode::Values { .. } => "values",
        PlanNode::Filter { .. } => "filter",
        PlanNode::Foreach { .. } => "foreach",
        PlanNode::GroupBy { .. } => "group_by",
        PlanNode::Aggregate { .. } => "aggregate",
        PlanNode::Join { .. } => "join",
        PlanNode::OrderBy { .. } => "order_by",
        PlanNode::Distinct { .. } => "distinct",
        PlanNode::Union { .. } => "union",
        PlanNode::Limit { .. } => "limit",
    }
}

/// Registry handles behind [`Engine::with_obs`].
///
/// [`JobStats`] remains the per-query result struct; these counters are
/// *mirrors* fed from the same `JobStats` values at the end of every query,
/// so the registry totals are sums over queries of the struct the tests
/// already pin — the two views cannot diverge. Per-stage rows in/out come
/// from the executor itself (one span + one counter update per visited plan
/// node), and all handles register at `with_obs` time in a fixed order so
/// snapshot order never depends on which plans later run.
struct EngineObs {
    registry: Registry,
    queries: Counter,
    mr_jobs: Counter,
    map_tasks: Counter,
    reduce_tasks: Counter,
    input_records: Counter,
    input_blocks: Counter,
    blocks_skipped: Counter,
    input_bytes_compressed: Counter,
    input_bytes_uncompressed: Counter,
    shuffle_records: Counter,
    shuffle_bytes: Counter,
    output_records: Counter,
    records_skipped_by_predicate: Counter,
    fields_skipped: Counter,
    spill_runs: Counter,
    spill_bytes: Counter,
    /// Raise-only mirror of the per-query peak operator-buffer bytes, so
    /// the exported value is the max over all queries this engine ran.
    memory_high_water_bytes: Gauge,
    rows_in: BTreeMap<&'static str, Counter>,
    rows_out: BTreeMap<&'static str, Counter>,
    /// Rows returned by completed child stages of the node currently
    /// executing. Execution of the plan tree is serial (worker threads live
    /// below [`ScanPool`], inside a stage), so a single cell suffices; it is
    /// atomic only because `Engine` must stay `Sync`.
    child_rows: AtomicU64,
}

impl EngineObs {
    fn new(registry: &Registry) -> EngineObs {
        let c = |name: &str| registry.counter("dataflow", name);
        let queries = c("queries");
        let mr_jobs = c("mr_jobs");
        let map_tasks = c("map_tasks");
        let reduce_tasks = c("reduce_tasks");
        let input_records = c("input_records");
        let input_blocks = c("input_blocks");
        let blocks_skipped = c("blocks_skipped");
        let input_bytes_compressed = c("input_bytes_compressed");
        let input_bytes_uncompressed = c("input_bytes_uncompressed");
        let shuffle_records = c("shuffle_records");
        let shuffle_bytes = c("shuffle_bytes");
        let output_records = c("output_records");
        let records_skipped_by_predicate = c("records_skipped_by_predicate");
        let fields_skipped = c("fields_skipped");
        let spill_runs = c("spill_runs");
        let spill_bytes = c("spill_bytes");
        let memory_high_water_bytes = registry.gauge("dataflow", "memory_high_water_bytes");
        let mut rows_in = BTreeMap::new();
        let mut rows_out = BTreeMap::new();
        for kind in STAGE_KINDS {
            rows_in.insert(
                kind,
                registry.counter_labeled("dataflow", "stage_rows_in", &[("stage", kind)]),
            );
            rows_out.insert(
                kind,
                registry.counter_labeled("dataflow", "stage_rows_out", &[("stage", kind)]),
            );
        }
        EngineObs {
            registry: registry.clone(),
            queries,
            mr_jobs,
            map_tasks,
            reduce_tasks,
            input_records,
            input_blocks,
            blocks_skipped,
            input_bytes_compressed,
            input_bytes_uncompressed,
            shuffle_records,
            shuffle_bytes,
            output_records,
            records_skipped_by_predicate,
            fields_skipped,
            spill_runs,
            spill_bytes,
            memory_high_water_bytes,
            rows_in,
            rows_out,
            child_rows: AtomicU64::new(0),
        }
    }

    fn mirror(&self, s: &JobStats) {
        self.queries.inc();
        self.mr_jobs.add(s.mr_jobs);
        self.map_tasks.add(s.map_tasks);
        self.reduce_tasks.add(s.reduce_tasks);
        self.input_records.add(s.input_records);
        self.input_blocks.add(s.input_blocks);
        self.blocks_skipped.add(s.blocks_skipped);
        self.input_bytes_compressed.add(s.input_bytes_compressed);
        self.input_bytes_uncompressed
            .add(s.input_bytes_uncompressed);
        self.shuffle_records.add(s.shuffle_records);
        self.shuffle_bytes.add(s.shuffle_bytes);
        self.output_records.add(s.output_records);
        self.records_skipped_by_predicate
            .add(s.records_skipped_by_predicate);
        self.fields_skipped.add(s.fields_skipped);
        self.spill_runs.add(s.spill_runs);
        self.spill_bytes.add(s.spill_bytes);
        self.memory_high_water_bytes
            .raise(s.mem_high_water_bytes.min(i64::MAX as u64) as i64);
    }
}

/// The query engine: a warehouse plus a cost model.
pub struct Engine {
    warehouse: Warehouse,
    cost: CostModel,
    /// Worker threads for the map phase (LOAD → FILTER → FOREACH chains run
    /// per scan unit on a [`ScanPool`]); results do not depend on it.
    parallelism: Parallelism,
    /// Whether the planner pushes work into the scan; rows are
    /// byte-identical either way, only the bytes decoded differ.
    pushdown: Pushdown,
    /// Records per simulated reduce task.
    reduce_keys_per_task: u64,
    /// Operator memory budget in cost-model bytes: ORDER/GROUP/DISTINCT/
    /// aggregation spill to warehouse run files instead of growing beyond it.
    mem_budget: u64,
    /// Registry-backed telemetry, when attached.
    obs: Option<EngineObs>,
}

impl Engine {
    /// Engine with the default cost model and host-default parallelism.
    pub fn new(warehouse: Warehouse) -> Self {
        Engine::with_cost_model(warehouse, CostModel::default())
    }

    /// Engine with a custom cost model.
    pub fn with_cost_model(warehouse: Warehouse, cost: CostModel) -> Self {
        Engine {
            warehouse,
            cost,
            parallelism: Parallelism::default(),
            pushdown: Pushdown::On,
            reduce_keys_per_task: 1 << 20,
            mem_budget: DEFAULT_MEM_BUDGET,
            obs: None,
        }
    }

    /// Caps operator buffer memory (in deterministic cost-model bytes) at
    /// something other than [`DEFAULT_MEM_BUDGET`]. Operators spill sorted
    /// run files to the warehouse and k-way merge them back, producing the
    /// same rows at any budget. The budget must fit at least one entry (one
    /// row, or one group's aggregate states).
    pub fn with_mem_budget(mut self, bytes: u64) -> Self {
        self.mem_budget = bytes;
        self
    }

    /// Attaches registry-backed telemetry under the `dataflow` component:
    /// cumulative [`JobStats`] mirrors, per-stage `stage_rows_in`/`_out`
    /// counters, and one span per executed plan stage. All handles register
    /// here, in a fixed order, so snapshot order never depends on the plans
    /// that later run.
    pub fn with_obs(mut self, registry: &Registry) -> Self {
        self.obs = Some(EngineObs::new(registry));
        self
    }

    /// Sets the map-phase worker count. One worker runs the same per-unit
    /// scan inline on the calling thread.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Sets whether work is pushed into the scan. [`Pushdown::Eager`] —
    /// the reference the equivalence suites compare against — decodes every
    /// column of every record and evaluates every FILTER on full tuples.
    pub fn with_pushdown(mut self, pushdown: Pushdown) -> Self {
        self.pushdown = pushdown;
        self
    }

    /// The configured map-phase parallelism.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The warehouse this engine scans.
    pub fn warehouse(&self) -> &Warehouse {
        &self.warehouse
    }

    /// Executes a plan.
    pub fn run(&self, plan: &Plan) -> DataflowResult<QueryResult> {
        let mut stats = JobStats::default();
        let _query_span = self.obs.as_ref().map(|o| {
            o.child_rows.store(0, Ordering::Relaxed);
            o.registry.span("dataflow", "query")
        });
        // Fresh tracker per query: spill counters and the high-water mark
        // are per-query quantities (mirrored cumulatively by EngineObs).
        let mem = MemoryTracker::with_budget(self.mem_budget);
        let (rows, pending) = self.exec(plan, &mem, &mut stats)?;
        stats.spill_runs = mem.spill_runs();
        stats.spill_bytes = mem.spill_bytes();
        stats.mem_high_water_bytes = mem.high_water();
        // A plan that scanned data but never shuffled is a map-only job.
        if pending.tasks > 0 && stats.mr_jobs == 0 {
            stats.mr_jobs = 1;
            stats.map_tasks += pending.tasks;
        }
        stats.output_records = rows.len() as u64;
        if let Some(obs) = &self.obs {
            obs.mirror(&stats);
        }
        let estimated_cluster_ms = self.cost.estimate_ms(&stats);
        Ok(QueryResult {
            schema: plan.schema().to_vec(),
            rows,
            stats,
            estimated_cluster_ms,
        })
    }

    /// Charges a shuffle job consuming `input` map input.
    fn charge_shuffle(
        &self,
        stats: &mut JobStats,
        input: MapInput,
        shuffle_records: u64,
        shuffle_bytes: u64,
        groups: u64,
    ) -> MapInput {
        stats.mr_jobs += 1;
        stats.map_tasks += input.tasks.max(1);
        let reduce_tasks = groups.div_ceil(self.reduce_keys_per_task).max(1);
        stats.reduce_tasks += reduce_tasks;
        stats.shuffle_records += shuffle_records;
        stats.shuffle_bytes += shuffle_bytes;
        MapInput {
            tasks: reduce_tasks,
            bytes: shuffle_bytes,
        }
    }

    /// Feeds `rows` to an external merge sort under this query's budget and
    /// returns the merged stream.
    fn sorted(
        &self,
        rows: Vec<Tuple>,
        order: RowOrder,
        label: &str,
        mem: &MemoryTracker,
    ) -> DataflowResult<MergedRuns<RowRuns>> {
        let mut sorter =
            SpillSorter::new(self.warehouse.clone(), mem.clone(), RowRuns(order), label);
        for (seq, row) in rows.into_iter().enumerate() {
            let cost = row_cost(&row);
            sorter.push((seq as u64, row), cost)?;
        }
        Ok(sorter.finish()?)
    }

    /// Scan units mapped between two folds: what bounds live map output. One
    /// unit at one worker (nothing to keep busy); otherwise enough per worker
    /// that a straggler unit does not idle the rest of the pool.
    fn map_window(&self) -> usize {
        match self.parallelism.workers() {
            1 => 1,
            workers => workers * UNITS_PER_WORKER,
        }
    }

    /// Runs a map chain per scan unit (row block or columnar row group) on
    /// the scan pool, applying `per_block` to each unit's mapped rows, one
    /// window of units at a time, and hands every unit's result to `fold`
    /// in scan order — so the map output alive at any moment is one window's,
    /// not the day's, and what `fold` builds cannot depend on the window or
    /// the worker count. Returns the pending map input and charges `stats`
    /// from the per-handle scan counters (exact even while other scans hit
    /// the same warehouse).
    fn exec_chain_blocks<T: Send>(
        &self,
        chain: &MapChain<'_>,
        stats: &mut JobStats,
        per_block: impl Fn(Vec<Tuple>) -> DataflowResult<T> + Sync,
        mut fold: impl FnMut(T) -> DataflowResult<()>,
    ) -> DataflowResult<MapInput> {
        let paths = self.warehouse.list_files_recursive(chain.dir)?;
        let mut files: Vec<ScanFile> = Vec::with_capacity(paths.len());
        // (file index, unit index) in scan order: files sorted, units
        // ascending. Pruned units are billed as skipped here and never
        // become work.
        let mut work: Vec<(usize, usize)> = Vec::new();
        let codec = chain.loader.columnar();
        for path in &paths {
            // A loader without a columnar codec reads every file as opaque
            // rows and skips the records it cannot decode.
            let file = match codec {
                Some(_) => ScanFile::open(&self.warehouse, path)?,
                None => ScanFile::Row(self.warehouse.open_blocks(path)?),
            };
            if let ScanFile::Columnar(col) = &file {
                if col.columns() != chain.spec.width {
                    return Err(DataflowError::MalformedRecord {
                        loader: chain.loader.name(),
                    });
                }
            }
            // One constraint, two kinds of evidence: the pruner's
            // alongside-the-data postings and the file's own zone maps. A
            // mask that does not fit the file as it now stands (a stale
            // index) fails open.
            let mask = chain
                .zone
                .as_ref()
                .zip(chain.pruner.as_ref())
                .and_then(|(constraint, pruner)| pruner.prune(path, &file, constraint))
                .filter(|mask| mask.len() == file.units());
            for unit in 0..file.units() {
                let keep = mask.as_ref().is_none_or(|m| m[unit])
                    && chain
                        .zone
                        .as_ref()
                        .is_none_or(|z| z.keep(file.zone_map(unit).as_ref()));
                if keep {
                    work.push((files.len(), unit));
                } else {
                    file.skip_unit(unit);
                }
            }
            files.push(file);
        }
        let map_unit = |_: usize, (fi, unit): (usize, usize)| {
            let file = &files[fi];
            let rows = match file {
                ScanFile::Columnar(col) => {
                    // Vectorized scan: one batch per row group, predicates
                    // over whole columns, selection mask in place of the
                    // per-record admit loop. The reader already charged
                    // `fields_skipped` for masked columns.
                    let codec = codec.expect("columnar files are opened only with a codec");
                    let (rows, records_skipped) = scan_group(col, unit, codec, &chain.spec)?;
                    file.charge_pushdown(records_skipped, 0);
                    rows
                }
                ScanFile::Row(blocks) => {
                    // Borrowing visit: the loader decodes each record in
                    // place, so the scan never pays the one-Vec-per-record
                    // copy that `read_block` charges to `alloc_bytes`.
                    let mut rows = Vec::with_capacity(blocks.block_records(unit) as usize);
                    let mut records_skipped = 0u64;
                    let mut fields_skipped = 0u64;
                    let mut scan_err: Option<DataflowError> = None;
                    blocks.for_each_record(unit, |record| {
                        if scan_err.is_some() {
                            return;
                        }
                        match chain.loader.scan(record, &chain.spec) {
                            Ok(outcome) => {
                                fields_skipped += outcome.fields_skipped;
                                if outcome.skipped_by_predicate {
                                    records_skipped += 1;
                                }
                                if let Some(tuple) = outcome.tuple {
                                    rows.push(tuple);
                                }
                            }
                            Err(e) => scan_err = Some(e),
                        }
                    })?;
                    if let Some(e) = scan_err {
                        return Err(e);
                    }
                    file.charge_pushdown(records_skipped, fields_skipped);
                    rows
                }
            };
            per_block(chain.apply_ops(rows)?)
        };
        let pool = ScanPool::new(self.parallelism);
        for window in work.chunks(self.map_window()) {
            // First error in scan order, whatever order the workers
            // finished in.
            for result in pool.map(window.to_vec(), map_unit) {
                fold(result?)?;
            }
        }
        let read = files
            .iter()
            .fold(ScanStats::default(), |sum, f| sum.plus(&f.local_stats()));
        stats.input_records += read.records_read;
        stats.input_blocks += read.blocks_read;
        stats.blocks_skipped += read.blocks_skipped;
        stats.input_bytes_compressed += read.compressed_bytes_read;
        stats.input_bytes_uncompressed += read.uncompressed_bytes_read;
        stats.records_skipped_by_predicate += read.records_skipped_by_predicate;
        stats.fields_skipped += read.fields_skipped;
        Ok(MapInput {
            tasks: read.blocks_read,
            bytes: read.uncompressed_bytes_read,
        })
    }

    /// Map phase feeding an algebraic aggregate: each unit's rows collapse
    /// into per-group partial [`AggState`]s map-side, and partials merge into
    /// the one budgeted table at the shuffle boundary, in scan order, as each
    /// window of units completes. `shuffle_records` is the *actual* combiner
    /// output — what really crosses the shuffle.
    fn exec_chain_aggregate(
        &self,
        chain: &MapChain<'_>,
        keys: &[usize],
        aggs: &[Agg],
        mem: &MemoryTracker,
        stats: &mut JobStats,
    ) -> DataflowResult<(Vec<Tuple>, MapInput)> {
        let mut rows_in = 0u64;
        let mut bytes_in = 0u64;
        let mut combiner_records = 0u64;
        let mut spiller = AggSpiller::new(self.warehouse.clone(), mem.clone(), aggs);
        let pending = self.exec_chain_blocks(
            chain,
            stats,
            |rows| {
                let bytes: u64 = rows.iter().map(|t| tuple_wire_size(t)).sum();
                let groups = accumulate_groups(&rows, keys, aggs)?;
                Ok((rows.len() as u64, bytes, groups))
            },
            |(n, bytes, partial)| {
                rows_in += n;
                bytes_in += bytes;
                combiner_records += partial.len() as u64;
                for (key, states) in partial {
                    spiller.merge_partial(key, states)?;
                }
                Ok(())
            },
        )?;
        let out = spiller.finish(keys.is_empty())?;
        let n_groups = out.len() as u64;
        let avg_record = bytes_in.checked_div(rows_in).unwrap_or(0);
        let shuffle_bytes = combiner_records * avg_record.max(8);
        let next = self.charge_shuffle(stats, pending, combiner_records, shuffle_bytes, n_groups);
        Ok((out, next))
    }

    /// Executes one plan node, with per-stage telemetry when attached: a
    /// `dataflow/<kind>` span around the node and `stage_rows_in`/`_out`
    /// counter updates. A stage's rows-in is what its child stages returned,
    /// or — for leaves and collapsed map chains, which have no child exec
    /// calls — the records the scan read (predicate-skipped records are
    /// already included in `input_records`).
    fn exec(
        &self,
        plan: &Plan,
        mem: &MemoryTracker,
        stats: &mut JobStats,
    ) -> DataflowResult<(Vec<Tuple>, MapInput)> {
        let Some(obs) = &self.obs else {
            return self.exec_node(plan, mem, stats);
        };
        let kind = stage_kind(&plan.node);
        let _span = obs.registry.span("dataflow", kind);
        let scanned_before = stats.input_records;
        let parent_rows = obs.child_rows.swap(0, Ordering::Relaxed);
        let result = self.exec_node(plan, mem, stats);
        let child_rows = obs.child_rows.load(Ordering::Relaxed);
        if let Ok((rows, _)) = &result {
            let rows_in = if child_rows > 0 {
                child_rows
            } else {
                stats.input_records - scanned_before
            };
            obs.rows_in[kind].add(rows_in);
            obs.rows_out[kind].add(rows.len() as u64);
            obs.child_rows
                .store(parent_rows + rows.len() as u64, Ordering::Relaxed);
        }
        result
    }

    fn exec_node(
        &self,
        plan: &Plan,
        mem: &MemoryTracker,
        stats: &mut JobStats,
    ) -> DataflowResult<(Vec<Tuple>, MapInput)> {
        // A LOAD, bare or under FILTER/FOREACH, is a pure map phase: it runs
        // per scan unit on the pool (inline at one worker). Unit results
        // concatenate in scan order, so rows and accounting do not depend on
        // the worker count.
        if let Some(chain) = MapChain::extract(plan, self.pushdown, None) {
            let mut rows = Vec::new();
            let pending = self.exec_chain_blocks(&chain, stats, Ok, |unit_rows| {
                rows.extend(unit_rows);
                Ok(())
            })?;
            return Ok((rows, pending));
        }
        match &plan.node {
            PlanNode::Load { .. } => unreachable!("every LOAD is a map chain"),
            PlanNode::Values { rows, .. } => Ok((rows.clone(), MapInput::default())),
            PlanNode::Filter { input, predicate } => {
                let (rows, pending) = self.exec(input, mem, stats)?;
                let mut out = Vec::with_capacity(rows.len() / 2);
                for row in rows {
                    match predicate.eval(&row)? {
                        Value::Bool(true) => out.push(row),
                        Value::Bool(false) | Value::Null => {}
                        _ => return Err(DataflowError::TypeError { context: "FILTER" }),
                    }
                }
                Ok((out, pending))
            }
            PlanNode::Foreach { input, exprs } => {
                let (rows, pending) = self.exec(input, mem, stats)?;
                let mut out = Vec::with_capacity(rows.len());
                for row in rows {
                    let mut t = Vec::with_capacity(exprs.len());
                    for (_, e) in exprs {
                        t.push(e.eval(&row)?);
                    }
                    out.push(t);
                }
                Ok((out, pending))
            }
            PlanNode::GroupBy { input, keys } => {
                let (rows, pending) = self.exec(input, mem, stats)?;
                let rows_in = rows.len() as u64;
                let bytes_in: u64 = rows.iter().map(|t| tuple_wire_size(t)).sum();
                // External sort on the key columns (sequence numbers keep
                // arrival order within a key), then one consecutive-grouping
                // pass: groups in ascending key order, bags in arrival
                // order. GROUP ALL over an empty input yields no group (Pig
                // semantics: the group simply does not exist).
                let order = RowOrder::Cols(keys.iter().map(|k| (*k, SortOrder::Asc)).collect());
                let mut stream = self.sorted(rows, order, "group_by", mem)?;
                let mut out: Vec<Tuple> = Vec::new();
                while let Some((_, row)) = stream.next_entry()? {
                    let mut key: Vec<Value> = keys.iter().map(|k| row[*k].clone()).collect();
                    match out.last_mut().and_then(|group| group.split_last_mut()) {
                        Some((Value::Bag(bag), k)) if *k == key[..] => bag.push(row),
                        _ => {
                            key.push(Value::Bag(vec![row]));
                            out.push(key);
                        }
                    }
                }
                let n_groups = out.len() as u64;
                // Bags are holistic: every row crosses the shuffle.
                let next = self.charge_shuffle(stats, pending, rows_in, bytes_in, n_groups);
                Ok((out, next))
            }
            PlanNode::Aggregate { input, keys, aggs } => {
                // Algebraic aggregates over a map chain run the whole map
                // phase — scan, filter, project, map-side combine — per
                // block in parallel; per-block partial states merge at the
                // shuffle boundary in block order. The aggregate is the
                // chain's consumer, so it declares what it reads of a row:
                // its keys and the inputs of every aggregate but COUNT.
                let algebraic = aggs.iter().all(|a| a.func.is_algebraic());
                if algebraic {
                    let reads: Vec<usize> = keys
                        .iter()
                        .copied()
                        .chain(
                            aggs.iter()
                                .filter(|a| a.func != AggFunc::Count)
                                .map(|a| a.col),
                        )
                        .collect();
                    if let Some(chain) = MapChain::extract(input, self.pushdown, Some(&reads)) {
                        return self.exec_chain_aggregate(&chain, keys, aggs, mem, stats);
                    }
                }
                let (rows, pending) = self.exec(input, mem, stats)?;
                let rows_in = rows.len() as u64;
                // The group→state table spills key-sorted runs when it
                // outgrows the budget; runs merge back in arrival order.
                let mut spiller = AggSpiller::new(self.warehouse.clone(), mem.clone(), aggs);
                for row in &rows {
                    let key: Vec<Value> = keys.iter().map(|k| row[*k].clone()).collect();
                    spiller.accumulate_row(key, row)?;
                }
                let out = spiller.finish(keys.is_empty())?;
                let n_groups = out.len() as u64;
                // Combiner: algebraic aggregates shuffle at most
                // (groups × map tasks) records; holistic ones shuffle all.
                let shuffle_records = if algebraic {
                    rows_in.min(n_groups.saturating_mul(pending.tasks.max(1)))
                } else {
                    rows_in
                };
                let bytes_in: u64 = rows.iter().map(|t| tuple_wire_size(t)).sum();
                let avg_record = bytes_in.checked_div(rows_in).unwrap_or(0);
                let shuffle_bytes = shuffle_records * avg_record.max(8);
                let next =
                    self.charge_shuffle(stats, pending, shuffle_records, shuffle_bytes, n_groups);
                Ok((out, next))
            }
            PlanNode::Join {
                left,
                right,
                left_keys,
                right_keys,
            } => {
                let (lrows, lpend) = self.exec(left, mem, stats)?;
                let (rrows, rpend) = self.exec(right, mem, stats)?;
                let shuffle_records = (lrows.len() + rrows.len()) as u64;
                let shuffle_bytes: u64 = lrows
                    .iter()
                    .chain(rrows.iter())
                    .map(|t| tuple_wire_size(t))
                    .sum();
                let mut table: BTreeMap<Vec<Value>, Vec<&Tuple>> = BTreeMap::new();
                for row in &rrows {
                    let key: Vec<Value> = right_keys.iter().map(|k| row[*k].clone()).collect();
                    table.entry(key).or_default().push(row);
                }
                let mut out = Vec::new();
                for lrow in &lrows {
                    let key: Vec<Value> = left_keys.iter().map(|k| lrow[*k].clone()).collect();
                    if key.iter().any(Value::is_null) {
                        continue; // null keys never join
                    }
                    if let Some(matches) = table.get(&key) {
                        for rrow in matches {
                            let mut joined = lrow.clone();
                            joined.extend(rrow.iter().cloned());
                            out.push(joined);
                        }
                    }
                }
                let groups = table.len() as u64;
                let input = MapInput {
                    tasks: lpend.tasks + rpend.tasks,
                    bytes: lpend.bytes + rpend.bytes,
                };
                let next =
                    self.charge_shuffle(stats, input, shuffle_records, shuffle_bytes, groups);
                Ok((out, next))
            }
            PlanNode::OrderBy { input, keys } => {
                let (rows, pending) = self.exec(input, mem, stats)?;
                let shuffle_records = rows.len() as u64;
                let shuffle_bytes: u64 = rows.iter().map(|t| tuple_wire_size(t)).sum();
                // External merge sort; sequence numbers make it stable.
                let mut stream =
                    self.sorted(rows, RowOrder::Cols(keys.clone()), "order_by", mem)?;
                let mut rows = Vec::with_capacity(shuffle_records as usize);
                while let Some((_, row)) = stream.next_entry()? {
                    rows.push(row);
                }
                let next = self.charge_shuffle(
                    stats,
                    pending,
                    shuffle_records,
                    shuffle_bytes,
                    shuffle_records,
                );
                Ok((rows, next))
            }
            PlanNode::Distinct { input } => {
                let (rows, pending) = self.exec(input, mem, stats)?;
                let rows_in = rows.len() as u64;
                // Whole-tuple external sort, then drop consecutive
                // duplicates: distinct tuples in ascending order.
                let mut stream = self.sorted(rows, RowOrder::WholeTuple, "distinct", mem)?;
                let mut out: Vec<Tuple> = Vec::new();
                while let Some((_, row)) = stream.next_entry()? {
                    if out.last().is_none_or(|prev| *prev != row) {
                        out.push(row);
                    }
                }
                let n_groups = out.len() as u64;
                // DISTINCT has a combiner (dedup map-side).
                let shuffle_records = rows_in.min(n_groups.saturating_mul(pending.tasks.max(1)));
                let shuffle_bytes: u64 = out.iter().map(|t| tuple_wire_size(t)).sum();
                let next =
                    self.charge_shuffle(stats, pending, shuffle_records, shuffle_bytes, n_groups);
                Ok((out, next))
            }
            PlanNode::Union { inputs } => {
                let mut rows = Vec::new();
                let mut pending = MapInput::default();
                for input in inputs {
                    let (mut r, p) = self.exec(input, mem, stats)?;
                    rows.append(&mut r);
                    pending.tasks += p.tasks;
                    pending.bytes += p.bytes;
                }
                Ok((rows, pending))
            }
            PlanNode::Limit { input, n } => {
                // ORDER → LIMIT(k): top-K short-circuit. Instead of fully
                // sorting the input (O(n log n) time, O(n) reducer state),
                // keep the best k rows, ties to the earlier arrival, so the
                // output equals the stable full sort truncated to k. Over a
                // map chain each unit keeps its own best k map-side and only
                // those reach the running best, in (unit, row) order — no
                // more than k rows per unit of the window plus k are ever
                // held. The ORDER's shuffle is still charged for every row —
                // rows cross the shuffle either way; only reducer work and
                // memory shrink.
                if let PlanNode::OrderBy { input: inner, keys } = &input.node {
                    let order = RowOrder::Cols(keys.clone());
                    let mut best = TopK::new(&order, *n, Some(mem));
                    let mut shuffle_records = 0u64;
                    let mut shuffle_bytes = 0u64;
                    let pending = match MapChain::extract(inner, self.pushdown, None) {
                        Some(chain) => self.exec_chain_blocks(
                            &chain,
                            stats,
                            |rows| {
                                let records = rows.len() as u64;
                                let bytes: u64 = rows.iter().map(|t| tuple_wire_size(t)).sum();
                                let mut unit_best = TopK::new(&order, *n, None);
                                rows.into_iter().for_each(|row| unit_best.offer(row));
                                Ok((records, bytes, unit_best.into_rows()))
                            },
                            |(records, bytes, unit_best)| {
                                shuffle_records += records;
                                shuffle_bytes += bytes;
                                unit_best.into_iter().for_each(|row| best.offer(row));
                                Ok(())
                            },
                        )?,
                        None => {
                            let (rows, pending) = self.exec(inner, mem, stats)?;
                            shuffle_records = rows.len() as u64;
                            shuffle_bytes = rows.iter().map(|t| tuple_wire_size(t)).sum();
                            rows.into_iter().for_each(|row| best.offer(row));
                            pending
                        }
                    };
                    let next = self.charge_shuffle(
                        stats,
                        pending,
                        shuffle_records,
                        shuffle_bytes,
                        shuffle_records,
                    );
                    return Ok((best.into_rows(), next));
                }
                let (mut rows, pending) = self.exec(input, mem, stats)?;
                rows.truncate(*n);
                Ok((rows, pending))
            }
        }
    }
}

/// One mapper-side operator above a LOAD.
enum MapOp<'a> {
    Filter(&'a Expr),
    Foreach(&'a [(String, Expr)]),
}

/// A LOAD → FILTER/FOREACH chain: the part of a plan that is a pure map
/// phase and can run per-block on a [`ScanPool`] with no cross-row state.
struct MapChain<'a> {
    dir: &'a uli_warehouse::WhPath,
    loader: &'a Arc<dyn Loader>,
    pruner: &'a Option<Arc<dyn BlockPruner>>,
    /// What the loader is asked to push below tuple materialization.
    spec: ScanSpec,
    /// Block-skipping constraints derived from the pushed predicates, when
    /// they are provably total (pruning can never hide an eval error).
    /// Checked against each unit's zone map and handed to `pruner`.
    zone: Option<ZoneMapPruner>,
    /// Operators in application order (innermost first), minus any filters
    /// that were pushed into `spec`.
    ops: Vec<MapOp<'a>>,
}

impl<'a> MapChain<'a> {
    /// Extracts the chain if `plan` is Filter/Foreach nodes over a Load,
    /// pushing into the scan spec, unless `pushdown` is the eager reference:
    ///
    /// * **predicate** — the maximal innermost run of UDF-free filters over
    ///   in-range columns moves into [`ScanSpec::predicate`] (order
    ///   preserved; FILTER semantics are replicated exactly by
    ///   [`ScanSpec::admit`]);
    /// * **projection** — when the loader decodes lazily and something
    ///   bounds what is read of a row — a FOREACH in the chain, or `consumer`,
    ///   the columns of the chain's output its consuming node declares it
    ///   reads (`None`: all of them) — the spec masks every load column
    ///   outside that bound (see [`projection_mask`]);
    /// * **zone maps** — pushed predicates that provably cannot error are
    ///   analyzed into a [`ZoneMapPruner`] over the loader's declared
    ///   key/tag columns.
    fn extract(
        plan: &'a Plan,
        pushdown: Pushdown,
        consumer: Option<&[usize]>,
    ) -> Option<MapChain<'a>> {
        let mut ops = Vec::new();
        let mut node = &plan.node;
        loop {
            match node {
                PlanNode::Filter { input, predicate } => {
                    ops.push(MapOp::Filter(predicate));
                    node = &input.node;
                }
                PlanNode::Foreach { input, exprs } => {
                    ops.push(MapOp::Foreach(exprs));
                    node = &input.node;
                }
                PlanNode::Load {
                    dir,
                    loader,
                    schema,
                    pruner,
                } => {
                    ops.reverse();
                    let width = schema.len();
                    let mut spec = ScanSpec::eager(width);
                    let mut zone = None;
                    if pushdown == Pushdown::On {
                        let pushed = ops
                            .iter()
                            .take_while(|op| match op {
                                MapOp::Filter(pred) => pushable_predicate(pred, width),
                                MapOp::Foreach(_) => false,
                            })
                            .count();
                        for op in ops.drain(..pushed) {
                            let MapOp::Filter(pred) = op else {
                                unreachable!()
                            };
                            spec.predicate.push(pred.clone());
                        }
                        if loader.supports_projection() {
                            spec.projection =
                                projection_mask(&ops, &spec.predicate, consumer, width);
                        }
                        if !spec.predicate.is_empty()
                            && spec.predicate.iter().all(|p| total_boolean(p, width))
                        {
                            let zone_col =
                                |dim| (0..width).find(|c| loader.zone_column(*c) == Some(dim));
                            zone = zone_constraints(
                                &spec.predicate,
                                zone_col(ZoneColumn::Key),
                                zone_col(ZoneColumn::Tag),
                            );
                        }
                    }
                    return Some(MapChain {
                        dir,
                        loader,
                        pruner,
                        spec,
                        zone,
                        ops,
                    });
                }
                _ => return None,
            }
        }
    }

    /// Applies the chain's operators to one block's parsed rows, preserving
    /// row order — the same work the serial Filter/Foreach arms do.
    fn apply_ops(&self, mut rows: Vec<Tuple>) -> DataflowResult<Vec<Tuple>> {
        for op in &self.ops {
            match op {
                MapOp::Filter(predicate) => {
                    let mut out = Vec::with_capacity(rows.len() / 2);
                    for row in rows {
                        match predicate.eval(&row)? {
                            Value::Bool(true) => out.push(row),
                            Value::Bool(false) | Value::Null => {}
                            _ => return Err(DataflowError::TypeError { context: "FILTER" }),
                        }
                    }
                    rows = out;
                }
                MapOp::Foreach(exprs) => {
                    let mut out = Vec::with_capacity(rows.len());
                    for row in rows {
                        let mut t = Vec::with_capacity(exprs.len());
                        for (_, e) in exprs.iter() {
                            t.push(e.eval(&row)?);
                        }
                        out.push(t);
                    }
                    rows = out;
                }
            }
        }
        Ok(rows)
    }
}

/// True when a filter predicate may move below tuple materialization:
/// UDF-free (a UDF may panic or keep state) and reading only in-range
/// columns (so evaluation against the materialized tuple matches eager
/// evaluation exactly).
fn pushable_predicate(pred: &Expr, width: usize) -> bool {
    if expr_has_udf(pred) {
        return false;
    }
    let mut cols = Vec::new();
    collect_columns(pred, &mut cols);
    cols.iter().all(|c| *c < width)
}

/// The keep-mask over the load schema, or `None` when every column is
/// needed. A mask exists only when something bounds what is read of a row:
/// the chain's first FOREACH, or, in a chain without one (whose output is the
/// raw load tuple), the columns its `consumer` declares. Unbounded, any
/// column may be read upstream. Columns read by the pushed predicates, the
/// operators up to the bound, and the bound itself stay materialized.
fn projection_mask(
    ops: &[MapOp<'_>],
    pushed: &[Expr],
    consumer: Option<&[usize]>,
    width: usize,
) -> Option<Vec<bool>> {
    let mut cols = Vec::new();
    let bounded = match ops.iter().position(|op| matches!(op, MapOp::Foreach(_))) {
        Some(first_foreach) => &ops[..=first_foreach],
        None => {
            cols.extend_from_slice(consumer?);
            ops
        }
    };
    for op in bounded {
        match op {
            MapOp::Filter(pred) => collect_columns(pred, &mut cols),
            MapOp::Foreach(exprs) => {
                for (_, e) in exprs.iter() {
                    collect_columns(e, &mut cols);
                }
            }
        }
    }
    for pred in pushed {
        collect_columns(pred, &mut cols);
    }
    // An out-of-range reference will error at eval; fail open so the error
    // surfaces against a fully materialized tuple, exactly as eager does.
    if cols.iter().any(|c| *c >= width) {
        return None;
    }
    let mut keep = vec![false; width];
    for c in cols {
        keep[c] = true;
    }
    if keep.iter().all(|k| *k) {
        return None;
    }
    Some(keep)
}

/// Map-side accumulation: rows → per-group aggregate states.
fn accumulate_groups(
    rows: &[Tuple],
    keys: &[usize],
    aggs: &[Agg],
) -> DataflowResult<BTreeMap<Vec<Value>, Vec<AggState>>> {
    let mut groups: BTreeMap<Vec<Value>, Vec<AggState>> = BTreeMap::new();
    for row in rows {
        let key: Vec<Value> = keys.iter().map(|k| row[*k].clone()).collect();
        let states = groups
            .entry(key)
            .or_insert_with(|| aggs.iter().map(|a| AggState::new(a.func)).collect());
        for (agg, state) in aggs.iter().zip(states.iter_mut()) {
            state.accumulate(row.get(agg.col).unwrap_or(&Value::Null))?;
        }
    }
    Ok(groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::loader::CsvLoader;
    use crate::plan::Plan;
    use std::sync::Arc;
    use uli_warehouse::WhPath;

    fn fixture() -> (Warehouse, WhPath) {
        let wh = Warehouse::with_block_capacity(512);
        let dir = WhPath::parse("/logs/t").unwrap();
        let mut w = wh.create(&dir.child("part-0").unwrap()).unwrap();
        // user, action, amount
        for i in 0..300i64 {
            let action = if i % 3 == 0 { "click" } else { "impression" };
            w.append_record(format!("{},{},{}", i % 10, action, i).as_bytes());
        }
        w.finish().unwrap();
        (wh, dir)
    }

    fn load(dir: &WhPath) -> Plan {
        Plan::load(
            dir.clone(),
            Arc::new(CsvLoader::new(3)),
            vec!["user", "action", "amount"],
        )
    }

    #[test]
    fn map_only_scan_counts_one_job() {
        let (wh, dir) = fixture();
        let engine = Engine::new(wh);
        let r = engine.run(&load(&dir)).unwrap();
        assert_eq!(r.rows.len(), 300);
        assert_eq!(r.stats.mr_jobs, 1);
        assert!(r.stats.map_tasks >= 2, "512-byte blocks → several splits");
        assert_eq!(r.stats.input_records, 300);
        assert_eq!(r.stats.shuffle_bytes, 0);
    }

    #[test]
    fn live_map_output_is_bounded_by_the_window() {
        use std::sync::atomic::AtomicUsize;
        /// One unit's map output: alive from `per_block` until the fold
        /// lets go of it.
        struct Live<'a>(&'a AtomicUsize);
        impl Drop for Live<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let wh = Warehouse::with_block_capacity(128);
        let dir = WhPath::parse("/logs/many-units").unwrap();
        let mut w = wh.create(&dir.child("part-0").unwrap()).unwrap();
        for i in 0..1_000i64 {
            w.append_record(format!("{},click,{}", i % 10, i).as_bytes());
        }
        w.finish().unwrap();
        let plan = load(&dir);
        for workers in [1usize, 4] {
            let engine = Engine::new(wh.clone()).with_parallelism(Parallelism::fixed(workers));
            let chain = MapChain::extract(&plan, engine.pushdown, None).unwrap();
            let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let mut units = 0usize;
            engine
                .exec_chain_blocks(
                    &chain,
                    &mut JobStats::default(),
                    |_rows| {
                        peak.fetch_max(live.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                        Ok(Live(&live))
                    },
                    |unit| {
                        units += 1;
                        drop(unit);
                        Ok(())
                    },
                )
                .unwrap();
            assert!(units >= 64, "{units} units is too few to tell");
            assert!(engine.map_window() < units);
            assert!(
                peak.load(Ordering::SeqCst) <= engine.map_window(),
                "{} unit results alive at once, window {} ({workers} workers)",
                peak.load(Ordering::SeqCst),
                engine.map_window()
            );
            assert_eq!(live.load(Ordering::SeqCst), 0);
        }
    }

    #[test]
    fn filter_and_count() {
        let (wh, dir) = fixture();
        let engine = Engine::new(wh);
        let plan = load(&dir)
            .filter(Expr::col(1).eq(Expr::lit("click")))
            .aggregate(vec![Agg::count()]);
        let r = engine.run(&plan).unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(100)]]);
        assert_eq!(r.stats.mr_jobs, 1, "one shuffle job");
        assert!(r.stats.reduce_tasks >= 1);
    }

    #[test]
    fn aggregate_by_key_with_sums() {
        let (wh, dir) = fixture();
        let engine = Engine::new(wh);
        let plan = load(&dir).aggregate_by(vec![0], vec![Agg::count(), Agg::sum(2).named("amt")]);
        let r = engine.run(&plan).unwrap();
        assert_eq!(r.rows.len(), 10);
        assert_eq!(r.schema, vec!["user", "count", "amt"]);
        // user 0 appears at i = 0,10,…,290: 30 rows summing to 4350.
        let row0 = r.rows.iter().find(|t| t[0] == Value::Int(0)).unwrap();
        assert_eq!(row0[1], Value::Int(30));
        assert_eq!(row0[2], Value::Int(4350));
    }

    #[test]
    fn combiner_reduces_shuffle_for_algebraic_aggs() {
        let (wh, dir) = fixture();
        let engine = Engine::new(wh);
        let algebraic = engine
            .run(&load(&dir).aggregate_by(vec![0], vec![Agg::count()]))
            .unwrap();
        let (wh2, dir2) = fixture();
        let engine2 = Engine::new(wh2);
        let holistic = engine2
            .run(&load(&dir2).aggregate_by(vec![0], vec![Agg::count_distinct(2)]))
            .unwrap();
        assert!(
            algebraic.stats.shuffle_records < holistic.stats.shuffle_records,
            "combiner must shrink the shuffle: {} vs {}",
            algebraic.stats.shuffle_records,
            holistic.stats.shuffle_records
        );
        assert_eq!(holistic.stats.shuffle_records, 300);
    }

    #[test]
    fn group_by_produces_bags() {
        let (wh, dir) = fixture();
        let engine = Engine::new(wh);
        let r = engine.run(&load(&dir).group_by(vec![0])).unwrap();
        assert_eq!(r.rows.len(), 10);
        let bag = r.rows[0].last().unwrap().as_bag().unwrap();
        assert_eq!(bag.len(), 30);
        // Bags shuffle everything.
        assert_eq!(r.stats.shuffle_records, 300);
    }

    #[test]
    fn group_all_on_empty_input_counts_zero() {
        let wh = Warehouse::new();
        let dir = WhPath::parse("/empty").unwrap();
        wh.mkdirs(&dir).unwrap();
        let engine = Engine::new(wh);
        let r = engine
            .run(&load(&dir).aggregate(vec![Agg::count()]))
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn join_matches_keys() {
        let (wh, dir) = fixture();
        let engine = Engine::new(wh);
        let users = Plan::values(
            vec!["uid", "country"],
            vec![
                vec![Value::Int(0), Value::str("uk")],
                vec![Value::Int(1), Value::str("us")],
            ],
        );
        let plan = load(&dir)
            .join(users, vec![0], vec![0])
            .filter(Expr::col(4).eq(Expr::lit("uk")))
            .aggregate(vec![Agg::count()]);
        let r = engine.run(&plan).unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(30)]]);
        assert_eq!(r.stats.mr_jobs, 2, "join + aggregate");
    }

    #[test]
    fn order_by_sorts_both_directions() {
        let engine = Engine::new(Warehouse::new());
        let vals = Plan::values(
            vec!["x"],
            vec![
                vec![Value::Int(2)],
                vec![Value::Int(1)],
                vec![Value::Int(3)],
            ],
        );
        let r = engine
            .run(&vals.order_by(vec![(0, SortOrder::Desc)]))
            .unwrap();
        let xs: Vec<i64> = r.rows.iter().map(|t| t[0].as_int().unwrap()).collect();
        assert_eq!(xs, vec![3, 2, 1]);
    }

    #[test]
    fn distinct_dedups() {
        let engine = Engine::new(Warehouse::new());
        let vals = Plan::values(
            vec!["x"],
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(1)],
                vec![Value::Int(2)],
            ],
        );
        let r = engine.run(&vals.distinct()).unwrap();
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn union_and_limit() {
        let engine = Engine::new(Warehouse::new());
        let a = Plan::values(vec!["x"], vec![vec![Value::Int(1)]]);
        let b = Plan::values(vec!["x"], vec![vec![Value::Int(2)], vec![Value::Int(3)]]);
        let r = engine.run(&a.union(vec![b]).limit(2)).unwrap();
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn foreach_projects_early_to_cut_shuffle() {
        let (wh, dir) = fixture();
        let engine = Engine::new(wh);
        let wide = engine.run(&load(&dir).group_by(vec![0])).unwrap();
        let (wh2, dir2) = fixture();
        let engine2 = Engine::new(wh2);
        let narrow = engine2
            .run(
                &load(&dir2)
                    .foreach(vec![("user", Expr::col(0))])
                    .group_by(vec![0]),
            )
            .unwrap();
        assert!(
            narrow.stats.shuffle_bytes < wide.stats.shuffle_bytes,
            "projection must shrink shuffled bytes"
        );
    }

    #[test]
    fn cost_model_monotone_in_tasks_and_bytes() {
        let m = CostModel::default();
        let base = JobStats {
            mr_jobs: 1,
            map_tasks: 10,
            reduce_tasks: 1,
            input_bytes_uncompressed: 1 << 20,
            shuffle_bytes: 1 << 16,
            ..Default::default()
        };
        let mut more_tasks = base;
        more_tasks.map_tasks = 10_000;
        assert!(m.estimate_ms(&more_tasks) > m.estimate_ms(&base));
        let mut more_bytes = base;
        more_bytes.input_bytes_uncompressed = 1 << 32;
        assert!(m.estimate_ms(&more_bytes) > m.estimate_ms(&base));
    }

    #[test]
    fn pushed_filter_matches_eager_and_counts_records() {
        let (wh, dir) = fixture();
        let eager_engine = Engine::new(wh).with_pushdown(Pushdown::Eager);
        let plan = load(&dir).filter(Expr::col(1).eq(Expr::lit("click")));
        let eager = eager_engine.run(&plan).unwrap();
        let (wh2, _) = fixture();
        let pushed_engine = Engine::new(wh2); // pushdown on by default
        let pushed = pushed_engine.run(&plan).unwrap();
        assert_eq!(eager.rows, pushed.rows);
        assert_eq!(eager.stats.records_skipped_by_predicate, 0);
        assert_eq!(pushed.stats.records_skipped_by_predicate, 200);
        assert_eq!(
            pushed.stats.input_records, 300,
            "skipped records still read"
        );
    }

    #[test]
    fn udf_predicates_are_not_pushed() {
        use crate::udf::ScalarUdf;
        struct IsClick;
        impl ScalarUdf for IsClick {
            fn name(&self) -> &'static str {
                "IS_CLICK"
            }
            fn eval(&self, args: &[Value]) -> DataflowResult<Value> {
                Ok(Value::Bool(args[0] == Value::str("click")))
            }
        }
        let (wh, dir) = fixture();
        let engine = Engine::new(wh);
        let plan = load(&dir).filter(Expr::udf(Arc::new(IsClick), vec![Expr::col(1)]));
        let r = engine.run(&plan).unwrap();
        assert_eq!(r.rows.len(), 100);
        assert_eq!(r.stats.records_skipped_by_predicate, 0, "UDF stays eager");
    }

    #[test]
    fn filters_behind_a_udf_filter_stay_unpushed() {
        // Only the innermost run of pushable filters moves; a later cheap
        // filter above a UDF filter must not leapfrog it.
        use crate::udf::ScalarUdf;
        struct AlwaysTrue;
        impl ScalarUdf for AlwaysTrue {
            fn name(&self) -> &'static str {
                "TRUE"
            }
            fn eval(&self, _: &[Value]) -> DataflowResult<Value> {
                Ok(Value::Bool(true))
            }
        }
        let (wh, dir) = fixture();
        let engine = Engine::new(wh);
        let plan = load(&dir)
            .filter(Expr::col(1).eq(Expr::lit("click"))) // pushed
            .filter(Expr::udf(Arc::new(AlwaysTrue), vec![])) // blocks
            .filter(Expr::col(0).eq(Expr::lit(0i64))); // stays
        let r = engine.run(&plan).unwrap();
        assert_eq!(r.rows.len(), 10);
        assert_eq!(r.stats.records_skipped_by_predicate, 200, "only filter 1");
    }

    /// CSV loader that declares its third column as the zone-map key.
    struct ZonedCsv(CsvLoader);
    impl Loader for ZonedCsv {
        fn name(&self) -> &'static str {
            "ZonedCsv"
        }
        fn parse(&self, record: &[u8]) -> DataflowResult<Option<Tuple>> {
            self.0.parse(record)
        }
        fn zone_column(&self, col: usize) -> Option<ZoneColumn> {
            (col == 2).then_some(ZoneColumn::Key)
        }
        fn supports_projection(&self) -> bool {
            // Honored only on the columnar path (the row parse is eager);
            // masked columns are never read downstream either way.
            true
        }
        fn columnar(&self) -> Option<&dyn crate::batch::ColumnarCodec> {
            self.0.columnar()
        }
    }

    fn zoned_fixture() -> (Warehouse, WhPath) {
        let wh = Warehouse::with_block_capacity(512);
        let dir = WhPath::parse("/logs/z").unwrap();
        let mut w = wh.create(&dir.child("part-0").unwrap()).unwrap();
        for i in 0..300i64 {
            let action = if i % 3 == 0 { "click" } else { "impression" };
            w.append_record_annotated(format!("{},{},{}", i % 10, action, i).as_bytes(), i, 0);
        }
        w.finish().unwrap();
        (wh, dir)
    }

    fn zoned_load(dir: &WhPath) -> Plan {
        Plan::load(
            dir.clone(),
            Arc::new(ZonedCsv(CsvLoader::new(3))),
            vec!["user", "action", "amount"],
        )
    }

    #[test]
    fn zone_maps_skip_blocks_outside_the_key_range() {
        let (wh, dir) = zoned_fixture();
        let engine = Engine::new(wh);
        let plan = zoned_load(&dir).filter(Expr::col(2).ge(Expr::lit(250i64)));
        let r = engine.run(&plan).unwrap();
        assert_eq!(r.rows.len(), 50);
        assert!(r.stats.blocks_skipped > 0, "leading blocks pruned");
        // Eager reference on identical data.
        let (wh2, dir2) = zoned_fixture();
        let eager = Engine::new(wh2)
            .with_pushdown(Pushdown::Eager)
            .run(&zoned_load(&dir2).filter(Expr::col(2).ge(Expr::lit(250i64))))
            .unwrap();
        assert_eq!(eager.rows, r.rows);
        assert_eq!(eager.stats.blocks_skipped, 0);
        assert!(r.stats.input_blocks < eager.stats.input_blocks);
    }

    #[test]
    fn zone_pruning_requires_total_predicates() {
        // An arithmetic predicate may type-error, so no block is pruned even
        // though it constrains the key column.
        let (wh, dir) = zoned_fixture();
        let engine = Engine::new(wh);
        let plan = zoned_load(&dir).filter(Expr::col(2).add(Expr::lit(0i64)).ge(Expr::lit(250i64)));
        let r = engine.run(&plan).unwrap();
        assert_eq!(r.rows.len(), 50);
        assert_eq!(r.stats.blocks_skipped, 0, "non-total predicate: fail open");
    }

    #[test]
    fn serial_and_parallel_pushdown_agree_on_rows_and_accounting() {
        let plan_of = |dir: &WhPath| {
            zoned_load(dir)
                .filter(Expr::col(2).ge(Expr::lit(100i64)))
                .aggregate_by(vec![0], vec![Agg::count()])
        };
        let (wh, dir) = zoned_fixture();
        let serial = Engine::new(wh)
            .with_parallelism(Parallelism::fixed(1))
            .run(&plan_of(&dir))
            .unwrap();
        let (wh2, dir2) = zoned_fixture();
        let parallel = Engine::new(wh2)
            .with_parallelism(Parallelism::fixed(4))
            .run(&plan_of(&dir2))
            .unwrap();
        assert_eq!(serial.rows, parallel.rows);
        assert_eq!(serial.stats, parallel.stats);
    }

    #[test]
    fn obs_mirrors_job_stats_and_counts_stage_rows() {
        let registry = Registry::new();
        let (wh, dir) = fixture();
        let engine = Engine::new(wh).with_obs(&registry);
        let plan = load(&dir)
            .filter(Expr::col(1).eq(Expr::lit("click")))
            .aggregate(vec![Agg::count()]);
        let r = engine.run(&plan).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("dataflow/queries"), Some(1));
        assert_eq!(
            snap.counter_value("dataflow/input_records"),
            Some(r.stats.input_records),
            "mirror equals the JobStats the caller saw"
        );
        assert_eq!(
            snap.counter_value("dataflow/output_records"),
            Some(r.stats.output_records)
        );
        // The pushed filter collapses into the aggregate's map chain: the
        // aggregate stage consumed every surfaced record and emitted 1 row.
        assert_eq!(
            snap.counter_value("dataflow/stage_rows_in{stage=aggregate}"),
            Some(300)
        );
        assert_eq!(
            snap.counter_value("dataflow/stage_rows_out{stage=aggregate}"),
            Some(1)
        );
        assert!(registry.duplicate_registrations().is_empty());
        // Spans: one query root wrapping the aggregate stage.
        let spans = registry.finished_spans();
        assert_eq!(spans[0].key(), "dataflow/query");
        assert!(spans.iter().any(|s| s.key() == "dataflow/aggregate"));
    }

    #[test]
    fn obs_accounting_is_worker_invariant() {
        let run_with = |workers: usize| {
            let registry = Registry::new();
            let (wh, dir) = zoned_fixture();
            let engine = Engine::new(wh)
                .with_obs(&registry)
                .with_parallelism(Parallelism::fixed(workers));
            engine
                .run(
                    &zoned_load(&dir)
                        .filter(Expr::col(2).ge(Expr::lit(100i64)))
                        .aggregate_by(vec![0], vec![Agg::count()]),
                )
                .unwrap();
            registry.snapshot().to_json()
        };
        let serial = run_with(1);
        assert_eq!(serial, run_with(4));
        assert_eq!(serial, run_with(8));
    }

    /// The zoned CSV data written in the columnar layout: same 300
    /// logical rows, action column dictionary-encoded, groups annotated
    /// with the amount as zone key (matching `ZonedCsv::zone_column`).
    fn columnar_fixture(group_rows: usize) -> (Warehouse, WhPath) {
        let wh = Warehouse::new();
        let dir = WhPath::parse("/logs/c").unwrap();
        wh.mkdirs(&dir).unwrap();
        let dict: [&[u8]; 2] = [b"click", b"impression"];
        let mut w = uli_warehouse::ColumnarFileWriter::create(
            &wh,
            &dir.child("part-0").unwrap(),
            &[uli_warehouse::ColumnKind::Bytes; 3],
            group_rows,
            Some((1, &dict)),
        )
        .unwrap();
        for i in 0..300i64 {
            let action = if i % 3 == 0 { "click" } else { "impression" };
            let user = (i % 10).to_string();
            let amount = i.to_string();
            w.append_row_coded(
                &[user.as_bytes(), action.as_bytes(), amount.as_bytes()],
                Some(u32::from(i % 3 != 0)),
                i,
                uli_warehouse::tag_hash(action.as_bytes()),
            );
        }
        w.finish().unwrap();
        (wh, dir)
    }

    #[test]
    fn columnar_scan_matches_row_scan_at_all_worker_counts() {
        let plans: [fn(&WhPath) -> Plan; 3] = [
            |d| zoned_load(d),
            |d| zoned_load(d).filter(Expr::col(1).eq(Expr::lit("click"))),
            |d| {
                zoned_load(d)
                    .filter(Expr::col(2).ge(Expr::lit(100i64)))
                    .foreach(vec![("user", Expr::col(0)), ("action", Expr::col(1))])
                    .aggregate_by(vec![1], vec![Agg::count()])
            },
        ];
        for (pi, plan_of) in plans.iter().enumerate() {
            let (row_wh, row_dir) = zoned_fixture();
            let reference = Engine::new(row_wh).run(&plan_of(&row_dir)).unwrap();
            for workers in [1usize, 4, 8] {
                let (wh, dir) = columnar_fixture(64);
                let r = Engine::new(wh)
                    .with_parallelism(Parallelism::fixed(workers))
                    .run(&plan_of(&dir))
                    .unwrap();
                assert_eq!(r.rows, reference.rows, "plan {pi} workers {workers}");
            }
            // One worker, nothing pushed down: every column of every row
            // decoded, every operator evaluated on full tuples.
            let (wh, dir) = columnar_fixture(64);
            let eager = Engine::new(wh)
                .with_pushdown(Pushdown::Eager)
                .with_parallelism(Parallelism::serial())
                .run(&plan_of(&dir))
                .unwrap();
            assert_eq!(eager.rows, reference.rows, "plan {pi} eager");
        }
    }

    #[test]
    fn columnar_accounting_is_worker_invariant() {
        let run_with = |workers: usize| {
            let registry = Registry::new();
            let (wh, dir) = columnar_fixture(64);
            let engine = Engine::new(wh)
                .with_obs(&registry)
                .with_parallelism(Parallelism::fixed(workers));
            engine
                .run(
                    &zoned_load(&dir)
                        .filter(Expr::col(2).ge(Expr::lit(100i64)))
                        .aggregate_by(vec![0], vec![Agg::count()]),
                )
                .unwrap();
            registry.snapshot().to_json()
        };
        let serial = run_with(1);
        assert_eq!(serial, run_with(4));
        assert_eq!(serial, run_with(8));
    }

    #[test]
    fn columnar_zone_maps_skip_row_groups() {
        let (wh, dir) = columnar_fixture(64);
        let engine = Engine::new(wh);
        let plan = zoned_load(&dir).filter(Expr::col(2).ge(Expr::lit(250i64)));
        let r = engine.run(&plan).unwrap();
        assert_eq!(r.rows.len(), 50);
        assert!(r.stats.blocks_skipped > 0, "leading groups pruned");
        assert!(
            r.stats.records_skipped_by_predicate < 250,
            "pruned groups never decode their rows"
        );
    }

    #[test]
    fn columnar_projection_reads_fewer_decoded_bytes_than_row() {
        let plan_of = |dir: &WhPath| {
            zoned_load(dir)
                .filter(Expr::col(1).eq(Expr::lit("click")))
                .foreach(vec![("amount", Expr::col(2))])
                .aggregate(vec![Agg::sum(0)])
        };
        let (row_wh, row_dir) = zoned_fixture();
        let row = Engine::new(row_wh).run(&plan_of(&row_dir)).unwrap();
        let (col_wh, col_dir) = columnar_fixture(64);
        let col = Engine::new(col_wh).run(&plan_of(&col_dir)).unwrap();
        assert_eq!(row.rows, col.rows);
        assert!(
            col.stats.input_bytes_uncompressed < row.stats.input_bytes_uncompressed,
            "columnar projection must decode fewer bytes: {} vs {}",
            col.stats.input_bytes_uncompressed,
            row.stats.input_bytes_uncompressed
        );
        assert!(col.stats.fields_skipped > 0, "masked columns counted");
    }

    #[test]
    fn null_join_keys_do_not_match() {
        let engine = Engine::new(Warehouse::new());
        let a = Plan::values(vec!["k"], vec![vec![Value::Null], vec![Value::Int(1)]]);
        let b = Plan::values(vec!["k"], vec![vec![Value::Null], vec![Value::Int(1)]]);
        let r = engine.run(&a.join(b, vec![0], vec![0])).unwrap();
        assert_eq!(r.rows.len(), 1, "only the non-null key joins");
    }
}
