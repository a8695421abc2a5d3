//! The memory budget must be invisible in results: for every spillable plan
//! shape, rows from runs that spill to warehouse run files must equal the
//! rows at the default budget (which nothing here reaches) byte-for-byte,
//! across random budgets × worker counts {1, 4, 8} — and both must equal
//! the rows recorded from the in-memory operators the spilling ones
//! replaced. Tiny budgets must actually spill, the peak gauge must respect
//! the budget, and no spill debris may survive a query.

use std::sync::Arc;

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use uli_dataflow::prelude::*;
use uli_dataflow::wire::encode_tuple;
use uli_dataflow::{CsvLoader, Engine, Parallelism, QueryResult};
use uli_warehouse::{
    fnv1a64_fold, spill_root, Warehouse, WhPath, DEFAULT_MEM_BUDGET, FNV1A64_OFFSET,
};

fn seeded_warehouse(seed: u64) -> (Warehouse, WhPath) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let wh = Warehouse::with_block_capacity(512);
    let dir = WhPath::parse("/logs/t").unwrap();
    let actions = ["click", "impression", "follow", "search"];
    for file in 0..4 {
        let mut w = wh
            .create(&dir.child(&format!("part-{file}")).unwrap())
            .unwrap();
        let rows = 120 + rng.gen_range(0..60);
        for _ in 0..rows {
            let user = rng.gen_range(0..25i64);
            let action = actions[rng.gen_range(0..actions.len())];
            let amount = rng.gen_range(-1000..1000i64);
            w.append_record(format!("{user},{action},{amount}").as_bytes());
        }
        w.finish().unwrap();
    }
    (wh, dir)
}

fn load(dir: &WhPath) -> Plan {
    Plan::load(
        dir.clone(),
        Arc::new(CsvLoader::new(3)),
        vec!["user", "action", "amount"],
    )
}

/// Plan shapes that exercise every spillable operator. Integer aggregates
/// only: spilled partials merge in run order, and only integer merges are
/// bit-exact under reassociation (the engine shares this caveat with its
/// parallel combine path).
fn plans(dir: &WhPath) -> Vec<(&'static str, Plan)> {
    vec![
        (
            "order",
            load(dir).order_by(vec![(2, SortOrder::Desc), (0, SortOrder::Asc)]),
        ),
        ("group", load(dir).group_by(vec![0])),
        (
            "agg",
            load(dir).aggregate_by(
                vec![0],
                vec![Agg::count(), Agg::sum(2), Agg::min(2), Agg::max(2)],
            ),
        ),
        (
            "holistic agg",
            load(dir).aggregate_by(vec![0], vec![Agg::count_distinct(1)]),
        ),
        (
            "sketch agg",
            load(dir).aggregate_by(
                vec![1],
                vec![
                    Agg::approx_count_distinct(0),
                    Agg::approx_percentile(2, 0.95),
                ],
            ),
        ),
        (
            "distinct",
            load(dir)
                .foreach(vec![("user", Expr::col(0)), ("action", Expr::col(1))])
                .distinct(),
        ),
        (
            "order+limit",
            load(dir)
                .order_by(vec![(2, SortOrder::Desc), (0, SortOrder::Asc)])
                .limit(17),
        ),
        // An algebraic aggregate whose input is not a map chain: the UNION
        // reaches it as one unit of rows.
        (
            "union agg",
            load(dir)
                .union(vec![load(dir)])
                .aggregate_by(vec![0], vec![Agg::count(), Agg::sum(2)]),
        ),
        // A holistic aggregate beside an algebraic one over a FILTER chain.
        (
            "filtered holistic agg",
            load(dir)
                .filter(Expr::col(1).ne(Expr::lit("search")))
                .aggregate_by(vec![0], vec![Agg::count_distinct(1), Agg::sum(2)]),
        ),
    ]
}

/// Runs one plan shape; `None` is the engine's default budget.
fn run_one(seed: u64, name: &str, workers: usize, budget: Option<u64>) -> (QueryResult, Warehouse) {
    let (wh, dir) = seeded_warehouse(seed);
    let mut engine = Engine::new(wh.clone()).with_parallelism(Parallelism::fixed(workers));
    if let Some(b) = budget {
        engine = engine.with_mem_budget(b);
    }
    let plan = plans(&dir).into_iter().find(|(n, _)| *n == name).unwrap().1;
    (engine.run(&plan).unwrap(), wh)
}

fn assert_no_spill_debris(wh: &Warehouse) {
    let root = spill_root();
    assert!(
        !wh.exists(&root) || wh.list_files_recursive(&root).unwrap().is_empty(),
        "spill scratch files survived the query"
    );
}

fn fold_u64(h: u64, v: u64) -> u64 {
    fnv1a64_fold(h, &v.to_le_bytes())
}

/// Every output row in order, in the lossless spill wire encoding.
fn rows_digest(rows: &[Tuple]) -> u64 {
    let mut h = fold_u64(FNV1A64_OFFSET, rows.len() as u64);
    for row in rows {
        let bytes = encode_tuple(row);
        h = fold_u64(h, bytes.len() as u64);
        h = fnv1a64_fold(h, &bytes);
    }
    h
}

/// The cost-model side of a result: what the simulated cluster was billed.
fn bill_digest(r: &QueryResult) -> u64 {
    let s = &r.stats;
    [
        s.mr_jobs,
        s.map_tasks,
        s.reduce_tasks,
        s.shuffle_records,
        s.shuffle_bytes,
        s.output_records,
        r.estimated_cluster_ms.to_bits(),
    ]
    .into_iter()
    .fold(FNV1A64_OFFSET, fold_u64)
}

/// `(seed, plan, rows digest, bill digest)` of the unbudgeted in-memory
/// operators, recorded before they were deleted. They were this suite's
/// reference; these constants are what is left of them. The `union agg` and
/// `filtered holistic agg` pairs were recorded later, from the spilling
/// operators while an aggregate still had a collected-rows arm beside its
/// per-unit one; the `union agg` bills since, when its shuffle became the
/// combiner's actual output rather than a modelled one.
const RECORDED: [(u64, &str, u64, u64); 18] = [
    (11, "order", 0x0ad0_1bd6_60ca_f72e, 0xc5c3_42d1_9351_160b),
    (11, "group", 0x44f7_1d93_94b1_5de6, 0xe554_b0a0_e7eb_cf61),
    (11, "agg", 0xe623_0c9e_09ad_41df, 0x449b_263d_a99a_7a6b),
    (
        11,
        "holistic agg",
        0xdbd3_99fc_4467_3126,
        0x28f5_dc34_9b7a_7a6f,
    ),
    (
        11,
        "sketch agg",
        0x1997_bee7_bf84_3071,
        0xd92a_9e27_52f2_66d9,
    ),
    (11, "distinct", 0x8931_a0f3_9b40_90e1, 0x202e_129f_b04c_317b),
    (
        11,
        "order+limit",
        0x65fa_5988_41c3_09b7,
        0xba5f_5c0f_aa08_5eb9,
    ),
    (137, "order", 0xdb59_5829_4a07_a670, 0xe6e6_ee6a_542c_08fb),
    (137, "group", 0xab49_4bfb_3fe8_d396, 0x4b1b_7964_6778_9aed),
    (137, "agg", 0xe9ee_2023_ddd7_bffc, 0xedf3_3f3e_f590_31d6),
    (
        137,
        "holistic agg",
        0xdbd3_99fc_4467_3126,
        0xbfe2_67f2_83be_64c2,
    ),
    (
        137,
        "sketch agg",
        0xcd4e_9162_56f8_19f1,
        0x970e_3873_da8a_4ca7,
    ),
    (
        137,
        "distinct",
        0x8931_a0f3_9b40_90e1,
        0xe3a3_8eff_c7fa_81c4,
    ),
    (
        137,
        "order+limit",
        0x9416_7335_5102_8b27,
        0x3814_8d8e_65dc_3255,
    ),
    (
        11,
        "union agg",
        0x1e6f_4d05_3c7e_78d5,
        0x2811_42eb_0d2a_22c3,
    ),
    (
        11,
        "filtered holistic agg",
        0x1a1f_3e4d_78e6_475c,
        0xa73d_a79c_cc5e_dce9,
    ),
    (
        137,
        "union agg",
        0x68a1_1062_8082_b75c,
        0xe9ed_a4a2_c1cc_3c23,
    ),
    (
        137,
        "filtered holistic agg",
        0xa3d8_bb84_94c6_7e5b,
        0x3fdf_ccb9_a8c1_22a0,
    ),
];

/// A budget far below the plan's reduce state. Aggregates hold one state
/// per group (25 groups, or 4 of ~6 KB sketches), far less than the row
/// operators' ~700 buffered rows — squeeze them harder so the spiller
/// actually fires.
fn tight_budget(name: &str) -> u64 {
    match name {
        "sketch agg" => 16 * 1024,
        _ if name.contains("agg") => 1024,
        _ => 6 * 1024,
    }
}

#[test]
fn rows_and_bill_match_the_recorded_digests() {
    for (seed, name, rows, bill) in RECORDED {
        for workers in [1usize, 4, 8] {
            for budget in [None, Some(tight_budget(name)), Some(u64::MAX)] {
                let (r, _) = run_one(seed, name, workers, budget);
                assert_eq!(
                    (rows_digest(&r.rows), bill_digest(&r)),
                    (rows, bill),
                    "plan {name:?} seed {seed} workers {workers} budget {budget:?}: \
                     (rows, bill) digests"
                );
            }
        }
    }
}

#[test]
fn tiny_budget_spills_and_matches_the_default_budget() {
    // Every operator here folds its input unit by unit, window by window,
    // so the worker count moves where the windows fall but not what spills
    // or what comes out.
    for name in [
        "order",
        "group",
        "agg",
        "holistic agg",
        "sketch agg",
        "distinct",
        "union agg",
        "filtered holistic agg",
    ] {
        let (default, _) = run_one(11, name, 1, None);
        assert_eq!(default.stats.spill_runs, 0);
        assert!(
            (1..=DEFAULT_MEM_BUDGET).contains(&default.stats.mem_high_water_bytes),
            "plan {name:?}: reduce state is tracked at every budget, peak {}",
            default.stats.mem_high_water_bytes
        );
        let budget = tight_budget(name);
        let (serial, _) = run_one(11, name, 1, Some(budget));
        for workers in [1usize, 4, 8] {
            let (spilled, wh) = run_one(11, name, workers, Some(budget));
            assert!(
                spilled.stats.spill_runs > 0,
                "plan {name:?}: tiny budget must force spills"
            );
            assert!(spilled.stats.spill_bytes > 0, "plan {name:?}");
            assert!(
                spilled.stats.mem_high_water_bytes <= budget,
                "plan {name:?}: peak {} exceeded budget {budget}",
                spilled.stats.mem_high_water_bytes
            );
            assert_eq!(
                spilled.rows, default.rows,
                "plan {name:?}: spilled rows must be byte-identical"
            );
            assert_eq!(
                spilled.stats, serial.stats,
                "plan {name:?}: spills and peak at {workers} workers"
            );
            assert_no_spill_debris(&wh);
        }
    }
}

#[test]
fn order_limit_short_circuit_equals_full_sort() {
    // The top-K path must equal ORDER then LIMIT applied the naive way,
    // including ties (user repeats across rows; stability matters).
    let (wh, dir) = seeded_warehouse(5);
    let engine = Engine::new(wh);
    let keys = vec![(0usize, SortOrder::Asc), (1usize, SortOrder::Desc)];
    for k in [0usize, 1, 13, 100, 10_000] {
        let top = engine
            .run(&load(&dir).order_by(keys.clone()).limit(k))
            .unwrap();
        let mut full = engine.run(&load(&dir).order_by(keys.clone())).unwrap();
        full.rows.truncate(k);
        assert_eq!(top.rows, full.rows, "top-{k} diverged from full sort");
    }
}

#[test]
fn approx_aggregates_track_exact_within_bounds() {
    let (wh, dir) = seeded_warehouse(23);
    let engine = Engine::new(wh);
    let exact = engine
        .run(&load(&dir).aggregate_by(vec![1], vec![Agg::count_distinct(0)]))
        .unwrap();
    let approx = engine
        .run(&load(&dir).aggregate_by(
            vec![1],
            vec![
                Agg::approx_count_distinct(0),
                Agg::approx_percentile(2, 0.5),
            ],
        ))
        .unwrap();
    assert_eq!(exact.rows.len(), approx.rows.len());
    for (e, a) in exact.rows.iter().zip(&approx.rows) {
        assert_eq!(e[0], a[0], "group keys must line up");
        let (Value::Int(exact_n), Value::Int(approx_n)) = (&e[1], &a[1]) else {
            panic!("expected int counts");
        };
        // HLL at p=12 has ~1.6% stderr; at 25 distinct users the
        // linear-counting regime is near-exact. Allow 10% slack.
        let err = (exact_n - approx_n).abs() as f64 / *exact_n as f64;
        assert!(err <= 0.10, "distinct {exact_n} vs approx {approx_n}");
        // Median amount is in [-1000, 1000); the histogram reports a
        // bucket upper bound, never below the true quantile.
        let Value::Int(p50) = &a[2] else {
            panic!("expected int percentile");
        };
        assert!((-1000..=1300).contains(p50), "implausible median {p50}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random budgets × workers {1, 4, 8}: rows identical to the serial run
    /// at the default budget for every spillable plan shape, and no scratch
    /// debris.
    #[test]
    fn rows_match_the_default_budget_for_any_budget_and_workers(
        seed in 1u64..200,
        budget in 4_096u64..262_144,
        plan_idx in 0usize..9,
    ) {
        let name = ["order", "group", "agg", "holistic agg", "sketch agg",
                    "distinct", "order+limit", "union agg",
                    "filtered holistic agg"][plan_idx];
        let (reference, _) = run_one(seed, name, 1, None);
        prop_assert_eq!(reference.stats.spill_runs, 0);
        for workers in [1usize, 4, 8] {
            let (budgeted, wh) = run_one(seed, name, workers, Some(budget));
            prop_assert_eq!(
                &budgeted.rows, &reference.rows,
                "plan {} diverged: seed {}, budget {}, workers {}",
                name, seed, budget, workers
            );
            prop_assert!(budgeted.stats.mem_high_water_bytes <= budget);
            assert_no_spill_debris(&wh);
        }
    }

    /// ORDER+LIMIT over a map chain keeps k rows per unit and a running best
    /// k, and still returns the stable full sort truncated to k: the sort
    /// key is the user alone (25 users over ~35 scan units, so every key
    /// ties across units and within them), and the reference is the bare
    /// LOAD sorted here, stably. The shuffle is billed for every row, as the
    /// full ORDER's is.
    #[test]
    fn order_limit_over_a_chain_equals_the_stable_sort_truncated(
        seed in 1u64..200,
        descending in any::<bool>(),
    ) {
        let direction = if descending { SortOrder::Desc } else { SortOrder::Asc };
        let (wh, dir) = seeded_warehouse(seed);
        let mut sorted = Engine::new(wh.clone()).run(&load(&dir)).unwrap().rows;
        sorted.sort_by(|a, b| {
            let by_user = a[0].cmp(&b[0]);
            if descending { by_user.reverse() } else { by_user }
        });
        let ordered = Engine::new(wh.clone())
            .run(&load(&dir).order_by(vec![(0, direction)]))
            .unwrap();
        prop_assert_eq!(&ordered.rows, &sorted);
        for k in [0usize, 1, 17, sorted.len() + 5] {
            let plan = load(&dir).order_by(vec![(0, direction)]).limit(k);
            for workers in [1usize, 4] {
                let top = Engine::new(wh.clone())
                    .with_parallelism(Parallelism::fixed(workers))
                    .run(&plan)
                    .unwrap();
                prop_assert_eq!(
                    &top.rows[..], &sorted[..k.min(sorted.len())],
                    "k {} workers {} seed {}", k, workers, seed
                );
                prop_assert_eq!(top.stats.shuffle_records, ordered.stats.shuffle_records);
                prop_assert_eq!(top.stats.shuffle_bytes, ordered.stats.shuffle_bytes);
                prop_assert_eq!(top.stats.map_tasks, ordered.stats.map_tasks);
                prop_assert_eq!(top.stats.reduce_tasks, ordered.stats.reduce_tasks);
                assert_no_spill_debris(&wh);
            }
        }
    }
}
