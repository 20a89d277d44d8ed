//! Property tests pinning pool-executed steps byte-identical across the
//! scheduling knobs the persistent task pool introduced.
//!
//! The engine's parallel phases (phase scan, candidate evaluation, GMM row
//! pass) run on the process-wide task pool under an oversubscription
//! thread budget, with a distance cache shared by every thread. None of
//! those knobs may change results: over randomized databases and
//! drill-down paths, every thread count {0 (all cores), 1, 2, 4, 8} ×
//! thread budget must produce bit-exact displayed maps, recommendations,
//! and counters — materialization counters included — against the serial
//! (`threads: 1`) baseline, which the `plan_equivalence` suite pins
//! against the pre-refactor engine.

use std::sync::Arc;

use proptest::prelude::*;
use proptest::strategy::Just;

use subdex_core::ratingmap::ScoredRatingMap;
use subdex_core::recommend::{Materialization, Recommendation};
use subdex_core::{EngineConfig, SdeEngine, SelectionStats, StepResult};
use subdex_store::{
    table::EntityTableBuilder, AttrValue, Cell, DistanceCache, Entity, Schema, SelectionQuery,
    SubjectiveDb, Value,
};

const SCALE: u8 = 5;

/// Everything observable about a step except wall-clock times (which can
/// never match across runs). Selection counters are compared without
/// `select_time` for the same reason.
type Fingerprint = (
    usize,                             // step
    usize,                             // group_size
    Vec<(u64, u64)>,                   // map keys' (dw_utility, utility) bits
    Vec<String>,                       // map keys rendered
    Vec<(SelectionQuery, u64, usize)>, // recommendations
    (usize, usize, usize),             // generator counters
    Materialization,                   // materialization paths
    (u64, u64, u64, u64, u64),         // selection counters sans time
    u64,                               // db epoch
);

fn sel_fp(s: &SelectionStats) -> (u64, u64, u64, u64, u64) {
    (
        s.exact_solves,
        s.pruned_mixture,
        s.pruned_matrix,
        s.cache_hits,
        s.previews_skipped,
    )
}

fn step_fp(r: &StepResult) -> Fingerprint {
    let bits: Vec<(u64, u64)> = r
        .maps
        .iter()
        .map(|m: &ScoredRatingMap| (m.dw_utility.to_bits(), m.utility.to_bits()))
        .collect();
    let keys: Vec<String> = r.maps.iter().map(|m| format!("{:?}", m.map.key)).collect();
    let recs: Vec<(SelectionQuery, u64, usize)> = r
        .recommendations
        .iter()
        .map(|rec: &Recommendation| (rec.query.clone(), rec.utility.to_bits(), rec.group_size))
        .collect();
    (
        r.step,
        r.group_size,
        bits,
        keys,
        recs,
        (
            r.stats.generator.candidates_total,
            r.stats.generator.pruned_ci,
            r.stats.generator.pruned_mab,
        ),
        r.stats.materialization,
        sel_fp(&r.stats.selection),
        r.stats.db_epoch,
    )
}

/// Runs the query path with a fresh distance cache and the given per-step
/// thread budget, fingerprinting every step.
fn run_path(
    db: &Arc<SubjectiveDb>,
    cfg: EngineConfig,
    queries: &[SelectionQuery],
    budget: usize,
) -> Vec<Fingerprint> {
    let mut e = SdeEngine::new(db.clone(), cfg);
    e.set_distance_cache(Some(Arc::new(DistanceCache::new(1 << 20))));
    e.set_thread_budget(budget);
    queries.iter().map(|q| step_fp(&e.step(q))).collect()
}

/// `0` is the default: one worker per available core.
const THREAD_GRID: [usize; 5] = [0, 1, 2, 4, 8];

/// The serial baseline every grid cell must match.
fn baseline(
    db: &Arc<SubjectiveDb>,
    cfg: EngineConfig,
    queries: &[SelectionQuery],
) -> Vec<Fingerprint> {
    let serial = EngineConfig { threads: 1, ..cfg };
    run_path(db, serial, queries, 0)
}

/// Asserts the full pool grid — every thread count, plus every thread
/// budget at the widest thread count — against the serial baseline.
fn assert_pool_grid_equal(db: &Arc<SubjectiveDb>, cfg: EngineConfig, queries: &[SelectionQuery]) {
    let expect = baseline(db, cfg, queries);
    for threads in THREAD_GRID {
        let pooled = EngineConfig { threads, ..cfg };
        assert_eq!(
            run_path(db, pooled, queries, 0),
            expect,
            "threads={threads} cfg={cfg:?}"
        );
    }
    for budget in THREAD_GRID {
        let pooled = EngineConfig { threads: 8, ..cfg };
        assert_eq!(
            run_path(db, pooled, queries, budget),
            expect,
            "thread_budget={budget} cfg={cfg:?}"
        );
    }
}

// ---- randomized databases (same shape as plan_equivalence.rs) ----------

#[derive(Debug, Clone)]
struct DbSpec {
    reviewer_attr: Vec<usize>,
    item_city: Vec<usize>,
    dims: usize,
    ratings: Vec<(u32, u32, Vec<u8>)>,
}

fn db_spec() -> impl Strategy<Value = DbSpec> {
    (3usize..9, 2usize..6, 1usize..=2)
        .prop_flat_map(|(n_reviewers, n_items, dims)| {
            (
                prop::collection::vec(0usize..3, n_reviewers),
                prop::collection::vec(0usize..3, n_items),
                Just(dims),
                prop::collection::vec(
                    (
                        0..n_reviewers as u32,
                        0..n_items as u32,
                        prop::collection::vec(1u8..=SCALE, dims),
                    ),
                    4..40,
                ),
            )
        })
        .prop_map(|(reviewer_attr, item_city, dims, mut ratings)| {
            let mut seen = std::collections::HashSet::new();
            ratings.retain(|&(r, i, _)| seen.insert((r, i)));
            DbSpec {
                reviewer_attr,
                item_city,
                dims,
                ratings,
            }
        })
}

fn build_db(spec: &DbSpec) -> Arc<SubjectiveDb> {
    let mut us = Schema::new();
    us.add("group", false);
    let mut ub = EntityTableBuilder::new(us);
    for &v in &spec.reviewer_attr {
        ub.push_row(vec![Cell::from(["a", "b", "c"][v])]);
    }
    let mut is = Schema::new();
    is.add("city", false);
    let mut ib = EntityTableBuilder::new(is);
    for &city in &spec.item_city {
        ib.push_row(vec![Cell::from(["NYC", "SF", "LA"][city])]);
    }
    let dim_names = (0..spec.dims).map(|d| format!("d{d}")).collect();
    let mut rb = subdex_store::ratings::RatingTableBuilder::new(dim_names, SCALE);
    for (r, i, scores) in &spec.ratings {
        rb.push(*r, *i, scores);
    }
    Arc::new(SubjectiveDb::new(
        ub.build(),
        ib.build(),
        rb.build(spec.reviewer_attr.len(), spec.item_city.len()),
    ))
}

fn candidate_preds(db: &SubjectiveDb) -> Vec<AttrValue> {
    let mut preds = Vec::new();
    for v in ["a", "b", "c"] {
        preds.extend(db.pred(Entity::Reviewer, "group", &Value::str(v)));
    }
    for v in ["NYC", "SF", "LA"] {
        preds.extend(db.pred(Entity::Item, "city", &Value::str(v)));
    }
    preds
}

/// A 3-step path: the root, one drill-down picked by the mask, the root
/// again (revisits make the distance cache and seen-context state matter).
fn query_path(db: &SubjectiveDb, pick: usize) -> Vec<SelectionQuery> {
    let preds = candidate_preds(db);
    let mut path = vec![SelectionQuery::all()];
    if !preds.is_empty() {
        path.push(SelectionQuery::from_preds(vec![preds[pick % preds.len()]]));
    }
    path.push(SelectionQuery::all());
    path
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Pool-executed steps equal the serial baseline across thread counts
    /// and thread budgets, over randomized databases and drill-down paths,
    /// under the full SubDEx preset.
    #[test]
    fn pooled_steps_equal_serial_across_threads_and_budgets(
        spec in db_spec(),
        pick in 0usize..16,
        seed in 0u64..100,
    ) {
        let db = build_db(&spec);
        let queries = query_path(&db, pick);
        let cfg = EngineConfig {
            seed,
            max_candidates: 8,
            ..EngineConfig::subdex()
        };
        assert_pool_grid_equal(&db, cfg, &queries);
    }

    /// The budget clamp composes with pruning the same way: a preset with
    /// both pruners on stays byte-identical across the grid.
    #[test]
    fn pooled_pruning_presets_stay_byte_identical(
        spec in db_spec(),
        pick in 0usize..16,
    ) {
        let db = build_db(&spec);
        let queries = query_path(&db, pick);
        for base in [EngineConfig::ci_pruning(), EngineConfig::mab_pruning()] {
            let cfg = EngineConfig {
                max_candidates: 8,
                ..base
            };
            assert_pool_grid_equal(&db, cfg, &queries);
        }
    }
}

/// Deterministic pin over a fixed database: the exhaustive corner the
/// proptests sample around, including a mid-path budget change (the
/// service re-budgets every step as workers come and go).
#[test]
fn pooled_fixed_db_grid_and_midpath_rebudget() {
    let spec = DbSpec {
        reviewer_attr: vec![0, 1, 2, 0, 1, 2, 0, 1],
        item_city: vec![0, 1, 2, 0],
        dims: 2,
        ratings: (0..8u32)
            .flat_map(|r| {
                (0..4u32).map(move |i| {
                    (
                        r,
                        i,
                        vec![1 + ((r + i) % 5) as u8, 1 + ((r * 3 + i) % 5) as u8],
                    )
                })
            })
            .collect(),
    };
    let db = build_db(&spec);
    let queries = query_path(&db, 1);
    let cfg = EngineConfig {
        max_candidates: 8,
        ..EngineConfig::subdex()
    };
    assert_pool_grid_equal(&db, cfg, &queries);

    // Re-budgeting between steps (as the service's busy-divided budget
    // does) must leave the path byte-identical too.
    let expect = baseline(&db, cfg, &queries);
    let pooled = EngineConfig { threads: 8, ..cfg };
    let mut e = SdeEngine::new(db.clone(), pooled);
    e.set_distance_cache(Some(Arc::new(DistanceCache::new(1 << 20))));
    let budgets = [4usize, 1, 2];
    let got: Vec<Fingerprint> = queries
        .iter()
        .zip(budgets.iter().cycle())
        .map(|(q, &b)| {
            e.set_thread_budget(b);
            step_fp(&e.step(q))
        })
        .collect();
    assert_eq!(got, expect, "mid-path re-budgeting changed results");
}
