//! Property tests pinning the plan executor byte-identical to the
//! pre-refactor monolithic `SdeEngine::step`.
//!
//! `LegacyEngine` below is a line-for-line replica of the engine's step
//! loop as it existed before the `core::plan` planner/executor split —
//! the hard-coded phase order, the unpooled scratch, the scattered result
//! fields. Over randomized databases and query paths, every engine
//! variant (the five Section 5.1 presets) × group-cache on/off ×
//! distance-cache on/off must produce bit-exact displayed maps,
//! recommendations, and counters through both paths.

use std::sync::Arc;

use proptest::prelude::*;
use proptest::strategy::Just;

use subdex_core::generator::{self, CriterionNormalizers, GenerateScratch, SeenContext};
use subdex_core::mapdist::DistanceEngine;
use subdex_core::ratingmap::ScoredRatingMap;
use subdex_core::recommend::{self, Materialization, Recommendation};
use subdex_core::selector::select_diverse_tracked;
use subdex_core::{EngineConfig, SdeEngine, SelectionStats, StepResult};
use subdex_store::{
    table::EntityTableBuilder, AttrValue, Cell, DistanceCache, Entity, GroupCache, GroupColumns,
    RatingGroup, Schema, SelectionQuery, SubjectiveDb, Value,
};

const SCALE: u8 = 5;

/// The engine's step loop exactly as it was before the planner/executor
/// refactor. Kept test-only; the production path is `SdeEngine::step`.
struct LegacyEngine {
    db: Arc<SubjectiveDb>,
    config: EngineConfig,
    seen: SeenContext,
    normalizers: CriterionNormalizers,
    step_counter: usize,
    group_cache: Option<Arc<GroupCache>>,
    dist_cache: Option<Arc<DistanceCache>>,
    scratch: GenerateScratch,
}

struct LegacyResult {
    step: usize,
    group_size: usize,
    maps: Vec<ScoredRatingMap>,
    recommendations: Vec<Recommendation>,
    generator_stats: (usize, usize, usize),
    materialization: Materialization,
    selection: SelectionStats,
    db_epoch: u64,
}

impl LegacyEngine {
    fn new(db: Arc<SubjectiveDb>, config: EngineConfig) -> Self {
        let dim_count = db.ratings().dim_count();
        Self {
            db,
            seen: SeenContext::new(dim_count),
            normalizers: CriterionNormalizers::new(config.normalizer),
            config,
            step_counter: 0,
            group_cache: None,
            dist_cache: None,
            scratch: GenerateScratch::new(),
        }
    }

    fn step(&mut self, query: &SelectionQuery) -> LegacyResult {
        let step = self.step_counter;
        self.step_counter += 1;

        let seed = self
            .config
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(step as u64);
        let mut materialization = Materialization::default();
        // Route accounting mirrors the production executor: the planner's
        // walk-vs-probe decision is part of the observable counters now.
        let count_route = |m: &mut Materialization, route| {
            if route == subdex_store::GroupRoute::Probe {
                m.probed += 1;
            } else {
                m.walked += 1;
            }
        };
        let parent_cols: Arc<GroupColumns> = match &self.group_cache {
            Some(cache) => {
                let mut computed = None;
                let arc = cache.get_or_insert_with(query, self.db.epoch(), || {
                    let (cols, route) = self.db.collect_group_columns_routed(query);
                    computed = Some(route);
                    cols
                });
                match computed {
                    Some(route) => count_route(&mut materialization, route),
                    None => materialization.cached += 1,
                }
                arc
            }
            None => {
                let (cols, route) = self.db.collect_group_columns_routed(query);
                count_route(&mut materialization, route);
                Arc::new(cols)
            }
        };
        let group = RatingGroup::from_columns(&parent_cols, seed);
        let gen_cfg = self.config.generator_config();
        let out = generator::generate_pooled(
            &self.db,
            &group,
            query,
            &self.seen,
            &mut self.normalizers,
            &gen_cfg,
            &mut self.scratch,
        );
        let (total, ci, mab) = (out.candidates_total, out.pruned_ci, out.pruned_mab);
        let pool_size = self
            .config
            .selection
            .pool_size(self.config.k, out.pool.len());
        let pool: Vec<ScoredRatingMap> = out
            .pool
            .into_iter()
            .take(pool_size.max(self.config.k))
            .collect();
        let dist_engine = DistanceEngine::new()
            .with_bounds(self.config.distance_bounds)
            .with_cache(self.dist_cache.clone())
            .with_threads(if self.config.parallel {
                self.config.threads
            } else {
                1
            });
        let (maps, mut selection) = select_diverse_tracked(
            pool.clone(),
            self.config.k,
            self.config.selection,
            &dist_engine,
        );

        for m in &maps {
            self.seen.record_displayed(&m.map);
        }

        let recommendations = if self.config.recommendations {
            let (recs, rec_stats, rec_sel) = recommend::recommend_with_stats(
                &self.db,
                query,
                &pool,
                &self.seen,
                &self.normalizers,
                &gen_cfg,
                &self.config.recommend_config(),
                seed,
                self.group_cache.as_deref(),
                Some(&parent_cols),
                Some(&dist_engine),
            );
            materialization.merge(&rec_stats);
            selection.merge(&rec_sel);
            recs
        } else {
            Vec::new()
        };

        LegacyResult {
            step,
            group_size: group.len(),
            maps,
            recommendations,
            generator_stats: (total, ci, mab),
            materialization,
            selection,
            db_epoch: self.db.epoch(),
        }
    }
}

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
    (u64, u64, u64, u64),              // selection counters sans time
    u64,                               // db epoch
);

fn map_bits(maps: &[ScoredRatingMap]) -> (Vec<(u64, u64)>, Vec<String>) {
    (
        maps.iter()
            .map(|m| (m.dw_utility.to_bits(), m.utility.to_bits()))
            .collect(),
        maps.iter().map(|m| format!("{:?}", m.map.key)).collect(),
    )
}

fn rec_fp(recs: &[Recommendation]) -> Vec<(SelectionQuery, u64, usize)> {
    recs.iter()
        .map(|r| (r.query.clone(), r.utility.to_bits(), r.group_size))
        .collect()
}

fn sel_fp(s: &SelectionStats) -> (u64, u64, u64, u64) {
    (
        s.exact_solves,
        s.pruned_mixture,
        s.pruned_matrix,
        s.cache_hits,
    )
}

fn legacy_fp(r: &LegacyResult) -> Fingerprint {
    let (bits, keys) = map_bits(&r.maps);
    (
        r.step,
        r.group_size,
        bits,
        keys,
        rec_fp(&r.recommendations),
        r.generator_stats,
        r.materialization,
        sel_fp(&r.selection),
        r.db_epoch,
    )
}

fn planned_fp(r: &StepResult) -> Fingerprint {
    let (bits, keys) = map_bits(&r.maps);
    (
        r.step,
        r.group_size,
        bits,
        keys,
        rec_fp(&r.recommendations),
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

/// Runs the same query path through both engines under the same caches
/// configuration and asserts bit-exact agreement at every step.
fn assert_paths_equal(
    db: &Arc<SubjectiveDb>,
    cfg: EngineConfig,
    queries: &[SelectionQuery],
    group_cache: bool,
    dist_cache: bool,
) {
    let run_legacy = || {
        let mut e = LegacyEngine::new(db.clone(), cfg);
        e.group_cache = group_cache.then(|| Arc::new(GroupCache::new(1 << 20)));
        e.dist_cache = dist_cache.then(|| Arc::new(DistanceCache::new(1 << 20)));
        queries
            .iter()
            .map(|q| legacy_fp(&e.step(q)))
            .collect::<Vec<_>>()
    };
    let run_planned = || {
        let mut e = SdeEngine::new(db.clone(), cfg);
        e.set_group_cache(group_cache.then(|| Arc::new(GroupCache::new(1 << 20))));
        e.set_distance_cache(dist_cache.then(|| Arc::new(DistanceCache::new(1 << 20))));
        queries
            .iter()
            .map(|q| planned_fp(&e.step(q)))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        run_planned(),
        run_legacy(),
        "group_cache={group_cache} dist_cache={dist_cache} cfg={cfg:?}"
    );
}

// ---- randomized databases (same shape as recommend_equivalence.rs) -----

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
/// again (revisits make the caches and seen-context state matter).
fn query_path(db: &SubjectiveDb, pick: usize) -> Vec<SelectionQuery> {
    let preds = candidate_preds(db);
    let mut path = vec![SelectionQuery::all()];
    if !preds.is_empty() {
        path.push(SelectionQuery::from_preds(vec![preds[pick % preds.len()]]));
    }
    path.push(SelectionQuery::all());
    path
}

fn presets() -> [EngineConfig; 5] {
    [
        EngineConfig::subdex(),
        EngineConfig::no_pruning(),
        EngineConfig::ci_pruning(),
        EngineConfig::mab_pruning(),
        EngineConfig::no_parallelism(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The planned path equals the legacy path on every preset, over
    /// randomized databases and drill-down paths, without caches.
    #[test]
    fn planned_equals_legacy_across_presets(
        spec in db_spec(),
        pick in 0usize..16,
        seed in 0u64..100,
    ) {
        let db = build_db(&spec);
        let queries = query_path(&db, pick);
        for mut cfg in presets() {
            cfg.seed = seed;
            cfg.max_candidates = 8;
            assert_paths_equal(&db, cfg, &queries, false, false);
        }
    }

    /// Cache configurations (group × distance) agree too: pooled scratch
    /// must not perturb cache hit/miss accounting or results.
    #[test]
    fn planned_equals_legacy_across_caches(
        spec in db_spec(),
        pick in 0usize..16,
    ) {
        let db = build_db(&spec);
        let queries = query_path(&db, pick);
        let cfg = EngineConfig {
            max_candidates: 8,
            ..EngineConfig::subdex()
        };
        for group_cache in [false, true] {
            for dist_cache in [false, true] {
                assert_paths_equal(&db, cfg, &queries, group_cache, dist_cache);
            }
        }
    }
}

/// Deterministic (non-property) pin: the naive preset and the
/// recommendations-off / diversity-only variants over a fixed database,
/// exercised with both caches on — the exhaustive corner the proptests
/// sample around.
#[test]
fn pinned_variants_on_fixed_db() {
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

    let mut variants = vec![EngineConfig::naive()];
    variants.push(EngineConfig {
        recommendations: false,
        ..EngineConfig::subdex()
    });
    variants.push(EngineConfig {
        selection: subdex_core::selector::SelectionStrategy::DiversityOnly,
        parallel: false,
        ..EngineConfig::subdex()
    });
    for cfg in variants {
        assert_paths_equal(&db, cfg, &queries, true, true);
    }
}
