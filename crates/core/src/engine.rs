//! The SDE engine (Section 4, Figure 4).
//!
//! [`SdeEngine`] wires the pieces of the architecture together. Per step it
//! materializes the rating group for the current selection, asks the
//! RM-Set generator for the diverse top-`k` rating maps, asks the
//! Recommendation Builder for the top-`o` next-step operations, and updates
//! the seen-context (dimension counts + global-peculiarity references).
//!
//! [`EngineConfig`] exposes every knob of the evaluation, with named
//! constructors for the scalability baselines of Section 5.1
//! (No-Pruning, CI Pruning, MAB Pruning, No-Parallelism, Naive).
//! [`EngineConfig::threads`] is the one worker-count setting: the
//! No-Parallelism and Naive baselines set it to 1. [`SdeEngine::step`]
//! resolves it once per step, under the session's thread budget, and
//! passes the resulting count to the generator and the recommendation
//! builder.

use crate::generator::{self, CriterionNormalizers, GeneratorConfig, SeenContext};
use crate::mapdist::DistanceEngine;
use crate::parallel::budget_threads;
use crate::plan::{ExecContext, GeneratorStats, StepStats};
use crate::pruning::PruningStrategy;
use crate::ratingmap::ScoredRatingMap;
use crate::recommend::{self, RecommendConfig, Recommendation};
use crate::selector::{select_diverse_with, SelectionStrategy};
use crate::utility::UtilityCombiner;
use std::sync::Arc;
use std::time::Instant;
use subdex_stats::normalize::NormalizerKind;
use subdex_store::{DistanceCache, RatingGroup, SelectionQuery, SubjectiveDb};

/// Full engine configuration (defaults follow Table 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Rating maps displayed per step (`k`, default 3).
    pub k: usize,
    /// Next-step recommendations per step (`o`, default 3).
    pub o: usize,
    /// Final-selection strategy. [`EngineConfig::selection`] defaults to
    /// `Hybrid { l: 3 }` (pruning-diversity factor `l`); override for the
    /// Table 5 utility-only / diversity-only variants.
    pub selection: SelectionStrategy,
    /// Phase count `n` (default 10, as in SeeDB).
    pub phases: usize,
    /// Hoeffding–Serfling error probability.
    pub delta: f64,
    /// Which pruning optimizations run.
    pub pruning: PruningStrategy,
    /// Worker threads for family scans and candidate evaluation (`0` = all
    /// cores, `1` = serial). Resolved once per step, under the session's
    /// thread budget.
    pub threads: usize,
    /// Criterion normalization family.
    pub normalizer: NormalizerKind,
    /// Criterion → utility aggregation (Max is the paper's; the rest are
    /// ablations).
    pub combiner: UtilityCombiner,
    /// Whether to compute next-step recommendations at all (User-Driven
    /// exploration does not need them).
    pub recommendations: bool,
    /// Apply dimension weighting (Equation 1); the Figure 9 ablation
    /// turns this off.
    pub dimension_weighting: bool,
    /// Distance backing the peculiarity criteria (TVD by default).
    pub peculiarity: crate::interest::PeculiarityMeasure,
    /// Cap on evaluated candidate operations per step.
    pub max_candidates: usize,
    /// Base RNG seed (phase shuffles are derived deterministically).
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            k: 3,
            o: 3,
            selection: SelectionStrategy::Hybrid { l: 3 },
            phases: 10,
            delta: 0.05,
            pruning: PruningStrategy::Both,
            threads: 0,
            normalizer: NormalizerKind::ZLogistic,
            combiner: UtilityCombiner::Max,
            recommendations: true,
            dimension_weighting: true,
            peculiarity: crate::interest::PeculiarityMeasure::TotalVariation,
            max_candidates: 48,
            seed: 0,
        }
    }
}

impl EngineConfig {
    /// The full SubDEx configuration (both prunings + parallelism).
    pub fn subdex() -> Self {
        Self::default()
    }

    /// Baseline (I): no pruning, parallelism kept.
    pub fn no_pruning() -> Self {
        Self {
            pruning: PruningStrategy::None,
            ..Self::subdex()
        }
    }

    /// Baseline (II): confidence-interval pruning only.
    pub fn ci_pruning() -> Self {
        Self {
            pruning: PruningStrategy::ConfidenceInterval,
            ..Self::subdex()
        }
    }

    /// Baseline (III): multi-armed-bandit pruning only.
    pub fn mab_pruning() -> Self {
        Self {
            pruning: PruningStrategy::Mab,
            ..Self::subdex()
        }
    }

    /// Baseline (IV): sequential recommendation builder and scans.
    pub fn no_parallelism() -> Self {
        Self {
            threads: 1,
            ..Self::subdex()
        }
    }

    /// Baseline (V): no pruning *and* no parallelism.
    pub fn naive() -> Self {
        Self {
            pruning: PruningStrategy::None,
            threads: 1,
            ..Self::subdex()
        }
    }

    /// Sets the pruning-diversity factor and keeps the selection strategy
    /// consistent (`l == 1` ⇒ utility-only).
    pub fn with_l(mut self, l: usize) -> Self {
        self.selection = if l <= 1 {
            SelectionStrategy::UtilityOnly
        } else {
            SelectionStrategy::Hybrid { l }
        };
        self
    }

    /// Compiles the generate-phase configuration this engine config
    /// implies (the `k′ = k·l` focus and the Diversity-Only pruning
    /// override). Public so the equivalence tests see the exact same
    /// derivation the engine uses.
    pub fn generator_config(&self) -> GeneratorConfig {
        let k_prime = match self.selection {
            SelectionStrategy::UtilityOnly => self.k,
            SelectionStrategy::Hybrid { l } => self.k * l.max(1),
            // Diversity-only needs every candidate: disable the top-k′
            // focus by making it unbounded.
            SelectionStrategy::DiversityOnly => usize::MAX / 2,
        };
        GeneratorConfig {
            k_prime,
            phases: self.phases,
            delta: self.delta,
            pruning: match self.selection {
                SelectionStrategy::DiversityOnly => PruningStrategy::None,
                _ => self.pruning,
            },
            combiner: self.combiner,
            use_dw: self.dimension_weighting,
            peculiarity: self.peculiarity,
        }
    }

    /// Compiles the recommendation-phase configuration this engine config
    /// implies. Public for the same reason as
    /// [`EngineConfig::generator_config`].
    pub fn recommend_config(&self) -> RecommendConfig {
        RecommendConfig {
            o: self.o,
            k: self.k,
            selection: self.selection,
            max_candidates: self.max_candidates,
        }
    }
}

/// Everything one exploration step produced.
#[derive(Debug, Clone)]
pub struct StepResult {
    /// Step index within the session (0-based).
    pub step: usize,
    /// The executed selection.
    pub query: SelectionQuery,
    /// Size of the selected rating group.
    pub group_size: usize,
    /// The displayed `k` diverse rating maps, by descending DW utility.
    pub maps: Vec<ScoredRatingMap>,
    /// The top-`o` next-step recommendations (empty when disabled).
    pub recommendations: Vec<Recommendation>,
    /// The step's unified statistics aggregate: total + per-phase wall
    /// time, generator counters, materialization and selection breakdowns,
    /// and the database epoch (see [`StepStats`]).
    pub stats: StepStats,
}

/// The SubDEx engine: owns the seen-context and normalizer state of one
/// exploration.
pub struct SdeEngine {
    db: Arc<SubjectiveDb>,
    config: EngineConfig,
    seen: SeenContext,
    normalizers: CriterionNormalizers,
    step_counter: usize,
    dist_cache: Option<Arc<DistanceCache>>,
    /// Pooled execution scratch reused across steps so steady-state steps
    /// allocate ~nothing on the hot path (see [`ExecContext`]).
    ctx: ExecContext,
}

impl SdeEngine {
    /// Creates an engine over a shared database.
    pub fn new(db: Arc<SubjectiveDb>, config: EngineConfig) -> Self {
        let dim_count = db.ratings().dim_count();
        Self {
            db,
            seen: SeenContext::new(dim_count),
            normalizers: CriterionNormalizers::new(config.normalizer),
            config,
            step_counter: 0,
            dist_cache: None,
            ctx: ExecContext::new(),
        }
    }

    /// Attaches a shared map-distance cache: every exact EMD the selection
    /// phase computes is memoized there and reused across steps and across
    /// engines sharing the cache. Selections are byte-identical with or
    /// without it — the cache stores exact canonical-order values.
    pub fn with_distance_cache(mut self, cache: Arc<DistanceCache>) -> Self {
        self.dist_cache = Some(cache);
        self
    }

    /// Attaches or detaches the shared map-distance cache in place.
    pub fn set_distance_cache(&mut self, cache: Option<Arc<DistanceCache>>) {
        self.dist_cache = cache;
    }

    /// Caps the worker threads every parallel phase of subsequent steps may
    /// use (`0` = uncapped). The service sets this per step from its
    /// oversubscription budget; results are byte-identical across budgets.
    pub fn set_thread_budget(&mut self, budget: usize) {
        self.ctx.set_thread_budget(budget);
    }

    /// The attached map-distance cache, if any.
    pub fn distance_cache(&self) -> Option<&Arc<DistanceCache>> {
        self.dist_cache.as_ref()
    }

    /// The underlying database.
    pub fn db(&self) -> &Arc<SubjectiveDb> {
        &self.db
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The current seen-context (dimension weights + references).
    pub fn seen(&self) -> &SeenContext {
        &self.seen
    }

    /// Steps executed so far.
    pub fn steps_taken(&self) -> usize {
        self.step_counter
    }

    /// Executes one exploration operation over this session's pooled
    /// [`ExecContext`]: materializes the rating group, generates and
    /// selects the `k` diverse rating maps, registers them as seen, and
    /// (unless disabled) computes the top-`o` recommendations.
    pub fn step(&mut self, query: &SelectionQuery) -> StepResult {
        let start = Instant::now();
        let step = self.step_counter;
        self.step_counter += 1;
        let config = &self.config;
        let ctx = &mut self.ctx;
        let seed = step_seed(config.seed, step);
        // The step's one worker-count resolution: the configured count,
        // clamped to the session's oversubscription budget (0 = uncapped).
        // Budgets change only scheduling, never results, because every
        // parallel phase merges in deterministic task-index order.
        let threads = budget_threads(config.threads, ctx.thread_budget);
        let gen_cfg = config.generator_config();
        let mut stats = StepStats::default();

        // Materialize. The step's pre-shuffle columns stay alive past the
        // group build: every add-predicate recommendation candidate
        // derives its group by filtering them instead of walking the index.
        let t = Instant::now();
        let cols = recommend::materialize(&self.db, query, None, &mut stats.materialization);
        stats.phases.scan_groups = t.elapsed();

        // Generate. CI and MAB pruning run inside the phase-scan loop: a
        // pruned candidate must stop scanning mid-run (Algorithm 3).
        let (group_size, out) = {
            let group = RatingGroup::from_columns(&cols, seed);
            let t = Instant::now();
            let out = generator::generate_pooled(
                &self.db,
                &group,
                query,
                &self.seen,
                &mut self.normalizers,
                &gen_cfg,
                threads,
                &mut ctx.generate,
            );
            stats.phases.generate = t.elapsed();
            (group.len(), out)
        };
        stats.phases.scan = out.scan_time;
        stats.generator = GeneratorStats {
            candidates_total: out.candidates_total,
            pruned_ci: out.pruned_ci,
            pruned_mab: out.pruned_mab,
        };
        let pool_size = config.selection.pool_size(config.k, out.pool.len());
        let mut pool: Vec<ScoredRatingMap> =
            out.pool.into_iter().take(pool_size.max(config.k)).collect();

        // Select. The pool outlives selection only when recommendations
        // will anchor candidates on it.
        let dist_engine = DistanceEngine::new().with_cache(self.dist_cache.clone());
        let select_pool = if config.recommendations {
            pool.clone()
        } else {
            std::mem::take(&mut pool)
        };
        let (maps, sel) = select_diverse_with(
            select_pool,
            config.k,
            config.selection,
            &dist_engine,
            &mut ctx.select,
        );
        stats.phases.select = sel.select_time;
        stats.selection.merge(&sel);
        for m in &maps {
            self.seen.record_displayed(&m.map);
        }

        // Recommend. Candidate operations are anchored on the *pool* (the
        // top k·l maps by DW utility), not only the k displayed ones: the
        // pool is exactly where high-peculiarity pockets that narrowly
        // missed display live, and the paper's candidate space ("q may add
        // a new attribute-value pair") is not limited to displayed maps
        // either.
        let mut recommendations = Vec::new();
        if config.recommendations {
            let t = Instant::now();
            let (recs, rec_stats, rec_sel) = recommend::recommend(
                &self.db,
                query,
                &pool,
                &self.seen,
                &self.normalizers,
                &gen_cfg,
                &config.recommend_config(),
                threads,
                seed,
                Some(&cols),
                Some(&dist_engine),
                &mut ctx.recommend,
            );
            stats.phases.recommend = t.elapsed();
            stats.materialization.merge(&rec_stats);
            stats.selection.merge(&rec_sel);
            recommendations = recs;
        }

        stats.db_epoch = self.db.epoch();
        stats.elapsed = start.elapsed();
        StepResult {
            step,
            query: query.clone(),
            group_size,
            maps,
            recommendations,
            stats,
        }
    }
}

/// The deterministic rating-group shuffle seed of step number `step`.
fn step_seed(base_seed: u64, step: usize) -> u64 {
    base_seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(step as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use subdex_store::{Cell, Entity, EntityTableBuilder, RatingTableBuilder, Schema, Value};

    fn db() -> Arc<SubjectiveDb> {
        let mut us = Schema::new();
        us.add("gender", false);
        us.add("age", false);
        let mut ub = EntityTableBuilder::new(us);
        for i in 0..10 {
            ub.push_row(vec![
                Cell::from(if i % 2 == 0 { "F" } else { "M" }),
                Cell::from(["young", "old"][i % 2]),
            ]);
        }
        let mut is = Schema::new();
        is.add("city", false);
        let mut ib = EntityTableBuilder::new(is);
        for i in 0..4 {
            ib.push_row(vec![Cell::from(if i < 2 { "NYC" } else { "SF" })]);
        }
        let mut rb = RatingTableBuilder::new(vec!["overall".into(), "food".into()], 5);
        for r in 0..10u32 {
            for i in 0..4u32 {
                rb.push(
                    r,
                    i,
                    &[1 + ((r + i) % 5) as u8, 1 + ((r * 3 + i) % 5) as u8],
                );
            }
        }
        Arc::new(SubjectiveDb::new(ub.build(), ib.build(), rb.build(10, 4)))
    }

    #[test]
    fn step_produces_k_maps_and_o_recommendations() {
        let mut engine = SdeEngine::new(db(), EngineConfig::default());
        let res = engine.step(&SelectionQuery::all());
        assert_eq!(res.step, 0);
        assert_eq!(res.group_size, 40);
        assert_eq!(res.maps.len(), 3);
        assert!(!res.recommendations.is_empty() && res.recommendations.len() <= 3);
        assert_eq!(engine.steps_taken(), 1);
        assert_eq!(engine.seen().total_displayed(), 3);
    }

    #[test]
    fn recommendations_can_be_disabled() {
        let cfg = EngineConfig {
            recommendations: false,
            ..EngineConfig::default()
        };
        let mut engine = SdeEngine::new(db(), cfg);
        let res = engine.step(&SelectionQuery::all());
        assert!(res.recommendations.is_empty());
        assert_eq!(res.maps.len(), 3);
    }

    #[test]
    fn steps_are_deterministic_across_engines() {
        let run = || {
            let cfg = EngineConfig {
                threads: 1,
                ..EngineConfig::default()
            };
            let mut engine = SdeEngine::new(db(), cfg);
            let r1 = engine.step(&SelectionQuery::all());
            let keys: Vec<_> = r1.maps.iter().map(|m| m.map.key).collect();
            let recs: Vec<_> = r1.recommendations.iter().map(|r| r.query.clone()).collect();
            (keys, recs)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn parallel_variants_are_byte_identical() {
        let db = db();
        let queries = [
            SelectionQuery::all(),
            SelectionQuery::from_preds(vec![db
                .pred(Entity::Item, "city", &Value::str("SF"))
                .unwrap()]),
            // A two-sided query: its group walk can be driven from either
            // entity side, so this pins the walk-order canonicalization
            // (ascending record id regardless of driving side).
            SelectionQuery::from_preds(vec![
                db.pred(Entity::Reviewer, "gender", &Value::str("F"))
                    .unwrap(),
                db.pred(Entity::Item, "city", &Value::str("NYC")).unwrap(),
            ]),
            SelectionQuery::all(),
        ];
        let run = |threads: usize, cache: bool| {
            let cfg = EngineConfig {
                threads,
                ..EngineConfig::default()
            };
            let mut engine = SdeEngine::new(db.clone(), cfg);
            engine.set_distance_cache(cache.then(|| Arc::new(DistanceCache::new(1 << 20))));
            queries
                .iter()
                .map(|q| {
                    let r = engine.step(q);
                    let keys: Vec<_> = r.maps.iter().map(|m| m.map.key).collect();
                    let utils: Vec<_> = r.maps.iter().map(|m| m.dw_utility.to_bits()).collect();
                    let recs: Vec<_> = r.recommendations.iter().map(|x| x.query.clone()).collect();
                    let s = r.stats.selection;
                    let sel = (s.exact_solves, s.cache_hits, s.pruned(), s.previews_skipped);
                    (
                        r.group_size,
                        keys,
                        utils,
                        recs,
                        r.stats.materialization,
                        sel,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(4, false), run(1, false));
        // With a cache attached, which pairs are solved and which are hit
        // must not depend on how the previews were scheduled either. A
        // schedule race shows on some runs only, so each count runs often.
        let serial = run(1, true);
        assert!(serial.iter().any(|step| step.5 .1 > 0), "{serial:?}");
        for _ in 0..20 {
            for threads in [2, 8] {
                assert_eq!(run(threads, true), serial, "threads={threads}");
            }
        }
    }

    #[test]
    fn step_reports_materialization_paths() {
        let db = db();
        let cfg = EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        };
        // The stepped group comes from the index, every add-predicate
        // candidate is derived from it, and nothing is served from another
        // session.
        let mut engine = SdeEngine::new(db, cfg);
        let r = engine.step(&SelectionQuery::all());
        let m = r.stats.materialization;
        assert!(m.walked >= 1, "{m:?}");
        assert!(m.derived > 0, "drill-down candidates derive: {m:?}");
        assert_eq!(m.records_filtered, m.derived * r.group_size as u64, "{m:?}");
        assert_eq!(m.cached, 0, "{m:?}");
    }

    #[test]
    fn step_reports_selection_breakdown() {
        let db = db();
        let cfg = EngineConfig {
            threads: 1,
            selection: SelectionStrategy::DiversityOnly,
            ..EngineConfig::default()
        };
        let mut engine = SdeEngine::new(db, cfg);
        let r = engine.step(&SelectionQuery::all());
        let s = r.stats.selection;
        assert!(s.exact_solves > 0, "{s:?}");
        assert!(s.evaluations() >= s.exact_solves);
        assert!(s.select_time > std::time::Duration::ZERO);
        // `stats.selection` also merges the recommendation candidates'
        // preview selections, so the displayed-maps phase is a lower bound.
        assert!(r.stats.phases.select <= s.select_time);
        assert!(r.stats.elapsed >= r.stats.phases.select);
    }

    #[test]
    fn recommendation_step_skips_previews_that_cannot_rank() {
        let cfg = EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        };
        let mut engine = SdeEngine::new(db(), cfg);
        let r = engine.step(&SelectionQuery::all());
        // More candidates than `o`, and some whose utility bounds fall
        // below the third-best lower bound: their previews never run.
        assert_eq!(r.recommendations.len(), 3);
        let s = r.stats.selection;
        assert!(s.previews_skipped > 0, "{s:?}");
    }

    #[test]
    fn shared_distance_cache_replays_byte_identically() {
        use subdex_store::DistanceCache;
        let db = db();
        let cfg = EngineConfig {
            threads: 1,
            selection: SelectionStrategy::DiversityOnly,
            ..EngineConfig::default()
        };
        let fingerprint = |r: &StepResult| {
            let keys: Vec<_> = r.maps.iter().map(|m| m.map.key).collect();
            let utils: Vec<_> = r.maps.iter().map(|m| m.dw_utility.to_bits()).collect();
            let recs: Vec<_> = r.recommendations.iter().map(|x| x.query.clone()).collect();
            (r.group_size, keys, utils, recs)
        };

        let mut plain = SdeEngine::new(db.clone(), cfg);
        let reference = fingerprint(&plain.step(&SelectionQuery::all()));

        let cache = Arc::new(DistanceCache::new(1 << 20));
        let mut cold = SdeEngine::new(db.clone(), cfg);
        cold.set_distance_cache(Some(cache.clone()));
        let cold_step = cold.step(&SelectionQuery::all());
        assert_eq!(fingerprint(&cold_step), reference);
        assert!(cold_step.stats.selection.exact_solves > 0);
        assert!(!cache.is_empty(), "cold step must populate the cache");

        // A sibling engine sharing the cache replays the identical step
        // with every distance served warm.
        let mut warm = SdeEngine::new(db, cfg);
        warm.set_distance_cache(Some(cache));
        let warm_step = warm.step(&SelectionQuery::all());
        assert_eq!(fingerprint(&warm_step), reference);
        assert_eq!(
            warm_step.stats.selection.exact_solves, 0,
            "{:?}",
            warm_step.stats.selection
        );
        assert!(warm_step.stats.selection.cache_hits > 0);
    }

    #[test]
    fn baseline_constructors() {
        assert_eq!(EngineConfig::no_pruning().pruning, PruningStrategy::None);
        assert_eq!(EngineConfig::no_pruning().threads, 0);
        assert_eq!(EngineConfig::naive().pruning, PruningStrategy::None);
        assert_eq!(EngineConfig::naive().threads, 1);
        assert_eq!(EngineConfig::no_parallelism().threads, 1);
        assert_eq!(
            EngineConfig::no_parallelism().pruning,
            PruningStrategy::Both
        );
        assert_eq!(
            EngineConfig::ci_pruning().pruning,
            PruningStrategy::ConfidenceInterval
        );
        assert_eq!(EngineConfig::mab_pruning().pruning, PruningStrategy::Mab);
    }

    #[test]
    fn presets_differ_from_subdex_only_in_documented_fields() {
        // Every preset must be expressible as subdex() plus its documented
        // deltas — so a field added to EngineConfig later cannot silently
        // diverge across presets.
        let base = EngineConfig::subdex();
        assert_eq!(
            EngineConfig::no_pruning(),
            EngineConfig {
                pruning: PruningStrategy::None,
                ..base
            }
        );
        assert_eq!(
            EngineConfig::ci_pruning(),
            EngineConfig {
                pruning: PruningStrategy::ConfidenceInterval,
                ..base
            }
        );
        assert_eq!(
            EngineConfig::mab_pruning(),
            EngineConfig {
                pruning: PruningStrategy::Mab,
                ..base
            }
        );
        assert_eq!(
            EngineConfig::no_parallelism(),
            EngineConfig { threads: 1, ..base }
        );
        assert_eq!(
            EngineConfig::naive(),
            EngineConfig {
                pruning: PruningStrategy::None,
                threads: 1,
                ..base
            }
        );
    }

    #[test]
    fn diversity_only_compiles_without_pruning() {
        // Diversity-Only needs every candidate: no pruning, no top-k′ focus.
        let cfg = EngineConfig {
            selection: SelectionStrategy::DiversityOnly,
            ..EngineConfig::subdex()
        };
        let gen = cfg.generator_config();
        assert_eq!(gen.pruning, PruningStrategy::None);
        assert_eq!(gen.k_prime, usize::MAX / 2);
        assert_eq!(
            EngineConfig::subdex().generator_config().pruning,
            PruningStrategy::Both
        );
    }

    #[test]
    fn step_seed_matches_documented_derivation() {
        assert_eq!(
            step_seed(7, 3),
            7u64.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(3)
        );
    }

    #[test]
    fn with_l_adjusts_selection() {
        let c1 = EngineConfig::default().with_l(1);
        assert_eq!(c1.selection, SelectionStrategy::UtilityOnly);
        let c4 = EngineConfig::default().with_l(4);
        assert_eq!(c4.selection, SelectionStrategy::Hybrid { l: 4 });
    }

    #[test]
    fn drill_down_step_narrows_group() {
        let db = db();
        let mut engine = SdeEngine::new(db.clone(), EngineConfig::default());
        let all = engine.step(&SelectionQuery::all());
        let nyc = db.pred(Entity::Item, "city", &Value::str("NYC")).unwrap();
        let narrowed = engine.step(&SelectionQuery::from_preds(vec![nyc]));
        assert!(narrowed.group_size < all.group_size);
        assert!(narrowed.maps.iter().all(|m| {
            // The pinned attribute never appears as a grouping attribute.
            !(m.map.key.entity == Entity::Item
                && m.map.key.attr == db.items().schema().attr_by_name("city").unwrap())
        }));
    }

    #[test]
    fn dimension_balance_emerges_over_steps() {
        // With DW weighting, both dimensions should be displayed over a
        // few steps rather than one dominating.
        let mut engine = SdeEngine::new(db(), EngineConfig::default());
        for _ in 0..4 {
            engine.step(&SelectionQuery::all());
        }
        let w = engine.seen().weights();
        let d0 = w.seen_for(subdex_store::DimId(0));
        let d1 = w.seen_for(subdex_store::DimId(1));
        assert!(d0 > 0 && d1 > 0, "both dims shown: {d0} vs {d1}");
    }
}
