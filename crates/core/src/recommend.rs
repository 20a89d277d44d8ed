//! The Recommendation Builder (Section 4.3) and Problem 2.
//!
//! Candidate next-step operations are *small adjustments* to the current
//! query: they differ in at most one added attribute–value pair plus at most
//! one removed-or-changed existing pair (matching the paper's examples).
//! Additions are *anchored* on the displayed rating maps — drilling into a
//! map's extreme subgroups is precisely the adjustment the maps invite —
//! while removals are the roll-up operations the drill-down-only baselines
//! (SDD, QAGView) cannot express.
//!
//! Each candidate's utility (Equation 2) is the sum of DW utilities of the
//! `k` rating maps it would lead to, so ranking operations and
//! recommending visualizations share one computation. Candidates are
//! evaluated concurrently, up to the number of available cores.

use crate::generator::{self, CriterionNormalizers, GenerateScratch, GeneratorConfig, SeenContext};
use crate::mapdist::{DistanceEngine, SelectionStats};
use crate::ratingmap::ScoredRatingMap;
use crate::selector::{select_diverse_with, SelectScratch, SelectionStrategy};
use std::collections::HashSet;
use subdex_store::{
    AttrValue, Entity, GroupCache, GroupColumns, GroupRoute, RatingGroup, SelectionQuery,
    SubjectiveDb,
};

/// One recommended next-step operation.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// The recommended query.
    pub query: SelectionQuery,
    /// Its utility `u(q, RM)` — the summed DW utility of the maps it
    /// yields (Equation 2).
    pub utility: f64,
    /// Size of the rating group the operation selects.
    pub group_size: usize,
    /// The `k` maps the operation would display (reused by the
    /// Fully-Automated mode so the next step needs no recomputation).
    pub maps: Vec<ScoredRatingMap>,
}

/// How candidate rating groups were materialized during one recommendation
/// (or engine-step) pass. `derived + walked + probed + cached +
/// skipped_empty` equals the number of groups the pass needed;
/// `records_filtered` counts ancestor rows the derivation path scanned
/// instead of re-walking the database.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Materialization {
    /// Groups built by filtering an ancestor's gathered columns (one linear
    /// pass over ancestor rows; no adjacency walk, no re-gather).
    pub derived: u64,
    /// Groups built by the adjacency walk + column gather
    /// ([`GroupRoute::Walk`] / [`GroupRoute::Full`]).
    pub walked: u64,
    /// Groups built by the index-driven rating-column probe
    /// ([`GroupRoute::Probe`]).
    pub probed: u64,
    /// Groups served straight from the shared [`GroupCache`].
    pub cached: u64,
    /// Candidates skipped *before* any materialization because their index
    /// cardinality upper bound was zero.
    pub skipped_empty: u64,
    /// Ancestor rows examined by the derivation passes.
    pub records_filtered: u64,
}

impl Materialization {
    /// Accumulates another pass's counters into this one.
    pub fn merge(&mut self, other: &Self) {
        self.derived += other.derived;
        self.walked += other.walked;
        self.probed += other.probed;
        self.cached += other.cached;
        self.skipped_empty += other.skipped_empty;
        self.records_filtered += other.records_filtered;
    }

    /// Total groups materialized (any path) plus skipped candidates.
    pub fn total(&self) -> u64 {
        self.derived + self.walked + self.probed + self.cached + self.skipped_empty
    }
}

/// One evaluation worker's reusable buffers: the generator's scratch and a
/// diverse-selection scratch. Each candidate a worker evaluates runs the
/// full generate → select pipeline over these.
#[derive(Debug, Default)]
pub struct EvalScratch {
    generate: GenerateScratch,
    select: SelectScratch,
}

impl EvalScratch {
    /// Heap bytes currently held across the worker's pooled buffers.
    pub fn resident_bytes(&self) -> usize {
        self.generate.resident_bytes() + self.select.resident_bytes()
    }

    /// Heap bytes the worker's most recent evaluation actually needed.
    pub fn used_bytes(&self) -> usize {
        self.generate.used_bytes() + self.select.used_bytes()
    }

    /// Releases all retained capacity.
    pub fn shrink(&mut self) {
        self.generate.shrink();
        self.select.shrink();
    }
}

/// Reusable buffers for one recommendation pass: the candidate-query
/// vector plus one [`EvalScratch`] per evaluation worker. Pooled inside
/// [`crate::plan::ExecContext`] so a session's steps 2..n re-use the
/// grown-to-size buffers; the worker vector is sized lazily to the thread
/// count actually used.
#[derive(Debug, Default)]
pub struct RecommendScratch {
    workers: Vec<EvalScratch>,
    candidates: Vec<SelectionQuery>,
}

impl RecommendScratch {
    /// Heap bytes currently held across all workers' pooled buffers (the
    /// candidate-query vector is counted by slot; per-query predicate heap
    /// is negligible next to the evaluation buffers).
    pub fn resident_bytes(&self) -> usize {
        self.workers.capacity() * std::mem::size_of::<EvalScratch>()
            + self
                .workers
                .iter()
                .map(EvalScratch::resident_bytes)
                .sum::<usize>()
            + self.candidates.capacity() * std::mem::size_of::<SelectionQuery>()
    }

    /// Heap bytes the most recent pass actually needed (length, not
    /// capacity) — the demand signal of the executor's high-water trim.
    pub fn used_bytes(&self) -> usize {
        self.workers.len() * std::mem::size_of::<EvalScratch>()
            + self
                .workers
                .iter()
                .map(EvalScratch::used_bytes)
                .sum::<usize>()
            + self.candidates.len() * std::mem::size_of::<SelectionQuery>()
    }

    /// Releases all retained capacity (the high-water shrink hook; see
    /// `ExecContext` in the plan module).
    pub fn shrink(&mut self) {
        self.workers = Vec::new();
        self.candidates = Vec::new();
    }
}

/// Candidate-enumeration and evaluation knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecommendConfig {
    /// How many recommendations to return (`o`).
    pub o: usize,
    /// Number of rating maps per step (`k`).
    pub k: usize,
    /// Final-selection strategy (utility-only / GMM hybrid / diversity-only).
    pub selection: SelectionStrategy,
    /// Hard cap on evaluated candidates.
    pub max_candidates: usize,
    /// Alternative values tried per changed predicate.
    pub change_fanout: usize,
    /// Evaluate candidates on multiple threads.
    pub parallel: bool,
    /// Worker threads (`0` = all cores).
    pub threads: usize,
    /// Derive add-predicate candidate groups from the parent's columns
    /// instead of re-walking the database (results are byte-identical
    /// either way; disable only to measure the walk path).
    pub derive_candidates: bool,
}

impl Default for RecommendConfig {
    fn default() -> Self {
        Self {
            o: 3,
            k: 3,
            selection: SelectionStrategy::Hybrid { l: 3 },
            max_candidates: 48,
            change_fanout: 2,
            parallel: true,
            threads: 0,
            derive_candidates: true,
        }
    }
}

/// Enumerates candidate operations for `query` given the displayed maps.
///
/// Edit grammar (diffs vs. `query`): `{add}`, `{remove}`, `{change}`,
/// `{add, remove}`, `{add, change}` — at most one addition and at most one
/// removal-or-change, mirroring Section 4.3. Duplicates and the identity
/// operation are dropped; the list is capped at `max_candidates` with
/// single-edit operations prioritized.
pub fn enumerate_candidates(
    db: &SubjectiveDb,
    query: &SelectionQuery,
    displayed: &[ScoredRatingMap],
    cfg: &RecommendConfig,
) -> Vec<SelectionQuery> {
    let mut out = Vec::new();
    enumerate_candidates_into(db, query, displayed, cfg, &mut out);
    out
}

/// [`enumerate_candidates`] into a caller-pooled vector (cleared first).
pub fn enumerate_candidates_into(
    db: &SubjectiveDb,
    query: &SelectionQuery,
    displayed: &[ScoredRatingMap],
    cfg: &RecommendConfig,
    out: &mut Vec<SelectionQuery>,
) {
    out.clear();
    // Additions: drill into extreme subgroups of each displayed map.
    let mut adds: Vec<AttrValue> = Vec::new();
    for sm in displayed {
        let key = sm.map.key;
        for sg in [sm.map.top_subgroup(), sm.map.bottom_subgroup()]
            .into_iter()
            .flatten()
        {
            let p = AttrValue::new(key.entity, key.attr, sg.value);
            if !query.contains(&p) && !adds.contains(&p) {
                adds.push(p);
            }
        }
    }

    // Removals: any existing predicate (roll-up).
    let removes: Vec<AttrValue> = query.preds().to_vec();

    // Changes: swap a predicate's value for the most selective siblings.
    let mut changes: Vec<(AttrValue, subdex_store::ValueId)> = Vec::new();
    for p in query.preds() {
        let index = db.index(p.entity);
        let mut siblings: Vec<(usize, subdex_store::ValueId)> = db
            .values_of(p.entity, p.attr)
            .into_iter()
            .filter(|&v| v != p.value)
            .map(|v| (index.cardinality(p.attr, v), v))
            .filter(|&(n, _)| n > 0)
            .collect();
        siblings.sort_by_key(|&(n, _)| std::cmp::Reverse(n));
        for (_, v) in siblings.into_iter().take(cfg.change_fanout) {
            changes.push((*p, v));
        }
    }

    // Build per-kind lists, then interleave under the cap so every
    // operation class survives: a budget spent entirely on drill-downs
    // could never recommend the roll-ups SubDEx is distinguished by
    // (Table 4's whole point). Deduplication is hash-based throughout:
    // combo enumeration is quadratic in the edit lists, so linear scans
    // here would make the whole enumeration O(n²) in the candidate count.
    let mut drill: Vec<SelectionQuery> = Vec::new();
    let mut rollup: Vec<SelectionQuery> = Vec::new();
    let mut change_ops: Vec<SelectionQuery> = Vec::new();
    let mut combos: Vec<SelectionQuery> = Vec::new();
    let mut per_kind_seen: [HashSet<SelectionQuery>; 4] = Default::default();
    let push =
        |q: SelectionQuery, out: &mut Vec<SelectionQuery>, seen: &mut HashSet<SelectionQuery>| {
            if &q != query && seen.insert(q.clone()) {
                out.push(q);
            }
        };

    let [seen_drill, seen_rollup, seen_change, seen_combo] = &mut per_kind_seen;
    for &a in &adds {
        push(query.with_added(a), &mut drill, seen_drill);
    }
    for r in &removes {
        push(query.with_removed(r), &mut rollup, seen_rollup);
    }
    for (p, v) in &changes {
        if let Some(q) = query.with_changed(p.entity, p.attr, *v) {
            push(q, &mut change_ops, seen_change);
        }
    }
    'outer: for &a in &adds {
        for r in &removes {
            if r.entity == a.entity && r.attr == a.attr {
                continue; // that combination is a change, handled above
            }
            push(query.with_removed(r).with_added(a), &mut combos, seen_combo);
            if combos.len() >= cfg.max_candidates {
                break 'outer;
            }
        }
        for (p, v) in &changes {
            if p.entity == a.entity && p.attr == a.attr {
                continue;
            }
            if let Some(q) = query.with_changed(p.entity, p.attr, *v) {
                push(q.with_added(a), &mut combos, seen_combo);
            }
            if combos.len() >= cfg.max_candidates {
                break 'outer;
            }
        }
    }

    // Round-robin across kinds until the cap: drill-downs, roll-ups,
    // changes, then combinations.
    let mut emitted: HashSet<SelectionQuery> = HashSet::new();
    let mut lists = [
        drill.into_iter(),
        rollup.into_iter(),
        change_ops.into_iter(),
        combos.into_iter(),
    ];
    let mut exhausted = false;
    while out.len() < cfg.max_candidates && !exhausted {
        exhausted = true;
        for list in &mut lists {
            if out.len() >= cfg.max_candidates {
                break;
            }
            if let Some(q) = list.next() {
                exhausted = false;
                if emitted.insert(q.clone()) {
                    out.push(q);
                }
            }
        }
    }
}

/// Evaluates candidates and returns the top-`o` recommendations
/// (Problem 2). Candidates run concurrently when `cfg.parallel` — the
/// engine-level "recommendation builder in parallel" optimization whose
/// absence is the paper's *No-Parallelism* baseline.
///
/// When `cache` is given, candidate rating groups are looked up in the
/// shared [`GroupCache`] first; candidate queries recur heavily across
/// sessions (everyone exploring the same region is offered the same
/// drill-downs), which is where the cache earns most of its hits.
///
/// Thin wrapper over [`recommend_with_stats`] for callers that have no
/// parent columns at hand and do not need materialization counters.
#[allow(clippy::too_many_arguments)]
pub fn recommend(
    db: &SubjectiveDb,
    query: &SelectionQuery,
    displayed: &[ScoredRatingMap],
    seen: &SeenContext,
    normalizers: &CriterionNormalizers,
    gen_cfg: &GeneratorConfig,
    cfg: &RecommendConfig,
    seed: u64,
    cache: Option<&GroupCache>,
) -> Vec<Recommendation> {
    recommend_with_stats(
        db,
        query,
        displayed,
        seen,
        normalizers,
        gen_cfg,
        cfg,
        seed,
        cache,
        None,
        None,
    )
    .0
}

/// [`recommend`] with the parent query's gathered columns and
/// materialization accounting.
///
/// `parent` must be the pre-shuffle [`GroupColumns`] of `query` itself (the
/// engine has them from the step's own group materialization). When given
/// and `cfg.derive_candidates` is set, every pure add-predicate candidate
/// is *derived* — one linear filter over the parent rows — instead of
/// re-walking the database; derived columns are inserted into `cache` so
/// sibling sessions benefit. Candidates whose index cardinality upper bound
/// (min posting-list size over their predicates) is zero are skipped before
/// any materialization. Output is byte-identical to the walk path for every
/// `(query, seed)` — that contract is what lets derived entries share the
/// cache.
///
/// `dist` configures the [`DistanceEngine`] behind each candidate's
/// diverse-selection preview; candidates already run one per worker thread,
/// so the engine is forced serial per candidate ([`DistanceEngine::serial`])
/// to avoid nested thread pools, while keeping its bounds and shared cache.
/// The returned [`SelectionStats`] aggregate those previews.
#[allow(clippy::too_many_arguments)]
pub fn recommend_with_stats(
    db: &SubjectiveDb,
    query: &SelectionQuery,
    displayed: &[ScoredRatingMap],
    seen: &SeenContext,
    normalizers: &CriterionNormalizers,
    gen_cfg: &GeneratorConfig,
    cfg: &RecommendConfig,
    seed: u64,
    cache: Option<&GroupCache>,
    parent: Option<&GroupColumns>,
    dist: Option<&DistanceEngine>,
) -> (Vec<Recommendation>, Materialization, SelectionStats) {
    recommend_with_stats_in(
        db,
        query,
        displayed,
        seen,
        normalizers,
        gen_cfg,
        cfg,
        seed,
        cache,
        parent,
        dist,
        &mut RecommendScratch::default(),
    )
}

/// [`recommend_with_stats`] over a caller-pooled [`RecommendScratch`]:
/// candidate vectors, per-worker gather buffers, and per-worker selection
/// scratch are re-used across calls instead of reallocated. Output is
/// byte-identical to the allocating path — the scratch recycles
/// containers, never values.
#[allow(clippy::too_many_arguments)]
pub fn recommend_with_stats_in(
    db: &SubjectiveDb,
    query: &SelectionQuery,
    displayed: &[ScoredRatingMap],
    seen: &SeenContext,
    normalizers: &CriterionNormalizers,
    gen_cfg: &GeneratorConfig,
    cfg: &RecommendConfig,
    seed: u64,
    cache: Option<&GroupCache>,
    parent: Option<&GroupColumns>,
    dist: Option<&DistanceEngine>,
    scratch: &mut RecommendScratch,
) -> (Vec<Recommendation>, Materialization, SelectionStats) {
    let RecommendScratch {
        workers,
        candidates,
    } = scratch;
    enumerate_candidates_into(db, query, displayed, cfg, candidates);
    if candidates.is_empty() {
        return (
            Vec::new(),
            Materialization::default(),
            SelectionStats::default(),
        );
    }

    // Each candidate is evaluated inside an (optionally) already-parallel
    // worker, so the per-candidate selection runs the engine serially while
    // keeping its bounds setting and shared cache.
    let dist_engine = match dist {
        Some(engine) => engine.serial(),
        None => DistanceEngine::new(),
    };
    let dist_engine = &dist_engine;

    // Likewise the generator: when the fan-out gives every pool worker a
    // candidate, a parallel phase scan inside each would only re-enter the
    // pool once per phase. Chunk merges are exact, so the serial scan
    // produces the same bits. Fewer candidates than workers (a lone
    // candidate included) or a serial recommender leave cores idle, so the
    // generator keeps its own parallelism there.
    let threads = crate::parallel::resolve_threads(cfg.threads);
    let fan_out = cfg.parallel && threads > 1 && candidates.len() > 1;
    let gen_cfg = &GeneratorConfig {
        parallel: gen_cfg.parallel && !(fan_out && candidates.len() >= threads),
        ..*gen_cfg
    };

    let evaluate = |q: &SelectionQuery,
                    es: &mut EvalScratch,
                    stats: &mut Materialization,
                    sel_stats: &mut SelectionStats|
     -> Option<Recommendation> {
        // Provably-empty candidates (some predicate has an empty posting
        // list) are dropped from the index alone, before any group is
        // built or the generator runs.
        if db.index_cardinality_bound(q) == 0 {
            stats.skipped_empty += 1;
            return None;
        }
        let group_seed = seed ^ fxhash(q);
        // A pure drill-down selects a strict subset of an ancestor group:
        // filter that ancestor's columns instead of re-walking. Sources, in
        // preference order: the displayed parent's columns against the full
        // added-predicate set (one or many conjuncts), then any cached
        // ancestor one predicate away (a non-inserting `peek` — cheap
        // window-shopping that never evicts to speculate).
        enum Derive<'d> {
            Parent(&'d GroupColumns, Vec<AttrValue>),
            Ancestor(std::sync::Arc<GroupColumns>, AttrValue),
        }
        let derivable = if cfg.derive_candidates {
            parent
                .and_then(|cols| query.added_preds(q).map(|ps| Derive::Parent(cols, ps)))
                .or_else(|| {
                    let c = cache?;
                    for p in q.preds() {
                        let mut anc = q.clone();
                        anc.remove(p);
                        if let Some(cols) = c.peek(&anc, db.epoch()) {
                            return Some(Derive::Ancestor(cols, *p));
                        }
                    }
                    None
                })
        } else {
            None
        };
        let derive = |d: &Derive<'_>, stats: &mut Materialization| -> GroupColumns {
            match d {
                Derive::Parent(cols, ps) => {
                    stats.records_filtered += cols.len() as u64;
                    db.derive_refinement_columns_multi(cols, ps)
                }
                Derive::Ancestor(cols, p) => {
                    stats.records_filtered += cols.len() as u64;
                    db.derive_refinement_columns_multi(cols, std::slice::from_ref(p))
                }
            }
        };
        let group = match (cache, derivable) {
            (Some(c), Some(d)) => {
                let mut computed = false;
                let arc = c.get_or_insert_with(q, db.epoch(), || {
                    computed = true;
                    derive(&d, stats)
                });
                if computed {
                    stats.derived += 1;
                } else {
                    stats.cached += 1;
                }
                RatingGroup::from_columns(&arc, group_seed)
            }
            (Some(c), None) => {
                let mut computed = false;
                let mut route = GroupRoute::Walk;
                let arc = c.get_or_insert_with(q, db.epoch(), || {
                    computed = true;
                    let (cols, r) = db.collect_group_columns_routed(q);
                    route = r;
                    cols
                });
                if !computed {
                    stats.cached += 1;
                } else if route == GroupRoute::Probe {
                    stats.probed += 1;
                } else {
                    stats.walked += 1;
                }
                RatingGroup::from_columns(&arc, group_seed)
            }
            (None, Some(d)) => {
                stats.derived += 1;
                RatingGroup::from_columns(&derive(&d, stats), group_seed)
            }
            (None, None) => {
                let (cols, route) = db.collect_group_columns_routed(q);
                if route == GroupRoute::Probe {
                    stats.probed += 1;
                } else {
                    stats.walked += 1;
                }
                RatingGroup::from_columns(&cols, group_seed)
            }
        };
        let mut norms = normalizers.clone();
        let out =
            generator::generate_pooled(db, &group, q, seen, &mut norms, gen_cfg, &mut es.generate);
        let pool_size = cfg.selection.pool_size(cfg.k, out.pool.len());
        let pool: Vec<ScoredRatingMap> = out.pool.into_iter().take(pool_size.max(cfg.k)).collect();
        let (maps, sel) =
            select_diverse_with(pool, cfg.k, cfg.selection, dist_engine, &mut es.select);
        sel_stats.merge(&sel);
        let utility = maps.iter().map(|m| m.dw_utility).sum();
        Some(Recommendation {
            query: q.clone(),
            utility,
            group_size: group.len(),
            maps,
        })
    };

    let mut stats = Materialization::default();
    let mut sel_stats = SelectionStats::default();
    let mut recs: Vec<Recommendation> = if fan_out {
        let chunk = candidates.len().div_ceil(threads);
        let spawned = candidates.len().div_ceil(chunk);
        if workers.len() < spawned {
            workers.resize_with(spawned, EvalScratch::default);
        }
        let evaluate = &evaluate;
        // One pooled scratch + one stats block per worker slot, produced on
        // the persistent task pool; `run` hands the tuples back in slot
        // order, preserving the deterministic worker-order merge.
        let scratch = crate::parallel::DisjointSlots::new(&mut workers[..spawned]);
        let results: Vec<(Vec<Recommendation>, Materialization, SelectionStats)> =
            crate::parallel::task_pool().run(spawned, |w| {
                // Safety: worker slot `w` owns candidate chunk `w` and
                // scratch lane `w` exclusively.
                let es = unsafe { scratch.slot(w) };
                let slice = &candidates[w * chunk..((w + 1) * chunk).min(candidates.len())];
                let mut local = Materialization::default();
                let mut local_sel = SelectionStats::default();
                let recs = slice
                    .iter()
                    .filter_map(|q| evaluate(q, es, &mut local, &mut local_sel))
                    .collect::<Vec<_>>();
                (recs, local, local_sel)
            });
        results
            .into_iter()
            .flat_map(|(recs, local, local_sel)| {
                stats.merge(&local);
                sel_stats.merge(&local_sel);
                recs
            })
            .collect()
    } else {
        if workers.is_empty() {
            workers.push(EvalScratch::default());
        }
        let es = &mut workers[0];
        candidates
            .iter()
            .filter_map(|q| evaluate(q, es, &mut stats, &mut sel_stats))
            .collect()
    };

    recs.retain(|r| r.group_size > 0);
    recs.sort_by(|a, b| {
        b.utility
            .partial_cmp(&a.utility)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.query.preds().len().cmp(&b.query.preds().len()))
    });
    recs.truncate(cfg.o);
    (recs, stats, sel_stats)
}

/// Cheap deterministic hash of a query, used to vary rating-group shuffle
/// seeds across candidates without an RNG.
fn fxhash(q: &SelectionQuery) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in q.preds() {
        for v in [
            matches!(p.entity, Entity::Item) as u64,
            u64::from(p.attr.0),
            u64::from(p.value.0),
        ] {
            h ^= v.wrapping_add(0x9e37_79b9_7f4a_7c15);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{CriterionNormalizers, SeenContext};
    use crate::pruning::PruningStrategy;
    use subdex_stats::normalize::NormalizerKind;
    use subdex_store::{Cell, EntityTableBuilder, RatingTableBuilder, Schema, Value};

    fn db() -> SubjectiveDb {
        let mut us = Schema::new();
        us.add("gender", false);
        us.add("age", false);
        let mut ub = EntityTableBuilder::new(us);
        for i in 0..12 {
            ub.push_row(vec![
                Cell::from(if i % 2 == 0 { "F" } else { "M" }),
                Cell::from(["young", "adult", "old"][i % 3]),
            ]);
        }
        let mut is = Schema::new();
        is.add("city", false);
        let mut ib = EntityTableBuilder::new(is);
        for i in 0..6 {
            ib.push_row(vec![Cell::from(if i < 3 { "NYC" } else { "SF" })]);
        }
        let mut rb = RatingTableBuilder::new(vec!["overall".into(), "food".into()], 5);
        for r in 0..12u32 {
            for i in 0..6u32 {
                let overall = 1 + ((r * 7 + i * 3) % 5) as u8;
                let food = 1 + ((r + i) % 5) as u8;
                rb.push(r, i, &[overall, food]);
            }
        }
        SubjectiveDb::new(ub.build(), ib.build(), rb.build(12, 6))
    }

    fn displayed(db: &SubjectiveDb, q: &SelectionQuery) -> Vec<ScoredRatingMap> {
        let group = db.rating_group(q, 3);
        let seen = SeenContext::new(2);
        let mut norms = CriterionNormalizers::new(NormalizerKind::ZLogistic);
        let cfg = GeneratorConfig {
            pruning: PruningStrategy::None,
            parallel: false,
            ..Default::default()
        };
        let out = generator::generate(db, &group, q, &seen, &mut norms, &cfg);
        out.pool.into_iter().take(3).collect()
    }

    #[test]
    fn candidates_respect_edit_budget() {
        let db = db();
        let nyc = db.pred(Entity::Item, "city", &Value::str("NYC")).unwrap();
        let young = db
            .pred(Entity::Reviewer, "age", &Value::str("young"))
            .unwrap();
        let q = SelectionQuery::from_preds(vec![nyc, young]);
        let maps = displayed(&db, &q);
        let cands = enumerate_candidates(&db, &q, &maps, &RecommendConfig::default());
        assert!(!cands.is_empty());
        for c in &cands {
            assert_ne!(&c, &&q, "identity excluded");
            // add=1, remove=1, change=2, add+remove=2, add+change=3 diffs,
            // but "change" is one conceptual edit; the raw symmetric diff is
            // therefore at most 3.
            assert!(
                q.diff_size(c) <= 3,
                "diff too large: {}",
                db.describe_query(c)
            );
        }
        // Dedup holds.
        let unique: std::collections::HashSet<_> = cands.iter().collect();
        assert_eq!(unique.len(), cands.len());
    }

    #[test]
    fn candidates_include_rollups() {
        let db = db();
        let nyc = db.pred(Entity::Item, "city", &Value::str("NYC")).unwrap();
        let q = SelectionQuery::from_preds(vec![nyc]);
        let maps = displayed(&db, &q);
        let cands = enumerate_candidates(&db, &q, &maps, &RecommendConfig::default());
        assert!(
            cands.iter().any(|c| c.is_empty()),
            "removing the only predicate (a roll-up) must be a candidate"
        );
        assert!(
            cands.iter().any(|c| c.len() > q.len()),
            "drill-downs must be candidates too"
        );
    }

    #[test]
    fn empty_query_offers_only_adds() {
        let db = db();
        let q = SelectionQuery::all();
        let maps = displayed(&db, &q);
        let cands = enumerate_candidates(&db, &q, &maps, &RecommendConfig::default());
        assert!(!cands.is_empty());
        assert!(cands.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn recommend_ranks_by_utility_and_truncates() {
        let db = db();
        let q = SelectionQuery::all();
        let maps = displayed(&db, &q);
        let seen = SeenContext::new(2);
        let norms = CriterionNormalizers::new(NormalizerKind::ZLogistic);
        let gen_cfg = GeneratorConfig {
            pruning: PruningStrategy::None,
            parallel: false,
            ..Default::default()
        };
        let cfg = RecommendConfig {
            o: 3,
            parallel: false,
            ..Default::default()
        };
        let recs = recommend(&db, &q, &maps, &seen, &norms, &gen_cfg, &cfg, 11, None);
        assert!(recs.len() <= 3 && !recs.is_empty());
        for w in recs.windows(2) {
            assert!(w[0].utility >= w[1].utility);
        }
        for r in &recs {
            assert!(r.group_size > 0);
            assert!(!r.maps.is_empty());
        }
    }

    #[test]
    fn parallel_matches_sequential_results() {
        let db = db();
        let q = SelectionQuery::all();
        let maps = displayed(&db, &q);
        let seen = SeenContext::new(2);
        let norms = CriterionNormalizers::new(NormalizerKind::ZLogistic);
        let gen_cfg = GeneratorConfig {
            pruning: PruningStrategy::None,
            parallel: false,
            ..Default::default()
        };
        let seq_cfg = RecommendConfig {
            parallel: false,
            ..Default::default()
        };
        let par_cfg = RecommendConfig {
            parallel: true,
            threads: 4,
            ..Default::default()
        };
        let a = recommend(&db, &q, &maps, &seen, &norms, &gen_cfg, &seq_cfg, 7, None);
        let b = recommend(&db, &q, &maps, &seen, &norms, &gen_cfg, &par_cfg, 7, None);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.query, y.query);
            assert!((x.utility - y.utility).abs() < 1e-12);
        }
    }

    #[test]
    fn unsatisfiable_candidate_skipped_before_materialization() {
        use crate::ratingmap::{MapKey, RatingMap, Subgroup};
        use crate::utility::CriterionScores;
        use subdex_store::{AttrId, DimId, GroupCache, ValueId};

        let db = db();
        let q = SelectionQuery::all();
        // A displayed map whose extreme subgroup carries a value id beyond
        // the city dictionary: the add-candidate it anchors has an empty
        // posting list, so its cardinality bound is zero.
        let ghost = ScoredRatingMap {
            map: RatingMap::from_subgroups(
                MapKey::new(Entity::Item, AttrId(0), DimId(0)),
                vec![Subgroup {
                    value: ValueId(99),
                    distribution: subdex_stats::RatingDistribution::from_counts(vec![
                        3, 0, 0, 0, 0,
                    ]),
                    avg_score: None,
                }],
                5,
            ),
            utility: 1.0,
            dw_utility: 1.0,
            criteria: CriterionScores::default(),
        };
        let bad = q.with_added(AttrValue::new(Entity::Item, AttrId(0), ValueId(99)));
        let cands = enumerate_candidates(
            &db,
            &q,
            std::slice::from_ref(&ghost),
            &RecommendConfig::default(),
        );
        assert!(cands.contains(&bad), "the ghost drill-down is enumerated");

        let seen = SeenContext::new(2);
        let norms = CriterionNormalizers::new(NormalizerKind::ZLogistic);
        let gen_cfg = GeneratorConfig {
            pruning: PruningStrategy::None,
            parallel: false,
            ..Default::default()
        };
        let cfg = RecommendConfig {
            parallel: false,
            ..Default::default()
        };
        let cache = GroupCache::new(1 << 20);
        let (recs, stats, _) = recommend_with_stats(
            &db,
            &q,
            &[ghost],
            &seen,
            &norms,
            &gen_cfg,
            &cfg,
            11,
            Some(&cache),
            None,
            None,
        );
        assert!(stats.skipped_empty >= 1, "{stats:?}");
        assert!(recs.iter().all(|r| r.query != bad));
        // Skipped before materialization: the empty group was never built,
        // so it cannot have been inserted into the shared cache.
        assert!(!cache.contains(&bad), "skip must precede materialization");
    }

    #[test]
    fn derived_candidates_match_walked_byte_for_byte() {
        let db = db();
        let nyc = db.pred(Entity::Item, "city", &Value::str("NYC")).unwrap();
        let q = SelectionQuery::from_preds(vec![nyc]);
        let maps = displayed(&db, &q);
        let parent = db.collect_group_columns(&q);
        let seen = SeenContext::new(2);
        let norms = CriterionNormalizers::new(NormalizerKind::ZLogistic);
        let gen_cfg = GeneratorConfig {
            pruning: PruningStrategy::None,
            parallel: false,
            ..Default::default()
        };
        let fingerprint = |recs: &[Recommendation]| {
            recs.iter()
                .map(|r| (r.query.clone(), r.utility.to_bits(), r.group_size))
                .collect::<Vec<_>>()
        };
        let base_cfg = RecommendConfig {
            parallel: false,
            ..Default::default()
        };
        let walk_cfg = RecommendConfig {
            derive_candidates: false,
            ..base_cfg
        };
        let (walked, walked_stats, _) = recommend_with_stats(
            &db, &q, &maps, &seen, &norms, &gen_cfg, &walk_cfg, 7, None, None, None,
        );
        assert_eq!(walked_stats.derived, 0);
        assert!(walked_stats.walked > 0);

        let (derived, derived_stats, _) = recommend_with_stats(
            &db,
            &q,
            &maps,
            &seen,
            &norms,
            &gen_cfg,
            &base_cfg,
            7,
            None,
            Some(&parent),
            None,
        );
        assert!(derived_stats.derived > 0, "{derived_stats:?}");
        assert!(derived_stats.records_filtered > 0);
        assert_eq!(fingerprint(&derived), fingerprint(&walked));

        // With a shared cache the derived columns are inserted, so a second
        // identical pass is served from the cache — still byte-identical.
        use subdex_store::GroupCache;
        let cache = GroupCache::new(1 << 20);
        let (first, first_stats, _) = recommend_with_stats(
            &db,
            &q,
            &maps,
            &seen,
            &norms,
            &gen_cfg,
            &base_cfg,
            7,
            Some(&cache),
            Some(&parent),
            None,
        );
        assert!(first_stats.derived > 0);
        let (second, second_stats, _) = recommend_with_stats(
            &db,
            &q,
            &maps,
            &seen,
            &norms,
            &gen_cfg,
            &base_cfg,
            7,
            Some(&cache),
            Some(&parent),
            None,
        );
        assert_eq!(second_stats.derived, 0, "{second_stats:?}");
        assert!(second_stats.cached > 0);
        assert_eq!(fingerprint(&first), fingerprint(&walked));
        assert_eq!(fingerprint(&second), fingerprint(&walked));
    }

    #[test]
    fn no_displayed_maps_still_offers_edits_of_nonempty_query() {
        let db = db();
        let nyc = db.pred(Entity::Item, "city", &Value::str("NYC")).unwrap();
        let q = SelectionQuery::from_preds(vec![nyc]);
        let cands = enumerate_candidates(&db, &q, &[], &RecommendConfig::default());
        assert!(
            cands.iter().any(|c| c.is_empty()),
            "roll-up still available"
        );
    }
}
