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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use subdex_store::{
    AttrValue, Entity, GroupColumns, GroupRoute, RatingGroup, SelectionQuery, SubjectiveDb,
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

/// How rating groups were materialized during one recommendation (or
/// engine-step) pass. `derived + walked + probed + skipped_empty` equals
/// the number of groups the pass needed; `records_filtered` counts parent
/// rows the derivation path scanned instead of re-walking the database.
/// Every counter is a function of the step's inputs, never of scheduling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Materialization {
    /// Groups built by filtering the parent's gathered columns (one linear
    /// pass over parent rows; no adjacency walk, no re-gather).
    pub derived: u64,
    /// Groups built by the adjacency walk + column gather
    /// ([`GroupRoute::Walk`] / [`GroupRoute::Full`]).
    pub walked: u64,
    /// Groups built by the index-driven rating-column probe
    /// ([`GroupRoute::Probe`]).
    pub probed: u64,
    /// Always 0: no group is shared across sessions. Kept only because
    /// `benchmark/README.md` lists it as public surface.
    pub cached: u64,
    /// Candidates skipped *before* any materialization because their index
    /// cardinality upper bound was zero.
    pub skipped_empty: u64,
    /// Parent rows examined by the derivation passes.
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

/// Reusable buffers for one recommendation pass: the candidate-query
/// vector plus one [`EvalScratch`] per evaluation worker. Pooled inside
/// [`crate::plan::ExecContext`] so a session's steps 2..n re-use the
/// grown-to-size buffers; the worker vector is sized lazily to the thread
/// count actually used.
///
/// Each worker's scratch sits behind a `Mutex` only so pooled tasks can
/// borrow their own lane mutably from a shared slice; lane `w` is locked
/// by fan-out task `w` alone, so the lock is never contended.
#[derive(Debug, Default)]
pub struct RecommendScratch {
    workers: Vec<Mutex<EvalScratch>>,
    candidates: Vec<SelectionQuery>,
}

/// Locks a worker lane. Every candidate rebuilds the lane's buffers from
/// scratch (pooled evaluation is byte-identical to fresh), so a lane
/// poisoned by a panicking candidate is as good as any other.
fn lock(lane: &Mutex<EvalScratch>) -> MutexGuard<'_, EvalScratch> {
    lane.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Alternative values tried per changed predicate.
const CHANGE_FANOUT: usize = 2;

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
}

impl Default for RecommendConfig {
    fn default() -> Self {
        Self {
            o: 3,
            k: 3,
            selection: SelectionStrategy::Hybrid { l: 3 },
            max_candidates: 48,
        }
    }
}

/// Materializes `q`'s pre-shuffle gather columns, counting the path taken.
///
/// `parent` is a query and its gathered columns. When `q` only adds
/// predicates to that query, `q`'s columns are *derived* by one filter
/// pass over the parent's rows; otherwise the index answers `q` by the
/// walk or the probe its route planner picks
/// ([`SubjectiveDb::collect_group_columns_routed`]). Every path returns
/// canonical ascending record order, so the result is byte-identical
/// whichever one ran.
pub(crate) fn materialize(
    db: &SubjectiveDb,
    q: &SelectionQuery,
    parent: Option<(&SelectionQuery, &GroupColumns)>,
    m: &mut Materialization,
) -> GroupColumns {
    if let Some((pq, cols)) = parent {
        if let Some(added) = pq.added_preds(q) {
            m.derived += 1;
            m.records_filtered += cols.len() as u64;
            return db.derive_refinement_columns_multi(cols, &added);
        }
    }
    let (cols, route) = db.collect_group_columns_routed(q);
    if route == GroupRoute::Probe {
        m.probed += 1;
    } else {
        m.walked += 1;
    }
    cols
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
        for (_, v) in siblings.into_iter().take(CHANGE_FANOUT) {
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
/// (Problem 2). Candidates run concurrently on up to `threads` workers (a
/// resolved count, at least 1) — the engine-level "recommendation builder
/// in parallel" optimization whose absence (`threads == 1`) is the
/// paper's *No-Parallelism* baseline.
///
/// Each candidate's group comes from `materialize`: `parent`, the
/// pre-shuffle [`GroupColumns`] of `query` itself (the engine has them from
/// the step's own group), lets every pure drill-down be *derived* by one
/// filter over the parent rows; every other candidate, and every candidate
/// when `parent` is `None`, is walked or probed through the index. Output
/// is byte-identical either way. Candidates whose index cardinality upper
/// bound (min posting-list size over their predicates) is zero are skipped
/// before any materialization. The returned [`Materialization`] counts the
/// paths taken.
///
/// Evaluation runs in two passes. The first generates every candidate's
/// utility-ranked map pool; after it, `utility_bounds` brackets each
/// candidate's Equation 2 utility, and the second pass runs the diverse
/// selection preview only for candidates whose upper bound can still reach
/// the `o`-th best lower bound (`preview_skips`). The rest rank below
/// `o` others whatever their preview picks, so the output is the one every
/// preview would give.
///
/// `dist` configures the [`DistanceEngine`] behind each candidate's
/// diverse-selection preview (its bounds and shared cache; the default
/// engine when `None`). The previews read the cache as it stood before
/// pass 2 and their exact solves are inserted after it, in candidate order,
/// so the counters do not depend on the schedule. The returned
/// [`SelectionStats`] aggregate those previews and count the skipped ones.
///
/// `scratch` pools the candidate vector and the per-worker generate and
/// select buffers across calls; it recycles containers, never values.
#[allow(clippy::too_many_arguments)]
pub fn recommend(
    db: &SubjectiveDb,
    query: &SelectionQuery,
    displayed: &[ScoredRatingMap],
    seen: &SeenContext,
    normalizers: &CriterionNormalizers,
    gen_cfg: &GeneratorConfig,
    cfg: &RecommendConfig,
    threads: usize,
    seed: u64,
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

    let dist_engine = dist.cloned().unwrap_or_default().deferring_inserts();

    // Each candidate is evaluated inside an (optionally) already-parallel
    // worker. When the fan-out gives every worker a candidate, a parallel
    // phase scan inside each would only re-enter the pool once per phase.
    // Chunk merges are exact, so the serial scan produces the same bits.
    // Fewer candidates than workers (a lone candidate included) leave
    // cores idle, so the generator keeps the full count there.
    let workers_for = |items: usize| {
        if threads > 1 && items > 1 {
            threads.min(items)
        } else {
            1
        }
    };
    let spawned = workers_for(candidates.len());
    let scan_threads = if spawned > 1 && candidates.len() >= threads {
        1
    } else {
        threads
    };
    if workers.len() < spawned {
        workers.resize_with(spawned, Mutex::default);
    }
    let candidates = &candidates[..];

    // Pass 1: materialize and generate every candidate, keeping the pool
    // its preview would select from. Provably-empty candidates (some
    // predicate has an empty posting list) are dropped from the index
    // alone, and candidates whose group turns out empty right after
    // materialization, since the ranking drops them anyway.
    let parent = parent.map(|cols| (query, cols));
    let (generated, stats, _) =
        claim_each(&workers[..spawned], candidates.len(), |i, es, stats, _| {
            let q = &candidates[i];
            if db.index_cardinality_bound(q) == 0 {
                stats.skipped_empty += 1;
                return None;
            }
            let group =
                RatingGroup::from_columns(&materialize(db, q, parent, stats), seed ^ fxhash(q));
            if group.is_empty() {
                return None;
            }
            let mut norms = normalizers.clone();
            let out = generator::generate_pooled(
                db,
                &group,
                q,
                seen,
                &mut norms,
                gen_cfg,
                scan_threads,
                &mut es.generate,
            );
            let pool_size = cfg.selection.pool_size(cfg.k, out.pool.len());
            let pool: Vec<ScoredRatingMap> =
                out.pool.into_iter().take(pool_size.max(cfg.k)).collect();
            Some((group.len(), pool))
        });

    // The barrier: bound every candidate's utility and decide, in
    // candidate order, which previews cannot change the top `o`.
    let bounds: Vec<(f64, f64)> = generated
        .iter()
        .map(|(_, (_, pool))| utility_bounds(pool, cfg.k))
        .collect();
    let skip = preview_skips(&bounds, cfg.o);
    let pending: Vec<_> = generated
        .into_iter()
        .zip(&skip)
        .filter(|(_, &skipped)| !skipped)
        .map(|((i, (group_size, pool)), _)| Mutex::new(Some((i, group_size, pool))))
        .collect();

    // Pass 2: the previews that can still rank, claimed one at a time on
    // the same lanes. Each preview reads the shared distance cache but
    // keeps its own solves, so its hits depend only on what the cache held
    // before the pass, never on which preview ran first.
    let (previewed, _, mut sel_stats) = claim_each(
        &workers[..workers_for(pending.len())],
        pending.len(),
        |slot, es, _, sel_stats| {
            let (i, group_size, pool) = pending[slot]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()?;
            let (maps, sel) =
                select_diverse_with(pool, cfg.k, cfg.selection, &dist_engine, &mut es.select);
            sel_stats.merge(&sel);
            let utility = maps.iter().map(|m| m.dw_utility).sum();
            let rec = Recommendation {
                query: candidates[i].clone(),
                utility,
                group_size,
                maps,
            };
            Some((rec, es.select.dist.take_deferred()))
        },
    );
    sel_stats.previews_skipped = skip.iter().filter(|&&s| s).count() as u64;
    // Insert the previews' solves in candidate order, so the cache later
    // steps see is the same at every thread count.
    if let Some(cache) = dist_engine.cache() {
        for (_, (_, solved)) in &previewed {
            for &(key, d) in solved {
                cache.insert(key, d);
            }
        }
    }

    let mut recs: Vec<Recommendation> = previewed.into_iter().map(|(_, (rec, _))| rec).collect();
    recs.sort_by(|a, b| {
        b.utility
            .partial_cmp(&a.utility)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.query.preds().len().cmp(&b.query.preds().len()))
    });
    recs.truncate(cfg.o);
    (recs, stats, sel_stats)
}

/// Runs `work` over items `0..count` on one worker per lane. Workers claim
/// items one at a time until none are left, so a worker that drew cheap
/// items takes more of them. Every result carries its item's index and
/// comes back in item order whichever worker produced it; the counters are
/// integer (and `Duration`) sums, so their merge order does not matter
/// either. A single lane runs inline on the caller.
fn claim_each<T, F>(
    lanes: &[Mutex<EvalScratch>],
    count: usize,
    work: F,
) -> (Vec<(usize, T)>, Materialization, SelectionStats)
where
    T: Send,
    F: Fn(usize, &mut EvalScratch, &mut Materialization, &mut SelectionStats) -> Option<T> + Sync,
{
    let next = AtomicUsize::new(0);
    let results = crate::parallel::task_pool().run(lanes.len(), |w| {
        let es = &mut *lock(&lanes[w]);
        let mut local = Materialization::default();
        let mut local_sel = SelectionStats::default();
        let mut out = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                break;
            }
            if let Some(t) = work(i, es, &mut local, &mut local_sel) {
                out.push((i, t));
            }
        }
        (out, local, local_sel)
    });
    let mut stats = Materialization::default();
    let mut sel_stats = SelectionStats::default();
    let mut tagged: Vec<(usize, T)> = results
        .into_iter()
        .flat_map(|(out, local, local_sel)| {
            stats.merge(&local);
            sel_stats.merge(&local_sel);
            out
        })
        .collect();
    tagged.sort_unstable_by_key(|&(i, _)| i);
    (tagged, stats, sel_stats)
}

/// Exact bounds `(lb, ub)` on the Equation 2 utility a candidate's preview
/// can yield from `pool`, its maps by descending DW utility.
///
/// Every selection strategy returns `pool[0]` plus `t − 1` other maps of
/// the pool, `t = min(k, |pool|)`: the prefix, or GMM seeded with
/// `pool[0]`. So the utility is at least `pool[0]` plus the `t − 1`
/// smallest of the rest, and at most the sum of the first `t`. A pool
/// holding a non-finite utility gets `(−∞, +∞)`; an empty one (or `k = 0`)
/// selects nothing and gets `(0, 0)`.
pub(crate) fn utility_bounds(pool: &[ScoredRatingMap], k: usize) -> (f64, f64) {
    let t = k.min(pool.len());
    if t == 0 {
        return (0.0, 0.0);
    }
    if pool.iter().any(|m| !m.dw_utility.is_finite()) {
        return (f64::NEG_INFINITY, f64::INFINITY);
    }
    debug_assert!(pool.windows(2).all(|w| w[0].dw_utility >= w[1].dw_utility));
    let ub: f64 = pool[..t].iter().map(|m| m.dw_utility).sum();
    let smallest_rest: f64 = pool[pool.len() + 1 - t..]
        .iter()
        .map(|m| m.dw_utility)
        .sum();
    (pool[0].dw_utility + smallest_rest, ub)
}

/// Which candidates' previews cannot change the top `o`, given each
/// candidate's [`utility_bounds`] in candidate order.
///
/// `thr` is the `o`-th largest lower bound. A candidate is skipped when
/// `ub + m < thr − m`, `m = 1e-9 · max(1, |thr|)`: at least `o` others
/// then have a utility above its own, so it ranks below all of them. The
/// margin absorbs rounding, because the bounds sum in pool order and the
/// preview in pick order. If any bound is not finite nothing is skipped: a
/// NaN utility makes the ranking's comparator partial, and under a partial
/// order dropping one element can reorder the rest.
pub(crate) fn preview_skips(bounds: &[(f64, f64)], o: usize) -> Vec<bool> {
    let mut skip = vec![false; bounds.len()];
    if o == 0
        || bounds.len() <= o
        || bounds
            .iter()
            .any(|&(lb, ub)| !lb.is_finite() || !ub.is_finite())
    {
        return skip;
    }
    let mut lower: Vec<f64> = bounds.iter().map(|&(lb, _)| lb).collect();
    lower.sort_unstable_by(|a, b| b.total_cmp(a));
    let thr = lower[o - 1];
    let m = 1e-9 * thr.abs().max(1.0);
    for (s, &(_, ub)) in skip.iter_mut().zip(bounds) {
        *s = ub + m < thr - m;
    }
    skip
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
    use crate::ratingmap::{MapKey, RatingMap, Subgroup};
    use proptest::prelude::*;
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
            ..Default::default()
        };
        let out = generator::generate(db, &group, q, &seen, &mut norms, &cfg, 1);
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

    /// [`recommend`] on `threads` workers over fresh session state, an
    /// unpruned generator and a fresh scratch.
    fn run(
        db: &SubjectiveDb,
        q: &SelectionQuery,
        maps: &[ScoredRatingMap],
        threads: usize,
        seed: u64,
        parent: Option<&GroupColumns>,
    ) -> (Vec<Recommendation>, Materialization) {
        let (recs, m, _) = run_with(
            db,
            q,
            maps,
            &RecommendConfig::default(),
            threads,
            seed,
            parent,
        );
        (recs, m)
    }

    /// [`run`] under `cfg`, keeping the selection counters.
    fn run_with(
        db: &SubjectiveDb,
        q: &SelectionQuery,
        maps: &[ScoredRatingMap],
        cfg: &RecommendConfig,
        threads: usize,
        seed: u64,
        parent: Option<&GroupColumns>,
    ) -> (Vec<Recommendation>, Materialization, SelectionStats) {
        recommend(
            db,
            q,
            maps,
            &SeenContext::new(2),
            &CriterionNormalizers::new(NormalizerKind::ZLogistic),
            &unpruned(),
            cfg,
            threads,
            seed,
            parent,
            None,
            &mut RecommendScratch::default(),
        )
    }

    fn unpruned() -> GeneratorConfig {
        GeneratorConfig {
            pruning: PruningStrategy::None,
            ..Default::default()
        }
    }

    #[test]
    fn recommend_ranks_by_utility_and_truncates() {
        let db = db();
        let q = SelectionQuery::all();
        let maps = displayed(&db, &q);
        let (recs, _) = run(&db, &q, &maps, 1, 11, None);
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
        let candidates = enumerate_candidates(&db, &q, &maps, &RecommendConfig::default()).len();
        assert!(candidates > 3, "{candidates} candidates");
        let fingerprint = |recs: &[Recommendation]| {
            recs.iter()
                .map(|r| {
                    let maps: Vec<_> = r
                        .maps
                        .iter()
                        .map(|m| (m.map.key, m.dw_utility.to_bits()))
                        .collect();
                    (r.query.clone(), r.utility.to_bits(), r.group_size, maps)
                })
                .collect::<Vec<_>>()
        };
        let (a, a_stats) = run(&db, &q, &maps, 1, 7, None);
        assert!(!a.is_empty());
        // Fewer workers than candidates, a count that does not divide
        // them, and more workers than candidates.
        for threads in [2, 3, 8, candidates + 1] {
            let (b, b_stats) = run(&db, &q, &maps, threads, 7, None);
            assert_eq!(fingerprint(&a), fingerprint(&b), "{threads} threads");
            assert_eq!(a_stats, b_stats, "{threads} threads");
        }
    }

    #[test]
    fn unsatisfiable_candidate_skipped_before_materialization() {
        use crate::utility::CriterionScores;
        use subdex_store::{AttrId, DimId, ValueId};

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
        assert_eq!(cands, vec![bad], "the ghost drill-down is the only edit");

        let (recs, stats) = run(&db, &q, &[ghost], 1, 11, None);
        assert!(recs.is_empty());
        // Skipped before materialization: no group was walked or probed.
        assert_eq!(
            stats,
            Materialization {
                skipped_empty: 1,
                ..Materialization::default()
            }
        );
    }

    #[test]
    fn derived_candidates_match_walked_byte_for_byte() {
        let db = db();
        let nyc = db.pred(Entity::Item, "city", &Value::str("NYC")).unwrap();
        let q = SelectionQuery::from_preds(vec![nyc]);
        let maps = displayed(&db, &q);
        let parent = db.collect_group_columns(&q);
        let fingerprint = |recs: &[Recommendation]| {
            recs.iter()
                .map(|r| (r.query.clone(), r.utility.to_bits(), r.group_size))
                .collect::<Vec<_>>()
        };
        let (walked, walked_stats) = run(&db, &q, &maps, 1, 7, None);
        assert_eq!(walked_stats.derived, 0);
        assert!(walked_stats.walked + walked_stats.probed > 0);

        let (derived, derived_stats) = run(&db, &q, &maps, 1, 7, Some(&parent));
        assert!(derived_stats.derived > 0, "{derived_stats:?}");
        assert_eq!(
            derived_stats.records_filtered,
            derived_stats.derived * parent.len() as u64,
            "every derivation filters the parent's rows once"
        );
        assert_eq!(derived_stats.total(), walked_stats.total(), "same groups");
        assert_eq!(fingerprint(&derived), fingerprint(&walked));
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

    /// Blueprint of a random database: reviewer (gender, age) codes, item
    /// cities, and (reviewer, item, two scores) ratings.
    type DbSpec = (Vec<(usize, usize)>, Vec<usize>, Vec<(u32, u32, u8, u8)>);

    fn db_spec() -> impl Strategy<Value = DbSpec> {
        (4usize..16, 2usize..8).prop_flat_map(|(reviewers, items)| {
            (
                prop::collection::vec((0usize..2, 0usize..3), reviewers),
                prop::collection::vec(0usize..3, items),
                prop::collection::vec(
                    (0..reviewers as u32, 0..items as u32, 1u8..=5, 1u8..=5),
                    1..60,
                ),
            )
        })
    }

    fn random_db((reviewers, items, ratings): &DbSpec) -> SubjectiveDb {
        let mut us = Schema::new();
        us.add("gender", false);
        us.add("age", false);
        let mut ub = EntityTableBuilder::new(us);
        for &(g, a) in reviewers {
            ub.push_row(vec![
                Cell::from(["F", "M"][g]),
                Cell::from(["young", "adult", "old"][a]),
            ]);
        }
        let mut is = Schema::new();
        is.add("city", false);
        let mut ib = EntityTableBuilder::new(is);
        for &c in items {
            ib.push_row(vec![Cell::from(["NYC", "SF", "LA"][c])]);
        }
        let mut rb = RatingTableBuilder::new(vec!["overall".into(), "food".into()], 5);
        let mut seen = HashSet::new();
        for &(r, i, a, b) in ratings {
            if seen.insert((r, i)) {
                rb.push(r, i, &[a, b]);
            }
        }
        SubjectiveDb::new(
            ub.build(),
            ib.build(),
            rb.build(reviewers.len(), items.len()),
        )
    }

    /// Every candidate evaluated in full — generate, then the preview —
    /// the way [`recommend`] evaluated them before previews could be
    /// skipped, in candidate order, each with its [`utility_bounds`].
    fn evaluate_all(
        db: &SubjectiveDb,
        q: &SelectionQuery,
        maps: &[ScoredRatingMap],
        cfg: &RecommendConfig,
        seed: u64,
    ) -> Vec<((f64, f64), Recommendation)> {
        let seen = SeenContext::new(2);
        let norms = CriterionNormalizers::new(NormalizerKind::ZLogistic);
        let mut out = Vec::new();
        for c in enumerate_candidates(db, q, maps, cfg) {
            if db.index_cardinality_bound(&c) == 0 {
                continue;
            }
            let cols = materialize(db, &c, None, &mut Materialization::default());
            let group = RatingGroup::from_columns(&cols, seed ^ fxhash(&c));
            if group.is_empty() {
                continue;
            }
            let generated =
                generator::generate(db, &group, &c, &seen, &mut norms.clone(), &unpruned(), 1);
            let pool_size = cfg.selection.pool_size(cfg.k, generated.pool.len());
            let pool: Vec<ScoredRatingMap> = generated
                .pool
                .into_iter()
                .take(pool_size.max(cfg.k))
                .collect();
            let bounds = utility_bounds(&pool, cfg.k);
            let maps = crate::selector::select_diverse(pool, cfg.k, cfg.selection);
            let utility = maps.iter().map(|m| m.dw_utility).sum();
            out.push((
                bounds,
                Recommendation {
                    query: c,
                    utility,
                    group_size: group.len(),
                    maps,
                },
            ));
        }
        out
    }

    fn rec_fingerprint(recs: &[Recommendation]) -> Vec<(SelectionQuery, u64, usize, Vec<MapKey>)> {
        recs.iter()
            .map(|r| {
                let keys = r.maps.iter().map(|m| m.map.key).collect();
                (r.query.clone(), r.utility.to_bits(), r.group_size, keys)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The skip rule against full evaluation: every candidate's exact
        /// utility lies within its bounds (up to the margin), `recommend`
        /// returns exactly the full ranking's top `o`, and every skipped
        /// candidate's utility is strictly below the `o`-th — for every
        /// selection strategy, `o` of 1, 3 and more than the candidates,
        /// serial and fanned out.
        #[test]
        fn top_o_bound_oracle(
            spec in db_spec(),
            pick in 0usize..8,
            k in 1usize..=3,
            seed in 0u64..1000,
        ) {
            let db = random_db(&spec);
            let preds: Vec<AttrValue> = [("city", Entity::Item, ["NYC", "SF", "LA"].as_slice()),
                ("age", Entity::Reviewer, ["young", "adult", "old"].as_slice())]
                .iter()
                .flat_map(|(attr, e, vals)| vals.iter().filter_map(|v| db.pred(*e, attr, &Value::str(*v))))
                .collect();
            let q = match preds.get(pick) {
                Some(&p) => SelectionQuery::from_preds(vec![p]),
                None => SelectionQuery::all(),
            };
            let maps = displayed(&db, &q);
            for selection in [
                SelectionStrategy::UtilityOnly,
                SelectionStrategy::Hybrid { l: 3 },
                SelectionStrategy::DiversityOnly,
            ] {
                let base = RecommendConfig { k, selection, ..RecommendConfig::default() };
                let full = evaluate_all(&db, &q, &maps, &base, seed);
                for &(lb, ub) in full.iter().map(|(b, _)| b) {
                    prop_assert!(lb.is_finite() && ub.is_finite() && lb <= ub + 1e-9);
                }
                for ((lb, ub), rec) in &full {
                    let m = 1e-9 * rec.utility.abs().max(1.0);
                    prop_assert!(*lb - m <= rec.utility && rec.utility <= *ub + m,
                        "{:?}: {} outside [{}, {}]", selection, rec.utility, lb, ub);
                }
                let mut ranked: Vec<Recommendation> = full.iter().map(|(_, r)| r.clone()).collect();
                ranked.sort_by(|a, b| {
                    b.utility
                        .partial_cmp(&a.utility)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| a.query.preds().len().cmp(&b.query.preds().len()))
                });
                let bounds: Vec<(f64, f64)> = full.iter().map(|&(b, _)| b).collect();
                for o in [1, 3, full.len() + 1] {
                    let cfg = RecommendConfig { o, ..base };
                    let skip = preview_skips(&bounds, o);
                    let top = &ranked[..o.min(ranked.len())];
                    for ((_, rec), _) in full.iter().zip(&skip).filter(|(_, &s)| s) {
                        prop_assert!(rec.utility < top[o - 1].utility,
                            "{:?} o={}: skipped {} vs o-th {}", selection, o, rec.utility, top[o - 1].utility);
                    }
                    for threads in [1, 3] {
                        let (recs, _, sel) = run_with(&db, &q, &maps, &cfg, threads, seed, None);
                        prop_assert_eq!(rec_fingerprint(&recs), rec_fingerprint(top),
                            "{:?} o={} threads={}", selection, o, threads);
                        prop_assert_eq!(sel.previews_skipped, skip.iter().filter(|&&s| s).count() as u64);
                    }
                }
            }
        }
    }

    #[test]
    fn bounds_and_skips_on_fixed_inputs() {
        use crate::utility::CriterionScores;
        use subdex_store::{AttrId, DimId, ValueId};
        let map = |attr: u16, dw: f64| ScoredRatingMap {
            map: RatingMap::from_subgroups(
                MapKey::new(Entity::Item, AttrId(attr), DimId(0)),
                vec![Subgroup {
                    value: ValueId(0),
                    distribution: subdex_stats::RatingDistribution::from_counts(vec![
                        1, 0, 0, 0, 1,
                    ]),
                    avg_score: None,
                }],
                5,
            ),
            utility: dw,
            dw_utility: dw,
            criteria: CriterionScores::default(),
        };
        let pool: Vec<ScoredRatingMap> = [0.9, 0.7, 0.5, 0.2, 0.1]
            .iter()
            .enumerate()
            .map(|(i, &dw)| map(i as u16, dw))
            .collect();
        let (lb, ub) = utility_bounds(&pool, 3);
        assert!((lb - (0.9 + 0.2 + 0.1)).abs() < 1e-12 && (ub - (0.9 + 0.7 + 0.5)).abs() < 1e-12);
        assert_eq!(utility_bounds(&pool, 0), (0.0, 0.0));
        assert_eq!(utility_bounds(&[], 3), (0.0, 0.0));
        let (lb1, ub1) = utility_bounds(&pool[..1], 3);
        assert_eq!((lb1, ub1), (0.9, 0.9));
        let mut nan = pool.clone();
        nan[4].dw_utility = f64::NAN;
        assert_eq!(utility_bounds(&nan, 3), (f64::NEG_INFINITY, f64::INFINITY));

        // thr = 2nd-best lower bound = 1.0; only the third candidate's
        // upper bound lies below it.
        let bounds = [(1.2, 1.5), (1.0, 1.1), (0.5, 0.9), (0.95, 1.0)];
        assert_eq!(preview_skips(&bounds, 2), vec![false, false, true, false]);
        assert_eq!(preview_skips(&bounds, 4), vec![false; 4], "o >= candidates");
        assert_eq!(preview_skips(&bounds, 0), vec![false; 4]);
        let mut inf = bounds.to_vec();
        inf[0].1 = f64::INFINITY;
        assert_eq!(
            preview_skips(&inf, 2),
            vec![false; 4],
            "a non-finite bound disables skipping"
        );
    }
}
