//! RM-Selector: diverse subset selection via the GMM algorithm
//! (Section 4.2.2).
//!
//! Given the top-`l·k` rating maps by DW utility, select the `k` most
//! diverse using Gonzalez's greedy max-min algorithm \[29\]: seed with one
//! map, then `k − 1` times add the map maximizing the minimum distance to
//! the chosen set. A 2-approximation for max-min diversification, running
//! in `O(k² · l)` distance evaluations.
//!
//! We seed deterministically with the highest-DW-utility map (the paper
//! allows an arbitrary seed), so the "most interesting" map is always
//! shown.
//!
//! Distance evaluations go through [`DistanceEngine`]: map signatures are
//! built once per pool, the per-pick update `min_dist[i] = min(min_dist[i],
//! d(next, i))` skips exact transportation solves that a lower bound proves
//! irrelevant, and exact values can be served from a shared cross-step
//! cache. Every engine configuration returns byte-identical selections
//! (see the equivalence tests in `tests/proptests.rs`).

use crate::mapdist::{DistScratch, DistanceEngine, MapSignature, SelectionStats};
use crate::ratingmap::ScoredRatingMap;
use subdex_stats::kernels::BatchScratch;

/// How the final `k`-subset is chosen — the knob behind Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionStrategy {
    /// Take the `k` highest-DW-utility maps (`l = 1`, "Utility-Only").
    UtilityOnly,
    /// GMM over the top-`l·k` (the paper's default, `l = 3`).
    Hybrid {
        /// The pruning-diversity factor `l > 1`.
        l: usize,
    },
    /// GMM over *all* candidates regardless of utility ("Diversity-Only").
    DiversityOnly,
}

impl SelectionStrategy {
    /// The candidate-pool size (`k′`) this strategy needs from the
    /// generator, given `k` and the total number of candidates.
    pub fn pool_size(self, k: usize, total_candidates: usize) -> usize {
        match self {
            SelectionStrategy::UtilityOnly => k,
            SelectionStrategy::Hybrid { l } => k * l.max(1),
            SelectionStrategy::DiversityOnly => total_candidates,
        }
        .min(total_candidates.max(k))
    }
}

/// Reusable buffers for diverse selection: the per-pool signature vector,
/// the GMM bookkeeping arrays, and the distance engine's cost-matrix
/// scratch. Pooled inside [`crate::plan::ExecContext`] so steady-state
/// selections re-use one grown-to-size set of containers instead of
/// allocating five fresh ones per pass.
#[derive(Debug, Default)]
pub struct SelectScratch {
    sigs: Vec<MapSignature>,
    sig_tmp: BatchScratch,
    picked: Vec<bool>,
    min_dist: Vec<f64>,
    pub(crate) dist: DistScratch,
}

/// Selects `k` maps from `pool` (already ranked by descending DW utility)
/// with a default (bounds-on, uncached) engine, discarding stats.
///
/// For [`SelectionStrategy::UtilityOnly`] this is the prefix; otherwise
/// GMM runs over the pool. Returns at most `k` maps (fewer when the pool is
/// smaller).
pub fn select_diverse(
    pool: Vec<ScoredRatingMap>,
    k: usize,
    strategy: SelectionStrategy,
) -> Vec<ScoredRatingMap> {
    select_diverse_tracked(pool, k, strategy, &DistanceEngine::new()).0
}

/// [`select_diverse`] through a caller-configured [`DistanceEngine`],
/// reporting how the distance evaluations were resolved. Allocates its
/// scratch per call; hot paths should hold a [`SelectScratch`] and use
/// [`select_diverse_with`] instead.
pub fn select_diverse_tracked(
    pool: Vec<ScoredRatingMap>,
    k: usize,
    strategy: SelectionStrategy,
    engine: &DistanceEngine,
) -> (Vec<ScoredRatingMap>, SelectionStats) {
    select_diverse_with(pool, k, strategy, engine, &mut SelectScratch::default())
}

/// [`select_diverse_tracked`] over caller-pooled buffers. Selections are
/// byte-identical to the allocating path for every `(pool, k, strategy,
/// engine)` — the scratch only recycles containers, never values.
pub fn select_diverse_with(
    pool: Vec<ScoredRatingMap>,
    k: usize,
    strategy: SelectionStrategy,
    engine: &DistanceEngine,
    scratch: &mut SelectScratch,
) -> (Vec<ScoredRatingMap>, SelectionStats) {
    let start = std::time::Instant::now();
    let mut stats = SelectionStats::default();
    let out = if pool.len() <= k || k == 0 || matches!(strategy, SelectionStrategy::UtilityOnly) {
        pool.into_iter().take(k).collect()
    } else {
        gmm(pool, k, engine, &mut stats, scratch)
    };
    stats.select_time = start.elapsed();
    (out, stats)
}

/// Gonzalez's greedy max-min selection, seeded with index 0 (the
/// highest-utility map, since pools arrive utility-sorted).
fn gmm(
    pool: Vec<ScoredRatingMap>,
    k: usize,
    engine: &DistanceEngine,
    stats: &mut SelectionStats,
    scratch: &mut SelectScratch,
) -> Vec<ScoredRatingMap> {
    let n = pool.len();
    debug_assert!(k < n || n == 0);
    let SelectScratch {
        sigs,
        sig_tmp,
        picked,
        min_dist,
        dist,
    } = scratch;
    sigs.clear();
    sigs.extend(pool.iter().map(|m| MapSignature::build(&m.map, sig_tmp)));
    picked.clear();
    picked.resize(n, false);
    min_dist.clear();
    min_dist.resize(n, f64::INFINITY);
    let mut taken = 1;
    picked[0] = true;
    // Seed row: every min-dist is infinite, so nothing can be pruned and
    // every pair resolves exactly (possibly from the cache).
    engine.update_row(sigs, 0, picked, min_dist, dist, stats);
    while taken < k {
        // Farthest-point: maximize the minimum distance to the chosen set;
        // tie-break toward higher utility (lower pool index).
        let mut best = None;
        let mut best_d = f64::NEG_INFINITY;
        for (i, &d) in min_dist.iter().enumerate() {
            if picked[i] {
                continue;
            }
            if d > best_d {
                best_d = d;
                best = Some(i);
            }
        }
        let Some(next) = best else { break };
        picked[next] = true;
        taken += 1;
        // Chosen maps are never candidates again, so their min-dist entries
        // (and the self-distance) need no update; for the rest, a bound
        // reaching min_dist[i] proves the exact solve irrelevant.
        engine.update_row(sigs, next, picked, min_dist, dist, stats);
    }
    // Emitting in pool order keeps utility order within the selection.
    pool.into_iter()
        .zip(picked.iter())
        .filter_map(|(m, &keep)| keep.then_some(m))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapdist::set_diversity;
    use crate::ratingmap::{MapKey, RatingMap, Subgroup};
    use crate::utility::CriterionScores;
    use std::sync::Arc;
    use subdex_stats::RatingDistribution;
    use subdex_store::{AttrId, DimId, DistanceCache, Entity, ValueId};

    fn scored(attr: u16, counts: &[&[u64]], dw: f64) -> ScoredRatingMap {
        let subs = counts
            .iter()
            .enumerate()
            .map(|(i, c)| Subgroup {
                value: ValueId(i as u32),
                distribution: RatingDistribution::from_counts(c.to_vec()),
                avg_score: None,
            })
            .collect();
        ScoredRatingMap {
            map: RatingMap::from_subgroups(
                MapKey::new(Entity::Item, AttrId(attr), DimId(0)),
                subs,
                5,
            ),
            utility: dw,
            dw_utility: dw,
            criteria: CriterionScores::default(),
        }
    }

    /// Pool: three near-identical high-utility maps + one far-away map.
    fn clustered_pool() -> Vec<ScoredRatingMap> {
        vec![
            scored(0, &[&[10, 0, 0, 0, 0]], 0.9),
            scored(1, &[&[9, 1, 0, 0, 0]], 0.8),
            scored(2, &[&[10, 0, 0, 0, 1]], 0.7),
            scored(3, &[&[0, 0, 0, 0, 10]], 0.4),
        ]
    }

    #[test]
    fn utility_only_takes_prefix() {
        let out = select_diverse(clustered_pool(), 2, SelectionStrategy::UtilityOnly);
        let attrs: Vec<u16> = out.iter().map(|m| m.map.key.attr.0).collect();
        assert_eq!(attrs, vec![0, 1]);
    }

    #[test]
    fn gmm_prefers_distant_maps() {
        let out = select_diverse(clustered_pool(), 2, SelectionStrategy::Hybrid { l: 2 });
        let attrs: Vec<u16> = out.iter().map(|m| m.map.key.attr.0).collect();
        assert_eq!(attrs, vec![0, 3], "seed + the farthest map");
    }

    #[test]
    fn gmm_beats_prefix_on_diversity() {
        let pool = clustered_pool();
        let prefix = select_diverse(pool.clone(), 2, SelectionStrategy::UtilityOnly);
        let gmm_sel = select_diverse(pool, 2, SelectionStrategy::DiversityOnly);
        let d_prefix = set_diversity(&prefix.iter().map(|m| &m.map).collect::<Vec<_>>());
        let d_gmm = set_diversity(&gmm_sel.iter().map(|m| &m.map).collect::<Vec<_>>());
        assert!(d_gmm > d_prefix);
    }

    #[test]
    fn small_pool_returned_whole() {
        let pool = clustered_pool();
        let out = select_diverse(pool.clone(), 10, SelectionStrategy::Hybrid { l: 3 });
        assert_eq!(out.len(), 4);
        let out0 = select_diverse(pool, 0, SelectionStrategy::Hybrid { l: 3 });
        assert!(out0.is_empty());
    }

    #[test]
    fn gmm_two_approximation_on_brute_forceable_instance() {
        // 6 maps; check GMM's min-pairwise ≥ ½ of the optimum over all
        // 3-subsets.
        let pool = vec![
            scored(0, &[&[10, 0, 0, 0, 0]], 0.9),
            scored(1, &[&[0, 10, 0, 0, 0]], 0.8),
            scored(2, &[&[0, 0, 10, 0, 0]], 0.7),
            scored(3, &[&[0, 0, 0, 10, 0]], 0.6),
            scored(4, &[&[0, 0, 0, 0, 10]], 0.5),
            scored(5, &[&[5, 0, 0, 0, 5]], 0.4),
        ];
        let k = 3;
        let maps: Vec<&RatingMap> = pool.iter().map(|m| &m.map).collect();
        let mut opt: f64 = 0.0;
        for i in 0..maps.len() {
            for j in (i + 1)..maps.len() {
                for l in (j + 1)..maps.len() {
                    opt = opt.max(set_diversity(&[maps[i], maps[j], maps[l]]));
                }
            }
        }
        let sel = select_diverse(pool, k, SelectionStrategy::DiversityOnly);
        let got = set_diversity(&sel.iter().map(|m| &m.map).collect::<Vec<_>>());
        assert!(got * 2.0 + 1e-9 >= opt, "GMM {got} vs OPT {opt}");
    }

    /// The pre-rewrite GMM verbatim (`chosen.contains` check, unconditional
    /// distance updates), kept as the reference the optimized version must
    /// match index-for-index.
    fn gmm_reference(pool: &[ScoredRatingMap], k: usize) -> Vec<usize> {
        let n = pool.len();
        let mut chosen: Vec<usize> = vec![0];
        let mut min_dist = vec![f64::INFINITY; n];
        for (i, d) in min_dist.iter_mut().enumerate() {
            *d = crate::mapdist::map_distance(&pool[0].map, &pool[i].map);
        }
        while chosen.len() < k {
            let mut best = None;
            let mut best_d = f64::NEG_INFINITY;
            for (i, &d) in min_dist.iter().enumerate() {
                if chosen.contains(&i) {
                    continue;
                }
                if d > best_d {
                    best_d = d;
                    best = Some(i);
                }
            }
            let Some(next) = best else { break };
            chosen.push(next);
            for (i, md) in min_dist.iter_mut().enumerate() {
                let d = crate::mapdist::map_distance(&pool[next].map, &pool[i].map);
                if d < *md {
                    *md = d;
                }
            }
        }
        chosen.sort_unstable();
        chosen
    }

    fn attrs_of(sel: &[ScoredRatingMap]) -> Vec<u16> {
        sel.iter().map(|m| m.map.key.attr.0).collect()
    }

    #[test]
    fn gmm_selection_pinned_on_fixed_pool() {
        // Regression pin for the engine rewrite (bound pruning, distance
        // cache): exact selections on a fixed 6-map pool must never
        // change, under every engine configuration.
        let pool = vec![
            scored(0, &[&[10, 0, 0, 0, 0]], 0.9),
            scored(1, &[&[9, 1, 0, 0, 0]], 0.8),
            scored(2, &[&[0, 0, 10, 0, 0]], 0.7),
            scored(3, &[&[0, 0, 9, 1, 0]], 0.6),
            scored(4, &[&[0, 0, 0, 0, 10]], 0.5),
            scored(5, &[&[5, 0, 0, 0, 5]], 0.4),
        ];
        let engines = engine_matrix();
        for (k, expect) in [
            (2usize, vec![0u16, 4]),
            (3, vec![0, 2, 4]),
            (4, vec![0, 2, 4, 5]),
            (5, vec![0, 1, 2, 4, 5]),
        ] {
            let sel = select_diverse(pool.clone(), k, SelectionStrategy::DiversityOnly);
            let attrs = attrs_of(&sel);
            assert_eq!(attrs, expect, "k={k}");
            let reference: Vec<u16> = gmm_reference(&pool, k)
                .into_iter()
                .map(|i| pool[i].map.key.attr.0)
                .collect();
            assert_eq!(attrs, reference, "k={k} diverged from reference GMM");
            for (name, engine) in &engines {
                let (sel_e, _) = select_diverse_tracked(
                    pool.clone(),
                    k,
                    SelectionStrategy::DiversityOnly,
                    engine,
                );
                assert_eq!(attrs_of(&sel_e), expect, "k={k} engine={name}");
            }
        }
        // Also sweep the clustered pool against the reference.
        let clustered = clustered_pool();
        for k in 1..clustered.len() {
            let sel = select_diverse(clustered.clone(), k, SelectionStrategy::DiversityOnly);
            let attrs = attrs_of(&sel);
            let reference: Vec<u16> = gmm_reference(&clustered, k)
                .into_iter()
                .map(|i| clustered[i].map.key.attr.0)
                .collect();
            assert_eq!(attrs, reference, "clustered k={k}");
            for (name, engine) in &engines {
                let (sel_e, _) = select_diverse_tracked(
                    clustered.clone(),
                    k,
                    SelectionStrategy::DiversityOnly,
                    engine,
                );
                assert_eq!(attrs_of(&sel_e), attrs, "clustered k={k} engine={name}");
            }
        }
    }

    /// Every bounds × cache configuration under test.
    fn engine_matrix() -> Vec<(&'static str, DistanceEngine)> {
        let cache = || Some(Arc::new(DistanceCache::new(1 << 20)));
        vec![
            ("bounds", DistanceEngine::new()),
            ("no-bounds", DistanceEngine::new().with_bounds(false)),
            ("bounds+cache", DistanceEngine::new().with_cache(cache())),
            (
                "no-bounds+cache",
                DistanceEngine::new().with_bounds(false).with_cache(cache()),
            ),
        ]
    }

    #[test]
    fn gmm_over_a_wide_pool_matches_the_reference() {
        // Diversity-Only over 24 maps: rows of at least 16 candidates, the
        // widest the selector sees, pinned index-for-index against the
        // exhaustive reference under every engine configuration.
        let pool: Vec<ScoredRatingMap> = (0..24u64)
            .map(|i| {
                let a = [i % 7, (i * 3) % 5, (i * 5) % 11, i % 2, (i * 7) % 13];
                let b = [(i * 11) % 6, i % 3, 1, (i * 13) % 9, i % 5];
                scored(i as u16, &[&a, &b], 1.0 / (i + 1) as f64)
            })
            .collect();
        for k in [3usize, 5, 9] {
            let reference: Vec<u16> = gmm_reference(&pool, k)
                .into_iter()
                .map(|i| pool[i].map.key.attr.0)
                .collect();
            for (name, engine) in &engine_matrix() {
                let (sel, _) = select_diverse_tracked(
                    pool.clone(),
                    k,
                    SelectionStrategy::DiversityOnly,
                    engine,
                );
                assert_eq!(attrs_of(&sel), reference, "k={k} engine={name}");
            }
        }
    }

    #[test]
    fn warm_cache_replays_the_same_selection_without_solves() {
        let pool = clustered_pool();
        let cache = Arc::new(DistanceCache::new(1 << 20));
        let engine = DistanceEngine::new().with_cache(Some(cache.clone()));
        let (cold_sel, cold) =
            select_diverse_tracked(pool.clone(), 2, SelectionStrategy::DiversityOnly, &engine);
        assert!(cold.exact_solves > 0);
        let (warm_sel, warm) =
            select_diverse_tracked(pool, 2, SelectionStrategy::DiversityOnly, &engine);
        assert_eq!(attrs_of(&cold_sel), attrs_of(&warm_sel));
        assert_eq!(warm.exact_solves, 0, "every pair must be served warm");
        assert_eq!(warm.cache_hits, cold.exact_solves + cold.cache_hits);
    }

    #[test]
    fn stats_account_for_every_pair() {
        // Pool large enough that GMM does real work; every (pivot, i) pair
        // the update loop visits must be counted exactly once.
        let pool = vec![
            scored(0, &[&[10, 0, 0, 0, 0]], 0.9),
            scored(1, &[&[9, 1, 0, 0, 0]], 0.8),
            scored(2, &[&[0, 0, 10, 0, 0]], 0.7),
            scored(3, &[&[0, 0, 9, 1, 0]], 0.6),
            scored(4, &[&[0, 0, 0, 0, 10]], 0.5),
            scored(5, &[&[5, 0, 0, 0, 5]], 0.4),
        ];
        let n = pool.len() as u64;
        let k = 4u64;
        let (_, stats) = select_diverse_tracked(
            pool,
            k as usize,
            SelectionStrategy::DiversityOnly,
            &DistanceEngine::new(),
        );
        // A row runs after every pick t = 1..=k (including the last) and
        // visits the n - t still-unpicked candidates.
        let expected: u64 = (1..=k).map(|t| n - t).sum();
        assert_eq!(stats.evaluations(), expected);
        assert!(stats.select_time > std::time::Duration::ZERO);
    }

    #[test]
    fn pool_size_per_strategy() {
        assert_eq!(SelectionStrategy::UtilityOnly.pool_size(3, 100), 3);
        assert_eq!(SelectionStrategy::Hybrid { l: 3 }.pool_size(3, 100), 9);
        assert_eq!(SelectionStrategy::DiversityOnly.pool_size(3, 100), 100);
        assert_eq!(
            SelectionStrategy::Hybrid { l: 3 }.pool_size(3, 5),
            5,
            "clamped to available candidates"
        );
    }
}
