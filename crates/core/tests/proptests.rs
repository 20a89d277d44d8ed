//! Property-based tests for the exploration core.

use proptest::prelude::*;
use std::sync::Arc;
use subdex_core::interest::{agreement_raw, conciseness_raw, self_peculiarity_raw};
use subdex_core::mapdist::{
    lower_bound, map_distance, refined_lower_bound, set_diversity, signature_distance, upper_bound,
    DistScratch, DistanceEngine, MapSignature, SelectionStats,
};
use subdex_core::pruning::{ci_survivors, utility_envelope, SarDecision, SarState};
use subdex_core::ratingmap::{MapKey, RatingMap, ScoredRatingMap, Subgroup};
use subdex_core::selector::{select_diverse, select_diverse_tracked, SelectionStrategy};
use subdex_core::utility::{CriterionScores, DimensionWeights, UtilityCombiner};
use subdex_stats::{ConfidenceInterval, HoeffdingSerfling, RatingDistribution};
use subdex_store::{AttrId, DimId, DistanceCache, Entity, ValueId};

fn subgroups_strategy() -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(prop::collection::vec(0u64..20, 5), 0..8)
}

fn make_map(attr: u16, groups: &[Vec<u64>]) -> RatingMap {
    let subs = groups
        .iter()
        .enumerate()
        .map(|(i, c)| Subgroup {
            value: ValueId(i as u32),
            distribution: RatingDistribution::from_counts(c.clone()),
            avg_score: None,
        })
        .collect();
    RatingMap::from_subgroups(MapKey::new(Entity::Item, AttrId(attr), DimId(0)), subs, 5)
}

fn scored_pool() -> impl Strategy<Value = Vec<ScoredRatingMap>> {
    prop::collection::vec(subgroups_strategy(), 2..8).prop_map(|pools| {
        pools
            .into_iter()
            .enumerate()
            .map(|(i, groups)| ScoredRatingMap {
                map: make_map(i as u16, &groups),
                utility: 1.0 / (i + 1) as f64,
                dw_utility: 1.0 / (i + 1) as f64,
                criteria: CriterionScores::default(),
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn rating_map_invariants(groups in subgroups_strategy()) {
        let map = make_map(0, &groups);
        // Subgroups sorted by descending average.
        for w in map.subgroups.windows(2) {
            prop_assert!(w[0].avg_score.unwrap() >= w[1].avg_score.unwrap() - 1e-12);
        }
        // No empty subgroups survive; overall = sum of subgroups.
        let mut total = 0u64;
        for sg in &map.subgroups {
            prop_assert!(!sg.distribution.is_empty());
            total += sg.distribution.total();
        }
        prop_assert_eq!(map.overall.total(), total);
    }

    #[test]
    fn map_distance_is_bounded_symmetric(a in subgroups_strategy(), b in subgroups_strategy()) {
        let ma = make_map(0, &a);
        let mb = make_map(1, &b);
        let d = map_distance(&ma, &mb);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&d), "d = {d}");
        prop_assert!((d - map_distance(&mb, &ma)).abs() < 1e-7);
        prop_assert!(map_distance(&ma, &ma) < 1e-7);
    }

    #[test]
    fn gmm_is_2_approximation(pool in scored_pool(), k in 2usize..4) {
        prop_assume!(pool.len() > k);
        // Optimal min-pairwise over all k-subsets (pool ≤ 7, k ≤ 3: cheap).
        let maps: Vec<&RatingMap> = pool.iter().map(|m| &m.map).collect();
        let n = maps.len();
        let mut opt = 0.0f64;
        let mut idx = vec![0usize; k];
        fn subsets(n: usize, k: usize, start: usize, idx: &mut Vec<usize>, pos: usize, best: &mut f64, maps: &[&RatingMap]) {
            if pos == k {
                let sel: Vec<&RatingMap> = idx.iter().map(|&i| maps[i]).collect();
                let d = set_diversity(&sel);
                if d > *best {
                    *best = d;
                }
                return;
            }
            for i in start..n {
                idx[pos] = i;
                subsets(n, k, i + 1, idx, pos + 1, best, maps);
            }
        }
        subsets(n, k, 0, &mut idx, 0, &mut opt, &maps);
        let sel = select_diverse(pool, k, SelectionStrategy::DiversityOnly);
        let got = set_diversity(&sel.iter().map(|m| &m.map).collect::<Vec<_>>());
        prop_assert!(got * 2.0 + 1e-9 >= opt, "GMM {got} vs OPT {opt}");
    }

    #[test]
    fn select_diverse_returns_k_and_preserves_pool_order(pool in scored_pool(), k in 1usize..5) {
        let n = pool.len();
        let out = select_diverse(pool, k, SelectionStrategy::Hybrid { l: 3 });
        prop_assert_eq!(out.len(), k.min(n));
        for w in out.windows(2) {
            prop_assert!(w[0].dw_utility >= w[1].dw_utility - 1e-12, "pool order kept");
        }
    }

    #[test]
    fn envelope_contains_the_max_criterion(
        intervals in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..5),
        weight in 0.0f64..1.0,
    ) {
        let cis: Vec<ConfidenceInterval> = intervals
            .iter()
            .map(|&(a, b)| ConfidenceInterval::new(a.min(b), a.max(b)))
            .collect();
        let env = utility_envelope(&mut cis.clone(), weight);
        // The true max of any point values drawn from the intervals lies in
        // the envelope: check the extreme cases.
        let max_of_his = cis.iter().fold(0.0f64, |m, c| m.max(c.hi)) * weight;
        let max_of_los = cis.iter().fold(0.0f64, |m, c| m.max(c.lo)) * weight;
        prop_assert!(env.hi >= max_of_his - 1e-12);
        prop_assert!(env.lo <= max_of_los + 1e-12, "paper's lb is conservative");
    }

    #[test]
    fn hoisted_interval_equals_per_call_interval(
        n in 4u64..100_000,
        delta in 0.001f64..0.5,
        (c, a, sp, g) in (-0.5f64..1.5, -0.5f64..1.5, -0.5f64..1.5, -0.5f64..1.5),
        weight in 0.0f64..1.0,
    ) {
        let scores = [c, a, sp, g];
        // The generator computes the Hoeffding–Serfling width once per
        // phase and builds the four criterion intervals from it; that must
        // give the bits `HoeffdingSerfling::interval` gives per call, and
        // the bits of its formula written out here, at every boundary of
        // the width: nothing seen, the ln ln clamp, a partial and a full
        // population.
        let hs = HoeffdingSerfling::new(n, delta);
        for samples in [0, 1, 2, 3, n - 1, n, n + 1] {
            let eps = hs.half_width(samples);
            let hoisted = scores.map(|s| ConfidenceInterval::around_unit(s, eps));
            for (s, h) in scores.iter().zip(&hoisted) {
                let per_call = hs.interval(*s, samples);
                let formula = if eps.is_infinite() {
                    ConfidenceInterval::new(0.0, 1.0)
                } else {
                    ConfidenceInterval::new(s - eps, s + eps).clamp_unit()
                };
                for oracle in [per_call, formula] {
                    prop_assert_eq!(h.lo.to_bits(), oracle.lo.to_bits(), "samples {}", samples);
                    prop_assert_eq!(h.hi.to_bits(), oracle.hi.to_bits(), "samples {}", samples);
                }
            }
            let mut per_call: Vec<ConfidenceInterval> =
                scores.iter().map(|&s| hs.interval(s, samples)).collect();
            let a = utility_envelope(&mut hoisted.clone(), weight);
            let b = utility_envelope(&mut per_call, weight);
            prop_assert_eq!((a.lo.to_bits(), a.hi.to_bits()), (b.lo.to_bits(), b.hi.to_bits()));
        }
    }

    #[test]
    fn ci_survivors_never_prunes_top_k(
        mut bounds in prop::collection::vec((0.0f64..1.0, 0.0f64..0.3), 2..12),
        k in 1usize..6,
    ) {
        let envelopes: Vec<ConfidenceInterval> = bounds
            .drain(..)
            .map(|(mid, half)| ConfidenceInterval::new((mid - half).max(0.0), (mid + half).min(1.0)))
            .collect();
        let keep = ci_survivors(&envelopes, k);
        prop_assert_eq!(keep.len(), envelopes.len());
        // The k highest upper bounds always survive.
        let mut order: Vec<usize> = (0..envelopes.len()).collect();
        order.sort_by(|&a, &b| envelopes[b].hi.partial_cmp(&envelopes[a].hi).unwrap());
        for &i in order.iter().take(k) {
            prop_assert!(keep[i], "top-k by upper bound must be kept");
        }
        // Anything pruned is strictly below the k-th lower bound.
        let lowest_lb = order
            .iter()
            .take(k)
            .map(|&i| envelopes[i].lo)
            .fold(f64::INFINITY, f64::min);
        for (i, &kept) in keep.iter().enumerate() {
            if !kept {
                prop_assert!(envelopes[i].hi < lowest_lb);
            }
        }
    }

    #[test]
    fn sar_terminates_and_keeps_slots(means in prop::collection::vec(0.0f64..1.0, 2..20), k in 1usize..6) {
        let mut sar = SarState::new(k);
        let mut active: Vec<(usize, f64)> = means.iter().copied().enumerate().collect();
        let mut accepted = 0usize;
        for _ in 0..means.len() * 2 {
            match sar.decide(&active) {
                SarDecision::Accept(i) => {
                    accepted += 1;
                    active.retain(|&(j, _)| j != i);
                }
                SarDecision::Reject(i) => active.retain(|&(j, _)| j != i),
                SarDecision::Nothing => break,
            }
        }
        prop_assert!(accepted <= k);
        prop_assert!(active.len() + accepted >= k.min(means.len()));
    }

    #[test]
    fn dimension_weights_sum_property(shows in prop::collection::vec(0u16..4, 0..40)) {
        let mut w = DimensionWeights::new(4);
        for &d in &shows {
            w.record_shown(DimId(d));
        }
        if !shows.is_empty() {
            let sum: f64 = (0..4).map(|d| w.fraction(DimId(d))).sum();
            prop_assert!((sum - 1.0).abs() < 1e-9, "fractions sum to 1");
            for d in 0..4 {
                let f = w.dw_factor(DimId(d));
                prop_assert!((0.0..=1.0).contains(&f));
            }
        }
    }

    #[test]
    fn combiner_bounds(c in 0.0f64..1.0, a in 0.0f64..1.0, s in 0.0f64..1.0, g in 0.0f64..1.0) {
        let scores = CriterionScores {
            conciseness: c,
            agreement: a,
            self_peculiarity: s,
            global_peculiarity: g,
        };
        let max = UtilityCombiner::Max.combine(&scores);
        let avg = UtilityCombiner::Average.combine(&scores);
        prop_assert!(avg <= max + 1e-12, "avg never exceeds max");
        prop_assert!((0.0..=1.0).contains(&max));
        for crit in subdex_core::interest::ALL_CRITERIA {
            let single = UtilityCombiner::Single(crit).combine(&scores);
            prop_assert!(single <= max + 1e-12);
        }
    }

    #[test]
    fn sessionlog_deserialize_never_panics(text in ".{0,200}") {
        // Needs a database for schema resolution; a minimal one suffices.
        use subdex_store::{Cell, EntityTableBuilder, RatingTableBuilder, Schema};
        let mut us = Schema::new();
        us.add("a", false);
        let mut ub = EntityTableBuilder::new(us);
        ub.push_row(vec![Cell::from("x")]);
        let mut is = Schema::new();
        is.add("b", false);
        let mut ib = EntityTableBuilder::new(is);
        ib.push_row(vec![Cell::from("y")]);
        let mut rb = RatingTableBuilder::new(vec!["overall".into()], 5);
        rb.push(0, 0, &[3]);
        let db = subdex_store::SubjectiveDb::new(ub.build(), ib.build(), rb.build(1, 1));
        let _ = subdex_core::sessionlog::SessionLog::deserialize(&db, &text);
        let with_header = format!("#subdex-session v1\n{text}");
        let _ = subdex_core::sessionlog::SessionLog::deserialize(&db, &with_header);
    }

    #[test]
    fn candidate_enumeration_respects_cap_and_kinds(cap in 1usize..20) {
        use subdex_store::{Cell, EntityTableBuilder, RatingTableBuilder, Schema, SelectionQuery};
        let mut us = Schema::new();
        us.add("a", false);
        let mut ub = EntityTableBuilder::new(us);
        for i in 0..6 {
            ub.push_row(vec![Cell::from(["x", "y", "z"][i % 3])]);
        }
        let mut is = Schema::new();
        is.add("b", false);
        let mut ib = EntityTableBuilder::new(is);
        for i in 0..4 {
            ib.push_row(vec![Cell::from(["p", "q"][i % 2])]);
        }
        let mut rb = RatingTableBuilder::new(vec!["overall".into()], 5);
        for r in 0..6u32 {
            for i in 0..4u32 {
                rb.push(r, i, &[1 + ((r + i) % 5) as u8]);
            }
        }
        let db = subdex_store::SubjectiveDb::new(ub.build(), ib.build(), rb.build(6, 4));
        let p = db
            .pred(subdex_store::Entity::Reviewer, "a", &subdex_store::Value::str("x"))
            .unwrap();
        let q = SelectionQuery::from_preds(vec![p]);
        // Use a generated pool of displayed maps.
        let group = db.rating_group(&q, 1);
        let seen = subdex_core::SeenContext::new(1);
        let mut norms = subdex_core::generator::CriterionNormalizers::new();
        let gcfg = subdex_core::generator::GeneratorConfig {
            pruning: subdex_core::PruningStrategy::None,
            ..Default::default()
        };
        let pool = subdex_core::generator::generate(&db, &group, &q, &seen, &mut norms, &gcfg, 1).pool;
        let cfg = subdex_core::recommend::RecommendConfig {
            max_candidates: cap,
            ..Default::default()
        };
        let cands = subdex_core::recommend::enumerate_candidates(&db, &q, &pool, &cfg);
        prop_assert!(cands.len() <= cap);
        // The roll-up must survive any cap ≥ 2 (kind interleaving).
        if cap >= 2 && !cands.is_empty() {
            prop_assert!(
                cands.iter().any(|c| c.len() < q.len() || c.is_empty()),
                "roll-up must survive the cap"
            );
        }
    }

    #[test]
    fn bounds_sandwich_exact_distance(a in subgroups_strategy(), b in subgroups_strategy()) {
        let (ma, mb) = (make_map(0, &a), make_map(1, &b));
        let (sa, sb) = (MapSignature::of(&ma), MapSignature::of(&mb));
        let mut scratch = DistScratch::default();
        let exact = signature_distance(&sa, &sb, &mut scratch);
        prop_assert_eq!(exact.to_bits(), map_distance(&ma, &mb).to_bits());
        let lo = lower_bound(&sa, &sb);
        let lo_refined = refined_lower_bound(&sa, &sb, &mut scratch);
        let hi = upper_bound(&sa, &sb, &mut scratch);
        prop_assert!(lo <= exact + 1e-9, "mixture {lo} > exact {exact}");
        prop_assert!(lo <= lo_refined + 1e-12, "refining must not loosen");
        prop_assert!(lo_refined <= exact + 1e-9, "refined {lo_refined} > exact {exact}");
        prop_assert!(exact <= hi + 1e-9, "exact {exact} > upper {hi}");
    }

    #[test]
    fn lower_bound_tight_for_single_subgroup_maps(
        a in prop::collection::vec(0u64..20, 5),
        b in prop::collection::vec(0u64..20, 5),
    ) {
        // One subgroup per side: the mixture is the lone subgroup, so the
        // centroid bound and the exact distance coincide.
        let ma = make_map(0, std::slice::from_ref(&a));
        let mb = make_map(1, std::slice::from_ref(&b));
        let (sa, sb) = (MapSignature::of(&ma), MapSignature::of(&mb));
        let exact = map_distance(&ma, &mb);
        prop_assert!((lower_bound(&sa, &sb) - exact).abs() < 1e-9);
    }

    #[test]
    fn gmm_byte_identical_across_engine_configs(pool in scored_pool(), k in 1usize..5) {
        // bounds × cache must all reproduce the default engine's
        // selection exactly, and warm cache replays must too.
        let reference: Vec<MapKey> = select_diverse(pool.clone(), k, SelectionStrategy::DiversityOnly)
            .iter()
            .map(|m| m.map.key)
            .collect();
        let shared = Arc::new(DistanceCache::new(1 << 20));
        let engines = [
            DistanceEngine::new().with_bounds(false),
            DistanceEngine::new().with_cache(Some(shared.clone())),
            DistanceEngine::new().with_bounds(false).with_cache(Some(shared)),
        ];
        for (i, engine) in engines.iter().enumerate() {
            let (sel, stats) = select_diverse_tracked(
                pool.clone(),
                k,
                SelectionStrategy::DiversityOnly,
                engine,
            );
            let keys: Vec<MapKey> = sel.iter().map(|m| m.map.key).collect();
            prop_assert_eq!(&keys, &reference, "engine #{} diverged", i);
            let _ = stats.evaluations();
        }
    }

    #[test]
    fn engine_pruning_never_changes_the_minimum(
        a in subgroups_strategy(),
        b in subgroups_strategy(),
        current_min in 0.0f64..1.0,
    ) {
        // Whenever the engine prunes a pair against current_min, the exact
        // distance must indeed be >= current_min (so min() is unchanged).
        let (sa, sb) = (MapSignature::of(&make_map(0, &a)), MapSignature::of(&make_map(1, &b)));
        let mut scratch = DistScratch::default();
        let mut stats = SelectionStats::default();
        let engine = DistanceEngine::new();
        match engine.evaluate_against(&sa, &sb, current_min, &mut scratch, &mut stats) {
            Some(d) => {
                prop_assert_eq!(
                    d.to_bits(),
                    signature_distance(&sa, &sb, &mut scratch).to_bits()
                );
            }
            None => {
                let exact = signature_distance(&sa, &sb, &mut scratch);
                prop_assert!(
                    exact >= current_min,
                    "pruned pair with exact {exact} < min {current_min}"
                );
            }
        }
    }

    #[test]
    fn raw_criteria_ranges(groups in subgroups_strategy()) {
        let dists: Vec<RatingDistribution> = groups
            .iter()
            .map(|c| RatingDistribution::from_counts(c.clone()))
            .filter(|d| !d.is_empty())
            .collect();
        let mut overall = RatingDistribution::new(5);
        for d in &dists {
            overall.merge(d);
        }
        let records: u64 = overall.total();
        let conc = conciseness_raw(records, dists.len());
        prop_assert!(conc >= 0.0);
        let agr = agreement_raw(&dists);
        prop_assert!((0.0..=1.0).contains(&agr));
        let pec = self_peculiarity_raw(&dists, &overall);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&pec));
    }
}
