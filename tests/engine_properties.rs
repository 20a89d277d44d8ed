//! Property-based tests of the whole engine over random small databases:
//! no panics, correct shapes, pruning soundness relative to the unpruned
//! run.

use proptest::prelude::*;
use std::sync::Arc;
use subdex::prelude::*;
use subdex::store::{Cell, EntityTableBuilder, RatingTableBuilder, Schema};

#[derive(Debug, Clone)]
struct SpecDb {
    reviewers: Vec<(u8, u8)>,
    items: Vec<(u8, u8)>,
    ratings: Vec<(u8, u8, u8, u8)>, // reviewer, item, dim0, dim1
}

fn spec_db() -> impl Strategy<Value = SpecDb> {
    (3usize..10, 3usize..8).prop_flat_map(|(n_rev, n_item)| {
        (
            prop::collection::vec((0u8..3, 0u8..3), n_rev),
            prop::collection::vec((0u8..3, 0u8..3), n_item),
            prop::collection::vec((0..n_rev as u8, 0..n_item as u8, 1u8..=5, 1u8..=5), 8..60),
        )
            .prop_map(|(reviewers, items, ratings)| SpecDb {
                reviewers,
                items,
                ratings,
            })
    })
}

fn build(spec: &SpecDb) -> Arc<SubjectiveDb> {
    let mut us = Schema::new();
    us.add("ua", false);
    us.add("ub", false);
    let mut ub = EntityTableBuilder::new(us);
    for &(a, b) in &spec.reviewers {
        ub.push_row(vec![
            Cell::One(Value::int(i64::from(a))),
            Cell::One(Value::int(i64::from(b))),
        ]);
    }
    let mut is = Schema::new();
    is.add("ia", false);
    is.add("ib", false);
    let mut ib = EntityTableBuilder::new(is);
    for &(a, b) in &spec.items {
        ib.push_row(vec![
            Cell::One(Value::int(i64::from(a))),
            Cell::One(Value::int(i64::from(b))),
        ]);
    }
    let mut rb = RatingTableBuilder::new(vec!["d0".into(), "d1".into()], 5);
    for &(r, i, s0, s1) in &spec.ratings {
        rb.push(u32::from(r), u32::from(i), &[s0, s1]);
    }
    Arc::new(SubjectiveDb::new(
        ub.build(),
        ib.build(),
        rb.build(spec.reviewers.len(), spec.items.len()),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_never_panics_and_keeps_shapes(spec in spec_db(), seed in 0u64..50) {
        let db = build(&spec);
        let cfg = EngineConfig {
            parallel: false,
            max_candidates: 8,
            seed,
            ..EngineConfig::default()
        };
        let mut engine = SdeEngine::new(db.clone(), cfg);
        let mut query = SelectionQuery::all();
        for _ in 0..3 {
            let res = engine.step(&query);
            prop_assert!(res.maps.len() <= 3);
            for sm in &res.maps {
                prop_assert!((0.0..=1.0).contains(&sm.utility), "utility {}", sm.utility);
                prop_assert!(sm.dw_utility <= sm.utility + 1e-12, "DW never exceeds raw");
                prop_assert!(sm.map.subgroup_count() >= 1);
            }
            prop_assert!(res.recommendations.len() <= 3);
            for rec in &res.recommendations {
                prop_assert!(rec.group_size > 0, "empty recommendations are filtered");
            }
            match res.recommendations.first() {
                Some(r) => query = r.query.clone(),
                None => break,
            }
        }
    }

    #[test]
    fn pruned_top1_matches_unpruned_top1(spec in spec_db()) {
        let db = build(&spec);
        let run = |pruning: PruningStrategy| {
            let cfg = EngineConfig {
                parallel: false,
                pruning,
                recommendations: false,
                ..EngineConfig::default()
            };
            let mut engine = SdeEngine::new(db.clone(), cfg);
            let res = engine.step(&SelectionQuery::all());
            res.maps.first().map(|m| m.map.key)
        };
        let unpruned = run(PruningStrategy::None);
        let pruned = run(PruningStrategy::Both);
        prop_assert_eq!(unpruned, pruned, "pruning must keep the top map (w.h.p.)");
    }

    #[test]
    fn user_driven_sessions_never_compute_recommendations(spec in spec_db()) {
        let db = build(&spec);
        let mut s = ExplorationSession::new(
            db,
            EngineConfig { parallel: false, ..EngineConfig::default() },
            ExplorationMode::UserDriven,
        );
        s.apply_operation(&SelectionQuery::all());
        prop_assert!(s.recommendations().is_empty());
    }

    #[test]
    fn recommendation_powered_path_is_independent_of_thread_count(spec in spec_db(), seed in 0u64..50) {
        // The recommendation fan-out hands candidates to whichever worker
        // claims them first; the session must not be able to tell. Each
        // step follows a different-ranked recommendation, so roll-ups,
        // changes and drill-downs all get applied.
        let db = build(&spec);
        let run = |threads: usize| {
            let cfg = EngineConfig {
                parallel: threads > 1,
                threads,
                seed,
                ..EngineConfig::default()
            };
            let mut s = ExplorationSession::new(db.clone(), cfg, ExplorationMode::RecommendationPowered);
            s.apply_operation(&SelectionQuery::all());
            for step in 0..3 {
                let n = s.recommendations().len();
                if n == 0 {
                    break;
                }
                s.apply_recommendation(step % n).expect("recommendation in range");
            }
            (s.path().len(), s.path_signature())
        };
        let serial = run(1);
        prop_assert_eq!(run(2), serial, "2 threads");
        prop_assert_eq!(run(4), serial, "4 threads");
    }

    #[test]
    fn seen_context_grows_monotonically(spec in spec_db()) {
        let db = build(&spec);
        let cfg = EngineConfig {
            parallel: false,
            recommendations: false,
            ..EngineConfig::default()
        };
        let mut engine = SdeEngine::new(db, cfg);
        let mut prev = 0u64;
        for _ in 0..3 {
            let res = engine.step(&SelectionQuery::all());
            let now = engine.seen().total_displayed();
            prop_assert_eq!(now, prev + res.maps.len() as u64);
            prev = now;
        }
    }
}
