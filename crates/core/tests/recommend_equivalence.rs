//! Property tests pinning the derived-group materialization layer: over
//! randomized databases, (1) deriving a refinement's columns from the
//! parent's gathered columns must be byte-identical to the full
//! posting-list walk for any added predicate on either entity side,
//! (2) `collect_group_records` must emit ascending record ids no matter
//! which entity side drives the walk, and (3) the recommendation builder
//! must produce identical output with and without the parent's columns,
//! serially and in parallel.

use proptest::prelude::*;
use proptest::strategy::Just;

use subdex_core::generator::{self, CriterionNormalizers, GeneratorConfig};
use subdex_core::ratingmap::ScoredRatingMap;
use subdex_core::recommend::{recommend, RecommendConfig, RecommendScratch, Recommendation};
use subdex_core::{PruningStrategy, SeenContext};
use subdex_store::{
    table::EntityTableBuilder, AttrValue, Cell, Entity, Schema, SelectionQuery, SubjectiveDb, Value,
};

const SCALE: u8 = 5;

/// Blueprint for one randomized database (same shape as
/// `scan_equivalence.rs`).
#[derive(Debug, Clone)]
struct DbSpec {
    reviewer_attr: Vec<usize>,
    item_city: Vec<usize>,
    item_tags: Vec<Vec<bool>>,
    dims: usize,
    ratings: Vec<(u32, u32, Vec<u8>)>,
}

fn db_spec() -> impl Strategy<Value = DbSpec> {
    (2usize..8, 2usize..6, 1usize..=2)
        .prop_flat_map(|(n_reviewers, n_items, dims)| {
            (
                prop::collection::vec(0usize..3, n_reviewers),
                prop::collection::vec(0usize..3, n_items),
                prop::collection::vec(prop::collection::vec(prop::bool::ANY, 3usize), n_items),
                Just(dims),
                prop::collection::vec(
                    (
                        0..n_reviewers as u32,
                        0..n_items as u32,
                        prop::collection::vec(1u8..=SCALE, dims),
                    ),
                    1..40,
                ),
            )
        })
        .prop_map(|(reviewer_attr, item_city, item_tags, dims, mut ratings)| {
            let mut seen = std::collections::HashSet::new();
            ratings.retain(|&(r, i, _)| seen.insert((r, i)));
            DbSpec {
                reviewer_attr,
                item_city,
                item_tags,
                dims,
                ratings,
            }
        })
}

fn build_db(spec: &DbSpec) -> SubjectiveDb {
    let mut us = Schema::new();
    us.add("group", false);
    let mut ub = EntityTableBuilder::new(us);
    for &v in &spec.reviewer_attr {
        ub.push_row(vec![Cell::from(["a", "b", "c"][v])]);
    }
    let mut is = Schema::new();
    is.add("city", false);
    is.add("tags", true);
    let mut ib = EntityTableBuilder::new(is);
    for (&city, tags) in spec.item_city.iter().zip(&spec.item_tags) {
        let tag_values = ["t0", "t1", "t2"]
            .iter()
            .zip(tags)
            .filter(|(_, &on)| on)
            .map(|(t, _)| Value::str(*t))
            .collect();
        ib.push_row(vec![
            Cell::from(["NYC", "SF", "LA"][city]),
            Cell::Many(tag_values),
        ]);
    }
    let dim_names = (0..spec.dims).map(|d| format!("d{d}")).collect();
    let mut rb = subdex_store::ratings::RatingTableBuilder::new(dim_names, SCALE);
    for (r, i, scores) in &spec.ratings {
        rb.push(*r, *i, scores);
    }
    SubjectiveDb::new(
        ub.build(),
        ib.build(),
        rb.build(spec.reviewer_attr.len(), spec.item_city.len()),
    )
}

/// Every predicate the randomized schema can express, resolved against the
/// database's dictionaries (values absent from a given instance drop out).
fn candidate_preds(db: &SubjectiveDb) -> Vec<AttrValue> {
    let mut preds = Vec::new();
    for v in ["a", "b", "c"] {
        preds.extend(db.pred(Entity::Reviewer, "group", &Value::str(v)));
    }
    for v in ["NYC", "SF", "LA"] {
        preds.extend(db.pred(Entity::Item, "city", &Value::str(v)));
    }
    for v in ["t0", "t1", "t2"] {
        preds.extend(db.pred(Entity::Item, "tags", &Value::str(v)));
    }
    preds
}

fn parent_query(preds: &[AttrValue], mask: &[bool]) -> SelectionQuery {
    SelectionQuery::from_preds(
        preds
            .iter()
            .zip(mask.iter().cycle())
            .filter(|(_, &on)| on)
            .map(|(p, _)| *p),
    )
}

fn displayed(db: &SubjectiveDb, q: &SelectionQuery) -> Vec<ScoredRatingMap> {
    let group = db.rating_group(q, 3);
    let seen = SeenContext::new(db.ratings().dim_count());
    let mut norms = CriterionNormalizers::new();
    let cfg = GeneratorConfig {
        pruning: PruningStrategy::None,
        phases: 4,
        ..GeneratorConfig::default()
    };
    let out = generator::generate(db, &group, q, &seen, &mut norms, &cfg, 1);
    out.pool.into_iter().take(3).collect()
}

fn fingerprint(recs: &[Recommendation]) -> Vec<(SelectionQuery, u64, usize)> {
    recs.iter()
        .map(|r| (r.query.clone(), r.utility.to_bits(), r.group_size))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Deriving a refinement from the parent's columns is byte-identical to
    /// the full walk, for every parent query and added predicate (both
    /// entity sides, single- and multi-valued attributes, including
    /// contradictory additions that empty the group).
    #[test]
    fn derived_refinement_equals_full_walk(
        spec in db_spec(),
        mask in prop::collection::vec(prop::bool::ANY, 9),
    ) {
        let db = build_db(&spec);
        let preds = candidate_preds(&db);
        prop_assume!(!preds.is_empty());
        let parent = parent_query(&preds, &mask);
        let parent_cols = db.collect_group_columns(&parent);
        for &pred in &preds {
            let child = parent.with_added(pred);
            let derived = db.derive_refinement_columns_multi(&parent_cols, &[pred]);
            let walked = db.collect_group_columns(&child);
            prop_assert_eq!(derived, walked, "parent {:?} + {:?}", &parent, pred);
        }
    }

    /// The canonical pre-shuffle walk order is ascending record id no
    /// matter which entity side drives the adjacency walk.
    #[test]
    fn walk_order_is_ascending(
        spec in db_spec(),
        mask in prop::collection::vec(prop::bool::ANY, 9),
    ) {
        let db = build_db(&spec);
        let preds = candidate_preds(&db);
        prop_assume!(!preds.is_empty());
        let q = parent_query(&preds, &mask);
        let recs = db.collect_group_records(&q);
        prop_assert!(recs.windows(2).all(|w| w[0] < w[1]), "{:?}: {:?}", &q, &recs);
    }

    /// The recommendation builder's full output (queries, bit-exact
    /// utilities, group sizes) is identical with and without the parent's
    /// columns (derived vs walked/probed candidate groups), sequential or
    /// parallel, and over a fresh or a reused scratch. Its materialization
    /// counters do not depend on the schedule, and derivation changes only
    /// which path built each group, never how many groups were needed.
    #[test]
    fn recommend_identical_across_derive_parallel(
        spec in db_spec(),
        mask in prop::collection::vec(prop::bool::ANY, 9),
        seed in 0u64..1000,
    ) {
        let db = build_db(&spec);
        let preds = candidate_preds(&db);
        prop_assume!(!preds.is_empty());
        let query = parent_query(&preds, &mask);
        let parent_cols = db.collect_group_columns(&query);
        let maps = displayed(&db, &query);
        let seen = SeenContext::new(db.ratings().dim_count());
        let norms = CriterionNormalizers::new();
        let gen_cfg = GeneratorConfig {
            pruning: PruningStrategy::None,
            phases: 4,
            ..GeneratorConfig::default()
        };
        let cfg = RecommendConfig {
            max_candidates: 16,
            ..RecommendConfig::default()
        };
        let run = |derive: bool, threads: usize, scratch: &mut RecommendScratch| {
            let (recs, m, _) = recommend(
                &db,
                &query,
                &maps,
                &seen,
                &norms,
                &gen_cfg,
                &cfg,
                threads,
                seed,
                derive.then_some(&parent_cols),
                None,
                scratch,
            );
            (fingerprint(&recs), m)
        };

        let (reference, walked) = run(false, 1, &mut RecommendScratch::default());
        prop_assert_eq!(walked.derived, 0);
        let mut reused = RecommendScratch::default();
        for derive in [false, true] {
            let (_, serial) = run(derive, 1, &mut RecommendScratch::default());
            for threads in [1, 3] {
                for pass in 0..2 {
                    let (fp, m) = run(derive, threads, &mut reused);
                    prop_assert_eq!(
                        &fp,
                        &reference,
                        "derive={} threads={} pass={}",
                        derive,
                        threads,
                        pass
                    );
                    prop_assert_eq!(m, serial, "counters depend on the schedule");
                    prop_assert_eq!(m.total(), walked.total(), "same groups needed");
                }
            }
        }
    }
}
