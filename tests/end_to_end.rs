//! Cross-crate integration: store → data → core, end to end.

use std::sync::Arc;
use subdex::prelude::*;
use subdex::store::DimId;

fn yelp_small() -> subdex::data::datasets::Dataset {
    subdex::data::yelp::dataset(GenParams::new(600, 60, 6000, 99))
}

#[test]
fn full_pipeline_generates_and_explores() {
    let ds = yelp_small();
    let db = Arc::new(ds.db);
    let mut engine = SdeEngine::new(db.clone(), EngineConfig::default());

    let step0 = engine.step(&SelectionQuery::all());
    assert_eq!(step0.maps.len(), 3, "k = 3 maps");
    assert!(step0.recommendations.len() <= 3 && !step0.recommendations.is_empty());
    assert_eq!(step0.group_size, 6000);

    // The recommendations are genuine small edits and lead to non-empty
    // groups with their own maps.
    for rec in &step0.recommendations {
        assert!(rec.group_size > 0);
        assert!(rec.utility >= 0.0);
        assert!(!rec.maps.is_empty());
    }

    // Follow the top recommendation: engine state carries over.
    let next_q = step0.recommendations[0].query.clone();
    let step1 = engine.step(&next_q);
    assert_eq!(step1.step, 1);
    assert_eq!(
        engine.seen().total_displayed(),
        (step0.maps.len() + step1.maps.len()) as u64
    );
}

#[test]
fn maps_render_like_figure3() {
    let ds = yelp_small();
    let db = Arc::new(ds.db);
    let mut engine = SdeEngine::new(db.clone(), EngineConfig::default());
    let res = engine.step(&SelectionQuery::all());
    let rendered = res.maps[0].map.render(&db);
    assert!(rendered.contains("GROUPBY"), "{rendered}");
    assert!(rendered.contains("rating distribution"));
    // One row per subgroup.
    let rows = rendered.lines().count() - 2; // header lines
    assert_eq!(rows, res.maps[0].map.subgroup_count());
}

#[test]
fn session_modes_integrate() {
    let ds = yelp_small();
    let db = Arc::new(ds.db);

    let mut fa = ExplorationSession::new(
        db.clone(),
        EngineConfig {
            max_candidates: 12,
            ..EngineConfig::default()
        },
        ExplorationMode::FullyAutomated,
    );
    let n = fa.auto_run(&SelectionQuery::all(), 4);
    assert_eq!(n, 4);
    // The path visits distinct queries.
    let queries: std::collections::HashSet<_> = fa.path().iter().map(|s| s.query.clone()).collect();
    assert!(queries.len() >= 2, "path should move somewhere");
}

#[test]
fn csv_round_trip_of_generated_dataset() {
    let ds = subdex::data::movielens::dataset(GenParams::new(80, 50, 800, 3));
    let (u_csv, i_csv, r_csv) = subdex::store::csv::db_to_csv(&ds.db);
    let u = subdex::store::csv::entity_from_csv(&u_csv, &[]).unwrap();
    let i = subdex::store::csv::entity_from_csv(&i_csv, &["genre"]).unwrap();
    let r = subdex::store::csv::ratings_from_csv(&r_csv, 5, u.len(), i.len()).unwrap();
    let db2 = SubjectiveDb::new(u, i, r);
    assert_eq!(db2.stats(), ds.db.stats());
}

#[test]
fn engine_on_single_dimension_dataset() {
    // MovieLens has one dimension: Equation 1 must not zero everything.
    let ds = subdex::data::movielens::dataset(GenParams::new(150, 80, 2000, 5));
    let db = Arc::new(ds.db);
    let mut engine = SdeEngine::new(db, EngineConfig::default());
    for _ in 0..3 {
        let res = engine.step(&SelectionQuery::all());
        assert_eq!(res.maps.len(), 3);
        assert!(
            res.maps.iter().any(|m| m.dw_utility > 0.0),
            "single-dim utilities must stay positive"
        );
        assert!(res.maps.iter().all(|m| m.map.key.dim == DimId(0)));
    }
}

#[test]
fn empty_selection_is_graceful() {
    let ds = yelp_small();
    let db = Arc::new(ds.db);
    let male = db
        .pred(Entity::Reviewer, "gender", &Value::str("male"))
        .unwrap();
    let female = db
        .pred(Entity::Reviewer, "gender", &Value::str("female"))
        .unwrap();
    let q = SelectionQuery::from_preds(vec![male, female]);
    let mut engine = SdeEngine::new(db, EngineConfig::default());
    let res = engine.step(&q);
    assert_eq!(res.group_size, 0);
    assert!(res.maps.is_empty());
}

#[test]
fn pruning_variants_agree_on_top_map() {
    let ds = yelp_small();
    let db = Arc::new(ds.db);
    let mut tops = Vec::new();
    for cfg in [
        EngineConfig::no_pruning(),
        EngineConfig::ci_pruning(),
        EngineConfig::mab_pruning(),
        EngineConfig::subdex(),
    ] {
        let mut engine = SdeEngine::new(
            db.clone(),
            EngineConfig {
                recommendations: false,
                threads: 1,
                ..cfg
            },
        );
        let res = engine.step(&SelectionQuery::all());
        tops.push(res.maps[0].map.key);
    }
    assert!(
        tops.iter().all(|&k| k == tops[0]),
        "all variants should surface the same top map: {tops:?}"
    );
}

#[test]
fn sentiment_pipeline_to_database() {
    // Build a tiny subjective DB whose scores come from the review-text
    // pipeline, then explore it — the paper's Yelp ingestion, end to end.
    use subdex::data::reviews::{extract_score, generate_corpus};
    use subdex::store::{Cell, EntityTableBuilder, RatingTableBuilder, Schema};

    let corpus = generate_corpus(120, &["food", "service"], 8);
    let mut us = Schema::new();
    us.add("segment", false);
    let mut ub = EntityTableBuilder::new(us);
    for i in 0..30 {
        ub.push_row(vec![Cell::from(if i % 2 == 0 { "a" } else { "b" })]);
    }
    let mut is = Schema::new();
    is.add("kind", false);
    let mut ib = EntityTableBuilder::new(is);
    for i in 0..4 {
        ib.push_row(vec![Cell::from(["x", "y", "z", "w"][i])]);
    }
    let mut rb = RatingTableBuilder::new(vec!["food".into(), "service".into()], 5);
    for (n, (text, _)) in corpus.iter().enumerate() {
        let food = extract_score(text, "food", 5).unwrap_or(3);
        let service = extract_score(text, "service", 5).unwrap_or(3);
        rb.push((n % 30) as u32, (n % 4) as u32, &[food, service]);
    }
    let db = Arc::new(SubjectiveDb::new(ub.build(), ib.build(), rb.build(30, 4)));
    let mut engine = SdeEngine::new(db, EngineConfig::default());
    let res = engine.step(&SelectionQuery::all());
    assert!(!res.maps.is_empty());
    assert_eq!(res.group_size, 120);
}
