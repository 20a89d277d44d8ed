//! Golden exploration paths: short fixed-seed sessions over small generated
//! Yelp and MovieLens databases, one per exploration mode, pinned by their
//! `path_signature`. A change that moves any displayed map, utility bit or
//! recommendation moves a signature; a refactor that claims byte-identical
//! results must leave all three constants alone, on the SIMD and the scalar
//! kernel path (`SUBDEX_KERNEL=scalar`) alike.

use std::sync::Arc;
use subdex::prelude::*;
use subdex::store::AttrValue;

fn cfg(seed: u64) -> EngineConfig {
    EngineConfig {
        threads: 1,
        max_candidates: 12,
        seed,
        ..EngineConfig::default()
    }
}

/// The drill-down into the first subgroup of the step's top map.
fn drill_down(step: &StepResult) -> SelectionQuery {
    let map = &step.maps[0].map;
    step.query.with_added(AttrValue::new(
        map.key.entity,
        map.key.attr,
        map.subgroups[0].value,
    ))
}

#[test]
fn recommendation_powered_yelp_path() {
    let db = Arc::new(subdex::data::yelp::dataset(GenParams::new(300, 30, 3000, 11)).db);
    let mut s = ExplorationSession::new(db, cfg(3), ExplorationMode::RecommendationPowered);
    s.apply_operation(&SelectionQuery::all());
    s.apply_recommendation(0).unwrap();
    s.apply_recommendation(s.recommendations().len() - 1)
        .unwrap();
    assert_eq!(s.path().len(), 3);
    assert_eq!(
        s.path_signature(),
        0xd449_6287_2700_43b0,
        "{:#018x}",
        s.path_signature()
    );
}

#[test]
fn user_driven_movielens_path() {
    let db = Arc::new(subdex::data::movielens::dataset(GenParams::new(200, 60, 2500, 5)).db);
    let mut s = ExplorationSession::new(db, cfg(7), ExplorationMode::UserDriven);
    s.apply_operation(&SelectionQuery::all());
    let next = drill_down(s.current().unwrap());
    s.apply_operation(&next);
    let next = drill_down(s.current().unwrap());
    s.apply_operation(&next);
    assert!(s.recommendations().is_empty());
    assert_eq!(
        s.path_signature(),
        0x7b64_b02f_e160_a947,
        "{:#018x}",
        s.path_signature()
    );
}

#[test]
fn fully_automated_yelp_path() {
    let db = Arc::new(subdex::data::yelp::dataset(GenParams::new(300, 30, 3000, 23)).db);
    let mut s = ExplorationSession::new(db, cfg(0), ExplorationMode::FullyAutomated);
    assert_eq!(s.auto_run(&SelectionQuery::all(), 3), 3);
    assert_eq!(
        s.path_signature(),
        0xd7fb_0123_4be6_5d9f,
        "{:#018x}",
        s.path_signature()
    );
}
