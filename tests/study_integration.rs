//! Integration of the simulated user study with the full stack, checking
//! the *shape* of the paper's findings on a small workload.

use std::collections::HashSet;
use subdex::prelude::*;
use subdex::sim::study::{run_study, run_subject, StudyConfig};
use subdex::sim::subject::{CsExpertise, DomainKnowledge, SubjectProfile};
use subdex::sim::workload::{Scenario, Workload};

fn workload() -> Workload {
    let raw = subdex::data::yelp::generate(GenParams::new(800, 93, 8000, 55));
    Workload::scenario1(
        raw,
        &IrregularSpec {
            reviewer_groups: 1,
            item_groups: 1,
            min_members: 5,
            min_item_members: 5,
            seed: 12,
        },
    )
}

fn cfg(subjects: usize) -> StudyConfig {
    StudyConfig {
        subjects_per_cell: subjects,
        steps: Some(6),
        engine: EngineConfig {
            threads: 1,
            max_candidates: 12,
            ..EngineConfig::default()
        },
        base_seed: 4242,
    }
}

#[test]
fn study_produces_full_figure7_grid() {
    let w = workload();
    let res = run_study(&w, &cfg(8));
    assert_eq!(res.scenario, Scenario::IrregularGroups);
    assert_eq!(res.cells.len(), 4);
    // All six (cell, mode) columns populated with bounded scores.
    for cell in &res.cells {
        for mode in &cell.modes {
            assert_eq!(mode.scores.len(), 8);
            let s = mode.summary();
            assert!(s.mean >= 0.0 && s.mean <= 2.0);
        }
    }
}

#[test]
fn recommendation_powered_dominates_on_average() {
    // The paper's central qualitative finding: RP beats both UD and FA.
    // Averaged over enough subjects this must emerge from the mechanism.
    let w = workload();
    let res = run_study(&w, &cfg(12));
    let rp_high = res.mean(
        CsExpertise::High,
        DomainKnowledge::Low,
        ExplorationMode::RecommendationPowered,
    );
    let ud_high = res.mean(
        CsExpertise::High,
        DomainKnowledge::Low,
        ExplorationMode::UserDriven,
    );
    let rp_low = res.mean(
        CsExpertise::Low,
        DomainKnowledge::Low,
        ExplorationMode::RecommendationPowered,
    );
    let fa_low = res.mean(
        CsExpertise::Low,
        DomainKnowledge::Low,
        ExplorationMode::FullyAutomated,
    );
    assert!(
        rp_high >= ud_high,
        "RP ({rp_high:.2}) should not lose to UD ({ud_high:.2})"
    );
    assert!(
        rp_low >= fa_low,
        "RP ({rp_low:.2}) should not lose to FA ({fa_low:.2})"
    );
}

#[test]
fn domain_knowledge_is_not_significant() {
    let w = workload();
    let res = run_study(&w, &cfg(10));
    for cs in [CsExpertise::High, CsExpertise::Low] {
        for mode in subdex::sim::study::modes_for(cs) {
            if let Some(a) = res.domain_effect(cs, mode) {
                assert!(
                    !a.significant_at(0.01),
                    "domain knowledge should not matter: {cs:?}/{mode} p={}",
                    a.p_value
                );
            }
        }
    }
}

#[test]
fn second_run_excludes_first_finds() {
    let w = workload();
    let profile = SubjectProfile::new(CsExpertise::High, DomainKnowledge::High, 5);
    let engine = cfg(1).engine;
    let first = run_subject(
        &w,
        ExplorationMode::RecommendationPowered,
        &profile,
        6,
        &engine,
        &HashSet::new(),
    );
    let exclude: HashSet<usize> = first.found.iter().map(|&(t, _)| t).collect();
    let second = run_subject(
        &w,
        ExplorationMode::RecommendationPowered,
        &profile,
        6,
        &engine,
        &exclude,
    );
    for (t, _) in &second.found {
        assert!(
            !exclude.contains(t),
            "second run must find *different* targets"
        );
    }
}

#[test]
fn scenario2_subjects_extract_insights() {
    let ds = subdex::data::yelp::dataset(GenParams::new(1500, 93, 15_000, 55));
    let w = Workload::scenario2(ds);
    let profile = SubjectProfile::new(CsExpertise::High, DomainKnowledge::High, 9);
    let out = run_subject(
        &w,
        ExplorationMode::RecommendationPowered,
        &profile,
        10,
        &cfg(1).engine,
        &HashSet::new(),
    );
    assert!(out.count() <= 5);
    // With 10 guided steps over a dataset with 5 planted biases, at least
    // one insight should surface for a high-CS subject.
    assert!(out.count() >= 1, "guided subject found nothing");
}
