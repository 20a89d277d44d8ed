//! Shape checks of the simulated study at small scale: the mechanisms that
//! produce the paper's Figure 7 orderings.

use std::collections::HashSet;
use subdex_core::{EngineConfig, ExplorationMode};
use subdex_data::{yelp, GenParams, IrregularSpec};
use subdex_sim::study::{run_study_pair, run_subject, StudyConfig, UD_INTERPRETATION_FACTOR};
use subdex_sim::subject::{CsExpertise, DomainKnowledge, SubjectProfile};
use subdex_sim::workload::Workload;

fn workload(seed: u64) -> Workload {
    let raw = yelp::generate(GenParams::new(600, 93, 6000, 55));
    Workload::scenario1(
        raw,
        &IrregularSpec {
            reviewer_groups: 1,
            item_groups: 1,
            min_members: 12,
            min_item_members: 5,
            seed,
        },
    )
}

fn cfg(n: usize) -> StudyConfig {
    StudyConfig {
        subjects_per_cell: n,
        steps: Some(6),
        engine: EngineConfig {
            threads: 1,
            max_candidates: 12,
            ..EngineConfig::default()
        },
        base_seed: 99,
    }
}

#[test]
fn paired_study_uses_both_instances() {
    let wa = workload(1);
    let wb = workload(2);
    let res = run_study_pair(&wa, &wb, &cfg(6));
    assert_eq!(res.cells.len(), 4);
    for cell in &res.cells {
        for m in &cell.modes {
            assert_eq!(m.scores.len(), 6);
        }
    }
}

#[test]
fn fully_automated_is_one_shared_path() {
    // Two FA subjects with different seeds watch the same system path:
    // their *reveal opportunities* coincide (differences come only from
    // noticing noise).
    let w = workload(3);
    let engine = cfg(1).engine;
    let a = run_subject(
        &w,
        ExplorationMode::FullyAutomated,
        &SubjectProfile::new(CsExpertise::High, DomainKnowledge::High, 1),
        6,
        &engine,
        &HashSet::new(),
    );
    let b = run_subject(
        &w,
        ExplorationMode::FullyAutomated,
        &SubjectProfile::new(CsExpertise::High, DomainKnowledge::High, 2),
        6,
        &engine,
        &HashSet::new(),
    );
    // Same path ⇒ the sets of findable targets agree; per-subject noise can
    // only drop finds, never add different ones. With high notice (0.85)
    // both usually see the same targets.
    let ta: HashSet<usize> = a.found.iter().map(|&(t, _)| t).collect();
    let tb: HashSet<usize> = b.found.iter().map(|&(t, _)| t).collect();
    assert!(
        ta.is_subset(&tb) || tb.is_subset(&ta),
        "FA finds must come from one shared path: {ta:?} vs {tb:?}"
    );
}

#[test]
fn interactive_subjects_have_personal_paths() {
    // RP subjects with different seeds may diverge (their engines are
    // seeded personally); the run must still be deterministic per seed.
    let w = workload(3);
    let engine = cfg(1).engine;
    let p = SubjectProfile::new(CsExpertise::Low, DomainKnowledge::Low, 77);
    let once = run_subject(
        &w,
        ExplorationMode::RecommendationPowered,
        &p,
        6,
        &engine,
        &HashSet::new(),
    );
    let twice = run_subject(
        &w,
        ExplorationMode::RecommendationPowered,
        &p,
        6,
        &engine,
        &HashSet::new(),
    );
    assert_eq!(once.found, twice.found);
}

#[test]
fn ud_interpretation_factor_is_a_handicap() {
    let f = UD_INTERPRETATION_FACTOR;
    assert!(
        (0.0..1.0).contains(&f),
        "handicap must be a proper fraction"
    );
}

#[test]
fn chase_memory_prevents_oscillation() {
    // A subject must terminate (not loop forever between two queries) even
    // on a workload with one dominant anomaly.
    let w = workload(4);
    let engine = cfg(1).engine;
    let out = run_subject(
        &w,
        ExplorationMode::RecommendationPowered,
        &SubjectProfile::new(CsExpertise::High, DomainKnowledge::High, 5),
        12,
        &engine,
        &HashSet::new(),
    );
    // All finds have valid step indexes within budget.
    for &(_, step) in &out.found {
        assert!((1..=12).contains(&step));
    }
}
