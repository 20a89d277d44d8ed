//! Integration of the baseline recommenders with the exploration stack:
//! the Table 4 mechanism (SubDEx can roll up, SDD/QAGView cannot).

use subdex::baselines::qagview::QagConfig;
use subdex::baselines::sdd::SddConfig;
use subdex::prelude::*;
use subdex::sim::autopath::{run_auto_path, OpSource};
use subdex::sim::workload::Workload;

fn workload() -> Workload {
    let raw = subdex::data::yelp::generate(GenParams::new(600, 60, 6000, 77));
    Workload::scenario1(
        raw,
        &IrregularSpec {
            reviewer_groups: 1,
            item_groups: 1,
            min_members: 5,
            min_item_members: 5,
            seed: 21,
        },
    )
}

#[test]
fn all_three_sources_drive_paths() {
    let w = workload();
    let cfg = EngineConfig {
        threads: 1,
        max_candidates: 12,
        ..EngineConfig::default()
    };
    for source in [OpSource::Subdex, OpSource::Sdd, OpSource::Qagview] {
        let stats = run_auto_path(&w, source, 4, &cfg);
        assert!(stats.steps >= 2, "{source}: path too short");
        assert!(stats.total_utility > 0.0);
    }
}

#[test]
fn baseline_ops_extend_queries_subdex_can_shrink() {
    let w = workload();
    // After a drill-down, SDD/QAGView candidates all extend the query;
    // SubDEx's candidate set includes at least one roll-up.
    let young =
        w.db.pred(Entity::Reviewer, "age_group", &Value::str("young"))
            .unwrap();
    let q = SelectionQuery::from_preds(vec![young]);

    let sdd_ops = subdex::baselines::smart_drill_down(&w.db, &q, 3, &SddConfig::default());
    for op in &sdd_ops {
        assert!(op.len() > q.len(), "SDD only drills down");
    }
    let qag_ops = subdex::baselines::qagview(&w.db, &q, 3, &QagConfig::default());
    for op in &qag_ops {
        assert!(op.len() > q.len(), "QAGView only drills down");
    }

    // SubDEx enumerates roll-ups among its candidates.
    let cands = subdex::core::recommend::enumerate_candidates(
        &w.db,
        &q,
        &[],
        &subdex::core::recommend::RecommendConfig::default(),
    );
    assert!(
        cands.iter().any(|c| c.len() < q.len()),
        "SubDEx candidates include a roll-up"
    );
}

#[test]
fn subdex_surfaces_at_least_as_many_irregulars() {
    // Averaged over a few plantings, SubDEx's recommendations surface at
    // least as many irregular groups as each drill-down-only baseline —
    // the Table 4 shape.
    let cfg = EngineConfig {
        threads: 1,
        max_candidates: 12,
        ..EngineConfig::default()
    };
    let mut totals = [0usize; 3];
    for seed in 0..4u64 {
        let raw = subdex::data::yelp::generate(GenParams::new(600, 60, 6000, 77));
        let w = Workload::scenario1(
            raw,
            &IrregularSpec {
                reviewer_groups: 1,
                item_groups: 1,
                min_members: 5,
                min_item_members: 5,
                seed: 100 + seed,
            },
        );
        for (i, source) in [OpSource::Subdex, OpSource::Sdd, OpSource::Qagview]
            .into_iter()
            .enumerate()
        {
            totals[i] += run_auto_path(&w, source, 6, &cfg).irregulars_shown.len();
        }
    }
    assert!(
        totals[0] >= totals[1] && totals[0] >= totals[2],
        "SubDEx {totals:?} should lead"
    );
}
