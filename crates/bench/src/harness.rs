//! Shared helpers for the experiment binary.

use std::sync::Arc;
use std::time::Duration;
use subdex_core::{EngineConfig, SdeEngine};
use subdex_data::datasets::Dataset;
use subdex_data::{hotels, movielens, yelp, IrregularSpec};
use subdex_sim::workload::Workload;
use subdex_store::{SelectionQuery, SubjectiveDb};

/// Scale presets. `Full` reproduces Table 2 exactly; `Study` is the
/// smaller scale the simulated user studies run at (documented in
/// EXPERIMENTS.md); `Smoke` keeps CI fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Table 2 cardinalities.
    Full,
    /// Study scale (minutes, not hours, for 120-subject studies).
    Study,
    /// Tiny smoke-test scale.
    Smoke,
}

impl Scale {
    fn factor(self) -> f64 {
        scale_factor(self)
    }
}

/// Scale factor as a free function (usable before `Scale` methods exist in
/// scope).
pub fn scale_factor(scale: Scale) -> f64 {
    match scale {
        Scale::Full => 1.0,
        Scale::Study => 0.2,
        Scale::Smoke => 0.02,
    }
}

/// The three generated datasets at a given scale.
pub fn movielens_at(scale: Scale) -> Dataset {
    movielens::dataset(movielens::default_params().scaled(scale.factor()))
}

/// Yelp-like dataset at a given scale (item count is kept at 93 — the
/// paper's Yelp slice is item-poor and reviewer-rich).
pub fn yelp_at(scale: Scale) -> Dataset {
    let mut p = yelp::default_params().scaled(scale.factor());
    p.items = 93;
    yelp::dataset(p)
}

/// Hotels-like dataset at a given scale.
pub fn hotels_at(scale: Scale) -> Dataset {
    hotels::dataset(hotels::default_params().scaled(scale.factor()))
}

/// A Scenario I workload at the given scale and injection seed.
///
/// Reviewer-side irregular groups are required to hold at least ~2% of the
/// reviewers (floor 5): a planted anomaly spanning a handful of records in
/// a 40K-record table would be statistically invisible in *any* grouped
/// histogram, which is not the situation the paper's subjects faced.
pub fn scenario1_workload(dataset: &str, scale: Scale, seed: u64) -> Workload {
    let reviewers = match dataset {
        "movielens" => {
            movielens::default_params()
                .scaled(scale_factor(scale))
                .reviewers
        }
        "yelp" => yelp::default_params().scaled(scale_factor(scale)).reviewers,
        _ => {
            hotels::default_params()
                .scaled(scale_factor(scale))
                .reviewers
        }
    };
    let spec = IrregularSpec {
        reviewer_groups: 1,
        item_groups: 1,
        min_members: (reviewers / 50).max(5),
        min_item_members: 5,
        seed,
    };
    let raw = match dataset {
        "movielens" => movielens::generate(movielens::default_params().scaled(scale.factor())),
        "yelp" => {
            let mut p = yelp::default_params().scaled(scale.factor());
            p.items = 93;
            yelp::generate(p)
        }
        "hotels" => hotels::generate(hotels::default_params().scaled(scale.factor())),
        other => panic!("unknown dataset {other}"),
    };
    Workload::scenario1(raw, &spec)
}

/// A Scenario II workload.
pub fn scenario2_workload(dataset: &str, scale: Scale) -> Workload {
    scenario2_workload_seeded(dataset, scale, 0)
}

/// A Scenario II workload with a seed offset (distinct task instances for
/// the paired study protocol).
pub fn scenario2_workload_seeded(dataset: &str, scale: Scale, seed_offset: u64) -> Workload {
    let with_seed = |mut p: subdex_data::GenParams| {
        p.seed = p.seed.wrapping_add(seed_offset);
        p
    };
    let ds = match dataset {
        "movielens" => movielens::dataset(with_seed(
            movielens::default_params().scaled(scale.factor()),
        )),
        "yelp" => {
            let mut p = with_seed(yelp::default_params().scaled(scale.factor()));
            p.items = 93;
            yelp::dataset(p)
        }
        "hotels" => hotels::dataset(with_seed(hotels::default_params().scaled(scale.factor()))),
        other => panic!("unknown dataset {other}"),
    };
    Workload::scenario2(ds)
}

/// The six engine variants of the scalability evaluation, labeled.
pub fn engine_variants() -> Vec<(&'static str, EngineConfig)> {
    vec![
        ("SubDEx", EngineConfig::subdex()),
        ("No-Pruning", EngineConfig::no_pruning()),
        ("CI Pruning", EngineConfig::ci_pruning()),
        ("MAB Pruning", EngineConfig::mab_pruning()),
        ("No Parallelism", EngineConfig::no_parallelism()),
        ("Naive", EngineConfig::naive()),
    ]
}

/// Runs a Fully-Automated path of `steps` steps and returns the mean
/// wall-clock step time — the paper's runtime metric (operation pick →
/// display, Figures 10–11).
pub fn mean_step_time(db: &Arc<SubjectiveDb>, cfg: &EngineConfig, steps: usize) -> Duration {
    let mut engine = SdeEngine::new(db.clone(), *cfg);
    let mut query = SelectionQuery::all();
    let mut total = Duration::ZERO;
    let mut executed = 0u32;
    for _ in 0..steps {
        let res = engine.step(&query);
        total += res.stats.elapsed;
        executed += 1;
        match res.recommendations.first() {
            Some(r) if r.query != query => query = r.query.clone(),
            _ => break,
        }
    }
    total / executed.max(1)
}

/// Formats a duration as fractional milliseconds.
pub fn fmt_ms(d: Duration) -> String {
    format!("{:.1} ms", d.as_secs_f64() * 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_datasets_build() {
        let m = movielens_at(Scale::Smoke);
        assert!(m.db.ratings().len() >= 1000);
        let y = yelp_at(Scale::Smoke);
        assert_eq!(y.db.items().len(), 93);
        let h = hotels_at(Scale::Smoke);
        assert_eq!(h.db.stats().attr_count, 8);
    }

    #[test]
    fn variants_cover_the_paper_baselines() {
        let names: Vec<&str> = engine_variants().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec![
                "SubDEx",
                "No-Pruning",
                "CI Pruning",
                "MAB Pruning",
                "No Parallelism",
                "Naive"
            ]
        );
    }

    #[test]
    fn mean_step_time_positive() {
        let ds = yelp_at(Scale::Smoke);
        let db = Arc::new(ds.db);
        let cfg = EngineConfig {
            max_candidates: 8,
            ..EngineConfig::default()
        };
        let t = mean_step_time(&db, &cfg, 2);
        assert!(t > Duration::ZERO);
    }
}
