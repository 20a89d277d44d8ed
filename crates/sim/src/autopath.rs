//! Fixed exploration paths with swappable next-action sources.
//!
//! Behind three of the paper's experiments:
//!
//! * **Table 4** (quality of recommendations): Fully-Automated paths where
//!   the next operation comes from SubDEx's Recommendation Builder, Smart
//!   Drill-Down, or QAGView — with the displayed rating maps computed
//!   identically in every case — scored by how many planted irregular
//!   groups the path surfaces.
//! * **Table 5** (utility vs. diversity): paths under different selection
//!   strategies, reporting distinct attributes shown, total utility, and
//!   average EMD diversity per step.
//! * **Table 6** / Figure 9 inputs come from the same path statistics.

use crate::workload::{Scenario, Workload};
use std::collections::HashSet;
use subdex_baselines::qagview::QagConfig;
use subdex_baselines::sdd::SddConfig;
use subdex_core::{EngineConfig, SdeEngine};
use subdex_store::SelectionQuery;

/// Where a path's next operation comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpSource {
    /// SubDEx's own top-1 recommendation.
    Subdex,
    /// Smart Drill-Down's top rule.
    Sdd,
    /// QAGView's first cluster.
    Qagview,
}

impl std::fmt::Display for OpSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpSource::Subdex => f.write_str("SubDEx"),
            OpSource::Sdd => f.write_str("SDD"),
            OpSource::Qagview => f.write_str("Qagview"),
        }
    }
}

/// Statistics of one automated path.
#[derive(Debug, Clone)]
pub struct PathStats {
    /// Irregular-group indexes the path surfaced (deterministic reveal,
    /// no subject noise — the displayed map showed the group).
    pub irregulars_shown: HashSet<usize>,
    /// Insight indexes the path revealed.
    pub insights_shown: HashSet<usize>,
    /// Distinct grouping attributes displayed across all steps.
    pub distinct_attributes: usize,
    /// Sum of displayed-map *dimension-weighted* utilities over the whole
    /// path (the quantity the selection optimizes; Table 5's "utility").
    pub total_utility: f64,
    /// Mean per-step average pairwise EMD between the displayed maps.
    pub avg_diversity: f64,
    /// Maps displayed per rating dimension (Figure 9's histogram).
    pub maps_per_dimension: Vec<usize>,
    /// Steps actually executed.
    pub steps: usize,
    /// Total step wall-clock over the path.
    pub total_time: std::time::Duration,
    /// Per-phase wall-clock totals over the path, accumulated from each
    /// step's [`subdex_core::StepStats`].
    pub phase_times: subdex_core::PhaseTimes,
}

/// Records the query sequence of a Fully-Automated path (top-1 SubDEx
/// recommendations) without collecting statistics — used to *fix* the
/// next-action operations, as Section 5.2.3 does, so map-selection
/// variants can be compared on identical paths.
pub fn record_query_path(w: &Workload, steps: usize, cfg: &EngineConfig) -> Vec<SelectionQuery> {
    let mut engine = SdeEngine::new(w.db.clone(), *cfg);
    let mut query = SelectionQuery::all();
    let mut out = Vec::with_capacity(steps);
    for step in 0..steps {
        out.push(query.clone());
        if step + 1 == steps {
            break;
        }
        let res = engine.step(&query);
        match res.recommendations.first() {
            Some(r) if r.query != query => query = r.query.clone(),
            _ => break,
        }
    }
    out
}

/// Replays a fixed query sequence under `cfg` (recommendations disabled —
/// the operations are given) and collects [`PathStats`] of the displayed
/// maps. This is the Section 5.2.3 protocol behind Table 5 and Figure 9.
pub fn run_fixed_path(w: &Workload, queries: &[SelectionQuery], cfg: &EngineConfig) -> PathStats {
    let mut cfg = *cfg;
    cfg.recommendations = false;
    let mut engine = SdeEngine::new(w.db.clone(), cfg);
    let dim_count = w.db.ratings().dim_count();
    let mut stats = PathStats {
        irregulars_shown: HashSet::new(),
        insights_shown: HashSet::new(),
        distinct_attributes: 0,
        total_utility: 0.0,
        avg_diversity: 0.0,
        maps_per_dimension: vec![0; dim_count],
        steps: 0,
        total_time: std::time::Duration::ZERO,
        phase_times: subdex_core::PhaseTimes::default(),
    };
    let mut attrs: HashSet<(subdex_store::Entity, subdex_store::AttrId)> = HashSet::new();
    let mut diversity_sum = 0.0;
    for query in queries {
        let res = engine.step(query);
        stats.steps += 1;
        collect_step(w, query, &res, &mut stats, &mut attrs, &mut diversity_sum);
    }
    stats.distinct_attributes = attrs.len();
    stats.avg_diversity = diversity_sum / stats.steps.max(1) as f64;
    stats
}

fn collect_step(
    w: &Workload,
    query: &SelectionQuery,
    res: &subdex_core::StepResult,
    stats: &mut PathStats,
    attrs: &mut HashSet<(subdex_store::Entity, subdex_store::AttrId)>,
    diversity_sum: &mut f64,
) {
    stats.total_time += res.stats.elapsed;
    stats.phase_times.merge(&res.stats.phases);
    for sm in &res.maps {
        attrs.insert((sm.map.key.entity, sm.map.key.attr));
        stats.maps_per_dimension[sm.map.key.dim.index()] += 1;
        stats.total_utility += sm.dw_utility;
        match w.scenario {
            Scenario::IrregularGroups => {
                for t in w.irregular_shown(query, &sm.map) {
                    stats.irregulars_shown.insert(t);
                }
            }
            Scenario::InsightExtraction => {
                for t in w.insights_shown(&sm.map) {
                    stats.insights_shown.insert(t);
                }
            }
        }
    }
    let maps: Vec<&subdex_core::RatingMap> = res.maps.iter().map(|m| &m.map).collect();
    *diversity_sum += subdex_core::mapdist::avg_pairwise_distance(&maps);
}

/// Runs a Fully-Automated path of `steps` steps over `w`, with next
/// operations drawn from `source`, and collects [`PathStats`].
pub fn run_auto_path(
    w: &Workload,
    source: OpSource,
    steps: usize,
    cfg: &EngineConfig,
) -> PathStats {
    let mut engine = SdeEngine::new(w.db.clone(), *cfg);
    let mut query = SelectionQuery::all();
    let dim_count = w.db.ratings().dim_count();
    let mut stats = PathStats {
        irregulars_shown: HashSet::new(),
        insights_shown: HashSet::new(),
        distinct_attributes: 0,
        total_utility: 0.0,
        avg_diversity: 0.0,
        maps_per_dimension: vec![0; dim_count],
        steps: 0,
        total_time: std::time::Duration::ZERO,
        phase_times: subdex_core::PhaseTimes::default(),
    };
    let mut attrs: HashSet<(subdex_store::Entity, subdex_store::AttrId)> = HashSet::new();
    let mut diversity_sum = 0.0;

    for step in 0..steps {
        let res = engine.step(&query);
        stats.steps = step + 1;
        collect_step(w, &query, &res, &mut stats, &mut attrs, &mut diversity_sum);

        if step + 1 == steps {
            break;
        }
        let next = match source {
            OpSource::Subdex => res.recommendations.first().map(|r| r.query.clone()),
            OpSource::Sdd => {
                subdex_baselines::smart_drill_down(&w.db, &query, 1, &SddConfig::default())
                    .into_iter()
                    .next()
            }
            OpSource::Qagview => subdex_baselines::qagview(&w.db, &query, 1, &QagConfig::default())
                .into_iter()
                .next(),
        };
        match next {
            Some(q) if q != query => query = q,
            _ => break,
        }
    }
    stats.distinct_attributes = attrs.len();
    stats.avg_diversity = diversity_sum / stats.steps.max(1) as f64;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use subdex_data::{yelp, GenParams, IrregularSpec};

    fn workload() -> Workload {
        let raw = yelp::generate(GenParams::new(300, 40, 2500, 23));
        Workload::scenario1(
            raw,
            &IrregularSpec {
                reviewer_groups: 1,
                item_groups: 1,
                min_members: 5,
                min_item_members: 5,
                seed: 5,
            },
        )
    }

    fn cfg() -> EngineConfig {
        EngineConfig {
            threads: 1,
            max_candidates: 16,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn auto_path_collects_stats() {
        let w = workload();
        let stats = run_auto_path(&w, OpSource::Subdex, 4, &cfg());
        assert_eq!(stats.steps, 4);
        assert!(stats.distinct_attributes >= 1);
        assert!(stats.total_utility >= 0.0);
        let total_maps: usize = stats.maps_per_dimension.iter().sum();
        assert_eq!(total_maps, 4 * 3, "k = 3 maps per step");
        assert!(stats.avg_diversity >= 0.0 && stats.avg_diversity <= 1.0);
        assert!(stats.total_time > std::time::Duration::ZERO);
        assert!(stats.total_time >= stats.phase_times.select + stats.phase_times.scan_groups);
        assert!(stats.phase_times.generate >= stats.phase_times.scan);
    }

    #[test]
    fn baselines_only_drill_down() {
        // SDD and QAGView paths monotonically grow the query; SubDEx paths
        // may roll up. At minimum the baseline paths never shrink it.
        let w = workload();
        for source in [OpSource::Sdd, OpSource::Qagview] {
            let stats = run_auto_path(&w, source, 4, &cfg());
            assert!(stats.steps >= 1, "{source} produced an empty path");
        }
    }

    #[test]
    fn utility_only_beats_diversity_only_on_utility() {
        // Single step: both strategies rank the *same* candidate pool, so
        // utility-only must win on utility and diversity-only on the
        // number of attributes surfaced. (Across whole paths the queries
        // diverge and totals are not strictly comparable.)
        let w = workload();
        // Disable pruning so both strategies rank the identical full pool
        // (pruning is probabilistic and would perturb the comparison).
        let mut u_cfg = cfg().with_l(1);
        u_cfg.pruning = subdex_core::PruningStrategy::None;
        let mut d_cfg = cfg();
        d_cfg.pruning = subdex_core::PruningStrategy::None;
        d_cfg.selection = subdex_core::selector::SelectionStrategy::DiversityOnly;
        let u = run_auto_path(&w, OpSource::Subdex, 1, &u_cfg);
        let d = run_auto_path(&w, OpSource::Subdex, 1, &d_cfg);
        assert!(
            u.total_utility >= d.total_utility,
            "utility-only {} vs diversity-only {}",
            u.total_utility,
            d.total_utility
        );
        assert!(
            d.distinct_attributes >= u.distinct_attributes,
            "diversity-only shows at least as many attributes ({} vs {})",
            d.distinct_attributes,
            u.distinct_attributes
        );
    }

    #[test]
    fn op_source_display() {
        assert_eq!(OpSource::Subdex.to_string(), "SubDEx");
        assert_eq!(OpSource::Sdd.to_string(), "SDD");
        assert_eq!(OpSource::Qagview.to_string(), "Qagview");
    }
}
