//! Rating maps (Definitions 1 and 2 of the paper).
//!
//! A rating map partitions a rating group by one reviewer or item attribute
//! and associates each subgroup with its rating distribution (for one rating
//! dimension) and an aggregated score (the average, in this work). It is
//! exactly the result of a `GROUP BY` over the rating group followed by an
//! aggregation, and it is the unit the engine scores, prunes, diversifies
//! and displays.

use subdex_stats::RatingDistribution;
use subdex_store::{AttrId, DimId, Entity, SubjectiveDb, ValueId};

use crate::utility::CriterionScores;

/// Identity of a candidate rating map: which attribute partitions the group
/// and which rating dimension is aggregated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MapKey {
    /// Entity side of the grouping attribute.
    pub entity: Entity,
    /// The grouping attribute.
    pub attr: AttrId,
    /// The aggregated rating dimension.
    pub dim: DimId,
}

impl MapKey {
    /// Creates a key.
    pub fn new(entity: Entity, attr: AttrId, dim: DimId) -> Self {
        Self { entity, attr, dim }
    }
}

/// One subgroup of a rating map: a grouping-attribute value, the rating
/// distribution of matching records, and the average score.
#[derive(Debug, Clone, PartialEq)]
pub struct Subgroup {
    /// The grouping-attribute value shared by all records in the subgroup.
    pub value: ValueId,
    /// The subgroup's rating distribution on the map's dimension.
    pub distribution: RatingDistribution,
    /// Aggregated (average) score; `None` for an empty subgroup.
    pub avg_score: Option<f64>,
}

/// How a subgroup's aggregated score is computed (Definition 2 uses the
/// average; the paper notes "other aggregations could be used such as the
/// highest probability for the rating dimension" — that is [`Self::Mode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AggregationKind {
    /// Mean rating (the paper's choice).
    #[default]
    Average,
    /// The most probable rating (the distribution's mode).
    Mode,
}

impl AggregationKind {
    /// Aggregated score of a distribution under this kind.
    pub fn score(self, dist: &subdex_stats::RatingDistribution) -> Option<f64> {
        match self {
            AggregationKind::Average => dist.mean(),
            AggregationKind::Mode => dist.mode().map(f64::from),
        }
    }
}

/// A materialized rating map.
#[derive(Debug, Clone, PartialEq)]
pub struct RatingMap {
    /// Identity (grouping attribute + dimension).
    pub key: MapKey,
    /// Non-empty subgroups, sorted by descending average score (the order
    /// in which the paper's UI lists them — cf. Figure 3).
    pub subgroups: Vec<Subgroup>,
    /// The rating distribution of the whole group on this dimension
    /// (reference distribution for self-peculiarity, and the map's
    /// signature for global peculiarity).
    pub overall: RatingDistribution,
}

impl RatingMap {
    /// Builds a map from raw subgroups; filters empty subgroups, sorts by
    /// descending average, and derives the overall distribution.
    ///
    /// Note: for multi-valued grouping attributes a record contributes to
    /// several subgroups, so `overall` (the sum over subgroups) may weigh
    /// such records more than once; this mirrors how the GroupBy itself
    /// treats them.
    pub fn from_subgroups(key: MapKey, subgroups: Vec<Subgroup>, scale: usize) -> Self {
        Self::from_subgroups_agg(key, subgroups, scale, AggregationKind::Average)
    }

    /// [`Self::from_subgroups`] with an explicit aggregation kind.
    pub fn from_subgroups_agg(
        key: MapKey,
        mut subgroups: Vec<Subgroup>,
        scale: usize,
        agg: AggregationKind,
    ) -> Self {
        subgroups.retain(|s| !s.distribution.is_empty());
        let mut overall = RatingDistribution::new(scale);
        for s in &subgroups {
            overall.merge(&s.distribution);
        }
        for s in &mut subgroups {
            s.avg_score = agg.score(&s.distribution);
        }
        subgroups.sort_by(|a, b| {
            b.avg_score
                .partial_cmp(&a.avg_score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.value.cmp(&b.value))
        });
        Self {
            key,
            subgroups,
            overall,
        }
    }

    /// Number of (non-empty) subgroups — `|rm|` in the conciseness measure.
    pub fn subgroup_count(&self) -> usize {
        self.subgroups.len()
    }

    /// Total records aggregated (records under multi-valued attributes may
    /// count once per carried value).
    pub fn record_weight(&self) -> u64 {
        self.overall.total()
    }

    /// The subgroup with the highest average score.
    pub fn top_subgroup(&self) -> Option<&Subgroup> {
        self.subgroups.first()
    }

    /// The subgroup with the lowest average score.
    pub fn bottom_subgroup(&self) -> Option<&Subgroup> {
        self.subgroups.last()
    }

    /// Renders the map as the paper's Figure 3-style table.
    pub fn render(&self, db: &SubjectiveDb) -> String {
        use std::fmt::Write as _;
        let table = db.table(self.key.entity);
        let attr = &table.schema().attr(self.key.attr).name;
        let dict = table.dictionary(self.key.attr);
        let dim = db.ratings().dim_name(self.key.dim);
        let mut out = String::new();
        let _ = writeln!(out, "rm: GROUPBY {attr}, aggregated by {dim} score");
        let _ = writeln!(
            out,
            "{:<20} {:>9}  {:<28} {:>9}",
            attr, "# records", "rating distribution", "avg score"
        );
        for s in &self.subgroups {
            let _ = writeln!(
                out,
                "{:<20} {:>9}  {:<28} {:>9.1}",
                dict.value(s.value).to_string(),
                s.distribution.total(),
                s.distribution.to_string(),
                s.avg_score.unwrap_or(f64::NAN),
            );
        }
        out
    }
}

/// A rating map together with its scores, as produced by the RM-Generator.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredRatingMap {
    /// The map itself.
    pub map: RatingMap,
    /// Raw (un-weighted) utility `u(rm, RM)` — the max-combined normalized
    /// criteria.
    pub utility: f64,
    /// Dimension-weighted utility `û(rm, RM)` (Equation 1).
    pub dw_utility: f64,
    /// The individual normalized criterion scores.
    pub criteria: CriterionScores,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(counts: &[u64]) -> RatingDistribution {
        RatingDistribution::from_counts(counts.to_vec())
    }

    fn key() -> MapKey {
        MapKey::new(Entity::Item, AttrId(0), DimId(0))
    }

    fn sg(value: u32, counts: &[u64]) -> Subgroup {
        Subgroup {
            value: ValueId(value),
            distribution: dist(counts),
            avg_score: None,
        }
    }

    #[test]
    fn from_subgroups_sorts_by_avg_desc() {
        let m = RatingMap::from_subgroups(
            key(),
            vec![
                sg(0, &[5, 0, 0, 0, 0]), // avg 1.0
                sg(1, &[0, 0, 0, 0, 5]), // avg 5.0
                sg(2, &[0, 0, 5, 0, 0]), // avg 3.0
            ],
            5,
        );
        let order: Vec<u32> = m.subgroups.iter().map(|s| s.value.0).collect();
        assert_eq!(order, vec![1, 2, 0]);
        assert_eq!(m.top_subgroup().unwrap().value, ValueId(1));
        assert_eq!(m.bottom_subgroup().unwrap().value, ValueId(0));
    }

    #[test]
    fn empty_subgroups_filtered() {
        let m = RatingMap::from_subgroups(
            key(),
            vec![sg(0, &[0, 0, 0, 0, 0]), sg(1, &[1, 0, 0, 0, 0])],
            5,
        );
        assert_eq!(m.subgroup_count(), 1);
    }

    #[test]
    fn overall_is_merge_of_subgroups() {
        let m = RatingMap::from_subgroups(
            key(),
            vec![sg(0, &[1, 2, 0, 0, 0]), sg(1, &[0, 1, 3, 0, 0])],
            5,
        );
        assert_eq!(m.overall.counts(), &[1, 3, 3, 0, 0]);
        assert_eq!(m.record_weight(), 7);
    }

    #[test]
    fn avg_scores_computed() {
        let m = RatingMap::from_subgroups(key(), vec![sg(0, &[0, 0, 0, 0, 4])], 5);
        assert_eq!(m.subgroups[0].avg_score, Some(5.0));
    }

    #[test]
    fn tie_break_on_value_id() {
        let m = RatingMap::from_subgroups(
            key(),
            vec![sg(7, &[0, 0, 2, 0, 0]), sg(3, &[0, 0, 2, 0, 0])],
            5,
        );
        let order: Vec<u32> = m.subgroups.iter().map(|s| s.value.0).collect();
        assert_eq!(order, vec![3, 7], "equal averages tie-break by value id");
    }

    #[test]
    fn mode_aggregation_uses_highest_probability() {
        // avg would order sg(1) (mean 3.0 via extremes) equal to a solid
        // 3-distribution, but their modes differ: {5,0,0,0,5} → mode 1.
        let m = RatingMap::from_subgroups_agg(
            key(),
            vec![sg(0, &[5, 0, 0, 0, 5]), sg(1, &[0, 0, 10, 0, 0])],
            5,
            AggregationKind::Mode,
        );
        let by_value: std::collections::HashMap<u32, f64> = m
            .subgroups
            .iter()
            .map(|s| (s.value.0, s.avg_score.unwrap()))
            .collect();
        assert_eq!(by_value[&0], 1.0, "bimodal ties resolve to lowest score");
        assert_eq!(by_value[&1], 3.0);
        // Ordering reflects mode scores: subgroup 1 (3.0) above 0 (1.0).
        assert_eq!(m.top_subgroup().unwrap().value, ValueId(1));
    }

    #[test]
    fn aggregation_kind_score() {
        let d = RatingDistribution::from_counts(vec![0, 0, 1, 0, 3]);
        assert_eq!(AggregationKind::Average.score(&d), Some(4.5));
        assert_eq!(AggregationKind::Mode.score(&d), Some(5.0));
        let empty = RatingDistribution::new(5);
        assert_eq!(AggregationKind::Mode.score(&empty), None);
    }

    #[test]
    fn empty_map() {
        let m = RatingMap::from_subgroups(key(), vec![], 5);
        assert_eq!(m.subgroup_count(), 0);
        assert!(m.top_subgroup().is_none());
        assert_eq!(m.record_weight(), 0);
    }
}
