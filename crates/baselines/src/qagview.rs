//! QAGView-style diverse result summarization (Wen, Zhu, Roy, Yang \[58\]).
//!
//! QAGView summarizes a (weighted) query result with `k` clusters, chosen
//! to cover a target fraction of the result while pairwise differing in at
//! least `D` attribute–value pairs. Following the paper's setup
//! (Section 5.1): record weights are 1 (rating records are unvalued), the
//! coverage threshold is `|g_R| / 2`, and `D = 2`.
//!
//! Each cluster's description is a conjunction of attribute–value pairs
//! over the underlying reviewer and item groups, i.e. a selection
//! operation — again drill-down only.

use crate::patterns::{mine_patterns, MiningConfig, Pattern};
use subdex_store::{SelectionQuery, SubjectiveDb};

/// QAGView configuration.
#[derive(Debug, Clone, Copy)]
pub struct QagConfig {
    /// Pattern-mining limits.
    pub mining: MiningConfig,
    /// Minimum attribute–value difference between chosen clusters (`D`).
    pub min_distance: usize,
    /// Fraction of the group the summary should cover (paper: 0.5).
    pub coverage_target: f64,
}

impl Default for QagConfig {
    fn default() -> Self {
        Self {
            mining: MiningConfig::default(),
            min_distance: 2,
            coverage_target: 0.5,
        }
    }
}

/// Returns up to `k` diverse cluster operations summarizing the rating
/// group selected by `query`.
pub fn qagview(
    db: &SubjectiveDb,
    query: &SelectionQuery,
    k: usize,
    cfg: &QagConfig,
) -> Vec<SelectionQuery> {
    let group = db.rating_group(query, 0x9a9);
    if group.is_empty() || k == 0 {
        return Vec::new();
    }
    let candidates = mine_patterns(db, &group, query, &cfg.mining);
    let mut covered = vec![false; group.len()];
    let mut covered_count = 0usize;
    let target = (group.len() as f64 * cfg.coverage_target).ceil() as usize;
    let mut chosen: Vec<(Pattern, Vec<u32>)> = Vec::new();
    let mut remaining: Vec<(Pattern, Vec<u32>)> = candidates;

    while chosen.len() < k {
        // Greedy marginal coverage among candidates far enough from every
        // chosen cluster.
        let mut best: Option<(usize, usize)> = None;
        for (i, (pat, cover)) in remaining.iter().enumerate() {
            if chosen
                .iter()
                .any(|(c, _)| c.distance(pat) < cfg.min_distance)
            {
                continue;
            }
            let marginal = cover.iter().filter(|&&gi| !covered[gi as usize]).count();
            if marginal == 0 {
                continue;
            }
            if best.is_none_or(|(_, m)| marginal > m) {
                best = Some((i, marginal));
            }
        }
        let Some((idx, marginal)) = best else { break };
        let (pat, cover) = remaining.swap_remove(idx);
        for &gi in &cover {
            if !covered[gi as usize] {
                covered[gi as usize] = true;
            }
        }
        covered_count += marginal;
        chosen.push((pat, cover));
        if covered_count >= target && chosen.len() >= k.min(2) {
            // Coverage satisfied; keep adding only while diversity allows
            // and k not reached — matching QAGView's "informative but
            // small" summaries.
            continue;
        }
    }

    chosen.into_iter().map(|(p, _)| p.to_query(query)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use subdex_store::{Cell, Entity, EntityTableBuilder, RatingTableBuilder, Schema, Value};

    fn db() -> SubjectiveDb {
        let mut us = Schema::new();
        us.add("occupation", false);
        us.add("gender", false);
        let mut ub = EntityTableBuilder::new(us);
        for i in 0..12 {
            ub.push_row(vec![
                Cell::from(["student", "artist", "teacher"][i % 3]),
                Cell::from(if i % 2 == 0 { "F" } else { "M" }),
            ]);
        }
        let mut is = Schema::new();
        is.add("city", false);
        let mut ib = EntityTableBuilder::new(is);
        for i in 0..6 {
            ib.push_row(vec![Cell::from(if i < 3 { "NYC" } else { "SF" })]);
        }
        let mut rb = RatingTableBuilder::new(vec!["overall".into()], 5);
        for r in 0..12u32 {
            for i in 0..6u32 {
                rb.push(r, i, &[3]);
            }
        }
        SubjectiveDb::new(ub.build(), ib.build(), rb.build(12, 6))
    }

    #[test]
    fn clusters_are_diverse() {
        let db = db();
        let ops = qagview(&db, &SelectionQuery::all(), 3, &QagConfig::default());
        assert!(ops.len() >= 2, "got {}", ops.len());
        // Reconstruct pairwise distance on predicate sets.
        for i in 0..ops.len() {
            for j in (i + 1)..ops.len() {
                assert!(
                    ops[i].diff_size(&ops[j]) >= 2,
                    "clusters {i} and {j} too similar"
                );
            }
        }
    }

    #[test]
    fn summary_covers_half_the_group() {
        let db = db();
        let q = SelectionQuery::all();
        let ops = qagview(&db, &q, 3, &QagConfig::default());
        let group = db.rating_group(&q, 1);
        let mut covered = 0;
        'rec: for &rec in group.records() {
            for op in &ops {
                let matches = op.preds().iter().all(|p| {
                    let row = match p.entity {
                        Entity::Reviewer => db.ratings().reviewer_of(rec),
                        Entity::Item => db.ratings().item_of(rec),
                    };
                    db.table(p.entity).row_has(row, p.attr, p.value)
                });
                if matches {
                    covered += 1;
                    continue 'rec;
                }
            }
        }
        assert!(
            covered * 2 >= group.len(),
            "covered {covered} of {}",
            group.len()
        );
    }

    #[test]
    fn all_ops_are_drilldowns() {
        let db = db();
        let f = db
            .pred(Entity::Reviewer, "gender", &Value::str("F"))
            .unwrap();
        let q = SelectionQuery::from_preds(vec![f]);
        for op in qagview(&db, &q, 3, &QagConfig::default()) {
            assert!(op.contains(&f));
            assert!(op.len() > q.len());
        }
    }

    #[test]
    fn empty_inputs() {
        let db = db();
        assert!(qagview(&db, &SelectionQuery::all(), 0, &QagConfig::default()).is_empty());
        let s = db
            .pred(Entity::Reviewer, "gender", &Value::str("F"))
            .unwrap();
        let m = db
            .pred(Entity::Reviewer, "gender", &Value::str("M"))
            .unwrap();
        let contradiction = SelectionQuery::from_preds(vec![s, m]);
        assert!(qagview(&db, &contradiction, 3, &QagConfig::default()).is_empty());
    }

    #[test]
    fn min_distance_constraint_respected() {
        let db = db();
        for d in [1usize, 2, 3] {
            let cfg = QagConfig {
                min_distance: d,
                ..Default::default()
            };
            let ops = qagview(&db, &SelectionQuery::all(), 4, &cfg);
            for i in 0..ops.len() {
                for j in (i + 1)..ops.len() {
                    assert!(
                        ops[i].diff_size(&ops[j]) >= d,
                        "D={d}: clusters {i},{j} too close"
                    );
                }
            }
        }
    }
}
