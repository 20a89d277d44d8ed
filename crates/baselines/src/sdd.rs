//! Smart Drill-Down (Joglekar, Garcia-Molina, Parameswaran \[35\]).
//!
//! SDD interactively explores a table by maintaining a *rule list*: each
//! rule is a conjunction of attribute–value pairs (stars elsewhere), and a
//! rule list is interesting when its rules (a) cover many tuples, (b) are
//! specific (few stars), and (c) are diverse. The canonical greedy solves
//! the weighted maximum-coverage instance: repeatedly add the rule
//! maximizing `marginal coverage × specificity weight`.
//!
//! Here each selected rule becomes one next-action operation — always a
//! *drill-down* (a superset of the current query's predicates), which is
//! precisely the limitation Table 4 exposes.

use crate::patterns::{mine_patterns, MiningConfig, Pattern};
use subdex_store::{SelectionQuery, SubjectiveDb};

/// Smart-Drill-Down configuration.
#[derive(Debug, Clone, Copy)]
pub struct SddConfig {
    /// Pattern-mining limits.
    pub mining: MiningConfig,
    /// Specificity weight: a rule with `s` predicates weighs `1 + s`
    /// (more specific rules are more interesting, as in \[35\]).
    pub specificity_bonus: f64,
}

impl Default for SddConfig {
    fn default() -> Self {
        Self {
            mining: MiningConfig::default(),
            specificity_bonus: 1.0,
        }
    }
}

/// Returns the top-`k` drill-down operations for the rating group selected
/// by `query`, per the SDD greedy.
pub fn smart_drill_down(
    db: &SubjectiveDb,
    query: &SelectionQuery,
    k: usize,
    cfg: &SddConfig,
) -> Vec<SelectionQuery> {
    let group = db.rating_group(query, 0x5dd);
    if group.is_empty() || k == 0 {
        return Vec::new();
    }
    let mut candidates = mine_patterns(db, &group, query, &cfg.mining);
    let mut covered = vec![false; group.len()];
    let mut chosen: Vec<Pattern> = Vec::new();

    while chosen.len() < k && !candidates.is_empty() {
        // Greedy: best marginal coverage × specificity weight.
        let mut best: Option<(usize, f64)> = None;
        for (i, (pat, cover)) in candidates.iter().enumerate() {
            let marginal = cover.iter().filter(|&&gi| !covered[gi as usize]).count();
            if marginal == 0 {
                continue;
            }
            let weight = 1.0 + cfg.specificity_bonus * pat.specificity() as f64;
            let score = marginal as f64 * weight;
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((i, score));
            }
        }
        // When everything is already covered, SDD still fills the rule
        // list with the highest raw-score distinct rules (total coverage ×
        // weight), as the rule-list objective is not purely marginal.
        if best.is_none() {
            for (i, (pat, cover)) in candidates.iter().enumerate() {
                let weight = 1.0 + cfg.specificity_bonus * pat.specificity() as f64;
                let score = cover.len() as f64 * weight;
                if best.is_none_or(|(_, s)| score > s) {
                    best = Some((i, score));
                }
            }
        }
        let Some((idx, _)) = best else { break };
        let (pat, cover) = candidates.swap_remove(idx);
        for &gi in &cover {
            covered[gi as usize] = true;
        }
        // Rule-list diversity: drop candidates identical to the chosen one
        // (subsumed rules keep competing on marginal coverage, as in SDD).
        candidates.retain(|(p, _)| p.distance(&pat) > 0);
        chosen.push(pat);
    }

    chosen.into_iter().map(|p| p.to_query(query)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use subdex_store::{Cell, Entity, EntityTableBuilder, RatingTableBuilder, Schema, Value};

    /// 60% of reviewers are students in NYC — the dominant rule.
    fn db() -> SubjectiveDb {
        let mut us = Schema::new();
        us.add("occupation", false);
        let mut ub = EntityTableBuilder::new(us);
        for i in 0..10 {
            ub.push_row(vec![Cell::from(if i < 6 { "student" } else { "artist" })]);
        }
        let mut is = Schema::new();
        is.add("city", false);
        let mut ib = EntityTableBuilder::new(is);
        for i in 0..5 {
            ib.push_row(vec![Cell::from(if i < 3 { "NYC" } else { "SF" })]);
        }
        let mut rb = RatingTableBuilder::new(vec!["overall".into()], 5);
        for r in 0..10u32 {
            for i in 0..5u32 {
                rb.push(r, i, &[3]);
            }
        }
        SubjectiveDb::new(ub.build(), ib.build(), rb.build(10, 5))
    }

    #[test]
    fn returns_k_drilldowns_extending_query() {
        let db = db();
        let q = SelectionQuery::all();
        let ops = smart_drill_down(&db, &q, 3, &SddConfig::default());
        assert_eq!(ops.len(), 3);
        for op in &ops {
            assert!(!op.is_empty(), "each op refines the query");
            assert_eq!(op.diff_size(&q), op.len(), "pure additions only");
        }
        // All distinct.
        let set: std::collections::HashSet<_> = ops.iter().collect();
        assert_eq!(set.len(), ops.len());
    }

    #[test]
    fn specificity_prefers_conjunctions() {
        // student ∧ NYC covers 6×3 = 18 of 50 with weight 3 (score 54);
        // student alone covers 30 with weight 2 (score 60) → first pick is
        // the single; the pair should follow from marginal coverage of the
        // remaining records.
        let db = db();
        let ops = smart_drill_down(&db, &SelectionQuery::all(), 2, &SddConfig::default());
        assert!(ops[0].len() == 1 || ops[0].len() == 2);
        assert!(!ops.is_empty());
    }

    #[test]
    fn respects_existing_predicates() {
        let db = db();
        let student = db
            .pred(Entity::Reviewer, "occupation", &Value::str("student"))
            .unwrap();
        let q = SelectionQuery::from_preds(vec![student]);
        let ops = smart_drill_down(&db, &q, 2, &SddConfig::default());
        for op in &ops {
            assert!(op.contains(&student), "base predicates preserved");
            assert!(op.len() > q.len(), "strictly drills down");
        }
    }

    #[test]
    fn empty_group_returns_nothing() {
        let db = db();
        let s = db
            .pred(Entity::Reviewer, "occupation", &Value::str("student"))
            .unwrap();
        let a = db
            .pred(Entity::Reviewer, "occupation", &Value::str("artist"))
            .unwrap();
        let q = SelectionQuery::from_preds(vec![s, a]);
        assert!(smart_drill_down(&db, &q, 3, &SddConfig::default()).is_empty());
        assert!(smart_drill_down(&db, &SelectionQuery::all(), 0, &SddConfig::default()).is_empty());
    }

    #[test]
    fn never_emits_rollups() {
        // The defining limitation vs SubDEx: every op is a superset.
        let db = db();
        let student = db
            .pred(Entity::Reviewer, "occupation", &Value::str("student"))
            .unwrap();
        let q = SelectionQuery::from_preds(vec![student]);
        for op in smart_drill_down(&db, &q, 3, &SddConfig::default()) {
            for p in q.preds() {
                assert!(op.contains(p));
            }
        }
    }
}
