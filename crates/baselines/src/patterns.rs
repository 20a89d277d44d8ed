//! Shared pattern machinery for the baselines.
//!
//! Both baselines view the rating group as a joined
//! reviewer ⋈ rating ⋈ item table and mine *patterns* — conjunctions of
//! attribute–value pairs over either entity — ranked by how many of the
//! group's records they cover.

use subdex_store::{AttrValue, Entity, RatingGroup, RecordId, SelectionQuery, SubjectiveDb};

/// A candidate pattern: a small conjunction of predicates extending the
/// current query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    /// The added predicates (sorted; see [`SelectionQuery`] canonical form).
    pub preds: Vec<AttrValue>,
}

impl Pattern {
    /// Single-predicate pattern.
    pub fn single(p: AttrValue) -> Self {
        Self { preds: vec![p] }
    }

    /// Two-predicate pattern (sorted canonical order).
    pub fn pair(a: AttrValue, b: AttrValue) -> Self {
        let mut preds = vec![a, b];
        preds.sort();
        Self { preds }
    }

    /// Number of predicates — the *specificity* weight in SDD's scoring.
    pub fn specificity(&self) -> usize {
        self.preds.len()
    }

    /// Number of attribute–value pairs in which two patterns differ
    /// (QAGView's cluster-distance `D`).
    pub fn distance(&self, other: &Self) -> usize {
        let mut diff = 0;
        for p in &self.preds {
            if !other.preds.contains(p) {
                diff += 1;
            }
        }
        for p in &other.preds {
            if !self.preds.contains(p) {
                diff += 1;
            }
        }
        diff
    }

    /// Whether a rating record matches every predicate.
    pub fn matches(&self, db: &SubjectiveDb, rec: RecordId) -> bool {
        self.preds.iter().all(|p| {
            let row = match p.entity {
                Entity::Reviewer => db.ratings().reviewer_of(rec),
                Entity::Item => db.ratings().item_of(rec),
            };
            db.table(p.entity).row_has(row, p.attr, p.value)
        })
    }

    /// The drill-down operation this pattern represents.
    pub fn to_query(&self, base: &SelectionQuery) -> SelectionQuery {
        let mut q = base.clone();
        for &p in &self.preds {
            q.add(p);
        }
        q
    }
}

/// Candidate-mining limits.
#[derive(Debug, Clone, Copy)]
pub struct MiningConfig {
    /// Minimum records a single predicate must cover to seed candidates.
    pub min_coverage: usize,
    /// Top single predicates (by coverage) combined into pairs.
    pub pair_seeds: usize,
}

impl Default for MiningConfig {
    fn default() -> Self {
        Self {
            min_coverage: 5,
            pair_seeds: 16,
        }
    }
}

/// Mines candidate patterns (singles + pairs) over the group's records,
/// skipping attributes the base query already constrains. Returns patterns
/// with their exact coverage (record index lists into `group`).
pub fn mine_patterns(
    db: &SubjectiveDb,
    group: &RatingGroup,
    base: &SelectionQuery,
    cfg: &MiningConfig,
) -> Vec<(Pattern, Vec<u32>)> {
    // Count coverage of every admissible single predicate with one pass.
    let mut singles: Vec<(AttrValue, Vec<u32>)> = Vec::new();
    for entity in [Entity::Reviewer, Entity::Item] {
        let table = db.table(entity);
        let rows = group.entity_rows(entity);
        for attr in table.schema().attr_ids() {
            if base.constrains(entity, attr) || table.dictionary(attr).len() < 2 {
                continue;
            }
            let n_values = table.dictionary(attr).len();
            let mut covers: Vec<Vec<u32>> = vec![Vec::new(); n_values];
            for (gi, &row) in rows.iter().enumerate() {
                for &v in table.values(row, attr) {
                    covers[v.index()].push(gi as u32);
                }
            }
            for (v, cover) in covers.into_iter().enumerate() {
                if cover.len() >= cfg.min_coverage {
                    singles.push((
                        AttrValue::new(entity, attr, subdex_store::ValueId(v as u32)),
                        cover,
                    ));
                }
            }
        }
    }
    singles.sort_by_key(|(_, cover)| std::cmp::Reverse(cover.len()));

    let mut out: Vec<(Pattern, Vec<u32>)> = Vec::new();
    for (p, cover) in &singles {
        out.push((Pattern::single(*p), cover.clone()));
    }

    // Pairs from the most covering seeds (sorted-list intersection).
    let seeds = &singles[..singles.len().min(cfg.pair_seeds)];
    for i in 0..seeds.len() {
        for j in (i + 1)..seeds.len() {
            let (a, ca) = &seeds[i];
            let (b, cb) = &seeds[j];
            if a.entity == b.entity && a.attr == b.attr {
                continue; // same single-valued attribute cannot take 2 values
            }
            let inter = intersect_sorted(ca, cb);
            if inter.len() >= cfg.min_coverage {
                out.push((Pattern::pair(*a, *b), inter));
            }
        }
    }
    out
}

fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use subdex_store::{Cell, EntityTableBuilder, RatingTableBuilder, Schema};

    fn db() -> SubjectiveDb {
        let mut us = Schema::new();
        us.add("gender", false);
        let mut ub = EntityTableBuilder::new(us);
        for i in 0..10 {
            ub.push_row(vec![Cell::from(if i < 6 { "F" } else { "M" })]);
        }
        let mut is = Schema::new();
        is.add("city", false);
        let mut ib = EntityTableBuilder::new(is);
        for i in 0..4 {
            ib.push_row(vec![Cell::from(if i < 2 { "NYC" } else { "SF" })]);
        }
        let mut rb = RatingTableBuilder::new(vec!["overall".into()], 5);
        for r in 0..10u32 {
            for i in 0..4u32 {
                rb.push(r, i, &[3]);
            }
        }
        SubjectiveDb::new(ub.build(), ib.build(), rb.build(10, 4))
    }

    #[test]
    fn mines_singles_with_exact_coverage() {
        let db = db();
        let q = SelectionQuery::all();
        let group = db.rating_group(&q, 0);
        let mined = mine_patterns(&db, &group, &q, &MiningConfig::default());
        // gender F covers 6×4 = 24 of 40; NYC covers 10×2 = 20.
        let f_cover = mined
            .iter()
            .find(|(p, _)| {
                p.specificity() == 1
                    && {
                        let pr = p.preds[0];
                        pr.entity == Entity::Reviewer
                    }
                    && db.describe_pred(&p.preds[0]).contains("= F")
            })
            .map(|(_, c)| c.len());
        assert_eq!(f_cover, Some(24));
    }

    #[test]
    fn mines_pairs_with_intersection() {
        let db = db();
        let q = SelectionQuery::all();
        let group = db.rating_group(&q, 0);
        let mined = mine_patterns(&db, &group, &q, &MiningConfig::default());
        let pair = mined
            .iter()
            .find(|(p, _)| p.specificity() == 2)
            .expect("pairs mined");
        // Pair coverage must equal manual recount.
        let manual = group
            .records()
            .iter()
            .filter(|&&rec| pair.0.matches(&db, rec))
            .count();
        assert_eq!(pair.1.len(), manual);
    }

    #[test]
    fn constrained_attrs_excluded() {
        let db = db();
        let f = db
            .pred(Entity::Reviewer, "gender", &subdex_store::Value::str("F"))
            .unwrap();
        let q = SelectionQuery::from_preds(vec![f]);
        let group = db.rating_group(&q, 0);
        let mined = mine_patterns(&db, &group, &q, &MiningConfig::default());
        assert!(mined
            .iter()
            .all(|(p, _)| p.preds.iter().all(|pr| pr.entity != Entity::Reviewer)));
    }

    #[test]
    fn min_coverage_filters() {
        let db = db();
        let q = SelectionQuery::all();
        let group = db.rating_group(&q, 0);
        let cfg = MiningConfig {
            min_coverage: 25,
            pair_seeds: 8,
        };
        let mined = mine_patterns(&db, &group, &q, &cfg);
        assert!(mined.iter().all(|(_, c)| c.len() >= 25));
    }

    #[test]
    fn pattern_distance_and_query() {
        let db = db();
        let f = db
            .pred(Entity::Reviewer, "gender", &subdex_store::Value::str("F"))
            .unwrap();
        let nyc = db
            .pred(Entity::Item, "city", &subdex_store::Value::str("NYC"))
            .unwrap();
        let a = Pattern::single(f);
        let b = Pattern::pair(f, nyc);
        assert_eq!(a.distance(&b), 1);
        assert_eq!(a.distance(&a), 0);
        let q = b.to_query(&SelectionQuery::all());
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn intersect_sorted_basic() {
        assert_eq!(intersect_sorted(&[1, 3, 5, 7], &[2, 3, 7, 9]), vec![3, 7]);
        assert!(intersect_sorted(&[], &[1]).is_empty());
    }
}
