//! Seeded inputs: walk scripts, session-start templates and rating drafts.
//!
//! Everything here is a pure function of `(seed, db)`. A *walk script* is
//! [`WALK_STEPS`] selection queries: the root query, then edits of the
//! previous query — add a predicate (0.55), replace a value (0.20) or remove
//! a predicate (0.25) — over the values `attribute_summaries` lists, which
//! is what an analyst picks from in the paper's drop-downs (Figure 5). An
//! edit whose group has fewer than [`MIN_GROUP`] records is rejected and
//! redrawn, so no step degenerates into an empty display.

use std::collections::HashMap;

use subdex_store::{AttrId, AttrValue, Entity, RatingDraft, SelectionQuery, SubjectiveDb};

use crate::rng::Rng;

/// Steps per session in every workload.
pub const WALK_STEPS: usize = 8;
/// Smallest group a scripted operation may select.
pub const MIN_GROUP: usize = 50;
/// Session-start templates of the `serve_*` workloads.
pub const TEMPLATES: usize = 24;
/// Ratings per append batch.
pub const BATCH: usize = 32;

const OP_WEIGHTS: [f64; 3] = [0.55, 0.20, 0.25];
const MAX_DRAWS: usize = 64;

/// Every selectable `(entity, attribute, value)` with at least one row,
/// grouped by attribute.
struct Vocabulary {
    attrs: Vec<(Entity, AttrId, Vec<AttrValue>)>,
}

impl Vocabulary {
    fn of(db: &SubjectiveDb) -> Self {
        let mut attrs = Vec::new();
        for entity in [Entity::Reviewer, Entity::Item] {
            for summary in db.attribute_summaries(entity) {
                let values: Vec<AttrValue> = summary
                    .values
                    .iter()
                    .filter(|(_, rows)| *rows > 0)
                    .filter_map(|(value, _)| db.pred(entity, &summary.name, value))
                    .collect();
                if !values.is_empty() {
                    attrs.push((entity, summary.attr, values));
                }
            }
        }
        Self { attrs }
    }

    fn values_of(&self, entity: Entity, attr: AttrId) -> &[AttrValue] {
        self.attrs
            .iter()
            .find(|(e, a, _)| *e == entity && *a == attr)
            .map(|(_, _, v)| v.as_slice())
            .unwrap_or(&[])
    }
}

/// Generates scripts, memoizing group sizes (the rejection test is the
/// generator's whole cost).
pub struct ScriptGen<'a> {
    db: &'a SubjectiveDb,
    vocab: Vocabulary,
    sizes: HashMap<SelectionQuery, usize>,
}

impl<'a> ScriptGen<'a> {
    pub fn new(db: &'a SubjectiveDb) -> Self {
        Self {
            db,
            vocab: Vocabulary::of(db),
            sizes: HashMap::new(),
        }
    }

    fn group_size(&mut self, q: &SelectionQuery) -> usize {
        if let Some(&n) = self.sizes.get(q) {
            return n;
        }
        let n = self.db.collect_group_records(q).len();
        self.sizes.insert(q.clone(), n);
        n
    }

    fn draw_edit(&self, q: &SelectionQuery, rng: &mut Rng) -> Option<SelectionQuery> {
        match rng.weighted(&OP_WEIGHTS) {
            0 => {
                let free: Vec<_> = self
                    .vocab
                    .attrs
                    .iter()
                    .filter(|(e, a, _)| !q.constrains(*e, *a))
                    .collect();
                if free.is_empty() {
                    return None;
                }
                let (_, _, values) = free[rng.below(free.len())];
                Some(q.with_added(values[rng.below(values.len())]))
            }
            1 => {
                if q.is_empty() {
                    return None;
                }
                let old = q.preds()[rng.below(q.len())];
                let values = self.vocab.values_of(old.entity, old.attr);
                let new = values[rng.below(values.len())];
                if new == old {
                    return None;
                }
                q.with_changed(old.entity, old.attr, new.value)
            }
            _ => {
                if q.is_empty() {
                    return None;
                }
                Some(q.with_removed(&q.preds()[rng.below(q.len())]))
            }
        }
    }

    /// One accepted edit of `q`. Falls back to the root query when
    /// [`MAX_DRAWS`] draws were all rejected (a corner the generated
    /// datasets do not reach; it keeps the script length fixed regardless).
    fn next_query(&mut self, q: &SelectionQuery, rng: &mut Rng) -> SelectionQuery {
        for _ in 0..MAX_DRAWS {
            let Some(candidate) = self.draw_edit(q, rng) else {
                continue;
            };
            if candidate != *q && self.group_size(&candidate) >= MIN_GROUP {
                return candidate;
            }
        }
        SelectionQuery::all()
    }

    /// Walk script number `index` of `seed`.
    pub fn walk(&mut self, seed: u64, index: usize) -> Vec<SelectionQuery> {
        let mut rng = Rng::fork(seed, 0x77a1_0000 + index as u64);
        let mut script = vec![SelectionQuery::all()];
        while script.len() < WALK_STEPS {
            let next = self.next_query(script.last().expect("non-empty"), &mut rng);
            script.push(next);
        }
        script
    }

    pub fn walks(&mut self, seed: u64, count: usize) -> Vec<Vec<SelectionQuery>> {
        (0..count).map(|i| self.walk(seed, i)).collect()
    }

    /// `count` walks, reordered so that the first `lead` of them are spread
    /// over the whole draw's cost range: the walks are ranked by the records
    /// their steps select (what a step costs grows with its group) and every
    /// `count / lead`-th is moved to the front. `explore_rp` can afford only
    /// the leading few per round, and a plain draw of ten walks moved its
    /// median step by ±15 % between seeds; a systematic sample over the
    /// ranked draw keeps every seed's round on the same cost profile while
    /// the queries themselves still differ.
    pub fn ranked_walks(
        &mut self,
        seed: u64,
        count: usize,
        lead: usize,
    ) -> Vec<Vec<SelectionQuery>> {
        let walks = self.walks(seed, count);
        let mut order: Vec<usize> = (0..count).collect();
        order.sort_by_key(|&i| walks[i].iter().map(|q| self.group_size(q)).sum::<usize>());
        let stride = (count / lead.max(1)).max(1);
        let mut leading: Vec<usize> = order
            .iter()
            .copied()
            .skip(stride / 2)
            .step_by(stride)
            .take(lead)
            .collect();
        leading.sort_unstable();
        let rest = (0..count).filter(|i| !leading.contains(i));
        let picked: Vec<usize> = leading.iter().copied().chain(rest).collect();
        picked.into_iter().map(|i| walks[i].clone()).collect()
    }

    /// [`TEMPLATES`] distinct session-start queries: the root query plus
    /// one- and two-predicate selections of at least [`MIN_GROUP`] records,
    /// broadest first — analysts open on the broad selections more often than
    /// on the narrow ones, and the rank a template holds decides how often
    /// it is drawn (see [`start_ranks`]).
    pub fn templates(&mut self, seed: u64) -> Vec<SelectionQuery> {
        let mut rng = Rng::fork(seed, 0x7e3a_0000);
        let mut out = vec![SelectionQuery::all()];
        while out.len() < TEMPLATES {
            let mut q = self.next_query(&SelectionQuery::all(), &mut rng);
            if rng.unit() < 0.5 {
                q = self.next_query(&q, &mut rng);
            }
            if !out.contains(&q) {
                out.push(q);
            }
        }
        out.sort_by_key(|q| std::cmp::Reverse(self.group_size(q)));
        out
    }
}

/// The template rank each of a round's `sessions` starts from: rank `r` gets
/// the share Zipf(1.0) gives it (largest remainders first), in an order the
/// seed shuffles. Drawing the ranks independently instead made the median
/// first step of twenty sessions jump between the root query's cost and a
/// narrow template's from seed to seed.
pub fn start_ranks(seed: u64, sessions: usize, templates: usize) -> Vec<usize> {
    let weights = crate::rng::zipf_weights(templates, 1.0);
    let total: f64 = weights.iter().sum();
    let quotas: Vec<f64> = weights
        .iter()
        .map(|w| w / total * sessions as f64)
        .collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..templates).collect();
    by_remainder.sort_by(|&a, &b| {
        let (ra, rb) = (quotas[a].fract(), quotas[b].fract());
        rb.partial_cmp(&ra).expect("finite").then(a.cmp(&b))
    });
    let assigned: usize = counts.iter().sum();
    for &rank in by_remainder.iter().take(sessions - assigned) {
        counts[rank] += 1;
    }
    let mut ranks: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(rank, &n)| std::iter::repeat_n(rank, n))
        .collect();
    let mut rng = Rng::fork(seed, 0x5a47_0000);
    for i in (1..ranks.len()).rev() {
        ranks.swap(i, rng.below(i + 1));
    }
    ranks
}

/// Append batch number `index` of `seed`: [`BATCH`] drafts that
/// `SubjectiveDb::check_ratings` accepts (existing rows, full arity, scores
/// inside the scale).
pub fn draft_batch(db: &SubjectiveDb, seed: u64, index: usize) -> Vec<RatingDraft> {
    let mut rng = Rng::fork(seed, 0xd4af_0000 + index as u64);
    let reviewers = db.reviewers().len();
    let items = db.items().len();
    let dims = db.ratings().dim_count();
    let scale = db.ratings().scale() as usize;
    (0..BATCH)
        .map(|_| {
            RatingDraft::new(
                rng.below(reviewers) as u32,
                rng.below(items) as u32,
                (0..dims).map(|_| 1 + rng.below(scale) as u8).collect(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use subdex_data::{yelp, GenParams};

    fn tiny_db() -> SubjectiveDb {
        yelp::generate(GenParams::new(1_500, 30, 4_000, 11))
            .finish()
            .db
    }

    #[test]
    fn scripts_are_a_pure_function_of_the_seed() {
        let db = tiny_db();
        let a = ScriptGen::new(&db).ranked_walks(5, 12, 3);
        let b = ScriptGen::new(&db).ranked_walks(5, 12, 3);
        assert_eq!(a, b);
        assert_ne!(a, ScriptGen::new(&db).ranked_walks(6, 12, 3));
        // Reordering keeps every drawn walk exactly once.
        let mut plain = ScriptGen::new(&db).walks(5, 12);
        let mut ranked = a.clone();
        plain.sort_by_key(|w| {
            w.iter()
                .map(SelectionQuery::fingerprint)
                .collect::<Vec<_>>()
        });
        ranked.sort_by_key(|w| {
            w.iter()
                .map(SelectionQuery::fingerprint)
                .collect::<Vec<_>>()
        });
        assert_eq!(plain, ranked);
        assert_eq!(
            ScriptGen::new(&db).templates(5),
            ScriptGen::new(&db).templates(5)
        );
    }

    #[test]
    fn no_scripted_group_is_below_the_floor() {
        let db = tiny_db();
        let mut gen = ScriptGen::new(&db);
        for script in gen.ranked_walks(3, 12, 4) {
            assert_eq!(script.len(), WALK_STEPS);
            assert_eq!(script[0], SelectionQuery::all());
            for pair in script.windows(2) {
                assert!(pair[0].diff_size(&pair[1]) <= 2);
            }
            for q in &script {
                assert!(db.collect_group_records(q).len() >= MIN_GROUP, "{q:?}");
            }
        }
        let templates = gen.templates(3);
        assert_eq!(templates.len(), TEMPLATES);
        assert_eq!(templates[0], SelectionQuery::all());
        let sizes: Vec<usize> = templates
            .iter()
            .map(|q| db.collect_group_records(q).len())
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]), "broadest first");
        assert!(*sizes.last().unwrap() >= MIN_GROUP);
    }

    #[test]
    fn start_ranks_follow_zipf_shares_in_a_seeded_order() {
        let ranks = start_ranks(4, 20, TEMPLATES);
        assert_eq!(ranks.len(), 20);
        let count = |r: usize| ranks.iter().filter(|&&x| x == r).count();
        // Zipf(1.0) over 24 ranks gives rank 0 a 26 % share and rank 1 13 %.
        assert_eq!((count(0), count(1), count(2)), (5, 3, 2));
        assert_eq!(ranks, start_ranks(4, 20, TEMPLATES));
        assert_ne!(ranks, start_ranks(5, 20, TEMPLATES));
        let mut a = ranks.clone();
        let mut b = start_ranks(5, 20, TEMPLATES);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "every seed starts from the same multiset of ranks");
    }

    #[test]
    fn drafts_are_seeded_and_valid() {
        let db = tiny_db();
        for i in 0..20 {
            let batch = draft_batch(&db, 9, i);
            assert_eq!(batch.len(), BATCH);
            assert!(db.check_ratings(&batch).is_ok());
            assert_eq!(batch, draft_batch(&db, 9, i));
        }
        assert_ne!(draft_batch(&db, 9, 0), draft_batch(&db, 9, 1));
    }
}
