//! Output verification: a step counts as completed only if its result is
//! the one the paper's problem statements allow.
//!
//! Checked inline (microseconds, outside every timed span): the executed
//! query is the requested one; at most `k` maps in non-increasing
//! dimension-weighted utility; at most `o` recommendations, each a different
//! query within two predicate edits of the current one; every score finite.
//! Checked after the timed region, once per distinct `(query, epoch)`: the
//! reported group size equals the record count an independent
//! `collect_group_records` finds.

use std::collections::HashMap;

use subdex_core::StepResult;
use subdex_store::{Entity, SelectionQuery, SubjectiveDb};

/// Number of attributes on which two queries select differently: add,
/// remove and change-value each count once (the paper's "differ in at most
/// 2 attribute-value pairs").
pub fn edit_distance(a: &SelectionQuery, b: &SelectionQuery) -> usize {
    let mut attrs: Vec<(Entity, u16)> = a
        .preds()
        .iter()
        .chain(b.preds())
        .filter(|p| !(a.contains(p) && b.contains(p)))
        .map(|p| (p.entity, p.attr.0))
        .collect();
    attrs.sort_unstable();
    attrs.dedup();
    attrs.len()
}

/// The inline checks. `k`/`o` are the display limits of the engine
/// configuration in use (`o == 0` in User-Driven mode).
pub fn check_step(
    requested: &SelectionQuery,
    result: &StepResult,
    k: usize,
    o: usize,
) -> Result<(), String> {
    if result.query != *requested {
        return Err("executed query differs from the requested one".into());
    }
    if result.maps.len() > k {
        return Err(format!("{} maps displayed, k = {k}", result.maps.len()));
    }
    for m in &result.maps {
        if !(m.utility.is_finite() && m.dw_utility.is_finite()) {
            return Err("non-finite map utility".into());
        }
    }
    if result
        .maps
        .windows(2)
        .any(|w| w[0].dw_utility < w[1].dw_utility)
    {
        return Err("maps not in non-increasing DW utility".into());
    }
    if result.recommendations.len() > o {
        return Err(format!(
            "{} recommendations, o = {o}",
            result.recommendations.len()
        ));
    }
    for r in &result.recommendations {
        if !r.utility.is_finite() {
            return Err("non-finite recommendation utility".into());
        }
        if r.query == result.query {
            return Err("recommendation equals the current query".into());
        }
        let d = edit_distance(&result.query, &r.query);
        if d > 2 {
            return Err(format!("recommendation is {d} predicate edits away"));
        }
    }
    Ok(())
}

/// Running digest of results only — map keys, utility bits, recommendation
/// queries — so two runs of one seed can be compared without any counter
/// or timing entering the comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(pub u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn add_step(&mut self, result: &StepResult) {
        self.mix(result.query.fingerprint());
        self.mix(result.group_size as u64);
        self.mix(result.maps.len() as u64);
        for m in &result.maps {
            self.mix(matches!(m.map.key.entity, Entity::Item) as u64);
            self.mix(u64::from(m.map.key.attr.0));
            self.mix(u64::from(m.map.key.dim.0));
            self.mix(m.utility.to_bits());
            self.mix(m.dw_utility.to_bits());
        }
        self.mix(result.recommendations.len() as u64);
        for r in &result.recommendations {
            self.mix(r.query.fingerprint());
            self.mix(r.utility.to_bits());
            self.mix(r.group_size as u64);
        }
    }
}

/// Group sizes observed during the timed region, keyed by query and the
/// database epoch the step reported, checked afterwards.
#[derive(Default)]
pub struct GroupSizes {
    seen: HashMap<(SelectionQuery, u64), (usize, u64)>,
    conflicts: u64,
}

impl GroupSizes {
    pub fn observe(&mut self, result: &StepResult) {
        let key = (result.query.clone(), result.stats.db_epoch);
        let entry = self.seen.entry(key).or_insert((result.group_size, 0));
        if entry.0 == result.group_size {
            entry.1 += 1;
        } else {
            // Two steps over one query and epoch disagree: one is wrong.
            self.conflicts += 1;
        }
    }

    pub fn merge(&mut self, other: GroupSizes) {
        self.conflicts += other.conflicts;
        for (key, (size, count)) in other.seen {
            let entry = self.seen.entry(key).or_insert((size, 0));
            if entry.0 == size {
                entry.1 += count;
            } else {
                self.conflicts += count;
            }
        }
    }

    /// Distinct queries observed, in a stable order.
    pub fn queries(&self) -> Vec<SelectionQuery> {
        let mut qs: Vec<SelectionQuery> = self.seen.keys().map(|(q, _)| q.clone()).collect();
        qs.sort_by_key(|q| q.fingerprint());
        qs.dedup();
        qs
    }

    /// Number of observed steps whose group size is wrong. `db` holds every
    /// rating the run ended with; `len_at_epoch(e)` is the rating count at
    /// epoch `e`. Appends only add records at the end, so the group at epoch
    /// `e` is the final group cut at that length.
    pub fn failed_steps(&self, db: &SubjectiveDb, len_at_epoch: impl Fn(u64) -> usize) -> u64 {
        let mut records: HashMap<&SelectionQuery, Vec<u32>> = HashMap::new();
        let mut failed = self.conflicts;
        for ((query, epoch), (size, count)) in &self.seen {
            let recs = records
                .entry(query)
                .or_insert_with(|| db.collect_group_records(query));
            let cut = len_at_epoch(*epoch) as u32;
            if recs.partition_point(|&r| r < cut) != *size {
                failed += count;
            }
        }
        failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use subdex_core::{EngineConfig, ExplorationMode, ExplorationSession};
    use subdex_data::{yelp, GenParams};
    use subdex_store::AttrValue;

    fn db() -> Arc<SubjectiveDb> {
        Arc::new(
            yelp::generate(GenParams::new(1_500, 30, 4_000, 11))
                .finish()
                .db,
        )
    }

    fn one_step(db: &Arc<SubjectiveDb>) -> StepResult {
        let mut session = ExplorationSession::new(
            Arc::clone(db),
            EngineConfig::default(),
            ExplorationMode::RecommendationPowered,
        );
        session.apply_operation(&SelectionQuery::all()).clone()
    }

    #[test]
    fn a_genuine_step_passes_every_check() {
        let db = db();
        let step = one_step(&db);
        assert!(step.maps.len() >= 2 && !step.recommendations.is_empty());
        assert_eq!(check_step(&SelectionQuery::all(), &step, 3, 3), Ok(()));
        let mut sizes = GroupSizes::default();
        sizes.observe(&step);
        assert_eq!(sizes.failed_steps(&db, |_| db.ratings().len()), 0);
    }

    #[test]
    fn doctored_results_are_rejected() {
        let db = db();
        let step = one_step(&db);
        let root = SelectionQuery::all();

        let mut shuffled = step.clone();
        shuffled.maps.reverse();
        assert!(shuffled.maps[0].dw_utility < shuffled.maps.last().unwrap().dw_utility);
        assert!(check_step(&root, &shuffled, 3, 3).is_err());

        // A recommendation three predicate edits from the current query.
        let vocab: Vec<AttrValue> = [Entity::Reviewer, Entity::Item]
            .into_iter()
            .flat_map(|e| {
                db.attribute_summaries(e)
                    .into_iter()
                    .filter_map(move |s| Some((e, s.name, s.values.first()?.0.clone())))
            })
            .filter_map(|(e, name, value)| db.pred(e, &name, &value))
            .collect();
        let mut far = step.clone();
        far.recommendations[0].query = SelectionQuery::from_preds(vocab[..3].iter().copied());
        assert_eq!(edit_distance(&root, &far.recommendations[0].query), 3);
        assert!(check_step(&root, &far, 3, 3).is_err());

        let mut identity = step.clone();
        identity.recommendations[0].query = root.clone();
        assert!(check_step(&root, &identity, 3, 3).is_err());

        assert!(check_step(&root, &step, 2, 3).is_err(), "more than k maps");
        assert!(check_step(&root, &step, 3, 0).is_err(), "more than o recs");
        assert!(check_step(&SelectionQuery::from_preds([vocab[0]]), &step, 3, 3).is_err());

        let mut wrong_size = step.clone();
        wrong_size.group_size += 1;
        let mut sizes = GroupSizes::default();
        sizes.observe(&wrong_size);
        assert_eq!(sizes.failed_steps(&db, |_| db.ratings().len()), 1);
    }

    #[test]
    fn change_value_counts_as_one_edit() {
        let db = db();
        let s = &db.attribute_summaries(Entity::Item)[0];
        let a = db.pred(Entity::Item, &s.name, &s.values[0].0).unwrap();
        let b = db.pred(Entity::Item, &s.name, &s.values[1].0).unwrap();
        let qa = SelectionQuery::from_preds([a]);
        let qb = SelectionQuery::from_preds([b]);
        assert_eq!(qa.diff_size(&qb), 2);
        assert_eq!(edit_distance(&qa, &qb), 1);
        assert_eq!(edit_distance(&qa, &SelectionQuery::all()), 1);
        assert_eq!(edit_distance(&qa, &qa), 0);
    }

    #[test]
    fn fingerprint_sees_results_not_counters() {
        let db = db();
        let step = one_step(&db);
        let mut a = Fingerprint::default();
        a.add_step(&step);
        let mut recount = step.clone();
        recount.stats.generator.candidates_total += 1;
        let mut b = Fingerprint::default();
        b.add_step(&recount);
        assert_eq!(a, b);
        let mut rescored = step.clone();
        rescored.maps[0].utility += 1e-9;
        let mut c = Fingerprint::default();
        c.add_step(&rescored);
        assert_ne!(a, c);
    }
}
