//! Property-based tests for the storage substrate.

use proptest::prelude::*;
use std::collections::HashSet;
use subdex_store::bitset::BitSet;
use subdex_store::{
    AttrValue, Cell, Entity, EntityTableBuilder, RatingDraft, RatingGroup, RatingTable,
    RatingTableBuilder, Schema, SelectionQuery, SubjectiveDb, Value,
};

// ------------------------------------------------------------- BitSet model

proptest! {
    #[test]
    fn bitset_models_hashset(
        ops in prop::collection::vec((0u32..200, prop::bool::ANY), 0..120),
    ) {
        let mut bs = BitSet::empty(200);
        let mut model: HashSet<u32> = HashSet::new();
        for (id, insert) in ops {
            if insert {
                bs.insert(id);
                model.insert(id);
            } else {
                bs.remove(id);
                model.remove(&id);
            }
        }
        prop_assert_eq!(bs.len(), model.len());
        let mut expect: Vec<u32> = model.into_iter().collect();
        expect.sort_unstable();
        prop_assert_eq!(bs.to_vec(), expect);
    }

    #[test]
    fn bitset_intersection_matches_model(
        a in prop::collection::hash_set(0u32..150, 0..80),
        b in prop::collection::hash_set(0u32..150, 0..80),
    ) {
        let va: Vec<u32> = a.iter().copied().collect();
        let vb: Vec<u32> = b.iter().copied().collect();
        let mut bs = BitSet::from_ids(150, &va);
        bs.intersect_with(&BitSet::from_ids(150, &vb));
        let mut expect: Vec<u32> = a.intersection(&b).copied().collect();
        expect.sort_unstable();
        prop_assert_eq!(bs.to_vec(), expect);
    }

    #[test]
    fn bitset_union_matches_model(
        a in prop::collection::hash_set(0u32..150, 0..80),
        b in prop::collection::hash_set(0u32..150, 0..80),
    ) {
        let va: Vec<u32> = a.iter().copied().collect();
        let vb: Vec<u32> = b.iter().copied().collect();
        let mut bs = BitSet::from_ids(150, &va);
        bs.union_with(&BitSet::from_ids(150, &vb));
        let mut expect: Vec<u32> = a.union(&b).copied().collect();
        expect.sort_unstable();
        prop_assert_eq!(bs.to_vec(), expect);
    }
}

// --------------------------------------------------- random small databases

/// Raw spec of a random database: per-reviewer attribute codes, per-item
/// codes, rating endpoints.
#[derive(Debug, Clone)]
struct DbSpec {
    reviewer_attrs: Vec<Vec<u8>>, // [attr][row] -> value code (< 4)
    item_attrs: Vec<Vec<u8>>,
    ratings: Vec<(u8, u8, u8)>, // (reviewer, item, score)
}

fn db_spec() -> impl Strategy<Value = DbSpec> {
    (2usize..8, 2usize..8, 1usize..40).prop_flat_map(|(n_rev, n_item, n_rat)| {
        (
            prop::collection::vec(prop::collection::vec(0u8..4, n_rev), 2),
            prop::collection::vec(prop::collection::vec(0u8..4, n_item), 2),
            prop::collection::vec((0..n_rev as u8, 0..n_item as u8, 1u8..=5), n_rat),
        )
            .prop_map(|(reviewer_attrs, item_attrs, ratings)| DbSpec {
                reviewer_attrs,
                item_attrs,
                ratings,
            })
    })
}

fn build(spec: &DbSpec) -> SubjectiveDb {
    let mut us = Schema::new();
    us.add("ua0", false);
    us.add("ua1", false);
    let mut ub = EntityTableBuilder::new(us);
    let n_rev = spec.reviewer_attrs[0].len();
    for r in 0..n_rev {
        ub.push_row(vec![
            Cell::One(Value::int(i64::from(spec.reviewer_attrs[0][r]))),
            Cell::One(Value::int(i64::from(spec.reviewer_attrs[1][r]))),
        ]);
    }
    let mut is = Schema::new();
    is.add("ia0", false);
    is.add("ia1", false);
    let mut ib = EntityTableBuilder::new(is);
    let n_item = spec.item_attrs[0].len();
    for i in 0..n_item {
        ib.push_row(vec![
            Cell::One(Value::int(i64::from(spec.item_attrs[0][i]))),
            Cell::One(Value::int(i64::from(spec.item_attrs[1][i]))),
        ]);
    }
    let mut rb = RatingTableBuilder::new(vec!["overall".into()], 5);
    for &(r, i, s) in &spec.ratings {
        rb.push(u32::from(r), u32::from(i), &[s]);
    }
    SubjectiveDb::new(ub.build(), ib.build(), rb.build(n_rev, n_item))
}

proptest! {
    #[test]
    fn selection_matches_brute_force(spec in db_spec(), av in 0u8..4, bv in 0u8..4) {
        let db = build(&spec);
        let mut preds = Vec::new();
        if let Some(p) = db.pred(Entity::Reviewer, "ua0", &Value::int(i64::from(av))) {
            preds.push(p);
        }
        if let Some(p) = db.pred(Entity::Item, "ia1", &Value::int(i64::from(bv))) {
            preds.push(p);
        }
        let q = SelectionQuery::from_preds(preds.clone());
        let group = db.rating_group(&q, 0);
        // Brute force over all rating records.
        let mut expect: Vec<u32> = Vec::new();
        for rec in 0..db.ratings().len() as u32 {
            let r = db.ratings().reviewer_of(rec) as usize;
            let i = db.ratings().item_of(rec) as usize;
            let ok_r = preds
                .iter()
                .filter(|p| p.entity == Entity::Reviewer)
                .all(|_| spec.reviewer_attrs[0][r] == av);
            let ok_i = preds
                .iter()
                .filter(|p| p.entity == Entity::Item)
                .all(|_| spec.item_attrs[1][i] == bv);
            if ok_r && ok_i {
                expect.push(rec);
            }
        }
        let mut got = group.records().to_vec();
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn filter_shrinks_generalize_grows(spec in db_spec(), av in 0u8..4) {
        let db = build(&spec);
        let base = SelectionQuery::all();
        let Some(p) = db.pred(Entity::Reviewer, "ua0", &Value::int(i64::from(av))) else {
            return Ok(());
        };
        let narrowed = base.with_added(p);
        let g_base = db.rating_group(&base, 0).len();
        let g_narrow = db.rating_group(&narrowed, 0).len();
        prop_assert!(g_narrow <= g_base, "filter can only shrink");
        let widened = narrowed.with_removed(&p);
        prop_assert_eq!(db.rating_group(&widened, 0).len(), g_base);
    }

    #[test]
    fn query_canonical_form_is_order_independent(
        pairs in prop::collection::vec((prop::bool::ANY, 0u16..3, 0u32..4), 0..6),
    ) {
        let preds: Vec<AttrValue> = pairs
            .iter()
            .map(|&(item, attr, val)| {
                AttrValue::new(
                    if item { Entity::Item } else { Entity::Reviewer },
                    subdex_store::AttrId(attr),
                    subdex_store::ValueId(val),
                )
            })
            .collect();
        let forward = SelectionQuery::from_preds(preds.clone());
        let mut reversed_preds = preds;
        reversed_preds.reverse();
        let reversed = SelectionQuery::from_preds(reversed_preds);
        prop_assert_eq!(forward, reversed);
    }

    #[test]
    fn phases_partition_the_group(records in prop::collection::vec(0u32..1000, 0..200), n in 1usize..12, seed in 0u64..100) {
        let unique: Vec<u32> = records.into_iter().collect::<HashSet<_>>().into_iter().collect();
        let mut table = RatingTableBuilder::new(vec!["d".into()], 5);
        for i in 0..1000u32 {
            table.push(i % 10, i % 3, &[1]);
        }
        let g = RatingGroup::new(&table.build(10, 3), unique.clone(), seed);
        let phases: Vec<&[u32]> = g.phase_ranges(n).into_iter().map(|r| &g.records()[r]).collect();
        prop_assert_eq!(phases.len(), n);
        let mut collected: Vec<u32> = phases.iter().flat_map(|p| p.iter().copied()).collect();
        collected.sort_unstable();
        let mut expect = unique;
        expect.sort_unstable();
        prop_assert_eq!(collected, expect);
        // Sizes within 1 of each other.
        let sizes: Vec<usize> = phases.iter().map(|p| p.len()).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(max - min <= 1);
    }

    #[test]
    fn parse_query_never_panics(spec in db_spec(), text in ".{0,80}") {
        let db = build(&spec);
        // Arbitrary input must yield Ok or a structured error, never panic.
        let _ = subdex_store::parse_query(&db, &text);
    }

    #[test]
    fn parse_round_trips_describe(spec in db_spec(), av in 0u8..4, bv in 0u8..4) {
        let db = build(&spec);
        let mut preds = Vec::new();
        if let Some(p) = db.pred(Entity::Reviewer, "ua1", &Value::int(i64::from(av))) {
            preds.push(p);
        }
        if let Some(p) = db.pred(Entity::Item, "ia0", &Value::int(i64::from(bv))) {
            preds.push(p);
        }
        let q = SelectionQuery::from_preds(preds);
        let text = db.describe_query(&q);
        let back = subdex_store::parse_query(&db, &text).expect("round trip parses");
        prop_assert_eq!(q, back);
    }

    #[test]
    fn csv_round_trip_preserves_tables(spec in db_spec()) {
        let db = build(&spec);
        let (u_csv, i_csv, r_csv) = subdex_store::csv::db_to_csv(&db);
        let u = subdex_store::csv::entity_from_csv(&u_csv, &[]).unwrap();
        let i = subdex_store::csv::entity_from_csv(&i_csv, &[]).unwrap();
        let r = subdex_store::csv::ratings_from_csv(&r_csv, 5, u.len(), i.len()).unwrap();
        prop_assert_eq!(u.len(), db.reviewers().len());
        prop_assert_eq!(i.len(), db.items().len());
        prop_assert_eq!(r.len(), db.ratings().len());
        let db2 = SubjectiveDb::new(u, i, r);
        // Every record's scores survive.
        for rec in 0..db.ratings().len() as u32 {
            prop_assert_eq!(
                db.ratings().score(rec, subdex_store::DimId(0)),
                db2.ratings().score(rec, subdex_store::DimId(0))
            );
        }
    }
}

// ------------------------------------------- epochs sharing rating columns

/// One record of the plain-`Vec` reference: reviewer, item, scores.
type ModelRecord = (u32, u32, Vec<u8>);

const MODEL_REVIEWERS: u32 = 9;
const MODEL_ITEMS: u32 = 7;
const MODEL_DIMS: usize = 3;

fn model_drafts(size: usize, seed: u32) -> Vec<RatingDraft> {
    (0..size as u32)
        .map(|k| {
            let x = seed
                .wrapping_mul(2_654_435_761)
                .wrapping_add(k.wrapping_mul(40_503));
            let scores = (0..MODEL_DIMS as u32)
                .map(|d| 1 + ((x >> (3 * d)) % 5) as u8)
                .collect();
            RatingDraft::new(x % MODEL_REVIEWERS, (x >> 7) % MODEL_ITEMS, scores)
        })
        .collect()
}

/// Every column, per-record accessor and base adjacency list of `table`
/// against the reference records.
fn assert_matches_model(table: &RatingTable, model: &[ModelRecord]) -> Result<(), TestCaseError> {
    prop_assert_eq!(table.len(), model.len());
    let reviewers: Vec<u32> = model.iter().map(|r| r.0).collect();
    let items: Vec<u32> = model.iter().map(|r| r.1).collect();
    prop_assert_eq!(table.reviewer_column(), &reviewers[..]);
    prop_assert_eq!(table.item_column(), &items[..]);
    for dim in table.dims() {
        let col: Vec<u8> = model.iter().map(|r| r.2[dim.index()]).collect();
        prop_assert_eq!(table.score_column(dim), &col[..]);
    }
    for (rec, (r, i, scores)) in model.iter().enumerate() {
        let rec = rec as u32;
        prop_assert_eq!(table.reviewer_of(rec), *r);
        prop_assert_eq!(table.item_of(rec), *i);
        for dim in table.dims() {
            prop_assert_eq!(table.score(rec, dim), scores[dim.index()]);
        }
    }
    let base = &reviewers[..table.indexed_len()];
    for r in 0..MODEL_REVIEWERS {
        let expect: Vec<u32> = (0..base.len() as u32)
            .filter(|&rec| base[rec as usize] == r)
            .collect();
        prop_assert_eq!(table.records_of_reviewer(r), &expect[..]);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Epochs share append-only column buffers, so an append writes past
    /// its parent's records and only a fork from an epoch someone already
    /// extended (or a full buffer) copies. Random appends — by value from
    /// any live epoch, or in place on one — plus random drops, over enough
    /// records to cross several capacity doublings: every live epoch must
    /// read exactly what cloning and pushing onto plain `Vec`s gives.
    #[test]
    fn epochs_read_what_clone_and_push_gives(
        start in 0usize..6,
        ops in prop::collection::vec((0u32..1000, 0usize..70, 0u8..8, 0u32..100_000), 1..40),
    ) {
        let dims = (0..MODEL_DIMS).map(|d| format!("d{d}")).collect();
        let mut builder = RatingTableBuilder::new(dims, 5);
        let mut model: Vec<ModelRecord> = Vec::new();
        for d in model_drafts(start, 7) {
            builder.push(d.reviewer, d.item, &d.scores);
            model.push((d.reviewer, d.item, d.scores));
        }
        let (nu, ni) = (MODEL_REVIEWERS as usize, MODEL_ITEMS as usize);
        let mut live = vec![(builder.build(nu, ni), model)];
        for (pick, size, action, seed) in ops {
            let at = pick as usize % live.len();
            let drafts = model_drafts(size, seed);
            let mut grown = live[at].1.clone();
            grown.extend(drafts.iter().map(|d| (d.reviewer, d.item, d.scores.clone())));
            match action {
                // In place on a live epoch: the table it was is gone.
                0 => {
                    live[at].0.append_drafts(&drafts, nu, ni);
                    live[at].1 = grown;
                }
                // Drop an epoch, then fork the next pick.
                1 if live.len() > 1 => {
                    live.swap_remove(at);
                }
                _ => {
                    let next = live[at].0.with_appended(&drafts, nu, ni);
                    live.push((next, grown));
                }
            }
            for (table, model) in &live {
                assert_matches_model(table, model)?;
            }
        }
    }
}
