//! Property tests pinning the compressed hybrid index byte-identical to
//! the canonical adjacency walk, across query shapes (0–4 predicates over
//! both entities), container classes (array / bitmap), and kernel
//! paths (every path the host supports, scalar included).
//!
//! These are the byte-identity contracts the group cache and the snapshot
//! format rely on: every materialization route — walk, index probe, and
//! multi-predicate derivation from an ancestor's columns — must produce
//! the same canonical ascending record order — also after appends, when the
//! walk reads an adjacency base plus an unindexed tail.

use proptest::prelude::*;
use proptest::strategy::Just;
use std::collections::BTreeSet;

use subdex_stats::kernels::{self, KernelPath};
use subdex_store::{
    AttrValue, Cell, Entity, EntityTableBuilder, GroupColumns, GroupRoute, RatingDraft,
    RatingTable, RatingTableBuilder, Schema, SelectionQuery, SubjectiveDb, Value,
};

/// Random database whose reviewer attributes are laid out to provoke every
/// container class: `md` (row % k — fragmented and dense, promotes to
/// bitmaps once rows grow), `blk` (row / chunk — clustered: contiguous row
/// ranges, arrays or bitmaps by size), `rnd` (random over a wide domain —
/// sparse arrays). Items carry a
/// multi-valued `tags` attribute whose cells may repeat a value (the
/// build-time dedup case) plus a `city`.
#[derive(Debug, Clone)]
struct Spec {
    modk: u8,
    chunk: u8,
    rnd: Vec<u8>,
    item_tags: Vec<Vec<u8>>,
    item_city: Vec<u8>,
    ratings: Vec<(u16, u16)>,
}

fn spec() -> impl Strategy<Value = Spec> {
    (8usize..96, 3usize..10, 2u8..5, 2u8..17).prop_flat_map(|(rows, items, modk, chunk)| {
        (
            Just(modk),
            Just(chunk),
            prop::collection::vec(0u8..32, rows),
            prop::collection::vec(prop::collection::vec(0u8..4, 1..4), items),
            prop::collection::vec(0u8..3, items),
            prop::collection::vec((0..rows as u16, 0..items as u16), 1..200),
        )
            .prop_map(|(modk, chunk, rnd, item_tags, item_city, mut ratings)| {
                let mut seen = std::collections::HashSet::new();
                ratings.retain(|&(r, i)| seen.insert((r, i)));
                Spec {
                    modk,
                    chunk,
                    rnd,
                    item_tags,
                    item_city,
                    ratings,
                }
            })
    })
}

fn build(spec: &Spec) -> SubjectiveDb {
    let mut us = Schema::new();
    us.add("md", false);
    us.add("blk", false);
    us.add("rnd", false);
    let mut ub = EntityTableBuilder::new(us);
    for (row, &rnd) in spec.rnd.iter().enumerate() {
        ub.push_row(vec![
            Cell::One(Value::int((row % spec.modk as usize) as i64)),
            Cell::One(Value::int((row / spec.chunk as usize) as i64)),
            Cell::One(Value::int(i64::from(rnd))),
        ]);
    }
    let mut is = Schema::new();
    is.add("tags", true);
    is.add("city", false);
    let mut ib = EntityTableBuilder::new(is);
    for (tags, &city) in spec.item_tags.iter().zip(&spec.item_city) {
        ib.push_row(vec![
            Cell::Many(tags.iter().map(|&t| Value::int(i64::from(t))).collect()),
            Cell::One(Value::int(i64::from(city))),
        ]);
    }
    let mut rb = RatingTableBuilder::new(vec!["overall".into()], 5);
    for &(r, i) in &spec.ratings {
        rb.push(u32::from(r), u32::from(i), &[3]);
    }
    SubjectiveDb::new(
        ub.build(),
        ib.build(),
        rb.build(spec.rnd.len(), spec.item_tags.len()),
    )
}

/// Deduped predicate list picked from the spec by small value seeds; any
/// seed that names an absent value is simply dropped.
fn pick_preds(db: &SubjectiveDb, picks: &[(u8, u8)]) -> Vec<AttrValue> {
    let mut preds = BTreeSet::new();
    for &(which, v) in picks {
        let p = match which % 5 {
            0 => db.pred(Entity::Reviewer, "md", &Value::int(i64::from(v % 5))),
            1 => db.pred(Entity::Reviewer, "blk", &Value::int(i64::from(v % 8))),
            2 => db.pred(Entity::Reviewer, "rnd", &Value::int(i64::from(v % 32))),
            3 => db.pred(Entity::Item, "tags", &Value::int(i64::from(v % 4))),
            _ => db.pred(Entity::Item, "city", &Value::int(i64::from(v % 3))),
        };
        preds.extend(p);
    }
    preds.into_iter().collect()
}

/// Brute-force reviewer/item rows matching a predicate, straight from the
/// spec (ground truth independent of any index structure).
fn naive_rows(spec: &Spec, p: &AttrValue, db: &SubjectiveDb) -> Vec<u32> {
    let table = match p.entity {
        Entity::Reviewer => db.reviewers(),
        Entity::Item => db.items(),
    };
    let name = &table.schema().attr(p.attr).name;
    let want = match table.dictionary(p.attr).value(p.value) {
        Value::Int(i) => *i,
        Value::Str(_) => unreachable!("all test attributes are ints"),
    };
    let rows = match p.entity {
        Entity::Reviewer => spec.rnd.len(),
        Entity::Item => spec.item_tags.len(),
    };
    (0..rows as u32)
        .filter(|&row| {
            let r = row as usize;
            match name.as_str() {
                "md" => (r % spec.modk as usize) as i64 == want,
                "blk" => (r / spec.chunk as usize) as i64 == want,
                "rnd" => i64::from(spec.rnd[r]) == want,
                "tags" => spec.item_tags[r].iter().any(|&t| i64::from(t) == want),
                "city" => i64::from(spec.item_city[r]) == want,
                other => unreachable!("unknown attribute {other}"),
            }
        })
        .collect()
}

/// One appended batch: how its size relates to the re-index threshold,
/// and the seed its drafts are drawn from.
#[derive(Debug, Clone, Copy)]
enum BatchSize {
    /// A handful of drafts: stays in the tail.
    Small(usize),
    /// Grows the tail to exactly its limit: the largest tail never indexed.
    FillTail,
    /// Pushes the tail this far past its limit: the base is rebuilt.
    Overflow(usize),
}

fn batch_plan() -> impl Strategy<Value = Vec<(BatchSize, u64)>> {
    prop::collection::vec((0u8..4, 1usize..48, 0u64..u64::MAX), 0..5).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, n, seed)| {
                let size = match kind {
                    0 | 1 => BatchSize::Small(n),
                    2 => BatchSize::FillTail,
                    _ => BatchSize::Overflow(n),
                };
                (size, seed)
            })
            .collect()
    })
}

/// Seeded drafts over the whole reviewer × item grid, so they land on
/// entities with and without earlier ratings (a spec rates at most 200 of
/// up to 96 × 10 pairs), repeats included.
fn drafts_for(db: &SubjectiveDb, size: BatchSize, seed: u64) -> Vec<RatingDraft> {
    let ratings = db.ratings();
    let tail = ratings.len() - ratings.indexed_len();
    let room = RatingTable::tail_limit(ratings.indexed_len()) - tail;
    let n = match size {
        BatchSize::Small(n) => n,
        BatchSize::FillTail => room,
        BatchSize::Overflow(n) => room + n,
    };
    let mut state = seed;
    let mut next = |span: usize| {
        // SplitMix64.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % span as u64) as u32
    };
    (0..n)
        .map(|_| {
            let reviewer = next(db.reviewers().len());
            let item = next(db.items().len());
            RatingDraft::new(reviewer, item, vec![1 + next(5) as u8])
        })
        .collect()
}

/// Row-at-a-time reference for a rating group: every record, in id order,
/// whose reviewer row and item row carry every predicate's value — read
/// from the entity columns, not from any index or adjacency list.
fn filtered_rows(db: &SubjectiveDb, q: &SelectionQuery) -> Vec<u32> {
    let ratings = db.ratings();
    (0..ratings.len() as u32)
        .filter(|&rec| {
            q.preds().iter().all(|p| {
                let row = match p.entity {
                    Entity::Reviewer => ratings.reviewer_of(rec),
                    Entity::Item => ratings.item_of(rec),
                };
                db.table(p.entity).row_has(row, p.attr, p.value)
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Appends leave new records in an unindexed adjacency tail until it
    /// outgrows a fraction of the base. Whatever mix of batches came
    /// before — tail empty, partly full, full to the limit, just rebuilt —
    /// the walk (base + tail), the probe and a row-at-a-time filter name
    /// the same ascending records, a derivation from a parent walked
    /// across the tail equals the child's own walk, and the next-epoch
    /// constructor builds what clone-then-append-in-place builds (one of
    /// the two forks writes into the shared column buffer, the other
    /// copies it).
    #[test]
    fn walk_probe_and_row_filter_agree_across_appended_tails(
        sp in spec(),
        plan in batch_plan(),
        queries in prop::collection::vec(
            prop::collection::vec((0u8..5, 0u8..32), 0..5), 1..4),
        mask in 0u8..16,
    ) {
        let mut db = build(&sp);
        for step in 0..=plan.len() {
            if step > 0 {
                let (size, seed) = plan[step - 1];
                let drafts = drafts_for(&db, size, seed);
                let mut in_place = db.clone();
                in_place.append_ratings(&drafts).expect("valid drafts");
                let next = db.with_appended(&drafts).expect("valid drafts");

                let (a, b) = (next.ratings(), in_place.ratings());
                prop_assert_eq!(next.epoch(), db.epoch() + 1);
                prop_assert_eq!(next.epoch(), in_place.epoch());
                prop_assert_eq!(a.len(), db.ratings().len() + drafts.len());
                prop_assert_eq!(a.reviewer_column(), b.reviewer_column());
                prop_assert_eq!(a.item_column(), b.item_column());
                for dim in a.dims() {
                    prop_assert_eq!(a.score_column(dim), b.score_column(dim));
                }
                prop_assert_eq!(a.indexed_len(), b.indexed_len());
                for r in 0..next.reviewers().len() as u32 {
                    prop_assert_eq!(a.records_of_reviewer(r), b.records_of_reviewer(r));
                }
                for i in 0..next.items().len() as u32 {
                    prop_assert_eq!(a.records_of_item(i), b.records_of_item(i));
                }
                // The base is rebuilt exactly when the tail outgrows its limit.
                let before = db.ratings();
                let tail = a.len() - before.indexed_len();
                let expect_indexed = if tail > RatingTable::tail_limit(before.indexed_len()) {
                    a.len()
                } else {
                    before.indexed_len()
                };
                prop_assert_eq!(a.indexed_len(), expect_indexed, "batch {:?}", size);
                db = next;
            }

            for picks in &queries {
                let preds = pick_preds(&db, picks);
                let q = SelectionQuery::from_preds(preds.clone());
                let expect = filtered_rows(&db, &q);
                let (walked, _) = db.collect_group_records_routed(&q, Some(GroupRoute::Walk));
                let (probed, _) = db.collect_group_records_routed(&q, Some(GroupRoute::Probe));
                prop_assert_eq!(&walked, &expect, "walk vs row filter, step {}", step);
                prop_assert_eq!(&probed, &expect, "probe vs row filter, step {}", step);
                prop_assert!(walked.windows(2).all(|w| w[0] < w[1]), "canonical ascending");

                let (kept, added): (Vec<_>, Vec<_>) = preds
                    .iter()
                    .enumerate()
                    .partition(|(i, _)| mask & (1 << (i % 4)) != 0);
                let added: Vec<AttrValue> = added.into_iter().map(|(_, p)| *p).collect();
                if added.is_empty() {
                    continue;
                }
                let parent_q = SelectionQuery::from_preds(
                    kept.into_iter().map(|(_, p)| *p).collect::<Vec<_>>());
                let (parent, _) =
                    db.collect_group_records_routed(&parent_q, Some(GroupRoute::Walk));
                let parent = GroupColumns::gather(db.ratings(), parent);
                let derived = db.derive_refinement_columns_multi(&parent, &added);
                prop_assert_eq!(derived, GroupColumns::gather(db.ratings(), walked));
            }
        }
    }

    /// The walk route, the probe route, and the planner's own choice all
    /// produce the identical canonical ascending record list for every
    /// query shape.
    #[test]
    fn probe_walk_and_planner_routes_agree(
        sp in spec(),
        picks in prop::collection::vec((0u8..5, 0u8..32), 0..5),
    ) {
        let db = build(&sp);
        let q = SelectionQuery::from_preds(pick_preds(&db, &picks));
        let (walked, wr) = db.collect_group_records_routed(&q, Some(GroupRoute::Walk));
        let (probed, pr) = db.collect_group_records_routed(&q, Some(GroupRoute::Probe));
        let (chosen, _) = db.collect_group_records_routed(&q, None);
        if !q.is_empty() {
            prop_assert_eq!(wr, GroupRoute::Walk);
            prop_assert_eq!(pr, GroupRoute::Probe);
        }
        prop_assert_eq!(&walked, &probed, "walk and probe routes must agree");
        prop_assert_eq!(&walked, &chosen, "planner choice must agree with both");
        prop_assert!(walked.windows(2).all(|w| w[0] < w[1]), "canonical ascending");
    }

    /// Deriving a refinement's columns from ANY ancestor (not just the
    /// direct parent) against ANY added predicate set is byte-identical to
    /// walking the refined query from scratch.
    #[test]
    fn multi_pred_derivation_matches_walk(
        sp in spec(),
        picks in prop::collection::vec((0u8..5, 0u8..32), 1..5),
        mask in 0u8..16,
    ) {
        let db = build(&sp);
        let preds = pick_preds(&db, &picks);
        let (kept, added): (Vec<_>, Vec<_>) = preds
            .iter()
            .enumerate()
            .partition(|(i, _)| mask & (1 << (i % 4)) != 0);
        let added: Vec<AttrValue> = added.into_iter().map(|(_, p)| *p).collect();
        if added.is_empty() {
            return Ok(());
        }
        let ancestor_q =
            SelectionQuery::from_preds(kept.into_iter().map(|(_, p)| *p).collect::<Vec<_>>());
        let child_q = SelectionQuery::from_preds(preds.clone());
        let ancestor = db.collect_group_columns(&ancestor_q);
        let derived = db.derive_refinement_columns_multi(&ancestor, &added);
        let walked = db.collect_group_columns(&child_q);
        prop_assert_eq!(derived, walked, "derived columns must be byte-identical");
    }

    /// Every container answers membership, decode, and cardinality exactly
    /// like the brute-force ground truth, on every kernel path the host
    /// supports — including multi-valued cells that repeat a value (the
    /// index must count the row once).
    #[test]
    fn containers_agree_with_ground_truth_on_every_path(
        sp in spec(),
        picks in prop::collection::vec((0u8..5, 0u8..32), 1..6),
    ) {
        let db = build(&sp);
        for p in pick_preds(&db, &picks) {
            let expect = naive_rows(&sp, &p, &db);
            let index = db.index(p.entity);
            prop_assert_eq!(index.cardinality(p.attr, p.value), expect.len(),
                "cardinality must be exact (dedup at build)");
            let container = index.container(p.attr, p.value).expect("pred value exists");
            for row in 0..index.rows() as u32 {
                prop_assert_eq!(container.contains(row), expect.contains(&row));
            }
            let mut got = Vec::new();
            container.decode_into(&mut got);
            prop_assert_eq!(&got, &expect, "decode must match");
            let mut words = vec![0u64; index.rows().div_ceil(64)];
            container.write_words(&mut words);
            for path in KernelPath::available() {
                prop_assert_eq!(kernels::popcount_words(path, &words), expect.len() as u64,
                    "popcount on {} must match", path);
            }
        }
    }

    /// Multi-predicate container intersection equals the brute-force set
    /// intersection of the per-predicate ground truths.
    #[test]
    fn intersection_matches_naive_model(
        sp in spec(),
        picks in prop::collection::vec((0u8..5, 0u8..32), 1..6),
    ) {
        let db = build(&sp);
        for entity in [Entity::Reviewer, Entity::Item] {
            let preds: Vec<AttrValue> = pick_preds(&db, &picks)
                .into_iter()
                .filter(|p| p.entity == entity)
                .collect();
            if preds.is_empty() {
                continue;
            }
            let index = db.index(entity);
            let mut expect: Option<BTreeSet<u32>> = None;
            for p in &preds {
                let rows: BTreeSet<u32> = naive_rows(&sp, p, &db).into_iter().collect();
                expect = Some(match expect {
                    None => rows,
                    Some(acc) => acc.intersection(&rows).copied().collect(),
                });
            }
            let expect: Vec<u32> = expect.unwrap_or_default().into_iter().collect();
            let pairs: Vec<_> = preds.iter().map(|p| (p.attr, p.value)).collect();
            let got = index.intersect(&pairs).into_bitset(index.rows()).to_vec();
            prop_assert_eq!(got, expect);
        }
    }
}

/// Deterministic pin: a database large and structured enough that both
/// container classes actually coexist, and the routes still agree on a
/// battery of fixed queries.
#[test]
fn all_container_classes_coexist_and_routes_agree() {
    let sp = Spec {
        modk: 2,
        chunk: 16,
        rnd: (0..192u32).map(|r| ((r * 37) % 61) as u8).collect(),
        item_tags: (0..8u32)
            .map(|i| vec![(i % 4) as u8, (i % 2) as u8])
            .collect(),
        item_city: (0..8u8).map(|i| i % 3).collect(),
        ratings: (0..192u16)
            .flat_map(|r| (0..8u16).map(move |i| (r, i)))
            .collect(),
    };
    let db = build(&sp);
    let stats = db.index_stats();
    assert!(stats.array_containers > 0, "{stats:?}");
    assert!(stats.bitmap_containers > 0, "{stats:?}");
    assert!(stats.resident_bytes <= stats.flat_bytes, "{stats:?}");

    for picks in [
        vec![(0u8, 1u8)],
        vec![(1, 2), (4, 1)],
        vec![(0, 0), (1, 1), (2, 7)],
        vec![(3, 2), (4, 0), (0, 1), (2, 30)],
    ] {
        let q = SelectionQuery::from_preds(pick_preds(&db, &picks));
        let (walked, _) = db.collect_group_records_routed(&q, Some(GroupRoute::Walk));
        let (probed, _) = db.collect_group_records_routed(&q, Some(GroupRoute::Probe));
        assert_eq!(walked, probed, "picks {picks:?}");
    }
}
