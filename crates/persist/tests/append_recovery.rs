//! Replay equals live: the database a store recovers from snapshot + WAL is
//! the database it last published.
//!
//! The live store grows by copy-on-append (`SubjectiveDb::with_appended`:
//! shared entity tables and adjacency base, fresh rating columns); recovery
//! grows the loaded snapshot in place (`SubjectiveDb::append_ratings`), one
//! replayed batch at a time. Both leave appended records in the adjacency
//! tail and rebuild the base by the same rule, so after any number of
//! batches the two must agree on every rating column, the epoch, where the
//! adjacency base ends, and what a walk and a probe materialize — with the
//! tail small (64 × 32 ratings, never re-indexed) and with it outgrown
//! (5 × 1 400, re-indexed at the third batch).

use std::path::PathBuf;
use std::sync::Arc;

use subdex_persist::PersistentStore;
use subdex_store::{
    table::EntityTableBuilder, Cell, Entity, GroupRoute, RatingDraft, RatingTable,
    RatingTableBuilder, Schema, SelectionQuery, SubjectiveDb, Value,
};

const REVIEWERS: u32 = 120;
const ITEMS: u32 = 12;

/// 120 reviewers × 12 items; every third reviewer and the last two items
/// start without ratings.
fn base_db() -> SubjectiveDb {
    let mut us = Schema::new();
    us.add("age", false);
    us.add("gender", false);
    let mut ub = EntityTableBuilder::new(us);
    for r in 0..REVIEWERS as usize {
        ub.push_row(vec![
            Cell::from(["young", "middle", "old"][r % 3]),
            Cell::from(["F", "M"][(r / 3) % 2]),
        ]);
    }
    let mut is = Schema::new();
    is.add("city", false);
    is.add("tags", true);
    let mut ib = EntityTableBuilder::new(is);
    for i in 0..ITEMS as usize {
        ib.push_row(vec![
            Cell::from(["NYC", "SF", "Austin"][i % 3]),
            Cell::Many(vec![
                Value::str(["pizza", "sushi"][i % 2]),
                Value::str(["cheap", "fancy", "late"][i % 3]),
            ]),
        ]);
    }
    let mut rb = RatingTableBuilder::new(vec!["overall".into(), "food".into()], 5);
    for r in (0..REVIEWERS).filter(|r| r % 3 != 0) {
        for i in 0..ITEMS - 2 {
            if (r + i) % 4 != 0 {
                rb.push(
                    r,
                    i,
                    &[1 + ((r + i) % 5) as u8, 1 + ((r * 3 + i) % 5) as u8],
                );
            }
        }
    }
    SubjectiveDb::new(
        ub.build(),
        ib.build(),
        rb.build(REVIEWERS as usize, ITEMS as usize),
    )
}

/// Batch `b` of `len` drafts, spread over all reviewers and items —
/// including the ones `base_db` left unrated.
fn batch(b: u32, len: u32) -> Vec<RatingDraft> {
    (0..len)
        .map(|k| {
            let n = b * len + k;
            // Fibonacci hashing: reviewer and item drawn from distant bits.
            let h = n.wrapping_mul(2_654_435_761);
            RatingDraft::new(
                (h >> 7) % REVIEWERS,
                (h >> 19) % ITEMS,
                vec![1 + (n % 5) as u8, 1 + ((h >> 27) % 5) as u8],
            )
        })
        .collect()
}

fn queries(db: &SubjectiveDb) -> Vec<SelectionQuery> {
    let p = |e, attr: &str, v: &str| db.pred(e, attr, &Value::str(v)).expect("known value");
    let old = p(Entity::Reviewer, "age", "old");
    let young = p(Entity::Reviewer, "age", "young");
    let female = p(Entity::Reviewer, "gender", "F");
    let austin = p(Entity::Item, "city", "Austin");
    let sushi = p(Entity::Item, "tags", "sushi");
    let late = p(Entity::Item, "tags", "late");
    vec![
        SelectionQuery::from_preds(vec![young]),
        SelectionQuery::from_preds(vec![austin]),
        SelectionQuery::from_preds(vec![old, female]),
        SelectionQuery::from_preds(vec![sushi, late]),
        SelectionQuery::from_preds(vec![young, female, austin, sushi]),
    ]
}

/// Everything recovery promises about the database, `live` being what the
/// store last published and `replayed` what a reopen reconstructed.
fn assert_replay_equals_live(live: &SubjectiveDb, replayed: &SubjectiveDb) {
    assert_eq!(replayed.epoch(), live.epoch());
    assert_eq!(replayed.stats(), live.stats());
    let (a, b) = (replayed.ratings(), live.ratings());
    assert_eq!(a.reviewer_column(), b.reviewer_column());
    assert_eq!(a.item_column(), b.item_column());
    for dim in a.dims() {
        assert_eq!(a.score_column(dim), b.score_column(dim));
    }
    assert_eq!(a.indexed_len(), b.indexed_len());
    for q in queries(live) {
        let (walked, _) = live.collect_group_records_routed(&q, Some(GroupRoute::Walk));
        for db in [live, replayed] {
            for route in [GroupRoute::Walk, GroupRoute::Probe] {
                let (records, _) = db.collect_group_records_routed(&q, Some(route));
                assert_eq!(records, walked, "{route:?} on {q:?}");
            }
        }
        assert!(walked.windows(2).all(|w| w[0] < w[1]));
        assert!(
            walked
                .last()
                .is_some_and(|&r| r as usize >= b.indexed_len()),
            "{q:?} should reach into the adjacency tail"
        );
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("subdex-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// `batches` × `len` appended ratings, no checkpoint, reopen; one more
/// batch on the reopened store, reopen again.
fn append_close_reopen(tag: &str, batches: u32, len: u32) -> Arc<SubjectiveDb> {
    let dir = temp_dir(tag);
    let base = base_db();
    let initial = base.ratings().len();
    let store = PersistentStore::create(&dir, base).expect("create");
    for b in 0..batches {
        let epoch = store.append_ratings(&batch(b, len)).expect("append");
        assert_eq!(epoch, u64::from(b) + 1);
    }
    let live = store.db();
    assert_eq!(live.ratings().len(), initial + (batches * len) as usize);
    assert_eq!(store.stats().checkpoints, 0, "closed without a checkpoint");
    drop(store);

    let store = PersistentStore::open(&dir).expect("reopen");
    assert_eq!(store.stats().wal_replayed_batches, u64::from(batches));
    assert_replay_equals_live(&live, &store.db());

    // The reopened store keeps appending on top of what it replayed.
    store
        .append_ratings(&batch(batches, len))
        .expect("append after reopen");
    let live = store.db();
    assert_eq!(live.epoch(), u64::from(batches) + 1);
    drop(store);
    let store = PersistentStore::open(&dir).expect("second reopen");
    assert_eq!(store.stats().wal_replayed_batches, u64::from(batches) + 1);
    assert_replay_equals_live(&live, &store.db());
    let _ = std::fs::remove_dir_all(&dir);
    live
}

#[test]
fn replay_of_64_small_batches_equals_the_live_store() {
    let live = append_close_reopen("small", 64, 32);
    let ratings = live.ratings();
    assert!(
        ratings.indexed_len() < ratings.len(),
        "65 × 32 records stay in the adjacency tail"
    );
}

#[test]
fn replay_across_a_reindex_equals_the_live_store() {
    let initial = base_db().ratings().len();
    assert!(3 * 1_400 > RatingTable::tail_limit(initial));
    let live = append_close_reopen("reindex", 4, 1_400);
    let ratings = live.ratings();
    assert!(ratings.indexed_len() > initial, "the base was rebuilt");
    assert!(
        ratings.indexed_len() < ratings.len(),
        "and has a tail again"
    );
}
