//! The append path's contract, where tier-1 (`cargo test -q`) runs it: a
//! reduced mirror of `crates/persist/tests/append_recovery.rs` and the
//! append property of `crates/store/tests/index_equivalence.rs`.
//!
//! A live store publishes each batch as a new epoch that shares everything
//! but the rating columns with the one before; recovery replays the same
//! batches in place onto the loaded snapshot. Both must describe the same
//! database, and on either, walking the adjacency (base + unindexed tail)
//! must materialize what a probe of the rating columns does.

use subdex::prelude::*;
use subdex::store::GroupRoute;

fn drafts(db: &SubjectiveDb, batch: u32) -> Vec<RatingDraft> {
    let (reviewers, items) = (db.reviewers().len() as u32, db.items().len() as u32);
    let dims = db.ratings().dim_count();
    (0..32u32)
        .map(|k| {
            let h = (batch * 32 + k).wrapping_mul(2_654_435_761);
            let scores = (0..dims).map(|d| 1 + ((h >> (3 * d)) % 5) as u8).collect();
            RatingDraft::new((h >> 7) % reviewers, (h >> 19) % items, scores)
        })
        .collect()
}

/// The two most frequent values of every attribute, as one-predicate
/// queries, plus one cross-entity conjunction.
fn queries(db: &SubjectiveDb) -> Vec<SelectionQuery> {
    let mut preds = Vec::new();
    for entity in [Entity::Reviewer, Entity::Item] {
        for summary in db.attribute_summaries(entity) {
            for (value, _) in summary.values.iter().take(2) {
                preds.push(db.pred(entity, &summary.name, value).expect("listed value"));
            }
        }
    }
    let cross = SelectionQuery::from_preds(vec![preds[0], *preds.last().expect("attributes")]);
    let mut queries: Vec<_> = preds
        .into_iter()
        .map(|p| SelectionQuery::from_preds(vec![p]))
        .collect();
    queries.push(cross);
    queries
}

fn assert_same_database(live: &SubjectiveDb, replayed: &SubjectiveDb) {
    assert_eq!(replayed.epoch(), live.epoch());
    let (a, b) = (replayed.ratings(), live.ratings());
    assert_eq!(a.reviewer_column(), b.reviewer_column());
    assert_eq!(a.item_column(), b.item_column());
    for dim in a.dims() {
        assert_eq!(a.score_column(dim), b.score_column(dim));
    }
    assert_eq!(a.indexed_len(), b.indexed_len());
    assert!(b.indexed_len() < b.len(), "the batches are in the tail");
    let mut in_tail = 0;
    for q in queries(live) {
        let (probed, _) = live.collect_group_records_routed(&q, Some(GroupRoute::Probe));
        for db in [live, replayed] {
            let (walked, _) = db.collect_group_records_routed(&q, Some(GroupRoute::Walk));
            assert_eq!(walked, probed, "{}", live.describe_query(&q));
        }
        in_tail += usize::from(
            probed
                .last()
                .is_some_and(|&r| r as usize >= b.indexed_len()),
        );
    }
    assert!(in_tail > 0, "some query must reach the appended records");
}

#[test]
fn replayed_store_equals_live_store_and_walk_equals_probe() {
    let dir = std::env::temp_dir().join(format!("subdex-append-path-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let base = subdex::data::yelp::dataset(GenParams::new(600, 60, 6000, 99)).db;
    let store = PersistentStore::create(&dir, base).expect("create");
    let first = store.db();
    for batch in 0..8 {
        store
            .append_ratings(&drafts(&first, batch))
            .expect("append");
    }
    let live = store.db();
    assert_eq!(live.epoch(), 8);
    assert_eq!(live.ratings().len(), first.ratings().len() + 8 * 32);
    assert_eq!(first.ratings().len(), 6000, "earlier epochs are untouched");
    drop(store); // no checkpoint: the WAL holds all eight batches

    let store = PersistentStore::open(&dir).expect("reopen");
    assert_eq!(store.stats().wal_replayed_batches, 8);
    assert_same_database(&live, &store.db());

    store.append_ratings(&drafts(&first, 8)).expect("append");
    let live = store.db();
    drop(store);
    let store = PersistentStore::open(&dir).expect("second reopen");
    assert_same_database(&live, &store.db());
    let _ = std::fs::remove_dir_all(&dir);
}
