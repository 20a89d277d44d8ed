//! Round-trip property tests: a snapshot must reconstruct the database
//! *exactly*.
//!
//! Over randomized databases (atomic and multi-valued attributes, 1–3
//! rating dimensions, arbitrary rating sets), writing a snapshot and
//! loading it back must reproduce byte-identical observable state:
//! [`DbStats`], canonical record sets and seeded [`rating_group`]
//! shuffles for every single-predicate query, per-dimension score
//! columns, and the append epoch. The same holds after appends flow
//! through a [`PersistentStore`] WAL and a compaction cycle, and for the
//! CSV cold-start path: CSV export → CSV load → snapshot → snapshot load
//! reconstructs the original.
//!
//! [`DbStats`]: subdex_store::DbStats
//! [`rating_group`]: subdex_store::SubjectiveDb::rating_group
//! [`PersistentStore`]: subdex_persist::PersistentStore

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use proptest::strategy::Just;

use subdex_persist::{read_snapshot, write_snapshot, PersistentStore};
use subdex_store::{
    csv, table::EntityTableBuilder, AttrValue, Cell, Entity, RatingDraft, Schema, SelectionQuery,
    SubjectiveDb, Value,
};

const SCALE: u8 = 5;

/// Blueprint for one randomized database (mirrors the scan-equivalence
/// harness so persistence is pinned to the same database shapes the scan
/// layer is).
#[derive(Debug, Clone)]
struct DbSpec {
    reviewer_attr: Vec<usize>,
    item_city: Vec<usize>,
    item_tags: Vec<Vec<bool>>,
    dims: usize,
    ratings: Vec<(u32, u32, Vec<u8>)>,
}

fn db_spec() -> impl Strategy<Value = DbSpec> {
    (2usize..8, 2usize..6, 1usize..=3)
        .prop_flat_map(|(n_reviewers, n_items, dims)| {
            (
                prop::collection::vec(0usize..3, n_reviewers),
                prop::collection::vec(0usize..3, n_items),
                prop::collection::vec(prop::collection::vec(prop::bool::ANY, 3usize), n_items),
                Just(dims),
                prop::collection::vec(
                    (
                        0..n_reviewers as u32,
                        0..n_items as u32,
                        prop::collection::vec(1u8..=SCALE, dims),
                    ),
                    1..40,
                ),
            )
        })
        .prop_map(|(reviewer_attr, item_city, item_tags, dims, mut ratings)| {
            let mut seen = std::collections::HashSet::new();
            ratings.retain(|&(r, i, _)| seen.insert((r, i)));
            DbSpec {
                reviewer_attr,
                item_city,
                item_tags,
                dims,
                ratings,
            }
        })
}

fn build_db(spec: &DbSpec) -> SubjectiveDb {
    let mut us = Schema::new();
    us.add("group", false);
    let mut ub = EntityTableBuilder::new(us);
    for &v in &spec.reviewer_attr {
        ub.push_row(vec![Cell::from(["a", "b", "c"][v])]);
    }
    let mut is = Schema::new();
    is.add("city", false);
    is.add("tags", true);
    let mut ib = EntityTableBuilder::new(is);
    for (&city, tags) in spec.item_city.iter().zip(&spec.item_tags) {
        let tag_values = ["t0", "t1", "t2"]
            .iter()
            .zip(tags)
            .filter(|(_, &on)| on)
            .map(|(t, _)| Value::str(*t))
            .collect();
        ib.push_row(vec![
            Cell::from(["NYC", "SF", "LA"][city]),
            Cell::Many(tag_values),
        ]);
    }
    let dim_names = (0..spec.dims).map(|d| format!("d{d}")).collect();
    let mut rb = subdex_store::ratings::RatingTableBuilder::new(dim_names, SCALE);
    for (r, i, scores) in &spec.ratings {
        rb.push(*r, *i, scores);
    }
    SubjectiveDb::new(
        ub.build(),
        ib.build(),
        rb.build(spec.reviewer_attr.len(), spec.item_city.len()),
    )
}

/// Every single-predicate query over every attribute value, plus the root.
fn all_single_pred_queries(db: &SubjectiveDb) -> Vec<SelectionQuery> {
    let mut queries = vec![SelectionQuery::all()];
    for entity in [Entity::Reviewer, Entity::Item] {
        let table = db.table(entity);
        for attr in table.schema().attr_ids() {
            for (vid, _) in table.dictionary(attr).iter() {
                queries.push(SelectionQuery::from_preds([AttrValue::new(
                    entity, attr, vid,
                )]));
            }
        }
    }
    queries
}

/// The full observable-equality contract between two databases.
fn assert_identical(original: &SubjectiveDb, loaded: &SubjectiveDb) {
    assert_eq!(original.stats(), loaded.stats());
    assert_eq!(original.epoch(), loaded.epoch());
    let r = original.ratings();
    let l = loaded.ratings();
    assert_eq!(r.scale(), l.scale());
    assert_eq!(r.dim_names(), l.dim_names());
    assert_eq!(r.reviewer_column(), l.reviewer_column());
    assert_eq!(r.item_column(), l.item_column());
    for dim in r.dims() {
        assert_eq!(r.score_column(dim), l.score_column(dim));
    }
    for (i, q) in all_single_pred_queries(original).iter().enumerate() {
        assert_eq!(
            original.collect_group_records(q),
            loaded.collect_group_records(q),
            "query {i}: canonical record set"
        );
        let seed = 0x5EED ^ (i as u64).wrapping_mul(0x9E37_79B9);
        assert_eq!(
            original.rating_group(q, seed).records(),
            loaded.rating_group(q, seed).records(),
            "query {i}: seeded shuffle"
        );
    }
}

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_path(tag: &str) -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("subdex-roundtrip-{tag}-{}-{n}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn snapshot_round_trip_is_byte_identical(spec in db_spec()) {
        let db = build_db(&spec);
        let path = temp_path("snap");
        write_snapshot(&db, 7, &path).expect("write");
        let (loaded, meta) = read_snapshot(&path).expect("read");
        prop_assert_eq!(meta.last_seq, 7);
        assert_identical(&db, &loaded);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn csv_and_snapshot_loaders_reconstruct_the_original(spec in db_spec()) {
        // The two ways a process obtains a ready database — CSV ingest
        // (re-interning every dictionary, rebuilding both indexes) and a
        // snapshot load — must both answer every probe like the original.
        let db = build_db(&spec);
        let dir = temp_path("csv");
        std::fs::create_dir_all(&dir).expect("create csv dir");
        csv::save_dir(&db, &dir).expect("save csv");
        let from_csv = csv::load_dir(&dir).expect("load csv");
        assert_identical(&db, &from_csv);
        let snap = dir.join("from-csv.sdx");
        write_snapshot(&from_csv, 0, &snap).expect("write");
        let (from_snap, _) = read_snapshot(&snap).expect("read");
        assert_identical(&db, &from_snap);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_appends_then_compact_round_trip(
        spec in db_spec(),
        extra in prop::collection::vec(
            (0u32..8, 0u32..6, prop::collection::vec(1u8..=SCALE, 3)),
            1..12,
        ),
    ) {
        let db = build_db(&spec);
        let reviewer_count = spec.reviewer_attr.len() as u32;
        let item_count = spec.item_city.len() as u32;
        let drafts: Vec<RatingDraft> = extra
            .iter()
            .map(|(r, i, scores)| {
                RatingDraft::new(
                    r % reviewer_count,
                    i % item_count,
                    scores[..spec.dims].to_vec(),
                )
            })
            .collect();

        let dir = temp_path("walrt");
        let store = PersistentStore::create(&dir, db).expect("create");
        store.append_ratings(&drafts).expect("append");
        let via_wal = store.db();
        drop(store);

        // Reopen replays the WAL: identical to the in-memory result.
        let reopened = PersistentStore::open(&dir).expect("reopen");
        assert_identical(&via_wal, &reopened.db());

        // Compacting folds the WAL into the snapshot: still identical.
        reopened.compact().expect("compact");
        drop(reopened);
        let compacted = PersistentStore::open(&dir).expect("open after compact");
        prop_assert_eq!(compacted.stats().wal_replayed_records, 0);
        assert_identical(&via_wal, &compacted.db());

        let _ = std::fs::remove_dir_all(&dir);
    }
}
