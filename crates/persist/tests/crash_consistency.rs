//! Crash-consistency tests: no byte-level damage to a persisted file may
//! panic the readers or yield silently-wrong data.
//!
//! Property tests flip and truncate bytes of real snapshot and WAL files:
//!
//! * snapshot: [`read_snapshot`] must either fail with a clean
//!   [`StoreError`] or return a database byte-identical to the original
//!   (the only unchecked bytes are the four reserved header bytes);
//! * WAL: [`wal::replay`] must either fail cleanly or return a *prefix* of
//!   the appended batches — and when the prefix is proper, it must say so
//!   via `dropped_tail` (a torn final write), never inventing or
//!   reordering records.
//!
//! Deterministic integration tests then walk the crash windows of the
//! store protocol itself: kill after WAL fsync but before any checkpoint,
//! kill between the snapshot rename and the WAL reset inside `compact`,
//! and a torn final WAL write.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use subdex_persist::{
    read_snapshot, wal, write_snapshot, PersistentStore, SNAPSHOT_FILE, WAL_FILE,
};
use subdex_store::{
    table::EntityTableBuilder, Cell, RatingDraft, Schema, StoreError, StoreErrorKind, SubjectiveDb,
    Value,
};

const DIMS: usize = 2;
const SCALE: u8 = 5;

fn small_db() -> SubjectiveDb {
    let mut us = Schema::new();
    us.add("group", false);
    let mut ub = EntityTableBuilder::new(us);
    for i in 0..6 {
        ub.push_row(vec![Cell::from(["a", "b", "c"][i % 3])]);
    }
    let mut is = Schema::new();
    is.add("city", false);
    is.add("tags", true);
    let mut ib = EntityTableBuilder::new(is);
    for i in 0..4 {
        ib.push_row(vec![
            Cell::from(["NYC", "SF"][i % 2]),
            Cell::Many(vec![Value::str(["t0", "t1"][i % 2])]),
        ]);
    }
    let mut rb = subdex_store::ratings::RatingTableBuilder::new(
        vec!["overall".into(), "food".into()],
        SCALE,
    );
    for r in 0..6u32 {
        for i in 0..4u32 {
            rb.push(
                r,
                i,
                &[1 + ((r + i) % 5) as u8, 1 + ((r * 2 + i) % 5) as u8],
            );
        }
    }
    SubjectiveDb::new(ub.build(), ib.build(), rb.build(6, 4))
}

fn batch(tag: u32) -> Vec<RatingDraft> {
    (0..3)
        .map(|i| {
            RatingDraft::new(
                (tag + i) % 6,
                i % 4,
                vec![1 + (tag % 5) as u8, 1 + (i % 5) as u8],
            )
        })
        .collect()
}

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_path(tag: &str) -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("subdex-crash-{tag}-{}-{n}", std::process::id()))
}

/// Reference snapshot bytes plus the original database they encode.
fn snapshot_bytes() -> (SubjectiveDb, Vec<u8>) {
    let db = small_db();
    let path = temp_path("snapbytes");
    write_snapshot(&db, 3, &path).expect("write");
    let bytes = std::fs::read(&path).expect("read back");
    let _ = std::fs::remove_file(&path);
    (db, bytes)
}

/// A WAL holding `n` appended batches, as raw bytes.
fn wal_bytes(n: u32) -> Vec<u8> {
    let path = temp_path("walbytes");
    let mut w = wal::WalWriter::create(&path, DIMS, SCALE).expect("create wal");
    for tag in 0..n {
        w.append_batch(&batch(tag)).expect("append");
    }
    drop(w);
    let bytes = std::fs::read(&path).expect("read back");
    let _ = std::fs::remove_file(&path);
    bytes
}

fn assert_same_db(a: &SubjectiveDb, b: &SubjectiveDb) {
    assert_eq!(a.stats(), b.stats());
    assert_eq!(a.ratings().reviewer_column(), b.ratings().reviewer_column());
    assert_eq!(a.ratings().item_column(), b.ratings().item_column());
    for dim in a.ratings().dims() {
        assert_eq!(a.ratings().score_column(dim), b.ratings().score_column(dim));
    }
}

fn write_temp(tag: &str, bytes: &[u8]) -> PathBuf {
    let path = temp_path(tag);
    std::fs::write(&path, bytes).expect("write mutated file");
    path
}

/// Reserved (and deliberately ignored) snapshot header bytes: offsets
/// 12..16 after the 8-byte magic and the 4-byte version.
fn is_reserved_snapshot_byte(offset: usize) -> bool {
    (12..16).contains(&offset)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mutated_snapshot_never_panics_or_lies(
        offset_seed in 0usize..100_000,
        flip in 1u8..=255,
    ) {
        let (db, mut bytes) = snapshot_bytes();
        let offset = offset_seed % bytes.len();
        bytes[offset] ^= flip;
        let path = write_temp("snapmut", &bytes);
        match read_snapshot(&path) {
            Ok((loaded, _)) => {
                // Only damage to the reserved header bytes may go
                // unnoticed — and then the data must still be exact.
                prop_assert!(
                    is_reserved_snapshot_byte(offset),
                    "undetected flip at offset {offset}"
                );
                assert_same_db(&db, &loaded);
            }
            Err(e) => {
                // A clean, typed error — reaching here without a panic is
                // the property; the error must carry context.
                prop_assert!(!e.context.is_empty());
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_snapshot_is_always_a_clean_error(cut_seed in 0usize..100_000) {
        let (_db, bytes) = snapshot_bytes();
        let cut = cut_seed % bytes.len(); // strictly shorter than the file
        let path = write_temp("snaptrunc", &bytes[..cut]);
        let err = read_snapshot(&path).expect_err("truncated snapshot must fail");
        prop_assert!(!err.context.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mutated_wal_replays_a_prefix_or_fails_cleanly(
        n_batches in 1u32..5,
        offset_seed in 0usize..100_000,
        flip in 1u8..=255,
    ) {
        let mut bytes = wal_bytes(n_batches);
        let offset = offset_seed % bytes.len();
        bytes[offset] ^= flip;
        let path = write_temp("walmut", &bytes);
        match wal::replay(&path, DIMS, SCALE, 0) {
            Ok(replay) => {
                // Whatever survives must be an exact prefix of what was
                // appended, in order, with correct sequence numbers.
                prop_assert!(replay.batches.len() <= n_batches as usize);
                for (i, b) in replay.batches.iter().enumerate() {
                    prop_assert_eq!(b.seq, i as u64 + 1);
                    prop_assert_eq!(&b.drafts, &batch(i as u32));
                }
                // A shortened replay must be flagged as a torn tail, not
                // passed off as complete.
                if replay.batches.len() < n_batches as usize {
                    prop_assert!(replay.info.dropped_tail);
                }
            }
            Err(e) => prop_assert!(!e.context.is_empty()),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_wal_recovers_the_intact_prefix(
        n_batches in 1u32..5,
        cut_seed in 0usize..100_000,
    ) {
        let bytes = wal_bytes(n_batches);
        let cut = cut_seed % bytes.len();
        let path = write_temp("waltrunc", &bytes[..cut]);
        match wal::replay(&path, DIMS, SCALE, 0) {
            Ok(replay) => {
                for (i, b) in replay.batches.iter().enumerate() {
                    prop_assert_eq!(b.seq, i as u64 + 1);
                    prop_assert_eq!(&b.drafts, &batch(i as u32));
                }
                if replay.batches.len() < n_batches as usize {
                    // A mid-frame cut must be flagged as a torn tail. A cut
                    // landing exactly on a frame boundary is invisible by
                    // construction (the file IS a complete shorter log) —
                    // `intact_len` spanning the whole file identifies it.
                    prop_assert!(
                        replay.info.dropped_tail || replay.intact_len == cut as u64
                    );
                }
            }
            // Cutting into the 16-byte file header is a format error.
            Err(e) => prop_assert!(!e.context.is_empty()),
        }
        let _ = std::fs::remove_file(&path);
    }
}

// ------------------------------------------------- crash-window integration

/// Kill after WAL fsync, before any checkpoint ran: reopening recovers
/// every acknowledged append.
#[test]
fn kill_between_wal_and_checkpoint_recovers_all_appends() {
    let dir = temp_path("kill-wal");
    let expected = {
        let store = PersistentStore::create(&dir, small_db()).expect("create");
        store.append_ratings(&batch(0)).expect("append 0");
        store.append_ratings(&batch(1)).expect("append 1");
        store.append_ratings(&batch(2)).expect("append 2");
        // Simulated kill: the store is dropped with a dirty WAL and no
        // compaction; only what reached disk survives.
        let db = store.db();
        assert_eq!(store.dirty_records(), 9);
        db
    };
    let store = PersistentStore::open(&dir).expect("recover");
    assert_eq!(store.stats().wal_replayed_batches, 3);
    assert_eq!(store.stats().wal_replayed_records, 9);
    assert_same_db(&expected, &store.db());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill inside `compact`, after the new snapshot was renamed into place
/// but before the WAL was reset: the stale WAL's batches carry sequence
/// numbers at or below the snapshot's, so replay must skip every one.
#[test]
fn kill_between_snapshot_rename_and_wal_reset_is_idempotent() {
    let dir = temp_path("kill-compact");
    let expected = {
        let store = PersistentStore::create(&dir, small_db()).expect("create");
        store.append_ratings(&batch(0)).expect("append 0");
        store.append_ratings(&batch(1)).expect("append 1");
        let db = store.db();
        // Reproduce compact's first half only: fold the current database
        // into the snapshot at the WAL's sequence, then "crash" with the
        // old WAL still on disk.
        write_snapshot(&db, 2, &dir.join(SNAPSHOT_FILE)).expect("snapshot");
        db
    };
    let store = PersistentStore::open(&dir).expect("recover");
    assert_eq!(
        store.stats().wal_replayed_records,
        0,
        "stale WAL batches must not re-apply"
    );
    assert_same_db(&expected, &store.db());
    // The store is fully functional after the repair: appends continue.
    store
        .append_ratings(&batch(7))
        .expect("append post-recovery");
    assert_eq!(store.db().ratings().len(), expected.ratings().len() + 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn final write (machine died mid-`write`): the intact prefix is
/// recovered, the torn frame is dropped, and the log keeps accepting
/// appends afterwards.
#[test]
fn torn_wal_tail_is_dropped_and_log_stays_usable() {
    let dir = temp_path("torn-tail");
    {
        let store = PersistentStore::create(&dir, small_db()).expect("create");
        store.append_ratings(&batch(0)).expect("append 0");
        store.append_ratings(&batch(1)).expect("append 1");
    }
    // Tear the last frame: chop a few bytes off the file.
    let wal_path = dir.join(WAL_FILE);
    let len = std::fs::metadata(&wal_path).expect("meta").len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal_path)
        .expect("open wal");
    f.set_len(len - 5).expect("truncate");
    drop(f);

    let store = PersistentStore::open(&dir).expect("recover");
    assert_eq!(store.stats().wal_replayed_batches, 1, "torn batch dropped");
    let base = small_db().ratings().len();
    assert_eq!(store.db().ratings().len(), base + 3);
    // The log continues from the recovered sequence.
    store.append_ratings(&batch(9)).expect("append after tear");
    drop(store);
    let store = PersistentStore::open(&dir).expect("reopen");
    assert_eq!(store.db().ratings().len(), base + 6);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Payload range of snapshot section `id`, read from the section table the
/// footer points at (`count u32 · {id u16, offset u64, len u64, crc u32}…`).
fn section_range(bytes: &[u8], id: u16) -> std::ops::Range<usize> {
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let table = u64_at(bytes.len() - 20);
    let count = u32::from_le_bytes(bytes[table..table + 4].try_into().unwrap()) as usize;
    (0..count)
        .map(|i| table + 4 + i * 22)
        .find(|&entry| u16::from_le_bytes([bytes[entry], bytes[entry + 1]]) == id)
        .map(|entry| u64_at(entry + 2)..u64_at(entry + 2) + u64_at(entry + 10))
        .expect("section listed in the table")
}

/// The reviewer table is decoded on a thread of its own, yet errors come
/// back in section order: with both the reviewer table (section 2) and the
/// ratings (section 4) damaged, the reviewer table's error is returned.
#[test]
fn reviewer_table_error_wins_over_ratings_error() {
    let (_, bytes) = snapshot_bytes();
    let damage = |ids: &[u16]| {
        let mut damaged = bytes.clone();
        for &id in ids {
            let range = section_range(&bytes, id);
            damaged[range.start + range.len() / 2] ^= 0x5A;
        }
        let path = write_temp("two-sections", &damaged);
        let err = read_snapshot(&path).expect_err("a damaged section must not load");
        let _ = std::fs::remove_file(&path);
        assert_eq!(err.kind, StoreErrorKind::Corrupt, "{err}");
        err.context
    };
    // Each damage alone is caught in its own section...
    assert!(damage(&[4]).contains("section 4"));
    assert!(damage(&[2]).contains("section 2"));
    // ...and together the earlier section's error wins.
    let both = damage(&[2, 4]);
    assert!(both.contains("section 2"), "{both}");
}

/// `StoreError` equality is part of the API contract tests rely on.
#[test]
fn snapshot_errors_are_typed() {
    let path = temp_path("not-a-snapshot");
    std::fs::write(&path, b"definitely not a snapshot file").expect("write");
    let err = read_snapshot(&path).expect_err("must fail");
    assert_eq!(err, StoreError::new(err.kind, err.context.clone()));
    let _ = std::fs::remove_file(&path);
}
