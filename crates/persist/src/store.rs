//! The durable store: snapshot + WAL + an epoch-published in-memory
//! database.
//!
//! [`PersistentStore`] owns a directory holding one snapshot file and one
//! rating WAL, plus the current [`SubjectiveDb`] behind an `Arc`. Reads are
//! epoch-consistent by construction: sessions clone the `Arc` once and see
//! that database version for as long as they hold it, while appends publish
//! a *new* `Arc` rather than mutating shared state — an engine mid-step
//! never observes a half-applied batch.
//!
//! Publishing an epoch is copy-on-append, not copy-the-database
//! ([`SubjectiveDb::with_appended`]): the next epoch shares the entity
//! tables, their posting indexes and the rating adjacency base with the
//! current one through `Arc`s, and owns only the flat rating columns —
//! copied once, at their final size — with the batch in the adjacency tail.
//! What stays O(|R|) per append is that one column copy (9 bytes a record
//! at four dimensions; ≈ 0.2 ms at 200 K ratings), so live epochs cost a
//! set of rating columns each, not a database each.
//!
//! Durability protocol for [`append_ratings`](PersistentStore::append_ratings):
//!
//! 1. validate the drafts against the current database (nothing invalid is
//!    ever made durable),
//! 2. frame + fsync them into the WAL ([`wal::WalWriter::append_batch`]),
//! 3. build the next epoch in memory and publish its `Arc`.
//!
//! A crash after step 2 is recovered by [`open`](PersistentStore::open),
//! which replays the WAL on top of the last snapshot — in place
//! ([`SubjectiveDb::append_ratings`]; nobody else holds the database yet),
//! through the same rating-table append the live path runs.
//! [`compact`](PersistentStore::compact) folds the log into a fresh snapshot
//! (temp-file + rename) and resets the log; batch sequence numbers make the
//! crash window between those two steps idempotent.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use subdex_store::{RatingDraft, StoreError, SubjectiveDb};

use crate::snapshot;
use crate::wal;

/// Snapshot file name inside a store directory.
pub const SNAPSHOT_FILE: &str = "snapshot.sdx";
/// WAL file name inside a store directory.
pub const WAL_FILE: &str = "ratings.wal";

/// Counters describing a store's persistence activity; rendered into the
/// service metrics snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PersistStats {
    /// Size of the most recent snapshot file in bytes.
    pub snapshot_bytes: u64,
    /// Wall time the snapshot load took at open (zero for `create`).
    pub load_micros: u64,
    /// WAL batches replayed at open.
    pub wal_replayed_batches: u64,
    /// Rating records replayed at open.
    pub wal_replayed_records: u64,
    /// Records appended through this store since open.
    pub appended_records: u64,
    /// Records appended since the last checkpoint (the dirty set).
    pub dirty_records: u64,
    /// Checkpoints (`compact`) completed since open.
    pub checkpoints: u64,
    /// Current database epoch.
    pub epoch: u64,
}

/// A durable [`SubjectiveDb`] home directory. All methods take `&self`;
/// share the store behind an `Arc`.
pub struct PersistentStore {
    dir: PathBuf,
    /// The WAL writer; holding it is the write lock. Appends and
    /// checkpoints serialize on it — a checkpoint holds it across the whole
    /// snapshot write — so nothing a reader or a metrics call needs may
    /// wait for it.
    wal: Mutex<wal::WalWriter>,
    /// The published database. Lock order: `wal` before `published`.
    published: Mutex<Arc<SubjectiveDb>>,
    snapshot_bytes: AtomicU64,
    appended: AtomicU64,
    /// Records appended since the last checkpoint. Written only under
    /// `wal`, read without it (a statistic and a checkpoint hint, so
    /// `Relaxed`).
    dirty: AtomicU64,
    checkpoints: AtomicU64,
    load_micros: u64,
    wal_replayed_batches: u64,
    wal_replayed_records: u64,
}

impl std::fmt::Debug for PersistentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistentStore")
            .field("dir", &self.dir)
            .field("stats", &self.stats())
            .finish()
    }
}

impl PersistentStore {
    /// Initializes a store directory from an in-memory database: writes an
    /// initial snapshot and an empty WAL. Fails if the directory already
    /// holds a snapshot (use [`open`](Self::open) for that).
    pub fn create(dir: &Path, db: SubjectiveDb) -> Result<Self, StoreError> {
        let snap_path = dir.join(SNAPSHOT_FILE);
        if snap_path.exists() {
            return Err(StoreError::io(format!(
                "{} already exists; open it instead of re-creating",
                snap_path.display()
            )));
        }
        std::fs::create_dir_all(dir).map_err(|e| StoreError::from_io("create store dir", e))?;
        let bytes = snapshot::write_snapshot(&db, 0, &snap_path)?;
        let wal = wal::WalWriter::create(
            &dir.join(WAL_FILE),
            db.ratings().dim_count(),
            db.ratings().scale(),
        )?;
        Ok(Self {
            dir: dir.to_owned(),
            wal: Mutex::new(wal),
            published: Mutex::new(Arc::new(db)),
            snapshot_bytes: AtomicU64::new(bytes),
            appended: AtomicU64::new(0),
            dirty: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            load_micros: 0,
            wal_replayed_batches: 0,
            wal_replayed_records: 0,
        })
    }

    /// Opens an existing store directory: loads the snapshot, replays any
    /// WAL batches newer than it (each bumping the epoch exactly as the
    /// original append did), and truncates a torn WAL tail. This is the
    /// warm-start path — no CSV parsing, no index building.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        let started = Instant::now();
        let (db, meta) = snapshot::read_snapshot(&dir.join(SNAPSHOT_FILE))?;
        let load_micros = started.elapsed().as_micros() as u64;
        let dims = db.ratings().dim_count();
        let scale = db.ratings().scale();
        let wal_path = dir.join(WAL_FILE);

        let (db, wal, replayed_batches, replayed_records) = if wal_path.exists() {
            let replay = wal::replay(&wal_path, dims, scale, meta.last_seq)?;
            let mut db = db;
            for batch in &replay.batches {
                db.append_ratings(&batch.drafts)?;
            }
            let start_seq = replay.info.last_seq.max(meta.last_seq);
            let info = wal::ReplayInfo {
                last_seq: start_seq,
                ..replay.info
            };
            let wal = wal::WalWriter::open(&wal_path, dims, scale, &info, replay.intact_len)?;
            (
                db,
                wal,
                replay.batches.len() as u64,
                replay.info.replayed_records,
            )
        } else {
            // Snapshot without a log (e.g. copied from a backup): start a
            // fresh log continuing the snapshot's sequence.
            let wal = wal::WalWriter::create_seeded(&wal_path, dims, scale, meta.last_seq)?;
            (db, wal, 0, 0)
        };

        Ok(Self {
            dir: dir.to_owned(),
            wal: Mutex::new(wal),
            published: Mutex::new(Arc::new(db)),
            snapshot_bytes: AtomicU64::new(meta.bytes),
            appended: AtomicU64::new(0),
            dirty: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            load_micros,
            wal_replayed_batches: replayed_batches,
            wal_replayed_records: replayed_records,
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The currently published database. Cheap (`Arc` clone); the returned
    /// handle is an epoch-consistent view that later appends never mutate.
    pub fn db(&self) -> Arc<SubjectiveDb> {
        Arc::clone(&lock(&self.published))
    }

    /// Records appended since the last checkpoint. Never waits for an
    /// append or a checkpoint in progress.
    pub fn dirty_records(&self) -> u64 {
        self.dirty.load(Ordering::Relaxed)
    }

    /// Durably appends a batch of ratings (WAL fsync, then in-memory apply
    /// and publish). Returns the new database epoch; callers use it to
    /// invalidate `DistanceCache` entries built against older epochs.
    pub fn append_ratings(&self, drafts: &[RatingDraft]) -> Result<u64, StoreError> {
        if drafts.is_empty() {
            return Ok(self.db().epoch());
        }
        let mut writer = lock(&self.wal);
        let current = self.db();
        // Validate first: a draft the in-memory apply would reject must
        // never be made durable, or replay would fail on it.
        current.check_ratings(drafts)?;
        writer.append_batch(drafts)?;
        // Build the next epoch beside the current one and publish it:
        // holders of the old Arc keep their epoch, and the two share
        // everything but the rating columns.
        let next = current
            .with_appended(drafts)
            .expect("drafts validated above");
        let epoch = next.epoch();
        *lock(&self.published) = Arc::new(next);
        let n = drafts.len() as u64;
        self.dirty.fetch_add(n, Ordering::Relaxed);
        self.appended.fetch_add(n, Ordering::Relaxed);
        Ok(epoch)
    }

    /// Folds every logged batch into a fresh snapshot and resets the WAL.
    /// Appends block for the duration; readers keep their `Arc`s, and
    /// [`db`](Self::db), [`stats`](Self::stats) and
    /// [`dirty_records`](Self::dirty_records) stay responsive. Returns the
    /// new snapshot size.
    ///
    /// Crash safety: the snapshot lands via temp-file + rename, and the log
    /// reset also lands via rename. Dying between the two leaves the old
    /// log in place — its batch sequences are all `<= last_seq` of the new
    /// snapshot, so the next open replays none of them. Each rename is
    /// followed by a directory fsync whose failure fails the checkpoint:
    /// once this returns `Ok`, a power loss can bring back neither the old
    /// snapshot nor the old log.
    pub fn compact(&self) -> Result<u64, StoreError> {
        let mut writer = lock(&self.wal);
        let db = self.db();
        let seq = writer.seq();
        let bytes = snapshot::write_snapshot(&db, seq, &self.dir.join(SNAPSHOT_FILE))?;
        *writer = wal::WalWriter::create_seeded(
            &self.dir.join(WAL_FILE),
            db.ratings().dim_count(),
            db.ratings().scale(),
            seq,
        )?;
        self.dirty.store(0, Ordering::Relaxed);
        self.snapshot_bytes.store(bytes, Ordering::Relaxed);
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(bytes)
    }

    /// The persistence counters as of now. Never waits for an append or a
    /// checkpoint in progress, so each counter is current but a call racing
    /// one may see, say, the new epoch before the new dirty count.
    pub fn stats(&self) -> PersistStats {
        PersistStats {
            snapshot_bytes: self.snapshot_bytes.load(Ordering::Relaxed),
            load_micros: self.load_micros,
            wal_replayed_batches: self.wal_replayed_batches,
            wal_replayed_records: self.wal_replayed_records,
            appended_records: self.appended.load(Ordering::Relaxed),
            dirty_records: self.dirty_records(),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            epoch: self.db().epoch(),
        }
    }
}

/// Locks `m`, taking the guard even if a panicking holder poisoned it, so
/// one panicked request never wedges the store for every later one.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use subdex_store::{
        Cell, Entity, EntityTableBuilder, RatingTableBuilder, Schema, SelectionQuery, Value,
    };

    fn small_db() -> SubjectiveDb {
        let mut us = Schema::new();
        us.add("gender", false);
        let mut ub = EntityTableBuilder::new(us);
        ub.push_row(vec!["F".into()]);
        ub.push_row(vec!["M".into()]);

        let mut is = Schema::new();
        is.add("cuisine", true);
        let mut ib = EntityTableBuilder::new(is);
        ib.push_row(vec![Cell::Many(vec![Value::str("Pizza")])]);
        ib.push_row(vec![Cell::Many(vec![Value::str("Sushi")])]);

        let mut rb = RatingTableBuilder::new(vec!["overall".into()], 5);
        rb.push(0, 0, &[4]);
        rb.push(1, 1, &[2]);
        SubjectiveDb::new(ub.build(), ib.build(), rb.build(2, 2))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("subdex-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn create_append_reopen_recovers_appends() {
        let dir = temp_dir("recover");
        let store = PersistentStore::create(&dir, small_db()).unwrap();
        let epoch = store
            .append_ratings(&[
                RatingDraft::new(0, 1, vec![5]),
                RatingDraft::new(1, 0, vec![1]),
            ])
            .unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(store.db().ratings().len(), 4);
        assert_eq!(store.dirty_records(), 2);
        // Simulated crash: drop without compact. The WAL holds the batch.
        drop(store);
        let store = PersistentStore::open(&dir).unwrap();
        assert_eq!(store.db().ratings().len(), 4);
        assert_eq!(store.db().epoch(), 1);
        assert_eq!(store.stats().wal_replayed_batches, 1);
        assert_eq!(store.stats().wal_replayed_records, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_and_dirty_records_do_not_wait_for_the_write_lock() {
        // A checkpoint holds the write lock across the whole snapshot
        // write; hold it here and read the counters from another thread.
        let dir = temp_dir("lockfree-stats");
        let store = Arc::new(PersistentStore::create(&dir, small_db()).unwrap());
        store
            .append_ratings(&[RatingDraft::new(0, 1, vec![5])])
            .unwrap();
        let held = lock(&store.wal);
        let reader = Arc::clone(&store);
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            tx.send((reader.stats(), reader.dirty_records())).unwrap();
        });
        let (stats, dirty) = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("stats() / dirty_records() must not take the write lock");
        drop(held);
        handle.join().unwrap();
        assert_eq!(dirty, 1);
        assert_eq!(stats.dirty_records, 1);
        assert_eq!(stats.appended_records, 1);
        assert_eq!(stats.epoch, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_folds_wal_and_later_open_replays_nothing() {
        let dir = temp_dir("compact");
        let store = PersistentStore::create(&dir, small_db()).unwrap();
        store
            .append_ratings(&[RatingDraft::new(0, 1, vec![3])])
            .unwrap();
        store.compact().unwrap();
        assert_eq!(store.dirty_records(), 0);
        assert_eq!(store.stats().checkpoints, 1);
        // Append after the checkpoint: only this batch should replay.
        store
            .append_ratings(&[RatingDraft::new(1, 1, vec![4])])
            .unwrap();
        drop(store);
        let store = PersistentStore::open(&dir).unwrap();
        assert_eq!(store.db().ratings().len(), 4);
        let stats = store.stats();
        assert_eq!(stats.wal_replayed_batches, 1);
        assert_eq!(stats.wal_replayed_records, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_wal_after_snapshot_is_not_replayed_twice() {
        // Simulates dying between "snapshot renamed" and "wal reset":
        // write a newer snapshot by hand while the old WAL still holds the
        // already-folded batch.
        let dir = temp_dir("stale");
        let store = PersistentStore::create(&dir, small_db()).unwrap();
        store
            .append_ratings(&[RatingDraft::new(0, 1, vec![3])])
            .unwrap();
        let db = store.db();
        let seq = 1; // the batch above
        snapshot::write_snapshot(&db, seq, &dir.join(SNAPSHOT_FILE)).unwrap();
        drop(store); // old WAL (holding seq 1) still on disk
        let store = PersistentStore::open(&dir).unwrap();
        assert_eq!(store.db().ratings().len(), 3, "batch must not re-apply");
        assert_eq!(store.stats().wal_replayed_batches, 0);
        // And the sequence continues, so new appends replay correctly.
        store
            .append_ratings(&[RatingDraft::new(1, 0, vec![2])])
            .unwrap();
        drop(store);
        let store = PersistentStore::open(&dir).unwrap();
        assert_eq!(store.db().ratings().len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn readers_keep_epoch_consistent_views() {
        let dir = temp_dir("epoch");
        let store = PersistentStore::create(&dir, small_db()).unwrap();
        let before = store.db();
        store
            .append_ratings(&[RatingDraft::new(0, 1, vec![5])])
            .unwrap();
        let after = store.db();
        assert_eq!(before.ratings().len(), 2, "old view untouched");
        assert_eq!(after.ratings().len(), 3);
        assert_eq!(before.epoch(), 0);
        assert_eq!(after.epoch(), 1);
        // Group materialization on the old view ignores the append.
        let q = SelectionQuery::all();
        assert_eq!(before.collect_group_records(&q).len(), 2);
        assert_eq!(after.collect_group_records(&q).len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_drafts_are_rejected_and_leave_no_trace() {
        let dir = temp_dir("invalid");
        let store = PersistentStore::create(&dir, small_db()).unwrap();
        let err = store
            .append_ratings(&[RatingDraft::new(99, 0, vec![3])])
            .unwrap_err();
        assert_eq!(err.kind, subdex_store::StoreErrorKind::Invalid);
        assert_eq!(store.db().ratings().len(), 2);
        drop(store);
        let store = PersistentStore::open(&dir).unwrap();
        assert_eq!(store.stats().wal_replayed_batches, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_refuses_to_clobber() {
        let dir = temp_dir("clobber");
        let _store = PersistentStore::create(&dir, small_db()).unwrap();
        assert!(PersistentStore::create(&dir, small_db()).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queries_identical_across_save_load() {
        let dir = temp_dir("queries");
        let db = small_db();
        let q = SelectionQuery::from_preds(vec![db
            .pred(Entity::Reviewer, "gender", &Value::str("F"))
            .unwrap()]);
        let expect = db.collect_group_records(&q);
        let store = PersistentStore::create(&dir, db).unwrap();
        drop(store);
        let store = PersistentStore::open(&dir).unwrap();
        assert_eq!(store.db().collect_group_records(&q), expect);
        assert!(store.stats().load_micros > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
