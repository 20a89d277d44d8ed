//! # subdex-persist
//!
//! Durability layer for SubDEx databases: versioned binary snapshots, a
//! rating write-ahead log, and [`PersistentStore`] tying both to the
//! epoch-published in-memory [`SubjectiveDb`](subdex_store::SubjectiveDb).
//!
//! Why it exists: every process start used to rebuild the database from
//! CSV text — re-parsing, re-interning dictionaries, re-building inverted
//! indexes — before the first exploration session could run. A snapshot
//! stores the columnar in-memory layout directly (see [`snapshot`] for the
//! format), so warm start is a checksummed bulk read; the WAL (see [`wal`])
//! makes rating appends durable between checkpoints.
//!
//! What an open costs: reading the file, one CRC-32 pass over it (the SIMD
//! layer's kernel, see [`crc`]) and decoding each section into its columns.
//! The reviewer table, the largest section, is checked and decoded on a
//! second thread while the caller decodes the rest, so with the folding
//! CRC an open is bound by memory traffic rather than by the checksum.
//!
//! Guarantees (pinned by the crash-consistency and round-trip test
//! suites):
//!
//! * **byte-identity** — a snapshot round-trip yields a database whose
//!   stats, scans and rating-group materializations are bit-for-bit equal
//!   to the original;
//! * **no torn reads** — any truncation or byte flip of a persisted file
//!   surfaces as a clean [`StoreError`](subdex_store::StoreError), never a
//!   panic or a silently-wrong database;
//! * **durable appends** — once `append_ratings` returns, the batch
//!   survives any crash; replay applies exactly the acknowledged prefix;
//! * **durable checkpoints** — once `compact` returns, the new snapshot
//!   and the reset log both survive a power loss (every rename is followed
//!   by a directory fsync whose error is returned).

pub mod codec;
pub mod crc;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use snapshot::{read_snapshot, write_snapshot, SnapshotMeta};
pub use store::{PersistStats, PersistentStore, SNAPSHOT_FILE, WAL_FILE};
pub use wal::{Replay, ReplayInfo, WalBatch, WalWriter};

/// Makes the renames already done inside `dir` durable by fsyncing the
/// directory. A returned `rename` is atomic but may still sit only in
/// memory; until its directory is synced, a power loss can bring back the
/// old name.
#[cfg(unix)]
pub(crate) fn sync_dir(dir: &std::path::Path) -> Result<(), subdex_store::StoreError> {
    // `Path::parent` of a bare file name is the empty path.
    let dir = if dir.as_os_str().is_empty() {
        std::path::Path::new(".")
    } else {
        dir
    };
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| subdex_store::StoreError::from_io("fsync store directory", e))
}

/// Elsewhere a directory cannot be opened as a file; the rename is as
/// durable as the filesystem makes it.
#[cfg(not(unix))]
pub(crate) fn sync_dir(_dir: &std::path::Path) -> Result<(), subdex_store::StoreError> {
    Ok(())
}

/// The store is shared service-wide behind an `Arc`.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PersistentStore>();
};
