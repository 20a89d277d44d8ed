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
//!   survives any crash; replay applies exactly the acknowledged prefix.

pub mod codec;
pub mod crc;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use snapshot::{read_snapshot, write_snapshot, SnapshotMeta};
pub use store::{PersistStats, PersistentStore, SNAPSHOT_FILE, WAL_FILE};
pub use wal::{Replay, ReplayInfo, WalBatch, WalWriter};

/// The store is shared service-wide behind an `Arc`.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PersistentStore>();
};
