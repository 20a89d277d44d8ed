//! # subdex-store
//!
//! Columnar storage and query substrate for subjective databases
//! (Section 3.1 of the paper).
//!
//! A subjective database `D = ⟨I, U, R⟩` holds an item table, a reviewer
//! table — both with *objective* attributes, possibly multi-valued — and a
//! rating-record table whose *subjective* attributes are the per-dimension
//! scores reviewers assigned to items.
//!
//! Layout decisions (see `DESIGN.md`):
//!
//! * every objective attribute is dictionary-encoded ([`value::Dictionary`]);
//!   rows store `u32` codes, so scans touch only dense code vectors;
//! * multi-valued attributes (e.g. `cuisine = {Burgers, Barbeque}`) use a
//!   CSR (offsets + codes) layout ([`column::Column`]);
//! * the rating table is struct-of-arrays: one contiguous `u8` column per
//!   rating dimension ([`ratings::RatingTable`]), in append-only buffers
//!   that successive epochs share, so an append costs O(batch);
//! * per attribute-value postings live in compressed hybrid containers
//!   (sorted array / packed bitmap, byte-minimal per value) whose
//!   kernel-driven intersections answer conjunctive selections
//!   ([`cindex`], [`bitset::BitSet`]);
//! * rating groups materialize as record-id vectors with a deterministic
//!   shuffle, providing the without-replacement sample order required by the
//!   phase-based execution framework ([`group::RatingGroup::phase_ranges`]);
//! * the phased scan consumes **gathered columnar blocks** — entity-row
//!   indices resolved once per side plus contiguous per-dimension score
//!   buffers ([`scan`]) — built from reusable buffers so steady-state steps
//!   allocate nothing.

pub mod bitset;
pub mod cindex;
pub mod column;
pub mod csv;
pub mod database;
pub mod distcache;
pub mod error;
pub mod group;
pub mod parse;
pub mod predicate;
mod rating_columns;
pub mod ratings;
pub mod scan;
pub mod schema;
pub mod table;
pub mod value;

pub use cindex::{CompressedIndex, Container, ContainerStats, MemberSet};
pub use column::{Column, CsrColumn};
pub use database::{AttributeSummary, DbStats, GroupRoute, IndexStats, SubjectiveDb};
pub use distcache::{CacheStats, DistPairKey, DistanceCache};
pub use error::{StoreError, StoreErrorKind};
pub use group::{EntityGroup, RatingGroup};
pub use parse::{parse_query, ParseError};
pub use predicate::{AttrValue, SelectionQuery};
pub use ratings::{DimId, RatingDraft, RatingTable, RatingTableBuilder, RecordId};
pub use scan::{GroupColumns, ScanBlock, ScanScratch};
pub use schema::{AttrId, Entity, Schema};
pub use table::{Cell, EntityTable, EntityTableBuilder, PackedCodes};
pub use value::{Dictionary, Value, ValueId};

/// Compile-time proof that the shared query substrate is safe to use from
/// many threads: the service hands `Arc<SubjectiveDb>` and
/// `Arc<DistanceCache>` to every worker, which requires `Send + Sync` on
/// both.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SubjectiveDb>();
    assert_send_sync::<DistanceCache>();
    assert_send_sync::<RatingGroup>();
    assert_send_sync::<SelectionQuery>();
};
