//! Gathered columnar scan blocks — the storage half of the staged scan
//! execution layer.
//!
//! The phased scan (Algorithm 1) used to be row-at-a-time: every family
//! accumulator re-resolved `reviewer_of`/`item_of` and re-fetched the score
//! byte per record *per family*. This module factors that work out into a
//! per-phase **gathered block** built once and shared by every consumer:
//!
//! * [`GroupColumns`] — a rating group's record ids plus its pre-resolved
//!   reviewer-row and item-row columns, in pre-shuffle walk order. The
//!   gather is a pure function of the query, so a refinement's columns can
//!   be derived by filtering its parent's, while the phase-order shuffle is
//!   applied per step (each caller permutes with its own seed via
//!   [`RatingGroup::from_columns`]).
//! * [`ScanScratch`] — reusable gather buffers. Steady-state steps reuse
//!   the same scratch, so building a block allocates nothing once the
//!   buffers have grown to the working-set size.
//! * [`ScanBlock`] — a borrowed view of one phase fraction: entity-row
//!   slices (one per side, shared by every family on that side) and one
//!   contiguous score buffer per gathered rating dimension.
//!
//! [`RatingGroup::from_columns`]: crate::group::RatingGroup::from_columns

use std::ops::Range;

use subdex_stats::kernels;

use crate::cindex::CompressedIndex;
use crate::group::RatingGroup;
use crate::predicate::AttrValue;
use crate::ratings::{DimId, RatingTable, RecordId};
use crate::schema::Entity;

/// A rating group's records with both entity-row columns pre-resolved, in
/// deterministic pre-shuffle walk order.
///
/// Built once per query (see `SubjectiveDb::collect_group_columns`), or
/// derived from a parent's columns; the phase-order shuffle is applied
/// later, per caller, by [`RatingGroup::from_columns`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupColumns {
    /// Record ids in walk order.
    pub records: Vec<RecordId>,
    /// `reviewer_rows[i]` = reviewer row of `records[i]`.
    pub reviewer_rows: Vec<u32>,
    /// `item_rows[i]` = item row of `records[i]`.
    pub item_rows: Vec<u32>,
}

impl GroupColumns {
    /// Resolves both entity-row columns for `records` in one pass each,
    /// via the batch gather kernel.
    pub fn gather(ratings: &RatingTable, records: Vec<RecordId>) -> Self {
        let mut reviewer_rows = Vec::new();
        let mut item_rows = Vec::new();
        kernels::gather_u32(ratings.reviewer_column(), &records, &mut reviewer_rows);
        kernels::gather_u32(ratings.item_column(), &records, &mut item_rows);
        Self {
            records,
            reviewer_rows,
            item_rows,
        }
    }

    /// Derives the gather columns of the refinement `query ∪ {pred}` from
    /// this (the parent query's) columns — the single-predicate wrapper
    /// over [`derive_refinement_multi`](Self::derive_refinement_multi).
    /// No adjacency walk, no re-gather.
    ///
    /// `entity` selects which row column is probed and must match
    /// `pred.entity`; `index` must be the compressed index of that
    /// entity's table.
    pub fn derive_refinement(
        &self,
        entity: Entity,
        pred: &AttrValue,
        index: &CompressedIndex,
    ) -> GroupColumns {
        debug_assert_eq!(entity, pred.entity, "probe side must match the predicate");
        let words = index
            .intersect(&[(pred.attr, pred.value)])
            .into_words(index.rows());
        match entity {
            Entity::Reviewer => self.derive_refinement_multi(words.as_deref(), None),
            Entity::Item => self.derive_refinement_multi(None, words.as_deref()),
        }
    }

    /// Derives the gather columns of a refinement that adds **any number
    /// of predicates on either side** from this (an ancestor query's)
    /// columns: one linear pass probing each record's reviewer row against
    /// `reviewer_words` and its item row against `item_words` (a `None`
    /// side is unconstrained), then three exact-size gathers through the
    /// surviving positions. The word masks are the added predicates'
    /// container intersection (`CompressedIndex::intersect` +
    /// `MemberSet::into_words`).
    ///
    /// Because the canonical walk order is ascending record id — a pure
    /// function of the query, preserved by subset filtering — the result is
    /// byte-identical to a full `collect_group_columns` on the refined
    /// query. The probe kernel compacts positions branchlessly
    /// (near-50%-selectivity predicates would stall a branchy loop), and
    /// the gather kernel sizes each column exactly (`reserve_exact`).
    pub fn derive_refinement_multi(
        &self,
        reviewer_words: Option<&[u64]>,
        item_words: Option<&[u64]>,
    ) -> GroupColumns {
        let mut idx = Vec::new();
        kernels::filter_rows(
            &self.reviewer_rows,
            &self.item_rows,
            reviewer_words,
            item_words,
            &mut idx,
        );
        let mut records = Vec::new();
        let mut reviewer_rows = Vec::new();
        let mut item_rows = Vec::new();
        kernels::gather_u32(&self.records, &idx, &mut records);
        kernels::gather_u32(&self.reviewer_rows, &idx, &mut reviewer_rows);
        kernels::gather_u32(&self.item_rows, &idx, &mut item_rows);
        GroupColumns {
            records,
            reviewer_rows,
            item_rows,
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the group is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// One gathered phase fraction: entity rows for both sides plus contiguous
/// per-dimension score buffers, all indexed `0..len` in phase order.
#[derive(Debug, Clone, Copy)]
pub struct ScanBlock<'a> {
    records: &'a [RecordId],
    reviewer_rows: &'a [u32],
    item_rows: &'a [u32],
    /// Gathered dimensions, in the order their score buffers are laid out.
    dims: &'a [DimId],
    /// Dim-major flat score buffer: dimension `dims[d]`'s scores are
    /// `scores[d * len .. (d + 1) * len]`.
    scores: &'a [u8],
}

impl<'a> ScanBlock<'a> {
    /// Number of records in the block.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the block holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record ids of the block, in phase order.
    pub fn records(&self) -> &'a [RecordId] {
        self.records
    }

    /// The gathered entity rows of one side; `rows[i]` is the reviewer or
    /// item row of `records[i]`.
    pub fn entity_rows(&self, entity: Entity) -> &'a [u32] {
        match entity {
            Entity::Reviewer => self.reviewer_rows,
            Entity::Item => self.item_rows,
        }
    }

    /// The dimensions whose scores were gathered into this block.
    pub fn dims(&self) -> &'a [DimId] {
        self.dims
    }

    /// The contiguous score buffer of one gathered dimension, or `None` if
    /// `dim` was not gathered.
    pub fn scores_for(&self, dim: DimId) -> Option<&'a [u8]> {
        let pos = self.dims.iter().position(|&d| d == dim)?;
        let len = self.len();
        Some(&self.scores[pos * len..(pos + 1) * len])
    }
}

/// Reusable gather buffers for building [`ScanBlock`]s.
///
/// Usage per group: call [`prepare_group`](Self::prepare_group) once, then
/// [`gather_phase`](Self::gather_phase) for each phase range. The buffers
/// are retained across groups and steps, so steady-state scans allocate
/// nothing once the buffers reach the working-set size.
#[derive(Debug, Default)]
pub struct ScanScratch {
    /// Whole-group entity-row gathers, used only when the group does not
    /// carry pre-gathered columns (see [`RatingGroup::entity_rows`]).
    reviewer_rows: Vec<u32>,
    item_rows: Vec<u32>,
    /// Dimensions gathered into `scores` by the last `gather_phase` call.
    dims: Vec<DimId>,
    /// Dim-major flat per-phase score gather.
    scores: Vec<u8>,
}

impl ScanScratch {
    /// Fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves the whole-group entity-row columns when `group` lacks
    /// pre-gathered ones. A no-op for groups built via
    /// [`RatingGroup::from_columns`], which already carry both columns.
    pub fn prepare_group(&mut self, ratings: &RatingTable, group: &RatingGroup) {
        if group.has_entity_rows() {
            return;
        }
        kernels::gather_u32(
            ratings.reviewer_column(),
            group.records(),
            &mut self.reviewer_rows,
        );
        kernels::gather_u32(ratings.item_column(), group.records(), &mut self.item_rows);
    }

    /// Builds the block for one phase `range` of `group`, gathering one
    /// contiguous score buffer per dimension in `dims`. Entity rows are
    /// sliced from the group's own columns when present, otherwise from the
    /// buffers filled by [`prepare_group`](Self::prepare_group).
    ///
    /// # Panics
    /// Panics if `range` is out of bounds, or if the group lacks columns
    /// and `prepare_group` was not called for it.
    pub fn gather_phase<'a>(
        &'a mut self,
        ratings: &RatingTable,
        group: &'a RatingGroup,
        range: Range<usize>,
        dims: &[DimId],
    ) -> ScanBlock<'a> {
        let phase = &group.records()[range.clone()];
        self.dims.clear();
        self.dims.extend_from_slice(dims);
        self.scores.clear();
        self.scores.reserve(dims.len() * phase.len());
        // Score gathers stay scalar: scores are bytes, and `vpgatherdd`
        // loads 32-bit lanes, so a SIMD byte gather would read up to three
        // bytes past each score and need per-chunk bounds slack. The u8
        // loads are cache-resident and cheap; the entity-row gathers above
        // are where the kernel pays.
        for &dim in dims {
            let col = ratings.score_column(dim);
            self.scores
                .extend(phase.iter().map(|&rec| col[rec as usize]));
        }
        let (reviewer_rows, item_rows) = match (
            group.entity_rows(Entity::Reviewer),
            group.entity_rows(Entity::Item),
        ) {
            (Some(r), Some(i)) => (&r[range.clone()], &i[range]),
            _ => {
                assert!(
                    self.reviewer_rows.len() == group.len(),
                    "prepare_group must run before gather_phase on a group \
                     without pre-gathered columns"
                );
                (&self.reviewer_rows[range.clone()], &self.item_rows[range])
            }
        };
        ScanBlock {
            records: phase,
            reviewer_rows,
            item_rows,
            dims: &self.dims,
            scores: &self.scores,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratings::RatingTableBuilder;

    fn table() -> RatingTable {
        let mut b = RatingTableBuilder::new(vec!["overall".into(), "food".into()], 5);
        b.push(0, 3, &[4, 3]);
        b.push(1, 0, &[4, 4]);
        b.push(1, 1, &[3, 4]);
        b.push(2, 3, &[5, 5]);
        b.build(3, 4)
    }

    #[test]
    fn group_columns_gather_resolves_both_sides() {
        let t = table();
        let cols = GroupColumns::gather(&t, vec![3, 0, 2]);
        assert_eq!(cols.len(), 3);
        assert_eq!(cols.reviewer_rows, vec![2, 0, 1]);
        assert_eq!(cols.item_rows, vec![3, 3, 1]);
    }

    #[test]
    fn gather_phase_without_group_columns() {
        let t = table();
        let group = RatingGroup::with_order(vec![3, 0, 2, 1]);
        let mut scratch = ScanScratch::new();
        scratch.prepare_group(&t, &group);
        let dims = [DimId(1), DimId(0)];
        let block = scratch.gather_phase(&t, &group, 1..3, &dims);
        assert_eq!(block.len(), 2);
        assert_eq!(block.records(), &[0, 2]);
        assert_eq!(block.entity_rows(Entity::Reviewer), &[0, 1]);
        assert_eq!(block.entity_rows(Entity::Item), &[3, 1]);
        // Records 0 and 2: food scores 3, 4; overall scores 4, 3.
        assert_eq!(block.scores_for(DimId(1)), Some(&[3, 4][..]));
        assert_eq!(block.scores_for(DimId(0)), Some(&[4, 3][..]));
    }

    #[test]
    fn gather_phase_prefers_group_columns() {
        let t = table();
        let cols = GroupColumns::gather(&t, (0..4).collect());
        let group = RatingGroup::from_columns(&cols, 9);
        let mut scratch = ScanScratch::new();
        scratch.prepare_group(&t, &group); // no-op
        let dims = [DimId(0)];
        let block = scratch.gather_phase(&t, &group, 0..group.len(), &dims);
        for (i, &rec) in block.records().iter().enumerate() {
            assert_eq!(block.entity_rows(Entity::Reviewer)[i], t.reviewer_of(rec));
            assert_eq!(block.entity_rows(Entity::Item)[i], t.item_of(rec));
            assert_eq!(
                block.scores_for(DimId(0)).unwrap()[i],
                t.score(rec, DimId(0))
            );
        }
    }

    #[test]
    fn scores_for_unknown_dim_is_none() {
        let t = table();
        let group = RatingGroup::with_order(vec![0, 1]);
        let mut scratch = ScanScratch::new();
        scratch.prepare_group(&t, &group);
        let dims = [DimId(0)];
        let block = scratch.gather_phase(&t, &group, 0..2, &dims);
        assert!(block.scores_for(DimId(1)).is_none());
        assert_eq!(block.dims(), &[DimId(0)]);
    }
}
