//! The rating-record table.
//!
//! Each rating record is `⟨i, u, s₁ … s_t⟩` (Section 3.1): a reviewer, an
//! item, and one score per rating dimension on the scale `1..=m`. Storage is
//! struct-of-arrays — parallel `Vec<u32>` reviewer/item columns and one
//! dense `Vec<u8>` per dimension — so a phase scan over one dimension is a
//! contiguous byte walk. CSR adjacency (reviewer → records, item → records)
//! supports fast rating-group materialization when one side of the
//! selection is small.
//!
//! The adjacency is *base + tail*: the two CSRs cover records
//! `[0, indexed_len)` and sit behind `Arc`s, so a table grown by an append
//! shares them with its predecessor; records appended since are the tail
//! `[indexed_len, len)`, which a walk filters row by row. The base is
//! rebuilt only once the tail outgrows a fixed fraction of it
//! ([`RatingTable::tail_limit`]), so indexing costs amortized O(1) per
//! appended record instead of two counting sorts per batch.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// Index of a rating record in the rating table.
pub type RecordId = u32;

/// Index of a rating dimension (`overall`, `food`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DimId(pub u16);

impl DimId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One rating record awaiting append: a reviewer, an item, and one score
/// per dimension. This is the unit the write-ahead log frames and the
/// store's append path validates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RatingDraft {
    /// Reviewer row id.
    pub reviewer: u32,
    /// Item row id.
    pub item: u32,
    /// One score per rating dimension, each in `1..=scale`.
    pub scores: Vec<u8>,
}

impl RatingDraft {
    /// Convenience constructor.
    pub fn new(reviewer: u32, item: u32, scores: Vec<u8>) -> Self {
        Self {
            reviewer,
            item,
            scores,
        }
    }
}

/// The rating table `R`.
#[derive(Debug, Clone)]
pub struct RatingTable {
    dim_names: Arc<[String]>,
    scale: u8,
    reviewers: Vec<u32>,
    items: Vec<u32>,
    /// `scores[d][rec]` — score of record `rec` on dimension `d`.
    scores: Vec<Vec<u8>>,
    /// CSR reviewer → record ids, over records `[0, indexed_len)`.
    by_reviewer: Arc<Csr>,
    /// CSR item → record ids, over records `[0, indexed_len)`.
    by_item: Arc<Csr>,
    /// Records below this are in the adjacency base; the rest are the tail.
    indexed_len: usize,
}

#[derive(Debug)]
struct Csr {
    offsets: Vec<u32>,
    records: Vec<RecordId>,
}

impl Csr {
    fn build(keys: &[u32], key_count: usize) -> Self {
        let mut counts = vec![0u32; key_count + 1];
        for &k in keys {
            counts[k as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut records = vec![0u32; keys.len()];
        for (rec, &k) in keys.iter().enumerate() {
            records[cursor[k as usize] as usize] = rec as u32;
            cursor[k as usize] += 1;
        }
        Self { offsets, records }
    }

    fn records_of(&self, key: u32) -> &[RecordId] {
        let k = key as usize;
        &self.records[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }
}

impl RatingTable {
    /// Number of rating records.
    pub fn len(&self) -> usize {
        self.reviewers.len()
    }

    /// Whether the table has no records.
    pub fn is_empty(&self) -> bool {
        self.reviewers.is_empty()
    }

    /// The rating scale `m` (scores are `1..=m`).
    pub fn scale(&self) -> u8 {
        self.scale
    }

    /// Number of rating dimensions `t`.
    pub fn dim_count(&self) -> usize {
        self.dim_names.len()
    }

    /// Dimension names in id order.
    pub fn dim_names(&self) -> &[String] {
        &self.dim_names
    }

    /// Resolves a dimension by name.
    pub fn dim_by_name(&self, name: &str) -> Option<DimId> {
        self.dim_names
            .iter()
            .position(|n| n == name)
            .map(|i| DimId(i as u16))
    }

    /// The name of one dimension.
    pub fn dim_name(&self, dim: DimId) -> &str {
        &self.dim_names[dim.index()]
    }

    /// All dimension ids.
    pub fn dims(&self) -> impl Iterator<Item = DimId> + '_ {
        (0..self.dim_names.len()).map(|i| DimId(i as u16))
    }

    /// The reviewer of a record.
    #[inline]
    pub fn reviewer_of(&self, rec: RecordId) -> u32 {
        self.reviewers[rec as usize]
    }

    /// The item of a record.
    #[inline]
    pub fn item_of(&self, rec: RecordId) -> u32 {
        self.items[rec as usize]
    }

    /// The score of a record on one dimension.
    #[inline]
    pub fn score(&self, rec: RecordId, dim: DimId) -> u8 {
        self.scores[dim.index()][rec as usize]
    }

    /// The full score column of a dimension (for vectorized scans).
    #[inline]
    pub fn score_column(&self, dim: DimId) -> &[u8] {
        &self.scores[dim.index()]
    }

    /// The reviewer-id column.
    pub fn reviewer_column(&self) -> &[u32] {
        &self.reviewers
    }

    /// The item-id column.
    pub fn item_column(&self) -> &[u32] {
        &self.items
    }

    /// Number of records the adjacency base covers: records below it are
    /// reachable through [`records_of_reviewer`](Self::records_of_reviewer)
    /// / [`records_of_item`](Self::records_of_item), records
    /// `indexed_len()..len()` are the unindexed tail appended since the
    /// base was built. Equal to `len()` for a freshly built or loaded table.
    pub fn indexed_len(&self) -> usize {
        self.indexed_len
    }

    /// Base-adjacency record ids rated by `reviewer`, ascending. Tail
    /// records (see [`indexed_len`](Self::indexed_len)) are not listed.
    pub fn records_of_reviewer(&self, reviewer: u32) -> &[RecordId] {
        self.by_reviewer.records_of(reviewer)
    }

    /// Base-adjacency record ids rating `item`, ascending. Tail records
    /// (see [`indexed_len`](Self::indexed_len)) are not listed.
    pub fn records_of_item(&self, item: u32) -> &[RecordId] {
        self.by_item.records_of(item)
    }

    /// Largest tail a base over `indexed` records tolerates before the
    /// next append re-indexes. A constant fraction of the base makes the
    /// rebuild amortized O(1) per appended record; the floor keeps small
    /// tables from re-sorting on every batch. What the tail costs is one
    /// filter pass over it per adjacency walk, a few ns a record.
    pub fn tail_limit(indexed: usize) -> usize {
        (indexed / 8).max(4096)
    }

    /// Whether both adjacency bases are the very allocations `other` uses.
    #[cfg(test)]
    pub(crate) fn shares_adjacency_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.by_reviewer, &other.by_reviewer)
            && Arc::ptr_eq(&self.by_item, &other.by_item)
    }

    /// Reassembles a table from its raw columns (the snapshot-load path),
    /// validating column agreement, id ranges and the score scale, then
    /// rebuilding both adjacency indexes over every record (cheaper to
    /// rebuild in one `O(R)` pass than to store).
    pub fn from_parts(
        dim_names: Vec<String>,
        scale: u8,
        reviewers: Vec<u32>,
        items: Vec<u32>,
        scores: Vec<Vec<u8>>,
        reviewer_count: usize,
        item_count: usize,
    ) -> Result<Self, crate::error::StoreError> {
        use crate::error::StoreError;
        if dim_names.is_empty() || scale == 0 {
            return Err(StoreError::invalid(
                "rating table needs at least one dimension and a positive scale",
            ));
        }
        if scores.len() != dim_names.len() {
            return Err(StoreError::invalid(format!(
                "{} dimensions but {} score columns",
                dim_names.len(),
                scores.len()
            )));
        }
        let n = reviewers.len();
        if items.len() != n || scores.iter().any(|col| col.len() != n) {
            return Err(StoreError::invalid(
                "rating columns disagree on record count",
            ));
        }
        if reviewers.iter().any(|&r| (r as usize) >= reviewer_count) {
            return Err(StoreError::invalid("rating references a missing reviewer"));
        }
        if items.iter().any(|&i| (i as usize) >= item_count) {
            return Err(StoreError::invalid("rating references a missing item"));
        }
        if scores
            .iter()
            .any(|col| col.iter().any(|&s| s == 0 || s > scale))
        {
            return Err(StoreError::invalid(format!(
                "rating score outside 1..={scale}"
            )));
        }
        Ok(Self::indexed(
            dim_names,
            scale,
            reviewers,
            items,
            scores,
            reviewer_count,
            item_count,
        ))
    }

    /// Assembles a table from validated columns with a full adjacency base.
    fn indexed(
        dim_names: Vec<String>,
        scale: u8,
        reviewers: Vec<u32>,
        items: Vec<u32>,
        scores: Vec<Vec<u8>>,
        reviewer_count: usize,
        item_count: usize,
    ) -> Self {
        Self {
            dim_names: dim_names.into(),
            scale,
            by_reviewer: Arc::new(Csr::build(&reviewers, reviewer_count)),
            by_item: Arc::new(Csr::build(&items, item_count)),
            indexed_len: reviewers.len(),
            reviewers,
            items,
            scores,
        }
    }

    /// Validates a batch of drafts against this table's shape without
    /// mutating anything — the WAL writer calls this *before* logging so a
    /// record that would be rejected in memory is never made durable.
    pub fn check_drafts(
        &self,
        drafts: &[RatingDraft],
        reviewer_count: usize,
        item_count: usize,
    ) -> Result<(), crate::error::StoreError> {
        use crate::error::StoreError;
        for (i, d) in drafts.iter().enumerate() {
            if d.scores.len() != self.dim_count() {
                return Err(StoreError::invalid(format!(
                    "draft {i}: {} scores, table has {} dimensions",
                    d.scores.len(),
                    self.dim_count()
                )));
            }
            if d.scores.iter().any(|&s| s == 0 || s > self.scale) {
                return Err(StoreError::invalid(format!(
                    "draft {i}: score outside 1..={}",
                    self.scale
                )));
            }
            if (d.reviewer as usize) >= reviewer_count {
                return Err(StoreError::invalid(format!(
                    "draft {i}: reviewer {} out of range",
                    d.reviewer
                )));
            }
            if (d.item as usize) >= item_count {
                return Err(StoreError::invalid(format!(
                    "draft {i}: item {} out of range",
                    d.item
                )));
            }
        }
        Ok(())
    }

    /// Appends validated drafts in place: extends every column, leaving the
    /// new records in the adjacency tail, and rebuilds the base only when
    /// the tail has outgrown [`tail_limit`](Self::tail_limit). Callers must
    /// have run [`check_drafts`](Self::check_drafts) (re-checked here in
    /// debug builds).
    pub fn append_drafts(
        &mut self,
        drafts: &[RatingDraft],
        reviewer_count: usize,
        item_count: usize,
    ) {
        debug_assert!(self
            .check_drafts(drafts, reviewer_count, item_count)
            .is_ok());
        for d in drafts {
            self.reviewers.push(d.reviewer);
            self.items.push(d.item);
            for (col, &s) in self.scores.iter_mut().zip(&d.scores) {
                col.push(s);
            }
        }
        if self.len() - self.indexed_len > Self::tail_limit(self.indexed_len) {
            self.by_reviewer = Arc::new(Csr::build(&self.reviewers, reviewer_count));
            self.by_item = Arc::new(Csr::build(&self.items, item_count));
            self.indexed_len = self.len();
        }
    }

    /// Copy-on-append: a new table holding this one's records followed by
    /// `drafts`, leaving `self` untouched. Each column is allocated once at
    /// its final size and the adjacency base is shared, not copied; the
    /// drafts then go through [`append_drafts`](Self::append_drafts), so
    /// the result equals `clone()` + `append_drafts` field for field.
    pub fn with_appended(
        &self,
        drafts: &[RatingDraft],
        reviewer_count: usize,
        item_count: usize,
    ) -> Self {
        fn grown<T: Copy>(col: &[T], extra: usize) -> Vec<T> {
            let mut next = Vec::with_capacity(col.len() + extra);
            next.extend_from_slice(col);
            next
        }
        let extra = drafts.len();
        let mut next = Self {
            dim_names: Arc::clone(&self.dim_names),
            scale: self.scale,
            reviewers: grown(&self.reviewers, extra),
            items: grown(&self.items, extra),
            scores: self.scores.iter().map(|col| grown(col, extra)).collect(),
            by_reviewer: Arc::clone(&self.by_reviewer),
            by_item: Arc::clone(&self.by_item),
            indexed_len: self.indexed_len,
        };
        next.append_drafts(drafts, reviewer_count, item_count);
        next
    }
}

/// Builder for [`RatingTable`].
#[derive(Debug, Clone)]
pub struct RatingTableBuilder {
    dim_names: Vec<String>,
    scale: u8,
    reviewers: Vec<u32>,
    items: Vec<u32>,
    scores: Vec<Vec<u8>>,
}

impl RatingTableBuilder {
    /// Creates a builder for the given dimensions and scale.
    ///
    /// # Panics
    /// Panics if no dimensions are given or `scale == 0`.
    pub fn new(dim_names: Vec<String>, scale: u8) -> Self {
        assert!(!dim_names.is_empty(), "at least one rating dimension");
        assert!(scale > 0, "scale must be at least 1");
        let t = dim_names.len();
        Self {
            dim_names,
            scale,
            reviewers: Vec::new(),
            items: Vec::new(),
            scores: vec![Vec::new(); t],
        }
    }

    /// Appends a record. `scores` must have one entry per dimension, each in
    /// `1..=scale`.
    ///
    /// # Panics
    /// Panics on arity mismatch or out-of-scale scores.
    pub fn push(&mut self, reviewer: u32, item: u32, scores: &[u8]) -> RecordId {
        assert_eq!(scores.len(), self.dim_names.len(), "score arity mismatch");
        for &s in scores {
            assert!(
                s >= 1 && s <= self.scale,
                "score {s} outside scale 1..={}",
                self.scale
            );
        }
        let rec = self.reviewers.len() as u32;
        self.reviewers.push(reviewer);
        self.items.push(item);
        for (col, &s) in self.scores.iter_mut().zip(scores) {
            col.push(s);
        }
        rec
    }

    /// Number of records appended so far.
    pub fn len(&self) -> usize {
        self.reviewers.len()
    }

    /// Whether no records were appended.
    pub fn is_empty(&self) -> bool {
        self.reviewers.is_empty()
    }

    /// Overwrites the score of an existing record (used by the irregular-
    /// group injection workload, which forces chosen records to a score).
    ///
    /// # Panics
    /// Panics if the record or dimension is out of range, or the score is
    /// outside the scale.
    pub fn set_score(&mut self, rec: RecordId, dim: DimId, score: u8) {
        assert!(score >= 1 && score <= self.scale);
        self.scores[dim.index()][rec as usize] = score;
    }

    /// The reviewer ids of records appended so far (index = record id).
    pub fn reviewer_column(&self) -> &[u32] {
        &self.reviewers
    }

    /// The item ids of records appended so far (index = record id).
    pub fn item_column(&self) -> &[u32] {
        &self.items
    }

    /// Finalizes the table, building both adjacency indexes.
    ///
    /// `reviewer_count` / `item_count` are the entity-table sizes; all
    /// referenced ids must be below them.
    ///
    /// # Panics
    /// Panics if any record references an out-of-range reviewer or item.
    pub fn build(self, reviewer_count: usize, item_count: usize) -> RatingTable {
        for &r in &self.reviewers {
            assert!(
                (r as usize) < reviewer_count,
                "reviewer id {r} out of range"
            );
        }
        for &i in &self.items {
            assert!((i as usize) < item_count, "item id {i} out of range");
        }
        RatingTable::indexed(
            self.dim_names,
            self.scale,
            self.reviewers,
            self.items,
            self.scores,
            reviewer_count,
            item_count,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RatingTable {
        // Mirrors Figure 2's rating-record table (4 dimensions).
        let dims = vec![
            "overall".to_owned(),
            "food".to_owned(),
            "service".to_owned(),
            "ambiance".to_owned(),
        ];
        let mut b = RatingTableBuilder::new(dims, 5);
        b.push(0, 3, &[4, 3, 5, 4]);
        b.push(1, 0, &[4, 4, 3, 5]);
        b.push(1, 1, &[3, 4, 3, 3]);
        b.push(2, 3, &[5, 5, 5, 4]);
        b.build(3, 4)
    }

    #[test]
    fn basic_accessors() {
        let t = sample();
        assert_eq!(t.len(), 4);
        assert_eq!(t.dim_count(), 4);
        assert_eq!(t.scale(), 5);
        assert_eq!(t.reviewer_of(0), 0);
        assert_eq!(t.item_of(0), 3);
        let food = t.dim_by_name("food").unwrap();
        assert_eq!(t.score(0, food), 3);
        assert_eq!(t.dim_name(food), "food");
        assert_eq!(t.score_column(food), &[3, 4, 4, 5]);
    }

    #[test]
    fn adjacency_indexes() {
        let t = sample();
        assert_eq!(t.records_of_reviewer(1), &[1, 2]);
        assert_eq!(t.records_of_reviewer(0), &[0]);
        assert_eq!(t.records_of_item(3), &[0, 3]);
        assert_eq!(t.records_of_item(2), &[] as &[u32]);
    }

    #[test]
    fn dims_iterator() {
        let t = sample();
        let names: Vec<_> = t.dims().map(|d| t.dim_name(d).to_owned()).collect();
        assert_eq!(names, vec!["overall", "food", "service", "ambiance"]);
        assert!(t.dim_by_name("missing").is_none());
    }

    #[test]
    fn set_score_overwrites() {
        let dims = vec!["overall".to_owned()];
        let mut b = RatingTableBuilder::new(dims, 5);
        let rec = b.push(0, 0, &[5]);
        b.set_score(rec, DimId(0), 1);
        let t = b.build(1, 1);
        assert_eq!(t.score(rec, DimId(0)), 1);
    }

    #[test]
    #[should_panic(expected = "outside scale")]
    fn out_of_scale_score_panics() {
        let mut b = RatingTableBuilder::new(vec!["overall".to_owned()], 5);
        b.push(0, 0, &[6]);
    }

    #[test]
    #[should_panic(expected = "outside scale")]
    fn zero_score_panics() {
        let mut b = RatingTableBuilder::new(vec!["overall".to_owned()], 5);
        b.push(0, 0, &[0]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut b = RatingTableBuilder::new(vec!["a".to_owned(), "b".to_owned()], 5);
        b.push(0, 0, &[3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dangling_reviewer_panics() {
        let mut b = RatingTableBuilder::new(vec!["overall".to_owned()], 5);
        b.push(7, 0, &[3]);
        let _ = b.build(3, 4);
    }
}
