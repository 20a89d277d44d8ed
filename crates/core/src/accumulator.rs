//! Shared GroupBy accumulators — the *sharing-based optimization* of
//! Section 4.2.1.
//!
//! All candidate rating maps with the same grouping attribute differ only in
//! which rating dimension they aggregate, so they are computed as *one*
//! query with multiple aggregates ("Combining Multiple Aggregates" in
//! SeeDB's terms): a [`FamilyAccumulator`] holds one count matrix per
//! still-active dimension of its attribute. Pruned dimensions are removed
//! from the family; an empty family stops scanning entirely.
//!
//! [`scan_block`] lifts the sharing one level further, from the dimensions
//! of a family to the families of an entity side (aggregate once at the
//! finest grouping key, then roll up — Wen et al. in PAPERS.md). Each
//! gathered [`ScanBlock`] is scanned **once per side**, with the strategy
//! read off the input:
//!
//! * **Dense side** — the table has far fewer rows than the block has
//!   records (an item table of 93 rows under 20 000 ratings). The scan
//!   counts a per-entity-row histogram `[row][dim][score]` over the union
//!   of the side's active dimensions (`records × dims` increments, whatever
//!   the number of families), then folds every row's histogram into each
//!   active (family, dim) matrix through the grouping column — one code for
//!   a single-valued attribute, the CSR values for a multi-valued one.
//! * **Sparse side** — about as many rows as records (150 318 reviewers
//!   under 200 500 ratings), so a per-row histogram would share nothing.
//!   The scan copies each record's row of the table's
//!   [`PackedCodes`](subdex_store::PackedCodes) matrix once — one short
//!   contiguous read per record instead of one random code lookup per
//!   family per dimension — and then runs one tight loop per active
//!   (family, dim) pair over those contiguous codes. Attributes without a
//!   packed slot (multi-valued, or more than 256 values) read their column
//!   per record.
//!
//! Both strategies only regroup additions of exact `u64` counts, so every
//! matrix is byte-identical to a record-at-a-time count — and so are the
//! chunk-parallel partial sums, which split by record ranges only.

use std::ops::Range;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::interest;
use crate::ratingmap::{MapKey, RatingMap, Subgroup};
use subdex_stats::kernels::BatchScratch;
use subdex_stats::RatingDistribution;
use subdex_store::{
    AttrId, Column, DimId, Entity, EntityTable, RatingGroup, RecordId, ScanBlock, ScanScratch,
    SubjectiveDb, ValueId,
};

/// Raw (unnormalized) criterion values of one candidate at some point of
/// the phased scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawScores {
    /// Compaction gain.
    pub conciseness: f64,
    /// Inverse mean subgroup SD.
    pub agreement: f64,
    /// Max subgroup-vs-group TVD.
    pub self_peculiarity: f64,
    /// Max map-vs-seen TVD.
    pub global_peculiarity: f64,
}

/// Reusable buffers for the per-phase score re-estimation
/// ([`FamilyAccumulator::raw_scores_staged`]): the staged subgroup batch,
/// the staged seen batch, the overall distribution a candidate's criteria
/// are computed from, and a global-peculiarity memo.
///
/// Re-estimation runs `candidates × phases` times per generate call; since
/// the kernel layer it stages the non-empty subgroup rows of the count
/// matrix into a score-major [`BatchScratch`] and evaluates agreement and
/// both peculiarities through the batched SIMD kernels — one lane per
/// subgroup (or per seen map). Holding one of these across calls (the
/// engine pools it inside [`crate::plan::ExecContext`], the recommendation
/// evaluator inside its per-worker scratch) recycles all staging capacity.
///
/// The seen maps are staged once per generate call
/// ([`Self::stage_seen`]). Global peculiarity is a pure function of the
/// overall distribution, the staged seen batch and the measure, and every
/// single-valued family of a dimension shares one overall distribution, so
/// it is memoized by the overall's counts until the next
/// [`Self::begin_phase`] or [`Self::stage_seen`]. Everything else is
/// recomputed from the count matrix on every call, so pooled and fresh
/// scratch produce byte-identical scores.
#[derive(Debug)]
pub struct EstimateScratch {
    /// The non-empty subgroup rows, staged score-major.
    batch: BatchScratch,
    /// Previously displayed map distributions, staged for global
    /// peculiarity.
    seen_batch: BatchScratch,
    overall: RatingDistribution,
    /// Per-lane kernel outputs (distances / standard deviations).
    vals: Vec<f64>,
    /// Kernel scratch (means under the Outlier measure).
    tmp: Vec<f64>,
    /// Memo keys: the overall counts of each memoized entry, back to back
    /// (`seen_batch.scale()` counts an entry).
    memo_counts: Vec<u64>,
    /// Memo values, aligned with `memo_counts`.
    memo: Vec<(interest::PeculiarityMeasure, f64)>,
}

impl Default for EstimateScratch {
    fn default() -> Self {
        Self {
            batch: BatchScratch::new(),
            seen_batch: BatchScratch::new(),
            overall: RatingDistribution::new(1),
            vals: Vec::new(),
            tmp: Vec::new(),
            memo_counts: Vec::new(),
            memo: Vec::new(),
        }
    }
}

impl EstimateScratch {
    /// Fresh, empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stages the distributions of previously displayed maps (the global
    /// peculiarity references) over `scale`, and empties the memo.
    pub fn stage_seen(&mut self, scale: usize, seen: &[RatingDistribution]) {
        self.seen_batch
            .stage(scale, seen.iter().map(|d| d.counts()));
        self.begin_phase();
    }

    /// Empties the global-peculiarity memo. The generator calls this once
    /// per phase: the counts change between phases, so older entries would
    /// only lengthen the lookup.
    pub fn begin_phase(&mut self) {
        self.memo_counts.clear();
        self.memo.clear();
    }

    /// Global peculiarity of `self.overall` against the staged seen batch,
    /// from the memo when this (measure, overall) pair was seen before.
    fn global_peculiarity(&mut self, measure: interest::PeculiarityMeasure) -> f64 {
        let key = self.overall.counts();
        let hit = self
            .memo_counts
            .chunks_exact(key.len())
            .zip(&self.memo)
            .find(|(counts, (m, _))| *m == measure && *counts == key);
        if let Some((_, &(_, value))) = hit {
            return value;
        }
        measure.distance_rows(
            &self.seen_batch,
            &self.overall,
            &mut self.tmp,
            &mut self.vals,
        );
        let value = interest::max_distance(&self.vals);
        self.memo_counts.extend_from_slice(self.overall.counts());
        self.memo.push((measure, value));
        value
    }
}

/// Count-matrix accumulator for one grouping attribute and all of its
/// still-active rating dimensions.
#[derive(Debug, Clone)]
pub struct FamilyAccumulator {
    /// Entity side of the grouping attribute.
    pub entity: Entity,
    /// The grouping attribute.
    pub attr: AttrId,
    /// Still-active dimensions (candidates not yet pruned/accepted).
    dims: Vec<DimId>,
    /// One count matrix per active dimension, flat and dim-major:
    /// `counts[dim_pos * width + value.index() * scale + (score − 1)]` with
    /// `width = value_count * scale` (see [`dim_counts`](Self::dim_counts)).
    counts: Vec<u64>,
    value_count: usize,
    scale: usize,
    records_processed: u64,
}

impl FamilyAccumulator {
    /// Creates an accumulator for `(entity, attr)` over `dims`.
    pub fn new(db: &SubjectiveDb, entity: Entity, attr: AttrId, dims: Vec<DimId>) -> Self {
        let value_count = db.table(entity).dictionary(attr).len();
        let scale = db.ratings().scale() as usize;
        let counts = vec![0u64; dims.len() * value_count * scale];
        Self {
            entity,
            attr,
            dims,
            counts,
            value_count,
            scale,
            records_processed: 0,
        }
    }

    /// The active dimensions.
    pub fn dims(&self) -> &[DimId] {
        &self.dims
    }

    /// Whether every dimension was pruned away.
    pub fn is_exhausted(&self) -> bool {
        self.dims.is_empty()
    }

    /// Records scanned so far (phase fractions are cumulative).
    pub fn records_processed(&self) -> u64 {
        self.records_processed
    }

    /// Length of one dimension's count matrix.
    fn width(&self) -> usize {
        self.value_count * self.scale
    }

    /// The count matrix of one active dimension position.
    fn dim_counts(&self, dim_pos: usize) -> &[u64] {
        let width = self.width();
        &self.counts[dim_pos * width..(dim_pos + 1) * width]
    }

    /// Map key for one active dimension position.
    pub fn key_at(&self, dim_pos: usize) -> MapKey {
        MapKey::new(self.entity, self.attr, self.dims[dim_pos])
    }

    /// Drops a dimension from the family (its candidate was pruned or
    /// accepted-and-frozen). No-op if absent.
    pub fn remove_dim(&mut self, dim: DimId) {
        if let Some(pos) = self.dims.iter().position(|&d| d == dim) {
            self.dims.remove(pos);
            let width = self.width();
            self.counts.drain(pos * width..(pos + 1) * width);
        }
    }

    /// Scans one phase fraction given as a record-id slice.
    ///
    /// Convenience wrapper for one-off scans (workload analysis, tests): it
    /// gathers a throwaway [`ScanBlock`] for `phase` and runs [`scan_block`]
    /// over this family alone. The generator gathers once per phase with
    /// long-lived scratch and scans all families together.
    pub fn update(&mut self, db: &SubjectiveDb, phase: &[RecordId]) {
        if self.dims.is_empty() || phase.is_empty() {
            return;
        }
        let group = RatingGroup::with_order(phase.to_vec());
        let mut scratch = ScanScratch::new();
        scratch.prepare_group(db.ratings(), &group);
        let dims = self.dims.clone();
        let block = scratch.gather_phase(db.ratings(), &group, 0..phase.len(), &dims);
        scan_block(
            db,
            std::slice::from_mut(self),
            &block,
            1,
            &mut CountScratch::new(),
        );
    }

    /// The per-subgroup distributions (non-empty only) and the overall
    /// distribution for one active dimension.
    pub fn distributions(
        &self,
        dim_pos: usize,
    ) -> (
        Vec<(subdex_store::ValueId, RatingDistribution)>,
        RatingDistribution,
    ) {
        let counts = self.dim_counts(dim_pos);
        let mut subs = Vec::new();
        let mut overall = RatingDistribution::new(self.scale);
        for v in 0..self.value_count {
            let slice = &counts[v * self.scale..(v + 1) * self.scale];
            if slice.iter().all(|&c| c == 0) {
                continue;
            }
            let dist = RatingDistribution::from_counts(slice.to_vec());
            overall.merge(&dist);
            subs.push((subdex_store::ValueId(v as u32), dist));
        }
        (subs, overall)
    }

    /// Raw criterion scores for one active dimension against the seen maps
    /// last staged by [`EstimateScratch::stage_seen`]. The subgroup and
    /// overall distributions are refilled from the count matrix on each
    /// call; global peculiarity may come from the scratch's memo, which is
    /// exact.
    ///
    /// # Panics
    /// Panics if the staged seen batch is not over this family's scale.
    pub fn raw_scores_staged(
        &self,
        dim_pos: usize,
        measure: interest::PeculiarityMeasure,
        scratch: &mut EstimateScratch,
    ) -> RawScores {
        assert_eq!(
            scratch.seen_batch.scale(),
            self.scale,
            "seen maps not staged over this scale"
        );
        let counts = self.dim_counts(dim_pos);
        scratch.overall.reset(self.scale);
        // Pass 1: count the live (non-empty) subgroup rows and fold them
        // into the overall distribution (exact u64 adds, order-free).
        let mut live = 0usize;
        for v in 0..self.value_count {
            let slice = &counts[v * self.scale..(v + 1) * self.scale];
            if slice.iter().all(|&c| c == 0) {
                continue;
            }
            scratch.overall.merge_counts(slice);
            live += 1;
        }
        // Pass 2: stage the live rows score-major, one SIMD lane each.
        scratch.batch.begin(live, self.scale);
        let mut lane = 0usize;
        for v in 0..self.value_count {
            let slice = &counts[v * self.scale..(v + 1) * self.scale];
            if slice.iter().all(|&c| c == 0) {
                continue;
            }
            scratch.batch.set_lane(lane, slice);
            lane += 1;
        }

        // Agreement: batched mean/SD, then the scalar fold in lane order.
        subdex_stats::distribution::mean_sd_rows(
            &scratch.batch,
            &mut scratch.tmp,
            &mut scratch.vals,
        );
        let agreement = interest::agreement_from_sds(&scratch.vals);

        // Self peculiarity: every live subgroup against the overall
        // distribution, max-aggregated in lane order.
        measure.distance_rows(
            &scratch.batch,
            &scratch.overall,
            &mut scratch.tmp,
            &mut scratch.vals,
        );
        let self_peculiarity = interest::max_distance(&scratch.vals);

        // Global peculiarity: the overall distribution against every seen
        // map — one lane per seen distribution, same reference.
        let global_peculiarity = scratch.global_peculiarity(measure);

        RawScores {
            conciseness: interest::conciseness_raw(self.records_processed, live),
            agreement,
            self_peculiarity,
            global_peculiarity,
        }
    }

    /// Materializes the rating map of one active dimension from the counts
    /// accumulated so far.
    pub fn to_rating_map(&self, dim_pos: usize) -> RatingMap {
        let (subs, _) = self.distributions(dim_pos);
        let subgroups = subs
            .into_iter()
            .map(|(value, distribution)| Subgroup {
                value,
                distribution,
                avg_score: None,
            })
            .collect();
        RatingMap::from_subgroups(self.key_at(dim_pos), subgroups, self.scale)
    }
}

/// Smallest record chunk worth dispatching to a worker; below this the
/// dispatch overhead dominates the scan.
const MIN_CHUNK: usize = 1024;

/// A side takes the per-row roll-up when the scanned range holds at least
/// this many records per table row. The fold costs about one histogram
/// cell per (row, family, dim) where the direct count costs one increment
/// per (record, family, dim), so a handful of records per row already pays;
/// near the threshold the two cost the same.
const DENSE_RECORDS_PER_ROW: usize = 8;

/// One scan lane's reusable buffers: what scanning one record range needs
/// besides the count matrices it adds into.
#[derive(Debug, Default)]
struct Lane {
    /// Dense side: the `[row][side dim][score]` histogram.
    row_hist: Vec<u32>,
    /// Dense side: union of the side's active dimensions.
    side_dims: Vec<DimId>,
    /// Sparse side: the range's packed code rows, `stride` bytes a record.
    packed_rows: Vec<u8>,
    /// Chunk-parallel path: this worker's private count set, the active
    /// families' matrices back to back.
    partial: Vec<u64>,
}

/// Reusable buffers of [`scan_block`], one lane per concurrent record
/// chunk. Pooled with the rest of the generator's scratch
/// ([`crate::generator::GenerateScratch`]) so steady-state scans allocate
/// nothing: the chunk-parallel path takes its per-worker count sets from
/// here rather than allocating fresh ones per block.
///
/// Each lane sits behind a `Mutex` only so pooled tasks can borrow their own
/// lane mutably from a shared slice; lane `w` is locked by chunk `w` alone,
/// so the lock is never contended.
#[derive(Debug, Default)]
pub struct CountScratch {
    lanes: Vec<Mutex<Lane>>,
}

/// Locks a lane. Lanes hold no invariants between scans (every buffer is
/// rebuilt from scratch per range), so a lane poisoned by a panicking scan
/// task is as good as any other.
fn lock(lane: &Mutex<Lane>) -> MutexGuard<'_, Lane> {
    lane.lock().unwrap_or_else(PoisonError::into_inner)
}

impl CountScratch {
    /// Fresh scratch with no lanes; they grow to the chunk count in use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Where one family's increments of one record range go: the family's own
/// matrices (serial scan) or a worker's private copy (chunk-parallel scan).
struct Target<'a> {
    entity: Entity,
    attr: AttrId,
    dims: &'a [DimId],
    /// Length of one dimension's matrix.
    width: usize,
    /// `dims.len()` matrices, dim-major.
    counts: &'a mut [u64],
}

/// Scans one gathered block into every non-exhausted family — the record-
/// major shared-aggregate scan described in the module docs.
///
/// With `threads > 1` the block is split into at most `threads` record
/// chunks (never smaller than 1024 records) run on the persistent task
/// pool. Each worker scans its chunk for all families into a private count
/// set taken from `scratch`, and the sets are added into the families in
/// chunk order afterwards — exact `u64` partial sums, so any order would
/// give byte-identical totals.
///
/// # Panics
/// Panics if an active dimension was not gathered into `block`.
pub fn scan_block(
    db: &SubjectiveDb,
    families: &mut [FamilyAccumulator],
    block: &ScanBlock<'_>,
    threads: usize,
    scratch: &mut CountScratch,
) {
    let n = block.len();
    if n == 0 || families.iter().all(FamilyAccumulator::is_exhausted) {
        return;
    }
    let chunk = n.div_ceil(threads.max(1)).max(MIN_CHUNK).min(n);
    let n_chunks = n.div_ceil(chunk);
    if scratch.lanes.len() < n_chunks {
        scratch.lanes.resize_with(n_chunks, Mutex::default);
    }

    if n_chunks == 1 {
        let mut targets: Vec<Target<'_>> = families
            .iter_mut()
            .filter(|f| !f.is_exhausted())
            .map(|f| Target {
                entity: f.entity,
                attr: f.attr,
                dims: &f.dims,
                width: f.width(),
                counts: &mut f.counts,
            })
            .collect();
        scan_range(db, block, 0..n, &mut targets, &mut lock(&scratch.lanes[0]));
    } else {
        let active: &[FamilyAccumulator] = families;
        let total: usize = active.iter().map(|f| f.counts.len()).sum();
        let lanes = &scratch.lanes[..n_chunks];
        crate::parallel::task_pool().run(n_chunks, |w| {
            let lane = &mut *lock(&lanes[w]);
            // Out of the lane while the targets borrow it.
            let mut partial = std::mem::take(&mut lane.partial);
            partial.clear();
            partial.resize(total, 0);
            let mut rest = partial.as_mut_slice();
            let mut targets: Vec<Target<'_>> = Vec::with_capacity(active.len());
            for f in active.iter().filter(|f| !f.is_exhausted()) {
                let (counts, tail) = rest.split_at_mut(f.counts.len());
                rest = tail;
                targets.push(Target {
                    entity: f.entity,
                    attr: f.attr,
                    dims: &f.dims,
                    width: f.width(),
                    counts,
                });
            }
            let range = w * chunk..((w + 1) * chunk).min(n);
            scan_range(db, block, range, &mut targets, lane);
            lane.partial = partial;
        });
        for lane in lanes {
            let lane = lock(lane);
            let mut rest = lane.partial.as_slice();
            for f in families.iter_mut().filter(|f| !f.is_exhausted()) {
                let (partial, tail) = rest.split_at(f.counts.len());
                rest = tail;
                for (total, &part) in f.counts.iter_mut().zip(partial) {
                    *total += part;
                }
            }
        }
    }
    for f in families.iter_mut().filter(|f| !f.is_exhausted()) {
        f.records_processed += n as u64;
    }
}

/// Scans `range` of `block` into `targets`, one pass per entity side.
fn scan_range(
    db: &SubjectiveDb,
    block: &ScanBlock<'_>,
    range: Range<usize>,
    targets: &mut [Target<'_>],
    lane: &mut Lane,
) {
    let scale = db.ratings().scale() as usize;
    // Reviewer-side targets first, so each side is one contiguous slice.
    targets.sort_unstable_by_key(|t| t.entity == Entity::Item);
    let (reviewer_side, item_side) =
        targets.split_at_mut(targets.partition_point(|t| t.entity == Entity::Reviewer));
    for (entity, targets) in [(Entity::Reviewer, reviewer_side), (Entity::Item, item_side)] {
        if targets.is_empty() {
            continue;
        }
        let table = db.table(entity);
        let side = SideScan {
            table,
            rows: &block.entity_rows(entity)[range.clone()],
            block,
            range: range.clone(),
            scale,
        };
        if table.len() * DENSE_RECORDS_PER_ROW <= range.len() {
            side.dense(targets, &mut lane.row_hist, &mut lane.side_dims);
        } else {
            side.sparse(targets, &mut lane.packed_rows);
        }
    }
}

/// One entity side of one record range.
struct SideScan<'a> {
    table: &'a EntityTable,
    /// The range's entity rows on this side.
    rows: &'a [u32],
    block: &'a ScanBlock<'a>,
    range: Range<usize>,
    scale: usize,
}

impl SideScan<'_> {
    /// The range's scores on one dimension.
    fn scores(&self, dim: DimId) -> &[u8] {
        &self
            .block
            .scores_for(dim)
            .expect("active dimension not gathered into block")[self.range.clone()]
    }

    /// Dense strategy: count `[row][dim][score]` once for the side, then
    /// roll every row's histogram up into each (family, dim) matrix.
    fn dense(&self, targets: &mut [Target<'_>], hist: &mut Vec<u32>, side_dims: &mut Vec<DimId>) {
        side_dims.clear();
        for t in targets.iter() {
            for dim in t.dims {
                if !side_dims.contains(dim) {
                    side_dims.push(*dim);
                }
            }
        }
        let scale = self.scale;
        // Histogram cells per row. A cell counts records of one block, and
        // a block's records are indexed by `u32`, so it cannot overflow.
        let cell = side_dims.len() * scale;
        hist.clear();
        hist.resize(self.table.len() * cell, 0);
        for (di, &dim) in side_dims.iter().enumerate() {
            let base = di * scale;
            for (&row, &score) in self.rows.iter().zip(self.scores(dim)) {
                hist[row as usize * cell + base + (score as usize - 1)] += 1;
            }
        }
        for t in targets {
            let column = self.table.column(t.attr);
            for (counts, dim) in t.counts.chunks_exact_mut(t.width).zip(t.dims) {
                let di = side_dims
                    .iter()
                    .position(|d| d == dim)
                    .expect("side_dims is the union of the targets' dims");
                let row_hists = hist.chunks_exact(cell).map(|h| &h[di * scale..][..scale]);
                let mut add = |value: ValueId, row_hist: &[u32]| {
                    let dst = &mut counts[value.index() * scale..][..scale];
                    for (c, &h) in dst.iter_mut().zip(row_hist) {
                        *c += u64::from(h);
                    }
                };
                match column {
                    Column::Single(codes) => {
                        for (&value, row_hist) in codes.iter().zip(row_hists) {
                            add(value, row_hist);
                        }
                    }
                    Column::Multi(csr) => {
                        for (row, row_hist) in row_hists.enumerate() {
                            for &value in csr.values(row as u32) {
                                add(value, row_hist);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Sparse strategy: gather the range's packed code rows once, then one
    /// tight loop per (family, dim) pair over the contiguous codes.
    /// Attributes without a packed slot go through their column.
    fn sparse(&self, targets: &mut [Target<'_>], packed_rows: &mut Vec<u8>) {
        let packed = self.table.packed_codes();
        let stride = packed.stride();
        let scale = self.scale;
        if targets.iter().any(|t| packed.slot(t.attr).is_some()) {
            packed_rows.clear();
            packed_rows.reserve(self.rows.len() * stride);
            for &row in self.rows {
                packed_rows.extend_from_slice(packed.row(row));
            }
        }
        for t in targets {
            let slot = packed.slot(t.attr);
            let column = self.table.column(t.attr);
            for (counts, &dim) in t.counts.chunks_exact_mut(t.width).zip(t.dims) {
                let scores = self.scores(dim);
                match (slot, column) {
                    (Some(slot), _) => {
                        let codes = packed_rows[slot..].iter().step_by(stride);
                        for (&code, &score) in codes.zip(scores) {
                            counts[code as usize * scale + (score as usize - 1)] += 1;
                        }
                    }
                    (None, Column::Single(codes)) => {
                        for (&row, &score) in self.rows.iter().zip(scores) {
                            let value = codes[row as usize];
                            counts[value.index() * scale + (score as usize - 1)] += 1;
                        }
                    }
                    (None, Column::Multi(csr)) => {
                        for (&row, &score) in self.rows.iter().zip(scores) {
                            for value in csr.values(row) {
                                counts[value.index() * scale + (score as usize - 1)] += 1;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Enumerates the candidate map keys for a query: every (entity, attribute)
/// not pinned to a single value by the query, crossed with every rating
/// dimension. Attributes the query constrains are excluded — grouping by a
/// pinned attribute yields a single subgroup, which carries no information
/// yet would dominate conciseness.
pub fn candidate_keys(
    db: &SubjectiveDb,
    query: &subdex_store::SelectionQuery,
) -> Vec<(Entity, AttrId, Vec<DimId>)> {
    let dims: Vec<DimId> = db.ratings().dims().collect();
    let mut out = Vec::new();
    for entity in [Entity::Reviewer, Entity::Item] {
        let table = db.table(entity);
        for attr in table.schema().attr_ids() {
            if query.constrains(entity, attr) {
                continue;
            }
            if table.dictionary(attr).len() < 2 {
                continue; // a single-valued attribute cannot partition
            }
            out.push((entity, attr, dims.clone()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use subdex_store::{Cell, SelectionQuery, Value};

    // A tiny deterministic database: 4 reviewers × gender, 4 items × city,
    // 8 rating records on 2 dimensions.
    mod fixture {
        use super::*;
        pub fn build() -> SubjectiveDb {
            let mut us = subdex_store::Schema::new();
            us.add("gender", false);
            let mut ub = subdex_store::table::EntityTableBuilder::new(us);
            ub.push_row(vec![Cell::from("F")]);
            ub.push_row(vec![Cell::from("M")]);
            ub.push_row(vec![Cell::from("F")]);
            ub.push_row(vec![Cell::from("M")]);

            let mut is = subdex_store::Schema::new();
            is.add("city", false);
            is.add("tags", true);
            let mut ib = subdex_store::table::EntityTableBuilder::new(is);
            ib.push_row(vec![
                Cell::from("NYC"),
                Cell::Many(vec![Value::str("a"), Value::str("b")]),
            ]);
            ib.push_row(vec![Cell::from("NYC"), Cell::Many(vec![Value::str("a")])]);
            ib.push_row(vec![Cell::from("SF"), Cell::Many(vec![Value::str("b")])]);
            ib.push_row(vec![Cell::from("SF"), Cell::Many(vec![])]);

            let mut rb = subdex_store::ratings::RatingTableBuilder::new(
                vec!["overall".to_owned(), "food".to_owned()],
                5,
            );
            // reviewer, item, [overall, food]
            rb.push(0, 0, &[5, 4]);
            rb.push(0, 2, &[1, 2]);
            rb.push(1, 1, &[4, 4]);
            rb.push(1, 3, &[2, 1]);
            rb.push(2, 0, &[5, 5]);
            rb.push(2, 3, &[3, 3]);
            rb.push(3, 2, &[1, 1]);
            rb.push(3, 1, &[4, 5]);
            SubjectiveDb::new(ub.build(), ib.build(), rb.build(4, 4))
        }
    }

    #[test]
    fn update_accumulates_counts() {
        let db = fixture::build();
        let city = db.items().schema().attr_by_name("city").unwrap();
        let mut fam = FamilyAccumulator::new(&db, Entity::Item, city, vec![DimId(0), DimId(1)]);
        let recs: Vec<u32> = (0..8).collect();
        fam.update(&db, &recs);
        assert_eq!(fam.records_processed(), 8);
        let (subs, overall) = fam.distributions(0);
        assert_eq!(subs.len(), 2, "NYC and SF");
        assert_eq!(overall.total(), 8);
        // NYC (value 0): records 0,2,4,7 → overall scores 5,4,5,4.
        let nyc = &subs.iter().find(|(v, _)| v.0 == 0).unwrap().1;
        assert_eq!(nyc.counts(), &[0, 0, 0, 2, 2]);
    }

    #[test]
    fn incremental_phases_match_single_scan() {
        let db = fixture::build();
        let city = db.items().schema().attr_by_name("city").unwrap();
        let recs: Vec<u32> = (0..8).collect();

        let mut whole = FamilyAccumulator::new(&db, Entity::Item, city, vec![DimId(0)]);
        whole.update(&db, &recs);

        let mut phased = FamilyAccumulator::new(&db, Entity::Item, city, vec![DimId(0)]);
        phased.update(&db, &recs[..3]);
        phased.update(&db, &recs[3..5]);
        phased.update(&db, &recs[5..]);

        assert_eq!(whole.distributions(0), phased.distributions(0));
        assert_eq!(whole.records_processed(), phased.records_processed());
    }

    #[test]
    fn dense_and_sparse_strategies_count_alike() {
        // 8 records over 4-row tables scan through the packed-code path;
        // the same records four times over in one block (32 ≥ 8 × 4 rows)
        // take the per-row roll-up. Both must count every record once, for
        // the atomic and the multi-valued column.
        let db = fixture::build();
        let dims = vec![DimId(0), DimId(1)];
        let records: Vec<u32> = (0..8).cycle().take(32).collect();
        for (entity, attr_name) in [
            (Entity::Reviewer, "gender"),
            (Entity::Item, "city"),
            (Entity::Item, "tags"),
        ] {
            let attr = db.table(entity).schema().attr_by_name(attr_name).unwrap();
            let mut sparse = FamilyAccumulator::new(&db, entity, attr, dims.clone());
            for pass in records.chunks(8) {
                sparse.update(&db, pass);
            }
            let mut dense = FamilyAccumulator::new(&db, entity, attr, dims.clone());
            dense.update(&db, &records);
            for dim_pos in 0..dims.len() {
                assert_eq!(
                    sparse.distributions(dim_pos),
                    dense.distributions(dim_pos),
                    "{attr_name} dim {dim_pos}"
                );
            }
            assert_eq!(sparse.records_processed(), dense.records_processed());
        }
    }

    #[test]
    fn multi_valued_grouping_counts_per_value() {
        let db = fixture::build();
        let tags = db.items().schema().attr_by_name("tags").unwrap();
        let mut fam = FamilyAccumulator::new(&db, Entity::Item, tags, vec![DimId(0)]);
        fam.update(&db, &(0..8).collect::<Vec<_>>());
        let (subs, overall) = fam.distributions(0);
        // Item 0 carries {a, b}: its records count under both tags.
        assert_eq!(subs.len(), 2);
        // Records on items with ≥1 tag: items 0 (recs 0,4), 1 (recs 2,7),
        // 2 (recs 1,6). Item 0 double-counts → overall total = 6 + 2 = 8.
        assert_eq!(overall.total(), 8);
    }

    #[test]
    fn remove_dim_stops_tracking() {
        let db = fixture::build();
        let city = db.items().schema().attr_by_name("city").unwrap();
        let mut fam = FamilyAccumulator::new(&db, Entity::Item, city, vec![DimId(0), DimId(1)]);
        fam.remove_dim(DimId(0));
        assert_eq!(fam.dims(), &[DimId(1)]);
        assert!(!fam.is_exhausted());
        fam.remove_dim(DimId(1));
        assert!(fam.is_exhausted());
        fam.remove_dim(DimId(1)); // idempotent
        fam.update(&db, &[0, 1]); // no-op, must not panic
        assert_eq!(fam.records_processed(), 0);
    }

    /// Scores of one dimension against `seen`, on a throwaway scratch.
    fn fresh_scores(
        fam: &FamilyAccumulator,
        dim_pos: usize,
        seen: &[RatingDistribution],
        measure: interest::PeculiarityMeasure,
    ) -> RawScores {
        let mut scratch = EstimateScratch::new();
        scratch.stage_seen(fam.scale, seen);
        fam.raw_scores_staged(dim_pos, measure, &mut scratch)
    }

    #[test]
    fn raw_scores_are_finite() {
        let db = fixture::build();
        let gender = db.reviewers().schema().attr_by_name("gender").unwrap();
        let mut fam = FamilyAccumulator::new(&db, Entity::Reviewer, gender, vec![DimId(1)]);
        fam.update(&db, &(0..8).collect::<Vec<_>>());
        let raw = fresh_scores(&fam, 0, &[], interest::PeculiarityMeasure::TotalVariation);
        assert!(raw.conciseness > 0.0 && raw.conciseness.is_finite());
        assert!(raw.agreement > 0.0 && raw.agreement <= 1.0);
        assert!((0.0..=1.0).contains(&raw.self_peculiarity));
        assert_eq!(raw.global_peculiarity, 0.0, "nothing seen yet");
    }

    #[test]
    fn pooled_estimation_matches_fresh_scratch() {
        // One scratch reused across families, dims, measures, seen sets and
        // repeated calls must give the same scores as a throwaway scratch
        // every time — stale distributions beyond the live prefix and memo
        // entries of an earlier seen set must never leak in.
        let db = fixture::build();
        let measures = [
            interest::PeculiarityMeasure::TotalVariation,
            interest::PeculiarityMeasure::KlDivergence,
        ];
        let dims = vec![DimId(0), DimId(1)];
        let family = |entity: Entity, name: &str| {
            let attr = db.table(entity).schema().attr_by_name(name).unwrap();
            let mut fam = FamilyAccumulator::new(&db, entity, attr, dims.clone());
            fam.update(&db, &(0..8).collect::<Vec<_>>());
            fam
        };
        // gender and city are single-valued, so every record counts once
        // and they share each dimension's overall distribution; tags is
        // multi-valued (item 0 counts twice, item 3 not at all).
        let gender = family(Entity::Reviewer, "gender");
        let city = family(Entity::Item, "city");
        let tags = family(Entity::Item, "tags");
        for dim_pos in 0..dims.len() {
            assert_eq!(
                gender.distributions(dim_pos).1,
                city.distributions(dim_pos).1
            );
            assert_ne!(city.distributions(dim_pos).1, tags.distributions(dim_pos).1);
        }
        let families = [&gender, &city, &tags];
        let mut overalls: Vec<RatingDistribution> = families
            .iter()
            .flat_map(|fam| (0..dims.len()).map(|dim_pos| fam.distributions(dim_pos).1))
            .collect();
        overalls.sort_by(|a, b| a.counts().cmp(b.counts()));
        overalls.dedup();
        let distinct_overalls = overalls.len();
        assert!(distinct_overalls < families.len() * dims.len());
        let seen_sets = [
            vec![RatingDistribution::from_counts(vec![4, 1, 0, 0, 3])],
            vec![
                RatingDistribution::from_counts(vec![0, 0, 1, 5, 2]),
                RatingDistribution::from_counts(vec![0, 0, 0, 0, 8]),
            ],
        ];
        // The two seen sets score the same overall differently, so a memo
        // entry surviving `stage_seen` would show up as a mismatch.
        for measure in measures {
            let globals: Vec<f64> = seen_sets
                .iter()
                .map(|seen| fresh_scores(&city, 0, seen, measure).global_peculiarity)
                .collect();
            assert_ne!(globals[0], globals[1], "{measure:?}");
        }

        let mut scratch = EstimateScratch::new();
        for _round in 0..2 {
            for seen in &seen_sets {
                scratch.stage_seen(5, seen);
                for fam in families {
                    for dim_pos in 0..dims.len() {
                        for measure in measures {
                            let fresh = fresh_scores(fam, dim_pos, seen, measure);
                            let staged = fam.raw_scores_staged(dim_pos, measure, &mut scratch);
                            assert_eq!(fresh, staged, "{:?} dim {dim_pos}", fam.attr);
                        }
                    }
                }
                // One memo entry per measure and distinct overall: the two
                // single-valued families shared theirs.
                assert_eq!(scratch.memo.len(), measures.len() * distinct_overalls);
                scratch.begin_phase();
                assert!(scratch.memo.is_empty());
                for fam in families {
                    for dim_pos in 0..dims.len() {
                        for measure in measures {
                            let fresh = fresh_scores(fam, dim_pos, seen, measure);
                            scratch.stage_seen(fam.scale, seen);
                            let pooled = fam.raw_scores_staged(dim_pos, measure, &mut scratch);
                            assert_eq!(fresh, pooled, "{:?} dim {dim_pos}", fam.attr);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn to_rating_map_matches_distributions() {
        let db = fixture::build();
        let city = db.items().schema().attr_by_name("city").unwrap();
        let mut fam = FamilyAccumulator::new(&db, Entity::Item, city, vec![DimId(0)]);
        fam.update(&db, &(0..8).collect::<Vec<_>>());
        let map = fam.to_rating_map(0);
        assert_eq!(map.key, MapKey::new(Entity::Item, city, DimId(0)));
        assert_eq!(map.subgroup_count(), 2);
        assert!(
            map.top_subgroup().unwrap().avg_score.unwrap()
                >= map.bottom_subgroup().unwrap().avg_score.unwrap()
        );
    }

    #[test]
    fn candidate_keys_exclude_constrained_and_unary() {
        let db = fixture::build();
        let q = SelectionQuery::all();
        let keys = candidate_keys(&db, &q);
        // gender, city, tags — all binary+ → 3 families.
        assert_eq!(keys.len(), 3);
        assert!(keys.iter().all(|(_, _, dims)| dims.len() == 2));

        let nyc = db.pred(Entity::Item, "city", &Value::str("NYC")).unwrap();
        let q2 = SelectionQuery::from_preds(vec![nyc]);
        let keys2 = candidate_keys(&db, &q2);
        assert_eq!(keys2.len(), 2, "city family excluded when pinned");
        assert!(keys2.iter().all(|(e, a, _)| !(*e == Entity::Item
            && *a == db.items().schema().attr_by_name("city").unwrap())));
    }
}
