//! Distance between rating maps (Section 3.2.4) and the bounded, cached
//! map-distance engine behind the selection phase.
//!
//! Diversity `div(RM) = min over pairs of d(rm, rm′)` with `d` the Earth
//! Mover's Distance. A rating map is a *weighted set* of subgroup
//! distributions, so `d` is the exact EMD of the transportation problem
//! whose supplies/demands are the subgroup record fractions and whose
//! ground distance is the (normalized) 1-D EMD between subgroup rating
//! distributions.
//!
//! Two maps over the same group and dimension but different grouping
//! attributes partition the records differently, hence have nonzero
//! distance — this is what lets diversity surface new *attributes*
//! (Table 5's "attributes" row), not just new dimensions.
//!
//! # The distance engine
//!
//! The GMM selector performs `O(k²·l)` exact transportation solves per
//! step, and most of them only need to answer "is this pair *closer* than
//! the current minimum?". [`DistanceEngine`] makes that cheap without
//! changing a single answer:
//!
//! * [`MapSignature`] precomputes, once per map, every subgroup's CDF
//!   prefix vector, the raw subgroup weights, and the mixture (overall)
//!   CDF — the map's weighted centroid in the CDF embedding. Ground-cost
//!   matrices are then one allocation-free pass over a [`DistScratch`]
//!   buffer instead of per-cell `Vec` allocations.
//! * [`lower_bound`] / [`refined_lower_bound`] / [`upper_bound`] sandwich
//!   the exact distance; the GMM update `min_dist[i] = min(min_dist[i],
//!   d(next, i))` skips the exact solve whenever a lower bound (minus
//!   [`BOUND_MARGIN`]) already reaches `min_dist[i]` — provably unable to
//!   change the minimum, hence byte-identical selections.
//! * An optional shared [`DistanceCache`] memoizes exact values across
//!   steps and sessions, keyed by order-normalized content hashes; the
//!   engine computes every distance in canonical hash order so cached and
//!   fresh values agree bitwise in both argument orders.
//!
//! [`SelectionStats`] reports how each pair was resolved (exact solve,
//! bound-pruned, cache hit) so the service can expose the selection-phase
//! breakdown next to scan time and materialization paths.

use std::sync::Arc;
use std::time::Duration;

use crate::ratingmap::RatingMap;
use subdex_stats::distance::emd_1d_normalized_from_cdfs;
use subdex_stats::emd::{emd_transport_matrix_with, TransportScratch};
use subdex_stats::kernels::{self, BatchScratch};
use subdex_store::{DistPairKey, DistanceCache};

/// Safety margin subtracted from a computed lower bound before it is
/// compared against the current minimum in the pruned GMM update.
///
/// The bounds below are *mathematically* ≤ the exact distance, but they are
/// evaluated in floating point: the accumulated rounding error of an O(m)
/// sum over unit-scale values is ~1e-15, far below this margin. Requiring
/// `lb − BOUND_MARGIN ≥ min_dist` before pruning therefore guarantees that
/// every pruned pair truly satisfies `d ≥ min_dist` — the pruned update
/// could never have lowered `min_dist` — while giving up a negligible
/// sliver of pruning power. Distances live in `[0, 1]`, so an absolute
/// margin is meaningful.
pub const BOUND_MARGIN: f64 = 1e-9;

/// Precomputed distance state of one [`RatingMap`]: everything the engine
/// needs to build ground-cost matrices, evaluate bounds, and key caches,
/// derived once per map instead of once per pair.
#[derive(Debug, Clone)]
pub struct MapSignature {
    /// 128-bit content hash over the scale and per-subgroup score counts
    /// (dual independent FNV-1a streams). Identity fields (`MapKey`) are
    /// excluded on purpose: the distance depends only on the histograms,
    /// so content-equal maps should share cache entries.
    content_hash: u128,
    /// The rating-scale size `m`.
    scale: usize,
    /// Raw subgroup record totals — the transportation supplies, exactly
    /// as [`map_distance`] has always passed them (the solver normalizes
    /// internally, so raw totals keep the arithmetic byte-identical).
    weights: Vec<f64>,
    /// Score-major `m × s` matrix of subgroup CDF prefix vectors:
    /// `cdfs[k * s + i]` is CDF element `k` of subgroup `i`. The layout
    /// matches the batch kernels' structure-of-arrays convention, so
    /// ground-cost matrices are built by `kernels::cost_matrix` without a
    /// per-pair transpose.
    cdfs: Vec<f64>,
    /// CDF of the map's `overall` distribution — the weighted centroid of
    /// the subgroup CDFs in the `(ℝᵐ, L1)` embedding, used by the
    /// centroid/projection lower bound.
    mixture_cdf: Vec<f64>,
}

impl MapSignature {
    /// Builds the signature of one map (allocating fresh buffers).
    pub fn of(map: &RatingMap) -> Self {
        Self::build(map, &mut BatchScratch::new())
    }

    /// [`Self::of`] with a caller-provided staging batch, so building
    /// signatures for a whole pool reuses one allocation and all subgroup
    /// CDFs come out of a single SIMD kernel call.
    pub fn build(map: &RatingMap, tmp: &mut BatchScratch) -> Self {
        let scale = map.overall.scale();
        let s = map.subgroups.len();
        let mut hasher = ContentHasher::new();
        hasher.write_u64(scale as u64);
        let mut weights = Vec::with_capacity(s);
        for sg in &map.subgroups {
            weights.push(sg.distribution.total() as f64);
            for &c in sg.distribution.counts() {
                hasher.write_u64(c);
            }
        }
        // One lane per subgroup: the batched CDF kernel emits the
        // score-major matrix directly, each lane bit-identical to
        // `cdf_into`.
        tmp.stage(
            scale,
            map.subgroups.iter().map(|sg| sg.distribution.counts()),
        );
        let mut cdfs = Vec::new();
        kernels::cdf_rows(kernels::active(), tmp, &mut cdfs);
        let mut mixture_cdf = Vec::with_capacity(scale);
        map.overall.cdf_into(&mut mixture_cdf);
        Self {
            content_hash: hasher.finish(),
            scale,
            weights,
            cdfs,
            mixture_cdf,
        }
    }

    /// The 128-bit content hash (cache key component).
    #[inline]
    pub fn content_hash(&self) -> u128 {
        self.content_hash
    }

    /// Number of (non-empty) subgroups.
    #[inline]
    pub fn subgroup_count(&self) -> usize {
        self.weights.len()
    }

    /// Whether the underlying map had no non-empty subgroups.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }
}

/// Two independent FNV-1a streams combined into a 128-bit digest. FNV-1a
/// alone is weak at 64 bits for a cache shared across millions of pairs;
/// two decorrelated streams push collisions out of practical reach while
/// staying dependency-free and byte-order deterministic.
struct ContentHasher {
    a: u64,
    b: u64,
}

impl ContentHasher {
    fn new() -> Self {
        Self {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0xcbf2_9ce4_8422_2325 ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            self.b = (self.b ^ u64::from(byte.rotate_left(3))).wrapping_mul(0x100_0000_01b3);
            self.b = self.b.rotate_left(29);
        }
    }

    fn finish(&self) -> u128 {
        (u128::from(self.a) << 64) | u128::from(self.b)
    }
}

/// Reusable buffers for pairwise distance evaluation: the ground-cost
/// matrix, the column-minimum buffer of the matrix lower bound, the
/// mixture-CDF staging area of the batched row prestage, and the
/// transportation solver's buffers — each grown to the largest shape seen,
/// so steady-state GMM rows allocate nothing.
#[derive(Debug, Default)]
pub struct DistScratch {
    cost: Vec<f64>,
    transport: TransportScratch,
    /// Per-column minima of the demand-side matrix lower bound.
    mins: Vec<f64>,
    /// Score-major staging of candidate mixture CDFs for the batched
    /// row-level mixture bound.
    mix_stage: Vec<f64>,
    /// Per-candidate mixture lower bounds against the row's pivot.
    mix_lb: Vec<f64>,
    /// Exact solves a deferring engine has not inserted into its cache
    /// yet, in solve order.
    deferred: Vec<(DistPairKey, f64)>,
}

impl DistScratch {
    /// Drains the solves a [`DistanceEngine::deferring_inserts`] engine
    /// buffered here, in solve order.
    pub(crate) fn take_deferred(&mut self) -> Vec<(DistPairKey, f64)> {
        self.deferred.drain(..).collect()
    }
}

/// How the selection phase resolved its distance evaluations; threaded
/// through `StepResult` into the service metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectionStats {
    /// Exact transportation solves performed.
    pub exact_solves: u64,
    /// Pairs pruned by the O(m) mixture (centroid) lower bound.
    pub pruned_mixture: u64,
    /// Pairs pruned by the cost-matrix (independent-minimization) lower
    /// bound after the mixture bound failed — the matrix was built but the
    /// solver was skipped.
    pub pruned_matrix: u64,
    /// Pairs answered from the shared [`DistanceCache`].
    pub cache_hits: u64,
    /// Recommendation candidates whose diverse-selection preview never
    /// ran, because their utility bounds proved they cannot reach the top
    /// `o` (see [`crate::recommend::recommend`]).
    pub previews_skipped: u64,
    /// Wall-clock time spent inside diverse selection.
    pub select_time: Duration,
}

impl SelectionStats {
    /// Accumulates another selection pass's counters into this one.
    pub fn merge(&mut self, other: &Self) {
        self.exact_solves += other.exact_solves;
        self.pruned_mixture += other.pruned_mixture;
        self.pruned_matrix += other.pruned_matrix;
        self.cache_hits += other.cache_hits;
        self.previews_skipped += other.previews_skipped;
        self.select_time += other.select_time;
    }

    /// Pairs resolved without running the exact solver, via either bound.
    pub fn pruned(&self) -> u64 {
        self.pruned_mixture + self.pruned_matrix
    }

    /// Total pair evaluations resolved by any path.
    pub fn evaluations(&self) -> u64 {
        self.exact_solves + self.pruned() + self.cache_hits
    }
}

/// Distance value for degenerate (empty-map) pairs, where the
/// transportation problem is undefined: two empty maps are identical (0),
/// an empty map is maximally far (1) from a non-empty one.
#[inline]
fn degenerate(a: &MapSignature, b: &MapSignature) -> Option<f64> {
    match (a.is_empty(), b.is_empty()) {
        (true, true) => Some(0.0),
        (true, false) | (false, true) => Some(1.0),
        (false, false) => None,
    }
}

/// Orders a pair canonically (smaller content hash first) so every
/// computation of a pair — direct, swapped, or cached — runs the identical
/// arithmetic and returns the identical bits.
#[inline]
fn canonical<'s>(a: &'s MapSignature, b: &'s MapSignature) -> (&'s MapSignature, &'s MapSignature) {
    if a.content_hash <= b.content_hash {
        (a, b)
    } else {
        (b, a)
    }
}

/// Fills `cost` with the row-major `s_a × s_b` ground-cost matrix:
/// `cost[i·s_b + j]` is the normalized 1-D EMD between subgroup `i` of `a`
/// and subgroup `j` of `b`, evaluated from the precomputed score-major
/// CDFs in one batched kernel call (each cell bit-identical to
/// `emd_1d_normalized_from_cdfs`).
fn build_cost_matrix(a: &MapSignature, b: &MapSignature, cost: &mut Vec<f64>) {
    kernels::cost_matrix(
        kernels::active(),
        &a.cdfs,
        a.subgroup_count(),
        &b.cdfs,
        b.subgroup_count(),
        a.scale,
        cost,
    );
}

/// Exact distance of a canonically ordered, non-degenerate pair.
fn exact_ordered(a: &MapSignature, b: &MapSignature, scratch: &mut DistScratch) -> f64 {
    build_cost_matrix(a, b, &mut scratch.cost);
    emd_transport_matrix_with(
        &a.weights,
        &b.weights,
        &scratch.cost,
        &mut scratch.transport,
    )
}

/// O(m) centroid/projection lower bound on [`map_distance`].
///
/// In the CDF embedding the ground distance is `c(x, y) = ‖CDF_x −
/// CDF_y‖₁ / (m−1)` — a metric — and each map's mixture CDF is the
/// supply-weighted centroid of its subgroup CDFs. For any feasible flow
/// `f`, `‖Σᵢⱼ fᵢⱼ (CAᵢ − CBⱼ)‖₁ ≤ Σᵢⱼ fᵢⱼ ‖CAᵢ − CBⱼ‖₁` (triangle
/// inequality of the norm), and the left side telescopes to the distance
/// between the two mixtures. Hence `d(mixture_a, mixture_b) ≤ EMD(a, b)`.
///
/// The bound is exact when both maps have one subgroup, and degenerate
/// (0) for any two maps over the same dimension of the same rating group,
/// whose `overall` distributions coincide — that is what the matrix-level
/// bound inside the engine is for.
pub fn lower_bound(a: &MapSignature, b: &MapSignature) -> f64 {
    if let Some(d) = degenerate(a, b) {
        return d;
    }
    emd_1d_normalized_from_cdfs(&a.mixture_cdf, &b.mixture_cdf)
}

/// Independent-minimization lower bound from an already-built cost matrix:
/// every unit of supply `i` must ship *somewhere*, so the cost is at least
/// `Σᵢ ŵᵢ·minⱼ cᵢⱼ`; symmetrically for demands. The max of the two sides
/// is a valid LP-relaxation bound that skips the augmenting-path solver —
/// the dominant cost — while reusing the matrix the solver would need
/// anyway if the bound fails.
fn matrix_lower_bound(
    a: &MapSignature,
    b: &MapSignature,
    cost: &[f64],
    mins: &mut Vec<f64>,
) -> f64 {
    let (sa, sb) = (a.subgroup_count(), b.subgroup_count());
    let total_a: f64 = a.weights.iter().sum();
    let total_b: f64 = b.weights.iter().sum();
    let mut by_supply = 0.0;
    for (i, &w) in a.weights.iter().enumerate() {
        let row = &cost[i * sb..(i + 1) * sb];
        let min = row.iter().copied().fold(f64::INFINITY, f64::min);
        by_supply += (w / total_a) * min;
    }
    // Demand side: the column minima vectorize across columns (min over
    // finite non-negative costs is exact under SIMD), then the weighted
    // sum runs in the same ascending-`j` order as before.
    kernels::col_mins(kernels::active(), cost, sa, sb, mins);
    let mut by_demand = 0.0;
    for (j, &w) in b.weights.iter().enumerate() {
        by_demand += (w / total_b) * mins[j];
    }
    by_supply.max(by_demand)
}

/// The tighter of the two lower bounds (mixture, then independent
/// minimization over the cost matrix). Costs one matrix build; exposed for
/// the bound-sandwich property tests and for callers that want the best
/// bound outside the GMM loop.
pub fn refined_lower_bound(a: &MapSignature, b: &MapSignature, scratch: &mut DistScratch) -> f64 {
    if let Some(d) = degenerate(a, b) {
        return d;
    }
    let (x, y) = canonical(a, b);
    let mixture = emd_1d_normalized_from_cdfs(&x.mixture_cdf, &y.mixture_cdf);
    build_cost_matrix(x, y, &mut scratch.cost);
    mixture.max(matrix_lower_bound(x, y, &scratch.cost, &mut scratch.mins))
}

/// Cheap upper bound on [`map_distance`]: the cost of the north-west-corner
/// feasible flow — walk supplies and demands in index order, always
/// shipping as much as possible. Any feasible flow's cost is ≥ the optimum,
/// so `exact ≤ upper` always; the flow is built without the solver in
/// O(s_a + s_b) after the matrix.
pub fn upper_bound(a: &MapSignature, b: &MapSignature, scratch: &mut DistScratch) -> f64 {
    if let Some(d) = degenerate(a, b) {
        return d;
    }
    let (x, y) = canonical(a, b);
    build_cost_matrix(x, y, &mut scratch.cost);
    let total_x: f64 = x.weights.iter().sum();
    let total_y: f64 = y.weights.iter().sum();
    let sb = y.subgroup_count();
    let mut cost = 0.0;
    let mut supply = x.weights[0] / total_x;
    let mut demand = y.weights[0] / total_y;
    let (mut i, mut j) = (0usize, 0usize);
    loop {
        let shipped = supply.min(demand);
        cost += shipped * scratch.cost[i * sb + j];
        supply -= shipped;
        demand -= shipped;
        // Advance whichever side ran dry; numerical dust on the last
        // cell simply ends the walk.
        if supply <= demand {
            i += 1;
            match x.weights.get(i) {
                Some(&w) => supply = w / total_x,
                None => break,
            }
        } else {
            j += 1;
            match y.weights.get(j) {
                Some(&w) => demand = w / total_y,
                None => break,
            }
        }
    }
    cost
}

/// The bounded, cached map-distance evaluator used by the selection phase.
///
/// Configuration is two orthogonal switches — lower-bound pruning and a
/// shared cross-step [`DistanceCache`] — every combination of which
/// produces byte-identical selections (enforced by the selector's
/// equivalence tests).
#[derive(Debug, Clone)]
pub struct DistanceEngine {
    bounds: bool,
    cache: Option<Arc<DistanceCache>>,
    /// Buffer exact solves in the caller's [`DistScratch`] instead of
    /// inserting them into `cache`; see [`Self::deferring_inserts`].
    defer_inserts: bool,
}

impl Default for DistanceEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl DistanceEngine {
    /// Bounds on, no cache — the safe default for library callers.
    pub fn new() -> Self {
        Self {
            bounds: true,
            cache: None,
            defer_inserts: false,
        }
    }

    /// Enables or disables lower-bound pruning (selections are identical
    /// either way; off is the unbounded reference of the equivalence
    /// tests).
    pub fn with_bounds(mut self, bounds: bool) -> Self {
        self.bounds = bounds;
        self
    }

    /// Attaches a shared cross-step distance cache.
    pub fn with_cache(mut self, cache: Option<Arc<DistanceCache>>) -> Self {
        self.cache = cache;
        self
    }

    /// The attached distance cache, if any.
    pub fn cache(&self) -> Option<&Arc<DistanceCache>> {
        self.cache.as_ref()
    }

    /// This engine, reading the cache as before but buffering each exact
    /// solve in the [`DistScratch`] it ran on (see
    /// [`DistScratch::take_deferred`]) instead of inserting it. Parallel
    /// selections over one cache then hit exactly what the cache held when
    /// they started, whatever their schedule, and their owner inserts the
    /// buffers in a fixed order afterwards.
    pub(crate) fn deferring_inserts(mut self) -> Self {
        self.defer_inserts = true;
        self
    }

    /// Exact distance of a pair, served from the cache when possible.
    pub fn exact(
        &self,
        a: &MapSignature,
        b: &MapSignature,
        scratch: &mut DistScratch,
        stats: &mut SelectionStats,
    ) -> f64 {
        self.resolve(a, b, scratch, stats, |x, y, scratch, _| {
            Some(exact_ordered(x, y, scratch))
        })
        .expect("an unbounded resolution always yields a distance")
    }

    /// The filter-and-refine GMM update primitive: resolves `d(a, b)`
    /// against the candidate's current minimum distance.
    ///
    /// Returns `Some(d)` with the exact distance (cached or solved), or
    /// `None` when a lower bound proves `d(a, b) ≥ current_min` — in which
    /// case `min(current_min, d)` equals `current_min` and the caller can
    /// skip the update entirely without changing any future selection.
    pub fn evaluate_against(
        &self,
        a: &MapSignature,
        b: &MapSignature,
        current_min: f64,
        scratch: &mut DistScratch,
        stats: &mut SelectionStats,
    ) -> Option<f64> {
        self.evaluate_with_hint(a, b, current_min, None, scratch, stats)
    }

    /// [`Self::evaluate_against`] with an optional precomputed mixture
    /// lower bound. [`Self::update_row`] evaluates the mixture bound of a
    /// whole row in one batched SIMD pass and passes each value down here;
    /// the bound is bit-identical to the inline computation (the L1 ground
    /// distance is bit-symmetric in its arguments, so canonical ordering
    /// does not change it), hence pruning decisions are unchanged.
    fn evaluate_with_hint(
        &self,
        a: &MapSignature,
        b: &MapSignature,
        current_min: f64,
        mixture_hint: Option<f64>,
        scratch: &mut DistScratch,
        stats: &mut SelectionStats,
    ) -> Option<f64> {
        self.resolve(a, b, scratch, stats, |x, y, scratch, stats| {
            if !(self.bounds && current_min.is_finite()) {
                return Some(exact_ordered(x, y, scratch));
            }
            let mixture = mixture_hint
                .unwrap_or_else(|| emd_1d_normalized_from_cdfs(&x.mixture_cdf, &y.mixture_cdf));
            if mixture - BOUND_MARGIN >= current_min {
                stats.pruned_mixture += 1;
                return None;
            }
            build_cost_matrix(x, y, &mut scratch.cost);
            if matrix_lower_bound(x, y, &scratch.cost, &mut scratch.mins) - BOUND_MARGIN
                >= current_min
            {
                stats.pruned_matrix += 1;
                return None;
            }
            // Both bounds failed: solve on the matrix already in scratch —
            // the identical arithmetic `exact_ordered` would run.
            Some(emd_transport_matrix_with(
                &x.weights,
                &y.weights,
                &scratch.cost,
                &mut scratch.transport,
            ))
        })
    }

    /// The one path from a pair to its distance: degenerate pairs are
    /// answered outright, then the cache is asked, then `solve` runs on
    /// the canonically ordered pair. `solve` returns `None` when a bound
    /// settles the pair without an exact value; an exact value is counted
    /// as a solve and memoized — inserted into the cache, or, for an engine
    /// built by [`Self::deferring_inserts`], buffered in `scratch`, where
    /// later lookups of the same selection find it as they would in the
    /// cache.
    fn resolve(
        &self,
        a: &MapSignature,
        b: &MapSignature,
        scratch: &mut DistScratch,
        stats: &mut SelectionStats,
        solve: impl FnOnce(
            &MapSignature,
            &MapSignature,
            &mut DistScratch,
            &mut SelectionStats,
        ) -> Option<f64>,
    ) -> Option<f64> {
        if let Some(d) = degenerate(a, b) {
            return Some(d);
        }
        let (x, y) = canonical(a, b);
        let key = DistanceCache::pair_key(x.content_hash, y.content_hash);
        let buffered = || scratch.deferred.iter().find(|(k, _)| *k == key);
        let cached = match &self.cache {
            Some(cache) => cache.get(key).or_else(|| buffered().map(|&(_, d)| d)),
            None => None,
        };
        if let Some(d) = cached {
            stats.cache_hits += 1;
            return Some(d);
        }
        let d = solve(x, y, scratch, stats)?;
        stats.exact_solves += 1;
        if let Some(cache) = &self.cache {
            if self.defer_inserts {
                scratch.deferred.push((key, d));
            } else {
                cache.insert(key, d);
            }
        }
        Some(d)
    }

    /// Evaluates one GMM row in place: for every index with `!picked[i]`,
    /// lowers `min_dist[i]` to `d(pivot, i)` when the pair cannot be
    /// pruned.
    pub fn update_row(
        &self,
        sigs: &[MapSignature],
        pivot: usize,
        picked: &[bool],
        min_dist: &mut [f64],
        scratch: &mut DistScratch,
        stats: &mut SelectionStats,
    ) {
        let n = min_dist.len();
        // Batched mixture prestage: stage every candidate's mixture CDF
        // score-major and evaluate the whole row's centroid lower bounds in
        // one SIMD kernel pass. Each value is bit-identical to the inline
        // per-pair computation, so the pruning decisions downstream cannot
        // change. (Degenerate/picked lanes get values too; they are simply
        // never read.)
        let mut mix_lb = std::mem::take(&mut scratch.mix_lb);
        let use_hints = self.bounds && n > 0;
        if use_hints {
            let pivot_sig = &sigs[pivot];
            let scale = pivot_sig.scale;
            let mut stage = std::mem::take(&mut scratch.mix_stage);
            stage.clear();
            stage.resize(scale * n, 0.0);
            for (i, sig) in sigs[..n].iter().enumerate() {
                for (j, &c) in sig.mixture_cdf.iter().enumerate() {
                    stage[j * n + i] = c;
                }
            }
            subdex_stats::emd::emd_1d_normalized_rows(
                &stage,
                n,
                &pivot_sig.mixture_cdf,
                &mut mix_lb,
            );
            scratch.mix_stage = stage;
        }
        for i in 0..n {
            if picked[i] {
                continue;
            }
            let hint = use_hints.then(|| mix_lb[i]);
            if let Some(d) =
                self.evaluate_with_hint(&sigs[pivot], &sigs[i], min_dist[i], hint, scratch, stats)
            {
                if d < min_dist[i] {
                    min_dist[i] = d;
                }
            }
        }
        scratch.mix_lb = mix_lb;
    }
}

/// Exact EMD between two rating maps, in `[0, 1]`.
///
/// Conventions for degenerate maps: two empty maps are identical (0);
/// an empty map is maximally far (1) from a non-empty one.
pub fn map_distance(a: &RatingMap, b: &RatingMap) -> f64 {
    let sa = MapSignature::of(a);
    let sb = MapSignature::of(b);
    signature_distance(&sa, &sb, &mut DistScratch::default())
}

/// [`map_distance`] over prebuilt signatures and a reusable scratch —
/// the batched form every O(n²) pairwise loop should use.
pub fn signature_distance(a: &MapSignature, b: &MapSignature, scratch: &mut DistScratch) -> f64 {
    if let Some(d) = degenerate(a, b) {
        return d;
    }
    let (x, y) = canonical(a, b);
    exact_ordered(x, y, scratch)
}

/// Builds the signature set of a map collection with one shared staging
/// buffer — the entry point for Table-5 style pairwise reporting.
pub fn signatures_of(maps: &[&RatingMap]) -> Vec<MapSignature> {
    let mut tmp = BatchScratch::new();
    maps.iter()
        .map(|m| MapSignature::build(m, &mut tmp))
        .collect()
}

/// The diversity of a set of maps: the minimum pairwise distance
/// (`div(RM)` in the paper). Sets of fewer than two maps have diversity 0.
///
/// Signatures are built once per map (not once per pair) and every cost
/// matrix reuses one scratch buffer.
pub fn set_diversity(maps: &[&RatingMap]) -> f64 {
    if maps.len() < 2 {
        return 0.0;
    }
    let sigs = signatures_of(maps);
    let mut scratch = DistScratch::default();
    let mut min = f64::INFINITY;
    for i in 0..sigs.len() {
        for j in (i + 1)..sigs.len() {
            min = min.min(signature_distance(&sigs[i], &sigs[j], &mut scratch));
        }
    }
    min
}

/// Average pairwise distance — the "diversity" column reported in Table 5.
/// Shares the one-signature-per-map evaluation path with [`set_diversity`].
pub fn avg_pairwise_distance(maps: &[&RatingMap]) -> f64 {
    let n = maps.len();
    if n < 2 {
        return 0.0;
    }
    let sigs = signatures_of(maps);
    let mut scratch = DistScratch::default();
    let mut sum = 0.0;
    let mut pairs = 0u32;
    for i in 0..n {
        for j in (i + 1)..n {
            sum += signature_distance(&sigs[i], &sigs[j], &mut scratch);
            pairs += 1;
        }
    }
    sum / f64::from(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratingmap::{MapKey, Subgroup};
    use subdex_stats::RatingDistribution;
    use subdex_store::{AttrId, DimId, Entity, ValueId};

    fn map(attr: u16, dim: u16, groups: &[&[u64]]) -> RatingMap {
        let subs = groups
            .iter()
            .enumerate()
            .map(|(i, counts)| Subgroup {
                value: ValueId(i as u32),
                distribution: RatingDistribution::from_counts(counts.to_vec()),
                avg_score: None,
            })
            .collect();
        RatingMap::from_subgroups(MapKey::new(Entity::Item, AttrId(attr), DimId(dim)), subs, 5)
    }

    #[test]
    fn identical_maps_distance_zero() {
        let a = map(0, 0, &[&[1, 2, 3, 4, 5], &[5, 4, 3, 2, 1]]);
        let b = a.clone();
        assert!(map_distance(&a, &b) < 1e-9);
    }

    #[test]
    fn opposite_maps_distance_one() {
        let a = map(0, 0, &[&[10, 0, 0, 0, 0]]);
        let b = map(0, 0, &[&[0, 0, 0, 0, 10]]);
        assert!((map_distance(&a, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn distance_symmetric() {
        let a = map(0, 0, &[&[3, 1, 0, 0, 6], &[0, 5, 5, 0, 0]]);
        let b = map(1, 0, &[&[1, 1, 1, 1, 1]]);
        assert!((map_distance(&a, &b) - map_distance(&b, &a)).abs() < 1e-9);
    }

    #[test]
    fn distance_symmetric_bitwise() {
        // Canonical ordering makes the two argument orders run the same
        // arithmetic, so symmetry holds to the bit, not just to tolerance.
        let a = map(
            0,
            0,
            &[&[3, 1, 0, 0, 6], &[0, 5, 5, 0, 0], &[1, 0, 2, 0, 1]],
        );
        let b = map(1, 0, &[&[1, 1, 1, 1, 1], &[0, 2, 0, 2, 0]]);
        assert_eq!(
            map_distance(&a, &b).to_bits(),
            map_distance(&b, &a).to_bits()
        );
    }

    #[test]
    fn different_partitions_same_overall_have_positive_distance() {
        // Same 20 records; one partition separates extremes, the other
        // mixes them evenly.
        let a = map(0, 0, &[&[10, 0, 0, 0, 0], &[0, 0, 0, 0, 10]]);
        let b = map(1, 0, &[&[5, 0, 0, 0, 5], &[5, 0, 0, 0, 5]]);
        assert_eq!(a.overall, b.overall);
        assert!(map_distance(&a, &b) > 0.3, "partition shape matters");
    }

    #[test]
    fn degenerate_maps() {
        let empty = map(0, 0, &[]);
        let full = map(0, 0, &[&[1, 1, 1, 1, 1]]);
        assert_eq!(map_distance(&empty, &empty), 0.0);
        assert_eq!(map_distance(&empty, &full), 1.0);
        assert_eq!(map_distance(&full, &empty), 1.0);
    }

    #[test]
    fn set_diversity_is_min_pairwise() {
        let a = map(0, 0, &[&[10, 0, 0, 0, 0]]);
        let b = map(1, 0, &[&[0, 0, 0, 0, 10]]);
        let c = map(2, 0, &[&[9, 1, 0, 0, 0]]); // close to a
        let d_ac = map_distance(&a, &c);
        assert!((set_diversity(&[&a, &b, &c]) - d_ac).abs() < 1e-9);
        assert_eq!(set_diversity(&[&a]), 0.0);
        assert_eq!(set_diversity(&[]), 0.0);
    }

    #[test]
    fn avg_pairwise_behaves() {
        let a = map(0, 0, &[&[10, 0, 0, 0, 0]]);
        let b = map(1, 0, &[&[0, 0, 0, 0, 10]]);
        assert!((avg_pairwise_distance(&[&a, &b]) - 1.0).abs() < 1e-9);
        assert_eq!(avg_pairwise_distance(&[&a]), 0.0);
    }

    #[test]
    fn triangle_inequality_sample() {
        let a = map(0, 0, &[&[10, 0, 0, 0, 0]]);
        let b = map(1, 0, &[&[0, 0, 10, 0, 0]]);
        let c = map(2, 0, &[&[0, 0, 0, 0, 10]]);
        let ab = map_distance(&a, &b);
        let bc = map_distance(&b, &c);
        let ac = map_distance(&a, &c);
        assert!(ac <= ab + bc + 1e-9);
    }

    #[test]
    fn signature_matches_direct_distance_bitwise() {
        let a = map(0, 0, &[&[3, 1, 0, 0, 6], &[0, 5, 5, 0, 0]]);
        let b = map(1, 0, &[&[1, 1, 1, 1, 1], &[2, 0, 0, 0, 2]]);
        let (sa, sb) = (MapSignature::of(&a), MapSignature::of(&b));
        let mut scratch = DistScratch::default();
        assert_eq!(
            signature_distance(&sa, &sb, &mut scratch).to_bits(),
            map_distance(&a, &b).to_bits()
        );
    }

    #[test]
    fn content_hash_ignores_identity_fields() {
        let a = map(0, 0, &[&[3, 1, 0, 0, 6]]);
        let b = map(7, 3, &[&[3, 1, 0, 0, 6]]);
        assert_eq!(
            MapSignature::of(&a).content_hash(),
            MapSignature::of(&b).content_hash(),
            "identity must not affect the content hash"
        );
        let c = map(0, 0, &[&[3, 1, 0, 0, 7]]);
        assert_ne!(
            MapSignature::of(&a).content_hash(),
            MapSignature::of(&c).content_hash()
        );
    }

    #[test]
    fn bounds_sandwich_exact_distance() {
        let pairs = [
            (
                map(0, 0, &[&[10, 0, 0, 0, 0], &[0, 0, 0, 0, 10]]),
                map(1, 0, &[&[5, 0, 0, 0, 5], &[5, 0, 0, 0, 5]]),
            ),
            (
                map(0, 0, &[&[3, 1, 0, 0, 6], &[0, 5, 5, 0, 0]]),
                map(1, 1, &[&[1, 1, 1, 1, 1]]),
            ),
            (
                map(0, 0, &[&[9, 1, 0, 0, 0]]),
                map(
                    1,
                    0,
                    &[&[0, 0, 0, 1, 9], &[2, 2, 2, 2, 2], &[0, 9, 0, 0, 0]],
                ),
            ),
        ];
        let mut scratch = DistScratch::default();
        for (a, b) in &pairs {
            let (sa, sb) = (MapSignature::of(a), MapSignature::of(b));
            let exact = signature_distance(&sa, &sb, &mut scratch);
            let lo = lower_bound(&sa, &sb);
            let lo_refined = refined_lower_bound(&sa, &sb, &mut scratch);
            let hi = upper_bound(&sa, &sb, &mut scratch);
            assert!(lo <= exact + 1e-9, "mixture {lo} > exact {exact}");
            assert!(lo <= lo_refined + 1e-12, "refined must not be looser");
            assert!(
                lo_refined <= exact + 1e-9,
                "refined {lo_refined} > exact {exact}"
            );
            assert!(exact <= hi + 1e-9, "exact {exact} > upper {hi}");
        }
    }

    #[test]
    fn lower_bound_tight_for_single_subgroup_maps() {
        // One subgroup each: the mixture *is* the lone subgroup, so the
        // centroid bound equals the exact distance.
        let a = map(0, 0, &[&[3, 1, 0, 0, 6]]);
        let b = map(1, 0, &[&[0, 5, 5, 0, 0]]);
        let (sa, sb) = (MapSignature::of(&a), MapSignature::of(&b));
        let exact = map_distance(&a, &b);
        assert!((lower_bound(&sa, &sb) - exact).abs() < 1e-12);
    }

    #[test]
    fn mixture_bound_degenerates_on_shared_overall() {
        let a = map(0, 0, &[&[10, 0, 0, 0, 0], &[0, 0, 0, 0, 10]]);
        let b = map(1, 0, &[&[5, 0, 0, 0, 5], &[5, 0, 0, 0, 5]]);
        let (sa, sb) = (MapSignature::of(&a), MapSignature::of(&b));
        assert!(lower_bound(&sa, &sb).abs() < 1e-12);
        // ...but the matrix-level bound still sees structure.
        let mut scratch = DistScratch::default();
        assert!(refined_lower_bound(&sa, &sb, &mut scratch) > 0.1);
    }

    #[test]
    fn engine_prunes_without_changing_the_answer() {
        let pivot = map(0, 0, &[&[10, 0, 0, 0, 0], &[0, 10, 0, 0, 0]]);
        let far = map(1, 0, &[&[0, 0, 0, 0, 10], &[0, 0, 0, 10, 0]]);
        let (sp, sf) = (MapSignature::of(&pivot), MapSignature::of(&far));
        let mut scratch = DistScratch::default();
        let mut stats = SelectionStats::default();
        let engine = DistanceEngine::new();
        // Tiny current minimum: the far pair must be pruned by a bound.
        let pruned = engine.evaluate_against(&sp, &sf, 0.01, &mut scratch, &mut stats);
        assert_eq!(pruned, None);
        assert_eq!(stats.pruned(), 1);
        assert_eq!(stats.exact_solves, 0);
        // Infinite minimum (the seed row): never pruned, exact computed.
        let mut stats2 = SelectionStats::default();
        let d = engine
            .evaluate_against(&sp, &sf, f64::INFINITY, &mut scratch, &mut stats2)
            .expect("seed row is never pruned");
        assert_eq!(stats2.exact_solves, 1);
        assert_eq!(d.to_bits(), map_distance(&pivot, &far).to_bits());
    }

    #[test]
    fn engine_cache_round_trips_bitwise() {
        let a = map(0, 0, &[&[3, 1, 0, 0, 6], &[0, 5, 5, 0, 0]]);
        let b = map(1, 0, &[&[1, 1, 1, 1, 1], &[0, 2, 0, 2, 0]]);
        let (sa, sb) = (MapSignature::of(&a), MapSignature::of(&b));
        let cache = Arc::new(subdex_store::DistanceCache::new(1 << 16));
        let engine = DistanceEngine::new().with_cache(Some(cache.clone()));
        let mut scratch = DistScratch::default();
        let mut stats = SelectionStats::default();
        let cold = engine.exact(&sa, &sb, &mut scratch, &mut stats);
        assert_eq!(stats.exact_solves, 1);
        // Warm lookup, in both argument orders.
        let warm = engine.exact(&sa, &sb, &mut scratch, &mut stats);
        let warm_swapped = engine.exact(&sb, &sa, &mut scratch, &mut stats);
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.exact_solves, 1, "no recompute after the first solve");
        assert_eq!(cold.to_bits(), warm.to_bits());
        assert_eq!(cold.to_bits(), warm_swapped.to_bits());
        assert_eq!(cache.len(), 1);
    }

    /// A deferring engine leaves the cache alone, buffers its solve in the
    /// scratch, and answers a repeat of the pair from that buffer.
    #[test]
    fn deferring_engine_hits_its_own_buffer() {
        let a = map(0, 0, &[&[3, 1, 0, 0, 6], &[0, 5, 5, 0, 0]]);
        let b = map(1, 0, &[&[1, 1, 1, 1, 1], &[0, 2, 0, 2, 0]]);
        let (sa, sb) = (MapSignature::of(&a), MapSignature::of(&b));
        let cache = Arc::new(subdex_store::DistanceCache::new(1 << 16));
        let engine = DistanceEngine::new()
            .with_cache(Some(cache.clone()))
            .deferring_inserts();
        let mut scratch = DistScratch::default();
        let mut stats = SelectionStats::default();
        let cold = engine.exact(&sa, &sb, &mut scratch, &mut stats);
        let warm = engine.exact(&sb, &sa, &mut scratch, &mut stats);
        assert_eq!((stats.exact_solves, stats.cache_hits), (1, 1));
        assert_eq!(cold.to_bits(), warm.to_bits());
        assert!(cache.is_empty(), "the owner inserts the buffer later");
        let buffered = scratch.take_deferred();
        assert_eq!(buffered.len(), 1);
        assert_eq!(buffered[0].1.to_bits(), cold.to_bits());
    }

    #[test]
    fn selection_stats_merge_and_derived_counters() {
        let mut a = SelectionStats {
            exact_solves: 2,
            pruned_mixture: 1,
            pruned_matrix: 3,
            cache_hits: 4,
            previews_skipped: 2,
            select_time: Duration::from_micros(10),
        };
        let b = SelectionStats {
            exact_solves: 1,
            pruned_mixture: 0,
            pruned_matrix: 1,
            cache_hits: 0,
            previews_skipped: 1,
            select_time: Duration::from_micros(5),
        };
        a.merge(&b);
        assert_eq!(a.exact_solves, 3);
        assert_eq!(a.previews_skipped, 3);
        assert_eq!(a.pruned(), 5);
        assert_eq!(a.evaluations(), 12);
        assert_eq!(a.select_time, Duration::from_micros(15));
    }
}
