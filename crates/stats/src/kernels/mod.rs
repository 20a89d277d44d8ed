//! Batch kernels over many rating distributions at once — the SIMD layer
//! of the distributional hot path.
//!
//! Every exploration step reduces to the same handful of small-distribution
//! loops: CDF prefixes and TVD/KL divergences during score re-estimation,
//! and L1 cost matrices during GMM selection (the phase scan's histogram
//! accumulation is data-dependent scatter no lane model helps with; it
//! lives with the accumulators in `subdex-core`). The rating scale `m` is tiny (typically 5), so
//! vectorizing *within* one distribution is useless — and would reassociate
//! its reductions. This module instead vectorizes across the **batch
//! axis**: one distribution (candidate, subgroup, map pair) per SIMD lane.
//!
//! # Layout
//!
//! Kernels consume **score-major structure-of-arrays** batches: a batch of
//! `lanes` distributions over scale `m` is a flat `m × lanes` buffer in
//! which `counts[j * lanes + i]` is lane `i`'s count for score `j + 1`
//! (see [`BatchScratch`]). Vector loads are then contiguous across the
//! batch while each lane still accumulates in ascending-`j` order.
//!
//! # Byte-identity contract
//!
//! Every path returns bit-identical `f64`s for the same inputs, and those
//! bits equal what the pre-kernel scalar code (`cdf_into`,
//! `total_variation`, `kl_divergence`, `emd_1d_normalized_from_cdfs`,
//! `std_dev`) produced:
//!
//! * Vectorization is across the batch axis only — each lane's reduction
//!   accumulates in the same `j = 0..m` order as the scalar reference, so
//!   no reduction is ever reassociated.
//! * The per-element operations the SIMD paths use (add, sub, mul, div,
//!   sqrt, abs-by-masking, min on finite values, `u64 → f64` conversion)
//!   are IEEE-754 correctly rounded, hence lane-for-lane identical to
//!   their scalar equivalents.
//! * Transcendentals (`ln`, `exp`) are **not** vectorized: SIMD paths
//!   extract lanes and call the same scalar `f64::ln` the reference uses —
//!   a polynomial vector approximation would break the contract.
//! * Integer kernels are exact on every path, so identity there is by
//!   construction. The word-wise set kernels (`and_words`, `andnot_words`,
//!   `popcount_words`) vectorize profitably; the data-dependent ones
//!   (`gather_u32`, the probe/decode/filter set kernels)
//!   share the scalar body because their `vpgatherdd`-style variants
//!   measured slower than out-of-order scalar loads (see the per-kernel
//!   docs).
//!
//! The contract is pinned by proptests (`kernel_equivalence`) comparing
//! every available path against [`KernelPath::Scalar`] with `to_bits`
//! equality across empty, single-lane, and non-multiple-of-width batches.
//!
//! # Dispatch
//!
//! [`active`] picks the widest available path once per process via
//! `is_x86_feature_detected!`. The environment variable
//! `SUBDEX_KERNEL=scalar|sse2|avx2` overrides the choice (an unknown or
//! unavailable value falls back to auto-detection; `scalar` always works,
//! which is what CI uses to keep the fallback path honest). Every kernel
//! takes its [`KernelPath`] explicitly, so tests and benches can pin all
//! paths against each other in one process without touching the
//! environment.

mod scalar;
#[cfg(target_arch = "x86_64")]
mod x86;

use std::sync::OnceLock;

/// One implementation path of the batch kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// Portable scalar reference — the semantics every other path must
    /// reproduce bit-for-bit.
    Scalar,
    /// 128-bit SSE2: two `f64` lanes per op.
    Sse2,
    /// 256-bit AVX2: four `f64` lanes per op.
    Avx2,
}

impl KernelPath {
    /// Whether this path can run on the current host.
    pub fn is_available(self) -> bool {
        match self {
            KernelPath::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelPath::Sse2 => std::arch::is_x86_feature_detected!("sse2"),
            #[cfg(target_arch = "x86_64")]
            KernelPath::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Every path the current host supports, scalar first.
    pub fn available() -> Vec<KernelPath> {
        [KernelPath::Scalar, KernelPath::Sse2, KernelPath::Avx2]
            .into_iter()
            .filter(|p| p.is_available())
            .collect()
    }

    /// Parses an override name as accepted by `SUBDEX_KERNEL`.
    pub fn parse(name: &str) -> Option<KernelPath> {
        match name.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelPath::Scalar),
            "sse2" => Some(KernelPath::Sse2),
            "avx2" => Some(KernelPath::Avx2),
            _ => None,
        }
    }

    /// The override/report name of the path.
    pub fn name(self) -> &'static str {
        match self {
            KernelPath::Scalar => "scalar",
            KernelPath::Sse2 => "sse2",
            KernelPath::Avx2 => "avx2",
        }
    }
}

impl std::fmt::Display for KernelPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

static ACTIVE: OnceLock<KernelPath> = OnceLock::new();

/// The process-wide kernel path: chosen once, first from the
/// `SUBDEX_KERNEL` env override, otherwise as the widest path
/// `is_x86_feature_detected!` reports.
pub fn active() -> KernelPath {
    *ACTIVE.get_or_init(|| {
        if let Ok(v) = std::env::var("SUBDEX_KERNEL") {
            if let Some(p) = KernelPath::parse(&v) {
                if p.is_available() {
                    return p;
                }
            }
        }
        if KernelPath::Avx2.is_available() {
            KernelPath::Avx2
        } else if KernelPath::Sse2.is_available() {
            KernelPath::Sse2
        } else {
            KernelPath::Scalar
        }
    })
}

/// A staged score-major batch of rating distributions: `lanes`
/// distributions over scale `m`, with `counts[j * lanes + i]` the count of
/// lane `i` at score `j + 1` and `totals[i]` the lane's record total.
///
/// The buffers grow to the largest batch seen and are reused across calls;
/// [`shrink`](Self::shrink) releases capacity beyond the most recent batch
/// (the high-water trim primitive used by the scratch pools).
#[derive(Debug, Default)]
pub struct BatchScratch {
    counts: Vec<u64>,
    totals: Vec<u64>,
    lanes: usize,
    scale: usize,
}

impl BatchScratch {
    /// Empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new batch of `lanes` zeroed distributions over `scale`.
    ///
    /// # Panics
    /// Panics if `scale == 0`.
    pub fn begin(&mut self, lanes: usize, scale: usize) {
        assert!(scale > 0, "rating scale must be at least 1");
        self.lanes = lanes;
        self.scale = scale;
        self.counts.clear();
        self.counts.resize(lanes * scale, 0);
        self.totals.clear();
        self.totals.resize(lanes, 0);
    }

    /// Stages one distribution's per-score counts into `lane`, computing
    /// its total (ascending-`j` summation, exact on `u64`).
    ///
    /// # Panics
    /// Panics if `counts.len() != scale` or `lane` is out of range.
    pub fn set_lane(&mut self, lane: usize, counts: &[u64]) {
        assert_eq!(counts.len(), self.scale, "lane scale mismatch");
        let mut total = 0u64;
        for (j, &c) in counts.iter().enumerate() {
            self.counts[j * self.lanes + lane] = c;
            total += c;
        }
        self.totals[lane] = total;
    }

    /// Stages a whole batch: one lane per `rows` item.
    pub fn stage<'a, I>(&mut self, scale: usize, rows: I)
    where
        I: ExactSizeIterator<Item = &'a [u64]>,
    {
        self.begin(rows.len(), scale);
        for (i, row) in rows.enumerate() {
            self.set_lane(i, row);
        }
    }

    /// Number of staged lanes.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The rating scale of the staged batch.
    #[inline]
    pub fn scale(&self) -> usize {
        self.scale
    }

    /// The score-major count buffer (`scale × lanes`).
    #[inline]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Per-lane record totals.
    #[inline]
    pub fn totals(&self) -> &[u64] {
        &self.totals
    }

    /// Heap bytes currently held by the staging buffers.
    pub fn resident_bytes(&self) -> usize {
        self.counts.capacity() * std::mem::size_of::<u64>()
            + self.totals.capacity() * std::mem::size_of::<u64>()
    }

    /// Heap bytes the most recent batch actually needed (length, not
    /// capacity) — the demand signal of the executor's high-water trim.
    pub fn used_bytes(&self) -> usize {
        self.counts.len() * std::mem::size_of::<u64>()
            + self.totals.len() * std::mem::size_of::<u64>()
    }

    /// Releases all retained capacity (the high-water shrink hook).
    pub fn shrink(&mut self) {
        self.counts = Vec::new();
        self.totals = Vec::new();
        self.lanes = 0;
    }
}

/// Asserts the path can run here; called by every dispatching kernel so a
/// forced path from a test or env override can never reach unsupported
/// instructions.
#[inline]
fn check(path: KernelPath) {
    assert!(
        path.is_available(),
        "kernel path {path} is not available on this host"
    );
}

/// Batch CDF prefixes: for every lane, `out[j * lanes + i]` is lane `i`'s
/// cumulative probability at score `j + 1` — bit-identical to
/// `RatingDistribution::cdf_into` per lane (uniform steps for empty
/// lanes). `out` is resized to `scale × lanes`.
pub fn cdf_rows(path: KernelPath, batch: &BatchScratch, out: &mut Vec<f64>) {
    check(path);
    let (lanes, scale) = (batch.lanes, batch.scale);
    out.clear();
    out.resize(lanes * scale, 0.0);
    match path {
        KernelPath::Scalar => scalar::cdf_rows(&batch.counts, &batch.totals, lanes, scale, out),
        #[cfg(target_arch = "x86_64")]
        KernelPath::Sse2 => unsafe {
            x86::cdf_rows_sse2(&batch.counts, &batch.totals, lanes, scale, out)
        },
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2 => unsafe {
            x86::cdf_rows_avx2(&batch.counts, &batch.totals, lanes, scale, out)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::cdf_rows(&batch.counts, &batch.totals, lanes, scale, out),
    }
}

/// Batch total-variation distance of every lane against one reference
/// distribution: `out[i] = ½ Σ_j |p_ij − q_j|` with the streaming
/// `prob` semantics of `distance::total_variation` (empty ⇒ uniform).
/// `out` is resized to `lanes`.
///
/// # Panics
/// Panics if `ref_counts.len() != scale`.
pub fn tvd_rows(
    path: KernelPath,
    batch: &BatchScratch,
    ref_counts: &[u64],
    ref_total: u64,
    out: &mut Vec<f64>,
) {
    check(path);
    assert_eq!(ref_counts.len(), batch.scale, "reference scale mismatch");
    let (lanes, scale) = (batch.lanes, batch.scale);
    out.clear();
    out.resize(lanes, 0.0);
    match path {
        KernelPath::Scalar => scalar::tvd_rows(
            &batch.counts,
            &batch.totals,
            lanes,
            scale,
            ref_counts,
            ref_total,
            out,
        ),
        #[cfg(target_arch = "x86_64")]
        KernelPath::Sse2 => unsafe {
            x86::tvd_rows_sse2(
                &batch.counts,
                &batch.totals,
                lanes,
                scale,
                ref_counts,
                ref_total,
                out,
            )
        },
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2 => unsafe {
            x86::tvd_rows_avx2(
                &batch.counts,
                &batch.totals,
                lanes,
                scale,
                ref_counts,
                ref_total,
                out,
            )
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::tvd_rows(
            &batch.counts,
            &batch.totals,
            lanes,
            scale,
            ref_counts,
            ref_total,
            out,
        ),
    }
}

/// Batch Jeffreys divergence (`KL(p‖q) + KL(q‖p)`, smoothed by `eps`) of
/// every lane against one reference distribution — the symmetrized form
/// behind the KL peculiarity measure, bit-identical per lane to
/// `kl_divergence(a, b, eps) + kl_divergence(b, a, eps)`. `out` is resized
/// to `lanes`.
///
/// # Panics
/// Panics if `ref_counts.len() != scale` or `eps <= 0`.
pub fn jeffreys_rows(
    path: KernelPath,
    batch: &BatchScratch,
    ref_counts: &[u64],
    ref_total: u64,
    eps: f64,
    out: &mut Vec<f64>,
) {
    check(path);
    assert_eq!(ref_counts.len(), batch.scale, "reference scale mismatch");
    assert!(eps > 0.0, "smoothing epsilon must be positive");
    let (lanes, scale) = (batch.lanes, batch.scale);
    out.clear();
    out.resize(lanes, 0.0);
    match path {
        KernelPath::Scalar => scalar::jeffreys_rows(
            &batch.counts,
            &batch.totals,
            lanes,
            scale,
            ref_counts,
            ref_total,
            eps,
            out,
        ),
        #[cfg(target_arch = "x86_64")]
        KernelPath::Sse2 => unsafe {
            x86::jeffreys_rows_sse2(
                &batch.counts,
                &batch.totals,
                lanes,
                scale,
                ref_counts,
                ref_total,
                eps,
                out,
            )
        },
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2 => unsafe {
            x86::jeffreys_rows_avx2(
                &batch.counts,
                &batch.totals,
                lanes,
                scale,
                ref_counts,
                ref_total,
                eps,
                out,
            )
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::jeffreys_rows(
            &batch.counts,
            &batch.totals,
            lanes,
            scale,
            ref_counts,
            ref_total,
            eps,
            out,
        ),
    }
}

/// Batch mean and population standard deviation per lane, bit-identical to
/// `RatingDistribution::{mean, std_dev}`. Empty lanes yield NaN in both
/// outputs (the scalar API's `None`); callers filter on
/// `batch.totals()`. Both outputs are resized to `lanes`.
pub fn mean_sd_rows(
    path: KernelPath,
    batch: &BatchScratch,
    out_mean: &mut Vec<f64>,
    out_sd: &mut Vec<f64>,
) {
    check(path);
    let (lanes, scale) = (batch.lanes, batch.scale);
    out_mean.clear();
    out_mean.resize(lanes, 0.0);
    out_sd.clear();
    out_sd.resize(lanes, 0.0);
    match path {
        KernelPath::Scalar => {
            scalar::mean_sd_rows(&batch.counts, &batch.totals, lanes, scale, out_mean, out_sd)
        }
        #[cfg(target_arch = "x86_64")]
        KernelPath::Sse2 => unsafe {
            x86::mean_sd_rows_sse2(&batch.counts, &batch.totals, lanes, scale, out_mean, out_sd)
        },
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2 => unsafe {
            x86::mean_sd_rows_avx2(&batch.counts, &batch.totals, lanes, scale, out_mean, out_sd)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::mean_sd_rows(&batch.counts, &batch.totals, lanes, scale, out_mean, out_sd),
    }
}

/// Batch normalized L1 distance of score-major `vals` (e.g. staged mixture
/// CDFs, `scale × lanes`) against one reference vector:
/// `out[i] = Σ_j |vals_ij − ref_j| / (m − 1)`, 0 when `m <= 1` — the
/// batched `emd_1d_normalized_from_cdfs`. `out` is resized to `lanes`.
///
/// # Panics
/// Panics if `vals.len() != scale * lanes` or `reference.len() != scale`.
pub fn l1_norm_rows(
    path: KernelPath,
    vals: &[f64],
    lanes: usize,
    scale: usize,
    reference: &[f64],
    out: &mut Vec<f64>,
) {
    check(path);
    assert_eq!(vals.len(), lanes * scale, "batch shape mismatch");
    assert_eq!(reference.len(), scale, "reference scale mismatch");
    out.clear();
    out.resize(lanes, 0.0);
    if scale <= 1 {
        return;
    }
    match path {
        KernelPath::Scalar => scalar::l1_norm_rows(vals, lanes, scale, reference, out),
        #[cfg(target_arch = "x86_64")]
        KernelPath::Sse2 => unsafe { x86::l1_norm_rows_sse2(vals, lanes, scale, reference, out) },
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2 => unsafe { x86::l1_norm_rows_avx2(vals, lanes, scale, reference, out) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::l1_norm_rows(vals, lanes, scale, reference, out),
    }
}

/// Ground-cost matrix between two signature CDF sets: `a` and `b` are
/// score-major (`scale × a_lanes` / `scale × b_lanes`) CDF batches, and
/// `out[i * b_lanes + j]` becomes the normalized 1-D EMD
/// `Σ_k |a_ki − b_kj| / (m − 1)` (0 when `m <= 1`) — bit-identical to
/// `emd_1d_normalized_from_cdfs` per cell. `out` is resized to
/// `a_lanes × b_lanes`.
///
/// # Panics
/// Panics if the batch shapes are inconsistent with `scale`.
pub fn cost_matrix(
    path: KernelPath,
    a: &[f64],
    a_lanes: usize,
    b: &[f64],
    b_lanes: usize,
    scale: usize,
    out: &mut Vec<f64>,
) {
    check(path);
    assert_eq!(a.len(), a_lanes * scale, "left batch shape mismatch");
    assert_eq!(b.len(), b_lanes * scale, "right batch shape mismatch");
    out.clear();
    out.resize(a_lanes * b_lanes, 0.0);
    if scale <= 1 {
        return;
    }
    match path {
        KernelPath::Scalar => scalar::cost_matrix(a, a_lanes, b, b_lanes, scale, out),
        #[cfg(target_arch = "x86_64")]
        KernelPath::Sse2 => unsafe { x86::cost_matrix_sse2(a, a_lanes, b, b_lanes, scale, out) },
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2 => unsafe { x86::cost_matrix_avx2(a, a_lanes, b, b_lanes, scale, out) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::cost_matrix(a, a_lanes, b, b_lanes, scale, out),
    }
}

/// Per-column minimum of a row-major `rows × cols` matrix, scanning rows
/// in ascending order from `f64::INFINITY` — the demand side of the
/// independent-minimization EMD lower bound. Exact under vectorization:
/// `min` on finite, non-negative costs is associative value- and
/// bit-wise. `out` is resized to `cols`.
///
/// # Panics
/// Panics if `mat.len() != rows * cols`.
pub fn col_mins(path: KernelPath, mat: &[f64], rows: usize, cols: usize, out: &mut Vec<f64>) {
    check(path);
    assert_eq!(mat.len(), rows * cols, "matrix shape mismatch");
    out.clear();
    out.resize(cols, f64::INFINITY);
    match path {
        KernelPath::Scalar => scalar::col_mins(mat, rows, cols, out),
        #[cfg(target_arch = "x86_64")]
        KernelPath::Sse2 => unsafe { x86::col_mins_sse2(mat, rows, cols, out) },
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2 => unsafe { x86::col_mins_avx2(mat, rows, cols, out) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::col_mins(mat, rows, cols, out),
    }
}

// --------------------------------------------------------------- set kernels
//
// Word-wise set algebra for the compressed posting index (`store::cindex`).
// Everything here is exact integer arithmetic, so byte-identity across
// paths holds by construction; the proptests still pin it.

/// Word-wise intersection `acc[i] &= other[i]` over the common prefix —
/// the bitmap∧bitmap step of container intersection and the bulk path
/// under `BitSet::intersect_with_ids`. Words of `acc` beyond
/// `other.len()` are untouched (callers align capacities; the compressed
/// index always intersects equal-domain bitmaps).
pub fn and_words(path: KernelPath, acc: &mut [u64], other: &[u64]) {
    check(path);
    match path {
        KernelPath::Scalar => scalar::and_words(acc, other),
        #[cfg(target_arch = "x86_64")]
        KernelPath::Sse2 => unsafe { x86::and_words_sse2(acc, other) },
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2 => unsafe { x86::and_words_avx2(acc, other) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::and_words(acc, other),
    }
}

/// Word-wise difference `acc[i] &= !other[i]` over the common prefix —
/// the complement step for future NOT-predicates and the run-container
/// subtraction primitive.
pub fn andnot_words(path: KernelPath, acc: &mut [u64], other: &[u64]) {
    check(path);
    match path {
        KernelPath::Scalar => scalar::andnot_words(acc, other),
        #[cfg(target_arch = "x86_64")]
        KernelPath::Sse2 => unsafe { x86::andnot_words_sse2(acc, other) },
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2 => unsafe { x86::andnot_words_avx2(acc, other) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::andnot_words(acc, other),
    }
}

/// Total population count of a word slice — the exact-cardinality read
/// the planner's cost rules run on. The SSE2 path shares the scalar
/// kernel: baseline x86-64 has neither `popcnt` nor the `pshufb` the
/// nibble-LUT method needs (SSSE3), and `count_ones` already compiles to
/// a fast bit-twiddling sequence. AVX2 uses the Muła nibble-LUT +
/// `sad_epu8` reduction, which is integer-exact.
pub fn popcount_words(path: KernelPath, words: &[u64]) -> u64 {
    check(path);
    match path {
        KernelPath::Scalar => scalar::popcount_words(words),
        #[cfg(target_arch = "x86_64")]
        KernelPath::Sse2 => scalar::popcount_words(words),
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2 => unsafe { x86::popcount_words_avx2(words) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::popcount_words(words),
    }
}

/// Retains the ids of sorted `ids` whose bit is set in `words`, appended
/// to `out` in ascending order — the array∩bitmap probe of container
/// intersection. All paths share the scalar kernel: the per-id word
/// lookup is data-dependent random access that a lane model doesn't
/// help with (the same access pattern that made the `vpgatherdd`
/// variant of `gather_u32` measure slower than scalar),
/// and the branchless compaction already keeps the pipeline full. The
/// `path` argument stays for API uniformity.
pub fn array_bitmap_probe(path: KernelPath, ids: &[u32], words: &[u64], out: &mut Vec<u32>) {
    check(path);
    scalar::array_bitmap_probe(ids, words, out)
}

/// Intersection of two sorted unique id lists, appended to `out` in
/// ascending order — the array∧array step of container intersection.
/// Gallops through the longer side when the lengths are skewed (>8×),
/// two-pointer merge otherwise. All paths share the scalar kernel: both
/// loop shapes are control-flow over compares, not element-wise
/// arithmetic, so there is nothing for a lane model to vectorize
/// without changing the comparison order.
pub fn intersect_sorted_u32(path: KernelPath, a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    check(path);
    scalar::intersect_sorted_u32(a, b, out)
}

/// Decodes the set bits of `words` into ascending ids appended to `out`
/// — the container→id decode into reusable scratch. All paths share the
/// scalar kernel: `trailing_zeros` + clear-lowest-bit consumes each word
/// in population-proportional time and compiles to `tzcnt`/`blsr` where
/// available; a vector expansion would emit per-bit variable-length
/// output, which lane models handle poorly.
pub fn decode_words(path: KernelPath, words: &[u64], out: &mut Vec<u32>) {
    check(path);
    scalar::decode_words(words, out)
}

/// Appends every position `i` (ascending) where `a_rows[i]` is present
/// in `a_words` (when `Some`) and `b_rows[i]` is present in `b_words`
/// (when `Some`) — the membership probe behind index-driven group
/// materialization (full rating-table scan) and multi-predicate column
/// derivation (parent-column scan). A `None` side always passes. All
/// paths share the scalar kernel: the two per-record word lookups are
/// data-dependent gathers (see `gather_u32`'s retired-SIMD note), and
/// the branchless compaction write is scalar either way.
pub fn filter_rows(
    path: KernelPath,
    a_rows: &[u32],
    b_rows: &[u32],
    a_words: Option<&[u64]>,
    b_words: Option<&[u64]>,
    out: &mut Vec<u32>,
) {
    check(path);
    assert_eq!(a_rows.len(), b_rows.len(), "row column length mismatch");
    scalar::filter_rows(a_rows, b_rows, a_words, b_words, out)
}

/// Gather `out[k] = src[idx[k]]` — the entity-row/record-id gather of the
/// scan layer. All paths share the scalar kernel: a `vpgatherdd` AVX2
/// variant *measured slower* than the scalar loop on both sorted
/// (scan-shaped) and random index streams (the gather's issue cost plus a
/// per-call bounds-validation scan lose to out-of-order scalar loads — see
/// `BENCH_kernels.json`), so it was retired; the `path` argument stays for
/// API uniformity. The output length and capacity are sized exactly to
/// `idx.len()` (cache byte budgets rely on unpadded capacities).
///
/// # Panics
/// Panics if any index is out of range.
pub fn gather_u32(path: KernelPath, src: &[u32], idx: &[u32], out: &mut Vec<u32>) {
    check(path);
    out.clear();
    out.reserve_exact(idx.len());
    out.resize(idx.len(), 0);
    scalar::gather_u32(src, idx, out)
}
