//! Portable scalar reference implementations of the batch kernels.
//!
//! These are the semantics every SIMD path must reproduce bit-for-bit.
//! Each kernel is written as a per-lane helper (reused by the SIMD paths
//! for non-multiple-of-width tails) plus a batch loop. The per-lane
//! arithmetic mirrors the pre-kernel scalar code expression-for-expression
//! — `prob` streaming, left-associated products, ascending-`j` sums — so
//! kernelized callers keep producing the bytes they always produced.

// Index-based loops are deliberate throughout: they mirror the SIMD
// paths' lane/score indexing one-for-one, which is what makes the
// byte-identity review tractable.
#![allow(clippy::needless_range_loop)]

/// Probability of one score bucket (empty ⇒ uniform `1/m`), matching
/// `distance::prob`.
#[inline]
pub(crate) fn prob(count: u64, total: u64, m: f64) -> f64 {
    if total == 0 {
        1.0 / m
    } else {
        count as f64 / total as f64
    }
}

/// CDF prefix of one lane, written in place — mirrors
/// `RatingDistribution::cdf_into`.
#[inline]
pub(crate) fn cdf_lane(
    counts: &[u64],
    totals: &[u64],
    lanes: usize,
    scale: usize,
    i: usize,
    out: &mut [f64],
) {
    let total = totals[i];
    let mut acc = 0.0;
    if total == 0 {
        let u = 1.0 / scale as f64;
        for j in 0..scale {
            acc += u;
            out[j * lanes + i] = acc;
        }
    } else {
        let inv = total as f64;
        for j in 0..scale {
            acc += counts[j * lanes + i] as f64 / inv;
            out[j * lanes + i] = acc;
        }
    }
}

pub(crate) fn cdf_rows(
    counts: &[u64],
    totals: &[u64],
    lanes: usize,
    scale: usize,
    out: &mut [f64],
) {
    for i in 0..lanes {
        cdf_lane(counts, totals, lanes, scale, i, out);
    }
}

/// Total-variation distance of one lane against the reference — mirrors
/// `distance::total_variation`'s streaming loop.
#[inline]
pub(crate) fn tvd_lane(
    counts: &[u64],
    totals: &[u64],
    lanes: usize,
    scale: usize,
    ref_counts: &[u64],
    ref_total: u64,
    i: usize,
) -> f64 {
    let m = scale as f64;
    let t = totals[i];
    let mut sum = 0.0;
    for j in 0..scale {
        let p = prob(counts[j * lanes + i], t, m);
        let q = prob(ref_counts[j], ref_total, m);
        sum += (p - q).abs();
    }
    0.5 * sum
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn tvd_rows(
    counts: &[u64],
    totals: &[u64],
    lanes: usize,
    scale: usize,
    ref_counts: &[u64],
    ref_total: u64,
    out: &mut [f64],
) {
    for i in 0..lanes {
        out[i] = tvd_lane(counts, totals, lanes, scale, ref_counts, ref_total, i);
    }
}

/// Smoothed Jeffreys divergence of one lane against the reference —
/// the two directed KL sums of `distance::kl_divergence`, each
/// accumulated in `j` order, added once at the end.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn jeffreys_lane(
    counts: &[u64],
    totals: &[u64],
    lanes: usize,
    scale: usize,
    ref_counts: &[u64],
    ref_total: u64,
    eps: f64,
    i: usize,
) -> f64 {
    let m = scale as f64;
    let norm = 1.0 + m * eps;
    let t = totals[i];
    let mut ab = 0.0;
    let mut ba = 0.0;
    for j in 0..scale {
        let p = (prob(counts[j * lanes + i], t, m) + eps) / norm;
        let q = (prob(ref_counts[j], ref_total, m) + eps) / norm;
        ab += p * (p / q).ln();
        ba += q * (q / p).ln();
    }
    ab + ba
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn jeffreys_rows(
    counts: &[u64],
    totals: &[u64],
    lanes: usize,
    scale: usize,
    ref_counts: &[u64],
    ref_total: u64,
    eps: f64,
    out: &mut [f64],
) {
    for i in 0..lanes {
        out[i] = jeffreys_lane(counts, totals, lanes, scale, ref_counts, ref_total, eps, i);
    }
}

/// Mean and population SD of one lane — mirrors
/// `RatingDistribution::{mean, std_dev}`; empty lanes yield NaN.
#[inline]
pub(crate) fn mean_sd_lane(
    counts: &[u64],
    totals: &[u64],
    lanes: usize,
    scale: usize,
    i: usize,
) -> (f64, f64) {
    let total = totals[i] as f64;
    let mut sum = 0.0;
    for j in 0..scale {
        sum += (j as f64 + 1.0) * counts[j * lanes + i] as f64;
    }
    let mean = sum / total;
    let mut ss = 0.0;
    for j in 0..scale {
        let d = (j as f64 + 1.0) - mean;
        ss += d * d * counts[j * lanes + i] as f64;
    }
    (mean, (ss / total).sqrt())
}

pub(crate) fn mean_sd_rows(
    counts: &[u64],
    totals: &[u64],
    lanes: usize,
    scale: usize,
    out_mean: &mut [f64],
    out_sd: &mut [f64],
) {
    for i in 0..lanes {
        let (mean, sd) = mean_sd_lane(counts, totals, lanes, scale, i);
        out_mean[i] = mean;
        out_sd[i] = sd;
    }
}

/// Normalized L1 distance of one score-major lane against the reference —
/// mirrors `distance::emd_1d_normalized_from_cdfs` (callers handle the
/// `scale <= 1` short-circuit).
#[inline]
pub(crate) fn l1_norm_lane(
    vals: &[f64],
    lanes: usize,
    scale: usize,
    reference: &[f64],
    i: usize,
) -> f64 {
    let mut sum = 0.0;
    for j in 0..scale {
        sum += (vals[j * lanes + i] - reference[j]).abs();
    }
    sum / (scale as f64 - 1.0)
}

pub(crate) fn l1_norm_rows(
    vals: &[f64],
    lanes: usize,
    scale: usize,
    reference: &[f64],
    out: &mut [f64],
) {
    for i in 0..lanes {
        out[i] = l1_norm_lane(vals, lanes, scale, reference, i);
    }
}

/// One ground-cost cell between score-major CDF batches (callers handle
/// the `scale <= 1` short-circuit).
#[inline]
pub(crate) fn cost_cell(
    a: &[f64],
    a_lanes: usize,
    b: &[f64],
    b_lanes: usize,
    scale: usize,
    i: usize,
    j: usize,
) -> f64 {
    let mut sum = 0.0;
    for k in 0..scale {
        sum += (a[k * a_lanes + i] - b[k * b_lanes + j]).abs();
    }
    sum / (scale as f64 - 1.0)
}

pub(crate) fn cost_matrix(
    a: &[f64],
    a_lanes: usize,
    b: &[f64],
    b_lanes: usize,
    scale: usize,
    out: &mut [f64],
) {
    for i in 0..a_lanes {
        for j in 0..b_lanes {
            out[i * b_lanes + j] = cost_cell(a, a_lanes, b, b_lanes, scale, i, j);
        }
    }
}

/// Minimum of one column, rows ascending from `f64::INFINITY` — mirrors
/// the demand-side loop of the matrix lower bound.
#[inline]
pub(crate) fn col_min(mat: &[f64], rows: usize, cols: usize, j: usize) -> f64 {
    let mut min = f64::INFINITY;
    for i in 0..rows {
        min = min.min(mat[i * cols + j]);
    }
    min
}

pub(crate) fn col_mins(mat: &[f64], rows: usize, cols: usize, out: &mut [f64]) {
    for (j, slot) in out.iter_mut().enumerate().take(cols) {
        *slot = col_min(mat, rows, cols, j);
    }
}

pub(crate) fn gather_u32(src: &[u32], idx: &[u32], out: &mut [u32]) {
    for (slot, &i) in out.iter_mut().zip(idx) {
        *slot = src[i as usize];
    }
}

// --------------------------------------------------------------- set kernels
//
// Word-wise set algebra over `u64` bitmap words plus sorted-`u32` id lists —
// the compressed-posting-index primitives. All operations are exact integer
// arithmetic, so every SIMD path is bit-identical by construction.

pub(crate) fn and_words(acc: &mut [u64], other: &[u64]) {
    for (a, &b) in acc.iter_mut().zip(other) {
        *a &= b;
    }
}

pub(crate) fn popcount_words(words: &[u64]) -> u64 {
    let mut n = 0u64;
    for &w in words {
        n += u64::from(w.count_ones());
    }
    n
}

/// Whether bit `id` is set in `words` (absent when past the end).
#[inline]
pub(crate) fn word_bit(words: &[u64], id: u32) -> bool {
    let w = id as usize >> 6;
    w < words.len() && (words[w] >> (id & 63)) & 1 == 1
}

/// Retains the ids of sorted list `ids` whose bit is set in `words`,
/// appending to `out`. Branchless compaction: every id is written at the
/// output cursor unconditionally and the cursor advances only on a match,
/// so near-50% selectivity does not stall on branch mispredictions.
pub(crate) fn array_bitmap_probe(ids: &[u32], words: &[u64], out: &mut Vec<u32>) {
    let start = out.len();
    out.resize(start + ids.len(), 0);
    let dst = &mut out[start..];
    let mut n = 0usize;
    for &id in ids {
        dst[n] = id;
        n += usize::from(word_bit(words, id));
    }
    out.truncate(start + n);
}

/// Intersection of two sorted unique `u32` lists, appended to `out` in
/// ascending order. Gallops through the longer list when the lengths are
/// skewed (binary-search doubling probes), two-pointer merge otherwise.
pub(crate) fn intersect_sorted_u32(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return;
    }
    if large.len() / 8 > small.len() {
        // Galloping: for each id of the small list, advance a lower bound
        // into the large list by exponential probing + binary search.
        let mut lo = 0usize;
        for &id in small {
            let mut step = 1usize;
            let mut hi = lo;
            while hi < large.len() && large[hi] < id {
                lo = hi;
                hi += step;
                step <<= 1;
            }
            let hi = hi.min(large.len());
            lo += large[lo..hi].partition_point(|&x| x < id);
            if lo < large.len() && large[lo] == id {
                out.push(id);
                lo += 1;
            }
        }
    } else {
        let mut i = 0usize;
        let mut j = 0usize;
        while i < small.len() && j < large.len() {
            let (x, y) = (small[i], large[j]);
            if x == y {
                out.push(x);
                i += 1;
                j += 1;
            } else if x < y {
                i += 1;
            } else {
                j += 1;
            }
        }
    }
}

/// Decodes the set bits of `words` into ascending ids appended to `out` —
/// the container→id decode. `trailing_zeros` word iteration: each word is
/// consumed by clearing its lowest set bit, so cost is proportional to the
/// population, not the domain.
pub(crate) fn decode_words(words: &[u64], out: &mut Vec<u32>) {
    for (wi, &word) in words.iter().enumerate() {
        let mut w = word;
        let base = (wi * 64) as u32;
        while w != 0 {
            out.push(base + w.trailing_zeros());
            w &= w - 1;
        }
    }
}

/// Appends every position `i` where `a_rows[i]` passes `a_words` (when
/// present) and `b_rows[i]` passes `b_words` (when present) — the
/// full-scan membership probe behind index-driven group materialization
/// and multi-predicate column derivation. Positions come out ascending.
/// Branchless compaction, one loop shape per side-combination so the
/// absent-side test is hoisted out of the record loop.
pub(crate) fn filter_rows(
    a_rows: &[u32],
    b_rows: &[u32],
    a_words: Option<&[u64]>,
    b_words: Option<&[u64]>,
    out: &mut Vec<u32>,
) {
    let start = out.len();
    let n_in = a_rows.len();
    out.resize(start + n_in, 0);
    let dst = &mut out[start..];
    let mut n = 0usize;
    match (a_words, b_words) {
        (Some(aw), Some(bw)) => {
            for i in 0..n_in {
                dst[n] = i as u32;
                n += usize::from(word_bit(aw, a_rows[i]) & word_bit(bw, b_rows[i]));
            }
        }
        (Some(aw), None) => {
            for (i, &row) in a_rows.iter().enumerate() {
                dst[n] = i as u32;
                n += usize::from(word_bit(aw, row));
            }
        }
        (None, Some(bw)) => {
            for (i, &row) in b_rows.iter().enumerate() {
                dst[n] = i as u32;
                n += usize::from(word_bit(bw, row));
            }
        }
        (None, None) => {
            for (i, slot) in dst.iter_mut().enumerate() {
                *slot = i as u32;
            }
            n = n_in;
        }
    }
    out.truncate(start + n);
}
