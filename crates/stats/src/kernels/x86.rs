//! x86_64 AVX2 implementations of the batch kernels.
//!
//! One generic body per kernel, written against the tiny [`Simd`]
//! abstraction below and instantiated at 4 lanes inside
//! `#[target_feature(enable = "avx2")]` shells. Bodies are
//! `#[inline(always)]` so they specialize into the shells and codegen
//! under the enabled feature set.
//!
//! Byte-identity notes (see the module docs in `kernels`):
//! * `u64 → f64` conversion happens lane-by-lane with Rust's `as f64`
//!   (correctly rounded, identical to the scalar reference) before the
//!   values are packed into a vector.
//! * Empty lanes (`total == 0`) are handled by building a per-lane bitmask
//!   from the totals and `select`ing the uniform-distribution constant
//!   over the (possibly NaN) division result — exactly the branch the
//!   scalar reference takes.
//! * `ln` is evaluated by extracting lanes and calling scalar `f64::ln`;
//!   the surrounding multiplies/adds stay vectorized.
//! * Tails shorter than the vector width fall through to the scalar
//!   per-lane helpers.

#![allow(unsafe_op_in_unsafe_fn)]
// Index-based loops mirror the lane/score indexing of the scalar
// reference one-for-one (what makes the byte-identity review tractable),
// and the widest kernel shells pass the full reference-distribution
// context through flat argument lists by design.
#![allow(clippy::needless_range_loop, clippy::too_many_arguments)]

use core::arch::x86_64::*;

use super::scalar;

/// Minimal f64 SIMD abstraction: just the correctly-rounded element-wise
/// ops the kernels need, no horizontal reductions (the byte-identity
/// contract forbids them).
pub(crate) trait Simd: Copy {
    const LANES: usize;
    type V: Copy;
    unsafe fn splat(x: f64) -> Self::V;
    unsafe fn zero() -> Self::V;
    unsafe fn load(p: *const f64) -> Self::V;
    unsafe fn store(p: *mut f64, v: Self::V);
    unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn sub(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn mul(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn div(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn min(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn abs(a: Self::V) -> Self::V;
    unsafe fn sqrt(a: Self::V) -> Self::V;
    /// Packs `LANES` consecutive `u64`s, each converted with scalar `as
    /// f64` (correctly rounded for the full `u64` range).
    unsafe fn from_u64(p: *const u64) -> Self::V;
    /// All-ones lane mask where the corresponding `u64` is zero.
    unsafe fn mask_zero_u64(p: *const u64) -> Self::V;
    /// `mask ? a : b` per lane.
    unsafe fn select(mask: Self::V, a: Self::V, b: Self::V) -> Self::V;
    /// Scalar `f64::ln` applied to every lane.
    unsafe fn ln_lanes(v: Self::V) -> Self::V;
}

const ABS_MASK: u64 = 0x7fff_ffff_ffff_ffff;
const ALL_ONES: u64 = u64::MAX;

#[derive(Clone, Copy)]
pub(crate) struct Avx2;

impl Simd for Avx2 {
    const LANES: usize = 4;
    type V = __m256d;

    #[inline(always)]
    unsafe fn splat(x: f64) -> __m256d {
        _mm256_set1_pd(x)
    }
    #[inline(always)]
    unsafe fn zero() -> __m256d {
        _mm256_setzero_pd()
    }
    #[inline(always)]
    unsafe fn load(p: *const f64) -> __m256d {
        _mm256_loadu_pd(p)
    }
    #[inline(always)]
    unsafe fn store(p: *mut f64, v: __m256d) {
        _mm256_storeu_pd(p, v)
    }
    #[inline(always)]
    unsafe fn add(a: __m256d, b: __m256d) -> __m256d {
        _mm256_add_pd(a, b)
    }
    #[inline(always)]
    unsafe fn sub(a: __m256d, b: __m256d) -> __m256d {
        _mm256_sub_pd(a, b)
    }
    #[inline(always)]
    unsafe fn mul(a: __m256d, b: __m256d) -> __m256d {
        _mm256_mul_pd(a, b)
    }
    #[inline(always)]
    unsafe fn div(a: __m256d, b: __m256d) -> __m256d {
        _mm256_div_pd(a, b)
    }
    #[inline(always)]
    unsafe fn min(a: __m256d, b: __m256d) -> __m256d {
        _mm256_min_pd(a, b)
    }
    #[inline(always)]
    unsafe fn abs(a: __m256d) -> __m256d {
        _mm256_and_pd(a, _mm256_set1_pd(f64::from_bits(ABS_MASK)))
    }
    #[inline(always)]
    unsafe fn sqrt(a: __m256d) -> __m256d {
        _mm256_sqrt_pd(a)
    }
    #[inline(always)]
    unsafe fn from_u64(p: *const u64) -> __m256d {
        _mm256_set_pd(
            *p.add(3) as f64,
            *p.add(2) as f64,
            *p.add(1) as f64,
            *p as f64,
        )
    }
    #[inline(always)]
    unsafe fn mask_zero_u64(p: *const u64) -> __m256d {
        let m = |k: usize| if *p.add(k) == 0 { ALL_ONES } else { 0 } as i64;
        _mm256_castsi256_pd(_mm256_set_epi64x(m(3), m(2), m(1), m(0)))
    }
    #[inline(always)]
    unsafe fn select(mask: __m256d, a: __m256d, b: __m256d) -> __m256d {
        _mm256_blendv_pd(b, a, mask)
    }
    #[inline(always)]
    unsafe fn ln_lanes(v: __m256d) -> __m256d {
        let mut tmp = [0.0f64; 4];
        _mm256_storeu_pd(tmp.as_mut_ptr(), v);
        for t in &mut tmp {
            *t = t.ln();
        }
        _mm256_loadu_pd(tmp.as_ptr())
    }
}

#[inline(always)]
unsafe fn cdf_rows_v<S: Simd>(
    counts: &[u64],
    totals: &[u64],
    lanes: usize,
    scale: usize,
    out: &mut [f64],
) {
    let uv = S::splat(1.0 / scale as f64);
    let mut i = 0;
    while i + S::LANES <= lanes {
        let inv = S::from_u64(totals.as_ptr().add(i));
        let empty = S::mask_zero_u64(totals.as_ptr().add(i));
        let mut acc = S::zero();
        for j in 0..scale {
            let c = S::from_u64(counts.as_ptr().add(j * lanes + i));
            let step = S::select(empty, uv, S::div(c, inv));
            acc = S::add(acc, step);
            S::store(out.as_mut_ptr().add(j * lanes + i), acc);
        }
        i += S::LANES;
    }
    for t in i..lanes {
        scalar::cdf_lane(counts, totals, lanes, scale, t, out);
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn tvd_rows_v<S: Simd>(
    counts: &[u64],
    totals: &[u64],
    lanes: usize,
    scale: usize,
    ref_counts: &[u64],
    ref_total: u64,
    out: &mut [f64],
) {
    let m = scale as f64;
    let uv = S::splat(1.0 / m);
    let half = S::splat(0.5);
    let mut i = 0;
    while i + S::LANES <= lanes {
        let inv = S::from_u64(totals.as_ptr().add(i));
        let empty = S::mask_zero_u64(totals.as_ptr().add(i));
        let mut acc = S::zero();
        for j in 0..scale {
            let q = S::splat(scalar::prob(ref_counts[j], ref_total, m));
            let c = S::from_u64(counts.as_ptr().add(j * lanes + i));
            let p = S::select(empty, uv, S::div(c, inv));
            acc = S::add(acc, S::abs(S::sub(p, q)));
        }
        S::store(out.as_mut_ptr().add(i), S::mul(half, acc));
        i += S::LANES;
    }
    for t in i..lanes {
        out[t] = scalar::tvd_lane(counts, totals, lanes, scale, ref_counts, ref_total, t);
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn jeffreys_rows_v<S: Simd>(
    counts: &[u64],
    totals: &[u64],
    lanes: usize,
    scale: usize,
    ref_counts: &[u64],
    ref_total: u64,
    eps: f64,
    out: &mut [f64],
) {
    let m = scale as f64;
    let norm = 1.0 + m * eps;
    let uv = S::splat(1.0 / m);
    let epsv = S::splat(eps);
    let normv = S::splat(norm);
    let mut i = 0;
    while i + S::LANES <= lanes {
        let inv = S::from_u64(totals.as_ptr().add(i));
        let empty = S::mask_zero_u64(totals.as_ptr().add(i));
        let mut ab = S::zero();
        let mut ba = S::zero();
        for j in 0..scale {
            let q = (scalar::prob(ref_counts[j], ref_total, m) + eps) / norm;
            let qv = S::splat(q);
            let c = S::from_u64(counts.as_ptr().add(j * lanes + i));
            let p0 = S::select(empty, uv, S::div(c, inv));
            let p = S::div(S::add(p0, epsv), normv);
            ab = S::add(ab, S::mul(p, S::ln_lanes(S::div(p, qv))));
            ba = S::add(ba, S::mul(qv, S::ln_lanes(S::div(qv, p))));
        }
        S::store(out.as_mut_ptr().add(i), S::add(ab, ba));
        i += S::LANES;
    }
    for t in i..lanes {
        out[t] = scalar::jeffreys_lane(counts, totals, lanes, scale, ref_counts, ref_total, eps, t);
    }
}

#[inline(always)]
unsafe fn mean_sd_rows_v<S: Simd>(
    counts: &[u64],
    totals: &[u64],
    lanes: usize,
    scale: usize,
    out_mean: &mut [f64],
    out_sd: &mut [f64],
) {
    let mut i = 0;
    while i + S::LANES <= lanes {
        let total = S::from_u64(totals.as_ptr().add(i));
        let mut sum = S::zero();
        for j in 0..scale {
            let score = S::splat(j as f64 + 1.0);
            let c = S::from_u64(counts.as_ptr().add(j * lanes + i));
            sum = S::add(sum, S::mul(score, c));
        }
        let mean = S::div(sum, total);
        let mut ss = S::zero();
        for j in 0..scale {
            let d = S::sub(S::splat(j as f64 + 1.0), mean);
            let c = S::from_u64(counts.as_ptr().add(j * lanes + i));
            ss = S::add(ss, S::mul(S::mul(d, d), c));
        }
        S::store(out_mean.as_mut_ptr().add(i), mean);
        S::store(out_sd.as_mut_ptr().add(i), S::sqrt(S::div(ss, total)));
        i += S::LANES;
    }
    for t in i..lanes {
        let (mean, sd) = scalar::mean_sd_lane(counts, totals, lanes, scale, t);
        out_mean[t] = mean;
        out_sd[t] = sd;
    }
}

#[inline(always)]
unsafe fn l1_norm_rows_v<S: Simd>(
    vals: &[f64],
    lanes: usize,
    scale: usize,
    reference: &[f64],
    out: &mut [f64],
) {
    let invd = S::splat(scale as f64 - 1.0);
    let mut i = 0;
    while i + S::LANES <= lanes {
        let mut acc = S::zero();
        for j in 0..scale {
            let v = S::load(vals.as_ptr().add(j * lanes + i));
            acc = S::add(acc, S::abs(S::sub(v, S::splat(reference[j]))));
        }
        S::store(out.as_mut_ptr().add(i), S::div(acc, invd));
        i += S::LANES;
    }
    for t in i..lanes {
        out[t] = scalar::l1_norm_lane(vals, lanes, scale, reference, t);
    }
}

#[inline(always)]
unsafe fn cost_matrix_v<S: Simd>(
    a: &[f64],
    a_lanes: usize,
    b: &[f64],
    b_lanes: usize,
    scale: usize,
    out: &mut [f64],
) {
    let invd = S::splat(scale as f64 - 1.0);
    for i in 0..a_lanes {
        let mut j = 0;
        while j + S::LANES <= b_lanes {
            let mut acc = S::zero();
            for k in 0..scale {
                let av = S::splat(a[k * a_lanes + i]);
                let bv = S::load(b.as_ptr().add(k * b_lanes + j));
                acc = S::add(acc, S::abs(S::sub(av, bv)));
            }
            S::store(out.as_mut_ptr().add(i * b_lanes + j), S::div(acc, invd));
            j += S::LANES;
        }
        for t in j..b_lanes {
            out[i * b_lanes + t] = scalar::cost_cell(a, a_lanes, b, b_lanes, scale, i, t);
        }
    }
}

#[inline(always)]
unsafe fn col_mins_v<S: Simd>(mat: &[f64], rows: usize, cols: usize, out: &mut [f64]) {
    let mut j = 0;
    while j + S::LANES <= cols {
        let mut acc = S::splat(f64::INFINITY);
        for i in 0..rows {
            acc = S::min(acc, S::load(mat.as_ptr().add(i * cols + j)));
        }
        S::store(out.as_mut_ptr().add(j), acc);
        j += S::LANES;
    }
    for t in j..cols {
        out[t] = scalar::col_min(mat, rows, cols, t);
    }
}

// ------------------------------------------------------------- set kernels
//
// Integer word-wise set algebra for the compressed posting index. These
// are exact bitwise ops, so SIMD lanes are trivially byte-identical to
// the scalar reference — no rounding contract to uphold. The f64 `Simd`
// trait above does not apply; each kernel is a standalone
// `#[target_feature]` shell over integer intrinsics.

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn and_words_avx2(acc: &mut [u64], other: &[u64]) {
    let n = acc.len().min(other.len());
    let mut i = 0;
    while i + 4 <= n {
        let a = _mm256_loadu_si256(acc.as_ptr().add(i).cast());
        let b = _mm256_loadu_si256(other.as_ptr().add(i).cast());
        _mm256_storeu_si256(acc.as_mut_ptr().add(i).cast(), _mm256_and_si256(a, b));
        i += 4;
    }
    while i < n {
        acc[i] &= other[i];
        i += 1;
    }
}

/// AVX2 nibble-LUT popcount (Muła): split each byte into nibbles, look up
/// their population in a shuffled 16-entry table, and accumulate with
/// `sad_epu8` against zero. Integer-exact, so identical to the scalar
/// `count_ones` sum.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn popcount_words_avx2(words: &[u64]) -> u64 {
    let lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, //
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    let low_mask = _mm256_set1_epi8(0x0f);
    let mut acc = _mm256_setzero_si256();
    let mut i = 0;
    while i + 4 <= words.len() {
        let v = _mm256_loadu_si256(words.as_ptr().add(i).cast());
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi32::<4>(v), low_mask);
        let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        acc = _mm256_add_epi64(acc, _mm256_sad_epu8(cnt, _mm256_setzero_si256()));
        i += 4;
    }
    let mut lanes = [0u64; 4];
    _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc);
    let mut n = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    while i < words.len() {
        n += u64::from(words[i].count_ones());
        i += 1;
    }
    n
}

/// Generates the `#[target_feature(enable = "avx2")]` entry point of each
/// generic kernel body.
macro_rules! shells {
    ($($avx2:ident => $body:ident ( $($arg:ident : $ty:ty),* $(,)? );)*) => {
        $(
            #[target_feature(enable = "avx2")]
            pub(crate) unsafe fn $avx2($($arg: $ty),*) {
                $body::<Avx2>($($arg),*)
            }
        )*
    };
}

shells! {
    cdf_rows_avx2 => cdf_rows_v(
        counts: &[u64], totals: &[u64], lanes: usize, scale: usize, out: &mut [f64],
    );
    tvd_rows_avx2 => tvd_rows_v(
        counts: &[u64], totals: &[u64], lanes: usize, scale: usize,
        ref_counts: &[u64], ref_total: u64, out: &mut [f64],
    );
    jeffreys_rows_avx2 => jeffreys_rows_v(
        counts: &[u64], totals: &[u64], lanes: usize, scale: usize,
        ref_counts: &[u64], ref_total: u64, eps: f64, out: &mut [f64],
    );
    mean_sd_rows_avx2 => mean_sd_rows_v(
        counts: &[u64], totals: &[u64], lanes: usize, scale: usize,
        out_mean: &mut [f64], out_sd: &mut [f64],
    );
    l1_norm_rows_avx2 => l1_norm_rows_v(
        vals: &[f64], lanes: usize, scale: usize, reference: &[f64], out: &mut [f64],
    );
    cost_matrix_avx2 => cost_matrix_v(
        a: &[f64], a_lanes: usize, b: &[f64], b_lanes: usize, scale: usize, out: &mut [f64],
    );
    col_mins_avx2 => col_mins_v(
        mat: &[f64], rows: usize, cols: usize, out: &mut [f64],
    );
}
