//! x86_64 AVX2 implementations of the batch kernels, and the
//! carry-less-multiply CRC-32 fold.
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
//! * Tails shorter than the vector width fall through to the scalar
//!   per-lane helpers.
//!
//! Safety: every function here requires an AVX2 host (the CRC-32 fold:
//! PCLMULQDQ and SSE4.1, which the AVX2 path includes), which the
//! dispatchers in `kernels` check before calling in, and every unsafe
//! operation sits in an `unsafe` block that states why its pointer
//! arithmetic stays inside the slices it reads and writes.

#![deny(unsafe_op_in_unsafe_fn)]
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
///
/// # Safety
/// Every method may run only on a host with the instruction set the impl
/// targets (AVX2 for [`Avx2`]). `load` and `from_u64` need `p` valid for
/// `LANES` reads, `mask_zero_u64` likewise, and `store` needs `p` valid
/// for `LANES` writes.
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
        // SAFETY: AVX2 host (trait contract).
        unsafe { _mm256_set1_pd(x) }
    }
    #[inline(always)]
    unsafe fn zero() -> __m256d {
        // SAFETY: AVX2 host (trait contract).
        unsafe { _mm256_setzero_pd() }
    }
    #[inline(always)]
    unsafe fn load(p: *const f64) -> __m256d {
        // SAFETY: AVX2 host; `p` is valid for 4 reads (trait contract).
        unsafe { _mm256_loadu_pd(p) }
    }
    #[inline(always)]
    unsafe fn store(p: *mut f64, v: __m256d) {
        // SAFETY: AVX2 host; `p` is valid for 4 writes (trait contract).
        unsafe { _mm256_storeu_pd(p, v) }
    }
    #[inline(always)]
    unsafe fn add(a: __m256d, b: __m256d) -> __m256d {
        // SAFETY: AVX2 host (trait contract).
        unsafe { _mm256_add_pd(a, b) }
    }
    #[inline(always)]
    unsafe fn sub(a: __m256d, b: __m256d) -> __m256d {
        // SAFETY: AVX2 host (trait contract).
        unsafe { _mm256_sub_pd(a, b) }
    }
    #[inline(always)]
    unsafe fn mul(a: __m256d, b: __m256d) -> __m256d {
        // SAFETY: AVX2 host (trait contract).
        unsafe { _mm256_mul_pd(a, b) }
    }
    #[inline(always)]
    unsafe fn div(a: __m256d, b: __m256d) -> __m256d {
        // SAFETY: AVX2 host (trait contract).
        unsafe { _mm256_div_pd(a, b) }
    }
    #[inline(always)]
    unsafe fn min(a: __m256d, b: __m256d) -> __m256d {
        // SAFETY: AVX2 host (trait contract).
        unsafe { _mm256_min_pd(a, b) }
    }
    #[inline(always)]
    unsafe fn abs(a: __m256d) -> __m256d {
        // SAFETY: AVX2 host (trait contract).
        unsafe { _mm256_and_pd(a, _mm256_set1_pd(f64::from_bits(ABS_MASK))) }
    }
    #[inline(always)]
    unsafe fn sqrt(a: __m256d) -> __m256d {
        // SAFETY: AVX2 host (trait contract).
        unsafe { _mm256_sqrt_pd(a) }
    }
    #[inline(always)]
    unsafe fn from_u64(p: *const u64) -> __m256d {
        // SAFETY: AVX2 host; `p` is valid for 4 reads (trait contract), so
        // `p.add(0..=3)` stay in bounds.
        unsafe {
            _mm256_set_pd(
                *p.add(3) as f64,
                *p.add(2) as f64,
                *p.add(1) as f64,
                *p as f64,
            )
        }
    }
    #[inline(always)]
    unsafe fn mask_zero_u64(p: *const u64) -> __m256d {
        // SAFETY: AVX2 host; `p` is valid for 4 reads (trait contract), and
        // the closure reads `p.add(k)` for `k` in `0..=3` only.
        unsafe {
            let m = |k: usize| if *p.add(k) == 0 { ALL_ONES } else { 0 } as i64;
            _mm256_castsi256_pd(_mm256_set_epi64x(m(3), m(2), m(1), m(0)))
        }
    }
    #[inline(always)]
    unsafe fn select(mask: __m256d, a: __m256d, b: __m256d) -> __m256d {
        // SAFETY: AVX2 host (trait contract).
        unsafe { _mm256_blendv_pd(b, a, mask) }
    }
}

/// # Safety
/// The host supports `S`'s instruction set, `counts` and `out` hold
/// `scale * lanes` values and `totals` holds `lanes`.
#[inline(always)]
unsafe fn cdf_rows_v<S: Simd>(
    counts: &[u64],
    totals: &[u64],
    lanes: usize,
    scale: usize,
    out: &mut [f64],
) {
    let mut i = 0;
    // SAFETY: AVX2 host (caller's contract). `counts` and `out` hold
    // `scale * lanes` values and `totals` holds `lanes`; with
    // `i + LANES <= lanes` and `j < scale`, every 4-wide access at `i` or
    // `j * lanes + i` stays inside its slice.
    unsafe {
        let uv = S::splat(1.0 / scale as f64);
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
    }
    for t in i..lanes {
        scalar::cdf_lane(counts, totals, lanes, scale, t, out);
    }
}

/// # Safety
/// The host supports `S`'s instruction set, `counts` holds `scale * lanes`
/// values, `totals` and `out` hold `lanes`.
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
    let mut i = 0;
    // SAFETY: AVX2 host (caller's contract). `counts` holds
    // `scale * lanes` values, `totals` and `out` hold `lanes`; with
    // `i + LANES <= lanes` and `j < scale`, every 4-wide access at `i` or
    // `j * lanes + i` stays inside its slice.
    unsafe {
        let uv = S::splat(1.0 / m);
        let half = S::splat(0.5);
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
    }
    for t in i..lanes {
        out[t] = scalar::tvd_lane(counts, totals, lanes, scale, ref_counts, ref_total, t);
    }
}

/// # Safety
/// The host supports `S`'s instruction set, `counts` holds `scale * lanes`
/// values, `totals`, `out_mean` and `out_sd` hold `lanes`.
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
    // SAFETY: AVX2 host (caller's contract). `counts` holds
    // `scale * lanes` values, `totals`, `out_mean` and `out_sd` hold
    // `lanes`; with `i + LANES <= lanes` and `j < scale`, every 4-wide
    // access at `i` or `j * lanes + i` stays inside its slice.
    unsafe {
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
    }
    for t in i..lanes {
        let (mean, sd) = scalar::mean_sd_lane(counts, totals, lanes, scale, t);
        out_mean[t] = mean;
        out_sd[t] = sd;
    }
}

/// # Safety
/// The host supports `S`'s instruction set, `vals` holds `scale * lanes`
/// values and `out` holds `lanes`.
#[inline(always)]
unsafe fn l1_norm_rows_v<S: Simd>(
    vals: &[f64],
    lanes: usize,
    scale: usize,
    reference: &[f64],
    out: &mut [f64],
) {
    let mut i = 0;
    // SAFETY: AVX2 host (caller's contract). `vals` holds `scale * lanes`
    // values and `out` holds `lanes`; with `i + LANES <= lanes` and
    // `j < scale`, every 4-wide access at `i` or `j * lanes + i` stays
    // inside its slice.
    unsafe {
        let invd = S::splat(scale as f64 - 1.0);
        while i + S::LANES <= lanes {
            let mut acc = S::zero();
            for j in 0..scale {
                let v = S::load(vals.as_ptr().add(j * lanes + i));
                acc = S::add(acc, S::abs(S::sub(v, S::splat(reference[j]))));
            }
            S::store(out.as_mut_ptr().add(i), S::div(acc, invd));
            i += S::LANES;
        }
    }
    for t in i..lanes {
        out[t] = scalar::l1_norm_lane(vals, lanes, scale, reference, t);
    }
}

/// # Safety
/// The host supports `S`'s instruction set, `b` holds `scale * b_lanes`
/// values and `out` holds `a_lanes * b_lanes`.
#[inline(always)]
unsafe fn cost_matrix_v<S: Simd>(
    a: &[f64],
    a_lanes: usize,
    b: &[f64],
    b_lanes: usize,
    scale: usize,
    out: &mut [f64],
) {
    // SAFETY: AVX2 host (caller's contract). `b` holds `scale * b_lanes`
    // values and `out` holds `a_lanes * b_lanes`; with
    // `j + LANES <= b_lanes`, `i < a_lanes` and `k < scale`, every 4-wide
    // access at `k * b_lanes + j` or `i * b_lanes + j` stays inside its
    // slice.
    unsafe {
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
}

/// # Safety
/// The host supports `S`'s instruction set, `mat` holds `rows * cols`
/// values and `out` holds `cols`.
#[inline(always)]
unsafe fn col_mins_v<S: Simd>(mat: &[f64], rows: usize, cols: usize, out: &mut [f64]) {
    let mut j = 0;
    // SAFETY: AVX2 host (caller's contract). `mat` holds `rows * cols`
    // values and `out` holds `cols`; with `j + LANES <= cols` and
    // `i < rows`, every 4-wide access at `j` or `i * cols + j` stays
    // inside its slice.
    unsafe {
        while j + S::LANES <= cols {
            let mut acc = S::splat(f64::INFINITY);
            for i in 0..rows {
                acc = S::min(acc, S::load(mat.as_ptr().add(i * cols + j)));
            }
            S::store(out.as_mut_ptr().add(j), acc);
            j += S::LANES;
        }
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

/// Word-wise `acc[i] &= other[i]` over the common prefix.
///
/// # Safety
/// The host supports AVX2.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn and_words_avx2(acc: &mut [u64], other: &[u64]) {
    let n = acc.len().min(other.len());
    let mut i = 0;
    // SAFETY: AVX2 host (caller's contract); `i + 4 <= n` keeps each
    // 4-word load and store inside both slices.
    unsafe {
        while i + 4 <= n {
            let a = _mm256_loadu_si256(acc.as_ptr().add(i).cast());
            let b = _mm256_loadu_si256(other.as_ptr().add(i).cast());
            _mm256_storeu_si256(acc.as_mut_ptr().add(i).cast(), _mm256_and_si256(a, b));
            i += 4;
        }
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
///
/// # Safety
/// The host supports AVX2.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn popcount_words_avx2(words: &[u64]) -> u64 {
    let mut i = 0;
    // SAFETY: AVX2 host (caller's contract); `i + 4 <= words.len()` keeps
    // each 4-word load inside `words`, and the store fills the 4-word
    // `lanes` array.
    let mut n = unsafe {
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, //
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let mut acc = _mm256_setzero_si256();
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
        lanes[0] + lanes[1] + lanes[2] + lanes[3]
    };
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
            /// # Safety
            /// The host supports AVX2, and the slices meet the length
            /// contract of the generic body.
            #[target_feature(enable = "avx2")]
            pub(crate) unsafe fn $avx2($($arg: $ty),*) {
                // SAFETY: the caller checked for AVX2 and passes slices of
                // the lengths the body documents (the `kernels`
                // dispatchers size and assert them).
                unsafe { $body::<Avx2>($($arg),*) }
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

// ------------------------------------------------------------------- crc-32
//
// Folding CRC-32 after Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in the
// bit-reflected domain of the IEEE polynomial, as zlib's `crc32_simd` does
// it. Four 128-bit accumulators each fold forward over 64 bytes per step (a
// carry-less multiply of each 64-bit half by `x^(512±32) mod P`), the four
// fold into one, leftover 16-byte blocks fold in over 128 bits, and a
// Barrett reduction takes the 128-bit remainder to 32 bits. GF(2)
// arithmetic is exact, so the register equals the table reference's.

/// Reflected fold constants (33 bits each): `K1`/`K2` fold across 512 bits,
/// `K3`/`K4` across 128, `K5` takes 96 bits to 64.
const CRC_K1: i64 = 0x1_5444_2bd4;
const CRC_K2: i64 = 0x1_c6e4_1596;
const CRC_K3: i64 = 0x1_7519_97d0;
const CRC_K4: i64 = 0x0_ccaa_009e;
const CRC_K5: i64 = 0x1_63cd_6124;
/// The reflected polynomial `P'` and its Barrett constant `µ' = x^64 / P`.
const CRC_P: i64 = 0x1_db71_0641;
const CRC_MU: i64 = 0x1_f701_1641;

/// `x.lo·k.lo ⊕ x.hi·k.hi ⊕ data` — accumulator `x` carried forward over
/// the distance `k` encodes, plus the block found there.
///
/// # Safety
/// The host supports PCLMULQDQ.
#[inline(always)]
unsafe fn crc_fold_16(x: __m128i, k: __m128i, data: __m128i) -> __m128i {
    // SAFETY: PCLMULQDQ host (caller's contract); no memory is touched.
    unsafe {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), data)
    }
}

/// Advances the raw CRC-32 register `state` over `body` by carry-less
/// multiplication (no pre- or post-inversion, like
/// `scalar::crc32_update`).
///
/// # Safety
/// The host supports PCLMULQDQ and SSE4.1.
///
/// # Panics
/// Panics unless `body` is at least four whole 16-byte blocks.
#[target_feature(enable = "pclmulqdq,sse4.1")]
pub(crate) unsafe fn crc32_fold(state: u32, body: &[u8]) -> u32 {
    assert!(
        body.len() >= 64 && body.len().is_multiple_of(16),
        "crc32_fold needs at least four whole 16-byte blocks"
    );
    let mut blocks = body.chunks_exact(16);
    // SAFETY: PCLMULQDQ and SSE4.1 host (caller's contract). Every load
    // reads one 16-byte block of `chunks_exact(16)`, unaligned, and the
    // assert above guarantees the first four exist.
    unsafe {
        let mut next = || {
            let block = blocks.next().expect("fold steps never outrun the blocks");
            _mm_loadu_si128(block.as_ptr().cast())
        };
        let mut x = [next(), next(), next(), next()];
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));
        let k1k2 = _mm_set_epi64x(CRC_K2, CRC_K1);
        let mut left = body.len() / 16 - 4;
        while left >= 4 {
            for acc in &mut x {
                *acc = crc_fold_16(*acc, k1k2, next());
            }
            left -= 4;
        }

        let k3k4 = _mm_set_epi64x(CRC_K4, CRC_K3);
        let mut acc = crc_fold_16(x[0], k3k4, x[1]);
        acc = crc_fold_16(acc, k3k4, x[2]);
        acc = crc_fold_16(acc, k3k4, x[3]);
        for _ in 0..left {
            acc = crc_fold_16(acc, k3k4, next());
        }

        // 128 → 64 bits: fold the low half over 64 bits, then the low 32
        // bits of the result over 32.
        let low32 = _mm_setr_epi32(-1, 0, -1, 0);
        let mut r = _mm_xor_si128(
            _mm_srli_si128::<8>(acc),
            _mm_clmulepi64_si128::<0x10>(acc, k3k4),
        );
        let k5 = _mm_set_epi64x(0, CRC_K5);
        r = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(r, low32), k5),
            _mm_srli_si128::<4>(r),
        );

        // Barrett reduction of the 64-bit remainder by µ' and P' (two
        // multiplies of its reflected low word); the CRC lands in bits
        // 32..64.
        let poly = _mm_set_epi64x(CRC_MU, CRC_P);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(r, low32), poly);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), poly);
        _mm_extract_epi32::<1>(_mm_xor_si128(r, t2)) as u32
    }
}
