//! Byte-identity proptests for the batch-kernel layer.
//!
//! Two contracts are pinned here, both with `to_bits` equality (never an
//! epsilon):
//!
//! 1. **Path equivalence** — the AVX2 path, when the host supports it,
//!    produces bit-identical output to [`KernelPath::Scalar`], across batch
//!    shapes that exercise empty batches, single-lane batches, and
//!    non-multiple-of-width tails of the 4-lane vectors.
//! 2. **Legacy equivalence** — the scalar kernels produce bit-identical
//!    output to the pre-kernel per-distribution code (`cdf_into`,
//!    `total_variation`, `kl_divergence`, `mean`/`std_dev`,
//!    `emd_1d_normalized_from_cdfs`), so kernelized callers keep emitting
//!    the bytes they always emitted.

use proptest::prelude::*;
use proptest::strategy::Just;
use subdex_stats::distance::{emd_1d_normalized_from_cdfs, kl_divergence, total_variation};
use subdex_stats::kernels::{self, BatchScratch, KernelPath};
use subdex_stats::RatingDistribution;

/// Batch shapes covering the interesting sizes: zero lanes, tails shorter
/// than one vector, the exact AVX2 width, and one-lane tails after one,
/// two and four full vectors.
const LANE_SIZES: [usize; 8] = [0, 1, 2, 3, 4, 5, 9, 17];

fn batch(max_scale: usize) -> impl Strategy<Value = (usize, Vec<Vec<u64>>)> {
    (1usize..=max_scale, 0usize..LANE_SIZES.len()).prop_flat_map(|(scale, size_ix)| {
        let lanes = LANE_SIZES[size_ix];
        (
            Just(scale),
            prop::collection::vec(
                (prop::bool::ANY, prop::collection::vec(0u64..1000, scale)).prop_map(
                    |(empty, row)| {
                        if empty {
                            vec![0; row.len()]
                        } else {
                            row
                        }
                    },
                ),
                lanes,
            ),
        )
    })
}

fn reference(scale: usize) -> impl Strategy<Value = Vec<u64>> {
    (prop::bool::ANY, prop::collection::vec(0u64..1000, scale)).prop_map(|(empty, row)| {
        if empty {
            vec![0; row.len()]
        } else {
            row
        }
    })
}

fn stage(scale: usize, rows: &[Vec<u64>]) -> BatchScratch {
    let mut b = BatchScratch::new();
    b.stage(scale, rows.iter().map(|r| r.as_slice()));
    b
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every non-scalar path the host can run.
fn simd_paths() -> Vec<KernelPath> {
    KernelPath::available()
        .into_iter()
        .filter(|&p| p != KernelPath::Scalar)
        .collect()
}

proptest! {
    #[test]
    fn cdf_rows_paths_match_scalar((scale, rows) in batch(7)) {
        let b = stage(scale, &rows);
        let mut want = Vec::new();
        kernels::cdf_rows(KernelPath::Scalar, &b, &mut want);
        for path in simd_paths() {
            let mut got = Vec::new();
            kernels::cdf_rows(path, &b, &mut got);
            prop_assert_eq!(bits(&got), bits(&want), "path {}", path);
        }
    }

    #[test]
    fn tvd_rows_paths_match_scalar((scale, rows) in batch(7), seed in 0u64..1000) {
        let b = stage(scale, &rows);
        let rc: Vec<u64> = (0..scale as u64).map(|j| (seed + j * 37) % 97).collect();
        let rt: u64 = rc.iter().sum();
        let mut want = Vec::new();
        kernels::tvd_rows(KernelPath::Scalar, &b, &rc, rt, &mut want);
        for path in simd_paths() {
            let mut got = Vec::new();
            kernels::tvd_rows(path, &b, &rc, rt, &mut got);
            prop_assert_eq!(bits(&got), bits(&want), "path {}", path);
        }
    }

    #[test]
    fn jeffreys_rows_paths_match_scalar((scale, rows) in batch(7), refc in (1usize..=7).prop_flat_map(reference)) {
        // Regenerate the reference at the batch's scale.
        let rc: Vec<u64> = (0..scale).map(|j| refc.get(j).copied().unwrap_or(3)).collect();
        let rt: u64 = rc.iter().sum();
        let b = stage(scale, &rows);
        let mut want = Vec::new();
        kernels::jeffreys_rows(KernelPath::Scalar, &b, &rc, rt, 1e-4, &mut want);
        for path in simd_paths() {
            let mut got = Vec::new();
            kernels::jeffreys_rows(path, &b, &rc, rt, 1e-4, &mut got);
            prop_assert_eq!(bits(&got), bits(&want), "path {}", path);
        }
    }

    #[test]
    fn mean_sd_rows_paths_match_scalar((scale, rows) in batch(7)) {
        let b = stage(scale, &rows);
        let (mut wm, mut ws) = (Vec::new(), Vec::new());
        kernels::mean_sd_rows(KernelPath::Scalar, &b, &mut wm, &mut ws);
        for path in simd_paths() {
            let (mut gm, mut gs) = (Vec::new(), Vec::new());
            kernels::mean_sd_rows(path, &b, &mut gm, &mut gs);
            prop_assert_eq!(bits(&gm), bits(&wm), "mean, path {}", path);
            prop_assert_eq!(bits(&gs), bits(&ws), "sd, path {}", path);
        }
    }

    #[test]
    fn l1_and_cost_and_colmin_paths_match_scalar(
        (scale, rows_a) in batch(7),
        rows_b in prop::collection::vec(prop::collection::vec(0u64..1000, 7), 0usize..9),
    ) {
        // Stage both sides as CDF batches (realistic input for these kernels).
        let a = stage(scale, &rows_a);
        let rows_b: Vec<Vec<u64>> = rows_b.into_iter().map(|mut r| { r.truncate(scale); r }).collect();
        let b = stage(scale, &rows_b);
        let (mut ca, mut cb) = (Vec::new(), Vec::new());
        kernels::cdf_rows(KernelPath::Scalar, &a, &mut ca);
        kernels::cdf_rows(KernelPath::Scalar, &b, &mut cb);
        let reference: Vec<f64> = (0..scale).map(|j| (j as f64 + 1.0) / scale as f64).collect();

        let mut want_l1 = Vec::new();
        kernels::l1_norm_rows(KernelPath::Scalar, &ca, a.lanes(), scale, &reference, &mut want_l1);
        let mut want_cost = Vec::new();
        kernels::cost_matrix(KernelPath::Scalar, &ca, a.lanes(), &cb, b.lanes(), scale, &mut want_cost);
        let mut want_mins = Vec::new();
        kernels::col_mins(KernelPath::Scalar, &want_cost, a.lanes(), b.lanes(), &mut want_mins);

        for path in simd_paths() {
            let mut got = Vec::new();
            kernels::l1_norm_rows(path, &ca, a.lanes(), scale, &reference, &mut got);
            prop_assert_eq!(bits(&got), bits(&want_l1), "l1, path {}", path);
            let mut got_cost = Vec::new();
            kernels::cost_matrix(path, &ca, a.lanes(), &cb, b.lanes(), scale, &mut got_cost);
            prop_assert_eq!(bits(&got_cost), bits(&want_cost), "cost, path {}", path);
            let mut got_mins = Vec::new();
            kernels::col_mins(path, &want_cost, a.lanes(), b.lanes(), &mut got_mins);
            prop_assert_eq!(bits(&got_mins), bits(&want_mins), "mins, path {}", path);
        }
    }

    #[test]
    fn gather_is_exact_with_exact_capacity(idx in prop::collection::vec(0u32..64, 0usize..41)) {
        let src: Vec<u32> = (0..64u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        let mut got = Vec::new();
        kernels::gather_u32(&src, &idx, &mut got);
        let want: Vec<u32> = idx.iter().map(|&i| src[i as usize]).collect();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(got.capacity(), idx.len(), "gather capacity");
    }

    #[test]
    fn word_kernels_paths_match_scalar(
        acc in prop::collection::vec(0u64..u64::MAX, 0usize..18),
        other in prop::collection::vec(0u64..u64::MAX, 0usize..18),
    ) {
        let mut want = acc.clone();
        kernels::and_words(KernelPath::Scalar, &mut want, &other);
        let want_pop = kernels::popcount_words(KernelPath::Scalar, &acc);
        prop_assert_eq!(want_pop, acc.iter().map(|w| u64::from(w.count_ones())).sum::<u64>());
        for path in simd_paths() {
            let mut got = acc.clone();
            kernels::and_words(path, &mut got, &other);
            prop_assert_eq!(&got, &want, "and_words, path {}", path);
            prop_assert_eq!(kernels::popcount_words(path, &acc), want_pop, "popcount, path {}", path);
        }
    }

    // ------------------------------------------------------------------
    // Scalar kernels vs the pre-kernel per-distribution code.
    // ------------------------------------------------------------------

    #[test]
    fn scalar_kernels_match_legacy_distribution_code((scale, rows) in batch(7), refc in (1usize..=7).prop_flat_map(reference)) {
        let rc: Vec<u64> = (0..scale).map(|j| refc.get(j).copied().unwrap_or(3)).collect();
        let rt: u64 = rc.iter().sum();
        let refd = RatingDistribution::from_counts(rc.clone());
        let b = stage(scale, &rows);

        let (mut cdfs, mut tvd, mut jef, mut mean, mut sd) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        kernels::cdf_rows(KernelPath::Scalar, &b, &mut cdfs);
        kernels::tvd_rows(KernelPath::Scalar, &b, &rc, rt, &mut tvd);
        kernels::jeffreys_rows(KernelPath::Scalar, &b, &rc, rt, 1e-4, &mut jef);
        kernels::mean_sd_rows(KernelPath::Scalar, &b, &mut mean, &mut sd);

        let mut legacy_cdf = Vec::new();
        let mut ref_cdf = Vec::new();
        refd.cdf_into(&mut ref_cdf);
        for (i, row) in rows.iter().enumerate() {
            let d = RatingDistribution::from_counts(row.clone());
            d.cdf_into(&mut legacy_cdf);
            for (j, &c) in legacy_cdf.iter().enumerate() {
                prop_assert_eq!(cdfs[j * b.lanes() + i].to_bits(), c.to_bits(), "cdf lane {}", i);
            }
            prop_assert_eq!(tvd[i].to_bits(), total_variation(&d, &refd).to_bits(), "tvd lane {}", i);
            let legacy_j = kl_divergence(&d, &refd, 1e-4) + kl_divergence(&refd, &d, 1e-4);
            prop_assert_eq!(jef[i].to_bits(), legacy_j.to_bits(), "jeffreys lane {}", i);
            match (d.mean(), d.std_dev()) {
                (Some(m), Some(s)) => {
                    prop_assert_eq!(mean[i].to_bits(), m.to_bits(), "mean lane {}", i);
                    prop_assert_eq!(sd[i].to_bits(), s.to_bits(), "sd lane {}", i);
                }
                _ => {
                    prop_assert!(mean[i].is_nan(), "empty lane {} mean should be NaN", i);
                    prop_assert!(sd[i].is_nan(), "empty lane {} sd should be NaN", i);
                }
            }
            // The batched L1/cost kernels must agree with the legacy
            // normalized-EMD-from-CDFs on every lane pair.
            let mut l1 = Vec::new();
            kernels::l1_norm_rows(KernelPath::Scalar, &cdfs, b.lanes(), scale, &ref_cdf, &mut l1);
            prop_assert_eq!(
                l1[i].to_bits(),
                emd_1d_normalized_from_cdfs(&legacy_cdf, &ref_cdf).to_bits(),
                "l1 lane {}", i
            );
        }
    }
}

/// Forced-unavailable paths must panic, not execute illegal instructions.
#[test]
fn unavailable_path_is_rejected() {
    let path = KernelPath::Avx2;
    if !path.is_available() {
        let result = std::panic::catch_unwind(|| {
            let mut b = BatchScratch::new();
            b.begin(1, 5);
            let mut out = Vec::new();
            kernels::cdf_rows(path, &b, &mut out);
        });
        assert!(result.is_err());
    }
}

#[test]
fn env_override_parsing() {
    assert_eq!(KernelPath::parse("scalar"), Some(KernelPath::Scalar));
    assert_eq!(KernelPath::parse(" AVX2 "), Some(KernelPath::Avx2));
    assert_eq!(KernelPath::parse("sse2"), None, "the retired SSE2 tier");
    assert_eq!(KernelPath::parse("neon"), None);
    assert!(KernelPath::available().contains(&KernelPath::Scalar));
}
