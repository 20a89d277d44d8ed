//! Distances between rating distributions.
//!
//! The paper uses the *Total Variation Distance* for the two peculiarity
//! criteria (Section 4.1) and the *Earth Mover's Distance* for rating-map
//! diversity (Section 3.2.4).

use crate::distribution::RatingDistribution;
use crate::kernels::{self, BatchScratch};

/// Probability of one score bucket given the distribution's total, matching
/// [`RatingDistribution::probabilities`] bucket-for-bucket (empty ⇒ the
/// uniform `1/m`) without materializing the probability vector, so the hot
/// re-estimation paths do not allocate per call.
#[inline]
fn prob(count: u64, total: u64, m: f64) -> f64 {
    if total == 0 {
        1.0 / m
    } else {
        count as f64 / total as f64
    }
}

/// Total variation distance between two distributions over the same scale:
/// `TVD(p, q) = ½ · Σ |p_j − q_j|`, in `[0, 1]`.
///
/// # Panics
/// Panics if the scales differ.
pub fn total_variation(a: &RatingDistribution, b: &RatingDistribution) -> f64 {
    assert_eq!(a.scale(), b.scale(), "distributions must share a scale");
    let m = a.scale() as f64;
    let (ta, tb) = (a.total(), b.total());
    0.5 * a
        .counts()
        .iter()
        .zip(b.counts())
        .map(|(&x, &y)| (prob(x, ta, m) - prob(y, tb, m)).abs())
        .sum::<f64>()
}

/// Batched [`total_variation`]: every staged lane against one reference
/// distribution, dispatched through the process-wide
/// [`kernels::active`] SIMD path. `out[i]` is bit-identical to
/// `total_variation(lane_i, reference)`.
///
/// # Panics
/// Panics if the reference scale differs from the batch scale.
pub fn total_variation_rows(
    batch: &BatchScratch,
    reference: &RatingDistribution,
    out: &mut Vec<f64>,
) {
    kernels::tvd_rows(
        kernels::active(),
        batch,
        reference.counts(),
        reference.total(),
        out,
    );
}

/// Closed-form 1-D Earth Mover's Distance between two distributions on the
/// same ordinal scale, with unit ground distance between adjacent scores:
/// `EMD(p, q) = Σ_j |CDF_p(j) − CDF_q(j)|`.
///
/// The result lies in `[0, m − 1]`. Dividing by `scale − 1` (see
/// [`emd_1d_normalized`]) gives a `[0, 1]` distance.
///
/// # Panics
/// Panics if the scales differ.
pub fn emd_1d(a: &RatingDistribution, b: &RatingDistribution) -> f64 {
    assert_eq!(a.scale(), b.scale(), "distributions must share a scale");
    let ca = a.cdf();
    let cb = b.cdf();
    emd_1d_from_cdfs(&ca, &cb)
}

/// The closed-form 1-D EMD evaluated directly on precomputed CDF prefix
/// vectors: `Σ_j |ca[j] − cb[j]|`.
///
/// This is the batched primitive behind [`emd_1d`]: callers that compare
/// one distribution against many (ground-cost matrices between rating
/// maps) compute each CDF once via
/// [`RatingDistribution::cdf_into`](crate::RatingDistribution::cdf_into)
/// and then evaluate every pair allocation-free through this function.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn emd_1d_from_cdfs(ca: &[f64], cb: &[f64]) -> f64 {
    assert_eq!(ca.len(), cb.len(), "CDF vectors must share a scale");
    ca.iter().zip(cb).map(|(x, y)| (x - y).abs()).sum()
}

/// [`emd_1d_from_cdfs`] normalized to `[0, 1]` by the scale diameter
/// `m − 1` (0 when `m <= 1`), mirroring [`emd_1d_normalized`].
#[inline]
pub fn emd_1d_normalized_from_cdfs(ca: &[f64], cb: &[f64]) -> f64 {
    let m = ca.len();
    if m <= 1 {
        return 0.0;
    }
    emd_1d_from_cdfs(ca, cb) / (m as f64 - 1.0)
}

/// [`emd_1d`] normalized to `[0, 1]` by the scale diameter `m − 1`.
///
/// For `m == 1` the distance is defined to be 0 (a single-point scale admits
/// only one distribution).
pub fn emd_1d_normalized(a: &RatingDistribution, b: &RatingDistribution) -> f64 {
    let m = a.scale();
    if m <= 1 {
        return 0.0;
    }
    emd_1d(a, b) / (m as f64 - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(counts: &[u64]) -> RatingDistribution {
        RatingDistribution::from_counts(counts.to_vec())
    }

    #[test]
    fn tvd_identical_is_zero() {
        let a = dist(&[1, 2, 3, 4, 5]);
        assert_eq!(total_variation(&a, &a), 0.0);
    }

    #[test]
    fn tvd_disjoint_is_one() {
        let a = dist(&[10, 0, 0, 0, 0]);
        let b = dist(&[0, 0, 0, 0, 10]);
        assert!((total_variation(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tvd_symmetric() {
        let a = dist(&[3, 1, 0, 2, 4]);
        let b = dist(&[0, 5, 5, 0, 0]);
        assert!((total_variation(&a, &b) - total_variation(&b, &a)).abs() < 1e-15);
    }

    #[test]
    fn tvd_half_overlap() {
        let a = dist(&[1, 1, 0]);
        let b = dist(&[1, 0, 1]);
        assert!((total_variation(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn emd_identical_is_zero() {
        let a = dist(&[1, 2, 3, 4, 5]);
        assert_eq!(emd_1d(&a, &a), 0.0);
    }

    #[test]
    fn emd_extremes_is_diameter() {
        let a = dist(&[10, 0, 0, 0, 0]);
        let b = dist(&[0, 0, 0, 0, 10]);
        assert!((emd_1d(&a, &b) - 4.0).abs() < 1e-12);
        assert!((emd_1d_normalized(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn emd_adjacent_mass() {
        // Moving all mass one step costs exactly 1.
        let a = dist(&[0, 10, 0, 0, 0]);
        let b = dist(&[0, 0, 10, 0, 0]);
        assert!((emd_1d(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn emd_triangle_inequality_sample() {
        let a = dist(&[5, 0, 0, 0, 5]);
        let b = dist(&[0, 5, 0, 5, 0]);
        let c = dist(&[0, 0, 10, 0, 0]);
        assert!(emd_1d(&a, &c) <= emd_1d(&a, &b) + emd_1d(&b, &c) + 1e-12);
    }

    #[test]
    fn emd_single_point_scale_is_zero() {
        let a = dist(&[5]);
        let b = dist(&[9]);
        assert_eq!(emd_1d_normalized(&a, &b), 0.0);
    }

    #[test]
    #[should_panic(expected = "share a scale")]
    fn tvd_scale_mismatch_panics() {
        let a = dist(&[1, 1]);
        let b = dist(&[1, 1, 1]);
        let _ = total_variation(&a, &b);
    }
}
