//! Interestingness criteria (Sections 3.2.3 and 4.1).
//!
//! The utility of a rating map is the maximum of four criteria, each
//! implemented here as a *raw* (unnormalized) measure over the map's
//! subgroup distributions:
//!
//! * **conciseness** — compaction gain \[15\]: `|g_R| / |rm|`; favors maps
//!   that summarize many records into few subgroups;
//! * **agreement** — inverse average subgroup dispersion \[16\]: subgroups
//!   whose reviewers agree have small standard deviations. We use the
//!   bounded form `1 / (1 + σ̃)` rather than the paper's `1 / σ̃` so
//!   unanimous subgroups (σ̃ = 0) yield a finite score; the two are
//!   order-equivalent, and scores are normalized downstream anyway;
//! * **self peculiarity** — the maximum total-variation distance between a
//!   subgroup's distribution and the whole group's distribution (the max
//!   aggregation follows \[51\]);
//! * **global peculiarity** — the maximum total-variation distance between
//!   the map's overall distribution and the distributions of previously
//!   displayed maps; it rewards maps that show a facet of the data the user
//!   has not seen yet (the multi-step diversity facet).

use subdex_stats::distance::{kl_divergence, total_variation};
use subdex_stats::kernels::BatchScratch;
use subdex_stats::{distance, distribution, RatingDistribution};

/// Which distribution-distance backs the two peculiarity criteria.
///
/// The paper's prototype uses the total variation distance and names the
/// KL divergence and the Outlier Function of \[39\] as alternatives
/// (Section 4.1); all three are provided and ablated by
/// `experiments ablation-pec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PeculiarityMeasure {
    /// Total variation distance (the paper's choice).
    #[default]
    TotalVariation,
    /// Smoothed, symmetrized KL divergence squashed to `[0, 1)`.
    KlDivergence,
    /// Outlier function: normalized gap between the distribution means.
    Outlier,
}

impl PeculiarityMeasure {
    /// Distance between two distributions in `[0, 1]`.
    pub fn distance(self, a: &RatingDistribution, b: &RatingDistribution) -> f64 {
        match self {
            PeculiarityMeasure::TotalVariation => total_variation(a, b),
            PeculiarityMeasure::KlDivergence => {
                // Symmetrize and squash: d = 1 − e^(−J/2) where J is
                // Jeffreys' divergence — keeps the [0, 1] scale the
                // normalizers and CI bounds expect.
                let j = kl_divergence(a, b, 1e-4) + kl_divergence(b, a, 1e-4);
                1.0 - (-0.5 * j.max(0.0)).exp()
            }
            PeculiarityMeasure::Outlier => {
                let scale = a.scale().max(2) as f64;
                match (a.mean(), b.mean()) {
                    (Some(ma), Some(mb)) => (ma - mb).abs() / (scale - 1.0),
                    _ => 0.0,
                }
            }
        }
    }

    /// Batched [`Self::distance`] of every lane of a staged batch against
    /// one reference distribution, dispatched through the active SIMD
    /// kernel path: `out[i]` is bit-identical to
    /// `self.distance(lane_i, reference)` (and, since every backing
    /// distance is bit-symmetric in its arguments, to
    /// `self.distance(reference, lane_i)`). Empty lanes yield 0 under
    /// [`PeculiarityMeasure::Outlier`], matching the scalar `None` arm.
    /// `tmp` is kernel scratch.
    pub fn distance_rows(
        self,
        batch: &BatchScratch,
        reference: &RatingDistribution,
        tmp: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) {
        match self {
            PeculiarityMeasure::TotalVariation => {
                distance::total_variation_rows(batch, reference, out);
            }
            PeculiarityMeasure::KlDivergence => {
                distance::jeffreys_rows(batch, reference, 1e-4, out);
                for v in out.iter_mut() {
                    *v = 1.0 - (-0.5 * v.max(0.0)).exp();
                }
            }
            PeculiarityMeasure::Outlier => {
                distribution::mean_sd_rows(batch, out, tmp);
                let diameter = (batch.scale().max(2) as f64) - 1.0;
                match reference.mean() {
                    Some(mb) => {
                        for v in out.iter_mut() {
                            *v = if v.is_nan() {
                                0.0
                            } else {
                                (*v - mb).abs() / diameter
                            };
                        }
                    }
                    None => out.iter_mut().for_each(|v| *v = 0.0),
                }
            }
        }
    }
}

/// [`agreement_raw`] evaluated from batched per-lane standard deviations
/// (as produced by the `mean_sd_rows` kernel; NaN marks an empty lane and
/// is skipped, mirroring the scalar `std_dev() == None` filter). The sum
/// runs in lane order, so the result is bit-identical to the scalar form
/// over the same lanes.
pub fn agreement_from_sds(sds: &[f64]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for &sd in sds {
        if sd.is_nan() {
            continue;
        }
        sum += sd;
        n += 1;
    }
    if n == 0 {
        return 0.0;
    }
    let avg_sd = sum / n as f64;
    1.0 / (1.0 + avg_sd)
}

/// The max-aggregation both peculiarity criteria apply to their per-lane
/// distances: a fold from 0 in lane order, bit-identical to the scalar
/// `fold(0.0, f64::max)`.
pub fn max_distance(vals: &[f64]) -> f64 {
    vals.iter().copied().fold(0.0, f64::max)
}

/// The four criteria composing utility.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Criterion {
    /// Compaction gain.
    Conciseness,
    /// Inverse average subgroup dispersion.
    Agreement,
    /// Max subgroup-vs-group total variation.
    SelfPeculiarity,
    /// Max map-vs-seen-maps total variation.
    GlobalPeculiarity,
}

/// All criteria, in Algorithm 3's fixed order.
pub const ALL_CRITERIA: [Criterion; 4] = [
    Criterion::Conciseness,
    Criterion::Agreement,
    Criterion::SelfPeculiarity,
    Criterion::GlobalPeculiarity,
];

impl std::fmt::Display for Criterion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Criterion::Conciseness => "conciseness",
            Criterion::Agreement => "agreement",
            Criterion::SelfPeculiarity => "self-peculiarity",
            Criterion::GlobalPeculiarity => "global-peculiarity",
        };
        f.write_str(s)
    }
}

/// Raw conciseness (compaction gain): records summarized per subgroup.
/// Zero subgroups ⇒ 0 (an empty map summarizes nothing).
pub fn conciseness_raw(record_weight: u64, subgroup_count: usize) -> f64 {
    if subgroup_count == 0 {
        return 0.0;
    }
    record_weight as f64 / subgroup_count as f64
}

/// Raw agreement: `1 / (1 + σ̃)` where `σ̃` is the mean standard deviation
/// of the non-empty subgroups. Unanimous subgroups everywhere ⇒ 1.
/// No subgroups ⇒ 0.
pub fn agreement_raw(subgroups: &[RatingDistribution]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for sd in subgroups.iter().filter_map(|d| d.std_dev()) {
        sum += sd;
        n += 1;
    }
    if n == 0 {
        return 0.0;
    }
    let avg_sd = sum / n as f64;
    1.0 / (1.0 + avg_sd)
}

/// Raw self peculiarity: the maximum TVD between any subgroup's
/// distribution and the whole group's distribution. No subgroups ⇒ 0.
pub fn self_peculiarity_raw(subgroups: &[RatingDistribution], overall: &RatingDistribution) -> f64 {
    self_peculiarity_with(subgroups, overall, PeculiarityMeasure::TotalVariation)
}

/// [`self_peculiarity_raw`] under a configurable distance.
pub fn self_peculiarity_with(
    subgroups: &[RatingDistribution],
    overall: &RatingDistribution,
    measure: PeculiarityMeasure,
) -> f64 {
    subgroups
        .iter()
        .filter(|d| !d.is_empty())
        .map(|d| measure.distance(d, overall))
        .fold(0.0, f64::max)
}

/// Raw global peculiarity: the maximum TVD between this map's overall
/// distribution and each previously displayed map's distribution.
/// Nothing seen yet ⇒ 0 (there is no facet to differ from).
pub fn global_peculiarity_raw(overall: &RatingDistribution, seen: &[RatingDistribution]) -> f64 {
    global_peculiarity_with(overall, seen, PeculiarityMeasure::TotalVariation)
}

/// [`global_peculiarity_raw`] under a configurable distance.
pub fn global_peculiarity_with(
    overall: &RatingDistribution,
    seen: &[RatingDistribution],
    measure: PeculiarityMeasure,
) -> f64 {
    seen.iter()
        .map(|d| measure.distance(overall, d))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(counts: &[u64]) -> RatingDistribution {
        RatingDistribution::from_counts(counts.to_vec())
    }

    #[test]
    fn conciseness_compaction_gain() {
        assert_eq!(conciseness_raw(100, 5), 20.0);
        assert_eq!(conciseness_raw(100, 0), 0.0);
        // Figure 3: rm has 100 records over 6 subgroups → 16.6; rm' has 100
        // over 3 → 33.3.
        assert!((conciseness_raw(100, 6) - 16.666).abs() < 1e-2);
        assert!((conciseness_raw(100, 3) - 33.333).abs() < 1e-2);
    }

    #[test]
    fn agreement_unanimous_is_one() {
        let subs = vec![dist(&[0, 0, 10, 0, 0]), dist(&[0, 0, 0, 5, 0])];
        assert_eq!(agreement_raw(&subs), 1.0);
    }

    #[test]
    fn agreement_decreases_with_spread() {
        let tight = vec![dist(&[0, 5, 5, 0, 0])];
        let wide = vec![dist(&[5, 0, 0, 0, 5])];
        assert!(agreement_raw(&tight) > agreement_raw(&wide));
        assert_eq!(agreement_raw(&[]), 0.0);
    }

    #[test]
    fn self_peculiarity_zero_when_homogeneous() {
        let a = dist(&[1, 2, 3, 2, 1]);
        let overall = {
            let mut o = a.clone();
            o.merge(&a);
            o
        };
        let v = self_peculiarity_raw(&[a.clone(), a], &overall);
        assert!(v.abs() < 1e-12);
    }

    #[test]
    fn self_peculiarity_detects_outlier_subgroup() {
        let normal = dist(&[0, 0, 0, 5, 5]);
        let outlier = dist(&[10, 0, 0, 0, 0]);
        let mut overall = normal.clone();
        overall.merge(&outlier);
        let v = self_peculiarity_raw(&[normal, outlier], &overall);
        assert!(v > 0.4, "outlier subgroup should score high, got {v}");
    }

    #[test]
    fn global_peculiarity_empty_seen_is_zero() {
        let d = dist(&[1, 1, 1, 1, 1]);
        assert_eq!(global_peculiarity_raw(&d, &[]), 0.0);
    }

    #[test]
    fn global_peculiarity_max_over_seen() {
        let d = dist(&[10, 0, 0, 0, 0]);
        let near = dist(&[9, 1, 0, 0, 0]);
        let far = dist(&[0, 0, 0, 0, 10]);
        let v = global_peculiarity_raw(&d, &[near, far]);
        assert!((v - 1.0).abs() < 1e-12, "max picks the far distribution");
    }

    #[test]
    fn criterion_display() {
        assert_eq!(Criterion::Conciseness.to_string(), "conciseness");
        assert_eq!(ALL_CRITERIA.len(), 4);
    }

    #[test]
    fn peculiarity_measures_agree_on_identity_and_extremes() {
        let a = dist(&[10, 0, 0, 0, 0]);
        let b = dist(&[0, 0, 0, 0, 10]);
        for m in [
            PeculiarityMeasure::TotalVariation,
            PeculiarityMeasure::KlDivergence,
            PeculiarityMeasure::Outlier,
        ] {
            assert!(m.distance(&a, &a) < 1e-9, "{m:?} identity");
            let d = m.distance(&a, &b);
            assert!(d > 0.8, "{m:?} extremes should be near 1, got {d}");
            assert!((0.0..=1.0).contains(&d));
        }
    }

    #[test]
    fn kl_measure_symmetric_and_bounded() {
        let a = dist(&[5, 3, 1, 0, 0]);
        let b = dist(&[0, 1, 3, 5, 2]);
        let m = PeculiarityMeasure::KlDivergence;
        assert!((m.distance(&a, &b) - m.distance(&b, &a)).abs() < 1e-12);
        assert!(m.distance(&a, &b) < 1.0);
    }

    #[test]
    fn outlier_measure_uses_means_only() {
        // Same mean, different shape → 0 under Outlier but > 0 under TVD.
        let a = dist(&[5, 0, 0, 0, 5]); // mean 3
        let b = dist(&[0, 0, 10, 0, 0]); // mean 3
        assert!(PeculiarityMeasure::Outlier.distance(&a, &b) < 1e-12);
        assert!(PeculiarityMeasure::TotalVariation.distance(&a, &b) > 0.5);
    }

    #[test]
    fn configurable_peculiarity_changes_scores() {
        let normal = dist(&[0, 0, 0, 5, 5]);
        let outlier = dist(&[10, 0, 0, 0, 0]);
        let mut overall = normal.clone();
        overall.merge(&outlier);
        let subs = [normal, outlier];
        let tvd = self_peculiarity_with(&subs, &overall, PeculiarityMeasure::TotalVariation);
        let out = self_peculiarity_with(&subs, &overall, PeculiarityMeasure::Outlier);
        assert!(tvd > 0.0 && out > 0.0);
    }
}
