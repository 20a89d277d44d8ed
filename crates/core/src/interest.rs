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
//!
//! Both peculiarity criteria use TVD, as the paper's prototype does.
//! Section 4.1 names the KL divergence and the Outlier Function of \[39\]
//! only as alternatives, and none of the paper's experiments swaps them in.

use subdex_stats::distance::total_variation;
use subdex_stats::RatingDistribution;

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
    subgroups
        .iter()
        .filter(|d| !d.is_empty())
        .map(|d| total_variation(d, overall))
        .fold(0.0, f64::max)
}

/// Raw global peculiarity: the maximum TVD between this map's overall
/// distribution and each previously displayed map's distribution.
/// Nothing seen yet ⇒ 0 (there is no facet to differ from).
pub fn global_peculiarity_raw(overall: &RatingDistribution, seen: &[RatingDistribution]) -> f64 {
    seen.iter()
        .map(|d| total_variation(overall, d))
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
        // Self and global peculiarity share TVD: 0 for identical
        // distributions, 1 for disjoint ones, always within [0, 1].
        let a = [dist(&[10, 0, 0, 0, 0])];
        let b = [dist(&[0, 0, 0, 0, 10])];
        assert_eq!(self_peculiarity_raw(&a, &a[0]), 0.0);
        assert_eq!(global_peculiarity_raw(&a[0], &a), 0.0);
        assert_eq!(self_peculiarity_raw(&a, &b[0]), 1.0);
        assert_eq!(global_peculiarity_raw(&a[0], &b), 1.0);
    }
}
