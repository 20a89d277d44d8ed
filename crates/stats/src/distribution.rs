//! Rating distributions (Definition 1 of the paper).
//!
//! A rating distribution records, for one rating dimension of one rating
//! group, how many rating records were assigned each score of the discrete
//! scale `1..=m`. It is the atom from which rating maps, interestingness
//! scores, and all distribution distances are computed.

/// A histogram of rating scores over the ordinal scale `1..=m`.
///
/// Index `j` of [`counts`](Self::counts) holds the number of records whose
/// score is `j + 1`. The distribution is a plain count vector rather than a
/// normalized probability vector so that it can be updated incrementally as
/// the phase-based execution framework streams fractions of a rating group;
/// probability views are derived on demand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RatingDistribution {
    counts: Vec<u64>,
}

impl RatingDistribution {
    /// Creates an empty distribution over the scale `1..=scale`.
    ///
    /// # Panics
    /// Panics if `scale == 0`.
    pub fn new(scale: usize) -> Self {
        assert!(scale > 0, "rating scale must be at least 1");
        Self {
            counts: vec![0; scale],
        }
    }

    /// Builds a distribution directly from per-score counts
    /// (`counts[0]` = number of 1-ratings, and so on).
    pub fn from_counts(counts: Vec<u64>) -> Self {
        assert!(!counts.is_empty(), "rating scale must be at least 1");
        Self { counts }
    }

    /// Overwrites this distribution in place from per-score counts — the
    /// buffer-reusing twin of [`Self::from_counts`], for callers that hold
    /// a pool of distributions across estimations.
    ///
    /// # Panics
    /// Panics if `counts` is empty.
    pub fn copy_from_counts(&mut self, counts: &[u64]) {
        assert!(!counts.is_empty(), "rating scale must be at least 1");
        self.counts.clear();
        self.counts.extend_from_slice(counts);
    }

    /// Resets to the empty distribution over `1..=scale`, reusing the
    /// existing buffer.
    ///
    /// # Panics
    /// Panics if `scale == 0`.
    pub fn reset(&mut self, scale: usize) {
        assert!(scale > 0, "rating scale must be at least 1");
        self.counts.clear();
        self.counts.resize(scale, 0);
    }

    /// The size `m` of the rating scale.
    #[inline]
    pub fn scale(&self) -> usize {
        self.counts.len()
    }

    /// The raw per-score counts.
    #[inline]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of records with the given score (1-based).
    ///
    /// # Panics
    /// Panics if `score` is 0 or exceeds the scale.
    #[inline]
    pub fn count(&self, score: u8) -> u64 {
        self.counts[usize::from(score) - 1]
    }

    /// Records one rating with the given 1-based score.
    ///
    /// # Panics
    /// Panics if `score` is 0 or exceeds the scale.
    #[inline]
    pub fn add(&mut self, score: u8) {
        self.counts[usize::from(score) - 1] += 1;
    }

    /// Records `n` ratings with the given 1-based score.
    #[inline]
    pub fn add_n(&mut self, score: u8, n: u64) {
        self.counts[usize::from(score) - 1] += n;
    }

    /// Total number of records.
    #[inline]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Whether the distribution holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Merges another distribution (same scale) into this one.
    ///
    /// # Panics
    /// Panics if the scales differ.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.scale(), other.scale(), "cannot merge differing scales");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// [`Self::merge`] from a raw count slice, so batch-staging callers can
    /// fold a flat count matrix into an overall distribution without
    /// materializing intermediate distributions. `u64` addition is exact,
    /// so the result equals merging the equivalent [`RatingDistribution`].
    ///
    /// # Panics
    /// Panics if `counts.len()` differs from the scale.
    pub fn merge_counts(&mut self, counts: &[u64]) {
        assert_eq!(self.scale(), counts.len(), "cannot merge differing scales");
        for (a, &b) in self.counts.iter_mut().zip(counts) {
            *a += b;
        }
    }

    /// The probability view `[w_1, …, w_m]` of the distribution.
    ///
    /// Returns a uniform distribution when empty, so that distances against
    /// empty subgroups are well-defined.
    pub fn probabilities(&self) -> Vec<f64> {
        let total = self.total();
        if total == 0 {
            let u = 1.0 / self.scale() as f64;
            return vec![u; self.scale()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }

    /// Mean score (on the `1..=m` scale). Returns `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let sum: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(j, &c)| (j as f64 + 1.0) * c as f64)
            .sum();
        Some(sum / total as f64)
    }

    /// Population standard deviation of the scores. Returns `None` when empty.
    ///
    /// This is the dispersion measure behind the paper's *agreement*
    /// criterion: a subgroup whose reviewers agree has a small SD.
    pub fn std_dev(&self) -> Option<f64> {
        let mean = self.mean()?;
        let total = self.total() as f64;
        let ss: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(j, &c)| {
                let d = (j as f64 + 1.0) - mean;
                d * d * c as f64
            })
            .sum();
        Some((ss / total).sqrt())
    }

    /// The score (1-based) with the highest count; ties resolve to the
    /// lowest score. Returns `None` when empty.
    pub fn mode(&self) -> Option<u8> {
        if self.is_empty() {
            return None;
        }
        let (idx, _) = self
            .counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))?;
        Some(idx as u8 + 1)
    }

    /// Cumulative distribution function evaluated at every score:
    /// `cdf[j] = P(score <= j + 1)`. Uniform if empty (consistent with
    /// [`Self::probabilities`]).
    pub fn cdf(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.cdf_into(&mut out);
        out
    }

    /// [`Self::cdf`] into a caller-provided buffer, so hot paths (distance
    /// signatures, cost-matrix builds) reuse one allocation across calls.
    /// The buffer is cleared first; values are bit-identical to
    /// [`Self::cdf`].
    pub fn cdf_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.scale());
        let total = self.total();
        let mut acc = 0.0;
        if total == 0 {
            let u = 1.0 / self.scale() as f64;
            for _ in 0..self.scale() {
                acc += u;
                out.push(acc);
            }
        } else {
            let inv = total as f64;
            for &c in &self.counts {
                acc += c as f64 / inv;
                out.push(acc);
            }
        }
    }
}

/// Batched [`RatingDistribution::cdf_into`] over a staged score-major
/// batch, dispatched through the process-wide
/// [`kernels::active`](crate::kernels::active) SIMD path: on return,
/// `out[j * lanes + i]` is bit-identical to `cdf_into` element `j` of lane
/// `i` (uniform steps for empty lanes).
pub fn cdf_rows(batch: &crate::kernels::BatchScratch, out: &mut Vec<f64>) {
    crate::kernels::cdf_rows(crate::kernels::active(), batch, out);
}

/// Batched [`RatingDistribution::mean`] / [`RatingDistribution::std_dev`]
/// over a staged batch, dispatched through the process-wide
/// [`kernels::active`](crate::kernels::active) SIMD path. Empty lanes
/// yield NaN (the scalar API's `None`); callers filter on
/// `batch.totals()`.
pub fn mean_sd_rows(
    batch: &crate::kernels::BatchScratch,
    out_mean: &mut Vec<f64>,
    out_sd: &mut Vec<f64>,
) {
    crate::kernels::mean_sd_rows(crate::kernels::active(), batch, out_mean, out_sd);
}

impl std::fmt::Display for RatingDistribution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (j, c) in self.counts.iter().enumerate() {
            if j > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}:{}", j + 1, c)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> RatingDistribution {
        // {1:1, 2:2, 3:1, 4:5, 5:7} — the Williamsburg row from Figure 3.
        RatingDistribution::from_counts(vec![1, 2, 1, 5, 7])
    }

    #[test]
    fn new_is_empty() {
        let d = RatingDistribution::new(5);
        assert!(d.is_empty());
        assert_eq!(d.total(), 0);
        assert_eq!(d.scale(), 5);
        assert_eq!(d.mean(), None);
        assert_eq!(d.std_dev(), None);
        assert_eq!(d.mode(), None);
    }

    #[test]
    #[should_panic(expected = "rating scale")]
    fn zero_scale_panics() {
        let _ = RatingDistribution::new(0);
    }

    #[test]
    fn add_and_count() {
        let mut d = RatingDistribution::new(5);
        d.add(1);
        d.add(5);
        d.add(5);
        d.add_n(3, 4);
        assert_eq!(d.count(1), 1);
        assert_eq!(d.count(3), 4);
        assert_eq!(d.count(5), 2);
        assert_eq!(d.total(), 7);
    }

    #[test]
    fn mean_matches_figure3() {
        // Paper's Figure 3 reports 3.9 for the Williamsburg distribution.
        let d = example();
        let mean = d.mean().unwrap();
        assert!((mean - 3.9375).abs() < 1e-12);
        assert_eq!(format!("{:.1}", mean), "3.9");
    }

    #[test]
    fn probabilities_sum_to_one() {
        let d = example();
        let sum: f64 = d.probabilities().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_probabilities_are_uniform() {
        let d = RatingDistribution::new(4);
        assert_eq!(d.probabilities(), vec![0.25; 4]);
        let cdf = d.cdf();
        assert!((cdf[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = example();
        let b = example();
        a.merge(&b);
        assert_eq!(a.counts(), &[2, 4, 2, 10, 14]);
    }

    #[test]
    #[should_panic(expected = "differing scales")]
    fn merge_scale_mismatch_panics() {
        let mut a = RatingDistribution::new(5);
        let b = RatingDistribution::new(4);
        a.merge(&b);
    }

    #[test]
    fn std_dev_zero_when_unanimous() {
        let mut d = RatingDistribution::new(5);
        d.add_n(4, 10);
        assert_eq!(d.std_dev().unwrap(), 0.0);
    }

    #[test]
    fn std_dev_positive_when_spread() {
        let d = example();
        assert!(d.std_dev().unwrap() > 1.0);
    }

    #[test]
    fn mode_picks_highest_count() {
        let d = example();
        assert_eq!(d.mode(), Some(5));
        let tie = RatingDistribution::from_counts(vec![3, 0, 3]);
        assert_eq!(tie.mode(), Some(1), "ties resolve to the lowest score");
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let d = example();
        let cdf = d.cdf();
        for w in cdf.windows(2) {
            assert!(w[0] <= w[1] + 1e-15);
        }
        assert!((cdf.last().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(example().to_string(), "{1:1,2:2,3:1,4:5,5:7}");
    }
}
