//! Score normalization.
//!
//! The paper's four interestingness criteria live on wildly different scales
//! (Figure 3 shows raw conciseness 16.6–33.3 next to agreement 0.74–0.76),
//! so "we normalize them as proposed in \[51\]" (Somech et al.), which
//! standardizes each measure against the distribution of scores it has
//! produced so far and maps the z-score through a logistic squash. A plain
//! min–max normalizer is also provided for the ablation study.

use crate::moments::RunningMoments;

/// A stateful normalizer mapping raw criterion scores into `[0, 1]`.
///
/// Normalizers are *per criterion*: each of conciseness / agreement /
/// self-peculiarity / global-peculiarity owns one, fed by every raw score
/// that criterion produces, so scores become comparable across criteria.
pub trait Normalizer: Send {
    /// Records a raw score observation (updates internal statistics).
    fn observe(&mut self, raw: f64);
    /// Maps a raw score to `[0, 1]` using the statistics gathered so far.
    fn normalize(&self, raw: f64) -> f64;
    /// Convenience: observe then normalize.
    fn observe_and_normalize(&mut self, raw: f64) -> f64 {
        self.observe(raw);
        self.normalize(raw)
    }
}

/// Z-score + logistic normalizer, following \[51\]: raw scores are
/// standardized against running moments and squashed by the logistic
/// function `1 / (1 + e^(−z))`, giving a smooth, outlier-robust `[0, 1]`
/// scale where 0.5 means "average interestingness so far".
#[derive(Debug, Clone, Default)]
pub struct ZLogisticNormalizer {
    moments: RunningMoments,
}

impl ZLogisticNormalizer {
    /// Creates an empty normalizer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Normalizer for ZLogisticNormalizer {
    fn observe(&mut self, raw: f64) {
        if raw.is_finite() {
            self.moments.push(raw);
        }
    }

    fn normalize(&self, raw: f64) -> f64 {
        if !raw.is_finite() {
            return if raw == f64::INFINITY { 1.0 } else { 0.0 };
        }
        let Some(mean) = self.moments.mean() else {
            return 0.5;
        };
        let sd = self.moments.std_dev().unwrap_or(0.0);
        if sd <= f64::EPSILON {
            // All observations identical: everything is "average".
            return 0.5;
        }
        let z = (raw - mean) / sd;
        1.0 / (1.0 + (-z).exp())
    }
}

/// Min–max normalizer: maps raw scores linearly onto `[0, 1]` using the
/// extremes observed so far. Simple, but sensitive to outliers; used by the
/// normalization ablation.
#[derive(Debug, Clone, Default)]
pub struct MinMaxNormalizer {
    moments: RunningMoments,
}

impl MinMaxNormalizer {
    /// Creates an empty normalizer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Normalizer for MinMaxNormalizer {
    fn observe(&mut self, raw: f64) {
        if raw.is_finite() {
            self.moments.push(raw);
        }
    }

    fn normalize(&self, raw: f64) -> f64 {
        if !raw.is_finite() {
            return if raw == f64::INFINITY { 1.0 } else { 0.0 };
        }
        let (Some(min), Some(max)) = (self.moments.min(), self.moments.max()) else {
            return 0.5;
        };
        if (max - min).abs() <= f64::EPSILON {
            return 0.5;
        }
        ((raw - min) / (max - min)).clamp(0.0, 1.0)
    }
}

/// Which normalizer family to instantiate (engine configuration knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NormalizerKind {
    /// Z-score + logistic (the paper's choice via \[51\]).
    #[default]
    ZLogistic,
    /// Running min–max.
    MinMax,
}

impl NormalizerKind {
    /// Instantiates a fresh normalizer of this kind.
    pub fn build(self) -> Box<dyn Normalizer> {
        match self {
            NormalizerKind::ZLogistic => Box::new(ZLogisticNormalizer::new()),
            NormalizerKind::MinMax => Box::new(MinMaxNormalizer::new()),
        }
    }

    /// Instantiates a fresh cloneable normalizer of this kind.
    pub fn build_enum(self) -> ScoreNormalizer {
        match self {
            NormalizerKind::ZLogistic => ScoreNormalizer::ZLogistic(ZLogisticNormalizer::new()),
            NormalizerKind::MinMax => ScoreNormalizer::MinMax(MinMaxNormalizer::new()),
        }
    }
}

/// A concrete, cloneable normalizer.
///
/// The exploration engine snapshots normalizer state when evaluating
/// candidate next-step operations in parallel worker threads; an enum (vs a
/// boxed trait object) makes that snapshot a trivial `Clone`.
#[derive(Debug, Clone)]
pub enum ScoreNormalizer {
    /// See [`ZLogisticNormalizer`].
    ZLogistic(ZLogisticNormalizer),
    /// See [`MinMaxNormalizer`].
    MinMax(MinMaxNormalizer),
}

impl Normalizer for ScoreNormalizer {
    fn observe(&mut self, raw: f64) {
        match self {
            ScoreNormalizer::ZLogistic(n) => n.observe(raw),
            ScoreNormalizer::MinMax(n) => n.observe(raw),
        }
    }

    fn normalize(&self, raw: f64) -> f64 {
        match self {
            ScoreNormalizer::ZLogistic(n) => n.normalize(raw),
            ScoreNormalizer::MinMax(n) => n.normalize(raw),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zlogistic_unobserved_is_half() {
        let n = ZLogisticNormalizer::new();
        assert_eq!(n.normalize(7.0), 0.5);
    }

    #[test]
    fn zlogistic_orders_scores() {
        let mut n = ZLogisticNormalizer::new();
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            n.observe(x);
        }
        let low = n.normalize(1.0);
        let mid = n.normalize(3.0);
        let high = n.normalize(5.0);
        assert!(low < mid && mid < high);
        assert!((mid - 0.5).abs() < 1e-12, "mean maps to 0.5");
        assert!(low > 0.0 && high < 1.0);
    }

    #[test]
    fn zlogistic_constant_observations() {
        let mut n = ZLogisticNormalizer::new();
        for _ in 0..10 {
            n.observe(4.0);
        }
        assert_eq!(n.normalize(4.0), 0.5);
        assert_eq!(n.normalize(100.0), 0.5);
    }

    #[test]
    fn zlogistic_handles_infinities() {
        let mut n = ZLogisticNormalizer::new();
        n.observe(f64::INFINITY); // ignored
        n.observe(1.0);
        n.observe(2.0);
        assert_eq!(n.normalize(f64::INFINITY), 1.0);
        assert_eq!(n.normalize(f64::NEG_INFINITY), 0.0);
    }

    #[test]
    fn minmax_maps_extremes() {
        let mut n = MinMaxNormalizer::new();
        for x in [10.0, 20.0, 30.0] {
            n.observe(x);
        }
        assert_eq!(n.normalize(10.0), 0.0);
        assert_eq!(n.normalize(30.0), 1.0);
        assert!((n.normalize(20.0) - 0.5).abs() < 1e-12);
        assert_eq!(n.normalize(50.0), 1.0, "clamped above");
        assert_eq!(n.normalize(0.0), 0.0, "clamped below");
    }

    #[test]
    fn minmax_degenerate_range() {
        let mut n = MinMaxNormalizer::new();
        n.observe(3.0);
        assert_eq!(n.normalize(3.0), 0.5);
    }

    #[test]
    fn kind_builds_expected_variants() {
        let mut z = NormalizerKind::ZLogistic.build();
        let mut m = NormalizerKind::MinMax.build();
        for x in [0.0, 10.0] {
            z.observe(x);
            m.observe(x);
        }
        assert_eq!(m.normalize(0.0), 0.0);
        assert!(z.normalize(0.0) > 0.0);
    }
}
