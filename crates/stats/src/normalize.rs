//! Score normalization.
//!
//! The paper's four interestingness criteria live on wildly different scales
//! (Figure 3 shows raw conciseness 16.6–33.3 next to agreement 0.74–0.76),
//! so "we normalize them as proposed in \[51\]" (Somech et al.), which
//! standardizes each measure against the distribution of scores it has
//! produced so far and maps the z-score through a logistic squash. Each
//! criterion owns one normalizer, fed by every raw score that criterion
//! produces, so scores become comparable across criteria.

use crate::moments::RunningMoments;

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

    /// Records a raw score observation; non-finite scores are ignored.
    pub fn observe(&mut self, raw: f64) {
        if raw.is_finite() {
            self.moments.push(raw);
        }
    }

    /// Maps a raw score to `[0, 1]` using the statistics gathered so far.
    pub fn normalize(&self, raw: f64) -> f64 {
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
}
