//! Streaming moments and descriptive statistics.
//!
//! Used in two places: (1) the score normalizers standardize interestingness
//! criteria against running moments observed across candidate rating maps,
//! and (2) the user-study harness reports per-treatment-group means and
//! standard deviations.

/// Numerically stable streaming mean/variance (Welford's algorithm).
#[derive(Debug, Clone, Copy)]
pub struct RunningMoments {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for RunningMoments {
    fn default() -> Self {
        Self::new()
    }
}

impl RunningMoments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Population variance, or `None` if empty.
    pub fn variance(&self) -> Option<f64> {
        (self.count > 0).then(|| self.m2 / self.count as f64)
    }

    /// Sample variance (Bessel-corrected), or `None` if fewer than 2 points.
    pub fn sample_variance(&self) -> Option<f64> {
        (self.count > 1).then(|| self.m2 / (self.count - 1) as f64)
    }

    /// Population standard deviation, or `None` if empty.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Sample standard deviation, or `None` if fewer than 2 points.
    pub fn sample_std_dev(&self) -> Option<f64> {
        self.sample_variance().map(f64::sqrt)
    }

    /// Smallest observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Summary statistics of a slice: convenience for reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample (Bessel-corrected) standard deviation; 0 when `n < 2`.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

/// Computes a [`Summary`] of `xs`. Returns `None` for an empty slice.
pub fn summarize(xs: &[f64]) -> Option<Summary> {
    let mut m = RunningMoments::new();
    for &x in xs {
        m.push(x);
    }
    Some(Summary {
        n: m.count(),
        mean: m.mean()?,
        std_dev: m.sample_std_dev().unwrap_or(0.0),
        min: m.min()?,
        max: m.max()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_moments() {
        let m = RunningMoments::new();
        assert_eq!(m.count(), 0);
        assert_eq!(m.mean(), None);
        assert_eq!(m.variance(), None);
        assert_eq!(m.min(), None);
    }

    #[test]
    fn single_value() {
        let mut m = RunningMoments::new();
        m.push(4.2);
        assert_eq!(m.mean(), Some(4.2));
        assert_eq!(m.variance(), Some(0.0));
        assert_eq!(m.sample_variance(), None);
        assert_eq!(m.min(), Some(4.2));
        assert_eq!(m.max(), Some(4.2));
    }

    #[test]
    fn matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut m = RunningMoments::new();
        for &x in &xs {
            m.push(x);
        }
        assert!((m.mean().unwrap() - 5.0).abs() < 1e-12);
        assert!((m.std_dev().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = RunningMoments::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = RunningMoments::new();
        let mut b = RunningMoments::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean().unwrap() - all.mean().unwrap()).abs() < 1e-10);
        assert!((a.variance().unwrap() - all.variance().unwrap()).abs() < 1e-10);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningMoments::new();
        a.push(1.0);
        a.push(3.0);
        let before = a;
        a.merge(&RunningMoments::new());
        assert_eq!(a.mean(), before.mean());
        let mut e = RunningMoments::new();
        e.merge(&a);
        assert_eq!(e.mean(), a.mean());
        assert_eq!(e.count(), a.count());
    }

    #[test]
    fn summarize_basics() {
        let s = summarize(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.n, 3);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std_dev - 1.0).abs() < 1e-12);
        assert_eq!((s.min, s.max), (1.0, 3.0));
        assert!(summarize(&[]).is_none());
    }
}
