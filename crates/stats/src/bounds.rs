//! Worst-case confidence intervals for sampling without replacement.
//!
//! The paper's confidence-interval pruning (Algorithm 3) bounds the utility
//! of partially evaluated rating maps using intervals "derived from the
//! Hoeffding–Serfling inequality" \[48\], exactly as SeeDB \[54\] does. The
//! phase-based execution framework consumes a rating group in `n` equal
//! fractions of a fixed random permutation — i.e. it *samples without
//! replacement* from a finite population — which is the regime the
//! Hoeffding–Serfling bound covers.

/// A closed interval `[lo, hi]` bounding an unknown quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl ConfidenceInterval {
    /// Creates an interval, clamping so that `lo <= hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        if lo <= hi {
            Self { lo, hi }
        } else {
            Self { lo: hi, hi: lo }
        }
    }

    /// An exact (zero-width) interval.
    pub fn point(v: f64) -> Self {
        Self { lo: v, hi: v }
    }

    /// Interval width.
    #[inline]
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Midpoint of the interval.
    #[inline]
    pub fn mid(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// Whether this interval lies entirely below `other` (no overlap).
    ///
    /// This is the dominance test of Algorithm 3: a criterion whose interval
    /// is entirely below another criterion's interval can never define the
    /// max-combined utility and is discarded.
    #[inline]
    pub fn entirely_below(&self, other: &Self) -> bool {
        self.hi < other.lo
    }

    /// Whether `v` lies within the interval (inclusive).
    #[inline]
    pub fn contains(&self, v: f64) -> bool {
        v >= self.lo && v <= self.hi
    }

    /// Scales both endpoints by a non-negative factor (used to apply the
    /// dimension weight of Equation 1 to a utility interval).
    pub fn scale(&self, w: f64) -> Self {
        debug_assert!(w >= 0.0);
        Self::new(self.lo * w, self.hi * w)
    }

    /// Intersects with `[0, 1]` — criteria scores are normalized, so their
    /// true values always lie in the unit interval.
    pub fn clamp_unit(&self) -> Self {
        Self {
            lo: self.lo.clamp(0.0, 1.0),
            hi: self.hi.clamp(0.0, 1.0),
        }
    }

    /// The interval of half-width `half_width` around `mean` for a
    /// statistic known to lie in `[0, 1]`: all of `[0, 1]` when the width
    /// is infinite, otherwise clamped to it. This is
    /// [`HoeffdingSerfling::interval`] with the width computed once, for
    /// callers that bound many means after the same number of samples.
    pub fn around_unit(mean: f64, half_width: f64) -> Self {
        if half_width.is_infinite() {
            return Self::new(0.0, 1.0);
        }
        Self::new(mean - half_width, mean + half_width).clamp_unit()
    }
}

/// Hoeffding–Serfling confidence bound for the mean of a bounded population
/// sampled without replacement.
///
/// For a population of `N` values in `[0, 1]`, after observing `s` of them
/// (in uniformly random order), the running mean deviates from the true mean
/// by more than `epsilon(s)` with probability at most `delta`, where
///
/// ```text
/// epsilon(s) = sqrt( (1 − f_s) · (2·ln ln s + ln(π²/(3δ))) / (2 s) ),
/// f_s = (s − 1) / N
/// ```
///
/// This is the exact form used by SeeDB \[54\]; the `(1 − f_s)` factor makes
/// the interval collapse to a point as the sample approaches the full
/// population, which is what lets late phases prune aggressively.
#[derive(Debug, Clone, Copy)]
pub struct HoeffdingSerfling {
    population: u64,
    delta: f64,
}

impl HoeffdingSerfling {
    /// Creates a bound for a population of `population` items with error
    /// probability `delta`.
    ///
    /// # Panics
    /// Panics if `population == 0` or `delta` is not in `(0, 1)`.
    pub fn new(population: u64, delta: f64) -> Self {
        assert!(population > 0, "population must be positive");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        Self { population, delta }
    }

    /// The population size `N`.
    pub fn population(&self) -> u64 {
        self.population
    }

    /// Half-width `epsilon(s)` of the confidence interval after `s` samples.
    ///
    /// Returns `+inf` for `s == 0` (nothing observed) and `0` for
    /// `s >= N` (the whole population has been seen). For `s ∈ {1, 2}` the
    /// `ln ln s` term is clamped at 0, matching common practice.
    pub fn half_width(&self, samples: u64) -> f64 {
        if samples == 0 {
            return f64::INFINITY;
        }
        if samples >= self.population {
            return 0.0;
        }
        let s = samples as f64;
        let n = self.population as f64;
        let f_s = (s - 1.0) / n;
        let lnln = if samples >= 3 {
            s.ln().ln().max(0.0)
        } else {
            0.0
        };
        let tail = (std::f64::consts::PI.powi(2) / (3.0 * self.delta)).ln();
        (((1.0 - f_s) * (2.0 * lnln + tail)) / (2.0 * s)).sqrt()
    }

    /// Confidence interval around a running mean for a statistic known to
    /// lie in `[0, 1]`, after `samples` observations.
    pub fn interval(&self, mean: f64, samples: u64) -> ConfidenceInterval {
        ConfidenceInterval::around_unit(mean, self.half_width(samples))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_basics() {
        let i = ConfidenceInterval::new(0.2, 0.6);
        assert!((i.width() - 0.4).abs() < 1e-15);
        assert!((i.mid() - 0.4).abs() < 1e-15);
        assert!(i.contains(0.2) && i.contains(0.6) && !i.contains(0.61));
    }

    #[test]
    fn new_swaps_inverted_bounds() {
        let i = ConfidenceInterval::new(0.9, 0.1);
        assert_eq!((i.lo, i.hi), (0.1, 0.9));
    }

    #[test]
    fn entirely_below_requires_no_overlap() {
        let a = ConfidenceInterval::new(0.1, 0.3);
        let b = ConfidenceInterval::new(0.4, 0.6);
        let c = ConfidenceInterval::new(0.25, 0.5);
        assert!(a.entirely_below(&b));
        assert!(!b.entirely_below(&a));
        assert!(!a.entirely_below(&c));
    }

    #[test]
    fn scale_applies_weight() {
        let i = ConfidenceInterval::new(0.2, 0.8).scale(0.5);
        assert!((i.lo - 0.1).abs() < 1e-15 && (i.hi - 0.4).abs() < 1e-15);
    }

    #[test]
    fn zero_samples_is_vacuous() {
        let hs = HoeffdingSerfling::new(1000, 0.05);
        assert!(hs.half_width(0).is_infinite());
        let i = hs.interval(0.5, 0);
        assert_eq!((i.lo, i.hi), (0.0, 1.0));
    }

    #[test]
    fn full_population_is_exact() {
        let hs = HoeffdingSerfling::new(100, 0.05);
        assert_eq!(hs.half_width(100), 0.0);
        assert_eq!(hs.half_width(150), 0.0);
        let i = hs.interval(0.37, 100);
        assert_eq!((i.lo, i.hi), (0.37, 0.37));
    }

    #[test]
    fn width_shrinks_with_more_samples() {
        let hs = HoeffdingSerfling::new(10_000, 0.05);
        let mut prev = f64::INFINITY;
        for s in [10u64, 100, 1000, 5000, 9000, 9999] {
            let w = hs.half_width(s);
            assert!(w < prev, "width should shrink: s={s} w={w} prev={prev}");
            assert!(w.is_finite() && w > 0.0);
            prev = w;
        }
    }

    #[test]
    fn tighter_delta_widens_interval() {
        let loose = HoeffdingSerfling::new(1000, 0.2);
        let tight = HoeffdingSerfling::new(1000, 0.001);
        assert!(tight.half_width(100) > loose.half_width(100));
    }

    #[test]
    fn interval_clamped_to_unit() {
        let hs = HoeffdingSerfling::new(1000, 0.05);
        let i = hs.interval(0.02, 5);
        assert!(i.lo >= 0.0 && i.hi <= 1.0);
    }

    #[test]
    fn empirical_coverage_on_random_population() {
        // Draw a random 0/1 population, walk a random permutation, and check
        // the running mean stays inside the bound (it is a worst-case bound,
        // so violations should be essentially absent at delta = 0.05).
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(42);
        let n = 2000usize;
        let pop: Vec<f64> = (0..n)
            .map(|_| if rng.random_bool(0.3) { 1.0 } else { 0.0 })
            .collect();
        let true_mean = pop.iter().sum::<f64>() / n as f64;
        let hs = HoeffdingSerfling::new(n as u64, 0.05);
        let mut violations = 0usize;
        let mut checks = 0usize;
        for _ in 0..20 {
            let mut perm = pop.clone();
            perm.shuffle(&mut rng);
            let mut sum = 0.0;
            for (s, v) in perm.iter().enumerate() {
                sum += v;
                let seen = (s + 1) as u64;
                if seen.is_multiple_of(100) {
                    let mean = sum / seen as f64;
                    let eps = hs.half_width(seen);
                    checks += 1;
                    if (mean - true_mean).abs() > eps {
                        violations += 1;
                    }
                }
            }
        }
        assert!(checks > 0);
        assert_eq!(violations, 0, "worst-case bound should not be violated");
    }

    #[test]
    #[should_panic(expected = "delta")]
    fn invalid_delta_panics() {
        let _ = HoeffdingSerfling::new(10, 1.5);
    }
}
