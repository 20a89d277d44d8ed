//! Order statistics over latency samples.

/// Percentile ladder the picker chooses from, lowest first.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];
/// A percentile is reported only with at least this many samples beyond it.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in `(0, 100]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an ascending slice (mean of the middle pair for even counts).
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The highest ladder percentile that still has [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the median does not.
pub fn highest_supported(samples: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|p| ((100.0 - p) / 100.0 * samples as f64 + 1e-9).floor() as usize >= MIN_BEYOND)
}

/// Sorts `samples` in place and returns them (all samples are finite).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    samples
}

/// Interquartile range over the median — the run-to-run spread the
/// benchmark contract gates on. Quartiles use the exclusive method of
/// Python's `statistics.quantiles(values, n=4)`.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let q = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    (q(3) - q(1)) / median(&v)
}

/// Best (lowest) value seen per slot. A run repeats the same operations in
/// rounds; the host's interference only ever slows an operation down, so the
/// fastest of its repeats is the closest to what the program costs.
#[derive(Debug, Clone, Default)]
pub struct BestOf {
    best: Vec<f64>,
    /// Observations made, over all slots.
    pub executions: u64,
}

impl BestOf {
    pub fn observe(&mut self, slot: usize, value: f64) {
        if self.best.len() <= slot {
            self.best.resize(slot + 1, f64::INFINITY);
        }
        self.best[slot] = self.best[slot].min(value);
        self.executions += 1;
    }

    /// The best value of every slot observed at least once, ascending.
    pub fn values(&self) -> Vec<f64> {
        sorted(
            self.best
                .iter()
                .copied()
                .filter(|v| v.is_finite())
                .collect(),
        )
    }

    /// Best values of the slots `keep` selects, ascending.
    pub fn values_where(&self, keep: impl Fn(usize) -> bool) -> Vec<f64> {
        sorted(
            self.best
                .iter()
                .enumerate()
                .filter(|(i, v)| v.is_finite() && keep(*i))
                .map(|(_, v)| *v)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_wants_ten_samples_beyond() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(40), Some(75.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(199), Some(90.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(999), Some(95.0));
        assert_eq!(highest_supported(1_000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_and_median() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(median(&v), 100.5);
        assert_eq!(median(&[3.0]), 3.0);
    }

    #[test]
    fn best_of_keeps_the_fastest_repeat_per_slot() {
        let mut b = BestOf::default();
        for (slot, v) in [(0, 5.0), (2, 9.0), (0, 4.0), (2, 11.0), (0, 6.0)] {
            b.observe(slot, v);
        }
        assert_eq!(b.values(), vec![4.0, 9.0]);
        assert_eq!(b.values_where(|slot| slot == 2), vec![9.0]);
        assert_eq!(b.executions, 5);
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
