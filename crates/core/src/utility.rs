//! Utility of rating maps: max-combined criteria and dimension weighting.
//!
//! `u(rm, RM) = max(Conc, Agr, Pec_self, Pec_global)` over the *normalized*
//! criteria, and the dimension-weighted (DW) utility (Equation 1)
//! `û(rm_ri, RM) = (1 − m_ri / m) · u(rm, RM)` promotes rating dimensions
//! the user has rarely seen (need N2). [`DimensionWeights`] is the
//! `getWeights` procedure of Algorithm 2.
//!
//! The evaluation's utility-criteria ablation (Section 5.2.3) swaps the
//! max-aggregation for a single criterion or the average —
//! [`UtilityCombiner`] is that knob.

use crate::interest::Criterion;
use subdex_store::DimId;

/// The four normalized criterion scores of one rating map.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CriterionScores {
    /// Normalized conciseness.
    pub conciseness: f64,
    /// Normalized agreement.
    pub agreement: f64,
    /// Normalized self peculiarity.
    pub self_peculiarity: f64,
    /// Normalized global peculiarity.
    pub global_peculiarity: f64,
}

impl CriterionScores {
    /// Score of one criterion.
    pub fn get(&self, c: Criterion) -> f64 {
        match c {
            Criterion::Conciseness => self.conciseness,
            Criterion::Agreement => self.agreement,
            Criterion::SelfPeculiarity => self.self_peculiarity,
            Criterion::GlobalPeculiarity => self.global_peculiarity,
        }
    }

    /// Scores in [`crate::interest::ALL_CRITERIA`] order.
    pub fn as_array(&self) -> [f64; 4] {
        [
            self.conciseness,
            self.agreement,
            self.self_peculiarity,
            self.global_peculiarity,
        ]
    }
}

/// How the four criteria combine into the utility `u(rm, RM)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UtilityCombiner {
    /// The paper's choice: the maximum criterion.
    #[default]
    Max,
    /// Ablation: the average of the four criteria.
    Average,
    /// Ablation: a single criterion.
    Single(Criterion),
}

impl UtilityCombiner {
    /// Combines normalized criterion scores into a utility in `[0, 1]`.
    pub fn combine(self, s: &CriterionScores) -> f64 {
        match self {
            UtilityCombiner::Max => s
                .as_array()
                .into_iter()
                .fold(f64::NEG_INFINITY, f64::max)
                .max(0.0),
            UtilityCombiner::Average => s.as_array().iter().sum::<f64>() / 4.0,
            UtilityCombiner::Single(c) => s.get(c),
        }
    }

    /// Combines a batch of score vectors in one pass, writing one utility
    /// per input into `out` (cleared first). The combiner is resolved once
    /// outside the loop instead of per candidate; each element is computed
    /// by the same expression as [`combine`](Self::combine), so results are
    /// bit-identical to the scalar path.
    pub fn combine_batch(self, scores: &[CriterionScores], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(scores.len());
        match self {
            UtilityCombiner::Max => out.extend(scores.iter().map(|s| {
                s.as_array()
                    .into_iter()
                    .fold(f64::NEG_INFINITY, f64::max)
                    .max(0.0)
            })),
            UtilityCombiner::Average => out.extend(
                scores
                    .iter()
                    .map(|s| s.as_array().iter().sum::<f64>() / 4.0),
            ),
            UtilityCombiner::Single(c) => out.extend(scores.iter().map(|s| s.get(c))),
        }
    }
}

/// Dimension weights (Algorithm 2 + Equation 1).
///
/// Tracks `m_ri` — how many of the `m` rating maps displayed so far were
/// aggregated by dimension `r_i` — and exposes the DW factor
/// `1 − m_ri / m`. Two boundary cases the paper leaves implicit:
///
/// * before anything is displayed (`m = 0`) every dimension weighs 1;
/// * with a single rating dimension (`t = 1`, e.g. MovieLens) the fraction
///   is always 1 and Equation 1 would zero every utility, so the weight is
///   pinned to 1 — dimension diversity is vacuous there.
#[derive(Debug, Clone, PartialEq)]
pub struct DimensionWeights {
    counts: Vec<u64>,
    total: u64,
}

impl DimensionWeights {
    /// Creates weights for `dim_count` rating dimensions, nothing seen yet.
    ///
    /// # Panics
    /// Panics if `dim_count == 0`.
    pub fn new(dim_count: usize) -> Self {
        assert!(dim_count > 0, "at least one rating dimension");
        Self {
            counts: vec![0; dim_count],
            total: 0,
        }
    }

    /// Number of dimensions `t`.
    pub fn dim_count(&self) -> usize {
        self.counts.len()
    }

    /// Total maps seen, `m`.
    pub fn total_seen(&self) -> u64 {
        self.total
    }

    /// Maps seen for one dimension, `m_ri`.
    pub fn seen_for(&self, dim: DimId) -> u64 {
        self.counts[dim.index()]
    }

    /// Records that a map aggregated by `dim` was displayed.
    pub fn record_shown(&mut self, dim: DimId) {
        self.counts[dim.index()] += 1;
        self.total += 1;
    }

    /// The fraction `m_ri / m` returned by Algorithm 2's `getWeights`
    /// (0 when nothing was seen).
    pub fn fraction(&self, dim: DimId) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.counts[dim.index()] as f64 / self.total as f64
    }

    /// The DW factor `1 − m_ri / m` of Equation 1 (with the boundary cases
    /// documented on the type).
    pub fn dw_factor(&self, dim: DimId) -> f64 {
        if self.total == 0 || self.counts.len() == 1 {
            return 1.0;
        }
        1.0 - self.fraction(dim)
    }

    /// Applies Equation 1: `û = dw_factor(dim) · u`.
    pub fn weighted(&self, dim: DimId, utility: f64) -> f64 {
        self.dw_factor(dim) * utility
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scores(c: f64, a: f64, s: f64, g: f64) -> CriterionScores {
        CriterionScores {
            conciseness: c,
            agreement: a,
            self_peculiarity: s,
            global_peculiarity: g,
        }
    }

    #[test]
    fn max_combiner_picks_largest() {
        let s = scores(0.2, 0.9, 0.5, 0.1);
        assert_eq!(UtilityCombiner::Max.combine(&s), 0.9);
    }

    #[test]
    fn average_combiner() {
        let s = scores(0.2, 0.4, 0.6, 0.8);
        assert!((UtilityCombiner::Average.combine(&s) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn single_combiner() {
        let s = scores(0.2, 0.4, 0.6, 0.8);
        assert_eq!(
            UtilityCombiner::Single(Criterion::SelfPeculiarity).combine(&s),
            0.6
        );
    }

    #[test]
    fn paper_equation1_example() {
        // Paper's Section 3.2.3 example: m = 10, m_r1 = m_r2 = m_r3 = 3,
        // m_r4 = 1; u(rm_r2) = 0.6 → û = 0.7·0.6 = 0.42;
        // u(rm'_r4) = 0.8 → û = 0.9·0.8 = 0.72.
        let mut w = DimensionWeights::new(4);
        for (dim, n) in [(0u16, 3u64), (1, 3), (2, 3), (3, 1)] {
            for _ in 0..n {
                w.record_shown(DimId(dim));
            }
        }
        assert_eq!(w.total_seen(), 10);
        assert!((w.weighted(DimId(1), 0.6) - 0.42).abs() < 1e-12);
        assert!((w.weighted(DimId(3), 0.8) - 0.72).abs() < 1e-12);
    }

    #[test]
    fn no_history_weighs_one() {
        let w = DimensionWeights::new(4);
        assert_eq!(w.dw_factor(DimId(2)), 1.0);
        assert_eq!(w.fraction(DimId(2)), 0.0);
    }

    #[test]
    fn single_dimension_never_zeroed() {
        let mut w = DimensionWeights::new(1);
        for _ in 0..5 {
            w.record_shown(DimId(0));
        }
        assert_eq!(w.dw_factor(DimId(0)), 1.0, "t = 1 pins the weight to 1");
    }

    #[test]
    fn saturated_dimension_fully_demoted() {
        let mut w = DimensionWeights::new(2);
        w.record_shown(DimId(0));
        w.record_shown(DimId(0));
        assert_eq!(w.dw_factor(DimId(0)), 0.0);
        assert_eq!(w.dw_factor(DimId(1)), 1.0);
    }

    #[test]
    fn max_combiner_clamps_at_zero() {
        let s = scores(-0.5, -0.1, -0.2, -0.9);
        assert_eq!(UtilityCombiner::Max.combine(&s), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_dims_panics() {
        let _ = DimensionWeights::new(0);
    }
}
