//! Pruning-based optimizations (Section 4.2.1).
//!
//! Two schemes, both adapted from SeeDB \[54\]:
//!
//! * **Confidence-interval pruning** (Algorithm 3). Each candidate carries
//!   four criterion intervals (Hoeffding–Serfling around the running
//!   normalized estimates). Intervals entirely dominated by a sibling
//!   criterion are discarded; the surviving envelope — upper bound = max
//!   remaining upper bound, lower bound = min remaining lower bound, as the
//!   paper specifies — is scaled by the dimension weight, and a candidate
//!   whose upper bound falls below the lowest lower bound of the current
//!   top-`k′` is pruned.
//! * **MAB pruning** — the Successive Accepts and Rejects strategy of
//!   Bubeck et al. \[13\]: once per phase, either confidently *accept* the
//!   best remaining arm into the top-`k′` or *reject* the worst, whichever
//!   gap is larger.

use subdex_stats::ConfidenceInterval;

/// Which pruning optimizations a generator run uses. The scalability
/// baselines of Section 5.1 are exactly these variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PruningStrategy {
    /// No pruning: every candidate is fully evaluated ("No-Pruning").
    None,
    /// Confidence-interval pruning only ("CI Pruning").
    ConfidenceInterval,
    /// Multi-armed-bandit pruning only ("MAB Pruning").
    Mab,
    /// Both schemes — the full SubDEx configuration.
    #[default]
    Both,
}

impl PruningStrategy {
    /// Whether CI pruning is active.
    pub fn uses_ci(self) -> bool {
        matches!(
            self,
            PruningStrategy::ConfidenceInterval | PruningStrategy::Both
        )
    }

    /// Whether MAB pruning is active.
    pub fn uses_mab(self) -> bool {
        matches!(self, PruningStrategy::Mab | PruningStrategy::Both)
    }
}

/// Algorithm 3, lines 1–11: collapse the four criterion intervals into one
/// utility envelope and scale it by the dimension weight.
///
/// Ordering intervals by upper bound, dominated intervals (entirely below
/// the leading one) do not contribute; among the overlapping rest the upper
/// bound is the largest upper bound and the lower bound the smallest lower
/// bound (the paper's — sound, slightly conservative — choice).
///
/// Sorts `criteria` in place (stable, by descending upper bound), so the
/// caller's buffer — the generator's four intervals on the stack — is the
/// sort buffer.
pub fn utility_envelope(criteria: &mut [ConfidenceInterval], weight: f64) -> ConfidenceInterval {
    assert!(!criteria.is_empty(), "at least one criterion interval");
    criteria.sort_by(|a, b| b.hi.partial_cmp(&a.hi).unwrap_or(std::cmp::Ordering::Equal));
    let mut ub = criteria[0].hi;
    let mut lb = criteria[0].lo;
    for i in &criteria[1..] {
        if i.hi < lb {
            // Entirely below the current envelope: can never define the max.
            continue;
        }
        ub = ub.max(i.hi);
        lb = lb.min(i.lo);
    }
    ConfidenceInterval::new(lb, ub).scale(weight)
}

/// Algorithm 3, lines 12–17: marks which candidates survive.
///
/// Candidates are ranked by envelope upper bound; with `k′` slots, any
/// candidate outside the top `k′` whose upper bound is below the lowest
/// lower bound among the top `k′` cannot (w.h.p.) belong to the result and
/// is dropped. Returns a keep-mask aligned with `envelopes`.
pub fn ci_survivors(envelopes: &[ConfidenceInterval], k_prime: usize) -> Vec<bool> {
    let n = envelopes.len();
    if n <= k_prime {
        return vec![true; n];
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        envelopes[b]
            .hi
            .partial_cmp(&envelopes[a].hi)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let top = &order[..k_prime];
    let lowest_lb = top
        .iter()
        .map(|&i| envelopes[i].lo)
        .fold(f64::INFINITY, f64::min);
    let mut keep = vec![true; n];
    for &i in &order[k_prime..] {
        if envelopes[i].hi < lowest_lb {
            keep[i] = false;
        }
    }
    keep
}

/// One decision of the Successive-Accepts-and-Rejects strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SarDecision {
    /// Arm (by caller index) is confidently in the top set; freeze it.
    Accept(usize),
    /// Arm (by caller index) is confidently out; drop it.
    Reject(usize),
    /// No confident decision this phase (too few active arms).
    Nothing,
}

/// Successive Accepts and Rejects over the generator's phases.
///
/// `remaining_slots` counts top-set positions not yet filled by accepted
/// arms. Each call to [`SarState::decide`] inspects the active arms' current
/// mean utilities and accepts the best or rejects the worst, per the gap
/// comparison the paper describes: Δ₁ (best minus the (k′+1)-th mean)
/// against Δ₂ (the k′-th mean minus the worst).
#[derive(Debug, Clone)]
pub struct SarState {
    remaining_slots: usize,
}

impl SarState {
    /// Creates the state for a top-`k_prime` selection.
    pub fn new(k_prime: usize) -> Self {
        Self {
            remaining_slots: k_prime,
        }
    }

    /// Slots not yet filled.
    pub fn remaining_slots(&self) -> usize {
        self.remaining_slots
    }

    /// Decides one accept/reject given `(caller_index, mean)` pairs of the
    /// *active* (not yet accepted/rejected) arms. Call once per phase.
    pub fn decide(&mut self, means: &[(usize, f64)]) -> SarDecision {
        let n = means.len();
        if self.remaining_slots == 0 || n <= self.remaining_slots || n < 2 {
            return SarDecision::Nothing;
        }
        let mut sorted: Vec<(usize, f64)> = means.to_vec();
        sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let k = self.remaining_slots;
        // Δ1: top arm vs the best arm that would be excluded.
        let delta1 = sorted[0].1 - sorted[k].1;
        // Δ2: the worst arm vs the last arm that would be included.
        let delta2 = sorted[k - 1].1 - sorted[n - 1].1;
        if delta1 > delta2 {
            self.remaining_slots -= 1;
            SarDecision::Accept(sorted[0].0)
        } else {
            SarDecision::Reject(sorted[n - 1].0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ci(lo: f64, hi: f64) -> ConfidenceInterval {
        ConfidenceInterval::new(lo, hi)
    }

    #[test]
    fn strategy_flags() {
        assert!(PruningStrategy::Both.uses_ci() && PruningStrategy::Both.uses_mab());
        assert!(PruningStrategy::ConfidenceInterval.uses_ci());
        assert!(!PruningStrategy::ConfidenceInterval.uses_mab());
        assert!(!PruningStrategy::None.uses_ci() && !PruningStrategy::None.uses_mab());
    }

    #[test]
    fn envelope_drops_dominated_interval() {
        // Figure 6's rm1: envelope from global-peculiarity's ub down to
        // agreement's lb; a self-peculiarity interval entirely below is
        // ignored.
        let glob = ci(0.6, 0.9);
        let agr = ci(0.5, 0.7);
        let dominated = ci(0.1, 0.2);
        let env = utility_envelope(&mut [glob, agr, dominated], 1.0);
        assert_eq!((env.lo, env.hi), (0.5, 0.9));
    }

    #[test]
    fn envelope_keeps_overlapping_intervals() {
        let a = ci(0.4, 0.9);
        let b = ci(0.3, 0.5); // overlaps the envelope → extends lb
        let env = utility_envelope(&mut [a, b], 1.0);
        assert_eq!((env.lo, env.hi), (0.3, 0.9));
    }

    #[test]
    fn envelope_applies_weight() {
        let env = utility_envelope(&mut [ci(0.4, 0.8)], 0.5);
        assert!((env.lo - 0.2).abs() < 1e-12 && (env.hi - 0.4).abs() < 1e-12);
    }

    #[test]
    fn ci_survivors_prunes_clearly_low() {
        // Figure 6: rm3 entirely below rm1 and rm2 → pruned at k' = 2.
        let rm1 = ci(0.5, 0.9);
        let rm2 = ci(0.45, 0.8);
        let rm3 = ci(0.1, 0.3);
        let keep = ci_survivors(&[rm1, rm2, rm3], 2);
        assert_eq!(keep, vec![true, true, false]);
    }

    #[test]
    fn ci_survivors_keeps_overlapping() {
        let a = ci(0.5, 0.9);
        let b = ci(0.4, 0.8);
        let c = ci(0.45, 0.6); // overlaps the top-2's lowest lb (0.4)
        let keep = ci_survivors(&[a, b, c], 2);
        assert_eq!(keep, vec![true, true, true]);
    }

    #[test]
    fn ci_survivors_all_kept_when_few() {
        let keep = ci_survivors(&[ci(0.0, 0.1), ci(0.2, 0.3)], 5);
        assert_eq!(keep, vec![true, true]);
    }

    #[test]
    fn sar_accepts_clear_winner() {
        let mut s = SarState::new(2);
        // Arm 7 far ahead; bottom is bunched → Δ1 > Δ2.
        let means = vec![(7, 0.95), (1, 0.50), (2, 0.48), (3, 0.47)];
        assert_eq!(s.decide(&means), SarDecision::Accept(7));
        assert_eq!(s.remaining_slots(), 1);
    }

    #[test]
    fn sar_rejects_clear_loser() {
        let mut s = SarState::new(2);
        // Top bunched; arm 9 far behind → Δ2 > Δ1.
        let means = vec![(1, 0.52), (2, 0.51), (3, 0.50), (9, 0.05)];
        assert_eq!(s.decide(&means), SarDecision::Reject(9));
        assert_eq!(s.remaining_slots(), 2, "rejection keeps slots");
    }

    #[test]
    fn sar_nothing_when_no_excess() {
        let mut s = SarState::new(3);
        let means = vec![(0, 0.9), (1, 0.8), (2, 0.7)];
        assert_eq!(s.decide(&means), SarDecision::Nothing);
    }

    #[test]
    fn sar_single_slot_rejects_down_to_winner() {
        // With one slot, Δ2 = (top − bottom) ≥ Δ1 = (top − second), so SAR
        // eliminates from the bottom until only the winner remains.
        let mut s = SarState::new(1);
        assert_eq!(
            s.decide(&[(0, 0.99), (1, 0.01), (2, 0.02)]),
            SarDecision::Reject(1)
        );
        assert_eq!(s.decide(&[(0, 0.99), (2, 0.02)]), SarDecision::Reject(2));
        assert_eq!(
            s.decide(&[(0, 0.99)]),
            SarDecision::Nothing,
            "only the top set remains"
        );
        assert_eq!(s.remaining_slots(), 1);
    }

    #[test]
    fn sar_sequence_converges_to_topk() {
        // Repeatedly applying decisions must isolate the true top-2.
        let mut s = SarState::new(2);
        let mut active: Vec<(usize, f64)> = vec![(0, 0.9), (1, 0.85), (2, 0.3), (3, 0.2), (4, 0.1)];
        let mut accepted = Vec::new();
        loop {
            match s.decide(&active) {
                SarDecision::Accept(i) => {
                    accepted.push(i);
                    active.retain(|&(j, _)| j != i);
                }
                SarDecision::Reject(i) => active.retain(|&(j, _)| j != i),
                SarDecision::Nothing => break,
            }
        }
        let mut survivors: Vec<usize> = accepted
            .into_iter()
            .chain(active.iter().map(|&(i, _)| i))
            .collect();
        survivors.sort_unstable();
        assert_eq!(survivors, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_envelope_panics() {
        let _ = utility_envelope(&mut [], 1.0);
    }
}
