//! Bit-identity pins for the transportation solver.
//!
//! `reference_transport` below is the augmenting-path solver as it was
//! before it moved its buffers into [`TransportScratch`] and began skipping
//! Bellman–Ford relaxations that cannot fire, kept verbatim (only renamed).
//! The current solver must return the same `to_bits` on every instance:
//! fresh or reused scratch, general path or closed-form dispatch.
//!
//! Instances follow the map-distance engine's: subgroup weights are record
//! counts, and ground costs are normalized 1-D EMDs between 5-point rating
//! CDFs. Duplicate subgroups and all-zero cost rows are generated on
//! purpose, since they produce ties in the shortest-path search.

use proptest::prelude::*;
use subdex_stats::distance::emd_1d_normalized_from_cdfs;
use subdex_stats::emd::{
    emd_transport_general, emd_transport_matrix, emd_transport_matrix_with, TransportScratch,
};
use subdex_stats::RatingDistribution;

/// Numerical tolerance of the reference solver (the library's value).
const EPS: f64 = 1e-12;

/// Core dispatch over a validated instance: closed-form when one side is a
/// single point (every unit of mass must ship to/from it, so the optimum is
/// the demand- or supply-weighted average of that row/column of ground
/// costs — no flow search needed), the augmenting-path solver otherwise.
fn reference_transport(supplies: &[f64], demands: &[f64], c: &[f64], fast_path: bool) -> f64 {
    let n = supplies.len();
    let m = demands.len();
    let total_s: f64 = supplies.iter().sum();
    let total_d: f64 = demands.iter().sum();

    if fast_path && n == 1 {
        let d: f64 = demands
            .iter()
            .zip(c)
            .map(|(&w, &cost)| (w / total_d) * cost)
            .sum();
        return d.max(0.0);
    }
    if fast_path && m == 1 {
        let d: f64 = supplies
            .iter()
            .zip(c)
            .map(|(&w, &cost)| (w / total_s) * cost)
            .sum();
        return d.max(0.0);
    }

    let mut supply: Vec<f64> = supplies.iter().map(|&s| s / total_s).collect();
    let mut demand: Vec<f64> = demands.iter().map(|&d| d / total_d).collect();

    // flow[i*m + j] — current shipment from source i to sink j.
    let mut flow = vec![0.0f64; n * m];
    let mut total_cost = 0.0f64;

    // Successive shortest paths on the residual network. Nodes:
    // 0..n sources, n..n+m sinks. Forward arcs i→j (cost c[i][j],
    // unlimited capacity), backward arcs j→i (cost −c[i][j], capacity
    // flow[i][j]). Each augmentation ships along a min-cost path from some
    // source with remaining supply to some sink with remaining demand.
    // Bellman–Ford is used for path-finding: the graphs are tiny and
    // residual costs can be negative.
    let node_count = n + m;
    let max_iters = 4 * (n + m) * (n + m) + 16;
    let mut iter_guard = 0;
    loop {
        iter_guard += 1;
        assert!(
            iter_guard <= max_iters,
            "transportation solver failed to converge (numerical issue)"
        );

        let remaining: f64 = supply.iter().sum();
        if remaining <= EPS {
            break;
        }

        // Bellman–Ford from a virtual super-source connected (cost 0) to all
        // sources with remaining supply.
        let mut dist = vec![f64::INFINITY; node_count];
        let mut pred: Vec<Option<usize>> = vec![None; node_count];
        for (i, &s) in supply.iter().enumerate() {
            if s > EPS {
                dist[i] = 0.0;
            }
        }
        for _ in 0..node_count {
            let mut changed = false;
            for i in 0..n {
                if dist[i].is_finite() {
                    for j in 0..m {
                        let nd = dist[i] + c[i * m + j];
                        if nd + EPS < dist[n + j] {
                            dist[n + j] = nd;
                            pred[n + j] = Some(i);
                            changed = true;
                        }
                    }
                }
            }
            for j in 0..m {
                if dist[n + j].is_finite() {
                    for i in 0..n {
                        if flow[i * m + j] > EPS {
                            let nd = dist[n + j] - c[i * m + j];
                            if nd + EPS < dist[i] {
                                dist[i] = nd;
                                pred[i] = Some(n + j);
                                changed = true;
                            }
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Cheapest reachable sink with remaining demand.
        let target = (0..m)
            .filter(|&j| demand[j] > EPS && dist[n + j].is_finite())
            .min_by(|&a, &b| dist[n + a].partial_cmp(&dist[n + b]).unwrap());
        let Some(t) = target else {
            // All remaining demand unreachable: only possible when the
            // remaining mass is numerical dust.
            debug_assert!(
                remaining <= 1e-6,
                "unreachable demand with mass {remaining}"
            );
            break;
        };

        // Trace the augmenting path back to a source, recording arcs.
        let mut path: Vec<(usize, usize, bool)> = Vec::new(); // (i, j, forward)
        let mut node = n + t;
        loop {
            match pred[node] {
                Some(p) if node >= n => {
                    // forward arc p(source) → node(sink)
                    path.push((p, node - n, true));
                    node = p;
                }
                Some(p) => {
                    // backward arc p(sink) → node(source)
                    path.push((node, p - n, false));
                    node = p;
                }
                None => break,
            }
        }
        let src = node;
        debug_assert!(src < n && supply[src] > EPS);

        // Bottleneck: remaining supply, remaining demand, and backward flows.
        let mut push = supply[src].min(demand[t]);
        for &(i, j, forward) in &path {
            if !forward {
                push = push.min(flow[i * m + j]);
            }
        }
        debug_assert!(push > 0.0);

        for &(i, j, forward) in &path {
            if forward {
                flow[i * m + j] += push;
                total_cost += push * c[i * m + j];
            } else {
                flow[i * m + j] -= push;
                total_cost -= push * c[i * m + j];
            }
        }
        supply[src] -= push;
        demand[t] -= push;
    }

    total_cost.max(0.0)
}

/// One side of an instance: per-subgroup record weights and rating counts.
type Side = Vec<(u32, Vec<u64>)>;

/// A side of 2..=16 subgroups with weights in 1..=500. Each subgroup after
/// the first copies its predecessor's ratings when its `dup` flag is set.
fn side() -> impl Strategy<Value = Side> {
    prop::collection::vec(
        (
            1u32..=500,
            prop::collection::vec(0u64..6, 5usize),
            prop::bool::ANY,
        ),
        2usize..=16,
    )
    .prop_map(|rows| {
        let mut out: Side = Vec::with_capacity(rows.len());
        for (w, mut counts, dup) in rows {
            if dup {
                if let Some((_, prev)) = out.last() {
                    counts = prev.clone();
                }
            }
            if counts.iter().all(|&c| c == 0) {
                counts[2] = 1;
            }
            out.push((w, counts));
        }
        out
    })
}

/// A full instance: both sides, and a row index whose costs are zeroed
/// when the flag is set.
fn instance() -> impl Strategy<Value = (Side, Side, usize, bool)> {
    (side(), side(), 0usize..16, prop::bool::ANY)
}

fn cdf(counts: &[u64]) -> Vec<f64> {
    RatingDistribution::from_counts(counts.to_vec()).cdf()
}

/// Supplies, demands and the row-major ground-cost matrix of an instance.
fn build(a: &Side, b: &Side, zero_row: usize, zero: bool) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let supplies: Vec<f64> = a.iter().map(|(w, _)| f64::from(*w)).collect();
    let demands: Vec<f64> = b.iter().map(|(w, _)| f64::from(*w)).collect();
    let cdfs_b: Vec<Vec<f64>> = b.iter().map(|(_, c)| cdf(c)).collect();
    let mut costs = Vec::with_capacity(a.len() * b.len());
    for (_, counts) in a {
        let ca = cdf(counts);
        costs.extend(cdfs_b.iter().map(|cb| emd_1d_normalized_from_cdfs(&ca, cb)));
    }
    if zero {
        let row = zero_row % a.len();
        costs[row * b.len()..(row + 1) * b.len()].fill(0.0);
    }
    (supplies, demands, costs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The general path and the dispatching entry point both return the
    /// reference solver's bits.
    #[test]
    fn solver_matches_reference_bitwise((a, b, zero_row, zero) in instance()) {
        let (s, d, c) = build(&a, &b, zero_row, zero);
        let want = reference_transport(&s, &d, &c, false).to_bits();
        prop_assert_eq!(emd_transport_general(&s, &d, &c).to_bits(), want);
        prop_assert_eq!(emd_transport_matrix(&s, &d, &c).to_bits(), want);
    }

    /// A scratch that solved other instances first (larger, smaller, or the
    /// same instance transposed) gives the same bits as a fresh one.
    #[test]
    fn reused_scratch_matches_reference_bitwise(
        (a, b, zero_row, zero) in instance(),
        (x, y, other_row, other_zero) in instance(),
    ) {
        let (s, d, c) = build(&a, &b, zero_row, zero);
        let (s2, d2, c2) = build(&x, &y, other_row, other_zero);
        let mut scratch = TransportScratch::default();
        let warm_up = emd_transport_matrix_with(&s2, &d2, &c2, &mut scratch);
        prop_assert_eq!(warm_up.to_bits(), reference_transport(&s2, &d2, &c2, true).to_bits());
        let got = emd_transport_matrix_with(&s, &d, &c, &mut scratch);
        prop_assert_eq!(got.to_bits(), reference_transport(&s, &d, &c, true).to_bits());
        let again = emd_transport_matrix_with(&s, &d, &c, &mut scratch);
        prop_assert_eq!(again.to_bits(), got.to_bits());
    }
}

/// Single-subgroup sides take the closed form in both solvers; a reused
/// scratch is untouched by it.
#[test]
fn closed_form_dispatch_matches_reference() {
    let mut scratch = TransportScratch::default();
    let c = [0.25, 0.0, 0.5];
    for (s, d) in [
        (vec![3.0], vec![1.0, 2.0, 7.0]),
        (vec![1.0, 2.0, 7.0], vec![3.0]),
    ] {
        let got = emd_transport_matrix_with(&s, &d, &c, &mut scratch);
        assert_eq!(
            got.to_bits(),
            reference_transport(&s, &d, &c, true).to_bits()
        );
        let general = emd_transport_general(&s, &d, &c);
        assert_eq!(
            general.to_bits(),
            reference_transport(&s, &d, &c, false).to_bits()
        );
    }
}

/// Identical subgroups on both sides with one all-zero row: every
/// shortest-path round meets ties, which the skip rule must break exactly
/// as the reference does.
#[test]
fn ties_from_duplicates_and_zero_rows_match_reference() {
    let a: Side = vec![(5, vec![1, 0, 0, 0, 1]); 4];
    let b: Side = vec![
        (7, vec![1, 0, 0, 0, 1]),
        (3, vec![0, 0, 4, 0, 0]),
        (7, vec![1, 0, 0, 0, 1]),
    ];
    for zero in [false, true] {
        let (s, d, c) = build(&a, &b, 1, zero);
        let want = reference_transport(&s, &d, &c, false).to_bits();
        assert_eq!(
            emd_transport_general(&s, &d, &c).to_bits(),
            want,
            "zero row {zero}"
        );
    }
}
