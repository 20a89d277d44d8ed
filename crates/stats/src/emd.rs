//! Exact Earth Mover's Distance between weighted point sets.
//!
//! The paper measures the diversity of a set of rating maps with the EMD
//! (Section 3.2.4). A rating map is a *set* of weighted subgroup
//! distributions, so comparing two maps requires the general EMD — an
//! optimal-transport problem — rather than the closed-form 1-D version.
//! This module implements an exact transportation solver using successive
//! shortest augmenting paths with node potentials (a standard min-cost-flow
//! formulation). Instances are small (tens of subgroups per map), so the
//! solver favors clarity and exactness over asymptotic sophistication.

/// Numerical tolerance under which supplies/demands are considered consumed.
const EPS: f64 = 1e-12;

/// Batched normalized 1-D EMD of many score-major CDF columns against one
/// reference CDF — the vectorized
/// [`emd_1d_normalized_from_cdfs`](crate::distance::emd_1d_normalized_from_cdfs):
/// `out[i] = Σ_j |cdfs_ij − ref_j| / (m − 1)` (0 when `m <= 1`), dispatched
/// through the process-wide [`kernels::active`](crate::kernels::active)
/// SIMD path. This is the mixture-CDF lower-bound primitive of GMM
/// selection.
pub fn emd_1d_normalized_rows(cdfs: &[f64], lanes: usize, reference: &[f64], out: &mut Vec<f64>) {
    crate::kernels::l1_norm_rows(
        crate::kernels::active(),
        cdfs,
        lanes,
        reference.len(),
        reference,
        out,
    );
}

/// Ground-cost matrix between two score-major CDF batches: each cell is the
/// normalized 1-D EMD between one left column and one right column,
/// bit-identical to
/// [`emd_1d_normalized_from_cdfs`](crate::distance::emd_1d_normalized_from_cdfs)
/// per pair, dispatched through the process-wide
/// [`kernels::active`](crate::kernels::active) SIMD path.
pub fn emd_cost_matrix(
    a: &[f64],
    a_lanes: usize,
    b: &[f64],
    b_lanes: usize,
    scale: usize,
    out: &mut Vec<f64>,
) {
    crate::kernels::cost_matrix(crate::kernels::active(), a, a_lanes, b, b_lanes, scale, out);
}

/// Solves the balanced transportation problem exactly.
///
/// `supplies[i]` units must be shipped from source `i`, `demands[j]` units
/// received by sink `j`, with `cost(i, j)` the per-unit shipping cost.
/// Returns the minimum total cost.
///
/// Supplies and demands must be non-negative; the totals are normalized to
/// match (the EMD convention: both sides are treated as probability masses),
/// so callers may pass unnormalized weights.
///
/// # Panics
/// Panics if either side is empty, if any weight is negative or non-finite,
/// or if either side has zero total mass.
pub fn emd_transport<F>(supplies: &[f64], demands: &[f64], cost: F) -> f64
where
    F: Fn(usize, usize) -> f64,
{
    validate_sides(supplies, demands);
    let n = supplies.len();
    let m = demands.len();
    // Cost matrix, cached once.
    let mut c = vec![0.0f64; n * m];
    for i in 0..n {
        for j in 0..m {
            let v = cost(i, j);
            assert!(
                v.is_finite() && v >= -EPS,
                "ground distances must be non-negative"
            );
            c[i * m + j] = v.max(0.0);
        }
    }
    transport_on_matrix(
        supplies,
        demands,
        &c,
        true,
        &mut TransportScratch::default(),
    )
}

/// [`emd_transport`] over a pre-built row-major cost matrix
/// (`costs[i * demands.len() + j]` is the unit cost from source `i` to sink
/// `j`), so batched callers — the map-distance engine — can assemble the
/// ground costs once in a reusable scratch buffer and hand a slice in,
/// instead of paying a closure call per cell.
///
/// # Panics
/// Panics on the same side conditions as [`emd_transport`], if
/// `costs.len() != supplies.len() * demands.len()`, or if any cost is
/// negative or non-finite.
pub fn emd_transport_matrix(supplies: &[f64], demands: &[f64], costs: &[f64]) -> f64 {
    emd_transport_matrix_with(supplies, demands, costs, &mut TransportScratch::default())
}

/// [`emd_transport_matrix`] over caller-pooled solver buffers: the same
/// bits for every instance, without the per-call allocations.
///
/// # Panics
/// Panics on the same conditions as [`emd_transport_matrix`].
pub fn emd_transport_matrix_with(
    supplies: &[f64],
    demands: &[f64],
    costs: &[f64],
    scratch: &mut TransportScratch,
) -> f64 {
    validate_sides(supplies, demands);
    validate_costs(supplies.len(), demands.len(), costs);
    transport_on_matrix(supplies, demands, costs, true, scratch)
}

/// [`emd_transport_matrix`] with the single-subgroup closed-form fast path
/// disabled, forcing the augmenting-path solver even on `1 × m` / `n × 1`
/// instances. Exists so property tests can pin the fast path against the
/// general solver; not part of the supported API.
#[doc(hidden)]
pub fn emd_transport_general(supplies: &[f64], demands: &[f64], costs: &[f64]) -> f64 {
    validate_sides(supplies, demands);
    validate_costs(supplies.len(), demands.len(), costs);
    transport_on_matrix(
        supplies,
        demands,
        costs,
        false,
        &mut TransportScratch::default(),
    )
}

fn validate_sides(supplies: &[f64], demands: &[f64]) {
    assert!(
        !supplies.is_empty() && !demands.is_empty(),
        "EMD requires non-empty point sets"
    );
    for &w in supplies.iter().chain(demands) {
        assert!(
            w.is_finite() && w >= 0.0,
            "weights must be finite and non-negative"
        );
    }
    let total_s: f64 = supplies.iter().sum();
    let total_d: f64 = demands.iter().sum();
    assert!(
        total_s > 0.0 && total_d > 0.0,
        "total mass must be positive"
    );
}

fn validate_costs(n: usize, m: usize, costs: &[f64]) {
    assert_eq!(costs.len(), n * m, "cost matrix must be row-major n × m");
    for &v in costs {
        assert!(
            v.is_finite() && v >= 0.0,
            "ground distances must be non-negative"
        );
    }
}

/// Reusable buffers of the augmenting-path solver: the normalized
/// supplies and demands, the flow matrix, and the Bellman–Ford state, each
/// grown to the largest instance seen. A caller that solves many instances
/// (the map-distance engine) holds one and allocates nothing per solve;
/// results do not depend on what the buffers held before.
#[derive(Debug, Default)]
pub struct TransportScratch {
    supply: Vec<f64>,
    demand: Vec<f64>,
    flow: Vec<f64>,
    dist: Vec<f64>,
    pred: Vec<Option<usize>>,
    /// Whether the node's distance decreased since its out-arcs were last
    /// relaxed (see `transport_on_matrix`).
    dirty: Vec<bool>,
    path: Vec<(usize, usize, bool)>,
}

/// Core dispatch over a validated instance: closed-form when one side is a
/// single point (every unit of mass must ship to/from it, so the optimum is
/// the demand- or supply-weighted average of that row/column of ground
/// costs — no flow search needed), the augmenting-path solver otherwise.
fn transport_on_matrix(
    supplies: &[f64],
    demands: &[f64],
    c: &[f64],
    fast_path: bool,
    scratch: &mut TransportScratch,
) -> f64 {
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

    let TransportScratch {
        supply,
        demand,
        flow,
        dist,
        pred,
        dirty,
        path,
    } = scratch;
    supply.clear();
    supply.extend(supplies.iter().map(|&s| s / total_s));
    demand.clear();
    demand.extend(demands.iter().map(|&d| d / total_d));

    // flow[i*m + j] — current shipment from source i to sink j.
    flow.clear();
    flow.resize(n * m, 0.0);
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
        // sources with remaining supply. A node is relaxed only while it is
        // dirty — its distance decreased since its out-arcs were last
        // relaxed. Relaxing an unchanged distance repeats the same `nd`
        // onto targets whose distances have only decreased since, so
        // `nd + EPS < dist` cannot pass: skipping it changes no update,
        // and the passes, `dist`, `pred` and the path below are the ones
        // relaxing every reached node gives. Every dirty node has a finite
        // distance.
        dist.clear();
        dist.resize(node_count, f64::INFINITY);
        pred.clear();
        pred.resize(node_count, None);
        dirty.clear();
        dirty.resize(node_count, false);
        for (i, &s) in supply.iter().enumerate() {
            if s > EPS {
                dist[i] = 0.0;
                dirty[i] = true;
            }
        }
        for _ in 0..node_count {
            let mut changed = false;
            for i in 0..n {
                if dirty[i] {
                    dirty[i] = false;
                    for j in 0..m {
                        let nd = dist[i] + c[i * m + j];
                        if nd + EPS < dist[n + j] {
                            dist[n + j] = nd;
                            pred[n + j] = Some(i);
                            dirty[n + j] = true;
                            changed = true;
                        }
                    }
                }
            }
            for j in 0..m {
                if dirty[n + j] {
                    dirty[n + j] = false;
                    for i in 0..n {
                        if flow[i * m + j] > EPS {
                            let nd = dist[n + j] - c[i * m + j];
                            if nd + EPS < dist[i] {
                                dist[i] = nd;
                                pred[i] = Some(n + j);
                                dirty[i] = true;
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

        // Trace the augmenting path back to a source, recording arcs as
        // (i, j, forward).
        path.clear();
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
        for &(i, j, forward) in path.iter() {
            if !forward {
                push = push.min(flow[i * m + j]);
            }
        }
        debug_assert!(push > 0.0);

        for &(i, j, forward) in path.iter() {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::emd_1d;
    use crate::distribution::RatingDistribution;

    #[test]
    fn identity_costs_zero() {
        let w = [0.25, 0.75];
        let d = emd_transport(&w, &w, |i, j| if i == j { 0.0 } else { 1.0 });
        assert!(d.abs() < 1e-9);
    }

    #[test]
    fn single_source_single_sink() {
        let d = emd_transport(&[1.0], &[1.0], |_, _| 3.5);
        assert!((d - 3.5).abs() < 1e-9);
    }

    #[test]
    fn two_by_two_crossing() {
        // Staying in place is free, crossing costs 1. Masses 0.7/0.3 vs
        // 0.3/0.7: the 0.4 surplus at source 0 must cross, everything else
        // stays. Optimal cost 0.4.
        let s = [0.7, 0.3];
        let t = [0.3, 0.7];
        let d = emd_transport(&s, &t, |i, j| if i == j { 0.0 } else { 1.0 });
        assert!((d - 0.4).abs() < 1e-9, "got {d}");
    }

    #[test]
    fn matches_closed_form_1d() {
        let cases: Vec<(Vec<u64>, Vec<u64>)> = vec![
            (vec![10, 0, 0, 0, 0], vec![0, 0, 0, 0, 10]),
            (vec![1, 2, 3, 4, 5], vec![5, 4, 3, 2, 1]),
            (vec![1, 1, 1, 1, 1], vec![0, 0, 5, 0, 0]),
            (vec![7, 0, 2, 0, 1], vec![1, 0, 2, 0, 7]),
        ];
        for (a, b) in cases {
            let da = RatingDistribution::from_counts(a);
            let db = RatingDistribution::from_counts(b);
            let closed = emd_1d(&da, &db);
            let general = emd_transport(&da.probabilities(), &db.probabilities(), |i, j| {
                (i as f64 - j as f64).abs()
            });
            assert!(
                (closed - general).abs() < 1e-8,
                "closed {closed} vs transport {general}"
            );
        }
    }

    #[test]
    fn unnormalized_weights_are_normalized() {
        let a = emd_transport(&[2.0, 2.0], &[1.0, 1.0], |i, j| (i as f64 - j as f64).abs());
        assert!(a.abs() < 1e-9);
    }

    #[test]
    fn symmetric_for_metric_ground_distance() {
        let s = [0.2, 0.5, 0.3];
        let t = [0.6, 0.1, 0.3];
        let d1 = emd_transport(&s, &t, |i, j| (i as f64 - j as f64).abs());
        let d2 = emd_transport(&t, &s, |i, j| (i as f64 - j as f64).abs());
        assert!((d1 - d2).abs() < 1e-9);
    }

    #[test]
    fn requires_rerouting_through_residual_arcs() {
        // A case where greedy nearest-neighbor matching is suboptimal:
        // sources at 0 and 2; sinks at 1.1 and 2 on a line.
        // Greedy from source 2 would take sink 2, forcing source 0 → 1.1,
        // total 0 + 1.1 = 1.1; that is also optimal here. Flip weights so
        // splitting is needed.
        let pos_s = [0.0f64, 2.0];
        let pos_t = [1.1f64, 2.0];
        let s = [0.5, 0.5];
        let t = [0.9, 0.1];
        let d = emd_transport(&s, &t, |i, j| (pos_s[i] - pos_t[j]).abs());
        // Optimal: s0(0.5)→t0 cost .55; s1: 0.4→t0 cost 0.9*0.4=.36,
        // 0.1→t1 cost 0. Total 0.91.
        assert!((d - 0.91).abs() < 1e-9, "got {d}");
    }

    #[test]
    fn matrix_api_matches_closure_api() {
        let s = [0.2, 0.5, 0.3];
        let t = [0.6, 0.1, 0.3];
        let costs: Vec<f64> = (0..3)
            .flat_map(|i| (0..3).map(move |j| (i as f64 - j as f64).abs()))
            .collect();
        let via_closure = emd_transport(&s, &t, |i, j| (i as f64 - j as f64).abs());
        let via_matrix = emd_transport_matrix(&s, &t, &costs);
        assert!((via_closure - via_matrix).abs() < 1e-12);
    }

    #[test]
    fn single_source_fast_path_matches_general() {
        let s = [2.5];
        let t = [0.1, 0.4, 0.2, 0.3];
        let costs = [1.0, 0.25, 0.0, 2.0];
        let fast = emd_transport_matrix(&s, &t, &costs);
        let general = emd_transport_general(&s, &t, &costs);
        // Closed form: demand-weighted average of ground costs.
        let expect = 0.1 * 1.0 + 0.4 * 0.25 + 0.2 * 0.0 + 0.3 * 2.0;
        assert!((fast - expect).abs() < 1e-12, "got {fast}");
        assert!((fast - general).abs() < 1e-9);
    }

    #[test]
    fn single_sink_fast_path_matches_general() {
        let s = [3.0, 1.0];
        let t = [5.0];
        let costs = [0.5, 1.5];
        let fast = emd_transport_matrix(&s, &t, &costs);
        let general = emd_transport_general(&s, &t, &costs);
        let expect = 0.75 * 0.5 + 0.25 * 1.5;
        assert!((fast - expect).abs() < 1e-12, "got {fast}");
        assert!((fast - general).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "row-major")]
    fn matrix_wrong_shape_panics() {
        let _ = emd_transport_matrix(&[1.0, 1.0], &[1.0], &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_side_panics() {
        let _ = emd_transport(&[], &[1.0], |_, _| 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mass_panics() {
        let _ = emd_transport(&[0.0], &[1.0], |_, _| 0.0);
    }
}
