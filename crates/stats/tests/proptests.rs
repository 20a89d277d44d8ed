//! Property-based tests for the numeric substrate.

use proptest::prelude::*;
use subdex_stats::distance::{emd_1d, emd_1d_from_cdfs, emd_1d_normalized, total_variation};
use subdex_stats::emd::{emd_transport, emd_transport_general, emd_transport_matrix};
use subdex_stats::moments::RunningMoments;
use subdex_stats::normalize::ZLogisticNormalizer;
use subdex_stats::special::{f_cdf, regularized_incomplete_beta};
use subdex_stats::{HoeffdingSerfling, RatingDistribution};

fn dist_strategy() -> impl Strategy<Value = RatingDistribution> {
    prop::collection::vec(0u64..50, 5).prop_map(RatingDistribution::from_counts)
}

fn nonempty_dist() -> impl Strategy<Value = RatingDistribution> {
    dist_strategy().prop_filter("non-empty", |d| !d.is_empty())
}

proptest! {
    #[test]
    fn tvd_is_a_bounded_metric(a in dist_strategy(), b in dist_strategy(), c in dist_strategy()) {
        let ab = total_variation(&a, &b);
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert!((ab - total_variation(&b, &a)).abs() < 1e-12);
        // Triangle inequality.
        let ac = total_variation(&a, &c);
        let cb = total_variation(&c, &b);
        prop_assert!(ab <= ac + cb + 1e-12);
    }

    #[test]
    fn tvd_zero_iff_same_probabilities(a in nonempty_dist()) {
        prop_assert!(total_variation(&a, &a) < 1e-12);
    }

    #[test]
    fn emd_1d_bounded_and_symmetric(a in dist_strategy(), b in dist_strategy()) {
        let d = emd_1d(&a, &b);
        prop_assert!((0.0..=4.0 + 1e-12).contains(&d));
        prop_assert!((d - emd_1d(&b, &a)).abs() < 1e-12);
        let dn = emd_1d_normalized(&a, &b);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&dn));
    }

    #[test]
    fn emd_transport_matches_closed_form_on_line(
        a in nonempty_dist(),
        b in nonempty_dist(),
    ) {
        let closed = emd_1d(&a, &b);
        let general = emd_transport(&a.probabilities(), &b.probabilities(), |i, j| {
            (i as f64 - j as f64).abs()
        });
        prop_assert!((closed - general).abs() < 1e-7, "closed {closed} vs general {general}");
    }

    #[test]
    fn emd_transport_triangle_inequality(
        a in nonempty_dist(),
        b in nonempty_dist(),
        c in nonempty_dist(),
    ) {
        let d = |x: &RatingDistribution, y: &RatingDistribution| {
            emd_transport(&x.probabilities(), &y.probabilities(), |i, j| {
                (i as f64 - j as f64).abs()
            })
        };
        prop_assert!(d(&a, &b) <= d(&a, &c) + d(&c, &b) + 1e-7);
    }

    #[test]
    fn hoeffding_serfling_monotone_in_samples(
        n in 10u64..100_000,
        delta in 0.001f64..0.5,
    ) {
        let hs = HoeffdingSerfling::new(n, delta);
        let mut prev = f64::INFINITY;
        for s in [1u64, 2, 4, 8, 16].into_iter().filter(|&s| s < n) {
            let w = hs.half_width(s);
            prop_assert!(w <= prev + 1e-12, "widths must shrink");
            prop_assert!(w >= 0.0);
            prev = w;
        }
        prop_assert_eq!(hs.half_width(n), 0.0);
    }

    #[test]
    fn moments_merge_equals_sequential(xs in prop::collection::vec(-100.0f64..100.0, 1..60), split in 0usize..60) {
        let split = split.min(xs.len());
        let mut whole = RunningMoments::new();
        for &x in &xs { whole.push(x); }
        let mut a = RunningMoments::new();
        let mut b = RunningMoments::new();
        for &x in &xs[..split] { a.push(x); }
        for &x in &xs[split..] { b.push(x); }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        let (ma, mw) = (a.mean().unwrap(), whole.mean().unwrap());
        prop_assert!((ma - mw).abs() < 1e-9);
        let (va, vw) = (a.variance().unwrap(), whole.variance().unwrap());
        prop_assert!((va - vw).abs() < 1e-7);
    }

    #[test]
    fn normalizers_stay_in_unit_interval(
        observations in prop::collection::vec(-1e6f64..1e6, 0..50),
        probe in -1e6f64..1e6,
    ) {
        let mut z = ZLogisticNormalizer::new();
        for &x in &observations {
            z.observe(x);
        }
        let v = z.normalize(probe);
        prop_assert!((0.0..=1.0).contains(&v), "out of range: {v}");
    }

    #[test]
    fn zlogistic_is_monotone(
        observations in prop::collection::vec(-100.0f64..100.0, 3..30),
        x in -100.0f64..100.0,
        dx in 0.001f64..10.0,
    ) {
        let mut z = ZLogisticNormalizer::new();
        for &o in &observations { z.observe(o); }
        prop_assert!(z.normalize(x) <= z.normalize(x + dx) + 1e-12);
    }

    #[test]
    fn incomplete_beta_monotone_and_bounded(
        a in 0.5f64..20.0,
        b in 0.5f64..20.0,
        x1 in 0.0f64..1.0,
        x2 in 0.0f64..1.0,
    ) {
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        let vlo = regularized_incomplete_beta(a, b, lo);
        let vhi = regularized_incomplete_beta(a, b, hi);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&vlo));
        prop_assert!(vlo <= vhi + 1e-9);
    }

    #[test]
    fn f_cdf_monotone(d1 in 1.0f64..30.0, d2 in 1.0f64..30.0, f in 0.0f64..20.0, df in 0.01f64..5.0) {
        let lo = f_cdf(f, d1, d2);
        let hi = f_cdf(f + df, d1, d2);
        prop_assert!((0.0..=1.0).contains(&lo));
        prop_assert!(lo <= hi + 1e-9);
    }

    #[test]
    fn distribution_mean_within_scale(d in nonempty_dist()) {
        let m = d.mean().unwrap();
        prop_assert!((1.0..=5.0).contains(&m));
        let sd = d.std_dev().unwrap();
        prop_assert!((0.0..=2.0 + 1e-9).contains(&sd), "sd of 1..5 scale is ≤ 2");
    }

    #[test]
    fn cdf_into_is_bit_identical_to_cdf(d in dist_strategy()) {
        // Pre-populated buffer must be cleared, not appended to.
        let mut buf = vec![42.0; 3];
        d.cdf_into(&mut buf);
        let owned = d.cdf();
        prop_assert_eq!(buf.len(), owned.len());
        for (a, b) in buf.iter().zip(&owned) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "cdf_into must match cdf bitwise");
        }
    }

    #[test]
    fn emd_1d_from_cdfs_matches_emd_1d(a in dist_strategy(), b in dist_strategy()) {
        let (ca, cb) = (a.cdf(), b.cdf());
        let batched = emd_1d_from_cdfs(&ca, &cb);
        prop_assert_eq!(batched.to_bits(), emd_1d(&a, &b).to_bits());
    }

    #[test]
    fn single_subgroup_fast_path_matches_general_solver(
        solo in 0.1f64..10.0,
        other in prop::collection::vec(0.01f64..5.0, 1..8),
        costs in prop::collection::vec(0.0f64..3.0, 8),
        flip in 0usize..2,
    ) {
        // The closed-form path (one source or one sink) must agree with the
        // augmenting-path solver on the same instance.
        let costs = &costs[..other.len()];
        let (s, t): (&[f64], &[f64]) = if flip == 1 {
            (&other, std::slice::from_ref(&solo))
        } else {
            (std::slice::from_ref(&solo), &other)
        };
        let fast = emd_transport_matrix(s, t, costs);
        let general = emd_transport_general(s, t, costs);
        prop_assert!(
            (fast - general).abs() < 1e-9,
            "fast {fast} vs general {general}"
        );
    }

    #[test]
    fn matrix_api_matches_closure_api(
        s in prop::collection::vec(0.01f64..5.0, 2..6),
        t in prop::collection::vec(0.01f64..5.0, 2..6),
    ) {
        let costs: Vec<f64> = (0..s.len())
            .flat_map(|i| (0..t.len()).map(move |j| (i as f64 - j as f64).abs()))
            .collect();
        let via_matrix = emd_transport_matrix(&s, &t, &costs);
        let via_closure = emd_transport(&s, &t, |i, j| (i as f64 - j as f64).abs());
        prop_assert!((via_matrix - via_closure).abs() < 1e-9);
    }

    #[test]
    fn cdf_is_proper(d in dist_strategy()) {
        let cdf = d.cdf();
        prop_assert_eq!(cdf.len(), 5);
        for w in cdf.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
        prop_assert!((cdf[4] - 1.0).abs() < 1e-9);
    }
}
