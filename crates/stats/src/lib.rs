//! # subdex-stats
//!
//! Numeric substrate for the SubDEx subjective-data-exploration framework.
//!
//! This crate is self-contained (no dependency on the storage or exploration
//! layers) and provides:
//!
//! * [`RatingDistribution`] — histograms over a discrete ordinal rating scale
//!   (Definition 1 of the paper), with means, dispersion, and merging.
//! * Distances between distributions: [`distance::total_variation`],
//!   [`distance::kl_divergence`], [`distance::emd_1d`] (the closed-form
//!   Earth Mover's Distance on an ordinal scale) and a general exact EMD
//!   solver over weighted point sets ([`emd::emd_transport`]) built on a
//!   min-cost-flow transportation solver.
//! * [`bounds::HoeffdingSerfling`] — worst-case confidence intervals for
//!   means estimated by sampling *without replacement*, as used by the
//!   paper's confidence-interval pruning (via SeeDB \[54\] and Serfling
//!   \[48\]).
//! * [`moments::RunningMoments`] — numerically stable streaming moments.
//! * [`special`] — ln-gamma, the regularized incomplete beta function, and
//!   the F distribution CDF, supporting the ANOVA significance tests in the
//!   user-study harness.
//! * [`anova`] — one-way ANOVA over treatment groups.
//! * [`normalize`] — score normalizers that bring the paper's four
//!   interestingness criteria onto a common `[0, 1]` scale (following
//!   Somech et al. \[51\]).
//! * [`kernels`] — structure-of-arrays batch kernels for the distributional
//!   hot path, with runtime SIMD dispatch (scalar/AVX2) and a
//!   byte-identity contract across paths.

pub mod anova;
pub mod bounds;
pub mod distance;
pub mod distribution;
pub mod emd;
pub mod kernels;
pub mod moments;
pub mod normalize;
pub mod special;

pub use bounds::{ConfidenceInterval, HoeffdingSerfling};
pub use distribution::RatingDistribution;
pub use moments::RunningMoments;
