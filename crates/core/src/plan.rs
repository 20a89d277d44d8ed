//! Per-step statistics and the session-owned execution scratch.
//!
//! [`crate::engine::SdeEngine::step`] runs Algorithm 1's pipeline —
//! materialize the rating group, generate candidate maps under pruning,
//! select a diverse `k`-subset, recommend next-step operations — in
//! straight-line order. This module holds what that function fills and
//! reuses:
//!
//! * [`StepStats`] is the single nested per-step statistics aggregate
//!   (wall-clock per phase + generator / materialization / selection
//!   counters + the database epoch), filled as the step runs and threaded
//!   as one value through [`crate::engine::StepResult`], the service
//!   metrics, and session logs.
//! * [`ExecContext`] pools *all* step scratch — scan gather blocks,
//!   distance cost matrices, GMM bookkeeping arrays, per-worker candidate
//!   evaluation buffers, and the candidate-query vector — so steps 2..n of
//!   a session re-use grown-to-size buffers instead of reallocating them.
//!
//! `tests/plan_equivalence.rs` pins every engine variant byte-identical to
//! a test-only replica of the step that allocates fresh scratch.

use crate::generator::GenerateScratch;
use crate::mapdist::SelectionStats;
use crate::recommend::{Materialization, RecommendScratch};
use crate::selector::SelectScratch;
use std::time::Duration;

/// Per-phase wall-clock times of one step. `generate` *contains* `scan`
/// (the gather + count-kernel component of the phase scans); the other
/// fields are disjoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Materializing the stepped query's rating group (index walk or probe
    /// + gather).
    pub scan_groups: Duration,
    /// The phase scans inside generation: block gathers + count kernels.
    /// This is the component the service surfaces as its `scan` metric.
    pub scan: Duration,
    /// The whole generate phase (includes `scan` and the interleaved
    /// pruning work).
    pub generate: Duration,
    /// Diverse `k`-subset selection of the displayed maps.
    pub select: Duration,
    /// The recommendation builder (candidate enumeration, materialization,
    /// evaluation, ranking).
    pub recommend: Duration,
}

impl PhaseTimes {
    /// Accumulates another step's phase times into this one.
    pub fn merge(&mut self, other: &Self) {
        self.scan_groups += other.scan_groups;
        self.scan += other.scan;
        self.generate += other.generate;
        self.select += other.select;
        self.recommend += other.recommend;
    }
}

/// Candidate-map counters from the generate phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GeneratorStats {
    /// Candidate maps considered.
    pub candidates_total: usize,
    /// Candidates pruned by the confidence-interval bound.
    pub pruned_ci: usize,
    /// Candidates pruned by the multi-armed-bandit policy.
    pub pruned_mab: usize,
}

/// The single per-step statistics aggregate: every counter and timing one
/// exploration step produces, filled by [`crate::engine::SdeEngine::step`]
/// and threaded whole through [`crate::engine::StepResult::stats`], the
/// service metrics, and session logs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepStats {
    /// Wall-clock time between operation pick and display — the quantity
    /// Figures 10–11 report.
    pub elapsed: Duration,
    /// Per-phase wall-clock breakdown of `elapsed`.
    pub phases: PhaseTimes,
    /// Candidate counters from the generate phase.
    pub generator: GeneratorStats,
    /// How this step's rating groups (the stepped query plus every
    /// recommendation candidate) were materialized: derived from the
    /// step's own columns, walked or probed through the index, or skipped
    /// outright as provably empty.
    pub materialization: Materialization,
    /// How this step's diverse selections (the displayed maps plus every
    /// recommendation candidate's preview) resolved their distance
    /// evaluations: exact solves, bound-pruned pairs, and cache hits.
    pub selection: SelectionStats,
    /// Append epoch of the database this step executed against. A
    /// persistent service compares it to the store's current epoch to tell
    /// whether the step saw the latest ratings.
    pub db_epoch: u64,
}

/// Session-owned pooled scratch for step execution: the scan gather
/// buffers, the diverse-selection scratch, and the recommendation pass's
/// candidate vector + per-worker buffers. One `ExecContext` lives as long
/// as its session (the engine owns it; the service registry therefore
/// re-uses it across requests to the same session), so steps 2..n run over
/// grown-to-size buffers.
///
/// Lifetime rules: the context holds *no* results and *no* borrowed data —
/// only recyclable containers. It is safe to drop or replace between steps
/// (costing only the re-warm), and two steps never run over one context
/// concurrently because the step takes it `&mut`. Buffers only grow:
/// the context keeps the largest capacity any of its steps needed until the
/// session, and with it the context, is dropped.
#[derive(Debug, Default)]
pub struct ExecContext {
    /// Gather, scan and re-estimation buffers for the stepped query's own
    /// generate phase.
    pub(crate) generate: GenerateScratch,
    /// GMM buffers for the displayed-maps selection.
    pub(crate) select: SelectScratch,
    /// Candidate vector + per-worker evaluation buffers for the
    /// recommendation pass.
    pub(crate) recommend: RecommendScratch,
    /// Worker-thread cap for the next step's parallel phases (`0` =
    /// uncapped). The service sets this per step from its oversubscription
    /// budget — `max(1, cores / busy_workers)` — so concurrent sessions
    /// split the machine instead of each claiming every core.
    pub(crate) thread_budget: usize,
}

impl ExecContext {
    /// A fresh (empty) context; buffers grow to workload size on first
    /// use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps the worker threads the next steps' parallel phases may use
    /// (`0` = uncapped). Budgets change only scheduling, never results.
    pub fn set_thread_budget(&mut self, budget: usize) {
        self.thread_budget = budget;
    }
}
