//! RM-Generator: the phase-based execution framework (Algorithm 1).
//!
//! The generator starts from every possible rating map for the current
//! rating group (one candidate per unconstrained grouping attribute ×
//! rating dimension), then consumes the group in `n` equal fractions of a
//! random permutation. After each fraction it
//!
//! * gathers the fraction into a columnar [`ScanBlock`](subdex_store::ScanBlock)
//!   (entity rows and score bytes resolved once) and updates the shared
//!   per-attribute accumulators with one record-major scan per entity side
//!   ([`scan_block`]) — in parallel over record chunks when given more than
//!   one worker, so thread utilization does not depend on how many grouping
//!   attributes the schema has (the paper's "parallel query execution"),
//! * re-estimates each candidate's four normalized criteria and its
//!   dimension-weighted utility,
//! * applies confidence-interval pruning (Algorithm 3) and/or the
//!   Successive-Accepts-and-Rejects bandit strategy to discard low-utility
//!   candidates early.
//!
//! Pruned candidates stop being scanned entirely (their dimension leaves
//! the family accumulator); accepted candidates keep accumulating — they
//! must be displayed, so their final map has to be exact — but are exempt
//! from further pruning decisions.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::accumulator::{
    candidate_keys, scan_block, CountScratch, EstimateScratch, FamilyAccumulator, RawScores,
};
use crate::pruning::{ci_survivors, utility_envelope, PruningStrategy, SarDecision, SarState};
use crate::ratingmap::{RatingMap, ScoredRatingMap};
use crate::utility::{CriterionScores, DimensionWeights, UtilityCombiner};
use subdex_stats::normalize::ZLogisticNormalizer;
use subdex_stats::{ConfidenceInterval, HoeffdingSerfling, RatingDistribution};
use subdex_store::{DimId, RatingGroup, ScanScratch, SelectionQuery, SubjectiveDb};

/// What the user has already seen: the inputs to dimension weighting
/// (Algorithm 2) and global peculiarity.
#[derive(Debug, Clone)]
pub struct SeenContext {
    weights: DimensionWeights,
    /// Bounded FIFO of displayed-map distributions. A `VecDeque` so
    /// eviction at capacity is O(1) — with a `Vec`, `remove(0)` shifted
    /// every retained distribution per displayed map. Kept contiguous
    /// after every mutation (see [`SeenContext::record_displayed`]) so the
    /// accessor can hand out a plain slice.
    seen_distributions: VecDeque<RatingDistribution>,
    max_kept: usize,
}

impl SeenContext {
    /// Default cap on retained reference distributions.
    pub const DEFAULT_MAX_KEPT: usize = 256;

    /// Fresh context for a database with `dim_count` rating dimensions.
    pub fn new(dim_count: usize) -> Self {
        Self {
            weights: DimensionWeights::new(dim_count),
            seen_distributions: VecDeque::new(),
            max_kept: Self::DEFAULT_MAX_KEPT,
        }
    }

    /// The dimension weights (`getWeights` state).
    pub fn weights(&self) -> &DimensionWeights {
        &self.weights
    }

    /// Overall distributions of previously displayed maps (global
    /// peculiarity references), oldest first.
    pub fn seen_distributions(&self) -> &[RatingDistribution] {
        let (head, tail) = self.seen_distributions.as_slices();
        debug_assert!(
            tail.is_empty(),
            "record_displayed keeps the deque contiguous"
        );
        head
    }

    /// Registers a displayed map: bumps its dimension count and retains its
    /// overall distribution (bounded FIFO, O(1) eviction).
    pub fn record_displayed(&mut self, map: &RatingMap) {
        self.weights.record_shown(map.key.dim);
        if self.seen_distributions.len() == self.max_kept {
            // Keep spare ring capacity so the sliding window only wraps —
            // and the make_contiguous below only rotates — once per
            // `max_kept` evictions: amortized O(1), vs. the O(n) shift
            // `Vec::remove(0)` paid on every displayed map.
            if self.seen_distributions.capacity() < self.max_kept * 2 {
                self.seen_distributions.reserve(self.max_kept);
            }
            self.seen_distributions.pop_front();
        }
        self.seen_distributions.push_back(map.overall.clone());
        self.seen_distributions.make_contiguous();
    }

    /// Total maps displayed so far.
    pub fn total_displayed(&self) -> u64 {
        self.weights.total_seen()
    }
}

/// Stateful z-logistic normalizers, one per criterion (scales persist
/// across steps so criteria stay comparable throughout a session).
/// Cloneable so candidate-operation evaluation can snapshot them into
/// worker threads.
#[derive(Debug, Clone, Default)]
pub struct CriterionNormalizers {
    conciseness: ZLogisticNormalizer,
    agreement: ZLogisticNormalizer,
    self_peculiarity: ZLogisticNormalizer,
    global_peculiarity: ZLogisticNormalizer,
}

impl CriterionNormalizers {
    /// Builds four fresh normalizers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes raw scores (updating scales) and returns them normalized.
    pub fn observe_and_normalize(&mut self, raw: &RawScores) -> CriterionScores {
        self.conciseness.observe(raw.conciseness);
        self.agreement.observe(raw.agreement);
        self.self_peculiarity.observe(raw.self_peculiarity);
        self.global_peculiarity.observe(raw.global_peculiarity);
        self.normalize(raw)
    }

    /// Normalizes raw scores with the current scales (no observation).
    pub fn normalize(&self, raw: &RawScores) -> CriterionScores {
        CriterionScores {
            conciseness: self.conciseness.normalize(raw.conciseness),
            agreement: self.agreement.normalize(raw.agreement),
            self_peculiarity: self.self_peculiarity.normalize(raw.self_peculiarity),
            global_peculiarity: self.global_peculiarity.normalize(raw.global_peculiarity),
        }
    }
}

/// Generator tuning knobs (a subset of the engine configuration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorConfig {
    /// Pool size `k′ = k·l` the pruning schemes aim for.
    pub k_prime: usize,
    /// Number of phases `n` (the paper follows SeeDB's `n = 10`).
    pub phases: usize,
    /// Error probability for the Hoeffding–Serfling intervals.
    pub delta: f64,
    /// Which pruning schemes run.
    pub pruning: PruningStrategy,
    /// How criteria combine into utility.
    pub combiner: UtilityCombiner,
    /// Apply dimension weighting (Equation 1). Disabled only by the
    /// Figure 9 ablation.
    pub use_dw: bool,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            k_prime: 9,
            phases: 10,
            delta: 0.05,
            pruning: PruningStrategy::Both,
            combiner: UtilityCombiner::Max,
            use_dw: true,
        }
    }
}

/// Result of one generator run.
#[derive(Debug, Clone)]
pub struct GeneratorOutput {
    /// Surviving maps, sorted by descending DW utility.
    pub pool: Vec<ScoredRatingMap>,
    /// Total candidates considered (before pruning).
    pub candidates_total: usize,
    /// Candidates discarded by CI pruning.
    pub pruned_ci: usize,
    /// Candidates discarded by MAB rejections.
    pub pruned_mab: usize,
    /// Candidates frozen into the top set by MAB accepts.
    pub accepted_mab: usize,
    /// Wall-clock time spent gathering blocks and running the count
    /// kernels (the phase-scan component of the run).
    pub scan_time: Duration,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Active,
    Accepted,
    Pruned,
}

struct Candidate {
    family: usize,
    dim: DimId,
    status: Status,
    scores: CriterionScores,
    dw: f64,
}

/// Every reusable buffer of one [`generate_pooled`] call: the phase-gather
/// set, the record-major scan's lanes, and the per-phase re-estimation
/// scratch. Holds no results and no borrowed data — only recyclable
/// containers — so one instance serves any sequence of groups.
#[derive(Debug, Default)]
pub struct GenerateScratch {
    scan: ScanScratch,
    counts: CountScratch,
    estimate: EstimateScratch,
}

impl GenerateScratch {
    /// Fresh, empty buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Runs Algorithm 1 over `group` for the candidates admissible under
/// `query`, returning every surviving map scored and ranked. The phase
/// scans split each block over up to `threads` workers (a resolved count,
/// at least 1); the output does not depend on it.
///
/// Allocates a throwaway [`GenerateScratch`]; steady-state callers (the
/// engine, the recommendation evaluator) hold one across steps and use
/// [`generate_pooled`].
pub fn generate(
    db: &SubjectiveDb,
    group: &RatingGroup,
    query: &SelectionQuery,
    seen: &SeenContext,
    normalizers: &mut CriterionNormalizers,
    cfg: &GeneratorConfig,
    threads: usize,
) -> GeneratorOutput {
    let mut scratch = GenerateScratch::new();
    generate_pooled(
        db,
        group,
        query,
        seen,
        normalizers,
        cfg,
        threads,
        &mut scratch,
    )
}

/// [`generate`] with every reusable buffer caller-provided. This is the
/// entry point the engine's step and the recommendation evaluator run on
/// ([`crate::plan::ExecContext`] owns the pools), so steps 2..n gather,
/// scan and re-estimate `candidates × phases` times without allocating.
/// Pooling recycles capacity only — output is byte-identical to
/// [`generate`].
#[allow(clippy::too_many_arguments)]
pub fn generate_pooled(
    db: &SubjectiveDb,
    group: &RatingGroup,
    query: &SelectionQuery,
    seen: &SeenContext,
    normalizers: &mut CriterionNormalizers,
    cfg: &GeneratorConfig,
    threads: usize,
    scratch: &mut GenerateScratch,
) -> GeneratorOutput {
    let GenerateScratch {
        scan: scratch,
        counts,
        estimate: est,
    } = scratch;
    let keys = candidate_keys(db, query);
    let mut families: Vec<FamilyAccumulator> = keys
        .iter()
        .map(|(entity, attr, dims)| FamilyAccumulator::new(db, *entity, *attr, dims.clone()))
        .collect();

    let mut candidates: Vec<Candidate> = Vec::new();
    for (fi, (_, _, dims)) in keys.iter().enumerate() {
        for &dim in dims {
            candidates.push(Candidate {
                family: fi,
                dim,
                status: Status::Active,
                scores: CriterionScores::default(),
                dw: 0.0,
            });
        }
    }
    let candidates_total = candidates.len();
    let mut out = GeneratorOutput {
        pool: Vec::new(),
        candidates_total,
        pruned_ci: 0,
        pruned_mab: 0,
        accepted_mab: 0,
        scan_time: Duration::ZERO,
    };
    if candidates_total == 0 || group.is_empty() {
        return out;
    }

    let hs = HoeffdingSerfling::new(group.len() as u64, cfg.delta);
    let phase_ranges = group.phase_ranges(cfg.phases.max(1));
    let mut sar = SarState::new(cfg.k_prime.min(candidates_total));
    let seen_dists = seen.seen_distributions();
    let weights = seen.weights();

    est.stage_seen(db.ratings().scale() as usize, seen_dists);

    let mut records_seen: u64 = 0;
    let mut dims_union: Vec<DimId> = Vec::new();
    let mut live: Vec<usize> = Vec::new();
    let mut live_scores: Vec<CriterionScores> = Vec::new();
    let mut utilities: Vec<f64> = Vec::new();
    let n_phases = phase_ranges.len();
    for (phase_idx, range) in phase_ranges.into_iter().enumerate() {
        let phase_len = range.len();
        // Union of every family's still-active dimensions: the score
        // gather covers exactly what this phase's kernels will read.
        dims_union.clear();
        for fam in families.iter() {
            dims_union.extend_from_slice(fam.dims());
        }
        dims_union.sort_unstable();
        dims_union.dedup();
        if phase_len > 0 && !dims_union.is_empty() {
            let scan_start = Instant::now();
            let block = scratch.gather_phase(db.ratings(), group, range, &dims_union);
            scan_block(db, &mut families, &block, threads, counts);
            out.scan_time += scan_start.elapsed();
        }
        records_seen += phase_len as u64;

        // Re-estimate every non-pruned candidate from its partial counts.
        // Normalization is stateful (each observation updates the running
        // normalizers), so that pass stays sequential; the pure utility
        // combine then runs once over the whole live batch.
        live.clear();
        live_scores.clear();
        est.begin_phase();
        for (ci, cand) in candidates.iter_mut().enumerate() {
            if cand.status == Status::Pruned {
                continue;
            }
            let fam = &families[cand.family];
            let Some(dim_pos) = fam.dims().iter().position(|&d| d == cand.dim) else {
                continue;
            };
            let raw = fam.raw_scores_staged(dim_pos, est);
            cand.scores = normalizers.observe_and_normalize(&raw);
            live.push(ci);
            live_scores.push(cand.scores);
        }
        cfg.combiner.combine_batch(&live_scores, &mut utilities);
        for (&ci, &utility) in live.iter().zip(utilities.iter()) {
            let cand = &mut candidates[ci];
            cand.dw = if cfg.use_dw {
                weights.weighted(cand.dim, utility)
            } else {
                utility
            };
        }

        let last_phase = phase_idx + 1 == n_phases;
        if last_phase {
            break;
        }

        // Confidence-interval pruning (Algorithm 3).
        if cfg.pruning.uses_ci() {
            let active: Vec<usize> = candidates
                .iter()
                .enumerate()
                .filter(|(_, c)| c.status == Status::Active)
                .map(|(i, _)| i)
                .collect();
            let accepted_count = candidates
                .iter()
                .filter(|c| c.status == Status::Accepted)
                .count();
            let slots = cfg.k_prime.saturating_sub(accepted_count);
            if !active.is_empty() && slots > 0 {
                // The interval width depends only on the phase.
                let eps = hs.half_width(records_seen);
                let envelopes: Vec<ConfidenceInterval> = active
                    .iter()
                    .map(|&i| {
                        let c = &candidates[i];
                        let mut intervals = c
                            .scores
                            .as_array()
                            .map(|s| ConfidenceInterval::around_unit(s, eps));
                        let w = if cfg.use_dw {
                            weights.dw_factor(c.dim)
                        } else {
                            1.0
                        };
                        utility_envelope(&mut intervals, w)
                    })
                    .collect();
                let keep = ci_survivors(&envelopes, slots);
                for (pos, &i) in active.iter().enumerate() {
                    if !keep[pos] {
                        candidates[i].status = Status::Pruned;
                        let dim = candidates[i].dim;
                        families[candidates[i].family].remove_dim(dim);
                        out.pruned_ci += 1;
                    }
                }
            }
        }

        // MAB pruning (Successive Accepts and Rejects), one decision/phase.
        if cfg.pruning.uses_mab() {
            let means: Vec<(usize, f64)> = candidates
                .iter()
                .enumerate()
                .filter(|(_, c)| c.status == Status::Active)
                .map(|(i, c)| (i, c.dw))
                .collect();
            match sar.decide(&means) {
                SarDecision::Accept(i) => {
                    candidates[i].status = Status::Accepted;
                    out.accepted_mab += 1;
                }
                SarDecision::Reject(i) => {
                    candidates[i].status = Status::Pruned;
                    let dim = candidates[i].dim;
                    families[candidates[i].family].remove_dim(dim);
                    out.pruned_mab += 1;
                }
                SarDecision::Nothing => {}
            }
        }
    }

    // Materialize survivors with their final (full-data) scores.
    let mut pool: Vec<ScoredRatingMap> = candidates
        .iter()
        .filter(|c| c.status != Status::Pruned)
        .filter_map(|c| {
            let fam = &families[c.family];
            let dim_pos = fam.dims().iter().position(|&d| d == c.dim)?;
            let map = fam.to_rating_map(dim_pos);
            if map.subgroup_count() == 0 {
                return None;
            }
            let utility = cfg.combiner.combine(&c.scores);
            Some(ScoredRatingMap {
                map,
                utility,
                dw_utility: c.dw,
                criteria: c.scores,
            })
        })
        .collect();
    pool.sort_by(|a, b| {
        b.dw_utility
            .partial_cmp(&a.dw_utility)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.map.key.cmp(&b.map.key))
    });
    out.pool = pool;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use subdex_store::{Cell, EntityTableBuilder, RatingTableBuilder, Schema, Value};

    /// 2 reviewer attrs × 2 item attrs × 2 dims on 200 records with one
    /// strongly peculiar pocket.
    fn build_db(seed_scores: bool) -> SubjectiveDb {
        let mut us = Schema::new();
        us.add("gender", false);
        us.add("age", false);
        let mut ub = EntityTableBuilder::new(us);
        for i in 0..20 {
            ub.push_row(vec![
                Cell::from(if i % 2 == 0 { "F" } else { "M" }),
                Cell::from(if i % 4 < 2 { "young" } else { "old" }),
            ]);
        }
        let mut is = Schema::new();
        is.add("city", false);
        is.add("kind", false);
        let mut ib = EntityTableBuilder::new(is);
        for i in 0..10 {
            ib.push_row(vec![
                Cell::from(if i < 5 { "NYC" } else { "SF" }),
                Cell::from(["a", "b", "c"][i % 3]),
            ]);
        }
        let mut rb = RatingTableBuilder::new(vec!["overall".into(), "food".into()], 5);
        for r in 0..20u32 {
            for i in 0..10u32 {
                // A peculiar pocket: SF items get 1s from old reviewers on
                // food; otherwise scores hover near 4.
                let overall = 3 + ((r + i) % 3) as u8;
                let food = if seed_scores && i >= 5 && (r % 4) >= 2 {
                    1
                } else {
                    4
                };
                rb.push(r, i, &[overall, food]);
            }
        }
        SubjectiveDb::new(ub.build(), ib.build(), rb.build(20, 10))
    }

    fn run(cfg: &GeneratorConfig, db: &SubjectiveDb) -> GeneratorOutput {
        run_on(cfg, db, 1)
    }

    fn run_on(cfg: &GeneratorConfig, db: &SubjectiveDb, threads: usize) -> GeneratorOutput {
        let q = SelectionQuery::all();
        let group = db.rating_group(&q, 42);
        let seen = SeenContext::new(db.ratings().dim_count());
        let mut norms = CriterionNormalizers::new();
        generate(db, &group, &q, &seen, &mut norms, cfg, threads)
    }

    #[test]
    fn no_pruning_returns_all_candidates() {
        let db = build_db(true);
        let cfg = GeneratorConfig {
            pruning: PruningStrategy::None,
            ..Default::default()
        };
        let out = run(&cfg, &db);
        // 4 grouping attributes × 2 dims = 8 candidates.
        assert_eq!(out.candidates_total, 8);
        assert_eq!(out.pool.len(), 8);
        assert_eq!(out.pruned_ci + out.pruned_mab, 0);
        // Sorted by descending DW utility.
        for w in out.pool.windows(2) {
            assert!(w[0].dw_utility >= w[1].dw_utility);
        }
    }

    #[test]
    fn pruned_run_preserves_top_maps() {
        let db = build_db(true);
        let base = GeneratorConfig {
            pruning: PruningStrategy::None,
            k_prime: 3,
            ..Default::default()
        };
        let full = run(&base, &db);
        let top_full: Vec<_> = full.pool.iter().take(3).map(|m| m.map.key).collect();

        for strategy in [
            PruningStrategy::ConfidenceInterval,
            PruningStrategy::Mab,
            PruningStrategy::Both,
        ] {
            let cfg = GeneratorConfig {
                pruning: strategy,
                k_prime: 3,
                ..Default::default()
            };
            let pruned = run(&cfg, &db);
            assert!(
                pruned.pool.len() >= 3,
                "{strategy:?}: pool too small ({})",
                pruned.pool.len()
            );
            let top_pruned: Vec<_> = pruned.pool.iter().take(3).map(|m| m.map.key).collect();
            // The single best map must always survive pruning.
            assert_eq!(top_full[0], top_pruned[0], "{strategy:?} lost the top map");
        }
    }

    #[test]
    fn mab_prunes_some_candidates() {
        let db = build_db(true);
        let cfg = GeneratorConfig {
            pruning: PruningStrategy::Mab,
            k_prime: 2,
            ..Default::default()
        };
        let out = run(&cfg, &db);
        assert!(out.pruned_mab > 0, "SAR should reject at least one arm");
        assert!(out.pool.len() < out.candidates_total);
    }

    #[test]
    fn parallel_matches_sequential() {
        let db = build_db(true);
        let cfg = GeneratorConfig {
            pruning: PruningStrategy::None,
            ..Default::default()
        };
        let a = run(&cfg, &db);
        let b = run_on(&cfg, &db, 4);
        assert_eq!(a.pool.len(), b.pool.len());
        for (x, y) in a.pool.iter().zip(&b.pool) {
            assert_eq!(x.map.key, y.map.key);
            assert!((x.dw_utility - y.dw_utility).abs() < 1e-12);
        }
    }

    #[test]
    fn record_chunking_is_byte_identical() {
        // 3600 records in one whole-group block → several record chunks at
        // 4 threads, so the chunk-parallel scan and its pooled per-worker
        // count sets are actually exercised (MIN_CHUNK = 1024).
        let mut us = Schema::new();
        us.add("gender", false);
        let mut ub = EntityTableBuilder::new(us);
        for i in 0..60 {
            ub.push_row(vec![Cell::from(if i % 2 == 0 { "F" } else { "M" })]);
        }
        let mut is = Schema::new();
        is.add("city", false);
        let mut ib = EntityTableBuilder::new(is);
        for i in 0..60 {
            ib.push_row(vec![Cell::from(["NYC", "SF", "LA"][i % 3])]);
        }
        let mut rb = RatingTableBuilder::new(vec!["overall".into()], 5);
        for r in 0..60u32 {
            for i in 0..60u32 {
                rb.push(r, i, &[1 + ((r * 7 + i * 3) % 5) as u8]);
            }
        }
        let db = SubjectiveDb::new(ub.build(), ib.build(), rb.build(60, 60));

        let q = SelectionQuery::all();
        let group = db.rating_group(&q, 11);
        let mut scratch = ScanScratch::new();
        let dims = vec![DimId(0)];
        let keys = candidate_keys(&db, &q);
        let make = || -> Vec<FamilyAccumulator> {
            keys.iter()
                .map(|(e, a, _)| FamilyAccumulator::new(&db, *e, *a, dims.clone()))
                .collect()
        };
        let block = scratch.gather_phase(db.ratings(), &group, 0..group.len(), &dims);
        let mut counts = CountScratch::new();
        let mut seq = make();
        scan_block(&db, &mut seq, &block, 1, &mut counts);
        for threads in [2, 4, 8] {
            let mut par = make();
            scan_block(&db, &mut par, &block, threads, &mut counts);
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.distributions(0), b.distributions(0), "{threads} threads");
                assert_eq!(a.records_processed(), b.records_processed());
            }
        }
    }

    #[test]
    fn empty_group_yields_empty_pool() {
        let db = build_db(true);
        let q = SelectionQuery::from_preds(vec![
            db.pred(subdex_store::Entity::Reviewer, "gender", &Value::str("F"))
                .unwrap(),
            db.pred(subdex_store::Entity::Reviewer, "gender", &Value::str("M"))
                .unwrap(),
        ]);
        let group = db.rating_group(&q, 0);
        let seen = SeenContext::new(2);
        let mut norms = CriterionNormalizers::new();
        let out = generate(
            &db,
            &group,
            &q,
            &seen,
            &mut norms,
            &GeneratorConfig::default(),
            1,
        );
        assert!(out.pool.is_empty());
    }

    #[test]
    fn dimension_weights_demote_overexposed_dim() {
        let db = build_db(false);
        let q = SelectionQuery::all();
        let group = db.rating_group(&q, 1);
        let mut seen = SeenContext::new(2);
        // Pretend dim 0 was shown many times.
        for _ in 0..5 {
            let fake = RatingMap::from_subgroups(
                crate::ratingmap::MapKey::new(
                    subdex_store::Entity::Item,
                    subdex_store::AttrId(0),
                    DimId(0),
                ),
                vec![],
                5,
            );
            seen.record_displayed(&fake);
        }
        let mut norms = CriterionNormalizers::new();
        let cfg = GeneratorConfig {
            pruning: PruningStrategy::None,
            ..Default::default()
        };
        let out = generate(&db, &group, &q, &seen, &mut norms, &cfg, 1);
        // Every dim-0 candidate has weight 0 → dw 0; dim-1 candidates rank first.
        let first_dims: Vec<u16> = out.pool.iter().take(4).map(|m| m.map.key.dim.0).collect();
        assert!(
            first_dims.iter().all(|&d| d == 1),
            "dim 1 promoted: {first_dims:?}"
        );
    }

    #[test]
    fn seen_context_caps_retained_distributions() {
        let mut seen = SeenContext::new(1);
        for _ in 0..(SeenContext::DEFAULT_MAX_KEPT + 10) {
            let map = RatingMap::from_subgroups(
                crate::ratingmap::MapKey::new(
                    subdex_store::Entity::Item,
                    subdex_store::AttrId(0),
                    DimId(0),
                ),
                vec![crate::ratingmap::Subgroup {
                    value: subdex_store::ValueId(0),
                    distribution: RatingDistribution::from_counts(vec![1, 0, 0, 0, 0]),
                    avg_score: None,
                }],
                5,
            );
            seen.record_displayed(&map);
        }
        assert_eq!(
            seen.seen_distributions().len(),
            SeenContext::DEFAULT_MAX_KEPT
        );
        assert_eq!(
            seen.total_displayed(),
            (SeenContext::DEFAULT_MAX_KEPT + 10) as u64
        );
    }

    #[test]
    fn seen_context_evicts_oldest_first() {
        // Tag each displayed map's overall distribution with a unique total
        // so retained entries are identifiable, then overflow the FIFO well
        // past one full wrap of the ring buffer.
        let cap = SeenContext::DEFAULT_MAX_KEPT;
        let pushed = 3 * cap + 17;
        let mut seen = SeenContext::new(1);
        for i in 0..pushed {
            let map = RatingMap::from_subgroups(
                crate::ratingmap::MapKey::new(
                    subdex_store::Entity::Item,
                    subdex_store::AttrId(0),
                    DimId(0),
                ),
                vec![crate::ratingmap::Subgroup {
                    value: subdex_store::ValueId(0),
                    distribution: RatingDistribution::from_counts(vec![i as u64 + 1, 0, 0, 0, 0]),
                    avg_score: None,
                }],
                5,
            );
            seen.record_displayed(&map);
            // The accessor must stay a single contiguous, ordered slice at
            // every point, not just after the final push.
            let tags: Vec<u64> = seen
                .seen_distributions()
                .iter()
                .map(|d| d.total())
                .collect();
            let oldest = (i + 1).saturating_sub(cap) as u64;
            let expect: Vec<u64> = (oldest + 1..=i as u64 + 1).collect();
            assert_eq!(tags, expect, "after push {i}");
        }
        assert_eq!(seen.seen_distributions().len(), cap);
    }
}
