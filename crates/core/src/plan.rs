//! The step planner/executor: an explicit phase-plan IR with a pooled
//! execution context.
//!
//! The paper's Algorithm 1 describes one exploration step as a phased
//! pipeline — materialize the rating group, generate candidate maps under
//! pruning, select a diverse `k`-subset, recommend next-step operations.
//! This module makes that pipeline a first-class value instead of a
//! hard-coded monolith:
//!
//! * [`StepPlan`] is a small DAG of typed phase ops ([`PhaseOp`]) compiled
//!   from an [`EngineConfig`] + [`SelectionQuery`] by [`StepPlan::compile`].
//!   The *logical* plan records every op the configuration enables —
//!   including the pruning ops the physical execution fuses into the scan
//!   loop — so tooling can inspect, render ([`StepPlan::describe`]), and
//!   eventually re-order or shard what a step will do without running it.
//! * [`StepExecutor`] interprets a plan against borrowed session state
//!   (seen-context, normalizers, distance cache) and a session-owned
//!   [`ExecContext`] that pools *all* step scratch — scan gather blocks,
//!   distance cost matrices, GMM bookkeeping arrays, per-worker candidate
//!   evaluation buffers, and the candidate-query vector — so steps 2..n of
//!   a session re-use grown-to-size buffers instead of reallocating them.
//! * [`StepStats`] is the single nested per-step statistics aggregate
//!   (wall-clock per phase + generator / materialization / selection
//!   counters + the database epoch), emitted at one instrumentation point
//!   at the end of [`StepExecutor::run`] and threaded as one value through
//!   [`StepResult`], the service metrics, and session logs.
//!
//! Two IR ops are *fused* by the executor rather than dispatched
//! separately, exactly as Algorithm 1 interleaves them:
//! [`PhaseOp::PruneCi`] / [`PhaseOp::PruneMab`] run inside the generator's
//! phase-scan loop (a pruned candidate must stop scanning mid-run, so
//! pruning cannot be a post-pass), and [`PhaseOp::DeriveCandidates`] is the
//! materialization strategy of [`PhaseOp::RecommendOps`] (each drill-down
//! candidate's group is derived from the step's own columns at the moment
//! the candidate is evaluated, through `recommend::materialize`). The
//! plan still records them as distinct nodes because they are logically
//! distinct phases with their own dependencies.
//!
//! Every engine variant executes byte-identically through the executor and
//! through the pre-refactor monolithic step — pinned by the property tests
//! in `tests/plan_equivalence.rs`.

use crate::engine::{EngineConfig, StepResult};
use crate::generator::{self, CriterionNormalizers, GenerateScratch, GeneratorConfig, SeenContext};
use crate::mapdist::{DistanceEngine, SelectionStats};
use crate::pruning::PruningStrategy;
use crate::ratingmap::ScoredRatingMap;
use crate::recommend::{self, Materialization, RecommendConfig, RecommendScratch, Recommendation};
use crate::selector::{select_diverse_with, SelectScratch, SelectionStrategy};
use std::sync::Arc;
use std::time::{Duration, Instant};
use subdex_store::{DistanceCache, RatingGroup, SelectionQuery, SubjectiveDb};

/// One typed phase operation of a step plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhaseOp {
    /// Materialize the stepped query's rating group (index walk or probe)
    /// and run the `n`-phase candidate scan over it.
    ScanGroups {
        /// Phase count `n` of the incremental scan.
        phases: usize,
    },
    /// Hoeffding–Serfling confidence-interval pruning, interleaved with
    /// the phase scan (Algorithm 3).
    PruneCi {
        /// Error probability `δ` of the concentration bound.
        delta: f64,
    },
    /// Multi-armed-bandit (successive-accepts-rejects) pruning,
    /// interleaved with the phase scan.
    PruneMab,
    /// Diverse `k`-subset selection over the utility-ranked pool.
    SelectDiverse {
        /// The final-selection strategy.
        strategy: SelectionStrategy,
        /// Maps to display.
        k: usize,
    },
    /// Derive add-predicate candidate groups from the stepped query's
    /// gathered columns instead of re-walking the database. Present
    /// whenever [`PhaseOp::RecommendOps`] is.
    DeriveCandidates {
        /// Whether *every* enumerated candidate is derivable: true when
        /// the stepped query is the root (no predicates to remove or
        /// change, so all edits are pure drill-downs).
        all_candidates: bool,
    },
    /// Evaluate candidate next-step operations and keep the top `o`.
    RecommendOps {
        /// Recommendations to return.
        o: usize,
    },
}

impl PhaseOp {
    /// Short stable name for rendering.
    fn name(&self) -> &'static str {
        match self {
            PhaseOp::ScanGroups { .. } => "ScanGroups",
            PhaseOp::PruneCi { .. } => "PruneCi",
            PhaseOp::PruneMab => "PruneMab",
            PhaseOp::SelectDiverse { .. } => "SelectDiverse",
            PhaseOp::DeriveCandidates { .. } => "DeriveCandidates",
            PhaseOp::RecommendOps { .. } => "RecommendOps",
        }
    }
}

/// One node of the plan DAG: an op plus the indices of the nodes it
/// consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// The typed phase operation.
    pub op: PhaseOp,
    /// Indices (into [`StepPlan::nodes`]) this node depends on. Nodes are
    /// stored in a topological order, so every dep index is smaller than
    /// the node's own.
    pub deps: Vec<usize>,
}

/// A compiled step plan: the op DAG plus the per-phase configurations the
/// executor needs. Compiling is cheap (no allocation beyond the node
/// vector) and deterministic; the same `(config, query)` always yields the
/// same plan.
#[derive(Debug, Clone, PartialEq)]
pub struct StepPlan {
    nodes: Vec<PlanNode>,
    gen_cfg: GeneratorConfig,
    rec_cfg: RecommendConfig,
    /// The configured worker count ([`EngineConfig::threads`]); the
    /// executor resolves it under the session's budget.
    threads: usize,
    k: usize,
    selection: SelectionStrategy,
    base_seed: u64,
}

impl StepPlan {
    /// Compiles the phase plan for executing `query` under `config`.
    pub fn compile(config: &EngineConfig, query: &SelectionQuery) -> Self {
        let gen_cfg = config.generator_config();
        let rec_cfg = config.recommend_config();
        let mut nodes = Vec::with_capacity(6);
        let scan = nodes.len();
        nodes.push(PlanNode {
            op: PhaseOp::ScanGroups {
                phases: gen_cfg.phases,
            },
            deps: Vec::new(),
        });
        // The *effective* pruning (gen_cfg.pruning) already accounts for
        // the DiversityOnly override, so the plan shows what will run.
        let mut select_deps = vec![scan];
        if matches!(
            gen_cfg.pruning,
            PruningStrategy::ConfidenceInterval | PruningStrategy::Both
        ) {
            select_deps.push(nodes.len());
            nodes.push(PlanNode {
                op: PhaseOp::PruneCi {
                    delta: gen_cfg.delta,
                },
                deps: vec![scan],
            });
        }
        if matches!(
            gen_cfg.pruning,
            PruningStrategy::Mab | PruningStrategy::Both
        ) {
            select_deps.push(nodes.len());
            nodes.push(PlanNode {
                op: PhaseOp::PruneMab,
                deps: vec![scan],
            });
        }
        let select = nodes.len();
        nodes.push(PlanNode {
            op: PhaseOp::SelectDiverse {
                strategy: config.selection,
                k: config.k,
            },
            deps: select_deps,
        });
        if config.recommendations {
            let derive = nodes.len();
            nodes.push(PlanNode {
                op: PhaseOp::DeriveCandidates {
                    all_candidates: query.is_empty(),
                },
                deps: vec![scan],
            });
            nodes.push(PlanNode {
                op: PhaseOp::RecommendOps { o: config.o },
                deps: vec![select, derive],
            });
        }
        Self {
            nodes,
            gen_cfg,
            rec_cfg,
            threads: config.threads,
            k: config.k,
            selection: config.selection,
            base_seed: config.seed,
        }
    }

    /// The plan's nodes in topological order.
    pub fn nodes(&self) -> &[PlanNode] {
        &self.nodes
    }

    /// The compiled generator-phase configuration.
    pub fn generator_config(&self) -> &GeneratorConfig {
        &self.gen_cfg
    }

    /// The compiled recommendation-phase configuration.
    pub fn recommend_config(&self) -> &RecommendConfig {
        &self.rec_cfg
    }

    /// Whether the plan contains a [`PhaseOp::RecommendOps`] node.
    pub fn recommends(&self) -> bool {
        self.nodes
            .iter()
            .any(|n| matches!(n.op, PhaseOp::RecommendOps { .. }))
    }

    /// The deterministic rating-group shuffle seed for step number `step`.
    pub fn step_seed(&self, step: usize) -> u64 {
        self.base_seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(step as u64)
    }

    /// Renders the DAG one node per line (`index: Op <- deps`), for logs
    /// and docs.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, node) in self.nodes.iter().enumerate() {
            let _ = write!(out, "{i}: {}", node.op.name());
            if !node.deps.is_empty() {
                let _ = write!(out, " <- {:?}", node.deps);
            }
            out.push('\n');
        }
        out
    }
}

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
/// exploration step produces, emitted at one instrumentation point at the
/// end of [`StepExecutor::run`] and threaded whole through
/// [`StepResult::stats`], the service metrics, and session logs.
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

/// Session-owned pooled scratch for plan execution: the scan gather
/// buffers, the diverse-selection scratch, and the recommendation pass's
/// candidate vector + per-worker buffers. One `ExecContext` lives as long
/// as its session (the engine owns it; the service registry therefore
/// re-uses it across requests to the same session), so steps 2..n run over
/// grown-to-size buffers.
///
/// Lifetime rules: the context holds *no* results and *no* borrowed data —
/// only recyclable containers. It is safe to drop or replace between steps
/// (costing only the re-warm), and two steps never run over one context
/// concurrently because the executor takes it `&mut`. Buffers only grow:
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
    thread_budget: usize,
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

/// Interprets a [`StepPlan`] against borrowed session state. Constructed
/// per step by [`crate::engine::SdeEngine::step`] (construction is free —
/// it only borrows); the pooled allocations live in the [`ExecContext`].
pub struct StepExecutor<'a> {
    /// The database to execute against.
    pub db: &'a SubjectiveDb,
    /// Shared map-distance cache, if attached.
    pub dist_cache: Option<&'a Arc<DistanceCache>>,
    /// The session's seen-context (mutated: displayed maps are recorded).
    pub seen: &'a mut SeenContext,
    /// The session's running criterion normalizers (mutated by generation).
    pub normalizers: &'a mut CriterionNormalizers,
    /// The session's pooled scratch.
    pub ctx: &'a mut ExecContext,
}

impl StepExecutor<'_> {
    /// Runs `plan` for `query` as step number `step`, returning the step's
    /// result with its unified [`StepStats`].
    pub fn run(&mut self, plan: &StepPlan, query: &SelectionQuery, step: usize) -> StepResult {
        let start = Instant::now();
        let seed = plan.step_seed(step);
        // The step's one worker-count resolution: the configured count,
        // clamped to the session's oversubscription budget (0 = uncapped).
        // Budgets change only scheduling, never results, because every
        // parallel phase merges in deterministic task-index order.
        let threads = crate::parallel::budget_threads(plan.threads, self.ctx.thread_budget);
        let mut stats = StepStats::default();
        // Keep the step's pre-shuffle columns alive past the group build:
        // every add-predicate recommendation candidate derives its group by
        // filtering them, skipping the posting-list walk entirely.
        let mut parent_cols = None;
        let mut group_size = 0usize;
        let mut pool: Vec<ScoredRatingMap> = Vec::new();
        let mut maps: Vec<ScoredRatingMap> = Vec::new();
        let mut recommendations: Vec<Recommendation> = Vec::new();
        let mut dist_engine: Option<DistanceEngine> = None;

        for node in plan.nodes() {
            match node.op {
                PhaseOp::ScanGroups { .. } => {
                    let t = Instant::now();
                    let cols =
                        recommend::materialize(self.db, query, None, &mut stats.materialization);
                    stats.phases.scan_groups = t.elapsed();
                    let group = RatingGroup::from_columns(&cols, seed);
                    group_size = group.len();
                    let t = Instant::now();
                    let out = generator::generate_pooled(
                        self.db,
                        &group,
                        query,
                        self.seen,
                        self.normalizers,
                        &plan.gen_cfg,
                        threads,
                        &mut self.ctx.generate,
                    );
                    stats.phases.generate = t.elapsed();
                    stats.phases.scan = out.scan_time;
                    stats.generator = GeneratorStats {
                        candidates_total: out.candidates_total,
                        pruned_ci: out.pruned_ci,
                        pruned_mab: out.pruned_mab,
                    };
                    let pool_size = plan.selection.pool_size(plan.k, out.pool.len());
                    pool = out.pool.into_iter().take(pool_size.max(plan.k)).collect();
                    parent_cols = Some(cols);
                }
                // Pruning is fused into the phase-scan loop (a pruned
                // candidate must stop scanning mid-run), and candidate
                // derivation is RecommendOps' materialization strategy;
                // see the module docs.
                PhaseOp::PruneCi { .. } | PhaseOp::PruneMab | PhaseOp::DeriveCandidates { .. } => {}
                PhaseOp::SelectDiverse { strategy, k } => {
                    let engine = DistanceEngine::new().with_cache(self.dist_cache.cloned());
                    // The pool outlives selection only when a recommend op
                    // will anchor candidates on it.
                    let select_pool = if plan.recommends() {
                        pool.clone()
                    } else {
                        std::mem::take(&mut pool)
                    };
                    let (selected, sel) = select_diverse_with(
                        select_pool,
                        k,
                        strategy,
                        &engine,
                        &mut self.ctx.select,
                    );
                    stats.phases.select = sel.select_time;
                    stats.selection.merge(&sel);
                    for m in &selected {
                        self.seen.record_displayed(&m.map);
                    }
                    maps = selected;
                    dist_engine = Some(engine);
                }
                PhaseOp::RecommendOps { .. } => {
                    // Candidate operations are anchored on the *pool* (the
                    // top k·l maps by DW utility), not only the k displayed
                    // ones: the pool is exactly where high-peculiarity
                    // pockets that narrowly missed display live, and the
                    // paper's candidate space ("q may add a new
                    // attribute-value pair") is not limited to displayed
                    // maps either.
                    let t = Instant::now();
                    let (recs, rec_stats, rec_sel) = recommend::recommend(
                        self.db,
                        query,
                        &pool,
                        self.seen,
                        self.normalizers,
                        &plan.gen_cfg,
                        &plan.rec_cfg,
                        threads,
                        seed,
                        parent_cols.as_ref(),
                        dist_engine.as_ref(),
                        &mut self.ctx.recommend,
                    );
                    stats.phases.recommend = t.elapsed();
                    stats.materialization.merge(&rec_stats);
                    stats.selection.merge(&rec_sel);
                    recommendations = recs;
                }
            }
        }

        stats.db_epoch = self.db.epoch();
        stats.elapsed = start.elapsed();
        StepResult {
            step,
            query: query.clone(),
            group_size,
            maps,
            recommendations,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(plan: &StepPlan) -> Vec<&'static str> {
        plan.nodes().iter().map(|n| n.op.name()).collect()
    }

    #[test]
    fn subdex_plan_has_all_six_ops() {
        let plan = StepPlan::compile(&EngineConfig::subdex(), &SelectionQuery::all());
        assert_eq!(
            ops(&plan),
            vec![
                "ScanGroups",
                "PruneCi",
                "PruneMab",
                "SelectDiverse",
                "DeriveCandidates",
                "RecommendOps"
            ]
        );
        assert!(plan.recommends());
        // Topological: every dep index precedes its node.
        for (i, node) in plan.nodes().iter().enumerate() {
            assert!(node.deps.iter().all(|&d| d < i), "node {i}: {node:?}");
        }
    }

    #[test]
    fn plans_reflect_the_baseline_variants() {
        let q = SelectionQuery::all();
        let no_pruning = StepPlan::compile(&EngineConfig::no_pruning(), &q);
        assert_eq!(
            ops(&no_pruning),
            vec![
                "ScanGroups",
                "SelectDiverse",
                "DeriveCandidates",
                "RecommendOps"
            ]
        );
        let ci = StepPlan::compile(&EngineConfig::ci_pruning(), &q);
        assert!(ops(&ci).contains(&"PruneCi") && !ops(&ci).contains(&"PruneMab"));
        let mab = StepPlan::compile(&EngineConfig::mab_pruning(), &q);
        assert!(!ops(&mab).contains(&"PruneCi") && ops(&mab).contains(&"PruneMab"));
        // No-parallelism changes the executor's worker count, not the DAG.
        let seq = StepPlan::compile(&EngineConfig::no_parallelism(), &q);
        assert_eq!(
            ops(&seq),
            ops(&StepPlan::compile(&EngineConfig::subdex(), &q))
        );
        assert_eq!(seq.threads, 1);
        assert_eq!(StepPlan::compile(&EngineConfig::subdex(), &q).threads, 0);
    }

    #[test]
    fn recommendations_off_drops_the_tail_ops() {
        let cfg = EngineConfig {
            recommendations: false,
            ..EngineConfig::subdex()
        };
        let plan = StepPlan::compile(&cfg, &SelectionQuery::all());
        assert!(!plan.recommends());
        assert_eq!(
            ops(&plan),
            vec!["ScanGroups", "PruneCi", "PruneMab", "SelectDiverse"]
        );
    }

    #[test]
    fn diversity_only_compiles_without_pruning() {
        // The generator override (DiversityOnly needs every candidate) is
        // visible in the plan, not just buried in the generator config.
        let cfg = EngineConfig {
            selection: SelectionStrategy::DiversityOnly,
            ..EngineConfig::subdex()
        };
        let plan = StepPlan::compile(&cfg, &SelectionQuery::all());
        assert!(!ops(&plan).contains(&"PruneCi"));
        assert!(!ops(&plan).contains(&"PruneMab"));
    }

    #[test]
    fn root_query_derives_every_candidate() {
        let root = StepPlan::compile(&EngineConfig::subdex(), &SelectionQuery::all());
        let derive = root
            .nodes()
            .iter()
            .find_map(|n| match n.op {
                PhaseOp::DeriveCandidates { all_candidates } => Some(all_candidates),
                _ => None,
            })
            .unwrap();
        assert!(derive, "root query: every edit is a pure drill-down");
    }

    #[test]
    fn step_seed_matches_documented_derivation() {
        let plan = StepPlan::compile(
            &EngineConfig {
                seed: 7,
                ..EngineConfig::subdex()
            },
            &SelectionQuery::all(),
        );
        assert_eq!(
            plan.step_seed(3),
            7u64.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(3)
        );
    }

    #[test]
    fn describe_renders_one_line_per_node() {
        let plan = StepPlan::compile(&EngineConfig::subdex(), &SelectionQuery::all());
        let text = plan.describe();
        assert_eq!(text.lines().count(), plan.nodes().len());
        assert!(text.contains("0: ScanGroups"));
        assert!(text.contains("RecommendOps <- "));
    }
}
