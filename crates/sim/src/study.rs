//! The user-study harness (Section 5.2.1, Figures 7 and 8).
//!
//! Reproduces the paper's protocol with simulated subjects:
//!
//! * four treatment cells — high/low CS expertise × high/low domain
//!   knowledge;
//! * high-CS subjects compare **User-Driven** against
//!   **Recommendation-Powered**; low-CS subjects compare
//!   **Recommendation-Powered** against **Fully-Automated** (as in the
//!   paper, where only CS experts used the unguided mode);
//! * every subject performs the task *twice*, once per mode, in
//!   counterbalanced order, and must find *different* targets the second
//!   time (the first run's finds are excluded);
//! * outcomes are the number of correctly identified irregular groups
//!   (Scenario I, 0–2) or extracted insights (Scenario II, 0–5);
//! * ANOVA checks reproduce the paper's footnotes: mode order within a
//!   cell and domain knowledge within an expertise level should *not* be
//!   significant.

use crate::subject::{
    choose_own_operation, suspicious_drill_on, CsExpertise, DomainKnowledge, SubjectProfile,
};
use crate::workload::{Scenario, Workload};
use rand::Rng;
use std::collections::HashSet;
use subdex_core::{EngineConfig, ExplorationMode, SdeEngine};
use subdex_stats::anova::{one_way_anova, AnovaResult};
use subdex_stats::moments::{summarize, Summary};
use subdex_store::SelectionQuery;

/// Study-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct StudyConfig {
    /// Subjects per treatment cell (paper: 30; two counterbalanced halves).
    pub subjects_per_cell: usize,
    /// Exploration-path length (None ⇒ the scenario default from Table 3).
    pub steps: Option<usize>,
    /// Engine configuration used by every session.
    pub engine: EngineConfig,
    /// Base seed; subject seeds derive from it.
    pub base_seed: u64,
}

impl Default for StudyConfig {
    fn default() -> Self {
        let engine = EngineConfig {
            // Subjects are parallelized across threads; keep each engine
            // sequential so the study scales with cores.
            threads: 1,
            max_candidates: 16,
            ..EngineConfig::default()
        };
        Self {
            subjects_per_cell: 30,
            steps: None,
            engine,
            base_seed: 7,
        }
    }
}

/// Interpretation handicap of unguided (User-Driven) subjects in the
/// insight-extraction task — see the note inside [`run_subject`].
pub const UD_INTERPRETATION_FACTOR: f64 = 0.65;

/// Outcome of one subject run: which target indexes were found, and at
/// which (1-based) step each was first found.
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// `(target index, step)` pairs in discovery order.
    pub found: Vec<(usize, usize)>,
}

impl RunOutcome {
    /// Number of targets found.
    pub fn count(&self) -> usize {
        self.found.len()
    }

    /// Number found within the first `steps` steps.
    pub fn count_by_step(&self, steps: usize) -> usize {
        self.found.iter().filter(|&&(_, s)| s <= steps).count()
    }
}

/// Runs one subject through one exploration session.
///
/// `exclude` holds target indexes found in the subject's *previous* run
/// (the paper requires different finds per mode); they can no longer be
/// counted.
pub fn run_subject(
    w: &Workload,
    mode: ExplorationMode,
    profile: &SubjectProfile,
    steps: usize,
    engine_cfg: &EngineConfig,
    exclude: &HashSet<usize>,
) -> RunOutcome {
    let mut cfg = *engine_cfg;
    // Fully-Automated is *the system's* path — it takes no user input, so
    // every subject watches the same deterministic top-1 chain (as in the
    // paper, where FA "generates a fixed-size exploration path"). The
    // interactive modes are personal: their engines inherit the subject's
    // seed.
    cfg.seed = if mode == ExplorationMode::FullyAutomated {
        0xFA
    } else {
        profile.seed
    };
    if mode == ExplorationMode::UserDriven {
        cfg.recommendations = false;
    }
    // "Only showing rating maps does not provide enough information to
    // guide users effectively, even when they are CS experts" (paper,
    // finding 1): in the open-ended insight task, an unguided subject
    // recognizes a revealed insight less reliably — the recommendations
    // are also what contextualize "this histogram is saying something".
    // Scenario I's forced-to-1 anomalies are unmissable in any mode.
    let notice_factor =
        if mode == ExplorationMode::UserDriven && w.scenario == Scenario::InsightExtraction {
            UD_INTERPRETATION_FACTOR
        } else {
            1.0
        };
    let mut engine = SdeEngine::new(w.db.clone(), cfg);
    let mut rng = profile.rng();
    let mut outcome = RunOutcome::default();
    let mut found_set: HashSet<usize> = HashSet::new();
    let mut query = SelectionQuery::all();
    // Subgroups already chased: an analyst does not re-investigate the
    // anomaly she has just identified.
    let mut chased: HashSet<SelectionQuery> = HashSet::new();
    // Selections already explored this run: interactive analysts do not
    // walk the same path twice (FA has no such memory — it cannot).
    let mut visited: HashSet<SelectionQuery> = HashSet::new();

    for step in 1..=steps {
        visited.insert(query.clone());
        let res = engine.step(&query);

        // Noticing pass over the displayed maps.
        let mut found_this_step = false;
        for sm in &res.maps {
            let shown: Vec<usize> = match w.scenario {
                Scenario::IrregularGroups => w.irregular_shown(&query, &sm.map),
                Scenario::InsightExtraction => w.insights_shown(&sm.map),
            };
            for t in shown {
                if exclude.contains(&t) || found_set.contains(&t) {
                    continue;
                }
                if rng.random_bool(profile.notice_probability() * notice_factor) {
                    found_set.insert(t);
                    outcome.found.push((t, step));
                    found_this_step = true;
                }
            }
        }
        if found_set.len() + exclude.len() >= w.target_count() {
            break; // everything findable has been found
        }
        if step == steps {
            break;
        }

        let can_intervene = mode != ExplorationMode::FullyAutomated;

        // Scenario I instructs subjects to find one reviewer-side and one
        // item-side group; once a side is done, interactive subjects hunt
        // the other side specifically.
        let missing_side: Option<subdex_store::Entity> = if w.scenario == Scenario::IrregularGroups
        {
            let found_sides: HashSet<subdex_store::Entity> = found_set
                .iter()
                .chain(exclude.iter())
                .filter_map(|&t| w.irregulars.get(t).map(|g| g.entity))
                .collect();
            match (
                found_sides.contains(&subdex_store::Entity::Reviewer),
                found_sides.contains(&subdex_store::Entity::Item),
            ) {
                (true, false) => Some(subdex_store::Entity::Item),
                (false, true) => Some(subdex_store::Entity::Reviewer),
                _ => None,
            }
        } else {
            None
        };

        // After identifying a target, an interactive analyst restarts the
        // hunt from the top: the remaining targets live elsewhere.
        // Fully-Automated subjects cannot (they ride the fixed path).
        if found_this_step && can_intervene && !query.is_empty() {
            query = SelectionQuery::all();
            continue;
        }

        // A visible suspicious subgroup invites intervention — possible in
        // every mode except Fully-Automated (the study's central mechanism).
        let chase = if can_intervene && w.scenario == Scenario::IrregularGroups {
            suspicious_drill_on(
                &query,
                &res.maps,
                crate::workload::SUSPICIOUS_AVG + 0.5,
                crate::workload::SUSPICIOUS_SUPPORT,
                missing_side,
            )
            .filter(|q| !chased.contains(q) && !visited.contains(q))
            .filter(|_| rng.random_bool(profile.chase_probability()))
        } else {
            None
        };

        // Next operation, per mode.
        let next = if let Some(q) = chase {
            chased.insert(q.clone());
            Some(q)
        } else {
            match mode {
                ExplorationMode::FullyAutomated => {
                    res.recommendations.first().map(|r| r.query.clone())
                }
                ExplorationMode::RecommendationPowered => {
                    // Ignore recommendations that lead back into an
                    // already-investigated pocket — including ones whose
                    // preview maps visibly show an anomaly the subject has
                    // already identified (she recognizes it on sight).
                    let leads_back = |r: &subdex_core::Recommendation| {
                        w.scenario == Scenario::IrregularGroups
                            && r.maps.iter().any(|sm| {
                                w.irregular_shown(&r.query, &sm.map)
                                    .iter()
                                    .any(|t| found_set.contains(t) || exclude.contains(t))
                            })
                    };
                    let mut fresh: Vec<&subdex_core::Recommendation> = res
                        .recommendations
                        .iter()
                        .filter(|r| !chased.contains(&r.query) && !visited.contains(&r.query))
                        .filter(|r| !leads_back(r))
                        .collect();
                    // Prefer recommendations that touch the side still to
                    // be found (stable: utility order kept within groups).
                    if let Some(side) = missing_side {
                        fresh.sort_by_key(|r| {
                            let touches = r
                                .query
                                .preds()
                                .iter()
                                .any(|p| p.entity == side && !query.contains(p));
                            !touches // false (= touches) sorts first
                        });
                    }
                    if !fresh.is_empty() && rng.random_bool(profile.follow_probability()) {
                        // Trust the ranking: take the best not-yet-visited
                        // recommendation.
                        Some(fresh[0].query.clone())
                    } else {
                        choose_own_operation(&mut rng, profile, &w.db, &query, &res.maps)
                    }
                }
                ExplorationMode::UserDriven => {
                    choose_own_operation(&mut rng, profile, &w.db, &query, &res.maps)
                }
            }
        };
        match next {
            Some(q) if q != query => query = q,
            _ => break, // stuck: no operation available
        }
    }
    outcome
}

/// A `(mode, per-subject scores)` column of one treatment cell.
#[derive(Debug, Clone)]
pub struct ModeScores {
    /// The exploration mode.
    pub mode: ExplorationMode,
    /// One score (found count) per subject, ordered by subject index.
    /// The first half performed this mode first, the second half second.
    pub scores: Vec<f64>,
}

impl ModeScores {
    /// Mean/SD summary.
    pub fn summary(&self) -> Summary {
        summarize(&self.scores).expect("non-empty cell")
    }

    /// ANOVA of first-half vs second-half subjects — the paper's
    /// mode-order check (footnote 4). Should not be significant.
    pub fn order_effect(&self) -> Option<AnovaResult> {
        let half = self.scores.len() / 2;
        if half == 0 {
            return None;
        }
        one_way_anova(&[&self.scores[..half], &self.scores[half..]])
    }
}

/// One treatment cell's results.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// CS expertise of the cell.
    pub cs: CsExpertise,
    /// Domain knowledge of the cell.
    pub domain: DomainKnowledge,
    /// The two modes this cell compares, with per-subject scores.
    pub modes: Vec<ModeScores>,
}

/// Full study output for one workload.
#[derive(Debug, Clone)]
pub struct StudyResults {
    /// The scenario that was run.
    pub scenario: Scenario,
    /// All four treatment cells.
    pub cells: Vec<CellResult>,
}

impl StudyResults {
    /// The cell for a given expertise/domain pair.
    pub fn cell(&self, cs: CsExpertise, domain: DomainKnowledge) -> &CellResult {
        self.cells
            .iter()
            .find(|c| c.cs == cs && c.domain == domain)
            .expect("all four cells present")
    }

    /// Mean score of a mode within a cell.
    pub fn mean(&self, cs: CsExpertise, domain: DomainKnowledge, mode: ExplorationMode) -> f64 {
        self.cell(cs, domain)
            .modes
            .iter()
            .find(|m| m.mode == mode)
            .map(|m| m.summary().mean)
            .unwrap_or(f64::NAN)
    }

    /// ANOVA of high- vs low-domain-knowledge scores for one expertise
    /// level and mode — the paper's footnote-6 check.
    pub fn domain_effect(&self, cs: CsExpertise, mode: ExplorationMode) -> Option<AnovaResult> {
        let get = |domain| {
            self.cell(cs, domain)
                .modes
                .iter()
                .find(|m| m.mode == mode)
                .map(|m| m.scores.clone())
        };
        let hi = get(DomainKnowledge::High)?;
        let lo = get(DomainKnowledge::Low)?;
        one_way_anova(&[&hi, &lo])
    }
}

/// The two modes a cell compares, per the paper's assignment.
pub fn modes_for(cs: CsExpertise) -> [ExplorationMode; 2] {
    match cs {
        CsExpertise::High => [
            ExplorationMode::UserDriven,
            ExplorationMode::RecommendationPowered,
        ],
        CsExpertise::Low => [
            ExplorationMode::RecommendationPowered,
            ExplorationMode::FullyAutomated,
        ],
    }
}

/// Runs the full four-cell study with one workload *instance per task
/// run*: a subject's first run explores `w1`, the second `w2`. Separate
/// instances are how "identify different irregular groups/insights" is
/// realized (per-mode means can then exceed half the instance's target
/// count, as the paper's do), and they remove any first-vs-second run
/// capacity asymmetry, so the mode-order ANOVA stays insignificant.
pub fn run_study_pair(w1: &Workload, w2: &Workload, cfg: &StudyConfig) -> StudyResults {
    run_study_impl(w1, Some(w2), cfg)
}

/// Runs the full four-cell study on one workload. Both task runs use the
/// same instance; the second run may only count targets the first missed
/// (the stricter reading of the protocol — useful for testing exclusion).
pub fn run_study(w: &Workload, cfg: &StudyConfig) -> StudyResults {
    run_study_impl(w, None, cfg)
}

fn run_study_impl(w: &Workload, w2: Option<&Workload>, cfg: &StudyConfig) -> StudyResults {
    let steps = cfg.steps.unwrap_or_else(|| w.scenario.default_steps());
    let mut cells = Vec::new();
    for (cell_idx, (cs, domain)) in [
        (CsExpertise::High, DomainKnowledge::High),
        (CsExpertise::High, DomainKnowledge::Low),
        (CsExpertise::Low, DomainKnowledge::High),
        (CsExpertise::Low, DomainKnowledge::Low),
    ]
    .into_iter()
    .enumerate()
    {
        let modes = modes_for(cs);
        let n = cfg.subjects_per_cell;
        // Subject i < n/2 runs modes in order [0, 1]; the rest reversed.
        let subject_runs: Vec<(usize, [ExplorationMode; 2])> = (0..n)
            .map(|i| {
                let order = if i < n / 2 {
                    modes
                } else {
                    [modes[1], modes[0]]
                };
                (i, order)
            })
            .collect();

        let run_one = |&(i, order): &(usize, [ExplorationMode; 2])| {
            let seed = cfg
                .base_seed
                .wrapping_mul(1_000_003)
                .wrapping_add((cell_idx * 1000 + i) as u64);
            let profile = SubjectProfile::new(cs, domain, seed);
            // Counterbalance workload instances alongside mode order:
            // alternate which instance is explored first, so neither mode
            // nor order is confounded with instance difficulty.
            let (first_w, second_source) = match w2 {
                Some(other) if i % 2 == 1 => (other, Ok(w)),
                Some(other) => (w, Ok(other)),
                None => (w, Err(())),
            };
            let first = run_subject(
                first_w,
                order[0],
                &profile,
                steps,
                &cfg.engine,
                &HashSet::new(),
            );
            // Second run: the other instance when provided, otherwise the
            // same instance with the first run's finds excluded.
            let (second_w, exclude) = match second_source {
                Ok(other) => (other, HashSet::new()),
                Err(()) => (w, first.found.iter().map(|&(t, _)| t).collect()),
            };
            let mut profile2 = profile.clone();
            profile2.seed = seed.wrapping_add(0x5eed);
            let second = run_subject(second_w, order[1], &profile2, steps, &cfg.engine, &exclude);
            (i, order, first.count(), second.count())
        };

        // Subjects run on one scoped thread per core, each over a chunk.
        let chunk = subject_runs
            .len()
            .div_ceil(subdex_core::resolve_threads(0))
            .max(1);
        let mut results: Vec<(usize, [ExplorationMode; 2], usize, usize)> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = subject_runs
                .chunks(chunk)
                .map(|slice| s.spawn(move || slice.iter().map(run_one).collect::<Vec<_>>()))
                .collect();
            for h in handles {
                results.extend(h.join().expect("subject worker panicked"));
            }
        });

        // Column-major: scores per mode, subjects ordered so the first half
        // performed that mode first.
        let mut mode_scores: Vec<ModeScores> = modes
            .iter()
            .map(|&m| ModeScores {
                mode: m,
                scores: vec![0.0; n],
            })
            .collect();
        for (i, order, c1, c2) in results {
            for (pos, &m) in order.iter().enumerate() {
                let count = if pos == 0 { c1 } else { c2 };
                let col = mode_scores
                    .iter_mut()
                    .find(|ms| ms.mode == m)
                    .expect("mode present");
                // First-half slots hold first-performed runs of modes[0];
                // place by subject index (halves encode the order).
                col.scores[i] = count as f64;
            }
        }
        cells.push(CellResult {
            cs,
            domain,
            modes: mode_scores,
        });
    }
    StudyResults {
        scenario: w.scenario,
        cells,
    }
}

/// Figure 8: recall as a function of exploration steps. Runs
/// `subjects` fresh subjects per mode for `max_steps` steps and returns,
/// for each step `s` in `1..=max_steps`, the mean fraction of targets
/// found within `s` steps.
pub fn recall_curve(
    w: &Workload,
    mode: ExplorationMode,
    subjects: usize,
    max_steps: usize,
    cfg: &StudyConfig,
) -> Vec<f64> {
    let total = w.target_count().max(1) as f64;
    let outcomes: Vec<RunOutcome> = (0..subjects)
        .map(|i| {
            let profile = SubjectProfile::new(
                if i % 2 == 0 {
                    CsExpertise::High
                } else {
                    CsExpertise::Low
                },
                DomainKnowledge::Low,
                cfg.base_seed.wrapping_add(i as u64 * 977),
            );
            run_subject(w, mode, &profile, max_steps, &cfg.engine, &HashSet::new())
        })
        .collect();
    (1..=max_steps)
        .map(|s| {
            outcomes
                .iter()
                .map(|o| o.count_by_step(s) as f64 / total)
                .sum::<f64>()
                / subjects.max(1) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use subdex_data::{yelp, GenParams, IrregularSpec};

    fn workload() -> Workload {
        let raw = yelp::generate(GenParams::new(300, 40, 2500, 17));
        Workload::scenario1(
            raw,
            &IrregularSpec {
                reviewer_groups: 1,
                item_groups: 1,
                min_members: 5,
                min_item_members: 5,
                seed: 2,
            },
        )
    }

    fn quick_cfg() -> StudyConfig {
        StudyConfig {
            subjects_per_cell: 6,
            steps: Some(5),
            ..StudyConfig::default()
        }
    }

    #[test]
    fn run_subject_produces_bounded_outcome() {
        let w = workload();
        let p = SubjectProfile::new(CsExpertise::High, DomainKnowledge::High, 3);
        let out = run_subject(
            &w,
            ExplorationMode::RecommendationPowered,
            &p,
            5,
            &quick_cfg().engine,
            &HashSet::new(),
        );
        assert!(out.count() <= w.target_count());
        for &(t, s) in &out.found {
            assert!(t < w.target_count());
            assert!((1..=5).contains(&s));
        }
    }

    #[test]
    fn excluded_targets_are_never_counted() {
        let w = workload();
        let p = SubjectProfile::new(CsExpertise::High, DomainKnowledge::High, 3);
        let all: HashSet<usize> = (0..w.target_count()).collect();
        let out = run_subject(
            &w,
            ExplorationMode::RecommendationPowered,
            &p,
            5,
            &quick_cfg().engine,
            &all,
        );
        assert_eq!(out.count(), 0);
    }

    #[test]
    fn run_subject_is_deterministic() {
        let w = workload();
        let p = SubjectProfile::new(CsExpertise::Low, DomainKnowledge::Low, 8);
        let run = || {
            run_subject(
                &w,
                ExplorationMode::FullyAutomated,
                &p,
                4,
                &quick_cfg().engine,
                &HashSet::new(),
            )
            .found
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn study_fills_all_cells() {
        let w = workload();
        let results = run_study(&w, &quick_cfg());
        assert_eq!(results.cells.len(), 4);
        for cell in &results.cells {
            assert_eq!(cell.modes.len(), 2);
            for ms in &cell.modes {
                assert_eq!(ms.scores.len(), 6);
                assert!(ms.scores.iter().all(|&s| (0.0..=2.0).contains(&s)));
            }
        }
        // Cell lookup and mean accessor work.
        let m = results.mean(
            CsExpertise::High,
            DomainKnowledge::High,
            ExplorationMode::RecommendationPowered,
        );
        assert!((0.0..=2.0).contains(&m));
    }

    #[test]
    fn high_cs_cells_compare_ud_vs_rp() {
        let w = workload();
        let results = run_study(&w, &quick_cfg());
        let cell = results.cell(CsExpertise::High, DomainKnowledge::Low);
        let modes: Vec<_> = cell.modes.iter().map(|m| m.mode).collect();
        assert!(modes.contains(&ExplorationMode::UserDriven));
        assert!(modes.contains(&ExplorationMode::RecommendationPowered));
        let cell = results.cell(CsExpertise::Low, DomainKnowledge::Low);
        let modes: Vec<_> = cell.modes.iter().map(|m| m.mode).collect();
        assert!(modes.contains(&ExplorationMode::FullyAutomated));
    }

    #[test]
    fn recall_curve_is_monotone() {
        let w = workload();
        let curve = recall_curve(
            &w,
            ExplorationMode::RecommendationPowered,
            4,
            6,
            &quick_cfg(),
        );
        assert_eq!(curve.len(), 6);
        for win in curve.windows(2) {
            assert!(win[0] <= win[1] + 1e-12, "recall never decreases");
        }
        assert!(curve.iter().all(|&r| (0.0..=1.0).contains(&r)));
    }
}
