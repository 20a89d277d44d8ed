//! Exploration sessions and the three SDE modes (Section 3.3).
//!
//! * **User-Driven** — the system shows the `k` diverse rating maps; the
//!   user supplies every next operation herself (recommendations are not
//!   computed).
//! * **Recommendation-Powered** — maps *and* the top-`o` recommendations
//!   are shown; the user may take a recommendation or act on her own.
//! * **Fully-Automated** — the engine applies the top-1 recommendation for
//!   a fixed number of steps, producing an exploration path without user
//!   input.

use crate::engine::{EngineConfig, SdeEngine, StepResult};
use crate::recommend::Recommendation;
use std::sync::Arc;
use subdex_store::{SelectionQuery, SubjectiveDb};

/// The paper's three exploration modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExplorationMode {
    /// Maps only; the user chooses every operation.
    UserDriven,
    /// Maps plus top-`o` recommendations; the user chooses.
    RecommendationPowered,
    /// The top-1 recommendation is applied automatically each step.
    FullyAutomated,
}

impl std::fmt::Display for ExplorationMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ExplorationMode::UserDriven => "User-Driven",
            ExplorationMode::RecommendationPowered => "Recommendation-Powered",
            ExplorationMode::FullyAutomated => "Fully-Automated",
        };
        f.write_str(s)
    }
}

/// Errors a session can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// `apply_recommendation` was called with an out-of-range index or in
    /// User-Driven mode (where none are computed).
    NoSuchRecommendation,
    /// The session has not started yet.
    NotStarted,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::NoSuchRecommendation => write!(f, "no such recommendation"),
            SessionError::NotStarted => write!(f, "session not started"),
        }
    }
}

impl std::error::Error for SessionError {}

/// A multi-step exploration over one engine.
pub struct ExplorationSession {
    engine: SdeEngine,
    mode: ExplorationMode,
    path: Vec<StepResult>,
}

impl ExplorationSession {
    /// Creates a session. In User-Driven mode the engine skips
    /// recommendation computation entirely (the UI would not show them).
    pub fn new(db: Arc<SubjectiveDb>, mut config: EngineConfig, mode: ExplorationMode) -> Self {
        if mode == ExplorationMode::UserDriven {
            config.recommendations = false;
        }
        Self::with_engine(SdeEngine::new(db, config), mode)
    }

    /// Wraps a prebuilt engine — the hook the service layer uses to attach
    /// its shared distance cache ([`SdeEngine::with_distance_cache`]) before
    /// the session starts. The User-Driven recommendation skip is *not*
    /// re-applied here; the caller owns the final configuration.
    pub fn with_engine(engine: SdeEngine, mode: ExplorationMode) -> Self {
        Self {
            engine,
            mode,
            path: Vec::new(),
        }
    }

    /// The session's mode.
    pub fn mode(&self) -> ExplorationMode {
        self.mode
    }

    /// The steps taken so far, in order.
    pub fn path(&self) -> &[StepResult] {
        &self.path
    }

    /// The most recent step.
    pub fn current(&self) -> Option<&StepResult> {
        self.path.last()
    }

    /// The engine (for inspecting seen-context etc.).
    pub fn engine(&self) -> &SdeEngine {
        &self.engine
    }

    /// Caps the worker threads this session's subsequent steps may use
    /// (`0` = uncapped); see [`SdeEngine::set_thread_budget`].
    pub fn set_thread_budget(&mut self, budget: usize) {
        self.engine.set_thread_budget(budget);
    }

    /// A deterministic digest of everything semantically meaningful the
    /// session has produced: per step, the query, group size, the displayed
    /// maps (key, subgroup values, utility bits), and the recommendations
    /// (query, utility bits, group size). Wall-clock fields are excluded.
    ///
    /// Two sessions over the same database, configuration, and operation
    /// sequence must produce equal signatures — regardless of thread
    /// interleaving or whether a distance cache was attached. The service's
    /// stress test holds exactly this line.
    pub fn path_signature(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        };
        for step in &self.path {
            mix(step.step as u64);
            mix(step.query.fingerprint());
            mix(step.group_size as u64);
            mix(step.maps.len() as u64);
            for m in &step.maps {
                mix(matches!(m.map.key.entity, subdex_store::Entity::Item) as u64);
                mix(u64::from(m.map.key.attr.0));
                mix(u64::from(m.map.key.dim.0));
                mix(m.utility.to_bits());
                mix(m.dw_utility.to_bits());
                for sg in &m.map.subgroups {
                    mix(u64::from(sg.value.0));
                }
            }
            mix(step.recommendations.len() as u64);
            for r in &step.recommendations {
                mix(r.query.fingerprint());
                mix(r.utility.to_bits());
                mix(r.group_size as u64);
            }
        }
        h
    }

    /// Starts (or continues) the session with an explicit operation — the
    /// user-driven edge in every mode.
    pub fn apply_operation(&mut self, query: &SelectionQuery) -> &StepResult {
        let res = self.engine.step(query);
        self.path.push(res);
        self.path.last().expect("just pushed")
    }

    /// Recommendations currently on offer (empty in User-Driven mode or
    /// before the first step).
    pub fn recommendations(&self) -> &[Recommendation] {
        self.current()
            .map(|s| s.recommendations.as_slice())
            .unwrap_or(&[])
    }

    /// Applies the `idx`-th current recommendation
    /// (Recommendation-Powered mode).
    pub fn apply_recommendation(&mut self, idx: usize) -> Result<&StepResult, SessionError> {
        let query = self
            .current()
            .ok_or(SessionError::NotStarted)?
            .recommendations
            .get(idx)
            .ok_or(SessionError::NoSuchRecommendation)?
            .query
            .clone();
        Ok(self.apply_operation(&query))
    }

    /// Fully-Automated exploration: starts from `initial` and applies the
    /// top-1 recommendation for up to `steps − 1` further steps (stopping
    /// early if no recommendation is available). Returns the path length.
    pub fn auto_run(&mut self, initial: &SelectionQuery, steps: usize) -> usize {
        if steps == 0 {
            return 0;
        }
        self.apply_operation(initial);
        for _ in 1..steps {
            let Some(next) = self
                .current()
                .and_then(|s| s.recommendations.first())
                .map(|r| r.query.clone())
            else {
                break;
            };
            self.apply_operation(&next);
        }
        self.path.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subdex_store::{Cell, EntityTableBuilder, RatingTableBuilder, Schema};

    fn db() -> Arc<SubjectiveDb> {
        let mut us = Schema::new();
        us.add("gender", false);
        us.add("age", false);
        let mut ub = EntityTableBuilder::new(us);
        for i in 0..8 {
            ub.push_row(vec![
                Cell::from(if i % 2 == 0 { "F" } else { "M" }),
                Cell::from(["young", "old"][(i / 2) % 2]),
            ]);
        }
        let mut is = Schema::new();
        is.add("city", false);
        let mut ib = EntityTableBuilder::new(is);
        for i in 0..4 {
            ib.push_row(vec![Cell::from(if i < 2 { "NYC" } else { "SF" })]);
        }
        let mut rb = RatingTableBuilder::new(vec!["overall".into(), "food".into()], 5);
        for r in 0..8u32 {
            for i in 0..4u32 {
                rb.push(
                    r,
                    i,
                    &[1 + ((r * 2 + i) % 5) as u8, 1 + ((r + i * 3) % 5) as u8],
                );
            }
        }
        Arc::new(SubjectiveDb::new(ub.build(), ib.build(), rb.build(8, 4)))
    }

    fn quick_cfg() -> EngineConfig {
        EngineConfig {
            threads: 1,
            max_candidates: 12,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn user_driven_has_no_recommendations() {
        let mut s = ExplorationSession::new(db(), quick_cfg(), ExplorationMode::UserDriven);
        s.apply_operation(&SelectionQuery::all());
        assert!(s.recommendations().is_empty());
        assert_eq!(s.path().len(), 1);
        assert_eq!(s.mode(), ExplorationMode::UserDriven);
    }

    #[test]
    fn recommendation_powered_can_take_recommendation() {
        let mut s =
            ExplorationSession::new(db(), quick_cfg(), ExplorationMode::RecommendationPowered);
        s.apply_operation(&SelectionQuery::all());
        assert!(!s.recommendations().is_empty());
        let rec_query = s.recommendations()[0].query.clone();
        let step = s.apply_recommendation(0).unwrap();
        assert_eq!(step.query, rec_query);
        assert_eq!(s.path().len(), 2);
    }

    #[test]
    fn apply_recommendation_errors() {
        let mut s =
            ExplorationSession::new(db(), quick_cfg(), ExplorationMode::RecommendationPowered);
        assert_eq!(
            s.apply_recommendation(0).unwrap_err(),
            SessionError::NotStarted
        );
        s.apply_operation(&SelectionQuery::all());
        assert_eq!(
            s.apply_recommendation(99).unwrap_err(),
            SessionError::NoSuchRecommendation
        );
    }

    #[test]
    fn fully_automated_builds_fixed_path() {
        let mut s = ExplorationSession::new(db(), quick_cfg(), ExplorationMode::FullyAutomated);
        let n = s.auto_run(&SelectionQuery::all(), 4);
        assert_eq!(n, 4);
        assert_eq!(s.path().len(), 4);
        // Each step follows the previous step's top recommendation.
        for w in s.path().windows(2) {
            assert_eq!(w[1].query, w[0].recommendations[0].query);
        }
    }

    #[test]
    fn auto_run_zero_steps() {
        let mut s = ExplorationSession::new(db(), quick_cfg(), ExplorationMode::FullyAutomated);
        assert_eq!(s.auto_run(&SelectionQuery::all(), 0), 0);
        assert!(s.current().is_none());
    }

    #[test]
    fn path_signature_is_deterministic_and_discriminating() {
        let run = |steps: usize| {
            let mut s = ExplorationSession::new(db(), quick_cfg(), ExplorationMode::FullyAutomated);
            s.auto_run(&SelectionQuery::all(), steps);
            s.path_signature()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(2), run(3), "different paths, different signatures");
        assert_eq!(
            ExplorationSession::new(db(), quick_cfg(), ExplorationMode::UserDriven)
                .path_signature(),
            ExplorationSession::new(db(), quick_cfg(), ExplorationMode::UserDriven)
                .path_signature(),
            "empty paths agree"
        );
    }

    #[test]
    fn with_engine_attaches_cache() {
        use subdex_store::DistanceCache;
        let db = db();
        let cache = Arc::new(DistanceCache::new(1 << 20));
        let engine = SdeEngine::new(db, quick_cfg()).with_distance_cache(cache.clone());
        let mut s = ExplorationSession::with_engine(engine, ExplorationMode::UserDriven);
        s.apply_operation(&SelectionQuery::all());
        assert!(cache.stats().misses > 0, "session populated shared cache");
    }

    #[test]
    fn mode_display() {
        assert_eq!(ExplorationMode::UserDriven.to_string(), "User-Driven");
        assert_eq!(
            ExplorationMode::RecommendationPowered.to_string(),
            "Recommendation-Powered"
        );
        assert_eq!(
            ExplorationMode::FullyAutomated.to_string(),
            "Fully-Automated"
        );
    }
}
