//! # subdex-core
//!
//! The SubDEx exploration engine — the primary contribution of
//! *Exploring Ratings in Subjective Databases* (SIGMOD '21).
//!
//! Given a subjective database (from `subdex-store`), the engine supports a
//! multi-step exploration process. At each step it:
//!
//! 1. materializes the rating group selected by the current query,
//! 2. generates, with high probability, the `l·k` rating maps with the
//!    highest *dimension-weighted utility* using the phase-based execution
//!    framework with sharing and pruning optimizations
//!    ([`generator::generate`], Algorithms 1–3),
//! 3. selects the most diverse `k`-subset with the GMM algorithm
//!    ([`selector`], Problem 1),
//! 4. recommends the top-`o` next-step operations by evaluating candidate
//!    query edits in parallel ([`recommend`], Problem 2).
//!
//! The three exploration modes of the paper — *User-Driven*,
//! *Recommendation-Powered* and *Fully-Automated* — are driven through
//! [`session::ExplorationSession`].
//!
//! Module map:
//!
//! | module | paper section |
//! |---|---|
//! | [`ratingmap`] | rating maps (Defs. 1–2, Sec. 3.2.2) |
//! | [`interest`] | interestingness criteria (Secs. 3.2.3, 4.1) |
//! | [`accumulator`] | shared multi-aggregate GroupBy state (Sec. 4.2.1) |
//! | [`utility`] | utility, DW utility, `getWeights` (Eq. 1, Alg. 2) |
//! | [`pruning`] | CI pruning (Alg. 3), MAB pruning (SAR) |
//! | [`generator`] | phase-based execution framework (Alg. 1) |
//! | [`mapdist`] | EMD distance between rating maps (Sec. 3.2.4) |
//! | [`selector`] | GMM diverse subset selection (Sec. 4.2.2) |
//! | [`recommend`] | Recommendation Builder (Sec. 4.3) |
//! | [`plan`] | per-step statistics + pooled step scratch |
//! | [`engine`] | SDE engine & configuration (Sec. 4, Fig. 4) |
//! | [`session`] | exploration modes (Sec. 3.3) |
//! | [`explain`] | textual narration of steps (the UI layer's voice) |
//! | [`sessionlog`] | durable operation logs + deterministic replay |
//! | [`personalize`] | log-driven recommendation re-ranking (future work §6) |

pub mod accumulator;
pub mod engine;
pub mod explain;
pub mod generator;
pub mod interest;
pub mod mapdist;
pub mod parallel;
pub mod personalize;
pub mod plan;
pub mod pruning;
pub mod ratingmap;
pub mod recommend;
pub mod render;
pub mod selector;
pub mod session;
pub mod sessionlog;
pub mod utility;

pub use engine::{EngineConfig, SdeEngine, StepResult};
pub use generator::SeenContext;
pub use mapdist::{DistScratch, DistanceEngine, MapSignature, SelectionStats};
pub use parallel::{budget_threads, resolve_threads, task_pool, TaskPool};
pub use plan::{ExecContext, GeneratorStats, PhaseTimes, StepStats};
pub use pruning::PruningStrategy;
pub use ratingmap::{MapKey, RatingMap, ScoredRatingMap};
pub use recommend::{Materialization, Recommendation};
pub use session::{ExplorationMode, ExplorationSession, SessionError};
pub use sessionlog::SessionLog;
pub use utility::{CriterionScores, UtilityCombiner};
