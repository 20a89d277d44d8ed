//! # SubDEx — Subjective Data Exploration
//!
//! A from-scratch Rust implementation of
//! *Exploring Ratings in Subjective Databases*
//! (Amer-Yahia, Milo, Youngmann — SIGMOD '21; demonstrated at ICDE '21).
//!
//! SubDEx guides the exploration of *subjective databases* — items,
//! reviewers, and multi-dimensional rating records — through an iterative
//! process: at every step it displays the `k` most **useful** and
//! **diverse** *rating maps* (grouped rating histograms) for the current
//! selection, and recommends the top-`o` next-step operations, staying
//! interactive through confidence-interval and multi-armed-bandit pruning.
//!
//! This crate is a facade re-exporting the workspace layers:
//!
//! * [`store`] — columnar subjective-database storage and selection queries;
//! * [`core`] — rating maps, utility, pruning, diversity, recommendations,
//!   the SDE engine and the three exploration modes;
//! * [`data`] — synthetic dataset twins of MovieLens / Yelp / Hotels, the
//!   review-sentiment ingestion pipeline, and study workloads;
//! * [`baselines`] — Smart Drill-Down and QAGView comparison systems;
//! * [`sim`] — the simulated user-study harness;
//! * [`stats`] — the numeric substrate (distributions, EMD, bounds, ANOVA);
//! * [`service`] — a concurrent multi-session exploration server with a
//!   shared map-distance cache and bounded-queue backpressure;
//! * [`persist`] — versioned columnar snapshots and a rating write-ahead
//!   log: durable databases with crash recovery and warm start.
//!
//! ## Quickstart
//!
//! ```
//! use subdex::prelude::*;
//!
//! // A small Yelp-like database with 4 rating dimensions.
//! let ds = subdex::data::yelp::dataset(GenParams::new(500, 60, 4000, 1));
//! let db = std::sync::Arc::new(ds.db);
//!
//! // One exploration step over everything.
//! let mut engine = SdeEngine::new(db.clone(), EngineConfig::default());
//! let result = engine.step(&SelectionQuery::all());
//! assert_eq!(result.maps.len(), 3);          // k = 3 diverse rating maps
//! assert!(!result.recommendations.is_empty()); // top-o next operations
//! ```

pub use subdex_baselines as baselines;
pub use subdex_core as core;
pub use subdex_data as data;
pub use subdex_persist as persist;
pub use subdex_service as service;
pub use subdex_sim as sim;
pub use subdex_stats as stats;
pub use subdex_store as store;

/// The most common imports, in one place.
pub mod prelude {
    pub use subdex_core::{
        EngineConfig, ExplorationMode, ExplorationSession, PruningStrategy, RatingMap,
        Recommendation, ScoredRatingMap, SdeEngine, StepResult,
    };
    pub use subdex_data::{GenParams, Insight, IrregularSpec};
    pub use subdex_persist::{PersistStats, PersistentStore};
    pub use subdex_service::{ServiceConfig, SessionId, StepRequest, SubdexService, SubmitError};
    pub use subdex_store::{
        AttrValue, Entity, RatingDraft, SelectionQuery, StoreError, SubjectiveDb, Value,
    };
}
