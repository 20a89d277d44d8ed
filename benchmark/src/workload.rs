//! The four workloads, their sizing, and set-up.
//!
//! | name | layer it isolates |
//! |---|---|
//! | `explore_rp` | one analyst, Recommendation-Powered, full scale: `core::recommend` is ~94 % of a step |
//! | `explore_ud` | same database and scripts, User-Driven: `core::recommend` never runs |
//! | `serve_read` | `nproc` closed-loop clients on one service: shared caches, queue, worker pool |
//! | `serve_mixed` | `serve_read` plus appends and checkpoints through the same service |
//!
//! All four are closed loops (a client sends its next step when the previous
//! one returned) driven by at most `nproc` client threads of this process.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use subdex_core::ExplorationMode;
use subdex_data::{yelp, GenParams};
use subdex_persist::PersistentStore;
use subdex_store::{SelectionQuery, SubjectiveDb};

use crate::script::ScriptGen;
use crate::summary;
use crate::trace::SpanLog;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ExploreRp,
    ExploreUd,
    ServeRead,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ExploreRp,
        Workload::ExploreUd,
        Workload::ServeRead,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ExploreRp => "explore_rp",
            Workload::ExploreUd => "explore_ud",
            Workload::ServeRead => "serve_read",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_explore(self) -> bool {
        matches!(self, Workload::ExploreRp | Workload::ExploreUd)
    }

    pub fn mode(self) -> ExplorationMode {
        match self {
            Workload::ExploreUd => ExplorationMode::UserDriven,
            _ => ExplorationMode::RecommendationPowered,
        }
    }
}

/// Sizes that do not depend on the seed. `full()` is the only profile whose
/// results are comparable; `smoke()` exists so tests and CI can execute every
/// code path in seconds.
///
/// A run repeats one fixed *round* of sessions until `--seconds` of stepping
/// have been measured, and reports each operation at the best of its repeats
/// (see [`crate::summary::BestOf`]): the build host's interference comes in
/// bursts of 0.2–3 s that slow whatever runs by up to 50 %, and a median
/// over one pass moves with them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Profile {
    pub smoke: bool,
    /// Yelp-like cardinalities of the `explore_*` database (Table 2 scale).
    pub explore: (usize, usize, usize),
    /// Cardinalities of the `serve_*` database (the user-study scale).
    pub serve: (usize, usize, usize),
    /// Sessions per round of `explore_rp`: the leading ones of `explore_ud`'s.
    pub rp_sessions: usize,
    /// Sessions per round of `explore_ud`, which is ~20x cheaper per step and
    /// so can afford a round that is a much larger sample of walks.
    pub ud_sessions: usize,
    /// Sessions per round of `serve_*`.
    pub serve_sessions: usize,
    /// Untimed sessions before the first round.
    pub warmup_sessions: usize,
    /// Set-ups made before and after the timed region (the median of all of
    /// them is reported).
    pub setup_repeats: (usize, usize),
    /// Append batches a store holds when it is reopened. `serve_mixed`
    /// issues them while it steps (topping up afterwards); the others issue
    /// them on an idle service after the timed region.
    pub append_batches: usize,
    /// `serve_mixed`: one append per this many completed steps.
    pub steps_per_append: u64,
    /// `serve_mixed`: one forced checkpoint per this many appends.
    pub appends_per_checkpoint: usize,
    /// Stores taken through the persistence tail (idle appends, shutdown,
    /// reopen); each is reopened `reopens_per_tail` times.
    pub tails: usize,
    pub reopens_per_tail: usize,
}

impl Profile {
    pub fn full() -> Self {
        let p = yelp::default_params();
        let study = p.scaled(0.2);
        Self {
            smoke: false,
            explore: (p.reviewers, p.items, p.ratings),
            serve: (study.reviewers, study.items, study.ratings),
            rp_sessions: 10,
            ud_sessions: 80,
            serve_sessions: 20,
            warmup_sessions: 2,
            setup_repeats: (3, 4),
            append_batches: 64,
            steps_per_append: 4,
            appends_per_checkpoint: 16,
            tails: 8,
            reopens_per_tail: 3,
        }
    }

    pub fn smoke() -> Self {
        Self {
            smoke: true,
            explore: (2_000, 40, 6_000),
            serve: (2_000, 40, 6_000),
            rp_sessions: 3,
            ud_sessions: 6,
            serve_sessions: 4,
            warmup_sessions: 1,
            setup_repeats: (1, 1),
            append_batches: 10,
            steps_per_append: 4,
            appends_per_checkpoint: 3,
            tails: 2,
            reopens_per_tail: 2,
        }
    }

    /// Sessions in one round of `workload`.
    pub fn round_sessions(&self, workload: Workload) -> usize {
        match workload {
            Workload::ExploreRp => self.rp_sessions,
            Workload::ExploreUd => self.ud_sessions,
            Workload::ServeRead | Workload::ServeMixed => self.serve_sessions,
        }
    }

    /// Generator parameters of `workload`'s database. The database is part
    /// of the benchmark's definition, as the paper's Yelp instance is part
    /// of its evaluation: the generator keeps its default seed, and `--seed`
    /// varies who explores it and what gets written to it. (Seeding the data
    /// too moved the root step's cost by up to 50 % between seeds.)
    pub fn params(&self, workload: Workload) -> GenParams {
        let (reviewers, items, ratings) = if workload.is_explore() {
            self.explore
        } else {
            self.serve
        };
        GenParams::new(reviewers, items, ratings, yelp::default_params().seed)
    }
}

/// What one `--workload` invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub profile: Profile,
}

/// Median set-up phase times in milliseconds, and the total in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_ms: f64,
    pub finish_ms: f64,
    pub scripts_ms: f64,
    pub create_ms: f64,
    pub total_s: f64,
}

/// Everything the timed region needs, built from the seed.
pub struct Prepared {
    pub db: Arc<SubjectiveDb>,
    /// Walk scripts (`explore_*`): one round's sessions, then the warm-up's.
    pub walks: Vec<Vec<SelectionQuery>>,
    /// Session-start templates (`serve_*`).
    pub templates: Vec<SelectionQuery>,
    /// Durable home of the `serve_*` database.
    pub store: Option<Arc<PersistentStore>>,
}

/// A scratch directory under `benchmark/out/`, removed on drop. The
/// benchmark writes nowhere else.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> std::io::Result<Self> {
        let path = out_dir()
            .join("tmp")
            .join(format!("{label}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where results, traces and scratch stores go (relative to the checkout
/// root the command runs from).
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}

/// Builds the workload's inputs once: dataset, index, scripts, and for
/// `serve_*` the initial snapshot in `store_dir`.
fn set_up_once(
    opts: &RunOptions,
    store_dir: &Path,
    log: &mut SpanLog,
) -> Result<(Prepared, [f64; 4]), String> {
    let t0 = Instant::now();
    let raw = yelp::generate(opts.profile.params(opts.workload));
    let t1 = Instant::now();
    let db = raw.finish().db;
    let t2 = Instant::now();
    let mut gen = ScriptGen::new(&db);
    let (walks, templates) = if opts.workload.is_explore() {
        let p = &opts.profile;
        let mut walks = gen.ranked_walks(opts.seed, p.ud_sessions, p.rp_sessions);
        walks.truncate(p.round_sessions(opts.workload));
        // The warm-up's walks are drawn after the round's.
        walks.extend((0..p.warmup_sessions).map(|i| gen.walk(opts.seed, p.ud_sessions + i)));
        (walks, Vec::new())
    } else {
        (Vec::new(), gen.templates(opts.seed))
    };
    let t3 = Instant::now();
    let (db, store) = if opts.workload.is_explore() {
        (Arc::new(db), None)
    } else {
        let store = PersistentStore::create(store_dir, db)
            .map_err(|e| format!("creating the store: {e}"))?;
        (store.db(), Some(Arc::new(store)))
    };
    let t4 = Instant::now();
    log.measured("data.generate", t0, t1);
    log.measured("data.finish", t1, t2);
    log.measured("setup.scripts", t2, t3);
    if store.is_some() {
        log.measured("persist.create", t3, t4);
    }
    let prepared = Prepared {
        db,
        walks,
        templates,
        store,
    };
    Ok((prepared, [ms(t0, t1), ms(t1, t2), ms(t2, t3), ms(t3, t4)]))
}

/// Phase times of every set-up a run made, in milliseconds.
#[derive(Debug, Default)]
pub struct SetupSamples {
    phases: [Vec<f64>; 4],
}

impl SetupSamples {
    /// Per-phase medians, and the median total in seconds.
    pub fn medians(&self) -> SetupTimes {
        let med = |v: Vec<f64>| summary::median(&summary::sorted(v));
        let rounds = self.phases[0].len();
        let totals = (0..rounds)
            .map(|i| self.phases.iter().map(|p| p[i]).sum::<f64>() / 1e3)
            .collect();
        SetupTimes {
            generate_ms: med(self.phases[0].clone()),
            finish_ms: med(self.phases[1].clone()),
            scripts_ms: med(self.phases[2].clone()),
            create_ms: med(self.phases[3].clone()),
            total_s: med(totals),
        }
    }

    pub fn rounds(&self) -> usize {
        self.phases[0].len()
    }
}

/// Runs set-up `rounds` times — one set-up is too short to time steadily —
/// adding its phase times to `samples`, and returns the last result. A run
/// sets up before the timed region and again after it: seven set-ups back to
/// back sit inside one 2 s window, which the host's slow spells cover whole.
pub fn set_up(
    opts: &RunOptions,
    scratch: &ScratchDir,
    rounds: usize,
    samples: &mut SetupSamples,
    log: &mut SpanLog,
) -> Result<Prepared, String> {
    let mut prepared = None;
    for _ in 0..rounds.max(1) {
        // The previous round's database must not inflate this one's peak.
        drop(prepared.take());
        let dir = scratch.path().join(format!("store-{}", samples.rounds()));
        let (p, times) = set_up_once(opts, &dir, log)?;
        for (phase, t) in samples.phases.iter_mut().zip(times) {
            phase.push(t);
        }
        prepared = Some(p);
    }
    Ok(prepared.expect("at least one round"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("explore"), None);
    }

    #[test]
    fn both_explore_workloads_share_one_database_and_script_pool() {
        let p = Profile::full();
        assert_eq!(p.params(Workload::ExploreRp), p.params(Workload::ExploreUd));
        assert_eq!(
            p.params(Workload::ServeRead),
            p.params(Workload::ServeMixed)
        );
        assert!(p.params(Workload::ServeRead).ratings < p.params(Workload::ExploreRp).ratings);
    }
}
