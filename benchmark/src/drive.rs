//! The timed region of each workload and the persistence tail. Every call
//! into the program is made here, through its top-level entry points only,
//! with an `Instant` pair around it.
//!
//! A run repeats one fixed *round* — the seed's sessions, on fresh sessions
//! (and for `serve_*` a fresh service, so caches start cold each round) —
//! until `--seconds` of stepping have been measured; the first round always
//! completes. Each operation has a slot (session × step, or batch number)
//! and is reported at the best of its repeats.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use subdex_core::plan::StepStats;
use subdex_core::{EngineConfig, ExplorationSession, Materialization, SelectionStats, StepResult};
use subdex_persist::{PersistStats, PersistentStore, WAL_FILE};
use subdex_service::{MetricsSnapshot, ServiceConfig, ServiceError, StepRequest, SubdexService};
use subdex_store::{SelectionQuery, SubjectiveDb};

use crate::host;
use crate::rng::{zipf_weights, Rng};
use crate::script::{draft_batch, start_ranks, BATCH, WALK_STEPS};
use crate::summary::BestOf;
use crate::trace::{Span, SpanLog, NO_SESSION};
use crate::verify::{check_step, Fingerprint, GroupSizes};
use crate::workload::{Prepared, RunOptions, ScratchDir, Workload};

/// Probabilities of following the recommendation ranked 0, 1, 2.
const RANK_WEIGHTS: [f64; 3] = [0.6, 0.3, 0.1];

/// Counters summed over steps (timings live in the span log).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub steps: u64,
    pub exec: Duration,
    pub candidates: u64,
    pub pruned_ci: u64,
    pub pruned_mab: u64,
    pub materialization: Materialization,
    pub selection: SelectionStats,
}

impl Counters {
    fn add(&mut self, s: &StepStats) {
        self.steps += 1;
        self.exec += s.elapsed;
        self.candidates += s.generator.candidates_total as u64;
        self.pruned_ci += s.generator.pruned_ci as u64;
        self.pruned_mab += s.generator.pruned_mab as u64;
        self.materialization.merge(&s.materialization);
        self.selection.merge(&s.selection);
    }

    fn merge(&mut self, o: &Counters) {
        self.steps += o.steps;
        self.exec += o.exec;
        self.candidates += o.candidates;
        self.pruned_ci += o.pruned_ci;
        self.pruned_mab += o.pruned_mab;
        self.materialization.merge(&o.materialization);
        self.selection.merge(&o.selection);
    }
}

/// One verified step as its caller saw it.
#[derive(Debug, Clone, Copy)]
pub struct StepSample {
    /// `session × WALK_STEPS + step`: the same operation in every round.
    pub slot: usize,
    pub ms: f64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What one client thread saw during one round.
#[derive(Default)]
struct ClientLog {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    steps: Vec<StepSample>,
    /// Caller latency minus the executor's own `elapsed`, ms (`serve_*`).
    queue_wait_ms: Vec<f64>,
    session_create_us: Vec<f64>,
    sessions: u64,
    counters: Counters,
    /// Order-independent sum of per-session result digests.
    fingerprint: u64,
    allocs: u64,
    alloc_bytes: u64,
    sizes: GroupSizes,
    writes: WriteLog,
}

/// The write side of one round or tail.
#[derive(Default)]
struct WriteLog {
    /// `(batch number, ms)` of each sampled `append_ratings` call.
    append_ms: Vec<(usize, f64)>,
    /// Batches acknowledged so far on the current store.
    acked: usize,
    /// Appends issued while the round was stepping.
    timed_batches: u64,
    checkpoint_ms: Vec<f64>,
    checkpoint_spans: Vec<(u64, u64)>,
    wal_bytes: u64,
    wal_ratings: u64,
}

impl ClientLog {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    fn merge(&mut self, o: ClientLog) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.errors.extend(o.errors);
        self.steps.extend(o.steps);
        self.queue_wait_ms.extend(o.queue_wait_ms);
        self.session_create_us.extend(o.session_create_us);
        self.sessions += o.sessions;
        self.counters.merge(&o.counters);
        self.fingerprint = self.fingerprint.wrapping_add(o.fingerprint);
        self.allocs += o.allocs;
        self.alloc_bytes += o.alloc_bytes;
        self.sizes.merge(o.sizes);
        // Only one client writes, so write logs never interleave.
        if o.writes.acked > 0 {
            self.writes = o.writes;
        }
    }
}

/// One round of the timed region.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    pub steps: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Whether every session of the round ran to its end.
    pub complete: bool,
    pub fingerprint: u64,
    pub counters: Counters,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Everything the run recorded.
#[derive(Default)]
pub struct Region {
    pub rounds: Vec<Round>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Step latency per slot, best of the rounds.
    pub step_best: BestOf,
    /// Every verified step execution, in no particular order.
    pub steps: Vec<StepSample>,
    pub queue_wait_ms: Vec<f64>,
    pub session_create_us: Vec<f64>,
    pub sessions: u64,
    /// Counters over every execution of every round.
    pub counters: Counters,
    pub sizes: GroupSizes,
    /// Append latency per batch number, best of the rounds or tails.
    pub append_best: BestOf,
    pub timed_batches: u64,
    pub checkpoint_ms: Vec<f64>,
    pub checkpoint_spans: Vec<(u64, u64)>,
    pub wal_bytes: u64,
    pub wal_ratings: u64,
    /// `PersistentStore::open` latency per reopen slot, best of the tails.
    pub reopen_best: BestOf,
    pub snapshot_load_ms: Vec<f64>,
    /// `PersistStats` and database of the last store reopened.
    pub reopened: Option<(PersistStats, Arc<SubjectiveDb>)>,
    pub spans: Vec<Span>,
    /// Service-side view at the end of the last complete round (`serve_*`).
    pub service: Option<MetricsSnapshot>,
    pub workers: usize,
    /// `VmHWM` when the first round stopped stepping.
    pub peak_rss_mb: f64,
}

impl Region {
    /// Folds one round's merged client logs in.
    fn absorb(&mut self, log: ClientLog, wall_s: f64, cpu_s: f64, complete: bool) {
        self.rounds.push(Round {
            steps: log.steps.len() as u64,
            wall_s,
            cpu_s,
            complete,
            fingerprint: log.fingerprint,
            counters: log.counters,
            allocs: log.allocs,
            alloc_bytes: log.alloc_bytes,
        });
        self.attempted += log.attempted;
        self.failed += log.failed;
        self.errors.extend(log.errors);
        self.errors.truncate(8);
        for s in &log.steps {
            self.step_best.observe(s.slot, s.ms);
        }
        self.steps.extend(log.steps);
        self.queue_wait_ms.extend(log.queue_wait_ms);
        self.session_create_us.extend(log.session_create_us);
        self.sessions += log.sessions;
        self.counters.merge(&log.counters);
        self.sizes.merge(log.sizes);
        self.absorb_writes(log.writes);
        // Later rounds add what the allocator retained from earlier ones, and
        // how many rounds fit depends on the host: one round is fixed work.
        if self.rounds.len() == 1 {
            self.peak_rss_mb = host::peak_rss_mb();
        }
    }

    fn absorb_writes(&mut self, w: WriteLog) {
        for (batch, ms) in w.append_ms {
            self.append_best.observe(batch, ms);
        }
        self.timed_batches += w.timed_batches;
        self.checkpoint_ms.extend(w.checkpoint_ms);
        self.checkpoint_spans.extend(w.checkpoint_spans);
        self.wal_bytes += w.wal_bytes;
        self.wal_ratings += w.wal_ratings;
    }

    /// Stepping time measured so far.
    fn measured_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.wall_s).sum()
    }

    /// Whether another round should start.
    fn wants_more(&self, opts: &RunOptions) -> bool {
        self.rounds.last().is_some_and(|r| r.complete) && self.measured_s() < opts.seconds
    }

    /// The deadline of the next round; the first one has none.
    fn next_deadline(&self, opts: &RunOptions) -> Option<Instant> {
        (!self.rounds.is_empty())
            .then(|| Instant::now() + Duration::from_secs_f64(opts.seconds - self.measured_s()))
    }
}

fn step_counters(s: &StepStats) -> Vec<(&'static str, u64)> {
    let m = &s.materialization;
    let sel = &s.selection;
    vec![
        ("candidates", s.generator.candidates_total as u64),
        ("pruned_ci", s.generator.pruned_ci as u64),
        ("pruned_mab", s.generator.pruned_mab as u64),
        ("groups_derived", m.derived),
        ("groups_walked", m.walked),
        ("groups_probed", m.probed),
        ("groups_cached", m.cached),
        ("groups_skipped_empty", m.skipped_empty),
        ("records_filtered", m.records_filtered),
        ("exact_solves", sel.exact_solves),
        ("pruned_mixture", sel.pruned_mixture),
        ("pruned_matrix", sel.pruned_matrix),
        ("dist_cache_hits", sel.cache_hits),
        ("db_epoch", s.db_epoch),
    ]
}

/// Records the step span and, as its children, the phase durations the
/// program reported, laid end to end from `exec_start_ns`.
#[allow(clippy::too_many_arguments)]
fn record_step_spans(
    log: &mut SpanLog,
    session: u32,
    step: u32,
    parent: Option<u32>,
    exec_start_ns: u64,
    exec_end_ns: u64,
    reported: bool,
    stats: &StepStats,
) {
    if !log.enabled() {
        return;
    }
    let id = log.record(
        session,
        step,
        parent,
        "step",
        exec_start_ns,
        exec_end_ns,
        reported,
        step_counters(stats),
    );
    let p = &stats.phases;
    let mut cursor = exec_start_ns;
    for (name, d) in [
        ("store.materialize", p.scan_groups),
        ("core.generate", p.generate),
        ("core.select", p.select),
        ("core.recommend", p.recommend),
    ] {
        let end = cursor + d.as_nanos() as u64;
        let child = log.record(session, step, Some(id), name, cursor, end, true, Vec::new());
        if name == "core.generate" {
            let scan_end = cursor + p.scan.as_nanos() as u64;
            log.record(
                session,
                step,
                Some(child),
                "core.scan",
                cursor,
                scan_end,
                true,
                Vec::new(),
            );
        }
        cursor = end;
    }
}

/// Verifies one step result and books it. Returns false when the verifier
/// rejected it.
fn book_step(
    log: &mut ClientLog,
    digest: &mut Fingerprint,
    slot: usize,
    requested: &SelectionQuery,
    result: &StepResult,
    limits: (usize, usize),
    (start_ns, end_ns): (u64, u64),
) -> bool {
    if let Err(why) = check_step(requested, result, limits.0, limits.1) {
        log.fail(format!("step rejected by the verifier: {why}"));
        return false;
    }
    log.steps.push(StepSample {
        slot,
        ms: (end_ns - start_ns) as f64 / 1e6,
        start_ns,
        end_ns,
    });
    log.counters.add(&result.stats);
    log.sizes.observe(result);
    digest.add_step(result);
    true
}

/// Where a session sits in the run: its number within the round (which
/// fixes its script and slots) and its ordinal over all rounds (its trace
/// id).
#[derive(Clone, Copy)]
struct SessionRef {
    in_round: usize,
    ordinal: u32,
}

/// One `explore_*` session: a fresh `ExplorationSession` stepped through a
/// walk script. Returns false when the deadline cut it short.
#[allow(clippy::too_many_arguments)]
fn explore_session(
    opts: &RunOptions,
    db: &Arc<SubjectiveDb>,
    config: EngineConfig,
    script: &[SelectionQuery],
    at: SessionRef,
    count_allocs: bool,
    deadline: Option<Instant>,
    log: &mut ClientLog,
    spans: &mut SpanLog,
) -> bool {
    let limits = (
        config.k,
        if opts.workload == Workload::ExploreUd {
            0
        } else {
            config.o
        },
    );
    let mut session = ExplorationSession::new(Arc::clone(db), config, opts.workload.mode());
    let mut digest = Fingerprint::default();
    for (step_no, query) in script.iter().enumerate() {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return false;
        }
        log.attempted += 1;
        let before = host::alloc_counts();
        host::count_allocs(count_allocs);
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            session.apply_operation(query);
        }));
        let t1 = Instant::now();
        host::count_allocs(false);
        let Some(result) = outcome.ok().and_then(|()| session.current()) else {
            log.fail(format!(
                "step {step_no} of session {} panicked",
                at.in_round
            ));
            return true;
        };
        let at_ns = (spans.ns(t0), spans.ns(t1));
        let slot = at.in_round * WALK_STEPS + step_no;
        if !book_step(log, &mut digest, slot, query, result, limits, at_ns) {
            return true;
        }
        let after = host::alloc_counts();
        log.allocs += after.0 - before.0;
        log.alloc_bytes += after.1 - before.1;
        record_step_spans(
            spans,
            at.ordinal,
            step_no as u32,
            None,
            at_ns.0,
            at_ns.1,
            false,
            &result.stats,
        );
    }
    log.sessions += 1;
    log.fingerprint = log.fingerprint.wrapping_add(digest.0);
    true
}

/// The timed region of `explore_rp` / `explore_ud`.
pub fn run_explore(opts: &RunOptions, prepared: &Prepared, origin: Instant) -> Region {
    let config = EngineConfig::default();
    let sessions = opts.profile.round_sessions(opts.workload);
    let mut region = Region::default();

    let mut warm = ClientLog::default();
    let mut off = SpanLog::new(false, origin, 0);
    for (i, script) in prepared.walks[sessions..].iter().enumerate() {
        let at = SessionRef {
            in_round: sessions + i,
            ordinal: 0,
        };
        explore_session(
            opts,
            &prepared.db,
            config,
            script,
            at,
            false,
            None,
            &mut warm,
            &mut off,
        );
    }
    // Warm-up failures are failures too; its samples are not samples.
    region.attempted += warm.attempted;
    region.failed += warm.failed;
    region.errors.extend(warm.errors);

    let mut spans = SpanLog::new(opts.trace, origin, 1);
    loop {
        let round = region.rounds.len();
        let deadline = region.next_deadline(opts);
        let mut log = ClientLog::default();
        let cpu0 = host::cpu_seconds();
        let start = Instant::now();
        let mut complete = true;
        for (i, script) in prepared.walks[..sessions].iter().enumerate() {
            let at = SessionRef {
                in_round: i,
                ordinal: (round * sessions + i) as u32,
            };
            // Allocations are counted in the traced run's first round only.
            let count = opts.trace && round == 0;
            if !explore_session(
                opts,
                &prepared.db,
                config,
                script,
                at,
                count,
                deadline,
                &mut log,
                &mut spans,
            ) {
                complete = false;
                break;
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        region.absorb(log, wall_s, host::cpu_seconds() - cpu0, complete);
        if !region.wants_more(opts) {
            break;
        }
    }
    region.spans = spans.into_spans();
    region
}

/// The service configuration of `serve_*`: all defaults, one worker per
/// core, and a background checkpointer that never fires on its own (so
/// checkpoints are the count-triggered ones the workload issues).
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: host::cores(),
        checkpoint_interval: Duration::from_secs(24 * 3600),
        checkpoint_dirty_threshold: u64::MAX,
        ..ServiceConfig::default()
    }
}

/// What every round of a `serve_*` run shares: the seed's inputs.
#[derive(Clone, Copy)]
struct ServeInputs<'a> {
    opts: &'a RunOptions,
    db: &'a SubjectiveDb,
    templates: &'a [SelectionQuery],
    template_weights: &'a [f64],
    /// Template rank each of the round's sessions starts from.
    start_ranks: &'a [usize],
}

/// Shared state of one round's `serve_*` clients.
struct ServeShared<'a> {
    inputs: ServeInputs<'a>,
    service: &'a SubdexService,
    next_session: AtomicUsize,
    completed_steps: AtomicU64,
    deadline: Option<Instant>,
    /// Sessions run before this round, for trace ids.
    ordinal_base: usize,
}

impl<'a> ServeShared<'a> {
    fn new(
        inputs: ServeInputs<'a>,
        service: &'a SubdexService,
        deadline: Option<Instant>,
        ordinal_base: usize,
    ) -> Self {
        Self {
            inputs,
            service,
            next_session: AtomicUsize::new(0),
            completed_steps: AtomicU64::new(0),
            deadline,
            ordinal_base,
        }
    }
}

fn wal_len(store_dir: &Path) -> u64 {
    std::fs::metadata(store_dir.join(WAL_FILE)).map_or(0, |m| m.len())
}

/// One durable append through the service, timed and booked.
fn append_batch(
    service: &SubdexService,
    db: &SubjectiveDb,
    seed: u64,
    sampled: bool,
    log: &mut ClientLog,
    spans: &mut SpanLog,
) {
    let batch = log.writes.acked;
    let drafts = draft_batch(db, seed, batch);
    let store_dir = service.store().map(|s| s.dir().to_owned());
    let wal_before = store_dir.as_deref().map_or(0, wal_len);
    log.attempted += 1;
    let t0 = Instant::now();
    let outcome = service.append_ratings(&drafts);
    let t1 = Instant::now();
    match outcome {
        Ok(epoch) => {
            log.writes.acked += 1;
            if sampled {
                let ms = t1.duration_since(t0).as_secs_f64() * 1e3;
                log.writes.append_ms.push((batch, ms));
            }
            let wal_after = store_dir.as_deref().map_or(0, wal_len);
            log.writes.wal_bytes += wal_after.saturating_sub(wal_before);
            log.writes.wal_ratings += drafts.len() as u64;
            let (s, e) = (spans.ns(t0), spans.ns(t1));
            spans.record(
                NO_SESSION,
                0,
                None,
                "persist.append",
                s,
                e,
                false,
                vec![("epoch", epoch), ("ratings", drafts.len() as u64)],
            );
        }
        Err(e) => log.fail(format!("append {batch} failed: {e}")),
    }
}

fn force_checkpoint(service: &SubdexService, log: &mut ClientLog, spans: &mut SpanLog) {
    log.attempted += 1;
    let t0 = Instant::now();
    let outcome = service.checkpoint();
    let t1 = Instant::now();
    match outcome {
        Ok(bytes) => {
            let (s, e) = (spans.ns(t0), spans.ns(t1));
            log.writes
                .checkpoint_ms
                .push(t1.duration_since(t0).as_secs_f64() * 1e3);
            log.writes.checkpoint_spans.push((s, e));
            spans.record(
                NO_SESSION,
                0,
                None,
                "persist.checkpoint",
                s,
                e,
                false,
                vec![("snapshot_bytes", bytes)],
            );
        }
        Err(e) => log.fail(format!("checkpoint failed: {e}")),
    }
}

/// One `serve_*` session: the start query is the template its Zipf(1.0)
/// schedule assigns, later steps follow a recommendation of the previous step
/// (rank 0/1/2 with p 0.6/0.3/0.1), so step i+1's group was a candidate of
/// step i — the reuse the shared caches exist for. Returns false when the
/// deadline cut it short.
fn serve_session(
    shared: &ServeShared<'_>,
    in_round: usize,
    writer: bool,
    log: &mut ClientLog,
    spans: &mut SpanLog,
) -> bool {
    let service = shared.service;
    let engine = service.config().engine;
    let limits = (engine.k, engine.o);
    let ordinal = (shared.ordinal_base + in_round) as u32;
    let mut rng = Rng::fork(shared.inputs.opts.seed, 0x5e55_0000 + in_round as u64);
    let t0 = Instant::now();
    let id = service.create_session();
    let t1 = Instant::now();
    log.session_create_us
        .push(t1.duration_since(t0).as_secs_f64() * 1e6);
    let (s, e) = (spans.ns(t0), spans.ns(t1));
    spans.record(
        ordinal,
        0,
        None,
        "service.create_session",
        s,
        e,
        false,
        Vec::new(),
    );

    let mut digest = Fingerprint::default();
    let mut offered: Vec<SelectionQuery> = Vec::new();
    let mut finished = true;
    for step_no in 0..WALK_STEPS {
        if shared.deadline.is_some_and(|d| Instant::now() >= d) {
            finished = false;
            break;
        }
        let (request, expected) = if offered.is_empty() {
            // A session opens on its scheduled template; one that runs out
            // of recommendations later restarts from a drawn one.
            let rank = match shared.inputs.start_ranks.get(in_round) {
                Some(&rank) if step_no == 0 => rank,
                _ => rng.weighted(shared.inputs.template_weights),
            };
            let q = shared.inputs.templates[rank].clone();
            (StepRequest::Operation(q.clone()), q)
        } else {
            let rank = rng.weighted(&RANK_WEIGHTS).min(offered.len() - 1);
            (StepRequest::Recommendation(rank), offered[rank].clone())
        };
        log.attempted += 1;
        let t0 = Instant::now();
        let outcome = service
            .submit(id, request)
            .map_err(ServiceError::from)
            .and_then(|ticket| ticket.wait());
        let t1 = Instant::now();
        let result = match outcome {
            Ok(result) => result,
            Err(e) => {
                log.fail(format!("step {step_no} of session {in_round}: {e}"));
                break;
            }
        };
        let (s, e) = (spans.ns(t0), spans.ns(t1));
        let slot = in_round * WALK_STEPS + step_no;
        if !book_step(log, &mut digest, slot, &expected, &result, limits, (s, e)) {
            break;
        }
        let exec_ns = result.stats.elapsed.as_nanos() as u64;
        log.queue_wait_ms
            .push((e - s).saturating_sub(exec_ns) as f64 / 1e6);
        if spans.enabled() {
            let wait = spans.record(
                ordinal,
                step_no as u32,
                None,
                "service.submit_wait",
                s,
                e,
                false,
                Vec::new(),
            );
            record_step_spans(
                spans,
                ordinal,
                step_no as u32,
                Some(wait),
                e.saturating_sub(exec_ns).max(s),
                e,
                true,
                &result.stats,
            );
        }
        offered = result
            .recommendations
            .iter()
            .map(|r| r.query.clone())
            .collect();

        let done = shared.completed_steps.fetch_add(1, Ordering::Relaxed) + 1;
        if writer {
            let p = &shared.inputs.opts.profile;
            let issued = log.writes.timed_batches;
            if issued < p.append_batches as u64 && done / p.steps_per_append > issued {
                append_batch(
                    service,
                    shared.inputs.db,
                    shared.inputs.opts.seed,
                    true,
                    log,
                    spans,
                );
                log.writes.timed_batches += 1;
                if log
                    .writes
                    .timed_batches
                    .is_multiple_of(p.appends_per_checkpoint as u64)
                {
                    force_checkpoint(service, log, spans);
                }
            }
        }
    }
    service.remove_session(id);
    if finished {
        log.sessions += 1;
        log.fingerprint = log.fingerprint.wrapping_add(digest.0);
    }
    finished
}

/// One round of `serve_*`: one client thread per core, each taking the next
/// session of the round until none is left; client 0 also writes in
/// `serve_mixed`. Returns the merged client logs and whether every session
/// ran to its end.
fn serve_round(
    shared: &ServeShared<'_>,
    spans: &mut Vec<Span>,
    origin: Instant,
) -> (ClientLog, bool) {
    let opts = shared.inputs.opts;
    let sessions = opts.profile.serve_sessions;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..host::cores())
            .map(|client| {
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    let mut spans = SpanLog::new(opts.trace, origin, 1 + client as u32);
                    let writer = client == 0 && opts.workload == Workload::ServeMixed;
                    let mut complete = true;
                    loop {
                        let n = shared.next_session.fetch_add(1, Ordering::Relaxed);
                        if n >= sessions {
                            break;
                        }
                        if !serve_session(shared, n, writer, &mut log, &mut spans) {
                            complete = false;
                            break;
                        }
                    }
                    (log, spans.into_spans(), complete)
                })
            })
            .collect();
        let mut merged = ClientLog::default();
        let mut complete = true;
        for h in handles {
            match h.join() {
                Ok((log, client_spans, done)) => {
                    merged.merge(log);
                    spans.extend(client_spans);
                    complete &= done;
                }
                Err(_) => merged.fail("a client thread panicked".into()),
            }
        }
        (merged, complete)
    })
}

/// The timed region of `serve_read` / `serve_mixed`, and for `serve_mixed`
/// the persistence tail of each round's own store.
pub fn run_serve(
    opts: &RunOptions,
    prepared: &Prepared,
    scratch: &ScratchDir,
    origin: Instant,
    tail_spans: &mut SpanLog,
) -> Result<Region, String> {
    let p = &opts.profile;
    let mixed = opts.workload == Workload::ServeMixed;
    let template_weights = zipf_weights(prepared.templates.len(), 1.0);
    let start_ranks = start_ranks(opts.seed, p.serve_sessions, prepared.templates.len());
    let inputs = ServeInputs {
        opts,
        db: &prepared.db,
        templates: &prepared.templates,
        template_weights: &template_weights,
        start_ranks: &start_ranks,
    };
    let mut region = Region {
        workers: service_config().workers,
        ..Region::default()
    };

    // Warm-up on a throwaway in-memory service: thread pools and allocator
    // arenas are process-wide, the service's caches are not.
    {
        let service = SubdexService::start(Arc::clone(&prepared.db), service_config());
        let shared = ServeShared::new(inputs, &service, None, 0);
        let mut warm = ClientLog::default();
        let mut off = SpanLog::new(false, origin, 0);
        for i in 0..p.warmup_sessions {
            serve_session(&shared, p.serve_sessions + i, false, &mut warm, &mut off);
        }
        service.shutdown();
        region.attempted += warm.attempted;
        region.failed += warm.failed;
        region.errors.extend(warm.errors);
    }

    let mut tails = 0;
    loop {
        let round = region.rounds.len();
        // Reads share the set-up's store; writes get a fresh copy per round,
        // so every round steps over the same growing database.
        let store = if mixed {
            let dir = scratch.path().join(format!("round-{round}"));
            let store = PersistentStore::create(&dir, SubjectiveDb::clone(&prepared.db))
                .map_err(|e| format!("creating round {round}'s store: {e}"))?;
            Arc::new(store)
        } else {
            prepared
                .store
                .clone()
                .ok_or("serve workloads have a store")?
        };
        let service = SubdexService::start_persistent(store, service_config());
        let shared = ServeShared::new(
            inputs,
            &service,
            region.next_deadline(opts),
            round * p.serve_sessions,
        );
        let cpu0 = host::cpu_seconds();
        let start = Instant::now();
        let (mut log, complete) = serve_round(&shared, &mut region.spans, origin);
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_s = host::cpu_seconds() - cpu0;
        if complete {
            region.service = Some(service.metrics());
        }
        let writes = std::mem::take(&mut log.writes);
        region.absorb(log, wall_s, cpu_s, complete);
        if mixed && complete && tails < p.tails {
            tails += 1;
            persist_tail(opts, service, &prepared.db, writes, &mut region, tail_spans)?;
        } else {
            region.absorb_writes(writes);
            service.shutdown();
        }
        if !region.wants_more(opts) {
            break;
        }
    }
    Ok(region)
}

/// The persistence tails of the workloads that do not write while stepping:
/// `tails` fresh stores of the workload's database, each behind an idle
/// service.
pub fn idle_tails(
    opts: &RunOptions,
    prepared: &Prepared,
    scratch: &ScratchDir,
    region: &mut Region,
    spans: &mut SpanLog,
) -> Result<(), String> {
    for pass in 0..opts.profile.tails {
        let dir = scratch.path().join(format!("tail-{pass}"));
        let store = PersistentStore::create(&dir, SubjectiveDb::clone(&prepared.db))
            .map_err(|e| format!("creating the tail store: {e}"))?;
        let service = SubdexService::start_persistent(Arc::new(store), service_config());
        persist_tail(
            opts,
            service,
            &prepared.db,
            WriteLog::default(),
            region,
            spans,
        )?;
    }
    Ok(())
}

/// Ends a store's life the way every workload does: bring it to
/// `append_batches` acknowledged batches (sampled as idle-service appends
/// unless the round already wrote), shut the service down, and reopen the
/// store `reopens_per_tail` times, checking that every acknowledged append
/// is there.
fn persist_tail(
    opts: &RunOptions,
    service: SubdexService,
    initial_db: &SubjectiveDb,
    writes: WriteLog,
    region: &mut Region,
    spans: &mut SpanLog,
) -> Result<(), String> {
    let p = &opts.profile;
    let sampled = opts.workload != Workload::ServeMixed;
    let mut log = ClientLog {
        writes,
        ..ClientLog::default()
    };
    while log.writes.acked < p.append_batches && log.failed == 0 {
        append_batch(&service, initial_db, opts.seed, sampled, &mut log, spans);
    }
    let dir = service
        .store()
        .map(|s| s.dir().to_owned())
        .ok_or("the tail needs a persistent service")?;
    service.shutdown();
    drop(service);

    let acked = log.writes.acked;
    region.attempted += log.attempted;
    region.failed += log.failed;
    region.errors.extend(log.errors);
    region.absorb_writes(log.writes);

    let mut last = None;
    for slot in 0..p.reopens_per_tail.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let store = PersistentStore::open(&dir).map_err(|e| format!("reopen failed: {e}"))?;
        let t1 = Instant::now();
        region
            .reopen_best
            .observe(slot, t1.duration_since(t0).as_secs_f64() * 1e3);
        let stats = store.stats();
        region.snapshot_load_ms.push(stats.load_micros as f64 / 1e3);
        let (s, e) = (spans.ns(t0), spans.ns(t1));
        spans.record(
            NO_SESSION,
            0,
            None,
            "persist.open",
            s,
            e,
            false,
            vec![
                ("wal_batches_replayed", stats.wal_replayed_batches),
                ("snapshot_bytes", stats.snapshot_bytes),
            ],
        );
        last = Some(store);
    }
    let store = last.expect("at least one reopen");
    let db = store.db();

    // Durability: every acknowledged draft is there, and the last
    // acknowledged batch reads back value for value.
    let initial = initial_db.ratings().len();
    let ratings = db.ratings();
    let mut durable = ratings.len() == initial + acked * BATCH;
    if durable && acked > 0 {
        let batch = draft_batch(initial_db, opts.seed, acked - 1);
        let base = ratings.len() - BATCH;
        durable = batch.iter().enumerate().all(|(i, d)| {
            let rec = (base + i) as u32;
            ratings.reviewer_of(rec) == d.reviewer
                && ratings.item_of(rec) == d.item
                && ratings
                    .dims()
                    .zip(&d.scores)
                    .all(|(dim, &s)| ratings.score(rec, dim) == s)
        });
    }
    if !durable {
        region.failed += acked as u64;
        region.errors.push(format!(
            "after reopen: {} ratings, expected {initial} + {acked} x {BATCH} with the last batch intact",
            ratings.len(),
        ));
    }
    region.reopened = Some((store.stats(), Arc::clone(&db)));
    Ok(())
}

/// Rating count at epoch `e` of a store that began with `initial` ratings:
/// every append adds one batch and bumps the epoch by one. The deferred
/// group-size check cuts the final group at this length.
pub fn len_at_epoch(initial: usize) -> impl Fn(u64) -> usize {
    move |epoch| initial + epoch as usize * BATCH
}
