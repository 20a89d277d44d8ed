//! The exploration service: a worker pool with bounded queueing, explicit
//! backpressure, and graceful shutdown.
//!
//! Clients [`submit`](SubdexService::submit) step requests and receive a
//! [`StepTicket`] redeemable for the [`StepResult`]. The submit queue is a
//! bounded `Mutex<VecDeque>`: when it is full, submission fails *fast* with
//! [`SubmitError::Rejected`] carrying the queue depth, instead of blocking
//! the caller — the service's load-shedding contract.
//!
//! Workers pull jobs off the shared queue (any worker may serve any
//! session; per-session ordering is enforced by the registry's slot mutex,
//! not by the queue). [`shutdown`](SubdexService::shutdown) closes the
//! queue and joins the workers, draining every job already accepted —
//! accepted work is never dropped.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::registry::{SessionId, SessionRegistry};
use subdex_core::{
    EngineConfig, ExplorationMode, ExplorationSession, SdeEngine, SessionError, StepResult,
};
use subdex_persist::PersistentStore;
use subdex_store::{DistanceCache, RatingDraft, SelectionQuery, StoreError, SubjectiveDb};

/// Service-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads executing steps; `0` means one per available core
    /// (resolved through [`subdex_core::resolve_threads`]).
    pub workers: usize,
    /// Bounded submit-queue capacity; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Idle time after which [`SubdexService::evict_idle`] drops a session.
    pub session_ttl: Duration,
    /// Byte budget of the map-distance cache all sessions share: exact
    /// EMDs computed by any session's selection phase are reused by every
    /// other (results are byte-identical to an uncached engine).
    pub dist_cache_capacity_bytes: usize,
    /// Engine configuration given to every new session.
    pub engine: EngineConfig,
    /// Exploration mode of new sessions.
    pub mode: ExplorationMode,
    /// How long the background checkpointer waits between looking for dirty
    /// WAL records to fold into a snapshot (persistent services only).
    pub checkpoint_interval: Duration,
    /// Dirty-record count that triggers an early checkpoint, ahead of the
    /// interval (persistent services only).
    pub checkpoint_dirty_threshold: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            session_ttl: Duration::from_secs(300),
            dist_cache_capacity_bytes: 8 << 20,
            engine: EngineConfig::default(),
            mode: ExplorationMode::RecommendationPowered,
            checkpoint_interval: Duration::from_secs(30),
            checkpoint_dirty_threshold: 10_000,
        }
    }
}

/// One step request against a session.
#[derive(Debug, Clone)]
pub enum StepRequest {
    /// Apply an explicit selection query.
    Operation(SelectionQuery),
    /// Take the `idx`-th recommendation offered by the session's last step.
    Recommendation(usize),
    /// Fault injection: panic inside the step, with the session locked.
    #[cfg(test)]
    Panic,
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue was full — backpressure. `queue_depth` is the
    /// depth at rejection time, i.e. the configured capacity.
    Rejected {
        /// Observed queue depth at rejection.
        queue_depth: usize,
    },
    /// The service is shutting down; no new work is accepted.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Rejected { queue_depth } => {
                write!(f, "submit queue full (depth {queue_depth})")
            }
            SubmitError::ShuttingDown => write!(f, "service shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an accepted (or attempted) step did not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The session id is not registered (never created, or evicted).
    UnknownSession(SessionId),
    /// The session itself refused the request.
    Session(SessionError),
    /// Rejected at submission (see [`SubmitError::Rejected`]).
    Rejected {
        /// Observed queue depth at rejection.
        queue_depth: usize,
    },
    /// The service shut down before the step could run.
    ShuttingDown,
    /// The durable store refused the request (invalid drafts, I/O failure).
    Persist(StoreError),
    /// A persistence-only call on a service started without a store.
    NotPersistent,
    /// The step panicked. The worker survived, but the session may have
    /// been left half-updated, so it was removed from the registry; other
    /// sessions are unaffected.
    StepPanicked,
}

impl From<SubmitError> for ServiceError {
    fn from(e: SubmitError) -> Self {
        match e {
            SubmitError::Rejected { queue_depth } => ServiceError::Rejected { queue_depth },
            SubmitError::ShuttingDown => ServiceError::ShuttingDown,
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownSession(id) => write!(f, "unknown session {id}"),
            ServiceError::Session(e) => write!(f, "session error: {e}"),
            ServiceError::Rejected { queue_depth } => {
                write!(f, "submit queue full (depth {queue_depth})")
            }
            ServiceError::ShuttingDown => write!(f, "service shutting down"),
            ServiceError::Persist(e) => write!(f, "persist error: {e}"),
            ServiceError::NotPersistent => {
                write!(f, "service was started without a persistent store")
            }
            ServiceError::StepPanicked => {
                write!(f, "step panicked; its session was removed")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

struct Job {
    session: SessionId,
    request: StepRequest,
    submitted: Instant,
    reply: SyncSender<Result<StepResult, ServiceError>>,
}

/// The bounded submit queue the workers share: accepted jobs in arrival
/// order, and whether [`shutdown`](SubdexService::shutdown) has closed it.
struct JobQueue {
    state: Mutex<QueueState>,
    /// Signalled on every push and on close.
    ready: Condvar,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    /// Blocks until a job is queued, or returns `None` once the queue is
    /// closed *and* drained — workers finish accepted work before exiting.
    fn pop(&self) -> Option<Job> {
        let mut state = lock(&self.state);
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Claim on an accepted step; redeem with [`wait`](StepTicket::wait).
#[must_use = "an unredeemed ticket discards the step result"]
pub struct StepTicket {
    rx: Receiver<Result<StepResult, ServiceError>>,
}

impl StepTicket {
    /// Blocks until the step completes.
    pub fn wait(self) -> Result<StepResult, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::ShuttingDown))
    }
}

/// The background checkpointer's handle: a nudge channel (appends poke it
/// when the dirty set crosses the threshold) and the thread itself.
struct Checkpointer {
    nudge: SyncSender<()>,
    handle: JoinHandle<()>,
}

/// A concurrent multi-session exploration server over one shared database.
pub struct SubdexService {
    db: Arc<SubjectiveDb>,
    config: ServiceConfig,
    registry: Arc<SessionRegistry>,
    metrics: Arc<ServiceMetrics>,
    dist_cache: Arc<DistanceCache>,
    store: Option<Arc<PersistentStore>>,
    queue: Arc<JobQueue>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    checkpointer: Mutex<Option<Checkpointer>>,
    /// The workers' stepping-now counter, for tests to watch.
    #[cfg(test)]
    busy: Arc<AtomicUsize>,
}

impl SubdexService {
    /// Starts the worker pool over `db`. `config.workers == 0` spawns one
    /// worker per available core.
    ///
    /// # Panics
    /// Panics if `config.queue_capacity == 0`.
    pub fn start(db: Arc<SubjectiveDb>, config: ServiceConfig) -> Self {
        Self::start_inner(db, None, config)
    }

    /// Warm-starts the worker pool from a durable store: sessions explore
    /// the store's published database,
    /// [`append_ratings`](Self::append_ratings) goes through its WAL, and
    /// a background
    /// checkpointer folds the log into fresh snapshots on the configured
    /// interval (or earlier, once `checkpoint_dirty_threshold` records are
    /// dirty). [`shutdown`](Self::shutdown) drains the checkpointer too: a
    /// final compaction leaves the directory snapshot-only.
    ///
    /// # Panics
    /// Panics if `config.queue_capacity == 0`.
    pub fn start_persistent(store: Arc<PersistentStore>, config: ServiceConfig) -> Self {
        let service = Self::start_inner(store.db(), Some(Arc::clone(&store)), config);
        let (nudge_tx, nudge_rx) = sync_channel::<()>(1);
        let interval = config.checkpoint_interval;
        let threshold = config.checkpoint_dirty_threshold.max(1);
        let handle = std::thread::spawn(move || {
            checkpointer_loop(&store, interval, threshold, &nudge_rx);
        });
        *lock(&service.checkpointer) = Some(Checkpointer {
            nudge: nudge_tx,
            handle,
        });
        service
    }

    fn start_inner(
        db: Arc<SubjectiveDb>,
        store: Option<Arc<PersistentStore>>,
        config: ServiceConfig,
    ) -> Self {
        let worker_count = subdex_core::resolve_threads(config.workers);
        assert!(config.queue_capacity > 0, "need a nonzero queue");
        let registry = Arc::new(SessionRegistry::new());
        let metrics = Arc::new(ServiceMetrics::new());
        let dist_cache = Arc::new(DistanceCache::new(config.dist_cache_capacity_bytes));
        let queue = Arc::new(JobQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        });
        // Oversubscription budget: workers stepping concurrently split the
        // core budget (`max(1, cores / busy)`) instead of each phase
        // claiming every core.
        let cores = subdex_core::resolve_threads(0);
        let busy = Arc::new(AtomicUsize::new(0));
        let workers = (0..worker_count)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let registry = Arc::clone(&registry);
                let metrics = Arc::clone(&metrics);
                let busy = Arc::clone(&busy);
                std::thread::spawn(move || worker_loop(&queue, &registry, &metrics, &busy, cores))
            })
            .collect();
        Self {
            db,
            config,
            registry,
            metrics,
            dist_cache,
            store,
            queue,
            workers: Mutex::new(workers),
            checkpointer: Mutex::new(None),
            #[cfg(test)]
            busy,
        }
    }

    /// The database the service booted with. Persistent services may have
    /// appended ratings since; [`current_db`](Self::current_db) follows
    /// those.
    pub fn db(&self) -> &Arc<SubjectiveDb> {
        &self.db
    }

    /// The latest published database: the store's current version for a
    /// persistent service, the boot database otherwise. New sessions always
    /// start from this.
    pub fn current_db(&self) -> Arc<SubjectiveDb> {
        match &self.store {
            Some(store) => store.db(),
            None => Arc::clone(&self.db),
        }
    }

    /// The durable store behind a persistent service (None otherwise).
    pub fn store(&self) -> Option<&Arc<PersistentStore>> {
        self.store.as_ref()
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The session registry (shared with the workers).
    pub fn registry(&self) -> &Arc<SessionRegistry> {
        &self.registry
    }

    /// The shared map-distance cache.
    pub fn distance_cache(&self) -> &Arc<DistanceCache> {
        &self.dist_cache
    }

    /// Creates a session with the service's engine configuration and the
    /// shared distance cache, returning its handle. Sessions
    /// share no rating groups: each step materializes its own from the
    /// index, and its recommendation candidates from that step's columns.
    pub fn create_session(&self) -> SessionId {
        let mut engine_cfg = self.config.engine;
        if self.config.mode == ExplorationMode::UserDriven {
            // Mirrors ExplorationSession::new: User-Driven sessions never
            // display recommendations, so don't compute them.
            engine_cfg.recommendations = false;
        }
        let engine = SdeEngine::new(self.current_db(), engine_cfg)
            .with_distance_cache(Arc::clone(&self.dist_cache));
        self.registry
            .insert(ExplorationSession::with_engine(engine, self.config.mode))
    }

    /// Unregisters a session; an in-flight step on it completes normally.
    pub fn remove_session(&self, id: SessionId) -> bool {
        self.registry.remove(id)
    }

    /// Enqueues a step without blocking. `Err(Rejected {..})` is the
    /// backpressure signal: the caller should retry later or shed load.
    pub fn submit(
        &self,
        session: SessionId,
        request: StepRequest,
    ) -> Result<StepTicket, SubmitError> {
        let mut state = lock(&self.queue.state);
        if state.closed {
            return Err(SubmitError::ShuttingDown);
        }
        let depth = state.jobs.len();
        if depth == self.config.queue_capacity {
            self.metrics.record_rejected();
            return Err(SubmitError::Rejected { queue_depth: depth });
        }
        let (reply_tx, reply_rx) = sync_channel(1);
        state.jobs.push_back(Job {
            session,
            request,
            submitted: Instant::now(),
            reply: reply_tx,
        });
        self.metrics.observe_queue_depth(depth + 1);
        drop(state);
        self.queue.ready.notify_one();
        Ok(StepTicket { rx: reply_rx })
    }

    /// Submits and waits — the blocking convenience wrapper around
    /// [`submit`](Self::submit) + [`StepTicket::wait`]. Backpressure is
    /// surfaced as [`ServiceError::Rejected`], not absorbed by retrying.
    pub fn run_step(
        &self,
        session: SessionId,
        request: StepRequest,
    ) -> Result<StepResult, ServiceError> {
        let ticket = self.submit(session, request)?;
        ticket.wait()
    }

    /// Durably appends ratings through the store's WAL, publishes the new
    /// database version, and invalidates the shared distance cache up to
    /// the new epoch (cached distances may describe superseded data).
    /// Sessions created before the append keep their epoch-consistent view;
    /// sessions created after see the new ratings. Returns the new epoch.
    ///
    /// Fails with [`ServiceError::NotPersistent`] on an in-memory service
    /// and never partially applies: a rejected batch leaves database, WAL
    /// and cache untouched.
    pub fn append_ratings(&self, drafts: &[RatingDraft]) -> Result<u64, ServiceError> {
        let store = self.store.as_ref().ok_or(ServiceError::NotPersistent)?;
        let epoch = store
            .append_ratings(drafts)
            .map_err(ServiceError::Persist)?;
        self.dist_cache.bump_epoch(epoch);
        if store.dirty_records() >= self.config.checkpoint_dirty_threshold {
            if let Some(cp) = lock(&self.checkpointer).as_ref() {
                // A full nudge channel means a wake-up is already pending.
                let _ = cp.nudge.try_send(());
            }
        }
        Ok(epoch)
    }

    /// Forces a checkpoint now (folds the WAL into a fresh snapshot),
    /// returning the snapshot size in bytes. Requires a persistent service.
    pub fn checkpoint(&self) -> Result<u64, ServiceError> {
        let store = self.store.as_ref().ok_or(ServiceError::NotPersistent)?;
        store.compact().map_err(ServiceError::Persist)
    }

    /// Evicts sessions idle past the configured TTL, returning their ids.
    pub fn evict_idle(&self) -> Vec<SessionId> {
        self.registry.evict_idle(self.config.session_ttl)
    }

    /// Current metrics, including distance-cache statistics, persistence
    /// counters when the service runs over a
    /// durable store, and the current database's compressed-index census
    /// and routing counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot(
            Some(self.dist_cache.stats()),
            self.store.as_ref().map(|s| s.stats()),
            Some(self.current_db().index_stats()),
        )
    }

    /// Stops accepting work, drains every accepted job, joins the workers,
    /// and (on a persistent service) drains the checkpointer — its final
    /// act is compacting any dirty WAL records into a snapshot. Idempotent;
    /// also invoked on drop.
    pub fn shutdown(&self) {
        // Workers finish the queued jobs, then see the closed flag and exit.
        lock(&self.queue.state).closed = true;
        self.queue.ready.notify_all();
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *lock(&self.workers));
        for h in handles {
            let _ = h.join();
        }
        // Workers are done, so no more appends race the final compaction.
        if let Some(cp) = lock(&self.checkpointer).take() {
            drop(cp.nudge);
            let _ = cp.handle.join();
        }
    }
}

impl Drop for SubdexService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Locks `m`, taking the guard even if a panicking holder poisoned it, so
/// a panicked worker never wedges submission or shutdown.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Background checkpointing: wake on a nudge (dirty set crossed the
/// threshold) or on the interval, compact when there is anything dirty, and
/// run one final compaction when the service drops the nudge sender at
/// shutdown. Compaction errors are swallowed deliberately — the WAL still
/// holds every acknowledged append, so a failed fold loses nothing and the
/// next pass retries.
fn checkpointer_loop(
    store: &PersistentStore,
    interval: Duration,
    threshold: u64,
    nudge: &Receiver<()>,
) {
    loop {
        match nudge.recv_timeout(interval) {
            Ok(()) => {
                if store.dirty_records() >= threshold {
                    let _ = store.compact();
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if store.dirty_records() > 0 {
                    let _ = store.compact();
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                if store.dirty_records() > 0 {
                    let _ = store.compact();
                }
                return;
            }
        }
    }
}

fn worker_loop(
    queue: &JobQueue,
    registry: &SessionRegistry,
    metrics: &ServiceMetrics,
    busy: &AtomicUsize,
    cores: usize,
) {
    /// Counts a worker as stepping for as long as it lives — dropped on
    /// return and on unwind alike, so a panicking step cannot leave `busy`
    /// raised and shrink every later step's thread budget.
    struct Stepping<'a>(&'a AtomicUsize);
    impl Drop for Stepping<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::Relaxed);
        }
    }

    while let Some(job) = queue.pop() {
        // A panicking step costs its own request, not the worker: the
        // unwind stops here, releasing the session lock on its way.
        // `AssertUnwindSafe`: the only state the closure can leave torn is
        // the session, which is discarded below without being read again.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // Split the core budget across whoever is stepping right now.
            let busy_now = busy.fetch_add(1, Ordering::Relaxed) + 1;
            let _stepping = Stepping(busy);
            let budget = (cores / busy_now).max(1);
            registry.with_session(job.session, |session| {
                session.set_thread_budget(budget);
                match &job.request {
                    StepRequest::Operation(query) => Ok(session.apply_operation(query).clone()),
                    StepRequest::Recommendation(idx) => session
                        .apply_recommendation(*idx)
                        .cloned()
                        .map_err(ServiceError::Session),
                    #[cfg(test)]
                    StepRequest::Panic => panic!("injected step fault"),
                }
            })
        }));
        let result = match outcome {
            Ok(None) => Err(ServiceError::UnknownSession(job.session)),
            Ok(Some(Ok(step))) => {
                metrics.record_step(job.submitted.elapsed(), &step.stats);
                Ok(step)
            }
            Ok(Some(Err(e))) => Err(e),
            Err(_panic) => {
                // Its normalizers / `ExecContext` may be half-updated.
                registry.remove(job.session);
                metrics.record_panicked();
                Err(ServiceError::StepPanicked)
            }
        };
        // A client that dropped its ticket just doesn't read the result.
        let _ = job.reply.send(result);
    }
}

/// The service is handed across threads wholesale (e.g. behind an `Arc`
/// shared by client threads); prove at compile time that this is sound.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    fn assert_send<T: Send>() {}
    assert_send_sync::<SubdexService>();
    assert_send_sync::<SessionRegistry>();
    assert_send_sync::<ServiceMetrics>();
    // A ticket may be redeemed on another thread than the one submitting.
    assert_send::<StepTicket>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use subdex_store::{Cell, EntityTableBuilder, RatingTableBuilder, Schema};

    pub(crate) fn test_db() -> Arc<SubjectiveDb> {
        let mut us = Schema::new();
        us.add("gender", false);
        us.add("age", false);
        let mut ub = EntityTableBuilder::new(us);
        for i in 0..10 {
            ub.push_row(vec![
                Cell::from(if i % 2 == 0 { "F" } else { "M" }),
                Cell::from(["young", "old"][i % 2]),
            ]);
        }
        let mut is = Schema::new();
        is.add("city", false);
        let mut ib = EntityTableBuilder::new(is);
        for i in 0..4 {
            ib.push_row(vec![Cell::from(if i < 2 { "NYC" } else { "SF" })]);
        }
        let mut rb = RatingTableBuilder::new(vec!["overall".into(), "food".into()], 5);
        for r in 0..10u32 {
            for i in 0..4u32 {
                rb.push(
                    r,
                    i,
                    &[1 + ((r + i) % 5) as u8, 1 + ((r * 3 + i) % 5) as u8],
                );
            }
        }
        Arc::new(SubjectiveDb::new(ub.build(), ib.build(), rb.build(10, 4)))
    }

    pub(crate) fn quick_config() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            queue_capacity: 8,
            engine: EngineConfig {
                threads: 1,
                max_candidates: 12,
                ..EngineConfig::default()
            },
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn create_step_and_metrics() {
        let service = SubdexService::start(test_db(), quick_config());
        let id = service.create_session();
        let step = service
            .run_step(id, StepRequest::Operation(SelectionQuery::all()))
            .unwrap();
        assert_eq!(step.step, 0);
        assert!(!step.recommendations.is_empty());

        let step2 = service
            .run_step(id, StepRequest::Recommendation(0))
            .unwrap();
        assert_eq!(step2.step, 1);

        let m = service.metrics();
        assert_eq!(m.requests_served, 2);
        assert_eq!(m.requests_rejected, 0);
        assert!(m.cache.is_none(), "no group is shared across sessions");
        // Candidate groups were materialized somehow — and with displayed
        // maps anchoring drill-downs, at least one was derived from its
        // parent's columns rather than walked.
        let mat = m.materialization;
        assert!(mat.total() > 0, "{mat:?}");
        assert!(mat.derived > 0, "{mat:?}");
    }

    #[test]
    fn zero_workers_means_one_per_core() {
        let config = ServiceConfig {
            workers: 0,
            ..quick_config()
        };
        let service = SubdexService::start(test_db(), config);
        let id = service.create_session();
        let step = service
            .run_step(id, StepRequest::Operation(SelectionQuery::all()))
            .unwrap();
        assert_eq!(step.step, 0);
    }

    #[test]
    fn unknown_session_and_bad_recommendation() {
        let service = SubdexService::start(test_db(), quick_config());
        let id = service.create_session();
        assert!(service.remove_session(id));
        assert_eq!(
            service
                .run_step(id, StepRequest::Operation(SelectionQuery::all()))
                .unwrap_err(),
            ServiceError::UnknownSession(id)
        );

        let id2 = service.create_session();
        assert_eq!(
            service
                .run_step(id2, StepRequest::Recommendation(0))
                .unwrap_err(),
            ServiceError::Session(SessionError::NotStarted)
        );
    }

    #[test]
    fn full_queue_rejects_with_depth() {
        let config = ServiceConfig {
            workers: 1,
            queue_capacity: 2,
            ..quick_config()
        };
        let service = SubdexService::start(test_db(), config);
        let blocker = service.create_session();
        let victim = service.create_session();

        // Hold the blocker session's slot lock so the single worker wedges
        // on its first job, leaving the queue for us to fill.
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let registry = Arc::clone(service.registry());
        let holder = std::thread::spawn(move || {
            registry.with_session(blocker, |_| {
                started_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            });
        });
        started_rx.recv().unwrap();

        // Job 1 is picked up by the worker and wedges (or still waits in
        // the queue); the victim's jobs fill the queue; the first one past
        // capacity must be rejected with the full depth.
        let t1 = service
            .submit(blocker, StepRequest::Operation(SelectionQuery::all()))
            .unwrap();
        let mut tickets = Vec::new();
        let mut rejected = None;
        for _ in 0..8 {
            match service.submit(victim, StepRequest::Operation(SelectionQuery::all())) {
                Ok(t) => tickets.push(t),
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            }
        }
        match rejected.expect("bounded queue must eventually reject") {
            SubmitError::Rejected { queue_depth } => assert_eq!(queue_depth, 2),
            other => panic!("expected Rejected, got {other:?}"),
        }
        assert!(service.metrics().requests_rejected >= 1);
        assert!(service.metrics().queue_depth_hwm >= 1);

        release_tx.send(()).unwrap();
        holder.join().unwrap();
        t1.wait().unwrap();
        for t in tickets {
            t.wait().unwrap();
        }
    }

    #[test]
    fn shutdown_drains_accepted_work() {
        for workers in [1, 2] {
            let config = ServiceConfig {
                workers,
                queue_capacity: 8,
                ..quick_config()
            };
            let service = SubdexService::start(test_db(), config);
            let id = service.create_session();
            let tickets: Vec<StepTicket> = (0..4)
                .map(|_| {
                    service
                        .submit(id, StepRequest::Operation(SelectionQuery::all()))
                        .unwrap()
                })
                .collect();
            service.shutdown();
            // Every accepted job completed despite the shutdown racing them.
            // Two workers may take the session's jobs out of submission
            // order, so the steps are compared as a set.
            let mut steps: Vec<usize> = tickets
                .into_iter()
                .enumerate()
                .map(|(i, t)| {
                    t.wait()
                        .unwrap_or_else(|e| panic!("workers={workers}: job {i} dropped: {e}"))
                        .step
                })
                .collect();
            steps.sort_unstable();
            assert_eq!(steps, [0, 1, 2, 3], "workers={workers}");
            // After shutdown, new submissions are refused.
            assert_eq!(
                service
                    .submit(id, StepRequest::Operation(SelectionQuery::all()))
                    .err(),
                Some(SubmitError::ShuttingDown)
            );
            assert_eq!(service.metrics().requests_served, 4, "workers={workers}");
        }
    }

    #[test]
    fn idle_ttl_eviction_through_service() {
        let config = ServiceConfig {
            session_ttl: Duration::from_millis(20),
            ..quick_config()
        };
        let service = SubdexService::start(test_db(), config);
        let stale = service.create_session();
        std::thread::sleep(Duration::from_millis(40));
        let fresh = service.create_session();
        let evicted = service.evict_idle();
        assert_eq!(evicted, vec![stale]);
        assert!(!service.registry().contains(stale));
        assert!(service.registry().contains(fresh));
        assert_eq!(
            service
                .run_step(stale, StepRequest::Operation(SelectionQuery::all()))
                .unwrap_err(),
            ServiceError::UnknownSession(stale)
        );
    }

    #[test]
    fn sessions_share_one_distance_cache() {
        let service = SubdexService::start(test_db(), quick_config());
        let a = service.create_session();
        let b = service.create_session();
        service
            .run_step(a, StepRequest::Operation(SelectionQuery::all()))
            .unwrap();
        let first = service.metrics().selection;
        assert!(
            first.exact_solves > 0,
            "first session must solve exact EMDs: {first:?}"
        );
        service
            .run_step(b, StepRequest::Operation(SelectionQuery::all()))
            .unwrap();
        let m = service.metrics();
        assert!(
            m.selection.cache_hits > 0,
            "second session re-running the same query must reuse cached distances: {:?}",
            m.selection
        );
        let dist = m.dist_cache.expect("shared distance cache");
        assert!(dist.hits > 0, "{dist:?}");
        assert!(dist.entries > 0, "{dist:?}");
    }

    fn persist_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("subdex-svc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn drafts(n: u32) -> Vec<RatingDraft> {
        (0..n)
            .map(|i| RatingDraft::new(i % 10, i % 4, vec![1 + (i % 5) as u8, 1 + (i % 5) as u8]))
            .collect()
    }

    #[test]
    fn persistent_service_appends_survive_restart() {
        let dir = persist_dir("restart");
        let db = Arc::unwrap_or_clone(test_db());
        let base_ratings = db.ratings().len();
        {
            let store = Arc::new(PersistentStore::create(&dir, db).unwrap());
            let service = SubdexService::start_persistent(Arc::clone(&store), quick_config());
            let id = service.create_session();
            let step = service
                .run_step(id, StepRequest::Operation(SelectionQuery::all()))
                .unwrap();
            assert_eq!(step.stats.db_epoch, 0);

            let epoch = service.append_ratings(&drafts(6)).unwrap();
            assert_eq!(epoch, 1);
            // The pre-append session keeps its consistent view...
            let step = service
                .run_step(id, StepRequest::Operation(SelectionQuery::all()))
                .unwrap();
            assert_eq!(step.stats.db_epoch, 0);
            assert_eq!(step.group_size, base_ratings);
            // ...while a fresh session sees the appended ratings.
            let id2 = service.create_session();
            let step2 = service
                .run_step(id2, StepRequest::Operation(SelectionQuery::all()))
                .unwrap();
            assert_eq!(step2.stats.db_epoch, 1);
            assert_eq!(step2.group_size, base_ratings + 6);

            let m = service.metrics();
            let p = m.persist.expect("persistent service reports stats");
            assert_eq!(p.appended_records, 6);
            assert!(m.to_string().contains("persist: snapshot"));
            service.shutdown();
            // Shutdown's final checkpoint folded the WAL.
            assert_eq!(store.dirty_records(), 0);
            assert!(store.stats().checkpoints >= 1);
        }
        // A later process warm-starts with nothing to replay.
        let store = Arc::new(PersistentStore::open(&dir).unwrap());
        assert_eq!(store.stats().wal_replayed_records, 0);
        let service = SubdexService::start_persistent(Arc::clone(&store), quick_config());
        assert_eq!(service.current_db().ratings().len(), base_ratings + 6);
        let id = service.create_session();
        let step = service
            .run_step(id, StepRequest::Operation(SelectionQuery::all()))
            .unwrap();
        assert_eq!(step.group_size, base_ratings + 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_invalidates_shared_caches_by_epoch() {
        let dir = persist_dir("epoch-bump");
        let db = Arc::unwrap_or_clone(test_db());
        let store = Arc::new(PersistentStore::create(&dir, db).unwrap());
        let service = SubdexService::start_persistent(store, quick_config());
        let id = service.create_session();
        service
            .run_step(id, StepRequest::Operation(SelectionQuery::all()))
            .unwrap();
        let cache = service.distance_cache();
        assert!(
            cache.stats().entries > 0,
            "step populated the distance cache"
        );

        service.append_ratings(&drafts(3)).unwrap();
        assert_eq!(
            cache.stats().entries,
            0,
            "append invalidated cached distances"
        );
        assert_eq!(cache.epoch(), 1);
        let _ = std::fs::remove_dir_all(service.store().unwrap().dir());
    }

    #[test]
    fn dirty_threshold_triggers_background_checkpoint() {
        let dir = persist_dir("threshold");
        let db = Arc::unwrap_or_clone(test_db());
        let store = Arc::new(PersistentStore::create(&dir, db).unwrap());
        let config = ServiceConfig {
            // Interval far beyond the test: only the nudge can fire.
            checkpoint_interval: Duration::from_secs(3_600),
            checkpoint_dirty_threshold: 4,
            ..quick_config()
        };
        let service = SubdexService::start_persistent(Arc::clone(&store), config);
        service.append_ratings(&drafts(6)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while store.stats().checkpoints == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(store.stats().checkpoints >= 1, "nudge compacted the WAL");
        assert_eq!(store.dirty_records(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panicking_step_costs_one_request_not_a_worker() {
        let dir = persist_dir("panic");
        let db = Arc::unwrap_or_clone(test_db());
        let store = Arc::new(PersistentStore::create(&dir, db).unwrap());
        // One worker: had the panic killed it, nothing below would be served.
        let config = ServiceConfig {
            workers: 1,
            ..quick_config()
        };
        let service = SubdexService::start_persistent(store, config);
        let victim = service.create_session();
        let bystander = service.create_session();
        service
            .run_step(bystander, StepRequest::Operation(SelectionQuery::all()))
            .unwrap();

        assert_eq!(
            service.run_step(victim, StepRequest::Panic).unwrap_err(),
            ServiceError::StepPanicked
        );
        assert_eq!(service.busy.load(Ordering::Relaxed), 0, "budget restored");
        assert!(!service.registry().contains(victim), "session quarantined");
        assert_eq!(
            service
                .run_step(victim, StepRequest::Operation(SelectionQuery::all()))
                .unwrap_err(),
            ServiceError::UnknownSession(victim)
        );

        // The same worker keeps serving other sessions, and writes go on.
        let step = service
            .run_step(bystander, StepRequest::Recommendation(0))
            .unwrap();
        assert_eq!(step.step, 1);
        assert_eq!(service.append_ratings(&drafts(3)).unwrap(), 1);
        let m = service.metrics();
        assert_eq!(m.steps_panicked, 1);
        assert_eq!(m.requests_served, 2);
        assert!(m.to_string().contains("panicked 1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_memory_service_refuses_persistence_calls() {
        let service = SubdexService::start(test_db(), quick_config());
        assert_eq!(
            service.append_ratings(&drafts(1)).unwrap_err(),
            ServiceError::NotPersistent
        );
        assert_eq!(
            service.checkpoint().unwrap_err(),
            ServiceError::NotPersistent
        );
        assert!(service.store().is_none());
        assert!(service.metrics().persist.is_none());
    }

    #[test]
    fn invalid_append_is_rejected_and_changes_nothing() {
        let dir = persist_dir("invalid");
        let db = Arc::unwrap_or_clone(test_db());
        let store = Arc::new(PersistentStore::create(&dir, db).unwrap());
        let service = SubdexService::start_persistent(store, quick_config());
        let bad = vec![RatingDraft::new(99, 0, vec![3, 3])]; // reviewer out of range
        match service.append_ratings(&bad).unwrap_err() {
            ServiceError::Persist(e) => {
                assert_eq!(e.kind, subdex_store::StoreErrorKind::Invalid)
            }
            other => panic!("expected Persist error, got {other:?}"),
        }
        assert_eq!(service.current_db().epoch(), 0);
        assert_eq!(service.store().unwrap().dirty_records(), 0);
        let _ = std::fs::remove_dir_all(service.store().unwrap().dir());
    }

    /// What a client can rely on: sessions stepping concurrently on one
    /// service get exactly the steps — results and materialization
    /// counters — the same scripts get on standalone sessions.
    #[test]
    fn concurrent_sessions_step_like_standalone_sessions() {
        const SESSIONS: usize = 4;
        const STEPS: usize = 4;
        type StepFp = (
            SelectionQuery,
            usize,
            Vec<(u64, u64)>,
            Vec<(SelectionQuery, u64, usize)>,
            subdex_core::Materialization,
        );
        fn fp(step: &StepResult) -> StepFp {
            (
                step.query.clone(),
                step.group_size,
                step.maps
                    .iter()
                    .map(|m| (m.utility.to_bits(), m.dw_utility.to_bits()))
                    .collect(),
                step.recommendations
                    .iter()
                    .map(|r| (r.query.clone(), r.utility.to_bits(), r.group_size))
                    .collect(),
                step.stats.materialization,
            )
        }
        /// Session `s` takes recommendation `(s + step) % n` each step, or
        /// restarts from the root when none is on offer.
        fn pick(s: usize, step: usize, last: &StepResult) -> Option<usize> {
            match last.recommendations.len() {
                0 => None,
                n => Some((s + step) % n),
            }
        }

        let db = test_db();
        let config = quick_config();
        let service = Arc::new(SubdexService::start(Arc::clone(&db), config));
        let ids: Vec<SessionId> = (0..SESSIONS).map(|_| service.create_session()).collect();
        // Every client submits its first step at once, so both workers run
        // sessions side by side from the start.
        let start = Arc::new(std::sync::Barrier::new(SESSIONS));
        let clients: Vec<_> = ids
            .iter()
            .enumerate()
            .map(|(s, &id)| {
                let service = Arc::clone(&service);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    let mut last = service
                        .run_step(id, StepRequest::Operation(SelectionQuery::all()))
                        .unwrap();
                    let mut fps = vec![fp(&last)];
                    for step in 1..STEPS {
                        let request = match pick(s, step, &last) {
                            Some(i) => StepRequest::Recommendation(i),
                            None => StepRequest::Operation(SelectionQuery::all()),
                        };
                        last = service.run_step(id, request).unwrap();
                        fps.push(fp(&last));
                    }
                    fps
                })
            })
            .collect();
        let served: Vec<Vec<StepFp>> = clients.into_iter().map(|c| c.join().unwrap()).collect();

        for (s, served) in served.iter().enumerate() {
            let mut alone = ExplorationSession::new(Arc::clone(&db), config.engine, config.mode);
            let mut fps = vec![fp(alone.apply_operation(&SelectionQuery::all()))];
            for step in 1..STEPS {
                let next = match pick(s, step, alone.current().unwrap()) {
                    Some(i) => alone.apply_recommendation(i).unwrap(),
                    None => alone.apply_operation(&SelectionQuery::all()),
                };
                fps.push(fp(next));
            }
            assert_eq!(served, &fps, "session {s}");
        }
    }
}
