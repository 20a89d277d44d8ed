//! Concurrency acceptance test: many client threads driving many sessions
//! through the service (shared distance cache ON) must produce
//! *byte-identical* exploration paths to the same scripts replayed
//! single-threaded on standalone sessions. This is the service's core
//! correctness contract — neither thread interleaving nor the shared cache
//! may leak into results.
//!
//! Each session's script is deterministic: step 0 applies the full-database
//! query, and every later step takes recommendation
//! `(session_index + step) % n_recs` of the previous step. Sixteen sessions
//! starting from the same query guarantee heavy cache overlap.

use std::sync::Arc;
use std::time::Duration;

use subdex_core::{EngineConfig, ExplorationMode, ExplorationSession, SdeEngine};
use subdex_data::datasets::hotels;
use subdex_service::{ServiceConfig, ServiceError, SessionId, StepRequest, SubdexService};
use subdex_store::{SelectionQuery, SubjectiveDb};

const CLIENT_THREADS: usize = 8;
const SESSIONS: usize = 16;
const STEPS: usize = 5;

fn study_db() -> Arc<SubjectiveDb> {
    Arc::new(hotels::dataset(hotels::default_params().scaled(0.01)).db)
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        threads: 1,
        max_candidates: 8,
        ..EngineConfig::default()
    }
}

/// The deterministic per-session recommendation choice.
fn pick(session_idx: usize, step: usize, n_recs: usize) -> usize {
    (session_idx + step) % n_recs.max(1)
}

/// Drives one session's full script through the service, retrying on
/// backpressure (rejection is load-shedding, not failure).
fn drive(service: &SubdexService, session: SessionId, session_idx: usize) {
    let run = |request: StepRequest| loop {
        match service.run_step(session, request.clone()) {
            Ok(step) => break step,
            Err(ServiceError::Rejected { .. }) => std::thread::sleep(Duration::from_micros(50)),
            Err(e) => panic!("session {session} step failed: {e}"),
        }
    };
    let mut last = run(StepRequest::Operation(SelectionQuery::all()));
    for step in 1..STEPS {
        let n = last.recommendations.len();
        last = if n == 0 {
            run(StepRequest::Operation(SelectionQuery::all()))
        } else {
            run(StepRequest::Recommendation(pick(session_idx, step, n)))
        };
    }
}

/// Replays one session's script directly, single-threaded, no cache.
fn reference_signature(db: &Arc<SubjectiveDb>, session_idx: usize) -> u64 {
    let engine = SdeEngine::new(Arc::clone(db), engine_config());
    let mut s = ExplorationSession::with_engine(engine, ExplorationMode::RecommendationPowered);
    s.apply_operation(&SelectionQuery::all());
    for step in 1..STEPS {
        let n = s.recommendations().len();
        if n == 0 {
            s.apply_operation(&SelectionQuery::all());
        } else {
            s.apply_recommendation(pick(session_idx, step, n))
                .expect("index is in range by construction");
        }
    }
    s.path_signature()
}

#[test]
fn concurrent_service_matches_single_threaded_sessions() {
    let db = study_db();
    let config = ServiceConfig {
        workers: 4,
        queue_capacity: 8, // small on purpose: exercise backpressure under load
        engine: engine_config(),
        mode: ExplorationMode::RecommendationPowered,
        ..ServiceConfig::default()
    };
    let service = Arc::new(SubdexService::start(Arc::clone(&db), config));
    let sessions: Vec<SessionId> = (0..SESSIONS).map(|_| service.create_session()).collect();

    // 8 client threads, 2 sessions each, all scripts running concurrently.
    assert_eq!(SESSIONS % CLIENT_THREADS, 0);
    let per_thread = SESSIONS / CLIENT_THREADS;
    let handles: Vec<_> = (0..CLIENT_THREADS)
        .map(|t| {
            let service = Arc::clone(&service);
            let mine: Vec<(usize, SessionId)> = (0..per_thread)
                .map(|k| {
                    let idx = t * per_thread + k;
                    (idx, sessions[idx])
                })
                .collect();
            std::thread::spawn(move || {
                for (idx, id) in mine {
                    drive(&service, id, idx);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread must not panic");
    }

    let m = service.metrics();
    assert_eq!(
        m.requests_served,
        (SESSIONS * STEPS) as u64,
        "every scripted step served exactly once (rejections were retried)"
    );
    let cache = m.dist_cache.expect("shared distance cache");
    assert!(
        cache.hits > 0,
        "16 sessions sharing a start query must hit the cache: {cache:?}"
    );

    // Byte-identity: the concurrent paths equal the sequential replays,
    // session by session.
    for (idx, &id) in sessions.iter().enumerate() {
        let concurrent = service
            .registry()
            .with_session(id, |s| {
                assert_eq!(s.path().len(), STEPS);
                s.path_signature()
            })
            .expect("session still registered");
        let reference = reference_signature(&db, idx);
        assert_eq!(
            concurrent, reference,
            "session {idx}: concurrent path diverged from \
             single-threaded reference"
        );
    }

    service.shutdown();
}
