//! serve_many: 16 concurrent exploration sessions through the service.
//!
//! Starts a `SubdexService` over a `subdex-sim` study workload (a Yelp-like
//! insight-extraction task; shared distance cache on, bounded submit queue),
//! then drives 16 sessions from 8 client threads. Each client follows a
//! recommendation-powered script seeded by its session index, retrying when
//! the service sheds load. Finishes with the service metrics snapshot:
//! requests served vs rejected, queue high-water mark, how groups were
//! materialized, distance-cache hit rate, and the step-latency histogram.
//!
//! Run with: `cargo run --release --example serve_many`

use std::sync::Arc;
use std::time::{Duration, Instant};

use subdex::core::{EngineConfig, ExplorationMode};
use subdex::prelude::*;
use subdex::service::{ServiceError, StepRequest};
use subdex::sim::Workload;

const CLIENT_THREADS: usize = 8;
const SESSIONS: usize = 16;
const STEPS: usize = 6;

fn main() {
    // The same Scenario II (insight extraction) workload the simulated
    // user studies run on — here every "subject" is a service client.
    let ds = subdex::data::yelp::dataset(GenParams::new(1_500, 93, 10_000, 42));
    let workload = Workload::scenario2(ds);
    let db = Arc::clone(&workload.db);
    let stats = db.stats();
    println!(
        "Serving Yelp-like subjective database: {} reviewers, {} restaurants, \
         {} rating records ({} scenario, {} planted insights)\n",
        stats.reviewer_count,
        stats.item_count,
        stats.rating_count,
        match workload.scenario {
            subdex::sim::Scenario::IrregularGroups => "irregular-groups",
            subdex::sim::Scenario::InsightExtraction => "insight-extraction",
        },
        workload.target_count()
    );

    let config = ServiceConfig {
        workers: 4,
        queue_capacity: 8,
        engine: EngineConfig {
            threads: 1, // the worker pool is the parallelism
            max_candidates: 12,
            ..EngineConfig::default()
        },
        mode: ExplorationMode::RecommendationPowered,
        ..ServiceConfig::default()
    };
    println!(
        "service: {} workers, queue capacity {}",
        config.workers, config.queue_capacity
    );

    let service = Arc::new(SubdexService::start(Arc::clone(&db), config));
    let sessions: Vec<SessionId> = (0..SESSIONS).map(|_| service.create_session()).collect();
    println!(
        "created {} sessions across {} client threads, {} steps each\n",
        SESSIONS, CLIENT_THREADS, STEPS
    );

    let started = Instant::now();
    let handles: Vec<_> = (0..CLIENT_THREADS)
        .map(|t| {
            let service = Arc::clone(&service);
            let mine: Vec<(usize, SessionId)> = sessions
                .iter()
                .enumerate()
                .filter(|(idx, _)| idx % CLIENT_THREADS == t)
                .map(|(idx, &id)| (idx, id))
                .collect();
            std::thread::spawn(move || {
                let mut retries = 0u64;
                for (idx, id) in mine {
                    drive_session(&service, id, idx, &mut retries);
                }
                retries
            })
        })
        .collect();

    let mut total_retries = 0;
    for h in handles {
        total_retries += h.join().expect("client thread must not panic");
    }
    let elapsed = started.elapsed();

    let total_steps = (SESSIONS * STEPS) as u64;
    println!(
        "ran {} steps in {:.2?} ({:.1} steps/sec), {} backpressure retries\n",
        total_steps,
        elapsed,
        total_steps as f64 / elapsed.as_secs_f64(),
        total_retries
    );
    println!("=== service metrics ===\n{}\n", service.metrics());

    // Show what one of the sessions actually explored.
    let tour = service
        .registry()
        .with_session(sessions[0], |s| {
            s.path()
                .iter()
                .map(|step| db.describe_query(&step.query))
                .collect::<Vec<_>>()
        })
        .expect("session 0 is registered");
    println!("=== session 0's exploration path ===");
    for (i, q) in tour.iter().enumerate() {
        println!("{}. {q}", i + 1);
    }

    service.shutdown();
}

/// Runs one session's scripted exploration, retrying on load-shedding.
fn drive_session(service: &SubdexService, id: SessionId, session_idx: usize, retries: &mut u64) {
    let run = |request: StepRequest, retries: &mut u64| loop {
        match service.run_step(id, request.clone()) {
            Ok(step) => break step,
            Err(ServiceError::Rejected { .. }) => {
                *retries += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) => panic!("session {id}: {e}"),
        }
    };
    let mut last = run(StepRequest::Operation(SelectionQuery::all()), retries);
    for step in 1..STEPS {
        let n = last.recommendations.len();
        last = if n == 0 {
            run(StepRequest::Operation(SelectionQuery::all()), retries)
        } else {
            run(
                StepRequest::Recommendation((session_idx + step) % n),
                retries,
            )
        };
    }
}
