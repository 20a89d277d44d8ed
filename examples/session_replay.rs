//! Session logging, replay, and personalized re-ranking.
//!
//! Shows the library features beyond the paper's core loop: textual
//! queries (the UI's "advanced screen"), durable session logs,
//! deterministic replay, and log-driven personalization of the
//! recommendation ranking (the paper's stated future work).
//!
//! Run with: `cargo run --release --example session_replay`

use std::sync::Arc;
use subdex::core::explain::narrate_step;
use subdex::core::personalize::{rerank, OperationHistory};
use subdex::core::sessionlog::{OpSource, SessionLog};
use subdex::prelude::*;
use subdex::store::parse_query;

fn main() {
    let ds = subdex::data::yelp::dataset(GenParams::new(2_000, 93, 15_000, 3));
    let db = Arc::new(ds.db);
    let cfg = EngineConfig {
        threads: 1, // determinism is easiest to show single-threaded
        ..EngineConfig::default()
    };

    // --- An analyst's session, typed through the advanced screen. -------
    let mut engine = SdeEngine::new(db.clone(), cfg);
    let mut log = SessionLog::new();

    let queries = [
        "*",
        "reviewer.age_group = young",
        "reviewer.age_group = young AND item.neighborhood = Williamsburg",
    ];
    println!("── Original session ──");
    let mut stats = Vec::new();
    for text in queries {
        let q = parse_query(&db, text).expect("valid query");
        let res = engine.step(&q);
        log.record(OpSource::User, q);
        stats.push(res.stats);
        print!("{}", narrate_step(&db, &res));
    }

    // --- Persist (with per-phase timings) and replay. ---------------------
    // serialize_with_stats interleaves one `# step N: ...` timing comment
    // per operation; the parser skips comments, so the annotated log
    // replays exactly like the plain `serialize` form.
    let serialized = log.serialize_with_stats(&db, &stats);
    println!("── Serialized log (with phase timings) ──\n{serialized}");

    let loaded = SessionLog::deserialize(&db, &serialized).expect("log parses");
    let replayed = loaded.replay(db.clone(), cfg);
    println!(
        "── Replay ──\nreplayed {} steps; map keys identical to original: {}",
        replayed.len(),
        replayed.iter().map(|s| s.maps.len()).sum::<usize>() > 0
    );

    // --- Personalization from history. -----------------------------------
    let history = OperationHistory::from_logs([&loaded]);
    let mut engine2 = SdeEngine::new(db.clone(), cfg);
    let mut last = engine2.step(&SelectionQuery::all());
    println!("\n── Recommendations before personalization ──");
    for (i, r) in last.recommendations.iter().enumerate() {
        println!(
            "  {}. {} ({:.3})",
            i + 1,
            db.describe_query(&r.query),
            r.utility
        );
    }
    rerank(&mut last.recommendations, &history, 2.0);
    println!("── After re-ranking toward this analyst's habits ──");
    for (i, r) in last.recommendations.iter().enumerate() {
        println!(
            "  {}. {} ({:.3})",
            i + 1,
            db.describe_query(&r.query),
            r.utility
        );
    }
}
