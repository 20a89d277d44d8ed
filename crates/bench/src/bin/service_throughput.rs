//! Service throughput: aggregate steps/sec of the multi-session server as
//! a function of worker-pool size and thread budget, plus a steady-state
//! allocation probe for the per-session `ExecContext`.
//!
//! ```text
//! service_throughput [--quick] [--out BENCH_service.json]
//! ```
//!
//! For every cell of workers {1, 2, 4} (clamped to the host's available
//! cores — oversubscribed cells measure scheduler noise, not scaling) ×
//! thread budget {1, auto}, the benchmark starts a fresh `SubdexService`
//! over the same Yelp-like database, drives 16 recommendation-powered
//! sessions from 8 client threads, and reports steps/sec, the scaling
//! efficiency against the 1-worker cell of the same budget
//! (`steps_per_sec / (workers × steps_per_sec₁)`), and the process CPU
//! utilization over the cell (utime + stime from `/proc/self/stat` divided
//! by wall time × host cores).
//! Budget 1 pins every step to one intra-step thread (the worker pool is
//! the only parallelism axis); budget "auto" (0) lets the service divide
//! the cores across busy workers.
//!
//! The steady-state probe runs one serial engine through repeated steps of
//! one session and counts heap allocations per step through a counting
//! global allocator: step 1 pays for growing the pooled scratch
//! (scan gathers, distance matrices, selection buffers, candidate
//! vectors); steps 2..n should re-use it, so their allocation count is the
//! regression signal for ExecContext pooling. The `--quick` flag shrinks
//! the dataset and step counts for smoke runs; results are written to a
//! machine-readable JSON file (default `BENCH_service.json`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use subdex_bench::harness::{yelp_at, Scale};
use subdex_core::{EngineConfig, ExplorationMode, SdeEngine};
use subdex_service::{ServiceConfig, ServiceError, SessionId, StepRequest, SubdexService};
use subdex_store::{SelectionQuery, SubjectiveDb};

const CLIENT_THREADS: usize = 8;
const SESSIONS: usize = 16;

/// Counts every heap allocation (and allocated bytes) the process makes;
/// the probe reads the counters around single engine steps.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Cumulative process CPU time (user + system) in seconds, from
/// `/proc/self/stat` fields 14/15 (utime, stime). The tick rate is assumed
/// to be the Linux default `USER_HZ = 100` — there is no libc binding in
/// the vendored set to ask `sysconf(_SC_CLK_TCK)`. Returns `None` off
/// Linux (or if the file is unreadable), in which case the utilization
/// columns report as absent rather than wrong.
fn process_cpu_secs() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Field 2 (comm) may itself contain spaces and parentheses; the
    // numeric fields start after the *last* ')'.
    let rest = stat.get(stat.rfind(')')? + 1..)?;
    let mut fields = rest.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?; // field 14
    let stime: u64 = fields.next()?.parse().ok()?; // field 15
    const USER_HZ: f64 = 100.0;
    Some((utime + stime) as f64 / USER_HZ)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_service.json".into());
    let (scale, scale_name, steps, probe_steps) = if quick {
        (Scale::Smoke, "smoke", 3, 10)
    } else {
        (Scale::Study, "study", 5, 20)
    };
    let db = Arc::new(yelp_at(scale).db);
    let stats = db.stats();
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "# Service throughput — {} sessions x {} steps, {} client threads",
        SESSIONS, steps, CLIENT_THREADS
    );
    println!(
        "# Yelp-like db: {} reviewers, {} items, {} ratings, {} host cores\n",
        stats.reviewer_count, stats.item_count, stats.rating_count, host_cores
    );

    // The probe runs first, while this is the only thread touching the
    // allocator, so the counters attribute cleanly to engine steps.
    let (first, steady) = steady_state_probe(&db, probe_steps);
    println!("# Steady-state single-session probe ({probe_steps} steps after warm-up):");
    println!(
        "#   step 1 (cold scratch): {:>8} allocs {:>12} bytes {:>10.1}µs",
        first.allocs, first.bytes, first.us
    );
    println!(
        "#   steps 2..n (mean):     {:>8.0} allocs {:>12.0} bytes {:>10.1}µs\n",
        steady.allocs, steady.bytes, steady.us
    );

    println!(
        "| {:>7} | {:>6} | {:>9} | {:>6} | {:>7} | {:>8} | {:>8} |",
        "workers", "budget", "steps/sec", "eff", "cpu", "rejects", "q hwm"
    );
    println!("|---------|--------|-----------|--------|---------|----------|----------|");

    // Clamp the worker axis to the host: a cell with more workers than
    // cores measures oversubscription noise, not scaling. Dedup keeps the
    // grid stable on small machines (e.g. 2 cores ⇒ {1, 2}).
    let mut worker_grid: Vec<usize> = [1usize, 2, 4].iter().map(|&w| w.min(host_cores)).collect();
    worker_grid.dedup();

    // Sweep the grid first, then derive scaling efficiency against the
    // 1-worker cell of the same budget.
    let mut cells: Vec<(usize, usize, Cell)> = Vec::new();
    for &workers in &worker_grid {
        for &thread_budget in &[1usize, 0] {
            let cell = run_cell(&db, workers, thread_budget, steps);
            cells.push((workers, thread_budget, cell));
        }
    }
    let mut json_rows: Vec<String> = Vec::new();
    for &(workers, thread_budget, ref cell) in &cells {
        let base = cells
            .iter()
            .find(|&&(w, b, _)| w == 1 && b == thread_budget)
            .map(|(_, _, c)| c.steps_per_sec)
            .unwrap_or(cell.steps_per_sec);
        let efficiency = if base > 0.0 {
            cell.steps_per_sec / (workers as f64 * base)
        } else {
            0.0
        };
        // CPU utilization of the whole process over the cell's wall time,
        // as a fraction of the host (1.0 = every core busy throughout).
        let cpu_util = cell
            .cpu_secs
            .map(|cpu| cpu / (cell.wall_secs * host_cores as f64));
        println!(
            "| {:>7} | {:>6} | {:>9.1} | {:>6.2} | {:>7} | {:>8} | {:>8} |",
            workers,
            if thread_budget == 0 {
                "auto".to_string()
            } else {
                thread_budget.to_string()
            },
            cell.steps_per_sec,
            efficiency,
            cpu_util
                .map(|u| format!("{:.1}%", 100.0 * u))
                .unwrap_or_else(|| "—".into()),
            cell.rejected,
            cell.queue_hwm,
        );
        json_rows.push(format!(
            "    {{\"workers\": {workers}, \"thread_budget\": {thread_budget}, \"steps_per_sec\": {:.3}, \"scaling_efficiency\": {:.4}, \"cpu_secs\": {}, \"cpu_utilization\": {}, \"rejected\": {}, \"queue_hwm\": {}}}",
            cell.steps_per_sec,
            efficiency,
            cell.cpu_secs
                .map(|c| format!("{c:.2}"))
                .unwrap_or_else(|| "null".into()),
            cpu_util
                .map(|u| format!("{u:.4}"))
                .unwrap_or_else(|| "null".into()),
            cell.rejected,
            cell.queue_hwm
        ));
    }

    // Hand-rolled JSON (no serde_json in the vendored set); every value is
    // a number or a plain ASCII string, so no escaping is needed.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"service_throughput\",\n");
    json.push_str("  \"dataset\": \"yelp\",\n");
    json.push_str(&format!("  \"scale\": \"{scale_name}\",\n"));
    json.push_str(&format!("  \"ratings\": {},\n", stats.rating_count));
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    json.push_str(&format!("  \"sessions\": {SESSIONS},\n"));
    json.push_str(&format!("  \"steps\": {steps},\n"));
    json.push_str(&format!("  \"client_threads\": {CLIENT_THREADS},\n"));
    json.push_str(&format!(
        "  \"probe\": {{\"steps\": {probe_steps}, \"first_step\": {{\"allocs\": {}, \"bytes\": {}, \"us\": {:.1}}}, \"steady_per_step\": {{\"allocs\": {:.1}, \"bytes\": {:.1}, \"us\": {:.1}}}}},\n",
        first.allocs, first.bytes, first.us, steady.allocs, steady.bytes, steady.us
    ));
    json.push_str("  \"grid\": [\n");
    json.push_str(&json_rows.join(",\n"));
    json.push_str("\n  ]\n");
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("write BENCH_service.json");
    eprintln!("wrote {out_path}");
}

#[derive(Clone, Copy, Default)]
struct ProbeSample {
    allocs: f64,
    bytes: f64,
    us: f64,
}

/// Drives one serial engine through `1 + probe_steps` steps of the same
/// session and reports (step-1 cost, mean steps-2..n cost). Runs serially
/// (`parallel: false`) so no worker thread perturbs the process-wide
/// allocation counters.
fn steady_state_probe(db: &Arc<SubjectiveDb>, probe_steps: usize) -> (ProbeSample, ProbeSample) {
    let cfg = EngineConfig {
        parallel: false,
        max_candidates: 8,
        ..EngineConfig::default()
    };
    let mut engine = SdeEngine::new(Arc::clone(db), cfg);
    let query = SelectionQuery::all();
    let mut measure = || {
        let a0 = ALLOCS.load(Ordering::Relaxed);
        let b0 = ALLOC_BYTES.load(Ordering::Relaxed);
        let t = Instant::now();
        let res = engine.step(&query);
        let us = t.elapsed().as_secs_f64() * 1e6;
        std::hint::black_box(&res);
        drop(res);
        ProbeSample {
            allocs: (ALLOCS.load(Ordering::Relaxed) - a0) as f64,
            bytes: (ALLOC_BYTES.load(Ordering::Relaxed) - b0) as f64,
            us,
        }
    };
    let first = measure();
    let mut steady = ProbeSample::default();
    for _ in 0..probe_steps.max(1) {
        let s = measure();
        steady.allocs += s.allocs;
        steady.bytes += s.bytes;
        steady.us += s.us;
    }
    let n = probe_steps.max(1) as f64;
    steady.allocs /= n;
    steady.bytes /= n;
    steady.us /= n;
    (first, steady)
}

struct Cell {
    steps_per_sec: f64,
    wall_secs: f64,
    /// Process CPU time the cell consumed (utime + stime delta around the
    /// run); `None` where `/proc/self/stat` is unavailable.
    cpu_secs: Option<f64>,
    rejected: u64,
    queue_hwm: usize,
}

fn run_cell(db: &Arc<SubjectiveDb>, workers: usize, thread_budget: usize, steps: usize) -> Cell {
    let config = ServiceConfig {
        workers,
        queue_capacity: 8,
        // Intra-step parallelism on, governed by the budget: 1 pins steps
        // to one thread, 0 lets the service divide cores across busy
        // workers.
        thread_budget,
        engine: EngineConfig {
            parallel: true,
            threads: 0,
            max_candidates: 8,
            ..EngineConfig::default()
        },
        mode: ExplorationMode::RecommendationPowered,
        ..ServiceConfig::default()
    };
    let service = Arc::new(SubdexService::start(Arc::clone(db), config));
    let sessions: Vec<SessionId> = (0..SESSIONS).map(|_| service.create_session()).collect();

    let cpu_before = process_cpu_secs();
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
                for (idx, id) in mine {
                    drive_session(&service, id, idx, steps);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread must not panic");
    }
    let elapsed = started.elapsed();
    let cpu_secs = match (cpu_before, process_cpu_secs()) {
        (Some(before), Some(after)) => Some(after - before),
        _ => None,
    };

    let m = service.metrics();
    assert_eq!(m.requests_served, (SESSIONS * steps) as u64);
    service.shutdown();
    Cell {
        steps_per_sec: (SESSIONS * steps) as f64 / elapsed.as_secs_f64(),
        wall_secs: elapsed.as_secs_f64(),
        cpu_secs,
        rejected: m.requests_rejected,
        queue_hwm: m.queue_depth_hwm,
    }
}

/// The same deterministic script the stress test uses: start wide, then
/// follow recommendation `(session_idx + step) % n`. Rejections retry.
fn drive_session(service: &SubdexService, id: SessionId, session_idx: usize, steps: usize) {
    let run = |request: StepRequest| loop {
        match service.run_step(id, request.clone()) {
            Ok(step) => break step,
            Err(ServiceError::Rejected { .. }) => std::thread::sleep(Duration::from_micros(200)),
            Err(e) => panic!("session {id}: {e}"),
        }
    };
    let mut last = run(StepRequest::Operation(SelectionQuery::all()));
    for step in 1..steps {
        let n = last.recommendations.len();
        last = if n == 0 {
            run(StepRequest::Operation(SelectionQuery::all()))
        } else {
            run(StepRequest::Recommendation((session_idx + step) % n))
        };
    }
}
