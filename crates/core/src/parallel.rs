//! Thread-count resolution and the persistent step-worker pool shared by
//! every parallel code path.
//!
//! The generator's phase scan, the recommendation evaluator, the
//! simulation study runner, and the service worker pool all accept a
//! thread count where `0` means "use every available core".
//! This module is the single home of that convention, of the
//! oversubscription budget that clamps it, and of the process-wide
//! [`TaskPool`] that executes the per-phase fan-outs without re-spawning OS
//! threads on every step.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Resolves a requested thread count: `0` means one thread per available
/// core (falling back to 1 when parallelism cannot be queried), any other
/// value is taken as-is.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Resolves a requested thread count under an oversubscription budget.
///
/// `budget == 0` means "no cap" and behaves exactly like
/// [`resolve_threads`]. Otherwise the resolved count is clamped to the
/// budget, which the service computes as `max(1, cores / busy_workers)` so
/// concurrent sessions split the machine instead of each claiming every
/// core.
pub fn budget_threads(requested: usize, budget: usize) -> usize {
    let resolved = resolve_threads(requested);
    if budget == 0 {
        resolved
    } else {
        resolved.min(budget.max(1))
    }
}

/// Upper bound on pool threads ever spawned, regardless of how large a
/// fan-out is requested. Requests beyond this are still completed — the
/// caller always executes tasks itself — they just share the existing
/// threads.
const MAX_POOL_THREADS: usize = 64;

/// One fan-out: `total` task indices claimed from a shared counter by
/// whichever threads (pool workers plus the submitting caller) get there
/// first.
struct Batch {
    /// Lifetime-erased pointer to the caller's task closure. Sound because
    /// [`TaskPool::run`] blocks until `done == total`, so the closure (and
    /// everything it borrows) outlives every dereference.
    job: &'static (dyn Fn(usize) + Sync),
    total: usize,
    claim: AtomicUsize,
    done: Mutex<usize>,
    finished: Condvar,
    panicked: AtomicBool,
}

fn execute_claims(batch: &Batch) {
    loop {
        let index = batch.claim.fetch_add(1, Ordering::Relaxed);
        if index >= batch.total {
            break;
        }
        if catch_unwind(AssertUnwindSafe(|| (batch.job)(index))).is_err() {
            batch.panicked.store(true, Ordering::Relaxed);
        }
        let mut done = batch.done.lock().unwrap();
        *done += 1;
        if *done == batch.total {
            batch.finished.notify_all();
        }
    }
}

struct PoolShared {
    queue: Mutex<VecDeque<Arc<Batch>>>,
    work_ready: Condvar,
    spawned: Mutex<usize>,
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let batch = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(batch) = queue.pop_front() {
                    break batch;
                }
                queue = shared.work_ready.wait(queue).unwrap();
            }
        };
        execute_claims(&batch);
    }
}

/// A persistent work-stealing-ish task pool: threads are spawned lazily on
/// first demand and then live for the life of the process, pulling whole
/// batches off a shared injector queue and racing the submitting caller for
/// task indices within each batch.
///
/// Progress never depends on pool threads being free: the caller always
/// executes its own batch too, so `run` completes even with zero pool
/// threads available (single-core machines, nested fan-outs from inside a
/// pooled task).
pub struct TaskPool {
    shared: Arc<PoolShared>,
}

/// Result slot written exactly once by whichever thread claims its index.
struct TaskSlot<T>(UnsafeCell<Option<T>>);

// Safety: each slot index is claimed exactly once via the batch's atomic
// counter, so writes are exclusive; reads happen only after the `done`
// mutex hand-off in `run`.
unsafe impl<T: Send> Sync for TaskSlot<T> {}

impl TaskPool {
    fn new() -> Self {
        TaskPool {
            shared: Arc::new(PoolShared {
                queue: Mutex::new(VecDeque::new()),
                work_ready: Condvar::new(),
                spawned: Mutex::new(0),
            }),
        }
    }

    /// Number of pool threads spawned so far (grows lazily, never shrinks).
    pub fn threads_spawned(&self) -> usize {
        *self.shared.spawned.lock().unwrap()
    }

    fn ensure_workers(&self, wanted: usize) {
        let wanted = wanted.min(MAX_POOL_THREADS);
        let mut spawned = self.shared.spawned.lock().unwrap();
        while *spawned < wanted {
            let shared = Arc::clone(&self.shared);
            std::thread::Builder::new()
                .name(format!("subdex-pool-{}", *spawned))
                .spawn(move || worker_loop(&shared))
                .expect("failed to spawn pool worker");
            *spawned += 1;
        }
    }

    /// Runs `f(0), f(1), …, f(tasks - 1)` across the pool and the calling
    /// thread, returning the results in index order regardless of which
    /// thread computed what — the deterministic merge every call site
    /// relies on. Panics inside a task are caught, the batch is drained,
    /// and the panic is re-raised on the caller.
    pub fn run<T, F>(&self, tasks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if tasks == 0 {
            return Vec::new();
        }
        if tasks == 1 {
            return vec![f(0)];
        }
        let slots: Vec<TaskSlot<T>> = (0..tasks)
            .map(|_| TaskSlot(UnsafeCell::new(None)))
            .collect();
        let slots_ref: &[TaskSlot<T>] = &slots;
        let job = move |index: usize| {
            let value = f(index);
            // Safety: `index` is claimed exactly once (see TaskSlot).
            unsafe { *slots_ref[index].0.get() = Some(value) };
        };
        let job_ref: &(dyn Fn(usize) + Sync) = &job;
        // Safety: the batch only escapes to pool threads, which never call
        // `job` after `done == total`; `run` does not return before that
        // point, so the erased borrows stay live for every call.
        let job_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(job_ref) };
        let batch = Arc::new(Batch {
            job: job_static,
            total: tasks,
            claim: AtomicUsize::new(0),
            done: Mutex::new(0),
            finished: Condvar::new(),
            panicked: AtomicBool::new(false),
        });
        self.ensure_workers(tasks - 1);
        {
            let mut queue = self.shared.queue.lock().unwrap();
            for _ in 0..tasks - 1 {
                queue.push_back(Arc::clone(&batch));
            }
        }
        self.shared.work_ready.notify_all();
        // The caller is always one of the executors, so completion never
        // waits on pool-thread availability.
        execute_claims(&batch);
        let mut done = batch.done.lock().unwrap();
        while *done < batch.total {
            done = batch.finished.wait(done).unwrap();
        }
        drop(done);
        if batch.panicked.load(Ordering::Relaxed) {
            panic!("pooled task panicked");
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.0
                    .into_inner()
                    .expect("pooled task left its slot empty")
            })
            .collect()
    }
}

/// The process-wide pool every parallel phase submits to.
pub fn task_pool() -> &'static TaskPool {
    static POOL: OnceLock<TaskPool> = OnceLock::new();
    POOL.get_or_init(TaskPool::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_count_is_passed_through() {
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }

    #[test]
    fn zero_resolves_to_at_least_one() {
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn budget_clamps_only_when_set() {
        assert_eq!(budget_threads(8, 0), 8);
        assert_eq!(budget_threads(8, 2), 2);
        assert_eq!(budget_threads(1, 4), 1);
        // A budget of 0 passed through max(1, …) still yields >= 1.
        assert!(budget_threads(0, 1) == 1);
    }

    #[test]
    fn run_returns_results_in_index_order() {
        let squares = task_pool().run(17, |i| i * i);
        assert_eq!(squares, (0..17).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn run_handles_trivial_sizes() {
        assert_eq!(task_pool().run(0, |i| i), Vec::<usize>::new());
        assert_eq!(task_pool().run(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn nested_runs_complete_without_deadlock() {
        let sums = task_pool().run(4, |outer| {
            task_pool()
                .run(4, |inner| outer * 10 + inner)
                .into_iter()
                .sum::<usize>()
        });
        assert_eq!(sums, vec![6, 46, 86, 126]);
    }

    #[test]
    fn shared_counter_sees_every_task() {
        let hits = AtomicUsize::new(0);
        task_pool().run(32, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn task_panic_propagates_to_the_caller() {
        let result = std::panic::catch_unwind(|| {
            task_pool().run(8, |i| {
                if i == 3 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(result.is_err());
        // The pool stays usable afterwards.
        assert_eq!(task_pool().run(3, |i| i), vec![0, 1, 2]);
    }
}
