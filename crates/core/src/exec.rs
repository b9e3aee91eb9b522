//! Deterministic parallel execution utilities shared by the counting
//! kernel, the coverage scans, and the sampling layer's prefetch scan.
//!
//! Everything here is built on `std::thread::scope` (the build environment
//! has no registry access, so no `rayon`). On one thread every function
//! degrades to a sequential loop with **bit-identical results** —
//! determinism is the contract of this module, not an accident:
//!
//! * [`parallel_map`] returns outputs **in job order** no matter which
//!   worker ran which job, so consumers can merge partials positionally;
//! * [`worker_threads`] is the one place thread counts come from
//!   (`SDD_THREADS` overrides detection, which is also how tests pin the
//!   schedule on single-core machines), and [`threads_for_rows`] the one
//!   place that decides whether an input is worth fanning out at all.
//!   `SDD_THREADS=1` is the single-threaded build: there is no cargo
//!   feature and no per-search switch beside it.

use std::sync::Mutex;

/// Inputs below this many rows run on one thread: spawning scoped workers
/// costs more than it saves there (the whole-view search gains 1.8–1.95×
/// on two cores at 1 M rows and 1.05× at 9 409, and the task-per-rule
/// prefetch scan *loses* at 9 409: 0.63×).
const PARALLEL_MIN_ROWS: usize = 16 * 1024;

/// Number of worker threads to use: the `SDD_THREADS` environment variable
/// when it parses as a number, else [`std::thread::available_parallelism`].
/// Always ≥ 1.
pub fn worker_threads() -> usize {
    if let Some(n) = std::env::var("SDD_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        return n.max(1);
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The worker budget for one pass over `n_rows` rows: [`worker_threads`]
/// when the input is large enough to pay for the fan-out, else `1`. Worked
/// out from the input, never set: results are thread-invariant either way.
pub fn threads_for_rows(n_rows: usize) -> usize {
    if n_rows >= PARALLEL_MIN_ROWS {
        worker_threads()
    } else {
        1
    }
}

/// Runs `work` over every job on up to `threads` scoped workers, returning
/// outputs **in job order**. Jobs must be independent (disjoint
/// accumulators); because each output slot is produced by exactly one job,
/// scheduling cannot affect the result, only the wall clock.
pub fn parallel_map<J, T, F>(threads: usize, jobs: Vec<J>, work: F) -> Vec<T>
where
    J: Send,
    T: Send,
    F: Fn(J) -> T + Sync,
{
    if threads <= 1 || jobs.len() < 2 {
        return jobs.into_iter().map(work).collect();
    }
    let n_workers = threads.min(jobs.len());
    let queue: Mutex<Vec<(usize, J)>> = Mutex::new(jobs.into_iter().enumerate().rev().collect());
    let mut tagged: Vec<(usize, T)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out: Vec<(usize, T)> = Vec::new();
                    loop {
                        let job = queue.lock().expect("exec queue poisoned").pop();
                        match job {
                            Some((i, j)) => out.push((i, work(j))),
                            None => break,
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("exec worker panicked"))
            .collect()
    });
    tagged.sort_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, t)| t).collect()
}

/// A small fixed-size worker-thread pool for **long-lived, independent**
/// jobs — server connections, background prefetch ticks — as opposed to
/// [`parallel_map`]'s fork-join batches.
///
/// Jobs are boxed closures pulled from a shared queue; workers run until the
/// pool is dropped (drop joins them after the queue drains). The pool makes
/// **no determinism promises**: anything executed on it must synchronize its
/// own state (the drill-down server serializes per-session work behind a
/// per-session lock, which is where its determinism comes from).
pub struct TaskPool {
    sender: Option<std::sync::mpsc::Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Jobs submitted but not yet claimed by a worker — the queue depth an
    /// admission controller sheds on.
    pending: std::sync::Arc<std::sync::atomic::AtomicUsize>,
}

type Job = Box<dyn FnOnce() + Send + 'static>;

impl TaskPool {
    /// Spawns a pool of `threads.max(1)` workers.
    pub fn new(threads: usize) -> Self {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (sender, receiver) = std::sync::mpsc::channel::<Job>();
        let receiver = std::sync::Arc::new(Mutex::new(receiver));
        let pending = std::sync::Arc::new(AtomicUsize::new(0));
        let workers = (0..threads.max(1))
            .map(|_| {
                let receiver = std::sync::Arc::clone(&receiver);
                let pending = std::sync::Arc::clone(&pending);
                std::thread::spawn(move || loop {
                    // Hold the lock only while popping, never while running.
                    let job = match receiver.lock() {
                        Ok(rx) => rx.recv(),
                        Err(_) => return,
                    };
                    match job {
                        // A panicking job must not kill the worker: each
                        // panic would permanently shrink the pool, and once
                        // the last worker died `submit` would panic too.
                        Ok(job) => {
                            pending.fetch_sub(1, Ordering::Relaxed);
                            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                        }
                        Err(_) => return, // all senders dropped → shut down
                    }
                })
            })
            .collect();
        Self {
            sender: Some(sender),
            workers,
            pending,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Jobs waiting in the queue, not yet claimed by a worker. A snapshot:
    /// exact enough for load shedding and metrics, not linearizable.
    pub fn pending(&self) -> usize {
        self.pending.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// A shared handle to the pending-jobs gauge, for observers (metrics
    /// endpoints) that must outlive a borrow of the pool. Read-only by
    /// convention.
    pub fn pending_gauge(&self) -> std::sync::Arc<std::sync::atomic::AtomicUsize> {
        std::sync::Arc::clone(&self.pending)
    }

    /// Enqueues a job; some idle worker will run it.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.pending
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.sender
            .as_ref()
            .expect("pool alive while not dropped")
            .send(Box::new(job))
            .expect("workers alive while pool alive");
    }
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        drop(self.sender.take()); // close the queue
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_job_order() {
        for threads in [1, 2, 4] {
            let out = parallel_map(threads, (0..17).collect::<Vec<_>>(), |j| j * 10);
            assert_eq!(out, (0..17).map(|j| j * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn worker_threads_is_positive_for_any_sdd_threads_value() {
        let _guard = crate::test_env_lock();
        let detected = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::env::remove_var("SDD_THREADS");
        assert_eq!(worker_threads(), detected);
        for (value, want) in [("0", 1), ("garbage", detected), ("", detected), ("8", 8)] {
            std::env::set_var("SDD_THREADS", value);
            assert_eq!(worker_threads(), want, "SDD_THREADS={value:?}");
        }
        // The row gate only ever lowers the budget.
        assert_eq!(threads_for_rows(PARALLEL_MIN_ROWS - 1), 1);
        assert_eq!(threads_for_rows(PARALLEL_MIN_ROWS), 8);
        std::env::remove_var("SDD_THREADS");
    }

    #[test]
    fn task_pool_runs_all_jobs() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let pool = TaskPool::new(3);
        assert_eq!(pool.threads(), 3);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let counter = Arc::clone(&counter);
            pool.submit(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // joins workers after the queue drains
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn task_pool_survives_panicking_jobs() {
        let pool = TaskPool::new(1); // one worker: a lost thread would hang
        for _ in 0..3 {
            pool.submit(|| panic!("job blew up"));
        }
        let (tx, rx) = std::sync::mpsc::channel();
        pool.submit(move || tx.send(1u8).unwrap());
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(10)),
            Ok(1),
            "worker must outlive panicking jobs"
        );
    }

    #[test]
    fn task_pool_clamps_to_one_worker() {
        let pool = TaskPool::new(0);
        assert_eq!(pool.threads(), 1);
        let (tx, rx) = std::sync::mpsc::channel();
        pool.submit(move || tx.send(7usize).unwrap());
        assert_eq!(rx.recv().unwrap(), 7);
    }
}
