//! The worker pool that runs independent jobs — server connections,
//! background prefetch ticks.
//!
//! A request never fans out: every scan and search runs on the thread
//! that calls it, so there is one schedule and no thread count to pin.

use std::sync::Mutex;

/// Always `1`: every request runs on its calling thread. Kept only because
/// the repository benchmark still records it; delete it with ROADMAP item
/// 1(d), once the benchmark stops.
pub fn worker_threads() -> usize {
    1
}

/// A small fixed-size worker-thread pool for **long-lived, independent**
/// jobs — server connections, background prefetch ticks.
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
