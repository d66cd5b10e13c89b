//! A fixed worker pool with a bounded admission queue, for a codec whose
//! requests block (the fleet gateway's backend round trips; `lca-serve`
//! answers its queries on the reactor loops instead).
//!
//! Backpressure is explicit: [`WorkerPool::try_execute`] refuses work when
//! the queue is full and the caller answers `overloaded` on the wire,
//! instead of buffering without bound and letting latency (then memory)
//! blow up. Shutdown is a drain — already-admitted jobs run to completion.

#![warn(clippy::unwrap_used)]
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct PoolInner {
    state: Mutex<PoolState>,
    not_empty: Condvar,
    capacity: usize,
}

/// The pool handle; dropping it without [`WorkerPool::shutdown`] drains too
/// (workers are joined on drop).
pub struct WorkerPool {
    inner: Arc<PoolInner>,
    worker_count: usize,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// Why a job was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The admission queue is at capacity.
    Full,
    /// The pool is draining and accepts no new work.
    ShuttingDown,
}

impl WorkerPool {
    /// Spawns `workers` threads behind a queue of at most `capacity`
    /// pending jobs (both clamped to ≥ 1).
    pub fn new(workers: usize, capacity: usize) -> Self {
        let inner = Arc::new(PoolInner {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        });
        let worker_count = workers.max(1);
        let workers = (0..worker_count)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("lca-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    // lint:allow(panic) — startup path: no workers means no server
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Self {
            inner,
            worker_count,
            workers: Mutex::new(workers),
        }
    }

    /// Admits `job`, or rejects it when the queue is full or draining —
    /// the caller turns a rejection into an `overloaded` wire response.
    pub fn try_execute(&self, job: impl FnOnce() + Send + 'static) -> Result<(), RejectReason> {
        // lint:allow(panic) — poison means a worker already panicked; propagate
        let mut state = self.inner.state.lock().expect("pool poisoned");
        if state.shutdown {
            return Err(RejectReason::ShuttingDown);
        }
        if state.queue.len() >= self.inner.capacity {
            return Err(RejectReason::Full);
        }
        state.queue.push_back(Box::new(job));
        drop(state);
        self.inner.not_empty.notify_one();
        Ok(())
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.worker_count
    }

    /// Drains and joins: admitted jobs finish, new ones are rejected.
    /// Idempotent — later calls are no-ops.
    pub fn shutdown(&self) {
        {
            // lint:allow(panic) — poison means a worker already panicked; propagate
            let mut state = self.inner.state.lock().expect("pool poisoned");
            state.shutdown = true;
        }
        self.inner.not_empty.notify_all();
        let handles: Vec<_> = self
            .workers
            .lock()
            // lint:allow(panic) — poison means a worker already panicked; propagate
            .expect("pool poisoned")
            .drain(..)
            .collect();
        for handle in handles {
            // Workers catch job panics, so a failed join is already an
            // anomaly; panicking here would turn a drop-during-unwind
            // into an abort, so just surface it.
            if handle.join().is_err() {
                eprintln!("lca-serve: worker thread panicked outside a job");
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &PoolInner) {
    loop {
        let job = {
            // lint:allow(panic) — poison means a worker already panicked; propagate
            let mut state = inner.state.lock().expect("pool poisoned");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                // lint:allow(panic) — poison means a worker already panicked; propagate
                state = inner.not_empty.wait(state).expect("pool poisoned");
            }
        };
        // A panicking job must not take the worker (and with it a slice of
        // the pool's capacity) down with it.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // tests assert; unwrap IS the assertion
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn runs_every_admitted_job() {
        let pool = WorkerPool::new(4, 64);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let done = done.clone();
            pool.try_execute(move || {
                done.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn rejects_when_full_and_when_draining() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let pool = WorkerPool::new(1, 1);
        // Block the single worker…
        let g = gate.clone();
        pool.try_execute(move || {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        })
        .unwrap();
        // …give it time to dequeue, then fill the queue.
        std::thread::sleep(Duration::from_millis(50));
        pool.try_execute(|| {}).unwrap();
        let full = pool.try_execute(|| {});
        assert_eq!(full.unwrap_err(), RejectReason::Full);
        // Open the gate and drain.
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        pool.shutdown();
        let after = pool.try_execute(|| {});
        assert_eq!(after.unwrap_err(), RejectReason::ShuttingDown);
    }

    #[test]
    fn shutdown_drains_the_queue() {
        let pool = WorkerPool::new(2, 128);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let done = done.clone();
            pool.try_execute(move || {
                std::thread::sleep(Duration::from_micros(100));
                done.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        // Shutdown must wait for all 100, not abandon the queue.
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn a_panicking_job_does_not_kill_its_worker() {
        let pool = WorkerPool::new(1, 8);
        pool.try_execute(|| panic!("job bug")).unwrap();
        // The single worker must survive to run this:
        let done = Arc::new(AtomicUsize::new(0));
        let d = done.clone();
        pool.try_execute(move || {
            d.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn sizes_are_clamped() {
        let pool = WorkerPool::new(0, 0);
        assert_eq!(pool.workers(), 1);
        pool.try_execute(|| {}).unwrap();
    }
}
