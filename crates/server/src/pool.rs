//! A fixed-size worker pool with a **bounded** queue — the admission
//! control half of the server.
//!
//! Submission is non-blocking: [`WorkerPool::try_submit`] either
//! enqueues the job or fails *immediately* with
//! [`SubmitError::Overloaded`], which the server converts into a typed
//! `overloaded` protocol error. This keeps queueing delay bounded (at
//! most `capacity` jobs deep) instead of letting latency grow without
//! limit under overload — the classic bounded-queue/backpressure
//! design.
//!
//! Shutdown is *draining*: workers finish every job already admitted,
//! then exit. Combined with the deadline check the server performs at
//! dequeue time, a drain completes in bounded time even with a full
//! queue.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use warptree_obs::Gauge;

/// A queued unit of work.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity.
    Overloaded,
    /// The pool is draining and admits no new work.
    ShuttingDown,
}

struct State {
    queue: VecDeque<Job>,
    shutting_down: bool,
}

struct Shared {
    state: Mutex<State>,
    not_empty: Condvar,
    capacity: usize,
    depth: Gauge,
}

/// A fixed-size thread pool over one bounded FIFO queue.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads sharing a queue bounded at `capacity`
    /// jobs. `depth` is updated with the instantaneous queue length on
    /// every enqueue/dequeue (pass `Gauge::noop()` to skip metering).
    pub fn new(workers: usize, capacity: usize, depth: Gauge) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::with_capacity(capacity),
                shutting_down: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
            depth,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("warptree-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            shared,
            workers: handles,
        }
    }

    /// Enqueues `job` unless the queue is full or the pool is draining.
    /// Never blocks.
    pub fn try_submit(&self, job: Job) -> Result<(), SubmitError> {
        let mut state = self.shared.state.lock().expect("pool lock");
        if state.shutting_down {
            return Err(SubmitError::ShuttingDown);
        }
        if state.queue.len() >= self.shared.capacity {
            return Err(SubmitError::Overloaded);
        }
        state.queue.push_back(job);
        self.shared.depth.set(state.queue.len() as f64);
        drop(state);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// The instantaneous queue length.
    pub fn queue_len(&self) -> usize {
        self.shared.state.lock().expect("pool lock").queue.len()
    }

    /// Begins a drain: no new jobs are admitted; already-queued jobs
    /// still run. Idempotent. Does not wait — call [`WorkerPool::join`]
    /// to wait for the drain to finish.
    pub fn shutdown(&self) {
        let mut state = self.shared.state.lock().expect("pool lock");
        state.shutting_down = true;
        drop(state);
        self.shared.not_empty.notify_all();
    }

    /// Drains and joins every worker (what dropping the pool does).
    pub fn join(self) {
        drop(self);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool lock");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    shared.depth.set(state.queue.len() as f64);
                    break job;
                }
                if state.shutting_down {
                    return;
                }
                state = shared.not_empty.wait(state).expect("pool lock");
            }
        };
        // Run outside the lock; a panicking job must not take the
        // worker (and with it 1/N of the pool's capacity) down.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn executes_submitted_jobs() {
        let pool = WorkerPool::new(4, 16, Gauge::noop());
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let c = counter.clone();
            pool.try_submit(Box::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap();
        }
        pool.join();
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn full_queue_rejects_with_overloaded() {
        // One worker blocked on a gate; capacity 2 admits exactly two
        // more jobs, then rejects.
        let pool = WorkerPool::new(1, 2, Gauge::noop());
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.try_submit(Box::new(move || {
            started_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
        }))
        .unwrap();
        started_rx.recv().unwrap(); // worker is now occupied
        pool.try_submit(Box::new(|| {})).unwrap();
        pool.try_submit(Box::new(|| {})).unwrap();
        let err = pool.try_submit(Box::new(|| {})).unwrap_err();
        assert_eq!(err, SubmitError::Overloaded);
        gate_tx.send(()).unwrap();
        pool.join();
    }

    #[test]
    fn shutdown_drains_queued_jobs_then_rejects() {
        let pool = WorkerPool::new(1, 8, Gauge::noop());
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..5 {
            let c = counter.clone();
            pool.try_submit(Box::new(move || {
                std::thread::sleep(Duration::from_millis(1));
                c.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(
            pool.try_submit(Box::new(|| {})).unwrap_err(),
            SubmitError::ShuttingDown
        );
        pool.join();
        assert_eq!(counter.load(Ordering::SeqCst), 5, "drain ran queued jobs");
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output clean
        let pool = WorkerPool::new(1, 8, Gauge::noop());
        pool.try_submit(Box::new(|| panic!("job panic"))).unwrap();
        let (tx, rx) = mpsc::channel();
        pool.try_submit(Box::new(move || tx.send(42).unwrap()))
            .unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 42);
        pool.join();
        std::panic::set_hook(prev);
    }

    #[test]
    fn queue_depth_gauge_tracks_length() {
        let reg = warptree_obs::MetricsRegistry::new();
        let pool = WorkerPool::new(1, 8, reg.gauge("server.queue_depth"));
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.try_submit(Box::new(move || {
            started_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
        }))
        .unwrap();
        started_rx.recv().unwrap();
        pool.try_submit(Box::new(|| {})).unwrap();
        pool.try_submit(Box::new(|| {})).unwrap();
        assert_eq!(reg.snapshot().gauges["server.queue_depth"], 2.0);
        gate_tx.send(()).unwrap();
        pool.join();
        assert_eq!(reg.snapshot().gauges["server.queue_depth"], 0.0);
    }
}
