//! A named background thread with a stop flag, joined when stopped or
//! dropped — the shape shared by the reload watcher, the compaction and
//! scrub workers, the metrics HTTP endpoint and the coordinator's
//! health monitor.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A running background thread. [`Worker::stop`] (or dropping it) sets
/// the stop flag and waits for the thread to exit.
pub struct Worker {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Worker {
    /// Runs `body` on a thread named `name`; `body` should return soon
    /// after the flag it is handed turns `true`.
    pub fn spawn(
        name: &str,
        body: impl FnOnce(&AtomicBool) + Send + 'static,
    ) -> io::Result<Worker> {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || body(&flag))?;
        Ok(Worker {
            stop,
            handle: Some(handle),
        })
    }

    /// Runs `tick` every `interval` (first after one interval, or at
    /// once when `now`) until stopped. The wait sleeps in slices of at
    /// most 50 ms, so stopping returns promptly even with a long
    /// interval; `tick` gets the flag to check inside long passes.
    pub fn every(
        name: &str,
        interval: Duration,
        now: bool,
        mut tick: impl FnMut(&AtomicBool) + Send + 'static,
    ) -> io::Result<Worker> {
        Worker::spawn(name, move |stop| {
            let slice = interval
                .min(Duration::from_millis(50))
                .max(Duration::from_millis(1));
            let mut elapsed = if now { interval } else { Duration::ZERO };
            while !stop.load(Ordering::SeqCst) {
                if elapsed < interval {
                    std::thread::sleep(slice);
                    elapsed += slice;
                    continue;
                }
                elapsed = Duration::ZERO;
                tick(stop);
            }
        })
    }

    /// Stops the thread and waits for it.
    pub fn stop(self) {}
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Instant;

    #[test]
    fn ticks_until_stopped_and_stops_promptly() {
        let ticks = Arc::new(AtomicU64::new(0));
        let seen = ticks.clone();
        let w = Worker::every("test-worker", Duration::from_millis(1), true, move |_| {
            seen.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        while ticks.load(Ordering::SeqCst) < 3 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // A long interval still stops within a sleep slice.
        let slow = Worker::every("test-slow", Duration::from_secs(3600), false, |_| {}).unwrap();
        let t0 = Instant::now();
        slow.stop();
        w.stop();
        assert!(t0.elapsed() < Duration::from_secs(5));
        let after = ticks.load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(ticks.load(Ordering::SeqCst), after, "ticked after stop");
    }
}
