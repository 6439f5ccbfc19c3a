//! The process-wide subthread gauge, tested in a binary of its own.
//!
//! [`active_subthreads`] counts every live worker subthread in the
//! process, so any test running a parallel region at the same time would
//! move it. Test binaries run their tests on concurrent threads; keeping
//! this file to one test means nothing else can run beside it.

use std::thread;
use warptree_core::parallel::{active_subthreads, parallel_map};

#[test]
fn subthread_count_returns_to_baseline() {
    assert_eq!(active_subthreads(), 0, "no parallel region has run yet");
    let caller = thread::current().id();
    for threads in [1usize, 2, 4, 8] {
        let seen = parallel_map(threads, (0..64u32).collect(), |_, _| {
            (thread::current().id() != caller, active_subthreads())
        });
        for (on_subthread, live) in seen {
            if on_subthread {
                // A spawned worker counts itself while it runs.
                assert!(live >= 1, "worker ran uncounted at {threads} threads");
            } else if threads == 1 {
                assert_eq!(live, 0, "a 1-thread region spawns nothing");
            }
            assert!(live < threads as u64, "at most threads - 1 subthreads");
        }
        assert_eq!(
            active_subthreads(),
            0,
            "gauge back to 0 after {threads} threads"
        );
    }
}
