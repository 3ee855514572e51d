//! Hang watchdog: a supervisor thread that cancels silent jobs.
//!
//! Panics are loud; stalls are silent. A job that livelocks inside a
//! solver loop never returns to the worker loop, so the panic-healing
//! machinery in [`crate::pool`] cannot see it. The watchdog closes that
//! gap cooperatively:
//!
//! 1. A job [`WatchRegistry::begin`]s before entering solver code and
//!    receives a shared cancellation token (an `AtomicBool` implementing
//!    [`bios_electrochem::checkpoint::CheckPoint`]).
//! 2. The solver polls the token every
//!    [`bios_electrochem::checkpoint::POLL_INTERVAL`] steps.
//! 3. The supervisor thread wakes on a fraction of the deadline and
//!    trips the token of any job whose monotonic start mark is older
//!    than the soft deadline.
//! 4. The job observes the trip, unwinds with a typed cancellation, and
//!    the runtime converts the loss into the deterministic
//!    [`crate::JobError::Deadline`].
//!
//! The watchdog never kills threads; everything is cooperative, so the
//! result of a cancelled job is always a clean typed error, never a
//! leaked lock or a torn result. Wall-clock timing decides *which* jobs
//! get cancelled (that much is inherently nondeterministic), but the
//! *rendered* loss is identical at any worker count, and only jobs with
//! an injected stall can ever exceed the deadline in practice.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Shared table of in-flight watched jobs, keyed by job index.
#[derive(Debug)]
pub(crate) struct WatchRegistry {
    deadline: Duration,
    entries: Mutex<HashMap<usize, WatchEntry>>,
    /// Set once by [`Watchdog::drop`] to stop the supervisor.
    shutdown: AtomicBool,
}

#[derive(Debug)]
struct WatchEntry {
    started: Instant,
    token: Arc<AtomicBool>,
}

impl WatchRegistry {
    fn new(deadline: Duration) -> WatchRegistry {
        WatchRegistry {
            deadline,
            entries: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Registers a job as in-flight and returns its cancellation token.
    pub(crate) fn begin(&self, index: usize) -> Arc<AtomicBool> {
        let token = Arc::new(AtomicBool::new(false));
        if let Ok(mut entries) = self.entries.lock() {
            entries.insert(
                index,
                WatchEntry {
                    started: Instant::now(),
                    token: Arc::clone(&token),
                },
            );
        }
        token
    }

    /// Removes a finished job from supervision.
    pub(crate) fn end(&self, index: usize) {
        if let Ok(mut entries) = self.entries.lock() {
            entries.remove(&index);
        }
    }

    /// One supervisor sweep: trip the token of every job past deadline.
    fn sweep(&self) {
        let Ok(entries) = self.entries.lock() else {
            return;
        };
        let now = Instant::now();
        for entry in entries.values() {
            if now.duration_since(entry.started) > self.deadline {
                entry.token.store(true, Ordering::Relaxed);
            }
        }
    }
}

/// Handle owning the supervisor thread; dropping it shuts the thread
/// down and joins it.
#[derive(Debug)]
pub(crate) struct Watchdog {
    registry: Arc<WatchRegistry>,
    supervisor: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Spawns the supervisor. `deadline` must be non-zero (the runtime
    /// treats zero as "watchdog disabled" and never constructs one).
    pub(crate) fn spawn(deadline: Duration) -> Watchdog {
        let registry = Arc::new(WatchRegistry::new(deadline));
        // Tick well inside the deadline so a stalled job overshoots by
        // at most ~1/8 of it; floor keeps a tiny deadline from busy
        // spinning the supervisor.
        let tick = (deadline / 8).max(Duration::from_millis(1));
        let reg = Arc::clone(&registry);
        let supervisor = std::thread::Builder::new()
            .name("bios-watchdog".into())
            .spawn(move || {
                while !reg.shutdown.load(Ordering::Relaxed) {
                    std::thread::sleep(tick);
                    reg.sweep();
                }
            })
            .ok();
        Watchdog {
            registry,
            supervisor,
        }
    }

    /// The shared registry workers report to.
    pub(crate) fn registry(&self) -> Arc<WatchRegistry> {
        Arc::clone(&self.registry)
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.registry.shutdown.store(true, Ordering::Relaxed);
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supervisor_trips_only_overdue_jobs() {
        let watchdog = Watchdog::spawn(Duration::from_millis(20));
        let registry = watchdog.registry();
        let stalled = registry.begin(0);
        // Job 0 "stalls": never calls end. Wait for the trip.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !stalled.load(Ordering::Relaxed) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(stalled.load(Ordering::Relaxed), "overdue token tripped");
        // A fresh job registered after the trip is not collateral.
        let fresh = registry.begin(1);
        assert!(!fresh.load(Ordering::Relaxed));
        registry.end(1);
        registry.end(0);
    }

    #[test]
    fn finished_jobs_are_never_tripped() {
        let watchdog = Watchdog::spawn(Duration::from_millis(5));
        let registry = watchdog.registry();
        let token = registry.begin(7);
        registry.end(7);
        std::thread::sleep(Duration::from_millis(40));
        assert!(
            !token.load(Ordering::Relaxed),
            "ended before deadline: token must stay clear"
        );
    }

    #[test]
    fn drop_joins_the_supervisor() {
        let watchdog = Watchdog::spawn(Duration::from_millis(1));
        drop(watchdog); // must not hang or leak the thread
    }
}
