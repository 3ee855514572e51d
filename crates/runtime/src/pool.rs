//! A channel-fed, self-healing worker pool on `std::thread` +
//! `std::sync::mpsc`.
//!
//! The build environment is offline, so the pool deliberately uses only
//! the standard library: one `mpsc` channel feeds boxed tasks to a set
//! of named worker threads that share the receiving end behind a mutex.
//! A worker holds the lock only for the dequeue handoff, so CPU-bound
//! fleet jobs (hundreds of microseconds and up) scale close to linearly
//! with the worker count.
//!
//! # Hardening
//!
//! Three failure modes are survivable instead of fatal:
//!
//! * **Spawn failure** — [`WorkerPool::new`] keeps whatever threads it
//!   managed to spawn. A pool with zero live workers still makes progress by running tasks
//!   inline on the submitting thread.
//! * **Panicking task** — the worker catches the unwind and *retires
//!   itself* (its post-panic state is suspect).
//!   The remaining workers keep draining the queue.
//! * **Dead workers** — [`WorkerPool::heal`] joins retired workers and
//!   spawns replacements, restoring the pool to its target size. The
//!   runtime calls it before every fleet run.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;

type Task = Box<dyn FnOnce() -> TaskVerdict + Send + 'static>;

/// What a finished task tells its worker to do next.
///
/// Tasks that hit a cancelled/stalled state return
/// [`TaskVerdict::Retire`] so the worker that hosted the stall exits and
/// is replaced on the next [`WorkerPool::heal`] — its thread may still
/// carry lock or allocator state perturbed by the forced cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskVerdict {
    /// The task finished normally; the worker keeps dequeuing.
    Continue,
    /// The worker should retire after this task; `heal` replaces it.
    Retire,
}

/// A fixed-target pool of worker threads executing boxed tasks in
/// submission order (FIFO dispatch, arbitrary completion order).
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
///
/// use bios_runtime::pool::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let counter = Arc::new(AtomicUsize::new(0));
/// for _ in 0..100 {
///     let counter = Arc::clone(&counter);
///     pool.execute(move || {
///         counter.fetch_add(1, Ordering::Relaxed);
///     });
/// }
/// drop(pool); // joins all workers
/// assert_eq!(counter.load(Ordering::Relaxed), 100);
/// ```
#[derive(Debug)]
pub struct WorkerPool {
    sender: Option<mpsc::Sender<Task>>,
    /// The queue's receiving end, shared by every worker; cloned per
    /// spawn so `heal` can mint replacements.
    receiver: Arc<Mutex<mpsc::Receiver<Task>>>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    target: usize,
    /// Monotonic counter so respawned workers get fresh names.
    spawned: AtomicUsize,
}

/// The body of one worker thread: dequeue, run behind `catch_unwind`,
/// retire on the first caught panic.
fn worker_loop(receiver: &Mutex<mpsc::Receiver<Task>>) {
    loop {
        // Lock scope ends at the statement: the guard is held across
        // `recv` (the handoff pattern) but released before the task
        // runs, so a panicking task cannot poison the queue.
        let task = match receiver.lock() {
            // bios-audit: allow(L-lock) — deliberate handoff: the guard spans only the recv so exactly one worker dequeues; it is released before the task runs
            Ok(guard) => guard.recv(),
            Err(_) => return, // a sibling died mid-dequeue
        };
        match task {
            Ok(task) => match catch_unwind(AssertUnwindSafe(task)) {
                Ok(TaskVerdict::Continue) => {}
                // The caller asked for a fresh thread, or the task
                // panicked: retire, and `heal` replaces the worker.
                Ok(TaskVerdict::Retire) | Err(_) => return,
            },
            Err(_) => return, // channel closed: shutdown
        }
    }
}

impl WorkerPool {
    /// Spawns up to `workers` threads (target clamped to at least one),
    /// degrading gracefully: if the OS refuses a thread, the pool keeps
    /// the ones it has — down to zero, where [`WorkerPool::execute`]
    /// falls back to running tasks inline.
    #[must_use]
    pub fn new(workers: usize) -> WorkerPool {
        let target = workers.max(1);
        let (sender, receiver) = mpsc::channel::<Task>();
        let pool = WorkerPool {
            sender: Some(sender),
            receiver: Arc::new(Mutex::new(receiver)),
            workers: Mutex::new(Vec::with_capacity(target)),
            target,
            spawned: AtomicUsize::new(0),
        };
        if let Ok(mut handles) = pool.workers.lock() {
            for _ in 0..target {
                match pool.spawn_worker() {
                    Ok(handle) => handles.push(handle),
                    Err(_) => break, // keep what we have
                }
            }
        }
        pool
    }

    /// Spawns one worker thread with a unique name.
    fn spawn_worker(&self) -> io::Result<thread::JoinHandle<()>> {
        let k = self.spawned.fetch_add(1, Ordering::Relaxed);
        let receiver = Arc::clone(&self.receiver);
        thread::Builder::new()
            .name(format!("bios-worker-{k}"))
            .spawn(move || worker_loop(&receiver))
    }

    /// The worker count the pool aims to keep alive.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.target
    }

    /// Worker threads currently running (excludes retired ones that
    /// [`WorkerPool::heal`] has not yet replaced).
    #[must_use]
    pub fn live_workers(&self) -> usize {
        self.workers.lock().map_or(0, |handles| {
            handles.iter().filter(|h| !h.is_finished()).count()
        })
    }

    /// Joins every retired (finished) worker and spawns replacements up
    /// to the target size. Returns the number of workers respawned.
    pub fn heal(&self) -> usize {
        let mut retired = Vec::new();
        let mut respawned = 0;
        {
            let Ok(mut handles) = self.workers.lock() else {
                return 0;
            };
            let mut i = 0;
            while i < handles.len() {
                if handles[i].is_finished() {
                    retired.push(handles.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            while handles.len() < self.target {
                match self.spawn_worker() {
                    Ok(handle) => {
                        handles.push(handle);
                        respawned += 1;
                    }
                    Err(_) => break, // OS still refusing threads; stay degraded
                }
            }
        }
        // Joins happen outside the lock: the retired threads are already
        // finished, but `join` can still block on OS cleanup, and holding
        // `workers` through it would stall `execute`'s liveness check.
        for handle in retired {
            let _ = handle.join();
        }
        respawned
    }

    /// Enqueues a task; it runs on the first free worker. If every
    /// worker has retired (or none could be spawned), the task runs
    /// inline on the calling thread so the pool never deadlocks.
    pub fn execute(&self, task: impl FnOnce() + Send + 'static) {
        self.execute_judged(move || {
            task();
            TaskVerdict::Continue
        });
    }

    /// Like [`WorkerPool::execute`], but the task's return value decides
    /// whether its worker keeps running or retires. The runtime routes
    /// fleet chunks through this so a chunk that absorbed a watchdog
    /// cancellation can demand a fresh thread.
    pub fn execute_judged(&self, task: impl FnOnce() -> TaskVerdict + Send + 'static) {
        if self.live_workers() == 0 {
            // Inline fallback: still catch panics so the caller's
            // result-collection path sees the same semantics. A Retire
            // verdict is meaningless inline — there is no thread to
            // retire — so it is dropped.
            let _ = catch_unwind(AssertUnwindSafe(task));
            return;
        }
        if let Some(sender) = &self.sender {
            // Send fails only when every worker has died, which only
            // happens on shutdown; tasks submitted after that are
            // dropped, matching the pool's fail-quiet drain semantics.
            let _ = sender.send(Box::new(task));
        }
    }

    /// A sensible default worker count: the machine's available
    /// parallelism, leaving the caller's thread to collect results.
    #[must_use]
    pub fn default_workers() -> usize {
        thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
    }
}

impl Drop for WorkerPool {
    /// Closes the queue and joins every worker, draining outstanding
    /// tasks first.
    fn drop(&mut self) {
        drop(self.sender.take());
        // Drain under the lock, join outside it: joining with `workers`
        // held would block any concurrent `heal`/`live_workers` caller
        // for the whole shutdown.
        let drained: Vec<_> = match self.workers.lock() {
            Ok(mut handles) => handles.drain(..).collect(),
            Err(_) => Vec::new(),
        };
        for worker in drained {
            // A worker that caught a panicking task already recorded
            // it; nothing useful to do with a join error here.
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use super::*;

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = WorkerPool::new(8);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..1000 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool);
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn clamps_zero_workers_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
    }

    #[test]
    fn uses_multiple_threads() {
        // Two tasks rendezvous on a barrier: they can only both reach it
        // if the pool runs them on two distinct workers concurrently.
        let pool = WorkerPool::new(4);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let (tx, rx) = mpsc::channel();
        for _ in 0..2 {
            let barrier = Arc::clone(&barrier);
            let tx = tx.clone();
            pool.execute(move || {
                barrier.wait();
                let _ = tx.send(thread::current().name().map(str::to_owned));
            });
        }
        drop(tx);
        let names: std::collections::BTreeSet<_> = rx.iter().collect();
        drop(pool);
        assert_eq!(names.len(), 2, "tasks shared a worker: {names:?}");
    }

    #[test]
    fn survives_panicking_tasks_and_heals() {
        let pool = WorkerPool::new(2);
        let (tx, rx) = mpsc::channel();
        for _ in 0..2 {
            pool.execute(|| panic!("injected task panic"));
        }
        // Wait for both workers to retire (they do so async).
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while pool.live_workers() > 0 && std::time::Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pool.live_workers(), 0, "each panic retires its worker");
        let respawned = pool.heal();
        assert_eq!(respawned, 2, "both retired workers replaced");
        assert_eq!(pool.live_workers(), 2);
        // The healed pool still executes tasks on worker threads.
        pool.execute(move || {
            let _ = tx.send(thread::current().name().map(str::to_owned));
        });
        let name = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("healed pool runs tasks");
        assert!(name.unwrap_or_default().starts_with("bios-worker-"));
    }

    #[test]
    fn fully_dead_pool_falls_back_to_inline_execution() {
        let pool = WorkerPool::new(1);
        pool.execute(|| panic!("kill the only worker"));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while pool.live_workers() > 0 && std::time::Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pool.live_workers(), 0);
        // Without healing, execute degrades to inline — it must still
        // run (and still swallow panics) rather than deadlock.
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        pool.execute(move || {
            c.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1);
        pool.execute(|| panic!("inline panic is swallowed too"));
    }

    #[test]
    fn retire_verdict_ends_the_worker() {
        let pool = WorkerPool::new(1);
        pool.execute_judged(|| TaskVerdict::Retire);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while pool.live_workers() > 0 && std::time::Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pool.live_workers(), 0, "worker retired on verdict");
        assert_eq!(pool.heal(), 1, "heal replaces the retired worker");
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(WorkerPool::default_workers() >= 1);
    }
}
