//! # bios-runtime
//!
//! The concurrent fleet-simulation runtime: turns the one-shot
//! `CatalogEntry::run_calibration(seed)` path into a scalable engine
//! that calibrates whole fleets of simulated sensors — the paper's
//! multi-sensor platform multiplied out to many patients, panels, and
//! replicate seeds — behind one interface.
//!
//! Five pieces, all on `std` only (the build environment is offline):
//!
//! * [`pool`] — a channel-fed worker pool on `std::thread` +
//!   `std::sync::mpsc`;
//! * [`fleet`] — the `Job`/`Fleet` batch API with **per-job** error
//!   aggregation instead of fail-fast;
//! * [`cache`] — a bounded, checksummed memoizing result cache keyed
//!   by `(sensor id, protocol fingerprint, fault plan, seed)`;
//! * [`metrics`] — lock-free atomic counters, one row each in a single
//!   `counters!` table;
//! * [`journal`] — a write-ahead run journal giving fleets crash
//!   resume ([`Runtime::run_journaled`] / [`Runtime::resume`]).
//!
//! A hang watchdog (enabled via
//! [`RuntimeConfig::with_job_deadline`]) supervises in-flight jobs: a
//! job silent past the soft deadline is cancelled cooperatively through
//! the solver checkpoints in `bios-electrochem`, its loss is reported
//! as the deterministic [`JobError::Deadline`], and the worker that
//! hosted it retires and is respawned by the healing pass.
//!
//! # Determinism
//!
//! Every job depends only on its `(sensor configuration, seed)` pair —
//! noise streams are derived per job, never shared across threads — and
//! results are collected by job index. A fleet therefore produces
//! **identical calibration outcomes for a given seed regardless of the
//! worker count**; the integration suite pins this with byte-identical
//! digests at 1, 2, and 8 workers.
//!
//! # Examples
//!
//! ```
//! use bios_core::catalog;
//! use bios_runtime::{Fleet, Runtime, RuntimeConfig};
//!
//! let runtime = Runtime::new(RuntimeConfig::default().with_workers(4));
//! let fleet = Fleet::builder("table2")
//!     .sensors(catalog::all_table2())
//!     .seed(42)
//!     .build();
//! let report = runtime.run(&fleet);
//! assert_eq!(report.results.len(), 18);
//! assert!(report.failures().next().is_none());
//! // Re-running the same fleet hits the memo cache.
//! let again = runtime.run(&fleet);
//! assert_eq!(again.cache_hits(), 18);
//! assert_eq!(report.summaries_digest(), again.summaries_digest());
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod fleet;
pub mod journal;
pub mod metrics;
pub mod pool;
mod watchdog;

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bios_core::catalog::{CalibrationOutcome, CatalogEntry};
use bios_electrochem::diffusion::DiffusionGrid;
use bios_faults::{FaultPlan, FaultTally};
use bios_units::{DiffusionCoefficient, Molar, Seconds};

use crate::metrics::JobTally;
use crate::watchdog::{WatchRegistry, Watchdog};

pub use cache::{CacheKey, ResultCache, DEFAULT_CAPACITY};
pub use fleet::{Fleet, FleetOutcome, FleetReport, Job, JobError, JobResult};
pub use journal::{JournalOptions, ResumeReport};
pub use metrics::{Counter, MetricsSnapshot, RuntimeMetrics};
pub use pool::{TaskVerdict, WorkerPool};

/// Runtime construction options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Worker threads for concurrent fleet runs.
    pub workers: usize,
    /// Whether to memoize calibration outcomes.
    pub cache: bool,
    /// Memo-cache capacity in entries; 0 means unbounded.
    pub cache_capacity: usize,
    /// Backoff before the first retry; doubles each further retry.
    pub retry_backoff: Duration,
    /// Soft per-job deadline. When non-zero, a watchdog thread
    /// supervises in-flight jobs and cooperatively cancels any job
    /// silent past the deadline; the loss surfaces as the deterministic
    /// [`JobError::Deadline`]. [`Duration::ZERO`] (the default)
    /// disables supervision — a job that would stall is then rejected
    /// synchronously instead of hanging.
    pub job_deadline: Duration,
}

impl Default for RuntimeConfig {
    /// One worker per available core, cache enabled and bounded at
    /// [`DEFAULT_CAPACITY`], 200 µs initial retry backoff, watchdog
    /// off.
    fn default() -> RuntimeConfig {
        RuntimeConfig {
            workers: WorkerPool::default_workers(),
            cache: true,
            cache_capacity: DEFAULT_CAPACITY,
            retry_backoff: Duration::from_micros(200),
            job_deadline: Duration::ZERO,
        }
    }
}

impl RuntimeConfig {
    /// Overrides the worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> RuntimeConfig {
        self.workers = workers;
        self
    }

    /// Enables or disables the memo cache.
    #[must_use]
    pub fn with_cache(mut self, cache: bool) -> RuntimeConfig {
        self.cache = cache;
        self
    }

    /// Overrides the memo-cache capacity (entries; 0 = unbounded).
    #[must_use]
    pub fn with_cache_capacity(mut self, capacity: usize) -> RuntimeConfig {
        self.cache_capacity = capacity;
        self
    }

    /// Overrides the initial retry backoff.
    #[must_use]
    pub fn with_retry_backoff(mut self, backoff: Duration) -> RuntimeConfig {
        self.retry_backoff = backoff;
        self
    }

    /// Arms the hang watchdog with a soft per-job deadline
    /// ([`Duration::ZERO`] disables it).
    #[must_use]
    pub fn with_job_deadline(mut self, deadline: Duration) -> RuntimeConfig {
        self.job_deadline = deadline;
        self
    }

    /// Default config with the worker count taken from `BIOS_WORKERS`,
    /// the cache capacity from `BIOS_CACHE_CAP`, and the watchdog
    /// deadline from `BIOS_JOB_DEADLINE_MS`, when set and parseable.
    /// A set-but-malformed value is *not* silently ignored: it keeps
    /// the default and prints one deterministic warning line to stderr,
    /// `warning: ignoring malformed NAME="raw" (expected WHAT)`.
    /// `BIOS_WORKERS=0` is malformed: a pool needs at least one worker.
    ///
    /// `BIOS_CACHE_CAP` must be **positive**. In
    /// [`RuntimeConfig::with_cache_capacity`] a capacity of 0 means
    /// *unbounded*, but an operator writing `BIOS_CACHE_CAP=0` almost
    /// always means *disabled* — the opposite. Rather than guess, a
    /// zero value is rejected with the same style of stderr warning as
    /// a malformed one, and the default capacity is kept; disable
    /// memoization with [`RuntimeConfig::with_cache`] instead.
    #[must_use]
    pub fn from_env() -> RuntimeConfig {
        let mut config = RuntimeConfig::default();
        if let Some(n) = env_parsed::<NonZeroUsize>("BIOS_WORKERS", "a positive integer") {
            config.workers = n.get();
        }
        match env_parsed::<usize>("BIOS_CACHE_CAP", "a positive integer") {
            Some(0) => eprintln!(
                "warning: ignoring ambiguous BIOS_CACHE_CAP=\"0\" (0 would mean unbounded, \
                 not disabled; set a positive capacity, or disable memoization with \
                 RuntimeConfig::with_cache(false))"
            ),
            Some(cap) => config.cache_capacity = cap,
            None => {}
        }
        if let Some(ms) = env_parsed::<u64>("BIOS_JOB_DEADLINE_MS", "milliseconds as an integer") {
            config.job_deadline = Duration::from_millis(ms);
        }
        config
    }
}

/// Parses one environment-variable value, warning instead of silently
/// ignoring garbage: a malformed `raw` produces exactly one
/// deterministic line on stderr —
/// `warning: ignoring malformed NAME="raw" (expected WHAT)` — and
/// `None`, so the caller keeps its default. `name`, `raw`, and `what`
/// are free-form identifier/text strings.
fn parse_env_value<T: std::str::FromStr>(name: &str, raw: &str, what: &str) -> Option<T> {
    match raw.parse::<T>() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("warning: ignoring malformed {name}={raw:?} (expected {what})");
            None
        }
    }
}

/// [`parse_env_value`] applied to the process environment; unset
/// variables are silently `None`.
fn env_parsed<T: std::str::FromStr>(name: &str, what: &str) -> Option<T> {
    std::env::var(name)
        .ok()
        .and_then(|raw| parse_env_value(name, &raw, what))
}

/// Execution attempts per job; attempts beyond the first are taken
/// only for transient failures.
pub const MAX_ATTEMPTS: u32 = 3;

/// The per-job robustness knobs, copied out of [`RuntimeConfig`] so the
/// worker closures capture a small `Copy` value instead of the runtime.
#[derive(Debug, Clone, Copy)]
struct ExecPolicy {
    retry_backoff: Duration,
    job_deadline: Duration,
}

impl ExecPolicy {
    fn from_config(config: &RuntimeConfig) -> ExecPolicy {
        ExecPolicy {
            retry_backoff: config.retry_backoff,
            job_deadline: config.job_deadline,
        }
    }

    /// Deterministic exponential backoff for the retry after `attempt`
    /// (1-based), capped so injected glitch storms cannot stall a
    /// worker for long.
    fn backoff_after(&self, attempt: u32) -> Duration {
        let doublings = attempt.saturating_sub(1).min(8);
        self.retry_backoff
            .saturating_mul(1u32 << doublings)
            .min(Duration::from_millis(50))
    }
}

/// The fleet engine: worker pool + memo cache + metrics, shared across
/// every fleet submitted to it. Several runtimes may share one pool
/// ([`Runtime::on_pool_of`]); the cache and metrics are always their
/// own.
#[derive(Debug)]
pub struct Runtime {
    config: RuntimeConfig,
    pool: Arc<WorkerPool>,
    cache: Arc<ResultCache>,
    metrics: Arc<RuntimeMetrics>,
}

impl JobResult {
    /// The deterministic failure surfaced for a job whose worker died
    /// without reporting back. No worker produced it, so the collector
    /// seals it.
    fn worker_lost(index: usize, sensor: String, seed: u64) -> JobResult {
        JobResult {
            index,
            sensor,
            seed,
            wall: Duration::ZERO,
            from_cache: false,
            attempts: 0,
            injected: FaultTally::default(),
            outcome: Err(JobError::Panicked("worker lost".into())),
            integrity: 0,
        }
        .sealed()
    }
}

impl Runtime {
    /// Builds a runtime from `config`.
    #[must_use]
    pub fn new(config: RuntimeConfig) -> Runtime {
        Runtime {
            config,
            pool: Arc::new(WorkerPool::new(config.workers)),
            cache: Arc::new(ResultCache::with_capacity(config.cache_capacity)),
            metrics: Arc::new(RuntimeMetrics::new()),
        }
    }

    /// Builds a runtime from `config` that executes on `other`'s worker
    /// pool: one FIFO and one set of threads for both, while the memo
    /// cache, metrics and execution policy are this runtime's own.
    /// `config.workers` is ignored; [`Runtime::workers`] reports the
    /// shared pool's size.
    #[must_use]
    pub fn on_pool_of(other: &Runtime, config: RuntimeConfig) -> Runtime {
        Runtime {
            config,
            pool: Arc::clone(&other.pool),
            cache: Arc::new(ResultCache::with_capacity(config.cache_capacity)),
            metrics: Arc::new(RuntimeMetrics::new()),
        }
    }

    /// Shorthand: default config at an explicit worker count.
    #[must_use]
    pub fn with_workers(workers: usize) -> Runtime {
        Runtime::new(RuntimeConfig::default().with_workers(workers))
    }

    /// Worker threads in the pool.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The live counter block shared with every worker. The gateway
    /// layer (`bios-gateway`) records its admission/breaker/brownout
    /// decisions here so one [`MetricsSnapshot`] covers the whole
    /// intake-to-result pipeline.
    #[must_use]
    pub fn metrics_handle(&self) -> &RuntimeMetrics {
        &self.metrics
    }

    /// Point-in-time copy of the cumulative runtime counters, with the
    /// cache's eviction and corruption counts merged in.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snapshot = self.metrics.snapshot();
        snapshot.cache_evictions = self.cache.evictions();
        snapshot.cache_corrupt_dropped = self.cache.corrupt_dropped();
        snapshot
    }

    /// Runs the fleet across the worker pool and collects results by
    /// job index. Identical outcomes for identical seeds at any worker
    /// count; per-job failures land in the report instead of aborting
    /// the batch.
    #[must_use]
    pub fn run(&self, fleet: &Fleet) -> FleetReport {
        self.run_with_observer(fleet, |_| {})
    }

    /// [`Runtime::run`] with a completion observer: `on_result` fires
    /// once for every job, in completion order (arbitrary across
    /// chunks), before the result is surfaced in the report. The journal
    /// layer uses this as its write-ahead point — a result is durably
    /// journaled before the caller can see it.
    ///
    /// Workers hand results back in batches of up to [`RESULT_BATCH`],
    /// so the observer sees a job only once its batch arrives. A process
    /// that dies mid-run therefore loses at most one unsent batch per
    /// worker: those jobs were computed but never observed, and a resume
    /// re-executes them.
    pub(crate) fn run_with_observer(
        &self,
        fleet: &Fleet,
        mut on_result: impl FnMut(&JobResult),
    ) -> FleetReport {
        let started = Instant::now();
        // Self-healing pass: replace any worker that retired after
        // catching a panicking task (or absorbing a watchdog
        // cancellation) in an earlier run.
        let respawned = self.pool.heal();
        self.metrics.add(Counter::WorkerRespawns, respawned as u64);
        self.metrics.add(Counter::JobsSubmitted, fleet.len() as u64);
        // Arm the hang watchdog for the duration of the run; dropping
        // the handle at the end of this function stops the supervisor.
        let watchdog = (self.config.job_deadline > Duration::ZERO)
            .then(|| Watchdog::spawn(self.config.job_deadline));
        let registry = watchdog.as_ref().map(Watchdog::registry);
        let (tx, rx) = mpsc::channel::<Vec<JobResult>>();
        // Dispatch contiguous *chunks* of jobs rather than single jobs:
        // every boxed task holds a clone of the fleet's shared
        // `Arc<[Job]>` (a pointer, not a copy of the jobs) and walks its
        // index range, so the per-job dispatch cost (box, enqueue,
        // dequeue handoff) is amortized over the chunk. Several chunks
        // per worker keep the load balanced when job costs are uneven.
        // Each task sends its results back in batches of `RESULT_BATCH`
        // and at the end of its chunk, so the collector wakes once per
        // batch instead of once per job.
        let jobs = fleet.shared_jobs();
        let policy = ExecPolicy::from_config(&self.config);
        let chunk = chunk_size(jobs.len(), self.workers());
        let mut start = 0;
        while start < jobs.len() {
            let end = (start + chunk).min(jobs.len());
            let tx = tx.clone();
            let cache = self.config.cache.then(|| Arc::clone(&self.cache));
            let metrics = Arc::clone(&self.metrics);
            let jobs = Arc::clone(&jobs);
            let plan = fleet.fault_plan_arc();
            let registry = registry.clone();
            self.pool.execute_judged(move || {
                let mut absorbed_stall = false;
                let mut tally = JobTally::default();
                for batch in jobs[start..end].chunks(RESULT_BATCH) {
                    let results: Vec<JobResult> = batch
                        .iter()
                        .map(|job| {
                            execute_job(
                                job.index,
                                &job.entry,
                                job.seed,
                                plan.as_deref(),
                                cache.as_deref(),
                                registry.as_deref(),
                                &metrics,
                                &mut tally,
                                policy,
                            )
                        })
                        .collect();
                    absorbed_stall |= registry.is_some()
                        && results
                            .iter()
                            .any(|r| matches!(r.outcome, Err(JobError::Deadline)));
                    // Bill the batch before sending it, so every result
                    // the collector observes is already counted.
                    metrics.bill(&mut tally);
                    let _ = tx.send(results);
                }
                if absorbed_stall {
                    // The thread sat in a livelock until the watchdog
                    // cancelled it; finish the chunk (determinism), then
                    // retire so `heal` replaces it with a fresh thread.
                    metrics.add(Counter::StalledWorkers, 1);
                    TaskVerdict::Retire
                } else {
                    TaskVerdict::Continue
                }
            });
            start = end;
        }
        drop(tx);
        let mut slots: Vec<Option<JobResult>> = (0..fleet.len()).map(|_| None).collect();
        let mut received = 0usize;
        while received < fleet.len() {
            match rx.recv_timeout(Duration::from_millis(25)) {
                Ok(batch) => {
                    for result in batch {
                        on_result(&result);
                        let slot = result.index;
                        slots[slot] = Some(result);
                        received += 1;
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    // Workers retire mid-run on watchdog cancellations;
                    // if the whole pool has drained, heal it *now* so
                    // the queued chunks keep flowing instead of
                    // deadlocking the collection loop.
                    if self.pool.live_workers() == 0 {
                        let respawned = self.pool.heal();
                        self.metrics.add(Counter::WorkerRespawns, respawned as u64);
                        if respawned == 0 {
                            break; // OS refuses threads: report what we have
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        let results = fleet
            .jobs()
            .iter()
            .zip(slots)
            .map(|(job, slot)| {
                // A missing slot can only mean the worker died harder
                // than catch_unwind (e.g. stack overflow aborts).
                slot.unwrap_or_else(|| {
                    JobResult::worker_lost(job.index, job.entry.id().to_owned(), job.seed)
                })
            })
            .collect();
        FleetReport {
            workers: self.workers(),
            elapsed: started.elapsed(),
            results,
        }
    }

    /// Opens an incremental job stream over this runtime's pool — the
    /// submission surface for callers that discover jobs one at a time
    /// (a streaming gateway tick) instead of assembling a [`Fleet`] up
    /// front. Heals the pool first, exactly like a batch run.
    #[must_use]
    pub fn open_stream(&self) -> JobStream<'_> {
        let respawned = self.pool.heal();
        self.metrics.add(Counter::WorkerRespawns, respawned as u64);
        let (tx, rx) = mpsc::channel();
        JobStream {
            runtime: self,
            tx,
            rx,
            next_ticket: 0,
            outstanding: BTreeMap::new(),
        }
    }

    /// Runs the fleet on the calling thread, in job order — the parity
    /// reference for the concurrent path. Shares the same cache and
    /// metrics semantics as [`Runtime::run`].
    #[must_use]
    pub fn run_sequential(&self, fleet: &Fleet) -> FleetReport {
        let started = Instant::now();
        self.metrics.add(Counter::JobsSubmitted, fleet.len() as u64);
        let cache = self.config.cache.then_some(self.cache.as_ref());
        let policy = ExecPolicy::from_config(&self.config);
        let mut tally = JobTally::default();
        let results = fleet
            .jobs()
            .iter()
            .map(|job| {
                let result = execute_job(
                    job.index,
                    &job.entry,
                    job.seed,
                    fleet.fault_plan(),
                    cache,
                    None,
                    &self.metrics,
                    &mut tally,
                    policy,
                );
                self.metrics.bill(&mut tally);
                result
            })
            .collect();
        FleetReport {
            workers: 1,
            elapsed: started.elapsed(),
            results,
        }
    }
}

/// An incremental submission handle over a [`Runtime`]'s worker pool,
/// opened with [`Runtime::open_stream`]. Jobs go in one at a time via
/// [`JobStream::submit`] (each returns a monotonically increasing
/// *ticket*) and come back via [`JobStream::recv`] in whatever order
/// workers finish them, tagged with their ticket so the caller can
/// reorder deterministically.
///
/// Execution semantics are identical to the batch path: every job runs
/// through the same per-job pipeline (fault realization, stall check,
/// memo-cache probe, retry loop, non-finite quarantine), so a streamed
/// job's outcome is byte-identical to the same `(entry, seed, plan)`
/// run inside a [`Fleet`]. Streams never arm the hang watchdog: an
/// injected stall is rejected synchronously as the deterministic
/// [`JobError::Deadline`] instead of livelocking a worker.
#[derive(Debug)]
pub struct JobStream<'rt> {
    runtime: &'rt Runtime,
    tx: mpsc::Sender<(u64, JobResult)>,
    rx: mpsc::Receiver<(u64, JobResult)>,
    next_ticket: u64,
    /// Ticket → (sensor id, seed) for every submitted-but-uncollected
    /// job; `BTreeMap` so the oldest ticket is recoverable when a lost
    /// worker forces a synthesized failure.
    outstanding: BTreeMap<u64, (String, u64)>,
}

impl JobStream<'_> {
    /// Submits one job and returns its ticket. The entry and plan are
    /// cloned into the worker closure; the call never blocks. The job
    /// is billed to, memoized in and collected from the stream's
    /// runtime, whichever runtimes share its pool.
    pub fn submit(&mut self, entry: &CatalogEntry, seed: u64, plan: Option<&FaultPlan>) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.outstanding
            .insert(ticket, (entry.id().to_owned(), seed));
        self.runtime.metrics.add(Counter::JobsSubmitted, 1);
        let tx = self.tx.clone();
        let entry = entry.clone();
        let plan = plan.cloned();
        let cache = self
            .runtime
            .config
            .cache
            .then(|| Arc::clone(&self.runtime.cache));
        let metrics = Arc::clone(&self.runtime.metrics);
        let policy = ExecPolicy::from_config(&self.runtime.config);
        self.runtime.pool.execute(move || {
            let mut tally = JobTally::default();
            let result = execute_job(
                ticket as usize,
                &entry,
                seed,
                plan.as_ref(),
                cache.as_deref(),
                None,
                &metrics,
                &mut tally,
                policy,
            );
            metrics.bill(&mut tally);
            let _ = tx.send((ticket, result));
        });
        ticket
    }

    /// Blocks until the next outstanding job completes and returns its
    /// `(ticket, result)`; `None` when nothing is outstanding. Mirrors
    /// the batch collection loop's self-healing: if every worker has
    /// retired, the pool is healed so queued jobs keep flowing, and if
    /// the OS refuses new threads the oldest outstanding job is
    /// surfaced as the deterministic "worker lost" failure instead of
    /// blocking forever.
    pub fn recv(&mut self) -> Option<(u64, JobResult)> {
        loop {
            self.outstanding.keys().next()?;
            match self.rx.recv_timeout(Duration::from_millis(25)) {
                Ok((ticket, result)) => {
                    // A result whose ticket was already synthesized as
                    // lost (worker limped back) is dropped.
                    if self.outstanding.remove(&ticket).is_some() {
                        return Some((ticket, result));
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if self.runtime.pool.live_workers() == 0 {
                        let respawned = self.runtime.pool.heal();
                        self.runtime
                            .metrics
                            .add(Counter::WorkerRespawns, respawned as u64);
                        if respawned == 0 {
                            // OS refuses threads: fail the oldest job
                            // deterministically rather than hang.
                            let ticket = self.outstanding.keys().next().copied()?;
                            let (sensor, seed) = self.outstanding.remove(&ticket)?;
                            return Some((
                                ticket,
                                JobResult::worker_lost(ticket as usize, sensor, seed),
                            ));
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => return None,
            }
        }
    }
}

/// Results a chunk task collects before sending them to the collector
/// in one message (a chunk's last batch may be shorter). Larger batches
/// mean fewer channel sends and collector wake-ups; smaller ones bound
/// the work a crash throws away, since a worker's unsent batch was
/// never journaled and a resume re-executes it.
const RESULT_BATCH: usize = 64;

/// Jobs per dispatched chunk: aim for four chunks per worker so slow
/// jobs can't strand the batch behind one thread, but never less than
/// one job per chunk.
fn chunk_size(jobs: usize, workers: usize) -> usize {
    jobs.div_ceil((workers * 4).max(1)).max(1)
}

/// Runs one job: realize faults, stall check, cache probe, then the
/// attempt loop — simulate behind `catch_unwind`, retry transient
/// failures with deterministic backoff, memoize successes, meter
/// everything. Returns the result already sealed, so the integrity
/// stamp is taken on the thread that produced it, before the result
/// crosses any channel.
///
/// Rare events (faults, retries, rejections, quarantines) go straight
/// to `metrics`; the finish — completed or failed, hit or miss, wall
/// time — is counted in `tally`, which the caller bills.
///
/// Every branch here is a pure function of `(entry, seed, plan,
/// policy)` — never of the worker, the attempt wall-clock, or cache
/// state (the stall check runs *before* the cache probe so a loss
/// cannot depend on what happens to be memoized) — which is what keeps
/// fleet outcomes identical across worker counts even mid-chaos.
#[allow(clippy::too_many_arguments)]
fn execute_job(
    index: usize,
    entry: &CatalogEntry,
    seed: u64,
    plan: Option<&FaultPlan>,
    cache: Option<&ResultCache>,
    watch: Option<&WatchRegistry>,
    metrics: &RuntimeMetrics,
    tally: &mut JobTally,
    policy: ExecPolicy,
) -> JobResult {
    let t0 = Instant::now();
    // Realize this job's faults once, up front: realization depends
    // only on (plan, sensor id, job seed), so retries and reruns see
    // the exact same fault set. A plan that realizes nothing for this
    // job leaves the healthy path (and its cache slot) untouched.
    let faults = plan
        .map(|p| p.realize(entry.id(), seed))
        .filter(|f| !f.is_healthy());
    let injected = faults
        .as_ref()
        .map_or_else(FaultTally::default, |f| f.tally());
    metrics.add(Counter::FaultsInjected, injected.total() as u64);
    let physics_plan = faults.as_ref().and(plan);
    let mut finish = |outcome, from_cache, attempts| {
        let wall = t0.elapsed();
        tally.record(Result::is_ok(&outcome), from_cache, wall);
        JobResult {
            index,
            sensor: entry.id().to_owned(),
            seed,
            wall,
            from_cache,
            attempts,
            injected,
            outcome,
            integrity: 0,
        }
        .sealed()
    };

    // Injected busy-hang, before the cache probe, so the verdict is a
    // pure function of the job. With a watchdog armed the job *really*
    // livelocks in solver code until the supervisor cancels it; without
    // one it is rejected synchronously.
    // Either way the rendered loss is the identical `Deadline` error, so
    // digests match across worker counts, watchdog settings, and the
    // sequential path.
    if faults.as_ref().is_some_and(|f| f.stall_job) {
        if let Some(registry) = watch {
            let token = registry.begin(index);
            simulate_stall(policy.job_deadline, token.as_ref());
            registry.end(index);
        }
        metrics.add(Counter::DeadlineKills, 1);
        return finish(Err(JobError::Deadline), false, 1);
    }

    // The probe borrows the key's parts; the owned key is built only
    // on a miss, for the insert.
    let memo = cache.map(|cache| {
        let plan = physics_plan.map_or(0, FaultPlan::fingerprint);
        (cache, entry.protocol_fingerprint(), plan)
    });
    if let Some((cache, protocol, plan)) = memo {
        if let Some(hit) = cache.probe(entry.id(), protocol, plan, seed) {
            return finish(Ok(hit), true, 0);
        }
    }

    let mut attempt: u32 = 1;
    let outcome = loop {
        let transient_quota = faults.as_ref().map_or(0, |f| f.transient_failures);
        let attempt_result: Result<_, JobError> = if attempt <= transient_quota {
            // Injected transient glitch: fail before touching the
            // physics, deterministically for the first N attempts.
            Err(JobError::Transient {
                message: format!("injected transient glitch ({attempt}/{transient_quota})"),
                attempts: attempt,
            })
        } else {
            catch_unwind(AssertUnwindSafe(|| {
                if faults.as_ref().is_some_and(|f| f.panic_job) {
                    // bios-audit: allow(P-panic) — deliberate injected fault, contained by catch_unwind
                    panic!("injected worker panic (fault plan)");
                }
                entry.run_calibration_with(seed, physics_plan)
            }))
            .map_err(|payload| JobError::Panicked(panic_message(&payload)))
            .and_then(|r| r.map_err(JobError::Calibration))
        };
        match attempt_result {
            Ok(outcome) => break Ok(outcome),
            Err(error) if error.is_transient() && attempt < MAX_ATTEMPTS => {
                metrics.add(Counter::Retries, 1);
                let backoff = policy.backoff_after(attempt);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
                attempt += 1;
            }
            Err(error) => break Err(error),
        }
    };
    // Past the finiteness gate, which reads the full curve, every path
    // keeps the summary-only form: the cache strips the points in
    // `insert`, the uncached branch here.
    let outcome = outcome
        .and_then(|outcome| quarantine_nonfinite(outcome, metrics))
        .map(|outcome| match memo {
            Some((cache, protocol, plan)) => {
                let sensor = entry.id().to_owned();
                cache.insert(
                    CacheKey {
                        sensor,
                        protocol,
                        plan,
                        seed,
                    },
                    outcome,
                )
            }
            None => Arc::new(outcome.summary_only()),
        });
    finish(outcome, false, attempt)
}

/// NaN/±Inf guardrail: a non-finite outcome is quarantined as
/// [`JobError::NonFinite`] (and counted) *before* it can reach the
/// cache or a run journal — a poisoned figure of merit served from the
/// cache would silently corrupt every later run that hits it.
fn quarantine_nonfinite(
    outcome: CalibrationOutcome,
    metrics: &RuntimeMetrics,
) -> Result<CalibrationOutcome, JobError> {
    if outcome_is_finite(&outcome) {
        Ok(outcome)
    } else {
        metrics.add(Counter::NonfiniteQuarantined, 1);
        Err(JobError::NonFinite)
    }
}

/// A real livelock for the `WorkerStall` fault: spin a small diffusion
/// solver until the watchdog trips the cancellation token through its
/// cooperative checkpoints. A hard cap bounds the hang even if the
/// supervisor dies, so a stalled fleet can never wedge forever.
fn simulate_stall(deadline: Duration, token: &AtomicBool) {
    let hard_cap = deadline.saturating_mul(20).max(Duration::from_secs(2));
    let t0 = Instant::now();
    let Ok(mut grid) = DiffusionGrid::new(
        DiffusionCoefficient::from_square_cm_per_second(6.7e-6),
        Molar::from_milli_molar(1.0),
        0.05,
        64,
    ) else {
        return; // cannot build the spin loop: degrade to an instant loss
    };
    while t0.elapsed() < hard_cap {
        // ~6400 explicit steps per call, polling the token every 64.
        if grid
            .advance_checked(
                Seconds::from_millis(64.0),
                Seconds::from_millis(0.01),
                token,
            )
            .is_err()
        {
            return; // cancelled by the watchdog
        }
    }
}

/// Whether every figure of merit and every raw curve value in an
/// outcome is finite — the gate between solver output and the
/// cache/journal layer.
fn outcome_is_finite(outcome: &CalibrationOutcome) -> bool {
    let s = &outcome.summary;
    let summary_finite = s
        .sensitivity
        .as_micro_amps_per_milli_molar_square_cm()
        .is_finite()
        && s.linear_range.low().as_molar().is_finite()
        && s.linear_range.high().as_molar().is_finite()
        && s.detection_limit.as_molar().is_finite()
        && s.r_squared.is_finite();
    let curve = &outcome.curve;
    summary_finite
        && curve.electrode_area().as_square_cm().is_finite()
        && curve.blank_sigma().as_amps().is_finite()
        && curve.points().iter().all(|p| {
            p.concentration().as_molar().is_finite()
                && p.replicates().iter().all(|i| i.as_amps().is_finite())
        })
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_owned())
}

#[cfg(test)]
mod tests {
    use bios_core::catalog;

    use super::*;

    #[test]
    fn concurrent_matches_sequential() {
        let fleet = Fleet::builder("parity")
            .sensors(catalog::cyp_sensors())
            .seeds([7, 8])
            .build();
        let concurrent = Runtime::with_workers(4).run(&fleet);
        let sequential = Runtime::with_workers(1).run_sequential(&fleet);
        assert_eq!(concurrent.summaries_digest(), sequential.summaries_digest());
    }

    #[test]
    fn cache_serves_repeat_runs() {
        let runtime = Runtime::with_workers(2);
        let fleet = Fleet::builder("repeat")
            .sensors(catalog::glucose_sensors())
            .seed(42)
            .build();
        let first = runtime.run(&fleet);
        assert_eq!(first.cache_hits(), 0);
        let second = runtime.run(&fleet);
        assert_eq!(second.cache_hits(), fleet.len());
        assert_eq!(first.summaries_digest(), second.summaries_digest());
        let m = runtime.metrics();
        assert_eq!(m.cache_hits, fleet.len() as u64);
        assert_eq!(m.jobs_submitted, 2 * fleet.len() as u64);
    }

    #[test]
    fn cache_can_be_disabled() {
        let runtime = Runtime::new(RuntimeConfig::default().with_workers(2).with_cache(false));
        let fleet = Fleet::builder("uncached")
            .sensor(catalog::our_glucose_sensor())
            .seed(1)
            .build();
        let _ = runtime.run(&fleet);
        let second = runtime.run(&fleet);
        assert_eq!(second.cache_hits(), 0);
        assert_eq!(runtime.cache.len(), 0);
    }

    #[test]
    fn different_seeds_do_not_alias_in_cache() {
        let runtime = Runtime::with_workers(2);
        let fleet = Fleet::builder("seeds")
            .sensor(catalog::our_lactate_sensor())
            .seeds([1, 2])
            .build();
        let report = runtime.run(&fleet);
        let a = report.outcome("lactate/ours", 1).unwrap();
        let b = report.outcome("lactate/ours", 2).unwrap();
        assert_ne!(a.summary.sensitivity, b.summary.sensitivity);
    }

    #[test]
    fn fleet_clones_and_runs_share_one_job_allocation() {
        let fleet = Fleet::builder("shared")
            .sensors(catalog::cyp_sensors())
            .seeds([1, 2])
            .build();
        let copy = fleet.clone();
        let jobs = fleet.shared_jobs();
        assert!(Arc::ptr_eq(&jobs, &copy.shared_jobs()));
        // Three handles here (fleet, copy, `jobs`); a run that hands the
        // same allocation to its workers holds at least one more while
        // it collects. A run working on a copy would leave three.
        let mut in_flight = 0;
        let report = Runtime::with_workers(1).run_with_observer(&copy, |_| {
            in_flight = in_flight.max(Arc::strong_count(&jobs));
        });
        assert_eq!(report.results.len(), fleet.len());
        assert!(
            in_flight >= 4,
            "the run copied the jobs ({in_flight} handles)"
        );
    }

    /// All of Table 2 under a transient/panic/denaturation plan, at 30
    /// seeds: 540 jobs, so every chunk spans more than one result batch
    /// at 1 and 2 workers.
    fn batched_fleet() -> Fleet {
        use bios_faults::FaultKind;
        let plan = FaultPlan::builder("batch-billing", 0xB111)
            .spec(FaultKind::TransientGlitch, 0.6, 0.4)
            .spec(FaultKind::WorkerPanic, 0.2, 1.0)
            .spec(FaultKind::FilmDenaturation, 0.5, 0.6)
            .build();
        let fleet = Fleet::builder("batch-billing")
            .sensors(catalog::all_table2())
            .seeds(0..30)
            .fault_plan(plan)
            .build();
        assert!(chunk_size(fleet.len(), 2) > RESULT_BATCH);
        fleet
    }

    fn batch_runtime(workers: usize) -> Runtime {
        Runtime::new(
            RuntimeConfig::default()
                .with_workers(workers)
                .with_retry_backoff(Duration::from_micros(10)),
        )
    }

    #[test]
    fn per_batch_billing_matches_per_job_billing() {
        let fleet = batched_fleet();
        let path = std::env::temp_dir().join(format!(
            "bios-runtime-batch-billing-{}.journal",
            std::process::id()
        ));
        // Two passes each: the second serves every success from cache.
        let snapshots: Vec<MetricsSnapshot> = ["run@1", "run@2", "journaled@2", "sequential"]
            .into_iter()
            .map(|layout| {
                let runtime = batch_runtime(if layout.ends_with("@2") { 2 } else { 1 });
                let run = || match layout {
                    "journaled@2" => runtime.run_journaled(&fleet, &path).expect("journaled"),
                    "sequential" => runtime.run_sequential(&fleet),
                    _ => runtime.run(&fleet),
                };
                let (first, second) = (run(), run());
                let m = runtime.metrics();
                let jobs = 2 * fleet.len() as u64;
                let failed = first.failures().count() + second.failures().count();
                assert_eq!(m.jobs_completed + m.jobs_failed, jobs, "{layout}");
                assert_eq!(m.jobs_failed, failed as u64, "{layout}");
                assert_eq!(m.cache_hits, second.cache_hits() as u64, "{layout}");
                assert_eq!(m.cache_hits + m.cache_misses, jobs, "{layout}");
                m
            })
            .collect();
        let _ = std::fs::remove_file(&path);
        let billed = |m: &MetricsSnapshot| {
            (
                m.jobs_completed,
                m.jobs_failed,
                m.cache_hits,
                m.cache_misses,
            )
        };
        let reference = billed(&snapshots[0]);
        assert!(reference.1 > 0 && reference.2 > 0, "{reference:?}");
        for m in &snapshots {
            assert_eq!(billed(m), reference);
        }
    }

    #[test]
    fn every_observed_result_is_already_billed() {
        // The observer is where `run_journaled` appends each record.
        let fleet = batched_fleet();
        let runtime = batch_runtime(2);
        let mut observed = 0u64;
        let report = runtime.run_with_observer(&fleet, |_| {
            observed += 1;
            let m = runtime.metrics.snapshot();
            assert!(
                m.jobs_completed + m.jobs_failed >= observed,
                "{observed} observed, {} billed",
                m.jobs_completed + m.jobs_failed
            );
        });
        assert_eq!(observed, fleet.len() as u64);
        assert_eq!(report.results.len(), fleet.len());
    }

    #[test]
    fn nan_replicate_or_area_is_quarantined_before_the_points_drop() {
        use bios_analytics::{CalibrationCurve, CalibrationPoint};
        use bios_units::{Amperes, SquareCm};
        let honest = catalog::our_glucose_sensor().run_calibration(7).unwrap();
        let (area, sigma) = (honest.curve.electrode_area(), honest.curve.blank_sigma());
        // The summary stays finite; only one raw value is poisoned.
        let with_curve = |curve| CalibrationOutcome {
            curve,
            ..honest.clone()
        };
        let points: Vec<CalibrationPoint> = honest
            .curve
            .points()
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut replicates = p.replicates().to_vec();
                if i == 3 {
                    replicates[1] = Amperes::from_amps(f64::NAN);
                }
                CalibrationPoint::new(p.concentration(), replicates)
            })
            .collect();
        let nan_replicate = with_curve(CalibrationCurve::new(points, area, sigma));
        let nan_area = with_curve(CalibrationCurve::new(
            honest.curve.points().to_vec(),
            SquareCm::from_square_cm(f64::NAN),
            sigma,
        ));
        let metrics = RuntimeMetrics::new();
        for poisoned in [nan_replicate.clone(), nan_area] {
            assert!(matches!(
                quarantine_nonfinite(poisoned, &metrics),
                Err(JobError::NonFinite)
            ));
        }
        // Stripped first, the NaN replicate would pass: the gate must
        // see the full curve.
        assert!(quarantine_nonfinite(nan_replicate.summary_only(), &metrics).is_ok());
        assert!(quarantine_nonfinite(honest, &metrics).is_ok());
        assert_eq!(metrics.snapshot().nonfinite_quarantined, 2);
    }

    #[test]
    fn results_and_residents_are_summary_only_with_or_without_cache() {
        use bios_faults::FaultKind;
        let plan = FaultPlan::builder("summary-only", 3)
            .spec(FaultKind::FilmDenaturation, 0.5, 0.6)
            .build();
        let fleet = Fleet::builder("summary-only")
            .sensors(catalog::glucose_sensors())
            .seeds([1, 2])
            .fault_plan(plan.clone())
            .build();
        let bits = |o: &CalibrationOutcome| {
            (
                cache::summary_bits(&o.summary),
                o.curve.electrode_area().as_square_cm().to_bits(),
                o.curve.blank_sigma().as_amps().to_bits(),
            )
        };
        for cached in [true, false] {
            let runtime = Runtime::new(RuntimeConfig::default().with_workers(2).with_cache(cached));
            let report = runtime.run(&fleet);
            let mut faulted = 0;
            for job in fleet.jobs() {
                let expected = job
                    .entry
                    .run_calibration_with(job.seed, Some(&plan))
                    .unwrap();
                assert!(!expected.curve.points().is_empty());
                let healthy = plan.realize(job.entry.id(), job.seed).is_healthy();
                faulted += usize::from(!healthy);
                let served = report.results[job.index].outcome.as_ref().unwrap();
                let mut shapes = vec![Arc::clone(served)];
                if cached {
                    let key = CacheKey {
                        sensor: job.entry.id().to_owned(),
                        protocol: job.entry.protocol_fingerprint(),
                        plan: if healthy { 0 } else { plan.fingerprint() },
                        seed: job.seed,
                    };
                    shapes.push(runtime.cache.get(&key).expect("resident"));
                }
                for shape in shapes {
                    let at = (job.entry.id(), job.seed, cached);
                    assert!(shape.curve.points().is_empty(), "{at:?} kept points");
                    assert_eq!(bits(&shape), bits(&expected), "{at:?}");
                }
            }
            assert!(0 < faulted && faulted < fleet.len(), "{faulted} faulted");
            let resident = if cached { fleet.len() } else { 0 };
            assert_eq!(runtime.cache.len(), resident);
        }
    }

    #[test]
    fn empty_fleet_reports_empty() {
        let report = Runtime::with_workers(2).run(&Fleet::builder("empty").build());
        assert!(report.results.is_empty());
    }

    #[test]
    fn stream_matches_batch_outcomes() {
        let fleet = Fleet::builder("stream-parity")
            .sensors(catalog::cyp_sensors())
            .seeds([7, 8])
            .build();
        let batch = Runtime::with_workers(4).run(&fleet);
        let runtime = Runtime::with_workers(2);
        let mut stream = runtime.open_stream();
        for job in fleet.jobs() {
            let ticket = stream.submit(&job.entry, job.seed, None);
            assert_eq!(ticket as usize, job.index);
        }
        let mut slots: Vec<Option<JobResult>> = (0..fleet.len()).map(|_| None).collect();
        while let Some((ticket, result)) = stream.recv() {
            slots[ticket as usize] = Some(result);
        }
        assert!(stream.recv().is_none());
        for (job, slot) in fleet.jobs().iter().zip(&slots) {
            let streamed = slot.as_ref().unwrap();
            assert_eq!(streamed.sensor, job.entry.id());
            assert_eq!(streamed.seed, job.seed);
            let batched = &batch.results[job.index];
            let (Ok(a), Ok(b)) = (&streamed.outcome, &batched.outcome) else {
                panic!("both paths should calibrate {}", job.entry.id());
            };
            assert_eq!(format!("{:?}", a.summary), format!("{:?}", b.summary));
        }
    }

    #[test]
    fn stream_applies_fault_plans_like_batch() {
        use bios_faults::{FaultKind, FaultPlan};
        let plan = FaultPlan::builder("stream-faults", 9)
            .spec(FaultKind::FilmDenaturation, 1.0, 0.8)
            .build();
        let fleet = Fleet::builder("stream-faults")
            .sensor(catalog::our_glucose_sensor())
            .seed(5)
            .fault_plan(plan.clone())
            .build();
        let batch = Runtime::with_workers(2).run(&fleet);
        let runtime = Runtime::with_workers(2);
        let mut stream = runtime.open_stream();
        stream.submit(&fleet.jobs()[0].entry, 5, Some(&plan));
        let (_, streamed) = stream.recv().unwrap();
        assert_eq!(streamed.injected, batch.results[0].injected);
        let (Ok(a), Ok(b)) = (&streamed.outcome, &batch.results[0].outcome) else {
            panic!("denatured-film calibration should still converge");
        };
        assert_eq!(format!("{:?}", a.summary), format!("{:?}", b.summary));
    }

    #[test]
    fn shared_pool_stream_bills_and_memoizes_its_own_runtime() {
        let entry = catalog::our_glucose_sensor();
        let a = Runtime::with_workers(2);
        let b = Runtime::on_pool_of(&a, RuntimeConfig::default().with_workers(7));
        assert_eq!(b.workers(), 2, "b runs on a's pool, not a pool of its own");
        let mut stream = a.open_stream();
        stream.submit(&entry, 6, None);
        let (_, first) = stream.recv().unwrap();
        assert!(first.outcome.is_ok(), "the job should calibrate");
        // Billed to and memoized in the submitting runtime only.
        assert_eq!(a.metrics().jobs_submitted, 1);
        assert_eq!(b.metrics().jobs_submitted, 0);
        assert_eq!(a.cache.len(), 1);
        assert_eq!(b.cache.len(), 0);
        // The same (entry, seed) computed afresh through b's stream on
        // the same pool is byte-identical, and a's rerun is a memo hit.
        let mut other = b.open_stream();
        other.submit(&entry, 6, None);
        let (_, fresh) = other.recv().unwrap();
        assert!(!fresh.from_cache);
        stream.submit(&entry, 6, None);
        let (_, rerun) = stream.recv().unwrap();
        assert!(rerun.from_cache, "the first run must fill a's cache");
        assert_eq!(first.digest_line(), fresh.digest_line());
        assert_eq!(first.digest_line(), rerun.digest_line());
        assert_eq!(a.metrics().jobs_submitted, 2);
        assert_eq!(b.metrics().jobs_submitted, 1);
    }

    #[test]
    fn from_env_rejects_zero_cache_cap_and_zero_workers() {
        // `from_env` is the only reader of BIOS_CACHE_CAP and
        // BIOS_WORKERS, and the other env test asserts only that the
        // worker count is positive, so mutating these two variables is
        // race-free.
        std::env::set_var("BIOS_CACHE_CAP", "0");
        assert_eq!(RuntimeConfig::from_env().cache_capacity, DEFAULT_CAPACITY);
        std::env::set_var("BIOS_CACHE_CAP", "512");
        assert_eq!(RuntimeConfig::from_env().cache_capacity, 512);
        std::env::remove_var("BIOS_CACHE_CAP");
        std::env::set_var("BIOS_WORKERS", "0");
        assert_eq!(
            RuntimeConfig::from_env().workers,
            WorkerPool::default_workers()
        );
        std::env::set_var("BIOS_WORKERS", "3");
        assert_eq!(RuntimeConfig::from_env().workers, 3);
        std::env::remove_var("BIOS_WORKERS");
    }

    #[test]
    fn parse_env_value_warns_and_keeps_default_on_garbage() {
        // Well-formed values parse...
        assert_eq!(parse_env_value::<usize>("BIOS_WORKERS", "4", "n"), Some(4));
        assert_eq!(
            parse_env_value::<u64>("BIOS_JOB_DEADLINE_MS", "250", "milliseconds"),
            Some(250)
        );
        // ...and every malformed shape yields None (plus one warning
        // line on stderr) instead of a silent skip or a panic.
        for bad in ["", "abc", "-3", "4.5", "1e3", " 8"] {
            assert_eq!(
                parse_env_value::<u64>("BIOS_CACHE_CAP", bad, "a positive integer"),
                None,
                "{bad:?} should not parse"
            );
        }
    }
}
