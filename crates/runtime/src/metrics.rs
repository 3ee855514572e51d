//! Run metrics: lock-free atomic counters.
//!
//! The runtime keeps its observability surface deliberately light —
//! atomic counters on the job path, and no per-job timing beyond the
//! summed busy time — so metering never perturbs the throughput it
//! measures.
//!
//! A finished job drives three counters (completed or failed, hit or
//! miss, busy time), so the job path counts it in a plain `JobTally`
//! and bills the tally in one step. Fleet runs bill once per result
//! batch, before the batch is sent to the collector: a snapshot taken
//! mid-run may lag results that are computed but not yet sent, never
//! results already delivered. Streams and sequential runs bill per job.
//! End-of-run snapshots are the same either way.
//!
//! Every counter is declared once, as one row of the `counters!` table
//! below. The row generates the [`Counter`] variant, its atomic slot in
//! [`RuntimeMetrics`], and the [`MetricsSnapshot`] field.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Generates [`Counter`], the [`MetricsSnapshot`] fields and the
/// snapshot loads from one table. A row is `field: Variant` for a counter the runtime bumps
/// through [`RuntimeMetrics::add`], or a bare `field` for a count the
/// [`crate::ResultCache`] owns: that one reads 0 in a raw
/// [`RuntimeMetrics::snapshot`] and [`crate::Runtime::metrics`] merges
/// it in. Row order is field order.
macro_rules! counters {
    ($( $(#[doc = $doc:literal])+ $field:ident $(: $variant:ident)?, )*) => {
        /// One runtime counter, named after the [`MetricsSnapshot`]
        /// field it fills; an index into [`RuntimeMetrics`]'s array.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $($(
                #[doc = concat!("Fills [`MetricsSnapshot::", stringify!($field), "`].")]
                $variant,
            )?)*
        }

        const COUNTERS: usize = [$($(stringify!($variant),)?)*].len();

        #[cfg(test)]
        impl Counter {
            /// Every counter, in table order.
            const ALL: [Counter; COUNTERS] = [$($(Counter::$variant,)?)*];
        }

        /// A point-in-time copy of the runtime counters.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $( $(#[doc = $doc])+ pub $field: u64, )*
        }

        impl RuntimeMetrics {
            /// A consistent-enough point-in-time copy of every counter.
            /// The cache-owned counts read 0 here; the runtime merges
            /// them in when it assembles a snapshot.
            #[must_use]
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $( $field: 0 $(+ self.load(Counter::$variant))?, )*
                }
            }
        }

        #[cfg(test)]
        impl MetricsSnapshot {
            /// The snapshot field counter `c` fills.
            fn get(&self, c: Counter) -> u64 {
                match c {
                    $($(Counter::$variant => self.$field,)?)*
                }
            }
        }
    };
}

counters! {
    /// Jobs handed to the pool since runtime creation.
    jobs_submitted: JobsSubmitted,
    /// Jobs finished successfully.
    jobs_completed: JobsCompleted,
    /// Jobs finished with a per-job error.
    jobs_failed: JobsFailed,
    /// Jobs served from the memo cache.
    cache_hits: CacheHits,
    /// Jobs that had to run the simulation.
    cache_misses: CacheMisses,
    /// Total worker-side busy time, microseconds.
    busy_micros: BusyMicros,
    /// Transient-failure retries performed.
    retries: Retries,
    /// Individual faults injected by armed plans, across all jobs.
    faults_injected: FaultsInjected,
    /// Dead workers replaced by the pool's healing pass.
    worker_respawns: WorkerRespawns,
    /// Memo-cache entries evicted by the capacity bound (cache-owned:
    /// merged in by [`crate::Runtime::metrics`], 0 in a raw snapshot).
    cache_evictions,
    /// Records durably appended to run journals (headers, job
    /// completions, and seals).
    journal_records: JournalRecords,
    /// Journals retired mid-run after IO failed past its retry budget;
    /// the fleet completed non-durably (metered graceful degradation).
    journal_lost: JournalLost,
    /// Transient journal-IO retries absorbed by bounded deterministic
    /// backoff before the write eventually succeeded or gave up.
    journal_retries: JournalRetries,
    /// Jobs skipped on resume because the journal already held their
    /// completed results.
    resumed_jobs: ResumedJobs,
    /// Workers retired by the watchdog after going silent past the
    /// job deadline.
    stalled_workers: StalledWorkers,
    /// Jobs cancelled at their soft deadline.
    deadline_kills: DeadlineKills,
    /// Resident cache entries that failed their integrity checksum at
    /// serve time and were dropped, never served (cache-owned, like
    /// `cache_evictions`).
    cache_corrupt_dropped,
    /// Jobs quarantined for producing NaN/±Inf results.
    nonfinite_quarantined: NonfiniteQuarantined,
    /// Gateway requests refused because the bounded admission queue
    /// was full.
    admission_rejected: AdmissionRejected,
    /// Gateway requests refused by a tenant's token bucket.
    rate_limited: RateLimited,
    /// Circuit-breaker trips (closed→open and a probe failure
    /// re-opening a half-open breaker both count).
    breaker_trips: BreakerTrips,
    /// Requests admitted as half-open breaker probes.
    breaker_half_open_probes: BreakerHalfOpenProbes,
    /// Requests served at degraded resolution by the brownout policy.
    browned_out: BrownedOut,
    /// Requests shed because their remaining deadline budget could no
    /// longer cover even a degraded execution.
    deadline_shed: DeadlineShed,
    /// Redundant-execution votes completed by the quorum layer.
    quorum_votes: QuorumVotes,
    /// Votes whose replica lanes disagreed beyond tolerance.
    disagreements: Disagreements,
    /// Silently-corrupted replica observations caught by a vote or an
    /// integrity-checksum hop.
    corruption_caught: CorruptionCaught,
    /// Suspect lanes/shards quarantined after repeated lost votes.
    suspects_quarantined: SuspectsQuarantined,
}

/// Shared, lock-free counters updated by every worker.
#[derive(Debug)]
pub struct RuntimeMetrics {
    counts: [AtomicU64; COUNTERS],
}

impl Default for RuntimeMetrics {
    fn default() -> RuntimeMetrics {
        RuntimeMetrics {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl RuntimeMetrics {
    /// Fresh, all-zero metrics.
    #[must_use]
    pub fn new() -> RuntimeMetrics {
        RuntimeMetrics::default()
    }

    /// Adds `n` to counter `c`; `n == 0` touches nothing.
    pub fn add(&self, c: Counter, n: u64) {
        if n > 0 {
            self.counts[c as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    fn load(&self, c: Counter) -> u64 {
        self.counts[c as usize].load(Ordering::Relaxed)
    }

    /// Adds everything `tally` counted and empties it.
    pub(crate) fn bill(&self, tally: &mut JobTally) {
        let tally = std::mem::take(tally);
        self.add(Counter::JobsCompleted, tally.completed);
        self.add(Counter::JobsFailed, tally.failed);
        self.add(Counter::CacheHits, tally.hits);
        self.add(Counter::CacheMisses, tally.misses);
        self.add(Counter::BusyMicros, tally.busy_micros);
    }
}

/// What finished jobs add to [`RuntimeMetrics`], counted in plain
/// integers by one thread and billed in one step with
/// [`RuntimeMetrics::bill`]. A fleet's chunk task bills once per result
/// batch instead of making several atomic writes per job.
#[derive(Debug, Default)]
pub(crate) struct JobTally {
    completed: u64,
    failed: u64,
    hits: u64,
    misses: u64,
    busy_micros: u64,
}

impl JobTally {
    /// Counts one finished job: success/failure, cache disposition, and
    /// its wall time (added to the busy time).
    pub(crate) fn record(&mut self, ok: bool, from_cache: bool, wall: Duration) {
        if ok {
            self.completed += 1;
        } else {
            self.failed += 1;
        }
        if from_cache {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        let micros = u64::try_from(wall.as_micros()).unwrap_or(u64::MAX);
        self.busy_micros = self.busy_micros.saturating_add(micros);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = RuntimeMetrics::new();
        m.add(Counter::JobsSubmitted, 3);
        let mut tally = JobTally::default();
        tally.record(true, false, Duration::from_micros(100));
        tally.record(true, true, Duration::from_micros(10));
        tally.record(false, false, Duration::from_micros(1000));
        m.bill(&mut tally);
        let s = m.snapshot();
        assert_eq!(s.jobs_submitted, 3);
        assert_eq!(s.jobs_completed, 2);
        assert_eq!(s.jobs_failed, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 2);
        assert_eq!(s.busy_micros, 1110);
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = RuntimeMetrics::new().snapshot();
        assert!(Counter::ALL.iter().all(|&c| s.get(c) == 0));
        assert_eq!(s.cache_evictions, 0);
        assert_eq!(s.cache_corrupt_dropped, 0);
    }

    /// `JournalLost` → `journal_lost`: the name a row's variant must
    /// carry for the field it fills.
    fn snake_case(camel: &str) -> String {
        let mut out = String::new();
        for ch in camel.chars() {
            if ch.is_ascii_uppercase() && !out.is_empty() {
                out.push('_');
            }
            out.push(ch.to_ascii_lowercase());
        }
        out
    }

    #[test]
    fn every_counter_fills_its_own_field() {
        let m = RuntimeMetrics::new();
        let value = |i: usize| 101 + i as u64;
        for (i, &c) in Counter::ALL.iter().enumerate() {
            m.add(c, value(i));
            m.add(c, 0); // no-op
        }
        let mut s = m.snapshot();
        // Cache-owned rows stay 0 in a raw snapshot, whatever was added.
        assert_eq!((s.cache_evictions, s.cache_corrupt_dropped), (0, 0));
        s.cache_evictions = 7;
        s.cache_corrupt_dropped = 8;
        // The derived `Debug` prints `field: value`, so the field a
        // variant fills must carry the variant's snake-case name.
        let debug = format!("{s:?}");
        for (i, &c) in Counter::ALL.iter().enumerate() {
            let field = snake_case(&format!("{c:?}"));
            assert_eq!(s.get(c), value(i), "{field}");
            assert!(
                debug.contains(&format!(" {field}: {}", value(i))),
                "{field} in {debug}"
            );
        }
        assert_eq!(s.jobs_submitted, value(0));
        assert_eq!(s.suspects_quarantined, value(Counter::ALL.len() - 1));
        assert!(debug.contains(" cache_evictions: 7,"));
        assert!(debug.contains(" cache_corrupt_dropped: 8,"));
    }
}
