//! Run metrics: atomic counters and a wall-time histogram.
//!
//! The runtime keeps its observability surface deliberately light —
//! lock-free atomic counters on the job path and a fixed-bucket
//! log₂-spaced histogram of per-job wall times — so metering never
//! perturbs the throughput it measures. Snapshots serialize to JSON by
//! hand (the platform carries no serialization dependency).
//!
//! A finished job drives four counters and the histogram, so the job
//! path counts it in a plain `JobTally` and bills the tally in one
//! step. Fleet runs bill once per result batch, before the batch is
//! sent to the collector: a snapshot taken mid-run may lag results that
//! are computed but not yet sent, never results already delivered.
//! Streams and sequential runs bill per job. End-of-run snapshots are
//! the same either way.
//!
//! Every counter is declared once, as one row of the `counters!` table
//! below. The row generates the [`Counter`] variant, its atomic slot in
//! [`RuntimeMetrics`], the [`MetricsSnapshot`] field, and the JSON key.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Histogram buckets: bucket `i` counts jobs with wall time in
/// `[2^i, 2^(i+1))` microseconds; the last bucket is unbounded.
pub const HISTOGRAM_BUCKETS: usize = 24;

/// Generates [`Counter`], the [`MetricsSnapshot`] fields, the snapshot
/// loads, and the counter keys of [`MetricsSnapshot::to_json`] from one
/// table. A row is `field: Variant` for a counter the runtime bumps
/// through [`RuntimeMetrics::add`], or a bare `field` for a count the
/// [`crate::ResultCache`] owns: that one reads 0 in a raw
/// [`RuntimeMetrics::snapshot`] and [`crate::Runtime::metrics`] merges
/// it in. Row order is field order and JSON key order.
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
            /// Per-job wall-time histogram (log₂ µs buckets).
            pub histogram: [u64; HISTOGRAM_BUCKETS],
        }

        impl RuntimeMetrics {
            /// A consistent-enough point-in-time copy of every counter.
            /// The cache-owned counts read 0 here; the runtime merges
            /// them in when it assembles a snapshot.
            #[must_use]
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $( $field: 0 $(+ self.load(Counter::$variant))?, )*
                    histogram: std::array::from_fn(|i| self.histogram[i].load(Ordering::Relaxed)),
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

        impl MetricsSnapshot {
            /// Appends `"<field>":<value>,` for every row, in table order.
            fn write_counters(&self, json: &mut String) {
                $( let _ = write!(json, "\"{}\":{},", stringify!($field), self.$field); )*
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
    /// Jobs rejected by the per-job sample budget.
    budget_rejections: BudgetRejections,
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
    histogram: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for RuntimeMetrics {
    fn default() -> RuntimeMetrics {
        RuntimeMetrics {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            histogram: std::array::from_fn(|_| AtomicU64::new(0)),
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

    /// Records one finished job: success/failure, cache disposition,
    /// and its wall time.
    pub fn record_finished(&self, ok: bool, from_cache: bool, wall: Duration) {
        let mut tally = JobTally::default();
        tally.record(ok, from_cache, wall);
        self.bill(&mut tally);
    }

    /// Adds everything `tally` counted and empties it.
    pub(crate) fn bill(&self, tally: &mut JobTally) {
        let tally = std::mem::take(tally);
        self.add(Counter::JobsCompleted, tally.completed);
        self.add(Counter::JobsFailed, tally.failed);
        self.add(Counter::CacheHits, tally.hits);
        self.add(Counter::CacheMisses, tally.misses);
        self.add(Counter::BusyMicros, tally.busy_micros);
        for (slot, n) in self.histogram.iter().zip(tally.histogram) {
            if n > 0 {
                slot.fetch_add(n, Ordering::Relaxed);
            }
        }
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
    histogram: [u64; HISTOGRAM_BUCKETS],
}

impl JobTally {
    /// Counts one finished job: success/failure, cache disposition, and
    /// its wall time.
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
        let bucket = (63 - micros.max(1).leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.histogram[bucket] += 1;
    }
}

impl MetricsSnapshot {
    /// Fraction of finished jobs served from cache, in `[0, 1]`;
    /// zero when nothing has finished.
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Approximate wall-time quantile (e.g. `0.5`, `0.99`) from the
    /// histogram, reported as the upper edge of the containing bucket
    /// in microseconds. Zero when the histogram is empty.
    #[must_use]
    pub fn wall_quantile_micros(&self, q: f64) -> u64 {
        let total: u64 = self.histogram.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, count) in self.histogram.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return 1u64 << (i + 1);
            }
        }
        1u64 << HISTOGRAM_BUCKETS
    }

    /// Renders the snapshot as a JSON object (hand-rolled; the platform
    /// carries no serialization dependency): every counter in table
    /// order, then the derived hit rate and wall quantiles, then the
    /// non-empty histogram buckets.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut json = String::from("{");
        self.write_counters(&mut json);
        let buckets: Vec<String> = self
            .histogram
            .iter()
            .enumerate()
            .filter(|(_, count)| **count > 0)
            .map(|(i, count)| format!("{{\"le_micros\":{},\"count\":{count}}}", 1u64 << (i + 1)))
            .collect();
        let _ = write!(
            json,
            "\"cache_hit_rate\":{:.4},\"wall_p50_micros\":{},\"wall_p99_micros\":{},\
             \"wall_histogram\":[{}]}}",
            self.cache_hit_rate(),
            self.wall_quantile_micros(0.5),
            self.wall_quantile_micros(0.99),
            buckets.join(",")
        );
        json
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = RuntimeMetrics::new();
        m.add(Counter::JobsSubmitted, 3);
        m.record_finished(true, false, Duration::from_micros(100));
        m.record_finished(true, true, Duration::from_micros(10));
        m.record_finished(false, false, Duration::from_micros(1000));
        let s = m.snapshot();
        assert_eq!(s.jobs_submitted, 3);
        assert_eq!(s.jobs_completed, 2);
        assert_eq!(s.jobs_failed, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 2);
        assert!((s.cache_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.busy_micros, 1110);
    }

    #[test]
    fn histogram_buckets_by_log2_micros() {
        let m = RuntimeMetrics::new();
        m.record_finished(true, false, Duration::from_micros(1)); // bucket 0
        m.record_finished(true, false, Duration::from_micros(3)); // bucket 1
        m.record_finished(true, false, Duration::from_micros(1500)); // bucket 10
        let s = m.snapshot();
        assert_eq!(s.histogram[0], 1);
        assert_eq!(s.histogram[1], 1);
        assert_eq!(s.histogram[10], 1);
    }

    #[test]
    fn quantiles_track_the_histogram() {
        let m = RuntimeMetrics::new();
        for _ in 0..99 {
            m.record_finished(true, false, Duration::from_micros(100)); // bucket 6
        }
        m.record_finished(true, false, Duration::from_micros(100_000)); // bucket 16
        let s = m.snapshot();
        assert_eq!(s.wall_quantile_micros(0.5), 1 << 7);
        assert_eq!(s.wall_quantile_micros(0.999), 1 << 17);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let m = RuntimeMetrics::new();
        m.add(Counter::JobsSubmitted, 1);
        m.record_finished(true, false, Duration::from_micros(42));
        let json = m.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"jobs_completed\":1"));
        assert!(json.contains("\"cache_hit_rate\":0.0000"));
        assert!(json.contains("\"wall_histogram\":[{\"le_micros\":64,\"count\":1}]"));
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = RuntimeMetrics::new().snapshot();
        assert_eq!(s.cache_hit_rate(), 0.0);
        assert_eq!(s.wall_quantile_micros(0.99), 0);
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
    fn every_counter_fills_its_own_field_and_key() {
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
        let json = s.to_json();
        for (i, &c) in Counter::ALL.iter().enumerate() {
            let key = snake_case(&format!("{c:?}"));
            assert_eq!(s.get(c), value(i), "{key}");
            assert!(
                json.contains(&format!("\"{key}\":{},", value(i))),
                "{key} in {json}"
            );
        }
        assert_eq!(s.jobs_submitted, value(0));
        assert_eq!(s.suspects_quarantined, value(Counter::ALL.len() - 1));
        assert!(json.contains("\"cache_evictions\":7,"));
        assert!(json.contains("\"cache_corrupt_dropped\":8,"));
    }
}
