//! Fleet descriptions and typed results.
//!
//! A [`Fleet`] is the unit of work the runtime executes: a batch of
//! catalog sensor configurations crossed with noise seeds, one
//! calibration job per (sensor, seed) pair. Results come back as a
//! [`FleetReport`] with **per-job** error aggregation — a fleet with one
//! broken sensor still calibrates every other channel and reports the
//! failure alongside the successes, unlike the fail-fast sequential
//! paths it replaces.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use bios_core::catalog::{CalibrationOutcome, CatalogEntry};
use bios_core::CoreError;
use bios_faults::{FaultPlan, FaultTally};
use bios_recover::journal::Disposition;
use bios_recover::Fnv1a;

use crate::cache::hash_summary;

/// One unit of fleet work: calibrate `entry` under `seed`.
#[derive(Debug, Clone)]
pub struct Job {
    /// Position in the fleet (results are returned in this order).
    pub index: usize,
    /// The sensor configuration to calibrate.
    pub entry: CatalogEntry,
    /// The noise seed of the run.
    pub seed: u64,
}

/// A named batch of calibration jobs.
///
/// # Examples
///
/// ```
/// use bios_core::catalog;
/// use bios_runtime::Fleet;
///
/// let fleet = Fleet::builder("table2")
///     .sensors(catalog::all_table2())
///     .seed(42)
///     .build();
/// assert_eq!(fleet.len(), 18);
/// ```
///
/// The job list is immutable once built and shared behind an `Arc`:
/// cloning a fleet, or handing its jobs to the runtime's workers, copies
/// a pointer, never a [`CatalogEntry`].
#[derive(Debug, Clone)]
pub struct Fleet {
    name: String,
    jobs: Arc<[Job]>,
    fault_plan: Option<Arc<FaultPlan>>,
}

impl Fleet {
    /// Starts building a fleet.
    #[must_use]
    pub fn builder(name: &str) -> FleetBuilder {
        FleetBuilder {
            name: name.to_owned(),
            sensors: Vec::new(),
            seeds: Vec::new(),
            explicit: Vec::new(),
            fault_plan: None,
        }
    }

    /// The fault plan armed for this fleet, if any.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_deref()
    }

    /// The shared handle to the armed fault plan, for handing to
    /// workers.
    #[must_use]
    pub(crate) fn fault_plan_arc(&self) -> Option<Arc<FaultPlan>> {
        self.fault_plan.clone()
    }

    /// The fleet's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The jobs, in index order.
    #[must_use]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// The shared job list itself, for handing to workers without
    /// copying it.
    pub(crate) fn shared_jobs(&self) -> Arc<[Job]> {
        Arc::clone(&self.jobs)
    }

    /// Number of jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the fleet holds no jobs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// A stable fingerprint of everything that determines the fleet's
    /// physics results: each job's sensor identity, protocol
    /// fingerprint, and seed, plus the armed fault plan (0 when none),
    /// hashed in that order as a canonical binary encoding (see
    /// [`Fnv1a`]). The fleet's display name is deliberately excluded —
    /// renaming a run must not invalidate its journal. Used to verify on
    /// resume that a journal belongs to the fleet being resumed.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        for job in self.jobs.iter() {
            h.write_str(job.entry.id());
            h.write_u64(job.entry.protocol_fingerprint());
            h.write_u64(job.seed);
        }
        h.write_u64(self.fault_plan.as_ref().map_or(0, |p| p.fingerprint()));
        h.value()
    }

    /// Builds a fleet directly from pre-indexed jobs, reusing this
    /// fleet's name and fault plan. Used by the resume path to run the
    /// not-yet-journaled remainder of a fleet, and by `bios-shard` to
    /// carve per-shard sub-fleets out of one logical fleet.
    #[must_use]
    pub fn with_jobs(&self, jobs: Vec<Job>) -> Fleet {
        Fleet {
            name: self.name.clone(),
            jobs: jobs.into(),
            fault_plan: self.fault_plan.clone(),
        }
    }
}

/// Builder assembling the (sensors × seeds) job matrix.
#[derive(Debug, Clone)]
pub struct FleetBuilder {
    name: String,
    sensors: Vec<CatalogEntry>,
    seeds: Vec<u64>,
    explicit: Vec<(CatalogEntry, u64)>,
    fault_plan: Option<Arc<FaultPlan>>,
}

impl FleetBuilder {
    /// Adds one sensor configuration.
    #[must_use]
    pub fn sensor(mut self, entry: CatalogEntry) -> FleetBuilder {
        self.sensors.push(entry);
        self
    }

    /// Adds a batch of sensor configurations.
    #[must_use]
    pub fn sensors(mut self, entries: impl IntoIterator<Item = CatalogEntry>) -> FleetBuilder {
        self.sensors.extend(entries);
        self
    }

    /// Adds one seed (each sensor is calibrated once per seed).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> FleetBuilder {
        self.seeds.push(seed);
        self
    }

    /// Adds a batch of seeds.
    #[must_use]
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> FleetBuilder {
        self.seeds.extend(seeds);
        self
    }

    /// Adds one explicit `(sensor, seed)` job, bypassing the
    /// sensors × seeds cross product. This is the gateway's intake
    /// path: an admission-controlled batch is an arbitrary mix of
    /// tenants and replicate seeds, not a rectangular matrix. Explicit
    /// jobs are appended after the crossed jobs in the order they were
    /// added.
    #[must_use]
    pub fn job(mut self, entry: CatalogEntry, seed: u64) -> FleetBuilder {
        self.explicit.push((entry, seed));
        self
    }

    /// Arms a fault plan: every job realizes its faults deterministically
    /// from `(plan, sensor id, job seed)` before running. Fleets without
    /// a plan pay zero fault-path overhead.
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> FleetBuilder {
        self.fault_plan = Some(Arc::new(plan));
        self
    }

    /// Builds the job matrix, seed-major (all sensors at seed₀, then
    /// all sensors at seed₁, …), followed by any explicit jobs in
    /// insertion order. An empty seed list means seed 0 (irrelevant
    /// when the fleet is purely explicit).
    #[must_use]
    pub fn build(self) -> Fleet {
        let seeds = if self.seeds.is_empty() {
            vec![0]
        } else {
            self.seeds
        };
        let jobs = seeds
            .iter()
            .flat_map(|&seed| self.sensors.iter().cloned().map(move |entry| (entry, seed)))
            .chain(self.explicit)
            .enumerate()
            .map(|(index, (entry, seed))| Job { index, entry, seed })
            .collect();
        Fleet {
            name: self.name,
            jobs,
            fault_plan: self.fault_plan,
        }
    }
}

/// Why a single job failed (the fleet itself never fails).
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The calibration pipeline returned an error.
    Calibration(CoreError),
    /// The job panicked on a worker; the payload is the panic message.
    Panicked(String),
    /// A transient failure that exhausted the retry budget.
    Transient {
        /// What the last attempt reported.
        message: String,
        /// Attempts made before giving up (≥ 1).
        attempts: u32,
    },
    /// The job stalled past its soft deadline and was cancelled by the
    /// watchdog. The rendering carries no wall-clock detail so the
    /// loss is byte-identical at any worker count.
    Deadline,
    /// The job's result contained NaN or ±Inf and was quarantined
    /// before it could reach the cache or journal.
    NonFinite,
}

impl JobError {
    /// Whether retrying the same job could plausibly succeed.
    /// Calibration errors, panics, stalls and quarantines are
    /// deterministic; only [`JobError::Transient`] is worth a retry.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(self, JobError::Transient { .. })
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Calibration(e) => write!(f, "{e}"),
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
            JobError::Transient { message, attempts } => {
                write!(f, "transient failure after {attempts} attempts: {message}")
            }
            JobError::Deadline => write!(f, "job stalled past its deadline and was cancelled"),
            JobError::NonFinite => {
                write!(f, "job produced a non-finite result and was quarantined")
            }
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Calibration(e) => Some(e),
            JobError::Panicked(_)
            | JobError::Transient { .. }
            | JobError::Deadline
            | JobError::NonFinite => None,
        }
    }
}

/// The typed result of one job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Position in the fleet.
    pub index: usize,
    /// Catalog id of the sensor.
    pub sensor: String,
    /// The noise seed of the run.
    pub seed: u64,
    /// Wall time of the job on its worker (near zero for cache hits).
    pub wall: Duration,
    /// Whether the outcome came from the memo cache.
    pub from_cache: bool,
    /// Execution attempts made (0 for cache hits, 1 for a clean first
    /// run, more when transient failures were retried).
    pub attempts: u32,
    /// Faults injected into this job by the fleet's armed plan, by
    /// layer. All-zero when no plan is armed or nothing realized.
    pub injected: FaultTally,
    /// The calibration outcome or the per-job error. A success is
    /// summary-only ([`CalibrationOutcome::summary_only`]): its curve
    /// keeps the electrode area and blank sigma but no calibration
    /// points, whether or not it came from the cache.
    pub outcome: Result<Arc<CalibrationOutcome>, JobError>,
    /// End-to-end integrity checksum of the result's payload (see
    /// [`JobResult::payload_checksum`]), stamped once by
    /// [`JobResult::sealed`] on the worker thread that produced the
    /// result, before it crosses the result channel. Every later hop —
    /// the collector's journal append, the shard merge — re-derives the
    /// checksum from the payload it sees and refuses a result whose
    /// bytes no longer match, so a finite-but-wrong value corrupted *in
    /// flight* is caught even though it would pass `NonFinite`
    /// quarantine.
    pub integrity: u64,
}

impl JobResult {
    /// Re-derives the integrity checksum from the payload this result
    /// currently carries: FNV-1a over the sensor id, the seed, and then
    /// either tag 0 and the summary's five `f64` bit patterns, or tag 1
    /// and the error's `Display` text (strings length-prefixed). That
    /// covers every field [`JobResult::digest_line`] renders; a success
    /// is hashed from its bits, not its rendering (so `0.0` and `-0.0`
    /// differ), and only the rare failure renders text.
    #[must_use]
    pub fn payload_checksum(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_str(&self.sensor);
        h.write_u64(self.seed);
        match &self.outcome {
            Ok(o) => {
                h.write_u8(0);
                hash_summary(&mut h, &o.summary);
            }
            Err(e) => {
                h.write_u8(1);
                h.write_str(&e.to_string());
            }
        }
        h.value()
    }

    /// Stamps the produce-time integrity checksum. Call exactly once,
    /// on the worker that computed the outcome, before the result
    /// crosses any channel.
    #[must_use]
    pub fn sealed(mut self) -> JobResult {
        self.integrity = self.payload_checksum();
        self
    }

    /// Whether the payload still matches its produce-time checksum.
    /// `false` means the result was corrupted somewhere between the
    /// worker that computed it and this hop — it must not be cached,
    /// journaled, or merged.
    #[must_use]
    pub fn verify_integrity(&self) -> bool {
        self.integrity == self.payload_checksum()
    }
    /// Whether the job succeeded but not cleanly: faults were injected
    /// or transient failures forced retries.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.outcome.is_ok() && (self.attempts > 1 || self.injected.total() > 0)
    }

    /// The job's three-way triage, as the fleet outcome counts it and
    /// the journal records it.
    pub(crate) fn disposition(&self) -> Disposition {
        if self.outcome.is_err() {
            Disposition::Failed
        } else if self.is_degraded() {
            Disposition::Degraded
        } else {
            Disposition::Completed
        }
    }

    /// The job's line in the canonical fleet digest (no trailing
    /// newline). Shared verbatim by [`FleetReport::summaries_digest`]
    /// and the run journal, so a resumed run reconstructs the
    /// byte-identical digest from journaled lines.
    #[must_use]
    pub fn digest_line(&self) -> String {
        match &self.outcome {
            // `{:?}` on f64 prints the shortest round-trip form, so
            // equal digests ⇔ bit-equal summaries.
            Ok(o) => format!("{} seed={} {:?}", self.sensor, self.seed, o.summary),
            Err(e) => format!("{} seed={} ERROR {e}", self.sensor, self.seed),
        }
    }
}

/// Everything a fleet run produced, in job order.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Worker threads used (1 for the sequential path).
    pub workers: usize,
    /// End-to-end wall time of the run.
    pub elapsed: Duration,
    /// Per-job results, sorted by job index.
    pub results: Vec<JobResult>,
}

impl FleetReport {
    /// Successful results, in job order. Each outcome is summary-only
    /// (see [`JobResult::outcome`]).
    pub fn successes(&self) -> impl Iterator<Item = (&JobResult, &CalibrationOutcome)> {
        self.results
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok().map(|o| (r, o.as_ref())))
    }

    /// Failed results, in job order.
    pub fn failures(&self) -> impl Iterator<Item = (&JobResult, &JobError)> {
        self.results
            .iter()
            .filter_map(|r| r.outcome.as_ref().err().map(|e| (r, e)))
    }

    /// The summary-only outcome for a (sensor id, seed) pair, if that
    /// job succeeded. Rerun [`CatalogEntry::run_calibration_with`] for
    /// the calibration points.
    #[must_use]
    pub fn outcome(&self, sensor: &str, seed: u64) -> Option<&CalibrationOutcome> {
        self.results
            .iter()
            .find(|r| r.sensor == sensor && r.seed == seed)
            .and_then(|r| r.outcome.as_ref().ok())
            .map(AsRef::as_ref)
    }

    /// Number of jobs served from the cache.
    #[must_use]
    pub fn cache_hits(&self) -> usize {
        self.results.iter().filter(|r| r.from_cache).count()
    }

    /// Partitions the results into the quorum-style triage the fleet
    /// operator acts on: cleanly completed, degraded (succeeded despite
    /// injected faults or retries), and failed.
    #[must_use]
    pub fn outcome_summary(&self) -> FleetOutcome {
        let mut outcome = FleetOutcome::default();
        for r in &self.results {
            outcome.tally(r.disposition());
        }
        outcome
    }

    /// A canonical rendering of every job's figures of merit, in job
    /// order. Two runs of the same fleet are byte-identical here exactly
    /// when their physics results are bit-identical — the determinism
    /// oracle used by the worker-count-independence tests. Scheduling
    /// artifacts (wall times, cache dispositions) are excluded.
    #[must_use]
    pub fn summaries_digest(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        for r in &self.results {
            let _ = writeln!(out, "{}", r.digest_line());
        }
        out
    }
}

/// Quorum-style triage of a fleet run: how many channels can be
/// trusted outright, how many delivered data under degraded
/// conditions, and how many are lost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetOutcome {
    /// Jobs that succeeded cleanly on the first attempt, fault-free.
    pub completed: usize,
    /// Jobs that succeeded despite injected faults or retries; their
    /// figures of merit may be biased and deserve a drift check.
    pub degraded: usize,
    /// Jobs that returned an error (calibration failure, panic,
    /// exhausted retries, stall, or non-finite quarantine).
    pub failed: usize,
}

impl FleetOutcome {
    /// Counts one more job of `disposition`.
    pub(crate) fn tally(&mut self, disposition: Disposition) {
        match disposition {
            Disposition::Completed => self.completed += 1,
            Disposition::Degraded => self.degraded += 1,
            Disposition::Failed => self.failed += 1,
        }
    }

    /// Total jobs triaged.
    #[must_use]
    pub fn total(&self) -> usize {
        self.completed + self.degraded + self.failed
    }

    /// Fraction of jobs that produced a usable outcome (completed or
    /// degraded); 0 for an empty fleet.
    #[must_use]
    pub fn usable_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (self.completed + self.degraded) as f64 / total as f64
        }
    }

    /// Whether at least `min_fraction` of the fleet produced usable
    /// outcomes — the quorum test a multi-sensor panel applies before
    /// trusting a batch of calibrations.
    #[must_use]
    pub fn has_quorum(&self, min_fraction: f64) -> bool {
        self.total() > 0 && self.usable_fraction() >= min_fraction
    }
}

impl fmt::Display for FleetOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} completed / {} degraded / {} failed",
            self.completed, self.degraded, self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use bios_core::catalog;

    use super::*;

    #[test]
    fn builder_crosses_sensors_with_seeds() {
        let fleet = Fleet::builder("x")
            .sensors(catalog::cyp_sensors())
            .seeds([1, 2, 3])
            .build();
        assert_eq!(fleet.len(), 12);
        // Seed-major: first block is all sensors at seed 1.
        assert!(fleet.jobs()[..4].iter().all(|j| j.seed == 1));
        assert_eq!(fleet.jobs()[4].seed, 2);
        // Indexes are dense and ordered.
        for (k, job) in fleet.jobs().iter().enumerate() {
            assert_eq!(job.index, k);
        }
    }

    #[test]
    fn explicit_jobs_append_after_the_cross_product() {
        let fleet = Fleet::builder("mixed")
            .sensor(catalog::our_glucose_sensor())
            .seed(1)
            .job(catalog::our_lactate_sensor(), 99)
            .job(catalog::our_glucose_sensor(), 7)
            .build();
        assert_eq!(fleet.len(), 3);
        assert_eq!(fleet.jobs()[0].seed, 1);
        assert_eq!(fleet.jobs()[1].seed, 99);
        assert_eq!(fleet.jobs()[1].entry.id(), "lactate/ours");
        assert_eq!(fleet.jobs()[2].seed, 7);
        for (k, job) in fleet.jobs().iter().enumerate() {
            assert_eq!(job.index, k);
        }
        // A purely explicit fleet does not inherit the implicit seed 0.
        let explicit_only = Fleet::builder("explicit")
            .job(catalog::our_glucose_sensor(), 5)
            .build();
        assert_eq!(explicit_only.len(), 1);
        assert_eq!(explicit_only.jobs()[0].seed, 5);
    }

    #[test]
    fn empty_seed_list_defaults_to_seed_zero() {
        let fleet = Fleet::builder("x")
            .sensor(catalog::our_glucose_sensor())
            .build();
        assert_eq!(fleet.len(), 1);
        assert_eq!(fleet.jobs()[0].seed, 0);
    }

    #[test]
    fn job_error_displays_every_variant() {
        let panicked = JobError::Panicked("boom".into());
        assert!(panicked.to_string().contains("boom"));
        let calib = JobError::Calibration(CoreError::ChannelEmpty { channel: 1 });
        assert!(calib.to_string().contains("no sensor"));
        let transient = JobError::Transient {
            message: "glitch".into(),
            attempts: 3,
        };
        assert!(transient.to_string().contains("after 3 attempts"));
        // Deadline and NonFinite renderings are part of the digest
        // contract: they must stay deterministic (no wall-clock or
        // attempt detail) so losses digest identically at any worker
        // count.
        assert_eq!(
            JobError::Deadline.to_string(),
            "job stalled past its deadline and was cancelled"
        );
        assert_eq!(
            JobError::NonFinite.to_string(),
            "job produced a non-finite result and was quarantined"
        );
    }

    #[test]
    fn fingerprint_tracks_physics_not_name() {
        let a = Fleet::builder("a")
            .sensors(catalog::cyp_sensors())
            .seeds([1, 2])
            .build();
        let renamed = Fleet::builder("b")
            .sensors(catalog::cyp_sensors())
            .seeds([1, 2])
            .build();
        assert_eq!(a.fingerprint(), renamed.fingerprint());
        let reseeded = Fleet::builder("a")
            .sensors(catalog::cyp_sensors())
            .seeds([1, 3])
            .build();
        assert_ne!(a.fingerprint(), reseeded.fingerprint());
        let armed = Fleet::builder("a")
            .sensors(catalog::cyp_sensors())
            .seeds([1, 2])
            .fault_plan(bios_faults::FaultPlan::chaos(7, 0.5))
            .build();
        assert_ne!(a.fingerprint(), armed.fingerprint());
    }

    fn sealed_result(summary: bios_analytics::CalibrationSummary) -> JobResult {
        let mut outcome = catalog::our_glucose_sensor().run_calibration(3).unwrap();
        outcome.summary = summary;
        JobResult {
            index: 0,
            sensor: "glucose/ours".into(),
            seed: 3,
            wall: Duration::ZERO,
            from_cache: false,
            attempts: 1,
            injected: FaultTally::default(),
            outcome: Ok(Arc::new(outcome)),
            integrity: 0,
        }
        .sealed()
    }

    #[test]
    fn seal_covers_every_summary_float_the_seed_and_the_sensor() {
        let summary = catalog::our_glucose_sensor()
            .run_calibration(3)
            .unwrap()
            .summary;
        let honest = sealed_result(summary);
        assert!(honest.verify_integrity());
        // One flipped low mantissa bit per summary float, behind the
        // seal's back.
        for k in 0..5 {
            let mut tampered = honest.clone();
            let mut outcome = (**tampered.outcome.as_ref().unwrap()).clone();
            outcome.summary = crate::cache::flip_summary_bit(&summary, k);
            tampered.outcome = Ok(Arc::new(outcome));
            assert!(!tampered.verify_integrity(), "summary float {k} unsealed");
        }
        let mut reseeded = honest.clone();
        reseeded.seed ^= 1;
        assert!(!reseeded.verify_integrity(), "seed unsealed");
        let mut renamed = honest.clone();
        renamed.sensor = "glucose/ourt".into();
        assert!(!renamed.verify_integrity(), "sensor id unsealed");
        let mut failed = honest;
        failed.outcome = Err(JobError::Deadline);
        assert!(!failed.verify_integrity(), "outcome swap unsealed");
    }

    #[test]
    fn positive_and_negative_zero_seal_differently() {
        let mut summary = catalog::our_glucose_sensor()
            .run_calibration(3)
            .unwrap()
            .summary;
        summary.r_squared = 0.0;
        let pos = sealed_result(summary);
        summary.r_squared = -0.0;
        let neg = sealed_result(summary);
        assert_ne!(pos.integrity, neg.integrity);
        // The digest contract tells them apart too.
        assert_ne!(pos.digest_line(), neg.digest_line());
    }

    #[test]
    fn only_transient_errors_are_transient() {
        assert!(JobError::Transient {
            message: String::new(),
            attempts: 1
        }
        .is_transient());
        assert!(!JobError::Panicked(String::new()).is_transient());
    }

    #[test]
    fn fleet_outcome_quorum_math() {
        let outcome = FleetOutcome {
            completed: 6,
            degraded: 2,
            failed: 2,
        };
        assert_eq!(outcome.total(), 10);
        assert!((outcome.usable_fraction() - 0.8).abs() < 1e-12);
        assert!(outcome.has_quorum(0.75));
        assert!(!outcome.has_quorum(0.9));
        assert!(
            !FleetOutcome::default().has_quorum(0.0),
            "empty has no quorum"
        );
        assert_eq!(outcome.to_string(), "6 completed / 2 degraded / 2 failed");
    }

    #[test]
    fn builder_arms_a_fault_plan() {
        let plan = bios_faults::FaultPlan::chaos(1, 0.5);
        let fleet = Fleet::builder("armed")
            .sensor(catalog::our_glucose_sensor())
            .fault_plan(plan.clone())
            .build();
        assert_eq!(
            fleet.fault_plan().map(|p| p.fingerprint()),
            Some(plan.fingerprint())
        );
        let unarmed = Fleet::builder("unarmed").build();
        assert!(unarmed.fault_plan().is_none());
    }
}
