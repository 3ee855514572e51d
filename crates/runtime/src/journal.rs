//! Crash-resumable fleet runs on the write-ahead journal.
//!
//! [`Runtime::run_journaled`] wraps [`Runtime::run`] with durability:
//! before any job's result is surfaced, a `JobDone` record carrying its
//! disposition and canonical digest line is appended and flushed to an
//! append-only journal ([`bios_recover::journal`]). If the process dies
//! mid-fleet — `kill -9`, OOM, power loss — [`Runtime::resume`] replays
//! the journal, verifies it belongs to the same run (fleet
//! fingerprint), skips every journaled job, executes only the
//! remainder, and merges the two halves into the **byte-identical**
//! digest an uninterrupted run would have produced, at any worker
//! count.
//!
//! ```
//! use bios_core::catalog;
//! use bios_runtime::{Fleet, Runtime};
//!
//! let dir = std::env::temp_dir();
//! let path = dir.join(format!("bios-doc-{}.journal", std::process::id()));
//! let fleet = Fleet::builder("doc")
//!     .sensors(catalog::glucose_sensors())
//!     .seed(7)
//!     .build();
//! let runtime = Runtime::with_workers(2);
//! let report = runtime.run_journaled(&fleet, &path)?;
//! // The journal is sealed; "resuming" it replays without re-running.
//! let resumed = Runtime::with_workers(1).resume(&fleet, &path)?;
//! assert_eq!(resumed.summaries_digest(), report.summaries_digest());
//! assert_eq!(resumed.executed_jobs, 0);
//! std::fs::remove_file(&path).ok();
//! # Ok::<(), bios_runtime::journal::JournalError>(())
//! ```

use std::collections::BTreeMap;
use std::path::Path;

use bios_recover::codec::CodecError;
use bios_recover::fnv1a;
use bios_recover::journal::{Disposition, JournalReader, JournalWriter, Record, RunHeader};
use bios_recover::sim::{is_sim_crash, RealIo, StorageIo};

pub use bios_recover::journal::JournalError;

use crate::fleet::{Fleet, FleetOutcome, FleetReport, Job, JobResult};
use crate::{Counter, Runtime};

/// Whether a journal error is a simulated process crash — the one IO
/// failure that must *not* be absorbed by graceful degradation: the
/// "process" is gone, so the error propagates and the torture harness
/// resumes against the surviving disk.
fn is_crash(e: &JournalError) -> bool {
    matches!(e, JournalError::Io(io_err) if is_sim_crash(io_err))
}

/// Knobs for [`Runtime::run_journaled_with`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalOptions {
    /// Abort the whole process (as `kill -9` would) immediately after
    /// the Nth `JobDone` record is durably written. This is the
    /// deterministic crash-injection hook the crash-resume gate in CI
    /// uses; `None` (the default) never crashes.
    pub crash_after_jobs: Option<u64>,
}

/// What [`Runtime::resume`] reconstructed: journaled results merged
/// with the freshly executed remainder, in job-index order.
#[derive(Debug)]
pub struct ResumeReport {
    /// Name of the fleet that was resumed.
    pub fleet: String,
    /// Total jobs in the fleet.
    pub total_jobs: usize,
    /// Jobs skipped because the journal already held their results.
    pub resumed_jobs: usize,
    /// Jobs executed fresh by this process.
    pub executed_jobs: usize,
    /// Merged quorum triage across journaled and fresh jobs.
    pub outcome: FleetOutcome,
    /// The fresh sub-run's report, when anything was left to execute.
    pub fresh: Option<FleetReport>,
    digest: String,
}

impl ResumeReport {
    /// The canonical per-job digest of the *whole* fleet — journaled
    /// lines and fresh lines merged in job-index order. Byte-identical
    /// to [`FleetReport::summaries_digest`] of an uninterrupted run.
    #[must_use]
    pub fn summaries_digest(&self) -> &str {
        &self.digest
    }

    /// FNV-1a of [`ResumeReport::summaries_digest`], matching the
    /// digest recorded in the journal's seal.
    #[must_use]
    pub fn digest_fnv(&self) -> u64 {
        fnv1a(self.digest.as_bytes())
    }
}

/// Triage of one result into the journal's three-way disposition.
fn disposition_of(result: &JobResult) -> Disposition {
    if result.outcome.is_err() {
        Disposition::Failed
    } else if result.is_degraded() {
        Disposition::Degraded
    } else {
        Disposition::Completed
    }
}

/// Folds one disposition into a [`FleetOutcome`].
fn tally(outcome: &mut FleetOutcome, disposition: Disposition) {
    match disposition {
        Disposition::Completed => outcome.completed += 1,
        Disposition::Degraded => outcome.degraded += 1,
        Disposition::Failed => outcome.failed += 1,
    }
}

impl Runtime {
    /// [`Runtime::run`] with a write-ahead journal at `path`: every
    /// result is durably recorded *before* it is surfaced, and the
    /// journal is sealed when the fleet completes. A run killed
    /// mid-fleet leaves a valid, resumable journal behind — hand it to
    /// [`Runtime::resume`].
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the journal cannot be created or
    /// appended; the write-ahead contract is broken at that point, so
    /// the error wins even though the fleet itself ran.
    pub fn run_journaled(
        &self,
        fleet: &Fleet,
        path: impl AsRef<Path>,
    ) -> Result<FleetReport, JournalError> {
        self.run_journaled_with(fleet, path, JournalOptions::default())
    }

    /// [`Runtime::run_journaled`] with explicit [`JournalOptions`].
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the journal cannot be created,
    /// appended, or sealed.
    pub fn run_journaled_with(
        &self,
        fleet: &Fleet,
        path: impl AsRef<Path>,
        options: JournalOptions,
    ) -> Result<FleetReport, JournalError> {
        self.run_journaled_on(&RealIo, fleet, path, options)
    }

    /// [`Runtime::run_journaled_with`] on an explicit storage backend
    /// — the seam the torture gate injects [`bios_recover::SimIo`]
    /// through.
    ///
    /// Failure policy (the trichotomy the torture gate asserts):
    ///
    /// * the journal cannot be **created** → typed error; nothing ran;
    /// * an **append or seal** fails after bounded transient retries →
    ///   the journal is *retired*: the `journal_lost` metric
    ///   increments and the fleet completes non-durably with the
    ///   correct digest (graceful degradation);
    /// * a simulated **crash** → the error propagates (the process is
    ///   dead); resume against the surviving bytes.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on create failure or simulated crash;
    /// [`JournalError::Corrupt`] when a result fails its in-flight
    /// integrity check.
    pub fn run_journaled_on(
        &self,
        io: &dyn StorageIo,
        fleet: &Fleet,
        path: impl AsRef<Path>,
        options: JournalOptions,
    ) -> Result<FleetReport, JournalError> {
        let header = RunHeader {
            fleet: fleet.name().to_owned(),
            fingerprint: fleet.fingerprint(),
            jobs: fleet.len() as u64,
        };
        let mut writer = Some(JournalWriter::create_with(io, path.as_ref(), &header)?);
        let mut fatal: Option<JournalError> = None;
        let mut jobs_done = 0u64;
        let mut retired: Option<JournalWriter> = None;
        let report = self.run_with_observer(fleet, |result| {
            if fatal.is_some() {
                return; // the run is already doomed; don't pile on
            }
            // End-to-end integrity: the checksum stamped when the
            // result was produced must still match its payload at the
            // journal-append hop. A mismatch means the result mutated
            // in flight — refuse to make the corruption durable.
            if !result.verify_integrity() {
                self.metrics.add(Counter::CorruptionCaught, 1);
                fatal = Some(JournalError::Corrupt(CodecError::ChecksumMismatch {
                    stored: result.integrity,
                    computed: result.payload_checksum(),
                }));
                return;
            }
            let Some(w) = writer.as_mut() else {
                return; // journal retired: non-durable mode
            };
            let record = Record::job_done(
                result.index as u64,
                disposition_of(result),
                u64::from(result.attempts),
                result.digest_line(),
            );
            match w.append(&record) {
                Ok(()) => {
                    jobs_done += 1;
                    if options.crash_after_jobs == Some(jobs_done) {
                        // The record above is flushed: die exactly as
                        // hard as `kill -9` would, leaving the journal
                        // for `resume` to pick up.
                        std::process::abort();
                    }
                }
                Err(e) if is_crash(&e) => fatal = Some(e),
                Err(_) => {
                    // Transient retries exhausted or the disk is full:
                    // retire the journal, meter the loss, and let the
                    // fleet finish non-durably. Its IO is billed once
                    // the run survives to the end.
                    self.metrics.add(Counter::JournalLost, 1);
                    retired = writer.take();
                }
            }
        });
        if let Some(e) = fatal {
            return Err(e);
        }
        let digest = fnv1a(report.summaries_digest().as_bytes());
        if let Some(w) = writer.as_mut() {
            self.seal_and_bill(w, jobs_done, digest)?;
        } else if let Some(w) = &retired {
            self.bill(w);
        }
        Ok(report)
    }

    /// Resumes a journaled run: verifies the journal belongs to `fleet`
    /// (fingerprint over sensors, protocols, seeds, and fault plan),
    /// skips every job the journal already holds, executes only the
    /// remainder, appends their records, and seals. The merged digest
    /// is byte-identical to an uninterrupted run at any worker count.
    /// A journal that is already sealed replays without executing
    /// anything.
    ///
    /// # Errors
    ///
    /// * [`JournalError::BadMagic`] / [`JournalError::HeaderMissing`] /
    ///   [`JournalError::Corrupt`] — the file is not a usable journal;
    /// * [`JournalError::FingerprintMismatch`] — the journal belongs to
    ///   a different run and resuming would alias its results;
    /// * [`JournalError::Io`] — filesystem failure.
    pub fn resume(
        &self,
        fleet: &Fleet,
        path: impl AsRef<Path>,
    ) -> Result<ResumeReport, JournalError> {
        self.resume_on(&RealIo, fleet, path)
    }

    /// [`Runtime::resume`] on an explicit storage backend. The resume
    /// side of the trichotomy: an unreadable/foreign journal is a
    /// typed error, a failed re-open or append *retires* the journal
    /// (the remainder still executes and merges to the correct
    /// digest, metered by `journal_lost`), and a simulated crash
    /// propagates.
    ///
    /// # Errors
    ///
    /// As [`Runtime::resume`].
    pub fn resume_on(
        &self,
        io: &dyn StorageIo,
        fleet: &Fleet,
        path: impl AsRef<Path>,
    ) -> Result<ResumeReport, JournalError> {
        let path = path.as_ref();
        let loaded = JournalReader::load_with(io, path)?;
        // A corrupt *body* record is not the benign torn tail a crash
        // leaves: its frame checksum failed, so the file was damaged at
        // rest. Surface the checksum error instead of silently
        // truncating and re-executing over untrusted provenance.
        if let Some(e) = loaded.corrupt_error.clone() {
            return Err(JournalError::Corrupt(e));
        }
        let current = fleet.fingerprint();
        if loaded.header.fingerprint != current {
            return Err(JournalError::FingerprintMismatch {
                journal: loaded.header.fingerprint,
                current,
            });
        }
        // Last record wins on (impossible in practice) duplicate
        // indexes; indexes beyond the fleet are ignored rather than
        // trusted.
        let mut done = BTreeMap::new();
        for job in &loaded.jobs {
            if (job.index as usize) < fleet.len() {
                done.insert(job.index, job.clone());
            }
        }
        self.metrics.add(Counter::ResumedJobs, done.len() as u64);

        // Build the not-yet-journaled remainder as a dense sub-fleet
        // (the runtime collects by index, so indexes must be 0..k) and
        // keep the mapping back to original fleet indexes. A sealed
        // journal is terminal — it replays as-is, never re-executes —
        // so the remainder is empty by construction.
        let mut orig_of: Vec<usize> = Vec::new();
        let mut sub_jobs: Vec<Job> = Vec::new();
        if !loaded.sealed {
            for job in fleet.jobs() {
                if !done.contains_key(&(job.index as u64)) {
                    orig_of.push(job.index);
                    sub_jobs.push(Job {
                        index: sub_jobs.len(),
                        entry: job.entry.clone(),
                        seed: job.seed,
                    });
                }
            }
        }

        let fresh = if sub_jobs.is_empty() {
            None
        } else {
            let sub_fleet = fleet.with_jobs(sub_jobs);
            let mut writer = match JournalWriter::open_resume_with(io, path, loaded.valid_len) {
                Ok(w) => Some(w),
                Err(e) if is_crash(&e) => return Err(e),
                Err(_) => {
                    // The journal survived the crash but the disk now
                    // refuses the re-open: execute the remainder
                    // non-durably rather than losing the run.
                    self.metrics.add(Counter::JournalLost, 1);
                    None
                }
            };
            let mut fatal: Option<JournalError> = None;
            let report = self.run_with_observer(&sub_fleet, |result| {
                if fatal.is_some() {
                    return;
                }
                if !result.verify_integrity() {
                    self.metrics.add(Counter::CorruptionCaught, 1);
                    fatal = Some(JournalError::Corrupt(CodecError::ChecksumMismatch {
                        stored: result.integrity,
                        computed: result.payload_checksum(),
                    }));
                    return;
                }
                let Some(w) = writer.as_mut() else {
                    return; // journal retired: non-durable mode
                };
                let record = Record::job_done(
                    // bios-audit: allow(P-index) — result.index < sub_fleet.len() (= orig_of.len()) by worker-pool contract
                    orig_of[result.index] as u64,
                    disposition_of(result),
                    u64::from(result.attempts),
                    result.digest_line(),
                );
                match w.append(&record) {
                    Ok(()) => {}
                    Err(e) if is_crash(&e) => fatal = Some(e),
                    Err(_) => {
                        self.bill(w);
                        self.metrics.add(Counter::JournalLost, 1);
                        writer = None;
                    }
                }
            });
            if let Some(e) = fatal {
                return Err(e);
            }
            Some((writer, report))
        };

        // Merge journaled and fresh results into index order.
        let mut outcome = FleetOutcome::default();
        let mut digest = String::new();
        let mut fresh_lines: BTreeMap<usize, (Disposition, String)> = BTreeMap::new();
        if let Some((_, report)) = &fresh {
            for result in &report.results {
                fresh_lines.insert(
                    // bios-audit: allow(P-index) — result.index < sub_fleet.len() (= orig_of.len()) by worker-pool contract
                    orig_of[result.index],
                    (disposition_of(result), result.digest_line()),
                );
            }
        }
        for job in fleet.jobs() {
            let (disposition, line) = match done.get(&(job.index as u64)) {
                Some(journaled) => (journaled.disposition, journaled.digest_line.clone()),
                None => match fresh_lines.remove(&job.index) {
                    Some(entry) => entry,
                    // Unreachable: every non-journaled job ran fresh.
                    None => continue,
                },
            };
            tally(&mut outcome, disposition);
            digest.push_str(&line);
            digest.push('\n');
        }

        let executed_jobs = orig_of.len();
        let fresh = match fresh {
            Some((writer, report)) => {
                if let Some(mut w) = writer {
                    self.seal_and_bill(&mut w, fleet.len() as u64, fnv1a(digest.as_bytes()))?;
                }
                Some(report)
            }
            None => {
                // Crash landed after the last JobDone but before the
                // seal: nothing to execute, but seal now so the next
                // resume is a pure terminal replay.
                if !loaded.sealed {
                    match JournalWriter::open_resume_with(io, path, loaded.valid_len) {
                        Ok(mut w) => {
                            self.seal_and_bill(
                                &mut w,
                                fleet.len() as u64,
                                fnv1a(digest.as_bytes()),
                            )?;
                        }
                        Err(e) if is_crash(&e) => return Err(e),
                        Err(_) => self.metrics.add(Counter::JournalLost, 1),
                    }
                }
                None
            }
        };
        Ok(ResumeReport {
            fleet: fleet.name().to_owned(),
            total_jobs: fleet.len(),
            resumed_jobs: done.len(),
            executed_jobs,
            outcome,
            fresh,
            digest,
        })
    }

    /// Bills a writer's IO to the journal counters: the records it
    /// durably appended and the transient retries it absorbed.
    fn bill(&self, w: &JournalWriter) {
        self.metrics
            .add(Counter::JournalRecords, w.records_written());
        self.metrics.add(Counter::JournalRetries, w.io_retries());
    }

    /// Seals `w` and bills its IO. A failed seal retires the journal
    /// (billed, and metered by `journal_lost`); a simulated crash
    /// propagates unbilled, as the "process" is gone.
    fn seal_and_bill(
        &self,
        w: &mut JournalWriter,
        jobs: u64,
        digest: u64,
    ) -> Result<(), JournalError> {
        match w.seal(jobs, digest) {
            Ok(()) => self.bill(w),
            Err(e) if is_crash(&e) => return Err(e),
            Err(_) => {
                self.bill(w);
                self.metrics.add(Counter::JournalLost, 1);
            }
        }
        Ok(())
    }
}
