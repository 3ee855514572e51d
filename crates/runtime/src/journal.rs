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
//! A sealed journal replays only if its seal agrees with its records:
//! `jobs_done` must be the fleet's size and the seal's digest the
//! FNV-1a of the merged digest, or resume refuses it as corrupt.
//!
//! Both entry points drive one write-ahead loop: a fresh run is a
//! resume of an empty journal. [`Runtime::recover_on`] is the
//! post-crash policy on top of it — resume, or run fresh when the
//! crash left nothing trustworthy on disk.
//!
//! Workers hand results to the journaling collector in batches of up to
//! 64. A crash therefore loses at most one unsent batch per worker:
//! those jobs finished but were never journaled (nor surfaced), and
//! resume re-executes them along with everything that never ran.
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

use std::io::ErrorKind;
use std::path::Path;

use bios_recover::codec::CodecError;
use bios_recover::fnv1a;
use bios_recover::journal::{Disposition, JournalReader, JournalWriter, Record, RunHeader};
use bios_recover::sim::{is_sim_crash, RealIo, StorageIo};

pub use bios_recover::journal::JournalError;

use crate::fleet::{Fleet, FleetOutcome, FleetReport, Job};
use crate::{Counter, Runtime};

/// Whether a journal error is a simulated process crash — the one IO
/// failure that must *not* be absorbed by graceful degradation: the
/// "process" is gone, so the error propagates and the torture harness
/// resumes against the surviving disk.
fn is_crash(e: &JournalError) -> bool {
    matches!(e, JournalError::Io(io_err) if is_sim_crash(io_err))
}

/// Knobs for [`Runtime::run_journaled_on`].
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
    /// The run of the jobs the journal did not hold, indexed densely
    /// in fleet order (no results when it held every job).
    pub fresh: FleetReport,
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

/// A journal's `(disposition, digest line)` per fleet index; `None`
/// marks a job it does not hold yet.
type Journaled = Vec<Option<(Disposition, String)>>;

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
        self.run_journaled_on(&RealIo, fleet, path, JournalOptions::default())
    }

    /// [`Runtime::run_journaled`] on an explicit storage backend — the
    /// seam the torture gate injects [`bios_recover::SimIo`] through —
    /// with explicit [`JournalOptions`].
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
        self.run_fresh(io, fleet, path.as_ref(), options)
            .map(|run| run.fresh)
    }

    /// Creates a journal for `fleet` at `path` and drives the whole
    /// fleet through the write-ahead loop.
    fn run_fresh(
        &self,
        io: &dyn StorageIo,
        fleet: &Fleet,
        path: &Path,
        options: JournalOptions,
    ) -> Result<ResumeReport, JournalError> {
        let header = RunHeader {
            fleet: fleet.name().to_owned(),
            fingerprint: fleet.fingerprint(),
            jobs: fleet.len() as u64,
        };
        let writer = JournalWriter::create_with(io, path, &header)?;
        self.write_ahead(fleet, vec![None; fleet.len()], Some(writer), options)
    }

    /// Resumes a journaled run: verifies the journal belongs to `fleet`
    /// (fingerprint over sensors, protocols, seeds, and fault plan),
    /// skips every job the journal already holds, executes only the
    /// remainder, appends their records, and seals. The merged digest
    /// is byte-identical to an uninterrupted run at any worker count.
    /// A journal that is already sealed replays without executing
    /// anything, and its seal is checked: it must count every job of
    /// the fleet, and its digest must equal the FNV-1a of the merged
    /// digest.
    ///
    /// # Errors
    ///
    /// * [`JournalError::BadMagic`] / [`JournalError::HeaderMissing`] /
    ///   [`JournalError::Corrupt`] — the file is not a usable journal,
    ///   or its seal disagrees with its records
    ///   ([`CodecError::ChecksumMismatch`]);
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
        if let Some(e) = loaded.corrupt_error {
            return Err(JournalError::Corrupt(e));
        }
        let current = fleet.fingerprint();
        if loaded.header.fingerprint != current {
            return Err(JournalError::FingerprintMismatch {
                journal: loaded.header.fingerprint,
                current,
            });
        }
        let seal = loaded.seal;
        // Last record wins on (impossible in practice) duplicate
        // indexes; indexes beyond the fleet are ignored rather than
        // trusted.
        let mut journaled: Journaled = vec![None; fleet.len()];
        for job in loaded.jobs {
            if let Some(slot) = journaled.get_mut(job.index as usize) {
                *slot = Some((job.disposition, job.digest_line));
            }
        }

        // A sealed journal is terminal: it holds every job, replays
        // as-is, and is never reopened. An unsealed one is reopened
        // once, at its last valid frame, for the remainder and the
        // seal — even when the crash landed after the last `JobDone`
        // and only the seal is missing.
        let writer = if seal.is_some() {
            None
        } else {
            match JournalWriter::open_resume_with(io, path, loaded.valid_len) {
                Ok(w) => Some(w),
                Err(e) if is_crash(&e) => return Err(e),
                Err(_) => {
                    // The journal survived the crash but the disk now
                    // refuses the re-open: execute the remainder
                    // non-durably rather than losing the run.
                    self.metrics.add(Counter::JournalLost, 1);
                    None
                }
            }
        };
        let report = self.write_ahead(fleet, journaled, writer, JournalOptions::default())?;
        // The seal vouches for the whole run: every job, and the
        // digest its lines hash to. Frames that each pass their
        // checksum but merge to a different run were damaged or forged
        // together, so refuse them like a corrupt body.
        if let Some((jobs_done, digest)) = seal {
            let computed = report.digest_fnv();
            if jobs_done != fleet.len() as u64 || digest != computed {
                return Err(JournalError::Corrupt(CodecError::ChecksumMismatch {
                    stored: digest,
                    computed,
                }));
            }
        }
        Ok(report)
    }

    /// The post-crash recovery policy: resume the journal at `path`
    /// or, when the crash left nothing trustworthy there — no file
    /// (`NotFound`), a torn magic (`BadMagic`), or no durable header
    /// (`HeaderMissing`) — run `fleet` fresh under a new journal.
    ///
    /// # Errors
    ///
    /// As [`Runtime::resume_on`], except the three cases above. A
    /// [`JournalError::FingerprintMismatch`] or a corrupt body still
    /// propagates: those bytes are *foreign* or damaged, not merely
    /// torn.
    pub fn recover_on(
        &self,
        io: &dyn StorageIo,
        fleet: &Fleet,
        path: impl AsRef<Path>,
    ) -> Result<ResumeReport, JournalError> {
        let path = path.as_ref();
        match self.resume_on(io, fleet, path) {
            Err(JournalError::BadMagic | JournalError::HeaderMissing) => {}
            Err(JournalError::Io(e)) if e.kind() == ErrorKind::NotFound => {}
            resumed => return resumed,
        }
        self.run_fresh(io, fleet, path, JournalOptions::default())
    }

    /// The write-ahead loop behind every journaled entry point: runs
    /// the jobs `journaled` does not hold, appends each result to
    /// `writer` before it is surfaced, merges journaled and fresh lines
    /// in fleet order, and seals. `writer` is `None` when the journal
    /// is sealed or could not be reopened; the remainder then runs
    /// non-durably.
    fn write_ahead(
        &self,
        fleet: &Fleet,
        journaled: Journaled,
        mut writer: Option<JournalWriter>,
        options: JournalOptions,
    ) -> Result<ResumeReport, JournalError> {
        let resumed_jobs = journaled.iter().flatten().count();
        self.metrics.add(Counter::ResumedJobs, resumed_jobs as u64);
        // The remainder runs as a dense sub-fleet (the runtime collects
        // by index, so indexes must be 0..k); `pending` maps back to
        // fleet jobs. With nothing journaled — a fresh run — the fleet
        // runs as-is.
        let pending: Vec<&Job> = (fleet.jobs().iter().zip(&journaled))
            .filter_map(|(job, slot)| slot.is_none().then_some(job))
            .collect();
        let sub_fleet;
        let remainder = if pending.len() == fleet.len() {
            fleet
        } else {
            sub_fleet = fleet.with_jobs(
                pending
                    .iter()
                    .enumerate()
                    .map(|(index, &job)| Job {
                        index,
                        ..job.clone()
                    })
                    .collect(),
            );
            &sub_fleet
        };

        let mut fatal: Option<JournalError> = None;
        let mut appended = 0u64;
        let mut retired = false;
        // Each journaled fresh job's digest line, rendered once for its
        // record and kept for the merge, by remainder index.
        let mut rendered: Vec<Option<String>> = vec![None; remainder.len()];
        let report = self.run_with_observer(remainder, |result| {
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
            let Some(w) = writer.as_mut().filter(|_| !retired) else {
                return; // no journal, or retired: non-durable mode
            };
            let record = Record::job_done(
                // bios-audit: allow(P-index) — result.index < remainder.len() (= pending.len()) by worker-pool contract
                pending[result.index].index as u64,
                result.disposition(),
                u64::from(result.attempts),
                result.digest_line(),
            );
            let written = w.append(&record);
            if let (Record::JobDone(done), Some(slot)) = (record, rendered.get_mut(result.index)) {
                *slot = Some(done.digest_line);
            }
            match written {
                Ok(()) => {
                    appended += 1;
                    if options.crash_after_jobs == Some(appended) {
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
                    // fleet finish non-durably.
                    self.metrics.add(Counter::JournalLost, 1);
                    retired = true;
                }
            }
        });
        if let Some(e) = fatal {
            return Err(e);
        }

        // Merge journaled and fresh lines in fleet order: the fresh
        // results arrive in remainder order, which is fleet order. A
        // fresh line is rendered here only when no record rendered it
        // (no journal, or a retired one).
        let mut outcome = FleetOutcome::default();
        let mut digest = String::new();
        let mut fresh = report.results.iter().zip(rendered);
        for slot in journaled {
            let (disposition, line) = match slot {
                Some(held) => held,
                None => match fresh.next() {
                    Some((result, line)) => (
                        result.disposition(),
                        line.unwrap_or_else(|| result.digest_line()),
                    ),
                    // Unreachable: every non-journaled job ran fresh.
                    None => continue,
                },
            };
            outcome.tally(disposition);
            digest.push_str(&line);
            digest.push('\n');
        }

        if let Some(w) = writer.as_mut() {
            if !retired {
                match w.seal(fleet.len() as u64, fnv1a(digest.as_bytes())) {
                    Ok(()) => {}
                    // The "process" is gone: its IO goes unbilled.
                    Err(e) if is_crash(&e) => return Err(e),
                    Err(_) => self.metrics.add(Counter::JournalLost, 1),
                }
            }
            // Bill the records the journal durably appended and the
            // transient retries it absorbed, retired or not.
            self.metrics
                .add(Counter::JournalRecords, w.records_written());
            self.metrics.add(Counter::JournalRetries, w.io_retries());
        }
        Ok(ResumeReport {
            fleet: fleet.name().to_owned(),
            total_jobs: fleet.len(),
            resumed_jobs,
            executed_jobs: report.results.len(),
            outcome,
            fresh: report,
            digest,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bios_core::catalog;
    use bios_recover::journal::JournalReader;

    fn temp_journal(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("bios-seal-{tag}-{}.journal", std::process::id()))
    }

    /// Rewrites the sealed journal at `path` record for record, each
    /// frame valid, with the seal replaced by `(jobs_done, digest)`.
    fn reseal(path: &Path, jobs_done: u64, digest: u64) {
        let loaded = match JournalReader::load(path) {
            Ok(l) => l,
            Err(e) => panic!("reference journal unreadable: {e:?}"),
        };
        let mut w = match JournalWriter::create(path, &loaded.header) {
            Ok(w) => w,
            Err(e) => panic!("rewrite failed: {e:?}"),
        };
        for job in loaded.jobs {
            if let Err(e) = w.append(&Record::JobDone(job)) {
                panic!("append failed: {e:?}");
            }
        }
        if let Err(e) = w.seal(jobs_done, digest) {
            panic!("seal failed: {e:?}");
        }
    }

    #[test]
    fn a_forged_seal_over_valid_frames_is_refused_on_resume() {
        let fleet = Fleet::builder("seal")
            .sensors(catalog::glucose_sensors())
            .seeds([1, 2])
            .build();
        let path = temp_journal("forged");
        let reference = match Runtime::with_workers(2).run_journaled(&fleet, &path) {
            Ok(r) => r,
            Err(e) => panic!("journaled run failed: {e:?}"),
        };
        let digest = fnv1a(reference.summaries_digest().as_bytes());
        let jobs = fleet.len() as u64;
        // The honest seal, rewritten the same way, still replays.
        reseal(&path, jobs, digest);
        match Runtime::with_workers(1).resume(&fleet, &path) {
            Ok(r) => assert_eq!(r.digest_fnv(), digest),
            Err(e) => panic!("honest seal refused: {e:?}"),
        }
        for (what, forged_jobs, forged_digest) in [
            ("digest", jobs, digest ^ 1),
            ("jobs_done", jobs + 1, digest),
        ] {
            reseal(&path, forged_jobs, forged_digest);
            match Runtime::with_workers(1).resume(&fleet, &path) {
                Err(JournalError::Corrupt(CodecError::ChecksumMismatch { stored, computed })) => {
                    assert_eq!((stored, computed), (forged_digest, digest), "{what}");
                }
                other => panic!("forged {what}: expected ChecksumMismatch, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
