//! Deterministic storage-torture harness.
//!
//! Enumerates seeded [`SimIo`] fault schedules against a fixed
//! journaled fleet and classifies every schedule into the trichotomy
//! the storage layer promises:
//!
//! 1. **Recovered** — the run (or the post-reboot resume) merged to
//!    the byte-identical digest of an uninterrupted run;
//! 2. **Typed error** — a [`JournalError`] / `io::Error` surfaced to
//!    the caller; nothing lied, nothing half-happened;
//! 3. **Degraded (metered)** — an append failure retired the journal
//!    mid-run, `journal_lost` incremented, and the fleet still
//!    completed with the correct digest.
//!
//! Anything else — a panic or a digest divergence — is a bug, counted
//! separately so `gate torture` can assert both stay zero. Every
//! schedule is a pure function of its seed: the same campaign re-runs
//! byte-identically on any machine.
//!
//! Three phases, which `gate torture` composes (it checks the two crash
//! sweeps separately from the mixed campaign):
//!
//! * [`crash_sweep`] — crash at **every** op index of a reference
//!   monolithic run (create, write, sync, read — each
//!   boundary), reboot, resume; must recover every time.
//! * [`sharded_crash_sweep`] — the same sweep over a
//!   [`ShardedRuntime`] run with per-shard segments, exercising the
//!   merged resume (missing and torn-header segments included).
//! * [`mixed_campaign`] — seeded schedules mixing short writes,
//!   `ENOSPC`, failed syncs, and crashes at scripted rates.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Duration;

use bios_core::catalog;
use bios_recover::{is_sim_crash, IoFaultScript, SimIo};
use bios_runtime::journal::JournalError;
use bios_runtime::{Fleet, JournalOptions, Runtime, RuntimeConfig};
use bios_shard::{ShardConfig, ShardedRuntime};

/// How one fault schedule terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleOutcome {
    /// Digest byte-identical to the uninterrupted run (possibly via a
    /// post-reboot resume).
    Recovered,
    /// Journal retired mid-run; `journal_lost` metered; digest still
    /// correct.
    Degraded,
    /// A typed `JournalError` surfaced to the caller.
    TypedError,
    /// The run or resume panicked — always a bug.
    Panicked,
    /// A run "succeeded" with the wrong digest — always a bug.
    Diverged,
}

/// Aggregate counts over a torture campaign.
#[derive(Debug, Default, Clone, Copy)]
pub struct TortureReport {
    /// Crash points enumerated by the sweep phases.
    pub crash_points: u64,
    /// Total schedules executed (sweeps + mixed).
    pub schedules: u64,
    /// Schedules that ended in [`ScheduleOutcome::Recovered`].
    pub recoveries: u64,
    /// Schedules that ended in [`ScheduleOutcome::Degraded`].
    pub degradations: u64,
    /// Schedules that ended in [`ScheduleOutcome::TypedError`].
    pub typed_errors: u64,
    /// Schedules that panicked (must stay 0).
    pub panics: u64,
    /// Schedules that silently diverged (must stay 0).
    pub divergences: u64,
}

impl TortureReport {
    fn record(&mut self, outcome: ScheduleOutcome) {
        self.schedules += 1;
        match outcome {
            ScheduleOutcome::Recovered => self.recoveries += 1,
            ScheduleOutcome::Degraded => self.degradations += 1,
            ScheduleOutcome::TypedError => self.typed_errors += 1,
            ScheduleOutcome::Panicked => self.panics += 1,
            ScheduleOutcome::Diverged => self.divergences += 1,
        }
    }

    /// Folds another phase's counts into this one.
    pub fn merge(&mut self, other: &TortureReport) {
        self.crash_points += other.crash_points;
        self.schedules += other.schedules;
        self.recoveries += other.recoveries;
        self.degradations += other.degradations;
        self.typed_errors += other.typed_errors;
        self.panics += other.panics;
        self.divergences += other.divergences;
    }
}

/// The fixed torture fleet. No physics chaos — the storage layer is
/// the thing under test — and the digest must be reproducible across
/// every schedule.
#[must_use]
pub fn torture_fleet() -> Fleet {
    Fleet::builder("torture")
        .sensors(catalog::all_table2())
        .seeds(0..2)
        .build()
}

/// A fresh runtime per schedule: metrics (`journal_lost`) must belong
/// to exactly one run, and the memo cache must not leak digests across
/// schedules.
fn torture_runtime() -> Runtime {
    Runtime::new(
        RuntimeConfig::default()
            .with_workers(2)
            .with_cache(false)
            .with_retry_backoff(Duration::from_micros(10)),
    )
}

/// The golden digest: an uninterrupted, un-journaled run.
#[must_use]
pub fn golden_digest(fleet: &Fleet) -> String {
    torture_runtime().run(fleet).summaries_digest()
}

/// Runs the fleet journaled on a healthy simulated disk and returns
/// the op count of the reference schedule — the number of crash
/// points the sweep will enumerate.
///
/// # Errors
///
/// A human-readable message when even the healthy simulated run fails
/// or does not match `golden` — the harness itself is then broken and
/// the gate must fail before sweeping.
pub fn reference_op_count(fleet: &Fleet, golden: &str) -> Result<u64, String> {
    let io = SimIo::perfect(0x7041);
    let report = torture_runtime()
        .run_journaled_on(&io, fleet, sim_path(), JournalOptions::default())
        .map_err(|e| format!("healthy simulated run failed: {e}"))?;
    if report.summaries_digest() != golden {
        return Err("healthy SimIo run does not match the golden digest".to_owned());
    }
    Ok(io.op_count())
}

fn sim_path() -> PathBuf {
    PathBuf::from("/sim/torture.journal")
}

fn sim_dir() -> PathBuf {
    PathBuf::from("/sim/torture-shards")
}

/// Is this a simulated-crash `JournalError`?
fn is_crash_error(e: &JournalError) -> bool {
    matches!(e, JournalError::Io(io_err) if is_sim_crash(io_err))
}

/// Classifies one monolithic schedule end to end.
fn run_one_schedule(fleet: &Fleet, golden: &str, script: IoFaultScript) -> ScheduleOutcome {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let io = SimIo::new(script);
        let path = sim_path();
        let runtime = torture_runtime();
        match runtime.run_journaled_on(&io, fleet, &path, JournalOptions::default()) {
            Ok(report) => {
                if report.summaries_digest() != golden {
                    return ScheduleOutcome::Diverged;
                }
                if runtime.metrics().journal_lost > 0 {
                    ScheduleOutcome::Degraded
                } else {
                    ScheduleOutcome::Recovered
                }
            }
            Err(e) if is_crash_error(&e) => {
                // The process "died"; reboot the disk (same seed,
                // faults disarmed) and recover from what survived.
                io.reboot();
                match torture_runtime().recover_on(&io, fleet, &path) {
                    Ok(report) if report.summaries_digest() == golden => ScheduleOutcome::Recovered,
                    Ok(_) => ScheduleOutcome::Diverged,
                    Err(_) => ScheduleOutcome::TypedError,
                }
            }
            Err(_) => ScheduleOutcome::TypedError,
        }
    }));
    outcome.unwrap_or(ScheduleOutcome::Panicked)
}

/// Phase A: crash at **every** op index `0..reference_ops` of the
/// monolithic journaled run. Every one of these schedules must end in
/// [`ScheduleOutcome::Recovered`]; the gate asserts
/// `recoveries == crash_points` for this phase.
#[must_use]
pub fn crash_sweep(fleet: &Fleet, golden: &str, reference_ops: u64) -> TortureReport {
    let mut report = TortureReport {
        crash_points: reference_ops,
        ..TortureReport::default()
    };
    for op in 0..reference_ops {
        report.record(run_one_schedule(
            fleet,
            golden,
            IoFaultScript::crash_at(op, op),
        ));
    }
    report
}

/// One sharded schedule: run per-shard segments on the scripted disk,
/// reboot on crash, merged-resume to the golden digest.
fn run_one_sharded_schedule(
    fleet: &Fleet,
    golden: &str,
    config: &ShardConfig,
    script: IoFaultScript,
) -> ScheduleOutcome {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let io = SimIo::new(script);
        let dir = sim_dir();
        let sharded = ShardedRuntime::new(config);
        match sharded.run_journaled_on(&io, fleet, &dir) {
            Ok(report) => {
                if report.summaries_digest() != golden {
                    return ScheduleOutcome::Diverged;
                }
                let lost: u64 = (0..sharded.shards())
                    .filter_map(|i| sharded.shard(i))
                    .map(|rt| rt.metrics().journal_lost)
                    .sum();
                if lost > 0 {
                    ScheduleOutcome::Degraded
                } else {
                    ScheduleOutcome::Recovered
                }
            }
            Err(e) if is_crash_error(&e) => {
                io.reboot();
                match ShardedRuntime::new(config).resume_on(&io, fleet, &dir) {
                    Ok(report) if report.summaries_digest() == golden => ScheduleOutcome::Recovered,
                    Ok(_) => ScheduleOutcome::Diverged,
                    Err(_) => ScheduleOutcome::TypedError,
                }
            }
            Err(_) => ScheduleOutcome::TypedError,
        }
    }));
    outcome.unwrap_or(ScheduleOutcome::Panicked)
}

/// The fixed shard layout for the sharded sweep.
fn torture_shard_config() -> ShardConfig {
    ShardConfig::default()
        .with_shards(3)
        .with_workers_per_shard(2)
}

/// Phase B: the crash sweep over a [`ShardedRuntime`] — one journal
/// segment per shard, crash at every op index of the sharded
/// reference run, merged resume (missing and torn-header segments
/// tolerated) back to the golden digest.
///
/// # Errors
///
/// A human-readable message when the healthy sharded reference run
/// fails or does not match `golden` (broken harness, not a schedule
/// outcome).
pub fn sharded_crash_sweep(fleet: &Fleet, golden: &str) -> Result<TortureReport, String> {
    let config = torture_shard_config();
    // Sharded reference run: op count and digest parity.
    let io = SimIo::perfect(0x7042);
    let reference = ShardedRuntime::new(&config)
        .run_journaled_on(&io, fleet, sim_dir())
        .map_err(|e| format!("healthy sharded run failed: {e}"))?;
    if reference.summaries_digest() != golden {
        return Err("healthy sharded SimIo run does not match the golden digest".to_owned());
    }
    let ops = io.op_count();
    let mut report = TortureReport {
        crash_points: ops,
        ..TortureReport::default()
    };
    for op in 0..ops {
        report.record(run_one_sharded_schedule(
            fleet,
            golden,
            &config,
            IoFaultScript::crash_at(op, op),
        ));
    }
    Ok(report)
}

/// Phase C: `schedules` randomized-but-seeded fault mixes
/// ([`IoFaultScript::mixed`]: short writes, `ENOSPC`, failed syncs,
/// and crashes at scripted per-mille rates) over the monolithic run.
/// Every schedule must land in the trichotomy.
#[must_use]
pub fn mixed_campaign(
    fleet: &Fleet,
    golden: &str,
    schedules: u64,
    base_seed: u64,
) -> TortureReport {
    let mut report = TortureReport::default();
    for i in 0..schedules {
        report.record(run_one_schedule(
            fleet,
            golden,
            IoFaultScript::mixed(base_seed.wrapping_add(i)),
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_campaign_lands_entirely_in_the_trichotomy() {
        let fleet = torture_fleet();
        let golden = golden_digest(&fleet);
        let ops = match reference_op_count(&fleet, &golden) {
            Ok(n) => n,
            Err(e) => panic!("{e}"),
        };
        assert!(ops > 10, "reference run should cross many syscalls");
        let sweep = crash_sweep(&fleet, &golden, ops.min(6));
        assert_eq!(
            (sweep.panics, sweep.divergences),
            (0, 0),
            "sweep must not panic or diverge: {sweep:?}"
        );
        assert_eq!(
            sweep.recoveries, sweep.schedules,
            "every crash must recover"
        );
        let mixed = mixed_campaign(&fleet, &golden, 8, 0xA5);
        assert_eq!(
            (mixed.panics, mixed.divergences),
            (0, 0),
            "mixed must not panic or diverge: {mixed:?}"
        );
        assert_eq!(
            mixed.recoveries + mixed.degradations + mixed.typed_errors,
            mixed.schedules
        );
    }
}
