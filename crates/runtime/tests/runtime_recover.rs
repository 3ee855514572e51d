//! Crash-resume integration: a journaled fleet killed mid-run must
//! resume to the **byte-identical** digest an uninterrupted run would
//! have produced, at any worker count; a damaged journal must yield a
//! typed error or a correct partial resume, never a panic; and an
//! armed watchdog must cancel injected stalls deterministically while
//! the fleet still completes.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use bios_core::catalog;
use bios_faults::{FaultKind, FaultPlan};
use bios_prng::cases;
use bios_recover::RealIo;
use bios_runtime::journal::JournalError;
use bios_runtime::{Fleet, JobError, JournalOptions, Runtime, RuntimeConfig};

/// Unique temp path per test so parallel tests never collide.
fn temp_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bios-recover-{tag}-{}.journal", std::process::id()))
}

/// A plan with enough variety that the journal sees all three
/// dispositions: clean completions, degraded survivors, and failures.
fn mixed_plan() -> FaultPlan {
    FaultPlan::builder("recover-suite", 0xDEC0DE)
        .spec(FaultKind::TransientGlitch, 0.6, 0.4)
        .spec(FaultKind::WorkerPanic, 0.2, 1.0)
        .spec(FaultKind::FilmDenaturation, 0.5, 0.6)
        .build()
}

fn mixed_fleet(seed: u64) -> Fleet {
    Fleet::builder("recover")
        .sensors(catalog::all_table2())
        .seed(seed)
        .fault_plan(mixed_plan())
        .build()
}

fn config(workers: usize) -> RuntimeConfig {
    RuntimeConfig::default()
        .with_workers(workers)
        .with_cache(false)
        .with_retry_backoff(Duration::from_micros(10))
}

/// Byte offsets of every frame boundary in a journal file: the end of
/// the magic, then the end of each `[u32 len][payload][u64 fnv]` frame.
fn frame_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut boundaries = vec![8]; // after magic
    let mut at = 8usize;
    while at + 4 <= bytes.len() {
        let len =
            u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]) as usize;
        let end = at + 4 + len + 8;
        if end > bytes.len() {
            break;
        }
        at = end;
        boundaries.push(at);
    }
    boundaries
}

#[test]
fn kill_and_resume_merges_to_byte_identical_digest() {
    let fleet = mixed_fleet(42);
    let ref_path = temp_journal("ref");
    let reference = Runtime::new(config(4))
        .run_journaled(&fleet, &ref_path)
        .expect("uninterrupted journaled run");
    let ref_digest = reference.summaries_digest();
    let ref_outcome = reference.outcome_summary();
    let sealed = fs::read(&ref_path).expect("read sealed journal");
    fs::remove_file(&ref_path).ok();

    let boundaries = frame_boundaries(&sealed);
    // boundaries = [magic, header, job1, .., jobN, seal]; crash points
    // must keep the header (a journal without one is not resumable).
    assert!(boundaries.len() >= fleet.len() + 3);
    let header_end = boundaries[1];
    let crash_points = [
        header_end,                           // died before any job landed
        boundaries[2],                        // exactly one job journaled
        boundaries[boundaries.len() / 2],     // mid-fleet
        boundaries[boundaries.len() - 2],     // all jobs, seal lost
        boundaries[boundaries.len() / 2] + 3, // torn mid-frame write
    ];

    for (i, &cut) in crash_points.iter().enumerate() {
        for workers in [1usize, 2, 8] {
            let path = temp_journal(&format!("cut{i}-w{workers}"));
            fs::write(&path, &sealed[..cut]).expect("write truncated journal");

            let runtime = Runtime::new(config(workers));
            let resumed = runtime
                .resume(&fleet, &path)
                .expect("resume from truncated journal");
            assert_eq!(
                resumed.summaries_digest(),
                ref_digest,
                "cut at {cut} bytes, {workers} workers: digest must be byte-identical"
            );
            assert_eq!(resumed.outcome, ref_outcome);
            assert_eq!(resumed.total_jobs, fleet.len());
            assert_eq!(resumed.resumed_jobs + resumed.executed_jobs, fleet.len());
            let metrics = runtime.metrics();
            assert_eq!(metrics.resumed_jobs, resumed.resumed_jobs as u64);
            assert!(metrics.journal_records > 0 || resumed.executed_jobs == 0);

            // The resume sealed the journal: a second resume is a pure
            // replay that executes nothing and agrees byte for byte.
            let replay = Runtime::new(config(workers))
                .resume(&fleet, &path)
                .expect("replay of sealed journal");
            assert_eq!(replay.executed_jobs, 0);
            assert_eq!(replay.resumed_jobs, fleet.len());
            assert_eq!(replay.summaries_digest(), ref_digest);
            fs::remove_file(&path).ok();
        }
    }
}

#[test]
fn resume_of_foreign_journal_is_a_fingerprint_mismatch() {
    let path = temp_journal("foreign");
    let fleet = mixed_fleet(1);
    Runtime::new(config(2))
        .run_journaled(&fleet, &path)
        .expect("journaled run");

    // Same sensors, different seed: different run, same shape.
    let other_seed = mixed_fleet(2);
    match Runtime::new(config(2)).resume(&other_seed, &path) {
        Err(JournalError::FingerprintMismatch { journal, current }) => {
            assert_ne!(journal, current);
        }
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }

    // Same seed, different fault plan: also a different run.
    let other_plan = Fleet::builder("recover")
        .sensors(catalog::all_table2())
        .seed(1)
        .build();
    assert!(matches!(
        Runtime::new(config(2)).resume(&other_plan, &path),
        Err(JournalError::FingerprintMismatch { .. })
    ));
    fs::remove_file(&path).ok();
}

#[test]
fn damaged_journals_never_panic_and_resume_stays_correct() {
    let fleet = mixed_fleet(7);
    let ref_path = temp_journal("damage-ref");
    let reference = Runtime::new(config(2))
        .run_journaled(&fleet, &ref_path)
        .expect("journaled run");
    let ref_digest = reference.summaries_digest();
    let sealed = fs::read(&ref_path).expect("read sealed journal");
    fs::remove_file(&ref_path).ok();

    // Checksums make any in-place damage detectable, so a resume either
    // fails with a typed error (damage reached the magic or header) or
    // quarantines the damaged suffix and recomputes it — in which case
    // the merged digest must still be byte-identical to the reference.
    cases(0xBAD_5EED, 48, |rng| {
        let mut bytes = sealed.clone();
        match rng.index(3) {
            0 => {
                // Flip one bit anywhere.
                let at = rng.index(bytes.len());
                bytes[at] ^= 1 << rng.index(8);
            }
            1 => {
                // Truncate anywhere, including inside the magic.
                bytes.truncate(rng.index(bytes.len() + 1));
            }
            _ => {
                // Flip a bit, then truncate after it.
                let at = rng.index(bytes.len());
                bytes[at] ^= 1 << rng.index(8);
                let keep = rng.index_in(at.min(bytes.len() - 1), bytes.len() + 1);
                bytes.truncate(keep);
            }
        }
        let path = temp_journal(&format!("damage-{}", rng.next_u64()));
        fs::write(&path, &bytes).expect("write damaged journal");
        match Runtime::new(config(2)).resume(&fleet, &path) {
            Ok(resumed) => assert_eq!(
                resumed.summaries_digest(),
                ref_digest,
                "a resume that accepts a damaged journal must still be exact"
            ),
            Err(
                JournalError::BadMagic
                | JournalError::HeaderMissing
                | JournalError::Corrupt { .. }
                | JournalError::FingerprintMismatch { .. }
                | JournalError::Io(_),
            ) => {}
        }
        fs::remove_file(&path).ok();
    });
}

#[test]
fn stalled_workers_are_cancelled_and_the_fleet_completes() {
    let plan = FaultPlan::builder("stall-suite", 0x57A11)
        .spec(FaultKind::WorkerStall, 0.5, 1.0)
        .spec(FaultKind::FilmDenaturation, 0.4, 0.5)
        .build();
    let fleet = Fleet::builder("stall")
        .sensors(catalog::all_table2())
        .seed(9)
        .fault_plan(plan)
        .build();

    // Reference: watchdog unarmed (zero deadline) renders every injected
    // stall synchronously as the same typed loss, single-threaded.
    let unarmed = Runtime::new(config(1));
    let ref_report = unarmed.run_sequential(&fleet);
    let ref_digest = ref_report.summaries_digest();
    let stalled_jobs = ref_report
        .failures()
        .filter(|(_, e)| matches!(e, JobError::Deadline))
        .count();
    assert!(stalled_jobs > 0, "the stall plan must bite");
    assert!(
        stalled_jobs < fleet.len(),
        "some jobs must survive to prove the fleet kept running"
    );
    assert_eq!(unarmed.metrics().deadline_kills, stalled_jobs as u64);
    assert_eq!(unarmed.metrics().stalled_workers, 0);

    // Armed: stalls actually livelock in solver code until the
    // supervisor trips their token; the worker that absorbed the stall
    // retires and is healed. The rendered outcome is identical.
    for workers in [2usize, 8] {
        let runtime = Runtime::new(config(workers).with_job_deadline(Duration::from_millis(25)));
        let report = runtime.run(&fleet);
        assert_eq!(
            report.summaries_digest(),
            ref_digest,
            "{workers} workers, armed watchdog: digest must match unarmed sequential"
        );
        assert_eq!(report.outcome_summary().total(), fleet.len());
        let metrics = runtime.metrics();
        assert_eq!(metrics.deadline_kills, stalled_jobs as u64);
        assert!(
            metrics.stalled_workers > 0,
            "armed run must retire at least one stalled worker"
        );
    }
}

#[test]
fn crash_option_is_inert_when_unreached() {
    // crash_after_jobs beyond the fleet size must never fire; the run
    // seals normally and replays cleanly.
    let fleet = mixed_fleet(3);
    let path = temp_journal("inert");
    let report = Runtime::new(config(2))
        .run_journaled_on(
            &RealIo,
            &fleet,
            &path,
            JournalOptions {
                crash_after_jobs: Some(u64::MAX),
            },
        )
        .expect("journaled run");
    let replay = Runtime::new(config(2))
        .resume(&fleet, &path)
        .expect("replay");
    assert_eq!(replay.executed_jobs, 0);
    assert_eq!(replay.summaries_digest(), report.summaries_digest());
    fs::remove_file(&path).ok();
}

/// The reference digest and sealed bytes of an uninterrupted journaled
/// run of `fleet`.
fn sealed_reference(fleet: &Fleet, tag: &str) -> Result<(String, Vec<u8>), JournalError> {
    let path = temp_journal(tag);
    let reference = Runtime::new(config(2)).run_journaled(fleet, &path)?;
    let sealed = fs::read(&path)?;
    fs::remove_file(&path).ok();
    Ok((reference.summaries_digest(), sealed))
}

#[test]
fn recover_runs_fresh_when_the_crash_left_nothing_trustworthy() {
    let fleet = mixed_fleet(11);
    let (ref_digest, sealed) = sealed_reference(&fleet, "policy-ref").expect("reference run");
    // No file at all, a magic torn mid-write, and a magic whose header
    // never reached the disk.
    let wrecks: [(&str, Option<&[u8]>); 3] = [
        ("missing", None),
        ("torn-magic", Some(&sealed[..5])),
        ("magic-only", Some(&sealed[..8])),
    ];
    for (tag, bytes) in wrecks {
        let path = temp_journal(&format!("policy-{tag}"));
        fs::remove_file(&path).ok();
        if let Some(bytes) = bytes {
            fs::write(&path, bytes).expect("write wrecked journal");
        }
        let recovered = Runtime::new(config(2))
            .recover_on(&RealIo, &fleet, &path)
            .expect("recover runs fresh");
        assert_eq!(recovered.summaries_digest(), ref_digest, "{tag}");
        assert_eq!(recovered.resumed_jobs, 0, "{tag}");
        assert_eq!(recovered.executed_jobs, fleet.len(), "{tag}");
        // The fresh run journaled and sealed: resuming it replays.
        let replay = Runtime::new(config(2))
            .resume(&fleet, &path)
            .expect("replay of the recovered journal");
        assert_eq!(replay.executed_jobs, 0, "{tag}");
        assert_eq!(replay.resumed_jobs, fleet.len(), "{tag}");
        assert_eq!(replay.summaries_digest(), ref_digest, "{tag}");
        fs::remove_file(&path).ok();
    }
}

#[test]
fn recover_refuses_foreign_and_damaged_journals() {
    let fleet = mixed_fleet(12);
    let (_, sealed) = sealed_reference(&fleet, "refuse-ref").expect("reference run");
    // Recovery refuses, and leaves the bytes it refused untouched.
    let refuse = |fleet: &Fleet, bytes: &[u8], tag: &str| {
        let path = temp_journal(&format!("refuse-{tag}"));
        fs::write(&path, bytes).expect("write journal");
        let refused = Runtime::new(config(2)).recover_on(&RealIo, fleet, &path);
        assert_eq!(fs::read(&path).expect("reread journal"), bytes, "{tag}");
        fs::remove_file(&path).ok();
        refused
    };
    assert!(matches!(
        refuse(&mixed_fleet(13), &sealed, "foreign"),
        Err(JournalError::FingerprintMismatch { .. })
    ));
    // A flipped bit in the first body record fails its frame checksum.
    let mut flipped = sealed.clone();
    flipped[frame_boundaries(&sealed)[1] + 6] ^= 0x10;
    assert!(matches!(
        refuse(&fleet, &flipped, "flipped"),
        Err(JournalError::Corrupt(_))
    ));
}

#[test]
fn results_crossing_batch_boundaries_match_the_sequential_reference() {
    // 612 jobs: one worker runs chunks of 153 (batches of 64, 64, 25),
    // two workers chunks of 77 (64, 13), so every chunk sends more than
    // one batch and the last batch of each is short.
    let fleet = Fleet::builder("batches")
        .sensors(catalog::all_table2())
        .seeds(0..34)
        .fault_plan(mixed_plan())
        .build();
    assert_eq!(fleet.len(), 612);
    let reference = Runtime::new(config(1))
        .run_sequential(&fleet)
        .summaries_digest();
    for workers in [1, 2] {
        let report = Runtime::new(config(workers)).run(&fleet);
        assert_eq!(report.summaries_digest(), reference, "{workers} workers");
    }

    let path = temp_journal("batches");
    let runtime = Runtime::new(config(2));
    let journaled = runtime.run_journaled(&fleet, &path).expect("journaled run");
    assert_eq!(journaled.summaries_digest(), reference);
    // The header, one `JobDone` per job, and the seal.
    assert_eq!(runtime.metrics().journal_records, fleet.len() as u64 + 2);
    let bytes = fs::read(&path).expect("read sealed journal");
    // The boundaries after the magic, after the header, after each job
    // and after the seal.
    assert_eq!(frame_boundaries(&bytes).len(), fleet.len() + 3);

    let replay = Runtime::new(config(1))
        .resume(&fleet, &path)
        .expect("replay sealed journal");
    assert_eq!(replay.executed_jobs, 0);
    assert_eq!(replay.resumed_jobs, fleet.len());
    assert_eq!(replay.summaries_digest(), reference);
    fs::remove_file(&path).ok();
}
