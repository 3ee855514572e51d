//! Journal robustness under byte-level damage.
//!
//! Property: for a valid journal, *any* single truncation or bit flip
//! yields either a clean load with correctly reduced contents or a
//! typed [`JournalError`] — never a panic and never a silently wrong
//! answer (jobs that survived the damage must decode verbatim).

// Test setup helpers abort on I/O failure like the tests themselves;
// clippy only auto-exempts `#[test]` functions.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;

use bios_recover::journal::{
    Disposition, JobDone, JournalError, JournalReader, JournalWriter, Record, RunHeader,
};
use bios_recover::RealIo;

fn temp_path(name: &str, tag: u64) -> PathBuf {
    let dir = std::env::temp_dir().join("bios-recover-robustness");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}-{tag}.journal", std::process::id()))
}

fn sample_jobs(n: u64) -> Vec<JobDone> {
    (0..n)
        .map(|i| JobDone {
            index: i,
            disposition: match i % 3 {
                0 => Disposition::Completed,
                1 => Disposition::Degraded,
                _ => Disposition::Failed,
            },
            attempts: i % 4 + 1,
            digest_line: format!("sensor-{i}/ours seed={i} summary={:.6}", i as f64 * 0.37),
        })
        .collect()
}

fn write_journal(path: &std::path::Path, jobs: &[JobDone], seal: bool) -> Vec<u8> {
    let header = RunHeader {
        fleet: "robustness".into(),
        fingerprint: 0x5EED_CAFE_F00D_D00D,
        jobs: jobs.len() as u64,
    };
    let mut w = JournalWriter::create(path, &header).unwrap();
    for j in jobs {
        w.append(&Record::JobDone(j.clone())).unwrap();
    }
    if seal {
        w.seal(jobs.len() as u64, 0x00DE_ADD1_6E57).unwrap();
    }
    std::fs::read(path).unwrap()
}

/// Loads must never report jobs that differ from what was written:
/// every surviving job record must match the original at its index
/// position in append order.
fn assert_no_silent_corruption(jobs_written: &[JobDone], loaded: &[JobDone]) {
    assert!(loaded.len() <= jobs_written.len());
    for (got, want) in loaded.iter().zip(jobs_written.iter()) {
        assert_eq!(got, want, "surviving record must decode verbatim");
    }
}

#[test]
fn truncation_at_every_offset_never_panics_or_lies() {
    let path = temp_path("truncate", 0);
    let jobs = sample_jobs(5);
    let full = write_journal(&path, &jobs, true);
    for cut in 0..full.len() {
        std::fs::write(&path, &full[..cut]).unwrap();
        match JournalReader::load_with(&RealIo, &path) {
            Ok(loaded) => {
                assert_no_silent_corruption(&jobs, &loaded.jobs);
                // A truncated file can never still claim to be sealed
                // unless the cut landed exactly after the seal record —
                // impossible here because cut < full.len().
                assert!(!loaded.sealed, "cut at {cut} cannot keep the seal");
                assert!(loaded.valid_len <= cut as u64);
            }
            Err(JournalError::BadMagic | JournalError::HeaderMissing) => {
                // Damage hit the magic or the header frame; typed error
                // is the correct outcome.
            }
            Err(other) => panic!("cut at {cut}: unexpected error {other}"),
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn bit_flip_at_every_offset_never_panics_or_lies() {
    let path = temp_path("flip", 0);
    let jobs = sample_jobs(4);
    let full = write_journal(&path, &jobs, true);
    for pos in 0..full.len() {
        for bit in [0x01u8, 0x80u8] {
            let mut damaged = full.clone();
            damaged[pos] ^= bit;
            std::fs::write(&path, &damaged).unwrap();
            match JournalReader::load_with(&RealIo, &path) {
                Ok(loaded) => {
                    assert_no_silent_corruption(&jobs, &loaded.jobs);
                }
                Err(
                    JournalError::BadMagic | JournalError::HeaderMissing | JournalError::Corrupt(_),
                ) => {}
                Err(other) => panic!("flip at {pos}: unexpected error {other}"),
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn random_multi_byte_damage_is_contained() {
    // Heavier randomized damage via the in-tree property driver: pick a
    // journal shape, splat random bytes over a random window, load.
    bios_prng::cases(0xB105_F00D, 64, |rng| {
        let tag = rng.next_u64();
        let path = temp_path("splat", tag);
        let jobs = sample_jobs(rng.next_u64() % 6 + 1);
        let seal = rng.next_u64() % 2 == 0;
        let mut bytes = write_journal(&path, &jobs, seal);
        let start = (rng.next_u64() as usize) % bytes.len();
        let len = ((rng.next_u64() as usize) % 16)
            .min(bytes.len() - start)
            .max(1);
        for b in &mut bytes[start..start + len] {
            *b = rng.next_u64() as u8;
        }
        std::fs::write(&path, &bytes).unwrap();
        match JournalReader::load_with(&RealIo, &path) {
            Ok(loaded) => assert_no_silent_corruption(&jobs, &loaded.jobs),
            Err(
                JournalError::BadMagic | JournalError::HeaderMissing | JournalError::Corrupt(_),
            ) => {}
            Err(other) => panic!("unexpected error {other}"),
        }
        std::fs::remove_file(&path).ok();
    });
}

#[test]
fn resume_after_damage_replays_only_trusted_records() {
    // The full crash story: damage the tail, load, truncate to
    // valid_len, append the remainder, and verify the reloaded journal
    // contains exactly written-prefix + appended-suffix.
    bios_prng::cases(0xC4A5_4E5A, 48, |rng| {
        let tag = rng.next_u64();
        let path = temp_path("resume", tag);
        let jobs = sample_jobs(5);
        let full = write_journal(&path, &jobs, false);
        // Cut somewhere after the magic so a header usually survives.
        let cut = 8 + (rng.next_u64() as usize) % (full.len() - 8);
        std::fs::write(&path, &full[..cut]).unwrap();
        let loaded = match JournalReader::load_with(&RealIo, &path) {
            Ok(l) => l,
            Err(JournalError::HeaderMissing) => {
                // Header itself was cut — a resume would restart from
                // scratch; nothing further to check here.
                std::fs::remove_file(&path).ok();
                return;
            }
            Err(other) => panic!("unexpected error {other}"),
        };
        let survived = loaded.jobs.len();
        assert_no_silent_corruption(&jobs, &loaded.jobs);
        let mut w = JournalWriter::open_resume_with(&RealIo, &path, loaded.valid_len).unwrap();
        for j in &jobs[survived..] {
            w.append(&Record::JobDone(j.clone())).unwrap();
        }
        w.seal(jobs.len() as u64, 0xF1A7).unwrap();
        let reloaded = JournalReader::load_with(&RealIo, &path).unwrap();
        assert!(reloaded.sealed);
        assert_eq!(
            reloaded.jobs, jobs,
            "resumed journal must equal uninterrupted one"
        );
        std::fs::remove_file(&path).ok();
    });
}
