//! # bios-recover
//!
//! Durability primitives for crash-resumable fleet runs: the platform's
//! answer to the recover-from-checkpoint discipline that unattended
//! clinical monitoring demands. A fleet that loses hours of calibration
//! sweeps to one process death is clinically useless, so every run can
//! be journaled to disk *before* its results are surfaced and replayed
//! after a crash.
//!
//! Four pieces, all on `std` only (the build environment is offline):
//!
//! * [`codec`] — length-prefixed, FNV-1a-checksummed record framing and
//!   little-endian field encoding shared by every durable file format;
//! * [`journal`] — the append-only write-ahead run journal
//!   ([`journal::JournalWriter`] / [`journal::JournalReader`]) with a
//!   reader that tolerates torn tails and quarantines corrupt records
//!   instead of panicking;
//! * [`sim`] — the injectable storage backend ([`sim::StorageIo`]):
//!   [`sim::RealIo`] passes through to `std::fs`, [`sim::SimIo`]
//!   replays the same syscalls against a deterministic in-memory disk
//!   whose short writes, `ENOSPC`, failed syncs, and hard crashes are
//!   a pure function of (seed, op-index) — [`sim::IoFaultScript`];
//! * the error taxonomy ([`JournalError`]) — every failure mode of a
//!   durable file is a typed, displayable error; nothing in this crate
//!   panics on hostile bytes.
//!
//! The crate is a leaf: it knows nothing about sensors, physics, or the
//! runtime. `bios-runtime` builds its crash-resume layer on top of these
//! primitives.
//!
//! ```
//! use bios_recover::journal::{JournalWriter, JournalReader, Record, RunHeader};
//! use bios_recover::RealIo;
//!
//! let dir = std::env::temp_dir().join("bios-recover-doc");
//! std::fs::create_dir_all(&dir)?;
//! let path = dir.join("run.journal");
//! let mut w = JournalWriter::create(&path, &RunHeader {
//!     fleet: "doc".into(),
//!     fingerprint: 0xFEED,
//!     jobs: 2,
//! })?;
//! w.append(&Record::job_done(0, bios_recover::journal::Disposition::Completed, 1,
//!     "glucose/ours seed=0 ...".into()))?;
//! w.seal(1, 0xD16E57)?;
//! let loaded = JournalReader::load_with(&RealIo, &path)?;
//! assert_eq!(loaded.header.fingerprint, 0xFEED);
//! assert!(loaded.sealed);
//! # std::fs::remove_file(&path).ok();
//! # Ok::<(), bios_recover::JournalError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod journal;
pub mod sim;

pub use bios_prng::{fnv1a, Fnv1a};
pub use journal::JournalError;
pub use sim::{is_sim_crash, IoFaultScript, RealIo, SimIo, StorageIo};
