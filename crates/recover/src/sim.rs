//! Deterministic storage-fault simulation: an injectable IO layer
//! under the durability stack.
//!
//! Every byte the durability layer writes — journal frames and
//! per-shard segments — goes through a [`StorageIo`]
//! backend. Production uses [`RealIo`], a thin passthrough to
//! `std::fs`. Tests and the torture gate use [`SimIo`], an in-memory
//! disk whose faults are a *pure function of (seed, op-index)* — the
//! same discipline `FaultPlan` applies to sensor physics, extended
//! FoundationDB-style to the syscall boundary:
//!
//! * **short writes** — a write partially reaches the device, then
//!   errors; the torn bytes stay on the simulated disk;
//! * **`ENOSPC`** — the device is full; nothing lands (permanent);
//! * **failed `sync_all`** — the data stays volatile (transient);
//! * **hard crashes** — the process "dies" at an op index: the op does
//!   not take effect, every later op fails with a recognizable crash
//!   error, and on [`SimIo::reboot`] each file keeps its synced bytes
//!   plus a seed-derived prefix of its unsynced tail (a power loss may
//!   persist any prefix of un-fsynced data).
//!
//! Op indices count *mutating* syscalls plus reads (create, open,
//! write, truncate, sync, read) in issue order, so a crash
//! schedule `crash_at(k)` is reproducible: same seed, same workload,
//! same surviving bytes. `exists` is a pure query and is not an op.
//!
//! Error classification mirrors the runtime's `JobError` taxonomy:
//! [`classify_io`] maps an `io::Error` to transient (worth a bounded
//! deterministic retry), permanent (`ENOSPC` — retire the journal
//! immediately), or crash (the simulated process is gone; only the
//! torture harness continues past it).

use std::collections::BTreeMap;
use std::fmt;
use std::fs::OpenOptions;
use std::io::{self, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use bios_prng::{fnv1a, SplitMix64};

/// An open, append-positioned file handle on a storage backend.
///
/// `io::Write` supplies `write`/`flush`; the two extra methods are the
/// durability points the journal writer needs.
pub trait StorageFile: io::Write + Send + fmt::Debug {
    /// Forces written bytes to stable storage (fsync).
    ///
    /// # Errors
    ///
    /// Backend failure; on [`SimIo`] a scripted sync fault.
    fn sync_all(&mut self) -> io::Result<()>;

    /// Truncates the file to `len` bytes and repositions the append
    /// cursor there — the repair step after a short write left torn
    /// bytes past the last trusted record.
    ///
    /// # Errors
    ///
    /// Backend failure; on [`SimIo`] a scripted crash.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
}

/// A storage backend: the four syscalls the durability stack is
/// allowed to issue. [`RealIo`] passes through to `std::fs`; [`SimIo`]
/// replays them against a deterministic in-memory disk.
pub trait StorageIo: Send + Sync + fmt::Debug {
    /// Creates (truncating any existing file) and opens for append.
    ///
    /// # Errors
    ///
    /// Backend failure; on [`SimIo`] a scripted `ENOSPC` or crash.
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;

    /// Opens an existing file, truncates it to `valid_len` (discarding
    /// a torn or corrupt tail), and positions for append.
    ///
    /// # Errors
    ///
    /// Backend failure, including a missing file.
    fn open_truncated(&self, path: &Path, valid_len: u64) -> io::Result<Box<dyn StorageFile>>;

    /// Reads the whole file.
    ///
    /// # Errors
    ///
    /// Backend failure, including a missing file.
    fn read_all(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Whether a file exists. A pure query, not an op.
    fn exists(&self, path: &Path) -> bool;
}

/// Production backend: a thin passthrough to `std::fs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RealIo;

#[derive(Debug)]
struct RealFile {
    file: std::fs::File,
}

impl io::Write for RealFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.file.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

impl StorageFile for RealFile {
    fn sync_all(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)?;
        self.file.seek(SeekFrom::Start(len))?;
        Ok(())
    }
}

impl StorageIo for RealIo {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Box::new(RealFile { file }))
    }

    fn open_truncated(&self, path: &Path, valid_len: u64) -> io::Result<Box<dyn StorageFile>> {
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Box::new(RealFile { file }))
    }

    fn read_all(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// The raw OS error code `ENOSPC` maps to (`StorageFull`).
pub const ENOSPC_RAW: i32 = 28;
/// The raw OS error code `EIO` maps to — the transient face of a
/// flaky device.
pub const EIO_RAW: i32 = 5;

/// What a journal writer should do with a failed IO op —
/// the storage-layer mirror of the runtime's `JobError` transient/
/// permanent split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoErrorClass {
    /// Worth a bounded deterministic retry (flaky device, `EIO`).
    Transient,
    /// Retrying cannot help (`ENOSPC`); retire the journal now.
    Permanent,
    /// The simulated process died at this op; nothing after it runs.
    Crash,
}

/// Classifies an IO error for the retry/retire decision.
#[must_use]
pub fn classify_io(e: &io::Error) -> IoErrorClass {
    if is_sim_crash(e) {
        IoErrorClass::Crash
    } else if e.raw_os_error() == Some(ENOSPC_RAW) || e.kind() == io::ErrorKind::StorageFull {
        IoErrorClass::Permanent
    } else {
        IoErrorClass::Transient
    }
}

/// The payload [`SimIo`] attaches to every op after a scripted crash.
#[derive(Debug)]
struct SimCrash {
    op: u64,
}

impl fmt::Display for SimCrash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulated process crash at io op {}", self.op)
    }
}

impl std::error::Error for SimCrash {}

/// Whether an IO error is a [`SimIo`] scripted crash — the torture
/// harness's signal that the "process" died and a resume should be
/// attempted against the surviving disk.
#[must_use]
pub fn is_sim_crash(e: &io::Error) -> bool {
    e.get_ref().is_some_and(|inner| inner.is::<SimCrash>())
}

fn crash_error(op: u64) -> io::Error {
    io::Error::other(SimCrash { op })
}

fn no_space_error() -> io::Error {
    io::Error::from_raw_os_error(ENOSPC_RAW)
}

fn sync_fail_error() -> io::Error {
    io::Error::from_raw_os_error(EIO_RAW)
}

fn short_write_error(wrote: usize, len: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::WriteZero,
        format!("simulated short write: {wrote} of {len} bytes reached the device"),
    )
}

/// Which syscall an op index belongs to; faults are kind-specific
/// (a sync cannot hit `ENOSPC`, only a write can short-write).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Create,
    Open,
    Write,
    Truncate,
    Sync,
    Read,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SimFault {
    ShortWrite,
    NoSpace,
    SyncFail,
    Crash,
}

/// A seeded fault schedule: which fault (if any) fires at each op
/// index. Pure in (seed, op-index, op-kind) — the storage-layer
/// sibling of `FaultPlan`, with per-mille rates instead of per-job
/// probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoFaultScript {
    seed: u64,
    short_write_per_mille: u16,
    no_space_per_mille: u16,
    sync_fail_per_mille: u16,
    crash_per_mille: u16,
    crash_at: Option<u64>,
}

impl IoFaultScript {
    /// A script that never faults: [`SimIo`] behaves as a perfect disk.
    #[must_use]
    pub fn healthy(seed: u64) -> IoFaultScript {
        IoFaultScript {
            seed,
            short_write_per_mille: 0,
            no_space_per_mille: 0,
            sync_fail_per_mille: 0,
            crash_per_mille: 0,
            crash_at: None,
        }
    }

    /// A script whose only fault is a hard crash at op index `op`.
    #[must_use]
    pub fn crash_at(seed: u64, op: u64) -> IoFaultScript {
        IoFaultScript {
            crash_at: Some(op),
            ..IoFaultScript::healthy(seed)
        }
    }

    /// The torture gate's default randomized mix: occasional short
    /// writes, rare `ENOSPC`, flaky syncs, and a small crash hazard at
    /// every op.
    #[must_use]
    pub fn mixed(seed: u64) -> IoFaultScript {
        IoFaultScript::healthy(seed).with_rates(25, 8, 40, 4)
    }

    /// Overrides the per-mille fault rates (clamped to 1000 total by
    /// the draw itself; rates are cumulative edges on one d1000 roll).
    #[must_use]
    pub fn with_rates(
        mut self,
        short_write_per_mille: u16,
        no_space_per_mille: u16,
        sync_fail_per_mille: u16,
        crash_per_mille: u16,
    ) -> IoFaultScript {
        self.short_write_per_mille = short_write_per_mille;
        self.no_space_per_mille = no_space_per_mille;
        self.sync_fail_per_mille = sync_fail_per_mille;
        self.crash_per_mille = crash_per_mille;
        self
    }

    fn roll(&self, op: u64) -> u64 {
        // One SplitMix64 step per draw, so a schedule is a pure
        // function of (seed, op-index).
        SplitMix64::new(self.seed ^ op.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64() % 1000
    }

    fn decide(&self, op: u64, kind: OpKind) -> Option<SimFault> {
        if self.crash_at == Some(op) {
            return Some(SimFault::Crash);
        }
        let roll = self.roll(op);
        let mut edge = u64::from(self.crash_per_mille);
        if roll < edge {
            return Some(SimFault::Crash);
        }
        match kind {
            OpKind::Write => {
                edge += u64::from(self.short_write_per_mille);
                if roll < edge {
                    return Some(SimFault::ShortWrite);
                }
                edge += u64::from(self.no_space_per_mille);
                if roll < edge {
                    return Some(SimFault::NoSpace);
                }
            }
            OpKind::Create => {
                edge += u64::from(self.no_space_per_mille);
                if roll < edge {
                    return Some(SimFault::NoSpace);
                }
            }
            OpKind::Sync => {
                edge += u64::from(self.sync_fail_per_mille);
                if roll < edge {
                    return Some(SimFault::SyncFail);
                }
            }
            OpKind::Open | OpKind::Truncate | OpKind::Read => {}
        }
        None
    }
}

/// One simulated file: its bytes plus how many of them have been
/// fsynced (and therefore survive a crash unconditionally).
#[derive(Debug, Default)]
struct SimFileState {
    bytes: Vec<u8>,
    synced_len: usize,
}

#[derive(Debug)]
struct SimState {
    files: BTreeMap<PathBuf, SimFileState>,
    script: IoFaultScript,
    ops: u64,
    crashed: bool,
}

impl SimState {
    /// Charges one op: fails if the process already crashed, draws the
    /// script's fault for this index, and applies crash semantics.
    fn next_op(&mut self, kind: OpKind) -> io::Result<(u64, Option<SimFault>)> {
        if self.crashed {
            return Err(crash_error(self.ops));
        }
        let op = self.ops;
        self.ops += 1;
        let fault = self.script.decide(op, kind);
        if fault == Some(SimFault::Crash) {
            self.crashed = true;
            self.apply_crash(op);
            return Err(crash_error(op));
        }
        Ok((op, fault))
    }

    /// Power-loss semantics: each file keeps its synced bytes plus a
    /// seed-derived prefix of its unsynced tail.
    fn apply_crash(&mut self, op: u64) {
        let seed = self.script.seed;
        for (path, file) in &mut self.files {
            let unsynced = file.bytes.len().saturating_sub(file.synced_len);
            if unsynced == 0 {
                continue;
            }
            let path_hash = fnv1a(path.as_os_str().as_encoded_bytes());
            let cut = SplitMix64::new(seed ^ op.rotate_left(23) ^ path_hash).next_u64() as usize
                % (unsynced + 1);
            let keep = file.synced_len + cut;
            file.bytes.truncate(keep);
            file.synced_len = keep;
        }
    }
}

fn lock_state(state: &Mutex<SimState>) -> MutexGuard<'_, SimState> {
    match state.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A deterministic in-memory disk with scripted faults. Cloning
/// shares the disk (the clone is another handle on the same state),
/// so a harness can hold one handle while the runtime writes through
/// another.
#[derive(Debug, Clone)]
pub struct SimIo {
    state: Arc<Mutex<SimState>>,
}

impl SimIo {
    /// A fresh empty disk driven by `script`.
    #[must_use]
    pub fn new(script: IoFaultScript) -> SimIo {
        SimIo {
            state: Arc::new(Mutex::new(SimState {
                files: BTreeMap::new(),
                script,
                ops: 0,
                crashed: false,
            })),
        }
    }

    /// A fresh disk that never faults.
    #[must_use]
    pub fn perfect(seed: u64) -> SimIo {
        SimIo::new(IoFaultScript::healthy(seed))
    }

    /// Ops issued so far (the next op gets this index).
    #[must_use]
    pub fn op_count(&self) -> u64 {
        lock_state(&self.state).ops
    }

    /// Replaces the fault script (for staged schedules: populate the
    /// disk healthily, then arm a crash).
    pub fn set_script(&self, script: IoFaultScript) {
        lock_state(&self.state).script = script;
    }

    /// Brings the "machine" back after a crash with a fault-free
    /// script: the surviving bytes are exactly what the power-loss
    /// rule kept (synced exactly, unsynced tail as a seed-derived
    /// prefix). No-op if no crash fired.
    pub fn reboot(&self) {
        let mut state = lock_state(&self.state);
        let seed = state.script.seed;
        state.crashed = false;
        state.script = IoFaultScript::healthy(seed);
    }

    /// The current bytes of a simulated file (None if absent).
    #[must_use]
    pub fn file_bytes(&self, path: &Path) -> Option<Vec<u8>> {
        lock_state(&self.state)
            .files
            .get(path)
            .map(|f| f.bytes.clone())
    }
}

#[derive(Debug)]
struct SimFile {
    state: Arc<Mutex<SimState>>,
    path: PathBuf,
}

impl io::Write for SimFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut state = lock_state(&self.state);
        let (op, fault) = state.next_op(OpKind::Write)?;
        let seed = state.script.seed;
        let Some(file) = state.files.get_mut(&self.path) else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "simulated file vanished",
            ));
        };
        match fault {
            None => {
                file.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            Some(SimFault::ShortWrite) => {
                let wrote = if buf.is_empty() {
                    0
                } else {
                    SplitMix64::new(seed ^ op.rotate_left(41)).next_u64() as usize % buf.len()
                };
                file.bytes
                    .extend_from_slice(buf.get(..wrote).unwrap_or(buf));
                Err(short_write_error(wrote, buf.len()))
            }
            Some(SimFault::NoSpace) => Err(no_space_error()),
            // `decide` never yields these for a write; keep the match
            // total without a panic.
            Some(SimFault::SyncFail | SimFault::Crash) => Err(sync_fail_error()),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        // Userspace flush; the sim has no buffering between the
        // handle and the "page cache", so this is free and infallible.
        Ok(())
    }
}

impl StorageFile for SimFile {
    fn sync_all(&mut self) -> io::Result<()> {
        let mut state = lock_state(&self.state);
        let (_, fault) = state.next_op(OpKind::Sync)?;
        if fault == Some(SimFault::SyncFail) {
            return Err(sync_fail_error());
        }
        let Some(file) = state.files.get_mut(&self.path) else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "simulated file vanished",
            ));
        };
        file.synced_len = file.bytes.len();
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        let mut state = lock_state(&self.state);
        state.next_op(OpKind::Truncate)?;
        let Some(file) = state.files.get_mut(&self.path) else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "simulated file vanished",
            ));
        };
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        file.bytes.truncate(len);
        file.synced_len = file.synced_len.min(len);
        Ok(())
    }
}

impl StorageIo for SimIo {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let mut state = lock_state(&self.state);
        let (_, fault) = state.next_op(OpKind::Create)?;
        if fault == Some(SimFault::NoSpace) {
            return Err(no_space_error());
        }
        state
            .files
            .insert(path.to_path_buf(), SimFileState::default());
        Ok(Box::new(SimFile {
            state: Arc::clone(&self.state),
            path: path.to_path_buf(),
        }))
    }

    fn open_truncated(&self, path: &Path, valid_len: u64) -> io::Result<Box<dyn StorageFile>> {
        let mut state = lock_state(&self.state);
        state.next_op(OpKind::Open)?;
        let Some(file) = state.files.get_mut(path) else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "no such simulated file",
            ));
        };
        let len = usize::try_from(valid_len).unwrap_or(usize::MAX);
        file.bytes.truncate(len);
        file.synced_len = file.synced_len.min(len);
        Ok(Box::new(SimFile {
            state: Arc::clone(&self.state),
            path: path.to_path_buf(),
        }))
    }

    fn read_all(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut state = lock_state(&self.state);
        state.next_op(OpKind::Read)?;
        match state.files.get(path) {
            Some(file) => Ok(file.bytes.clone()),
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                "no such simulated file",
            )),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        lock_state(&self.state).files.contains_key(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(name: &str) -> PathBuf {
        PathBuf::from(format!("/sim/{name}"))
    }

    #[test]
    fn scripts_are_pure_in_seed_and_op_index() {
        let script = IoFaultScript::mixed(42);
        for op in 0..512 {
            for kind in [OpKind::Write, OpKind::Sync, OpKind::Create] {
                assert_eq!(script.decide(op, kind), script.decide(op, kind));
            }
        }
        // Different seeds disagree somewhere in the first few hundred
        // ops (a vanishing-probability flake would mean splitmix64 is
        // broken).
        let other = IoFaultScript::mixed(43);
        assert!(
            (0..512).any(|op| script.decide(op, OpKind::Write) != other.decide(op, OpKind::Write))
        );
    }

    #[test]
    fn healthy_sim_round_trips_bytes() {
        let io = SimIo::perfect(1);
        let mut f = io.create(&p("a")).unwrap();
        f.write_all(b"hello ").unwrap();
        f.write_all(b"world").unwrap();
        f.sync_all().unwrap();
        drop(f);
        assert_eq!(io.read_all(&p("a")).unwrap(), b"hello world");
        assert!(io.exists(&p("a")));
        assert!(!io.exists(&p("b")));
    }

    #[test]
    fn short_write_leaves_partial_bytes_and_errors() {
        // Fault rate 1000‰ short writes: the first write must fail.
        let io = SimIo::new(IoFaultScript::healthy(7).with_rates(1000, 0, 0, 0));
        let mut f = io.create(&p("torn")).unwrap();
        let err = f.write_all(b"0123456789").unwrap_err();
        assert_eq!(classify_io(&err), IoErrorClass::Transient);
        let bytes = io.file_bytes(&p("torn")).unwrap();
        assert!(bytes.len() < 10, "short write must not complete");
        assert!(b"0123456789".starts_with(&bytes));
    }

    #[test]
    fn enospc_is_permanent_and_lands_nothing() {
        let io = SimIo::new(IoFaultScript::healthy(7).with_rates(0, 1000, 0, 0));
        // The create itself hits ENOSPC at op 0.
        let err = io.create(&p("full")).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(ENOSPC_RAW));
        assert_eq!(classify_io(&err), IoErrorClass::Permanent);
    }

    #[test]
    fn failed_sync_is_transient_and_keeps_data_volatile() {
        let io = SimIo::new(IoFaultScript::healthy(9).with_rates(0, 0, 1000, 0));
        let mut f = io.create(&p("v")).unwrap();
        f.write_all(b"volatile").unwrap();
        let err = f.sync_all().unwrap_err();
        assert_eq!(err.raw_os_error(), Some(EIO_RAW));
        assert_eq!(classify_io(&err), IoErrorClass::Transient);
    }

    #[test]
    fn crash_freezes_the_disk_until_reboot() {
        let io = SimIo::new(IoFaultScript::crash_at(3, 4));
        let mut f = io.create(&p("j")).unwrap(); // op 0
        f.write_all(b"aa").unwrap(); // op 1
        f.sync_all().unwrap(); // op 2
        f.write_all(b"bbbb").unwrap(); // op 3
        let err = f.sync_all().unwrap_err(); // op 4 → crash
        assert!(is_sim_crash(&err));
        assert_eq!(classify_io(&err), IoErrorClass::Crash);
        // Everything after the crash fails the same way.
        assert!(is_sim_crash(&f.write_all(b"x").unwrap_err()));
        assert!(is_sim_crash(&io.read_all(&p("j")).unwrap_err()));
        assert!(lock_state(&io.state).crashed);
        io.reboot();
        let bytes = io.read_all(&p("j")).unwrap();
        // Synced prefix always survives; the unsynced tail survives
        // only as a (possibly empty) prefix.
        assert!(bytes.len() >= 2 && bytes.len() <= 6);
        assert!(b"aabbbb".starts_with(&bytes));
    }

    #[test]
    fn crash_survival_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let io = SimIo::new(IoFaultScript::crash_at(seed, 3));
            let mut f = io.create(&p("d")).unwrap();
            f.write_all(b"0123456789abcdef").unwrap();
            f.sync_all().unwrap();
            f.write_all(b"TAIL-TAIL-TAIL").unwrap_err(); // op 3 → crash
            io.reboot();
            io.read_all(&p("d")).unwrap()
        };
        assert_eq!(run(5), run(5));
        // Synced bytes survive under every seed.
        assert!(run(5).len() >= 16 && run(6).len() >= 16);
    }

    #[test]
    fn real_io_round_trips_through_the_filesystem() {
        let dir = std::env::temp_dir().join("bios-recover-sim-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("real-{}.bin", std::process::id()));
        let io = RealIo;
        let mut f = io.create(&path).unwrap();
        f.write_all(b"0123456789").unwrap();
        f.sync_all().unwrap();
        f.truncate(4).unwrap();
        f.write_all(b"XY").unwrap();
        f.flush().unwrap();
        drop(f);
        assert_eq!(io.read_all(&path).unwrap(), b"0123XY");
        assert!(io.exists(&path));
        let mut f = io.open_truncated(&path, 4).unwrap();
        f.write_all(b"Z").unwrap();
        drop(f);
        assert_eq!(io.read_all(&path).unwrap(), b"0123Z");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_truncated_discards_the_torn_tail() {
        let io = SimIo::perfect(2);
        let mut f = io.create(&p("t")).unwrap();
        f.write_all(b"good-bytes").unwrap();
        f.sync_all().unwrap();
        f.write_all(b"torn").unwrap();
        drop(f);
        let mut f = io.open_truncated(&p("t"), 10).unwrap();
        f.write_all(b"-more").unwrap();
        drop(f);
        assert_eq!(io.read_all(&p("t")).unwrap(), b"good-bytes-more");
    }
}
