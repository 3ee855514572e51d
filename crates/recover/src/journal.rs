//! Append-only write-ahead run journal.
//!
//! ## File layout
//!
//! ```text
//! +----------+  8-byte magic "BIOSJRN1"
//! | magic    |
//! +----------+
//! | frame 0  |  RunHeader   — fleet name, plan fingerprint, job count
//! +----------+
//! | frame 1  |  JobDone     — index, disposition, attempts, digest line
//! | ...      |
//! +----------+
//! | frame N  |  RunSealed   — jobs done, digest of the full run
//! +----------+
//! ```
//!
//! Each frame is `[u32 len][payload][u64 fnv1a(payload)]` (see
//! [`crate::codec`]). Every append reaches the OS (no user-space
//! buffer) before the corresponding result is surfaced to the caller —
//! write-ahead, so process death (`kill -9`, OOM) loses at most work
//! that was never reported done. Records reach stable storage only at
//! [`JournalWriter::seal`]'s `sync_all`: a power loss before the seal
//! may drop unsynced records, and a resume re-executes them
//! bit-identically.
//!
//! ## Reader tolerance
//!
//! * A **torn tail** (crash mid-append) is expected: the reader stops at
//!   the last complete record and reports `truncated_tail`.
//! * A **corrupt record** (checksum mismatch, bad tag, short payload) is
//!   quarantined: the reader stops *before* it — once the framing is
//!   untrusted, everything after the first bad byte is untrusted — and
//!   reports it in `corrupt_records`. Nothing panics.
//! * `valid_len` is the byte offset of the last trusted record; a
//!   resume writer truncates the file there before appending.
//! * The reader reports a seal as it finds it. Checking it against the
//!   records is the resumer's job: `bios_runtime`'s resume refuses a
//!   sealed journal whose `jobs_done` is not the fleet's size or whose
//!   digest is not the FNV-1a of the merged digest lines.
//!
//! ## Storage backend and write-path faults
//!
//! Every byte goes through a [`crate::sim::StorageIo`] backend: the
//! `*_with` constructors take one explicitly, and the plain
//! [`JournalWriter::create`] defaults to [`RealIo`]. Append failures are classified like the
//! runtime classifies job errors ([`crate::sim::classify_io`]):
//! *transient* failures (a flaky `EIO`, a short write) truncate the
//! torn bytes back to the last trusted length and retry with bounded
//! deterministic backoff; *permanent* failures (`ENOSPC`) and
//! simulated crashes surface immediately so the caller can retire the
//! journal or die honestly.

use std::io::{self, Write};
use std::path::Path;
use std::time::Duration;

use crate::codec::{self, ByteReader, ByteWriter, CodecError, FrameRead};
use crate::sim::{classify_io, IoErrorClass, RealIo, StorageFile, StorageIo};

/// Eight-byte file magic; the trailing digit versions the format.
pub const MAGIC: &[u8; 8] = b"BIOSJRN1";

/// How a journaled job finished — the runtime's three-way outcome
/// classification, flattened for durable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Disposition {
    /// Job succeeded cleanly.
    Completed,
    /// Job succeeded but needed retries or absorbed injected faults.
    Degraded,
    /// Job failed with a typed error.
    Failed,
}

impl Disposition {
    fn tag(self) -> u8 {
        match self {
            Disposition::Completed => 0,
            Disposition::Degraded => 1,
            Disposition::Failed => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<Disposition, CodecError> {
        match tag {
            0 => Ok(Disposition::Completed),
            1 => Ok(Disposition::Degraded),
            2 => Ok(Disposition::Failed),
            other => Err(CodecError::BadTag { tag: other }),
        }
    }
}

impl std::fmt::Display for Disposition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Disposition::Completed => write!(f, "completed"),
            Disposition::Degraded => write!(f, "degraded"),
            Disposition::Failed => write!(f, "failed"),
        }
    }
}

/// The journal's opening record: identifies *which* run this journal
/// belongs to so a stale file can never alias a different fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunHeader {
    /// Fleet name (informational; not part of the fingerprint).
    pub fleet: String,
    /// Fingerprint over (sensor set, protocol, fault plan, seeds).
    pub fingerprint: u64,
    /// Total jobs the run will execute.
    pub jobs: u64,
}

/// One completed job, appended before its result is surfaced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobDone {
    /// Submission-order index of the job within the fleet.
    pub index: u64,
    /// How the job finished.
    pub disposition: Disposition,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u64,
    /// The job's digest line — the exact text the fleet digest hashes,
    /// so a resumed run can reproduce the digest byte-for-byte.
    pub digest_line: String,
}

/// A journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// Run identity; always the first record.
    RunHeader(RunHeader),
    /// One finished job.
    JobDone(JobDone),
    /// Terminal record: the run finished and the journal is complete.
    RunSealed {
        /// Number of jobs recorded.
        jobs_done: u64,
        /// FNV-1a digest of the whole run's digest lines.
        digest: u64,
    },
}

impl Record {
    /// Convenience constructor for a [`Record::JobDone`].
    #[must_use]
    pub fn job_done(
        index: u64,
        disposition: Disposition,
        attempts: u64,
        digest_line: String,
    ) -> Record {
        Record::JobDone(JobDone {
            index,
            disposition,
            attempts,
            digest_line,
        })
    }

    const TAG_HEADER: u8 = 1;
    const TAG_JOB_DONE: u8 = 2;
    const TAG_SEALED: u8 = 3;

    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Record::RunHeader(h) => {
                w.put_u8(Record::TAG_HEADER);
                w.put_str(&h.fleet);
                w.put_u64(h.fingerprint);
                w.put_u64(h.jobs);
            }
            Record::JobDone(j) => {
                w.put_u8(Record::TAG_JOB_DONE);
                w.put_u64(j.index);
                w.put_u8(j.disposition.tag());
                w.put_u64(j.attempts);
                w.put_str(&j.digest_line);
            }
            Record::RunSealed { jobs_done, digest } => {
                w.put_u8(Record::TAG_SEALED);
                w.put_u64(*jobs_done);
                w.put_u64(*digest);
            }
        }
        w.into_bytes()
    }

    fn decode(payload: &[u8]) -> Result<Record, CodecError> {
        let mut r = ByteReader::new(payload);
        let tag = r.get_u8()?;
        let record = match tag {
            Record::TAG_HEADER => Record::RunHeader(RunHeader {
                fleet: r.get_str()?,
                fingerprint: r.get_u64()?,
                jobs: r.get_u64()?,
            }),
            Record::TAG_JOB_DONE => {
                let index = r.get_u64()?;
                let disposition = Disposition::from_tag(r.get_u8()?)?;
                let attempts = r.get_u64()?;
                let digest_line = r.get_str()?;
                Record::JobDone(JobDone {
                    index,
                    disposition,
                    attempts,
                    digest_line,
                })
            }
            Record::TAG_SEALED => Record::RunSealed {
                jobs_done: r.get_u64()?,
                digest: r.get_u64()?,
            },
            other => return Err(CodecError::BadTag { tag: other }),
        };
        if r.remaining() != 0 {
            // Trailing bytes inside a checksummed payload means the
            // writer and reader disagree on the schema — corruption.
            return Err(CodecError::Truncated);
        }
        Ok(record)
    }
}

/// Why a journal could not be written or read.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// The file does not start with [`MAGIC`] — not a journal, or a
    /// journal from an incompatible format version.
    BadMagic,
    /// The file has no readable `RunHeader` record — nothing to resume.
    HeaderMissing,
    /// The header exists but its fingerprint does not match the run the
    /// caller is trying to resume; resuming would alias a different
    /// (sensor set, protocol, plan, seed) combination.
    FingerprintMismatch {
        /// Fingerprint stored in the journal.
        journal: u64,
        /// Fingerprint of the run the caller is executing.
        current: u64,
    },
    /// A record failed to decode (checksum, tag, or framing).
    Corrupt(CodecError),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::BadMagic => {
                write!(f, "file is not a bios run journal (bad magic)")
            }
            JournalError::HeaderMissing => {
                write!(f, "journal has no readable run header")
            }
            JournalError::FingerprintMismatch { journal, current } => write!(
                f,
                "journal belongs to a different run: journal fingerprint {journal:#018x}, \
                 current run {current:#018x}"
            ),
            JournalError::Corrupt(e) => write!(f, "journal record corrupt: {e}"),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            JournalError::Corrupt(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> JournalError {
        JournalError::Io(e)
    }
}

/// Transient IO failures get this many attempts (first try included)
/// before the error surfaces and the caller retires the journal.
pub const JOURNAL_IO_ATTEMPTS: u32 = 3;

/// Deterministic backoff before transient-IO retry `attempt`
/// (0-based): 100µs doubling, capped at 2ms. Pure in the attempt
/// number — no clock reads, so replay stays deterministic.
#[must_use]
pub fn journal_backoff(attempt: u32) -> Duration {
    let micros = 100u64.saturating_mul(1u64 << attempt.min(10));
    Duration::from_micros(micros.min(2_000))
}

/// Appends records write-ahead: each append reaches the OS before it
/// returns, so a record outlives process death (`kill -9`, OOM).
/// Records reach stable storage only at [`JournalWriter::seal`]'s
/// `sync_all`; a power loss before the seal may drop unsynced records,
/// which a resume re-executes bit-identically.
#[derive(Debug)]
pub struct JournalWriter {
    file: Box<dyn StorageFile>,
    records: u64,
    /// Bytes of trusted, fully-appended frames (magic included) — the
    /// truncation point when a failed append leaves torn bytes.
    len: u64,
    io_retries: u64,
}

impl JournalWriter {
    /// Creates a fresh journal (truncating any existing file) and
    /// writes the magic plus the `RunHeader` record, on [`RealIo`].
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem failure.
    pub fn create(path: &Path, header: &RunHeader) -> Result<JournalWriter, JournalError> {
        JournalWriter::create_with(&RealIo, path, header)
    }

    /// [`JournalWriter::create`] on an explicit storage backend.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on backend failure (a failed create is
    /// *not* retried: with no journal yet there is nothing to repair,
    /// and the caller decides between erroring and running
    /// non-durable).
    pub fn create_with(
        io: &dyn StorageIo,
        path: &Path,
        header: &RunHeader,
    ) -> Result<JournalWriter, JournalError> {
        let mut file = io.create(path)?;
        file.write_all(MAGIC)?;
        let mut writer = JournalWriter {
            file,
            records: 0,
            len: MAGIC.len() as u64,
            io_retries: 0,
        };
        writer.append(&Record::RunHeader(header.clone()))?;
        Ok(writer)
    }

    /// Reopens an existing journal for resumption: truncates the file
    /// to `valid_len` (discarding any torn or corrupt tail a crash
    /// left) and positions for appending.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on backend failure.
    pub fn open_resume_with(
        io: &dyn StorageIo,
        path: &Path,
        valid_len: u64,
    ) -> Result<JournalWriter, JournalError> {
        let file = io.open_truncated(path, valid_len)?;
        Ok(JournalWriter {
            file,
            records: 0,
            len: valid_len,
            io_retries: 0,
        })
    }

    /// Appends one record and flushes it to the OS. Transient IO
    /// failures truncate the torn bytes and retry (bounded,
    /// deterministic backoff); permanent failures and crashes surface
    /// on the first strike.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] once retries are exhausted or the failure
    /// is not retryable.
    pub fn append(&mut self, record: &Record) -> Result<(), JournalError> {
        let payload = record.encode();
        let mut attempt: u32 = 0;
        loop {
            match self.try_append(&payload) {
                Ok(()) => {
                    self.records += 1;
                    return Ok(());
                }
                Err(e) => match classify_io(&e) {
                    IoErrorClass::Permanent | IoErrorClass::Crash => {
                        return Err(JournalError::Io(e));
                    }
                    IoErrorClass::Transient => {
                        if attempt + 1 >= JOURNAL_IO_ATTEMPTS {
                            return Err(JournalError::Io(e));
                        }
                        // A failed frame write may have landed a prefix;
                        // cut back to the last trusted byte before the
                        // retry so the journal never holds torn frames
                        // followed by good ones.
                        self.file.truncate(self.len).map_err(JournalError::Io)?;
                        std::thread::sleep(journal_backoff(attempt));
                        self.io_retries += 1;
                        attempt += 1;
                    }
                },
            }
        }
    }

    fn try_append(&mut self, payload: &[u8]) -> io::Result<()> {
        codec::write_frame(&mut self.file, payload)?;
        self.file.flush()?;
        self.len += 4 + payload.len() as u64 + 8;
        Ok(())
    }

    /// Appends the terminal `RunSealed` record and syncs the file to
    /// stable storage. The sync gets the same transient-retry
    /// treatment as appends.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] once retries are exhausted or the failure
    /// is not retryable.
    pub fn seal(&mut self, jobs_done: u64, digest: u64) -> Result<(), JournalError> {
        self.append(&Record::RunSealed { jobs_done, digest })?;
        self.sync_retrying()
    }

    /// Forces appended records to stable storage, retrying transient
    /// sync failures with bounded deterministic backoff.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] once retries are exhausted or the failure
    /// is not retryable.
    pub fn sync_retrying(&mut self) -> Result<(), JournalError> {
        let mut attempt: u32 = 0;
        loop {
            match self.file.sync_all() {
                Ok(()) => return Ok(()),
                Err(e) => match classify_io(&e) {
                    IoErrorClass::Permanent | IoErrorClass::Crash => {
                        return Err(JournalError::Io(e));
                    }
                    IoErrorClass::Transient => {
                        if attempt + 1 >= JOURNAL_IO_ATTEMPTS {
                            return Err(JournalError::Io(e));
                        }
                        std::thread::sleep(journal_backoff(attempt));
                        self.io_retries += 1;
                        attempt += 1;
                    }
                },
            }
        }
    }

    /// Records appended through this writer (header and seal included).
    #[must_use]
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Transient-IO retries this writer absorbed (metrics feed).
    #[must_use]
    pub fn io_retries(&self) -> u64 {
        self.io_retries
    }

    /// Bytes of trusted, fully-appended frames.
    #[must_use]
    pub fn bytes_written(&self) -> u64 {
        self.len
    }
}

/// Everything a journal file yielded, including how much of it could
/// be trusted.
#[derive(Debug)]
pub struct LoadedJournal {
    /// The run identity record.
    pub header: RunHeader,
    /// Completed jobs, in journal (append) order.
    pub jobs: Vec<JobDone>,
    /// Seal record contents, if the run finished: `(jobs_done, digest)`.
    pub seal: Option<(u64, u64)>,
    /// Whether the journal ends with a `RunSealed` record.
    pub sealed: bool,
    /// Whether the file ended mid-record (crash artifact; benign).
    pub truncated_tail: bool,
    /// Records quarantined for failing checksum/decode. Reading stops
    /// at the first one — framing after it is untrusted.
    pub corrupt_records: u64,
    /// The decode error of the first corrupt record, when any. Strict
    /// consumers (a merged shard resume, for instance) refuse to trust
    /// a journal whose *body* failed its checksum instead of silently
    /// re-executing past it — a corrupt body is tampering or bit rot,
    /// not the benign torn tail a crash leaves.
    pub corrupt_error: Option<CodecError>,
    /// Byte offset of the end of the last trusted record; a resume
    /// writer truncates the file here before appending.
    pub valid_len: u64,
}

/// Reads a journal, tolerating torn tails and quarantining corruption.
#[derive(Debug)]
pub struct JournalReader;

impl JournalReader {
    /// Loads and validates a journal file from `io`.
    ///
    /// # Errors
    ///
    /// * [`JournalError::Io`] — the file cannot be read at all;
    /// * [`JournalError::BadMagic`] — not a journal / wrong version;
    /// * [`JournalError::HeaderMissing`] — no trusted `RunHeader`
    ///   (truncated or corrupted before the first record ended);
    /// * [`JournalError::Corrupt`] — the *first* record decoded but was
    ///   not a `RunHeader`, so the file's structure is wrong.
    ///
    /// Torn tails and corrupt records *after* the header are not
    /// errors: they are reported in the returned [`LoadedJournal`].
    pub fn load_with(io: &dyn StorageIo, path: &Path) -> Result<LoadedJournal, JournalError> {
        let bytes = io.read_all(path)?;
        let mut reader = io::Cursor::new(bytes);
        let mut magic = [0u8; 8];
        match io::Read::read_exact(&mut reader, &mut magic) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                return Err(JournalError::BadMagic);
            }
            Err(e) => return Err(JournalError::Io(e)),
        }
        if &magic != MAGIC {
            return Err(JournalError::BadMagic);
        }

        let mut header: Option<RunHeader> = None;
        let mut jobs = Vec::new();
        let mut seal = None;
        let mut truncated_tail = false;
        let mut corrupt_records = 0u64;
        let mut corrupt_error: Option<CodecError> = None;
        let mut valid_len = MAGIC.len() as u64;

        loop {
            let frame = codec::read_frame(&mut reader)?;
            match frame {
                FrameRead::Eof => break,
                FrameRead::TornTail => {
                    truncated_tail = true;
                    break;
                }
                FrameRead::Corrupt(e) => {
                    // Once one frame fails its checksum, the length
                    // prefixes after it cannot be trusted to delimit
                    // records; quarantine and stop.
                    corrupt_records += 1;
                    corrupt_error = Some(e);
                    break;
                }
                FrameRead::Payload(payload) => {
                    let frame_len = 4 + payload.len() as u64 + 8;
                    match Record::decode(&payload) {
                        Ok(Record::RunHeader(h)) => {
                            if header.is_some() {
                                // A second header mid-file is structural
                                // corruption; stop before it.
                                corrupt_records += 1;
                                corrupt_error = Some(CodecError::BadTag {
                                    tag: Record::TAG_HEADER,
                                });
                                break;
                            }
                            header = Some(h);
                        }
                        Ok(Record::JobDone(j)) => {
                            if header.is_none() {
                                return Err(JournalError::Corrupt(CodecError::BadTag {
                                    tag: Record::TAG_JOB_DONE,
                                }));
                            }
                            jobs.push(j);
                        }
                        Ok(Record::RunSealed { jobs_done, digest }) => {
                            if header.is_none() {
                                return Err(JournalError::Corrupt(CodecError::BadTag {
                                    tag: Record::TAG_SEALED,
                                }));
                            }
                            seal = Some((jobs_done, digest));
                            valid_len += frame_len;
                            // A seal is terminal; trailing bytes after
                            // it are not part of the run.
                            break;
                        }
                        Err(e) => {
                            corrupt_records += 1;
                            corrupt_error = Some(e);
                            break;
                        }
                    }
                    valid_len += frame_len;
                }
            }
        }

        let header = header.ok_or(JournalError::HeaderMissing)?;
        Ok(LoadedJournal {
            header,
            jobs,
            sealed: seal.is_some(),
            seal,
            truncated_tail,
            corrupt_records,
            corrupt_error,
            valid_len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("bios-recover-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.journal", std::process::id()))
    }

    fn sample_header() -> RunHeader {
        RunHeader {
            fleet: "unit".into(),
            fingerprint: 0xABCD_EF01_2345_6789,
            jobs: 3,
        }
    }

    fn write_sample(path: &Path, seal: bool) {
        let mut w = JournalWriter::create(path, &sample_header()).unwrap();
        w.append(&Record::job_done(
            0,
            Disposition::Completed,
            1,
            "glucose/ours seed=0 ok".into(),
        ))
        .unwrap();
        w.append(&Record::job_done(
            2,
            Disposition::Degraded,
            3,
            "lactate/ours seed=2 degraded".into(),
        ))
        .unwrap();
        if seal {
            w.seal(2, 0xD16E57).unwrap();
        }
    }

    #[test]
    fn round_trip_sealed_journal() {
        let path = temp_path("round-trip");
        write_sample(&path, true);
        let loaded = JournalReader::load_with(&RealIo, &path).unwrap();
        assert_eq!(loaded.header, sample_header());
        assert_eq!(loaded.jobs.len(), 2);
        assert_eq!(loaded.jobs[0].index, 0);
        assert_eq!(loaded.jobs[1].disposition, Disposition::Degraded);
        assert_eq!(loaded.jobs[1].attempts, 3);
        assert_eq!(loaded.jobs[1].digest_line, "lactate/ours seed=2 degraded");
        assert!(loaded.sealed);
        assert_eq!(loaded.seal, Some((2, 0xD16E57)));
        assert!(!loaded.truncated_tail);
        assert_eq!(loaded.corrupt_records, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unsealed_journal_reads_cleanly() {
        let path = temp_path("unsealed");
        write_sample(&path, false);
        let loaded = JournalReader::load_with(&RealIo, &path).unwrap();
        assert!(!loaded.sealed);
        assert_eq!(loaded.jobs.len(), 2);
        assert!(!loaded.truncated_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_keeps_complete_records() {
        let path = temp_path("torn");
        write_sample(&path, false);
        let full = std::fs::read(&path).unwrap();
        // Cut 5 bytes into the final record's frame.
        let cut = full.len() - 5;
        std::fs::write(&path, &full[..cut]).unwrap();
        let loaded = JournalReader::load_with(&RealIo, &path).unwrap();
        assert_eq!(loaded.jobs.len(), 1);
        assert!(loaded.truncated_tail);
        assert_eq!(loaded.corrupt_records, 0);
        assert!(loaded.valid_len < cut as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_is_quarantined_not_panic() {
        let path = temp_path("flip");
        write_sample(&path, true);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit in the middle of the second job record.
        let k = bytes.len() / 2;
        bytes[k] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        match JournalReader::load_with(&RealIo, &path) {
            Ok(loaded) => {
                // Must have stopped at or before the damaged record.
                assert!(
                    loaded.corrupt_records > 0 || loaded.truncated_tail || loaded.jobs.len() < 2
                );
            }
            Err(e) => {
                // Typed error is also acceptable (flip hit the header).
                let _ = e.to_string();
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_body_surfaces_first_error() {
        let path = temp_path("corrupt-body");
        write_sample(&path, true);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the first job record's digest-line string:
        // the frame checksum no longer matches, deterministically.
        let at = bytes.windows(7).position(|w| w == b"glucose").unwrap();
        bytes[at] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let loaded = JournalReader::load_with(&RealIo, &path).unwrap();
        assert_eq!(loaded.jobs.len(), 0);
        assert_eq!(loaded.corrupt_records, 1);
        assert!(matches!(
            loaded.corrupt_error,
            Some(CodecError::ChecksumMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn not_a_journal_is_bad_magic() {
        let path = temp_path("magic");
        std::fs::write(&path, b"definitely not a journal").unwrap();
        assert!(matches!(
            JournalReader::load_with(&RealIo, &path),
            Err(JournalError::BadMagic)
        ));
        std::fs::write(&path, b"BIO").unwrap();
        assert!(matches!(
            JournalReader::load_with(&RealIo, &path),
            Err(JournalError::BadMagic)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_only_truncation_is_header_missing() {
        let path = temp_path("headerless");
        write_sample(&path, false);
        let full = std::fs::read(&path).unwrap();
        // Keep the magic plus a sliver of the header frame.
        std::fs::write(&path, &full[..10]).unwrap();
        assert!(matches!(
            JournalReader::load_with(&RealIo, &path),
            Err(JournalError::HeaderMissing)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_resume_truncates_garbage_tail() {
        let path = temp_path("resume");
        write_sample(&path, false);
        let loaded = JournalReader::load_with(&RealIo, &path).unwrap();
        let valid_len = loaded.valid_len;
        // Simulate a crash leaving garbage after the last good record.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xFF; 7]).unwrap();
        }
        let mut w = JournalWriter::open_resume_with(&RealIo, &path, valid_len).unwrap();
        w.append(&Record::job_done(
            1,
            Disposition::Completed,
            1,
            "cholesterol/ours seed=1 ok".into(),
        ))
        .unwrap();
        w.seal(3, 0xFEED).unwrap();
        let reloaded = JournalReader::load_with(&RealIo, &path).unwrap();
        assert_eq!(reloaded.jobs.len(), 3);
        assert!(reloaded.sealed);
        assert!(!reloaded.truncated_tail);
        assert_eq!(reloaded.corrupt_records, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn transient_write_faults_retry_and_keep_the_journal_parseable() {
        use crate::sim::{IoFaultScript, SimIo};
        // A moderate short-write rate: across seeds, some appends fail
        // once and succeed on retry. The retry must truncate the torn
        // bytes so the journal stays parseable end to end.
        let mut saw_retry = false;
        for seed in 0..64u64 {
            let io = SimIo::new(IoFaultScript::healthy(seed).with_rates(250, 0, 0, 0));
            let path = PathBuf::from("/sim/retry.journal");
            let Ok(mut w) = JournalWriter::create_with(&io, &path, &sample_header()) else {
                continue; // retries exhausted on this seed; fine
            };
            let mut appended = 0u64;
            for i in 0..6u64 {
                let rec = Record::job_done(i, Disposition::Completed, 1, format!("job {i} ok"));
                match w.append(&rec) {
                    Ok(()) => appended += 1,
                    Err(_) => break,
                }
            }
            saw_retry |= w.io_retries() > 0;
            let loaded = JournalReader::load_with(&io, &path).unwrap();
            assert_eq!(
                loaded.jobs.len() as u64,
                appended,
                "every acknowledged append must be readable (seed {seed})"
            );
            assert_eq!(
                loaded.corrupt_records, 0,
                "retries must not leave torn frames"
            );
        }
        assert!(saw_retry, "some seed must exercise the retry path");
    }

    #[test]
    fn enospc_retires_immediately_without_retry() {
        use crate::sim::{IoFaultScript, SimIo};
        let io = SimIo::perfect(11);
        let path = PathBuf::from("/sim/full.journal");
        let mut w = JournalWriter::create_with(&io, &path, &sample_header()).unwrap();
        // Disk fills up mid-run: every write now hits ENOSPC.
        io.set_script(IoFaultScript::healthy(11).with_rates(0, 1000, 0, 0));
        let err = w
            .append(&Record::job_done(0, Disposition::Completed, 1, "x".into()))
            .unwrap_err();
        assert!(matches!(err, JournalError::Io(ref e)
            if crate::sim::classify_io(e) == crate::sim::IoErrorClass::Permanent));
        assert_eq!(w.io_retries(), 0, "permanent errors must not be retried");
        // The journal up to the failure is still intact and readable.
        io.set_script(IoFaultScript::healthy(11));
        let loaded = JournalReader::load_with(&io, &path).unwrap();
        assert_eq!(loaded.jobs.len(), 0);
        assert_eq!(loaded.header, sample_header());
    }

    #[test]
    fn backoff_is_bounded_and_deterministic() {
        assert_eq!(journal_backoff(0), Duration::from_micros(100));
        assert_eq!(journal_backoff(1), Duration::from_micros(200));
        assert!(journal_backoff(30) <= Duration::from_millis(2));
        assert_eq!(journal_backoff(5), journal_backoff(5));
    }

    #[test]
    fn trailing_bytes_after_seal_are_ignored() {
        let path = temp_path("post-seal");
        write_sample(&path, true);
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"junk after seal").unwrap();
        }
        let loaded = JournalReader::load_with(&RealIo, &path).unwrap();
        assert!(loaded.sealed);
        assert_eq!(loaded.jobs.len(), 2);
        std::fs::remove_file(&path).ok();
    }
}
