//! Little-endian field encoding and checksummed record framing.
//!
//! The one durable file the platform writes, the write-ahead run
//! journal (whole or as per-shard segments), has one wire discipline:
//!
//! * scalar fields are little-endian (`u32`/`u64`; `f64` travels as its
//!   IEEE-754 bit pattern, so round trips are *bit-exact*);
//! * strings are a `u32` byte length followed by UTF-8 bytes;
//! * a record frame is `[u32 payload_len][payload][u64 fnv1a(payload)]`.
//!
//! Readers never panic on hostile bytes: every decode path returns a
//! typed [`CodecError`] so callers can quarantine the corruption.

use std::io::{self, Read, Write};

// Frames are checksummed with the same FNV-1a the catalog and fault
// plans use for fingerprints, so durable files need no new hashing
// scheme.
use bios_prng::fnv1a;

/// The framing cannot describe payloads larger than this; a length
/// prefix beyond it is treated as corruption rather than honoured with
/// a giant allocation.
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// Why a decode failed. Every variant is recoverable by the caller
/// (typically: stop at the previous valid record).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The byte stream ended inside a field or frame.
    Truncated,
    /// A frame's stored checksum does not match its payload.
    ChecksumMismatch {
        /// Checksum recorded in the frame.
        stored: u64,
        /// Checksum computed over the payload actually read.
        computed: u64,
    },
    /// A length prefix exceeded [`MAX_PAYLOAD`].
    OversizedPayload {
        /// The declared payload length.
        declared: u32,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// An enum tag byte was outside its domain.
    BadTag {
        /// The unrecognized tag value.
        tag: u8,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "byte stream truncated mid-field"),
            CodecError::ChecksumMismatch { stored, computed } => write!(
                f,
                "frame checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            CodecError::OversizedPayload { declared } => {
                write!(f, "frame declares {declared} payload bytes (over the cap)")
            }
            CodecError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            CodecError::BadTag { tag } => write!(f, "unrecognized record tag {tag:#04x}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Accumulates an encoded payload.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Fresh, empty payload.
    #[must_use]
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// The encoded payload.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Decodes a payload produced by [`ByteWriter`]; every getter is
/// bounds-checked and returns [`CodecError::Truncated`] instead of
/// panicking when the bytes run out.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a payload for decoding.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let slice = self
            .pos
            .checked_add(n)
            .and_then(|end| self.buf.get(self.pos..end))
            .ok_or(CodecError::Truncated)?;
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        self.take(1)?.first().copied().ok_or(CodecError::Truncated)
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let b: [u8; 4] = self
            .take(4)?
            .try_into()
            .map_err(|_| CodecError::Truncated)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let b: [u8; 8] = self
            .take(8)?
            .try_into()
            .map_err(|_| CodecError::Truncated)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let len = self.get_u32()? as usize;
        if len > MAX_PAYLOAD as usize {
            return Err(CodecError::OversizedPayload {
                declared: len as u32,
            });
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }
}

/// Writes one checksummed frame: `[u32 len][payload][u64 fnv1a]`.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(payload.len() + 12);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&fnv1a(payload).to_le_bytes());
    // One write call per frame, so a crash can tear at most the frame
    // being written — never interleave two frames.
    w.write_all(&frame)
}

/// What reading one frame produced.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameRead {
    /// A complete, checksum-verified payload.
    Payload(Vec<u8>),
    /// Clean end of stream: zero bytes remained.
    Eof,
    /// The stream ended inside a frame — the torn tail a crash leaves.
    TornTail,
    /// The frame was complete but its checksum (or length prefix) is
    /// wrong: corruption, not a crash artifact.
    Corrupt(CodecError),
}

/// Reads one frame, distinguishing clean EOF, a torn (truncated) tail,
/// and outright corruption so the caller can quarantine precisely.
///
/// # Errors
///
/// Propagates underlying I/O errors; framing problems are reported in
/// [`FrameRead`], not as errors.
pub fn read_frame(r: &mut impl Read) -> io::Result<FrameRead> {
    let mut len_buf = [0u8; 4];
    match read_exact_or_eof(r, &mut len_buf)? {
        Fill::Empty => return Ok(FrameRead::Eof),
        Fill::Partial => return Ok(FrameRead::TornTail),
        Fill::Full => {}
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_PAYLOAD {
        return Ok(FrameRead::Corrupt(CodecError::OversizedPayload {
            declared: len,
        }));
    }
    let mut payload = vec![0u8; len as usize];
    match read_exact_or_eof(r, &mut payload)? {
        Fill::Full => {}
        Fill::Empty | Fill::Partial => return Ok(FrameRead::TornTail),
    }
    let mut sum_buf = [0u8; 8];
    match read_exact_or_eof(r, &mut sum_buf)? {
        Fill::Full => {}
        Fill::Empty | Fill::Partial => return Ok(FrameRead::TornTail),
    }
    let stored = u64::from_le_bytes(sum_buf);
    let computed = fnv1a(&payload);
    if stored != computed {
        return Ok(FrameRead::Corrupt(CodecError::ChecksumMismatch {
            stored,
            computed,
        }));
    }
    Ok(FrameRead::Payload(payload))
}

enum Fill {
    Full,
    Partial,
    Empty,
}

/// `read_exact` that reports how far it got instead of erroring at EOF.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<Fill> {
    let mut filled = 0;
    while filled < buf.len() {
        // bios-audit: allow(P-index) — `filled < buf.len()` is the loop guard
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    Fill::Empty
                } else {
                    Fill::Partial
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Fill::Full)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip_is_bit_exact() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_str("glucose/ours");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_str().unwrap(), "glucose/ours");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_reads_are_typed_not_panics() {
        let mut r = ByteReader::new(&[1, 2]);
        assert_eq!(r.get_u64(), Err(CodecError::Truncated));
        let mut r = ByteReader::new(&[5, 0, 0, 0, b'a']);
        assert_eq!(r.get_str(), Err(CodecError::Truncated));
    }

    #[test]
    fn bad_utf8_is_rejected() {
        let mut w = ByteWriter::new();
        w.put_u32(2);
        w.put_u8(0xFF);
        w.put_u8(0xFE);
        let bytes = w.into_bytes();
        assert_eq!(ByteReader::new(&bytes).get_str(), Err(CodecError::BadUtf8));
    }

    #[test]
    fn frame_round_trip() {
        let mut file = Vec::new();
        write_frame(&mut file, b"hello").unwrap();
        write_frame(&mut file, b"").unwrap();
        let mut cursor = std::io::Cursor::new(file);
        assert_eq!(
            read_frame(&mut cursor).unwrap(),
            FrameRead::Payload(b"hello".to_vec())
        );
        assert_eq!(
            read_frame(&mut cursor).unwrap(),
            FrameRead::Payload(Vec::new())
        );
        assert_eq!(read_frame(&mut cursor).unwrap(), FrameRead::Eof);
    }

    #[test]
    fn torn_tail_at_every_offset_is_detected() {
        let mut file = Vec::new();
        write_frame(&mut file, b"payload bytes").unwrap();
        for cut in 1..file.len() {
            let mut cursor = std::io::Cursor::new(&file[..cut]);
            match read_frame(&mut cursor).unwrap() {
                FrameRead::TornTail => {}
                other => panic!("cut at {cut}: expected TornTail, got {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flip_in_payload_or_checksum_is_corrupt() {
        let mut file = Vec::new();
        write_frame(&mut file, b"payload bytes").unwrap();
        // Flip one bit everywhere past the length prefix.
        for k in 4..file.len() {
            let mut bad = file.clone();
            bad[k] ^= 0x10;
            let mut cursor = std::io::Cursor::new(bad);
            match read_frame(&mut cursor).unwrap() {
                FrameRead::Corrupt(CodecError::ChecksumMismatch { .. }) => {}
                other => panic!("flip at {k}: expected corruption, got {other:?}"),
            }
        }
    }

    #[test]
    fn absurd_length_prefix_is_corrupt_not_alloc() {
        let mut file = Vec::new();
        file.extend_from_slice(&u32::MAX.to_le_bytes());
        file.extend_from_slice(&[0u8; 32]);
        let mut cursor = std::io::Cursor::new(file);
        assert!(matches!(
            read_frame(&mut cursor).unwrap(),
            FrameRead::Corrupt(CodecError::OversizedPayload { .. })
        ));
    }
}
