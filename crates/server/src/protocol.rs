//! The wire protocol: versioned, length-prefixed frames.
//!
//! Every message — request or response — is one *frame*:
//!
//! ```text
//! +----------------+--------+--------------------+
//! | length: u32 BE | verb:u8| payload (UTF-8)    |
//! +----------------+--------+--------------------+
//! ```
//!
//! `length` counts the verb byte plus the payload (so it is always ≥ 1;
//! a zero length is [`ProtocolError::Empty`]) and is capped at
//! [`MAX_FRAME`] ([`ProtocolError::Oversized`] beyond — the reader never
//! allocates attacker-controlled amounts). Payloads are UTF-8 text with
//! newline-separated fields; documents and scripts travel as the
//! library's term syntax (single-line by construction), so the protocol
//! needs no escaping.
//!
//! Malformed input — truncated frames, oversized lengths, unknown verbs,
//! non-UTF-8 payloads — is always a typed [`ProtocolError`], never a
//! panic; the fuzz tests in this crate drive exactly those paths.
//!
//! ## Verbs
//!
//! | verb | payload | Ok payload |
//! |------|---------|------------|
//! | [`Verb::Hello`] | `xvu <version>` | `xvu <version>` |
//! | [`Verb::Load`] | `doc_id\nfamily\n<term>` | — |
//! | [`Verb::Open`] | `doc_id` | view term with ids |
//! | [`Verb::Propagate`] | `doc_id\n<update term>` | `cost\ncount\n<script term>` |
//! | [`Verb::Verify`] | `doc_id\n<update>\n<candidate>` | — |
//! | [`Verb::Count`] | `doc_id\n<update term>` | `count` |
//! | [`Verb::Commit`] | `doc_id` | — |
//! | [`Verb::CloseDoc`] | `doc_id` | — |
//! | [`Verb::Stats`] | — | stats JSON |
//! | [`Verb::Shutdown`] | — | final stats JSON |
//! | [`Verb::Snapshot`] | `path` | `docs=<n> bytes=<n>` |
//!
//! Responses reuse the verb byte: [`Verb::Ok`], [`Verb::Err`] (payload:
//! message), or [`Verb::Retry`] (payload: suggested backoff in
//! milliseconds — the admission controller pushing back).

use std::fmt;
use std::io::{ErrorKind, Read, Write};

/// Protocol version, exchanged in [`Verb::Hello`]. Bump on any wire
/// format change.
pub const PROTOCOL_VERSION: u32 = 2;

/// Hard cap on one frame's length field (16 MiB): larger claims are
/// rejected before any allocation.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Frame verbs — requests, plus the three response verbs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Verb {
    /// Version handshake.
    Hello = 0,
    /// Load (or replace) a document in the store.
    Load = 1,
    /// Open a serving session on a stored document.
    Open = 2,
    /// Propagate a view update (becomes the document's pending
    /// propagation).
    Propagate = 3,
    /// Verify a candidate propagation (read-only fast path).
    Verify = 4,
    /// Count cost-minimal propagations (read-only fast path).
    Count = 5,
    /// Commit the pending propagation.
    Commit = 6,
    /// Close the document's session, persisting its committed state.
    CloseDoc = 7,
    /// Observability snapshot.
    Stats = 8,
    /// Graceful shutdown: drain admitted and waiting writes, reply with
    /// final stats.
    Shutdown = 9,
    /// Write the committed store out as a flat snapshot corpus file
    /// (payload: destination path).
    Snapshot = 10,
    /// Success response.
    Ok = 100,
    /// Failure response (payload: message).
    Err = 101,
    /// Admission pushback (payload: retry-after milliseconds).
    Retry = 102,
}

impl Verb {
    /// Decodes a verb byte; `None` for unknown verbs (the caller reports
    /// [`ProtocolError::UnknownVerb`] — unknown input never panics).
    pub fn from_u8(b: u8) -> Option<Verb> {
        Some(match b {
            0 => Verb::Hello,
            1 => Verb::Load,
            2 => Verb::Open,
            3 => Verb::Propagate,
            4 => Verb::Verify,
            5 => Verb::Count,
            6 => Verb::Commit,
            7 => Verb::CloseDoc,
            8 => Verb::Stats,
            9 => Verb::Shutdown,
            10 => Verb::Snapshot,
            100 => Verb::Ok,
            101 => Verb::Err,
            102 => Verb::Retry,
            _ => return None,
        })
    }

    /// Whether the request mutates serving state (admission control may
    /// push these back under load; read-only verbs take the fast path).
    pub fn is_write(self) -> bool {
        matches!(
            self,
            Verb::Load
                | Verb::Open
                | Verb::Propagate
                | Verb::Commit
                | Verb::CloseDoc
                | Verb::Snapshot
        )
    }

    /// The verb's wire name (used in stats and error messages).
    pub fn name(self) -> &'static str {
        match self {
            Verb::Hello => "hello",
            Verb::Load => "load",
            Verb::Open => "open",
            Verb::Propagate => "propagate",
            Verb::Verify => "verify",
            Verb::Count => "count",
            Verb::Commit => "commit",
            Verb::CloseDoc => "close",
            Verb::Stats => "stats",
            Verb::Shutdown => "shutdown",
            Verb::Snapshot => "snapshot",
            Verb::Ok => "ok",
            Verb::Err => "err",
            Verb::Retry => "retry",
        }
    }
}

/// One decoded frame: a verb and its UTF-8 payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The verb.
    pub verb: Verb,
    /// The payload text (newline-separated fields).
    pub payload: String,
}

impl Frame {
    /// A request/response frame with the given verb and payload.
    pub fn new(verb: Verb, payload: impl Into<String>) -> Frame {
        Frame {
            verb,
            payload: payload.into(),
        }
    }

    /// An [`Verb::Ok`] response.
    pub fn ok(payload: impl Into<String>) -> Frame {
        Frame::new(Verb::Ok, payload)
    }

    /// An [`Verb::Err`] response.
    pub fn err(message: impl Into<String>) -> Frame {
        Frame::new(Verb::Err, message)
    }

    /// A [`Verb::Retry`] response suggesting a backoff.
    pub fn retry(after_ms: u64) -> Frame {
        Frame::new(Verb::Retry, after_ms.to_string())
    }

    /// The [`Verb::Hello`] handshake frame for this build's
    /// [`PROTOCOL_VERSION`].
    pub fn hello() -> Frame {
        Frame::new(Verb::Hello, format!("xvu {PROTOCOL_VERSION}"))
    }
}

/// Everything that can go wrong on the wire. Malformed peers produce
/// errors, never panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// The stream ended mid-frame.
    Truncated,
    /// A frame claimed a length over [`MAX_FRAME`].
    Oversized(u32),
    /// A frame claimed length zero (no verb byte).
    Empty,
    /// An unknown verb byte.
    UnknownVerb(u8),
    /// The payload was not UTF-8 or did not match the verb's field
    /// layout.
    BadPayload(String),
    /// The peer speaks a different protocol version.
    VersionMismatch(String),
    /// An underlying I/O error (kind plus message).
    Io(ErrorKind, String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Truncated => write!(f, "stream ended mid-frame"),
            ProtocolError::Oversized(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME}-byte cap")
            }
            ProtocolError::Empty => write!(f, "zero-length frame (no verb byte)"),
            ProtocolError::UnknownVerb(b) => write!(f, "unknown verb byte {b}"),
            ProtocolError::BadPayload(m) => write!(f, "bad payload: {m}"),
            ProtocolError::VersionMismatch(m) => write!(f, "protocol version mismatch: {m}"),
            ProtocolError::Io(kind, m) => write!(f, "i/o error ({kind:?}): {m}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> ProtocolError {
        ProtocolError::Io(e.kind(), e.to_string())
    }
}

/// What [`read_frame`] observed on the stream.
#[derive(Debug)]
pub enum Recv {
    /// A complete frame.
    Frame(Frame),
    /// Clean end of stream (the peer closed between frames).
    Eof,
}

/// Reads bytes until `buf` is full (an interrupted read is retried). EOF
/// mid-buffer is [`ProtocolError::Truncated`].
fn read_exact(r: &mut impl Read, buf: &mut [u8]) -> Result<(), ProtocolError> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        ErrorKind::UnexpectedEof => ProtocolError::Truncated,
        _ => e.into(),
    })
}

/// Reads one frame. Returns [`Recv::Eof`] on a clean close before any
/// byte of a frame, and a [`ProtocolError`] for every malformed input and
/// every read error but an interrupted read, which is retried: a read
/// timeout, were one set, would be an [`ProtocolError::Io`] error.
///
/// The verb byte is read and checked on its own, so an unknown verb is
/// rejected before its payload is allocated; the payload is then read
/// straight into the buffer the returned [`Frame`] owns. `r` is read in
/// small pieces: give it a buffered reader (as [`crate::StreamTransport`]
/// does) unless it buffers itself.
pub fn read_frame(r: &mut impl Read) -> Result<Recv, ProtocolError> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(Recv::Eof)
                } else {
                    Err(ProtocolError::Truncated)
                };
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_be_bytes(len_buf);
    if len == 0 {
        return Err(ProtocolError::Empty);
    }
    if len > MAX_FRAME {
        return Err(ProtocolError::Oversized(len));
    }
    let mut verb = [0u8; 1];
    read_exact(r, &mut verb)?;
    let verb = Verb::from_u8(verb[0]).ok_or(ProtocolError::UnknownVerb(verb[0]))?;
    let mut payload = vec![0u8; len as usize - 1];
    read_exact(r, &mut payload)?;
    let payload = String::from_utf8(payload)
        .map_err(|e| ProtocolError::BadPayload(format!("payload is not UTF-8: {e}")))?;
    Ok(Recv::Frame(Frame { verb, payload }))
}

/// Writes one frame (length prefix, verb, payload) with one `write_all`
/// of one buffer, then flushes: on a socket with `TCP_NODELAY` a frame is
/// one syscall and one segment, not three.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), ProtocolError> {
    let payload = frame.payload.as_bytes();
    let len = 1u64 + payload.len() as u64;
    if len > u64::from(MAX_FRAME) {
        return Err(ProtocolError::Oversized(u32::MAX));
    }
    let mut buf = Vec::with_capacity(4 + len as usize);
    buf.extend_from_slice(&(len as u32).to_be_bytes());
    buf.push(frame.verb as u8);
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Checks a [`Verb::Hello`] payload against this build's version.
pub fn check_hello(payload: &str) -> Result<(), ProtocolError> {
    let expected = format!("xvu {PROTOCOL_VERSION}");
    if payload == expected {
        Ok(())
    } else {
        Err(ProtocolError::VersionMismatch(format!(
            "peer says {payload:?}, this build speaks {expected:?}"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn round_trip(frame: &Frame) -> Frame {
        let mut buf = Vec::new();
        write_frame(&mut buf, frame).unwrap();
        match read_frame(&mut Cursor::new(buf)).unwrap() {
            Recv::Frame(f) => f,
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn frames_round_trip() {
        for frame in [
            Frame::hello(),
            Frame::new(Verb::Propagate, "7\nnop:r#0(del:a#1)"),
            Frame::ok(""),
            Frame::err("boom"),
            Frame::retry(5),
            Frame::new(Verb::Stats, ""),
        ] {
            assert_eq!(round_trip(&frame), frame);
        }
    }

    #[test]
    fn each_frame_is_one_write_call() {
        /// Accepts every byte, counting `write` calls and flushes.
        #[derive(Default)]
        struct Counting {
            bytes: Vec<u8>,
            writes: usize,
            flushes: usize,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                self.flushes += 1;
                Ok(())
            }
        }
        let frames = [
            Frame::new(Verb::Propagate, "7\nnop:r#0(del:a#1)"),
            Frame::ok(""),
            Frame::ok("x".repeat(100_000)),
        ];
        let mut w = Counting::default();
        for (i, frame) in frames.iter().enumerate() {
            write_frame(&mut w, frame).unwrap();
            assert_eq!((w.writes, w.flushes), (i + 1, i + 1), "frame {i}");
        }
        // the bytes are the length-prefixed frames back to back
        let mut r = Cursor::new(w.bytes);
        for frame in &frames {
            assert!(matches!(read_frame(&mut r).unwrap(), Recv::Frame(f) if &f == frame));
        }
        assert!(matches!(read_frame(&mut r).unwrap(), Recv::Eof));
        // the wire layout: length of verb plus payload (u32 BE), verb, payload
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::new(Verb::Open, "12")).unwrap();
        assert_eq!(wire, [0, 0, 0, 3, Verb::Open as u8, b'1', b'2']);
    }

    #[test]
    fn a_read_timeout_is_an_io_error() {
        // No transport sets a read timeout. Were one to fire, between
        // frames or inside one, the reader reports it rather than waiting
        // on.
        struct TimesOut {
            bytes: Cursor<Vec<u8>>,
            after: u64,
        }
        impl Read for TimesOut {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let left = self.after - self.bytes.position();
                if left == 0 {
                    return Err(ErrorKind::WouldBlock.into());
                }
                let n = buf.len().min(left as usize);
                self.bytes.read(&mut buf[..n])
            }
        }
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::new(Verb::Open, "12")).unwrap();
        for after in [0, 2, 5] {
            let bytes = Cursor::new(wire.clone());
            let got = read_frame(&mut TimesOut { bytes, after });
            assert!(
                matches!(got, Err(ProtocolError::Io(ErrorKind::WouldBlock, _))),
                "timeout after {after} bytes: {got:?}"
            );
        }
    }

    #[test]
    fn clean_eof_between_frames() {
        assert!(matches!(
            read_frame(&mut Cursor::new(Vec::new())).unwrap(),
            Recv::Eof
        ));
    }

    #[test]
    fn truncated_length_prefix_errors() {
        for cut in 1..4 {
            let mut buf = Vec::new();
            write_frame(&mut buf, &Frame::hello()).unwrap();
            buf.truncate(cut);
            assert_eq!(
                read_frame(&mut Cursor::new(buf)).unwrap_err(),
                ProtocolError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn truncated_body_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::new(Verb::Propagate, "payload text")).unwrap();
        for cut in 4..buf.len() {
            let mut cut_buf = buf.clone();
            cut_buf.truncate(cut);
            assert_eq!(
                read_frame(&mut Cursor::new(cut_buf)).unwrap_err(),
                ProtocolError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut buf = (MAX_FRAME + 1).to_be_bytes().to_vec();
        buf.push(Verb::Hello as u8);
        assert_eq!(
            read_frame(&mut Cursor::new(buf)).unwrap_err(),
            ProtocolError::Oversized(MAX_FRAME + 1)
        );
        // u32::MAX would be a 4 GiB allocation if the cap were missing
        let huge = u32::MAX.to_be_bytes().to_vec();
        assert_eq!(
            read_frame(&mut Cursor::new(huge)).unwrap_err(),
            ProtocolError::Oversized(u32::MAX)
        );
    }

    #[test]
    fn zero_length_frame_rejected() {
        let buf = 0u32.to_be_bytes().to_vec();
        assert_eq!(
            read_frame(&mut Cursor::new(buf)).unwrap_err(),
            ProtocolError::Empty
        );
    }

    #[test]
    fn unknown_verbs_error_not_panic() {
        for bad in [11u8, 42, 99, 103, 255] {
            let mut buf = 1u32.to_be_bytes().to_vec();
            buf.push(bad);
            assert_eq!(
                read_frame(&mut Cursor::new(buf)).unwrap_err(),
                ProtocolError::UnknownVerb(bad)
            );
        }
    }

    #[test]
    fn non_utf8_payload_rejected() {
        let mut buf = 3u32.to_be_bytes().to_vec();
        buf.push(Verb::Open as u8);
        buf.extend([0xFF, 0xFE]);
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)).unwrap_err(),
            ProtocolError::BadPayload(_)
        ));
    }

    #[test]
    fn hello_checks_version() {
        assert!(check_hello(&format!("xvu {PROTOCOL_VERSION}")).is_ok());
        assert!(matches!(
            check_hello("xvu 999"),
            Err(ProtocolError::VersionMismatch(_))
        ));
        assert!(matches!(
            check_hello("http/1.1"),
            Err(ProtocolError::VersionMismatch(_))
        ));
    }
}
