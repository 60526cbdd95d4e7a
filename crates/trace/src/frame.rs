//! Length-prefixed framing for the `vlpp serve` wire protocol.
//!
//! A *frame* is a 4-byte little-endian payload length followed by that
//! many payload bytes (UTF-8 JSON in the serving protocol, but this
//! module is payload-agnostic). The length prefix is untrusted input:
//! like the VLPC reader's `MAX_CHUNK_RECORDS` cap, a frame reader must
//! never let a corrupt or hostile prefix drive an allocation — a
//! declared length above [`MAX_FRAME_BYTES`] is rejected with a typed
//! [`VlppError::Frame`] *before* any payload buffer exists.
//!
//! Framing errors are not resynchronizable (once a length prefix is
//! wrong there is no record boundary to skip to), so every error from
//! [`read_frame`] means "report and close the connection". The one
//! non-error end state is a clean EOF *between* frames, which reads as
//! `Ok(None)`.
//!
//! # One write per frame
//!
//! [`write_frame`] hands the prefix and the payload to the writer as one
//! buffer in one `write_all`. Written separately on a TCP socket, the
//! payload would wait in Nagle's algorithm until the peer ACKs the
//! prefix, and the peer delays that ACK (~40 ms on Linux), so each
//! round trip would take ~44 ms whatever the server does. The serving
//! stack also sets `TCP_NODELAY` on every TCP socket, so frames written
//! back to back (a `sync` header and its chunks) go out at once too.
//!
//! # Deadlines
//!
//! Sockets in the serving stack carry `set_read_timeout` /
//! `set_write_timeout` deadlines so a hung peer cannot pin a thread
//! forever. A deadline expiry surfaces from the OS as a
//! `WouldBlock`/`TimedOut` read or write error; this module folds it
//! into the typed error space with an `(io deadline)` marker that
//! [`is_timeout`] recognizes. Servers that want to keep an *idle*
//! connection alive across deadline ticks use [`read_frame_or_timeout`],
//! which distinguishes "deadline expired between frames" (benign,
//! [`FrameRead::IdleTimeout`]) from "deadline expired mid-frame" (the
//! peer hung while a frame was in flight — a typed error, close the
//! connection).
//!
//! # Fault injection
//!
//! When the [armed fault plan](crate::fault::armed) names a network
//! fault (`netdrop@N`, `netstall@N:MS`, `nettrunc@N:BYTES`), it fires
//! at the `N`th frame operation of the process — sequence numbers are
//! drawn once per read/write at the frame boundary, so targeting is
//! stable across thread counts. [`net_faults_injected`] reports how
//! many faults fired.
//!
//! # Example
//!
//! ```
//! use vlpp_trace::frame::{read_frame, write_frame};
//!
//! let mut wire = Vec::new();
//! write_frame(&mut wire, br#"{"verb":"stats"}"#).unwrap();
//! let mut cursor = wire.as_slice();
//! assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some(&br#"{"verb":"stats"}"#[..]));
//! assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF between frames");
//! ```

use std::io::{ErrorKind, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::VlppError;
use crate::fault::{self, Fault};

/// Maximum payload bytes a single frame may carry (1 MiB). Large enough
/// for thousands of branch records per batch, small enough that a
/// corrupt length prefix cannot make a reader allocate unboundedly —
/// the framing analogue of the VLPC reader's
/// [`MAX_CHUNK_RECORDS`](crate::compact::MAX_CHUNK_RECORDS).
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Marker appended to frame errors caused by a socket deadline expiry,
/// so callers can tell a hung peer from a malformed stream.
const DEADLINE_MARKER: &str = "(io deadline)";

/// Writes one frame: 4-byte little-endian length, then `payload`, in
/// one `write_all` of one buffer.
///
/// # Errors
///
/// [`VlppError::Frame`] if `payload` is empty or exceeds
/// [`MAX_FRAME_BYTES`] (both would produce a stream the reader rejects,
/// so the writer refuses to emit them), or wraps the underlying I/O
/// failure. A write deadline expiry is marked so [`is_timeout`]
/// recognizes it. An armed `netdrop`/`nettrunc` fault also surfaces
/// here as a typed error (after emitting the truncated wire bytes, for
/// `nettrunc`).
pub fn write_frame<W: Write>(mut writer: W, payload: &[u8]) -> Result<(), VlppError> {
    if payload.is_empty() {
        return Err(VlppError::Frame {
            message: "refusing to write a zero-length frame".to_string(),
            declared_len: Some(0),
        });
    }
    if payload.len() > MAX_FRAME_BYTES {
        return Err(VlppError::Frame {
            message: format!("frame payload exceeds the {MAX_FRAME_BYTES}-byte cap"),
            declared_len: Some(payload.len() as u64),
        });
    }
    match next_net_fault() {
        Some(Fault::NetStall { at, ms }) => net_stall(at, ms),
        Some(Fault::NetDrop { at }) => {
            return Err(VlppError::Frame {
                message: format!("injected fault: netdrop at frame {at}"),
                declared_len: Some(payload.len() as u64),
            });
        }
        Some(Fault::NetTrunc { at, bytes }) => {
            return write_truncated(writer, payload, at, bytes);
        }
        _ => {}
    }
    let io_err = |source: std::io::Error| frame_write_error(source, payload.len() as u64);
    writer.write_all(&wire(payload)).map_err(io_err)?;
    writer.flush().map_err(io_err)?;
    Ok(())
}

/// One frame's wire bytes, prefix then payload, in one buffer (see the
/// module's "One write per frame").
fn wire(payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::with_capacity(4 + payload.len());
    wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    wire.extend_from_slice(payload);
    wire
}

/// The `nettrunc` arm of [`write_frame`]: emit at most `bytes` wire
/// bytes (always at least one short of a whole frame, so the peer is
/// guaranteed to observe a mid-frame disconnect), then fail.
fn write_truncated<W: Write>(
    mut writer: W,
    payload: &[u8],
    at: u64,
    bytes: u64,
) -> Result<(), VlppError> {
    let wire = wire(payload);
    let emit = (bytes as usize).min(wire.len() - 1);
    let io_err = |source: std::io::Error| frame_write_error(source, payload.len() as u64);
    writer.write_all(&wire[..emit]).map_err(io_err)?;
    writer.flush().map_err(io_err)?;
    Err(VlppError::Frame {
        message: format!("injected fault: nettrunc at frame {at} after {emit} wire bytes"),
        declared_len: Some(payload.len() as u64),
    })
}

/// Wraps a write-side I/O failure, marking deadline expiries.
fn frame_write_error(source: std::io::Error, declared: u64) -> VlppError {
    let marker = if matches!(source.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
        format!(" {DEADLINE_MARKER}")
    } else {
        String::new()
    };
    VlppError::Frame {
        message: format!("cannot write frame: {source}{marker}"),
        declared_len: Some(declared),
    }
}

/// Outcome of [`read_frame_or_timeout`].
#[derive(Debug)]
pub enum FrameRead {
    /// A whole frame arrived; this is its payload.
    Frame(Vec<u8>),
    /// Clean EOF before any prefix byte — the peer closed between frames.
    Eof,
    /// The socket's read deadline expired while *no* frame was in
    /// flight. Benign for a server keeping idle connections open: loop
    /// and read again.
    IdleTimeout,
}

/// Reads one frame, returning `Ok(None)` on a clean EOF before any
/// prefix byte (the peer closed between frames).
///
/// # Errors
///
/// [`VlppError::Frame`] on every malformed stream:
///
/// * a zero-length prefix (an empty frame carries no request and most
///   likely means a desynchronized writer);
/// * a prefix above [`MAX_FRAME_BYTES`] (rejected before allocating);
/// * EOF inside the prefix or inside the payload (a mid-frame
///   disconnect — the message says how many bytes were expected);
/// * a read deadline expiry anywhere, including while idle (clients
///   awaiting a response treat a silent peer as dead; servers that
///   want to tolerate idle peers use [`read_frame_or_timeout`]). Marked
///   so [`is_timeout`] recognizes it.
pub fn read_frame<R: Read>(mut reader: R) -> Result<Option<Vec<u8>>, VlppError> {
    match read_frame_or_timeout(&mut reader)? {
        FrameRead::Frame(payload) => Ok(Some(payload)),
        FrameRead::Eof => Ok(None),
        FrameRead::IdleTimeout => Err(VlppError::Frame {
            message: format!("timed out waiting for a frame {DEADLINE_MARKER}"),
            declared_len: None,
        }),
    }
}

/// [`read_frame`], except a read deadline expiry *between* frames is
/// surfaced as [`FrameRead::IdleTimeout`] instead of an error — the
/// server's reader loop uses this to keep idle connections alive while
/// still bounding how long a peer may hang mid-frame.
///
/// # Errors
///
/// As [`read_frame`], plus a deadline expiry *inside* a frame (after at
/// least one prefix byte arrived) is a typed, [`is_timeout`]-marked
/// error: the peer stalled with a frame in flight and the connection is
/// no longer trustworthy.
pub fn read_frame_or_timeout<R: Read>(mut reader: R) -> Result<FrameRead, VlppError> {
    match next_net_fault() {
        Some(Fault::NetStall { at, ms }) => net_stall(at, ms),
        Some(Fault::NetDrop { at } | Fault::NetTrunc { at, .. }) => {
            return Err(VlppError::Frame {
                message: format!("injected fault: netdrop at frame {at}"),
                declared_len: None,
            });
        }
        _ => {}
    }
    let mut prefix = [0u8; 4];
    match read_exact_or_eof(&mut reader, &mut prefix)? {
        FullRead::Eof => return Ok(FrameRead::Eof),
        FullRead::TimedOut(0) => return Ok(FrameRead::IdleTimeout),
        FullRead::TimedOut(got) => {
            return Err(VlppError::Frame {
                message: format!(
                    "timed out inside a frame length prefix ({got} of 4 bytes) {DEADLINE_MARKER}"
                ),
                declared_len: None,
            });
        }
        FullRead::Partial(got) => {
            return Err(VlppError::Frame {
                message: format!("disconnect inside a frame length prefix ({got} of 4 bytes)"),
                declared_len: None,
            });
        }
        FullRead::Complete => {}
    }
    let declared = u32::from_le_bytes(prefix) as u64;
    if declared == 0 {
        return Err(VlppError::Frame {
            message: "zero-length frame".to_string(),
            declared_len: Some(0),
        });
    }
    if declared > MAX_FRAME_BYTES as u64 {
        return Err(VlppError::Frame {
            message: format!(
                "frame declares {declared} payload bytes, above the {MAX_FRAME_BYTES}-byte cap"
            ),
            declared_len: Some(declared),
        });
    }
    // `declared` is now bounded, so this allocation is at most 1 MiB.
    let mut payload = vec![0u8; declared as usize];
    match read_exact_or_eof(&mut reader, &mut payload)? {
        FullRead::Complete => Ok(FrameRead::Frame(payload)),
        FullRead::TimedOut(_) => Err(VlppError::Frame {
            message: format!(
                "timed out inside a frame payload (expected {declared} bytes) {DEADLINE_MARKER}"
            ),
            declared_len: Some(declared),
        }),
        FullRead::Eof | FullRead::Partial(_) => Err(VlppError::Frame {
            message: format!("disconnect inside a frame payload (expected {declared} bytes)"),
            declared_len: Some(declared),
        }),
    }
}

/// True when `error` is a frame-layer socket deadline expiry (read or
/// write), as opposed to a malformed stream or a disconnect. Callers
/// use this to count `serve.io_timeouts` and pick retry behavior.
pub fn is_timeout(error: &VlppError) -> bool {
    matches!(error, VlppError::Frame { message, .. } if message.contains(DEADLINE_MARKER))
}

/// Process-wide frame-operation counter; advances only while a fault
/// plan is armed, so the unarmed path stays one `OnceLock` load.
static FRAME_SEQ: AtomicU64 = AtomicU64::new(0);

/// Count of network faults fired.
static NET_FAULTS_INJECTED: AtomicU64 = AtomicU64::new(0);

/// Draws the next 1-based frame sequence number and returns the armed
/// `net*` fault aimed at it, if any. Called once per frame operation.
fn next_net_fault() -> Option<Fault> {
    let plan = fault::armed();
    if plan.is_empty() {
        return None;
    }
    let seq = FRAME_SEQ.fetch_add(1, Ordering::Relaxed) + 1;
    let hit = plan.iter().copied().find(|fault| {
        matches!(*fault, Fault::NetDrop { at } | Fault::NetStall { at, .. }
            | Fault::NetTrunc { at, .. } if at == seq)
    });
    if hit.is_some() {
        NET_FAULTS_INJECTED.fetch_add(1, Ordering::Relaxed);
    }
    hit
}

/// The `netstall` arm of both frame directions: sleep, then proceed.
fn net_stall(at: u64, ms: u64) {
    eprintln!("vlpp: injected netstall at frame {at} ({ms} ms)");
    std::thread::sleep(std::time::Duration::from_millis(ms));
}

/// How many `VLPP_FAULT` network faults this process has injected so
/// far. Zero when no `net*` fault is armed.
pub fn net_faults_injected() -> u64 {
    NET_FAULTS_INJECTED.load(Ordering::Relaxed)
}

/// How much of a fixed-size read completed.
enum FullRead {
    /// Every byte arrived.
    Complete,
    /// EOF before the first byte.
    Eof,
    /// EOF after `0 < n < buf.len()` bytes.
    Partial(usize),
    /// The socket read deadline expired after `n` bytes.
    TimedOut(usize),
}

/// `read_exact`, but EOF position is data, not just an error: framing
/// needs to distinguish "closed between frames" from "closed mid-frame",
/// and a deadline expiry from both.
fn read_exact_or_eof<R: Read>(reader: &mut R, buf: &mut [u8]) -> Result<FullRead, VlppError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 { FullRead::Eof } else { FullRead::Partial(filled) });
            }
            Ok(n) => filled += n,
            Err(error) if error.kind() == ErrorKind::Interrupted => {}
            Err(error) if matches!(error.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(FullRead::TimedOut(filled));
            }
            Err(source) => {
                return Err(VlppError::Frame {
                    message: format!("cannot read frame: {source}"),
                    declared_len: None,
                });
            }
        }
    }
    Ok(FullRead::Complete)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_payload() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"world!").unwrap();
        let mut cursor = wire.as_slice();
        assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some(&b"world!"[..]));
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    /// Records the buffer of every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write_of_prefix_then_payload() {
        let mut writer = CountingWriter::default();
        write_frame(&mut writer, b"hello").unwrap();
        write_frame(&mut writer, &[7u8; 300]).unwrap();
        assert_eq!(writer.writes.len(), 2, "one write call per frame");
        assert_eq!(writer.writes[0], b"\x05\x00\x00\x00hello");
        assert_eq!(writer.writes[1][..4], 300u32.to_le_bytes());
        assert_eq!(writer.writes[1][4..], [7u8; 300]);
    }

    #[test]
    fn rejects_zero_length_frames_both_ways() {
        let error = write_frame(Vec::new(), b"").unwrap_err();
        assert_eq!(error.phase(), "frame");
        let error = read_frame(&[0u8, 0, 0, 0][..]).unwrap_err();
        assert_eq!(error.phase(), "frame");
        assert!(error.to_string().contains("zero-length"));
    }

    #[test]
    fn rejects_oversized_declared_length_without_allocating() {
        let mut wire = u32::MAX.to_le_bytes().to_vec();
        wire.extend_from_slice(b"tiny");
        let error = read_frame(wire.as_slice()).unwrap_err();
        assert_eq!(error.phase(), "frame");
        assert!(error.to_string().contains("cap"), "{error}");
    }

    #[test]
    fn mid_frame_disconnects_are_typed_errors() {
        // Inside the prefix.
        let error = read_frame(&[5u8, 0][..]).unwrap_err();
        assert!(error.to_string().contains("length prefix"), "{error}");
        // Inside the payload.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"truncate me").unwrap();
        wire.truncate(wire.len() - 3);
        let error = read_frame(wire.as_slice()).unwrap_err();
        assert!(error.to_string().contains("payload"), "{error}");
    }

    #[test]
    fn max_frame_round_trips_and_one_more_byte_is_rejected() {
        let payload = vec![0xabu8; MAX_FRAME_BYTES];
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        assert_eq!(read_frame(wire.as_slice()).unwrap().unwrap(), payload);
        assert!(write_frame(Vec::new(), &vec![0u8; MAX_FRAME_BYTES + 1]).is_err());
    }

    /// Yields its bytes, then reports a `WouldBlock` deadline expiry
    /// forever — the shape of a socket whose read timeout keeps firing.
    struct TimesOutAfter {
        data: Vec<u8>,
        pos: usize,
    }

    impl Read for TimesOutAfter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.data.len() {
                return Err(std::io::Error::new(ErrorKind::WouldBlock, "deadline"));
            }
            let n = buf.len().min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn idle_deadline_expiry_is_not_an_error_for_the_server_reader() {
        let mut idle = TimesOutAfter { data: Vec::new(), pos: 0 };
        assert!(matches!(read_frame_or_timeout(&mut idle).unwrap(), FrameRead::IdleTimeout));
        // The plain client-side reader treats the same expiry as a
        // typed, timeout-marked error.
        let mut idle = TimesOutAfter { data: Vec::new(), pos: 0 };
        let error = read_frame(&mut idle).unwrap_err();
        assert!(is_timeout(&error), "{error}");
    }

    #[test]
    fn mid_frame_deadline_expiry_is_a_typed_timeout() {
        // Two bytes of a four-byte prefix, then the deadline fires.
        let mut reader = TimesOutAfter { data: vec![9, 0], pos: 0 };
        let error = match read_frame_or_timeout(&mut reader) {
            Err(error) => error,
            Ok(other) => panic!("expected an error, got {other:?}"),
        };
        assert!(is_timeout(&error), "{error}");
        assert!(error.to_string().contains("length prefix"), "{error}");
        // A whole prefix but a stalled payload is equally fatal.
        let mut reader = TimesOutAfter { data: vec![5, 0, 0, 0, b'a'], pos: 0 };
        let error = match read_frame_or_timeout(&mut reader) {
            Err(error) => error,
            Ok(other) => panic!("expected an error, got {other:?}"),
        };
        assert!(is_timeout(&error), "{error}");
        assert!(error.to_string().contains("payload"), "{error}");
    }

    #[test]
    fn injected_truncation_emits_a_short_frame_and_a_typed_error() {
        // Drive the nettrunc arm directly (the env-armed path draws
        // global sequence numbers, which unit tests must not consume).
        let mut wire = Vec::new();
        let error = write_truncated(&mut wire, b"payload", 1, 6).unwrap_err();
        assert_eq!(error.phase(), "frame");
        assert!(error.to_string().contains("nettrunc"), "{error}");
        assert_eq!(wire.len(), 6);
        let mut whole = Vec::new();
        write_frame(&mut whole, b"payload").unwrap();
        assert_eq!(wire, whole[..6], "nettrunc cuts the same wire write_frame emits");
        // The peer sees a mid-frame disconnect, exactly like a real cut.
        let peer_error = read_frame(wire.as_slice()).unwrap_err();
        assert!(peer_error.to_string().contains("payload"), "{peer_error}");
        // Even a huge BYTES value never emits a whole frame.
        let mut wire = Vec::new();
        let _ = write_truncated(&mut wire, b"payload", 1, 1 << 30).unwrap_err();
        assert_eq!(wire.len(), 4 + b"payload".len() - 1);
    }
}
