//! Error types for trace serialization, plus the workspace-wide
//! [`VlppError`] spine.
//!
//! Every fallible path in the workspace — I/O, parsing, configuration,
//! checkpointing, worker execution — converges on [`VlppError`], a typed
//! error that carries enough context (phase, file, byte offset, worker)
//! to act on without a backtrace. `ROBUSTNESS.md` at the repository root
//! documents the full taxonomy and how the CLI reports each phase.

use std::error::Error;
use std::fmt;
use std::io;
use std::path::PathBuf;

use crate::json::{JsonValue, ParseJsonError, ToJson};

/// An error produced while reading or writing a trace stream.
#[derive(Debug)]
pub enum TraceIoError {
    /// The underlying reader or writer failed.
    Io(io::Error),
    /// The stream did not start with the expected magic bytes.
    BadMagic {
        /// The bytes that were found instead.
        found: [u8; 4],
    },
    /// The stream declares a format version this library cannot read.
    UnsupportedVersion {
        /// The version found in the stream.
        found: u16,
    },
    /// A record carried an unknown branch-kind code.
    BadKind {
        /// The unknown code.
        code: u8,
        /// Index of the offending record.
        index: u64,
    },
    /// The stream ended in the middle of a record.
    Truncated {
        /// Number of complete records read before the truncation.
        records_read: u64,
        /// Byte offset at which the incomplete read began.
        byte_offset: u64,
    },
    /// A snapshot section's payload failed its checksum.
    ChecksumMismatch {
        /// The section whose payload was damaged.
        section: String,
        /// The checksum the envelope declared.
        expected: u64,
        /// The checksum computed over the payload actually read.
        found: u64,
        /// Byte offset just past the damaged payload.
        byte_offset: u64,
    },
    /// A field of the input held a structurally impossible value: a zero
    /// or oversized length, a non-UTF-8 name, trailing bytes after a
    /// well-formed stream, or an ingest record (ChampSim/CSV/JSONL) whose
    /// fields cannot describe a branch.
    Malformed {
        /// What was wrong.
        what: String,
        /// Byte offset at which the bad field began.
        byte_offset: u64,
    },
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "i/o error: {e}"),
            TraceIoError::BadMagic { found } => {
                write!(f, "bad magic bytes {found:02x?}, not a vlpp trace")
            }
            TraceIoError::UnsupportedVersion { found } => {
                write!(f, "unsupported trace format version {found}")
            }
            TraceIoError::BadKind { code, index } => {
                write!(f, "unknown branch kind code {code} at record {index}")
            }
            TraceIoError::Truncated { records_read, byte_offset } => {
                write!(f, "trace truncated after {records_read} records (at byte {byte_offset})")
            }
            TraceIoError::ChecksumMismatch { section, expected, found, byte_offset } => write!(
                f,
                "snapshot section `{section}` checksum mismatch: \
                 expected {expected:#018x}, found {found:#018x} (at byte {byte_offset})"
            ),
            TraceIoError::Malformed { what, byte_offset } => {
                write!(f, "malformed input: {what} (at byte {byte_offset})")
            }
        }
    }
}

impl Error for TraceIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// The unified error spine of the workspace.
///
/// Each variant is one failure *phase*, and each carries the context
/// needed to act on the failure — which file, at what offset, which
/// worker, against which limit. The `vlpp` CLI prints these verbatim and
/// embeds them (via [`ToJson`]) in the `errors` section of a partial
/// `vlpp all` report, so one failing experiment is reported and skipped
/// instead of aborting the run.
#[derive(Debug)]
#[non_exhaustive]
pub enum VlppError {
    /// A trace stream (VLPC or an ingested foreign format) could not be
    /// read.
    Trace {
        /// The file being read, when known.
        path: Option<PathBuf>,
        /// The underlying stream error.
        source: TraceIoError,
    },
    /// A JSON document could not be parsed.
    Json {
        /// What the document was (a checkpoint file, a METRICS line, …).
        what: String,
        /// The underlying parse error (carries the byte offset).
        source: ParseJsonError,
    },
    /// A configuration value (flag or environment variable) was rejected.
    Config {
        /// The flag or variable name.
        name: String,
        /// The rejected value.
        value: String,
        /// Why it was rejected.
        message: String,
    },
    /// A filesystem operation outside trace streams failed.
    Io {
        /// The file or directory operated on.
        path: PathBuf,
        /// The operation (`"create"`, `"read"`, `"rename"`, …).
        op: &'static str,
        /// The underlying error.
        source: io::Error,
    },
    /// A checkpoint file exists but cannot be used.
    Checkpoint {
        /// The checkpoint file.
        path: PathBuf,
        /// Why it cannot be used.
        message: String,
    },
    /// A worker task panicked; the panic was contained at the task
    /// boundary instead of aborting the process.
    WorkerPanic {
        /// What the task was computing (an experiment id, a benchmark).
        what: String,
        /// The panic payload, rendered as text.
        payload: String,
        /// The pool worker that ran the task (`None` = the mapping
        /// caller's own thread).
        worker: Option<usize>,
    },
    /// A task ran past the watchdog deadline and was cancelled.
    Timeout {
        /// What the task was computing.
        what: String,
        /// How long it had been running when cancelled.
        elapsed_ms: u64,
        /// The configured `VLPP_TASK_TIMEOUT_MS` limit.
        limit_ms: u64,
    },
    /// Command-line misuse (unknown experiment, bad flag combination).
    Cli {
        /// The diagnostic.
        message: String,
    },
    /// A length-prefixed wire frame was malformed: zero-length, above
    /// the [`frame::MAX_FRAME_BYTES`](crate::frame::MAX_FRAME_BYTES)
    /// cap, or cut off mid-frame. Framing errors cannot be resynced, so
    /// the connection that produced one is closed.
    Frame {
        /// What was wrong with the frame.
        message: String,
        /// The length the prefix declared, when one was read.
        declared_len: Option<u64>,
    },
    /// A well-framed request violated the serving protocol: unknown
    /// verb, missing or ill-typed field, or a reference to a model the
    /// server does not host. Protocol errors are per-request — the
    /// connection stays usable.
    Protocol {
        /// The verb being processed, when it was identifiable.
        verb: Option<String>,
        /// What was wrong with the request.
        message: String,
    },
}

impl VlppError {
    /// The failure phase as a short machine-stable label (the `phase`
    /// field of the JSON form; see `ROBUSTNESS.md`).
    pub fn phase(&self) -> &'static str {
        match self {
            VlppError::Trace { .. } => "trace-read",
            VlppError::Json { .. } => "json-parse",
            VlppError::Config { .. } => "config",
            VlppError::Io { .. } => "io",
            VlppError::Checkpoint { .. } => "checkpoint",
            VlppError::WorkerPanic { .. } => "worker-panic",
            VlppError::Timeout { .. } => "timeout",
            VlppError::Cli { .. } => "cli",
            VlppError::Frame { .. } => "frame",
            VlppError::Protocol { .. } => "protocol",
        }
    }

    /// Convenience constructor for a serving-protocol violation.
    pub fn protocol(verb: impl Into<Option<String>>, message: impl Into<String>) -> Self {
        VlppError::Protocol { verb: verb.into(), message: message.into() }
    }

    /// Convenience constructor for a trace-stream error with a file.
    pub fn trace_file(path: impl Into<PathBuf>, source: TraceIoError) -> Self {
        VlppError::Trace { path: Some(path.into()), source }
    }

    /// Convenience constructor for a filesystem error.
    pub fn io(path: impl Into<PathBuf>, op: &'static str, source: io::Error) -> Self {
        VlppError::Io { path: path.into(), op, source }
    }
}

impl fmt::Display for VlppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VlppError::Trace { path: Some(path), source } => {
                write!(f, "{}: {source}", path.display())
            }
            VlppError::Trace { path: None, source } => write!(f, "{source}"),
            VlppError::Json { what, source } => write!(f, "{what}: {source}"),
            VlppError::Config { name, value, message } => {
                write!(f, "invalid {name}=`{value}`: {message}")
            }
            VlppError::Io { path, op, source } => {
                write!(f, "cannot {op} {}: {source}", path.display())
            }
            VlppError::Checkpoint { path, message } => {
                write!(f, "unusable checkpoint {}: {message}", path.display())
            }
            VlppError::WorkerPanic { what, payload, worker } => match worker {
                Some(id) => write!(f, "worker {id} panicked while computing {what}: {payload}"),
                None => write!(f, "panicked while computing {what}: {payload}"),
            },
            VlppError::Timeout { what, elapsed_ms, limit_ms } => write!(
                f,
                "{what} exceeded the {limit_ms} ms task deadline (ran {elapsed_ms} ms) \
                 and was cancelled"
            ),
            VlppError::Cli { message } => write!(f, "{message}"),
            VlppError::Frame { message, .. } => write!(f, "frame error: {message}"),
            VlppError::Protocol { verb: Some(verb), message } => {
                write!(f, "protocol error in `{verb}`: {message}")
            }
            VlppError::Protocol { verb: None, message } => write!(f, "protocol error: {message}"),
        }
    }
}

impl Error for VlppError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            VlppError::Trace { source, .. } => Some(source),
            VlppError::Json { source, .. } => Some(source),
            VlppError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<TraceIoError> for VlppError {
    fn from(source: TraceIoError) -> Self {
        VlppError::Trace { path: None, source }
    }
}

impl From<ParseJsonError> for VlppError {
    fn from(source: ParseJsonError) -> Self {
        VlppError::Json { what: "json document".to_string(), source }
    }
}

impl ToJson for VlppError {
    /// `{"phase": "...", "message": "...", ...context fields}` — the
    /// shape embedded in the `errors` section of `vlpp all --json`.
    fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("phase".to_string(), JsonValue::Str(self.phase().to_string())),
            ("message".to_string(), JsonValue::Str(self.to_string())),
        ];
        match self {
            VlppError::Trace { path: Some(path), .. }
            | VlppError::Io { path, .. }
            | VlppError::Checkpoint { path, .. } => {
                fields.push(("path".to_string(), JsonValue::Str(path.display().to_string())));
            }
            VlppError::Json { source, .. } => {
                fields.push(("offset".to_string(), JsonValue::UInt(source.offset() as u64)));
            }
            VlppError::WorkerPanic { worker, .. } => {
                fields.push(("worker".to_string(), worker.map(|w| w as u64).to_json()));
            }
            VlppError::Timeout { elapsed_ms, limit_ms, .. } => {
                fields.push(("elapsed_ms".to_string(), JsonValue::UInt(*elapsed_ms)));
                fields.push(("limit_ms".to_string(), JsonValue::UInt(*limit_ms)));
            }
            VlppError::Frame { declared_len: Some(len), .. } => {
                fields.push(("declared_len".to_string(), JsonValue::UInt(*len)));
            }
            VlppError::Protocol { verb: Some(verb), .. } => {
                fields.push(("verb".to_string(), JsonValue::Str(verb.clone())));
            }
            _ => {}
        }
        if let VlppError::Trace {
            source:
                TraceIoError::Truncated { byte_offset, .. }
                | TraceIoError::ChecksumMismatch { byte_offset, .. }
                | TraceIoError::Malformed { byte_offset, .. },
            ..
        } = self
        {
            fields.push(("offset".to_string(), JsonValue::UInt(*byte_offset)));
        }
        JsonValue::Object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = TraceIoError::BadMagic { found: *b"nope" };
        assert!(e.to_string().contains("bad magic"));
        let e = TraceIoError::UnsupportedVersion { found: 99 };
        assert!(e.to_string().contains("99"));
        let e = TraceIoError::BadKind { code: 7, index: 3 };
        assert!(e.to_string().contains('7'));
        let e = TraceIoError::Truncated { records_read: 12, byte_offset: 232 };
        assert!(e.to_string().contains("12"));
        assert!(e.to_string().contains("232"), "truncation must name the byte offset");
    }

    #[test]
    fn io_error_converts_and_sources() {
        let inner = io::Error::other("boom");
        let e: TraceIoError = inner.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TraceIoError>();
        assert_send_sync::<VlppError>();
    }

    #[test]
    fn vlpp_error_carries_phase_and_context() {
        let e = VlppError::trace_file(
            "bench.trace",
            TraceIoError::Truncated { records_read: 3, byte_offset: 70 },
        );
        assert_eq!(e.phase(), "trace-read");
        assert!(e.to_string().contains("bench.trace"));
        assert!(e.to_string().contains("byte 70"));
        let json = e.to_json();
        assert_eq!(json.get("phase").and_then(|v| v.as_str()), Some("trace-read"));
        assert_eq!(json.get("offset").and_then(|v| v.as_u64()), Some(70));
        assert_eq!(json.get("path").and_then(|v| v.as_str()), Some("bench.trace"));
    }

    #[test]
    fn worker_panic_and_timeout_render_actionably() {
        let e =
            VlppError::WorkerPanic { what: "fig5".into(), payload: "boom".into(), worker: Some(3) };
        assert!(e.to_string().contains("worker 3"));
        assert!(e.to_string().contains("fig5"));
        assert_eq!(e.to_json().get("worker").and_then(|v| v.as_u64()), Some(3));

        let e = VlppError::Timeout { what: "fig9".into(), elapsed_ms: 900, limit_ms: 250 };
        assert_eq!(e.phase(), "timeout");
        assert!(e.to_string().contains("250 ms"));
        assert_eq!(e.to_json().get("limit_ms").and_then(|v| v.as_u64()), Some(250));
    }

    #[test]
    fn json_parse_errors_surface_their_offset() {
        let source = crate::json::JsonValue::parse("[tru]").unwrap_err();
        let offset = source.offset() as u64;
        let e = VlppError::Json { what: "checkpoint fig5.json".into(), source };
        assert!(e.to_string().contains("checkpoint fig5.json"));
        assert_eq!(e.to_json().get("offset").and_then(|v| v.as_u64()), Some(offset));
    }

    #[test]
    fn frame_and_protocol_phases_carry_context() {
        let e = VlppError::Frame { message: "zero-length frame".into(), declared_len: Some(0) };
        assert_eq!(e.phase(), "frame");
        assert!(e.to_string().contains("zero-length"));
        assert_eq!(e.to_json().get("declared_len").and_then(|v| v.as_u64()), Some(0));

        let e = VlppError::protocol(Some("predict".to_string()), "unknown model `m9`");
        assert_eq!(e.phase(), "protocol");
        assert!(e.to_string().contains("predict"));
        assert!(e.to_string().contains("m9"));
        assert_eq!(e.to_json().get("verb").and_then(|v| v.as_str()), Some("predict"));

        let e = VlppError::protocol(None, "not a JSON object");
        assert!(e.to_string().starts_with("protocol error:"));
        assert!(e.to_json().get("verb").is_none());
    }

    #[test]
    fn config_and_cli_errors_name_the_knob() {
        let e = VlppError::Config {
            name: "VLPP_TASK_TIMEOUT_MS".into(),
            value: "-3".into(),
            message: "expected a positive integer".into(),
        };
        assert!(e.to_string().contains("VLPP_TASK_TIMEOUT_MS"));
        assert!(e.to_string().contains("-3"));
        assert_eq!(VlppError::Cli { message: "unknown experiment".into() }.phase(), "cli");
    }
}
