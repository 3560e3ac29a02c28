//! The `rfhd-v1` wire protocol: length-prefixed JSON frames, the request
//! and response schema, and the error-frame taxonomy.
//!
//! ## Framing
//!
//! Every message — request or response — is one **frame**:
//!
//! ```text
//! +----------------+----------------------+
//! | length: u32 BE | payload: UTF-8 JSON  |
//! +----------------+----------------------+
//! ```
//!
//! The length counts payload bytes only. A length of zero or beyond the
//! receiver's frame cap is a protocol error; the daemon answers with a
//! structured error frame where it still can and closes the connection
//! (after byte-level garbage the stream cannot be resynchronized). EOF at
//! a frame boundary is a clean close; EOF inside a frame is a truncated
//! peer.
//!
//! ## Requests
//!
//! ```json
//! {"schema":"rfhd-v1","id":1,"op":"allocate","kernel":"...",
//!  "config":{"orf":3,"lrf":"split","partial":true,"readop":true},
//!  "timeout_ms":5000,"budget_instructions":2000000}
//! ```
//!
//! `op` is one of `ping`, `assemble`, `lint`, `allocate`, `simulate`,
//! `timing`, `trace`, `stats`, `shutdown`. Kernel-carrying ops take
//! either `kernel` (assembly text) or `workload` (a benchmark name known
//! to the daemon). See `docs/ROBUSTNESS.md` for the full field table.
//!
//! ## Responses
//!
//! Success: `{"schema":"rfhd-v1","id":1,"ok":true,"cached":false,
//! "result":{...}}`. Failure: an **error frame**,
//! `{"schema":"rfhd-v1","id":1,"ok":false,"error":{"kind":"parse",
//! "code":3,"message":"..."}}` — `kind` names the [`ErrorKind`] class,
//! `code` is the class's stable `rfhc` exit code, and overload frames
//! carry a `retry_after_ms` hint.

use std::io::{Read, Write};

use rfh_alloc::AllocError;
use rfh_isa::IsaError;

use crate::json::Json;

/// The protocol schema tag every frame carries.
pub const SCHEMA: &str = "rfhd-v1";

/// Default maximum frame payload size (4 MiB) — far above any legitimate
/// kernel, low enough that a hostile length prefix cannot balloon memory.
pub const DEFAULT_MAX_FRAME: usize = 4 << 20;

/// A framing-layer failure.
#[derive(Debug)]
pub enum FrameError {
    /// EOF arrived inside a frame (length prefix or payload).
    Truncated,
    /// The length prefix was zero or exceeded the frame cap.
    Oversized {
        /// The advertised payload length.
        len: u64,
        /// The receiver's cap.
        max: usize,
    },
    /// The payload was not valid UTF-8.
    Encoding,
    /// The underlying socket failed (including read timeouts).
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "connection closed mid-frame"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame length {len} outside 1..={max}")
            }
            FrameError::Encoding => write!(f, "frame payload is not UTF-8"),
            FrameError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Reads one frame. `Ok(None)` is a clean close (EOF exactly at a frame
/// boundary).
///
/// # Errors
///
/// [`FrameError`] for truncation, an out-of-range length prefix, invalid
/// UTF-8, or socket failure (including a read timeout on a stalled peer).
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Option<String>, FrameError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(None)
                } else {
                    Err(FrameError::Truncated)
                }
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len == 0 || len > max {
        return Err(FrameError::Oversized {
            len: len as u64,
            max,
        });
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match r.read(&mut payload[filled..]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| FrameError::Encoding)
}

/// Writes one frame, prefix and payload in one buffer: written apart,
/// the payload's TCP segment would wait for the prefix's ACK (Nagle's
/// algorithm against the peer's delayed ACK).
///
/// # Errors
///
/// [`FrameError::Oversized`] if the payload exceeds `u32::MAX` bytes,
/// otherwise any socket failure as [`FrameError::Io`].
pub fn write_frame(w: &mut impl Write, payload: &str) -> Result<(), FrameError> {
    let len = u32::try_from(payload.len()).map_err(|_| FrameError::Oversized {
        len: payload.len() as u64,
        max: u32::MAX as usize,
    })?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload.as_bytes());
    w.write_all(&frame).map_err(FrameError::Io)?;
    w.flush().map_err(FrameError::Io)
}

/// Every failure class an error frame can carry. The `code` column is the
/// class's stable `rfhc` exit code: the client process exits with the
/// daemon-reported code, so scripting against `rfhc client` feels exactly
/// like scripting against `rfhc` itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed frame, JSON, or schema tag.
    Protocol,
    /// Well-formed request with bad fields (unknown op, missing kernel).
    Usage,
    /// Kernel text failed to parse.
    Parse,
    /// Kernel parsed but is structurally invalid.
    InvalidKernel,
    /// Allocation configuration rejected.
    Config,
    /// Executor error (OOB, instruction budget, bad placement).
    Exec,
    /// Timing-model error (deadlock, cycle budget).
    Timing,
    /// Lint found error-severity diagnostics.
    Lint,
    /// The request exceeded its wall-clock timeout.
    Timeout,
    /// The daemon shed the request under load; retry after the hint.
    Overloaded,
    /// A panic was caught inside the request's isolation boundary.
    Internal,
}

impl ErrorKind {
    /// The wire name (`kind` field).
    pub const fn name(self) -> &'static str {
        match self {
            ErrorKind::Protocol => "protocol",
            ErrorKind::Usage => "usage",
            ErrorKind::Parse => "parse",
            ErrorKind::InvalidKernel => "invalid_kernel",
            ErrorKind::Config => "config",
            ErrorKind::Exec => "exec",
            ErrorKind::Timing => "timing",
            ErrorKind::Lint => "lint",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Internal => "internal",
        }
    }

    /// Parses the wire name back.
    pub fn from_name(name: &str) -> Option<ErrorKind> {
        Some(match name {
            "protocol" => ErrorKind::Protocol,
            "usage" => ErrorKind::Usage,
            "parse" => ErrorKind::Parse,
            "invalid_kernel" => ErrorKind::InvalidKernel,
            "config" => ErrorKind::Config,
            "exec" => ErrorKind::Exec,
            "timing" => ErrorKind::Timing,
            "lint" => ErrorKind::Lint,
            "timeout" => ErrorKind::Timeout,
            "overloaded" => ErrorKind::Overloaded,
            "internal" => ErrorKind::Internal,
            _ => return None,
        })
    }

    /// The stable exit code a client maps this class to. Pipeline classes
    /// reuse the `rfhc` table (3 parse, 4 invalid kernel, 5 config, 6
    /// exec, 7 timing, 8 lint); daemon-side classes (`protocol`,
    /// `timeout`, `overloaded`) map to 9, `usage` to 2, and `internal` to
    /// the panic code 70.
    pub const fn exit_code(self) -> i32 {
        match self {
            ErrorKind::Usage => 2,
            ErrorKind::Parse => 3,
            ErrorKind::InvalidKernel => 4,
            ErrorKind::Config => 5,
            ErrorKind::Exec => 6,
            ErrorKind::Timing => 7,
            ErrorKind::Lint => 8,
            ErrorKind::Protocol | ErrorKind::Timeout | ErrorKind::Overloaded => 9,
            ErrorKind::Internal => 70,
        }
    }
}

/// A structured error frame payload.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorFrame {
    /// The failure class.
    pub kind: ErrorKind,
    /// Human-readable description.
    pub message: String,
    /// For [`ErrorKind::Overloaded`]: how long the client should wait
    /// before retrying, in milliseconds.
    pub retry_after_ms: Option<u64>,
    /// Optional structured payload (e.g. the diagnostics list behind a
    /// [`ErrorKind::Lint`] frame).
    pub detail: Option<Json>,
}

impl ErrorFrame {
    /// A new error frame without a retry hint or detail payload.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        ErrorFrame {
            kind,
            message: message.into(),
            retry_after_ms: None,
            detail: None,
        }
    }

    /// Attaches a structured detail payload.
    pub fn with_detail(mut self, detail: Json) -> Self {
        self.detail = Some(detail);
        self
    }
}

impl From<IsaError> for ErrorFrame {
    fn from(e: IsaError) -> Self {
        let kind = match e {
            IsaError::Parse { .. } => ErrorKind::Parse,
            IsaError::Validate { .. } => ErrorKind::InvalidKernel,
        };
        ErrorFrame::new(kind, e.to_string())
    }
}

impl From<AllocError> for ErrorFrame {
    fn from(e: AllocError) -> Self {
        match e {
            // An invalid kernel is the same failure whether the caller or
            // the allocator noticed it first.
            AllocError::InvalidKernel(inner) => {
                ErrorFrame::new(ErrorKind::InvalidKernel, inner.to_string())
            }
            AllocError::Config(_) => ErrorFrame::new(ErrorKind::Config, e.to_string()),
        }
    }
}

impl std::fmt::Display for ErrorFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.name(), self.message)
    }
}

/// Renders a response frame payload: success with `result`, or an error
/// frame. `id` echoes the request id (0 when the request never yielded
/// one, e.g. unparsable JSON).
pub fn render_response(id: u64, outcome: &Result<(Json, bool), ErrorFrame>) -> String {
    let mut fields = vec![
        ("schema".to_string(), Json::str(SCHEMA)),
        ("id".to_string(), Json::u64(id)),
    ];
    match outcome {
        Ok((result, cached)) => {
            fields.push(("ok".to_string(), Json::Bool(true)));
            fields.push(("cached".to_string(), Json::Bool(*cached)));
            fields.push(("result".to_string(), result.clone()));
        }
        Err(e) => {
            fields.push(("ok".to_string(), Json::Bool(false)));
            let mut err = vec![
                ("kind".to_string(), Json::str(e.kind.name())),
                ("code".to_string(), Json::u64(e.kind.exit_code() as u64)),
                ("message".to_string(), Json::str(&e.message)),
            ];
            if let Some(ms) = e.retry_after_ms {
                err.push(("retry_after_ms".to_string(), Json::u64(ms)));
            }
            if let Some(detail) = &e.detail {
                err.push(("detail".to_string(), detail.clone()));
            }
            fields.push(("error".to_string(), Json::Obj(err)));
        }
    }
    Json::Obj(fields).render()
}

/// Decodes a response frame payload into the request id plus either the
/// `(result, cached)` pair or the error frame.
///
/// # Errors
///
/// A description of the malformation when the payload is not a valid
/// `rfhd-v1` response.
#[allow(clippy::type_complexity)]
pub fn decode_response(payload: &str) -> Result<(u64, Result<(Json, bool), ErrorFrame>), String> {
    let doc = crate::json::parse(payload).map_err(|e| e.to_string())?;
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("response is not schema {SCHEMA}"));
    }
    let id = doc.get("id").and_then(Json::as_u64).unwrap_or(0);
    match doc.get("ok").and_then(Json::as_bool) {
        Some(true) => {
            let result = doc.get("result").cloned().unwrap_or(Json::Null);
            let cached = doc.get("cached").and_then(Json::as_bool).unwrap_or(false);
            Ok((id, Ok((result, cached))))
        }
        Some(false) => {
            let err = doc.get("error").ok_or("error frame without `error`")?;
            let kind = err
                .get("kind")
                .and_then(Json::as_str)
                .and_then(ErrorKind::from_name)
                .ok_or("error frame with unknown kind")?;
            let message = err
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            let retry_after_ms = err.get("retry_after_ms").and_then(Json::as_u64);
            let detail = err.get("detail").cloned();
            Ok((
                id,
                Err(ErrorFrame {
                    kind,
                    message,
                    retry_after_ms,
                    detail,
                }),
            ))
        }
        None => Err("response without `ok`".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"a\":1}").expect("write");
        write_frame(&mut buf, "[]").expect("write");
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME).expect("frame 1"),
            Some("{\"a\":1}".to_string())
        );
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME).expect("frame 2"),
            Some("[]".to_string())
        );
        assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME).expect("eof"), None);
    }

    #[test]
    fn each_frame_is_one_write() {
        /// Accepts every byte and counts the `write` calls.
        struct Counting(usize);
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0 += 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = Counting(0);
        write_frame(&mut w, "{\"a\":1}").expect("write");
        write_frame(&mut w, "[]").expect("write");
        assert_eq!(w.0, 2, "one write per frame");
    }

    #[test]
    fn truncated_and_oversized_frames_are_structured() {
        // EOF inside the length prefix.
        let mut r: &[u8] = &[0, 0];
        assert!(matches!(read_frame(&mut r, 64), Err(FrameError::Truncated)));
        // EOF inside the payload.
        let mut r: &[u8] = &[0, 0, 0, 5, b'a'];
        assert!(matches!(read_frame(&mut r, 64), Err(FrameError::Truncated)));
        // Length beyond the cap.
        let mut r: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF, 0];
        assert!(matches!(
            read_frame(&mut r, 64),
            Err(FrameError::Oversized { .. })
        ));
        // Zero length.
        let mut r: &[u8] = &[0, 0, 0, 0];
        assert!(matches!(
            read_frame(&mut r, 64),
            Err(FrameError::Oversized { .. })
        ));
        // Non-UTF-8 payload.
        let mut r: &[u8] = &[0, 0, 0, 1, 0xFF];
        assert!(matches!(read_frame(&mut r, 64), Err(FrameError::Encoding)));
    }

    #[test]
    fn responses_roundtrip() {
        let ok = render_response(7, &Ok((Json::Obj(vec![]), true)));
        let (id, outcome) = decode_response(&ok).expect("decodes");
        assert_eq!(id, 7);
        assert_eq!(outcome, Ok((Json::Obj(vec![]), true)));

        let mut e = ErrorFrame::new(ErrorKind::Overloaded, "queue full");
        e.retry_after_ms = Some(25);
        let err = render_response(8, &Err(e.clone()));
        let (id, outcome) = decode_response(&err).expect("decodes");
        assert_eq!(id, 8);
        assert_eq!(outcome, Err(e));
    }

    #[test]
    fn error_kinds_roundtrip_and_map_to_stable_codes() {
        let kinds = [
            ErrorKind::Protocol,
            ErrorKind::Usage,
            ErrorKind::Parse,
            ErrorKind::InvalidKernel,
            ErrorKind::Config,
            ErrorKind::Exec,
            ErrorKind::Timing,
            ErrorKind::Lint,
            ErrorKind::Timeout,
            ErrorKind::Overloaded,
            ErrorKind::Internal,
        ];
        for k in kinds {
            assert_eq!(ErrorKind::from_name(k.name()), Some(k));
        }
        assert_eq!(ErrorKind::from_name("bogus"), None);
        assert_eq!(ErrorKind::Parse.exit_code(), 3);
        assert_eq!(ErrorKind::Lint.exit_code(), 8);
        assert_eq!(ErrorKind::Protocol.exit_code(), 9);
        assert_eq!(ErrorKind::Internal.exit_code(), 70);
    }

    #[test]
    fn malformed_responses_are_rejected() {
        assert!(decode_response("not json").is_err());
        assert!(decode_response("{\"schema\":\"rfhd-v2\",\"ok\":true}").is_err());
        assert!(decode_response("{\"schema\":\"rfhd-v1\"}").is_err());
        assert!(decode_response("{\"schema\":\"rfhd-v1\",\"ok\":false}").is_err());
    }
}
