//! Wire protocol of the serving daemon (schema `mtperf-serve-v2`).
//!
//! Requests and responses are newline-delimited JSON objects — one request
//! per line in, one response per line out — over stdin/stdout, a Unix
//! domain socket, or TCP. The same schema is spoken on every transport.
//!
//! # Requests
//!
//! ```json
//! {"op":"predict","id":"r1","rows":[[0.1,0.2, ...]],"deadline_ms":50}
//! {"op":"predict","id":"r2","model":"candidate","version":"v2","rows":[[0.1]]}
//! {"op":"health","id":"h1"}
//! {"op":"load","id":"l1","model":"candidate","version":"v1","path":"cand.json"}
//! {"op":"promote","id":"g1","model":"candidate","path":"cand-v2.json"}
//! {"op":"rollback","id":"b1","model":"candidate"}
//! {"op":"list","id":"ls"}
//! {"op":"reload","id":"g1","path":"new-model.json"}
//! {"op":"save","id":"s1","path":"snapshot.json"}
//! {"op":"shutdown"}
//! ```
//!
//! * `op` — required: `predict`, `health` (alias `ready`), `load`,
//!   `promote`, `rollback`, `list`, `reload`, `save`, or `shutdown`.
//! * `id` — optional string echoed back verbatim, for request/response
//!   correlation on pipelined connections.
//! * `model` — optional tenant name in the model registry. Absent means
//!   the default model, which is exactly the v1 one-daemon-one-model
//!   behavior: every valid `mtperf-serve-v1` request is a valid v2 request
//!   with identical semantics.
//! * `version` — optional version id within a model. For `predict` it
//!   pins a specific resident version (side-by-side what-if comparison);
//!   absent means the promoted (active) version. For `load`/`promote` it
//!   names the version being installed.
//! * `rows` — `predict` only: an array of equal-length rows of finite
//!   numbers, at least as wide as the model's attribute count.
//! * `deadline_ms` — `predict` only: per-request compute budget. When it
//!   expires the request fails fast with `deadline_exceeded` instead of
//!   occupying a worker.
//! * `path` — artifact file for `load`/`promote`/`reload`/`save`.
//!
//! # Responses
//!
//! Every response line carries `proto`, the echoed `id` (or `null`), `ok`,
//! and `degraded`. At most one of `predictions`, `error`, `health`, or
//! `models` is non-null; the others serialize as `null` (the vendored
//! serde emits every field). `degraded: true` means the answer came from a
//! fallback path — the daemon is alive but not at full health (see
//! [`crate::serve::engine`]).
//!
//! Error `kind`s are machine-readable and closed: [`E_BAD_REQUEST`],
//! [`E_OVERLOADED`], [`E_DEADLINE`], [`E_SHUTTING_DOWN`],
//! [`E_RELOAD_FAILED`], [`E_SAVE_FAILED`], [`E_UNKNOWN_MODEL`],
//! [`E_PROMOTE_FAILED`], [`E_ROLLBACK_FAILED`], [`E_INTERNAL`].
//!
//! # v1 → v2 compatibility
//!
//! v2 is a strict superset of v1: the new request fields are optional and
//! default to the v1 meaning, the new response field (`models`) is `null`
//! except on `list`, and the error-kind set only grew. Clients that pin
//! the schema string should accept both [`PROTOCOL`] and [`PROTOCOL_V1`].

use std::io::{self, BufRead};

use serde::{Deserialize, Serialize};

/// Protocol schema identifier, present in every response.
pub const PROTOCOL: &str = "mtperf-serve-v2";

/// The previous schema identifier. Every v1 request parses and behaves
/// identically under v2; clients checking `proto` should accept both.
pub const PROTOCOL_V1: &str = "mtperf-serve-v1";

/// Hard cap on one request line, so a stream missing its newlines cannot
/// buffer unboundedly inside the daemon.
pub const MAX_LINE_BYTES: usize = 8 * 1024 * 1024;

/// Hard cap on rows in one `predict` request; batch bigger workloads into
/// several requests so the queue stays a meaningful backpressure signal.
pub const MAX_ROWS_PER_REQUEST: usize = 65_536;

/// The request was syntactically or semantically malformed.
pub const E_BAD_REQUEST: &str = "bad_request";
/// The bounded request queue is full: explicit backpressure, retry later.
pub const E_OVERLOADED: &str = "overloaded";
/// The request's deadline expired before its computation finished.
pub const E_DEADLINE: &str = "deadline_exceeded";
/// The daemon is draining and no longer accepts work.
pub const E_SHUTTING_DOWN: &str = "shutting_down";
/// A hot reload failed validation; the previous model keeps serving.
pub const E_RELOAD_FAILED: &str = "reload_failed";
/// A model snapshot could not be persisted.
pub const E_SAVE_FAILED: &str = "save_failed";
/// The request named a model (or version) the registry does not hold.
pub const E_UNKNOWN_MODEL: &str = "unknown_model";
/// A promote failed validation; the previously active version keeps
/// serving (the registry's last-known-good contract).
pub const E_PROMOTE_FAILED: &str = "promote_failed";
/// A rollback had no previously-active validated version to land on.
pub const E_ROLLBACK_FAILED: &str = "rollback_failed";
/// Every fallback in the degradation ladder failed.
pub const E_INTERNAL: &str = "internal";
/// No replica can serve the request right now (fleet brown-out): every
/// replica holding the model is down, circuit-open, or unreachable. The
/// request was not (fully) attempted; idempotent ops are safe to retry.
pub const E_UNAVAILABLE: &str = "unavailable";

/// One parsed request line. Every field is optional at the parse layer;
/// op-specific validation happens in the session handler so that a missing
/// field yields a `bad_request` *response*, never a dropped connection.
#[derive(Debug, Clone, Deserialize)]
pub struct Request {
    /// Correlation id echoed back in the response.
    pub id: Option<String>,
    /// Operation name.
    pub op: Option<String>,
    /// Prediction input rows.
    pub rows: Option<Vec<Vec<f64>>>,
    /// Per-request compute budget in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Model path override for `load`/`promote`/`reload`/`save`.
    pub path: Option<String>,
    /// Registry tenant name; absent means the default model (v1 shape).
    pub model: Option<String>,
    /// Version id within the model; absent means the active version.
    pub version: Option<String>,
}

/// Machine-readable failure payload.
#[derive(Debug, Clone, Serialize)]
pub struct ErrorBody {
    /// One of the `E_*` kinds.
    pub kind: String,
    /// Human-readable detail.
    pub message: String,
}

/// Payload of a `health`/`ready` response.
#[derive(Debug, Clone, Serialize)]
pub struct Health {
    /// Accepting new work (model loaded, not draining).
    pub ready: bool,
    /// Serving from a fallback path (e.g. after a poisoned reload).
    pub degraded: bool,
    /// Model file the daemon (re)loads from and saves to.
    pub model: String,
    /// Prediction worker threads.
    pub workers: usize,
    /// Requests currently queued.
    pub queue_depth: usize,
    /// Queue capacity (backpressure threshold).
    pub queue_capacity: usize,
    /// Total `predict` requests accepted for parsing.
    pub requests: u64,
    /// Requests refused with `overloaded`.
    pub overloaded: u64,
    /// Requests that missed their deadline.
    pub deadline_misses: u64,
    /// Responses answered via a degraded fallback path.
    pub degraded_responses: u64,
    /// Successful hot reloads.
    pub reloads: u64,
    /// Models resident in the registry.
    pub models: usize,
    /// Model versions resident across all registry entries.
    pub versions: usize,
    /// Prediction-cache hits (answer reused, bit-identical by contract).
    pub cache_hits: u64,
    /// Prediction-cache misses (answer computed fresh).
    pub cache_misses: u64,
    /// Predicts refused because their tenant's queue quota was full.
    pub quota_refusals: u64,
    /// Per-model degraded/last-known-good status, one row per registry
    /// entry. The top-level `degraded` flag is the OR of these rows; a
    /// fleet router merges the rows, not the flag, so one poisoned model
    /// on one replica cannot mark the whole fleet degraded.
    pub per_model: Vec<ModelHealth>,
    /// Drain in progress (SIGTERM or `shutdown` op received).
    pub draining: bool,
}

/// One model's health row inside a [`Health`] payload.
#[derive(Debug, Clone, Serialize)]
pub struct ModelHealth {
    /// Model name in the registry.
    pub name: String,
    /// Serving last known good after a failed promote/reload.
    pub degraded: bool,
    /// Active version id — the last-known-good version while degraded.
    pub active: String,
    /// What the last failed promote/reload reported, when degraded.
    pub last_error: Option<String>,
}

/// One version row of a `list` response.
#[derive(Debug, Clone, Serialize)]
pub struct VersionInfo {
    /// Version id within its model.
    pub id: String,
    /// Artifact path the version validated from.
    pub path: String,
    /// Whether this is the version `predict` routes to by default.
    pub active: bool,
}

/// One model row of a `list` response.
#[derive(Debug, Clone, Serialize)]
pub struct ModelInfo {
    /// Tenant name in the registry.
    pub name: String,
    /// Active (promoted) version id.
    pub active: String,
    /// Whether the last promote/reload of this model failed validation
    /// (serving last known good).
    pub degraded: bool,
    /// Resident validated versions, in load order.
    pub versions: Vec<VersionInfo>,
}

/// One response line.
#[derive(Debug, Clone, Serialize)]
pub struct Response {
    /// Always [`PROTOCOL`].
    pub proto: String,
    /// Echo of the request id.
    pub id: Option<String>,
    /// Whether the operation succeeded.
    pub ok: bool,
    /// Whether a fallback path produced this answer.
    pub degraded: bool,
    /// Predicted CPI per input row (in input order), for `predict`.
    pub predictions: Option<Vec<f64>>,
    /// Failure payload when `ok` is false.
    pub error: Option<ErrorBody>,
    /// Probe payload for `health`/`ready`.
    pub health: Option<Health>,
    /// Registry payload for `list`.
    pub models: Option<Vec<ModelInfo>>,
}

impl Response {
    fn base(id: Option<String>) -> Response {
        Response {
            proto: PROTOCOL.to_string(),
            id,
            ok: true,
            degraded: false,
            predictions: None,
            error: None,
            health: None,
            models: None,
        }
    }

    /// A successful `predict` response.
    pub fn predictions(id: Option<String>, predictions: Vec<f64>, degraded: bool) -> Response {
        Response {
            degraded,
            predictions: Some(predictions),
            ..Response::base(id)
        }
    }

    /// A bare acknowledgement (`reload`, `save`, `shutdown`).
    pub fn ack(id: Option<String>) -> Response {
        Response::base(id)
    }

    /// A failure response of the given kind. Reload and promote failures
    /// mark the response degraded: the daemon keeps serving last known
    /// good, but the caller's deploy did not land.
    pub fn error(id: Option<String>, kind: &str, message: impl Into<String>) -> Response {
        Response {
            ok: false,
            degraded: kind == E_RELOAD_FAILED || kind == E_PROMOTE_FAILED,
            error: Some(ErrorBody {
                kind: kind.to_string(),
                message: message.into(),
            }),
            ..Response::base(id)
        }
    }

    /// A `health`/`ready` response.
    pub fn health(id: Option<String>, health: Health) -> Response {
        let degraded = health.degraded;
        Response {
            degraded,
            health: Some(health),
            ..Response::base(id)
        }
    }

    /// A `list` response carrying the registry inventory.
    pub fn models(id: Option<String>, models: Vec<ModelInfo>) -> Response {
        let degraded = models.iter().any(|m| m.degraded);
        Response {
            degraded,
            models: Some(models),
            ..Response::base(id)
        }
    }

    /// Serializes to one newline-terminated JSON line.
    pub fn to_line(&self) -> String {
        let mut line = serde_json::to_string(self).unwrap_or_else(|_| {
            // The response types above always serialize; this arm guards a
            // future refactor, not a reachable path.
            format!("{{\"proto\":\"{PROTOCOL}\",\"ok\":false}}")
        });
        line.push('\n');
        line
    }
}

/// The header of one response line — the fields a router or an audit
/// checks — read leniently: a missing field is `None`, never a parse
/// error, and the payload is not interpreted.
#[derive(Debug, Deserialize)]
pub(crate) struct ReplyHeader {
    pub(crate) proto: Option<String>,
    pub(crate) id: Option<String>,
    pub(crate) ok: Option<bool>,
    pub(crate) error: Option<ReplyError>,
}

/// The `error` object of a [`ReplyHeader`]; only its kind is read.
#[derive(Debug, Deserialize)]
pub(crate) struct ReplyError {
    pub(crate) kind: Option<String>,
}

impl ReplyHeader {
    /// A well-formed protocol reply: a known schema marker and an `ok`
    /// flag.
    pub(crate) fn well_formed(&self) -> bool {
        matches!(self.proto.as_deref(), Some(PROTOCOL | PROTOCOL_V1)) && self.ok.is_some()
    }
}

/// Outcome of one bounded line read.
#[derive(Debug, PartialEq, Eq)]
pub enum LineRead {
    /// A complete line (without its newline).
    Line(String),
    /// The line exceeded [`MAX_LINE_BYTES`]; its remainder was discarded.
    TooLong,
    /// End of stream.
    Eof,
}

/// Reads one `\n`-terminated line with a hard length bound, retrying
/// transient interruptions. Unlike [`BufRead::read_line`] this cannot be
/// driven into unbounded buffering by a newline-free stream: past
/// [`MAX_LINE_BYTES`] the overflow is drained and reported as
/// [`LineRead::TooLong`].
///
/// # Errors
///
/// Propagates non-transient I/O errors from the underlying reader.
pub fn read_bounded_line<R: BufRead>(reader: &mut R) -> io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    let mut overflow = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            // EOF. A trailing unterminated line still counts as a line.
            return Ok(match (overflow, buf.is_empty()) {
                (true, _) => LineRead::TooLong,
                (false, true) => LineRead::Eof,
                (false, false) => LineRead::Line(String::from_utf8_lossy(&buf).into_owned()),
            });
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.map_or(chunk.len(), |i| i + 1);
        if !overflow {
            let payload = &chunk[..newline.unwrap_or(take)];
            if buf.len() + payload.len() > MAX_LINE_BYTES {
                overflow = true;
                buf.clear();
            } else {
                buf.extend_from_slice(payload);
            }
        }
        reader.consume(take);
        if newline.is_some() {
            return Ok(if overflow {
                LineRead::TooLong
            } else {
                LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn request_parses_with_missing_fields() {
        let r: Request = serde_json::from_str(r#"{"op":"health"}"#).unwrap();
        assert_eq!(r.op.as_deref(), Some("health"));
        assert!(r.id.is_none() && r.rows.is_none() && r.deadline_ms.is_none());

        let r: Request =
            serde_json::from_str(r#"{"op":"predict","id":"a","rows":[[1.0,2.0]],"deadline_ms":9}"#)
                .unwrap();
        assert_eq!(r.rows.unwrap(), vec![vec![1.0, 2.0]]);
        assert_eq!(r.deadline_ms, Some(9));
    }

    #[test]
    fn response_lines_are_single_json_lines() {
        let ok = Response::predictions(Some("r1".into()), vec![1.5], false).to_line();
        assert!(ok.ends_with('\n') && !ok.trim_end().contains('\n'));
        assert!(ok.contains("\"proto\":\"mtperf-serve-v2\""), "{ok}");
        assert!(ok.contains("\"id\":\"r1\""), "{ok}");
        assert!(ok.contains("\"ok\":true"), "{ok}");

        let err = Response::error(None, E_OVERLOADED, "queue full").to_line();
        assert!(err.contains("\"ok\":false"), "{err}");
        assert!(err.contains("\"kind\":\"overloaded\""), "{err}");
        assert!(err.contains("\"id\":null"), "{err}");
    }

    #[test]
    fn v1_requests_parse_identically_under_v2() {
        // The exact request shapes of the v1 protocol docs: every one must
        // parse with the new fields defaulting to the v1 meaning.
        for line in [
            r#"{"op":"predict","id":"r1","rows":[[0.1,0.2]],"deadline_ms":50}"#,
            r#"{"op":"health","id":"h1"}"#,
            r#"{"op":"reload","id":"g1","path":"new-model.json"}"#,
            r#"{"op":"save","id":"s1","path":"snapshot.json"}"#,
            r#"{"op":"shutdown"}"#,
        ] {
            let r: Request = serde_json::from_str(line).unwrap();
            assert!(r.model.is_none(), "{line}");
            assert!(r.version.is_none(), "{line}");
        }
        let r: Request =
            serde_json::from_str(r#"{"op":"predict","model":"m","version":"v2","rows":[[1.0]]}"#)
                .unwrap();
        assert_eq!(r.model.as_deref(), Some("m"));
        assert_eq!(r.version.as_deref(), Some("v2"));
    }

    #[test]
    fn reload_and_promote_failures_mark_degraded() {
        let e = Response::error(None, E_RELOAD_FAILED, "poisoned");
        assert!(e.degraded && !e.ok);
        let e = Response::error(None, E_PROMOTE_FAILED, "poisoned");
        assert!(e.degraded && !e.ok);
        let e = Response::error(None, E_BAD_REQUEST, "nope");
        assert!(!e.degraded);
    }

    #[test]
    fn list_response_carries_models_and_degradation() {
        let resp = Response::models(
            Some("ls".into()),
            vec![ModelInfo {
                name: "default".into(),
                active: "v1".into(),
                degraded: true,
                versions: vec![VersionInfo {
                    id: "v1".into(),
                    path: "m.json".into(),
                    active: true,
                }],
            }],
        );
        assert!(resp.degraded, "a degraded model degrades the listing");
        let line = resp.to_line();
        assert!(line.contains("\"models\":["), "{line}");
        assert!(line.contains("\"name\":\"default\""), "{line}");
        assert!(line.contains("\"active\":\"v1\""), "{line}");
    }

    #[test]
    fn bounded_reader_splits_lines() {
        let mut r = BufReader::new(&b"one\ntwo\nthree"[..]);
        assert_eq!(
            read_bounded_line(&mut r).unwrap(),
            LineRead::Line("one".into())
        );
        assert_eq!(
            read_bounded_line(&mut r).unwrap(),
            LineRead::Line("two".into())
        );
        // Unterminated trailing line still delivered, then EOF.
        assert_eq!(
            read_bounded_line(&mut r).unwrap(),
            LineRead::Line("three".into())
        );
        assert_eq!(read_bounded_line(&mut r).unwrap(), LineRead::Eof);
    }

    #[test]
    fn bounded_reader_caps_line_length() {
        // One huge newline-free prefix, then a normal line: the huge line is
        // reported TooLong (not buffered), the next line survives.
        let mut data = vec![b'x'; MAX_LINE_BYTES + 10];
        data.push(b'\n');
        data.extend_from_slice(b"ok\n");
        // A tiny BufReader capacity forces many fill_buf cycles.
        let mut r = BufReader::with_capacity(64, &data[..]);
        assert_eq!(read_bounded_line(&mut r).unwrap(), LineRead::TooLong);
        assert_eq!(
            read_bounded_line(&mut r).unwrap(),
            LineRead::Line("ok".into())
        );
        assert_eq!(read_bounded_line(&mut r).unwrap(), LineRead::Eof);
    }
}

/// Property tests: the protocol edge the daemon exposes to arbitrary
/// clients must never panic, never hang, and never mangle a well-formed
/// line — under any byte content, any buffering boundary, and any faulty
/// transport behavior the simulated stream can script.
#[cfg(test)]
mod proptests {
    use super::*;
    use mtperf_detsim::{Fault, SimStream};
    use proptest::prelude::*;
    use std::io::BufReader;

    /// Any byte value, including invalid-UTF-8 lead/continuation bytes.
    fn arb_byte() -> impl Strategy<Value = u8> {
        #[allow(clippy::cast_possible_truncation)]
        (0u32..256).prop_map(|b| b as u8)
    }

    /// Any byte except `\n` (newlines are the line separator under test;
    /// the vendored proptest has no filter combinator, so remap instead).
    fn arb_line_byte() -> impl Strategy<Value = u8> {
        arb_byte().prop_map(|b| if b == b'\n' { b'x' } else { b })
    }

    /// Lines of arbitrary non-newline bytes (including invalid UTF-8).
    fn arb_lines() -> impl Strategy<Value = Vec<Vec<u8>>> {
        prop::collection::vec(prop::collection::vec(arb_line_byte(), 0..160), 0..16)
    }

    proptest! {
        /// Arbitrary bytes, arbitrary buffer capacity: the reader always
        /// terminates (EOF) and never panics. Invalid UTF-8 is replaced,
        /// not fatal.
        #[test]
        fn arbitrary_bytes_terminate_without_panic(
            data in prop::collection::vec(arb_byte(), 0..2048),
            cap in 1usize..96,
        ) {
            let mut r = BufReader::with_capacity(cap, &data[..]);
            let mut reads = 0usize;
            loop {
                match read_bounded_line(&mut r).unwrap() {
                    LineRead::Eof => break,
                    LineRead::Line(_) | LineRead::TooLong => reads += 1,
                }
                // Each read consumes at least one byte of input, so the
                // loop is bounded by the input length (no-hang property).
                prop_assert!(reads <= data.len() + 1);
            }
        }

        /// Splitting the byte stream at any buffer boundary never changes
        /// what lines come out: reassembly is exact, byte for byte (after
        /// lossy UTF-8 replacement, which is the documented behavior).
        #[test]
        fn split_reads_reassemble_lines_exactly(lines in arb_lines(), cap in 1usize..64) {
            let mut data = Vec::new();
            for l in &lines {
                data.extend_from_slice(l);
                data.push(b'\n');
            }
            let mut r = BufReader::with_capacity(cap, &data[..]);
            for l in &lines {
                let want = String::from_utf8_lossy(l).into_owned();
                match read_bounded_line(&mut r).unwrap() {
                    LineRead::Line(got) => prop_assert_eq!(got, want),
                    other => panic!("expected line, got {other:?}"),
                }
            }
            prop_assert_eq!(read_bounded_line(&mut r).unwrap(), LineRead::Eof);
        }

        /// A transport that delivers the same bytes through scripted
        /// partial reads and transient interruptions yields the same
        /// lines: the reader absorbs `ErrorKind::Interrupted` and short
        /// reads without losing or duplicating data.
        #[test]
        fn faulty_transport_reassembles_lines_exactly(
            lines in arb_lines(),
            shorts in prop::collection::vec(1usize..9, 0..8),
            interrupts in 0usize..4,
        ) {
            let stream = SimStream::new();
            for (i, n) in shorts.iter().enumerate() {
                stream.script_read_fault(Fault::ShortRead(*n));
                if i < interrupts {
                    stream.script_read_fault(Fault::InterruptRead);
                }
            }
            for l in &lines {
                stream.push_input(l);
                stream.push_input(b"\n");
            }
            stream.close_input();
            let mut r = BufReader::with_capacity(32, stream);
            for l in &lines {
                let want = String::from_utf8_lossy(l).into_owned();
                match read_bounded_line(&mut r).unwrap() {
                    LineRead::Line(got) => prop_assert_eq!(got, want),
                    other => panic!("expected line, got {other:?}"),
                }
            }
            prop_assert_eq!(read_bounded_line(&mut r).unwrap(), LineRead::Eof);
        }

        /// Request parsing accepts or rejects arbitrary text without
        /// panicking, and a rejection is an `Err` (which the session layer
        /// turns into a typed `bad_request`), never a crash.
        #[test]
        fn arbitrary_text_parses_or_errors_cleanly(
            bytes in prop::collection::vec(arb_byte(), 0..256),
        ) {
            let text = String::from_utf8_lossy(&bytes);
            let _ = serde_json::from_str::<Request>(&text);
        }

    }

    proptest! {
        // Each case scans >8 MiB; a handful of cases is plenty.
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// An oversized line is reported `TooLong` wherever the newline
        /// falls relative to the cap, and the following line survives
        /// intact — one poison request cannot take later requests with it.
        #[test]
        fn oversized_lines_are_contained(extra in 1usize..64, cap in 512usize..4096) {
            let mut data = vec![b'y'; MAX_LINE_BYTES + extra];
            data.push(b'\n');
            data.extend_from_slice(b"{\"op\":\"health\"}\n");
            let mut r = BufReader::with_capacity(cap, &data[..]);
            prop_assert_eq!(read_bounded_line(&mut r).unwrap(), LineRead::TooLong);
            match read_bounded_line(&mut r).unwrap() {
                LineRead::Line(got) => prop_assert_eq!(got, "{\"op\":\"health\"}"),
                other => panic!("expected line, got {other:?}"),
            }
            prop_assert_eq!(read_bounded_line(&mut r).unwrap(), LineRead::Eof);
        }
    }
}
