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
//!
//! # Decoding
//!
//! One private scanner reads every protocol line on a hot path, in one
//! pass and without a value tree. [`decode_request`] (the daemon) decodes a
//! request's header fields and writes its `rows` straight into one flat
//! buffer, which becomes the job's matrix. [`decode_header`] (the fleet
//! router) has the same accept set but only syntax-checks the rows.
//! [`decode_reply_header`] (the router reading a replica) reads a reply's
//! `proto`, `id`, `ok` and error kind. [`Response::to_line`] writes reply
//! lines itself. The scanner accepts exactly what the vendored `serde_json`
//! accepts into the derived [`Request`] and [`ReplyHeader`], with the same
//! field semantics (first of duplicate keys wins, `null` is absent, unknown
//! keys are syntax-checked and skipped). Those derives stay as the
//! reference: the DST audit reads replies through `ReplyHeader`, mtbench
//! decodes through `Request`, and a refused line is answered with the
//! reference's error message.
//!
//! Each request byte is read about once. [`read_bounded_line`] frames a
//! line with std's word-at-a-time newline search. The pass that checks a
//! number token also folds its first 19 significant digits into a `u64`
//! significand `w` and a decimal exponent `q`, and a token is converted
//! from those, without a second parse, by the first of three paths that
//! takes it:
//!
//! 1. **Exact**: `w ≤ 2^53` and `q` within ±22. One IEEE multiply or
//!    divide by an exact power of ten, with one rounding.
//! 2. **Eisel–Lemire**: at most 19 significant digits, `w ≠ 0` and `q`
//!    in -27..=55, as core's `dec2flt::lemire` converts it: `w` times a
//!    128-bit `5^q` from an 83-entry table, with a round-half-even check
//!    for the ties that can occur (`q` in -4..=23). This takes the
//!    16–17-digit shortest forms such as `0.25570000000000004`.
//! 3. **`parse::<f64>`**, in a cold helper, on the scanned slice: more
//!    than 19 significant digits, a zero significand with a large
//!    exponent, or `q` outside -27..=55.
//!
//! The first two are correctly rounded, so every path gives
//! `str::parse::<f64>`'s bits. [`decode_header`] runs the same scan with
//! conversion compiled out: its row loop checks the syntax of each number
//! and folds no digit.

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::io::{self, BufRead, Read};

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

/// One parsed request line: the reference shape [`decode_request`] decodes.
/// Every field is optional at the parse layer; op-specific validation
/// happens in the session handler so that a missing field yields a
/// `bad_request` *response*, never a dropped connection.
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

    /// Writes the response as one newline-terminated JSON line: the bytes
    /// `serde_json::to_string` makes of it, in field order, without
    /// building a value tree. The `error`, `health` and `models` payloads
    /// still go through `serde_json`.
    pub fn to_line(&self) -> String {
        let predictions = self.predictions.as_deref();
        let mut line = String::with_capacity(160 + predictions.map_or(0, |p| 24 * p.len()));
        line.push_str("{\"proto\":");
        write_str(&self.proto, &mut line);
        line.push_str(",\"id\":");
        match &self.id {
            Some(id) => write_str(id, &mut line),
            None => line.push_str("null"),
        }
        let _ = write!(
            line,
            ",\"ok\":{},\"degraded\":{},\"predictions\":",
            self.ok, self.degraded
        );
        match predictions {
            Some(values) => {
                line.push('[');
                for (i, &x) in values.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    write_f64(x, &mut line);
                }
                line.push(']');
            }
            None => line.push_str("null"),
        }
        write_payload(",\"error\":", self.error.as_ref(), &mut line);
        write_payload(",\"health\":", self.health.as_ref(), &mut line);
        write_payload(",\"models\":", self.models.as_ref(), &mut line);
        line.push_str("}\n");
        line
    }
}

/// Writes `"key":payload`, the payload serialized by `serde_json`.
fn write_payload<T: Serialize>(key: &str, payload: Option<&T>, out: &mut String) {
    out.push_str(key);
    match payload.map(serde_json::to_string) {
        Some(Ok(json)) => out.push_str(&json),
        // `None` is `null`; the payload types always serialize, so the
        // error arm guards a future refactor, not a reachable path.
        _ => out.push_str("null"),
    }
}

/// A float as the vendored `serde_json` writes it: shortest round-trip
/// `Display`, `.0` appended to a text without `.`, `e` or `E`, and `null`
/// for a non-finite value.
fn write_f64(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{x}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// A JSON string as the vendored `serde_json` writes it: `"`, `\` and
/// control characters escaped (`\n`, `\r`, `\t` by name, the rest as
/// `\u00XX`), everything else verbatim.
fn write_str(s: &str, out: &mut String) {
    out.push('"');
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[plain..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

/// The header of one response line — the fields a router or an audit
/// checks — read leniently: a missing field is `None`, never a parse
/// error, and the payload is not interpreted. [`decode_reply_header`]
/// reads it on the fleet's hot path; this derive is its reference.
#[derive(Debug, Clone, Default, PartialEq, Eq, Deserialize)]
pub struct ReplyHeader {
    /// The schema marker.
    pub proto: Option<String>,
    /// The echoed request id.
    pub id: Option<String>,
    /// Whether the operation succeeded.
    pub ok: Option<bool>,
    /// The failure payload, of which only the kind is read.
    pub error: Option<ReplyError>,
}

/// The `error` object of a [`ReplyHeader`]; only its kind is read.
#[derive(Debug, Clone, PartialEq, Eq, Deserialize)]
pub struct ReplyError {
    /// One of the `E_*` kinds.
    pub kind: Option<String>,
}

impl ReplyHeader {
    /// A well-formed protocol reply: a known schema marker and an `ok`
    /// flag.
    pub(crate) fn well_formed(&self) -> bool {
        matches!(self.proto.as_deref(), Some(PROTOCOL | PROTOCOL_V1)) && self.ok.is_some()
    }
}

/// Why the scanner refused a line, and the byte offset where it stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    what: &'static str,
    at: usize,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.at)
    }
}

impl std::error::Error for DecodeError {}

/// The scalar fields of a request line, typed as in [`Request`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequestHeader {
    /// Correlation id echoed back in the response.
    pub id: Option<String>,
    /// Operation name.
    pub op: Option<String>,
    /// Per-request compute budget in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Model path override for `load`/`promote`/`reload`/`save`.
    pub path: Option<String>,
    /// Registry tenant name; absent means the default model.
    pub model: Option<String>,
    /// Version id within the model; absent means the active version.
    pub version: Option<String>,
}

/// A request's `rows`, decoded row-major into one buffer. Shape checks
/// are the router's: rows may be empty or ragged here.
#[derive(Debug, Clone, Default)]
pub struct Rows {
    /// Number of rows, counted over every row.
    pub count: usize,
    /// Length of row 0 (0 when there are no rows).
    pub width: usize,
    /// Whether some row's length differs from row 0's.
    pub ragged: bool,
    /// Every value of every row, in order; empty in header mode.
    pub values: Vec<f64>,
}

/// Decodes a request line in one pass: the header fields, and `rows`
/// (`None` when absent or `null`) straight into one flat buffer.
///
/// # Errors
///
/// A [`DecodeError`] exactly when `serde_json::from_str::<Request>`
/// refuses the line.
pub fn decode_request(line: &str) -> Result<(RequestHeader, Option<Rows>), DecodeError> {
    scan_request::<true>(line)
}

/// Reads a request line's header fields. The accept set is
/// [`decode_request`]'s, but the rows are only syntax-checked: no number
/// is converted and nothing is buffered.
///
/// # Errors
///
/// A [`DecodeError`] exactly when [`decode_request`] refuses the line.
pub fn decode_header(line: &str) -> Result<RequestHeader, DecodeError> {
    scan_request::<false>(line).map(|(header, _)| header)
}

/// Reads a reply line's header without building its payload: the whole
/// line is syntax-checked, every other value skipped.
///
/// # Errors
///
/// A [`DecodeError`] exactly when `serde_json::from_str::<ReplyHeader>`
/// refuses the line.
pub fn decode_reply_header(line: &str) -> Result<ReplyHeader, DecodeError> {
    let mut sc = Scanner::new(line);
    let mut header = ReplyHeader::default();
    let mut seen = Seen::default();
    sc.object(|sc, key| {
        match key {
            "proto" if seen.first(0) => header.proto = sc.opt_string()?,
            "id" if seen.first(1) => header.id = sc.opt_string()?,
            "ok" if seen.first(2) => header.ok = sc.opt_bool()?,
            "error" if seen.first(3) => {
                header.error = if sc.literal("null") {
                    None
                } else {
                    let mut kind = None;
                    let mut seen = Seen::default();
                    sc.object(|sc, key| match key {
                        "kind" if seen.first(0) => {
                            kind = sc.opt_string()?;
                            Ok(())
                        }
                        _ => sc.skip_value(),
                    })?;
                    Some(ReplyError { kind })
                };
            }
            _ => sc.skip_value()?,
        }
        Ok(())
    })?;
    sc.end()?;
    Ok(header)
}

/// The text a refused request line is answered with, after
/// `unparsable request: `: the reference decoder's message, so the choice
/// between syntax and shape errors and the byte offsets stay those of
/// `serde_json::from_str::<Request>`. The scanner's own message stands
/// when the reference accepts the line (a scanner bug) or when the line
/// nests deeper than the recursive reference can safely descend.
pub(crate) fn refusal(line: &str, refused: &DecodeError) -> String {
    if nesting_depth(line) <= REFERENCE_MAX_DEPTH {
        if let Err(e) = serde_json::from_str::<Request>(line) {
            return e.to_string();
        }
    }
    refused.to_string()
}

/// Deepest nesting handed to the reference decoder, which recurses once
/// per level; a protocol line needs three.
const REFERENCE_MAX_DEPTH: usize = 128;

/// The deepest bracket nesting outside strings.
fn nesting_depth(line: &str) -> usize {
    let (mut depth, mut deepest) = (0usize, 0usize);
    let (mut in_string, mut escaped) = (false, false);
    for b in line.bytes() {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
        } else {
            match b {
                b'"' => in_string = true,
                b'[' | b'{' => {
                    depth += 1;
                    deepest = deepest.max(depth);
                }
                b']' | b'}' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
    }
    deepest
}

/// Which of an object's known keys were already read: the derives read
/// the first occurrence of a key, so a repeat is only syntax-checked.
#[derive(Default)]
struct Seen(u8);

impl Seen {
    /// Whether field `bit` is met for the first time (and marks it met).
    fn first(&mut self, bit: u8) -> bool {
        let fresh = self.0 & (1 << bit) == 0;
        self.0 |= 1 << bit;
        fresh
    }
}

fn scan_request<const CONVERT: bool>(
    line: &str,
) -> Result<(RequestHeader, Option<Rows>), DecodeError> {
    let mut sc = Scanner::new(line);
    let mut header = RequestHeader::default();
    let mut rows = None;
    let mut seen = Seen::default();
    sc.object(|sc, key| {
        match key {
            "id" if seen.first(0) => header.id = sc.opt_string()?,
            "op" if seen.first(1) => header.op = sc.opt_string()?,
            "rows" if seen.first(2) => rows = sc.opt_rows::<CONVERT>()?,
            "deadline_ms" if seen.first(3) => header.deadline_ms = sc.opt_u64()?,
            "path" if seen.first(4) => header.path = sc.opt_string()?,
            "model" if seen.first(5) => header.model = sc.opt_string()?,
            "version" if seen.first(6) => header.version = sc.opt_string()?,
            _ => sc.skip_value()?,
        }
        Ok(())
    })?;
    sc.end()?;
    Ok((header, rows))
}

/// A number token as the scanner read it: its byte span in the line, and
/// its digits folded into `±significand × 10^exponent` in the same pass.
struct Number {
    start: usize,
    end: usize,
    /// No `.`, `e` or `E`.
    integral: bool,
    negative: bool,
    /// The first 19 significant digits (those after any leading zeros).
    significand: u64,
    /// How many significant digits the token has.
    significant: usize,
    /// The `e`/`E` exponent less the fraction digits.
    exponent: i64,
}

/// The powers of ten an `f64` holds exactly: `5^22 < 2^53`.
const EXACT_POWERS_OF_TEN: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// `5^q` for `q` in -27..=55 (entry `q + 27`), as the high and low words
/// of a 128-bit value with its top bit set: `5^q` shifted up for `q ≥ 0`
/// (exact, as `5^55 < 2^128`), and `⌊2^b / 5^-q⌋ + 1` with
/// `b = 127 + bitlen(5^-q)` for `q < 0`, the rule by which core's
/// `dec2flt` table is generated over those exponents.
const POWERS_OF_FIVE: [(u64, u64); 83] = powers_of_five();

const fn powers_of_five() -> [(u64, u64); 83] {
    let mut table = [(0, 0); 83];
    let mut i = 0;
    while i < table.len() {
        let q = i as i32 - 27;
        let power = 5u128.pow(q.unsigned_abs());
        let normalized = if q >= 0 {
            power << power.leading_zeros()
        } else {
            // ⌊2^b / power⌋ by long division, one quotient bit per step;
            // the quotient lies in (2^127, 2^128).
            let b = 127 + (128 - power.leading_zeros());
            let (mut quotient, mut remainder) = (0u128, 1u128);
            let mut step = 0;
            while step < b {
                remainder <<= 1;
                quotient <<= 1;
                if remainder >= power {
                    remainder -= power;
                    quotient |= 1;
                }
                step += 1;
            }
            quotient + 1
        };
        table[i] = ((normalized >> 64) as u64, normalized as u64);
        i += 1;
    }
    table
}

impl Number {
    /// The value when one IEEE multiply or divide gives it: every digit
    /// folded, a significand of at most 2^53 and an exponent within ±22.
    /// Both operands are then exact, so the one rounding is the correct
    /// rounding that `parse::<f64>` also makes, bit for bit.
    #[inline(always)]
    fn exact(&self) -> Option<f64> {
        if self.significant > 19 || self.significand > 1 << 53 {
            return None;
        }
        let significand = self.significand as f64;
        let magnitude = match self.exponent {
            0..=22 => significand * EXACT_POWERS_OF_TEN[self.exponent as usize],
            -22..=-1 => significand / EXACT_POWERS_OF_TEN[self.exponent.unsigned_abs() as usize],
            _ => return None,
        };
        Some(if self.negative { -magnitude } else { magnitude })
    }

    /// The value by the Eisel–Lemire algorithm, as core's
    /// `dec2flt::lemire` computes it, when every digit is folded, the
    /// significand is not zero and the exponent `q` is in -27..=55: the
    /// normalized significand times the normalized `5^q`, with a second
    /// product only when the low 9 bits of the first one's high word are
    /// all ones. Within these exponents that is always decisive (core
    /// falls back only outside them), so the result is correctly rounded
    /// and is `parse::<f64>`'s, bit for bit. No such value is subnormal
    /// or infinite.
    #[inline(always)]
    fn eisel_lemire(&self) -> Option<f64> {
        let q = self.exponent;
        if self.significant > 19 || self.significand == 0 || !(-27..=55).contains(&q) {
            return None;
        }
        let (hi5, lo5) = POWERS_OF_FIVE[(q + 27) as usize];
        let shift = self.significand.leading_zeros();
        let w = u128::from(self.significand << shift);
        let product = w * u128::from(hi5);
        let (mut lo, mut hi) = (product as u64, (product >> 64) as u64);
        if hi & 0x1FF == 0x1FF {
            // Both factors are below 2^64, so `hi ≤ 2^64 - 2` and the
            // carry cannot overflow.
            let carry = ((w * u128::from(lo5)) >> 64) as u64;
            lo = lo.wrapping_add(carry);
            hi += u64::from(carry > lo);
        }
        // The 52 stored bits, the hidden bit and one rounding bit.
        let upper = (hi >> 63) as u32;
        let mut mantissa = hi >> (upper + 9);
        // ⌊q · log2(10)⌋ + 63 (core's `power`), plus the exponent bias.
        let q = q as i32;
        let mut biased = ((q * (152_170 + 65_536)) >> 16) + 63 + upper as i32 - shift as i32 + 1023;
        // Only for q in -4..=23 can a decimal of at most 19 digits fall
        // exactly halfway between two doubles; such a tie shows as a
        // product with no bits below the rounding bit, and rounds to the
        // even double.
        if lo <= 1 && (-4..=23).contains(&q) && mantissa & 3 == 1 && mantissa << (upper + 9) == hi {
            mantissa &= !1;
        }
        mantissa = (mantissa + (mantissa & 1)) >> 1;
        if mantissa >= 2 << 52 {
            // Rounding carried into the next binade.
            mantissa = 1 << 52;
            biased += 1;
        }
        let magnitude = f64::from_bits(((biased as u64) << 52) | (mantissa & !(1 << 52)));
        Some(if self.negative { -magnitude } else { magnitude })
    }
}

/// A byte cursor over one line, with the grammar of the vendored
/// `serde_json` reader (`vendor/serde_json/src/read.rs`).
struct Scanner<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    /// A cursor at the line's first non-whitespace byte.
    fn new(text: &'a str) -> Scanner<'a> {
        let mut sc = Scanner {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        sc.ws();
        sc
    }

    fn fail<T>(&self, what: &'static str) -> Result<T, DecodeError> {
        Err(DecodeError { what, at: self.pos })
    }

    #[inline(always)]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline(always)]
    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline(always)]
    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    #[inline(always)]
    fn expect(&mut self, byte: u8, what: &'static str) -> Result<(), DecodeError> {
        if self.eat(byte) {
            Ok(())
        } else {
            self.fail(what)
        }
    }

    /// Consumes `word` (`true`, `false` or `null`) if it comes next.
    fn literal(&mut self, word: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(word.as_bytes());
        if hit {
            self.pos += word.len();
        }
        hit
    }

    /// Whitespace, then the end of the line.
    fn end(&mut self) -> Result<(), DecodeError> {
        self.ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            self.fail("trailing characters after JSON value")
        }
    }

    /// An object, handing each member's key to `member`, which must
    /// consume the value.
    fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), DecodeError>,
    ) -> Result<(), DecodeError> {
        self.expect(b'{', "expected an object")?;
        self.ws();
        if self.eat(b'}') {
            return Ok(());
        }
        loop {
            let key = self.key()?;
            member(self, &key)?;
            self.ws();
            if !self.eat(b',') {
                return self.expect(b'}', "expected ',' or '}' in object");
            }
        }
    }

    /// A member's key and colon; leaves the cursor at the value.
    fn key(&mut self) -> Result<Cow<'a, str>, DecodeError> {
        self.ws();
        let key = self.string()?;
        self.ws();
        self.expect(b':', "expected ':'")?;
        self.ws();
        Ok(key)
    }

    /// A string, borrowed from the line unless it holds escapes. Raw
    /// control characters are accepted, as the reference accepts them.
    fn string(&mut self) -> Result<Cow<'a, str>, DecodeError> {
        self.expect(b'"', "expected '\"'")?;
        let text = self.text;
        let start = self.pos;
        let run = |sc: &mut Self| {
            while !matches!(sc.peek(), None | Some(b'"' | b'\\')) {
                sc.pos += 1;
            }
        };
        run(self);
        if self.eat(b'"') {
            return Ok(Cow::Borrowed(&text[start..self.pos - 1]));
        }
        let mut out = String::from(&text[start..self.pos]);
        loop {
            match self.peek() {
                None => return self.fail("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let Some(escape) = self.peek() else {
                        return self.fail("unterminated escape");
                    };
                    self.pos += 1;
                    out.push(match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return self.fail("unknown escape sequence"),
                    });
                }
                Some(_) => {
                    let from = self.pos;
                    run(self);
                    out.push_str(&text[from..self.pos]);
                }
            }
        }
    }

    /// The character of a `\u` escape (the `\u` consumed), joining a
    /// surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, DecodeError> {
        let first = self.hex4()?;
        if (0xD800..0xDC00).contains(&first) {
            if !self.literal("\\u") {
                return self.fail("lone high surrogate");
            }
            let second = self.hex4()?;
            if !(0xDC00..0xE000).contains(&second) {
                return self.fail("invalid low surrogate");
            }
            let code = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
            return char::from_u32(code).map_or_else(|| self.fail("invalid surrogate pair"), Ok);
        }
        char::from_u32(first).map_or_else(|| self.fail("invalid \\u escape"), Ok)
    }

    /// Four bytes read as `u32::from_str_radix(_, 16)` reads them, as the
    /// reference does.
    fn hex4(&mut self) -> Result<u32, DecodeError> {
        let end = self.pos + 4;
        let code = self
            .bytes
            .get(self.pos..end)
            .and_then(|hex| std::str::from_utf8(hex).ok())
            .and_then(|hex| u32::from_str_radix(hex, 16).ok());
        match code {
            Some(code) => {
                self.pos = end;
                Ok(code)
            }
            None => self.fail("invalid \\u escape"),
        }
    }

    /// One number token, `-?[0-9]*(\.[0-9]*)?([eE][+-]?[0-9]*)?`, accepted
    /// exactly when `str::parse::<f64>` accepts it: at least one mantissa
    /// digit, and a digit after an exponent marker. The same pass folds
    /// the token's digits into a [`Number`]; the walk runs on a local
    /// cursor, stored back once.
    #[inline(always)]
    fn number(&mut self) -> Result<Number, DecodeError> {
        let bytes = self.bytes;
        let start = self.pos;
        let negative = match bytes.get(start) {
            Some(b'-') => true,
            Some(b'0'..=b'9') => false,
            _ => return self.fail("expected a number"),
        };
        let pos = start + usize::from(negative);
        let (mut significand, mut significant) = (0u64, 0usize);
        let mut fold = |mut pos: usize| {
            while let Some(&byte) = bytes.get(pos) {
                let digit = byte.wrapping_sub(b'0');
                if digit > 9 {
                    break;
                }
                if significant < 19 {
                    significand = significand * 10 + u64::from(digit);
                }
                // Leading zeros leave the significand 0 and are not counted.
                significant += usize::from(significand != 0);
                pos += 1;
            }
            pos
        };
        let mut pos = fold(pos);
        let mut mantissa = pos - start - usize::from(negative);
        let mut integral = true;
        let mut fraction = 0;
        if bytes.get(pos) == Some(&b'.') {
            integral = false;
            let end = fold(pos + 1);
            fraction = end - pos - 1;
            mantissa += fraction;
            pos = end;
        }
        let mut exponent = 0i64;
        let mut exponent_ok = true;
        if let Some(b'e' | b'E') = bytes.get(pos) {
            integral = false;
            pos += 1;
            let negative_exponent = bytes.get(pos) == Some(&b'-');
            if let Some(b'+' | b'-') = bytes.get(pos) {
                pos += 1;
            }
            let from = pos;
            // Saturates far beyond the exponents of either fast path, so
            // a huge exponent never lands in one.
            while let Some(digit @ 0..=9) = bytes.get(pos).map(|b| b.wrapping_sub(b'0')) {
                exponent = exponent.saturating_mul(10).saturating_add(i64::from(digit));
                pos += 1;
            }
            exponent_ok = pos > from;
            if negative_exponent {
                exponent = -exponent;
            }
        }
        self.pos = pos;
        if mantissa == 0 || !exponent_ok {
            return self.fail("invalid number");
        }
        Ok(Number {
            start,
            end: pos,
            integral,
            negative,
            significand,
            significant,
            // A digit count is at most the line's length, so `as` is exact.
            exponent: exponent.saturating_sub(fraction as i64),
        })
    }

    /// A number as `f64` gets it from the reference: by the exact path,
    /// else by Eisel–Lemire, else by `parse::<f64>`. The reference types
    /// an integral token as `u64` or `i64` before its `as f64` cast, which
    /// rounds exactly as `parse::<f64>` does but loses the sign of zero:
    /// `-0` reads `+0.0` (adding `+0.0` does that), while `-0.0` reads
    /// `-0.0`.
    #[inline(always)]
    fn number_value(&mut self) -> Result<f64, DecodeError> {
        let number = self.number()?;
        let x = match number.exact().or_else(|| number.eisel_lemire()) {
            Some(x) => x,
            None => self.parse_number(&number)?,
        };
        Ok(if number.integral { x + 0.0 } else { x })
    }

    /// A token off both fast paths (more than 19 significant digits, a
    /// zero significand with a large exponent, or an exponent outside
    /// -27..=55), converted by `parse::<f64>`.
    #[cold]
    #[inline(never)]
    fn parse_number(&self, number: &Number) -> Result<f64, DecodeError> {
        self.text[number.start..number.end]
            .parse::<f64>()
            .or_else(|_| self.fail("invalid number"))
    }

    fn opt_string(&mut self) -> Result<Option<String>, DecodeError> {
        if self.literal("null") {
            Ok(None)
        } else if self.peek() == Some(b'"') {
            Ok(Some(self.string()?.into_owned()))
        } else {
            self.fail("expected a string or null")
        }
    }

    fn opt_bool(&mut self) -> Result<Option<bool>, DecodeError> {
        if self.literal("null") {
            Ok(None)
        } else if self.literal("true") {
            Ok(Some(true))
        } else if self.literal("false") {
            Ok(Some(false))
        } else {
            self.fail("expected a bool or null")
        }
    }

    /// `deadline_ms` as the derive reads a `u64`: an integral token that
    /// fits, or a negative zero (`i64` 0). A fraction, an exponent, a
    /// negative or an overflow is refused.
    fn opt_u64(&mut self) -> Result<Option<u64>, DecodeError> {
        if self.literal("null") {
            return Ok(None);
        }
        let start = self.pos;
        if let Ok(number) = self.number() {
            let token = &self.text[number.start..number.end];
            if number.integral {
                if let Ok(n) = token.parse::<u64>() {
                    return Ok(Some(n));
                }
                if token.parse::<i64>() == Ok(0) {
                    return Ok(Some(0));
                }
            }
        }
        self.pos = start;
        self.fail("expected an unsigned integer or null")
    }

    /// `rows`: `null`, or an array of arrays of numbers, converted into
    /// one row-major buffer when `CONVERT` is set. Without it the loop
    /// only checks syntax: no digit is folded and nothing is buffered.
    /// Kept out of line: inlined into the request scan, with every header
    /// field live, the loop's cursor and fold spilled to the stack.
    #[inline(never)]
    fn opt_rows<const CONVERT: bool>(&mut self) -> Result<Option<Rows>, DecodeError> {
        if self.literal("null") {
            return Ok(None);
        }
        self.expect(b'[', "expected an array of rows")?;
        self.ws();
        let (mut count, mut width, mut ragged) = (0, 0, false);
        let mut values = Vec::new();
        if !self.eat(b']') {
            loop {
                self.ws();
                self.expect(b'[', "expected a row array")?;
                self.ws();
                let mut len = 0;
                if !self.eat(b']') {
                    loop {
                        self.ws();
                        if CONVERT {
                            values.push(self.number_value()?);
                        } else {
                            self.number()?;
                        }
                        len += 1;
                        // The usual next byte is taken directly; only
                        // another goes through the whitespace loop.
                        match self.peek() {
                            Some(b',') => self.pos += 1,
                            Some(b']') => {
                                self.pos += 1;
                                break;
                            }
                            _ => {
                                self.ws();
                                if !self.eat(b',') {
                                    self.expect(b']', "expected ',' or ']' in array")?;
                                    break;
                                }
                            }
                        }
                    }
                }
                if count == 0 {
                    width = len;
                } else if len != width {
                    ragged = true;
                }
                count += 1;
                self.ws();
                if !self.eat(b',') {
                    self.expect(b']', "expected ',' or ']' in array")?;
                    break;
                }
            }
        }
        Ok(Some(Rows {
            count,
            width,
            ragged,
            values,
        }))
    }

    /// Syntax-checks one value of any type and drops it. Iterative, so a
    /// deeply nested value costs heap, not stack.
    fn skip_value(&mut self) -> Result<(), DecodeError> {
        let mut closers: Vec<u8> = Vec::new();
        loop {
            match self.peek() {
                Some(b'{') => {
                    self.pos += 1;
                    self.ws();
                    if !self.eat(b'}') {
                        closers.push(b'}');
                        self.key()?;
                        continue;
                    }
                }
                Some(b'[') => {
                    self.pos += 1;
                    self.ws();
                    if !self.eat(b']') {
                        closers.push(b']');
                        continue;
                    }
                }
                Some(b'"') => {
                    self.string()?;
                }
                Some(b'-' | b'0'..=b'9') => {
                    self.number()?;
                }
                _ if self.literal("true") || self.literal("false") || self.literal("null") => {}
                _ => return self.fail("expected a JSON value"),
            }
            // A value ended: close every container it completes, or move
            // on to the next element of the innermost one.
            loop {
                let Some(&closer) = closers.last() else {
                    return Ok(());
                };
                self.ws();
                if self.eat(b',') {
                    self.ws();
                    if closer == b'}' {
                        self.key()?;
                    }
                    break;
                }
                if closer == b'}' {
                    self.expect(b'}', "expected ',' or '}' in object")?;
                } else {
                    self.expect(b']', "expected ',' or ']' in array")?;
                }
                closers.pop();
            }
        }
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
/// driven into unbounded buffering by a newline-free stream: a line of
/// more than [`MAX_LINE_BYTES`] bytes (its newline not counted) is drained
/// to the next newline or the end of the stream, unbuffered, and reported
/// as [`LineRead::TooLong`]. A last line without a newline still counts.
///
/// The newline is found by [`BufRead::read_until`] on a reader limited to
/// `MAX_LINE_BYTES + 1` bytes, so each buffered chunk is searched once
/// with std's word-at-a-time byte search and copied once.
///
/// # Errors
///
/// Propagates non-transient I/O errors from the underlying reader.
pub fn read_bounded_line<R: BufRead>(reader: &mut R) -> io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    reader
        .by_ref()
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', &mut buf)?;
    match buf.last() {
        None => return Ok(LineRead::Eof),
        Some(b'\n') => {
            buf.pop();
        }
        // The bound filled before a newline came.
        Some(_) if buf.len() > MAX_LINE_BYTES => {
            drop(buf);
            reader.skip_until(b'\n')?;
            return Ok(LineRead::TooLong);
        }
        Some(_) => {}
    }
    Ok(line_of(buf))
}

/// The framed bytes as a line, moved rather than copied when they are
/// valid UTF-8; invalid sequences are replaced.
fn line_of(buf: Vec<u8>) -> LineRead {
    LineRead::Line(
        String::from_utf8(buf)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned()),
    )
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

    #[test]
    fn bounded_reader_takes_exactly_max_line_bytes() {
        let line = "z".repeat(MAX_LINE_BYTES);
        for tail in ["\n", ""] {
            let data = format!("{line}{tail}");
            let mut r = BufReader::new(data.as_bytes());
            assert_eq!(
                read_bounded_line(&mut r).unwrap(),
                LineRead::Line(line.clone())
            );
            assert_eq!(read_bounded_line(&mut r).unwrap(), LineRead::Eof);
        }
        // One byte more is too long, newline-terminated or at EOF.
        for tail in ["\nok\n", ""] {
            let data = format!("{line}z{tail}");
            let mut r = BufReader::new(data.as_bytes());
            assert_eq!(read_bounded_line(&mut r).unwrap(), LineRead::TooLong);
            if !tail.is_empty() {
                assert_eq!(
                    read_bounded_line(&mut r).unwrap(),
                    LineRead::Line("ok".into())
                );
            }
            assert_eq!(read_bounded_line(&mut r).unwrap(), LineRead::Eof);
        }
    }

    #[test]
    fn line_after_too_long_survives_faults_during_the_drain() {
        use mtperf_detsim::{Fault, SimStream};
        for extra in 1..8 {
            let stream = SimStream::new();
            // The buffer holds the whole bound plus one byte, so the first
            // read fills the bounded part and every later read, with its
            // faults, lands in the drain or the next line.
            stream.script_read_fault(Fault::ShortRead(usize::MAX));
            for fault in [
                Fault::InterruptRead,
                Fault::ShortRead(extra),
                Fault::InterruptRead,
                Fault::ShortRead(1),
                Fault::ShortRead(3),
                Fault::InterruptRead,
                Fault::ShortRead(2),
            ] {
                stream.script_read_fault(fault);
            }
            stream.push_input(&vec![b'x'; MAX_LINE_BYTES + extra]);
            stream.push_input(b"\n{\"op\":\"health\"}\n");
            stream.close_input();
            let mut r = BufReader::with_capacity(MAX_LINE_BYTES + 2, stream);
            assert_eq!(read_bounded_line(&mut r).unwrap(), LineRead::TooLong);
            assert_eq!(
                read_bounded_line(&mut r).unwrap(),
                LineRead::Line("{\"op\":\"health\"}".into()),
                "{extra} bytes over"
            );
            assert_eq!(read_bounded_line(&mut r).unwrap(), LineRead::Eof);
        }
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
