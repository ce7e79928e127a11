//! Differential suite for the serve protocol's one-pass scanner and its
//! direct reply writer, against the vendored `serde_json` reference:
//!
//! * (a) on generated and byte-mutated request lines, [`decode_request`]
//!   accepts exactly what `serde_json::from_str::<Request>` accepts, with
//!   equal fields, row bits, row count, row-0 width and ragged flag;
//! * (b) header mode ([`decode_header`]) agrees with full mode on
//!   acceptance and on every header field;
//! * (c) [`decode_reply_header`] agrees with the `ReplyHeader` derive on
//!   generated and mutated replies;
//! * (d) [`Response::to_line`] writes the bytes `serde_json::to_string`
//!   writes, for random float bit patterns, ±0, subnormals, integral
//!   values ≥ 1e16, NaN, ±inf, and ids with every escape class;
//! * (e) every token over `{-,0,1,.,e,E,+}` up to length 6 is accepted as
//!   a row value exactly when it starts a JSON number (`-` or a digit)
//!   and `parse::<f64>` accepts it, as the reference decides;
//! * (f) on the daemon's cache path (decode → matrix → cache), `-0` and
//!   `0` share an entry and `-0.0` does not;
//! * (g) row values at the edges of the scanner's exact conversion path
//!   (at most 19 significant digits, a significand of at most 2^53, a
//!   decimal exponent within ±22) and 100,000 seeded random doubles in
//!   Rust's and Python's shortest forms decode to the reference's bits.

use mtperf::serve::cache::PredictionCache;
use mtperf::serve::protocol::{
    decode_header, decode_reply_header, decode_request, Health, ModelHealth, ModelInfo,
    ReplyHeader, Request, Response, VersionInfo, E_BAD_REQUEST, E_OVERLOADED, E_PROMOTE_FAILED,
};
use mtperf_linalg::Matrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Seeded generator of protocol-shaped text.
struct Gen(SmallRng);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen(SmallRng::seed_from_u64(seed))
    }

    fn below(&mut self, n: usize) -> usize {
        self.0.gen_range(0..n)
    }

    fn chance(&mut self, p: f64) -> bool {
        self.0.gen::<f64>() < p
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    /// Whitespace between tokens: usually none, sometimes any of the four
    /// JSON whitespace bytes.
    fn ws(&mut self) -> &'static str {
        if self.chance(0.85) {
            ""
        } else {
            self.pick(&[" ", "\t", "\r", "\n", "  ", " \t\r "])
        }
    }

    /// A JSON string literal, quotes included, mixing escapes, non-ASCII
    /// text and raw control characters.
    fn string(&mut self) -> String {
        const PIECES: &[&str] = &[
            "a",
            "Z",
            "0",
            " ",
            "predict",
            "health",
            "é",
            "😀",
            "\t",
            "\u{1}",
            "\\\"",
            "\\\\",
            "\\/",
            "\\b",
            "\\f",
            "\\n",
            "\\r",
            "\\t",
            "\\u0041",
            "\\u00e9",
            "\\ud83d\\ude00",
            "\\u+041",
            "\\uD834\\uDD1E",
        ];
        let mut s = String::from("\"");
        for _ in 0..self.below(6) {
            s.push_str(self.pick(PIECES));
        }
        s.push('"');
        s
    }

    /// A number token: edge cases, integers, and floats in every format
    /// Rust prints.
    fn number(&mut self) -> String {
        const EDGES: &[&str] = &[
            "0",
            "-0",
            "-0.0",
            "0.0",
            "1",
            "-1",
            "1e999",
            "-1e999",
            "1E2",
            "1e-3",
            "2.5e+1",
            "007",
            "-.5",
            "1.",
            "-0e0",
            "18446744073709551615",
            "18446744073709551616",
            "-9223372036854775808",
            "-9223372036854775809",
            "12345678901234567890123",
            "4.9e-324",
            "2.2250738585072014e-308",
            "1.7976931348623157e308",
        ];
        match self.below(7) {
            0 => self.pick(EDGES).to_string(),
            1 => self.0.gen_range(0u64..100_000).to_string(),
            2 => format!("-{}", self.0.gen_range(0u64..100_000)),
            3 => format!("{:e}", self.0.gen::<f64>() * 1e6),
            4 => format!("{:?}", self.0.gen::<f64>() - 0.5),
            _ => {
                let x = f64::from_bits(self.0.gen::<u64>());
                if x.is_finite() && x.abs() < 1e40 && (x == 0.0 || x.abs() > 1e-40) {
                    format!("{x}")
                } else {
                    format!("{:e}", x)
                }
            }
        }
    }

    /// Any JSON value, nesting at most `depth` more levels.
    fn value(&mut self, depth: u32) -> String {
        match self.below(8) {
            0 => self.string(),
            1 | 2 => self.number(),
            3 => self.pick(&["true", "false"]).to_string(),
            4 => "null".to_string(),
            5 if depth > 0 => {
                let items: Vec<String> =
                    (0..self.below(4)).map(|_| self.value(depth - 1)).collect();
                self.array(&items)
            }
            6 if depth > 0 => {
                let members: Vec<(String, String)> = (0..self.below(4))
                    .map(|_| (self.string(), self.value(depth - 1)))
                    .collect();
                self.object(&members)
            }
            _ => self.rows(),
        }
    }

    fn array(&mut self, items: &[String]) -> String {
        let mut s = format!("[{}", self.ws());
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                s.push_str(self.ws());
                s.push(',');
                s.push_str(self.ws());
            }
            s.push_str(item);
        }
        s.push_str(self.ws());
        s.push(']');
        s
    }

    fn object(&mut self, members: &[(String, String)]) -> String {
        let mut s = format!("{{{}", self.ws());
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                s.push_str(self.ws());
                s.push(',');
                s.push_str(self.ws());
            }
            s.push_str(key);
            s.push_str(self.ws());
            s.push(':');
            s.push_str(self.ws());
            s.push_str(value);
        }
        s.push_str(self.ws());
        s.push('}');
        s
    }

    /// A `rows` value: usually rows of numbers of one width, sometimes
    /// empty, ragged, or holding a non-number.
    fn rows(&mut self) -> String {
        let width = self.below(5);
        let rows: Vec<String> = (0..self.below(4))
            .map(|_| {
                let w = if self.chance(0.8) {
                    width
                } else {
                    self.below(5)
                };
                let values: Vec<String> = (0..w)
                    .map(|_| {
                        if self.chance(0.03) {
                            self.value(0)
                        } else {
                            self.number()
                        }
                    })
                    .collect();
                self.array(&values)
            })
            .collect();
        self.array(&rows)
    }

    /// A key, sometimes spelled with escapes so it only matches after
    /// unescaping.
    fn key(&mut self, name: &str) -> String {
        match (name, self.below(10)) {
            ("op", 0) => "\"\\u006fp\"".to_string(),
            ("id", 0) => "\"i\\u0064\"".to_string(),
            ("rows", 0) => "\"\\u0072ows\"".to_string(),
            _ => format!("\"{name}\""),
        }
    }

    /// A request-shaped line: known keys with well- and ill-typed values,
    /// unknown keys, duplicates and nulls.
    fn request(&mut self) -> String {
        if self.chance(0.03) {
            return self.value(2);
        }
        const KEYS: &[&str] = &[
            "id",
            "op",
            "rows",
            "rows",
            "deadline_ms",
            "path",
            "model",
            "version",
            "extra",
            "ID",
            "op ",
        ];
        let members: Vec<(String, String)> = (0..self.below(7))
            .map(|_| {
                let name = self.pick(KEYS);
                let value = match name {
                    _ if self.chance(0.1) => self.value(2),
                    _ if self.chance(0.08) => "null".to_string(),
                    "op" => format!(
                        "\"{}\"",
                        self.pick(&["predict", "health", "ready", "list", "load", "save", "x"])
                    ),
                    "rows" => self.rows(),
                    "deadline_ms" => self.number(),
                    "id" | "path" | "model" | "version" => self.string(),
                    _ => self.value(2),
                };
                (self.key(name), value)
            })
            .collect();
        let line = self.object(&members);
        format!("{}{line}{}", self.ws(), self.ws())
    }

    /// A reply-shaped line: a real reply, or an object over the header
    /// keys with values of every type.
    fn reply(&mut self) -> String {
        if self.chance(0.4) {
            return self.response().to_line().trim_end().to_string();
        }
        const KEYS: &[&str] = &[
            "proto",
            "proto",
            "id",
            "ok",
            "ok",
            "error",
            "error",
            "degraded",
            "predictions",
            "health",
            "kind",
        ];
        let members: Vec<(String, String)> = (0..self.below(7))
            .map(|_| {
                let name = self.pick(KEYS);
                let value = match name {
                    _ if self.chance(0.1) => self.value(2),
                    "proto" => self
                        .pick(&[
                            "\"mtperf-serve-v2\"",
                            "\"mtperf-serve-v1\"",
                            "\"v3\"",
                            "null",
                        ])
                        .to_string(),
                    "ok" => self
                        .pick(&["true", "false", "null", "1", "\"true\""])
                        .to_string(),
                    "error" => {
                        let kind = match self.below(4) {
                            0 => "null".to_string(),
                            1 => self.number(),
                            _ => self.string(),
                        };
                        let members = vec![
                            (self.key("kind"), kind),
                            (self.key("message"), self.string()),
                        ];
                        self.object(&members)
                    }
                    _ => self.value(2),
                };
                (self.key(name), value)
            })
            .collect();
        self.object(&members)
    }

    /// A few byte-level edits (on characters, so the text stays a `str`):
    /// delete, insert, replace, truncate, duplicate.
    fn mutate(&mut self, line: &str) -> String {
        const BYTES: &[char] = &[
            '{', '}', '[', ']', ',', ':', '"', '\\', '-', '+', '.', 'e', 'E', '0', '1', '9', ' ',
            '\t', '\r', '\n', 'n', 't', 'f', 'u', 'l', 'a', 'é', '😀', '\u{1}', '/',
        ];
        let mut chars: Vec<char> = line.chars().collect();
        for _ in 0..1 + self.below(3) {
            let len = chars.len();
            let at = self.below(len + 1);
            match self.below(5) {
                0 if at < len => {
                    chars.remove(at);
                }
                1 => chars.insert(at, self.pick(BYTES)),
                2 if at < len => chars[at] = self.pick(BYTES),
                3 => chars.truncate(at),
                _ => {
                    let end = (at + 1 + self.below(8)).min(len);
                    let copy: Vec<char> = chars[at.min(end)..end].to_vec();
                    chars.splice(end..end, copy);
                }
            }
        }
        chars.into_iter().collect()
    }

    /// Decoded string content with every escape class the writer knows.
    fn text(&mut self) -> String {
        const CHARS: &[char] = &[
            'a', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}',
            '\u{7f}', 'é', '😀', '\u{2028}',
        ];
        (0..self.below(8)).map(|_| self.pick(CHARS)).collect()
    }

    /// A float: a random bit pattern or an edge value.
    fn float(&mut self) -> f64 {
        const EDGES: &[f64] = &[
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            2.225e-308,
            1e16,
            1e17,
            -1e16,
            123_456_789_012_345_680_000.0,
            1e300,
            f64::MAX,
            f64::MIN,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.1,
            1.0,
            -1.0,
            2.5,
            17.012_576_958_957_464,
        ];
        if self.chance(0.3) {
            self.pick(EDGES)
        } else {
            f64::from_bits(self.0.gen::<u64>())
        }
    }

    /// A response of any kind.
    fn response(&mut self) -> Response {
        let id = if self.chance(0.2) {
            None
        } else {
            Some(self.text())
        };
        match self.below(6) {
            0 | 1 => {
                let predictions = (0..self.below(6)).map(|_| self.float()).collect();
                Response::predictions(id, predictions, self.chance(0.3))
            }
            2 => {
                let kind = self.pick(&[E_BAD_REQUEST, E_OVERLOADED, E_PROMOTE_FAILED]);
                let message = self.text();
                Response::error(id, kind, message)
            }
            3 => Response::ack(id),
            4 => Response::models(
                id,
                vec![ModelInfo {
                    name: self.text(),
                    active: "v1".into(),
                    degraded: self.chance(0.5),
                    versions: vec![VersionInfo {
                        id: "v1".into(),
                        path: self.text(),
                        active: true,
                    }],
                }],
            ),
            _ => Response::health(
                id,
                Health {
                    ready: true,
                    degraded: self.chance(0.5),
                    model: self.text(),
                    workers: 2,
                    queue_depth: self.below(64),
                    queue_capacity: 64,
                    requests: self.0.gen::<u64>(),
                    overloaded: 0,
                    deadline_misses: 1,
                    degraded_responses: 0,
                    reloads: 0,
                    models: 1,
                    versions: 1,
                    cache_hits: 7,
                    cache_misses: 7,
                    quota_refusals: 0,
                    per_model: vec![ModelHealth {
                        name: "default".into(),
                        degraded: false,
                        active: "v1".into(),
                        last_error: self.chance(0.5).then(|| self.text()),
                    }],
                    draining: false,
                },
            ),
        }
    }
}

fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
    values.into_iter().map(f64::to_bits).collect()
}

/// Checks (a) and (b) on one line; returns whether it was accepted.
fn check_request(line: &str) -> bool {
    let reference = serde_json::from_str::<Request>(line);
    let decoded = decode_request(line);
    let header = decode_header(line);
    match (&decoded, &header) {
        (Ok((full, _)), Ok(header)) => assert_eq!(full, header, "header mode on {line:?}"),
        (Err(_), Err(_)) => {}
        _ => panic!("header mode disagrees on {line:?}: {decoded:?} vs {header:?}"),
    }
    let (r, d) = match (reference, decoded) {
        (Ok(r), Ok(d)) => (r, d),
        (Err(_), Err(_)) => return false,
        (r, d) => panic!("accept sets differ on {line:?}: reference {r:?}, scanner {d:?}"),
    };
    let (h, rows) = &d;
    assert_eq!(
        (&h.id, &h.op, &h.deadline_ms, &h.path, &h.model, &h.version),
        (&r.id, &r.op, &r.deadline_ms, &r.path, &r.model, &r.version),
        "fields of {line:?}"
    );
    match (&r.rows, rows) {
        (None, None) => {}
        (Some(want), Some(got)) => {
            let width = want.first().map_or(0, Vec::len);
            assert_eq!(got.count, want.len(), "row count of {line:?}");
            assert_eq!(got.width, width, "row-0 width of {line:?}");
            assert_eq!(
                got.ragged,
                want.iter().any(|row| row.len() != width),
                "ragged flag of {line:?}"
            );
            assert_eq!(
                bits(got.values.iter().copied()),
                bits(want.iter().flatten().copied()),
                "row bits of {line:?}"
            );
        }
        (want, got) => panic!("rows of {line:?}: reference {want:?}, scanner {got:?}"),
    }
    true
}

#[test]
fn request_scanner_matches_the_reference_on_generated_and_mutated_lines() {
    let mut g = Gen::new(0x5EED_0001);
    let (mut accepted, mut refused) = (0, 0);
    for _ in 0..4_000 {
        let line = g.request();
        for candidate in [line.clone(), g.mutate(&line), g.mutate(&line)] {
            if check_request(&candidate) {
                accepted += 1;
            } else {
                refused += 1;
            }
        }
    }
    // Both sides of the accept set are exercised.
    assert!(
        accepted > 1_000 && refused > 1_000,
        "{accepted} accepted, {refused} refused"
    );
}

#[test]
fn request_scanner_matches_the_reference_on_hand_picked_lines() {
    for line in [
        "",
        " ",
        "{}",
        " {} ",
        "{",
        "}",
        "[]",
        "null",
        "{\"op\":\"health\"}",
        "{\"op\":\"health\",}",
        "{,\"op\":\"health\"}",
        "{\"op\":\"health\"}}",
        "{\"op\":\"health\"} x",
        "{\"op\":nul}",
        "{\"op\":nullx}",
        "{\"op\":null}",
        "{\"op\" : \"predict\" , \"rows\" : [ [ 1 , 2 ] , [ 3 , 4 ] ] }",
        "{\"rows\":[[]]}",
        "{\"rows\":[[],[1]]}",
        "{\"rows\":[[1],[]]}",
        "{\"rows\":[1]}",
        "{\"rows\":[[1,]]}",
        "{\"rows\":[[,1]]}",
        "{\"rows\":[[1],]}",
        "{\"rows\":[[-]]}",
        "{\"rows\":[[--1]]}",
        "{\"rows\":[[+1]]}",
        "{\"rows\":[[.5]]}",
        "{\"rows\":[[1e]]}",
        "{\"rows\":[[1e+]]}",
        "{\"rows\":[[1.e5]]}",
        "{\"rows\":[[-.e5]]}",
        "{\"rows\":[[0x10]]}",
        "{\"rows\":[[1 2]]}",
        "{\"rows\":{\"a\":1}}",
        "{\"deadline_ms\":-0}",
        "{\"deadline_ms\":-00}",
        "{\"deadline_ms\":-1}",
        "{\"deadline_ms\":1.0}",
        "{\"deadline_ms\":1e0}",
        "{\"deadline_ms\":18446744073709551615}",
        "{\"deadline_ms\":18446744073709551616}",
        "{\"deadline_ms\":\"5\"}",
        "{\"id\":\"\\u+041\"}",
        "{\"id\":\"\\u-041\"}",
        "{\"id\":\"\\u004\"}",
        "{\"id\":\"\\u00e\"}",
        "{\"id\":\"\\ud800\\u0041\"}",
        "{\"id\":\"\\ud800\"}",
        "{\"id\":\"\\udc00\"}",
        "{\"id\":\"\\ud800\\udc00\"}",
        "{\"id\":\"\\x\"}",
        "{\"id\":\"\\",
        "{\"id\":\"é\\u00e9😀\"}",
        "{\"id\":\"a\"b\"}",
        "{\"i\\u0064\":\"escaped key\"}",
        "{\"id\":\"first\",\"id\":7}",
        "{\"id\":7,\"id\":\"second\"}",
        "{\"x\":[1,{\"y\":[true,false,null,\"s\"]}],\"op\":\"list\"}",
        "{\"x\":[1,{\"y\":[true,false,null,\"s\"]},],\"op\":\"list\"}",
        "{\"x\":{\"a\" 1}}",
        "{\"x\":{1:2}}",
        "{\"x\":tru}",
        "\u{feff}{}",
        "{}\u{a0}",
        "\t\r\n{}\t\r\n",
    ] {
        check_request(line);
    }
}

#[test]
fn reply_reader_matches_the_reference() {
    let mut g = Gen::new(0x5EED_0003);
    let (mut accepted, mut refused) = (0, 0);
    for _ in 0..3_000 {
        let line = g.reply();
        for candidate in [line.clone(), g.mutate(&line)] {
            let reference = serde_json::from_str::<ReplyHeader>(&candidate);
            match (reference, decode_reply_header(&candidate)) {
                (Ok(want), Ok(got)) => {
                    assert_eq!(got, want, "reply header of {candidate:?}");
                    accepted += 1;
                }
                (Err(_), Err(_)) => refused += 1,
                (want, got) => {
                    panic!(
                        "accept sets differ on {candidate:?}: reference {want:?}, reader {got:?}"
                    )
                }
            }
        }
    }
    assert!(
        accepted > 500 && refused > 500,
        "{accepted} accepted, {refused} refused"
    );
}

#[test]
fn reply_writer_matches_the_reference_bytes() {
    let mut g = Gen::new(0x5EED_0004);
    for _ in 0..4_000 {
        let response = g.response();
        let want = serde_json::to_string(&response).expect("serializes") + "\n";
        assert_eq!(response.to_line(), want);
    }
    // Every edge float on its own, and a run of random bit patterns.
    let mut floats: Vec<f64> = (0..2_000).map(|_| g.float()).collect();
    floats.extend((1..=64).map(|e| 2f64.powi(e)));
    floats.extend((16..=22).map(|e| 10f64.powi(e)));
    for x in floats {
        let response = Response::predictions(Some("f".into()), vec![x, -x], false);
        let want = serde_json::to_string(&response).expect("serializes") + "\n";
        assert_eq!(response.to_line(), want, "{x:e}");
    }
}

#[test]
fn number_tokens_are_accepted_exactly_when_json_and_f64_accept_them() {
    const ALPHABET: &[u8] = b"-01.eE+";
    let mut tokens: Vec<String> = vec![String::new()];
    let mut frontier = tokens.clone();
    for _ in 0..6 {
        frontier = frontier
            .iter()
            .flat_map(|t| {
                ALPHABET.iter().map(move |&c| {
                    let mut next = t.clone();
                    next.push(c as char);
                    next
                })
            })
            .collect();
        tokens.extend(frontier.iter().cloned());
    }
    let mut accepted = 0;
    for token in &tokens[1..] {
        // A JSON number starts with `-` or a digit; `parse::<f64>` also
        // takes a leading `+` or `.`.
        let json_start = token.starts_with(['-', '0', '1']);
        let want = json_start && token.parse::<f64>().is_ok();
        let line = format!("{{\"rows\":[[{token}]]}}");
        assert_eq!(check_request(&line), want, "row value {token:?}");
        let got = decode_request(&line).ok().and_then(|(_, rows)| rows);
        if let (true, Some(rows)) = (want, got) {
            accepted += 1;
            let value = rows.values[0];
            if token.contains(['.', 'e', 'E']) {
                assert_eq!(value.to_bits(), token.parse::<f64>().unwrap().to_bits());
            } else {
                // An integral token is typed as an integer first, so a
                // negative zero reads `+0.0`.
                assert_eq!(
                    value.to_bits(),
                    (token.parse::<f64>().unwrap() + 0.0).to_bits()
                );
            }
        }
        check_request(&format!("{{\"deadline_ms\":{token}}}"));
    }
    assert!(accepted > 1_000, "{accepted}");
}

/// The rows of a predict line as the daemon admits them: decoded, then
/// moved into a matrix.
fn admitted(first: &str) -> Matrix {
    let line = format!("{{\"op\":\"predict\",\"rows\":[[{first},1.5]]}}");
    let rows = decode_request(&line).expect("decodes").1.expect("has rows");
    Matrix::from_vec(rows.count, rows.width, rows.values).expect("rectangular")
}

#[test]
fn cache_keys_follow_the_decoded_bits() {
    let mut cache = PredictionCache::new(8);
    cache.insert_matrix("default", "v1", &admitted("-0"), &[7.0]);
    for same in ["0", "0.0", "-0", "00"] {
        assert_eq!(
            cache.lookup_matrix("default", "v1", &admitted(same)),
            Some(vec![7.0]),
            "{same}"
        );
    }
    for other in ["-0.0", "-0e0", "-0E0"] {
        assert_eq!(
            cache.lookup_matrix("default", "v1", &admitted(other)),
            None,
            "{other}"
        );
    }
    // The nested-row adapters see the same key.
    assert_eq!(
        cache.lookup("default", "v1", &[vec![0.0, 1.5]]),
        Some(vec![7.0])
    );
    assert_eq!(cache.lookup("default", "v1", &[vec![-0.0, 1.5]]), None);
}

/// `digits` with a decimal point `k` digits from the right, zero-padded:
/// `scaled("123", 5)` is `0.00123`.
fn scaled(digits: &str, k: usize) -> String {
    if k == 0 {
        return digits.to_string();
    }
    let padded = format!("{digits:0>width$}", width = k + 1);
    let (int, frac) = padded.split_at(padded.len() - k);
    format!("{int}.{frac}")
}

/// A float as Python's `repr` (and so `json.dumps`) writes it: the
/// shortest round-trip digits, in fixed notation for decimal exponents
/// -4 to 15 (`.0` appended to an integral value), else as `d.ddde±XX`.
fn python_repr(x: f64) -> String {
    let sci = format!("{x:e}");
    let (digits, exp) = sci.split_once('e').expect("an exponent");
    let exp: i32 = exp.parse().expect("an integer exponent");
    if (-4..16).contains(&exp) {
        let fixed = format!("{x}");
        if fixed.contains('.') {
            fixed
        } else {
            fixed + ".0"
        }
    } else {
        let sign = if exp < 0 { '-' } else { '+' };
        format!("{digits}e{sign}{:02}", exp.unsigned_abs())
    }
}

#[test]
fn decimal_conversion_edges_match_the_reference_bits() {
    for (x, python) in [
        (5e-5, "5e-05"),
        (1.5e-7, "1.5e-07"),
        (0.0001, "0.0001"),
        (123.0, "123.0"),
        (1e16, "1e+16"),
        (0.1 + 0.2, "0.30000000000000004"),
    ] {
        assert_eq!(python_repr(x), python);
    }
    let mut tokens: Vec<String> = [
        "-0",
        "-0.0",
        "-0e0",
        "1.",
        "-.5",
        "007",
        "0.000000123",
        "-0.000000123",
        "0.0000000000000000000001",
        "0.00000000000000000000001",
        "0.25570000000000004",
        "0.09730000000000001",
    ]
    .map(String::from)
    .to_vec();
    // Significands around 2^53, as integers and scaled by 10^-k.
    for m in (1u64 << 53) - 2..=(1u64 << 53) + 2 {
        let digits = m.to_string();
        for k in 0..=25 {
            tokens.push(scaled(&digits, k));
            tokens.push(format!("-{}", scaled(&digits, k)));
            tokens.push(format!("{digits}e-{k}"));
        }
    }
    // 15 to 20 significant digits, with 0 to 25 of them after the point.
    let mut rng = SmallRng::seed_from_u64(0x5EED_0005);
    for n in 15..=20 {
        for k in 0..=25 {
            for _ in 0..4 {
                let digits: String = (0..n)
                    .map(|i| char::from_digit(rng.gen_range(u32::from(i == 0)..10), 10))
                    .map(|digit| digit.expect("a decimal digit"))
                    .collect();
                tokens.push(scaled(&digits, k));
            }
        }
    }
    // Exponents of ±21 to ±24, under both markers.
    for m in [
        "1",
        "17",
        "0.5",
        "4.9",
        "123.456",
        "9007199254740992",
        "9007199254740993",
    ] {
        for e in 21..=24 {
            for marker in ['e', 'E'] {
                tokens.push(format!("{m}{marker}{e}"));
                tokens.push(format!("{m}{marker}+{e}"));
                tokens.push(format!("-{m}{marker}-{e}"));
            }
        }
    }
    for token in &tokens {
        assert!(
            check_request(&format!("{{\"rows\":[[{token}]]}}")),
            "refused {token:?}"
        );
    }
    // Seeded doubles in [1e-7, 1e3]: half at full precision, half rounded
    // to 1-7 significant digits as measured rates are (the rounding leaves
    // 17-digit neighbours such as 0.25570000000000004), each in Rust's and
    // Python's shortest form, 20 to a row.
    let values: Vec<f64> = (0..100_000)
        .map(|i| {
            let x = 10f64.powf(rng.gen_range(-7.0..3.0));
            if i % 2 == 0 {
                x
            } else {
                let scale = 10f64.powi(rng.gen_range(0..7) - x.log10().floor() as i32);
                (x * scale).round() / scale
            }
        })
        .collect();
    let forms: Vec<String> = values
        .iter()
        .flat_map(|&x| [format!("{x}"), python_repr(x)])
        .collect();
    assert!(
        forms.iter().any(|t| t.contains("e-0")),
        "Python exponent forms"
    );
    for row in forms.chunks(20) {
        assert!(check_request(&format!(
            "{{\"rows\":[[{}]]}}",
            row.join(",")
        )));
    }
}

/// The tokens `w e q` and `(w + 1) e q`, with `w` of 19 digits, on either
/// side of the midpoint `odd · 2^t` between two adjacent doubles (`odd` a
/// 54-bit odd number), for the `t` that gives `w` 19 digits. Neither is
/// exactly the midpoint for `q ≤ -5` or `q ≥ 24`.
fn straddling(odd: u128, q: i32) -> [String; 2] {
    let five = 5u128.pow(q.unsigned_abs());
    let w = (0..=74)
        .map(|s| {
            if q >= 0 {
                (odd << s) / five
            } else {
                (odd * five) >> s
            }
        })
        .find(|w| (10u128.pow(18)..10u128.pow(19)).contains(w))
        .expect("a 19-digit significand");
    [format!("{w}e{q}"), format!("{}e{q}", w + 1)]
}

/// A random 54-bit odd number: the significand of a midpoint between two
/// adjacent 53-bit significands.
fn odd54(rng: &mut SmallRng) -> u128 {
    u128::from(rng.gen_range(1u64 << 53..1u64 << 54) | 1)
}

#[test]
fn eisel_lemire_edges_match_the_reference_bits() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0006);
    let random_digits = |rng: &mut SmallRng, n: usize| -> String {
        (0..n)
            .map(|i| char::from_digit(rng.gen_range(u32::from(i == 0)..10), 10))
            .map(|digit| digit.expect("a decimal digit"))
            .collect()
    };
    let mut tokens: Vec<String> = Vec::new();
    // Exponents at either end of the Eisel–Lemire range and one past it,
    // with 1, 16, 17, 19 and 20 significant digits: as an integer times
    // `e{q}` and with a point after the first digit.
    for q in [-28i32, -27, 55, 56] {
        for n in [1usize, 16, 17, 19, 20] {
            let mut forms = vec!["9".repeat(n), format!("1{}", "0".repeat(n - 1))];
            forms.extend((0..3).map(|_| random_digits(&mut rng, n)));
            for digits in forms {
                tokens.push(format!("{digits}e{q}"));
                tokens.push(format!("-{digits}E{q}"));
                let (first, rest) = digits.split_at(1);
                tokens.push(format!("{first}.{rest}e{}", q + n as i32 - 1));
            }
        }
    }
    // Significands near 2^64: the largest of 19 digits, and 2^64 - 1,
    // which has 20.
    for w in [
        "9999999999999999999",
        "1844674407370955161",
        "18446744073709551615",
    ] {
        for q in ["", "e-27", "e-1", "e1", "e23", "e24", "e55"] {
            tokens.push(format!("{w}{q}"));
            tokens.push(format!("-{w}{q}"));
        }
    }
    // Exact halfway cases, which round to the even double, and their
    // neighbours one unit away. Only for q in -4..=23 does a decimal of
    // at most 19 digits fall exactly on a midpoint `odd · 2^t`: for q ≤ 0
    // it is `odd · 5^-q · 2^j`, for q > 0 it is `k · 2^j` where
    // `odd = k · 5^q`.
    tokens.extend(
        [
            "9007199254740993",
            "9007199254740995",
            "4503599627370497.5",
            "1e23",
            "8e23",
            "2251799813685248.25",
        ]
        .map(String::from),
    );
    for q in -4i32..=23 {
        for _ in 0..8 {
            let five = 5u128.pow(q.unsigned_abs());
            let base = if q <= 0 {
                odd54(&mut rng) * five
            } else {
                // An odd multiple of 5^q among the 54-bit odd numbers.
                let (low, high) = ((1u128 << 53) / five, (1u128 << 54) / five);
                let k = rng.gen_range(low as u64..=high as u64) | 1;
                if !(1u128 << 53..1u128 << 54).contains(&(u128::from(k) * five)) {
                    continue;
                }
                u128::from(k)
            };
            for j in 0..4 {
                let w = base << j;
                if w >= 10u128.pow(19) {
                    break;
                }
                for near in [w - 1, w, w + 1] {
                    tokens.push(format!("{near}e{q}"));
                    if q < 0 {
                        tokens.push(scaled(&near.to_string(), q.unsigned_abs() as usize));
                    }
                }
            }
        }
    }
    // Near-halfway cases just outside that window: no 19-digit decimal is
    // a midpoint there, and these miss one by a unit in the last digit.
    for q in [-8, -7, -6, -5, 24, 25, 26, 27] {
        for _ in 0..32 {
            tokens.extend(straddling(odd54(&mut rng), q));
        }
    }
    // Zero significands with any exponent stay off the new path.
    tokens.extend(
        [
            "0e55",
            "0.000e-30",
            "-0e60",
            "0e-28",
            "-0.0e56",
            "0e-400",
            "00000000000000000000e30",
        ]
        .map(String::from),
    );
    for row in tokens.chunks(20) {
        let line = format!("{{\"rows\":[[{}]]}}", row.join(","));
        assert!(check_request(&line), "refused {line:?}");
    }
    // 100,000 seeded decimals with 17 to 19 significant digits and q
    // across -30..=58, as an integer times `e{q}`, with a point after the
    // first digit, or negated.
    let seeded: Vec<String> = (0..100_000)
        .map(|i| {
            let n = rng.gen_range(17..=19usize);
            let q = rng.gen_range(-30..=58i32);
            let digits = random_digits(&mut rng, n);
            match i % 3 {
                0 => format!("{digits}e{q}"),
                1 => {
                    let (first, rest) = digits.split_at(1);
                    format!("{first}.{rest}E{:+}", q + n as i32 - 1)
                }
                _ => format!("-{digits}e{q}"),
            }
        })
        .collect();
    for row in seeded.chunks(20) {
        assert!(check_request(&format!(
            "{{\"rows\":[[{}]]}}",
            row.join(",")
        )));
    }
}
