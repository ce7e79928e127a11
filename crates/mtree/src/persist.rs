//! Model persistence: save and load fitted trees as JSON, crash-safely.
//!
//! The tree (structure, models, parameters, attribute names) serializes via
//! serde; these helpers add the file plumbing plus a versioned envelope so
//! incompatible or corrupt dumps fail loudly — with a *typed* error — instead
//! of deserializing garbage or panicking.
//!
//! # On-disk format
//!
//! Version 2 (written by [`ModelTree::to_json`] / [`RuleSet::to_json`]) is an
//! integrity header line followed by the version-1 body:
//!
//! ```text
//! {"format":"mtperf-model-tree","version":2,"checksum":"fnv1a64:<16 hex>","payload_len":N}
//! {
//!   "format": "mtperf-model-tree",
//!   "version": 1,
//!   "tree": { ... }
//! }
//! ```
//!
//! The checksum is 64-bit FNV-1a over the payload bytes (everything after the
//! header line), and `payload_len` pins the exact payload size, so torn
//! writes, truncations, and bit flips map to [`PersistError::Truncated`] and
//! [`PersistError::ChecksumMismatch`] rather than a JSON parse error deep in
//! the tree — or worse, a silently different model. Version-1 dumps (no
//! header line) still load.
//!
//! # Crash safety
//!
//! [`ModelTree::save`] and [`RuleSet::save`] write through
//! [`mtperf_obs::fsio::atomic_write`]: temp file in the destination
//! directory, fsync, rename, fsync the directory. A crash — including
//! `kill -9` — mid-save leaves either the previous complete file or the new
//! complete file, never a torn one. Loads retry EINTR/EAGAIN-class transient
//! failures on a bounded deterministic backoff schedule.

use std::fs;
use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::{ModelTree, RuleSet};

/// On-disk format version written by `save`/`to_json`; bumped on breaking
/// model-layout changes. Version 2 added the integrity header.
const FORMAT_VERSION: u32 = 2;

/// The body format carried inside the envelope (and the whole file for
/// pre-checksum dumps).
const BODY_VERSION: u32 = 1;

#[derive(Serialize, Deserialize)]
struct Envelope {
    format: String,
    version: u32,
    tree: ModelTree,
}

#[derive(Serialize, Deserialize)]
struct RuleEnvelope {
    format: String,
    version: u32,
    rules: RuleSet,
}

/// The version-2 integrity header: first line of the file, protecting the
/// payload (all following bytes) with a length and an FNV-1a checksum.
#[derive(Serialize, Deserialize)]
struct IntegrityHeader {
    format: String,
    version: u32,
    checksum: String,
    payload_len: usize,
}

/// Error loading or saving a persisted model.
#[derive(Debug)]
#[non_exhaustive]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a model dump or has an incompatible version.
    Format(String),
    /// The payload hashes differently than the integrity header says: the
    /// file was corrupted in place (bit flip, partial overwrite, spliced
    /// content).
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the payload as found on disk.
        found: u64,
    },
    /// The payload is shorter or longer than the integrity header says: the
    /// file was torn by a crash mid-write (of a non-atomic writer) or
    /// truncated/extended after the fact.
    Truncated {
        /// Payload length recorded in the header.
        expected_len: usize,
        /// Payload length found on disk.
        found_len: usize,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "model i/o error: {e}"),
            PersistError::Format(msg) => write!(f, "model format error: {msg}"),
            PersistError::ChecksumMismatch { expected, found } => write!(
                f,
                "model file corrupt: checksum fnv1a64:{found:016x} does not match recorded fnv1a64:{expected:016x}"
            ),
            PersistError::Truncated {
                expected_len,
                found_len,
            } => write!(
                f,
                "model file torn: payload is {found_len} bytes, header records {expected_len}"
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Wraps a version-1 body in the version-2 integrity envelope.
fn seal(format: &str, mut body: String) -> String {
    if !body.ends_with('\n') {
        body.push('\n');
    }
    let header = serde_json::to_string(&IntegrityHeader {
        format: format.into(),
        version: FORMAT_VERSION,
        checksum: format!(
            "fnv1a64:{:016x}",
            mtperf_obs::fsio::fnv1a_64(body.as_bytes())
        ),
        payload_len: body.len(),
    })
    .expect("header serialization cannot fail");
    format!("{header}\n{body}")
}

/// Splits a dump into its verified version-1 body.
///
/// Version-2 dumps (integrity header on the first line) have their payload
/// length and checksum verified; version-1 dumps pass through whole. The
/// caller parses the returned body as the version-1 envelope.
fn open_sealed<'a>(format: &str, text: &'a str) -> Result<&'a str, PersistError> {
    let first_line = text.lines().next().unwrap_or("");
    let Ok(header) = serde_json::from_str::<IntegrityHeader>(first_line) else {
        // No integrity header: a version-1 dump (or garbage the body parser
        // will reject with a Format error).
        return Ok(text);
    };
    if header.format != format {
        return Err(PersistError::Format(format!(
            "unexpected format marker {:?} (expected {format:?})",
            header.format
        )));
    }
    if header.version != FORMAT_VERSION {
        return Err(PersistError::Format(format!(
            "unsupported envelope version {} (expected {FORMAT_VERSION})",
            header.version
        )));
    }
    let expected = header
        .checksum
        .strip_prefix("fnv1a64:")
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or_else(|| {
            PersistError::Format(format!("unparsable checksum field {:?}", header.checksum))
        })?;
    let payload = text
        .split_once('\n')
        .map(|(_, rest)| rest)
        .unwrap_or_default();
    if payload.len() != header.payload_len {
        return Err(PersistError::Truncated {
            expected_len: header.payload_len,
            found_len: payload.len(),
        });
    }
    let found = mtperf_obs::fsio::fnv1a_64(payload.as_bytes());
    if found != expected {
        return Err(PersistError::ChecksumMismatch { expected, found });
    }
    Ok(payload)
}

/// Shared body-envelope checks for trees and rule sets.
fn check_body(format: &str, found_format: &str, version: u32) -> Result<(), PersistError> {
    if found_format != format {
        return Err(PersistError::Format(format!(
            "unexpected format marker {found_format:?}"
        )));
    }
    if version != BODY_VERSION {
        return Err(PersistError::Format(format!(
            "unsupported version {version} (expected {BODY_VERSION})"
        )));
    }
    Ok(())
}

impl ModelTree {
    /// Serializes the tree as a version-2 dump: one integrity-header line
    /// (length + FNV-1a checksum of everything after it) followed by the
    /// versioned JSON envelope.
    pub fn to_json(&self) -> String {
        let body = serde_json::to_string_pretty(&Envelope {
            format: "mtperf-model-tree".into(),
            version: BODY_VERSION,
            tree: self.clone(),
        })
        .expect("tree serialization cannot fail");
        seal("mtperf-model-tree", body)
    }

    /// Deserializes a tree from [`ModelTree::to_json`] output (version 2) or
    /// a pre-checksum version-1 dump.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Truncated`] / [`PersistError::ChecksumMismatch`]
    /// when a version-2 dump fails integrity verification, and
    /// [`PersistError::Format`] for non-model JSON or version mismatches.
    pub fn from_json(json: &str) -> Result<ModelTree, PersistError> {
        let body = open_sealed("mtperf-model-tree", json)?;
        let env: Envelope =
            serde_json::from_str(body).map_err(|e| PersistError::Format(e.to_string()))?;
        check_body("mtperf-model-tree", &env.format, env.version)?;
        Ok(env.tree)
    }

    /// Saves the tree to `path` atomically (temp file, fsync, rename, fsync
    /// directory): a crash mid-save can never leave a torn model file at
    /// `path`.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] on write failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        mtperf_obs::fsio::atomic_write(path, self.to_json().as_bytes())?;
        Ok(())
    }

    /// Loads a tree from a file written by [`ModelTree::save`], retrying
    /// transient (EINTR/EAGAIN-class) read failures on a bounded backoff.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] on read failure and the typed corruption
    /// errors of [`ModelTree::from_json`] on malformed content.
    pub fn load(path: impl AsRef<Path>) -> Result<ModelTree, PersistError> {
        let path = path.as_ref();
        let json = mtperf_obs::fsio::with_retry("model_load", || {
            mtperf_detsim::fs::check(mtperf_detsim::fs::FsOp::Read, path)?;
            fs::read_to_string(path)
        })?;
        Self::from_json(&json)
    }
}

impl RuleSet {
    /// Serializes the rule set as a version-2 dump (format marker
    /// `mtperf-rule-set`), preserving the full extraction state: rule order,
    /// conditions, per-rule models, coverage, and means. A rule set loaded
    /// back predicts bit-identically to the in-memory one.
    pub fn to_json(&self) -> String {
        let body = serde_json::to_string_pretty(&RuleEnvelope {
            format: "mtperf-rule-set".into(),
            version: BODY_VERSION,
            rules: self.clone(),
        })
        .expect("rule serialization cannot fail");
        seal("mtperf-rule-set", body)
    }

    /// Deserializes a rule set from [`RuleSet::to_json`] output (version 2)
    /// or a pre-checksum version-1 dump.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Truncated`] / [`PersistError::ChecksumMismatch`]
    /// when a version-2 dump fails integrity verification, and
    /// [`PersistError::Format`] for non-rule JSON or version mismatches.
    pub fn from_json(json: &str) -> Result<RuleSet, PersistError> {
        let body = open_sealed("mtperf-rule-set", json)?;
        let env: RuleEnvelope =
            serde_json::from_str(body).map_err(|e| PersistError::Format(e.to_string()))?;
        check_body("mtperf-rule-set", &env.format, env.version)?;
        Ok(env.rules)
    }

    /// Saves the rule set to `path` atomically (same contract as
    /// [`ModelTree::save`]).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] on write failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        mtperf_obs::fsio::atomic_write(path, self.to_json().as_bytes())?;
        Ok(())
    }

    /// Loads a rule set from a file written by [`RuleSet::save`], retrying
    /// transient read failures like [`ModelTree::load`].
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] on read failure and the typed corruption
    /// errors of [`RuleSet::from_json`] on malformed content.
    pub fn load(path: impl AsRef<Path>) -> Result<RuleSet, PersistError> {
        let path = path.as_ref();
        let json = mtperf_obs::fsio::with_retry("rules_load", || {
            mtperf_detsim::fs::check(mtperf_detsim::fs::FsOp::Read, path)?;
            fs::read_to_string(path)
        })?;
        Self::from_json(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dataset, M5Params};

    fn tree() -> ModelTree {
        let rows: Vec<[f64; 1]> = (0..80).map(|i| [i as f64]).collect();
        let ys: Vec<f64> = rows
            .iter()
            .map(|r| if r[0] <= 40.0 { r[0] } else { 80.0 - r[0] })
            .collect();
        let d = Dataset::from_rows(vec!["x".into()], &rows, &ys).unwrap();
        ModelTree::fit(&d, &M5Params::default().with_min_instances(8)).unwrap()
    }

    /// The version-1 rendering of a tree (no integrity header), as written
    /// by pre-checksum releases.
    fn v1_json(t: &ModelTree) -> String {
        serde_json::to_string_pretty(&Envelope {
            format: "mtperf-model-tree".into(),
            version: 1,
            tree: t.clone(),
        })
        .unwrap()
    }

    #[test]
    fn json_roundtrip() {
        let t = tree();
        let back = ModelTree::from_json(&t.to_json()).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.predict(&[17.0]), t.predict(&[17.0]));
    }

    #[test]
    fn v2_dump_has_integrity_header() {
        let json = tree().to_json();
        let first = json.lines().next().unwrap();
        assert!(first.contains("\"version\":2"), "{first}");
        assert!(first.contains("fnv1a64:"), "{first}");
        let header: IntegrityHeader = serde_json::from_str(first).unwrap();
        assert_eq!(header.payload_len, json.split_once('\n').unwrap().1.len());
    }

    #[test]
    fn v1_dump_still_loads() {
        let t = tree();
        let back = ModelTree::from_json(&v1_json(&t)).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn file_roundtrip() {
        let t = tree();
        let dir = std::env::temp_dir().join("mtperf-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        t.save(&path).unwrap();
        let back = ModelTree::load(&path).unwrap();
        assert_eq!(back, t);
        // Atomic save leaves no staging file behind.
        assert!(!mtperf_obs::fsio::staging_path(&path).unwrap().exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_is_detected_as_torn() {
        let t = tree();
        let json = t.to_json();
        let cut = &json[..json.len() - json.len() / 3];
        let err = ModelTree::from_json(cut).unwrap_err();
        assert!(matches!(err, PersistError::Truncated { .. }), "{err}");
        assert!(err.to_string().contains("torn"), "{err}");
    }

    #[test]
    fn bit_flip_is_detected_as_checksum_mismatch() {
        let t = tree();
        let json = t.to_json();
        // Flip one payload character without changing the length.
        let idx = json.rfind("\"tree\"").unwrap() + 1;
        let mut bytes = json.into_bytes();
        bytes[idx] = if bytes[idx] == b'x' { b'y' } else { b'x' };
        let corrupt = String::from_utf8(bytes).unwrap();
        let err = ModelTree::from_json(&corrupt).unwrap_err();
        assert!(
            matches!(err, PersistError::ChecksumMismatch { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("fnv1a64:"), "{err}");
    }

    #[test]
    fn rejects_wrong_format() {
        let err =
            ModelTree::from_json("{\"format\":\"other\",\"version\":1,\"tree\":null}").unwrap_err();
        assert!(matches!(err, PersistError::Format(_)), "{err}");
        let err = ModelTree::from_json("not json at all").unwrap_err();
        assert!(matches!(err, PersistError::Format(_)));
    }

    #[test]
    fn rule_set_roundtrip_preserves_extraction_state() {
        let t = tree();
        let rules = crate::RuleSet::from_tree(&t);
        let back = crate::RuleSet::from_json(&rules.to_json()).unwrap();
        assert_eq!(back, rules);
        for i in 0..80 {
            let row = [i as f64];
            assert_eq!(back.predict(&row).to_bits(), rules.predict(&row).to_bits());
        }
        // A tree envelope is not a rule envelope and vice versa.
        let err = crate::RuleSet::from_json(&t.to_json()).unwrap_err();
        assert!(matches!(err, PersistError::Format(_)), "{err}");
    }

    #[test]
    fn rejects_wrong_version() {
        let t = tree();
        // Unsupported envelope version in the header line.
        let json = t.to_json().replacen("\"version\":2", "\"version\":999", 1);
        let err = ModelTree::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        // Unsupported body version in a headerless (v1-style) dump.
        let json = v1_json(&t).replace("\"version\": 1", "\"version\": 999");
        let err = ModelTree::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = ModelTree::load("/nonexistent/nope.json").unwrap_err();
        assert!(matches!(err, PersistError::Io(_)));
    }
}
