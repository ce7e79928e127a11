//! The prediction cache: memoized scores for hot repeated sections.
//!
//! The paper's what-if workflow re-queries the same section vectors
//! against the same model many times (an analyst refining a hypothesis);
//! those repeats are pure function evaluations and need not touch the
//! engine at all. [`PredictionCache`] memoizes them keyed by
//! **FNV-1a over (model name, version id, row width, exact f64 bit
//! patterns of the rows)** — the same `fnv1a_64` the persistence envelopes
//! and DST trace fingerprints use. The width is part of the key because
//! the flattened bits alone cannot tell one row of 2n values from two rows
//! of n, and the two answer different numbers of predictions.
//!
//! Correctness contract: a cache hit must be **bit-identical** to a
//! fresh predict. Two consequences:
//!
//! * The 64-bit hash is a lookup accelerator, not the identity. Every
//!   entry stores its full key material (model, version, row width, row
//!   bits) and a hit requires an exact match, so a hash collision degrades
//!   to a miss instead of serving another request's predictions.
//! * Only **non-degraded** successful predictions are cached. A degraded
//!   (interpreted-fallback) result is bit-identical anyway, but caching
//!   it would mask the `degraded` health flag on later hits.
//!
//! Eviction is insertion-order FIFO at a fixed capacity: deterministic
//! under DST replay (no clock, no randomness) and cheap. Only small
//! batches (≤ [`MAX_CACHED_ROWS`] rows) are cached — large batch scoring
//! is a throughput workload that would thrash the cache for no repeat
//! value.
//!
//! The daemon keys on the job's [`Matrix`] ([`PredictionCache::lookup_matrix`],
//! [`PredictionCache::insert_matrix`]); [`PredictionCache::lookup`] and
//! [`PredictionCache::insert`] take the same batch as nested rows.

use std::collections::{HashMap, VecDeque};

use mtperf_linalg::Matrix;
use mtperf_obs::fsio::fnv1a_64;

/// Largest batch (rows per request) the cache will memoize.
pub const MAX_CACHED_ROWS: usize = 16;

struct Entry {
    model: String,
    version: String,
    width: usize,
    row_bits: Vec<u64>,
    predictions: Vec<f64>,
}

impl Entry {
    fn is(&self, model: &str, version: &str, width: usize, values: &[f64]) -> bool {
        self.model == model
            && self.version == version
            && self.width == width
            && self.row_bits.len() == values.len()
            && self
                .row_bits
                .iter()
                .zip(values)
                .all(|(b, v)| *b == v.to_bits())
    }
}

/// Bounded memoization of `(model, version, rows) → predictions`.
pub struct PredictionCache {
    map: HashMap<u64, Vec<Entry>>,
    /// Insertion order of `(hash, position-independent)` keys for FIFO
    /// eviction; each push corresponds to exactly one `Entry`.
    order: VecDeque<u64>,
    capacity: usize,
    len: usize,
}

fn hash_key(model: &str, version: &str, width: usize, values: &[f64]) -> u64 {
    let mut bytes = Vec::with_capacity(model.len() + version.len() + 2 + (1 + values.len()) * 8);
    bytes.extend_from_slice(model.as_bytes());
    bytes.push(0xFF);
    bytes.extend_from_slice(version.as_bytes());
    bytes.push(0xFF);
    bytes.extend_from_slice(&(width as u64).to_le_bytes());
    for v in values {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fnv1a_64(&bytes)
}

/// Nested rows as a matrix; `None` for no rows, empty or ragged rows.
fn matrix_of(rows: &[Vec<f64>]) -> Option<Matrix> {
    let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    Matrix::from_rows(&refs).ok()
}

impl PredictionCache {
    /// Creates a cache holding at most `capacity` entries. Capacity 0
    /// disables caching entirely (every lookup misses, inserts are
    /// dropped).
    pub fn new(capacity: usize) -> PredictionCache {
        PredictionCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity,
            len: 0,
        }
    }

    /// Whether a batch of this many rows may be cached at all.
    fn admits(&self, rows: &Matrix) -> bool {
        self.capacity > 0 && (1..=MAX_CACHED_ROWS).contains(&rows.rows())
    }

    /// Looks up memoized predictions for a batch. `None` is a miss —
    /// including for batches larger than [`MAX_CACHED_ROWS`] and for hash
    /// collisions whose stored key material does not match exactly.
    pub fn lookup_matrix(&self, model: &str, version: &str, rows: &Matrix) -> Option<Vec<f64>> {
        if !self.admits(rows) {
            return None;
        }
        let (width, values) = (rows.cols(), rows.as_slice());
        let hash = hash_key(model, version, width, values);
        self.map.get(&hash)?.iter().find_map(|e| {
            e.is(model, version, width, values)
                .then(|| e.predictions.clone())
        })
    }

    /// [`PredictionCache::lookup_matrix`] for nested rows; ragged rows
    /// miss.
    pub fn lookup(&self, model: &str, version: &str, rows: &[Vec<f64>]) -> Option<Vec<f64>> {
        self.lookup_matrix(model, version, &matrix_of(rows)?)
    }

    /// Memoizes a fresh, non-degraded prediction result. Oversized
    /// batches and duplicates are ignored; at capacity the oldest entry
    /// is evicted first.
    pub fn insert_matrix(
        &mut self,
        model: &str,
        version: &str,
        rows: &Matrix,
        predictions: &[f64],
    ) {
        if !self.admits(rows) {
            return;
        }
        let (width, values) = (rows.cols(), rows.as_slice());
        let hash = hash_key(model, version, width, values);
        let bucket = self.map.entry(hash).or_default();
        if bucket.iter().any(|e| e.is(model, version, width, values)) {
            return;
        }
        bucket.push(Entry {
            model: model.to_string(),
            version: version.to_string(),
            width,
            row_bits: values.iter().map(|v| v.to_bits()).collect(),
            predictions: predictions.to_vec(),
        });
        self.order.push_back(hash);
        self.len += 1;
        while self.len > self.capacity {
            let oldest = self.order.pop_front().expect("order tracks len");
            let bucket = self.map.get_mut(&oldest).expect("order names a bucket");
            bucket.remove(0);
            if bucket.is_empty() {
                self.map.remove(&oldest);
            }
            self.len -= 1;
        }
    }

    /// [`PredictionCache::insert_matrix`] for nested rows; ragged rows
    /// are not cached.
    pub fn insert(&mut self, model: &str, version: &str, rows: &[Vec<f64>], predictions: &[f64]) {
        if let Some(rows) = matrix_of(rows) {
            self.insert_matrix(model, version, &rows, predictions);
        }
    }

    /// Drops every entry. Called on any registry mutation that could
    /// change what a `(model, version)` pair means (promote-with-path
    /// reusing an id is impossible, but reload replaces a version's model
    /// in place — the cheap safe answer is a flush).
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
        self.len = 0;
    }

    /// Whether the cache is enabled at all (capacity above zero).
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(seed: u64, n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|r| vec![(seed as f64) + r as f64, (r * 3 % 5) as f64])
            .collect()
    }

    #[test]
    fn hit_returns_exactly_what_was_inserted() {
        let mut c = PredictionCache::new(8);
        let r = rows(1, 3);
        let preds = vec![1.5, -2.25, 0.0];
        assert!(c.lookup("default", "v1", &r).is_none());
        c.insert("default", "v1", &r, &preds);
        let hit = c.lookup("default", "v1", &r).unwrap();
        assert_eq!(hit.len(), preds.len());
        for (h, p) in hit.iter().zip(&preds) {
            assert_eq!(h.to_bits(), p.to_bits());
        }
    }

    #[test]
    fn key_covers_model_version_and_row_bits() {
        let mut c = PredictionCache::new(8);
        let r = rows(1, 2);
        c.insert("default", "v1", &r, &[1.0, 2.0]);
        assert!(c.lookup("other", "v1", &r).is_none());
        assert!(c.lookup("default", "v2", &r).is_none());
        assert!(c.lookup("default", "v1", &rows(2, 2)).is_none());
        // -0.0 == 0.0 but has different bits: must be a distinct key.
        let pos = vec![vec![0.0]];
        let neg = vec![vec![-0.0]];
        c.insert("default", "v1", &pos, &[7.0]);
        assert!(c.lookup("default", "v1", &neg).is_none());
    }

    #[test]
    fn key_covers_row_shape() {
        // One row of four values and two rows of two flatten to the same
        // bits but answer different numbers of predictions.
        let mut c = PredictionCache::new(8);
        let one_by_four = vec![vec![1.0, 2.0, 3.0, 4.0]];
        let two_by_two = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        c.insert("m", "v1", &one_by_four, &[9.0]);
        assert!(c.lookup("m", "v1", &two_by_two).is_none());
        assert_eq!(c.lookup("m", "v1", &one_by_four), Some(vec![9.0]));
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let mut c = PredictionCache::new(2);
        c.insert("m", "v1", &rows(1, 1), &[1.0]);
        c.insert("m", "v1", &rows(2, 1), &[2.0]);
        c.insert("m", "v1", &rows(3, 1), &[3.0]);
        assert_eq!(c.len(), 2);
        assert!(c.lookup("m", "v1", &rows(1, 1)).is_none(), "oldest evicted");
        assert!(c.lookup("m", "v1", &rows(2, 1)).is_some());
        assert!(c.lookup("m", "v1", &rows(3, 1)).is_some());
    }

    #[test]
    fn zero_capacity_disables_and_oversized_batches_bypass() {
        let mut off = PredictionCache::new(0);
        off.insert("m", "v1", &rows(1, 1), &[1.0]);
        assert!(off.lookup("m", "v1", &rows(1, 1)).is_none());
        assert!(off.is_empty());

        let mut c = PredictionCache::new(8);
        let big = rows(1, MAX_CACHED_ROWS + 1);
        let preds = vec![0.0; big.len()];
        c.insert("m", "v1", &big, &preds);
        assert!(c.is_empty());
        assert!(c.lookup("m", "v1", &big).is_none());
    }

    #[test]
    fn clear_flushes_everything() {
        let mut c = PredictionCache::new(8);
        c.insert("m", "v1", &rows(1, 1), &[1.0]);
        assert_eq!(c.len(), 1);
        c.clear();
        assert!(c.is_empty());
        assert!(c.lookup("m", "v1", &rows(1, 1)).is_none());
    }
}
