//! Deterministic, seed-driven fault injection for counter CSV streams.
//!
//! Property tests (and robustness benchmarks) need realistic corruption:
//! multiplexed events dropping samples, counters saturating, runs truncated
//! mid-section, logs concatenated twice. This module applies those faults to
//! a serialized sample CSV *reproducibly* — the same seed always corrupts
//! the same lines in the same way — and reports exactly which output lines
//! it touched, so a test can assert that the ingest layer quarantines or
//! repairs precisely those rows and nothing else.
//!
//! Only data rows are ever targeted; the header line is left intact (header
//! corruption is a schema error, a different failure class the reader
//! already refuses wholesale).
//!
//! # Example
//!
//! ```
//! use mtperf_counters::faultinject::{FaultInjector, FaultOp};
//! use mtperf_counters::{write_csv, SampleSet, SectionSample};
//!
//! let set: SampleSet = (0..5)
//!     .map(|i| SectionSample::new("w", i, 1.0, [0.1; mtperf_counters::N_EVENTS]))
//!     .collect();
//! let mut buf = Vec::new();
//! write_csv(&set, &mut buf).unwrap();
//! let csv = String::from_utf8(buf).unwrap();
//!
//! let mut inj = FaultInjector::new(7);
//! let corrupted = inj.apply(FaultOp::FlipNonFinite(2), &csv);
//! assert_eq!(corrupted.lines.len(), 2);
//! // Same seed, same faults.
//! let again = FaultInjector::new(7).apply(FaultOp::FlipNonFinite(2), &csv);
//! assert_eq!(corrupted.text, again.text);
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::events::N_EVENTS;

/// A corruption operator, modeled on real counter-stream failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultOp {
    /// Remove up to `n` random data rows (multiplexing dropped the samples).
    DropRows(usize),
    /// Cut trailing fields off up to `n` random rows (run truncated
    /// mid-write). Each victim keeps between 1 and `3 + N_EVENTS - 1`
    /// fields, so the row is always malformed.
    TruncateFields(usize),
    /// Replace a random numeric field in up to `n` rows with `NaN`, `inf`,
    /// or `-inf` (corrupted readout).
    FlipNonFinite(usize),
    /// Set a random rate field in up to `n` rows to a huge finite value
    /// (counter saturation).
    SaturateCounters(usize),
    /// Duplicate up to `n` random rows in place (log concatenated twice /
    /// section re-emitted).
    DuplicateSections(usize),
}

/// The outcome of applying one [`FaultOp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corruption {
    /// The corrupted CSV text.
    pub text: String,
    /// 1-based line numbers **in `text`** whose content was corrupted or
    /// inserted. Empty for [`FaultOp::DropRows`] (the damage there is the
    /// absence itself).
    pub lines: Vec<usize>,
    /// Number of data rows removed (non-zero only for
    /// [`FaultOp::DropRows`]).
    pub dropped: usize,
}

/// Deterministic fault source: a seeded RNG plus the corruption operators.
///
/// Applying operators consumes RNG state, so a sequence of `apply` calls on
/// one injector yields a reproducible *composition* of faults.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: SmallRng,
}

impl FaultInjector {
    /// Creates an injector whose fault choices are fully determined by
    /// `seed`.
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Picks `k` distinct indices out of `0..n`, returned sorted.
    fn choose(&mut self, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        // Partial Fisher–Yates over an index vector: O(n) space, exact.
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = self.rng.gen_range(i..n);
            idx.swap(i, j);
        }
        let mut chosen: Vec<usize> = idx[..k].to_vec();
        chosen.sort_unstable();
        chosen
    }

    /// Applies `op` to `csv`, returning the corrupted text plus a precise
    /// record of which lines were touched.
    ///
    /// `csv` is split on `'\n'`; the first line is treated as the header and
    /// never modified. Counts larger than the number of data rows are
    /// clamped.
    pub fn apply(&mut self, op: FaultOp, csv: &str) -> Corruption {
        let mut lines: Vec<String> = csv.lines().map(str::to_string).collect();
        // Data-row positions in `lines` (skip header and blank lines).
        let data_pos: Vec<usize> = (1..lines.len()).filter(|&i| !lines[i].is_empty()).collect();
        let n = data_pos.len();

        let mut touched: Vec<usize> = Vec::new();
        let mut dropped = 0usize;
        match op {
            FaultOp::DropRows(k) => {
                let victims = self.choose(n, k);
                dropped = victims.len();
                // Remove from the back so earlier positions stay valid.
                for &v in victims.iter().rev() {
                    lines.remove(data_pos[v]);
                }
            }
            FaultOp::TruncateFields(k) => {
                for &v in &self.choose(n, k) {
                    let pos = data_pos[v];
                    let fields: Vec<&str> = lines[pos].split(',').collect();
                    let keep = self.rng.gen_range(1..3 + N_EVENTS);
                    lines[pos] = fields[..keep.min(fields.len())].join(",");
                    touched.push(pos + 1);
                }
            }
            FaultOp::FlipNonFinite(k) => {
                for &v in &self.choose(n, k) {
                    let pos = data_pos[v];
                    let mut fields: Vec<String> =
                        lines[pos].split(',').map(str::to_string).collect();
                    // Numeric fields are 2.. (CPI plus the rates).
                    let target = self.rng.gen_range(2..fields.len().max(3));
                    let token = ["NaN", "inf", "-inf"][self.rng.gen_range(0..3usize)];
                    if let Some(f) = fields.get_mut(target) {
                        *f = token.to_string();
                    }
                    lines[pos] = fields.join(",");
                    touched.push(pos + 1);
                }
            }
            FaultOp::SaturateCounters(k) => {
                for &v in &self.choose(n, k) {
                    let pos = data_pos[v];
                    let mut fields: Vec<String> =
                        lines[pos].split(',').map(str::to_string).collect();
                    // Rate fields only: 3.. — saturation hits counters, not
                    // the derived CPI.
                    let target = self.rng.gen_range(3..fields.len().max(4));
                    if let Some(f) = fields.get_mut(target) {
                        *f = "1e30".to_string();
                    }
                    lines[pos] = fields.join(",");
                    touched.push(pos + 1);
                }
            }
            FaultOp::DuplicateSections(k) => {
                let victims = self.choose(n, k);
                // Insert from the back so earlier positions stay valid, then
                // compute each duplicate's final position: every insertion
                // before it shifts it one line down.
                for (rank, &v) in victims.iter().enumerate().rev() {
                    let pos = data_pos[v];
                    let copy = lines[pos].clone();
                    lines.insert(pos + 1, copy);
                    // `rank` earlier victims each add one line above this
                    // insertion; +1 for the inserted line itself, +1 for
                    // 1-based numbering.
                    touched.push(pos + rank + 2);
                }
                touched.sort_unstable();
            }
        }

        let mut text = lines.join("\n");
        text.push('\n');
        Corruption {
            text,
            lines: touched,
            dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::{read_csv, write_csv};
    use crate::sample::SectionSample;
    use crate::sampleset::SampleSet;

    fn base_csv(rows: usize) -> (SampleSet, String) {
        let set: SampleSet = (0..rows)
            .map(|i| SectionSample::new("w", i, 1.0 + i as f64 * 0.01, [0.1; N_EVENTS]))
            .collect();
        let mut buf = Vec::new();
        write_csv(&set, &mut buf).unwrap();
        (set, String::from_utf8(buf).unwrap())
    }

    #[test]
    fn same_seed_same_corruption() {
        let (_, csv) = base_csv(10);
        for op in [
            FaultOp::DropRows(3),
            FaultOp::TruncateFields(3),
            FaultOp::FlipNonFinite(3),
            FaultOp::SaturateCounters(3),
            FaultOp::DuplicateSections(3),
        ] {
            let a = FaultInjector::new(42).apply(op, &csv);
            let b = FaultInjector::new(42).apply(op, &csv);
            assert_eq!(a, b, "{op:?}");
        }
    }

    #[test]
    fn drop_rows_removes_exactly_that_many() {
        let (set, csv) = base_csv(10);
        let out = FaultInjector::new(1).apply(FaultOp::DropRows(4), &csv);
        assert_eq!(out.dropped, 4);
        assert!(out.lines.is_empty());
        let back = read_csv(out.text.as_bytes()).unwrap();
        assert_eq!(back.len(), set.len() - 4);
        // Every surviving row is an original row.
        for s in back.iter() {
            assert!(set.iter().any(|o| o == s));
        }
    }

    #[test]
    fn truncate_reports_lines_that_are_malformed() {
        let (_, csv) = base_csv(10);
        let out = FaultInjector::new(2).apply(FaultOp::TruncateFields(3), &csv);
        assert_eq!(out.lines.len(), 3);
        let lines: Vec<&str> = out.text.lines().collect();
        for &l in &out.lines {
            let n_fields = lines[l - 1].split(',').count();
            assert!(n_fields < 3 + N_EVENTS, "line {l} has {n_fields} fields");
        }
    }

    #[test]
    fn flip_lines_contain_non_finite_tokens() {
        let (_, csv) = base_csv(10);
        let out = FaultInjector::new(3).apply(FaultOp::FlipNonFinite(4), &csv);
        let lines: Vec<&str> = out.text.lines().collect();
        for &l in &out.lines {
            let row = lines[l - 1];
            assert!(
                row.contains("NaN") || row.contains("inf"),
                "line {l}: {row}"
            );
        }
    }

    #[test]
    fn saturate_lines_contain_huge_value() {
        let (_, csv) = base_csv(10);
        let out = FaultInjector::new(4).apply(FaultOp::SaturateCounters(2), &csv);
        let lines: Vec<&str> = out.text.lines().collect();
        for &l in &out.lines {
            assert!(lines[l - 1].contains("1e30"), "{}", lines[l - 1]);
        }
    }

    #[test]
    fn duplicate_reports_inserted_line_positions() {
        let (_, csv) = base_csv(8);
        let out = FaultInjector::new(5).apply(FaultOp::DuplicateSections(3), &csv);
        assert_eq!(out.lines.len(), 3);
        let lines: Vec<&str> = out.text.lines().collect();
        assert_eq!(lines.len(), 1 + 8 + 3);
        for &l in &out.lines {
            // An inserted duplicate equals the line above it.
            assert_eq!(lines[l - 1], lines[l - 2], "line {l}");
        }
    }

    #[test]
    fn counts_clamp_to_available_rows() {
        let (_, csv) = base_csv(3);
        let out = FaultInjector::new(6).apply(FaultOp::DropRows(100), &csv);
        assert_eq!(out.dropped, 3);
        let out = FaultInjector::new(6).apply(FaultOp::TruncateFields(100), &csv);
        assert_eq!(out.lines.len(), 3);
    }

    #[test]
    fn header_is_never_touched() {
        let (_, csv) = base_csv(5);
        let header = csv.lines().next().unwrap().to_string();
        for op in [
            FaultOp::DropRows(5),
            FaultOp::TruncateFields(5),
            FaultOp::FlipNonFinite(5),
            FaultOp::SaturateCounters(5),
            FaultOp::DuplicateSections(5),
        ] {
            let out = FaultInjector::new(9).apply(op, &csv);
            assert_eq!(out.text.lines().next().unwrap(), header, "{op:?}");
            assert!(out.lines.iter().all(|&l| l >= 2), "{op:?}");
        }
    }
}
