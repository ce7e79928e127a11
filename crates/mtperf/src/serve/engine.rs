//! The engine layer: validated loads and the per-request degradation
//! ladder.
//!
//! # Validated loads
//!
//! A model only becomes servable after [`load_and_validate`]: parse (the
//! persistence layer already verifies the envelope checksum), compile, and
//! **smoke-predict** — score one all-zero row through the compiled tree and
//! require bit-identical agreement with the interpreted walk plus a finite
//! result. A file that fails any step never reaches the hot path. Model
//! *lifecycle* — which versions are resident, which is active, hot reload
//! and promote with last-known-good fallback — lives one layer up, in
//! [`super::registry`]; every path into that layer funnels through
//! [`load_and_validate`].
//!
//! # Per-request degradation ladder
//!
//! [`predict`] tries, in order:
//!
//! 1. the compiled batch path (parallel, cancellable) — the fast path;
//! 2. the interpreted per-row walk, panic-isolated and deadline-checked
//!    between rows — bit-identical output by the compiled path's own
//!    contract, just slower;
//! 3. a structured `internal` failure naming both errors.
//!
//! Deadline expiry is not a fault: it short-circuits the ladder and
//! reports [`PredictOutcome::DeadlineExceeded`] immediately.

use std::panic::{self, AssertUnwindSafe};
use std::path::Path;

use mtperf_linalg::{CancelToken, Matrix, Parallelism};
use mtperf_mtree::{CompiledTree, ModelTree, MtreeError};

/// A validated, servable model: the source tree (for the interpreted
/// fallback) plus its compiled form (the fast path).
pub struct LoadedModel {
    /// Interpreted form, kept for the degradation ladder.
    pub tree: ModelTree,
    /// Compiled form used by the worker hot path.
    pub compiled: CompiledTree,
}

impl LoadedModel {
    /// Attribute count requests must provide.
    pub fn n_attrs(&self) -> usize {
        self.compiled.n_attrs()
    }
}

/// Loads, compiles, and smoke-predicts a model file.
///
/// # Errors
///
/// Returns a human-readable reason (typed persistence errors render
/// through their `Display`) when the file is missing, torn, corrupt, a
/// wrong version, or fails the smoke prediction.
pub fn load_and_validate(path: &Path) -> Result<LoadedModel, String> {
    let tree = ModelTree::load(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let compiled = tree.compile();
    let zeros = vec![0.0; compiled.n_attrs().max(1)];
    let rows = Matrix::from_rows(&[&zeros]).map_err(|e| format!("smoke row: {e}"))?;
    let got = compiled
        .try_predict_batch_with(&rows, Parallelism::Off)
        .map_err(|e| format!("smoke prediction failed: {e}"))?;
    let want = panic::catch_unwind(AssertUnwindSafe(|| tree.predict(&zeros)))
        .map_err(|_| "smoke prediction panicked in the interpreted walk".to_string())?;
    if got.len() != 1 || got[0].to_bits() != want.to_bits() {
        return Err("smoke prediction disagrees with the interpreted walk".to_string());
    }
    if !got[0].is_finite() {
        return Err(format!("smoke prediction is non-finite ({})", got[0]));
    }
    Ok(LoadedModel { tree, compiled })
}

/// Outcome of one prediction request after the degradation ladder.
#[derive(Debug, PartialEq)]
pub enum PredictOutcome {
    /// Predictions in input order; `degraded` when the interpreted
    /// fallback produced them.
    Ok {
        /// Predicted values, one per input row.
        predictions: Vec<f64>,
        /// Whether the fallback path answered.
        degraded: bool,
    },
    /// The request's deadline fired before compute finished.
    DeadlineExceeded,
    /// Every rung of the ladder failed.
    Failed(String),
}

enum InterpFail {
    Deadline,
    Error(String),
}

fn interpreted_predict(
    model: &LoadedModel,
    rows: &Matrix,
    token: &CancelToken,
) -> Result<Vec<f64>, InterpFail> {
    let mut out = Vec::with_capacity(rows.rows());
    for i in 0..rows.rows() {
        if token.is_cancelled() {
            return Err(InterpFail::Deadline);
        }
        let row = rows.row(i);
        let p = panic::catch_unwind(AssertUnwindSafe(|| model.tree.predict(row)))
            .map_err(|_| InterpFail::Error(format!("interpreted walk panicked on row {i}")))?;
        out.push(p);
    }
    Ok(out)
}

/// Scores `rows` through the degradation ladder (see the module docs).
pub fn predict(
    model: &LoadedModel,
    rows: &Matrix,
    par: Parallelism,
    token: &CancelToken,
) -> PredictOutcome {
    match model.compiled.try_predict_batch_cancel(rows, par, token) {
        Ok(predictions) => PredictOutcome::Ok {
            predictions,
            degraded: false,
        },
        Err(MtreeError::Cancelled) => PredictOutcome::DeadlineExceeded,
        Err(primary) => match interpreted_predict(model, rows, token) {
            Ok(predictions) => PredictOutcome::Ok {
                predictions,
                degraded: true,
            },
            Err(InterpFail::Deadline) => PredictOutcome::DeadlineExceeded,
            Err(InterpFail::Error(secondary)) => PredictOutcome::Failed(format!(
                "compiled path: {primary}; interpreted fallback: {secondary}"
            )),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtperf_mtree::{Dataset, M5Params};
    use std::path::PathBuf;
    use std::time::Duration;

    fn tiny_dataset(n_attrs: usize) -> Dataset {
        let names: Vec<String> = (0..n_attrs).map(|i| format!("a{i}")).collect();
        let rows: Vec<Vec<f64>> = (0..24)
            .map(|r| {
                (0..n_attrs)
                    .map(|c| ((r * 7 + c * 3) % 11) as f64)
                    .collect()
            })
            .collect();
        let targets: Vec<f64> = rows
            .iter()
            .map(|row| {
                0.5 + row
                    .iter()
                    .enumerate()
                    .map(|(i, v)| v * (i + 1) as f64)
                    .sum::<f64>()
            })
            .collect();
        Dataset::from_rows(names, &rows, &targets).unwrap()
    }

    fn tiny_tree(n_attrs: usize) -> ModelTree {
        let params = M5Params::default().with_min_instances(4);
        ModelTree::fit(&tiny_dataset(n_attrs), &params).unwrap()
    }

    fn temp_model(name: &str, n_attrs: usize) -> (PathBuf, ModelTree) {
        let dir = std::env::temp_dir().join("mtperf-serve-engine-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let tree = tiny_tree(n_attrs);
        tree.save(&path).unwrap();
        (path, tree)
    }

    #[test]
    fn load_and_validate_serves_bit_identical() {
        let (path, tree) = temp_model("open-ok.json", 3);
        let model = load_and_validate(&path).unwrap();
        assert_eq!(model.n_attrs(), 3);
        let row = [1.0, 2.0, 3.0];
        let rows = Matrix::from_rows(&[&row]).unwrap();
        match predict(&model, &rows, Parallelism::Off, &CancelToken::new()) {
            PredictOutcome::Ok {
                predictions,
                degraded,
            } => {
                assert!(!degraded);
                assert_eq!(predictions[0].to_bits(), tree.predict(&row).to_bits());
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn missing_or_corrupt_file_fails_validation() {
        let err = load_and_validate(Path::new("/nonexistent/model.json"))
            .err()
            .expect("validated load of a missing file must fail");
        assert!(err.contains("model.json"), "{err}");

        let dir = std::env::temp_dir().join("mtperf-serve-engine-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("garbage.json");
        std::fs::write(&bad, "{ not a model }").unwrap();
        assert!(load_and_validate(&bad).is_err());

        // A validated model saves atomically: no staging files survive.
        let (path, tree) = temp_model("save-src.json", 2);
        let model = load_and_validate(&path).unwrap();
        let copy = dir.join("save-copy.json");
        model.tree.save(&copy).unwrap();
        assert_eq!(ModelTree::load(&copy).unwrap().to_json(), tree.to_json());
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
    }

    #[test]
    fn expired_deadline_reports_deadline_not_a_hang() {
        // The deadline is armed and checked on the clock seam; hold the
        // seams so no simulation swaps the clock in between.
        let _seams = crate::serve::dst::SeamGuard::new();
        let (path, _) = temp_model("deadline.json", 2);
        let model = load_and_validate(&path).unwrap();
        let rows = Matrix::from_rows(&[&[1.0, 2.0][..]]).unwrap();
        let token = CancelToken::with_deadline(Duration::ZERO);
        assert_eq!(
            predict(&model, &rows, Parallelism::Off, &token),
            PredictOutcome::DeadlineExceeded
        );
    }

    #[test]
    fn compiled_failure_falls_back_to_interpreted_as_degraded() {
        // A deliberately inconsistent pair: the compiled form demands more
        // attributes than the interpreted tree, so the compiled rung fails
        // with RowLengthMismatch and the interpreted rung answers.
        let model = LoadedModel {
            tree: tiny_tree(2),
            compiled: tiny_tree(5).compile(),
        };
        let row = [3.0, 1.0];
        let rows = Matrix::from_rows(&[&row]).unwrap();
        match predict(&model, &rows, Parallelism::Off, &CancelToken::new()) {
            PredictOutcome::Ok {
                predictions,
                degraded,
            } => {
                assert!(degraded, "fallback answers must be marked degraded");
                assert_eq!(predictions[0].to_bits(), model.tree.predict(&row).to_bits());
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn whole_ladder_failing_is_a_structured_error() {
        let model = LoadedModel {
            tree: tiny_tree(5),
            compiled: tiny_tree(5).compile(),
        };
        // One column: too narrow for both rungs.
        let rows = Matrix::from_rows(&[&[1.0][..]]).unwrap();
        match predict(&model, &rows, Parallelism::Off, &CancelToken::new()) {
            PredictOutcome::Failed(msg) => {
                assert!(msg.contains("compiled path"), "{msg}");
                assert!(msg.contains("interpreted fallback"), "{msg}");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }
}
