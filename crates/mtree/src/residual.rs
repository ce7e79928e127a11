//! Compositional residual learning (Concorde-style fusion).
//!
//! A cheap analytical model predicts most of the target from first
//! principles; the learner is only asked to fit what the analytical model
//! gets wrong. Concretely, the dataset carries the analytical prediction as
//! one of its columns (the *baseline attribute*), the wrapped learner is
//! trained on `target − baseline`, and prediction reconstructs
//! `learner(row) + row[baseline]`.
//!
//! # Bit-identity contract
//!
//! Reconstruction is a single `+` appended to the wrapped predictor's
//! output, applied identically on the scalar and batch paths. Therefore
//! [`ResidualPredictor::predict_batch`] is bit-identical to calling
//! [`ResidualPredictor::predict`] row by row whenever the wrapped
//! predictor's batch path is bit-identical to its scalar path (which the
//! model tree's compiled engine guarantees).

use mtperf_linalg::Matrix;

use crate::learner::{Learner, Predictor};
use crate::{Dataset, MtreeError};

/// Rewrites `data`'s targets as residuals against its `baseline_attr`
/// column (`target − row[baseline_attr]`), keeping every attribute column
/// unchanged. This is the training-side half of residual fusion; the
/// prediction-side half is [`ResidualPredictor`]'s reconstruction.
///
/// # Errors
///
/// [`MtreeError::AttributeOutOfRange`] when `baseline_attr` is not a column
/// of `data`; [`MtreeError::NonFiniteValue`] when a residual overflows to a
/// non-finite value (pathological baselines).
pub fn residual_dataset(data: &Dataset, baseline_attr: usize) -> Result<Dataset, MtreeError> {
    if baseline_attr >= data.n_attrs() {
        return Err(MtreeError::AttributeOutOfRange {
            attr: baseline_attr,
            n_attrs: data.n_attrs(),
        });
    }
    let baseline = data.column(baseline_attr);
    let residuals: Vec<f64> = data
        .targets()
        .iter()
        .zip(baseline)
        .map(|(&y, &b)| y - b)
        .collect();
    let columns: Vec<Vec<f64>> = (0..data.n_attrs())
        .map(|j| data.column(j).to_vec())
        .collect();
    Dataset::from_columns(data.attr_names().to_vec(), columns, residuals)
}

/// A [`Learner`] that fits its wrapped learner on the residual between the
/// target and a baseline column, and returns a reconstructing
/// [`ResidualPredictor`].
///
/// # Example
///
/// ```
/// use mtperf_mtree::{Dataset, Learner, M5Learner, ResidualLearner};
///
/// // Column 1 is an analytical estimate of the target; the tree only has
/// // to learn the remaining (here: constant 0.5) correction.
/// let rows: Vec<[f64; 2]> = (0..40).map(|i| [i as f64, 2.0 * i as f64]).collect();
/// let ys: Vec<f64> = rows.iter().map(|r| r[1] + 0.5).collect();
/// let d = Dataset::from_rows(vec!["x".into(), "an".into()], &rows, &ys).unwrap();
/// let model = ResidualLearner::new(M5Learner::default(), 1).fit(&d).unwrap();
/// assert!((model.predict(&[7.0, 14.0]) - 14.5).abs() < 0.2);
/// ```
pub struct ResidualLearner<L> {
    base: L,
    baseline_attr: usize,
    name: String,
}

impl<L: Learner> ResidualLearner<L> {
    /// Wraps `base` to learn residuals against column `baseline_attr`.
    pub fn new(base: L, baseline_attr: usize) -> Self {
        let name = format!("residual({})", base.name());
        ResidualLearner {
            base,
            baseline_attr,
            name,
        }
    }

    /// The wrapped learner.
    pub fn base(&self) -> &L {
        &self.base
    }

    /// The baseline (analytical-prediction) column index.
    pub fn baseline_attr(&self) -> usize {
        self.baseline_attr
    }
}

impl<L: Learner> Learner for ResidualLearner<L> {
    fn fit(&self, data: &Dataset) -> Result<Box<dyn Predictor>, MtreeError> {
        let residuals = residual_dataset(data, self.baseline_attr)?;
        let base = self.base.fit(&residuals)?;
        Ok(Box::new(ResidualPredictor {
            base,
            baseline_attr: self.baseline_attr,
        }))
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A fitted residual model: the wrapped predictor's output plus the row's
/// baseline column (see [`ResidualLearner`] and [`residual_dataset`] for the
/// contract).
pub struct ResidualPredictor {
    base: Box<dyn Predictor>,
    baseline_attr: usize,
}

impl ResidualPredictor {
    /// Wraps an already-fitted `base` predictor of residuals.
    pub fn new(base: Box<dyn Predictor>, baseline_attr: usize) -> Self {
        ResidualPredictor {
            base,
            baseline_attr,
        }
    }

    /// The baseline (analytical-prediction) column index.
    pub fn baseline_attr(&self) -> usize {
        self.baseline_attr
    }
}

impl Predictor for ResidualPredictor {
    fn predict(&self, row: &[f64]) -> f64 {
        self.base.predict(row) + row[self.baseline_attr]
    }

    /// Batch reconstruction: the wrapped batch prediction plus the baseline
    /// column, one `+` per row in row order — the exact operation
    /// [`ResidualPredictor::predict`] appends, so batch and scalar paths
    /// stay bit-identical.
    fn predict_batch(&self, rows: &Matrix) -> Vec<f64> {
        let mut out = self.base.predict_batch(rows);
        for (r, p) in out.iter_mut().enumerate() {
            *p += rows.row(r)[self.baseline_attr];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{M5Learner, M5Params};

    /// Targets = analytical baseline (column 2) + a piecewise residual the
    /// tree can learn from columns 0..1.
    fn fused_data(n: usize) -> Dataset {
        let mut rows: Vec<[f64; 3]> = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            let a = (i % 7) as f64 * 0.1;
            let b = if i % 2 == 0 { 0.0 } else { 1.0 };
            let baseline = 1.0 + a;
            rows.push([a, b, baseline]);
            ys.push(baseline + 0.3 * b + 0.05 * a);
        }
        Dataset::from_rows(vec!["a".into(), "b".into(), "an".into()], &rows, &ys).unwrap()
    }

    #[test]
    fn residual_dataset_subtracts_baseline() {
        let d = fused_data(50);
        let r = residual_dataset(&d, 2).unwrap();
        assert_eq!(r.n_rows(), d.n_rows());
        assert_eq!(r.n_attrs(), d.n_attrs());
        for i in 0..d.n_rows() {
            assert_eq!(r.target(i), d.target(i) - d.value(i, 2));
            assert_eq!(r.row(i), d.row(i));
        }
    }

    #[test]
    fn residual_dataset_rejects_bad_column() {
        let d = fused_data(10);
        assert_eq!(
            residual_dataset(&d, 3).unwrap_err(),
            MtreeError::AttributeOutOfRange {
                attr: 3,
                n_attrs: 3
            }
        );
    }

    #[test]
    fn fit_reconstructs_the_target_scale() {
        let d = fused_data(120);
        let learner = ResidualLearner::new(
            M5Learner::new(M5Params::default().with_min_instances(10)),
            2,
        );
        assert_eq!(learner.name(), "residual(M5' model tree)");
        assert_eq!(learner.baseline_attr(), 2);
        let model = learner.fit(&d).unwrap();
        // Predictions land near the *original* targets, not the residuals.
        let mut mae = 0.0;
        for i in 0..d.n_rows() {
            mae += (model.predict(&d.row(i)) - d.target(i)).abs();
        }
        mae /= d.n_rows() as f64;
        assert!(mae < 0.1, "mae = {mae}");
    }

    #[test]
    fn batch_matches_scalar_bitwise() {
        let d = fused_data(120);
        let model = ResidualLearner::new(
            M5Learner::new(M5Params::default().with_min_instances(10)),
            2,
        )
        .fit(&d)
        .unwrap();
        let m = d.to_matrix();
        let batch = model.predict_batch(&m);
        assert_eq!(batch.len(), d.n_rows());
        for (i, b) in batch.iter().enumerate() {
            assert_eq!(b.to_bits(), model.predict(&d.row(i)).to_bits(), "row {i}");
        }
    }

    #[test]
    fn fit_propagates_baseline_errors() {
        let d = fused_data(20);
        let learner = ResidualLearner::new(M5Learner::default(), 9);
        let err = match learner.fit(&d) {
            Err(e) => e,
            Ok(_) => panic!("fit must fail on an out-of-range baseline"),
        };
        assert!(matches!(
            err,
            MtreeError::AttributeOutOfRange { attr: 9, .. }
        ));
    }
}
