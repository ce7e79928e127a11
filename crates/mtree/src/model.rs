//! Linear models for tree nodes.
//!
//! A node model is fitted over the attributes its subtree splits on, then
//! simplified by greedy term elimination: drop the first term whose removal
//! lowers the inflated error, refit, repeat. Every candidate is solved from
//! one set of normal equations per node ([`NormalEquations`]). The node's
//! constant attributes are filtered once; the design matrix `X` over the
//! intercept and the remaining *live* attributes is built once, and so are
//! `XᵀX` and `Xᵀy`. A candidate's system is the matching rows and columns
//! of those, handed to [`solve_normal_equations`].
//!
//! That gives the same bits as a fresh [`lstsq`](mtperf_linalg::lstsq) on
//! the candidate's own design matrix. [`Matrix::gram`] sums
//! `x[r][a]·x[r][b]` into entry `(a, b)` over the rows in order, skipping a
//! row only when `x[r][a]` is zero, and [`Matrix::t_matvec`] skips only rows
//! whose target is zero. So each entry depends on its own two columns
//! alone, and dropping other columns leaves it unchanged; the ridge scale,
//! the largest remaining diagonal entry, is unchanged too. Every candidate
//! is a subset of the live attributes, so a fresh fit's own constant-column
//! filter would drop nothing. The model with no terms is the targets' mean,
//! as a fresh fit over no live attribute gives.
//!
//! Errors are scored from the dataset's columns: [`LinearModel::mean_abs_error`]
//! evaluates the expression [`LinearModel::predict`] evaluates, with the
//! same operands in the same order, without copying each instance's row.

use serde::{Deserialize, Serialize};

use mtperf_linalg::{solve_normal_equations, Matrix};

use crate::{Dataset, MtreeError};

/// A sparse linear model `y = intercept + Σ coef_j · x_j` over a subset of
/// the dataset's attributes.
///
/// These are the models that appear at the leaves of the paper's tree, e.g.
/// its LM8 (Equation 4):
/// `CPI = 0.52 + 139.91·ItlbM + 2.22·DtlbL0LdM + 28.21·DtlbLdReM +
/// 6.69·L1IM + 1.08·InstLd`.
///
/// # Example
///
/// ```
/// use mtperf_mtree::{Dataset, LinearModel};
///
/// let d = Dataset::from_rows(
///     vec!["x".into()],
///     &[[0.0], [1.0], [2.0]],
///     &[1.0, 3.0, 5.0],
/// ).unwrap();
/// let m = LinearModel::fit(&d, &[0, 1, 2], &[0]).unwrap();
/// assert!((m.predict(&[4.0]) - 9.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearModel {
    intercept: f64,
    /// `(attribute index, coefficient)` pairs, sorted by attribute index.
    terms: Vec<(usize, f64)>,
}

impl LinearModel {
    /// A constant model (the degenerate case — e.g. the paper's LM18,
    /// `CPI = 2.2`).
    pub fn constant(value: f64) -> Self {
        LinearModel {
            intercept: value,
            terms: Vec::new(),
        }
    }

    /// Fits an ordinary-least-squares model of the targets of the instances
    /// in `idx` over the attributes in `attrs`.
    ///
    /// Attributes that are constant across `idx` are silently dropped —
    /// their coefficient is unidentifiable (and the ridge fallback would
    /// assign them an arbitrary near-zero weight).
    ///
    /// # Errors
    ///
    /// Returns [`MtreeError::EmptyDataset`] if `idx` is empty and
    /// propagates unrecoverable solver failures.
    pub fn fit(data: &Dataset, idx: &[usize], attrs: &[usize]) -> Result<Self, MtreeError> {
        let normal = NormalEquations::new(data, idx, attrs)?;
        normal.solve(&normal.all())
    }

    /// Fits a model over `attrs`, then greedily removes terms while the
    /// inflated error estimate improves — M5's simplification step, which is
    /// what produces the compact leaf equations of the paper.
    ///
    /// Each pass tries dropping the current terms in attribute order and
    /// keeps the first candidate whose inflated error is lower. Every
    /// candidate is solved from the node's one set of normal equations
    /// (see the module docs).
    ///
    /// # Errors
    ///
    /// Same as [`LinearModel::fit`].
    pub fn fit_with_elimination(
        data: &Dataset,
        idx: &[usize],
        attrs: &[usize],
    ) -> Result<Self, MtreeError> {
        let normal = NormalEquations::new(data, idx, attrs)?;
        let mut keep = normal.all();
        let mut best = normal.solve(&keep)?;
        let mut best_err = best.inflated_error(data, idx);
        'pass: while !keep.is_empty() {
            for drop in 0..keep.len() {
                let mut reduced = keep.clone();
                reduced.remove(drop);
                let candidate = normal.solve(&reduced)?;
                let err = candidate.inflated_error(data, idx);
                if err < best_err {
                    (best, best_err, keep) = (candidate, err, reduced);
                    continue 'pass;
                }
            }
            break;
        }
        Ok(best)
    }

    /// The intercept term.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// The `(attribute index, coefficient)` terms, sorted by attribute.
    pub fn terms(&self) -> &[(usize, f64)] {
        &self.terms
    }

    /// The coefficient of attribute `j`, or `None` if the model dropped it.
    pub fn coefficient(&self, j: usize) -> Option<f64> {
        self.terms
            .binary_search_by_key(&j, |&(a, _)| a)
            .ok()
            .map(|pos| self.terms[pos].1)
    }

    /// Number of fitted parameters (terms + intercept).
    pub fn n_params(&self) -> usize {
        self.terms.len() + 1
    }

    /// Predicts the target for a full attribute row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is shorter than the largest attribute index used.
    pub fn predict(&self, row: &[f64]) -> f64 {
        self.eval(|j| row[j])
    }

    /// The model's value where attribute `j` reads `value(j)`.
    #[inline]
    fn eval(&self, value: impl Fn(usize) -> f64) -> f64 {
        self.intercept + self.terms.iter().map(|&(j, c)| c * value(j)).sum::<f64>()
    }

    /// Mean absolute residual of this model on the instances in `idx`.
    pub fn mean_abs_error(&self, data: &Dataset, idx: &[usize]) -> f64 {
        if idx.is_empty() {
            return 0.0;
        }
        let sum: f64 = idx
            .iter()
            .map(|&i| (self.eval(|j| data.value(i, j)) - data.target(i)).abs())
            .sum();
        sum / idx.len() as f64
    }

    /// M5's pessimistic error estimate: the training error inflated by
    /// `(n + v) / (n - v)` where `v` is the parameter count. Subsets smaller
    /// than the parameter count get an essentially infinite estimate, which
    /// drives both term elimination and pruning away from over-parameterized
    /// models.
    pub fn inflated_error(&self, data: &Dataset, idx: &[usize]) -> f64 {
        let n = idx.len() as f64;
        let v = self.n_params() as f64;
        let raw = self.mean_abs_error(data, idx);
        if n <= v {
            return f64::MAX / 4.0;
        }
        raw * (n + v) / (n - v)
    }

    /// Renders the model as an equation over the given attribute names, in
    /// the style of the paper's LM listings.
    ///
    /// # Panics
    ///
    /// Panics if `names` is shorter than the largest attribute index used.
    pub fn render(&self, target_name: &str, names: &[String]) -> String {
        let mut s = format!("{target_name} = {:.4}", self.intercept);
        for &(j, c) in &self.terms {
            if c >= 0.0 {
                s.push_str(&format!(" + {:.4} * {}", c, names[j]));
            } else {
                s.push_str(&format!(" - {:.4} * {}", -c, names[j]));
            }
        }
        s
    }
}

/// The normal equations of one node's design matrix `[1 | live attributes]`,
/// from which every subset of the live attributes is solved.
struct NormalEquations {
    /// The attributes that vary over the node's instances, ascending.
    live: Vec<usize>,
    /// Mean of the node's targets: the model with no terms.
    mean: f64,
    /// `XᵀX` over the intercept column and `live` (`0 × 0` when `live` is
    /// empty).
    gram: Matrix,
    /// `Xᵀy`, in the same column order.
    rhs: Vec<f64>,
}

impl NormalEquations {
    /// Filters the attributes in `attrs` that are constant over `idx`, then
    /// forms the normal equations over the rest.
    fn new(data: &Dataset, idx: &[usize], attrs: &[usize]) -> Result<Self, MtreeError> {
        if idx.is_empty() {
            return Err(MtreeError::EmptyDataset);
        }
        // Keep only attributes with variation on this subset.
        let mut live: Vec<usize> = Vec::with_capacity(attrs.len());
        for &j in attrs {
            let col = data.column(j);
            let first = col[idx[0]];
            if idx.iter().any(|&i| col[i] != first) {
                live.push(j);
            }
        }
        live.sort_unstable();
        live.dedup();

        let y: Vec<f64> = idx.iter().map(|&i| data.target(i)).collect();
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        if live.is_empty() {
            return Ok(NormalEquations {
                live,
                mean,
                gram: Matrix::zeros(0, 0),
                rhs: Vec::new(),
            });
        }
        let mut x = Matrix::zeros(idx.len(), live.len() + 1);
        for (r, &i) in idx.iter().enumerate() {
            x[(r, 0)] = 1.0;
            for (c, &j) in live.iter().enumerate() {
                x[(r, c + 1)] = data.value(i, j);
            }
        }
        mtperf_obs::add("mtree.gram_builds", 1);
        let gram = x.gram();
        let rhs = x.t_matvec(&y)?;
        // Finite data can still overflow a sum of products.
        if let Some((a, b)) = first_non_finite(&gram, &rhs) {
            return Err(overflow(data, idx, &live, a, b));
        }
        Ok(NormalEquations {
            gram,
            rhs,
            live,
            mean,
        })
    }

    /// Every live attribute, as positions in `live`.
    fn all(&self) -> Vec<usize> {
        (0..self.live.len()).collect()
    }

    /// Fits the model over the live attributes at the ascending positions
    /// `keep`.
    fn solve(&self, keep: &[usize]) -> Result<LinearModel, MtreeError> {
        if keep.is_empty() {
            return Ok(LinearModel::constant(self.mean));
        }
        // Column 0 is the intercept; live attribute `k` is column `k + 1`.
        let cols: Vec<usize> = std::iter::once(0)
            .chain(keep.iter().map(|&k| k + 1))
            .collect();
        let mut gram = Matrix::zeros(cols.len(), cols.len());
        for (a, &ca) in cols.iter().enumerate() {
            for (b, &cb) in cols.iter().enumerate() {
                gram[(a, b)] = self.gram[(ca, cb)];
            }
        }
        let rhs: Vec<f64> = cols.iter().map(|&c| self.rhs[c]).collect();
        mtperf_obs::add("mtree.model_solves", 1);
        let beta = solve_normal_equations(&gram, &rhs)?;
        Ok(LinearModel {
            intercept: beta[0],
            terms: keep
                .iter()
                .map(|&k| self.live[k])
                .zip(beta[1..].iter().copied())
                .collect(),
        })
    }
}

/// The design columns behind the first entry of `gram` (row by row), then
/// of `rhs`, that is not finite: column `0` is the intercept and column
/// `k + 1` live attribute `k`; an `rhs` entry pairs its column with the
/// target (`None`).
fn first_non_finite(gram: &Matrix, rhs: &[f64]) -> Option<(usize, Option<usize>)> {
    let n = rhs.len();
    (0..n)
        .flat_map(|a| (0..n).map(move |b| (a, b)))
        .find(|&(a, b)| !gram[(a, b)].is_finite())
        .map(|(a, b)| (a, Some(b)))
        .or_else(|| rhs.iter().position(|v| !v.is_finite()).map(|a| (a, None)))
}

/// The error for an entry of the normal equations that overflowed over
/// design columns `a` and `b` (`None` the target): of the attributes (and
/// target) its products sum over, the one with the largest |value| over
/// `idx`, and the first dataset row holding that value.
fn overflow(
    data: &Dataset,
    idx: &[usize],
    live: &[usize],
    a: usize,
    b: Option<usize>,
) -> MtreeError {
    // `None` is the target; the intercept column cannot overflow.
    let mut columns: Vec<Option<usize>> = [Some(a), b]
        .into_iter()
        .flatten()
        .filter(|&c| c > 0)
        .map(|c| Some(live[c - 1]))
        .collect();
    if b.is_none() {
        columns.push(None);
    }
    let value = |i: usize, column: Option<usize>| match column {
        Some(j) => data.value(i, j).abs(),
        None => data.target(i).abs(),
    };
    let mut worst = (f64::NEG_INFINITY, idx[0], None);
    for &column in &columns {
        for &i in idx {
            if value(i, column) > worst.0 {
                worst = (value(i, column), i, column);
            }
        }
    }
    MtreeError::FitOverflow {
        row: worst.1,
        attr: worst.2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_data() -> Dataset {
        // y = 1 + 2a - b, with a third irrelevant noise-free attribute c=5.
        let rows: Vec<[f64; 3]> = (0..20)
            .map(|i| {
                let a = i as f64;
                let b = (i * 7 % 5) as f64;
                [a, b, 5.0]
            })
            .collect();
        let ys: Vec<f64> = rows.iter().map(|r| 1.0 + 2.0 * r[0] - r[1]).collect();
        Dataset::from_rows(vec!["a".into(), "b".into(), "c".into()], &rows, &ys).unwrap()
    }

    #[test]
    fn fit_recovers_coefficients() {
        let d = line_data();
        let idx: Vec<usize> = (0..d.n_rows()).collect();
        let m = LinearModel::fit(&d, &idx, &[0, 1]).unwrap();
        assert!((m.intercept() - 1.0).abs() < 1e-8);
        assert!((m.coefficient(0).unwrap() - 2.0).abs() < 1e-8);
        assert!((m.coefficient(1).unwrap() + 1.0).abs() < 1e-8);
        assert_eq!(m.coefficient(2), None);
    }

    #[test]
    fn constant_attribute_is_dropped() {
        let d = line_data();
        let idx: Vec<usize> = (0..d.n_rows()).collect();
        // Attribute c is constant 5.0 -> must be dropped, not fitted.
        let m = LinearModel::fit(&d, &idx, &[0, 2]).unwrap();
        assert_eq!(m.coefficient(2), None);
        assert!(m.coefficient(0).is_some());
    }

    #[test]
    fn all_constant_attrs_yield_mean_model() {
        let d =
            Dataset::from_rows(vec!["x".into()], &[[3.0], [3.0], [3.0]], &[1.0, 2.0, 3.0]).unwrap();
        let m = LinearModel::fit(&d, &[0, 1, 2], &[0]).unwrap();
        assert_eq!(m.terms().len(), 0);
        assert!((m.intercept() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_subset_is_error() {
        let d = line_data();
        assert!(matches!(
            LinearModel::fit(&d, &[], &[0]),
            Err(MtreeError::EmptyDataset)
        ));
    }

    #[test]
    fn an_overflowing_fit_names_the_largest_column_and_row() {
        // Every value is finite, but `b` squared overflows: the error
        // names `b` and the first row of its largest magnitude, not the
        // singular matrix the overflow would leave.
        let rows: Vec<[f64; 3]> = (0..8)
            .map(|i| {
                let b = match i {
                    3 | 6 => -1.7e308,
                    _ => i as f64,
                };
                [i as f64, b, (i * i) as f64]
            })
            .collect();
        let ys: Vec<f64> = (0..8).map(|i| 1.0 + i as f64).collect();
        let names = vec!["a".into(), "b".into(), "c".into()];
        let d = Dataset::from_rows(names, &rows, &ys).unwrap();
        let idx: Vec<usize> = (0..8).collect();
        for fit in [LinearModel::fit, LinearModel::fit_with_elimination] {
            assert_eq!(
                fit(&d, &idx, &[0, 1, 2]),
                Err(MtreeError::FitOverflow {
                    row: 3,
                    attr: Some(1)
                })
            );
        }
        // A target too large to sum with the attributes is named too.
        let ys: Vec<f64> = (0..8).map(|i| if i == 5 { 1e308 } else { 1.0 }).collect();
        let rows: Vec<[f64; 1]> = (0..8).map(|i| [10.0 + i as f64]).collect();
        let d = Dataset::from_rows(vec!["a".into()], &rows, &ys).unwrap();
        assert_eq!(
            LinearModel::fit(&d, &idx, &[0]),
            Err(MtreeError::FitOverflow { row: 5, attr: None })
        );
    }

    #[test]
    fn elimination_drops_noise_terms() {
        // y depends only on a; b is random noise. With few instances, the
        // inflation factor punishes the extra parameter.
        let rows: Vec<[f64; 2]> = (0..12)
            .map(|i| [i as f64, ((i * 2654435761u64 as usize) % 97) as f64])
            .collect();
        let ys: Vec<f64> = rows.iter().map(|r| 3.0 * r[0]).collect();
        let d = Dataset::from_rows(vec!["a".into(), "b".into()], &rows, &ys).unwrap();
        let idx: Vec<usize> = (0..d.n_rows()).collect();
        let m = LinearModel::fit_with_elimination(&d, &idx, &[0, 1]).unwrap();
        assert!(m.coefficient(0).is_some(), "true term kept");
        assert_eq!(m.coefficient(1), None, "noise term dropped: {m:?}");
    }

    #[test]
    fn elimination_can_reduce_to_constant() {
        // Pure noise target: best model is the mean.
        let rows: Vec<[f64; 1]> = (0..8).map(|i| [i as f64]).collect();
        let ys = [5.0, 5.1, 4.9, 5.0, 5.05, 4.95, 5.0, 5.0];
        let d = Dataset::from_rows(vec!["a".into()], &rows, &ys).unwrap();
        let idx: Vec<usize> = (0..8).collect();
        let m = LinearModel::fit_with_elimination(&d, &idx, &[0]).unwrap();
        // Either constant or nearly-zero slope; the inflated error of the
        // constant model must not be worse.
        let constant = LinearModel::constant(5.0);
        assert!(m.inflated_error(&d, &idx) <= constant.inflated_error(&d, &idx) + 1e-9);
    }

    #[test]
    fn inflated_error_punishes_small_subsets() {
        let d = line_data();
        let idx: Vec<usize> = (0..3).collect();
        let m = LinearModel::fit(&d, &idx, &[0, 1]).unwrap();
        // n = 3, v could be 3 -> essentially infinite estimate.
        if m.n_params() >= 3 {
            assert!(m.inflated_error(&d, &idx) > 1e100);
        }
    }

    #[test]
    fn predict_and_errors() {
        let m = LinearModel::constant(2.5);
        assert_eq!(m.predict(&[1.0, 2.0]), 2.5);
        let d = line_data();
        let idx: Vec<usize> = (0..d.n_rows()).collect();
        let fitted = LinearModel::fit(&d, &idx, &[0, 1]).unwrap();
        assert!(fitted.mean_abs_error(&d, &idx) < 1e-8);
        assert_eq!(m.mean_abs_error(&d, &[]), 0.0);
    }

    #[test]
    fn render_formats_signs() {
        let d = line_data();
        let idx: Vec<usize> = (0..d.n_rows()).collect();
        let m = LinearModel::fit(&d, &idx, &[0, 1]).unwrap();
        let names: Vec<String> = vec!["a".into(), "b".into(), "c".into()];
        let s = m.render("CPI", &names);
        assert!(s.starts_with("CPI = 1.0000"), "{s}");
        assert!(s.contains("+ 2.0000 * a"), "{s}");
        assert!(s.contains("- 1.0000 * b"), "{s}");
    }

    #[test]
    fn serde_roundtrip() {
        let m = LinearModel::constant(1.5);
        let json = serde_json::to_string(&m).unwrap();
        let back: LinearModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }
}
