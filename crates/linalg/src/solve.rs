//! Linear-system and least-squares solvers.
//!
//! The model-tree leaves solve many small least-squares problems whose design
//! matrices frequently contain (near-)constant columns — a hardware event
//! that simply never fires inside one performance class. [`lstsq`] therefore
//! solves the normal equations by Cholesky factorization and escalates to a
//! tiny ridge penalty when the Gram matrix is singular to working precision,
//! which keeps the fit defined (and harmless) in the degenerate cases.
//!
//! [`lstsq`] is two steps: form the normal equations
//! ([`Matrix::gram`] and [`Matrix::t_matvec`]), then solve them
//! ([`solve_normal_equations`]). A caller that fits many column subsets of
//! one design matrix — the model tree's term elimination — forms the Gram
//! matrix once and hands each subset's rows and columns of it to the second
//! step. Each Gram entry depends only on its own two columns, so that gives
//! the same bits as [`lstsq`] on the reduced design matrix.

use crate::{LinalgError, Matrix};

/// Relative ridge escalation ladder used by [`solve_normal_equations`] when
/// the plain normal equations are singular.
const RIDGE_LADDER: [f64; 4] = [1e-12, 1e-9, 1e-6, 1e-3];

/// Cholesky factorization of a symmetric positive-definite matrix.
///
/// Returns the lower-triangular factor `L` with `A = L * Lᵀ`.
///
/// # Errors
///
/// Returns [`LinalgError::Singular`] if `a` is not positive definite to
/// working precision and [`LinalgError::ShapeMismatch`] if `a` is not square.
pub fn cholesky(a: &Matrix) -> Result<Matrix, LinalgError> {
    if a.rows() != a.cols() {
        return Err(LinalgError::ShapeMismatch {
            left: a.shape(),
            right: a.shape(),
            op: "cholesky",
        });
    }
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    // Tolerance scaled by the largest diagonal entry.
    let scale = (0..n).fold(0.0_f64, |m, i| m.max(a[(i, i)].abs()));
    let tol = scale.max(1.0) * 1e-13;
    for j in 0..n {
        let mut d = a[(j, j)];
        for k in 0..j {
            d -= l[(j, k)] * l[(j, k)];
        }
        if d <= tol {
            return Err(LinalgError::Singular);
        }
        let dj = d.sqrt();
        l[(j, j)] = dj;
        for i in (j + 1)..n {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            l[(i, j)] = s / dj;
        }
    }
    Ok(l)
}

/// Solves `L * x = b` for lower-triangular `L` by forward substitution.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] on incompatible shapes and
/// [`LinalgError::Singular`] on a zero diagonal element.
pub fn solve_lower(l: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    if l.rows() != l.cols() || l.rows() != b.len() {
        return Err(LinalgError::ShapeMismatch {
            left: l.shape(),
            right: (b.len(), 1),
            op: "solve_lower",
        });
    }
    let n = b.len();
    let mut x = vec![0.0; n];
    for i in 0..n {
        let mut s = b[i];
        for j in 0..i {
            s -= l[(i, j)] * x[j];
        }
        let d = l[(i, i)];
        if d == 0.0 {
            return Err(LinalgError::Singular);
        }
        x[i] = s / d;
    }
    Ok(x)
}

/// Solves `U * x = b` for upper-triangular `U` by back substitution.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] on incompatible shapes and
/// [`LinalgError::Singular`] on a zero diagonal element.
pub fn solve_upper(u: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    if u.rows() != u.cols() || u.rows() != b.len() {
        return Err(LinalgError::ShapeMismatch {
            left: u.shape(),
            right: (b.len(), 1),
            op: "solve_upper",
        });
    }
    let n = b.len();
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = b[i];
        for j in (i + 1)..n {
            s -= u[(i, j)] * x[j];
        }
        let d = u[(i, i)];
        if d == 0.0 {
            return Err(LinalgError::Singular);
        }
        x[i] = s / d;
    }
    Ok(x)
}

/// Solves the symmetric positive-definite system `A * x = b` via Cholesky.
///
/// # Errors
///
/// Returns [`LinalgError::Singular`] if `A` is not positive definite and
/// [`LinalgError::ShapeMismatch`] on incompatible shapes.
pub fn cholesky_solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let l = cholesky(a)?;
    let y = solve_lower(&l, b)?;
    solve_upper(&l.transpose(), &y)
}

/// Ordinary least squares: finds `beta` minimizing `‖X·beta − y‖²`.
///
/// Solves the normal equations `XᵀX·beta = Xᵀy` by Cholesky factorization.
/// If `XᵀX` is singular to working precision (collinear or constant-zero
/// columns), the solve is retried with an escalating relative ridge penalty,
/// so a solution is always produced for well-formed inputs; the returned
/// coefficients of redundant columns are then shrunk toward zero.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] if `y.len() != x.rows()` and
/// [`LinalgError::Empty`] if `x` has no rows or no columns.
pub fn lstsq(x: &Matrix, y: &[f64]) -> Result<Vec<f64>, LinalgError> {
    if x.rows() == 0 || x.cols() == 0 {
        return Err(LinalgError::Empty);
    }
    if y.len() != x.rows() {
        return Err(LinalgError::ShapeMismatch {
            left: x.shape(),
            right: (y.len(), 1),
            op: "lstsq",
        });
    }
    solve_normal_equations(&x.gram(), &x.t_matvec(y)?)
}

/// Solves the normal equations `G·beta = rhs` of a least-squares problem,
/// where `G = XᵀX` and `rhs = Xᵀy`: the second step of [`lstsq`].
///
/// Tries Cholesky first. If `G` is singular to working precision, retries
/// with a relative ridge penalty that escalates through `1e-12 … 1e-3`
/// times the largest diagonal entry of `G` (at least 1).
///
/// # Errors
///
/// Returns [`LinalgError::Empty`] if `g` is `0 × 0`,
/// [`LinalgError::ShapeMismatch`] if `g` is not square or `rhs` does not
/// match it, and [`LinalgError::Singular`] if every ridge step fails.
pub fn solve_normal_equations(g: &Matrix, rhs: &[f64]) -> Result<Vec<f64>, LinalgError> {
    if g.rows() == 0 {
        return Err(LinalgError::Empty);
    }
    if g.rows() != g.cols() || rhs.len() != g.rows() {
        return Err(LinalgError::ShapeMismatch {
            left: g.shape(),
            right: (rhs.len(), 1),
            op: "solve_normal_equations",
        });
    }
    if let Ok(beta) = cholesky_solve(g, rhs) {
        return Ok(beta);
    }
    let scale = (0..g.rows())
        .fold(0.0_f64, |m, i| m.max(g[(i, i)]))
        .max(1.0);
    for rel in RIDGE_LADDER {
        let mut gr = g.clone();
        for i in 0..gr.rows() {
            gr[(i, i)] += rel * scale;
        }
        if let Ok(beta) = cholesky_solve(&gr, rhs) {
            return Ok(beta);
        }
    }
    Err(LinalgError::Singular)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn cholesky_of_known_spd() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
        let l = cholesky(&a).unwrap();
        // L * Lᵀ == A
        let back = l.matmul(&l.transpose()).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!((back[(i, j)] - a[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert_eq!(cholesky(&a).unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn cholesky_rejects_nonsquare() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            cholesky(&a),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn triangular_solves() {
        let l = Matrix::from_rows(&[&[2.0, 0.0], &[1.0, 3.0]]).unwrap();
        let x = solve_lower(&l, &[4.0, 11.0]).unwrap();
        approx(&x, &[2.0, 3.0], 1e-12);
        let u = l.transpose();
        let x = solve_upper(&u, &[7.0, 9.0]).unwrap();
        approx(&x, &[2.0, 3.0], 1e-12);
    }

    #[test]
    fn triangular_solve_shape_errors() {
        let l = Matrix::zeros(2, 2);
        assert!(solve_lower(&l, &[1.0]).is_err());
        assert!(solve_upper(&l, &[1.0]).is_err());
    }

    #[test]
    fn triangular_solve_singular() {
        let l = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]).unwrap();
        assert_eq!(
            solve_lower(&l, &[1.0, 1.0]).unwrap_err(),
            LinalgError::Singular
        );
    }

    #[test]
    fn lstsq_exact_fit() {
        // y = 1 + 2*x1 - 3*x2, exactly determined.
        let x = Matrix::from_rows(&[
            &[1.0, 0.0, 0.0],
            &[1.0, 1.0, 0.0],
            &[1.0, 0.0, 1.0],
            &[1.0, 2.0, 1.0],
        ])
        .unwrap();
        let y: Vec<f64> = (0..4)
            .map(|r| {
                let row = x.row(r);
                1.0 * row[0] + 2.0 * row[1] - 3.0 * row[2]
            })
            .collect();
        let beta = lstsq(&x, &y).unwrap();
        approx(&beta, &[1.0, 2.0, -3.0], 1e-9);
    }

    #[test]
    fn lstsq_overdetermined_minimizes_residual() {
        // Noisy line fit: residuals must be orthogonal to the columns.
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]).unwrap();
        let y = [0.1, 1.9, 4.2, 5.8];
        let beta = lstsq(&x, &y).unwrap();
        let yhat = x.matvec(&beta).unwrap();
        let resid: Vec<f64> = y.iter().zip(&yhat).map(|(a, b)| a - b).collect();
        let ortho = x.t_matvec(&resid).unwrap();
        for v in ortho {
            assert!(v.abs() < 1e-9);
        }
    }

    #[test]
    fn lstsq_handles_zero_column() {
        // Second column never fires: Gram is singular, ridge fallback kicks in.
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[2.0, 0.0], &[3.0, 0.0]]).unwrap();
        let y = [2.0, 4.0, 6.0];
        let beta = lstsq(&x, &y).unwrap();
        assert!((beta[0] - 2.0).abs() < 1e-4);
        assert!(beta[1].abs() < 1e-6);
    }

    #[test]
    fn lstsq_handles_duplicate_columns() {
        let x = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]).unwrap();
        let y = [2.0, 4.0, 6.0];
        let beta = lstsq(&x, &y).unwrap();
        // Ridge splits the weight; the sum must still predict y.
        let yhat = x.matvec(&beta).unwrap();
        for (p, a) in yhat.iter().zip(&y) {
            assert!((p - a).abs() < 1e-3);
        }
    }

    #[test]
    fn lstsq_is_its_two_steps() {
        // Duplicate columns: the plain solve fails and the ridge ladder runs.
        let x = Matrix::from_rows(&[
            &[1.0, 2.0, 2.0],
            &[1.0, 3.0, 3.0],
            &[1.0, 5.0, 5.0],
            &[1.0, 7.0, 7.0],
        ])
        .unwrap();
        let y = [1.0, 4.0, 0.5, 9.0];
        let two_step = solve_normal_equations(&x.gram(), &x.t_matvec(&y).unwrap()).unwrap();
        let bits = |v: &[f64]| v.iter().map(|b| b.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&lstsq(&x, &y).unwrap()), bits(&two_step));
    }

    #[test]
    fn normal_equations_reject_bad_shapes() {
        let empty = Matrix::zeros(0, 0);
        assert_eq!(
            solve_normal_equations(&empty, &[]).unwrap_err(),
            LinalgError::Empty
        );
        let g = Matrix::identity(2);
        assert!(matches!(
            solve_normal_equations(&g, &[1.0]),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            solve_normal_equations(&Matrix::zeros(2, 3), &[1.0, 1.0]),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn lstsq_rejects_bad_shapes() {
        let x = Matrix::zeros(2, 2);
        assert!(lstsq(&x, &[1.0]).is_err());
        let empty = Matrix::zeros(0, 0);
        assert_eq!(lstsq(&empty, &[]).unwrap_err(), LinalgError::Empty);
    }
}
