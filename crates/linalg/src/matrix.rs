use std::fmt;
use std::ops::{Index, IndexMut};

use serde::{Deserialize, Serialize};

use crate::LinalgError;

/// A dense, row-major matrix of `f64`.
///
/// `Matrix` is the workhorse container behind the least-squares fits in the
/// model-tree leaves. It is intentionally minimal: construction, indexing,
/// transpose-products and a handful of conveniences. Solvers live in
/// the crate root ([`lstsq`](crate::lstsq) and friends).
///
/// # Example
///
/// ```
/// use mtperf_linalg::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.transpose()[(0, 1)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::RaggedRows`] if the rows have unequal lengths
    /// and [`LinalgError::Empty`] if `rows` is empty or the rows are empty.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        let first = rows.first().ok_or(LinalgError::Empty)?;
        if first.is_empty() {
            return Err(LinalgError::Empty);
        }
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(LinalgError::RaggedRows {
                    expected: cols,
                    found: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                left: (rows, cols),
                right: (data.len(), 1),
                op: "from_vec",
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "col {c} out of bounds ({} cols)", self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the matrix and returns its row-major buffer, the inverse of
    /// [`Matrix::from_vec`]; lets a caller reuse the allocation.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns the transpose of `self`.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "matmul",
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == 0.0 {
                    continue;
                }
                for c in 0..rhs.cols {
                    out[(r, c)] += a * rhs[(k, c)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != v.len()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if self.cols != v.len() {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: (v.len(), 1),
                op: "matvec",
            });
        }
        Ok((0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum::<f64>())
            .collect())
    }

    /// Computes the Gram matrix `selfᵀ * self` without materializing the
    /// transpose; this is the `p x p` normal-equations matrix for a design
    /// matrix with `p` columns.
    pub fn gram(&self) -> Matrix {
        let p = self.cols;
        let mut g = Matrix::zeros(p, p);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..p {
                let xi = row[i];
                if xi == 0.0 {
                    continue;
                }
                for j in i..p {
                    g[(i, j)] += xi * row[j];
                }
            }
        }
        // Mirror the upper triangle.
        for i in 0..p {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// Computes `selfᵀ * y`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `y.len() != self.rows()`.
    pub fn t_matvec(&self, y: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if y.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: (y.len(), 1),
                op: "t_matvec",
            });
        }
        let mut out = vec![0.0; self.cols];
        for (r, &yr) in y.iter().enumerate() {
            if yr == 0.0 {
                continue;
            }
            for (o, x) in out.iter_mut().zip(self.row(r)) {
                *o += x * yr;
            }
        }
        Ok(out)
    }

    /// Maximum absolute element, or 0.0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>10.4}", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m22() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap()
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i[(2, 2)], 1.0);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]).unwrap_err();
        assert_eq!(
            err,
            LinalgError::RaggedRows {
                expected: 1,
                found: 2
            }
        );
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert_eq!(Matrix::from_rows(&[]).unwrap_err(), LinalgError::Empty);
        let empty_row: &[f64] = &[];
        assert_eq!(
            Matrix::from_rows(&[empty_row]).unwrap_err(),
            LinalgError::Empty
        );
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(Matrix::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn indexing_and_rows() {
        let m = m22();
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    fn row_mut_updates() {
        let mut m = m22();
        m.row_mut(0)[1] = 9.0;
        assert_eq!(m[(0, 1)], 9.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_identity() {
        let m = m22();
        let i = Matrix::identity(2);
        assert_eq!(m.matmul(&i).unwrap(), m);
        assert_eq!(i.matmul(&m).unwrap(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = m22();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let p = a.matmul(&b).unwrap();
        assert_eq!(
            p,
            Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = m22();
        let b = Matrix::zeros(3, 2);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn matvec_known() {
        let m = m22();
        assert_eq!(m.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(m.matvec(&[1.0]).is_err());
    }

    #[test]
    fn gram_matches_explicit_product() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let g = m.gram();
        let explicit = m.transpose().matmul(&m).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!((g[(i, j)] - explicit[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn t_matvec_matches_explicit() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let y = [1.0, 0.5, -1.0];
        let tv = m.t_matvec(&y).unwrap();
        let explicit = m.transpose().matvec(&y).unwrap();
        assert_eq!(tv, explicit);
        assert!(m.t_matvec(&[1.0]).is_err());
    }

    #[test]
    fn max_abs() {
        let m = Matrix::from_rows(&[&[1.0, -7.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.max_abs(), 7.0);
    }

    #[test]
    fn display_nonempty() {
        let s = format!("{}", m22());
        assert!(s.contains("1.0000"));
        assert!(s.contains("4.0000"));
    }

    #[test]
    fn serde_roundtrip() {
        let m = m22();
        let json = serde_json::to_string(&m).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }
}
