//! Dense linear algebra and statistics substrate for `mtperf`.
//!
//! The model-tree learner ([`mtperf-mtree`]) and the baseline regressors
//! ([`mtperf-baselines`]) need a small, dependable numerical core: a dense
//! matrix type, least-squares solvers that stay stable on the rank-deficient
//! design matrices produced by near-constant hardware-event columns, and the
//! summary statistics (mean, variance, correlation) used by the split
//! criterion and the evaluation metrics.
//!
//! Everything here is deliberately self-contained: no BLAS, no external
//! numerics crates, `f64` throughout.
//!
//! # Example
//!
//! ```
//! use mtperf_linalg::{Matrix, lstsq};
//!
//! // Fit y = 1 + 2x over three points.
//! let x = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]]).unwrap();
//! let y = [1.0, 3.0, 5.0];
//! let beta = lstsq(&x, &y).unwrap();
//! assert!((beta[0] - 1.0).abs() < 1e-9);
//! assert!((beta[1] - 2.0).abs() < 1e-9);
//! ```
//!
//! [`mtperf-mtree`]: https://docs.rs/mtperf-mtree
//! [`mtperf-baselines`]: https://docs.rs/mtperf-baselines

// `deny`, not `forbid`: the persistent worker pool (`pool.rs`) contains
// the workspace's one carefully-scoped unsafe cell (type-erased chunk
// handoff to persistent threads, rayon-style). Every other module — and
// every other library crate — remains free of `unsafe` with no allows.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod matrix;
pub mod parallel;
mod pool;
mod qr;
mod solve;
pub mod stats;

pub use error::LinalgError;
pub use matrix::Matrix;
pub use parallel::{try_par_fill, try_par_map, CancelToken, Parallelism};
pub use qr::lstsq_qr;
pub use solve::{
    cholesky, cholesky_solve, lstsq, solve_lower, solve_normal_equations, solve_upper,
};
