//! Baseline regression algorithms for `mtperf`'s method comparison.
//!
//! The paper validates the model tree against the alternatives its
//! companion study (SMART'07, its reference \[23\]) evaluated on the same data:
//! artificial neural networks (C ≈ 0.99) and support vector machines
//! (C ≈ 0.98), plus the simpler yardsticks a fair comparison needs — a
//! single global linear model and a constant-leaf regression tree (CART)
//! whose weaknesses motivate model trees in the first place.
//!
//! Every algorithm implements [`mtperf_mtree::Learner`], so the evaluation
//! harness cross-validates them identically:
//!
//! ```
//! use mtperf_baselines::GlobalLinear;
//! use mtperf_mtree::{Dataset, Learner};
//!
//! let d = Dataset::from_rows(
//!     vec!["x".into()],
//!     &[[0.0], [1.0], [2.0]],
//!     &[1.0, 3.0, 5.0],
//! ).unwrap();
//! let model = GlobalLinear::default().fit(&d).unwrap();
//! assert!((model.predict(&[3.0]) - 7.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cart;
mod knn;
mod linreg;
mod mlp;
mod scale;
mod suite;
mod svr;

pub use cart::{CartLearner, CartTree};
pub use knn::{KnnLearner, KnnModel};
pub use linreg::GlobalLinear;
pub use mlp::{MlpLearner, MlpModel};
pub use scale::Standardizer;
pub use suite::{standard_suite, train_suite};
pub use svr::{SvrLearner, SvrModel};
