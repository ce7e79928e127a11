//! Evaluation harness for `mtperf`.
//!
//! Provides the three accuracy metrics the paper reports — the correlation
//! coefficient *C*, the mean absolute error *MAE* and the relative absolute
//! error *RAE* — plus RMSE/RRSE, stratification-free seeded k-fold cross
//! validation (the paper's 10-fold protocol), and text report formatting
//! for learner comparisons.
//!
//! # Example
//!
//! ```
//! use mtperf_eval::{cross_validate, Metrics};
//! use mtperf_mtree::{Dataset, M5Learner, M5Params};
//!
//! let rows: Vec<[f64; 1]> = (0..100).map(|i| [i as f64]).collect();
//! let ys: Vec<f64> = rows.iter().map(|r| 2.0 * r[0]).collect();
//! let data = Dataset::from_rows(vec!["x".into()], &rows, &ys).unwrap();
//! let learner = M5Learner::new(M5Params::default());
//! let cv = cross_validate(&learner, &data, 10, 42).unwrap();
//! assert!(cv.aggregate.correlation > 0.99);
//! assert!(cv.aggregate.rae_percent < 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod breakdown;
mod curve;
mod cv;
mod metrics;
mod report;
mod significance;

pub use breakdown::{breakdown_table, per_label_metrics};
pub use curve::{learning_curve, CurvePoint};
pub use cv::{
    cross_validate, cross_validate_with, train_test_split, CvResult, FoldResult, SkippedFold,
};
pub use metrics::{Metrics, MetricsError};
pub use report::{comparison_table, scatter_csv};
pub use significance::{paired_t_test, PairedTTest};
