//! Seeded k-fold cross validation and train/test splitting.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use mtperf_linalg::parallel::{self, try_par_map, Parallelism};
use mtperf_mtree::{Dataset, Learner, MtreeError};

use crate::Metrics;

/// Result of evaluating one fold.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FoldResult {
    /// Fold number (0-based).
    pub fold: usize,
    /// Metrics on the held-out instances.
    pub metrics: Metrics,
    /// Held-out actual values.
    pub actual: Vec<f64>,
    /// Predictions for the held-out instances.
    pub predicted: Vec<f64>,
}

/// A fold that could not be scored (degenerate training data or an empty
/// evaluation set) and was recorded instead of aborting the run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SkippedFold {
    /// Fold number (0-based).
    pub fold: usize,
    /// Why the fold was skipped.
    pub reason: String,
}

/// Result of a full k-fold cross validation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CvResult {
    /// Per-fold results (scored folds only; see [`CvResult::skipped`]).
    pub folds: Vec<FoldResult>,
    /// Folds that produced no metrics, with the reason for each. Empty on
    /// healthy data; the run aborts only when *every* fold is skipped.
    pub skipped: Vec<SkippedFold>,
    /// Number of scored folds whose correlation was undefined (constant
    /// actuals or predictions) and therefore excluded from the aggregate
    /// correlation mean.
    pub undefined_correlation_folds: usize,
    /// Instance-weighted aggregate metrics (the numbers the paper reports).
    pub aggregate: Metrics,
    /// Metrics computed over the pooled out-of-fold predictions — exactly
    /// the population plotted in the paper's Figure 3.
    pub pooled: Metrics,
}

impl CvResult {
    /// All out-of-fold `(actual, predicted)` pairs, pooled — the series of
    /// the paper's predicted-vs-actual scatter (Figure 3).
    pub fn scatter(&self) -> Vec<(f64, f64)> {
        self.folds
            .iter()
            .flat_map(|f| f.actual.iter().copied().zip(f.predicted.iter().copied()))
            .collect()
    }
}

/// Per-fold worker verdict: scored, or recorded as skipped.
enum FoldOutcome {
    Scored(FoldResult),
    Skipped(SkippedFold),
}

/// Seeded Fisher–Yates shuffle of `0..n`.
fn shuffled_indices(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

/// k-fold cross validation: shuffle once (seeded), cut into `k` near-equal
/// folds, train on `k−1`, evaluate on the held-out fold, and aggregate —
/// the paper's 10-fold protocol (its reference \[24\]).
///
/// # Errors
///
/// Returns [`MtreeError::BadParams`] when `k < 2` or `k > n`, and
/// propagates learner failures.
pub fn cross_validate(
    learner: &dyn Learner,
    data: &Dataset,
    k: usize,
    seed: u64,
) -> Result<CvResult, MtreeError> {
    cross_validate_with(learner, data, k, seed, parallel::global())
}

/// [`cross_validate`] with an explicit thread budget.
///
/// Folds train concurrently (each on its own training subset) and results
/// merge in fold order, so the returned [`CvResult`] is bit-identical to the
/// serial run at any [`Parallelism`] setting. Fold workers are
/// panic-isolated: a learner that panics on some fold surfaces as
/// [`MtreeError::Linalg`] (worker panic) instead of unwinding through the
/// caller or aborting sibling folds.
///
/// # Errors
///
/// Same as [`cross_validate`], plus a structured error when a fold worker
/// panics.
pub fn cross_validate_with(
    learner: &dyn Learner,
    data: &Dataset,
    k: usize,
    seed: u64,
    par: Parallelism,
) -> Result<CvResult, MtreeError> {
    let n = data.n_rows();
    if k < 2 || k > n {
        return Err(MtreeError::BadParams(format!(
            "k must be in 2..=n (k={k}, n={n})"
        )));
    }
    let mut cv_span = mtperf_obs::span("cv");
    cv_span.annotate_num("k", k as f64);
    cv_span.annotate_num("rows", n as f64);
    let order = shuffled_indices(n, seed);
    let fold_ids: Vec<usize> = (0..k).collect();
    let outcomes = try_par_map(par, &fold_ids, |&fold| -> Result<FoldOutcome, MtreeError> {
        let mut fold_span = mtperf_obs::span_idx("fold", fold);
        // Fold f takes every k-th element: near-equal sizes, one pass.
        let test_idx: Vec<usize> = order.iter().copied().skip(fold).step_by(k).collect();
        let train_idx: Vec<usize> = order
            .iter()
            .copied()
            .enumerate()
            .filter(|(pos, _)| pos % k != fold)
            .map(|(_, i)| i)
            .collect();
        fold_span.add("train_rows", train_idx.len() as u64);
        fold_span.add("test_rows", test_idx.len() as u64);
        let train = data.subset(&train_idx);
        // A fold whose training subset is degenerate is recorded and
        // skipped; any other learner failure still aborts the run.
        let model = match learner.fit(&train) {
            Ok(m) => m,
            Err(MtreeError::DegenerateData(msg)) => {
                fold_span.annotate("skipped", &msg);
                return Ok(FoldOutcome::Skipped(SkippedFold {
                    fold,
                    reason: format!("degenerate training data: {msg}"),
                }));
            }
            Err(e) => return Err(e),
        };
        let actual: Vec<f64> = test_idx.iter().map(|&i| data.target(i)).collect();
        // Batch scoring through the compiled path (bit-identical to the
        // per-row walk); nested parallel calls self-serialize, so fold
        // results stay deterministic.
        let predicted = model.predict_batch(&data.matrix_of(&test_idx));
        // An unscorable evaluation set (e.g. empty after quarantine) is
        // likewise a skip, not an abort.
        match Metrics::compute(&actual, &predicted) {
            Ok(metrics) => Ok(FoldOutcome::Scored(FoldResult {
                fold,
                metrics,
                actual,
                predicted,
            })),
            Err(e) => {
                let reason = e.to_string();
                fold_span.annotate("skipped", &reason);
                Ok(FoldOutcome::Skipped(SkippedFold { fold, reason }))
            }
        }
    })
    .map_err(MtreeError::from)?;
    let mut folds = Vec::with_capacity(k);
    let mut skipped = Vec::new();
    for outcome in outcomes {
        match outcome? {
            FoldOutcome::Scored(f) => folds.push(f),
            FoldOutcome::Skipped(s) => skipped.push(s),
        }
    }
    if folds.is_empty() {
        return Err(MtreeError::DegenerateData(format!(
            "all {k} folds were skipped (first: fold {}: {})",
            skipped[0].fold, skipped[0].reason
        )));
    }
    let fold_metrics: Vec<Metrics> = folds.iter().map(|f| f.metrics).collect();
    let undefined_correlation_folds = fold_metrics
        .iter()
        .filter(|m| !m.correlation_defined)
        .count();
    let aggregate =
        Metrics::aggregate(&fold_metrics).expect("at least one scored fold is guaranteed above");
    let (all_a, all_p): (Vec<f64>, Vec<f64>) = folds
        .iter()
        .flat_map(|f| f.actual.iter().copied().zip(f.predicted.iter().copied()))
        .unzip();
    let pooled = Metrics::compute(&all_a, &all_p)?;
    cv_span.add("folds_scored", folds.len() as u64);
    cv_span.add("folds_skipped", skipped.len() as u64);
    drop(cv_span);
    Ok(CvResult {
        folds,
        skipped,
        undefined_correlation_folds,
        aggregate,
        pooled,
    })
}

/// Seeded random train/test split; `test_fraction` of instances go to the
/// test set (at least one instance in each side).
///
/// # Errors
///
/// Returns [`MtreeError::BadParams`] for fractions outside `(0, 1)` or
/// datasets with fewer than 2 rows.
pub fn train_test_split(
    data: &Dataset,
    test_fraction: f64,
    seed: u64,
) -> Result<(Dataset, Dataset), MtreeError> {
    let n = data.n_rows();
    if n < 2 {
        return Err(MtreeError::BadParams("need at least 2 rows".into()));
    }
    if !(0.0..1.0).contains(&test_fraction) || test_fraction == 0.0 {
        return Err(MtreeError::BadParams(
            "test_fraction must be in (0, 1)".into(),
        ));
    }
    let order = shuffled_indices(n, seed);
    let n_test = ((n as f64 * test_fraction).round() as usize).clamp(1, n - 1);
    let test = data.subset(&order[..n_test]);
    let train = data.subset(&order[n_test..]);
    Ok((train, test))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtperf_mtree::{M5Learner, M5Params};

    fn data(n: usize) -> Dataset {
        let rows: Vec<[f64; 1]> = (0..n).map(|i| [i as f64]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| 3.0 * r[0] + 1.0).collect();
        Dataset::from_rows(vec!["x".into()], &rows, &ys).unwrap()
    }

    #[test]
    fn folds_partition_data() {
        let d = data(53);
        let learner = M5Learner::new(M5Params::default());
        let cv = cross_validate(&learner, &d, 10, 7).unwrap();
        assert_eq!(cv.folds.len(), 10);
        let total: usize = cv.folds.iter().map(|f| f.actual.len()).sum();
        assert_eq!(total, 53);
        // Near-equal fold sizes.
        for f in &cv.folds {
            assert!((5..=6).contains(&f.actual.len()));
        }
        assert_eq!(cv.aggregate.n, 53);
        assert_eq!(cv.pooled.n, 53);
        assert_eq!(cv.scatter().len(), 53);
    }

    #[test]
    fn linear_data_cross_validates_perfectly() {
        let d = data(100);
        let learner = M5Learner::new(M5Params::default());
        let cv = cross_validate(&learner, &d, 10, 1).unwrap();
        assert!(cv.aggregate.correlation > 0.999);
        assert!(cv.aggregate.rae_percent < 1.0);
        assert!(cv.pooled.correlation > 0.999);
    }

    #[test]
    fn deterministic_under_seed() {
        let d = data(40);
        let learner = M5Learner::new(M5Params::default());
        let a = cross_validate(&learner, &d, 5, 9).unwrap();
        let b = cross_validate(&learner, &d, 5, 9).unwrap();
        assert_eq!(a.aggregate, b.aggregate);
        let c = cross_validate(&learner, &d, 5, 10).unwrap();
        // Different shuffles -> (almost surely) different fold contents.
        assert_ne!(
            a.folds[0].actual, c.folds[0].actual,
            "different seeds should shuffle differently"
        );
    }

    #[test]
    fn parallel_folds_match_serial_bit_for_bit() {
        let d = data(60);
        let learner = M5Learner::new(M5Params::default().with_min_instances(5));
        let serial = cross_validate_with(&learner, &d, 6, 11, Parallelism::Off).unwrap();
        for threads in [1, 2, 3, 6, 8] {
            let par =
                cross_validate_with(&learner, &d, 6, 11, Parallelism::Fixed(threads)).unwrap();
            assert_eq!(par.aggregate, serial.aggregate, "threads = {threads}");
            assert_eq!(par.pooled, serial.pooled, "threads = {threads}");
            for (a, b) in par.folds.iter().zip(serial.folds.iter()) {
                assert_eq!(a.fold, b.fold);
                assert_eq!(a.actual, b.actual);
                assert_eq!(a.predicted, b.predicted);
            }
        }
    }

    /// Predicts a constant; used to exercise degenerate-fold handling.
    struct ConstPredictor(f64);

    impl mtperf_mtree::Predictor for ConstPredictor {
        fn predict(&self, _row: &[f64]) -> f64 {
            self.0
        }
    }

    /// Fails with [`MtreeError::DegenerateData`] whenever the training
    /// subset contains the poison value in its first attribute.
    struct FragileLearner {
        poison: f64,
    }

    impl Learner for FragileLearner {
        fn fit(&self, data: &Dataset) -> Result<Box<dyn mtperf_mtree::Predictor>, MtreeError> {
            if data.column(0).contains(&self.poison) {
                return Err(MtreeError::DegenerateData("poisoned subset".into()));
            }
            Ok(Box::new(ConstPredictor(0.0)))
        }

        fn name(&self) -> &str {
            "fragile"
        }
    }

    use mtperf_mtree::Learner;

    #[test]
    fn degenerate_folds_are_recorded_not_fatal() {
        // Regression: a fold whose training data is degenerate used to abort
        // the whole cross validation. The poison value lands in exactly one
        // fold's test set; every other fold trains on it and fails, so k-1
        // folds are skipped and the run still reports the one scored fold.
        let d = data(20);
        let learner = FragileLearner { poison: 7.0 };
        let cv = cross_validate(&learner, &d, 5, 3).unwrap();
        assert_eq!(cv.folds.len(), 1);
        assert_eq!(cv.skipped.len(), 4);
        assert!(cv.skipped[0].reason.contains("poisoned subset"));
        assert_eq!(cv.aggregate.n, 4);
        // The surviving fold predicts a constant: its correlation is
        // undefined and must be flagged, not silently zero.
        assert_eq!(cv.undefined_correlation_folds, 1);
        assert!(!cv.aggregate.correlation_defined);
    }

    #[test]
    fn all_folds_skipped_is_an_error() {
        let d = data(20);
        struct AlwaysFails;
        impl Learner for AlwaysFails {
            fn fit(&self, _data: &Dataset) -> Result<Box<dyn mtperf_mtree::Predictor>, MtreeError> {
                Err(MtreeError::DegenerateData("nothing to fit".into()))
            }
            fn name(&self) -> &str {
                "always-fails"
            }
        }
        let err = cross_validate(&AlwaysFails, &d, 5, 3).unwrap_err();
        match err {
            MtreeError::DegenerateData(msg) => {
                assert!(msg.contains("all 5 folds"), "{msg}");
                assert!(msg.contains("nothing to fit"), "{msg}");
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn healthy_data_has_no_skips() {
        let d = data(53);
        let learner = M5Learner::new(M5Params::default());
        let cv = cross_validate(&learner, &d, 10, 7).unwrap();
        assert!(cv.skipped.is_empty());
        assert_eq!(cv.undefined_correlation_folds, 0);
        assert!(cv.aggregate.correlation_defined);
    }

    #[test]
    fn rejects_bad_k() {
        let d = data(10);
        let learner = M5Learner::new(M5Params::default());
        assert!(cross_validate(&learner, &d, 1, 0).is_err());
        assert!(cross_validate(&learner, &d, 11, 0).is_err());
        assert!(cross_validate(&learner, &d, 10, 0).is_ok());
    }

    #[test]
    fn split_sizes_and_disjointness() {
        let d = data(100);
        let (train, test) = train_test_split(&d, 0.25, 3).unwrap();
        assert_eq!(test.n_rows(), 25);
        assert_eq!(train.n_rows(), 75);
        // Disjoint: x values are unique, so check no overlap.
        let train_x: std::collections::HashSet<u64> =
            train.column(0).iter().map(|v| v.to_bits()).collect();
        assert!(test
            .column(0)
            .iter()
            .all(|v| !train_x.contains(&v.to_bits())));
    }

    #[test]
    fn split_rejects_bad_fraction() {
        let d = data(10);
        assert!(train_test_split(&d, 0.0, 0).is_err());
        assert!(train_test_split(&d, 1.0, 0).is_err());
        let one = Dataset::from_rows(vec!["x".into()], &[[1.0]], &[1.0]).unwrap();
        assert!(train_test_split(&one, 0.5, 0).is_err());
    }
}
