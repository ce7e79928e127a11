//! The six-model comparison suite and its concurrent trainer.
//!
//! The paper's method comparison pits M5' against the companion SMART'07
//! study's black boxes (ANN, SVM) plus the simpler yardsticks (global OLS,
//! CART, k-NN). [`standard_suite`] builds exactly that line-up;
//! [`train_suite`] fits every member concurrently via the workspace's
//! deterministic [`try_par_map`] — each learner trains on its own thread,
//! panic-isolated, and results come back in suite order regardless of
//! thread count.

use mtperf_linalg::parallel::{try_par_map, Parallelism};
use mtperf_mtree::{Dataset, Learner, M5Learner, M5Params, MtreeError, Predictor};

use crate::{CartLearner, GlobalLinear, KnnLearner, MlpLearner, SvrLearner};

/// The paper's six-model comparison line-up, in report order:
/// M5', global OLS, CART, k-NN (k = 5), MLP (16 hidden, 80 epochs), SVR.
///
/// `params` configures the model tree; CART reuses its `min_instances` so
/// the constant-leaf ablation splits under the same stopping rule.
pub fn standard_suite(params: &M5Params) -> Vec<Box<dyn Learner>> {
    vec![
        Box::new(M5Learner::new(params.clone())),
        Box::new(GlobalLinear::new()),
        Box::new(CartLearner::new(params.min_instances())),
        Box::new(KnnLearner::new(5)),
        Box::new(MlpLearner::new(16).with_epochs(80)),
        Box::new(SvrLearner::default()),
    ]
}

/// Trains every learner in the suite on `data`, concurrently.
///
/// Returns `(name, model)` pairs in suite order; any thread budget yields
/// the same models because each fit is independent and deterministic.
///
/// # Errors
///
/// Propagates the first learner failure (in suite order); a learner that
/// panics mid-fit surfaces as [`MtreeError::Linalg`] (worker panic) instead
/// of unwinding through the caller.
#[allow(clippy::type_complexity)]
pub fn train_suite(
    learners: &[Box<dyn Learner>],
    data: &Dataset,
    par: Parallelism,
) -> Result<Vec<(String, Box<dyn Predictor>)>, MtreeError> {
    let mut suite_span = mtperf_obs::span("baseline_suite");
    suite_span.add("learners", learners.len() as u64);
    try_par_map(par, learners, |learner| {
        let mut fit_span = mtperf_obs::span("baseline_fit");
        fit_span.annotate("learner", learner.name());
        learner
            .fit(data)
            .map(|model| (learner.name().to_string(), model))
    })
    .map_err(MtreeError::from)?
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Dataset {
        let rows: Vec<[f64; 2]> = (0..80)
            .map(|i| [(i % 10) as f64, (i / 10) as f64])
            .collect();
        let ys: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] + 0.5 * r[1]).collect();
        Dataset::from_rows(vec!["a".into(), "b".into()], &rows, &ys).unwrap()
    }

    #[test]
    fn suite_has_the_six_paper_models() {
        let suite = standard_suite(&M5Params::default());
        let names: Vec<&str> = suite.iter().map(|l| l.name()).collect();
        assert_eq!(names.len(), 6);
        assert!(names[0].contains("M5"));
        // All names are distinct.
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 6);
    }

    #[test]
    fn concurrent_training_matches_serial_predictions() {
        let d = data();
        let params = M5Params::default().with_min_instances(8);
        let serial = train_suite(&standard_suite(&params), &d, Parallelism::Off).unwrap();
        let parallel = train_suite(&standard_suite(&params), &d, Parallelism::Fixed(6)).unwrap();
        assert_eq!(serial.len(), 6);
        for ((name_s, model_s), (name_p, model_p)) in serial.iter().zip(parallel.iter()) {
            assert_eq!(name_s, name_p);
            for probe in [[0.0, 0.0], [4.5, 3.5], [9.0, 7.0]] {
                let (a, b) = (model_s.predict(&probe), model_p.predict(&probe));
                assert_eq!(a.to_bits(), b.to_bits(), "{name_s} diverged at {probe:?}");
            }
        }
    }

    #[test]
    fn training_failure_propagates() {
        let empty = Dataset::new(vec!["x".into()]).unwrap();
        let suite = standard_suite(&M5Params::default());
        assert!(train_suite(&suite, &empty, Parallelism::Fixed(4)).is_err());
    }
}
