//! Differential tests: the compiled batch engine against the interpreted
//! per-row walk.
//!
//! Property-generated datasets train a tree; every prediction of
//! `CompiledTree::predict_batch` must be **bit-identical** (`to_bits()`) to
//! `ModelTree::predict` for every row — across smoothing on/off, pruning
//! on/off, and every `Parallelism` setting. Any divergence, even in the last
//! ulp, is a bug in the compiled flattening.

use mtperf_linalg::Parallelism;
use mtperf_mtree::{Dataset, M5Params, ModelTree, RuleSet};
use proptest::prelude::*;

/// Strategy: a dataset over three attributes whose target is a noisy
/// two-regime piecewise-linear function — enough structure for real splits,
/// enough noise for non-trivial leaf models.
fn dataset(n: usize) -> impl Strategy<Value = Dataset> {
    (
        prop::collection::vec((-10.0..10.0f64, -5.0..5.0f64, 0.0..1.0f64), n),
        prop::collection::vec(-0.2..0.2f64, n),
    )
        .prop_map(|(xs, noise)| {
            let rows: Vec<[f64; 3]> = xs.iter().map(|&(a, b, c)| [a, b, c]).collect();
            let ys: Vec<f64> = xs
                .iter()
                .zip(&noise)
                .map(|(&(a, b, c), &e)| {
                    let base = if a <= 0.0 {
                        1.0 + 0.5 * b - 2.0 * c
                    } else {
                        6.0 - 0.3 * b + c
                    };
                    base + e
                })
                .collect();
            Dataset::from_rows(vec!["a".into(), "b".into(), "c".into()], &rows, &ys).unwrap()
        })
}

/// All parallelism settings the batch path must agree under.
const PAR_SETTINGS: [Parallelism; 4] = [
    Parallelism::Auto,
    Parallelism::Off,
    Parallelism::Fixed(2),
    Parallelism::Fixed(7),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Compiled batch predictions are bit-identical to the interpreted
    /// per-row walk for every row, smoothing on and off, at every
    /// parallelism setting.
    #[test]
    fn batch_is_bit_identical_to_interpreted(
        d in dataset(90),
        smoothing in prop_oneof![Just(false), Just(true)],
        min_inst in 5usize..12,
    ) {
        let params = M5Params::default()
            .with_min_instances(min_inst)
            .with_smoothing(smoothing);
        let tree = ModelTree::fit(&d, &params).unwrap();
        let compiled = tree.compile();
        let m = d.to_matrix();
        let expected: Vec<u64> = (0..d.n_rows())
            .map(|i| tree.predict(&d.row(i)).to_bits())
            .collect();
        for par in PAR_SETTINGS {
            let batch = compiled.try_predict_batch_with(&m, par).unwrap();
            prop_assert_eq!(batch.len(), d.n_rows());
            for (i, p) in batch.iter().enumerate() {
                prop_assert_eq!(
                    p.to_bits(), expected[i],
                    "row {} diverged under {:?} (smoothing {})",
                    i, par, smoothing
                );
            }
        }
    }

    /// The compiled single-row path matches the interpreted one too (the
    /// batch loop and the scalar entry point share the routing kernel).
    #[test]
    fn scalar_path_is_bit_identical(d in dataset(70), smoothing in prop_oneof![Just(false), Just(true)]) {
        let params = M5Params::default()
            .with_min_instances(6)
            .with_smoothing(smoothing);
        let tree = ModelTree::fit(&d, &params).unwrap();
        let compiled = tree.compile();
        for i in 0..d.n_rows() {
            let row = d.row(i);
            prop_assert_eq!(
                compiled.predict(&row).to_bits(),
                tree.predict(&row).to_bits()
            );
        }
    }

    /// Unpruned trees stress deeper structures; the contract must hold
    /// there as well.
    #[test]
    fn unpruned_trees_stay_bit_identical(d in dataset(80), smoothing in prop_oneof![Just(false), Just(true)]) {
        let params = M5Params::default()
            .with_min_instances(4)
            .with_prune(false)
            .with_smoothing(smoothing);
        let tree = ModelTree::fit(&d, &params).unwrap();
        let compiled = tree.compile();
        let m = d.to_matrix();
        let batch = compiled.predict_batch_with(&m, Parallelism::Fixed(3));
        for (i, b) in batch.iter().enumerate() {
            prop_assert_eq!(b.to_bits(), tree.predict(&d.row(i)).to_bits());
        }
    }

    /// Extracted rules agree bit-for-bit with the unsmoothed tree, whose
    /// space they partition.
    #[test]
    fn rules_are_bit_identical_to_the_raw_tree(d in dataset(80)) {
        let params = M5Params::default().with_min_instances(6).with_smoothing(false);
        let tree = ModelTree::fit(&d, &params).unwrap();
        let rules = RuleSet::from_tree(&tree);
        for i in 0..d.n_rows() {
            let row = d.row(i);
            prop_assert_eq!(rules.predict(&row).to_bits(), tree.predict_raw(&row).to_bits());
        }
    }

    /// Batch prediction on out-of-distribution rows (beyond the training
    /// hull) still matches the interpreted walk — routing and smoothing
    /// must not assume in-range inputs.
    #[test]
    fn extrapolation_rows_stay_bit_identical(
        d in dataset(60),
        probes in prop::collection::vec((-100.0..100.0f64, -100.0..100.0f64, -100.0..100.0f64), 32),
    ) {
        let params = M5Params::default().with_min_instances(6).with_smoothing(true);
        let tree = ModelTree::fit(&d, &params).unwrap();
        let compiled = tree.compile();
        let rows: Vec<f64> = probes.iter().flat_map(|&(a, b, c)| [a, b, c]).collect();
        let m = mtperf_linalg::Matrix::from_vec(probes.len(), 3, rows).unwrap();
        let batch = compiled.predict_batch_with(&m, Parallelism::Fixed(2));
        for (i, &(a, b, c)) in probes.iter().enumerate() {
            prop_assert_eq!(batch[i].to_bits(), tree.predict(&[a, b, c]).to_bits());
        }
    }
}
