//! Persistence round-trip properties: a model saved to JSON and loaded back
//! must predict bit-identically to the in-memory one — interpreted and
//! compiled — for every smoothing configuration, and rule-extraction state
//! must survive its own envelope.

use mtperf_linalg::Parallelism;
use mtperf_mtree::{Dataset, M5Params, ModelTree, RuleSet};
use proptest::prelude::*;

/// Strategy: a two-attribute dataset with a split-friendly piecewise target.
fn dataset(n: usize) -> impl Strategy<Value = Dataset> {
    (
        prop::collection::vec((-8.0..8.0f64, -4.0..4.0f64), n),
        prop::collection::vec(-0.15..0.15f64, n),
    )
        .prop_map(|(xs, noise)| {
            let rows: Vec<[f64; 2]> = xs.iter().map(|&(a, b)| [a, b]).collect();
            let ys: Vec<f64> = xs
                .iter()
                .zip(&noise)
                .map(|(&(a, b), &e)| {
                    let base = if a <= 0.0 {
                        2.0 + 0.7 * b
                    } else {
                        7.0 - 0.4 * b
                    };
                    base + e
                })
                .collect();
            Dataset::from_rows(vec!["a".into(), "b".into()], &rows, &ys).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// save → load → compile predicts bit-identically to the in-memory
    /// tree: smoothing flag, smoothing constant, and every model
    /// coefficient must survive the JSON round trip exactly.
    #[test]
    fn tree_roundtrip_compiles_bit_identically(
        d in dataset(70),
        smoothing in prop_oneof![Just(false), Just(true)],
        k in 1.0..40.0f64,
    ) {
        let params = M5Params::default()
            .with_min_instances(6)
            .with_smoothing(smoothing)
            .with_smoothing_k(k);
        let tree = ModelTree::fit(&d, &params).unwrap();
        let loaded = ModelTree::from_json(&tree.to_json()).unwrap();
        prop_assert_eq!(&loaded, &tree);
        prop_assert_eq!(loaded.params().smoothing(), smoothing);
        prop_assert_eq!(loaded.params().smoothing_k().to_bits(), k.to_bits());
        let compiled = loaded.compile();
        let batch = compiled.predict_batch_with(&d.to_matrix(), Parallelism::Fixed(2));
        for (i, b) in batch.iter().enumerate() {
            let row = d.row(i);
            prop_assert_eq!(loaded.predict(&row).to_bits(), tree.predict(&row).to_bits());
            prop_assert_eq!(b.to_bits(), tree.predict(&row).to_bits());
        }
    }

    /// Rule-extraction state (order, conditions, models, coverage) survives
    /// its envelope: a loaded rule set equals the original and predicts
    /// bit-identically.
    #[test]
    fn rule_set_roundtrip_predicts_bit_identically(d in dataset(70)) {
        let params = M5Params::default().with_min_instances(6).with_smoothing(false);
        let tree = ModelTree::fit(&d, &params).unwrap();
        let rules = RuleSet::from_tree(&tree);
        let loaded = RuleSet::from_json(&rules.to_json()).unwrap();
        prop_assert_eq!(&loaded, &rules);
        for i in 0..d.n_rows() {
            let row = d.row(i);
            prop_assert_eq!(loaded.predict(&row).to_bits(), rules.predict(&row).to_bits());
        }
    }

    /// The two envelopes are mutually exclusive: tree JSON does not load as
    /// rules and rule JSON does not load as a tree.
    #[test]
    fn envelopes_do_not_cross_load(d in dataset(50)) {
        let tree = ModelTree::fit(&d, &M5Params::default().with_min_instances(6)).unwrap();
        let rules = RuleSet::from_tree(&tree);
        prop_assert!(RuleSet::from_json(&tree.to_json()).is_err());
        prop_assert!(ModelTree::from_json(&rules.to_json()).is_err());
    }
}
