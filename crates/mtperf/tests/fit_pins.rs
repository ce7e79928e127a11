//! Pins for the M5' learner: the fitted tree and its cross-validation
//! metrics on simulated suites, under a serial and a parallel thread budget.
//!
//! Each pin is two FNV-1a 64 digests: one of the tree's `serde_json` text,
//! one of the bits of the pooled and aggregate CV correlation and MAE
//! (10 folds, seed 7). Both budgets must give the same pair. Re-mine a pin
//! only when a change means to alter what the learner fits: print the
//! digests from the failing assertion and say why in the same commit.

use mtperf::eval::cross_validate_with;
use mtperf::linalg::Parallelism;
use mtperf::prelude::*;
use mtperf::sim::workload::profiles;
use mtperf_obs::fsio::fnv1a_64;

/// The profile suite at 40,000 instructions per workload, 10,000-instruction
/// sections, on the default machine.
fn suite(seed: u64) -> Dataset {
    let sim = Simulator::new(MachineConfig::core2_duo()).with_seed(seed);
    let mut set = SampleSet::new();
    for w in profiles::suite(40_000) {
        set.extend(sim.run(&w, 10_000));
    }
    mtperf::dataset_from_samples(&set).expect("simulated suites are well formed")
}

/// `(tree digest, CV digest, tree depth)` of one fit.
fn fit_digests(data: &Dataset, min_instances: usize, par: Parallelism) -> (u64, u64, usize) {
    let params = M5Params::default()
        .with_min_instances(min_instances)
        .with_parallelism(par);
    let tree = ModelTree::fit(data, &params).expect("fit");
    let json = serde_json::to_string(&tree).expect("serialize");
    let cv = cross_validate_with(&M5Learner::new(params), data, 10, 7, par).expect("cv");
    let bits: Vec<u8> = [
        cv.pooled.correlation,
        cv.pooled.mae,
        cv.aggregate.correlation,
        cv.aggregate.mae,
    ]
    .iter()
    .flat_map(|v| v.to_bits().to_le_bytes())
    .collect();
    (fnv1a_64(json.as_bytes()), fnv1a_64(&bits), tree.depth())
}

/// Checks one seed's pins, `(min_instances, tree digest, CV digest)`, under
/// both thread budgets.
fn assert_pinned(seed: u64, pins: &[(usize, u64, u64)]) {
    let data = suite(seed);
    let mut deepest = 0;
    for &(min_instances, tree, cv) in pins {
        for par in [Parallelism::Off, Parallelism::Fixed(3)] {
            let (got_tree, got_cv, depth) = fit_digests(&data, min_instances, par);
            assert_eq!(
                (got_tree, got_cv),
                (tree, cv),
                "seed {seed}, min_instances {min_instances}, {par:?}: fit moved: \
                 got tree {got_tree:#x}, cv {got_cv:#x}"
            );
            deepest = deepest.max(depth);
        }
    }
    // The pins cover trees with several levels, not just a root model.
    assert!(
        deepest >= 3,
        "seed {seed}: deepest tree has depth {deepest}"
    );
}

#[test]
fn seed_2007_fits_are_pinned() {
    assert_pinned(
        2007,
        &[
            (4, 0xcba2_91d9_45bb_4693, 0x94f5_1192_063b_2281),
            (8, 0x2acc_e78e_16fa_c3ab, 0xf1be_a6e7_543e_b353),
            (16, 0xdc51_f33a_bf58_8994, 0xc99c_3f14_8921_2e5f),
        ],
    );
}

#[test]
fn seed_4242_fits_are_pinned() {
    assert_pinned(
        4242,
        &[
            (4, 0xfdb8_28e3_07e7_eeb0, 0xbe44_55a0_4cf6_c464),
            (8, 0x0059_33c0_b446_6ea9, 0x61c6_1572_c7e2_054a),
            (16, 0xcf5c_155f_7942_9baf, 0x97e6_3244_ecd4_85ae),
        ],
    );
}

#[test]
fn seed_7_fits_are_pinned() {
    assert_pinned(
        7,
        &[
            (4, 0x641b_4562_f9b0_11aa, 0x33fa_2a9b_be1a_e646),
            (8, 0x87c5_7a28_66b2_4c8f, 0x80f6_4e1f_e7f2_0adb),
            (16, 0x2a8b_3b5d_def9_2567, 0x82ed_b0e5_3fed_a9c3),
        ],
    );
}

#[test]
fn seed_1_fits_are_pinned() {
    assert_pinned(
        1,
        &[
            (4, 0x94b9_60bb_c696_1489, 0x7e19_8dca_82a4_1ed0),
            (8, 0xd4ec_1829_0651_f2ee, 0x30f6_de58_dd96_40fd),
            (16, 0x2bc9_5331_774d_f29e, 0x6a2f_ad93_aacb_d044),
        ],
    );
}
