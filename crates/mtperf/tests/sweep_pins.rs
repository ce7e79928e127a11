//! Pins for `mtperf sweep`: the full report of `sweep::run` on simulated
//! suites, for every kind of model a sweep accepts, under a serial and a
//! parallel thread budget.
//!
//! Each pin is the FNV-1a 64 digest of the report's `serde_json` text. The
//! models are the `mtperf train` defaults on the counters (smoothed and
//! `--no-smoothing`), on the counters plus the analytic columns
//! (`--features analytic`), and on the residual target (`--residual`, swept
//! with residual reconstruction). The specs are the two checked-in
//! examples. Both budgets must give the same digest. Re-mine a pin only
//! when a change means to alter the report: print the digests from the
//! failing assertion and say why in the same commit.

use mtperf::analytic::{ancpi_index, dataset_with_analytic};
use mtperf::linalg::Parallelism;
use mtperf::mtree::residual_dataset;
use mtperf::prelude::*;
use mtperf::sim::workload::profiles;
use mtperf::sweep::{self, SweepSpec};
use mtperf_obs::fsio::fnv1a_64;

/// The profile suite at 40,000 instructions per workload, 10,000-instruction
/// sections, on the default machine.
fn suite(seed: u64) -> SampleSet {
    let sim = Simulator::new(MachineConfig::core2_duo()).with_seed(seed);
    let mut set = SampleSet::new();
    for w in profiles::suite(40_000) {
        set.extend(sim.run(&w, 10_000));
    }
    set
}

fn spec(name: &str) -> SweepSpec {
    let path = format!("{}/../../examples/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("example spec");
    serde_json::from_str(&text).expect("example spec parses")
}

/// The four swept models of one suite, `(name, tree, residual)`, trained
/// with the `mtperf train` defaults.
fn models(samples: &SampleSet) -> Vec<(&'static str, ModelTree, bool)> {
    let plain = mtperf::dataset_from_samples(samples).expect("simulated suites are well formed");
    let params = M5Params::default().with_min_instances((plain.n_rows() / 30).max(8));
    let analytic =
        dataset_with_analytic(samples, &MachineConfig::core2_duo()).expect("analytic columns");
    let residual = residual_dataset(&analytic, ancpi_index(&analytic).expect("AnCpi"))
        .expect("residual target");
    let fit = |data: &Dataset, params: &M5Params| ModelTree::fit(data, params).expect("fit");
    vec![
        ("plain", fit(&plain, &params), false),
        (
            "unsmoothed",
            fit(&plain, &params.clone().with_smoothing(false)),
            false,
        ),
        ("analytic", fit(&analytic, &params), false),
        ("residual", fit(&residual, &params), true),
    ]
}

/// Checks one seed's pins, `(model, spec, digest)`, under both thread
/// budgets.
fn assert_pinned(seed: u64, pins: &[(&str, &str, u64)]) {
    let samples = suite(seed);
    let models = models(&samples);
    let specs = [
        ("sweep_spec", spec("sweep_spec.json")),
        ("sweep_smoke", spec("sweep_smoke.json")),
    ];
    assert_eq!(pins.len(), models.len() * specs.len(), "one pin per pair");
    for &(model, spec_name, digest) in pins {
        let (_, tree, residual) = models
            .iter()
            .find(|(name, _, _)| *name == model)
            .expect("known model");
        let (_, spec) = specs
            .iter()
            .find(|(name, _)| *name == spec_name)
            .expect("known spec");
        for par in [Parallelism::Off, Parallelism::Fixed(3)] {
            let report = sweep::run(spec, tree, &samples, *residual, par).expect("sweep");
            let json = serde_json::to_string(&report).expect("serialize");
            let got = fnv1a_64(json.as_bytes());
            assert_eq!(
                got, digest,
                "seed {seed}, {model} model, {spec_name}, {par:?}: report moved: got {got:#x}"
            );
        }
    }
}

#[test]
fn seed_2007_sweeps_are_pinned() {
    assert_pinned(
        2007,
        &[
            ("plain", "sweep_spec", 0xb7d9_3113_a1df_3e9d),
            ("plain", "sweep_smoke", 0x3bac_c11d_71a8_5d95),
            ("unsmoothed", "sweep_spec", 0xe617_f2ba_453f_36a1),
            ("unsmoothed", "sweep_smoke", 0x7f58_ed51_2bd8_2899),
            ("analytic", "sweep_spec", 0x8f3f_228e_17dc_bb7a),
            ("analytic", "sweep_smoke", 0xcfcd_d925_d048_8b46),
            ("residual", "sweep_spec", 0x7f16_8437_723c_a9fd),
            ("residual", "sweep_smoke", 0x2e1c_7544_a9d6_c42b),
        ],
    );
}

#[test]
fn seed_4242_sweeps_are_pinned() {
    assert_pinned(
        4242,
        &[
            ("plain", "sweep_spec", 0x4ee6_b3cb_0251_b449),
            ("plain", "sweep_smoke", 0x7011_20f6_0304_bcc3),
            ("unsmoothed", "sweep_spec", 0x85d4_443e_fdf4_59db),
            ("unsmoothed", "sweep_smoke", 0x4ffb_ce74_f8c0_3d99),
            ("analytic", "sweep_spec", 0xb56b_cbe7_4bb5_a05a),
            ("analytic", "sweep_smoke", 0x28e7_858c_d79b_42e2),
            ("residual", "sweep_spec", 0x4891_780e_2c9a_2dc6),
            ("residual", "sweep_smoke", 0x841c_4e83_990f_df12),
        ],
    );
}

#[test]
fn seed_7_sweeps_are_pinned() {
    assert_pinned(
        7,
        &[
            ("plain", "sweep_spec", 0x7882_26f7_7e46_f0df),
            ("plain", "sweep_smoke", 0xebd8_c765_0886_92ef),
            ("unsmoothed", "sweep_spec", 0x7768_343a_6f61_f5a1),
            ("unsmoothed", "sweep_smoke", 0x2cc9_0655_873d_c977),
            ("analytic", "sweep_spec", 0x6340_b665_5a1d_62db),
            ("analytic", "sweep_smoke", 0x8cf4_8704_fe70_bf97),
            ("residual", "sweep_spec", 0xbd33_4fd5_9901_c822),
            ("residual", "sweep_smoke", 0x4bf5_6bf1_ff02_27c2),
        ],
    );
}

#[test]
fn seed_1_sweeps_are_pinned() {
    assert_pinned(
        1,
        &[
            ("plain", "sweep_spec", 0x4c48_7390_8813_1d1b),
            ("plain", "sweep_smoke", 0x0bda_d97a_7da3_6c39),
            ("unsmoothed", "sweep_spec", 0xa6ce_0161_4ffb_25d5),
            ("unsmoothed", "sweep_smoke", 0xad2e_94bc_5c6c_d5c1),
            ("analytic", "sweep_spec", 0x58c7_77f7_8a3e_b135),
            ("analytic", "sweep_smoke", 0x661d_4786_1b45_3616),
            ("residual", "sweep_spec", 0x7e31_ce0b_19d4_1455),
            ("residual", "sweep_smoke", 0x45e9_4570_7643_3709),
        ],
    );
}
