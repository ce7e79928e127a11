//! Robustness integration: end-to-end behaviour under corrupted input.
//!
//! Three layers are exercised together:
//!
//! 1. **Ingestion** — repair-mode cross-validation accuracy on a corrupted
//!    dataset must stay within the tolerance DESIGN.md documents (0.05
//!    correlation) of the clean run.
//! 2. **Training** — a panicking worker inside the parallel engine surfaces
//!    as a structured error instead of aborting, and parallel results are
//!    bit-identical to serial ones on clean data.
//! 3. **CLI** — the `mtperf` binary maps failure classes to distinct exit
//!    codes (2 usage, 65 bad data, 74 i/o).

use std::process::Command;

use mtperf::prelude::*;
use mtperf_counters::faultinject::{FaultInjector, FaultOp};
use mtperf_counters::{read_csv_with_policy, write_csv, IngestPolicy, SampleSet};
use mtperf_eval::cross_validate_with;
use mtperf_linalg::{try_par_map, LinalgError, Parallelism};

const INSTRUCTIONS: u64 = 200_000;
const SECTION_LEN: u64 = 10_000;
const SEED: u64 = 2007;

/// Documented bound (DESIGN.md, "Data quality & fault tolerance") on how
/// far repair-mode CV correlation may drift from the clean-data run under
/// bounded corruption.
const REPAIR_CV_TOLERANCE: f64 = 0.05;

fn suite_csv() -> (SampleSet, String) {
    let samples = mtperf::sim::simulate_suite(INSTRUCTIONS, SECTION_LEN, SEED);
    let mut buf = Vec::new();
    write_csv(&samples, &mut buf).unwrap();
    (samples, String::from_utf8(buf).unwrap())
}

fn cv_correlation(samples: &SampleSet) -> f64 {
    let data = mtperf::dataset_from_samples(samples).unwrap();
    let min_instances = (data.n_rows() / 30).max(8);
    let learner = M5Learner::new(M5Params::default().with_min_instances(min_instances));
    let cv = cross_validate(&learner, &data, 10, 7).unwrap();
    cv.pooled.correlation
}

#[test]
fn repair_mode_cv_stays_within_tolerance_of_clean_run() {
    let (clean, csv) = suite_csv();

    // Bounded corruption: ~5% of the ~300 sections get a non-finite field,
    // a saturated counter, or a truncated tail.
    let mut inj = FaultInjector::new(11);
    let mut text = csv;
    for op in [
        FaultOp::FlipNonFinite(5),
        FaultOp::SaturateCounters(5),
        FaultOp::TruncateFields(5),
    ] {
        text = inj.apply(op, &text).text;
    }

    let (repaired, report) = read_csv_with_policy(text.as_bytes(), IngestPolicy::Repair).unwrap();
    assert!(!report.is_clean());
    assert!(
        report.rows_repaired() + report.rows_quarantined() >= 10,
        "{}",
        report.summary()
    );
    assert_eq!(report.rows_kept, repaired.len());

    let c_clean = cv_correlation(&clean);
    let c_repaired = cv_correlation(&repaired);
    assert!(
        (c_clean - c_repaired).abs() <= REPAIR_CV_TOLERANCE,
        "clean C = {c_clean}, repaired C = {c_repaired}"
    );
}

#[test]
fn panicking_worker_is_reported_not_aborted() {
    let items: Vec<usize> = (0..64).collect();
    let err = try_par_map(Parallelism::Fixed(4), &items, |&x| {
        if x == 17 {
            panic!("injected fault");
        }
        x * 2
    })
    .unwrap_err();
    match err {
        LinalgError::WorkerPanic { index, message } => {
            assert_eq!(index, 17);
            assert!(message.contains("injected fault"), "{message}");
        }
        other => panic!("expected WorkerPanic, got {other}"),
    }
}

#[test]
fn parallel_cv_is_bit_identical_to_serial() {
    let samples = mtperf::sim::simulate_suite(100_000, SECTION_LEN, SEED);
    let data = mtperf::dataset_from_samples(&samples).unwrap();
    let min_instances = (data.n_rows() / 30).max(8);
    let learner = M5Learner::new(M5Params::default().with_min_instances(min_instances));
    let serial = cross_validate_with(&learner, &data, 10, 7, Parallelism::Off).unwrap();
    let parallel = cross_validate_with(&learner, &data, 10, 7, Parallelism::Fixed(4)).unwrap();
    assert_eq!(serial.pooled, parallel.pooled);
    assert_eq!(serial.aggregate, parallel.aggregate);
}

// ---- CLI exit-code contract ------------------------------------------------

fn mtperf_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mtperf"))
}

#[test]
fn cli_maps_failure_classes_to_distinct_exit_codes() {
    let dir = std::env::temp_dir().join("mtperf-fault-tolerance-cli");
    std::fs::create_dir_all(&dir).unwrap();
    let model = dir.join("model.json").display().to_string();

    // No arguments / unknown command / missing option: usage, exit 2.
    let out = mtperf_bin().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = mtperf_bin().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = mtperf_bin().arg("train").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = mtperf_bin()
        .args([
            "train", "--data", "x.csv", "--out", &model, "--policy", "lenient",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    // Nonexistent input file: i/o, exit 74.
    let out = mtperf_bin()
        .args([
            "train",
            "--data",
            "/nonexistent/mtperf.csv",
            "--out",
            &model,
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(74));

    // Corrupted CSV under strict: bad data, exit 65. Under skip: success,
    // with an ingest report on stderr.
    let (_, csv) = suite_csv();
    let corrupted = FaultInjector::new(3).apply(FaultOp::FlipNonFinite(4), &csv);
    let path = dir.join("corrupt.csv").display().to_string();
    std::fs::write(&path, &corrupted.text).unwrap();

    let out = mtperf_bin()
        .args(["train", "--data", &path, "--out", &model])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(65), "{:?}", out);

    let out = mtperf_bin()
        .args([
            "train", "--data", &path, "--out", &model, "--policy", "skip",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("quarantined"), "{stderr}");
    assert!(std::path::Path::new(&model).exists());

    std::fs::remove_dir_all(dir).ok();
}
