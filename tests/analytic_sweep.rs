//! Integration tests for compositional analytic fusion and `mtperf sweep`.
//!
//! Three contracts are pinned here:
//!
//! 1. **Baseline bit-identity** — with `--features` off (or `counters`),
//!    the CLI's ingest/train/predict paths produce byte-identical artifacts
//!    to the plain library path; the analytic module must be unreachable
//!    from the default pipeline.
//! 2. **Golden sweep** — the exact CLI recipe CI's `sweep-smoke` job runs
//!    (simulate → train → sweep over `examples/sweep_smoke.json`) must
//!    reproduce `tests/golden/sweep.json` byte for byte. Refresh with
//!    `UPDATE_GOLDEN=1 cargo test -p mtperf --test analytic_sweep` and
//!    commit the diff with the change that caused it.
//! 3. **Scale** — the checked-in `examples/sweep_spec.json` explores at
//!    least 1,000 configurations through the parallel batch engine.

use std::path::{Path, PathBuf};

use mtperf::cli::{dispatch, Args};
use mtperf::prelude::*;
use mtperf::CliError;

const INSTRUCTIONS: u64 = 100_000;
const SECTION_LEN: u64 = 10_000;
const SEED: u64 = 2007;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn examples_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples")
}

fn updating() -> bool {
    std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1")
}

/// Fresh scratch directory per test (parallel test binaries must not
/// collide).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mtperf-analytic-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_cli(argv: &[&str]) -> Result<String, CliError> {
    let args = Args::parse(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap();
    let mut out = Vec::new();
    dispatch(&args, &mut out).map(|()| String::from_utf8(out).unwrap())
}

fn simulate_csv(dir: &Path) -> PathBuf {
    let csv = dir.join("sections.csv");
    run_cli(&[
        "simulate",
        "--out",
        csv.to_str().unwrap(),
        "--instructions",
        &INSTRUCTIONS.to_string(),
        "--section-len",
        &SECTION_LEN.to_string(),
        "--seed",
        &SEED.to_string(),
    ])
    .unwrap();
    csv
}

#[test]
fn analytic_off_is_bit_identical_to_the_plain_path() {
    let dir = scratch("bitident");
    let csv = simulate_csv(&dir);

    // Train three ways: no flag, explicit --features counters, and the
    // plain library path this repo shipped before analytic fusion existed.
    let (m_default, m_counters) = (dir.join("default.json"), dir.join("counters.json"));
    run_cli(&[
        "train",
        "--data",
        csv.to_str().unwrap(),
        "--out",
        m_default.to_str().unwrap(),
    ])
    .unwrap();
    run_cli(&[
        "train",
        "--data",
        csv.to_str().unwrap(),
        "--features",
        "counters",
        "--out",
        m_counters.to_str().unwrap(),
    ])
    .unwrap();
    let samples = mtperf::sim::simulate_suite(INSTRUCTIONS, SECTION_LEN, SEED);
    let data = mtperf::dataset_from_samples(&samples).unwrap();
    let params = M5Params::default().with_min_instances((data.n_rows() / 30).max(8));
    let library_tree = ModelTree::fit(&data, &params).unwrap();
    let m_library = dir.join("library.json");
    library_tree.save(&m_library).unwrap();

    let default_bytes = std::fs::read(&m_default).unwrap();
    assert_eq!(
        default_bytes,
        std::fs::read(&m_counters).unwrap(),
        "--features counters must not change the trained model"
    );
    assert_eq!(
        default_bytes,
        std::fs::read(&m_library).unwrap(),
        "flag-off CLI training must stay byte-identical to the library path"
    );

    // And the default predict path must emit exactly the library's
    // compiled batch predictions.
    let pred_csv = run_cli(&[
        "predict",
        "--model",
        m_default.to_str().unwrap(),
        "--data",
        csv.to_str().unwrap(),
    ])
    .unwrap();
    let expected = library_tree.compile().predict_batch(&data.to_matrix());
    let got: Vec<f64> = pred_csv
        .lines()
        .skip(1)
        .map(|l| l.rsplit(',').next().unwrap().parse().unwrap())
        .collect();
    assert_eq!(got.len(), expected.len());
    for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(g.to_bits(), e.to_bits(), "row {i}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The exact recipe `.github/workflows/ci.yml`'s `sweep-smoke` job runs.
fn smoke_sweep_json(dir: &Path) -> String {
    let csv = simulate_csv(dir);
    let model = dir.join("model.json");
    run_cli(&[
        "train",
        "--data",
        csv.to_str().unwrap(),
        "--out",
        model.to_str().unwrap(),
    ])
    .unwrap();
    let spec = examples_dir().join("sweep_smoke.json");
    let report = dir.join("sweep.json");
    run_cli(&[
        "sweep",
        "--spec",
        spec.to_str().unwrap(),
        "--model",
        model.to_str().unwrap(),
        "--data",
        csv.to_str().unwrap(),
        "--out",
        report.to_str().unwrap(),
        "--threads",
        "2",
    ])
    .unwrap();
    std::fs::read_to_string(&report).unwrap()
}

#[test]
fn golden_sweep_report() {
    let dir = scratch("golden");
    let got = smoke_sweep_json(&dir);

    let path = golden_dir().join("sweep.json");
    if updating() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, &got).unwrap();
        eprintln!("golden: wrote {}", path.display());
        let _ = std::fs::remove_dir_all(&dir);
        return;
    }
    let want = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => panic!(
            "missing golden fixture {} ({e}); run with UPDATE_GOLDEN=1 and commit",
            path.display()
        ),
    };
    assert_eq!(
        got, want,
        "sweep report drifted from tests/golden/sweep.json; if intentional, \
         refresh with UPDATE_GOLDEN=1 and commit"
    );
    // The blame machinery must actually fire in the pinned report.
    assert!(got.contains("\"blame\""), "report carries no blame section");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn example_spec_explores_a_thousand_plus_configs() {
    let spec_text = std::fs::read_to_string(examples_dir().join("sweep_spec.json")).unwrap();
    let spec: mtperf::sweep::SweepSpec = serde_json::from_str(&spec_text).unwrap();
    let points = spec.enumerate().unwrap();
    assert!(
        points.len() >= 1000,
        "examples/sweep_spec.json must explore >= 1000 configs, got {}",
        points.len()
    );

    // And the full grid really runs through the parallel engine.
    let samples = mtperf::sim::simulate_suite(INSTRUCTIONS, SECTION_LEN, SEED);
    let data = mtperf::dataset_from_samples(&samples).unwrap();
    let params = M5Params::default().with_min_instances((data.n_rows() / 30).max(8));
    let tree = ModelTree::fit(&data, &params).unwrap();
    let report = mtperf::sweep::run(
        &spec,
        &tree,
        &samples,
        false,
        mtperf::linalg::Parallelism::Auto,
    )
    .unwrap();
    assert_eq!(report.n_configs, points.len());
    assert!(report
        .configs
        .iter()
        .all(|c| c.mean_cpi.is_finite() && c.min_cpi <= c.max_cpi));
    // Ranking is a permutation of all config ids, sorted by mean CPI.
    let mut sorted = report.ranking.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..report.n_configs).collect::<Vec<_>>());
    assert!(report.best().mean_cpi <= report.worst().mean_cpi);
}

#[test]
fn evaluate_reports_residual_alongside_direct() {
    let dir = scratch("residual");
    let csv = simulate_csv(&dir);
    let out = run_cli(&[
        "evaluate",
        "--data",
        csv.to_str().unwrap(),
        "--features",
        "analytic",
        "--k",
        "5",
    ])
    .unwrap();
    assert!(out.contains("M5' direct"), "{out}");
    assert!(out.contains("M5' on analytic residual"), "{out}");
    assert!(out.contains("analytic model alone"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn width_mismatch_is_a_data_error_not_a_panic() {
    let dir = scratch("mismatch");
    let csv = simulate_csv(&dir);
    let model = dir.join("model.json");
    // Train with analytic features (26 attributes)...
    run_cli(&[
        "train",
        "--data",
        csv.to_str().unwrap(),
        "--features",
        "analytic",
        "--out",
        model.to_str().unwrap(),
    ])
    .unwrap();
    // ...then analyze with plain counters (20): typed data error, exit 65.
    let err = run_cli(&[
        "analyze",
        "--model",
        model.to_str().unwrap(),
        "--data",
        csv.to_str().unwrap(),
    ])
    .unwrap_err();
    assert_eq!(err.exit_code(), 65, "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A model trained on the simulated suite, and a copy of the suite whose
/// section 17 (`401.bzip2-like` #7) has an `L1IM` rate of 1.7e308, which
/// strict ingest accepts because it is finite.
fn huge_l1im_fixture(dir: &Path) -> (PathBuf, PathBuf) {
    let csv = simulate_csv(dir);
    let model = dir.join("model.json");
    run_cli(&[
        "train",
        "--data",
        csv.to_str().unwrap(),
        "--out",
        model.to_str().unwrap(),
    ])
    .unwrap();
    let text = std::fs::read_to_string(&csv).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let column = lines[0].split(',').position(|h| h == "L1IM").unwrap();
    let mut fields: Vec<String> = lines[18].split(',').map(str::to_string).collect();
    fields[column] = "1.7e308".to_string();
    lines[18] = fields.join(",");
    let huge = dir.join("huge.csv");
    std::fs::write(&huge, lines.join("\n") + "\n").unwrap();
    (model, huge)
}

#[test]
fn an_overflowing_sweep_value_is_a_data_error_naming_section_and_column() {
    let dir = scratch("overflow");
    // An 8 KiB L1I doubles the huge L1IM rate past f64::MAX, which once
    // panicked the sweep.
    let (model, huge) = huge_l1im_fixture(&dir);
    let spec = dir.join("spec.json");
    std::fs::write(&spec, r#"{"axes": {"l1i_kb": [8, 32]}}"#).unwrap();

    let err = run_cli(&[
        "sweep",
        "--spec",
        spec.to_str().unwrap(),
        "--model",
        model.to_str().unwrap(),
        "--data",
        huge.to_str().unwrap(),
    ])
    .unwrap_err();
    assert_eq!(err.exit_code(), 65, "{err}");
    let message = err.to_string();
    assert!(
        message.contains("section 17") && message.contains("L1IM"),
        "{message}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_overflowing_prediction_is_a_data_error_naming_the_section() {
    let dir = scratch("overflow-predict");
    // The huge rate overflows the tree's own arithmetic: `predict` once
    // printed `NaN` for the section and exited 0.
    let (model, huge) = huge_l1im_fixture(&dir);
    let err = run_cli(&[
        "predict",
        "--model",
        model.to_str().unwrap(),
        "--data",
        huge.to_str().unwrap(),
    ])
    .unwrap_err();
    assert_eq!(err.exit_code(), 65, "{err}");
    let message = err.to_string();
    assert!(
        message.contains("predict: section 17 (401.bzip2-like #7)"),
        "{message}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_overflowing_fit_is_a_data_error_naming_section_and_column() {
    let dir = scratch("overflow-train");
    // The huge rate is finite, but its square overflows the normal
    // equations: `train` once exited 65 with a singular-matrix message
    // that named no row.
    let (_, huge) = huge_l1im_fixture(&dir);
    let err = run_cli(&[
        "train",
        "--data",
        huge.to_str().unwrap(),
        "--out",
        dir.join("huge-model.json").to_str().unwrap(),
    ])
    .unwrap_err();
    assert_eq!(err.exit_code(), 65, "{err}");
    let message = err.to_string();
    assert!(
        message.contains("train: section 17 (401.bzip2-like #7): L1IM overflows"),
        "{message}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn residual_flag_requires_analytic_features() {
    let dir = scratch("resflag");
    let csv = simulate_csv(&dir);
    let err = run_cli(&[
        "train",
        "--data",
        csv.to_str().unwrap(),
        "--residual",
        "--out",
        dir.join("m.json").to_str().unwrap(),
    ])
    .unwrap_err();
    assert_eq!(err.exit_code(), 2, "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn residual_predictions_reconstruct_the_cpi_scale() {
    let dir = scratch("resrt");
    let csv = simulate_csv(&dir);
    let model = dir.join("model.json");
    run_cli(&[
        "train",
        "--data",
        csv.to_str().unwrap(),
        "--features",
        "analytic",
        "--residual",
        "--out",
        model.to_str().unwrap(),
    ])
    .unwrap();
    let out = run_cli(&[
        "predict",
        "--model",
        model.to_str().unwrap(),
        "--data",
        csv.to_str().unwrap(),
        "--features",
        "analytic",
        "--residual",
    ])
    .unwrap();
    // Reconstructed predictions must track measured CPI, not the residual
    // scale: mean absolute error well under the mean CPI itself.
    let (mut err_sum, mut cpi_sum, mut n) = (0.0, 0.0, 0usize);
    for line in out.lines().skip(1) {
        let mut cells = line.rsplit(',');
        let pred: f64 = cells.next().unwrap().parse().unwrap();
        let cpi: f64 = cells.next().unwrap().parse().unwrap();
        err_sum += (pred - cpi).abs();
        cpi_sum += cpi;
        n += 1;
    }
    let (mae, mean_cpi) = (err_sum / n as f64, cpi_sum / n as f64);
    assert!(
        mae < 0.2 * mean_cpi,
        "residual reconstruction off the CPI scale: MAE {mae} vs mean CPI {mean_cpi}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
