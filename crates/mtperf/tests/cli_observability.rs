//! End-to-end contracts of the `mtperf` binary's observability surface:
//!
//! * stream separation — `predict` keeps its payload on stdout under every
//!   ingest policy while the ingest report, trace summary, and metrics dump
//!   go to stderr;
//! * trace identity — predictions and metrics are bit-identical with
//!   tracing on or off, and the JSONL event stream covers ingest, training,
//!   CV folds, and batch prediction;
//! * thread-budget identity — `simulate` writes the same bytes under every
//!   `--threads` setting, and those bytes match a pinned digest;
//! * the documented exit-code contract for bad flags and bad data.
//!
//! Runs the real binary via `CARGO_BIN_EXE_mtperf`, so these tests exercise
//! the same process lifecycle (init at dispatch, finish at exit) users see.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_mtperf")
}

/// Runs `mtperf` with `args`, panicking only on spawn failure.
fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        // The binary consults MTPERF_* when no flags are given; keep the
        // baseline runs deterministic even under an instrumented CI.
        .env_remove("MTPERF_TRACE")
        .env_remove("MTPERF_TRACE_OUT")
        .env_remove("MTPERF_METRICS")
        .output()
        .expect("spawn mtperf")
}

fn stdout(o: &Output) -> String {
    String::from_utf8(o.stdout.clone()).expect("utf-8 stdout")
}

fn stderr(o: &Output) -> String {
    String::from_utf8(o.stderr.clone()).expect("utf-8 stderr")
}

/// A scratch directory with a tiny simulated CSV and a trained model.
struct Fixture {
    dir: PathBuf,
    csv: String,
    model: String,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let dir = std::env::temp_dir().join(format!("mtperf-obs-test-{tag}"));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let csv = dir.join("suite.csv").display().to_string();
        let model = dir.join("model.json").display().to_string();
        let sim = run(&[
            "simulate",
            "--out",
            &csv,
            "--instructions",
            "60000",
            "--seed",
            "3",
        ]);
        assert!(sim.status.success(), "simulate failed: {}", stderr(&sim));
        let train = run(&["train", "--data", &csv, "--out", &model]);
        assert!(train.status.success(), "train failed: {}", stderr(&train));
        Fixture { dir, csv, model }
    }

    /// The suite CSV with one extra corrupt row appended.
    fn corrupt_csv(&self) -> String {
        let path = self.dir.join("corrupt.csv");
        let mut text = std::fs::read_to_string(&self.csv).expect("read csv");
        let fields = text.lines().next().expect("header").split(',').count();
        text.push_str(&format!("badrow,999,NaN{}\n", ",0.1".repeat(fields - 3)));
        std::fs::write(&path, text).expect("write corrupt csv");
        path.display().to_string()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Asserts `text` is a well-formed predict CSV payload and returns its rows.
fn parse_predict_csv(text: &str) -> Vec<(String, usize, f64, f64)> {
    let mut lines = text.lines();
    assert_eq!(
        lines.next(),
        Some("workload,section_index,cpi,predicted_cpi"),
        "payload must start with the CSV header: {text:?}"
    );
    lines
        .map(|line| {
            let f: Vec<&str> = line.split(',').collect();
            assert_eq!(f.len(), 4, "malformed payload row {line:?}");
            (
                f[0].to_string(),
                f[1].parse().expect("section index"),
                f[2].parse().expect("cpi"),
                f[3].parse().expect("predicted cpi"),
            )
        })
        .collect()
}

#[test]
fn predict_keeps_stdout_payload_clean_under_every_policy() {
    let fx = Fixture::new("streams");
    for policy in ["strict", "skip", "repair"] {
        let out = run(&[
            "predict",
            "--model",
            &fx.model,
            "--data",
            &fx.csv,
            "--policy",
            policy,
            "--trace",
            "--metrics",
            "table",
        ]);
        assert!(out.status.success(), "policy {policy}: {}", stderr(&out));
        let rows = parse_predict_csv(&stdout(&out));
        assert!(!rows.is_empty(), "policy {policy}: empty payload");

        let err = stderr(&out);
        assert!(
            err.contains("trace summary:"),
            "policy {policy}: no trace summary on stderr: {err}"
        );
        assert!(
            err.contains("predict_batch"),
            "policy {policy}: no predict span on stderr: {err}"
        );
        // Metrics table goes to stderr too; stdout stays pure payload.
        assert!(err.contains("wall_ms"), "policy {policy}: {err}");
        if policy != "strict" {
            assert!(
                err.contains("ingest ("),
                "policy {policy}: ingest report missing from stderr: {err}"
            );
        }
    }
}

#[test]
fn corrupt_rows_follow_the_policy_and_exit_code_contract() {
    let fx = Fixture::new("exitcodes");
    let corrupt = fx.corrupt_csv();

    // strict: first bad row fails the file with EX_DATAERR.
    let strict = run(&["predict", "--model", &fx.model, "--data", &corrupt]);
    assert_eq!(strict.status.code(), Some(65), "{}", stderr(&strict));
    assert!(stdout(&strict).is_empty(), "no payload on failure");

    // skip: quarantines the bad row, succeeds, reports on stderr.
    let skip = run(&[
        "predict", "--model", &fx.model, "--data", &corrupt, "--policy", "skip",
    ]);
    assert_eq!(skip.status.code(), Some(0), "{}", stderr(&skip));
    let rows = parse_predict_csv(&stdout(&skip));
    assert!(rows.iter().all(|(w, ..)| w != "badrow"));
    assert!(stderr(&skip).contains("1 quarantined"), "{}", stderr(&skip));

    // repair: the CPI target is never fabricated, so the row still drops.
    let repair = run(&[
        "predict", "--model", &fx.model, "--data", &corrupt, "--policy", "repair",
    ]);
    assert_eq!(repair.status.code(), Some(0), "{}", stderr(&repair));
    assert!(
        stderr(&repair).contains("quarantined"),
        "{}",
        stderr(&repair)
    );

    // Flag errors are usage errors (exit 2); missing files are I/O (74).
    let usage = run(&[
        "predict",
        "--model",
        &fx.model,
        "--data",
        &fx.csv,
        "--metrics",
        "yaml",
    ]);
    assert_eq!(usage.status.code(), Some(2), "{}", stderr(&usage));
    let io = run(&[
        "predict",
        "--model",
        &fx.model,
        "--data",
        "/nonexistent.csv",
    ]);
    assert_eq!(io.status.code(), Some(74), "{}", stderr(&io));
}

#[test]
fn tracing_leaves_predictions_bit_identical_and_streams_events() {
    let fx = Fixture::new("identity");
    let trace_path = fx.dir.join("trace.jsonl").display().to_string();

    let plain = run(&["predict", "--model", &fx.model, "--data", &fx.csv]);
    assert!(plain.status.success(), "{}", stderr(&plain));
    let traced = run(&[
        "predict",
        "--model",
        &fx.model,
        "--data",
        &fx.csv,
        "--trace",
        "--trace-out",
        &trace_path,
        "--metrics",
        "json",
    ]);
    assert!(traced.status.success(), "{}", stderr(&traced));

    // The tentpole contract: byte-identical payload with tracing on.
    assert_eq!(
        stdout(&plain),
        stdout(&traced),
        "tracing changed the prediction payload"
    );

    // The JSONL stream is one object per line and covers the hot paths.
    let trace = std::fs::read_to_string(&trace_path).expect("trace file");
    let lines: Vec<&str> = trace.lines().collect();
    assert!(
        lines.first().is_some_and(|l| l.contains("mtperf-trace-v1")),
        "missing run_start: {:?}",
        lines.first()
    );
    assert!(
        lines
            .last()
            .is_some_and(|l| l.contains("\"ev\":\"run_end\"")),
        "missing run_end: {:?}",
        lines.last()
    );
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not a JSON object line: {line}"
        );
    }
    for span in [
        "\"name\":\"ingest\"",
        "\"name\":\"predict_batch\"",
        "\"name\":\"predict_block\"",
    ] {
        assert!(trace.contains(span), "trace missing {span}");
    }
    // Worker spans carry their parent's path (context crosses threads).
    assert!(
        trace.contains("\"path\":\"predict_batch/predict_block[0]\""),
        "block span not nested under the batch span"
    );

    // --metrics json emits one parseable-shaped document on stderr.
    let err = stderr(&traced);
    let metrics_line = err
        .lines()
        .find(|l| l.starts_with("{\"wall_us\":"))
        .unwrap_or_else(|| panic!("no metrics JSON on stderr: {err}"));
    assert!(metrics_line.ends_with("]}"), "{metrics_line}");
    assert!(metrics_line.contains("\"counters\""), "{metrics_line}");
}

#[test]
fn tracing_leaves_evaluation_metrics_bit_identical() {
    let fx = Fixture::new("eval-identity");
    let trace_path = fx.dir.join("eval-trace.jsonl").display().to_string();

    let plain = run(&["evaluate", "--data", &fx.csv, "--k", "5"]);
    assert!(plain.status.success(), "{}", stderr(&plain));
    let traced = run(&[
        "evaluate",
        "--data",
        &fx.csv,
        "--k",
        "5",
        "--trace-out",
        &trace_path,
    ]);
    assert!(traced.status.success(), "{}", stderr(&traced));
    assert_eq!(
        stdout(&plain),
        stdout(&traced),
        "tracing changed the CV metrics"
    );

    let trace = std::fs::read_to_string(&trace_path).expect("trace file");
    for span in ["\"name\":\"cv\"", "\"name\":\"fold\"", "\"name\":\"fit\""] {
        assert!(trace.contains(span), "trace missing {span}");
    }
    // All five folds appear, each tagged with its index in the span path.
    for fold in 0..5 {
        assert!(
            trace.contains(&format!("\"path\":\"cv/fold[{fold}]")),
            "missing fold {fold}"
        );
    }
    // The learner's work counters made it into the global registry events:
    // split searches, node Gram matrices and the model solves they serve.
    for counter in [
        "mtree.split_searches",
        "mtree.gram_builds",
        "mtree.model_solves",
    ] {
        assert!(
            trace.contains(&format!("\"name\":\"{counter}\"")),
            "missing counter {counter}"
        );
    }
}

#[test]
fn tracing_leaves_the_sweep_report_unchanged_and_counts_its_classes() {
    let fx = Fixture::new("sweep-identity");
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/sweep_smoke.json"
    );
    let analytic = fx.dir.join("analytic.json").display().to_string();
    let train = run(&[
        "train",
        "--data",
        &fx.csv,
        "--features",
        "analytic",
        "--out",
        &analytic,
    ]);
    assert!(train.status.success(), "{}", stderr(&train));

    let field = |text: &str, key: &str| -> u64 {
        let at = text
            .find(key)
            .unwrap_or_else(|| panic!("no {key} in {text}"))
            + key.len();
        let digits: String = text[at..]
            .chars()
            .skip_while(|c| !c.is_ascii_digit())
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().expect("a count")
    };
    // The plain model, an analytic-feature model, and that model's
    // residual reconstruction all share rows across configurations.
    for (kind, model, extra) in [
        ("plain", fx.model.as_str(), None),
        ("analytic", analytic.as_str(), None),
        ("residual", analytic.as_str(), Some("--residual")),
    ] {
        let trace_path = fx
            .dir
            .join(format!("sweep-trace-{kind}.jsonl"))
            .display()
            .to_string();
        let mut sweep = vec![
            "sweep", "--spec", spec, "--model", model, "--data", &fx.csv, "--format", "json",
        ];
        sweep.extend(extra);
        let untraced = run(&sweep);
        assert!(untraced.status.success(), "{kind}: {}", stderr(&untraced));
        let traced = run(&[&sweep[..], &["--trace", "--trace-out", &trace_path]].concat());
        assert!(traced.status.success(), "{kind}: {}", stderr(&traced));
        assert_eq!(
            stdout(&untraced),
            stdout(&traced),
            "tracing changed the {kind} sweep report"
        );

        let report = stdout(&untraced);
        let (configs, sections) = (
            field(&report, "\"n_configs\""),
            field(&report, "\"n_sections\""),
        );
        let trace = std::fs::read_to_string(&trace_path).expect("trace file");
        assert!(
            trace.contains("\"name\":\"sweep\""),
            "{kind}: trace missing the sweep span"
        );
        // Each counter is booked once per run: one event, with a value the
        // grid bounds. Rows are shared, so fewer than configs × sections
        // are priced.
        for (counter, most) in [
            ("sweep.config_classes", configs),
            ("sweep.rows_priced", configs * sections - 1),
        ] {
            let events: Vec<&str> = trace
                .lines()
                .filter(|l| {
                    l.contains("\"ev\":\"counter\"") && l.contains(&format!("\"{counter}\""))
                })
                .collect();
            assert_eq!(events.len(), 1, "{kind}, {counter}: {events:?}");
            let value = field(events[0], "\"value\"");
            assert!(
                (1..=most).contains(&value),
                "{kind}: {counter} = {value}, most {most}"
            );
        }
    }
}

#[test]
fn trace_artifacts_do_not_touch_saved_models() {
    // `train --trace-out` must write the same model bytes as a plain train.
    let fx = Fixture::new("train-identity");
    let plain_model = fx.dir.join("plain.json");
    let traced_model = fx.dir.join("traced.json");
    let trace_path = fx.dir.join("train-trace.jsonl").display().to_string();

    let plain = run(&[
        "train",
        "--data",
        &fx.csv,
        "--out",
        &plain_model.display().to_string(),
    ]);
    assert!(plain.status.success(), "{}", stderr(&plain));
    let traced = run(&[
        "train",
        "--data",
        &fx.csv,
        "--out",
        &traced_model.display().to_string(),
        "--trace",
        "--trace-out",
        &trace_path,
    ]);
    assert!(traced.status.success(), "{}", stderr(&traced));

    let a = std::fs::read(&plain_model).expect("plain model");
    let b = std::fs::read(&traced_model).expect("traced model");
    assert_eq!(a, b, "tracing changed the trained model");
    assert!(Path::new(&trace_path).exists());
}

#[test]
fn simulate_output_is_identical_under_every_thread_budget() {
    // The thread budget is a process global, so each setting needs its own
    // process: only the real binary can pin this.
    let dir = std::env::temp_dir().join("mtperf-obs-test-simulate-threads");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let simulate = |threads: &str| {
        let csv = dir.join(format!("suite-{threads}.csv"));
        let out = run(&[
            "simulate",
            "--out",
            &csv.display().to_string(),
            "--instructions",
            "40000",
            "--section-len",
            "10000",
            "--seed",
            "2007",
            "--threads",
            threads,
        ]);
        assert!(
            out.status.success(),
            "--threads {threads}: {}",
            stderr(&out)
        );
        std::fs::read(&csv).expect("read csv")
    };
    let serial = simulate("off");
    assert!(!serial.is_empty());
    // Pins the bytes across commits too: the workload generator's draw
    // sequence must not move. Re-mine with the command above and
    // `fnv1a_64` only when a change means to alter the simulation.
    assert_eq!(
        mtperf_obs::fsio::fnv1a_64(&serial),
        0xcb6a_f614_f79e_cb6f,
        "simulate --seed 2007 output changed ({} bytes)",
        serial.len()
    );
    for threads in ["1", "4", "auto"] {
        assert!(
            simulate(threads) == serial,
            "simulate output changed under --threads {threads}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
