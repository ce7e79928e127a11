//! Implementation of the `mtperf` command-line tool.
//!
//! The binary (`src/bin/mtperf.rs`) is a thin wrapper over these functions,
//! which keeps every code path unit-testable. Argument handling is a small
//! hand-rolled parser: flags are `--key value` pairs after a subcommand.

use std::collections::BTreeMap;
use std::fs::File;
use std::path::Path;

use mtperf_counters::{IngestPolicy, SampleSet};
use mtperf_eval::{breakdown_table, comparison_table, cross_validate, per_label_metrics, Metrics};
use mtperf_linalg::parallel::{self, Parallelism};
use mtperf_mtree::{
    analysis, residual_dataset, Dataset, Learner, M5Learner, M5Params, ModelTree, MtreeError,
    ResidualLearner, RuleSet,
};
use mtperf_sim::MachineConfig;
use serde::Serialize;

use crate::analytic;
use crate::errors::CliError;
use crate::sweep;

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The subcommand name.
    pub command: String,
    /// `--key value` options (keys without the dashes).
    pub options: BTreeMap<String, String>,
    /// Bare `--flag` switches.
    pub flags: Vec<String>,
}

impl Args {
    /// Parses raw arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a message when no subcommand is given or an option is
    /// missing its value.
    pub fn parse(raw: &[String]) -> Result<Args, String> {
        let mut iter = raw.iter().peekable();
        let command = iter
            .next()
            .ok_or_else(|| "missing subcommand".to_string())?
            .clone();
        let mut options = BTreeMap::new();
        let mut flags = Vec::new();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument {arg:?}"));
            };
            match iter.peek() {
                Some(next) if !next.starts_with("--") => {
                    options.insert(key.to_string(), iter.next().expect("peeked").clone());
                }
                _ => flags.push(key.to_string()),
            }
        }
        Ok(Args {
            command,
            options,
            flags,
        })
    }

    /// Fetches a required option.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing option.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// Fetches an optional numeric option with a default.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub fn numeric<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("option --{key} has invalid value {v:?}")),
        }
    }

    /// Whether a bare flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

/// The usage text.
pub const USAGE: &str = "\
mtperf — model-tree performance analysis

USAGE: mtperf <command> [options]

COMMANDS
  simulate   --out <csv> [--arff <arff>] [--instructions N] [--section-len N] [--seed N]
             Simulate the SPEC-like suite on the Core 2 Duo model and write sections.
  train      --data <csv> --out <model.json> [--min-instances N] [--no-smoothing]
             Train an M5' model tree on a section CSV.
  show       --model <model.json> [--rules]
             Print a trained tree (or its ordered rule list).
  evaluate   --data <csv> [--k N] [--min-instances N]
             10-fold cross validation with per-workload breakdown. With
             --features analytic, also reports residual-fusion vs direct vs
             analytic-alone on the same folds.
  analyze    --model <model.json> --data <csv> [--top N]
             Classify each workload's median section and rank its
             optimization opportunities (the paper's what/how-much report).
             Pass the --features/--machine the model was trained with.
  predict    --model <model.json> --data <csv> [--out <file>] [--format csv|json]
             Batch-predict CPI for every section of a counter CSV through
             the compiled tree (bit-identical to per-row prediction) and
             emit workload, section, measured and predicted CPI.
  sweep      --spec <spec.json> --model <model.json> --data <csv>
             [--out <report.json>] [--format table|json] [--top N] [--residual]
             Design-space exploration: enumerate the spec's machine grid
             (cache size/ways, TLB entries, predictor budget), transplant
             every measured section onto each configuration via documented
             miss-rate power laws, price each distinct transplanted row
             once through the compiled parallel engine (configurations the
             model cannot tell apart share it), and report per-config
             predicted CPI with the counters the tree blames (schema
             mtperf-sweep-v1).
  serve      --model <model.json> [--socket <path>] [--tcp <addr>] [--stdio]
             [--registry <manifest.json>] [--workers N] [--queue-depth N]
             [--tenant-quota N] [--cache-size N] [--deadline-ms N]
             [--keep-versions N]
             Long-running multi-tenant prediction daemon speaking
             newline-delimited JSON (schema mtperf-serve-v2, a strict
             superset of v1) over stdin/stdout, a Unix socket, and/or a
             TCP listener: ops predict, health/ready, reload, load,
             promote, rollback, list, save, shutdown. Named model registry
             (many models x versions, last-known-good on poisoned
             promote, optional manifest persistence via --registry),
             per-tenant admission quotas with fair round-robin dispatch,
             prediction cache for repeated sections, per-request
             deadlines, degraded fallback, atomic (kill-safe) saves,
             SIGTERM drain-then-exit. --socket/--tcp alone disable the
             stdio session; add --stdio to serve it alongside.
             --keep-versions N bounds each model's rollback history:
             promotes garbage-collect versions beyond the newest N and
             delete artifacts no resident version references (the active
             version and rollback targets are never collected).
  serve --fleet --replicas <ep,ep,...> [--socket <path>] [--tcp <addr>]
             [--stdio] [--hedge-ms N] [--retry-attempts N]
             [--retry-base-ms N]
             Fault-tolerant replica router: speaks mtperf-serve-v2 to
             clients unchanged while multiplexing over the given replica
             endpoints (host:port, or socket paths containing '/').
             Consecutive failures open a per-replica circuit breaker with
             probed half-open recovery; dispatch is power-of-two-choices
             on in-flight counts; idempotent ops (predict, health, ready,
             list) fail over under a deadline-aware retry budget with
             decorrelated-jitter backoff; predicts slower than --hedge-ms
             (default 50) are hedged once to a second replica, first
             well-formed answer wins. Mutating ops broadcast fleet-wide;
             health merges per-replica reports. When every replica is
             down the client gets a typed `unavailable` error, never a
             hang.
  dst        [--seed N] [--seeds N] [--sessions N] [--trace-dir <dir>]
             Deterministic simulation of the serving stack: drives randomized
             client sessions (faulty transports, interleaved multi-connection
             accept loops, registry promote/rollback races, poisoned reloads,
             deadline races, per-tenant overload, cache-consistency probes,
             crash/restart) under seeded virtual time and checks the serving
             invariants. One seed fully determines a run; a failing seed
             replays bit-identically with --seed <N> (or MTPERF_SIM_SEED).
             --seeds sweeps N consecutive seeds, aggregates coverage across
             the sweep, and fails if the aggregate misses its coverage
             floors; --trace-dir writes one replay trace file per seed.
             Each seed additionally runs a fleet simulation (2-4 replica
             engines behind the --fleet router under virtual time, with
             scripted replica kills/restarts, partition-heal cycles,
             latency spikes, transport drops, and poisoned promotes on
             replica subsets) checking the fleet invariants: exactly-once
             answers despite hedging, no request lost across a replica
             kill, circuit-open replicas receive only probes, replies
             route to the issuing connection.

GLOBAL OPTIONS
  --features <counters|analytic>
             Feature set for --data ingest (train/evaluate/analyze/predict;
             default counters). `analytic` appends six derived columns —
             closed-form per-component CPI estimates (AnBase, AnFront,
             AnMem, AnTlb, AnBr) and their sum AnCpi — priced from the
             --machine parameters. With `counters` the ingest path is
             bit-identical to previous releases.
  --machine <core2_duo|netburst_like|tiny>
             Machine whose parameters price the analytic columns
             (default core2_duo).
  --residual Train on (or reconstruct from) the residual CPI − AnCpi
             instead of raw CPI. Needs --features analytic; pass the same
             flags at train and use time. Reconstruction adds AnCpi back
             identically on scalar and batch paths, so predictions stay
             bit-identical across thread budgets.
  --threads <auto|off|N>
             Thread budget for training, cross validation, batch prediction,
             and serving (default auto). Work runs on a persistent worker
             pool; under `auto`, small prediction batches stay serial until
             the measured cutover where fan-out pays for its dispatch.
             Results are bit-identical at any setting; only wall time
             changes.
  --policy <strict|skip|repair>
             Ingest policy for --data CSVs (default strict). `strict` rejects
             the file on the first malformed row; `skip` quarantines bad rows
             and trains on the rest; `repair` additionally imputes missing
             rates and winsorizes extreme outliers. Skip/repair print an
             ingest report to stderr.
  --trace    Collect spans and counters (ingest, split search, CV folds,
             batch prediction) and print a summary table to stderr at exit.
             Predictions and metrics are bit-identical with tracing on or off.
  --trace-out <path>
             Stream every span/counter event as JSON lines (schema
             mtperf-trace-v1) to <path>. Implies event collection.
  --metrics <table|json>
             Dump the end-of-run counter/gauge registry to stderr in the
             given format. Command output on stdout is unaffected.

EXIT CODES
  0 success, 2 usage error, 65 bad input data, 69 service unavailable
  (serve could not start), 74 i/o error, 1 other failure.
";

/// Builds the observability configuration from the `--trace`,
/// `--trace-out`, and `--metrics` options (all off by default).
pub fn obs_config(args: &Args) -> Result<mtperf_obs::ObsConfig, CliError> {
    let metrics = match args.options.get("metrics") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|e| CliError::Usage(format!("option --metrics: {e}")))?,
        ),
    };
    Ok(mtperf_obs::ObsConfig {
        trace: args.flag("trace"),
        trace_out: args.options.get("trace-out").map(std::path::PathBuf::from),
        metrics,
    })
}

/// Renders the end-of-run observability report to stderr, keeping stdout
/// for command payloads.
pub fn emit_obs_report(report: &mtperf_obs::Report) {
    if report.summarize {
        eprint!("{}", report.summary());
    } else if let Some(e) = &report.io_error {
        eprintln!("trace sink error (stream truncated): {e}");
    }
    match report.metrics {
        Some(mtperf_obs::MetricsFormat::Table) => eprint!("{}", report.metrics_table()),
        Some(mtperf_obs::MetricsFormat::Json) => eprintln!("{}", report.metrics_json()),
        None => {}
    }
}

/// Parses the `--policy` option (default strict).
fn ingest_policy(args: &Args) -> Result<IngestPolicy, CliError> {
    match args.options.get("policy") {
        None => Ok(IngestPolicy::Strict),
        Some(v) => v
            .parse()
            .map_err(|e| CliError::Usage(format!("option --policy: {e}"))),
    }
}

/// Loads a section CSV into a sample set under the given ingest policy.
///
/// Under skip/repair the ingest report (with quarantine and repair
/// diagnostics) goes to stderr, keeping stdout for command output.
///
/// The read goes through [`mtperf_obs::fsio::read`], so transient I/O
/// faults (EINTR-class) are retried with jittered backoff, persistent
/// ones surface as a typed I/O error (exit 74), and the whole path is
/// drivable from the deterministic-simulation fs-fault seam.
fn load_samples(path: &str, policy: IngestPolicy) -> Result<SampleSet, CliError> {
    let bytes = mtperf_obs::fsio::read(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    let (samples, report) = mtperf_counters::read_csv_with_policy(&bytes[..], policy)?;
    if policy != IngestPolicy::Strict {
        eprintln!("{report}");
    }
    Ok(samples)
}

/// Parses `--features counters|analytic`; `true` means the analytic columns
/// are appended at ingest.
fn analytic_features(args: &Args) -> Result<bool, CliError> {
    match args.options.get("features").map(String::as_str) {
        None | Some("counters") => Ok(false),
        Some("analytic") => Ok(true),
        Some(other) => Err(CliError::Usage(format!(
            "option --features: unknown feature set {other:?} (expected counters or analytic)"
        ))),
    }
}

/// Parses `--machine` (default `core2_duo`), the machine whose parameters
/// price the analytic columns.
fn machine_from(args: &Args) -> Result<MachineConfig, CliError> {
    match args.options.get("machine") {
        None => Ok(MachineConfig::core2_duo()),
        Some(name) => sweep::machine_by_name(name)
            .map_err(|e| CliError::Usage(format!("option --machine: {e}"))),
    }
}

/// Loads the learning problem honoring `--features`/`--machine`. The
/// `counters` path is
/// byte-for-byte the historical ingest — the analytic module is not even
/// consulted — which keeps baseline training bit-identical with the flag
/// off.
fn to_dataset_mode(
    samples: &SampleSet,
    args: &Args,
) -> Result<(Dataset, Vec<String>, bool), CliError> {
    let analytic = analytic_features(args)?;
    let labels = crate::labels_from_samples(samples);
    let data = if analytic {
        analytic::dataset_with_analytic(samples, &machine_from(args)?)?
    } else {
        crate::dataset_from_samples(samples)?
    };
    Ok((data, labels, analytic))
}

/// Validates `--residual` against the feature mode and resolves the
/// baseline (`AnCpi`) column.
fn residual_baseline(
    args: &Args,
    data: &Dataset,
    analytic: bool,
) -> Result<Option<usize>, CliError> {
    if !args.flag("residual") {
        return Ok(None);
    }
    if !analytic {
        return Err(CliError::Usage(
            "--residual needs --features analytic (the AnCpi baseline column)".to_string(),
        ));
    }
    Ok(Some(analytic::ancpi_index(data)?))
}

/// `mtperf simulate`.
///
/// Sizes are checked before any work: `--section-len` must be at least 1,
/// and `--instructions` must give every phase of every profile at least
/// one instruction.
pub fn cmd_simulate(args: &Args) -> Result<(), CliError> {
    let out = args.require("out")?;
    let instructions: u64 = args.numeric("instructions", 2_000_000)?;
    let section_len: u64 = args.numeric("section-len", 10_000)?;
    let seed: u64 = args.numeric("seed", 2007)?;
    if section_len == 0 {
        return Err(CliError::Usage(
            "option --section-len must be at least 1".into(),
        ));
    }
    let suite = crate::sim::workload::profiles::suite(instructions);
    if let Some(w) = suite.iter().find(|w| !w.is_valid()) {
        return Err(CliError::Usage(format!(
            "option --instructions {instructions} is too small: a phase of {} gets no instructions",
            w.name
        )));
    }
    eprintln!("simulating {instructions} instructions/workload (seed {seed})...");
    let samples = crate::sim::simulate_suite(instructions, section_len, seed);
    let mut file = File::create(out)?;
    mtperf_counters::write_csv(&samples, &mut file)?;
    println!("{} sections -> {out}", samples.len());
    if let Some(arff) = args.options.get("arff") {
        let mut file = File::create(arff)?;
        mtperf_counters::write_arff(&samples, &mut file)?;
        println!("ARFF (WEKA) copy -> {arff}");
    }
    Ok(())
}

fn params_from(args: &Args, n_rows: usize) -> Result<M5Params, String> {
    let default_min = (n_rows / 30).max(8);
    let min: usize = args.numeric("min-instances", default_min)?;
    Ok(M5Params::default()
        .with_min_instances(min)
        .with_smoothing(!args.flag("no-smoothing"))
        .with_parallelism(parallel::global()))
}

/// `mtperf train`.
///
/// With `--features analytic` the dataset carries the derived analytical
/// columns; adding `--residual` retargets training at `CPI − AnCpi` so the
/// tree learns only the analytical model's error. A residual model file is
/// indistinguishable from a direct one — pass `--residual` again at
/// predict/evaluate/sweep time to reconstruct.
///
/// # Errors
///
/// [`CliError::Data`] for data the ingest policy rejects, or for finite
/// values too large for a node's least-squares fit (the message names the
/// section and the column, as `mtperf sweep` does); [`CliError::Io`] for
/// file errors.
pub fn cmd_train(args: &Args) -> Result<(), CliError> {
    let data_path = args.require("data")?;
    let out = args.require("out")?;
    let samples = load_samples(data_path, ingest_policy(args)?)?;
    let (data, _, analytic) = to_dataset_mode(&samples, args)?;
    let data = match residual_baseline(args, &data, analytic)? {
        Some(baseline) => residual_dataset(&data, baseline)?,
        None => data,
    };
    let params = params_from(args, data.n_rows())?;
    let tree = ModelTree::fit(&data, &params)
        .map_err(|e| section_error("train", &samples, data.attr_names(), e))?;
    tree.save(out)?;
    println!(
        "trained on {} sections ({} features{}): {} classes, depth {} -> {out}",
        data.n_rows(),
        data.n_attrs(),
        if args.flag("residual") {
            ", residual target"
        } else {
            ""
        },
        tree.n_leaves(),
        tree.depth()
    );
    Ok(())
}

/// `mtperf show`.
pub fn cmd_show(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let tree = ModelTree::load(args.require("model")?)?;
    if args.flag("rules") {
        write!(out, "{}", RuleSet::from_tree(&tree).render("CPI"))?;
    } else {
        write!(out, "{}", tree.render("CPI"))?;
    }
    Ok(())
}

/// `mtperf evaluate`.
///
/// With `--features analytic` the report additionally compares direct CV
/// against residual-reconstruction CV and the closed-form analytical model
/// alone, so the compositional-fusion gain is a measured number rather than
/// an assumption.
pub fn cmd_evaluate(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let samples = load_samples(args.require("data")?, ingest_policy(args)?)?;
    let (data, labels, analytic) = to_dataset_mode(&samples, args)?;
    // --residual here only selects which model renders the per-workload
    // breakdown; the analytic comparison below always reports both CVs.
    let breakdown_residual = residual_baseline(args, &data, analytic)?;
    let k: usize = args.numeric("k", 10)?;
    let params = params_from(args, data.n_rows())?;
    let learner = M5Learner::new(params.clone());
    let cv = cross_validate(&learner, &data, k, 7)?;
    writeln!(out, "{k}-fold CV: {}", cv.pooled)?;
    if !cv.skipped.is_empty() {
        writeln!(
            out,
            "note: {} of {k} folds skipped (degenerate data):",
            cv.skipped.len()
        )?;
        for s in &cv.skipped {
            writeln!(out, "  fold {}: {}", s.fold, s.reason)?;
        }
    }
    if cv.undefined_correlation_folds > 0 {
        writeln!(
            out,
            "note: correlation excludes {} fold(s) with constant actuals",
            cv.undefined_correlation_folds
        )?;
    }
    if analytic {
        let baseline = analytic::ancpi_index(&data)?;
        let residual_learner = ResidualLearner::new(M5Learner::new(params.clone()), baseline);
        let residual_cv = cross_validate(&residual_learner, &data, k, 7)?;
        let analytic_alone = Metrics::compute(data.targets(), data.column(baseline))
            .map_err(|e| CliError::Data(e.to_string()))?;
        writeln!(
            out,
            "\nresidual fusion vs direct ({k}-fold CV, same folds):"
        )?;
        let rows = vec![
            ("M5' direct".to_string(), cv.pooled),
            ("M5' on analytic residual".to_string(), residual_cv.pooled),
            ("analytic model alone".to_string(), analytic_alone),
        ];
        write!(out, "{}", comparison_table(&rows))?;
    }
    writeln!(out, "\nper-workload breakdown (training-set fit):")?;
    let breakdown = match breakdown_residual {
        Some(baseline) => {
            let model = ResidualLearner::new(M5Learner::new(params), baseline).fit(&data)?;
            per_label_metrics(&*model, &data, &labels)
        }
        None => {
            let model = ModelTree::fit(&data, &params)?;
            per_label_metrics(&model, &data, &labels)
        }
    };
    write!(out, "{}", breakdown_table(&breakdown))?;
    Ok(())
}

/// `mtperf analyze`.
///
/// Use the same `--features` (and `--machine`) the model was trained with:
/// the attribute widths must agree, and a mismatch is a typed data error
/// (exit 65), not a panic.
pub fn cmd_analyze(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let tree = ModelTree::load(args.require("model")?)?;
    let samples = load_samples(args.require("data")?, ingest_policy(args)?)?;
    let (data, labels, _) = to_dataset_mode(&samples, args)?;
    let top: usize = args.numeric("top", 3)?;

    // The model remembers how many attributes it was trained on; a counter
    // CSV ingested under the wrong --features cannot be classified.
    let expected = tree.compile().n_attrs();
    if data.n_attrs() < expected {
        return Err(CliError::Data(format!(
            "model expects {expected} attributes but the data has {}; \
             re-run with the --features the model was trained with",
            data.n_attrs()
        )));
    }

    let mut by_workload: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, label) in labels.iter().enumerate() {
        by_workload.entry(label.as_str()).or_default().push(i);
    }
    for (workload, mut indices) in by_workload {
        indices.sort_by(|&a, &b| data.target(a).total_cmp(&data.target(b)));
        let median = indices[indices.len() / 2];
        let row = data.row(median);
        let class = tree.try_classify(&row)?;
        writeln!(
            out,
            "{workload}: median CPI {:.2}, class {}",
            data.target(median),
            class.leaf
        )?;
        let ops = analysis::rank_opportunities(&tree, &row)?;
        if ops.is_empty() {
            let levers: Vec<&str> = class
                .high_side_attrs()
                .into_iter()
                .map(|a| data.attr_name(a))
                .collect();
            writeln!(out, "  constant class; split-variable levers: {levers:?}")?;
        }
        for c in ops.iter().take(top) {
            writeln!(
                out,
                "  eliminate {:<10} -> up to {:.1}% faster",
                data.attr_name(c.attr),
                100.0 * c.fraction
            )?;
        }
    }
    Ok(())
}

/// Converts `err` from fitting or pricing `samples` for `command`. A
/// [`MtreeError::NonFiniteValue`] or [`MtreeError::FitOverflow`] becomes a
/// data error that names the section by row, workload and index: for a
/// value that is not finite, the column whose transplanted value it is
/// when `attr` is set (only a sweep transplants); for an overflowing fit,
/// the column whose values the fit could not sum (`attr`, or the target).
fn section_error(
    command: &str,
    samples: &SampleSet,
    attr_names: &[String],
    err: MtreeError,
) -> CliError {
    let (row, what) = match err {
        MtreeError::NonFiniteValue { row, attr } => match attr {
            Some(a) => (row, format!("transplanted {} is not finite", attr_names[a])),
            None => (row, "predicted CPI is not finite".to_string()),
        },
        MtreeError::FitOverflow { row, attr } => {
            let column = attr.map_or("the target", |a| attr_names[a].as_str());
            (row, format!("{column} overflows the least-squares fit"))
        }
        other => return other.into(),
    };
    let section = &samples.samples()[row];
    CliError::Data(format!(
        "{command}: section {row} ({} #{}): {what}",
        section.workload, section.section_index
    ))
}

/// One emitted prediction row of `mtperf predict`.
#[derive(Serialize)]
struct Prediction {
    workload: String,
    section_index: usize,
    cpi: f64,
    predicted_cpi: f64,
}

/// `mtperf predict`: batch CPI prediction over a counter CSV.
///
/// Loads the model, streams the CSV through the ingest policy, scores every
/// section through the compiled tree ([`ModelTree::compile`]) at the global
/// thread budget, and emits one record per section (measured and predicted
/// CPI) as CSV (default) or JSON, to `--out` or stdout.
///
/// # Errors
///
/// [`CliError::Data`] for data the ingest policy rejects, a model/data
/// width mismatch, or a section whose prediction, after any residual
/// reconstruction, is not finite (the message names the section, as
/// `mtperf sweep` does); [`CliError::Io`] for file errors.
pub fn cmd_predict(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let tree = ModelTree::load(args.require("model")?)?;
    let samples = load_samples(args.require("data")?, ingest_policy(args)?)?;
    let (data, _, analytic) = to_dataset_mode(&samples, args)?;
    let residual = residual_baseline(args, &data, analytic)?;
    let format = args
        .options
        .get("format")
        .map(String::as_str)
        .unwrap_or("csv");
    // Warm the worker pool before the timed work: batch scoring is the
    // latency-sensitive command, and lazy pool start-up plus overhead
    // calibration would otherwise land inside the first prediction.
    parallel::warm_up();
    let matrix = data.to_matrix();
    let mut predicted = tree
        .compile()
        .try_predict_batch_with(&matrix, parallel::global())?;
    if let Some(baseline) = residual {
        // Residual reconstruction: one `+` per row in row order, the same
        // operation ResidualPredictor appends on both its paths, so the
        // output stays bit-identical to scalar residual prediction.
        for (r, p) in predicted.iter_mut().enumerate() {
            *p += matrix.row(r)[baseline];
        }
    }
    // Ingest only checks that a rate is finite, so a huge one can still
    // overflow the model's arithmetic.
    if let Some(row) = predicted.iter().position(|p| !p.is_finite()) {
        let err = MtreeError::NonFiniteValue { row, attr: None };
        return Err(section_error("predict", &samples, tree.attr_names(), err));
    }
    let records: Vec<Prediction> = samples
        .iter()
        .zip(&predicted)
        .map(|(s, &p)| Prediction {
            workload: s.workload.clone(),
            section_index: s.section_index,
            cpi: s.cpi,
            predicted_cpi: p,
        })
        .collect();
    let rendered = match format {
        "csv" => {
            let mut text = String::from("workload,section_index,cpi,predicted_cpi\n");
            for r in &records {
                use std::fmt::Write as _;
                let _ = writeln!(
                    text,
                    "{},{},{},{}",
                    r.workload, r.section_index, r.cpi, r.predicted_cpi
                );
            }
            text
        }
        "json" => {
            let mut text = serde_json::to_string_pretty(&records)
                .map_err(|e| CliError::Other(e.to_string()))?;
            text.push('\n');
            text
        }
        other => {
            return Err(CliError::Usage(format!(
                "option --format: unknown format {other:?} (expected csv or json)"
            )))
        }
    };
    match args.options.get("out") {
        Some(path) => {
            // Atomic publication: a crash mid-write leaves either the old
            // file or nothing at the destination, never a torn report.
            mtperf_obs::fsio::atomic_write(path, rendered.as_bytes())
                .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
            println!("{} predictions -> {path}", records.len());
        }
        None => write!(out, "{rendered}")?,
    }
    Ok(())
}

/// `mtperf sweep`: design-space exploration through a trained model.
///
/// Reads a [`sweep::SweepSpec`] JSON file, enumerates the configuration
/// grid, moves the sections of `--data` onto each configuration, and prints
/// the best configurations with per-config counter blame. Configurations
/// the model cannot tell apart share one class, and a section's zero rates
/// drop out, so each distinct transplanted row goes through the compiled
/// parallel engine once ([`sweep::run`]). The rule is the same for plain,
/// analytic-feature and residual models: an analytic column reads every
/// counter's scale factor, and the base machine's analytic model prices it
/// for every configuration. `--out` writes the full
/// `mtperf-sweep-v1` JSON report (atomically); `--format json` prints it to
/// stdout instead of the table.
///
/// # Errors
///
/// [`CliError::Usage`] for bad options or spec parameters (unknown machine,
/// zero axis values, oversized grids), [`CliError::Data`] for an unreadable
/// spec, a model/data width mismatch, or a section that prices to a number
/// that is not finite (the message names the section and the column),
/// [`CliError::Io`] for file errors.
pub fn cmd_sweep(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let spec_path = args.require("spec")?;
    let tree = ModelTree::load(args.require("model")?)?;
    let samples = load_samples(args.require("data")?, ingest_policy(args)?)?;
    let top: usize = args.numeric("top", 10)?;
    let format = args
        .options
        .get("format")
        .map(String::as_str)
        .unwrap_or("table");
    if !matches!(format, "table" | "json") {
        return Err(CliError::Usage(format!(
            "option --format: unknown format {format:?} (expected table or json)"
        )));
    }
    let text = std::fs::read_to_string(spec_path)
        .map_err(|e| CliError::Io(format!("{spec_path}: {e}")))?;
    let spec: sweep::SweepSpec =
        serde_json::from_str(&text).map_err(|e| CliError::Data(format!("{spec_path}: {e}")))?;
    parallel::warm_up();
    let report = sweep::run(
        &spec,
        &tree,
        &samples,
        args.flag("residual"),
        parallel::global(),
    )
    .map_err(|e| section_error("sweep", &samples, tree.attr_names(), e))?;
    if let Some(path) = args.options.get("out") {
        let mut json =
            serde_json::to_string_pretty(&report).map_err(|e| CliError::Other(e.to_string()))?;
        json.push('\n');
        mtperf_obs::fsio::atomic_write(path, json.as_bytes())
            .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
        eprintln!("{} configurations -> {path}", report.n_configs);
    }
    match format {
        "json" => {
            let mut json = serde_json::to_string_pretty(&report)
                .map_err(|e| CliError::Other(e.to_string()))?;
            json.push('\n');
            write!(out, "{json}")?;
        }
        _ => write!(out, "{}", sweep::format_table(&report, top))?,
    }
    Ok(())
}

/// Coverage a multi-seed sweep must reach in aggregate. A single seed may
/// legitimately roll few of some scenario; a sweep that *never* exercises
/// a surface is a silently weakened harness, so the sweep — not each seed
/// — owns the floor. Single-seed runs (replays of a failing seed) are
/// exempt.
struct SweepCoverage {
    requests: u64,
    responses: u64,
    typed_errors: u64,
    restarts: u64,
    faults: u64,
    multi_conn_sessions: u64,
    registry_ops: u64,
    cache_lookups: u64,
    fleet_kills: u64,
    fleet_circuit_opens: u64,
    fleet_hedged: u64,
    fleet_failovers: u64,
}

impl SweepCoverage {
    fn absorb(&mut self, r: &crate::serve::dst::SimReport) {
        self.requests += r.requests;
        self.responses += r.responses;
        self.typed_errors += r.typed_errors;
        self.restarts += r.restarts;
        self.faults += r.faults_injected;
        self.multi_conn_sessions += r.multi_conn_sessions;
        self.registry_ops += r.registry_ops;
        self.cache_lookups += r.cache_hits + r.cache_misses;
    }

    fn absorb_fleet(&mut self, r: &crate::serve::fleet::dst::FleetSimReport) {
        self.fleet_kills += r.replica_kills;
        self.fleet_circuit_opens += r.circuit_opens;
        self.fleet_hedged += r.hedged_predicts;
        self.fleet_failovers += r.failovers;
    }

    /// Floors every aggregate must clear; returns the list of misses.
    fn misses(&self) -> Vec<String> {
        let floors: [(&str, u64, u64); 12] = [
            ("requests", self.requests, 1),
            ("responses", self.responses, 1),
            ("typed_errors", self.typed_errors, 1),
            ("restarts", self.restarts, 1),
            ("fs_faults", self.faults, 1),
            ("multi_conn_sessions", self.multi_conn_sessions, 1),
            ("registry_ops", self.registry_ops, 1),
            ("cache_lookups", self.cache_lookups, 1),
            ("fleet_replica_kills", self.fleet_kills, 1),
            ("fleet_circuit_opens", self.fleet_circuit_opens, 1),
            ("fleet_hedged_predicts", self.fleet_hedged, 1),
            ("fleet_failovers", self.fleet_failovers, 1),
        ];
        floors
            .iter()
            .filter(|(_, got, floor)| got < floor)
            .map(|(name, got, floor)| format!("{name}={got} (floor {floor})"))
            .collect()
    }
}

/// `mtperf dst`: deterministic simulation sweep of the serving stack.
///
/// Runs `--seeds` consecutive seeds starting at `--seed` (default: the
/// `MTPERF_SIM_SEED` environment variable, else 1), each simulating
/// `--sessions` randomized client sessions under virtual time, and checks
/// the serving invariants. With `--trace-dir`, writes one replayable trace
/// file per seed. The first failing seed stops the sweep; replay it with
/// `mtperf dst --seed <N> --sessions <N>`.
///
/// A multi-seed sweep additionally aggregates coverage counters across
/// all seeds and fails when the aggregate misses a floor — every surface
/// the harness exists to exercise (typed errors, restarts, injected
/// faults, multi-connection sessions, registry ops, cache lookups) must
/// actually have been hit somewhere in the sweep.
///
/// # Errors
///
/// [`CliError::Usage`] for bad options, [`CliError::Other`] when a seed
/// violates an invariant (the seed and violations are printed first) or
/// when the sweep's aggregate coverage misses a floor.
pub fn cmd_dst(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let base_seed: u64 = match args.options.get("seed") {
        Some(v) => v
            .parse()
            .map_err(|_| CliError::Usage(format!("option --seed has invalid value {v:?}")))?,
        None => match std::env::var("MTPERF_SIM_SEED") {
            Ok(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("MTPERF_SIM_SEED has invalid value {v:?}")))?,
            Err(_) => 1,
        },
    };
    let seeds: u64 = args.numeric("seeds", 1).map_err(CliError::Usage)?;
    let sessions: usize = args.numeric("sessions", 200).map_err(CliError::Usage)?;
    if seeds == 0 || sessions == 0 {
        return Err(CliError::Usage(
            "options --seeds and --sessions must be at least 1".to_string(),
        ));
    }
    let trace_dir = args.options.get("trace-dir").map(std::path::PathBuf::from);
    if let Some(dir) = &trace_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::Io(format!("{}: {e}", dir.display())))?;
    }
    let mut coverage = SweepCoverage {
        requests: 0,
        responses: 0,
        typed_errors: 0,
        restarts: 0,
        faults: 0,
        multi_conn_sessions: 0,
        registry_ops: 0,
        cache_lookups: 0,
        fleet_kills: 0,
        fleet_circuit_opens: 0,
        fleet_hedged: 0,
        fleet_failovers: 0,
    };
    for seed in base_seed..base_seed.saturating_add(seeds) {
        let report = crate::serve::dst::run_sim(&crate::serve::dst::SimConfig { seed, sessions });
        coverage.absorb(&report);
        writeln!(
            out,
            "dst seed={seed} sessions={sessions} requests={} responses={} typed_errors={} \
             restarts={} fs_faults={} multi_conn={} registry_ops={} cache_hits={} \
             cache_misses={} quota_refusals={} trace_hash={:016x} verdict={}",
            report.requests,
            report.responses,
            report.typed_errors,
            report.restarts,
            report.faults_injected,
            report.multi_conn_sessions,
            report.registry_ops,
            report.cache_hits,
            report.cache_misses,
            report.quota_refusals,
            report.trace_hash(),
            if report.passed() { "pass" } else { "FAIL" },
        )?;
        if let Some(dir) = &trace_dir {
            let path = dir.join(format!("dst-{seed:016x}.trace"));
            report
                .write_trace(&path)
                .map_err(|e| CliError::Io(format!("{}: {e}", path.display())))?;
        }
        if !report.passed() {
            for v in &report.violations {
                writeln!(out, "dst seed={seed} violation: {v}")?;
            }
            writeln!(
                out,
                "dst: replay with `mtperf dst --seed {seed} --sessions {sessions}`"
            )?;
            return Err(CliError::Other(format!(
                "dst: seed {seed} violated {} invariant(s)",
                report.violations.len()
            )));
        }
        let fleet_report =
            crate::serve::fleet::dst::run_fleet_sim(&crate::serve::fleet::dst::FleetSimConfig {
                seed,
                sessions,
            });
        coverage.absorb_fleet(&fleet_report);
        writeln!(
            out,
            "dst fleet seed={seed} sessions={sessions} requests={} responses={} \
             typed_errors={} kills={} restarts={} circuit_opens={} hedged={} failovers={} \
             unavailable={} broadcasts={} fs_faults={} trace_hash={:016x} verdict={}",
            fleet_report.requests,
            fleet_report.responses,
            fleet_report.typed_errors,
            fleet_report.replica_kills,
            fleet_report.replica_restarts,
            fleet_report.circuit_opens,
            fleet_report.hedged_predicts,
            fleet_report.failovers,
            fleet_report.unavailable,
            fleet_report.broadcasts,
            fleet_report.fs_faults,
            fleet_report.trace_hash(),
            if fleet_report.passed() {
                "pass"
            } else {
                "FAIL"
            },
        )?;
        if let Some(dir) = &trace_dir {
            let path = dir.join(format!("dst-fleet-{seed:016x}.trace"));
            fleet_report
                .write_trace(&path)
                .map_err(|e| CliError::Io(format!("{}: {e}", path.display())))?;
        }
        if !fleet_report.passed() {
            for v in &fleet_report.violations {
                writeln!(out, "dst fleet seed={seed} violation: {v}")?;
            }
            writeln!(
                out,
                "dst: replay with `mtperf dst --seed {seed} --sessions {sessions}`"
            )?;
            return Err(CliError::Other(format!(
                "dst: fleet seed {seed} violated {} invariant(s)",
                fleet_report.violations.len()
            )));
        }
    }
    if seeds > 1 {
        writeln!(
            out,
            "dst sweep seeds={seeds} requests={} responses={} typed_errors={} restarts={} \
             fs_faults={} multi_conn={} registry_ops={} cache_lookups={}",
            coverage.requests,
            coverage.responses,
            coverage.typed_errors,
            coverage.restarts,
            coverage.faults,
            coverage.multi_conn_sessions,
            coverage.registry_ops,
            coverage.cache_lookups,
        )?;
        writeln!(
            out,
            "dst fleet sweep seeds={seeds} kills={} circuit_opens={} hedged={} failovers={}",
            coverage.fleet_kills,
            coverage.fleet_circuit_opens,
            coverage.fleet_hedged,
            coverage.fleet_failovers,
        )?;
        let misses = coverage.misses();
        if !misses.is_empty() {
            for m in &misses {
                writeln!(out, "dst sweep coverage floor missed: {m}")?;
            }
            return Err(CliError::Other(format!(
                "dst: sweep of {seeds} seeds missed {} aggregate coverage floor(s)",
                misses.len()
            )));
        }
    }
    Ok(())
}

/// Dispatches a parsed command line.
///
/// # Errors
///
/// Propagates subcommand failures as [`CliError`]s; unknown commands return
/// a usage hint classified as [`CliError::Usage`].
pub fn dispatch(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    if let Some(threads) = args.options.get("threads") {
        let par: Parallelism = threads
            .parse()
            .map_err(|e| CliError::Usage(format!("option --threads: {e}")))?;
        parallel::set_global(par);
    }
    let obs = obs_config(args)?;
    if !obs.is_off() {
        // Explicit flags win over the MTPERF_* environment hooks; with no
        // flags the environment still decides lazily at the first span.
        mtperf_obs::init(obs).map_err(|e| CliError::Io(format!("--trace-out: {e}")))?;
    }
    let result = match args.command.as_str() {
        "simulate" => cmd_simulate(args),
        "train" => cmd_train(args),
        "show" => cmd_show(args, out),
        "evaluate" => cmd_evaluate(args, out),
        "analyze" => cmd_analyze(args, out),
        "predict" => cmd_predict(args, out),
        "sweep" => cmd_sweep(args, out),
        "serve" => crate::serve::cmd_serve(args),
        "dst" => cmd_dst(args, out),
        other => Err(CliError::Usage(format!(
            "unknown command {other:?}\n\n{USAGE}"
        ))),
    };
    // Emitted even when the command failed: a partial trace of a failing run
    // is exactly when the diagnostics matter most.
    if let Some(report) = mtperf_obs::finish() {
        emit_obs_report(&report);
    }
    result
}

/// `true` if `path` exists (test helper for artifacts).
pub fn exists(path: impl AsRef<Path>) -> bool {
    path.as_ref().exists()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Args {
        Args::parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn parse_command_options_flags() {
        let a = args(&[
            "train",
            "--data",
            "x.csv",
            "--no-smoothing",
            "--out",
            "m.json",
        ]);
        assert_eq!(a.command, "train");
        assert_eq!(a.require("data").unwrap(), "x.csv");
        assert_eq!(a.require("out").unwrap(), "m.json");
        assert!(a.flag("no-smoothing"));
        assert!(!a.flag("other"));
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(Args::parse(&[]).is_err());
        assert!(Args::parse(&["train".into(), "positional".into()]).is_err());
    }

    #[test]
    fn numeric_defaults_and_errors() {
        let a = args(&["simulate", "--seed", "42"]);
        assert_eq!(a.numeric::<u64>("seed", 0).unwrap(), 42);
        assert_eq!(a.numeric::<u64>("missing", 7).unwrap(), 7);
        let bad = args(&["simulate", "--seed", "xyz"]);
        assert!(bad.numeric::<u64>("seed", 0).is_err());
    }

    #[test]
    fn require_reports_missing() {
        let a = args(&["train"]);
        let err = a.require("data").unwrap_err();
        assert!(err.contains("--data"));
    }

    #[test]
    fn unknown_command_mentions_usage() {
        let a = args(&["frobnicate"]);
        let mut out = Vec::new();
        let err = dispatch(&a, &mut out).unwrap_err();
        assert!(err.to_string().contains("USAGE"));
    }

    #[test]
    fn threads_flag_sets_global_parallelism() {
        let original = parallel::global();
        let a = args(&["frobnicate", "--threads", "3"]);
        let mut out = Vec::new();
        // Unknown command still errors, but the global is set first.
        assert!(dispatch(&a, &mut out).is_err());
        assert_eq!(parallel::global(), Parallelism::Fixed(3));
        parallel::set_global(original);
    }

    #[test]
    fn bad_threads_value_is_rejected() {
        let a = args(&["evaluate", "--threads", "zero"]);
        let mut out = Vec::new();
        let err = dispatch(&a, &mut out).unwrap_err();
        assert!(err.to_string().contains("--threads"), "{err}");
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn policy_option_parses_all_variants() {
        assert_eq!(
            ingest_policy(&args(&["train"])).unwrap(),
            IngestPolicy::Strict
        );
        for (text, want) in [
            ("strict", IngestPolicy::Strict),
            ("skip", IngestPolicy::Skip),
            ("repair", IngestPolicy::Repair),
        ] {
            let a = args(&["train", "--policy", text]);
            assert_eq!(ingest_policy(&a).unwrap(), want);
        }
        let err = ingest_policy(&args(&["train", "--policy", "lenient"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--policy"), "{err}");
    }

    #[test]
    fn error_classes_reach_the_cli_layer() {
        // Missing file -> i/o class.
        let err = load_samples("/nonexistent/mtperf.csv", IngestPolicy::Strict).unwrap_err();
        assert_eq!(err.exit_code(), 74);

        // Corrupt data under strict -> data class; under skip it loads.
        let dir = std::env::temp_dir().join("mtperf-cli-policy-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.csv");
        let set: mtperf_counters::SampleSet = (0..4)
            .map(|i| {
                mtperf_counters::SectionSample::new("w", i, 1.0, [0.1; mtperf_counters::N_EVENTS])
            })
            .collect();
        let mut buf = Vec::new();
        mtperf_counters::write_csv(&set, &mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push_str("w,9,NaN");
        text.push('\n');
        std::fs::write(&path, &text).unwrap();

        let path = path.display().to_string();
        let err = load_samples(&path, IngestPolicy::Strict).unwrap_err();
        assert_eq!(err.exit_code(), 65);
        let loaded = load_samples(&path, IngestPolicy::Skip).unwrap();
        assert_eq!(loaded.len(), 4);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn simulate_rejects_sizes_that_leave_nothing_to_run() {
        let dir = std::env::temp_dir().join("mtperf-cli-simulate-sizes");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("suite.csv");
        let out = csv.display().to_string();
        for (option, value) in [
            ("--section-len", "0"),
            ("--instructions", "0"),
            ("--instructions", "4"),
        ] {
            let a = args(&["simulate", "--out", &out, option, value]);
            let err = cmd_simulate(&a).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{option} {value}: {err}");
            assert!(err.to_string().contains(option), "{err}");
            assert!(!csv.exists(), "{option} {value} created the output");
        }
        cmd_simulate(&args(&["simulate", "--out", &out, "--instructions", "5"])).unwrap();
        assert!(csv.exists());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn end_to_end_simulate_train_show_analyze() {
        let dir = std::env::temp_dir().join("mtperf-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("suite.csv").display().to_string();
        let arff = dir.join("suite.arff").display().to_string();
        let model = dir.join("model.json").display().to_string();

        // simulate (tiny)
        cmd_simulate(&args(&[
            "simulate",
            "--out",
            &csv,
            "--arff",
            &arff,
            "--instructions",
            "60000",
            "--seed",
            "3",
        ]))
        .unwrap();
        assert!(exists(&csv) && exists(&arff));

        // train
        cmd_train(&args(&["train", "--data", &csv, "--out", &model])).unwrap();
        assert!(exists(&model));

        // show
        let mut shown = Vec::new();
        cmd_show(&args(&["show", "--model", &model]), &mut shown).unwrap();
        let shown = String::from_utf8(shown).unwrap();
        assert!(shown.contains("LM1"), "{shown}");

        let mut rules = Vec::new();
        cmd_show(&args(&["show", "--model", &model, "--rules"]), &mut rules).unwrap();
        assert!(String::from_utf8(rules).unwrap().contains("Rule 1"));

        // analyze
        let mut report = Vec::new();
        cmd_analyze(
            &args(&["analyze", "--model", &model, "--data", &csv]),
            &mut report,
        )
        .unwrap();
        let report = String::from_utf8(report).unwrap();
        assert!(report.contains("median CPI"), "{report}");

        // predict: CSV to stdout, JSON to a file, and agreement with the
        // interpreted per-row path.
        let mut pred_csv = Vec::new();
        cmd_predict(
            &args(&["predict", "--model", &model, "--data", &csv]),
            &mut pred_csv,
        )
        .unwrap();
        let pred_csv = String::from_utf8(pred_csv).unwrap();
        let mut lines = pred_csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "workload,section_index,cpi,predicted_cpi"
        );
        let tree = ModelTree::load(&model).unwrap();
        let samples = load_samples(&csv, IngestPolicy::Strict).unwrap();
        let data = crate::dataset_from_samples(&samples).unwrap();
        let mut n_rows = 0;
        for (i, line) in lines.enumerate() {
            let p: f64 = line.rsplit(',').next().unwrap().parse().unwrap();
            assert_eq!(
                p.to_bits(),
                tree.predict(&data.row(i)).to_bits(),
                "line {i}: {line}"
            );
            n_rows += 1;
        }
        assert_eq!(n_rows, data.n_rows());

        let json_out = dir.join("pred.json").display().to_string();
        let mut sink = Vec::new();
        cmd_predict(
            &args(&[
                "predict", "--model", &model, "--data", &csv, "--out", &json_out, "--format",
                "json",
            ]),
            &mut sink,
        )
        .unwrap();
        let json = std::fs::read_to_string(&json_out).unwrap();
        assert!(json.trim_start().starts_with('['), "{json}");
        assert!(json.contains("\"predicted_cpi\""), "{json}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn predict_rejects_unknown_format() {
        let mut out = Vec::new();
        let dir = std::env::temp_dir().join("mtperf-cli-predict-fmt");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("suite.csv").display().to_string();
        let model = dir.join("model.json").display().to_string();
        cmd_simulate(&args(&[
            "simulate",
            "--out",
            &csv,
            "--instructions",
            "60000",
        ]))
        .unwrap();
        cmd_train(&args(&["train", "--data", &csv, "--out", &model])).unwrap();
        let err = cmd_predict(
            &args(&[
                "predict", "--model", &model, "--data", &csv, "--format", "yaml",
            ]),
            &mut out,
        )
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--format"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn predict_classifies_missing_files_as_io() {
        let mut out = Vec::new();
        let err = cmd_predict(
            &args(&[
                "predict",
                "--model",
                "/nonexistent/model.json",
                "--data",
                "/nonexistent/data.csv",
            ]),
            &mut out,
        )
        .unwrap_err();
        assert_eq!(err.exit_code(), 74);
    }

    /// The training pipeline's file reads go through the fs-fault seam:
    /// transient (EINTR-class) read faults are absorbed by the bounded
    /// retry, persistent ones surface as the typed i/o error (exit 74) —
    /// and neither path ever panics.
    #[test]
    fn train_under_seeded_read_faults_retries_then_fails_typed() {
        use mtperf_detsim::{FaultScript, FsOp};
        use std::sync::Arc;

        // Seam installation is process-global; serialize with the DST
        // harness like every other simulation.
        let seams = crate::serve::dst::SeamGuard::new();

        let dir = std::env::temp_dir().join("mtperf-cli-read-fault-test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("train-faults.csv");
        let set: mtperf_counters::SampleSet = (0..16)
            .map(|i| {
                let mut events = [0.02; mtperf_counters::N_EVENTS];
                events[0] = 0.01 * (i % 5) as f64;
                mtperf_counters::SectionSample::new("w", i, 0.8 + 0.05 * (i % 3) as f64, events)
            })
            .collect();
        let mut buf = Vec::new();
        mtperf_counters::write_csv(&set, &mut buf).unwrap();
        std::fs::write(&csv, &buf).unwrap();
        let csv = csv.display().to_string();
        let model = dir.join("model.json").display().to_string();

        let script = Arc::new(FaultScript::new());
        seams.install(77, &script);

        // Two transient faults on the data file: with_retry's 4-deep
        // backoff schedule absorbs them and the full ingest->fit->save
        // pipeline still succeeds.
        script.fail_times(
            Some(FsOp::Read),
            "train-faults.csv",
            std::io::ErrorKind::Interrupted,
            2,
        );
        cmd_train(&args(&["train", "--data", &csv, "--out", &model])).unwrap();
        assert_eq!(script.injected(), 2, "the transient faults never fired");
        assert!(std::path::Path::new(&model).exists());

        // A persistent fault exhausts the retries and must surface as the
        // typed i/o class (exit 74) — never a panic.
        script.clear();
        script.fail_always(
            Some(FsOp::Read),
            "train-faults.csv",
            std::io::ErrorKind::PermissionDenied,
        );
        let err = cmd_train(&args(&["train", "--data", &csv, "--out", &model])).unwrap_err();
        assert_eq!(err.exit_code(), 74);
        assert!(err.to_string().contains("train-faults.csv"), "{err}");

        script.clear();
        std::fs::remove_dir_all(&dir).ok();
    }
}
