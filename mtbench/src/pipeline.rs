//! `paper_pipeline`: the paper's experiment as a user runs it, in-process.
//!
//! Simulate the 15-profile suite at 2M instructions per profile, write the
//! counters CSV, then repeat analysis rounds for the measured window. One
//! round is what a user re-runs after each change: `evaluate` (CSV bytes →
//! strict ingest → 10-fold CV → full fit → compile), compile-and-predict
//! every section, and `sweep::run` over `examples/sweep_spec.json`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mtperf::counters::{read_csv_with_policy, IngestPolicy, SampleSet};
use mtperf::eval::{cross_validate, CvResult};
use mtperf::linalg::{parallel, Matrix, Parallelism};
use mtperf::mtree::{analysis, M5Learner, M5Params, ModelTree};
use mtperf::sim::workload::{profiles, InstrStream};
use mtperf::sweep::{self, SweepSpec};

use crate::inputs::{csv_bytes, PIPELINE_INSTR};
use crate::layers::{compiled_layer, overhead, self_times, simulate, tiled};
use crate::trace::Tracer;
use crate::util::{digest_f64s, fnv1a, median, percentile, secs, Fnv};
use crate::{Config, Outcome};

const SPEC_PATH: &str = "examples/sweep_spec.json";
/// `mtperf evaluate` defaults.
const CV_FOLDS: usize = 10;
const CV_SEED: u64 = 7;
const SETUP_REPEATS: usize = 101;
/// Instructions per profile replayed through the generator alone.
const GEN_SAMPLE: u64 = 200_000;
/// Rows per sweep block, as `sweep::run` chunks them.
const SWEEP_BLOCK_ROWS: usize = 65_536;

/// The `mtperf train`/`evaluate` parameters for `n_rows` sections.
pub fn params(n_rows: usize) -> M5Params {
    M5Params::default()
        .with_min_instances((n_rows / 30).max(8))
        .with_parallelism(parallel::global())
}

struct Round {
    total: Duration,
    evaluate: Duration,
    predict: Duration,
    sweep: Duration,
    /// CPU time of this process (every thread) over the round.
    cpu_s: f64,
    rows: u64,
    traced: bool,
    /// Digest of the round's CV metrics, predictions and sweep report.
    digest: u64,
    /// Outputs, kept for the first round only so that memory reflects one
    /// round's working set.
    outputs: Option<Outputs>,
}

struct Outputs {
    cv: CvResult,
    tree: ModelTree,
    matrix: Matrix,
    predictions: Vec<f64>,
    sweep_json: String,
    samples: SampleSet,
}

impl Outputs {
    fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.update(&cv_digest(&self.cv).to_le_bytes());
        h.update(&digest_f64s(&self.predictions).to_le_bytes());
        h.update(self.sweep_json.as_bytes());
        h.finish()
    }
}

fn round(t: &mut Tracer, r: u64, csv: &[u8], n: u64, spec: &SweepSpec) -> Result<Round, String> {
    let cpu_start = own_cpu_seconds()?;
    let start = Instant::now();
    let (samples, data, cv, tree, compiled) = t.span("eval.evaluate", "eval", r, n, |t| {
        let (samples, _) = t
            .span("counters.read_csv", "counters", r, n, |_| {
                read_csv_with_policy(csv, IngestPolicy::Strict)
            })
            .map_err(|e| format!("read_csv: {e}"))?;
        let data = t
            .span("counters.to_dataset", "counters", r, n, |_| {
                mtperf::dataset_from_samples(&samples)
            })
            .map_err(|e| format!("dataset: {e}"))?;
        let params = params(data.n_rows());
        let learner = M5Learner::new(params.clone());
        let cv = t
            .span("eval.cross_validate", "eval", r, n, |_| {
                cross_validate(&learner, &data, CV_FOLDS, CV_SEED)
            })
            .map_err(|e| format!("cross_validate: {e}"))?;
        let tree = t
            .span("mtree.fit", "mtree", r, n, |_| {
                ModelTree::fit(&data, &params)
            })
            .map_err(|e| format!("fit: {e}"))?;
        let compiled = t.span("compiled.compile", "compiled", r, 0, |_| tree.compile());
        Ok::<_, String>((samples, data, cv, tree, compiled))
    })?;
    let evaluate = start.elapsed();

    let matrix = data.to_matrix();
    let p = Instant::now();
    let predictions = t
        .span("compiled.predict", "compiled", r, n, |_| {
            compiled.try_predict_batch_with(&matrix, Parallelism::Auto)
        })
        .map_err(|e| format!("predict: {e}"))?;
    let predict = p.elapsed();

    let s = Instant::now();
    let report = t
        .span("sweep.run", "sweep", r, 0, |_| {
            sweep::run(spec, &tree, &samples, false, Parallelism::Auto)
        })
        .map_err(|e| format!("sweep: {e}"))?;
    let sweep = s.elapsed();
    let total = start.elapsed();
    let cpu_s = own_cpu_seconds()? - cpu_start;
    let outputs = Outputs {
        cv,
        tree,
        matrix,
        predictions,
        sweep_json: serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?,
        samples,
    };
    Ok(Round {
        total,
        evaluate,
        predict,
        sweep,
        cpu_s,
        rows: n + (report.n_configs * report.n_sections) as u64,
        traced: t.is_on(),
        digest: outputs.digest(),
        outputs: Some(outputs),
    })
}

pub fn run(cfg: &Config, out: &mut Outcome) -> Result<(), String> {
    let mut t = Tracer::new(cfg.trace);
    // Pool start-up and its overhead calibration happen once per process,
    // before the first timed call, as `mtperf sweep` and `predict` do.
    parallel::warm_up();

    let mut setup = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let text = std::fs::read_to_string(SPEC_PATH).map_err(|e| format!("{SPEC_PATH}: {e}"))?;
        let spec: SweepSpec =
            serde_json::from_str(&text).map_err(|e| format!("{SPEC_PATH}: {e}"))?;
        let configs = spec
            .enumerate()
            .map_err(|e| format!("{SPEC_PATH}: {e}"))?
            .len();
        let specs = profiles::suite(PIPELINE_INSTR);
        setup.push(secs(start.elapsed()));
        prepared = Some((spec, configs, specs));
    }
    let (spec, n_configs, specs) = prepared.expect("at least one set-up");
    out.metrics.set("setup_s", median(&setup));

    let simulated = simulate(&specs, cfg.seed, &mut t);
    let simulate_minstr_per_s = simulated.minstr_per_s();
    let (samples, instr, sim_wall) = (simulated.samples, simulated.instr, simulated.wall);
    let n = samples.len() as u64;
    let csv = t.span("counters.write_csv", "counters", 0, n, |_| {
        csv_bytes(&samples)
    });

    // One untimed round first, so one-time costs (first allocations of
    // each size, pool threads' first wake-up) stay out of the window.
    t.set_on(false);
    round(&mut t, u64::MAX, &csv, n, &spec)?;
    // Peak memory counts from here: the analysis rounds a user repeats,
    // not simulation and first use.
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak RSS: {e}"))?;

    let window = Duration::from_secs_f64(cfg.seconds);
    let min_rounds = if cfg.trace { 2 } else { 1 };
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < min_rounds || start.elapsed() < window {
        // A traced run alternates traced and untraced rounds of identical
        // work, which measures the spans' own overhead.
        t.set_on(cfg.trace && rounds.len().is_multiple_of(2));
        let mut r = round(&mut t, rounds.len() as u64, &csv, n, &spec)?;
        if !rounds.is_empty() {
            r.outputs = None;
        }
        rounds.push(r);
    }
    t.set_on(cfg.trace);
    out.attempted = rounds.len() as u64;

    // Per round, so that a neighbour's burst moves a few rounds and not
    // the result.
    let cpu_per_row: Vec<f64> = rounds
        .iter()
        .map(|r| r.cpu_s * 1e6 / r.rows as f64)
        .collect();
    out.metrics.set("cpu_us_per_row", median(&cpu_per_row));
    let cpu_s: f64 = rounds.iter().map(|r| r.cpu_s).sum();
    let totals: Vec<f64> = rounds.iter().map(|r| secs(r.total) * 1e3).collect();
    out.metrics.set("latency.p50_ms", median(&totals));
    let p99 = percentile(&totals, 99.0);
    out.metrics.set("latency.p99_ms", p99);
    let rates: Vec<f64> = rounds
        .iter()
        .map(|r| r.rows as f64 / secs(r.predict + r.sweep))
        .collect();
    out.metrics.set("throughput.rows_per_s", median(&rates));
    let evaluate_s: Vec<f64> = rounds.iter().map(|r| secs(r.evaluate)).collect();
    let sweep_configs: Vec<f64> = rounds
        .iter()
        .map(|r| n_configs as f64 / secs(r.sweep))
        .collect();
    out.detail(
        "stage_metrics",
        format!(
            "{{\"simulate_minstr_per_s\":{simulate_minstr_per_s},\"evaluate_s\":{},\"sweep_configs_per_s\":{},\"rows_per_s\":{},\"p50_ms\":{},\"p99_ms\":{p99},\"cpu_s\":{cpu_s}}}",
            median(&evaluate_s),
            median(&sweep_configs),
            median(&rates),
            median(&totals)
        ),
    );
    out.metrics.set(
        "memory.peak_rss_mb",
        crate::util::peak_rss_mb("self").unwrap_or(0.0),
    );
    let round_ms: Vec<String> = totals.iter().map(|t| format!("{t:.1}")).collect();
    out.detail("round_ms", format!("[{}]", round_ms.join(",")));
    out.detail("sections", n.to_string());
    out.detail("sweep_configs", n_configs.to_string());

    let first = rounds[0]
        .outputs
        .as_ref()
        .expect("the first round keeps its outputs");
    check(out, &rounds, first, &spec)?;

    if cfg.trace {
        layer_metrics(
            cfg, out, &mut t, &rounds, first, &specs, &spec, instr, sim_wall,
        )?;
        out.spans = Some(t.to_jsonl());
    }
    out.detail(
        "digests",
        format!(
            "{{\"simulated_csv\":\"{:016x}\",\"cv_metrics\":\"{:016x}\",\"sweep_json\":\"{:016x}\",\"predictions\":\"{:016x}\"}}",
            fnv1a(&csv),
            cv_digest(&first.cv),
            fnv1a(first.sweep_json.as_bytes()),
            digest_f64s(&first.predictions)
        ),
    );
    Ok(())
}

/// CPU seconds this process (every thread, the worker pool included) has
/// used so far.
fn own_cpu_seconds() -> Result<f64, String> {
    crate::util::cpu_seconds("self").ok_or_else(|| "no CPU time for this process".to_string())
}

fn cv_digest(cv: &CvResult) -> u64 {
    let mut h = Fnv::new();
    for v in [
        cv.pooled.correlation,
        cv.pooled.mae,
        cv.aggregate.correlation,
        cv.aggregate.mae,
    ] {
        h.update(&v.to_bits().to_le_bytes());
    }
    h.finish()
}

/// Output checks, after the timed window.
fn check(
    out: &mut Outcome,
    rounds: &[Round],
    first: &Outputs,
    spec: &SweepSpec,
) -> Result<(), String> {
    let c = first.cv.pooled.correlation;
    out.check("cv_c_at_least_0.95", c >= 0.95, format!("C = {c}"));

    let same = rounds.iter().all(|r| r.digest == rounds[0].digest);
    out.check(
        "rounds_identical",
        same,
        format!(
            "{} rounds give identical CV, predictions and sweep",
            rounds.len()
        ),
    );

    let serial = first
        .tree
        .compile()
        .try_predict_batch_with(&first.matrix, Parallelism::Off)
        .map_err(|e| format!("serial predict: {e}"))?;
    let mismatches = (0..first.matrix.rows())
        .filter(|&i| {
            let want = first.tree.predict(first.matrix.row(i)).to_bits();
            first.predictions[i].to_bits() != want || serial[i].to_bits() != want
        })
        .count();
    out.check(
        "predictions_bit_identical",
        mismatches == 0,
        format!(
            "{mismatches} of {} sections differ from ModelTree::predict",
            serial.len()
        ),
    );

    let off = sweep::run(spec, &first.tree, &first.samples, false, Parallelism::Off)
        .map_err(|e| format!("serial sweep: {e}"))?;
    let off_json = serde_json::to_string_pretty(&off).map_err(|e| e.to_string())?;
    out.check(
        "sweep_off_equals_auto",
        off_json == first.sweep_json,
        format!("{} bytes under Parallelism::Off vs Auto", off_json.len()),
    );
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    cfg: &Config,
    out: &mut Outcome,
    t: &mut Tracer,
    rounds: &[Round],
    first: &Outputs,
    specs: &[mtperf::sim::workload::WorkloadSpec],
    spec: &SweepSpec,
    instr: u64,
    sim_wall: Duration,
) -> Result<(), String> {
    let m = &mut out.metrics;
    let n = first.matrix.rows() as f64;

    m.set(
        "sim.ns_per_instr",
        sim_wall.as_nanos() as f64 / instr as f64,
    );
    m.set("sim.instr", instr as f64);
    m.set("sim.sections", n);
    let (gen_ns, gen_instr) = generator_alone(specs, cfg.seed);
    m.set("sim.gen_ns_per_instr", gen_ns / gen_instr as f64);

    let per_row = |name: &str| {
        let (ns, rows, _) = t.total(name);
        if rows == 0 {
            0.0
        } else {
            ns as f64 / rows as f64
        }
    };
    m.set("counters.write_ns_per_row", per_row("counters.write_csv"));
    m.set("counters.read_ns_per_row", per_row("counters.read_csv"));

    let span_secs = |name: &str| -> Vec<f64> {
        t.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect()
    };
    m.set("mtree.fit_s", median(&span_secs("mtree.fit")));
    m.set("mtree.leaves", first.tree.n_leaves() as f64);
    m.set("mtree.depth", first.tree.depth() as f64);
    m.set("eval.evaluate_s", median(&span_secs("eval.evaluate")));
    m.set("eval.cv_s", median(&span_secs("eval.cross_validate")));
    m.set("eval.cv_c", first.cv.pooled.correlation);
    m.set("eval.cv_mae", first.cv.pooled.mae);

    let rows: Vec<Vec<f64>> = (0..first.matrix.rows())
        .map(|i| first.matrix.row(i).to_vec())
        .collect();
    compiled_layer(&first.tree, &rows, m)?;

    // The sweep's stages, timed through the same public calls on inputs of
    // the same shape: `enumerate`, compiled predict over 64k-row blocks,
    // and per-config blame. Transplanting is the remainder of the sweep.
    let sweep_s = median(&span_secs("sweep.run"));
    m.set("sweep.configs_per_s", {
        let configs = spec.enumerate().map_err(|e| e.to_string())?.len();
        configs as f64 / sweep_s
    });
    let mut enum_ms = Vec::new();
    let mut points = Vec::new();
    for _ in 0..5 {
        let s = Instant::now();
        points = spec.enumerate().map_err(|e| e.to_string())?;
        enum_ms.push(secs(s.elapsed()) * 1e3);
    }
    m.set("sweep.enumerate_ms", median(&enum_ms));
    let compiled = first.tree.compile();
    let per_block = (SWEEP_BLOCK_ROWS / rows.len()).max(1);
    let s = Instant::now();
    for chunk in points.chunks(per_block) {
        let block = tiled(&rows, chunk.len() * rows.len());
        black_box(
            compiled
                .try_predict_batch_with(&block, Parallelism::Auto)
                .map_err(|e| e.to_string())?,
        );
    }
    let predict_s = secs(s.elapsed());
    let s = Instant::now();
    for c in 0..points.len() {
        let row = &rows[c % rows.len()];
        let contribs = analysis::contributions(&first.tree, row).map_err(|e| e.to_string())?;
        if let Some(top) = contribs
            .iter()
            .max_by(|a, b| a.amount.abs().total_cmp(&b.amount.abs()))
        {
            black_box(
                analysis::what_if(&first.tree, row, top.attr, 0.0).map_err(|e| e.to_string())?,
            );
        }
    }
    let blame_s = secs(s.elapsed());
    m.set("sweep.predict_s", predict_s);
    m.set("sweep.blame_s", blame_s);
    m.set(
        "sweep.transplant_s",
        (sweep_s - predict_s - blame_s - median(&enum_ms) / 1e3).max(0.0),
    );

    let traced: Vec<f64> = rounds
        .iter()
        .filter(|r| r.traced)
        .map(|r| secs(r.total))
        .collect();
    let untraced: Vec<f64> = rounds
        .iter()
        .filter(|r| !r.traced)
        .map(|r| secs(r.total))
        .collect();
    m.set("trace.overhead_frac", overhead(&traced, &untraced));
    self_times(t, m);
    Ok(())
}

/// Time spent in `InstrStream::next_instr` alone, over a prefix of every
/// phase of every profile; the machine model is the rest of `sim.run`.
pub fn generator_alone(specs: &[mtperf::sim::workload::WorkloadSpec], seed: u64) -> (f64, u64) {
    let mut ns = 0.0;
    let mut count = 0u64;
    for w in specs {
        let total = w.total_instructions().max(1);
        for (i, plan) in w.phases.iter().enumerate() {
            let k = (plan.instructions * GEN_SAMPLE / total).max(1);
            let mut stream = InstrStream::new(&plan.spec, seed.wrapping_add(i as u64));
            let s = Instant::now();
            for _ in 0..k {
                black_box(stream.next_instr());
            }
            ns += s.elapsed().as_nanos() as f64;
            count += k;
        }
    }
    (ns, count)
}
