//! Compiled-vs-interpreted prediction throughput, as a scaling curve.
//!
//! Measures rows/sec of the interpreted per-row walk (`ModelTree::predict`
//! over `Dataset::row`) against the compiled batch engine
//! (`CompiledTree::predict_batch`) — serial and at every thread count from
//! 1 to the host's budget — across batch sizes from 1k to 10M rows, and
//! writes the whole curve to `BENCH_predict.json` at the repository root
//! (schema v2, documented in the README) so per-PR regressions are visible
//! per (threads × batch size) cell, not just as one blended number.
//!
//! Set `BENCH_SMOKE=1` to run a reduced sweep (≤100k rows, fewer reps) —
//! that is what CI's `bench-smoke` job runs on every push.

use std::hint::black_box;
use std::time::Instant;

use mtperf_bench::{synthetic_dataset, synthetic_matrix};
use mtperf_linalg::{parallel, Matrix, Parallelism};
use mtperf_mtree::{CompiledTree, M5Params, ModelTree};
use serde::Value;

/// Rows used to *fit* the tree (the model under test is fixed; only the
/// scored batch scales).
const FIT_ROWS: usize = 10_000;
const ATTRS: usize = 20;

/// Batch sizes of the full sweep; the smoke sweep stops at 100k.
const SIZES: [usize; 5] = [1_000, 10_000, 100_000, 1_000_000, 10_000_000];

fn smoke() -> bool {
    std::env::var_os("BENCH_SMOKE").is_some_and(|v| !v.is_empty() && v != "0")
}

fn sweep_sizes() -> &'static [usize] {
    if smoke() {
        &SIZES[..3]
    } else {
        &SIZES
    }
}

/// Repetitions per measurement, scaled down as batches grow so the full
/// sweep stays in tens of seconds.
fn reps_for(rows: usize) -> usize {
    if smoke() {
        7
    } else if rows <= 100_000 {
        25
    } else if rows <= 1_000_000 {
        15
    } else {
        9
    }
}

fn fixture() -> (ModelTree, CompiledTree) {
    let data = synthetic_dataset(FIT_ROWS, ATTRS);
    let tree = ModelTree::fit(
        &data,
        &M5Params::default()
            .with_min_instances(100)
            .with_smoothing(true),
    )
    .unwrap();
    let compiled = tree.compile();
    (tree, compiled)
}

/// The interpreted per-row scoring loop exactly as the evaluation harness
/// ran it before the compiled engine existed: materialize each row as an
/// owned `Vec` (what `Dataset::row` hands out), then walk the boxed tree.
/// Keeping the per-row materialization preserves comparability of the
/// interpreted baseline across the perf history in `BENCH_predict.json`.
#[allow(clippy::unnecessary_to_owned)] // the allocation IS the baseline
fn interpreted_pass(tree: &ModelTree, matrix: &Matrix) -> f64 {
    let mut acc = 0.0;
    for i in 0..matrix.rows() {
        acc += tree.predict(black_box(&matrix.row(i).to_vec()));
    }
    acc
}

/// Median rows/sec over repeated timed passes.
fn rows_per_sec(rows: usize, reps: usize, mut pass: impl FnMut()) -> f64 {
    let mut rates: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            pass();
            rows as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut rates)
}

fn median(rates: &mut [f64]) -> f64 {
    rates.sort_by(f64::total_cmp);
    rates[rates.len() / 2]
}

/// Builds a JSON object from string keys (the vendored serde shim's
/// [`Value`] has no `json!` macro).
fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Pass-through wrapper so a hand-built [`Value`] tree can go through
/// [`serde_json::to_string_pretty`], which wants a [`serde::Serialize`].
struct Raw(Value);

impl serde::Serialize for Raw {
    fn serialize(&self) -> Value {
        self.0.clone()
    }
}

/// Measures the scaling curve and writes `BENCH_predict.json` (schema v2)
/// at the repo root: one entry per batch size with interpreted + serial
/// rates and a per-thread-count parallel sub-curve, plus host metadata and
/// the measured serial/parallel cutover. The legacy flat keys stay at the
/// top level, reporting the largest swept size, so older tooling keeps
/// parsing the file.
fn main() {
    let (tree, compiled) = fixture();
    let max_threads = Parallelism::Auto.threads().max(1);
    parallel::warm_up();

    let mut curve = Vec::new();
    let mut last = (0.0, 0.0, 0.0); // (interpreted, serial, best parallel) at largest size
    for &rows in sweep_sizes() {
        let matrix = synthetic_matrix(rows, ATTRS);
        let reps = reps_for(rows);

        // Warm: touch every page and calibrate the Auto cutover.
        black_box(compiled.predict_batch_with(&matrix, Parallelism::Auto));

        let interpreted = rows_per_sec(rows, reps.min(7), || {
            black_box(interpreted_pass(&tree, &matrix));
        });
        // Serial and every thread count measure round-robin, one pass each
        // per rep: on quota-throttled hosts the clock slows monotonically
        // through the run, and back-to-back blocks of reps would hand the
        // earlier-measured setting a systematic edge. Interleaving spreads
        // the drift evenly; the medians then compare like with like.
        let time_once = |par: Parallelism| {
            let start = Instant::now();
            black_box(compiled.predict_batch_with(&matrix, par));
            rows as f64 / start.elapsed().as_secs_f64()
        };
        let mut serial_rates = Vec::with_capacity(reps);
        let mut fixed_rates: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); max_threads];
        for rep in 0..reps {
            // Alternate within-round order too: on throttled hosts the
            // second pass of a round systematically reads slower, so a
            // fixed order would bias whichever setting always ran last.
            if rep % 2 == 0 {
                serial_rates.push(time_once(Parallelism::Off));
                for (t, rates) in fixed_rates.iter_mut().enumerate() {
                    rates.push(time_once(Parallelism::Fixed(t + 1)));
                }
            } else {
                for (t, rates) in fixed_rates.iter_mut().enumerate().rev() {
                    rates.push(time_once(Parallelism::Fixed(t + 1)));
                }
                serial_rates.push(time_once(Parallelism::Off));
            }
        }
        let serial = median(&mut serial_rates);
        let per_thread: Vec<(usize, f64)> = fixed_rates
            .iter_mut()
            .enumerate()
            .map(|(t, rates)| (t + 1, median(rates)))
            .collect();
        let best_parallel = per_thread.iter().map(|&(_, r)| r).fold(0.0f64, f64::max);
        eprintln!(
            "predict scaling: rows {rows:>9} interpreted {interpreted:>12.0} \
             serial {serial:>12.0} best-parallel {best_parallel:>12.0} rows/s"
        );
        curve.push(obj(vec![
            ("rows", Value::U64(rows as u64)),
            ("interpreted_rows_per_sec", Value::F64(interpreted)),
            ("compiled_serial_rows_per_sec", Value::F64(serial)),
            (
                "compiled_parallel",
                Value::Array(
                    per_thread
                        .iter()
                        .map(|&(t, rate)| {
                            obj(vec![
                                ("threads", Value::U64(t as u64)),
                                ("rows_per_sec", Value::F64(rate)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]));
        last = (interpreted, serial, best_parallel);
    }

    let (interpreted, serial, parallel_rate) = last;
    let root = obj(vec![
        ("bench", Value::Str("predict_throughput".into())),
        ("schema", Value::U64(2)),
        ("smoke", Value::Bool(smoke())),
        ("attrs", Value::U64(ATTRS as u64)),
        ("smoothing", Value::Bool(true)),
        (
            "host",
            obj(vec![
                ("threads", Value::U64(max_threads as u64)),
                ("os", Value::Str(std::env::consts::OS.into())),
                ("arch", Value::Str(std::env::consts::ARCH.into())),
            ]),
        ),
        (
            "cutover_rows",
            match compiled.parallel_cutover() {
                Some(n) => Value::U64(n as u64),
                None => Value::Null,
            },
        ),
        ("curve", Value::Array(curve)),
        // Legacy flat keys (schema v1), reporting the largest swept size.
        (
            "rows",
            Value::U64(sweep_sizes().last().copied().unwrap() as u64),
        ),
        ("interpreted_rows_per_sec", Value::F64(interpreted)),
        ("compiled_serial_rows_per_sec", Value::F64(serial)),
        ("compiled_parallel_rows_per_sec", Value::F64(parallel_rate)),
        ("speedup_serial", Value::F64(serial / interpreted)),
        ("speedup_parallel", Value::F64(parallel_rate / interpreted)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_predict.json");
    let mut rendered = serde_json::to_string_pretty(&Raw(root)).expect("render JSON");
    rendered.push('\n');
    std::fs::write(path, &rendered).expect("write BENCH_predict.json");
    eprintln!("wrote {path}:\n{rendered}");
}
