//! Per-layer measurements shared by several workloads: the compiled
//! predict kernel against a copy ceiling, the worker pool, and self time
//! per layer from the benchmark's spans.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mtperf::counters::SampleSet;
use mtperf::linalg::{parallel, Matrix};
use mtperf::mtree::ModelTree;
use mtperf::sim::workload::WorkloadSpec;
use mtperf::sim::DEFAULT_SECTION_LEN;

use crate::inputs::simulator;
use crate::metrics::Metrics;
use crate::trace::Tracer;
use crate::util::{median, secs};

pub struct Simulated {
    pub samples: SampleSet,
    pub instr: u64,
    pub wall: Duration,
}

impl Simulated {
    pub fn minstr_per_s(&self) -> f64 {
        self.instr as f64 / secs(self.wall) / 1e6
    }
}

/// Simulates every profile of `specs` under `seed`, one span per profile.
pub fn simulate(specs: &[WorkloadSpec], seed: u64, t: &mut Tracer) -> Simulated {
    let sim = simulator(seed);
    let mut samples = SampleSet::new();
    let mut instr = 0u64;
    let start = Instant::now();
    for (i, w) in specs.iter().enumerate() {
        let n = w.total_instructions();
        samples.extend(t.span("sim.run", "sim", i as u64, n, |_| {
            sim.run(w, DEFAULT_SECTION_LEN)
        }));
        instr += n;
    }
    Simulated {
        samples,
        instr,
        wall: start.elapsed(),
    }
}

/// A `n`-row matrix cycling through `rows`.
pub fn tiled(rows: &[Vec<f64>], n: usize) -> Matrix {
    let cols = rows[0].len();
    let mut data = Vec::with_capacity(n * cols);
    for i in 0..n {
        data.extend_from_slice(&rows[i % rows.len()]);
    }
    Matrix::from_vec(n, cols, data).expect("rows share one width")
}

/// Median wall time in ns of `reps` calls of `f`.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&times)
}

/// `compiled.*` and `pool.*` for `tree` on batches tiled from `rows`.
///
/// The ceiling is a copy of the same 64k-row matrix: predict reads the
/// matrix once and writes one value per row, so its bytes moved per second
/// over the copy's (read plus write) bytes per second is the share of
/// achievable bandwidth it reaches.
pub fn compiled_layer(tree: &ModelTree, rows: &[Vec<f64>], m: &mut Metrics) -> Result<(), String> {
    let par = parallel::global();
    m.set(
        "compiled.compile_us",
        median_ns(11, || {
            black_box(tree.compile());
        }) / 1e3,
    );
    let compiled = tree.compile();
    let small = tiled(rows, 1000);
    let large = tiled(rows, 65_536);
    let mut failure = None;
    let mut predict = |x: &Matrix| match compiled.try_predict_batch_with(black_box(x), par) {
        Ok(p) => {
            black_box(p);
        }
        Err(e) => failure = Some(e.to_string()),
    };
    let t_small = median_ns(201, || predict(&small));
    let t_large = median_ns(15, || predict(&large));
    if let Some(e) = failure {
        return Err(format!("compiled predict failed: {e}"));
    }
    m.set("compiled.ns_per_row_1k", t_small / 1000.0);
    m.set("compiled.ns_per_row_64k", t_large / 65_536.0);

    let src = large.as_slice();
    let mut dst = vec![0.0f64; src.len()];
    let t_copy = median_ns(15, || {
        dst.copy_from_slice(black_box(src));
        black_box(&dst);
    });
    let bytes = (src.len() * 8) as f64;
    let copy_bw = 2.0 * bytes / t_copy;
    let predict_bw = (bytes + 65_536.0 * 8.0) / t_large;
    m.set("compiled.frac_of_copy_bw", predict_bw / copy_bw);
    m.set(
        "pool.dispatch_overhead_us",
        parallel::dispatch_overhead().as_nanos() as f64 / 1e3,
    );
    Ok(())
}

/// `<layer>.self_ms` for every layer the spans cover.
pub fn self_times(t: &Tracer, m: &mut Metrics) {
    for (layer, ns) in t.self_ns_by_layer() {
        let name = match layer {
            "sim" => "sim.self_ms",
            "counters" => "counters.self_ms",
            "mtree" => "mtree.self_ms",
            "eval" => "eval.self_ms",
            "compiled" => "compiled.self_ms",
            "sweep" => "sweep.self_ms",
            "protocol" => "protocol.self_ms",
            "validate" => "validate.self_ms",
            "cache" => "cache.self_ms",
            "admission" => "admission.self_ms",
            "engine" => "engine.self_ms",
            "router" => "router.self_ms",
            other => panic!("span of unknown layer {other}"),
        };
        m.set(name, ns as f64 / 1e6);
    }
}

/// `(traced − untraced) / untraced` over medians of the same work.
pub fn overhead(traced: &[f64], untraced: &[f64]) -> f64 {
    let base = median(untraced);
    if base > 0.0 {
        (median(traced) - base) / base
    } else {
        0.0
    }
}
