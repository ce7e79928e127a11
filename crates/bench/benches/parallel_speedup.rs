//! Serial-vs-parallel wall time for the hot paths the `parallel` module
//! threads through: the SDR split scan, 10-fold cross validation, and the
//! six-model baseline suite. Every configuration computes bit-identical
//! results; only wall time may differ, and only when cores are available.

use std::hint::black_box;

use mtperf_baselines::{standard_suite, train_suite};
use mtperf_bench::{median_ns, synthetic_dataset};
use mtperf_eval::cross_validate_with;
use mtperf_linalg::parallel::Parallelism;
use mtperf_mtree::{best_split_with, M5Learner, M5Params};

fn configs() -> Vec<(&'static str, Parallelism)> {
    vec![
        ("serial", Parallelism::Off),
        ("2-threads", Parallelism::Fixed(2)),
        ("auto", Parallelism::Auto),
    ]
}

fn main() {
    eprintln!("\ngroup: parallel_speedup");

    let data = synthetic_dataset(4000, 20);
    let idx: Vec<usize> = (0..data.n_rows()).collect();
    for (name, par) in configs() {
        median_ns(&format!("parallel_speedup/best_split/{name}"), 10, || {
            best_split_with(black_box(&data), &idx, 8, par)
        });
    }

    let cv_data = synthetic_dataset(1200, 20);
    for (name, par) in configs() {
        let params = M5Params::default()
            .with_min_instances(40)
            .with_parallelism(par);
        let learner = M5Learner::new(params);
        median_ns(
            &format!("parallel_speedup/cross_validate_10fold/{name}"),
            10,
            || cross_validate_with(black_box(&learner), black_box(&cv_data), 10, 7, par).unwrap(),
        );
    }

    let suite_data = synthetic_dataset(400, 8);
    for (name, par) in configs() {
        let params = M5Params::default()
            .with_min_instances(20)
            .with_parallelism(Parallelism::Off);
        median_ns(
            &format!("parallel_speedup/baseline_suite/{name}"),
            10,
            || train_suite(&standard_suite(&params), black_box(&suite_data), par).unwrap(),
        );
    }
}
