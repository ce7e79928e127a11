//! Determinism under parallelism: every thread budget must produce
//! bit-identical models and metrics. These are the tentpole guarantees the
//! `--threads` flag documents — parallelism changes wall time, never results.

use mtperf_eval::cross_validate_with;
use mtperf_linalg::Parallelism;
use mtperf_mtree::{Dataset, M5Learner, M5Params, ModelTree};

/// A two-regime dataset large enough to force real splits and leaf models.
fn dataset() -> Dataset {
    let names: Vec<String> = (0..6).map(|j| format!("e{j}")).collect();
    let mut data = Dataset::new(names).unwrap();
    let mut state = 0xD1CE_5EEDu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for _ in 0..400 {
        let row: Vec<f64> = (0..6).map(|_| next() * 4.0).collect();
        let y = if row[0] <= 2.0 {
            0.5 + 0.8 * row[1] + 0.1 * row[3]
        } else {
            6.0 - 0.5 * row[2]
        } + (next() - 0.5) * 0.05;
        data.push_row(&row, y).unwrap();
    }
    data
}

#[test]
fn tree_render_is_identical_at_any_thread_count() {
    let data = dataset();
    let base = M5Params::default().with_min_instances(15);
    let serial = ModelTree::fit(&data, &base.clone().with_parallelism(Parallelism::Off))
        .unwrap()
        .render("CPI");
    for par in [
        Parallelism::Fixed(1),
        Parallelism::Fixed(4),
        Parallelism::Auto,
    ] {
        let tree = ModelTree::fit(&data, &base.clone().with_parallelism(par)).unwrap();
        assert_eq!(tree.render("CPI"), serial, "parallelism = {par}");
    }
}

#[test]
fn cv_metrics_are_identical_at_any_thread_count() {
    let data = dataset();
    let learner = M5Learner::new(M5Params::default().with_min_instances(15));
    let serial = cross_validate_with(&learner, &data, 10, 2007, Parallelism::Off).unwrap();
    for threads in [1, 2, 4, 8] {
        let par =
            cross_validate_with(&learner, &data, 10, 2007, Parallelism::Fixed(threads)).unwrap();
        assert_eq!(par.aggregate, serial.aggregate, "threads = {threads}");
        assert_eq!(par.pooled, serial.pooled, "threads = {threads}");
        assert_eq!(par.scatter(), serial.scatter(), "threads = {threads}");
    }
    let auto = cross_validate_with(&learner, &data, 10, 2007, Parallelism::Auto).unwrap();
    assert_eq!(auto.pooled, serial.pooled);
}

#[test]
fn fully_parallel_stack_matches_fully_serial_stack() {
    // Parallel split scan inside parallel folds: the nested case.
    let data = dataset();
    let serial_learner = M5Learner::new(
        M5Params::default()
            .with_min_instances(15)
            .with_parallelism(Parallelism::Off),
    );
    let par_learner = M5Learner::new(
        M5Params::default()
            .with_min_instances(15)
            .with_parallelism(Parallelism::Fixed(4)),
    );
    let serial = cross_validate_with(&serial_learner, &data, 6, 3, Parallelism::Off).unwrap();
    let par = cross_validate_with(&par_learner, &data, 6, 3, Parallelism::Fixed(3)).unwrap();
    assert_eq!(par.pooled, serial.pooled);
    for (a, b) in par.folds.iter().zip(serial.folds.iter()) {
        assert_eq!(a.predicted, b.predicted);
    }
}
