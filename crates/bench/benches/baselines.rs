//! Training-cost comparison across all regressors on an identical dataset —
//! the runtime companion to the accuracy comparison of the repro harness.

use std::hint::black_box;

use mtperf_baselines::{CartLearner, GlobalLinear, KnnLearner, MlpLearner, SvrLearner};
use mtperf_bench::{median_ns, synthetic_dataset};
use mtperf_mtree::{Learner, M5Learner, M5Params};

fn bench_training() {
    let data = synthetic_dataset(2_000, 20);
    let learners: Vec<Box<dyn Learner>> = vec![
        Box::new(M5Learner::new(M5Params::default().with_min_instances(60))),
        Box::new(GlobalLinear::new()),
        Box::new(CartLearner::new(60)),
        Box::new(KnnLearner::new(5)),
        Box::new(MlpLearner::new(16).with_epochs(20)),
        Box::new(SvrLearner {
            max_sweeps: 10,
            ..SvrLearner::default()
        }),
    ];
    eprintln!("\ngroup: baselines/train_2000x20");
    for learner in &learners {
        let name = format!("baselines/train_2000x20/{}", learner.name());
        median_ns(&name, 10, || learner.fit(black_box(&data)).unwrap());
    }
}

fn bench_inference() {
    let data = synthetic_dataset(2_000, 20);
    let row = data.row(999);
    let learners: Vec<Box<dyn Learner>> = vec![
        Box::new(M5Learner::new(M5Params::default().with_min_instances(60))),
        Box::new(GlobalLinear::new()),
        Box::new(KnnLearner::new(5)),
        Box::new(MlpLearner::new(16).with_epochs(20)),
    ];
    eprintln!("\ngroup: baselines/predict");
    for learner in &learners {
        let model = learner.fit(&data).unwrap();
        let name = format!("baselines/predict/{}", learner.name());
        median_ns(&name, 20, || model.predict(black_box(&row)));
    }
}

fn main() {
    bench_training();
    bench_inference();
}
