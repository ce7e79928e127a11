//! E8 — method comparison: M5' vs ANN, SVM and the simpler baselines.
//!
//! The paper (with its companion SMART'07 study) reports, on the same data:
//! M5' C = 0.98, ANN C = 0.99, SVM C = 0.98 — the model tree matches the
//! black boxes while staying interpretable, and both beat first-order
//! linear formulas and constant-leaf trees.

use mtperf::baselines::{standard_suite, CartLearner, GlobalLinear};
use mtperf::prelude::*;
use mtperf_eval::{comparison_table, paired_t_test};
use mtperf_linalg::parallel::{self, try_par_map};

use crate::Context;

/// Runs the experiment.
pub fn run(ctx: &Context) {
    println!("=== Method comparison (10-fold CV on the same folds) ===\n");
    let k = 10;
    let seed = 7;
    // The six-model line-up cross-validates concurrently; results merge in
    // suite order, identical at any thread budget.
    let learners = standard_suite(&ctx.params);
    let rows: Vec<(String, Metrics)> = try_par_map(parallel::global(), &learners, |learner| {
        eprintln!("[comparison] cross-validating {}...", learner.name());
        let cv = cross_validate(learner.as_ref(), &ctx.data, k, seed).expect("cv succeeds");
        (learner.name().to_string(), cv.pooled)
    })
    .unwrap_or_else(|e| panic!("{e}"));
    let table = comparison_table(&rows);
    println!("{table}");
    Context::save_artifact("comparison.txt", &table);

    println!("paper reference points: M5' C=0.98 | ANN C=0.99 | SVM C=0.98");
    let m5 = rows[0].1;
    let ols = rows[1].1;
    let cart = rows[2].1;
    println!(
        "shape check (M5' beats OLS and CART on RAE): {}",
        if m5.rae_percent < ols.rae_percent && m5.rae_percent < cart.rae_percent {
            "PASS"
        } else {
            "FAIL"
        }
    );

    // Paired significance: is the M5'-vs-baseline gap real fold to fold?
    let m5_learner = M5Learner::new(ctx.params.clone());
    for (name, other) in [
        ("OLS", Box::new(GlobalLinear::new()) as Box<dyn Learner>),
        (
            "CART",
            Box::new(CartLearner::new(ctx.params.min_instances())),
        ),
    ] {
        let t = paired_t_test(&m5_learner, other.as_ref(), &ctx.data, k, seed)
            .expect("t-test succeeds");
        println!(
            "paired t-test M5' vs {name}: mean MAE diff {:+.4}, t = {:.2}, \
             significant at 5%: {}",
            t.mean_difference, t.t_statistic, t.significant_at_5pct
        );
    }
}
