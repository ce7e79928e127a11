//! `mtperf-repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! USAGE: mtperf-repro [--quick] [--threads <auto|off|N>]
//!                     [--trace] [--trace-out <path>] [--metrics <table|json>]
//!                     <experiment>...
//!
//! experiments:
//!   table1        Table I        selected metrics + measured suite statistics
//!   figure1       Figure 1       example M5' tree for Y = f(X1..X4)
//!   figure2       Figure 2       the performance-analysis tree
//!   figure3       Figure 3       predicted-vs-actual CPI scatter (10-fold CV)
//!   lm-analysis   Eq. 4/5, LM18  leaf-model listings + worked contribution math
//!   split-impact  §V.A.2         split-variable impact, both estimators
//!   headline      §V.B           C / MAE / RAE vs the paper's numbers
//!   comparison    §V.B           M5' vs OLS / CART / k-NN / MLP / SVR
//!   occupancy     §V.A.1         per-benchmark class concentration claims
//!   ablation      DESIGN.md §6   smoothing / pruning / min-instances / sectioning
//!   curve         extension      learning curve over training-set size
//!   breakdown     extension      per-workload held-out error breakdown
//!   whatif        extension      predicted vs simulated gains (ground-truth check)
//!   interactions  extension      pairwise interaction costs (vs the paper's ref [17])
//!   events        extension      event-family ablation: which counters matter
//!   generalize    extension      accuracy on ten workloads the tree never saw
//!   netburst      extension      Core 2 vs NetBurst branch-sensitivity contrast
//!   all           everything above, in order
//! ```

use std::process::ExitCode;

use mtperf_repro::{experiments, Context, Scale};

const EXPERIMENTS: &[&str] = &[
    "table1",
    "figure1",
    "figure2",
    "figure3",
    "lm-analysis",
    "split-impact",
    "headline",
    "comparison",
    "occupancy",
    "ablation",
    "curve",
    "breakdown",
    "whatif",
    "interactions",
    "events",
    "generalize",
    "netburst",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut obs = mtperf_obs::ObsConfig::default();
    let mut requested: Vec<&str> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--trace" => obs.trace = true,
            "--trace-out" => {
                let Some(value) = iter.next() else {
                    eprintln!("--trace-out needs a path");
                    return ExitCode::FAILURE;
                };
                obs.trace_out = Some(value.into());
            }
            "--metrics" => {
                let Some(value) = iter.next() else {
                    eprintln!("--metrics needs a format (table or json)");
                    return ExitCode::FAILURE;
                };
                match value.parse() {
                    Ok(f) => obs.metrics = Some(f),
                    Err(e) => {
                        eprintln!("--metrics: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--threads" => {
                let Some(value) = iter.next() else {
                    eprintln!("--threads needs a value (auto, off, or a count)");
                    return ExitCode::FAILURE;
                };
                match value.parse::<mtperf_linalg::Parallelism>() {
                    Ok(par) => mtperf_linalg::parallel::set_global(par),
                    Err(e) => {
                        eprintln!("--threads: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other:?}");
                return ExitCode::FAILURE;
            }
            name => requested.push(name),
        }
    }
    if requested.is_empty() {
        eprintln!(
            "usage: mtperf-repro [--quick] [--threads <auto|off|N>] \
             [--trace] [--trace-out <path>] [--metrics <table|json>] <experiment>..."
        );
        eprintln!("experiments: {} all", EXPERIMENTS.join(" "));
        return ExitCode::FAILURE;
    }
    if !obs.is_off() {
        if let Err(e) = mtperf_obs::init(obs) {
            eprintln!("--trace-out: {e}");
            return ExitCode::FAILURE;
        }
    }
    if requested.contains(&"all") {
        requested = EXPERIMENTS.to_vec();
    }
    for name in &requested {
        if !EXPERIMENTS.contains(name) {
            eprintln!(
                "unknown experiment {name:?}; known: {}",
                EXPERIMENTS.join(" ")
            );
            return ExitCode::FAILURE;
        }
    }

    let scale = if quick { Scale::Quick } else { Scale::Full };
    let ctx = Context::build(scale);
    for name in requested {
        println!("\n################ {name} ################\n");
        match name {
            "table1" => experiments::table1::run(&ctx),
            "figure1" => experiments::figure1::run(&ctx),
            "figure2" => experiments::figure2::run(&ctx),
            "figure3" => experiments::figure3::run(&ctx),
            "lm-analysis" => experiments::lm_analysis::run(&ctx),
            "split-impact" => experiments::split_impact::run(&ctx),
            "headline" => experiments::headline::run(&ctx),
            "comparison" => experiments::comparison::run(&ctx),
            "occupancy" => experiments::occupancy::run(&ctx),
            "ablation" => experiments::ablation::run(&ctx),
            "curve" => experiments::curve::run(&ctx),
            "breakdown" => experiments::breakdown::run(&ctx),
            "whatif" => experiments::whatif::run(&ctx),
            "interactions" => experiments::interactions::run(&ctx),
            "events" => experiments::events::run(&ctx),
            "generalize" => experiments::generalize::run(&ctx),
            "netburst" => experiments::netburst::run(&ctx),
            _ => unreachable!("validated above"),
        }
    }
    if let Some(report) = mtperf_obs::finish() {
        mtperf::cli::emit_obs_report(&report);
    }
    ExitCode::SUCCESS
}
