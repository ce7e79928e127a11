//! `mtbench`: the mtperf benchmark. One run measures one workload for a
//! fixed window, checks the outputs, and prints one JSON result line.
//!
//! ```text
//! mtbench --mtperf <path> --work-dir <dir> --workload <name> --seed <n>
//!         --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with the benchmark's own spans around each layer call and
//! prints the per-layer metrics instead. The exit code is 0 only when
//! every output check passed. See `mtbench/README.md`.

mod inputs;
mod layers;
mod metrics;
mod pipeline;
mod serve;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use metrics::Metrics;

pub const WORKLOADS: [&str; 4] = [
    "paper_pipeline",
    "serve_batch",
    "serve_whatif",
    "fleet_batch",
];

pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub mtperf: PathBuf,
    /// Working directory of this run (models, daemon logs); removed at exit.
    pub work: PathBuf,
}

struct Check {
    name: &'static str,
    ok: bool,
    detail: String,
}

/// What a workload run reports.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    checks: Vec<Check>,
    /// Extra result fields: key and JSON value.
    details: Vec<(&'static str, String)>,
    /// JSONL spans of a traced run.
    pub spans: Option<String>,
}

impl Outcome {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    pub fn detail(&mut self, key: &'static str, json: String) {
        self.details.push((key, json));
    }

    fn all_ok(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

fn usage() -> String {
    format!(
        "usage: mtbench --mtperf <path> --work-dir <dir> --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<(String, Config), String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = std::collections::BTreeMap::new();
    let mut it = raw.iter();
    while let Some(key) = it.next() {
        let key = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {key:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        opts.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| opts.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed must be a non-negative integer".to_string())?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let work = PathBuf::from(get("work-dir")?).join(format!("{workload}-{}", std::process::id()));
    let mtperf = PathBuf::from(get("mtperf")?);
    Ok((
        workload,
        Config {
            seed,
            seconds,
            trace,
            mtperf,
            work,
        },
    ))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_string()).unwrap_or_else(|_| "\"\"".to_string())
}

fn host() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The benchmark may run from an exported tree that is not a git
    // checkout; the commit is then unknown.
    let commit = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    format!(
        "{{\"nproc\":{nproc},\"os\":\"{}\",\"arch\":\"{}\",\"rustc\":{},\"commit\":{}}}",
        std::env::consts::OS,
        std::env::consts::ARCH,
        json_str(&command_line("rustc", &["--version"])),
        json_str(&commit)
    )
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("mtbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work) {
        eprintln!("mtbench: {}: {e}", cfg.work.display());
        return ExitCode::from(2);
    }
    let mut out = Outcome::default();
    let result = match workload.as_str() {
        "paper_pipeline" => pipeline::run(&cfg, &mut out),
        "serve_batch" => serve::run(&cfg, serve::Kind::Batch, &mut out),
        "serve_whatif" => serve::run(&cfg, serve::Kind::WhatIf, &mut out),
        _ => serve::run(&cfg, serve::Kind::Fleet, &mut out),
    };
    if let Some(spans) = &out.spans {
        let path = cfg.work.with_file_name(format!("{workload}.spans.jsonl"));
        if let Err(e) = std::fs::write(&path, spans) {
            eprintln!("mtbench: {}: {e}", path.display());
        }
    }
    let _ = std::fs::remove_dir_all(&cfg.work);
    if let Err(e) = result {
        eprintln!("mtbench: {workload}: {e}");
        return ExitCode::from(1);
    }

    let checks: Vec<String> = out
        .checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\":\"{}\",\"ok\":{},\"detail\":{}}}",
                c.name,
                c.ok,
                json_str(&c.detail)
            )
        })
        .collect();
    let mut report = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{},\"checks\":[{}]",
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        host(),
        checks.join(",")
    );
    for (key, json) in &out.details {
        report.push_str(&format!(",\"{key}\":{json}"));
    }
    report.push('}');
    println!("{report}");
    for c in out.checks.iter().filter(|c| !c.ok) {
        eprintln!("mtbench: check {} failed: {}", c.name, c.detail);
    }
    let correct = out.all_ok();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.attempted.max(1),
        out.failed,
        out.metrics.render(cfg.trace)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
