//! Deterministic simulation testing (DST) of the serving stack.
//!
//! One `u64` seed fully determines a simulated serving run: virtual time,
//! the client workload, the transport fault script, and the filesystem
//! fault script are all derived from it through
//! [`mtperf_detsim::derive_seed`]. The harness drives the *production*
//! session code — `router::handle_line`, `transport::run_session`,
//! `serve::answer`, the real [`super::registry::Registry`] — on a single
//! logical thread, with the global clock/RNG/fs seams pointed at
//! simulators:
//!
//! * **Wire sessions** feed a scripted [`SimStream`] (short reads,
//!   interrupts, latency, connection drops, oversized lines, invalid
//!   UTF-8) through `run_session`, exercising the bounded-line reader and
//!   the full parse/dispatch path.
//! * **Structured sessions** call `handle_line` directly, interleaving
//!   queue drains and virtual-clock advances between requests to
//!   exercise deadline races and backpressure.
//! * **Multi-connection sessions** simulate the accept loop: 2–4
//!   concurrent connections round-robined under virtual time, each with
//!   its own writer, issuing registry ops (`load`/`promote`/`rollback`/
//!   `list` across the `default`/`alpha`/`beta` tenants, including
//!   poisoned promotes and manifest-save faults) interleaved with
//!   predictions against named models — promote/rollback races with
//!   in-flight predicts, per-tenant overload against the quota'd queue,
//!   and repeated sections that exercise the prediction cache.
//! * **Fault days**: reloads of poisoned artifacts, saves under injected
//!   transient and permanent I/O errors, overload storms against a tiny
//!   queue, drain/restart cycles after `shutdown`, and crash/restart
//!   cycles that drop queued work on the floor.
//!
//! After every session the harness checks the serving invariants: no
//! panic escapes, every response line is well-formed protocol JSON with a
//! known error kind, request/response accounting balances on non-lossy
//! sessions, **responses route to the issuing connection** (multi-conn
//! outputs only ever hold their own connection's request ids), the queue
//! drains fairly (each pop serves the rotation head, so no tenant with
//! queued work is starved), every model's active version stays servable
//! (a rollback can only land on a previously-validated version), **a
//! cached prediction is bit-identical to a fresh one**, and — after every
//! restart — the registry reopens with the promoted version or a clean
//! prior one (**last known good is never lost**).
//!
//! # Replay
//!
//! Everything observable is folded into an event trace (one line per
//! session plus lifecycle events) whose FNV-1a hash is the run's
//! fingerprint: running the same seed twice produces byte-identical
//! traces. Paths under the per-seed working directory are rewritten to a
//! `<sim>` token before hashing, so fingerprints are stable across
//! machines and checked-in regression seeds stay valid anywhere. A
//! failing seed from CI is replayed locally with `mtperf dst --seed
//! <seed>` (or `MTPERF_SIM_SEED=<seed>`), which reproduces the exact
//! schedule, faults, and verdict.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use mtperf_detsim::clock::{self, VirtualClock};
use mtperf_detsim::fs as simfs;
use mtperf_detsim::net::{Fault, SimStream};
use mtperf_detsim::rng::{self, derive_seed, SimRng};
use mtperf_detsim::{FaultScript, FsOp};
use mtperf_linalg::parallel::{self, Parallelism};
use mtperf_mtree::{Dataset, M5Params, ModelTree};

use super::admission::FairQueue;
use super::cache::PredictionCache;
use super::protocol::{self, ReplyHeader};
use super::registry::Registry;
use super::router::handle_line;
use super::transport::run_session;
use super::{answer, Shared, SharedWriter, Stats, SHUTDOWN};

/// One simulated run's parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Root seed; every stream in the run derives from it.
    pub seed: u64,
    /// Number of client sessions to simulate.
    pub sessions: usize,
}

/// Outcome of one simulated run.
#[derive(Debug)]
pub struct SimReport {
    /// The seed that produced this run (replay key).
    pub seed: u64,
    /// Sessions simulated.
    pub sessions: usize,
    /// Request lines fed to the stack.
    pub requests: u64,
    /// Response lines observed.
    pub responses: u64,
    /// Responses that were typed protocol errors.
    pub typed_errors: u64,
    /// Drain/restart and crash/restart cycles performed.
    pub restarts: u64,
    /// I/O faults the filesystem script injected.
    pub faults_injected: u64,
    /// Sessions that drove ≥2 interleaved connections.
    pub multi_conn_sessions: u64,
    /// Registry operations (`load`/`promote`/`rollback`/`list`) issued.
    pub registry_ops: u64,
    /// Prediction-cache hits observed by the daemon.
    pub cache_hits: u64,
    /// Prediction-cache misses observed by the daemon.
    pub cache_misses: u64,
    /// Per-tenant quota refusals observed by the daemon.
    pub quota_refusals: u64,
    /// Invariant violations (empty = run passed).
    pub violations: Vec<String>,
    /// The deterministic event trace (replay fingerprint source).
    pub trace: Vec<String>,
}

impl SimReport {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// FNV-1a hash of the event trace: the run's replay fingerprint. Two
    /// runs of the same seed must produce equal hashes (and equal traces)
    /// — including across processes and machines, because sim-dir paths
    /// are sanitized out of the trace.
    pub fn trace_hash(&self) -> u64 {
        let mut joined = String::new();
        for line in &self.trace {
            joined.push_str(line);
            joined.push('\n');
        }
        mtperf_obs::fsio::fnv1a_64(joined.as_bytes())
    }

    /// Writes the event trace to `path` atomically (one line per event,
    /// with a header naming the seed and verdict).
    ///
    /// # Errors
    ///
    /// Propagates the write failure.
    pub fn write_trace(&self, path: &Path) -> std::io::Result<()> {
        write_trace_file(
            path,
            "dst trace",
            self.seed,
            self.sessions,
            self.trace_hash(),
            &self.violations,
            &self.trace,
        )
    }
}

/// Writes a simulation's event trace to `path` atomically: a header
/// `# mtperf {kind} seed=… sessions=… hash=… verdict=…`, one
/// `# violation:` line per violation, then one line per event. Both the
/// serving and the fleet simulation write their traces through here.
pub(crate) fn write_trace_file(
    path: &Path,
    kind: &str,
    seed: u64,
    sessions: usize,
    hash: u64,
    violations: &[String],
    trace: &[String],
) -> std::io::Result<()> {
    let verdict = if violations.is_empty() {
        "pass"
    } else {
        "FAIL"
    };
    let mut text = format!(
        "# mtperf {kind} seed={seed} sessions={sessions} hash={hash:016x} verdict={verdict}\n"
    );
    for v in violations {
        text.push_str(&format!("# violation: {v}\n"));
    }
    for line in trace {
        text.push_str(line);
        text.push('\n');
    }
    mtperf_obs::fsio::atomic_write(path, text.as_bytes())
}

/// Serializes every holder of a [`SeamGuard`]: the seams are global, so
/// two concurrent simulations would corrupt each other's time and faults.
static SIM_LOCK: Mutex<()> = Mutex::new(());

/// Exclusive use of the process-global seams (clock, RNG, filesystem
/// faults, parallelism, [`SHUTDOWN`]). Holding one serializes with every
/// simulation, and with every test that arms a deadline on the clock and
/// checks it later. Dropping it — panic unwinds included — restores every
/// seam, so a failing simulation cannot leave the process on virtual time.
pub(crate) struct SeamGuard {
    saved_parallelism: Parallelism,
    _exclusive: MutexGuard<'static, ()>,
}

impl SeamGuard {
    /// Takes the seam lock and records the parallelism setting to restore.
    pub(crate) fn new() -> SeamGuard {
        let exclusive = SIM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        SeamGuard {
            saved_parallelism: parallel::global(),
            _exclusive: exclusive,
        }
    }

    /// Points the seams at simulators: an auto-advancing virtual clock, an
    /// RNG seeded with `rng_seed`, the `fs` fault script, and parallelism
    /// off — a single logical thread is what makes the schedule (and so
    /// the trace) deterministic. Clears [`SHUTDOWN`] last.
    pub(crate) fn install(&self, rng_seed: u64, fs: &Arc<FaultScript>) {
        clock::install(VirtualClock::new());
        rng::install(Arc::new(SimRng::seed_from_u64(rng_seed)));
        simfs::install(Arc::clone(fs));
        parallel::set_global(Parallelism::Off);
        SHUTDOWN.store(false, Ordering::SeqCst);
    }
}

impl Drop for SeamGuard {
    fn drop(&mut self) {
        clock::uninstall();
        rng::uninstall();
        simfs::uninstall();
        parallel::set_global(self.saved_parallelism);
        SHUTDOWN.store(false, Ordering::SeqCst);
    }
}

const KNOWN_KINDS: [&str; 11] = [
    protocol::E_BAD_REQUEST,
    protocol::E_OVERLOADED,
    protocol::E_DEADLINE,
    protocol::E_SHUTTING_DOWN,
    protocol::E_RELOAD_FAILED,
    protocol::E_SAVE_FAILED,
    protocol::E_INTERNAL,
    protocol::E_UNKNOWN_MODEL,
    protocol::E_PROMOTE_FAILED,
    protocol::E_ROLLBACK_FAILED,
    protocol::E_UNAVAILABLE,
];

/// A deterministic tiny model: same shape as the serve unit-test fixture,
/// trained from a fixed arithmetic dataset so every run of every seed
/// serves byte-identical predictions. `slope` distinguishes the default
/// artifact from the alternate one promotes install.
pub(crate) fn sim_model(slope: f64) -> ModelTree {
    let names = vec!["a0".to_string(), "a1".to_string()];
    let rows: Vec<Vec<f64>> = (0..24)
        .map(|r| vec![((r * 7) % 11) as f64, ((r * 3) % 5) as f64])
        .collect();
    let targets: Vec<f64> = rows.iter().map(|r| 1.0 + slope * r[0] - r[1]).collect();
    let data = Dataset::from_rows(names, &rows, &targets).expect("static dataset is valid");
    ModelTree::fit(&data, &M5Params::default().with_min_instances(4)).expect("fit cannot fail")
}

/// Seed-derived working directory: stable across replays of the same seed
/// (no PID, no timestamp). Paths under it are sanitized to `<sim>` in the
/// hashed trace, so the *fingerprint* is additionally stable across
/// machines with different temp directories.
fn sim_dir(seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("mtperf-dst-{seed:016x}"))
}

/// Rewrites sim-dir paths to a stable token before hashing.
pub(crate) fn sanitize(raw: &[u8], dir: &str) -> String {
    String::from_utf8_lossy(raw).replace(dir, "<sim>")
}

pub(crate) fn json_path(path: &Path) -> String {
    serde_json::to_string(&path.display().to_string()).unwrap_or_default()
}

/// One request the script generator planned.
enum Op {
    Line(String),
    Shutdown(String),
}

/// The per-session plan: request lines, transport faults, and bookkeeping
/// for the response-accounting invariant.
struct SessionPlan {
    wire: bool,
    ops: Vec<Op>,
    read_faults: Vec<Fault>,
    /// Response lines this session must produce, when countable.
    expected: u64,
    /// Responses may legitimately be lost (connection drop, crash).
    lossy: bool,
    /// Advance virtual time this much between intake and drain (arms
    /// queued-deadline races).
    advance_before_drain: Duration,
    /// Drop queued work instead of draining (kill -9 behavior), then
    /// require a clean restart.
    crash_after: bool,
    /// This session scripted filesystem faults; verify last-known-good
    /// afterwards.
    touched_fs: bool,
}

pub(crate) fn fmt_f64_row(row: &[f64]) -> String {
    let cells: Vec<String> = row.iter().map(|v| format!("{v:?}")).collect();
    format!("[{}]", cells.join(","))
}

/// Generates one single-connection session's plan from the script/rows
/// streams — the protocol-v1 shape (no `model` fields), which must keep
/// passing unchanged under the v2 daemon.
#[allow(clippy::too_many_lines)]
fn plan_session(
    si: usize,
    script: &SimRng,
    rows_rng: &SimRng,
    fs_script: &FaultScript,
    model_path: &Path,
    poison_path: &Path,
) -> SessionPlan {
    let wire = script.gen_bool(0.5);
    let mut plan = SessionPlan {
        wire,
        ops: Vec::new(),
        read_faults: Vec::new(),
        expected: 0,
        lossy: false,
        advance_before_drain: Duration::from_micros(script.next_u64() % 10_000),
        crash_after: script.gen_bool(0.04),
        touched_fs: false,
    };
    let n_ops = 1 + script.gen_index(6);
    for oi in 0..n_ops {
        let id = format!("s{si}-{oi}");
        let roll = script.gen_f64();
        let line = if roll < 0.40 {
            // Well-formed predict, sometimes with a tight deadline.
            let n_rows = 1 + rows_rng.gen_index(4);
            let rows: Vec<String> = (0..n_rows)
                .map(|_| {
                    fmt_f64_row(&[
                        (rows_rng.next_u64() % 110) as f64 / 10.0,
                        (rows_rng.next_u64() % 50) as f64 / 10.0,
                    ])
                })
                .collect();
            let deadline = if script.gen_bool(0.25) {
                format!(",\"deadline_ms\":{}", script.gen_index(3))
            } else {
                String::new()
            };
            format!(
                "{{\"op\":\"predict\",\"id\":\"{id}\",\"rows\":[{}]{deadline}}}",
                rows.join(",")
            )
        } else if roll < 0.52 {
            // Malformed requests: every variant must get a typed error.
            match script.gen_index(7) {
                0 => "this is not json".to_string(),
                1 => format!("{{\"id\":\"{id}\"}}"),
                2 => format!("{{\"op\":\"frobnicate\",\"id\":\"{id}\"}}"),
                3 => format!("{{\"op\":\"predict\",\"id\":\"{id}\",\"rows\":[]}}"),
                4 => format!("{{\"op\":\"predict\",\"id\":\"{id}\",\"rows\":[[1.0]]}}"),
                5 => format!(
                    "{{\"op\":\"predict\",\"id\":\"{id}\",\"rows\":[[1.0,2.0],[1.0,2.0,3.0]]}}"
                ),
                _ => format!("{{\"op\":\"predict\",\"id\":\"{id}\",\"rows\":[[1.0,1e999]]}}"),
            }
        } else if roll < 0.62 {
            format!("{{\"op\":\"health\",\"id\":\"{id}\"}}")
        } else if roll < 0.72 {
            // Overload burst: enough predicts to overflow the tiny queue
            // (and, for one tenant, its quota).
            for k in 0..6 {
                plan.ops.push(Op::Line(format!(
                    "{{\"op\":\"predict\",\"id\":\"{id}b{k}\",\"rows\":[[1.0,2.0]]}}"
                )));
                plan.expected += 1;
            }
            continue;
        } else if roll < 0.80 {
            // Reload: poisoned artifact (typed failure, keeps serving) or
            // the good artifact (heals a degraded registry).
            let target = if script.gen_bool(0.5) {
                poison_path
            } else {
                model_path
            };
            format!(
                "{{\"op\":\"reload\",\"id\":\"{id}\",\"path\":{}}}",
                json_path(target)
            )
        } else if roll < 0.88 {
            // Save, sometimes under injected I/O faults (transient bursts
            // the retry ladder absorbs, or a hard mid-save failure whose
            // torn write must not damage the destination).
            if script.gen_bool(0.5) {
                plan.touched_fs = true;
                let kind = match script.gen_index(3) {
                    0 => std::io::ErrorKind::Interrupted,
                    1 => std::io::ErrorKind::TimedOut,
                    _ => std::io::ErrorKind::PermissionDenied,
                };
                let op = match script.gen_index(3) {
                    0 => FsOp::Write,
                    1 => FsOp::Sync,
                    _ => FsOp::Rename,
                };
                let times = 1 + script.gen_index(6) as u64;
                fs_script.fail_times(Some(op), "model.json", kind, times);
            }
            format!("{{\"op\":\"save\",\"id\":\"{id}\"}}")
        } else if roll < 0.93 {
            String::new() // blank line: skipped, no response
        } else {
            // Drain request; ends the session and triggers a restart.
            plan.ops.push(Op::Shutdown(format!(
                "{{\"op\":\"shutdown\",\"id\":\"{id}\"}}"
            )));
            plan.expected += 1;
            break;
        };
        if !line.trim().is_empty() {
            plan.expected += 1;
        }
        plan.ops.push(Op::Line(line));
    }
    if wire {
        // Transport faults only exist on the wire path.
        if script.gen_bool(0.30) {
            plan.read_faults
                .push(Fault::ShortRead(1 + script.gen_index(16)));
        }
        if script.gen_bool(0.15) {
            plan.read_faults.push(Fault::InterruptRead);
        }
        if script.gen_bool(0.20) {
            plan.read_faults.push(Fault::Latency(Duration::from_millis(
                1 + script.next_u64() % 40,
            )));
        }
        if script.gen_bool(0.05) {
            plan.read_faults.push(Fault::Drop);
            plan.lossy = true;
        }
        if script.gen_bool(0.03) {
            // An oversized line: must come back as one typed bad_request.
            let huge = "x".repeat(protocol::MAX_LINE_BYTES + 1);
            plan.ops.push(Op::Line(huge));
            plan.expected += 1;
        }
    }
    if plan.crash_after {
        plan.lossy = true;
    }
    plan
}

/// One simulated connection of a multi-connection session.
struct ConnPlan {
    ops: Vec<String>,
}

/// Generates a multi-connection session: 2–4 interleaved connections
/// mixing named-model predictions with registry ops. Every op is
/// well-formed JSON with a connection-prefixed id, so response routing is
/// checkable per connection.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn plan_multi_session(
    si: usize,
    script: &SimRng,
    rows_rng: &SimRng,
    fs_script: &FaultScript,
    alt_path: &Path,
    poison_path: &Path,
    registry_ops: &mut u64,
    touched_fs: &mut bool,
) -> (Vec<ConnPlan>, bool) {
    let n_conns = 2 + script.gen_index(3);
    let mut conns = Vec::with_capacity(n_conns);
    for ci in 0..n_conns {
        let mut ops = Vec::new();
        let n_ops = 2 + script.gen_index(4);
        for oi in 0..n_ops {
            let id = format!("s{si}c{ci}-{oi}");
            let roll = script.gen_f64();
            if roll < 0.45 {
                // Predict, against the default model or a named tenant
                // (which may not be resident yet: a typed unknown_model).
                let model_field = match script.gen_index(4) {
                    0 | 1 => String::new(),
                    2 => ",\"model\":\"alpha\"".to_string(),
                    _ => ",\"model\":\"beta\"".to_string(),
                };
                let n_rows = 1 + rows_rng.gen_index(3);
                let rows: Vec<String> = (0..n_rows)
                    .map(|_| {
                        fmt_f64_row(&[
                            (rows_rng.next_u64() % 110) as f64 / 10.0,
                            (rows_rng.next_u64() % 50) as f64 / 10.0,
                        ])
                    })
                    .collect();
                let line = format!(
                    "{{\"op\":\"predict\",\"id\":\"{id}\",\"rows\":[{}]{model_field}}}",
                    rows.join(",")
                );
                if script.gen_bool(0.30) {
                    // Send the identical section twice (distinct ids):
                    // the second may answer from the prediction cache.
                    let dup =
                        line.replace(&format!("\"id\":\"{id}\""), &format!("\"id\":\"{id}d\""));
                    ops.push(line);
                    ops.push(dup);
                } else {
                    ops.push(line);
                }
            } else if roll < 0.55 {
                ops.push(format!("{{\"op\":\"health\",\"id\":\"{id}\"}}"));
            } else if roll < 0.68 {
                *registry_ops += 1;
                let m = if script.gen_bool(0.5) {
                    "alpha"
                } else {
                    "beta"
                };
                let v = 1 + script.gen_index(3);
                ops.push(format!(
                    "{{\"op\":\"load\",\"id\":\"{id}\",\"model\":\"{m}\",\"version\":\"w{v}\",\"path\":{}}}",
                    json_path(alt_path)
                ));
            } else if roll < 0.80 {
                *registry_ops += 1;
                let m = match script.gen_index(3) {
                    0 => "default",
                    1 => "alpha",
                    _ => "beta",
                };
                if script.gen_bool(0.20) {
                    // Fault the manifest save under the promote: the
                    // promote applies in memory but reports a typed
                    // failure, and restart must land on the prior
                    // manifest cleanly.
                    *touched_fs = true;
                    fs_script.fail_times(
                        Some(FsOp::Write),
                        "registry.json",
                        std::io::ErrorKind::PermissionDenied,
                        1 + script.gen_index(2) as u64,
                    );
                }
                let target = if script.gen_bool(0.30) {
                    poison_path
                } else {
                    alt_path
                };
                ops.push(format!(
                    "{{\"op\":\"promote\",\"id\":\"{id}\",\"model\":\"{m}\",\"path\":{}}}",
                    json_path(target)
                ));
            } else if roll < 0.88 {
                *registry_ops += 1;
                let m = match script.gen_index(3) {
                    0 => "default",
                    1 => "alpha",
                    _ => "beta",
                };
                ops.push(format!(
                    "{{\"op\":\"rollback\",\"id\":\"{id}\",\"model\":\"{m}\"}}"
                ));
            } else if roll < 0.95 {
                *registry_ops += 1;
                ops.push(format!("{{\"op\":\"list\",\"id\":\"{id}\"}}"));
            } else {
                ops.push(format!("{{\"op\":\"save\",\"id\":\"{id}\"}}"));
            }
        }
        conns.push(ConnPlan { ops });
    }
    (conns, script.gen_bool(0.03))
}

/// Which id a response line must echo.
#[derive(Debug)]
pub(crate) enum IdCheck<'a> {
    /// Any id (a single-connection session).
    Any,
    /// The issuing connection's id prefix (a multi-connection session).
    Prefix(&'a str),
    /// Exactly the issuing request's id (a fleet dispatch).
    Exact(Option<&'a str>),
}

/// Audits one response line against the protocol invariants: protocol
/// JSON with the schema marker and an `ok` field, an id routed back to
/// its issuer, and an error kind from the closed set. `at` locates the
/// line in violation messages.
pub(crate) fn audit_line(
    at: &str,
    line: &str,
    want: &IdCheck<'_>,
    typed_errors: &mut u64,
    violations: &mut Vec<String>,
) {
    let resp = match serde_json::from_str::<ReplyHeader>(line) {
        Ok(resp) => resp,
        Err(e) => {
            violations.push(format!("{at}: unparsable response line ({e}): {line}"));
            return;
        }
    };
    if resp.proto.as_deref() != Some(protocol::PROTOCOL) {
        violations.push(format!("{at}: response missing proto marker: {line}"));
    }
    if resp.ok.is_none() {
        violations.push(format!("{at}: response missing ok field: {line}"));
    }
    let id = resp.id.as_deref();
    let routed = match want {
        IdCheck::Any => true,
        IdCheck::Prefix(prefix) => id.is_some_and(|id| id.starts_with(prefix)),
        IdCheck::Exact(want_id) => id == *want_id,
    };
    if !routed {
        violations.push(format!(
            "{at}: response routed to the wrong issuer (want {want:?}, got id {id:?}): {line}"
        ));
    }
    if let Some(err) = resp.error {
        *typed_errors += 1;
        match err.kind.as_deref() {
            Some(kind) if KNOWN_KINDS.contains(&kind) => {}
            other => violations.push(format!(
                "{at}: error kind {other:?} is not in the closed set"
            )),
        }
    }
}

/// Audits every response line in raw session output; returns the count.
fn audit_responses(
    si: usize,
    raw: &[u8],
    typed_errors: &mut u64,
    violations: &mut Vec<String>,
    want: &IdCheck<'_>,
) -> u64 {
    let at = format!("s={si}");
    let text = String::from_utf8_lossy(raw);
    let mut n = 0u64;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        n += 1;
        audit_line(&at, line, want, typed_errors, violations);
    }
    n
}

pub(crate) fn new_shared(reg: Registry) -> Arc<Shared> {
    Arc::new(Shared {
        registry: Mutex::new(reg),
        queue: FairQueue::new(4, 2),
        cache: Mutex::new(PredictionCache::new(8)),
        stats: Stats::default(),
        draining: AtomicBool::new(false),
        workers: 1,
        default_deadline_ms: None,
    })
}

/// Folds a retiring `Shared`'s counters into the report (once per
/// daemon incarnation: before each restart and at run end).
fn absorb_stats(report: &mut SimReport, shared: &Shared) {
    report.cache_hits += shared.stats.cache_hits.load(Ordering::Relaxed);
    report.cache_misses += shared.stats.cache_misses.load(Ordering::Relaxed);
    report.quota_refusals += shared.stats.quota_refusals.load(Ordering::Relaxed);
}

/// Drains every queued job on the calling thread, checking the
/// fair-dequeue invariant: each pop must serve the head of the tenant
/// rotation, so a tenant with queued work is never starved.
fn drain(shared: &Arc<Shared>, si: usize, violations: &mut Vec<String>) {
    loop {
        let rotation = shared.queue.queued_tenants();
        let Some(job) = shared.queue.try_pop() else {
            break;
        };
        if rotation.first().map(String::as_str) != Some(job.tenant.as_str()) {
            violations.push(format!(
                "s={si}: unfair dequeue: served tenant {:?} but rotation head was {:?}",
                job.tenant,
                rotation.first()
            ));
        }
        answer(shared, job);
    }
}

/// Checks the registry's structural invariants: every model's active
/// version must be servable (so promotes and rollbacks can only land on
/// validated versions) and exactly one version is flagged active.
fn check_registry(shared: &Arc<Shared>, si: usize, violations: &mut Vec<String>) {
    let reg = super::lock_registry(shared);
    for m in reg.list() {
        if reg.resolve(Some(&m.name), None).is_err() {
            violations.push(format!(
                "s={si}: model {:?} active version {:?} is not servable",
                m.name, m.active
            ));
        }
        let active_flags = m.versions.iter().filter(|v| v.active).count();
        if active_flags != 1 {
            violations.push(format!(
                "s={si}: model {:?} has {active_flags} versions flagged active",
                m.name
            ));
        }
    }
}

/// Extracts the `"predictions":[...]` payload of the first response line.
fn predictions_payload(raw: &[u8]) -> Option<String> {
    let text = String::from_utf8_lossy(raw);
    let after = text.split("\"predictions\":").nth(1)?;
    Some(after.split(']').next()?.to_string())
}

/// The cache-consistency probe: predict one section twice with a drain in
/// between. The second answer may come from the prediction cache; either
/// way it must be **bit-identical** to the first (fresh) answer.
fn cache_probe(shared: &Arc<Shared>, si: usize, rows_rng: &SimRng, report: &mut SimReport) {
    let row = fmt_f64_row(&[
        (rows_rng.next_u64() % 110) as f64 / 10.0,
        (rows_rng.next_u64() % 50) as f64 / 10.0,
    ]);
    let hits_before = shared.stats.cache_hits.load(Ordering::Relaxed);
    let mut payloads = Vec::new();
    for tag in ["a", "b"] {
        let sink = Arc::new(Mutex::new(Vec::<u8>::new()));
        let writer: SharedWriter = Arc::new(Mutex::new(Box::new(VecWriter(Arc::clone(&sink)))));
        let line = format!("{{\"op\":\"predict\",\"id\":\"s{si}-probe-{tag}\",\"rows\":[{row}]}}");
        let _ = handle_line(shared, &line, &writer);
        drain(shared, si, &mut report.violations);
        let raw = sink.lock().unwrap_or_else(|e| e.into_inner()).clone();
        report.requests += 1;
        report.responses += audit_responses(
            si,
            &raw,
            &mut report.typed_errors,
            &mut report.violations,
            &IdCheck::Any,
        );
        payloads.push(predictions_payload(&raw));
    }
    if payloads[0].is_none() || payloads[0] != payloads[1] {
        report.violations.push(format!(
            "s={si}: cache probe not bit-identical: {:?} vs {:?}",
            payloads[0], payloads[1]
        ));
    }
    let hit = shared.stats.cache_hits.load(Ordering::Relaxed) > hits_before;
    report
        .trace
        .push(format!("s={si} probe row={row} cache_hit={hit}"));
}

pub(crate) struct VecWriter(pub(crate) Arc<Mutex<Vec<u8>>>);
impl std::io::Write for VecWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs one seeded simulation of the serving stack. See the module docs.
///
/// Process-global seams (clock, RNG, filesystem faults) are installed for
/// the duration and restored on exit; concurrent calls serialize on an
/// internal lock.
#[allow(clippy::too_many_lines)]
pub fn run_sim(cfg: &SimConfig) -> SimReport {
    let seams = SeamGuard::new();
    let mut report = SimReport {
        seed: cfg.seed,
        sessions: cfg.sessions,
        requests: 0,
        responses: 0,
        typed_errors: 0,
        restarts: 0,
        faults_injected: 0,
        multi_conn_sessions: 0,
        registry_ops: 0,
        cache_hits: 0,
        cache_misses: 0,
        quota_refusals: 0,
        violations: Vec::new(),
        trace: Vec::new(),
    };

    // Working directory and artifacts, reset to a clean slate so a replay
    // starts from the same filesystem state.
    let dir = sim_dir(cfg.seed);
    let dir_str = dir.display().to_string();
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        report
            .violations
            .push(format!("setup: cannot create {}: {e}", dir.display()));
        return report;
    }
    let model_path = dir.join("model.json");
    let alt_path = dir.join("alt.json");
    let poison_path = dir.join("poison.json");
    let manifest_path = dir.join("registry.json");
    let tree = sim_model(2.0);
    if let Err(e) = tree.save(&model_path) {
        report
            .violations
            .push(format!("setup: cannot save model: {e}"));
        return report;
    }
    if let Err(e) = sim_model(-3.0).save(&alt_path) {
        report
            .violations
            .push(format!("setup: cannot save alt model: {e}"));
        return report;
    }
    if let Err(e) = std::fs::write(&poison_path, b"{ definitely not a model }") {
        report
            .violations
            .push(format!("setup: cannot write poison artifact: {e}"));
        return report;
    }

    // Install the simulators; the guard restores everything on exit.
    let fs_script = Arc::new(FaultScript::new());
    seams.install(derive_seed(cfg.seed, "jitter"), &fs_script);

    let script = SimRng::seed_from_u64(derive_seed(cfg.seed, "script"));
    let rows_rng = SimRng::seed_from_u64(derive_seed(cfg.seed, "rows"));

    let reg = match Registry::open(&model_path, Some(&manifest_path)) {
        Ok(r) => r,
        Err(e) => {
            report
                .violations
                .push(format!("setup: initial open failed: {e}"));
            return report;
        }
    };
    let mut shared = new_shared(reg);
    report.trace.push(format!(
        "run seed={} sessions={} model=<sim>/model.json",
        cfg.seed, cfg.sessions,
    ));

    for si in 0..cfg.sessions {
        // Session mode: single-connection wire/struct (the protocol-v1
        // shapes) or multi-connection (the simulated accept loop).
        let multi = script.gen_bool(0.30);
        let mut saw_shutdown = false;
        let lossy;
        let crashed;
        let mut touched_fs = false;
        let n_resp;
        let expected;
        let out_hash;
        let mode;
        let n_ops;
        // Extra trace detail for multi-connection sessions (connection
        // and promote counts let a replayed trace be audited for the
        // "promote raced in-flight predicts" scenario by inspection).
        let mut mode_detail = String::new();

        if multi {
            report.multi_conn_sessions += 1;
            mode = "multi";
            let (conns, crash) = plan_multi_session(
                si,
                &script,
                &rows_rng,
                &fs_script,
                &alt_path,
                &poison_path,
                &mut report.registry_ops,
                &mut touched_fs,
            );
            crashed = crash;
            lossy = crash;
            let promotes = conns
                .iter()
                .flat_map(|c| &c.ops)
                .filter(|l| l.contains("\"op\":\"promote\""))
                .count();
            mode_detail = format!(" conns={} promotes={promotes}", conns.len());
            let total_ops: u64 = conns.iter().map(|c| c.ops.len() as u64).sum();
            expected = total_ops;
            n_ops = total_ops as usize;
            report.requests += total_ops;
            let sinks: Vec<Arc<Mutex<Vec<u8>>>> = (0..conns.len())
                .map(|_| Arc::new(Mutex::new(Vec::new())))
                .collect();
            let writers: Vec<SharedWriter> = sinks
                .iter()
                .map(|s| {
                    Arc::new(Mutex::new(
                        Box::new(VecWriter(Arc::clone(s))) as Box<dyn std::io::Write + Send>
                    ))
                })
                .collect();
            let shared_ref = Arc::clone(&shared);
            let mut cursors = vec![0usize; conns.len()];
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // The simulated accept loop: round-robin over live
                // connections, with scripted skips, partial drains, and
                // clock movement between ops — registry ops on one
                // connection race predictions in flight on the others.
                loop {
                    let mut progressed = false;
                    for (ci, conn) in conns.iter().enumerate() {
                        if cursors[ci] >= conn.ops.len() {
                            continue;
                        }
                        if script.gen_bool(0.20) {
                            continue; // this connection stalls one round
                        }
                        if script.gen_bool(0.35) {
                            if let Some(job) = shared_ref.queue.try_pop() {
                                answer(&shared_ref, job);
                            }
                        }
                        if script.gen_bool(0.25) {
                            clock::sleep(Duration::from_micros(script.next_u64() % 3000));
                        }
                        let _ = handle_line(&shared_ref, &conn.ops[cursors[ci]], &writers[ci]);
                        cursors[ci] += 1;
                        progressed = true;
                    }
                    if !progressed && cursors.iter().zip(&conns).all(|(c, p)| *c >= p.ops.len()) {
                        break;
                    }
                }
            }));
            if outcome.is_err() {
                report
                    .violations
                    .push(format!("s={si}: panic escaped multi-conn session"));
            }
            if crashed {
                while shared.queue.try_pop().is_some() {}
            } else {
                drain(&shared, si, &mut report.violations);
            }
            let mut total_resp = 0u64;
            let mut all_out = Vec::new();
            for (ci, sink) in sinks.iter().enumerate() {
                let raw = sink.lock().unwrap_or_else(|e| e.into_inner()).clone();
                let prefix = format!("s{si}c{ci}-");
                total_resp += audit_responses(
                    si,
                    &raw,
                    &mut report.typed_errors,
                    &mut report.violations,
                    &IdCheck::Prefix(&prefix),
                );
                all_out.extend_from_slice(&raw);
            }
            n_resp = total_resp;
            out_hash = mtperf_obs::fsio::fnv1a_64(sanitize(&all_out, &dir_str).as_bytes());
        } else {
            let plan = plan_session(
                si,
                &script,
                &rows_rng,
                &fs_script,
                &model_path,
                &poison_path,
            );
            mode = if plan.wire { "wire" } else { "struct" };
            crashed = plan.crash_after;
            lossy = plan.lossy;
            touched_fs = plan.touched_fs;
            expected = plan.expected;
            n_ops = plan.ops.len();
            report.requests += plan.expected;
            let shared_ref = Arc::clone(&shared);

            let raw_out: Vec<u8>;
            if plan.wire {
                let stream = SimStream::new();
                for f in &plan.read_faults {
                    stream.script_read_fault(f.clone());
                }
                for op in &plan.ops {
                    let line = match op {
                        Op::Line(l) | Op::Shutdown(l) => l,
                    };
                    stream.push_input(line.as_bytes());
                    stream.push_input(b"\n");
                }
                stream.close_input();
                let (reader, writer_half) = stream.split();
                let writer: SharedWriter = Arc::new(Mutex::new(Box::new(writer_half)));
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_session(&*shared_ref, std::io::BufReader::new(reader), writer);
                }));
                if outcome.is_err() {
                    report
                        .violations
                        .push(format!("s={si}: panic escaped run_session"));
                }
                saw_shutdown = SHUTDOWN.load(Ordering::SeqCst);
                clock::sleep(plan.advance_before_drain);
                if plan.crash_after {
                    // Simulated kill -9: queued work is lost with the process.
                    while shared.queue.try_pop().is_some() {}
                } else {
                    drain(&shared, si, &mut report.violations);
                }
                raw_out = stream.output();
            } else {
                let sink = Arc::new(Mutex::new(Vec::<u8>::new()));
                let writer: SharedWriter =
                    Arc::new(Mutex::new(Box::new(VecWriter(Arc::clone(&sink)))));
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    for op in &plan.ops {
                        // Interleave intake with partial drains and clock
                        // movement: the deadline-race and backpressure
                        // scheduler of the structured mode.
                        if script.gen_bool(0.3) {
                            if let Some(job) = shared_ref.queue.try_pop() {
                                answer(&shared_ref, job);
                            }
                        }
                        if script.gen_bool(0.3) {
                            clock::sleep(Duration::from_micros(script.next_u64() % 3000));
                        }
                        match op {
                            Op::Line(l) => {
                                if l.trim().is_empty() {
                                    continue;
                                }
                                let _ = handle_line(&shared_ref, l, &writer);
                            }
                            Op::Shutdown(l) => {
                                let _ = handle_line(&shared_ref, l, &writer);
                                SHUTDOWN.store(true, Ordering::SeqCst);
                                break;
                            }
                        }
                    }
                }));
                if outcome.is_err() {
                    report
                        .violations
                        .push(format!("s={si}: panic escaped handle_line"));
                }
                saw_shutdown = saw_shutdown || SHUTDOWN.load(Ordering::SeqCst);
                clock::sleep(plan.advance_before_drain);
                if plan.crash_after {
                    while shared.queue.try_pop().is_some() {}
                } else {
                    drain(&shared, si, &mut report.violations);
                }
                raw_out = sink.lock().unwrap_or_else(|e| e.into_inner()).clone();
            }

            n_resp = audit_responses(
                si,
                &raw_out,
                &mut report.typed_errors,
                &mut report.violations,
                &IdCheck::Any,
            );
            out_hash = mtperf_obs::fsio::fnv1a_64(sanitize(&raw_out, &dir_str).as_bytes());
        }

        report.responses += n_resp;
        if !lossy && !saw_shutdown && n_resp != expected {
            report.violations.push(format!(
                "s={si}: expected {expected} responses, observed {n_resp}"
            ));
        }
        if saw_shutdown && !lossy && n_resp > expected {
            report.violations.push(format!(
                "s={si}: more responses ({n_resp}) than requests ({expected})"
            ));
        }
        if shared.queue.depth() != 0 && !crashed {
            report.violations.push(format!(
                "s={si}: queue not drained ({})",
                shared.queue.depth()
            ));
        }
        check_registry(&shared, si, &mut report.violations);

        let degraded = super::lock_registry(&shared).degraded();
        report.trace.push(format!(
            "s={si} mode={mode}{mode_detail} ops={n_ops} expected={expected} lossy={lossy} shutdown={saw_shutdown} crash={crashed} out={n_resp} out_hash={out_hash:016x} t_us={} deg={degraded} faults={}",
            clock::now().as_micros(),
            fs_script.injected(),
        ));

        // The cache-consistency probe: occasionally re-ask the same
        // section twice and require bit-identical answers.
        if !saw_shutdown && script.gen_bool(0.20) {
            cache_probe(&shared, si, &rows_rng, &mut report);
        }

        // Drain/restart (after a shutdown op) and crash/restart cycles:
        // the registry on disk must reopen with the promoted version or a
        // clean prior one — the last-known-good invariant. Scripted fs
        // faults are cleared first: a restart is a fresh process whose
        // I/O works.
        if saw_shutdown || crashed || touched_fs {
            if saw_shutdown {
                shared.draining.store(true, Ordering::SeqCst);
                shared.queue.close();
                drain(&shared, si, &mut report.violations);
                if shared
                    .queue
                    .try_push("default", sim_probe_job(&shared))
                    .is_ok()
                {
                    report
                        .violations
                        .push(format!("s={si}: closed queue accepted work"));
                }
            }
            fs_script.clear();
            absorb_stats(&mut report, &shared);
            match Registry::open(&model_path, Some(&manifest_path)) {
                Ok(fresh) => {
                    shared = new_shared(fresh);
                    report.restarts += 1;
                    report.trace.push(format!(
                        "s={si} restart ok t_us={}",
                        clock::now().as_micros()
                    ));
                }
                Err(e) => {
                    report.violations.push(format!(
                        "s={si}: LAST KNOWN GOOD LOST — restart open failed: {e}"
                    ));
                    report.trace.push(format!("s={si} restart FAILED: {e}"));
                    // Re-seed the artifacts so the rest of the run still
                    // exercises the stack (the violation is recorded).
                    let _ = std::fs::remove_file(&manifest_path);
                    let _ = tree.save(&model_path);
                    if let Ok(fresh) = Registry::open(&model_path, Some(&manifest_path)) {
                        shared = new_shared(fresh);
                    }
                }
            }
            SHUTDOWN.store(false, Ordering::SeqCst);
        }
    }

    // Final drain must always exit cleanly.
    shared.draining.store(true, Ordering::SeqCst);
    shared.queue.close();
    drain(&shared, usize::MAX, &mut report.violations);
    if shared.queue.depth() != 0 {
        report
            .violations
            .push("final drain left queued work".into());
    }
    absorb_stats(&mut report, &shared);
    fs_script.clear();
    if let Err(e) = Registry::open(&model_path, Some(&manifest_path)) {
        report
            .violations
            .push(format!("final registry unservable: {e}"));
    }
    report.faults_injected = fs_script.injected();
    report.trace.push(format!(
        "end t_us={} requests={} responses={} typed_errors={} restarts={} faults={} multi={} regops={} cache_hits={} cache_misses={} quota={}",
        clock::now().as_micros(),
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
    ));

    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// A throwaway job used to probe that a closed queue refuses work.
fn sim_probe_job(shared: &Arc<Shared>) -> super::Job {
    struct NullWriter;
    impl std::io::Write for NullWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let resolved = super::lock_registry(shared)
        .resolve(None, None)
        .expect("default model is resident");
    super::Job {
        id: Some("probe".into()),
        tenant: "default".into(),
        version: resolved.version,
        model: resolved.model,
        model_degraded: resolved.degraded,
        rows: mtperf_linalg::Matrix::from_rows(&[&[0.0, 0.0][..]]).expect("static row"),
        token: mtperf_linalg::CancelToken::new(),
        writer: Arc::new(Mutex::new(Box::new(NullWriter))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sim_passes_and_replays_bit_identically() {
        let cfg = SimConfig {
            seed: 2007,
            sessions: 40,
        };
        let a = run_sim(&cfg);
        assert!(a.passed(), "violations: {:?}", a.violations);
        assert!(a.requests > 0 && a.responses > 0);
        let b = run_sim(&cfg);
        assert_eq!(a.trace, b.trace, "same seed must replay byte-identically");
        assert_eq!(a.trace_hash(), b.trace_hash());
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn multi_connection_and_registry_coverage_shows_up() {
        // A modest run must already exercise the new surfaces: several
        // multi-connection sessions and a healthy count of registry ops.
        let r = run_sim(&SimConfig {
            seed: 2026,
            sessions: 60,
        });
        assert!(r.passed(), "violations: {:?}", r.violations);
        assert!(r.multi_conn_sessions > 0, "no multi-connection sessions");
        assert!(r.registry_ops > 0, "no registry ops generated");
        assert!(
            r.cache_hits + r.cache_misses > 0,
            "prediction cache never consulted"
        );
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_sim(&SimConfig {
            seed: 1,
            sessions: 12,
        });
        let b = run_sim(&SimConfig {
            seed: 2,
            sessions: 12,
        });
        assert!(a.passed(), "{:?}", a.violations);
        assert!(b.passed(), "{:?}", b.violations);
        assert_ne!(a.trace_hash(), b.trace_hash());
    }

    #[test]
    fn seams_are_restored_after_a_sim() {
        let _ = run_sim(&SimConfig {
            seed: 3,
            sessions: 4,
        });
        // Real time flows again. Hold the seams while looking, so no
        // other simulation installs its clock in between.
        let _seams = SeamGuard::new();
        let t0 = clock::now();
        std::thread::sleep(Duration::from_millis(2));
        assert!(clock::now() > t0, "clock seam not restored");
        assert!(!SHUTDOWN.load(Ordering::SeqCst));
    }
}
