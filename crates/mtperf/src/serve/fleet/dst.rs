//! Deterministic simulation testing of the **fleet router**.
//!
//! One `u64` seed fully determines a simulated fleet: 2–4 in-process
//! replica engines (each a real [`Registry`] + `Shared` driven through
//! the production `handle_line`/`answer` path) behind one production
//! [`Fleet`] router, on a single logical thread under virtual time. The
//! script injects the failures the router exists to survive:
//!
//! * **replica kills and restarts** — a killed replica refuses
//!   connections until a scripted restart reopens its registry from the
//!   manifest that survived the crash;
//! * **partition/heal cycles** — all but one replica killed at once,
//!   later healed together;
//! * **latency spikes** — a slow replica still *does* the work, but its
//!   reply dies with the timed-out connection (exactly what makes
//!   hedging's loser cancellation worth testing);
//! * **transport drop bursts** — connections reset mid-exchange;
//! * **poisoned promotes** — broadcast deploys of an unservable
//!   artifact, plus injected manifest-write faults on individual
//!   replicas, leaving replica *subsets* degraded for the health merge
//!   to report honestly.
//!
//! After every dispatched request the harness checks the fleet
//! invariants: **every client request is answered exactly once** (one
//! well-formed line, echoing the request id — hedges and retries never
//! duplicate or drop an answer), every error is a typed kind from the
//! closed set, **circuit-open replicas receive only probe-admitted
//! exchanges**, and at the end of the run every replica — including ones
//! that died mid-promote — reopens its registry (no last known good is
//! lost across a kill). Traces hash exactly like the single-daemon
//! simulation: same seed, byte-identical trace, stable fingerprint.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mtperf_detsim::clock;
use mtperf_detsim::rng::{derive_seed, SimRng};
use mtperf_detsim::{FaultScript, FsOp};

use super::super::dst::{
    audit_line, fmt_f64_row, json_path, new_shared, sanitize, sim_model, IdCheck, SeamGuard,
    VecWriter,
};
use super::super::registry::Registry;
use super::super::router::handle_line;
use super::super::{answer, SessionControl, Shared, SharedWriter, SHUTDOWN};
use super::replica::{HealthState, ReplicaHealth};
use super::router::{dispatch_line, Fleet, FleetStats, ReplicaLink, ReplicaSlot};

/// One simulated fleet run's parameters.
#[derive(Debug, Clone)]
pub struct FleetSimConfig {
    /// Root seed; everything else derives from it.
    pub seed: u64,
    /// Client sessions to simulate.
    pub sessions: usize,
}

/// Everything observable from one simulated fleet run.
#[derive(Debug)]
pub struct FleetSimReport {
    /// The seed that produced this run.
    pub seed: u64,
    /// Sessions simulated.
    pub sessions: usize,
    /// Client request lines dispatched through the router.
    pub requests: u64,
    /// Response lines returned to clients.
    pub responses: u64,
    /// Responses that were typed protocol errors.
    pub typed_errors: u64,
    /// Scripted replica kills that hit a live replica.
    pub replica_kills: u64,
    /// Replica restarts (scripted heals plus the end-of-run recovery).
    pub replica_restarts: u64,
    /// Circuit-open transitions across all replica breakers.
    pub circuit_opens: u64,
    /// Predicts the router hedged past the latency threshold.
    pub hedged_predicts: u64,
    /// Failed-over attempts (request moved to another replica).
    pub failovers: u64,
    /// Requests answered with the typed `unavailable` brown-out error.
    pub unavailable: u64,
    /// Mutating ops broadcast fleet-wide.
    pub broadcasts: u64,
    /// Filesystem faults injected by the script.
    pub fs_faults: u64,
    /// Invariant violations (empty on a passing run).
    pub violations: Vec<String>,
    /// The replayable event trace.
    pub trace: Vec<String>,
}

impl FleetSimReport {
    /// `true` when no invariant was violated.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// FNV-1a fingerprint of the trace; byte-identical replays match.
    pub fn trace_hash(&self) -> u64 {
        mtperf_obs::fsio::fnv1a_64(self.trace.join("\n").as_bytes())
    }

    /// Writes the event trace to `path` atomically (one line per event,
    /// after a header naming the seed and verdict and one line per
    /// violation) for offline diffing.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from writing `path`.
    pub fn write_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        crate::serve::dst::write_trace_file(
            path,
            "dst fleet trace",
            self.seed,
            self.sessions,
            self.trace_hash(),
            &self.violations,
            &self.trace,
        )
    }
}

/// Breaker parameters for simulated replicas: open fast (2 consecutive
/// failures) and cool down briefly, so a sweep exercises many
/// open/probe/close cycles per seed.
const SIM_FAIL_THRESHOLD: u32 = 2;
const SIM_BASE_COOLDOWN: Duration = Duration::from_millis(20);
const SIM_MAX_COOLDOWN: Duration = Duration::from_millis(500);

/// One simulated replica's mutable backend state, shared between the
/// router's [`SimLink`] and the fault script driver.
struct ReplicaState {
    /// The live engine, or `None` while killed.
    shared: Option<Arc<Shared>>,
    /// Added service latency per exchange.
    latency: Duration,
    /// Exchanges to fail with a connection reset before recovering.
    drop_next: u32,
    /// Total exchanges attempted against this replica (including while
    /// down), for the circuit-discipline invariant.
    exchanges: u64,
    model_path: PathBuf,
    manifest_path: PathBuf,
}

/// The simulated [`ReplicaLink`]: in-process engine behind a scripted
/// faulty transport.
struct SimLink {
    state: Arc<Mutex<ReplicaState>>,
}

fn lock_state(state: &Arc<Mutex<ReplicaState>>) -> std::sync::MutexGuard<'_, ReplicaState> {
    state.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs one request line through a replica engine synchronously (the
/// replica's queue is drained on the spot) and returns its one response
/// line.
pub(crate) fn engine_exchange(shared: &Arc<Shared>, line: &str) -> String {
    let sink = Arc::new(Mutex::new(Vec::<u8>::new()));
    let writer: SharedWriter = Arc::new(Mutex::new(Box::new(VecWriter(Arc::clone(&sink)))));
    let control = handle_line(shared, line, &writer);
    while let Some(job) = shared.queue.try_pop() {
        answer(shared, job);
    }
    // The router never forwards `shutdown`, but keep the engine honest if
    // that ever changes: a replica-side drain must not wedge the sim.
    if matches!(control, SessionControl::Shutdown) {
        SHUTDOWN.store(false, Ordering::SeqCst);
    }
    let raw = sink.lock().unwrap_or_else(|e| e.into_inner()).clone();
    String::from_utf8_lossy(&raw).trim_end().to_string()
}

impl ReplicaLink for SimLink {
    fn exchange(&mut self, line: &str, wait: Duration) -> io::Result<String> {
        let (shared, latency) = {
            let mut st = lock_state(&self.state);
            st.exchanges += 1;
            let Some(shared) = st.shared.clone() else {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    "replica is down",
                ));
            };
            if st.drop_next > 0 {
                st.drop_next -= 1;
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "connection dropped mid-exchange",
                ));
            }
            (shared, st.latency)
        };
        if latency > wait {
            // The slow replica still does the work — but the reply dies
            // with the connection the caller tears down on timeout. The
            // exactly-once invariant must hold anyway.
            clock::sleep(wait);
            let _ = engine_exchange(&shared, line);
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "exchange exceeded its wait",
            ));
        }
        clock::sleep(latency);
        Ok(engine_exchange(&shared, line))
    }

    fn reset(&mut self) {}
}

fn fleet_dir(seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("mtperf-dst-fleet-{seed:016x}"))
}

/// Audits one dispatched response: exactly one well-formed line, id
/// routed back to the issuing request, error kinds from the closed set.
fn audit_response(
    si: usize,
    oi: usize,
    resp: &str,
    want_id: Option<&str>,
    typed_errors: &mut u64,
    violations: &mut Vec<String>,
) {
    let newlines = resp.matches('\n').count();
    if newlines != 1 || !resp.ends_with('\n') {
        violations.push(format!(
            "s={si} o={oi}: expected exactly one response line, got {newlines}: {resp:?}"
        ));
        return;
    }
    audit_line(
        &format!("s={si} o={oi}"),
        resp.trim_end(),
        &IdCheck::Exact(want_id),
        typed_errors,
        violations,
    );
}

/// Runs one seeded fleet simulation. Seams are installed for the
/// duration (one guard, shared with the single-daemon sim) and restored
/// on exit, panics included.
#[allow(clippy::too_many_lines)]
pub fn run_fleet_sim(cfg: &FleetSimConfig) -> FleetSimReport {
    let seams = SeamGuard::new();
    let mut report = FleetSimReport {
        seed: cfg.seed,
        sessions: cfg.sessions,
        requests: 0,
        responses: 0,
        typed_errors: 0,
        replica_kills: 0,
        replica_restarts: 0,
        circuit_opens: 0,
        hedged_predicts: 0,
        failovers: 0,
        unavailable: 0,
        broadcasts: 0,
        fs_faults: 0,
        violations: Vec::new(),
        trace: Vec::new(),
    };

    // Clean per-seed working directory so replays see identical disk.
    let dir = fleet_dir(cfg.seed);
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
    if let Err(e) = sim_model(2.0).save(&model_path) {
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
    seams.install(derive_seed(cfg.seed, "fleet-jitter"), &fs_script);

    let script = SimRng::seed_from_u64(derive_seed(cfg.seed, "fleet-script"));
    let rows_rng = SimRng::seed_from_u64(derive_seed(cfg.seed, "fleet-rows"));

    // 2–4 replicas, each with its own manifest (crash-survivable state).
    let n_replicas = 2 + script.gen_index(3);
    let mut states: Vec<Arc<Mutex<ReplicaState>>> = Vec::with_capacity(n_replicas);
    let mut slots: Vec<ReplicaSlot> = Vec::with_capacity(n_replicas);
    for i in 0..n_replicas {
        let manifest_path = dir.join(format!("registry-r{i}.json"));
        let reg = match Registry::open(&model_path, Some(&manifest_path)) {
            Ok(r) => r,
            Err(e) => {
                report
                    .violations
                    .push(format!("setup: replica r{i} open failed: {e}"));
                return report;
            }
        };
        let state = Arc::new(Mutex::new(ReplicaState {
            shared: Some(new_shared(reg)),
            latency: Duration::ZERO,
            drop_next: 0,
            exchanges: 0,
            model_path: model_path.clone(),
            manifest_path,
        }));
        slots.push(ReplicaSlot::new(
            format!("r{i}"),
            Box::new(SimLink {
                state: Arc::clone(&state),
            }),
            ReplicaHealth::new(SIM_FAIL_THRESHOLD, SIM_BASE_COOLDOWN, SIM_MAX_COOLDOWN),
        ));
        states.push(state);
    }
    let fleet = Fleet {
        replicas: slots,
        hedge_after: Duration::from_millis(4),
        retry_attempts: 3,
        retry_base: Duration::from_millis(1),
        retry_cap: Duration::from_millis(50),
        stats: FleetStats::default(),
    };
    report.trace.push(format!(
        "run seed={} sessions={} replicas={n_replicas} model=<sim>/model.json",
        cfg.seed, cfg.sessions,
    ));

    let restart =
        |i: usize, states: &[Arc<Mutex<ReplicaState>>], report: &mut FleetSimReport| -> bool {
            let mut st = lock_state(&states[i]);
            match Registry::open(&st.model_path, Some(&st.manifest_path)) {
                Ok(reg) => {
                    st.shared = Some(new_shared(reg));
                    report.replica_restarts += 1;
                    true
                }
                Err(e) => {
                    report.violations.push(format!(
                        "replica r{i} lost its last known good across a kill: {e}"
                    ));
                    false
                }
            }
        };

    for si in 0..cfg.sessions {
        // ---- scripted fault events for this session ----
        let mut events = String::new();
        if script.gen_bool(0.12) {
            let r = script.gen_index(n_replicas);
            let was_alive = lock_state(&states[r]).shared.take().is_some();
            if was_alive {
                report.replica_kills += 1;
                events.push_str(&format!(" kill=r{r}"));
            }
        }
        if script.gen_bool(0.15) {
            let r = script.gen_index(n_replicas);
            if lock_state(&states[r]).shared.is_none() {
                fs_script.clear();
                if restart(r, &states, &mut report) {
                    events.push_str(&format!(" restart=r{r}"));
                }
            }
        }
        if script.gen_bool(0.20) {
            let r = script.gen_index(n_replicas);
            let ms = 1 + script.gen_index(20) as u64;
            lock_state(&states[r]).latency = Duration::from_millis(ms);
            events.push_str(&format!(" lat=r{r}:{ms}ms"));
        }
        if script.gen_bool(0.20) {
            let r = script.gen_index(n_replicas);
            lock_state(&states[r]).latency = Duration::ZERO;
        }
        if script.gen_bool(0.10) {
            let r = script.gen_index(n_replicas);
            let n = 1 + script.gen_index(3) as u32;
            lock_state(&states[r]).drop_next = n;
            events.push_str(&format!(" drop=r{r}:{n}"));
        }
        if script.gen_bool(0.04) {
            // Partition: every replica but one survivor goes dark at once.
            let survivor = script.gen_index(n_replicas);
            let mut downed = 0;
            for (r, state) in states.iter().enumerate() {
                if r != survivor && lock_state(state).shared.take().is_some() {
                    report.replica_kills += 1;
                    downed += 1;
                }
            }
            if downed > 0 {
                events.push_str(&format!(" partition=survivor:r{survivor}"));
            }
        }
        if script.gen_bool(0.06) {
            // Heal: every dead replica restarts together.
            fs_script.clear();
            let mut healed = 0;
            for r in 0..n_replicas {
                if lock_state(&states[r]).shared.is_none() && restart(r, &states, &mut report) {
                    healed += 1;
                }
            }
            if healed > 0 {
                events.push_str(&format!(" heal={healed}"));
            }
        }
        if script.gen_bool(0.05) {
            // A single replica's manifest write fails on the next
            // persist: the promote broadcast then poisons a *subset*.
            let r = script.gen_index(n_replicas);
            fs_script.fail_times(
                Some(FsOp::Write),
                &format!("registry-r{r}"),
                std::io::ErrorKind::PermissionDenied,
                1,
            );
            events.push_str(&format!(" manifest_fault=r{r}"));
        }

        // ---- client ops for this session ----
        let n_ops = 1 + script.gen_index(5);
        let mut out_all = String::new();
        for oi in 0..n_ops {
            let roll = script.gen_f64();
            let (line, id) = if roll < 0.62 {
                let id = format!("s{si}-o{oi}");
                let row = fmt_f64_row(&[
                    (rows_rng.next_u64() % 110) as f64 / 10.0,
                    (rows_rng.next_u64() % 50) as f64 / 10.0,
                ]);
                let deadline = if script.gen_bool(0.3) {
                    format!(",\"deadline_ms\":{}", 5 + script.gen_index(60))
                } else {
                    String::new()
                };
                (
                    format!("{{\"op\":\"predict\",\"id\":\"{id}\",\"rows\":[{row}]{deadline}}}"),
                    Some(id),
                )
            } else if roll < 0.72 {
                let id = format!("s{si}-o{oi}");
                (format!("{{\"op\":\"health\",\"id\":\"{id}\"}}"), Some(id))
            } else if roll < 0.77 {
                let id = format!("s{si}-o{oi}");
                (format!("{{\"op\":\"ready\",\"id\":\"{id}\"}}"), Some(id))
            } else if roll < 0.85 {
                let id = format!("s{si}-o{oi}");
                let target = if script.gen_bool(0.4) {
                    &poison_path
                } else {
                    &alt_path
                };
                (
                    format!(
                        "{{\"op\":\"promote\",\"id\":\"{id}\",\"path\":{}}}",
                        json_path(target)
                    ),
                    Some(id),
                )
            } else if roll < 0.90 {
                let id = format!("s{si}-o{oi}");
                (format!("{{\"op\":\"rollback\",\"id\":\"{id}\"}}"), Some(id))
            } else if roll < 0.96 {
                let id = format!("s{si}-o{oi}");
                (format!("{{\"op\":\"list\",\"id\":\"{id}\"}}"), Some(id))
            } else {
                let id = format!("s{si}-o{oi}");
                (format!("{{\"op\":\"save\",\"id\":\"{id}\"}}"), Some(id))
            };

            // Snapshot breaker/exchange counters for the circuit-traffic
            // discipline check.
            let pre: Vec<(HealthState, u64, u64)> = fleet
                .replicas
                .iter()
                .enumerate()
                .map(|(i, slot)| {
                    let h = slot.health_snapshot();
                    (h.state(), h.probes(), lock_state(&states[i]).exchanges)
                })
                .collect();

            let (resp, _control) = dispatch_line(&fleet, &line);
            report.requests += 1;
            report.responses += 1;
            audit_response(
                si,
                oi,
                &resp,
                id.as_deref(),
                &mut report.typed_errors,
                &mut report.violations,
            );
            out_all.push_str(&resp);

            for (i, (pre_state, pre_probes, pre_ex)) in pre.iter().enumerate() {
                if matches!(pre_state, HealthState::CircuitOpen | HealthState::HalfOpen) {
                    let h = fleet.replicas[i].health_snapshot();
                    let d_ex = lock_state(&states[i]).exchanges - pre_ex;
                    let d_probes = h.probes() - pre_probes;
                    if d_ex > d_probes {
                        report.violations.push(format!(
                            "s={si} o={oi}: circuit-open replica r{i} received \
                             {d_ex} exchanges but only {d_probes} probe admissions"
                        ));
                    }
                }
            }
        }

        let alive = states
            .iter()
            .filter(|s| lock_state(s).shared.is_some())
            .count();
        report.trace.push(format!(
            "s={si} ops={n_ops} alive={alive}/{n_replicas}{events} t_us={} out_hash={:016x}",
            clock::now().as_micros(),
            mtperf_obs::fsio::fnv1a_64(sanitize(out_all.as_bytes(), &dir_str).as_bytes()),
        ));
    }

    // ---- end of run: heal the fleet and prove nothing was lost ----
    fs_script.clear();
    for r in 0..n_replicas {
        if lock_state(&states[r]).shared.is_none() {
            restart(r, &states, &mut report);
        }
    }
    for (r, state) in states.iter().enumerate() {
        let st = lock_state(state);
        if let Some(shared) = &st.shared {
            let reg = shared.registry.lock().unwrap_or_else(|e| e.into_inner());
            if reg.resolve(None, None).is_err() {
                report.violations.push(format!(
                    "end: replica r{r} default model is not servable after recovery"
                ));
            }
        }
    }
    report.circuit_opens = fleet.circuit_opens();
    report.hedged_predicts = fleet.stats.hedged_predicts.load(Ordering::Relaxed);
    report.failovers = fleet.stats.failovers.load(Ordering::Relaxed);
    report.unavailable = fleet.stats.unavailable.load(Ordering::Relaxed);
    report.broadcasts = fleet.stats.broadcasts.load(Ordering::Relaxed);
    report.fs_faults = fs_script.injected();
    report.trace.push(format!(
        "end t_us={} requests={} responses={} typed_errors={} kills={} restarts={} \
         circuit_opens={} hedged={} failovers={} unavailable={} broadcasts={} fs_faults={}",
        clock::now().as_micros(),
        report.requests,
        report.responses,
        report.typed_errors,
        report.replica_kills,
        report.replica_restarts,
        report.circuit_opens,
        report.hedged_predicts,
        report.failovers,
        report.unavailable,
        report.broadcasts,
        report.fs_faults,
    ));
    let _ = std::fs::remove_dir_all(&dir);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fleet_sim_passes_and_replays_bit_identically() {
        let cfg = FleetSimConfig {
            seed: 4007,
            sessions: 40,
        };
        let a = run_fleet_sim(&cfg);
        assert!(a.passed(), "violations: {:#?}", a.violations);
        assert_eq!(a.requests, a.responses, "exactly-once accounting broke");
        let b = run_fleet_sim(&cfg);
        assert_eq!(a.trace, b.trace, "same seed must replay byte-identically");
        assert_eq!(a.trace_hash(), b.trace_hash());
    }

    #[test]
    fn fleet_fault_coverage_shows_up() {
        // A moderate run must actually exercise the failure machinery —
        // a fleet sim that never kills a replica or opens a circuit is a
        // silently weakened harness.
        let report = run_fleet_sim(&FleetSimConfig {
            seed: 4100,
            sessions: 160,
        });
        assert!(report.passed(), "violations: {:#?}", report.violations);
        assert!(report.replica_kills > 0, "no replica kills simulated");
        assert!(report.circuit_opens > 0, "no circuit ever opened");
        assert!(report.failovers > 0, "no failover ever happened");
        assert!(report.typed_errors > 0, "no typed error surfaced");
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_fleet_sim(&FleetSimConfig {
            seed: 5001,
            sessions: 30,
        });
        let b = run_fleet_sim(&FleetSimConfig {
            seed: 5002,
            sessions: 30,
        });
        assert_ne!(a.trace_hash(), b.trace_hash());
    }

    #[test]
    fn trace_file_names_the_run_then_lists_every_event() {
        let report = run_fleet_sim(&FleetSimConfig {
            seed: 5003,
            sessions: 12,
        });
        let dir = std::env::temp_dir().join(format!(
            "mtperf-dst-fleet-trace-test-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.trace");
        report.write_trace(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        let mut lines = text.lines();
        let header = lines.next().unwrap();
        let verdict = if report.passed() { "pass" } else { "FAIL" };
        assert_eq!(
            header,
            format!(
                "# mtperf dst fleet trace seed=5003 sessions=12 hash={:016x} verdict={verdict}",
                report.trace_hash()
            )
        );
        let violations: Vec<&str> = lines
            .clone()
            .take_while(|l| l.starts_with("# violation: "))
            .collect();
        assert_eq!(violations.len(), report.violations.len());
        let events: Vec<&str> = lines.skip(violations.len()).collect();
        assert_eq!(events, report.trace);
    }
}
