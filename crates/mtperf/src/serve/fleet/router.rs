//! Fleet fan-out: request routing, hedging, broadcast, health merge.
//!
//! One [`Fleet`] multiplexes any number of client sessions over a fixed
//! set of replica daemons, speaking `mtperf-serve-v2` unchanged on both
//! sides. Per request the router guarantees **exactly one** response
//! line, on the issuing connection, no matter how many replica exchanges
//! (retries, hedges, probes) it took to produce it:
//!
//! * **idempotent ops** (`predict`, `health`, `ready`, `list`, and
//!   anything unparsable — the replica's deterministic `bad_request`
//!   answer is safe to recompute) are dispatched to one replica chosen
//!   by power-of-two-choices over the admitted set, preferring recovery
//!   probes so circuit-open replicas get a path back in. Failures burn
//!   the request's [`RetryBudget`] (backoff through the `clock` seam)
//!   and fail over to another replica within the remaining
//!   `deadline_ms`. A `predict` that exceeds the hedge threshold is
//!   abandoned (its link reset, so the slow response dies with the
//!   connection — the loser is cancelled) and re-sent once, immediately,
//!   elsewhere: first well-formed response wins.
//! * **mutating ops** (`load`, `promote`, `rollback`, `reload`, `save`)
//!   broadcast sequentially to every admitted replica; the client sees
//!   the first failure (any replica refusing a deploy means the deploy
//!   did not land fleet-wide) or else the first success.
//! * **`health`/`ready`** additionally fan out to *all* admitted
//!   replicas and merge: counters sum, a model is fleet-degraded only
//!   when no reporting replica serves it clean, and the fleet is ready
//!   while any replica is.
//! * **brown-out** — no replica admitted or every attempt exhausted —
//!   answers a typed [`protocol::E_UNAVAILABLE`] error. Never a hang,
//!   never a dropped line.

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use mtperf_detsim::{clock, rng};
use serde::Deserialize;

use super::super::protocol::{self, ReplyHeader, Response};
use super::super::transport::{write_line, Dispatch};
use super::super::{SessionControl, SharedWriter};
use super::balance;
use super::replica::{Admission, ReplicaHealth};
use super::retry::RetryBudget;

/// Wait bound for exchanges that carry no client deadline (mutating ops,
/// health fan-outs, un-deadlined predicts). Generous — model validation
/// on a promote is real work — but finite: a wedged replica must not
/// wedge the router.
const DEFAULT_EXCHANGE_WAIT: Duration = Duration::from_secs(30);

/// One request/response exchange with a replica.
///
/// `exchange` sends one protocol line (without the trailing newline) and
/// waits up to `wait` for the replica's one-line answer. On *any* error
/// — including `TimedOut` — the implementation must also discard its
/// connection state, so a late response can never surface on a later
/// exchange. That teardown is what makes hedging's loser cancellation
/// sound: the abandoned response dies with the dropped connection.
pub trait ReplicaLink: Send {
    /// Performs one exchange. See the trait docs for the error contract.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`]; `TimedOut`/`WouldBlock` mean the wait elapsed.
    fn exchange(&mut self, line: &str, wait: Duration) -> io::Result<String>;

    /// Drops any live connection state (idempotent).
    fn reset(&mut self);
}

/// One replica as the router sees it: a link, a breaker, and an
/// inflight count for power-of-two-choices.
pub struct ReplicaSlot {
    /// Display name (the replica address, or a sim tag).
    pub name: String,
    link: Mutex<Box<dyn ReplicaLink>>,
    health: Mutex<ReplicaHealth>,
    inflight: AtomicUsize,
}

impl ReplicaSlot {
    /// Wraps a link with a fresh breaker.
    pub fn new(name: String, link: Box<dyn ReplicaLink>, health: ReplicaHealth) -> ReplicaSlot {
        ReplicaSlot {
            name,
            link: Mutex::new(link),
            health: Mutex::new(health),
            inflight: AtomicUsize::new(0),
        }
    }

    /// A snapshot of this replica's breaker (state and counters).
    pub fn health_snapshot(&self) -> ReplicaHealth {
        self.health
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

/// Router-level counters, exposed for the simulator's coverage floors.
#[derive(Debug, Default)]
pub struct FleetStats {
    /// Attempts moved to a different replica after a hard failure.
    pub failovers: AtomicU64,
    /// Predicts re-sent after exceeding the hedge threshold.
    pub hedged_predicts: AtomicU64,
    /// Requests answered with the typed `unavailable` brown-out error.
    pub unavailable: AtomicU64,
    /// Mutating ops broadcast to the fleet.
    pub broadcasts: AtomicU64,
}

/// The router: replica slots plus the dispatch policy knobs.
pub struct Fleet {
    /// The replica set, in configuration order.
    pub replicas: Vec<ReplicaSlot>,
    /// A predict exchange slower than this is hedged (re-sent once).
    pub hedge_after: Duration,
    /// Retry attempts per request.
    pub retry_attempts: u32,
    /// First-retry backoff target.
    pub retry_base: Duration,
    /// Backoff ceiling.
    pub retry_cap: Duration,
    /// Router counters.
    pub stats: FleetStats,
}

impl Fleet {
    /// Sums of the per-replica breaker counters (for sweeps and health).
    pub fn circuit_opens(&self) -> u64 {
        self.replicas
            .iter()
            .map(|r| r.health_snapshot().circuit_opens())
            .sum()
    }
}

/// The payload half of a replica's `health` reply, for merging.
#[derive(Debug, Deserialize)]
struct WireHealthReply {
    health: Option<WireHealth>,
}

/// Lenient mirror of a replica's health payload for merging.
#[derive(Debug, Deserialize)]
struct WireHealth {
    ready: Option<bool>,
    degraded: Option<bool>,
    model: Option<String>,
    workers: Option<u64>,
    queue_depth: Option<u64>,
    queue_capacity: Option<u64>,
    requests: Option<u64>,
    overloaded: Option<u64>,
    deadline_misses: Option<u64>,
    degraded_responses: Option<u64>,
    reloads: Option<u64>,
    versions: Option<u64>,
    cache_hits: Option<u64>,
    cache_misses: Option<u64>,
    quota_refusals: Option<u64>,
    per_model: Option<Vec<WireModelHealth>>,
    draining: Option<bool>,
}

#[derive(Debug, Deserialize)]
struct WireModelHealth {
    name: Option<String>,
    degraded: Option<bool>,
    active: Option<String>,
    last_error: Option<String>,
}

/// `true` when the op may be re-sent without changing replica state.
/// `None` covers missing/unparsable ops: every replica answers those
/// with the same deterministic `bad_request`, so recomputing is safe.
fn is_idempotent(op: Option<&str>) -> bool {
    matches!(op, None | Some("predict" | "health" | "ready" | "list"))
}

/// One accounted exchange with replica `idx`: inflight tracked, breaker
/// charged for the outcome, link reset on failure (loser cancellation).
/// The reply comes back with its header, read once here by the protocol
/// scanner (the payload is syntax-checked, not built): a replica that
/// answers garbage is as failed as one that answers nothing — the reply
/// is discarded and the breaker charged.
fn try_replica(
    fleet: &Fleet,
    idx: usize,
    line: &str,
    wait: Duration,
) -> io::Result<(String, ReplyHeader)> {
    let slot = &fleet.replicas[idx];
    slot.inflight.fetch_add(1, Ordering::SeqCst);
    let outcome = {
        let mut link = slot.link.lock().unwrap_or_else(|e| e.into_inner());
        link.exchange(line, wait)
    };
    slot.inflight.fetch_sub(1, Ordering::SeqCst);
    let outcome = match outcome {
        Ok(mut reply) => {
            let framed = reply.trim_end_matches(['\r', '\n']).len();
            reply.truncate(framed);
            match protocol::decode_reply_header(&reply) {
                Ok(header) if header.well_formed() => Ok((reply, header)),
                _ => Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("replica {} answered a malformed line", slot.name),
                )),
            }
        }
        Err(e) => Err(e),
    };
    let mut health = slot.health.lock().unwrap_or_else(|e| e.into_inner());
    match &outcome {
        Ok(_) => health.on_success(),
        Err(_) => {
            health.on_failure(clock::now());
            drop(health);
            slot.link.lock().unwrap_or_else(|e| e.into_inner()).reset();
        }
    }
    outcome
}

/// The admitted candidate set at `now`: probe indices (circuit recovery)
/// and normal `(index, inflight)` pairs, minus `exclude`.
fn candidates(
    fleet: &Fleet,
    now: Duration,
    exclude: Option<usize>,
) -> (Vec<usize>, Vec<(usize, usize)>) {
    let mut probes = Vec::new();
    let mut normals = Vec::new();
    for (i, slot) in fleet.replicas.iter().enumerate() {
        if Some(i) == exclude {
            continue;
        }
        let admission = slot
            .health
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .admit(now);
        match admission {
            Admission::Normal => normals.push((i, slot.inflight.load(Ordering::SeqCst))),
            Admission::Probe => probes.push(i),
            Admission::Refuse => {}
        }
    }
    (probes, normals)
}

/// Routes one idempotent request: pick, exchange, hedge once on a slow
/// predict, fail over on errors within the retry budget and deadline.
fn route(
    fleet: &Fleet,
    line: &str,
    id: Option<String>,
    is_predict: bool,
    deadline_ms: Option<u64>,
) -> String {
    let start = clock::now();
    let deadline = deadline_ms.map(Duration::from_millis);
    let mut budget = RetryBudget::new(fleet.retry_attempts, fleet.retry_base, fleet.retry_cap);
    let rng = rng::global();
    let mut hedged = false;
    let mut last_failure: Option<io::Error> = None;
    // Avoid immediately re-picking the replica that just failed when an
    // alternative exists; `None` on the first attempt.
    let mut exclude: Option<usize> = None;
    loop {
        let now = clock::now();
        let remaining = deadline.map(|d| d.saturating_sub(now - start));
        if remaining == Some(Duration::ZERO) {
            return Response::error(
                id,
                protocol::E_DEADLINE,
                "deadline expired before a replica answered",
            )
            .to_line();
        }
        let (probes, normals) = candidates(fleet, now, exclude);
        let pick = probes
            .first()
            .copied()
            .or_else(|| balance::pick_two_choices(&rng, &normals));
        let Some(pick) = pick else {
            if exclude.is_some() {
                // Nothing but the just-failed replica left: allow it back
                // into the pool rather than browning out early.
                exclude = None;
                continue;
            }
            fleet.stats.unavailable.fetch_add(1, Ordering::Relaxed);
            let detail = match &last_failure {
                Some(e) => format!("no replica available (last failure: {e})"),
                None => "no replica available (all circuits open or refused)".to_string(),
            };
            return Response::error(id, protocol::E_UNAVAILABLE, detail).to_line();
        };
        // A predict hedges: bound the first wait by the hedge threshold
        // so a slow replica is raced, not waited out.
        let wait = match (is_predict && !hedged, remaining) {
            (true, Some(rem)) => fleet.hedge_after.min(rem),
            (true, None) => fleet.hedge_after,
            (false, Some(rem)) => rem.min(DEFAULT_EXCHANGE_WAIT),
            (false, None) => DEFAULT_EXCHANGE_WAIT,
        };
        match try_replica(fleet, pick, line, wait) {
            Ok((reply, _)) => return reply + "\n",
            Err(e) if timed_out(&e) && is_predict && !hedged => {
                // Hedge: the loser was cancelled by the link reset in
                // try_replica; re-send immediately on another replica.
                hedged = true;
                fleet.stats.hedged_predicts.fetch_add(1, Ordering::Relaxed);
                last_failure = Some(e);
                exclude = Some(pick);
            }
            Err(e) => {
                last_failure = Some(e);
                exclude = Some(pick);
                match budget.next_delay(&rng, remaining) {
                    Some(delay) => {
                        fleet.stats.failovers.fetch_add(1, Ordering::Relaxed);
                        clock::sleep(delay);
                    }
                    None => {
                        let (kind, what) = if deadline.is_some() {
                            (protocol::E_DEADLINE, "retry budget cannot fit the deadline")
                        } else {
                            (protocol::E_UNAVAILABLE, "retry budget exhausted")
                        };
                        if kind == protocol::E_UNAVAILABLE {
                            fleet.stats.unavailable.fetch_add(1, Ordering::Relaxed);
                        }
                        let last = last_failure
                            .as_ref()
                            .map(|e| e.to_string())
                            .unwrap_or_default();
                        return Response::error(id, kind, format!("{what} (last failure: {last})"))
                            .to_line();
                    }
                }
            }
        }
    }
}

fn timed_out(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}

/// Broadcasts a mutating op to every admitted replica, sequentially and
/// in slot order (deterministic under simulation). The client sees the
/// first per-replica failure response verbatim, else the first success;
/// replicas that were down simply miss the deploy — the health merge
/// surfaces the divergence until they are re-deployed.
fn broadcast(fleet: &Fleet, line: &str, id: Option<String>) -> String {
    fleet.stats.broadcasts.fetch_add(1, Ordering::Relaxed);
    let now = clock::now();
    let mut first_ok: Option<String> = None;
    let mut first_err: Option<String> = None;
    for i in 0..fleet.replicas.len() {
        let admission = fleet.replicas[i]
            .health
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .admit(now);
        if admission == Admission::Refuse {
            continue;
        }
        if let Ok((reply, header)) = try_replica(fleet, i, line, DEFAULT_EXCHANGE_WAIT) {
            let slot = if header.ok == Some(true) {
                &mut first_ok
            } else {
                &mut first_err
            };
            if slot.is_none() {
                *slot = Some(reply);
            }
        }
    }
    match (first_err, first_ok) {
        (Some(err), _) => err + "\n",
        (None, Some(ok)) => ok + "\n",
        (None, None) => {
            fleet.stats.unavailable.fetch_add(1, Ordering::Relaxed);
            Response::error(
                id,
                protocol::E_UNAVAILABLE,
                "no replica reachable for this operation",
            )
            .to_line()
        }
    }
}

/// Fans a `health`/`ready` request to every admitted replica and merges
/// the payloads: counters sum; the fleet is ready while any replica is;
/// a model is fleet-degraded only when **no** reporting replica serves
/// it clean (the honest merge the per-model rows exist for).
fn merge_health(fleet: &Fleet, line: &str, id: Option<String>) -> String {
    let now = clock::now();
    let mut payloads: Vec<WireHealth> = Vec::new();
    for i in 0..fleet.replicas.len() {
        let admission = fleet.replicas[i]
            .health
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .admit(now);
        if admission == Admission::Refuse {
            continue;
        }
        if let Ok((reply, _)) = try_replica(fleet, i, line, DEFAULT_EXCHANGE_WAIT) {
            if let Ok(wire) = serde_json::from_str::<WireHealthReply>(&reply) {
                if let Some(h) = wire.health {
                    payloads.push(h);
                }
            }
        }
    }
    if payloads.is_empty() {
        fleet.stats.unavailable.fetch_add(1, Ordering::Relaxed);
        return Response::error(
            id,
            protocol::E_UNAVAILABLE,
            "no replica answered the health probe",
        )
        .to_line();
    }
    // Per-model merge: clean_count per name decides fleet-degraded.
    struct ModelAcc {
        reporting: u64,
        clean: u64,
        active: String,
        last_error: Option<String>,
    }
    let mut models: BTreeMap<String, ModelAcc> = BTreeMap::new();
    for h in &payloads {
        for m in h.per_model.iter().flatten() {
            let Some(name) = m.name.clone() else { continue };
            let acc = models.entry(name).or_insert_with(|| ModelAcc {
                reporting: 0,
                clean: 0,
                active: String::new(),
                last_error: None,
            });
            acc.reporting += 1;
            if m.degraded == Some(false) {
                acc.clean += 1;
                if let Some(a) = &m.active {
                    acc.active = a.clone();
                }
            } else {
                if acc.active.is_empty() {
                    if let Some(a) = &m.active {
                        acc.active = a.clone();
                    }
                }
                if acc.last_error.is_none() {
                    acc.last_error = m.last_error.clone();
                }
            }
        }
    }
    let per_model: Vec<protocol::ModelHealth> = models
        .into_iter()
        .map(|(name, acc)| protocol::ModelHealth {
            name,
            degraded: acc.clean == 0,
            active: acc.active,
            last_error: if acc.clean == 0 { acc.last_error } else { None },
        })
        .collect();
    // With no per-model rows (a pre-fleet replica build), fall back to
    // the replica-level flag under the same rule: degraded only when no
    // reporting replica is clean.
    let degraded = if per_model.is_empty() {
        payloads.iter().all(|h| h.degraded == Some(true))
    } else {
        per_model.iter().any(|m| m.degraded)
    };
    let sum = |f: fn(&WireHealth) -> Option<u64>| -> u64 { payloads.iter().filter_map(f).sum() };
    let merged = protocol::Health {
        ready: payloads.iter().any(|h| h.ready == Some(true)),
        degraded,
        model: payloads
            .iter()
            .find_map(|h| h.model.clone())
            .unwrap_or_default(),
        workers: sum(|h| h.workers) as usize,
        queue_depth: sum(|h| h.queue_depth) as usize,
        queue_capacity: sum(|h| h.queue_capacity) as usize,
        requests: sum(|h| h.requests),
        overloaded: sum(|h| h.overloaded),
        deadline_misses: sum(|h| h.deadline_misses),
        degraded_responses: sum(|h| h.degraded_responses),
        reloads: sum(|h| h.reloads),
        models: per_model.len(),
        // Replicas of one deploy agree on resident versions; report the
        // largest view rather than a misleading sum.
        versions: payloads
            .iter()
            .filter_map(|h| h.versions)
            .max()
            .unwrap_or(0) as usize,
        cache_hits: sum(|h| h.cache_hits),
        cache_misses: sum(|h| h.cache_misses),
        quota_refusals: sum(|h| h.quota_refusals),
        per_model,
        draining: !payloads.is_empty() && payloads.iter().all(|h| h.draining == Some(true)),
    };
    Response::health(id, merged).to_line()
}

/// Dispatches one client line to the fleet and returns exactly one
/// response line (newline-terminated) plus the session verdict. Only the
/// header is read; a line the scanner refuses has no op, id or deadline,
/// and the replica answers it with its `bad_request`.
pub(crate) fn dispatch_line(fleet: &Fleet, line: &str) -> (String, SessionControl) {
    let protocol::RequestHeader {
        id,
        op,
        deadline_ms,
        ..
    } = protocol::decode_header(line).unwrap_or_default();
    let op = op.as_deref();
    match op {
        // Drain is a router-level decision: acknowledged locally, never
        // forwarded (killing the replicas is the operator's call).
        Some("shutdown") => (Response::ack(id).to_line(), SessionControl::Shutdown),
        Some("health" | "ready") => (merge_health(fleet, line, id), SessionControl::Continue),
        op if is_idempotent(op) => (
            route(fleet, line, id, op == Some("predict"), deadline_ms),
            SessionControl::Continue,
        ),
        // Everything else — including unknown future mutating ops — is
        // treated as state-changing: broadcast, never silently retried.
        _ => (broadcast(fleet, line, id), SessionControl::Continue),
    }
}

impl Dispatch for Fleet {
    fn dispatch(&self, line: &str, writer: &SharedWriter) -> SessionControl {
        let (resp, control) = dispatch_line(self, line);
        write_line(writer, &resp);
        control
    }
}
