//! The serve workloads. They drive the released `mtperf` binary as
//! subprocesses over loopback TCP: `serve_batch` and `fleet_batch` are
//! closed loops of 1,000-row predicts, `serve_whatif` is an open loop of
//! small predicts across two models with registry writes mixed in.
//!
//! Every workload first builds its inputs the way an operator would:
//! simulate the suite (at a tenth of the pipeline's scale), write and read
//! the counters CSV, and fit the models it serves.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Cursor, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use mtperf::counters::{read_csv_with_policy, IngestPolicy};
use mtperf::linalg::{parallel, CancelToken, Matrix, Parallelism};
use mtperf::mtree::ModelTree;
use mtperf::serve::admission::FairQueue;
use mtperf::serve::cache::{PredictionCache, MAX_CACHED_ROWS};
use mtperf::serve::engine::{self, LoadedModel, PredictOutcome};
use mtperf::serve::protocol::{read_bounded_line, LineRead, Request, Response};
use serde::Value;

use crate::inputs::{
    batch_bodies, batch_order, csv_bytes, digest_bodies, digest_schedule, rows_of, schedule,
    whatif_bodies, write_line, Arrival, Body, Event, Target, CONNECTIONS, SERVE_INSTR,
};
use crate::layers::{compiled_layer, overhead, self_times, simulate};
use crate::metrics::Metrics;
use crate::pipeline::{generator_alone, params};
use crate::trace::Tracer;
use crate::util::{cpu_seconds, digest_f64s, fnv1a, median, peak_rss_mb, percentile, secs, Fnv};
use crate::{Config, Outcome};

/// Fixed daemon settings, recorded with every result.
const WORKERS: usize = 2;
/// Deep enough that a host stall of tens of milliseconds at the
/// `serve_whatif` rate queues requests instead of refusing them (the
/// default of 64 refused some in one run of five).
const QUEUE_DEPTH: usize = 1024;
const CACHE_SIZE: usize = 256;
/// `--threads` stays at its default, `auto`, as a user runs the daemon.
const THREADS: &str = "auto";
/// With one replica a hedge can only re-send to the same replica: the
/// router tears down its link and the replica does the request twice. At
/// the 50 ms default a host stall of that length set this off, which
/// doubled the work just when the host was slowest, so the threshold sits
/// far above any request's time here.
const HEDGE_MS: u64 = 1000;
const RETRY_ATTEMPTS: u32 = 3;

/// A daemon answers its first `health` on the next turn of its 25 ms
/// accept poll, so one set-up time carries up to that much jitter; the
/// median of many set-ups does not.
const SETUP_REPEATS: usize = 25;
const READY_TIMEOUT: Duration = Duration::from_secs(30);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);
/// How long an open-loop receiver waits for replies after the last send.
const REPLY_GRACE: Duration = Duration::from_secs(5);
/// Wall time each in-process replay pass may take.
const REPLAY_BUDGET: Duration = Duration::from_millis(1500);
const ECHO_WINDOW: Duration = Duration::from_secs(1);
const HOP_PAIRS: usize = 40;
/// Request bytes kept for the in-process replay and the echo ceiling.
const REPLAY_BYTES: usize = 64 << 20;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Batch,
    WhatIf,
    Fleet,
}

fn settings(kind: Kind) -> String {
    let fleet = if kind == Kind::Fleet {
        format!(",\"router\":{{\"replicas\":1,\"hedge_ms\":{HEDGE_MS},\"retry_attempts\":{RETRY_ATTEMPTS}}}")
    } else {
        String::new()
    };
    format!(
        "{{\"workers\":{WORKERS},\"queue_depth\":{QUEUE_DEPTH},\"cache_size\":{CACHE_SIZE},\"threads\":\"{THREADS}\",\"connections\":{CONNECTIONS}{fleet}}}"
    )
}

// ---------------------------------------------------------------- inputs

struct Models {
    default: ModelTree,
    v1: ModelTree,
    v2: ModelTree,
    paths: [PathBuf; 3],
}

/// Simulates the section pool and fits the served models: `default` with
/// the `mtperf train` parameters, and `candidate` v1/v2 with coarser and
/// finer leaves.
fn prepare(
    cfg: &Config,
    t: &mut Tracer,
    m: &mut Metrics,
) -> Result<(Vec<Vec<f64>>, Models, u64), String> {
    let specs = mtperf::sim::workload::profiles::suite(SERVE_INSTR);
    let simulated = simulate(&specs, cfg.seed, t);
    let (samples, instr, sim_wall) = (simulated.samples, simulated.instr, simulated.wall);
    let n = samples.len() as u64;
    let csv = t.span("counters.write_csv", "counters", 0, n, |_| {
        csv_bytes(&samples)
    });
    let (samples, _) = t
        .span("counters.read_csv", "counters", 0, n, |_| {
            read_csv_with_policy(&csv[..], IngestPolicy::Strict)
        })
        .map_err(|e| format!("read_csv: {e}"))?;
    let data = mtperf::dataset_from_samples(&samples).map_err(|e| e.to_string())?;
    let rows = data.n_rows();
    let fit = |t: &mut Tracer, min: usize| {
        t.span("mtree.fit", "mtree", 0, n, |_| {
            ModelTree::fit(&data, &params(rows).with_min_instances(min.max(8)))
        })
        .map_err(|e| format!("fit: {e}"))
    };
    let default = fit(t, rows / 30)?;
    let v1 = fit(t, rows / 15)?;
    let v2 = fit(t, rows / 60)?;
    let paths = [
        cfg.work.join("default.json"),
        cfg.work.join("candidate-v1.json"),
        cfg.work.join("candidate-v2.json"),
    ];
    for (tree, path) in [&default, &v1, &v2].into_iter().zip(&paths) {
        tree.save(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if cfg.trace {
        m.set(
            "sim.ns_per_instr",
            sim_wall.as_nanos() as f64 / instr as f64,
        );
        m.set("sim.instr", instr as f64);
        m.set("sim.sections", n as f64);
        let (ns, count) = generator_alone(&specs, cfg.seed);
        m.set("sim.gen_ns_per_instr", ns / count as f64);
        let per_row = |name| {
            let (ns, rows, _) = t.total(name);
            ns as f64 / rows.max(1) as f64
        };
        m.set("counters.write_ns_per_row", per_row("counters.write_csv"));
        m.set("counters.read_ns_per_row", per_row("counters.read_csv"));
        let (fit_ns, _, fits) = t.total("mtree.fit");
        m.set("mtree.fit_s", fit_ns as f64 / fits.max(1) as f64 / 1e9);
        m.set("mtree.leaves", default.n_leaves() as f64);
        m.set("mtree.depth", default.depth() as f64);
    }
    Ok((
        rows_of(&samples),
        Models {
            default,
            v1,
            v2,
            paths,
        },
        fnv1a(&csv),
    ))
}

// --------------------------------------------------------------- daemons

struct Proc {
    child: Child,
    port: u16,
}

impl Drop for Proc {
    /// A daemon the run did not shut down cleanly is killed and reaped, so
    /// no error path leaves a process behind.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn free_port() -> Result<u16, String> {
    let l = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    Ok(l.local_addr().map_err(|e| e.to_string())?.port())
}

fn connect(port: u16) -> Result<TcpStream, String> {
    let s = TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect {port}: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    Ok(s)
}

/// One request line out, one reply line back, on a fresh connection.
fn exchange(port: u16, line: &str) -> Result<String, String> {
    let mut s = connect(port)?;
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    s.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
    let mut reply = String::new();
    BufReader::new(s)
        .read_line(&mut reply)
        .map_err(|e| e.to_string())?;
    Ok(reply)
}

fn health(port: u16) -> Result<Value, String> {
    let reply = exchange(port, "{\"op\":\"health\",\"id\":\"health\"}\n")?;
    let v = serde_json::parse_value(reply.trim_end()).map_err(|e| format!("health reply: {e}"))?;
    v.get_field("health")
        .cloned()
        .ok_or_else(|| format!("health reply without a health payload: {reply}"))
}

fn count(h: &Value, field: &str) -> u64 {
    match h.get_field(field) {
        Some(Value::U64(n)) => *n,
        _ => 0,
    }
}

fn spawn(cfg: &Config, args: &[String], log: &str) -> Result<Child, String> {
    let log = std::fs::File::create(cfg.work.join(log)).map_err(|e| e.to_string())?;
    Command::new(&cfg.mtperf)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log)
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", cfg.mtperf.display()))
}

fn wait_ready(p: &mut Proc) -> Result<(), String> {
    let deadline = Instant::now() + READY_TIMEOUT;
    loop {
        if let Ok(Some(status)) = p.child.try_wait() {
            return Err(format!(
                "daemon on port {} exited at start-up: {status}",
                p.port
            ));
        }
        if let Ok(h) = health(p.port) {
            if matches!(h.get_field("ready"), Some(Value::Bool(true))) {
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err(format!(
                "daemon on port {} not ready in {READY_TIMEOUT:?}",
                p.port
            ));
        }
        thread::sleep(Duration::from_millis(1));
    }
}

/// The served topology: one daemon, or a fleet router in front of one
/// replica. `procs` holds the client-facing process last.
struct Stack {
    procs: Vec<Proc>,
}

impl Stack {
    fn port(&self) -> u16 {
        self.procs.last().expect("a started stack").port
    }

    fn replica_port(&self) -> u16 {
        self.procs[0].port
    }

    /// Spawns the topology and waits until every process answers
    /// `health` with `ready:true`; returns the stack and that wait.
    fn start(cfg: &Config, kind: Kind, model: &Path) -> Result<(Stack, Duration), String> {
        let start = Instant::now();
        let port = free_port()?;
        let serve: Vec<String> = [
            "serve",
            "--model",
            &model.display().to_string(),
            "--tcp",
            &format!("127.0.0.1:{port}"),
            "--workers",
            &WORKERS.to_string(),
            "--queue-depth",
            &QUEUE_DEPTH.to_string(),
            "--cache-size",
            &CACHE_SIZE.to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut replica = Proc {
            child: spawn(cfg, &serve, "serve.log")?,
            port,
        };
        wait_ready(&mut replica)?;
        let mut procs = vec![replica];
        if kind == Kind::Fleet {
            let router_port = free_port()?;
            let fleet: Vec<String> = [
                "serve",
                "--fleet",
                "--replicas",
                &format!("127.0.0.1:{port}"),
                "--tcp",
                &format!("127.0.0.1:{router_port}"),
                "--hedge-ms",
                &HEDGE_MS.to_string(),
                "--retry-attempts",
                &RETRY_ATTEMPTS.to_string(),
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            let mut router = Proc {
                child: spawn(cfg, &fleet, "router.log")?,
                port: router_port,
            };
            wait_ready(&mut router)?;
            procs.push(router);
        }
        Ok((Stack { procs }, start.elapsed()))
    }

    fn peak_rss_mb(&self) -> f64 {
        self.procs
            .iter()
            .filter_map(|p| peak_rss_mb(&p.child.id().to_string()))
            .sum()
    }

    /// CPU seconds every process of the stack has used so far.
    fn cpu_seconds(&self) -> Result<f64, String> {
        self.procs
            .iter()
            .map(|p| {
                cpu_seconds(&p.child.id().to_string())
                    .ok_or_else(|| format!("no CPU time for daemon on port {}", p.port))
            })
            .sum()
    }

    /// Asks each process to drain (client-facing first) and reaps it.
    fn stop(mut self) {
        while let Some(mut p) = self.procs.pop() {
            let _ = exchange(p.port, "{\"op\":\"shutdown\",\"id\":\"stop\"}\n");
            let deadline = Instant::now() + DRAIN_TIMEOUT;
            while matches!(p.child.try_wait(), Ok(None)) && Instant::now() < deadline {
                thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

// ---------------------------------------------------------------- load

/// One request of a run and what came back.
struct Sent {
    conn: usize,
    event: Event,
    id: String,
    due_ns: u64,
    sent_ns: Option<u64>,
    recv_ns: Option<u64>,
    reply: Option<Vec<u8>>,
}

fn since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// A closed loop: each connection sends its next request only after the
/// previous reply arrived, until `end`.
fn closed_loop(port: u16, bodies: &[Body], seed: u64, origin: Instant, end: Instant) -> Vec<Sent> {
    thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| s.spawn(move || closed_conn(port, conn, bodies, seed, origin, end)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

fn closed_conn(
    port: u16,
    conn: usize,
    bodies: &[Body],
    seed: u64,
    origin: Instant,
    end: Instant,
) -> Vec<Sent> {
    let mut out = Vec::new();
    let mut order = batch_order(seed, conn);
    let Ok(stream) = connect(port) else {
        return out;
    };
    let Ok(read_half) = stream.try_clone() else {
        return out;
    };
    let mut reader = BufReader::with_capacity(1 << 16, read_half);
    let mut writer = stream;
    let mut k = 0usize;
    while Instant::now() < end {
        let b = order.below(bodies.len());
        let id = format!("c{conn}-{k}");
        let line = bodies[b].line(&id);
        let sent = since(origin);
        let mut record = Sent {
            conn,
            event: Event::Predict(b),
            id,
            due_ns: sent,
            sent_ns: Some(sent),
            recv_ns: None,
            reply: None,
        };
        if writer.write_all(line.as_bytes()).is_err() {
            record.sent_ns = None;
            out.push(record);
            break;
        }
        let mut buf = Vec::new();
        match reader.read_until(b'\n', &mut buf) {
            Ok(n) if n > 0 && buf.ends_with(b"\n") => {
                buf.pop();
                record.recv_ns = Some(since(origin));
                record.reply = Some(buf);
                out.push(record);
            }
            _ => {
                out.push(record);
                break;
            }
        }
        k += 1;
    }
    out
}

/// An open loop: every arrival is sent at its due time whether or not
/// earlier replies have come back. Replies are matched by id afterwards.
fn open_loop(port: u16, arrivals: &[Arrival], bodies: &[Body], origin: Instant) -> Vec<Sent> {
    let last_due = arrivals.last().map_or(0, |a| a.due_ns);
    let give_up = origin + Duration::from_nanos(last_due) + REPLY_GRACE;
    thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| s.spawn(move || open_conn(port, conn, arrivals, bodies, origin, give_up)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

fn arrival_id(i: usize, a: &Arrival) -> String {
    match a.event {
        Event::Predict(_) => format!("p{i}"),
        _ => format!("w{i}"),
    }
}

fn open_conn(
    port: u16,
    conn: usize,
    arrivals: &[Arrival],
    bodies: &[Body],
    origin: Instant,
    give_up: Instant,
) -> Vec<Sent> {
    let mut sent: Vec<Sent> = arrivals
        .iter()
        .enumerate()
        .filter(|(_, a)| a.conn == conn)
        .map(|(i, a)| Sent {
            conn,
            event: a.event,
            id: arrival_id(i, a),
            due_ns: a.due_ns,
            sent_ns: None,
            recv_ns: None,
            reply: None,
        })
        .collect();
    let Ok(stream) = connect(port) else {
        return sent;
    };
    let Ok(read_half) = stream.try_clone() else {
        return sent;
    };
    let expected = sent.len();
    let replies = thread::scope(|s| {
        let receiver = s.spawn(move || receive(read_half, expected, origin, give_up));
        let mut writer = stream;
        for r in sent.iter_mut() {
            let due = origin + Duration::from_nanos(r.due_ns);
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            let line = match r.event {
                Event::Predict(b) => bodies[b].line(&r.id),
                other => write_line(other, &r.id),
            };
            r.sent_ns = Some(since(origin));
            if writer.write_all(line.as_bytes()).is_err() {
                r.sent_ns = None;
                break;
            }
        }
        receiver.join().expect("receiver thread panicked")
    });
    let index: BTreeMap<String, usize> = sent
        .iter()
        .enumerate()
        .map(|(i, r)| (r.id.clone(), i))
        .collect();
    for (recv_ns, bytes) in replies {
        let id = parse_reply(&bytes).ok().and_then(|p| p.id);
        if let Some(&i) = id.as_ref().and_then(|id| index.get(id)) {
            sent[i].recv_ns = Some(recv_ns);
            sent[i].reply = Some(bytes);
        }
    }
    sent
}

fn receive(
    stream: TcpStream,
    expected: usize,
    origin: Instant,
    give_up: Instant,
) -> Vec<(u64, Vec<u8>)> {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    let mut out = Vec::with_capacity(expected);
    let mut buf = Vec::new();
    while out.len() < expected && Instant::now() < give_up {
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => break,
            Ok(_) if buf.ends_with(b"\n") => {
                buf.pop();
                out.push((since(origin), std::mem::take(&mut buf)));
            }
            // A timeout keeps the partial line in `buf`; keep reading.
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break,
        }
    }
    out
}

// ---------------------------------------------------------------- checks

struct Parsed {
    id: Option<String>,
    ok: bool,
    kind: Option<String>,
    predictions: Option<Vec<f64>>,
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

fn parse_reply(bytes: &[u8]) -> Result<Parsed, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    let v = serde_json::parse_value(text).map_err(|e| e.to_string())?;
    let predictions = match v.get_field("predictions") {
        Some(Value::Array(items)) => Some(
            items
                .iter()
                .map(number)
                .collect::<Option<Vec<f64>>>()
                .ok_or("non-numeric prediction")?,
        ),
        _ => None,
    };
    Ok(Parsed {
        id: v
            .get_field("id")
            .and_then(Value::as_str)
            .map(str::to_string),
        ok: matches!(v.get_field("ok"), Some(Value::Bool(true))),
        kind: v
            .get_field("error")
            .and_then(|e| e.get_field("kind"))
            .and_then(Value::as_str)
            .map(str::to_string),
        predictions,
    })
}

/// In-process predictions of `tree` for each body, from
/// `CompiledTree::try_predict_batch_with` and checked bit for bit against
/// `ModelTree::predict` on every row.
fn expected(
    tree: &ModelTree,
    bodies: &[Body],
    target: Target,
) -> Result<Vec<Option<Vec<f64>>>, String> {
    let compiled = tree.compile();
    bodies
        .iter()
        .map(|b| {
            if b.target != target {
                return Ok(None);
            }
            let refs: Vec<&[f64]> = b.rows.iter().map(Vec::as_slice).collect();
            let m = Matrix::from_rows(&refs).map_err(|e| e.to_string())?;
            let c = compiled
                .try_predict_batch_with(&m, Parallelism::Off)
                .map_err(|e| e.to_string())?;
            let same = b
                .rows
                .iter()
                .zip(&c)
                .all(|(row, p)| tree.predict(row).to_bits() == p.to_bits());
            if !same {
                return Err("compiled and interpreted predictions disagree".to_string());
            }
            Ok(Some(c))
        })
        .collect()
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

// ---------------------------------------------------------------- layers

/// The served models as the daemon holds them, for the in-process replay.
struct Loaded {
    default: LoadedModel,
    v1: LoadedModel,
    v2: LoadedModel,
}

/// One replayed request line: the bytes sent, its rows, and the
/// `candidate` version active when it was sent.
struct Line<'a> {
    text: String,
    body: &'a Body,
    v2_active: bool,
}

/// Replays request lines in-process through the serve chain: decode →
/// validate → cache → admission → engine → encode. Returns how many lines
/// fit in `limit` (or the budget when `limit` is `None`) and the time.
fn replay(
    t: &mut Tracer,
    lines: &[Line],
    models: &Loaded,
    limit: Option<usize>,
) -> Result<(usize, Duration), String> {
    let mut cache = PredictionCache::new(CACHE_SIZE);
    let queue: FairQueue<Matrix> = FairQueue::new(QUEUE_DEPTH, QUEUE_DEPTH);
    let start = Instant::now();
    let mut done = 0;
    for (r, line) in lines.iter().enumerate() {
        if limit.map_or(start.elapsed() >= REPLAY_BUDGET, |n| r >= n) {
            break;
        }
        let req_id = r as u64;
        let rows = line.body.rows.len() as u64;
        t.span("router.request", "router", req_id, rows, |t| {
            let req: Request = t
                .span("protocol.decode", "protocol", req_id, rows, |_| {
                    serde_json::from_str::<Request>(line.text.trim_end())
                })
                .map_err(|e| format!("replay decode: {e}"))?;
            let values = req.rows.unwrap_or_default();
            let matrix = t.span("validate.rows", "validate", req_id, rows, |_| {
                if values.iter().flatten().any(|v| !v.is_finite()) {
                    return Err("non-finite row".to_string());
                }
                let refs: Vec<&[f64]> = values.iter().map(Vec::as_slice).collect();
                Matrix::from_rows(&refs).map_err(|e| e.to_string())
            })?;
            let (tenant, version, model) = match (req.model.as_deref(), line.v2_active) {
                (Some("candidate"), true) => ("candidate", "v2", &models.v2),
                (Some("candidate"), false) => ("candidate", "v1", &models.v1),
                _ => ("default", "v1", &models.default),
            };
            let cacheable = values.len() <= MAX_CACHED_ROWS;
            if cacheable {
                let hit = t.span("cache.lookup", "cache", req_id, rows, |_| {
                    cache.lookup(tenant, version, &values)
                });
                if let Some(p) = hit {
                    let out = t.span("protocol.encode", "protocol", req_id, rows, |_| {
                        Response::predictions(req.id, p, false).to_line()
                    });
                    black_box(out);
                    return Ok(());
                }
            }
            let matrix = t
                .span("admission.push_pop", "admission", req_id, rows, |_| {
                    queue.try_push(tenant, matrix).ok()?;
                    queue.try_pop()
                })
                .ok_or("replay admission refused a request")?;
            let outcome = t.span("engine.predict", "engine", req_id, rows, |_| {
                engine::predict(model, &matrix, parallel::global(), &CancelToken::new())
            });
            let PredictOutcome::Ok { predictions, .. } = outcome else {
                return Err(format!("replay predict failed: {outcome:?}"));
            };
            if cacheable {
                t.span("cache.insert", "cache", req_id, rows, |_| {
                    cache.insert(tenant, version, &values, &predictions)
                });
            }
            let out = t.span("protocol.encode", "protocol", req_id, rows, |_| {
                Response::predictions(req.id, predictions, false).to_line()
            });
            black_box(out);
            Ok::<(), String>(())
        })?;
        done += 1;
    }
    Ok((done, start.elapsed()))
}

/// Framing-only ceiling: a loopback TCP line echo of the same request
/// lines over the same number of connections, in rows per second.
fn echo_rows_per_s(lines: &[Line]) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    listener.set_nonblocking(true).map_err(|e| e.to_string())?;
    let port = listener.local_addr().map_err(|e| e.to_string())?.port();
    let end = Instant::now() + ECHO_WINDOW;
    let start = Instant::now();
    let rows: u64 = thread::scope(|s| {
        s.spawn(|| {
            thread::scope(|s| {
                for _ in 0..CONNECTIONS {
                    // Non-blocking accept with a deadline: a client that
                    // failed to connect must not hang the benchmark.
                    let stream = loop {
                        match listener.accept() {
                            Ok((stream, _)) => break stream,
                            Err(_) if Instant::now() < end => {
                                thread::sleep(Duration::from_millis(1))
                            }
                            Err(_) => return,
                        }
                    };
                    if stream.set_nonblocking(false).is_err() {
                        return;
                    }
                    s.spawn(move || {
                        let Ok(mut writer) = stream.try_clone() else {
                            return;
                        };
                        let mut reader = BufReader::new(stream);
                        while let Ok(LineRead::Line(mut l)) = read_bounded_line(&mut reader) {
                            l.push('\n');
                            if writer.write_all(l.as_bytes()).is_err() {
                                return;
                            }
                        }
                    });
                }
            });
        });
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                s.spawn(move || -> u64 {
                    let Ok(stream) = connect(port) else {
                        return 0;
                    };
                    let Ok(read_half) = stream.try_clone() else {
                        return 0;
                    };
                    let mut reader = BufReader::with_capacity(1 << 16, read_half);
                    let mut writer = stream;
                    let mut rows = 0u64;
                    let mut buf = Vec::new();
                    let mut k = conn;
                    while Instant::now() < end {
                        let line = &lines[k % lines.len()];
                        if writer.write_all(line.text.as_bytes()).is_err() {
                            break;
                        }
                        buf.clear();
                        if !matches!(reader.read_until(b'\n', &mut buf), Ok(n) if n > 0) {
                            break;
                        }
                        rows += line.body.rows.len() as u64;
                        k += CONNECTIONS;
                    }
                    rows
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("echo client panicked"))
            .sum()
    });
    Ok(rows as f64 / secs(start.elapsed()))
}

/// Per request, router latency minus direct-to-replica latency, for the
/// same line sent both ways in alternating order; the median in ms.
fn hop_probe(router: u16, replica: u16, bodies: &[Body]) -> Result<f64, String> {
    let open = |port| -> Result<(BufReader<TcpStream>, TcpStream), String> {
        let s = connect(port)?;
        Ok((BufReader::new(s.try_clone().map_err(|e| e.to_string())?), s))
    };
    let mut via_router = open(router)?;
    let mut direct = open(replica)?;
    let once = |(reader, writer): &mut (BufReader<TcpStream>, TcpStream), line: &str| {
        let start = Instant::now();
        writer
            .write_all(line.as_bytes())
            .map_err(|e| e.to_string())?;
        let mut buf = Vec::new();
        reader
            .read_until(b'\n', &mut buf)
            .map_err(|e| e.to_string())?;
        Ok::<f64, String>(secs(start.elapsed()) * 1e3)
    };
    let mut hops = Vec::new();
    for i in 0..HOP_PAIRS {
        let line = bodies[i % bodies.len()].line(&format!("hop{i}"));
        let (r, d) = if i % 2 == 0 {
            let r = once(&mut via_router, &line)?;
            (r, once(&mut direct, &line)?)
        } else {
            let d = once(&mut direct, &line)?;
            (once(&mut via_router, &line)?, d)
        };
        hops.push(r - d);
    }
    Ok(median(&hops))
}

// ------------------------------------------------------------- workload

/// Rows answered per second: the median over the whole one-second slices
/// between `first_ns` and `last_ns`, so a neighbour stealing the CPU for a
/// moment moves one slice, not the result. Runs shorter than two slices
/// use the whole span.
fn slice_rate(completions: &[(u64, u64)], first_ns: u64, last_ns: u64) -> f64 {
    let span = last_ns.saturating_sub(first_ns);
    let slices = (span / 1_000_000_000) as usize;
    if slices < 2 {
        let rows: u64 = completions.iter().map(|c| c.1).sum();
        return if span > 0 {
            rows as f64 / (span as f64 / 1e9)
        } else {
            0.0
        };
    }
    let mut per = vec![0u64; slices];
    for &(at, rows) in completions {
        let i = (at.saturating_sub(first_ns) / 1_000_000_000) as usize;
        if i < slices {
            per[i] += rows;
        }
    }
    median(&per.iter().map(|&r| r as f64).collect::<Vec<_>>())
}

pub fn run(cfg: &Config, kind: Kind, out: &mut Outcome) -> Result<(), String> {
    let mut t = Tracer::new(cfg.trace);
    let (pool, models, csv_digest) = prepare(cfg, &mut t, &mut out.metrics)?;
    let bodies = match kind {
        Kind::WhatIf => whatif_bodies(&pool, cfg.seed),
        _ => batch_bodies(&pool, cfg.seed),
    };
    let arrivals = schedule(cfg.seed, cfg.seconds, bodies.len());
    let want_default = expected(&models.default, &bodies, Target::Default)?;
    let want_v1 = expected(&models.v1, &bodies, Target::Candidate)?;
    let want_v2 = expected(&models.v2, &bodies, Target::Candidate)?;

    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = live.take() {
            Stack::stop(previous);
        }
        let (stack, took) = Stack::start(cfg, kind, &models.paths[0])?;
        setups.push(secs(took));
        live = Some(stack);
    }
    let stack = live.expect("at least one set-up");
    out.metrics.set("setup_s", median(&setups));

    if kind == Kind::WhatIf {
        for (version, path) in [("v1", &models.paths[1]), ("v2", &models.paths[2])] {
            let path =
                serde_json::to_string(&path.display().to_string()).map_err(|e| e.to_string())?;
            let line = format!(
                "{{\"op\":\"load\",\"id\":\"load-{version}\",\"model\":\"candidate\",\"version\":\"{version}\",\"path\":{path}}}\n"
            );
            let reply = exchange(stack.port(), &line)?;
            if !parse_reply(reply.trim_end().as_bytes())?.ok {
                return Err(format!("loading candidate {version} failed: {reply}"));
            }
        }
    }

    let cpu_before = stack.cpu_seconds()?;
    let origin = Instant::now();
    let sent = match kind {
        Kind::WhatIf => open_loop(stack.port(), &arrivals, &bodies, origin),
        _ => {
            let end = origin + Duration::from_secs_f64(cfg.seconds);
            closed_loop(stack.port(), &bodies, cfg.seed, origin, end)
        }
    };
    let daemon_cpu_s = stack.cpu_seconds()? - cpu_before;
    let snapshot = health(stack.port())?;
    out.metrics.set("memory.peak_rss_mb", stack.peak_rss_mb());
    let hop = if kind == Kind::Fleet && cfg.trace {
        Some(hop_probe(stack.port(), stack.replica_port(), &bodies)?)
    } else {
        None
    };
    stack.stop();

    // Accounting and output checks, after the window.
    let mut failures: BTreeMap<String, u64> = BTreeMap::new();
    let mut latencies = Vec::new();
    let mut lateness = Vec::new();
    let mut write_ms = Vec::new();
    let mut completions = Vec::new();
    let mut mismatches = 0u64;
    let mut served: BTreeSet<(usize, u8)> = BTreeSet::new();
    let mut last_recv = 0u64;
    let mut v2_active = false;
    let mut replay_lines = Vec::new();
    let mut replay_bytes = 0usize;
    let mut by_send: Vec<&Sent> = sent.iter().collect();
    by_send.sort_by_key(|s| (s.sent_ns.unwrap_or(u64::MAX), s.conn));
    for s in &by_send {
        let fail = |failures: &mut BTreeMap<String, u64>, kind: &str| {
            *failures.entry(kind.to_string()).or_insert(0) += 1;
        };
        let (Some(sent_ns), Some(recv_ns), Some(bytes)) = (s.sent_ns, s.recv_ns, &s.reply) else {
            fail(
                &mut failures,
                if s.sent_ns.is_none() {
                    "io_error"
                } else {
                    "missing_reply"
                },
            );
            continue;
        };
        last_recv = last_recv.max(recv_ns);
        let parsed = match parse_reply(bytes) {
            Ok(p) => p,
            Err(_) => {
                fail(&mut failures, "unparsable_reply");
                continue;
            }
        };
        if !parsed.ok {
            fail(&mut failures, parsed.kind.as_deref().unwrap_or("error"));
            continue;
        }
        match s.event {
            Event::Promote | Event::Rollback => {
                write_ms.push((recv_ns - s.due_ns) as f64 / 1e6);
                v2_active = s.event == Event::Promote;
            }
            Event::Predict(b) => {
                let body = &bodies[b];
                if kind == Kind::WhatIf {
                    latencies.push((recv_ns - s.due_ns) as f64 / 1e6);
                    lateness.push(sent_ns.saturating_sub(s.due_ns) as f64 / 1e6);
                } else {
                    latencies.push((recv_ns - sent_ns) as f64 / 1e6);
                }
                let got = parsed.predictions.unwrap_or_default();
                let wants = [(&want_default, 0u8), (&want_v1, 1), (&want_v2, 2)];
                let matched = wants
                    .iter()
                    .find(|(want, _)| want[b].as_deref().is_some_and(|w| same_bits(w, &got)));
                match matched {
                    Some((_, tag)) => {
                        served.insert((b, *tag));
                        completions.push((recv_ns, body.rows.len() as u64));
                    }
                    None => mismatches += 1,
                }
                if cfg.trace && replay_bytes < REPLAY_BYTES {
                    let text = body.line(&s.id);
                    replay_bytes += text.len();
                    replay_lines.push(Line {
                        text,
                        body,
                        v2_active,
                    });
                }
            }
        }
    }
    let failed: u64 = failures.values().sum::<u64>() + mismatches;
    out.attempted = sent.len() as u64;
    out.failed = failed;
    out.check(
        "served_predictions_bit_identical",
        mismatches == 0,
        format!("{mismatches} replies differ from CompiledTree and ModelTree::predict"),
    );
    out.check(
        "every_request_answered",
        failed == mismatches,
        format!("failures by kind: {failures:?}"),
    );

    let first_ns = by_send
        .first()
        .and_then(|s| s.sent_ns.map(|x| x.min(s.due_ns)))
        .unwrap_or(0);
    let rows_per_s = slice_rate(&completions, first_ns, last_recv);
    let (p50, p99) = (median(&latencies), percentile(&latencies, 99.0));
    let answered_rows: u64 = completions.iter().map(|c| c.1).sum();
    out.metrics.set(
        "cpu_us_per_row",
        daemon_cpu_s * 1e6 / answered_rows.max(1) as f64,
    );
    out.metrics.set("throughput.rows_per_s", rows_per_s);
    out.metrics.set("latency.p50_ms", p50);
    out.metrics.set("latency.p99_ms", p99);
    out.detail(
        "stage_metrics",
        format!("{{\"rows_per_s\":{rows_per_s},\"p50_ms\":{p50},\"p99_ms\":{p99},\"daemon_cpu_s\":{daemon_cpu_s}}}"),
    );

    let mut served_digest = Fnv::new();
    for (b, tag) in &served {
        let want = [&want_default, &want_v1, &want_v2][*tag as usize][*b]
            .as_ref()
            .expect("served bodies have expectations");
        served_digest.update(&(*b as u64).to_le_bytes());
        served_digest.update(&[*tag]);
        served_digest.update(&digest_f64s(want).to_le_bytes());
    }
    out.detail("settings", settings(kind));
    out.detail(
        "digests",
        format!(
            "{{\"simulated_csv\":\"{csv_digest:016x}\",\"request_bodies\":\"{:016x}\",\"arrival_schedule\":\"{:016x}\",\"served_predictions\":\"{:016x}\"}}",
            digest_bodies(&bodies),
            if kind == Kind::WhatIf { digest_schedule(&arrivals) } else { 0 },
            served_digest.finish()
        ),
    );
    let h = |f| count(&snapshot, f);
    out.detail(
        "health",
        format!(
            "{{\"requests\":{},\"overloaded\":{},\"deadline_misses\":{},\"cache_hits\":{},\"cache_misses\":{},\"quota_refusals\":{}}}",
            h("requests"),
            h("overloaded"),
            h("deadline_misses"),
            h("cache_hits"),
            h("cache_misses"),
            h("quota_refusals")
        ),
    );
    let fail_json: Vec<String> = failures
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    out.detail("failures", format!("{{{}}}", fail_json.join(",")));
    out.detail("latency_samples", latencies.len().to_string());
    if kind == Kind::WhatIf {
        out.detail(
            "lateness_ms",
            format!(
                "{{\"p50\":{},\"p99\":{}}}",
                median(&lateness),
                percentile(&lateness, 99.0)
            ),
        );
        out.detail("registry_writes", write_ms.len().to_string());
    }

    if cfg.trace {
        let m = &mut out.metrics;
        let hits = h("cache_hits") as f64;
        let lookups = hits + h("cache_misses") as f64;
        m.set(
            "cache.hit_frac",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
        );
        m.set("admission.overloaded", h("overloaded") as f64);
        m.set("admission.quota_refusals", h("quota_refusals") as f64);
        m.set("registry.writes", write_ms.len() as f64);
        m.set("registry.write_p50_ms", median(&write_ms));
        m.set("fleet.hop_p50_ms", hop.unwrap_or(0.0));
        if kind == Kind::WhatIf {
            m.set("loadgen.lateness_p50_ms", median(&lateness));
            m.set("loadgen.lateness_p99_ms", percentile(&lateness, 99.0));
        }
        compiled_layer(&models.default, &pool, m)?;
        let mut load_ms = Vec::new();
        for _ in 0..5 {
            let s = Instant::now();
            black_box(engine::load_and_validate(&models.paths[0])?);
            load_ms.push(secs(s.elapsed()) * 1e3);
        }
        m.set("engine.load_validate_ms", median(&load_ms));
        let loaded = Loaded {
            default: engine::load_and_validate(&models.paths[0])?,
            v1: engine::load_and_validate(&models.paths[1])?,
            v2: engine::load_and_validate(&models.paths[2])?,
        };
        if replay_lines.is_empty() {
            return Err("no answered request to replay".to_string());
        }
        // Untraced first, to size the replay; then the same lines traced.
        t.set_on(false);
        let (n, plain) = replay(&mut t, &replay_lines, &loaded, None)?;
        t.set_on(true);
        let (_, traced) = replay(&mut t, &replay_lines, &loaded, Some(n))?;
        m.set(
            "trace.overhead_frac",
            overhead(&[secs(traced)], &[secs(plain)]),
        );

        let ns_per = |(ns, rows, _): (u64, u64, u64)| {
            if rows == 0 {
                0.0
            } else {
                ns as f64 / rows as f64
            }
        };
        let small = |r: u64| r <= MAX_CACHED_ROWS as u64;
        m.set(
            "protocol.decode_ns_per_row",
            ns_per(t.total_where("protocol.decode", |r| !small(r))),
        );
        let (ns, _, calls) = t.total_where("protocol.decode", small);
        m.set(
            "protocol.decode_us_per_req",
            if calls == 0 {
                0.0
            } else {
                ns as f64 / calls as f64 / 1e3
            },
        );
        m.set(
            "protocol.encode_ns_per_row",
            ns_per(t.total("protocol.encode")),
        );
        let (ns, _, calls) = t.total("cache.lookup");
        m.set(
            "cache.lookup_ns",
            if calls == 0 {
                0.0
            } else {
                ns as f64 / calls as f64
            },
        );
        let (ns, _, calls) = t.total("admission.push_pop");
        m.set(
            "admission.push_pop_ns",
            if calls == 0 {
                0.0
            } else {
                ns as f64 / calls as f64
            },
        );
        m.set(
            "engine.predict_ns_per_row_small",
            ns_per(t.total_where("engine.predict", small)),
        );

        let framed: Vec<u8> = replay_lines[..n]
            .iter()
            .flat_map(|l| l.text.bytes())
            .collect();
        let mut frame_ns = Vec::new();
        for _ in 0..3 {
            let mut reader = BufReader::new(Cursor::new(&framed));
            let s = Instant::now();
            while let Ok(LineRead::Line(l)) = read_bounded_line(&mut reader) {
                black_box(l);
            }
            frame_ns.push(s.elapsed().as_nanos() as f64);
        }
        m.set(
            "transport.frame_ns_per_byte",
            median(&frame_ns) / framed.len() as f64,
        );
        let echo = echo_rows_per_s(&replay_lines[..n.max(1)])?;
        m.set(
            "transport.frac_of_echo",
            if echo > 0.0 { rows_per_s / echo } else { 0.0 },
        );
        self_times(&t, m);
        out.spans = Some(t.to_jsonl());
        out.detail("replayed_lines", n.to_string());
    }
    Ok(())
}
