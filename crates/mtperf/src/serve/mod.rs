//! `mtperf serve` — a resilient multi-tenant prediction daemon.
//!
//! Speaks the newline-delimited JSON protocol of [`protocol`]
//! (`mtperf-serve-v2`, a strict superset of v1) over stdin/stdout and,
//! with `--socket <path>` / `--tcp <addr>`, Unix-domain and TCP
//! listeners. The daemon is layered:
//!
//! * [`transport`] — owns connections: the stdio session, the Unix and
//!   TCP accept loops, one framing buffer and one shared writer per
//!   connection, so responses always return on the issuing connection.
//!   The fleet router ([`fleet`]) runs the same transport; only the
//!   per-line `transport::Dispatch` differs.
//! * [`router`] — parses and validates each line, resolves the target
//!   model through the registry, consults the prediction cache, and
//!   admits work through the fair queue.
//! * [`registry`] — many named models × validated versions with
//!   `load`/`promote`/`rollback`/`list`, last-known-good semantics, and
//!   a crash-safe manifest (`--registry <path>`).
//! * [`engine`] — validated loads and the per-request degradation ladder
//!   (compiled → interpreted → typed failure).
//!
//! Robustness properties, each pinned by tests:
//!
//! * **Bounded queue, explicit backpressure** — parsing threads never
//!   block on a full queue; the client hears `overloaded` immediately.
//!   Admission is per tenant ([`admission`]): one model's backlog cannot
//!   starve another's, and quota refusals are typed and counted.
//! * **Per-request deadlines** — `deadline_ms` arms a cooperative
//!   [`CancelToken`] consulted while queued and between row blocks, so an
//!   expensive request returns `deadline_exceeded` instead of hanging a
//!   worker.
//! * **Graceful degradation** — a poisoned hot reload or promote keeps
//!   the last-known-good version serving; a compiled-path failure falls
//!   back to the interpreted walk. Both mark responses `degraded: true`.
//! * **Prediction cache** — repeated small batches answer from a
//!   FNV-1a-keyed memo ([`cache`]), bit-identical to a fresh predict,
//!   with hit/miss counters in `health`.
//! * **Crash-safe persistence** — `save` and the registry manifest go
//!   through the atomic temp-file/fsync/rename protocol, so `kill -9` at
//!   any instant leaves the previous file intact.
//! * **Drain-then-exit** — SIGTERM, a `shutdown` request, or EOF on the
//!   primary stdio transport stop intake, finish queued work, and exit 0.
//!
//! Startup failures (missing/corrupt model, unbindable socket) exit with
//! code 69 (`EX_UNAVAILABLE`) so supervisors can tell "cannot start" from
//! "bad usage".

pub mod admission;
pub mod cache;
pub mod dst;
pub mod engine;
pub mod fleet;
pub mod protocol;
pub mod registry;
pub mod router;
pub mod transport;

use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use mtperf_linalg::{parallel, CancelToken, Matrix};

use crate::cli::Args;
use crate::errors::CliError;
use admission::FairQueue;
use cache::PredictionCache;
use engine::LoadedModel;
use protocol::Response;
use registry::Registry;
use transport::{Dispatch, Listeners};

/// Drain requested (SIGTERM from the binary's handler, a `shutdown`
/// request, or EOF on the primary transport). The main loop polls this.
pub static SHUTDOWN: AtomicBool = AtomicBool::new(false);

const DEFAULT_WORKERS: usize = 2;
const DEFAULT_QUEUE_DEPTH: usize = 64;
const DEFAULT_CACHE_SIZE: usize = 256;

/// Parsed configuration of one `mtperf serve` run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Model file served as the default model (reload/save default target).
    pub model: PathBuf,
    /// Where the daemon listens.
    pub listeners: Listeners,
    /// Registry manifest path for crash-safe multi-model persistence.
    pub registry: Option<PathBuf>,
    /// Prediction worker threads.
    pub workers: usize,
    /// Bounded queue capacity (backpressure threshold).
    pub queue_depth: usize,
    /// Per-tenant queue quota (admission threshold; default: the full
    /// queue depth, i.e. no per-tenant bound below the global one).
    pub tenant_quota: usize,
    /// Prediction cache capacity in entries (0 disables the cache).
    pub cache_size: usize,
    /// Default per-request deadline applied when a request carries none.
    pub default_deadline_ms: Option<u64>,
    /// Rollback history bound per model (`--keep-versions N`): promotes
    /// garbage-collect versions beyond the newest `N`, never touching
    /// the active version or the last known good. `None` keeps all.
    pub keep_versions: Option<usize>,
}

impl ServeConfig {
    /// Builds the configuration from parsed CLI arguments.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] on a missing model path or out-of-range
    /// numeric option.
    pub fn from_args(args: &Args) -> Result<ServeConfig, CliError> {
        let model = PathBuf::from(args.require("model")?);
        let registry = args.options.get("registry").map(PathBuf::from);
        let workers: usize = args.numeric("workers", DEFAULT_WORKERS)?;
        if workers == 0 {
            return Err(CliError::Usage(
                "option --workers must be at least 1".to_string(),
            ));
        }
        let queue_depth: usize = args.numeric("queue-depth", DEFAULT_QUEUE_DEPTH)?;
        if queue_depth == 0 {
            return Err(CliError::Usage(
                "option --queue-depth must be at least 1".to_string(),
            ));
        }
        let tenant_quota: usize = args.numeric("tenant-quota", queue_depth)?;
        if tenant_quota == 0 {
            return Err(CliError::Usage(
                "option --tenant-quota must be at least 1".to_string(),
            ));
        }
        let cache_size: usize = args.numeric("cache-size", DEFAULT_CACHE_SIZE)?;
        let default_deadline_ms = match args.options.get("deadline-ms") {
            None => None,
            Some(v) => Some(v.parse::<u64>().map_err(|_| {
                CliError::Usage(format!("option --deadline-ms has invalid value {v:?}"))
            })?),
        };
        let keep_versions = match args.options.get("keep-versions") {
            None => None,
            Some(v) => {
                let n = v.parse::<usize>().map_err(|_| {
                    CliError::Usage(format!("option --keep-versions has invalid value {v:?}"))
                })?;
                if n == 0 {
                    return Err(CliError::Usage(
                        "option --keep-versions must be at least 1".to_string(),
                    ));
                }
                Some(n)
            }
        };
        Ok(ServeConfig {
            model,
            listeners: Listeners::from_args(args),
            registry,
            workers,
            queue_depth,
            tenant_quota,
            cache_size,
            default_deadline_ms,
            keep_versions,
        })
    }
}

/// A connection's shared, lock-guarded response writer. Workers and the
/// connection's own parse loop interleave complete lines through it.
pub(crate) type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

#[derive(Default)]
pub(crate) struct Stats {
    pub(crate) requests: AtomicU64,
    pub(crate) overloaded: AtomicU64,
    pub(crate) deadline_misses: AtomicU64,
    pub(crate) degraded_responses: AtomicU64,
    pub(crate) reloads: AtomicU64,
    pub(crate) cache_hits: AtomicU64,
    pub(crate) cache_misses: AtomicU64,
    pub(crate) quota_refusals: AtomicU64,
}

/// One queued prediction. The model is resolved at admission time, so a
/// promote that lands while the job is queued does not change what this
/// job scores with — the response matches what the client was admitted
/// against, and workers never need the registry lock.
pub(crate) struct Job {
    pub(crate) id: Option<String>,
    /// Admission lane and cache-key component (the model name).
    pub(crate) tenant: String,
    /// Resolved version id (cache-key component).
    pub(crate) version: String,
    pub(crate) model: Arc<LoadedModel>,
    /// Whether the owning registry entry was degraded at admission.
    pub(crate) model_degraded: bool,
    /// The request's rows; small batches are also the cache key.
    pub(crate) rows: Matrix,
    pub(crate) token: CancelToken,
    pub(crate) writer: SharedWriter,
}

/// State shared by every session, worker, and the drain loop.
pub(crate) struct Shared {
    pub(crate) registry: Mutex<Registry>,
    pub(crate) queue: FairQueue<Job>,
    pub(crate) cache: Mutex<PredictionCache>,
    pub(crate) stats: Stats,
    pub(crate) draining: AtomicBool,
    pub(crate) workers: usize,
    pub(crate) default_deadline_ms: Option<u64>,
}

pub(crate) fn send(writer: &SharedWriter, resp: &Response) {
    transport::write_line(writer, &resp.to_line());
}

#[derive(PartialEq, Eq)]
pub(crate) enum SessionControl {
    Continue,
    Shutdown,
}

impl Dispatch for Shared {
    fn dispatch(&self, line: &str, writer: &SharedWriter) -> SessionControl {
        router::handle_line(self, line, writer)
    }

    fn accepting(&self) -> bool {
        !self.draining.load(Ordering::SeqCst)
    }
}

pub(crate) fn lock_registry(shared: &Shared) -> std::sync::MutexGuard<'_, Registry> {
    shared.registry.lock().unwrap_or_else(|e| e.into_inner())
}

pub(crate) fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        answer(shared, job);
    }
}

/// Answers one dequeued job: deadline check, degradation ladder, cache
/// fill, response. The body of [`worker_loop`], extracted so the
/// deterministic-simulation harness ([`dst`]) can drain the queue step by
/// step on a single logical thread via [`FairQueue::try_pop`].
pub(crate) fn answer(shared: &Arc<Shared>, job: Job) {
    // Reading the depth takes the queue's lock, which every push and pop
    // contends for; pay it only when the gauge is recorded.
    if mtperf_obs::is_enabled() {
        mtperf_obs::gauge("serve.queue_depth", shared.queue.depth() as f64);
    }
    if job.token.is_cancelled() {
        shared.stats.deadline_misses.fetch_add(1, Ordering::Relaxed);
        mtperf_obs::add("serve.deadline_miss", 1);
        send(
            &job.writer,
            &Response::error(
                job.id,
                protocol::E_DEADLINE,
                "deadline expired while queued",
            ),
        );
        return;
    }
    match engine::predict(&job.model, &job.rows, parallel::global(), &job.token) {
        engine::PredictOutcome::Ok {
            predictions,
            degraded: ladder_degraded,
        } => {
            let degraded = ladder_degraded || job.model_degraded;
            if degraded {
                shared
                    .stats
                    .degraded_responses
                    .fetch_add(1, Ordering::Relaxed);
                mtperf_obs::add("serve.degraded", 1);
            } else if job.rows.rows() <= cache::MAX_CACHED_ROWS {
                shared
                    .cache
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert_matrix(&job.tenant, &job.version, &job.rows, &predictions);
            }
            send(
                &job.writer,
                &Response::predictions(job.id, predictions, degraded),
            );
        }
        engine::PredictOutcome::DeadlineExceeded => {
            shared.stats.deadline_misses.fetch_add(1, Ordering::Relaxed);
            mtperf_obs::add("serve.deadline_miss", 1);
            send(
                &job.writer,
                &Response::error(
                    job.id,
                    protocol::E_DEADLINE,
                    "deadline expired during computation",
                ),
            );
        }
        engine::PredictOutcome::Failed(msg) => {
            mtperf_obs::add("serve.internal_errors", 1);
            send(
                &job.writer,
                &Response::error(job.id, protocol::E_INTERNAL, msg),
            );
        }
    }
}

/// `mtperf serve` entry point.
///
/// # Errors
///
/// [`CliError::Usage`] for bad options; [`CliError::Unavailable`]
/// (exit 69, `EX_UNAVAILABLE`) when the model cannot be loaded/validated
/// or a listener cannot be bound.
pub fn cmd_serve(args: &Args) -> Result<(), CliError> {
    if args.flag("fleet") {
        let cfg = fleet::FleetConfig::from_args(args)?;
        return fleet::run(&cfg);
    }
    let cfg = ServeConfig::from_args(args)?;
    run(&cfg)
}

/// Runs the daemon until a drain trigger fires, then drains and returns.
///
/// # Errors
///
/// See [`cmd_serve`].
pub fn run(cfg: &ServeConfig) -> Result<(), CliError> {
    SHUTDOWN.store(false, Ordering::SeqCst);
    // Start the prediction pool and calibrate its dispatch overhead before
    // the first request arrives, so no client pays the one-time costs.
    parallel::warm_up();
    let mut reg = Registry::open(&cfg.model, cfg.registry.as_deref())
        .map_err(|e| CliError::Unavailable(format!("cannot load model: {e}")))?;
    reg.set_keep_versions(cfg.keep_versions);
    let shared = Arc::new(Shared {
        registry: Mutex::new(reg),
        queue: FairQueue::new(cfg.queue_depth, cfg.tenant_quota),
        cache: Mutex::new(PredictionCache::new(cfg.cache_size)),
        stats: Stats::default(),
        draining: AtomicBool::new(false),
        workers: cfg.workers,
        default_deadline_ms: cfg.default_deadline_ms,
    });
    let mut workers = Vec::with_capacity(cfg.workers);
    for _ in 0..cfg.workers {
        let shared = Arc::clone(&shared);
        workers.push(thread::spawn(move || worker_loop(&shared)));
    }
    let ready = format!(
        "ready (model {}, {} workers, queue {}{})",
        cfg.model.display(),
        cfg.workers,
        cfg.queue_depth,
        cfg.listeners,
    );
    cfg.listeners.serve(&shared, &ready, || {
        shared.draining.store(true, Ordering::SeqCst);
        shared.queue.close();
        for handle in workers {
            let _ = handle.join();
        }
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mtperf_mtree::{Dataset, M5Params, ModelTree};
    use std::io;

    /// A cloneable writer capturing every response line.
    #[derive(Clone, Default)]
    pub(crate) struct Capture(Arc<Mutex<Vec<u8>>>);

    impl Write for Capture {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Capture {
        pub(crate) fn text(&self) -> String {
            String::from_utf8_lossy(&self.0.lock().unwrap()).into_owned()
        }
        pub(crate) fn shared(&self) -> SharedWriter {
            Arc::new(Mutex::new(Box::new(self.clone())))
        }
        pub(crate) fn append(&self, s: &str) {
            self.0.lock().unwrap().extend_from_slice(s.as_bytes());
        }
    }

    pub(crate) fn tiny_tree() -> ModelTree {
        let names = vec!["a0".to_string(), "a1".to_string()];
        let rows: Vec<Vec<f64>> = (0..24)
            .map(|r| vec![((r * 7) % 11) as f64, ((r * 3) % 5) as f64])
            .collect();
        let targets: Vec<f64> = rows.iter().map(|r| 1.0 + 2.0 * r[0] - r[1]).collect();
        let data = Dataset::from_rows(names, &rows, &targets).unwrap();
        ModelTree::fit(&data, &M5Params::default().with_min_instances(4)).unwrap()
    }

    pub(crate) fn test_shared_with(
        tag: &str,
        queue_depth: usize,
        default_deadline_ms: Option<u64>,
        tenant_quota: usize,
        cache_size: usize,
    ) -> (Arc<Shared>, std::path::PathBuf, ModelTree) {
        let dir = std::env::temp_dir().join(format!(
            "mtperf-serve-mod-tests-{}-{tag}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        let tree = tiny_tree();
        tree.save(&path).unwrap();
        let reg = Registry::open(&path, None).unwrap();
        let shared = Arc::new(Shared {
            registry: Mutex::new(reg),
            queue: FairQueue::new(queue_depth, tenant_quota),
            cache: Mutex::new(PredictionCache::new(cache_size)),
            stats: Stats::default(),
            draining: AtomicBool::new(false),
            workers: 1,
            default_deadline_ms,
        });
        (shared, path, tree)
    }

    pub(crate) fn test_shared(
        tag: &str,
        queue_depth: usize,
    ) -> (Arc<Shared>, std::path::PathBuf, ModelTree) {
        test_shared_with(tag, queue_depth, None, queue_depth, 0)
    }

    #[test]
    fn config_defaults_and_validation() {
        let parse =
            |v: &[&str]| Args::parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap();
        let cfg = ServeConfig::from_args(&parse(&["serve", "--model", "m.json"])).unwrap();
        assert_eq!(cfg.workers, DEFAULT_WORKERS);
        assert_eq!(cfg.queue_depth, DEFAULT_QUEUE_DEPTH);
        assert_eq!(cfg.tenant_quota, DEFAULT_QUEUE_DEPTH);
        assert_eq!(cfg.cache_size, DEFAULT_CACHE_SIZE);
        let on = &cfg.listeners;
        assert!(on.stdio && on.socket.is_none() && on.tcp.is_none());
        assert!(cfg.registry.is_none());
        assert!(cfg.default_deadline_ms.is_none());

        // --socket or --tcp alone turns the stdio transport off; --stdio
        // restores it.
        let cfg = ServeConfig::from_args(&parse(&["serve", "--model", "m.json", "--socket", "s"]))
            .unwrap();
        assert!(!cfg.listeners.stdio);
        let cfg = ServeConfig::from_args(&parse(&[
            "serve",
            "--model",
            "m.json",
            "--tcp",
            "127.0.0.1:0",
        ]))
        .unwrap();
        assert!(!cfg.listeners.stdio);
        assert_eq!(cfg.listeners.tcp.as_deref(), Some("127.0.0.1:0"));
        let cfg = ServeConfig::from_args(&parse(&[
            "serve", "--model", "m.json", "--socket", "s", "--stdio",
        ]))
        .unwrap();
        assert!(cfg.listeners.stdio);

        // The quota defaults to the queue depth and can sit below it.
        let cfg = ServeConfig::from_args(&parse(&[
            "serve",
            "--model",
            "m.json",
            "--queue-depth",
            "32",
            "--tenant-quota",
            "4",
        ]))
        .unwrap();
        assert_eq!((cfg.queue_depth, cfg.tenant_quota), (32, 4));

        for bad in [
            vec!["serve"],
            vec!["serve", "--model", "m", "--workers", "0"],
            vec!["serve", "--model", "m", "--queue-depth", "0"],
            vec!["serve", "--model", "m", "--tenant-quota", "0"],
            vec!["serve", "--model", "m", "--cache-size", "many"],
            vec!["serve", "--model", "m", "--deadline-ms", "soon"],
        ] {
            let err = ServeConfig::from_args(&parse(&bad)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad:?}");
        }
    }

    #[test]
    fn worker_answers_queued_predictions_in_order_of_arrival() {
        let (shared, _, tree) = test_shared("worker", 8);
        let cap = Capture::default();
        router::handle_line(
            &shared,
            r#"{"op":"predict","id":"r1","rows":[[1.0,2.0],[3.0,0.5]]}"#,
            &cap.shared(),
        );
        shared.queue.close();
        worker_loop(&shared);
        let out = cap.text();
        assert!(out.contains("\"id\":\"r1\""), "{out}");
        assert!(out.contains("\"ok\":true"), "{out}");
        assert!(out.contains("\"degraded\":false"), "{out}");
        let want0 = tree.predict(&[1.0, 2.0]);
        let want1 = tree.predict(&[3.0, 0.5]);
        let line = out.trim();
        assert!(
            line.contains(&format!("{want0}")) && line.contains(&format!("{want1}")),
            "{line} missing {want0}/{want1}"
        );
    }

    #[test]
    fn queued_past_deadline_is_a_timeout_not_a_hang() {
        // The deadline is armed and checked on the clock seam; hold the
        // seams so no simulation swaps the clock in between.
        let _seams = dst::SeamGuard::new();
        let (shared, _, _) = test_shared("deadline", 8);
        let cap = Capture::default();
        router::handle_line(
            &shared,
            r#"{"op":"predict","id":"late","rows":[[1.0,2.0]],"deadline_ms":0}"#,
            &cap.shared(),
        );
        shared.queue.close();
        worker_loop(&shared);
        let out = cap.text();
        assert!(out.contains("\"kind\":\"deadline_exceeded\""), "{out}");
        assert!(out.contains("\"id\":\"late\""), "{out}");
        assert_eq!(shared.stats.deadline_misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn default_deadline_applies_when_request_has_none() {
        // An already-expired default deadline: the worker must time the
        // request out even though the request itself named no deadline.
        let _seams = dst::SeamGuard::new();
        let (shared, _, _) = test_shared_with("default-deadline", 8, Some(0), 8, 0);
        let cap = Capture::default();
        router::handle_line(
            &shared,
            r#"{"op":"predict","rows":[[1.0,2.0]]}"#,
            &cap.shared(),
        );
        shared.queue.close();
        worker_loop(&shared);
        assert!(
            cap.text().contains("\"kind\":\"deadline_exceeded\""),
            "{}",
            cap.text()
        );
    }
}
