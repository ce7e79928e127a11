//! Fault-tolerant fleet serving: `mtperf serve --fleet`.
//!
//! A thin router daemon that speaks `mtperf-serve-v2` unchanged to
//! clients while multiplexing every request over a fixed set of replica
//! daemons (TCP or Unix-socket `mtperf serve` processes). One poisoned,
//! killed, or partitioned replica no longer takes the service down:
//!
//! * [`replica`] — the per-replica circuit breaker (healthy → suspect →
//!   circuit-open → half-open probes);
//! * [`balance`] — power-of-two-choices dispatch over per-replica
//!   inflight counts;
//! * [`retry`] — deadline-aware retry budgets with decorrelated-jitter
//!   backoff, drawn through the `clock`/`rng` seams;
//! * [`router`] — fan-out, hedging, broadcast, and the per-model health
//!   merge;
//! * [`dst`] — the deterministic fleet simulation (scripted kills,
//!   partitions, latency spikes, poisoned promotes) and its invariants.
//!
//! Client connections are the daemon's: [`Fleet`] implements
//! `transport::Dispatch`, so the router's stdio session, Unix
//! and TCP accept loops, line framing and ready/drain lifecycle are the
//! same code `mtperf serve` runs.
//!
//! The router holds no model state and no queue of its own: every
//! request either completes against a replica or is answered with a
//! typed error before the session moves on, so a drain never has
//! anything to wait for.

pub mod balance;
pub mod dst;
pub mod replica;
pub mod retry;
pub mod router;

pub use replica::{Admission, HealthState, ReplicaHealth};
pub use router::{Fleet, FleetStats, ReplicaLink, ReplicaSlot};

use std::io::{self, BufRead, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use crate::cli::Args;
use crate::errors::CliError;

use super::protocol::{self, LineRead};
use super::transport::Listeners;
use super::SHUTDOWN;

/// Consecutive exchange failures before a replica's circuit opens.
pub(crate) const FAIL_THRESHOLD: u32 = 3;
/// First cooldown after a circuit opens.
pub(crate) const BASE_COOLDOWN: Duration = Duration::from_millis(250);
/// Cooldown ceiling under repeated failed probes.
pub(crate) const MAX_COOLDOWN: Duration = Duration::from_secs(5);
/// Backoff ceiling within one request's retry schedule.
pub(crate) const RETRY_CAP: Duration = Duration::from_secs(1);
/// Bound on a TCP connect attempt to a replica.
const CONNECT_WAIT: Duration = Duration::from_secs(2);

/// Parsed configuration of one `mtperf serve --fleet` run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Replica endpoints, in `--replicas` order: `host:port` for TCP, a
    /// path containing `/` for a Unix socket.
    pub replicas: Vec<String>,
    /// Where the *router* listens.
    pub listeners: Listeners,
    /// Hedge threshold for predicts, in milliseconds.
    pub hedge_ms: u64,
    /// Retry attempts per request.
    pub retry_attempts: u32,
    /// First-retry backoff target, in milliseconds.
    pub retry_base_ms: u64,
}

impl FleetConfig {
    /// Builds the configuration from parsed CLI arguments.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] on a missing/empty `--replicas` list or an
    /// out-of-range numeric option.
    pub fn from_args(args: &Args) -> Result<FleetConfig, CliError> {
        let replicas: Vec<String> = args
            .require("replicas")?
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        if replicas.is_empty() {
            return Err(CliError::Usage(
                "option --replicas needs at least one endpoint".to_string(),
            ));
        }
        let hedge_ms: u64 = args.numeric("hedge-ms", 50)?;
        if hedge_ms == 0 {
            return Err(CliError::Usage(
                "option --hedge-ms must be at least 1".to_string(),
            ));
        }
        let retry_attempts: u32 = args.numeric("retry-attempts", 3)?;
        let retry_base_ms: u64 = args.numeric("retry-base-ms", 2)?;
        if retry_base_ms == 0 {
            return Err(CliError::Usage(
                "option --retry-base-ms must be at least 1".to_string(),
            ));
        }
        Ok(FleetConfig {
            replicas,
            listeners: Listeners::from_args(args),
            hedge_ms,
            retry_attempts,
            retry_base_ms,
        })
    }
}

/// A live connection to a replica (lazily established, dropped on any
/// exchange failure — which is also how a hedge cancels its loser).
enum Conn {
    Tcp {
        reader: io::BufReader<TcpStream>,
        writer: TcpStream,
    },
    #[cfg(unix)]
    Unix {
        reader: io::BufReader<std::os::unix::net::UnixStream>,
        writer: std::os::unix::net::UnixStream,
    },
}

/// The production [`ReplicaLink`]: one lazily-(re)connected stream per
/// replica. An endpoint containing `/` is a Unix-socket path; anything
/// else is a TCP `host:port`.
pub struct NetLink {
    endpoint: String,
    conn: Option<Conn>,
}

impl NetLink {
    /// A disconnected link to `endpoint`; the first exchange connects.
    pub fn new(endpoint: String) -> NetLink {
        NetLink {
            endpoint,
            conn: None,
        }
    }

    fn connect(&mut self, wait: Duration) -> io::Result<()> {
        if self.conn.is_some() {
            return Ok(());
        }
        let conn = if self.endpoint.contains('/') {
            connect_unix(&self.endpoint)?
        } else {
            let addr = self.endpoint.to_socket_addrs()?.next().ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::AddrNotAvailable,
                    format!("replica {} resolves to no address", self.endpoint),
                )
            })?;
            let stream = TcpStream::connect_timeout(&addr, wait.min(CONNECT_WAIT).max(POLL))?;
            let reader = io::BufReader::new(stream.try_clone()?);
            Conn::Tcp {
                reader,
                writer: stream,
            }
        };
        self.conn = Some(conn);
        Ok(())
    }

    fn do_exchange(&mut self, line: &str, wait: Duration) -> io::Result<String> {
        self.connect(wait)?;
        let conn = self.conn.as_mut().expect("connected above");
        // `set_read_timeout(Some(ZERO))` is an error by contract; clamp.
        let wait = wait.max(POLL);
        match conn {
            Conn::Tcp { reader, writer } => {
                writer.set_read_timeout(Some(wait))?;
                writer.write_all(line.as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
                read_reply(reader)
            }
            #[cfg(unix)]
            Conn::Unix { reader, writer } => {
                writer.set_read_timeout(Some(wait))?;
                writer.write_all(line.as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
                read_reply(reader)
            }
        }
    }
}

const POLL: Duration = Duration::from_millis(1);

#[cfg(unix)]
fn connect_unix(path: &str) -> io::Result<Conn> {
    let stream = std::os::unix::net::UnixStream::connect(path)?;
    let reader = io::BufReader::new(stream.try_clone()?);
    Ok(Conn::Unix {
        reader,
        writer: stream,
    })
}

#[cfg(not(unix))]
fn connect_unix(path: &str) -> io::Result<Conn> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        format!("unix-socket replica {path} on a non-unix platform"),
    ))
}

fn read_reply<R: BufRead>(reader: &mut R) -> io::Result<String> {
    match protocol::read_bounded_line(reader)? {
        LineRead::Line(l) => Ok(l),
        LineRead::Eof => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "replica closed the connection mid-exchange",
        )),
        LineRead::TooLong => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "replica reply exceeds the line bound",
        )),
    }
}

impl ReplicaLink for NetLink {
    fn exchange(&mut self, line: &str, wait: Duration) -> io::Result<String> {
        let result = self.do_exchange(line, wait);
        if result.is_err() {
            // The error contract: a failed (or abandoned) exchange tears
            // the connection down, so a late reply can never bleed into
            // a later exchange.
            self.conn = None;
        }
        result
    }

    fn reset(&mut self) {
        self.conn = None;
    }
}

/// Builds the router state for a configuration.
fn build_fleet(cfg: &FleetConfig) -> Fleet {
    Fleet {
        replicas: cfg
            .replicas
            .iter()
            .map(|ep| {
                ReplicaSlot::new(
                    ep.clone(),
                    Box::new(NetLink::new(ep.clone())),
                    ReplicaHealth::new(FAIL_THRESHOLD, BASE_COOLDOWN, MAX_COOLDOWN),
                )
            })
            .collect(),
        hedge_after: Duration::from_millis(cfg.hedge_ms),
        retry_attempts: cfg.retry_attempts,
        retry_base: Duration::from_millis(cfg.retry_base_ms),
        retry_cap: RETRY_CAP,
        stats: FleetStats::default(),
    }
}

/// Runs the fleet router until a drain trigger fires.
///
/// # Errors
///
/// [`CliError::Unavailable`] when a listener cannot be bound. Replica
/// unreachability is *not* a startup error: replicas may come up after
/// the router, and the breakers handle the gap.
pub fn run(cfg: &FleetConfig) -> Result<(), CliError> {
    SHUTDOWN.store(false, Ordering::SeqCst);
    let fleet = Arc::new(build_fleet(cfg));
    let ready = format!(
        "fleet ready ({} replicas: {}{})",
        cfg.replicas.len(),
        cfg.replicas.join(", "),
        cfg.listeners,
    );
    // The router holds no queue: nothing to finish before exiting.
    cfg.listeners.serve(&fleet, &ready, || {})
}
