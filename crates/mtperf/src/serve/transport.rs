//! The transport layer: connection acceptance and framing ownership,
//! shared by the daemon (`mtperf serve`) and the fleet router
//! (`mtperf serve --fleet`).
//!
//! Three transports, all speaking the identical newline-delimited
//! protocol through the one [`run_session`]:
//!
//! * **stdio** — the primary transport; EOF on it drains the process.
//! * **Unix socket** (`--socket <path>`) — local multi-client serving;
//!   the socket file is replaced on bind and removed on drain.
//! * **TCP** (`--tcp <addr>`) — the fleet transport: remote clients,
//!   many concurrent connections, per-connection framing state.
//!
//! What a line *means* is the [`Dispatch`] implementor's business: the
//! daemon's `Shared` answers through `router::handle_line`, the fleet's
//! `Fleet` through `fleet::router::dispatch_line`. Everything else —
//! bounded-line framing, the typed refusal of oversized lines, the accept
//! loops, the ready/drain lifecycle — is written once, here.
//!
//! Accept loops share one shape: a non-blocking listener polled every
//! 25 ms against the drain flags, `EINTR`/`EAGAIN` absorbed by the
//! bounded-backoff retry helper, and one thread per accepted connection.
//! A connection's reader half owns its framing buffer; its writer half
//! is a [`SharedWriter`] the workers answer through — so responses
//! always return on the issuing connection, and a broken peer ends only
//! its own session.

use std::fmt;
use std::io::{self, BufRead, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use crate::cli::Args;
use crate::errors::CliError;

use super::protocol::{self, LineRead, Response};
use super::{send, SessionControl, SharedWriter, SHUTDOWN};

/// How often the accept loops and the drain wait re-check the drain flags.
const POLL: Duration = Duration::from_millis(25);

/// What a session does with each complete, non-blank request line.
pub(crate) trait Dispatch: Send + Sync + 'static {
    /// Answers `line` with exactly one response line on `writer`.
    fn dispatch(&self, line: &str, writer: &SharedWriter) -> SessionControl;

    /// Whether accept loops should keep taking connections.
    fn accepting(&self) -> bool {
        true
    }
}

/// Where a process listens, parsed once from `--socket`, `--tcp` and
/// `--stdio` for both the daemon and the fleet router.
#[derive(Debug, Clone)]
pub struct Listeners {
    /// Unix-domain socket to listen on, if any.
    pub socket: Option<PathBuf>,
    /// TCP address (`host:port`) to listen on, if any.
    pub tcp: Option<String>,
    /// Whether to run a session over stdin/stdout (default unless
    /// `--socket`/`--tcp` is given without `--stdio`).
    pub stdio: bool,
}

impl Listeners {
    /// Reads the listener options from parsed CLI arguments.
    pub fn from_args(args: &Args) -> Listeners {
        let socket = args.options.get("socket").map(PathBuf::from);
        let tcp = args.options.get("tcp").cloned();
        let stdio = (socket.is_none() && tcp.is_none()) || args.flag("stdio");
        Listeners { socket, tcp, stdio }
    }

    /// Binds every listener and starts its accept loop (and the stdio
    /// session), announces `ready` on stderr, and serves until a drain
    /// trigger fires; then runs `drain` and removes the socket file.
    ///
    /// # Errors
    ///
    /// [`CliError::Unavailable`] when a listener cannot be bound.
    pub(crate) fn serve<D: Dispatch>(
        &self,
        dispatcher: &Arc<D>,
        ready: &str,
        drain: impl FnOnce(),
    ) -> Result<(), CliError> {
        if let Some(sock) = &self.socket {
            #[cfg(unix)]
            spawn_accept_loop(dispatcher, bind_unix(sock)?);
            #[cfg(not(unix))]
            return Err(CliError::Unavailable(format!(
                "--socket {} requires a unix platform",
                sock.display()
            )));
        }
        if let Some(addr) = &self.tcp {
            spawn_accept_loop(dispatcher, bind_tcp(addr)?);
        }
        if self.stdio {
            // EOF on stdin means no more work can arrive on the primary
            // transport: the process drains and exits rather than idling.
            let dispatcher = Arc::clone(dispatcher);
            thread::spawn(move || {
                let writer: SharedWriter = Arc::new(Mutex::new(Box::new(io::stdout())));
                run_session(&*dispatcher, io::BufReader::new(io::stdin()), writer);
                SHUTDOWN.store(true, Ordering::SeqCst);
            });
        }
        eprintln!("mtperf serve: {ready}");
        while !SHUTDOWN.load(Ordering::SeqCst) {
            thread::sleep(POLL);
        }
        eprintln!("mtperf serve: draining...");
        drain();
        if let Some(sock) = &self.socket {
            let _ = std::fs::remove_file(sock);
        }
        eprintln!("mtperf serve: drained, exiting");
        Ok(())
    }
}

/// The ready-line suffix naming every active listener.
impl fmt::Display for Listeners {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(sock) = &self.socket {
            write!(f, ", socket {}", sock.display())?;
        }
        if let Some(addr) = &self.tcp {
            write!(f, ", tcp {addr}")?;
        }
        if self.stdio {
            f.write_str(", stdio")?;
        }
        Ok(())
    }
}

/// Writes one already-framed response line; a vanished peer is not a
/// process error, the session just winds down.
pub(crate) fn write_line(writer: &SharedWriter, line: &str) {
    let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
    let _ = w.write_all(line.as_bytes());
    let _ = w.flush();
}

/// Drains one connection: reads bounded lines, dispatches each non-blank
/// one, stops at EOF or after a `shutdown` request (which also flags the
/// process to drain). A broken connection ends its session, never the
/// process.
pub(crate) fn run_session<D: Dispatch + ?Sized, R: BufRead>(
    dispatcher: &D,
    mut reader: R,
    writer: SharedWriter,
) {
    loop {
        match protocol::read_bounded_line(&mut reader) {
            Ok(LineRead::Eof) | Err(_) => return,
            Ok(LineRead::TooLong) => send(
                &writer,
                &Response::error(
                    None,
                    protocol::E_BAD_REQUEST,
                    format!("request line exceeds {} bytes", protocol::MAX_LINE_BYTES),
                ),
            ),
            Ok(LineRead::Line(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                if dispatcher.dispatch(&line, &writer) == SessionControl::Shutdown {
                    SHUTDOWN.store(true, Ordering::SeqCst);
                    return;
                }
            }
        }
    }
}

/// A non-blocking listener whose connections split into a reader half
/// and a writer half.
trait Listener: Send + 'static {
    type Conn: Read + Write + Send + 'static;
    fn accept_conn(&self) -> io::Result<Self::Conn>;
    fn clone_conn(conn: &Self::Conn) -> io::Result<Self::Conn>;
}

impl Listener for TcpListener {
    type Conn = TcpStream;
    fn accept_conn(&self) -> io::Result<TcpStream> {
        self.accept().map(|(stream, _)| stream)
    }
    fn clone_conn(conn: &TcpStream) -> io::Result<TcpStream> {
        conn.try_clone()
    }
}

#[cfg(unix)]
impl Listener for std::os::unix::net::UnixListener {
    type Conn = std::os::unix::net::UnixStream;
    fn accept_conn(&self) -> io::Result<Self::Conn> {
        self.accept().map(|(stream, _)| stream)
    }
    fn clone_conn(conn: &Self::Conn) -> io::Result<Self::Conn> {
        conn.try_clone()
    }
}

/// Accepts connections until drain, one session thread each.
fn spawn_accept_loop<D: Dispatch, L: Listener>(dispatcher: &Arc<D>, listener: L) {
    let dispatcher = Arc::clone(dispatcher);
    thread::spawn(move || {
        while !SHUTDOWN.load(Ordering::SeqCst) && dispatcher.accepting() {
            match mtperf_obs::fsio::with_retry("serve_accept", || listener.accept_conn()) {
                Ok(conn) => {
                    let Ok(reader) = L::clone_conn(&conn) else {
                        continue;
                    };
                    let writer: SharedWriter = Arc::new(Mutex::new(Box::new(conn)));
                    let dispatcher = Arc::clone(&dispatcher);
                    thread::spawn(move || {
                        run_session(&*dispatcher, io::BufReader::new(reader), writer);
                    });
                }
                Err(e) => {
                    if e.kind() != io::ErrorKind::WouldBlock {
                        eprintln!("mtperf serve: accept failed: {e}");
                    }
                    thread::sleep(POLL);
                }
            }
        }
    });
}

/// Binds the TCP listener (non-blocking).
///
/// # Errors
///
/// [`CliError::Unavailable`] when the address cannot be bound or
/// configured — the process cannot start.
fn bind_tcp(addr: &str) -> Result<TcpListener, CliError> {
    let listener = TcpListener::bind(addr)
        .map_err(|e| CliError::Unavailable(format!("cannot bind tcp {addr}: {e}")))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| CliError::Unavailable(format!("cannot configure tcp {addr}: {e}")))?;
    Ok(listener)
}

/// Binds the Unix-domain listener (non-blocking), replacing a stale
/// socket file from a previous run.
///
/// # Errors
///
/// [`CliError::Unavailable`] when the stale socket cannot be replaced or
/// the path cannot be bound/configured.
#[cfg(unix)]
fn bind_unix(sock: &std::path::Path) -> Result<std::os::unix::net::UnixListener, CliError> {
    if sock.exists() {
        std::fs::remove_file(sock).map_err(|e| {
            CliError::Unavailable(format!(
                "cannot replace stale socket {}: {e}",
                sock.display()
            ))
        })?;
    }
    let listener = std::os::unix::net::UnixListener::bind(sock).map_err(|e| {
        CliError::Unavailable(format!("cannot bind socket {}: {e}", sock.display()))
    })?;
    listener.set_nonblocking(true).map_err(|e| {
        CliError::Unavailable(format!("cannot configure socket {}: {e}", sock.display()))
    })?;
    Ok(listener)
}
