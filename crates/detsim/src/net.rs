//! The transport seam: an in-memory stream whose misbehavior is data.
//!
//! [`SimStream`] implements [`Read`] + [`Write`] over two byte buffers (an
//! inbox the simulated peer filled, an outbox capturing what the stack
//! wrote), with a *fault script* applied in order as reads happen:
//! transient errors, short reads, connection drops, and latency charged to
//! the simulated clock. Writes always succeed until the peer drops. The
//! script is part of the test input, so a failing interaction is replayed
//! by re-running the same script — no real sockets, no timing luck.
//!
//! The serving stack's session loop is generic over `R: BufRead` and
//! `W: Write`, so a `SimStream` (or its [`SimStream::split`] halves) drops
//! in where a `TcpStream`/`UnixStream` would go, exercising the exact
//! production read/parse/respond code.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::clock;

/// One scripted misbehavior of the read side, consumed in order as reads
/// occur.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// The next read returns [`io::ErrorKind::Interrupted`] once (the
    /// retryable kind `read_bounded_line` is documented to absorb).
    InterruptRead,
    /// The next read returns at most this many bytes even if more are
    /// buffered — a split/partial line across reads.
    ShortRead(usize),
    /// The connection drops: this and every later read yields EOF and every
    /// later write [`io::ErrorKind::BrokenPipe`].
    Drop,
    /// The next read first sleeps this long on the global clock
    /// (instant under a virtual clock, but the timestamps advance).
    Latency(Duration),
}

#[derive(Debug, Default)]
struct StreamState {
    inbox: VecDeque<u8>,
    outbox: Vec<u8>,
    read_faults: VecDeque<Fault>,
    /// Closed for input: reads past the inbox return EOF instead of
    /// blocking-equivalent `WouldBlock`.
    input_closed: bool,
    dropped: bool,
}

/// A scriptable in-memory byte stream standing in for a client socket.
///
/// Cloning yields another handle to the same stream (both halves of a
/// duplex pipe share state), which is how the session reader and writer
/// sides observe a single `Drop` fault together.
#[derive(Debug, Clone, Default)]
pub struct SimStream {
    state: Arc<Mutex<StreamState>>,
}

impl SimStream {
    /// An open stream with empty buffers and no faults scripted.
    pub fn new() -> SimStream {
        SimStream::default()
    }

    fn lock(&self) -> MutexGuard<'_, StreamState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `bytes` as input from the simulated peer.
    pub fn push_input(&self, bytes: &[u8]) {
        self.lock().inbox.extend(bytes.iter().copied());
    }

    /// Marks the input side finished: once the inbox drains, reads return
    /// EOF (a client that sent its requests and half-closed).
    pub fn close_input(&self) {
        self.lock().input_closed = true;
    }

    /// Scripts a fault against the read side, applied in push order.
    pub fn script_read_fault(&self, fault: Fault) {
        self.lock().read_faults.push_back(fault);
    }

    /// Everything the stack has written so far.
    pub fn output(&self) -> Vec<u8> {
        self.lock().outbox.clone()
    }

    /// Two handles to the same stream, conventionally (reader, writer).
    pub fn split(&self) -> (SimStream, SimStream) {
        (self.clone(), self.clone())
    }
}

impl Read for SimStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut cap = buf.len();
        loop {
            let fault = {
                let mut s = self.lock();
                if s.dropped {
                    return Ok(0); // dropped peer: EOF
                }
                s.read_faults.pop_front()
            };
            match fault {
                None => break,
                Some(Fault::InterruptRead) => {
                    return Err(io::Error::new(
                        io::ErrorKind::Interrupted,
                        "sim: interrupted read",
                    ));
                }
                Some(Fault::ShortRead(n)) => {
                    cap = cap.min(n.max(1));
                    break;
                }
                Some(Fault::Drop) => {
                    self.lock().dropped = true;
                    return Ok(0);
                }
                Some(Fault::Latency(d)) => {
                    clock::sleep(d);
                    // Latency stacks with whatever fault follows it.
                }
            }
        }
        let mut s = self.lock();
        if s.inbox.is_empty() {
            if s.input_closed {
                return Ok(0);
            }
            // No data and the peer hasn't half-closed. A real socket would
            // block; in a deterministic single-threaded harness that is a
            // hang, so report it as a typed error the harness treats as a
            // failed invariant instead of deadlocking the run.
            return Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                "sim: read would block (no input scripted)",
            ));
        }
        let n = cap.min(s.inbox.len());
        for b in buf.iter_mut().take(n) {
            *b = s.inbox.pop_front().expect("len checked");
        }
        Ok(n)
    }
}

impl Write for SimStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut s = self.lock();
        if s.dropped {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "sim: peer gone"));
        }
        s.outbox.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.lock().dropped {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "sim: peer gone"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use std::io::{BufRead, BufReader};

    #[test]
    fn round_trip_without_faults() {
        let s = SimStream::new();
        s.push_input(b"hello\nworld\n");
        s.close_input();
        let (r, mut w) = s.split();
        let mut lines = BufReader::new(r).lines();
        assert_eq!(lines.next().unwrap().unwrap(), "hello");
        assert_eq!(lines.next().unwrap().unwrap(), "world");
        assert!(lines.next().is_none(), "EOF after close_input");
        w.write_all(b"response\n").unwrap();
        assert_eq!(s.output(), b"response\n");
    }

    #[test]
    fn short_reads_split_lines_across_reads() {
        let s = SimStream::new();
        s.push_input(b"abcdef\n");
        s.close_input();
        s.script_read_fault(Fault::ShortRead(2));
        s.script_read_fault(Fault::ShortRead(3));
        let mut r = s.clone();
        let mut buf = [0u8; 16];
        assert_eq!(r.read(&mut buf).unwrap(), 2);
        assert_eq!(r.read(&mut buf).unwrap(), 3);
        assert_eq!(r.read(&mut buf).unwrap(), 2); // remainder
        assert_eq!(r.read(&mut buf).unwrap(), 0); // EOF
    }

    #[test]
    fn interrupted_then_data() {
        let s = SimStream::new();
        s.push_input(b"x");
        s.close_input();
        s.script_read_fault(Fault::InterruptRead);
        let mut r = s.clone();
        let mut buf = [0u8; 4];
        let err = r.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert_eq!(r.read(&mut buf).unwrap(), 1);
    }

    #[test]
    fn drop_severs_both_sides() {
        let s = SimStream::new();
        s.push_input(b"pending");
        s.script_read_fault(Fault::Drop);
        let (mut r, mut w) = s.split();
        let mut buf = [0u8; 8];
        assert_eq!(r.read(&mut buf).unwrap(), 0, "drop reads as EOF");
        let err = w.write(b"late").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn latency_charges_the_virtual_clock() {
        let _seam = crate::CLOCK_SEAM
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let v = crate::clock::VirtualClock::new();
        crate::clock::install(v.clone());
        let s = SimStream::new();
        s.push_input(b"a");
        s.close_input();
        s.script_read_fault(Fault::Latency(Duration::from_millis(40)));
        let t0 = v.now();
        let mut buf = [0u8; 1];
        let mut r = s.clone();
        assert_eq!(r.read(&mut buf).unwrap(), 1);
        assert_eq!(v.now() - t0, Duration::from_millis(40));
        crate::clock::uninstall();
    }

    #[test]
    fn reading_with_no_input_is_wouldblock_not_hang() {
        let s = SimStream::new();
        let mut buf = [0u8; 4];
        let err = s.clone().read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }
}
