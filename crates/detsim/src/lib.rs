//! Deterministic-simulation seams for the `mtperf` workspace.
//!
//! Every availability claim the serving stack makes — "deadlines fire", "a
//! poisoned reload keeps the last known good model", "transient I/O is
//! retried and absorbed" — depends on three ambient effects: the clock, the
//! entropy source, and the I/O layer. As long as those are reached through
//! `Instant::now()`, `thread::sleep`, ad-hoc `SmallRng`s, and raw `std::fs`,
//! the only way to test the claims is to wait on real time and hope real I/O
//! misbehaves on cue. This crate turns each effect into a *seam*:
//!
//! * [`clock`] — a [`clock::Clock`] trait and a [`clock::VirtualClock`]
//!   whose time is data: sleeping advances a counter instead of the
//!   scheduler, so a 1/2/4/8 ms retry ladder unit-tests in microseconds and
//!   deadline races replay exactly.
//! * [`rng`] — [`rng::SimRng`], a seeded stream shared by reference
//!   (xoshiro256++ behind a lock, in the style of MoosicBox's `switchy`
//!   simulator packages) that also backs the entropy-seeded production
//!   source, plus [`rng::derive_seed`] so one root seed governs every
//!   subsystem without their draws interleaving.
//! * [`net`] — [`net::SimStream`], an in-memory transport whose read-side
//!   fault script (transient errors, short reads, drops, latency) is part
//!   of the test input.
//! * [`fs`] — a process-global [`fs::FaultScript`] consulted by
//!   `obs::fsio` before filesystem operations, so torn-save and
//!   retry-exhaustion paths are drivable from a seed instead of from
//!   `kill -9` timing luck.
//!
//! # Production stays production
//!
//! Each global seam ([`clock::install`], [`rng::install`],
//! [`fs::install`]) defaults to the real implementation behind one relaxed
//! atomic load — the same disabled-by-default discipline as the `obs`
//! crate. A process that never installs a simulator runs the exact code it
//! ran before this crate existed; the serve golden tests and prediction
//! bit-identity suites pin that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod fs;
pub mod net;
pub mod rng;

pub use clock::{Clock, VirtualClock};
pub use fs::{FaultScript, FsOp};
pub use net::{Fault, SimStream};
pub use rng::{derive_seed, SimRng};

/// Serializes the unit tests that install the process-global clock.
#[cfg(test)]
static CLOCK_SEAM: std::sync::Mutex<()> = std::sync::Mutex::new(());
