//! The time seam: a virtual clock behind one trait, plus the process-global
//! [`now`] and [`sleep`] the rest of the workspace reads time through.
//!
//! Time is represented as a [`Duration`] since the clock's epoch rather
//! than as [`Instant`], because a virtual clock has no meaningful
//! `Instant` — its "now" is a counter that only moves when the simulation
//! says so. Durations subtract, compare, and serialize without platform
//! baggage, which is exactly what deadline accounting and event traces
//! need.
//!
//! # Real and virtual time
//!
//! With no clock installed, [`now`] is monotonic wall time ([`Instant`])
//! against a lazy process epoch and [`sleep`] is [`std::thread::sleep`].
//! A [`VirtualClock`] is simulated time: a sleep simply moves the clock
//! forward and returns, so a retry ladder that would wall-sleep 15 ms
//! completes instantly with every timestamp still observable.
//!
//! # Example
//!
//! ```
//! use mtperf_detsim::clock::{Clock, VirtualClock};
//! use std::time::Duration;
//!
//! let clock = VirtualClock::new();
//! let t0 = clock.now();
//! clock.sleep(Duration::from_millis(8)); // returns immediately
//! assert_eq!(clock.now() - t0, Duration::from_millis(8));
//! ```

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// A source of monotonic time and the ability to wait on it.
///
/// `now` is the duration since the clock's epoch (construction for a
/// virtual clock). Implementations must be monotonic: `now` never
/// decreases.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Time elapsed since this clock's epoch.
    fn now(&self) -> Duration;

    /// Blocks the caller (really or virtually) for `d`.
    fn sleep(&self, d: Duration);
}

/// The process-wide monotonic epoch real time is measured against.
fn real_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Simulated time: a counter that moves only when the simulation moves it.
///
/// A sleep advances the counter and returns immediately, which is
/// deterministic for a single driving thread.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now: Mutex<Duration>,
}

impl VirtualClock {
    /// A virtual clock at time zero whose sleeps advance time and return
    /// immediately.
    pub fn new() -> Arc<VirtualClock> {
        Arc::new(VirtualClock::default())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Duration> {
        self.now.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Duration {
        *self.lock()
    }

    fn sleep(&self, d: Duration) {
        *self.lock() += d;
    }
}

/// Set when a simulator clock is installed; the fast path is one relaxed
/// load that keeps production on the real clock with zero locking.
static OVERRIDDEN: AtomicBool = AtomicBool::new(false);
static OVERRIDE: Mutex<Option<Arc<dyn Clock>>> = Mutex::new(None);

/// Installs `clock` as the process-global clock every seam-aware call site
/// ([`now`], [`sleep`]) reads from. Intended for simulation harnesses and
/// dedicated test binaries — the override is process-wide.
pub fn install(clock: Arc<dyn Clock>) {
    let mut slot = OVERRIDE.lock().unwrap_or_else(PoisonError::into_inner);
    *slot = Some(clock);
    OVERRIDDEN.store(true, Ordering::Release);
}

/// Removes any installed clock, returning the process to real time.
pub fn uninstall() {
    OVERRIDDEN.store(false, Ordering::Release);
    let mut slot = OVERRIDE.lock().unwrap_or_else(PoisonError::into_inner);
    *slot = None;
}

/// The installed clock, or `None` on real time. Production's fast path
/// is the one relaxed load.
fn installed() -> Option<Arc<dyn Clock>> {
    if !OVERRIDDEN.load(Ordering::Acquire) {
        return None;
    }
    OVERRIDE
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// Time since the global clock's epoch. Production fast path: one relaxed
/// atomic load plus `Instant::now()`.
pub fn now() -> Duration {
    match installed() {
        Some(clock) => clock.now(),
        None => real_epoch().elapsed(),
    }
}

/// Sleeps on the global clock (really, or virtually under a simulator).
pub fn sleep(d: Duration) {
    match installed() {
        Some(clock) => clock.sleep(d),
        None => std::thread::sleep(d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_advances_without_waiting() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), Duration::ZERO);
        let wall = Instant::now();
        c.sleep(Duration::from_secs(3600));
        assert!(
            wall.elapsed() < Duration::from_secs(5),
            "did not wall-sleep"
        );
        assert_eq!(c.now(), Duration::from_secs(3600));
    }

    #[test]
    fn global_seam_defaults_to_real_and_swaps() {
        let _seam = crate::CLOCK_SEAM
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // Default: monotonic wall time and real sleeps.
        let a = now();
        sleep(Duration::from_millis(2));
        let b = now();
        assert!(b >= a + Duration::from_millis(2), "{a:?} .. {b:?}");
        // Install a virtual clock: time is frozen until slept.
        let v = VirtualClock::new();
        install(v.clone() as Arc<dyn Clock>);
        let t0 = now();
        let t1 = now();
        assert_eq!(t0, t1, "virtual time does not flow by itself");
        sleep(Duration::from_millis(7));
        assert_eq!(now() - t0, Duration::from_millis(7));
        uninstall();
        let c = now();
        let d = now();
        assert!(d >= c);
    }
}
