//! The randomness seam: one seeded stream type, [`SimRng`], that many
//! call sites share by reference, plus the process-global stream that
//! production sites such as retry jitter draw from.
//!
//! Scattered ad-hoc `SmallRng::seed_from_u64` call sites each own a private
//! seed, so "replay the failing run" means collecting one seed per
//! subsystem. This module centralizes the discipline for shared streams:
//!
//! * [`SimRng`] — a seeded xoshiro256++ stream behind a lock, bit-identical
//!   to `SmallRng::seed_from_u64` for the same seed. Every method takes
//!   `&self`, so one stream serves many call sites (an `Arc<SimRng>`
//!   across threads). A generator that owns its stream outright holds a
//!   plain `SmallRng` instead and pays no lock per draw.
//! * the production stream — one process-global `SimRng` seeded from
//!   system entropy (time, PID, ASLR), then deterministic *within* the
//!   process. Non-reproducible across runs, as production randomness
//!   should be. [`global`] returns it unless a simulator [`install`]ed a
//!   seeded one.
//! * [`derive_seed`] — stable domain separation, so a single root seed
//!   (e.g. `MTPERF_SIM_SEED`) governs retry jitter, fault scripts, and
//!   session scheduling without their draws interleaving.
//!
//! # Example
//!
//! ```
//! use mtperf_detsim::rng::{derive_seed, SimRng};
//!
//! let root = 42u64;
//! let faults = SimRng::seed_from_u64(derive_seed(root, "faults"));
//! let schedule = SimRng::seed_from_u64(derive_seed(root, "schedule"));
//! assert_ne!(faults.next_u64(), schedule.next_u64());
//! // Same seed, same stream:
//! let again = SimRng::seed_from_u64(derive_seed(root, "faults"));
//! let replay = SimRng::seed_from_u64(derive_seed(root, "faults"));
//! assert_eq!(again.next_u64(), replay.next_u64());
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// Seeded shared stream: xoshiro256++ behind a lock, bit-identical to
/// [`SmallRng::seed_from_u64`] for the same seed.
///
/// Every method takes `&self`. The sampling helpers are deliberately
/// simple, deterministic recipes (widening-multiply index, 53-bit float).
#[derive(Debug)]
pub struct SimRng {
    inner: Mutex<SmallRng>,
}

impl SimRng {
    /// A stream fully determined by `seed` (SplitMix64-stretched, matching
    /// `rand 0.8`'s `SmallRng::seed_from_u64`).
    pub fn seed_from_u64(seed: u64) -> SimRng {
        SimRng {
            inner: Mutex::new(SmallRng::seed_from_u64(seed)),
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .next_u64()
    }

    /// Uniform index in `0..n` via the widening-multiply map (`n` ≥ 1).
    pub fn gen_index(&self, n: usize) -> usize {
        assert!(n > 0, "gen_index needs a non-empty range");
        (((self.next_u64() as u128) * (n as u128)) >> 64) as usize
    }

    /// Uniform `f64` in `[0, 1)` (53-bit multiply recipe).
    pub fn gen_f64(&self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&self, p: f64) -> bool {
        self.gen_f64() < p
    }
}

/// A seed from system entropy: monotonic + wall time, PID, and a stack
/// address for ASLR spice.
fn entropy_seed() -> u64 {
    let pid = u64::from(std::process::id());
    let wall = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let stack = &pid as *const u64 as usize as u64;
    derive_seed(wall ^ pid.rotate_left(32), "entropy") ^ stack.rotate_left(17)
}

/// The production stream, seeded once per process from [`entropy_seed`].
/// Within a process it is a normal deterministic PRNG; across processes it
/// is effectively unpredictable, which is all retry jitter needs.
fn entropy_stream() -> &'static Arc<SimRng> {
    static STREAM: OnceLock<Arc<SimRng>> = OnceLock::new();
    STREAM.get_or_init(|| Arc::new(SimRng::seed_from_u64(entropy_seed())))
}

/// Stable domain separation: mixes `root` with an FNV-1a hash of `domain`
/// through a SplitMix64 finalizer. Same inputs, same output, forever — the
/// function is part of the replay contract.
pub fn derive_seed(root: u64, domain: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in domain.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    // SplitMix64 finalizer over the combination.
    let mut z = root ^ h.rotate_left(31);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Set when a simulator RNG is installed as the process-global source.
static OVERRIDDEN: AtomicBool = AtomicBool::new(false);
static OVERRIDE: Mutex<Option<Arc<SimRng>>> = Mutex::new(None);

/// Installs `rng` as the process-global randomness source consulted by
/// seam-aware production sites (e.g. retry jitter). Process-wide; intended
/// for simulation harnesses and dedicated test binaries.
pub fn install(rng: Arc<SimRng>) {
    let mut slot = OVERRIDE.lock().unwrap_or_else(PoisonError::into_inner);
    *slot = Some(rng);
    OVERRIDDEN.store(true, Ordering::Release);
}

/// Returns the process to the entropy-seeded production stream.
pub fn uninstall() {
    OVERRIDDEN.store(false, Ordering::Release);
    let mut slot = OVERRIDE.lock().unwrap_or_else(PoisonError::into_inner);
    *slot = None;
}

/// The installed stream, or the entropy-seeded production one.
pub fn global() -> Arc<SimRng> {
    if OVERRIDDEN.load(Ordering::Acquire) {
        if let Some(r) = OVERRIDE
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
        {
            return Arc::clone(r);
        }
    }
    Arc::clone(entropy_stream())
}

/// One 64-bit draw from the global source — the convenience call for
/// low-rate production sites like retry jitter.
pub fn global_next_u64() -> u64 {
    if !OVERRIDDEN.load(Ordering::Acquire) {
        return entropy_stream().next_u64();
    }
    global().next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_rng_matches_small_rng_stream() {
        let sim = SimRng::seed_from_u64(2007);
        let mut small = SmallRng::seed_from_u64(2007);
        for _ in 0..32 {
            assert_eq!(sim.next_u64(), small.next_u64());
        }
    }

    #[test]
    fn derive_seed_is_stable_and_domain_separated() {
        let a = derive_seed(42, "faults");
        assert_eq!(a, derive_seed(42, "faults"));
        assert_ne!(a, derive_seed(42, "workload"));
        assert_ne!(a, derive_seed(43, "faults"));
        // Pinned value: this function is part of the replay contract; a
        // silent change would orphan every recorded failing seed.
        assert_eq!(derive_seed(42, "faults"), 0x8f6d_d67c_1ece_3c91);
    }

    #[test]
    fn helper_distributions_are_in_range() {
        let rng = SimRng::seed_from_u64(9);
        for _ in 0..1000 {
            assert!(rng.gen_index(10) < 10);
            let f = rng.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn production_stream_draws_without_panicking() {
        let a = global().next_u64();
        let b = global_next_u64();
        assert_ne!(a, b, "stream advances");
    }
}
