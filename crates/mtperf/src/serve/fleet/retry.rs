//! Deadline-aware retry budgets with decorrelated-jitter backoff.
//!
//! Every failed-over request carries a [`RetryBudget`]: a bounded number
//! of attempts whose inter-attempt delays follow the decorrelated-jitter
//! schedule (each delay drawn uniformly from `[prev, min(3·prev, cap)]`,
//! seeded from the process `rng` seam so simulations replay it exactly).
//! Two hard rules shape every schedule:
//!
//! * **monotone spacing** — a delay is never shorter than the previous
//!   one, so a flapping replica sees strictly decreasing retry pressure;
//! * **deadline respect** — a delay that would sleep past the request's
//!   remaining `deadline_ms` is not taken at all: the budget reports
//!   exhaustion instead, and the caller answers the client while the
//!   deadline still has meaning.
//!
//! The budget computes delays; the *caller* sleeps (through the `clock`
//! seam). That split keeps this module a pure, property-testable
//! function of (rng stream, remaining deadline).

use std::time::Duration;

use mtperf_detsim::rng::SimRng;

/// The retry schedule for one request. See the module docs.
#[derive(Debug)]
pub struct RetryBudget {
    attempts_left: u32,
    base: Duration,
    cap: Duration,
    prev: Option<Duration>,
}

impl RetryBudget {
    /// A budget of `attempts` retries, starting near `base` and never
    /// exceeding `cap` (clamped to at least `base`) between attempts.
    pub fn new(attempts: u32, base: Duration, cap: Duration) -> RetryBudget {
        RetryBudget {
            attempts_left: attempts,
            base: base.max(Duration::from_micros(1)),
            cap: cap.max(base).max(Duration::from_micros(1)),
            prev: None,
        }
    }

    /// Retries not yet consumed.
    pub fn attempts_left(&self) -> u32 {
        self.attempts_left
    }

    /// The next backoff delay, or `None` when the budget is exhausted or
    /// the delay would overrun `remaining` (the request's outstanding
    /// deadline; `None` means no deadline). Returning `None` for a
    /// deadline reason also exhausts the budget: once a schedule cannot
    /// fit, no later (longer) delay can either.
    pub fn next_delay(&mut self, rng: &SimRng, remaining: Option<Duration>) -> Option<Duration> {
        if self.attempts_left == 0 {
            return None;
        }
        let delay = match self.prev {
            // First delay: base plus up to one base of jitter, so
            // simultaneous retriers decorrelate from the first attempt.
            None => {
                let jitter = rng.next_u64() % (self.base.as_micros().max(1) as u64);
                (self.base + Duration::from_micros(jitter)).min(self.cap)
            }
            // Decorrelated jitter, clamped monotone: uniform in
            // [prev, min(3·prev, cap)]. `prev <= cap` is an invariant,
            // so the interval is never empty.
            Some(prev) => {
                let lo = prev.as_micros() as u64;
                let hi = (prev.saturating_mul(3)).min(self.cap).as_micros() as u64;
                let span = hi.saturating_sub(lo);
                let jitter = if span == 0 {
                    0
                } else {
                    rng.next_u64() % (span + 1)
                };
                Duration::from_micros(lo + jitter)
            }
        };
        if let Some(rem) = remaining {
            if delay > rem {
                self.attempts_left = 0;
                return None;
            }
        }
        self.attempts_left -= 1;
        self.prev = Some(delay);
        Some(delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn budget_yields_at_most_its_attempts() {
        let rng = SimRng::seed_from_u64(7);
        let mut b = RetryBudget::new(3, MS, 50 * MS);
        let mut n = 0;
        while b.next_delay(&rng, None).is_some() {
            n += 1;
        }
        assert_eq!(n, 3);
        assert_eq!(b.attempts_left(), 0);
    }

    #[test]
    fn deadline_overrun_exhausts_instead_of_oversleeping() {
        let rng = SimRng::seed_from_u64(7);
        let mut b = RetryBudget::new(10, 4 * MS, 50 * MS);
        // Remaining budget smaller than the smallest possible first
        // delay (base): no retry may be scheduled at all.
        assert_eq!(b.next_delay(&rng, Some(3 * MS)), None);
        assert_eq!(b.attempts_left(), 0);
        assert_eq!(b.next_delay(&rng, None), None);
    }

    #[test]
    fn zero_attempt_budget_never_delays() {
        let rng = SimRng::seed_from_u64(7);
        let mut b = RetryBudget::new(0, MS, 50 * MS);
        assert_eq!(b.next_delay(&rng, None), None);
    }

    #[test]
    fn same_seed_replays_the_same_schedule() {
        let schedule = |seed: u64| -> Vec<Duration> {
            let rng = SimRng::seed_from_u64(seed);
            let mut b = RetryBudget::new(5, 2 * MS, 40 * MS);
            std::iter::from_fn(|| b.next_delay(&rng, None)).collect()
        };
        assert_eq!(schedule(11), schedule(11));
        assert_ne!(schedule(11), schedule(12));
    }
}

/// Satellite property suite: the schedule is monotone nondecreasing,
/// bounded by the cap, and never sleeps past the remaining deadline —
/// for every seed, shape, and deadline.
#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn schedule_is_monotone_and_capped(
            seed in 0u64..1_000_000,
            attempts in 0u32..12,
            base_us in 1u64..5_000,
            cap_us in 1u64..50_000,
        ) {
            let rng = SimRng::seed_from_u64(seed);
            let base = Duration::from_micros(base_us);
            let cap = Duration::from_micros(cap_us);
            let mut b = RetryBudget::new(attempts, base, cap);
            let mut prev = Duration::ZERO;
            let mut n = 0u32;
            while let Some(d) = b.next_delay(&rng, None) {
                n += 1;
                prop_assert!(d >= prev, "delay shrank: {prev:?} -> {d:?}");
                prop_assert!(d <= cap.max(base), "delay {d:?} above cap {cap:?}");
                prop_assert!(n == 1 || d <= prev.saturating_mul(3),
                    "delay {d:?} grew past 3x prev {prev:?}");
                prev = d;
            }
            prop_assert_eq!(n, attempts);
        }

        #[test]
        fn no_sleep_past_the_deadline_budget(
            seed in 0u64..1_000_000,
            attempts in 0u32..12,
            base_us in 1u64..5_000,
            cap_us in 1u64..50_000,
            deadline_us in 0u64..20_000,
        ) {
            let rng = SimRng::seed_from_u64(seed);
            let mut b = RetryBudget::new(
                attempts,
                Duration::from_micros(base_us),
                Duration::from_micros(cap_us),
            );
            let mut remaining = Duration::from_micros(deadline_us);
            let mut slept = Duration::ZERO;
            while let Some(d) = b.next_delay(&rng, Some(remaining)) {
                prop_assert!(d <= remaining, "scheduled {d:?} past remaining {remaining:?}");
                remaining -= d;
                slept += d;
            }
            // Total sleep fits the original deadline, and a refusal is
            // terminal: the budget reports exhausted afterwards.
            prop_assert!(slept <= Duration::from_micros(deadline_us));
            prop_assert_eq!(b.attempts_left(), 0);
        }
    }
}
