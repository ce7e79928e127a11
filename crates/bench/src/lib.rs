//! Shared fixtures and the timer for the bench programs.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mtperf_linalg::Matrix;
use mtperf_mtree::Dataset;

/// Times `routine` over `samples` samples, prints `  {name}: <ns> ns/iter`
/// to stderr and returns the median per-call time in nanoseconds.
///
/// Each sample calibrates on one call, then times a batch of calls sized
/// to about 10 ms of work (at least one call, at most a million) and
/// divides by the batch size, so sub-microsecond routines still read
/// above the clock's resolution.
pub fn median_ns<R>(name: &str, samples: usize, mut routine: impl FnMut() -> R) -> f64 {
    let mut times: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            black_box(routine());
            let once = start.elapsed().max(Duration::from_nanos(1));
            let iters =
                (Duration::from_millis(10).as_nanos() / once.as_nanos()).clamp(1, 1_000_000);
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    let ns = times[times.len() / 2];
    eprintln!("  {name}: {ns:.1} ns/iter");
    ns
}

/// A purely synthetic regression problem of `n` rows over `d` attributes
/// (piecewise-linear in the first attribute), for size sweeps that do not
/// need the simulator.
pub fn synthetic_dataset(n: usize, d: usize) -> Dataset {
    let names: Vec<String> = (0..d).map(|j| format!("x{j}")).collect();
    let mut data = Dataset::new(names).expect("valid names");
    let mut state = 0x9E37_79B9_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for _ in 0..n {
        let row: Vec<f64> = (0..d).map(|_| next() * 10.0).collect();
        let y = if row[0] <= 5.0 {
            1.0 + 0.4 * row[1 % d]
        } else {
            8.0 - 0.2 * row[2 % d]
        } + (next() - 0.5) * 0.1;
        data.push_row(&row, y).expect("finite row");
    }
    data
}

/// A synthetic prediction batch of `n` rows over `d` attributes, drawn from
/// the same distribution as [`synthetic_dataset`]'s inputs but built as a
/// bare [`Matrix`]: no target column, no per-row `Vec`s, so 10M-row scoring
/// sweeps allocate one flat buffer instead of doubling through a `Dataset`.
pub fn synthetic_matrix(n: usize, d: usize) -> Matrix {
    let mut state = 0x517C_C1B7_2722_0A95_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let data: Vec<f64> = (0..n * d).map(|_| next() * 10.0).collect();
    Matrix::from_vec(n, d, data).expect("shape matches data")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_ns_calibrates_batches_and_reports_per_call_time() {
        let mut calls = 0u64;
        let ns = median_ns("count", 5, || calls += 1);
        // A ~10 ms sample runs a trivial routine many times, not once...
        assert!(calls > 100, "{calls} calls");
        // ...and the result is the time of one call, not of the batch.
        assert!(ns > 0.0 && ns < 1e4, "{ns} ns");
    }
}
