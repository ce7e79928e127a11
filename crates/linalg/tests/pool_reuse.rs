//! Pool-reuse property suite: the persistent worker pool must be a pure
//! implementation detail. Repeated parallel sections on the *same* pool —
//! at any thread setting, at awkward batch sizes, and across injected
//! faults (a worker panic, a mid-batch cancellation) — must stay
//! `to_bits()`-identical to the serial path. A leaked per-thread flag, a
//! poisoned queue, or a stale task from a previous job would all show up
//! here as a wrong bit or a hang.

use std::collections::BTreeSet;

use mtperf_linalg::parallel::{self, Parallelism};
use mtperf_linalg::{try_par_fill, try_par_map, CancelToken, LinalgError};

/// Deterministic, rounding-sensitive per-item work: a chain of
/// transcendental ops whose bit pattern would expose any change in
/// evaluation order or environment (x87 excess precision, reassociation).
fn work(i: usize) -> f64 {
    let x = i as f64 + 0.5;
    let a = x.sqrt().sin();
    let b = (x * 1.000_000_1).cos();
    (a * b + x.ln_1p()).tanh() + a / (b.abs() + 1.0)
}

fn serial_reference(n: usize) -> Vec<f64> {
    (0..n).map(work).collect()
}

fn assert_bits_eq(got: &[f64], want: &[f64], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: item {i}");
    }
}

#[test]
fn repeated_calls_on_one_pool_stay_bit_identical_across_faults() {
    parallel::warm_up(); // start the pool once; every round below reuses it
    let settings = [
        Parallelism::Auto,
        Parallelism::Off,
        Parallelism::Fixed(2),
        Parallelism::Fixed(7),
    ];
    for round in 0..3 {
        for &par in &settings {
            let t = par.threads().max(1);
            // Odd sizes on purpose: empty, singleton, one less / one more
            // than the thread count, and a prime that never divides evenly.
            let sizes: BTreeSet<usize> =
                [0, 1, t.saturating_sub(1), t + 1, 97].into_iter().collect();
            for &n in &sizes {
                let ctx = format!("round {round}, par {par:?}, n {n}");
                let want = serial_reference(n);
                let items: Vec<usize> = (0..n).collect();

                let mapped = try_par_map(par, &items, |&i| work(i)).unwrap();
                assert_bits_eq(&mapped, &want, &format!("{ctx}, try_par_map"));

                let token = CancelToken::new();
                let mut filled = vec![0.0f64; n];
                try_par_fill(par, &mut filled, 3, Some(&token), |start, block| {
                    for (j, v) in block.iter_mut().enumerate() {
                        *v = work(start + j);
                    }
                })
                .unwrap();
                assert_bits_eq(&filled, &want, &format!("{ctx}, try_par_fill"));
            }
        }

        // Fault injection between rounds — the next round's assertions
        // prove the pool survives both paths unharmed.
        //
        // 1. A worker panic: isolated, reported at the input index, and
        //    the panicking thread's state must not leak into later jobs.
        let items: Vec<usize> = (0..101).collect();
        let err = try_par_map(Parallelism::Fixed(7), &items, |&i| {
            assert!(i != 53, "injected panic, round {round}");
            work(i)
        })
        .unwrap_err();
        match err {
            LinalgError::WorkerPanic { index, message } => {
                assert_eq!(index, 53, "round {round}");
                assert!(
                    message.contains("injected panic"),
                    "round {round}: {message}"
                );
            }
            other => panic!("round {round}: expected WorkerPanic, got {other:?}"),
        }

        // 2. A mid-batch cancellation fired from inside the section: every
        //    in-flight chunk stops at its next check, partial results are
        //    discarded, and the pool is immediately reusable.
        let token = CancelToken::new();
        let mut filled = vec![0.0f64; items.len()];
        let err = try_par_fill(
            Parallelism::Fixed(2),
            &mut filled,
            1,
            Some(&token),
            |i, slot| {
                if i == 20 {
                    token.cancel();
                }
                slot[0] = work(i);
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, LinalgError::Cancelled),
            "round {round}: expected Cancelled, got {err:?}"
        );
    }
}
