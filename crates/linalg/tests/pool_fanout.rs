//! Which parallel sections reach the worker pool.
//!
//! The bit-identity suites cannot see a lost nesting guard: a nested
//! section that dispatches to the pool returns the same bits and only
//! costs more. This suite counts dispatches through the `pool.dispatches`
//! counter instead.
//!
//! Everything lives in ONE test function on purpose: the obs registry is
//! process-global, and a sibling test dispatching concurrently would leak
//! its counters into the session under assertion.

use mtperf_linalg::{try_par_fill, try_par_map, Parallelism};

/// Runs `f` in a fresh obs session and returns how many times it
/// dispatched to the pool.
fn dispatches(f: impl FnOnce()) -> u64 {
    mtperf_obs::init(mtperf_obs::ObsConfig {
        trace: true,
        ..Default::default()
    })
    .unwrap();
    f();
    let report = mtperf_obs::finish().expect("session was enabled");
    report
        .counters
        .iter()
        .find(|(name, _)| name == "pool.dispatches")
        .map_or(0, |(_, count)| *count)
}

#[test]
fn only_top_level_sections_with_several_items_dispatch() {
    let par = Parallelism::Fixed(4);

    for n in [0usize, 1] {
        let items: Vec<usize> = (0..n).collect();
        let mapped = dispatches(|| {
            try_par_map(par, &items, |&x| x).unwrap();
        });
        assert_eq!(mapped, 0, "try_par_map over {n} items");
        let mut out = vec![0usize; n];
        let filled = dispatches(|| try_par_fill(par, &mut out, 1, None, |_, _| {}).unwrap());
        assert_eq!(filled, 0, "try_par_fill over {n} items");
    }

    let items: Vec<usize> = (0..8).collect();
    let flat = dispatches(|| {
        try_par_map(par, &items, |&x| x).unwrap();
    });
    assert_eq!(flat, 1, "an 8-item map on 4 threads");

    // Every item of the outer map opens two more sections; run inside a
    // pool worker (or the dispatching thread's own chunk), they must stay
    // serial, leaving the outer dispatch as the only one.
    let nested = dispatches(|| {
        try_par_map(par, &items, |_| {
            try_par_map(par, &items, |&x| x).unwrap();
            let mut out = vec![0usize; 8];
            try_par_fill(par, &mut out, 1, None, |_, _| {}).unwrap();
        })
        .unwrap();
    });
    assert_eq!(nested, 1, "sections nested inside pool workers dispatched");
}
