//! Deterministic data parallelism on a persistent worker pool.
//!
//! The workspace deliberately has no external dependencies (the registry is
//! not reachable from every build environment), so this module builds its
//! data-parallel helpers directly on the lazily-started pool in `pool.rs`.
//! Earlier revisions spawned scoped threads per call; the pool keeps
//! workers alive across calls, which is what lets a 90 µs
//! batch-prediction dispatch actually profit from parallelism instead of
//! drowning in thread spawn/join overhead (see `pool.rs` for the history
//! and the soundness argument).
//!
//! # Determinism contract
//!
//! [`try_par_fill`] is the one engine. It splits its output into blocks,
//! gives each worker a *statically chosen contiguous run* of blocks, and
//! every block writes only its own disjoint region of the output, so the
//! contents never depend on which worker finished first. [`try_par_map`]
//! is that engine with one item per block: it computes `f` on each item
//! independently and returns results in **input order**, regardless of
//! thread count or scheduling. Callers that keep their per-item
//! computation free of shared mutable state therefore get bit-identical
//! results at any [`Parallelism`] setting — the property the split search,
//! cross validation, compiled batch prediction, and baseline suite rely on.
//!
//! # Panic isolation and cancellation
//!
//! Every block runs under [`std::panic::catch_unwind`], so a panicking
//! item never tears down the process or poisons sibling workers; it
//! surfaces as a structured [`crate::LinalgError::WorkerPanic`] naming the
//! lowest panicking index. A [`CancelToken`] passed to [`try_par_fill`] is
//! consulted before every block; a panic outranks cancellation. A section
//! started inside a pool worker runs serially on that worker instead of
//! oversubscribing the machine.
//!
//! # Example
//!
//! ```
//! use mtperf_linalg::parallel::{try_par_map, Parallelism};
//!
//! let squares = try_par_map(Parallelism::Auto, &[1, 2, 3, 4], |&x| x * x).unwrap();
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

use mtperf_detsim::clock;

use crate::error::LinalgError;
use crate::pool;

/// Poison-tolerant lock: per-chunk slots hold plain data and are never
/// left torn (user panics are caught before the slot write).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A cooperative cancellation signal shared between a controller and the
/// workers of a parallel section.
///
/// Tokens are cheap to clone (an [`Arc`] around one atomic flag plus an
/// optional deadline). Workers observe cancellation *between* items — a
/// running closure is never interrupted mid-flight, so partially computed
/// items are simply discarded and no shared state is left torn. A token with
/// a deadline reports itself cancelled once the deadline passes, which is
/// how per-request deadlines thread through batch prediction.
///
/// # Example
///
/// ```
/// use mtperf_linalg::parallel::CancelToken;
/// use std::time::Duration;
///
/// let token = CancelToken::new();
/// assert!(!token.is_cancelled());
/// token.cancel();
/// assert!(token.is_cancelled());
///
/// // Already-expired deadlines cancel immediately and deterministically.
/// let expired = CancelToken::with_deadline(Duration::ZERO);
/// assert!(expired.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Debug, Default)]
struct CancelInner {
    cancelled: AtomicBool,
    /// Absolute deadline as a global-clock timestamp ([`clock::now`]), so a
    /// simulated clock controls deadline expiry the same way the real one
    /// does.
    deadline: Option<Duration>,
}

impl CancelToken {
    /// A token that only cancels when [`CancelToken::cancel`] is called.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that additionally reports cancelled once `timeout` from now
    /// has elapsed (measured on the global clock seam).
    pub fn with_deadline(timeout: Duration) -> CancelToken {
        Self::with_deadline_at(clock::now() + timeout)
    }

    /// A token with an absolute deadline, as a timestamp on the global
    /// clock (duration since the clock's epoch, i.e. [`clock::now`]).
    pub fn with_deadline_at(deadline: Duration) -> CancelToken {
        CancelToken {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// Requests cancellation; all clones of this token observe it.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether cancellation was requested or the deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
            || self
                .inner
                .deadline
                .is_some_and(|deadline| clock::now() >= deadline)
    }

    /// The absolute deadline (global-clock timestamp), if this token
    /// carries one.
    pub fn deadline(&self) -> Option<Duration> {
        self.inner.deadline
    }

    /// Time remaining before the deadline ([`Duration::ZERO`] once passed;
    /// `None` for tokens without one). The serving layer uses this for
    /// per-request deadline accounting.
    pub fn remaining(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|deadline| deadline.saturating_sub(clock::now()))
    }
}

/// How many worker threads parallel sections may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Use the machine's available parallelism.
    #[default]
    Auto,
    /// Run everything serially on the calling thread.
    Off,
    /// Use exactly this many threads (≥ 1; 1 behaves like [`Parallelism::Off`]).
    Fixed(usize),
}

impl Parallelism {
    /// The concrete thread count this setting resolves to on this machine.
    pub fn threads(self) -> usize {
        match self {
            Parallelism::Off => 1,
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

impl FromStr for Parallelism {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(Parallelism::Auto),
            "off" => Ok(Parallelism::Off),
            n => n
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .map(Parallelism::Fixed)
                .ok_or_else(|| {
                    format!("invalid parallelism {s:?}: expected \"auto\", \"off\", or a thread count >= 1")
                }),
        }
    }
}

impl fmt::Display for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Parallelism::Auto => write!(f, "auto"),
            Parallelism::Off => write!(f, "off"),
            Parallelism::Fixed(n) => write!(f, "{n}"),
        }
    }
}

/// Global default used when a caller does not pass an explicit setting.
/// Encoding: 0 = Auto, 1 = Off, n ≥ 2 = Fixed(n − 1).
static GLOBAL: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default [`Parallelism`] (e.g. from a `--threads`
/// CLI flag).
pub fn set_global(par: Parallelism) {
    let encoded = match par {
        Parallelism::Auto => 0,
        Parallelism::Off => 1,
        Parallelism::Fixed(n) => n.max(1) + 1,
    };
    GLOBAL.store(encoded, Ordering::Relaxed);
}

/// The process-wide default [`Parallelism`].
pub fn global() -> Parallelism {
    match GLOBAL.load(Ordering::Relaxed) {
        0 => Parallelism::Auto,
        1 => Parallelism::Off,
        n => Parallelism::Fixed(n - 1),
    }
}

thread_local! {
    /// True inside a pool worker's chunk: nested sections run serially
    /// instead of oversubscribing the machine.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with the nested-parallelism flag set, restoring it even on
/// unwind (pool workers are reused across jobs, so a leaked flag would
/// silently serialize every later job on that thread).
fn with_parallel_flag<R>(f: impl FnOnce() -> R) -> R {
    struct Reset(bool);
    impl Drop for Reset {
        fn drop(&mut self) {
            IN_PARALLEL.with(|flag| flag.set(self.0));
        }
    }
    let _reset = Reset(IN_PARALLEL.with(Cell::get));
    IN_PARALLEL.with(|flag| flag.set(true));
    f()
}

/// Renders a caught panic payload as text the way the default panic hook
/// does.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Maps `f` over `items`, possibly on multiple threads, preserving input
/// order: element `i` of the result is always `f(&items[i])`, bit for bit,
/// at any thread count.
///
/// This is [`try_par_fill`] with one item per block, so block indices are
/// item indices: items split into near-equal contiguous chunks, a nested
/// call runs serially, and a panicking worker closure surfaces as
/// [`LinalgError::WorkerPanic`] instead of unwinding through the caller.
/// The reported index is deterministic — the lowest input-order index whose
/// closure panicked among the panics observed — so retries and error
/// messages are stable across thread counts and scheduling.
///
/// # Errors
///
/// Returns [`LinalgError::WorkerPanic`] when any worker closure panics.
///
/// # Example
///
/// ```
/// use mtperf_linalg::parallel::{try_par_map, Parallelism};
///
/// let ok = try_par_map(Parallelism::Fixed(2), &[1, 2, 3], |&x| x * x);
/// assert_eq!(ok.unwrap(), vec![1, 4, 9]);
///
/// let err = try_par_map(Parallelism::Fixed(2), &[1, 2, 3], |&x| {
///     assert!(x != 2, "bad item");
///     x
/// });
/// assert!(err.is_err());
/// ```
pub fn try_par_map<T, R, F>(par: Parallelism, items: &[T], f: F) -> Result<Vec<R>, LinalgError>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
    try_par_fill(par, &mut out, 1, None, |i, slot| {
        slot[0] = Some(f(&items[i]));
    })?;
    Ok(out
        .into_iter()
        .map(|r| r.expect("a successful fill ran every block"))
        .collect())
}

/// In-place deterministic parallel fill: splits `out` into `block`-sized
/// row blocks, assigns contiguous runs of blocks to up to
/// `par.threads()` chunks, and calls `fill(start, &mut out[start..])` once
/// per block. Because every block writes directly into its own disjoint
/// region of `out`, there is no per-block allocation and no reduction
/// copy. This is the one engine: compiled batch prediction fills rows with
/// it, and [`try_par_map`] fills one result per block.
///
/// Block → output mapping is positional, so the contents of `out` are
/// bit-identical at any [`Parallelism`] setting (for a `fill` free of
/// shared mutable state). Zero or one block, a one-thread budget, and a
/// section nested inside a pool worker all run serially on the calling
/// thread without touching the pool.
///
/// `cancel`, when given, is consulted before every block on every worker,
/// so a fired token (explicit [`CancelToken::cancel`] or an expired
/// deadline) stops the section within one block's worth of work per
/// thread; an empty `out` succeeds even under a fired token. Panics inside
/// `fill` are caught per block and reported with the lowest panicking
/// *block index*. On error, `out` contents are unspecified (some blocks
/// written, others not) — callers must discard the buffer.
///
/// # Errors
///
/// [`LinalgError::Cancelled`] when the token fires before the last block
/// completes; [`LinalgError::WorkerPanic`] (lowest block index, with the
/// panic message) when `fill` panics. A panic outranks concurrent
/// cancellation, deterministically.
///
/// # Example
///
/// ```
/// use mtperf_linalg::parallel::{try_par_fill, CancelToken, Parallelism};
/// use mtperf_linalg::LinalgError;
///
/// let mut out = vec![0u64; 10];
/// try_par_fill(Parallelism::Fixed(3), &mut out, 4, None, |start, block| {
///     for (i, v) in block.iter_mut().enumerate() {
///         *v = (start + i) as u64 * 2;
///     }
/// })
/// .unwrap();
/// assert_eq!(out, (0..10).map(|i| i * 2).collect::<Vec<u64>>());
///
/// // A fired token stops the section before any block runs.
/// let token = CancelToken::new();
/// token.cancel();
/// let err = try_par_fill(Parallelism::Fixed(3), &mut out, 4, Some(&token), |_, _| {});
/// assert_eq!(err, Err(LinalgError::Cancelled));
/// ```
pub fn try_par_fill<R, F>(
    par: Parallelism,
    out: &mut [R],
    block: usize,
    cancel: Option<&CancelToken>,
    fill: F,
) -> Result<(), LinalgError>
where
    R: Send,
    F: Fn(usize, &mut [R]) + Sync,
{
    let block = block.max(1);
    let n_blocks = out.len().div_ceil(block);

    // Runs the blocks of `span`, whose first block is `first_block`.
    let run_span = |first_block: usize, span: &mut [R]| -> Result<(), LinalgError> {
        for (b, rows) in (first_block..).zip(span.chunks_mut(block)) {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return Err(LinalgError::Cancelled);
            }
            catch_unwind(AssertUnwindSafe(|| fill(b * block, rows))).map_err(|payload| {
                LinalgError::WorkerPanic {
                    index: b,
                    message: panic_message(payload.as_ref()),
                }
            })?;
        }
        Ok(())
    };

    let threads = par.threads().min(n_blocks);
    if threads <= 1 || IN_PARALLEL.with(Cell::get) {
        return run_span(0, out);
    }

    // Near-equal contiguous runs of blocks per chunk; the first `rem`
    // chunks get one extra block. Chunk `c` knows its first block and
    // holds its slice of `out` (taken by whichever thread runs the chunk),
    // then the chunk's outcome.
    let base = n_blocks / threads;
    let rem = n_blocks % threads;
    let mut chunks = Vec::with_capacity(threads);
    let mut rest = out;
    let mut first_block = 0;
    for c in 0..threads {
        let blocks = base + usize::from(c < rem);
        let (span, tail) = rest.split_at_mut(rest.len().min(blocks * block));
        rest = tail;
        chunks.push((first_block, Mutex::new((Some(span), None))));
        first_block += blocks;
    }
    debug_assert_eq!(first_block, n_blocks);
    debug_assert!(rest.is_empty());

    // Capture the caller's span context (if tracing is on) so spans opened
    // inside worker closures nest under the span that dispatched the
    // section. `None` when tracing is disabled: workers then run the
    // closure directly. Re-installing the same frame on the calling thread
    // (chunk 0) is harmless — span ids hash the logical call path, so the
    // extra frame changes nothing.
    let obs_ctx = mtperf_obs::current_context();
    pool::run_chunked(threads, &|c: usize| {
        let (first_block, slot) = &chunks[c];
        let mut slot = lock(slot);
        if let Some(span) = slot.0.take() {
            slot.1 = Some(mtperf_obs::in_context(obs_ctx.as_ref(), || {
                with_parallel_flag(|| run_span(*first_block, span))
            }));
        }
    });

    // Deterministic reduction in chunk order, which is block order: the
    // first panic found has the lowest block index whichever worker
    // finished first, and a panic anywhere outranks cancellation (the
    // panic names a concrete defect, cancellation is just the controller
    // giving up). A chunk without an outcome (its worker died outside the
    // per-block guard) reports as a panic on its first block.
    let mut cancelled = false;
    for (first_block, slot) in chunks {
        match slot.into_inner().unwrap_or_else(PoisonError::into_inner).1 {
            Some(Ok(())) => {}
            Some(Err(LinalgError::Cancelled)) => cancelled = true,
            Some(Err(panic)) => return Err(panic),
            None => {
                return Err(LinalgError::WorkerPanic {
                    index: first_block,
                    message: "worker terminated without reporting a result".to_string(),
                })
            }
        }
    }
    if cancelled {
        Err(LinalgError::Cancelled)
    } else {
        Ok(())
    }
}

/// Starts the worker pool for the current global thread budget and
/// measures the dispatch overhead, so the first real parallel section
/// (e.g. the first request a serving daemon answers) pays neither lazy
/// thread spawn nor calibration cost.
pub fn warm_up() {
    let threads = global().threads();
    if threads > 1 {
        pool::ensure_workers(threads - 1);
        let _ = dispatch_overhead();
    }
}

/// Measured round-trip cost of dispatching one multi-chunk job through
/// the pool (median of several no-op dispatches; measured once per
/// process, [`Duration::ZERO`] before the pool is ever used in a
/// single-threaded configuration). This is the constant the adaptive
/// serial/parallel cutover in compiled batch prediction weighs against
/// measured per-row compute cost — a measured number, not a guess.
pub fn dispatch_overhead() -> Duration {
    static OVERHEAD: OnceLock<Duration> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        // Representative fan-out: 4 chunks (or the machine width if
        // smaller). One throwaway dispatch warms lazy worker spawn so the
        // measured samples see the steady state.
        let chunks = global().threads().clamp(2, 4);
        pool::ensure_workers(chunks - 1);
        pool::run_chunked(chunks, &|_| {});
        let mut samples: Vec<Duration> = (0..9)
            .map(|_| {
                let t0 = clock::now();
                pool::run_chunked(chunks, &|c| {
                    std::hint::black_box(c);
                });
                clock::now().saturating_sub(t0)
            })
            .collect();
        samples.sort();
        samples[samples.len() / 2]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_at_any_thread_count() {
        // Fewer items than threads, and a long input that splits unevenly.
        for n in [2usize, 5, 7, 1000] {
            let items: Vec<usize> = (0..n).collect();
            let serial: Vec<usize> = items.iter().map(|&x| x * 3).collect();
            for par in [Parallelism::Auto, Parallelism::Off]
                .into_iter()
                .chain([1, 2, 3, 4, 7, 16].map(Parallelism::Fixed))
            {
                let got = try_par_map(par, &items, |&x| x * 3).unwrap();
                assert_eq!(got, serial, "n = {n}, par = {par}");
            }
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(try_par_map(Parallelism::Auto, &empty, |&x| x)
            .unwrap()
            .is_empty());
        assert_eq!(
            try_par_map(Parallelism::Fixed(8), &[5u32], |&x| x + 1).unwrap(),
            vec![6]
        );
    }

    #[test]
    fn par_fill_matches_serial_at_any_thread_count_and_block_size() {
        let n = 1003; // deliberately not a multiple of any block size
        let mut serial = vec![0.0f64; n];
        try_par_fill(Parallelism::Off, &mut serial, 64, None, |start, block| {
            for (i, v) in block.iter_mut().enumerate() {
                *v = ((start + i) as f64).sqrt().sin();
            }
        })
        .unwrap();
        for threads in [2usize, 3, 7, 16] {
            for block in [1usize, 64, 512, 4096] {
                let mut out = vec![0.0f64; n];
                try_par_fill(
                    Parallelism::Fixed(threads),
                    &mut out,
                    block,
                    None,
                    |start, blk| {
                        for (i, v) in blk.iter_mut().enumerate() {
                            *v = ((start + i) as f64).sqrt().sin();
                        }
                    },
                )
                .unwrap();
                for (i, (a, b)) in out.iter().zip(&serial).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "threads {threads}, block {block}, row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn par_fill_panic_reports_lowest_block_index() {
        for threads in [1usize, 2, 7] {
            let mut out = vec![0u32; 1000];
            let err = try_par_fill(
                Parallelism::Fixed(threads),
                &mut out,
                10,
                None,
                |start, _block| {
                    assert!(!(30..700).contains(&start), "fill boom");
                },
            )
            .unwrap_err();
            let LinalgError::WorkerPanic { index, message } = err else {
                panic!("wrong variant");
            };
            assert_eq!(index, 3, "threads = {threads}"); // block 3 starts at row 30
            assert!(message.contains("fill boom"), "{message}");
        }
    }

    #[test]
    fn par_fill_cancellation_and_empty_output() {
        let token = CancelToken::new();
        token.cancel();
        let mut out = vec![0u8; 100];
        let err = try_par_fill(Parallelism::Fixed(4), &mut out, 8, Some(&token), |_, _| {});
        assert!(matches!(err, Err(LinalgError::Cancelled)));
        // Empty output: trivially done, even with a fired token.
        let mut empty: [u8; 0] = [];
        try_par_fill(
            Parallelism::Fixed(4),
            &mut empty,
            8,
            Some(&token),
            |_, _| {},
        )
        .unwrap();
    }

    #[test]
    fn dispatch_overhead_is_measured_once_and_small() {
        let a = dispatch_overhead();
        let b = dispatch_overhead();
        assert_eq!(a, b, "memoized");
        assert!(a < Duration::from_millis(100), "{a:?}");
        warm_up(); // must be callable at any time, any thread budget
    }

    #[test]
    fn nested_calls_run_serially_and_correctly() {
        let outer: Vec<usize> = (0..8).collect();
        let got = try_par_map(Parallelism::Fixed(4), &outer, |&i| {
            let inner: Vec<usize> = (0..4).collect();
            try_par_map(Parallelism::Fixed(4), &inner, move |&j| i * 10 + j).unwrap()
        })
        .unwrap();
        for (i, row) in got.iter().enumerate() {
            assert_eq!(row, &vec![i * 10, i * 10 + 1, i * 10 + 2, i * 10 + 3]);
        }
    }

    #[test]
    fn try_par_map_matches_serial_loop_on_clean_runs() {
        let items: Vec<usize> = (0..500).collect();
        let plain: Vec<f64> = items.iter().map(|&x| (x as f64).sqrt()).collect();
        for threads in [1, 2, 3, 8] {
            let tried =
                try_par_map(Parallelism::Fixed(threads), &items, |&x| (x as f64).sqrt()).unwrap();
            assert_eq!(tried.len(), plain.len());
            for (a, b) in tried.iter().zip(plain.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads = {threads}");
            }
        }
    }

    #[test]
    fn panicking_closure_returns_error_instead_of_unwinding() {
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 2, 4, 8] {
            let err = try_par_map(Parallelism::Fixed(threads), &items, |&x| {
                assert!(x != 17, "deliberate failure");
                x
            })
            .unwrap_err();
            match err {
                LinalgError::WorkerPanic { index, message } => {
                    assert_eq!(index, 17, "threads = {threads}");
                    assert!(message.contains("deliberate failure"), "{message}");
                }
                other => panic!("unexpected error: {other}"),
            }
        }
    }

    #[test]
    fn first_panic_index_is_deterministic_across_thread_counts() {
        // Multiple failing items: the reported index must always be the
        // lowest one, no matter how chunks are scheduled.
        let items: Vec<usize> = (0..100).collect();
        for threads in [2, 3, 7, 16] {
            let err = try_par_map(Parallelism::Fixed(threads), &items, |&x| {
                assert!(!(x >= 23 && x % 3 == 2), "multi-fail");
                x
            })
            .unwrap_err();
            let LinalgError::WorkerPanic { index, .. } = err else {
                panic!("wrong variant");
            };
            assert_eq!(index, 23, "threads = {threads}");
        }
    }

    #[test]
    fn non_string_panic_payload_is_reported() {
        let err = try_par_map(Parallelism::Off, &[1u32], |_| {
            std::panic::panic_any(42u32);
            #[allow(unreachable_code)]
            0u32
        })
        .unwrap_err();
        let LinalgError::WorkerPanic { message, .. } = err else {
            panic!("wrong variant");
        };
        assert!(message.contains("non-string"), "{message}");
    }

    /// `try_par_fill` under `token` with one item per block: slot `i`
    /// receives `f(i)`.
    fn fill_each(
        threads: usize,
        n: usize,
        token: &CancelToken,
        f: impl Fn(usize) -> usize + Sync,
    ) -> Result<Vec<usize>, LinalgError> {
        let mut out = vec![0; n];
        try_par_fill(
            Parallelism::Fixed(threads),
            &mut out,
            1,
            Some(token),
            |i, slot| slot[0] = f(i),
        )?;
        Ok(out)
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_work() {
        let token = CancelToken::new();
        token.cancel();
        for threads in [1, 2, 8] {
            let err = fill_each(threads, 100, &token, |x| x * 2).unwrap_err();
            assert!(matches!(err, LinalgError::Cancelled), "threads = {threads}");
        }
    }

    #[test]
    fn expired_deadline_cancels() {
        let token = CancelToken::with_deadline(Duration::ZERO);
        let err = fill_each(4, 50, &token, |x| x).unwrap_err();
        assert!(matches!(err, LinalgError::Cancelled));
    }

    #[test]
    fn future_deadline_lets_work_complete() {
        let token = CancelToken::with_deadline(Duration::from_secs(3600));
        let got = fill_each(4, 64, &token, |x| x + 1).unwrap();
        assert_eq!(got, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn mid_run_cancel_from_another_thread_stops_the_section() {
        let token = CancelToken::new();
        let witness = token.clone();
        let err = fill_each(2, 10_000, &token, |x| {
            if x == 5 {
                witness.cancel();
            }
            x
        })
        .unwrap_err();
        assert!(matches!(err, LinalgError::Cancelled));
    }

    #[test]
    fn worker_panic_outranks_cancellation() {
        // One item panics, another cancels: the panic must win so the defect
        // is reported, at any thread count.
        for threads in [1, 2, 8] {
            let token = CancelToken::new();
            let witness = token.clone();
            let err = fill_each(threads, 64, &token, |x| {
                assert!(x != 0, "defect first");
                if x == 1 {
                    witness.cancel();
                }
                x
            })
            .unwrap_err();
            assert!(
                matches!(err, LinalgError::WorkerPanic { index: 0, .. }),
                "threads = {threads}: {err}"
            );
        }
    }

    #[test]
    fn cancel_token_clones_share_state() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
        assert!(a.deadline().is_none());
        assert!(CancelToken::with_deadline(Duration::from_secs(1))
            .deadline()
            .is_some());
    }

    #[test]
    fn parallelism_parses_and_displays() {
        assert_eq!("auto".parse::<Parallelism>().unwrap(), Parallelism::Auto);
        assert_eq!("off".parse::<Parallelism>().unwrap(), Parallelism::Off);
        assert_eq!("6".parse::<Parallelism>().unwrap(), Parallelism::Fixed(6));
        assert!("0".parse::<Parallelism>().is_err());
        assert!("fast".parse::<Parallelism>().is_err());
        for p in [Parallelism::Auto, Parallelism::Off, Parallelism::Fixed(3)] {
            assert_eq!(p.to_string().parse::<Parallelism>().unwrap(), p);
        }
    }

    #[test]
    fn global_default_round_trips() {
        let original = global();
        for p in [Parallelism::Off, Parallelism::Fixed(5), Parallelism::Auto] {
            set_global(p);
            assert_eq!(global(), p);
        }
        set_global(original);
    }

    #[test]
    fn threads_resolves_sensibly() {
        assert_eq!(Parallelism::Off.threads(), 1);
        assert_eq!(Parallelism::Fixed(3).threads(), 3);
        assert_eq!(Parallelism::Fixed(0).threads(), 1);
        assert!(Parallelism::Auto.threads() >= 1);
    }
}
