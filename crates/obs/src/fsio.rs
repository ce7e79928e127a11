//! Crash-safe file plumbing shared across the workspace: atomic writes,
//! bounded retry for transient I/O, and the FNV-1a content hash.
//!
//! This lives in `mtperf-obs` because it is the one crate every other crate
//! already depends on, and because retries are *observable events*: each one
//! increments the `io.retries` counter in the global registry, so an
//! end-of-run metrics dump shows how flaky the underlying filesystem or
//! socket was.
//!
//! # Atomic-save contract
//!
//! [`atomic_write`] never exposes a partially written file at the
//! destination path. It writes a temporary file *in the destination
//! directory* (so the final rename cannot cross filesystems), fsyncs the
//! file, renames it over the destination, then fsyncs the directory so the
//! rename itself survives power loss. A reader — or a process restarted
//! after `kill -9` — therefore sees either the complete old content or the
//! complete new content, never a torn mix or a truncation.

use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::time::Duration;

use mtperf_detsim::fs::{check, FsOp};
use mtperf_detsim::{clock, rng};

/// Whether `e` is a transient failure worth retrying: the EINTR/EAGAIN
/// class (a signal interrupted the syscall, or a non-blocking resource was
/// momentarily busy).
pub fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Bounded backoff base schedule: at most four retries, with base delays of
/// 1, 2, 4, then 8 ms. Each attempt adds up to one base-delay of jitter
/// (see [`backoff_delay`]).
const BACKOFF_MS: [u64; 4] = [1, 2, 4, 8];

/// The delay before retry number `attempt` (0-based): the base schedule
/// plus uniform jitter in `[0, base)`, drawn from the global randomness
/// seam. In production the jitter source is entropy-seeded, decorrelating
/// concurrent retriers; under a simulator it is a seeded stream, so the
/// whole schedule replays from one seed.
fn backoff_delay(attempt: usize) -> Duration {
    let base_us = BACKOFF_MS[attempt] * 1000;
    let jitter_us = rng::global_next_u64() % base_us;
    Duration::from_micros(base_us + jitter_us)
}

/// Runs `op`, retrying transient failures ([`is_transient`]) up to four
/// times with the jittered 1/2/4/8 ms backoff schedule (`backoff_delay`).
/// Non-transient errors and the final transient error propagate unchanged.
///
/// Sleeps go through the global clock seam, so under a virtual clock the
/// full schedule completes without wall-clock delay. Every retry increments
/// the global `io.retries` counter (and a per-site `io.retries.<what>`
/// counter) in the metrics registry.
///
/// # Errors
///
/// Returns the last error from `op` once retries are exhausted, or the
/// first non-transient error immediately.
pub fn with_retry<R>(what: &str, mut op: impl FnMut() -> io::Result<R>) -> io::Result<R> {
    let mut attempt = 0usize;
    loop {
        match op() {
            Ok(r) => return Ok(r),
            Err(e) if attempt < BACKOFF_MS.len() && is_transient(&e) => {
                crate::add("io.retries", 1);
                crate::add(&format!("io.retries.{what}"), 1);
                clock::sleep(backoff_delay(attempt));
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// The sibling temp path `atomic_write` stages into: `.<name>.tmp.<pid>` in
/// the destination directory. Exposed so crash tests can assert no stale
/// staging files survive.
pub fn staging_path(path: &Path) -> io::Result<PathBuf> {
    let name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("not a writable file path: {}", path.display()),
        )
    })?;
    Ok(parent_dir(path).join(format!(
        ".{}.tmp.{}",
        name.to_string_lossy(),
        std::process::id()
    )))
}

/// The containing directory of `path` (`.` when the path is bare).
fn parent_dir(path: &Path) -> PathBuf {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    }
}

/// Flushes directory metadata so a completed rename survives power loss.
/// Best-effort on platforms where directories cannot be opened as files.
fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

/// Writes `contents` to `path` atomically: temp file in the destination
/// directory, fsync, rename over `path`, fsync the directory. A crash at
/// any point leaves either the old file or the new file — never a torn one.
///
/// The whole sequence runs under [`with_retry`], so EINTR-class hiccups are
/// absorbed; each fresh attempt restarts from an empty temp file (the temp
/// file is created with truncation), so retries cannot duplicate content.
///
/// # Errors
///
/// Propagates the underlying I/O error after retries; the temp file is
/// removed on failure.
/// Every step consults the simulation fault hook ([`mtperf_detsim::fs`])
/// first — a no-op single atomic load in production — so torn-save and
/// retry-exhaustion paths are drivable from a seeded script.
pub fn atomic_write(path: impl AsRef<Path>, contents: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let tmp = staging_path(path)?;
    let dir = parent_dir(path);
    let result = with_retry("atomic_write", || {
        check(FsOp::Write, &tmp)?;
        let mut f = File::create(&tmp)?;
        f.write_all(contents)?;
        check(FsOp::Sync, &tmp)?;
        f.sync_all()?;
        drop(f);
        check(FsOp::Rename, path)?;
        fs::rename(&tmp, path)?;
        check(FsOp::Sync, &dir)?;
        sync_dir(&dir)
    });
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Reads a file through the simulation fault hook: [`fs::read`] with a
/// [`check`] first, under [`with_retry`]. The seam-aware read path for
/// model loads and artifact round-trips.
///
/// # Errors
///
/// Propagates the underlying (or injected) I/O error after retries.
pub fn read(path: impl AsRef<Path>) -> io::Result<Vec<u8>> {
    let path = path.as_ref();
    with_retry("read", || {
        check(FsOp::Read, path)?;
        fs::read(path)
    })
}

/// Removes a file through the simulation fault hook: [`check`] with
/// [`FsOp::Remove`] first, under [`with_retry`]. The seam-aware deletion
/// path for garbage-collecting unreferenced model artifacts.
///
/// # Errors
///
/// Propagates the underlying (or injected) I/O error after retries.
pub fn remove_file(path: impl AsRef<Path>) -> io::Result<()> {
    let path = path.as_ref();
    with_retry("remove_file", || {
        check(FsOp::Remove, path)?;
        fs::remove_file(path)
    })
}

/// 64-bit FNV-1a over `bytes` — the workspace's content-checksum function
/// (same family as the span-identity hash in [`crate::span`]).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn transient_classification() {
        assert!(is_transient(&io::Error::new(
            io::ErrorKind::Interrupted,
            "eintr"
        )));
        assert!(is_transient(&io::Error::new(
            io::ErrorKind::WouldBlock,
            "eagain"
        )));
        assert!(!is_transient(&io::Error::new(
            io::ErrorKind::NotFound,
            "gone"
        )));
    }

    #[test]
    fn retry_absorbs_transient_then_succeeds() {
        let calls = AtomicUsize::new(0);
        let got = with_retry("test", || {
            if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(io::Error::new(io::ErrorKind::Interrupted, "eintr"))
            } else {
                Ok(7)
            }
        })
        .unwrap();
        assert_eq!(got, 7);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn retry_gives_up_after_schedule() {
        let calls = AtomicUsize::new(0);
        let err = with_retry("test", || -> io::Result<()> {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(io::Error::new(io::ErrorKind::WouldBlock, "busy"))
        })
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        // Initial attempt plus the four scheduled retries.
        assert_eq!(calls.load(Ordering::SeqCst), 1 + 4);
    }

    #[test]
    fn non_transient_fails_fast() {
        let calls = AtomicUsize::new(0);
        let err = with_retry("test", || -> io::Result<()> {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(io::Error::new(io::ErrorKind::PermissionDenied, "no"))
        })
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    /// Serializes tests that install process-global seams (clock/rng/fs
    /// overrides), so parallel test threads cannot clobber each other's
    /// installed hooks.
    static SEAM_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn seam_guard() -> std::sync::MutexGuard<'static, ()> {
        SEAM_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A virtual clock that records only the installing thread's sleeps,
    /// so parallel tests whose retries also hit the global seam cannot
    /// perturb the recorded schedule.
    #[derive(Debug)]
    struct RecordingClock {
        owner: std::thread::ThreadId,
        sleeps: std::sync::Mutex<Vec<Duration>>,
    }

    impl mtperf_detsim::Clock for RecordingClock {
        fn now(&self) -> Duration {
            self.sleeps.lock().unwrap().iter().sum()
        }

        fn sleep(&self, d: Duration) {
            if std::thread::current().id() == self.owner {
                self.sleeps.lock().unwrap().push(d);
            }
        }
    }

    #[test]
    fn retry_schedule_runs_under_virtual_time_with_bounded_jitter() {
        use std::sync::Arc;
        let _seams = seam_guard();
        let clock = Arc::new(RecordingClock {
            owner: std::thread::current().id(),
            sleeps: std::sync::Mutex::new(Vec::new()),
        });
        mtperf_detsim::clock::install(clock.clone());
        mtperf_detsim::rng::install(Arc::new(mtperf_detsim::SimRng::seed_from_u64(99)));
        let wall = std::time::Instant::now();
        let calls = AtomicUsize::new(0);
        let err = with_retry("vtime", || -> io::Result<()> {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(io::Error::new(io::ErrorKind::TimedOut, "busy"))
        })
        .unwrap_err();
        mtperf_detsim::clock::uninstall();
        mtperf_detsim::rng::uninstall();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert_eq!(calls.load(Ordering::SeqCst), 1 + 4);
        // The full 4-step ladder ran without wall-clock sleeping.
        assert!(
            wall.elapsed() < Duration::from_millis(500),
            "took {:?} of real time",
            wall.elapsed()
        );
        let sleeps = clock.sleeps.lock().unwrap().clone();
        assert_eq!(sleeps.len(), 4);
        for (i, (&base_ms, &slept)) in BACKOFF_MS.iter().zip(&sleeps).enumerate() {
            let base = Duration::from_millis(base_ms);
            assert!(
                slept >= base && slept < base * 2,
                "retry {i}: slept {slept:?}, base {base:?} (jitter must be in [0, base))"
            );
        }
    }

    #[test]
    fn atomic_write_respects_injected_faults() {
        let _seams = seam_guard();
        let dir = std::env::temp_dir().join("mtperf-fsio-fault-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("faulted.txt");
        atomic_write(&path, b"before").unwrap();

        let script = std::sync::Arc::new(mtperf_detsim::FaultScript::new());
        // Permanent failure on the rename (commit) step: the write must
        // fail, the destination must keep the old content, and the staging
        // file must be cleaned up — the torn-save contract.
        script.fail_always(
            Some(mtperf_detsim::FsOp::Rename),
            "faulted.txt",
            io::ErrorKind::PermissionDenied,
        );
        mtperf_detsim::fs::install(script.clone());
        let err = atomic_write(&path, b"after").unwrap_err();
        mtperf_detsim::fs::uninstall();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        assert_eq!(fs::read(&path).unwrap(), b"before", "destination intact");
        assert!(!staging_path(&path).unwrap().exists(), "staging cleaned up");

        // Transient faults on the write step are absorbed by the retry
        // ladder and the write still lands.
        script.clear();
        script.fail_times(
            Some(mtperf_detsim::FsOp::Write),
            "faulted.txt",
            io::ErrorKind::Interrupted,
            2,
        );
        mtperf_detsim::fs::install(script.clone());
        atomic_write(&path, b"after").unwrap();
        mtperf_detsim::fs::uninstall();
        assert_eq!(fs::read(&path).unwrap(), b"after");
        assert_eq!(script.injected(), 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seam_read_round_trips_and_faults() {
        let _seams = seam_guard();
        let dir = std::env::temp_dir().join("mtperf-fsio-read-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.txt");
        atomic_write(&path, b"payload").unwrap();
        assert_eq!(read(&path).unwrap(), b"payload");
        let script = std::sync::Arc::new(mtperf_detsim::FaultScript::new());
        script.fail_always(
            Some(mtperf_detsim::FsOp::Read),
            "data.txt",
            io::ErrorKind::NotFound,
        );
        mtperf_detsim::fs::install(script);
        let err = read(&path).unwrap_err();
        mtperf_detsim::fs::uninstall();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join("mtperf-fsio-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file.txt");
        atomic_write(&path, b"one").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"one");
        atomic_write(&path, b"two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two");
        assert!(!staging_path(&path).unwrap().exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_rejects_directory_target() {
        let err = atomic_write(Path::new("/"), b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
        // Sensitivity: one flipped bit changes the hash.
        assert_ne!(fnv1a_64(b"foobar"), fnv1a_64(b"foobas"));
    }
}
