//! The filesystem seam: a process-global fault script consulted before disk
//! operations.
//!
//! `obs::fsio` (and through it, engine save/reload) calls [`check`] with
//! the operation and path before touching the real filesystem. With no
//! script installed that is one relaxed atomic load — production code never
//! sees a simulated error. With a [`FaultScript`] installed, transient and
//! permanent I/O errors become part of the test input: "the third write to
//! the model artifact fails with `Interrupted`, twice" is a scripted rule,
//! not a race you hope to hit.
//!
//! A torn save (`kill -9` mid-write) is modeled as a permanent fault on
//! the staging file's write or rename: `atomic_write`'s contract says the
//! destination must remain intact, and the simulation asserts exactly
//! that, then "restarts" by reopening the engine from the untouched
//! artifact.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// The filesystem operations the seam distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsOp {
    /// Reading a file's contents.
    Read,
    /// Creating or writing a file (including staging files).
    Write,
    /// Renaming (the commit step of an atomic write).
    Rename,
    /// fsync of a file or directory.
    Sync,
    /// Removing a file.
    Remove,
}

/// One scripted failure rule.
#[derive(Debug)]
struct Rule {
    op: Option<FsOp>,
    path_contains: String,
    kind: io::ErrorKind,
    /// How many more times this rule fires; `u64::MAX` means permanent.
    remaining: u64,
}

/// Decides whether a filesystem operation fails, and how: explicit rules
/// matched in order, so a seeded script replays exactly.
#[derive(Debug, Default)]
pub struct FaultScript {
    rules: Mutex<Vec<Rule>>,
    injected: AtomicU64,
}

impl FaultScript {
    /// An empty script (no faults until rules are added).
    pub fn new() -> FaultScript {
        FaultScript::default()
    }

    /// Fails the next `times` operations matching `op` (or any op when
    /// `None`) on paths containing `path_contains`, with `kind`.
    pub fn fail_times(
        &self,
        op: Option<FsOp>,
        path_contains: &str,
        kind: io::ErrorKind,
        times: u64,
    ) {
        self.rules
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Rule {
                op,
                path_contains: path_contains.to_string(),
                kind,
                remaining: times,
            });
    }

    /// Permanently fails matching operations until the script is cleared.
    pub fn fail_always(&self, op: Option<FsOp>, path_contains: &str, kind: io::ErrorKind) {
        self.fail_times(op, path_contains, kind, u64::MAX);
    }

    /// Removes every rule.
    pub fn clear(&self) {
        self.rules
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// How many faults this script has injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Returns the error this operation should fail with, or `None` to let
    /// it proceed normally.
    fn fault(&self, op: FsOp, path: &Path) -> Option<io::Error> {
        let path_str = path.to_string_lossy();
        let mut rules = self.rules.lock().unwrap_or_else(PoisonError::into_inner);
        for rule in rules.iter_mut() {
            let op_match = rule.op.is_none_or(|o| o == op);
            if op_match && rule.remaining > 0 && path_str.contains(&rule.path_contains) {
                if rule.remaining != u64::MAX {
                    rule.remaining -= 1;
                }
                self.injected.fetch_add(1, Ordering::Relaxed);
                // Name the rule's selector, not the live path: staging
                // paths embed the PID, and this message reaches client-
                // visible error responses — a replayed seed must produce
                // byte-identical output across processes.
                return Some(io::Error::new(
                    rule.kind,
                    format!("sim fault: {op:?} on {}", rule.path_contains),
                ));
            }
        }
        rules.retain(|r| r.remaining > 0);
        None
    }
}

/// Set when a fault script is installed; production's fast path is one
/// relaxed load and no further work.
static OVERRIDDEN: AtomicBool = AtomicBool::new(false);
static OVERRIDE: Mutex<Option<Arc<FaultScript>>> = Mutex::new(None);

/// Installs `script` as the process-global filesystem fault source.
/// Process-wide; intended for simulation harnesses and dedicated test
/// binaries.
pub fn install(script: Arc<FaultScript>) {
    let mut slot = OVERRIDE.lock().unwrap_or_else(PoisonError::into_inner);
    *slot = Some(script);
    OVERRIDDEN.store(true, Ordering::Release);
}

/// Removes any installed script; filesystem operations proceed unimpeded.
pub fn uninstall() {
    OVERRIDDEN.store(false, Ordering::Release);
    let mut slot = OVERRIDE.lock().unwrap_or_else(PoisonError::into_inner);
    *slot = None;
}

/// Consults the installed script (if any) before a filesystem operation.
/// Seam-aware I/O calls this first and propagates the error as if the OS
/// had returned it.
pub fn check(op: FsOp, path: &Path) -> io::Result<()> {
    if !OVERRIDDEN.load(Ordering::Acquire) {
        return Ok(());
    }
    let script = OVERRIDE
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    match script.and_then(|s| s.fault(op, path)) {
        Some(err) => Err(err),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn empty_script_passes_everything() {
        let script = FaultScript::new();
        let p = PathBuf::from("/tmp/model.bin");
        assert!(script.fault(FsOp::Write, &p).is_none());
        assert_eq!(script.injected(), 0);
    }

    #[test]
    fn fail_times_counts_down_and_expires() {
        let script = FaultScript::new();
        let p = PathBuf::from("/data/model.bin.tmp.123");
        script.fail_times(Some(FsOp::Write), ".tmp", io::ErrorKind::Interrupted, 2);
        assert_eq!(
            script.fault(FsOp::Write, &p).unwrap().kind(),
            io::ErrorKind::Interrupted
        );
        assert!(script.fault(FsOp::Read, &p).is_none(), "op filter holds");
        assert!(script.fault(FsOp::Write, &p).is_some());
        assert!(script.fault(FsOp::Write, &p).is_none(), "rule exhausted");
        assert_eq!(script.injected(), 2);
    }

    #[test]
    fn fail_always_persists_until_clear() {
        let script = FaultScript::new();
        let p = PathBuf::from("/data/model.bin");
        script.fail_always(None, "model.bin", io::ErrorKind::PermissionDenied);
        for _ in 0..5 {
            assert!(script.fault(FsOp::Rename, &p).is_some());
        }
        script.clear();
        assert!(script.fault(FsOp::Rename, &p).is_none());
    }

    #[test]
    fn fault_messages_are_path_independent() {
        // Staging paths embed the PID; if it leaked into the message, a
        // replayed seed would produce different client-visible bytes in a
        // fresh process and the trace fingerprint would never match.
        let script = FaultScript::new();
        script.fail_times(
            Some(FsOp::Write),
            "model.json",
            io::ErrorKind::Interrupted,
            2,
        );
        let a = script
            .fault(FsOp::Write, &PathBuf::from("/tmp/d1/.model.json.tmp.111"))
            .unwrap();
        let b = script
            .fault(FsOp::Write, &PathBuf::from("/run/d2/.model.json.tmp.999"))
            .unwrap();
        assert_eq!(a.to_string(), b.to_string());
        assert_eq!(a.to_string(), "sim fault: Write on model.json");
    }

    #[test]
    fn global_seam_defaults_open_and_swaps() {
        let p = PathBuf::from("/anything");
        assert!(check(FsOp::Write, &p).is_ok());
        let script = Arc::new(FaultScript::new());
        script.fail_times(None, "anything", io::ErrorKind::TimedOut, 1);
        install(script.clone());
        assert_eq!(
            check(FsOp::Write, &p).unwrap_err().kind(),
            io::ErrorKind::TimedOut
        );
        assert!(check(FsOp::Write, &p).is_ok());
        uninstall();
        assert!(check(FsOp::Write, &p).is_ok());
    }
}
