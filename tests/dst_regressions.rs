//! Minimized, named DST regression scenarios.
//!
//! Each test pins one **mined seed** — found by sweeping `mtperf dst
//! --seeds` and inspecting the replay traces for the scenario of interest
//! — together with the trace fingerprint that seed produced when it was
//! mined. The serve seeds pin the `dst seed=…` line `mtperf dst` prints,
//! the fleet seed its `dst fleet seed=…` line. The fingerprint was
//! recorded from a *separate process* (the `mtperf dst` CLI), so a
//! matching assertion here is a cross-process byte-identical replay, not a
//! same-process memoization artifact.
//!
//! If a code change alters one of these fingerprints, that is not
//! automatically a bug — it means the simulated schedule observably
//! changed. Re-mine with `mtperf dst --seed <seed> --sessions <sessions>
//! --trace-dir <dir>`, diff the trace against the invariants by eye, and
//! update the constant **in the same commit** with a note of what moved.

use mtperf::serve::dst::{run_sim, SimConfig};
use mtperf::serve::fleet::dst::{run_fleet_sim, FleetSimConfig};

/// Seed 100 @ 60 sessions. Mined 2026-08-08 from a `--seeds 12` sweep.
///
/// Why this seed: its very first session (`s=0` in the trace) is a
/// multi-connection session driving **3 interleaved connections with 3
/// promotes racing in-flight predicts** — the headline scenario for the
/// multi-tenant registry. The full run also covers per-tenant quota
/// refusals (72), cache hits (67), and 20 drain/crash restarts.
const SEED_PROMOTE_RACE: u64 = 100;
const SESSIONS_PROMOTE_RACE: usize = 60;
// Re-mined 2026-08-08: the health payload grew per-model degradation
// rows (fleet health merge), changing health-response bytes and hence
// every out_hash. Same seed, same schedule, same invariants.
const FINGERPRINT_PROMOTE_RACE: u64 = 0x56bb_dbfb_8c21_46dd;

/// Seed 105 @ 60 sessions. Mined 2026-08-08 from the same sweep.
///
/// Why this seed: the heaviest fault mix of the sweep — 32 injected fs
/// faults (including manifest-save failures under promote), 23 restarts,
/// and a 4-connection session (`s=43`) that **crashes mid-flight with 2
/// promotes issued**, forcing the last-known-good recovery path through
/// `Registry::open` on a manifest written under fire.
const SEED_MANIFEST_FAULTS: u64 = 105;
const SESSIONS_MANIFEST_FAULTS: usize = 60;
// Re-mined 2026-08-08 alongside SEED 100: per-model health rows moved
// the health-response bytes.
const FINGERPRINT_MANIFEST_FAULTS: u64 = 0x9bc5_36da_39ce_d4d2;

/// Fleet seed 7 @ 60 sessions, the `dst fleet` line of `mtperf dst --seed
/// 7 --sessions 60`. Mined 2026-10-17.
///
/// Why this seed: the fleet router draws replica picks and retry jitter
/// from the rng seam and times hedges and deadlines on the clock seam, so
/// a change to either seam moves this fingerprint. The run kills replicas
/// (11), hedges predicts (14), fails over (6) and injects registry fs
/// faults (3).
const SEED_FLEET: u64 = 7;
const SESSIONS_FLEET: usize = 60;
const FINGERPRINT_FLEET: u64 = 0x5a22_8ad5_36a7_d22f;

#[test]
fn promote_race_seed_replays_to_its_mined_fingerprint() {
    let report = run_sim(&SimConfig {
        seed: SEED_PROMOTE_RACE,
        sessions: SESSIONS_PROMOTE_RACE,
    });
    assert!(report.passed(), "violations: {:#?}", report.violations);
    // The scenario this seed was mined for must still be present: at
    // least one session with >=3 interleaved connections and a promote
    // issued while predicts were in flight on sibling connections.
    assert!(
        report
            .trace
            .iter()
            .any(|l| (l.contains("conns=3") || l.contains("conns=4"))
                && !l.contains("promotes=0")
                && l.contains("mode=multi")),
        "no >=3-connection session with a mid-flight promote in the trace"
    );
    assert_eq!(
        report.trace_hash(),
        FINGERPRINT_PROMOTE_RACE,
        "seed {SEED_PROMOTE_RACE} no longer replays to its mined fingerprint; \
         if the schedule change is intentional, re-mine and update the constant"
    );
}

#[test]
fn manifest_fault_seed_replays_to_its_mined_fingerprint() {
    let report = run_sim(&SimConfig {
        seed: SEED_MANIFEST_FAULTS,
        sessions: SESSIONS_MANIFEST_FAULTS,
    });
    assert!(report.passed(), "violations: {:#?}", report.violations);
    // The mined scenario: injected faults, restarts, and a crashed
    // multi-connection session — all must still occur under this seed.
    assert!(report.faults_injected > 10, "{}", report.faults_injected);
    assert!(report.restarts > 10, "{}", report.restarts);
    assert!(
        report
            .trace
            .iter()
            .any(|l| l.contains("mode=multi") && l.contains("crash=true")),
        "no crashed multi-connection session in the trace"
    );
    assert_eq!(
        report.trace_hash(),
        FINGERPRINT_MANIFEST_FAULTS,
        "seed {SEED_MANIFEST_FAULTS} no longer replays to its mined fingerprint; \
         if the schedule change is intentional, re-mine and update the constant"
    );
}

#[test]
fn fleet_seed_replays_to_its_mined_fingerprint() {
    let report = run_fleet_sim(&FleetSimConfig {
        seed: SEED_FLEET,
        sessions: SESSIONS_FLEET,
    });
    assert!(report.passed(), "violations: {:#?}", report.violations);
    // The failure paths this seed was mined for must all still run.
    for (what, n) in [
        ("replica kills", report.replica_kills),
        ("hedged predicts", report.hedged_predicts),
        ("failovers", report.failovers),
        ("fs faults", report.fs_faults),
    ] {
        assert!(n > 0, "no {what} under seed {SEED_FLEET}");
    }
    assert_eq!(
        report.trace_hash(),
        FINGERPRINT_FLEET,
        "fleet seed {SEED_FLEET} no longer replays to its mined fingerprint; \
         if the schedule change is intentional, re-mine and update the constant"
    );
}
