//! A simulation must hand the process back as it found it: on real time,
//! at the caller's parallelism setting.
//!
//! This is the only test in its binary on purpose. The seams are process
//! globals, so a sibling test running in the same process could mask a
//! leak (or cause one) between the simulation and the check.

use std::time::Duration;

use mtperf::linalg::parallel::{self, Parallelism};
use mtperf::serve::dst::{run_sim, SimConfig};
use mtperf::serve::fleet::dst::{run_fleet_sim, FleetSimConfig};
use mtperf_detsim::clock;

fn assert_handed_back(after: &str) {
    assert_eq!(
        parallel::global(),
        Parallelism::Fixed(3),
        "parallelism not restored after {after}"
    );
    let t0 = clock::now();
    std::thread::sleep(Duration::from_millis(2));
    assert!(clock::now() > t0, "clock seam not restored after {after}");
}

#[test]
fn simulations_restore_real_time_and_parallelism() {
    parallel::set_global(Parallelism::Fixed(3));
    let report = run_sim(&SimConfig {
        seed: 3,
        sessions: 4,
    });
    assert!(report.passed(), "{:?}", report.violations);
    assert_handed_back("run_sim");
    let report = run_fleet_sim(&FleetSimConfig {
        seed: 3,
        sessions: 4,
    });
    assert!(report.passed(), "{:?}", report.violations);
    assert_handed_back("run_fleet_sim");
}
