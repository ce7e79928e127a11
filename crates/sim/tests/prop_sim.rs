//! Property-based tests for the simulator substrate.

use mtperf_counters::Event;
use mtperf_sim::workload::{AccessMix, InstrMix, PhaseSpec, WorkloadSpec};
use mtperf_sim::{Cache, CacheGeometry, MachineConfig, Simulator, TlbGeometry};
use proptest::prelude::*;

/// Strategy: a valid phase spec drawn from broad but sane ranges.
fn phase_spec() -> impl Strategy<Value = PhaseSpec> {
    (
        0.1..0.4f64,   // load
        0.05..0.2f64,  // store
        0.05..0.25f64, // branch
        0.0..1.0f64,   // sequential share
        0.0..1.0f64,   // chase share (normalized below)
        0.3..0.95f64,  // hot fraction
        10u64..14,     // log2 ws (1 KiB .. 8 MiB)
        7u64..19,      // log2 code (128 B .. 256 KiB)
        0.0..0.6f64,   // random branches
        1.0..12.0f64,  // ilp
        0.0..0.2f64,   // misalign
        0.0..0.2f64,   // lcp
    )
        .prop_map(
            |(load, store, branch, seq, chase, hot, lws, lcode, rnd, ilp, mis, lcp)| {
                let mut p = PhaseSpec::balanced("prop");
                p.mix = InstrMix {
                    load,
                    store,
                    branch,
                };
                // Normalize seq+chase to at most 1.
                let total = (seq + chase).max(1.0);
                p.access = AccessMix {
                    sequential: seq / total,
                    chase: chase / total,
                    stride: 64,
                };
                p.hot_fraction = hot;
                p.data_ws_bytes = 1 << lws;
                p.code_bytes = (1u64 << lcode).max(64);
                p.random_branch_frac = rnd;
                p.ilp = ilp;
                p.misalign_frac = mis;
                p.lcp_frac = lcp;
                p
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any valid phase spec simulates into well-formed samples with sane
    /// counter identities and plausible CPI.
    #[test]
    fn simulation_is_well_formed(spec in phase_spec(), seed in 0u64..1000) {
        let sim = Simulator::new(MachineConfig::core2_duo()).with_seed(seed);
        let w = WorkloadSpec::new("prop").phase(spec, 20_000);
        let set = sim.run(&w, 5_000);
        prop_assert_eq!(set.len(), 4);
        prop_assert!(set.is_well_formed());
        for s in set.iter() {
            // CPI in a physically plausible envelope.
            prop_assert!(s.cpi > 0.2 && s.cpi < 60.0, "CPI = {}", s.cpi);
            // Mix identity: the five instruction classes partition the
            // stream.
            let mix = s.rate(Event::InstLd)
                + s.rate(Event::InstSt)
                + s.rate(Event::BrMisPr)
                + s.rate(Event::BrPred)
                + s.rate(Event::InstOther);
            prop_assert!((mix - 1.0).abs() < 1e-9, "mix = {mix}");
            // Hierarchy identities.
            prop_assert!(s.rate(Event::L2m) <= s.rate(Event::L1dm) + 1e-12);
            prop_assert!(s.rate(Event::DtlbLdReM) <= s.rate(Event::DtlbLdM) + 1e-12);
            prop_assert!(s.rate(Event::DtlbLdM) <= s.rate(Event::Dtlb) + 1e-12);
            prop_assert!(s.rate(Event::DtlbLdReM) <= s.rate(Event::DtlbL0LdM) + 1e-12);
            // Split accesses are a subset of memory accesses.
            prop_assert!(
                s.rate(Event::L1dSpLd) + s.rate(Event::L1dSpSt)
                    <= s.rate(Event::InstLd) + s.rate(Event::InstSt) + 1e-12
            );
        }
    }

    /// Simulation is a pure function of (config, workload, seed).
    #[test]
    fn simulation_is_deterministic(spec in phase_spec(), seed in 0u64..50) {
        let w = WorkloadSpec::new("det").phase(spec, 10_000);
        let a = Simulator::new(MachineConfig::core2_duo()).with_seed(seed).run(&w, 5_000);
        let b = Simulator::new(MachineConfig::core2_duo()).with_seed(seed).run(&w, 5_000);
        prop_assert_eq!(a, b);
    }

    /// Cache invariant: re-access of the most recent address always hits.
    #[test]
    fn cache_invariants(addrs in prop::collection::vec(0u64..(1 << 20), 1..300)) {
        let mut c = Cache::new(CacheGeometry {
            size_bytes: 4096,
            line_bytes: 64,
            ways: 4,
        });
        for &a in &addrs {
            c.access(a);
            // MRU property: immediate re-access hits.
            prop_assert!(!c.access(a));
        }
    }

    /// TLB invariant: a working set within reach eventually stops missing.
    #[test]
    fn tlb_within_reach_converges(npages in 1u64..8) {
        let mut t = Cache::tlb(TlbGeometry { entries: 16, ways: 4 }, 4096);
        // Touch pages round-robin; after the first sweep everything fits.
        for round in 0..4 {
            for p in 0..npages {
                let miss = t.access(p * 4096);
                if round > 0 {
                    prop_assert!(!miss, "page {p} missed in round {round}");
                }
            }
        }
    }

    /// Warmup never hurts: with warmup the first section's CPI is at most
    /// the cold first section's CPI (plus slack for noise).
    #[test]
    fn warmup_reduces_cold_start(spec in phase_spec()) {
        let w = WorkloadSpec::new("warm").phase(spec, 10_000);
        let warm = Simulator::new(MachineConfig::core2_duo())
            .with_seed(3)
            .run(&w, 5_000);
        let cold = Simulator::new(MachineConfig::core2_duo())
            .with_seed(3)
            .with_warmup(false)
            .run(&w, 5_000);
        let wc = warm.cpis()[0];
        let cc = cold.cpis()[0];
        prop_assert!(wc <= cc * 1.1 + 0.2, "warm {wc} vs cold {cc}");
    }
}
