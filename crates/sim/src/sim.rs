//! The simulator core: drives instruction streams through the machine model
//! and emits section samples.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mtperf_counters::{CounterBank, Event, SampleSet, Sectioner};

use crate::branch::GsharePredictor;
use crate::btb::Btb;
use crate::config::MachineConfig;
use crate::cycle::{CycleModel, InstrEvents};
use crate::instr::InstrKind;
use crate::loadblock::{LoadBlock, StoreBuffer};
use crate::memory::MemoryHierarchy;
use crate::workload::{InstrStream, WorkloadSpec};

/// Default section length: how many retired instructions one sample spans.
pub const DEFAULT_SECTION_LEN: u64 = 10_000;

/// An execution-driven simulator of one core described by a
/// [`MachineConfig`].
///
/// Each [`Simulator::run`] starts from cold machine state (fresh caches,
/// TLBs, predictor), executes the workload's phase plan, and returns one
/// [`SectionSample`](mtperf_counters::SectionSample) per
/// `section_len` retired instructions — the paper's data-collection recipe.
///
/// # Example
///
/// ```
/// use mtperf_sim::{MachineConfig, Simulator};
/// use mtperf_sim::workload::{PhaseSpec, WorkloadSpec};
///
/// let sim = Simulator::new(MachineConfig::core2_duo()).with_seed(42);
/// let w = WorkloadSpec::new("toy").phase(PhaseSpec::balanced("only"), 30_000);
/// let samples = sim.run(&w, 10_000);
/// assert_eq!(samples.len(), 3);
/// assert!(samples.is_well_formed());
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    config: MachineConfig,
    seed: u64,
    warmup: bool,
}

impl Simulator {
    /// Creates a simulator with seed 0 and warmup enabled.
    pub fn new(config: MachineConfig) -> Self {
        Simulator {
            config,
            seed: 0,
            warmup: true,
        }
    }

    /// Sets the master seed; all workload randomness derives from it, so a
    /// fixed seed reproduces the dataset bit-for-bit.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables or disables silent cache/TLB warmup before each workload.
    ///
    /// Warmup models steady-state measurement: real applications touch
    /// their data during initialization, so the paper's mid-run sections see
    /// warm caches. Disable it to study cold-start transients.
    pub fn with_warmup(mut self, warmup: bool) -> Self {
        self.warmup = warmup;
        self
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Executes `workload` and returns its section samples.
    ///
    /// # Panics
    ///
    /// Panics if the workload fails [`WorkloadSpec::is_valid`] or
    /// `section_len` is zero.
    pub fn run(&self, workload: &WorkloadSpec, section_len: u64) -> SampleSet {
        assert!(workload.is_valid(), "invalid workload {:?}", workload.name);
        let mut mem = MemoryHierarchy::new(&self.config);
        let mut predictor = GsharePredictor::new(self.config.predictor);
        let mut btb = Btb::new(self.config.btb);
        let mut stores = StoreBuffer::new();
        let mut cycles = CycleModel::new(&self.config);
        let mut bank = CounterBank::new();
        let mut sectioner = Sectioner::new(workload.name.clone(), section_len);
        let mut rng = SmallRng::seed_from_u64(self.seed ^ hash_name(&workload.name));
        let mut samples = SampleSet::new();
        if self.warmup {
            let data_bytes = workload
                .phases
                .iter()
                .map(|p| p.spec.data_ws_bytes)
                .max()
                .unwrap_or(0);
            let code_bytes = workload
                .phases
                .iter()
                .map(|p| p.spec.code_bytes)
                .max()
                .unwrap_or(0);
            mem.warm(
                crate::workload::DATA_BASE,
                data_bytes,
                crate::workload::CODE_BASE,
                code_bytes,
            );
            mem.warm(crate::workload::HOT_BASE, crate::workload::HOT_BYTES, 0, 0);
        }
        // Fractional-cycle carry so integer retirement stays exact.
        let mut carry = 0.0f64;

        for rep in 0..workload.repeats {
            for (pi, plan) in workload.phases.iter().enumerate() {
                let stream_seed = self
                    .seed
                    .wrapping_add(hash_name(&workload.name))
                    .wrapping_add((rep as u64) << 32)
                    .wrapping_add(pi as u64 * 0x9E37_79B9);
                let mut stream = InstrStream::new(&plan.spec, stream_seed);
                for _ in 0..plan.instructions {
                    let cost = self.step(
                        &mut stream,
                        &mut mem,
                        &mut predictor,
                        &mut btb,
                        &mut stores,
                        &mut cycles,
                        &mut bank,
                        &mut rng,
                    );
                    let total = cost + carry;
                    let whole = total.floor();
                    carry = total - whole;
                    if let Some(s) = sectioner.retire(&mut bank, 1, whole as u64) {
                        samples.push(s);
                    }
                }
            }
        }
        if let Some(s) = sectioner.finish(&mut bank) {
            samples.push(s);
        }
        samples
    }

    /// Executes one instruction; updates machine state and counters, returns
    /// its cycle cost.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &self,
        stream: &mut InstrStream,
        mem: &mut MemoryHierarchy,
        predictor: &mut GsharePredictor,
        btb: &mut Btb,
        stores: &mut StoreBuffer,
        cycles: &mut CycleModel,
        bank: &mut CounterBank,
        rng: &mut SmallRng,
    ) -> f64 {
        let (pc, instr) = stream.next_instr();
        let fetch = mem.fetch_access(pc);
        if fetch.l1i_miss {
            bank.add(Event::L1im, 1);
        }
        if fetch.itlb_miss {
            bank.add(Event::ItlbM, 1);
        }

        let mut ev = InstrEvents {
            fetch,
            dep_distance: instr.dep_distance,
            ..Default::default()
        };

        match instr.kind {
            InstrKind::Load { addr, size } => {
                bank.add(Event::InstLd, 1);
                let block = stores.check_load(addr, size);
                if let Some(b) = block {
                    bank.add(
                        match b {
                            LoadBlock::StoreAddress => Event::LdBlSta,
                            LoadBlock::StoreData => Event::LdBlStd,
                            LoadBlock::OverlapStore => Event::LdBlOvSt,
                        },
                        1,
                    );
                }
                let d = mem.data_access(addr, size);
                if d.l1d_miss {
                    bank.add(Event::L1dm, 1);
                }
                if d.l2_miss {
                    bank.add(Event::L2m, 1);
                }
                if d.dtlb0_miss {
                    bank.add(Event::DtlbL0LdM, 1);
                }
                if d.dtlb_miss {
                    // Retired load page walks fire the load-specific and the
                    // any-miss counters together.
                    bank.add(Event::DtlbLdM, 1);
                    bank.add(Event::DtlbLdReM, 1);
                    bank.add(Event::Dtlb, 1);
                }
                if d.misaligned {
                    bank.add(Event::MisalRef, 1);
                }
                if d.split {
                    bank.add(Event::L1dSpLd, 1);
                }
                ev.data = Some(d);
                ev.load_block = block;
            }
            InstrKind::Store { addr, size } => {
                bank.add(Event::InstSt, 1);
                stores.record_store(addr, size);
                let d = mem.data_access(addr, size);
                // MEM_LOAD_RETIRED.* counters are load-only; stores fire
                // only the any-DTLB-miss and alignment events.
                if d.dtlb_miss {
                    bank.add(Event::Dtlb, 1);
                }
                if d.misaligned {
                    bank.add(Event::MisalRef, 1);
                }
                if d.split {
                    bank.add(Event::L1dSpSt, 1);
                }
                ev.data = Some(d);
                ev.is_store = true;
            }
            InstrKind::Branch { taken, target } => {
                stores.tick();
                let mispredicted = predictor.predict_and_update(pc, taken);
                if taken {
                    // A correct direction prediction still needs the target:
                    // a BTB miss costs a short front-end redirect (no Table I
                    // event fires — one more interpretation subtlety).
                    let btb_miss = btb.lookup_update(pc, target);
                    ev.btb_redirect = btb_miss && !mispredicted;
                }
                if mispredicted {
                    bank.add(Event::BrMisPr, 1);
                    // Wrong-path execution: an occasional speculative load
                    // perturbs the TLBs and makes the speculative DTLB
                    // counters (DTLB_MISSES.*) run ahead of the retired ones
                    // (MEM_LOAD_RETIRED.DTLB_MISS), as on real hardware.
                    if rng.gen::<f64>() < 0.3 {
                        let ws = stream.spec().data_ws_bytes;
                        let addr = crate::workload::DATA_BASE + rng.gen_range(0..ws / 8) * 8;
                        if mem.speculative_touch(addr) {
                            bank.add(Event::DtlbLdM, 1);
                            bank.add(Event::Dtlb, 1);
                        }
                    }
                } else {
                    bank.add(Event::BrPred, 1);
                }
                ev.mispredict = mispredicted;
            }
            InstrKind::Other { lcp } => {
                stores.tick();
                bank.add(Event::InstOther, 1);
                if lcp {
                    bank.add(Event::Lcp, 1);
                }
                ev.lcp = lcp;
            }
        }

        cycles.cost(&ev)
    }
}

/// FNV-1a hash of a workload name, for seed derivation.
fn hash_name(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{AccessMix, InstrMix, PhaseSpec};
    use mtperf_counters::Event;

    fn run_phase(spec: PhaseSpec, instructions: u64) -> SampleSet {
        let sim = Simulator::new(MachineConfig::core2_duo()).with_seed(7);
        let w = WorkloadSpec::new(format!("test-{}", spec.name)).phase(spec, instructions);
        sim.run(&w, 5_000)
    }

    fn mean_rate(set: &SampleSet, e: Event) -> f64 {
        let v = set.rates_of(e);
        v.iter().sum::<f64>() / v.len() as f64
    }

    fn mean_cpi(set: &SampleSet) -> f64 {
        let v = set.cpis();
        v.iter().sum::<f64>() / v.len() as f64
    }

    #[test]
    fn emits_expected_section_count() {
        let set = run_phase(PhaseSpec::balanced("p"), 50_000);
        assert_eq!(set.len(), 10);
        assert!(set.is_well_formed());
    }

    #[test]
    fn deterministic_under_seed() {
        let sim = Simulator::new(MachineConfig::core2_duo()).with_seed(11);
        let w = WorkloadSpec::new("det").phase(PhaseSpec::balanced("p"), 20_000);
        let a = sim.run(&w, 5_000);
        let b = sim.run(&w, 5_000);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let w = WorkloadSpec::new("det").phase(PhaseSpec::balanced("p"), 20_000);
        let a = Simulator::new(MachineConfig::core2_duo())
            .with_seed(1)
            .run(&w, 5_000);
        let b = Simulator::new(MachineConfig::core2_duo())
            .with_seed(2)
            .run(&w, 5_000);
        assert_ne!(a, b);
    }

    #[test]
    fn instruction_mix_shows_up_in_counters() {
        let set = run_phase(PhaseSpec::balanced("p"), 50_000);
        let mix = PhaseSpec::balanced("p").mix;
        assert!((mean_rate(&set, Event::InstLd) - mix.load).abs() < 0.05);
        assert!((mean_rate(&set, Event::InstSt) - mix.store).abs() < 0.05);
        let branches = mean_rate(&set, Event::BrMisPr) + mean_rate(&set, Event::BrPred);
        assert!(
            (branches - mix.branch).abs() < 0.08,
            "branches = {branches}"
        );
        assert!(
            (mean_rate(&set, Event::InstOther) - mix.other()).abs() < 0.08,
            "other = {}",
            mean_rate(&set, Event::InstOther)
        );
    }

    #[test]
    fn small_footprint_has_low_miss_rates_and_low_cpi() {
        let set = run_phase(PhaseSpec::balanced("small"), 50_000);
        // Skip the cold-start section: steady state is what matters.
        let warm: SampleSet = set.iter().skip(2).cloned().collect();
        assert!(
            mean_rate(&warm, Event::L2m) < 0.002,
            "L2M = {}",
            mean_rate(&warm, Event::L2m)
        );
        assert!(mean_rate(&warm, Event::Dtlb) < 0.01);
        let cpi = mean_cpi(&warm);
        assert!(cpi < 1.2, "cpi = {cpi}");
    }

    #[test]
    fn pointer_chase_big_ws_drives_l2_and_dtlb_misses() {
        let mut spec = PhaseSpec::balanced("chase");
        spec.hot_fraction = 0.55;
        spec.data_ws_bytes = 32 * 1024 * 1024;
        spec.access = AccessMix {
            sequential: 0.0,
            chase: 1.0,
            stride: 64,
        };
        let set = run_phase(spec, 60_000);
        assert!(
            mean_rate(&set, Event::L2m) > 0.01,
            "L2M = {}",
            mean_rate(&set, Event::L2m)
        );
        assert!(mean_rate(&set, Event::Dtlb) > 0.01);
        let cpi = mean_cpi(&set);
        assert!(cpi > 1.5, "cpi = {cpi}");
    }

    #[test]
    fn mid_ws_random_hits_dtlb_without_l2_misses() {
        // 2 MiB random: fits the 4 MiB L2 but exceeds the 1 MiB DTLB reach.
        let mut spec = PhaseSpec::balanced("dtlb");
        spec.hot_fraction = 0.4;
        spec.data_ws_bytes = 2 * 1024 * 1024;
        spec.access = AccessMix {
            sequential: 0.0,
            chase: 0.0,
            stride: 64,
        };
        // Long enough that the 2 MiB working set is fully L2-resident for
        // most of the run (cold fills alone touch ~32k lines).
        let set = run_phase(spec, 600_000);
        // Skip warm-up sections: look at the last quarter.
        let half: SampleSet = set.iter().skip(set.len() * 3 / 4).cloned().collect();
        assert!(
            mean_rate(&half, Event::Dtlb) > 0.02,
            "Dtlb = {}",
            mean_rate(&half, Event::Dtlb)
        );
        assert!(
            mean_rate(&half, Event::L2m) < 0.005,
            "L2M = {}",
            mean_rate(&half, Event::L2m)
        );
    }

    #[test]
    fn unpredictable_branches_raise_mispredicts() {
        let mut spec = PhaseSpec::balanced("branchy");
        spec.random_branch_frac = 0.9;
        let branchy = run_phase(spec, 50_000);
        let mut calm_spec = PhaseSpec::balanced("calm");
        calm_spec.random_branch_frac = 0.02;
        let calm = run_phase(calm_spec, 50_000);
        let (hi, lo) = (
            mean_rate(&branchy, Event::BrMisPr),
            mean_rate(&calm, Event::BrMisPr),
        );
        assert!(hi > 2.5 * lo, "branchy {hi} vs calm {lo}");
    }

    #[test]
    fn lcp_phase_counts_lcp_events() {
        let mut spec = PhaseSpec::balanced("lcp");
        spec.lcp_frac = 0.2;
        let set = run_phase(spec, 30_000);
        let expected = 0.2 * PhaseSpec::balanced("x").mix.other();
        assert!((mean_rate(&set, Event::Lcp) - expected).abs() < 0.02);
    }

    #[test]
    fn big_code_footprint_drives_l1i_misses() {
        let small = run_phase(PhaseSpec::balanced("small-code"), 50_000);
        let mut spec = PhaseSpec::balanced("icache");
        spec.code_bytes = 512 * 1024;
        let set = run_phase(spec, 50_000);
        assert!(
            mean_rate(&set, Event::L1im) > mean_rate(&small, Event::L1im) + 0.002,
            "big {} vs small {}",
            mean_rate(&set, Event::L1im),
            mean_rate(&small, Event::L1im)
        );
        // And far beyond ITLB reach (512 KiB), with low code locality so
        // fetch actually spreads over the footprint:
        let mut spec2 = PhaseSpec::balanced("itlb");
        spec2.code_bytes = 4 * 1024 * 1024;
        spec2.code_locality = 0.4;
        let set2 = run_phase(spec2, 50_000);
        assert!(
            mean_rate(&set2, Event::ItlbM) > 0.001,
            "ItlbM = {}",
            mean_rate(&set2, Event::ItlbM)
        );
    }

    #[test]
    fn store_reuse_produces_load_blocks() {
        let mut spec = PhaseSpec::balanced("blocks");
        spec.store_reuse_frac = 0.3;
        spec.mix = InstrMix {
            load: 0.3,
            store: 0.25,
            branch: 0.1,
        };
        let set = run_phase(spec, 50_000);
        let blocks = mean_rate(&set, Event::LdBlSta)
            + mean_rate(&set, Event::LdBlStd)
            + mean_rate(&set, Event::LdBlOvSt);
        assert!(blocks > 0.005, "blocks = {blocks}");
    }

    #[test]
    fn misalign_phase_counts_misal_and_splits() {
        let mut spec = PhaseSpec::balanced("misal");
        spec.misalign_frac = 0.3;
        let set = run_phase(spec, 50_000);
        assert!(mean_rate(&set, Event::MisalRef) > 0.05);
        assert!(mean_rate(&set, Event::L1dSpLd) + mean_rate(&set, Event::L1dSpSt) > 0.002);
    }

    #[test]
    fn speculative_dtlb_counts_run_ahead_of_retired() {
        let mut spec = PhaseSpec::balanced("spec");
        spec.random_branch_frac = 0.6;
        spec.hot_fraction = 0.3;
        spec.data_ws_bytes = 8 * 1024 * 1024;
        spec.access = AccessMix {
            sequential: 0.0,
            chase: 0.0,
            stride: 64,
        };
        let set = run_phase(spec, 60_000);
        let spec_ld = mean_rate(&set, Event::DtlbLdM);
        let ret_ld = mean_rate(&set, Event::DtlbLdReM);
        assert!(spec_ld > ret_ld, "{spec_ld} vs {ret_ld}");
    }

    #[test]
    fn multi_phase_workload_produces_distinct_sections() {
        let mut heavy = PhaseSpec::balanced("heavy");
        heavy.hot_fraction = 0.4;
        heavy.data_ws_bytes = 32 * 1024 * 1024;
        heavy.access = AccessMix {
            sequential: 0.0,
            chase: 1.0,
            stride: 64,
        };
        let light = PhaseSpec::balanced("light");
        let w = WorkloadSpec::new("phased")
            .phase(light, 30_000)
            .phase(heavy, 30_000);
        let sim = Simulator::new(MachineConfig::core2_duo()).with_seed(3);
        let set = sim.run(&w, 5_000);
        let cpis = set.cpis();
        let early: f64 = cpis[..6].iter().sum::<f64>() / 6.0;
        let late: f64 = cpis[6..].iter().sum::<f64>() / (cpis.len() - 6) as f64;
        assert!(late > early * 1.5, "early {early}, late {late}");
    }
}
