//! Dynamic-instruction stream generator.
//!
//! [`InstrStream`] turns a [`PhaseSpec`] into an infinite, seeded,
//! deterministic stream of [`Instr`]s with the spec's statistical character.
//! The stream owns the program counter: instruction fetch walks the code
//! region sequentially and taken branches jump inside it, so instruction-side
//! cache and ITLB behavior emerge from the code footprint rather than being
//! injected directly.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::instr::{Instr, InstrKind};
use crate::workload::spec::PhaseSpec;

/// Base virtual address of the small always-hot data region (stack/locals).
pub const HOT_BASE: u64 = 0x1000_0000;
/// Size of the hot region; comfortably inside any L1.
pub const HOT_BYTES: u64 = 4 * 1024;
/// Base virtual address of the main data working set.
pub const DATA_BASE: u64 = 0x2000_0000;
/// Base virtual address of the code region.
pub const CODE_BASE: u64 = 0x4000_0000;
/// How many recent store addresses the generator remembers for
/// store-forwarding reuse.
const STORE_MEMORY: usize = 8;

/// SplitMix64 — cheap stateless hash used to derive stable per-site branch
/// behavior from program-counter values.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// An infinite, deterministic stream of dynamic instructions following a
/// [`PhaseSpec`].
///
/// # Example
///
/// ```
/// use mtperf_sim::workload::{InstrStream, PhaseSpec};
///
/// let spec = PhaseSpec::balanced("demo");
/// let mut stream = InstrStream::new(&spec, 42);
/// let (pc, _instr) = stream.next_instr();
/// assert!(pc >= 0x4000_0000); // inside the code region
/// ```
/// How often (in instructions) the drift walks advance.
const DRIFT_PERIOD: u64 = 2048;

/// Slowly wandering walk states for the effective parameters (see
/// [`PhaseSpec::variability`]): locality, branches, alignment/LCP, ILP,
/// working-set size.
#[derive(Debug, Clone, Copy)]
struct Drift {
    walks: [f64; 5],
}

impl Drift {
    fn new() -> Self {
        Drift { walks: [0.0; 5] }
    }

    fn step(&mut self, rng: &mut SmallRng) {
        for w in &mut self.walks {
            *w = (*w + rng.gen_range(-0.25..0.25)).clamp(-1.0, 1.0);
        }
    }
}

/// An infinite, deterministic stream of dynamic instructions following a
/// [`PhaseSpec`]; see the module docs and [`InstrStream::new`].
#[derive(Debug, Clone)]
pub struct InstrStream {
    spec: PhaseSpec,
    rng: SmallRng,
    pc: u64,
    seq_pos: u64,
    chase_pos: u64,
    recent_stores: VecDeque<u64>,
    drift: Drift,
    /// Effective (drifted) parameters, refreshed every [`DRIFT_PERIOD`]
    /// instructions.
    eff_hot: f64,
    eff_random_branch: f64,
    eff_misalign: f64,
    eff_lcp: f64,
    eff_ilp: f64,
    eff_ws: u64,
    instr_count: u64,
    /// The hot branch-target set (loop headers, frequently called
    /// functions). Most taken branches land here; the set size grows with
    /// the code footprint, so instruction-side cache/TLB pressure emerges
    /// from large-code profiles while small-code profiles stay resident.
    hot_targets: Vec<u64>,
}

impl InstrStream {
    /// Creates a stream for `spec` seeded with `seed` (same seed, same
    /// stream).
    ///
    /// # Panics
    ///
    /// Panics if `spec` fails [`PhaseSpec::is_valid`].
    pub fn new(spec: &PhaseSpec, seed: u64) -> Self {
        assert!(spec.is_valid(), "invalid phase spec: {:?}", spec.name);
        // One hot target per KiB of code, clamped: tiny kernels have a
        // handful of loops, huge codes have hundreds of active regions.
        let n_hot = (spec.code_bytes / 1024).clamp(8, 1024);
        let hot_targets = (0..n_hot)
            .map(|i| CODE_BASE + (splitmix64(seed ^ (i << 17)) % (spec.code_bytes / 4)) * 4)
            .collect();
        InstrStream {
            spec: spec.clone(),
            rng: SmallRng::seed_from_u64(seed),
            pc: CODE_BASE,
            seq_pos: 0,
            chase_pos: splitmix64(seed) % spec.data_ws_bytes,
            recent_stores: VecDeque::with_capacity(STORE_MEMORY),
            drift: Drift::new(),
            eff_hot: spec.hot_fraction,
            eff_random_branch: spec.random_branch_frac,
            eff_misalign: spec.misalign_frac,
            eff_lcp: spec.lcp_frac,
            eff_ilp: spec.ilp,
            eff_ws: spec.data_ws_bytes,
            instr_count: 0,
            hot_targets,
        }
    }

    /// Advances the within-phase drift and refreshes the effective
    /// parameters.
    fn refresh_drift(&mut self) {
        let v = self.spec.variability;
        if v == 0.0 {
            return;
        }
        self.drift.step(&mut self.rng);
        let [locality, branches, align, ilp, ws] = self.drift.walks;
        self.eff_hot = (self.spec.hot_fraction - 0.12 * v * locality).clamp(0.0, 0.99);
        self.eff_random_branch =
            (self.spec.random_branch_frac * (1.0 + v * branches)).clamp(0.0, 1.0);
        self.eff_misalign = (self.spec.misalign_frac * (1.0 + v * align)).clamp(0.0, 1.0);
        self.eff_lcp = (self.spec.lcp_frac * (1.0 + v * align)).clamp(0.0, 1.0);
        // ILP drift is invisible to every counter (the paper's error term);
        // keep its amplitude modest.
        self.eff_ilp = (self.spec.ilp * (1.0 + 0.10 * v * ilp)).max(1.0);
        // Working-set drift decorrelates the TLB from the caches: a working
        // set wandering around the DTLB reach (or the L2 capacity) moves
        // TLB (or L2) miss rates while barely moving L1 behavior.
        let scale = 1.0 + 0.3 * v * ws;
        self.eff_ws = ((self.spec.data_ws_bytes as f64 * scale) as u64).max(4096);
    }

    /// The phase this stream follows.
    pub fn spec(&self) -> &PhaseSpec {
        &self.spec
    }

    /// Produces the next dynamic instruction, returning its fetch address
    /// (program counter) and the instruction itself.
    ///
    /// Whether a PC holds a branch is a *static* property derived by hashing
    /// the PC (as in real code, where branch sites are fixed), so the
    /// predictor sees stable, trainable sites; the remaining instruction
    /// classes are drawn per dynamic instance.
    pub fn next_instr(&mut self) -> (u64, Instr) {
        if self.instr_count.is_multiple_of(DRIFT_PERIOD) {
            self.refresh_drift();
        }
        self.instr_count += 1;
        let pc = self.pc;
        let mix = self.spec.mix;
        // Branch sites are spaced deterministically: every `period` PCs hold
        // exactly one branch (at a per-block hashed offset). Uniform spacing
        // keeps the *dynamic* branch fraction near the spec even when
        // execution concentrates on a few hot loops — geometric placement
        // would let short branch-dense paths dominate.
        let is_branch_pc = if mix.branch > 0.0 {
            let idx = pc / 4;
            let period = (1.0 / mix.branch).round().max(1.0) as u64;
            let block = idx / period;
            idx % period == splitmix64(block ^ 0xB4A2_C0DE) % period
        } else {
            false
        };
        let instr = if is_branch_pc {
            self.gen_branch(pc)
        } else {
            // Renormalize the non-branch classes.
            let rest = (1.0 - mix.branch).max(1e-9);
            let roll: f64 = self.rng.gen::<f64>() * rest;
            if roll < mix.load {
                self.gen_load()
            } else if roll < mix.load + mix.store {
                self.gen_store()
            } else {
                self.gen_other()
            }
        };
        // Advance the PC: taken branches redirect, everything else falls
        // through; wrap inside the code footprint.
        self.pc = match instr.kind {
            InstrKind::Branch {
                taken: true,
                target,
            } => target,
            _ => {
                let next = pc + 4;
                if next >= CODE_BASE + self.spec.code_bytes {
                    CODE_BASE
                } else {
                    next
                }
            }
        };
        (pc, instr)
    }

    /// Samples a dependency distance around the phase's (drifted) mean ILP.
    fn dep_distance(&mut self) -> u32 {
        let ilp = self.eff_ilp;
        let lo = (ilp * 0.75).max(1.0);
        let hi = (ilp * 1.25).max(lo + 1.0);
        self.rng.gen_range(lo..hi).round().max(1.0) as u32
    }

    /// Generates a data address together with its dependence character.
    /// Returns `(addr, dep_distance)`.
    fn data_addr(&mut self) -> (u64, u32) {
        // Hot-region traffic first: always-resident locals.
        if self.rng.gen::<f64>() < self.eff_hot {
            let off = self.rng.gen_range(0..HOT_BYTES / 8) * 8;
            return (HOT_BASE + off, self.dep_distance());
        }
        let ws = self.eff_ws;
        let roll: f64 = self.rng.gen();
        let access = self.spec.access;
        if roll < access.sequential {
            self.seq_pos = (self.seq_pos + access.stride) % ws;
            (DATA_BASE + self.seq_pos, self.dep_distance())
        } else if roll < access.sequential + access.chase {
            // Dependent chain: an LCG walk is as cache-hostile as a real
            // pointer chase, and the dep_distance of 1 encodes the
            // serialization that defeats memory-level parallelism.
            self.chase_pos = self
                .chase_pos
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407)
                % ws;
            ((DATA_BASE + self.chase_pos) & !7, 1)
        } else {
            let off = self.rng.gen_range(0..ws / 8) * 8;
            (DATA_BASE + off, self.dep_distance())
        }
    }

    /// Applies the phase's misalignment discipline to an address.
    fn maybe_misalign(&mut self, addr: u64) -> u64 {
        if self.eff_misalign > 0.0 && self.rng.gen::<f64>() < self.eff_misalign {
            // Odd offsets up to 7 bytes produce misaligned (and, near a line
            // end, line-split) accesses.
            addr + self.rng.gen_range(1..8u64)
        } else {
            addr
        }
    }

    fn gen_load(&mut self) -> Instr {
        // Store-forwarding reuse: read back a recently stored address.
        if !self.recent_stores.is_empty() && self.rng.gen::<f64>() < self.spec.store_reuse_frac {
            let idx = self.rng.gen_range(0..self.recent_stores.len());
            let base = self.recent_stores[idx];
            // Mostly exact-address reads, sometimes partial overlaps.
            let addr = if self.rng.gen::<f64>() < 0.3 {
                base + 2
            } else {
                base
            };
            return Instr {
                kind: InstrKind::Load { addr, size: 8 },
                dep_distance: self.dep_distance(),
            };
        }
        let (addr, dep) = self.data_addr();
        let addr = self.maybe_misalign(addr);
        Instr {
            kind: InstrKind::Load { addr, size: 8 },
            dep_distance: dep,
        }
    }

    fn gen_store(&mut self) -> Instr {
        let (addr, dep) = self.data_addr();
        let addr = self.maybe_misalign(addr);
        if self.recent_stores.len() == STORE_MEMORY {
            self.recent_stores.pop_front();
        }
        self.recent_stores.push_back(addr);
        Instr {
            kind: InstrKind::Store { addr, size: 8 },
            dep_distance: dep,
        }
    }

    fn gen_branch(&mut self, pc: u64) -> Instr {
        // Quantize the PC onto `branch_sites` stable predictor-visible
        // sites; the site hash then fixes the site's direction bias, so the
        // predictor can learn it (or not, for the data-dependent sites).
        let sites = self.spec.branch_sites as u64;
        let site = splitmix64(pc) % sites;
        let h = splitmix64(site.wrapping_mul(0x5851_F42D_4C95_7F2D));
        // Deterministic split of sites into unpredictable vs biased: the
        // first `random_branch_frac` of site indices are data-dependent, so
        // the realized fraction tracks the spec instead of hash luck.
        let unpredictable = (site as f64 + 0.5) / (sites as f64) < self.eff_random_branch;
        let bias = if unpredictable {
            0.5
        } else if h & (1 << 40) != 0 {
            0.97
        } else {
            0.03
        };
        let taken = self.rng.gen::<f64>() < bias;
        // Direct branches have a fixed, site-determined target drawn from
        // the hot set; a minority are indirect/far jumps landing anywhere in
        // the code region.
        let hot_jump = ((h >> 20) % 10_000) as f64 / 10_000.0 < self.spec.code_locality;
        let target = if hot_jump {
            let idx = (splitmix64(site ^ 0xB10C_0FF5) as usize) % self.hot_targets.len();
            self.hot_targets[idx]
        } else {
            CODE_BASE + self.rng.gen_range(0..self.spec.code_bytes / 4) * 4
        };
        Instr {
            kind: InstrKind::Branch { taken, target },
            dep_distance: self.dep_distance(),
        }
    }

    fn gen_other(&mut self) -> Instr {
        let lcp = self.eff_lcp > 0.0 && self.rng.gen::<f64>() < self.eff_lcp;
        Instr {
            kind: InstrKind::Other { lcp },
            dep_distance: self.dep_distance(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::spec::{AccessMix, InstrMix};

    fn count_kinds(spec: &PhaseSpec, n: usize, seed: u64) -> (usize, usize, usize, usize) {
        let mut s = InstrStream::new(spec, seed);
        let (mut ld, mut st, mut br, mut ot) = (0, 0, 0, 0);
        for _ in 0..n {
            let (_, i) = s.next_instr();
            match i.kind {
                InstrKind::Load { .. } => ld += 1,
                InstrKind::Store { .. } => st += 1,
                InstrKind::Branch { .. } => br += 1,
                InstrKind::Other { .. } => ot += 1,
            }
        }
        (ld, st, br, ot)
    }

    #[test]
    fn mix_fractions_are_respected() {
        let spec = PhaseSpec::balanced("p");
        let n = 100_000;
        let (ld, st, br, ot) = count_kinds(&spec, n, 7);
        let f = |c: usize| c as f64 / n as f64;
        // Branch-ness is a static property of PCs with hot-loop
        // concentration, so the realized dynamic branch fraction carries
        // extra variance; allow a wider margin there (and on the classes
        // renormalized against it).
        assert!((f(br) - spec.mix.branch).abs() < 0.08, "br = {}", f(br));
        assert!((f(ld) - spec.mix.load).abs() < 0.05, "ld = {}", f(ld));
        assert!((f(st) - spec.mix.store).abs() < 0.05, "st = {}", f(st));
        assert!((f(ot) - spec.mix.other()).abs() < 0.08, "ot = {}", f(ot));
    }

    #[test]
    fn same_seed_same_stream() {
        let spec = PhaseSpec::balanced("p");
        let mut a = InstrStream::new(&spec, 99);
        let mut b = InstrStream::new(&spec, 99);
        for _ in 0..1000 {
            assert_eq!(a.next_instr(), b.next_instr());
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let spec = PhaseSpec::balanced("p");
        let mut a = InstrStream::new(&spec, 1);
        let mut b = InstrStream::new(&spec, 2);
        let mut same = 0;
        for _ in 0..100 {
            if a.next_instr() == b.next_instr() {
                same += 1;
            }
        }
        assert!(same < 90);
    }

    #[test]
    fn chase_loads_have_dep_distance_one() {
        let mut spec = PhaseSpec::balanced("p");
        spec.hot_fraction = 0.0;
        spec.variability = 0.0;
        spec.access = AccessMix {
            sequential: 0.0,
            chase: 1.0,
            stride: 64,
        };
        spec.store_reuse_frac = 0.0;
        spec.misalign_frac = 0.0;
        let mut s = InstrStream::new(&spec, 5);
        for _ in 0..10_000 {
            let (_, i) = s.next_instr();
            if i.is_load() {
                assert_eq!(i.dep_distance, 1);
            }
        }
    }

    #[test]
    fn addresses_stay_inside_regions() {
        let spec = PhaseSpec::balanced("p");
        let ws = spec.data_ws_bytes;
        let code = spec.code_bytes;
        let mut s = InstrStream::new(&spec, 3);
        for _ in 0..50_000 {
            let (pc, i) = s.next_instr();
            assert!(pc >= CODE_BASE && pc < CODE_BASE + code, "pc {pc:#x}");
            if let Some((addr, size, _)) = i.mem_access() {
                let hot = addr >= HOT_BASE && addr + size as u64 <= HOT_BASE + HOT_BYTES + 16;
                // Working-set drift can stretch the region by up to
                // 1 + 0.5 * variability.
                let limit = (ws as f64 * 1.2) as u64 + 16;
                let data = addr >= DATA_BASE && addr < DATA_BASE + limit;
                assert!(hot || data, "addr {addr:#x}");
            }
        }
    }

    #[test]
    fn misalign_fraction_approximate() {
        let mut spec = PhaseSpec::balanced("p");
        spec.misalign_frac = 0.5;
        spec.variability = 0.0;
        spec.store_reuse_frac = 0.0;
        let mut s = InstrStream::new(&spec, 11);
        let mut mem = 0usize;
        let mut misaligned = 0usize;
        for _ in 0..100_000 {
            let (_, i) = s.next_instr();
            if let Some((addr, _, _)) = i.mem_access() {
                mem += 1;
                if addr % 8 != 0 {
                    misaligned += 1;
                }
            }
        }
        let frac = misaligned as f64 / mem as f64;
        assert!((frac - 0.5).abs() < 0.03, "frac = {frac}");
    }

    #[test]
    fn lcp_fraction_applies_to_other_instructions() {
        let mut spec = PhaseSpec::balanced("p");
        spec.lcp_frac = 0.4;
        spec.variability = 0.0;
        let mut s = InstrStream::new(&spec, 13);
        let mut other = 0usize;
        let mut lcp = 0usize;
        for _ in 0..100_000 {
            let (_, i) = s.next_instr();
            if let InstrKind::Other { lcp: l } = i.kind {
                other += 1;
                if l {
                    lcp += 1;
                }
            }
        }
        let frac = lcp as f64 / other as f64;
        assert!((frac - 0.4).abs() < 0.03, "frac = {frac}");
    }

    #[test]
    fn store_reuse_produces_overlapping_loads() {
        let mut spec = PhaseSpec::balanced("p");
        spec.store_reuse_frac = 1.0;
        spec.mix = InstrMix {
            load: 0.4,
            store: 0.4,
            branch: 0.1,
        };
        let mut s = InstrStream::new(&spec, 17);
        let mut stores: Vec<u64> = Vec::new();
        let mut reused = 0usize;
        let mut loads = 0usize;
        for _ in 0..10_000 {
            let (_, i) = s.next_instr();
            match i.kind {
                InstrKind::Store { addr, .. } => stores.push(addr),
                InstrKind::Load { addr, .. } => {
                    loads += 1;
                    if stores
                        .iter()
                        .rev()
                        .take(16)
                        .any(|&sa| addr == sa || addr == sa + 2)
                    {
                        reused += 1;
                    }
                }
                _ => {}
            }
        }
        assert!(reused as f64 / loads as f64 > 0.8);
    }

    #[test]
    #[should_panic(expected = "invalid phase spec")]
    fn rejects_invalid_spec() {
        let mut spec = PhaseSpec::balanced("bad");
        spec.ilp = 0.0;
        let _ = InstrStream::new(&spec, 0);
    }
}
