//! Cycle-accounting model.
//!
//! This is where the paper's central observation — that "the amount of
//! penalty successfully removed depends on the available instruction level
//! parallelism and the instantaneous interactions between micro-architectural
//! events" — is made concrete. The model prices each retired instruction's
//! event outcomes in cycles, with three interaction mechanisms:
//!
//! 1. **Memory-level parallelism**: an L2 miss on a dependent pointer chase
//!    (`dep_distance == 1`) pays the full memory latency, while independent
//!    streaming misses overlap up to `max_mlp` deep.
//! 2. **Out-of-order latency hiding**: shorter penalties (L1-miss/L2-hit,
//!    page walks) are partially hidden in proportion to the surrounding ILP.
//! 3. **Stall shadowing**: a branch flush or front-end stall that occurs
//!    while the machine is already memory-bound costs less, tracked by an
//!    EWMA of recent memory-stall intensity.
//!
//! The result is a piecewise, interaction-heavy mapping from event rates to
//! CPI — the kind of target a model tree can carve into classes while a
//! single global linear model cannot.

use crate::config::MachineConfig;
use crate::loadblock::LoadBlock;
use crate::memory::{DataOutcome, FetchOutcome};

/// The priced inputs of one retired instruction.
#[derive(Debug, Clone, Copy, Default)]
pub struct InstrEvents {
    /// Front-end outcome of fetching the instruction.
    pub fetch: FetchOutcome,
    /// Data-side outcome (loads and stores).
    pub data: Option<DataOutcome>,
    /// Dependency distance to the consumer (ILP proxy), `>= 1`.
    pub dep_distance: u32,
    /// The instruction is a mispredicted branch.
    pub mispredict: bool,
    /// The instruction is a correctly-predicted taken branch whose target
    /// missed the BTB (cheap front-end redirect).
    pub btb_redirect: bool,
    /// The instruction is a load that hit a store-buffer block.
    pub load_block: Option<LoadBlock>,
    /// The instruction carries a length-changing prefix.
    pub lcp: bool,
    /// The data access is a store (misses are mostly absorbed by the write
    /// buffers and charged at a fraction of the load penalty).
    pub is_store: bool,
}

/// Stateful cycle-accounting model (owns the memory-boundedness EWMA).
#[derive(Debug, Clone)]
pub struct CycleModel {
    cfg: MachineConfig,
    /// Recent memory-stall intensity in `[0, 1]`.
    membound: f64,
}

/// EWMA smoothing factor for the memory-boundedness tracker.
const MEMBOUND_DECAY: f64 = 0.98;

impl CycleModel {
    /// Creates a model for `config`.
    pub fn new(config: &MachineConfig) -> Self {
        CycleModel {
            cfg: config.clone(),
            membound: 0.0,
        }
    }

    /// Prices one retired instruction in cycles.
    pub fn cost(&mut self, ev: &InstrEvents) -> f64 {
        let cfg = &self.cfg;
        let dep = f64::from(ev.dep_distance.max(1));

        // Issue cost plus dependency stalls the scheduler cannot fill.
        let base = 1.0 / cfg.issue_width + cfg.dep_stall_coeff / dep;

        // Front-end: an L1I miss serializes fetch; when the line also misses
        // the L2 the whole pipeline drains for a memory access that nothing
        // can overlap (the LM18 regime of the paper: high L1IM and high L2
        // pressure saturate CPI).
        let mut frontend = 0.0;
        if ev.fetch.l1i_miss {
            frontend += if ev.fetch.l2_miss {
                cfg.lat_mem
            } else {
                cfg.lat_l2 * 0.8
            };
        }
        if ev.fetch.itlb_miss {
            frontend += cfg.itlb_walk * 0.9;
        }
        if ev.lcp {
            frontend += cfg.lcp_stall;
        }
        if ev.btb_redirect {
            frontend += cfg.baclear_penalty;
        }

        // Data side.
        let mut memory = 0.0;
        if let Some(d) = ev.data {
            let mem_lat = if d.l2_miss {
                cfg.lat_mem
            } else if d.l1d_miss {
                cfg.lat_l2
            } else {
                0.0
            };
            let tlb_lat = if d.dtlb_miss {
                cfg.page_walk
            } else if d.dtlb0_miss {
                cfg.dtlb0_penalty
            } else {
                0.0
            };
            // The page walk mostly overlaps the line fetch; the longer of
            // the two dominates with a fraction of the shorter exposed.
            let raw = mem_lat.max(tlb_lat) + 0.25 * mem_lat.min(tlb_lat);
            memory = if d.l2_miss {
                // Independent misses overlap up to max_mlp deep; a dependent
                // chain (dep = 1) exposes the full latency.
                raw / dep.min(cfg.max_mlp).max(1.0)
            } else {
                // Short latencies hide under out-of-order execution in
                // proportion to the surrounding ILP.
                raw * (1.0 - (0.12 * dep).min(0.85))
            };
            if ev.is_store {
                // Store misses drain through the write buffers; only a small
                // fraction of the latency ever stalls retirement.
                memory *= 0.15;
            }
            if d.split {
                memory += cfg.split_penalty;
            } else if d.misaligned {
                memory += cfg.misalign_penalty;
            }
        }
        if let Some(block) = ev.load_block {
            memory += match block {
                LoadBlock::StoreAddress => cfg.ld_block_penalty,
                LoadBlock::StoreData => cfg.ld_block_penalty * 0.8,
                LoadBlock::OverlapStore => cfg.ld_block_penalty * 1.2,
            };
        }

        // A flush costs less when the machine was already stalled on memory:
        // the recovery hides in the miss shadow.
        let mut branch = 0.0;
        if ev.mispredict {
            branch = cfg.mispredict_penalty * (1.0 - 0.5 * self.membound);
        }

        let total = base + frontend + memory + branch;

        // Update the memory-boundedness tracker: an instruction whose cost
        // is dominated by memory pushes it toward 1.
        let mem_frac = if total > 0.0 { memory / total } else { 0.0 };
        self.membound = MEMBOUND_DECAY * self.membound + (1.0 - MEMBOUND_DECAY) * mem_frac;

        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{DataOutcome, FetchOutcome};

    fn model() -> CycleModel {
        CycleModel::new(&MachineConfig::core2_duo())
    }

    fn plain(dep: u32) -> InstrEvents {
        InstrEvents {
            dep_distance: dep,
            ..Default::default()
        }
    }

    #[test]
    fn base_cost_decreases_with_ilp() {
        let mut m = model();
        let serial = m.cost(&plain(1));
        let parallel = m.cost(&plain(12));
        assert!(serial > parallel);
        assert!(parallel >= 1.0 / 4.0);
    }

    #[test]
    fn l2_miss_on_chain_pays_full_latency() {
        let mut m = model();
        let mut ev = plain(1);
        ev.data = Some(DataOutcome {
            l1d_miss: true,
            l2_miss: true,
            ..Default::default()
        });
        let chain_cost = m.cost(&ev);
        assert!(chain_cost > 160.0, "cost = {chain_cost}");

        let mut m = model();
        ev.dep_distance = 8; // mlp capped at 4
        let streaming_cost = m.cost(&ev);
        assert!(
            streaming_cost < chain_cost / 3.0,
            "chain {chain_cost} vs streaming {streaming_cost}"
        );
    }

    #[test]
    fn l1_miss_mostly_hidden_under_high_ilp() {
        let mut m = model();
        let mut ev = plain(1);
        ev.data = Some(DataOutcome {
            l1d_miss: true,
            ..Default::default()
        });
        let low_ilp = m.cost(&ev);
        let mut m = model();
        ev.dep_distance = 10;
        let high_ilp = m.cost(&ev);
        assert!(high_ilp < low_ilp / 2.0, "{high_ilp} vs {low_ilp}");
    }

    #[test]
    fn page_walk_overlaps_memory_fetch() {
        let mut m = model();
        let mut ev = plain(1);
        ev.data = Some(DataOutcome {
            l1d_miss: true,
            l2_miss: true,
            dtlb0_miss: true,
            dtlb_miss: true,
            ..Default::default()
        });
        let both = m.cost(&ev);

        let mut m = model();
        ev.data = Some(DataOutcome {
            l1d_miss: true,
            l2_miss: true,
            ..Default::default()
        });
        let miss_only = m.cost(&ev);
        // A combined miss must cost more than the cache miss alone, but far
        // less than the naive sum (165 + 30).
        assert!(both > miss_only);
        assert!(both < miss_only + 30.0);
    }

    #[test]
    fn instruction_miss_to_memory_saturates() {
        let mut m = model();
        let mut ev = plain(8);
        ev.fetch = FetchOutcome {
            l1i_miss: true,
            l2_miss: true,
            itlb_miss: false,
        };
        // High ILP cannot hide a front-end drain.
        let c = m.cost(&ev);
        assert!(c > 160.0, "cost = {c}");
    }

    #[test]
    fn mispredict_cheaper_when_memory_bound() {
        // Warm the membound tracker with a run of L2 misses.
        let mut m = model();
        let mut miss = plain(1);
        miss.data = Some(DataOutcome {
            l1d_miss: true,
            l2_miss: true,
            ..Default::default()
        });
        for _ in 0..2000 {
            m.cost(&miss);
        }
        assert!(m.membound > 0.5);
        let mut br = plain(4);
        br.mispredict = true;
        let shadowed = m.cost(&br);

        let mut fresh = model();
        let full = fresh.cost(&br);
        assert!(shadowed < full, "{shadowed} vs {full}");
    }

    #[test]
    fn lcp_and_block_penalties_additive() {
        let mut m = model();
        let base = m.cost(&plain(4));
        let mut m = model();
        let mut ev = plain(4);
        ev.lcp = true;
        let lcp = m.cost(&ev);
        assert!((lcp - base - 6.0).abs() < 1e-9);

        let mut m = model();
        let mut ev = plain(4);
        ev.load_block = Some(LoadBlock::OverlapStore);
        let blocked = m.cost(&ev);
        assert!(blocked > base + 5.0);
    }

    #[test]
    fn split_beats_misaligned_penalty() {
        let mut m = model();
        let mut ev = plain(4);
        ev.data = Some(DataOutcome {
            misaligned: true,
            ..Default::default()
        });
        let mis = m.cost(&ev);
        let mut m = model();
        ev.data = Some(DataOutcome {
            misaligned: true,
            split: true,
            ..Default::default()
        });
        let split = m.cost(&ev);
        assert!(split > mis);
    }

    #[test]
    fn costs_are_positive_and_finite() {
        let mut m = model();
        for dep in 1..16 {
            let c = m.cost(&plain(dep));
            assert!(c.is_finite() && c > 0.0);
        }
    }
}
