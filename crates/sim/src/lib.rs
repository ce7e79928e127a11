//! Execution-driven micro-architecture simulator for `mtperf`.
//!
//! The ISPASS 2007 paper trains its model tree on hardware-counter data
//! collected on a real Core 2 Duo running SPEC CPU2006. This crate is the
//! substitute for that measurement substrate: a single-core machine model
//! (split L1s, unified L2, two-level DTLB, ITLB, gshare branch predictor,
//! BTB, next-line L2 prefetcher, store buffer) driven by synthetic
//! instruction streams whose statistical character mimics SPEC members,
//! priced by a cycle-accounting model that reproduces the event interactions
//! the paper emphasizes (memory-level parallelism, out-of-order latency
//! hiding, stall shadowing).
//!
//! The caches, the TLBs and the BTB share one set-associative true-LRU tag
//! array: a TLB is a [`Cache`] whose line is a page ([`Cache::tlb`]), and
//! the [`Btb`] keeps its targets beside the same array of branch PCs.
//!
//! # Quick start
//!
//! ```
//! use mtperf_sim::{MachineConfig, Simulator};
//! use mtperf_sim::workload::profiles;
//!
//! let sim = Simulator::new(MachineConfig::core2_duo()).with_seed(1);
//! let workload = profiles::namd_like(150_000);
//! let sections = sim.run(&workload, 50_000);
//! assert_eq!(sections.len(), 3);
//! // namd-like is compute-dense: warm-section CPI is well under 1
//! // (the first section carries the cold-start misses).
//! assert!(sections.cpis().last().unwrap() < &1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch;
mod btb;
mod cache;
mod config;
mod cycle;
mod instr;
mod loadblock;
mod memory;
mod sim;
pub mod workload;

pub use branch::GsharePredictor;
pub use btb::Btb;
pub use cache::Cache;
pub use config::{CacheGeometry, MachineConfig, PredictorConfig, PrefetcherKind, TlbGeometry};
pub use cycle::{CycleModel, InstrEvents};
pub use instr::{Instr, InstrKind};
pub use loadblock::{LoadBlock, StoreBuffer};
pub use memory::{DataOutcome, FetchOutcome, MemoryHierarchy};
pub use sim::{Simulator, DEFAULT_SECTION_LEN};

/// Simulates the full SPEC-like suite and returns the merged dataset.
///
/// This is the one-call path from "nothing" to "the dataset the paper's
/// experiments run on": every profile in
/// [`workload::profiles::suite`] is executed for `instructions_per_workload`
/// instructions and sectioned every `section_len` instructions.
///
/// # Example
///
/// ```
/// let set = mtperf_sim::simulate_suite(60_000, 10_000, 42);
/// assert_eq!(set.workloads().len(), 15);
/// assert!(set.is_well_formed());
/// ```
pub fn simulate_suite(
    instructions_per_workload: u64,
    section_len: u64,
    seed: u64,
) -> mtperf_counters::SampleSet {
    let sim = Simulator::new(MachineConfig::core2_duo()).with_seed(seed);
    let mut all = mtperf_counters::SampleSet::new();
    for w in workload::profiles::suite(instructions_per_workload) {
        all.extend(sim.run(&w, section_len));
    }
    all
}
