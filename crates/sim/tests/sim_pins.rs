//! Pins for the simulator's behaviour: the replacement rule of its
//! set-associative structures, checked against a reference LRU model, and
//! the simulated bytes of every built-in machine.
//!
//! The byte pins are FNV-1a 64 digests of the `write_csv` output. Re-mine
//! one only when a change means to alter the simulated bytes: print the
//! digest from the failing assertion and say why in the same commit.

use std::collections::{HashMap, VecDeque};

use mtperf_counters::SampleSet;
use mtperf_sim::workload::profiles;
use mtperf_sim::{Btb, Cache, CacheGeometry, MachineConfig, Simulator, TlbGeometry};
use proptest::prelude::*;

/// A reference true-LRU set: most recent key at the front.
struct RecencyList {
    ways: usize,
    keys: VecDeque<u64>,
}

impl RecencyList {
    fn new(ways: usize) -> Self {
        RecencyList {
            ways,
            keys: VecDeque::with_capacity(ways),
        }
    }

    /// Touches `key`; returns `true` on a miss. A hit moves the key to the
    /// front; a miss inserts it there and drops the back of a full set.
    fn touch(&mut self, key: u64) -> bool {
        if let Some(i) = self.keys.iter().position(|&k| k == key) {
            self.keys.remove(i);
            self.keys.push_front(key);
            return false;
        }
        if self.keys.len() == self.ways {
            self.keys.pop_back();
        }
        self.keys.push_front(key);
        true
    }
}

const LINE: u64 = 64;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A cache misses exactly where a per-set recency list does, for set
    /// counts that are not powers of two as well as those that are.
    #[test]
    fn cache_misses_match_a_reference_lru(
        sets in 1u64..7,
        ways in 1u32..5,
        stream in prop::collection::vec((0u64..32, 0u64..LINE), 1..400),
    ) {
        let mut cache = Cache::new(CacheGeometry {
            size_bytes: sets * ways as u64 * LINE,
            line_bytes: LINE,
            ways,
        });
        let mut reference: Vec<RecencyList> =
            (0..sets).map(|_| RecencyList::new(ways as usize)).collect();
        for (i, &(line, offset)) in stream.iter().enumerate() {
            let want = reference[(line % sets) as usize].touch(line);
            let got = cache.access(line * LINE + offset);
            prop_assert_eq!(got, want, "access {} (line {})", i, line);
        }
    }

    /// A BTB lookup misses exactly when the PC is absent from a per-set
    /// recency list or its cached target is stale. The PCs `site*4 +
    /// site%3` are mostly unaligned: the set is `(pc >> 2) % sets`, the key
    /// the full PC.
    #[test]
    fn btb_misses_match_a_reference_lru(
        stream in prop::collection::vec((0u64..12, 0u64..3), 1..400),
    ) {
        const SETS: u64 = 3;
        let mut btb = Btb::new(TlbGeometry { entries: 6, ways: 2 });
        let mut reference: Vec<RecencyList> = (0..SETS).map(|_| RecencyList::new(2)).collect();
        let mut targets = HashMap::new();
        for (i, &(site, target)) in stream.iter().enumerate() {
            let pc = site * 4 + site % 3;
            let absent = reference[((pc >> 2) % SETS) as usize].touch(pc);
            let stale = targets.insert(pc, target) != Some(target);
            let got = btb.lookup_update(pc, target);
            prop_assert_eq!(got, absent || stale, "lookup {} (pc {:#x})", i, pc);
        }
    }
}

/// FNV-1a 64 over `bytes`.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The CSV bytes of the whole profile suite on `machine`, seed 2007.
fn suite_csv(machine: MachineConfig, warmup: bool, instructions: u64, section_len: u64) -> Vec<u8> {
    let sim = Simulator::new(machine).with_seed(2007).with_warmup(warmup);
    let mut set = SampleSet::new();
    for w in profiles::suite(instructions) {
        set.extend(sim.run(&w, section_len));
    }
    let mut csv = Vec::new();
    mtperf_counters::write_csv(&set, &mut csv).expect("write to a Vec");
    csv
}

/// Asserts the length and digest of one machine's suite CSV.
fn assert_pinned(csv: &[u8], len: usize, digest: u64) {
    assert_eq!(
        (csv.len(), fnv1a_64(csv)),
        (len, digest),
        "simulated bytes moved: got {} bytes, digest {:#x}",
        csv.len(),
        fnv1a_64(csv)
    );
}

/// Equal to the `mtperf simulate` digest pinned in the CLI tests.
#[test]
fn core2_duo_bytes_are_pinned() {
    let csv = suite_csv(MachineConfig::core2_duo(), true, 40_000, 10_000);
    assert_pinned(&csv, 29_911, 0xcb6a_f614_f79e_cb6f);
}

#[test]
fn netburst_like_bytes_are_pinned() {
    let csv = suite_csv(MachineConfig::netburst_like(), true, 40_000, 10_000);
    assert_pinned(&csv, 29_920, 0x8345_02f9_e176_2677);
}

#[test]
fn tiny_bytes_are_pinned() {
    let csv = suite_csv(MachineConfig::tiny(), true, 40_000, 10_000);
    assert_pinned(&csv, 29_994, 0x9eea_59b5_e677_d1ba);
}

/// Without warmup every structure starts cold, so the fill of invalid ways
/// shows in the bytes.
#[test]
fn tiny_cold_bytes_are_pinned() {
    let csv = suite_csv(MachineConfig::tiny(), false, 20_000, 5_000);
    assert_pinned(&csv, 29_952, 0x3325_7f06_a7db_0de5);
}
