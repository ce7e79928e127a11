//! Branch target buffer.
//!
//! Direction prediction alone is not enough to keep fetch on track: a taken
//! branch whose *target* is unknown stalls the front end for a couple of
//! cycles while the target resolves (a BACLEAR-style redirect, much cheaper
//! than a full mispredict flush). The BTB caches targets by branch PC;
//! indirect-ish branches that keep changing targets keep missing.

use crate::cache::Lru;
use crate::config::TlbGeometry;

/// A set-associative branch target buffer keyed by branch PC, storing the
/// last observed target.
///
/// Reuses [`TlbGeometry`] for its shape (entries/ways) since the structures
/// are isomorphic.
///
/// # Example
///
/// ```
/// use mtperf_sim::{Btb, TlbGeometry};
///
/// let mut btb = Btb::new(TlbGeometry { entries: 512, ways: 4 });
/// assert!(btb.lookup_update(0x100, 0x4000)); // cold miss
/// assert!(!btb.lookup_update(0x100, 0x4000)); // cached
/// assert!(btb.lookup_update(0x100, 0x8000)); // target changed -> stale
/// ```
#[derive(Debug, Clone)]
pub struct Btb {
    /// Branch PCs; the set comes from `pc >> 2`, the key is the full PC.
    pcs: Lru,
    /// Last observed target per slot of `pcs`.
    targets: Vec<u64>,
}

impl Btb {
    /// Creates an empty BTB.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (see [`TlbGeometry::sets`]).
    pub fn new(geometry: TlbGeometry) -> Self {
        Btb {
            pcs: Lru::new(u64::from(geometry.sets()), geometry.ways),
            targets: vec![0; geometry.entries as usize],
        }
    }

    /// Looks up the cached target for a **taken** branch at `pc` and
    /// installs/updates the actual `target`. Returns `true` on a **miss**
    /// (absent or stale target — the front end redirects).
    pub fn lookup_update(&mut self, pc: u64, target: u64) -> bool {
        let (slot, resident) = self.pcs.touch(pc >> 2, pc);
        let hit = resident && self.targets[slot] == target;
        self.targets[slot] = target;
        !hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn btb() -> Btb {
        Btb::new(TlbGeometry {
            entries: 8,
            ways: 2,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut b = btb();
        assert!(b.lookup_update(0x40, 0x1000));
        assert!(!b.lookup_update(0x40, 0x1000));
    }

    #[test]
    fn stale_target_misses() {
        let mut b = btb();
        b.lookup_update(0x40, 0x1000);
        assert!(b.lookup_update(0x40, 0x2000), "changed target must miss");
        // The new target is now cached.
        assert!(!b.lookup_update(0x40, 0x2000));
    }

    #[test]
    fn capacity_eviction() {
        let mut b = btb(); // 4 sets x 2 ways
                           // Three branches in the same set (pc >> 2 congruent mod 4).
        let pcs = [0x10u64, 0x50, 0x90];
        for &pc in &pcs {
            b.lookup_update(pc, 0x1000);
        }
        // First pc evicted by LRU; re-lookup misses.
        assert!(b.lookup_update(pcs[0], 0x1000));
    }

    #[test]
    fn stable_targets_converge_to_hits() {
        let mut b = Btb::new(TlbGeometry {
            entries: 512,
            ways: 4,
        });
        for round in 0..4 {
            for i in 0..64u64 {
                let miss = b.lookup_update(i * 4, 0x4000 + i * 64);
                if round > 0 {
                    assert!(!miss, "pc {i} missed in round {round}");
                }
            }
        }
    }
}
