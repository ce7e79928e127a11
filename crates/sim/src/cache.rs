//! Set-associative tag arrays with true-LRU replacement.
//!
//! One private [`Lru`] array holds the replacement rule of every
//! set-associative structure in the model: the caches and TLBs are
//! [`Cache`]s over lines and pages, and the BTB keeps its targets beside an
//! [`Lru`] of branch PCs.

use crate::config::{CacheGeometry, TlbGeometry};

/// A set-associative array of keys with true-LRU replacement.
///
/// Every touch advances the clock by one and stamps the touched way with
/// it. A resident key keeps its way; an absent key fills the lowest-index
/// invalid way of its set, or else evicts the way with the smallest stamp,
/// the first such way on a tie.
#[derive(Debug, Clone)]
pub(crate) struct Lru {
    sets: u64,
    ways: usize,
    /// `keys[set * ways + way]`; `u64::MAX` marks an invalid way.
    keys: Vec<u64>,
    /// LRU stamps parallel to `keys`; larger = more recent.
    stamps: Vec<u64>,
    clock: u64,
}

const INVALID: u64 = u64::MAX;

impl Lru {
    /// An empty array of `sets` sets with `ways` ways each.
    pub(crate) fn new(sets: u64, ways: u32) -> Self {
        let slots = (sets * u64::from(ways)) as usize;
        Lru {
            sets,
            ways: ways as usize,
            keys: vec![INVALID; slots],
            stamps: vec![0; slots],
            clock: 0,
        }
    }

    /// Touches `key` in set `index % sets`, installing it on a miss.
    /// Returns the slot (`set * ways + way`) that now holds `key` and
    /// whether `key` was already resident.
    pub(crate) fn touch(&mut self, index: u64, key: u64) -> (usize, bool) {
        let base = (index % self.sets) as usize * self.ways;
        let keys = &mut self.keys[base..base + self.ways];
        let stamps = &mut self.stamps[base..base + self.ways];
        self.clock += 1;
        let resident = keys.iter().position(|&k| k == key);
        let way = resident.unwrap_or_else(|| {
            let victim = keys.iter().position(|&k| k == INVALID).unwrap_or_else(|| {
                // `min_by_key` keeps the first of equal stamps.
                let oldest = stamps.iter().enumerate().min_by_key(|&(_, &s)| s);
                oldest.map_or(0, |(way, _)| way)
            });
            keys[victim] = key;
            victim
        });
        stamps[way] = self.clock;
        (base + way, resident.is_some())
    }
}

/// A set-associative cache with true-LRU replacement over 64-bit byte
/// addresses.
///
/// The model tracks tags only (no data); an access installs the line on a
/// miss. This is exactly what is needed to produce the miss *counts* the
/// PMU events report. A TLB is the same structure with a page for a line
/// ([`Cache::tlb`]).
///
/// # Example
///
/// ```
/// use mtperf_sim::{Cache, CacheGeometry, TlbGeometry};
///
/// let mut c = Cache::new(CacheGeometry { size_bytes: 1024, line_bytes: 64, ways: 2 });
/// assert!(c.access(0x0)); // cold miss
/// assert!(!c.access(0x4)); // same 64-byte line -> hit
///
/// let mut t = Cache::tlb(TlbGeometry { entries: 8, ways: 2 }, 4096);
/// assert!(t.access(0x0000)); // cold miss
/// assert!(!t.access(0x0800)); // same 4 KiB page -> hit
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    geometry: CacheGeometry,
    line_shift: u32,
    /// Tags keyed by line number.
    tags: Lru,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (see [`CacheGeometry::sets`]).
    pub fn new(geometry: CacheGeometry) -> Self {
        Cache {
            geometry,
            line_shift: geometry.line_bytes.trailing_zeros(),
            tags: Lru::new(geometry.sets(), geometry.ways),
        }
    }

    /// Creates an empty TLB: a cache whose line is a page, so its tags are
    /// virtual page numbers and its `size_bytes` is its reach (entries ×
    /// page size).
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is not a power of two, or `entries` is zero
    /// or not a multiple of `ways`.
    pub fn tlb(geometry: TlbGeometry, page_bytes: u64) -> Self {
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        Cache::new(CacheGeometry {
            size_bytes: u64::from(geometry.entries) * page_bytes,
            line_bytes: page_bytes,
            ways: geometry.ways,
        })
    }

    /// The configured geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Accesses `addr`; installs the line on a miss and updates LRU state.
    /// Returns `true` on a **miss**.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        !self.tags.touch(line, line).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 2 sets, 2 ways, 64-byte lines.
        Cache::new(CacheGeometry {
            size_bytes: 256,
            line_bytes: 64,
            ways: 2,
        })
    }

    fn tlb4() -> Cache {
        Cache::tlb(
            TlbGeometry {
                entries: 4,
                ways: 2,
            },
            4096,
        )
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(c.access(0x100));
        assert!(!c.access(0x100));
        assert!(!c.access(0x13f)); // same line
    }

    #[test]
    fn conflict_eviction_respects_lru() {
        let mut c = small();
        // Three lines mapping to set 0 (line % 2 == 0): lines 0, 2, 4.
        c.access(0);
        c.access(2 * 64);
        // Touch line 0 so line 2 is LRU.
        c.access(0);
        // Install line 4: must evict line 2.
        c.access(4 * 64);
        assert!(!c.access(0), "line 0 must have survived");
        assert!(!c.access(4 * 64), "line 4 must be resident");
        assert!(c.access(2 * 64), "line 2 must have been evicted");
    }

    #[test]
    fn working_set_within_capacity_hits_steady_state() {
        let mut c = Cache::new(CacheGeometry {
            size_bytes: 1024,
            line_bytes: 64,
            ways: 4,
        });
        let lines = 1024 / 64;
        // First pass: all cold misses.
        for i in 0..lines {
            assert!(c.access(i * 64));
        }
        // Steady state: everything hits.
        for _ in 0..3 {
            for i in 0..lines {
                assert!(!c.access(i * 64));
            }
        }
    }

    #[test]
    fn working_set_exceeding_capacity_thrashes() {
        let mut c = small(); // 4 lines capacity
        let lines = 16u64;
        // Sequential sweep over 16 lines repeatedly: with LRU every access
        // misses once the set cycles.
        let mut misses = 0;
        for _ in 0..4 {
            for i in 0..lines {
                misses += u64::from(c.access(i * 64));
            }
        }
        assert!(misses * 10 > 4 * lines * 9, "{misses} misses");
    }

    #[test]
    fn same_page_hits() {
        let mut t = tlb4();
        assert!(t.access(0x1000));
        assert!(!t.access(0x1fff));
        assert!(!t.access(0x1800));
    }

    #[test]
    fn tlb_reach_is_entries_times_page() {
        assert_eq!(tlb4().geometry().size_bytes, 4 * 4096);
    }

    #[test]
    fn working_set_within_reach_steady_hits() {
        let mut t = tlb4();
        // 4 pages spread over both sets (page numbers 0..4, 2 per set).
        for p in 0..4u64 {
            t.access(p * 4096);
        }
        for _ in 0..3 {
            for p in 0..4u64 {
                assert!(!t.access(p * 4096));
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_page_size() {
        Cache::tlb(
            TlbGeometry {
                entries: 4,
                ways: 2,
            },
            1000,
        );
    }
}
