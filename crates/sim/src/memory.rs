//! The memory hierarchy: split L1s, unified L2, two-level DTLB, ITLB and a
//! stream-detecting next-line L2 prefetcher.
//!
//! The hierarchy turns virtual addresses into *event outcomes*; the cycle
//! model prices them and the simulator core feeds them to the counter bank.
//! Note the asymmetry the paper's events impose: `MEM_LOAD_RETIRED.*` events
//! (L1DM, L2M, DtlbLdReM) count **loads only**, so stores and instruction
//! fetches update cache state without firing those counters.
//!
//! Every cache and TLB here is a [`Cache`]; a TLB's line is a page. Warm
//! and prefetch fills are accesses whose outcome is dropped.

use crate::cache::Cache;
use crate::config::{MachineConfig, PrefetcherKind};

/// Outcome of one data-side access.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataOutcome {
    /// The access missed the L1D.
    pub l1d_miss: bool,
    /// The access missed the L2 (implies `l1d_miss`).
    pub l2_miss: bool,
    /// The access missed the L0 micro-DTLB.
    pub dtlb0_miss: bool,
    /// The access missed the last-level DTLB (implies `dtlb0_miss`); a page
    /// walk was performed.
    pub dtlb_miss: bool,
    /// The access was not naturally aligned for its size.
    pub misaligned: bool,
    /// The access crossed a cache-line boundary.
    pub split: bool,
}

/// Outcome of one instruction fetch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchOutcome {
    /// The fetch missed the L1I.
    pub l1i_miss: bool,
    /// The fetch missed the L2 as well (code came from memory).
    pub l2_miss: bool,
    /// The fetch missed the ITLB.
    pub itlb_miss: bool,
}

/// The simulated memory hierarchy of one core.
///
/// # Example
///
/// ```
/// use mtperf_sim::{MachineConfig, MemoryHierarchy};
///
/// let mut mem = MemoryHierarchy::new(&MachineConfig::tiny());
/// let first = mem.data_access(0x2000_0000, 8);
/// assert!(first.l1d_miss && first.l2_miss);
/// let second = mem.data_access(0x2000_0000, 8);
/// assert!(!second.l1d_miss);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    dtlb0: Cache,
    dtlb1: Cache,
    itlb: Cache,
    line_bytes: u64,
    page_bytes: u64,
    prefetcher: PrefetcherKind,
    /// Stream-prefetcher tracking table (see [`StreamEntry`]).
    streams: [StreamEntry; N_STREAMS],
    stream_clock: u64,
    /// Rotating counter used to skip a fraction of prefetch issues
    /// (models finite fill bandwidth; keeps streaming workloads from
    /// becoming miss-free).
    prefetch_tick: u32,
}

/// Number of concurrent streams the L2 prefetcher tracks.
const N_STREAMS: usize = 4;

/// One tracked line stream.
#[derive(Debug, Clone, Copy)]
struct StreamEntry {
    /// Line most recently seen on this stream.
    last_line: u64,
    /// Line delta of the stream (1 for sequential; any constant in stride
    /// mode).
    stride: i64,
    /// Consecutive accesses matching the stride.
    streak: u32,
    /// LRU stamp.
    stamp: u64,
}

impl StreamEntry {
    fn idle() -> Self {
        StreamEntry {
            last_line: u64::MAX - 1,
            stride: 0,
            streak: 0,
            stamp: 0,
        }
    }
}

impl MemoryHierarchy {
    /// Creates a cold hierarchy per `config`.
    pub fn new(config: &MachineConfig) -> Self {
        MemoryHierarchy {
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            dtlb0: Cache::tlb(config.dtlb0, config.page_bytes),
            dtlb1: Cache::tlb(config.dtlb1, config.page_bytes),
            itlb: Cache::tlb(config.itlb, config.page_bytes),
            line_bytes: config.l1d.line_bytes,
            page_bytes: config.page_bytes,
            prefetcher: config.prefetcher,
            streams: [StreamEntry::idle(); N_STREAMS],
            stream_clock: 0,
            prefetch_tick: 0,
        }
    }

    /// Performs a data access of `size` bytes at `addr`.
    ///
    /// Stores allocate in the caches like loads (the L1D is write-allocate,
    /// write-back); split accesses touch both lines.
    pub fn data_access(&mut self, addr: u64, size: u8) -> DataOutcome {
        let mut out = DataOutcome::default();
        let size = size.max(1) as u64;
        out.misaligned = !addr.is_multiple_of(size);
        out.split = (addr % self.line_bytes) + size > self.line_bytes;

        // Translation: L0 micro-TLB backed by the big DTLB.
        out.dtlb0_miss = self.dtlb0.access(addr);
        if out.dtlb0_miss {
            out.dtlb_miss = self.dtlb1.access(addr);
        }

        out.l1d_miss = self.l1d.access(addr);
        if out.split {
            // The second line of a split access also occupies the cache but
            // the PMU counts the access once.
            let second = addr + size - 1;
            if self.l1d.access(second) {
                out.l1d_miss = true;
                self.l2_fill(second);
            }
        }
        if out.l1d_miss {
            out.l2_miss = self.l2.access(addr);
            self.stream_prefetch(addr);
        }
        out
    }

    /// A wrong-path (speculative) data touch: perturbs TLB/cache state and
    /// reports whether the last-level DTLB missed, but is never *retired* —
    /// callers use it to make speculative counters (`DTLB_MISSES.*`) run
    /// slightly ahead of retired ones (`MEM_LOAD_RETIRED.*`), as on real
    /// hardware.
    pub fn speculative_touch(&mut self, addr: u64) -> bool {
        let dtlb0_miss = self.dtlb0.access(addr);
        let dtlb_miss = if dtlb0_miss {
            self.dtlb1.access(addr)
        } else {
            false
        };
        if self.l1d.access(addr) {
            self.l2.access(addr);
        }
        dtlb_miss
    }

    /// Performs an instruction fetch at `pc`.
    pub fn fetch_access(&mut self, pc: u64) -> FetchOutcome {
        let mut out = FetchOutcome {
            itlb_miss: self.itlb.access(pc),
            l1i_miss: self.l1i.access(pc),
            ..Default::default()
        };
        if out.l1i_miss {
            out.l2_miss = self.l2.access(pc);
            if !out.l2_miss || self.prefetcher == PrefetcherKind::Off {
                return out;
            }
            // Sequential code prefetch: pull the next line into L2.
            self.l2.access(pc + self.line_bytes);
        }
        out
    }

    /// Detects line streams at the L2 and prefetches ahead.
    ///
    /// A small table tracks up to [`N_STREAMS`] concurrent streams so that
    /// interleaved random traffic does not break an established stream.
    /// Called on every L2 demand access (hit or miss) so streams keep
    /// prefetching once their lines start hitting. One in eight prefetch
    /// opportunities is skipped, modeling finite fill bandwidth — streaming
    /// workloads keep a residual demand-miss rate, as on real hardware.
    ///
    /// In [`PrefetcherKind::NextLine`] mode only `+1` line deltas train a
    /// stream; [`PrefetcherKind::Stride`] accepts any constant delta, which
    /// additionally covers strided stencil sweeps.
    fn stream_prefetch(&mut self, addr: u64) {
        if self.prefetcher == PrefetcherKind::Off {
            return;
        }
        let line = addr / self.line_bytes;
        self.stream_clock += 1;
        // Same-line repeats (sub-line strides) are ignored.
        if self.streams.iter().any(|s| s.last_line == line) {
            return;
        }
        let stride_mode = self.prefetcher == PrefetcherKind::Stride;
        let matches = |s: &StreamEntry| -> Option<i64> {
            let delta = line as i64 - s.last_line as i64;
            if delta == 0 || delta.unsigned_abs() > 16 {
                return None;
            }
            if stride_mode {
                Some(delta)
            } else if delta == 1 {
                Some(1)
            } else {
                None
            }
        };
        let mut hit: Option<(usize, i64)> = None;
        for (i, s) in self.streams.iter().enumerate() {
            if let Some(delta) = matches(s) {
                hit = Some((i, delta));
                break;
            }
        }
        if let Some((i, delta)) = hit {
            let clock = self.stream_clock;
            let s = &mut self.streams[i];
            if delta == s.stride {
                s.streak = s.streak.saturating_add(1);
            } else {
                s.stride = delta;
                s.streak = 1;
            }
            s.last_line = line;
            s.stamp = clock;
            let (streak, stride) = (s.streak, s.stride);
            if streak >= 2 {
                self.prefetch_tick = self.prefetch_tick.wrapping_add(1);
                if self.prefetch_tick % 8 != 7 {
                    let next = line as i64 + stride;
                    if next > 0 {
                        self.l2.access(next as u64 * self.line_bytes);
                    }
                }
            }
            return;
        }
        // Allocate the LRU entry to this (potential) new stream.
        let victim = self
            .streams
            .iter_mut()
            .min_by_key(|s| s.stamp)
            .expect("non-empty stream table");
        victim.last_line = line;
        victim.stride = 0;
        victim.streak = 0;
        victim.stamp = self.stream_clock;
    }

    fn l2_fill(&mut self, addr: u64) {
        if self.l2.access(addr) {
            self.stream_prefetch(addr);
        }
    }

    /// Silently warms the hierarchy for steady-state measurement: installs
    /// `data_bytes` of the data region (clamped to the L2 capacity) into the
    /// L2, the head of it into the L1D, pre-translates data pages up to the
    /// DTLB reach and code pages up to the ITLB reach, and pulls the head of
    /// the code region into the L1I.
    ///
    /// Real applications touch their data during initialization; warming
    /// replaces simulating that init phase, so the emitted sections reflect
    /// each phase's steady behavior rather than compulsory-miss transients.
    /// No counter is affected.
    pub fn warm(&mut self, data_base: u64, data_bytes: u64, code_base: u64, code_bytes: u64) {
        let line = self.line_bytes;
        let l2_cap = self.l2.geometry().size_bytes;
        let warm_data = data_bytes.min(l2_cap.saturating_sub(code_bytes.min(l2_cap / 2)));
        let mut addr = data_base;
        while addr < data_base + warm_data {
            self.l2.access(addr);
            addr += line;
        }
        let l1d_cap = self.l1d.geometry().size_bytes;
        let mut addr = data_base;
        while addr < data_base + data_bytes.min(l1d_cap / 2) {
            self.l1d.access(addr);
            addr += line;
        }
        // TLB warm: install leading pages up to half of each reach.
        let page_bytes = self.page_bytes;
        let mut addr = data_base;
        while addr < data_base + data_bytes.min(self.dtlb1.geometry().size_bytes / 2) {
            self.dtlb0.access(addr);
            self.dtlb1.access(addr);
            addr += page_bytes;
        }
        let mut addr = code_base;
        while addr < code_base + code_bytes.min(self.itlb.geometry().size_bytes / 2) {
            self.itlb.access(addr);
            addr += page_bytes;
        }
        let l1i_cap = self.l1i.geometry().size_bytes;
        let mut addr = code_base;
        while addr < code_base + code_bytes.min(l1i_cap / 2) {
            self.l1i.access(addr);
            addr += line;
        }
        let mut addr = code_base;
        while addr < code_base + code_bytes.min(l2_cap / 4) {
            self.l2.access(addr);
            addr += line;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(&MachineConfig::tiny())
    }

    #[test]
    fn cold_then_warm_data() {
        let mut m = mem();
        let a = m.data_access(0x2000_0000, 8);
        assert!(a.l1d_miss && a.l2_miss && a.dtlb0_miss && a.dtlb_miss);
        let b = m.data_access(0x2000_0000, 8);
        assert_eq!(b, DataOutcome::default());
    }

    #[test]
    fn misaligned_and_split_detection() {
        let mut m = mem();
        // 8-byte access at offset 61 of a 64-byte line: misaligned and split.
        let o = m.data_access(0x2000_0000 + 61, 8);
        assert!(o.misaligned && o.split);
        // Misaligned but within the line.
        let o = m.data_access(0x2000_0000 + 12 + 1, 4);
        assert!(o.misaligned && !o.split);
        // Aligned.
        let o = m.data_access(0x2000_0000 + 64, 8);
        assert!(!o.misaligned && !o.split);
    }

    #[test]
    fn split_access_loads_both_lines() {
        let mut m = mem();
        let line = 64u64;
        // Split access at the end of line 0 pulls in line 1 too.
        m.data_access(0x2000_0000 + line - 4, 8);
        let second_line = m.data_access(0x2000_0000 + line, 8);
        assert!(!second_line.l1d_miss, "second line must be resident");
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut m = mem();
        let base = 0x2000_0000u64;
        m.data_access(base, 8);
        // Evict from the tiny 1 KiB L1 (16 lines) by touching 64 other lines
        // that still fit in the 8 KiB L2 (128 lines).
        for i in 1..=64u64 {
            m.data_access(base + i * 64, 8);
        }
        let back = m.data_access(base, 8);
        assert!(back.l1d_miss, "must have left L1");
        assert!(!back.l2_miss, "must still be in L2");
    }

    #[test]
    fn dtlb_hierarchy_l0_miss_big_hit() {
        let mut m = mem();
        // Touch 6 pages: overflows the 4-entry L0 but fits the 8-entry DTLB1.
        for p in 0..6u64 {
            m.data_access(0x2000_0000 + p * 4096, 8);
        }
        // Second sweep: L0 thrashes, DTLB1 holds.
        let mut dtlb0_misses = 0;
        let mut dtlb_misses = 0;
        for p in 0..6u64 {
            let o = m.data_access(0x2000_0000 + p * 4096, 8);
            dtlb0_misses += o.dtlb0_miss as u32;
            dtlb_misses += o.dtlb_miss as u32;
        }
        assert!(dtlb0_misses > 0);
        assert_eq!(dtlb_misses, 0);
    }

    #[test]
    fn fetch_outcomes() {
        let mut m = mem();
        let f = m.fetch_access(0x4000_0000);
        assert!(f.l1i_miss && f.l2_miss && f.itlb_miss);
        let f = m.fetch_access(0x4000_0004);
        assert_eq!(f, FetchOutcome::default());
    }

    #[test]
    fn stream_prefetch_reduces_l2_misses_on_sequential_walk() {
        let cfg = MachineConfig::tiny();
        let mut with = MemoryHierarchy::new(&cfg);
        let mut without = {
            let mut c = cfg.clone();
            c.prefetcher = crate::config::PrefetcherKind::Off;
            MemoryHierarchy::new(&c)
        };
        // Sequential walk over 256 lines (16 KiB), far beyond the 8 KiB L2.
        let mut misses_with = 0;
        let mut misses_without = 0;
        for i in 0..256u64 {
            let addr = 0x3000_0000 + i * 64;
            misses_with += with.data_access(addr, 8).l2_miss as u32;
            misses_without += without.data_access(addr, 8).l2_miss as u32;
        }
        assert!(
            misses_with * 2 <= misses_without,
            "prefetch: {misses_with}, no prefetch: {misses_without}"
        );
    }

    #[test]
    fn stride_prefetcher_catches_strided_sweeps_nextline_does_not() {
        let base_cfg = MachineConfig::tiny();
        let mut stride_cfg = base_cfg.clone();
        stride_cfg.prefetcher = crate::config::PrefetcherKind::Stride;
        let mut next = MemoryHierarchy::new(&base_cfg);
        let mut strided = MemoryHierarchy::new(&stride_cfg);
        // 2-line stride sweep (128-byte step) over 512 lines.
        let mut misses_next = 0;
        let mut misses_stride = 0;
        for i in 0..256u64 {
            let addr = 0x5000_0000 + i * 128;
            misses_next += next.data_access(addr, 8).l2_miss as u32;
            misses_stride += strided.data_access(addr, 8).l2_miss as u32;
        }
        assert!(
            misses_stride * 2 <= misses_next,
            "stride {misses_stride} vs next-line {misses_next}"
        );
    }

    #[test]
    fn off_prefetcher_never_installs() {
        let mut cfg = MachineConfig::tiny();
        cfg.prefetcher = crate::config::PrefetcherKind::Off;
        let mut with_off = MemoryHierarchy::new(&cfg);
        let mut with_on = MemoryHierarchy::new(&MachineConfig::tiny());
        let mut misses_off = 0;
        let mut misses_on = 0;
        for i in 0..256u64 {
            let addr = 0x6000_0000 + i * 64;
            misses_off += with_off.data_access(addr, 8).l2_miss as u32;
            misses_on += with_on.data_access(addr, 8).l2_miss as u32;
        }
        assert!(misses_off > misses_on, "off {misses_off} vs on {misses_on}");
    }

    #[test]
    fn speculative_touch_warms_tlb_without_retired_outcome() {
        let mut m = mem();
        let addr = 0x2000_0000u64;
        assert!(m.speculative_touch(addr), "cold speculative walk");
        // The retired access now finds the TLB warm.
        let o = m.data_access(addr, 8);
        assert!(!o.dtlb_miss);
    }
}
