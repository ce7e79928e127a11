//! Small shared helpers: a seeded generator, FNV-1a digests, order
//! statistics and process memory.

use std::time::Duration;

/// SplitMix64: small, portable and fully determined by its seed, so the
/// benchmark's inputs do not depend on any library's generator.
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one named purpose under one workload seed.
    pub fn stream(seed: u64, name: &str) -> Rng {
        Rng(fnv1a(name.as_bytes()) ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Incremental FNV-1a (64-bit).
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.update(bytes);
    h.finish()
}

/// Digest of a float sequence by exact bit pattern.
pub fn digest_f64s(values: &[f64]) -> u64 {
    let mut h = Fnv::new();
    for v in values {
        h.update(&v.to_bits().to_le_bytes());
    }
    h.finish()
}

/// Nearest-rank percentile (`p` in `[0, 100]`); 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Kernel clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`,
/// 100 on every Linux architecture the benchmark builds for).
const CLOCK_TICKS: f64 = 100.0;

/// CPU time (user plus system, all threads) a process has used so far, in
/// seconds, from `/proc`. On a VM the kernel leaves time stolen by the
/// host out of these counters.
pub fn cpu_seconds(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may hold spaces; the fields after it do not.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace();
    // After the name: state, then 10 fields, then utime and stime.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLOCK_TICKS)
}

/// Peak resident set (`VmHWM`) of a process in MB, from `/proc`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
