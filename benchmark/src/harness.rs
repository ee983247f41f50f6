//! Measurement plumbing that knows nothing about the system under test:
//! order statistics, the seed stream, the counting allocator, peak RSS,
//! the host-speed calibration kernel and the provenance header.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

/// First quartile, median and third quartile, by the rule of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) — the rule the
/// acceptance check applies to the benchmark's own output.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    let m = v.len();
    if m == 1 {
        return Quartiles {
            q1: v[0],
            median: v[0],
            q3: v[0],
        };
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Quartiles {
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

/// The `p`-quantile by linear interpolation between order statistics.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    let rank = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The rate of the fast-decile round: the 90th percentile of per-round
/// rates. Every round of a workload does identical simulated work, so what
/// differs between rounds is host interference, and that only ever slows a
/// round. On this host the median round moved 4–8 % between runs of one
/// commit, the fast decile 2 % (see README); the decile rather than the
/// single fastest round, so that no result hangs on one timing.
pub fn fast_decile_rate(rates: &[f64]) -> f64 {
    quantile(rates, 0.9)
}

/// The same for a cost (time per operation): the 10th percentile.
pub fn fast_decile_cost(costs: &[f64]) -> f64 {
    quantile(costs, 0.1)
}

/// The fastest of a few repetitions of a fixed probe.
pub fn fastest(costs: &[f64]) -> f64 {
    costs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The deterministic input stream: every generated input (run seeds,
/// chaos seeds, flow source ports) is drawn from `--seed` through this.
#[derive(Clone, Debug)]
pub struct SeedStream(u64);

impl SeedStream {
    pub fn new(seed: u64, lane: u64) -> SeedStream {
        SeedStream(seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// splitmix64.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator can neither allocate nor run after teardown.
    static ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Counting allocator: per-thread (count, bytes) of allocations, no
/// atomics, so pool threads do not contend on a shared counter.
pub struct CountingAlloc;

// SAFETY: every request is forwarded unchanged to `System`; the only
// addition is a thread-local counter bump that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| {
            let (n, b) = c.get();
            c.set((n + 1, b + layout.size() as u64));
        });
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| {
            let (n, b) = c.get();
            c.set((n + 1, b + new_size as u64));
        });
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// (allocations, bytes requested) made by the calling thread so far.
pub fn thread_allocs() -> (u64, u64) {
    ALLOCS.with(|c| c.get())
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Fixed xorshift kernel timed between rounds: the same instructions every
/// time, so a change in its time is a change in host speed.
pub fn calib_ns() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for _ in 0..1_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_nanos() as f64
}

/// FNV-1a over the generated input keys: which inputs a result is about.
pub fn keys_hash(keys: &[String]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for byte in keys
        .iter()
        .flat_map(|k| k.bytes().chain(std::iter::once(b'\n')))
    {
        h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Git revision of the checkout the benchmark runs in, read from `.git`
/// without starting a process; `unknown` outside a repository.
pub fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A repeated microsecond-scale probe: `reps` timed calls of `f`, each
/// covering `iters` operations; returns the fastest, in ns per operation.
pub fn time_per_op(reps: usize, iters: u64, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    fastest(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let q = quartiles(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        assert!(
            (quartiles(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]).spread() - 1.0).abs()
                < 1e-12
        );
        assert_eq!(quartiles(&[4.0]).median, 4.0);
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((fast_decile_rate(&v) - 4.6).abs() < 1e-12);
        assert!((fast_decile_cost(&v) - 1.4).abs() < 1e-12);
        assert_eq!(fastest(&v), 1.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn seed_stream_is_deterministic_and_seed_sensitive() {
        let draw = |seed, lane| {
            let mut s = SeedStream::new(seed, lane);
            (0..4).map(|_| s.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(2, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
        assert!(SeedStream::new(3, 0).below(10) < 10);
    }

    #[test]
    fn counting_allocator_sees_this_threads_allocations() {
        let before = thread_allocs();
        let v: Vec<u8> = Vec::with_capacity(4096);
        std::hint::black_box(&v);
        let after = thread_allocs();
        assert!(after.0 > before.0);
        assert!(after.1 >= before.1 + 4096);
    }

    #[test]
    fn peak_rss_and_calibration_read_something() {
        assert!(peak_rss_mb() > 0.0);
        assert!(calib_ns() > 0.0);
        assert!(cores() >= 1);
    }
}
