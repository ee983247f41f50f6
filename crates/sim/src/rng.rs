//! Deterministic per-node random number generation.
//!
//! Each node owns an independent generator seeded from the run seed and the
//! node id, so adding a node (or reordering callbacks within one time step)
//! never perturbs the random stream of another node. The generator is
//! SplitMix64 — tiny, fast, and statistically adequate for timer jitter and
//! hash seeding (we are not doing Monte Carlo here).

/// SplitMix64's output function: a bijection of `u64` that avalanches
/// every input bit. The generator below applies it to a counter;
/// [`crate::hash::Hash64`] applies it to its folded state.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic SplitMix64 generator.
#[derive(Clone, Debug)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Create a generator from a run seed and a node-specific salt.
    pub fn new(seed: u64, salt: u64) -> Self {
        // Mix the two inputs so (seed, salt) and (salt, seed) differ.
        let mut s = seed ^ salt.rotate_left(32) ^ 0x9e37_79b9_7f4a_7c15;
        if s == 0 {
            s = 0x2545_f491_4f6c_dd1d;
        }
        DetRng { state: s }
    }

    /// Next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.state)
    }

    /// Uniform draw in `[0, bound)`. `bound` must be nonzero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Lemire's multiply-shift rejection-free variant is overkill here;
        // a 128-bit multiply gives negligible bias for our bounds (< 2^32).
        (((self.next_u64() as u128) * (bound as u128)) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = DetRng::new(42, 7);
        let mut b = DetRng::new(42, 7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_salts_diverge() {
        let mut a = DetRng::new(42, 1);
        let mut b = DetRng::new(42, 2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = DetRng::new(1, 1);
        for _ in 0..10_000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = DetRng::new(3, 9);
        let mut buckets = [0u32; 8];
        let n = 80_000;
        for _ in 0..n {
            buckets[r.below(8) as usize] += 1;
        }
        let expect = n / 8;
        for &b in &buckets {
            // Within 5% of expectation is plenty for SplitMix64.
            assert!((b as i64 - expect as i64).unsigned_abs() < expect as u64 / 20);
        }
    }

    #[test]
    fn zero_seed_is_handled() {
        let mut r = DetRng::new(0, 0);
        // Must not get stuck emitting zeros.
        assert!((0..10).map(|_| r.next_u64()).any(|v| v != 0));
    }
}
