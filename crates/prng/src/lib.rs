//! Deterministic, dependency-free pseudo-random numbers for benches,
//! block-load jitter and randomized tests.
//!
//! The workspace must build and test **offline** (CI sandboxes have no
//! registry access), so external PRNG crates are off the table. This is a
//! [splitmix64](https://prng.di.unimi.it/splitmix64.c)-seeded
//! xoshiro256\*\* generator — 40 lines, stable across platforms and Rust
//! versions, and deliberately *not* cryptographic.
//!
//! ```
//! use smart_prng::Prng;
//! let mut r = Prng::new(42);
//! let a = r.f64_in(0.6, 1.8);
//! assert!((0.6..1.8).contains(&a));
//! assert_eq!(Prng::new(42).next_u64(), Prng::new(42).next_u64());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A small deterministic PRNG (xoshiro256\*\* seeded via splitmix64).
#[derive(Debug, Clone)]
pub struct Prng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Prng {
    /// A generator seeded deterministically from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        Prng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, n)`; `n` must be nonzero. Uses rejection sampling
    /// to stay unbiased.
    pub fn u64_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "u64_below needs a nonzero bound");
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.u64_below(hi - lo)
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.u64_in(lo as u64, hi as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A vector of `n` uniform draws from `[lo, hi)`.
    pub fn f64_vec(&mut self, lo: f64, hi: f64, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.f64_in(lo, hi)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = Prng::new(7);
        let mut b = Prng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_decorrelate() {
        assert_ne!(Prng::new(1).next_u64(), Prng::new(2).next_u64());
    }

    #[test]
    fn ranges_respected() {
        let mut r = Prng::new(3);
        for _ in 0..1000 {
            let v = r.u64_in(5, 9);
            assert!((5..9).contains(&v));
            let f = r.f64_in(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn f64_distribution_is_roughly_uniform() {
        let mut r = Prng::new(11);
        let n = 10_000;
        let mean = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
