//! A tiny deterministic PRNG for the program generator and the benchmark.
//!
//! Both must be reproducible: the same seed must produce the same
//! generated program (`rml-gen`) and the same op order (`perfbench`). No
//! ambient randomness is ever consulted — the seed is always passed
//! explicitly.

/// A xorshift64* generator. Small, fast, and — crucially — deterministic
/// across platforms and runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Xorshift64 {
    state: u64,
}

impl Xorshift64 {
    /// Creates a generator from a seed. The seed is pre-mixed through a
    /// splitmix64 step so that small consecutive seeds (0, 1, 2, …) still
    /// produce unrelated streams; a zero seed is remapped (xorshift has a
    /// fixed point at zero).
    pub fn new(seed: u64) -> Xorshift64 {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Xorshift64 {
            state: if z == 0 { 0x9E37_79B9_7F4A_7C15 } else { z },
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform value in `0..n` (`0` when `n == 0`).
    pub fn next_below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        // Multiply-shift reduction: unbiased enough for scheduling, and
        // branch-free.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A biased coin: true with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        if den == 0 {
            return false;
        }
        self.next_below(den) < num
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Xorshift64::new(42);
        let mut b = Xorshift64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xorshift64::new(1);
        let mut b = Xorshift64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = Xorshift64::new(0);
        let v: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert!(v.iter().any(|x| *x != 0));
    }

    #[test]
    fn next_below_stays_in_range() {
        let mut r = Xorshift64::new(7);
        for n in [1u64, 2, 3, 10, 255, 1 << 40] {
            for _ in 0..100 {
                assert!(r.next_below(n) < n);
            }
        }
        assert_eq!(r.next_below(0), 0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = Xorshift64::new(9);
        for _ in 0..100 {
            assert!(r.chance(1, 1));
            assert!(!r.chance(0, 5));
            assert!(!r.chance(1, 0));
        }
    }
}
