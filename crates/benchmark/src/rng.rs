//! SplitMix64: the benchmark's only source of randomness, seeded from
//! `--seed`, so the same seed gives the same inputs.

/// A SplitMix64 generator.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_permutations_are_permutations() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert_eq!(a.next(), b.next());
        let mut p = a.permutation(50);
        assert_ne!(p, (0..50).collect::<Vec<_>>());
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
        assert!((0..1000).map(|_| a.unit()).all(|u| (0.0..1.0).contains(&u)));
    }
}
