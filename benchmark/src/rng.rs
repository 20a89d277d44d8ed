//! The benchmark's own seeded generator. Every input (walk scripts, session
//! start templates, recommendation ranks, rating drafts) is drawn from a
//! `Rng` derived from `--seed`, so the program under test only ever sees
//! generated values and two runs of one seed see the same ones.

/// SplitMix64: tiny, stateless to fork, and stable across toolchains (the
/// vendored `rand` stand-in makes no such promise).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, stream)`: per-session and per-client
    /// streams must not depend on which thread ran first.
    pub fn fork(seed: u64, stream: u64) -> Self {
        let mut r = Self(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }

    /// Index drawn with probability proportional to `weights[i]`.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut x = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

/// Zipf(s) weights over ranks `1..=n`.
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = {
            let mut r = Rng::fork(7, 3);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::fork(7, 3);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut other = Rng::fork(7, 4);
        assert_ne!(a[0], other.next_u64());
    }

    #[test]
    fn below_and_weighted_stay_in_range() {
        let mut r = Rng::fork(1, 0);
        let w = zipf_weights(24, 1.0);
        let mut hits = [0usize; 24];
        for _ in 0..10_000 {
            assert!(r.below(5) < 5);
            hits[r.weighted(&w)] += 1;
        }
        // Zipf(1.0): rank 1 is drawn about twice as often as rank 2.
        assert!(hits[0] > hits[1] && hits[1] > hits[5]);
    }
}
