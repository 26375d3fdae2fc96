//! Reproducible random number streams.
//!
//! Every stochastic component (mobility, traffic, MAC backoff, …) draws from
//! its own [`RngStream`], derived from the scenario's master seed and a
//! stable stream label. Components therefore consume independent sequences:
//! adding a draw in one component cannot perturb another, which keeps
//! A/B protocol comparisons paired and regression diffs meaningful.
//!
//! The derivation is SplitMix64 over `master_seed XOR hash(label)`, a
//! standard seed-spreading construction; the stream itself is rand's
//! `SmallRng` (xoshiro-family), which is fast and adequate for simulation.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// SplitMix64 step — spreads low-entropy seeds across the whole state space.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the label bytes — stable across platforms and compiler
/// versions (unlike `DefaultHasher`).
fn label_hash(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A named, reproducible random stream.
#[derive(Debug, Clone)]
pub struct RngStream {
    rng: SmallRng,
}

impl RngStream {
    /// Derive the stream `label` from `master_seed`.
    pub fn derive(master_seed: u64, label: &str) -> Self {
        let mut state = master_seed ^ label_hash(label);
        // Two warm-up rounds decorrelate adjacent master seeds.
        let _ = splitmix64(&mut state);
        let seed = splitmix64(&mut state);
        RngStream {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derive a per-entity substream, e.g. one per node.
    pub fn derive_sub(master_seed: u64, label: &str, index: u64) -> Self {
        let mut state = master_seed ^ label_hash(label) ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let _ = splitmix64(&mut state);
        let seed = splitmix64(&mut state);
        RngStream {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The raw 256-bit generator state, for checkpointing.
    pub fn state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Rebuild a stream from a state captured by [`RngStream::state`];
    /// the restored stream continues the sequence exactly.
    pub fn from_state(s: [u64; 4]) -> Self {
        RngStream {
            rng: SmallRng::from_state(s),
        }
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        self.rng.random_range(0..n)
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    #[inline]
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        self.rng.random_range(lo..=hi)
    }

    /// Uniform float in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.random_range(lo..hi)
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        self.rng.random_range(0.0..1.0)
    }

    /// Exponentially distributed value with the given mean (inverse
    /// transform sampling; used by Poisson traffic).
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        // unit() is in [0,1); 1-u is in (0,1] so ln() is finite.
        -mean * (1.0 - self.unit()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = RngStream::derive(42, "mac");
        let mut b = RngStream::derive(42, "mac");
        for _ in 0..100 {
            assert_eq!(a.below(1000), b.below(1000));
        }
    }

    #[test]
    fn different_labels_diverge() {
        let mut a = RngStream::derive(42, "mac");
        let mut b = RngStream::derive(42, "traffic");
        let same = (0..100).filter(|_| a.below(1000) == b.below(1000)).count();
        assert!(same < 10, "streams should be effectively independent");
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = RngStream::derive(1, "mac");
        let mut b = RngStream::derive(2, "mac");
        let same = (0..100).filter(|_| a.below(1000) == b.below(1000)).count();
        assert!(same < 10);
    }

    #[test]
    fn substreams_are_distinct_per_index() {
        let mut a = RngStream::derive_sub(7, "node", 0);
        let mut b = RngStream::derive_sub(7, "node", 1);
        let same = (0..100).filter(|_| a.below(1000) == b.below(1000)).count();
        assert!(same < 10);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = RngStream::derive(3, "bounds");
        for _ in 0..1000 {
            let v = r.uniform(2.0, 5.0);
            assert!((2.0..5.0).contains(&v));
            let i = r.range_inclusive(10, 12);
            assert!((10..=12).contains(&i));
        }
    }

    #[test]
    fn exponential_mean_is_roughly_right() {
        let mut r = RngStream::derive(9, "exp");
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(4.0)).sum();
        let mean = sum / n as f64;
        assert!(
            (mean - 4.0).abs() < 0.15,
            "sample mean {mean} too far from 4.0"
        );
    }

    #[test]
    fn label_hash_is_stable() {
        // Pinned value: determinism across platforms is part of the contract.
        assert_eq!(label_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(label_hash("mac"), label_hash("mac"));
        assert_ne!(label_hash("mac"), label_hash("mak"));
    }
}
