//! Fixed-memory streaming latency summaries.
//!
//! Latency populations (route-discovery waits, route-repair times) used
//! to accumulate in per-node `Vec<f64>`s, growing linearly with run
//! length. [`StreamingQuantile`] caps that at a constant: it keeps the
//! first [`EXACT_CAP`] samples verbatim (so short runs summarize *bit
//! for bit* like a sorted sample vector) and, in parallel, always feeds
//! a fixed bank of power-of-two latency buckets plus integer-quantized
//! running moments. Past the cap the summary degrades gracefully to the
//! bucket estimate — still deterministic, still mergeable.
//!
//! Merge discipline: every reduction here is commutative and
//! associative — bucket counts and the nanosecond-quantized sum add as
//! integers, the maximum folds, and the exact path is only consulted
//! when the *combined* population fits the cap (where the consumer
//! sorts before summarizing). A sharded run can therefore merge
//! per-shard estimators in any grouping and obtain exactly the summary
//! of the single-threaded run.

use serde::{Deserialize, Serialize};

/// Population size up to which samples are kept verbatim. Summaries of
/// populations at or under the cap are exact (identical to sorting the
/// raw sample vector); larger populations fall back to the buckets.
pub const EXACT_CAP: usize = 512;

/// Smallest distinguished binary exponent: 2⁻²⁰ s ≈ 0.95 µs. Anything
/// faster lands in the first bucket.
const MIN_EXP: i32 = -20;
/// Largest distinguished binary exponent: 2¹⁰ s = 1024 s. Anything
/// slower lands in the last bucket.
const MAX_EXP: i32 = 10;
/// Number of power-of-two buckets covering `[2^MIN_EXP, 2^(MAX_EXP+1))`.
const BUCKETS: usize = (MAX_EXP - MIN_EXP + 1) as usize;

/// Bucket index of a latency in seconds, by raw binary exponent — no
/// transcendental functions, so the mapping is exact on every platform.
#[inline]
fn bucket_of(v: f64) -> usize {
    if v <= 0.0 || !v.is_finite() {
        return 0;
    }
    let exp = ((v.to_bits() >> 52) & 0x7ff) as i32 - 1023;
    (exp.clamp(MIN_EXP, MAX_EXP) - MIN_EXP) as usize
}

/// A constant-memory latency population summary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamingQuantile {
    /// The first [`EXACT_CAP`] samples, insertion order. Only consulted
    /// while `count <= EXACT_CAP`.
    exact: Vec<f64>,
    /// Total samples recorded.
    count: u64,
    /// Sum quantized to nanoseconds — integer addition is associative,
    /// so merge grouping cannot perturb the mean.
    sum_ns: u64,
    /// Largest sample.
    max_s: f64,
    /// Power-of-two latency histogram: empty until the first sample (an
    /// estimator per node is the common case and most never record),
    /// then [`BUCKETS`] long.
    buckets: Vec<u64>,
}

impl Default for StreamingQuantile {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingQuantile {
    /// An empty summary.
    pub fn new() -> Self {
        StreamingQuantile {
            exact: Vec::new(),
            count: 0,
            sum_ns: 0,
            max_s: 0.0,
            buckets: Vec::new(),
        }
    }

    /// Record one latency (seconds).
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum_ns = self
            .sum_ns
            .saturating_add((v.max(0.0) * 1e9).round() as u64);
        if v > self.max_s {
            self.max_s = v;
        }
        self.buckets.resize(BUCKETS, 0);
        self.buckets[bucket_of(v)] += 1;
        if self.exact.len() < EXACT_CAP {
            self.exact.push(v);
        }
    }

    /// Fold `other` into `self`. Commutative up to the insertion order
    /// of the exact sample list, which only matters while the combined
    /// population fits [`EXACT_CAP`] — and there the consumer sorts.
    pub fn merge(&mut self, other: &StreamingQuantile) {
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        if other.max_s > self.max_s {
            self.max_s = other.max_s;
        }
        self.buckets
            .resize(other.buckets.len().max(self.buckets.len()), 0);
        for (b, &o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        let room = EXACT_CAP.saturating_sub(self.exact.len());
        self.exact
            .extend_from_slice(&other.exact[..other.exact.len().min(room)]);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` while every sample is still held verbatim — summaries are
    /// then exactly those of the raw sample vector.
    pub fn is_exact(&self) -> bool {
        self.count <= EXACT_CAP as u64
    }

    /// The verbatim samples (meaningful only while [`Self::is_exact`]).
    pub fn exact_samples(&self) -> &[f64] {
        &self.exact
    }

    /// Mean latency from the quantized running sum (seconds).
    pub fn mean_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.sum_ns as f64 / self.count as f64) * 1e-9
        }
    }

    /// Largest recorded latency (seconds).
    pub fn max_s(&self) -> f64 {
        self.max_s
    }

    /// Bucket-resolution quantile: the upper edge of the power-of-two
    /// bucket holding the `ceil(q·count)`-th smallest sample (matching
    /// the sorted-vector index convention), clamped to the observed
    /// maximum so the tail bucket's 2× overshoot never exceeds reality.
    pub fn quantile_s(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let k = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= k {
                let edge = 2f64.powi(MIN_EXP + b as i32 + 1);
                return edge.min(self.max_s);
            }
        }
        self.max_s
    }
}

mod snap {
    use super::{StreamingQuantile, BUCKETS};
    use pcmac_snap::{Snap, SnapError, SnapReader, SnapWriter};

    /// The bucket bank always travels at full length, so an estimator
    /// that has not allocated it yet writes the bytes an all-zero bank
    /// would, and reading an all-zero bank back allocates nothing.
    impl Snap for StreamingQuantile {
        fn save(&self, w: &mut SnapWriter) {
            self.exact.save(w);
            self.count.save(w);
            self.sum_ns.save(w);
            self.max_s.save(w);
            w.u64(BUCKETS as u64);
            for b in 0..BUCKETS {
                w.u64(self.buckets.get(b).copied().unwrap_or(0));
            }
        }

        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            let exact = Snap::load(r)?;
            let count = Snap::load(r)?;
            let sum_ns = Snap::load(r)?;
            let max_s = Snap::load(r)?;
            let mut buckets: Vec<u64> = Snap::load(r)?;
            if buckets.len() != BUCKETS {
                return Err(SnapError::Corrupt("latency bucket bank length"));
            }
            if buckets.iter().all(|&c| c == 0) {
                buckets = Vec::new();
            }
            Ok(StreamingQuantile {
                exact,
                count,
                sum_ns,
                max_s,
                buckets,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(mut v: Vec<f64>) -> Vec<f64> {
        v.sort_by(|a, b| a.total_cmp(b));
        v
    }

    #[test]
    fn exact_path_holds_all_samples_under_cap() {
        let mut q = StreamingQuantile::new();
        let samples: Vec<f64> = (0..100).map(|i| (i as f64 + 1.0) * 1e-3).collect();
        for &s in &samples {
            q.record(s);
        }
        assert!(q.is_exact());
        assert_eq!(sorted(q.exact_samples().to_vec()), sorted(samples));
        assert_eq!(q.count(), 100);
        assert!((q.max_s() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn overflow_degrades_to_buckets_with_exact_moments() {
        let mut q = StreamingQuantile::new();
        let n = 10_000u64;
        for i in 0..n {
            q.record(1e-3 * (1.0 + (i % 100) as f64)); // 1 ms .. 100 ms
        }
        assert!(!q.is_exact());
        assert_eq!(q.count(), n);
        let mean = 1e-3 * (1.0 + 99.0 / 2.0 + 0.5); // 1..100 uniform + 0.5 offset? exact:
        let expect = (1..=100).map(|v| v as f64 * 1e-3).sum::<f64>() / 100.0;
        assert!((q.mean_s() - expect).abs() < 1e-9, "mean {}", q.mean_s());
        let _ = mean;
        // p95 lands in the bucket containing 0.095..0.1 s: [2^-4, 2^-3).
        let p95 = q.quantile_s(0.95);
        assert!((0.095..=0.125).contains(&p95), "p95 {p95}");
        // Max clamps the tail-bucket overshoot.
        assert!(q.quantile_s(1.0) <= q.max_s() + 1e-12);
    }

    #[test]
    fn merge_is_grouping_independent() {
        let samples: Vec<f64> = (0..2000)
            .map(|i| 1e-4 * ((i * 37 % 997) + 1) as f64)
            .collect();
        // One big estimator vs two different merge groupings.
        let mut whole = StreamingQuantile::new();
        for &s in &samples {
            whole.record(s);
        }
        let chunks: Vec<StreamingQuantile> = samples
            .chunks(173)
            .map(|c| {
                let mut q = StreamingQuantile::new();
                for &s in c {
                    q.record(s);
                }
                q
            })
            .collect();
        let mut left = StreamingQuantile::new();
        for c in &chunks {
            left.merge(c);
        }
        let mut right = StreamingQuantile::new();
        for c in chunks.iter().rev() {
            right.merge(c);
        }
        for q in [&left, &right] {
            assert_eq!(q.count(), whole.count());
            assert_eq!(q.mean_s().to_bits(), whole.mean_s().to_bits());
            assert_eq!(q.max_s().to_bits(), whole.max_s().to_bits());
            assert_eq!(
                q.quantile_s(0.95).to_bits(),
                whole.quantile_s(0.95).to_bits()
            );
        }
    }

    #[test]
    fn bucket_bank_is_allocated_by_the_first_sample_and_snapshots_dense() {
        use pcmac_snap::{Snap, SnapReader, SnapWriter};
        let bytes = |q: &StreamingQuantile| {
            let mut w = SnapWriter::new();
            q.save(&mut w);
            w.finish()
        };
        let mut q = StreamingQuantile::new();
        assert_eq!(q.buckets.capacity(), 0);
        // What the eagerly allocated bank wrote for an empty estimator.
        let mut w = SnapWriter::new();
        Vec::<f64>::new().save(&mut w);
        (0u64, 0u64, 0.0f64).save(&mut w);
        vec![0u64; BUCKETS].save(&mut w);
        let pristine = w.finish();
        assert_eq!(bytes(&q), pristine);
        let back = StreamingQuantile::load(&mut SnapReader::open(&pristine).unwrap()).unwrap();
        assert_eq!(
            back.buckets.capacity(),
            0,
            "an all-zero bank stays unallocated"
        );

        let mut merged = StreamingQuantile::new();
        merged.merge(&q);
        assert_eq!(merged.buckets.capacity(), 0, "merging two bare estimators");

        q.record(0.25);
        assert_eq!(q.buckets.len(), BUCKETS);
        let back = StreamingQuantile::load(&mut SnapReader::open(&bytes(&q)).unwrap()).unwrap();
        assert_eq!(bytes(&back), bytes(&q));
        merged.merge(&q);
        assert_eq!(
            merged.quantile_s(0.5).to_bits(),
            q.quantile_s(0.5).to_bits()
        );
    }

    #[test]
    fn degenerate_values_land_in_edge_buckets() {
        let mut q = StreamingQuantile::new();
        q.record(0.0);
        q.record(-1.0);
        q.record(1e-12);
        q.record(1e6);
        assert_eq!(q.count(), 4);
        assert!(q.quantile_s(0.5) >= 0.0);
        assert!(q.max_s() == 1e6);
    }
}
