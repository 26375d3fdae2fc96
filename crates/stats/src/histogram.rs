//! Fixed-width bucket histograms with percentile queries.
//!
//! A histogram's memory follows the samples it holds, not its range: the
//! bucket array reaches only one past the highest bucket recorded, and a
//! checkpoint lists only the non-zero buckets, so neither grows with the
//! number of buckets the range is cut into.

/// A histogram over `[0, width × buckets)` with an overflow bucket.
///
/// The bucket array holds buckets `0..=k` for the highest bucket `k`
/// recorded so far, not all `buckets` of the range: a histogram that
/// never saw an in-range sample holds none, and a sink's delay
/// histogram, whose samples land in its first few 10 ms buckets, holds
/// those few rather than a thousand. Every bucket past the array is
/// zero, so a short array answers exactly like the full-length one.
#[derive(Debug, Clone)]
pub struct Histogram {
    width: f64,
    buckets: usize,
    /// One past the highest non-zero bucket long (empty before the first
    /// in-range sample); never longer than `buckets`.
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// `buckets` buckets of `width` each.
    pub fn new(width: f64, buckets: usize) -> Self {
        assert!(width > 0.0 && buckets > 0);
        Histogram {
            width,
            buckets,
            counts: Vec::new(),
            overflow: 0,
            total: 0,
        }
    }

    /// Record one sample (negatives clamp into the first bucket).
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        let idx = (x.max(0.0) / self.width) as usize;
        if idx < self.buckets {
            if idx >= self.counts.len() {
                self.counts.resize(idx + 1, 0);
            }
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Upper edge of the bucket containing the `q`-quantile (0 ≤ q ≤ 1),
    /// or `None` when empty. Overflowed quantiles report `infinity`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some((i + 1) as f64 * self.width);
            }
        }
        Some(f64::INFINITY)
    }

    /// Count in the overflow bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Merge another histogram with identical geometry (bucket width and
    /// count) into this one. The bucket array grows to the longer of the
    /// two.
    ///
    /// # Panics
    /// If the geometries differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.width, other.width, "bucket width mismatch");
        assert_eq!(self.buckets, other.buckets, "bucket count mismatch");
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.total += other.total;
    }
}

mod snap {
    use super::Histogram;
    use pcmac_snap::{Snap, SnapError, SnapReader, SnapWriter};

    /// Histograms snapshot **sparsely**: geometry and totals, then only
    /// the non-zero buckets as strictly-ascending `(index, count)`
    /// pairs. A sink's delay histogram is almost entirely zeros (most
    /// nodes terminate no flows at all), and the dense encoding made
    /// every node's blob pay ~8 KB for 1000 empty buckets — at
    /// N = 64000 that alone put half a gigabyte into each periodic
    /// checkpoint. The ascending-index rule keeps the stream canonical:
    /// equal histograms serialize to equal bytes, and any other
    /// ordering is rejected as corrupt.
    impl Snap for Histogram {
        fn save(&self, w: &mut SnapWriter) {
            w.f64(self.width);
            w.u64(self.buckets as u64);
            w.u64(self.overflow);
            w.u64(self.total);
            let nz = self.counts.iter().filter(|&&c| c != 0).count() as u64;
            w.u64(nz);
            for (i, &c) in self.counts.iter().enumerate() {
                if c != 0 {
                    w.u32(i as u32);
                    w.u64(c);
                }
            }
        }

        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            let width = r.f64()?;
            let buckets = r.u64()?;
            // `partial_cmp` so NaN widths (None) are rejected too.
            let width_ok = width.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
            if !width_ok || buckets == 0 || buckets > (1 << 24) {
                return Err(SnapError::Corrupt("histogram geometry"));
            }
            let overflow = r.u64()?;
            let total = r.u64()?;
            let nz = r.len_prefix()?;
            let buckets = buckets as usize;
            // Up to the last (highest) pair's bucket, like `record`.
            let mut counts = Vec::new();
            let mut in_buckets: u64 = 0;
            let mut prev: Option<u32> = None;
            for _ in 0..nz {
                let i = r.u32()?;
                let c = r.u64()?;
                if prev.is_some_and(|p| p >= i) {
                    return Err(SnapError::Corrupt("histogram buckets not ascending"));
                }
                if i as usize >= buckets || c == 0 {
                    return Err(SnapError::Corrupt("histogram bucket"));
                }
                counts.resize(i as usize + 1, 0);
                counts[i as usize] = c;
                in_buckets = in_buckets
                    .checked_add(c)
                    .ok_or(SnapError::Corrupt("histogram counts overflow"))?;
                prev = Some(i);
            }
            if in_buckets.checked_add(overflow) != Some(total) {
                return Err(SnapError::Corrupt("histogram totals disagree"));
            }
            Ok(Histogram {
                width,
                buckets,
                counts,
                overflow,
                total,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn quantiles_of_uniform_ramp() {
        let mut h = Histogram::new(1.0, 100);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        assert_eq!(h.total(), 100);
        assert_eq!(h.quantile(0.5), Some(50.0));
        assert_eq!(h.quantile(0.95), Some(95.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
    }

    #[test]
    fn overflow_reports_infinity() {
        let mut h = Histogram::new(1.0, 10);
        h.record(5.0);
        h.record(1e9);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.quantile(1.0), Some(f64::INFINITY));
        assert_eq!(h.quantile(0.25), Some(6.0));
    }

    #[test]
    fn empty_has_no_quantiles() {
        let h = Histogram::new(1.0, 10);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn negatives_clamp_to_first_bucket() {
        let mut h = Histogram::new(2.0, 4);
        h.record(-5.0);
        assert_eq!(h.quantile(1.0), Some(2.0));
    }

    #[test]
    fn merge_equals_concatenation() {
        let mut a = Histogram::new(1.0, 50);
        let mut b = Histogram::new(1.0, 50);
        let mut whole = Histogram::new(1.0, 50);
        for i in 0..40 {
            let x = (i * 7 % 45) as f64;
            if i % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            whole.record(x);
        }
        a.merge(&b);
        assert_eq!(a.total(), whole.total());
        for q in [0.1, 0.5, 0.9, 1.0] {
            assert_eq!(a.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn merge_rejects_different_geometry() {
        let mut a = Histogram::new(1.0, 10);
        let b = Histogram::new(2.0, 10);
        a.merge(&b);
    }

    #[test]
    fn sparse_snapshot_round_trips_and_stays_small() {
        use pcmac_snap::{Snap, SnapReader, SnapWriter};
        let mut h = Histogram::new(10.0, 1000);
        h.record(5.0);
        h.record(5.0);
        h.record(4321.0);
        h.record(1e12); // overflow
        let mut w = SnapWriter::new();
        h.save(&mut w);
        // Geometry + totals + 2 sparse (index, count) pairs — nowhere
        // near the 8 KB a dense 1000-bucket dump would cost.
        assert!(w.len() < 100, "sparse encoding stayed small: {}", w.len());
        let bytes = w.finish();
        let back = Histogram::load(&mut SnapReader::open(&bytes).unwrap()).unwrap();
        assert_eq!(back.total(), h.total());
        assert_eq!(back.overflow(), h.overflow());
        for q in [0.1, 0.5, 0.75, 1.0] {
            assert_eq!(back.quantile(q), h.quantile(q));
        }
    }

    #[test]
    fn snapshot_rejects_inconsistent_buckets() {
        use pcmac_snap::{Snap, SnapReader, SnapWriter};
        // Hand-craft a stream whose sparse pairs are out of order.
        let mut w = SnapWriter::new();
        w.f64(1.0); // width
        w.u64(10); // buckets
        w.u64(0); // overflow
        w.u64(3); // total
        w.u64(2); // two pairs, descending indices
        w.u32(5);
        w.u64(2);
        w.u32(1);
        w.u64(1);
        let bytes = w.finish();
        assert!(Histogram::load(&mut SnapReader::open(&bytes).unwrap()).is_err());

        // Totals that do not add up are corrupt, not silently accepted.
        let mut w = SnapWriter::new();
        w.f64(1.0);
        w.u64(10);
        w.u64(0);
        w.u64(99); // claimed total
        w.u64(1);
        w.u32(3);
        w.u64(2); // only 2 samples present
        let bytes = w.finish();
        assert!(Histogram::load(&mut SnapReader::open(&bytes).unwrap()).is_err());
    }

    /// A histogram that holds all of its buckets from the start: the
    /// reference model the short-array one must be indistinguishable
    /// from.
    #[derive(Clone)]
    struct Dense {
        width: f64,
        counts: Vec<u64>,
        overflow: u64,
        total: u64,
    }

    impl Dense {
        fn new(width: f64, buckets: usize) -> Self {
            Dense {
                width,
                counts: vec![0; buckets],
                overflow: 0,
                total: 0,
            }
        }

        fn record(&mut self, x: f64) {
            self.total += 1;
            let idx = (x.max(0.0) / self.width) as usize;
            if idx < self.counts.len() {
                self.counts[idx] += 1;
            } else {
                self.overflow += 1;
            }
        }

        fn merge(&mut self, other: &Dense) {
            for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                *a += b;
            }
            self.overflow += other.overflow;
            self.total += other.total;
        }

        fn quantile(&self, q: f64) -> Option<f64> {
            if self.total == 0 {
                return None;
            }
            let rank = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
            let mut seen = 0;
            for (i, c) in self.counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return Some((i + 1) as f64 * self.width);
                }
            }
            Some(f64::INFINITY)
        }

        fn snap_bytes(&self) -> Vec<u8> {
            let mut w = pcmac_snap::SnapWriter::new();
            w.f64(self.width);
            w.u64(self.counts.len() as u64);
            w.u64(self.overflow);
            w.u64(self.total);
            w.u64(self.counts.iter().filter(|&&c| c != 0).count() as u64);
            for (i, &c) in self.counts.iter().enumerate() {
                if c != 0 {
                    w.u32(i as u32);
                    w.u64(c);
                }
            }
            w.finish()
        }
    }

    fn snap_bytes(h: &Histogram) -> Vec<u8> {
        use pcmac_snap::Snap;
        let mut w = pcmac_snap::SnapWriter::new();
        h.save(&mut w);
        w.finish()
    }

    fn assert_same(lazy: &Histogram, dense: &Dense, q: f64) {
        assert_eq!(lazy.total(), dense.total);
        assert_eq!(lazy.overflow(), dense.overflow);
        for q in [0.0, q, 0.5, 0.95, 1.0] {
            assert_eq!(lazy.quantile(q), dense.quantile(q), "q = {q}");
        }
        assert_eq!(snap_bytes(lazy), dense.snap_bytes());
    }

    /// One past the highest non-zero bucket of `d`: the length a
    /// histogram holding the same samples keeps.
    fn span(d: &Dense) -> usize {
        d.counts.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1)
    }

    proptest! {
        /// Random `record` / `merge` (both directions, between arrays of
        /// different lengths, either side still without one, samples in
        /// the top bucket and past the range) on a pair of short-array
        /// histograms and a pair of dense ones: equal answers, equal
        /// snapshot bytes, arrays exactly one past their highest
        /// non-zero bucket, and the bytes load back to the same
        /// histogram at the same length.
        #[test]
        fn lazy_matches_dense_reference(
            ops in proptest::collection::vec((0u8..8, -5.0f64..250.0, 0.0f64..1.0), 0..60),
        ) {
            use pcmac_snap::{Snap, SnapReader};
            // Range [0, 100): a third of the samples overflow, ops 4/5
            // record overflow-only samples, which must not allocate, and
            // ops 6/7 land in the top bucket, 49.
            let (mut a, mut b) = (Histogram::new(2.0, 50), Histogram::new(2.0, 50));
            let (mut da, mut db) = (Dense::new(2.0, 50), Dense::new(2.0, 50));
            for &(op, x, q) in &ops {
                match op {
                    0 => { a.record(x); da.record(x); }
                    1 => { b.record(x); db.record(x); }
                    2 => { a.merge(&b); da.merge(&db); }
                    3 => { b.merge(&a); db.merge(&da); }
                    4 => { a.record(100.0 + x.abs()); da.record(100.0 + x.abs()); }
                    5 => { b.record(100.0 + x.abs()); db.record(100.0 + x.abs()); }
                    6 => { a.record(99.0 + q); da.record(99.0 + q); }
                    _ => { b.record(99.0 + q); db.record(99.0 + q); }
                }
                assert_same(&a, &da, q);
                assert_same(&b, &db, q);
                prop_assert_eq!(a.counts.len(), span(&da));
                prop_assert_eq!(b.counts.len(), span(&db));
            }
            for h in [&a, &b] {
                let bytes = snap_bytes(h);
                let back = Histogram::load(&mut SnapReader::open(&bytes).unwrap()).unwrap();
                prop_assert_eq!(snap_bytes(&back), bytes);
                prop_assert_eq!(back.counts.len(), h.counts.len());
            }
        }
    }

    #[test]
    fn never_recorded_histogram_encodes_to_the_dense_bytes() {
        // What the eager `vec![0; 1000]` histogram wrote: geometry, zero
        // totals, zero sparse pairs.
        let mut w = pcmac_snap::SnapWriter::new();
        w.f64(10.0);
        w.u64(1000);
        w.u64(0);
        w.u64(0);
        w.u64(0);
        let h = Histogram::new(10.0, 1000);
        assert!(h.counts.is_empty() && h.counts.capacity() == 0);
        assert_eq!(snap_bytes(&h), w.finish());
    }

    #[test]
    fn overflow_only_samples_never_allocate() {
        let mut h = Histogram::new(1.0, 10);
        h.record(10.0);
        h.record(1e9);
        assert_eq!(h.counts.capacity(), 0);
        assert_eq!((h.total(), h.overflow()), (2, 2));
        assert_eq!(h.quantile(0.5), Some(f64::INFINITY));
        let mut other = Histogram::new(1.0, 10);
        other.merge(&h);
        assert_eq!(other.counts.capacity(), 0, "merging two bare sides");
        assert_eq!(other.total(), 2);
    }

    #[test]
    #[should_panic(expected = "bucket count mismatch")]
    fn merge_rejects_a_different_bucket_count_while_unallocated() {
        // Neither side has a bucket array whose length could be compared.
        let mut a = Histogram::new(1.0, 10);
        let b = Histogram::new(1.0, 20);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "bucket count mismatch")]
    fn merge_rejects_a_different_bucket_count_into_a_bare_side() {
        let mut a = Histogram::new(1.0, 10);
        let mut b = Histogram::new(1.0, 20);
        b.record(15.0);
        a.merge(&b);
    }

    #[test]
    fn load_bounds_the_geometry_and_allocates_only_for_buckets_in_use() {
        use pcmac_snap::{Snap, SnapReader, SnapWriter};
        let stream = |buckets: u64| {
            let mut w = SnapWriter::new();
            w.f64(1.0);
            w.u64(buckets);
            w.u64(3); // overflow
            w.u64(3); // total
            w.u64(0); // no bucket in use
            w.finish()
        };
        let bytes = stream(1 << 24);
        let h = Histogram::load(&mut SnapReader::open(&bytes).unwrap()).unwrap();
        assert_eq!(h.counts.capacity(), 0, "16 Mi buckets, none materialised");
        assert_eq!((h.total(), h.overflow()), (3, 3));
        let bytes = stream((1 << 24) + 1);
        assert!(Histogram::load(&mut SnapReader::open(&bytes).unwrap()).is_err());
    }
}
