//! Block-sparse pairwise gain cache for static scenarios.
//!
//! Where a gain is expensive to evaluate — a shadowed link is a
//! hash-derived log-normal draw on top of the path loss — and no
//! position ever changes, the channel computes each pair's gain once and
//! replays it. [`SparseGainCache`] holds what a run actually touches:
//!
//! * **Block-sparse storage.** Entries live in blocks keyed by the
//!   *occupied grid-cell pair* `(cell(i), cell(j))` of their endpoints
//!   (cell ids come from the channel's spatial index). A transmission
//!   only ever touches the handful of cell pairs its signal spans, so
//!   the populated blocks mirror the channel's actual locality instead
//!   of the full N×N pair space. Within a block, pair gains materialize
//!   lazily on first lookup.
//! * **No invalidation.** The cache only ever ran when nothing moves
//!   (`pcmac-core`'s channel selected it for shadowed static scenarios
//!   until a static transmitter's stored receiver row took over that
//!   job; since then only the repo benchmark's micro pass calls it, and
//!   the type goes when that does), so an entry is valid for the whole
//!   run. Mobile scenarios evaluate gains live: between two
//!   transmissions of one station every endpoint has moved, and a cache
//!   that tracked movement measured a 0 % hit ratio there.
//!
//! Exactness contract: [`SparseGainCache::gains_with_into`] returns
//! exactly what the supplied closure would for positions that never
//! change, in whatever order pairs are looked up, so swapping the cache
//! into the channel changes nothing about a run except its speed.
//! Memory is bounded: when the live entry count passes the configured
//! cap the whole cache flushes (an epoch flush — correctness is
//! untouched, the next lookups simply refill).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

/// Multiply-xor hasher for the packed `u64` keys used here. The std
/// SipHash is DoS-resistant but several times slower; cache keys are
/// internal (never attacker-controlled), so the cheap mix wins.
#[derive(Default)]
pub struct PairHasher(u64);

impl Hasher for PairHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are ever hashed; this path exists for trait
        // completeness.
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        // splitmix64-style finalizer: full avalanche, two multiplies.
        let mut x = self.0 ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        self.0 = x;
    }
}

type FastMap<V> = HashMap<u64, V, BuildHasherDefault<PairHasher>>;

/// Running effectiveness counters (bench + report diagnostics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SparseCacheStats {
    /// Lookups answered from a live entry.
    pub hits: u64,
    /// Lookups that computed the gain.
    pub misses: u64,
    /// Occupied cell-pair blocks currently held.
    pub blocks: usize,
    /// Live pair entries currently held.
    pub entries: usize,
    /// Epoch flushes triggered by the memory cap.
    pub flushes: u64,
}

/// Block-sparse pairwise gain cache over positions that never change.
#[derive(Debug)]
pub struct SparseGainCache {
    /// Spatial-index cell per node.
    cell: Vec<u32>,
    /// Pair gains per occupied cell pair, filled lazily.
    blocks: FastMap<FastMap<f64>>,
    entries: usize,
    /// Entry count that triggers an epoch flush.
    cap: usize,
    hits: u64,
    misses: u64,
    flushes: u64,
}

#[inline]
fn pack(a: u32, b: u32) -> u64 {
    (a as u64) << 32 | b as u64
}

impl SparseGainCache {
    /// Cache for `n` nodes. Memory is capped at roughly 64 live entries
    /// per node (and never below 4096), a small multiple of the audible
    /// neighbourhood the channel actually touches.
    pub fn new(n: usize) -> Self {
        SparseGainCache {
            cell: vec![0; n],
            blocks: FastMap::default(),
            entries: 0,
            cap: (64 * n).max(4096),
            hits: 0,
            misses: 0,
            flushes: 0,
        }
    }

    /// Set `node`'s cell — the initial sync with the spatial index,
    /// before any gains are cached.
    pub fn set_cell(&mut self, node: u32, cell: u32) {
        self.cell[node as usize] = cell;
    }

    /// Resolve the gain from `i` to every candidate in `js` in one pass,
    /// appending to `out` in candidate order: replayed from the cache
    /// where the pair has been looked up since the last flush, otherwise
    /// computed via `compute` and stored. The flush check runs per
    /// candidate; the block handle is memoized across candidates sharing
    /// the previous candidate's cell.
    pub fn gains_with_into(
        &mut self,
        i: u32,
        js: &[u32],
        out: &mut Vec<f64>,
        mut compute: impl FnMut(u32) -> f64,
    ) {
        out.clear();
        out.reserve(js.len());
        let cell_i = self.cell[i as usize];
        let mut cur_block_key = u64::MAX;
        for &j in js {
            if self.entries > self.cap {
                self.blocks.clear();
                self.entries = 0;
                self.flushes += 1;
                cur_block_key = u64::MAX; // the memoized handle died
            }
            let key = pack(cell_i, self.cell[j as usize]);
            if key != cur_block_key {
                // Materialize the block once per run of same-cell
                // candidates; the map lookup below re-borrows it (the
                // borrow cannot be held across the flush check).
                self.blocks.entry(key).or_default();
                cur_block_key = key;
            }
            let block = self.blocks.get_mut(&key).expect("block just ensured");
            let gain = match block.entry(pack(i, j)) {
                std::collections::hash_map::Entry::Occupied(o) => {
                    self.hits += 1;
                    *o.get()
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    self.misses += 1;
                    self.entries += 1;
                    *v.insert(compute(j))
                }
            };
            out.push(gain);
        }
    }

    /// Current effectiveness counters.
    pub fn stats(&self) -> SparseCacheStats {
        SparseCacheStats {
            hits: self.hits,
            misses: self.misses,
            blocks: self.blocks.len(),
            entries: self.entries,
            flushes: self.flushes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One lookup of `(i, j)` whose miss would compute `fresh`.
    fn lookup(c: &mut SparseGainCache, i: u32, j: u32, fresh: f64) -> f64 {
        let mut out = Vec::new();
        c.gains_with_into(i, &[j], &mut out, |_| fresh);
        out[0]
    }

    #[test]
    fn replays_the_value_of_the_first_lookup() {
        let mut c = SparseGainCache::new(4);
        assert_eq!(lookup(&mut c, 0, 1, 0.5), 0.5);
        // Hit: the closure's new value must NOT be observed.
        assert_eq!(lookup(&mut c, 0, 1, 99.0), 0.5);
        assert_eq!(lookup(&mut c, 0, 2, 0.25), 0.25);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 2));
    }

    #[test]
    fn direction_matters() {
        let mut c = SparseGainCache::new(2);
        assert_eq!(lookup(&mut c, 0, 1, 1.0), 1.0);
        // (1,0) is a distinct pair (asymmetric shadowing support).
        assert_eq!(lookup(&mut c, 1, 0, 2.0), 2.0);
        assert_eq!(lookup(&mut c, 0, 1, 9.0), 1.0);
        assert_eq!(lookup(&mut c, 1, 0, 9.0), 2.0);
    }

    #[test]
    fn blocks_track_occupied_cell_pairs() {
        let mut c = SparseGainCache::new(6);
        for (node, cell) in [(0u32, 0u32), (1, 0), (2, 7), (3, 7), (4, 9), (5, 9)] {
            c.set_cell(node, cell);
        }
        // Touch pairs spanning (0,7), (0,7), (7,9): two distinct blocks.
        lookup(&mut c, 0, 2, 0.1);
        lookup(&mut c, 1, 3, 0.2);
        lookup(&mut c, 2, 4, 0.3);
        let s = c.stats();
        assert_eq!(s.blocks, 2);
        assert_eq!(s.entries, 3);
    }

    #[test]
    fn lookups_in_any_order_and_batching_return_the_pair_function() {
        // The static contract: whatever the order and the batching, a
        // lookup returns the pair's one value, and below the cap every
        // pair is computed exactly once.
        let n = 60u32; // 60 * 59 pairs < cap 4096: no flush
        let mut c = SparseGainCache::new(n as usize);
        for node in 0..n {
            c.set_cell(node, node / 5);
        }
        let gain_of = |i: u32, j: u32| (i * 1000 + j) as f64;
        let mut lookups = 0;
        for round in 0..120u32 {
            let tx = (round * 7) % n;
            let mut js: Vec<u32> = (0..n).filter(|&j| j != tx).collect();
            if round % 2 == 1 {
                js.reverse();
            }
            js.truncate(1 + (round * 13 % n) as usize);
            let mut got = Vec::new();
            c.gains_with_into(tx, &js, &mut got, |j| gain_of(tx, j));
            let want: Vec<f64> = js.iter().map(|&j| gain_of(tx, j)).collect();
            assert_eq!(got, want, "round {round}");
            lookups += js.len() as u64;
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, lookups);
        assert_eq!(s.misses, s.entries as u64, "a pair is computed once");
        assert!(s.hits > 0);
        assert_eq!(s.flushes, 0);
    }

    #[test]
    fn epoch_flush_bounds_memory_without_changing_answers() {
        let mut c = SparseGainCache::new(70);
        // cap = max(64*70, 4096) = 4480 < 70*69 pairs: must flush.
        let mut total = 0.0;
        for _round in 0..3u32 {
            for i in 0..70u32 {
                for j in 0..70u32 {
                    if i != j {
                        let want = (i * 70 + j) as f64;
                        total += lookup(&mut c, i, j, want) - want;
                    }
                }
            }
        }
        assert_eq!(total, 0.0, "every lookup must return the exact gain");
        let s = c.stats();
        assert!(s.flushes >= 1, "the cap must have triggered at least once");
        assert!(s.entries <= 4480 + 1);
    }
}
