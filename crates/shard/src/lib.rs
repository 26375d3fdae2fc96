//! Region partitioning and synchronization primitives for the
//! spatial-domain parallel execution engine.
//!
//! A sharded run splits the field into vertical column bands — one per
//! worker thread — and advances them in lockstep *windows* under a
//! conservative synchronization protocol: within a window no shard may
//! process an event at or past `window_start + lookahead`, where the
//! lookahead is the minimum cross-region propagation delay, so nothing a
//! neighbour transmits inside the window can affect events the local
//! shard already dispatched. The pieces here are deliberately tiny and
//! domain-free: a greedy balanced column partition and a spinning
//! generation barrier. Everything that knows about radios and queues
//! lives in the core crate's `sim::shard` module.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Node-count-balanced partition of grid columns into contiguous bands.
///
/// `xs` are the node x-coordinates at t = 0, `width` the field width,
/// `cell` the spatial-index cell size, and `shards` the band count.
/// Returns the owning shard per node. Bands are contiguous column
/// ranges, so a region boundary always coincides with a grid-cell
/// boundary and the band of a node is a pure function of its start
/// position — every shard computes the identical map independently.
///
/// The split is greedy: walking columns left to right, a band closes
/// once it holds its proportional share of nodes (`(s + 1) * n / shards`
/// cumulative). Degenerate layouts (all nodes in one column) yield empty
/// bands, which is correct if wasteful — the protocol never requires a
/// band to be non-empty.
pub fn partition_columns(xs: &[f64], width: f64, cell: f64, shards: usize) -> Vec<u32> {
    assert!(shards >= 1, "at least one shard");
    assert!(cell > 0.0 && width > 0.0, "positive field geometry");
    let cols = ((width / cell).ceil() as usize).max(1);
    let col_of = |x: f64| (((x / cell) as isize).clamp(0, cols as isize - 1)) as usize;

    let mut count = vec![0u64; cols];
    for &x in xs {
        count[col_of(x)] += 1;
    }
    // Shard owning each column, by greedy cumulative accumulation.
    let n = xs.len() as u64;
    let mut col_shard = vec![0u32; cols];
    let mut acc = 0u64;
    let mut s = 0usize;
    for (c, &k) in count.iter().enumerate() {
        col_shard[c] = s as u32;
        acc += k;
        // Close the band once it reached its cumulative share; the last
        // band absorbs the remainder.
        while s + 1 < shards && acc * shards as u64 >= (s as u64 + 1) * n && n > 0 {
            s += 1;
        }
    }
    xs.iter().map(|&x| col_shard[col_of(x)]).collect()
}

/// A spinning generation barrier for a fixed crew of threads.
///
/// Threads call [`SpinBarrier::wait`]; the last arrival resets the count
/// and releases the crew by bumping the generation. Spinning (with
/// `yield_now`) instead of parking keeps the per-window cost at a few
/// hundred nanoseconds — a sharded simulation crosses the barrier
/// millions of times, so futex round-trips would dominate the run.
///
/// A crew member that panics never arrives, which would leave the rest
/// spinning forever. Each member therefore holds a
/// [`SpinBarrier::poison_on_unwind`] guard: unwinding through it poisons
/// the barrier, and every current and future [`SpinBarrier::wait`]
/// returns [`Poisoned`] instead of blocking.
#[derive(Debug)]
pub struct SpinBarrier {
    crew: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

/// A crew member panicked: the crossing will never complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Poisoned;

/// Poisons its barrier when dropped by a panic's unwind.
#[derive(Debug)]
pub struct PoisonOnUnwind<'a>(&'a SpinBarrier);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::SeqCst);
        }
    }
}

impl SpinBarrier {
    /// A barrier releasing once `crew` threads arrive.
    pub fn new(crew: usize) -> Self {
        assert!(crew >= 1, "a barrier needs a crew");
        SpinBarrier {
            crew,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// A guard for one crew member's stack frame: if the member panics,
    /// the unwind drops the guard and releases the rest of the crew with
    /// [`Poisoned`].
    pub fn poison_on_unwind(&self) -> PoisonOnUnwind<'_> {
        PoisonOnUnwind(self)
    }

    /// Block (spinning) until every crew member has arrived. Returns
    /// `Ok(true)` on exactly one thread per crossing (the "leader", the
    /// last to arrive), mirroring `std::sync::Barrier`, and
    /// `Err(Poisoned)` — at once, or out of the spin — when a member has
    /// panicked.
    pub fn wait(&self) -> Result<bool, Poisoned> {
        if self.poisoned.load(Ordering::SeqCst) {
            return Err(Poisoned);
        }
        let gen = self.generation.load(Ordering::SeqCst);
        if self.arrived.fetch_add(1, Ordering::SeqCst) + 1 == self.crew {
            // Last arrival: reset the count for the next crossing, then
            // open the gate. The order matters — the count must be clean
            // before any spinner can race into the next crossing.
            self.arrived.store(0, Ordering::SeqCst);
            self.generation.fetch_add(1, Ordering::SeqCst);
            Ok(true)
        } else {
            while self.generation.load(Ordering::SeqCst) == gen {
                if self.poisoned.load(Ordering::SeqCst) {
                    return Err(Poisoned);
                }
                std::hint::spin_loop();
                std::thread::yield_now();
            }
            Ok(false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn partition_is_balanced_and_contiguous() {
        // 100 nodes spread evenly over 10 columns.
        let xs: Vec<f64> = (0..100).map(|i| (i as f64) * 10.0 + 5.0).collect();
        let owner = partition_columns(&xs, 1000.0, 100.0, 4);
        assert_eq!(owner.len(), 100);
        // Owners are non-decreasing in x (contiguous bands).
        let mut sorted: Vec<(f64, u32)> = xs.iter().copied().zip(owner.iter().copied()).collect();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        assert!(sorted.windows(2).all(|w| w[0].1 <= w[1].1));
        // Every shard owns a reasonable share.
        for s in 0..4u32 {
            let k = owner.iter().filter(|&&o| o == s).count();
            assert!(k >= 10, "shard {s} owns {k} of 100");
        }
    }

    #[test]
    fn partition_single_shard_owns_everything() {
        let xs = vec![1.0, 250.0, 999.0];
        assert_eq!(partition_columns(&xs, 1000.0, 50.0, 1), vec![0, 0, 0]);
    }

    #[test]
    fn partition_tolerates_degenerate_layouts() {
        // All nodes in one column: one band gets them all, the rest are
        // empty; out-of-range coordinates clamp instead of panicking.
        let xs = vec![5.0; 7];
        let owner = partition_columns(&xs, 1000.0, 100.0, 3);
        assert!(owner.iter().all(|&o| o == owner[0]));
        let owner = partition_columns(&[-3.0, 1e6], 100.0, 10.0, 2);
        assert_eq!(owner.len(), 2);
    }

    #[test]
    fn partition_is_deterministic() {
        let xs: Vec<f64> = (0..57).map(|i| (i * 37 % 100) as f64 * 7.3).collect();
        let a = partition_columns(&xs, 800.0, 40.0, 8);
        let b = partition_columns(&xs, 800.0, 40.0, 8);
        assert_eq!(a, b);
    }

    #[test]
    fn barrier_releases_crew_and_elects_one_leader() {
        let crew = 4;
        let barrier = Arc::new(SpinBarrier::new(crew));
        let leaders = Arc::new(AtomicU64::new(0));
        let counter = Arc::new(AtomicU64::new(0));
        let rounds = 200;
        let handles: Vec<_> = (0..crew)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let leaders = Arc::clone(&leaders);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for round in 0..rounds {
                        counter.fetch_add(1, Ordering::SeqCst);
                        if barrier.wait().expect("nobody panics") {
                            leaders.fetch_add(1, Ordering::SeqCst);
                        }
                        // Everyone must observe the full crew's work for
                        // this round after the crossing.
                        assert!(
                            counter.load(Ordering::SeqCst) >= ((round + 1) * crew) as u64,
                            "barrier released early"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::SeqCst), rounds as u64);
        assert_eq!(counter.load(Ordering::SeqCst), (rounds * crew) as u64);
    }

    /// A member that panics on its way to the barrier must not strand
    /// the ones already spinning in it, nor any that arrive later.
    #[test]
    fn a_panicking_member_releases_the_crew() {
        let barrier = SpinBarrier::new(3);
        // The panicking member waits for this, so the spinner is inside
        // `wait` (or about to enter it — both paths must bail).
        let spinning = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let spinner = scope.spawn(|| {
                let _guard = barrier.poison_on_unwind();
                spinning.store(1, Ordering::SeqCst);
                barrier.wait()
            });
            let panicker = scope.spawn(|| {
                let _guard = barrier.poison_on_unwind();
                while spinning.load(Ordering::SeqCst) == 0 {
                    std::thread::yield_now();
                }
                panic!("member down");
            });
            assert!(panicker.join().is_err());
            assert_eq!(
                spinner.join().expect("bails, does not panic"),
                Err(Poisoned)
            );
        });
        assert_eq!(barrier.wait(), Err(Poisoned), "late arrivals bail too");
    }
}
