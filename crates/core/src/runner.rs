//! Parallel experiment driver.
//!
//! A single DES run is inherently sequential, but the paper's figures are
//! sweeps: (protocol × offered load × seed) grids of independent runs.
//! This driver fans the grid out over worker threads using
//! `std::thread::scope` and a `crossbeam` work channel, collecting
//! results in submission order.
//!
//! Scenarios running under [`ExecutionMode::Sharded`] spawn their own
//! worker threads *inside* the run, so the driver meters total
//! concurrency in thread units, not scenario units: a thread budget
//! sized at the driver's thread count is debited by each scenario's
//! effective shard count before it starts, keeping `scenarios × shards`
//! at the configured width instead of oversubscribing every core by the
//! shard factor.
//!
//! [`ExecutionMode::Sharded`]: crate::config::ExecutionMode

use std::sync::{Condvar, Mutex};

use crossbeam::channel;

use crate::config::ScenarioConfig;
use crate::report::RunReport;
use crate::sim::Simulator;

fn worker_count(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        threads
    }
}

/// A counting semaphore over OS-thread units. Single-threaded scenarios
/// cost one unit and never block beyond the worker pool itself; sharded
/// scenarios cost their shard count (clamped to the capacity, so one
/// huge run still executes alone rather than deadlocking).
struct ThreadBudget {
    capacity: usize,
    available: Mutex<usize>,
    freed: Condvar,
}

impl ThreadBudget {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        ThreadBudget {
            capacity,
            available: Mutex::new(capacity),
            freed: Condvar::new(),
        }
    }

    /// Block until `want` units (clamped to capacity) are free, take
    /// them, and return how many were taken.
    fn acquire(&self, want: usize) -> usize {
        let want = want.clamp(1, self.capacity);
        let mut avail = self.available.lock().expect("budget lock");
        while *avail < want {
            avail = self.freed.wait(avail).expect("budget lock");
        }
        *avail -= want;
        want
    }

    fn release(&self, n: usize) {
        *self.available.lock().expect("budget lock") += n;
        self.freed.notify_all();
    }
}

/// Run every scenario, `threads`-wide, preserving input order in the
/// output. `threads == 0` means "one per available core".
pub fn run_parallel(scenarios: Vec<ScenarioConfig>, threads: usize) -> Vec<RunReport> {
    let threads = worker_count(threads).clamp(1, scenarios.len().max(1));
    // Bounded: the producer blocks instead of running arbitrarily far
    // ahead of the workers.
    let (tx, rx) = channel::bounded::<(usize, ScenarioConfig)>(2 * threads);
    let (result_tx, result_rx) = channel::unbounded::<(usize, RunReport)>();
    // Sharded scenarios spawn `shards` threads internally; debiting that
    // cost here keeps total concurrency at `threads` OS threads.
    let budget = ThreadBudget::new(threads);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let rx = rx.clone();
            let result_tx = result_tx.clone();
            let budget = &budget;
            scope.spawn(move || {
                while let Ok((idx, cfg)) = rx.recv() {
                    let taken = budget.acquire(cfg.shards());
                    let report = Simulator::new(cfg).run();
                    budget.release(taken);
                    let _ = result_tx.send((idx, report));
                }
            });
        }
        drop(result_tx);
        drop(rx);

        for item in scenarios.into_iter().enumerate() {
            tx.send(item).expect("workers outlive the producer");
        }
        drop(tx);

        let mut out: Vec<(usize, RunReport)> = Vec::new();
        while let Ok(pair) = result_rx.recv() {
            out.push(pair);
        }
        out.sort_unstable_by_key(|&(idx, _)| idx);
        out.into_iter().map(|(_, report)| report).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Variant;
    use pcmac_engine::Duration;

    #[test]
    fn parallel_matches_sequential() {
        let mk = |seed| {
            ScenarioConfig::two_nodes(Variant::Basic, 100.0, 80_000.0, seed)
                .with_duration(Duration::from_secs(2))
        };
        let seq: Vec<_> = (0..4).map(|s| Simulator::new(mk(s)).run()).collect();
        let par = run_parallel((0..4).map(mk).collect(), 4);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.seed, b.seed, "order preserved");
            assert_eq!(a.delivered_packets, b.delivered_packets, "determinism");
            assert_eq!(a.mac.rts_sent, b.mac.rts_sent);
        }
    }

    #[test]
    fn budget_clamps_and_blocks_in_thread_units() {
        let b = ThreadBudget::new(4);
        // A run wider than the budget is clamped, not deadlocked.
        assert_eq!(b.acquire(16), 4);
        b.release(4);
        assert_eq!(b.acquire(3), 3);
        assert_eq!(b.acquire(1), 1);
        // Budget exhausted: another acquire must block until release.
        let blocked = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            let flag = std::sync::Arc::clone(&blocked);
            let b = &b;
            scope.spawn(move || {
                let got = b.acquire(2);
                flag.store(true, std::sync::atomic::Ordering::SeqCst);
                b.release(got);
            });
            std::thread::sleep(std::time::Duration::from_millis(30));
            assert!(
                !blocked.load(std::sync::atomic::Ordering::SeqCst),
                "acquire(2) must block while only 0 units are free"
            );
            b.release(3);
            b.release(1);
        });
        assert!(blocked.load(std::sync::atomic::Ordering::SeqCst));
    }

    #[test]
    fn sharded_scenarios_run_through_the_driver() {
        use crate::config::ExecutionMode;
        let mk = |seed, sharded: bool| {
            let mut cfg = ScenarioConfig::two_nodes(Variant::Basic, 100.0, 80_000.0, seed)
                .with_duration(Duration::from_secs(1));
            cfg.delay_floor_us = Some(10.0);
            cfg.execution = sharded.then_some(ExecutionMode::Sharded { shards: 2 });
            cfg
        };
        // 2 workers × up to 2 shards each, metered by the budget; the
        // sharded runs must match their single-threaded twins exactly.
        let single = run_parallel((0..3).map(|s| mk(s, false)).collect(), 2);
        let sharded = run_parallel((0..3).map(|s| mk(s, true)).collect(), 2);
        for (a, b) in single.iter().zip(&sharded) {
            assert_eq!(a.seed, b.seed, "order preserved");
            assert_eq!(a.events, b.events);
            assert_eq!(a.delivered_packets, b.delivered_packets);
        }
    }

    #[test]
    fn zero_threads_means_auto() {
        let cfgs = vec![
            ScenarioConfig::two_nodes(Variant::Basic, 100.0, 50_000.0, 1)
                .with_duration(Duration::from_secs(1)),
        ];
        let out = run_parallel(cfgs, 0);
        assert_eq!(out.len(), 1);
    }
}
