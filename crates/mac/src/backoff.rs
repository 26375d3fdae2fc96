//! Binary-exponential backoff.
//!
//! Tracks the contention window and the remaining backoff slots. The DCF
//! engine drives it: draw a count after transmissions and failures, count
//! down while the medium is idle, freeze on busy. Freezing is implemented
//! by *accounting*, not per-slot events: the engine records when counting
//! started and, when interrupted, tells the backoff how much wall time was
//! spent; whole elapsed slots are deducted. The window's bounds are the
//! MAC's configuration (`Dot11Timing::{cw_min, cw_max}`), passed in where
//! the window moves.

use pcmac_engine::{Duration, RngStream};

/// Contention window and slot counter.
#[derive(Debug, Clone)]
pub struct Backoff {
    cw: u32,
    slots: u32,
}

impl Backoff {
    /// A fresh backoff at `cw_min` with no pending slots.
    pub fn new(cw_min: u32) -> Self {
        Backoff {
            cw: cw_min,
            slots: 0,
        }
    }

    /// Current contention window.
    pub fn cw(&self) -> u32 {
        self.cw
    }

    /// Remaining slots to count down.
    pub fn slots(&self) -> u32 {
        self.slots
    }

    /// `true` when no countdown is pending.
    pub fn is_done(&self) -> bool {
        self.slots == 0
    }

    /// Double the contention window after a failed attempt:
    /// `CW ← min(2·(CW+1)−1, cw_max)` (31 → 63 → … → 1023).
    pub fn grow(&mut self, cw_max: u32) {
        self.cw = ((self.cw + 1) * 2 - 1).min(cw_max);
    }

    /// Reset the contention window to `cw_min` after success or final
    /// drop.
    pub fn reset_cw(&mut self, cw_min: u32) {
        self.cw = cw_min;
    }

    /// Draw a fresh uniform count in `[0, CW]` (only if none is pending;
    /// 802.11 keeps a frozen residual count across medium-busy periods).
    pub fn draw_if_idle(&mut self, rng: &mut RngStream) {
        if self.slots == 0 {
            self.slots = rng.range_inclusive(0, self.cw as u64) as u32;
        }
    }

    /// Force a fresh draw (used for the mandatory post-transmission
    /// backoff, which always re-draws).
    pub fn draw(&mut self, rng: &mut RngStream) {
        self.slots = rng.range_inclusive(0, self.cw as u64) as u32;
    }

    /// Deduct the slots fully elapsed in `idle_time` (counting was
    /// interrupted by a busy medium). Returns the remaining count.
    pub fn consume(&mut self, idle_time: Duration, slot: Duration) -> u32 {
        let whole = (idle_time.as_nanos() / slot.as_nanos()) as u32;
        self.slots = self.slots.saturating_sub(whole);
        self.slots
    }

    /// Mark the countdown complete (its timer fired unharassed).
    pub fn complete(&mut self) {
        self.slots = 0;
    }

    /// Wall time needed to finish the remaining count.
    pub fn remaining_time(&self, slot: Duration) -> Duration {
        slot * self.slots as u64
    }
}

mod snap {
    use super::Backoff;

    pcmac_snap::snap_struct!(Backoff { cw, slots });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> RngStream {
        RngStream::derive(7, "backoff-test")
    }

    #[test]
    fn grows_along_standard_ladder() {
        let mut b = Backoff::new(31);
        let mut seen = vec![b.cw()];
        for _ in 0..7 {
            b.grow(1023);
            seen.push(b.cw());
        }
        assert_eq!(seen, vec![31, 63, 127, 255, 511, 1023, 1023, 1023]);
    }

    #[test]
    fn reset_returns_to_cw_min() {
        let mut b = Backoff::new(31);
        b.grow(1023);
        b.grow(1023);
        b.reset_cw(31);
        assert_eq!(b.cw(), 31);
    }

    #[test]
    fn draw_is_within_cw() {
        let mut r = rng();
        for _ in 0..200 {
            let mut b = Backoff::new(31);
            b.draw(&mut r);
            assert!(b.slots() <= 31);
        }
    }

    #[test]
    fn draw_if_idle_preserves_residual() {
        let mut r = rng();
        let mut b = Backoff::new(31);
        b.draw(&mut r);
        // force a nonzero residual
        while b.slots() == 0 {
            b.draw(&mut r);
        }
        let residual = b.slots();
        b.draw_if_idle(&mut r);
        assert_eq!(b.slots(), residual, "residual must survive busy periods");
    }

    #[test]
    fn consume_deducts_whole_slots_only() {
        let mut r = rng();
        let mut b = Backoff::new(31);
        while b.slots() < 5 {
            b.draw(&mut r);
        }
        let start = b.slots();
        let slot = Duration::from_micros(20);
        // 2.9 slots of idle time → 2 slots consumed
        b.consume(Duration::from_micros(58), slot);
        assert_eq!(b.slots(), start - 2);
    }

    #[test]
    fn consume_saturates_at_zero() {
        let mut b = Backoff::new(31);
        let slot = Duration::from_micros(20);
        b.consume(Duration::from_secs(1), slot);
        assert_eq!(b.slots(), 0);
        assert!(b.is_done());
    }

    #[test]
    fn remaining_time_is_slots_times_slot() {
        let mut r = rng();
        let mut b = Backoff::new(31);
        b.draw(&mut r);
        let slot = Duration::from_micros(20);
        assert_eq!(b.remaining_time(slot), slot * b.slots() as u64);
    }

    #[test]
    fn draw_distribution_covers_window() {
        // Sanity: over many draws from CW=31 we should see both small and
        // large counts — a stuck RNG or off-by-one would show here.
        let mut r = rng();
        let mut b = Backoff::new(31);
        let mut lo = false;
        let mut hi = false;
        for _ in 0..500 {
            b.draw(&mut r);
            if b.slots() <= 3 {
                lo = true;
            }
            if b.slots() >= 28 {
                hi = true;
            }
        }
        assert!(lo && hi);
    }
}
