//! Generation-counted timers.
//!
//! A discrete-event MAC cancels timers constantly (every CTS that arrives
//! cancels a CTS-timeout). Removing entries from a binary heap is O(n), so
//! instead each logical timer owns a [`TimerSlot`] holding a generation
//! counter. Arming the slot bumps the generation and the fired event carries
//! a [`TimerToken`] snapshot; when the event pops, the component asks the
//! slot whether the token is still *live*. Cancelled or re-armed timers
//! leave stale tokens behind that are ignored in O(1).

/// A snapshot of a timer arming, carried inside the scheduled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken(u64);

impl TimerToken {
    /// The generation number this token snapshots. Exposed so callers can
    /// fold timers into content-derived event ordering keys.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// Rebuild a token from a generation captured by
    /// [`TimerToken::value`] (checkpoint restore).
    pub fn from_value(v: u64) -> Self {
        TimerToken(v)
    }
}

/// The per-logical-timer state: a generation counter plus an armed flag,
/// packed into one word as `generation << 1 | armed` (8 bytes, and a MAC
/// holds seven). A generation therefore stays below 2⁶³, which a timer
/// re-armed every nanosecond would reach after 292 years.
#[derive(Debug, Clone, Default)]
pub struct TimerSlot {
    packed: u64,
}

impl TimerSlot {
    /// Generations at or above this do not fit the packed word.
    pub const GENERATION_LIMIT: u64 = 1 << 63;

    /// A fresh, disarmed slot.
    pub fn new() -> Self {
        TimerSlot::default()
    }

    /// Arm the timer, invalidating any token from a previous arming, and
    /// return the token the caller must embed in the scheduled event.
    pub fn arm(&mut self) -> TimerToken {
        let generation = self.generation() + 1;
        self.packed = generation << 1 | 1;
        TimerToken(generation)
    }

    /// Cancel the pending timer, if any. The already-scheduled event still
    /// pops from the queue but its token will be stale.
    pub fn cancel(&mut self) {
        self.packed &= !1;
    }

    /// `true` if a timer is currently pending.
    pub fn is_armed(&self) -> bool {
        self.packed & 1 != 0
    }

    /// The live generation counter (checkpoint capture).
    pub fn generation(&self) -> u64 {
        self.packed >> 1
    }

    /// Rebuild a slot from captured state (checkpoint restore).
    ///
    /// # Panics
    /// If `generation` is at or above [`TimerSlot::GENERATION_LIMIT`];
    /// the checkpoint codec refuses such a slot before it gets here.
    pub fn from_parts(generation: u64, armed: bool) -> Self {
        assert!(
            generation < Self::GENERATION_LIMIT,
            "timer generation {generation} does not fit the packed slot"
        );
        TimerSlot {
            packed: generation << 1 | u64::from(armed),
        }
    }

    /// Called when a timer event pops: returns `true` (and disarms the slot)
    /// iff the token matches the live generation. Stale tokens return
    /// `false` and leave the slot untouched.
    pub fn fire(&mut self, token: TimerToken) -> bool {
        if self.is_armed() && token.0 == self.generation() {
            self.cancel();
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fire_matches_live_token() {
        let mut slot = TimerSlot::new();
        let t = slot.arm();
        assert!(slot.is_armed());
        assert!(slot.fire(t));
        assert!(!slot.is_armed());
    }

    #[test]
    fn cancelled_token_is_stale() {
        let mut slot = TimerSlot::new();
        let t = slot.arm();
        slot.cancel();
        assert!(!slot.fire(t));
    }

    #[test]
    fn rearm_invalidates_previous_token() {
        let mut slot = TimerSlot::new();
        let t1 = slot.arm();
        let t2 = slot.arm();
        assert!(!slot.fire(t1), "old token must be stale after re-arm");
        assert!(slot.fire(t2));
    }

    #[test]
    fn fire_consumes_token() {
        let mut slot = TimerSlot::new();
        let t = slot.arm();
        assert!(slot.fire(t));
        assert!(!slot.fire(t), "a token fires at most once");
    }

    #[test]
    fn a_slot_is_one_word() {
        assert_eq!(std::mem::size_of::<TimerSlot>(), 8);
        let last = TimerSlot::GENERATION_LIMIT - 1;
        for (generation, armed) in [
            (0, false),
            (0, true),
            (5, true),
            (last, false),
            (last, true),
        ] {
            let s = TimerSlot::from_parts(generation, armed);
            assert_eq!((s.generation(), s.is_armed()), (generation, armed));
        }
        let mut s = TimerSlot::from_parts(last, true);
        assert!(s.fire(TimerToken(last)));
        assert!(!s.fire(TimerToken(last)));
    }

    #[test]
    #[should_panic(expected = "does not fit the packed slot")]
    fn a_generation_past_the_limit_is_refused() {
        TimerSlot::from_parts(TimerSlot::GENERATION_LIMIT, false);
    }

    #[test]
    fn cancel_then_rearm_works() {
        let mut slot = TimerSlot::new();
        let t1 = slot.arm();
        slot.cancel();
        let t2 = slot.arm();
        assert!(!slot.fire(t1));
        assert!(slot.fire(t2));
    }
}
