//! Deterministic event queue.
//!
//! A binary heap keyed on `(time, rank, sequence)`. The heap itself holds
//! only 40-byte `Copy` keys — the three ordering fields and a slot
//! number — and the payloads sit still in a slab beside it, recycled
//! through a free list: a sift moves keys, never an event, whatever the
//! payload type's size (the simulator's is 64 bytes). The rank is a
//! caller-supplied content-derived priority ([`EventQueue::schedule_ranked`];
//! plain [`EventQueue::schedule_at`] uses rank 0), so same-instant ordering
//! can be made a pure function of event *content* rather than scheduling
//! history — the property that lets independently built queues (e.g. one per
//! spatial shard) agree on tie order. The sequence number is a monotone
//! insertion counter breaking any remaining ties in scheduling order. This
//! is the property that makes whole simulation runs reproducible: with
//! `(time)` alone, heap internals would decide tie order and results would
//! vary across std versions.
//!
//! # Logical events and physical entries
//!
//! Usually one heap entry *is* one event. A caller that schedules a whole
//! batch of events whose pop order it already knows — a sorted list — can
//! instead park the list on its own side and push one **cursor** entry
//! keyed with the list head's `(time, rank)` ([`EventQueue::push_cursor`]),
//! counting the batch with [`EventQueue::count_scheduled`]. When the cursor
//! surfaces, the caller pops it ([`EventQueue::pop`], which fires the
//! head's key) and *holds* it: it handles the head event, and while the
//! list's next key is still below the heap's top ([`EventQueue::peek`])
//! it fires that key itself ([`EventQueue::fire`] — the clock moves, the
//! heap is not touched) and handles the next event too. The comparison
//! must be repeated after every handled event, because handling one may
//! schedule something that lands before the list's next element. When
//! the heap's top comes first — or the caller wants to stop for any
//! other reason — the cursor goes back under its next key
//! ([`EventQueue::push_cursor`]); a spent list pushes nothing. The
//! logical events fire in the same `(time, rank)` sequence as one entry
//! per event would pop, provided no cursor-carried event shares its
//! `(time, rank)` with any other event — cursors have no per-event
//! sequence number to break such a tie with.
//!
//! [`EventQueue::scheduled_total`] counts *logical* events,
//! [`EventQueue::len`] *physical* entries, and
//! [`EventQueue::pending_logical`] lists the logical population by asking
//! the caller to expand each cursor's remaining tail. A held cursor is in
//! neither: callers push it back before anything else looks at the queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event popped from the queue: a payload tagged with its due time,
/// rank, and insertion sequence.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// Instant at which the event fires.
    pub at: SimTime,
    /// Content-derived same-instant priority (0 unless scheduled through
    /// [`EventQueue::schedule_ranked`]).
    pub rank: u128,
    /// Insertion-order tiebreaker (unique per queue).
    pub seq: u64,
    /// The domain payload.
    pub event: E,
}

/// The `(time, rank)` the queue's next entry is keyed with
/// ([`EventQueue::peek`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventKey {
    /// Instant at which the entry fires.
    pub at: SimTime,
    /// Its same-instant priority.
    pub rank: u128,
}

/// What the heap sifts: the pop order `(at, rank, seq)` — the derived
/// lexicographic comparison, the rank as two words so the key aligns to
/// 8 bytes, not a `u128`'s 16 — and the slab slot of the payload. `seq`
/// is unique, so `slot` never decides a comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapKey {
    at: SimTime,
    rank_hi: u64,
    rank_lo: u64,
    seq: u64,
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<HeapKey>() <= 40);

impl HeapKey {
    #[inline]
    fn rank(&self) -> u128 {
        (self.rank_hi as u128) << 64 | self.rank_lo as u128
    }
}

/// The simulation event queue.
///
/// ```
/// use pcmac_engine::{EventQueue, SimTime};
///
/// let mut q: EventQueue<&'static str> = EventQueue::new();
/// q.schedule_at(SimTime::from_nanos(20), "later");
/// q.schedule_at(SimTime::from_nanos(10), "sooner");
/// assert_eq!(q.pop().unwrap().event, "sooner");
/// assert_eq!(q.pop().unwrap().event, "later");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Min-heap of keys (`Reverse` turns std's max-heap around).
    heap: BinaryHeap<Reverse<HeapKey>>,
    /// Payloads, addressed by [`HeapKey::slot`]; `None` slots are listed
    /// in `free`.
    slab: Vec<Option<E>>,
    free: Vec<u32>,
    seq: u64,
    now: SimTime,
    scheduled_total: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at t=0.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with pre-reserved capacity for `cap` physical
    /// entries.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            slab: Vec::with_capacity(cap),
            free: Vec::new(),
            seq: 0,
            now: SimTime::ZERO,
            scheduled_total: 0,
        }
    }

    /// Current simulation time: the due time of the last popped event
    /// or fired key.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of physical entries waiting (a cursor counts once, however
    /// long its remaining tail).
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are waiting.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of *logical* events ever scheduled: one per
    /// `schedule_*` call plus everything announced through
    /// [`EventQueue::count_scheduled`]; cursor entries themselves are not
    /// counted.
    #[inline]
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Schedule `event` at the absolute instant `at`.
    ///
    /// # Panics
    /// If `at` is before [`EventQueue::now`] — in release builds too.
    /// Scheduling into the past is a logic error, and clamping the event
    /// to `now` would fire it at an instant its content-derived rank was
    /// not computed for, silently reordering it.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.schedule_ranked(at, 0, event);
    }

    /// Schedule `event` at `at` with a content-derived same-instant `rank`.
    ///
    /// Events due at the same instant pop in ascending rank order, with the
    /// insertion sequence breaking any remaining tie. Callers that derive the
    /// rank purely from event content make same-instant ordering independent
    /// of scheduling history, which is what allows independently constructed
    /// queues (one per spatial shard, say) to agree on tie order.
    pub fn schedule_ranked(&mut self, at: SimTime, rank: u128, event: E) {
        self.scheduled_total += 1;
        self.push(at, rank, event);
    }

    /// Push a cursor entry keyed `(at, rank)` — the head of a sorted event
    /// list the caller keeps (see the module docs). The entry itself is
    /// not a logical event and leaves [`EventQueue::scheduled_total`]
    /// alone; announce the list's events with
    /// [`EventQueue::count_scheduled`].
    pub fn push_cursor(&mut self, at: SimTime, rank: u128, cursor: E) {
        self.push(at, rank, cursor);
    }

    /// Count `n` logical events as scheduled without pushing an entry for
    /// each — they ride a cursor.
    #[inline]
    pub fn count_scheduled(&mut self, n: u64) {
        self.scheduled_total += n;
    }

    fn push(&mut self, at: SimTime, rank: u128, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: {:?} < {:?}",
            at,
            self.now
        );
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("under 2^32 pending entries");
                self.slab.push(Some(event));
                slot
            }
        };
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(HeapKey {
            at,
            rank_hi: (rank >> 64) as u64,
            rank_lo: rank as u64,
            seq,
            slot,
        }));
    }

    /// Fire a key the caller holds outside the heap — the next event of
    /// a popped cursor's list (see the module docs): the clock advances to
    /// `at` exactly as [`EventQueue::pop`] would advance it, and the heap
    /// is left alone. The caller has checked that nothing pending comes
    /// before the key.
    ///
    /// # Panics
    /// If `at` is before [`EventQueue::now`] — in release builds too: a
    /// cursor walks a sorted list, so a backwards step means the list was
    /// not sorted.
    #[inline]
    pub fn fire(&mut self, at: SimTime) {
        assert!(
            at >= self.now,
            "held key fired backwards: {:?} < {:?}",
            at,
            self.now
        );
        self.now = at;
    }

    /// Pop the earliest event and advance the clock to its due time.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let Reverse(key) = self.heap.pop()?;
        debug_assert!(key.at >= self.now, "time went backwards");
        self.now = key.at;
        let event = self.slab[key.slot as usize]
            .take()
            .expect("a heap key owns a full slot");
        self.free.push(key.slot);
        Some(ScheduledEvent {
            at: key.at,
            rank: key.rank(),
            seq: key.seq,
            event,
        })
    }

    /// Due time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(k)| k.at)
    }

    /// The next entry's key without popping it.
    #[inline]
    pub fn peek(&self) -> Option<EventKey> {
        self.heap.peek().map(|Reverse(k)| EventKey {
            at: k.at,
            rank: k.rank(),
        })
    }

    /// Every pending *logical* event in canonical pop order — `(at,
    /// rank, seq)` ascending. `expand` is called once per physical entry,
    /// in that order, with the entry's `(at, rank)` and payload, and
    /// appends the logical events the entry stands
    /// for: a plain entry appends itself under its own key, a cursor
    /// appends its un-walked tail (whose events, by the cursor contract,
    /// share a `(time, rank)` with nothing else). The sequence numbers
    /// themselves are not returned: they are queue-local scheduling
    /// history, and two queues holding the same events in the same
    /// *relative* order behave identically. Used by checkpointing to
    /// capture the queue content-deterministically.
    pub fn pending_logical<L>(
        &self,
        mut expand: impl FnMut(SimTime, u128, &E, &mut Vec<(SimTime, u128, L)>),
    ) -> Vec<(SimTime, u128, L)> {
        let mut keys: Vec<HeapKey> = self.heap.iter().map(|&Reverse(k)| k).collect();
        keys.sort_unstable();
        let mut out = Vec::with_capacity(keys.len());
        for k in keys {
            let event = self.slab[k.slot as usize]
                .as_ref()
                .expect("a heap key owns a full slot");
            expand(k.at, k.rank(), event, &mut out);
        }
        // Stable: plain events sharing a full `(at, rank)` were appended
        // in `seq` order above and stay in it.
        out.sort_by_key(|&(at, rank, _)| (at, rank));
        out
    }

    /// An empty queue whose clock starts at `now` and whose
    /// [`EventQueue::scheduled_total`] starts at `base_total` — the
    /// restore-side counterpart of [`EventQueue::pending_logical`].
    /// Re-scheduling the captured events in their canonical order hands
    /// them fresh ascending sequence numbers, preserving tie order, and
    /// brings the schedule count back to its pre-capture value.
    pub fn restored(now: SimTime, base_total: u64) -> Self {
        EventQueue {
            now,
            scheduled_total: base_total,
            ..Self::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(30), 3);
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.schedule_at(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_to_popped_time() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(42), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(42));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_schedule_pop_preserves_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.schedule_at(SimTime::from_nanos(30), 3);
        assert_eq!(q.pop().unwrap().event, 1);
        q.schedule_at(SimTime::from_nanos(20), 2);
        assert_eq!(q.pop().unwrap().event, 2);
        assert_eq!(q.pop().unwrap().event, 3);
        assert!(q.is_empty());
    }

    #[test]
    fn ranked_ties_pop_in_rank_order_regardless_of_insertion() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        q.schedule_ranked(t, 30, "c");
        q.schedule_ranked(t, 10, "a");
        q.schedule_ranked(t, 20, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_ranks_fall_back_to_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..50 {
            q.schedule_ranked(t, 7, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn tie_order_survives_slot_reuse() {
        // Pops free slab slots in pop order and pushes take the most
        // recently freed first, so each refill's slot numbers run against
        // its insertion order; only the sequence number may decide the
        // `(at, rank)` tie.
        let mut q = EventQueue::new();
        let early = SimTime::from_nanos(1);
        let tie = SimTime::from_nanos(9);
        for i in 0..6 {
            q.schedule_ranked(early, i, -1);
        }
        let mut pushed = 0;
        let mut popped = Vec::new();
        let mut reversed = false;
        for round in 0..6 {
            // Free one to three slots, then refill them at the tie.
            let k = 1 + round % 3;
            for _ in 0..k {
                let e = q.pop().expect("entries remain");
                if e.at == tie {
                    popped.push(e.event);
                }
            }
            let before = q.free.clone();
            for _ in 0..k {
                q.schedule_ranked(tie, 7, pushed);
                pushed += 1;
            }
            reversed |= before.len() > 1 && before.windows(2).all(|w| w[0] < w[1]);
        }
        assert!(
            reversed,
            "some refill took ascending slots in descending order"
        );
        assert_eq!(q.slab.len(), 6, "freed slots are reused, not leaked");
        popped.extend(std::iter::from_fn(|| q.pop().map(|e| e.event)));
        assert_eq!(popped, (0..pushed).collect::<Vec<_>>());
        assert_eq!(q.free.len(), q.slab.len(), "every slot came back");
    }

    #[test]
    fn held_cursor_fires_like_separately_scheduled_events() {
        // One cursor standing for events at 10, 20 and 40; a plain event
        // at 30 must interleave exactly where it would among four plain
        // entries.
        let mut q = EventQueue::new();
        q.count_scheduled(3);
        q.push_cursor(SimTime::from_nanos(10), 0, "cursor");
        q.schedule_at(SimTime::from_nanos(30), "plain");
        assert_eq!(q.scheduled_total(), 4);
        assert_eq!(q.len(), 2);
        let mut tail = [20, 40].into_iter();
        let mut fired = Vec::new();
        while let Some(e) = q.pop() {
            fired.push(e.at.as_nanos());
            if e.event != "cursor" {
                continue;
            }
            // Hold the cursor while its next key precedes the heap's top.
            for next in tail.by_ref() {
                let next = SimTime::from_nanos(next);
                if q.peek().is_some_and(|top| top.at < next) {
                    // Popping the pushed-back entry fires `next`.
                    q.push_cursor(next, 0, "cursor");
                    break;
                }
                q.fire(next);
                assert_eq!(q.now(), next);
                fired.push(next.as_nanos());
            }
        }
        assert_eq!(fired, vec![10, 20, 30, 40]);
        assert_eq!(q.scheduled_total(), 4);
    }

    #[test]
    #[should_panic(expected = "fired backwards")]
    fn firing_a_held_key_before_now_panics() {
        let mut q = EventQueue::new();
        q.push_cursor(SimTime::from_nanos(10), 5, ());
        q.pop();
        q.fire(SimTime::from_nanos(9));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_before_now_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(10), ());
        q.pop();
        q.schedule_at(SimTime::from_nanos(9), ());
    }

    #[test]
    fn pending_logical_expands_cursor_tails_in_canonical_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos;
        // Cursor at head (5, 1) standing for (5, 1), (7, 0), (9, 3).
        q.push_cursor(t(5), 1, None);
        q.schedule_ranked(t(7), 2, Some("b"));
        q.schedule_ranked(t(7), 2, Some("c"));
        q.schedule_ranked(t(3), 0, Some("a"));
        let pending = q.pending_logical(|at, rank, event, out| match *event {
            Some(name) => out.push((at, rank, name)),
            None => out.extend([(t(5), 1, "x"), (t(7), 0, "y"), (t(9), 3, "z")]),
        });
        let names: Vec<&str> = pending.iter().map(|p| p.2).collect();
        assert_eq!(names, vec!["a", "x", "y", "b", "c", "z"]);
    }

    #[test]
    fn counts_scheduled_total() {
        let mut q = EventQueue::new();
        for i in 0..5u64 {
            q.schedule_at(SimTime::from_nanos(i), ());
        }
        while q.pop().is_some() {}
        assert_eq!(q.scheduled_total(), 5);
    }
}
