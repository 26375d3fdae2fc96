//! Deterministic event queue.
//!
//! Entries pop in ascending `(time, rank, sequence)` order. The rank is a
//! caller-supplied content-derived priority ([`EventQueue::schedule_ranked`];
//! plain [`EventQueue::schedule_at`] uses rank 0), so same-instant ordering
//! can be made a pure function of event *content* rather than scheduling
//! history — the property that lets independently built queues (e.g. one per
//! spatial shard) agree on tie order. The sequence number is a monotone
//! insertion counter breaking any remaining ties in scheduling order. This
//! is the property that makes whole simulation runs reproducible: with
//! `(time)` alone, the structure's internals would decide tie order and
//! results would vary across versions of it.
//!
//! # A calendar in front of a heap
//!
//! The structure is a calendar queue: a ring of 1 024 buckets, each
//! 2¹² ns (4.096 µs) wide, that together cover a [`WINDOW`] of about
//! 4.2 ms from the *front bucket*, the one being consumed. Payloads sit
//! still in a slab and are recycled through a free list; what moves is a
//! 40-byte `Copy` key — the three ordering fields and the payload's slab
//! slot. A key lives in exactly one of three places:
//!
//! * **the front** — every key whose bucket is the front bucket or an
//!   earlier one, in one vector sorted descending, so the next key is its
//!   last element: [`EventQueue::peek`] reads it, [`EventQueue::pop`]
//!   takes it. The front bucket is sorted once, when it becomes the
//!   front. A later push into it — or before it: the clock lags the front
//!   bucket whenever the last pop emptied its own — is inserted in order,
//!   by a scan from the end, where the next few keys are;
//! * **the ring** — keys of the later buckets inside the window. A
//!   bucket is a singly linked list threaded through the slab (`u32`
//!   links, no vector per bucket), and one bit per bucket, with one
//!   summary bit per 64 buckets, finds the next occupied one;
//! * **the overflow** — keys at or beyond the window's end, in a binary
//!   heap.
//!
//! When the front runs dry, the next occupied bucket — or, with the ring
//! empty, the overflow's first bucket — becomes the front bucket: the
//! overflow's keys that the window now covers move into the ring (or
//! straight into the front), and the new front bucket's list is sorted
//! into the front. A key pushed a whole window or more before the front
//! bucket (the clock had a long gap ahead of it, or the queue is being
//! filled late keys first) makes its own bucket the front bucket instead:
//! the ring empties into the overflow and the old front is filed afresh,
//! so the front never collects a window's worth of keys. Each key is thus
//! sorted among the few sharing its 4 µs, instead of being sifted through
//! a heap of hundreds on its way in and out.
//!
//! **Why the order is exact.** Every key in the front belongs to the
//! front bucket or an earlier one, every key in the ring to a later
//! bucket inside the window, every overflow key to a bucket beyond it;
//! buckets partition time in order. So the front's smallest key is the
//! smallest key of the queue, and the front is sorted on the full `(time,
//! rank, sequence)` triple, a total order because sequence numbers are
//! unique. The buckets only decide *when* a key gets sorted, never
//! *where*: any structure that pops its minimum pops the one sequence the
//! order defines, so the calendar pops exactly what a binary heap of the
//! same keys would, and a run's events, reports and checkpoints do not
//! depend on the structure.
//!
//! The bucket width and count are constants, not options. 4 µs is below
//! half a SIFS (10 µs), so distinct MAC instants of one station rarely
//! share a bucket, and the window covers the slot (20 µs), DIFS (50 µs),
//! EIFS (364 µs), the response timeouts and a 512-byte data frame's
//! airtime (≈ 2.4 ms at 2 Mbps): nearly everything the MAC and the
//! channel schedule lands in the front or the ring. What lies further out
//! — traffic emissions, routing timers, probes — waits in the overflow
//! heap, which stays small. A queue whose keys are spread a millisecond
//! apart or more keeps nearly all of them in the overflow and pays the
//! heap's cost plus a bucket hop; the simulator's are not. The ring's
//! bucket heads are allocated on the first push that needs them, so an
//! empty queue costs no more than a few vectors' headers.
//!
//! # Logical events and physical entries
//!
//! Usually one queue entry *is* one event. A caller that schedules a whole
//! batch of events whose pop order it already knows — a sorted list — can
//! instead park the list on its own side and push one **cursor** entry
//! keyed with the list head's `(time, rank)` ([`EventQueue::push_cursor`]),
//! counting the batch with [`EventQueue::count_scheduled`]. When the cursor
//! surfaces, the caller pops it ([`EventQueue::pop`], which fires the
//! head's key) and *holds* it: it handles the head event, and while the
//! list's next key is still below the queue's next entry
//! ([`EventQueue::next_precedes`]) it fires that key itself
//! ([`EventQueue::fire`] — the clock moves, the queue is not touched) and
//! handles the next event too. The comparison must be repeated after
//! every handled event, because handling one may schedule something that
//! lands before the list's next element. When the queue's next entry comes
//! first — or the caller wants to stop for any other reason — the cursor
//! goes back under its next key ([`EventQueue::push_cursor`]); a spent
//! list pushes nothing. The logical events fire in the same `(time, rank)`
//! sequence as one entry per event would pop, provided no cursor-carried
//! event shares its `(time, rank)` with any other event — cursors have no
//! per-event sequence number to break such a tie with.
//!
//! [`EventQueue::scheduled_total`] counts *logical* events,
//! [`EventQueue::len`] *physical* entries, and
//! [`EventQueue::pending_logical`] lists the logical population by asking
//! the caller to expand each cursor's remaining tail. A held cursor is in
//! neither: callers push it back before anything else looks at the queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{Duration, SimTime};

/// A bucket is `2^BUCKET_SHIFT` ns wide (4.096 µs).
const BUCKET_SHIFT: u32 = 12;

/// Buckets in the calendar's ring.
const BUCKETS: usize = 1024;

/// How far past the front bucket's start the ring reaches (≈ 4.19 ms);
/// keys further out wait in the overflow heap.
pub const WINDOW: Duration = Duration::from_nanos((BUCKETS as u64) << BUCKET_SHIFT);

const RING_MASK: u64 = BUCKETS as u64 - 1;

/// 64-bit words of the ring's occupancy bitmap; the summary word has a
/// bit per word, so there are at most 64.
const WORDS: usize = BUCKETS / 64;

const _: () = assert!(BUCKETS.is_power_of_two() && BUCKETS >= 64 && WORDS <= 64);

/// The end of a bucket's list.
const NIL: u32 = u32::MAX;

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

/// The pop order `(at, rank, seq)` — the derived lexicographic
/// comparison, the rank as two words so the key aligns to 8 bytes, not a
/// `u128`'s 16 — and the slab slot of the payload. `seq` is unique, so
/// `slot` never decides a comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    rank_hi: u64,
    rank_lo: u64,
    seq: u64,
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<Key>() <= 40);

impl Key {
    #[inline]
    fn rank(&self) -> u128 {
        (self.rank_hi as u128) << 64 | self.rank_lo as u128
    }

    /// The absolute bucket number of the key's instant.
    #[inline]
    fn bucket(&self) -> u64 {
        self.at.as_nanos() >> BUCKET_SHIFT
    }
}

/// One slab slot: a payload, and — while its key sits in a ring bucket —
/// that key and the link to the bucket's next slot.
#[derive(Debug)]
struct Slot<E> {
    event: Option<E>,
    key: Key,
    next: u32,
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
    /// Every key of bucket `cur` or earlier (never a window earlier),
    /// sorted descending: the next key is the last. Empty only when the
    /// whole queue is.
    front: Vec<Key>,
    /// The front bucket's absolute number (`at >> BUCKET_SHIFT`).
    cur: u64,
    /// First slot of each ring bucket, indexed by bucket number modulo
    /// `BUCKETS` and meaningful where `occupied` has the bucket's bit.
    /// Allocated by the first key the ring takes.
    heads: Vec<u32>,
    /// One bit per ring bucket holding keys.
    occupied: [u64; WORDS],
    /// One bit per nonzero word of `occupied`.
    summary: u64,
    /// Keys of buckets `cur + BUCKETS` and later.
    overflow: BinaryHeap<Reverse<Key>>,
    /// Payloads, addressed by [`Key::slot`]; vacant slots are listed in
    /// `free`.
    slab: Vec<Slot<E>>,
    free: Vec<u32>,
    len: usize,
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
            front: Vec::new(),
            cur: 0,
            heads: Vec::new(),
            occupied: [0; WORDS],
            summary: 0,
            overflow: BinaryHeap::new(),
            slab: Vec::with_capacity(cap),
            free: Vec::new(),
            len: 0,
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
        self.len
    }

    /// `true` if no events are waiting.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
            Some(slot) => slot,
            None => u32::try_from(self.slab.len())
                .ok()
                .filter(|&s| s != NIL)
                .expect("under 2^32 - 1 pending entries"),
        };
        let key = Key {
            at,
            rank_hi: (rank >> 64) as u64,
            rank_lo: rank as u64,
            seq: self.seq,
            slot,
        };
        match self.slab.get_mut(slot as usize) {
            Some(s) => s.event = Some(event),
            None => self.slab.push(Slot {
                event: Some(event),
                key,
                next: NIL,
            }),
        }
        self.seq += 1;
        self.len += 1;
        if self.len == 1 {
            // An empty queue has no front bucket to keep: this key's is.
            self.cur = key.bucket();
            self.front.push(key);
        } else {
            self.place(key);
        }
    }

    /// File `key` by its bucket: into the front, the ring or the
    /// overflow.
    #[inline]
    fn place(&mut self, key: Key) {
        let b = key.bucket();
        if b <= self.cur {
            if self.cur - b >= BUCKETS as u64 {
                self.reanchor(key);
            } else {
                // Usually among the next few: scan from the front's end.
                let at = self
                    .front
                    .iter()
                    .rposition(|k| *k > key)
                    .map_or(0, |p| p + 1);
                self.front.insert(at, key);
            }
        } else if b - self.cur < BUCKETS as u64 {
            self.link(key, b);
        } else {
            self.overflow.push(Reverse(key));
        }
    }

    /// Thread `key` onto ring bucket `b`'s list.
    #[inline]
    fn link(&mut self, key: Key, b: u64) {
        if self.heads.is_empty() {
            self.heads = vec![0; BUCKETS];
        }
        let i = (b & RING_MASK) as usize;
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        let s = &mut self.slab[key.slot as usize];
        s.key = key;
        s.next = if self.occupied[w] & bit != 0 {
            self.heads[i]
        } else {
            NIL
        };
        self.heads[i] = key.slot;
        self.occupied[w] |= bit;
        self.summary |= 1 << w;
    }

    /// The absolute number of the first occupied ring bucket, if any.
    /// The ring holds buckets `cur + 1 .. cur + BUCKETS` and bucket
    /// `cur`'s own ring position is always vacant, so a circular scan
    /// from that position meets them in time order.
    fn next_occupied(&self) -> Option<u64> {
        if self.summary == 0 {
            return None;
        }
        let start = (self.cur & RING_MASK) as usize;
        let (w, bit) = (start / 64, start % 64);
        let here = self.occupied[w] & (!0u64 << bit);
        let i = if here != 0 {
            w * 64 + here.trailing_zeros() as usize
        } else {
            let later = self.summary & (!1u64 << w);
            let w = if later != 0 { later } else { self.summary }.trailing_zeros() as usize;
            w * 64 + self.occupied[w].trailing_zeros() as usize
        };
        Some(self.cur + ((i as u64).wrapping_sub(start as u64) & RING_MASK))
    }

    /// The front ran dry with keys still pending: make the first
    /// occupied bucket the front bucket, let the window's new end take
    /// in what the overflow now covers, and sort that bucket into the
    /// front.
    fn refill(&mut self) {
        debug_assert!(self.front.is_empty() && self.len > 0);
        let next = match self.next_occupied() {
            Some(b) => b,
            None => self.overflow.peek().expect("keys are pending").0.bucket(),
        };
        self.cur = next;
        while let Some(&Reverse(key)) = self.overflow.peek() {
            let b = key.bucket();
            if b - next >= BUCKETS as u64 {
                break;
            }
            self.overflow.pop();
            if b == next {
                self.front.push(key);
            } else {
                self.link(key, b);
            }
        }
        let i = (next & RING_MASK) as usize;
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        if self.occupied[w] & bit != 0 {
            let mut s = self.heads[i];
            while s != NIL {
                let slot = &self.slab[s as usize];
                self.front.push(slot.key);
                s = slot.next;
            }
            self.occupied[w] &= !bit;
            if self.occupied[w] == 0 {
                self.summary &= !(1 << w);
            }
        }
        self.front.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// `key` lands a whole window or more before the front bucket: the
    /// clock had a gap ahead of it (or the queue is being filled late
    /// keys first). Its bucket becomes the front bucket. Every ring key
    /// is now beyond the window and moves to the overflow; the old front
    /// keys are filed afresh. Without this the front would collect every
    /// key pushed into the gap.
    #[cold]
    fn reanchor(&mut self, key: Key) {
        for w in 0..WORDS {
            let mut bits = std::mem::take(&mut self.occupied[w]);
            while bits != 0 {
                let mut s = self.heads[w * 64 + bits.trailing_zeros() as usize];
                while s != NIL {
                    let slot = &self.slab[s as usize];
                    self.overflow.push(Reverse(slot.key));
                    s = slot.next;
                }
                bits &= bits - 1;
            }
        }
        self.summary = 0;
        let old = std::mem::take(&mut self.front);
        self.cur = key.bucket();
        self.front.push(key);
        for k in old {
            self.place(k);
        }
    }

    /// Fire a key the caller holds outside the queue — the next event of
    /// a popped cursor's list (see the module docs): the clock advances to
    /// `at` exactly as [`EventQueue::pop`] would advance it, and the queue
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
        let key = self.front.pop()?;
        debug_assert!(key.at >= self.now, "time went backwards");
        self.now = key.at;
        let event = self.slab[key.slot as usize]
            .event
            .take()
            .expect("a pending key owns a full slot");
        self.free.push(key.slot);
        self.len -= 1;
        if self.front.is_empty() && self.len > 0 {
            self.refill();
        }
        Some(ScheduledEvent {
            at: key.at,
            rank: key.rank(),
            seq: key.seq,
            event,
        })
    }

    /// Due time of the next event without popping it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.front.last().map(|k| k.at)
    }

    /// The next entry's key without popping it.
    #[inline]
    pub fn peek(&self) -> Option<EventKey> {
        self.front.last().map(|k| EventKey {
            at: k.at,
            rank: k.rank(),
        })
    }

    /// Whether the next entry comes strictly before `(at, rank)` — what a
    /// held cursor asks before firing its list's next key. The rank is
    /// assembled only when the instants tie.
    #[inline]
    pub fn next_precedes(&self, at: SimTime, rank: u128) -> bool {
        self.front
            .last()
            .is_some_and(|k| k.at < at || (k.at == at && k.rank() < rank))
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
        let mut keys: Vec<Key> = Vec::with_capacity(self.len);
        keys.extend_from_slice(&self.front);
        for w in 0..WORDS {
            let mut bits = self.occupied[w];
            while bits != 0 {
                let mut s = self.heads[w * 64 + bits.trailing_zeros() as usize];
                while s != NIL {
                    keys.push(self.slab[s as usize].key);
                    s = self.slab[s as usize].next;
                }
                bits &= bits - 1;
            }
        }
        keys.extend(self.overflow.iter().map(|&Reverse(k)| k));
        debug_assert_eq!(keys.len(), self.len, "every pending key is filed once");
        keys.sort_unstable();
        let mut out = Vec::with_capacity(keys.len());
        for k in keys {
            let event = self.slab[k.slot as usize]
                .event
                .as_ref()
                .expect("a pending key owns a full slot");
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
            // Hold the cursor while its next key precedes the next entry.
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
