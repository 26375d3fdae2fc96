//! The wireless channel: who hears a transmission, how strongly, and when.
//!
//! The channel is not a node-like object — it is a *pattern*: when a
//! node transmits, the simulator computes the received power at every
//! candidate receiver from the propagation model and current positions,
//! and each receiver's receive row (`soa::HotState::rx`) sees an
//! `ArrivalStart` and an `ArrivalEnd` after the speed-of-light delay,
//! deciding locally what it heard. The row keeps a sum and a count, not a
//! list, so the end hands back the power the start added: a fan-out's
//! receiver entry holds it, and the plain `ArrivalEnd` events made for
//! shipments and snapshots carry it.
//! Arrivals weaker than the configured interference floor are culled
//! (they cannot affect carrier sense or any plausible SINR).
//!
//! # Candidate receivers
//!
//! Candidates come from a [`UniformGrid`] spatial index sized to the
//! maximum reception range (max transmit power against the
//! interference floor), so a query visits only the cells a signal can
//! reach instead of scanning all N nodes. How often a transmitter asks
//! is [`Channel::new`]'s choice, one `match` over whether anything
//! moves and whether that range is finite; there is no option to set.
//!
//! **When nothing moves and that range is finite, a node asks once.**
//! Its first transmission runs the query at the maximum reach, evaluates
//! each candidate's gain and propagation delay, sorts by `(delay, node)`
//! and stores the result as the node's *row* of `((delay << 32) | node,
//! gain)` pairs. Every transmission then walks the row: `power * (gain *
//! impairment)` in exactly the candidate walk's operation order, skip what
//! falls below the interference floor, skip an owned receiver that is
//! down, ship one another region owns, keep the rest — already in
//! `(delay, node)` order, because a filter preserves it. There is no
//! per-transmission query, gain evaluation, distance or sort. A
//! transmission below maximum power cuts the maximum-reach row exactly
//! as its own smaller query would have: whatever lies beyond its cull
//! radius is below the floor under any gain. Rows are derived state — no
//! snapshot carries them, a restored run rebuilds them on demand — and
//! cost 16 bytes per stored neighbour plus 8 per node (`Rows`).
//!
//! **When nodes move and the range is finite, a node asks again only
//! when the index has moved under its row.** Distances change, so a
//! mobile row cannot keep gains, but it can keep the candidate *set*:
//! the ids the index returns around the transmitter's *indexed*
//! position at `max_reach + 2·pad` (pad: see "Mobility refresh"), with
//! the index clock of that moment. Every indexed position — the
//! transmitter's and each receiver's — is within one pad of the truth,
//! so those ids are a superset of the true receivers of any power the
//! node can transmit at. The row is reused while no cell that query
//! covers carries a later stamp ([`UniformGrid::stamp_of`]): the
//! refresh that moves the transmitter stamps its own cell, so a moved
//! centre always asks again, and a restore stamps every cell. A
//! transmission samples the row's candidates exactly, prices them in one
//! fused pass (see "Gains"), times only the audible ones, sorts those by
//! `(delay, node)` with an insertion sort, writes that order back into
//! the row — audible first — and delivers. The next walk meets its
//! audible candidates in the order the last one heard them, nearly
//! sorted already. A kept row costs 4 bytes per stored candidate plus 16
//! per node, and its rebuilds leave at most an eighth more behind
//! (`CandidateRows`).
//!
//! **A disabled floor's unbounded reach** queries afresh per
//! transmission at that transmission's cull radius and prices the
//! result with the same loop, keeping nothing.
//!
//! The scan over all N nodes survives as the test oracle:
//! `Simulator::new_reference` swaps in [`ReferenceScan`] (every node but
//! the transmitter, every position re-sampled per timestamp, gains pair
//! by pair, one full sort), walked instead of any of the machinery here.
//! Every path produces the identical arrival sequence; the equivalence
//! suite holds them to it.
//!
//! # Mobility refresh: who moves the index and who only samples
//!
//! Under mobility the index tolerates a per-node
//! drift *pad* (a fraction of a grid cell): each node carries a refresh
//! deadline — the instant its position could first drift past the pad,
//! from `RandomWaypoint::stale_after` — kept in a min-heap, and advancing
//! the clock re-samples only nodes whose deadlines have passed, O(moved)
//! instead of O(N). That deadline chain is the **only** writer of the
//! index: it moves the node between buckets (stamping the cells it
//! leaves and enters, which is what retires the candidate rows that
//! cover them) and schedules the node's next deadline, which is what
//! guarantees every indexed position is at most one pad stale. A query
//! around a transmitter's exact position inflates its radius by the
//! pad, a candidate row around its indexed position by two (and the
//! index's distance pre-cull tests its own, equally aged copy of the
//! positions), so the stale index still yields a superset of every true
//! receiver.
//!
//! A transmission then samples the transmitter and each candidate
//! *exactly* at the current instant **for the physics only**
//! (`sample_exact`): the struct-of-arrays position is overwritten,
//! nothing is written to the index and no deadline is touched. Gains
//! and delays therefore always see exact positions and the run is
//! bit-identical to the reference's rescan of every node — only the
//! number of waypoint evaluations changes. (Feeding every sample back into the index, as
//! an earlier version did, bought nothing the padded query needs and
//! cost ≈ 21 ns per candidate against ≈ 4.5 ns for the waypoint
//! evaluation itself.) On every `AUDIT_EVERY`-th mobile transmission
//! debug builds audit the staleness bound against clones of the
//! mobility models, and the candidates against the query they stand
//! for: every node within this transmission's cull radius plus one pad
//! of the transmitter's exact position must be among them.
//!
//! # Gains
//!
//! Propagation is dispatched statically through [`PropagationModel`] and
//! evaluated in one fused pass over a candidate list
//! ([`PropagationModel::distance_gains_into_indexed`]): each candidate's
//! exact distance is computed once and both its gain — bit-identical to
//! `gain(a, b)` — and, if it is audible, its delay derive from it. The
//! delay rounds to the nanosecond by an exact integer split instead of a
//! libm `round` (`nearest_ns`). That pass runs per transmission where
//! nodes move or the reach is unbounded, once per transmitter where
//! static rows are kept. A static row replays each pair's gain from that
//! one evaluation, which is everything a gain cache did: the
//! block-sparse cache that shadowed static scenarios used to stream
//! their gains through is gone (and the dense N×N table before it).
//! Median ns per event on a static field at
//! the benchmark's density, 6 s simulated, 2-vCPU sandbox — the first
//! three columns from five alternating rounds before those paths were
//! deleted, the last from the session that deleted the cache, where the
//! parent read 66.4 live on the first field and 281–292 and 407 through
//! the cache on the other two:
//!
//! | static field | live | sparse | dense (build) | rows |
//! |---|---|---|---|---|
//! | two-ray, 2 000 nodes | 64.2 | — | 66.1 (29–33 ms, 32 MB) | 48.1 |
//! | shadowed σ = 4 dB, 2 000 nodes | 470 | 305 | 182 (238–271 ms) | 109 |
//! | shadowed σ = 4 dB, 8 000 nodes | 554 | 450 | over the cap | 154 |
//!
//! # One queue entry per cursor, and a held walk
//!
//! A transmission heard by K owned receivers is 2·K *logical* events but
//! only two *physical* queue entries. [`Channel::radiate`] has the
//! receivers in `(delay, node)` order (one packed integer per receiver;
//! a static row is stored in it, every other path sorts) —
//! which is the `(time, rank)` pop order of both their starts and their
//! ends, because every receiver's start sits at `tx start + delay`, its
//! end at `tx end + delay`, and arrival ranks order by receiver at equal
//! instants — parks the list in a slab beside the frame, and pushes a
//! start cursor and an end cursor keyed with the head receiver
//! ([`QueueEntry::Cursor`]).
//!
//! When a cursor surfaces, the event loop (`Simulator::advance`) pops it
//! and *holds* it: it dispatches the head arrival straight from the
//! list — node, key and power copied out of the fan-out's slot, the
//! payload **by reference**; no `SimEvent` exists unless an observer
//! asks to see one — and keeps going while the list's next `(time,
//! rank)` still precedes the queue's next entry
//! ([`EventQueue::next_precedes`], which compares instants first and
//! assembles a 128-bit rank only on a tie) and stays inside the caller's
//! bound, firing each key on the queue's clock without touching the
//! queue. Successive arrivals of one transmission are ≤ 1 µs apart while
//! everything else is a 20 µs slot away, so a walk usually runs the whole
//! list. The comparison is repeated after **every** dispatch: a PCMAC
//! receiver locking onto a frame schedules a zero-delay control broadcast
//! whose first arrival can precede the data frame's next one. When
//! something else comes first the cursor goes back under its next key.
//!
//! The fan-out never leaves its slot: the walk re-reads it by slot
//! number ([`Channel::fan`]) around each dispatch, since a dispatch may
//! radiate a new fan-out and grow the slab, and moves the cursor once at
//! the end ([`Channel::set_cursor`]). A start walk holds one copy of the
//! payload for its handlers — a reference count for a data frame, the
//! 32-byte broadcast for a control one; an end walk needs none.
//!
//! **No cursor is held across a point where anything else looks at the
//! queue.** `advance` returns with every pending event in the queue, so
//! checkpoint cuts, `snapshot()`, a shard window's horizon, a cancel
//! check and the test-only `step()` all see the complete population
//! ([`Channel::pending_events`] expands cursors back into the arrivals
//! they still owe, from each cursor's position as the last walk left it).
//!
//! Two facts make the cursors exact rather than approximately right:
//! arrival ranks embed `(class, receiver, transmission key)` and are
//! unique, so the queue's insertion sequence never arbitrates an
//! arrival; and a pending arrival is never cancelled. Plain
//! `ArrivalStart`/`ArrivalEnd` entries remain legal queue content —
//! snapshot restore and cross-shard shipments schedule them per
//! receiver — and dispatch through the same by-reference handlers.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use pcmac_engine::{Duration, EventQueue, Milliwatts, NodeId, Point, SimTime, UniformGrid};
use pcmac_mac::{CtrlFrame, Frame};
use pcmac_phy::{PropagationModel, Shadowed, TwoRayGround};

use crate::config::ScenarioConfig;
use crate::event::{arrival_rank, SimEvent};
use crate::metrics::HotPathProfile;
use crate::reference::ReferenceScan;
use crate::sim::{BufPool, ShardCtx};
use crate::soa::HotState;

/// Speed of light (m/s) for propagation delays.
const C: f64 = 299_792_458.0;

/// Relative slack on the culling radius, absorbing the floating-point
/// error of inverting the path-loss formula so the spatial index can
/// never drop a receiver the exact power test would keep.
const RADIUS_SLACK: f64 = 1.0 + 1e-9;

/// Refresh drift pad, as a fraction of a grid cell: a node's
/// indexed position may go stale by up to this much before its refresh
/// deadline fires. Larger pads mean rarer deadline refreshes but
/// slightly fatter candidate rings (queries inflate by the pad).
const REFRESH_PAD_CELL_FRACTION: f64 = 0.125;

/// Debug builds audit the index's staleness bound and the candidates
/// on every this-many-th transmission of a mobile run (an audit is
/// O(N)).
#[cfg(debug_assertions)]
const AUDIT_EVERY: u32 = 128;

/// Query-side inflation over the drift pad, absorbing floating-point
/// error at the drift boundary so a node sampled exactly at its
/// deadline can never be missed.
const REFRESH_PAD_SLACK: f64 = 1.01;

/// What a transmission carries: a data-channel frame (shared by every
/// receiver) or a power-control broadcast.
#[derive(Debug, Clone)]
pub(crate) enum Payload {
    Data(Arc<Frame>),
    Ctrl(CtrlFrame),
}

impl Payload {
    fn is_ctrl(&self) -> bool {
        matches!(self, Payload::Ctrl(_))
    }

    /// The arrival-start event of this payload at `node`.
    pub(crate) fn arrival_start(
        &self,
        node: NodeId,
        key: u64,
        power: Milliwatts,
        end: SimTime,
    ) -> SimEvent {
        match self {
            Payload::Data(frame) => SimEvent::ArrivalStart {
                node,
                key,
                power,
                end,
                frame: frame.clone(),
            },
            Payload::Ctrl(frame) => SimEvent::CtrlArrivalStart {
                node,
                key,
                power,
                end,
                frame: frame.clone(),
            },
        }
    }

    /// The matching arrival-end event.
    pub(crate) fn arrival_end(&self, node: NodeId, key: u64, power: Milliwatts) -> SimEvent {
        match self {
            Payload::Data(_) => SimEvent::ArrivalEnd { node, key, power },
            Payload::Ctrl(_) => SimEvent::CtrlArrivalEnd { node, key, power },
        }
    }
}

/// One transmission, as the sender's dispatch hands it to the channel.
pub(crate) struct Transmission {
    /// Transmitting node.
    pub(crate) src: usize,
    /// Transmission key (`Simulator::tx_key`).
    pub(crate) key: u64,
    pub(crate) power: Milliwatts,
    /// Linear gain attenuation of the active impairment bursts (1.0
    /// without any).
    pub(crate) impair: f64,
    /// First and last instant on the air at the transmitter.
    pub(crate) start: SimTime,
    pub(crate) end: SimTime,
    pub(crate) payload: Payload,
}

impl Transmission {
    /// Whether this is its node's first transmission ever: the key's low
    /// word is the node's transmission counter (`Simulator::tx_key`),
    /// which snapshots carry — so it stays `false` for a node that
    /// transmitted before a restore.
    #[inline]
    fn is_first(&self) -> bool {
        self.key as u32 == 0
    }
}

/// One ready-made cross-region arrival pair: everything the receiving
/// shard needs to schedule the start/end events its own sender loop
/// would have produced.
#[derive(Debug, Clone)]
pub(crate) struct Shipment {
    pub(crate) at: SimTime,
    pub(crate) node: NodeId,
    pub(crate) key: u64,
    pub(crate) power: Milliwatts,
    pub(crate) end: SimTime,
    pub(crate) payload: Payload,
}

/// What the simulator's event queue holds: an event, or a cursor over
/// the sorted receivers of one fan-out (see the module docs). Cursors
/// never leave this module — the dispatcher, observers and snapshots
/// only ever see the [`SimEvent`]s they stand for.
#[derive(Debug)]
pub(crate) enum QueueEntry {
    Event(SimEvent),
    Cursor {
        /// Slab slot of the fan-out.
        fan: u32,
        /// `false` walks the arrival starts, `true` the ends.
        end: bool,
    },
}

/// One owned receiver of a fan-out.
#[derive(Debug, Clone, Copy)]
struct Receiver {
    /// `(propagation delay in ns << 32) | node`: one integer that sorts
    /// like `(delay, node)`.
    at: u64,
    power: Milliwatts,
}

/// `(delay, node)` as the one integer receivers sort by.
///
/// # Panics
/// If `delay` does not fit 32 bits of nanoseconds (4.29 s: no radio
/// link on Earth, so a misconfigured delay floor).
#[inline]
fn pack_delay_node(delay: Duration, node: u32) -> u64 {
    let ns = delay.as_nanos();
    assert!(
        ns <= u32::MAX as u64,
        "propagation delay of {ns} ns to node {node} overflows the receiver sort key"
    );
    ns << 32 | node as u64
}

impl Receiver {
    #[inline]
    fn delay(&self) -> Duration {
        Duration::from_nanos(self.at >> 32)
    }

    #[inline]
    fn node(&self) -> u32 {
        self.at as u32
    }
}

/// One stored neighbour of a static transmitter: where and when it hears
/// the transmitter, and how strongly per milliwatt radiated.
#[derive(Debug, Clone, Copy)]
struct Neighbour {
    /// [`Receiver::at`].
    at: u64,
    /// Linear gain of the pair, from its one evaluation.
    gain: f64,
}

/// Per-node rows packed into one arena: the receiver rows of a static
/// scenario (`Rows<Neighbour>`, 16 bytes per stored neighbour) and the
/// candidate rows of a mobile one (inside [`CandidateRows`]). 8 bytes of
/// index per node; no row has an allocation or a capacity of its own.
#[derive(Debug)]
struct Rows<T> {
    /// Per node, `(start, len)` of its row — chunk `start / CHUNK` from
    /// offset `start % CHUNK` — or [`Rows::UNBUILT`].
    index: Vec<(u32, u32)>,
    /// The arena every built row lives in, in chunks that are never
    /// reallocated: a row does not straddle chunks, and one longer than
    /// [`Rows::CHUNK`] has a chunk to itself. (One growing `Vec` cost the
    /// 32 000-node benchmark field 1.4–1.8 MiB more resident memory than
    /// the rows' own 3.0, in the holes its reallocations left behind.)
    chunks: Vec<Vec<T>>,
    /// Entries some row holds.
    live: usize,
    /// Entries no row holds any more: what [`Rows::replace`] leaves
    /// behind until [`Rows::compact`] reclaims it.
    dead: usize,
}

impl<T: Copy> Rows<T> {
    /// Entries per chunk (16 KiB).
    const CHUNK: usize = (16 << 10) / std::mem::size_of::<T>();
    /// The index entry of a node without a row.
    const UNBUILT: (u32, u32) = (u32::MAX, 0);

    fn new(nodes: usize) -> Self {
        Rows {
            index: vec![Self::UNBUILT; nodes],
            chunks: Vec::new(),
            live: 0,
            dead: 0,
        }
    }

    /// Whether a row of `len` entries fits a chunk from offset `off`
    /// (an empty row, too, needs its offset inside the chunk).
    #[inline]
    fn fits(off: usize, len: usize) -> bool {
        off + len.max(1) <= Self::CHUNK
    }

    /// Node `i`'s row, once stored.
    #[inline]
    fn get(&self, i: usize) -> Option<&[T]> {
        let row = self.index[i];
        let (start, len) = (row.0 as usize, row.1 as usize);
        (row != Self::UNBUILT)
            .then(|| &self.chunks[start / Self::CHUNK][start % Self::CHUNK..][..len])
    }

    /// [`Rows::get`], mutably.
    #[inline]
    fn get_mut(&mut self, i: usize) -> Option<&mut [T]> {
        let row = self.index[i];
        let (start, len) = (row.0 as usize, row.1 as usize);
        (row != Self::UNBUILT)
            .then(|| &mut self.chunks[start / Self::CHUNK][start % Self::CHUNK..][..len])
    }

    /// Store `row` as node `i`'s, which has none, at the end of the
    /// arena, and return it.
    fn insert(&mut self, i: usize, row: impl ExactSizeIterator<Item = T>) -> &mut [T] {
        debug_assert_eq!(self.index[i], Self::UNBUILT);
        let len = row.len();
        if self.chunks.last().is_none_or(|c| !Self::fits(c.len(), len)) {
            self.chunks.push(Vec::with_capacity(len.max(Self::CHUNK)));
        }
        let chunk = self.chunks.len() - 1;
        let off = self.chunks[chunk].len();
        let start = u32::try_from(chunk * Self::CHUNK + off).expect("under 2^32 stored entries");
        self.index[i] = (start, len as u32);
        self.live += len;
        let slab = &mut self.chunks[chunk];
        slab.extend(row);
        &mut slab[off..]
    }

    /// Make `row` node `i`'s: over its old one when it is no longer,
    /// at the end of the arena otherwise. The entries that frees are
    /// dead; once they number over a chunk and over an eighth of the live
    /// ones, the arena is compacted, so neither bound is ever exceeded
    /// between calls.
    fn replace(&mut self, i: usize, row: &[T]) -> &mut [T] {
        let (start, len) = self.index[i];
        let (start, len) = (start as usize, len as usize);
        if self.index[i] != Self::UNBUILT && row.len() <= len {
            self.live -= len - row.len();
            self.dead += len - row.len();
            self.index[i].1 = row.len() as u32;
            self.chunks[start / Self::CHUNK][start % Self::CHUNK..][..row.len()]
                .copy_from_slice(row);
        } else {
            self.live -= len;
            self.dead += len;
            self.index[i] = Self::UNBUILT;
            self.insert(i, row.iter().copied());
        }
        if self.dead > Self::CHUNK.max(self.live / 8) {
            self.compact();
        }
        self.get_mut(i).expect("just stored")
    }

    /// Reinsert every row, in arena order, into a fresh arena, dropping
    /// each old chunk once the rows it held have moved: compacting holds
    /// at most one chunk more than the arena it leaves.
    fn compact(&mut self) {
        let mut order: Vec<u32> = (0..self.index.len() as u32)
            .filter(|&i| self.index[i as usize] != Self::UNBUILT)
            .collect();
        order.sort_unstable_by_key(|&i| self.index[i as usize]);
        let mut old = std::mem::take(&mut self.chunks).into_iter();
        let (mut k, mut held) = (0, old.next().unwrap_or_default());
        self.live = 0;
        self.dead = 0;
        for i in order {
            let (start, len) = self.index[i as usize];
            let (start, len) = (start as usize, len as usize);
            while k < start / Self::CHUNK {
                held = old.next().expect("a stored row's chunk");
                k += 1;
            }
            self.index[i as usize] = Self::UNBUILT;
            let s = start % Self::CHUNK;
            self.insert(i as usize, held[s..s + len].iter().copied());
        }
    }
}

/// The candidate rows of a mobile scenario with finite reach (module
/// docs, "Candidate receivers"): per node, the ids the index returned
/// around its indexed position at [`CandidateRows::reach`] — kept in the
/// order its last transmission heard them — and the index clock they
/// were read at.
///
/// Memory, per node: 8 bytes of row index and 8 of clock, 16 in all,
/// whether or not the node transmits. Per stored candidate: one 4-byte
/// id. Rows are replaced in place while they do not grow; a grown one
/// moves to the end of the arena, and what it leaves is reclaimed once
/// it exceeds both an eighth of the live ids and one 16 KiB chunk —
/// so at most 4.5 bytes per live candidate plus 16 KiB, and the last
/// chunk's unfilled tail.
#[derive(Debug)]
struct CandidateRows {
    ids: Rows<u32>,
    built: Vec<u64>,
    /// The row query's radius: the maximum reach plus two drift pads
    /// (with their slack) — one for the transmitter's indexed position,
    /// one for each receiver's.
    reach: f64,
}

impl CandidateRows {
    fn new(nodes: usize, reach: f64) -> Self {
        CandidateRows {
            ids: Rows::new(nodes),
            // Older than any stamp: the index's construction ticks its
            // clock past 0.
            built: vec![0; nodes],
            reach,
        }
    }

    /// Node `i`'s row, first read afresh from `grid` (into `scratch`) if
    /// a cell it covers changed since it was read.
    fn current(
        &mut self,
        grid: &UniformGrid,
        i: usize,
        scratch: &mut Vec<u32>,
        prof: Option<&mut HotPathProfile>,
    ) -> &mut [u32] {
        let center = grid.position(i as u32);
        if grid.stamp_of(center, self.reach) <= self.built[i] {
            return self.ids.get_mut(i).expect("a stamped row is stored");
        }
        scratch.clear();
        grid.query_circle(center, self.reach, Some(i as u32), scratch);
        if let Some(p) = prof {
            p.grid_queries += 1;
            p.grid_candidates += scratch.len() as u64;
        }
        self.built[i] = grid.clock();
        self.ids.replace(i, scratch)
    }
}

/// Where a transmission's receivers come from: fixed by the scenario's
/// shape in [`Channel::new`] (module docs, "Candidate receivers").
#[derive(Debug)]
enum Receivers {
    /// Nothing moves, finite reach: each transmitter's priced row.
    Rows(Rows<Neighbour>),
    /// Nodes move, finite reach: each transmitter's kept candidates.
    Candidates(CandidateRows),
    /// Unbounded reach: a fresh query per transmission.
    Query,
    /// The test oracle (`Simulator::new_reference`).
    Reference(ReferenceScan),
}

/// The in-flight arrivals of one transmission on this simulator.
#[derive(Debug)]
pub(crate) struct FanOut {
    payload: Payload,
    key: u64,
    start: SimTime,
    end: SimTime,
    /// Strictly increasing in `at`, i.e. in `(delay, node)`.
    rx: Vec<Receiver>,
    /// Next un-fired receiver of the start cursor and of the end cursor.
    next: [u32; 2],
}

impl FanOut {
    /// Number of receivers.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.rx.len()
    }

    /// `(time, rank)` of receiver `i`'s arrival start or end.
    #[inline]
    pub(crate) fn key_of(&self, i: usize, end: bool) -> (SimTime, u128) {
        let r = &self.rx[i];
        let base = if end { self.end } else { self.start };
        (
            base + r.delay(),
            arrival_rank(self.payload.is_ctrl(), end, r.node(), self.key),
        )
    }

    /// Whether this is a control-channel broadcast.
    #[inline]
    pub(crate) fn is_ctrl(&self) -> bool {
        self.payload.is_ctrl()
    }

    /// What every receiver hears.
    #[inline]
    pub(crate) fn payload(&self) -> &Payload {
        &self.payload
    }

    /// The next un-fired receiver of the start or `end` cursor.
    #[inline]
    pub(crate) fn next(&self, end: bool) -> usize {
        self.next[end as usize] as usize
    }

    /// Receiver `i`'s node, the transmission key and the power it hears
    /// — everything its arrival handlers take besides the payload.
    #[inline]
    pub(crate) fn receiver(&self, i: usize) -> (usize, u64, Milliwatts) {
        let r = &self.rx[i];
        (r.node() as usize, self.key, r.power)
    }

    /// The event receiver `i`'s arrival start or end stands for — built
    /// for observers and snapshots only; dispatch reads the fan-out in
    /// place through [`FanOut::receiver`].
    pub(crate) fn event_of(&self, i: usize, end: bool) -> SimEvent {
        let r = &self.rx[i];
        let node = NodeId(r.node());
        if end {
            self.payload.arrival_end(node, self.key, r.power)
        } else {
            let done = self.end + r.delay();
            self.payload.arrival_start(node, self.key, r.power, done)
        }
    }
}

/// Channel state: propagation, the spatial index, the receiver rows,
/// deadline-driven position refresh, and the fan-outs in flight.
#[derive(Debug)]
pub(crate) struct Channel {
    propagation: PropagationModel,
    /// Spatial index over `HotState::positions` (kept in sync by
    /// [`Channel::refresh_positions`]; under mobility its entries may
    /// trail true positions by up to `pad_m`).
    grid: UniformGrid,
    receivers: Receivers,
    any_mobile: bool,
    /// Metres of drift the index tolerates before a deadline refresh.
    pad_m: f64,
    /// Min-heap of `(deadline, node)` refresh entries, one live chain
    /// per mobile node: the instant its indexed position could first be
    /// `pad_m` stale.
    refresh_heap: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// Queries since the last index-staleness audit.
    #[cfg(debug_assertions)]
    audit_tick: u32,
    /// Propagation-delay floor in nanoseconds (0 = exact delays).
    delay_floor_ns: u64,
    interference_floor: Milliwatts,
    /// The strongest any transmission can be.
    max_power: Milliwatts,
    /// The farthest any transmission can matter (metres): the cull
    /// radius of `max_power`.
    max_reach: f64,
    /// Candidate-receiver scratch (used only between a position refresh
    /// and the fan-out, which never re-enters).
    candidates: Vec<u32>,
    /// `(distance, gain)` scratch of the fused pass, parallel to the
    /// candidates it priced.
    links: Vec<(f64, f64)>,
    /// The inaudible candidates of one transmission, in walk order.
    quiet: Vec<u32>,
    /// Fan-out slab: `None` slots are listed in `free_slots`.
    fanouts: Vec<Option<FanOut>>,
    free_slots: Vec<u32>,
    rx_pool: BufPool<Receiver>,
}

impl Channel {
    /// Build the channel of `cfg` over the start positions in `hot`,
    /// seeding `hot`'s exact-sample stamps.
    pub(crate) fn new(cfg: &ScenarioConfig, hot: &mut HotState, any_mobile: bool) -> Self {
        let n = hot.positions.len();
        let propagation = match cfg.shadowing {
            Some(s) => PropagationModel::Shadowed(Shadowed::new(
                TwoRayGround::ns2_default(),
                s.sigma_db,
                s.symmetric,
                cfg.seed,
            )),
            None => PropagationModel::TwoRay(TwoRayGround::ns2_default()),
        };

        // Cell size: the farthest any transmission can matter — maximum
        // transmit power against the interference floor (inflated for the
        // worst-case shadowing boost). The grid may shrink cells slightly
        // to tile the field evenly (and caps the cell count on huge
        // fields), so a max-reach query touches a small O(1) block of
        // cells around the transmitter — typically 3×3, sometimes 4×4.
        let max_power = cfg.mac.max_power();
        let max_reach = cull_radius(&propagation, max_power, cfg.interference_floor);
        let cell = if max_reach.is_finite() {
            max_reach.max(1.0)
        } else {
            cfg.field.0.max(cfg.field.1)
        };
        let grid = UniformGrid::new(cfg.field.0, cfg.field.1, cell, &hot.positions);
        let pad_m = grid.cell_size() * REFRESH_PAD_CELL_FRACTION;

        // Rows are lazy: a node's is built by its first transmission.
        let receivers = match (any_mobile, max_reach.is_finite()) {
            (_, false) => Receivers::Query,
            (false, true) => Receivers::Rows(Rows::new(n)),
            (true, true) => Receivers::Candidates(CandidateRows::new(
                n,
                max_reach + 2.0 * pad_m * REFRESH_PAD_SLACK,
            )),
        };

        // Seed every mobile node's first refresh deadline from its start
        // position (positions are exact at t = 0).
        let mut refresh_heap = BinaryHeap::new();
        if any_mobile {
            hot.sampled_at = vec![SimTime::ZERO; n];
            for (i, m) in hot.mobility.iter().enumerate() {
                let d = m.stale_after(SimTime::ZERO, pad_m);
                if d != SimTime::MAX {
                    refresh_heap.push(Reverse((d, i as u32)));
                }
            }
        }

        Channel {
            propagation,
            grid,
            receivers,
            any_mobile,
            pad_m,
            refresh_heap,
            #[cfg(debug_assertions)]
            audit_tick: 0,
            delay_floor_ns: cfg.delay_floor().as_nanos(),
            interference_floor: cfg.interference_floor,
            max_power,
            max_reach,
            candidates: Vec::new(),
            links: Vec::new(),
            quiet: Vec::new(),
            fanouts: Vec::new(),
            free_slots: Vec::new(),
            rx_pool: BufPool::default(),
        }
    }

    /// Turn this channel into the test oracle (see [`ReferenceScan`]):
    /// from here on receivers come from the scan over every node and
    /// gains from per-pair evaluation; the index, the refresh deadlines
    /// and the receiver rows are never consulted again.
    pub(crate) fn use_reference_scan(&mut self) {
        self.receivers = Receivers::Reference(ReferenceScan::default());
    }

    /// The spatial index's cell size — region boundaries snap to grid
    /// columns so a cell (and the candidate rings around it) never
    /// straddles more than two regions.
    pub(crate) fn cell_size(&self) -> f64 {
        self.grid.cell_size()
    }

    /// Prune the spatial index to the nodes shard `id` keeps hot state
    /// (and grid membership) for: owned nodes plus every node within
    /// maximum reach (in x) of the owned span — the farthest any owned
    /// transmission can matter, so grid queries from owned transmitters
    /// return exactly the full-grid candidate set. Mobile scenarios and
    /// unbounded reach track everything (no static halo is sound when
    /// positions drift across bands); the cold `Node` state stays
    /// owner-only either way, which is the dominant memory term.
    pub(crate) fn track_shard(&mut self, owner: &[u32], id: u32, positions: &[Point]) {
        let halo_reach = self.max_reach;
        if self.any_mobile || !halo_reach.is_finite() {
            return;
        }
        let mut min_x = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        for (i, p) in positions.iter().enumerate() {
            if owner[i] == id {
                min_x = min_x.min(p.x);
                max_x = max_x.max(p.x);
            }
        }
        let tracked: Vec<bool> = owner
            .iter()
            .zip(positions)
            .map(|(&o, p)| o == id || (p.x >= min_x - halo_reach && p.x <= max_x + halo_reach))
            .collect();
        self.grid.retain_nodes(|i| tracked[i as usize]);
    }

    /// The conservative lookahead (ns) a region run may use: at least
    /// the configured delay floor, and — for static scenarios — one less
    /// than the propagation time across the narrowest gap between
    /// adjacent ownership bands, since the earliest cross-shard effect
    /// of any event is an arrival that must cross that gap. Mobile
    /// scenarios fall back to the floor (bands do not confine moving
    /// positions); a single populated band has no cross-shard traffic at
    /// all, so the whole run (`duration`) is one window.
    pub(crate) fn lookahead_ns(
        &self,
        positions: &[Point],
        owner: &[u32],
        shards: usize,
        duration: Duration,
    ) -> u64 {
        let floor = self.delay_floor_ns;
        if self.any_mobile {
            return floor;
        }
        let mut min_x = vec![f64::INFINITY; shards];
        let mut max_x = vec![f64::NEG_INFINITY; shards];
        for (i, p) in positions.iter().enumerate() {
            let s = owner[i] as usize;
            min_x[s] = min_x[s].min(p.x);
            max_x[s] = max_x[s].max(p.x);
        }
        let mut gap = f64::INFINITY;
        let mut prev: Option<usize> = None;
        for (k, (&lo, &hi)) in min_x.iter().zip(&max_x).enumerate() {
            if lo > hi {
                continue; // empty band
            }
            if let Some(p) = prev {
                gap = gap.min(lo - max_x[p]);
            }
            prev = Some(k);
        }
        if gap == f64::INFINITY {
            // One populated band: nothing ever crosses a boundary.
            return duration.as_nanos().max(floor);
        }
        if gap <= 0.0 {
            return floor;
        }
        // An arrival crossing `gap` metres is delayed at least
        // `floor(gap_ns)` ns (the scheduler rounds), so any lookahead at
        // or under `gap_ns - 1` can never miss a cross-shard effect.
        let gap_ns = (gap / C * 1e9).floor() as u64;
        gap_ns.saturating_sub(1).max(floor)
    }

    /// Re-derive positions, the index and the refresh chains from
    /// mobility models restored *exactly* at `cut` (positions are exact
    /// there, like at t = 0 for a fresh build). Re-bucketing the index
    /// stamps every cell, so no candidate row read before is reused.
    pub(crate) fn resync(&mut self, hot: &mut HotState, cut: SimTime) {
        if !self.any_mobile {
            return;
        }
        // One live deadline chain per node, re-seeded from the cut.
        self.refresh_heap.clear();
        for i in 0..hot.positions.len() {
            hot.positions[i] = hot.mobility[i].position(cut);
            hot.sampled_at[i] = cut;
            let d = hot.mobility[i].stale_after(cut, self.pad_m);
            if d != SimTime::MAX {
                self.refresh_heap.push(Reverse((d, i as u32)));
            }
        }
        // A mobile scenario's index tracks every node (`track_shard`).
        self.grid.rebuild(&hot.positions);
    }

    // ------------------------------------------------------------------
    // Positions
    // ------------------------------------------------------------------

    /// Bring the spatial index up to `now`: pop every refresh deadline
    /// at or before it, re-sample the node, move it in the index and
    /// schedule its next deadline, so no indexed position is ever stale
    /// by more than `pad_m`. This chain is the only writer of the index;
    /// the heap holds one entry per mobile node — O(moved · log N) per
    /// timestamp, not O(N) — and is empty for static scenarios, which
    /// never pay anything. Exact sampling of the nodes that actually
    /// matter happens per candidate in [`Channel::walk_candidates`].
    fn refresh_positions(
        &mut self,
        hot: &mut HotState,
        mut prof: Option<&mut HotPathProfile>,
        now: SimTime,
    ) {
        while let Some(&Reverse((t, node))) = self.refresh_heap.peek() {
            if t > now {
                break;
            }
            self.refresh_heap.pop();
            if let Some(p) = prof.as_deref_mut() {
                p.refresh_pops += 1;
            }
            let i = node as usize;
            Self::sample_exact(hot, prof.as_deref_mut(), i, now);
            self.grid.update(node, hot.positions[i]);
            // The +1 ns floor keeps degenerate horizons (pad/speed
            // rounding to zero) from re-firing at the same instant
            // forever.
            let d = hot.mobility[i]
                .stale_after(now, self.pad_m)
                .max(now + Duration::from_nanos(1));
            self.refresh_heap.push(Reverse((d, node)));
        }
    }

    /// Sample node `i`'s exact position at `now` (at most once per
    /// instant) for the physics: `hot.positions` follows, the spatial
    /// index and the node's refresh deadline do not — the index's own
    /// copy stays within `pad_m` of the truth by the deadline chain
    /// alone, which is all a padded query needs.
    fn sample_exact(hot: &mut HotState, prof: Option<&mut HotPathProfile>, i: usize, now: SimTime) {
        if hot.sampled_at[i] == now {
            return;
        }
        hot.sampled_at[i] = now;
        if let Some(p) = prof {
            p.exact_samples += 1;
        }
        hot.positions[i] = hot.mobility[i].position(now);
    }

    /// Debug builds check the invariant physics-only sampling leans on:
    /// every indexed position is within the drift pad of the node's
    /// exact position. Exact positions come from *clones* of the
    /// mobility models, so the audit cannot advance a leg the run has
    /// not reached.
    #[cfg(debug_assertions)]
    fn audit_index_staleness(&self, hot: &HotState, now: SimTime) {
        for (j, m) in hot.mobility.iter().enumerate() {
            if !self.grid.is_tracked(j as u32) {
                continue;
            }
            let exact = m.clone().position(now);
            let drift = self.grid.position(j as u32).distance(exact);
            assert!(
                drift <= self.pad_m * REFRESH_PAD_SLACK,
                "node {j} is indexed {drift} m from its position at {now:?} (pad {} m)",
                self.pad_m
            );
        }
    }

    // ------------------------------------------------------------------
    // Receivers and gains
    // ------------------------------------------------------------------

    /// The row path: price every stored neighbour of the transmitter at
    /// this transmission's power — in the candidate walk's operation
    /// order, so bit for bit its values — and leave the audible ones in
    /// `rx`; filtering a sorted row keeps `(delay, node)` order. A weaker
    /// transmission cuts the maximum-reach row exactly as its smaller
    /// query would have: what lies beyond its cull radius is below the
    /// floor under any gain.
    fn walk_row(
        &mut self,
        tx: &Transmission,
        positions: &[Point],
        prof: Option<&mut HotPathProfile>,
        rx: &mut Vec<Receiver>,
    ) {
        assert!(
            tx.power <= self.max_power,
            "node {} transmits at {:?}, over the {:?} its row was cut for",
            tx.src,
            tx.power,
            self.max_power
        );
        let Receivers::Rows(rows) = &mut self.receivers else {
            unreachable!("a row walk without rows")
        };
        let i = tx.src;
        if rows.get(i).is_none() {
            // The first transmission's query, at the maximum reach: a
            // superset of any weaker one's. A row rebuilt after a restore
            // was counted before the cut: the profile is in the snapshot,
            // the rows are not.
            self.candidates.clear();
            let (center, reach) = (positions[i], self.max_reach);
            self.grid
                .query_circle(center, reach, Some(i as u32), &mut self.candidates);
            if let Some(p) = prof.filter(|_| tx.is_first()) {
                p.grid_queries += 1;
                p.grid_candidates += self.candidates.len() as u64;
            }
            self.propagation.distance_gains_into_indexed(
                center,
                positions,
                &self.candidates,
                &mut self.links,
            );
            let floor_ns = self.delay_floor_ns;
            let row = self
                .candidates
                .iter()
                .zip(&self.links)
                .map(|(&j, &(d, gain))| {
                    let at = pack_delay_node(prop_delay(d, floor_ns), j);
                    Neighbour { at, gain }
                });
            rows.insert(i, row).sort_unstable_by_key(|n| n.at);
        }
        for n in rows.get(i).expect("just built") {
            let power = tx.power * (n.gain * tx.impair);
            if power.value() >= self.interference_floor.value() {
                rx.push(Receiver { at: n.at, power });
            }
        }
    }

    /// The candidate walk, where nodes move or the reach is unbounded:
    /// refresh the index, take the transmitter's kept row (re-read if the
    /// index moved under it) or query afresh at this transmission's cull
    /// radius, sample every candidate exactly, then price them all in one
    /// fused pass and time only the audible ones, which are left in `rx`
    /// sorted by `(delay, node)`. That order goes back into the candidate
    /// list, audible first, so a kept row is met nearly sorted next time.
    fn walk_candidates(
        &mut self,
        tx: &Transmission,
        hot: &mut HotState,
        mut prof: Option<&mut HotPathProfile>,
        rx: &mut Vec<Receiver>,
    ) {
        let (i, now) = (tx.src, tx.start);
        #[cfg(debug_assertions)]
        let mut audit = false;
        if self.any_mobile {
            self.refresh_positions(hot, prof.as_deref_mut(), now);
            #[cfg(debug_assertions)]
            {
                self.audit_tick += 1;
                audit = self.audit_tick.is_multiple_of(AUDIT_EVERY);
                if audit {
                    self.audit_index_staleness(hot, now);
                }
            }
            Self::sample_exact(hot, prof.as_deref_mut(), i, now);
        }
        let ids: &mut [u32] = match &mut self.receivers {
            Receivers::Candidates(rows) => {
                assert!(
                    tx.power <= self.max_power,
                    "node {i} transmits at {:?}, over the {:?} its candidates were read for",
                    tx.power,
                    self.max_power
                );
                rows.current(&self.grid, i, &mut self.candidates, prof.as_deref_mut())
            }
            _ => {
                let mut radius = cull_radius(&self.propagation, tx.power, self.interference_floor);
                if self.any_mobile {
                    radius += self.pad_m * REFRESH_PAD_SLACK;
                }
                self.candidates.clear();
                self.grid.query_circle(
                    hot.positions[i],
                    radius,
                    Some(i as u32),
                    &mut self.candidates,
                );
                if let Some(p) = prof.as_deref_mut() {
                    p.grid_queries += 1;
                    p.grid_candidates += self.candidates.len() as u64;
                }
                &mut self.candidates
            }
        };
        #[cfg(debug_assertions)]
        if audit {
            // The candidates hold what a query around the exact position
            // at this power's cull radius plus one pad returns.
            let radius = cull_radius(&self.propagation, tx.power, self.interference_floor)
                + self.pad_m * REFRESH_PAD_SLACK;
            let mut want = Vec::new();
            self.grid
                .query_circle(hot.positions[i], radius, Some(i as u32), &mut want);
            let mut have = ids.to_vec();
            have.sort_unstable();
            for j in want {
                assert!(
                    have.binary_search(&j).is_ok(),
                    "node {j} is within reach of node {i} at {now:?} but not among its candidates"
                );
            }
        }
        if self.any_mobile {
            for &j in ids.iter() {
                Self::sample_exact(hot, prof.as_deref_mut(), j as usize, now);
            }
        }

        let positions = &hot.positions;
        self.propagation
            .distance_gains_into_indexed(positions[i], positions, ids, &mut self.links);
        self.quiet.clear();
        for (&j, &(d, gain)) in ids.iter().zip(&self.links) {
            let power = tx.power * (gain * tx.impair);
            if power.value() < self.interference_floor.value() {
                self.quiet.push(j);
            } else {
                let at = pack_delay_node(prop_delay(d, self.delay_floor_ns), j);
                rx.push(Receiver { at, power });
            }
        }
        sort_receivers(rx);
        let (heard, quiet) = ids.split_at_mut(rx.len());
        for (id, r) in heard.iter_mut().zip(rx.iter()) {
            *id = r.node();
        }
        quiet.copy_from_slice(&self.quiet);
    }

    /// The oracle's walk: every other node, each gain from its own model
    /// call at positions re-sampled for the instant, the audible ones
    /// timed and fully sorted.
    fn walk_reference(&mut self, tx: &Transmission, hot: &mut HotState, rx: &mut Vec<Receiver>) {
        let Receivers::Reference(scan) = &mut self.receivers else {
            unreachable!("an oracle walk without the oracle")
        };
        for &(j, gain) in scan.gains(&self.propagation, hot, tx.src, tx.start) {
            let power = tx.power * (gain * tx.impair);
            if power.value() < self.interference_floor.value() {
                continue;
            }
            let dist = hot.positions[tx.src].distance(hot.positions[j as usize]);
            let at = pack_delay_node(prop_delay(dist, self.delay_floor_ns), j);
            rx.push(Receiver { at, power });
        }
        rx.sort_unstable_by_key(|r| r.at);
    }

    // ------------------------------------------------------------------
    // Fan-out
    // ------------------------------------------------------------------

    /// Put `tx` on the air: every receiver above the interference floor
    /// hears it after its propagation delay — found by walking the
    /// transmitter's stored row where static rows are kept, by pricing
    /// its candidates otherwise. A receiver that is crashed (`down`)
    /// hears nothing. Receivers this simulator dispatches join one
    /// fan-out walked by two queue cursors (`2·K` logical events, two
    /// entries); receivers another region owns are shipped to it as
    /// ready-made arrival pairs (a sharded run carries no fault plan).
    pub(crate) fn radiate(
        &mut self,
        tx: Transmission,
        hot: &mut HotState,
        prof: Option<&mut HotPathProfile>,
        down: Option<&[bool]>,
        mut shard: Option<&mut ShardCtx>,
        queue: &mut EventQueue<QueueEntry>,
    ) {
        // Every walk leaves the audible receivers in `(delay, node)`
        // order — `(time, rank)` order for the starts and for the ends
        // alike: equal delays are equal instants, where the arrival rank
        // orders by receiver — and a filter keeps it.
        let mut rx = self.rx_pool.take();
        match self.receivers {
            Receivers::Rows(_) => self.walk_row(&tx, &hot.positions, prof, &mut rx),
            Receivers::Candidates(_) | Receivers::Query => {
                self.walk_candidates(&tx, hot, prof, &mut rx);
            }
            Receivers::Reference(_) => self.walk_reference(&tx, hot, &mut rx),
        }
        // Without a fault plan or a shard every receiver is delivered
        // here, and the filter would be a pass that keeps everything.
        if down.is_some() || shard.is_some() {
            rx.retain(|&r| deliver_here(&tx, r, down, shard.as_deref_mut()));
        }
        if rx.is_empty() {
            self.rx_pool.put(rx);
            return;
        }
        debug_assert!(
            rx.windows(2).all(|w| w[0].at < w[1].at),
            "fan-out receivers must be strictly increasing in (delay, node): \
             a node hears a transmission once, or its arrival ranks collide"
        );
        queue.count_scheduled(2 * rx.len() as u64);
        let fan = FanOut {
            payload: tx.payload,
            key: tx.key,
            start: tx.start,
            end: tx.end,
            rx,
            next: [0, 0],
        };
        let heads = [fan.key_of(0, false), fan.key_of(0, true)];
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.fanouts[slot as usize] = Some(fan);
                slot
            }
            None => {
                self.fanouts.push(Some(fan));
                (self.fanouts.len() - 1) as u32
            }
        };
        for (end, (at, rank)) in [false, true].into_iter().zip(heads) {
            queue.push_cursor(at, rank, QueueEntry::Cursor { fan: slot, end });
        }
    }

    /// The fan-out in slot `fan`: one a queued cursor names, or the one
    /// being walked, which stays in its slot while its arrivals dispatch.
    #[inline]
    pub(crate) fn fan(&self, fan: u32) -> &FanOut {
        self.fanouts[fan as usize]
            .as_ref()
            .expect("cursor into a vacant slot")
    }

    /// Move fan-out `fan`'s start or `end` cursor to receiver `next` after
    /// a walk. A spent end cursor retires the fan-out: every start
    /// precedes its own end, so the end cursor is the last one out.
    pub(crate) fn set_cursor(&mut self, fan: u32, end: bool, next: usize) {
        let slot = &mut self.fanouts[fan as usize];
        let f = slot.as_mut().expect("cursor into a vacant slot");
        f.next[end as usize] = next as u32;
        if end && next == f.rx.len() {
            debug_assert_eq!(f.next[0] as usize, f.rx.len());
            let f = slot.take().expect("the slot was full");
            self.rx_pool.put(f.rx);
            self.free_slots.push(fan);
        }
    }

    /// Every pending logical event of `queue` in canonical `(time, rank,
    /// insertion)` order: plain entries as they are, cursors expanded
    /// back into the arrivals they have not fired yet.
    pub(crate) fn pending_events(
        &self,
        queue: &EventQueue<QueueEntry>,
    ) -> Vec<(SimTime, u128, SimEvent)> {
        queue.pending_logical(|at, rank, entry, out| match entry {
            QueueEntry::Event(event) => out.push((at, rank, event.clone())),
            QueueEntry::Cursor { fan, end } => {
                let f = self.fanouts[*fan as usize]
                    .as_ref()
                    .expect("cursor into a vacant slot");
                for i in f.next[*end as usize] as usize..f.rx.len() {
                    let (at, rank) = f.key_of(i, *end);
                    out.push((at, rank, f.event_of(i, *end)));
                }
            }
        })
    }
}

/// Propagation delay over `dist` metres to the nearest nanosecond,
/// floored at the configured minimum of `floor_ns` (the floor is the
/// conservative lookahead of a sharded run; zero in plain single mode).
#[inline]
fn prop_delay(dist: f64, floor_ns: u64) -> Duration {
    Duration::from_nanos(nearest_ns(dist / C * 1e9).max(floor_ns))
}

/// `x.round() as u64` for `x ≥ 0` (halves away from zero, saturating),
/// without the libm call: below 2^53 both `floor(x)` and `x − floor(x)`
/// are exact in `f64`, so the comparison with one half is exact too (it
/// keeps `0.49999999999999994` at 0, where `floor(x + 0.5)` would not),
/// and above it every `f64` is an integer.
#[inline]
fn nearest_ns(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from(x - t as f64 >= 0.5))
}

/// Sort `rx` by [`Receiver::at`]. A kept candidate row is walked in the
/// order its last transmission was heard in, so its audible receivers
/// arrive nearly sorted and an insertion sort moves a few of them; a
/// list that is not (a fresh query comes in id order) stops after a
/// bounded number of moves and goes to `sort_unstable`. The keys are
/// unique, so both give the one order.
fn sort_receivers(rx: &mut [Receiver]) {
    let budget = 4 * rx.len();
    let mut moved = 0;
    for k in 1..rx.len() {
        let r = rx[k];
        let mut at = k;
        while at > 0 && rx[at - 1].at > r.at {
            rx[at] = rx[at - 1];
            at -= 1;
        }
        rx[at] = r;
        moved += k - at;
        if moved > budget {
            rx.sort_unstable_by_key(|r| r.at);
            return;
        }
    }
}

/// Hand audible receiver `r` its arrival pair of `tx`: shipped to the
/// region that owns it, or kept for this simulator's fan-out unless it
/// is crashed (`down`) right now. Returns whether it is kept.
#[inline]
fn deliver_here(
    tx: &Transmission,
    r: Receiver,
    down: Option<&[bool]>,
    shard: Option<&mut ShardCtx>,
) -> bool {
    let j = r.node() as usize;
    match shard.filter(|ctx| ctx.owner[j] != ctx.id) {
        Some(ctx) => {
            ctx.outbox[ctx.owner[j] as usize].push(Shipment {
                at: tx.start + r.delay(),
                node: NodeId(r.node()),
                key: tx.key,
                power: r.power,
                end: tx.end + r.delay(),
                payload: tx.payload.clone(),
            });
            false
        }
        None => !down.is_some_and(|d| d[j]),
    }
}

/// The radius beyond which a transmission at `power` cannot reach
/// `floor` under any realisation of `model` (slightly inflated for
/// float-inversion safety). Infinite when the floor is disabled.
fn cull_radius(model: &PropagationModel, power: Milliwatts, floor: Milliwatts) -> f64 {
    if floor.value() <= 0.0 || power.value() <= 0.0 {
        return f64::INFINITY;
    }
    model.max_range_for(power, floor) * RADIUS_SLACK
}

#[cfg(test)]
mod exactness {
    //! What the candidate walk leans on: the integer-split rounding
    //! equals libm's, and the row arena reads back what was stored
    //! through every replacement and compaction.

    use pcmac_engine::RngStream;
    use proptest::prelude::*;

    use super::{nearest_ns, prop_delay, Rows, C};

    proptest! {
        /// Delays over arbitrary distances, and every half-way value
        /// below 2^40 ns with its two neighbours.
        #[test]
        fn integer_split_rounding_equals_libm_round(d in 0.0f64..3e7, k in 0u64..1 << 40) {
            prop_assert_eq!(prop_delay(d, 0).as_nanos(), (d / C * 1e9).round() as u64);
            let half = k as f64 + 0.5;
            for x in [
                k as f64,
                half,
                f64::from_bits(half.to_bits() - 1),
                f64::from_bits(half.to_bits() + 1),
            ] {
                prop_assert_eq!(nearest_ns(x), x.round() as u64, "x = {:e}", x);
            }
        }
    }

    #[test]
    fn integer_split_rounding_keeps_the_edge_cases() {
        assert_eq!(nearest_ns(0.49999999999999994), 0);
        for x in [
            0.0,
            0.49999999999999994,
            0.5,
            2.5,
            2f64.powi(52) - 0.5,
            2f64.powi(52) + 1.0,
            2f64.powi(64),
            1e30,
            f64::MAX,
        ] {
            assert_eq!(nearest_ns(x), x.round() as u64, "x = {x:e}");
        }
    }

    /// Rows replaced at random — shrinking in place, growing to the end
    /// of the arena, long enough to need a chunk of their own, emptied —
    /// read back as plain vectors do, through dozens of compactions, and
    /// the dead entries never pass their bound.
    #[test]
    fn replaced_rows_read_back_through_compactions() {
        const NODES: usize = 40;
        let chunk = Rows::<u32>::CHUNK;
        let mut rows = Rows::<u32>::new(NODES);
        let mut model: Vec<Option<Vec<u32>>> = vec![None; NODES];
        let mut rng = RngStream::derive(5, "rows.replace");
        let mut compactions = 0;
        for step in 0..3000 {
            let i = rng.below(NODES as u64) as usize;
            let len = match rng.below(20) {
                0 => 0,
                1 => chunk + rng.below(300) as usize,
                _ => rng.below(400) as usize,
            };
            let row: Vec<u32> = (0..len).map(|_| rng.below(1 << 20) as u32).collect();
            let dead = rows.dead;
            assert_eq!(rows.replace(i, &row), &row[..], "step {step}");
            compactions += usize::from(rows.dead < dead);
            model[i] = Some(row);
            for (j, want) in model.iter().enumerate() {
                assert_eq!(rows.get(j), want.as_deref(), "node {j} after step {step}");
            }
            let live: usize = model.iter().flatten().map(Vec::len).sum();
            assert_eq!(rows.live, live);
            assert!(
                rows.dead <= chunk.max(live / 8),
                "step {step}: {} dead",
                rows.dead
            );
        }
        assert!(compactions > 20, "only {compactions} compactions");
    }

    /// An empty row takes no entries, so the row stored after it can
    /// start where it does — here one that fills its chunk exactly.
    /// Compaction still reads both back.
    #[test]
    fn an_empty_row_and_a_full_chunk_sharing_a_start_survive_compaction() {
        let chunk = Rows::<u32>::CHUNK;
        let mut rows = Rows::<u32>::new(3);
        let full: Vec<u32> = (0..chunk as u32).collect();
        rows.replace(0, &[]);
        rows.replace(1, &full);
        assert_eq!(rows.index[0].0, rows.index[1].0, "one start");
        for len in [1000, 2000, 3000, 4000] {
            let grown: Vec<u32> = (0..len).collect();
            rows.replace(2, &grown);
        }
        assert_eq!(rows.dead, 0, "compacted");
        assert_eq!(rows.get(0), Some(&[][..]));
        assert_eq!(rows.get(1), Some(&full[..]));
        assert_eq!(rows.get(2).map(<[u32]>::len), Some(4000));
    }
}

#[cfg(test)]
mod tests {
    //! A checkpoint cut in the middle of a fan-out walk — some arrival
    //! starts fired, no end yet — must list exactly the arrivals still to
    //! come, and resume to the uninterrupted result.

    use std::collections::HashSet;

    use pcmac_engine::{Duration, FlowId, NodeId, Point, SimTime};
    use pcmac_mac::Variant;

    use crate::config::{FlowSpec, NodeSetup, ScenarioConfig};
    use crate::fault::{CrashWindow, FaultConfig, ImpairmentBurst};
    use crate::report::RunReport;
    use crate::{SimEvent, SimSnapshot, Simulator};

    /// Eight static stations at unequal spacings (so one transmission's
    /// arrivals land at distinct instants), two PCMAC flows — data and
    /// control-channel fan-outs both occur — and a 50 ns delay floor.
    fn scenario(faulted: bool) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::two_nodes(Variant::Pcmac, 100.0, 300_000.0, 9)
            .with_duration(Duration::from_secs(2));
        cfg.field = (1200.0, 400.0);
        let xs = [40.0, 130.0, 290.0, 470.0, 640.0, 830.0, 990.0, 1160.0];
        cfg.nodes = NodeSetup::Static(xs.iter().map(|&x| Point::new(x, 200.0)).collect());
        let flow = cfg.flows[0].clone();
        cfg.flows = vec![
            flow.clone(),
            FlowSpec {
                flow: FlowId(1),
                src: NodeId(6),
                dst: NodeId(5),
                start: flow.start + Duration::from_millis(7),
                ..flow
            },
        ];
        cfg.delay_floor_us = Some(0.05);
        if faulted {
            cfg.faults = Some(FaultConfig {
                crashes: Some(vec![CrashWindow {
                    node: 2,
                    at_s: 1.1,
                    recover_s: Some(1.6),
                }]),
                churn: None,
                expire_routes: None,
                impairments: Some(vec![ImpairmentBurst {
                    start_s: 1.2,
                    stop_s: 1.5,
                    extra_loss_db: 3.0,
                    noise_mult: Some(2.0),
                }]),
                energy_budget_mj: None,
            });
        }
        cfg
    }

    fn arrival_key(ev: &SimEvent) -> Option<u64> {
        match ev {
            SimEvent::ArrivalStart { key, .. }
            | SimEvent::ArrivalEnd { key, .. }
            | SimEvent::CtrlArrivalStart { key, .. }
            | SimEvent::CtrlArrivalEnd { key, .. } => Some(*key),
            _ => None,
        }
    }

    fn fingerprint(mut report: RunReport) -> String {
        report.wall_s = 0.0;
        serde_json::to_string(&report).expect("reports serialize")
    }

    #[test]
    fn mid_airtime_cut_lists_the_unfired_arrivals_and_resumes_bit_identically() {
        for faulted in [false, true] {
            let cfg = scenario(faulted);
            let reference = fingerprint(Simulator::new(cfg.clone()).run());

            // Stop right after the first arrival start of the first data
            // transmission past 1.25 s (mid-fault in the faulted run).
            let mut sim = Simulator::new(cfg.clone());
            let mut seen = HashSet::new();
            let cut_key = loop {
                let (at, _, ev) = sim.step().expect("the run outlives the cut");
                if let SimEvent::ArrivalStart { key, .. } = ev {
                    if seen.insert(key) && at >= SimTime::ZERO + Duration::from_millis(1250) {
                        break key;
                    }
                }
            };
            let snap = sim.snapshot();

            // Canonical order, and genuinely mid-walk: the cut transmission
            // still owes some starts and every one of its ends.
            let keys: Vec<(SimTime, u128)> =
                snap.pending.iter().map(|p| (p.0, p.1.rank())).collect();
            assert!(keys.windows(2).all(|w| w[0] <= w[1]), "pending is sorted");
            let of_cut = |end: bool| {
                snap.pending
                    .iter()
                    .filter(|(_, ev)| {
                        arrival_key(ev) == Some(cut_key)
                            && matches!(ev, SimEvent::ArrivalEnd { .. }) == end
                    })
                    .count()
            };
            assert!(of_cut(false) >= 1, "some starts still pending");
            assert_eq!(of_cut(true), of_cut(false) + 1, "one start fired, no end");

            // Ground truth for every transmission on the air at the cut:
            // what the uninterrupted run goes on to dispatch for it.
            let in_flight: HashSet<u64> = snap
                .pending
                .iter()
                .filter_map(|(_, ev)| arrival_key(ev))
                .collect();
            let describe =
                |at: SimTime, rank: u128, ev: &SimEvent| format!("{at:?} {rank:#x} {ev:?}");
            let listed: Vec<String> = snap
                .pending
                .iter()
                .filter(|(_, ev)| arrival_key(ev).is_some())
                .map(|(at, ev)| describe(*at, ev.rank(), ev))
                .collect();
            let mut fired = Vec::new();
            while fired.len() < listed.len() {
                let (at, rank, ev) = sim.step().expect("listed arrivals all fire");
                if arrival_key(&ev).is_some_and(|k| in_flight.contains(&k)) {
                    fired.push(describe(at, rank, &ev));
                }
            }
            assert_eq!(listed, fired, "faulted = {faulted}");

            // Through the wire format and back.
            let snap = SimSnapshot::from_bytes(&snap.to_bytes()).expect("round trip");
            let resumed = Simulator::restore(cfg, &snap).expect("restores").run();
            assert_eq!(fingerprint(resumed), reference, "faulted = {faulted}");
        }
    }

    /// `step`, `run_with_observer`, `run` and `run_with_hooks` are four
    /// bounds on one loop: they dispatch the same `(at, rank, event)`
    /// stream to the same report, and a checkpoint grid fine enough to
    /// fall between two arrivals of one fan-out cuts the held walk
    /// exactly where stepping to the same instant does.
    #[test]
    fn the_four_drivers_agree_event_for_event_and_cut_for_cut() {
        use std::sync::Mutex;

        use crate::snapshot::RunHooks;

        for faulted in [false, true] {
            let cfg = scenario(faulted);
            let reference = fingerprint(Simulator::new(cfg.clone()).run());

            // One event per call, to the end of the run.
            let describe =
                |at: SimTime, rank: u128, ev: &SimEvent| format!("{at:?} {rank:#x} {ev:?}");
            let mut sim = Simulator::new(cfg.clone());
            let mut stepped = Vec::new();
            while let Some((at, rank, ev)) = sim.step() {
                stepped.push(describe(at, rank, &ev));
            }
            assert_eq!(fingerprint(sim.run()), reference, "faulted = {faulted}");

            // The observer sees that stream, and changes nothing.
            let mut observed = Vec::new();
            let report = Simulator::new(cfg.clone())
                .run_with_observer(|ev, at| observed.push(describe(at, ev.rank(), ev)));
            assert_eq!(fingerprint(report), reference, "faulted = {faulted}");
            assert!(observed == stepped, "observer and step streams differ");

            // A checkpoint grid off every protocol period, so its instants
            // sweep across the microseconds a fan-out's arrivals span.
            let every = Duration::from_nanos(399_989);
            let taken = Mutex::new(Vec::new());
            let sink = |snap: SimSnapshot| taken.lock().expect("sink").push(snap);
            let outcome = Simulator::new(cfg.clone()).run_with_hooks(RunHooks {
                cancel: None,
                checkpoint_every: Some(every),
                checkpoint_sink: Some(&sink),
            });
            let hooked = outcome.report().expect("no cancel token: completes");
            assert_eq!(fingerprint(hooked), reference, "faulted = {faulted}");
            let taken = taken.into_inner().expect("sink");
            assert!(taken.len() > 2500, "{} checkpoints", taken.len());

            // Stepping to each grid instant captures the same bytes.
            let mut sim = Simulator::new(cfg.clone());
            let mut mid_walk = Vec::new();
            for snap in &taken {
                while sim.step_before(snap.time()).is_some() {}
                let bytes = snap.to_bytes();
                assert!(
                    sim.snapshot_at(snap.time()).to_bytes() == bytes,
                    "cut at {:?} differs (faulted = {faulted})",
                    snap.time()
                );
                // Genuinely inside a start walk: some transmission has
                // fired some of its arrival starts and still owes others.
                let owed = |key: u64, start: bool| {
                    snap.pending
                        .iter()
                        .filter(|(_, ev)| {
                            let is_start = matches!(
                                ev,
                                SimEvent::ArrivalStart { .. } | SimEvent::CtrlArrivalStart { .. }
                            );
                            arrival_key(ev) == Some(key) && is_start == start
                        })
                        .count()
                };
                let in_flight: HashSet<u64> = snap
                    .pending
                    .iter()
                    .filter_map(|(_, ev)| arrival_key(ev))
                    .collect();
                if in_flight
                    .iter()
                    .any(|&k| (1..owed(k, false)).contains(&owed(k, true)))
                {
                    mid_walk.push(bytes);
                }
            }
            assert!(
                mid_walk.len() >= 3,
                "only {} grid instants fell between two arrivals of one fan-out",
                mid_walk.len()
            );

            // Each of those cuts resumes to the uninterrupted report.
            for bytes in &mid_walk {
                let snap = SimSnapshot::from_bytes(bytes).expect("round trip");
                let resumed = Simulator::restore(cfg.clone(), &snap)
                    .expect("restores")
                    .run();
                assert_eq!(
                    fingerprint(resumed),
                    reference,
                    "faulted = {faulted}, cut = {:?}",
                    snap.time()
                );
            }
        }
    }

    /// Thirty-six static stations on a skewed lattice (so one
    /// transmission's arrivals land at distinct instants) and three
    /// saturating one-hop flows that start at different times in three
    /// corners: most stations only ever overhear, and the flows are far
    /// enough apart to talk over each other.
    fn bystanders(variant: Variant, faulted: bool) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::two_nodes(variant, 100.0, 900_000.0, 5)
            .with_duration(Duration::from_millis(200));
        let pts = (0..36).map(|k| {
            let (row, col) = ((k / 6) as f64, (k % 6) as f64);
            Point::new(
                60.0 + 160.0 * col + 7.0 * row,
                70.0 + 150.0 * row + 11.0 * col,
            )
        });
        cfg.nodes = NodeSetup::Static(pts.collect());
        let flow = cfg.flows[0].clone();
        cfg.flows = [(0, 1, 20), (30, 31, 47), (35, 29, 83)]
            .into_iter()
            .enumerate()
            .map(|(k, (src, dst, start_ms))| FlowSpec {
                flow: FlowId(k as u32),
                src: NodeId(src),
                dst: NodeId(dst),
                start: SimTime::ZERO + Duration::from_millis(start_ms),
                ..flow.clone()
            })
            .collect();
        cfg.delay_floor_us = Some(0.05);
        if faulted {
            cfg.faults = Some(FaultConfig {
                crashes: None,
                churn: None,
                expire_routes: None,
                impairments: Some(vec![ImpairmentBurst {
                    start_s: 0.09,
                    stop_s: 0.15,
                    extra_loss_db: 1.0,
                    noise_mult: Some(4.0),
                }]),
                energy_budget_mj: None,
            });
        }
        cfg
    }

    /// A cut carries what the hot rows know and no list backs up: the
    /// carrier edge a bystander's MAC is still owed (written as held) and
    /// a locked row's interference sum with other arrivals in it. Every
    /// grid cut of the hooked run equals stepping there and capturing; a
    /// restore holds the held edges and rows in company the run held and
    /// captures the same bytes again; and cuts that held either kind of
    /// state resume to the uninterrupted report.
    #[test]
    fn cuts_carry_held_carrier_edges_and_locked_rows_in_company() {
        use std::sync::Mutex;

        use crate::snapshot::RunHooks;

        for (variant, faulted) in [
            (Variant::Basic, false),
            (Variant::Basic, true),
            (Variant::Pcmac, false),
            (Variant::Pcmac, true),
        ] {
            let what = format!("{variant:?}, faulted = {faulted}");
            let cfg = bystanders(variant, faulted);
            let reference = fingerprint(Simulator::new(cfg.clone()).run());

            let taken = Mutex::new(Vec::new());
            let sink = |snap: SimSnapshot| taken.lock().expect("sink").push(snap);
            let outcome = Simulator::new(cfg.clone()).run_with_hooks(RunHooks {
                cancel: None,
                checkpoint_every: Some(Duration::from_nanos(1_499_989)),
                checkpoint_sink: Some(&sink),
            });
            let hooked = outcome.report().expect("no cancel token: completes");
            assert_eq!(fingerprint(hooked), reference, "{what}");
            let taken = taken.into_inner().expect("sink");

            let mut sim = Simulator::new(cfg.clone());
            let (mut with_held, mut with_company) = (Vec::new(), Vec::new());
            for snap in &taken {
                let cut = snap.time();
                while sim.step_before(cut).is_some() {}
                let bytes = snap.to_bytes();
                assert!(
                    sim.snapshot_at(cut).to_bytes() == bytes,
                    "{what}: cut at {cut:?} differs"
                );
                let (held, in_company) = sim.receive_census();
                let restored = Simulator::restore(cfg.clone(), snap).expect("restores");
                assert_eq!(
                    restored.receive_census(),
                    (held, in_company),
                    "{what}: the restore at {cut:?}"
                );
                assert!(
                    restored.snapshot_at(cut).to_bytes() == bytes,
                    "{what}: the restore at {cut:?} captures other bytes"
                );
                if held > 0 {
                    with_held.push(bytes.clone());
                }
                if in_company > 0 {
                    with_company.push(bytes);
                }
            }
            assert!(!with_held.is_empty(), "{what}: no cut found a held edge");
            assert!(
                !with_company.is_empty(),
                "{what}: no cut found a station locked with two arrivals on the air"
            );

            // Held edges are at nearly every cut: resume from a spread of
            // those, and from every cut that caught a row in company.
            let stride = with_held.len().div_ceil(4);
            let spread = with_held.iter().step_by(stride);
            for bytes in spread.chain(with_company.iter().take(4)) {
                let snap = SimSnapshot::from_bytes(bytes).expect("round trip");
                let resumed = Simulator::restore(cfg.clone(), &snap)
                    .expect("restores")
                    .run();
                assert_eq!(
                    fingerprint(resumed),
                    reference,
                    "{what}, cut = {:?}",
                    snap.time()
                );
            }
        }
    }

    /// On a field shaped like the benchmark's — stations at one per
    /// 250 m × 250 m, a one-hop flow per fifty of them, interference
    /// culled at the carrier-sense threshold so nearly every arrival
    /// flips carrier sense — at least 70 % of the arrival starts and ends
    /// that indicate anything are a carrier edge at a station whose MAC
    /// is not listening: handled on the hot row, the cold node untouched.
    #[cfg(debug_assertions)]
    #[test]
    fn most_audible_arrivals_on_a_field_never_touch_a_cold_node() {
        use pcmac_engine::{Milliwatts, RngStream};

        const NODES: usize = 800;
        let side = (NODES as f64).sqrt() * 250.0;
        let mut rng = RngStream::derive(3, "field.placement");
        let pts: Vec<Point> = (0..NODES)
            .map(|_| Point::new(rng.uniform(0.0, side), rng.uniform(0.0, side)))
            .collect();
        let mut cfg = ScenarioConfig::two_nodes(Variant::Basic, 100.0, 40_000.0, 3)
            .with_duration(Duration::from_secs(1));
        cfg.field = (side, side);
        cfg.interference_floor = Milliwatts(1.559e-8);
        let flow = cfg.flows[0].clone();
        cfg.flows = (0..NODES / 50)
            .map(|k| {
                let src = rng.below(NODES as u64) as usize;
                let dst = (0..NODES)
                    .filter(|&j| j != src)
                    .min_by(|&a, &b| {
                        let d = |j: usize| pts[src].distance_sq(pts[j]);
                        d(a).total_cmp(&d(b))
                    })
                    .expect("more than one node");
                FlowSpec {
                    flow: FlowId(k as u32),
                    src: NodeId(src as u32),
                    dst: NodeId(dst as u32),
                    start: SimTime::ZERO + Duration::from_millis(20 + 3 * k as u64),
                    ..flow.clone()
                }
            })
            .collect();
        cfg.nodes = NodeSetup::Static(pts);

        let mut sim = Simulator::new(cfg);
        while sim.step().is_some() {}
        let (audible, held) = sim.arrival_audit();
        assert!(audible > 20_000, "only {audible} audible arrival events");
        assert!(
            held as f64 >= 0.7 * audible as f64,
            "{held} of {audible} audible arrival events were held carrier edges"
        );
    }
}
