//! Struct-of-arrays hot node state.
//!
//! The dispatch loop's per-node reads — position, liveness, last
//! transmit power, and everything an arriving transmission does to a
//! receiver — used to be scattered across the big [`Node`] assemblies
//! (MAC queues, AODV tables), so the hot paths walked pointer-rich
//! structs for a handful of scalars each. [`HotState`] splits exactly
//! those fields into parallel arrays indexed by node id: the hot path
//! reads contiguous memory, and a region shard can keep the arrays
//! while dropping the cold `Node` boxes of every node it does not own.
//!
//! `positions` / `mobility` are authoritative: the cold [`Node`] carries
//! no movement state. Movement models exist only when something moves:
//! a static field's `mobility` is empty, like its `sampled_at`, and its
//! positions are the scenario's, fixed for the whole run. `alive` is a
//! *mirror* of the fault layer's down-state, written where a node goes
//! down or comes up.
//!
//! **Carrier state is authoritative here too.** A station's receive side
//! is one [`RxRow`] per channel (`rx`, `ctrl_rx`): the interference sum,
//! the lock, the carrier edge detector. An arrival reads and writes that
//! one 32-byte row; only a lock-on, a locked frame's end and a carrier
//! edge its MAC can act on go on to the cold node. The MAC's own carrier
//! bit and noise figure are the *mirror*, and a lazy one: while a MAC is
//! not [`listening`](pcmac_mac::DcfMac::listening) a carrier edge is
//! held here ([`HotState::hold_edge`]) instead of delivered, and the one
//! accessor through which the simulator reaches a MAC tells it the
//! latest held edge before anything else (see `Simulator::with_mac`).
//!
//! [`Node`]: crate::node::Node

use pcmac_engine::{Milliwatts, Point, SimTime, VecMap};
use pcmac_mac::CtrlFrame;
use pcmac_mobility::RandomWaypoint;
use pcmac_phy::RxRow;

/// `carrier` bit: the station's MAC is
/// [`listening`](pcmac_mac::DcfMac::listening) — every carrier edge goes
/// straight to it.
const LISTENING: u8 = 1;
/// `carrier` bit: a carrier edge has been held back from the MAC.
const HELD: u8 = 1 << 1;
/// `carrier` bit: the held edge went idle → busy (its own direction: the
/// row may have moved on since).
const HELD_BUSY: u8 = 1 << 2;

/// The per-node parallel arrays the dispatch loop touches. All vectors
/// have length N (the full scenario) unless stated; in a region shard,
/// positions are only *maintained* for tracked nodes (owned + halo) and
/// the receive-side arrays only for owned ones — see
/// the `sim::shard` module.
#[derive(Debug)]
pub(crate) struct HotState {
    /// Position as of `sampled_at` under mobility (exact for every node
    /// a transmission's physics is about to read), fixed otherwise. The
    /// spatial index keeps its own, separately aged copy.
    pub(crate) positions: Vec<Point>,
    /// Movement model per node under mobility (authoritative; moved out
    /// of `Node`); empty when nothing moves.
    pub(crate) mobility: Vec<RandomWaypoint>,
    /// Mirror of `!faults.down[i]` (all-true without a fault plan).
    pub(crate) alive: Vec<bool>,
    /// Last data-channel transmit power (mW); 0 before the first tx.
    pub(crate) tx_power_mw: Vec<f64>,
    /// Last instant the node was sampled *exactly* (mobile scenarios
    /// only; empty otherwise).
    pub(crate) sampled_at: Vec<SimTime>,
    /// Per-node transmission-key counters: key = `(node << 32) | ctr`.
    pub(crate) tx_key_ctr: Vec<u32>,
    /// Data-channel receive state, one row per node.
    pub(crate) rx: Vec<RxRow>,
    /// Power-control-channel receive state: one row per node under PCMAC,
    /// empty under every other variant (nothing else radiates a control
    /// frame).
    pub(crate) ctrl_rx: Vec<RxRow>,
    /// The broadcast each receiving `ctrl_rx` row is locked onto, keyed
    /// by station: an entry exactly while its row is receiving, so a
    /// station that is not locked carries nothing. Kept here rather than
    /// in the cold node, so a lock-on builds no station and no other
    /// variant's node carries the slot.
    pub(crate) ctrl_locked: VecMap<u32, CtrlFrame>,
    /// What each node's MAC knows of its carrier: the listening bit, or
    /// that an edge is held and which way it went. One byte per node, so
    /// the test an audible arrival makes stays in the nearest cache.
    /// All zero at build (no MAC listening, nothing held); read and
    /// written through the methods below.
    pub(crate) carrier: Vec<u8>,
    /// The noise measured at the held edge (meaningful while one is held).
    pub(crate) held_noise: Vec<Milliwatts>,
}

impl HotState {
    /// Is node `i`'s MAC listening, as of its last input?
    #[inline]
    pub(crate) fn mac_listening(&self, i: usize) -> bool {
        self.carrier[i] & LISTENING != 0
    }

    /// Node `i`'s MAC has just taken an input (and with it any held
    /// edge): nothing is held, and it is `listening` or not from here on.
    #[inline]
    pub(crate) fn mac_heard(&mut self, i: usize, listening: bool) {
        self.carrier[i] = if listening { LISTENING } else { 0 };
    }

    /// Hold a carrier edge towards `busy`, measured at `noise`, back from
    /// node `i`'s MAC (which is not listening); it replaces any held
    /// before it.
    #[inline]
    pub(crate) fn hold_edge(&mut self, i: usize, busy: bool, noise: Milliwatts) {
        self.carrier[i] = HELD | if busy { HELD_BUSY } else { 0 };
        self.held_noise[i] = noise;
    }

    /// The carrier edge node `i`'s MAC is owed: `(busy, noise)`.
    #[inline]
    pub(crate) fn held_edge(&self, i: usize) -> Option<(bool, Milliwatts)> {
        let flags = self.carrier[i];
        (flags & HELD != 0).then(|| (flags & HELD_BUSY != 0, self.held_noise[i]))
    }
}
