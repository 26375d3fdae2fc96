//! Struct-of-arrays hot node state.
//!
//! The dispatch loop's per-node reads — position, liveness, last
//! transmit power — used to be scattered across the big [`Node`]
//! assemblies (radios, MAC queues, AODV tables), so the grid-query →
//! candidate-filter → gain-lookup path walked pointer-rich structs for
//! a handful of scalars each. [`HotState`] splits exactly those fields
//! into parallel arrays indexed by node id:
//! the hot path reads contiguous memory, and a region shard can keep
//! the arrays while dropping the cold `Node` boxes of every node it
//! does not own.
//!
//! `alive` is a *mirror* of the fault layer's down-state, written where
//! a node goes down or comes up. Carrier state and queue depth are not
//! mirrored: only the metrics probe wants them, once a sampling
//! interval, and it reads them off the cold nodes it owns rather than
//! have every dispatched event refresh a copy. `positions`/`mobility`
//! are authoritative: the cold [`Node`] no longer carries movement state.
//!
//! [`Node`]: crate::node::Node

use pcmac_engine::{Point, SimTime};
use pcmac_mobility::Mobility;

/// The per-node parallel arrays the dispatch loop touches. All vectors
/// have length N (the full scenario); in a region shard, entries are
/// only *maintained* for tracked nodes (owned + halo) — see
/// `Simulator::prepare_shard`.
#[derive(Debug)]
pub(crate) struct HotState {
    /// Position as of `sampled_at` under mobility (exact for every node
    /// a transmission's physics is about to read), fixed otherwise. The
    /// spatial index keeps its own, separately aged copy.
    pub(crate) positions: Vec<Point>,
    /// Movement model per node (authoritative; moved out of `Node`).
    pub(crate) mobility: Vec<Mobility>,
    /// Mirror of `!faults.down[i]` (all-true without a fault plan).
    pub(crate) alive: Vec<bool>,
    /// Last data-channel transmit power (mW); 0 before the first tx.
    pub(crate) tx_power_mw: Vec<f64>,
    /// Last instant the node was sampled *exactly* (mobile scenarios
    /// only; empty otherwise).
    pub(crate) sampled_at: Vec<SimTime>,
    /// Per-node transmission-key counters: key = `(node << 32) | ctr`.
    pub(crate) tx_key_ctr: Vec<u32>,
}
