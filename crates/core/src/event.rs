//! The simulation event vocabulary.

use std::sync::Arc;

use pcmac_engine::{Milliwatts, NodeId, SimTime, TimerToken};
use pcmac_mac::{CtrlFrame, Frame, MacTimerKind};

/// Everything that can be scheduled in the event queue. Events address a
/// single node; cross-node effects only ever happen by scheduling more
/// events (that is what the wireless channel *is*).
#[derive(Debug, Clone)]
pub enum SimEvent {
    /// A frame starts arriving at `node` on the data channel.
    ArrivalStart {
        /// Receiver.
        node: NodeId,
        /// Unique transmission key (pairs with `ArrivalEnd`).
        key: u64,
        /// Received power after path loss.
        power: Milliwatts,
        /// When the arrival completes.
        end: SimTime,
        /// The frame (shared across all receivers of the transmission).
        frame: Arc<Frame>,
    },
    /// The arrival keyed `key` finished at `node`.
    ArrivalEnd {
        /// Receiver.
        node: NodeId,
        /// Transmission key.
        key: u64,
        /// The received power the arrival started with: the receiver
        /// keeps a sum, not a list, and subtracts what the end hands back.
        power: Milliwatts,
    },
    /// `node`'s own data-channel transmission finished.
    TxEnd {
        /// Transmitter.
        node: NodeId,
    },
    /// A power-control broadcast starts arriving at `node` (PCMAC).
    CtrlArrivalStart {
        /// Receiver.
        node: NodeId,
        /// Transmission key.
        key: u64,
        /// Received power.
        power: Milliwatts,
        /// When the arrival completes.
        end: SimTime,
        /// The control frame.
        frame: CtrlFrame,
    },
    /// Control-channel arrival end.
    CtrlArrivalEnd {
        /// Receiver.
        node: NodeId,
        /// Transmission key.
        key: u64,
        /// The received power the arrival started with.
        power: Milliwatts,
    },
    /// `node`'s control-channel broadcast finished.
    CtrlTxEnd {
        /// Transmitter.
        node: NodeId,
    },
    /// A MAC timer fired.
    MacTimer {
        /// Owner.
        node: NodeId,
        /// Which logical timer.
        kind: MacTimerKind,
        /// Liveness token.
        token: TimerToken,
    },
    /// An AODV discovery timer fired.
    AodvTimer {
        /// Owner.
        node: NodeId,
        /// Destination under discovery.
        dst: NodeId,
        /// Liveness token.
        token: TimerToken,
    },
    /// A traffic source is due to emit.
    TrafficEmit {
        /// Source owner.
        node: NodeId,
        /// Index into the node's source list.
        source: usize,
    },
    /// A fault takes `node` down: the node stops transmitting,
    /// receiving, and forwarding until a matching [`SimEvent::NodeUp`]
    /// (if any) brings it back.
    NodeDown {
        /// The crashing node.
        node: NodeId,
    },
    /// A previously crashed node recovers.
    NodeUp {
        /// The recovering node.
        node: NodeId,
    },
    /// Channel impairment burst `index` (into the fault plan's burst
    /// list) becomes active.
    ImpairmentStart {
        /// Burst index.
        index: usize,
    },
    /// Channel impairment burst `index` ends.
    ImpairmentEnd {
        /// Burst index.
        index: usize,
    },
    /// Periodic observability probe: sample channel busy fraction,
    /// queue depths, live-node count, and cumulative offered/delivered
    /// load into the current time-series bucket. Pure read — handling
    /// this event never mutates protocol state, so a metrics-on run is
    /// bit-identical in behavior to a metrics-off run.
    MetricsProbe,
}

impl SimEvent {
    /// The node an event addresses, if any. `None` for the global
    /// events (impairment edges, the metrics probe).
    pub fn node_index(&self) -> Option<usize> {
        match self {
            SimEvent::ArrivalStart { node, .. }
            | SimEvent::ArrivalEnd { node, .. }
            | SimEvent::TxEnd { node }
            | SimEvent::CtrlArrivalStart { node, .. }
            | SimEvent::CtrlArrivalEnd { node, .. }
            | SimEvent::CtrlTxEnd { node }
            | SimEvent::MacTimer { node, .. }
            | SimEvent::AodvTimer { node, .. }
            | SimEvent::TrafficEmit { node, .. }
            | SimEvent::NodeDown { node }
            | SimEvent::NodeUp { node } => Some(node.index()),
            SimEvent::ImpairmentStart { .. }
            | SimEvent::ImpairmentEnd { .. }
            | SimEvent::MetricsProbe => None,
        }
    }

    /// Content-derived same-instant ordering key: `(class << 96) |
    /// (node << 64) | discriminator`.
    ///
    /// Every schedule site passes this rank to the event queue, so ties at
    /// one instant resolve by event *content* instead of scheduling history.
    /// That is what lets region shards — which each schedule only a subset
    /// of the global event population — agree exactly with the
    /// single-threaded reference on pop order: two distinct events due at
    /// the same instant compare identically no matter which queue holds
    /// them. Events that share a full `(at, rank)` key always address the
    /// same node (the discriminator separates everything else a node can
    /// have in flight at one instant), so they live on one shard and the
    /// insertion sequence finishes the job there.
    ///
    /// `End` classes sort before `Start` classes: an arrival that ends the
    /// instant another begins must release the radio first, matching the
    /// order the single-threaded scheduler produced them in.
    ///
    /// The four arrival events are *totally* ordered by `(at, rank)`: their
    /// discriminator is the transmission key, which is unique per
    /// transmission, and a transmission reaches a node at most once, so
    /// no two arrival events — and no arrival and any other event — ever
    /// share a full key. The queue's insertion sequence is therefore never
    /// consulted for an arrival, which is what lets the channel keep a
    /// transmission's arrivals in a sorted list behind two queue cursors
    /// instead of one queue entry each (see `channel`).
    pub fn rank(&self) -> u128 {
        let (class, node, disc): (u128, u32, u64) = match self {
            SimEvent::ArrivalEnd { node, key, .. } => (0, node.0, *key),
            SimEvent::CtrlArrivalEnd { node, key, .. } => (1, node.0, *key),
            SimEvent::TxEnd { node } => (2, node.0, 0),
            SimEvent::CtrlTxEnd { node } => (3, node.0, 0),
            SimEvent::ArrivalStart { node, key, .. } => (4, node.0, *key),
            SimEvent::CtrlArrivalStart { node, key, .. } => (5, node.0, *key),
            SimEvent::MacTimer { node, token, .. } => (6, node.0, token.value()),
            SimEvent::AodvTimer { node, token, .. } => (7, node.0, token.value()),
            SimEvent::TrafficEmit { node, source } => (8, node.0, *source as u64),
            SimEvent::NodeDown { node } => (9, node.0, 0),
            SimEvent::NodeUp { node } => (10, node.0, 0),
            SimEvent::ImpairmentStart { index } => (11, 0, *index as u64),
            SimEvent::ImpairmentEnd { index } => (12, 0, *index as u64),
            SimEvent::MetricsProbe => (13, 0, 0),
        };
        compose_rank(class, node, disc)
    }
}

#[inline]
fn compose_rank(class: u128, node: u32, disc: u64) -> u128 {
    (class << 96) | ((node as u128) << 64) | disc as u128
}

/// [`SimEvent::rank`] of an arrival event — start or `end`, data or
/// `ctrl` channel — at `node` for transmission `key`, without building
/// the event (the channel keys its fan-out cursors with it, and checks
/// every event it materialises against `rank()` in debug builds).
#[inline]
pub(crate) fn arrival_rank(ctrl: bool, end: bool, node: u32, key: u64) -> u128 {
    let class = if end { 0 } else { 4 } + ctrl as u128;
    compose_rank(class, node, key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmac_engine::Duration;
    use pcmac_mac::{FrameBody, FrameKind};

    #[test]
    fn arrival_rank_is_the_rank_of_the_event_it_names() {
        let (node, key) = (NodeId(7), (3 << 32) | 41);
        let (power, end) = (Milliwatts(1.0), SimTime::ZERO);
        let frame = Arc::new(Frame {
            kind: FrameKind::Ack,
            tx: NodeId(3),
            rx: node,
            duration: Duration::ZERO,
            tx_power: power,
            body: FrameBody::Ack,
        });
        let ctrl = CtrlFrame {
            receiver: NodeId(3),
            noise_tolerance: power,
            remaining: Duration::ZERO,
            tx_power: power,
        };
        let events = [
            (false, true, SimEvent::ArrivalEnd { node, key, power }),
            (true, true, SimEvent::CtrlArrivalEnd { node, key, power }),
            (
                false,
                false,
                SimEvent::ArrivalStart {
                    node,
                    key,
                    power,
                    end,
                    frame,
                },
            ),
            (
                true,
                false,
                SimEvent::CtrlArrivalStart {
                    node,
                    key,
                    power,
                    end,
                    frame: ctrl,
                },
            ),
        ];
        for (ctrl, end, ev) in events {
            assert_eq!(arrival_rank(ctrl, end, node.0, key), ev.rank(), "{ev:?}");
        }
    }
}

mod snap {
    //! Checkpoint capture of pending events. Tags reuse the rank classes
    //! so the wire format and the ordering key can never drift apart.

    use super::SimEvent;
    use pcmac_snap::{Snap, SnapError, SnapReader, SnapWriter};

    impl Snap for SimEvent {
        fn save(&self, w: &mut SnapWriter) {
            match self {
                SimEvent::ArrivalEnd { node, key, power } => {
                    w.u8(0);
                    node.save(w);
                    w.u64(*key);
                    power.save(w);
                }
                SimEvent::CtrlArrivalEnd { node, key, power } => {
                    w.u8(1);
                    node.save(w);
                    w.u64(*key);
                    power.save(w);
                }
                SimEvent::TxEnd { node } => {
                    w.u8(2);
                    node.save(w);
                }
                SimEvent::CtrlTxEnd { node } => {
                    w.u8(3);
                    node.save(w);
                }
                SimEvent::ArrivalStart {
                    node,
                    key,
                    power,
                    end,
                    frame,
                } => {
                    w.u8(4);
                    node.save(w);
                    w.u64(*key);
                    power.save(w);
                    end.save(w);
                    frame.save(w);
                }
                SimEvent::CtrlArrivalStart {
                    node,
                    key,
                    power,
                    end,
                    frame,
                } => {
                    w.u8(5);
                    node.save(w);
                    w.u64(*key);
                    power.save(w);
                    end.save(w);
                    frame.save(w);
                }
                SimEvent::MacTimer { node, kind, token } => {
                    w.u8(6);
                    node.save(w);
                    kind.save(w);
                    token.save(w);
                }
                SimEvent::AodvTimer { node, dst, token } => {
                    w.u8(7);
                    node.save(w);
                    dst.save(w);
                    token.save(w);
                }
                SimEvent::TrafficEmit { node, source } => {
                    w.u8(8);
                    node.save(w);
                    source.save(w);
                }
                SimEvent::NodeDown { node } => {
                    w.u8(9);
                    node.save(w);
                }
                SimEvent::NodeUp { node } => {
                    w.u8(10);
                    node.save(w);
                }
                SimEvent::ImpairmentStart { index } => {
                    w.u8(11);
                    index.save(w);
                }
                SimEvent::ImpairmentEnd { index } => {
                    w.u8(12);
                    index.save(w);
                }
                SimEvent::MetricsProbe => w.u8(13),
            }
        }

        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            Ok(match r.u8()? {
                0 => SimEvent::ArrivalEnd {
                    node: Snap::load(r)?,
                    key: r.u64()?,
                    power: Snap::load(r)?,
                },
                1 => SimEvent::CtrlArrivalEnd {
                    node: Snap::load(r)?,
                    key: r.u64()?,
                    power: Snap::load(r)?,
                },
                2 => SimEvent::TxEnd {
                    node: Snap::load(r)?,
                },
                3 => SimEvent::CtrlTxEnd {
                    node: Snap::load(r)?,
                },
                4 => SimEvent::ArrivalStart {
                    node: Snap::load(r)?,
                    key: r.u64()?,
                    power: Snap::load(r)?,
                    end: Snap::load(r)?,
                    frame: Snap::load(r)?,
                },
                5 => SimEvent::CtrlArrivalStart {
                    node: Snap::load(r)?,
                    key: r.u64()?,
                    power: Snap::load(r)?,
                    end: Snap::load(r)?,
                    frame: Snap::load(r)?,
                },
                6 => SimEvent::MacTimer {
                    node: Snap::load(r)?,
                    kind: Snap::load(r)?,
                    token: Snap::load(r)?,
                },
                7 => SimEvent::AodvTimer {
                    node: Snap::load(r)?,
                    dst: Snap::load(r)?,
                    token: Snap::load(r)?,
                },
                8 => SimEvent::TrafficEmit {
                    node: Snap::load(r)?,
                    source: Snap::load(r)?,
                },
                9 => SimEvent::NodeDown {
                    node: Snap::load(r)?,
                },
                10 => SimEvent::NodeUp {
                    node: Snap::load(r)?,
                },
                11 => SimEvent::ImpairmentStart {
                    index: Snap::load(r)?,
                },
                12 => SimEvent::ImpairmentEnd {
                    index: Snap::load(r)?,
                },
                13 => SimEvent::MetricsProbe,
                _ => return Err(SnapError::Corrupt("event tag")),
            })
        }
    }
}
