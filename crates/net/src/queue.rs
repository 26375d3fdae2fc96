//! The interface queue between routing and the MAC.
//!
//! Reproduces ns-2's CMU `PriQueue`: a 50-packet DropTail FIFO in which
//! routing-protocol packets jump to the head (route maintenance must not
//! starve behind a full data backlog, or discoveries time out and the
//! network collapses at exactly the loads the paper studies).

use std::collections::VecDeque;

use pcmac_engine::NodeId;

use crate::packet::Packet;

/// A packet waiting for the MAC, already resolved to a next hop.
#[derive(Debug, Clone, PartialEq)]
pub struct QueuedPacket {
    /// The packet.
    pub packet: Packet,
    /// MAC-level next hop ([`NodeId::BROADCAST`] for flooded frames).
    pub next_hop: NodeId,
}

/// DropTail queue with a priority lane for routing packets.
///
/// The capacity is the owner's configuration, passed to every
/// [`push`](DropTailQueue::push). It is a limit, not a reservation: the
/// backing buffer is allocated by the first packet that has to wait and
/// grows with the backlog, so the queue of a station that never queues
/// costs nothing.
#[derive(Debug, Clone, Default)]
pub struct DropTailQueue {
    items: VecDeque<QueuedPacket>,
    dropped: u64,
    enqueued: u64,
}

impl DropTailQueue {
    /// Enqueue into a queue of at most `capacity` packets, honouring the
    /// routing-priority lane. Returns the dropped packet if the queue was
    /// full (the caller records the loss).
    pub fn push(&mut self, qp: QueuedPacket, capacity: usize) -> Option<QueuedPacket> {
        if self.items.len() >= capacity {
            // DropTail: for priority packets evict the newest data packet
            // instead, so control traffic still gets through.
            if qp.packet.is_routing() {
                if let Some(victim_idx) = self.items.iter().rposition(|q| !q.packet.is_routing()) {
                    let victim = self.items.remove(victim_idx).expect("index in range");
                    self.items.push_front(qp);
                    self.enqueued += 1;
                    self.dropped += 1;
                    return Some(victim);
                }
            }
            self.dropped += 1;
            return Some(qp);
        }
        if qp.packet.is_routing() {
            self.items.push_front(qp);
        } else {
            self.items.push_back(qp);
        }
        self.enqueued += 1;
        None
    }

    /// Take the next packet for the MAC.
    pub fn pop(&mut self) -> Option<QueuedPacket> {
        self.items.pop_front()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Packets rejected or evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Packets accepted so far.
    pub fn enqueued(&self) -> u64 {
        self.enqueued
    }

    /// Remove all queued packets destined (next hop) for `hop`, returning
    /// them; used when routing learns a link broke, so stale traffic can be
    /// re-routed or reported instead of burning airtime on a dead link.
    pub fn drain_next_hop(&mut self, hop: NodeId) -> Vec<QueuedPacket> {
        let mut out = Vec::new();
        self.items.retain_mut(|qp| {
            if qp.next_hop == hop {
                out.push(qp.clone());
                false
            } else {
                true
            }
        });
        out
    }
}

mod snap {
    use super::{DropTailQueue, QueuedPacket};

    pcmac_snap::snap_struct!(QueuedPacket { packet, next_hop });

    pcmac_snap::snap_struct!(DropTailQueue {
        items,
        dropped,
        enqueued,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Payload, Rreq};
    use pcmac_engine::{FlowId, PacketId, SimTime};

    fn data(n: u64) -> QueuedPacket {
        QueuedPacket {
            packet: Packet::data(
                PacketId(n),
                FlowId(0),
                NodeId(1),
                NodeId(2),
                512,
                SimTime::ZERO,
            ),
            next_hop: NodeId(2),
        }
    }

    fn rreq(n: u64) -> QueuedPacket {
        QueuedPacket {
            packet: Packet::control(
                PacketId(n),
                NodeId(1),
                NodeId::BROADCAST,
                SimTime::ZERO,
                Payload::Rreq(Rreq {
                    rreq_id: n as u32,
                    origin: NodeId(1),
                    origin_seq: 0,
                    target: NodeId(5),
                    target_seq: None,
                    hop_count: 0,
                }),
            ),
            next_hop: NodeId::BROADCAST,
        }
    }

    #[test]
    fn fifo_for_data() {
        let mut q = DropTailQueue::default();
        q.push(data(1), 10);
        q.push(data(2), 10);
        q.push(data(3), 10);
        assert_eq!(q.pop().unwrap().packet.id, PacketId(1));
        assert_eq!(q.pop().unwrap().packet.id, PacketId(2));
        assert_eq!(q.pop().unwrap().packet.id, PacketId(3));
        assert!(q.pop().is_none());
    }

    #[test]
    fn routing_jumps_the_line() {
        let mut q = DropTailQueue::default();
        q.push(data(1), 10);
        q.push(data(2), 10);
        q.push(rreq(3), 10);
        assert_eq!(q.pop().unwrap().packet.id, PacketId(3));
        assert_eq!(q.pop().unwrap().packet.id, PacketId(1));
    }

    #[test]
    fn droptail_rejects_when_full() {
        let mut q = DropTailQueue::default();
        assert!(q.push(data(1), 2).is_none());
        assert!(q.push(data(2), 2).is_none());
        let rejected = q.push(data(3), 2).expect("queue full");
        assert_eq!(rejected.packet.id, PacketId(3));
        assert_eq!(q.dropped(), 1);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn full_queue_evicts_data_for_routing() {
        let mut q = DropTailQueue::default();
        q.push(data(1), 2);
        q.push(data(2), 2);
        let victim = q.push(rreq(3), 2).expect("a data packet is evicted");
        assert_eq!(victim.packet.id, PacketId(2), "newest data evicted");
        assert_eq!(q.pop().unwrap().packet.id, PacketId(3));
        assert_eq!(q.pop().unwrap().packet.id, PacketId(1));
    }

    #[test]
    fn full_queue_of_routing_rejects_more_routing() {
        let mut q = DropTailQueue::default();
        q.push(rreq(1), 2);
        q.push(rreq(2), 2);
        let rejected = q.push(rreq(3), 2).expect("nothing to evict");
        assert_eq!(rejected.packet.id, PacketId(3));
    }

    #[test]
    fn drain_next_hop_filters() {
        let mut q = DropTailQueue::default();
        q.push(data(1), 10);
        q.push(
            QueuedPacket {
                next_hop: NodeId(7),
                ..data(2)
            },
            10,
        );
        q.push(data(3), 10);
        let drained = q.drain_next_hop(NodeId(7));
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].packet.id, PacketId(2));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn buffer_is_allocated_by_the_first_waiting_packet() {
        let mut q = DropTailQueue::default();
        assert_eq!(q.items.capacity(), 0);
        q.push(data(1), 50);
        assert!(q.items.capacity() >= 1);
        for n in 2..=60 {
            q.push(data(n), 50);
        }
        assert_eq!(q.len(), 50);
        assert_eq!(q.dropped(), 10);
    }

    #[test]
    fn counters_track_activity() {
        let mut q = DropTailQueue::default();
        q.push(data(1), 1);
        q.push(data(2), 1);
        assert_eq!(q.enqueued(), 1);
        assert_eq!(q.dropped(), 1);
    }
}
