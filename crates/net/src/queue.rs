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

/// Fixed-capacity DropTail queue with a priority lane for routing packets.
///
/// `capacity` is a limit, not a reservation: the backing buffer is
/// allocated by the first packet that has to wait and grows with the
/// backlog, so the queue of a station that never queues costs nothing.
#[derive(Debug, Clone)]
pub struct DropTailQueue {
    items: VecDeque<QueuedPacket>,
    capacity: usize,
    dropped: u64,
    enqueued: u64,
}

impl DropTailQueue {
    /// ns-2's default interface queue length.
    pub const DEFAULT_CAPACITY: usize = 50;

    /// A queue holding at most `capacity` packets.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        DropTailQueue {
            items: VecDeque::new(),
            capacity,
            dropped: 0,
            enqueued: 0,
        }
    }

    /// Enqueue, honouring the routing-priority lane. Returns the dropped
    /// packet if the queue was full (the caller records the loss).
    pub fn push(&mut self, qp: QueuedPacket) -> Option<QueuedPacket> {
        if self.items.len() >= self.capacity {
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
    use pcmac_snap::{Snap, SnapError, SnapReader, SnapWriter};
    use std::collections::VecDeque;

    pcmac_snap::snap_struct!(QueuedPacket { packet, next_hop });

    impl Snap for DropTailQueue {
        fn save(&self, w: &mut SnapWriter) {
            self.items.save(w);
            self.capacity.save(w);
            self.dropped.save(w);
            self.enqueued.save(w);
        }

        /// A queue restored with no room (`capacity == 0`) or already
        /// over its limit would drop every packet from then on without a
        /// word, so both are rejected as corrupt.
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            let items: VecDeque<QueuedPacket> = Snap::load(r)?;
            let capacity: usize = Snap::load(r)?;
            if capacity == 0 || items.len() > capacity {
                return Err(SnapError::Corrupt("interface queue capacity"));
            }
            Ok(DropTailQueue {
                items,
                capacity,
                dropped: Snap::load(r)?,
                enqueued: Snap::load(r)?,
            })
        }
    }
}

impl Default for DropTailQueue {
    fn default() -> Self {
        DropTailQueue::new(Self::DEFAULT_CAPACITY)
    }
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
        let mut q = DropTailQueue::new(10);
        q.push(data(1));
        q.push(data(2));
        q.push(data(3));
        assert_eq!(q.pop().unwrap().packet.id, PacketId(1));
        assert_eq!(q.pop().unwrap().packet.id, PacketId(2));
        assert_eq!(q.pop().unwrap().packet.id, PacketId(3));
        assert!(q.pop().is_none());
    }

    #[test]
    fn routing_jumps_the_line() {
        let mut q = DropTailQueue::new(10);
        q.push(data(1));
        q.push(data(2));
        q.push(rreq(3));
        assert_eq!(q.pop().unwrap().packet.id, PacketId(3));
        assert_eq!(q.pop().unwrap().packet.id, PacketId(1));
    }

    #[test]
    fn droptail_rejects_when_full() {
        let mut q = DropTailQueue::new(2);
        assert!(q.push(data(1)).is_none());
        assert!(q.push(data(2)).is_none());
        let rejected = q.push(data(3)).expect("queue full");
        assert_eq!(rejected.packet.id, PacketId(3));
        assert_eq!(q.dropped(), 1);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn full_queue_evicts_data_for_routing() {
        let mut q = DropTailQueue::new(2);
        q.push(data(1));
        q.push(data(2));
        let victim = q.push(rreq(3)).expect("a data packet is evicted");
        assert_eq!(victim.packet.id, PacketId(2), "newest data evicted");
        assert_eq!(q.pop().unwrap().packet.id, PacketId(3));
        assert_eq!(q.pop().unwrap().packet.id, PacketId(1));
    }

    #[test]
    fn full_queue_of_routing_rejects_more_routing() {
        let mut q = DropTailQueue::new(2);
        q.push(rreq(1));
        q.push(rreq(2));
        let rejected = q.push(rreq(3)).expect("nothing to evict");
        assert_eq!(rejected.packet.id, PacketId(3));
    }

    #[test]
    fn drain_next_hop_filters() {
        let mut q = DropTailQueue::new(10);
        q.push(data(1));
        q.push(QueuedPacket {
            next_hop: NodeId(7),
            ..data(2)
        });
        q.push(data(3));
        let drained = q.drain_next_hop(NodeId(7));
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].packet.id, PacketId(2));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn buffer_is_allocated_by_the_first_waiting_packet() {
        let mut q = DropTailQueue::default();
        assert_eq!(q.items.capacity(), 0);
        q.push(data(1));
        assert!(q.items.capacity() >= 1);
        for n in 2..=60 {
            q.push(data(n));
        }
        assert_eq!(q.len(), DropTailQueue::DEFAULT_CAPACITY);
        assert_eq!(q.dropped(), 10);
    }

    #[test]
    fn snapshot_rejects_a_queue_with_no_room_or_over_its_limit() {
        use pcmac_snap::{Snap, SnapError, SnapReader, SnapWriter};
        let mut q = DropTailQueue::new(2);
        q.push(data(1));
        q.push(data(2));
        let mut w = SnapWriter::new();
        q.save(&mut w);
        let payload = w.payload().to_vec();
        // `capacity` follows `items` on the wire: overwrite it in place.
        let mut items = SnapWriter::new();
        q.items.save(&mut items);
        let at = items.len();
        let encode = |capacity: u64| {
            let mut mutated = payload.clone();
            mutated[at..at + 8].copy_from_slice(&capacity.to_le_bytes());
            let mut w = SnapWriter::new();
            w.bytes(&mutated);
            w.finish()
        };
        let load = |bytes: &[u8]| DropTailQueue::load(&mut SnapReader::open(bytes).unwrap());
        let back = load(&encode(2)).expect("the untouched encoding loads");
        assert_eq!((back.len(), back.capacity), (2, 2));
        for bad in [0, 1] {
            assert!(
                matches!(load(&encode(bad)), Err(SnapError::Corrupt(_))),
                "capacity {bad} with 2 queued packets must be rejected"
            );
        }
    }

    #[test]
    fn counters_track_activity() {
        let mut q = DropTailQueue::new(1);
        q.push(data(1));
        q.push(data(2));
        assert_eq!(q.enqueued(), 1);
        assert_eq!(q.dropped(), 1);
    }
}
