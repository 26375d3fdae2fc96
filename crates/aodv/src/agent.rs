//! The AODV protocol engine.
//!
//! A pure state machine, symmetric with the MAC: packets and timer fires
//! go in, [`AodvAction`]s come out. The simulation core wires the actions
//! to the MAC queue, the local traffic sink and the event queue.
//!
//! What only an originator of traffic needs — its pending discoveries,
//! the send buffer and their latency record — sits behind one box that
//! the first discovery allocates. Most stations of a large field only
//! forward or overhear; theirs stays an empty pointer and checkpoints as
//! the empty state.

use std::collections::VecDeque;
use std::sync::Arc;

use pcmac_engine::{NodeId, PacketId, SimTime, TimerSlot, TimerToken, VecMap};
use pcmac_net::{Packet, Payload, Rerr, Rrep, Rreq};
use pcmac_stats::StreamingQuantile;

use crate::config::AodvConfig;
use crate::table::RouteTable;

/// Why the agent discarded a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Route discovery exhausted its retries.
    NoRoute,
    /// The send buffer was full.
    BufferOverflow,
    /// The packet outlived the buffer timeout.
    BufferTimeout,
    /// The IP TTL ran out.
    TtlExpired,
}

/// Outputs of the routing agent.
#[derive(Debug, Clone)]
pub enum AodvAction {
    /// Hand a packet to the MAC toward `next_hop` ([`NodeId::BROADCAST`]
    /// for floods).
    Transmit {
        /// The packet (possibly a forwarded or generated control packet).
        packet: Packet,
        /// MAC next hop.
        next_hop: NodeId,
    },
    /// The packet reached its destination: deliver to the local agent.
    DeliverLocal {
        /// The packet.
        packet: Packet,
    },
    /// Arm the discovery timer for `dst`.
    Arm {
        /// Destination whose discovery is pending.
        dst: NodeId,
        /// Delay from now.
        delay: pcmac_engine::Duration,
        /// Liveness token.
        token: TimerToken,
    },
    /// Routing state toward `peer` changed in a way that must reset the
    /// PCMAC sent/received tables (paper §III).
    PeerReset {
        /// The affected neighbour.
        peer: NodeId,
    },
    /// A packet was discarded.
    Drop {
        /// The packet.
        packet: Packet,
        /// Why.
        reason: DropReason,
    },
}

/// Timer identities used by the agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AodvTimer {
    /// Route discovery toward the given destination timed out.
    Discovery(NodeId),
}

/// Counters for routing diagnostics.
#[derive(Debug, Clone, Copy, Default)]
pub struct AodvCounters {
    /// RREQ floods originated (including retries).
    pub rreq_originated: u64,
    /// RREQs rebroadcast for others.
    pub rreq_forwarded: u64,
    /// RREPs generated (as destination or fresh intermediate).
    pub rrep_generated: u64,
    /// RREPs forwarded along reverse paths.
    pub rrep_forwarded: u64,
    /// RERRs sent.
    pub rerr_sent: u64,
    /// Discoveries that exhausted their retries.
    pub discoveries_failed: u64,
    /// Data packets forwarded for other nodes.
    pub data_forwarded: u64,
    /// Data packets delivered locally.
    pub data_delivered: u64,
    /// Packets dropped (all reasons).
    pub drops: u64,
}

#[derive(Debug, Clone)]
struct Discovery {
    slot: TimerSlot,
    attempts: u8,
    /// When the discovery was started (latency observability).
    started: SimTime,
}

/// What only a station that has started a route discovery carries.
/// Allocated by the first discovery and kept from then on.
#[derive(Debug, Clone)]
struct Origination {
    discoveries: VecMap<NodeId, Discovery>,
    /// Packets awaiting discovery, with their buffering time.
    buffer: VecDeque<(Packet, SimTime)>,
    /// Discoveries started (observability; pairs with
    /// `counters.discoveries_failed`).
    started: u64,
    /// Seconds from discovery start to the route becoming usable —
    /// a constant-memory streaming summary (exact for the first
    /// [`pcmac_stats::quantile::EXACT_CAP`] completions).
    latency: StreamingQuantile,
}

impl Origination {
    fn new() -> Self {
        Origination {
            discoveries: VecMap::new(),
            buffer: VecDeque::new(),
            started: 0,
            latency: StreamingQuantile::new(),
        }
    }

    /// `true` when nothing here differs from [`Origination::new`].
    fn is_blank(&self) -> bool {
        self.discoveries.is_empty()
            && self.buffer.is_empty()
            && self.started == 0
            && self.latency.count() == 0
    }
}

/// The per-node AODV agent.
#[derive(Debug, Clone)]
pub struct AodvAgent {
    id: NodeId,
    /// Shared by every agent built from the same scenario.
    cfg: Arc<AodvConfig>,
    table: RouteTable,
    own_seq: u32,
    next_rreq_id: u32,
    /// Duplicate-flood suppression: (origin, rreq_id) → insertion time.
    rreq_cache: VecMap<(NodeId, u32), SimTime>,
    next_ctrl_pkt: u64,
    /// Statistics.
    pub counters: AodvCounters,
    /// `None` until the first discovery.
    origination: Option<Box<Origination>>,
}

impl AodvAgent {
    /// A fresh agent for node `id`. Pass an `Arc<AodvConfig>` to share
    /// one configuration between agents.
    pub fn new(id: NodeId, cfg: impl Into<Arc<AodvConfig>>) -> Self {
        AodvAgent {
            id,
            cfg: cfg.into(),
            table: RouteTable::new(),
            own_seq: 0,
            next_rreq_id: 0,
            rreq_cache: VecMap::new(),
            next_ctrl_pkt: 0,
            counters: AodvCounters::default(),
            origination: None,
        }
    }

    /// The configuration, for building another agent that shares it.
    pub fn shared_config(&self) -> Arc<AodvConfig> {
        Arc::clone(&self.cfg)
    }

    /// Read access to the route table (tests, diagnostics).
    pub fn table(&self) -> &RouteTable {
        &self.table
    }

    /// Route discoveries this agent has started.
    pub fn discoveries_started(&self) -> u64 {
        self.origination.as_ref().map_or(0, |o| o.started)
    }

    /// Completed-discovery latency population summary, `None` before the
    /// first discovery.
    pub fn discovery_latency(&self) -> Option<&StreamingQuantile> {
        self.origination.as_ref().map(|o| &o.latency)
    }

    /// Allocate a control-packet id: namespace 2, node, counter — unique
    /// network-wide without coordination.
    fn ctrl_packet_id(&mut self) -> PacketId {
        let c = self.next_ctrl_pkt;
        self.next_ctrl_pkt += 1;
        PacketId((2 << 56) | ((self.id.0 as u64) << 32) | c)
    }

    // ------------------------------------------------------------------
    // Local origination
    // ------------------------------------------------------------------

    /// Send a locally-generated packet toward `packet.dst`.
    pub fn send(&mut self, packet: Packet, now: SimTime, out: &mut Vec<AodvAction>) {
        debug_assert_eq!(packet.src, self.id);
        if packet.dst == self.id {
            self.counters.data_delivered += 1;
            out.push(AodvAction::DeliverLocal { packet });
            return;
        }
        if let Some(route) = self.table.lookup(packet.dst, now) {
            let next_hop = route.next_hop;
            self.table
                .refresh(packet.dst, self.cfg.active_route_timeout, now);
            self.table
                .refresh(next_hop, self.cfg.active_route_timeout, now);
            out.push(AodvAction::Transmit { packet, next_hop });
            return;
        }
        self.buffer_and_discover(packet, now, out);
    }

    fn buffer_and_discover(&mut self, packet: Packet, now: SimTime, out: &mut Vec<AodvAction>) {
        self.purge_buffer(now, out);
        let o = self
            .origination
            .get_or_insert_with(|| Box::new(Origination::new()));
        if o.buffer.len() >= self.cfg.buffer_capacity {
            // Drop the oldest (ns-2 send-buffer behaviour) to make room.
            if let Some((old, _)) = o.buffer.pop_front() {
                self.counters.drops += 1;
                out.push(AodvAction::Drop {
                    packet: old,
                    reason: DropReason::BufferOverflow,
                });
            }
        }
        let dst = packet.dst;
        o.buffer.push_back((packet, now));
        if !o.discoveries.contains_key(&dst) {
            o.discoveries.insert(
                dst,
                Discovery {
                    slot: TimerSlot::new(),
                    attempts: 0,
                    started: now,
                },
            );
            o.started += 1;
            self.emit_rreq(dst, now, out);
        }
    }

    fn emit_rreq(&mut self, dst: NodeId, now: SimTime, out: &mut Vec<AodvAction>) {
        // RFC 3561 §6.3: increment own sequence number before a discovery.
        self.own_seq = self.own_seq.wrapping_add(1);
        self.next_rreq_id = self.next_rreq_id.wrapping_add(1);
        let rreq_id = self.next_rreq_id;
        self.rreq_cache.insert((self.id, rreq_id), now);

        let mut packet = Packet::control(
            self.ctrl_packet_id(),
            self.id,
            NodeId::BROADCAST,
            now,
            Payload::Rreq(Rreq {
                rreq_id,
                origin: self.id,
                origin_seq: self.own_seq,
                target: dst,
                target_seq: self.table.known_seq(dst),
                hop_count: 0,
            }),
        );
        packet.ttl = self.cfg.rreq_ttl;
        self.counters.rreq_originated += 1;
        out.push(AodvAction::Transmit {
            packet,
            next_hop: NodeId::BROADCAST,
        });

        let disc = self
            .origination
            .as_mut()
            .and_then(|o| o.discoveries.get_mut(&dst))
            .expect("discovery exists");
        let token = disc.slot.arm();
        // Binary backoff across retries.
        let delay = self.cfg.rreq_wait.saturating_mul(1 << disc.attempts.min(6));
        out.push(AodvAction::Arm { dst, delay, token });
    }

    /// A discovery timer fired.
    pub fn on_discovery_timeout(
        &mut self,
        dst: NodeId,
        token: TimerToken,
        now: SimTime,
        out: &mut Vec<AodvAction>,
    ) {
        let Some(o) = self.origination.as_deref_mut() else {
            return;
        };
        let Some(disc) = o.discoveries.get_mut(&dst) else {
            return;
        };
        if !disc.slot.fire(token) {
            return;
        }
        if self.table.lookup(dst, now).is_some() {
            // An RREP raced the timer: flush and finish.
            if let Some(disc) = o.discoveries.remove(&dst) {
                o.latency
                    .record(now.saturating_since(disc.started).as_secs_f64());
            }
            self.flush_buffer_for(dst, now, out);
            return;
        }
        disc.attempts += 1;
        if disc.attempts > self.cfg.rreq_retries {
            o.discoveries.remove(&dst);
            self.counters.discoveries_failed += 1;
            // Give up: drop everything buffered for this destination.
            let mut kept = VecDeque::new();
            while let Some((p, t0)) = o.buffer.pop_front() {
                if p.dst == dst {
                    self.counters.drops += 1;
                    out.push(AodvAction::Drop {
                        packet: p,
                        reason: DropReason::NoRoute,
                    });
                } else {
                    kept.push_back((p, t0));
                }
            }
            o.buffer = kept;
            return;
        }
        self.emit_rreq(dst, now, out);
    }

    // ------------------------------------------------------------------
    // Packet reception (from the MAC)
    // ------------------------------------------------------------------

    /// Process a packet handed up by the MAC. `from` is the previous hop.
    pub fn on_packet(
        &mut self,
        mut packet: Packet,
        from: NodeId,
        now: SimTime,
        out: &mut Vec<AodvAction>,
    ) {
        // Hearing anything from a neighbour proves a 1-hop link.
        self.refresh_neighbor(from, now);

        match packet.payload.clone() {
            Payload::Rreq(rreq) => self.handle_rreq(packet, rreq, from, now, out),
            Payload::Rrep(rrep) => self.handle_rrep(packet, rrep, from, now, out),
            Payload::Rerr(rerr) => self.handle_rerr(rerr, from, now, out),
            Payload::Data { .. } => {
                if packet.dst == self.id {
                    self.counters.data_delivered += 1;
                    // Keep the reverse path warm for replies.
                    self.table
                        .refresh(packet.src, self.cfg.active_route_timeout, now);
                    out.push(AodvAction::DeliverLocal { packet });
                    return;
                }
                // Forwarding.
                if packet.ttl <= 1 {
                    self.counters.drops += 1;
                    out.push(AodvAction::Drop {
                        packet,
                        reason: DropReason::TtlExpired,
                    });
                    return;
                }
                packet.ttl -= 1;
                if let Some(route) = self.table.lookup(packet.dst, now) {
                    let next_hop = route.next_hop;
                    self.table
                        .refresh(packet.dst, self.cfg.active_route_timeout, now);
                    self.table
                        .refresh(next_hop, self.cfg.active_route_timeout, now);
                    self.table
                        .refresh(packet.src, self.cfg.active_route_timeout, now);
                    self.counters.data_forwarded += 1;
                    out.push(AodvAction::Transmit { packet, next_hop });
                } else {
                    // Mid-path with no route: report the breakage upstream.
                    let seq = self
                        .table
                        .known_seq(packet.dst)
                        .unwrap_or(0)
                        .wrapping_add(1);
                    self.emit_rerr(vec![(packet.dst, seq)], now, out);
                    self.counters.drops += 1;
                    out.push(AodvAction::Drop {
                        packet,
                        reason: DropReason::NoRoute,
                    });
                }
            }
        }
    }

    fn refresh_neighbor(&mut self, from: NodeId, now: SimTime) {
        if from == self.id || from.is_broadcast() {
            return;
        }
        let seq = self.table.known_seq(from).unwrap_or(0);
        self.table
            .offer(from, from, 1, seq, self.cfg.active_route_timeout, now);
        self.table.refresh(from, self.cfg.active_route_timeout, now);
    }

    fn handle_rreq(
        &mut self,
        mut packet: Packet,
        rreq: Rreq,
        from: NodeId,
        now: SimTime,
        out: &mut Vec<AodvAction>,
    ) {
        // Duplicate suppression.
        self.purge_rreq_cache(now);
        if self.rreq_cache.contains_key(&(rreq.origin, rreq.rreq_id)) {
            return;
        }
        self.rreq_cache.insert((rreq.origin, rreq.rreq_id), now);
        if rreq.origin == self.id {
            return; // our own flood bounced back
        }

        // Learn/refresh the reverse route to the originator.
        self.table.offer(
            rreq.origin,
            from,
            rreq.hop_count + 1,
            rreq.origin_seq,
            self.cfg.active_route_timeout,
            now,
        );

        if rreq.target == self.id {
            // We are the destination: certify with our own sequence number
            // (raised to at least the requested one, RFC 3561 §6.6.1).
            if let Some(req_seq) = rreq.target_seq {
                if crate::seq::seq_newer(req_seq, self.own_seq) {
                    self.own_seq = req_seq;
                }
            }
            self.send_rrep(rreq.origin, self.id, self.own_seq, 0, from, now, out);
            return;
        }

        // Fresh-enough intermediate route?
        if let Some(route) = self.table.lookup(rreq.target, now) {
            let fresh_enough = match rreq.target_seq {
                Some(want) => crate::seq::seq_at_least(route.dst_seq, want),
                None => true,
            };
            if fresh_enough {
                let (seq, hops) = (route.dst_seq, route.hop_count);
                self.send_rrep(rreq.origin, rreq.target, seq, hops, from, now, out);
                return;
            }
        }

        // Rebroadcast the flood.
        if packet.ttl <= 1 {
            return;
        }
        packet.ttl -= 1;
        packet.payload = Payload::Rreq(Rreq {
            hop_count: rreq.hop_count + 1,
            ..rreq
        });
        self.counters.rreq_forwarded += 1;
        out.push(AodvAction::Transmit {
            packet,
            next_hop: NodeId::BROADCAST,
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn send_rrep(
        &mut self,
        origin: NodeId,
        target: NodeId,
        target_seq: u32,
        hop_count: u8,
        toward: NodeId,
        now: SimTime,
        out: &mut Vec<AodvAction>,
    ) {
        let packet = Packet::control(
            self.ctrl_packet_id(),
            self.id,
            origin,
            now,
            Payload::Rrep(Rrep {
                origin,
                target,
                target_seq,
                hop_count,
            }),
        );
        self.counters.rrep_generated += 1;
        out.push(AodvAction::Transmit {
            packet,
            next_hop: toward,
        });
        // Paper §III: sending an RREP resets the PCMAC tables toward the
        // downstream terminal (a new session begins through it).
        out.push(AodvAction::PeerReset { peer: toward });
    }

    fn handle_rrep(
        &mut self,
        packet: Packet,
        rrep: Rrep,
        from: NodeId,
        now: SimTime,
        out: &mut Vec<AodvAction>,
    ) {
        // Learn the forward route to the target.
        self.table.offer(
            rrep.target,
            from,
            rrep.hop_count + 1,
            rrep.target_seq,
            self.cfg.active_route_timeout,
            now,
        );

        if rrep.origin == self.id {
            // Our discovery completed.
            if let Some(o) = self.origination.as_deref_mut() {
                if let Some(mut disc) = o.discoveries.remove(&rrep.target) {
                    disc.slot.cancel();
                    o.latency
                        .record(now.saturating_since(disc.started).as_secs_f64());
                }
            }
            self.flush_buffer_for(rrep.target, now, out);
            return;
        }

        // Forward along the reverse path.
        if let Some(route) = self.table.lookup(rrep.origin, now) {
            let next_hop = route.next_hop;
            let mut fwd = packet;
            if fwd.ttl <= 1 {
                return;
            }
            fwd.ttl -= 1;
            fwd.payload = Payload::Rrep(Rrep {
                hop_count: rrep.hop_count + 1,
                ..rrep
            });
            self.counters.rrep_forwarded += 1;
            out.push(AodvAction::Transmit {
                packet: fwd,
                next_hop,
            });
            out.push(AodvAction::PeerReset { peer: next_hop });
        }
        // No reverse route: the RREP dies here (the originator will retry).
    }

    fn handle_rerr(&mut self, rerr: Rerr, from: NodeId, now: SimTime, out: &mut Vec<AodvAction>) {
        // Paper §III: an RERR from a peer resets the PCMAC tables for it.
        out.push(AodvAction::PeerReset { peer: from });
        let mut forward = Vec::new();
        for (dst, seq) in rerr.unreachable {
            if let Some(pair) = self.table.invalidate_from_rerr(dst, seq, from) {
                forward.push(pair);
            }
        }
        if !forward.is_empty() {
            self.emit_rerr(forward, now, out);
        }
    }

    fn emit_rerr(
        &mut self,
        unreachable: Vec<(NodeId, u32)>,
        now: SimTime,
        out: &mut Vec<AodvAction>,
    ) {
        let mut packet = Packet::control(
            self.ctrl_packet_id(),
            self.id,
            NodeId::BROADCAST,
            now,
            Payload::Rerr(Rerr { unreachable }),
        );
        packet.ttl = 1; // one-hop broadcast, receivers re-issue if needed
        self.counters.rerr_sent += 1;
        out.push(AodvAction::Transmit {
            packet,
            next_hop: NodeId::BROADCAST,
        });
    }

    // ------------------------------------------------------------------
    // Link failure (from the MAC)
    // ------------------------------------------------------------------

    /// The MAC exhausted its retries toward `next_hop` while carrying
    /// `packet`.
    pub fn on_link_failure(
        &mut self,
        packet: Packet,
        next_hop: NodeId,
        now: SimTime,
        out: &mut Vec<AodvAction>,
    ) {
        let dead = self.table.invalidate_via(next_hop);
        if !dead.is_empty() {
            self.emit_rerr(dead, now, out);
        }
        if packet.is_routing() {
            return; // control packets are not salvaged
        }
        if packet.src == self.id {
            // We originated it: try a fresh discovery.
            self.buffer_and_discover(packet, now, out);
        } else {
            self.counters.drops += 1;
            out.push(AodvAction::Drop {
                packet,
                reason: DropReason::NoRoute,
            });
        }
    }

    // ------------------------------------------------------------------
    // Buffer plumbing
    // ------------------------------------------------------------------

    fn flush_buffer_for(&mut self, dst: NodeId, now: SimTime, out: &mut Vec<AodvAction>) {
        let Some(o) = self.origination.as_deref_mut() else {
            return;
        };
        let mut kept = VecDeque::new();
        while let Some((p, t0)) = o.buffer.pop_front() {
            if p.dst != dst {
                kept.push_back((p, t0));
                continue;
            }
            if now.saturating_since(t0) > self.cfg.buffer_timeout {
                self.counters.drops += 1;
                out.push(AodvAction::Drop {
                    packet: p,
                    reason: DropReason::BufferTimeout,
                });
                continue;
            }
            if let Some(route) = self.table.lookup(dst, now) {
                let next_hop = route.next_hop;
                out.push(AodvAction::Transmit {
                    packet: p,
                    next_hop,
                });
            } else {
                kept.push_back((p, t0));
            }
        }
        o.buffer = kept;
    }

    fn purge_buffer(&mut self, now: SimTime, out: &mut Vec<AodvAction>) {
        let Some(o) = self.origination.as_deref_mut() else {
            return;
        };
        let timeout = self.cfg.buffer_timeout;
        let mut kept = VecDeque::new();
        while let Some((p, t0)) = o.buffer.pop_front() {
            if now.saturating_since(t0) > timeout {
                self.counters.drops += 1;
                out.push(AodvAction::Drop {
                    packet: p,
                    reason: DropReason::BufferTimeout,
                });
            } else {
                kept.push_back((p, t0));
            }
        }
        o.buffer = kept;
    }

    fn purge_rreq_cache(&mut self, now: SimTime) {
        let timeout = self.cfg.rreq_cache_timeout;
        self.rreq_cache
            .retain(|_, t0| now.saturating_since(*t0) <= timeout);
    }
}

mod snap {
    //! Checkpoint capture of the routing agent. `id`/`cfg` are rebuilt
    //! from the scenario config; everything that evolves during a run —
    //! route table, sequence counters, flood cache, pending discoveries
    //! and the send buffer — travels through [`AodvAgent::save_state`].

    use super::{AodvAgent, AodvCounters, AodvTimer, Discovery, Origination};
    use pcmac_snap::{Snap, SnapError, SnapReader, SnapWriter};

    impl Snap for AodvTimer {
        fn save(&self, w: &mut SnapWriter) {
            match self {
                AodvTimer::Discovery(dst) => {
                    w.u8(0);
                    dst.save(w);
                }
            }
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            match r.u8()? {
                0 => Ok(AodvTimer::Discovery(Snap::load(r)?)),
                _ => Err(SnapError::Corrupt("aodv timer tag")),
            }
        }
    }

    pcmac_snap::snap_struct!(AodvCounters {
        rreq_originated,
        rreq_forwarded,
        rrep_generated,
        rrep_forwarded,
        rerr_sent,
        discoveries_failed,
        data_forwarded,
        data_delivered,
        drops,
    });

    pcmac_snap::snap_struct!(Discovery {
        slot,
        attempts,
        started,
    });

    impl AodvAgent {
        /// Serialize every mutable field (everything except `id`/`cfg`).
        pub fn save_state(&self, w: &mut SnapWriter) {
            // An agent that never started a discovery writes the bytes
            // of a blank originator state.
            let blank;
            let o = match &self.origination {
                Some(o) => &**o,
                None => {
                    blank = Origination::new();
                    &blank
                }
            };
            self.table.save(w);
            self.own_seq.save(w);
            self.next_rreq_id.save(w);
            self.rreq_cache.save(w);
            o.discoveries.save(w);
            o.buffer.save(w);
            self.next_ctrl_pkt.save(w);
            self.counters.save(w);
            o.started.save(w);
            o.latency.save(w);
        }

        /// Overwrite the mutable state of a freshly built agent with
        /// captured state. `id`/`cfg` keep their built values.
        pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
            self.table = Snap::load(r)?;
            self.own_seq = Snap::load(r)?;
            self.next_rreq_id = Snap::load(r)?;
            self.rreq_cache = Snap::load(r)?;
            let discoveries = Snap::load(r)?;
            let buffer = Snap::load(r)?;
            self.next_ctrl_pkt = Snap::load(r)?;
            self.counters = Snap::load(r)?;
            let o = Origination {
                discoveries,
                buffer,
                started: Snap::load(r)?,
                latency: Snap::load(r)?,
            };
            self.origination = (!o.is_blank()).then(|| Box::new(o));
            Ok(())
        }
    }
}
