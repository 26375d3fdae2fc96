//! The routing table.
//!
//! One entry per known destination: next hop, hop count, the destination
//! sequence number certifying freshness, a validity flag and an expiry.
//! Sequence-number rules (only accept fresher, or equal-and-shorter)
//! give AODV its loop freedom; the table enforces them in one place.

use pcmac_engine::{Duration, NodeId, SimTime, VecMap};

use crate::seq::seq_newer;

/// One routing-table entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Route {
    /// Neighbour to forward through.
    pub next_hop: NodeId,
    /// Hops to the destination.
    pub hop_count: u8,
    /// Destination sequence number this route was certified with.
    pub dst_seq: u32,
    /// `false` once invalidated by a failure or RERR.
    pub valid: bool,
    /// Instant the route stops being usable.
    pub expires: SimTime,
}

/// Destination-indexed route table.
#[derive(Debug, Clone, Default)]
pub struct RouteTable {
    routes: VecMap<NodeId, Route>,
}

impl RouteTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Usable route to `dst`, if any (valid and unexpired).
    pub fn lookup(&self, dst: NodeId, now: SimTime) -> Option<&Route> {
        self.routes.get(&dst).filter(|r| r.valid && r.expires > now)
    }

    /// Raw entry regardless of validity (sequence bookkeeping).
    pub fn entry(&self, dst: NodeId) -> Option<&Route> {
        self.routes.get(&dst)
    }

    /// Install or update the route to `dst` following the AODV acceptance
    /// rule: take the offer iff no entry exists, the offered sequence is
    /// newer, the current entry is invalid, or the sequence ties and the
    /// hop count improves. Returns `true` when the table changed.
    pub fn offer(
        &mut self,
        dst: NodeId,
        next_hop: NodeId,
        hop_count: u8,
        dst_seq: u32,
        lifetime: Duration,
        now: SimTime,
    ) -> bool {
        let expires = now + lifetime;
        match self.routes.get_mut(&dst) {
            None => {
                self.routes.insert(
                    dst,
                    Route {
                        next_hop,
                        hop_count,
                        dst_seq,
                        valid: true,
                        expires,
                    },
                );
                true
            }
            Some(r) => {
                let fresher = seq_newer(dst_seq, r.dst_seq);
                let tie_better = dst_seq == r.dst_seq && (hop_count < r.hop_count || !r.valid);
                if fresher || tie_better || !r.valid {
                    *r = Route {
                        next_hop,
                        hop_count,
                        dst_seq: if fresher {
                            dst_seq
                        } else {
                            r.dst_seq.max(dst_seq)
                        },
                        valid: true,
                        expires,
                    };
                    true
                } else {
                    // Same or staler info: at most refresh the lifetime of
                    // the identical route.
                    if r.next_hop == next_hop && expires > r.expires {
                        r.expires = expires;
                    }
                    false
                }
            }
        }
    }

    /// Refresh the lifetime of an actively-used route (data forwarded).
    pub fn refresh(&mut self, dst: NodeId, lifetime: Duration, now: SimTime) {
        if let Some(r) = self.routes.get_mut(&dst) {
            if r.valid {
                r.expires = r.expires.max(now + lifetime);
            }
        }
    }

    /// Invalidate every valid route using `next_hop`, bumping each
    /// destination sequence (RFC 3561 §6.11). Returns the affected
    /// `(destination, bumped seq)` pairs for the RERR.
    pub fn invalidate_via(&mut self, next_hop: NodeId) -> Vec<(NodeId, u32)> {
        let mut out = Vec::new();
        for (dst, r) in self.routes.iter_mut() {
            if r.valid && r.next_hop == next_hop {
                r.valid = false;
                r.dst_seq = r.dst_seq.wrapping_add(1);
                out.push((*dst, r.dst_seq));
            }
        }
        out.sort_by_key(|(d, _)| d.0);
        out
    }

    /// Process one RERR item from neighbour `from`: invalidate our route
    /// to `dst` if it runs through `from`. Returns the bumped pair when a
    /// route died (to forward the error).
    pub fn invalidate_from_rerr(
        &mut self,
        dst: NodeId,
        reported_seq: u32,
        from: NodeId,
    ) -> Option<(NodeId, u32)> {
        let r = self.routes.get_mut(&dst)?;
        if r.valid && r.next_hop == from {
            r.valid = false;
            if seq_newer(reported_seq, r.dst_seq) {
                r.dst_seq = reported_seq;
            }
            Some((dst, r.dst_seq))
        } else {
            None
        }
    }

    /// Last known sequence number for `dst` (valid or not).
    pub fn known_seq(&self, dst: NodeId) -> Option<u32> {
        self.routes.get(&dst).map(|r| r.dst_seq)
    }

    /// Number of entries (diagnostics).
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// `true` when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

mod snap {
    use super::{Route, RouteTable};

    pcmac_snap::snap_struct!(Route {
        next_hop,
        hop_count,
        dst_seq,
        valid,
        expires,
    });

    pcmac_snap::snap_struct!(RouteTable { routes });
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIFE: Duration = Duration::from_secs(10);

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + Duration::from_secs(s)
    }

    #[test]
    fn lookup_finds_fresh_valid_routes_only() {
        let mut rt = RouteTable::new();
        rt.offer(NodeId(5), NodeId(2), 3, 10, LIFE, t(0));
        assert!(rt.lookup(NodeId(5), t(1)).is_some());
        assert!(rt.lookup(NodeId(5), t(10)).is_none(), "expired");
        assert!(rt.lookup(NodeId(6), t(1)).is_none(), "unknown");
    }

    #[test]
    fn fresher_sequence_replaces_route() {
        let mut rt = RouteTable::new();
        rt.offer(NodeId(5), NodeId(2), 3, 10, LIFE, t(0));
        assert!(rt.offer(NodeId(5), NodeId(3), 5, 11, LIFE, t(0)));
        let r = rt.lookup(NodeId(5), t(1)).unwrap();
        assert_eq!(r.next_hop, NodeId(3));
        assert_eq!(r.dst_seq, 11);
    }

    #[test]
    fn stale_sequence_is_rejected() {
        let mut rt = RouteTable::new();
        rt.offer(NodeId(5), NodeId(2), 3, 10, LIFE, t(0));
        assert!(!rt.offer(NodeId(5), NodeId(3), 1, 9, LIFE, t(0)));
        assert_eq!(rt.lookup(NodeId(5), t(1)).unwrap().next_hop, NodeId(2));
    }

    #[test]
    fn equal_seq_takes_shorter_path() {
        let mut rt = RouteTable::new();
        rt.offer(NodeId(5), NodeId(2), 3, 10, LIFE, t(0));
        assert!(rt.offer(NodeId(5), NodeId(4), 2, 10, LIFE, t(0)));
        assert_eq!(rt.lookup(NodeId(5), t(1)).unwrap().next_hop, NodeId(4));
        assert!(!rt.offer(NodeId(5), NodeId(9), 4, 10, LIFE, t(0)));
    }

    #[test]
    fn invalid_route_accepts_any_offer() {
        let mut rt = RouteTable::new();
        rt.offer(NodeId(5), NodeId(2), 3, 10, LIFE, t(0));
        rt.invalidate_via(NodeId(2));
        assert!(rt.lookup(NodeId(5), t(1)).is_none());
        // Even an equal-seq offer revives it.
        assert!(rt.offer(NodeId(5), NodeId(3), 6, 11, LIFE, t(1)));
        assert!(rt.lookup(NodeId(5), t(2)).is_some());
    }

    #[test]
    fn invalidate_via_bumps_sequences() {
        let mut rt = RouteTable::new();
        rt.offer(NodeId(5), NodeId(2), 3, 10, LIFE, t(0));
        rt.offer(NodeId(6), NodeId(2), 4, 20, LIFE, t(0));
        rt.offer(NodeId(7), NodeId(3), 2, 30, LIFE, t(0));
        let dead = rt.invalidate_via(NodeId(2));
        assert_eq!(dead, vec![(NodeId(5), 11), (NodeId(6), 21)]);
        assert!(
            rt.lookup(NodeId(7), t(1)).is_some(),
            "other next hop survives"
        );
    }

    #[test]
    fn rerr_invalidates_matching_next_hop_only() {
        let mut rt = RouteTable::new();
        rt.offer(NodeId(5), NodeId(2), 3, 10, LIFE, t(0));
        assert!(rt.invalidate_from_rerr(NodeId(5), 12, NodeId(3)).is_none());
        let bumped = rt.invalidate_from_rerr(NodeId(5), 12, NodeId(2));
        assert_eq!(bumped, Some((NodeId(5), 12)));
        assert!(rt.lookup(NodeId(5), t(1)).is_none());
    }

    #[test]
    fn refresh_extends_lifetime() {
        let mut rt = RouteTable::new();
        rt.offer(NodeId(5), NodeId(2), 3, 10, LIFE, t(0));
        rt.refresh(NodeId(5), LIFE, t(5));
        assert!(rt.lookup(NodeId(5), t(12)).is_some(), "refreshed to t=15");
    }

    #[test]
    fn refresh_ignores_invalid_routes() {
        let mut rt = RouteTable::new();
        rt.offer(NodeId(5), NodeId(2), 3, 10, LIFE, t(0));
        rt.invalidate_via(NodeId(2));
        rt.refresh(NodeId(5), LIFE, t(1));
        assert!(rt.lookup(NodeId(5), t(2)).is_none());
    }
}
