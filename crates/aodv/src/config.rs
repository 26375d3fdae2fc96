//! AODV parameters.

use pcmac_engine::Duration;
use serde::Serialize;

/// Tunable constants of the routing agent. Defaults follow the CMU ns-2
/// AODV module of the paper's era (link-layer failure detection, 10 s
/// active route lifetime) with RFC 3561 shapes elsewhere.
#[derive(Debug, Clone, Serialize)]
pub struct AodvConfig {
    /// Lifetime of an actively-used route before it must be refreshed.
    pub active_route_timeout: Duration,
    /// How long a (origin, rreq-id) pair suppresses duplicate floods.
    pub rreq_cache_timeout: Duration,
    /// Wait for an RREP before retrying a discovery.
    pub rreq_wait: Duration,
    /// Discovery attempts before declaring the destination unreachable.
    pub rreq_retries: u8,
    /// Send-buffer capacity (packets awaiting discovery).
    pub buffer_capacity: usize,
    /// Maximum time a packet may wait in the send buffer.
    pub buffer_timeout: Duration,
    /// TTL for flooded RREQs (network-wide; no expanding ring).
    pub rreq_ttl: u8,
}

impl Default for AodvConfig {
    fn default() -> Self {
        AodvConfig {
            active_route_timeout: Duration::from_secs(10),
            rreq_cache_timeout: Duration::from_secs(6),
            rreq_wait: Duration::from_millis(1000),
            rreq_retries: 3,
            buffer_capacity: 64,
            buffer_timeout: Duration::from_secs(30),
            rreq_ttl: 32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = AodvConfig::default();
        assert!(c.rreq_retries >= 1);
        assert!(c.buffer_capacity > 0);
        assert!(c.active_route_timeout > c.rreq_wait);
        assert!(c.buffer_timeout > c.rreq_wait * c.rreq_retries as u64);
    }
}
