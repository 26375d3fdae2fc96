//! Per-node MAC statistics counters.

use serde::{Deserialize, Serialize};

/// Event counts collected by one node's MAC. The run report aggregates
/// these across nodes to explain *why* a protocol wins (retransmissions,
/// collisions heard, control-channel deferrals).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct MacCounters {
    /// RTS frames transmitted.
    pub rts_sent: u64,
    /// CTS frames transmitted.
    pub cts_sent: u64,
    /// Unicast DATA frames transmitted (including retries).
    pub data_sent: u64,
    /// Broadcast DATA frames transmitted.
    pub broadcast_sent: u64,
    /// ACK frames transmitted.
    pub ack_sent: u64,
    /// CTS timeouts (RTS attempt failed).
    pub cts_timeouts: u64,
    /// ACK timeouts (DATA attempt failed).
    pub ack_timeouts: u64,
    /// Packets dropped after exhausting retries.
    pub retry_drops: u64,
    /// Packets rejected by the full interface queue.
    pub queue_drops: u64,
    /// Frames delivered to the upper layer.
    pub delivered: u64,
    /// Duplicate data frames suppressed at the receiver.
    pub duplicates: u64,
    /// Corrupted receptions observed (collision indicator).
    pub rx_errors: u64,
    /// PCMAC: implicit-ack retransmissions triggered by CTS echo mismatch.
    pub implicit_retx: u64,
    /// PCMAC: stored copies abandoned after the retransmission cap.
    pub implicit_give_ups: u64,
    /// PCMAC: tolerance broadcasts sent on the control channel.
    pub ctrl_broadcasts: u64,
    /// PCMAC: transmission attempts deferred by the tolerance check.
    pub ctrl_deferrals: u64,
    /// PCMAC: power classes stepped up after CTS timeouts.
    pub power_step_ups: u64,
}

impl MacCounters {
    /// Element-wise accumulation (for network-wide aggregation).
    pub fn merge(&mut self, other: &MacCounters) {
        self.rts_sent += other.rts_sent;
        self.cts_sent += other.cts_sent;
        self.data_sent += other.data_sent;
        self.broadcast_sent += other.broadcast_sent;
        self.ack_sent += other.ack_sent;
        self.cts_timeouts += other.cts_timeouts;
        self.ack_timeouts += other.ack_timeouts;
        self.retry_drops += other.retry_drops;
        self.queue_drops += other.queue_drops;
        self.delivered += other.delivered;
        self.duplicates += other.duplicates;
        self.rx_errors += other.rx_errors;
        self.implicit_retx += other.implicit_retx;
        self.implicit_give_ups += other.implicit_give_ups;
        self.ctrl_broadcasts += other.ctrl_broadcasts;
        self.ctrl_deferrals += other.ctrl_deferrals;
        self.power_step_ups += other.power_step_ups;
    }
}

mod snap {
    use super::MacCounters;

    pcmac_snap::snap_struct!(MacCounters {
        rts_sent,
        cts_sent,
        data_sent,
        broadcast_sent,
        ack_sent,
        cts_timeouts,
        ack_timeouts,
        retry_drops,
        queue_drops,
        delivered,
        duplicates,
        rx_errors,
        implicit_retx,
        implicit_give_ups,
        ctrl_broadcasts,
        ctrl_deferrals,
        power_step_ups,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = MacCounters {
            rts_sent: 2,
            delivered: 5,
            ..Default::default()
        };
        let b = MacCounters {
            rts_sent: 3,
            rx_errors: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.rts_sent, 5);
        assert_eq!(a.delivered, 5);
        assert_eq!(a.rx_errors, 7);
    }
}
