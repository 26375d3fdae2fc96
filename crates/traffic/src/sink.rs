//! The measuring end of a flow.
//!
//! Sinks compute exactly the two quantities the paper's evaluation plots:
//! delivered application bytes (→ aggregate network throughput, Fig. 8)
//! and end-to-end packet delay (→ average delay, Fig. 9).
//!
//! Every station has a sink, and in a large field few of them are ever
//! a flow's destination. So a sink's flow table and delay histogram sit
//! behind one box that its first delivery allocates: until then a sink
//! is one empty pointer, and it reads and checkpoints as an empty one.

use pcmac_engine::{Duration, FlowId, SimTime, VecMap};
use pcmac_net::{Packet, Payload};
use pcmac_stats::Histogram;

/// Delay histogram geometry shared by all sinks so network-wide merging
/// works: 10 ms buckets out to 10 s.
const DELAY_BUCKET_MS: f64 = 10.0;
const DELAY_BUCKETS: usize = 1000;

/// Per-flow delivery statistics.
#[derive(Debug, Clone, Default)]
pub struct FlowStats {
    /// Packets delivered.
    pub received: u64,
    /// Application (UDP payload) bytes delivered.
    pub bytes: u64,
    /// Sum of end-to-end delays (for the mean).
    delay_sum: Duration,
    /// Worst delay seen.
    pub max_delay: Duration,
}

impl FlowStats {
    /// Mean end-to-end delay, if anything arrived.
    pub fn mean_delay(&self) -> Option<Duration> {
        (self.received > 0).then(|| self.delay_sum / self.received)
    }

    /// Total of all recorded delays (exact cross-node aggregation).
    pub fn delay_sum(&self) -> Duration {
        self.delay_sum
    }
}

/// What a sink holds once something was delivered to it.
#[derive(Debug, Clone)]
struct Deliveries {
    flows: VecMap<FlowId, FlowStats>,
    delay_hist: Histogram,
}

impl Deliveries {
    fn new() -> Self {
        Deliveries {
            flows: VecMap::new(),
            delay_hist: Histogram::new(DELAY_BUCKET_MS, DELAY_BUCKETS),
        }
    }

    /// `true` when nothing here differs from [`Deliveries::new`].
    fn is_blank(&self) -> bool {
        self.flows.is_empty() && self.delay_hist.total() == 0
    }
}

/// Collects deliveries at a destination node.
#[derive(Debug, Clone, Default)]
pub struct Sink {
    /// `None` until the first delivery.
    deliveries: Option<Box<Deliveries>>,
}

impl Sink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a delivered data packet at time `now`.
    pub fn deliver(&mut self, packet: &Packet, now: SimTime) {
        let Payload::Data { bytes } = packet.payload else {
            return; // routing control is not application traffic
        };
        let Some(flow) = packet.flow else { return };
        let delay = now.saturating_since(packet.created_at);
        let d = self
            .deliveries
            .get_or_insert_with(|| Box::new(Deliveries::new()));
        let s = d.flows.get_or_insert_with(flow, FlowStats::default);
        s.received += 1;
        s.bytes += bytes as u64;
        s.delay_sum += delay;
        s.max_delay = s.max_delay.max(delay);
        d.delay_hist.record(delay.as_millis_f64());
    }

    /// The delay distribution (ms buckets) across all flows at this sink,
    /// `None` before the first delivery; geometry is shared by every sink
    /// so histograms merge network-wide.
    pub fn delay_histogram(&self) -> Option<&Histogram> {
        self.deliveries.as_ref().map(|d| &d.delay_hist)
    }

    /// Stats for one flow.
    pub fn flow(&self, flow: FlowId) -> Option<&FlowStats> {
        self.deliveries.as_ref()?.flows.get(&flow)
    }

    /// Iterate all flows.
    pub fn flows(&self) -> impl Iterator<Item = (&FlowId, &FlowStats)> {
        self.deliveries.iter().flat_map(|d| d.flows.iter())
    }

    /// Total delivered packets.
    pub fn total_received(&self) -> u64 {
        self.flows().map(|(_, f)| f.received).sum()
    }

    /// Total delivered application bytes.
    pub fn total_bytes(&self) -> u64 {
        self.flows().map(|(_, f)| f.bytes).sum()
    }

    /// Mean end-to-end delay across all delivered packets.
    pub fn mean_delay(&self) -> Option<Duration> {
        let n = self.total_received();
        if n == 0 {
            return None;
        }
        let sum_ns: u64 = self.flows().map(|(_, f)| f.delay_sum.as_nanos()).sum();
        Some(Duration::from_nanos(sum_ns / n))
    }
}

mod snap {
    use super::{Deliveries, FlowStats, Sink};
    use pcmac_snap::{Snap, SnapError, SnapReader, SnapWriter};

    pcmac_snap::snap_struct!(FlowStats {
        received,
        bytes,
        delay_sum,
        max_delay,
    });

    /// A sink that never had a delivery writes the bytes of an empty
    /// flow table and histogram, and reading those back allocates
    /// nothing.
    impl Snap for Sink {
        fn save(&self, w: &mut SnapWriter) {
            let blank;
            let d = match &self.deliveries {
                Some(d) => &**d,
                None => {
                    blank = Deliveries::new();
                    &blank
                }
            };
            d.flows.save(w);
            d.delay_hist.save(w);
        }

        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            let d = Deliveries {
                flows: Snap::load(r)?,
                delay_hist: Snap::load(r)?,
            };
            Ok(Sink {
                deliveries: (!d.is_blank()).then(|| Box::new(d)),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmac_engine::{NodeId, PacketId};

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + Duration::from_millis(ms)
    }

    fn pkt(flow: u32, n: u64, created_ms: u64) -> Packet {
        Packet::data(
            PacketId(n),
            FlowId(flow),
            NodeId(1),
            NodeId(2),
            512,
            t(created_ms),
        )
    }

    #[test]
    fn records_bytes_and_delay() {
        let mut s = Sink::new();
        s.deliver(&pkt(0, 1, 0), t(50));
        s.deliver(&pkt(0, 2, 100), t(250));
        let f = s.flow(FlowId(0)).unwrap();
        assert_eq!(f.received, 2);
        assert_eq!(f.bytes, 1024);
        assert_eq!(f.mean_delay().unwrap(), Duration::from_millis(100));
        assert_eq!(f.max_delay, Duration::from_millis(150));
    }

    #[test]
    fn separates_flows() {
        let mut s = Sink::new();
        s.deliver(&pkt(0, 1, 0), t(10));
        s.deliver(&pkt(1, 2, 0), t(30));
        assert_eq!(s.flow(FlowId(0)).unwrap().received, 1);
        assert_eq!(s.flow(FlowId(1)).unwrap().received, 1);
        assert_eq!(s.total_received(), 2);
        assert_eq!(s.total_bytes(), 1024);
    }

    #[test]
    fn aggregate_mean_weighs_all_packets() {
        let mut s = Sink::new();
        s.deliver(&pkt(0, 1, 0), t(10)); // 10 ms
        s.deliver(&pkt(1, 2, 0), t(50)); // 50 ms
        s.deliver(&pkt(1, 3, 0), t(60)); // 60 ms
        assert_eq!(s.mean_delay().unwrap(), Duration::from_millis(40));
    }

    #[test]
    fn empty_sink_has_no_delay() {
        let s = Sink::new();
        assert!(s.mean_delay().is_none());
        assert!(s.delay_histogram().is_none());
        assert_eq!(s.total_received(), 0);
    }

    #[test]
    fn checkpoint_bytes_do_not_show_when_the_box_was_allocated() {
        use pcmac_snap::{Snap, SnapReader, SnapWriter};
        let bytes = |s: &Sink| {
            let mut w = SnapWriter::new();
            s.save(&mut w);
            w.finish()
        };
        // An empty sink writes an empty flow table and the shared
        // geometry's empty histogram.
        let mut w = SnapWriter::new();
        VecMap::<FlowId, FlowStats>::new().save(&mut w);
        Histogram::new(DELAY_BUCKET_MS, DELAY_BUCKETS).save(&mut w);
        let blank = Sink::new();
        assert_eq!(bytes(&blank), w.finish());
        let back = Sink::load(&mut SnapReader::open(&bytes(&blank)).unwrap()).unwrap();
        assert!(
            back.deliveries.is_none(),
            "a blank sink loads without its box"
        );

        let mut s = Sink::new();
        s.deliver(&pkt(0, 1, 0), t(40));
        s.deliver(&pkt(3, 2, 10), t(1500));
        let back = Sink::load(&mut SnapReader::open(&bytes(&s)).unwrap()).unwrap();
        assert_eq!(bytes(&back), bytes(&s));
        assert_eq!(back.total_received(), 2);
    }

    #[test]
    fn delay_histogram_tracks_percentiles() {
        let mut s = Sink::new();
        // 9 fast packets (≤10 ms) and 1 slow (1 s).
        for n in 0..9 {
            s.deliver(&pkt(0, n, 0), t(5));
        }
        s.deliver(&pkt(0, 99, 0), t(1000));
        let h = s.delay_histogram().expect("delivered");
        assert_eq!(h.total(), 10);
        assert_eq!(h.quantile(0.5), Some(10.0), "median in first bucket");
        // 1000 ms lands in bucket [1000, 1010) → upper edge 1010.
        assert_eq!(h.quantile(1.0), Some(1010.0), "tail sees the slow one");
    }

    #[test]
    fn routing_packets_are_not_traffic() {
        use pcmac_net::Rrep;
        let mut s = Sink::new();
        let ctrl = Packet::control(
            PacketId(9),
            NodeId(1),
            NodeId(2),
            t(0),
            Payload::Rrep(Rrep {
                origin: NodeId(1),
                target: NodeId(2),
                target_seq: 0,
                hop_count: 0,
            }),
        );
        s.deliver(&ctrl, t(10));
        assert_eq!(s.total_received(), 0);
    }
}
