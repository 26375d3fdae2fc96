//! Traffic sources.
//!
//! A source answers one question for the simulation core: "given that I
//! just emitted (or am starting), when is my next packet and what does it
//! look like?" The core schedules accordingly, so sources stay free of
//! event-queue plumbing and are directly unit-testable.

use pcmac_engine::{Duration, FlowId, NodeId, PacketId, RngStream, SimTime};
use pcmac_net::Packet;

/// A packet generator for one flow.
pub trait Source {
    /// The flow this source feeds.
    fn flow(&self) -> FlowId;
    /// Network-layer source address.
    fn src(&self) -> NodeId;
    /// When the next packet should be emitted, or `None` when the flow has
    /// finished. Monotone non-decreasing across calls.
    fn next_time(&mut self) -> Option<SimTime>;
    /// Build the packet for the emission at `now`.
    fn emit(&mut self, now: SimTime) -> Packet;
    /// Total packets emitted so far.
    fn emitted(&self) -> u64;
}

fn traffic_packet_id(flow: FlowId, counter: u64) -> PacketId {
    // Namespace 1 (traffic), then flow, then counter: unique network-wide.
    PacketId((1 << 56) | ((flow.0 as u64) << 32) | counter)
}

/// Constant bit rate over UDP: one `bytes`-sized packet every `interval`.
#[derive(Debug, Clone)]
pub struct CbrSource {
    flow: FlowId,
    src: NodeId,
    dst: NodeId,
    bytes: u32,
    interval: Duration,
    stop: SimTime,
    next: SimTime,
    count: u64,
}

impl CbrSource {
    /// A CBR flow of `rate_bps` application bits per second in
    /// `bytes`-sized packets, active on `[start, stop)`.
    pub fn new(
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        bytes: u32,
        rate_bps: f64,
        start: SimTime,
        stop: SimTime,
    ) -> Self {
        assert!(rate_bps > 0.0 && bytes > 0);
        let interval = Duration::from_secs_f64(bytes as f64 * 8.0 / rate_bps);
        CbrSource {
            flow,
            src,
            dst,
            bytes,
            interval,

            stop,
            next: start,
            count: 0,
        }
    }

    /// The emission interval.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Destination of the flow.
    pub fn dst(&self) -> NodeId {
        self.dst
    }
}

impl Source for CbrSource {
    fn flow(&self) -> FlowId {
        self.flow
    }

    fn src(&self) -> NodeId {
        self.src
    }

    fn next_time(&mut self) -> Option<SimTime> {
        (self.next < self.stop).then_some(self.next)
    }

    fn emit(&mut self, now: SimTime) -> Packet {
        debug_assert_eq!(now, self.next);
        let p = Packet::data(
            traffic_packet_id(self.flow, self.count),
            self.flow,
            self.src,
            self.dst,
            self.bytes,
            now,
        );
        self.count += 1;
        self.next += self.interval;
        p
    }

    fn emitted(&self) -> u64 {
        self.count
    }
}

/// Poisson arrivals: exponential inter-packet gaps with the same mean rate
/// as the equivalent CBR flow.
#[derive(Debug, Clone)]
pub struct PoissonSource {
    flow: FlowId,
    src: NodeId,
    dst: NodeId,
    bytes: u32,
    mean_interval: f64,
    stop: SimTime,
    next: SimTime,
    count: u64,
    rng: RngStream,
}

impl PoissonSource {
    /// A Poisson flow averaging `rate_bps` in `bytes`-sized packets.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        bytes: u32,
        rate_bps: f64,
        start: SimTime,
        stop: SimTime,
        mut rng: RngStream,
    ) -> Self {
        let mean_interval = bytes as f64 * 8.0 / rate_bps;
        let first = start + Duration::from_secs_f64(rng.exponential(mean_interval));
        PoissonSource {
            flow,
            src,
            dst,
            bytes,
            mean_interval,
            stop,
            next: first,
            count: 0,
            rng,
        }
    }
}

impl Source for PoissonSource {
    fn flow(&self) -> FlowId {
        self.flow
    }

    fn src(&self) -> NodeId {
        self.src
    }

    fn next_time(&mut self) -> Option<SimTime> {
        (self.next < self.stop).then_some(self.next)
    }

    fn emit(&mut self, now: SimTime) -> Packet {
        let p = Packet::data(
            traffic_packet_id(self.flow, self.count),
            self.flow,
            self.src,
            self.dst,
            self.bytes,
            now,
        );
        self.count += 1;
        self.next = now + Duration::from_secs_f64(self.rng.exponential(self.mean_interval));
        p
    }

    fn emitted(&self) -> u64 {
        self.count
    }
}

/// On/off bursts: exponentially-distributed on and off periods; CBR at
/// `peak_rate_bps` during on periods.
#[derive(Debug, Clone)]
pub struct OnOffSource {
    inner: CbrSource,
    mean_on: f64,
    mean_off: f64,
    phase_end: SimTime,
    on: bool,
    stop: SimTime,
    rng: RngStream,
}

impl OnOffSource {
    /// Build with mean on/off durations in seconds.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        bytes: u32,
        peak_rate_bps: f64,
        mean_on_s: f64,
        mean_off_s: f64,
        start: SimTime,
        stop: SimTime,
        mut rng: RngStream,
    ) -> Self {
        let first_on = Duration::from_secs_f64(rng.exponential(mean_on_s));
        OnOffSource {
            inner: CbrSource::new(flow, src, dst, bytes, peak_rate_bps, start, stop),
            mean_on: mean_on_s,
            mean_off: mean_off_s,
            phase_end: start + first_on,
            on: true,
            stop,
            rng,
        }
    }
}

impl Source for OnOffSource {
    fn flow(&self) -> FlowId {
        self.inner.flow()
    }

    fn src(&self) -> NodeId {
        self.inner.src()
    }

    fn next_time(&mut self) -> Option<SimTime> {
        loop {
            let next = self.inner.next_time()?;
            if next >= self.stop {
                return None;
            }
            if next < self.phase_end {
                if self.on {
                    return Some(next);
                }
                // Off phase: skip emissions up to the phase end.
                self.inner.next = self.phase_end;
                continue;
            }
            // Phase rollover.
            self.on = !self.on;
            let mean = if self.on { self.mean_on } else { self.mean_off };
            self.phase_end += Duration::from_secs_f64(self.rng.exponential(mean));
        }
    }

    fn emit(&mut self, now: SimTime) -> Packet {
        self.inner.emit(now)
    }

    fn emitted(&self) -> u64 {
        self.inner.emitted()
    }
}

mod snap {
    //! Checkpoint capture of traffic sources: emission counters, next-emit
    //! instants and (for the stochastic sources) the RNG position, so the
    //! post-restore emission schedule continues the original sequence.

    use super::{CbrSource, OnOffSource, PoissonSource};

    pcmac_snap::snap_struct!(CbrSource {
        flow,
        src,
        dst,
        bytes,
        interval,
        stop,
        next,
        count,
    });

    pcmac_snap::snap_struct!(PoissonSource {
        flow,
        src,
        dst,
        bytes,
        mean_interval,
        stop,
        next,
        count,
        rng,
    });

    pcmac_snap::snap_struct!(OnOffSource {
        inner,
        mean_on,
        mean_off,
        phase_end,
        on,
        stop,
        rng,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn cbr_interval_matches_rate() {
        // 512 B at 40.96 kbps → exactly 100 ms.
        let c = CbrSource::new(
            FlowId(0),
            NodeId(1),
            NodeId(2),
            512,
            40_960.0,
            t(0.0),
            t(10.0),
        );
        assert_eq!(c.interval(), Duration::from_millis(100));
    }

    #[test]
    fn cbr_emits_metronomically() {
        let mut c = CbrSource::new(
            FlowId(0),
            NodeId(1),
            NodeId(2),
            512,
            40_960.0,
            t(0.0),
            t(1.0),
        );
        let mut times = Vec::new();
        while let Some(at) = c.next_time() {
            times.push(at);
            let p = c.emit(at);
            assert_eq!(p.src, NodeId(1));
            assert_eq!(p.dst, NodeId(2));
            assert_eq!(p.created_at, at);
        }
        assert_eq!(times.len(), 10, "10 packets in 1 s at 100 ms spacing");
        assert_eq!(times[0], t(0.0));
        assert_eq!(times[9], t(0.9));
        assert_eq!(c.emitted(), 10);
    }

    #[test]
    fn cbr_stops_at_stop_time() {
        let mut c = CbrSource::new(
            FlowId(0),
            NodeId(1),
            NodeId(2),
            512,
            40_960.0,
            t(0.0),
            t(0.25),
        );
        let mut n = 0;
        while let Some(at) = c.next_time() {
            c.emit(at);
            n += 1;
        }
        assert_eq!(n, 3, "emissions at 0, 0.1, 0.2 only");
    }

    #[test]
    fn packet_ids_are_unique_across_flows() {
        let mut a = CbrSource::new(FlowId(1), NodeId(1), NodeId(2), 512, 1e5, t(0.0), t(1.0));
        let mut b = CbrSource::new(FlowId(2), NodeId(3), NodeId(4), 512, 1e5, t(0.0), t(1.0));
        let ta = a.next_time().unwrap();
        let tb = b.next_time().unwrap();
        assert_ne!(a.emit(ta).id, b.emit(tb).id);
    }

    #[test]
    fn poisson_mean_rate_is_close() {
        let rng = RngStream::derive(5, "poisson-test");
        let mut p = PoissonSource::new(
            FlowId(0),
            NodeId(1),
            NodeId(2),
            512,
            40_960.0, // mean interval 100 ms
            t(0.0),
            t(200.0),
            rng,
        );
        let mut n = 0u64;
        while let Some(at) = p.next_time() {
            p.emit(at);
            n += 1;
        }
        // Expect ~2000 emissions; allow 10%.
        assert!((1800..2200).contains(&n), "poisson count {n}");
    }

    #[test]
    fn onoff_emits_less_than_pure_cbr() {
        let rng = RngStream::derive(6, "onoff-test");
        let mut s = OnOffSource::new(
            FlowId(0),
            NodeId(1),
            NodeId(2),
            512,
            40_960.0,
            1.0,
            1.0,
            t(0.0),
            t(100.0),
            rng,
        );
        let mut n = 0u64;
        while let Some(at) = s.next_time() {
            s.emit(at);
            n += 1;
        }
        // Pure CBR would emit 1000; 50% duty cycle should roughly halve it.
        assert!(
            n < 800,
            "on/off duty cycle must suppress emissions, got {n}"
        );
        assert!(n > 200, "but the flow must not starve, got {n}");
    }

    #[test]
    fn emission_times_are_monotone() {
        let rng = RngStream::derive(7, "monotone-test");
        let mut s = PoissonSource::new(
            FlowId(0),
            NodeId(1),
            NodeId(2),
            512,
            1e5,
            t(0.0),
            t(50.0),
            rng,
        );
        let mut last = SimTime::ZERO;
        while let Some(at) = s.next_time() {
            assert!(at >= last);
            last = at;
            s.emit(at);
        }
    }
}
