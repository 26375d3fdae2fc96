//! Traffic sources.
//!
//! A source answers one question for the simulation core: "given that I
//! just emitted (or am starting), when is my next packet and what does it
//! look like?" The core schedules accordingly, so sources stay free of
//! event-queue plumbing and are directly unit-testable.
//!
//! [`Source`] is one concrete type: the fields every flow has (addresses,
//! packet size, stop time, next emission, emission count) and its arrival
//! process — constant bit rate, Poisson, or on/off bursts of CBR.

use pcmac_engine::{Duration, FlowId, NodeId, PacketId, RngStream, SimTime};
use pcmac_net::Packet;

/// A packet generator for one flow.
#[derive(Debug, Clone)]
pub struct Source {
    flow: FlowId,
    src: NodeId,
    dst: NodeId,
    bytes: u32,
    stop: SimTime,
    next: SimTime,
    count: u64,
    arrivals: Arrivals,
}

/// When a flow's packets leave the application.
#[derive(Debug, Clone)]
enum Arrivals {
    /// One packet every `interval`.
    Cbr { interval: Duration },
    /// Exponential gaps of mean `mean_interval` seconds.
    Poisson { mean_interval: f64, rng: RngStream },
    /// CBR at `interval` during exponential on phases (mean `mean_on`
    /// seconds), silence during exponential off phases (mean `mean_off`);
    /// the current phase ends at `phase_end`.
    OnOff {
        interval: Duration,
        mean_on: f64,
        mean_off: f64,
        phase_end: SimTime,
        on: bool,
        rng: RngStream,
    },
}

fn traffic_packet_id(flow: FlowId, counter: u64) -> PacketId {
    // Namespace 1 (traffic), then flow, then counter: unique network-wide.
    PacketId((1 << 56) | ((flow.0 as u64) << 32) | counter)
}

fn cbr_interval(bytes: u32, rate_bps: f64) -> Duration {
    assert!(rate_bps > 0.0 && bytes > 0);
    Duration::from_secs_f64(bytes as f64 * 8.0 / rate_bps)
}

impl Source {
    /// Constant bit rate over UDP: a flow of `rate_bps` application bits
    /// per second in `bytes`-sized packets, active on `[start, stop)` —
    /// the paper's workload.
    pub fn cbr(
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        bytes: u32,
        rate_bps: f64,
        start: SimTime,
        stop: SimTime,
    ) -> Self {
        let interval = cbr_interval(bytes, rate_bps);
        Source::with(
            flow,
            src,
            dst,
            bytes,
            start,
            stop,
            Arrivals::Cbr { interval },
        )
    }

    /// Poisson arrivals: exponential inter-packet gaps with the mean rate
    /// of the equivalent CBR flow; the first packet leaves one gap after
    /// `start`.
    #[allow(clippy::too_many_arguments)]
    pub fn poisson(
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
        let arrivals = Arrivals::Poisson { mean_interval, rng };
        Source::with(flow, src, dst, bytes, first, stop, arrivals)
    }

    /// On/off bursts: CBR at `peak_rate_bps` during exponential on
    /// phases of mean `mean_on_s` seconds, nothing during exponential off
    /// phases of mean `mean_off_s`, starting on at `start`.
    #[allow(clippy::too_many_arguments)]
    pub fn on_off(
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
        let arrivals = Arrivals::OnOff {
            interval: cbr_interval(bytes, peak_rate_bps),
            mean_on: mean_on_s,
            mean_off: mean_off_s,
            phase_end: start + first_on,
            on: true,
            rng,
        };
        Source::with(flow, src, dst, bytes, start, stop, arrivals)
    }

    fn with(
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        bytes: u32,
        next: SimTime,
        stop: SimTime,
        arrivals: Arrivals,
    ) -> Self {
        Source {
            flow,
            src,
            dst,
            bytes,
            stop,
            next,
            count: 0,
            arrivals,
        }
    }

    /// The flow this source feeds.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// When the next packet should be emitted, or `None` when the flow has
    /// finished. Monotone non-decreasing across calls.
    pub fn next_time(&mut self) -> Option<SimTime> {
        if let Arrivals::OnOff {
            mean_on,
            mean_off,
            phase_end,
            on,
            rng,
            ..
        } = &mut self.arrivals
        {
            while self.next < self.stop {
                if self.next >= *phase_end {
                    // Phase rollover.
                    *on = !*on;
                    let mean = if *on { *mean_on } else { *mean_off };
                    *phase_end += Duration::from_secs_f64(rng.exponential(mean));
                } else if *on {
                    break;
                } else {
                    // Off phase: skip emissions up to the phase end.
                    self.next = *phase_end;
                }
            }
        }
        (self.next < self.stop).then_some(self.next)
    }

    /// Build the packet for the emission at `now`.
    pub fn emit(&mut self, now: SimTime) -> Packet {
        let p = Packet::data(
            traffic_packet_id(self.flow, self.count),
            self.flow,
            self.src,
            self.dst,
            self.bytes,
            now,
        );
        self.count += 1;
        self.next = match &mut self.arrivals {
            Arrivals::Cbr { interval } | Arrivals::OnOff { interval, .. } => {
                debug_assert_eq!(now, self.next);
                self.next + *interval
            }
            Arrivals::Poisson { mean_interval, rng } => {
                now + Duration::from_secs_f64(rng.exponential(*mean_interval))
            }
        };
        p
    }

    /// Total packets emitted so far.
    pub fn emitted(&self) -> u64 {
        self.count
    }
}

mod snap {
    //! Checkpoint capture of traffic sources: what changes as a flow
    //! runs — the next emission instant, the emission count and the
    //! arrival process's run state (nothing for CBR; the RNG position for
    //! Poisson; the phase end, the phase and the RNG position for on/off)
    //! — so the post-restore emission schedule continues the original
    //! sequence. The flow, its endpoints, packet size, stop time and rate
    //! are the scenario's and stay with the source it builds.

    use super::{Arrivals, Source};
    use pcmac_snap::{Snap, SnapError, SnapReader, SnapWriter};

    impl Source {
        /// Serialize the run-time state.
        pub fn save_state(&self, w: &mut SnapWriter) {
            self.next.save(w);
            self.count.save(w);
            match &self.arrivals {
                Arrivals::Cbr { .. } => {}
                Arrivals::Poisson { rng, .. } => rng.save(w),
                Arrivals::OnOff {
                    phase_end, on, rng, ..
                } => {
                    phase_end.save(w);
                    on.save(w);
                    rng.save(w);
                }
            }
        }

        /// Overwrite the run-time state of a source built from the same
        /// flow with captured state; the flow's configuration keeps its
        /// built values.
        pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
            self.next = Snap::load(r)?;
            self.count = Snap::load(r)?;
            match &mut self.arrivals {
                Arrivals::Cbr { .. } => {}
                Arrivals::Poisson { rng, .. } => *rng = Snap::load(r)?,
                Arrivals::OnOff {
                    phase_end, on, rng, ..
                } => {
                    *phase_end = Snap::load(r)?;
                    *on = Snap::load(r)?;
                    *rng = Snap::load(r)?;
                }
            }
            Ok(())
        }
    }
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
        let mut c = Source::cbr(
            FlowId(0),
            NodeId(1),
            NodeId(2),
            512,
            40_960.0,
            t(0.0),
            t(10.0),
        );
        let first = c.next_time().unwrap();
        c.emit(first);
        assert_eq!(c.next_time().unwrap() - first, Duration::from_millis(100));
    }

    #[test]
    fn cbr_emits_metronomically() {
        let mut c = Source::cbr(
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
        let mut c = Source::cbr(
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
        let mut a = Source::cbr(FlowId(1), NodeId(1), NodeId(2), 512, 1e5, t(0.0), t(1.0));
        let mut b = Source::cbr(FlowId(2), NodeId(3), NodeId(4), 512, 1e5, t(0.0), t(1.0));
        let ta = a.next_time().unwrap();
        let tb = b.next_time().unwrap();
        assert_ne!(a.emit(ta).id, b.emit(tb).id);
    }

    #[test]
    fn poisson_mean_rate_is_close() {
        let rng = RngStream::derive(5, "poisson-test");
        let mut p = Source::poisson(
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
        let mut s = Source::on_off(
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
        let mut s = Source::poisson(
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

    fn saved(s: &Source) -> Vec<u8> {
        let mut w = pcmac_snap::SnapWriter::new();
        s.save_state(&mut w);
        w.payload().to_vec()
    }

    /// One source of each kind, as the scenario builds it.
    fn one_of_each() -> [Source; 3] {
        let (a, b) = (NodeId(1), NodeId(2));
        [
            Source::cbr(FlowId(0), a, b, 512, 1e5, t(0.0), t(20.0)),
            Source::poisson(
                FlowId(1),
                a,
                b,
                512,
                1e5,
                t(0.0),
                t(20.0),
                RngStream::derive(8, "snap-test"),
            ),
            Source::on_off(
                FlowId(2),
                a,
                b,
                512,
                1e5,
                0.2,
                0.5,
                t(0.0),
                t(20.0),
                RngStream::derive(9, "snap-test"),
            ),
        ]
    }

    /// A source saved mid-run and loaded into a freshly built source of
    /// the same flow writes the bytes it was loaded from and emits what
    /// the original emits, packet for packet, to the end of the flow.
    #[test]
    fn a_source_loaded_into_a_fresh_one_continues_its_emissions() {
        for (mut s, mut fresh) in one_of_each().into_iter().zip(one_of_each()) {
            for _ in 0..25 {
                let at = s.next_time().unwrap();
                s.emit(at);
            }
            let bytes = saved(&s);
            let mut r = pcmac_snap::SnapReader::over(&bytes);
            fresh.load_state(&mut r).expect("bytes it wrote");
            assert!(r.is_exhausted(), "{:?}", s.arrivals);
            assert_eq!(saved(&fresh), bytes);
            let mut emitted = 0;
            while let Some(at) = s.next_time() {
                assert_eq!(fresh.next_time(), Some(at));
                assert_eq!(fresh.emit(at), s.emit(at));
                emitted += 1;
            }
            assert_eq!(fresh.next_time(), None);
            assert_eq!(fresh.emitted(), s.emitted());
            assert!(emitted > 25, "{:?}: the flow ran on", s.arrivals);
        }
    }

    /// The state of a flow and nothing of its configuration: 16 B for
    /// CBR, 48 B for Poisson, 57 B for on/off.
    #[test]
    fn a_source_writes_its_run_time_state_only() {
        let lens = one_of_each().map(|s| saved(&s).len());
        assert_eq!(lens, [16, 48, 57]);
    }
}
