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
    //! Checkpoint capture of traffic sources: emission counters, next-emit
    //! instants and (for the stochastic processes) the RNG position, so
    //! the post-restore emission schedule continues the original sequence.
    //!
    //! The layout predates the single `Source` type: a kind tag, then the
    //! kind's fields in their old order. An on/off source was a CBR source
    //! plus its phase state and so writes the stop time twice.

    use super::{Arrivals, Source};
    use pcmac_engine::{Duration, SimTime};
    use pcmac_snap::{Snap, SnapError, SnapReader, SnapWriter};

    impl Snap for Source {
        fn save(&self, w: &mut SnapWriter) {
            w.u8(match self.arrivals {
                Arrivals::Cbr { .. } => 0,
                Arrivals::Poisson { .. } => 1,
                Arrivals::OnOff { .. } => 2,
            });
            self.flow.save(w);
            self.src.save(w);
            self.dst.save(w);
            self.bytes.save(w);
            match &self.arrivals {
                Arrivals::Cbr { interval } | Arrivals::OnOff { interval, .. } => interval.save(w),
                Arrivals::Poisson { mean_interval, .. } => mean_interval.save(w),
            }
            self.stop.save(w);
            self.next.save(w);
            self.count.save(w);
            match &self.arrivals {
                Arrivals::Cbr { .. } => {}
                Arrivals::Poisson { rng, .. } => rng.save(w),
                Arrivals::OnOff {
                    mean_on,
                    mean_off,
                    phase_end,
                    on,
                    rng,
                    ..
                } => {
                    mean_on.save(w);
                    mean_off.save(w);
                    phase_end.save(w);
                    on.save(w);
                    self.stop.save(w);
                    rng.save(w);
                }
            }
        }

        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            let tag = r.u8()?;
            let (flow, src, dst, bytes) = (
                Snap::load(r)?,
                Snap::load(r)?,
                Snap::load(r)?,
                Snap::load(r)?,
            );
            // The kind's rate: a CBR interval, or a Poisson mean gap (s).
            let (interval, mean_interval) = match tag {
                0 | 2 => (Snap::load(r)?, 0.0),
                1 => (Duration::ZERO, Snap::load(r)?),
                _ => return Err(SnapError::Corrupt("traffic source tag")),
            };
            let (stop, next, count) = (Snap::load(r)?, Snap::load(r)?, Snap::load(r)?);
            let arrivals = match tag {
                0 => Arrivals::Cbr { interval },
                1 => Arrivals::Poisson {
                    mean_interval,
                    rng: Snap::load(r)?,
                },
                _ => {
                    let (mean_on, mean_off, phase_end, on) = (
                        Snap::load(r)?,
                        Snap::load(r)?,
                        Snap::load(r)?,
                        Snap::load(r)?,
                    );
                    if stop != SimTime::load(r)? {
                        return Err(SnapError::Corrupt("on/off source stop times differ"));
                    }
                    Arrivals::OnOff {
                        interval,
                        mean_on,
                        mean_off,
                        phase_end,
                        on,
                        rng: Snap::load(r)?,
                    }
                }
            };
            Ok(Source {
                flow,
                src,
                dst,
                bytes,
                stop,
                next,
                count,
                arrivals,
            })
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
        pcmac_snap::Snap::save(s, &mut w);
        w.payload().to_vec()
    }

    fn loaded(bytes: &[u8]) -> Result<Source, pcmac_snap::SnapError> {
        pcmac_snap::Snap::load(&mut pcmac_snap::SnapReader::over(bytes))
    }

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

    /// A restored source writes the bytes it was loaded from and carries
    /// on with the emissions the original makes.
    #[test]
    fn every_kind_round_trips_through_its_bytes() {
        for mut s in one_of_each() {
            for _ in 0..5 {
                let at = s.next_time().unwrap();
                s.emit(at);
            }
            let bytes = saved(&s);
            let mut back = loaded(&bytes).expect("bytes it wrote");
            assert_eq!(saved(&back), bytes);
            for _ in 0..50 {
                let at = s.next_time();
                assert_eq!(back.next_time(), at);
                let Some(at) = at else { break };
                assert_eq!(back.emit(at).id, s.emit(at).id);
            }
        }
    }

    /// Bytes the format can hold but a source cannot: an unknown kind,
    /// and an on/off source whose two stop times differ.
    #[test]
    fn load_refuses_what_a_source_cannot_hold() {
        let [_, _, on_off] = one_of_each();
        let mut bytes = saved(&on_off);
        bytes[0] = 3;
        let err = loaded(&bytes).err();
        assert_eq!(
            err,
            Some(pcmac_snap::SnapError::Corrupt("traffic source tag"))
        );
        let mut bytes = saved(&on_off);
        // The second stop time sits just before the 32-byte RNG state.
        let second_stop = bytes.len() - 32 - 8;
        bytes[second_stop] ^= 1;
        let err = loaded(&bytes).err();
        assert_eq!(
            err,
            Some(pcmac_snap::SnapError::Corrupt(
                "on/off source stop times differ"
            ))
        );
    }
}
