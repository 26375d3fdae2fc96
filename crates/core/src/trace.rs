//! ns-2-style event traces.
//!
//! ns-2 users debug wireless MACs by reading trace files; this module
//! provides the same affordance: feed [`TraceWriter`] to
//! [`crate::Simulator::run_with_observer`] and get one line per
//! channel-level event, e.g.
//!
//! ```text
//! 1.003017920 r  _2_ RTS  0->2 len 20 pwr 2.818e2
//! 1.003401920 s  _2_ CTS  2->0 len 14
//! ```
//!
//! Format: `time  kind  _node_  frame  src->dst  len bytes [pwr mW]`,
//! where kind is `s` (start of a transmission arriving — the receiver's
//! perspective), `e` (arrival end), `t` (transmit end), `c` (control
//! channel), `m`/`a`/`g` (MAC timer, AODV timer, traffic generation).
//! The filter keeps traces readable: by default only channel events are
//! written.

use std::fmt::Write as _;
use std::io;

use crate::event::SimEvent;
use pcmac_engine::SimTime;
use pcmac_mac::FrameKind;
use serde::{Deserialize, Serialize};

/// What to include in the trace. Serde-round-trippable so scenario
/// specs can carry a trace request declaratively.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceFilter {
    /// Data-channel arrivals and transmit ends.
    pub channel: bool,
    /// Power-control channel events.
    pub ctrl: bool,
    /// MAC and routing timers (very chatty).
    pub timers: bool,
    /// Traffic emissions.
    pub traffic: bool,
}

impl Default for TraceFilter {
    fn default() -> Self {
        TraceFilter {
            channel: true,
            ctrl: true,
            timers: false,
            traffic: true,
        }
    }
}

/// Accumulates trace lines in memory; write to disk or stdout afterwards
/// (the simulation is fast; I/O during the run would dominate).
#[derive(Debug, Default)]
pub struct TraceWriter {
    filter: TraceFilter,
    lines: String,
    count: u64,
}

impl TraceWriter {
    /// A writer with the default filter (channel + ctrl + traffic).
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer with a custom filter.
    pub fn with_filter(filter: TraceFilter) -> Self {
        TraceWriter {
            filter,
            ..Default::default()
        }
    }

    /// Record one event (pass this method to `run_with_observer`).
    pub fn record(&mut self, ev: &SimEvent, at: SimTime) {
        let f = &self.filter;
        let t = at.as_secs_f64();
        match ev {
            SimEvent::ArrivalStart {
                node, power, frame, ..
            } if f.channel => {
                let _ = writeln!(
                    self.lines,
                    "{t:.9} s _{node}_ {} {}->{} len {} pwr {:.3e}",
                    kind_str(frame.kind),
                    frame.tx,
                    frame.rx,
                    frame.size_bytes(),
                    power.value(),
                );
                self.count += 1;
            }
            SimEvent::ArrivalEnd { node, key, .. } if f.channel => {
                let _ = writeln!(self.lines, "{t:.9} e _{node}_ key {key}");
                self.count += 1;
            }
            SimEvent::TxEnd { node } if f.channel => {
                let _ = writeln!(self.lines, "{t:.9} t _{node}_");
                self.count += 1;
            }
            SimEvent::CtrlArrivalStart { node, frame, .. } if f.ctrl => {
                let _ = writeln!(
                    self.lines,
                    "{t:.9} c _{node}_ TOL rx {} tol {:.3e} rem {}",
                    frame.receiver,
                    frame.noise_tolerance.value(),
                    frame.remaining,
                );
                self.count += 1;
            }
            SimEvent::MacTimer { node, kind, .. } if f.timers => {
                let _ = writeln!(self.lines, "{t:.9} m _{node}_ {kind:?}");
                self.count += 1;
            }
            SimEvent::AodvTimer { node, dst, .. } if f.timers => {
                let _ = writeln!(self.lines, "{t:.9} a _{node}_ disc {dst}");
                self.count += 1;
            }
            SimEvent::TrafficEmit { node, source } if f.traffic => {
                let _ = writeln!(self.lines, "{t:.9} g _{node}_ src {source}");
                self.count += 1;
            }
            _ => {}
        }
    }

    /// The trace text.
    pub fn text(&self) -> &str {
        &self.lines
    }

    /// Number of recorded lines.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Dump the accumulated trace into any sink (file, stdout, buffer)
    /// in one write, after the run — I/O never touches the hot loop.
    pub fn write_to(&self, w: &mut impl io::Write) -> io::Result<()> {
        w.write_all(self.lines.as_bytes())
    }
}

fn kind_str(k: FrameKind) -> &'static str {
    match k {
        FrameKind::Rts => "RTS",
        FrameKind::Cts => "CTS",
        FrameKind::Data => "DATA",
        FrameKind::Ack => "ACK",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ScenarioConfig, Simulator, Variant};
    use pcmac_engine::Duration;

    #[test]
    fn trace_captures_the_handshake() {
        let cfg = ScenarioConfig::two_nodes(Variant::Basic, 80.0, 50_000.0, 1)
            .with_duration(Duration::from_secs(1));
        let mut tw = TraceWriter::new();
        let report = {
            let tw = std::cell::RefCell::new(&mut tw);
            Simulator::new(cfg).run_with_observer(|ev, at| tw.borrow_mut().record(ev, at))
        };
        assert!(report.delivered_packets > 0);
        let text = tw.text();
        assert!(text.contains(" RTS "), "trace has RTS lines");
        assert!(text.contains(" CTS "), "trace has CTS lines");
        assert!(text.contains(" DATA "), "trace has DATA lines");
        assert!(text.contains(" ACK "), "trace has ACK lines");
        // Timestamps at the front, strictly formatted.
        let first = text.lines().next().unwrap();
        assert!(first.split_whitespace().next().unwrap().contains('.'));
    }

    #[test]
    fn pcmac_trace_includes_tolerance_broadcasts() {
        let cfg = ScenarioConfig::two_nodes(Variant::Pcmac, 80.0, 50_000.0, 1)
            .with_duration(Duration::from_secs(1));
        let mut tw = TraceWriter::new();
        {
            let tw = std::cell::RefCell::new(&mut tw);
            Simulator::new(cfg).run_with_observer(|ev, at| tw.borrow_mut().record(ev, at));
        }
        assert!(tw.text().contains(" TOL "), "control channel traced");
    }

    #[test]
    fn filter_suppresses_categories() {
        let cfg = ScenarioConfig::two_nodes(Variant::Basic, 80.0, 50_000.0, 1)
            .with_duration(Duration::from_secs(1));
        let mut tw = TraceWriter::with_filter(TraceFilter {
            channel: false,
            ctrl: false,
            timers: false,
            traffic: true,
        });
        {
            let tw = std::cell::RefCell::new(&mut tw);
            Simulator::new(cfg).run_with_observer(|ev, at| tw.borrow_mut().record(ev, at));
        }
        assert!(!tw.is_empty(), "traffic lines remain");
        assert!(!tw.text().contains(" RTS "), "channel suppressed");
    }

    #[test]
    fn filter_round_trips_through_json() {
        let f = TraceFilter {
            channel: false,
            ctrl: true,
            timers: true,
            traffic: false,
        };
        let json = serde_json::to_string(&f).unwrap();
        let back: TraceFilter = serde_json::from_str(&json).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn write_to_dumps_the_accumulated_text() {
        let cfg = ScenarioConfig::two_nodes(Variant::Basic, 80.0, 50_000.0, 1)
            .with_duration(Duration::from_secs(1));
        let mut tw = TraceWriter::new();
        {
            let tw = std::cell::RefCell::new(&mut tw);
            Simulator::new(cfg).run_with_observer(|ev, at| tw.borrow_mut().record(ev, at));
        }
        let mut sink = Vec::new();
        tw.write_to(&mut sink).unwrap();
        assert_eq!(sink, tw.text().as_bytes());
    }
}
