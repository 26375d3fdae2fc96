//! Per-node component assembly.

use std::sync::Arc;

use pcmac_aodv::{AodvAgent, AodvConfig};
use pcmac_engine::{NodeId, RngStream, SimTime};
use pcmac_mac::{CtrlFrame, DcfMac, Frame, MacConfig};
use pcmac_phy::energy::EnergyModel;
use pcmac_phy::EnergyMeter;
use pcmac_traffic::{CbrSource, OnOffSource, PoissonSource, Sink, Source};

use crate::config::{FlowShape, FlowSpec};

/// A traffic source of any supported shape.
#[derive(Debug)]
pub enum TrafficSource {
    /// Constant bit rate.
    Cbr(CbrSource),
    /// Poisson arrivals.
    Poisson(PoissonSource),
    /// Bursty on/off.
    OnOff(OnOffSource),
}

impl TrafficSource {
    /// Build from a flow specification.
    pub fn from_spec(spec: &FlowSpec, seed: u64) -> Self {
        match spec.shape {
            FlowShape::Cbr => TrafficSource::Cbr(CbrSource::new(
                spec.flow,
                spec.src,
                spec.dst,
                spec.bytes,
                spec.rate_bps,
                spec.start,
                spec.stop,
            )),
            FlowShape::Poisson => TrafficSource::Poisson(PoissonSource::new(
                spec.flow,
                spec.src,
                spec.dst,
                spec.bytes,
                spec.rate_bps,
                spec.start,
                spec.stop,
                RngStream::derive_sub(seed, "traffic.poisson", spec.flow.0 as u64),
            )),
            FlowShape::OnOff {
                mean_on_s,
                mean_off_s,
            } => TrafficSource::OnOff(OnOffSource::new(
                spec.flow,
                spec.src,
                spec.dst,
                spec.bytes,
                spec.rate_bps,
                mean_on_s,
                mean_off_s,
                spec.start,
                spec.stop,
                RngStream::derive_sub(seed, "traffic.onoff", spec.flow.0 as u64),
            )),
        }
    }

    /// Next emission instant (`None` when the flow finished).
    pub fn next_time(&mut self) -> Option<SimTime> {
        match self {
            TrafficSource::Cbr(s) => s.next_time(),
            TrafficSource::Poisson(s) => s.next_time(),
            TrafficSource::OnOff(s) => s.next_time(),
        }
    }

    /// Emit the packet due at `now`.
    pub fn emit(&mut self, now: SimTime) -> pcmac_net::Packet {
        match self {
            TrafficSource::Cbr(s) => s.emit(now),
            TrafficSource::Poisson(s) => s.emit(now),
            TrafficSource::OnOff(s) => s.emit(now),
        }
    }

    /// Packets emitted so far.
    pub fn emitted(&self) -> u64 {
        match self {
            TrafficSource::Cbr(s) => s.emitted(),
            TrafficSource::Poisson(s) => s.emitted(),
            TrafficSource::OnOff(s) => s.emitted(),
        }
    }

    /// The flow this source feeds.
    pub fn flow(&self) -> pcmac_engine::FlowId {
        match self {
            TrafficSource::Cbr(s) => s.flow(),
            TrafficSource::Poisson(s) => s.flow(),
            TrafficSource::OnOff(s) => s.flow(),
        }
    }
}

/// One station: MAC, routing, traffic endpoints, meter. Movement, the
/// receive side of both radios and the other dispatch-hot per-node
/// scalars live in the simulator's struct-of-arrays state, not here —
/// `Node` is the *cold* half (protocol machines, tables, counters) that
/// the simulator builds the first time it must touch a station, and a
/// region shard only for nodes it owns. Of a reception in progress it
/// holds the frame being decoded and nothing else.
#[derive(Debug)]
pub struct Node {
    /// Station address.
    pub id: NodeId,
    /// The frame the data-channel receive row is locked onto.
    pub locked: Option<Arc<Frame>>,
    /// The broadcast the control-channel receive row is locked onto
    /// (PCMAC only).
    pub ctrl_locked: Option<CtrlFrame>,
    /// The MAC.
    pub mac: DcfMac,
    /// The routing agent.
    pub aodv: AodvAgent,
    /// Traffic sources homed on this node.
    pub sources: Vec<TrafficSource>,
    /// Delivery statistics for flows terminating here.
    pub sink: Sink,
    /// Energy bookkeeping.
    pub energy: EnergyMeter,
}

impl Node {
    /// Assemble a node. The MAC and routing configurations are shared
    /// with every other node of the scenario, and no component allocates
    /// until it is used: a node that never sends, receives or hears
    /// anything owns nothing on the heap.
    ///
    /// The result is a pure function of its arguments (every random
    /// stream derives from the seed and the id), which is what lets the
    /// simulator build a station on its first touch rather than up front:
    /// a node built late is the node that would have been built early,
    /// and a station never touched reads, and is checkpointed, as this.
    pub fn new(id: NodeId, mac_cfg: Arc<MacConfig>, aodv_cfg: Arc<AodvConfig>, seed: u64) -> Self {
        Node {
            id,
            locked: None,
            ctrl_locked: None,
            mac: DcfMac::new(id, mac_cfg, seed),
            aodv: AodvAgent::new(id, aodv_cfg),
            sources: Vec::new(),
            sink: Sink::new(),
            energy: EnergyMeter::new(EnergyModel::radiated_only(), SimTime::ZERO),
        }
    }

    /// Serialize the cold per-node state (locked frames, MAC, routing,
    /// sources, sink, meter) into `w`, the MAC from `mac`: this node's
    /// own, or a copy of it that has heard a carrier edge the live one is
    /// still owed. The node id is implied by the node's index in the
    /// scenario and is not written.
    pub(crate) fn save_state(&self, mac: &DcfMac, w: &mut pcmac_snap::SnapWriter) {
        use pcmac_snap::Snap;
        self.locked.save(w);
        self.ctrl_locked.save(w);
        mac.save_state(w);
        self.aodv.save_state(w);
        self.sources.save(w);
        self.sink.save(w);
        self.energy.save(w);
    }

    /// Overwrite this node's state from a blob written by
    /// [`Node::save_state`]. The node must have been built from the same
    /// scenario configuration.
    pub(crate) fn load_state(
        &mut self,
        r: &mut pcmac_snap::SnapReader<'_>,
    ) -> Result<(), pcmac_snap::SnapError> {
        use pcmac_snap::Snap;
        self.locked = Snap::load(r)?;
        self.ctrl_locked = Snap::load(r)?;
        self.mac.load_state(r)?;
        self.aodv.load_state(r)?;
        self.sources = Snap::load(r)?;
        self.sink = Snap::load(r)?;
        self.energy = Snap::load(r)?;
        Ok(())
    }
}

mod snap {
    use super::TrafficSource;
    use pcmac_snap::{Snap, SnapError, SnapReader, SnapWriter};

    impl Snap for TrafficSource {
        fn save(&self, w: &mut SnapWriter) {
            match self {
                TrafficSource::Cbr(s) => {
                    w.u8(0);
                    s.save(w);
                }
                TrafficSource::Poisson(s) => {
                    w.u8(1);
                    s.save(w);
                }
                TrafficSource::OnOff(s) => {
                    w.u8(2);
                    s.save(w);
                }
            }
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            match r.u8()? {
                0 => Ok(TrafficSource::Cbr(Snap::load(r)?)),
                1 => Ok(TrafficSource::Poisson(Snap::load(r)?)),
                2 => Ok(TrafficSource::OnOff(Snap::load(r)?)),
                _ => Err(SnapError::Corrupt("traffic source tag")),
            }
        }
    }
}
