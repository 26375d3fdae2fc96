//! Per-node component assembly.

use std::sync::Arc;

use pcmac_aodv::{AodvAgent, AodvConfig};
use pcmac_engine::{NodeId, SimTime};
use pcmac_mac::{DcfMac, Frame, MacConfig};
use pcmac_phy::EnergyMeter;
use pcmac_traffic::{Sink, Source};

/// One station: MAC, routing, traffic endpoints, meter. Movement, the
/// receive side of both radios and the other dispatch-hot per-node
/// scalars live in the simulator's struct-of-arrays state, not here —
/// `Node` is the *cold* half (protocol machines, tables, counters) that
/// the simulator builds the first time it must touch a station, and a
/// region shard only for nodes it owns. Of a reception in progress it
/// holds the data frame being decoded and nothing else: the control
/// broadcast a PCMAC station is locked onto sits in the hot arrays,
/// beside that channel's receive row.
#[derive(Debug)]
pub struct Node {
    /// Station address.
    pub id: NodeId,
    /// The frame the data-channel receive row is locked onto.
    pub locked: Option<Arc<Frame>>,
    /// The MAC.
    pub mac: DcfMac,
    /// The routing agent.
    pub aodv: AodvAgent,
    /// Traffic sources homed on this node.
    pub sources: Vec<Source>,
    /// Delivery statistics for flows terminating here.
    pub sink: Sink,
    /// Radiated-energy bookkeeping.
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
    /// and a station never touched reads as this.
    pub fn new(id: NodeId, mac_cfg: Arc<MacConfig>, aodv_cfg: Arc<AodvConfig>, seed: u64) -> Self {
        Node {
            id,
            locked: None,
            mac: DcfMac::new(id, mac_cfg, seed),
            aodv: AodvAgent::new(id, aodv_cfg),
            sources: Vec::new(),
            sink: Sink::new(),
            energy: EnergyMeter::new(SimTime::ZERO),
        }
    }

    /// Serialize the cold per-node state (the locked data frame, MAC,
    /// routing, sink, meter, sources) into `w`, the MAC as it is: a
    /// carrier edge the simulator holds back from it travels beside, as
    /// the simulator holds it (snapshot version 6; up to version 5 the
    /// MAC was written from a copy told that edge, and a station never
    /// built was written as this pristine node). The node id is implied
    /// by the node's index in the scenario and is not written, and
    /// neither is the number of sources: the scenario fixes which flows
    /// a station homes, and their states close the blob, so a blob with
    /// one too many or too few reads as trailing bytes or a truncation.
    pub(crate) fn save_state(&self, w: &mut pcmac_snap::SnapWriter) {
        use pcmac_snap::Snap;
        self.locked.save(w);
        self.mac.save_state(w);
        self.aodv.save_state(w);
        self.sink.save(w);
        self.energy.save(w);
        for source in &self.sources {
            source.save_state(w);
        }
    }

    /// Overwrite this node's state from a blob written by
    /// [`Node::save_state`]. The node must have been built from the same
    /// scenario configuration, its sources attached.
    pub(crate) fn load_state(
        &mut self,
        r: &mut pcmac_snap::SnapReader<'_>,
    ) -> Result<(), pcmac_snap::SnapError> {
        use pcmac_snap::Snap;
        self.locked = Snap::load(r)?;
        self.mac.load_state(r)?;
        self.aodv.load_state(r)?;
        self.sink = Snap::load(r)?;
        self.energy = Snap::load(r)?;
        for source in &mut self.sources {
            source.load_state(r)?;
        }
        Ok(())
    }
}
