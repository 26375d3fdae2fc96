//! What a node costs, counted at the allocator.
//!
//! A node pays for what it uses: a station's cold `Node` is built the
//! first time the simulator touches it, a static station has no
//! movement model, the sink's flow table and delay histogram, the
//! interface queue and the routing agent's originator state are
//! allocated by their first use (the histogram up to its highest bucket
//! only), the MAC and routing configurations are shared,
//! the receive side of a radio is one 32-byte row in the simulator's hot
//! arrays — the control channel's only under PCMAC — and the report
//! reads the nodes where they lie. This binary installs its own counting
//! `#[global_allocator]` and holds exactly one test, so nothing else
//! allocates while it counts:
//! the figures are requested bytes and live allocations, not RSS, and
//! repeat exactly. It also holds the bar the sharded engine's memory
//! model stands on: four owner-only shards peak within 1.3× of the
//! single-threaded run plus their replicated hot arrays, and no higher
//! than they did before the receive rows moved there plus the 16 B per
//! neighbour that static transmitters now store.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pcmac::node::Node;
use pcmac::{
    ExecutionMode, FlowSpec, MetricsConfig, NodeSetup, ScenarioConfig, Simulator, Variant,
};
use pcmac_aodv::AodvConfig;
use pcmac_engine::{Duration, FlowId, Milliwatts, NodeId, PacketId, Point, RngStream, SimTime};
use pcmac_mac::MacConfig;
use pcmac_net::Packet;
use pcmac_stats::Histogram;
use pcmac_traffic::FlowStats;

struct Counting;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);
static LIVE_ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE_BYTES.fetch_add(by, Ordering::Relaxed) + by;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc` is passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE_ALLOCS.fetch_add(1, Ordering::Relaxed);
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(p, layout) };
        LIVE_ALLOCS.fetch_sub(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's contract for `realloc` is passed through.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(live bytes, live allocations)` right now.
fn live() -> (usize, usize) {
    (
        LIVE_BYTES.load(Ordering::Relaxed),
        LIVE_ALLOCS.load(Ordering::Relaxed),
    )
}

const NODES: usize = 4_000;
/// Per node of a static Basic field: position 16, alive 1, last tx power
/// 8, tx-key counter 4, receive row 32, carrier flags 1, held noise 8,
/// receiver-row index 8. Nothing moves, so there is no movement model.
const ROW_INDEX_BYTES: f64 = 8.0;
const HOT_BYTES_PER_NODE: f64 = 70.0 + ROW_INDEX_BYTES;
const NODES_PER_FLOW: usize = 50;
const PITCH_M: f64 = 250.0;

/// A static field at the benchmark's density (one node per 250 m × 250 m)
/// with one single-hop CBR flow per 50 nodes to the source's nearest
/// neighbour, carrier-sense interference floor, 10 µs delay floor.
fn field(variant: Variant, seed: u64) -> ScenarioConfig {
    field_with(variant, seed, 0)
}

/// [`field`] with `extra` more stations scattered over it after the
/// first `NODES`, which keep their places and carry the same flows.
fn field_with(variant: Variant, seed: u64, extra: usize) -> ScenarioConfig {
    let side = (NODES as f64).sqrt() * PITCH_M;
    let mut rng = RngStream::derive(seed, "footprint.placement");
    let pts: Vec<Point> = (0..NODES + extra)
        .map(|_| Point::new(rng.uniform(0.0, side), rng.uniform(0.0, side)))
        .collect();
    let duration = Duration::from_secs(2);
    let mut cfg = ScenarioConfig::two_nodes(variant, 100.0, 40_000.0, seed);
    // The same bytes whatever the variant is called.
    cfg.name = "field".into();
    cfg.field = (side, side);
    cfg.duration = duration;
    cfg.interference_floor = Milliwatts(1.559e-8);
    cfg.delay_floor_us = Some(10.0);
    let template: FlowSpec = cfg.flows[0].clone();
    let mut rng = RngStream::derive(seed, "footprint.flows");
    cfg.flows = (0..(NODES / NODES_PER_FLOW) as u32)
        .map(|i| {
            let src = rng.below(NODES as u64) as usize;
            let dst = (0..NODES)
                .filter(|&j| j != src)
                .min_by(|&a, &b| {
                    pts[src]
                        .distance_sq(pts[a])
                        .total_cmp(&pts[src].distance_sq(pts[b]))
                })
                .expect("at least two nodes");
            let mut f = template.clone();
            f.flow = FlowId(i);
            f.src = NodeId(src as u32);
            f.dst = NodeId(dst as u32);
            f.start = SimTime::ZERO + Duration::from_millis(20 + 3 * u64::from(i));
            f.stop = SimTime::ZERO + duration;
            f
        })
        .collect();
    cfg.nodes = NodeSetup::Static(pts);
    cfg
}

#[test]
fn a_node_costs_what_it_uses() {
    // --- one node, before and after its first use of each buffer -------
    let mac = Arc::new(MacConfig::paper_default(Variant::Pcmac));
    let aodv = Arc::new(AodvConfig::default());
    let before = live();
    let mut node = Node::new(NodeId(7), Arc::clone(&mac), Arc::clone(&aodv), 1);
    assert_eq!(
        live(),
        before,
        "a node that never queued or sank anything owns no histogram, queue, \
         latency bank or private configuration"
    );
    let inline = std::mem::size_of::<Node>();
    println!("one pristine node: {inline} B inline, 0 B in 0 allocations behind it");
    assert!(inline <= 924, "Node grew to {inline} B inline");

    let at = |ms| SimTime::ZERO + Duration::from_millis(ms);
    let packet = |id| Packet::data(PacketId(id), FlowId(0), NodeId(3), NodeId(7), 512, at(0));

    // Sinking a packet allocates the sink's box, holding the flow table
    // and the delay histogram, then the table's one entry and the delay
    // buckets up to the one a 40 ms delay lands in: five of 10 ms, 8 B
    // each, not the histogram's thousand.
    let table = || {
        let (base, _) = live();
        let mut t = HashMap::new();
        t.insert(FlowId(0), FlowStats::default());
        let bytes = live().0 - base;
        drop(t);
        bytes
    };
    let table_bytes = table();
    let boxed =
        std::mem::size_of::<HashMap<FlowId, FlowStats>>() + std::mem::size_of::<Histogram>();
    let (bytes, allocs) = live();
    node.sink.deliver(&packet(1), at(40));
    let (bytes_after, allocs_after) = live();
    assert_eq!(
        allocs_after,
        allocs + 3,
        "box, flow table and delay buckets"
    );
    assert_eq!(
        bytes_after - bytes,
        boxed + table_bytes + 5 * 8,
        "{boxed} B box, {table_bytes} B table, 5 delay buckets"
    );

    // The first packet becomes the MAC's current job; only the second
    // has to wait, and allocates the interface queue.
    let mut actions = Vec::with_capacity(16);
    node.mac.enqueue(packet(2), NodeId(3), at(50), &mut actions);
    let (_, allocs) = live();
    node.mac.enqueue(packet(3), NodeId(3), at(50), &mut actions);
    assert_eq!(live().1, allocs + 1, "the interface queue");
    drop((node, actions));

    // Hearing a transmission allocates nothing, ever: what is on the air
    // at a station is a sum and a count in its 32-byte receive row, and
    // the control channel has rows only where something can radiate on
    // it — a PCMAC field is a Basic field plus exactly that array.
    let built = |cfg| {
        let (base, _) = live();
        let sim = Simulator::new(cfg);
        let (built, _) = live();
        drop(sim);
        built - base
    };
    assert_eq!(
        built(field(Variant::Pcmac, 11)) - built(field(Variant::Basic, 11)),
        32 * NODES,
        "control-channel rows: 32 B per node under PCMAC, none under Basic"
    );

    // --- an untouched station: its hot arrays and an empty slot ---------
    // A station's cold `Node` is built the first time the simulator has
    // to touch it — a flow's home at build, any other station when it
    // first acts — so more stations behind the same flows add to the
    // build only what every station has: its hot arrays, an 8-byte slot
    // with nothing in it and its entry in the spatial index (a copy of
    // its position, its cell, and its id in that cell's bucket, which may
    // have doubled to hold it). The scenario is built before the count
    // starts and moved in, so its positions are not counted here.
    const EXTRA: usize = 4_000;
    const SLOT_BYTES: f64 = 8.0;
    const INDEX_BYTES: f64 = 16.0 + 4.0 + 2.0 * 4.0;
    let untouched = (built(field_with(Variant::Basic, 11, EXTRA))
        - built(field(Variant::Basic, 11))) as f64
        / EXTRA as f64;
    println!("an untouched station: {untouched:.1} B");
    assert!(
        untouched <= HOT_BYTES_PER_NODE + SLOT_BYTES + INDEX_BYTES,
        "an untouched station costs {untouched:.1} B: more than its hot arrays, \
         slot and index entry"
    );

    // --- a 4 000-node field: build, run, report -------------------------
    // The scenario (16 B of position per node, the flow list) belongs to
    // the simulator and is counted with it. The build holds what every
    // station has and the cold state of the 80 flow homes: 169 B/node
    // and 0.254 allocations/node when last measured; the budgets leave
    // about 10 % (and 0.1 allocations) above that.
    let (base_bytes, base_allocs) = live();
    PEAK_BYTES.store(base_bytes, Ordering::Relaxed);
    let sim = Simulator::new(field(Variant::Basic, 11));
    let (built_bytes, built_allocs) = live();
    let per_node = (built_bytes - base_bytes) as f64 / NODES as f64;
    let allocs_per_node = (built_allocs - base_allocs) as f64 / NODES as f64;
    println!("after build: {per_node:.0} B/node in {allocs_per_node:.3} allocations/node");
    assert!(
        per_node <= 186.0,
        "live heap after Simulator::new: {per_node:.0} B/node"
    );
    assert!(
        allocs_per_node <= 0.35,
        "{allocs_per_node:.3} live allocations per node after Simulator::new"
    );

    let report = sim.run();
    let peak = (PEAK_BYTES.load(Ordering::Relaxed) - base_bytes) as f64 / NODES as f64;
    println!("peak over build + run + report: {peak:.0} B/node");
    assert!(report.delivered_packets > 0, "the field carried traffic");

    // Nothing moves here, so a station that transmits keeps its receiver
    // row: 16 B per stored neighbour. Over that, the peak holds what the
    // build holds plus the cold state of the stations the run touches:
    // 697 B/node when last measured (792 with 5.92 stored neighbours per
    // node), held to 770, about 10 % above. The index query of a
    // row's build is profiled once per transmitter, so a metrics-on run
    // of the same field counts the neighbours stored.
    let mut profiled = field(Variant::Basic, 11);
    profiled.metrics = Some(MetricsConfig::default());
    let hot = Simulator::new(profiled).run().metrics.expect("on").hot_path;
    let stored = hot.grid_candidates as f64 / NODES as f64;
    println!(
        "rows: {} of {NODES} stations transmitted, {stored:.2} stored neighbours per node",
        hot.grid_queries
    );
    let budget = 770.0 + 16.0 * stored;
    assert!(
        peak <= budget,
        "peak live heap over build + run + report: {peak:.0} B/node, budget {budget:.0}"
    );

    // --- the same field on four region shards ---------------------------
    // Shards are owner-only: splitting the built simulator moves each
    // built node's cold state to its owner instead of copying it, and a
    // shard builds an untouched station's only when it first acts, so
    // four shards cost their own hot rows, grids, queues and mailboxes,
    // not a second network. The budget is the one `benches/parallel.rs`
    // enforced on child-process RSS before it was retired — 1.3 × (the
    // single-threaded peak + the hot arrays every shard replicates at
    // full length) — without the 16 MiB of per-thread stack and
    // allocator slack that RSS needed and requested bytes do not. That
    // is a ratio to a peak that falls whenever a node shrinks, so the
    // absolute figure is held as well: no higher than the 2 839 B/node
    // four shards peaked at while each node still carried its radios,
    // plus what the receiver rows add by the derivation above — a row
    // lives on its transmitter's shard only, the index on every shard.
    const SHARDS: usize = 4;
    const SHARDED_PEAK_BEFORE: f64 = 2839.0;
    let events = report.events;
    drop(report);
    let (base_bytes, _) = live();
    PEAK_BYTES.store(base_bytes, Ordering::Relaxed);
    let mut cfg = field(Variant::Basic, 11);
    cfg.execution = Some(ExecutionMode::Sharded { shards: SHARDS });
    let report = Simulator::new(cfg).run();
    let sharded = (PEAK_BYTES.load(Ordering::Relaxed) - base_bytes) as f64 / NODES as f64;
    println!(
        "peak on {SHARDS} shards: {sharded:.0} B/node ({:.2}x single)",
        sharded / peak
    );
    assert_eq!(report.events, events, "the sharded run is the same run");
    let budget = (1.3 * (peak + HOT_BYTES_PER_NODE * SHARDS as f64))
        .min(SHARDED_PEAK_BEFORE + 16.0 * stored + ROW_INDEX_BYTES * SHARDS as f64);
    assert!(
        sharded <= budget,
        "{SHARDS} shards peak at {sharded:.0} B/node, over the {budget:.0} B/node budget \
         (single-threaded: {peak:.0})"
    );
}
