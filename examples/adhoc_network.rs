//! The paper's §IV scenario at one load point, all four protocols.
//!
//! 50 nodes, random waypoint over 1000 m × 1000 m, ten 512-byte CBR
//! flows, AODV. Compares Basic 802.11, PCMAC, Scheme 1 and Scheme 2 at a
//! single offered load (default 600 kbps, near saturation).
//!
//! ```text
//! cargo run --release --example adhoc_network [-- <load_kbps> <secs> <seed>]
//! ```

use pcmac_sim::campaign::{run_campaign, Axis, CampaignSpec, ScenarioSpec};
use pcmac_sim::Variant;

fn main() {
    let mut args = std::env::args().skip(1);
    let load: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(600.0);
    let secs: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(60);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(1);

    println!("paper scenario: 50 nodes, 10 CBR flows, {load} kbps offered, {secs}s, seed {seed}");
    println!("running all four protocols in parallel...\n");

    let mut base = ScenarioSpec::paper();
    base.traffic.offered_load_kbps = load;
    let spec = CampaignSpec {
        name: "adhoc-network".into(),
        base,
        duration_s: Some(secs as f64),
        seeds: vec![seed],
        sweep: Some(vec![Axis::new("variant", &Variant::ALL)]),
    };
    let reports = match run_campaign(&spec, 0) {
        Ok(outcome) => outcome.runs,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    for r in &reports {
        println!("{}", r.summary());
    }
    println!();
    for r in &reports {
        println!(
            "{:<13} rts {:>7} ctsT/O {:>6} rxErr {:>7} retryDrop {:>4} qDrop {:>5} rreq {:>5} ctrlBcast {:>6} ctrlDefer {:>5}",
            r.protocol,
            r.mac.rts_sent,
            r.mac.cts_timeouts,
            r.mac.rx_errors,
            r.mac.retry_drops,
            r.mac.queue_drops,
            r.routing.rreq_originated + r.routing.rreq_forwarded,
            r.mac.ctrl_broadcasts,
            r.mac.ctrl_deferrals,
        );
    }
    println!();
    for r in &reports {
        println!(
            "{:<13} radiated {:>10.1} mJ  ({:.4} mJ/pkt)  | {:>9} events, {:>6.2}s wall",
            r.protocol, r.radiated_mj, r.radiated_mj_per_packet, r.events, r.wall_s
        );
    }
}
