//! The asymmetric-link scenario of the paper's Figures 4 and 6.
//!
//! Two pairs on a line: A→B close together (so power control picks a tiny
//! level), C→D far apart (so C must shout). C sits outside the shrunken
//! sensing zone of A/B's low-power exchange: it cannot hear them, thinks
//! the channel free, and its high-power frames stomp on B's receptions.
//!
//! Basic 802.11 does not suffer (everything at max power keeps everyone
//! mutually audible); Scheme 2 suffers badly; PCMAC recovers by deferring
//! C's transmissions whenever B advertises a reception on the power
//! control channel.
//!
//! ```text
//! cargo run --release --example asymmetric_links
//! ```

use pcmac::{RunReport, ScenarioConfig, Simulator, Variant};

fn main() {
    // Saturating load on both pairs: with spatial reuse both could run
    // concurrently; without it they share (or corrupt) one channel.
    let rate = 1_000_000.0;
    println!("asymmetric-link geometry (paper Figs. 4/6):");
    println!("  A —100m— B ····300m···· C —180m— D");
    println!("  A→B needs 7.25 mW (sense range ≈220 m), C→D needs 75.8 mW;");
    println!("  the pairs are mutually invisible, but C's frames land at B");
    println!("  inside the capture ratio and corrupt A→B receptions.\n");

    // One thread per protocol; the scope joins them in protocol order.
    let reports: Vec<RunReport> = std::thread::scope(|scope| {
        let runs: Vec<_> = Variant::ALL
            .iter()
            .map(|&v| {
                scope.spawn(move || {
                    Simulator::new(ScenarioConfig::asymmetric_pairs(v, rate, 7)).run()
                })
            })
            .collect();
        runs.into_iter()
            .map(|run| run.join().expect("a run panicked"))
            .collect()
    });

    println!(
        "{:<13} {:>10} {:>10} {:>8} {:>8} {:>9} {:>10}  {:>8} {:>8}",
        "protocol",
        "thpt kbps",
        "delay ms",
        "pdr %",
        "rxErr",
        "ctsT/O",
        "ctrlDefer",
        "A→B pdr",
        "C→D pdr"
    );
    for r in &reports {
        println!(
            "{:<13} {:>10.1} {:>10.2} {:>8.1} {:>8} {:>9} {:>10}  {:>7.1}% {:>7.1}%",
            r.protocol,
            r.throughput_kbps,
            r.mean_delay_ms,
            r.pdr() * 100.0,
            r.mac.rx_errors,
            r.mac.cts_timeouts,
            r.mac.ctrl_deferrals,
            r.flows[0].pdr() * 100.0,
            r.flows[1].pdr() * 100.0,
        );
    }

    let get = |v: &str| reports.iter().find(|r| r.protocol == v).unwrap();
    let pcmac = get("PCMAC");
    let scheme2 = get("Scheme 2");
    println!(
        "\nfairness (paper §III consequence 3): under Scheme 2 the high-power pair C→D \
         \nsuppresses the low-power pair A→B ({:.0}% vs {:.0}% PDR); PCMAC's control channel \
         \nrestores A→B to {:.0}% with {} deferrals at C.",
        scheme2.flows[1].pdr() * 100.0,
        scheme2.flows[0].pdr() * 100.0,
        pcmac.flows[0].pdr() * 100.0,
        pcmac.mac.ctrl_deferrals
    );
}
