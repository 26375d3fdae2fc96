//! The paper's Figure 4 asymmetric-link scenario as a regression test:
//! naive power control must suppress the low-power pair; PCMAC must
//! recover it (and buy spatial reuse on top).

use pcmac::{RunReport, ScenarioConfig, Simulator, Variant};

/// One run per protocol, on a thread each.
fn reports() -> Vec<RunReport> {
    std::thread::scope(|scope| {
        let runs: Vec<_> = Variant::ALL
            .iter()
            .map(|&v| {
                scope.spawn(move || {
                    Simulator::new(ScenarioConfig::asymmetric_pairs(v, 1_000_000.0, 7)).run()
                })
            })
            .collect();
        runs.into_iter()
            .map(|run| run.join().expect("a run panicked"))
            .collect()
    })
}

#[test]
fn asymmetric_geometry_reproduces_paper_story() {
    let rs = reports();
    let get = |name: &str| rs.iter().find(|r| r.protocol == name).unwrap();
    let basic = get("Basic 802.11");
    let pcmac = get("PCMAC");
    let scheme2 = get("Scheme 2");

    // Basic 802.11: mutual max-power carrier sense keeps both pairs alive.
    assert!(
        basic.flows[0].pdr() > 0.3 && basic.flows[1].pdr() > 0.3,
        "basic must be roughly fair: A→B {:.2} C→D {:.2}",
        basic.flows[0].pdr(),
        basic.flows[1].pdr()
    );

    // Scheme 2 (paper Fig. 4): the high-power pair crushes the low-power
    // pair, which cannot be sensed or protected.
    assert!(
        scheme2.flows[0].pdr() < 0.1,
        "Scheme 2 must suppress A→B (got {:.2})",
        scheme2.flows[0].pdr()
    );
    assert!(scheme2.flows[1].pdr() > 0.9, "C→D thrives under Scheme 2");

    // PCMAC: noise-aware power selection + control channel restore the
    // suppressed pair to a meaningful share.
    assert!(
        pcmac.flows[0].pdr() > 5.0 * scheme2.flows[0].pdr(),
        "PCMAC must recover A→B: {:.3} vs Scheme 2 {:.3}",
        pcmac.flows[0].pdr(),
        scheme2.flows[0].pdr()
    );
    assert!(pcmac.flows[1].pdr() > 0.9, "without starving C→D");

    // Spatial reuse: PCMAC's total beats Basic's serialized sharing.
    assert!(
        pcmac.throughput_kbps > basic.throughput_kbps,
        "PCMAC {:.0} kbps must exceed Basic {:.0} kbps via spatial reuse",
        pcmac.throughput_kbps,
        basic.throughput_kbps
    );

    // The protection machinery actually engaged.
    assert!(pcmac.mac.ctrl_broadcasts > 100);
    assert!(pcmac.mac.ctrl_deferrals > 10);
    assert!(pcmac.mac.power_step_ups > 10);
}

#[test]
fn collisions_are_observable_in_counters() {
    let rs = reports();
    let get = |name: &str| rs.iter().find(|r| r.protocol == name).unwrap();
    // The interference the story rests on must show up as rx errors for
    // the power-controlled schemes, far above Basic's.
    let basic = get("Basic 802.11");
    let scheme2 = get("Scheme 2");
    assert!(
        scheme2.mac.rx_errors > 3 * basic.mac.rx_errors.max(1),
        "Scheme 2 rx errors {} vs basic {}",
        scheme2.mac.rx_errors,
        basic.mac.rx_errors
    );
}
