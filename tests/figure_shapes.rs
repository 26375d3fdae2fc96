//! Reduced-scale regression of the paper's Figures 8 and 9: run a small
//! load sweep and assert the qualitative claims the reproduction stands
//! on. The full-resolution sweep is `pcmac-campaign figures --full`;
//! this keeps the shape guarded by `cargo test`.

use pcmac_campaign::figures::{
    check_figure8_shape, check_figure9_shape, delay_series, render_table, sweep_spec,
    throughput_series,
};
use pcmac_campaign::run_campaign;

#[test]
fn figure_8_and_9_shapes_hold_at_reduced_scale() {
    let spec = sweep_spec(&[300.0, 650.0, 1000.0], 30, &[1]);
    let report = run_campaign(&spec, 0).expect("the sweep is valid").report;
    assert!(report.failures.is_none(), "{:?}", report.failures);

    let throughput = throughput_series(&report);
    if let Err(e) = check_figure8_shape(&throughput) {
        panic!(
            "figure 8 shape violated: {e}\n{}",
            render_table("thpt", &throughput)
        );
    }

    let delay = delay_series(&report);
    if let Err(e) = check_figure9_shape(&delay) {
        panic!(
            "figure 9 shape violated: {e}\n{}",
            render_table("delay", &delay)
        );
    }

    // The paper's headline: at saturation PCMAC gains on the order of
    // 10% over unmodified 802.11 (we accept anything clearly positive,
    // and nothing absurdly large, at this reduced scale).
    let p = throughput
        .iter()
        .find(|s| s.name == "PCMAC")
        .unwrap()
        .y_at(1000.0)
        .unwrap();
    let b = throughput
        .iter()
        .find(|s| s.name == "Basic 802.11")
        .unwrap()
        .y_at(1000.0)
        .unwrap();
    let gain = (p - b) / b;
    assert!(
        (0.0..0.6).contains(&gain),
        "PCMAC gain over Basic at saturation: {:.1}% (paper: 8-10%)",
        gain * 100.0
    );
}
