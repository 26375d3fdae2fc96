//! Regenerate the paper's power-level ↔ range table (§IV).
//!
//! The ten transmit power classes and their decode ranges under the
//! two-ray ground model with ns-2's Lucent WaveLAN thresholds. The
//! paper quotes 40/60/80/90/100/110/120/150/180/250 m — "roughly
//! correspond[ing]" to these computed values.
//!
//! ```text
//! cargo run --release --example power_table
//! ```

use pcmac_engine::Milliwatts;
use pcmac_phy::{PowerLevels, TwoRayGround};
use pcmac_stats::Table;

fn main() {
    let model = TwoRayGround::ns2_default();
    let levels = PowerLevels::paper_defaults();
    let rx_thresh = Milliwatts(3.652e-7); // decode
    let cs_thresh = Milliwatts(1.559e-8); // carrier sense
    let paper = [
        40.0, 60.0, 80.0, 90.0, 100.0, 110.0, 120.0, 150.0, 180.0, 250.0,
    ];

    println!(
        "two-ray ground @ 914 MHz, antennas 1.5 m, crossover {:.1} m\n",
        model.crossover()
    );

    let mut table = Table::new(&[
        "class",
        "power (mW)",
        "decode range (m)",
        "paper (m)",
        "delta (m)",
        "sense range (m)",
    ]);
    let mut worst: f64 = 0.0;
    for (i, (&p, &want)) in levels.all().iter().zip(paper.iter()).enumerate() {
        let decode = model.range_for(p, rx_thresh);
        let sense = model.range_for(p, cs_thresh);
        worst = worst.max((decode - want).abs());
        table.row(&[
            format!("{}", i + 1),
            format!("{:.2}", p.value()),
            format!("{decode:.1}"),
            format!("{want:.0}"),
            format!("{:+.1}", decode - want),
            format!("{sense:.1}"),
        ]);
    }
    println!("{}", table.render());
    println!("worst deviation from the paper's quoted ranges: {worst:.1} m");
    if worst <= 4.0 {
        println!("table reproduction: PASS (the paper itself says ranges 'roughly correspond')");
    } else {
        println!("table reproduction: FAIL");
        std::process::exit(1);
    }
}
