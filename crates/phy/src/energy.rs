//! Per-node radiated-energy accounting.
//!
//! The paper's evaluation section measures throughput and delay, but its
//! motivation — and the related work it positions against — is battery
//! energy. The meter lets every experiment also report the energy a
//! station puts on the air, so the "power saving" side of power control
//! is quantifiable: radiated energy per delivered packet is the repo's
//! second headline number.
//!
//! Model: a station radiates the power of the level its MAC selected for
//! as long as a data frame is on the air, and nothing otherwise. No
//! electronics draw is modelled; that is the term transmit power control
//! does not touch.

use pcmac_engine::{Milliwatts, SimTime};

/// Integrates radiated power over time.
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    /// The power on the air; zero while the station is silent.
    on_air: Milliwatts,
    /// When `on_air` last changed.
    since: SimTime,
    /// Radiated energy so far (millijoules).
    radiated_mj: f64,
}

impl EnergyMeter {
    /// A meter starting silent at `t0`.
    pub const fn new(t0: SimTime) -> Self {
        EnergyMeter {
            on_air: Milliwatts::ZERO,
            since: t0,
            radiated_mj: 0.0,
        }
    }

    /// A transmission at `power` (positive: a level of the scenario's
    /// table) goes on the air at `now`.
    pub fn start_tx(&mut self, now: SimTime, power: Milliwatts) {
        debug_assert!(power.value() > 0.0, "a transmission radiates");
        self.accumulate(now);
        self.on_air = power;
    }

    /// The station falls silent at `now`.
    pub fn end_tx(&mut self, now: SimTime) {
        self.accumulate(now);
        self.on_air = Milliwatts::ZERO;
    }

    /// Fold in the elapsed interval at the power on the air.
    fn accumulate(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.since).as_secs_f64();
        self.since = now;
        self.radiated_mj += self.on_air.value() * dt;
    }

    /// Close the books at `end`: a transmission still on the air counts
    /// up to `end`.
    pub fn finish(&mut self, end: SimTime) {
        self.accumulate(end);
    }

    /// Radiated energy (millijoules) — the quantity power control
    /// directly reduces.
    pub fn radiated_mj(&self) -> f64 {
        self.radiated_mj
    }
}

mod snap {
    //! Checkpoint capture of the integrator: the power on the air, when
    //! it last changed, and the radiated total as an `f64` bit pattern,
    //! so a restored meter keeps integrating from exactly where the
    //! original left off.

    use super::EnergyMeter;

    pcmac_snap::snap_struct!(EnergyMeter {
        on_air,
        since,
        radiated_mj,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmac_engine::Duration;
    use pcmac_snap::{Snap, SnapReader, SnapWriter};

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + Duration::from_millis(ms)
    }

    #[test]
    fn transmit_adds_radiated_power() {
        let mut m = EnergyMeter::new(t(0));
        m.start_tx(t(0), Milliwatts(281.83815));
        m.end_tx(t(100));
        m.finish(t(1000));
        // 281.83815 mW × 0.1 s
        assert!((m.radiated_mj() - 28.183815).abs() < 1e-9);
    }

    #[test]
    fn lower_power_level_radiates_less() {
        let run = |p: f64| {
            let mut m = EnergyMeter::new(t(0));
            m.start_tx(t(0), Milliwatts(p));
            m.end_tx(t(50));
            m.finish(t(100));
            m.radiated_mj()
        };
        let high = run(281.83815);
        let low = run(1.0);
        assert!(low < high / 100.0);
    }

    #[test]
    fn finish_counts_a_transmission_still_on_the_air() {
        let mut m = EnergyMeter::new(t(0));
        m.start_tx(t(20), Milliwatts(15.0));
        m.finish(t(120));
        assert!((m.radiated_mj() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn zero_length_intervals_are_free() {
        let mut m = EnergyMeter::new(t(0));
        m.start_tx(t(0), Milliwatts(100.0));
        m.end_tx(t(0));
        m.finish(t(0));
        assert_eq!(m.radiated_mj(), 0.0);
    }

    fn saved(m: &EnergyMeter) -> Vec<u8> {
        let mut w = SnapWriter::new();
        m.save(&mut w);
        w.payload().to_vec()
    }

    fn loaded(bytes: &[u8]) -> EnergyMeter {
        EnergyMeter::load(&mut SnapReader::over(bytes)).expect("bytes it wrote")
    }

    /// A meter mid-transmission with some energy behind it.
    fn busy() -> EnergyMeter {
        let mut m = EnergyMeter::new(t(0));
        m.start_tx(t(10), Milliwatts(36.6));
        m.end_tx(t(30));
        m.start_tx(t(40), Milliwatts(75.8));
        m
    }

    #[test]
    fn silent_and_transmitting_meters_round_trip() {
        let mut silent = busy();
        silent.end_tx(t(45));
        for m in [EnergyMeter::new(t(0)), busy(), silent] {
            let bytes = saved(&m);
            assert_eq!(bytes.len(), 24);
            let mut back = loaded(&bytes);
            assert_eq!(saved(&back), bytes);
            let mut m = m;
            m.finish(t(90));
            back.finish(t(90));
            assert_eq!(back.radiated_mj().to_bits(), m.radiated_mj().to_bits());
        }
    }
}
