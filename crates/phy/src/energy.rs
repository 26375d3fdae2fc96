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
    //! Checkpoint capture of the integrator — the millijoule total is an
    //! `f64` bit pattern, so a restored meter keeps integrating from
    //! exactly where the original left off.
    //!
    //! The layout predates the radiated-only meter: an electrical model
    //! (three draws, all zero), a mode tag (0 silent, 2 transmitting), the
    //! power on the air, the last change, and three totals (all draw,
    //! transmit draw, radiated) that a zero model keeps equal bit for bit.
    //! Loading refuses what that layout can hold and this meter cannot.

    use super::EnergyMeter;
    use pcmac_engine::Milliwatts;
    use pcmac_snap::{Snap, SnapError, SnapReader, SnapWriter};

    const SILENT: u8 = 0;
    const RECEIVE: u8 = 1;
    const TRANSMIT: u8 = 2;

    impl Snap for EnergyMeter {
        fn save(&self, w: &mut SnapWriter) {
            for _ in 0..3 {
                w.f64(0.0);
            }
            w.u8(if self.on_air.value() > 0.0 {
                TRANSMIT
            } else {
                SILENT
            });
            self.on_air.save(w);
            self.since.save(w);
            for _ in 0..3 {
                w.f64(self.radiated_mj);
            }
        }

        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            for _ in 0..3 {
                if r.f64()?.to_bits() != 0 {
                    return Err(SnapError::Corrupt("energy model draws electronics power"));
                }
            }
            let tag = r.u8()?;
            let on_air = Milliwatts::load(r)?;
            match tag {
                SILENT if on_air.value().to_bits() == 0 => {}
                TRANSMIT if on_air.value() > 0.0 => {}
                SILENT | TRANSMIT => {
                    return Err(SnapError::Corrupt("radio mode and power disagree"))
                }
                RECEIVE => return Err(SnapError::Corrupt("energy meter in receive mode")),
                _ => return Err(SnapError::Corrupt("radio mode tag")),
            }
            let since = Snap::load(r)?;
            let radiated_mj = r.f64()?;
            for _ in 0..2 {
                if r.f64()?.to_bits() != radiated_mj.to_bits() {
                    return Err(SnapError::Corrupt("energy totals differ"));
                }
            }
            Ok(EnergyMeter {
                on_air,
                since,
                radiated_mj,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmac_engine::Duration;
    use pcmac_snap::{Snap, SnapError, SnapReader, SnapWriter};

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

    fn loaded(bytes: &[u8]) -> Result<EnergyMeter, SnapError> {
        EnergyMeter::load(&mut SnapReader::over(bytes))
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
            assert_eq!(bytes.len(), 65);
            let mut back = loaded(&bytes).expect("bytes it wrote");
            assert_eq!(saved(&back), bytes);
            let mut m = m;
            m.finish(t(90));
            back.finish(t(90));
            assert_eq!(back.radiated_mj().to_bits(), m.radiated_mj().to_bits());
        }
    }

    /// Bytes the old meter's layout can hold but this meter cannot: a
    /// non-zero draw, a receive tag, a mode that disagrees with the
    /// power, an unknown tag, and totals that differ.
    #[test]
    fn load_refuses_what_a_radiated_only_meter_cannot_hold() {
        let good = saved(&busy());
        let with = |at: usize, v: u8| {
            let mut b = good.clone();
            b[at] = v;
            loaded(&b).err()
        };
        let corrupt = |why| Some(SnapError::Corrupt(why));
        for draw in [0, 8, 16] {
            assert_eq!(
                with(draw + 7, 0x40),
                corrupt("energy model draws electronics power")
            );
        }
        assert_eq!(with(24, 1), corrupt("energy meter in receive mode"));
        assert_eq!(with(24, 0), corrupt("radio mode and power disagree"));
        assert_eq!(with(24, 7), corrupt("radio mode tag"));
        let mut silent = busy();
        silent.end_tx(t(45));
        let mut b = saved(&silent);
        b[24] = 2;
        assert_eq!(loaded(&b).err(), corrupt("radio mode and power disagree"));
        for total in [41, 49, 57] {
            let mut b = saved(&silent);
            b[total] ^= 1;
            assert_eq!(loaded(&b).err(), corrupt("energy totals differ"));
        }
    }
}
