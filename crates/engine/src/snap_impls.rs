//! [`Snap`] implementations for the kernel's value types.
//!
//! Everything here is a plain-old-data wrapper (times, ids, geometry,
//! power units, RNG state, timer generations); the representations are
//! exact — `f64`s travel as bit patterns, integers as fixed-width
//! little-endian — so a restored value is indistinguishable from the
//! original.

use pcmac_snap::{Snap, SnapError, SnapReader, SnapWriter};

use crate::geom::{Point, Vector};
use crate::ids::{FlowId, NodeId, PacketId, SessionId};
use crate::rng::RngStream;
use crate::time::{Duration, SimTime};
use crate::timer::{TimerSlot, TimerToken};

impl Snap for SimTime {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.as_nanos());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(SimTime::from_nanos(r.u64()?))
    }
}

impl Snap for Duration {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.as_nanos());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Duration::from_nanos(r.u64()?))
    }
}

impl Snap for NodeId {
    fn save(&self, w: &mut SnapWriter) {
        w.u32(self.0);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(NodeId(r.u32()?))
    }
}

impl Snap for FlowId {
    fn save(&self, w: &mut SnapWriter) {
        w.u32(self.0);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(FlowId(r.u32()?))
    }
}

impl Snap for PacketId {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.0);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(PacketId(r.u64()?))
    }
}

impl Snap for SessionId {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.0);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(SessionId(r.u64()?))
    }
}

impl Snap for Point {
    fn save(&self, w: &mut SnapWriter) {
        w.f64(self.x);
        w.f64(self.y);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Point {
            x: r.f64()?,
            y: r.f64()?,
        })
    }
}

impl Snap for Vector {
    fn save(&self, w: &mut SnapWriter) {
        w.f64(self.x);
        w.f64(self.y);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Vector {
            x: r.f64()?,
            y: r.f64()?,
        })
    }
}

impl Snap for crate::units::Milliwatts {
    fn save(&self, w: &mut SnapWriter) {
        w.f64(self.0);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(crate::units::Milliwatts(r.f64()?))
    }
}

impl Snap for RngStream {
    fn save(&self, w: &mut SnapWriter) {
        self.state().save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(RngStream::from_state(<[u64; 4]>::load(r)?))
    }
}

impl Snap for TimerToken {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.value());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(TimerToken::from_value(r.u64()?))
    }
}

impl Snap for TimerSlot {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.generation());
        self.is_armed().save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let generation = r.u64()?;
        let armed = bool::load(r)?;
        if generation >= TimerSlot::GENERATION_LIMIT {
            return Err(SnapError::Corrupt(
                "timer generation beyond the packed slot",
            ));
        }
        Ok(TimerSlot::from_parts(generation, armed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Snap>(v: &T) -> T {
        let mut w = SnapWriter::new();
        v.save(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::open(&bytes).expect("envelope");
        let back = T::load(&mut r).expect("load");
        assert!(r.is_exhausted());
        back
    }

    #[test]
    fn rng_stream_resumes_exactly() {
        let mut a = RngStream::derive(99, "snapshot");
        for _ in 0..17 {
            a.below(1000);
        }
        let mut b = round_trip(&a);
        for _ in 0..100 {
            assert_eq!(a.below(1_000_000), b.below(1_000_000));
            assert_eq!(a.unit().to_bits(), b.unit().to_bits());
        }
    }

    #[test]
    fn timer_slot_round_trips_mid_generation() {
        let mut s = TimerSlot::new();
        let _ = s.arm();
        let t = s.arm();
        let mut back = round_trip(&s);
        assert_eq!(back.generation(), 2);
        assert!(back.is_armed());
        assert!(back.fire(round_trip(&t)));
    }

    #[test]
    fn timer_slot_restore_refuses_a_generation_the_slot_cannot_hold() {
        let slot = |generation: u64| {
            let mut w = SnapWriter::new();
            w.u64(generation);
            true.save(&mut w);
            TimerSlot::load(&mut SnapReader::over(w.payload()))
        };
        let last = slot(TimerSlot::GENERATION_LIMIT - 1).expect("the largest generation loads");
        assert_eq!(last.generation(), TimerSlot::GENERATION_LIMIT - 1);
        assert!(last.is_armed());
        assert_eq!(
            slot(TimerSlot::GENERATION_LIMIT).err(),
            Some(SnapError::Corrupt(
                "timer generation beyond the packed slot"
            ))
        );
        assert!(slot(u64::MAX).is_err());
    }

    #[test]
    fn value_types_round_trip() {
        assert_eq!(
            round_trip(&SimTime::from_nanos(123_456_789)),
            SimTime::from_nanos(123_456_789)
        );
        assert_eq!(
            round_trip(&Duration::from_nanos(42)),
            Duration::from_nanos(42)
        );
        assert_eq!(round_trip(&NodeId(7)), NodeId(7));
        let p = round_trip(&Point::new(1.25, -0.0));
        assert_eq!(p.x.to_bits(), 1.25f64.to_bits());
        assert_eq!(p.y.to_bits(), (-0.0f64).to_bits());
    }
}
