//! # pcmac-mobility — node movement models
//!
//! The paper's scenario moves 50 nodes by **random waypoint** over a
//! 1000 m × 1000 m field at 3 m/s with a 3 s pause ("when the terminal
//! reaches its destination, it pauses for 3 seconds, then randomly
//! chooses another destination point").
//!
//! [`RandomWaypoint`] answers "where is this node at time t". It
//! advances its legs lazily: queries must be non-decreasing in time,
//! which a discrete-event simulation guarantees.
//! Lazy legs mean the trajectory is a pure function of the node's RNG
//! stream — runs with the same seed walk the same paths regardless of how
//! often positions are sampled. A station that never moves needs no
//! model: its position is the scenario's.
//!
//! [`placement`] builds initial layouts: the paper's uniform scatter plus
//! deterministic chains/grids/pairs used by tests and the asymmetric-link
//! scenario reproduction.

pub mod placement;

use pcmac_engine::{Duration, Point, RngStream, SimTime};

/// The random waypoint model.
#[derive(Debug, Clone)]
pub struct RandomWaypoint {
    rng: RngStream,
    width: f64,
    height: f64,
    speed: f64,
    pause: Duration,
    /// Current leg: travel `from → to` over `[leg_start, leg_end]`, then
    /// pause until `pause_end`.
    from: Point,
    to: Point,
    leg_start: SimTime,
    leg_end: SimTime,
    pause_end: SimTime,
}

impl RandomWaypoint {
    /// Start at `start`, walking the `width × height` field at `speed` m/s
    /// with `pause` between legs. `rng` owns the waypoint draws.
    pub fn new(
        start: Point,
        width: f64,
        height: f64,
        speed: f64,
        pause: Duration,
        mut rng: RngStream,
    ) -> Self {
        assert!(speed > 0.0 && width > 0.0 && height > 0.0);
        let to = Point::new(rng.uniform(0.0, width), rng.uniform(0.0, height));
        let travel = Duration::from_secs_f64(start.distance(to) / speed);
        let leg_end = SimTime::ZERO + travel;
        RandomWaypoint {
            rng,
            width,
            height,
            speed,
            pause,
            from: start,
            to,
            leg_start: SimTime::ZERO,
            leg_end,
            pause_end: leg_end + pause,
        }
    }

    /// The paper's parameters: 1000 m × 1000 m, 3 m/s, 3 s pause.
    pub fn paper_default(start: Point, rng: RngStream) -> Self {
        RandomWaypoint::new(start, 1000.0, 1000.0, 3.0, Duration::from_secs(3), rng)
    }

    /// Position at `now` (non-decreasing queries).
    pub fn position(&mut self, now: SimTime) -> Point {
        while now >= self.pause_end {
            self.advance_leg();
        }
        if now >= self.leg_end {
            // Pausing at the waypoint.
            return self.to;
        }
        let leg = self.leg_end.saturating_since(self.leg_start).as_secs_f64();
        if leg == 0.0 {
            return self.to;
        }
        let t = now.saturating_since(self.leg_start).as_secs_f64() / leg;
        self.from.lerp(self.to, t)
    }

    /// The earliest instant at which this node's position *could* have
    /// drifted `pad` metres away from where it stands at `now` — the
    /// node's refresh deadline for a spatial index that tolerates `pad`
    /// metres of staleness. Until the returned instant (exclusive), the
    /// position at any queried time is guaranteed within `pad` of the
    /// position at `now`.
    ///
    /// The bound is `now + pad/speed` (speed is an upper bound on
    /// displacement rate) and is valid for any leg state; when the model
    /// has been advanced to `now` (i.e. right after `position(now)`) and
    /// the node is pausing at a waypoint, the horizon extends to
    /// `pause_end + pad/speed` since no movement happens before the
    /// pause ends. The drift interval rounds *down* to whole
    /// nanoseconds, so the guarantee is never overestimated.
    pub fn stale_after(&self, now: SimTime, pad: f64) -> SimTime {
        debug_assert!(pad > 0.0 && pad.is_finite());
        let drift_ns = (pad / self.speed * 1e9).floor().clamp(0.0, u64::MAX as f64) as u64;
        let base = if now >= self.leg_end && now < self.pause_end {
            // Pausing at the waypoint: guaranteed still until pause_end.
            self.pause_end
        } else {
            now
        };
        SimTime::from_nanos(base.as_nanos().saturating_add(drift_ns))
    }

    /// `true` when `other` walks the same field at the same speed and
    /// pause — what a scenario fixes — whatever leg either is on.
    pub fn same_walk(&self, other: &RandomWaypoint) -> bool {
        (self.width, self.height, self.speed, self.pause)
            == (other.width, other.height, other.speed, other.pause)
    }

    fn advance_leg(&mut self) {
        self.from = self.to;
        self.to = Point::new(
            self.rng.uniform(0.0, self.width),
            self.rng.uniform(0.0, self.height),
        );
        self.leg_start = self.pause_end;
        let travel = Duration::from_secs_f64(self.from.distance(self.to) / self.speed);
        self.leg_end = self.leg_start + travel;
        self.pause_end = self.leg_end + self.pause;
    }
}

mod snap {
    //! Checkpoint capture of mobility. The waypoint model is a pure
    //! function of its RNG stream and current leg, so capturing both
    //! makes the restored trajectory identical for all queries at or
    //! after the cut time.

    use super::RandomWaypoint;

    pcmac_snap::snap_struct!(RandomWaypoint {
        rng,
        width,
        height,
        speed,
        pause,
        from,
        to,
        leg_start,
        leg_end,
        pause_end,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(i: u64) -> RngStream {
        RngStream::derive_sub(99, "mobility-test", i)
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn waypoint_stays_in_bounds() {
        let mut w = RandomWaypoint::paper_default(Point::new(500.0, 500.0), rng(1));
        for i in 0..4000 {
            let p = w.position(t(i as f64 * 0.25));
            assert!((0.0..=1000.0).contains(&p.x), "x={} at step {i}", p.x);
            assert!((0.0..=1000.0).contains(&p.y), "y={} at step {i}", p.y);
        }
    }

    #[test]
    fn speed_never_exceeds_configured() {
        let mut w = RandomWaypoint::paper_default(Point::new(100.0, 100.0), rng(2));
        let dt = 0.5;
        let mut last = w.position(t(0.0));
        for i in 1..2000 {
            let p = w.position(t(i as f64 * dt));
            let v = last.distance(p) / dt;
            assert!(v <= 3.0 + 1e-6, "speed {v} m/s at step {i}");
            last = p;
        }
    }

    #[test]
    fn node_actually_travels() {
        let mut w = RandomWaypoint::paper_default(Point::new(0.0, 0.0), rng(3));
        let start = w.position(t(0.0));
        let later = w.position(t(120.0));
        assert!(start.distance(later) > 1.0, "node should have moved");
    }

    #[test]
    fn pauses_at_waypoints() {
        // Directly observe a pause: position at leg_end equals position at
        // leg_end + pause (modulo the next leg not starting early).
        let mut w = RandomWaypoint::new(
            Point::new(0.0, 0.0),
            100.0,
            100.0,
            10.0,
            Duration::from_secs(3),
            rng(4),
        );
        let leg_end = w.leg_end;
        let at_arrival = w.position(leg_end);
        let mid_pause = w.position(leg_end + Duration::from_millis(1500));
        assert_eq!(at_arrival, mid_pause, "no movement during the pause");
    }

    #[test]
    fn same_seed_same_trajectory() {
        let mut a = RandomWaypoint::paper_default(Point::new(7.0, 7.0), rng(5));
        let mut b = RandomWaypoint::paper_default(Point::new(7.0, 7.0), rng(5));
        for i in 0..500 {
            // Different sampling patterns, same instants where compared.
            let ta = t(i as f64 * 0.9);
            assert_eq!(a.position(ta), b.position(ta));
        }
    }

    #[test]
    fn a_walk_is_its_field_speed_and_pause() {
        let walk = |speed: f64, pause: u64, i: u64| {
            RandomWaypoint::new(
                Point::new(i as f64, 0.0),
                100.0,
                100.0,
                speed,
                Duration::from_secs(pause),
                rng(i),
            )
        };
        let mut a = walk(10.0, 3, 1);
        let _ = a.position(t(30.0));
        assert!(a.same_walk(&walk(10.0, 3, 2)), "start, seed and leg aside");
        assert!(!a.same_walk(&walk(11.0, 3, 1)));
        assert!(!a.same_walk(&walk(10.0, 4, 1)));
        assert!(!a.same_walk(&RandomWaypoint::paper_default(Point::new(1.0, 0.0), rng(1))));
    }

    #[test]
    fn stale_horizon_is_at_least_pad_over_speed() {
        let mut w = RandomWaypoint::paper_default(Point::new(500.0, 500.0), rng(8));
        for i in 0..200 {
            let now = t(i as f64 * 1.7);
            let _ = w.position(now);
            let h = w.stale_after(now, 12.0);
            // 3 m/s ⇒ 12 m of drift takes at least 4 s.
            assert!(h >= now + Duration::from_secs(4), "step {i}");
        }
    }

    #[test]
    fn stale_horizon_extends_through_pauses() {
        let mut w = RandomWaypoint::new(
            Point::new(0.0, 0.0),
            100.0,
            100.0,
            10.0,
            Duration::from_secs(3),
            rng(9),
        );
        let leg_end = w.leg_end;
        let _ = w.position(leg_end);
        // Mid-pause: the node cannot drift before pause_end, so the
        // horizon covers the remaining pause plus pad/speed.
        let h = w.stale_after(leg_end, 5.0);
        assert_eq!(h, w.pause_end + Duration::from_millis(500));
    }

    #[test]
    fn sampling_rate_does_not_change_trajectory() {
        let mut dense = RandomWaypoint::paper_default(Point::new(3.0, 3.0), rng(6));
        let mut sparse = RandomWaypoint::paper_default(Point::new(3.0, 3.0), rng(6));
        let mut dense_samples = Vec::new();
        for i in 0..1000 {
            let p = dense.position(t(i as f64 * 0.1));
            if i % 10 == 0 {
                dense_samples.push(p);
            }
        }
        for (k, want) in dense_samples.iter().enumerate() {
            let got = sparse.position(t(k as f64));
            assert!(
                want.distance(got) < 1e-9,
                "trajectory diverged at t={k}s: {want:?} vs {got:?}"
            );
        }
    }
}
