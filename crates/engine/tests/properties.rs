//! Property-based tests for the DES kernel invariants.

use pcmac_engine::{Duration, EventQueue, Point, RngStream, SimTime, TimerSlot};
use proptest::prelude::*;

proptest! {
    /// Events always pop in nondecreasing time order, and equal-time events
    /// pop in insertion order, regardless of the insertion pattern.
    #[test]
    fn queue_pops_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_nanos(*t), i);
        }
        let mut last_time = SimTime::ZERO;
        let mut seen_at_time: Vec<usize> = Vec::new();
        let mut last_t = None;
        while let Some(ev) = q.pop() {
            prop_assert!(ev.at >= last_time);
            if Some(ev.at) == last_t {
                // insertion order within a tie: indices must increase
                prop_assert!(seen_at_time.last().is_none_or(|&prev| prev < ev.event));
            } else {
                seen_at_time.clear();
                last_t = Some(ev.at);
            }
            seen_at_time.push(ev.event);
            last_time = ev.at;
        }
    }

    /// The clock after draining equals the maximum scheduled time.
    #[test]
    fn queue_clock_ends_at_max(times in proptest::collection::vec(0u64..1_000_000, 1..100)) {
        let mut q = EventQueue::new();
        for t in &times {
            q.schedule_at(SimTime::from_nanos(*t), ());
        }
        while q.pop().is_some() {}
        prop_assert_eq!(q.now(), SimTime::from_nanos(*times.iter().max().unwrap()));
    }

    /// Duration arithmetic: (a + b) - b == a for values without overflow.
    #[test]
    fn duration_add_sub_roundtrip(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let da = Duration::from_nanos(a);
        let db = Duration::from_nanos(b);
        prop_assert_eq!((da + db) - db, da);
    }

    /// SimTime +/- Duration round-trips.
    #[test]
    fn simtime_shift_roundtrip(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t0 = SimTime::from_nanos(t);
        let dd = Duration::from_nanos(d);
        prop_assert_eq!((t0 + dd) - dd, t0);
        prop_assert_eq!((t0 + dd).since(t0), dd);
    }

    /// Identically-derived RNG streams produce identical sequences; the
    /// sequence is a pure function of (seed, label).
    #[test]
    fn rng_streams_reproducible(seed in any::<u64>(), n in 1usize..100) {
        let mut a = RngStream::derive(seed, "prop");
        let mut b = RngStream::derive(seed, "prop");
        for _ in 0..n {
            prop_assert_eq!(a.below(1 << 30), b.below(1 << 30));
        }
    }

    /// Timer slots: after an arbitrary sequence of arms/cancels, at most the
    /// final token fires, and it fires at most once.
    #[test]
    fn timer_only_latest_token_fires(ops in proptest::collection::vec(any::<bool>(), 1..50)) {
        let mut slot = TimerSlot::new();
        let mut tokens = Vec::new();
        let mut live = None;
        for arm in ops {
            if arm {
                let t = slot.arm();
                tokens.push(t);
                live = Some(t);
            } else {
                slot.cancel();
                live = None;
            }
        }
        let mut fired = 0;
        for t in tokens {
            if slot.fire(t) {
                fired += 1;
                prop_assert_eq!(Some(t), live, "only the live token may fire");
            }
        }
        prop_assert!(fired <= 1);
        prop_assert_eq!(fired, live.is_some() as usize);
    }

    /// lerp stays inside the bounding box of its endpoints.
    #[test]
    fn lerp_in_bounds(ax in -1e3..1e3, ay in -1e3..1e3,
                      bx in -1e3..1e3, by in -1e3..1e3, t in 0.0..1.0) {
        let a = Point::new(ax, ay);
        let b = Point::new(bx, by);
        let p = a.lerp(b, t);
        prop_assert!(p.x >= ax.min(bx) - 1e-9 && p.x <= ax.max(bx) + 1e-9);
        prop_assert!(p.y >= ay.min(by) - 1e-9 && p.y <= ay.max(by) + 1e-9);
    }

    /// Triangle inequality for the distance metric.
    #[test]
    fn triangle_inequality(ax in -1e3..1e3, ay in -1e3..1e3,
                           bx in -1e3..1e3, by in -1e3..1e3,
                           cx in -1e3..1e3, cy in -1e3..1e3) {
        let a = Point::new(ax, ay);
        let b = Point::new(bx, by);
        let c = Point::new(cx, cy);
        prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-9);
    }
}

mod grid_properties {
    use pcmac_engine::{Point, UniformGrid};
    use proptest::prelude::*;

    /// Reference answer: exact disc membership by full scan.
    fn brute(positions: &[Point], center: Point, radius: f64) -> Vec<u32> {
        (0..positions.len() as u32)
            .filter(|&i| positions[i as usize].distance_sq(center) <= radius * radius)
            .collect()
    }

    fn points(coords: &[(f64, f64)]) -> Vec<Point> {
        coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    proptest! {
        /// A grid query returns exactly the nodes inside the disc, in
        /// ascending id order, for arbitrary fields, cell sizes, radii
        /// and centers.
        #[test]
        fn query_equals_brute_force(
            coords in proptest::collection::vec((0.0f64..2000.0, 0.0f64..2000.0), 1..120),
            cell in 10.0f64..800.0,
            cx in -100.0f64..2100.0,
            cy in -100.0f64..2100.0,
            radius in 0.0f64..2500.0,
        ) {
            let pts = points(&coords);
            let grid = UniformGrid::new(2000.0, 2000.0, cell, &pts);
            let mut got = Vec::new();
            grid.query_circle(Point::new(cx, cy), radius, None, &mut got);
            prop_assert_eq!(got, brute(&pts, Point::new(cx, cy), radius));
        }

        /// `exclude` removes exactly that node from the result and
        /// nothing else, whether or not it lies inside the disc.
        #[test]
        fn exclusion_is_surgical(
            coords in proptest::collection::vec((0.0f64..2000.0, 0.0f64..2000.0), 1..80),
            cell in 10.0f64..800.0,
            which in 0usize..80,
            radius in 0.0f64..2500.0,
        ) {
            let pts = points(&coords);
            let grid = UniformGrid::new(2000.0, 2000.0, cell, &pts);
            let ex = (which % pts.len()) as u32;
            let center = pts[ex as usize];
            let mut got = Vec::new();
            grid.query_circle(center, radius, Some(ex), &mut got);
            let expect: Vec<u32> = brute(&pts, center, radius)
                .into_iter()
                .filter(|&n| n != ex)
                .collect();
            prop_assert_eq!(got, expect);
        }

        /// Incremental updates preserve query exactness: after an
        /// arbitrary sequence of node moves, queries still match the
        /// brute-force scan over the *current* positions.
        #[test]
        fn updates_preserve_equivalence(
            coords in proptest::collection::vec((0.0f64..1000.0, 0.0f64..1000.0), 2..60),
            moves in proptest::collection::vec((0usize..60, 0.0f64..1000.0, 0.0f64..1000.0), 1..80),
            cell in 20.0f64..500.0,
            radius in 0.0f64..1200.0,
        ) {
            let mut pts = points(&coords);
            let mut grid = UniformGrid::new(1000.0, 1000.0, cell, &pts);
            for &(node, x, y) in &moves {
                let node = node % pts.len();
                pts[node] = Point::new(x, y);
                grid.update(node as u32, pts[node]);
                let center = pts[node];
                let mut got = Vec::new();
                grid.query_circle(center, radius, None, &mut got);
                prop_assert_eq!(got, brute(&pts, center, radius));
            }
        }
    }
}

mod cursor_properties {
    //! A queue walked through cursors pops exactly what the same logical
    //! events pop when each gets its own entry.

    use pcmac_engine::{EventQueue, SimTime};
    use proptest::prelude::*;

    /// A logical event of the model: a transmission launching its
    /// fan-out, a timer, or one receiver's arrival start / end.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Ev {
        Tx(usize),
        Timer(usize),
        Arrival { fan: usize, node: u32, end: bool },
    }

    /// What sits in the cursor-driven queue.
    #[derive(Debug, Clone, Copy)]
    enum Entry {
        Plain(Ev),
        Cursor { fan: usize, end: bool },
    }

    /// One transmission: launch instant, airtime, and the receivers as
    /// `(delay, node)` sorted by `(delay, node)`.
    struct Fan {
        at: u64,
        airtime: u64,
        rx: Vec<(u64, u32)>,
    }

    impl Fan {
        /// `(at, rank)` of receiver `i`'s arrival start or end — the
        /// simulator's shape: ends rank below starts, then the node.
        fn key(&self, fan: usize, i: usize, end: bool) -> (SimTime, u128) {
            let (delay, node) = self.rx[i];
            let at = self.at + delay + if end { self.airtime } else { 0 };
            let class: u128 = if end { 0 } else { 4 };
            let rank = (class << 96) | ((node as u128) << 64) | fan as u128;
            (SimTime::from_nanos(at), rank)
        }
    }

    type Popped = Vec<(SimTime, u128, Ev)>;

    fn timer_rank(node: u32, token: usize) -> u128 {
        (6u128 << 96) | ((node as u128) << 64) | token as u128
    }

    fn seed<E>(q: &mut EventQueue<E>, fans: &[Fan], timers: &[(u64, u32)], wrap: fn(Ev) -> E) {
        for (f, fan) in fans.iter().enumerate() {
            let rank = (2u128 << 96) | f as u128;
            q.schedule_ranked(SimTime::from_nanos(fan.at), rank, wrap(Ev::Tx(f)));
        }
        for (i, &(at, node)) in timers.iter().enumerate() {
            // Pairs of timers share a full `(at, rank)` whenever their
            // instants agree, so the sequence number arbitrates too.
            let rank = timer_rank(node, i / 2);
            q.schedule_ranked(SimTime::from_nanos(at), rank, wrap(Ev::Timer(i)));
        }
    }

    /// Reference: every arrival is its own entry. Returns the pop
    /// sequence, the pending population after `probe` pops, and the
    /// schedule count.
    fn one_by_one(fans: &[Fan], timers: &[(u64, u32)], probe: usize) -> (Popped, Popped, u64) {
        let mut q = EventQueue::new();
        seed(&mut q, fans, timers, |ev| ev);
        let (mut popped, mut pending) = (Vec::new(), Vec::new());
        loop {
            if popped.len() == probe {
                pending = q.pending_logical(|e, out| out.push((e.at, e.rank, e.event)));
            }
            let Some(e) = q.pop() else { break };
            popped.push((e.at, e.rank, e.event));
            if let Ev::Tx(f) = e.event {
                for (i, &(_, node)) in fans[f].rx.iter().enumerate() {
                    for end in [false, true] {
                        let (at, rank) = fans[f].key(f, i, end);
                        q.schedule_ranked(at, rank, Ev::Arrival { fan: f, node, end });
                    }
                }
            }
        }
        (popped, pending, q.scheduled_total())
    }

    /// The same model with two cursors per transmission.
    fn through_cursors(fans: &[Fan], timers: &[(u64, u32)], probe: usize) -> (Popped, Popped, u64) {
        let mut q = EventQueue::new();
        seed(&mut q, fans, timers, Entry::Plain);
        // Next un-fired receiver per fan-out: [start cursor, end cursor].
        let mut walked = vec![[0usize; 2]; fans.len()];
        let arrival = |f: usize, i: usize, end: bool| Ev::Arrival {
            fan: f,
            node: fans[f].rx[i].1,
            end,
        };
        let (mut popped, mut pending) = (Vec::new(), Vec::new());
        loop {
            if popped.len() == probe {
                pending = q.pending_logical(|e, out| match e.event {
                    Entry::Plain(ev) => out.push((e.at, e.rank, ev)),
                    Entry::Cursor { fan, end } => {
                        for i in walked[fan][end as usize]..fans[fan].rx.len() {
                            let (at, rank) = fans[fan].key(fan, i, end);
                            out.push((at, rank, arrival(fan, i, end)));
                        }
                    }
                });
            }
            let Some(top) = q.peek() else { break };
            let (at, rank) = (top.at, top.rank);
            match top.event {
                Entry::Plain(ev) => {
                    q.pop();
                    popped.push((at, rank, ev));
                    if let Ev::Tx(f) = ev {
                        if !fans[f].rx.is_empty() {
                            q.count_scheduled(2 * fans[f].rx.len() as u64);
                            for end in [false, true] {
                                let (at, rank) = fans[f].key(f, 0, end);
                                q.push_cursor(at, rank, Entry::Cursor { fan: f, end });
                            }
                        }
                    }
                }
                Entry::Cursor { fan, end } => {
                    let i = walked[fan][end as usize];
                    walked[fan][end as usize] = i + 1;
                    popped.push((at, rank, arrival(fan, i, end)));
                    if i + 1 < fans[fan].rx.len() {
                        let (at, rank) = fans[fan].key(fan, i + 1, end);
                        q.rekey_top(at, rank);
                    } else {
                        q.pop();
                    }
                }
            }
            assert_eq!(q.now(), at, "the clock follows every fired key");
        }
        (popped, pending, q.scheduled_total())
    }

    proptest! {
        /// Small time ranges force every interesting collision: equal
        /// delays inside one fan-out, overlapping fan-outs, timers at
        /// arrival instants, and airtimes shorter than the delay spread
        /// (the start cursor runs dry while the end cursor is mid-walk).
        #[test]
        fn cursors_pop_the_one_by_one_sequence(
            raw in proptest::collection::vec(
                (0u64..40, 1u64..12, proptest::collection::vec((0u64..6, 0u32..8), 0..10)),
                1..6,
            ),
            timers in proptest::collection::vec((0u64..60, 0u32..8), 0..30),
            probe in 0usize..150,
        ) {
            let fans: Vec<Fan> = raw
                .into_iter()
                .map(|(at, airtime, mut rx)| {
                    // One arrival per node per transmission.
                    rx.sort_by_key(|&(_, node)| node);
                    rx.dedup_by_key(|r| r.1);
                    rx.sort();
                    Fan { at, airtime, rx }
                })
                .collect();
            let (want, want_pending, want_total) = one_by_one(&fans, &timers, probe);
            let (got, got_pending, got_total) = through_cursors(&fans, &timers, probe);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(got_pending, want_pending);
            prop_assert_eq!(got_total, want_total);
            let arrivals: usize = fans.iter().map(|f| 2 * f.rx.len()).sum();
            prop_assert_eq!(got.len(), fans.len() + timers.len() + arrivals);
        }
    }
}
