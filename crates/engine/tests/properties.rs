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

        /// Over arbitrary update sequences — jumps across cells and
        /// nudges inside one — a query whose cells' stamps have not
        /// passed the clock it was cached at still returns what it did.
        #[test]
        fn an_unchanged_stamp_keeps_a_cached_query_exact(
            coords in proptest::collection::vec((0.0f64..1000.0, 0.0f64..1000.0), 2..60),
            moves in proptest::collection::vec(
                (0usize..60, -1200.0f64..1200.0, -1200.0f64..1200.0, any::<bool>()),
                1..80,
            ),
            probes in proptest::collection::vec((0.0f64..1000.0, 0.0f64..1000.0, 0.0f64..600.0), 1..6),
            cell in 20.0f64..500.0,
        ) {
            let mut pts = points(&coords);
            let mut grid = UniformGrid::new(1000.0, 1000.0, cell, &pts);
            let query = |grid: &UniformGrid, c: Point, r: f64| {
                let mut out = Vec::new();
                grid.query_circle(c, r, None, &mut out);
                out
            };
            let mut cached: Vec<(Vec<u32>, u64)> = probes
                .iter()
                .map(|&(x, y, r)| (query(&grid, Point::new(x, y), r), grid.clock()))
                .collect();
            for &(node, dx, dy, nudge) in &moves {
                let node = node % pts.len();
                let scale = if nudge { 0.01 } else { 1.0 };
                let p = pts[node];
                pts[node] = Point::new(
                    (p.x + dx * scale).clamp(0.0, 1000.0),
                    (p.y + dy * scale).clamp(0.0, 1000.0),
                );
                grid.update(node as u32, pts[node]);
                for (&(x, y, r), (ids, at)) in probes.iter().zip(&mut cached) {
                    let c = Point::new(x, y);
                    let fresh = query(&grid, c, r);
                    if grid.stamp_of(c, r) <= *at {
                        prop_assert_eq!(&*ids, &fresh);
                    } else {
                        (*ids, *at) = (fresh, grid.clock());
                    }
                }
            }
        }
    }
}

mod cursor_properties {
    //! A queue whose fan-outs are walked through held cursors fires
    //! exactly what the same logical events pop when each gets its own
    //! entry — whatever bound or budget interrupts a walk, and whatever
    //! the handled events schedule in the middle of one.

    use pcmac_engine::{EventQueue, SimTime};
    use proptest::prelude::*;

    /// A logical event of the model: a transmission launching its
    /// fan-out, a timer, one receiver's arrival start / end, or what a
    /// receiver schedules in reaction to an arrival start.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Ev {
        Tx(usize),
        Timer(usize),
        Arrival { fan: usize, node: u32, end: bool },
        React { fan: usize, node: u32 },
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

    /// The scenario: fan-outs, timers, and the reactions — `(delay,
    /// rank class)` of the plain event an arrival start schedules while
    /// it is being handled, i.e. in the middle of a walk. Classes 1, 5
    /// and 7 sit below, between and above the arrival classes 0 and 4, so
    /// a zero-delay reaction lands at the instant of the list's next
    /// element with a lower or a higher rank, and a short one strictly
    /// before it.
    struct Model {
        fans: Vec<Fan>,
        timers: Vec<(u64, u32)>,
        reacts: Vec<(u64, u8)>,
    }

    type Popped = Vec<(SimTime, u128, Ev)>;

    impl Model {
        fn seed<E>(&self, q: &mut EventQueue<E>, wrap: fn(Ev) -> E) {
            for (f, fan) in self.fans.iter().enumerate() {
                let rank = (2u128 << 96) | f as u128;
                q.schedule_ranked(SimTime::from_nanos(fan.at), rank, wrap(Ev::Tx(f)));
            }
            for (i, &(at, node)) in self.timers.iter().enumerate() {
                // Pairs of timers share a full `(at, rank)` whenever their
                // instants agree, so the sequence number arbitrates too.
                let rank = (6u128 << 96) | ((node as u128) << 64) | (i / 2) as u128;
                q.schedule_ranked(SimTime::from_nanos(at), rank, wrap(Ev::Timer(i)));
            }
        }

        /// The plain event handling `ev` at `at` schedules, if any.
        fn reaction(&self, at: SimTime, ev: Ev) -> Option<(SimTime, u128, Ev)> {
            let Ev::Arrival {
                fan,
                node,
                end: false,
            } = ev
            else {
                return None;
            };
            if self.reacts.is_empty() {
                return None;
            }
            let (delay, class) = self.reacts[(fan * 8 + node as usize) % self.reacts.len()];
            // `(fan, node)` names one arrival start, so the rank is unique.
            let rank = ((class as u128) << 96) | ((node as u128) << 64) | fan as u128;
            let at = SimTime::from_nanos(at.as_nanos() + delay);
            Some((at, rank, Ev::React { fan, node }))
        }

        /// Reference: every arrival is its own entry. Returns the pop
        /// sequence, the pending population before each pop (and after
        /// the last), and the schedule count.
        fn one_by_one(&self) -> (Popped, Vec<Popped>, u64) {
            let mut q = EventQueue::new();
            self.seed(&mut q, |ev| ev);
            let (mut popped, mut pending) = (Vec::new(), Vec::new());
            loop {
                pending.push(q.pending_logical(|at, rank, &ev, out| out.push((at, rank, ev))));
                let Some(e) = q.pop() else { break };
                popped.push((e.at, e.rank, e.event));
                if let Ev::Tx(f) = e.event {
                    for (i, &(_, node)) in self.fans[f].rx.iter().enumerate() {
                        for end in [false, true] {
                            let (at, rank) = self.fans[f].key(f, i, end);
                            q.schedule_ranked(at, rank, Ev::Arrival { fan: f, node, end });
                        }
                    }
                }
                if let Some((at, rank, ev)) = self.reaction(e.at, e.event) {
                    q.schedule_ranked(at, rank, ev);
                }
            }
            (popped, pending, q.scheduled_total())
        }
    }

    /// The same model with two cursors per transmission, driven the way
    /// the simulator drives its queue.
    struct Walker<'a> {
        model: &'a Model,
        q: EventQueue<Entry>,
        /// Next un-fired receiver per fan-out: [start cursor, end cursor].
        walked: Vec<[usize; 2]>,
        popped: Popped,
    }

    impl<'a> Walker<'a> {
        fn new(model: &'a Model) -> Self {
            let mut q = EventQueue::new();
            model.seed(&mut q, Entry::Plain);
            Walker {
                model,
                q,
                walked: vec![[0; 2]; model.fans.len()],
                popped: Vec::new(),
            }
        }

        /// Handle one logical event, its key already fired.
        fn handle(&mut self, at: SimTime, rank: u128, ev: Ev) {
            assert_eq!(self.q.now(), at, "the clock follows every fired key");
            self.popped.push((at, rank, ev));
            if let Ev::Tx(f) = ev {
                let fan = &self.model.fans[f];
                if !fan.rx.is_empty() {
                    self.q.count_scheduled(2 * fan.rx.len() as u64);
                    for end in [false, true] {
                        let (at, rank) = fan.key(f, 0, end);
                        self.q.push_cursor(at, rank, Entry::Cursor { fan: f, end });
                    }
                }
            }
            if let Some((at, rank, ev)) = self.model.reaction(at, ev) {
                self.q.schedule_ranked(at, rank, Entry::Plain(ev));
            }
        }

        /// Fire at most `budget` logical events, all strictly before
        /// `until`; returns how many fired. No cursor is held on return.
        fn advance(&mut self, until: SimTime, budget: usize) -> usize {
            let mut fired = 0;
            while fired < budget {
                if self.q.peek().is_none_or(|top| top.at >= until) {
                    break;
                }
                let e = self.q.pop().expect("peeked");
                let (fan, end) = match e.event {
                    Entry::Plain(ev) => {
                        self.handle(e.at, e.rank, ev);
                        fired += 1;
                        continue;
                    }
                    Entry::Cursor { fan, end } => (fan, end),
                };
                // Hold the cursor: walk its list while the next element
                // precedes everything in the heap, inside bound and budget.
                let list = &self.model.fans[fan];
                let mut i = self.walked[fan][end as usize];
                let mut key = (e.at, e.rank);
                assert_eq!(key, list.key(fan, i, end), "cursor keyed with its head");
                loop {
                    let node = list.rx[i].1;
                    self.handle(key.0, key.1, Ev::Arrival { fan, node, end });
                    fired += 1;
                    i += 1;
                    if i == list.rx.len() {
                        break;
                    }
                    key = list.key(fan, i, end);
                    let overtaken = self.q.peek().is_some_and(|top| (top.at, top.rank) < key);
                    if fired == budget || key.0 >= until || overtaken {
                        self.q.push_cursor(key.0, key.1, Entry::Cursor { fan, end });
                        break;
                    }
                    self.q.fire(key.0);
                }
                self.walked[fan][end as usize] = i;
            }
            fired
        }

        fn pending(&self) -> Popped {
            self.q.pending_logical(|at, rank, &entry, out| match entry {
                Entry::Plain(ev) => out.push((at, rank, ev)),
                Entry::Cursor { fan, end } => {
                    let list = &self.model.fans[fan];
                    for i in self.walked[fan][end as usize]..list.rx.len() {
                        let (at, rank) = list.key(fan, i, end);
                        let node = list.rx[i].1;
                        out.push((at, rank, Ev::Arrival { fan, node, end }));
                    }
                }
            })
        }
    }

    /// The two overtakes, spelled out: a plain event scheduled while an
    /// arrival is handled fires before
    /// the list's next element when it shares that element's instant
    /// under a lower rank, and when it is strictly earlier.
    #[test]
    fn an_event_scheduled_mid_walk_overtakes_the_rest_of_the_list() {
        for (reaction, rx) in [
            // Nodes 1 and 2 hear the frame at the same instant; node 1's
            // zero-delay class-1 reaction ranks below node 2's start.
            ((0, 1), vec![(2, 1), (2, 2)]),
            // Node 1's reaction at +1 precedes node 2's start at +3.
            ((1, 7), vec![(2, 1), (5, 2)]),
        ] {
            let model = Model {
                fans: vec![Fan {
                    at: 10,
                    airtime: 100,
                    rx,
                }],
                timers: Vec::new(),
                reacts: vec![reaction],
            };
            let (want, _, want_total) = model.one_by_one();
            let order: Vec<Ev> = want.iter().map(|p| p.2).collect();
            let start = |node| Ev::Arrival {
                fan: 0,
                node,
                end: false,
            };
            let first_react = Ev::React { fan: 0, node: 1 };
            assert_eq!(order[..4], [Ev::Tx(0), start(1), first_react, start(2)]);
            let mut walker = Walker::new(&model);
            walker.advance(SimTime::MAX, usize::MAX);
            assert_eq!(walker.popped, want);
            assert_eq!(walker.q.scheduled_total(), want_total);
        }
    }

    proptest! {
        /// Small time ranges force every interesting collision: equal
        /// delays inside one fan-out, overlapping fan-outs, timers and
        /// reactions at arrival instants, and airtimes shorter than the
        /// delay spread (the start cursor runs dry while the end cursor
        /// is mid-walk).
        #[test]
        fn cursors_pop_the_one_by_one_sequence(
            raw in proptest::collection::vec(
                (0u64..40, 1u64..12, proptest::collection::vec((0u64..6, 0u32..8), 0..10)),
                1..6,
            ),
            timers in proptest::collection::vec((0u64..60, 0u32..8), 0..30),
            reacts in proptest::collection::vec((0u64..3, 0usize..3), 0..5),
            window in 1u64..9,
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
            let reacts = reacts.into_iter().map(|(d, c)| (d, [1u8, 5, 7][c])).collect();
            let model = Model { fans, timers, reacts };
            let (want, want_pending, want_total) = model.one_by_one();
            let arrivals: usize = model.fans.iter().map(|f| 2 * f.rx.len()).sum();
            prop_assert!(want.len() >= model.fans.len() + model.timers.len() + arrivals);

            // One unbounded advance: walks end only where the heap's top
            // overtakes them.
            let mut all = Walker::new(&model);
            all.advance(SimTime::MAX, usize::MAX);
            prop_assert_eq!(&all.popped, &want);
            prop_assert_eq!(all.q.scheduled_total(), want_total);
            prop_assert!(all.q.is_empty());

            // One event per call: every walk is cut after its head, and
            // the pending population between any two events is the
            // reference's.
            let mut single = Walker::new(&model);
            loop {
                prop_assert_eq!(&single.pending(), &want_pending[single.popped.len()]);
                if single.advance(SimTime::MAX, 1) == 0 {
                    break;
                }
            }
            prop_assert_eq!(&single.popped, &want);
            prop_assert_eq!(single.q.scheduled_total(), want_total);

            // Windows: a time bound cuts walks mid-list, nothing at or
            // past the bound fires early, and the pending population at
            // each boundary is the reference's.
            let mut windowed = Walker::new(&model);
            let mut bound = 0;
            while !windowed.q.is_empty() {
                bound += window;
                let until = SimTime::from_nanos(bound);
                windowed.advance(until, usize::MAX);
                prop_assert!(windowed.popped.last().is_none_or(|p| p.0 < until));
                prop_assert!(windowed.q.peek().is_none_or(|top| top.at >= until));
                prop_assert_eq!(&windowed.pending(), &want_pending[windowed.popped.len()]);
            }
            prop_assert_eq!(&windowed.popped, &want);
            prop_assert_eq!(windowed.q.scheduled_total(), want_total);
        }
    }
}

mod vecmap_properties {
    use std::collections::BTreeMap;

    use pcmac_engine::VecMap;
    use proptest::prelude::*;

    proptest! {
        /// Any sequence of inserts, lookups, removals, in-place updates
        /// and retains leaves a `VecMap` with a `BTreeMap`'s content, in
        /// its key order, every answer along the way equal, and no more
        /// slots allocated than it held at its fullest.
        #[test]
        fn vecmap_behaves_as_a_btreemap(
            ops in proptest::collection::vec((0u8..6, 0u16..40, 0u32..1000), 0..300),
        ) {
            let mut got = VecMap::new();
            let mut want = BTreeMap::new();
            let mut fullest = 0;
            for &(op, key, val) in &ops {
                match op {
                    0 | 1 => prop_assert_eq!(got.insert(key, val), want.insert(key, val)),
                    2 => prop_assert_eq!(got.remove(&key), want.remove(&key)),
                    3 => {
                        *got.get_or_insert_with(key, || val) += 1;
                        *want.entry(key).or_insert(val) += 1;
                    }
                    4 => {
                        if let Some(v) = got.get_mut(&key) {
                            *v ^= val;
                        }
                        if let Some(v) = want.get_mut(&key) {
                            *v ^= val;
                        }
                    }
                    _ => {
                        got.retain(|k, v| (u32::from(*k) + *v) % 3 != val % 3);
                        want.retain(|k, v| (u32::from(*k) + *v) % 3 != val % 3);
                    }
                }
                fullest = fullest.max(want.len());
                prop_assert_eq!(got.get(&key), want.get(&key));
                prop_assert_eq!(got.contains_key(&key), want.contains_key(&key));
                prop_assert_eq!(got.len(), want.len());
                prop_assert_eq!(got.is_empty(), want.is_empty());
            }
            let pairs: Vec<(u16, u32)> = got.iter().map(|(k, v)| (*k, *v)).collect();
            let expect: Vec<(u16, u32)> = want.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(pairs, expect);
            for (_, v) in got.iter_mut() {
                *v = v.wrapping_mul(3);
            }
            for (k, v) in got.iter() {
                prop_assert_eq!(*v, want[k].wrapping_mul(3));
            }
            prop_assert!(got.capacity() <= fullest, "{} slots for {} entries", got.capacity(), fullest);
        }
    }
}

/// The calendar queue against a reference binary heap of `(at, rank,
/// seq)`: the same pushes, pops, fired keys and captures, in instants
/// that stay inside one bucket, cross the window and leave it by seconds.
mod calendar_properties {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use pcmac_engine::queue::WINDOW;
    use pcmac_engine::{EventQueue, SimTime};
    use proptest::prelude::*;

    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Schedule `gap` ns after the clock with a rank drawn from a
        /// few, so equal `(at, rank)` pairs are common.
        Push {
            gap: u64,
            rank: u8,
        },
        /// Schedule at the clock, one rank below the last popped event:
        /// what a handler does when it reacts at once.
        PushNowBelow,
        Pop,
        /// Move the clock `gap` ns without popping, when nothing pending
        /// comes first — a held cursor's fired key.
        Fire {
            gap: u64,
        },
        /// Compare the whole pending population.
        Capture,
    }

    /// One operation's draws: `(kind, scale, word, rank)`.
    type Draw = (u8, u8, u64, u8);

    /// One operation from its draws. Gaps are zero, inside two buckets,
    /// up to two windows, or from one window to three seconds — past the
    /// window, into the overflow heap.
    fn decode((kind, scale, word, rank): Draw) -> Op {
        let window = WINDOW.as_nanos();
        let gap = match scale {
            0 => 0,
            1 => word % 8_192,
            2 => word % (2 * window),
            _ => window + word % 3_000_000_000,
        };
        match kind {
            0..=3 => Op::Push { gap, rank },
            4 => Op::PushNowBelow,
            5..=8 => Op::Pop,
            9 => Op::Fire { gap: word % 20_000 },
            _ => Op::Capture,
        }
    }

    /// The reference: `(at, rank, seq)` in a min-heap, payload `seq`.
    #[derive(Default)]
    struct Reference {
        heap: BinaryHeap<Reverse<(SimTime, u128, u64)>>,
        seq: u64,
    }

    impl Reference {
        fn push(&mut self, at: SimTime, rank: u128) -> u64 {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Reverse((at, rank, seq)));
            seq
        }
    }

    fn run(start_s: Option<u64>, draws: &[Draw]) -> Result<(), String> {
        let (mut q, base) = match start_s {
            Some(s) => (
                EventQueue::restored(SimTime::from_nanos(s * 1_000_000_000), 7),
                7,
            ),
            None => (EventQueue::new(), 0),
        };
        let mut want = Reference::default();
        let mut now = q.now();
        let mut last_rank = 0u128;
        let mut pushed = 0u64;
        for &draw in draws {
            match decode(draw) {
                Op::Push { gap, rank } => {
                    let at = SimTime::from_nanos(now.as_nanos() + gap);
                    let seq = want.push(at, rank as u128);
                    q.schedule_ranked(at, rank as u128, seq);
                    pushed += 1;
                }
                Op::PushNowBelow => {
                    let rank = last_rank.saturating_sub(1);
                    let seq = want.push(now, rank);
                    q.schedule_ranked(now, rank, seq);
                    pushed += 1;
                }
                Op::Pop => {
                    let got = q.pop().map(|e| (e.at, e.rank, e.event));
                    let expect = want.heap.pop().map(|Reverse(k)| k);
                    prop_assert_eq!(got, expect);
                    if let Some((at, rank, _)) = expect {
                        now = at;
                        last_rank = rank;
                    }
                }
                Op::Fire { gap } => {
                    let at = SimTime::from_nanos(now.as_nanos() + gap);
                    if want.heap.peek().is_none_or(|Reverse(k)| k.0 >= at) {
                        q.fire(at);
                        now = at;
                    }
                }
                Op::Capture => {
                    let got = q.pending_logical(|at, rank, &seq, out| out.push((at, rank, seq)));
                    let mut expect: Vec<_> = want.heap.iter().map(|Reverse(k)| *k).collect();
                    expect.sort_unstable();
                    prop_assert_eq!(got, expect);
                }
            }
            prop_assert_eq!(q.now(), now);
            prop_assert_eq!(q.len(), want.heap.len());
            let top = want.heap.peek().map(|Reverse(k)| *k);
            prop_assert_eq!(q.peek().map(|k| (k.at, k.rank)), top.map(|k| (k.0, k.1)));
            for (at, rank) in [(now, 1), (now, 2), (top.map_or(now, |k| k.0), 1)] {
                let before = top.is_some_and(|k| (k.0, k.1) < (at, rank));
                prop_assert_eq!(q.next_precedes(at, rank), before);
            }
        }
        while let Some(e) = q.pop() {
            let Reverse(k) = want.heap.pop().expect("the reference holds as many");
            prop_assert_eq!((e.at, e.rank, e.event), k);
        }
        prop_assert!(want.heap.is_empty());
        prop_assert_eq!(q.scheduled_total(), base + pushed);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn calendar_pops_what_a_heap_pops(
            ops in proptest::collection::vec((0u8..11, 0u8..4, any::<u64>(), 0u8..3), 1..300),
        ) {
            run(None, &ops)?;
        }

        /// A restored queue's clock starts seconds in: its first key
        /// anchors the calendar far from zero.
        #[test]
        fn restored_calendar_pops_what_a_heap_pops(
            start_s in 1u64..500,
            ops in proptest::collection::vec((0u8..11, 0u8..4, any::<u64>(), 0u8..3), 1..300),
        ) {
            run(Some(start_s), &ops)?;
        }
    }
}
