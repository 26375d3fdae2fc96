//! Property-based tests for physical-layer invariants.

use pcmac_engine::{Milliwatts, Point, SimTime};
use pcmac_phy::{
    CapturePolicy, Heard, PowerLevels, Radio, RadioConfig, RadioEvent, RxRow, TwoRayGround,
};
use proptest::prelude::*;

/// A station's receive side must stay one half of a cache line: an
/// arrival that decodes nothing reads and writes this and nothing else.
#[test]
fn a_receive_row_fits_32_bytes() {
    assert!(std::mem::size_of::<RxRow>() <= 32);
}

/// What a bare row's flags say, as the events [`Radio`] would emit: the
/// caller supplies the reception event, the row the edge's direction.
fn as_events(heard: Heard, row: &RxRow, rx: Option<RadioEvent<u32>>) -> Vec<RadioEvent<u32>> {
    let edge = || match row.reported_busy() {
        true => RadioEvent::CarrierBusy,
        false => RadioEvent::CarrierIdle,
    };
    let mut out = Vec::new();
    if heard.edge_before() {
        out.push(edge());
    }
    assert_eq!(heard.rx_start() || heard.rx_end().is_some(), rx.is_some());
    out.extend(rx);
    if heard.edge_after() {
        out.push(edge());
    }
    out
}

proptest! {
    /// Path loss: received power never exceeds transmitted power and never
    /// increases with distance.
    #[test]
    fn gain_bounded_and_monotone(d1 in 0.1f64..2000.0, d2 in 0.1f64..2000.0) {
        let m = TwoRayGround::ns2_default();
        let (near, far) = if d1 < d2 { (d1, d2) } else { (d2, d1) };
        let g_near = m.gain_at(near);
        let g_far = m.gain_at(far);
        prop_assert!(g_near <= 1.0 && g_far <= 1.0);
        prop_assert!(g_near >= g_far);
    }

    /// range_for / power_for_range are mutual inverses over the usable
    /// range of the model.
    #[test]
    fn range_power_inverse(d in 5.0f64..1500.0) {
        let m = TwoRayGround::ns2_default();
        let thresh = Milliwatts(3.652e-7);
        let p = m.power_for_range(d, thresh);
        let back = m.range_for(p, thresh);
        prop_assert!((back - d).abs() < 1e-6, "d={d} back={back}");
    }

    /// The gain between two points depends only on their distance
    /// (isotropy) and is symmetric.
    #[test]
    fn gain_isotropic_symmetric(ax in 0.0f64..1000.0, ay in 0.0f64..1000.0,
                                bx in 0.0f64..1000.0, by in 0.0f64..1000.0) {
        let m = TwoRayGround::ns2_default();
        let a = Point::new(ax, ay);
        let b = Point::new(bx, by);
        prop_assert_eq!(m.gain(a, b), m.gain(b, a));
        let d = a.distance(b);
        prop_assert_eq!(m.gain(a, b), m.gain_at(d));
    }

    /// Quantisation returns a level ≥ the request, and requesting that
    /// level again is a fixed point.
    #[test]
    fn quantize_upper_bound_idempotent(needed in 0.0f64..300.0) {
        let levels = PowerLevels::paper_defaults();
        if let Some(q) = levels.quantize_up(Milliwatts(needed)) {
            prop_assert!(q.value() >= needed);
            prop_assert_eq!(levels.quantize_up(q), Some(q));
            // and it is the *smallest* adequate level
            for &l in levels.all() {
                if l.value() >= needed {
                    prop_assert!(q.value() <= l.value());
                }
            }
        } else {
            prop_assert!(needed > levels.max().value());
        }
    }

    /// step_up never decreases power and saturates at the maximum class.
    #[test]
    fn step_up_monotone(p in 0.5f64..300.0) {
        let levels = PowerLevels::paper_defaults();
        let up = levels.step_up(Milliwatts(p));
        prop_assert!(up.value() >= p.min(levels.max().value()));
        prop_assert!(up.value() <= levels.max().value());
    }

    /// Radio interference bookkeeping: after arbitrary interleavings of
    /// arrival starts/ends, total in-air power equals the sum of the open
    /// arrivals, and the radio is quiet once all of them end.
    #[test]
    fn radio_power_bookkeeping(powers in proptest::collection::vec(1e-9f64..1e-3, 1..20)) {
        let mut r: Radio<u32> = Radio::new(RadioConfig::ns2_default());
        let mut out = Vec::new();
        for (i, p) in powers.iter().enumerate() {
            r.on_arrival_start(i as u64, Milliwatts(*p), SimTime::MAX, &0, &mut out);
        }
        let sum: f64 = powers.iter().sum();
        prop_assert!((r.in_air_power().value() - sum).abs() < sum * 1e-9);
        // End in reverse order to exercise swap_remove paths.
        for i in (0..powers.len()).rev() {
            r.on_arrival_end(i as u64, &mut out);
        }
        prop_assert_eq!(r.in_air_power(), Milliwatts::ZERO);
        prop_assert!(!r.carrier_busy());
    }

    /// Carrier busy/idle events alternate strictly — the MAC can treat
    /// them as edges without debouncing.
    #[test]
    fn carrier_edges_alternate(powers in proptest::collection::vec(1e-9f64..1e-3, 1..20)) {
        let mut r: Radio<u32> = Radio::new(RadioConfig::ns2_default());
        let mut out = Vec::new();
        for (i, p) in powers.iter().enumerate() {
            r.on_arrival_start(i as u64, Milliwatts(*p), SimTime::MAX, &0, &mut out);
        }
        for i in 0..powers.len() {
            r.on_arrival_end(i as u64, &mut out);
        }
        let mut busy = false;
        for ev in &out {
            match ev {
                RadioEvent::CarrierBusy => {
                    prop_assert!(!busy, "double busy edge");
                    busy = true;
                }
                RadioEvent::CarrierIdle => {
                    prop_assert!(busy, "idle edge while idle");
                    busy = false;
                }
                _ => {}
            }
        }
        prop_assert!(!busy, "must end idle");
    }

    /// Every RxStart is eventually matched by exactly one RxEnd with the
    /// same key (when no transmission aborts it).
    #[test]
    fn rx_start_end_paired(powers in proptest::collection::vec(1e-8f64..1e-3, 1..20)) {
        let mut r: Radio<u32> = Radio::new(RadioConfig::ns2_default());
        let mut out = Vec::new();
        for (i, p) in powers.iter().enumerate() {
            r.on_arrival_start(i as u64, Milliwatts(*p), SimTime::MAX, &(i as u32), &mut out);
        }
        for i in 0..powers.len() {
            r.on_arrival_end(i as u64, &mut out);
        }
        let starts: Vec<u64> = out.iter().filter_map(|e| match e {
            RadioEvent::RxStart { key, .. } => Some(*key),
            _ => None,
        }).collect();
        let ends: Vec<u64> = out.iter().filter_map(|e| match e {
            RadioEvent::RxEnd { key, .. } => Some(*key),
            _ => None,
        }).collect();
        prop_assert_eq!(starts, ends);
    }

    /// The adapter cannot drift from the row: any interleaving of arrival
    /// starts and ends and of our own transmissions, driven through
    /// `Radio` (which ends an arrival by key) and through a bare row
    /// (handed each arrival's power back at its end), yields the same
    /// indications in the same order and bit-equal interference sums —
    /// under both capture policies, and with a decode threshold below
    /// the carrier-sense one, where locking on is itself a busy edge.
    #[test]
    fn adapter_and_bare_row_agree(
        ops in proptest::collection::vec((0u8..9, -10.0f64..-3.0, 0usize..32), 1..160),
        start_only in any::<bool>(),
        deaf_carrier_sense in any::<bool>(),
    ) {
        let mut cfg = RadioConfig::ns2_default();
        if start_only {
            cfg.capture_policy = CapturePolicy::StartOnly;
        }
        if deaf_carrier_sense {
            cfg.cs_thresh = Milliwatts(1e-5);
        }
        let mut radio: Radio<u32> = Radio::new(cfg.clone());
        let mut row = RxRow::default();
        let mut locked: Option<u32> = None;
        let mut open: Vec<(u64, Milliwatts)> = Vec::new();
        let (mut next_key, mut edge_after_lock) = (0u64, false);
        for &(kind, exponent, pick) in &ops {
            let mut got = Vec::new();
            let want = match kind {
                0..=3 => {
                    let (key, power, frame) = (next_key, Milliwatts(10f64.powf(exponent)), pick as u32);
                    next_key += 1;
                    open.push((key, power));
                    radio.on_arrival_start(key, power, SimTime::MAX, &frame, &mut got);
                    let heard = row.arrival_start(&cfg, key, power);
                    edge_after_lock |= heard.rx_start() && heard.edge_after();
                    let rx = heard.rx_start().then(|| {
                        locked = Some(frame);
                        RadioEvent::RxStart { key, power, frame }
                    });
                    as_events(heard, &row, rx)
                }
                4..=6 if !open.is_empty() => {
                    let (key, power) = open.swap_remove(pick % open.len());
                    radio.on_arrival_end(key, &mut got);
                    let heard = row.arrival_end(&cfg, key, power);
                    let rx = heard.rx_end().map(|ok| RadioEvent::RxEnd {
                        key,
                        power,
                        frame: locked.take().expect("an RxEnd follows its RxStart"),
                        ok,
                    });
                    as_events(heard, &row, rx)
                }
                7 if !row.is_transmitting() => {
                    radio.start_tx(SimTime::MAX, &mut got);
                    locked = None;
                    as_events(row.start_tx(&cfg), &row, None)
                }
                8 if row.is_transmitting() => {
                    radio.end_tx(&mut got);
                    as_events(row.end_tx(&cfg), &row, None)
                }
                _ => continue,
            };
            prop_assert_eq!(&got, &want, "op {:?}", (kind, exponent, pick));
            prop_assert_eq!(
                radio.in_air_power().value().to_bits(),
                row.in_air_power().value().to_bits()
            );
            prop_assert_eq!(radio.noise_power(), row.noise_power(&cfg));
            prop_assert_eq!(radio.carrier_busy(), row.carrier_busy(&cfg));
            prop_assert_eq!(row.on_air() as usize, open.len());
            prop_assert!(got.len() <= 2, "an operation flips carrier sense at most once");
        }
        // Only a decode threshold under the carrier-sense one can make
        // the lock itself the busy edge.
        prop_assert!(deaf_carrier_sense || !edge_after_lock);
    }

    /// The sparse gain cache is transparent over positions that never
    /// change: batches of lookups in any order return exactly
    /// `model.gain` — bit for bit, hit or miss — including under
    /// asymmetric shadowing where `G_ij ≠ G_ji`.
    #[test]
    fn sparse_gain_cache_is_transparent(
        seed in 0u64..1_000,
        coords in proptest::collection::vec((0.0f64..2000.0, 0.0f64..2000.0), 2..24),
        ops in proptest::collection::vec((0usize..24, proptest::collection::vec(0usize..24, 1..8)), 1..100),
        sigma in 0.0f64..8.0,
    ) {
        use pcmac_phy::{PropagationModel, Shadowed, SparseGainCache};

        let model = PropagationModel::Shadowed(Shadowed::new(
            TwoRayGround::ns2_default(), sigma, false, seed,
        ));
        let pts: Vec<Point> = coords.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let n = pts.len();
        let cell_of = |p: Point| ((p.y / 250.0) as u32) * 8 + (p.x / 250.0) as u32;
        let mut cache = SparseGainCache::new(n);
        for (i, &p) in pts.iter().enumerate() {
            cache.set_cell(i as u32, cell_of(p));
        }
        let mut got = Vec::new();
        let mut lookups = 0;
        for (a, bs) in &ops {
            let i = a % n;
            let js: Vec<u32> = bs.iter().map(|b| (b % n) as u32).filter(|&j| j as usize != i).collect();
            cache.gains_with_into(i as u32, &js, &mut got, |j| model.gain(pts[i], pts[j as usize]));
            prop_assert_eq!(got.len(), js.len());
            for (&j, g) in js.iter().zip(&got) {
                let want = model.gain(pts[i], pts[j as usize]);
                prop_assert_eq!(g.to_bits(), want.to_bits(), "pair ({}, {})", i, j);
            }
            lookups += js.len() as u64;
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.hits + stats.misses, lookups);
        prop_assert_eq!(stats.misses, stats.entries as u64);
    }
}
