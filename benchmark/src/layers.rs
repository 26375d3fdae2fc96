//! The traced pass: each layer measured from outside.
//!
//! Three sources, none of which touch product code: an observer on
//! `Simulator::run_with_observer` for per-event-class self time, a
//! metrics-on `RunReport` for exact work counts, and timed calls into
//! each layer's public functions on inputs shaped like the workload
//! (`micro`). End-to-end numbers are never taken from this pass.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

use pcmac::{CancelToken, RunHooks, RunReport, ScenarioConfig, SimEvent, SimSnapshot, Simulator};

use crate::e2e::{peak_rss_bytes, unchanged, Rep, Session};
use crate::metrics::{Values, DISPATCH_CLASSES};
use crate::micro;
use crate::workloads;

/// Events and host time of one `core.dispatch` class.
#[derive(Clone, Copy, Default)]
pub struct ClassCost {
    pub events: u64,
    pub ns: u64,
}

pub type ClassTable = [ClassCost; DISPATCH_CLASSES.len()];

/// Index into [`DISPATCH_CLASSES`].
fn class_of(ev: &SimEvent) -> usize {
    match ev {
        SimEvent::ArrivalStart { .. } => 0,
        SimEvent::ArrivalEnd { .. } => 1,
        SimEvent::TxEnd { .. } => 2,
        SimEvent::CtrlArrivalStart { .. }
        | SimEvent::CtrlArrivalEnd { .. }
        | SimEvent::CtrlTxEnd { .. } => 3,
        SimEvent::MacTimer { .. } => 4,
        SimEvent::AodvTimer { .. } => 5,
        SimEvent::TrafficEmit { .. } => 6,
        SimEvent::NodeDown { .. }
        | SimEvent::NodeUp { .. }
        | SimEvent::ImpairmentStart { .. }
        | SimEvent::ImpairmentEnd { .. } => 7,
        SimEvent::MetricsProbe => 8,
        // An event a later change adds is counted under `other` rather
        // than breaking the benchmark's build.
        #[allow(unreachable_patterns)]
        _ => 9,
    }
}

/// Run `sim` with an observer that charges the time from one
/// pre-dispatch callback to the next to the earlier event's class:
/// its dispatch plus the pop of the next event.
fn observe(sim: Simulator, table: &mut ClassTable) -> RunReport {
    let mut last: Option<(usize, Instant)> = None;
    sim.run_with_observer(|ev, _| {
        let now = Instant::now();
        if let Some((class, since)) = last {
            table[class].ns += (now - since).as_nanos() as u64;
        }
        let class = class_of(ev);
        table[class].events += 1;
        last = Some((class, now));
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Exact work counts of a repetition run with the metrics layer on.
#[derive(Default)]
struct Counts {
    grid_queries: u64,
    grid_candidates: u64,
    refresh_pops: u64,
    refresh_rearms: u64,
    exact_samples: u64,
    probes: u64,
    sparse_hits: u64,
    sparse_misses: u64,
    sparse_flushes: u64,
    arrivals: u64,
    decoded_ok: u64,
    below_rx: u64,
    discoveries: u64,
    discoveries_failed: u64,
}

impl Counts {
    fn of(rep: &Rep) -> Counts {
        let mut c = Counts::default();
        for m in rep.reports.iter().filter_map(|r| r.metrics.as_ref()) {
            c.grid_queries += m.hot_path.grid_queries;
            c.grid_candidates += m.hot_path.grid_candidates;
            c.refresh_pops += m.hot_path.refresh_pops;
            c.refresh_rearms += m.hot_path.refresh_rearms;
            c.exact_samples += m.hot_path.exact_samples;
            c.probes += m.hot_path.probes;
            if let Some(s) = m.hot_path.sparse_cache {
                c.sparse_hits += s.hits;
                c.sparse_misses += s.misses;
                c.sparse_flushes += s.flushes;
            }
            c.arrivals += m.phy.arrivals;
            c.decoded_ok += m.phy.decoded_ok;
            c.below_rx += m.phy.below_rx_thresh;
            c.discoveries += m.routing.discoveries_started;
            c.discoveries_failed += m.routing.discoveries_failed;
        }
        c
    }
}

/// Mid-run checkpoint of every scenario of the workload: run to the
/// half-way grid point, take the snapshot the sink receives, stop.
/// Times encode / decode / restore and checks the round trip.
fn snapshot_costs(
    session: &mut Session,
    cfgs: Vec<ScenarioConfig>,
    put: &mut dyn FnMut(&str, f64),
) {
    let Session { trace, judge, .. } = session;
    let from = trace.spans.len();
    let (mut bytes, mut nodes) = (0usize, 0usize);
    for cfg in cfgs {
        judge.attempted += 1;
        nodes += workloads::node_count(&cfg);
        let cancel = CancelToken::new();
        let slot: Mutex<Option<SimSnapshot>> = Mutex::new(None);
        let sink = |s: SimSnapshot| {
            *slot.lock().expect("sink never panics") = Some(s);
            cancel.cancel();
        };
        let half = workloads::duration(&cfg) / 2;
        let sim = Simulator::new(cfg.clone());
        trace.span("snapshot.run_to_cut", |_| {
            sim.run_with_hooks(RunHooks {
                cancel: Some(&cancel),
                checkpoint_every: Some(half),
                checkpoint_sink: Some(&sink),
            })
        });
        let Some(snap) = slot.into_inner().expect("sink never panics") else {
            judge.fail("no mid-run checkpoint was delivered".into());
            continue;
        };
        let wire = trace.span("snap.encode", |_| snap.to_bytes());
        bytes += wire.len();
        let decoded = trace.span("snap.decode", |_| SimSnapshot::from_bytes(&wire));
        let restored = trace.span("core.snapshot.restore", |_| Simulator::restore(cfg, &snap));
        match decoded {
            Ok(d) if d.state_fingerprint() == snap.state_fingerprint() => {}
            Ok(_) => judge.fail("snapshot changed across encode/decode".into()),
            Err(e) => judge.fail(format!("snapshot decode failed: {e:?}")),
        }
        if let Err(e) = restored {
            judge.fail(format!("snapshot restore failed: {e:?}"));
        }
    }
    put("snap.encode_s", trace.seconds("snap.encode", from));
    put("snap.decode_s", trace.seconds("snap.decode", from));
    put(
        "core.snapshot.restore_s",
        trace.seconds("core.snapshot.restore", from),
    );
    put("snap.bytes_per_node", ratio(bytes as f64, nodes as f64));
}

/// Digest recorded for `(workload, seed)` in `expected.json`, if any.
fn expected_digest(workload: &str, seed: u64) -> Option<u64> {
    let doc: serde_json::Value =
        serde_json::from_str(include_str!("../expected.json")).expect("expected.json parses");
    let serde_json::Value::Map(workloads) = doc else {
        return None;
    };
    let (_, seeds) = workloads.into_iter().find(|(k, _)| k == workload)?;
    let serde_json::Value::Map(seeds) = seeds else {
        return None;
    };
    match seeds.into_iter().find(|(k, _)| *k == seed.to_string())?.1 {
        serde_json::Value::Str(hex) => u64::from_str_radix(&hex, 16).ok(),
        _ => None,
    }
}

/// Every per-layer metric for one workload. `seconds` sizes the
/// microbenchmarks; the simulation passes are fixed work.
pub fn measure(session: &mut Session, seconds: f64) -> (Values, ClassTable) {
    let mut v = Values::new();
    let mut put = |name: &str, value: f64| v.push((name.to_string(), value));
    let budget_s = seconds / 100.0;

    // One discarded repetition first. The first run in a process also
    // pays for mapping the memory it grows into (the native pass read
    // 10-15 % slow on the fields without this), and the passes below are
    // compared with each other.
    session.rep("pass.warm_up", true, &unchanged, &mut Simulator::run);

    // Native, untraced: the repetition the end-to-end pass measures.
    let from = session.trace.spans.len();
    let native = session.rep("pass.native", true, &unchanged, &mut Simulator::run);
    let rss = peak_rss_bytes().unwrap_or(0);
    let nodes = native.nodes as f64;
    let trace = &mut session.trace;
    put("core.sim.generate_s", trace.seconds("generate", from));
    put(
        "campaign.spec.parse_s",
        trace.seconds("campaign.spec.parse", from),
    );
    put(
        "campaign.spec.materialize_s",
        trace.seconds("campaign.spec.materialize", from),
    );
    let build_s = trace.seconds("build", from);
    put("core.sim.build_s", build_s);
    put("core.sim.build_ns_per_node", ratio(build_s * 1e9, nodes));
    put("core.sim.run_s", native.run_s);
    put("core.sim.events", native.events as f64);
    put("core.sim.bytes_per_node", ratio(rss as f64, nodes));

    let cfgs = session.scenarios();
    let valid = session
        .trace
        .span("validate", |_| cfgs.iter().all(workloads::is_valid));
    if !valid {
        session
            .judge
            .fail("a generated scenario does not validate".into());
    }
    session.trace.span("report_to_json", |_| {
        for r in &native.reports {
            black_box(serde_json::to_string(r).expect("reports serialize"));
        }
    });
    put(
        "core.sim.validate_s",
        session.trace.seconds("validate", from),
    );
    put(
        "core.sim.report_to_json_s",
        session.trace.seconds("report_to_json", from),
    );

    // Observed: same scenarios, per-class self time.
    let mut classes = ClassTable::default();
    let observed = session.rep("pass.observed", true, &unchanged, &mut |sim| {
        observe(sim, &mut classes)
    });
    put(
        "core.trace.overhead_ratio",
        ratio(observed.run_s, native.run_s),
    );
    for (class, cost) in DISPATCH_CLASSES.iter().zip(&classes) {
        put(&format!("core.dispatch.{class}.events"), cost.events as f64);
        put(
            &format!("core.dispatch.{class}.ns_per_event"),
            ratio(cost.ns as f64, cost.events as f64),
        );
        put(
            &format!("core.dispatch.{class}.share"),
            ratio(cost.ns as f64 / 1e9, observed.run_s),
        );
    }
    // `RunReport.events` counts events *scheduled*, probes excluded; the
    // observer sees events *dispatched*. The difference is what was
    // still pending when the run ended, so it can never be negative.
    let probe_class = DISPATCH_CLASSES.len() - 2;
    let dispatched: u64 =
        classes.iter().map(|c| c.events).sum::<u64>() - classes[probe_class].events;
    if dispatched > observed.events {
        session.judge.fail(format!(
            "observer saw {dispatched} events dispatched but the reports count {} scheduled",
            observed.events
        ));
    }

    // Metrics layer flipped: its cost, and the exact work counts from
    // whichever side has it on.
    let native_on = cfgs.first().is_some_and(workloads::has_metrics);
    let flip = |cfg| workloads::with_metrics(cfg, !native_on);
    let flipped = session.rep("pass.metrics_flipped", false, &flip, &mut Simulator::run);
    let (on, off) = if native_on {
        (&native, &flipped)
    } else {
        (&flipped, &native)
    };
    let counts = Counts::of(on);
    put("core.metrics.on_overhead_ratio", ratio(on.run_s, off.run_s));
    put("core.metrics.probes", counts.probes as f64);

    // Region-sharded execution, where the scenario allows it.
    let shardable = workloads::shape(&cfgs[0]).shardable;
    let mut sharded_ns = [0.0; 2];
    let mut speedup = 0.0;
    if shardable {
        for (slot, shards) in [1usize, 2].into_iter().enumerate() {
            let split = |cfg| workloads::sharded(cfg, shards);
            let r = session.rep("pass.sharded", true, &split, &mut Simulator::run);
            sharded_ns[slot] = ratio(r.run_s * 1e9, r.events as f64);
            speedup = ratio(native.run_s, r.run_s);
        }
    }
    put("core.parallel.sharded1_ns_per_event", sharded_ns[0]);
    put("core.parallel.sharded2_ns_per_event", sharded_ns[1]);
    put("core.parallel.sharded2_speedup", speedup);
    put(
        "core.parallel.host_cores",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    );

    let shape = workloads::shape(&cfgs[0]);
    snapshot_costs(session, cfgs, &mut put);

    // Layer unit costs on inputs shaped like the first scenario.
    let run_ns = native.run_s * 1e9;
    let m = session
        .trace
        .span("micro", |t| micro::measure(&shape, budget_s, t));
    put("engine.queue.hold_ns.d4k", m.queue_hold_d4k);
    put("engine.queue.hold_ns.d256k", m.queue_hold_d256k);
    // The pending-event depth cannot be seen from outside. The 4k cost
    // is used for every workload: at the 256k cost the estimate exceeds
    // the whole of `run_s` on the 32000-node fields, so their heaps are
    // evidently nowhere near that deep.
    put(
        "engine.queue.est_share",
        ratio(m.queue_hold_d4k * native.events as f64, run_ns),
    );
    put("engine.grid.build_ns_per_node", m.grid_build_per_node);
    put("engine.grid.query_ns", m.grid_query);
    put("engine.grid.update_ns", m.grid_update);
    put("engine.grid.queries", counts.grid_queries as f64);
    put(
        "engine.grid.candidates_per_query",
        ratio(counts.grid_candidates as f64, counts.grid_queries as f64),
    );
    put(
        "engine.grid.est_share",
        ratio(m.grid_query * counts.grid_queries as f64, run_ns),
    );
    put("phy.gain.ns_per_candidate", m.gain_per_candidate);
    put(
        "phy.gain.sparse_ns_per_candidate",
        m.sparse_gain_per_candidate,
    );
    put(
        "phy.gain.sparse_hit_ratio",
        ratio(
            counts.sparse_hits as f64,
            (counts.sparse_hits + counts.sparse_misses) as f64,
        ),
    );
    put("phy.gain.sparse_flushes", counts.sparse_flushes as f64);
    put(
        "phy.gain.est_share",
        ratio(
            m.sparse_gain_per_candidate * counts.grid_candidates as f64,
            run_ns,
        ),
    );
    put("phy.radio.arrival_pair_ns", m.radio_arrival_pair);
    put("phy.radio.arrivals", counts.arrivals as f64);
    put(
        "phy.radio.decoded_ratio",
        ratio(counts.decoded_ok as f64, counts.arrivals as f64),
    );
    put(
        "phy.radio.below_rx_ratio",
        ratio(counts.below_rx as f64, counts.arrivals as f64),
    );
    put(
        "phy.radio.est_share",
        ratio(m.radio_arrival_pair * counts.arrivals as f64, run_ns),
    );
    put("mac.dcf.exchange_ns", m.dcf_exchange);
    put("mobility.waypoint.position_ns", m.waypoint_position);
    put("mobility.waypoint.refresh_pops", counts.refresh_pops as f64);
    put(
        "mobility.waypoint.refresh_rearms",
        counts.refresh_rearms as f64,
    );
    put(
        "mobility.waypoint.exact_samples",
        counts.exact_samples as f64,
    );

    // Protocol outcome counters and the simulated results, from the
    // native reports.
    let sum = |f: &dyn Fn(&RunReport) -> u64| native.reports.iter().map(f).sum::<u64>() as f64;
    let delivered = sum(&|r| r.delivered_packets);
    let rts = sum(&|r| r.mac.rts_sent);
    put("mac.dcf.rts_per_delivered", ratio(rts, delivered));
    put(
        "mac.dcf.timeout_ratio",
        ratio(sum(&|r| r.mac.cts_timeouts + r.mac.ack_timeouts), rts),
    );
    put("mac.dcf.retry_drops", sum(&|r| r.mac.retry_drops));
    put("aodv.agent.discoveries", counts.discoveries as f64);
    put(
        "aodv.agent.discovery_fail_ratio",
        ratio(counts.discoveries_failed as f64, counts.discoveries as f64),
    );
    let routing_ctrl = sum(&|r| {
        let c = &r.routing;
        c.rreq_originated + c.rreq_forwarded + c.rrep_generated + c.rrep_forwarded + c.rerr_sent
    });
    put(
        "aodv.agent.ctrl_per_delivered",
        ratio(routing_ctrl, delivered),
    );
    let digest = session.judge.workload_digest();
    // The top 53 bits: exact as a JSON number. The full digest goes to
    // the text output and `trace.json`.
    put("model.digest", digest.map_or(0.0, |d| (d >> 11) as f64));
    let changed = match (digest, expected_digest(session.workload.name, session.seed)) {
        (Some(got), Some(want)) => got != want,
        _ => false,
    };
    put("model.digest_changed", changed as u64 as f64);
    put("model.delivered", delivered);
    let ops = native.reports.len() as f64;
    put(
        "model.throughput_kbps",
        ratio(native.reports.iter().map(|r| r.throughput_kbps).sum(), ops),
    );
    put(
        "model.mean_delay_ms",
        ratio(
            native
                .reports
                .iter()
                .map(|r| r.mean_delay_ms * r.delivered_packets as f64)
                .sum(),
            delivered,
        ),
    );

    (v, classes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_dispatched_event_lands_in_a_named_class() {
        let mut table = ClassTable::default();
        let cfg = pcmac::ScenarioConfig::two_nodes(pcmac::Variant::Pcmac, 80.0, 100_000.0, 1)
            .with_duration(pcmac_engine::Duration::from_millis(500));
        let report = observe(Simulator::new(cfg), &mut table);
        let dispatched: u64 = table.iter().map(|c| c.events).sum();
        // The report counts events scheduled; a few are still pending.
        assert!(dispatched <= report.events && dispatched > report.events / 2);
        assert!(table[3].events > 0, "PCMAC uses the control channel");
        assert_eq!(table[9].events, 0, "nothing lands in `other`");
    }

    #[test]
    fn expected_digests_cover_the_baseline_and_held_out_seeds() {
        for w in &workloads::WORKLOADS {
            for seed in [11, 13] {
                assert!(expected_digest(w.name, seed).is_some(), "{} {seed}", w.name);
            }
            assert_eq!(expected_digest(w.name, u64::MAX), None);
        }
    }
}
