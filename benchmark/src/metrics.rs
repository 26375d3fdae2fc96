//! The metric names this harness prints: the single list the output is
//! checked against at run time and `BENCHMARK.json` is checked against
//! in the tests. Each entry is `(name, unit)`.

/// A measured set of metrics, in print order.
pub type Values = Vec<(String, f64)>;

pub const END_TO_END: [(&str, &str); 3] = [
    ("ns_per_event", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Event classes of `core.dispatch`, in the order `layers::class_of`
/// indexes them.
pub const DISPATCH_CLASSES: [&str; 10] = [
    "arrival_start",
    "arrival_end",
    "tx_end",
    "ctrl",
    "mac_timer",
    "aodv_timer",
    "traffic_emit",
    "fault",
    "metrics_probe",
    "other",
];

const PER_LAYER_FIXED: [(&str, &str); 56] = [
    ("core.sim.generate_s", "s"),
    ("core.sim.validate_s", "s"),
    ("core.sim.build_s", "s"),
    ("core.sim.build_ns_per_node", "ns"),
    ("core.sim.run_s", "s"),
    ("core.sim.events", "count"),
    ("core.sim.bytes_per_node", "B"),
    ("core.sim.report_to_json_s", "s"),
    ("core.trace.overhead_ratio", "ratio"),
    ("engine.queue.hold_ns.d4k", "ns"),
    ("engine.queue.hold_ns.d256k", "ns"),
    ("engine.queue.est_share", "ratio"),
    ("engine.grid.build_ns_per_node", "ns"),
    ("engine.grid.query_ns", "ns"),
    ("engine.grid.update_ns", "ns"),
    ("engine.grid.queries", "count"),
    ("engine.grid.candidates_per_query", "count"),
    ("engine.grid.est_share", "ratio"),
    ("phy.gain.ns_per_candidate", "ns"),
    ("phy.gain.sparse_ns_per_candidate", "ns"),
    ("phy.gain.sparse_hit_ratio", "ratio"),
    ("phy.gain.sparse_flushes", "count"),
    ("phy.gain.est_share", "ratio"),
    ("phy.radio.arrival_pair_ns", "ns"),
    ("phy.radio.arrivals", "count"),
    ("phy.radio.decoded_ratio", "ratio"),
    ("phy.radio.below_rx_ratio", "ratio"),
    ("phy.radio.est_share", "ratio"),
    ("mac.dcf.exchange_ns", "ns"),
    ("mac.dcf.rts_per_delivered", "ratio"),
    ("mac.dcf.timeout_ratio", "ratio"),
    ("mac.dcf.retry_drops", "count"),
    ("aodv.agent.discoveries", "count"),
    ("aodv.agent.discovery_fail_ratio", "ratio"),
    ("aodv.agent.ctrl_per_delivered", "ratio"),
    ("mobility.waypoint.position_ns", "ns"),
    ("mobility.waypoint.refresh_pops", "count"),
    ("mobility.waypoint.refresh_rearms", "count"),
    ("mobility.waypoint.exact_samples", "count"),
    ("core.metrics.on_overhead_ratio", "ratio"),
    ("core.metrics.probes", "count"),
    ("core.parallel.sharded1_ns_per_event", "ns"),
    ("core.parallel.sharded2_ns_per_event", "ns"),
    ("core.parallel.sharded2_speedup", "ratio"),
    ("core.parallel.host_cores", "count"),
    ("snap.encode_s", "s"),
    ("snap.decode_s", "s"),
    ("core.snapshot.restore_s", "s"),
    ("snap.bytes_per_node", "B"),
    ("campaign.spec.parse_s", "s"),
    ("campaign.spec.materialize_s", "s"),
    ("model.digest", "hash"),
    ("model.digest_changed", "count"),
    ("model.delivered", "count"),
    ("model.throughput_kbps", "kbps"),
    ("model.mean_delay_ms", "ms"),
];

/// Every per-layer metric: the fixed list plus events / ns_per_event /
/// share for each dispatch class.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for class in DISPATCH_CLASSES {
        all.push((format!("core.dispatch.{class}.events"), "count"));
        all.push((format!("core.dispatch.{class}.ns_per_event"), "ns"));
        all.push((format!("core.dispatch.{class}.share"), "ratio"));
    }
    all
}

/// Pair every declared metric with its measured value, in declared
/// order. Fails — naming the offenders — unless the measured set equals
/// the declared set in both directions and every value is finite.
pub fn check(
    declared: &[(String, &'static str)],
    measured: &Values,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let mut problems = Vec::new();
    for (name, _) in measured {
        if !declared.iter().any(|(d, _)| d == name) {
            problems.push(format!("undeclared metric {name}"));
        }
        if measured.iter().filter(|(n, _)| n == name).count() > 1 {
            problems.push(format!("metric {name} measured twice"));
        }
    }
    let mut out = Vec::new();
    for (name, unit) in declared {
        match measured.iter().find(|(n, _)| n == name) {
            Some((_, v)) if v.is_finite() => out.push((name.clone(), *v, *unit)),
            Some((_, v)) => problems.push(format!("metric {name} is {v}")),
            None => problems.push(format!("declared metric {name} not measured")),
        }
    }
    if problems.is_empty() {
        Ok(out)
    } else {
        Err(problems.join("; "))
    }
}

pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let first_ok = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut all: Vec<String> = end_to_end().into_iter().map(|(n, _)| n).collect();
        all.extend(per_layer().into_iter().map(|(n, _)| n));
        all.extend(
            crate::workloads::WORKLOADS
                .iter()
                .map(|w| w.name.to_string()),
        );
        for n in &all {
            assert!(name_ok(n), "bad name {n}");
        }
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a name is used twice");
    }

    /// The printed set equals the set `BENCHMARK.json` declares, in both
    /// directions, with the same units — for metrics and workloads.
    #[test]
    fn benchmark_json_declares_exactly_what_is_printed() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let list = |key: &str, field: &str| -> Vec<(String, String)> {
            let serde_json::Value::Seq(items) = field_of(&doc, key) else {
                panic!("{key} is not a list");
            };
            items
                .iter()
                .map(|item| (string_of(item, "name"), string_of(item, field)))
                .collect()
        };
        let owned = |v: Vec<(String, &'static str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(list("end_to_end", "unit"), owned(end_to_end()));
        assert_eq!(list("per_layer", "unit"), owned(per_layer()));
        let workloads: Vec<(String, String)> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(list("workloads", "why"), workloads);
    }

    fn field_of<'a>(v: &'a serde_json::Value, key: &str) -> &'a serde_json::Value {
        let serde_json::Value::Map(entries) = v else {
            panic!("not an object");
        };
        &entries
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("missing key {key}"))
            .1
    }

    fn string_of(v: &serde_json::Value, key: &str) -> String {
        match field_of(v, key) {
            serde_json::Value::Str(s) => s.clone(),
            other => panic!("{key} is not a string: {other:?}"),
        }
    }

    #[test]
    fn check_rejects_missing_extra_and_non_finite() {
        let declared = end_to_end();
        let full: Values = END_TO_END
            .iter()
            .map(|(n, _)| (n.to_string(), 1.0))
            .collect();
        assert_eq!(check(&declared, &full).unwrap().len(), 3);
        assert!(check(&declared, &full[..2].to_vec()).is_err());
        let mut extra = full.clone();
        extra.push(("bogus".into(), 1.0));
        assert!(check(&declared, &extra).is_err());
        let mut nan = full.clone();
        nan[0].1 = f64::NAN;
        assert!(check(&declared, &nan).is_err());
    }
}
