//! Order statistics and the report digest.

use pcmac::RunReport;

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// FNV-1a, 64 bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Hash of the report's JSON with the two legitimately run-dependent
/// parts neutralised — `wall_s` and `metrics.hot_path` — the same
/// normalisation `channel_equivalence.rs` compares reports under.
pub fn digest(report: &RunReport) -> u64 {
    let mut r = report.clone();
    r.wall_s = 0.0;
    if let Some(m) = &mut r.metrics {
        m.hot_path = Default::default();
    }
    let json = serde_json::to_string(&r).expect("reports serialize");
    fnv1a64(json.as_bytes())
}

/// One digest for a workload's whole operation list.
pub fn combine(digests: &[u64]) -> u64 {
    let bytes: Vec<u8> = digests.iter().flat_map(|d| d.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(max(&[3.0, 1.0, 2.0]), 3.0);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digest_ignores_wall_time_and_hot_path_only() {
        let cfg = pcmac::ScenarioConfig::two_nodes(pcmac::Variant::Basic, 80.0, 100_000.0, 1)
            .with_duration(pcmac_engine::Duration::from_millis(500));
        let mut cfg = cfg;
        cfg.metrics = Some(Default::default());
        let base = pcmac::Simulator::new(cfg).run();
        let mut same = base.clone();
        same.wall_s += 1.0;
        same.metrics.as_mut().unwrap().hot_path.grid_queries += 1;
        assert_eq!(digest(&base), digest(&same));
        let mut other = base.clone();
        other.delivered_packets += 1;
        assert_ne!(digest(&base), digest(&other));
        assert_ne!(combine(&[1, 2]), combine(&[2, 1]));
    }
}
