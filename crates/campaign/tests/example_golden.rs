//! Every checked-in campaign expands to exactly the configs recorded in
//! `golden/example_configs.txt`: one line per `(file, cell, seed)` with
//! the cell's label and an FNV-1a digest of the materialized
//! `ScenarioConfig`'s JSON. Rewriting a spec file's spelling must not
//! move a single line; a change that means to move one re-records it.

use pcmac_campaign::CampaignSpec;

const GOLDEN: &str = include_str!("golden/example_configs.txt");

/// The golden lines for every `examples/*.json`, in file-name order.
fn expansion_lines() -> String {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    let mut out = String::new();
    for path in files {
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
        let spec = CampaignSpec::from_json(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        let points = spec.expand_vec().unwrap_or_else(|e| panic!("{file}: {e}"));
        for (cell, point) in points.iter().enumerate() {
            let label = point.key.label();
            for (seed, cfg) in point.seeds.iter().zip(&point.scenarios) {
                let json = serde_json::to_string(cfg).expect("configs serialize");
                let digest = pcmac_snap::fnv1a64(json.as_bytes());
                out.push_str(&format!("{file}\t{cell}\t{label}\t{seed}\t{digest:016x}\n"));
            }
        }
    }
    out
}

#[test]
fn every_example_expands_to_its_recorded_configs() {
    let actual = expansion_lines();
    for (i, (want, got)) in GOLDEN.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "golden line {} differs", i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        GOLDEN.lines().count(),
        "the examples expand to a different number of (cell, seed) pairs"
    );
}
