//! The metric tables the binary reports match `BENCHMARK.json`.

use aqe_perfbench::{END_TO_END, PER_LAYER};

#[test]
fn benchmark_json_declares_every_reported_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let declared = manifest.matches("\"name\": ").count();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    // Three workloads plus every metric, nothing else.
    assert_eq!(declared, 3 + END_TO_END.len() + PER_LAYER.len());
}
