//! Watch adaptive execution switch modes mid-pipeline (paper Fig. 14):
//! runs TPC-H Q11 with tracing enabled and prints every compile event and a
//! per-thread summary of which execution modes processed morsels.
//!
//! ```text
//! cargo run --release --example adaptive_trace
//! ```

use aqe::engine::exec::{ExecMode, ExecOptions};
use aqe::engine::session::Engine;
use aqe::queries::tpch;
use aqe::storage::tpch as tpch_data;

fn main() {
    let sf = std::env::var("AQE_SF").ok().and_then(|s| s.parse().ok()).unwrap_or(0.2);
    println!("generating TPC-H SF {sf}…");
    let engine = Engine::new(tpch_data::generate(sf));
    let session = engine.session();
    let q = engine.with_catalog(tpch::q11);
    let prepared = session.prepare(&q.root, q.dicts.clone());

    let mut opts =
        ExecOptions { mode: ExecMode::Adaptive, threads: 4, trace: true, ..Default::default() };
    // Nudge the model so the demo compiles even at small scale factors.
    opts.model.speedup_unopt = 3.0;
    let (result, report) = session.execute_with(&prepared, &opts).expect("query ok");

    println!("\npipelines:");
    for (i, label) in report.pipeline_labels.iter().enumerate() {
        println!("  p{i}: {label}");
    }
    println!("\ncompile events:");
    for e in report.trace.iter().filter(|e| e.kind == 255) {
        println!(
            "  pipeline p{} compiled in background: {:.2} ms (at t={:.2} ms)",
            e.pipeline,
            (e.end_us - e.start_us) as f64 / 1e3,
            e.start_us as f64 / 1e3
        );
    }
    println!("\nmorsels per (pipeline, mode):");
    let mut counts: std::collections::BTreeMap<(u16, u8), (u64, u64)> = Default::default();
    for e in report.trace.iter().filter(|e| e.kind != 255) {
        let c = counts.entry((e.pipeline, e.kind)).or_default();
        c.0 += 1;
        c.1 += e.tuples;
    }
    for ((p, k), (morsels, tuples)) in counts {
        let mode = match k {
            0 => "bytecode",
            1 => "O0",
            3 => "naive-ir",
            4 => "O2",
            5 => "simd",
            _ => "?",
        };
        println!("  p{p} {mode:<12} {morsels:>6} morsels {tuples:>12} tuples");
    }
    println!(
        "\nresult rows: {}, total exec {:.2} ms, background compiles: {}",
        result.row_count(),
        report.exec.as_secs_f64() * 1e3,
        report.background_compiles
    );
}
