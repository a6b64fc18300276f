//! Morsel work-stealing under skew, plus cost-model calibration feedback.
//!
//! Part A builds a deliberately skewed join: one hot build key with a long
//! chain, probed only by the first quarter of the probe table — so the
//! morsels of one worker's initial partition are ~`CHAIN`× more expensive
//! than everyone else's. With static per-worker partitions (`steal:
//! false`, the no-stealing baseline) that worker serializes the tail; with
//! LIFO half-range stealing the hot region is redistributed. The report's
//! per-worker tuple counts make the redistribution directly visible.
//!
//! Part B runs TPC-H Q1 and Q6 adaptively on *one long-lived `Engine`*
//! and prints the default vs calibrated `CostModel` constants: Q1's
//! measured compile times and post-switch rates persist in the engine's
//! `CalibrationStore`, so Q6 starts seeded instead of from the defaults
//! (recorded in EXPERIMENTS.md).

use aqe_bench::{env_sf, ms, physical, threads_from_env};
use aqe_engine::exec::{CostModel, ExecMode, ExecOptions, Report};
use aqe_engine::plan::{decompose, AggFunc, AggSpec, JoinKind, PExpr, PhysicalPlan, PlanNode};
use aqe_engine::session::Engine;
use aqe_storage::{Catalog, Column, DataType, Table};
use std::time::Instant;

/// Entries chained under the hot build key: the per-tuple cost ratio
/// between hot and cold probe morsels.
const CHAIN: i64 = 64;
/// Distinct cold build keys.
const COLD_KEYS: i64 = 1000;

/// A catalog with a skewed join workload: probe rows `0..n/4` all hit the
/// hot key (64-entry chain), the rest hit unique keys.
fn skewed_catalog(probe_rows: usize) -> Catalog {
    let mut build_key = Vec::new();
    let mut build_payload = Vec::new();
    for _ in 0..CHAIN {
        build_key.push(0i64);
        build_payload.push(1i64);
    }
    for k in 1..=COLD_KEYS {
        build_key.push(k);
        build_payload.push(k);
    }
    let hot_end = probe_rows / 4;
    let probe_key: Vec<i64> =
        (0..probe_rows).map(|i| if i < hot_end { 0 } else { 1 + (i as i64 % COLD_KEYS) }).collect();

    let mut cat = Catalog::new();
    cat.add(Table::new(
        "skew_build",
        vec![
            ("b_key", DataType::Int64, Column::I64(build_key)),
            ("b_payload", DataType::Int64, Column::I64(build_payload)),
        ],
    ));
    cat.add(Table::new("skew_probe", vec![("p_key", DataType::Int64, Column::I64(probe_key))]));
    cat
}

fn skewed_plan(cat: &Catalog) -> PhysicalPlan {
    let root = PlanNode::HashAgg {
        input: Box::new(PlanNode::HashJoin {
            build: Box::new(PlanNode::Scan {
                table: "skew_build".into(),
                cols: vec![0, 1],
                filter: None,
            }),
            probe: Box::new(PlanNode::Scan {
                table: "skew_probe".into(),
                cols: vec![0],
                filter: None,
            }),
            build_keys: vec![0],
            probe_keys: vec![0],
            build_payload: vec![1],
            kind: JoinKind::Inner,
        }),
        group_by: vec![],
        aggs: vec![AggSpec { func: AggFunc::SumI, arg: Some(PExpr::Col(1)) }],
    };
    decompose(cat, &root, vec![])
}

fn run(cat: &Catalog, phys: &PhysicalPlan, threads: usize, steal: bool) -> (f64, Report, u64) {
    // A fresh engine per run with caching off: both runs must execute the
    // morsel loop for real for the steal counters to mean anything.
    let opts = ExecOptions {
        mode: ExecMode::Bytecode,
        threads,
        steal,
        min_morsel: 256,
        max_morsel: 4096,
        cache_results: false,
        ..Default::default()
    };
    let engine = Engine::new(cat.clone());
    let session = engine.session();
    let prepared = session.prepare_plan(phys.clone());
    let t0 = Instant::now();
    let (rows, report) = session.execute_with(&prepared, &opts).expect("skewed query failed");
    let sum = rows.rows.first().copied().unwrap_or(0);
    (ms(t0.elapsed()), report, sum)
}

fn print_model(label: &str, m: &CostModel) {
    println!(
        "{label:<12} O0 {:8.2} µs + {:7.4} µs/instr   O2 {:8.2} µs + {:7.4} µs/instr   \
         speedup {:4.2}× / {:4.2}×",
        m.unopt_base_s * 1e6,
        m.unopt_per_instr_s * 1e6,
        m.native_base_s * 1e6,
        m.native_per_instr_s * 1e6,
        m.speedup_unopt,
        m.speedup_native,
    );
}

fn main() {
    let sf = env_sf(1.0);
    let threads = threads_from_env(4);
    let probe_rows = ((600_000.0 * sf) as usize).max(10_000);

    // ---- Part A: skewed-morsel workload, static partitions vs stealing ----
    println!("# Work-stealing under skew — {probe_rows} probe rows ({CHAIN}× hot quarter), {threads} threads");
    let cat = skewed_catalog(probe_rows);
    let phys = skewed_plan(&cat);

    let mut reference = None;
    for steal in [false, true] {
        // One warmup, one measured run.
        run(&cat, &phys, threads, steal);
        let (wall, report, sum) = run(&cat, &phys, threads, steal);
        match reference {
            None => reference = Some(sum),
            Some(want) => assert_eq!(sum, want, "stealing changed the answer"),
        }
        let label = if steal { "steal" } else { "static" };
        let steals: u64 = report.sched.iter().map(|s| s.steals).sum();
        let stolen: u64 = report.sched.iter().map(|s| s.stolen_tuples).sum();
        println!("\n{label}: total {wall:.2} ms, steals {steals}, stolen tuples {stolen}");
        for s in &report.sched {
            if s.total_rows == 0 {
                continue;
            }
            let shares: Vec<String> = s
                .worker_tuples
                .iter()
                .map(|&t| format!("{:4.1}%", 100.0 * t as f64 / s.total_rows.max(1) as f64))
                .collect();
            println!(
                "  pipeline {} ({} rows, {} morsels): worker shares {}",
                s.pipeline,
                s.total_rows,
                s.morsels,
                shares.join(" ")
            );
        }
    }

    // ---- Part B: cross-query calibration on one long-lived engine --------
    let tpch_sf = 0.2 * sf;
    println!("\n# Cost-model calibration — TPC-H @ SF {tpch_sf}, adaptive, {threads} threads");
    print_model("default", &CostModel::default());
    let cat = aqe_storage::tpch::generate(tpch_sf);
    // One engine for the whole sequence: what Q1 measures, Q6 starts from.
    let engine = Engine::new(cat.clone());
    let session = engine.session();
    for q in [aqe_queries::tpch::q1(&cat), aqe_queries::tpch::q6(&cat)] {
        let phys = physical(&cat, &q);
        let prepared = session.prepare_plan(phys);
        let opts = ExecOptions {
            mode: ExecMode::Adaptive,
            threads,
            cache_results: false,
            ..Default::default()
        };
        let t0 = Instant::now();
        let (_, report) = session.execute_with(&prepared, &opts).expect("tpch query failed");
        let wall = ms(t0.elapsed());
        let seeded = report.sched.first().map(|s| s.calibrated).unwrap_or(false);
        println!(
            "\n{}: {wall:.2} ms, {} background compiles, {} ctime obs, {} speedup obs{}",
            q.name,
            report.background_compiles,
            report.calibration.compile_observations,
            report.calibration.speedup_observations,
            if seeded { " (seeded from engine store)" } else { "" },
        );
        print_model("calibrated", &report.calibration.model);
    }
    println!(
        "\nengine calibration store: {} shapes, {} reports absorbed",
        engine.calibration().len(),
        engine.calibration().absorbed(),
    );
}
