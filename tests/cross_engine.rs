//! Workspace-level integration tests: the whole TPC-H corpus must produce
//! identical results across the compiling engine's six execution modes
//! (native machine code included — or its fallback alias on targets
//! without the emitter) and both baseline engines, single- and
//! multi-threaded.

use aqe::baselines::{execute_vectorized, execute_volcano};
use aqe::engine::exec::{ExecMode, ExecOptions};
use aqe::engine::plan::decompose;
use aqe::engine::session::Engine;
use aqe::queries::{synthetic, tpcds, tpch};
use aqe::storage::{tpcds as ds_data, tpch as tpch_data};

fn normalized(rows: &[u64], width: usize, sorted: bool) -> Vec<Vec<u64>> {
    if width == 0 {
        return vec![];
    }
    let mut out: Vec<Vec<u64>> = rows.chunks_exact(width).map(|r| r.to_vec()).collect();
    if !sorted {
        out.sort();
    }
    out
}

#[test]
fn tpch_corpus_agrees_across_all_engines_and_modes() {
    let cat = tpch_data::generate(0.01);
    for q in tpch::all(&cat) {
        let phys = decompose(&cat, &q.root, q.dicts.clone());
        let width = phys.output_tys.len();
        let sorted = phys.sorted_output;

        let volcano = normalized(
            &execute_volcano(&cat, &q.root, &phys).unwrap_or_else(|e| panic!("{}: {e}", q.name)),
            width,
            sorted,
        );
        let vector = normalized(&execute_vectorized(&cat, &q.root, &phys).unwrap(), width, sorted);
        assert_eq!(volcano, vector, "{}: baselines disagree", q.name);

        let engine = Engine::new(cat.clone());
        let session = engine.session();
        let prepared = session.prepare_plan(phys.clone());
        for mode in [
            ExecMode::Bytecode,
            ExecMode::Unoptimized,
            ExecMode::Optimized,
            ExecMode::Native,
            ExecMode::Adaptive,
        ] {
            for threads in [1, 4] {
                let opts =
                    ExecOptions { mode, threads, cache_results: false, ..Default::default() };
                let (res, _) = session
                    .execute_with(&prepared, &opts)
                    .unwrap_or_else(|e| panic!("{} {mode:?}: {e}", q.name));
                let got = normalized(&res.rows, width, sorted);
                assert_eq!(got, volcano, "{} {mode:?} x{threads} disagrees with baselines", q.name);
            }
        }
    }
}

#[test]
fn tpcds_corpus_agrees() {
    let cat = ds_data::generate(0.01);
    for q in tpcds::all(&cat) {
        let phys = decompose(&cat, &q.root, q.dicts.clone());
        let width = phys.output_tys.len();
        let volcano =
            normalized(&execute_volcano(&cat, &q.root, &phys).unwrap(), width, phys.sorted_output);
        let engine = Engine::new(cat.clone());
        let session = engine.session();
        let prepared = session.prepare_plan(phys.clone());
        for mode in
            [ExecMode::Bytecode, ExecMode::Unoptimized, ExecMode::Native, ExecMode::Adaptive]
        {
            let opts = ExecOptions { mode, threads: 2, cache_results: false, ..Default::default() };
            let (res, _) = session.execute_with(&prepared, &opts).unwrap();
            assert_eq!(
                normalized(&res.rows, width, phys.sorted_output),
                volcano,
                "{} {mode:?}",
                q.name
            );
        }
    }
}

#[test]
fn wide_aggregate_queries_agree_at_scale() {
    let cat = tpch_data::generate(0.002);
    for n in [10, 150] {
        let q = synthetic::wide_agg(n);
        let phys = decompose(&cat, &q.root, vec![]);
        let engine = Engine::new(cat.clone());
        let session = engine.session();
        let prepared = session.prepare_plan(phys);
        let mut results = Vec::new();
        for mode in
            [ExecMode::Bytecode, ExecMode::Unoptimized, ExecMode::Optimized, ExecMode::Native]
        {
            let opts = ExecOptions { mode, threads: 2, cache_results: false, ..Default::default() };
            let (res, _) = session.execute_with(&prepared, &opts).unwrap();
            results.push(res.rows);
        }
        for (k, r) in results.iter().enumerate().skip(1) {
            assert_eq!(&results[0], r, "wide_agg_{n} mode #{k}");
        }
    }
}

#[test]
fn sql_frontend_to_adaptive_execution_end_to_end() {
    let cat = tpch_data::generate(0.005);
    let bound = aqe::sql::plan_sql(
        &cat,
        "SELECT n_name, count(*) AS cnt FROM supplier \
         JOIN nation ON s_nationkey = n_nationkey \
         GROUP BY n_name ORDER BY cnt DESC, n_name LIMIT 3",
    )
    .unwrap();
    let phys = decompose(&cat, &bound.root, bound.dicts);
    let engine = Engine::new(cat.clone());
    let session = engine.session();
    let prepared = session.prepare_plan(phys.clone());
    let opts = ExecOptions { mode: ExecMode::Adaptive, threads: 2, ..Default::default() };
    let (res, _) = session.execute_with(&prepared, &opts).unwrap();
    assert_eq!(res.row_count(), 3);
    // Also through Volcano for agreement.
    let v = execute_volcano(&cat, &bound.root, &phys).unwrap();
    assert_eq!(res.rows, v);
}

/// Sinks big enough that phase 2 of their finalization does real work on
/// every worker: a group-by with more groups per worker than one morsel
/// holds rows (each worker's table grows many times and the merge spreads
/// over all partitions) and a join whose build side has 200 000 rows with
/// duplicate keys. Every mode at 1–4 threads against Volcano.
#[test]
fn large_sinks_agree_with_volcano_at_every_thread_count() {
    use aqe::engine::plan::{AggFunc, AggSpec, JoinKind, PExpr, PlanNode};
    use aqe::storage::{Catalog, Column, DataType, Table};
    const FACTS: i64 = 320_000;
    const GROUPS: i64 = 300_000;
    const DIM: i64 = 200_000;
    let mut cat = Catalog::new();
    cat.add(Table::new(
        "facts",
        vec![
            ("k", DataType::Int64, Column::I64((0..FACTS).map(|i| i * 7919 % GROUPS).collect())),
            ("v", DataType::Int64, Column::I64((0..FACTS).map(|i| i % 1000 - 300).collect())),
            (
                "f",
                DataType::Float64,
                Column::F64((0..FACTS).map(|i| (i % 97) as f64 * 0.5).collect()),
            ),
        ],
    ));
    cat.add(Table::new(
        "dim",
        vec![
            ("dk", DataType::Int64, Column::I64((0..DIM).map(|i| i * 3 % 450_000).collect())),
            ("dv", DataType::Int64, Column::I64((0..DIM).collect())),
        ],
    ));
    let scan =
        |table: &str, cols: Vec<usize>| PlanNode::Scan { table: table.into(), cols, filter: None };
    let agg = |func, col: Option<usize>| AggSpec { func, arg: col.map(PExpr::Col) };
    let group_by = PlanNode::HashAgg {
        input: Box::new(scan("facts", vec![0, 1, 2])),
        group_by: vec![0],
        aggs: vec![
            agg(AggFunc::SumI, Some(1)),
            agg(AggFunc::CountStar, None),
            agg(AggFunc::MinI, Some(1)),
            agg(AggFunc::MaxF, Some(2)),
            agg(AggFunc::SumF, Some(2)),
        ],
    };
    let join = PlanNode::HashAgg {
        input: Box::new(PlanNode::HashJoin {
            build: Box::new(scan("dim", vec![0, 1])),
            probe: Box::new(scan("facts", vec![0, 1])),
            build_keys: vec![0],
            probe_keys: vec![0],
            build_payload: vec![1],
            kind: JoinKind::Inner,
        }),
        group_by: vec![1],
        aggs: vec![agg(AggFunc::CountStar, None), agg(AggFunc::SumI, Some(2))],
    };

    let engine = Engine::new(cat.clone());
    let session = engine.session();
    for (name, root) in [("group-by", group_by), ("join", join)] {
        let phys = decompose(&cat, &root, vec![]);
        let width = phys.output_tys.len();
        let volcano = normalized(&execute_volcano(&cat, &root, &phys).unwrap(), width, false);
        assert!(volcano.len() >= 1000, "{name}: {} rows", volcano.len());
        let prepared = session.prepare_plan(phys);
        for mode in [
            ExecMode::NaiveIr,
            ExecMode::Bytecode,
            ExecMode::Unoptimized,
            ExecMode::Optimized,
            ExecMode::Native,
            ExecMode::Simd,
            ExecMode::Adaptive,
        ] {
            for threads in 1..=4 {
                let opts =
                    ExecOptions { mode, threads, cache_results: false, ..Default::default() };
                let (res, _) = session
                    .execute_with(&prepared, &opts)
                    .unwrap_or_else(|e| panic!("{name} {mode:?} x{threads}: {e}"));
                let got = normalized(&res.rows, width, false);
                assert_eq!(got, volcano, "{name} {mode:?} x{threads} disagrees with Volcano");
            }
        }
    }
}
