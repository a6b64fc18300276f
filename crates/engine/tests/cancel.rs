//! Cooperative cancellation, end to end through the session layer
//! (DESIGN.md §13): a poisoned `CancelToken` must stop the morsel loop
//! within one range claim, surface as `ExecError::Cancelled`, and leave
//! every piece of durable state — the prepared query's compiled
//! artifacts, the retained slots, the result cache — exactly as a clean
//! run would have.

use aqe_engine::cancel::{CancelKind, CancelToken};
use aqe_engine::exec::{ExecMode, ExecOptions};
use aqe_engine::plan::{AggFunc, AggSpec, ArithOp, JoinKind, PExpr, PlanNode};
use aqe_engine::session::Engine;
use aqe_storage::{Column, DataType, Table};
use aqe_vm::interp::ExecError;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A deterministic aggregation heavy enough per tuple that a bytecode
/// execution over [`big_catalog`] runs for whole seconds — plenty of
/// range claims for a cancel to land between.
fn heavy_plan(aggs: usize) -> PlanNode {
    let specs = (0..aggs)
        .map(|k| AggSpec {
            func: AggFunc::SumI,
            arg: Some(PExpr::arith(
                ArithOp::Add,
                true,
                false,
                PExpr::arith(ArithOp::Mul, true, false, PExpr::Col(0), PExpr::ConstI(k as i64 + 1)),
                PExpr::Col(1),
            )),
        })
        .collect();
    PlanNode::HashAgg {
        input: Box::new(PlanNode::Scan { table: "big".into(), cols: vec![0, 1], filter: None }),
        group_by: vec![],
        aggs: specs,
    }
}

fn big_catalog(rows: i64) -> aqe_storage::Catalog {
    let mut cat = aqe_storage::Catalog::new();
    cat.add(Table::new(
        "big",
        vec![
            ("x", DataType::Int64, Column::I64((0..rows).map(|v| v % 1000).collect())),
            ("y", DataType::Int64, Column::I64((0..rows).map(|v| (v * 7) % 997).collect())),
        ],
    ));
    cat
}

/// Bytecode-pinned options: the slowest tier, so the uncancelled runtime
/// dwarfs every latency bound asserted below.
fn slow_opts(cancel: CancelToken) -> ExecOptions {
    ExecOptions {
        mode: ExecMode::Bytecode,
        threads: 2,
        cache_results: false,
        cancel,
        ..Default::default()
    }
}

/// Debug builds interpret bytecode an order of magnitude slower; a
/// smaller table keeps tier-1 (`cargo test -q`) fast while release runs
/// still get whole seconds of cancellable work.
#[cfg(debug_assertions)]
const ROWS: i64 = 400_000;
#[cfg(not(debug_assertions))]
const ROWS: i64 = 4_000_000;
const AGGS: usize = 24;

#[test]
fn client_cancel_stops_a_running_query_mid_pipeline() {
    let engine = Arc::new(Engine::new(big_catalog(ROWS)));
    let session = engine.session();
    let prepared = Arc::new(session.prepare(&heavy_plan(AGGS), vec![]));

    // Reference: how long the query takes when nobody stops it.
    let full_start = Instant::now();
    let (_, _) = session.execute_with(&prepared, &slow_opts(CancelToken::new())).unwrap();
    let full = full_start.elapsed();

    let token = CancelToken::new();
    let runner = {
        let engine = engine.clone();
        let prepared = prepared.clone();
        let opts = slow_opts(token.clone());
        std::thread::spawn(move || {
            let t0 = Instant::now();
            let r = engine.session().execute_with(&prepared, &opts);
            (r, t0.elapsed())
        })
    };

    // Let the morsel loop get well into the scan, then poison the token.
    std::thread::sleep(full / 4);
    let cancelled_at = Instant::now();
    assert!(token.cancel(CancelKind::Client), "first cancel must win");
    let (result, ran_for) = runner.join().unwrap();
    let stop_latency = cancelled_at.elapsed();

    match result {
        Err(ExecError::Cancelled { reason }) => assert_eq!(reason, "client cancel"),
        other => panic!("expected Cancelled, got {other:?}"),
    }
    // The loop must stop within one range claim — far faster than
    // finishing the scan. Bound generously against the measured full
    // runtime to stay robust on slow machines.
    assert!(
        stop_latency < full / 2,
        "stop latency {stop_latency:?} not clearly below full runtime {full:?}"
    );
    assert!(
        ran_for < full,
        "cancelled run ({ran_for:?}) should not take as long as a full run ({full:?})"
    );
    assert_eq!(engine.server_stats().cancelled, 1);
    assert_eq!(engine.server_stats().deadline_expired, 0);
}

#[test]
fn cancelled_query_stays_warm_and_reusable() {
    let engine = Arc::new(Engine::new(big_catalog(ROWS / 4)));
    let session = engine.session();
    let prepared = Arc::new(session.prepare(&heavy_plan(AGGS), vec![]));

    // Warm the prepared query with one clean adaptive run.
    let warm_opts = |cancel: CancelToken| ExecOptions {
        mode: ExecMode::Adaptive,
        threads: 2,
        cache_results: false,
        cancel,
        ..Default::default()
    };
    let (reference, first) =
        session.execute_with(&prepared, &warm_opts(CancelToken::new())).unwrap();
    assert!(first.cold_build, "first execution compiles");

    // Cancel a second execution mid-flight.
    let token = CancelToken::new();
    let runner = {
        let engine = engine.clone();
        let prepared = prepared.clone();
        let opts = warm_opts(token.clone());
        std::thread::spawn(move || engine.session().execute_with(&prepared, &opts))
    };
    std::thread::sleep(Duration::from_millis(30));
    token.cancel(CancelKind::Client);
    let cancelled = runner.join().unwrap();
    // The cancel may race completion of a fast warm run; only a
    // mid-flight cancel exercises the property, but either outcome must
    // leave the statement warm.
    if let Err(e) = &cancelled {
        assert!(matches!(e, ExecError::Cancelled { .. }), "unexpected error: {e:?}");
    }

    // The next execution runs warm: no cold build, zero codegen, and the
    // same rows a fresh engine would produce.
    let (rows, report) = session.execute_with(&prepared, &warm_opts(CancelToken::new())).unwrap();
    assert!(!report.cold_build, "cancelled run must not poison the prepared state");
    assert_eq!(report.codegen, Duration::ZERO, "warm reuse means zero codegen");
    assert_eq!(rows.rows, reference.rows, "rows after a cancel match the reference");
}

#[test]
fn cancelled_run_leaves_no_partial_rows_in_the_result_cache() {
    let engine = Arc::new(Engine::new(big_catalog(ROWS)));
    let session = engine.session();
    let prepared = Arc::new(session.prepare(&heavy_plan(AGGS), vec![]));
    let opts = |cancel: CancelToken| ExecOptions {
        mode: ExecMode::Bytecode,
        threads: 2,
        cache_results: true,
        cancel,
        ..Default::default()
    };

    let token = CancelToken::new();
    let runner = {
        let engine = engine.clone();
        let prepared = prepared.clone();
        let opts = opts(token.clone());
        std::thread::spawn(move || engine.session().execute_with(&prepared, &opts))
    };
    std::thread::sleep(Duration::from_millis(200));
    token.cancel(CancelKind::Client);
    let result = runner.join().unwrap();
    assert!(matches!(result, Err(ExecError::Cancelled { .. })), "got {result:?}");

    let stats = engine.cache_stats();
    assert_eq!(stats.insertions, 0, "a cancelled run must insert nothing");
    assert_eq!(stats.entries, 0);
    assert_eq!(stats.hits, 0);
}

#[test]
fn deadline_expiry_cancels_with_its_own_kind() {
    let engine = Arc::new(Engine::new(big_catalog(ROWS)));
    let session = engine.session();
    let prepared = session.prepare(&heavy_plan(AGGS), vec![]);

    let token = CancelToken::with_deadline(Instant::now() + Duration::from_millis(100));
    let t0 = Instant::now();
    let result = session.execute_with(&prepared, &slow_opts(token.clone()));
    let elapsed = t0.elapsed();

    match result {
        Err(ExecError::Cancelled { reason }) => assert_eq!(reason, "deadline exceeded"),
        other => panic!("expected deadline cancellation, got {other:?}"),
    }
    assert_eq!(token.kind(), Some(CancelKind::Deadline), "the token self-poisoned");
    assert!(
        elapsed < Duration::from_secs(20),
        "deadline must stop the run long before completion ({elapsed:?})"
    );
    let stats = engine.server_stats();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.deadline_expired, 1);
}

#[test]
fn a_pre_poisoned_token_refuses_before_any_work() {
    let engine = Arc::new(Engine::new(big_catalog(1000)));
    let session = engine.session();
    let prepared = session.prepare(&heavy_plan(2), vec![]);

    let token = CancelToken::new();
    token.cancel(CancelKind::Disconnect);
    let t0 = Instant::now();
    let result = session.execute_with(&prepared, &slow_opts(token));
    match result {
        Err(ExecError::Cancelled { reason }) => assert_eq!(reason, "connection dropped"),
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert!(t0.elapsed() < Duration::from_secs(1), "refusal happens before work");
    assert_eq!(engine.server_stats().cancelled, 1);
    // Nothing was compiled or cached for the refused run.
    assert_eq!(engine.cache_stats().insertions, 0);
}

/// `keyed` has `rows / 2` distinct keys in `k`; `small` probes 1000 of them.
fn keyed_catalog(rows: i64) -> aqe_storage::Catalog {
    let mut cat = aqe_storage::Catalog::new();
    cat.add(Table::new(
        "keyed",
        vec![
            ("k", DataType::Int64, Column::I64((0..rows).map(|v| v * 7919 % (rows / 2)).collect())),
            ("y", DataType::Int64, Column::I64((0..rows).map(|v| (v * 7) % 997).collect())),
        ],
    ));
    cat.add(Table::new("small", vec![("k", DataType::Int64, Column::I64((0..1000).collect()))]));
    cat
}

/// Sinks with a parallel second phase, each dominating its plan's run
/// time: a group-by with `rows / 2` groups, and a join whose build side
/// is the whole `keyed` table (the probe side is 1000 rows).
fn phase2_plans() -> [(&'static str, PlanNode); 2] {
    let scan = || PlanNode::Scan { table: "keyed".into(), cols: vec![0, 1], filter: None };
    let group_by = PlanNode::HashAgg {
        input: Box::new(scan()),
        group_by: vec![0],
        aggs: (0..8)
            .map(|k| AggSpec {
                func: AggFunc::SumI,
                arg: Some(PExpr::arith(
                    ArithOp::Add,
                    true,
                    false,
                    PExpr::arith(ArithOp::Mul, true, false, PExpr::Col(1), PExpr::ConstI(k + 1)),
                    PExpr::Col(0),
                )),
            })
            .collect(),
    };
    let join = PlanNode::HashAgg {
        input: Box::new(PlanNode::HashJoin {
            build: Box::new(scan()),
            probe: Box::new(PlanNode::Scan { table: "small".into(), cols: vec![0], filter: None }),
            build_keys: vec![0],
            probe_keys: vec![0],
            build_payload: vec![1],
            kind: JoinKind::Inner,
        }),
        group_by: vec![],
        aggs: vec![
            AggSpec { func: AggFunc::CountStar, arg: None },
            AggSpec { func: AggFunc::SumI, arg: Some(PExpr::Col(1)) },
        ],
    };
    [("group-by", group_by), ("join build", join)]
}

fn sorted(rows: &[u64], width: usize) -> Vec<Vec<u64>> {
    let mut out: Vec<Vec<u64>> = rows.chunks_exact(width).map(|r| r.to_vec()).collect();
    out.sort();
    out
}

/// Deadlines landing at several points of an aggregation-sink pipeline and
/// of a join-build pipeline, whose workers meet at a barrier before the
/// sink's parallel phase: each run returns promptly with
/// `ExecError::Cancelled` (or, when the deadline lands after the last
/// check, the right rows), none hangs at the barrier, and the prepared
/// query runs correctly afterwards.
#[test]
fn cancels_during_two_phase_sinks_return_typed_errors_and_leave_the_query_reusable() {
    let engine = Arc::new(Engine::new(keyed_catalog(ROWS / 2)));
    for (name, plan) in phase2_plans() {
        let prepared = Arc::new(engine.session().prepare(&plan, vec![]));
        let width = match &plan {
            PlanNode::HashAgg { group_by, aggs, .. } => group_by.len() + aggs.len(),
            _ => unreachable!(),
        };
        let t0 = Instant::now();
        let (reference, _) =
            engine.session().execute_with(&prepared, &slow_opts(CancelToken::new())).unwrap();
        let full = t0.elapsed();
        let reference = sorted(&reference.rows, width);

        let mut cancelled = 0;
        for frac in [0.1, 0.4, 0.7, 0.9, 0.99] {
            let token = CancelToken::with_deadline(Instant::now() + full.mul_f64(frac));
            let (tx, rx) = std::sync::mpsc::channel();
            {
                let engine = engine.clone();
                let prepared = prepared.clone();
                let opts = slow_opts(token);
                std::thread::spawn(move || {
                    let _ = tx.send(engine.session().execute_with(&prepared, &opts));
                });
            }
            let limit = full * 4 + Duration::from_secs(10);
            match rx.recv_timeout(limit).expect("cancelled run hung (phase-2 barrier?)") {
                Err(ExecError::Cancelled { reason }) => {
                    assert_eq!(reason, "deadline exceeded", "{name} at {frac}");
                    cancelled += 1;
                }
                Ok((rows, _)) => assert_eq!(sorted(&rows.rows, width), reference, "{name}"),
                Err(other) => panic!("{name} at {frac}: expected Cancelled, got {other:?}"),
            }
        }
        assert!(cancelled > 0, "{name}: no deadline landed mid-run (full run {full:?})");

        let (rows, report) =
            engine.session().execute_with(&prepared, &slow_opts(CancelToken::new())).unwrap();
        assert_eq!(sorted(&rows.rows, width), reference, "{name}: rows after the cancels");
        assert!(!report.cold_build, "{name}: the cancels must not poison the prepared state");
    }
}
