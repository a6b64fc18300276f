//! End-to-end engine tests: every execution mode — naive IR interpretation,
//! bytecode, unoptimized, optimized, native machine code, SIMD scan
//! kernels, adaptive — must produce identical results, at 1 and 4 threads,
//! matching a host-computed reference. On platforms without the native
//! emitter (or with `AQE_NATIVE=0` / `AQE_SIMD=0`) the top modes alias
//! downward and the same assertions hold through the alias.

use aqe_engine::exec::{ExecMode, ExecOptions, ParamValue};
use aqe_engine::plan::{
    decompose, AggFunc, AggSpec, ArithOp, CmpOp, FieldTy, JoinKind, PExpr, PlanNode, SortKey,
};
use aqe_engine::session::Engine;
use aqe_storage::{tpch, Catalog, Column, DataType, Table};

fn all_modes() -> [ExecMode; 7] {
    [
        ExecMode::NaiveIr,
        ExecMode::Bytecode,
        ExecMode::Unoptimized,
        ExecMode::Optimized,
        ExecMode::Native,
        ExecMode::Simd,
        ExecMode::Adaptive,
    ]
}

fn run(cat: &Catalog, plan: &PlanNode, mode: ExecMode, threads: usize) -> Vec<u64> {
    let engine = Engine::new(cat.clone());
    let session = engine.session();
    let prepared = session.prepare(plan, vec![]);
    let opts = ExecOptions { mode, threads, ..Default::default() };
    let (res, _report) = session.execute_with(&prepared, &opts).expect("query must succeed");
    res.rows
}

/// Sorted-row comparison for unordered outputs.
fn normalized(mut rows: Vec<u64>, width: usize) -> Vec<Vec<u64>> {
    if width == 0 {
        return vec![];
    }
    let mut out: Vec<Vec<u64>> = rows.chunks_exact(width).map(|r| r.to_vec()).collect();
    out.sort();
    rows.clear();
    out
}

#[test]
fn q6_like_sum_matches_reference_in_all_modes() {
    let cat = tpch::generate(0.01);
    let li = cat.get("lineitem").unwrap();
    // Reference: sum(extprice * discount) where qty < 24 and 5 <= disc <= 7
    let (qty, ext, disc) = (
        li.column_by_name("l_quantity").unwrap(),
        li.column_by_name("l_extendedprice").unwrap(),
        li.column_by_name("l_discount").unwrap(),
    );
    let mut expect: i64 = 0;
    for r in 0..li.row_count() {
        let (q, e, d) = (qty.get_u64(r) as i64, ext.get_u64(r) as i64, disc.get_u64(r) as i64);
        if q < 2400 && (5..=7).contains(&d) {
            expect += e * d;
        }
    }

    let plan = PlanNode::HashAgg {
        input: Box::new(PlanNode::Scan {
            table: "lineitem".into(),
            cols: vec![4, 5, 6], // qty, extprice, discount
            filter: Some(PExpr::and(
                PExpr::cmp(CmpOp::Lt, false, PExpr::Col(0), PExpr::ConstI(2400)),
                PExpr::and(
                    PExpr::cmp(CmpOp::Ge, false, PExpr::Col(2), PExpr::ConstI(5)),
                    PExpr::cmp(CmpOp::Le, false, PExpr::Col(2), PExpr::ConstI(7)),
                ),
            )),
        }),
        group_by: vec![],
        aggs: vec![AggSpec {
            func: AggFunc::SumI,
            arg: Some(PExpr::arith(ArithOp::Mul, true, false, PExpr::Col(1), PExpr::Col(2))),
        }],
    };

    for mode in all_modes() {
        for threads in [1, 4] {
            let rows = run(&cat, &plan, mode, threads);
            assert_eq!(rows.len(), 1, "{mode:?}/{threads}");
            assert_eq!(rows[0] as i64, expect, "{mode:?}/{threads} sum mismatch");
        }
    }
}

#[test]
fn group_by_agg_matches_reference() {
    let cat = tpch::generate(0.01);
    let li = cat.get("lineitem").unwrap();
    let (rf, qty) =
        (li.column_by_name("l_returnflag").unwrap(), li.column_by_name("l_quantity").unwrap());
    use std::collections::HashMap;
    let mut expect: HashMap<u64, (i64, i64)> = HashMap::new();
    for r in 0..li.row_count() {
        let e = expect.entry(rf.get_u64(r)).or_default();
        e.0 += qty.get_u64(r) as i64;
        e.1 += 1;
    }

    let plan = PlanNode::HashAgg {
        input: Box::new(PlanNode::Scan {
            table: "lineitem".into(),
            cols: vec![8, 4], // returnflag, quantity
            filter: None,
        }),
        group_by: vec![0],
        aggs: vec![
            AggSpec { func: AggFunc::SumI, arg: Some(PExpr::Col(1)) },
            AggSpec { func: AggFunc::CountStar, arg: None },
        ],
    };

    let reference = run(&cat, &plan, ExecMode::Bytecode, 1);
    let ref_rows = normalized(reference, 3);
    assert_eq!(ref_rows.len(), expect.len());
    for row in &ref_rows {
        let (sum, cnt) = expect[&row[0]];
        assert_eq!(row[1] as i64, sum);
        assert_eq!(row[2] as i64, cnt);
    }
    for mode in all_modes() {
        for threads in [1, 4] {
            let rows = normalized(run(&cat, &plan, mode, threads), 3);
            assert_eq!(rows, ref_rows, "{mode:?}/{threads}");
        }
    }
}

#[test]
fn hash_join_matches_reference() {
    let cat = tpch::generate(0.01);
    // supplier ⋈ lineitem on suppkey, count matches and sum qty per nation.
    let plan = PlanNode::HashAgg {
        input: Box::new(PlanNode::HashJoin {
            build: Box::new(PlanNode::Scan {
                table: "supplier".into(),
                cols: vec![0, 3], // suppkey, nationkey
                filter: None,
            }),
            probe: Box::new(PlanNode::Scan {
                table: "lineitem".into(),
                cols: vec![2, 4], // suppkey, quantity
                filter: None,
            }),
            build_keys: vec![0],
            probe_keys: vec![0],
            build_payload: vec![1], // nationkey
            kind: JoinKind::Inner,
        }),
        group_by: vec![2], // nationkey (appended payload)
        aggs: vec![
            AggSpec { func: AggFunc::SumI, arg: Some(PExpr::Col(1)) },
            AggSpec { func: AggFunc::CountStar, arg: None },
        ],
    };

    // Host reference.
    let li = cat.get("lineitem").unwrap();
    let su = cat.get("supplier").unwrap();
    let nk_of: Vec<i64> = (0..su.row_count())
        .map(|r| su.column_by_name("s_nationkey").unwrap().get_u64(r) as i64)
        .collect();
    use std::collections::HashMap;
    let mut expect: HashMap<u64, (i64, i64)> = HashMap::new();
    let (sk, qty) =
        (li.column_by_name("l_suppkey").unwrap(), li.column_by_name("l_quantity").unwrap());
    for r in 0..li.row_count() {
        let nk = nk_of[sk.get_u64(r) as usize] as u64;
        let e = expect.entry(nk).or_default();
        e.0 += qty.get_u64(r) as i64;
        e.1 += 1;
    }

    for mode in all_modes() {
        for threads in [1, 4] {
            let rows = normalized(run(&cat, &plan, mode, threads), 3);
            assert_eq!(rows.len(), expect.len(), "{mode:?}/{threads}");
            for row in &rows {
                let (sum, cnt) = expect[&row[0]];
                assert_eq!(row[1] as i64, sum, "{mode:?}/{threads}");
                assert_eq!(row[2] as i64, cnt, "{mode:?}/{threads}");
            }
        }
    }
}

#[test]
fn semi_and_anti_join_partition_the_probe_side() {
    let cat = tpch::generate(0.01);
    // Suppliers from nation 3 as the build side; count lineitems whose
    // supplier is / is not in that set.
    let build = PlanNode::Scan {
        table: "supplier".into(),
        cols: vec![0, 3],
        filter: Some(PExpr::cmp(CmpOp::Eq, false, PExpr::Col(1), PExpr::ConstI(3))),
    };
    let mk = |kind: JoinKind| PlanNode::HashAgg {
        input: Box::new(PlanNode::HashJoin {
            build: Box::new(build.clone()),
            probe: Box::new(PlanNode::Scan {
                table: "lineitem".into(),
                cols: vec![2],
                filter: None,
            }),
            build_keys: vec![0],
            probe_keys: vec![0],
            build_payload: vec![],
            kind,
        }),
        group_by: vec![],
        aggs: vec![AggSpec { func: AggFunc::CountStar, arg: None }],
    };
    let total = cat.get("lineitem").unwrap().row_count() as i64;
    for threads in [1, 4] {
        let semi = run(&cat, &mk(JoinKind::Semi), ExecMode::Adaptive, threads);
        let anti = run(&cat, &mk(JoinKind::Anti), ExecMode::Optimized, threads);
        assert_eq!(semi[0] as i64 + anti[0] as i64, total);
        assert!(semi[0] > 0, "some lineitems must match nation-3 suppliers");
    }
}

#[test]
fn sort_with_limit_is_ordered_and_stable_across_modes() {
    let cat = tpch::generate(0.01);
    let plan = PlanNode::Sort {
        input: Box::new(PlanNode::HashAgg {
            input: Box::new(PlanNode::Scan {
                table: "orders".into(),
                cols: vec![1, 3], // custkey, totalprice
                filter: None,
            }),
            group_by: vec![0],
            aggs: vec![AggSpec { func: AggFunc::SumI, arg: Some(PExpr::Col(1)) }],
        }),
        keys: vec![
            SortKey { field: 1, asc: false, float: false },
            SortKey { field: 0, asc: true, float: false },
        ],
        limit: Some(10),
    };
    let reference = run(&cat, &plan, ExecMode::Bytecode, 1);
    assert_eq!(reference.len(), 20);
    // descending by sum
    for w in reference.chunks_exact(2).collect::<Vec<_>>().windows(2) {
        assert!(w[0][1] as i64 >= w[1][1] as i64);
    }
    for mode in all_modes() {
        for threads in [1, 4] {
            assert_eq!(run(&cat, &plan, mode, threads), reference, "{mode:?}/{threads}");
        }
    }
}

#[test]
fn overflow_in_generated_code_is_reported() {
    let cat = tpch::generate(0.001);
    // sum(extprice * extprice * extprice) overflows i64 quickly.
    let cube = PExpr::arith(
        ArithOp::Mul,
        true,
        false,
        PExpr::arith(ArithOp::Mul, true, false, PExpr::Col(0), PExpr::Col(0)),
        PExpr::arith(ArithOp::Mul, true, false, PExpr::Col(0), PExpr::Col(0)),
    );
    let plan = PlanNode::HashAgg {
        input: Box::new(PlanNode::Scan { table: "lineitem".into(), cols: vec![5], filter: None }),
        group_by: vec![],
        aggs: vec![AggSpec { func: AggFunc::SumI, arg: Some(cube) }],
    };
    let engine = Engine::new(cat.clone());
    let session = engine.session();
    let prepared = session.prepare(&plan, vec![]);
    for mode in all_modes() {
        let opts = ExecOptions { mode, threads: 2, ..Default::default() };
        let r = session.execute_with(&prepared, &opts);
        assert!(r.is_err(), "{mode:?} must report the overflow");
    }
}

#[test]
fn adaptive_mode_compiles_hot_pipelines_eventually() {
    // Force compilation to look attractive: zero compile-cost model.
    let cat = tpch::generate(0.05);
    let plan = PlanNode::HashAgg {
        input: Box::new(PlanNode::Scan { table: "lineitem".into(), cols: vec![4], filter: None }),
        group_by: vec![],
        aggs: vec![AggSpec { func: AggFunc::SumI, arg: Some(PExpr::Col(0)) }],
    };
    let phys = decompose(&cat, &plan, vec![]);
    let mut opts = ExecOptions {
        mode: ExecMode::Adaptive,
        threads: 2,
        trace: true,
        first_eval: std::time::Duration::from_micros(50),
        min_morsel: 256,
        ..Default::default()
    };
    opts.model.unopt_base_s = 0.0;
    opts.model.unopt_per_instr_s = 0.0;
    opts.model.native_base_s = 0.0;
    opts.model.native_per_instr_s = 0.0;
    opts.model.speedup_native = 100.0; // make compilation irresistible
    opts.model.speedup_unopt = 50.0;
    let engine = Engine::new(cat.clone());
    let session = engine.session();
    let prepared = session.prepare_plan(phys);
    let (res, report) = session.execute_with(&prepared, &opts).unwrap();
    assert_eq!(res.row_count(), 1);
    if !aqe_jit::native::enabled() {
        // No emitter and no scan kernel: nothing above bytecode to reach.
        return;
    }
    assert!(
        report.background_compiles > 0,
        "adaptive execution should have compiled at least one pipeline"
    );
    // The trace must contain morsels in more than one execution mode.
    let modes: std::collections::HashSet<u8> =
        report.trace.iter().filter(|e| e.kind != 255).map(|e| e.kind).collect();
    assert!(!modes.is_empty());
}

/// A table built to stress the SIMD scan kernels: NaN lanes (the repo's
/// NULL stand-in for floats), int32 boundary constants, i64 extremes, and
/// a row count that is not a multiple of any lane width (nor of the
/// 64-row mask block). Every mode — kernel or scalar — must agree with a
/// host-computed reference exactly.
#[test]
fn simd_kernel_differential_nan_boundaries_odd_rows() {
    let rows = 64 * 16 + 37; // partial tail block, odd length
    let a: Vec<i32> = (0..rows)
        .map(|i| match i % 11 {
            0 => i32::MIN,
            1 => i32::MAX,
            _ => (i as i32 - 500) * 3,
        })
        .collect();
    let b: Vec<f64> =
        (0..rows).map(|i| if i % 9 == 0 { f64::NAN } else { (i as f64 - 500.0) * 0.25 }).collect();
    let c: Vec<i64> = (0..rows)
        .map(|i| match i % 7 {
            0 => i64::MIN,
            1 => i64::MAX,
            _ => (i as i64 - 500) * 1_000_000_007,
        })
        .collect();
    let mut cat = Catalog::new();
    cat.add(Table::new(
        "t",
        vec![
            ("a", DataType::Int32, Column::I32(a.clone())),
            ("b", DataType::Float64, Column::F64(b.clone())),
            ("c", DataType::Int64, Column::I64(c.clone())),
        ],
    ));

    // a < 1000 AND a >= i32::MIN (boundary, always true) AND b < 0.5
    // (NaN rows must drop) AND c >= -4e18 — all four vectorizable.
    let pred = PExpr::and(
        PExpr::and(
            PExpr::cmp(CmpOp::Lt, false, PExpr::Col(0), PExpr::ConstI(1000)),
            PExpr::cmp(CmpOp::Ge, false, PExpr::Col(0), PExpr::ConstI(i32::MIN as i64)),
        ),
        PExpr::and(
            PExpr::cmp(CmpOp::Lt, true, PExpr::Col(1), PExpr::ConstF(0.5)),
            PExpr::cmp(CmpOp::Ge, false, PExpr::Col(2), PExpr::ConstI(-4_000_000_000_000_000_000)),
        ),
    );
    let plan = PlanNode::HashAgg {
        input: Box::new(PlanNode::Scan {
            table: "t".into(),
            cols: vec![0, 1, 2],
            filter: Some(pred),
        }),
        group_by: vec![],
        aggs: vec![
            AggSpec { func: AggFunc::CountStar, arg: None },
            AggSpec { func: AggFunc::SumI, arg: Some(PExpr::Col(0)) },
            AggSpec { func: AggFunc::MinF, arg: Some(PExpr::Col(1)) },
        ],
    };

    // Host reference with the generated code's exact widening semantics.
    let (mut count, mut sum_a, mut min_b) = (0u64, 0i64, f64::INFINITY);
    for i in 0..rows {
        let pass = (a[i] as i64) < 1000
            && (a[i] as i64) >= i32::MIN as i64
            && b[i] < 0.5
            && c[i] >= -4_000_000_000_000_000_000;
        if pass {
            count += 1;
            sum_a += a[i] as i64;
            min_b = min_b.min(b[i]);
        }
    }
    assert!(count > 0 && (count as usize) < rows, "predicate must be selective");
    let reference = vec![count, sum_a as u64, min_b.to_bits()];

    for mode in all_modes() {
        for threads in [1, 4] {
            assert_eq!(run(&cat, &plan, mode, threads), reference, "{mode:?}/{threads}");
        }
    }
}

/// The parameterized twin of the differential above: the same
/// NaN/extreme/odd-tail table, but every filter constant is a bind
/// variable. One prepared query per mode is swept through bindings that
/// include lane-domain escapes (an `i32` column compared against
/// `i32::MAX + 1`), a NaN float parameter, negative zero, and the `i64`
/// extremes. All seven modes must stay bit-identical to the naive-IR
/// oracle on every binding — in particular `ExecMode::Simd`, whose
/// retained kernel skeleton re-resolves (and, out of domain, drops)
/// conjuncts per binding instead of baking the first value in.
#[test]
fn bound_q6_differential_is_bit_identical_across_all_modes() {
    let rows = 64 * 16 + 37;
    let a: Vec<i32> = (0..rows)
        .map(|i| match i % 11 {
            0 => i32::MIN,
            1 => i32::MAX,
            _ => (i as i32 - 500) * 3,
        })
        .collect();
    let b: Vec<f64> =
        (0..rows).map(|i| if i % 9 == 0 { f64::NAN } else { (i as f64 - 500.0) * 0.25 }).collect();
    let c: Vec<i64> = (0..rows)
        .map(|i| match i % 7 {
            0 => i64::MIN,
            1 => i64::MAX,
            _ => (i as i64 - 500) * 1_000_000_007,
        })
        .collect();
    let mut cat = Catalog::new();
    cat.add(Table::new(
        "t",
        vec![
            ("a", DataType::Int32, Column::I32(a.clone())),
            ("b", DataType::Float64, Column::F64(b.clone())),
            ("c", DataType::Int64, Column::I64(c.clone())),
        ],
    ));

    // a < $1 AND b < $2 AND c >= $3 — the Q6 shape with every constant
    // generalized.
    let pred = PExpr::and(
        PExpr::cmp(CmpOp::Lt, false, PExpr::Col(0), PExpr::Param { idx: 0, ty: FieldTy::I64 }),
        PExpr::and(
            PExpr::cmp(CmpOp::Lt, true, PExpr::Col(1), PExpr::Param { idx: 1, ty: FieldTy::F64 }),
            PExpr::cmp(CmpOp::Ge, false, PExpr::Col(2), PExpr::Param { idx: 2, ty: FieldTy::I64 }),
        ),
    );
    let plan = PlanNode::HashAgg {
        input: Box::new(PlanNode::Scan {
            table: "t".into(),
            cols: vec![0, 1, 2],
            filter: Some(pred),
        }),
        group_by: vec![],
        aggs: vec![
            AggSpec { func: AggFunc::CountStar, arg: None },
            AggSpec { func: AggFunc::SumI, arg: Some(PExpr::Col(0)) },
            AggSpec { func: AggFunc::MinF, arg: Some(PExpr::Col(1)) },
        ],
    };

    // Bindings chosen per the boundary corpus: in-domain, i32 lane-domain
    // escapes in both directions (the SIMD kernel must drop the conjunct,
    // not wrap it), a NaN parameter (selects nothing — IEEE, not a crash),
    // negative zero, and the i64 extremes.
    let bindings: Vec<[ParamValue; 3]> = vec![
        [ParamValue::I64(1000), ParamValue::F64(0.5), ParamValue::I64(-4_000_000_000_000_000_000)],
        [
            ParamValue::I64(i32::MAX as i64 + 1),
            ParamValue::F64(f64::INFINITY),
            ParamValue::I64(i64::MIN),
        ],
        [ParamValue::I64(i32::MIN as i64 - 1), ParamValue::F64(1e18), ParamValue::I64(i64::MIN)],
        [ParamValue::I64(0), ParamValue::F64(-0.0), ParamValue::I64(0)],
        [ParamValue::I64(i64::MAX), ParamValue::F64(f64::NAN), ParamValue::I64(i64::MAX)],
        [ParamValue::I64(-1500), ParamValue::F64(f64::MIN_POSITIVE), ParamValue::I64(0)],
    ];

    // Host reference per binding, with the generated code's exact widening
    // semantics. Bindings that select rows are checked against it; the
    // empty ones are still pinned mode-to-mode below.
    let host: Vec<Option<Vec<u64>>> = bindings
        .iter()
        .map(|p| {
            let (ParamValue::I64(p0), ParamValue::F64(p1), ParamValue::I64(p2)) =
                (&p[0], &p[1], &p[2])
            else {
                unreachable!()
            };
            let (mut count, mut sum_a, mut min_b) = (0u64, 0i64, f64::INFINITY);
            for i in 0..rows {
                if (a[i] as i64) < *p0 && b[i] < *p1 && c[i] >= *p2 {
                    count += 1;
                    sum_a += a[i] as i64;
                    min_b = min_b.min(b[i]);
                }
            }
            (count > 0).then(|| vec![count, sum_a as u64, min_b.to_bits()])
        })
        .collect();
    assert!(host.iter().filter(|h| h.is_some()).count() >= 3, "corpus must select rows somewhere");
    assert!(host.iter().any(|h| h.is_none()), "corpus must include an empty binding");

    // Oracle: the naive IR walker, one warm prepared query over all
    // bindings in sequence (a stale re-resolution would show up here).
    let oracle: Vec<Vec<u64>> = {
        let engine = Engine::new(cat.clone());
        let session = engine.session();
        let prepared = session.prepare(&plan, vec![]);
        let opts = ExecOptions {
            mode: ExecMode::NaiveIr,
            threads: 1,
            cache_results: false,
            ..Default::default()
        };
        bindings
            .iter()
            .map(|p| session.execute_bound_with(&prepared, p, &opts).expect("oracle").0.rows)
            .collect()
    };
    for (bi, h) in host.iter().enumerate() {
        if let Some(h) = h {
            assert_eq!(&oracle[bi], h, "oracle disagrees with host on binding {bi}");
        }
    }

    for mode in all_modes() {
        for threads in [1, 4] {
            let engine = Engine::new(cat.clone());
            let session = engine.session();
            let prepared = session.prepare(&plan, vec![]);
            let opts = ExecOptions { mode, threads, cache_results: false, ..Default::default() };
            for (bi, p) in bindings.iter().enumerate() {
                let (res, _) = session.execute_bound_with(&prepared, p, &opts).expect("bound run");
                assert_eq!(res.rows, oracle[bi], "{mode:?}/{threads} binding {bi}");
            }
        }
    }
}

/// When the SIMD gate is open, `ExecMode::Simd` on a vectorizable scan
/// must genuinely execute through the kernel backend (trace kind 5), not
/// silently alias to the scalar native tier — and the adaptive controller
/// must be *able* to pick it: with compile costs zeroed and an enormous
/// modelled speedup, the ladder's top backend for this scan is the kernel.
#[test]
fn simd_mode_and_adaptive_ceiling_reach_the_kernel() {
    if !aqe_engine::simd::enabled() {
        return; // AQE_SIMD=0: the mode aliases by design
    }
    let cat = tpch::generate(0.02);
    let plan = PlanNode::HashAgg {
        input: Box::new(PlanNode::Scan {
            table: "lineitem".into(),
            cols: vec![4, 5],
            filter: Some(PExpr::cmp(CmpOp::Lt, false, PExpr::Col(0), PExpr::ConstI(2400))),
        }),
        group_by: vec![],
        aggs: vec![AggSpec { func: AggFunc::SumI, arg: Some(PExpr::Col(1)) }],
    };
    let engine = Engine::new(cat.clone());
    let session = engine.session();
    let prepared = session.prepare(&plan, vec![]);

    // Pinned Simd mode: the scan pipeline's morsels trace as kind 5.
    let opts = ExecOptions { mode: ExecMode::Simd, threads: 2, trace: true, ..Default::default() };
    let (_, report) = session.execute_with(&prepared, &opts).unwrap();
    assert!(
        report.trace.iter().any(|e| e.kind == 5),
        "pinned Simd mode must run morsels through the kernel backend"
    );

    // Adaptive: make upgrading irresistible and verify the controller
    // climbs all the way to the kernel tier on this scan.
    let mut opts = ExecOptions {
        mode: ExecMode::Adaptive,
        threads: 2,
        trace: true,
        first_eval: std::time::Duration::from_micros(50),
        min_morsel: 256,
        ..Default::default()
    };
    opts.model.unopt_base_s = 0.0;
    opts.model.unopt_per_instr_s = 0.0;
    opts.model.native_base_s = 0.0;
    opts.model.native_per_instr_s = 0.0;
    opts.model.simd_base_s = 0.0;
    opts.model.simd_per_instr_s = 0.0;
    opts.model.speedup_simd = 1000.0;
    // The climb races background compilation against a short scan, and a
    // run that settles below the kernel retains that level — so each
    // attempt gets a fresh engine and redoes the whole climb. One of a
    // handful of attempts must trace through the kernel.
    let mut reached = false;
    for _ in 0..12 {
        let engine2 = Engine::new(cat.clone());
        let session2 = engine2.session();
        let prepared2 = session2.prepare(&plan, vec![]);
        let (_, report2) = session2.execute_with(&prepared2, &opts).unwrap();
        if report2.trace.iter().any(|e| e.kind == 5) {
            reached = true;
            break;
        }
    }
    assert!(reached, "adaptive controller should reach the SIMD tier on a hot vectorizable scan");
}
