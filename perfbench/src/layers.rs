//! Per-layer probes for the traced run (`--trace 1`). Layers are timed
//! from outside, by calling each crate's public entry points, or read
//! from the `Report`s and `TraceEvent`s of traced executions; no engine
//! code is instrumented for the benchmark.

use crate::corpus::Entry;
use crate::stats::median;
use crate::{us, Outcome, THREADS};
use aqe_bench::{geomean, ms};
use aqe_engine::exec::{ExecMode, ExecOptions, Report};
use aqe_engine::plan::{decompose, AggFunc, AggSpec, PExpr, PlanNode};
use aqe_engine::session::{CacheStats, ConcurrencyStats, Engine, PreparedQuery};
use aqe_jit::compile::{compile, OptLevel};
use aqe_storage::Catalog;
use std::time::Instant;

/// The pinned tiers of the Fig. 2 trade-off, with their trace kind.
pub const TIERS: [(ExecMode, &str, u8); 5] = [
    (ExecMode::Bytecode, "bytecode", 0),
    (ExecMode::Unoptimized, "unoptimized", 1),
    (ExecMode::Optimized, "optimized", 2),
    (ExecMode::Native, "native", 4),
    (ExecMode::Simd, "simd", 5),
];

/// Whether entry `i` bound to `p` returned the oracle's rows.
pub type RowCheck<'a> = dyn Fn(usize, Option<i64>, &[u64]) -> bool + 'a;

/// Trace kind of a background compilation event.
const KIND_COMPILE: u8 = 255;

/// What building one entry's code costs, layer by layer (medians).
#[derive(Clone, Debug, Default)]
pub struct ModuleCost {
    /// Tokenize + parse + bind + optimize (SQL entries only).
    pub sql_us: f64,
    pub decompose_us: f64,
    pub codegen_us: f64,
    pub ir_instrs: f64,
    pub translate_us: f64,
    pub bc_instrs: f64,
    /// Whole-module compile time per level: unoptimized, optimized, native.
    pub jit_ms: [f64; 3],
    pub code_bytes: f64,
}

/// Time every build layer of `entry` `reps` times and keep the medians.
pub fn module_cost(cat: &Catalog, entry: &Entry, reps: usize) -> Result<ModuleCost, String> {
    let mut samples: Vec<[f64; 7]> = Vec::new();
    let mut c = ModuleCost::default();
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let (root, dicts) = entry.tree(cat)?;
        let sql = if matches!(entry.source, crate::corpus::Source::Sql(_)) {
            us(t.elapsed())
        } else {
            0.0
        };
        let t = Instant::now();
        let phys = decompose(cat, &root, dicts);
        let dec = us(t.elapsed());
        let t = Instant::now();
        let module = aqe_engine::codegen::generate(&phys, cat);
        let cdg = us(t.elapsed());
        c.ir_instrs = module.instruction_count() as f64;
        let t = Instant::now();
        let mut bc = 0usize;
        for f in &module.functions {
            bc += aqe_vm::translate::translate(f, &module.externs, Default::default())
                .map_err(|e| format!("{}: translate: {e:?}", entry.name))?
                .len();
        }
        let tr = us(t.elapsed());
        c.bc_instrs = bc as f64;
        let mut jit = [0.0; 3];
        for (slot, level) in [(0, OptLevel::Unoptimized), (1, OptLevel::Optimized)] {
            let t = Instant::now();
            for f in &module.functions {
                compile(f, &module.externs, level)
                    .map_err(|e| format!("{}: compile: {e:?}", entry.name))?;
            }
            jit[slot] = ms(t.elapsed());
        }
        let t = Instant::now();
        let mut bytes = 0usize;
        for f in &module.functions {
            // Without the emitter (non-x86, AQE_NATIVE=0) native costs 0.
            if let Ok(nf) = aqe_jit::compile_native(f, &module.externs) {
                bytes += nf.stats.code_bytes;
            }
        }
        jit[2] = ms(t.elapsed());
        c.code_bytes = bytes as f64;
        samples.push([sql, dec, cdg, tr, jit[0], jit[1], jit[2]]);
    }
    let col = |i: usize| median(&samples.iter().map(|s| s[i]).collect::<Vec<_>>());
    c.sql_us = col(0);
    c.decompose_us = col(1);
    c.codegen_us = col(2);
    c.translate_us = col(3);
    c.jit_ms = [col(4), col(5), col(6)];
    Ok(c)
}

/// Build-layer metrics. Per entry `i`: `planned[i]` counts the timed
/// operations that planned its SQL text, `built[i]` those that built
/// compiled state (decompose, codegen, translate), `drawn[i]` all of
/// them. Build layers report their cost per timed operation, so they
/// read 0 when the timed path never builds. Compile costs are the
/// per-module cost at each level, averaged over the draws.
pub fn push_build_layers(
    out: &mut Outcome,
    costs: &[ModuleCost],
    planned: &[f64],
    built: &[f64],
    drawn: &[f64],
) {
    let ops: f64 = drawn.iter().sum::<f64>().max(1.0);
    let per_op = |f: &dyn Fn(&ModuleCost) -> f64, w: &[f64]| {
        costs.iter().zip(w).map(|(c, w)| f(c) * w).sum::<f64>() / ops
    };
    out.push("sql.plan_us", per_op(&|c| c.sql_us, planned), "us");
    out.push("plan.decompose_us", per_op(&|c| c.decompose_us, built), "us");
    out.push("codegen.us", per_op(&|c| c.codegen_us, built), "us");
    out.push("codegen.ir_instrs", per_op(&|c| c.ir_instrs, built), "count");
    out.push("translate.us", per_op(&|c| c.translate_us, built), "us");
    out.push("translate.bc_instrs", per_op(&|c| c.bc_instrs, built), "count");
    for (i, level) in ["unoptimized", "optimized", "native"].iter().enumerate() {
        out.push(&format!("jit.compile_ms.{level}"), per_op(&|c| c.jit_ms[i], drawn), "ms");
    }
    out.push("jit.code_bytes", per_op(&|c| c.code_bytes, drawn), "bytes");
}

/// Fig. 2 per pinned tier: compile time of a cold execution (bytecode
/// translation for the bytecode tier, up-front compilation otherwise) and
/// the geomean of warm execution times. `param` binds parameterized
/// entries; `check` validates every result.
pub fn tier_sweep(
    engine: &Engine,
    entries: &[Entry],
    param: i64,
    check: &RowCheck<'_>,
    out: &mut Outcome,
) -> Result<(), String> {
    let session = engine.session();
    for (mode, label, _) in TIERS {
        let opts =
            ExecOptions { mode, threads: THREADS, cache_results: false, ..Default::default() };
        let (mut compile_ms, mut exec_ms) = (Vec::new(), Vec::new());
        for (i, e) in entries.iter().enumerate() {
            let p = e.takes_param().then_some(param);
            let prepared = e.prepare(&session)?;
            let (rows, cold) = e.execute(&session, &prepared, p, &opts)?;
            compile_ms.push(ms(if mode == ExecMode::Bytecode {
                cold.bc_translate
            } else {
                cold.upfront_compile
            }));
            let mut warm = Vec::new();
            for _ in 0..2 {
                warm.push(ms(e.execute(&session, &prepared, p, &opts)?.1.exec));
            }
            exec_ms.push(median(&warm));
            if !check(i, p, &rows.rows) {
                out.violations += 1;
                out.note(format!("error: {} in {label} mode differs from the oracle", e.name));
            }
        }
        out.push(
            &format!("tier.{label}.compile_ms"),
            compile_ms.iter().sum::<f64>() / compile_ms.len().max(1) as f64,
            "ms",
        );
        out.push(&format!("tier.{label}.exec_geomean_ms"), geomean(&exec_ms), "ms");
    }
    Ok(())
}

/// Geomean over `prepared` of warm adaptive execution time at one thread
/// over that at [`THREADS`], interleaved (1, 2, 1, 2, ...).
pub fn thread_speedup(
    engine: &Engine,
    entries: &[Entry],
    prepared: &[PreparedQuery],
    param: i64,
) -> Result<f64, String> {
    let session = engine.session();
    let opts = |threads| ExecOptions { threads, cache_results: false, ..Default::default() };
    let (mut one, mut two) = (Vec::new(), Vec::new());
    for (e, p) in entries.iter().zip(prepared) {
        let b = e.takes_param().then_some(param);
        e.execute(&session, p, b, &opts(1))?;
        let (mut t1, mut t2) = (Vec::new(), Vec::new());
        for _ in 0..2 {
            t1.push(ms(e.execute(&session, p, b, &opts(1))?.1.exec));
            t2.push(ms(e.execute(&session, p, b, &opts(THREADS))?.1.exec));
        }
        one.push(median(&t1));
        two.push(median(&t2));
    }
    Ok(geomean(&one) / geomean(&two))
}

/// "× hardware" floors: warm single-threaded adaptive Q1 over the
/// hand-written Q1, and a one-column sum over a plain Rust loop over the
/// same column.
pub fn floors(cat: &Catalog, out: &mut Outcome) -> Result<(), String> {
    const REPS: usize = 7;
    let engine = Engine::new(cat.clone());
    let session = engine.session();
    let opts = ExecOptions { threads: 1, cache_results: false, ..Default::default() };
    let time = |f: &mut dyn FnMut()| {
        f();
        let mut s = Vec::new();
        for _ in 0..REPS {
            let t = Instant::now();
            f();
            s.push(ms(t.elapsed()));
        }
        median(&s)
    };

    let q1 = session.prepare(&aqe_queries::tpch::q1(cat).root, vec![]);
    let mut err = None;
    let engine_q1 = time(&mut || {
        if let Err(e) = session.execute_with(&q1, &opts) {
            err = Some(e.to_string());
        }
    });
    let hand_q1 = time(&mut || {
        std::hint::black_box(aqe_queries::handwritten::q1_handwritten(cat));
    });

    let li = cat.get("lineitem").ok_or("no lineitem")?;
    let price_col = li.column_index("l_extendedprice").ok_or("no l_extendedprice")?;
    let aqe_storage::Column::I64(prices) = li.column(price_col) else {
        return Err("l_extendedprice is not an i64 column".into());
    };
    let scan = session.prepare(
        &PlanNode::HashAgg {
            input: Box::new(PlanNode::Scan {
                table: "lineitem".into(),
                cols: vec![price_col],
                filter: None,
            }),
            group_by: vec![],
            aggs: vec![AggSpec { func: AggFunc::SumI, arg: Some(PExpr::Col(0)) }],
        },
        vec![],
    );
    let mut engine_sum = 0u64;
    let engine_scan = time(&mut || match session.execute_with(&scan, &opts) {
        Ok((rows, _)) => engine_sum = rows.rows.first().copied().unwrap_or(0),
        Err(e) => err = Some(e.to_string()),
    });
    let mut plain_sum = 0i64;
    let plain_scan = time(&mut || {
        plain_sum =
            std::hint::black_box(prices.as_slice()).iter().fold(0i64, |a, &v| a.wrapping_add(v));
    });
    if let Some(e) = err {
        return Err(format!("floor query failed: {e}"));
    }
    if engine_sum != plain_sum as u64 {
        out.violations += 1;
        out.note(format!("error: engine column sum {engine_sum} != plain sum {plain_sum}"));
    }
    out.push("exec.q1_over_floor", engine_q1 / hand_q1, "ratio");
    out.push("exec.scan_over_floor", engine_scan / plain_scan, "ratio");
    Ok(())
}

/// Scheduler, execution-tier, and timed-path build metrics from the
/// reports of traced executions (per operation unless noted).
pub fn push_report_layers(out: &mut Outcome, reports: &[Report]) {
    let n = reports.len().max(1) as f64;
    let per_op = |f: &dyn Fn(&Report) -> f64| reports.iter().map(f).sum::<f64>() / n;
    let compile_events = |r: &Report| -> f64 {
        r.trace
            .iter()
            .filter(|e| e.kind == KIND_COMPILE)
            .map(|e| e.end_us.saturating_sub(e.start_us) as f64 / 1e3)
            .sum()
    };
    out.push("path.codegen_ms", per_op(&|r| ms(r.codegen)), "ms");
    out.push("path.translate_ms", per_op(&|r| ms(r.bc_translate)), "ms");
    out.push("path.compile_ms", per_op(&|r| ms(r.upfront_compile) + compile_events(r)), "ms");
    let sched = |f: &dyn Fn(&aqe_engine::PipelineSchedReport) -> u64| {
        per_op(&|r| r.sched.iter().map(f).sum::<u64>() as f64)
    };
    out.push("sched.decisions", sched(&|s| s.decisions), "count");
    out.push("sched.compiles_started", sched(&|s| s.compiles_started), "count");
    out.push("sched.background_compiles", per_op(&|r| r.background_compiles as f64), "count");
    out.push("sched.morsels", sched(&|s| s.morsels), "count");
    out.push("sched.steals", sched(&|s| s.steals), "count");

    // A compile was useful if its pipeline ran at least one morsel above
    // bytecode after the compile finished.
    let (mut compiles, mut useful) = (0u64, 0u64);
    let mut imbalance = Vec::new();
    for r in reports {
        for c in r.trace.iter().filter(|e| e.kind == KIND_COMPILE) {
            compiles += 1;
            let ran = r.trace.iter().any(|m| {
                m.kind != KIND_COMPILE
                    && m.kind != 0
                    && m.pipeline == c.pipeline
                    && m.start_us >= c.end_us
            });
            useful += u64::from(ran);
        }
        for s in &r.sched {
            let w = &s.worker_tuples;
            let total: u64 = w.iter().sum();
            if w.len() >= 2 && total > 0 {
                let mean = total as f64 / w.len() as f64;
                imbalance.push(*w.iter().max().unwrap() as f64 / mean);
            }
        }
    }
    out.push(
        "sched.compile_useful_frac",
        if compiles == 0 { 0.0 } else { useful as f64 / compiles as f64 },
        "fraction",
    );
    out.push(
        "sched.worker_imbalance",
        if imbalance.is_empty() {
            0.0
        } else {
            imbalance.iter().sum::<f64>() / imbalance.len() as f64
        },
        "ratio",
    );

    let (mut busy_all, mut tuples_all) = (0.0, 0.0);
    for (_, label, kind) in TIERS {
        let busy = per_op(&|r| {
            r.trace
                .iter()
                .filter(|e| e.kind == kind)
                .map(|e| e.end_us.saturating_sub(e.start_us) as f64 / 1e3)
                .sum()
        });
        let tuples =
            per_op(&|r| r.trace.iter().filter(|e| e.kind == kind).map(|e| e.tuples as f64).sum());
        busy_all += busy;
        tuples_all += tuples;
        out.push(&format!("exec.{label}_busy_ms"), busy, "ms");
        out.push(&format!("exec.{label}_tuples"), tuples, "count");
    }
    out.push(
        "exec.ns_per_tuple",
        if tuples_all > 0.0 { busy_all * 1e6 / tuples_all } else { 0.0 },
        "ns",
    );
}

/// Session-layer counters of an engine at one moment.
pub type Counters = (CacheStats, ConcurrencyStats);

pub fn counters(engine: &Engine) -> Counters {
    (engine.cache_stats(), engine.concurrency())
}

/// Session-layer metrics summed over `spans`, each the counters of one
/// engine before and after a measured phase.
pub fn push_session_layers(out: &mut Outcome, spans: &[(Counters, Counters)]) {
    let sum = |f: &dyn Fn(&Counters) -> u64| -> f64 {
        spans.iter().map(|(before, after)| f(after) - f(before)).sum::<u64>() as f64
    };
    let hits = sum(&|c| c.0.hits);
    let lookups = hits + sum(&|c| c.0.misses);
    out.push(
        "session.result_cache_hit_frac",
        if lookups == 0.0 { 0.0 } else { hits / lookups },
        "fraction",
    );
    out.push("session.cold_builds", sum(&|c| c.1.cold_builds), "count");
    out.push("session.snapshot_swaps", sum(&|c| c.1.snapshot_swaps), "count");
    out.push("session.cache_evictions", sum(&|c| c.0.evictions), "count");
}

/// `trace.overhead_frac`: traced over untraced geomean of per-entry
/// medians, minus one (traced runs alternate the two).
pub fn trace_overhead(traced: &[Vec<f64>], untraced: &[Vec<f64>]) -> f64 {
    let pairs: Vec<(f64, f64)> = traced
        .iter()
        .zip(untraced)
        .filter(|(a, b)| !a.is_empty() && !b.is_empty())
        .map(|(a, b)| (median(a), median(b)))
        .collect();
    if pairs.is_empty() {
        return 0.0;
    }
    let t: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let u: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    geomean(&t) / geomean(&u) - 1.0
}
