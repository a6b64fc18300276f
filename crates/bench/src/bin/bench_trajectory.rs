//! Machine-readable Q1/Q6 benchmark trajectory (`BENCH_PR<n>.json`).
//!
//! This runner measures the Q1/Q6-style suite across every execution
//! mode — per-mode geomean runtimes, per-level compile times, and
//! adaptive end-to-end latency — and writes them as JSON. The committed
//! `BENCH_PR<n>.json` files at the repo root were measured by it
//! (`BENCH_PR5.json` additionally carries the `bench_concurrency`
//! section, merged in by that bin). They are a best-of-reps history on
//! whatever host each was taken; the corpus-wide benchmark with spreads
//! is `perfbench/`.
//!
//! Knobs: `AQE_SF` (scale factor, default 0.1), `AQE_THREADS` (default 1),
//! `AQE_REPS` (default 3; the *minimum* over reps is recorded),
//! `AQE_BENCH_PR` (the `pr` stamp; unset writes `null`),
//! `AQE_BENCH_OUT` (output path, default `BENCH_PR<pr>.json` with the
//! stamp set, `bench_trajectory.json` without).
//!
//! `--smoke` switches to CI assertion mode (see [`smoke`]); building with
//! `--features alloc-count` adds allocation counts to the `bench_compile`
//! section via the counting global allocator in `aqe_bench`.

use aqe_bench::{env_sf, geomean, ms, physical, q6_qty_plan, run_mode, threads_from_env, MODES};
use aqe_engine::exec::{ExecMode, ExecOptions, ParamValue};
use aqe_engine::plan::{FieldTy, PExpr};
use aqe_engine::session::Engine;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// With `--features alloc-count`, every heap allocation in this binary is
/// counted — the `bench_compile` section reports allocations per compiled
/// function alongside wall time.
#[cfg(feature = "alloc-count")]
#[global_allocator]
static ALLOC: aqe_bench::allocmeter::CountingAlloc = aqe_bench::allocmeter::CountingAlloc;

/// Bound-vs-rebaked measurement over the parameterized Q6 shape.
struct BoundNumbers {
    cold_ms: f64,
    warm_repeat_ms: f64,
    warm_bound_fresh_ms: f64,
    rebake_per_literal_ms: f64,
}

/// Measure what the binding pipeline buys: a warm `execute_bound` with a
/// *fresh* quantity threshold (reusing every compilation artifact) against
/// re-preparing the statement with the literal baked in (a cold compile
/// per distinct value — what a cache keyed on exact literals would do).
fn bench_bound(cat: &aqe_storage::Catalog, threads: usize, reps: usize) -> BoundNumbers {
    let engine = Engine::new(cat.clone());
    let session = engine.session();
    let opts = ExecOptions {
        mode: ExecMode::Adaptive,
        threads,
        cache_results: false,
        ..Default::default()
    };
    let prepared = session.prepare(&q6_qty_plan(PExpr::Param { idx: 0, ty: FieldTy::I64 }), vec![]);

    let t0 = Instant::now();
    session.execute_bound_with(&prepared, &[ParamValue::I64(2400)], &opts).expect("cold bound");
    let cold_ms = ms(t0.elapsed());
    // Let the adaptive controller settle on its retained level.
    for _ in 0..2 {
        session.execute_bound_with(&prepared, &[ParamValue::I64(2400)], &opts).expect("settle");
    }

    let mut warm_repeat_ms = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        session.execute_bound_with(&prepared, &[ParamValue::I64(2400)], &opts).expect("repeat");
        warm_repeat_ms = warm_repeat_ms.min(ms(t.elapsed()));
    }

    // Fresh-value rebinding, same retained code: each timed run binds
    // 2400 *after* an untimed run bound a different value, so the timed
    // execution does identical work to `warm_repeat` but with a changed
    // parameter — the difference is pure binding overhead. The report
    // must show zero compilation, or the point of the pipeline is lost.
    let mut warm_bound_fresh_ms = f64::INFINITY;
    for _ in 0..reps.max(3) {
        session.execute_bound_with(&prepared, &[ParamValue::I64(1000)], &opts).expect("rebind");
        let t = Instant::now();
        let (_, rep) =
            session.execute_bound_with(&prepared, &[ParamValue::I64(2400)], &opts).expect("bound");
        warm_bound_fresh_ms = warm_bound_fresh_ms.min(ms(t.elapsed()));
        assert!(rep.codegen.is_zero(), "a warm bound execution must not pay codegen");
        assert!(rep.bc_translate.is_zero(), "…nor bytecode translation");
    }

    // Rebake value sweep (distinct literals, each a cold prepare).
    let fresh: [i64; 6] = [600, 1000, 1400, 1800, 2800, 3200];

    // Rebake baseline: every distinct literal is a new statement — new
    // codegen, new translation, new compile ladder.
    let mut rebake_per_literal_ms = f64::INFINITY;
    for r in 0..reps.max(fresh.len()) {
        let v = fresh[r % fresh.len()];
        let t = Instant::now();
        let baked = session.prepare(&q6_qty_plan(PExpr::ConstI(v)), vec![]);
        session.execute_with(&baked, &opts).expect("rebaked");
        rebake_per_literal_ms = rebake_per_literal_ms.min(ms(t.elapsed()));
    }

    BoundNumbers { cold_ms, warm_repeat_ms, warm_bound_fresh_ms, rebake_per_literal_ms }
}

/// One level's cold-compile microbench numbers over the pinned IR corpus.
struct CompileLevelNumbers {
    ms_per_fn: f64,
    allocs_per_fn: f64,
    bytes_per_fn: f64,
}

/// Time `body` (which compiles the whole corpus of `n` functions once per
/// call) over `reps` repetitions; wall time is the best rep, allocation
/// numbers come from the first (compilation is deterministic, so every rep
/// allocates identically).
fn measure_compile<F: FnMut()>(reps: usize, n: usize, mut body: F) -> CompileLevelNumbers {
    let mut best_ms = f64::INFINITY;
    let mut allocs_per_fn = 0.0;
    let mut bytes_per_fn = 0.0;
    for rep in 0..reps {
        let before = aqe_bench::alloc_snapshot();
        let t = Instant::now();
        body();
        best_ms = best_ms.min(ms(t.elapsed()));
        if rep == 0 {
            if let (Some((a0, b0)), Some((a1, b1))) = (before, aqe_bench::alloc_snapshot()) {
                allocs_per_fn = (a1 - a0) as f64 / n as f64;
                bytes_per_fn = (b1 - b0) as f64 / n as f64;
            }
        }
    }
    CompileLevelNumbers { ms_per_fn: best_ms / n as f64, allocs_per_fn, bytes_per_fn }
}

/// Cold-compile cost per tier, isolated from execution: the shared
/// random-IR corpus (the same `testgen` seeds the oracle suites pin) is
/// compiled at each level and we record wall time and allocation events
/// per function. This is the direct falsifier for pass-pipeline
/// allocation regressions — engine-level `compile_ms_per_level` also
/// carries plan codegen and backend setup.
fn bench_compile(reps: usize) -> Vec<(&'static str, CompileLevelNumbers)> {
    let modules: Vec<aqe_ir::Module> = (1..25).map(aqe_ir::testgen::gen_module).collect();
    let n: usize = modules.iter().map(|m| m.functions.len()).sum();
    let mut out = Vec::new();
    for level in [aqe_jit::OptLevel::Unoptimized, aqe_jit::OptLevel::Optimized] {
        let label = match level {
            aqe_jit::OptLevel::Unoptimized => "unoptimized",
            aqe_jit::OptLevel::Optimized => "optimized",
        };
        let nums = measure_compile(reps, n, || {
            for m in &modules {
                for f in &m.functions {
                    aqe_jit::compile(f, &m.externs, level).expect("corpus compiles");
                }
            }
        });
        out.push((label, nums));
    }
    if aqe_jit::native::enabled() {
        let nums = measure_compile(reps, n, || {
            for m in &modules {
                for f in &m.functions {
                    aqe_jit::compile_native(f, &m.externs).expect("corpus lowers");
                }
            }
        });
        out.push(("native", nums));
    }
    out
}

/// Pull `compile_ms_per_level` out of a committed `BENCH_PR<n>.json`
/// without a JSON dependency — the file is written by this very binary, so
/// the section layout (one `"label": float` per line) is pinned.
fn read_baseline_compile_ms(path: &str) -> Option<BTreeMap<String, f64>> {
    let s = std::fs::read_to_string(path).ok()?;
    let rest = &s[s.find("\"compile_ms_per_level\"")?..];
    let body = &rest[rest.find('{')? + 1..rest.find('}')?];
    let mut map = BTreeMap::new();
    for line in body.lines() {
        if let Some((k, v)) = line.trim().trim_end_matches(',').split_once(':') {
            if let Ok(x) = v.trim().parse::<f64>() {
                map.insert(k.trim().trim_matches('"').to_string(), x);
            }
        }
    }
    if map.is_empty() {
        None
    } else {
        Some(map)
    }
}

/// `--smoke`: CI assertion mode, exercised on every cell of the
/// AQE_NATIVE × AQE_SIMD matrix. Runs the full mode ladder at a tiny scale
/// on both queries and asserts that every mode executes, agrees on
/// results, and that every compiled level's up-front compile latency stays
/// under a generous ceiling (a 10× pass-pipeline regression fails CI; run
/// timing variance does not). Writes no JSON.
fn smoke() {
    const COMPILE_MS_CEILING: f64 = 250.0;
    let sf = env_sf(0.01);
    let threads = threads_from_env(2);
    let cat = aqe_storage::tpch::generate(sf);
    for q in [aqe_queries::tpch::q1(&cat), aqe_queries::tpch::q6(&cat)] {
        let phys = physical(&cat, &q);
        let mut reference: Option<Vec<u64>> = None;
        for (mode, label) in MODES {
            let (_, report, rows) = run_mode(&cat, &phys, mode, threads, false);
            let compile = ms(report.upfront_compile);
            assert!(
                compile < COMPILE_MS_CEILING,
                "{} {label}: up-front compile {compile:.1} ms breaches the \
                 {COMPILE_MS_CEILING} ms smoke ceiling",
                q.name
            );
            if matches!(mode, ExecMode::Unoptimized | ExecMode::Native | ExecMode::Simd) {
                assert!(
                    report.upfront_compile.as_nanos() > 0,
                    "{} {label}: compiled level reported zero compile time",
                    q.name
                );
            }
            match &reference {
                None => reference = Some(rows.rows),
                Some(want) => assert_eq!(&rows.rows, want, "{} {label} disagrees", q.name),
            }
        }
        eprintln!("smoke {}: all modes agree under the compile-latency ceiling", q.name);
    }
    let corpus = bench_compile(1);
    for (label, nums) in &corpus {
        assert!(nums.ms_per_fn.is_finite() && nums.ms_per_fn > 0.0, "{label} corpus compile");
    }
    println!(
        "bench_trajectory --smoke OK (native={}, simd={}, corpus levels: {})",
        aqe_jit::native::enabled(),
        aqe_engine::simd::enabled(),
        corpus.iter().map(|(l, _)| *l).collect::<Vec<_>>().join("/"),
    );
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let sf = env_sf(0.1);
    let threads = threads_from_env(1);
    let reps: usize =
        std::env::var("AQE_REPS").ok().and_then(|s| s.parse().ok()).unwrap_or(3).max(1);
    let pr: Option<u32> = std::env::var("AQE_BENCH_PR").ok().and_then(|s| s.parse().ok());
    let out_path = std::env::var("AQE_BENCH_OUT").unwrap_or_else(|_| match pr {
        Some(pr) => format!("BENCH_PR{pr}.json"),
        None => "bench_trajectory.json".into(),
    });
    let native_enabled = aqe_jit::native::enabled();
    let simd_enabled = aqe_engine::simd::enabled();

    eprintln!("generating TPC-H SF {sf}…");
    let cat = aqe_storage::tpch::generate(sf);
    let queries = [aqe_queries::tpch::q1(&cat), aqe_queries::tpch::q6(&cat)];

    // mode label → query name → best exec ms / best total ms
    let mut exec_ms: BTreeMap<&str, BTreeMap<String, f64>> = BTreeMap::new();
    let mut total_ms: BTreeMap<&str, BTreeMap<String, f64>> = BTreeMap::new();
    // level label → query name → compile ms (up-front, best rep)
    let mut compile_ms: BTreeMap<&str, BTreeMap<String, f64>> = BTreeMap::new();

    for q in &queries {
        let phys = physical(&cat, q);
        for (mode, label) in MODES {
            let mut best_exec = f64::INFINITY;
            let mut best_total = f64::INFINITY;
            let mut best_compile = f64::INFINITY;
            for _ in 0..reps {
                let (total, report, _) = run_mode(&cat, &phys, mode, threads, false);
                best_exec = best_exec.min(ms(report.exec));
                best_total = best_total.min(ms(total));
                best_compile = best_compile.min(ms(report.upfront_compile));
            }
            eprintln!(
                "{:>4} {label:<12} exec {:>9.3} ms  total {:>9.3} ms",
                q.name, best_exec, best_total
            );
            exec_ms.entry(label).or_default().insert(q.name.clone(), best_exec);
            total_ms.entry(label).or_default().insert(q.name.clone(), best_total);
            if matches!(mode, ExecMode::Unoptimized | ExecMode::Native | ExecMode::Simd) {
                compile_ms.entry(label).or_default().insert(q.name.clone(), best_compile);
            }
        }
    }

    let corpus = bench_compile(reps);
    let alloc_counts_enabled = aqe_bench::alloc_snapshot().is_some();
    for (label, nums) in &corpus {
        eprintln!(
            "corpus compile {label:<12} {:>9.4} ms/fn  {:>8.1} allocs/fn  {:>10.0} bytes/fn",
            nums.ms_per_fn, nums.allocs_per_fn, nums.bytes_per_fn
        );
    }

    let bound = bench_bound(&cat, threads, reps);
    eprintln!(
        "bound q6: cold {:.3} ms, warm repeat {:.3} ms, warm bound fresh value {:.3} ms, \
         rebake per literal {:.3} ms",
        bound.cold_ms, bound.warm_repeat_ms, bound.warm_bound_fresh_ms, bound.rebake_per_literal_ms
    );

    let geo = |m: &BTreeMap<String, f64>| geomean(&m.values().copied().collect::<Vec<_>>());
    let unopt_geo = geo(&exec_ms["unoptimized"]);
    let native_geo = geo(&exec_ms["native"]);
    let simd_geo = geo(&exec_ms["simd"]);
    let bc_geo = geo(&exec_ms["bytecode"]);

    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let pr = pr.map_or("null".to_string(), |pr| pr.to_string());
    let _ = writeln!(j, "  \"pr\": {pr},");
    let _ = writeln!(j, "  \"schema_version\": 1,");
    let _ = writeln!(j, "  \"suite\": \"tpch-q1-q6\",");
    let _ = writeln!(
        j,
        "  \"config\": {{\"sf\": {sf}, \"threads\": {threads}, \"reps\": {reps}, \
         \"native_enabled\": {native_enabled}, \"simd_enabled\": {simd_enabled}}},"
    );
    let _ = writeln!(j, "  \"modes\": {{");
    let nmodes = exec_ms.len();
    for (k, (label, per_q)) in exec_ms.iter().enumerate() {
        let _ = write!(
            j,
            "    \"{label}\": {{\"geomean_exec_ms\": {:.4}, \"geomean_total_ms\": {:.4}, \
             \"per_query_exec_ms\": {{",
            geo(per_q),
            geo(&total_ms[label])
        );
        let nq = per_q.len();
        for (i, (qn, v)) in per_q.iter().enumerate() {
            let _ = write!(j, "\"{qn}\": {v:.4}{}", if i + 1 < nq { ", " } else { "" });
        }
        let _ = writeln!(j, "}}}}{}", if k + 1 < nmodes { "," } else { "" });
    }
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"compile_ms_per_level\": {{");
    let nlevels = compile_ms.len();
    for (k, (label, per_q)) in compile_ms.iter().enumerate() {
        let _ = writeln!(
            j,
            "    \"{label}\": {:.4}{}",
            geo(per_q),
            if k + 1 < nlevels { "," } else { "" }
        );
    }
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"bench_compile\": {{");
    let _ = writeln!(j, "    \"corpus\": \"testgen seeds 1..=24\",");
    let _ = writeln!(j, "    \"alloc_counts_enabled\": {alloc_counts_enabled},");
    let _ = writeln!(j, "    \"levels\": {{");
    for (k, (label, nums)) in corpus.iter().enumerate() {
        let _ = writeln!(
            j,
            "      \"{label}\": {{\"ms_per_fn\": {:.5}, \"allocs_per_fn\": {:.1}, \
             \"bytes_per_fn\": {:.0}}}{}",
            nums.ms_per_fn,
            nums.allocs_per_fn,
            nums.bytes_per_fn,
            if k + 1 < corpus.len() { "," } else { "" }
        );
    }
    let _ = writeln!(j, "    }},");
    // Before/after: echo the PR 7 baseline's per-level compile times and
    // the improvement this tree measures against them, when the committed
    // baseline file is reachable from the working directory.
    match read_baseline_compile_ms("BENCH_PR7.json") {
        Some(base) => {
            let nb = base.len();
            let _ = write!(j, "    \"baseline_pr7_compile_ms_per_level\": {{");
            for (i, (label, v)) in base.iter().enumerate() {
                let _ = write!(j, "\"{label}\": {v:.4}{}", if i + 1 < nb { ", " } else { "" });
            }
            let _ = writeln!(j, "}},");
            let improved: Vec<(&String, f64)> = base
                .iter()
                .filter_map(|(label, v)| {
                    let cur = geo(compile_ms.get(label.as_str())?);
                    (cur > 0.0).then_some((label, v / cur))
                })
                .collect();
            let _ = write!(j, "    \"improvement_vs_pr7\": {{");
            for (i, (label, r)) in improved.iter().enumerate() {
                let _ = write!(
                    j,
                    "\"{label}\": {r:.3}{}",
                    if i + 1 < improved.len() { ", " } else { "" }
                );
            }
            let _ = writeln!(j, "}}");
        }
        None => {
            let _ = writeln!(j, "    \"baseline_pr7_compile_ms_per_level\": null,");
            let _ = writeln!(j, "    \"improvement_vs_pr7\": null");
        }
    }
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"adaptive_end_to_end_ms\": {:.4},", geo(&total_ms["adaptive"]));
    let _ = writeln!(
        j,
        "  \"bound\": {{\"cold_ms\": {:.4}, \"warm_repeat_ms\": {:.4}, \
         \"warm_bound_fresh_ms\": {:.4}, \"rebake_per_literal_ms\": {:.4}, \
         \"bound_over_repeat\": {:.3}, \"rebake_over_bound\": {:.2}}},",
        bound.cold_ms,
        bound.warm_repeat_ms,
        bound.warm_bound_fresh_ms,
        bound.rebake_per_literal_ms,
        bound.warm_bound_fresh_ms / bound.warm_repeat_ms,
        bound.rebake_per_literal_ms / bound.warm_bound_fresh_ms
    );
    let _ = writeln!(j, "  \"ratios\": {{");
    let _ = writeln!(j, "    \"bytecode_over_native\": {:.3},", bc_geo / native_geo);
    let _ = writeln!(j, "    \"unoptimized_over_native\": {:.3},", unopt_geo / native_geo);
    let _ = writeln!(j, "    \"native_over_simd\": {:.3}", native_geo / simd_geo);
    let _ = writeln!(j, "  }}");
    let _ = writeln!(j, "}}");

    std::fs::File::create(&out_path)
        .and_then(|mut f| f.write_all(j.as_bytes()))
        .expect("write benchmark json");
    eprintln!("\nwrote {out_path}");
    eprintln!(
        "geomeans: bytecode {bc_geo:.2} ms, unoptimized {unopt_geo:.2} ms, native \
         {native_geo:.2} ms, simd {simd_geo:.2} ms (unoptimized/native = {:.2}x, native/simd = \
         {:.2}x)",
        unopt_geo / native_geo,
        native_geo / simd_geo
    );
}
