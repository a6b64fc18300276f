//! Shared measurement helpers for the figure/table harness binaries.
//!
//! Every binary regenerates one table or figure of the paper (see
//! DESIGN.md §3 for the index and EXPERIMENTS.md for recorded results):
//!
//! | binary | paper artifact |
//! |--------|----------------|
//! | `fig01_stages` | Fig. 1 / Fig. 3 (stage times) |
//! | `fig02_tradeoff` | Fig. 2 (compile vs execute per mode) |
//! | `fig06_compile_scaling` | Fig. 6 (instructions vs compile time) |
//! | `fig13_geomean` | Fig. 13 (geo-mean over TPC-H × SF × mode) |
//! | `fig14_trace` | Fig. 14 (morsel-level execution trace) |
//! | `fig15_large_queries` | Fig. 15 (very large generated queries) |
//! | `table1_plan_compile` | Table I (planning and compilation times) |
//! | `table2_exec` | Table II (execution times + §V-D ratios) |
//! | `ablation_regalloc` | §IV-C register-file sizes, fusion on/off |
//! | `fig_stealing` | beyond the paper: skewed-morsel work stealing + cost-model calibration |
//!
//! Scale factors default to laptop-friendly values; override with `AQE_SF`
//! / `AQE_SF_LIST` / `AQE_THREADS` environment variables.

use aqe_engine::exec::{ExecMode, ExecOptions, Report, ResultRows};
use aqe_engine::plan::{
    decompose, AggFunc, AggSpec, ArithOp, CmpOp, PExpr, PhysicalPlan, PlanNode,
};
use aqe_engine::session::Engine;
use aqe_jit::compile::OptLevel;
use aqe_queries::Query;
use aqe_storage::date::parse_date;
use aqe_storage::Catalog;
use std::time::{Duration, Instant};

/// Allocation metering for harness binaries (`--features alloc-count`).
///
/// A binary installs the shim with
/// `#[global_allocator] static A: CountingAlloc = CountingAlloc;` (itself
/// behind the feature gate) and brackets a measured region with
/// [`alloc_snapshot`]. Counters are process-wide relaxed atomics: exact for
/// single-threaded measurement loops, still monotonic under threads.
#[cfg(feature = "alloc-count")]
pub mod allocmeter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);

    /// System allocator wrapper that counts allocation events and bytes.
    pub struct CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(layout.size() as u64, Relaxed);
            System.alloc(layout)
        }
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(layout.size() as u64, Relaxed);
            System.alloc_zeroed(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // A grow is a fresh allocation event for the grown portion;
            // shrinks move no memory worth counting.
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    pub fn snapshot() -> (u64, u64) {
        (ALLOCS.load(Relaxed), BYTES.load(Relaxed))
    }
}

/// Cumulative (allocation count, bytes allocated) since process start, or
/// `None` when the binary was built without `alloc-count`. Callers subtract
/// two snapshots around a measured region.
pub fn alloc_snapshot() -> Option<(u64, u64)> {
    #[cfg(feature = "alloc-count")]
    {
        Some(allocmeter::snapshot())
    }
    #[cfg(not(feature = "alloc-count"))]
    {
        None
    }
}

/// Scale factor from the environment (default given by the harness).
pub fn env_sf(default: f64) -> f64 {
    std::env::var("AQE_SF").ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

pub fn env_sf_list(default: &[f64]) -> Vec<f64> {
    std::env::var("AQE_SF_LIST")
        .ok()
        .map(|s| s.split(',').filter_map(|x| x.parse().ok()).collect())
        .unwrap_or_else(|| default.to_vec())
}

/// Worker thread count from `AQE_THREADS` (the shared knob every harness
/// binary honours), falling back to the figure's default.
pub fn threads_from_env(default: usize) -> usize {
    std::env::var("AQE_THREADS").ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// Decompose a query against a catalog.
pub fn physical(cat: &Catalog, q: &Query) -> PhysicalPlan {
    decompose(cat, &q.root, q.dicts.clone())
}

/// TPC-H Q6 with the quantity threshold supplied by the caller: pass
/// `PExpr::Param { idx: 0, .. }` for the bound path or `PExpr::ConstI(v)`
/// for the rebake-per-literal baseline. Dates and discount bounds stay
/// literal — one varying slot is what the bound/rebaked comparison needs.
pub fn q6_qty_plan(qty: PExpr) -> PlanNode {
    // lineitem cols: 4 = l_quantity, 5 = l_extendedprice, 6 = l_discount,
    // 10 = l_shipdate (decimals stored ×100, dates as day numbers).
    PlanNode::HashAgg {
        input: Box::new(PlanNode::Scan {
            table: "lineitem".into(),
            cols: vec![4, 5, 6, 10],
            filter: Some(PExpr::and(
                PExpr::and(
                    PExpr::cmp(
                        CmpOp::Ge,
                        false,
                        PExpr::Col(3),
                        PExpr::ConstI(parse_date("1994-01-01") as i64),
                    ),
                    PExpr::cmp(
                        CmpOp::Le,
                        false,
                        PExpr::Col(3),
                        PExpr::ConstI(parse_date("1994-12-31") as i64),
                    ),
                ),
                PExpr::and(
                    PExpr::and(
                        PExpr::cmp(CmpOp::Ge, false, PExpr::Col(2), PExpr::ConstI(5)),
                        PExpr::cmp(CmpOp::Le, false, PExpr::Col(2), PExpr::ConstI(7)),
                    ),
                    PExpr::cmp(CmpOp::Lt, false, PExpr::Col(0), qty),
                ),
            )),
        }),
        group_by: vec![],
        aggs: vec![AggSpec {
            func: AggFunc::SumI,
            arg: Some(PExpr::arith(ArithOp::Mul, true, false, PExpr::Col(1), PExpr::Col(2))),
        }],
    }
}

/// Run one query end-to-end in a mode; returns (total wall time, report,
/// result).
///
/// Each call builds a throwaway [`Engine`] with result caching disabled:
/// the harness measures *cold* executions, so nothing may be reused or
/// served from cache across calls. Long-lived-engine effects (prepared
/// reuse, calibration persistence) are measured by the bins that construct
/// their own `Engine`.
pub fn run_mode(
    cat: &Catalog,
    phys: &PhysicalPlan,
    mode: ExecMode,
    threads: usize,
    trace: bool,
) -> (Duration, Report, ResultRows) {
    let opts = ExecOptions { mode, threads, trace, cache_results: false, ..Default::default() };
    let engine = Engine::new(cat.clone());
    let session = engine.session();
    let t0 = Instant::now();
    let prepared = session.prepare_plan(phys.clone());
    let (rows, report) = session.execute_with(&prepared, &opts).expect("query failed");
    (t0.elapsed(), report, rows)
}

/// Geometric mean of positive samples.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Milliseconds with two decimals.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn fmt_ms(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:8.0}")
    } else if v >= 1.0 {
        format!("{v:8.1}")
    } else {
        format!("{v:8.3}")
    }
}

/// Compile `f` the way the engine's tier at `level` does: O0 or O2 machine
/// code where the native emitter is live, else only the step-stream front
/// half (the engine then runs bytecode; the figure still shows the
/// level's front-end cost).
pub fn compile_level(f: &aqe_ir::Function, externs: &[aqe_ir::ExternDecl], level: OptLevel) {
    if aqe_jit::native::enabled() {
        aqe_jit::compile_native_at(f, externs, level).expect("native compile");
    } else {
        aqe_jit::compile(f, externs, level).expect("compile");
    }
}

/// Mode labels used in the standard reports (the four modes of Fig. 3 —
/// `unoptimized` is O0 and `native` O2 machine code — plus the vectorized
/// scan-kernel cap). `ExecMode::Optimized` is left out: it is an alias of
/// `Native` and would time the same backend twice.
pub const MODES: [(ExecMode, &str); 5] = [
    (ExecMode::Bytecode, "bytecode"),
    (ExecMode::Unoptimized, "unoptimized"),
    (ExecMode::Native, "native"),
    (ExecMode::Simd, "simd"),
    (ExecMode::Adaptive, "adaptive"),
];

/// Every backend the engine can publish into a pipeline's hot-swap handle,
/// including the slow naive-IR baseline (Fig. 2's full latency spectrum).
pub const ALL_MODES: [(ExecMode, &str); 6] = [
    (ExecMode::NaiveIr, "naive-ir"),
    (ExecMode::Bytecode, "bytecode"),
    (ExecMode::Unoptimized, "unoptimized"),
    (ExecMode::Native, "native"),
    (ExecMode::Simd, "simd"),
    (ExecMode::Adaptive, "adaptive"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[4.0, 1.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[7.0]) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn env_parsing_defaults() {
        assert_eq!(env_sf(0.25), 0.25);
        assert_eq!(threads_from_env(3), 3);
        assert_eq!(env_sf_list(&[0.1, 1.0]), vec![0.1, 1.0]);
    }

    #[test]
    fn run_mode_smoke_all_backends() {
        let cat = aqe_storage::tpch::generate(0.001);
        let q = aqe_queries::tpch::q6(&cat);
        let phys = physical(&cat, &q);
        let mut reference: Option<Vec<u64>> = None;
        for (mode, label) in ALL_MODES {
            let (d, _, rows) = run_mode(&cat, &phys, mode, 1, false);
            assert!(d.as_nanos() > 0);
            assert_eq!(rows.row_count(), 1, "{label}");
            match &reference {
                None => reference = Some(rows.rows),
                Some(want) => assert_eq!(&rows.rows, want, "{label} disagrees"),
            }
        }
    }
}
