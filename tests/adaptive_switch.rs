//! Engine-level tests for the hot-swap machinery itself:
//!
//! 1. a large synthetic query started in `ExecMode::Adaptive` must actually
//!    *switch* backends mid-pipeline (a background compilation appears in
//!    the trace and compiled morsels follow interpreted ones), and
//! 2. every one of the six `ExecMode`s — i.e. every backend that can sit
//!    in a pipeline's `Arc<dyn PipelineBackend>` handle, both native
//!    machine-code levels included — produces identical `ResultRows` on a
//!    TPC-H subset (on targets without the emitter, the compiled modes run
//!    through their bytecode alias and must still agree), and
//! 3. with an irresistible native speedup model, the Fig. 7 controller
//!    actually climbs to rank 4 mid-query: the trace shows morsels on the
//!    native backend (kind 4) after interpreted ones.

use aqe::engine::exec::{ExecMode, ExecOptions, TraceEvent};
use aqe::engine::plan::decompose;
use aqe::engine::session::Engine;
use aqe::queries::{synthetic, tpch};
use aqe::storage::tpch as tpch_data;

/// Trace kind marking a background compilation (see `TraceEvent::kind`).
const KIND_COMPILE: u8 = 255;

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

/// Skip the test body when no compiled tier can be reached: without the
/// emitter (`AQE_NATIVE=0`, non-x86-64) every compiled mode aliases to
/// bytecode, and these scans have no SIMD kernel.
macro_rules! require_native {
    () => {
        if !aqe::jit::native::enabled() {
            eprintln!("native emitter disabled; skipping");
            return;
        }
    };
}

#[test]
fn adaptive_mode_switches_backend_mid_query() {
    require_native!();
    // A wide synthetic aggregation: expensive enough per tuple that the
    // Fig. 7 extrapolation always decides compilation pays off, and long
    // enough that the background compile lands while morsels remain.
    let cat = tpch_data::generate(0.02);
    let q = synthetic::wide_agg(120);
    let phys = decompose(&cat, &q.root, vec![]);

    let mut opts =
        ExecOptions { mode: ExecMode::Adaptive, threads: 2, trace: true, ..Default::default() };
    // Generous modeled speedup so the decision is deterministic even on a
    // slow CI machine; the *observed* switch below is what the test checks.
    opts.model.speedup_native = 6.0;
    opts.model.speedup_unopt = 3.0;
    let engine = Engine::new(cat.clone());
    let session = engine.session();
    let prepared = session.prepare_plan(phys.clone());
    let (rows, report) = session.execute_with(&prepared, &opts).expect("adaptive execution");

    assert!(
        report.background_compiles >= 1,
        "expected at least one background compilation, got {}",
        report.background_compiles
    );
    let compiles: Vec<&TraceEvent> =
        report.trace.iter().filter(|e| e.kind == KIND_COMPILE).collect();
    assert!(!compiles.is_empty(), "trace must contain a compilation event");

    // The switch must be *observable in executed morsels*: interpreted
    // (bytecode, kind 0) morsels first, compiled (kind 1 = O0 or 4 = O2)
    // morsels after the backend was published into the handle.
    let morsel_kinds: std::collections::BTreeSet<u8> =
        report.trace.iter().filter(|e| e.kind != KIND_COMPILE).map(|e| e.kind).collect();
    assert!(
        morsel_kinds.contains(&0),
        "query must start on the bytecode backend, kinds seen: {morsel_kinds:?}"
    );
    assert!(
        morsel_kinds.contains(&1) || morsel_kinds.contains(&4),
        "no morsel ran on a compiled backend — no switch happened; \
         kinds seen: {morsel_kinds:?}"
    );

    // Same thread, backend changes between consecutive morsels: the
    // hot-swap handle picked up the new backend on the very next morsel.
    let mut per_thread_switches = 0usize;
    for tid in report.trace.iter().map(|e| e.thread).collect::<std::collections::BTreeSet<_>>() {
        let kinds: Vec<u8> = report
            .trace
            .iter()
            .filter(|e| e.thread == tid && e.kind != KIND_COMPILE)
            .map(|e| e.kind)
            .collect();
        per_thread_switches += kinds.windows(2).filter(|w| w[0] != w[1]).count();
    }
    assert!(per_thread_switches >= 1, "at least one worker must switch backends");

    // And the switch must not have changed the answer (cache off: the
    // comparison run must really execute on the bytecode backend).
    let bc_opts = ExecOptions {
        mode: ExecMode::Bytecode,
        threads: 2,
        cache_results: false,
        ..Default::default()
    };
    let (bc_rows, _) = session.execute_with(&prepared, &bc_opts).expect("bytecode execution");
    let w = phys.output_tys.len();
    assert_eq!(
        normalized(&rows.rows, w, phys.sorted_output),
        normalized(&bc_rows.rows, w, phys.sorted_output),
        "adaptive result differs from pure bytecode result"
    );
}

#[test]
fn later_pipelines_decide_with_calibrated_cost_model() {
    // The calibration loop (sched::calibrate): pipeline 0's background
    // compile feeds its *measured* wall time per IR instruction back into
    // the per-query CostCalibrator; because the pipeline run joins its
    // compile threads before finalizing, the feedback is guaranteed to
    // land before the next pipeline constructs its controller — so every
    // later pipeline decides with a calibrated (non-default) model.
    require_native!();
    let cat = tpch_data::generate(0.02);
    let q = synthetic::wide_agg(120);
    let phys = decompose(&cat, &q.root, vec![]);

    let mut opts =
        ExecOptions { mode: ExecMode::Adaptive, threads: 2, trace: false, ..Default::default() };
    opts.model.speedup_native = 6.0;
    opts.model.speedup_unopt = 3.0;
    let engine = Engine::new(cat.clone());
    let session = engine.session();
    let prepared = session.prepare_plan(phys);
    let (_, report) = session.execute_with(&prepared, &opts).expect("adaptive execution");

    assert!(report.background_compiles >= 1, "test needs at least one background compile");
    assert!(
        report.calibration.compile_observations >= 1,
        "the joined compile must have recorded its measured ctime"
    );
    assert!(report.sched.len() >= 2, "wide_agg must decompose into at least two pipelines");
    let first = &report.sched[0];
    let last = report.sched.last().unwrap();
    assert!(!first.calibrated, "pipeline 0 has nothing to calibrate from yet");
    assert!(
        last.calibrated,
        "later pipelines must decide with a model that received feedback: {report:?}"
    );
    assert_ne!(
        last.model, opts.model,
        "the calibrated model must differ from the query's starting constants"
    );
    // The compile-time constants moved toward measurements; the observed
    // per-instruction cost of this reproduction's machine-code backends is
    // strictly positive, so the calibrated constant stays positive too.
    assert!(last.model.unopt_per_instr_s > 0.0 || last.model.native_per_instr_s > 0.0);
}

#[test]
fn work_stealing_is_observable_in_the_sched_report() {
    // A 4-thread run over a pipeline whose workers race to the end: the
    // per-pipeline scheduler report surfaces morsel and steal counts, and
    // disabling stealing zeroes the steal counters without changing the
    // result.
    let cat = tpch_data::generate(0.02);
    let q = synthetic::wide_agg(40);
    let phys = decompose(&cat, &q.root, vec![]);

    let engine = Engine::new(cat.clone());
    let session = engine.session();
    let prepared = session.prepare_plan(phys);
    let steal_opts = ExecOptions {
        mode: ExecMode::Bytecode,
        threads: 4,
        min_morsel: 64,
        max_morsel: 256,
        cache_results: false,
        ..Default::default()
    };
    let (rows, report) = session.execute_with(&prepared, &steal_opts).expect("bytecode execution");
    let total_morsels: u64 = report.sched.iter().map(|s| s.morsels).sum();
    assert!(total_morsels > 0);
    let total_rows: u64 = report.sched.iter().map(|s| s.total_rows).max().unwrap();
    assert_eq!(total_rows, cat.get("lineitem").unwrap().row_count() as u64);

    let no_steal = ExecOptions { steal: false, ..steal_opts };
    let (rows2, report2) = session.execute_with(&prepared, &no_steal).expect("no-steal execution");
    assert!(report2.sched.iter().all(|s| s.steals == 0 && s.stolen_tuples == 0));
    assert_eq!(rows.rows, rows2.rows, "stealing must not change the answer");
}

#[test]
fn all_six_modes_agree_on_tpch_subset() {
    let cat = tpch_data::generate(0.005);
    let all = tpch::all(&cat);
    // A subset that covers scan+filter+agg, joins, and sorted output while
    // keeping the naive IR interpreter's runtime tolerable.
    let subset = ["q1", "q3", "q6", "q14"];
    let mut covered = 0;
    let engine = Engine::new(cat.clone());
    let session = engine.session();
    for q in all.iter().filter(|q| subset.contains(&q.name.as_str())) {
        covered += 1;
        let phys = decompose(&cat, &q.root, q.dicts.clone());
        let width = phys.output_tys.len();
        let prepared = session.prepare_plan(phys.clone());
        let mut reference: Option<Vec<Vec<u64>>> = None;
        for mode in [
            ExecMode::NaiveIr,
            ExecMode::Bytecode,
            ExecMode::Unoptimized,
            ExecMode::Optimized,
            ExecMode::Native,
            ExecMode::Adaptive,
        ] {
            let opts = ExecOptions { mode, threads: 2, cache_results: false, ..Default::default() };
            let (res, _) = session
                .execute_with(&prepared, &opts)
                .unwrap_or_else(|e| panic!("{} {mode:?}: {e}", q.name));
            let got = normalized(&res.rows, width, phys.sorted_output);
            match &reference {
                None => reference = Some(got),
                Some(want) => {
                    assert_eq!(&got, want, "{} {mode:?} disagrees with NaiveIr", q.name)
                }
            }
        }
    }
    assert_eq!(covered, subset.len(), "TPC-H subset lookup failed");
}

#[test]
fn adaptive_controller_reaches_native_rank_four() {
    require_native!();
    // Make the O2 rung irresistible relative to O0: huge modelled O2
    // speedup, a modest O0 speedup — over a wide aggregation there is
    // easily enough remaining work to amortize the O2 compile cost, so
    // extrapolation picks rank 4 directly.
    let cat = tpch_data::generate(0.02);
    let q = synthetic::wide_agg(120);
    let phys = decompose(&cat, &q.root, vec![]);

    let mut opts =
        ExecOptions { mode: ExecMode::Adaptive, threads: 2, trace: true, ..Default::default() };
    opts.model.speedup_unopt = 1.05;
    opts.model.speedup_native = 20.0;
    let engine = Engine::new(cat.clone());
    let session = engine.session();
    let prepared = session.prepare_plan(phys.clone());
    let (rows, report) = session.execute_with(&prepared, &opts).expect("adaptive execution");

    assert!(report.background_compiles >= 1, "a background compile must have landed");
    let morsel_kinds: std::collections::BTreeSet<u8> =
        report.trace.iter().filter(|e| e.kind != KIND_COMPILE).map(|e| e.kind).collect();
    assert!(morsel_kinds.contains(&0), "query starts interpreted: {morsel_kinds:?}");
    assert!(
        morsel_kinds.contains(&4),
        "no morsel ran on the native backend — the rank-4 switch did not happen; \
         kinds seen: {morsel_kinds:?}"
    );

    // The switch must not change the answer.
    let bc_opts = ExecOptions {
        mode: ExecMode::Bytecode,
        threads: 2,
        cache_results: false,
        ..Default::default()
    };
    let (bc_rows, _) = session.execute_with(&prepared, &bc_opts).expect("bytecode execution");
    let w = phys.output_tys.len();
    assert_eq!(
        normalized(&rows.rows, w, phys.sorted_output),
        normalized(&bc_rows.rows, w, phys.sorted_output),
        "native-switched result differs from pure bytecode result"
    );
}

#[test]
fn native_mode_runs_or_aliases_cleanly() {
    // `ExecMode::Native` must work on every target: real machine code
    // where the emitter exists, the bytecode alias elsewhere (and under
    // AQE_NATIVE=0). Either way the rows match bytecode.
    let cat = tpch_data::generate(0.01);
    let q = synthetic::wide_agg(40);
    let phys = decompose(&cat, &q.root, vec![]);
    let engine = Engine::new(cat.clone());
    let session = engine.session();
    let prepared = session.prepare_plan(phys.clone());
    let native_opts = ExecOptions {
        mode: ExecMode::Native,
        threads: 2,
        trace: true,
        cache_results: false,
        ..Default::default()
    };
    let (rows, report) = session.execute_with(&prepared, &native_opts).expect("native execution");
    let kinds: std::collections::BTreeSet<u8> =
        report.trace.iter().filter(|e| e.kind != KIND_COMPILE).map(|e| e.kind).collect();
    if aqe::jit::native::enabled() {
        assert_eq!(kinds, [4u8].into(), "every morsel must run on machine code: {kinds:?}");
    } else {
        assert_eq!(kinds, [0u8].into(), "fallback must alias to bytecode: {kinds:?}");
    }
    let bc_opts = ExecOptions {
        mode: ExecMode::Bytecode,
        threads: 2,
        cache_results: false,
        ..Default::default()
    };
    let (bc_rows, _) = session.execute_with(&prepared, &bc_opts).expect("bytecode execution");
    assert_eq!(rows.rows, bc_rows.rows, "native (or alias) must agree with bytecode");
}
