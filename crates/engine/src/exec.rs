//! Query execution orchestration: hot-swappable function handles (Fig. 5),
//! pipeline setup, and sink finalisation.
//!
//! "We always start executing every query using the bytecode interpreter and
//! all available threads. We then monitor the execution progress to decide
//! whether (unoptimized or optimized) compilation would be beneficial. If
//! this is the case, we start compiling on a background thread, while the
//! other threads continue the interpreted execution. Once compilation is
//! finished, all threads quickly switch to the compiled machine code."
//!
//! The *scheduling* half of that loop — who runs which rows, how progress
//! is observed, when the controller compiles, and how the cost model is
//! calibrated — lives in [`crate::sched`]; this module owns the per-query
//! state, the handle indirection, and the pipeline-end sinks.

use crate::cancel::CancelToken;
use crate::plan::{AggFunc, FieldTy, PhysicalPlan, Sink, Source};
use crate::runtime::{
    merge_agg_partition, sort_rows, AggRun, AggTable, JoinBuild, JoinHt, WorkerRt,
};
use crate::sched::{
    AdaptiveController, ControllerCtx, CostCalibrator, MorselDispenser, PipelineProgress,
    PipelineQuarantine,
};
use crate::simd::ScanKernel;
use aqe_ir::{ExternDecl, Function};
use aqe_storage::CatalogSnapshot;
use aqe_vm::interp::{ExecError, Frame};
use aqe_vm::rt::Registry;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Execution modes & scheduler vocabulary (re-exports)
// ---------------------------------------------------------------------------

/// Re-exported from `aqe-vm`: the mode vocabulary is shared by every
/// backend implementation, so it lives next to [`PipelineBackend`].
pub use aqe_vm::backend::{ExecMode, PipelineBackend};

/// Re-exported from [`crate::sched`]: the cost model, the Fig. 7
/// extrapolation, and the calibration/report vocabulary grew out of this
/// module in PR 2 and keep their historical import paths.
pub use crate::sched::{
    extrapolate_pipeline_durations, CalibrationReport, CostModel, ExecLevel, PipelineSchedReport,
};

// ---------------------------------------------------------------------------
// Function handles (Fig. 5)
// ---------------------------------------------------------------------------

/// "Instead of identifying a worker function by its memory address, we
/// introduce an additional handle indirection. … to change the execution
/// mode, one only needs to set a function pointer in this handle object."
///
/// The handle holds exactly one `Arc<dyn PipelineBackend>` — the *current*
/// executable representation of the worker function. Workers [`load`] it
/// once per morsel and call through it without knowing (or branching on)
/// which backend it is; a background compilation publishes a better
/// representation with [`install`], and every worker picks it up on its
/// next morsel. Swaps are monotonic in [`ExecMode::rank`], so execution
/// only ever upgrades.
///
/// [`load`]: FunctionHandle::load
/// [`install`]: FunctionHandle::install
pub struct FunctionHandle {
    /// The current backend. An uncontended RwLock read is cheap relative
    /// to a morsel's worth of work (with the real `parking_lot` it is a
    /// single atomic op; the vendored offline stand-in wraps `std::sync`
    /// and costs slightly more), and writers only ever hold the lock for
    /// the duration of an `Arc` store.
    current: RwLock<Arc<dyn PipelineBackend>>,
    /// Cached `rank()` of the current backend; the adaptive controller
    /// polls this without touching the lock.
    rank: AtomicU8,
    /// A compilation is in flight.
    compiling: AtomicBool,
}

impl FunctionHandle {
    pub fn new(initial: Arc<dyn PipelineBackend>) -> Self {
        let rank = initial.kind().rank();
        FunctionHandle {
            current: RwLock::new(initial),
            rank: AtomicU8::new(rank),
            compiling: AtomicBool::new(false),
        }
    }

    /// The function-pointer read of Fig. 5: the backend to run the next
    /// morsel with.
    pub fn load(&self) -> Arc<dyn PipelineBackend> {
        self.current.read().clone()
    }

    /// Rank of the current backend (see [`ExecMode::rank`]).
    pub fn rank(&self) -> u8 {
        self.rank.load(Ordering::Acquire)
    }

    /// Kind of the current backend.
    pub fn kind(&self) -> ExecMode {
        self.current.read().kind()
    }

    /// Atomically publish `backend` if it outranks the current one.
    /// Returns whether the swap happened; either way the in-flight
    /// compilation marker is cleared.
    pub fn install(&self, backend: Arc<dyn PipelineBackend>) -> bool {
        let rank = backend.kind().rank();
        let swapped = {
            let mut cur = self.current.write();
            if rank > cur.kind().rank() {
                *cur = backend;
                self.rank.store(rank, Ordering::Release);
                true
            } else {
                false
            }
        };
        self.compiling.store(false, Ordering::Release);
        swapped
    }

    /// Claim the right to start a (single) background compilation.
    pub fn try_begin_compile(&self) -> bool {
        !self.compiling.swap(true, Ordering::AcqRel)
    }

    /// Abandon a claimed compilation without publishing anything (the
    /// compile failed): re-opens the slot so a later decision can retry —
    /// without this, an `Err` from the compiler would leak the slot and
    /// permanently disable upgrades for the pipeline.
    pub fn cancel_compile(&self) {
        self.compiling.store(false, Ordering::Release);
    }
}

/// A pipeline's *retained* backend slot: the best compiled representation
/// any execution has published so far, kept alive across runs by the
/// session layer's prepared-query state.
///
/// Same install/load discipline as [`FunctionHandle`] — a cached atomic
/// rank for lock-free polling, an `RwLock`ed `Arc` held only for the
/// duration of a pointer copy, and rank-monotonic installs — but the slot
/// starts *empty* (rank 0) and is shared by every concurrent execution of
/// one prepared query: warm runs seed their per-run handles from it
/// without any coordination, and background compiles publish into it the
/// moment they finish, so an execution starting mid-flight of another
/// already benefits from the other's compile.
///
/// Only compiled backends (rank ≥ [`ExecMode::Unoptimized`]) are ever
/// installed; interpretation tiers live in their own compile-once latches.
#[derive(Default)]
pub struct RetainedSlot {
    slot: RwLock<Option<Arc<dyn PipelineBackend>>>,
    /// Cached rank of the occupant; 0 = empty.
    rank: AtomicU8,
}

impl RetainedSlot {
    pub fn new() -> RetainedSlot {
        RetainedSlot::default()
    }

    /// Rank of the retained backend (0 when empty) — lock-free.
    pub fn rank(&self) -> u8 {
        self.rank.load(Ordering::Acquire)
    }

    /// The retained backend, if any run has published one.
    pub fn load(&self) -> Option<Arc<dyn PipelineBackend>> {
        self.slot.read().clone()
    }

    /// Publish `backend` if it outranks the current occupant (an empty
    /// slot ranks 0). Returns whether the slot changed. Safe to race:
    /// the highest-ranked install wins regardless of arrival order.
    pub fn install(&self, backend: Arc<dyn PipelineBackend>) -> bool {
        let rank = backend.kind().rank();
        let mut cur = self.slot.write();
        let cur_rank = cur.as_ref().map_or(0, |b| b.kind().rank());
        if rank > cur_rank {
            *cur = Some(backend);
            self.rank.store(rank, Ordering::Release);
            true
        } else {
            false
        }
    }
}

// ---------------------------------------------------------------------------
// Tracing (Fig. 14)
// ---------------------------------------------------------------------------

/// One trace event (times in µs since query start).
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    pub thread: u16,
    pub pipeline: u16,
    /// [`ExecMode::trace_kind`] of the backend that ran the morsel:
    /// 0 = bytecode, 1 = O0 machine code, 3 = naive IR, 4 = O2 machine
    /// code, 5 = vectorized scan kernel; 255 = compilation. (2, the
    /// retired optimized threaded code, is no longer emitted.)
    pub kind: u8,
    pub start_us: u64,
    pub end_us: u64,
    pub tuples: u64,
}

/// Full execution report.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Wall time spent generating IR for this execution.
    /// `Duration::ZERO` on a warm prepared-query re-execution.
    pub codegen: Duration,
    /// Wall time spent translating IR to bytecode for this execution.
    /// `Duration::ZERO` on a warm prepared-query re-execution.
    pub bc_translate: Duration,
    /// Up-front compilations (static modes): per pipeline.
    pub upfront_compile: Duration,
    pub exec: Duration,
    pub background_compiles: usize,
    pub trace: Vec<TraceEvent>,
    /// Pipeline labels, by pipeline id (for rendering traces).
    pub pipeline_labels: Vec<String>,
    /// IR instruction count of the module.
    pub ir_instrs: usize,
    /// Per-pipeline scheduler summaries (morsels, steals, decisions, the
    /// model each controller decided with).
    pub sched: Vec<PipelineSchedReport>,
    /// What the query's cost calibrator learned (final model + counts).
    pub calibration: CalibrationReport,
    /// The result came from the engine's versioned query-result cache:
    /// no codegen, no translation, no morsel ran (and `sched` is empty).
    pub result_cache_hit: bool,
    /// Version of the immutable catalog snapshot this execution ran
    /// against. Every artifact of the run — cache key, compiled state,
    /// column base pointers — derives from this one epoch, so a torn read
    /// (mixing two catalog versions within one execution) is impossible
    /// by construction.
    pub snapshot_version: u64,
    /// This execution built the prepared query's compiled state (codegen,
    /// registry resolution) under the cold-compile latch. Warm executions
    /// reuse the published state without ever taking that latch.
    pub cold_build: bool,
    /// Executions in flight on the engine (this one included) when this
    /// execution started — the contention observability counter for the
    /// concurrency benchmark.
    pub concurrent_executions: usize,
    /// How this execution fared in the front-door server's admission
    /// controller (`None` for direct library calls): queue wait, the
    /// priority it was admitted at, and the server's cumulative shed
    /// count at dispatch time. Copied verbatim from
    /// [`ExecOptions::admission`].
    pub admission: Option<AdmissionReport>,
    /// `Some(reason)` when this execution's [`CancelToken`] was poisoned.
    /// An execution that observed the poison returns
    /// `ExecError::Cancelled` instead of a report; this field covers the
    /// complementary race — the cancel landed after the last claim, so
    /// the run completed anyway.
    pub cancelled: Option<String>,
    /// Compilations (up-front or background) that failed or panicked and
    /// were contained by ladder degradation: the execution continued one
    /// rung down instead of surfacing `ExecError::Compile`. The broken
    /// tier is quarantined (see [`crate::sched::QuarantineStore`]).
    pub degraded: u64,
    /// Tiers this execution skipped because an earlier execution
    /// quarantined them (no compile was attempted; the ladder topped out
    /// one rung lower).
    pub quarantine_skips: u64,
}

/// What the server's admission controller did to an execution before the
/// engine saw it ([`Report::admission`]). Produced by `crates/server` at
/// dispatch time and threaded through [`ExecOptions::admission`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AdmissionReport {
    /// Time between submission and dispatch onto an engine executor.
    pub queue_wait: Duration,
    /// Priority tier the request was admitted at (0 = lowest).
    pub priority: u8,
    /// The server's cumulative shed count when this request dispatched —
    /// a load signal: a fast-rising value means the request ran under
    /// active shedding.
    pub shed_at_dispatch: u64,
}

// ---------------------------------------------------------------------------
// Query state assembly & pipeline finalisation
// ---------------------------------------------------------------------------

struct QueryState {
    slots: Vec<u64>,
    join_hts: Vec<Option<JoinHt>>,
    agg_rows: Vec<Vec<u64>>, // merged group rows per agg
    mat_rows: Vec<Vec<u64>>,
    out_rows: Vec<u64>,
    /// Keep dictionaries alive for the duration.
    _dicts: Vec<Arc<Vec<u8>>>,
}

/// Execution result: dense rows of the output schema.
#[derive(Clone, Debug)]
pub struct ResultRows {
    pub tys: Vec<FieldTy>,
    pub rows: Vec<u64>,
}

impl ResultRows {
    pub fn row_count(&self) -> usize {
        if self.tys.is_empty() {
            0
        } else {
            self.rows.len() / self.tys.len()
        }
    }
}

/// A bind-variable value supplied to
/// [`Session::execute_bound`](crate::session::Session::execute_bound).
/// Decimal parameters are
/// bound in their scaled integer representation (cents), date parameters
/// as day numbers — the same representation the plan's literals use.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ParamValue {
    I64(i64),
    F64(f64),
}

impl ParamValue {
    /// The representation type this value binds to.
    pub fn field_ty(&self) -> FieldTy {
        match self {
            ParamValue::I64(_) => FieldTy::I64,
            ParamValue::F64(_) => FieldTy::F64,
        }
    }

    /// The 64-bit pattern stored in the parameter block.
    pub fn bits(&self) -> u64 {
        match self {
            ParamValue::I64(v) => *v as u64,
            ParamValue::F64(v) => v.to_bits(),
        }
    }
}

impl From<i64> for ParamValue {
    fn from(v: i64) -> ParamValue {
        ParamValue::I64(v)
    }
}

impl From<f64> for ParamValue {
    fn from(v: f64) -> ParamValue {
        ParamValue::F64(v)
    }
}

/// Execution options.
#[derive(Clone, Debug)]
pub struct ExecOptions {
    pub mode: ExecMode,
    pub threads: usize,
    pub trace: bool,
    pub model: CostModel,
    /// Initial morsel size; grows ×2 up to `max_morsel` ("we can further
    /// refine this extrapolation by using a dynamically growing morsel
    /// size").
    pub min_morsel: usize,
    pub max_morsel: usize,
    /// Delay before the first adaptive evaluation (paper: 1 ms).
    pub first_eval: Duration,
    /// Enable LIFO half-range work stealing between workers (the
    /// single-cursor behaviour of PR 1 has no equivalent; disabling this
    /// leaves static per-worker partitions, the honest no-stealing
    /// baseline).
    pub steal: bool,
    /// Consult and populate the engine's versioned query-result cache
    /// (`session::Engine`). Disable for benchmarks that must observe a
    /// real execution on every run.
    pub cache_results: bool,
    /// This execution's cooperative cancellation token: poisoning it (or
    /// its armed deadline expiring) stops the morsel loop within one
    /// range claim and surfaces as `ExecError::Cancelled`. The default is
    /// a fresh, never-poisoned token. Note that cloning an `ExecOptions`
    /// *shares* the token — callers that cancel should install a fresh
    /// token per execution, as the server does.
    pub cancel: CancelToken,
    /// Admission-controller provenance to surface in
    /// [`Report::admission`]. Set by the server at dispatch; `None` for
    /// direct library calls.
    pub admission: Option<AdmissionReport>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            mode: ExecMode::Adaptive,
            threads: 1,
            trace: false,
            model: CostModel::default(),
            min_morsel: 1024,
            max_morsel: 64 * 1024,
            first_eval: Duration::from_millis(1),
            steal: true,
            cache_results: true,
            cancel: CancelToken::new(),
            admission: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Pipeline-loop core (driven by the session layer)
// ---------------------------------------------------------------------------

/// Everything one query execution needs once its artifacts (functions,
/// registry, per-pipeline handles with their initial backends) have been
/// assembled by the session layer.
pub(crate) struct QueryRun<'a> {
    pub plan: &'a PhysicalPlan,
    /// The immutable catalog epoch this execution is pinned to — cloned
    /// `Arc`s, never a lock held across the morsel loop.
    pub cat: &'a CatalogSnapshot,
    pub functions: &'a [Arc<Function>],
    pub externs: &'a Arc<Vec<ExternDecl>>,
    pub registry: &'a Arc<Registry>,
    pub handles: &'a [Arc<FunctionHandle>],
    /// Per-pipeline retained slots of the prepared query's compiled
    /// state: background compiles publish into these the moment they
    /// finish, so concurrent executions warm-start mid-flight.
    pub retained: &'a [Arc<RetainedSlot>],
    /// Per-pipeline vectorized scan kernels extracted at prepare time
    /// (`None` where the pipeline has no vectorizable filter); handed to
    /// each pipeline's controller so the adaptive ladder can top out at
    /// the SIMD tier.
    pub kernels: &'a [Option<Arc<ScanKernel>>],
    /// Per-query calibrator, possibly seeded from the engine's
    /// cross-query `CalibrationStore`.
    pub calibrator: &'a Arc<CostCalibrator>,
    pub opts: &'a ExecOptions,
    /// Bind-variable values for this execution, one `u64` bit pattern per
    /// entry of `plan.params` (`f64` parameters as `to_bits`). Empty for
    /// non-parameterized plans. The slice is installed into the plan's
    /// param state slot, so every tier — interpreted, O0, O2, SIMD —
    /// reads the same block.
    pub params: &'a [u64],
    /// Per-pipeline quarantine views (one per pipeline, same indexing as
    /// `handles`): the controller skips tiers an earlier execution
    /// quarantined and records this run's compile outcomes.
    pub quarantine: &'a [PipelineQuarantine],
}

/// Run every pipeline of the plan in order through the hot-swap handles:
/// state assembly, the morsel loops, sink finalisation, and the report's
/// execution-side fields. Code generation, translation, and up-front
/// compilation have already happened — this is the part a warm prepared
/// query repeats on every execution.
pub(crate) fn run_pipelines(
    run: QueryRun<'_>,
    report: &mut Report,
) -> Result<ResultRows, ExecError> {
    let QueryRun {
        plan,
        cat,
        functions,
        externs,
        registry,
        handles,
        retained,
        kernels,
        calibrator,
        opts,
        params,
        quarantine,
    } = run;

    // ---- state assembly ---------------------------------------------------
    let mut state = QueryState {
        slots: vec![0; plan.state_slots],
        join_hts: (0..plan.join_hts.len()).map(|_| None).collect(),
        agg_rows: vec![Vec::new(); plan.aggs.len()],
        mat_rows: vec![Vec::new(); plan.mats.len()],
        out_rows: Vec::new(),
        _dicts: plan.dicts.iter().map(|d| d.bytes.clone()).collect(),
    };
    for d in &plan.dicts {
        state.slots[d.state_slot] = d.bytes.as_ptr() as u64;
    }
    if let Some(ps) = plan.param_slot {
        if params.len() != plan.params.len() {
            return Err(ExecError::Bind(format!(
                "plan expects {} parameter(s), got {}",
                plan.params.len(),
                params.len()
            )));
        }
        // `params` borrows from the caller, which outlives the morsel
        // loops — same lifetime discipline as the dictionary slots above.
        state.slots[ps] = params.as_ptr() as u64;
    }

    let agg_shapes: Vec<(usize, Vec<crate::plan::AggFunc>)> =
        plan.aggs.iter().map(|a| (a.nkeys, a.aggs.clone())).collect();

    let exec_start = Instant::now();
    let compile_events: Arc<Mutex<Vec<TraceEvent>>> = Arc::new(Mutex::new(Vec::new()));
    let background_compiles = Arc::new(AtomicUsize::new(0));

    // One reusable register-file buffer per worker for the *whole query*:
    // a pipeline whose frame spills to the heap re-uses the previous
    // pipeline's allocation instead of growing a fresh one.
    let threads = opts.threads.max(1);
    let mut frames: Vec<Frame> = (0..threads).map(|_| Frame::new()).collect();

    // ---- run pipelines in order -------------------------------------------
    for p in &plan.pipelines {
        // Cancellation checkpoint between pipelines: a query poisoned
        // while pipeline k was finalizing never starts pipeline k+1.
        opts.cancel.check()?;
        // Resolve the source: base pointers + total work.
        let total_rows = match &p.source {
            Source::Table { table, cols, slot_base, .. } => {
                let t = cat
                    .get(table)
                    .ok_or_else(|| ExecError::Setup(format!("unknown table {table}")))?;
                for (k, &c) in cols.iter().enumerate() {
                    state.slots[slot_base + k] = t.column(c).base_ptr() as u64;
                }
                t.row_count()
            }
            Source::Rows { rows_slot, field_tys } => {
                // Filled by a previous finalize step.
                let _ = field_tys;
                state.slots[*rows_slot + 1] as usize
            }
        };

        let pipeline = PipelineRun {
            pid: p.id,
            function: &functions[p.id],
            externs,
            handle: &handles[p.id],
            retained: &retained[p.id],
            kernel: kernels.get(p.id).and_then(|k| k.clone()),
            registry,
            total_rows,
            plan,
            agg_shapes: &agg_shapes,
            opts,
            exec_start,
            compile_events: &compile_events,
            background_compiles: &background_compiles,
            calibrator,
            quarantine: &quarantine[p.id],
        };
        pipeline.run(report, &mut state, &mut frames)?;
    }

    report.background_compiles += background_compiles.load(Ordering::Relaxed);
    report.exec = exec_start.elapsed();
    report.trace.extend(compile_events.lock().drain(..));
    report.trace.sort_by_key(|e| (e.thread, e.start_us));
    report.calibration = calibrator.report();

    // ---- final output ------------------------------------------------------
    let rows = std::mem::take(&mut state.out_rows);
    Ok(ResultRows { tys: plan.output_tys.clone(), rows })
}

/// Widest row any sink of the plan stages into the row buffer.
fn plan_max_row_width(plan: &PhysicalPlan) -> usize {
    let mut w = plan.output_tys.len();
    for ht in &plan.join_hts {
        w = w.max(ht.nkeys + ht.payload);
    }
    for a in &plan.aggs {
        w = w.max(a.nkeys + a.aggs.len());
    }
    for m in &plan.mats {
        w = w.max(m.width);
    }
    w
}

/// Everything one pipeline run needs (bundled so the orchestration reads
/// as: build scheduler, spawn workers, finalize controller, run the sink).
struct PipelineRun<'a> {
    pid: usize,
    function: &'a Arc<Function>,
    externs: &'a Arc<Vec<ExternDecl>>,
    handle: &'a Arc<FunctionHandle>,
    retained: &'a Arc<RetainedSlot>,
    kernel: Option<Arc<ScanKernel>>,
    registry: &'a Arc<Registry>,
    total_rows: usize,
    plan: &'a PhysicalPlan,
    agg_shapes: &'a [(usize, Vec<crate::plan::AggFunc>)],
    opts: &'a ExecOptions,
    exec_start: Instant,
    compile_events: &'a Arc<Mutex<Vec<TraceEvent>>>,
    background_compiles: &'a Arc<AtomicUsize>,
    calibrator: &'a Arc<CostCalibrator>,
    quarantine: &'a PipelineQuarantine,
}

impl PipelineRun<'_> {
    fn run(
        self,
        report: &mut Report,
        state: &mut QueryState,
        frames: &mut [Frame],
    ) -> Result<(), ExecError> {
        let opts = self.opts;
        let threads = frames.len();

        // ---- scheduler assembly (see crate::sched) ------------------------
        let dispenser = MorselDispenser::new(
            self.total_rows as u64,
            threads,
            opts.min_morsel as u64,
            opts.max_morsel as u64,
            opts.steal,
        );
        let progress = Arc::new(PipelineProgress::new(threads));
        let controller = AdaptiveController::new(ControllerCtx {
            cancel: opts.cancel.clone(),
            pid: self.pid,
            function: self.function.clone(),
            externs: self.externs.clone(),
            handle: self.handle.clone(),
            retained: Some(self.retained.clone()),
            kernel: self.kernel.clone(),
            progress: progress.clone(),
            calibrator: self.calibrator.clone(),
            compile_events: self.compile_events.clone(),
            background_compiles: self.background_compiles.clone(),
            exec_start: self.exec_start,
            total_rows: self.total_rows as u64,
            threads,
            quarantine: Some(self.quarantine.clone()),
            adaptive: opts.mode == ExecMode::Adaptive,
            first_eval: opts.first_eval,
        });

        let state_ptr = state.slots.as_ptr() as u64;
        // Workers poll only the flag (relaxed, once per morsel); the error
        // value itself is stored under the mutex on the cold path.
        let failed = AtomicBool::new(false);
        let error: Mutex<Option<ExecError>> = Mutex::new(None);
        let fail = |e: ExecError| {
            let mut slot = error.lock();
            if slot.is_none() {
                *slot = Some(e);
            }
            failed.store(true, Ordering::Relaxed);
        };

        // Worker runtimes, one per thread (created up front so finalize can
        // collect them after the scope).
        let row_buf_slots = plan_max_row_width(self.plan);
        let mut worker_rts: Vec<Box<WorkerRt>> = (0..threads)
            .map(|_| {
                WorkerRt::with_row_buf(
                    self.plan.join_hts.len(),
                    self.agg_shapes,
                    self.plan.mats.len(),
                    row_buf_slots,
                )
            })
            .collect();
        let mut thread_traces: Vec<Vec<TraceEvent>> = vec![Vec::new(); threads];
        let phase2 = SinkPhase2::new(self.plan, self.pid, threads);
        let barrier = PhaseBarrier::new(threads);
        // When the last worker left its morsel loop (ns since exec_start);
        // read once the scope has joined every worker.
        let loop_end = AtomicU64::new(0);

        // ---- phase 1: the morsel loop; phase 2: the sink's parallel part --
        // Worker 0 runs on the calling thread and the others on scoped
        // threads: one spawn fewer per pipeline, and what worker 0
        // allocates for the query (a join's bucket array, the merged
        // groups) stays in the calling thread's allocator arena instead of
        // spreading over the arenas of short-lived threads.
        std::thread::scope(|scope| {
            let mut first = None;
            for (tid, ((wrt, ttrace), frame)) in worker_rts
                .iter_mut()
                .zip(thread_traces.iter_mut())
                .zip(frames.iter_mut())
                .enumerate()
            {
                let dispenser = &dispenser;
                let progress = &progress;
                let controller = &controller;
                let failed = &failed;
                let fail = &fail;
                let phase2 = &phase2;
                let barrier = &barrier;
                let loop_end = &loop_end;
                let handle = self.handle;
                let registry = self.registry;
                let exec_start = self.exec_start;
                let pid = self.pid;
                let cancel = &opts.cancel;
                let work = move || {
                    // Panic isolation at the worker boundary: a worker
                    // that panics (a backend bug, an injected
                    // `worker=panic` fault) must fail the *query* with a
                    // typed error, not unwind through the scope join and
                    // abort the caller. The shared locks are
                    // non-poisoning (vendored parking_lot), so the other
                    // workers drain cleanly via the `failed` flag.
                    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let wctx = wrt.wctx_ptr();
                        // The Fig. 5 indirection, loaded once and then refreshed
                        // only when the handle's (atomic) rank says a better
                        // backend was published: the `Arc` clone + lock of a
                        // full `load()` happens once per *switch*, not once per
                        // morsel — the controller can't swap more often than
                        // the rank changes, so nothing newer can be missed.
                        let mut backend = handle.load();
                        let mut backend_rank = backend.kind().rank();
                        loop {
                            if failed.load(Ordering::Relaxed) {
                                return;
                            }
                            // The cooperative cancellation checkpoint: one
                            // atomic load per claim on the live path. A
                            // poisoned token (client cancel, expired
                            // deadline, dropped connection) stops this
                            // worker before it claims another range — never
                            // mid-morsel, so sinks only ever see whole
                            // morsels.
                            if let Err(e) = cancel.check() {
                                return fail(e);
                            }
                            // Injectable fault site, once per claim round
                            // (`AQE_FAULT="worker=..."`). An `err` action
                            // surfaces as a typed internal error; a `panic`
                            // action exercises the catch_unwind boundary.
                            if let Err(m) = aqe_fault::failpoint("worker") {
                                return fail(ExecError::Internal { site: m });
                            }
                            // Front of our own partition, or stolen loot once
                            // it runs dry; `None` means the pipeline is done.
                            let Some(m) = dispenser.claim(tid) else { return };
                            let t_m0 = exec_start.elapsed().as_micros() as u64;
                            let args = [wctx, state_ptr, m.begin, m.end];
                            let rank = handle.rank();
                            if rank != backend_rank {
                                backend = handle.load();
                                backend_rank = rank;
                            }
                            if let Err(e) = backend.call(&args, registry, frame) {
                                return fail(e);
                            }
                            progress.record(tid, m.tuples());
                            if opts.trace {
                                ttrace.push(TraceEvent {
                                    thread: tid as u16,
                                    pipeline: pid as u16,
                                    kind: backend.kind().trace_kind(),
                                    start_us: t_m0,
                                    end_us: exec_start.elapsed().as_micros() as u64,
                                    tuples: m.tuples(),
                                });
                            }
                            // ---- adaptive decision (Fig. 7) -------------------
                            controller.maybe_decide();
                        }
                    }));
                    if caught.is_err() {
                        fail(ExecError::Internal {
                            site: format!("morsel worker {tid} (pipeline {pid})"),
                        });
                    }
                    loop_end.fetch_max(exec_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    if !phase2.parallel() {
                        return;
                    }
                    // Every worker reaches the barrier exactly once, however
                    // its morsel loop ended: a failed, panicked or cancelled
                    // worker only skips its hand-over, and the others see
                    // `failed` once the barrier opens and skip phase 2.
                    let phase2_site = || ExecError::Internal {
                        site: format!("sink finalize worker {tid} (pipeline {pid})"),
                    };
                    let guarded = |step: &mut dyn FnMut() -> Result<(), ExecError>| {
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(step)) {
                            Ok(Ok(())) => {}
                            Ok(Err(e)) => fail(e),
                            Err(_) => fail(phase2_site()),
                        }
                    };
                    if !failed.load(Ordering::Relaxed) {
                        guarded(&mut || {
                            phase2.hand_over(tid, wrt);
                            Ok(())
                        });
                    }
                    barrier.wait();
                    if tid == 0 {
                        // Always runs, so no worker waits on it forever.
                        guarded(&mut || phase2.lead(failed.load(Ordering::Relaxed)));
                    }
                    if failed.load(Ordering::Relaxed) {
                        return;
                    }
                    guarded(&mut || {
                        cancel.check()?;
                        aqe_fault::failpoint("sink_finalize")
                            .map_err(|m| ExecError::Internal { site: m })?;
                        phase2.run(tid, wrt)
                    });
                };
                if tid == 0 {
                    first = Some(work);
                } else {
                    scope.spawn(work);
                }
            }
            if let Some(mut work) = first {
                work();
            }
        });
        let phase2_wall = (self.exec_start.elapsed())
            .saturating_sub(Duration::from_nanos(loop_end.load(Ordering::Relaxed)));

        // Joins in-flight compiles (no detached-thread leak: their trace
        // events and calibration feedback land before the report is read).
        let sched = controller.finalize(&dispenser);
        report.degraded += sched.degraded;
        report.quarantine_skips += self.quarantine.skips();
        report.sched.push(sched);

        if let Some(e) = error.into_inner() {
            return Err(e);
        }
        for t in thread_traces {
            report.trace.extend(t);
        }

        let host_start = Instant::now();
        self.finalize_sink(state, phase2, &mut worker_rts);
        if let Some(s) = report.sched.last_mut() {
            s.finalize = phase2_wall + host_start.elapsed();
        }
        Ok(())
    }

    /// The calling thread's share of the sink finalization, once every
    /// worker has finished both phases: publish the sink's result into the
    /// query state (the "queryStart" host side of the next pipelines).
    fn finalize_sink(
        &self,
        state: &mut QueryState,
        phase2: SinkPhase2<'_>,
        worker_rts: &mut [Box<WorkerRt>],
    ) {
        let plan = self.plan;
        let pipeline = &plan.pipelines[self.pid];
        match phase2 {
            SinkPhase2::Join { ht, build, .. } => {
                let arenas =
                    worker_rts.iter_mut().map(|w| std::mem::take(&mut w.join_bufs[ht])).collect();
                let build = build.into_inner().flatten().expect("worker 0 allocated the buckets");
                let table = build.finish(arenas);
                let spec = &plan.join_hts[ht];
                state.slots[spec.state_slot] = table.buckets_ptr();
                state.slots[spec.state_slot + 1] = table.mask;
                state.join_hts[ht] = Some(table);
            }
            SinkPhase2::Agg { agg, runs, merged, .. } => {
                // The thread-local tables are consumed: free them before
                // the partitions are concatenated.
                drop(runs);
                let parts: Vec<Vec<u64>> =
                    merged.into_iter().filter_map(OnceLock::into_inner).collect();
                let mut rows = Vec::with_capacity(parts.iter().map(Vec::len).sum());
                for part in parts {
                    rows.extend_from_slice(&part);
                }
                let spec = &plan.aggs[agg];
                let width = spec.nkeys + spec.aggs.len();
                let nrows = rows.len().checked_div(width).unwrap_or(0);
                state.agg_rows[agg] = rows;
                state.slots[spec.rows_slot] = state.agg_rows[agg].as_ptr() as u64;
                state.slots[spec.rows_slot + 1] = nrows as u64;
            }
            SinkPhase2::None => match &pipeline.sink {
                Sink::Materialize { mat } => {
                    let spec = &plan.mats[*mat];
                    let mut rows: Vec<u64> = Vec::new();
                    for w in worker_rts.iter_mut() {
                        rows.append(&mut w.mat_bufs[*mat]);
                    }
                    if let Some((keys, limit)) = &spec.sort {
                        sort_rows(&mut rows, spec.width, keys, *limit);
                    }
                    state.mat_rows[*mat] = rows;
                    state.slots[spec.rows_slot] = state.mat_rows[*mat].as_ptr() as u64;
                    state.slots[spec.rows_slot + 1] =
                        (state.mat_rows[*mat].len() / spec.width.max(1)) as u64;
                }
                Sink::Emit => {
                    for w in worker_rts.iter_mut() {
                        state.out_rows.append(&mut w.out_buf);
                    }
                }
                Sink::BuildJoin { .. } | Sink::BuildAgg { .. } => {
                    unreachable!("join and aggregation sinks finalize in parallel")
                }
            },
        }

        // A root sort materialises; expose it as the output.
        if self.pid == plan.pipelines.len() - 1 {
            if let Sink::Materialize { mat } = &pipeline.sink {
                state.out_rows = std::mem::take(&mut state.mat_rows[*mat]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sink finalization, phase 2 (DESIGN §5)
// ---------------------------------------------------------------------------

/// The shared state of a sink's second phase. Each worker hands its
/// thread-local part over at the end of its morsel loop
/// ([`hand_over`](Self::hand_over)), waits at the pipeline's
/// [`PhaseBarrier`], and then does its share ([`run`](Self::run)).
enum SinkPhase2<'p> {
    /// Materialize and Emit sinks only concatenate, on the calling thread.
    None,
    /// Every worker links its own arena of entries into one bucket array,
    /// which worker 0 allocates once the barrier has made the entry count
    /// known (`None`: the pipeline failed first, nothing to link).
    Join {
        ht: usize,
        nkeys: usize,
        payload: usize,
        entries: AtomicUsize,
        build: OnceLock<Option<JoinBuild>>,
    },
    /// Worker `p` merges hash partition `p` of every worker's table.
    Agg {
        agg: usize,
        aggs: &'p [AggFunc],
        runs: Vec<OnceLock<AggRun>>,
        merged: Vec<OnceLock<Vec<u64>>>,
    },
}

impl<'p> SinkPhase2<'p> {
    fn new(plan: &'p PhysicalPlan, pid: usize, threads: usize) -> SinkPhase2<'p> {
        match &plan.pipelines[pid].sink {
            Sink::BuildJoin { ht, keys, payload } => SinkPhase2::Join {
                ht: *ht,
                nkeys: keys.len(),
                payload: payload.len(),
                entries: AtomicUsize::new(0),
                build: OnceLock::new(),
            },
            Sink::BuildAgg { agg, .. } => SinkPhase2::Agg {
                agg: *agg,
                aggs: &plan.aggs[*agg].aggs,
                runs: (0..threads).map(|_| OnceLock::new()).collect(),
                merged: (0..threads).map(|_| OnceLock::new()).collect(),
            },
            Sink::Materialize { .. } | Sink::Emit => SinkPhase2::None,
        }
    }

    /// Whether the sink has a parallel phase (and so a barrier).
    fn parallel(&self) -> bool {
        !matches!(self, SinkPhase2::None)
    }

    /// End of phase 1 on worker `tid`, before the barrier.
    fn hand_over(&self, tid: usize, wrt: &mut WorkerRt) {
        match self {
            SinkPhase2::Join { ht, nkeys, payload, entries, .. } => {
                // The arena becomes part of the table: drop its growth slack.
                let arena = &mut wrt.join_bufs[*ht];
                arena.shrink_to_fit();
                // Read by worker 0 after the barrier, whose AcqRel arrival
                // count orders this add before that read.
                entries.fetch_add(arena.len() / (1 + nkeys + payload), Ordering::Relaxed);
            }
            SinkPhase2::Agg { agg, runs, .. } => {
                // No generated code runs on this worker any more: an empty
                // placeholder takes the table's place.
                let table = std::mem::replace(&mut wrt.agg_tables[*agg], AggTable::new(0, &[]));
                let _ = runs[tid].set(AggRun::new(table, runs.len()));
            }
            SinkPhase2::None => {}
        }
    }

    /// Worker 0's step right after the barrier: set up what all workers
    /// share in phase 2. It always publishes something, even when the
    /// pipeline `failed` or the set-up panics, so waiting workers go on.
    fn lead(&self, failed: bool) -> Result<(), ExecError> {
        let SinkPhase2::Join { nkeys, payload, entries, build, .. } = self else { return Ok(()) };
        let made = match failed {
            true => Ok(None),
            false => std::panic::catch_unwind(|| {
                Some(JoinBuild::new(*nkeys, *payload, entries.load(Ordering::Relaxed)))
            }),
        };
        let panicked = made.is_err();
        let _ = build.set(made.unwrap_or(None));
        if panicked {
            std::panic::resume_unwind(Box::new("join bucket array"));
        }
        Ok(())
    }

    /// Worker `tid`'s share of phase 2, after the barrier.
    fn run(&self, tid: usize, wrt: &mut WorkerRt) -> Result<(), ExecError> {
        match self {
            SinkPhase2::Join { ht, build, .. } => {
                spin_until(|| build.get().is_some());
                if let Some(build) = build.wait() {
                    build.link(&mut wrt.join_bufs[*ht]);
                }
            }
            SinkPhase2::Agg { aggs, runs, merged, .. } => {
                let runs: Vec<&AggRun> =
                    runs.iter().map(|r| r.get().expect("every worker handed over")).collect();
                let _ = merged[tid].set(merge_agg_partition(&runs, tid, aggs)?);
            }
            SinkPhase2::None => {}
        }
        Ok(())
    }
}

/// How long a worker spins before it blocks, waiting on the other workers
/// of its pipeline: the morsel dispenser makes them finish close together.
const SPIN: Duration = Duration::from_micros(50);

/// Spin until `ready()` or for [`SPIN`]; whether it became ready.
fn spin_until(ready: impl Fn() -> bool) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < SPIN {
        for _ in 0..64 {
            if ready() {
                return true;
            }
            std::hint::spin_loop();
        }
    }
    ready()
}

/// A one-shot barrier for the workers of one pipeline: waiters spin
/// briefly, then block.
struct PhaseBarrier {
    arrived: AtomicUsize,
    n: usize,
    lock: std::sync::Mutex<()>,
    open: std::sync::Condvar,
}

impl PhaseBarrier {
    fn new(n: usize) -> PhaseBarrier {
        PhaseBarrier {
            arrived: AtomicUsize::new(0),
            n,
            lock: std::sync::Mutex::new(()),
            open: std::sync::Condvar::new(),
        }
    }

    fn wait(&self) {
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            let _g = self.lock.lock().unwrap_or_else(|e| e.into_inner());
            self.open.notify_all();
            return;
        }
        let all_in = || self.arrived.load(Ordering::Acquire) == self.n;
        if spin_until(all_in) {
            return;
        }
        let mut g = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        while !all_in() {
            g = self.open.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqe_jit::compile::OptLevel;
    use aqe_jit::native::{compile_native_at, enabled};
    use aqe_vm::naive::NaiveBackend;
    use aqe_vm::translate::{translate, TranslateOptions};

    /// Skip the test body when `AQE_NATIVE=0` forces the fallback (the CI
    /// dimension that runs the suite without the emitter).
    macro_rules! require_native {
        () => {
            if !enabled() {
                eprintln!("native emitter disabled; skipping");
                return;
            }
        };
    }

    fn identity_function() -> Function {
        use aqe_ir::{FunctionBuilder, Type};
        let mut b = FunctionBuilder::new("f", &[Type::I64], Some(Type::I64));
        let p = b.param(0);
        b.ret(Some(p.into()));
        b.finish().unwrap()
    }

    fn native(f: &Function, level: OptLevel) -> Arc<dyn PipelineBackend> {
        Arc::new(compile_native_at(f, &[], level).unwrap())
    }

    #[test]
    fn handle_swaps_are_monotonic_upgrades() {
        let f = identity_function();
        let bc = translate(&f, &[], TranslateOptions::default()).unwrap();
        let h = FunctionHandle::new(Arc::new(bc));
        assert_eq!(h.kind(), ExecMode::Bytecode);
        assert!(h.try_begin_compile());
        assert!(!h.try_begin_compile(), "second compile attempt must be rejected");
        // A failed compile re-opens the slot instead of leaking it.
        h.cancel_compile();
        assert!(h.try_begin_compile(), "cancel must re-open the compile slot");
        require_native!();

        assert!(h.install(native(&f, OptLevel::Unoptimized)));
        assert_eq!(h.kind(), ExecMode::Unoptimized);
        assert!(h.try_begin_compile(), "compiles allowed again after install");

        // Downgrades are refused: the handle only moves up the rank order.
        let bc2 = translate(&f, &[], TranslateOptions::default()).unwrap();
        assert!(!h.install(Arc::new(bc2)));
        assert_eq!(h.kind(), ExecMode::Unoptimized);

        assert!(h.install(native(&f, OptLevel::Optimized)));
        assert_eq!(h.kind(), ExecMode::Native);
        assert_eq!(h.rank(), ExecMode::Native.rank());
    }

    #[test]
    fn retained_slot_installs_are_rank_monotonic_from_empty() {
        let f = identity_function();
        let slot = RetainedSlot::new();
        assert_eq!(slot.rank(), 0, "a fresh slot is empty");
        assert!(slot.load().is_none());
        require_native!();

        assert!(slot.install(native(&f, OptLevel::Optimized)));
        assert_eq!(slot.rank(), ExecMode::Native.rank());

        // A lower-ranked late arrival (a racing O0 compile) is refused;
        // the best published backend stays.
        assert!(!slot.install(native(&f, OptLevel::Unoptimized)));
        assert_eq!(slot.load().unwrap().kind(), ExecMode::Native);
    }

    #[test]
    fn every_backend_agrees_through_the_handle() {
        // The §III-B contract, exercised end-to-end through the seam the
        // engine actually uses: identical results from every backend kind
        // installed into a FunctionHandle.
        let f = identity_function();
        let shared = Arc::new(f.clone());
        let mut backends: Vec<Arc<dyn PipelineBackend>> = vec![
            Arc::new(NaiveBackend::new(shared)),
            Arc::new(translate(&f, &[], TranslateOptions::default()).unwrap()),
        ];
        if enabled() {
            backends.push(native(&f, OptLevel::Unoptimized));
            backends.push(native(&f, OptLevel::Optimized));
        }
        let rt = Registry::new();
        let mut frame = Frame::new();
        for b in backends {
            let h = FunctionHandle::new(b);
            let got = h.load().call(&[42], &rt, &mut frame).unwrap();
            assert_eq!(got, Some(42), "backend {:?}", h.kind());
        }
    }
}
