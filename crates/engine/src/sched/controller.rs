//! The adaptive controller: Fig. 7 as a first-class type.
//!
//! PR 1 ran the whole decision — rate sampling, extrapolation, compile
//! claim, trace emission — as an inline block in the worker loop, and
//! detached its background-compile threads (`std::thread::spawn` handles
//! were dropped: a compile finishing after the pipeline ended could push a
//! trace event after `compile_events` was drained, and its work was
//! silently wasted). [`AdaptiveController`] owns all of it: workers call
//! [`maybe_decide`] after each morsel, the controller polls on a cadence,
//! extrapolates from the lock-free progress window, claims the (single)
//! compilation slot, spawns the compile on a *tracked* thread, and
//! [`finalize`] joins every in-flight compile before the pipeline's
//! results are read — no leaks, no lost trace events, and measured compile
//! times plus observed post-switch rates flow into the per-query
//! [`CostCalibrator`].
//!
//! [`maybe_decide`]: AdaptiveController::maybe_decide
//! [`finalize`]: AdaptiveController::finalize

use crate::cancel::CancelToken;
use crate::exec::{FunctionHandle, RetainedSlot, TraceEvent};
use crate::sched::calibrate::{CostCalibrator, CostModel};
use crate::sched::morsel::MorselDispenser;
use crate::sched::progress::PipelineProgress;
use crate::sched::quarantine::PipelineQuarantine;
use crate::simd::{self, ScanKernel, SimdScanBackend};
use aqe_ir::{ExternDecl, Function};
use aqe_jit::compile::OptLevel;
use aqe_jit::native::{compile_native_at, NativeError};
use aqe_vm::backend::{ExecMode, PipelineBackend};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The execution level a pipeline is currently running at, derived from
/// the hot-swap handle's rank. This is the *typed* form of what PR 1
/// passed to the extrapolation as a misleading `unopt_available: bool`
/// (which actually meant "already at unoptimized rank or above").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ExecLevel {
    /// Bytecode or naive-IR interpretation (speedup factor 1).
    Interpreted,
    /// O0 machine code (`ExecMode::Unoptimized`, rank 2).
    Unoptimized,
    /// O2 machine code (`ExecMode::Native`, rank 4).
    Native,
    /// Native code behind a vectorized scan-kernel pre-pass (rank 5).
    Simd,
}

impl ExecLevel {
    /// Classify a backend rank (see `ExecMode::rank`).
    pub fn from_rank(rank: u8) -> ExecLevel {
        if rank >= ExecMode::Simd.rank() {
            ExecLevel::Simd
        } else if rank >= ExecMode::Native.rank() {
            ExecLevel::Native
        } else if rank >= ExecMode::Unoptimized.rank() {
            ExecLevel::Unoptimized
        } else {
            ExecLevel::Interpreted
        }
    }

    /// Modelled speedup over bytecode at this level.
    pub fn speedup(self, model: &CostModel) -> f64 {
        model.speedup(self)
    }

    /// The backend rank a pipeline reaches at this level.
    pub fn rank(self) -> u8 {
        match self {
            ExecLevel::Interpreted => ExecMode::Bytecode.rank(),
            ExecLevel::Unoptimized => ExecMode::Unoptimized.rank(),
            ExecLevel::Native => ExecMode::Native.rank(),
            ExecLevel::Simd => ExecMode::Simd.rank(),
        }
    }

    /// The levels a compilation can target, in rank order.
    pub const COMPILED: [ExecLevel; 3] =
        [ExecLevel::Unoptimized, ExecLevel::Native, ExecLevel::Simd];

    /// The compiled levels this process can reach for a pipeline: both
    /// native levels where the emitter is live, and the SIMD level where
    /// the pipeline has a scan kernel and `AQE_SIMD` allows it (over
    /// bytecode when there is no emitter).
    pub fn available(native: bool, simd: bool) -> Vec<ExecLevel> {
        ExecLevel::COMPILED
            .into_iter()
            .filter(|&l| if l == ExecLevel::Simd { simd } else { native })
            .collect()
    }
}

/// `extrapolatePipelineDurations` (Fig. 7, verbatim structure): given the
/// remaining tuples `n`, the number of active workers `w`, the observed
/// current processing rate `r0` (tuples/s per thread), the model, and the
/// level the pipeline is *currently* executing at, pick the cheapest plan:
/// the level to compile to, or `None` to do nothing.
///
/// A compilation level is only a candidate when it lies strictly above
/// `current` — the hot-swap handle refuses downgrades, so proposing the
/// current level or below would waste the (single) compile slot — and is
/// one of `levels`, the levels this process can actually compile (see
/// [`ExecLevel::available`]).
pub fn extrapolate_pipeline_durations(
    model: &CostModel,
    instrs: usize,
    n: f64,
    w: f64,
    r0: f64,
    current: ExecLevel,
    levels: &[ExecLevel],
) -> Option<ExecLevel> {
    if r0 <= 0.0 || n <= 0.0 {
        return None;
    }
    let cur_speedup = current.speedup(model);
    let t0 = n / r0 / w;
    let mut best = (t0, None);
    for &cand in levels {
        if cand <= current {
            continue;
        }
        let r = r0 * (model.speedup(cand) / cur_speedup);
        let c = model.ctime(cand, instrs);
        // While compiling, w-1 workers keep processing at the current rate.
        let t = c + (n - (w - 1.0) * r0 * c).max(0.0) / r / w;
        if t < best.0 && r > r0 {
            best = (t, Some(cand));
        }
    }
    best.1
}

/// Per-pipeline scheduler summary, surfaced in `Report::sched`.
#[derive(Clone, Debug)]
pub struct PipelineSchedReport {
    pub pipeline: usize,
    /// The [`ExecLevel`] the pipeline's first morsel ran at. Cold queries
    /// always start [`Interpreted`](ExecLevel::Interpreted); a warm
    /// prepared-query re-execution starts at the highest level a prior run
    /// reached.
    pub start_level: ExecLevel,
    pub total_rows: u64,
    pub morsels: u64,
    /// Work-stealing transitions between workers.
    pub steals: u64,
    pub stolen_tuples: u64,
    /// Fig. 7 evaluations performed.
    pub decisions: u64,
    pub compiles_started: u64,
    /// Tuples processed per worker — individually observable thanks to the
    /// per-worker partitions (a global cursor could not attribute them).
    pub worker_tuples: Vec<u64>,
    /// Whether this pipeline's controller decided with a model that had
    /// already received feedback from earlier pipelines of the query.
    pub calibrated: bool,
    /// Background compiles that failed (or panicked) and were contained:
    /// the pipeline kept running at its current level and the broken
    /// tier was quarantined.
    pub degraded: u64,
    /// The model the controller decided with.
    pub model: CostModel,
}

/// Everything a pipeline's controller needs that outlives the worker loop
/// (shared query-level channels plus this pipeline's identity).
pub struct ControllerCtx {
    /// The execution's cooperative cancellation token. The controller
    /// checks it at poll cadence — a poisoned query stops *claiming*
    /// compilations — and every tracked background `CompileJob`
    /// re-checks it before compiling, so a cancelled query also stops
    /// paying for compiles that have not started yet. (A compile that
    /// already ran to completion is still published into the retained
    /// slot: it is paid for, valid, and keeps the next execution warm.)
    pub cancel: CancelToken,
    pub pid: usize,
    pub function: Arc<Function>,
    pub externs: Arc<Vec<ExternDecl>>,
    pub handle: Arc<FunctionHandle>,
    /// The prepared query's retained slot for this pipeline, when one
    /// exists: a finished background compile publishes here *in addition
    /// to* the per-run handle, so concurrent executions of the same
    /// prepared query warm-start from it mid-flight instead of waiting
    /// for this run's end-of-query harvest.
    pub retained: Option<Arc<RetainedSlot>>,
    /// The pipeline's vectorized filter pre-pass, when one was extracted
    /// from the plan: its presence is what makes `Simd` available to the
    /// controller, and the background compile wraps the scalar backend
    /// in it.
    pub kernel: Option<Arc<ScanKernel>>,
    pub progress: Arc<PipelineProgress>,
    pub calibrator: Arc<CostCalibrator>,
    pub compile_events: Arc<Mutex<Vec<TraceEvent>>>,
    pub background_compiles: Arc<AtomicUsize>,
    /// Query start (trace timestamps are relative to it).
    pub exec_start: Instant,
    pub total_rows: u64,
    pub threads: usize,
    /// This execution's quarantine view of the pipeline: tiers whose
    /// compiles failed recently are skipped by `decide` (the ladder
    /// degrades one rung instead), and compile outcomes are recorded
    /// back into the engine-shared store.
    pub quarantine: Option<PipelineQuarantine>,
    /// `false` pins the initial backend (static modes): `maybe_decide`
    /// becomes a no-op and only the sched report is produced.
    pub adaptive: bool,
    /// Delay before the first evaluation (paper: 1 ms); later evaluations
    /// poll on the same cadence (floored at 50 µs).
    pub first_eval: Duration,
}

/// A claimed compilation whose post-switch rate is still to be observed.
struct PendingSwitch {
    /// Per-thread rate and level at claim time.
    pre_rate: f64,
    pre_level: ExecLevel,
    level: ExecLevel,
    /// Set by the compile thread once the backend is installed (it resets
    /// the rate window at that moment, so the window measures the new
    /// level only).
    installed: Arc<AtomicBool>,
}

/// One pipeline run's adaptive controller (Fig. 7).
pub struct AdaptiveController {
    ctx: ControllerCtx,
    /// Snapshot of the calibrator's model at pipeline start: decisions
    /// within one pipeline are stable even while feedback accrues.
    model: CostModel,
    calibrated: bool,
    /// Backend level installed when the controller was constructed.
    start_level: ExecLevel,
    /// Levels this process can compile to (snapshotted once: the
    /// `AQE_NATIVE`/`AQE_SIMD` gates are not re-read on the per-morsel
    /// decision path).
    levels: Vec<ExecLevel>,
    instrs: usize,
    pipeline_start: Instant,
    poll_us: u64,
    next_eval_us: AtomicU64,
    deciding: AtomicBool,
    decisions: AtomicU64,
    compiles_started: AtomicU64,
    pending: Mutex<Option<PendingSwitch>>,
    compile_threads: Mutex<Vec<JoinHandle<()>>>,
    /// Failed/panicked background compiles, contained (see
    /// [`PipelineSchedReport::degraded`]). Shared with the compile jobs.
    degraded: Arc<AtomicU64>,
}

impl AdaptiveController {
    pub fn new(ctx: ControllerCtx) -> AdaptiveController {
        let model = ctx.calibrator.model();
        let calibrated = ctx.calibrator.is_calibrated();
        let start_level = ExecLevel::from_rank(ctx.handle.rank());
        let instrs = ctx.function.instruction_count();
        let first_us = ctx.first_eval.as_micros() as u64;
        let levels = ExecLevel::available(
            aqe_jit::native::enabled(),
            ctx.kernel.is_some() && simd::enabled(),
        );
        AdaptiveController {
            model,
            calibrated,
            start_level,
            levels,
            instrs,
            pipeline_start: Instant::now(),
            poll_us: first_us.max(50),
            next_eval_us: AtomicU64::new(first_us),
            deciding: AtomicBool::new(false),
            decisions: AtomicU64::new(0),
            compiles_started: AtomicU64::new(0),
            pending: Mutex::new(None),
            compile_threads: Mutex::new(Vec::new()),
            degraded: Arc::new(AtomicU64::new(0)),
            ctx,
        }
    }

    /// The model this pipeline decides with (calibrated when earlier
    /// pipelines of the query recorded feedback).
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Called by workers after every morsel: cheap cadence check, then at
    /// most one worker at a time runs the Fig. 7 evaluation.
    pub fn maybe_decide(&self) {
        if !self.ctx.adaptive {
            return;
        }
        let now_us = self.pipeline_start.elapsed().as_micros() as u64;
        if now_us < self.next_eval_us.load(Ordering::Relaxed) {
            return;
        }
        if self.deciding.swap(true, Ordering::AcqRel) {
            return;
        }
        self.next_eval_us.store(now_us + self.poll_us, Ordering::Relaxed);
        self.decide();
        self.deciding.store(false, Ordering::Release);
    }

    fn decide(&self) {
        // The controller-cadence cancellation check: a poisoned query
        // must not claim the compile slot or burn a background thread —
        // the workers are about to observe the poison on their next
        // claim anyway.
        if self.ctx.cancel.is_cancelled() {
            return;
        }
        self.decisions.fetch_add(1, Ordering::Relaxed);
        let progress = &self.ctx.progress;
        let (win_tuples, win_secs) = progress.window();
        let w = self.ctx.threads as f64;
        let r0 = if win_secs > 0.0 { win_tuples as f64 / win_secs / w } else { 0.0 };
        let n = self.ctx.total_rows.saturating_sub(progress.total()) as f64;
        // Lock-free poll of the current backend via the cached rank — the
        // decision path never touches the handle's lock.
        let current = ExecLevel::from_rank(self.ctx.handle.rank());
        let target = extrapolate_pipeline_durations(
            &self.model,
            self.instrs,
            n,
            w,
            r0,
            current,
            &self.levels,
        );
        let Some(mut level) = target else { return };
        // Ladder degradation: a tier whose compile failed recently is
        // quarantined — fall to the next-lower available rung that is
        // still an upgrade, or do nothing this round (the next execution
        // after the skip budget is spent probes the tier again).
        if let Some(q) = &self.ctx.quarantine {
            while q.blocked(level) {
                let Some(&lower) = self.levels.iter().rev().find(|&&l| l < level) else {
                    return;
                };
                if lower <= current {
                    return;
                }
                level = lower;
            }
        }
        // A concurrent execution of the same prepared query may already
        // have compiled this pipeline at (or above) the target level and
        // published it into the shared retained slot — install that for
        // free instead of burning a background thread on an identical
        // compile. Rate bookkeeping mirrors a compile install: reset the
        // window so the post-switch rate is measured at the new level.
        if let Some(retained) = &self.ctx.retained {
            if retained.rank() >= level.rank() {
                if let Some(b) = retained.load() {
                    if self.ctx.handle.install(b) {
                        progress.reset_window();
                    }
                    return;
                }
            }
        }
        if !self.ctx.handle.try_begin_compile() {
            return;
        }
        // "the thread compiles the worker function and resets all
        // processing rates" — we hand the compile to a background thread
        // (§III: compilation is single-threaded, the other workers keep
        // going) but keep its JoinHandle: `finalize` joins it, so a
        // compile can never outlive the pipeline's bookkeeping.
        self.compiles_started.fetch_add(1, Ordering::Relaxed);
        let installed = Arc::new(AtomicBool::new(false));
        // An earlier switch may still be awaiting its post-switch rate; the
        // current window rate *is* that rate (the window was reset at its
        // install), so harvest the observation before displacing it.
        let displaced = self.pending.lock().replace(PendingSwitch {
            pre_rate: r0,
            pre_level: current,
            level,
            installed: installed.clone(),
        });
        if let Some(p) = displaced {
            self.record_switch_observation(&p, r0);
        }
        let job = CompileJob {
            cancel: self.ctx.cancel.clone(),
            function: self.ctx.function.clone(),
            externs: self.ctx.externs.clone(),
            handle: self.ctx.handle.clone(),
            retained: self.ctx.retained.clone(),
            kernel: self.ctx.kernel.clone(),
            progress: progress.clone(),
            calibrator: self.ctx.calibrator.clone(),
            events: self.ctx.compile_events.clone(),
            counter: self.ctx.background_compiles.clone(),
            exec_start: self.ctx.exec_start,
            pid: self.ctx.pid,
            instrs: self.instrs,
            level,
            installed,
            quarantine: self.ctx.quarantine.clone(),
            degraded: self.degraded.clone(),
        };
        match std::thread::Builder::new()
            .name(format!("aqe-compile-p{}", self.ctx.pid))
            .spawn(move || job.run())
        {
            Ok(handle) => {
                self.compile_threads.lock().push(handle);
                progress.reset_window();
            }
            Err(_) => {
                // Thread exhaustion is a fault like any other: re-open
                // the claim slot and keep running at the current level.
                self.ctx.handle.cancel_compile();
            }
        }
    }

    /// Feed one observed post-switch rate into the calibrator. The window
    /// ratio measures new-level vs claim-time rate; rebase to "over
    /// bytecode" via the level the pipeline ran at when the compile was
    /// claimed.
    fn record_switch_observation(&self, p: &PendingSwitch, post_rate: f64) {
        if p.installed.load(Ordering::Acquire) && p.pre_rate > 0.0 && post_rate > 0.0 {
            let observed = (post_rate / p.pre_rate) * p.pre_level.speedup(&self.model);
            self.ctx.calibrator.record_speedup(p.level, observed);
        }
    }

    /// End of the pipeline run: join every in-flight compile (their trace
    /// events and calibration feedback land before the report is read),
    /// record the observed post-switch rate, and summarise.
    pub fn finalize(self, dispenser: &MorselDispenser) -> PipelineSchedReport {
        let threads: Vec<JoinHandle<()>> = std::mem::take(&mut *self.compile_threads.lock());
        for t in threads {
            let _ = t.join();
        }
        if let Some(p) = self.pending.lock().take() {
            let (tuples, secs) = self.ctx.progress.window();
            if tuples > 0 && secs > 1e-6 {
                let post_rate = tuples as f64 / secs / self.ctx.threads as f64;
                self.record_switch_observation(&p, post_rate);
            }
        }
        PipelineSchedReport {
            pipeline: self.ctx.pid,
            start_level: self.start_level,
            total_rows: self.ctx.total_rows,
            morsels: self.ctx.progress.morsels(),
            steals: dispenser.steals(),
            stolen_tuples: dispenser.stolen_tuples(),
            decisions: self.decisions.load(Ordering::Relaxed),
            compiles_started: self.compiles_started.load(Ordering::Relaxed),
            worker_tuples: (0..self.ctx.progress.worker_count())
                .map(|i| self.ctx.progress.worker(i).tuples())
                .collect(),
            calibrated: self.calibrated,
            degraded: self.degraded.load(Ordering::Relaxed),
            model: self.model,
        }
    }
}

/// The body of one tracked background-compile thread.
struct CompileJob {
    /// The owning execution's cancel token (see [`ControllerCtx::cancel`]):
    /// checked once more on the compile thread before any work happens,
    /// closing the race where the query is cancelled between the
    /// controller's claim and the thread actually starting.
    cancel: CancelToken,
    function: Arc<Function>,
    externs: Arc<Vec<ExternDecl>>,
    handle: Arc<FunctionHandle>,
    retained: Option<Arc<RetainedSlot>>,
    kernel: Option<Arc<ScanKernel>>,
    progress: Arc<PipelineProgress>,
    calibrator: Arc<CostCalibrator>,
    events: Arc<Mutex<Vec<TraceEvent>>>,
    counter: Arc<AtomicUsize>,
    exec_start: Instant,
    pid: usize,
    instrs: usize,
    level: ExecLevel,
    installed: Arc<AtomicBool>,
    /// Records compile success/failure into the per-fingerprint
    /// quarantine so later executions skip a broken tier.
    quarantine: Option<PipelineQuarantine>,
    /// Controller-shared count of contained compile failures.
    degraded: Arc<AtomicU64>,
}

impl CompileJob {
    /// Compile to the claimed level: O0 or O2 machine code, or O2 under
    /// the pipeline's scan kernel. Returns the backend plus its measured
    /// compile wall time.
    fn compile_to_level(&self) -> Result<(Arc<dyn PipelineBackend>, Duration), String> {
        let native = |level| {
            compile_native_at(&self.function, &self.externs, level).map(|nf| {
                let t = nf.stats.compile_time;
                (Arc::new(nf) as Arc<dyn PipelineBackend>, t)
            })
        };
        match self.level {
            ExecLevel::Interpreted => Err("interpretation is not a compile target".to_string()),
            ExecLevel::Unoptimized => native(OptLevel::Unoptimized).map_err(|e| e.to_string()),
            ExecLevel::Native => native(OptLevel::Optimized).map_err(|e| e.to_string()),
            ExecLevel::Simd => {
                aqe_fault::failpoint("simd_compile")?;
                let kernel =
                    self.kernel.clone().ok_or("simd claimed without a scan kernel".to_string())?;
                // The scalar code under the kernel: O2 where the emitter
                // works, the pipeline's current (interpreted) backend
                // otherwise — the kernel only pre-filters, so any scalar
                // backend is a correct inner.
                let (inner, t) = match native(OptLevel::Optimized) {
                    Ok(compiled) => compiled,
                    Err(NativeError::Unavailable(_)) => (self.handle.load(), Duration::ZERO),
                    Err(e) => return Err(e.to_string()),
                };
                Ok((Arc::new(SimdScanBackend::new(inner, kernel)), t))
            }
        }
    }

    fn run(self) {
        // The unified cancel path for compilation: a query cancelled
        // while this thread was being spawned abandons the compile the
        // same way a failed compile does — `cancel_compile` re-opens the
        // handle's claim slot, nothing is published, and the query stops
        // paying for work it will never use.
        if self.cancel.is_cancelled() {
            self.handle.cancel_compile();
            return;
        }
        let t_c0 = self.exec_start.elapsed().as_micros() as u64;
        // The compile runs under `catch_unwind`: a panicking emitter (or
        // an injected `compile_job=panic` fault) is contained on this
        // thread and handled exactly like a failed compile — the claim
        // slot re-opens, the tier is quarantined, the query keeps
        // running at its current level.
        let compiled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            aqe_fault::failpoint("compile_job")?;
            self.compile_to_level()
        }))
        .unwrap_or_else(|_| Err("background compile thread panicked".to_string()));
        match compiled {
            Ok((backend, compile_time)) => {
                let t_c1 = self.exec_start.elapsed().as_micros() as u64;
                self.events.lock().push(TraceEvent {
                    thread: u16::MAX,
                    pipeline: self.pid as u16,
                    kind: 255,
                    start_us: t_c0,
                    end_us: t_c1,
                    tuples: 0,
                });
                // Actual ctime feedback: measured wall time per IR
                // instruction.
                self.calibrator.record_compile(self.level, self.instrs, compile_time);
                // Publish into the handle: all workers switch on their next
                // morsel. Reset the rate window so the post-switch rate is
                // measured at the new level only. The retained slot gets
                // the backend either way — even when this *run* already
                // outranks it, a slower concurrent execution may not.
                if let Some(retained) = &self.retained {
                    retained.install(backend.clone());
                }
                if self.handle.install(backend) {
                    self.counter.fetch_add(1, Ordering::Relaxed);
                    self.installed.store(true, Ordering::Release);
                    self.progress.reset_window();
                }
                // A successful compile clears any quarantine on the tier
                // (this is how a probe recovers it).
                if let Some(q) = &self.quarantine {
                    q.record_success(self.level);
                }
            }
            Err(_) => {
                // Re-open the compile slot: leaving `compiling` set would
                // permanently disable upgrades for this pipeline. The
                // failure degrades, never surfaces: quarantine the tier
                // and count it.
                self.handle.cancel_compile();
                self.degraded.fetch_add(1, Ordering::Relaxed);
                if let Some(q) = &self.quarantine {
                    q.record_failure(self.level);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelKind;

    #[test]
    fn cancelled_compile_job_publishes_nothing_and_reopens_the_slot() {
        use aqe_ir::{FunctionBuilder, Type};
        use aqe_vm::translate::{translate, TranslateOptions};

        let mut b = FunctionBuilder::new("f", &[Type::I64], Some(Type::I64));
        let p = b.param(0);
        b.ret(Some(p.into()));
        let f = b.finish().unwrap();
        let bc = translate(&f, &[], TranslateOptions::default()).unwrap();
        let handle = Arc::new(FunctionHandle::new(Arc::new(bc)));
        let retained = Arc::new(RetainedSlot::new());
        assert!(handle.try_begin_compile());

        let cancel = CancelToken::new();
        cancel.cancel(CancelKind::Client);
        let job = CompileJob {
            cancel,
            function: Arc::new(f),
            externs: Arc::new(Vec::new()),
            handle: handle.clone(),
            retained: Some(retained.clone()),
            kernel: None,
            progress: Arc::new(PipelineProgress::new(1)),
            calibrator: Arc::new(CostCalibrator::new(CostModel::default())),
            events: Arc::new(Mutex::new(Vec::new())),
            counter: Arc::new(AtomicUsize::new(0)),
            exec_start: Instant::now(),
            pid: 0,
            instrs: 2,
            level: ExecLevel::Native,
            installed: Arc::new(AtomicBool::new(false)),
            quarantine: None,
            degraded: Arc::new(AtomicU64::new(0)),
        };
        job.run();
        // Nothing published anywhere — the query stopped paying — and the
        // compile claim is re-opened (same discipline as a failed compile).
        assert_eq!(handle.kind(), ExecMode::Bytecode);
        assert_eq!(retained.rank(), 0, "a cancelled compile must not warm the retained slot");
        assert!(handle.try_begin_compile(), "cancelled job must re-open the compile slot");
    }

    #[test]
    fn exec_level_classifies_ranks() {
        assert_eq!(ExecLevel::from_rank(ExecMode::NaiveIr.rank()), ExecLevel::Interpreted);
        assert_eq!(ExecLevel::from_rank(ExecMode::Bytecode.rank()), ExecLevel::Interpreted);
        assert_eq!(ExecLevel::from_rank(ExecMode::Unoptimized.rank()), ExecLevel::Unoptimized);
        assert_eq!(ExecLevel::from_rank(ExecMode::Optimized.rank()), ExecLevel::Native);
        assert_eq!(ExecLevel::from_rank(ExecMode::Native.rank()), ExecLevel::Native);
        assert_eq!(ExecLevel::from_rank(ExecMode::Simd.rank()), ExecLevel::Simd);
        for level in [ExecLevel::Interpreted].into_iter().chain(ExecLevel::COMPILED) {
            assert_eq!(ExecLevel::from_rank(level.rank()), level);
        }
        assert!(ExecLevel::Interpreted < ExecLevel::Unoptimized);
        assert!(ExecLevel::Unoptimized < ExecLevel::Native);
        assert!(ExecLevel::Native < ExecLevel::Simd);
    }

    #[test]
    fn available_levels_follow_the_gates() {
        use ExecLevel::*;
        assert_eq!(ExecLevel::available(true, true), vec![Unoptimized, Native, Simd]);
        assert_eq!(ExecLevel::available(true, false), vec![Unoptimized, Native]);
        // SIMD kernels over bytecode: the only rung without an emitter.
        assert_eq!(ExecLevel::available(false, true), vec![Simd]);
        assert!(ExecLevel::available(false, false).is_empty());
    }

    const NATIVE_LEVELS: [ExecLevel; 2] = [ExecLevel::Unoptimized, ExecLevel::Native];

    #[test]
    fn extrapolation_prefers_interpretation_for_tiny_work() {
        let m = CostModel::default();
        // 1k remaining tuples at 1M tuples/s: finishes in 1ms — never worth
        // hundreds of µs of compilation.
        let c = extrapolate_pipeline_durations(
            &m,
            5000,
            1e3,
            4.0,
            1e6,
            ExecLevel::Interpreted,
            &NATIVE_LEVELS,
        );
        assert_eq!(c, None);
    }

    #[test]
    fn extrapolation_compiles_for_large_work() {
        let m = CostModel::default();
        // 100M tuples at 10M tuples/s/thread: worth compiling.
        let c = extrapolate_pipeline_durations(
            &m,
            5000,
            1e8,
            4.0,
            1e7,
            ExecLevel::Interpreted,
            &NATIVE_LEVELS,
        );
        assert_ne!(c, None);
    }

    #[test]
    fn extrapolation_upgrades_from_unopt_to_opt() {
        let m = CostModel::default();
        // Already running O0 code; for huge remaining work O2 should
        // still win — and O0 must never be re-proposed.
        let c = extrapolate_pipeline_durations(
            &m,
            2000,
            1e9,
            4.0,
            2e7,
            ExecLevel::Unoptimized,
            &NATIVE_LEVELS,
        );
        assert_eq!(c, Some(ExecLevel::Native));
    }

    #[test]
    fn extrapolation_never_downgrades_from_optimized() {
        let m = CostModel::default();
        let c = extrapolate_pipeline_durations(
            &m,
            2000,
            1e9,
            4.0,
            2e7,
            ExecLevel::Native,
            &NATIVE_LEVELS,
        );
        assert_eq!(c, None);
    }

    #[test]
    fn extrapolation_reaches_native_for_huge_work() {
        let m = CostModel::default();
        // Enormous remaining work: O2's higher compile cost amortizes and
        // its higher speedup wins outright.
        let c = extrapolate_pipeline_durations(
            &m,
            2000,
            1e9,
            4.0,
            2e7,
            ExecLevel::Interpreted,
            &NATIVE_LEVELS,
        );
        assert_eq!(c, Some(ExecLevel::Native));
    }

    #[test]
    fn ceiling_caps_the_choice_below_native() {
        let m = CostModel::default();
        // Only available levels are proposed: without the emitter nothing
        // but the SIMD rung can be compiled.
        for levels in [&[][..], &[ExecLevel::Simd][..]] {
            let c = extrapolate_pipeline_durations(
                &m,
                2000,
                1e9,
                4.0,
                2e7,
                ExecLevel::Interpreted,
                levels,
            );
            assert!(matches!(c, None | Some(ExecLevel::Simd)), "{c:?}");
        }
        let c = extrapolate_pipeline_durations(
            &m,
            2000,
            1e9,
            4.0,
            2e7,
            ExecLevel::Interpreted,
            &[ExecLevel::Unoptimized],
        );
        assert_eq!(c, Some(ExecLevel::Unoptimized), "O0 alone must not be capped further");
    }
}
