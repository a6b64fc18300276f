//! The closed-loop runner shared by `adhoc-cold` and `warm-exec`: one
//! client runs the generated operations back to back, times each from
//! the start of its preparation (or execution) to its rows, and checks
//! every result against the oracle.
//!
//! The end-to-end figures are low quantiles of the run's samples rather
//! than medians, scaled to the reference host's speed. On a virtual
//! machine that shares its host, CPU steal and neighbours' cache and
//! memory traffic come in bursts that slow every operation they overlap,
//! for seconds at a time; a run's median moves with how much of it a
//! burst covered, while its fast samples still come from quiet moments.
//! Slower drift, over minutes, is measured by a fixed kernel timed
//! before every pass ([`SpeedProbe`]) and divided out. The raw figures,
//! medians and the tail stay available as per-layer figures.

use crate::corpus::{Entry, Oracle, Source};
use crate::host::{kernel_ms, SpeedProbe, REFERENCE_KERNEL_MS};
use crate::layers::{self, Counters};
use crate::loadgen::instance_seed;
use crate::loadgen::Op;
use crate::stats::{geomean_of_quantiles, latched_frac, median, quantile, sorted};
use crate::{peak_rss_mb, rss_mb, Outcome, RunConfig};
use aqe_bench::ms;
use aqe_engine::exec::{Report, ResultRows};
use aqe_engine::session::{Engine, PreparedQuery};
use aqe_storage::Catalog;
use std::time::Instant;

/// Fresh engine instances per run, set up and driven one after another,
/// each for an equal share of the run. `setup_s` is the median set-up;
/// the latency figures pool every instance's samples. The adaptive
/// engine's tier choices depend on timings it takes while it warms up,
/// so each instance's choices are a draw, and pooling keeps one draw
/// from deciding a run.
pub const INSTANCES: u64 = 3;

/// Each query's latency quantile that `latency_ms` takes.
pub const QUERY_QUANTILE: f64 = 0.10;
/// The quantile of per-pass throughput that `throughput_qps` reports.
pub const PASS_QUANTILE: f64 = 0.90;
/// Speed-probe kernel runs before every pass.
const PROBE_REPS: usize = 3;

/// One timed operation.
#[derive(Clone, Copy, Debug)]
pub struct OpRecord {
    pub entry: usize,
    /// Which pass over the corpus it belongs to (the closed loop draws
    /// whole permutations, so a pass runs every entry once).
    pub pass: usize,
    /// When it started, in seconds since the loop started.
    pub at_s: f64,
    pub ms: f64,
    /// Ran with `ExecOptions::trace` on (traced runs alternate).
    pub traced: bool,
    /// Produced the oracle's rows.
    pub ok: bool,
    /// Built compiled state (codegen + translation) on the timed path.
    pub cold_build: bool,
}

#[derive(Default)]
pub struct LoopResult {
    pub records: Vec<OpRecord>,
    /// Reports of the traced operations.
    pub reports: Vec<Report>,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub violations: u64,
    /// Operations that returned an error (a subset of `failed`).
    pub errors: u64,
    pub elapsed_s: f64,
    /// Speed-probe kernel times taken between passes, in ms.
    pub kernel_ms: Vec<f64>,
    /// The first few failures, for the log.
    pub messages: Vec<String>,
}

impl LoopResult {
    /// Add a later instance's loop, keeping its passes apart.
    pub fn append(&mut self, other: LoopResult) {
        let offset = self.records.last().map_or(0, |r| r.pass + 1);
        self.records
            .extend(other.records.into_iter().map(|r| OpRecord { pass: r.pass + offset, ..r }));
        self.reports.extend(other.reports);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.violations += other.violations;
        self.errors += other.errors;
        self.elapsed_s += other.elapsed_s;
        self.kernel_ms.extend(other.kernel_ms);
        for m in other.messages {
            self.error(m);
        }
    }

    fn error(&mut self, e: String) {
        if self.messages.len() < 5 {
            self.messages.push(e);
        }
    }

    /// Per-entry latency samples, optionally restricted to traced or
    /// untraced operations.
    pub fn per_entry(&self, entries: usize, traced: Option<bool>) -> Vec<Vec<f64>> {
        let mut out = vec![Vec::new(); entries];
        for r in self.records.iter().filter(|r| r.ok && traced.is_none_or(|t| r.traced == t)) {
            out[r.entry].push(r.ms);
        }
        out
    }

    /// Count the loop into `out` and add the closed-loop latency metrics:
    /// the end-to-end ones untraced; medians and the tail (over the
    /// untraced half of the operations) when traced.
    pub fn summarize(&self, entries: usize, out: &mut Outcome, trace: bool) {
        out.attempted += self.attempted;
        out.failed += self.failed;
        out.wrong += self.wrong;
        out.violations += self.violations;
        out.errors += self.errors;
        for e in &self.messages {
            out.note(format!("error: {e}"));
        }
        out.note(format!(
            "timed ops {} in {:.2} s, failed {}, wrong {}, errors {}, violations {}",
            self.attempted, self.elapsed_s, self.failed, self.wrong, self.errors, self.violations
        ));
        // An entry without a correct sample would silently drop out of
        // the geomeans; that fails the run instead.
        let per_entry = self.per_entry(entries, None);
        for (i, _) in per_entry.iter().enumerate().filter(|(_, g)| g.is_empty()) {
            out.violations += 1;
            out.note(format!("error: entry {i} has no correct timed result"));
        }
        let lat = |traced: bool| {
            sorted(
                self.records.iter().filter(|r| r.ok && r.traced == traced).map(|r| r.ms).collect(),
            )
        };
        let kernel = kernel_ms(&self.kernel_ms, QUERY_QUANTILE);
        let scale = REFERENCE_KERNEL_MS / kernel;
        let passes = sorted(self.pass_throughput(entries));
        if trace {
            let untraced = lat(false);
            let per_entry = self.per_entry(entries, Some(false));
            out.push("raw_latency_ms", geomean_of_quantiles(&per_entry, QUERY_QUANTILE), "ms");
            out.push("raw_throughput_qps", quantile(&passes, PASS_QUANTILE), "1/s");
            out.push("host.kernel_ms", kernel, "ms");
            out.push("geomean_ms", geomean_of_quantiles(&per_entry, 0.5), "ms");
            out.push("latency_p50_ms", quantile(&untraced, 0.50), "ms");
            out.push("latency_p95_ms", quantile(&untraced, 0.95), "ms");
            out.push("latency_p99_ms", quantile(&untraced, 0.99), "ms");
        } else {
            let p10 = geomean_of_quantiles(&per_entry, QUERY_QUANTILE);
            let qps = quantile(&passes, PASS_QUANTILE);
            out.push("latency_ms", p10 * scale, "ms");
            out.push("throughput_qps", qps / scale, "1/s");
            out.note(format!(
                "{} passes; per query {} samples or more; geomean p10 {p10:.3} ms, \
                 throughput {qps:.1}/s, kernel {kernel:.4} ms",
                passes.len(),
                per_entry.iter().map(Vec::len).min().unwrap_or(0)
            ));
        }
    }

    /// Completions per second of each pass over the corpus that ran
    /// every entry, from the start of its first operation to the end of
    /// its last.
    pub fn pass_throughput(&self, entries: usize) -> Vec<f64> {
        self.records
            .chunk_by(|a, b| a.pass == b.pass)
            .filter(|pass| pass.len() == entries)
            .map(|pass| {
                let (first, last) = (&pass[0], &pass[entries - 1]);
                entries as f64 / (last.at_s + last.ms / 1e3 - first.at_s)
            })
            .collect()
    }
}

/// A closed-loop run over [`INSTANCES`] instances.
pub struct Instances<S> {
    /// The last instance, still live (the traced run probes it).
    pub last: S,
    /// Each instance's set-up time in seconds.
    pub setups: Vec<f64>,
    pub res: LoopResult,
    /// Session counters before and after each instance's share.
    pub spans: Vec<(Counters, Counters)>,
    /// Each instance's median latency over its correct operations.
    pub typical_ms: Vec<f64>,
    /// The resident set at the end of each instance's share, in MiB.
    pub rss_mb: Vec<f64>,
}

/// Set up each of [`INSTANCES`] instances with `setup` (timed; the one
/// before is dropped first) and drive it with `segment(instance, seed,
/// seconds)`; `engine` names an instance's engine.
pub fn instances<S>(
    cfg: &RunConfig,
    mut setup: impl FnMut() -> Result<S, String>,
    engine: impl Fn(&S) -> &Engine,
    mut segment: impl FnMut(&S, u64, f64) -> Result<LoopResult, String>,
) -> Result<Instances<S>, String> {
    let (mut last, mut setups, mut res, mut spans, mut typical_ms, mut rss) =
        (None, Vec::new(), LoopResult::default(), Vec::new(), Vec::new(), Vec::new());
    for k in 0..INSTANCES {
        drop(last.take());
        let t = Instant::now();
        let s = setup()?;
        setups.push(t.elapsed().as_secs_f64());
        let before = layers::counters(engine(&s));
        let seg = segment(&s, instance_seed(cfg.seed, k), cfg.seconds / INSTANCES as f64)?;
        spans.push((before, layers::counters(engine(&s))));
        rss.push(rss_mb());
        typical_ms
            .push(median(&seg.records.iter().filter(|r| r.ok).map(|r| r.ms).collect::<Vec<_>>()));
        res.append(seg);
        last = Some(s);
    }
    Ok(Instances {
        last: last.expect("INSTANCES > 0"),
        setups,
        res,
        spans,
        typical_ms,
        rss_mb: rss,
    })
}

/// Run `ops` for `seconds`. `exec(entry, param, traced)` performs one
/// operation; `check(report)` names a workload invariant the report
/// breaks, if any. With `trace`, every other operation runs traced.
pub fn drive(
    oracles: &[Oracle],
    ops: impl Iterator<Item = Op>,
    seconds: f64,
    trace: bool,
    mut exec: impl FnMut(usize, Option<i64>, bool) -> Result<(ResultRows, Report), String>,
    check: impl Fn(&Report) -> Option<String>,
) -> LoopResult {
    let mut res = LoopResult::default();
    let mut probe = SpeedProbe::default();
    let n = oracles.len().max(1);
    let start = Instant::now();
    for (i, op) in ops.enumerate() {
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        if i % n == 0 {
            probe.sample(PROBE_REPS);
        }
        let Op::Query { entry, param } = op else { continue };
        let traced = trace && i % 2 == 1;
        res.attempted += 1;
        let at_s = start.elapsed().as_secs_f64();
        let t = Instant::now();
        let outcome = exec(entry, param, traced);
        let elapsed = ms(t.elapsed());
        let (rows, report) = match outcome {
            Ok(x) => x,
            Err(e) => {
                res.failed += 1;
                res.errors += 1;
                res.error(format!("entry {entry} param {param:?}: {e}"));
                continue;
            }
        };
        let ok = oracles[entry].expected(param).is_some_and(|want| want.matches(&rows.rows));
        if !ok {
            res.failed += 1;
            res.wrong += 1;
            res.error(format!("entry {entry} param {param:?}: rows differ from the oracle"));
        }
        if let Some(v) = check(&report) {
            res.violations += 1;
            res.error(format!("entry {entry}: {v}"));
        }
        res.records.push(OpRecord {
            entry,
            pass: i / n,
            at_s,
            ms: elapsed,
            traced,
            ok,
            cold_build: report.cold_build,
        });
        if traced {
            res.reports.push(report);
        }
    }
    res.elapsed_s = start.elapsed().as_secs_f64();
    res.kernel_ms = probe.samples;
    res
}

/// The per-layer metrics of a traced closed-loop run: session counters
/// over every instance's share, the share of latched instances, build layers weighted by what the timed operations
/// built, scheduler and tier metrics from the traced reports, the Fig. 2
/// tier sweep, the thread sweep over `prepared`, the floors, and the
/// tracing overhead. `param` binds parameterized entries in the sweeps;
/// `reps` is how often each module's build layers are timed.
#[allow(clippy::too_many_arguments)]
pub fn push_layers<S>(
    out: &mut Outcome,
    run: &Instances<S>,
    cat: &Catalog,
    engine: &Engine,
    entries: &[Entry],
    oracles: &[Oracle],
    prepared: &[PreparedQuery],
    param: i64,
    reps: usize,
) -> Result<(), String> {
    let res = &run.res;
    out.push("peak_rss_mb", peak_rss_mb(), "MiB");
    layers::push_session_layers(out, &run.spans);
    out.push("instances.latched_frac", latched_frac(&run.typical_ms), "fraction");
    let n = entries.len();
    let (mut planned, mut built, mut drawn) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    for r in &res.records {
        drawn[r.entry] += 1.0;
        if r.cold_build {
            built[r.entry] += 1.0;
            if matches!(entries[r.entry].source, Source::Sql(_)) {
                planned[r.entry] += 1.0;
            }
        }
    }
    let costs: Vec<_> =
        entries.iter().map(|e| layers::module_cost(cat, e, reps)).collect::<Result<_, _>>()?;
    layers::push_build_layers(out, &costs, &planned, &built, &drawn);
    layers::push_report_layers(out, &res.reports);
    let check = |i: usize, p: Option<i64>, rows: &[u64]| {
        oracles[i].expected(p).is_some_and(|want| want.matches(rows))
    };
    layers::tier_sweep(engine, entries, param, &check, out)?;
    let speedup = layers::thread_speedup(engine, entries, prepared, param)?;
    out.push("sched.speedup_2t_over_1t", speedup, "ratio");
    layers::floors(cat, out)?;
    let overhead =
        layers::trace_overhead(&res.per_entry(n, Some(true)), &res.per_entry(n, Some(false)));
    out.push("trace.overhead_frac", overhead, "fraction");
    Ok(())
}
