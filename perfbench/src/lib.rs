//! Corpus-wide, layer-by-layer benchmark of the adaptive query engine.
//!
//! Three workloads, each driven by a seeded load generator ([`loadgen`]):
//!
//! * `adhoc-cold` ([`adhoc`]) — closed loop over the whole query corpus
//!   at SF 0.01, every draw freshly prepared: the compile-dominated
//!   small-data regime;
//! * `warm-exec` ([`warm`]) — closed loop over prepared, warmed TPC-H
//!   queries at SF 0.1: execution only, no codegen or translation on the
//!   timed path;
//! * `served-mixed` ([`served`]) — open loop against the front-door server
//!   with result-cache hits, warm misses and catalog writes.
//!
//! Every timed result is compared against rows computed at setup by an
//! independent oracle ([`oracle`]). A traced run (`--trace 1`) adds the
//! per-layer probes of [`layers`]. The binary prints one JSON object as its
//! last line of output (see `main.rs`).

pub mod adhoc;
pub mod closed;
pub mod corpus;
pub mod host;
pub mod json;
pub mod layers;
pub mod loadgen;
pub mod oracle;
pub mod rng;
pub mod served;
pub mod stats;
pub mod warm;

use std::time::Duration;

/// One metric of a run: name, value, unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted on the timed path (queries and writes).
    pub attempted: u64,
    /// Operations that did not yield correct rows: engine errors, shed or
    /// backpressure replies, deadline misses, client errors, wrong rows.
    pub failed: u64,
    /// Timed results that disagreed with the oracle (a subset of `failed`).
    pub wrong: u64,
    /// Violations of a workload invariant (e.g. codegen on the warm path).
    pub violations: u64,
    /// Operations that failed with an error (a subset of `failed`): any
    /// failure in a closed loop; in the open loop, any but a request
    /// refused or dropped under load. A failed operation leaves no latency
    /// sample, so without this a query that stopped working would drop
    /// out of the latency metrics (and a slow one would read as a
    /// speed-up).
    pub errors: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Every result matched the oracle, no invariant broke and nothing
    /// failed that may not.
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.violations == 0 && self.errors == 0
    }

    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_string(), value, unit });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Options shared by every workload.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Engine worker threads per execution (the host has two CPUs).
pub const THREADS: usize = 2;

/// End-to-end metrics (every untraced run reports each), as declared in
/// `BENCHMARK.json`. `latency_ms` is the geometric mean over the
/// workload's queries (closed loops) or statements (served) of a latency
/// quantile: in closed loops each query's p10, scaled to the reference
/// host's speed by the run's [`host::SpeedProbe`] kernel time; served,
/// the median over server instances of each statement's p50, unscaled.
/// `throughput_qps` is completions per second: in closed loops the 90th
/// percentile over passes through the corpus, scaled likewise; served,
/// the goodput at the nominal rate. `setup_s` is the median set-up and
/// `rss_mb` the median resident set (see [`rss_mb`]).
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("latency_ms", "ms"), ("throughput_qps", "1/s"), ("rss_mb", "MiB")];

/// Per-layer metrics (every traced run reports each; a layer the
/// workload's timed path does not pass through, or cannot observe,
/// reports 0). The latency medians and tail ride here rather than among
/// the end-to-end metrics: on a two-vCPU virtual machine they move with
/// the host's CPU steal by more than any useful regression bound.
pub const PER_LAYER: [(&str, &str); 66] = [
    ("peak_rss_mb", "MiB"),
    ("raw_latency_ms", "ms"),
    ("raw_throughput_qps", "1/s"),
    ("host.kernel_ms", "ms"),
    ("geomean_ms", "ms"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("sql.plan_us", "us"),
    ("plan.decompose_us", "us"),
    ("codegen.us", "us"),
    ("codegen.ir_instrs", "count"),
    ("translate.us", "us"),
    ("translate.bc_instrs", "count"),
    ("jit.compile_ms.unoptimized", "ms"),
    ("jit.compile_ms.optimized", "ms"),
    ("jit.compile_ms.native", "ms"),
    ("jit.code_bytes", "bytes"),
    ("path.codegen_ms", "ms"),
    ("path.translate_ms", "ms"),
    ("path.compile_ms", "ms"),
    ("tier.bytecode.compile_ms", "ms"),
    ("tier.bytecode.exec_geomean_ms", "ms"),
    ("tier.unoptimized.compile_ms", "ms"),
    ("tier.unoptimized.exec_geomean_ms", "ms"),
    ("tier.optimized.compile_ms", "ms"),
    ("tier.optimized.exec_geomean_ms", "ms"),
    ("tier.native.compile_ms", "ms"),
    ("tier.native.exec_geomean_ms", "ms"),
    ("tier.simd.compile_ms", "ms"),
    ("tier.simd.exec_geomean_ms", "ms"),
    ("sched.decisions", "count"),
    ("sched.compiles_started", "count"),
    ("sched.background_compiles", "count"),
    ("sched.compile_useful_frac", "fraction"),
    ("sched.morsels", "count"),
    ("sched.steals", "count"),
    ("sched.worker_imbalance", "ratio"),
    ("sched.speedup_2t_over_1t", "ratio"),
    ("exec.bytecode_busy_ms", "ms"),
    ("exec.bytecode_tuples", "count"),
    ("exec.unoptimized_busy_ms", "ms"),
    ("exec.unoptimized_tuples", "count"),
    ("exec.optimized_busy_ms", "ms"),
    ("exec.optimized_tuples", "count"),
    ("exec.native_busy_ms", "ms"),
    ("exec.native_tuples", "count"),
    ("exec.simd_busy_ms", "ms"),
    ("exec.simd_tuples", "count"),
    ("exec.ns_per_tuple", "ns"),
    ("exec.q1_over_floor", "ratio"),
    ("exec.scan_over_floor", "ratio"),
    ("session.result_cache_hit_frac", "fraction"),
    ("session.cold_builds", "count"),
    ("session.snapshot_swaps", "count"),
    ("session.cache_evictions", "count"),
    ("server.frame_encode_us", "us"),
    ("server.frame_decode_us", "us"),
    ("server.overhead_ms", "ms"),
    ("server.shed", "count"),
    ("server.queued_peak", "count"),
    ("server.capacity_qps", "1/s"),
    ("max_qps_at_slo", "1/s"),
    ("instances.latched_frac", "fraction"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
];

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// The process's resident set in MiB (`VmRSS`). `rss_mb` is its median
/// over a run's instances, each taken at the end of the instance's timed
/// share: unlike the high-water mark, which ratchets up with whatever
/// memory the allocator kept from the instances before, it reads the
/// same from run to run.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

fn status_mb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
