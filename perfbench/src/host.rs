//! The host fingerprint recorded with every result. Results whose
//! fingerprints differ are not comparable (`run.py compare` refuses them).

use crate::json::string;
use crate::stats::{quantile, sorted};
use crate::THREADS;
use aqe_bench::ms;
use std::time::Instant;

pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub native: bool,
    pub simd: bool,
    /// `AQE_*` environment variables, sorted.
    pub env: Vec<(String, String)>,
}

impl Fingerprint {
    pub fn current() -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, m)| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let mut env: Vec<(String, String)> =
            std::env::vars().filter(|(k, _)| k.starts_with("AQE_")).collect();
        env.sort();
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            native: aqe_jit::native::enabled(),
            simd: aqe_engine::simd::enabled(),
            env,
        }
    }

    pub fn to_json(&self) -> String {
        let env: Vec<String> =
            self.env.iter().map(|(k, v)| format!("{}: {}", string(k), string(v))).collect();
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"native\": {}, \"simd\": {}, \"env\": {{{}}}}}",
            self.nproc,
            string(&self.cpu_model),
            self.native,
            self.simd,
            env.join(", ")
        )
    }
}

/// Time of one [`SpeedProbe`] kernel run on the reference host, in ms:
/// about the median over the runs made on a 2-vCPU Xeon virtual machine
/// while the benchmark was tuned. The closed loops' `latency_ms` and
/// `throughput_qps` are in that host's units.
pub const REFERENCE_KERNEL_MS: f64 = 1.4;

/// A fixed CPU and memory kernel, timed between a workload's operations
/// to measure how fast the host runs at the time. On a virtual machine
/// that shares its host, neighbours' load changes the speed of the same
/// code by tens of per cent from one minute to the next; dividing a
/// closed-loop run's timings by its kernel time takes that drift out,
/// while changes to the engine, which the kernel does not run, stay in. The kernel runs on [`THREADS`] threads at once, as the
/// engine's executions do, so that it feels contention for both CPUs.
pub struct SpeedProbe {
    data: Vec<u64>,
    /// Every kernel time taken, in ms.
    pub samples: Vec<f64>,
}

impl Default for SpeedProbe {
    fn default() -> SpeedProbe {
        // 4 MiB: larger than a core's private caches, like a column, and
        // long enough (about a millisecond) that starting the threads
        // is a small part of the time.
        let data = (0..1u64 << 19).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        SpeedProbe { data, samples: Vec::new() }
    }
}

impl SpeedProbe {
    /// Time the kernel `reps` times.
    pub fn sample(&mut self, reps: usize) {
        for _ in 0..reps {
            let t = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    s.spawn(|| {
                        let mut acc = 0u64;
                        for &x in std::hint::black_box(&self.data) {
                            acc = (acc ^ x).wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(17);
                        }
                        std::hint::black_box(acc);
                    });
                }
            });
            self.samples.push(ms(t.elapsed()));
        }
    }
}

/// The kernel time of a run: the same low quantile its latency figures
/// take, so that both come from the host's quiet moments.
pub fn kernel_ms(samples: &[f64], q: f64) -> f64 {
    quantile(&sorted(samples.to_vec()), q)
}
