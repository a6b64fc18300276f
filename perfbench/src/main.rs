//! The benchmark binary. Usage:
//!
//! ```text
//! aqe-perfbench --workload <adhoc-cold|warm-exec|served-mixed> --seed <n>
//!               --seconds <s> --trace <0|1> [--out <file>]
//! ```
//!
//! Prints progress notes and the host fingerprint, then, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. `--out` also writes the result
//! together with the host fingerprint, for `run.py compare`.

use aqe_perfbench::host::Fingerprint;
use aqe_perfbench::{adhoc, json, served, warm, Metric, Outcome, RunConfig, END_TO_END, PER_LAYER};
use std::process::ExitCode;

struct Args {
    workload: String,
    cfg: RunConfig,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => trace = Some(value == "1"),
            "--out" => out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        cfg: RunConfig { seed: seed.unwrap_or(1), seconds, trace: trace.unwrap_or(false) },
        out,
    })
}

/// The reported metrics, in table order with the table's units.
fn select(outcome: &Outcome, trace: bool) -> Result<Vec<Metric>, String> {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for m in &outcome.metrics {
        match table.iter().find(|(n, _)| *n == m.name) {
            Some((_, unit)) if *unit == m.unit => {}
            Some((_, unit)) => return Err(format!("{}: unit {} != {unit}", m.name, m.unit)),
            None => return Err(format!("{} is not a declared metric", m.name)),
        }
    }
    table
        .iter()
        .map(|&(name, unit)| {
            let value = outcome.metrics.iter().find(|m| m.name == name).map(|m| m.value);
            match (value, trace) {
                (Some(v), _) => Ok(Metric { name: name.into(), value: v, unit }),
                (None, true) => Ok(Metric { name: name.into(), value: 0.0, unit }),
                (None, false) => Err(format!("end-to-end metric {name} missing")),
            }
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("aqe-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "adhoc-cold" => adhoc::run(&args.cfg),
        "warm-exec" => warm::run(&args.cfg),
        "served-mixed" => served::run(&args.cfg),
        w => Err(format!("unknown workload {w}")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("aqe-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let metrics = match select(&outcome, args.cfg.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("aqe-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for n in &outcome.notes {
        println!("# {n}");
    }
    let host = Fingerprint::current().to_json();
    println!("# host {host}");
    let line =
        json::result_line(outcome.correct(), outcome.attempted.max(1), outcome.failed, &metrics);
    if let Some(path) = &args.out {
        let record = format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {host}, \"result\": {line}}}\n",
            json::string(&args.workload),
            args.cfg.seed,
            json::num(args.cfg.seconds),
            args.cfg.trace,
        );
        if let Err(e) = std::fs::write(path, record) {
            eprintln!("aqe-perfbench: --out {path}: {e}");
            return ExitCode::from(1);
        }
    }
    println!("{line}");
    ExitCode::SUCCESS
}
