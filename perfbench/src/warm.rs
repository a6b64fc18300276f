//! `warm-exec`: execution only. One client, closed loop, over the 22
//! TPC-H queries, a wide aggregation and the parameterized Q6 at SF 0.1,
//! each prepared once per engine instance and warmed before timing
//! (adaptive mode, result cache off). The timed path must do no codegen and no bytecode
//! translation; every report is checked for that.

use crate::closed::{drive, instances, push_layers};
use crate::corpus::{self, Entry, Oracle};
use crate::loadgen::closed_loop;
use crate::stats::median;
use crate::{Outcome, RunConfig, THREADS};
use aqe_engine::exec::ExecOptions;
use aqe_engine::session::{Engine, PreparedQuery};
use aqe_storage::Catalog;

const SF: f64 = 0.1;

/// Bind values of the parameterized Q6 (cents of `l_quantity`).
pub const Q6_RANGE: (i64, i64) = (2000, 3000);

/// An entry is warm once this many executions in a row compiled nothing
/// (the adaptive controller has settled on its tiers) ...
const SETTLED_RUNS: usize = 2;
/// ... or after this many warm-up executions.
const MAX_WARMUPS: usize = 8;

fn options() -> ExecOptions {
    ExecOptions { threads: THREADS, cache_results: false, ..Default::default() }
}

fn setup() -> Result<(Catalog, Engine, Vec<Entry>, Vec<PreparedQuery>), String> {
    let cat = aqe_storage::tpch::generate(SF);
    let engine = Engine::with_defaults(cat.clone(), options());
    let entries = corpus::warm(&cat);
    let session = engine.session();
    let mut prepared = Vec::new();
    for e in &entries {
        let p = e.prepare(&session)?;
        let param = e.takes_param().then_some(Q6_RANGE.0);
        let mut quiet = 0;
        for _ in 0..MAX_WARMUPS {
            let (_, r) = e.execute(&session, &p, param, &options())?;
            quiet = if r.background_compiles == 0 && r.upfront_compile.is_zero() {
                quiet + 1
            } else {
                0
            };
            if quiet == SETTLED_RUNS {
                break;
            }
        }
        prepared.push(p);
    }
    Ok((cat, engine, entries, prepared))
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let opts = options();
    let traced_opts = ExecOptions { trace: true, ..options() };
    let mut oracles: Option<Vec<Oracle>> = None;
    let run = instances(
        cfg,
        setup,
        |(_, engine, _, _)| engine,
        |(cat, engine, entries, prepared), seed, seconds| {
            if oracles.is_none() {
                let o =
                    entries.iter().map(|e| e.oracle(cat, Q6_RANGE)).collect::<Result<_, _>>()?;
                oracles = Some(o);
            }
            let param_entry = entries.iter().position(Entry::takes_param);
            let session = engine.session();
            Ok(drive(
                oracles.as_deref().expect("computed above"),
                closed_loop(seed, entries.len(), param_entry, Q6_RANGE),
                seconds,
                cfg.trace,
                |i, param, traced| {
                    let opts = if traced { &traced_opts } else { &opts };
                    entries[i].execute(&session, &prepared[i], param, opts)
                },
                |r| {
                    (r.cold_build || !r.codegen.is_zero() || !r.bc_translate.is_zero()).then(|| {
                        format!(
                            "warm path built code: codegen {:?}, translate {:?}",
                            r.codegen, r.bc_translate
                        )
                    })
                },
            ))
        },
    )?;
    let oracles = oracles.expect("INSTANCES > 0");
    let (cat, engine, entries, prepared) = &run.last;
    run.res.summarize(entries.len(), &mut out, cfg.trace);
    if cfg.trace {
        push_layers(&mut out, &run, cat, engine, entries, &oracles, prepared, Q6_RANGE.0, 1)?;
    } else {
        out.push("setup_s", median(&run.setups), "s");
        out.push("rss_mb", median(&run.rss_mb), "MiB");
    }
    Ok(out)
}
