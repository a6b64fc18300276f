//! `adhoc-cold`: the paper's small-data ad-hoc regime. One client, closed
//! loop, over the full corpus at SF 0.01; every draw is prepared afresh
//! on a long-lived engine (adaptive mode, result cache off; one engine
//! per [`INSTANCES`](crate::closed::INSTANCES) share of the run), so SQL
//! planning, decomposition, codegen, bytecode translation and the
//! adaptive controller's compiles are on the timed path.

use crate::closed::{drive, instances, push_layers};
use crate::corpus::{self, Entry, Oracle};
use crate::loadgen::closed_loop;
use crate::stats::median;
use crate::{Outcome, RunConfig, THREADS};
use aqe_engine::exec::ExecOptions;
use aqe_engine::session::Engine;
use aqe_storage::Catalog;

const SF: f64 = 0.01;

fn options() -> ExecOptions {
    ExecOptions { threads: THREADS, cache_results: false, ..Default::default() }
}

/// Data generation, engine start-up, and one warm-up pass over the
/// corpus (which also seeds the engine's calibration store).
fn setup() -> Result<(Catalog, Engine, Vec<Entry>), String> {
    let cat = corpus::tpch_tpcds(SF);
    let engine = Engine::with_defaults(cat.clone(), options());
    let entries = corpus::adhoc(&cat);
    let session = engine.session();
    for e in &entries {
        let p = e.prepare(&session)?;
        e.execute(&session, &p, None, &options())?;
    }
    Ok((cat, engine, entries))
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let opts = options();
    let traced_opts = ExecOptions { trace: true, ..options() };
    let mut oracles: Option<Vec<Oracle>> = None;
    let run = instances(
        cfg,
        setup,
        |(_, engine, _)| engine,
        |(cat, engine, entries), seed, seconds| {
            if oracles.is_none() {
                let o = entries.iter().map(|e| e.oracle(cat, (0, 1))).collect::<Result<_, _>>()?;
                oracles = Some(o);
            }
            let session = engine.session();
            Ok(drive(
                oracles.as_deref().expect("computed above"),
                closed_loop(seed, entries.len(), None, (0, 1)),
                seconds,
                cfg.trace,
                |i, param, traced| {
                    let e = &entries[i];
                    let p = e.prepare(&session)?;
                    e.execute(&session, &p, param, if traced { &traced_opts } else { &opts })
                },
                |r| (!r.cold_build).then(|| "a fresh preparation ran warm".to_string()),
            ))
        },
    )?;
    let oracles = oracles.expect("INSTANCES > 0");
    let (cat, engine, entries) = &run.last;
    run.res.summarize(entries.len(), &mut out, cfg.trace);
    if cfg.trace {
        // The thread sweep reuses prepared statements (and warms them).
        let session = engine.session();
        let prepared: Vec<_> =
            entries.iter().map(|e| e.prepare(&session)).collect::<Result<_, _>>()?;
        push_layers(&mut out, &run, cat, engine, entries, &oracles, &prepared, 0, 3)?;
    } else {
        out.push("setup_s", median(&run.setups), "s");
        out.push("rss_mb", median(&run.rss_mb), "MiB");
    }
    Ok(out)
}
