//! Fig. 13 — geometric mean over all TPC-H queries (planning + compilation
//! + execution) per scale factor and execution mode.
//!
//! Paper setup: SF 0.01–30, 8 threads on 8 cores. This host has one core;
//! defaults are SF {0.01, 0.1, 0.5} and AQE_THREADS (default 4, time-sliced).

use aqe_bench::{env_sf_list, geomean, ms, physical, run_mode, threads_from_env, MODES};

fn main() {
    let sfs = env_sf_list(&[0.01, 0.1, 0.5]);
    let threads = threads_from_env(4);
    println!("# Fig. 13 — geometric mean over TPC-H queries ({threads} threads)");
    print!("{:<8}", "SF");
    for (_, label) in MODES {
        print!(" {label:>12}");
    }
    println!();
    for &sf in &sfs {
        eprintln!("generating SF {sf}…");
        let cat = aqe_storage::tpch::generate(sf);
        let queries = aqe_queries::tpch::all(&cat);
        let mut per_mode = Vec::new();
        for (mode, _) in MODES {
            let mut samples = Vec::new();
            for q in &queries {
                let phys = physical(&cat, q);
                let (total, _, _) = run_mode(&cat, &phys, mode, threads, false);
                samples.push(ms(total).max(1e-3));
            }
            per_mode.push(geomean(&samples));
        }
        print!("{sf:<8}");
        for g in per_mode {
            print!(" {g:>12.2}");
        }
        println!();
    }
    println!("# (times in ms; includes codegen + translation + compilation + execution)");
}
