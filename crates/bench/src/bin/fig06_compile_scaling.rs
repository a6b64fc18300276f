//! Fig. 6 — IR instruction count vs compilation time for the TPC-H and
//! TPC-DS query corpus (both backends).

use aqe_bench::compile_level;
use aqe_bench::ms;
use aqe_jit::compile::OptLevel;
use std::time::Instant;

fn main() {
    let tpch = aqe_storage::tpch::generate(0.01);
    let tpcds = aqe_storage::tpcds::generate(0.01);
    println!("# Fig. 6 — instructions vs compile time");
    println!(
        "{:<14} {:>8} {:>12} {:>12} {:>12}",
        "query", "instrs", "bc[ms]", "unopt[ms]", "opt[ms]"
    );
    let run = |name: &str, cat: &aqe_storage::Catalog, q: &aqe_queries::Query| {
        let phys = aqe_engine::plan::decompose(cat, &q.root, q.dicts.clone());
        let module = aqe_engine::codegen::generate(&phys, cat);
        let t = Instant::now();
        for f in &module.functions {
            aqe_vm::translate::translate(f, &module.externs, Default::default()).unwrap();
        }
        let bc = t.elapsed();
        let t = Instant::now();
        for f in &module.functions {
            compile_level(f, &module.externs, OptLevel::Unoptimized);
        }
        let un = t.elapsed();
        let t = Instant::now();
        for f in &module.functions {
            compile_level(f, &module.externs, OptLevel::Optimized);
        }
        let op = t.elapsed();
        println!(
            "{:<14} {:>8} {:>12.3} {:>12.3} {:>12.3}",
            name,
            module.instruction_count(),
            ms(bc),
            ms(un),
            ms(op)
        );
    };
    for q in aqe_queries::tpch::all(&tpch) {
        run(&q.name.clone(), &tpch, &q);
    }
    for q in aqe_queries::tpcds::all(&tpcds) {
        run(&q.name.clone(), &tpcds, &q);
    }
    // Extend the x-axis with generated wide aggregates (Fig. 6's 19k tail).
    for n in [50, 200, 800] {
        let q = aqe_queries::synthetic::wide_agg(n);
        run(&q.name.clone(), &tpch, &q);
    }
}
