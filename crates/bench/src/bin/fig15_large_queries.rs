//! Fig. 15 — compilation times for very large machine-generated queries
//! (10…N aggregates). "Optimized LLVM compilation is no longer a viable
//! approach for larger query sizes … the bytecode interpreter scales
//! perfectly."

use aqe_bench::compile_level;
use aqe_bench::ms;
use aqe_jit::compile::OptLevel;
use std::time::Instant;

fn main() {
    let cat = aqe_storage::tpch::generate(0.001);
    let sizes: Vec<usize> = std::env::var("AQE_WIDE_SIZES")
        .ok()
        .map(|s| s.split(',').filter_map(|x| x.parse().ok()).collect())
        .unwrap_or_else(|| vec![10, 50, 100, 200, 400, 800, 1200, 1900]);
    println!("# Fig. 15 — very large generated queries");
    println!(
        "{:<8} {:>9} {:>12} {:>12} {:>12}",
        "aggs", "instrs", "bytecode[ms]", "unopt[ms]", "opt[ms]"
    );
    for &n in &sizes {
        let q = aqe_queries::synthetic::wide_agg(n);
        let phys = aqe_engine::plan::decompose(&cat, &q.root, vec![]);
        let module = aqe_engine::codegen::generate(&phys, &cat);
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
        // Optimized compilation explodes super-linearly; skip monster sizes
        // after it crosses 30 s (the paper also cut the curve off).
        let t = Instant::now();
        let mut opt_ms = f64::NAN;
        if n <= 1900 {
            for f in &module.functions {
                compile_level(f, &module.externs, OptLevel::Optimized);
            }
            opt_ms = ms(t.elapsed());
        }
        println!(
            "{:<8} {:>9} {:>12.2} {:>12.2} {:>12.2}",
            n,
            module.instruction_count(),
            ms(bc),
            ms(un),
            opt_ms
        );
    }
}
