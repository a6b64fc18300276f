//! Fig. 1 / Fig. 3 — per-stage times of the compilation pipeline for a
//! TPC-H-style query, from SQL text to the three execution-mode artifacts.

use aqe_bench::compile_level;
use aqe_bench::{env_sf, fmt_ms, ms};
use aqe_engine::plan::decompose;
use aqe_jit::compile::OptLevel;
use std::time::Instant;

fn main() {
    let sf = env_sf(0.1);
    eprintln!("generating TPC-H SF {sf}…");
    let cat = aqe_storage::tpch::generate(sf);
    let sql = "SELECT l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), \
               avg(l_quantity), count(*) FROM lineitem \
               WHERE l_shipdate <= date '1998-09-02' \
               GROUP BY l_returnflag, l_linestatus \
               ORDER BY l_returnflag, l_linestatus";

    let t = Instant::now();
    let toks = aqe_sql::tokenize(sql).unwrap();
    let parse_t = t.elapsed();
    let t = Instant::now();
    let stmt = aqe_sql::parse(toks).unwrap();
    let sem_t = t.elapsed();
    let _ = &stmt;
    let t = Instant::now();
    let bound = aqe_sql::plan_sql(&cat, sql).unwrap();
    let opt_t = t.elapsed().saturating_sub(parse_t + sem_t);
    let t = Instant::now();
    let phys = decompose(&cat, &bound.root, bound.dicts);
    let module = aqe_engine::codegen::generate(&phys, &cat);
    let cdg_t = t.elapsed();

    let t = Instant::now();
    let mut bc_len = 0usize;
    for f in &module.functions {
        bc_len +=
            aqe_vm::translate::translate(f, &module.externs, Default::default()).unwrap().len();
    }
    let bc_t = t.elapsed();
    let t = Instant::now();
    for f in &module.functions {
        compile_level(f, &module.externs, OptLevel::Unoptimized);
    }
    let unopt_t = t.elapsed();
    let t = Instant::now();
    for f in &module.functions {
        compile_level(f, &module.externs, OptLevel::Optimized);
    }
    let opt_compile_t = t.elapsed();

    println!("# Fig. 1 / Fig. 3 — stage times (TPC-H Q1-style, SF {sf})");
    println!(
        "# IR instructions: {}, bytecode instructions: {}",
        module.instruction_count(),
        bc_len
    );
    println!("{:<28} {:>10}", "stage", "ms");
    for (name, d) in [
        ("parser", parse_t),
        ("semantic analysis", sem_t),
        ("optimizer", opt_t),
        ("code generation (IR)", cdg_t),
        ("bytecode translation", bc_t),
        ("compile unoptimized", unopt_t),
        ("compile optimized", opt_compile_t),
    ] {
        println!("{:<28} {:>10}", name, fmt_ms(ms(d)));
    }
}
