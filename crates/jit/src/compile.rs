//! The front half of both machine-code levels of Fig. 3: IR to a packed
//! step stream, which [`crate::native`] then lowers to x86-64.
//!
//! * [`OptLevel::Unoptimized`] — "enables fast instruction selection, does
//!   not execute any IR optimization passes, and uses a low backend
//!   optimization level": linear translation + superinstruction packing.
//!   Lowered without register allocation, this is the O0 native level.
//! * [`OptLevel::Optimized`] — "enables all machine-specific (backend)
//!   optimizations after executing a number of hand-picked IR optimization
//!   passes": the pass pipeline, translation, interference-based slot
//!   coalescing, and packing. Lowered with register allocation, this is
//!   the O2 native level.
//!
//! The time of this front half is measured and returned; the native stats
//! add lowering and mapping on top.

use crate::coalesce::{coalesce, CoalesceStats};
use crate::emit::{pack, PackStats, Step};
use crate::passes::{optimize, PassStats};
use aqe_ir::{ExternDecl, Function};
use aqe_vm::translate::{translate, TranslateError, TranslateOptions};
use std::time::{Duration, Instant};

/// Compilation level (paper Fig. 3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OptLevel {
    Unoptimized,
    Optimized,
}

/// Everything measured about one compilation.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompileStats {
    pub compile_time: Duration,
    pub ir_instrs_before: usize,
    pub ir_instrs_after: usize,
    pub pack: PackStats,
    pub passes: Option<PassStats>,
    pub coalesce: Option<CoalesceStats>,
}

/// A function compiled to a packed step stream: the input of native
/// lowering, which also reads `level` to decide whether registers are
/// allocated.
#[derive(Clone, Debug)]
pub struct CompiledFunction {
    pub name: String,
    pub level: OptLevel,
    pub steps: Vec<Step>,
    pub frame_size: u32,
    pub param_slots: Vec<u16>,
    pub has_ret: bool,
    pub stats: CompileStats,
}

/// Compile `f` at the given level.
pub fn compile(
    f: &Function,
    externs: &[ExternDecl],
    level: OptLevel,
) -> Result<CompiledFunction, TranslateError> {
    let start = Instant::now();
    let mut stats = CompileStats { ir_instrs_before: f.instruction_count(), ..Default::default() };

    let bc = match level {
        OptLevel::Unoptimized => {
            let mut bc = translate(f, externs, TranslateOptions::default())?;
            // "Low backend optimization level": packing only.
            let (steps, pstats) = pack(&bc);
            stats.ir_instrs_after = stats.ir_instrs_before;
            stats.pack = pstats;
            bc.code.clear(); // steps own the code now
            return Ok(finish(f, level, bc.frame_size, bc.param_slots, steps, stats, start));
        }
        OptLevel::Optimized => {
            let mut opt_f = f.clone();
            let pass_stats = optimize(&mut opt_f);
            stats.passes = Some(pass_stats);
            stats.ir_instrs_after = opt_f.instruction_count();
            let mut bc = translate(&opt_f, externs, TranslateOptions::default())?;
            stats.coalesce = Some(coalesce(&mut bc));
            bc
        }
    };
    let (steps, pstats) = pack(&bc);
    stats.pack = pstats;
    Ok(finish(f, level, bc.frame_size, bc.param_slots, steps, stats, start))
}

fn finish(
    f: &Function,
    level: OptLevel,
    frame_size: u32,
    param_slots: Vec<u16>,
    steps: Vec<Step>,
    mut stats: CompileStats,
    start: Instant,
) -> CompiledFunction {
    stats.compile_time = start.elapsed();
    CompiledFunction {
        name: f.name.clone(),
        level,
        steps,
        frame_size,
        param_slots,
        has_ret: f.ret.is_some(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqe_ir::{BinOp, Constant, FunctionBuilder, Type};

    fn wide_fn(n: usize) -> Function {
        // Lots of foldable arithmetic so the optimizer has real work.
        let mut b = FunctionBuilder::new("wide", &[Type::I64], Some(Type::I64));
        let mut acc: aqe_ir::Operand = b.param(0).into();
        for k in 0..n {
            let c1 = b.bin(
                BinOp::Add,
                Type::I64,
                Constant::i64(k as i64).into(),
                Constant::i64(1).into(),
            );
            acc = b.bin(BinOp::Add, Type::I64, acc, c1.into()).into();
        }
        b.ret(Some(acc));
        b.finish().unwrap()
    }

    #[test]
    fn optimized_reduces_ir() {
        let f = wide_fn(32);
        let cf = compile(&f, &[], OptLevel::Optimized).unwrap();
        assert!(cf.stats.ir_instrs_after < cf.stats.ir_instrs_before);
        assert!(cf.stats.passes.unwrap().folded > 0);
    }

    #[test]
    fn unoptimized_is_faster_to_compile() {
        let f = wide_fn(256);
        let u = compile(&f, &[], OptLevel::Unoptimized).unwrap();
        let o = compile(&f, &[], OptLevel::Optimized).unwrap();
        assert!(
            u.stats.compile_time <= o.stats.compile_time,
            "unopt {:?} vs opt {:?}",
            u.stats.compile_time,
            o.stats.compile_time
        );
    }

    #[test]
    fn optimized_code_is_smaller() {
        let f = wide_fn(32);
        let unopt = compile(&f, &[], OptLevel::Unoptimized).unwrap();
        let opt = compile(&f, &[], OptLevel::Optimized).unwrap();
        assert!(
            opt.steps.len() <= unopt.steps.len(),
            "opt {} vs unopt {}",
            opt.steps.len(),
            unopt.steps.len()
        );
    }

    #[test]
    fn both_levels_agree_with_each_other() {
        use crate::native::{compile_native_at, enabled};
        use aqe_vm::backend::PipelineBackend;
        use aqe_vm::interp::Frame;
        use aqe_vm::rt::Registry;
        if !enabled() {
            eprintln!("native emitter disabled; skipping");
            return;
        }
        let f = wide_fn(16);
        let u = compile_native_at(&f, &[], OptLevel::Unoptimized).unwrap();
        let o = compile_native_at(&f, &[], OptLevel::Optimized).unwrap();
        let rt = Registry::new();
        let mut frame = Frame::new();
        for x in [0i64, -5, 1 << 40] {
            let ru = u.call(&[x as u64], &rt, &mut frame).unwrap();
            let ro = o.call(&[x as u64], &rt, &mut frame).unwrap();
            assert_eq!(ru, ro);
        }
    }
}
