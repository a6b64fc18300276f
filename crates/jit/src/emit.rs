//! Step-stream emission with superinstruction packing.
//!
//! Native lowering ([`crate::native`]) consumes a sequence of pre-decoded
//! steps; the packer fuses frequent instruction sequences into
//! superinstructions that lower to one fused machine sequence each (the generalisation of §IV-F the paper proposes as
//! future work: "In general, it would make sense to translate a large corpus
//! of queries, and to check for frequently occurring sequences of
//! instructions in order to replace them by macro instructions"). Patterns:
//!
//! * any comparison followed by the conditional branch on its flag,
//! * the loop-latch `add-immediate` + unconditional branch,
//! * φ-copy (`mov`/`const`) + unconditional branch,
//! * the aggregation triad `load [p+d]; add v; store [p+d]` (plain, float,
//!   and overflow-checked).
//!
//! Every superinstruction performs *all* the register and memory writes of
//! the sequence it replaces, so packing is unconditionally
//! semantics-preserving — only the step count changes.

use aqe_vm::bytecode::{BcFunction, BcInstr, Op};

/// Superinstruction opcodes. `Plain` is one bytecode instruction, lowered
/// on its own.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SOp {
    Plain,
    /// `i` is a comparison writing flag `i.a`; branch targets in `lit2`.
    CmpBr,
    /// `i` is an AddImm; jump to `lit2` afterwards.
    AddImmBr,
    /// `i` is a Mov64; jump to `lit2` afterwards.
    MovBr,
    /// `i` is a Const64; jump to `lit2` afterwards.
    ConstBr,
    /// Unconditional jump to `i.lit` (pre-decoded).
    Jmp,
    /// `[i.b + disp(i.lit)] += reg(i.c)` as i64; temps written to `i.a`
    /// (loaded value) and `lit2` low 16 bits (sum).
    AccumAddI64,
    /// Same as `AccumAddI64` for f64.
    AccumAddF64,
    /// Same as `AccumAddI64` with an overflow trap.
    AccumOvfAddI64,
}

/// One pre-decoded execution step.
#[derive(Clone, Copy, Debug)]
pub struct Step {
    pub sup: SOp,
    pub i: BcInstr,
    pub lit2: u64,
}

/// Packing statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PackStats {
    pub vm_instrs: usize,
    pub steps: usize,
    pub fused: usize,
}

fn is_cmp_writing_flag(op: Op) -> bool {
    let o = op as u16;
    (Op::CmpEqI8 as u16..=Op::CmpImmUgeI64 as u16).contains(&o)
}

/// Pack a translated function into steps.
pub fn pack(bc: &BcFunction) -> (Vec<Step>, PackStats) {
    let n = bc.code.len();
    // Instructions that are branch targets cannot be fused into a
    // predecessor step (someone jumps right at them).
    let mut target = vec![false; n + 1];
    for i in &bc.code {
        match i.op {
            Op::Br => target[i.lit as usize] = true,
            Op::CondBr => {
                target[BcInstr::branch_then(i.lit)] = true;
                target[BcInstr::branch_else(i.lit)] = true;
            }
            _ => {}
        }
    }

    let mut steps: Vec<Step> = Vec::with_capacity(n);
    let mut pc_map = vec![0u32; n + 1];
    let mut stats = PackStats { vm_instrs: n, ..Default::default() };
    let mut pc = 0usize;
    while pc < n {
        pc_map[pc] = steps.len() as u32;
        let i = bc.code[pc];
        let next = (pc + 1 < n && !target[pc + 1]).then(|| bc.code[pc + 1]);
        let third = (pc + 2 < n && !target[pc + 1] && !target[pc + 2]).then(|| bc.code[pc + 2]);

        // Aggregation triad: Load64Disp t,[p]+d ; Add t2,t,v ; Store64Disp [p]+d, t2
        if let (Op::Load64Disp, Some(add), Some(st)) = (i.op, next, third) {
            let acc = match add.op {
                Op::AddI64 => Some(SOp::AccumAddI64),
                Op::AddF64 => Some(SOp::AccumAddF64),
                Op::AddOvfTrapI64 => Some(SOp::AccumOvfAddI64),
                _ => None,
            };
            if let Some(sup) = acc {
                let t = i.a;
                let reads_t = add.b == t || add.c == t;
                let v = if add.b == t { add.c } else { add.b };
                let stores_back =
                    st.op == Op::Store64Disp && st.a == i.b && st.lit == i.lit && st.b == add.a;
                if reads_t && stores_back {
                    steps.push(Step {
                        sup,
                        i: BcInstr::new(i.op, t, i.b, v, i.lit),
                        lit2: add.a as u64,
                    });
                    pc_map[pc + 1] = (steps.len() - 1) as u32;
                    pc_map[pc + 2] = (steps.len() - 1) as u32;
                    stats.fused += 2;
                    pc += 3;
                    continue;
                }
            }
        }

        // cmp + condbr on the produced flag
        if let Some(nx) = next {
            if nx.op == Op::CondBr && is_cmp_writing_flag(i.op) && nx.b == i.a {
                steps.push(Step { sup: SOp::CmpBr, i, lit2: nx.lit });
                pc_map[pc + 1] = (steps.len() - 1) as u32;
                stats.fused += 1;
                pc += 2;
                continue;
            }
            if nx.op == Op::Br {
                let fused = match i.op {
                    Op::AddImmI32 | Op::AddImmI64 => Some(SOp::AddImmBr),
                    Op::Mov64 => Some(SOp::MovBr),
                    Op::Const64 => Some(SOp::ConstBr),
                    _ => None,
                };
                if let Some(sup) = fused {
                    steps.push(Step { sup, i, lit2: nx.lit });
                    pc_map[pc + 1] = (steps.len() - 1) as u32;
                    stats.fused += 1;
                    pc += 2;
                    continue;
                }
            }
        }

        let sup = if i.op == Op::Br { SOp::Jmp } else { SOp::Plain };
        steps.push(Step { sup, i, lit2: 0 });
        pc += 1;
    }
    pc_map[n] = steps.len() as u32;

    // Remap branch targets (both plain lits and fused lit2s).
    for s in &mut steps {
        match s.sup {
            SOp::Jmp => s.i.lit = pc_map[s.i.lit as usize] as u64,
            SOp::Plain if s.i.op == Op::CondBr => {
                s.i.lit = BcInstr::pack_branch(
                    pc_map[BcInstr::branch_then(s.i.lit)],
                    pc_map[BcInstr::branch_else(s.i.lit)],
                );
            }
            SOp::CmpBr => {
                s.lit2 = BcInstr::pack_branch(
                    pc_map[BcInstr::branch_then(s.lit2)],
                    pc_map[BcInstr::branch_else(s.lit2)],
                );
            }
            SOp::AddImmBr | SOp::MovBr | SOp::ConstBr => {
                s.lit2 = pc_map[s.lit2 as usize] as u64;
            }
            _ => {}
        }
    }

    stats.steps = steps.len();
    (steps, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqe_ir::{BinOp, Constant, FunctionBuilder, Type};
    use aqe_vm::translate::{translate, TranslateOptions};

    #[test]
    fn packs_loop_control() {
        let mut b = FunctionBuilder::new("f", &[Type::I64], Some(Type::I64));
        let n = b.param(0);
        b.counted_loop(Constant::i64(0).into(), n.into(), |_, _| {});
        b.ret(Some(Constant::i64(0).into()));
        let f = b.finish().unwrap();
        let bc = translate(&f, &[], TranslateOptions::default()).unwrap();
        let (steps, stats) = pack(&bc);
        assert!(stats.fused >= 1, "loop head cmp+condbr must fuse: {stats:?}");
        assert!(steps.len() < bc.code.len());
        assert!(steps.iter().any(|s| s.sup == SOp::CmpBr));
    }

    #[test]
    fn packs_accumulation_triad() {
        // acc pattern: load [p+8]; add v; store [p+8]
        let mut b = FunctionBuilder::new("f", &[Type::Ptr, Type::I64], None);
        let g = b.gep(b.param(0).into(), 8);
        let cur = b.load(Type::I64, g.into());
        let sum = b.bin(BinOp::Add, Type::I64, cur.into(), b.param(1).into());
        let g2 = b.gep(b.param(0).into(), 8);
        b.store(Type::I64, sum.into(), g2.into());
        b.ret(None);
        let f = b.finish().unwrap();
        let bc = translate(&f, &[], TranslateOptions::default()).unwrap();
        let (steps, _) = pack(&bc);
        assert!(steps.iter().any(|s| s.sup == SOp::AccumAddI64), "{}", bc.disassemble());
    }

    #[test]
    fn branch_targets_survive_packing() {
        let mut b = FunctionBuilder::new("f", &[Type::I64], Some(Type::I64));
        let n = b.param(0);
        b.counted_loop(Constant::i64(0).into(), n.into(), |_, _| {});
        b.ret(Some(Constant::i64(9).into()));
        let f = b.finish().unwrap();
        let bc = translate(&f, &[], TranslateOptions::default()).unwrap();
        let (steps, _) = pack(&bc);
        // All branch targets must be in range.
        for s in &steps {
            match s.sup {
                SOp::Jmp => assert!((s.i.lit as usize) < steps.len()),
                SOp::CmpBr => {
                    assert!(BcInstr::branch_then(s.lit2) < steps.len());
                    assert!(BcInstr::branch_else(s.lit2) < steps.len());
                }
                SOp::AddImmBr | SOp::MovBr | SOp::ConstBr => {
                    assert!((s.lit2 as usize) < steps.len())
                }
                _ => {}
            }
        }
    }
}
