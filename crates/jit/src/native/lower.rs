//! Lowering from packed [`Step`]s to x86-64 machine code.
//!
//! At O0 ([`OptLevel::Unoptimized`]) this is a pure *template JIT*: every
//! VM register-file slot lives in memory at `[r12 + slot]` and each step
//! loads its operands, computes, and stores the result back. At O2
//! ([`OptLevel::Optimized`]) a [`super::regalloc`] pass runs first: slots
//! whose every access is 64 bits wide may be promoted into machine GPRs
//! for the whole function. All slot traffic below goes through accessors
//! that pick the register or the frame per slot. Branches fall through to the next
//! step when the target is the textual successor instead of always
//! emitting a `jmp`. Semantics remain bit-identical to
//! `aqe_vm::interp::exec_one` (wrapping arithmetic at width, Rust float
//! comparison semantics including NaN, division traps, checked-arithmetic
//! traps), which is what lets the adaptive controller hot-swap a pipeline
//! onto this backend mid-flight.
//!
//! ## Calling and clobber convention (the authoritative list)
//!
//! Generated functions are System V:
//!
//! ```text
//! extern "C" fn(regs: *mut u8, fns: *const RtFn) -> (rax = status, rdx = value)
//! ```
//!
//! * **Pinned**: `r12` = register-file base (`REGS`), `r13` =
//!   runtime-function table (`FNS`). Saved in the prologue, never
//!   reassigned.
//! * **Scratch**: `rax`/`rcx`/`rdx` (`A`/`C`/`D`) and `xmm0`/`xmm1` are
//!   per-step temporaries, never live across a step boundary and never
//!   handed to the allocator. `rdx` doubles as `idiv`'s high half and the
//!   second return register; `rsi`/`rdi` are only ever written as
//!   `CallRt` trampoline arguments.
//! * **Allocatable** (disjoint from all of the above, so assignments can
//!   never collide with fixed scratch): callee-saved `rbx`/`r14`/`r15`/
//!   `rbp`, all pushed unconditionally in the prologue, and caller-saved
//!   `r8`–`r11`, which the lowering flushes to their frame slots before —
//!   and reloads after — every call inside the owning interval's hull.
//! * **Stack**: prologue pushes six callee-saved registers and subtracts
//!   8, keeping `rsp` 16-byte aligned at every `call` site (entry
//!   `rsp ≡ 8 (mod 16)` after the caller's `call`).
//! * Status codes are [`STATUS_RET_NONE`] through [`STATUS_USER_TRAP`];
//!   `rdx` carries the return value or the user-trap code. Runtime calls
//!   go through a Rust-compiled trampoline (`RtFn` uses the unstable Rust
//!   ABI, so generated code must not call it directly); the callee reads
//!   its arguments from and writes its result to the *frame*, so arg/ret
//!   slots are never register-promoted.

use super::asm::{Alu, Asm, Cc, Label, Reg, Shift, Sse, Xmm};
use super::regalloc::{self, Assignment, CALLEE_SAVED_POOL, CALLER_SAVED_POOL};
use crate::compile::{CompiledFunction, OptLevel};
use crate::emit::SOp;
use aqe_ir::ExternDecl;
use aqe_vm::bytecode::{BcInstr, Op, TRAP_DIV_ZERO, TRAP_OVERFLOW, TRAP_USER_BASE};

/// Worker function returned without a value.
pub const STATUS_RET_NONE: u64 = 0;
/// Worker function returned a value (in the second return register).
pub const STATUS_RET_VAL: u64 = 1;
/// Arithmetic overflow trap.
pub const STATUS_OVERFLOW: u64 = 2;
/// Division by zero trap.
pub const STATUS_DIV_ZERO: u64 = 3;
/// User trap; the code is in the second return register.
pub const STATUS_USER_TRAP: u64 = 4;

/// Addresses of the Rust-side support functions the generated code calls.
#[derive(Clone, Copy)]
pub(super) struct Helpers {
    /// `unsafe extern "C" fn(RtFn, *const u64, *mut u64)`.
    pub rt_tramp: u64,
    /// `extern "C" fn(f64) -> i64` with Rust `as i32` saturation.
    pub f2i32: u64,
    /// `extern "C" fn(f64) -> i64` with Rust `as i64` saturation.
    pub f2i64: u64,
}

/// Pinned registers: the register file and the runtime-function table.
const REGS: Reg = Reg::R12;
const FNS: Reg = Reg::R13;
/// Scratch registers (caller-saved; never live across a step).
const A: Reg = Reg::Rax;
const C: Reg = Reg::Rcx;
const D: Reg = Reg::Rdx;

/// Operand widths.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum W {
    B1,
    B2,
    B4,
    B8,
}

impl W {
    fn bits(self) -> u32 {
        match self {
            W::B1 => 8,
            W::B2 => 16,
            W::B4 => 32,
            W::B8 => 64,
        }
    }
}

struct Lowerer {
    a: Asm,
    step_labels: Vec<Label>,
    l_epilogue: Label,
    l_overflow: Label,
    l_divzero: Label,
    helpers: Helpers,
    ra: Assignment,
}

/// Lower a compiled step stream to machine code, allocating registers
/// only at [`OptLevel::Optimized`]. `externs` gives `CallRt` argument
/// counts so the allocator can pin arg areas.
pub(super) fn lower(
    cf: &CompiledFunction,
    externs: &[ExternDecl],
    helpers: Helpers,
) -> Result<Vec<u8>, String> {
    let ra = if cf.level == OptLevel::Optimized {
        regalloc::allocate(&cf.steps, externs, &CALLEE_SAVED_POOL, &CALLER_SAVED_POOL)
    } else {
        Assignment::none()
    };

    // ~24 bytes per step is above the observed mean; sized so emission
    // never grows the buffer.
    let mut a = Asm::with_capacity(cf.steps.len() * 24 + 64, cf.steps.len() + 8);
    let step_labels: Vec<Label> = (0..cf.steps.len()).map(|_| a.label()).collect();
    let l_epilogue = a.label();
    let l_overflow = a.label();
    let l_divzero = a.label();
    let mut lo = Lowerer { a, step_labels, l_epilogue, l_overflow, l_divzero, helpers, ra };

    // Prologue: six callee-saved pushes (rbx/rbp/r14/r15 belong to the
    // allocator's pool) plus an 8-byte adjustment keep rsp 16-byte
    // aligned at every call site (entry rsp ≡ 8 mod 16).
    lo.a.push(Reg::Rbp);
    lo.a.push(Reg::Rbx);
    lo.a.push(REGS);
    lo.a.push(FNS);
    lo.a.push(Reg::R14);
    lo.a.push(Reg::R15);
    lo.a.alu_ri(Alu::Sub, Reg::Rsp, 8);
    lo.a.mov_rr(REGS, Reg::Rdi);
    lo.a.mov_rr(FNS, Reg::Rsi);
    // Promoted slots that are live-in (parameters, the constant slots)
    // start from the frame image `execute_native` wrote.
    for &(slot, reg) in lo.ra.entry_loads() {
        lo.a.load64(reg, REGS, s(slot));
    }

    for (pc, st) in cf.steps.iter().enumerate() {
        let l = lo.step_labels[pc];
        lo.a.bind(l);
        lo.step(pc, st)?;
    }

    // Shared trap/exit stubs.
    lo.a.bind(lo.l_overflow);
    lo.a.mov_ri(A, STATUS_OVERFLOW);
    lo.a.jmp(lo.l_epilogue);
    lo.a.bind(lo.l_divzero);
    lo.a.mov_ri(A, STATUS_DIV_ZERO);
    lo.a.jmp(lo.l_epilogue);
    lo.a.bind(lo.l_epilogue);
    lo.a.alu_ri(Alu::Add, Reg::Rsp, 8);
    lo.a.pop(Reg::R15);
    lo.a.pop(Reg::R14);
    lo.a.pop(FNS);
    lo.a.pop(REGS);
    lo.a.pop(Reg::Rbx);
    lo.a.pop(Reg::Rbp);
    lo.a.ret();

    lo.a.finish()
}

/// Register-file slot offset as a displacement.
fn s(off: u16) -> i32 {
    off as i32
}

impl Lowerer {
    fn step_target(&self, pc: u64) -> Result<Label, String> {
        self.step_labels
            .get(pc as usize)
            .copied()
            .ok_or_else(|| format!("branch target {pc} out of range"))
    }

    /// `jmp target` unless the target is the textual successor.
    fn jmp_or_fall(&mut self, pc: usize, target: u64) -> Result<(), String> {
        if target != (pc + 1) as u64 {
            let t = self.step_target(target)?;
            self.a.jmp(t);
        }
        Ok(())
    }

    /// Two-way branch on `al != 0`, laid out to fall through whenever one
    /// side is the textual successor.
    fn branch_on_al(&mut self, pc: usize, then_pc: u64, else_pc: u64) -> Result<(), String> {
        self.a.test8_rr(A, A);
        if else_pc == (pc + 1) as u64 {
            let then = self.step_target(then_pc)?;
            self.a.jcc(Cc::Ne, then);
        } else if then_pc == (pc + 1) as u64 {
            let els = self.step_target(else_pc)?;
            self.a.jcc(Cc::E, els);
        } else {
            let then = self.step_target(then_pc)?;
            let els = self.step_target(else_pc)?;
            self.a.jcc(Cc::Ne, then);
            self.a.jmp(els);
        }
        Ok(())
    }

    fn step(&mut self, pc: usize, st: &crate::emit::Step) -> Result<(), String> {
        match st.sup {
            SOp::Plain => self.plain(pc, &st.i),
            SOp::Jmp => self.jmp_or_fall(pc, st.i.lit),
            SOp::CmpBr => {
                // Compute the flag (exactly as the unfused cmp would,
                // including the byte write to the flag slot — later code
                // may re-read it), then branch on the byte in `al`.
                self.plain(pc, &st.i)?;
                self.branch_on_al(
                    pc,
                    BcInstr::branch_then(st.lit2) as u64,
                    BcInstr::branch_else(st.lit2) as u64,
                )
            }
            SOp::AddImmBr | SOp::MovBr | SOp::ConstBr => {
                self.plain(pc, &st.i)?;
                self.jmp_or_fall(pc, st.lit2)
            }
            SOp::AccumAddI64 => self.accum_i64(st, false),
            SOp::AccumOvfAddI64 => self.accum_i64(st, true),
            SOp::AccumAddF64 => self.accum_f64(st),
        }
    }

    // ---- register-or-frame slot accessors -------------------------------

    /// Read a slot as 64 bits into `dst`.
    fn ld_slot64(&mut self, dst: Reg, slot: u16) {
        match self.ra.reg(slot) {
            Some(r) => self.a.mov_rr(dst, r),
            None => self.a.load64(dst, REGS, s(slot)),
        }
    }

    /// Write `src` to a slot at 64 bits.
    fn st_slot64(&mut self, slot: u16, src: Reg) {
        match self.ra.reg(slot) {
            Some(r) => self.a.mov_rr(r, src),
            None => self.a.store64(REGS, s(slot), src),
        }
    }

    /// Read a slot zero-extended at width. Sub-width slots are never
    /// promoted (allocator eligibility), so those always hit the frame.
    fn ld_slot_zx(&mut self, dst: Reg, slot: u16, w: W) {
        if w == W::B8 {
            self.ld_slot64(dst, slot);
        } else {
            debug_assert!(self.ra.reg(slot).is_none(), "sub-width slot promoted");
            match w {
                W::B1 => self.a.load8zx(dst, REGS, s(slot)),
                W::B2 => self.a.load16zx(dst, REGS, s(slot)),
                W::B4 => self.a.load32zx(dst, REGS, s(slot)),
                W::B8 => unreachable!(),
            }
        }
    }

    /// Read a slot sign-extended at width.
    fn ld_slot_sx(&mut self, dst: Reg, slot: u16, w: W) {
        if w == W::B8 {
            self.ld_slot64(dst, slot);
        } else {
            debug_assert!(self.ra.reg(slot).is_none(), "sub-width slot promoted");
            match w {
                W::B1 => self.a.load8sx(dst, REGS, s(slot)),
                W::B2 => self.a.load16sx(dst, REGS, s(slot)),
                W::B4 => self.a.load32sx(dst, REGS, s(slot)),
                W::B8 => unreachable!(),
            }
        }
    }

    /// Write `src` to a slot at width.
    fn st_slot(&mut self, slot: u16, src: Reg, w: W) {
        if w == W::B8 {
            self.st_slot64(slot, src);
        } else {
            debug_assert!(self.ra.reg(slot).is_none(), "sub-width slot promoted");
            match w {
                W::B1 => self.a.store8(REGS, s(slot), src),
                W::B2 => self.a.store16(REGS, s(slot), src),
                W::B4 => self.a.store32(REGS, s(slot), src),
                W::B8 => unreachable!(),
            }
        }
    }

    /// Write the low byte of `src` to a flag slot (never promoted).
    fn st_flag(&mut self, slot: u16, src: Reg) {
        debug_assert!(self.ra.reg(slot).is_none(), "flag slot promoted");
        self.a.store8(REGS, s(slot), src);
    }

    /// Read a slot into an XMM register.
    fn movsd_ld_slot(&mut self, dst: Xmm, slot: u16) {
        match self.ra.reg(slot) {
            Some(r) => self.a.movq_xr(dst, r),
            None => self.a.movsd_load(dst, REGS, s(slot)),
        }
    }

    /// Write an XMM register to a slot.
    fn movsd_st_slot(&mut self, slot: u16, src: Xmm) {
        match self.ra.reg(slot) {
            Some(r) => self.a.movq_rx(r, src),
            None => self.a.movsd_store(REGS, s(slot), src),
        }
    }

    /// `op dst, slot` for scalar-double arithmetic; promoted slots bounce
    /// through the `xmm1` scratch (callers keep `xmm1` free here).
    fn sse_slot(&mut self, op: Sse, dst: Xmm, slot: u16) {
        debug_assert!(dst != Xmm::Xmm1);
        match self.ra.reg(slot) {
            Some(r) => {
                self.a.movq_xr(Xmm::Xmm1, r);
                self.a.sse_rr(op, dst, Xmm::Xmm1);
            }
            None => self.a.sse_mem(op, dst, REGS, s(slot)),
        }
    }

    /// `ucomisd x, slot`, bouncing promoted slots through `xmm1`.
    fn ucomisd_slot(&mut self, x: Xmm, slot: u16) {
        debug_assert!(x != Xmm::Xmm1);
        match self.ra.reg(slot) {
            Some(r) => {
                self.a.movq_xr(Xmm::Xmm1, r);
                self.a.ucomisd_rr(x, Xmm::Xmm1);
            }
            None => self.a.ucomisd_mem(x, REGS, s(slot)),
        }
    }

    /// Sync caller-saved promoted registers to their frame slots before a
    /// call at step `pc`; returns the window to reload afterwards.
    fn flush_for_call(&mut self, pc: usize) -> Vec<(u16, Reg)> {
        let wnd = self.ra.call_window(pc);
        for &(slot, reg) in &wnd {
            self.a.store64(REGS, s(slot), reg);
        }
        wnd
    }

    /// Reload a call window (the callee may not touch the frame slots,
    /// but the registers themselves were clobbered).
    fn reload_after_call(&mut self, wnd: &[(u16, Reg)]) {
        for &(slot, reg) in wnd {
            self.a.load64(reg, REGS, s(slot));
        }
    }

    /// `[p + d] += v` (i64), with the same temp writes as the
    /// superinstruction: loaded value to `i.a`, sum to the slot in `lit2`.
    fn accum_i64(&mut self, st: &crate::emit::Step, checked: bool) -> Result<(), String> {
        let i = &st.i;
        let disp = disp32(i.lit)?;
        self.ld_slot64(A, i.b);
        self.a.load64(C, A, disp);
        self.st_slot64(i.a, C);
        self.ld_slot64(D, i.c);
        self.a.alu_rr(Alu::Add, C, D);
        if checked {
            self.a.jcc(Cc::O, self.l_overflow);
        }
        self.st_slot64(st.lit2 as u16, C);
        self.a.store64(A, disp, C);
        Ok(())
    }

    /// `[p + d] += v` (f64) with the same temp writes.
    fn accum_f64(&mut self, st: &crate::emit::Step) -> Result<(), String> {
        let i = &st.i;
        let disp = disp32(i.lit)?;
        self.ld_slot64(A, i.b);
        self.a.movsd_load(Xmm::Xmm0, A, disp);
        self.movsd_st_slot(i.a, Xmm::Xmm0);
        self.sse_slot(Sse::Add, Xmm::Xmm0, i.c);
        self.movsd_st_slot(st.lit2 as u16, Xmm::Xmm0);
        self.a.movsd_store(A, disp, Xmm::Xmm0);
        Ok(())
    }

    // ---- raw memory accesses at width (heap side; not slots) ------------

    fn load_zx(&mut self, dst: Reg, base: Reg, disp: i32, w: W) {
        match w {
            W::B1 => self.a.load8zx(dst, base, disp),
            W::B2 => self.a.load16zx(dst, base, disp),
            W::B4 => self.a.load32zx(dst, base, disp),
            W::B8 => self.a.load64(dst, base, disp),
        }
    }

    fn store_w(&mut self, base: Reg, disp: i32, src: Reg, w: W) {
        match w {
            W::B1 => self.a.store8(base, disp, src),
            W::B2 => self.a.store16(base, disp, src),
            W::B4 => self.a.store32(base, disp, src),
            W::B8 => self.a.store64(base, disp, src),
        }
    }

    // ---- instruction families -------------------------------------------

    /// Wrapping binary op: 64-bit compute, width-exact store.
    fn bin(&mut self, i: &BcInstr, op: Alu, w: W) {
        self.ld_slot64(A, i.b);
        self.ld_slot64(C, i.c);
        self.a.alu_rr(op, A, C);
        self.st_slot(i.a, A, w);
    }

    fn mul(&mut self, i: &BcInstr, w: W) {
        self.ld_slot64(A, i.b);
        self.ld_slot64(C, i.c);
        self.a.imul_rr(A, C);
        self.st_slot(i.a, A, w);
    }

    fn bin_imm(&mut self, i: &BcInstr, op: Alu, w: W) {
        self.ld_slot64(A, i.b);
        self.a.mov_ri(C, i.lit);
        self.a.alu_rr(op, A, C);
        self.st_slot(i.a, A, w);
    }

    fn mul_imm(&mut self, i: &BcInstr, w: W) {
        self.ld_slot64(A, i.b);
        self.a.mov_ri(C, i.lit);
        self.a.imul_rr(A, C);
        self.st_slot(i.a, A, w);
    }

    /// Shift by a register count, masked to the width like `wrapping_shl`.
    fn shift(&mut self, i: &BcInstr, op: Shift, w: W) {
        match op {
            Shift::Sar => self.ld_slot_sx(A, i.b, w),
            Shift::Shr => self.ld_slot_zx(A, i.b, w),
            Shift::Shl => self.ld_slot64(A, i.b),
        }
        self.ld_slot64(C, i.c);
        self.a.and32_ri(C, w.bits() - 1);
        self.a.shift_cl(op, A);
        self.st_slot(i.a, A, w);
    }

    fn shift_imm(&mut self, i: &BcInstr, op: Shift, w: W) {
        match op {
            Shift::Sar => self.ld_slot_sx(A, i.b, w),
            Shift::Shr => self.ld_slot_zx(A, i.b, w),
            Shift::Shl => self.ld_slot64(A, i.b),
        }
        self.a.shift_i(op, A, (i.lit as u32 & (w.bits() - 1)) as u8);
        self.st_slot(i.a, A, w);
    }

    /// f64 arithmetic.
    fn fbin(&mut self, i: &BcInstr, op: Sse) {
        self.movsd_ld_slot(Xmm::Xmm0, i.b);
        self.sse_slot(op, Xmm::Xmm0, i.c);
        self.movsd_st_slot(i.a, Xmm::Xmm0);
    }

    fn fbin_imm(&mut self, i: &BcInstr, op: Sse) {
        self.movsd_ld_slot(Xmm::Xmm0, i.b);
        self.a.mov_ri(C, i.lit);
        self.a.movq_xr(Xmm::Xmm1, C);
        self.a.sse_rr(op, Xmm::Xmm0, Xmm::Xmm1);
        self.movsd_st_slot(i.a, Xmm::Xmm0);
    }

    /// Integer comparison producing a 0/1 byte in `al` *and* the flag
    /// slot (callers that fuse a branch re-test `al`).
    fn cmp(&mut self, i: &BcInstr, cc: Cc, signed: bool, w: W, rhs: Option<u64>) {
        if signed {
            self.ld_slot_sx(A, i.b, w);
        } else {
            self.ld_slot_zx(A, i.b, w);
        }
        match rhs {
            None => {
                if signed {
                    self.ld_slot_sx(C, i.c, w);
                } else {
                    self.ld_slot_zx(C, i.c, w);
                }
            }
            Some(imm) => self.a.mov_ri(C, imm),
        }
        self.a.alu_rr(Alu::Cmp, A, C);
        self.a.setcc(cc, A);
        self.st_flag(i.a, A);
    }

    /// Immediate operand, extended to 64 bits the way the interpreter's
    /// typed comparison sees it.
    fn cmp_imm_val(lit: u64, signed: bool, w: W) -> u64 {
        match (w, signed) {
            (W::B4, true) => lit as i32 as i64 as u64,
            (W::B4, false) => lit as u32 as u64,
            _ => lit,
        }
    }

    /// f64 comparison with Rust/IEEE NaN semantics. Leaves 0/1 in `al`
    /// and stores it to the flag slot.
    fn fcmp(&mut self, i: &BcInstr, pred: Op) {
        match pred {
            Op::CmpEqF64 => {
                self.movsd_ld_slot(Xmm::Xmm0, i.b);
                self.ucomisd_slot(Xmm::Xmm0, i.c);
                self.a.setcc(Cc::Np, C);
                self.a.setcc(Cc::E, A);
                self.a.alu8_rr(Alu::And, A, C);
            }
            Op::CmpNeF64 => {
                self.movsd_ld_slot(Xmm::Xmm0, i.b);
                self.ucomisd_slot(Xmm::Xmm0, i.c);
                self.a.setcc(Cc::P, C);
                self.a.setcc(Cc::Ne, A);
                self.a.alu8_rr(Alu::Or, A, C);
            }
            // a < b  ⟺  b > a: compare reversed so `seta`/`setae` (which
            // are false on unordered) give the right NaN behaviour.
            Op::CmpLtF64 | Op::CmpLeF64 => {
                self.movsd_ld_slot(Xmm::Xmm0, i.c);
                self.ucomisd_slot(Xmm::Xmm0, i.b);
                self.a.setcc(if pred == Op::CmpLtF64 { Cc::A } else { Cc::Ae }, A);
            }
            Op::CmpGtF64 | Op::CmpGeF64 => {
                self.movsd_ld_slot(Xmm::Xmm0, i.b);
                self.ucomisd_slot(Xmm::Xmm0, i.c);
                self.a.setcc(if pred == Op::CmpGtF64 { Cc::A } else { Cc::Ae }, A);
            }
            _ => unreachable!("not a float comparison"),
        }
        self.st_flag(i.a, A);
    }

    /// Overflow-checked arithmetic (`W::B4`/`W::B8` only). `trap` jumps to
    /// the overflow stub, `flag` stores OF as a byte instead of the value.
    fn ovf(&mut self, i: &BcInstr, op: Op, w: W, mode: OvfMode) {
        self.ld_slot_zx(A, i.b, w);
        self.ld_slot_zx(C, i.c, w);
        let alu = match op {
            Op::AddOvfTrapI32
            | Op::AddOvfTrapI64
            | Op::AddOvfValI32
            | Op::AddOvfValI64
            | Op::AddOvfFlagI32
            | Op::AddOvfFlagI64 => Some(Alu::Add),
            Op::SubOvfTrapI32
            | Op::SubOvfTrapI64
            | Op::SubOvfValI32
            | Op::SubOvfValI64
            | Op::SubOvfFlagI32
            | Op::SubOvfFlagI64 => Some(Alu::Sub),
            _ => None,
        };
        match (alu, w) {
            (Some(a), W::B4) => self.a.alu32_rr(a, A, C),
            (Some(a), _) => self.a.alu_rr(a, A, C),
            (None, W::B4) => self.a.imul32_rr(A, C),
            (None, _) => self.a.imul_rr(A, C),
        }
        match mode {
            OvfMode::Trap => {
                self.a.jcc(Cc::O, self.l_overflow);
                self.st_slot(i.a, A, w);
            }
            OvfMode::Val => self.st_slot(i.a, A, w),
            OvfMode::Flag => {
                self.a.setcc(Cc::O, D);
                self.st_flag(i.a, D);
            }
        }
    }

    /// Signed division/remainder with the interpreter's trap semantics.
    fn sdiv(&mut self, i: &BcInstr, w: W, rem: bool) {
        self.ld_slot_sx(A, i.b, w);
        self.ld_slot_sx(C, i.c, w);
        self.a.test_rr(C, C);
        self.a.jcc(Cc::E, self.l_divzero);
        let done = self.a.label();
        if !rem {
            // MIN / -1 traps as overflow at every width.
            let ok = self.a.label();
            self.a.alu_ri(Alu::Cmp, C, -1);
            self.a.jcc(Cc::Ne, ok);
            match w {
                W::B8 => {
                    self.a.mov_ri(D, i64::MIN as u64);
                    self.a.alu_rr(Alu::Cmp, A, D);
                }
                W::B4 => self.a.alu_ri(Alu::Cmp, A, i32::MIN),
                W::B2 => self.a.alu_ri(Alu::Cmp, A, i16::MIN as i32),
                W::B1 => self.a.alu_ri(Alu::Cmp, A, i8::MIN as i32),
            }
            self.a.jcc(Cc::E, self.l_overflow);
            self.a.bind(ok);
        } else if w == W::B8 {
            // wrapping_rem(i64::MIN, -1) == 0, but the hardware idiv
            // would fault — take the zero shortcut on any divisor of -1.
            let ok = self.a.label();
            self.a.alu_ri(Alu::Cmp, C, -1);
            self.a.jcc(Cc::Ne, ok);
            self.a.zero(A);
            self.st_slot64(i.a, A);
            self.a.jmp(done);
            self.a.bind(ok);
        }
        self.a.cqo();
        self.a.idiv(C);
        self.st_slot(i.a, if rem { D } else { A }, w);
        self.a.bind(done);
    }

    /// Unsigned division/remainder.
    fn udiv(&mut self, i: &BcInstr, w: W, rem: bool) {
        self.ld_slot_zx(A, i.b, w);
        self.ld_slot_zx(C, i.c, w);
        self.a.test_rr(C, C);
        self.a.jcc(Cc::E, self.l_divzero);
        self.a.zero(D);
        self.a.div(C);
        self.st_slot(i.a, if rem { D } else { A }, w);
    }

    /// Width conversion: load with the given extension, store at `to`.
    fn ext(&mut self, i: &BcInstr, from: W, to: W, signed: bool) {
        if signed {
            self.ld_slot_sx(A, i.b, from);
        } else {
            self.ld_slot_zx(A, i.b, from);
        }
        self.st_slot(i.a, A, to);
    }

    /// Call a Rust helper taking `xmm0` and returning in `rax`.
    fn call_f2i(&mut self, pc: usize, i: &BcInstr, helper: u64, to: W) {
        self.movsd_ld_slot(Xmm::Xmm0, i.b);
        let wnd = self.flush_for_call(pc);
        self.a.mov_ri(A, helper);
        self.a.call_reg(A);
        self.reload_after_call(&wnd);
        self.st_slot(i.a, A, to);
    }

    /// Leave the effective address `[slot(base)] + lit` in `rax`, returning
    /// the residual displacement to fold into the access.
    fn addr_disp(&mut self, base_slot: u16, lit: u64) -> Result<i32, String> {
        self.ld_slot64(A, base_slot);
        match i32::try_from(lit as i64) {
            Ok(d) => Ok(d),
            Err(_) => {
                self.a.mov_ri(C, lit);
                self.a.alu_rr(Alu::Add, A, C);
                Ok(0)
            }
        }
    }

    /// Leave `[slot(base)] + [slot(idx)] * scale` in `rax`, returning the
    /// displacement component.
    fn addr_idx(&mut self, base_slot: u16, idx_slot: u16, lit: u64) -> i32 {
        self.ld_slot64(A, base_slot);
        self.ld_slot64(C, idx_slot);
        self.a.imul_rri(C, C, BcInstr::idx_scale(lit) as i32);
        self.a.alu_rr(Alu::Add, A, C);
        BcInstr::idx_disp(lit) as i32
    }

    fn mem_load(&mut self, i: &BcInstr, w: W, addr: Addr) -> Result<(), String> {
        let disp = match addr {
            Addr::Plain => self.addr_disp(i.b, 0)?,
            Addr::Disp => self.addr_disp(i.b, i.lit)?,
            Addr::Idx => self.addr_idx(i.b, i.c, i.lit),
        };
        self.load_zx(C, A, disp, w);
        self.st_slot(i.a, C, w);
        Ok(())
    }

    fn mem_store(&mut self, i: &BcInstr, w: W, addr: Addr) -> Result<(), String> {
        let disp = match addr {
            Addr::Plain => self.addr_disp(i.a, 0)?,
            Addr::Disp => self.addr_disp(i.a, i.lit)?,
            Addr::Idx => self.addr_idx(i.a, i.c, i.lit),
        };
        self.ld_slot64(C, i.b);
        self.store_w(A, disp, C, w);
        Ok(())
    }

    /// One non-fused instruction — the native mirror of `exec_one`.
    #[allow(clippy::too_many_lines)]
    fn plain(&mut self, pc: usize, i: &BcInstr) -> Result<(), String> {
        use Op::*;
        match i.op {
            AddI8 => self.bin(i, Alu::Add, W::B1),
            AddI16 => self.bin(i, Alu::Add, W::B2),
            AddI32 => self.bin(i, Alu::Add, W::B4),
            AddI64 => self.bin(i, Alu::Add, W::B8),
            SubI8 => self.bin(i, Alu::Sub, W::B1),
            SubI16 => self.bin(i, Alu::Sub, W::B2),
            SubI32 => self.bin(i, Alu::Sub, W::B4),
            SubI64 => self.bin(i, Alu::Sub, W::B8),
            MulI8 => self.mul(i, W::B1),
            MulI16 => self.mul(i, W::B2),
            MulI32 => self.mul(i, W::B4),
            MulI64 => self.mul(i, W::B8),
            AndI8 => self.bin(i, Alu::And, W::B1),
            AndI16 => self.bin(i, Alu::And, W::B2),
            AndI32 => self.bin(i, Alu::And, W::B4),
            AndI64 => self.bin(i, Alu::And, W::B8),
            OrI8 => self.bin(i, Alu::Or, W::B1),
            OrI16 => self.bin(i, Alu::Or, W::B2),
            OrI32 => self.bin(i, Alu::Or, W::B4),
            OrI64 => self.bin(i, Alu::Or, W::B8),
            XorI8 => self.bin(i, Alu::Xor, W::B1),
            XorI16 => self.bin(i, Alu::Xor, W::B2),
            XorI32 => self.bin(i, Alu::Xor, W::B4),
            XorI64 => self.bin(i, Alu::Xor, W::B8),
            AddF64 => self.fbin(i, Sse::Add),
            SubF64 => self.fbin(i, Sse::Sub),
            MulF64 => self.fbin(i, Sse::Mul),
            FDivF64 => self.fbin(i, Sse::Div),

            SDivI8 => self.sdiv(i, W::B1, false),
            SDivI16 => self.sdiv(i, W::B2, false),
            SDivI32 => self.sdiv(i, W::B4, false),
            SDivI64 => self.sdiv(i, W::B8, false),
            SRemI8 => self.sdiv(i, W::B1, true),
            SRemI16 => self.sdiv(i, W::B2, true),
            SRemI32 => self.sdiv(i, W::B4, true),
            SRemI64 => self.sdiv(i, W::B8, true),
            UDivI8 => self.udiv(i, W::B1, false),
            UDivI16 => self.udiv(i, W::B2, false),
            UDivI32 => self.udiv(i, W::B4, false),
            UDivI64 => self.udiv(i, W::B8, false),
            URemI8 => self.udiv(i, W::B1, true),
            URemI16 => self.udiv(i, W::B2, true),
            URemI32 => self.udiv(i, W::B4, true),
            URemI64 => self.udiv(i, W::B8, true),

            ShlI8 => self.shift(i, Shift::Shl, W::B1),
            ShlI16 => self.shift(i, Shift::Shl, W::B2),
            ShlI32 => self.shift(i, Shift::Shl, W::B4),
            ShlI64 => self.shift(i, Shift::Shl, W::B8),
            AShrI8 => self.shift(i, Shift::Sar, W::B1),
            AShrI16 => self.shift(i, Shift::Sar, W::B2),
            AShrI32 => self.shift(i, Shift::Sar, W::B4),
            AShrI64 => self.shift(i, Shift::Sar, W::B8),
            LShrI8 => self.shift(i, Shift::Shr, W::B1),
            LShrI16 => self.shift(i, Shift::Shr, W::B2),
            LShrI32 => self.shift(i, Shift::Shr, W::B4),
            LShrI64 => self.shift(i, Shift::Shr, W::B8),

            AddImmI32 => self.bin_imm(i, Alu::Add, W::B4),
            AddImmI64 => self.bin_imm(i, Alu::Add, W::B8),
            SubImmI32 => self.bin_imm(i, Alu::Sub, W::B4),
            SubImmI64 => self.bin_imm(i, Alu::Sub, W::B8),
            MulImmI32 => self.mul_imm(i, W::B4),
            MulImmI64 => self.mul_imm(i, W::B8),
            AndImmI32 => self.bin_imm(i, Alu::And, W::B4),
            AndImmI64 => self.bin_imm(i, Alu::And, W::B8),
            OrImmI32 => self.bin_imm(i, Alu::Or, W::B4),
            OrImmI64 => self.bin_imm(i, Alu::Or, W::B8),
            XorImmI32 => self.bin_imm(i, Alu::Xor, W::B4),
            XorImmI64 => self.bin_imm(i, Alu::Xor, W::B8),
            AddImmF64 => self.fbin_imm(i, Sse::Add),
            MulImmF64 => self.fbin_imm(i, Sse::Mul),
            ShlImmI32 => self.shift_imm(i, Shift::Shl, W::B4),
            ShlImmI64 => self.shift_imm(i, Shift::Shl, W::B8),
            AShrImmI32 => self.shift_imm(i, Shift::Sar, W::B4),
            AShrImmI64 => self.shift_imm(i, Shift::Sar, W::B8),
            LShrImmI32 => self.shift_imm(i, Shift::Shr, W::B4),
            LShrImmI64 => self.shift_imm(i, Shift::Shr, W::B8),

            CmpEqI8 => self.cmp(i, Cc::E, false, W::B1, None),
            CmpEqI16 => self.cmp(i, Cc::E, false, W::B2, None),
            CmpEqI32 => self.cmp(i, Cc::E, false, W::B4, None),
            CmpEqI64 => self.cmp(i, Cc::E, false, W::B8, None),
            CmpNeI8 => self.cmp(i, Cc::Ne, false, W::B1, None),
            CmpNeI16 => self.cmp(i, Cc::Ne, false, W::B2, None),
            CmpNeI32 => self.cmp(i, Cc::Ne, false, W::B4, None),
            CmpNeI64 => self.cmp(i, Cc::Ne, false, W::B8, None),
            CmpSltI8 => self.cmp(i, Cc::L, true, W::B1, None),
            CmpSltI16 => self.cmp(i, Cc::L, true, W::B2, None),
            CmpSltI32 => self.cmp(i, Cc::L, true, W::B4, None),
            CmpSltI64 => self.cmp(i, Cc::L, true, W::B8, None),
            CmpSleI8 => self.cmp(i, Cc::Le, true, W::B1, None),
            CmpSleI16 => self.cmp(i, Cc::Le, true, W::B2, None),
            CmpSleI32 => self.cmp(i, Cc::Le, true, W::B4, None),
            CmpSleI64 => self.cmp(i, Cc::Le, true, W::B8, None),
            CmpSgtI8 => self.cmp(i, Cc::G, true, W::B1, None),
            CmpSgtI16 => self.cmp(i, Cc::G, true, W::B2, None),
            CmpSgtI32 => self.cmp(i, Cc::G, true, W::B4, None),
            CmpSgtI64 => self.cmp(i, Cc::G, true, W::B8, None),
            CmpSgeI8 => self.cmp(i, Cc::Ge, true, W::B1, None),
            CmpSgeI16 => self.cmp(i, Cc::Ge, true, W::B2, None),
            CmpSgeI32 => self.cmp(i, Cc::Ge, true, W::B4, None),
            CmpSgeI64 => self.cmp(i, Cc::Ge, true, W::B8, None),
            CmpUltI8 => self.cmp(i, Cc::B, false, W::B1, None),
            CmpUltI16 => self.cmp(i, Cc::B, false, W::B2, None),
            CmpUltI32 => self.cmp(i, Cc::B, false, W::B4, None),
            CmpUltI64 => self.cmp(i, Cc::B, false, W::B8, None),
            CmpUleI8 => self.cmp(i, Cc::Be, false, W::B1, None),
            CmpUleI16 => self.cmp(i, Cc::Be, false, W::B2, None),
            CmpUleI32 => self.cmp(i, Cc::Be, false, W::B4, None),
            CmpUleI64 => self.cmp(i, Cc::Be, false, W::B8, None),
            CmpUgtI8 => self.cmp(i, Cc::A, false, W::B1, None),
            CmpUgtI16 => self.cmp(i, Cc::A, false, W::B2, None),
            CmpUgtI32 => self.cmp(i, Cc::A, false, W::B4, None),
            CmpUgtI64 => self.cmp(i, Cc::A, false, W::B8, None),
            CmpUgeI8 => self.cmp(i, Cc::Ae, false, W::B1, None),
            CmpUgeI16 => self.cmp(i, Cc::Ae, false, W::B2, None),
            CmpUgeI32 => self.cmp(i, Cc::Ae, false, W::B4, None),
            CmpUgeI64 => self.cmp(i, Cc::Ae, false, W::B8, None),
            CmpEqF64 | CmpNeF64 | CmpLtF64 | CmpLeF64 | CmpGtF64 | CmpGeF64 => self.fcmp(i, i.op),

            CmpImmEqI32 => {
                let v = Self::cmp_imm_val(i.lit, false, W::B4);
                self.cmp(i, Cc::E, false, W::B4, Some(v));
            }
            CmpImmEqI64 => self.cmp(i, Cc::E, false, W::B8, Some(i.lit)),
            CmpImmNeI32 => {
                let v = Self::cmp_imm_val(i.lit, false, W::B4);
                self.cmp(i, Cc::Ne, false, W::B4, Some(v));
            }
            CmpImmNeI64 => self.cmp(i, Cc::Ne, false, W::B8, Some(i.lit)),
            CmpImmSltI32 => {
                let v = Self::cmp_imm_val(i.lit, true, W::B4);
                self.cmp(i, Cc::L, true, W::B4, Some(v));
            }
            CmpImmSltI64 => self.cmp(i, Cc::L, true, W::B8, Some(i.lit)),
            CmpImmSleI32 => {
                let v = Self::cmp_imm_val(i.lit, true, W::B4);
                self.cmp(i, Cc::Le, true, W::B4, Some(v));
            }
            CmpImmSleI64 => self.cmp(i, Cc::Le, true, W::B8, Some(i.lit)),
            CmpImmSgtI32 => {
                let v = Self::cmp_imm_val(i.lit, true, W::B4);
                self.cmp(i, Cc::G, true, W::B4, Some(v));
            }
            CmpImmSgtI64 => self.cmp(i, Cc::G, true, W::B8, Some(i.lit)),
            CmpImmSgeI32 => {
                let v = Self::cmp_imm_val(i.lit, true, W::B4);
                self.cmp(i, Cc::Ge, true, W::B4, Some(v));
            }
            CmpImmSgeI64 => self.cmp(i, Cc::Ge, true, W::B8, Some(i.lit)),
            CmpImmUltI32 => {
                let v = Self::cmp_imm_val(i.lit, false, W::B4);
                self.cmp(i, Cc::B, false, W::B4, Some(v));
            }
            CmpImmUltI64 => self.cmp(i, Cc::B, false, W::B8, Some(i.lit)),
            CmpImmUleI32 => {
                let v = Self::cmp_imm_val(i.lit, false, W::B4);
                self.cmp(i, Cc::Be, false, W::B4, Some(v));
            }
            CmpImmUleI64 => self.cmp(i, Cc::Be, false, W::B8, Some(i.lit)),
            CmpImmUgtI32 => {
                let v = Self::cmp_imm_val(i.lit, false, W::B4);
                self.cmp(i, Cc::A, false, W::B4, Some(v));
            }
            CmpImmUgtI64 => self.cmp(i, Cc::A, false, W::B8, Some(i.lit)),
            CmpImmUgeI32 => {
                let v = Self::cmp_imm_val(i.lit, false, W::B4);
                self.cmp(i, Cc::Ae, false, W::B4, Some(v));
            }
            CmpImmUgeI64 => self.cmp(i, Cc::Ae, false, W::B8, Some(i.lit)),

            AddOvfTrapI32 | SubOvfTrapI32 | MulOvfTrapI32 => {
                self.ovf(i, i.op, W::B4, OvfMode::Trap)
            }
            AddOvfTrapI64 | SubOvfTrapI64 | MulOvfTrapI64 => {
                self.ovf(i, i.op, W::B8, OvfMode::Trap)
            }
            AddOvfValI32 | SubOvfValI32 | MulOvfValI32 => self.ovf(i, i.op, W::B4, OvfMode::Val),
            AddOvfValI64 | SubOvfValI64 | MulOvfValI64 => self.ovf(i, i.op, W::B8, OvfMode::Val),
            AddOvfFlagI32 | SubOvfFlagI32 | MulOvfFlagI32 => {
                self.ovf(i, i.op, W::B4, OvfMode::Flag)
            }
            AddOvfFlagI64 | SubOvfFlagI64 | MulOvfFlagI64 => {
                self.ovf(i, i.op, W::B8, OvfMode::Flag)
            }

            SExtI8I16 => self.ext(i, W::B1, W::B2, true),
            SExtI8I32 => self.ext(i, W::B1, W::B4, true),
            SExtI8I64 => self.ext(i, W::B1, W::B8, true),
            SExtI16I32 => self.ext(i, W::B2, W::B4, true),
            SExtI16I64 => self.ext(i, W::B2, W::B8, true),
            SExtI32I64 => self.ext(i, W::B4, W::B8, true),
            ZExtI8I16 => self.ext(i, W::B1, W::B2, false),
            ZExtI8I32 => self.ext(i, W::B1, W::B4, false),
            ZExtI8I64 => self.ext(i, W::B1, W::B8, false),
            ZExtI16I32 => self.ext(i, W::B2, W::B4, false),
            ZExtI16I64 => self.ext(i, W::B2, W::B8, false),
            ZExtI32I64 => self.ext(i, W::B4, W::B8, false),
            SiToFpI32 => {
                self.ld_slot_sx(A, i.b, W::B4);
                self.a.cvtsi2sd(Xmm::Xmm0, A);
                self.movsd_st_slot(i.a, Xmm::Xmm0);
            }
            SiToFpI64 => {
                self.ld_slot64(A, i.b);
                self.a.cvtsi2sd(Xmm::Xmm0, A);
                self.movsd_st_slot(i.a, Xmm::Xmm0);
            }
            FpToSiI32 => self.call_f2i(pc, i, self.helpers.f2i32, W::B4),
            FpToSiI64 => self.call_f2i(pc, i, self.helpers.f2i64, W::B8),

            Mov64 => {
                self.ld_slot64(A, i.b);
                self.st_slot64(i.a, A);
            }
            Const64 => {
                self.a.mov_ri(A, i.lit);
                self.st_slot64(i.a, A);
            }
            Select64 => {
                self.ld_slot_zx(A, i.b, W::B1);
                self.ld_slot64(C, i.c);
                self.ld_slot64(D, i.lit as u16);
                self.a.test_rr(A, A);
                self.a.cmovcc(Cc::E, C, D);
                self.st_slot64(i.a, C);
            }

            Load8 => self.mem_load(i, W::B1, Addr::Plain)?,
            Load16 => self.mem_load(i, W::B2, Addr::Plain)?,
            Load32 => self.mem_load(i, W::B4, Addr::Plain)?,
            Load64 => self.mem_load(i, W::B8, Addr::Plain)?,
            Load8Disp => self.mem_load(i, W::B1, Addr::Disp)?,
            Load16Disp => self.mem_load(i, W::B2, Addr::Disp)?,
            Load32Disp => self.mem_load(i, W::B4, Addr::Disp)?,
            Load64Disp => self.mem_load(i, W::B8, Addr::Disp)?,
            Load8Idx => self.mem_load(i, W::B1, Addr::Idx)?,
            Load16Idx => self.mem_load(i, W::B2, Addr::Idx)?,
            Load32Idx => self.mem_load(i, W::B4, Addr::Idx)?,
            Load64Idx => self.mem_load(i, W::B8, Addr::Idx)?,
            Store8 => self.mem_store(i, W::B1, Addr::Plain)?,
            Store16 => self.mem_store(i, W::B2, Addr::Plain)?,
            Store32 => self.mem_store(i, W::B4, Addr::Plain)?,
            Store64 => self.mem_store(i, W::B8, Addr::Plain)?,
            Store8Disp => self.mem_store(i, W::B1, Addr::Disp)?,
            Store16Disp => self.mem_store(i, W::B2, Addr::Disp)?,
            Store32Disp => self.mem_store(i, W::B4, Addr::Disp)?,
            Store64Disp => self.mem_store(i, W::B8, Addr::Disp)?,
            Store8Idx => self.mem_store(i, W::B1, Addr::Idx)?,
            Store16Idx => self.mem_store(i, W::B2, Addr::Idx)?,
            Store32Idx => self.mem_store(i, W::B4, Addr::Idx)?,
            Store64Idx => self.mem_store(i, W::B8, Addr::Idx)?,
            GepIdx => {
                let disp = self.addr_idx(i.b, i.c, i.lit);
                if disp != 0 {
                    self.a.lea(A, A, disp);
                }
                self.st_slot64(i.a, A);
            }

            Br => self.jmp_or_fall(pc, i.lit)?,
            CondBr => {
                self.ld_slot_zx(A, i.b, W::B1);
                self.branch_on_al(
                    pc,
                    BcInstr::branch_then(i.lit) as u64,
                    BcInstr::branch_else(i.lit) as u64,
                )?;
            }
            Ret => {
                self.a.mov_ri(A, STATUS_RET_NONE);
                self.a.jmp(self.l_epilogue);
            }
            RetVal => {
                self.ld_slot64(D, i.a);
                self.a.mov_ri(A, STATUS_RET_VAL);
                self.a.jmp(self.l_epilogue);
            }
            TrapOp => match i.lit {
                TRAP_OVERFLOW => self.a.jmp(self.l_overflow),
                TRAP_DIV_ZERO => self.a.jmp(self.l_divzero),
                other => {
                    self.a.mov_ri(D, (other & !TRAP_USER_BASE) as u32 as u64);
                    self.a.mov_ri(A, STATUS_USER_TRAP);
                    self.a.jmp(self.l_epilogue);
                }
            },
            CallRt => {
                let table_off = i
                    .lit
                    .checked_mul(8)
                    .and_then(|o| i32::try_from(o).ok())
                    .ok_or_else(|| format!("runtime-call index {} out of range", i.lit))?;
                // Arg/ret slots are frame-pinned by the allocator; only
                // caller-saved promoted registers need syncing.
                let wnd = self.flush_for_call(pc);
                self.a.load64(Reg::Rdi, FNS, table_off);
                self.a.lea(Reg::Rsi, REGS, s(i.b));
                self.a.lea(Reg::Rdx, REGS, s(i.a));
                self.a.mov_ri(A, self.helpers.rt_tramp);
                self.a.call_reg(A);
                self.reload_after_call(&wnd);
            }
        }
        Ok(())
    }
}

#[derive(Clone, Copy)]
enum Addr {
    Plain,
    Disp,
    Idx,
}

#[derive(Clone, Copy)]
enum OvfMode {
    Trap,
    Val,
    Flag,
}

/// A memory-operand displacement from an instruction literal; lowering
/// rejects the (never generated) case of a displacement beyond ±2 GiB.
fn disp32(lit: u64) -> Result<i32, String> {
    i32::try_from(lit as i64).map_err(|_| "accumulator displacement exceeds i32".to_string())
}
