//! The native x86-64 machine-code backend, at the paper's two levels.
//!
//! A worker function is compiled to a packed step stream ([`compile`])
//! and then lowered to real x86-64 instructions (the private `lower`
//! module), mapped into executable pages (`execmem`, raw mmap/mprotect),
//! and called through a `extern "C"` entry point. Runtime calls (hash
//! tables, output writers, string ops) go back into the shared
//! [`Registry`] through a Rust-compiled trampoline. The level picks both
//! halves:
//!
//! * **O0** ([`OptLevel::Unoptimized`], `ExecMode::Unoptimized`, rank 2):
//!   the unoptimized step stream, every slot kept in the frame — the
//!   stand-in for LLVM's fast instruction selection;
//! * **O2** ([`OptLevel::Optimized`], `ExecMode::Native`, rank 4): the
//!   optimized step stream (passes, slot coalescing) with linear-scan
//!   register allocation.
//!
//! # Portability
//! The emitter is `cfg(all(target_arch = "x86_64", target_os = "linux"))`.
//! On any other target [`compile_native_at`] returns
//! [`NativeError::Unavailable`] and the engine aliases every compiled
//! mode to bytecode — every mode keeps working, only the speed differs.
//! Setting `AQE_NATIVE=0` forces the same fallback on x86-64 Linux (the CI
//! runs the whole suite both ways).

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod asm;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod execmem;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod lower;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod regalloc;

use crate::compile::{compile, CompileStats, OptLevel};
use aqe_ir::{ExternDecl, Function};
use aqe_vm::backend::{ExecMode, PipelineBackend};
use aqe_vm::interp::{ExecError, Frame, STACK_FRAME_BYTES};
use aqe_vm::rt::Registry;
use std::fmt;
use std::time::Duration;

/// Whether this build contains the machine-code emitter at all.
pub const HAVE_EMITTER: bool = cfg!(all(target_arch = "x86_64", target_os = "linux"));

/// Whether native compilation is available right now: the emitter is
/// compiled in and `AQE_NATIVE=0` has not forced the fallback path.
pub fn enabled() -> bool {
    HAVE_EMITTER && std::env::var("AQE_NATIVE").map_or(true, |v| v != "0")
}

/// Why a native compilation did not produce machine code.
#[derive(Clone, Debug, PartialEq)]
pub enum NativeError {
    /// No emitter on this target, or `AQE_NATIVE=0`: alias to bytecode.
    Unavailable(&'static str),
    /// The step-stream compilation failed.
    Compile(String),
    /// Lowering or mapping rejected the function.
    Lower(String),
}

impl fmt::Display for NativeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NativeError::Unavailable(why) => write!(f, "native backend unavailable: {why}"),
            NativeError::Compile(m) => write!(f, "native compile failed: {m}"),
            NativeError::Lower(m) => write!(f, "native lowering failed: {m}"),
        }
    }
}

impl std::error::Error for NativeError {}

/// Everything measured about one native compilation.
#[derive(Clone, Debug, Default)]
pub struct NativeStats {
    /// Total wall time: step-stream compile, lowering, and mapping.
    pub compile_time: Duration,
    /// Emitted machine-code bytes (before page rounding).
    pub code_bytes: usize,
    /// Steps lowered.
    pub steps: usize,
    /// Stats of the step-stream compile this was lowered from.
    pub front: CompileStats,
}

/// A function compiled to executable x86-64 machine code.
///
/// Implements [`PipelineBackend`]: `kind()` is `ExecMode::Unoptimized`
/// (rank 2) for O0 code and `ExecMode::Native` (rank 4) for O2 code, so
/// the engine's hot-swap handles upgrade O0 to O2 and never back.
pub struct NativeFunction {
    pub name: String,
    pub level: OptLevel,
    pub frame_size: u32,
    pub param_slots: Vec<u16>,
    pub has_ret: bool,
    pub stats: NativeStats,
    /// The executable mapping — private on every target so the struct can
    /// only be built by [`compile_native`] (on fallback targets nothing
    /// constructs it at all, keeping the `call` path unreachable).
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    code: execmem::ExecMem,
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
    #[allow(dead_code)]
    code: (),
}

impl fmt::Debug for NativeFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NativeFunction")
            .field("name", &self.name)
            .field("frame_size", &self.frame_size)
            .field("code_bytes", &self.stats.code_bytes)
            .finish()
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod imp {
    use super::*;

    /// Two-register return of the generated code: `rax` = status,
    /// `rdx` = value (return value or user-trap code).
    #[repr(C)]
    pub(super) struct RawRet {
        pub status: u64,
        pub val: u64,
    }

    pub(super) type Entry =
        unsafe extern "C" fn(regs: *mut u8, fns: *const aqe_vm::rt::RtFn) -> RawRet;

    /// `RtFn` uses the (unstable) Rust ABI, so generated code reaches it
    /// through this C-ABI trampoline. The `RtFn` parameter is a plain code
    /// pointer at the ABI level — the lint fires because its *callee-side*
    /// ABI is Rust, which is exactly what this trampoline exists to absorb.
    #[allow(improper_ctypes_definitions)]
    pub(super) unsafe extern "C" fn rt_trampoline(
        f: aqe_vm::rt::RtFn,
        args: *const u64,
        ret: *mut u64,
    ) {
        unsafe { f(args, ret) }
    }

    /// Rust `as i32` float→int conversion (saturating, NaN → 0) — the
    /// hardware `cvttsd2si` disagrees on the edge cases, so the generated
    /// code calls out.
    pub(super) extern "C" fn f2i32(x: f64) -> i64 {
        x as i32 as i64
    }

    pub(super) extern "C" fn f2i64(x: f64) -> i64 {
        x as i64
    }

    pub(super) fn helpers() -> lower::Helpers {
        lower::Helpers {
            rt_tramp: rt_trampoline as *const () as usize as u64,
            f2i32: f2i32 as *const () as usize as u64,
            f2i64: f2i64 as *const () as usize as u64,
        }
    }
}

/// Compile `f` to O2 native machine code: [`compile_native_at`] at
/// [`OptLevel::Optimized`].
pub fn compile_native(f: &Function, externs: &[ExternDecl]) -> Result<NativeFunction, NativeError> {
    compile_native_at(f, externs, OptLevel::Optimized)
}

/// Compile `f` to native machine code at `level` (step stream, then
/// lowering). Fails with [`NativeError::Unavailable`] when the emitter is
/// not usable — callers fall back to bytecode.
pub fn compile_native_at(
    f: &Function,
    externs: &[ExternDecl],
    level: OptLevel,
) -> Result<NativeFunction, NativeError> {
    if !enabled() {
        return Err(NativeError::Unavailable(if HAVE_EMITTER {
            "AQE_NATIVE=0"
        } else {
            "no x86-64 Linux emitter on this target"
        }));
    }
    aqe_fault::failpoint("native_compile").map_err(NativeError::Compile)?;
    compile_native_impl(f, externs, level)
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn compile_native_impl(
    f: &Function,
    externs: &[ExternDecl],
    level: OptLevel,
) -> Result<NativeFunction, NativeError> {
    let start = std::time::Instant::now();
    let cf = compile(f, externs, level).map_err(|e| NativeError::Compile(e.to_string()))?;
    let code = lower::lower(&cf, externs, imp::helpers()).map_err(NativeError::Lower)?;
    let code_bytes = code.len();
    let mem = execmem::ExecMem::map(&code).map_err(NativeError::Lower)?;
    Ok(NativeFunction {
        name: cf.name.clone(),
        level,
        frame_size: cf.frame_size,
        param_slots: cf.param_slots.clone(),
        has_ret: cf.has_ret,
        stats: NativeStats {
            compile_time: start.elapsed(),
            code_bytes,
            steps: cf.steps.len(),
            front: cf.stats,
        },
        code: mem,
    })
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
fn compile_native_impl(
    _f: &Function,
    _externs: &[ExternDecl],
    _level: OptLevel,
) -> Result<NativeFunction, NativeError> {
    Err(NativeError::Unavailable("no x86-64 Linux emitter on this target"))
}

/// Lower `f` to its raw O2 machine-code byte stream with *pinned* helper
/// addresses, without mapping or executing anything. Helper call targets are
/// normally absolute process addresses, which would make the bytes differ
/// between runs; pinning them makes the stream a stable function of the
/// input alone — the form the corpus oracle fingerprints ("bit-identical
/// codegen" is asserted against digests of exactly these bytes).
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub fn lower_to_bytes_pinned(f: &Function, externs: &[ExternDecl]) -> Result<Vec<u8>, NativeError> {
    let cf = compile(f, externs, OptLevel::Optimized)
        .map_err(|e| NativeError::Compile(e.to_string()))?;
    let helpers = lower::Helpers {
        rt_tramp: 0x7f00_0000_0000_1000,
        f2i32: 0x7f00_0000_0000_2000,
        f2i64: 0x7f00_0000_0000_3000,
    };
    lower::lower(&cf, externs, helpers).map_err(NativeError::Lower)
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub fn lower_to_bytes_pinned(
    _f: &Function,
    _externs: &[ExternDecl],
) -> Result<Vec<u8>, NativeError> {
    Err(NativeError::Unavailable("no x86-64 Linux emitter on this target"))
}

/// Execute a native function (same calling convention as
/// [`aqe_vm::interp::execute`]).
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub fn execute_native(
    nf: &NativeFunction,
    args: &[u64],
    rt: &Registry,
    frame: &mut Frame,
) -> Result<Option<u64>, ExecError> {
    assert_eq!(args.len(), nf.param_slots.len(), "argument count mismatch");
    let size = nf.frame_size as usize;
    if size <= STACK_FRAME_BYTES {
        let mut stack_buf = [0u64; STACK_FRAME_BYTES / 8];
        run(nf, args, rt, stack_buf.as_mut_ptr() as *mut u8)
    } else {
        let ptr = frame.heap_ptr_pub(size);
        run(nf, args, rt, ptr)
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn run(
    nf: &NativeFunction,
    args: &[u64],
    rt: &Registry,
    regs: *mut u8,
) -> Result<Option<u64>, ExecError> {
    // Same frame preamble as every other backend: constants 0 and 1,
    // then the parameters.
    unsafe {
        std::ptr::write(regs as *mut u64, 0u64);
        std::ptr::write(regs.add(8) as *mut u64, 1u64);
        for (&slot, &v) in nf.param_slots.iter().zip(args) {
            std::ptr::write(regs.add(slot as usize) as *mut u64, v);
        }
    }
    let entry: imp::Entry = unsafe { std::mem::transmute(nf.code.as_ptr()) };
    let r = unsafe { entry(regs, rt.fns_ptr()) };
    match r.status {
        lower::STATUS_RET_NONE => Ok(None),
        lower::STATUS_RET_VAL => Ok(Some(r.val)),
        lower::STATUS_OVERFLOW => Err(ExecError::Overflow),
        lower::STATUS_DIV_ZERO => Err(ExecError::DivByZero),
        lower::STATUS_USER_TRAP => Err(ExecError::User(r.val as u32)),
        other => unreachable!("generated code returned unknown status {other}"),
    }
}

impl PipelineBackend for NativeFunction {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    fn call(
        &self,
        args: &[u64],
        rt: &Registry,
        frame: &mut Frame,
    ) -> Result<Option<u64>, ExecError> {
        execute_native(self, args, rt, frame)
    }

    #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
    fn call(
        &self,
        _args: &[u64],
        _rt: &Registry,
        _frame: &mut Frame,
    ) -> Result<Option<u64>, ExecError> {
        unreachable!("NativeFunction cannot be constructed without the emitter")
    }

    fn kind(&self) -> ExecMode {
        match self.level {
            OptLevel::Unoptimized => ExecMode::Unoptimized,
            OptLevel::Optimized => ExecMode::Native,
        }
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux", test))]
mod tests {
    use super::*;
    use aqe_ir::{BinOp, CmpPred, Constant, FunctionBuilder, OvfOp, Type};

    /// Skip the test body when `AQE_NATIVE=0` forces the fallback (the CI
    /// dimension that runs the suite without the emitter).
    macro_rules! require_native {
        () => {
            if !enabled() {
                eprintln!("native emitter disabled; skipping");
                return;
            }
        };
    }

    fn run_native(f: &aqe_ir::Function, args: &[u64]) -> Result<Option<u64>, ExecError> {
        let nf = compile_native(f, &[]).expect("native compile");
        let rt = Registry::new();
        let mut frame = Frame::new();
        execute_native(&nf, args, &rt, &mut frame)
    }

    fn sum_fn() -> aqe_ir::Function {
        let mut b = FunctionBuilder::new("sum", &[Type::I64], Some(Type::I64));
        let n = b.param(0);
        let head = b.add_block();
        let body = b.add_block();
        let exit = b.add_block();
        let pre = b.current_block();
        b.br(head);
        b.switch_to(head);
        let iv = b.phi(Type::I64, vec![(pre, Constant::i64(0).into())]);
        let acc = b.phi(Type::I64, vec![(pre, Constant::i64(0).into())]);
        let done = b.cmp(CmpPred::SGe, Type::I64, iv.into(), n.into());
        b.cond_br(done.into(), exit, body);
        b.switch_to(body);
        let acc2 = b.bin(BinOp::Add, Type::I64, acc.into(), iv.into());
        let iv2 = b.bin(BinOp::Add, Type::I64, iv.into(), Constant::i64(1).into());
        b.phi_add_incoming(iv, body, iv2.into());
        b.phi_add_incoming(acc, body, acc2.into());
        b.br(head);
        b.switch_to(exit);
        b.ret(Some(acc.into()));
        b.finish().unwrap()
    }

    #[test]
    fn native_loop_runs_correctly() {
        require_native!();
        let f = sum_fn();
        for n in [0u64, 1, 10, 1000] {
            assert_eq!(run_native(&f, &[n]).unwrap(), Some((0..n).sum::<u64>()));
        }
    }

    #[test]
    fn native_kind_is_rank_four() {
        require_native!();
        let f = sum_fn();
        let nf = compile_native(&f, &[]).unwrap();
        assert_eq!(nf.kind(), ExecMode::Native);
        assert_eq!(nf.kind().rank(), 4);
        assert!(nf.stats.code_bytes > 0);
    }

    #[test]
    fn unoptimized_runs_correctly() {
        require_native!();
        let f = sum_fn();
        let nf = compile_native_at(&f, &[], OptLevel::Unoptimized).unwrap();
        assert_eq!(nf.kind(), ExecMode::Unoptimized);
        assert_eq!(nf.kind().rank(), 2);
        let rt = Registry::new();
        let mut frame = Frame::new();
        for n in [0u64, 1, 10, 1000] {
            let got = execute_native(&nf, &[n], &rt, &mut frame).unwrap();
            assert_eq!(got, Some((0..n).sum::<u64>()));
        }
    }

    #[test]
    fn native_overflow_traps() {
        require_native!();
        let mut b = FunctionBuilder::new("f", &[Type::I64, Type::I64], Some(Type::I64));
        let s = b.checked_arith(OvfOp::Add, Type::I64, b.param(0).into(), b.param(1).into());
        b.ret(Some(s.into()));
        let f = b.finish().unwrap();
        assert_eq!(run_native(&f, &[1, 2]).unwrap(), Some(3));
        assert_eq!(run_native(&f, &[i64::MAX as u64, 1]), Err(ExecError::Overflow));
    }

    #[test]
    fn native_division_semantics_match_the_vm() {
        require_native!();
        let mut b = FunctionBuilder::new("f", &[Type::I64, Type::I64], Some(Type::I64));
        let s = b.bin(BinOp::SDiv, Type::I64, b.param(0).into(), b.param(1).into());
        b.ret(Some(s.into()));
        let f = b.finish().unwrap();
        assert_eq!(run_native(&f, &[10, 3]).unwrap(), Some(3));
        assert_eq!(run_native(&f, &[10, 0]), Err(ExecError::DivByZero));
        assert_eq!(run_native(&f, &[i64::MIN as u64, (-1i64) as u64]), Err(ExecError::Overflow));
    }

    #[test]
    fn native_srem_min_by_minus_one_is_zero() {
        require_native!();
        let mut b = FunctionBuilder::new("f", &[Type::I64, Type::I64], Some(Type::I64));
        let s = b.bin(BinOp::SRem, Type::I64, b.param(0).into(), b.param(1).into());
        b.ret(Some(s.into()));
        let f = b.finish().unwrap();
        assert_eq!(run_native(&f, &[10, 3]).unwrap(), Some(1));
        assert_eq!(run_native(&f, &[i64::MIN as u64, (-1i64) as u64]).unwrap(), Some(0));
    }

    #[test]
    fn native_float_pipeline() {
        require_native!();
        let mut b = FunctionBuilder::new("f", &[Type::F64, Type::F64], Some(Type::F64));
        let s = b.bin(BinOp::Add, Type::F64, b.param(0).into(), b.param(1).into());
        let q = b.bin(BinOp::FDiv, Type::F64, s.into(), Constant::f64(2.0).into());
        b.ret(Some(q.into()));
        let f = b.finish().unwrap();
        let r = run_native(&f, &[3.0f64.to_bits(), 5.0f64.to_bits()]).unwrap().unwrap();
        assert_eq!(f64::from_bits(r), 4.0);
    }

    #[test]
    fn native_float_compares_handle_nan() {
        require_native!();
        for (pred, expect_nan) in
            [(CmpPred::Eq, 0u64), (CmpPred::Ne, 1), (CmpPred::SLt, 0), (CmpPred::SGe, 0)]
        {
            let mut b = FunctionBuilder::new("f", &[Type::F64, Type::F64], Some(Type::I1));
            let c = b.cmp(pred, Type::F64, b.param(0).into(), b.param(1).into());
            b.ret(Some(c.into()));
            let f = b.finish().unwrap();
            let nan = f64::NAN.to_bits();
            let one = 1.0f64.to_bits();
            let got = run_native(&f, &[nan, one]).unwrap().unwrap() & 1;
            assert_eq!(got, expect_nan, "{pred:?} with NaN lhs");
        }
    }

    #[test]
    fn native_memory_roundtrip() {
        require_native!();
        let mut b = FunctionBuilder::new("f", &[Type::Ptr, Type::I64], Some(Type::I64));
        let slot = b.gep_indexed(b.param(0).into(), 0, Constant::i64(1).into(), 8);
        b.store(Type::I64, b.param(1).into(), slot.into());
        let slot2 = b.gep(b.param(0).into(), 8);
        let v = b.load(Type::I64, slot2.into());
        let r = b.bin(BinOp::Mul, Type::I64, v.into(), Constant::i64(2).into());
        b.ret(Some(r.into()));
        let f = b.finish().unwrap();
        let mut data = [0u64; 2];
        let r = run_native(&f, &[data.as_mut_ptr() as u64, 21]).unwrap();
        assert_eq!(r, Some(42));
        assert_eq!(data[1], 21);
    }

    #[test]
    fn native_runtime_call_through_trampoline() {
        require_native!();
        unsafe fn rt_add3(args: *const u64, ret: *mut u64) {
            unsafe { *ret = *args + *args.add(1) + *args.add(2) }
        }
        let mut m = aqe_ir::Module::new();
        let ext =
            m.declare_extern("rt_add3", vec![Type::I64, Type::I64, Type::I64], Some(Type::I64));
        let mut b = FunctionBuilder::new("f", &[Type::I64], Some(Type::I64));
        let r = b.call(
            ext,
            vec![b.param(0).into(), Constant::i64(10).into(), Constant::i64(100).into()],
            Some(Type::I64),
        );
        b.ret(Some(r.into()));
        let f = b.finish().unwrap();
        let nf = compile_native(&f, &m.externs).expect("native compile");
        let mut rt = Registry::new();
        rt.register(m.externs[0].clone(), rt_add3);
        let mut frame = Frame::new();
        assert_eq!(execute_native(&nf, &[1], &rt, &mut frame).unwrap(), Some(111));
    }

    #[test]
    fn emitter_gate_matches_target_and_env() {
        // This test module only builds on x86-64 Linux, where the emitter
        // exists; whether it is enabled follows AQE_NATIVE (the CI runs
        // the whole suite with AQE_NATIVE=0 to exercise the forced
        // fallback — the env var is process-wide, so tests never flip it
        // in place).
        let forced_off = std::env::var("AQE_NATIVE").is_ok_and(|v| v == "0");
        assert_eq!(enabled(), !forced_off);
        if forced_off {
            assert!(matches!(
                compile_native(&sum_fn(), &[]),
                Err(NativeError::Unavailable("AQE_NATIVE=0"))
            ));
        }
    }
}
