//! # aqe-jit — machine-code backends (paper §II–III)
//!
//! The paper compiles worker functions to machine code with LLVM at two
//! levels: **unoptimized** ("fast instruction selection, no IR optimization
//! passes, low backend optimization level") and **optimized** (hand-picked
//! IR passes + full backend optimization). This crate compiles to real
//! x86-64 machine code at the same two levels (see DESIGN.md §2 and §7):
//!
//! * [`compile()`] at an [`OptLevel`] — the front half shared by both:
//!   IR to a packed step stream, with the pass pipeline and slot
//!   coalescing only at `Optimized`;
//! * [`mod@native`] — lowering of that stream to x86-64 in executable
//!   pages ([`compile_native_at`]). O0 (`ExecMode::Unoptimized`, rank 2)
//!   keeps every slot in the frame; O2 ([`compile_native`],
//!   `ExecMode::Native`, rank 4) allocates registers. The emitter is
//!   `cfg`-gated to x86-64 Linux; elsewhere the engine aliases every
//!   compiled mode to bytecode.
//!
//! The levels preserve the three properties the paper's evaluation depends
//! on:
//!
//! 1. **Cost ordering & scaling** — O0 compilation is a strictly linear
//!    pipeline (translation, packing, template lowering), while O2 runs a
//!    real optimization pass pipeline plus an interference-graph register
//!    coalescer and a register allocator, whose super-linear cost
//!    reproduces why LLVM `-O2` explodes on huge machine-generated queries
//!    (§V-E, Fig. 15).
//! 2. **Speed ordering** — O2 code keeps hot values in registers and runs
//!    fewer instructions than O0 code, which runs without any dispatch and
//!    outruns the bytecode VM (measured ratios in EXPERIMENTS.md).
//! 3. **Identical semantics** — all backends execute the same IR with the
//!    same traps, so the adaptive engine can switch a pipeline mid-flight
//!    without losing work (§III-B).

pub mod coalesce;
pub mod compile;
pub mod emit;
pub mod native;
pub mod passes;

pub use compile::{compile, CompileStats, CompiledFunction, OptLevel};
pub use native::{compile_native, compile_native_at, NativeError, NativeFunction, NativeStats};
pub use passes::{optimize, PassStats};
