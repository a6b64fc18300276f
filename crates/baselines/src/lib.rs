//! # aqe-baselines — interpretation-based comparison engines
//!
//! Tables I and II of the paper compare HyPer against PostgreSQL
//! (Volcano-style tuple-at-a-time interpretation) and MonetDB
//! (column-at-a-time execution). Those systems cannot be embedded here, so
//! this crate provides honest architectural stand-ins that execute the
//! *same physical plan trees over the same data* as the compiling engine
//! (DESIGN.md §2, substitution 3):
//!
//! * [`volcano`] — a classic iterator engine: virtual `next()` per tuple,
//!   boxed operators, per-tuple expression interpretation;
//! * [`vectorized`] — column-at-a-time with full materialisation of
//!   intermediate results (MonetDB-style BAT algebra, simplified).
//!
//! Both return rows in the engine's u64 representation so results can be
//! compared bit-for-bit with compiled execution.
//!
//! These engines deliberately do **not** implement
//! `aqe_vm::backend::PipelineBackend`: that trait is the seam for
//! *representations of the same generated worker function* (bytecode,
//! machine code, direct IR), which the adaptive controller may hot-swap
//! mid-pipeline. The baselines execute the plan tree by entirely different
//! architectures and exist to be compared *against* the unified engine —
//! the eval harness (`aqe-bench`) runs them side by side with every
//! `ExecMode` of the compiling engine.

pub mod eval;
pub mod vectorized;
pub mod volcano;

pub use vectorized::execute_vectorized;
pub use volcano::execute_volcano;
