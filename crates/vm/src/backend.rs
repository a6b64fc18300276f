//! The unified execution-backend seam (paper Fig. 5).
//!
//! Every way of running a worker function — direct IR walking, the
//! bytecode VM, and the two native machine-code levels of `aqe-jit` —
//! implements [`PipelineBackend`]. The engine's morsel loop calls through
//! a single `Arc<dyn PipelineBackend>` handle and never branches on the
//! mode; the adaptive controller switches a pipeline mid-flight by
//! atomically publishing a different backend into that handle. Future
//! backends (remote execution) would plug in the same way.
//!
//! The trait lives here, at the bottom of the crate stack, because its
//! vocabulary types ([`Frame`], [`Registry`], [`ExecError`]) do and because
//! both `aqe-vm` and `aqe-jit` provide implementations.

use crate::interp::{ExecError, Frame};
use crate::rt::Registry;

/// How to execute a query (Fig. 3's modes plus the two interpreter
/// baselines of Fig. 2). `NaiveIr`, `Bytecode`, `Unoptimized`, `Native`
/// and `Simd` name concrete backends; `Optimized` is an alias of `Native`,
/// and `Adaptive` is the engine policy that starts at `Bytecode` and
/// upgrades at runtime. Without the native emitter (non-x86-64 targets,
/// `AQE_NATIVE=0`) every compiled mode aliases to `Bytecode`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ExecMode {
    /// Direct IR interpretation (the "LLVM interpreter" stand-in).
    NaiveIr,
    /// Bytecode VM for every morsel.
    Bytecode,
    /// Compile every pipeline up front to O0 machine code: the
    /// unoptimized step stream, lowered without register allocation.
    Unoptimized,
    /// Alias of `Native`: the paper's "optimized" level is the O2 native
    /// backend. No backend reports this kind.
    Optimized,
    /// Compile every pipeline up front to O2 machine code: the optimized
    /// step stream, lowered with register allocation.
    Native,
    /// Vectorized scan kernels layered over the scalar worker: a
    /// packed-compare filter pre-pass (SSE2/AVX2) produces a selection
    /// bitmask and only the surviving row runs enter the scalar code. On
    /// pipelines without a vectorizable filter — or with `AQE_SIMD=0` —
    /// the engine aliases this mode to `Native`.
    Simd,
    /// The paper's contribution: start in bytecode, switch adaptively.
    Adaptive,
}

impl ExecMode {
    /// Total order of backend quality used by the hot-swap handle: a
    /// backend may only ever be replaced by a higher-ranked one. Aliases
    /// rank as the backend they select: `Adaptive` as its starting
    /// backend (bytecode), `Optimized` as `Native`. Rank 3 is unused.
    pub fn rank(self) -> u8 {
        match self {
            ExecMode::NaiveIr => 0,
            ExecMode::Bytecode | ExecMode::Adaptive => 1,
            ExecMode::Unoptimized => 2,
            ExecMode::Optimized | ExecMode::Native => 4,
            ExecMode::Simd => 5,
        }
    }

    /// Compact code used in execution traces (Fig. 14): 0 = bytecode,
    /// 1 = O0 machine code, 3 = naive IR, 4 = O2 machine code,
    /// 5 = vectorized scan kernel. Aliases map like [`rank`](Self::rank),
    /// so 2 (the retired optimized threaded code) is never produced.
    /// (255 marks a compilation event and never names a backend.)
    pub fn trace_kind(self) -> u8 {
        match self {
            ExecMode::Bytecode | ExecMode::Adaptive => 0,
            ExecMode::Unoptimized => 1,
            ExecMode::NaiveIr => 3,
            ExecMode::Optimized | ExecMode::Native => 4,
            ExecMode::Simd => 5,
        }
    }
}

/// One executable representation of a worker function.
///
/// Object-safe on purpose: the engine stores `Arc<dyn PipelineBackend>` in
/// its hot-swappable function handles and treats every representation
/// identically. Implementations must be freely callable from many worker
/// threads at once (`Send + Sync`) and — the §III-B contract — behave
/// *identically* for identical inputs, traps included, so a pipeline can
/// switch representation between two morsels without changing results.
pub trait PipelineBackend: Send + Sync {
    /// Run the function over one morsel. `args` follow the worker ABI
    /// (context pointer, state pointer, morsel begin, morsel end); `frame`
    /// is the caller's reusable register-file buffer (backends that do not
    /// use a register file simply ignore it).
    fn call(
        &self,
        args: &[u64],
        rt: &Registry,
        frame: &mut Frame,
    ) -> Result<Option<u64>, ExecError>;

    /// Which backend this is (never `Adaptive` — that is a policy, not a
    /// backend).
    fn kind(&self) -> ExecMode;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_ordered_and_adaptive_starts_at_bytecode() {
        assert!(ExecMode::NaiveIr.rank() < ExecMode::Bytecode.rank());
        assert!(ExecMode::Bytecode.rank() < ExecMode::Unoptimized.rank());
        assert!(ExecMode::Unoptimized.rank() < ExecMode::Native.rank());
        assert!(ExecMode::Native.rank() < ExecMode::Simd.rank());
        assert_eq!(ExecMode::Adaptive.rank(), ExecMode::Bytecode.rank());
        assert_eq!(ExecMode::Optimized.rank(), ExecMode::Native.rank());
    }

    #[test]
    fn trace_kinds_match_fig14_legend() {
        assert_eq!(ExecMode::Bytecode.trace_kind(), 0);
        assert_eq!(ExecMode::Unoptimized.trace_kind(), 1);
        assert_eq!(ExecMode::Optimized.trace_kind(), 4);
        assert_eq!(ExecMode::NaiveIr.trace_kind(), 3);
        assert_eq!(ExecMode::Native.trace_kind(), 4);
        assert_eq!(ExecMode::Simd.trace_kind(), 5);
    }

    #[test]
    fn trait_is_object_safe() {
        struct Null;
        impl PipelineBackend for Null {
            fn call(
                &self,
                _args: &[u64],
                _rt: &Registry,
                _frame: &mut Frame,
            ) -> Result<Option<u64>, ExecError> {
                Ok(None)
            }
            fn kind(&self) -> ExecMode {
                ExecMode::Bytecode
            }
        }
        let b: std::sync::Arc<dyn PipelineBackend> = std::sync::Arc::new(Null);
        let mut frame = Frame::new();
        assert_eq!(b.call(&[], &Registry::new(), &mut frame), Ok(None));
    }
}
