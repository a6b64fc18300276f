//! # aqe-ir — SSA intermediate representation
//!
//! This crate is the "LLVM IR" substrate of the reproduction of *Adaptive
//! Execution of Compiled Queries* (Kohn, Leis, Neumann; ICDE 2018). The query
//! engine's code generator emits functions in this IR; the bytecode
//! translator (`aqe-vm`) and the machine-code backends (`aqe-jit`)
//! consume it.
//!
//! The IR mirrors the subset of LLVM IR that a relational query compiler
//! actually generates (the paper notes in §VI that a database "knows much
//! more about the code structure and the instructions generated", which is
//! exactly the simplification applied here):
//!
//! * typed, fixed-width scalar values (`i1..i64`, `f64`, pointers),
//! * single static assignment with explicit φ nodes,
//! * overflow-checked arithmetic expressed as `*.with.overflow` +
//!   `extractvalue` + conditional branch to a trap block (the 4-instruction
//!   sequence the bytecode translator fuses into a single macro op, §IV-F),
//! * calls into a registry of known runtime functions (hash tables, output
//!   writers, …) declared on the [`Module`].
//!
//! The [`analysis`] module contains the CFG analyses the paper's linear-time
//! liveness computation is built from: reverse postorder, a dominator tree
//! with pre/post-order labels for O(1) ancestor tests, and a loop forest
//! computed with a disjoint-set union-find (§IV-D, Fig. 11/12).

pub mod analysis;
pub mod builder;
pub mod function;
pub mod hash;
pub mod instr;
pub mod key;
pub mod print;
pub mod testgen;
pub mod types;
pub mod verify;

pub use builder::FunctionBuilder;
pub use function::{Block, BlockId, ExternDecl, ExternId, Function, Module, ValueId};
pub use instr::{
    BinOp, CastKind, CmpPred, Instr, Operand, OperandList, OvfOp, PhiList, Terminator, TrapKind,
};
pub use key::{BitSet, KVec, Key};
pub use types::{Constant, Type};
pub use verify::{verify_function, VerifyError};
