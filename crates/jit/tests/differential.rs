//! Differential tests: compiled code (O0 and O2 machine code) must behave
//! identically to the naive IR interpreter — the §III-B requirement that
//! lets the adaptive engine hot-swap execution modes mid-pipeline. Native
//! coverage runs only where the emitter exists (x86-64 Linux, `AQE_NATIVE`
//! not forcing fallback); elsewhere the same properties hold vacuously
//! through the bytecode alias. The step-stream properties run everywhere.

use aqe_ir::{BinOp, CmpPred, Constant, Function, FunctionBuilder, Operand, OvfOp, Type, ValueId};
use aqe_jit::compile::{compile, OptLevel};
use aqe_jit::native::{compile_native_at, enabled};
use aqe_jit::passes::optimize;
use aqe_vm::backend::{ExecMode, PipelineBackend};
use aqe_vm::interp::Frame;
use aqe_vm::naive;
use aqe_vm::rt::Registry;
use proptest::prelude::*;
use std::sync::Arc;

#[derive(Clone, Debug)]
enum Stmt {
    Bin(BinOp, u8, u8),
    BinConst(BinOp, u8, i64),
    Checked(OvfOp, u8, u8),
    CmpSelect(CmpPred, u8, u8, u8, u8),
    /// compare against a literal — exercises the emitter's immediate
    /// widening (i32-range vs 64-bit literals need different encodings).
    CmpConst(CmpPred, u8, i64, u8, u8),
    Diamond(u8, u8, u8),
    Loop {
        trips: u8,
        a: u8,
    },
    Div(u8, i16),
}

/// Literal pool biased toward encoding boundaries: values around the
/// i8/i32 immediate limits, the i32/i64 type extremes, and sign flips.
fn const_strategy() -> impl Strategy<Value = i64> {
    prop_oneof![
        any::<i16>().prop_map(i64::from),
        Just(i64::MIN),
        Just(i64::MAX),
        Just(i32::MIN as i64),
        Just(i32::MAX as i64),
        Just(i32::MIN as i64 - 1),
        Just(i32::MAX as i64 + 1),
        Just(-1i64),
    ]
}

fn stmt_strategy() -> impl Strategy<Value = Stmt> {
    let bin_ops = prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::And),
        Just(BinOp::Or),
        Just(BinOp::Xor),
    ];
    let bin_ops2 = bin_ops.clone();
    let ovf = prop_oneof![Just(OvfOp::Add), Just(OvfOp::Sub), Just(OvfOp::Mul)];
    let preds =
        prop_oneof![Just(CmpPred::Eq), Just(CmpPred::SLt), Just(CmpPred::SGe), Just(CmpPred::UGt),];
    let preds2 = preds.clone();
    prop_oneof![
        (bin_ops, any::<u8>(), any::<u8>()).prop_map(|(o, a, b)| Stmt::Bin(o, a, b)),
        (bin_ops2, any::<u8>(), const_strategy()).prop_map(|(o, a, c)| Stmt::BinConst(o, a, c)),
        (ovf, any::<u8>(), any::<u8>()).prop_map(|(o, a, b)| Stmt::Checked(o, a, b)),
        (preds, any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(p, a, b, c, d)| Stmt::CmpSelect(p, a, b, c, d)),
        (preds2, any::<u8>(), const_strategy(), any::<u8>(), any::<u8>())
            .prop_map(|(p, a, k, c, d)| Stmt::CmpConst(p, a, k, c, d)),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(a, b, c)| Stmt::Diamond(a, b, c)),
        (0u8..5, any::<u8>()).prop_map(|(trips, a)| Stmt::Loop { trips, a }),
        (any::<u8>(), any::<i16>()).prop_map(|(a, d)| Stmt::Div(a, d)),
    ]
}

fn lower(stmts: &[Stmt]) -> Function {
    let mut b = FunctionBuilder::new("prog", &[Type::I64, Type::I64], Some(Type::I64));
    let mut vals: Vec<ValueId> = vec![b.param(0), b.param(1)];
    let pick = |vals: &[ValueId], i: u8| vals[i as usize % vals.len()];
    for s in stmts {
        match *s {
            Stmt::Bin(op, a, bi) => {
                let v = b.bin(op, Type::I64, pick(&vals, a).into(), pick(&vals, bi).into());
                vals.push(v);
            }
            Stmt::BinConst(op, a, c) => {
                let v = b.bin(op, Type::I64, pick(&vals, a).into(), Constant::i64(c).into());
                vals.push(v);
            }
            Stmt::CmpConst(p, a, k, c, d) => {
                let cond = b.cmp(p, Type::I64, pick(&vals, a).into(), Constant::i64(k).into());
                let v =
                    b.select(Type::I64, cond.into(), pick(&vals, c).into(), pick(&vals, d).into());
                vals.push(v);
            }
            Stmt::Checked(op, a, bi) => {
                let v =
                    b.checked_arith(op, Type::I64, pick(&vals, a).into(), pick(&vals, bi).into());
                vals.push(v);
            }
            Stmt::CmpSelect(p, a, bi, c, d) => {
                let cond = b.cmp(p, Type::I64, pick(&vals, a).into(), pick(&vals, bi).into());
                let v =
                    b.select(Type::I64, cond.into(), pick(&vals, c).into(), pick(&vals, d).into());
                vals.push(v);
            }
            Stmt::Diamond(a, bi, c) => {
                let cond =
                    b.cmp(CmpPred::SGt, Type::I64, pick(&vals, a).into(), Constant::i64(0).into());
                let t_bb = b.add_block();
                let e_bb = b.add_block();
                let j_bb = b.add_block();
                b.cond_br(cond.into(), t_bb, e_bb);
                b.switch_to(t_bb);
                let tv =
                    b.bin(BinOp::Add, Type::I64, pick(&vals, bi).into(), pick(&vals, c).into());
                b.br(j_bb);
                b.switch_to(e_bb);
                b.br(j_bb);
                b.switch_to(j_bb);
                let phi = b.phi(Type::I64, vec![(t_bb, tv.into()), (e_bb, pick(&vals, c).into())]);
                vals.push(phi);
            }
            Stmt::Loop { trips, a } => {
                let seed = pick(&vals, a);
                let head = b.add_block();
                let body = b.add_block();
                let exit = b.add_block();
                let pre = b.current_block();
                b.br(head);
                b.switch_to(head);
                let iv = b.phi(Type::I64, vec![(pre, Constant::i64(0).into())]);
                let acc = b.phi(Type::I64, vec![(pre, seed.into())]);
                let done =
                    b.cmp(CmpPred::SGe, Type::I64, iv.into(), Constant::i64(trips as i64).into());
                b.cond_br(done.into(), exit, body);
                b.switch_to(body);
                let acc3 = b.bin(BinOp::Mul, Type::I64, acc.into(), Constant::i64(3).into());
                let acc2 = b.bin(BinOp::Xor, Type::I64, acc3.into(), iv.into());
                let iv2 = b.bin(BinOp::Add, Type::I64, iv.into(), Constant::i64(1).into());
                b.phi_add_incoming(iv, body, iv2.into());
                b.phi_add_incoming(acc, body, acc2.into());
                b.br(head);
                b.switch_to(exit);
                vals.push(acc);
            }
            Stmt::Div(a, d) => {
                let v = b.bin(
                    BinOp::SDiv,
                    Type::I64,
                    pick(&vals, a).into(),
                    Constant::i64(d as i64).into(),
                );
                vals.push(v);
            }
        }
    }
    let mut acc: Operand = vals[0].into();
    for &v in &vals[1..] {
        acc = b.bin(BinOp::Xor, Type::I64, acc, v.into()).into();
    }
    b.ret(Some(acc));
    b.finish().expect("generated program must verify")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn compiled_matches_naive(
        stmts in prop::collection::vec(stmt_strategy(), 1..20),
        x in any::<i64>(),
        y in any::<i64>(),
    ) {
        let f = lower(&stmts);
        let args = [x as u64, y as u64];
        let expect = naive::interpret_pure(&f, &args);
        let rt = Registry::new();
        let mut frame = Frame::new();
        if enabled() {
            for level in [OptLevel::Unoptimized, OptLevel::Optimized] {
                let nf = compile_native_at(&f, &[], level).expect("native compilation");
                let got = nf.call(&args, &rt, &mut frame);
                prop_assert_eq!(expect, got, "level {:?}", level);
            }
        }
    }

    /// Compiled functions are pipeline backends: dispatched uniformly
    /// through `Arc<dyn PipelineBackend>` (the handle the engine swaps
    /// mid-query), both native levels still agree with the naive oracle
    /// and advertise the right kind.
    #[test]
    fn compiled_backends_agree_through_trait_dispatch(
        stmts in prop::collection::vec(stmt_strategy(), 1..16),
        x in any::<i64>(),
        y in any::<i64>(),
    ) {
        let f = lower(&stmts);
        let args = [x as u64, y as u64];
        let expect = naive::interpret_pure(&f, &args);
        let rt = Registry::new();
        let mut frame = Frame::new();
        let mut backends: Vec<(Arc<dyn PipelineBackend>, ExecMode)> = vec![(
            Arc::new(
                aqe_vm::translate::translate(&f, &[], Default::default()).expect("translation"),
            ),
            ExecMode::Bytecode,
        )];
        if enabled() {
            for (level, kind) in
                [(OptLevel::Unoptimized, ExecMode::Unoptimized), (OptLevel::Optimized, ExecMode::Native)]
            {
                let nf = compile_native_at(&f, &[], level).expect("native compilation");
                backends.push((Arc::new(nf), kind));
            }
        }
        for (backend, kind) in backends {
            prop_assert_eq!(backend.kind(), kind);
            let got = backend.call(&args, &rt, &mut frame);
            prop_assert_eq!(&expect, &got, "kind {:?}", kind);
        }
    }

    /// The pass pipeline must leave a verifiable function behind.
    #[test]
    fn passes_preserve_verification(
        stmts in prop::collection::vec(stmt_strategy(), 1..20),
    ) {
        let mut f = lower(&stmts);
        optimize(&mut f);
        aqe_ir::verify_function(&f).unwrap();
    }

    /// Optimized code never executes more IR instructions than unoptimized.
    #[test]
    fn optimizer_never_grows_code(
        stmts in prop::collection::vec(stmt_strategy(), 1..20),
    ) {
        let f = lower(&stmts);
        let u = compile(&f, &[], OptLevel::Unoptimized).unwrap();
        let o = compile(&f, &[], OptLevel::Optimized).unwrap();
        prop_assert!(o.stats.ir_instrs_after <= u.stats.ir_instrs_before);
    }
}

/// A worker-ABI-shaped accumulator: `f(ptr, begin, end)` folds
/// `i*i ^ i` over `begin..end` into `[ptr]` with an overflow-checked add —
/// the same memory-resident state a pipeline's aggregation keeps, so a
/// range can be split across two backends exactly like a pipeline split
/// across morsels.
fn range_accum_fn() -> Function {
    let mut b = FunctionBuilder::new("accum", &[Type::Ptr, Type::I64, Type::I64], None);
    let p = b.param(0);
    let begin = b.param(1);
    let end = b.param(2);
    b.counted_loop(begin.into(), end.into(), |b, iv| {
        let sq = b.bin(BinOp::Mul, Type::I64, iv.into(), iv.into());
        let v = b.bin(BinOp::Xor, Type::I64, sq.into(), iv.into());
        let cur = b.load(Type::I64, p.into());
        let sum = b.checked_arith(OvfOp::Add, Type::I64, cur.into(), v.into());
        b.store(Type::I64, sum.into(), p.into());
    });
    b.ret(None);
    b.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The §III-B hot-swap contract along the ladder: running the first
    /// part of a range on one backend and the rest on the next rung up
    /// (bytecode → O0, O0 → O2) must produce exactly the state and trap
    /// behaviour of any single backend — including seeds chosen to
    /// overflow mid-range, where *which half traps* must also agree.
    #[test]
    fn mid_morsel_switch_optimized_to_native_preserves_results_and_traps(
        total in 0u64..400,
        split_frac in 0u64..=100,
        seed in prop_oneof![
            Just(0i64),
            any::<i64>(),
            (0i64..1 << 20).prop_map(|d| i64::MAX - d), // near-overflow seeds
        ],
    ) {
        let f = range_accum_fn();
        let rt = Registry::new();
        let mut frame = Frame::new();
        let split = total * split_frac / 100;

        // Reference: the whole split executed on the bytecode VM.
        let bc = aqe_vm::translate::translate(&f, &[], aqe_vm::translate::TranslateOptions::default())
            .expect("translate");
        let mut run_pair = |first: &dyn PipelineBackend, second: &dyn PipelineBackend| {
            let mut acc = [seed as u64];
            let p = acc.as_mut_ptr() as u64;
            let r1 = first.call(&[p, 0, split], &rt, &mut frame);
            let r2 = match &r1 {
                Ok(_) => Some(second.call(&[p, split, total], &rt, &mut frame)),
                Err(_) => None, // the first half already trapped
            };
            (r1, r2, acc[0])
        };
        let reference = run_pair(&bc, &bc);

        if enabled() {
            let o0 = compile_native_at(&f, &[], OptLevel::Unoptimized).expect("compile O0");
            let o2 = compile_native_at(&f, &[], OptLevel::Optimized).expect("compile O2");
            for (first, second) in [(&bc as &dyn PipelineBackend, &o0), (&o0, &o2)] {
                let switched = run_pair(first, second);
                prop_assert_eq!(&switched.0, &reference.0, "first-half status");
                prop_assert_eq!(&switched.1, &reference.1, "second-half status");
                prop_assert_eq!(switched.2, reference.2, "accumulated state");
            }
        }
    }
}

/// Deterministic register-pressure corpus for the linear-scan allocator:
/// more simultaneously loop-crossing values than the native tier has
/// allocatable registers (4 callee-saved + 4 caller-saved), so some hulls
/// are promoted, some evicted, and some stay in memory — and the final
/// XOR fold keeps every value live to the end. The register-allocated O2
/// code, and the O0 code that keeps every slot in the frame, must agree
/// with the naive interpreter bit-for-bit, boundary inputs included.
#[test]
fn native_regalloc_under_pressure_matches_naive() {
    if !enabled() {
        eprintln!("native emitter disabled; skipping");
        return;
    }
    use Stmt::*;
    // 12 long-lived values defined before three nested-pressure loops.
    let mut stmts: Vec<Stmt> = (0..12i64)
        .map(|i| BinConst(BinOp::Add, (i % 3) as u8, i * 0x0123_4567_89AB + i64::MIN / 7))
        .collect();
    stmts.extend([
        Loop { trips: 4, a: 3 },
        CmpConst(CmpPred::SLt, 5, i32::MAX as i64 + 1, 2, 9),
        Loop { trips: 3, a: 7 },
        Checked(OvfOp::Add, 1, 11),
        CmpConst(CmpPred::UGt, 4, i32::MIN as i64, 8, 1),
        Loop { trips: 2, a: 13 },
        Div(6, 257),
    ]);
    let f = lower(&stmts);
    let rt = Registry::new();
    let mut frame = Frame::new();
    for &(x, y) in
        &[(0i64, 0i64), (1, -1), (i64::MAX, 2), (i64::MIN, -1), (i32::MAX as i64, i32::MIN as i64)]
    {
        let args = [x as u64, y as u64];
        let expect = naive::interpret_pure(&f, &args);
        for level in [OptLevel::Unoptimized, OptLevel::Optimized] {
            let nf = compile_native_at(&f, &[], level).expect("native compile");
            assert_eq!(expect, nf.call(&args, &rt, &mut frame), "{level:?} {x} {y}");
        }
    }
}
