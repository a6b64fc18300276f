//! Pinned-corpus oracle for the whole compile pipeline.
//!
//! For every generator seed this fingerprints, with the pinned FNV-1a
//! digest, each externally observable artifact of compilation:
//!
//! * the printed IR after the optimization pass pipeline,
//! * the packed step stream + frame metadata at both opt levels,
//! * the emitted x86-64 machine code (helper addresses pinned so the
//!   bytes are process-independent).
//!
//! `tests/data/corpus_jit.txt` was captured from the pre-arena
//! representation; the arena/id-keyed pipeline must stay **bit-identical**
//! on all of them. Regenerate (only for an intentional codegen change)
//! with:
//!
//! ```text
//! AQE_REGEN_ORACLE=1 cargo test -p aqe-jit --test corpus_oracle
//! ```
//!
//! The native column is captured on x86-64 Linux; on other targets the
//! comparison skips it but still checks the portable columns.

use aqe_ir::hash::fnv1a;
use aqe_ir::print::print_function;
use aqe_ir::testgen::{gen_module, is_pure_seed};
use aqe_jit::{compile, compile_native_at, optimize, OptLevel};
use aqe_vm::backend::PipelineBackend;

const SEEDS: u64 = 48;

fn level_fingerprint(
    f: &aqe_ir::Function,
    externs: &[aqe_ir::ExternDecl],
    level: OptLevel,
) -> String {
    match compile(f, externs, level) {
        Ok(cf) => {
            let blob = format!(
                "steps={:?} frame={} params={:?} ret={}",
                cf.steps, cf.frame_size, cf.param_slots, cf.has_ret
            );
            format!("{:016x}", fnv1a(blob.as_bytes()))
        }
        Err(e) => format!("err:{:016x}", fnv1a(e.to_string().as_bytes())),
    }
}

/// The portable part of one corpus line (everything but the native bytes).
fn portable_line(seed: u64) -> String {
    let m = gen_module(seed);
    let f = &m.functions[0];

    let mut opt_f = f.clone();
    optimize(&mut opt_f);
    let opt_print = print_function(&opt_f);

    format!(
        "seed={seed} opt_ir={:016x} un={} opt={}",
        fnv1a(opt_print.as_bytes()),
        level_fingerprint(f, &m.externs, OptLevel::Unoptimized),
        level_fingerprint(f, &m.externs, OptLevel::Optimized),
    )
}

fn native_fingerprint(seed: u64) -> String {
    let m = gen_module(seed);
    match aqe_jit::native::lower_to_bytes_pinned(&m.functions[0], &m.externs) {
        Ok(bytes) => format!("{:016x}/{}", fnv1a(&bytes), bytes.len()),
        Err(e) => format!("err:{:016x}", fnv1a(e.to_string().as_bytes())),
    }
}

fn data_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/corpus_jit.txt")
}

#[test]
fn pipeline_is_bit_identical_to_pre_refactor_oracle() {
    let mut got = String::new();
    for seed in 0..SEEDS {
        let mut line = portable_line(seed);
        if aqe_jit::native::HAVE_EMITTER {
            line.push_str(&format!(" native={}", native_fingerprint(seed)));
        }
        got.push_str(&line);
        got.push('\n');
    }

    let path = data_path();
    if std::env::var("AQE_REGEN_ORACLE").is_ok() {
        // Regeneration must capture native fingerprints, which only the
        // x86-64 Linux emitter can produce (constant per target).
        #[allow(clippy::assertions_on_constants)]
        {
            assert!(aqe_jit::native::HAVE_EMITTER, "regenerate the oracle on x86-64 Linux");
        }
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }

    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing oracle {} ({e}); see module docs", path.display()));
    for (ln, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        let w = if aqe_jit::native::HAVE_EMITTER {
            w
        } else {
            // The oracle was captured with the emitter available; compare
            // only the portable columns here.
            w.split(" native=").next().unwrap()
        };
        assert_eq!(g, w, "corpus line {ln}: compile pipeline no longer bit-identical");
    }
    assert_eq!(got.lines().count(), want.lines().count(), "corpus size changed");
}

// Behavioral layer: on arbitrary pure seeds the optimizer and both native
// levels (O0 and O2) must agree with the naive IR interpreter — beyond the
// pinned corpus, for whatever seeds the deterministic runner picks.
// Skipped where the emitter is not live.
proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]
    #[test]
    fn compiled_levels_agree_with_interpreter(seed in 0u64..1_000_000, x in -6i64..6, y in -6i64..6) {
        if is_pure_seed(seed) && aqe_jit::native::enabled() {
            let m = gen_module(seed);
            let f = &m.functions[0];
            let args = [x as u64, y as u64];
            let expect = aqe_vm::naive::interpret_pure(f, &args);

            let rt = aqe_vm::rt::Registry::new();
            let mut frame = aqe_vm::interp::Frame::new();
            for level in [OptLevel::Unoptimized, OptLevel::Optimized] {
                let nf = compile_native_at(f, &m.externs, level).unwrap();
                let got = nf.call(&args, &rt, &mut frame);
                proptest::prop_assert_eq!(&got, &expect, "level {:?} diverged", level);
            }
        }
    }
}
