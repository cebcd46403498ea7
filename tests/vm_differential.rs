//! Differential testing: the compiled engines against the interpreter
//! oracle, through the shared harness (`common::oracle`).
//!
//! Every PolyBench kernel under sampled configurations, and every nest
//! the generators in `common::nests` build, must produce bit-identical
//! outputs on the interpreter, the scalar VM, the optimized VM and the
//! JIT on each tier, at every thread budget, and must fail identically
//! (same `ExecError`) on malformed argument lists. The rest of the file
//! holds the non-vacuity counts: what the optimized and JIT rungs must
//! actually rewrite for the differential to mean anything. Off x86-64
//! every JIT tier declines and runs the optimized bytecode.

mod common;

use common::nests::{
    cell_reduction_nest, control_flow_nest, reduction_nest, syrk_nest, triangular_nest, with_ints,
};
use common::oracle::{budget_lock, check, jit_tiers, BUDGETS};
use polybench::molds::mold_for;
use polybench::{CodeMold, KernelName, ProblemSize};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tvm_runtime::interp::ExecError;
use tvm_runtime::{compile, compile_optimized, default_backend, interp, Device, NDArray};
use tvm_te::{placeholder, CmpOp, DType, PrimExpr};
use tvm_tir::builder::{ser, store, when, FuncBuilder};
use tvm_tir::{PrimFunc, Stmt};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn generated_reduction_nests_match_on_all_four_engines(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..32 {
            let (func, args, context, second_store) = reduction_nest(&mut rng);
            let _ = check(&func, &args, &context);
            // Two stores into the destination's slot: the second may hit
            // the accumulator's element, so nothing is forwarded.
            let forwarded = compile_optimized(&func)
                .expect("optimized compile")
                .forwarded_loop_count();
            prop_assert!(!second_store || forwarded == 0, "{}: forwarded {}", context, forwarded);
            prop_assert_eq!(compile(&func).expect("compile").forwarded_loop_count(), 0);
        }
        // The same reductions under control flow (a third of the nests
        // open with a parallel loop).
        for _ in 0..48 {
            let (func, args, context) = control_flow_nest(&mut rng);
            let _ = check(&func, &args, &context);
        }
    }

    #[test]
    fn generated_triangular_nests_match_on_all_four_engines(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..32 {
            let (func, args, context) = triangular_nest(&mut rng);
            let _ = check(&func, &args, &context);
        }
    }

    #[test]
    fn every_kernel_matches_under_random_configs(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for kernel in KernelName::all() {
            let mold = mold_for(kernel, ProblemSize::Mini);
            let config = mold.space().sample(&mut rng);
            let context = format!("{} / {config}", mold.name());
            let func = mold.instantiate(&config);
            let run = check(&func, &mold.init_args(), &context);
            prop_assert!(run.is_ok(), "{}: {:?}", context, run);
        }
    }
}

#[test]
fn syrk_triangles_match_at_every_budget_and_report_the_lower_faulting_row() {
    // Row `i` of the triangle costs `i + 1` cells, so a dispatch of the
    // row loop hands the threads unequal work; whichever thread runs a
    // row, every budget leaves the interpreter's bits, and of two rows
    // that go out of bounds reports the lower one's fault.
    let mut rng = SmallRng::seed_from_u64(0x5e4c);
    for case in 0..24 {
        let faulting = case % 2 == 1;
        let (func, args, context) = syrk_nest(&mut rng, faulting);
        let context = format!("case {case}: {context}");
        let proven = compile_optimized(&func)
            .expect("optimized compile")
            .parallel_loop_counts();
        assert_eq!(proven, (1, 0), "{context}: the row loop dispatches");
        match check(&func, &args, &context) {
            Ok(()) => assert!(!faulting, "{context}: ran clean"),
            Err(ExecError::OutOfBounds { buffer, .. }) => {
                assert!(faulting && buffer == "D", "{context}: {buffer}")
            }
            Err(e) => panic!("{context}: {e}"),
        }
    }
}

#[test]
fn generated_cell_reductions_match_and_jam_only_what_is_proven() {
    // Every nest on every engine, tier and thread budget; and, on x86-64,
    // the jam reported on some nest it may take and on no near miss.
    let mut rng = SmallRng::seed_from_u64(0xce11);
    let (mut jammed, mut guarded, mut refused) = (0, 0, 0);
    for case in 0..300 {
        let (func, args, context, near_miss) = cell_reduction_nest(&mut rng);
        let context = format!("case {case}: {context}");
        let _ = check(&func, &args, &context);
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        for (tier, backend) in jit_tiers() {
            let cf = compile_optimized(&func).expect("optimized compile");
            let Ok(jitted) = backend.jit_compile(&cf) else {
                continue;
            };
            let simd = jitted.jit_simd_report().expect("jitted");
            let jams = simd
                .scalar_reasons
                .get("jammed-chain")
                .copied()
                .unwrap_or(0);
            assert!(!near_miss || jams == 0, "{context} on the {tier}: jammed");
            jammed += jams;
            guarded += (jams > 0 && format!("{cf:?}").contains("If {")) as u32;
            refused += near_miss as u32;
        }
    }
    assert!(
        jammed > 200 && guarded > 40 && refused > 150,
        "{jammed} {guarded} {refused}"
    );
}

#[test]
fn error_classification_matches_on_malformed_args() {
    for kernel in KernelName::all() {
        let mold = mold_for(kernel, ProblemSize::Mini);
        let func = mold.instantiate(&mold.space().default_configuration());
        let good = mold.init_args();
        let name = mold.name();

        // Arity: one argument short.
        let short = check(&func, &good[..good.len() - 1], &format!("{name} arity"));
        assert!(
            matches!(short, Err(ExecError::ArityMismatch { .. })),
            "{name}: {short:?}"
        );

        // Shape: first argument replaced by a 1×1 array of the right dtype.
        let mut bad_shape = good.clone();
        bad_shape[0] = NDArray::zeros(&[1, 1], good[0].dtype());
        assert!(check(&func, &bad_shape, &format!("{name} shape")).is_err());

        // Dtype: first argument an integer array of the same shape.
        let mut bad_dtype = good.clone();
        bad_dtype[0] = NDArray::zeros(good[0].shape(), DType::I64);
        assert!(check(&func, &bad_dtype, &format!("{name} dtype")).is_err());
    }
}

#[test]
fn trimming_is_not_vacuous_and_errors_inside_the_live_range_match() {
    // for j in 0..8 { for k in 0..8 { if k < j { <store> } } }: the
    // guard becomes the loop's live range on the optimized engines.
    type Guarded<'a> = &'a dyn Fn(&std::sync::Arc<tvm_tir::Buffer>, PrimExpr, PrimExpr) -> Stmt;
    let a = placeholder([8], DType::F64, "A");
    let x = placeholder([8], DType::F64, "X");
    let args = vec![
        NDArray::random(&[8], DType::F64, 5, -1.0, 1.0),
        NDArray::random(&[8], DType::F64, 6, -1.0, 1.0),
    ];
    let build = |guarded: Guarded| {
        let mut fb = FuncBuilder::new("guarded");
        let ab = fb.param(&a);
        let _xb = fb.param(&x);
        fb.build(ser("j", 8, |j| {
            ser("k", 8, |k| {
                when(
                    PrimExpr::cmp(CmpOp::Lt, k.clone(), j.clone()),
                    guarded(&ab, j, k),
                )
            })
        }))
    };
    // In bounds: trimmed, and (on x86-64) the trimmed loop reaches the JIT.
    let ok = build(&|ab, j, k| {
        let (jx, kx) = ([j], [k]);
        store(ab, &jx, a.at(&jx) - x.at(&kx) * x.at(&kx))
    });
    let cf = compile_optimized(&ok).expect("optimized compile");
    assert_eq!(cf.trimmed_loop_count(), 1, "the k loop must be trimmed");
    assert_eq!(
        compile(&ok).expect("compile").trimmed_loop_count(),
        0,
        "scalar rung untouched"
    );
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    for (tier, backend) in jit_tiers() {
        let jitted = backend.jit_compile(&cf).expect("trimmed loop must jit");
        assert!(jitted.jit_nest_count() > 0, "{tier}");
        let simd = jitted.jit_simd_report().expect("jitted");
        assert_eq!(
            simd.scalar_reasons.get("dynamic-extent"),
            Some(&1),
            "{tier}"
        );
    }
    check(&ok, &args, "in-bounds guarded reduction").expect("in bounds");
    // Out of bounds inside the live range — a store at k = 5 (first
    // live at j = 6), and a read likewise: the same `ExecError` from the
    // same iteration on every engine, arguments untouched.
    let bad_store = build(&|ab, _, k| store(ab, &[k.clone() + 3i64], x.at(&[k])));
    let bad_read = build(&|ab, _, k| {
        let at = [k.clone()];
        store(ab, &at, x.at(&[k + 3i64]))
    });
    for (func, what) in [(&bad_store, "store"), (&bad_read, "read")] {
        assert!(
            compile_optimized(func)
                .expect("compile")
                .trimmed_loop_count()
                > 0,
            "{what}"
        );
        let err = check(
            func,
            &args,
            &format!("out-of-bounds {what} in the live range"),
        )
        .expect_err("index 8 of 8");
        assert!(
            matches!(&err, ExecError::OutOfBounds { indices, .. } if indices == &[8]),
            "{what}: {err:?}"
        );
    }
}

#[test]
fn forwarding_is_not_vacuous_on_the_reduction_kernels() {
    // What fails, by count, when a refactor silently stops rewriting a
    // mold's default configuration: syrk, lu, cholesky and trmm keep their
    // reduction's accumulator in a register on the optimized and JIT rungs
    // (never on the scalar rung); gemm's untiled reduction is a
    // microkernel the JIT runs as register chains, eight cells side by
    // side and the rest one at a time; every kernel's inner
    // loops are strided loops or microkernels; the triangular kernels'
    // guarded reductions are trimmed to their live range; and on x86-64
    // every kernel reaches native code on every tier.
    let mut any_microkernel = false;
    for kernel in KernelName::all() {
        let mold = mold_for(kernel, ProblemSize::Mini);
        let func = mold.instantiate(&mold.space().default_configuration());
        let scalar = compile(&func).expect("compile");
        assert_eq!(scalar.forwarded_loop_count(), 0, "{}", mold.name());
        let cf = compile_optimized(&func).expect("optimized compile");
        let forwards = matches!(
            kernel,
            KernelName::Syrk | KernelName::Lu | KernelName::Cholesky | KernelName::Trmm
        );
        if forwards {
            assert!(
                cf.forwarded_loop_count() >= 1,
                "{}: the reduction reloads its accumulator every iteration",
                mold.name()
            );
        }
        if kernel == KernelName::Gemm {
            assert!(cf.microkernel_count() >= 1, "gemm {{1,1}} is a microkernel");
        }
        assert!(
            cf.microkernel_count() + cf.strided_loop_count() > 0,
            "{}: optimizer left every inner loop scalar",
            mold.name()
        );
        if matches!(
            kernel,
            KernelName::Lu | KernelName::Cholesky | KernelName::Trmm
        ) {
            assert!(
                cf.trimmed_loop_count() > 0,
                "{}: the guarded reduction still iterates over its guard",
                mold.name()
            );
        }
        any_microkernel |= cf.microkernel_count() > 0;
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        for (tier, backend) in jit_tiers() {
            let jitted = backend.jit_compile(&cf).expect("must jit on x86-64");
            assert!(
                jitted.jit_nest_count() > 0 && jitted.jit_code_bytes() > 0,
                "{} on the {tier}: JIT emitted no native loop nest",
                mold.name()
            );
            if forwards {
                assert!(
                    jitted.forwarded_loop_count() >= 1,
                    "{} on the {tier}: no forwarded loop reached native code",
                    mold.name()
                );
            }
            if kernel == KernelName::Gemm {
                let simd = jitted.jit_simd_report().expect("jitted");
                let sites = |reason| simd.scalar_reasons.get(reason).copied();
                assert!(
                    sites("jammed-chain") >= Some(1) && sites("reduction-chain") >= Some(1),
                    "gemm on the {tier}: {simd:?}"
                );
            }
        }
    }
    assert!(
        any_microkernel,
        "no matrix kernel dispatched to the mul-add microkernel"
    );
}

#[test]
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn control_flow_is_not_vacuous_on_the_generated_nests_or_the_triangular_kernels() {
    // What the generated control-flow nests are for: conditionals and
    // trimmed plain loops that end up *inside* native code, and guarded
    // stores that do go out of bounds.
    let mut rng = SmallRng::seed_from_u64(0xc0de);
    let (mut ifs_jitted, mut trimmed_jitted, mut failed) = (0, 0, 0);
    for _ in 0..400 {
        let (func, args, _) = control_flow_nest(&mut rng);
        let cf = compile_optimized(&func).expect("optimized compile");
        if let Ok(jitted) = default_backend().jit_compile(&cf) {
            ifs_jitted += (jitted.conditional_count() < cf.conditional_count()) as u32;
            trimmed_jitted += (jitted.trimmed_loop_count() < cf.trimmed_loop_count()) as u32;
        }
        failed += interp::execute(&func, &mut args.clone()).is_err() as u32;
    }
    assert!(
        ifs_jitted > 40 && trimmed_jitted > 15 && failed > 10,
        "{ifs_jitted} {trimmed_jitted} {failed}"
    );
    // lu's, cholesky's and syrk's `(i, j)` cells are native from the cell
    // loop down: no conditional and no trimmed loop is left for the
    // bytecode dispatcher, at the default configuration and at `{1, 2}`.
    for kernel in [KernelName::Lu, KernelName::Cholesky, KernelName::Syrk] {
        let mold = mold_for(kernel, ProblemSize::Mini);
        assert_eq!(mold.space().params().len(), 2, "{}", mold.name());
        let (one_two, _) = lowered(&*mold, &[("P0", 1), ("P1", 2)]);
        let default = mold.instantiate(&mold.space().default_configuration());
        for (func, config) in [(default, "default"), (one_two, "{1, 2}")] {
            let cf = compile_optimized(&func).expect("optimized compile");
            assert!(
                cf.conditional_count() + cf.trimmed_loop_count() > 0,
                "{} / {config}: no control flow to compile",
                mold.name()
            );
            for (tier, backend) in jit_tiers() {
                let jitted = backend.jit_compile(&cf).expect("must jit on x86-64");
                assert_eq!(
                    (jitted.conditional_count(), jitted.trimmed_loop_count()),
                    (0, 0),
                    "{} / {config} on the {tier}: conditionals, trimmed loops left in bytecode",
                    mold.name()
                );
            }
        }
    }
    // And no function of the seven paper spaces falls back whole for a
    // reason the backend no longer has.
    let device = tvm_runtime::CpuDevice::jit();
    let mut rng = SmallRng::seed_from_u64(0x5eed);
    for kernel in KernelName::all() {
        let mold = mold_for(kernel, ProblemSize::Mini);
        for _ in 0..24 {
            let config = mold.space().sample(&mut rng);
            device.prepare(&mold.instantiate(&config));
        }
    }
    let stats = device.jit_stats().expect("a JIT device keeps counters");
    assert!(stats.functions_jitted > 100, "{stats:?}");
    for (reason, _) in &stats.fallback_reasons {
        let gone = reason.contains("conditional") || reason.contains("outside strided form");
        assert!(!gone, "{stats:?}");
    }
}

#[test]
fn empty_live_range_leaves_a_signalling_nan_destination_untouched() {
    // for j in 0..4 { for k in 0..4 { if k < j − 2 { A[j] −= X[k]·X[k] } } }:
    // only j = 3 has a live iteration. The forwarded accumulator is loaded
    // behind the empty-range test and stored only by iterations that run,
    // so A[0..3] keep a bit pattern no arithmetic would hand back — on
    // the interpreter, and bit for bit on every engine.
    let a = placeholder([4], DType::F64, "A");
    let x = placeholder([4], DType::F64, "X");
    let mut fb = FuncBuilder::new("snan");
    let ab = fb.param(&a);
    let _xb = fb.param(&x);
    let func = fb.build(ser("j", 4, |j| {
        ser("k", 4, |k| {
            let (jx, kx) = ([j.clone()], [k.clone()]);
            when(
                PrimExpr::cmp(CmpOp::Lt, k, j - 2i64),
                store(&ab, &jx, a.at(&jx) - x.at(&kx) * x.at(&kx)),
            )
        })
    }));
    let snan = f64::from_bits(0x7FF0_0000_0000_0001);
    let args = vec![
        NDArray::from_f64(&[4], &[snan; 4]),
        NDArray::random(&[4], DType::F64, 8, 0.5, 1.0),
    ];
    let cf = compile_optimized(&func).expect("optimized compile");
    assert_eq!(cf.forwarded_loop_count(), 1, "optimized VM");
    let mut run = args.clone();
    interp::execute(&func, &mut run).expect("interpreter");
    let bits: Vec<u64> = run[0].as_f64().iter().map(|v| v.to_bits()).collect();
    assert_eq!(
        bits[..3],
        [snan.to_bits(); 3],
        "untouched cells keep their bits"
    );
    assert_ne!(bits[3], snan.to_bits(), "the live iteration wrote its cell");
    check(&func, &args, "snan").expect("runs");
}

/// `mold`'s default configuration with `ints` replaced, lowered.
fn lowered(mold: &dyn CodeMold, ints: &[(&str, i64)]) -> (PrimFunc, String) {
    let space = mold.space();
    let config = with_ints(space, &space.default_configuration(), ints);
    assert!(space.validate(&config), "{} / {config}", mold.name());
    (
        mold.instantiate(&config),
        format!("{} / {config}", mold.name()),
    )
}

#[test]
fn level_hoisting_is_not_vacuous_on_the_small_tile_matmuls() {
    // What fails, by count, when index arithmetic stops leaving the outer
    // loop levels: at small tiles the `k` loop of every matmul product —
    // not innermost: it wraps the `j.inner` row — carries a `pre` and
    // bumps, and so does the tile loop around it. (Drop `try_hoist`'s
    // "the body writes it once" refusal and the leaf's own bumped
    // registers move too: seven tests of this file fail.) The scalar rung
    // is untouched.
    for (kernel, at_least) in [
        (KernelName::Gemm, 2),
        (KernelName::Mm2, 4),
        (KernelName::Mm3, 6),
    ] {
        // Row tiles of 1, column tiles the second smallest the space has.
        let mold = mold_for(kernel, ProblemSize::Mini);
        let tile = |nth: usize, p: &configspace::Hyperparameter| p.value_at(nth % 2).as_int();
        let tiles: Vec<(&str, i64)> = (mold.space().params().iter().enumerate())
            .map(|(nth, p)| (p.name(), tile(nth, p).expect("integer tiles")))
            .collect();
        let (func, context) = lowered(&*mold, &tiles);
        let cf = compile_optimized(&func).expect("optimized compile");
        assert!(
            cf.hoisted_loop_count() >= at_least,
            "{context}: {} loops carry hoisted index arithmetic",
            cf.hoisted_loop_count()
        );
        assert_eq!(compile(&func).expect("compile").hoisted_loop_count(), 0);
        check(&func, &mold.init_args(), &context).expect("runs");
    }
}

/// Length in bytes of the instruction at the head of `code`: the subset
/// of x86-64 the emitter writes (legacy and REX prefixes, the one- and
/// two-byte opcodes of its integer, control and SSE templates, 3-byte VEX
/// and `vzeroupper`). Panics on anything else, so a new encoding shows.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn instruction_len(code: &[u8]) -> usize {
    // ModRM, SIB and displacement.
    let operand = |b: &[u8]| -> usize {
        let (md, rm) = (b[0] >> 6, b[0] & 7);
        if md == 3 {
            return 1;
        }
        let sib = (rm == 4) as usize;
        let absolute = md == 0 && (rm == 5 || (rm == 4 && b[1] & 7 == 5));
        1 + sib + [4 * absolute as usize, 1, 4][md as usize]
    };
    match code[0] {
        0xC5 => return 3, // vzeroupper
        0xC4 => {
            // VEX map 0F / 0F38: opcode, then a register or memory operand.
            return 4 + operand(&code[4..]);
        }
        _ => {}
    }
    let mut at = 0;
    while matches!(code[at], 0x66 | 0xF2 | 0xF3) {
        at += 1;
    }
    let rex_w = code[at] & 0xF8 == 0x48;
    at += (code[at] & 0xF0 == 0x40) as usize;
    let op = code[at];
    at += 1;
    match op {
        0x0F => {
            let op2 = code[at];
            at += 1;
            match op2 {
                0x80..=0x8F => at + 4,                 // jcc rel32
                0xC6 => at + operand(&code[at..]) + 1, // shufps imm8
                _ => at + operand(&code[at..]),
            }
        }
        0x50..=0x5F | 0xC3 => at,       // push, pop, ret
        0xE9 => at + 4,                 // jmp rel32
        0xB8..=0xBF if rex_w => at + 8, // mov r64, imm64
        0xC7 | 0x81 => at + operand(&code[at..]) + 4,
        0x83 => at + operand(&code[at..]) + 1,
        0x01 | 0x03 | 0x0B | 0x23 | 0x2B | 0x3B | 0x89 | 0x8B | 0x8D | 0xFF => {
            at + operand(&code[at..])
        }
        other => panic!("opcode {other:#04x} is not one the emitter writes"),
    }
}

#[test]
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn gemm_one_by_two_spends_under_22_instructions_a_k_step() {
    // gemm-medium at tiles {P0: 1, P1: 2}: 5.28 M `k` steps of one
    // two-element row. On `jit/v5` a step was 48 instructions — nine
    // integer operations recomputed every step, a scalar loop for the
    // row. Now the addresses are bumped, the row is one `f64x2` operation
    // and four steps share one load and store of it: the group's loop —
    // the one loop inside the `i.outer` loop — is counted here,
    // instruction by instruction, back-edge target to back-edge. No
    // timing. The column tiles run outermost (`ORDER` 1, `parallel
    // j.outer { for i.outer { for k { for j.inner in [0, 2) } } }`): the
    // paper order's `j.outer` is interchanged into the row, which then
    // runs 220 wide, but `i.outer` does not index the row as `j.outer`
    // does, so this row stays two elements wide.
    let gemm = polybench::molds::mold_for_mode(
        KernelName::Gemm,
        ProblemSize::Medium,
        polybench::SpaceMode::Aggressive,
    );
    let (func, context) = lowered(&*gemm, &[("P0", 1), ("P1", 2), ("ORDER", 1)]);
    let cf = compile_optimized(&func).expect("optimized compile");
    let jitted = default_backend().jit_compile(&cf).expect("gemm must jit");
    let code = jitted.jit_code();
    // Every instruction's offset; the walk must end exactly at the end.
    let mut starts = Vec::new();
    let mut at = 0;
    while at < code.len() {
        starts.push(at);
        at += instruction_len(&code[at..]);
    }
    assert_eq!(at, code.len(), "{context}: the decode lost its footing");
    // Back edges: a `jcc rel32` to an earlier instruction.
    let mut loops: Vec<(usize, usize)> = Vec::new();
    for &at in &starts {
        if code[at] == 0x0F && (0x80..=0x8F).contains(&code[at + 1]) {
            let rel = i32::from_le_bytes(code[at + 2..at + 6].try_into().expect("rel32"));
            if rel < 0 {
                let target = (at as i64 + 6 + i64::from(rel)) as usize;
                assert!(
                    starts.contains(&target),
                    "{context}: a jump into an instruction"
                );
                loops.push((target, at));
            }
        }
    }
    // The one loop that sits inside another and holds none: `k`'s, under
    // `i.outer` (the zeroing and the epilogue nests have a leaf's
    // countdown under their one plain loop too, but those loops run per
    // element; `j.outer` is the pool's, in bytecode).
    let inside = |a: &(usize, usize), b: &(usize, usize)| b.0 <= a.0 && a.1 < b.1;
    let innermost: Vec<&(usize, usize)> = loops
        .iter()
        .filter(|l| loops.iter().any(|o| inside(l, o)) && !loops.iter().any(|o| inside(o, l)))
        .filter(|l| code[l.1 + 1] == 0x85 && code[l.1 - 4..l.1] == [0x48, 0xFF, 0x0C, 0x24])
        .collect();
    let [&(target, back)] = innermost.as_slice() else {
        panic!(
            "{context}: one jammed group loop (`dec [rsp]; jnz`), got {innermost:?} of {loops:?}"
        );
    };
    let group = starts.iter().filter(|&&s| target <= s && s <= back).count();
    // Four `k` steps a group.
    assert_eq!(group, 71, "{context}: instructions in the group's loop");
    assert!(group <= 4 * 22);
}

#[test]
fn thread_sweep_is_not_vacuous() {
    // The harness's budget sweep is only meaningful if the pool actually
    // dispatches on this suite's kernels: run gemm on the optimized device at 4
    // threads and demand a proven loop, a real dispatch, and zero thread
    // spawns on a repeat run (pool reuse).
    let _guard = budget_lock();
    tvm_runtime::pool::set_num_threads(4);
    let device = tvm_runtime::CpuDevice::new();
    let mold = mold_for(KernelName::Gemm, ProblemSize::Mini);
    let func = mold.instantiate(&mold.space().default_configuration());
    let mut args = mold.init_args();
    device.run(&func, &mut args).expect("gemm runs");
    let stats = device.par_stats().expect("optimized device keeps counters");
    assert!(
        stats.loops_proven >= 1,
        "gemm's outer tile loop must prove race-free: {stats:?}"
    );
    assert!(
        stats.dispatches >= 1,
        "gemm must dispatch on the pool at 4 threads: {stats:?}"
    );
    let spawned = tvm_runtime::pool::threads_spawned();
    let mut args2 = mold.init_args();
    device.run(&func, &mut args2).expect("gemm runs again");
    assert_eq!(
        tvm_runtime::pool::threads_spawned(),
        spawned,
        "steady-state trials must not spawn threads"
    );
    tvm_runtime::pool::set_num_threads(1);
}

#[test]
fn parallel_loop_accounting_is_complete() {
    // Every runtime entry into a `Parallel` loop lands in exactly one
    // counter bucket, on every mold at every thread budget: the
    // per-reason counts sum to the fallback total; a function with a
    // prepared parallel loop counts an entry — dispatch or fallback —
    // and one without counts nothing; a proven loop dispatches as soon
    // as there are two threads and never at one. The molds whose
    // schedules annotate a tile loop `Parallel` (gemm, 3mm, 2mm, syrk)
    // prepare one under their default configuration, the others never.
    // One device per run, so the counters attribute cleanly.
    let _guard = budget_lock();
    let mut rng = SmallRng::seed_from_u64(777);
    for kernel in KernelName::all() {
        let mold = mold_for(kernel, ProblemSize::Mini);
        let annotated = matches!(
            kernel,
            KernelName::Gemm | KernelName::Mm3 | KernelName::Mm2 | KernelName::Syrk
        );
        let mut configs = vec![mold.space().default_configuration()];
        configs.extend((0..3).map(|_| mold.space().sample(&mut rng)));
        for (nth, config) in configs.iter().enumerate() {
            let func = mold.instantiate(config);
            for threads in BUDGETS {
                tvm_runtime::pool::set_num_threads(threads);
                let device = tvm_runtime::CpuDevice::new();
                let mut args = mold.init_args();
                device.run(&func, &mut args).expect("runs");
                let stats = device.par_stats().expect("optimized device keeps counters");
                let context = format!("{} / {config} @ {threads} threads: {stats:?}", mold.name());
                let reason_sum: u64 = stats.fallback_reasons.iter().map(|(_, n)| n).sum();
                assert_eq!(reason_sum, stats.fallbacks, "lost a reason: {context}");
                let census = stats.loops_proven + stats.loops_unproven;
                let entries = stats.dispatches + stats.fallbacks;
                assert_eq!(census > 0, entries > 0, "lost an entry: {context}");
                if !annotated {
                    assert_eq!(census, 0, "no annotation: {context}");
                } else if nth == 0 {
                    assert!(census >= 1, "census lost: {context}");
                }
                if threads == 1 {
                    assert_eq!(stats.dispatches, 0, "{context}");
                } else if stats.loops_proven > 0 {
                    assert!(stats.dispatches >= 1, "proven, never dispatched: {context}");
                }
            }
        }
    }
    tvm_runtime::pool::set_num_threads(1);
}
