//! Packed-SIMD differential suite: the vectorizing JIT tiers against
//! the scalar tier and the interpreter oracle, through the shared
//! harness (`common::oracle`, which runs the host's widest tier, SSE2
//! and scalar).
//!
//! The packed tier claims bit-exactness *by construction* — lanes only
//! ever carry disjoint elements, reductions stay scalar, and a multiply
//! and its add are never contracted into one FMA — so every tier must
//! produce bit-identical outputs on every input. This suite drives that
//! claim over the row widths around every vector width and the
//! unroll-and-jam tile shapes on gemm, runs vectorize-annotated maps —
//! which the JIT compiles like any loop — on every tier, and pins down
//! non-vacuity: on x86-64 the default backend must actually take the
//! packed path for the shapes this suite claims to cover.
//!
//! Off x86-64 every tier declines and runs the optimized VM, which keeps
//! the exactness half of the suite green everywhere.

mod common;

use common::nests::{row_matmul, strided_map, with_ints};
use common::oracle::{check, jit_tiers};
use polybench::molds::mold_for;
use polybench::{KernelName, ProblemSize};
use tvm_runtime::{compile_optimized, default_backend, scalar_backend};

#[test]
fn vectorized_maps_match_the_interpreter_on_every_tier() {
    // Vectorize-annotated maps at extents straddling every vector width
    // (lanes − 1, lanes, lanes + 1, 2·lanes ± 1, a multi-tile 33) over
    // unit and non-unit strides and base offsets, on every tier against
    // the interpreter. The annotation changes nothing the JIT emits: a
    // map's loop is one scalar strided site, and every map but the three
    // of extent 1, which have no loop, reaches native code.
    let mut jitted = vec![0; jit_tiers().len()];
    for extent in [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33] {
        for (stride, offset) in [(1, 1), (2, 0), (3, 4)] {
            let (func, args) = strided_map(extent, stride, offset);
            let context = format!("map n={extent} stride={stride} offset={offset}");
            check(&func, &args, &context).expect("runs");
            let cf = compile_optimized(&func).expect("optimized compile");
            for ((tier, backend), jitted) in jit_tiers().iter().zip(&mut jitted) {
                if let Ok(native) = backend.jit_compile(&cf) {
                    let report = native.jit_simd_report().expect("report");
                    assert_eq!(report.sites(), 1, "{context} on the {tier}: {report:?}");
                    let strided = report.scalar_reasons.get("strided-loop");
                    assert_eq!(strided, Some(&1), "{context} on the {tier}: {report:?}");
                    *jitted += 1;
                }
            }
        }
    }
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    assert_eq!(jitted, vec![14 * 3 - 3; jit_tiers().len()]);
}

#[test]
fn short_rows_match_at_every_extent_on_every_tier() {
    // A row's width is picked by its extent — AVX, then SSE2, then scalar
    // over what each leaves — so extents 1–9 cover every mix: one scalar
    // element, one `f64x2`, `f64x4` + one, two `f64x4` + one. Under `k`
    // directly (jammed four steps at a time when `k` has them, the
    // leftover steps plain) and under a two-row tile (never jammed), on
    // every tier against the interpreter.
    for row in 1..=9 {
        for (yt, kext) in [(1, 3), (1, 6), (2, 5)] {
            let (func, args) = row_matmul(row, yt, kext);
            let context = format!("row {row} under a {yt}-row tile, k {kext}");
            check(&func, &args, &context).expect("runs");
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            {
                let cf = compile_optimized(&func).expect("optimized compile");
                assert!(cf.microkernel_count() > 0, "{context}: no microkernel");
                let sse2 = tvm_runtime::codegen::X86Backend::sse2_only();
                let jitted = tvm_runtime::CodegenBackend::jit_compile(&sse2, &cf).expect("jits");
                // A row is packed as soon as it holds one SSE2 vector:
                // every row of two or more (a row of one is no row: `k`
                // itself is the microkernel).
                let report = jitted.jit_simd_report().expect("report");
                assert_eq!(report.packed_loops > 0, row >= 2, "{context}: {report:?}");
                let short = report.scalar_reasons.get("short-extent");
                assert_eq!(short, None, "{context}: {report:?}");
            }
        }
    }
}

#[test]
fn packed_matches_scalar_on_jam_tile_shapes() {
    // Gemm with a y-tile of 1 leaves the reduction loop directly
    // wrapping the mul-add microkernel — the shape the JIT's
    // unroll-and-jam tier fuses. Mini gemm's k = 30 (30 % 4 = 2)
    // exercises the jam's group tail at every x-tile the space offers,
    // and the x-tile sweep varies the packed j-loop's remainder.
    let mold = mold_for(KernelName::Gemm, ProblemSize::Mini);
    let base = mold.baseline_configuration();
    let p1 = mold.space().get("P1").expect("gemm tiles x by P1");
    for tx in p1.values().iter().filter_map(|v| v.as_int()) {
        let config = with_ints(mold.space(), &base, &[("P0", 1), ("P1", tx)]);
        if !mold.space().validate(&config) {
            continue;
        }
        let func = mold.instantiate(&config);
        check(&func, &mold.init_args(), &format!("gemm jam tx={tx}")).expect("runs");
    }
}

#[test]
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn packed_path_is_not_vacuous() {
    // The exactness tests above are only meaningful if the default
    // backend actually takes the packed path on the shapes they cover.
    // Gemm at the bench baseline configuration must report packed
    // sites, and the accounting invariant `packed + scalar-by-reason =
    // total` must hold on its report.
    let mold = mold_for(KernelName::Gemm, ProblemSize::Mini);
    let func = mold.instantiate(&mold.baseline_configuration());
    let cf = compile_optimized(&func).expect("optimized compile");
    let jf = default_backend().jit_compile(&cf).expect("gemm must jit");
    let report = jf
        .jit_simd_report()
        .expect("jitted function keeps a report");
    assert!(
        report.packed_loops > 0,
        "gemm at default config must reach the packed tier: {report:?}"
    );
    let reason_sum: u64 = report.scalar_reasons.values().sum();
    assert_eq!(
        report.scalar_loops, reason_sum,
        "every scalar site must carry a reason: {report:?}"
    );
    assert_eq!(report.sites(), report.packed_loops + report.scalar_loops);
}

#[test]
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn jam_tier_is_not_vacuous() {
    // At least one y-tile-of-1 gemm shape must report a register-tiled
    // (unroll-and-jam) packed site, and the scalar backend must report
    // none anywhere — the tiers really are distinct code paths.
    let mold = mold_for(KernelName::Gemm, ProblemSize::Mini);
    let config = with_ints(mold.space(), &mold.baseline_configuration(), &[("P0", 1)]);
    assert!(
        mold.space().validate(&config),
        "y-tile 1 must be in the gemm space"
    );
    let func = mold.instantiate(&config);
    let cf = compile_optimized(&func).expect("optimized compile");
    let jf = default_backend().jit_compile(&cf).expect("gemm must jit");
    let report = jf.jit_simd_report().expect("report");
    assert!(
        report.tiled_loops > 0,
        "y-tile-1 gemm must hit the unroll-and-jam tier: {report:?}"
    );
    let sf = scalar_backend().jit_compile(&cf).expect("scalar jit");
    let sreport = sf.jit_simd_report().expect("report");
    assert_eq!(
        sreport.packed_loops, 0,
        "scalar tier must never pack: {sreport:?}"
    );
}
