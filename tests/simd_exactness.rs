//! Packed-SIMD differential suite: the vectorizing JIT backend against
//! the scalar JIT tier and the interpreter oracle.
//!
//! The packed tier claims bit-exactness *by construction* — lanes only
//! ever carry disjoint elements, reductions stay scalar, and a multiply
//! and its add are never contracted into one FMA — so the same function
//! compiled by [`default_backend`] (packed, AVX when available) and
//! [`scalar_backend`] (scalar tier forced) must produce bit-identical
//! outputs on every input. This suite drives that claim over the row
//! widths around every vector width and the unroll-and-jam tile shapes
//! on gemm, runs vectorize-annotated maps and `f32` kernels — which the
//! JIT compiles like any loop, and refuses whole, respectively — on every
//! tier, and pins down non-vacuity: on x86-64 the default backend must
//! actually take the packed path for the shapes this suite claims to
//! cover.
//!
//! Off x86-64 both backends decline and every engine degenerates to
//! the optimized VM, which keeps the exactness half of the suite green
//! everywhere.

use configspace::{ConfigSpace, Configuration, Hyperparameter, ParamValue};
use polybench::molds::mold_for;
use polybench::{KernelName, ProblemSize};
use std::sync::Arc;
use tvm_runtime::{
    compile_optimized, default_backend, interp, scalar_backend, vm, CodegenBackend, CpuDevice,
    Device, NDArray,
};
use tvm_te::{compute, placeholder, reduce_axis, sum, DType, Schedule};
use tvm_tir::lower::lower;
use tvm_tir::PrimFunc;

/// Run `func` through the interpreter, the scalar-tier JIT, and the
/// packed-tier JIT from identical argument snapshots; results and every
/// array must match bit for bit. Backends that decline fall back to
/// the optimized VM, mirroring the device ladder's contract.
fn assert_packed_matches_scalar(func: &PrimFunc, args: &[NDArray], context: &str) {
    let mut via_interp = args.to_vec();
    let mut via_scalar = args.to_vec();
    let mut via_packed = args.to_vec();
    let r_interp = interp::execute(func, &mut via_interp);
    let cf_opt = compile_optimized(func)
        .unwrap_or_else(|e| panic!("{context}: optimized pipeline must compile, got {e}"));
    let cf_scalar = scalar_backend()
        .jit_compile(&cf_opt)
        .unwrap_or_else(|_| cf_opt.clone());
    let cf_packed = default_backend().jit_compile(&cf_opt).unwrap_or(cf_opt);
    let r_scalar = vm::execute(&cf_scalar, &mut via_scalar);
    let r_packed = vm::execute(&cf_packed, &mut via_packed);
    assert_eq!(
        r_interp, r_scalar,
        "{context}: scalar JIT result/error class diverged"
    );
    assert_eq!(
        r_interp, r_packed,
        "{context}: packed JIT result/error class diverged"
    );
    for (i, (a, b)) in via_interp.iter().zip(&via_scalar).enumerate() {
        assert_eq!(a, b, "{context}: arg {i} diverged on the scalar JIT");
    }
    for (i, (a, b)) in via_interp.iter().zip(&via_packed).enumerate() {
        assert_eq!(a, b, "{context}: arg {i} diverged on the packed JIT");
    }
}

/// `B[i] = A[i·stride + offset] · A[i·stride + offset] + A[offset]`
/// with the `i` axis marked vectorized and proven race-free: a strided
/// loop like any other on every rung.
fn strided_map(extent: usize, stride: i64, offset: i64, dtype: DType) -> (PrimFunc, Vec<NDArray>) {
    let src = offset as usize + stride as usize * extent + 1;
    let a = placeholder([src], dtype, "A");
    let b = compute([extent], "B", |i| {
        let at = a.at(&[i[0].clone() * stride + offset]);
        at.clone() * at + a.at(&[tvm_te::ops::int(offset)])
    });
    let mut s = Schedule::create(std::slice::from_ref(&b));
    let x = b.axis(0);
    s.vectorize(&b, &x);
    let func = lower(&s, &[a, b], "strided_map");
    let args = vec![
        NDArray::random(&[src], dtype, 0x51_3d ^ (extent as u64) << 8, -2.0, 2.0),
        NDArray::zeros(&[extent], dtype),
    ];
    (func, args)
}

/// Copy of `base` with named values replaced.
fn config_with(base: &Configuration, names: &[String], overrides: &[(&str, i64)]) -> Configuration {
    let values = names
        .iter()
        .map(|name| {
            overrides
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| ParamValue::Int(v))
                .or_else(|| base.get(name).cloned())
                .expect("base configuration covers every parameter")
        })
        .collect();
    Configuration::new(names.to_vec(), values)
}

/// The space's parameter names, in declaration order.
fn param_names(space: &ConfigSpace) -> Vec<String> {
    space
        .params()
        .iter()
        .map(|p| p.name().to_string())
        .collect()
}

/// The ordinal values a parameter offers (empty for non-ordinals).
fn ordinal_values(space: &ConfigSpace, name: &str) -> Vec<i64> {
    space
        .params()
        .iter()
        .filter(|p| p.name() == name)
        .flat_map(|p| match p {
            Hyperparameter::Ordinal { sequence, .. } => {
                sequence.iter().filter_map(|v| v.as_int()).collect()
            }
            _ => Vec::new(),
        })
        .collect()
}

/// The JIT rung's three tiers: the host's widest, SSE2 and scalar (the
/// first two are one off x86-64, where every backend declines).
fn tiers() -> Vec<(&'static str, Arc<dyn CodegenBackend>)> {
    let mut tiers = vec![("default", default_backend()), ("scalar", scalar_backend())];
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    tiers.push((
        "SSE2",
        Arc::new(tvm_runtime::codegen::X86Backend::sse2_only()),
    ));
    tiers
}

#[test]
fn vectorized_maps_and_f32_kernels_match_the_interpreter_on_every_tier() {
    // Vectorize-annotated maps at extents straddling every vector width
    // (lanes − 1, lanes, lanes + 1, 2·lanes ± 1, a multi-tile 33) over
    // unit and non-unit strides and base offsets, in `f64` and `f32`, and
    // `f32` row matmuls, on a JIT device per tier against the
    // interpreter. The annotation changes nothing the JIT emits: an `f64`
    // map's loop is one scalar strided site. An `f32` function runs whole
    // on the optimized VM, and every one is counted under the one reason.
    let mut maps = Vec::new();
    for extent in [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33] {
        for (stride, offset) in [(1, 1), (2, 0), (3, 4)] {
            for dtype in [DType::F64, DType::F32] {
                let (func, args) = strided_map(extent, stride, offset, dtype);
                let context = format!("map n={extent} stride={stride} offset={offset} {dtype:?}");
                maps.push((func, args, context, dtype));
            }
        }
    }
    for row in 1..=9 {
        let (func, args) = row_matmul(row, 1, 6, DType::F32);
        maps.push((func, args, format!("f32 row {row}"), DType::F32));
    }
    let n_f32 = maps.iter().filter(|m| m.3 == DType::F32).count() as u64;
    for (tier, backend) in tiers() {
        let [f64_device, f32_device] =
            [0, 1].map(|_| CpuDevice::jit_with_backend(Arc::clone(&backend)));
        for (func, args, context, dtype) in &maps {
            let mut want = args.clone();
            interp::execute(func, &mut want).expect("interpreter");
            let device = if *dtype == DType::F32 {
                &f32_device
            } else {
                &f64_device
            };
            let mut got = args.clone();
            device.run(func, &mut got).expect("JIT device");
            assert_eq!(got, want, "{context} on the {tier} tier");
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            if *dtype == DType::F64 {
                // Extent 1 leaves no loop to compile.
                let cf = compile_optimized(func).expect("optimized compile");
                if let Ok(jitted) = backend.jit_compile(&cf) {
                    let report = jitted.jit_simd_report().expect("report");
                    assert_eq!(report.sites(), 1, "{context}: {report:?}");
                    let strided = report.scalar_reasons.get("strided-loop");
                    assert_eq!(strided, Some(&1), "{context}: {report:?}");
                }
            }
        }
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        {
            let stats = f32_device.jit_stats().expect("a JIT device keeps counters");
            assert_eq!((stats.functions_jitted, stats.fallbacks), (0, n_f32));
            let [(reason, count)] = stats.fallback_reasons.as_slice() else {
                panic!("{tier}: one reason for every f32 function: {stats:?}");
            };
            assert!(reason.ends_with("(the JIT is f64-only)"), "{reason}");
            assert_eq!(*count, n_f32);
            // Every `f64` map but the three of extent 1, which have no loop.
            let stats = f64_device.jit_stats().expect("a JIT device keeps counters");
            let n_f64 = maps.len() as u64 - n_f32;
            assert_eq!(stats.functions_jitted, n_f64 - 3, "{tier}: {stats:?}");
        }
    }
}

/// `C[i, j] = Σₖ A[i, k]·B[k, j]` over `[2·yt, 2·row]` with `k` outside
/// the `yt × row` tile: the `j.inner` row is a mul-add microkernel of
/// extent `row`, straight under `k` when `yt` is 1 (the jammed shape).
fn row_matmul(row: usize, yt: usize, kext: usize, dtype: DType) -> (PrimFunc, Vec<NDArray>) {
    let (m, n) = (2 * yt, 2 * row);
    let a = placeholder([m, kext], dtype, "A");
    let b = placeholder([kext, n], dtype, "B");
    let k = reduce_axis(0, kext as i64, "k");
    let c = compute([m, n], "C", |i| {
        sum(
            a.at(&[i[0].clone(), k.var_expr()]) * b.at(&[k.var_expr(), i[1].clone()]),
            std::slice::from_ref(&k),
        )
    });
    let mut s = Schedule::create(std::slice::from_ref(&c));
    let (y, x) = (c.axis(0), c.axis(1));
    let (yo, yi) = s.split(&c, &y, yt as i64);
    let (xo, xi) = s.split(&c, &x, row as i64);
    s.reorder(&c, &[yo, xo, k.clone(), yi, xi]);
    let func = lower(&s, &[a, b, c], "row_matmul");
    let args = vec![
        NDArray::random(&[m, kext], dtype, 0xa0 + row as u64, -2.0, 2.0),
        NDArray::random(&[kext, n], dtype, 0xb0 + row as u64, -2.0, 2.0),
        NDArray::zeros(&[m, n], dtype),
    ];
    (func, args)
}

#[test]
fn short_rows_match_at_every_extent_on_every_tier() {
    // A row's width is picked by its extent — AVX, then SSE2, then scalar
    // over what each leaves — so extents 1–9 cover every mix: one scalar
    // element, one `f64x2`, `f64x4` + one, two `f64x4` + one (and the
    // same rows in `f32`, on the optimized VM). Under `k` directly (jammed four
    // steps at a time when `k` has them, the leftover steps plain) and
    // under a two-row tile (never jammed), on the host's widest tier, the
    // SSE2 tier and the scalar tier, against the interpreter.
    for row in 1..=9 {
        for (yt, kext) in [(1, 3), (1, 6), (2, 5)] {
            for dtype in [DType::F64, DType::F32] {
                let (func, args) = row_matmul(row, yt, kext, dtype);
                let context = format!("row {row} under a {yt}-row tile, k {kext}, {dtype:?}");
                assert_packed_matches_scalar(&func, &args, &context);
                // An `f32` row runs on the optimized VM, the JIT refusing
                // it whole: only the `f64` rows count towards non-vacuity.
                #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
                {
                    let cf = compile_optimized(&func).expect("optimized compile");
                    assert!(cf.microkernel_count() > 0, "{context}: no microkernel");
                    let sse2 = tvm_runtime::codegen::X86Backend::sse2_only();
                    if dtype == DType::F32 {
                        assert!(sse2.jit_compile(&cf).is_err(), "{context}");
                        continue;
                    }
                    let jitted = sse2.jit_compile(&cf).expect("must jit");
                    let (mut want, mut got) = (args.clone(), args.clone());
                    interp::execute(&func, &mut want).expect("interpreter");
                    vm::execute(&jitted, &mut got).expect("SSE2 tier");
                    assert_eq!(got, want, "{context}: SSE2 tier");
                    // A row is packed as soon as it holds one SSE2 vector:
                    // every row of two or more (a row of one is no row:
                    // `k` itself is the microkernel).
                    let report = jitted.jit_simd_report().expect("report");
                    assert_eq!(report.packed_loops > 0, row >= 2, "{context}: {report:?}");
                    let short = report.scalar_reasons.get("short-extent");
                    assert_eq!(short, None, "{context}: {report:?}");
                }
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
    let names = param_names(mold.space());
    for tx in ordinal_values(mold.space(), "P1") {
        let config = config_with(&base, &names, &[("P0", 1), ("P1", tx)]);
        if !mold.space().validate(&config) {
            continue;
        }
        let func = mold.instantiate(&config);
        let args = mold.init_args();
        assert_packed_matches_scalar(&func, &args, &format!("gemm jam tx={tx}"));
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
    let config = config_with(
        &mold.baseline_configuration(),
        &param_names(mold.space()),
        &[("P0", 1)],
    );
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
