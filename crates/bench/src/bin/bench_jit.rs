//! JIT smoke/regression bench: native codegen vs the interpreter oracle.
//!
//! Two invariants back the CI step:
//!
//! 1. **No divergence** — every PolyBench kernel, under its default and
//!    several randomly sampled configurations, must produce bit-identical
//!    outputs on a `CpuDevice::jit()` and the reference interpreter. Any
//!    mismatch exits nonzero. At `mini` the tiles the TIR interchange
//!    pass rewrites run too, whatever the draws ([`interchanged`]).
//! 2. **No lost fallback accounting** — every JIT compile attempt the
//!    device made must land in exactly one counter bucket
//!    (`functions_jitted` or `fallbacks`, with per-reason counts summing
//!    to the fallback total). A compile that neither jitted nor recorded
//!    its fallback would silently skew the service's status endpoint;
//!    here it exits nonzero.
//!
//! A second phase times all seven kernels on the interpreter, the scalar
//! VM, the optimized VM and the JIT and reports ns/element plus the
//! JIT-over-VM speedup and how many times slower the interpreter runs
//! than the scalar VM. On targets without a native backend every function
//! falls back (invariant 2 still holds, with `fallbacks == attempts`) and
//! the JIT column re-measures the optimized VM.
//!
//! Usage: `bench_jit [--smoke] [--size mini|small|medium|large]`
//! Full mode writes `results/BENCH_jit.json`; smoke mode only prints.

use configspace::{Configuration, ParamValue};
use polybench::molds::mold_for;
use polybench::{CodeMold, KernelName, ProblemSize};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;
use tvm_runtime::{
    compile, compile_optimized, default_backend, interp, jit_fingerprint, vm, CpuDevice, Device,
    NDArray,
};

fn kernel_label(kernel: KernelName) -> &'static str {
    match kernel {
        KernelName::Gemm => "gemm",
        KernelName::Mm3 => "3mm",
        KernelName::Mm2 => "2mm",
        KernelName::Lu => "lu",
        KernelName::Cholesky => "cholesky",
        KernelName::Syrk => "syrk",
        KernelName::Trmm => "trmm",
    }
}

fn die(msg: &str) -> ! {
    eprintln!("bench_jit: {msg}");
    std::process::exit(1);
}

/// Detected ISA features relevant to the packed-SIMD tier, plus the
/// `f64` lane width the default backend emits at. Recorded in the JSON so
/// `results/BENCH_*` figures stay interpretable across machines.
fn cpu_json() -> serde_json::Value {
    #[cfg(target_arch = "x86_64")]
    let (sse2, avx, avx2, fma) = (
        std::arch::is_x86_feature_detected!("sse2"),
        std::arch::is_x86_feature_detected!("avx"),
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("fma"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (sse2, avx, avx2, fma) = (false, false, false, false);
    serde_json::json!({
        "arch": std::env::consts::ARCH,
        "sse2": sse2,
        "avx": avx,
        "avx2": avx2,
        "fma": fma,
        "f64_lanes": default_backend().f64_lanes(),
    })
}

/// The `mini` tiles of `kernel` the TIR interchange pass rewrites, by
/// their medium originals: gemm `{1,2}`'s narrow row is `{1,5}` (25 has
/// no factor 2), 2mm `{1,1,1,2}` is itself, and `{1,5,36,1}`'s stage-2
/// column walk is `{1,6,8,1}`.
fn interchanged(kernel: KernelName) -> &'static [&'static [i64]] {
    match kernel {
        KernelName::Gemm => &[&[1, 5]],
        KernelName::Mm2 => &[&[1, 1, 1, 2], &[1, 6, 8, 1]],
        _ => &[],
    }
}

/// The configuration of `mold` with the tiles `ints`, in its space and
/// rewritten by the interchange pass, or the reason it is not.
fn fixed_case(mold: &dyn CodeMold, ints: &[i64]) -> Result<Configuration, String> {
    let names = mold.space().params().iter().map(|p| p.name().to_string());
    let config = Configuration::new(
        names.collect(),
        ints.iter().map(|&v| ParamValue::Int(v)).collect(),
    );
    if !mold.space().validate(&config) {
        return Err(format!("{} / {config}: not in the space", mold.name()));
    }
    let body = mold.instantiate(&config).body;
    if tvm_tir::passes::interchange::interchange_rows(&body).to_string() == body.to_string() {
        return Err(format!(
            "{} / {config}: no loop is interchanged",
            mold.name()
        ));
    }
    Ok(config)
}

/// Differential phase: run every kernel × config on the JIT device and
/// the interpreter from identical inputs; returns the number of device
/// runs (= expected JIT compile attempts).
fn differential(size: ProblemSize, configs_per_kernel: usize, dev: &CpuDevice) -> u64 {
    let mut rng = SmallRng::seed_from_u64(2024);
    let mut runs = 0u64;
    for kernel in KernelName::all() {
        let mold = mold_for(kernel, size);
        let mut configs = vec![mold.space().default_configuration()];
        for _ in 1..configs_per_kernel.max(1) {
            configs.push(mold.space().sample(&mut rng));
        }
        for ints in interchanged(kernel)
            .iter()
            .filter(|_| size == ProblemSize::Mini)
        {
            configs.push(fixed_case(&*mold, ints).unwrap_or_else(|e| die(&e)));
        }
        for config in configs {
            let func = mold.instantiate(&config);
            let args = mold.init_args();
            let mut via_interp: Vec<NDArray> = args.clone();
            let mut via_jit: Vec<NDArray> = args;
            interp::execute(&func, &mut via_interp).unwrap_or_else(|e| {
                die(&format!(
                    "{} / {config}: interpreter oracle failed: {e:?}",
                    mold.name()
                ))
            });
            dev.run(&func, &mut via_jit).unwrap_or_else(|e| {
                die(&format!(
                    "{} / {config}: JIT device failed: {e}",
                    mold.name()
                ))
            });
            runs += 1;
            for (i, (a, b)) in via_interp.iter().zip(&via_jit).enumerate() {
                if a != b {
                    die(&format!(
                        "DIVERGENCE: {} / {config}: arg {i} differs between interpreter and JIT",
                        mold.name()
                    ));
                }
            }
        }
    }
    runs
}

/// The accounting invariant: attempts partition into jitted + fallbacks,
/// and the per-reason counts cover every fallback.
fn check_accounting(dev: &CpuDevice, expected_attempts: u64) {
    let stats = dev
        .jit_stats()
        .unwrap_or_else(|| die("JIT-mode device reports no JIT stats"));
    let attempts = stats.functions_jitted + stats.fallbacks;
    if attempts != expected_attempts {
        die(&format!(
            "lost fallback accounting: {} device runs but {} compile attempts counted \
             ({} jitted + {} fallbacks)",
            expected_attempts, attempts, stats.functions_jitted, stats.fallbacks
        ));
    }
    let reason_sum: u64 = stats.fallback_reasons.iter().map(|(_, n)| n).sum();
    if reason_sum != stats.fallbacks {
        die(&format!(
            "lost fallback accounting: {} fallbacks but reasons sum to {reason_sum}: {:?}",
            stats.fallbacks, stats.fallback_reasons
        ));
    }
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    if stats.functions_jitted == 0 {
        die("vacuous run: nothing reached native code on x86-64");
    }
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
    if stats.fallbacks != expected_attempts {
        die("no-op backend must fall back on every attempt off x86-64");
    }
    println!(
        "accounting: {} attempts = {} jitted + {} fallbacks ({} reasons)",
        attempts,
        stats.functions_jitted,
        stats.fallbacks,
        stats.fallback_reasons.len()
    );
}

/// The packed-SIMD accounting invariant: the per-reason scalar counts
/// cover every scalar site, tiling only ever happens on packed sites,
/// and — where there is a native backend — the default gemm/2mm/3mm
/// runs must actually exercise the packed tier (non-vacuity).
fn check_simd_accounting(dev: &CpuDevice) {
    let stats = dev
        .simd_stats()
        .unwrap_or_else(|| die("JIT-mode device reports no SIMD stats"));
    let reason_sum: u64 = stats.scalar_reasons.iter().map(|(_, n)| n).sum();
    if reason_sum != stats.scalar_loops {
        die(&format!(
            "lost SIMD accounting: {} scalar sites but reasons sum to {reason_sum}: {:?}",
            stats.scalar_loops, stats.scalar_reasons
        ));
    }
    if stats.tiled_loops > stats.packed_loops {
        die(&format!(
            "lost SIMD accounting: {} tiled sites exceed {} packed sites",
            stats.tiled_loops, stats.packed_loops
        ));
    }
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    if stats.packed_loops == 0 {
        die("vacuous run: no vector site took the packed path");
    }
    println!(
        "simd: {} sites = {} packed ({} tiled) + {} scalar ({} reasons), lanes f64x{}",
        stats.sites(),
        stats.packed_loops,
        stats.tiled_loops,
        stats.scalar_loops,
        stats.scalar_reasons.len(),
        stats.f64_lanes
    );
}

/// Committed-baseline regression gate (smoke mode only): each timed
/// kernel's JIT-over-VM speedup must stay within a generous noise
/// margin of the figure checked into `results/BENCH_jit.json`, so a PR
/// that silently loses JIT performance fails CI here instead of
/// shipping. Full (non-smoke) runs rewrite the baseline. The gate only
/// arms when the run matches the committed conditions: native backend,
/// same problem size.
fn check_speedup_baseline(rows: &[TimedRow], size: ProblemSize) {
    const MARGIN: f64 = 0.4;
    if !cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        return;
    }
    let Ok(text) = std::fs::read_to_string("results/BENCH_jit.json") else {
        println!("baseline gate: no committed results/BENCH_jit.json — skipped");
        return;
    };
    let baseline: serde_json::Value = serde_json::from_str(&text)
        .unwrap_or_else(|e| die(&format!("committed results/BENCH_jit.json unreadable: {e}")));
    if baseline.get("size").and_then(|v| v.as_str()) != Some(size.to_string().as_str()) {
        println!("baseline gate: committed baseline is for another size — skipped");
        return;
    }
    let kernels = baseline
        .get("kernels")
        .and_then(|v| v.as_array())
        .cloned()
        .unwrap_or_default();
    for row in rows {
        let committed = kernels.iter().find_map(|k| {
            (k.get("kernel").and_then(|v| v.as_str()) == Some(row.kernel))
                .then(|| k.get("jit_speedup").and_then(|v| v.as_f64()))
                .flatten()
        });
        let Some(committed) = committed else { continue };
        let measured = row.jit_speedup();
        if measured < committed * MARGIN {
            die(&format!(
                "JIT performance regression on {}: measured {measured:.2}x vs committed \
                 {committed:.2}x (floor {:.2}x)",
                row.kernel,
                committed * MARGIN
            ));
        }
        println!(
            "baseline gate: {} {measured:.2}x >= {:.2}x (committed {committed:.2}x) ok",
            row.kernel,
            committed * MARGIN
        );
    }
}

struct TimedRow {
    kernel: &'static str,
    elements: usize,
    interp_s: f64,
    scalar_s: f64,
    opt_s: f64,
    jit_s: f64,
    jit_nests: usize,
    jitted: bool,
}

impl TimedRow {
    fn interp_ns_per_element(&self) -> f64 {
        self.interp_s * 1e9 / self.elements as f64
    }
    fn scalar_ns_per_element(&self) -> f64 {
        self.scalar_s * 1e9 / self.elements as f64
    }
    fn interp_over_scalar(&self) -> f64 {
        self.interp_s / self.scalar_s
    }
    fn opt_ns_per_element(&self) -> f64 {
        self.opt_s * 1e9 / self.elements as f64
    }
    fn jit_ns_per_element(&self) -> f64 {
        self.jit_s * 1e9 / self.elements as f64
    }
    fn jit_speedup(&self) -> f64 {
        self.opt_s / self.jit_s
    }
}

/// Fastest of `reps` runs of `run`, each on a fresh copy of `args`.
fn fastest(reps: usize, args: &[NDArray], run: impl Fn(&mut [NDArray])) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let mut a = args.to_vec();
        let t0 = Instant::now();
        run(&mut a);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Times one kernel's baseline configuration on every engine: the
/// interpreter fastest of 3 (a run takes milliseconds at `mini`, so a
/// late wake-up is noise), the compiled engines fastest of `reps`.
fn time_kernel(kernel: KernelName, size: ProblemSize, reps: usize) -> TimedRow {
    let mold = mold_for(kernel, size);
    let config = mold.baseline_configuration();
    let func = mold.instantiate(&config);
    let args = mold.init_args();
    let elements: usize = func
        .params
        .iter()
        .map(|b| b.shape.iter().product::<usize>())
        .sum();
    let scalar = compile(&func).expect("scalar compiler must compile");
    let optimized = compile_optimized(&func).expect("optimized pipeline must compile");
    let (jit_func, jitted) = match default_backend().jit_compile(&optimized) {
        Ok(jf) => (jf, true),
        Err(_) => (
            compile_optimized(&func).expect("optimized pipeline must compile"),
            false,
        ),
    };
    // The compiled engines first: timed after the interpreter, the JIT's
    // 10 µs gemm and 2mm runs read up to 2× slower on a 2-vCPU host.
    let opt_s = fastest(reps, &args, |a| {
        vm::execute(&optimized, a).expect("optimized vm run");
    });
    let jit_s = fastest(reps, &args, |a| {
        vm::execute(&jit_func, a).expect("jit run");
    });
    TimedRow {
        kernel: kernel_label(kernel),
        elements,
        interp_s: fastest(3, &args, |a| {
            interp::execute(&func, a).expect("interpreter run")
        }),
        scalar_s: fastest(reps, &args, |a| {
            vm::execute(&scalar, a).expect("scalar vm run");
        }),
        opt_s,
        jit_s,
        jit_nests: jit_func.jit_nest_count(),
        jitted,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let size = args
        .iter()
        .position(|a| a == "--size")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| ProblemSize::parse(s))
        .unwrap_or(ProblemSize::Mini);
    let configs_per_kernel = if smoke { 3 } else { 5 };
    // Fastest of 15 in both modes: a `mini` kernel runs 10–20 µs on the
    // JIT, a late pool wake-up doubles that, and the smoke gate compares
    // against the full run's figure.
    let reps = 15;

    println!("jit fingerprint: {}", jit_fingerprint());
    let dev = CpuDevice::jit();
    let runs = differential(size, configs_per_kernel, &dev);
    println!(
        "differential: {} kernel runs bit-identical to the interpreter",
        runs
    );
    check_accounting(&dev, runs);
    check_simd_accounting(&dev);

    let native = cfg!(all(target_arch = "x86_64", target_os = "linux"));
    if !native {
        println!(
            "note: no native JIT backend on this target — the jit ns/el and jit-x columns \
             re-measure the optimized VM (every compile attempt declines)"
        );
    }
    let mut rows = Vec::new();
    println!(
        "kernel   elements  interp ns/el  scalar ns/el  interp/scalar     opt ns/el     jit ns/el  nests  jit-x"
    );
    for k in KernelName::all() {
        let row = time_kernel(k, size, reps);
        println!(
            "{:<8} {:>7}  {:>12.1}  {:>12.1}  {:>12.1}x  {:>12.1}  {:>12.1}  {:>5}  {:>4.2}x",
            row.kernel,
            row.elements,
            row.interp_ns_per_element(),
            row.scalar_ns_per_element(),
            row.interp_over_scalar(),
            row.opt_ns_per_element(),
            row.jit_ns_per_element(),
            row.jit_nests,
            row.jit_speedup()
        );
        rows.push(row);
    }

    if smoke {
        check_speedup_baseline(&rows, size);
        println!("smoke mode: all invariants hold");
        return;
    }

    let simd = dev.simd_stats().expect("jit device reports simd stats");

    let json = serde_json::json!({
        "jit_engine": jit_fingerprint(),
        "native_backend": native,
        "size": size.to_string(),
        "differential_runs": runs,
        "cpu": cpu_json(),
        "simd": serde_json::json!({
            "packed_loops": simd.packed_loops,
            "tiled_loops": simd.tiled_loops,
            "scalar_loops": simd.scalar_loops,
            "f64_lanes": simd.f64_lanes,
            "scalar_reasons": simd.scalar_reasons.iter().map(|(r, n)| serde_json::json!({
                "reason": r,
                "count": n,
            })).collect::<Vec<_>>(),
        }),
        "kernels": rows.iter().map(|r| serde_json::json!({
            "kernel": r.kernel,
            "elements": r.elements,
            "interp_s": r.interp_s,
            "scalar_s": r.scalar_s,
            "optimized_s": r.opt_s,
            "jit_s": r.jit_s,
            "interp_ns_per_element": r.interp_ns_per_element(),
            "scalar_ns_per_element": r.scalar_ns_per_element(),
            "interp_over_scalar": r.interp_over_scalar(),
            "optimized_ns_per_element": r.opt_ns_per_element(),
            "jit_ns_per_element": r.jit_ns_per_element(),
            "jit_nests": r.jit_nests,
            "jitted": r.jitted,
            "jit_speedup": r.jit_speedup(),
        })).collect::<Vec<_>>(),
    });
    std::fs::create_dir_all("results").expect("mkdir results");
    std::fs::write(
        "results/BENCH_jit.json",
        serde_json::to_string_pretty(&json).expect("serialize"),
    )
    .expect("write results/BENCH_jit.json");
    println!("wrote results/BENCH_jit.json");
}
