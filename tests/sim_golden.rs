//! Golden values pinning the simulated measurement path to the bit.
//!
//! The cost model, the guard-selectivity sampler and the noise draw are
//! deterministic; anything that makes them cheaper (memoization, a
//! different environment representation in `tir::analysis`) must leave
//! every modeled number exactly where it was. The values below were
//! recorded before the first such change.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tvm_autotune::polybench::{molds::mold_for, KernelName, ProblemSize};
use tvm_autotune::runtime::Device;
use tvm_autotune::sim::{cost_model, GpuSpec, SimDevice};
use tvm_autotune::tir::analysis::analyze;
use tvm_autotune::tir::PrimFunc;

fn default_func(kernel: KernelName, size: ProblemSize) -> PrimFunc {
    let mold = mold_for(kernel, size);
    mold.instantiate(&mold.space().default_configuration())
}

/// `(kernel, size, run on swing_cpu_core(), run on a100())` as `f64` bits.
const RUNS: [(KernelName, ProblemSize, u64, u64); 3] = [
    (
        KernelName::Lu,
        ProblemSize::Large,
        0x4021be8ec4ba11d7,
        0x404d936228c8906f,
    ),
    (
        KernelName::Cholesky,
        ProblemSize::Large,
        0x3ff22e7d4df8f72e,
        0x3fa94ced65833abe,
    ),
    (
        KernelName::Mm3,
        ProblemSize::ExtraLarge,
        0x40534e85b23d700d,
        0x4056c838363df06c,
    ),
];

#[test]
fn default_configurations_run_to_the_recorded_bits() {
    for (kernel, size, swing, a100) in RUNS {
        let func = default_func(kernel, size);
        for (spec, want) in [(GpuSpec::swing_cpu_core(), swing), (GpuSpec::a100(), a100)] {
            let dev = SimDevice::new(spec);
            // Twice: the second run is served from the device's memo.
            for attempt in 0..2 {
                let got = dev.run(&func, &mut []).expect("simulated run");
                assert_eq!(
                    got.to_bits(),
                    want,
                    "{kernel}-{size} on {}, run {attempt}: {got:e} is {:#018x}, recorded {want:#018x}",
                    dev.name(),
                    got.to_bits(),
                );
            }
        }
    }
}

#[test]
fn guard_selectivity_samples_are_the_recorded_ones() {
    let selectivity = |kernel| -> Vec<f64> {
        analyze(&default_func(kernel, ProblemSize::Large))
            .iter()
            .map(|f| f.guard_selectivity)
            .collect()
    };
    assert_eq!(
        selectivity(KernelName::Lu),
        [0.171875, 0.515625, 0.173828125]
    );
    assert_eq!(
        selectivity(KernelName::Cholesky),
        [0.171875, 0.515625, 0.001953125, 0.001953125]
    );
}

/// Every selectivity and every modeled total, on both presets, over the
/// whole lu and cholesky spaces at the paper's sizes and seeded samples of
/// 3mm (the third paper kernel) and of the four extension kernels, folded
/// into one FNV-1a value. Recorded before guards were compiled to affine
/// forms; the existing tests cover only default configurations.
#[test]
fn the_whole_modeled_space_folds_to_the_recorded_value() {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |bits: u64| {
        for byte in bits.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    // `None` is the whole space, `Some(n)` n draws of a seeded sampler.
    let sweeps = [
        (KernelName::Lu, ProblemSize::Large, None),
        (KernelName::Lu, ProblemSize::ExtraLarge, None),
        (KernelName::Cholesky, ProblemSize::Large, None),
        (KernelName::Cholesky, ProblemSize::ExtraLarge, None),
        (KernelName::Mm3, ProblemSize::ExtraLarge, Some(300)),
        (KernelName::Gemm, ProblemSize::Large, Some(100)),
        (KernelName::Mm2, ProblemSize::Large, Some(100)),
        (KernelName::Syrk, ProblemSize::Large, Some(100)),
        (KernelName::Trmm, ProblemSize::Large, Some(100)),
    ];
    let specs = [GpuSpec::swing_cpu_core(), GpuSpec::a100()];
    let mut funcs = 0;
    for (kernel, size, samples) in sweeps {
        let mold = mold_for(kernel, size);
        let space = mold.space();
        let configs: Vec<_> = match samples {
            None => space.grid().collect(),
            Some(n) => {
                let mut rng = SmallRng::seed_from_u64(2023);
                (0..n).map(|_| space.sample(&mut rng)).collect()
            }
        };
        for config in &configs {
            let func = mold.instantiate(config);
            for feats in analyze(&func) {
                fold(feats.guard_selectivity.to_bits());
            }
            for spec in &specs {
                fold(cost_model(&func, spec).total().to_bits());
            }
            funcs += 1;
        }
    }
    assert_eq!(funcs, 2652);
    assert_eq!(hash, 0xb76b_0df6_81a6_36ba, "{hash:#018x}");
}
