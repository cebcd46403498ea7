//! Golden values pinning the simulated measurement path to the bit.
//!
//! The cost model, the guard-selectivity sampler and the noise draw are
//! deterministic; anything that makes them cheaper (memoization, a
//! different environment representation in `tir::analysis`) must leave
//! every modeled number exactly where it was. The default-configuration
//! runs and selectivities were recorded at 0677026, before the first such
//! change; the whole-space fold at 1139378, before guards were compiled
//! to affine forms. The values are
//! `tests/pins/sim_golden.{runs,selectivity,whole_space}.txt`, moved there
//! verbatim from this file's constants.

mod common;

use common::pins;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt::Write;
use tvm_autotune::polybench::{molds::mold_for, KernelName, ProblemSize};
use tvm_autotune::runtime::Device;
use tvm_autotune::sim::{cost_model, GpuSpec, SimDevice};
use tvm_autotune::tir::analysis::analyze;
use tvm_autotune::tir::PrimFunc;

fn default_func(kernel: KernelName, size: ProblemSize) -> PrimFunc {
    let mold = mold_for(kernel, size);
    mold.instantiate(&mold.space().default_configuration())
}

/// `<kernel>-<size>/<device> <run f64 bits>` for the three paper
/// kernels at their paper sizes on both presets.
#[test]
fn default_configurations_run_to_the_recorded_bits() {
    let mut got = String::new();
    for (kernel, size) in [
        (KernelName::Lu, ProblemSize::Large),
        (KernelName::Cholesky, ProblemSize::Large),
        (KernelName::Mm3, ProblemSize::ExtraLarge),
    ] {
        let func = default_func(kernel, size);
        for spec in [GpuSpec::swing_cpu_core(), GpuSpec::a100()] {
            let dev = SimDevice::new(spec);
            let first = dev.run(&func, &mut []).expect("simulated run");
            // The second run is served from the device's memo.
            let again = dev.run(&func, &mut []).expect("simulated run");
            assert_eq!(first.to_bits(), again.to_bits(), "{kernel}-{size}");
            writeln!(
                got,
                "{kernel}-{size}/{} {:#018x}",
                dev.name(),
                first.to_bits()
            )
            .unwrap();
        }
    }
    pins::check("sim_golden.runs", &got);
}

/// `<kernel>-large/<store> <selectivity>` for every store of the
/// default lu and cholesky, in `analyze` order.
#[test]
fn guard_selectivity_samples_are_the_recorded_ones() {
    let mut got = String::new();
    for kernel in [KernelName::Lu, KernelName::Cholesky] {
        let size = ProblemSize::Large;
        for (i, f) in analyze(&default_func(kernel, size)).iter().enumerate() {
            writeln!(got, "{kernel}-{size}/{i} {}", f.guard_selectivity).unwrap();
        }
    }
    pins::check("sim_golden.selectivity", &got);
}

/// Every selectivity and every modeled total, on both presets, over the
/// whole lu and cholesky spaces at the paper's sizes and seeded samples of
/// 3mm (the third paper kernel) and of the four extension kernels, folded
/// into one FNV-1a value; pinned with the number of functions folded.
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
    pins::check(
        "sim_golden.whole_space",
        &format!("funcs {funcs}\nhash {hash:#018x}\n"),
    );
}
