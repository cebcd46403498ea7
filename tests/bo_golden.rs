//! Golden trajectories of the deleted BO-side loop, reproduced by the driver.
//!
//! `ytopt_bo::run` and `ytopt_bo::run_parallel` were a second copy of the
//! trial loop in `autotvm::driver`. Before they were deleted, their
//! 40-trial trajectories on lu-large / `swing_cpu_core()` (noise-free,
//! deterministic) were recorded at the last commit that had them, with
//! `BoOptions { max_evals: 40, search: SearchConfig { seed: 9, .. }, .. }`
//! (and `batch = 4` for `run_parallel`), as (configuration key, runtime
//! `f64` bits). `tune` / `tune_parallel` over a [`YtoptTuner`] must follow
//! them exactly: the deleted path and the surviving one were the same
//! program.

use tvm_autotune::prelude::*;

const SEQUENTIAL: [(&str, u64); 40] = [
    ("P0=250;P1=25;", 0x4001f7d6fe9755c8),
    ("P0=250;P1=80;", 0x402219642239aecd),
    ("P0=125;P1=1000;", 0x402192d7fc2a0876),
    ("P0=80;P1=2;", 0x40019f4fcf31a4e8),
    ("P0=40;P1=80;", 0x402115fac175dabb),
    ("P0=25;P1=25;", 0x4000beeba1d499fd),
    ("P0=20;P1=10;", 0x4002259d2339dacd),
    ("P0=250;P1=50;", 0x402211ef0d1169bf),
    ("P0=200;P1=1;", 0x4000b87d35409d77),
    ("P0=200;P1=2000;", 0x40213a52c5f4c256),
    ("P0=100;P1=25;", 0x400096b9ae9f4f68),
    ("P0=125;P1=20;", 0x4001edfc973b6e4a),
    ("P0=250;P1=1;", 0x40018635f5a2a285),
    ("P0=40;P1=40;", 0x40217459dc5e57c0),
    ("P0=25;P1=40;", 0x4021ee7afd84e7b4),
    ("P0=40;P1=1;", 0x40004a57ce3c7642),
    ("P0=125;P1=25;", 0x4000c04bc55dc11e),
    ("P0=50;P1=25;", 0x4001b39d28970119),
    ("P0=200;P1=25;", 0x400136c39ca2871e),
    ("P0=40;P1=25;", 0x40000078ba1022d4),
    ("P0=400;P1=25;", 0x4000b690d6ab30a7),
    ("P0=400;P1=40;", 0x40208f062c98f8e4),
    ("P0=500;P1=25;", 0x4000e49cf2735009),
    ("P0=1;P1=25;", 0x40001327cac42b5c),
    ("P0=1;P1=40;", 0x4021b72460035c7d),
    ("P0=2;P1=25;", 0x4000d06d344bcf01),
    ("P0=250;P1=20;", 0x400310fbfcfd4a1a),
    ("P0=1;P1=20;", 0x40028939183a0026),
    ("P0=40;P1=2;", 0x4000cc7416cad0b8),
    ("P0=1;P1=1;", 0x4021be8ec4ba11d7),
    ("P0=2;P1=5;", 0x4002c37c245881be),
    ("P0=400;P1=1;", 0x400196223f46160e),
    ("P0=10;P1=1;", 0x40007b9cd2cb63ec),
    ("P0=2;P1=1;", 0x40110a5aac2ab8e4),
    ("P0=1;P1=4;", 0x400078c5602bc81f),
    ("P0=1;P1=5;", 0x4001dde46f27d6b8),
    ("P0=1;P1=2;", 0x4010de89e7dc6577),
    ("P0=25;P1=1;", 0x3fff78e52be172e9),
    ("P0=16;P1=1;", 0x4000fba090b3209b),
    ("P0=125;P1=1;", 0x400154c7f75eba8d),
];
const PARALLEL_BATCH_4: [(&str, u64); 40] = [
    ("P0=250;P1=25;", 0x4001f7d6fe9755c8),
    ("P0=250;P1=80;", 0x402219642239aecd),
    ("P0=125;P1=1000;", 0x402192d7fc2a0876),
    ("P0=80;P1=2;", 0x40019f4fcf31a4e8),
    ("P0=40;P1=80;", 0x402115fac175dabb),
    ("P0=25;P1=25;", 0x4000beeba1d499fd),
    ("P0=20;P1=10;", 0x4002259d2339dacd),
    ("P0=250;P1=50;", 0x402211ef0d1169bf),
    ("P0=200;P1=1;", 0x4000b87d35409d77),
    ("P0=200;P1=2000;", 0x40213a52c5f4c256),
    ("P0=125;P1=40;", 0x4020ed5f4336f0dd),
    ("P0=200;P1=50;", 0x4021158ba08545bb),
    ("P0=125;P1=1;", 0x400154c7f75eba8d),
    ("P0=125;P1=10;", 0x4001518f6a4f92cd),
    ("P0=40;P1=25;", 0x40000078ba1022d4),
    ("P0=25;P1=40;", 0x4021ee7afd84e7b4),
    ("P0=400;P1=25;", 0x4000b690d6ab30a7),
    ("P0=200;P1=25;", 0x400136c39ca2871e),
    ("P0=250;P1=20;", 0x400310fbfcfd4a1a),
    ("P0=25;P1=20;", 0x4001ce115ccc829f),
    ("P0=125;P1=25;", 0x4000c04bc55dc11e),
    ("P0=400;P1=40;", 0x40208f062c98f8e4),
    ("P0=500;P1=40;", 0x402289c98d097ed6),
    ("P0=500;P1=80;", 0x402120c6dc6dac86),
    ("P0=500;P1=25;", 0x4000e49cf2735009),
    ("P0=1000;P1=25;", 0x4000a705549d9a89),
    ("P0=2000;P1=25;", 0x3fff7827cb77a80a),
    ("P0=500;P1=1;", 0x4000899e95fdbc6b),
    ("P0=2000;P1=40;", 0x40200a0d81cbc393),
    ("P0=2000;P1=50;", 0x401e37584d9ddc00),
    ("P0=2000;P1=80;", 0x401e19e4f2d65eb5),
    ("P0=2000;P1=400;", 0x4021a59f0bb1ae53),
    ("P0=2000;P1=1;", 0x40023b1ef3ef9e59),
    ("P0=25;P1=16;", 0x400109a6c0b56e57),
    ("P0=200;P1=16;", 0x400029e60408fe0c),
    ("P0=2000;P1=16;", 0x40008bdef7abb734),
    ("P0=400;P1=16;", 0x40004f25ad4b0f9a),
    ("P0=250;P1=16;", 0x40019945d4dd7544),
    ("P0=50;P1=25;", 0x4001b39d28970119),
    ("P0=40;P1=16;", 0x4000f2db70a50e80),
];

fn evaluator() -> MoldEvaluator {
    MoldEvaluator::simulated(
        mold_for(KernelName::Lu, ProblemSize::Large),
        SimDevice::new(GpuSpec::swing_cpu_core()),
    )
}

fn assert_follows(label: &str, result: &TuningResult, golden: &[(&str, u64)]) {
    assert_eq!(result.len(), golden.len(), "{label}");
    for (trial, (key, bits)) in result.trials.iter().zip(golden) {
        let runtime = trial.runtime_s.expect("lu-large never fails");
        assert_eq!(
            (trial.config.key().as_str(), runtime.to_bits()),
            (*key, *bits),
            "{label}, trial {}: {runtime:e} is {:#018x}",
            trial.index,
            runtime.to_bits(),
        );
    }
}

#[test]
fn tune_follows_the_recorded_bo_run() {
    let ev = evaluator();
    let opts = TuneOptions {
        max_evals: 40,
        batch: 1,
        max_process_s: None,
    };
    let result = tune(&mut YtoptTuner::new(ev.space().clone(), 9), &ev, opts);
    assert_follows("tune, batch 1", &result, &SEQUENTIAL);
}

#[test]
fn tune_parallel_follows_the_recorded_bo_run_parallel() {
    let ev = evaluator();
    let opts = TuneOptions {
        max_evals: 40,
        batch: 4,
        max_process_s: None,
    };
    let result = tune_parallel(&mut YtoptTuner::new(ev.space().clone(), 9), &ev, opts);
    assert_follows("tune_parallel, batch 4", &result, &PARALLEL_BATCH_4);
}
