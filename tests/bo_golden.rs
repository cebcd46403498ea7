//! Golden trajectories of the deleted BO-side loop, reproduced by the driver.
//!
//! `ytopt_bo::run` and `ytopt_bo::run_parallel` were a second copy of the
//! trial loop in `autotvm::driver`. Before they were deleted, their
//! 40-trial trajectories on lu-large / `swing_cpu_core()` (noise-free,
//! deterministic) were recorded at the last commit that had them, 82710f2,
//! with `BoOptions { max_evals: 40, search: SearchConfig { seed: 9, .. }, .. }`
//! (and `batch = 4` for `run_parallel`), as (configuration key, runtime
//! `f64` bits). `tune` / `tune_parallel` over a [`YtoptTuner`] must follow
//! them exactly: the deleted path and the surviving one were the same
//! program. The values are `tests/pins/bo_golden.{tune,tune_parallel}.txt`,
//! moved there verbatim from this file's constants.
//!
//! The checker's own strictness is pinned here too: a changed, a missing
//! and an extra line each fail and name the line.

mod common;

use common::pins;
use tvm_autotune::prelude::*;

fn run(batch: usize) -> TuningResult {
    let ev = MoldEvaluator::simulated(
        mold_for(KernelName::Lu, ProblemSize::Large),
        SimDevice::new(GpuSpec::swing_cpu_core()),
    );
    let opts = TuneOptions {
        max_evals: 40,
        batch,
        max_process_s: None,
    };
    let mut tuner = YtoptTuner::new(ev.space().clone(), 9);
    if batch == 1 {
        tune(&mut tuner, &ev, opts)
    } else {
        tune_parallel(&mut tuner, &ev, opts)
    }
}

#[test]
fn tune_follows_the_recorded_bo_run() {
    pins::check("bo_golden.tune", &pins::trajectory(&run(1)));
}

#[test]
fn tune_parallel_follows_the_recorded_bo_run_parallel() {
    pins::check("bo_golden.tune_parallel", &pins::trajectory(&run(4)));
}

#[test]
#[should_panic(
    expected = "1 of 40 lines differ\n  line 3: observed `2 P0=0;P1=0; reject`, wanted `2 "
)]
fn the_checker_names_a_changed_value() {
    let want = pins::read("bo_golden.tune");
    let mut got: Vec<&str> = want.lines().collect();
    got[2] = "2 P0=0;P1=0; reject";
    pins::compare("bo_golden.tune", &want, &got.join("\n"));
}

#[test]
#[should_panic(expected = "1 of 40 lines differ\n  line 40: observed nothing, wanted `39 ")]
fn the_checker_names_a_missing_line() {
    let want = pins::read("bo_golden.tune");
    let got: Vec<&str> = want.lines().take(39).collect();
    pins::compare("bo_golden.tune", &want, &got.join("\n"));
}

#[test]
#[should_panic(
    expected = "1 of 41 lines differ\n  line 41: observed `40 P0=1;P1=1; reject`, wanted nothing"
)]
fn the_checker_names_an_extra_line() {
    let want = pins::read("bo_golden.tune");
    let got = format!("{want}40 P0=1;P1=1; reject\n");
    pins::compare("bo_golden.tune", &want, &got);
}
