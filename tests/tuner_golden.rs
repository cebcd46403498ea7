//! Golden trajectories of the GA, Random and GridSearch tuners.
//!
//! `tests/bo_golden*.rs` pin ytopt and `tests/xgb_golden.rs` pins XGB; these
//! pin the other three, each through `tune` (batch 1) and `tune_parallel`
//! (batch 4) on `SimDevice::new(GpuSpec::a100())` with seed 9:
//! - GA on lu-large (400 points) until it runs dry: the seeded population,
//!   bred generations, and the random refill once breeding finds nothing
//!   unvisited;
//! - Random on 3mm-mini (57 600 points, the permutation path) and on
//!   3mm-extralarge (228 614 400 points, past `PERMUTE_LIMIT`: rejection
//!   sampling of flat indices), 40 trials each;
//! - GridSearch on lu-large, 40 trials in flat-index order.
//!
//! Each line is (trial index, configuration key, runtime `f64` bits or
//! `reject`); the values are `tests/pins/tuner_golden.*.txt`, recorded at
//! 5d322a5, before the tuners' visited records became flat-index sets.

mod common;

use common::pins;
use tvm_autotune::prelude::*;

fn run(
    kernel: KernelName,
    size: ProblemSize,
    max_evals: usize,
    batch: usize,
    tuner: fn(ConfigSpace) -> Box<dyn Tuner>,
) -> String {
    let ev = MoldEvaluator::simulated(mold_for(kernel, size), SimDevice::new(GpuSpec::a100()));
    let opts = TuneOptions {
        max_evals,
        batch,
        max_process_s: None,
    };
    let mut tuner = tuner(ev.space().clone());
    let result = if batch == 1 {
        tune(tuner.as_mut(), &ev, opts)
    } else {
        tune_parallel(tuner.as_mut(), &ev, opts)
    };
    pins::trajectory(&result)
}

/// Pin `name.tune` and `name.tune_parallel`.
fn check_both(
    name: &str,
    kernel: KernelName,
    size: ProblemSize,
    max_evals: usize,
    tuner: fn(ConfigSpace) -> Box<dyn Tuner>,
) {
    for (suffix, batch) in [("tune", 1), ("tune_parallel", 4)] {
        let got = run(kernel, size, max_evals, batch, tuner);
        pins::check(&format!("tuner_golden.{name}.{suffix}"), &got);
    }
}

#[test]
fn ga_follows_the_recorded_run_until_the_space_runs_dry() {
    check_both("ga", KernelName::Lu, ProblemSize::Large, 500, |space| {
        Box::new(GaTuner::new(space, 9))
    });
}

#[test]
fn random_follows_the_recorded_permutation() {
    check_both(
        "random_permuted",
        KernelName::Mm3,
        ProblemSize::Mini,
        40,
        |space| Box::new(RandomTuner::new(space, 9)),
    );
}

#[test]
fn random_follows_the_recorded_samples_past_the_permutation_limit() {
    check_both(
        "random_sampled",
        KernelName::Mm3,
        ProblemSize::ExtraLarge,
        40,
        |space| Box::new(RandomTuner::new(space, 9)),
    );
}

#[test]
fn grid_search_follows_the_recorded_order() {
    check_both("grid", KernelName::Lu, ProblemSize::Large, 40, |space| {
        Box::new(GridSearchTuner::new(space))
    });
}
