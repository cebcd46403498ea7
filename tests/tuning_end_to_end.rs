//! Integration: tuners driving real code molds on the simulated device.

use polybench::molds::mold_for_mode;
use polybench::spaces::embed_config;
use polybench::SpaceMode;
use std::collections::VecDeque;
use tvm_autotune::autotvm::{GaTuner, GridSearchTuner, RandomTuner, XgbTuner};
use tvm_autotune::prelude::*;

fn evaluator(kernel: KernelName, size: ProblemSize, seed: u64) -> MoldEvaluator {
    let mold = mold_for(kernel, size);
    let dev = SimDevice::new(GpuSpec::swing_cpu_core()).with_seed(seed);
    MoldEvaluator::simulated(mold, dev)
}

#[test]
fn ytopt_beats_random_start_on_lu_large() {
    let ev = evaluator(KernelName::Lu, ProblemSize::Large, 1);
    let mut tuner = YtoptTuner::new(ev.space().clone(), 1);
    let res = tune(
        &mut tuner,
        &ev,
        TuneOptions {
            max_evals: 40,
            batch: 1,
            max_process_s: None,
        },
    );
    assert_eq!(res.len(), 40);
    let curve = res.incumbent_curve();
    // The model-based phase (after 10 random points) must improve on the
    // random warmup.
    assert!(
        curve[39] <= curve[9],
        "BO phase should not regress: {} vs {}",
        curve[39],
        curve[9]
    );
    // And land on the plateau of the landscape (probed global best ~1.9 s).
    assert!(curve[39] < 2.6, "best after 40 evals: {}", curve[39]);
}

#[test]
fn all_five_tuners_complete_on_cholesky() {
    let space =
        tvm_autotune::polybench::spaces::space_for(KernelName::Cholesky, ProblemSize::Large);
    let opts = TuneOptions {
        max_evals: 15,
        batch: 4,
        max_process_s: None,
    };
    let ev = evaluator(KernelName::Cholesky, ProblemSize::Large, 2);
    let results = vec![
        tune(&mut GaTuner::new(space.clone(), 2), &ev, opts),
        tune(&mut RandomTuner::new(space.clone(), 2), &ev, opts),
        tune(&mut GridSearchTuner::new(space.clone()), &ev, opts),
        tune(&mut XgbTuner::new(space.clone(), 2), &ev, opts),
        tune(&mut YtoptTuner::new(space, 2), &ev, opts),
    ];
    for r in &results {
        assert!(
            !r.is_empty() && r.len() <= 15,
            "{}: {} evals",
            r.tuner,
            r.len()
        );
        assert!(r.best().is_some(), "{} found nothing", r.tuner);
        assert!(r.total_process_s > 0.0);
        // All proposed configurations must be unique.
        let mut keys: Vec<String> = r.trials.iter().map(|t| t.config.key()).collect();
        keys.sort();
        let before = keys.len();
        keys.dedup();
        assert_eq!(before, keys.len(), "{} repeated configurations", r.tuner);
    }
}

#[test]
fn xgb_stops_early_on_small_spaces() {
    // The paper: "XGBoost search tuner could only do at most 56
    // evaluations no matter how many evaluations are set".
    let ev = evaluator(KernelName::Lu, ProblemSize::Large, 3);
    let mut xgb = XgbTuner::new(ev.space().clone(), 3);
    let res = tune(
        &mut xgb,
        &ev,
        TuneOptions {
            max_evals: 400, // entire space as budget
            batch: 8,
            max_process_s: None,
        },
    );
    assert!(
        res.len() < 150,
        "XGB should exhaust its competitive pool early, did {} evals",
        res.len()
    );
    assert!(res.best().is_some());
}

#[test]
fn experiments_are_reproducible() {
    let run = |seed: u64| {
        let ev = evaluator(KernelName::Lu, ProblemSize::Large, seed);
        let mut t = YtoptTuner::new(ev.space().clone(), seed);
        let res = tune(
            &mut t,
            &ev,
            TuneOptions {
                max_evals: 20,
                batch: 1,
                max_process_s: None,
            },
        );
        res.trials
            .iter()
            .map(|t| (t.config.key(), t.runtime_s))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(7), run(7), "same seed must reproduce exactly");
    assert_ne!(run(7), run(8), "different seeds must differ");
}

#[test]
fn bo_finds_global_optimum_of_enumerable_space() {
    // Exhaustively grade a small space, then check BO's answer against
    // the true optimum at a fraction of the budget.
    let ev = evaluator(KernelName::Lu, ProblemSize::Mini, 4);
    let space = ev.space().clone();
    let size = space.size().expect("discrete") as usize;
    let mut truth: Vec<(String, f64)> = Vec::with_capacity(size);
    for cfg in space.grid() {
        let r = tvm_autotune::autotvm::Evaluator::evaluate(&ev, &cfg);
        truth.push((cfg.key(), r.runtime_s.expect("ok")));
    }
    let global_best = truth.iter().map(|(_, t)| *t).fold(f64::INFINITY, f64::min);

    let mut tuner = YtoptTuner::new(space, 4);
    let res = tune(
        &mut tuner,
        &ev,
        TuneOptions {
            max_evals: size / 2,
            batch: 1,
            max_process_s: None,
        },
    );
    let found = res.best().expect("ran").runtime_s.expect("ok");
    assert!(
        found <= global_best * 1.12,
        "BO with half budget should get within 12% of optimum: {found} vs {global_best}"
    );
}

/// Drains a queue of seed configurations before handing control to the
/// wrapped strategy — how a tuner carries the embedded paper-space grid
/// (or a previous run's trials) into the aggressive space.
struct WarmStartTuner<T: Tuner> {
    queue: VecDeque<Configuration>,
    inner: T,
}

impl<T: Tuner> Tuner for WarmStartTuner<T> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_batch(&mut self, n: usize) -> Vec<Configuration> {
        let mut batch = Vec::with_capacity(n);
        while batch.len() < n {
            match self.queue.pop_front() {
                Some(c) => batch.push(c),
                None => break,
            }
        }
        if batch.len() < n {
            batch.extend(self.inner.next_batch(n - batch.len()));
        }
        batch
    }

    fn update(&mut self, results: &[(Configuration, MeasureResult)]) {
        self.inner.update(results);
    }

    fn has_next(&self) -> bool {
        !self.queue.is_empty() || self.inner.has_next()
    }
}

/// A noise-free simulated device: the runtime is then a pure function of
/// the lowered schedule, and a neutral-knob aggressive config lowers to
/// the *identical* schedule as its paper counterpart (same builder, same
/// knobs), so embedded paper configs cost exactly what they cost in the
/// paper space.
fn quiet_device() -> SimDevice {
    SimDevice::new(GpuSpec::swing_cpu_core()).with_noise(0.0)
}

#[test]
fn aggressive_gemm_tuning_never_loses_to_the_paper_space() {
    // The paper space at mini is exhaustively enumerable (18 configs),
    // so `best_paper` is the true paper-space optimum.
    let paper_ev = MoldEvaluator::simulated(
        mold_for(KernelName::Gemm, ProblemSize::Mini),
        quiet_device(),
    );
    let agg_ev = MoldEvaluator::simulated(
        mold_for_mode(KernelName::Gemm, ProblemSize::Mini, SpaceMode::Aggressive),
        quiet_device(),
    );
    let paper_space = paper_ev.space().clone();
    let mut best_paper = f64::INFINITY;
    let mut embedded = VecDeque::new();
    for cfg in paper_space.grid() {
        let r = Evaluator::evaluate(&paper_ev, &cfg);
        best_paper = best_paper.min(r.runtime_s.expect("paper config runs"));
        embedded.push_back(embed_config(agg_ev.space(), &cfg));
    }
    let warm = embedded.len();

    let mut tuner = WarmStartTuner {
        queue: embedded,
        inner: YtoptTuner::new(agg_ev.space().clone(), 11),
    };
    let res = tune(
        &mut tuner,
        &agg_ev,
        TuneOptions {
            max_evals: 100,
            batch: 1,
            max_process_s: None,
        },
    );
    assert!(res.len() > warm, "budget must extend past the warm start");
    let best_aggr = res.best().expect("found").runtime_s.expect("ok");
    assert!(
        best_aggr <= best_paper,
        "aggressive superset must not lose to the paper space: {best_aggr} vs {best_paper}"
    );
    // The BO phase roams the wild part of the space, so the static
    // filter must have seen real traffic.
    let prune = res
        .prune
        .clone()
        .expect("analyzed evaluator reports prune counters");
    assert!(
        prune.total() > 0,
        "no candidate reached the prune ledger: {prune:?}"
    );
}

#[test]
fn aggressive_3mm_tuning_never_loses_to_the_paper_space() {
    // 3mm's paper space is too large to enumerate; the paper-space best
    // is itself a tuning result, and the aggressive run warm-starts from
    // that run's embedded trials before spending the rest of its 100-eval
    // budget on the widened space.
    let paper_ev =
        MoldEvaluator::simulated(mold_for(KernelName::Mm3, ProblemSize::Mini), quiet_device());
    let mut paper_tuner = YtoptTuner::new(paper_ev.space().clone(), 12);
    let paper_res = tune(
        &mut paper_tuner,
        &paper_ev,
        TuneOptions {
            max_evals: 40,
            batch: 1,
            max_process_s: None,
        },
    );
    let best_paper = paper_res.best().expect("found").runtime_s.expect("ok");

    let agg_ev = MoldEvaluator::simulated(
        mold_for_mode(KernelName::Mm3, ProblemSize::Mini, SpaceMode::Aggressive),
        quiet_device(),
    );
    let embedded: VecDeque<Configuration> = paper_res
        .trials
        .iter()
        .map(|t| embed_config(agg_ev.space(), &t.config))
        .collect();
    let mut tuner = WarmStartTuner {
        queue: embedded,
        inner: YtoptTuner::new(agg_ev.space().clone(), 12),
    };
    let res = tune(
        &mut tuner,
        &agg_ev,
        TuneOptions {
            max_evals: 100,
            batch: 1,
            max_process_s: None,
        },
    );
    let best_aggr = res.best().expect("found").runtime_s.expect("ok");
    assert!(
        best_aggr <= best_paper,
        "aggressive superset must not lose to the paper space: {best_aggr} vs {best_paper}"
    );
}

#[test]
fn real_cpu_tuning_on_mini_kernel() {
    // The Real evaluation mode: actually execute candidates on the
    // interpreter while tuning (tiny budget — interpretation is slow).
    let mold = mold_for(KernelName::Lu, ProblemSize::Mini);
    let ev = MoldEvaluator::real(mold, CpuDevice::new());
    let mut tuner = YtoptTuner::new(ev.space().clone(), 5);
    let res = tune(
        &mut tuner,
        &ev,
        TuneOptions {
            max_evals: 4,
            batch: 1,
            max_process_s: None,
        },
    );
    assert_eq!(res.len(), 4);
    for t in &res.trials {
        assert!(t.runtime_s.expect("real run succeeded") > 0.0);
    }
}
