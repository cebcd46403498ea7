//! Chaos tests: every tuner must survive injected measurement failures.
//!
//! The evaluator is wrapped in a deterministic `FaultInjector` (seeded,
//! per-class failure rates) plus the `HarnessedEvaluator` (panic
//! isolation + transient retry). At any failure rate the tuners must
//! neither panic nor stop short of their budget, failed trials must be
//! recorded (penalized, not fatal), and the best configuration must
//! always come from a successful trial.

use tvm_autotune::autotvm::measure::FnEvaluator;
use tvm_autotune::autotvm::XgbTuner;
use tvm_autotune::prelude::*;

/// 40×40 synthetic space (1600 configurations — room for 100-eval runs).
fn space() -> ConfigSpace {
    let mut cs = ConfigSpace::new();
    cs.add(Hyperparameter::ordinal_ints(
        "P0",
        &(1..=40).collect::<Vec<i64>>(),
    ));
    cs.add(Hyperparameter::ordinal_ints(
        "P1",
        &(1..=40).collect::<Vec<i64>>(),
    ));
    cs
}

/// Smooth objective, minimum 1.0 at (32, 9).
fn runtime(c: &Configuration) -> f64 {
    let (a, b) = (c.int("P0") as f64, c.int("P1") as f64);
    1.0 + 0.01 * ((a - 32.0).powi(2) + (b - 9.0).powi(2))
}

fn chaotic_evaluator(
    rate: f64,
    seed: u64,
) -> HarnessedEvaluator<FaultInjector<FnEvaluator<impl Fn(&Configuration) -> MeasureResult>>> {
    let inner = FnEvaluator::new(space(), |c| {
        let r = runtime(c);
        MeasureResult::ok(r, r + 0.5)
    });
    HarnessedEvaluator::new(FaultInjector::new(inner, FaultPlan::uniform(rate, seed)))
}

/// The five strategies, fresh and identically seeded. XGB's
/// model-confidence early stop is disabled (`improvement_margin = ∞`) so
/// a full budget is a meaningful requirement for all five.
fn tuners(seed: u64) -> Vec<Box<dyn Tuner>> {
    let mut xgb = XgbTuner::new(space(), seed);
    xgb.improvement_margin = f64::INFINITY;
    vec![
        Box::new(RandomTuner::new(space(), seed)) as Box<dyn Tuner>,
        Box::new(GridSearchTuner::new(space())),
        Box::new(GaTuner::new(space(), seed)),
        Box::new(xgb),
        Box::new(YtoptTuner::new(space(), seed)),
    ]
}

fn run_all(rate: f64, seed: u64, max_evals: usize) -> Vec<TuningResult> {
    tuners(seed)
        .into_iter()
        .map(|mut t| {
            let ev = chaotic_evaluator(rate, seed);
            tune(
                t.as_mut(),
                &ev,
                TuneOptions {
                    max_evals,
                    batch: 8,
                    max_process_s: None,
                },
            )
        })
        .collect()
}

#[test]
fn zero_rate_is_failure_free() {
    for r in run_all(0.0, 1, 40) {
        assert_eq!(r.len(), 40, "{}", r.tuner);
        assert_eq!(r.failed(), 0, "{}", r.tuner);
        assert!(r.best().is_some(), "{}", r.tuner);
    }
}

#[test]
fn moderate_chaos_penalizes_failures_without_stopping() {
    let results = run_all(0.1, 2, 100);
    let mut total_failed = 0;
    for r in &results {
        assert_eq!(r.len(), 100, "{} must complete its budget", r.tuner);
        total_failed += r.failed();
        // Failed trials carry their class; successful ones carry none.
        for t in &r.trials {
            assert_eq!(t.runtime_s.is_none(), t.error.is_some(), "{}", r.tuner);
        }
        let best = r.best().expect("chaos still leaves successes");
        assert!(best.error.is_none(), "{}: best must be a success", r.tuner);
    }
    assert!(
        total_failed > 0,
        "10% injection across 500 evals must fail somewhere"
    );
}

#[test]
fn heavy_chaos_still_completes_and_best_is_successful() {
    for r in run_all(0.5, 3, 100) {
        assert_eq!(r.len(), 100, "{} must complete its budget", r.tuner);
        assert!(
            r.failed() > 0,
            "{}: 50% injection must fail trials",
            r.tuner
        );
        assert!(r.failed() < 100, "{}: some trials must survive", r.tuner);
        let best = r.best().expect("best");
        assert!(
            best.runtime_s.is_some() && best.error.is_none(),
            "{}",
            r.tuner
        );
        // The incumbent curve must ignore failures entirely.
        let curve = r.incumbent_curve();
        assert!(curve.last().expect("curve").is_finite(), "{}", r.tuner);
    }
}

/// The best read back from a journal of a half-failed run is a trial that
/// succeeded, and the journal kept every failure's class.
#[test]
fn pick_best_never_returns_a_failed_trial() {
    let path = std::env::temp_dir().join(format!("chaos-best-{}.jsonl", std::process::id()));
    let opts = TuneOptions {
        max_evals: 60,
        batch: 8,
        max_process_s: None,
    };
    let ev = chaotic_evaluator(0.5, 4);
    for i in 0..5 {
        let fresh = || tuners(4).swap_remove(i);
        let live = tune_journaled(fresh().as_mut(), &ev, opts, &path).expect("journaled run");
        let rows = TrialJournal::load(&path).expect("load");
        assert_eq!(rows.len(), live.len());
        let failed = rows.iter().filter(|r| r.runtime_s.is_none());
        assert_eq!(failed.clone().count(), live.failed());
        assert!(failed.clone().all(|r| r.error.is_some()), "{}", live.tuner);

        let back = resume_from_journal(fresh().as_mut(), &ev, opts, &path).expect("read back");
        assert_eq!(
            back.replayed,
            live.len(),
            "{}: nothing re-measured",
            live.tuner
        );
        let best = back.best().expect("some trial succeeded");
        assert!(best.runtime_s.is_some());
        assert!(best.error.is_none());
        assert_eq!(best.index, live.best().expect("best").index);
    }
    let _ = std::fs::remove_file(&path);
}

/// The issue's acceptance run: seeded end-to-end tuning with 20% injected
/// failures completes the full 100-evaluation budget for all five tuners.
#[test]
fn acceptance_twenty_percent_chaos_full_budget_all_tuners() {
    let results = run_all(0.2, 2023, 100);
    assert_eq!(results.len(), 5);
    for r in &results {
        assert_eq!(
            r.len(),
            100,
            "{} stopped at {} evals under 20% chaos",
            r.tuner,
            r.len()
        );
        let best = r.best().expect("best exists");
        assert!(best.error.is_none());
        // Deterministic injection: the run is reproducible.
    }
    let rerun = run_all(0.2, 2023, 100);
    for (a, b) in results.iter().zip(&rerun) {
        let ka: Vec<String> = a.trials.iter().map(|t| t.config.key()).collect();
        let kb: Vec<String> = b.trials.iter().map(|t| t.config.key()).collect();
        assert_eq!(ka, kb, "{}: chaos runs must be reproducible", a.tuner);
        assert_eq!(a.failed(), b.failed(), "{}", a.tuner);
    }
}

/// Injected static rejections behave like the real analyzer's verdicts:
/// deterministic per configuration (retries replay the same rejection),
/// charged near-zero process time, and never fatal to the run.
#[test]
fn injected_static_rejections_are_deterministic_and_cheap() {
    let mut plan = FaultPlan::none(5);
    plan.static_reject = 0.3;
    let make = || {
        let inner = FnEvaluator::new(space(), |c| {
            let r = runtime(c);
            MeasureResult::ok(r, r + 0.5)
        });
        HarnessedEvaluator::new(FaultInjector::new(inner, plan))
    };
    let ev = make();
    let mut tuner = RandomTuner::new(space(), 5);
    let res = tune(
        &mut tuner,
        &ev,
        TuneOptions {
            max_evals: 80,
            batch: 8,
            max_process_s: None,
        },
    );
    assert_eq!(res.len(), 80);
    let mut rejected = 0;
    for t in &res.trials {
        if let Some(e) = &t.error {
            assert_eq!(e.kind(), "static_reject", "only static faults planned");
            assert!(
                t.eval_process_s < 0.01,
                "rejection must cost analysis time only, got {}",
                t.eval_process_s
            );
            rejected += 1;
        }
    }
    assert!(rejected > 0, "30% rejection over 80 evals must show up");
    assert!(res.best().expect("best").error.is_none());

    // Same configuration, fresh injector: the verdict replays — it is a
    // property of the config, not of evaluation order or attempt count.
    let ev2 = make();
    for t in res.trials.iter().take(20) {
        let replay = ev2.evaluate(&t.config);
        assert_eq!(
            replay.error.as_ref().map(|e| e.kind()),
            t.error.as_ref().map(|e| e.kind()),
            "verdict for {} must be deterministic",
            t.config.key()
        );
    }
}

/// Injected panics (not just error returns) are contained by the harness.
#[test]
fn injected_panics_are_contained() {
    let mut plan = FaultPlan::none(9);
    plan.runtime_crash = 0.3;
    plan.panic_on_crash = true;
    let inner = FnEvaluator::new(space(), |c| {
        let r = runtime(c);
        MeasureResult::ok(r, r + 0.5)
    });
    let ev = HarnessedEvaluator::new(FaultInjector::new(inner, plan));
    let mut tuner = RandomTuner::new(space(), 9);
    let res = tune(
        &mut tuner,
        &ev,
        TuneOptions {
            max_evals: 60,
            batch: 8,
            max_process_s: None,
        },
    );
    assert_eq!(res.len(), 60);
    assert!(res.failed() > 0, "30% panics must show up as failures");
    for t in &res.trials {
        if let Some(e) = &t.error {
            assert_eq!(e.kind(), "runtime_crash");
        }
    }
    assert!(res.best().expect("best").error.is_none());
}
