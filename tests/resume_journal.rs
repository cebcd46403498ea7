//! Crash-consistent checkpoint/resume: a run killed after `k` trials and
//! resumed from its journal must follow the identical remaining
//! trajectory — and reach the identical final best configuration — as an
//! uninterrupted run.

use proptest::prelude::*;
use tvm_autotune::autotvm::measure::FnEvaluator;
use tvm_autotune::autotvm::XgbTuner;
use tvm_autotune::bo::search::SearchConfig;
use tvm_autotune::prelude::*;

fn space() -> ConfigSpace {
    let mut cs = ConfigSpace::new();
    cs.add(Hyperparameter::ordinal_ints(
        "P0",
        &(1..=30).collect::<Vec<i64>>(),
    ));
    cs.add(Hyperparameter::ordinal_ints(
        "P1",
        &(1..=30).collect::<Vec<i64>>(),
    ));
    cs
}

fn objective(c: &Configuration) -> f64 {
    let (a, b) = (c.int("P0") as f64, c.int("P1") as f64);
    1.0 + 0.02 * ((a - 24.0).powi(2) + (b - 7.0).powi(2))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("tvm-autotune-resume-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name)
}

fn keys(r: &TuningResult) -> Vec<String> {
    r.trials.iter().map(|t| t.config.key()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// BO: kill after any `k` trials, resume — identical trajectory.
    #[test]
    fn ytopt_resume_matches_uninterrupted_run(k in 1usize..25) {
        let path = tmp(&format!("bo-resume-{k}.jsonl"));
        let _ = std::fs::remove_file(&path);
        let ev = FnEvaluator::new(space(), |c| MeasureResult::ok(objective(c), 0.5));
        let opts = TuneOptions { max_evals: 30, batch: 1, max_process_s: None };

        let full = tune(&mut YtoptTuner::new(space(), 0), &ev, opts);

        let partial = tune_journaled(
            &mut YtoptTuner::new(space(), 0),
            &ev,
            TuneOptions { max_evals: k, ..opts },
            &path,
        ).expect("journaled run");
        prop_assert_eq!(partial.len(), k);

        let resumed = resume_from_journal(&mut YtoptTuner::new(space(), 0), &ev, opts, &path)
            .expect("resume");
        prop_assert_eq!(resumed.len(), 30);
        prop_assert_eq!(resumed.replayed, k);

        prop_assert_eq!(keys(&full), keys(&resumed));
        prop_assert_eq!(
            full.best().expect("best").config.key(),
            resumed.best().expect("best").config.key()
        );
        let _ = std::fs::remove_file(&path);
    }
}

/// A journal the deleted `ytopt_bo::run_journaled` wrote (12 records,
/// this file's `space()` and `objective`, 0.5 s per evaluation, seed 7)
/// still resumes through the driver and finishes where an uninterrupted
/// `tune` does.
#[test]
fn legacy_bo_journal_resumes_through_the_driver() {
    let path = tmp("legacy-bo-journal.jsonl");
    std::fs::copy(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/bo_legacy_journal.jsonl"
        ),
        &path,
    )
    .expect("copy fixture");
    let ev = FnEvaluator::new(space(), |c| MeasureResult::ok(objective(c), 0.5));
    let tuner = || {
        YtoptTuner::with_config(
            space(),
            SearchConfig {
                seed: 7,
                ..Default::default()
            },
        )
    };
    let opts = TuneOptions {
        max_evals: 30,
        batch: 1,
        max_process_s: None,
    };

    let resumed = resume_from_journal(&mut tuner(), &ev, opts, &path).expect("legacy resume");
    assert_eq!(resumed.len(), 30);
    assert_eq!(resumed.replayed, 12);
    assert_eq!(TrialJournal::load(&path).expect("load").len(), 30);

    let full = tune(&mut tuner(), &ev, opts);
    assert_eq!(keys(&full), keys(&resumed));
    assert_eq!(
        full.best().expect("best").config.key(),
        resumed.best().expect("best").config.key()
    );
    let _ = std::fs::remove_file(&path);
}

/// The five strategies, fresh and identically seeded, XGB early stop off.
fn tuners(seed: u64) -> Vec<(Box<dyn Tuner>, usize)> {
    let mut xgb = XgbTuner::new(space(), seed);
    xgb.improvement_margin = f64::INFINITY;
    // (tuner, driver batch); ytopt evaluates one point at a time.
    vec![
        (
            Box::new(RandomTuner::new(space(), seed)) as Box<dyn Tuner>,
            8,
        ),
        (Box::new(GridSearchTuner::new(space())), 8),
        (Box::new(GaTuner::new(space(), seed)), 8),
        (Box::new(xgb), 8),
        (Box::new(YtoptTuner::new(space(), seed)), 1),
    ]
}

fn chaotic_evaluator(
    rate: f64,
    seed: u64,
) -> HarnessedEvaluator<FaultInjector<FnEvaluator<impl Fn(&Configuration) -> MeasureResult>>> {
    let inner = FnEvaluator::new(space(), |c| {
        let r = objective(c);
        MeasureResult::ok(r, r + 0.3)
    });
    HarnessedEvaluator::new(FaultInjector::new(inner, FaultPlan::uniform(rate, seed)))
}

/// The issue's acceptance scenario: under 20% injected failures, kill
/// each tuner mid-budget and resume — the final best configuration (and
/// the whole trajectory) must match the uninterrupted run's, for all
/// five strategies.
#[test]
fn acceptance_kill_and_resume_matches_for_all_tuners_under_chaos() {
    const SEED: u64 = 2023;
    const BUDGET: usize = 80;
    const KILL_AT: usize = 37; // mid-batch on purpose

    for tuner_index in 0..tuners(SEED).len() {
        let batch = tuners(SEED)[tuner_index].1;
        let opts = TuneOptions {
            max_evals: BUDGET,
            batch,
            max_process_s: None,
        };

        // Uninterrupted reference run.
        let mut full_tuner = tuners(SEED).swap_remove(tuner_index).0;
        let full = tune(full_tuner.as_mut(), &chaotic_evaluator(0.2, SEED), opts);
        assert_eq!(full.len(), BUDGET, "{}", full.tuner);

        // Simulated crash: journal KILL_AT trials, then the process dies.
        let name = format!("driver-chaos-resume-{tuner_index}.jsonl");
        let path = tmp(&name);
        let _ = std::fs::remove_file(&path);
        let mut part_tuner = tuners(SEED).swap_remove(tuner_index).0;
        let partial = tune_journaled(
            part_tuner.as_mut(),
            &chaotic_evaluator(0.2, SEED),
            TuneOptions {
                max_evals: KILL_AT,
                ..opts
            },
            &path,
        )
        .expect("journaled run");
        assert_eq!(partial.len(), KILL_AT, "{}", partial.tuner);

        // A restarted process: fresh tuner, fresh evaluator, same seeds.
        let mut res_tuner = tuners(SEED).swap_remove(tuner_index).0;
        let resumed = resume_from_journal(
            res_tuner.as_mut(),
            &chaotic_evaluator(0.2, SEED),
            opts,
            &path,
        )
        .expect("resume");
        assert_eq!(resumed.len(), BUDGET, "{}", resumed.tuner);
        assert_eq!(resumed.replayed, KILL_AT, "{}", resumed.tuner);

        assert_eq!(
            keys(&full),
            keys(&resumed),
            "{}: resumed trajectory must be identical",
            full.tuner
        );
        assert_eq!(
            full.best().expect("best").config.key(),
            resumed.best().expect("best").config.key(),
            "{}: resumed run must reach the same final best",
            full.tuner
        );
        // Failure pattern is part of the trajectory too.
        let errs = |r: &TuningResult| -> Vec<Option<&'static str>> {
            r.trials
                .iter()
                .map(|t| t.error.as_ref().map(|e| e.kind()))
                .collect()
        };
        assert_eq!(errs(&full), errs(&resumed), "{}", full.tuner);
        let _ = std::fs::remove_file(&path);
    }
}

/// Resuming an already-complete journal replays everything and evaluates
/// nothing new.
#[test]
fn resume_of_complete_run_is_pure_replay() {
    let path = tmp("complete-replay.jsonl");
    let _ = std::fs::remove_file(&path);
    let ev = chaotic_evaluator(0.1, 5);
    let opts = TuneOptions {
        max_evals: 30,
        batch: 8,
        max_process_s: None,
    };
    let mut t1 = RandomTuner::new(space(), 5);
    let first = tune_journaled(&mut t1, &ev, opts, &path).expect("run");
    assert_eq!(first.len(), 30);

    let mut t2 = RandomTuner::new(space(), 5);
    let replay =
        resume_from_journal(&mut t2, &chaotic_evaluator(0.1, 5), opts, &path).expect("resume");
    assert_eq!(replay.len(), 30);
    assert_eq!(replay.replayed, 30, "nothing should be re-measured");
    let _ = std::fs::remove_file(&path);
}

/// A torn final journal line (crash mid-append) is dropped on resume and
/// the trial is simply re-measured.
#[test]
fn torn_tail_is_remeasured_on_resume() {
    use std::io::Write;
    let path = tmp("torn-tail.jsonl");
    let _ = std::fs::remove_file(&path);
    let opts = TuneOptions {
        max_evals: 20,
        batch: 4,
        max_process_s: None,
    };
    let mut t1 = RandomTuner::new(space(), 11);
    let partial = tune_journaled(
        &mut t1,
        &chaotic_evaluator(0.0, 11),
        TuneOptions {
            max_evals: 8,
            ..opts
        },
        &path,
    )
    .expect("journaled run");
    assert_eq!(partial.len(), 8);

    // Crash mid-append: half a JSON object with no trailing newline.
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .expect("open");
    write!(f, "{{\"index\":8,\"conf").expect("write");
    drop(f);

    let mut t2 = RandomTuner::new(space(), 11);
    let resumed = resume_from_journal(&mut t2, &chaotic_evaluator(0.0, 11), opts, &path)
        .expect("resume drops the torn line");
    assert_eq!(resumed.len(), 20);
    assert_eq!(resumed.replayed, 8, "the torn 9th record is re-measured");

    // Reference: the same run uninterrupted.
    let mut t3 = RandomTuner::new(space(), 11);
    let full = tune(&mut t3, &chaotic_evaluator(0.0, 11), opts);
    assert_eq!(keys(&full), keys(&resumed));
    let _ = std::fs::remove_file(&path);
}
