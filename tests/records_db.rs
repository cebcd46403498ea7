//! Integration: the performance database is the trial journal. A real
//! tuning run written by `tune_journaled` is read back by
//! `TrialJournal::load` and queried through `TuningResult::best()`.

use tvm_autotune::prelude::*;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tvm-autotune-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name)
}

fn evaluator(kernel: KernelName) -> MoldEvaluator {
    let mold = mold_for(kernel, ProblemSize::Large);
    MoldEvaluator::simulated(mold, SimDevice::new(GpuSpec::swing_cpu_core()))
}

fn opts(max_evals: usize) -> TuneOptions {
    TuneOptions {
        max_evals,
        batch: 1,
        max_process_s: None,
    }
}

#[test]
fn journal_rows_are_the_trials_of_a_real_run() {
    let ev = evaluator(KernelName::Lu);
    let path = tmp("lu.jsonl");
    let mut tuner = YtoptTuner::new(ev.space().clone(), 0);
    let res = tune_journaled(&mut tuner, &ev, opts(10), &path).expect("journaled run");

    let rows = TrialJournal::load(&path).expect("load");
    assert_eq!(rows.len(), 10, "one row per evaluation");
    for (row, t) in rows.iter().zip(&res.trials) {
        assert_eq!(
            (row.index, &row.config, row.runtime_s, &row.error),
            (t.index, &t.config, t.runtime_s, &t.error)
        );
        assert_eq!(
            (row.eval_process_s, row.elapsed_s),
            (t.eval_process_s, t.elapsed_s)
        );
    }
    let text = std::fs::read_to_string(&path).expect("read");
    assert_eq!(text.lines().count(), 10, "one JSON line per row");
    assert!(text
        .lines()
        .all(|l| l.contains("\"P0\"") && l.contains("\"P1\"")));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn best_queried_from_the_journal_agrees_with_the_live_run() {
    let ev = evaluator(KernelName::Cholesky);
    let path = tmp("cholesky.jsonl");
    let tuner = || YtoptTuner::new(ev.space().clone(), 9);
    let res = tune_journaled(&mut tuner(), &ev, opts(12), &path).expect("journaled run");

    // The same budget over the finished journal measures nothing: the
    // history, and so the best, is read from the file.
    let back = resume_from_journal(&mut tuner(), &ev, opts(12), &path).expect("read back");
    assert_eq!((back.len(), back.replayed), (12, 12));
    let (best, live) = (back.best().expect("best"), res.best().expect("ran"));
    assert_eq!(
        (best.index, best.runtime_s),
        (live.index, live.runtime_s),
        "the journal's best must agree with the in-memory result"
    );
    // The best configuration must still be valid in the space.
    assert!(ev.space().validate(&best.config));
    let _ = std::fs::remove_file(&path);
}
