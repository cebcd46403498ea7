//! The session journal's durability contract — *written after each trial,
//! durable before the tuner is told* — checked by enumeration and by
//! counting syncs, never by timing: a crash at every byte offset of a
//! reference journal, the number of `fdatasync`s per wave, and a journal
//! recorded at the commit before the per-wave sync landed.

use autotvm::measure::{Evaluator, MeasureResult};
use autotvm::{GridSearchTuner, MeasureError, RandomTuner, Tuner};
use configspace::{ConfigSpace, Configuration, Hyperparameter};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tvm_service::{
    run_session, EngineLadder, Rung, SessionCtl, SessionEnd, SessionOptions, SessionReport,
};
use ytopt_bo::journal::{TrialJournal, TrialRecord};

fn space_of(points: i64) -> ConfigSpace {
    let mut cs = ConfigSpace::new();
    cs.add(Hyperparameter::ordinal_ints(
        "P0",
        &(1..=points).collect::<Vec<i64>>(),
    ));
    cs
}

/// The 30-point toy space of the session's unit tests.
fn space() -> ConfigSpace {
    space_of(30)
}

/// One toy engine: a pipeline stamp, the configurations it fails on, and
/// a hook that sees the count of evaluations so far.
struct Toy {
    space: ConfigSpace,
    stamp: &'static str,
    fails: fn(i64) -> Option<MeasureError>,
    evaluated: AtomicUsize,
    after: Box<dyn Fn(usize) + Send + Sync>,
}

impl Evaluator for Toy {
    fn space(&self) -> &ConfigSpace {
        &self.space
    }
    fn evaluate(&self, c: &Configuration) -> MeasureResult {
        (self.after)(self.evaluated.fetch_add(1, Ordering::SeqCst) + 1);
        let p = c.int("P0");
        match (self.fails)(p) {
            Some(e) => MeasureResult::fail(e, 0.0625),
            None => MeasureResult::ok(p as f64 * 0.125, 0.25),
        }
    }
    fn pipeline_fingerprint(&self) -> Option<String> {
        Some(self.stamp.into())
    }
}

fn rung(
    name: &'static str,
    space: ConfigSpace,
    fails: fn(i64) -> Option<MeasureError>,
    after: impl Fn(usize) + Send + Sync + 'static,
) -> Rung {
    Rung {
        name: name.into(),
        evaluator: Box::new(Toy {
            space,
            stamp: name,
            fails,
            evaluated: AtomicUsize::new(0),
            after: Box::new(after),
        }),
    }
}

fn slow_fails(p: i64) -> Option<MeasureError> {
    (p % 5 == 0).then_some(MeasureError::Timeout {
        limit_s: 2.0,
        message: None,
    })
}

/// `fast` crashes where `fast_fails` says so and is left after two
/// crashes in a row; `slow` times out on multiples of five.
fn ladder(fast_fails: fn(i64) -> Option<MeasureError>) -> EngineLadder {
    EngineLadder::new(
        vec![
            rung("fast/v1", space(), fast_fails, |_| {}),
            rung("slow/v1", space(), slow_fails, |_| {}),
        ],
        2,
    )
}

fn crash(on: bool) -> Option<MeasureError> {
    on.then(|| MeasureError::RuntimeCrash("fast engine broken".into()))
}

fn crash_on_even(p: i64) -> Option<MeasureError> {
    crash(p % 2 == 0)
}

fn crash_on_6_and_7(p: i64) -> Option<MeasureError> {
    crash(p == 6 || p == 7)
}

/// A single always-succeeding rung over `space` whose `after` hook sees
/// each evaluation's ordinal.
fn ok_ladder(space: ConfigSpace, after: impl Fn(usize) + Send + Sync + 'static) -> EngineLadder {
    EngineLadder::new(vec![rung("toy/v1", space, |_| None, after)], 3)
}

fn opts(max_evals: usize, batch: usize) -> SessionOptions {
    SessionOptions {
        max_evals,
        batch,
        deadline_unix_ms: None,
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("tvm-service-durability-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name)
}

/// What replay promises to reproduce: key, runtime bits, error class and
/// the rung that measured the trial.
fn identity(r: &SessionReport) -> Vec<(String, Option<u64>, Option<&'static str>, String)> {
    r.trials
        .iter()
        .map(|t| {
            (
                t.config.key(),
                t.runtime_s.map(f64::to_bits),
                t.error.as_ref().map(|e| e.kind()),
                t.engine.clone(),
            )
        })
        .collect()
}

fn session(
    tuner: &mut dyn Tuner,
    ladder: &mut EngineLadder,
    journal: &mut TrialJournal,
    replay: Vec<TrialRecord>,
    opts: SessionOptions,
    ctl: &SessionCtl,
) -> SessionReport {
    run_session(tuner, ladder, journal, replay, opts, ctl).expect("session")
}

#[test]
fn resume_from_every_byte_offset_reproduces_the_reference_session_and_file() {
    let ref_path = tmp("offsets-ref.jsonl");
    let mut journal = TrialJournal::create(&ref_path).expect("journal");
    let reference = session(
        &mut RandomTuner::new(space(), 4),
        &mut ladder(crash_on_even),
        &mut journal,
        Vec::new(),
        opts(20, 4),
        &SessionCtl::new(),
    );
    drop(journal);
    assert_eq!(reference.trials.len(), 20);
    // The reference must exercise what a per-wave sync could get wrong: a
    // demotion in the middle of a wave, and failures of both kinds.
    let first_slow = reference
        .trials
        .iter()
        .position(|t| t.engine == "slow/v1")
        .expect("the session demotes");
    assert_ne!(first_slow % 4, 0, "demotion lands mid-wave");
    assert!(reference.trials.iter().any(|t| t.runtime_s.is_none()));
    let whole = std::fs::read(&ref_path).expect("read");

    let path = tmp("offsets-cut.jsonl");
    for cut in 0..=whole.len() {
        // What a crash leaves: any prefix of the bytes — whole waves, a
        // wave written in part, a record cut anywhere.
        std::fs::write(&path, &whole[..cut]).expect("truncate");
        let (mut journal, tape) = TrialJournal::open_resume(&path).expect("resume");
        let intact = whole[..cut].iter().filter(|&&b| b == b'\n').count();
        assert!(
            tape.len() == intact || tape.len() == intact + 1,
            "cut {cut}"
        );
        let on_tape = tape.len();
        let resumed = session(
            &mut RandomTuner::new(space(), 4),
            &mut ladder(crash_on_even),
            &mut journal,
            tape,
            opts(20, 4),
            &SessionCtl::new(),
        );
        drop(journal);
        assert_eq!(resumed.end, SessionEnd::Completed);
        assert_eq!(resumed.replayed, on_tape, "cut {cut}");
        assert_eq!(identity(&resumed), identity(&reference), "cut {cut}");
        assert_eq!(resumed.demotions, reference.demotions, "cut {cut}");
        assert!(
            std::fs::read(&path).expect("read") == whole,
            "cut {cut}: the finished journal differs from the reference file"
        );
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&ref_path);
}

#[test]
fn the_journal_is_synced_once_per_wave() {
    let path = tmp("syncs.jsonl");
    for (max_evals, batch, syncs) in [(40, 4, 10), (40, 1, 40), (10, 4, 3)] {
        let mut journal = TrialJournal::create(&path).expect("journal");
        let report = session(
            &mut RandomTuner::new(space_of(60), 9),
            &mut ok_ladder(space_of(60), |_| {}),
            &mut journal,
            Vec::new(),
            opts(max_evals, batch),
            &SessionCtl::new(),
        );
        assert_eq!(report.trials.len(), max_evals);
        assert_eq!(
            (journal.written(), journal.syncs()),
            (max_evals, syncs),
            "{max_evals} evaluations in batches of {batch}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_wave_cut_short_leaves_exactly_the_reported_trials_on_disk() {
    let path = tmp("cut-short.jsonl");
    for name in ["kill", "cancel"] {
        let ctl = SessionCtl::new();
        let flag = Arc::clone(if name == "kill" {
            &ctl.kill
        } else {
            &ctl.cancel
        });
        // The flag flips during the 7th live evaluation: wave two stops
        // with three of its four trials measured.
        let mut ladder = ok_ladder(space(), move |n| {
            if n == 7 {
                flag.store(true, Ordering::Relaxed);
            }
        });
        let mut journal = TrialJournal::create(&path).expect("journal");
        let report = session(
            &mut RandomTuner::new(space(), 4),
            &mut ladder,
            &mut journal,
            Vec::new(),
            opts(20, 4),
            &ctl,
        );
        assert_ne!(report.end, SessionEnd::Completed, "{name}");
        assert_eq!(report.trials.len(), 7, "{name}");
        assert_eq!((journal.written(), journal.syncs()), (7, 2), "{name}");
        drop(journal);
        let on_disk = TrialJournal::load(&path).expect("load");
        assert_eq!(on_disk.len(), report.trials.len(), "{name}");
    }
    let _ = std::fs::remove_file(&path);
}

/// The fixed toy session behind `tests/fixtures/session_journal_golden.jsonl`:
/// grid order over the 30 points, 14 trials in waves of 4 (the last one
/// partial), `fast` crashing on P0 = 6 and 7 — a demotion after the third
/// trial of wave two — and `slow` timing out on P0 = 10.
fn golden_session(path: &Path) -> SessionReport {
    let mut journal = TrialJournal::create(path).expect("journal");
    session(
        &mut GridSearchTuner::new(space()),
        &mut ladder(crash_on_6_and_7),
        &mut journal,
        Vec::new(),
        opts(14, 4),
        &SessionCtl::new(),
    )
}

#[test]
fn golden_journal_written_by_the_parent_commit_is_reproduced_byte_for_byte() {
    // Recorded by running `golden_session` at the parent commit
    // (per-trial fsync), in the scratch-copy set-up of the verify skill.
    let golden = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/session_journal_golden.jsonl"
    ))
    .expect("fixture");
    let path = tmp("golden.jsonl");
    let report = golden_session(&path);
    assert_eq!(report.demotions, 1);
    assert_eq!(report.trials[6].engine, "fast/v1");
    assert_eq!(report.trials[7].engine, "slow/v1");
    let written = std::fs::read(&path).expect("read");
    assert!(
        written == golden,
        "journal bytes differ from the parent's:\n{}\n-- recorded --\n{}",
        String::from_utf8_lossy(&written),
        String::from_utf8_lossy(&golden)
    );

    // And the parent's journal resumes through this code: all replayed.
    std::fs::write(&path, &golden).expect("copy");
    let (mut journal, tape) = TrialJournal::open_resume(&path).expect("resume");
    let resumed = session(
        &mut GridSearchTuner::new(space()),
        &mut ladder(crash_on_6_and_7),
        &mut journal,
        tape,
        opts(14, 4),
        &SessionCtl::new(),
    );
    assert_eq!((resumed.replayed, journal.written()), (14, 0));
    assert_eq!(identity(&resumed), identity(&report));
    let _ = std::fs::remove_file(&path);
}
