//! One supervised tuning session: a caller of the one trial loop
//! (`autotvm::driver::run_rounds`) that puts the service's control plane —
//! kill/cancel flags, wall-clock deadlines, per-kernel circuit breakers —
//! in front of every live evaluation and the engine ladder behind every
//! recorded trial. Journaling, replay and the divergence and pipeline
//! checks are the loop's, so a killed session resumes with results
//! identical to an uninterrupted run.
//!
//! The session adds one obligation to the loop's replay contract: every
//! record's outcome, replayed or live, is fed back through
//! [`EngineLadder::observe`] — so demotions happen at identical trial
//! indices across kill/restart boundaries, and the stamp the loop reads for
//! the next trial is that of the rung the original run was on.

use crate::breaker::{is_infra_failure, Admission, CircuitBreaker};
use crate::ladder::EngineLadder;
use autotvm::driver::{run_rounds, Think, Trial, TuneOptions, Waves};
use autotvm::measure::{Evaluator, MeasureResult};
use autotvm::Tuner;
use configspace::Configuration;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};
use ytopt_bo::fault::MeasureError;
use ytopt_bo::journal::{TrialJournal, TrialRecord};
use ytopt_bo::problem::{CacheStats, JitStats, ParStats, PruneStats, SimdStats};

/// Milliseconds since the UNIX epoch (deadline arithmetic survives
/// process restarts, unlike `Instant`).
pub fn now_unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Budget and deadline of one session.
#[derive(Debug, Clone, Copy)]
pub struct SessionOptions {
    /// Maximum measured configurations.
    pub max_evals: usize,
    /// Proposals per measure round.
    pub batch: usize,
    /// Absolute wall-clock deadline (ms since epoch). Anchored at the
    /// *submission* timestamp, so downtime between crash and restart
    /// counts against the tenant's deadline.
    pub deadline_unix_ms: Option<u64>,
}

/// Shared control flags for a running session.
#[derive(Clone, Default)]
pub struct SessionCtl {
    /// Tenant-requested cancellation (graceful: session stops before its
    /// next live evaluation and reports `Cancelled`).
    pub cancel: Arc<AtomicBool>,
    /// Server kill (abrupt: session stops between trials *without*
    /// updating anything in memory — exactly what a `kill -9` leaves
    /// behind, since the journal is written after each trial and durable
    /// before the tuner is told).
    pub kill: Arc<AtomicBool>,
    /// This kernel's circuit breaker, if the service runs one.
    pub breaker: Option<Arc<CircuitBreaker>>,
}

impl SessionCtl {
    /// Control block with fresh flags and no breaker.
    pub fn new() -> SessionCtl {
        SessionCtl::default()
    }
}

/// How a session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionEnd {
    /// Budget exhausted (or tuner gave up) — the normal outcome.
    Completed,
    /// The wall-clock deadline passed; the report carries the partial
    /// history measured so far.
    DeadlineExceeded,
    /// The tenant cancelled.
    Cancelled,
    /// The server was killed; the session is resumable from its journal.
    Interrupted,
}

/// One trial as seen by the service (superset of the driver's `Trial`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionTrial {
    /// 0-based evaluation index.
    pub index: usize,
    /// The measured configuration.
    pub config: Configuration,
    /// Kernel runtime, seconds (`None` on failure).
    pub runtime_s: Option<f64>,
    /// Failure class, if the trial failed.
    pub error: Option<MeasureError>,
    /// Charged process time.
    pub eval_process_s: f64,
    /// Cumulative process time when this trial finished.
    pub elapsed_s: f64,
    /// Ladder rung that measured this trial.
    pub engine: String,
    /// Replayed from the journal (true) or measured live (false).
    pub replayed: bool,
    /// Real wall-clock seconds of the live evaluation (0 for replayed
    /// trials) — the source of the benchmark's
    /// `service.session.trial_wall_us_p50`.
    pub wall_s: f64,
}

/// Complete outcome of one session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionReport {
    /// Tuner display name.
    pub tuner: String,
    /// Terminal state.
    pub end: SessionEnd,
    /// Trials in measurement order (replayed + live).
    pub trials: Vec<SessionTrial>,
    /// How many trials were replayed from the journal.
    pub replayed: usize,
    /// Total charged process time.
    pub total_process_s: f64,
    /// Ladder demotions over the session's full history.
    pub demotions: u32,
    /// Rung the session ended on.
    pub final_engine: String,
    /// Memo-cache counters at session end (aggregate when shared).
    pub cache: Option<CacheStats>,
    /// Native-codegen compile counters of the JIT rung at session end
    /// (`None` for ladders without one). Survives demotion: the compile
    /// work done before stepping down is still reported.
    pub jit: Option<JitStats>,
    /// Multicore-dispatch counters merged over the ladder's
    /// parallel-capable rungs at session end (`None` when no rung runs
    /// loops on the worker pool).
    pub par: Option<ParStats>,
    /// Packed-SIMD emission counters of the ladder's vectorizing rungs
    /// at session end (`None` when no rung runs a packed-capable
    /// codegen). Defaulted on deserialize so journals written before
    /// the packed tier load cleanly.
    #[serde(default)]
    pub simd: Option<SimdStats>,
    /// Static-pruning counters merged over the ladder's analyzed rungs
    /// at session end (`None` when no rung runs the analyzer pipeline).
    /// Per-code denial counts tell a tenant *why* an aggressive space
    /// kept rejecting candidates.
    #[serde(default)]
    pub prune: Option<PruneStats>,
}

impl SessionReport {
    /// Best successful runtime, if any trial succeeded.
    pub fn best_runtime_s(&self) -> Option<f64> {
        self.trials
            .iter()
            .filter_map(|t| t.runtime_s)
            .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
    }
}

/// The session's side of the trial loop: the control plane in front of
/// every live evaluation, and the ladder behind every recorded trial.
struct Supervised<'a> {
    ladder: &'a EngineLadder,
    opts: SessionOptions,
    ctl: &'a SessionCtl,
    end: SessionEnd,
    /// Wall-clock seconds of the evaluation `recorded` has not seen yet.
    wall_s: f64,
    /// Per trial: the rung that measured it, replayed or not, wall-clock.
    seen: Vec<(String, bool, f64)>,
}

impl Supervised<'_> {
    /// `Err` with the flag, if any, that stops the session before its next
    /// live evaluation.
    fn check_control(&self) -> Result<(), SessionEnd> {
        let expired = |deadline| now_unix_ms() >= deadline;
        if self.ctl.kill.load(Ordering::Relaxed) {
            Err(SessionEnd::Interrupted)
        } else if self.ctl.cancel.load(Ordering::Relaxed) {
            Err(SessionEnd::Cancelled)
        } else if self.opts.deadline_unix_ms.is_some_and(expired) {
            Err(SessionEnd::DeadlineExceeded)
        } else {
            Ok(())
        }
    }

    /// Wait out an open breaker without going deaf to the control plane:
    /// whether the admission is a probe, or the stop that fired meanwhile.
    fn admit(&self, breaker: &CircuitBreaker) -> Result<bool, SessionEnd> {
        loop {
            match breaker.try_acquire() {
                Admission::Proceed => return Ok(false),
                Admission::Probe => return Ok(true),
                Admission::Wait(d) => {
                    self.check_control()?;
                    std::thread::sleep(d.min(Duration::from_millis(5)));
                }
            }
        }
    }

    /// One live evaluation on the current rung, or the reason not to.
    fn measure_one(&mut self, config: &Configuration) -> Result<MeasureResult, SessionEnd> {
        self.check_control()?;
        let breaker = self.ctl.breaker.as_deref();
        let probe = breaker.map(|b| self.admit(b)).transpose()?;
        let t0 = Instant::now();
        let res = self.ladder.evaluate(config);
        self.wall_s = t0.elapsed().as_secs_f64();
        if let (Some(b), Some(probe)) = (breaker, probe) {
            let infra = res
                .error
                .as_ref()
                .is_some_and(|e| is_infra_failure(e.kind()));
            b.record(infra, probe);
        }
        Ok(res)
    }
}

impl Waves for Supervised<'_> {
    fn measure(&mut self, wave: &[&Configuration]) -> Option<Vec<MeasureResult>> {
        let measured: Result<Vec<MeasureResult>, SessionEnd> =
            wave.iter().map(|config| self.measure_one(config)).collect();
        measured.map_err(|stop| self.end = stop).ok()
    }

    /// The journal line carries the rung that measured it; only then may
    /// the ladder demote for the *next* trial.
    fn recorded(&mut self, trial: &Trial, replayed: bool) {
        let engine = self.ladder.rung_name().to_string();
        self.seen
            .push((engine, replayed, std::mem::take(&mut self.wall_s)));
        self.ladder.observe(trial.error.as_ref().map(|e| e.kind()));
    }
}

/// Run (or resume) one session to a terminal state: the one trial loop
/// (`autotvm::driver::run_rounds`, DESIGN §5a) over the ladder, one trial
/// to a wave, think time not charged, with the control plane deciding
/// before each live evaluation whether it happens.
///
/// `replay` is the journal's existing tape (empty for fresh sessions);
/// `journal` receives every *live* trial: written after each trial,
/// durable before the tuner is told — one sync per round, and one on every
/// exit that returns a report, so `trials` and the file never disagree.
/// Replay writes nothing and is never cut short; a kill is seen at the
/// first live evaluation. On `SessionEnd::Interrupted` the returned report
/// reflects the work done so far and the journal on disk is exactly what a
/// restarted server needs to finish the session.
pub fn run_session(
    tuner: &mut dyn Tuner,
    ladder: &mut EngineLadder,
    journal: &mut TrialJournal,
    replay: Vec<TrialRecord>,
    opts: SessionOptions,
    ctl: &SessionCtl,
) -> std::io::Result<SessionReport> {
    let ladder = &*ladder;
    let mut session = Supervised {
        ladder,
        opts,
        ctl,
        end: SessionEnd::Completed,
        wall_s: 0.0,
        seen: Vec::with_capacity(opts.max_evals),
    };
    let budget = TuneOptions {
        max_evals: opts.max_evals,
        batch: opts.batch,
        max_process_s: None,
    };
    let tape = Some((journal, replay));
    let result = run_rounds(tuner, ladder, budget, tape, Think::Free, 1, &mut session)?;

    let trials = result.trials.into_iter().zip(session.seen);
    Ok(SessionReport {
        tuner: result.tuner,
        end: session.end,
        replayed: result.replayed,
        total_process_s: result.total_process_s,
        demotions: ladder.demotions(),
        final_engine: ladder.rung_name().to_string(),
        cache: result.cache,
        jit: result.jit,
        par: result.par,
        simd: result.simd,
        prune: result.prune,
        trials: trials
            .map(|(t, (engine, replayed, wall_s))| SessionTrial {
                index: t.index,
                config: t.config,
                runtime_s: t.runtime_s,
                error: t.error,
                eval_process_s: t.eval_process_s,
                elapsed_s: t.elapsed_s,
                engine,
                replayed,
                wall_s,
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerConfig;
    use crate::job::TunerKind;
    use crate::ladder::Rung;
    use autotvm::measure::FnEvaluator;
    use autotvm::RandomTuner;
    use configspace::{ConfigSpace, Hyperparameter};
    use std::path::PathBuf;
    use std::sync::atomic::AtomicUsize;

    fn space() -> ConfigSpace {
        let mut cs = ConfigSpace::new();
        cs.add(Hyperparameter::ordinal_ints(
            "P0",
            &(1..=30).collect::<Vec<i64>>(),
        ));
        cs
    }

    fn ok_ladder() -> EngineLadder {
        EngineLadder::new(
            vec![Rung {
                name: "toy".into(),
                evaluator: Box::new(FnEvaluator::new(space(), |c| {
                    MeasureResult::ok(c.int("P0") as f64, 0.5)
                })),
            }],
            3,
        )
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("tvm-service-session-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name)
    }

    fn opts(max_evals: usize) -> SessionOptions {
        SessionOptions {
            max_evals,
            batch: 4,
            deadline_unix_ms: None,
        }
    }

    /// Two knobs, crashes and timeouts on some cells, a process time that
    /// depends on the configuration.
    fn grid_space() -> ConfigSpace {
        let mut cs = ConfigSpace::new();
        for knob in ["P0", "P1"] {
            cs.add(Hyperparameter::ordinal_ints(
                knob,
                &(1..=12).collect::<Vec<i64>>(),
            ));
        }
        cs
    }

    fn grid_cell(c: &Configuration) -> MeasureResult {
        let (a, b) = (c.int("P0"), c.int("P1"));
        if (a + 2 * b) % 7 == 0 {
            MeasureResult::fail(MeasureError::RuntimeCrash("bad cell".into()), 0.0625)
        } else if (a * b) % 11 == 0 {
            let limit_s = 2.0;
            let message = None;
            MeasureResult::fail(MeasureError::Timeout { limit_s, message }, 2.0)
        } else {
            let runtime = ((a - 7).pow(2) + (b - 3).pow(2)) as f64 * 0.125 + 1.0;
            MeasureResult::ok(runtime, 0.25 + a as f64 * 0.03125)
        }
    }

    /// A session over `path` on a one-rung ladder of `grid_cell` whose kill
    /// flag flips during live evaluation number `kill_at` (0: before any).
    fn grid_session(
        kind: TunerKind,
        seed: u64,
        o: SessionOptions,
        path: &std::path::Path,
        resume: bool,
        kill_at: Option<usize>,
    ) -> SessionReport {
        let ctl = SessionCtl::new();
        ctl.kill.store(kill_at == Some(0), Ordering::Relaxed);
        let (kill, count) = (Arc::clone(&ctl.kill), AtomicUsize::new(0));
        let evaluator = FnEvaluator::new(grid_space(), move |c| {
            if Some(count.fetch_add(1, Ordering::SeqCst) + 1) == kill_at {
                kill.store(true, Ordering::Relaxed);
            }
            grid_cell(c)
        });
        let name = "toy".into();
        let evaluator = Box::new(evaluator);
        let mut ladder = EngineLadder::new(vec![Rung { name, evaluator }], 3);
        let (mut journal, tape) = if resume {
            TrialJournal::open_resume(path).expect("resume")
        } else {
            (TrialJournal::create(path).expect("journal"), Vec::new())
        };
        let mut tuner = kind.build(grid_space(), seed);
        run_session(tuner.as_mut(), &mut ladder, &mut journal, tape, o, &ctl).expect("session")
    }

    /// The rows of the journal at `path` with `elapsed_s` taken out.
    fn rows(path: &std::path::Path) -> (Vec<TrialRecord>, Vec<f64>) {
        let mut rows = TrialJournal::load(path).expect("load");
        let elapsed = rows
            .iter_mut()
            .map(|r| std::mem::take(&mut r.elapsed_s))
            .collect();
        (rows, elapsed)
    }

    #[test]
    fn a_killed_and_resumed_session_writes_the_journal_the_driver_writes() {
        const KINDS: [TunerKind; 5] = [
            TunerKind::Random,
            TunerKind::GridSearch,
            TunerKind::Ga,
            TunerKind::Xgb,
            TunerKind::Ytopt,
        ];
        let (session_path, driver_path) = (tmp("equals-session.jsonl"), tmp("equals-driver.jsonl"));
        // splitmix64: the cases are random, and the same on every run.
        let mut state = 0x2023u64;
        let mut draw = |lo: usize, hi: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            lo + ((z ^ (z >> 31)) % (hi - lo + 1) as u64) as usize
        };
        for case in 0..20 {
            let kind = KINDS[case % 5];
            let (seed, batch, budget) = (draw(0, 999) as u64, draw(1, 8), draw(6, 28));
            let kill_at = draw(0, budget);
            let what = format!("{kind:?} seed {seed} batch {batch} budget {budget} kill {kill_at}");

            // The driver: uninterrupted, then cut back to `kill_at` rows —
            // what a crash there leaves — and resumed.
            let ev = FnEvaluator::new(grid_space(), grid_cell);
            let tune_opts = TuneOptions {
                max_evals: budget,
                batch,
                max_process_s: None,
            };
            let tuner = || kind.build(grid_space(), seed);
            let full = autotvm::tune_journaled(tuner().as_mut(), &ev, tune_opts, &driver_path)
                .expect("driver");
            let (reference, charged) = rows(&driver_path);
            assert_eq!(reference.len(), full.len(), "{what}");
            let text = std::fs::read_to_string(&driver_path).expect("read");
            let kept: String = text.split_inclusive('\n').take(kill_at).collect();
            std::fs::write(&driver_path, kept).expect("cut");
            let resumed =
                autotvm::resume_from_journal(tuner().as_mut(), &ev, tune_opts, &driver_path)
                    .expect("driver resume");
            assert_eq!(resumed.replayed, kill_at.min(full.len()), "{what}");
            assert_eq!(rows(&driver_path).0, reference, "{what}: driver resume");

            // The session: killed during evaluation `kill_at`, resumed.
            let o = SessionOptions {
                max_evals: budget,
                batch,
                deadline_unix_ms: None,
            };
            let killed = grid_session(kind, seed, o, &session_path, false, Some(kill_at));
            if kill_at < full.len() {
                assert_eq!(killed.end, SessionEnd::Interrupted, "{what}");
                assert_eq!(killed.trials.len(), kill_at, "{what}");
            }
            let done = grid_session(kind, seed, o, &session_path, true, None);
            assert_eq!(done.end, SessionEnd::Completed, "{what}");
            assert_eq!(done.replayed, killed.trials.len(), "{what}");

            // Same keys, runtimes, errors, process times and stamps; the
            // session's clock is the think-free sum, the driver's adds
            // think time to it.
            let (session_rows, free) = rows(&session_path);
            assert_eq!(session_rows, reference, "{what}");
            let mut sum = 0.0;
            for (i, row) in reference.iter().enumerate() {
                sum += row.eval_process_s;
                assert_eq!(free[i], sum, "{what}: trial {i}");
                assert_eq!(done.trials[i].elapsed_s, sum, "{what}: trial {i}");
                assert!(charged[i] >= sum, "{what}: trial {i}");
            }
            assert_eq!(done.total_process_s, sum, "{what}");
        }
        let _ = std::fs::remove_file(&session_path);
        let _ = std::fs::remove_file(&driver_path);
    }

    #[test]
    fn a_kill_is_seen_at_the_first_live_evaluation_and_resume_reproduces_the_uninterrupted_run() {
        let (path, ref_path) = (tmp("kill-first.jsonl"), tmp("kill-first-ref.jsonl"));
        let (kind, seed, o) = (TunerKind::Random, 4, opts(20));
        let reference = grid_session(kind, seed, o, &ref_path, false, None);
        assert_eq!(reference.trials.len(), 20);
        // Seven rows on disk: one whole wave and three trials of the next.
        let killed = grid_session(kind, seed, o, &path, false, Some(7));
        assert_eq!(
            (killed.end, killed.trials.len()),
            (SessionEnd::Interrupted, 7)
        );
        let before = std::fs::read(&path).expect("read");

        // Replay writes nothing and is not cut short; the kill is seen at
        // the first live evaluation.
        let again = grid_session(kind, seed, o, &path, true, Some(0));
        assert_eq!(again.end, SessionEnd::Interrupted);
        assert_eq!((again.replayed, again.trials.len()), (7, 7));
        assert!(
            std::fs::read(&path).expect("read") == before,
            "journal touched"
        );

        let done = grid_session(kind, seed, o, &path, true, None);
        assert_eq!((done.end, done.replayed), (SessionEnd::Completed, 7));
        let identity = |r: &SessionReport| -> Vec<(String, Option<f64>, Option<&str>, f64)> {
            let kind = |t: &SessionTrial| t.error.as_ref().map(|e| e.kind());
            let row = |t: &SessionTrial| (t.config.key(), t.runtime_s, kind(t), t.elapsed_s);
            r.trials.iter().map(row).collect()
        };
        assert_eq!(identity(&done), identity(&reference));
        let whole = std::fs::read(&ref_path).expect("read");
        assert!(
            std::fs::read(&path).expect("read") == whole,
            "journals differ"
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&ref_path);
    }

    #[test]
    fn expired_deadline_ends_gracefully_with_partial_history() {
        let path = tmp("deadline.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut tuner = RandomTuner::new(space(), 2);
        let mut ladder = ok_ladder();
        let mut journal = TrialJournal::create(&path).expect("journal");
        let o = SessionOptions {
            max_evals: 50,
            batch: 4,
            deadline_unix_ms: Some(now_unix_ms().saturating_sub(1)),
        };
        let report = run_session(
            &mut tuner,
            &mut ladder,
            &mut journal,
            Vec::new(),
            o,
            &SessionCtl::new(),
        )
        .expect("session");
        assert_eq!(report.end, SessionEnd::DeadlineExceeded);
        assert!(report.trials.is_empty(), "deadline was already gone");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cancel_stops_before_next_live_trial() {
        let path = tmp("cancel.jsonl");
        let _ = std::fs::remove_file(&path);
        let ctl = SessionCtl::new();
        ctl.cancel.store(true, Ordering::Relaxed);
        let mut tuner = RandomTuner::new(space(), 2);
        let mut ladder = ok_ladder();
        let mut journal = TrialJournal::create(&path).expect("journal");
        let report = run_session(
            &mut tuner,
            &mut ladder,
            &mut journal,
            Vec::new(),
            opts(10),
            &ctl,
        )
        .expect("session");
        assert_eq!(report.end, SessionEnd::Cancelled);
        assert!(report.trials.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn breaker_storm_opens_and_session_still_finishes() {
        let path = tmp("breaker.jsonl");
        let _ = std::fs::remove_file(&path);
        let ladder = EngineLadder::new(
            vec![Rung {
                name: "crashy".into(),
                evaluator: Box::new(FnEvaluator::new(space(), |_| {
                    MeasureResult::fail(MeasureError::RuntimeCrash("dead node".into()), 0.01)
                })),
            }],
            // Demotion can't happen (single rung); the breaker is the
            // mechanism under test.
            100,
        );
        let mut ladder = ladder;
        let breaker = Arc::new(CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown_s: 0.01,
            cooldown_mult: 2.0,
            max_cooldown_s: 0.05,
            half_open_probes: 1,
        }));
        let ctl = SessionCtl {
            breaker: Some(Arc::clone(&breaker)),
            ..SessionCtl::new()
        };
        let mut tuner = RandomTuner::new(space(), 3);
        let mut journal = TrialJournal::create(&path).expect("journal");
        let report = run_session(
            &mut tuner,
            &mut ladder,
            &mut journal,
            Vec::new(),
            opts(10),
            &ctl,
        )
        .expect("session");
        assert_eq!(report.end, SessionEnd::Completed);
        assert_eq!(report.trials.len(), 10, "breaker throttles, never starves");
        assert!(breaker.trips() >= 2, "storm must keep re-opening");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn demotion_survives_kill_and_resume() {
        // Rung "fast" crashes every trial; rung "slow" succeeds. With
        // demote_after=2 the session demotes at trial 2 and the journal
        // carries mixed pipeline stamps across the kill boundary.
        let make_ladder = || {
            EngineLadder::new(
                vec![
                    Rung {
                        name: "fast".into(),
                        evaluator: Box::new({
                            struct Crashy(ConfigSpace);
                            impl Evaluator for Crashy {
                                fn space(&self) -> &ConfigSpace {
                                    &self.0
                                }
                                fn evaluate(&self, _c: &Configuration) -> MeasureResult {
                                    MeasureResult::fail(
                                        MeasureError::RuntimeCrash("fast engine broken".into()),
                                        0.01,
                                    )
                                }
                                fn pipeline_fingerprint(&self) -> Option<String> {
                                    Some("fast/v1".into())
                                }
                            }
                            Crashy(space())
                        }),
                    },
                    Rung {
                        name: "slow".into(),
                        evaluator: Box::new({
                            struct Slow(ConfigSpace);
                            impl Evaluator for Slow {
                                fn space(&self) -> &ConfigSpace {
                                    &self.0
                                }
                                fn evaluate(&self, c: &Configuration) -> MeasureResult {
                                    MeasureResult::ok(c.int("P0") as f64, 0.2)
                                }
                                fn pipeline_fingerprint(&self) -> Option<String> {
                                    Some("slow/v1".into())
                                }
                            }
                            Slow(space())
                        }),
                    },
                ],
                2,
            )
        };

        let path = tmp("demote-resume.jsonl");
        let _ = std::fs::remove_file(&path);

        // Reference run, uninterrupted.
        let ref_path = tmp("demote-resume-ref.jsonl");
        let _ = std::fs::remove_file(&ref_path);
        let mut j = TrialJournal::create(&ref_path).expect("journal");
        let mut t = RandomTuner::new(space(), 77);
        let mut l = make_ladder();
        let full = run_session(
            &mut t,
            &mut l,
            &mut j,
            Vec::new(),
            opts(10),
            &SessionCtl::new(),
        )
        .expect("reference");
        assert_eq!(full.demotions, 1);
        assert_eq!(full.final_engine, "slow");

        // Stop after 5 trials (i.e. after the demotion already happened)
        // — the journal left behind is what a kill at that point leaves.
        let mut t = RandomTuner::new(space(), 77);
        let mut l = make_ladder();
        let mut j = TrialJournal::create(&path).expect("journal");
        let o = SessionOptions {
            max_evals: 5,
            batch: 4,
            deadline_unix_ms: None,
        };
        let partial = run_session(&mut t, &mut l, &mut j, Vec::new(), o, &SessionCtl::new())
            .expect("partial");
        assert_eq!(partial.trials.len(), 5);
        assert_eq!(partial.demotions, 1, "demotion happened before the kill");
        drop(j);

        // Resume with fresh state; replay must reconstruct the demotion.
        let (mut j, tape) = TrialJournal::open_resume(&path).expect("resume");
        assert_eq!(tape.len(), partial.trials.len());
        let mut t = RandomTuner::new(space(), 77);
        let mut l = make_ladder();
        let resumed = run_session(&mut t, &mut l, &mut j, tape, opts(10), &SessionCtl::new())
            .expect("resumed");
        assert_eq!(resumed.end, SessionEnd::Completed);
        assert_eq!(resumed.demotions, 1, "replay reconstructed the demotion");
        assert_eq!(resumed.final_engine, "slow");
        let pairs = |r: &SessionReport| -> Vec<(String, Option<f64>, String)> {
            r.trials
                .iter()
                .map(|t| (t.config.key(), t.runtime_s, t.engine.clone()))
                .collect()
        };
        assert_eq!(pairs(&full), pairs(&resumed), "identical incl. engines");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&ref_path);
    }
}
