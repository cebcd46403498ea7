//! Service-level chaos suite.
//!
//! The acceptance scenario from the service design: many concurrent
//! tenant sessions with 0–50% injected fault rates and repeated abrupt
//! server kills mid-flight. After the final restart every
//! session must complete with trial records *identical* to an
//! uninterrupted sequential run of the same spec (faults included — the
//! injector is deterministic): same config keys, same runtimes, same
//! error kinds — with zero lost or duplicated sessions, and the bounded
//! admission queue must never exceed its configured capacity.
//!
//! Everything here is watchdog-bounded: a deadlock or livelock fails the
//! test instead of hanging CI.

use autotvm::{Evaluator, FaultPlan, HarnessOptions};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::Duration;
use tvm_autotune::MemoCache;
use tvm_service::job::{EngineKind, JobSpec, TunerKind};
use tvm_service::ladder::build_ladder;
use tvm_service::service::{JobState, ServiceConfig, TuningService};
use tvm_service::session::{run_session, SessionCtl, SessionOptions, SessionTrial};
use tvm_service::BreakerConfig;
use ytopt_bo::journal::TrialJournal;

const KERNELS: [&str; 7] = ["lu", "cholesky", "3mm", "gemm", "2mm", "syrk", "trmm"];

/// (config key, runtime, error kind, engine) — the identity compared
/// across kills. Process time is excluded deliberately: it contains real
/// wall-clock and shared-cache effects, which replay does not promise to
/// reproduce.
type Identity = Vec<(String, Option<String>, Option<String>, String)>;

fn chaos_spec(i: usize) -> JobSpec {
    let mut spec = JobSpec::new(format!("tenant-{i}"), KERNELS[i % KERNELS.len()], "mini");
    spec.tuner = if i.is_multiple_of(2) {
        TunerKind::Random
    } else {
        TunerKind::GridSearch
    };
    spec.seed = i as u64;
    spec.max_evals = 8;
    spec.batch = 2;
    spec.engine = EngineKind::Simulated;
    // Fault rates sweep 0%..50% across the tenant population.
    let rate = 0.5 * (i % 11) as f64 / 10.0;
    if rate > 0.0 {
        spec.fault = Some(FaultPlan::uniform(rate, 1000 + i as u64));
    }
    spec
}

fn chaos_cfg() -> ServiceConfig {
    ServiceConfig {
        workers: 4,
        queue_capacity: 128,
        // Breakers stay out of the way here (their own behavior is
        // covered by unit tests); a storm of *injected* faults must not
        // throttle the chaos run into the watchdog.
        breaker: BreakerConfig {
            failure_threshold: u32::MAX,
            ..BreakerConfig::default()
        },
        demote_after: 3,
        poll_ms: 2,
        harness: HarnessOptions::default(),
    }
}

/// The ground truth for one spec: a sequential, uninterrupted session in
/// a fresh journal with no breaker and a private cache.
fn reference_trials(spec: &JobSpec, dir: &std::path::Path, i: usize) -> Vec<SessionTrial> {
    let cache = std::sync::Arc::new(MemoCache::new());
    let mut ladder =
        build_ladder(spec, &cache, HarnessOptions::default(), 3).expect("reference ladder");
    let mut tuner = spec.tuner.build(ladder.space().clone(), spec.seed);
    let path = dir.join(format!("ref-{i}.jsonl"));
    let mut journal = TrialJournal::create(&path).expect("reference journal");
    let report = run_session(
        tuner.as_mut(),
        &mut ladder,
        &mut journal,
        Vec::new(),
        SessionOptions {
            max_evals: spec.max_evals,
            batch: spec.batch,
            deadline_unix_ms: None,
        },
        &SessionCtl::new(),
    )
    .expect("reference session");
    report.trials
}

fn identity(trials: &[SessionTrial]) -> Identity {
    trials
        .iter()
        .map(|t| {
            (
                t.config.key(),
                t.runtime_s.map(|r| format!("{r:.12e}")),
                t.error.as_ref().map(|e| e.kind().to_string()),
                t.engine.clone(),
            )
        })
        .collect()
}

/// What two runs of a *real-engine* session share: their `runtime_s` is a
/// wall-clock measurement, so two separately run sessions never agree on it.
fn untimed(mut identity: Identity) -> Identity {
    identity.iter_mut().for_each(|t| t.1 = None);
    identity
}

fn outcome_trials(outcome: &tvm_service::JobOutcome) -> &[SessionTrial] {
    &outcome
        .report
        .as_ref()
        .expect("completed outcome carries a report")
        .trials
}

/// Run `body` on a helper thread and fail loudly if it neither finishes
/// nor panics within `limit` — the suite's deadlock/hang detector.
fn with_watchdog(limit: Duration, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel::<()>();
    let handle = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(limit) {
        Ok(()) => handle.join().expect("chaos body panicked"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            handle.join().expect("chaos body panicked");
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("watchdog: chaos suite exceeded {limit:?} — deadlock or livelock");
        }
    }
}

#[test]
fn chaos_sessions_survive_kills_with_identical_results() {
    with_watchdog(Duration::from_secs(240), || {
        let dir = std::env::temp_dir()
            .join("tvm-service-chaos")
            .join("acceptance");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let ref_dir = dir.join("reference");
        std::fs::create_dir_all(&ref_dir).expect("mkdir ref");

        const SESSIONS: usize = 100;
        let specs: Vec<JobSpec> = (0..SESSIONS).map(chaos_spec).collect();
        let expected: Vec<Identity> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| identity(&reference_trials(s, &ref_dir, i)))
            .collect();

        // Submit in three waves; kill the server abruptly after each wave
        // so in-flight sessions are interrupted mid-journal.
        let svc_dir = dir.join("svc");
        let waves: [std::ops::Range<usize>; 3] = [0..40, 40..70, 70..SESSIONS];
        let mut ids: HashMap<usize, u64> = HashMap::new();
        let mut total_adopted = 0usize;
        let mut kills = 0usize;
        for (w, wave) in waves.iter().enumerate() {
            let (svc, recovery) = TuningService::open(&svc_dir, chaos_cfg()).expect("open service");
            total_adopted += recovery.adopted;
            let done_before_wave = svc.status().completed;
            for i in wave.clone() {
                let id = svc
                    .submit(specs[i].clone())
                    .unwrap_or_else(|r| panic!("wave {w} admission failed: {r}"));
                ids.insert(i, id);
            }
            assert!(
                svc.status().queue_high_water <= 128,
                "admission queue exceeded its bound"
            );
            // Kill as soon as a couple of sessions have completed: work is
            // provably mid-flight, so most of the wave gets interrupted no
            // matter how fast the machine is. (The watchdog bounds this
            // loop; if the wave finishes entirely first we kill anyway.)
            loop {
                let s = svc.status();
                if s.completed >= done_before_wave + 2 || (s.queued == 0 && s.running == 0) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            svc.kill();
            kills += 1;
            drop(svc);
        }
        assert_eq!(kills, 3);

        // Final restart: adopt everything and drain to completion.
        let (svc, recovery) = TuningService::open(&svc_dir, chaos_cfg()).expect("final open");
        total_adopted += recovery.adopted;
        assert!(
            total_adopted > 0,
            "kills landed after all work finished; nothing was ever adopted"
        );
        assert_eq!(
            recovery.adopted + recovery.already_done,
            SESSIONS,
            "no session lost, none duplicated"
        );

        let mut mismatches = Vec::new();
        for (i, id) in &ids {
            let outcome = svc
                .wait(*id, Duration::from_secs(120))
                .unwrap_or_else(|| panic!("session {i} (job {id}) never reached a terminal state"));
            assert_eq!(
                outcome.state,
                JobState::Completed,
                "session {i} ended {:?}: {:?}",
                outcome.state,
                outcome.message
            );
            let got = identity(outcome_trials(&outcome));
            assert_eq!(got.len(), specs[*i].max_evals, "session {i} trial count");
            if got != expected[*i] {
                mismatches.push(*i);
            }
        }
        assert!(
            mismatches.is_empty(),
            "sessions diverged from their fault-deterministic reference: {mismatches:?}"
        );
        assert!(svc.status().queue_high_water <= 128);
        svc.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn jit_rung_demotion_is_replay_identical() {
    with_watchdog(Duration::from_secs(120), || {
        let dir = std::env::temp_dir()
            .join("tvm-service-chaos")
            .join("jit-demote");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");

        // A real-engine session that starts on the native JIT rung, with
        // injected infra failures so total that every trial reports a
        // failed build: after `demote_after` consecutive engine failures
        // the ladder must step down to the optimized VM, and the journal
        // must record which rung measured what.
        let mut spec = JobSpec::new("tenant-jit", "gemm", "mini");
        spec.tuner = TunerKind::Random;
        spec.seed = 7;
        spec.max_evals = 5;
        spec.batch = 1;
        spec.engine = EngineKind::Real;
        let mut plan = FaultPlan::none(4242);
        plan.build_failed = 1.0;
        spec.fault = Some(plan);

        let opts = SessionOptions {
            max_evals: spec.max_evals,
            batch: spec.batch,
            deadline_unix_ms: None,
        };
        let cache = std::sync::Arc::new(MemoCache::new());
        let mut ladder = build_ladder(&spec, &cache, HarnessOptions::default(), 3).expect("ladder");
        assert_eq!(
            ladder.rung_name(),
            "jit",
            "real sessions start on native codegen"
        );
        let mut tuner = spec.tuner.build(ladder.space().clone(), spec.seed);
        let path = dir.join("session.jsonl");
        let mut journal = TrialJournal::create(&path).expect("journal");
        let live = run_session(
            tuner.as_mut(),
            &mut ladder,
            &mut journal,
            Vec::new(),
            opts,
            &SessionCtl::new(),
        )
        .expect("live session");
        drop(journal);

        assert_eq!(
            live.demotions, 1,
            "three build failures demote exactly once"
        );
        assert_eq!(live.final_engine, "optimized-vm");
        let engines: Vec<&str> = live.trials.iter().map(|t| t.engine.as_str()).collect();
        assert_eq!(
            engines,
            ["jit", "jit", "jit", "optimized-vm", "optimized-vm"],
            "demotion lands after the third engine failure"
        );

        // The journal stamps each record with the fingerprint of the rung
        // that measured it — the JIT rung's stamp is distinct from the
        // optimized VM's, so replay can prove no engines were mixed up.
        let (journal2, replay) = TrialJournal::open_resume(&path).expect("reopen journal");
        assert_eq!(replay.len(), spec.max_evals);
        assert!(
            replay[..3]
                .iter()
                .all(|r| r.pipeline.as_deref() == Some(tvm_runtime::jit_fingerprint().as_str())),
            "pre-demotion records carry the JIT fingerprint: {:?}",
            replay
                .iter()
                .map(|r| r.pipeline.clone())
                .collect::<Vec<_>>()
        );
        assert!(
            replay[3..]
                .iter()
                .all(|r| r.pipeline.as_deref() == Some(tvm_runtime::engine_fingerprint().as_str())),
            "post-demotion records carry the optimized-VM fingerprint"
        );

        // Replay through a fresh ladder: `run_session` hard-errors if any
        // stamp drifts from the reconstructed rung, and the replayed
        // trial records must be identical to the live ones.
        let mut journal2 = journal2;
        let cache2 = std::sync::Arc::new(MemoCache::new());
        let mut ladder2 =
            build_ladder(&spec, &cache2, HarnessOptions::default(), 3).expect("replay ladder");
        let mut tuner2 = spec.tuner.build(ladder2.space().clone(), spec.seed);
        let replayed = run_session(
            tuner2.as_mut(),
            &mut ladder2,
            &mut journal2,
            replay,
            opts,
            &SessionCtl::new(),
        )
        .expect("replay session");
        assert_eq!(
            replayed.replayed, spec.max_evals,
            "every trial came off the tape"
        );
        assert_eq!(replayed.demotions, 1);
        assert_eq!(replayed.final_engine, "optimized-vm");
        assert_eq!(
            identity(&replayed.trials),
            identity(&live.trials),
            "replay must reproduce the demoting run exactly, rung attribution included"
        );

        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn parallel_sessions_recover_replay_identical_with_par_fingerprint() {
    with_watchdog(Duration::from_secs(240), || {
        let dir = std::env::temp_dir()
            .join("tvm-service-chaos")
            .join("par-recovery");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");

        // Real-engine sessions on kernels whose outer tile loops carry
        // `Parallel` annotations, with the worker pool budget raised so
        // proven configurations actually dispatch inside the service's
        // worker threads (the budget is process-global; results are
        // bit-identical at any thread count, so this cannot perturb the
        // other chaos tests).
        tvm_runtime::pool::set_num_threads(4);

        const JOBS: usize = 8;
        let spec_for = |i: usize| -> JobSpec {
            let kernels = ["gemm", "3mm", "syrk", "2mm"];
            let mut spec = JobSpec::new(
                format!("par-tenant-{i}"),
                kernels[i % kernels.len()],
                "mini",
            );
            spec.tuner = TunerKind::Random;
            spec.seed = 100 + i as u64;
            spec.max_evals = 6;
            spec.batch = 1;
            spec.engine = EngineKind::Real;
            spec
        };
        let specs: Vec<JobSpec> = (0..JOBS).map(spec_for).collect();
        let ref_dir = dir.join("reference");
        std::fs::create_dir_all(&ref_dir).expect("mkdir ref");
        // Keys, error kinds and rungs, not runtimes: this test compared
        // `runtime_s` too from the PR that added it (PR 8), which no pair
        // of real-engine runs can satisfy (e.g. 3.1942e-5 vs 7.1819e-5 s
        // for one key). Runtime identity across kills is what the
        // simulated suites above pin.
        let expected: Vec<Identity> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| untimed(identity(&reference_trials(s, &ref_dir, i))))
            .collect();

        let cfg = || ServiceConfig {
            workers: 2,
            ..chaos_cfg()
        };
        let svc_dir = dir.join("svc");
        let (svc, _) = TuningService::open(&svc_dir, cfg()).expect("open service");
        let mut ids: HashMap<usize, u64> = HashMap::new();
        for (i, spec) in specs.iter().enumerate() {
            ids.insert(i, svc.submit(spec.clone()).expect("admission"));
        }
        // Kill as soon as a couple of sessions finished: with 2 workers
        // and 8 jobs, the rest are provably mid-flight or queued.
        loop {
            let s = svc.status();
            if s.completed >= 2 || (s.queued == 0 && s.running == 0) {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        svc.kill();
        drop(svc);

        let (svc, recovery) = TuningService::open(&svc_dir, cfg()).expect("reopen");
        assert!(
            recovery.adopted >= 1,
            "the kill landed after every session finished; nothing was interrupted"
        );
        assert_eq!(
            recovery.adopted + recovery.already_done,
            JOBS,
            "no session lost, none duplicated"
        );

        let (mut par_loops, mut par_entries) = (0u64, 0u64);
        for (i, id) in &ids {
            let outcome = svc
                .wait(*id, Duration::from_secs(120))
                .unwrap_or_else(|| panic!("session {i} (job {id}) never terminated"));
            assert_eq!(
                outcome.state,
                JobState::Completed,
                "session {i} ended {:?}: {:?}",
                outcome.state,
                outcome.message
            );
            assert_eq!(
                untimed(identity(outcome_trials(&outcome))),
                expected[*i],
                "session {i} diverged from its uninterrupted reference"
            );
            // Accounting invariant: every trial that entered a kernel's
            // parallel loop either dispatched on the pool or counted a
            // sequential fallback — recovery must not lose the counters.
            let par = outcome
                .report
                .as_ref()
                .and_then(|r| r.par.clone())
                .expect("parallel-capable rungs report ParStats");
            par_loops += par.loops_proven + par.loops_unproven;
            par_entries += par.dispatches + par.fallbacks;

            // Every journal record is stamped with a `par/v2` engine
            // fingerprint: replay after the kill re-attributed each trial
            // to a pool-capable rung, never to a pre-pool pipeline.
            let path = svc_dir.join("journals").join(format!("{id}.jsonl"));
            let (_journal, records) = TrialJournal::open_resume(&path).expect("journal reopens");
            assert_eq!(
                records.len(),
                specs[*i].max_evals,
                "session {i} tape length"
            );
            assert!(
                records
                    .iter()
                    .all(|r| r.pipeline.as_deref().is_some_and(|p| p.contains("+par/v2"))),
                "session {i} journal carries a non-par/v2 stamp: {:?}",
                records
                    .iter()
                    .map(|r| r.pipeline.clone())
                    .collect::<Vec<_>>()
            );
        }
        assert!(
            par_loops >= 1,
            "no session ever prepared a parallel loop — the sweep is vacuous"
        );
        assert!(
            par_entries >= 1,
            "no session ever entered a parallel loop at execution time"
        );
        // The status endpoint aggregates the recovered sessions' counters.
        let status = svc.status();
        assert!(
            status.par.loops_proven + status.par.loops_unproven >= 1,
            "service status lost the ParStats aggregate: {:?}",
            status.par
        );
        svc.shutdown();
        tvm_runtime::pool::set_num_threads(1);
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn queue_bound_holds_under_submission_flood() {
    with_watchdog(Duration::from_secs(120), || {
        let dir = std::env::temp_dir().join("tvm-service-chaos").join("flood");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServiceConfig {
            workers: 2,
            queue_capacity: 8,
            poll_ms: 2,
            ..chaos_cfg()
        };
        let (svc, _) = TuningService::open(&dir, cfg).expect("open");
        let accepted = std::sync::atomic::AtomicUsize::new(0);
        let rejected = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let svc = &svc;
                let accepted = &accepted;
                let rejected = &rejected;
                scope.spawn(move || {
                    for i in 0..25usize {
                        match svc.submit(chaos_spec(4 * i + t)) {
                            Ok(_) => {
                                accepted.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(tvm_service::RejectReason::QueueFull { depth, capacity }) => {
                                assert!(depth <= capacity);
                                rejected.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(other) => panic!("unexpected rejection: {other}"),
                        }
                    }
                });
            }
        });
        let status = svc.status();
        assert!(
            status.queue_high_water <= 8,
            "bound violated: high water {}",
            status.queue_high_water
        );
        assert!(accepted.load(Ordering::Relaxed) > 0);
        // Every accepted job still terminates (nothing leaked or lost).
        svc.shutdown();
        let (svc, recovery) = TuningService::open(&dir, chaos_cfg()).expect("reopen");
        let _ = recovery;
        let deadline = std::time::Instant::now() + Duration::from_secs(90);
        loop {
            let s = svc.status();
            if s.queued == 0 && s.running == 0 {
                assert_eq!(
                    s.completed,
                    accepted.load(Ordering::Relaxed),
                    "every accepted job must complete exactly once"
                );
                break;
            }
            assert!(std::time::Instant::now() < deadline, "drain stalled");
            std::thread::sleep(Duration::from_millis(10));
        }
        svc.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    });
}
