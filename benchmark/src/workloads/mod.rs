//! The four workloads and what they share: the per-round result, the exact
//! counters the determinism guard compares, and the one function that runs a
//! tuning session through `autotvm::tune`.

pub mod compile_cold;
pub mod execute_hot;
pub mod service_mixed;
pub mod sim_paper;

use crate::oracle::OracleCase;
use crate::trace::{TracedDevice, TracedEvaluator, TracedMold, TracedTuner, Tracer};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use tvm_autotune::autotvm::{tune, Evaluator, MeasureError, TuneOptions, Tuner};
use tvm_autotune::configspace::Configuration;
use tvm_autotune::polybench::{mold_for_mode, CodeMold, KernelName, ProblemSize, SpaceMode};
use tvm_autotune::runtime::CpuDevice;
use tvm_autotune::sim::{GpuSpec, SimDevice};
use tvm_autotune::MoldEvaluator;
use tvm_service::TunerKind;

/// How much of each workload's table runs: the calibrated constants, or a
/// cut-down table for `--smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Exact counters of one round. Every entry must be identical in every round
/// of a run (and in every run with the same seed); the run fails otherwise.
pub type Counts = BTreeMap<String, u64>;

/// One finished tuning session.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Wall time from the call to `tune` (or `submit`) to its result.
    pub wall_s: f64,
    pub trials: u64,
    /// Trials that ended in any error other than an expected static reject.
    pub failed: u64,
    /// Best kernel runtime the session found; `None` if no trial ran.
    pub best_runtime_s: Option<f64>,
}

/// A configuration the staged replay and the output check run again.
#[derive(Debug, Clone)]
pub struct Sample {
    pub kernel: KernelName,
    pub size: ProblemSize,
    pub mode: SpaceMode,
    pub config: Configuration,
}

#[derive(Debug, Clone, Default)]
pub struct Round {
    pub wall_s: f64,
    /// Process CPU seconds (user + system, all threads) the round used.
    pub cpu_s: f64,
    pub sessions: Vec<SessionOutcome>,
    pub counts: Counts,
    /// One admitted configuration per session kind, for the staged replay.
    pub samples: Vec<Sample>,
    /// Failures of a check that belongs to the round (lost sessions, ...).
    pub errors: Vec<String>,
    /// `service-mixed` only: wall time of every live trial as the service
    /// reported it, and the deepest the admission queue got.
    pub trial_walls_s: Vec<f64>,
    pub queue_high_water: Option<u64>,
}

impl Round {
    pub fn trials(&self) -> u64 {
        self.sessions.iter().map(|s| s.trials).sum()
    }

    pub fn failed(&self) -> u64 {
        self.sessions.iter().map(|s| s.failed).sum()
    }
}

/// What a run drives: warm up, run identical rounds, verify.
pub trait Workload {
    /// The session table in a line, for the run's header.
    fn describe(&self) -> String;

    /// One round of the workload's fixed work. With a tracer, the same work
    /// runs through the decorators of [`crate::trace`].
    fn round(&self, tracer: Option<&Arc<Tracer>>) -> Round;

    /// An untimed slice of a round, run inside set-up so lazily built state
    /// (worker pool, allocator arenas, code pages) exists before timing.
    fn warm_up(&self) -> Round;

    /// Output checks that run after the rounds; returns what failed.
    fn verify(&self) -> Vec<String>;

    /// Seconds one round is calibrated to take on the reference host; the
    /// number of rounds is `--seconds` divided by this.
    fn nominal_round_s(&self) -> f64;

    /// The interpreter-oracle cases, on workloads that really execute
    /// kernels; `None` elsewhere (the staged replay then executes nothing).
    fn oracle(&self) -> Option<&[OracleCase]> {
        None
    }

    /// `service-mixed` itself, for the parts of the traced run only it has.
    fn service(&self) -> Option<&service_mixed::ServiceMixed> {
        None
    }
}

/// The workload called `name`, built from `seed`.
pub fn build(name: &str, seed: u64, scale: Scale) -> Box<dyn Workload> {
    match name {
        "sim-paper" => Box::new(sim_paper::SimPaper::setup(seed, scale)),
        "compile-cold" => Box::new(compile_cold::CompileCold::setup(seed, scale)),
        "execute-hot" => Box::new(execute_hot::ExecuteHot::setup(seed, scale)),
        "service-mixed" => Box::new(service_mixed::ServiceMixed::setup(seed, scale)),
        other => unreachable!("workload names are checked when arguments are parsed: {other}"),
    }
}

/// Threads of the kernels' worker pool: never more than cores, and one (no
/// dispatch at all) on `compile-cold`, which leaves the pool to `execute-hot`.
pub fn pool_threads(workload: &str) -> usize {
    if workload == "compile-cold" {
        1
    } else {
        service_mixed::workers()
    }
}

pub const KERNELS: [KernelName; 7] = [
    KernelName::Gemm,
    KernelName::Mm2,
    KernelName::Mm3,
    KernelName::Lu,
    KernelName::Cholesky,
    KernelName::Syrk,
    KernelName::Trmm,
];

pub const TUNERS: [TunerKind; 5] = [
    TunerKind::Random,
    TunerKind::GridSearch,
    TunerKind::Ga,
    TunerKind::Xgb,
    TunerKind::Ytopt,
];

/// Short tuner name as it appears in metric names.
pub fn tuner_label(kind: TunerKind) -> &'static str {
    match kind {
        TunerKind::Random => "random",
        TunerKind::GridSearch => "grid",
        TunerKind::Ga => "ga",
        TunerKind::Xgb => "xgb",
        TunerKind::Ytopt => "ytopt",
    }
}

/// SplitMix64 step: derives the per-session seeds from `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a, folded over the proposed configurations (and, on the simulated
/// device, the modeled runtimes) of a round.
#[derive(Debug, Clone, Copy)]
pub struct SequenceHash(u64);

impl SequenceHash {
    pub fn new() -> SequenceHash {
        SequenceHash(0xCBF2_9CE4_8422_2325)
    }

    pub fn feed(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Which device a session measures on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    /// `SimDevice(swing_cpu_core)`: analytical, exactly repeatable.
    Simulated,
    /// `CpuDevice::jit()`: real execution on the native-code rung.
    Jit,
}

/// One row of a workload's session table.
#[derive(Debug, Clone)]
pub struct TuneSpec {
    pub kernel: KernelName,
    pub size: ProblemSize,
    pub mode: SpaceMode,
    pub tuner: TunerKind,
    pub seed: u64,
    pub evals: usize,
    pub batch: usize,
    pub repeats: usize,
    pub device: DeviceKind,
}

impl TuneSpec {
    pub fn mold(&self) -> Box<dyn CodeMold> {
        mold_for_mode(self.kernel, self.size, self.mode)
    }
}

/// `TIR-RACE-WW` out of `statically rejected: TIR-RACE-WW: parallel ...`.
pub fn reject_code(message: &str) -> &str {
    let rest = message
        .strip_prefix("statically rejected: ")
        .unwrap_or(message);
    rest.split(':').next().unwrap_or(rest).trim()
}

pub fn add_count(counts: &mut Counts, key: &str, n: u64) {
    *counts.entry(key.to_string()).or_insert(0) += n;
}

/// Run one session of `spec` through `autotvm::tune` with a fresh tuner,
/// evaluator, device and memo cache, and fold its exact counters into
/// `counts` and its proposals into `hash`.
///
/// With a tracer the same objects are wrapped in the span decorators and the
/// whole session is one `autotvm.driver.tune` span of session `session_id`.
pub fn run_tune_session(
    spec: &TuneSpec,
    session_id: u64,
    tracer: Option<&Arc<Tracer>>,
    counts: &mut Counts,
    hash: &mut SequenceHash,
) -> (SessionOutcome, Option<Sample>) {
    let opts = TuneOptions {
        max_evals: spec.evals,
        batch: spec.batch,
        max_process_s: None,
    };

    // A session starts with building its mold, tuner and evaluator: a user
    // pays for those too (the random tuner shuffles the whole space of 3mm).
    let t0 = Instant::now();
    let session = tracer.map(|t| t.session_span("autotvm.driver.tune", session_id));
    let mold = spec.mold();
    let tuner = spec.tuner.build(mold.space().clone(), spec.seed);
    let result = match tracer {
        None => {
            let evaluator = match spec.device {
                DeviceKind::Simulated => {
                    MoldEvaluator::simulated(mold, SimDevice::new(GpuSpec::swing_cpu_core()))
                }
                DeviceKind::Jit => MoldEvaluator::real(mold, CpuDevice::jit()),
            }
            .with_repeats(spec.repeats);
            let mut tuner = tuner;
            tune(tuner.as_mut(), &evaluator, opts)
        }
        Some(tracer) => {
            let mold = Box::new(TracedMold::new(mold, Arc::clone(tracer)));
            let evaluator = match spec.device {
                DeviceKind::Simulated => MoldEvaluator::simulated(
                    mold,
                    TracedDevice::new(
                        SimDevice::new(GpuSpec::swing_cpu_core()),
                        "gpu-sim",
                        Arc::clone(tracer),
                    ),
                ),
                DeviceKind::Jit => MoldEvaluator::real(
                    mold,
                    TracedDevice::new(CpuDevice::jit(), "runtime", Arc::clone(tracer)),
                ),
            }
            .with_repeats(spec.repeats);
            let evaluator =
                TracedEvaluator::new(evaluator, "tvm-autotune.evaluator", Arc::clone(tracer));
            let mut tuner = TracedTuner::new(tuner, tuner_label(spec.tuner), Arc::clone(tracer));
            tune(
                &mut tuner as &mut dyn Tuner,
                &evaluator as &dyn Evaluator,
                opts,
            )
        }
    };
    let wall_s = t0.elapsed().as_secs_f64();
    drop(session);

    let mut failed = 0;
    let mut sample = None;
    for trial in &result.trials {
        hash.feed(trial.config.key().as_bytes());
        if spec.device == DeviceKind::Simulated {
            // Modeled runtimes repeat exactly, so they belong to the hash.
            hash.feed(&trial.runtime_s.unwrap_or(-1.0).to_bits().to_le_bytes());
        }
        match &trial.error {
            None => {
                if sample.is_none() {
                    sample = Some(Sample {
                        kernel: spec.kernel,
                        size: spec.size,
                        mode: spec.mode,
                        config: trial.config.clone(),
                    });
                }
            }
            Some(MeasureError::StaticReject(msg)) => {
                add_count(counts, &format!("static_reject.{}", reject_code(msg)), 1);
            }
            Some(_) => failed += 1,
        }
    }
    add_count(counts, "trials", result.len() as u64);
    if let Some(c) = &result.cache {
        add_count(counts, "cache.hits", c.hits);
        add_count(counts, "cache.misses", c.misses);
    }
    if let Some(j) = &result.jit {
        add_count(counts, "jit.functions_jitted", j.functions_jitted);
        add_count(counts, "jit.nests_compiled", j.nests_compiled);
        add_count(counts, "jit.bytes_emitted", j.bytes_emitted);
        add_count(counts, "jit.fallbacks", j.fallbacks);
    }
    if let Some(s) = &result.simd {
        add_count(counts, "simd.packed_sites", s.packed_loops);
        add_count(counts, "simd.scalar_sites", s.scalar_loops);
    }
    if let Some(p) = &result.par {
        add_count(counts, "pool.dispatches", p.dispatches);
        add_count(counts, "pool.fallbacks", p.fallbacks);
    }

    let outcome = SessionOutcome {
        wall_s,
        trials: result.len() as u64,
        failed,
        best_runtime_s: result.best().and_then(|t| t.runtime_s),
    };
    (outcome, sample)
}

/// Run every session of `table` back to back (a closed loop with one
/// client) as one round; traced, the round is one `bench.round` span.
pub fn run_table(table: &[TuneSpec], tracer: Option<&Arc<Tracer>>) -> Round {
    let mut round = Round::default();
    let mut hash = SequenceHash::new();
    let spawned_before = tvm_autotune::runtime::pool::threads_spawned();
    let _root = tracer.map(|t| t.span("bench.round"));
    let t0 = Instant::now();
    for (i, spec) in table.iter().enumerate() {
        let (outcome, sample) =
            run_tune_session(spec, i as u64 + 1, tracer, &mut round.counts, &mut hash);
        round.sessions.push(outcome);
        round.samples.extend(sample);
    }
    round.wall_s = t0.elapsed().as_secs_f64();
    round.counts.insert("sessions".into(), table.len() as u64);
    round.counts.insert("sequence_hash".into(), hash.value());
    round.counts.insert(
        "pool.threads_spawned_in_round".into(),
        tvm_autotune::runtime::pool::threads_spawned() - spawned_before,
    );
    round
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reject_codes_are_extracted_from_messages() {
        assert_eq!(
            reject_code("statically rejected: TIR-RACE-WW: parallel loop `i.outer`: ... (+1 more)"),
            "TIR-RACE-WW"
        );
        assert_eq!(reject_code("TIR-VEC-OVER: lanes"), "TIR-VEC-OVER");
        assert_eq!(reject_code("no code here"), "no code here");
    }

    #[test]
    fn derived_seeds_differ_by_stream_and_repeat_by_seed() {
        assert_eq!(mix(2023, 4), mix(2023, 4));
        assert_ne!(mix(2023, 4), mix(2023, 5));
        assert_ne!(mix(2023, 4), mix(2024, 4));
    }
}
