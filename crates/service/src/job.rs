//! Job specifications, admission verdicts, and persisted job state.

use autotvm::harness::FaultPlan;
use autotvm::{GaTuner, GridSearchTuner, RandomTuner, Tuner, XgbTuner};
use configspace::ConfigSpace;
use polybench::{KernelName, ProblemSize};
use serde::{Deserialize, Serialize};
use tvm_autotune::YtoptTuner;

/// Which measurement engine a job runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineKind {
    /// Analytical A100 model (`gpu_sim::SimDevice`) — deterministic,
    /// paper-scale, no real execution. Single-rung ladder.
    Simulated,
    /// Real host execution on the CPU device, with the full degradation
    /// ladder: optimized VM → scalar VM → reference interpreter.
    Real,
}

/// Which schedule space a job tunes over.
///
/// Service-side mirror of `polybench::SpaceMode` so the choice rides
/// inside persisted job specs (the mold crate stays serde-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SpaceKind {
    /// The paper's divisor-only tile spaces: every configuration is
    /// legal by construction.
    #[default]
    Paper,
    /// The widened analyzer-pruned spaces: non-divisor tiles, illegal
    /// fusions, over-wide vectors, racy parallel annotations — the
    /// static analyzer holds the line before anything compiles.
    Aggressive,
}

impl SpaceKind {
    /// Parse a client-side space name.
    pub fn parse(s: &str) -> Option<SpaceKind> {
        match s.to_ascii_lowercase().as_str() {
            "paper" | "divisor" => Some(SpaceKind::Paper),
            "aggressive" | "wide" => Some(SpaceKind::Aggressive),
            _ => None,
        }
    }

    /// The mold-side mode this kind selects.
    pub fn mode(&self) -> polybench::SpaceMode {
        match self {
            SpaceKind::Paper => polybench::SpaceMode::Paper,
            SpaceKind::Aggressive => polybench::SpaceMode::Aggressive,
        }
    }
}

/// Which search strategy drives a job's session.
///
/// All five strategies are deterministic functions of `(seed, observed
/// history)`, which is what makes journal replay reproduce a killed
/// session's remaining trajectory exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TunerKind {
    /// Random enumeration of the space.
    Random,
    /// Grid-order enumeration.
    GridSearch,
    /// Genetic algorithm.
    Ga,
    /// XGBoost cost model + simulated annealing.
    Xgb,
    /// The paper's BO framework (RF surrogate + LCB).
    Ytopt,
}

impl TunerKind {
    /// Parse a client-side strategy name.
    pub fn parse(s: &str) -> Option<TunerKind> {
        match s.to_ascii_lowercase().as_str() {
            "random" => Some(TunerKind::Random),
            "grid" | "gridsearch" | "grid-search" => Some(TunerKind::GridSearch),
            "ga" => Some(TunerKind::Ga),
            "xgb" => Some(TunerKind::Xgb),
            "ytopt" | "bo" => Some(TunerKind::Ytopt),
            _ => None,
        }
    }

    /// Construct the tuner over `space` (done on the worker thread that
    /// owns the session). Sessions resumed after a crash rebuild the
    /// tuner with the same `(kind, seed)` and replay the journal through
    /// it.
    pub fn build(&self, space: ConfigSpace, seed: u64) -> Box<dyn Tuner> {
        match self {
            TunerKind::Random => Box::new(RandomTuner::new(space, seed)),
            TunerKind::GridSearch => Box::new(GridSearchTuner::new(space)),
            TunerKind::Ga => Box::new(GaTuner::new(space, seed)),
            TunerKind::Xgb => Box::new(XgbTuner::new(space, seed)),
            TunerKind::Ytopt => Box::new(YtoptTuner::new(space, seed)),
        }
    }
}

/// One tenant's tuning request: what to tune, with which strategy, under
/// which budget and deadline. Persisted (fsync'd) at admission so a
/// crashed server can re-adopt the job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobSpec {
    /// Tenant identifier (free-form; used for reporting only).
    pub tenant: String,
    /// PolyBench kernel name (`"lu"`, `"3mm"`, `"cholesky"`, …).
    pub kernel: String,
    /// Problem size (`"mini"`, `"small"`, `"medium"`, `"large"`,
    /// `"extralarge"`).
    pub size: String,
    /// Search strategy.
    pub tuner: TunerKind,
    /// Tuner seed (replay requires the same seed after a restart).
    pub seed: u64,
    /// Evaluation budget.
    pub max_evals: usize,
    /// Proposals per measure round.
    pub batch: usize,
    /// Measurement engine.
    pub engine: EngineKind,
    /// Wall-clock deadline, seconds from submission (`None` = no
    /// deadline). Measured against the *persisted* submission timestamp,
    /// so time spent down between a crash and a restart counts.
    #[serde(default)]
    pub deadline_s: Option<f64>,
    /// Optional deterministic fault-injection plan (chaos testing).
    #[serde(default)]
    pub fault: Option<FaultPlan>,
    /// Which schedule space to tune over (defaults to the paper's
    /// divisor-only spaces, so specs persisted before this field existed
    /// resume under the space they were tuned in).
    #[serde(default)]
    pub space: SpaceKind,
}

impl JobSpec {
    /// A minimal well-formed spec for `kernel`/`size`, tunable further by
    /// struct update.
    pub fn new(tenant: impl Into<String>, kernel: &str, size: &str) -> JobSpec {
        JobSpec {
            tenant: tenant.into(),
            kernel: kernel.to_string(),
            size: size.to_string(),
            tuner: TunerKind::Random,
            seed: 0,
            max_evals: 20,
            batch: 4,
            engine: EngineKind::Simulated,
            deadline_s: None,
            fault: None,
            space: SpaceKind::default(),
        }
    }

    /// Parse the kernel/size fields, or explain what is wrong.
    pub fn workload(&self) -> Result<(KernelName, ProblemSize), String> {
        let kernel = KernelName::parse(&self.kernel)
            .ok_or_else(|| format!("unknown kernel {:?}", self.kernel))?;
        let size = ProblemSize::parse(&self.size)
            .ok_or_else(|| format!("unknown problem size {:?}", self.size))?;
        Ok((kernel, size))
    }

    /// Full admission-time validation.
    pub fn validate(&self) -> Result<(), String> {
        self.workload()?;
        if self.max_evals == 0 {
            return Err("max_evals must be at least 1".into());
        }
        if self.batch == 0 {
            return Err("batch must be at least 1".into());
        }
        if let Some(d) = self.deadline_s {
            if !d.is_finite() || d <= 0.0 {
                return Err(format!("deadline_s must be positive and finite, got {d}"));
            }
        }
        if let Some(plan) = &self.fault {
            let total = plan.total_failure_rate();
            if !(0.0..=1.0).contains(&total) {
                return Err(format!(
                    "fault plan rates sum to {total}, not a probability"
                ));
            }
        }
        Ok(())
    }
}

/// Why the service refused to admit a job. Typed so clients can react
/// (back off, pick another kernel, shrink the request) instead of parsing
/// strings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The bounded admission queue is at capacity. Backpressure, not
    /// failure: retry after running sessions drain.
    QueueFull {
        /// Jobs currently queued.
        depth: usize,
        /// The configured bound.
        capacity: usize,
    },
    /// The per-kernel circuit breaker is open after repeated
    /// infrastructure failures on this kernel.
    CircuitOpen {
        /// The kernel whose breaker tripped.
        kernel: String,
        /// Seconds until the breaker half-opens and probes again.
        retry_in_s: f64,
    },
    /// The spec itself is malformed (unknown kernel, zero budget, …).
    InvalidSpec {
        /// What validation found.
        message: String,
    },
    /// The service is shutting down and admits nothing new.
    ShuttingDown,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { depth, capacity } => {
                write!(f, "admission queue full ({depth}/{capacity})")
            }
            RejectReason::CircuitOpen { kernel, retry_in_s } => {
                write!(
                    f,
                    "circuit breaker open for kernel {kernel} (retry in {retry_in_s:.2}s)"
                )
            }
            RejectReason::InvalidSpec { message } => write!(f, "invalid job spec: {message}"),
            RejectReason::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuner_kind_parses_aliases() {
        assert_eq!(TunerKind::parse("random"), Some(TunerKind::Random));
        assert_eq!(TunerKind::parse("grid"), Some(TunerKind::GridSearch));
        assert_eq!(TunerKind::parse("GridSearch"), Some(TunerKind::GridSearch));
        assert_eq!(TunerKind::parse("bo"), Some(TunerKind::Ytopt));
        assert_eq!(TunerKind::parse("annealer"), None);
    }

    #[test]
    fn spec_validation_catches_bad_fields() {
        assert!(JobSpec::new("t", "lu", "mini").validate().is_ok());
        assert!(JobSpec::new("t", "nope", "mini").validate().is_err());
        assert!(JobSpec::new("t", "lu", "nope").validate().is_err());
        let mut zero = JobSpec::new("t", "lu", "mini");
        zero.max_evals = 0;
        assert!(zero.validate().is_err());
        let mut neg = JobSpec::new("t", "lu", "mini");
        neg.deadline_s = Some(-1.0);
        assert!(neg.validate().is_err());
    }

    #[test]
    fn spec_round_trips_through_json() {
        let mut spec = JobSpec::new("tenant-7", "3mm", "small");
        spec.fault = Some(FaultPlan::uniform(0.3, 99));
        spec.deadline_s = Some(12.5);
        let json = serde_json::to_string(&spec).expect("serialize");
        let back: JobSpec = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.tenant, "tenant-7");
        assert_eq!(back.tuner, TunerKind::Random);
        assert_eq!(back.deadline_s, Some(12.5));
        let plan = back.fault.expect("plan survives");
        assert!((plan.total_failure_rate() - 0.3).abs() < 1e-9);
        assert_eq!(plan.seed, 99);
    }

    #[test]
    fn space_kind_parses_and_defaults_for_legacy_specs() {
        assert_eq!(SpaceKind::parse("paper"), Some(SpaceKind::Paper));
        assert_eq!(SpaceKind::parse("Aggressive"), Some(SpaceKind::Aggressive));
        assert_eq!(SpaceKind::parse("huge"), None);
        assert_eq!(SpaceKind::Paper.mode(), polybench::SpaceMode::Paper);
        assert_eq!(
            SpaceKind::Aggressive.mode(),
            polybench::SpaceMode::Aggressive
        );

        let mut spec = JobSpec::new("t", "gemm", "mini");
        spec.space = SpaceKind::Aggressive;
        let json = serde_json::to_string(&spec).expect("serialize");
        let back: JobSpec = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.space, SpaceKind::Aggressive);

        // A spec persisted before the field existed resumes under the
        // paper space it was tuned in.
        let mut value: serde_json::Value = serde_json::from_str(&json).expect("value");
        value.as_object_mut().expect("object").remove("space");
        let legacy: JobSpec = serde_json::from_value(value).expect("legacy spec");
        assert_eq!(legacy.space, SpaceKind::Paper);
    }

    #[test]
    fn reject_reasons_render() {
        let r = RejectReason::QueueFull {
            depth: 8,
            capacity: 8,
        };
        assert!(r.to_string().contains("8/8"));
        let r = RejectReason::CircuitOpen {
            kernel: "lu".into(),
            retry_in_s: 0.5,
        };
        assert!(r.to_string().contains("lu"));
    }
}
