#![warn(missing_docs)]
//! # tvm-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§5) on
//! the simulated Swing device. See DESIGN.md's experiment index for the
//! mapping and EXPERIMENTS.md for paper-vs-measured results.
//!
//! Binaries (positional args, no `--help`; printed rows are
//! self-describing):
//!
//! * `run_all [max_evals] [seed] [outdir]` — every experiment: Table 1,
//!   the §4 per-parameter listing and every figure's table and trace
//!   scatter (Figures 4–13), results written to `outdir` (`results/`),
//! * `ablation_kappa`, `ablation_surrogate`, `ablation_model_fidelity` —
//!   the design-choice ablations listed in DESIGN.md,
//! * `bench_jit [--smoke]` — every kernel on the JIT device against the
//!   interpreter, fallback accounting and JIT-over-VM timings,
//! * `bench_analyze [--smoke]` — the static analyzer's cost per
//!   configuration and its rejections by code,
//! * `versus <other-checkout> --workload W` — the repository benchmark
//!   in this checkout against another, alternated pairs.

pub mod plot;

use autotvm::{tune, GaTuner, GridSearchTuner, RandomTuner, TuneOptions, TuningResult, XgbTuner};
use gpu_sim::{GpuSpec, SimDevice};
use polybench::molds::mold_for;
use polybench::{KernelName, ProblemSize};
use serde::Serialize;
use tvm_autotune::{MoldEvaluator, YtoptTuner};

/// The five strategies of the paper's §5, in its plotting order.
pub const TUNER_NAMES: [&str; 5] = [
    "AutoTVM-GA",
    "AutoTVM-Random",
    "AutoTVM-GridSearch",
    "AutoTVM-XGB",
    "ytopt",
];

/// Options shared by all experiments.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentOptions {
    /// Evaluation budget per tuner (paper: 100).
    pub max_evals: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Timed runs per AutoTVM measurement (AutoTVM repeats; ytopt runs
    /// once per evaluation).
    pub autotvm_repeats: usize,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            max_evals: 100,
            seed: 2023,
            autotvm_repeats: 3,
        }
    }
}

/// One tuner's outcome on one workload.
#[derive(Debug, Clone, Serialize)]
pub struct TunerOutcome {
    /// Tuner display name.
    pub tuner: String,
    /// Number of evaluations completed (≤ budget; XGB may stop early).
    pub evals: usize,
    /// Best runtime found, seconds.
    pub best_runtime_s: f64,
    /// Best configuration's tile values, in parameter order.
    pub best_config: Vec<i64>,
    /// Total autotuning process time, seconds.
    pub total_process_s: f64,
    /// Per-trial `(elapsed_s, runtime_s)` points (the figures' scatter).
    pub trace: Vec<(f64, f64)>,
}

impl TunerOutcome {
    fn from_result(r: &TuningResult) -> TunerOutcome {
        let best = r.best().expect("tuner measured at least one config");
        TunerOutcome {
            tuner: r.tuner.clone(),
            evals: r.len(),
            best_runtime_s: best.runtime_s.expect("best is successful"),
            best_config: best.config.ints(),
            total_process_s: r.total_process_s,
            trace: r
                .trials
                .iter()
                .filter_map(|t| t.runtime_s.map(|rt| (t.elapsed_s, rt)))
                .collect(),
        }
    }
}

/// A full five-tuner comparison on one workload (one paper figure pair).
#[derive(Debug, Clone, Serialize)]
pub struct Experiment {
    /// Kernel name.
    pub kernel: String,
    /// Problem-size class.
    pub size: String,
    /// Parameter-space cardinality (Table 1 column).
    pub space_size: u64,
    /// Outcomes in [`TUNER_NAMES`] order.
    pub outcomes: Vec<TunerOutcome>,
}

fn evaluator(kernel: KernelName, size: ProblemSize, repeats: usize, seed: u64) -> MoldEvaluator {
    let mold = mold_for(kernel, size);
    let dev = SimDevice::new(GpuSpec::swing_cpu_core()).with_seed(seed);
    MoldEvaluator::simulated(mold, dev).with_repeats(repeats)
}

/// Run the paper's five-tuner comparison for one kernel/size.
pub fn run_comparison(
    kernel: KernelName,
    size: ProblemSize,
    opts: ExperimentOptions,
) -> Experiment {
    let space = polybench::spaces::space_for(kernel, size);
    let space_size = u64::try_from(space.size().expect("paper spaces are discrete"))
        .expect("paper spaces fit in u64 (largest: 228 614 400)");

    let tune_opts = TuneOptions {
        max_evals: opts.max_evals,
        batch: 8,
        max_process_s: None,
    };
    // ytopt proposes and evaluates one point at a time (sequential BO).
    let bo_opts = TuneOptions {
        max_evals: opts.max_evals,
        batch: 1,
        max_process_s: None,
    };

    let mut outcomes = Vec::with_capacity(5);

    let ev = evaluator(kernel, size, opts.autotvm_repeats, opts.seed);
    let mut ga = GaTuner::new(space.clone(), opts.seed);
    outcomes.push(TunerOutcome::from_result(&tune(&mut ga, &ev, tune_opts)));

    let mut random = RandomTuner::new(space.clone(), opts.seed);
    outcomes.push(TunerOutcome::from_result(&tune(
        &mut random,
        &ev,
        tune_opts,
    )));

    let mut grid = GridSearchTuner::new(space.clone());
    outcomes.push(TunerOutcome::from_result(&tune(&mut grid, &ev, tune_opts)));

    let mut xgb = XgbTuner::new(space.clone(), opts.seed);
    outcomes.push(TunerOutcome::from_result(&tune(&mut xgb, &ev, tune_opts)));

    // ytopt: single evaluation per configuration (no repeat runs).
    let ev_bo = evaluator(kernel, size, 1, opts.seed);
    let mut ytopt = YtoptTuner::new(space, opts.seed);
    outcomes.push(TunerOutcome::from_result(&tune(
        &mut ytopt, &ev_bo, bo_opts,
    )));

    Experiment {
        kernel: kernel.to_string(),
        size: size.to_string(),
        space_size,
        outcomes,
    }
}

/// Pretty-print one experiment like the paper's figure pair.
pub fn print_experiment(e: &Experiment, with_trace: bool) {
    println!(
        "== {} / {} (space size {}) ==",
        e.kernel, e.size, e.space_size
    );
    println!(
        "{:<20} {:>6} {:>14} {:>18} {:>22}",
        "tuner", "evals", "best (s)", "process time (s)", "best tensor size"
    );
    for o in &e.outcomes {
        let cfg = o
            .best_config
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("x");
        println!(
            "{:<20} {:>6} {:>14.4} {:>18.2} {:>22}",
            o.tuner, o.evals, o.best_runtime_s, o.total_process_s, cfg
        );
    }
    if with_trace {
        for o in &e.outcomes {
            println!("-- trace {} (elapsed_s, runtime_s)", o.tuner);
            for (t, r) in &o.trace {
                println!("{t:.3},{r:.5}");
            }
        }
    }
}

/// Render the experiment's five traces as a terminal scatter plot (the
/// visual shape of the paper's Figures 4/6/8/10/12).
pub fn render_traces(e: &Experiment, width: usize, height: usize) -> String {
    let glyphs = ['g', 'r', '#', 'x', 'o'];
    let series: Vec<plot::Series<'_>> = e
        .outcomes
        .iter()
        .zip(glyphs)
        .map(|(o, glyph)| plot::Series {
            label: o.tuner.as_str(),
            glyph,
            points: &o.trace,
        })
        .collect();
    plot::scatter(&series, width, height)
}

/// Figure/table ids covered per workload, for EXPERIMENTS.md bookkeeping.
pub fn figure_ids(kernel: KernelName, size: ProblemSize) -> Option<(&'static str, &'static str)> {
    match (kernel, size) {
        (KernelName::Lu, ProblemSize::Large) => Some(("Figure 4", "Figure 5")),
        (KernelName::Lu, ProblemSize::ExtraLarge) => Some(("Figure 6", "Figure 7")),
        (KernelName::Cholesky, ProblemSize::Large) => Some(("Figure 8", "Figure 9")),
        (KernelName::Cholesky, ProblemSize::ExtraLarge) => Some(("Figure 10", "Figure 11")),
        (KernelName::Mm3, ProblemSize::ExtraLarge) => Some(("Figure 12", "Figure 13")),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_comparison_runs_all_tuners() {
        let opts = ExperimentOptions {
            max_evals: 8,
            seed: 1,
            autotvm_repeats: 1,
        };
        let e = run_comparison(KernelName::Lu, ProblemSize::Large, opts);
        assert_eq!(e.outcomes.len(), 5);
        assert_eq!(e.space_size, 400);
        for o in &e.outcomes {
            assert!(o.evals >= 1 && o.evals <= 8);
            assert!(o.best_runtime_s > 0.0);
            assert!(o.total_process_s > 0.0);
        }
        let names: Vec<&str> = e.outcomes.iter().map(|o| o.tuner.as_str()).collect();
        assert_eq!(names, TUNER_NAMES.to_vec());
    }

    #[test]
    fn figure_id_mapping_complete() {
        assert!(figure_ids(KernelName::Lu, ProblemSize::Large).is_some());
        assert!(figure_ids(KernelName::Mm3, ProblemSize::ExtraLarge).is_some());
        assert!(figure_ids(KernelName::Gemm, ProblemSize::Large).is_none());
    }
}
