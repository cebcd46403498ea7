//! `execute-hot`: kernel execution is almost all of the wall time.
//!
//! The same evaluator and JIT rung as `compile-cold`, plus the worker pool
//! (the paper schedule runs its outer tile loop in parallel): seven kernels
//! at `medium` — `small` where one run of the default configuration takes
//! more than 50 ms on the reference host — in the paper space, a random and a
//! grid session per kernel, few configurations, five repeats each. The VM and
//! JIT kernels, `init_args` and pool dispatch are more than nine tenths of
//! the wall time and compilation is noise, so a codegen change that speeds
//! kernels up but slows emission down shows as a gain here and a loss on
//! `compile-cold`.
//!
//! The random sessions' tuner seeds are frozen (derived from the default seed,
//! not from `--seed`): with two configurations per session, which ones are
//! drawn decides a kernel's best runtime (15 or 33 ms for gemm), and over ten
//! `--seed`s `tuned_runtime_ms` spread by 29 %. Frozen, it compares code
//! generators instead of draws. `--seed` still picks the configurations whose
//! outputs are checked.

use super::{mix, run_table, DeviceKind, Round, Scale, TuneSpec, Workload};
use crate::oracle::{self, OracleCase};
use crate::trace::Tracer;
use std::sync::Arc;
use tvm_autotune::polybench::{KernelName, ProblemSize, SpaceMode};
use tvm_service::TunerKind;

/// Kernel sizes: `medium`, or `small` where the default configuration runs
/// longer than 50 ms at `medium` (measured once on the reference host:
/// 3mm 180 ms, lu 1.7 s, cholesky 0.74 s, trmm 0.3 s).
const PROBLEMS: [(KernelName, ProblemSize); 7] = [
    (KernelName::Gemm, ProblemSize::Medium),
    (KernelName::Mm2, ProblemSize::Medium),
    (KernelName::Syrk, ProblemSize::Medium),
    (KernelName::Mm3, ProblemSize::Small),
    (KernelName::Lu, ProblemSize::Small),
    (KernelName::Cholesky, ProblemSize::Small),
    (KernelName::Trmm, ProblemSize::Small),
];

/// Kernels whose sampled configuration also runs on the interpreter during
/// set-up (0.4 s and 0.2 s at `small`).
const INTERPRETED: [KernelName; 2] = [KernelName::Cholesky, KernelName::Trmm];

/// Seed the random sessions' tuner seeds derive from, whatever `--seed` is.
const FROZEN_SEED: u64 = 2023;

/// Configurations per session.
const EVALS: usize = 2;
const REPEATS: usize = 5;

pub struct ExecuteHot {
    table: Vec<TuneSpec>,
    warm_up: Vec<TuneSpec>,
    oracle: Vec<OracleCase>,
    setup_errors: Vec<String>,
}

impl ExecuteHot {
    pub fn setup(seed: u64, scale: Scale) -> ExecuteHot {
        let (problems, repeats): (&[(KernelName, ProblemSize)], usize) = match scale {
            Scale::Full => (&PROBLEMS, REPEATS),
            // Smoke keeps the three cheapest problems.
            Scale::Smoke => (&PROBLEMS[..3], 2),
        };
        let mut table = Vec::new();
        for (i, &(kernel, size)) in problems.iter().enumerate() {
            for tuner in [TunerKind::Random, TunerKind::GridSearch] {
                table.push(TuneSpec {
                    kernel,
                    size,
                    mode: SpaceMode::Paper,
                    tuner,
                    seed: mix(FROZEN_SEED, i as u64),
                    evals: EVALS,
                    batch: 8,
                    repeats,
                    device: DeviceKind::Jit,
                });
            }
        }
        // Warm-up: the random session of every kernel with one repeat, which
        // spawns the pool and touches every kernel's arrays.
        let warm_up: Vec<TuneSpec> = table
            .iter()
            .filter(|s| s.tuner == TunerKind::Random)
            .map(|s| TuneSpec {
                repeats: 1,
                ..s.clone()
            })
            .collect();

        // Output check: one evaluated configuration per kernel, picked by the
        // seed. The two kernels the interpreter finishes in well under a
        // second are compared bit for bit; the rest against the plain-Rust
        // reference only (`compile-cold` compares all seven bit for bit).
        let (oracle_cases, setup_errors) =
            oracle::cases(&warm_up, seed, |s| INTERPRETED.contains(&s.kernel));
        ExecuteHot {
            table,
            warm_up,
            oracle: oracle_cases,
            setup_errors,
        }
    }
}

impl Workload for ExecuteHot {
    fn describe(&self) -> String {
        format!(
            "{} sessions/round: gemm|2mm|syrk at medium, 3mm|lu|cholesky|trmm at small x random|grid, {} configs x {} repeats",
            self.table.len(),
            EVALS,
            self.table[0].repeats
        )
    }

    fn oracle(&self) -> Option<&[OracleCase]> {
        Some(&self.oracle)
    }

    fn round(&self, tracer: Option<&Arc<Tracer>>) -> Round {
        run_table(&self.table, tracer)
    }

    fn warm_up(&self) -> Round {
        run_table(&self.warm_up, None)
    }

    fn verify(&self) -> Vec<String> {
        let mut errors = self.setup_errors.clone();
        errors.extend(oracle::check_all(&self.oracle));
        errors
    }

    fn nominal_round_s(&self) -> f64 {
        3.0
    }
}
