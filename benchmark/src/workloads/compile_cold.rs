//! `compile-cold`: every trial is a memo miss through the whole compile chain.
//!
//! `MoldEvaluator::real(mold, CpuDevice::jit())` on all seven kernels at
//! `mini`, half the sessions in the aggressive schedule space, `RandomTuner`,
//! a fresh private `MemoCache` per session, one repeat. Each trial goes
//! prelint → instantiate → analyze → TIR passes → bytecode compile → block
//! optimize → JIT emit and seal, and then runs a kernel that takes
//! microseconds: the compile chain does most of the work and execution almost
//! none. This is the write side of the memo cache, and the inverse of
//! `execute-hot`. The worker pool is set to one thread: waking a worker costs
//! more than a `mini` kernel runs, and the pool belongs to `execute-hot`.
//!
//! The JIT declines lu, cholesky and trmm, whose `mini` kernels then run on
//! the VM for 0.4 to 1.7 ms — several times their compile time. They get two
//! short sessions per space instead of five long ones, so that they exercise
//! the fallback path without turning the round into an execution benchmark.
//! (The session counts also keep the median and the 90th percentile of the
//! session times inside groups of like sessions rather than between two.)

use super::{mix, run_table, DeviceKind, Round, Scale, TuneSpec, Workload, KERNELS};
use crate::oracle::{self, OracleCase};
use crate::trace::Tracer;
use std::sync::Arc;
use tvm_autotune::polybench::{KernelName, ProblemSize, SpaceMode};
use tvm_service::TunerKind;

/// Sessions per (kernel, space) and evaluations per session: kernels the JIT
/// compiles, and kernels that fall back to the VM.
const JIT_SESSIONS: (u64, usize) = (5, 100);
const VM_SESSIONS: (u64, usize) = (2, 12);
const VM_KERNELS: [KernelName; 3] = [KernelName::Lu, KernelName::Cholesky, KernelName::Trmm];

pub struct CompileCold {
    table: Vec<TuneSpec>,
    warm_up: Vec<TuneSpec>,
    oracle: Vec<OracleCase>,
    setup_errors: Vec<String>,
}

impl CompileCold {
    pub fn setup(seed: u64, scale: Scale) -> CompileCold {
        let (jit, vm) = match scale {
            Scale::Full => (JIT_SESSIONS, VM_SESSIONS),
            Scale::Smoke => ((1, 16), (1, 4)),
        };
        let mut table = Vec::new();
        for k in 0..jit.0.max(vm.0) {
            for (m, mode) in [SpaceMode::Paper, SpaceMode::Aggressive]
                .into_iter()
                .enumerate()
            {
                for (i, kernel) in KERNELS.into_iter().enumerate() {
                    let (sessions, evals) = if VM_KERNELS.contains(&kernel) {
                        vm
                    } else {
                        jit
                    };
                    if k >= sessions {
                        continue;
                    }
                    table.push(TuneSpec {
                        kernel,
                        size: ProblemSize::Mini,
                        mode,
                        tuner: TunerKind::Random,
                        seed: mix(seed, k * 100 + (m * KERNELS.len() + i) as u64),
                        evals,
                        batch: 8,
                        repeats: 1,
                        device: DeviceKind::Jit,
                    });
                }
            }
        }
        // Warm-up: the first two sessions of every kernel and space.
        let warm_up: Vec<TuneSpec> = table.iter().take(4 * KERNELS.len()).cloned().collect();

        // Oracle: one evaluated configuration per kernel and space, all
        // of them interpreted (a `mini` kernel takes milliseconds).
        let (oracle_cases, setup_errors) =
            oracle::cases(&warm_up[..2 * KERNELS.len()], seed, |_| true);
        CompileCold {
            table,
            warm_up,
            oracle: oracle_cases,
            setup_errors,
        }
    }
}

impl Workload for CompileCold {
    fn describe(&self) -> String {
        let of = |kernel: KernelName| {
            let rows: Vec<&TuneSpec> = self
                .table
                .iter()
                .filter(|s| s.kernel == kernel && s.mode == SpaceMode::Paper)
                .collect();
            format!("{} sessions x {} evals", rows.len(), rows[0].evals)
        };
        format!(
            "{} sessions/round: 7 kernels at mini x paper|aggressive, random tuner, 1 repeat; \
             gemm|2mm|3mm|syrk {} per space, lu|cholesky|trmm {}",
            self.table.len(),
            of(KernelName::Gemm),
            of(KernelName::Lu)
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
        1.5
    }
}
