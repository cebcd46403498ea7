//! `sim-paper`: the paper's §5 experiment on the simulated device.
//!
//! Five tuners × {lu-large, cholesky-large, 3mm-extralarge} × 100 evaluations
//! on `SimDevice(swing_cpu_core)` through `autotvm::tune`: batch 8 and three
//! repeats for the four AutoTVM tuners, batch 1 and one repeat for ytopt, as
//! in the paper. Evaluation is a microsecond analytical model, so wall time
//! is proposing (forest and boosted-tree fits, acquisition, GA, annealing)
//! plus instantiation, lowering and the cost model; execution, JIT, journal
//! and service do nothing. It is the only workload whose tuning *quality* is
//! exactly repeatable, so a tuner shortcut that hurts the search shows in
//! `tuned_runtime_ms`.

use super::{mix, run_table, tuner_label, DeviceKind, Round, Scale, TuneSpec, Workload, TUNERS};
use crate::trace::Tracer;
use std::sync::Arc;
use tvm_autotune::polybench::spaces::table1;
use tvm_autotune::polybench::{KernelName, ProblemSize, SpaceMode};
use tvm_service::TunerKind;

/// The paper's Table 1, as `(kernel, size, cardinality)`.
const TABLE_1: [(KernelName, ProblemSize, u128); 6] = [
    (KernelName::Mm3, ProblemSize::Large, 74_649_600),
    (KernelName::Mm3, ProblemSize::ExtraLarge, 228_614_400),
    (KernelName::Cholesky, ProblemSize::Large, 400),
    (KernelName::Cholesky, ProblemSize::ExtraLarge, 576),
    (KernelName::Lu, ProblemSize::Large, 400),
    (KernelName::Lu, ProblemSize::ExtraLarge, 576),
];

const PROBLEMS: [(KernelName, ProblemSize); 3] = [
    (KernelName::Lu, ProblemSize::Large),
    (KernelName::Cholesky, ProblemSize::Large),
    (KernelName::Mm3, ProblemSize::ExtraLarge),
];

/// Evaluations per session (the paper's `max_evals`).
const EVALS: usize = 100;
/// Sessions of each (tuner, problem) pair per round.
const SEEDS_PER_ROUND: u64 = 1;

pub struct SimPaper {
    table: Vec<TuneSpec>,
    warm_up: Vec<TuneSpec>,
    table1_errors: Vec<String>,
}

impl SimPaper {
    pub fn setup(seed: u64, scale: Scale) -> SimPaper {
        let mut table1_errors = Vec::new();
        let computed = table1();
        for (kernel, size, want) in TABLE_1 {
            match computed.iter().find(|(k, s, _)| *k == kernel && *s == size) {
                Some((_, _, got)) if *got == want => {}
                other => table1_errors.push(format!(
                    "Table 1: {kernel}-{size} should have {want} configurations, found {other:?}"
                )),
            }
        }

        let evals = match scale {
            Scale::Full => EVALS,
            Scale::Smoke => 24,
        };
        let mut table = Vec::new();
        for k in 0..SEEDS_PER_ROUND {
            for (p, (kernel, size)) in PROBLEMS.into_iter().enumerate() {
                for (t, tuner) in TUNERS.into_iter().enumerate() {
                    let ytopt = tuner == TunerKind::Ytopt;
                    table.push(TuneSpec {
                        kernel,
                        size,
                        mode: SpaceMode::Paper,
                        tuner,
                        seed: mix(seed, k * 100 + (p * TUNERS.len() + t) as u64),
                        evals,
                        batch: if ytopt { 1 } else { 8 },
                        repeats: if ytopt { 1 } else { 3 },
                        device: DeviceKind::Simulated,
                    });
                }
            }
        }
        // Warm-up: every tuner once on lu and ytopt once on 3mm, so each
        // proposer's code and both space sizes have run before timing.
        let warm_up = table
            .iter()
            .filter(|s| {
                s.kernel == KernelName::Lu
                    || (s.kernel == KernelName::Mm3 && s.tuner == TunerKind::Ytopt)
            })
            .take(TUNERS.len() + 1)
            .cloned()
            .collect();
        SimPaper {
            table,
            warm_up,
            table1_errors,
        }
    }
}

impl Workload for SimPaper {
    fn describe(&self) -> String {
        let tuners: Vec<&str> = TUNERS.into_iter().map(tuner_label).collect();
        format!(
            "{} sessions/round: {:?} x lu-large, cholesky-large, 3mm-extralarge x {} evals",
            self.table.len(),
            tuners,
            self.table[0].evals
        )
    }

    fn round(&self, tracer: Option<&Arc<Tracer>>) -> Round {
        run_table(&self.table, tracer)
    }

    fn warm_up(&self) -> Round {
        run_table(&self.warm_up, None)
    }

    fn verify(&self) -> Vec<String> {
        // Sequence hashes (configurations and modeled runtimes) are compared
        // across rounds by the determinism guard; Table 1 is checked here.
        self.table1_errors.clone()
    }

    fn nominal_round_s(&self) -> f64 {
        2.3
    }
}
