//! Autotune LU end to end with the BO framework (`YtoptTuner` through the
//! one trial loop, one evaluation at a time as ytopt does), journaling every
//! trial: the journal is the performance database ytopt keeps as
//! `results.csv`.
//!
//! Run: `cargo run --release --example autotune_lu -- [size] [max_evals]`
//! (size: large | extralarge; default large, 100 evaluations)

use tvm_autotune::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let size = args
        .get(1)
        .and_then(|s| ProblemSize::parse(s))
        .unwrap_or(ProblemSize::Large);
    let max_evals = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(100);

    let mold = mold_for(KernelName::Lu, size);
    println!(
        "autotuning lu/{size}: space size {}",
        mold.space().size().expect("discrete")
    );
    let device = SimDevice::new(GpuSpec::swing_cpu_core());
    let evaluator = MoldEvaluator::simulated(mold, device);

    let dir = std::env::temp_dir().join("tvm-autotune");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let journal = dir.join(format!("{}.jsonl", evaluator.workload()));
    let result = tune_journaled(
        &mut YtoptTuner::new(evaluator.space().clone(), 0),
        &evaluator,
        TuneOptions {
            max_evals,
            batch: 1,
            max_process_s: None,
        },
        &journal,
    )
    .expect("journaled run");

    // Convergence curve (every time the incumbent improves).
    let mut best = f64::INFINITY;
    println!("\n  eval   elapsed(s)   runtime(s)  (improvements only)");
    for t in &result.trials {
        if let Some(r) = t.runtime_s {
            if r < best {
                best = r;
                println!(
                    "{:>6} {:>12.2} {:>12.4}  {}",
                    t.index, t.elapsed_s, r, t.config
                );
            }
        }
    }

    let best = result.best().expect("ran");
    println!(
        "\nbest configuration: {} -> {:.4} s",
        best.config,
        best.runtime_s.expect("ok")
    );
    println!(
        "total autotuning process time: {:.1} s",
        result.total_process_s
    );

    println!(
        "performance database: {} ({} trials, one JSON line each)",
        journal.display(),
        TrialJournal::load(&journal).expect("load").len()
    );
}
