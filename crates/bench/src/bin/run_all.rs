//! Run every paper experiment (Table 1 + Figures 4–13) and write results
//! to `results/` (JSON per experiment + a summary text file). Stdout also
//! carries the paper's §4 per-parameter listing (3mm extralarge) and each
//! experiment's traces as a terminal scatter plot.
//!
//! Usage: `run_all [max_evals] [seed] [outdir]`

use polybench::spaces::{space_for, table1};
use polybench::{KernelName, ProblemSize};
use std::fmt::Write as _;
use std::path::PathBuf;
use tvm_bench::{figure_ids, print_experiment, render_traces, run_comparison, ExperimentOptions};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let max_evals = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(100);
    let seed = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(2023);
    let outdir = PathBuf::from(args.get(3).map(|s| s.as_str()).unwrap_or("results"));
    std::fs::create_dir_all(&outdir).expect("create results dir");

    let mut summary = String::new();

    // Table 1.
    let _ = writeln!(summary, "# Table 1: parameter-space cardinalities");
    for (k, s, card) in table1() {
        let _ = writeln!(summary, "{k:<10} {s:<12} {card:>16}");
    }
    let _ = writeln!(summary);

    println!("# Per-parameter detail (extralarge 3mm, the paper's §4 listing)");
    for p in space_for(KernelName::Mm3, ProblemSize::ExtraLarge).params() {
        let card = p.cardinality().expect("discrete");
        let values: Vec<String> = (0..card as usize)
            .map(|i| p.value_at(i).to_string())
            .collect();
        println!("{} ({} values): [{}]", p.name(), card, values.join(", "));
    }
    println!();

    // Figures 4-13: the five workload comparisons.
    let workloads = [
        (KernelName::Lu, ProblemSize::Large),
        (KernelName::Lu, ProblemSize::ExtraLarge),
        (KernelName::Cholesky, ProblemSize::Large),
        (KernelName::Cholesky, ProblemSize::ExtraLarge),
        (KernelName::Mm3, ProblemSize::ExtraLarge),
    ];
    let opts = ExperimentOptions {
        max_evals,
        seed,
        ..Default::default()
    };

    for (kernel, size) in workloads {
        let e = run_comparison(kernel, size, opts);
        let (trace_fig, min_fig) = figure_ids(kernel, size).expect("paper workload");
        println!("### {trace_fig} / {min_fig}");
        print_experiment(&e, false);
        println!();
        print!("{}", render_traces(&e, 100, 24));
        println!();

        let _ = writeln!(summary, "# {trace_fig} / {min_fig}: {kernel} {size}");
        let _ = writeln!(
            summary,
            "{:<20} {:>6} {:>12} {:>16} {:>24}",
            "tuner", "evals", "best(s)", "process(s)", "best config"
        );
        for o in &e.outcomes {
            let cfg = o
                .best_config
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("x");
            let _ = writeln!(
                summary,
                "{:<20} {:>6} {:>12.4} {:>16.2} {:>24}",
                o.tuner, o.evals, o.best_runtime_s, o.total_process_s, cfg
            );
        }
        let _ = writeln!(summary);

        let json = serde_json::to_string_pretty(&e).expect("experiment serializes");
        let path = outdir.join(format!("{kernel}-{size}.json"));
        std::fs::write(&path, json).expect("write experiment json");
    }

    std::fs::write(outdir.join("summary.txt"), &summary).expect("write summary");
    println!("{summary}");
    println!("results written to {}", outdir.display());
}
