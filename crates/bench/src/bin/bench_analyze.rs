//! Benchmark the static schedule-safety analyzer on the PolyBench molds.
//!
//! Reports, per kernel, the analyzer's cost per configuration (ns), the
//! fraction of sampled configurations it rejects, and the per-code
//! breakdown of the denials — the numbers that justify running it on the
//! tuning hot path: a verdict costs microseconds while the build it can
//! skip costs orders of magnitude more, and under the aggressive spaces
//! the analyzer is the only thing standing between the tuner and racy or
//! out-of-bounds schedules.
//!
//! The pipeline mirrors the evaluator's: the pre-lowering prelint runs
//! on the declared schedule facts first (zero tiles, illegal fuses are
//! denied *without instantiating* — they would panic the scheduler),
//! and only prelint-clean configurations are lowered and analyzed.
//!
//! Usage: `bench_analyze [--smoke] [--mode paper|aggressive]
//! [--size mini|small|medium|large]`
//!
//! Full mode writes `results/BENCH_analyze.json`. Smoke mode is the CI
//! gate: it only prints, and exits nonzero if the aggressive spaces stop
//! producing rejections (the analyzer has gone blind) or if the mean
//! analyze cost exceeds half the mean lowering cost of the same
//! configurations, both timed in the same run (the analyzer has become
//! too slow for the hot path; the committed file reads 0.14).

use polybench::molds::mold_for_mode;
use polybench::{KernelName, ProblemSize, SpaceMode};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;

const KERNELS: [KernelName; 7] = [
    KernelName::Mm3,
    KernelName::Mm2,
    KernelName::Gemm,
    KernelName::Syrk,
    KernelName::Trmm,
    KernelName::Lu,
    KernelName::Cholesky,
];

struct Row {
    kernel: String,
    configs: usize,
    analyze_ns_per_config: f64,
    instantiate_ns_per_config: f64,
    prelint_rejected: usize,
    analyzer_rejected: usize,
    by_code: BTreeMap<String, usize>,
}

impl Row {
    fn rejected(&self) -> usize {
        self.prelint_rejected + self.analyzer_rejected
    }
}

fn bench_kernel(kernel: KernelName, size: ProblemSize, mode: SpaceMode, configs: usize) -> Row {
    let mold = mold_for_mode(kernel, size, mode);
    let mut rng = SmallRng::seed_from_u64(42);
    let samples: Vec<_> = (0..configs)
        .map(|_| mold.space().sample(&mut rng))
        .collect();

    // Phase 1 (timed as analysis): the prelint on declared schedule
    // facts. Denied configurations are never instantiated — they would
    // panic the scheduler.
    let mut by_code: BTreeMap<String, usize> = BTreeMap::new();
    let mut prelint_rejected = 0usize;
    let mut clean = Vec::with_capacity(configs);
    let t_lint = Instant::now();
    for config in &samples {
        let lint = mold.prelint(config);
        if lint.is_empty() {
            clean.push(config);
        } else {
            prelint_rejected += 1;
            let mut codes: Vec<&str> = lint.iter().map(|d| d.code).collect();
            codes.sort_unstable();
            codes.dedup();
            for code in codes {
                *by_code.entry(code.to_string()).or_insert(0) += 1;
            }
        }
    }
    let prelint_s = t_lint.elapsed().as_secs_f64();

    // Phase 2 (timed separately): lowering of the survivors — the cost
    // the analyzer competes against.
    let t_inst = Instant::now();
    let funcs: Vec<_> = clean.iter().map(|c| mold.instantiate(c)).collect();
    let instantiate_s = t_inst.elapsed().as_secs_f64();

    // Phase 3 (timed as analysis): the full interval/race analyzer on
    // the instantiated functions.
    let mut analyzer_rejected = 0usize;
    let t0 = Instant::now();
    for func in &funcs {
        let report = tvm_tir::analyze::check(func);
        if report.is_rejected() {
            analyzer_rejected += 1;
            let mut codes: Vec<&str> = report.denials().map(|d| d.code).collect();
            codes.sort_unstable();
            codes.dedup();
            for code in codes {
                *by_code.entry(code.to_string()).or_insert(0) += 1;
            }
        }
    }
    let analyze_s = t0.elapsed().as_secs_f64();

    Row {
        kernel: mold.name().to_string(),
        configs,
        analyze_ns_per_config: (prelint_s + analyze_s) * 1e9 / configs as f64,
        instantiate_ns_per_config: if funcs.is_empty() {
            0.0
        } else {
            instantiate_s * 1e9 / funcs.len() as f64
        },
        prelint_rejected,
        analyzer_rejected,
        by_code,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let size = args
        .iter()
        .position(|a| a == "--size")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| ProblemSize::parse(s))
        .unwrap_or(ProblemSize::Mini);
    let mode = match args
        .iter()
        .position(|a| a == "--mode")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.to_ascii_lowercase())
        .as_deref()
    {
        Some("paper") => SpaceMode::Paper,
        Some("aggressive") | None => SpaceMode::Aggressive,
        Some(other) => {
            eprintln!("unknown --mode {other:?} (expected paper|aggressive)");
            std::process::exit(2);
        }
    };
    let configs = if smoke { 50 } else { 400 };

    println!(
        "# static schedule-safety analyzer, {configs} sampled configs per kernel, {size}, {mode:?} space"
    );
    println!(
        "{:<10} {:>14} {:>16} {:>9} {:>9}",
        "kernel", "analyze ns/cfg", "lower ns/cfg", "prelint", "analyzer"
    );
    let mut rows = Vec::new();
    for k in KERNELS {
        let row = bench_kernel(k, size, mode, configs);
        println!(
            "{:<10} {:>14.0} {:>16.0} {:>8.1}% {:>8.1}%",
            row.kernel,
            row.analyze_ns_per_config,
            row.instantiate_ns_per_config,
            100.0 * row.prelint_rejected as f64 / row.configs as f64,
            100.0 * row.analyzer_rejected as f64 / row.configs as f64,
        );
        rows.push(row);
    }
    let mut by_code: BTreeMap<String, usize> = BTreeMap::new();
    for row in &rows {
        for (code, n) in &row.by_code {
            *by_code.entry(code.clone()).or_insert(0) += n;
        }
    }
    let total_cfgs: usize = rows.iter().map(|r| r.configs).sum();
    let total_rejected: usize = rows.iter().map(Row::rejected).sum();
    let mean_ns = rows.iter().map(|r| r.analyze_ns_per_config).sum::<f64>() / rows.len() as f64;
    let mean_lower_ns = rows
        .iter()
        .map(|r| r.instantiate_ns_per_config)
        .sum::<f64>()
        / rows.len() as f64;
    println!(
        "mean {mean_ns:.0} ns/config ({:.2} of lowering); {total_rejected}/{total_cfgs} rejected; by code:",
        mean_ns / mean_lower_ns
    );
    for (code, n) in &by_code {
        println!("  {code:<18} {n}");
    }

    if smoke {
        let mut failures = Vec::new();
        if mode == SpaceMode::Aggressive && total_rejected == 0 {
            failures.push(
                "aggressive spaces produced zero rejections — the analyzer has gone blind"
                    .to_string(),
            );
        }
        if mean_ns > 0.5 * mean_lower_ns {
            failures.push(format!(
                "mean analyze cost {mean_ns:.0} ns/config exceeds half the mean lowering \
                 cost of the same configurations ({mean_lower_ns:.0} ns/config)"
            ));
        }
        if failures.is_empty() {
            println!("smoke gate: ok (skipping results/BENCH_analyze.json)");
        } else {
            for f in &failures {
                eprintln!("smoke gate FAILED: {f}");
            }
            std::process::exit(1);
        }
        return;
    }

    let json = serde_json::json!({
        "size": size.to_string(),
        "mode": format!("{mode:?}").to_lowercase(),
        "configs_per_kernel": configs,
        "kernels": rows.iter().map(|r| serde_json::json!({
            "kernel": r.kernel,
            "configs": r.configs,
            "analyze_ns_per_config": r.analyze_ns_per_config,
            "instantiate_ns_per_config": r.instantiate_ns_per_config,
            "prelint_rejected": r.prelint_rejected,
            "analyzer_rejected": r.analyzer_rejected,
            "rejected": r.rejected(),
            "fraction_rejected": r.rejected() as f64 / r.configs as f64,
            "rejected_by_code": r.by_code,
        })).collect::<Vec<_>>(),
        "rejected_by_code": by_code,
        "mean_analyze_ns_per_config": mean_ns,
        "fraction_rejected_overall": total_rejected as f64 / total_cfgs as f64,
    });
    std::fs::create_dir_all("results").expect("mkdir results");
    std::fs::write(
        "results/BENCH_analyze.json",
        serde_json::to_string_pretty(&json).expect("serialize"),
    )
    .expect("write results/BENCH_analyze.json");
    println!("wrote results/BENCH_analyze.json");
}
