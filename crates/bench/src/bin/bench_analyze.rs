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
//! Each kernel's analysis and lowering are timed in `REPEATS` alternated
//! repeats (lowering first in even repeats, analysis first in odd ones),
//! so a host that changes speed mid-run moves both phases alike. Each
//! repeat gives one analyze/lowering ratio (mean analyze cost over the
//! kernels against mean lowering cost of the same configurations); the
//! run reports their median and interquartile range.
//!
//! Full mode writes `results/BENCH_analyze.json`. Smoke mode is the CI
//! gate: it only prints, and exits nonzero if the aggressive spaces stop
//! producing rejections (the analyzer has gone blind) or if the median
//! ratio exceeds one half (the analyzer has become too slow for the hot
//! path).

use polybench::molds::mold_for_mode;
use polybench::{KernelName, ProblemSize, SpaceMode};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;
use tvm_runtime::stats::count_reason;
use tvm_tir::analyze::{deny_codes, Diagnostic};
use ytopt_bo::problem::PruneStats;

/// Alternated repeats per kernel; odd, so the median is one repeat.
const REPEATS: usize = 9;

struct Row {
    kernel: String,
    configs: usize,
    /// Per repeat.
    analyze_ns_per_config: Vec<f64>,
    instantiate_ns_per_config: Vec<f64>,
    /// The first repeat's denials, by stage and by code, counted as the
    /// evaluator counts them.
    denied: PruneStats,
}

impl Row {
    fn rejected(&self) -> u64 {
        self.denied.prelint_denied + self.denied.analyzer_denied
    }
}

/// One denial's distinct codes, counted once each.
fn count_codes(denied: &mut PruneStats, diagnostics: &[Diagnostic]) {
    for code in deny_codes(diagnostics) {
        count_reason(&mut denied.denied_by_code, code, 1);
    }
}

/// A per-code list as the JSON object `{code: count}`.
fn by_code(denied: &PruneStats) -> BTreeMap<String, u64> {
    denied.denied_by_code.iter().cloned().collect()
}

/// The median and the first and third quartiles of `xs`.
fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    let at = |q: f64| xs[((xs.len() - 1) as f64 * q).round() as usize];
    [at(0.5), at(0.25), at(0.75)]
}

fn bench_kernel(kernel: KernelName, size: ProblemSize, mode: SpaceMode, configs: usize) -> Row {
    let mold = mold_for_mode(kernel, size, mode);
    let mut rng = SmallRng::seed_from_u64(42);
    let samples: Vec<_> = (0..configs)
        .map(|_| mold.space().sample(&mut rng))
        .collect();
    let mut row = Row {
        kernel: mold.name().to_string(),
        configs,
        analyze_ns_per_config: Vec::new(),
        instantiate_ns_per_config: Vec::new(),
        denied: PruneStats::default(),
    };
    let mut funcs = Vec::new();
    for repeat in 0..REPEATS {
        let first = repeat == 0;
        // Lowering of the prelint-clean configurations: the cost the
        // analyzer competes against.
        let lower = |funcs: &mut Vec<_>| {
            let clean: Vec<_> = samples
                .iter()
                .filter(|c| mold.prelint(c).is_empty())
                .collect();
            let t = Instant::now();
            *funcs = clean.iter().map(|c| mold.instantiate(c)).collect();
            t.elapsed().as_secs_f64() * 1e9 / funcs.len().max(1) as f64
        };
        // The analysis: the prelint on declared schedule facts first
        // (denied configurations are never instantiated — they would
        // panic the scheduler), then the full analyzer on the lowered
        // functions.
        let analyze = |funcs: &Vec<_>, row: &mut Row| {
            let t = Instant::now();
            for config in &samples {
                let lint = mold.prelint(config);
                if first && !lint.is_empty() {
                    row.denied.prelint_denied += 1;
                    count_codes(&mut row.denied, &lint);
                }
            }
            for func in funcs {
                let report = tvm_tir::analyze::check(func);
                if first && report.is_rejected() {
                    row.denied.analyzer_denied += 1;
                    count_codes(&mut row.denied, &report.diagnostics);
                }
            }
            t.elapsed().as_secs_f64() * 1e9 / configs as f64
        };
        let (lower_ns, analyze_ns) = if repeat % 2 == 0 {
            let l = lower(&mut funcs);
            (l, analyze(&funcs, &mut row))
        } else {
            // Analyze the previous repeat's functions, then lower again.
            let a = analyze(&funcs, &mut row);
            (lower(&mut funcs), a)
        };
        row.instantiate_ns_per_config.push(lower_ns);
        row.analyze_ns_per_config.push(analyze_ns);
    }
    row
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
        "# static schedule-safety analyzer, {configs} sampled configs per kernel, {size}, {mode:?} space, {REPEATS} alternated repeats (medians)"
    );
    println!(
        "{:<10} {:>14} {:>16} {:>9} {:>9}",
        "kernel", "analyze ns/cfg", "lower ns/cfg", "prelint", "analyzer"
    );
    let mut rows = Vec::new();
    for k in KernelName::all() {
        let row = bench_kernel(k, size, mode, configs);
        println!(
            "{:<10} {:>14.0} {:>16.0} {:>8.1}% {:>8.1}%",
            row.kernel,
            quartiles(&row.analyze_ns_per_config)[0],
            quartiles(&row.instantiate_ns_per_config)[0],
            100.0 * row.denied.prelint_denied as f64 / row.configs as f64,
            100.0 * row.denied.analyzer_denied as f64 / row.configs as f64,
        );
        rows.push(row);
    }
    let mut denied = PruneStats::default();
    for row in &rows {
        denied.merge(&row.denied);
    }
    let total_cfgs: usize = rows.iter().map(|r| r.configs).sum();
    let total_rejected = denied.prelint_denied + denied.analyzer_denied;
    // Per repeat: the mean over the kernels of each phase, and their ratio.
    let mean = |f: &dyn Fn(&Row) -> f64| rows.iter().map(f).sum::<f64>() / rows.len() as f64;
    let per_repeat = |r: usize| {
        let analyze = mean(&|row| row.analyze_ns_per_config[r]);
        (
            analyze,
            analyze / mean(&|row| row.instantiate_ns_per_config[r]),
        )
    };
    let (analyze_ns, ratios): (Vec<f64>, Vec<f64>) = (0..REPEATS).map(per_repeat).unzip();
    let mean_ns = quartiles(&analyze_ns)[0];
    let [ratio, ratio_q1, ratio_q3] = quartiles(&ratios);
    println!(
        "mean {mean_ns:.0} ns/config; {ratio:.3} of lowering [{ratio_q1:.3}, {ratio_q3:.3}]; \
         {total_rejected}/{total_cfgs} rejected; by code:"
    );
    for (code, n) in &denied.denied_by_code {
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
        if ratio > 0.5 {
            failures.push(format!(
                "median analyze cost {ratio:.3} of the lowering cost of the same \
                 configurations exceeds one half"
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
            "analyze_ns_per_config": quartiles(&r.analyze_ns_per_config)[0],
            "instantiate_ns_per_config": quartiles(&r.instantiate_ns_per_config)[0],
            "prelint_rejected": r.denied.prelint_denied,
            "analyzer_rejected": r.denied.analyzer_denied,
            "rejected": r.rejected(),
            "fraction_rejected": r.rejected() as f64 / r.configs as f64,
            "rejected_by_code": by_code(&r.denied),
        })).collect::<Vec<_>>(),
        "rejected_by_code": by_code(&denied),
        "repeats": REPEATS,
        "mean_analyze_ns_per_config": mean_ns,
        "analyze_over_lowering": { "median": ratio, "q1": ratio_q1, "q3": ratio_q3 },
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
