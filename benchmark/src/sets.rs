//! The modes that run whole sets of workloads, each workload in a child
//! process of its own: every metric once, the repeat check, and the spread
//! over seeds.

use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;
use crate::Args;
use serde_json::Value;
use std::time::Instant;

/// Run `--workload name` in a child process and parse its last line.
fn run_child(name: &str, args: &Args, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result: Value = serde_json::from_str(last).map_err(|e| {
        format!(
            "{name}: child printed no result ({e}); exit {:?}; stderr: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    if !out.status.success() || result["correct"].as_bool() != Some(true) {
        // Show what the child reported before failing.
        for line in stdout.lines().filter(|l| l.starts_with("FAILED")) {
            println!("{name}: {line}");
        }
        return Err(format!(
            "{name}: run not correct (exit {:?})",
            out.status.code()
        ));
    }
    Ok(result)
}

fn print_metrics(name: &str, result: &Value) {
    let better = |metric: &str| {
        let e2e = END_TO_END.iter().map(|m| (m.name, m.better));
        let layers = PER_LAYER.iter().map(|m| (m.name, m.better));
        e2e.chain(layers)
            .find(|(n, _)| *n == metric)
            .map_or("", |(_, b)| b.as_str())
    };
    if let Some(metrics) = result["metrics"].as_object() {
        for (metric, v) in metrics.iter() {
            println!(
                "{name:<14} {metric:<44} {:>16.6} {:<6} {} is better",
                v["value"].as_f64().unwrap_or(f64::NAN),
                v["unit"].as_str().unwrap_or(""),
                better(metric)
            );
        }
    }
}

/// Every workload, each in its own process: untraced, then traced.
pub fn run_all(args: &Args) -> Result<(), String> {
    let t0 = Instant::now();
    for w in &WORKLOADS {
        println!("{}: {}", w.name, w.why);
    }
    for w in &WORKLOADS {
        for trace in [false, true] {
            let result = run_child(w.name, args, trace)?;
            print_metrics(w.name, &result);
        }
    }
    println!(
        "all workloads correct in {:.1} s",
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

/// The untraced set twice, back to back; every end-to-end metric of the
/// second set must be within its bound of the first.
pub fn check_repeat(args: &Args) -> Result<(), String> {
    let mut sets: Vec<Vec<Value>> = Vec::new();
    for _ in 0..2 {
        let mut set = Vec::new();
        for w in &WORKLOADS {
            set.push(run_child(w.name, args, false)?);
        }
        sets.push(set);
    }
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    let mut exceeded = Vec::new();
    for (i, w) in WORKLOADS.iter().enumerate() {
        for m in &END_TO_END {
            let a = sets[0][i]["metrics"][m.name]["value"]
                .as_f64()
                .unwrap_or(f64::NAN);
            let b = sets[1][i]["metrics"][m.name]["value"]
                .as_f64()
                .unwrap_or(f64::NAN);
            let worse = stats::relative_worsening(a, b, m.better == Better::Higher);
            println!(
                "{:<14} {:<20} {a:>14.6} {b:>14.6} {:>8.2}% {:>6.0}%",
                w.name,
                m.name,
                worse * 100.0,
                m.bound * 100.0
            );
            if worse.is_nan() || worse.abs() > m.bound {
                exceeded.push(format!(
                    "{} {} differs by {:.2}%",
                    w.name,
                    m.name,
                    worse * 100.0
                ));
            }
        }
        if sets[0][i]["attempted"] != sets[1][i]["attempted"] {
            exceeded.push(format!(
                "{}: attempted trials differ between the sets",
                w.name
            ));
        }
    }
    if exceeded.is_empty() {
        println!("both sets agree within the bounds");
        Ok(())
    } else {
        Err(exceeded.join("; "))
    }
}

/// The acceptance rule, run locally: every workload `runs` times, each time
/// with another seed; for every end-to-end metric, the distance between the
/// first and third quartile as a share of the median, against its bound.
pub fn spread(args: &Args, runs: u64) -> Result<(), String> {
    let only = args.workload.as_deref();
    println!(
        "{:<14} {:<20} {:>14} {:>9} {:>7}",
        "workload", "metric", "median", "spread", "bound"
    );
    let mut wide = Vec::new();
    for w in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o == w.name))
    {
        let mut results = Vec::new();
        for i in 0..runs {
            let seeded = Args {
                seed: args.seed + i,
                workload: None,
                ..*args
            };
            results.push(run_child(w.name, &seeded, false)?);
        }
        for m in &END_TO_END {
            let values: Vec<f64> = results
                .iter()
                .filter_map(|r| r["metrics"][m.name]["value"].as_f64())
                .collect();
            let median = stats::median(&values).unwrap_or(f64::NAN);
            let spread = stats::quartile_spread(&values).unwrap_or(f64::NAN);
            println!(
                "{:<14} {:<20} {median:>14.6} {:>8.2}% {:>6.0}%",
                w.name,
                m.name,
                spread * 100.0,
                m.bound * 100.0
            );
            if m.name != "setup_s" && (spread.is_nan() || spread > m.bound) {
                wide.push(format!(
                    "{} {} spreads {:.2}%",
                    w.name,
                    m.name,
                    spread * 100.0
                ));
            }
        }
    }
    if wide.is_empty() {
        Ok(())
    } else {
        Err(wide.join("; "))
    }
}
