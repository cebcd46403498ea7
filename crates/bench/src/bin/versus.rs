//! Compare this checkout against another on one benchmark workload.
//!
//! `versus <other-checkout> --workload W [--pairs 10] [--seed 2023]
//! [--trace]`, from the root of this checkout: runs the `BENCHMARK.json`
//! command in both trees at the manifest's `run_seconds` (the length the
//! bounds were set for), each with its own `CARGO_TARGET_DIR`
//! (`<tree>/.bench_build`), `--pairs` times each and
//! alternating which side goes first — the host flips between two speed
//! levels about 35 % apart, so a fixed order measures the order. For every
//! end-to-end metric it prints the median [quartiles] of each side, in how
//! many pairs this side was ahead, the exact two-sided sign-test p, and a
//! verdict against the metric's `bound`: `moved` when the sign test says so
//! (p ≤ 0.05) and the medians differ by more than the other side's
//! interquartile range, `unchanged` when the medians are within the bound
//! and so is each side's spread, `unresolved` otherwise — a spread wider
//! than the bound cannot show that nothing moved. The exact-count lines
//! that must agree (`sequence_hash`, `trials`, `jit.fallbacks`,
//! `jit.functions_jitted`) fail the comparison when they do not; the other
//! counts that differ are listed. `--trace` runs traced rounds instead and
//! adds the per-span self times and, from the span file each traced run
//! writes, the median `runtime.device.run_prepared` of every configuration
//! of every session on both sides. `benchmark/Cargo.lock`, which every
//! benchmark build rewrites, is checked out again in both trees at the end.

use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Exact counts that are the same program's on both sides or the
/// comparison is of two different amounts of work.
const MUST_AGREE: [&str; 4] = [
    "sequence_hash",
    "trials",
    "jit.fallbacks",
    "jit.functions_jitted",
];

/// What one benchmark run printed: the last line's metrics, the
/// exact-count lines and (traced) the self-time table, plus what its span
/// file says of each configuration.
#[derive(Debug, Default, PartialEq)]
struct Run {
    metrics: BTreeMap<String, f64>,
    exact: BTreeMap<String, String>,
    self_ms: BTreeMap<String, f64>,
    /// `(session, nth configuration measured in it)` → median
    /// `run_prepared` of its repeats, ms.
    config_ms: BTreeMap<(u64, usize), f64>,
    failed: u64,
}

/// The span that times one kernel run, and the one around a
/// configuration's repeats.
const RUN_SPAN: &str = "runtime.device.run_prepared";
const CONFIG_SPAN: &str = "tvm-autotune.evaluator.evaluate_miss";
/// Most configurations a traced round may hold for their table to print.
const MAX_CONFIG_ROWS: usize = 100;

/// Per configuration of a traced round — the [`CONFIG_SPAN`]s of each
/// session in start order — the median duration of its [`RUN_SPAN`]
/// children, in ms.
fn config_ms(trace: &Value) -> BTreeMap<(u64, usize), f64> {
    let spans: Vec<&Value> = trace["spans"].as_array().into_iter().flatten().collect();
    let num = |s: &Value, key: &str| s[key].as_f64().unwrap_or(0.0);
    let named = |name: &'static str| {
        spans
            .iter()
            .filter(move |s| s["name"].as_str() == Some(name))
    };
    let mut configs: Vec<&&Value> = named(CONFIG_SPAN).collect();
    configs.sort_by(|a, b| {
        let key = |s: &Value| (num(s, "session"), num(s, "start_ns"));
        key(a).partial_cmp(&key(b)).expect("span times are numbers")
    });
    let mut out = BTreeMap::new();
    let mut nth: BTreeMap<u64, usize> = BTreeMap::new();
    for config in configs {
        let session = num(config, "session") as u64;
        let at = nth.entry(session).or_insert(0);
        let runs: Vec<f64> = named(RUN_SPAN)
            .filter(|r| num(r, "parent") == num(config, "id"))
            .map(|r| (num(r, "end_ns") - num(r, "start_ns")) / 1e6)
            .collect();
        if !runs.is_empty() {
            out.insert((session, *at), quartiles(&runs)[1]);
        }
        *at += 1;
    }
    out
}

/// The indented lines under the line that starts with `header`.
fn indented<'a>(stdout: &'a str, header: &'a str) -> impl Iterator<Item = &'a str> {
    let from = stdout.lines().skip_while(move |l| !l.starts_with(header));
    from.skip(1).take_while(|l| l.starts_with("  "))
}

fn parse_run(stdout: &str) -> Result<Run, String> {
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
    let json: Value = serde_json::from_str(last.ok_or("no output")?)
        .map_err(|e| format!("last line is not JSON: {e}"))?;
    let mut run = Run {
        failed: json["failed"].as_f64().unwrap_or(0.0) as u64,
        ..Run::default()
    };
    for (name, m) in json["metrics"].as_object().ok_or("no metrics")?.iter() {
        run.metrics
            .insert(name.clone(), m["value"].as_f64().ok_or("metric value")?);
    }
    for line in indented(stdout, "exact counts") {
        if let [name, value] = line.split_whitespace().collect::<Vec<_>>()[..] {
            run.exact.insert(name.to_string(), value.to_string());
        }
    }
    for line in indented(stdout, "self-time table") {
        // span, calls, total ms, self ms
        if let [span, _, _, self_ms] = line.split_whitespace().collect::<Vec<_>>()[..] {
            if let Ok(ms) = self_ms.parse() {
                run.self_ms.insert(span.to_string(), ms);
            }
        }
    }
    Ok(run)
}

/// `[q1, median, q3]` by linear interpolation.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|q| {
        let at = q * (v.len() - 1) as f64;
        let (lo, frac) = (at.floor() as usize, at.fract());
        v[lo] + frac * (v[(lo + 1).min(v.len() - 1)] - v[lo])
    })
}

/// Exact two-sided sign test: the probability of a split at least this
/// lopsided among `wins + losses` fair coin flips (ties dropped).
fn sign_test_p(wins: u32, losses: u32) -> f64 {
    let n = wins + losses;
    let choose = |k: u32| (0..k).fold(1.0, |c, i| c * f64::from(n - i) / f64::from(i + 1));
    let tail: f64 = (0..=wins.min(losses)).map(choose).sum();
    (2.0 * tail / 2f64.powi(n as i32)).min(1.0)
}

/// One metric's comparison over the pairs, `this[i]` against `other[i]`.
fn compare(this: &[f64], other: &[f64], higher_is_better: bool, bound: f64) -> String {
    let ahead = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let pairs = this.iter().zip(other);
    let wins = pairs.clone().filter(|(a, b)| ahead(**a, **b)).count() as u32;
    let losses = pairs.filter(|(a, b)| ahead(**b, **a)).count() as u32;
    let p = sign_test_p(wins, losses);
    let ([tq1, tm, tq3], [oq1, om, oq3]) = (quartiles(this), quartiles(other));
    let spread = |q1: f64, m: f64, q3: f64| if m == 0.0 { 0.0 } else { (q3 - q1) / m.abs() };
    let verdict = if p <= 0.05 && (tm - om).abs() > oq3 - oq1 {
        if ahead(tm, om) {
            "moved, better"
        } else {
            "moved, worse"
        }
    } else if spread(tq1, tm, tq3).max(spread(oq1, om, oq3)) > bound {
        "unresolved"
    } else if (tm - om).abs() <= bound * om.abs() {
        "unchanged"
    } else {
        "unresolved"
    };
    let ratio = if om == 0.0 { 1.0 } else { tm / om };
    format!(
        "this {tm:.4} [{tq1:.4}, {tq3:.4}]  other {om:.4} [{oq1:.4}, {oq3:.4}]  x{ratio:.3}  \
         ahead {wins}/{}  p {p:.4}  {verdict}",
        this.len()
    )
}

/// The must-agree counts that do not, and the other counts that differ.
fn disagreements(this: &Run, other: &Run) -> (Vec<String>, Vec<String>) {
    let mut names: Vec<&String> = this.exact.keys().chain(other.exact.keys()).collect();
    names.sort();
    names.dedup();
    let differ = names
        .into_iter()
        .filter(|n| this.exact.get(*n) != other.exact.get(*n));
    let line = |n: &String| {
        let show = |r: &Run| r.exact.get(n).cloned().unwrap_or_else(|| "-".into());
        format!("{n}: this {} other {}", show(this), show(other))
    };
    let (fatal, listed): (Vec<_>, Vec<_>) = differ.partition(|n| MUST_AGREE.contains(&n.as_str()));
    (
        fatal.into_iter().map(line).collect(),
        listed.into_iter().map(line).collect(),
    )
}

fn run_once(tree: &Path, command: &[String], args: &[String]) -> Result<Run, String> {
    let out = Command::new(&command[0])
        .args(&command[1..])
        .args(args)
        .current_dir(tree)
        .env("CARGO_TARGET_DIR", tree.join(".bench_build"))
        .output()
        .map_err(|e| format!("{}: {e}", tree.display()))?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!("{}: {}\n{stderr}", tree.display(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut run = parse_run(&stdout)?;
    // A traced run says where it left its spans.
    if let Some(path) = stdout
        .lines()
        .find_map(|l| l.strip_prefix("trace written to "))
    {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let trace: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
        run.config_ms = config_ms(&trace);
    }
    Ok(run)
}

fn main() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        let at = argv.iter().position(|a| a == name);
        at.and_then(|i| argv.get(i + 1)).cloned()
    };
    let usage = "versus <other-checkout> --workload W [--pairs N] [--seed S] [--trace]";
    let other = PathBuf::from(argv.first().filter(|a| !a.starts_with("--")).ok_or(usage)?);
    let workload = flag("--workload").ok_or(usage)?;
    let pairs: usize = flag("--pairs").map_or(Ok(10), |p| p.parse().map_err(|_| usage))?;
    if pairs == 0 {
        return Err(usage.into());
    }
    let traced = argv.iter().any(|a| a == "--trace");
    let this = std::env::current_dir().map_err(|e| e.to_string())?;
    let manifest = std::fs::read_to_string(this.join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json (run from the checkout's root): {e}"))?;
    let manifest: Value = serde_json::from_str(&manifest).map_err(|e| e.to_string())?;
    let strings = |v: &Value| -> Vec<String> {
        let items = v.as_array().into_iter().flatten();
        items.filter_map(|s| s.as_str().map(String::from)).collect()
    };
    let command = strings(&manifest["command"]);
    let mut args = vec!["--workload".to_string(), workload.clone()];
    args.extend([
        "--seed".to_string(),
        flag("--seed").unwrap_or_else(|| "2023".into()),
    ]);
    args.extend(["--seconds".to_string(), manifest["run_seconds"].to_string()]);
    if traced {
        args.extend(["--trace".to_string(), "1".to_string()]);
    }
    let trees = [this.as_path(), other.as_path()];
    let mut runs: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
    let mut outcome = Ok(());
    'pairs: for pair in 0..pairs {
        // Even pairs run this side first, odd pairs the other.
        for side in [pair % 2, 1 - pair % 2] {
            match run_once(trees[side], &command, &args) {
                Ok(run) => runs[side].push(run),
                Err(e) => {
                    outcome = Err(e);
                    break 'pairs;
                }
            }
        }
        eprintln!("pair {} of {pairs} done", pair + 1);
    }
    for tree in trees {
        // Every benchmark build rewrites the frozen lock.
        let checkout = ["checkout", "--", "benchmark/Cargo.lock"];
        let _ = Command::new("git")
            .arg("-C")
            .arg(tree)
            .args(checkout)
            .status();
    }
    outcome?;
    let [this_runs, other_runs] = &runs;
    println!(
        "{workload}: this = {}, other = {}, {pairs} alternated pairs",
        this.display(),
        other.display()
    );
    for m in manifest["end_to_end"].as_array().into_iter().flatten() {
        let name = m["name"].as_str().unwrap_or_default();
        let column = |runs: &[Run]| -> Vec<f64> {
            runs.iter()
                .filter_map(|r| r.metrics.get(name).copied())
                .collect()
        };
        let (a, b) = (column(this_runs), column(other_runs));
        if a.len() == pairs && b.len() == pairs {
            let higher = m["better"].as_str() == Some("higher");
            let bound = m["bound"].as_f64().unwrap_or(0.0);
            println!("  {name:18} {}", compare(&a, &b, higher, bound));
            let values = |v: &[f64]| v.iter().map(|x| format!("{x:.4}")).collect::<Vec<_>>();
            println!("  {:18} this {}", "", values(&a).join(" / "));
            println!("  {:18} other {}", "", values(&b).join(" / "));
        }
    }
    if traced {
        // A traced run reports the per-layer metrics instead.
        let row = |name: &str, of: &dyn Fn(&Run) -> Option<f64>| {
            let q = |runs: &[Run]| quartiles(&runs.iter().filter_map(of).collect::<Vec<_>>());
            let ([_, a, _], [q1, b, q3]) = (q(this_runs), q(other_runs));
            println!(
                "    {name:48} {a:12.3} {b:12.3} [{q1:.3}, {q3:.3}]  x{:.3}",
                a / b
            );
        };
        println!("  per-layer metrics, median: this, other [quartiles]");
        for m in manifest["per_layer"].as_array().into_iter().flatten() {
            let name = m["name"].as_str().unwrap_or_default();
            if this_runs[0].metrics.contains_key(name) {
                row(name, &|r| r.metrics.get(name).copied());
            }
        }
        println!("  self ms of the traced round, median: this, other [quartiles]");
        for span in this_runs[0].self_ms.keys() {
            row(span, &|r| r.self_ms.get(span).copied());
        }
        // A table a reader can take in: the workloads of few, long runs.
        let configs = &this_runs[0].config_ms;
        if configs.len() <= MAX_CONFIG_ROWS {
            println!(
                "  {RUN_SPAN} ms per configuration (session.nth), median: this, other [quartiles]"
            );
            for at in configs.keys() {
                row(&format!("{}.{}", at.0, at.1), &|r| {
                    r.config_ms.get(at).copied()
                });
            }
        }
    }
    let failed = |runs: &[Run]| runs.iter().map(|r| r.failed).sum::<u64>();
    println!(
        "  failed operations: this {} other {}",
        failed(this_runs),
        failed(other_runs)
    );
    // Every round of a workload prints the same counts: one pair says it.
    let (fatal, listed) = disagreements(&this_runs[0], &other_runs[0]);
    listed.iter().for_each(|l| println!("  differs: {l}"));
    if fatal.is_empty() {
        Ok(())
    } else {
        Err(format!("the two sides did different work: {fatal:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canned(trials_per_s: f64, nests: u32, hash: &str) -> String {
        format!(
            "workload execute-hot, seed 2023, traced: 14 sessions/round\n\
             self-time table of the traced round (0.6865 s):\n  \
             span                                 calls     total ms      self ms\n  \
             runtime.device.run_prepared            140      564.152      {:.3}\n\
             round 0: 0.7 s wall\n\
             exact counts of every timed round:\n  \
             jit.fallbacks                        0\n  \
             jit.nests_compiled                   {nests}\n  \
             sequence_hash                        {hash}\n  \
             trials                               28\n\
             14 sessions per round\n  \
             trials_per_s              {trials_per_s} 1/s\n\
             {{\"correct\":true,\"attempted\":56,\"failed\":0,\"metrics\":{{\"trials_per_s\":\
             {{\"value\":{trials_per_s},\"unit\":\"1/s\"}},\"setup_s\":{{\"value\":0.5,\"unit\":\"s\"}}}}}}\n",
            20000.0 / trials_per_s
        )
    }

    #[test]
    fn a_span_file_gives_each_configuration_its_median_run() {
        let span = |id: u32, parent: u32, session: u32, name: &str, start: u32, end: u32| {
            format!(
                "{{\"id\":{id},\"parent\":{parent},\"session\":{session},\"name\":\"{name}\",\
                 \"start_ns\":{start},\"end_ns\":{end}}}"
            )
        };
        // Session 2's only configuration opens first in the file; session
        // 1 measures two, the second one ahead of the first in file order.
        let spans = [
            span(7, 1, 2, CONFIG_SPAN, 50, 9_000_000),
            span(8, 7, 2, RUN_SPAN, 100, 4_000_100),
            span(4, 1, 1, CONFIG_SPAN, 9_000_000, 20_000_000),
            span(5, 4, 1, RUN_SPAN, 9_000_000, 10_000_000),
            span(6, 4, 1, "polybench.molds.init_args", 10_000_000, 19_000_000),
            span(2, 1, 1, CONFIG_SPAN, 10, 8_000_000),
            span(3, 2, 1, RUN_SPAN, 1_000_000, 3_000_000),
            span(9, 2, 1, RUN_SPAN, 3_000_000, 8_000_000),
            span(10, 2, 1, RUN_SPAN, 8_000_000, 11_000_000),
        ];
        let text = format!("{{\"spans\":[{}]}}", spans.join(","));
        let trace: Value = serde_json::from_str(&text).expect("parses");
        let want = [((1, 0), 3.0), ((1, 1), 1.0), ((2, 0), 4.0)];
        assert_eq!(config_ms(&trace), BTreeMap::from(want));
        assert!(config_ms(&Value::Null).is_empty());
    }

    #[test]
    fn two_canned_outputs_compare_as_moved_with_one_listed_difference() {
        let this = parse_run(&canned(50.0, 71, "0x726a")).expect("parses");
        let other = parse_run(&canned(40.0, 79, "0x726a")).expect("parses");
        assert_eq!(this.metrics["trials_per_s"], 50.0);
        assert_eq!(this.exact["sequence_hash"], "0x726a");
        assert_eq!(this.exact.len(), 4, "{:?}", this.exact);
        assert_eq!(this.self_ms["runtime.device.run_prepared"], 400.0);
        let (fatal, listed) = disagreements(&this, &other);
        assert!(fatal.is_empty(), "{fatal:?}");
        assert_eq!(listed, ["jit.nests_compiled: this 71 other 79"]);
        let moved = parse_run(&canned(40.0, 79, "0xdead")).expect("parses");
        assert_eq!(disagreements(&this, &moved).0.len(), 1);
        assert!(parse_run("no json here").is_err());
        // Ten pairs, this side ahead in all: p = 2/1024, and the medians
        // are further apart than the other side's quartiles.
        let a: Vec<f64> = (0..10).map(|i| 50.0 + f64::from(i)).collect();
        let b: Vec<f64> = (0..10).map(|i| 40.0 + f64::from(i)).collect();
        assert!((sign_test_p(10, 0) - 2.0 / 1024.0).abs() < 1e-12);
        assert!((sign_test_p(5, 5) - 1.0).abs() < 1e-12);
        assert!((sign_test_p(9, 1) - 22.0 / 1024.0).abs() < 1e-12);
        assert_eq!(quartiles(&a), [52.25, 54.5, 56.75]);
        let higher = compare(&a, &b, true, 0.25);
        assert!(
            higher.contains("ahead 10/10") && higher.ends_with("moved, better"),
            "{higher}"
        );
        assert!(compare(&a, &b, false, 0.25).ends_with("moved, worse"));
        assert!(compare(&a, &a, true, 0.25).ends_with("unchanged"));
        // A spread wider than the bound cannot show that nothing moved.
        let wide = [10.0, 30.0, 10.0, 30.0, 10.0, 30.0];
        let flip = [30.0, 10.0, 30.0, 10.0, 30.0, 10.0];
        assert!(compare(&wide, &flip, true, 0.25).ends_with("unresolved"));
    }
}
