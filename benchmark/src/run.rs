//! One untraced run of one workload: set-ups, timed rounds, the determinism
//! guard, the output checks and the seven end-to-end metrics.

use crate::metrics::END_TO_END;
use crate::procfs;
use crate::stats;
use crate::workloads::{self, Counts, Round, Scale, Workload};
use crate::{Args, SETUP_REPS};
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One set-up: build the workload from the seed and run its warm-up slice.
pub fn set_up(name: &str, seed: u64, scale: Scale) -> (Box<dyn Workload>, Round, f64) {
    let t0 = Instant::now();
    let workload = workloads::build(name, seed, scale);
    let warm = workload.warm_up();
    (workload, warm, t0.elapsed().as_secs_f64())
}

/// Every counter of every timed round must equal the first round's.
fn determinism_errors(rounds: &[Round]) -> Vec<String> {
    let mut errors = Vec::new();
    let Some(first) = rounds.first() else {
        return errors;
    };
    for (i, round) in rounds.iter().enumerate() {
        if let Some(&n) = round.counts.get("pool.threads_spawned_in_round") {
            if n != 0 {
                errors.push(format!(
                    "round {i} spawned {n} pool threads after the warm-up"
                ));
            }
        }
        if round.counts != first.counts {
            let keys: std::collections::BTreeSet<&String> =
                first.counts.keys().chain(round.counts.keys()).collect();
            for k in keys {
                let (a, b) = (first.counts.get(k), round.counts.get(k));
                if a != b {
                    errors.push(format!(
                        "count {k} drifted: round 0 has {a:?}, round {i} has {b:?}"
                    ));
                }
            }
        }
    }
    errors
}

fn print_counts(counts: &Counts) {
    println!("exact counts of every timed round:");
    for (k, v) in counts {
        if k == "sequence_hash" {
            println!("  {k:<36} {v:#018x}");
        } else {
            println!("  {k:<36} {v}");
        }
    }
}

/// The fastest of `values`: identical work repeated, so the smallest reading
/// is the one the host's other tenants disturbed least (see README,
/// "Why the fastest repetition").
fn fastest(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

/// The seven end-to-end metrics from the timed rounds.
///
/// Every round does the same work, session for session. A session's time is
/// its fastest over the rounds; the percentiles and the geometric mean then
/// run over the round's sessions. Rates and CPU time come from the fastest
/// round. Medians over the rounds are printed beside them for comparison.
fn end_to_end(rounds: &[Round], setups: &[f64]) -> BTreeMap<&'static str, f64> {
    let slots = rounds[0].sessions.len();
    let session_s: Vec<f64> = (0..slots)
        .map(|i| fastest(rounds.iter().map(|r| r.sessions[i].wall_s)))
        .collect();
    let tuned_s: Vec<f64> = (0..slots)
        .map(|i| fastest(rounds.iter().filter_map(|r| r.sessions[i].best_runtime_s)))
        .filter(|t| t.is_finite())
        .collect();
    let expect = "at least one timed round with sessions";
    BTreeMap::from([
        ("setup_s", fastest(setups.iter().copied())),
        (
            "trials_per_s",
            1.0 / fastest(rounds.iter().map(|r| r.wall_s / r.trials() as f64)),
        ),
        (
            "session_p50_s",
            stats::percentile(&session_s, 0.5).expect(expect),
        ),
        (
            "session_p90_s",
            stats::percentile(&session_s, 0.9).expect(expect),
        ),
        (
            "tuned_runtime_ms",
            stats::geometric_mean(&tuned_s).expect(expect) * 1e3,
        ),
        (
            "cpu_s_per_ktrial",
            fastest(rounds.iter().map(|r| r.cpu_s / r.trials() as f64 * 1e3)),
        ),
        ("peak_rss_mb", procfs::peak_rss_mb()),
    ])
}

/// The same figures as medians over the rounds, for the human reader.
fn print_round_medians(rounds: &[Round], setups: &[f64]) {
    let med = |v: Vec<f64>| stats::median(&v).unwrap_or(f64::NAN);
    let pooled: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.sessions.iter().map(|s| s.wall_s))
        .collect();
    println!("medians over the rounds (not reported, for comparison):");
    println!("  setup_s {:.4}", med(setups.to_vec()));
    println!(
        "  trials_per_s {:.2}",
        med(rounds
            .iter()
            .map(|r| r.trials() as f64 / r.wall_s)
            .collect())
    );
    println!(
        "  session_p50_s {:.4} session_p90_s {:.4} (pooled over {} sessions)",
        stats::percentile(&pooled, 0.5).unwrap_or(f64::NAN),
        stats::percentile(&pooled, 0.9).unwrap_or(f64::NAN),
        pooled.len()
    );
    println!(
        "  cpu_s_per_ktrial {:.4}",
        med(rounds
            .iter()
            .map(|r| r.cpu_s / r.trials() as f64 * 1e3)
            .collect())
    );
}

pub fn metrics_object(
    values: &BTreeMap<&'static str, f64>,
    units: &[(&'static str, &'static str)],
) -> Value {
    let mut m = Map::new();
    for (name, unit) in units {
        m.insert(*name, json!({"value": values[name], "unit": unit}));
    }
    Value::Object(m)
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Value,
}

impl RunResult {
    pub fn line(&self) -> String {
        json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        })
        .to_string()
    }
}

pub fn report_errors(errors: &[String]) {
    for e in errors {
        println!("FAILED: {e}");
    }
}

/// Untraced run: the timed rounds, with `SETUP_REPS` set-ups spread evenly
/// between them. The first set-up builds the workload the rounds run; the
/// later ones build and warm up a second instance from scratch and drop it.
/// Spreading them out keeps one slow spell of the host from covering all.
pub fn run_untraced(name: &str, args: &Args) -> RunResult {
    let scale = args.scale();
    let (workload, warm, first_setup_s) = set_up(name, args.seed, scale);
    println!(
        "workload {name}, seed {}: {}",
        args.seed,
        workload.describe()
    );

    let rounds_wanted = if args.smoke {
        2
    } else {
        ((args.seconds as f64 / workload.nominal_round_s()).round() as usize).clamp(1, 16)
    };
    let reps = if args.smoke { 1 } else { SETUP_REPS };
    let mut setups = vec![first_setup_s];
    let mut errors = warm.errors.clone();
    let mut rounds = Vec::with_capacity(rounds_wanted);
    for r in 0..rounds_wanted {
        if r > 0 && setups.len() < reps && r * reps >= setups.len() * rounds_wanted {
            let (_, warm, secs) = set_up(name, args.seed, scale);
            errors.extend(warm.errors);
            setups.push(secs);
        }
        let cpu0 = procfs::cpu_seconds();
        let mut round = workload.round(None);
        round.cpu_s = procfs::cpu_seconds() - cpu0;
        rounds.push(round);
    }
    println!("set-up x{}: {setups:.4?} s", setups.len());
    for (i, r) in rounds.iter().enumerate() {
        println!(
            "round {i}: {:.4} s wall, {:.2} s cpu, {} sessions, {} trials, {:.1} trials/s",
            r.wall_s,
            r.cpu_s,
            r.sessions.len(),
            r.trials(),
            r.trials() as f64 / r.wall_s
        );
    }

    errors.extend(rounds.iter().flat_map(|r| r.errors.iter().cloned()));
    errors.extend(determinism_errors(&rounds));
    errors.extend(workload.verify());
    let attempted: u64 = rounds.iter().map(Round::trials).sum();
    let failed: u64 = rounds.iter().map(Round::failed).sum();
    if failed > 0 {
        errors.push(format!(
            "{failed} trials ended in an error that is not a static reject"
        ));
    }
    print_counts(&rounds[0].counts);
    let slots = rounds[0].sessions.len();
    println!(
        "{slots} sessions per round, each timed {} times; p90 has {} sessions beyond it",
        rounds.len(),
        stats::samples_beyond(slots, 0.9)
    );
    if rounds.iter().any(|r| r.sessions.len() != slots) {
        errors.push("rounds differ in their number of sessions".into());
        report_errors(&errors);
        return RunResult {
            correct: false,
            attempted,
            failed: failed + errors.len() as u64,
            metrics: Value::Object(Map::new()),
        };
    }
    report_errors(&errors);

    print_round_medians(&rounds, &setups);
    let values = end_to_end(&rounds, &setups);
    let units: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    for (name, unit) in &units {
        println!("  {name:<20} {:>14.6} {unit}", values[name]);
    }
    RunResult {
        correct: errors.is_empty(),
        attempted,
        failed: failed + errors.len() as u64,
        metrics: metrics_object(&values, &units),
    }
}
