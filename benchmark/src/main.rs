//! The repository's benchmark.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload in this process and prints, as the last line of standard output,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics untraced, the per-layer metrics with `--trace 1`.
//! Without `--workload`, every workload runs in a child process of its own,
//! untraced and then traced, and every metric is printed by name and unit.
//! `--smoke` cuts the tables down; `--check-repeat` runs the untraced set
//! twice and compares the two against the bounds; `--spread <n>` runs every
//! workload with `n` seeds and prints the quartile spread of each metric.
//! See `README.md`.

mod layers;
mod metrics;
mod oracle;
mod procfs;
mod replay;
mod run;
mod sets;
mod stats;
mod trace;
mod workloads;

use metrics::WORKLOADS;
use std::process::ExitCode;

const DEFAULT_SEED: u64 = 2023;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 18;
/// Set-ups per run; the fastest is reported.
pub const SETUP_REPS: usize = 3;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    pub check_repeat: bool,
    /// Runs per workload, each with another seed, for `--spread`.
    pub spread: Option<u64>,
}

impl Args {
    pub fn scale(&self) -> workloads::Scale {
        if self.smoke {
            workloads::Scale::Smoke
        } else {
            workloads::Scale::Full
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        check_repeat: false,
        spread: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--check-repeat" => args.check_repeat = true,
            "--spread" => {
                args.spread = Some(
                    value("--spread")?
                        .parse()
                        .map_err(|e| format!("--spread: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.iter().any(|info| info.name == w) {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {w}; one of {names:?}"));
        }
    }
    if args.seconds == 0 || args.seconds > 60 {
        return Err("--seconds takes 1 to 60".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // The set modes run their workloads in child processes.
    let set = match (args.spread, args.workload.is_none()) {
        (Some(runs), _) => Some(sets::spread(&args, runs)),
        (None, true) if args.check_repeat => Some(sets::check_repeat(&args)),
        (None, true) => Some(sets::run_all(&args)),
        (None, false) => None,
    };
    if let Some(outcome) = set {
        return match outcome {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                println!("FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let name = args.workload.as_deref().unwrap_or_default();
    procfs::pin_mmap_threshold();
    tvm_autotune::runtime::pool::set_num_threads(workloads::pool_threads(name));
    let result = if args.trace {
        layers::run_traced(name, &args)
    } else {
        run::run_untraced(name, &args)
    };
    println!("{}", result.line());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
