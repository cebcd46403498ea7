//! The staged replay: each layer's public function, called in pipeline order
//! on configurations the workload itself evaluated, with a stopwatch around
//! every call. It yields the per-layer figures the span decorators cannot
//! see, because the umbrella evaluator calls those layers internally.
//!
//! Times are means over the sampled configurations; counts are sums of what
//! the library's own accessors report for them.

use crate::workloads::service_mixed::ServiceMixed;
use crate::workloads::{mix, Sample};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};
use tvm_autotune::bo::search::{BayesianOptimizer, SearchConfig};
use tvm_autotune::bo::{TrialJournal, TrialRecord};
use tvm_autotune::polybench::mold_for_mode;
use tvm_autotune::runtime::{compile, default_backend, optimize::optimize_compiled, vm, NDArray};
use tvm_autotune::surrogate::forest::RandomForest;
use tvm_autotune::surrogate::gbt::GradientBoosting;
use tvm_autotune::surrogate::Regressor;
use tvm_autotune::tir;
use tvm_service::{proto, TuningService};

/// At most this many sampled configurations go through the compile stages.
const COMPILE_SAMPLES: usize = 14;
/// At most this many of them are also executed (real workloads only).
const EXECUTE_SAMPLES: usize = 7;
/// Rows of the surrogate training set (the paper's evaluation budget).
const MODEL_ROWS: usize = 100;
/// Records appended to the replay's journal.
const JOURNAL_RECORDS: usize = 64;

/// Accumulates `name -> (sum, samples)`.
#[derive(Default)]
pub struct Ledger {
    sums: BTreeMap<&'static str, (f64, u64)>,
}

impl Ledger {
    pub fn add(&mut self, name: &'static str, value: f64) {
        let e = self.sums.entry(name).or_insert((0.0, 0));
        e.0 += value;
        e.1 += 1;
    }

    fn time_us<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(name, t0.elapsed().as_secs_f64() * 1e6);
        out
    }

    pub fn mean(&self, name: &str) -> Option<f64> {
        self.sums.get(name).map(|(s, n)| s / *n as f64)
    }

    pub fn sum(&self, name: &str) -> Option<f64> {
        self.sums.get(name).map(|(s, _)| *s)
    }
}

fn elems(args: &[NDArray]) -> f64 {
    args.iter().map(NDArray::numel).sum::<usize>() as f64
}

/// prelint → instantiate → analyze → TIR passes → bytecode compile → block
/// optimize → JIT emit, and on `execute` the three engines' run time.
pub fn compile_chain(samples: &[Sample], execute: bool, ledger: &mut Ledger) {
    let backend = default_backend();
    for (i, s) in samples.iter().take(COMPILE_SAMPLES).enumerate() {
        let mold = mold_for_mode(s.kernel, s.size, s.mode);
        ledger.time_us("replay.prelint_us", || black_box(mold.prelint(&s.config)));
        let func = ledger.time_us("replay.instantiate_us", || mold.instantiate(&s.config));
        ledger.time_us("tir.analyze.check_us", || {
            black_box(tir::analyze::check(&func))
        });
        let optimized = ledger.time_us("tir.passes.optimize_us", || tir::optimize(&func));
        let lowered = optimized.as_ref().unwrap_or(&func);
        ledger.add(
            "tir.passes.ir_bytes_after",
            lowered.to_string().len() as f64,
        );

        let Ok(compiled) = ledger.time_us("runtime.compile.compile_us", || compile(lowered)) else {
            // The bytecode compiler declined: interpreter territory.
            ledger.add("replay.compile_rejected", 1.0);
            continue;
        };
        ledger.add(
            "runtime.compile.bytecode_items",
            compiled.instr_count() as f64,
        );
        let optimized_cf = ledger.time_us("runtime.optimize.optimize_compiled_us", || {
            optimize_compiled(&compiled)
        });
        ledger.add(
            "runtime.optimize.strided_loops",
            optimized_cf.strided_loop_count() as f64,
        );
        ledger.add(
            "runtime.optimize.microkernels",
            optimized_cf.microkernel_count() as f64,
        );

        let jitted = ledger.time_us("runtime.codegen.jit_compile_us", || {
            backend.jit_compile(&optimized_cf)
        });
        ledger.add("replay.jit_attempts", 1.0);
        match &jitted {
            Ok(cf) => {
                ledger.add("runtime.codegen.code_bytes", cf.jit_code_bytes() as f64);
                ledger.add("runtime.codegen.nests_compiled", cf.jit_nest_count() as f64);
                if let Some(r) = cf.jit_simd_report() {
                    ledger.add("replay.simd_packed", r.packed_loops as f64);
                    ledger.add("replay.simd_sites", r.sites() as f64);
                }
            }
            Err(_) => ledger.add("replay.jit_fallbacks", 1.0),
        }

        if !execute || i >= EXECUTE_SAMPLES {
            continue;
        }
        let mut args = ledger.time_us("replay.init_args_us", || mold.init_args());
        let n = elems(&args);
        let t0 = Instant::now();
        if vm::execute(&optimized_cf, &mut args).is_ok() {
            ledger.add(
                "runtime.vm.optimized_ns_per_elem",
                t0.elapsed().as_secs_f64() * 1e9 / n,
            );
        }
        if let Ok(cf) = &jitted {
            let mut args = mold.init_args();
            let t0 = Instant::now();
            if vm::execute(cf, &mut args).is_ok() {
                ledger.add(
                    "runtime.vm.jit_ns_per_elem",
                    t0.elapsed().as_secs_f64() * 1e9 / n,
                );
            }
        }
    }
}

/// Surrogate fits, BO ask/tell and space sampling/encoding over the space of
/// the workload's first sample.
pub fn models(samples: &[Sample], seed: u64, ledger: &mut Ledger) {
    let Some(s) = samples.first() else { return };
    let space = mold_for_mode(s.kernel, s.size, s.mode).space().clone();
    let mut rng = SmallRng::seed_from_u64(mix(seed, 501));

    let configs: Vec<_> = (0..MODEL_ROWS)
        .map(|_| ledger.time_us("configspace.space.sample_us", || space.sample(&mut rng)))
        .collect();
    let x: Vec<Vec<f64>> = configs
        .iter()
        .map(|c| ledger.time_us("configspace.space.encode_us", || space.encode(c)))
        .collect();
    // A smooth synthetic response over the encoded features: fits cost what
    // they cost on real observations, without running any kernel.
    let y: Vec<f64> = x
        .iter()
        .map(|row| {
            1.0 + row
                .iter()
                .enumerate()
                .map(|(d, v)| (v - 3.0 - d as f64).powi(2))
                .sum::<f64>()
        })
        .collect();

    let mut forest = RandomForest::new(SearchConfig::default().n_trees).with_seed(seed);
    let t0 = Instant::now();
    forest.fit(&x, &y);
    ledger.add("surrogate.forest.fit_ms", t0.elapsed().as_secs_f64() * 1e3);
    let rows: Vec<Vec<f64>> = x
        .iter()
        .cycle()
        .take(SearchConfig::default().n_candidates)
        .cloned()
        .collect();
    ledger.time_us("surrogate.forest.predict_batch_us", || {
        black_box(forest.predict_with_std_batch(&rows))
    });

    let mut gbt = GradientBoosting::new(40).with_max_depth(4).with_seed(7);
    let t0 = Instant::now();
    gbt.fit(&x, &y);
    ledger.add("surrogate.gbt.fit_ms", t0.elapsed().as_secs_f64() * 1e3);

    let mut bo = BayesianOptimizer::new(
        space,
        SearchConfig {
            seed,
            ..SearchConfig::default()
        },
    );
    for (c, y) in configs.iter().zip(&y).take(30) {
        ledger.time_us("ytopt-bo.search.tell_us", || bo.tell(c, Some(*y)));
    }
    for _ in 0..5 {
        let t0 = Instant::now();
        let asked = bo.ask();
        ledger.add("ytopt-bo.search.ask_ms", t0.elapsed().as_secs_f64() * 1e3);
        match asked {
            Some(c) => bo.tell(&c, Some(1.0)),
            None => break,
        }
    }
}

/// Journal append and load in `dir`, and the raw cost of the `fdatasync` an
/// append ends with.
pub fn journal(samples: &[Sample], dir: &Path, ledger: &mut Ledger) -> Result<(), String> {
    let Some(s) = samples.first() else {
        return Ok(());
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("replay.jsonl");
    let record = |index: usize| TrialRecord {
        index,
        config: s.config.clone(),
        runtime_s: Some(1.25e-3),
        error: None,
        eval_process_s: 2.5e-3,
        elapsed_s: index as f64 * 2.5e-3,
        pipeline: Some("replay".into()),
    };
    let mut journal = TrialJournal::create(&path).map_err(|e| format!("journal create: {e}"))?;
    for i in 0..JOURNAL_RECORDS {
        let rec = record(i);
        let t0 = Instant::now();
        journal
            .append(&rec)
            .map_err(|e| format!("journal append: {e}"))?;
        ledger.add(
            "ytopt-bo.journal.append_us",
            t0.elapsed().as_secs_f64() * 1e6,
        );
    }
    drop(journal);
    let t0 = Instant::now();
    let loaded = TrialJournal::load(&path).map_err(|e| format!("journal load: {e}"))?;
    ledger.add(
        "ytopt-bo.journal.load_us_per_record",
        t0.elapsed().as_secs_f64() * 1e6 / JOURNAL_RECORDS as f64,
    );
    if loaded.len() != JOURNAL_RECORDS || loaded[JOURNAL_RECORDS - 1] != record(JOURNAL_RECORDS - 1)
    {
        return Err(format!(
            "journal round trip lost records: {} of {JOURNAL_RECORDS}",
            loaded.len()
        ));
    }

    let raw = dir.join("replay-fsync.tmp");
    let mut file = std::fs::File::create(&raw).map_err(|e| format!("{}: {e}", raw.display()))?;
    let line = vec![b'x'; 200];
    for _ in 0..JOURNAL_RECORDS {
        file.write_all(&line).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        file.sync_data().map_err(|e| e.to_string())?;
        ledger.add(
            "ytopt-bo.journal.append_fsync_us",
            t0.elapsed().as_secs_f64() * 1e6,
        );
    }
    let _ = std::fs::remove_file(&raw);
    let _ = std::fs::remove_file(&path);
    Ok(())
}

/// Admission, status, the wire protocol and recovery on a real service.
pub fn service(workload: &ServiceMixed, ledger: &mut Ledger) -> Result<(), String> {
    let dir = workload.fresh_dir();
    let tenants: Vec<_> = workload.tenants().iter().take(8).cloned().collect();
    let cfg = workload.config(tenants.len());
    let (svc, _) = TuningService::open(&dir, cfg).map_err(|e| format!("open: {e}"))?;
    let mut ids = Vec::new();
    for spec in &tenants {
        let t0 = Instant::now();
        let id = svc
            .submit(spec.clone())
            .map_err(|r| format!("submit refused: {r}"))?;
        ledger.add(
            "service.service.submit_us",
            t0.elapsed().as_secs_f64() * 1e6,
        );
        ids.push(id);
    }
    for id in &ids {
        svc.wait(*id, Duration::from_secs(120))
            .ok_or_else(|| format!("replay job {id} never finished"))?;
    }
    for _ in 0..16 {
        ledger.time_us("service.service.status_us", || black_box(svc.status()));
        let line = ledger.time_us("service.proto.roundtrip_us", || {
            serde_json::to_string(&proto::handle_line(&svc, "{\"type\":\"status\"}"))
        });
        if !line.is_ok_and(|l| l.starts_with("{\"type\":\"status\"")) {
            return Err("status request did not get a status response".into());
        }
    }
    svc.shutdown();
    drop(svc);
    // Re-open the same directory: every job has a done marker to read back.
    let t0 = Instant::now();
    let (svc, report) = TuningService::open(&dir, cfg).map_err(|e| format!("re-open: {e}"))?;
    ledger.add(
        "service.service.open_recover_ms",
        t0.elapsed().as_secs_f64() * 1e3,
    );
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    if report.already_done != tenants.len() || report.adopted != 0 {
        return Err(format!(
            "recovery found {} finished and {} unfinished jobs, expected {} and 0",
            report.already_done,
            report.adopted,
            tenants.len()
        ));
    }
    Ok(())
}
