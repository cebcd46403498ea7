//! The output check of the real-execution workloads.
//!
//! During set-up a seeded sample of the configurations a workload is going to
//! evaluate is run on the reference interpreter and the outputs are kept.
//! After the timed rounds the same configurations are compiled and run on the
//! JIT device; every argument array must equal the interpreter's bit for bit,
//! and every output must agree with the mold's plain-Rust reference.

use crate::workloads::{mix, Sample, TuneSpec};
use tvm_autotune::configspace::Configuration;
use tvm_autotune::polybench::CodeMold;
use tvm_autotune::runtime::{interp, CpuDevice, Device, NDArray};
use tvm_autotune::tir::analyze;

/// Relative and absolute tolerance against the plain-Rust reference, which
/// sums in a different order than a tiled schedule does.
const REFERENCE_TOL: f64 = 1e-6;

pub struct OracleCase {
    pub sample: Sample,
    /// Argument arrays after the interpreter ran the instantiated function;
    /// `None` where only the plain-Rust reference is compared (the
    /// interpreter needs 4 to 9 s per `medium` kernel).
    expected: Option<Vec<NDArray>>,
    /// Interpreter time per element of the argument arrays.
    pub interp_ns_per_elem: Option<f64>,
}

impl OracleCase {
    /// A case checked against the plain-Rust reference only.
    fn reference_only(sample: Sample) -> OracleCase {
        OracleCase {
            sample,
            expected: None,
            interp_ns_per_elem: None,
        }
    }
}

/// The configurations `spec`'s tuner will propose, in order. Only valid for
/// the measurement-independent proposers (random, grid): a fresh tuner built
/// like the session's is asked for the same batches.
fn proposals(spec: &TuneSpec) -> Vec<Configuration> {
    let mold = spec.mold();
    let mut tuner = spec.tuner.build(mold.space().clone(), spec.seed);
    let mut out = Vec::with_capacity(spec.evals);
    while out.len() < spec.evals && tuner.has_next() {
        let batch = tuner.next_batch(spec.batch.min(spec.evals - out.len()));
        if batch.is_empty() {
            break;
        }
        out.extend(batch);
    }
    out
}

fn admitted(mold: &dyn CodeMold, config: &Configuration) -> bool {
    mold.prelint(config).is_empty() && !analyze::check(&mold.instantiate(config)).is_rejected()
}

/// Pick one admitted proposal of `spec`, starting from a seeded position.
fn pick_sample(spec: &TuneSpec, seed: u64) -> Option<Sample> {
    let mold = spec.mold();
    let proposals = proposals(spec);
    let n = proposals.len();
    let start = (mix(seed, spec.seed) % n.max(1) as u64) as usize;
    (0..n)
        .map(|i| &proposals[(start + i) % n])
        .find(|c| admitted(mold.as_ref(), c))
        .map(|config| Sample {
            kernel: spec.kernel,
            size: spec.size,
            mode: spec.mode,
            config: config.clone(),
        })
}

/// Run `sample` on the interpreter and keep its outputs.
fn interpret(sample: Sample) -> Result<OracleCase, String> {
    let mold = tvm_autotune::polybench::mold_for_mode(sample.kernel, sample.size, sample.mode);
    let func = mold.instantiate(&sample.config);
    let mut args = mold.init_args();
    let t0 = std::time::Instant::now();
    interp::execute(&func, &mut args).map_err(|e| {
        format!(
            "interpreter failed on {}-{}: {e}",
            sample.kernel, sample.size
        )
    })?;
    let ns = t0.elapsed().as_secs_f64() * 1e9;
    let elems: usize = args.iter().map(NDArray::numel).sum();
    Ok(OracleCase {
        sample,
        expected: Some(args),
        interp_ns_per_elem: Some(ns / elems as f64),
    })
}

/// One case per session of `specs`: a seeded pick among the configurations
/// the session will evaluate, run on the interpreter where `interpreted`
/// says so and left to the plain-Rust reference elsewhere. A session whose
/// every proposal is statically denied executes nothing and yields no case.
pub fn cases(
    specs: &[TuneSpec],
    seed: u64,
    interpreted: impl Fn(&TuneSpec) -> bool,
) -> (Vec<OracleCase>, Vec<String>) {
    let mut cases = Vec::new();
    let mut errors = Vec::new();
    for spec in specs {
        let Some(sample) = pick_sample(spec, seed) else {
            continue;
        };
        if interpreted(spec) {
            match interpret(sample) {
                Ok(case) => cases.push(case),
                Err(e) => errors.push(e),
            }
        } else {
            cases.push(OracleCase::reference_only(sample));
        }
    }
    if cases.is_empty() {
        errors.push("no evaluated configuration could be picked for the output check".into());
    }
    (cases, errors)
}

/// Check every case on the JIT device; returns what differed.
pub fn check_all(cases: &[OracleCase]) -> Vec<String> {
    cases.iter().filter_map(|c| check_on_jit(c).err()).collect()
}

fn bits(a: &NDArray) -> Vec<u64> {
    // f32 -> f64 is exact, so equal f64 bit patterns mean equal f32 ones.
    a.to_f64_vec().into_iter().map(f64::to_bits).collect()
}

/// Compile and run the case on a fresh JIT device and compare.
fn check_on_jit(case: &OracleCase) -> Result<(), String> {
    let s = &case.sample;
    let what = format!("{}-{} {} at {}", s.kernel, s.size, s.mode, s.config);
    let mold = tvm_autotune::polybench::mold_for_mode(s.kernel, s.size, s.mode);
    let func = mold.instantiate(&s.config);
    let device = CpuDevice::jit();
    let mut args = mold.init_args();
    match device.prepare(&func) {
        Some(prepared) => device.run_prepared(&prepared, &mut args),
        None => device.run(&func, &mut args),
    }
    .map_err(|e| format!("{what}: JIT device failed: {e}"))?;

    for (i, (got, want)) in args.iter().zip(case.expected.iter().flatten()).enumerate() {
        if got.shape() != want.shape() || bits(got) != bits(want) {
            return Err(format!(
                "{what}: argument {i} differs from the interpreter (max abs diff {:e})",
                got.max_abs_diff(want)
            ));
        }
    }
    for (i, reference) in mold.reference_args().iter().enumerate() {
        if let Some(reference) = reference {
            if !args[i].allclose(reference, REFERENCE_TOL, REFERENCE_TOL) {
                return Err(format!(
                    "{what}: output {i} differs from the plain-Rust reference (max abs diff {:e})",
                    args[i].max_abs_diff(reference)
                ));
            }
        }
    }
    Ok(())
}
