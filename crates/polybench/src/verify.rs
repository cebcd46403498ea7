//! Numerical verification of mold configurations against the reference
//! implementations.

use crate::molds::CodeMold;
use configspace::Configuration;
use tvm_runtime::interp::execute;

/// Instantiate `mold` at `config`, execute on the CPU interpreter, and
/// compare every output against the reference implementation.
///
/// Returns `Err` with a human-readable reason on any mismatch — used by
/// this module's tests and the spot-check sampling in `tests/pipeline.rs`.
pub fn verify_config(mold: &dyn CodeMold, config: &Configuration, rtol: f64) -> Result<(), String> {
    let func = mold.instantiate(config);
    let mut args = mold.init_args();
    execute(&func, &mut args).map_err(|e| format!("execution failed: {e}"))?;
    let expects = mold.reference_args();
    assert_eq!(
        args.len(),
        expects.len(),
        "mold arg/reference length mismatch"
    );
    for (i, expect) in expects.iter().enumerate() {
        if let Some(e) = expect {
            if !args[i].allclose(e, rtol, rtol) {
                return Err(format!(
                    "output {} of `{}` at {} differs from reference (max abs diff {:.3e})",
                    i,
                    mold.name(),
                    config,
                    args[i].max_abs_diff(e)
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{KernelName, ProblemSize};
    use crate::molds::mold_for;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn all_paper_kernels_verify_at_baseline() {
        for k in KernelName::paper_kernels() {
            let mold = mold_for(k, ProblemSize::Mini);
            let cfg = mold.baseline_configuration();
            verify_config(mold.as_ref(), &cfg, 1e-9)
                .unwrap_or_else(|e| panic!("{k} baseline failed: {e}"));
        }
    }

    #[test]
    fn random_configs_verify() {
        let mut rng = SmallRng::seed_from_u64(42);
        for k in KernelName::paper_kernels() {
            let mold = mold_for(k, ProblemSize::Mini);
            for _ in 0..3 {
                let cfg = mold.space().sample(&mut rng);
                verify_config(mold.as_ref(), &cfg, 1e-9)
                    .unwrap_or_else(|e| panic!("{k} at random config failed: {e}"));
            }
        }
    }
}
