//! Ablation A3: analytical-model vs real-execution rank agreement
//! (DESIGN.md experiment index).
//!
//! At paper scale the kernels run on the analytical device; this ablation
//! checks that the model's *ranking* of configurations agrees with real
//! measured execution at mini size: it samples configurations of 3mm and
//! lu, measures each on the optimized VM (`CpuDevice::new()`: the function
//! is prepared once, then executed 3 times, each on fresh `init_args` so
//! lu never factors its own output; the fastest run counts), predicts each
//! with the cost model, and reports the Spearman rank correlation.
//!
//! Usage: `ablation_model_fidelity [n_configs] [seed]`

use gpu_sim::{GpuSpec, SimDevice};
use polybench::molds::mold_for;
use polybench::{KernelName, ProblemSize};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use surrogate::metrics::spearman;
use tvm_runtime::{CpuDevice, Device};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n_configs: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(12);
    let seed = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(7);

    println!("# Ablation A3: cost-model vs optimized-VM rank agreement (3mm & lu, mini)");
    for kernel in [KernelName::Mm3, KernelName::Lu] {
        let mold = mold_for(kernel, ProblemSize::Mini);
        let sim = SimDevice::new(GpuSpec::swing_cpu_core()).with_noise(0.0);
        let cpu = CpuDevice::new();
        let mut rng = SmallRng::seed_from_u64(seed);

        let mut measured = Vec::with_capacity(n_configs);
        let mut predicted = Vec::with_capacity(n_configs);
        println!("kernel={kernel}");
        println!(
            "{:<28} {:>14} {:>14}",
            "config", "measured (s)", "model (s)"
        );
        for _ in 0..n_configs {
            let cfg = mold.space().sample(&mut rng);
            let func = mold.instantiate(&cfg);
            let prepared = cpu.prepare(&func).expect("the optimized VM compiles it");
            // Fastest of 3 executions, each on fresh arrays, to damp host noise.
            let t = (0..3)
                .map(|_| cpu.run_prepared(&prepared, &mut mold.init_args()))
                .map(|r| r.expect("cpu run"))
                .fold(f64::INFINITY, f64::min);
            let p = sim.predict(&func);
            println!("{:<28} {:>14.6} {:>14.6}", cfg.to_string(), t, p);
            measured.push(t);
            predicted.push(p);
        }
        let rho = spearman(&measured, &predicted);
        println!("spearman(measured, model) = {rho:.3}\n");
    }
}
