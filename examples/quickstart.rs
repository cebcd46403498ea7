//! Quickstart: write a kernel in the TE DSL, schedule it, lower it, run
//! it on the CPU — then autotune a PolyBench kernel with the BO framework
//! on the simulated Swing device.
//!
//! Run: `cargo run --release --example quickstart`

use tvm_autotune::prelude::*;

fn main() {
    // ---- Part 1: the mini-TVM pipeline on a hand-written kernel ----
    let n = 64usize;
    let a = placeholder([n, n], DType::F64, "A");
    let b = placeholder([n, n], DType::F64, "B");
    let k = reduce_axis(0, n as i64, "k");
    let c = compute([n, n], "C", |i| {
        sum(
            a.at(&[i[0].clone(), k.var_expr()]) * b.at(&[k.var_expr(), i[1].clone()]),
            std::slice::from_ref(&k),
        )
    });

    // The paper's schedule pattern: split y/x by a tile factor, reorder.
    let mut s = Schedule::create(std::slice::from_ref(&c));
    let (y, x) = (c.axis(0), c.axis(1));
    let (yo, yi) = s.split(&c, &y, 8);
    let (xo, xi) = s.split(&c, &x, 8);
    s.reorder(&c, &[yo, xo, k.clone(), yi, xi]);

    let module = Module::new(lower(&s, &[a, b, c], "matmul_tiled"));
    println!("lowered function:\n{}", module.func());

    let mut args = module.alloc_args();
    args[0] = NDArray::random(&[n, n], DType::F64, 1, -1.0, 1.0);
    args[1] = NDArray::random(&[n, n], DType::F64, 2, -1.0, 1.0);
    let t = module.time(&mut args, 3).expect("cpu run");
    println!("matmul {n}x{n} on the CPU interpreter: {:.3} ms", t * 1e3);
    println!("C[0][0] = {:.6}\n", args[2].get(&[0, 0]));

    // ---- Part 2: autotune LU (large, N=2000) with Bayesian optimization
    // on the simulated Swing node, 40 evaluations ----
    let mold = mold_for(KernelName::Lu, ProblemSize::Large);
    println!(
        "tuning `{}` ({} configurations in the space) ...",
        mold.name(),
        mold.space().size().expect("discrete")
    );
    let device = SimDevice::new(GpuSpec::swing_cpu_core());
    let evaluator = MoldEvaluator::simulated(mold, device);
    let mut tuner = YtoptTuner::new(evaluator.space().clone(), 42);
    let result = tune(
        &mut tuner,
        &evaluator,
        TuneOptions {
            max_evals: 40,
            batch: 1,
            max_process_s: None,
        },
    );

    let best = result.best().expect("tuning ran");
    println!(
        "best after {} evaluations: tiles {} -> {:.4} s (simulated)",
        result.len(),
        best.config,
        best.runtime_s.expect("ok")
    );
    println!(
        "total autotuning process time: {:.1} s (simulated measurement + real search time)",
        result.total_process_s
    );
}
