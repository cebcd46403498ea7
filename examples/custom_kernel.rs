//! Tune a *user-defined* kernel — the framework is generic over
//! [`tvm_autotune::autotvm::Evaluator`], not tied to the paper's three
//! benchmarks (one of the paper's future-work directions).
//!
//! The kernel is a 2-D 5-point Jacobi-style stencil written in the TE
//! DSL, with two tile factors and an unroll switch as tunables; the
//! evaluation really executes on the CPU interpreter.
//!
//! Run: `cargo run --release --example custom_kernel`

use std::time::Instant;
use tvm_autotune::autotvm::measure::FnEvaluator;
use tvm_autotune::prelude::*;
use tvm_autotune::te::ops::{cmp, float};
use tvm_autotune::te::select;

const N: usize = 96;

/// Build the stencil with the given schedule decisions.
fn build_stencil(tile_y: i64, tile_x: i64, unroll_inner: bool) -> Module {
    let a = placeholder([N, N], DType::F64, "A");
    let b = compute([N, N], "B", |idx| {
        let (i, j) = (idx[0].clone(), idx[1].clone());
        let interior = cmp::and(
            cmp::and(cmp::ge(i.clone(), 1i64), cmp::lt(i.clone(), (N - 1) as i64)),
            cmp::and(cmp::ge(j.clone(), 1i64), cmp::lt(j.clone(), (N - 1) as i64)),
        );
        let center = a.at(&[i.clone(), j.clone()]);
        let sum5 = a.at(&[i.clone() - 1, j.clone()])
            + a.at(&[i.clone() + 1, j.clone()])
            + a.at(&[i.clone(), j.clone() - 1])
            + a.at(&[i.clone(), j.clone() + 1])
            + center.clone();
        // 0.2 * 5-point average in the interior; copy on the boundary.
        select(interior, sum5 * float(0.2), center)
    });
    let mut s = Schedule::create(std::slice::from_ref(&b));
    let (y, x) = (b.axis(0), b.axis(1));
    let (yo, yi) = s.split(&b, &y, tile_y);
    let (xo, xi) = s.split(&b, &x, tile_x);
    s.reorder(&b, &[yo, xo, yi, xi.clone()]);
    if unroll_inner {
        s.unroll(&b, &xi);
    }
    Module::new(lower(&s, &[a, b], "jacobi5"))
}

fn main() {
    // Tunables: tile_y, tile_x over divisors of N, plus an unroll toggle.
    let divisors: Vec<i64> = (1..=N as i64).filter(|d| N as i64 % d == 0).collect();
    let mut cs = ConfigSpace::new();
    cs.add(Hyperparameter::ordinal_ints("tile_y", &divisors));
    cs.add(Hyperparameter::ordinal_ints("tile_x", &divisors));
    cs.add(Hyperparameter::categorical_strs("unroll", &["no", "yes"]));
    println!(
        "custom stencil kernel, space size {}",
        cs.size().expect("discrete")
    );

    let input = NDArray::random(&[N, N], DType::F64, 9, 0.0, 1.0);
    let tuning_input = input.clone();
    let evaluator = FnEvaluator::new(cs.clone(), move |cfg: &Configuration| {
        let unroll = cfg
            .get("unroll")
            .and_then(|v| v.as_str().map(|s| s == "yes"));
        let module = build_stencil(
            cfg.int("tile_y"),
            cfg.int("tile_x"),
            unroll.unwrap_or(false),
        );
        let t0 = Instant::now();
        let mut args = vec![tuning_input.clone(), NDArray::zeros(&[N, N], DType::F64)];
        match module.time(&mut args, 3) {
            Ok(t) => MeasureResult::ok(t, t0.elapsed().as_secs_f64()),
            Err(e) => MeasureResult::fail(e.to_string(), t0.elapsed().as_secs_f64()),
        }
    });

    let result = tune(
        &mut YtoptTuner::new(cs, 0),
        &evaluator,
        TuneOptions {
            max_evals: 25,
            batch: 1,
            max_process_s: None,
        },
    );
    let best = result.best().expect("ran");
    println!(
        "best schedule after {} evaluations: {} -> {:.3} ms per run",
        result.len(),
        best.config,
        best.runtime_s.expect("ok") * 1e3
    );

    // Sanity: result must equal the untiled reference.
    let module = build_stencil(best.config.int("tile_y"), best.config.int("tile_x"), false);
    let mut args = vec![input.clone(), NDArray::zeros(&[N, N], DType::F64)];
    module.run(&mut args).expect("run");
    let reference = build_stencil(1, 1, false);
    let mut ref_args = vec![input, NDArray::zeros(&[N, N], DType::F64)];
    reference.run(&mut ref_args).expect("run");
    assert!(
        args[1].allclose(&ref_args[1], 1e-5, 1e-6),
        "tuned schedule must not change results"
    );
    println!("verified: tuned schedule produces identical results");
}
