//! Integration: the full TE → schedule → lower → execute pipeline across
//! crates, including property-based schedule-equivalence tests.

use proptest::prelude::*;
use tvm_autotune::prelude::*;
use tvm_autotune::te;

fn matmul_graph(n: usize) -> (te::Tensor, te::Tensor, te::Tensor, te::IterVar) {
    let a = placeholder([n, n], DType::F64, "A");
    let b = placeholder([n, n], DType::F64, "B");
    let k = reduce_axis(0, n as i64, "k");
    let c = compute([n, n], "C", |i| {
        sum(
            a.at(&[i[0].clone(), k.var_expr()]) * b.at(&[k.var_expr(), i[1].clone()]),
            std::slice::from_ref(&k),
        )
    });
    (a, b, c, k)
}

fn run_matmul_with_tiles(n: usize, ty: i64, tx: i64, split_k: Option<i64>) -> NDArray {
    let (a, b, c, k) = matmul_graph(n);
    let mut s = Schedule::create(std::slice::from_ref(&c));
    let (y, x) = (c.axis(0), c.axis(1));
    let (yo, yi) = s.split(&c, &y, ty);
    let (xo, xi) = s.split(&c, &x, tx);
    match split_k {
        Some(kf) => {
            let (ko, ki) = s.split(&c, &k, kf);
            s.reorder(&c, &[yo, xo, ko, ki, yi, xi]);
        }
        None => s.reorder(&c, &[yo, xo, k.clone(), yi, xi]),
    }
    let m = Module::new(lower(&s, &[a, b, c], "mm"));
    let mut args = m.alloc_args();
    args[0] = NDArray::random(&[n, n], DType::F64, 11, -1.0, 1.0);
    args[1] = NDArray::random(&[n, n], DType::F64, 12, -1.0, 1.0);
    m.run(&mut args).expect("execute");
    args[2].clone()
}

#[test]
fn schedules_are_semantics_preserving() {
    let baseline = run_matmul_with_tiles(24, 1, 1, None);
    for (ty, tx, kf) in [
        (4, 6, None),
        (8, 8, Some(4)),
        (5, 7, Some(5)),
        (24, 24, Some(24)),
    ] {
        let tiled = run_matmul_with_tiles(24, ty, tx, kf);
        assert!(
            baseline.allclose(&tiled, 1e-4, 1e-5),
            "tiles ({ty},{tx},{kf:?}) changed results: diff {}",
            baseline.max_abs_diff(&tiled)
        );
    }
}

#[test]
fn fused_schedule_matches() {
    let n = 16;
    let (a, b, c, _) = matmul_graph(n);
    let mut s = Schedule::create(std::slice::from_ref(&c));
    let (y, x) = (c.axis(0), c.axis(1));
    let f = s.fuse(&c, &y, &x);
    let (_, _) = s.split(&c, &f, 8);
    let m = Module::new(lower(&s, &[a, b, c], "mm_fused"));
    let mut args = m.alloc_args();
    args[0] = NDArray::random(&[n, n], DType::F64, 11, -1.0, 1.0);
    args[1] = NDArray::random(&[n, n], DType::F64, 12, -1.0, 1.0);
    m.run(&mut args).expect("execute");
    let baseline = run_matmul_with_tiles(n, 1, 1, None);
    assert!(baseline.allclose(&args[2], 1e-4, 1e-5));
}

#[test]
fn unroll_and_vectorize_preserve_semantics() {
    let n = 16;
    let (a, b, c, k) = matmul_graph(n);
    let mut s = Schedule::create(std::slice::from_ref(&c));
    let (y, x) = (c.axis(0), c.axis(1));
    let (yo, yi) = s.split(&c, &y, 4);
    let (xo, xi) = s.split(&c, &x, 4);
    s.reorder(&c, &[yo.clone(), xo, k.clone(), yi.clone(), xi.clone()]);
    s.unroll(&c, &yi);
    s.vectorize(&c, &xi);
    s.parallel(&c, &yo);
    let m = Module::new(lower(&s, &[a, b, c], "mm_annotated"));
    let mut args = m.alloc_args();
    args[0] = NDArray::random(&[n, n], DType::F64, 11, -1.0, 1.0);
    args[1] = NDArray::random(&[n, n], DType::F64, 12, -1.0, 1.0);
    m.run(&mut args).expect("execute");
    let baseline = run_matmul_with_tiles(n, 1, 1, None);
    assert!(baseline.allclose(&args[2], 1e-4, 1e-5));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any (ty, tx, kf) in range leaves matmul results unchanged —
    /// including non-divisible factors that exercise boundary guards.
    #[test]
    fn prop_tiling_never_changes_matmul(ty in 1i64..20, tx in 1i64..20, kf in 1i64..20) {
        let baseline = run_matmul_with_tiles(12, 1, 1, None);
        let tiled = run_matmul_with_tiles(12, ty, tx, Some(kf));
        prop_assert!(baseline.allclose(&tiled, 1e-4, 1e-5));
    }

    /// The analytical device is a pure function of the lowered kernel.
    #[test]
    fn prop_sim_device_deterministic(ty in 1i64..32, tx in 1i64..32) {
        let (a, b, c, k) = matmul_graph(64);
        let mut s = Schedule::create(std::slice::from_ref(&c));
        let (y, x) = (c.axis(0), c.axis(1));
        let (yo, yi) = s.split(&c, &y, ty);
        let (xo, xi) = s.split(&c, &x, tx);
        s.reorder(&c, &[yo, xo, k.clone(), yi, xi]);
        let f = lower(&s, &[a, b, c], "mm");
        let dev = SimDevice::new(GpuSpec::a100());
        let t1 = dev.predict(&f);
        let t2 = dev.predict(&f);
        prop_assert!(t1 > 0.0 && t1.is_finite());
        prop_assert_eq!(t1, t2);
    }
}

#[test]
fn polybench_molds_verify_on_cpu() {
    // End-to-end: every paper kernel at mini size, a handful of sampled
    // configurations, executed and checked against references.
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(5);
    for kernel in KernelName::paper_kernels() {
        let mold = mold_for(kernel, ProblemSize::Mini);
        for _ in 0..2 {
            let cfg = mold.space().sample(&mut rng);
            tvm_autotune::polybench::verify::verify_config(mold.as_ref(), &cfg, 1e-9)
                .unwrap_or_else(|e| panic!("{kernel}: {e}"));
        }
    }
}
