//! Inspect the analytical device model: sweep tile sizes of a blocked
//! matmul across two simulated devices (A100, one EPYC core) and
//! print the modeled runtime landscape plus the cost breakdown of one
//! configuration.
//!
//! Run: `cargo run --release --example gpu_cost_model`

use tvm_autotune::prelude::*;
use tvm_autotune::sim::cost_model;
use tvm_autotune::tir::PrimFunc;

fn tiled_matmul(n: usize, ty: i64, tx: i64) -> PrimFunc {
    let a = placeholder([n, n], DType::F64, "A");
    let b = placeholder([n, n], DType::F64, "B");
    let k = reduce_axis(0, n as i64, "k");
    let c = compute([n, n], "C", |i| {
        sum(
            a.at(&[i[0].clone(), k.var_expr()]) * b.at(&[k.var_expr(), i[1].clone()]),
            std::slice::from_ref(&k),
        )
    });
    let mut s = Schedule::create(std::slice::from_ref(&c));
    let (y, x) = (c.axis(0), c.axis(1));
    let (yo, yi) = s.split(&c, &y, ty);
    let (xo, xi) = s.split(&c, &x, tx);
    s.reorder(&c, &[yo, xo, k.clone(), yi, xi]);
    lower(&s, &[a, b, c], "mm")
}

fn main() {
    let n = 2048usize;
    let tiles: [i64; 6] = [1, 8, 32, 128, 512, 2048];
    let devices = [GpuSpec::a100(), GpuSpec::swing_cpu_core()];

    for spec in &devices {
        println!("== {} ==", spec.name);
        print!("{:>8}", "ty\\tx");
        for &tx in &tiles {
            print!(" {tx:>9}");
        }
        println!();
        for &ty in &tiles {
            print!("{ty:>8}");
            for &tx in &tiles {
                let f = tiled_matmul(n, ty, tx);
                let t = cost_model(&f, spec).total();
                print!(" {:>8.2}ms", t * 1e3);
            }
            println!();
        }
        println!();
    }

    // Detailed breakdown of one configuration on the A100.
    let f = tiled_matmul(n, 32, 32);
    let cb = cost_model(&f, &GpuSpec::a100());
    println!("breakdown of 32x32 tiles on A100 (per lowered statement):");
    for (i, s) in cb.stmts.iter().enumerate() {
        println!(
            "  stmt {i}: compute {:.3} ms, L2 {:.3} ms, DRAM {:.3} ms, overhead {:.3} ms \
             ({} blocks x {} threads, {} launches)",
            s.compute_s * 1e3,
            s.l2_s * 1e3,
            s.dram_s * 1e3,
            s.overhead_s * 1e3,
            s.blocks,
            s.threads_per_block,
            s.launches
        );
    }
    println!("total: {:.3} ms", cb.total() * 1e3);
}
