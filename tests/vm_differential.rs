//! Differential testing: the compiled VMs against the interpreter oracle.
//!
//! Every PolyBench kernel, under randomly sampled configurations, must
//! produce bit-identical outputs on four engines — the reference
//! interpreter, the scalar bytecode VM, the pass-pipeline-optimized VM
//! (strided/vectorized loops, fused multiply-add, microkernels), and the
//! native JIT (x86-64 machine code emitted from the optimized bytecode) —
//! and must fail identically (same `ExecError`) on malformed argument
//! lists (arity, shape, dtype). On targets without native codegen the
//! JIT backend declines every function and the fourth engine degenerates
//! to the optimized VM, which keeps this suite green off x86-64.

use polybench::molds::mold_for;
use polybench::{KernelName, ProblemSize};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use tvm_runtime::interp::ExecError;
use tvm_runtime::{
    compile, compile_optimized, default_backend, interp, scalar_backend, vm, CodegenBackend,
    CompiledFunc, Device, NDArray,
};
use tvm_te::{placeholder, CmpOp, DType, PrimExpr, Var};
use tvm_tir::builder::{for_kind, if_else, seq, ser, store, when, FuncBuilder};
use tvm_tir::{ForKind, PrimFunc, Stmt};

const KERNELS: [KernelName; 7] = [
    KernelName::Mm3,
    KernelName::Lu,
    KernelName::Cholesky,
    KernelName::Gemm,
    KernelName::Mm2,
    KernelName::Syrk,
    KernelName::Trmm,
];

/// The JIT rung's tiers, each compiled and run by every check below:
/// packed (AVX or SSE2, as the host allows) and fully scalar.
fn jit_tiers() -> [(&'static str, Arc<dyn CodegenBackend>); 2] {
    [
        ("packed JIT", default_backend()),
        ("scalar JIT", scalar_backend()),
    ]
}

/// `func` compiled for every bytecode engine: the scalar VM, the
/// optimized VM and the JIT once per tier. The JIT rungs mirror the
/// device's fallback contract: when the backend declines, the optimized
/// bytecode runs unchanged.
fn compiled_engines(func: &PrimFunc, context: &str) -> [(&'static str, CompiledFunc); 4] {
    let cf = compile(func)
        .unwrap_or_else(|e| panic!("{context}: PolyBench kernels must compile, got {e}"));
    let cf_opt = compile_optimized(func)
        .unwrap_or_else(|e| panic!("{context}: optimized pipeline must compile, got {e}"));
    let [packed, scalar] = jit_tiers().map(|(tier, backend)| {
        let cf_jit = backend
            .jit_compile(&cf_opt)
            .unwrap_or_else(|_| cf_opt.clone());
        (tier, cf_jit)
    });
    [("scalar VM", cf), ("optimized VM", cf_opt), packed, scalar]
}

/// Run `func` on all four engines — the JIT once per tier — from
/// identical argument snapshots; the results (including any error) and
/// every output array must match bit for bit.
fn assert_engines_agree(func: &PrimFunc, args: &[NDArray], context: &str) {
    let mut via_interp = args.to_vec();
    let r_interp = interp::execute(func, &mut via_interp);
    for (engine, compiled) in compiled_engines(func, context) {
        let mut via = args.to_vec();
        let r = vm::execute(&compiled, &mut via);
        assert_eq!(
            r_interp, r,
            "{context}: {engine} result/error class diverged"
        );
        for (i, (a, b)) in via_interp.iter().zip(&via).enumerate() {
            assert_eq!(a, b, "{context}: arg {i} diverged on the {engine}");
        }
    }
}

/// A generated triangular nest — the shape loop trimming rewrites, and
/// its near misses: `for i, j { for k in kmin..kmin+K { if k ⋄ a·i + b·j
/// + c { body } } }` with a random comparison, operand order and
/// coefficients (live ranges that come out empty, full and partial),
/// extents down to 1, f32 or f64, a reduction into `A[i,j]` or an
/// elementwise write of `C[i,j,k]`, optionally a second statement after
/// the guarded one or an `else` (neither may be trimmed, both must still
/// agree), any loop kind on `k`, and optionally a `Parallel` outer loop.
fn triangular_nest(rng: &mut SmallRng) -> (PrimFunc, Vec<NDArray>, String) {
    let dtype = if rng.gen_bool(0.5) {
        DType::F32
    } else {
        DType::F64
    };
    let (ei, ej) = (rng.gen_range(1..=4usize), rng.gen_range(1..=4usize));
    let kext = [1usize, 2, 3, 5, 8][rng.gen_range(0..5usize)];
    let kmin: i64 = [-2, 0, 0, 3][rng.gen_range(0..4usize)];
    // Weighted towards what trimming accepts; `==`/`!=`, an `else`, a
    // second statement and a (provably race-free) parallel `k` are the
    // near misses that must come through untrimmed and unchanged.
    const OPS: [CmpOp; 10] = [
        CmpOp::Lt,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Ge,
        CmpOp::Eq,
        CmpOp::Ne,
    ];
    const K_KINDS: [ForKind; 6] = [
        ForKind::Serial,
        ForKind::Serial,
        ForKind::Serial,
        ForKind::Serial,
        ForKind::Parallel,
        ForKind::Vectorized,
    ];
    let op = OPS[rng.gen_range(0..OPS.len())];
    let var_left = rng.gen_bool(0.5);
    let (ca, cb) = (rng.gen_range(-1..=2i64), rng.gen_range(-1..=2i64));
    let cc = rng.gen_range(kmin - 2..=kmin + kext as i64 + 1);
    let reduction = rng.gen_bool(0.5);
    let second_stmt = rng.gen_bool(0.15);
    let with_else = rng.gen_bool(0.15);
    let k_kind = K_KINDS[rng.gen_range(0..K_KINDS.len())];
    let outer_kind = if rng.gen_bool(0.3) {
        ForKind::Parallel
    } else {
        ForKind::Serial
    };
    let context = format!(
        "{dtype:?} {ei}x{ej}x{kext} kmin {kmin} {op:?} var_left {var_left} bound {ca}i+{cb}j+{cc} \
         reduction {reduction} second {second_stmt} else {with_else} k {k_kind:?} outer {outer_kind:?}"
    );

    let a = placeholder([ei, ej], dtype, "A");
    let x = placeholder([kext], dtype, "X");
    let b = placeholder([kext, ej], dtype, "B");
    let c = placeholder([ei, ej, kext], dtype, "C");
    let mut fb = FuncBuilder::new("tri");
    let ab = fb.param(&a);
    let _xb = fb.param(&x);
    let _bb = fb.param(&b);
    let cb_buf = fb.param(&c);

    let body = for_kind("i", ei as i64, outer_kind, |i| {
        ser("j", ej as i64, |j| {
            let k = Var::index("k");
            let ke = k.expr();
            let k0 = ke.clone() - kmin; // buffer index of iteration `k`
            let bound = i.clone() * ca + j.clone() * cb + cc;
            let guard = if var_left {
                PrimExpr::cmp(op, ke, bound)
            } else {
                PrimExpr::cmp(op, bound, ke)
            };
            let kx = [k0.clone()];
            let cell = [i.clone(), j.clone()];
            let out = [i.clone(), j.clone(), k0.clone()];
            let guarded = if reduction {
                store(
                    &ab,
                    &cell,
                    a.at(&cell) - x.at(&kx) * b.at(&[k0.clone(), j.clone()]),
                )
            } else {
                store(&cb_buf, &out, x.at(&kx) + b.at(&[k0.clone(), j.clone()]))
            };
            let other = store(&cb_buf, &out, c.at(&out) * x.at(&kx));
            let mut stmt = if with_else {
                if_else(guard, guarded, other.clone())
            } else {
                when(guard, guarded)
            };
            if second_stmt {
                stmt = seq([stmt, other]);
            }
            Stmt::For {
                var: k,
                min: kmin,
                extent: kext as i64,
                kind: k_kind,
                body: Box::new(stmt),
            }
        })
    });
    let func = fb.build(body);
    let args = vec![
        NDArray::random(&[ei, ej], dtype, 1, -1.0, 1.0),
        NDArray::random(&[kext], dtype, 2, -1.0, 1.0),
        NDArray::random(&[kext, ej], dtype, 3, -1.0, 1.0),
        NDArray::random(&[ei, ej, kext], dtype, 4, -1.0, 1.0),
    ];
    (func, args, context)
}

/// A generated reduction nest — the shape accumulator forwarding
/// rewrites, and its near misses: `for i, j { for k { [if k ⋄ a·i + b·j +
/// c] D[i,j] = D[i,j] ± [α·] x · y } }` with the reduction innermost and
/// the destination's address fixed in `k`. The factors come from two other
/// arrays or from `D` itself (`D[i,k]` and `D[k,j]`, lu's in-place update:
/// each equals the accumulator's element on one iteration); the arithmetic
/// is f64, f32 rounded after every operation, or f32 data with an f64
/// factor (nothing rounds before the store narrows: must not forward);
/// one or two multiplies; a static range or a guard trimmed to a live
/// range that may be empty; optionally a second store into `D` that hits
/// the accumulator's element on one iteration (must not forward) and
/// optionally a store that goes out of bounds at `k0 = 5`, after the
/// reduction's store of that iteration. Returns whether `D` is stored to
/// twice.
fn reduction_nest(rng: &mut SmallRng) -> (PrimFunc, Vec<NDArray>, String, bool) {
    const N: usize = 6;
    const OPS: [CmpOp; 4] = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
    const K_KINDS: [ForKind; 5] = [
        ForKind::Serial,
        ForKind::Serial,
        ForKind::Serial,
        ForKind::Parallel,
        ForKind::Vectorized,
    ];
    // 0: f64, 1: f32 rounded per operation, 2: f32 data, f64 arithmetic.
    let mode = rng.gen_range(0..3usize);
    let dtype = if mode == 0 { DType::F64 } else { DType::F32 };
    let in_place = rng.gen_bool(0.5);
    let subtract = rng.gen_bool(0.5);
    let two_mul = mode == 2 || rng.gen_bool(0.4);
    let kext = [1usize, 3, 6][rng.gen_range(0..3usize)];
    let kmin: i64 = [-2, 0, 0, 3][rng.gen_range(0..4usize)];
    let guard = rng.gen_bool(0.6).then(|| {
        let op = OPS[rng.gen_range(0..OPS.len())];
        let (ca, cb) = (rng.gen_range(-1..=1i64), rng.gen_range(-1..=1i64));
        (op, ca, cb, rng.gen_range(kmin - 2..=kmin + kext as i64 + 1))
    });
    let second_store = rng.gen_bool(0.15);
    let fallible = rng.gen_bool(0.2);
    let k_kind = K_KINDS[rng.gen_range(0..K_KINDS.len())];
    let context = format!(
        "mode {mode} in_place {in_place} subtract {subtract} two_mul {two_mul} k {kmin}+{kext} \
         {k_kind:?} guard {guard:?} second {second_store} fallible {fallible}"
    );

    let d = placeholder([N, N], dtype, "D");
    let x = placeholder([N, N], dtype, "X");
    let y = placeholder([N, N], dtype, "Y");
    let e = placeholder([5], dtype, "E");
    let mut fb = FuncBuilder::new("red");
    let db = fb.param(&d);
    let _xb = fb.param(&x);
    let _yb = fb.param(&y);
    let eb = fb.param(&e);
    // An f64 α makes the whole right-hand side f64 (mode 2).
    let alpha_dtype = if mode == 2 { DType::F64 } else { dtype };
    let alpha = PrimExpr::FloatImm(0.3, alpha_dtype);

    let body = ser("i", N as i64, |i| {
        ser("j", N as i64, |j| {
            let k = Var::index("k");
            let ke = k.expr();
            let k0 = ke.clone() - kmin; // buffer index of iteration `k`
            let cell = [i.clone(), j.clone()];
            let (fx, fy) = if in_place {
                (
                    d.at(&[i.clone(), k0.clone()]),
                    d.at(&[k0.clone(), j.clone()]),
                )
            } else {
                (
                    x.at(&[i.clone(), k0.clone()]),
                    y.at(&[k0.clone(), j.clone()]),
                )
            };
            let product = if two_mul {
                alpha.clone() * fx * fy
            } else {
                fx * fy
            };
            let sum = if subtract {
                d.at(&cell) - product
            } else {
                d.at(&cell) + product
            };
            let mut stmts = vec![store(&db, &cell, sum)];
            if second_store {
                // Hits the accumulator's own element when `k0 == j`.
                let row = [i.clone(), k0.clone()];
                stmts.push(store(&db, &row, x.at(&[k0.clone(), j.clone()])));
            }
            if fallible {
                stmts.push(store(
                    &eb,
                    std::slice::from_ref(&k0),
                    y.at(&[k0.clone(), i.clone()]),
                ));
            }
            let mut stmt = seq(stmts);
            if let Some((op, ca, cb, cc)) = guard {
                let bound = i.clone() * ca + j.clone() * cb + cc;
                stmt = when(PrimExpr::cmp(op, ke, bound), stmt);
            }
            Stmt::For {
                var: k,
                min: kmin,
                extent: kext as i64,
                kind: k_kind,
                body: Box::new(stmt),
            }
        })
    });
    let func = fb.build(body);
    // Small enough that the in-place recurrence `d ± 6·d²` contracts:
    // no cell overflows into a NaN that would compare unequal to itself.
    let args = vec![
        NDArray::random(&[N, N], dtype, 11, -0.03, 0.03),
        NDArray::random(&[N, N], dtype, 12, -0.03, 0.03),
        NDArray::random(&[N, N], dtype, 13, -0.03, 0.03),
        NDArray::random(&[5], dtype, 14, -0.03, 0.03),
    ];
    (func, args, context, second_store)
}

/// A generated nest with control flow the native backend compiles —
/// conditionals and trimmed plain loops — and its near misses. Over
/// `for i (serial or parallel), j` one of:
///
/// 0. `if c(i,j) { for k { D[i,j] += X[i,k]·Y[k,j] } }`, and
/// 1. the same with `else { for k { D[i,j] −= … } }`: a conditional around
///    the forwarded reduction, `c` any of the six integer compares over
///    `i`, `j` and constants, the `And`, `Or` or `Not` of two, or — to be
///    refused — a float compare of `X[i,j]`;
/// 2. `for j { if j ⋄ i + c { for k { D[i,j] += X[i,k]·X[j,k] } } }`:
///    the guard is on the `j` loop's own variable, so `j` is trimmed
///    around a strided inner loop (syrk's untiled shape);
/// 3. a split tail, `for xo, xi { if xo·t + xi < T { for k { V[xo·t+xi] +=
///    … } } }` over 10 elements in tiles of `t`: `T ≤ 10` never leaves the
///    array — the guard is what proves the accesses — and `T > 10` does,
///    under a guard that is true: the same `ExecError` on every rung;
/// 4. a store into a 5-element array at `j + off` under `c(i,j)` ahead of
///    the reduction: out of bounds under a guard that may never hold
///    (then it must not fire) or does (then every rung fails alike);
/// 5. the reduction under `c(i,j)` and that store in the `else`: one arm
///    the native backend compiles, one it must refuse the conditional for.
fn control_flow_nest(rng: &mut SmallRng) -> (PrimFunc, Vec<NDArray>, String) {
    const N: usize = 6;
    const OPS: [CmpOp; 6] = [
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Eq,
        CmpOp::Ne,
    ];
    let dtype = if rng.gen_bool(0.5) {
        DType::F64
    } else {
        DType::F32
    };
    let shape = rng.gen_range(0..6usize);
    let outer_kind = if rng.gen_bool(0.4) {
        ForKind::Parallel
    } else {
        ForKind::Serial
    };
    let kext = [1i64, 3, 6][rng.gen_range(0..3usize)];
    let tail = rng.gen_range(8..=12i64);
    let off = rng.gen_range(-1..=3i64);
    let d = placeholder([N, N], dtype, "D");
    let x = placeholder([N, N], dtype, "X");
    let y = placeholder([N, N], dtype, "Y");
    let e = placeholder([5], dtype, "E");
    let v = placeholder([10], dtype, "V");
    let spec = std::cell::RefCell::new(Vec::new());
    let compare = |rng: &mut SmallRng, i: &PrimExpr, j: &PrimExpr| {
        let op = OPS[rng.gen_range(0..OPS.len())];
        let (which, c) = (rng.gen_range(0..4usize), rng.gen_range(-1..=6i64));
        spec.borrow_mut().push(format!("{op:?}/{which}/{c}"));
        let (lhs, rhs) = match which {
            0 => (i.clone(), j.clone() + c - 2i64),
            1 => (j.clone(), i.clone() * 2i64 - c),
            2 => (i.clone() + j.clone(), PrimExpr::IntImm(c + 2, DType::I64)),
            _ => (i.clone(), PrimExpr::IntImm(c, DType::I64)),
        };
        PrimExpr::cmp(op, lhs, rhs)
    };
    let logic = rng.gen_range(0..6usize);
    let condition = |rng: &mut SmallRng, i: &PrimExpr, j: &PrimExpr| match logic {
        0 | 1 => compare(rng, i, j),
        2 => PrimExpr::And(Arc::new(compare(rng, i, j)), Arc::new(compare(rng, i, j))),
        3 => PrimExpr::Or(Arc::new(compare(rng, i, j)), Arc::new(compare(rng, i, j))),
        4 => PrimExpr::Not(Arc::new(compare(rng, i, j))),
        // A float compare: the native backend refuses it by name.
        _ => PrimExpr::cmp(
            OPS[rng.gen_range(0..OPS.len())],
            x.at(&[i.clone(), j.clone()]),
            PrimExpr::FloatImm(0.1, dtype),
        ),
    };

    let mut fb = FuncBuilder::new("flow");
    let db = fb.param(&d);
    let _xb = fb.param(&x);
    let _yb = fb.param(&y);
    let eb = fb.param(&e);
    let vb = fb.param(&v);

    let reduce = |i: &PrimExpr, j: &PrimExpr, transposed: bool, subtract: bool| {
        let cell = [i.clone(), j.clone()];
        ser("k", kext, |k| {
            let rhs = if transposed {
                x.at(&[j.clone(), k.clone()])
            } else {
                y.at(&[k.clone(), j.clone()])
            };
            let product = x.at(&[i.clone(), k]) * rhs;
            let sum = if subtract {
                d.at(&cell) - product
            } else {
                d.at(&cell) + product
            };
            store(&db, &cell, sum)
        })
    };
    let body = if shape == 3 {
        // Tiles of 2–5 over ten elements, sometimes one tile too many.
        let tile = rng.gen_range(2..=5i64);
        let tiles = (10 + tile - 1) / tile + rng.gen_range(0..=1i64);
        let form = rng.gen_range(0..3usize);
        spec.borrow_mut()
            .push(format!("tile {tile} x {tiles} form {form}"));
        for_kind("xo", tiles, outer_kind, |xo| {
            ser("xi", tile, |xi| {
                let at = [xo * tile + xi];
                let bound = PrimExpr::IntImm(tail, DType::I64);
                let guard = match form {
                    0 => PrimExpr::cmp(CmpOp::Lt, at[0].clone(), bound),
                    1 => PrimExpr::cmp(CmpOp::Gt, bound, at[0].clone()),
                    _ => PrimExpr::cmp(CmpOp::Le, at[0].clone(), bound - 1i64),
                };
                let sum = ser("k", kext, |k| {
                    let kk = [k.clone(), k];
                    store(&vb, &at, v.at(&at) + x.at(&kk) * y.at(&kk))
                });
                when(guard, sum)
            })
        })
    } else {
        for_kind("i", N as i64, outer_kind, |i| {
            ser("j", N as i64, |j| match shape {
                0 => when(condition(rng, &i, &j), reduce(&i, &j, false, false)),
                1 => if_else(
                    condition(rng, &i, &j),
                    reduce(&i, &j, false, false),
                    reduce(&i, &j, false, true),
                ),
                2 => {
                    let op = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][rng.gen_range(0..4usize)];
                    spec.borrow_mut().push(format!("{op:?}"));
                    let guard = PrimExpr::cmp(op, j.clone(), i.clone() + off);
                    when(guard, reduce(&i, &j, true, false))
                }
                4 => seq([
                    when(
                        condition(rng, &i, &j),
                        store(&eb, &[j.clone() + off], x.at(&[i.clone(), j.clone()])),
                    ),
                    reduce(&i, &j, false, false),
                ]),
                _ => if_else(
                    condition(rng, &i, &j),
                    reduce(&i, &j, false, false),
                    store(&eb, &[j.clone() + off], x.at(&[i.clone(), j.clone()])),
                ),
            })
        })
    };
    let context = format!(
        "{dtype:?} shape {shape} outer {outer_kind:?} k {kext} tail {tail} off {off} logic {logic} {:?}",
        spec.borrow()
    );
    let func = fb.build(body);
    let args = vec![
        NDArray::random(&[N, N], dtype, 21, -0.5, 0.5),
        NDArray::random(&[N, N], dtype, 22, -0.5, 0.5),
        NDArray::random(&[N, N], dtype, 23, -0.5, 0.5),
        NDArray::random(&[5], dtype, 24, -0.5, 0.5),
        NDArray::random(&[10], dtype, 25, -0.5, 0.5),
    ];
    (func, args, context)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn generated_reduction_nests_match_on_all_four_engines(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..32 {
            let (func, args, context, second_store) = reduction_nest(&mut rng);
            assert_engines_agree(&func, &args, &context);
            // Two stores into the destination's slot: the second may hit
            // the accumulator's element, so nothing is forwarded.
            let forwarded = compile_optimized(&func)
                .expect("optimized compile")
                .forwarded_loop_count();
            prop_assert!(!second_store || forwarded == 0, "{}: forwarded {}", context, forwarded);
            prop_assert_eq!(compile(&func).expect("compile").forwarded_loop_count(), 0);
        }
        // The same reductions under control flow, at every thread budget
        // (a third of the nests open with a parallel loop).
        let _guard = thread_budget_lock();
        for threads in [1usize, 2, 4, 7] {
            tvm_runtime::pool::set_num_threads(threads);
            for _ in 0..12 {
                let (func, args, context) = control_flow_nest(&mut rng);
                assert_engines_agree(&func, &args, &format!("{context} @ {threads} threads"));
            }
        }
        tvm_runtime::pool::set_num_threads(1);
    }

    #[test]
    fn generated_triangular_nests_match_on_all_four_engines(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..32 {
            let (func, args, context) = triangular_nest(&mut rng);
            assert_engines_agree(&func, &args, &context);
        }
    }

    #[test]
    fn every_kernel_matches_under_random_configs(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for kernel in KERNELS {
            let mold = mold_for(kernel, ProblemSize::Mini);
            let config = mold.space().sample(&mut rng);
            let func = mold.instantiate(&config);
            let args = mold.init_args();
            assert_engines_agree(&func, &args, &format!("{} / {config}", mold.name()));
        }
    }
}

#[test]
fn error_classification_matches_on_malformed_args() {
    for kernel in KERNELS {
        let mold = mold_for(kernel, ProblemSize::Mini);
        let config = mold.space().default_configuration();
        let func = mold.instantiate(&config);
        let good = mold.init_args();
        let name = mold.name();

        // Arity: one argument short.
        let short = &good[..good.len() - 1];
        assert_engines_agree(&func, short, &format!("{name} arity"));

        // Shape: first argument replaced by a 1×1 array of the right dtype.
        let mut bad_shape = good.clone();
        bad_shape[0] = NDArray::zeros(&[1, 1], good[0].dtype());
        assert_engines_agree(&func, &bad_shape, &format!("{name} shape"));

        // Dtype: first argument flipped F32 <-> F64 at the same shape.
        let mut bad_dtype = good.clone();
        let flipped = if good[0].dtype() == DType::F32 {
            DType::F64
        } else {
            DType::F32
        };
        bad_dtype[0] = NDArray::zeros(good[0].shape(), flipped);
        assert_engines_agree(&func, &bad_dtype, &format!("{name} dtype"));
    }
}

#[test]
fn trimming_is_not_vacuous_and_errors_inside_the_live_range_match() {
    // for j in 0..8 { for k in 0..8 { if k < j { <store> } } }: the
    // guard becomes the loop's live range on the optimized engines.
    type Guarded<'a> = &'a dyn Fn(&std::sync::Arc<tvm_tir::Buffer>, PrimExpr, PrimExpr) -> Stmt;
    let a = placeholder([8], DType::F64, "A");
    let x = placeholder([8], DType::F64, "X");
    let args = vec![
        NDArray::random(&[8], DType::F64, 5, -1.0, 1.0),
        NDArray::random(&[8], DType::F64, 6, -1.0, 1.0),
    ];
    let build = |guarded: Guarded| {
        let mut fb = FuncBuilder::new("guarded");
        let ab = fb.param(&a);
        let _xb = fb.param(&x);
        fb.build(ser("j", 8, |j| {
            ser("k", 8, |k| {
                when(
                    PrimExpr::cmp(CmpOp::Lt, k.clone(), j.clone()),
                    guarded(&ab, j, k),
                )
            })
        }))
    };
    // In bounds: trimmed, and (on x86-64) the trimmed loop reaches the JIT.
    let ok = build(&|ab, j, k| {
        let (jx, kx) = ([j], [k]);
        store(ab, &jx, a.at(&jx) - x.at(&kx) * x.at(&kx))
    });
    let cf = compile_optimized(&ok).expect("optimized compile");
    assert_eq!(cf.trimmed_loop_count(), 1, "the k loop must be trimmed");
    assert_eq!(
        compile(&ok).expect("compile").trimmed_loop_count(),
        0,
        "scalar rung untouched"
    );
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    for (tier, backend) in jit_tiers() {
        let jitted = backend.jit_compile(&cf).expect("trimmed loop must jit");
        assert!(jitted.jit_nest_count() > 0, "{tier}");
        let simd = jitted.jit_simd_report().expect("jitted");
        assert_eq!(
            simd.scalar_reasons.get("dynamic-extent"),
            Some(&1),
            "{tier}"
        );
    }
    assert_engines_agree(&ok, &args, "in-bounds guarded reduction");
    // Out of bounds inside the live range — a store at k = 5 (first
    // live at j = 6), and a read likewise: the same `ExecError` from the
    // same iteration on every engine, arguments untouched.
    let bad_store = build(&|ab, _, k| store(ab, &[k.clone() + 3i64], x.at(&[k])));
    let bad_read = build(&|ab, _, k| {
        let at = [k.clone()];
        store(ab, &at, x.at(&[k + 3i64]))
    });
    for (func, what) in [(&bad_store, "store"), (&bad_read, "read")] {
        assert!(
            compile_optimized(func)
                .expect("compile")
                .trimmed_loop_count()
                > 0,
            "{what}"
        );
        let mut run = args.clone();
        let err = interp::execute(func, &mut run).expect_err("index 8 of 8");
        assert!(
            matches!(&err, ExecError::OutOfBounds { indices, .. } if indices == &[8]),
            "{what}: {err:?}"
        );
        assert_engines_agree(
            func,
            &args,
            &format!("out-of-bounds {what} in the live range"),
        );
    }
}

#[test]
fn forwarding_is_not_vacuous_on_the_reduction_kernels() {
    // What fails, by count, when a refactor silently un-forwards a mold:
    // syrk, lu, cholesky and trmm keep their reduction's accumulator in a
    // register on the optimized and JIT rungs (never on the scalar rung),
    // and gemm's untiled reduction is a microkernel the JIT runs as one
    // register chain.
    for kernel in KERNELS {
        let mold = mold_for(kernel, ProblemSize::Mini);
        let func = mold.instantiate(&mold.space().default_configuration());
        let scalar = compile(&func).expect("compile");
        assert_eq!(scalar.forwarded_loop_count(), 0, "{}", mold.name());
        let cf = compile_optimized(&func).expect("optimized compile");
        let forwards = matches!(
            kernel,
            KernelName::Syrk | KernelName::Lu | KernelName::Cholesky | KernelName::Trmm
        );
        if forwards {
            assert!(
                cf.forwarded_loop_count() >= 1,
                "{}: the reduction reloads its accumulator every iteration",
                mold.name()
            );
        }
        if kernel == KernelName::Gemm {
            assert!(cf.microkernel_count() >= 1, "gemm {{1,1}} is a microkernel");
        }
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        for (tier, backend) in jit_tiers() {
            let jitted = backend.jit_compile(&cf).expect("must jit on x86-64");
            if forwards {
                assert!(
                    jitted.forwarded_loop_count() >= 1,
                    "{} on the {tier}: no forwarded loop reached native code",
                    mold.name()
                );
            }
            if kernel == KernelName::Gemm {
                let simd = jitted.jit_simd_report().expect("jitted");
                assert!(
                    simd.scalar_reasons.get("reduction-chain").copied() >= Some(1),
                    "gemm on the {tier}: {simd:?}"
                );
            }
        }
    }
}

#[test]
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn control_flow_is_not_vacuous_on_the_generated_nests_or_the_triangular_kernels() {
    // What the generated control-flow nests are for: conditionals and
    // trimmed plain loops that end up *inside* native code, and guarded
    // stores that do go out of bounds. Counted over the `f64` nests: the
    // JIT refuses an `f32` one whole, and the optimized VM runs it.
    let mut rng = SmallRng::seed_from_u64(0xc0de);
    let (mut ifs_jitted, mut trimmed_jitted, mut failed) = (0, 0, 0);
    for _ in 0..400 {
        let (func, args, _) = control_flow_nest(&mut rng);
        if args[0].dtype() != DType::F64 {
            continue;
        }
        let cf = compile_optimized(&func).expect("optimized compile");
        if let Ok(jitted) = default_backend().jit_compile(&cf) {
            ifs_jitted += (jitted.conditional_count() < cf.conditional_count()) as u32;
            trimmed_jitted += (jitted.trimmed_loop_count() < cf.trimmed_loop_count()) as u32;
        }
        failed += interp::execute(&func, &mut args.clone()).is_err() as u32;
    }
    assert!(
        ifs_jitted > 40 && trimmed_jitted > 15 && failed > 10,
        "{ifs_jitted} {trimmed_jitted} {failed}"
    );
    // lu's, cholesky's and syrk's `(i, j)` cells are native from the cell
    // loop down: no conditional and no trimmed loop is left for the
    // bytecode dispatcher, at the default configuration and at `{1, 2}`.
    for kernel in [KernelName::Lu, KernelName::Cholesky, KernelName::Syrk] {
        let mold = mold_for(kernel, ProblemSize::Mini);
        let names: Vec<String> = mold
            .space()
            .params()
            .iter()
            .map(|p| p.name().to_string())
            .collect();
        assert_eq!(names.len(), 2, "{}", mold.name());
        let values = [1, 2].map(configspace::ParamValue::Int).to_vec();
        let one_two = configspace::Configuration::new(names, values);
        assert!(mold.space().validate(&one_two));
        for config in [mold.space().default_configuration(), one_two] {
            let cf = compile_optimized(&mold.instantiate(&config)).expect("optimized compile");
            assert!(
                cf.conditional_count() + cf.trimmed_loop_count() > 0,
                "{} / {config}: no control flow to compile",
                mold.name()
            );
            for (tier, backend) in jit_tiers() {
                let jitted = backend.jit_compile(&cf).expect("must jit on x86-64");
                assert_eq!(
                    (jitted.conditional_count(), jitted.trimmed_loop_count()),
                    (0, 0),
                    "{} / {config} on the {tier}: conditionals, trimmed loops left in bytecode",
                    mold.name()
                );
            }
        }
    }
    // And no function of the seven paper spaces falls back whole for a
    // reason the backend no longer has.
    let device = tvm_runtime::CpuDevice::jit();
    let mut rng = SmallRng::seed_from_u64(0x5eed);
    for kernel in KERNELS {
        let mold = mold_for(kernel, ProblemSize::Mini);
        for _ in 0..24 {
            let config = mold.space().sample(&mut rng);
            device.prepare(&mold.instantiate(&config));
        }
    }
    let stats = device.jit_stats().expect("a JIT device keeps counters");
    assert!(stats.functions_jitted > 100, "{stats:?}");
    for (reason, _) in &stats.fallback_reasons {
        let gone = reason.contains("conditional") || reason.contains("outside strided form");
        assert!(!gone, "{stats:?}");
    }
}

#[test]
fn empty_live_range_leaves_a_signalling_nan_destination_untouched() {
    // for j in 0..4 { for k in 0..4 { if k < j − 2 { A[j] −= X[k]·X[k] } } }:
    // only j = 3 has a live iteration. The forwarded accumulator is loaded
    // behind the empty-range test and stored only by iterations that run,
    // so A[0..3] keep a bit pattern no arithmetic would hand back.
    let a = placeholder([4], DType::F64, "A");
    let x = placeholder([4], DType::F64, "X");
    let mut fb = FuncBuilder::new("snan");
    let ab = fb.param(&a);
    let _xb = fb.param(&x);
    let func = fb.build(ser("j", 4, |j| {
        ser("k", 4, |k| {
            let (jx, kx) = ([j.clone()], [k.clone()]);
            when(
                PrimExpr::cmp(CmpOp::Lt, k, j - 2i64),
                store(&ab, &jx, a.at(&jx) - x.at(&kx) * x.at(&kx)),
            )
        })
    }));
    let snan = f64::from_bits(0x7FF0_0000_0000_0001);
    let args = vec![
        NDArray::from_f64(&[4], &[snan; 4]),
        NDArray::random(&[4], DType::F64, 8, 0.5, 1.0),
    ];
    let engines = compiled_engines(&func, "snan");
    assert_eq!(engines[1].1.forwarded_loop_count(), 1, "optimized VM");
    let bits =
        |run: &[NDArray]| -> Vec<u64> { run[0].as_f64().iter().map(|v| v.to_bits()).collect() };
    let mut via_interp = args.clone();
    interp::execute(&func, &mut via_interp).expect("interpreter");
    let want = bits(&via_interp);
    assert_eq!(
        want[..3],
        [snan.to_bits(); 3],
        "untouched cells keep their bits"
    );
    assert_ne!(want[3], snan.to_bits(), "the live iteration wrote its cell");
    for (engine, compiled) in engines {
        let mut run = args.clone();
        vm::execute(&compiled, &mut run).expect(engine);
        assert_eq!(bits(&run), want, "{engine}");
    }
}

#[test]
fn optimizer_transforms_polybench_hot_loops() {
    // The four-engine differential above is only meaningful if the
    // optimized pipeline actually rewrites these kernels: every kernel's
    // inner loops must be promoted to strided loops or recognized as
    // microkernels, and the triangular kernels' guarded reductions must
    // be trimmed to their live range.
    let mut any_microkernel = false;
    for kernel in KERNELS {
        let mold = mold_for(kernel, ProblemSize::Mini);
        let func = mold.instantiate(&mold.space().default_configuration());
        let cf = compile_optimized(&func).expect("optimized compile");
        assert!(
            cf.microkernel_count() + cf.strided_loop_count() > 0,
            "{}: optimizer left every inner loop scalar",
            mold.name()
        );
        if matches!(
            kernel,
            KernelName::Lu | KernelName::Cholesky | KernelName::Trmm
        ) {
            assert!(
                cf.trimmed_loop_count() > 0,
                "{}: the guarded reduction still iterates over its guard",
                mold.name()
            );
        }
        any_microkernel |= cf.microkernel_count() > 0;
    }
    assert!(
        any_microkernel,
        "no matrix kernel dispatched to the mul-add microkernel"
    );
}

#[test]
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn jit_actually_compiles_polybench_hot_loops() {
    // Non-vacuity for the fourth engine: on x86-64 every kernel must
    // reach real machine code (compiled-nest counter > 0), not silently
    // fall back to the optimized VM.
    for kernel in KERNELS {
        let mold = mold_for(kernel, ProblemSize::Mini);
        let func = mold.instantiate(&mold.space().default_configuration());
        let cf = compile_optimized(&func).expect("optimized compile");
        for (tier, backend) in jit_tiers() {
            let jitted = backend.jit_compile(&cf).unwrap_or_else(|e| {
                panic!("{} on the {tier}: must jit on x86-64, got {e}", mold.name())
            });
            assert!(
                jitted.jit_nest_count() > 0,
                "{} on the {tier}: JIT emitted no native loop nest",
                mold.name()
            );
            assert!(jitted.jit_code_bytes() > 0);
        }
    }
}

/// `name {P0: a, P1: b, …}` of `kernel` at `size`, lowered.
fn lowered(kernel: KernelName, size: ProblemSize, tiles: &[i64]) -> (PrimFunc, String) {
    let mold = mold_for(kernel, size);
    let names: Vec<String> = mold
        .space()
        .params()
        .iter()
        .map(|p| p.name().to_string())
        .collect();
    let values = tiles
        .iter()
        .map(|&t| configspace::ParamValue::Int(t))
        .collect();
    let config = configspace::Configuration::new(names, values);
    assert!(mold.space().validate(&config), "{} / {config}", mold.name());
    let context = format!("{} / {config}", mold.name());
    (mold.instantiate(&config), context)
}

#[test]
fn level_hoisting_is_not_vacuous_on_the_small_tile_matmuls() {
    // What fails, by count, when index arithmetic stops leaving the outer
    // loop levels: at small tiles the `k` loop of every matmul product —
    // not innermost: it wraps the `j.inner` row — carries a `pre` and
    // bumps, and so does the tile loop around it. (Drop `try_hoist`'s
    // "the body writes it once" refusal and the leaf's own bumped
    // registers move too: seven tests of this file fail.) The scalar rung
    // is untouched.
    for (kernel, at_least) in [
        (KernelName::Gemm, 2),
        (KernelName::Mm2, 4),
        (KernelName::Mm3, 6),
    ] {
        // Row tiles of 1, column tiles the second smallest the space has.
        let mold = mold_for(kernel, ProblemSize::Mini);
        let tiles: Vec<i64> = (mold.space().params().iter().enumerate())
            .map(|(nth, p)| match p {
                configspace::Hyperparameter::Ordinal { sequence, .. } => {
                    sequence[nth % 2].as_int().expect("integer tiles")
                }
                other => panic!("{other:?}"),
            })
            .collect();
        let (func, context) = lowered(kernel, ProblemSize::Mini, &tiles);
        let cf = compile_optimized(&func).expect("optimized compile");
        assert!(
            cf.hoisted_loop_count() >= at_least,
            "{context}: {} loops carry hoisted index arithmetic",
            cf.hoisted_loop_count()
        );
        assert_eq!(compile(&func).expect("compile").hoisted_loop_count(), 0);
        assert_engines_agree(&func, &mold.init_args(), &context);
    }
}

/// Length in bytes of the instruction at the head of `code`: the subset
/// of x86-64 the emitter writes (legacy and REX prefixes, the one- and
/// two-byte opcodes of its integer, control and SSE templates, 3-byte VEX
/// and `vzeroupper`). Panics on anything else, so a new encoding shows.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn instruction_len(code: &[u8]) -> usize {
    // ModRM, SIB and displacement.
    let operand = |b: &[u8]| -> usize {
        let (md, rm) = (b[0] >> 6, b[0] & 7);
        if md == 3 {
            return 1;
        }
        let sib = (rm == 4) as usize;
        let absolute = md == 0 && (rm == 5 || (rm == 4 && b[1] & 7 == 5));
        1 + sib + [4 * absolute as usize, 1, 4][md as usize]
    };
    match code[0] {
        0xC5 => return 3, // vzeroupper
        0xC4 => {
            // VEX map 0F / 0F38: opcode, then a register or memory operand.
            return 4 + operand(&code[4..]);
        }
        _ => {}
    }
    let mut at = 0;
    while matches!(code[at], 0x66 | 0xF2 | 0xF3) {
        at += 1;
    }
    let rex_w = code[at] & 0xF8 == 0x48;
    at += (code[at] & 0xF0 == 0x40) as usize;
    let op = code[at];
    at += 1;
    match op {
        0x0F => {
            let op2 = code[at];
            at += 1;
            match op2 {
                0x80..=0x8F => at + 4,                 // jcc rel32
                0xC6 => at + operand(&code[at..]) + 1, // shufps imm8
                _ => at + operand(&code[at..]),
            }
        }
        0x50..=0x5F | 0xC3 => at,       // push, pop, ret
        0xE9 => at + 4,                 // jmp rel32
        0xB8..=0xBF if rex_w => at + 8, // mov r64, imm64
        0xC7 | 0x81 => at + operand(&code[at..]) + 4,
        0x83 => at + operand(&code[at..]) + 1,
        0x01 | 0x03 | 0x0B | 0x23 | 0x2B | 0x3B | 0x89 | 0x8B | 0x8D | 0xFF => {
            at + operand(&code[at..])
        }
        other => panic!("opcode {other:#04x} is not one the emitter writes"),
    }
}

#[test]
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn gemm_one_by_two_spends_under_22_instructions_a_k_step() {
    // gemm-medium {P0: 1, P1: 2}: 5.28 M `k` steps of one two-element
    // row. On `jit/v5` a step was 48 instructions — nine integer
    // operations recomputed every step, a scalar loop for the row. Now
    // the addresses are bumped, the row is one `f64x2` operation and four
    // steps share one load and store of it: the group's loop — the one
    // loop inside the `j.outer` loop — is counted here, instruction by
    // instruction, back-edge target to back-edge. No timing.
    let (func, context) = lowered(KernelName::Gemm, ProblemSize::Medium, &[1, 2]);
    let cf = compile_optimized(&func).expect("optimized compile");
    let jitted = default_backend().jit_compile(&cf).expect("gemm must jit");
    let code = jitted.jit_code();
    // Every instruction's offset; the walk must end exactly at the end.
    let mut starts = Vec::new();
    let mut at = 0;
    while at < code.len() {
        starts.push(at);
        at += instruction_len(&code[at..]);
    }
    assert_eq!(at, code.len(), "{context}: the decode lost its footing");
    // Back edges: a `jcc rel32` to an earlier instruction.
    let mut loops: Vec<(usize, usize)> = Vec::new();
    for &at in &starts {
        if code[at] == 0x0F && (0x80..=0x8F).contains(&code[at + 1]) {
            let rel = i32::from_le_bytes(code[at + 2..at + 6].try_into().expect("rel32"));
            if rel < 0 {
                let target = (at as i64 + 6 + i64::from(rel)) as usize;
                assert!(
                    starts.contains(&target),
                    "{context}: a jump into an instruction"
                );
                loops.push((target, at));
            }
        }
    }
    // The one loop that sits inside another and holds none: `k`'s, under
    // `j.outer` (the zeroing and the epilogue nests have a leaf's
    // countdown under their one plain loop too, but those loops run per
    // element; `i.outer` is the pool's, in bytecode).
    let inside = |a: &(usize, usize), b: &(usize, usize)| b.0 <= a.0 && a.1 < b.1;
    let innermost: Vec<&(usize, usize)> = loops
        .iter()
        .filter(|l| loops.iter().any(|o| inside(l, o)) && !loops.iter().any(|o| inside(o, l)))
        .filter(|l| code[l.1 + 1] == 0x85 && code[l.1 - 4..l.1] == [0x48, 0xFF, 0x0C, 0x24])
        .collect();
    let [&(target, back)] = innermost.as_slice() else {
        panic!(
            "{context}: one jammed group loop (`dec [rsp]; jnz`), got {innermost:?} of {loops:?}"
        );
    };
    let group = starts.iter().filter(|&&s| target <= s && s <= back).count();
    // Four `k` steps a group.
    assert_eq!(group, 71, "{context}: instructions in the group's loop");
    assert!(group <= 4 * 22);
}

/// Tests that mutate the process-global worker-pool thread budget
/// serialize on this lock so they cannot race each other's counter
/// assertions (bit-identity itself holds at any thread count).
fn thread_budget_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn engines_agree_at_every_thread_count() {
    // The pool's static chunking must be invisible at every thread
    // budget: 1 (pure sequential), 2 and 4 (even splits), and 7 (ragged
    // chunk boundaries on typical tile counts). Outputs and error
    // classification both ride through `assert_engines_agree`.
    let _guard = thread_budget_lock();
    let mut rng = SmallRng::seed_from_u64(0x7a11e1);
    for threads in [1usize, 2, 4, 7] {
        tvm_runtime::pool::set_num_threads(threads);
        for kernel in KERNELS {
            let mold = mold_for(kernel, ProblemSize::Mini);
            let config = mold.space().sample(&mut rng);
            let func = mold.instantiate(&config);
            let args = mold.init_args();
            assert_engines_agree(
                &func,
                &args,
                &format!("{} / {config} @ {threads} threads", mold.name()),
            );
        }
        // Malformed arguments must classify identically when the engine
        // is willing to dispatch, too.
        let mold = mold_for(KernelName::Gemm, ProblemSize::Mini);
        let func = mold.instantiate(&mold.space().default_configuration());
        let good = mold.init_args();
        assert_engines_agree(
            &func,
            &good[..good.len() - 1],
            &format!("gemm arity @ {threads} threads"),
        );
    }
    tvm_runtime::pool::set_num_threads(1);
}

#[test]
fn thread_sweep_is_not_vacuous() {
    // The sweep above is only meaningful if the pool actually dispatches
    // on this suite's kernels: run gemm on the optimized device at 4
    // threads and demand a proven loop, a real dispatch, and zero thread
    // spawns on a repeat run (pool reuse).
    let _guard = thread_budget_lock();
    tvm_runtime::pool::set_num_threads(4);
    let device = tvm_runtime::CpuDevice::new();
    let mold = mold_for(KernelName::Gemm, ProblemSize::Mini);
    let func = mold.instantiate(&mold.space().default_configuration());
    let mut args = mold.init_args();
    device.run(&func, &mut args).expect("gemm runs");
    let stats = device.par_stats().expect("optimized device keeps counters");
    assert!(
        stats.loops_proven >= 1,
        "gemm's outer tile loop must prove race-free: {stats:?}"
    );
    assert!(
        stats.dispatches >= 1,
        "gemm must dispatch on the pool at 4 threads: {stats:?}"
    );
    let spawned = tvm_runtime::pool::threads_spawned();
    let mut args2 = mold.init_args();
    device.run(&func, &mut args2).expect("gemm runs again");
    assert_eq!(
        tvm_runtime::pool::threads_spawned(),
        spawned,
        "steady-state trials must not spawn threads"
    );
    tvm_runtime::pool::set_num_threads(1);
}

#[test]
fn parallel_loop_accounting_is_complete() {
    // Every runtime entry into a `Parallel` loop lands in exactly one
    // counter bucket, on every mold at every thread budget: the
    // per-reason counts sum to the fallback total; a function with a
    // prepared parallel loop counts an entry — dispatch or fallback —
    // and one without counts nothing; a proven loop dispatches as soon
    // as there are two threads and never at one. The molds whose
    // schedules annotate a tile loop `Parallel` (gemm, 3mm, 2mm, syrk)
    // prepare one under their default configuration, the others never.
    // One device per run, so the counters attribute cleanly.
    let _guard = thread_budget_lock();
    let mut rng = SmallRng::seed_from_u64(777);
    for kernel in KERNELS {
        let mold = mold_for(kernel, ProblemSize::Mini);
        let annotated = matches!(
            kernel,
            KernelName::Gemm | KernelName::Mm3 | KernelName::Mm2 | KernelName::Syrk
        );
        let mut configs = vec![mold.space().default_configuration()];
        configs.extend((0..3).map(|_| mold.space().sample(&mut rng)));
        for (nth, config) in configs.iter().enumerate() {
            let func = mold.instantiate(config);
            for threads in [1usize, 2, 4, 7] {
                tvm_runtime::pool::set_num_threads(threads);
                let device = tvm_runtime::CpuDevice::new();
                let mut args = mold.init_args();
                device.run(&func, &mut args).expect("runs");
                let stats = device.par_stats().expect("optimized device keeps counters");
                let context = format!("{} / {config} @ {threads} threads: {stats:?}", mold.name());
                let reason_sum: u64 = stats.fallback_reasons.iter().map(|(_, n)| n).sum();
                assert_eq!(reason_sum, stats.fallbacks, "lost a reason: {context}");
                let census = stats.loops_proven + stats.loops_unproven;
                let entries = stats.dispatches + stats.fallbacks;
                assert_eq!(census > 0, entries > 0, "lost an entry: {context}");
                if !annotated {
                    assert_eq!(census, 0, "no annotation: {context}");
                } else if nth == 0 {
                    assert!(census >= 1, "census lost: {context}");
                }
                if threads == 1 {
                    assert_eq!(stats.dispatches, 0, "{context}");
                } else if stats.loops_proven > 0 {
                    assert!(stats.dispatches >= 1, "proven, never dispatched: {context}");
                }
            }
        }
    }
    tvm_runtime::pool::set_num_threads(1);
}

#[test]
fn malformed_args_yield_structured_errors() {
    // Sanity that the differential above exercises real error paths:
    // the interpreter (and therefore the VM) rejects a short arg list.
    let mold = mold_for(KernelName::Gemm, ProblemSize::Mini);
    let func = mold.instantiate(&mold.space().default_configuration());
    let mut args = mold.init_args();
    args.pop();
    let err = interp::execute(&func, &mut args).expect_err("arity must fail");
    assert!(matches!(err, ExecError::ArityMismatch { .. }));
}
