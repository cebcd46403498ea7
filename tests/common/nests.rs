//! The generators that feed the oracle harness: nests built directly in
//! TIR around the shapes the block optimizer and the JIT rewrite (and
//! their near misses), and small TE computations scheduled the way the
//! molds are. A new generator returns its function, its arguments and a
//! context string, and its suite hands them to `oracle::check`.

use configspace::{ConfigSpace, Configuration, ParamValue};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;
use std::sync::Arc;
use tvm_runtime::NDArray;
use tvm_te::{compute, placeholder, reduce_axis, sum, CmpOp, DType, PrimExpr, Schedule, Var};
use tvm_tir::builder::{for_kind, if_else, par, seq, ser, store, when, FuncBuilder};
use tvm_tir::lower::lower;
use tvm_tir::{ForKind, PrimFunc, Stmt};

/// `base` with the named integer values replaced, in `space`'s order.
pub fn with_ints(space: &ConfigSpace, base: &Configuration, ints: &[(&str, i64)]) -> Configuration {
    let (names, values) = (space.params().iter())
        .map(|p| {
            let value = match ints.iter().find(|(name, _)| *name == p.name()) {
                Some(&(_, v)) => ParamValue::Int(v),
                None => base.get(p.name()).cloned().expect("base covers the space"),
            };
            (p.name().to_string(), value)
        })
        .unzip();
    Configuration::new(names, values)
}

/// A generated triangular nest — the shape loop trimming rewrites, and
/// its near misses: `for i, j { for k in kmin..kmin+K { if k ⋄ a·i + b·j
/// + c { body } } }` with a random comparison, operand order and
/// coefficients (live ranges that come out empty, full and partial),
/// extents down to 1, a reduction into `A[i,j]` or an
/// elementwise write of `C[i,j,k]`, optionally a second statement after
/// the guarded one or an `else` (neither may be trimmed, both must still
/// agree), any loop kind on `k`, and optionally a `Parallel` outer loop.
pub fn triangular_nest(rng: &mut SmallRng) -> (PrimFunc, Vec<NDArray>, String) {
    let dtype = DType::F64;
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
        "{ei}x{ej}x{kext} kmin {kmin} {op:?} var_left {var_left} bound {ca}i+{cb}j+{cc} \
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

/// A generated syrk-shaped nest — the triangle a proven-parallel row loop
/// hands the worker pool: `parallel i in 0..N { for j in 0..N { if j <= i {
/// C[i,j] = β·C[i,j]; for k in 0..M { C[i,j] = C[i,j] + α·A[i,k]·A[j,k] } }
/// } }` with N from 9 to 40, so row `i` costs `i + 1` cells. With
/// `faulting`, each row then stores `D[i + N]` under `i == f1 || i == f2`
/// (`f1 < f2`, both random rows): out of bounds at exactly those two
/// iterations, so every engine at every budget must report row `f1`'s
/// fault, as the interpreter does.
pub fn syrk_nest(rng: &mut SmallRng, faulting: bool) -> (PrimFunc, Vec<NDArray>, String) {
    let dtype = DType::F64;
    let n = rng.gen_range(9..=40usize);
    let m = rng.gen_range(1..=6usize);
    let f1 = rng.gen_range(0..n as i64 - 1);
    let f2 = rng.gen_range(f1 + 1..n as i64);
    let context = if faulting {
        format!("syrk {n}x{m}, faults at rows {f1} and {f2}")
    } else {
        format!("syrk {n}x{m}")
    };
    let a = placeholder([n, m], dtype, "A");
    let c = placeholder([n, n], dtype, "C");
    let d = placeholder([n], dtype, "D");
    let mut fb = FuncBuilder::new("syrk");
    let _ab = fb.param(&a);
    let cb = fb.param(&c);
    let db = fb.param(&d);
    let body = par("i", n as i64, |i| {
        let rows = ser("j", n as i64, |j| {
            let cell = [i.clone(), j.clone()];
            let scale = store(&cb, &cell, c.at(&cell) * PrimExpr::from(1.2f64));
            let update = ser("k", m as i64, |k| {
                let (ik, jk) = ([i.clone(), k.clone()], [j.clone(), k]);
                let term = PrimExpr::from(1.5f64) * a.at(&ik) * a.at(&jk);
                store(&cb, &cell, c.at(&cell) + term)
            });
            when(PrimExpr::cmp(CmpOp::Le, j, i.clone()), seq([scale, update]))
        });
        if !faulting {
            return rows;
        }
        let at = |row: i64| Arc::new(PrimExpr::cmp(CmpOp::Eq, i.clone(), row.into()));
        let fault = store(&db, &[i.clone() + n as i64], c.at(&[i.clone(), i.clone()]));
        seq([rows, when(PrimExpr::Or(at(f1), at(f2)), fault)])
    });
    let func = fb.build(body);
    let args = vec![
        NDArray::random(&[n, m], dtype, 1, -1.0, 1.0),
        NDArray::random(&[n, n], dtype, 2, -1.0, 1.0),
        NDArray::random(&[n], dtype, 3, -1.0, 1.0),
    ];
    (func, args, context)
}

/// A generated reduction nest — the shape accumulator forwarding
/// rewrites, and its near misses: `for i, j { for k { [if k ⋄ a·i + b·j +
/// c] D[i,j] = D[i,j] ± [α·] x · y } }` with the reduction innermost and
/// the destination's address fixed in `k`. The factors come from two other
/// arrays or from `D` itself (`D[i,k]` and `D[k,j]`, lu's in-place update:
/// each equals the accumulator's element on one iteration); one or two
/// multiplies; a static range or a guard trimmed to a live
/// range that may be empty; optionally a second store into `D` that hits
/// the accumulator's element on one iteration (must not forward) and
/// optionally a store that goes out of bounds at `k0 = 5`, after the
/// reduction's store of that iteration. Returns whether `D` is stored to
/// twice.
pub fn reduction_nest(rng: &mut SmallRng) -> (PrimFunc, Vec<NDArray>, String, bool) {
    const N: usize = 6;
    const OPS: [CmpOp; 4] = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
    const K_KINDS: [ForKind; 5] = [
        ForKind::Serial,
        ForKind::Serial,
        ForKind::Serial,
        ForKind::Parallel,
        ForKind::Vectorized,
    ];
    let dtype = DType::F64;
    let in_place = rng.gen_bool(0.5);
    let subtract = rng.gen_bool(0.5);
    let two_mul = rng.gen_bool(0.4);
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
        "in_place {in_place} subtract {subtract} two_mul {two_mul} k {kmin}+{kext} \
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
    let alpha = PrimExpr::FloatImm(0.3, dtype);

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
pub fn control_flow_nest(rng: &mut SmallRng) -> (PrimFunc, Vec<NDArray>, String) {
    const N: usize = 6;
    const OPS: [CmpOp; 6] = [
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Eq,
        CmpOp::Ne,
    ];
    let dtype = DType::F64;
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
        "shape {shape} outer {outer_kind:?} k {kext} tail {tail} off {off} logic {logic} {:?}",
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

/// A generated cell reduction — the shape the x86-64 backend runs four
/// cells at a time, and its near misses: `for i { for j [if g(j)] { [D[c] =
/// D[c]·β;] for k { D[c] = D[c] ± [α·] x·y } } }` with the cell `c =
/// cell(i, j)` of a flat `D` moving by ±1 or ±row along `j`, 1–11 `j`
/// iterations (every remainder of a group of four), `j`'s guard trimmed to
/// a live range (`j ⋄ i + c`) or kept a conditional (`2·j ⋄ i + c`), and
/// factors that move with `j` and ones that do not, in either operand
/// order. The near misses the jam must refuse: a factor that reads the
/// previous `j`'s cell, a second store into `D` ahead of the chain, a
/// factor whose index only a bounds check admits (one element short, so
/// the last iteration fails on every rung), and one cell for all of them.
/// Returns whether it is a near miss: the short factor is one only where
/// the guard lets the last `j` run, since elsewhere the guard alone
/// proves its index in bounds.
pub fn cell_reduction_nest(rng: &mut SmallRng) -> (PrimFunc, Vec<NDArray>, String, bool) {
    const ROW: i64 = 12;
    const MARGIN: i64 = 13;
    const OPS: [CmpOp; 4] = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
    let dtype = DType::F64;
    let (ei, ej, ek) = (
        rng.gen_range(1..=3i64),
        rng.gen_range(1..=11i64),
        rng.gen_range(1..=6i64),
    );
    let stride = [1, -1, ROW, -ROW][rng.gen_range(0..4usize)];
    let miss = [
        None,
        None,
        None,
        None,
        None,
        Some("previous cell"),
        Some("second store"),
        Some("bounds check"),
        Some("fixed cell"),
    ][rng.gen_range(0..9usize)];
    let guard = match rng.gen_range(0..3usize) {
        0 => None,
        form => Some((
            form,
            OPS[rng.gen_range(0..4usize)],
            rng.gen_range(-2..=3i64),
        )),
    };
    let (prologue, alpha, subtract) = (rng.gen_bool(0.5), rng.gen_bool(0.4), rng.gen_bool(0.5));
    let (y_form, swap) = (rng.gen_range(0..3usize), rng.gen_bool(0.5));
    let outer = if rng.gen_bool(0.3) {
        ForKind::Parallel
    } else {
        ForKind::Serial
    };
    let context = format!(
        "{ei}x{ej}x{ek} stride {stride} miss {miss:?} guard {guard:?} prologue {prologue} \
         alpha {alpha} subtract {subtract} y {y_form} swap {swap} outer {outer:?}"
    );

    let d = placeholder([((ROW + 2) * ROW + 2 * MARGIN) as usize], dtype, "D");
    let x = placeholder([32], dtype, "X");
    let y = placeholder([80], dtype, "Y");
    let e_len = (ej + ek - 2).max(1) as usize;
    let e = placeholder([e_len], dtype, "E");
    let mut fb = FuncBuilder::new("cells");
    let db = fb.param(&d);
    let _ = (fb.param(&x), fb.param(&y), fb.param(&e));
    let cell = move |i: &PrimExpr, j: PrimExpr| {
        let along = if stride < 0 {
            PrimExpr::from(ej - 1) - j
        } else {
            j
        };
        let (inner, outer) = if stride.abs() == 1 {
            (along, i.clone())
        } else {
            (i.clone(), along)
        };
        outer * ROW + inner + MARGIN
    };
    let body = for_kind("i", ei, outer, |i| {
        ser("j", ej, |j| {
            let c = match miss {
                Some("fixed cell") => [PrimExpr::from(MARGIN)],
                _ => [cell(&i, j.clone())],
            };
            let chain = ser("k", ek, |k| {
                let fx = x.at(&[i.clone() * ek + k.clone()]);
                let fy = match (miss, y_form) {
                    (Some("previous cell"), _) => d.at(&[cell(&i, j.clone() - 1i64)]),
                    (Some("bounds check"), _) => e.at(&[j.clone() + k.clone()]),
                    (_, 0) => y.at(&[k.clone() * ROW + j.clone()]),
                    (_, 1) => y.at(&[j.clone() * ek + k.clone()]),
                    _ => y.at(&[k]),
                };
                let (fx, fy) = if swap { (fy, fx) } else { (fx, fy) };
                let product = if alpha {
                    PrimExpr::FloatImm(0.3, dtype) * fx * fy
                } else {
                    fx * fy
                };
                let sum = if subtract {
                    d.at(&c) - product
                } else {
                    d.at(&c) + product
                };
                store(&db, &c, sum)
            });
            let mut stmts = Vec::new();
            if miss == Some("second store") {
                stmts.push(store(
                    &db,
                    &[cell(&i, j.clone() - 1i64)],
                    x.at(std::slice::from_ref(&i)),
                ));
            }
            if prologue {
                stmts.push(store(&db, &c, d.at(&c) * PrimExpr::FloatImm(1.2, dtype)));
            }
            stmts.push(chain);
            let stmt = seq(stmts);
            match guard {
                None => stmt,
                Some((form, op, off)) => {
                    let lhs = if form == 1 {
                        j.clone()
                    } else {
                        j.clone() * 2i64
                    };
                    when(PrimExpr::cmp(op, lhs, i.clone() + off), stmt)
                }
            }
        })
    });
    let func = fb.build(body);
    let args = vec![
        NDArray::random(
            &[((ROW + 2) * ROW + 2 * MARGIN) as usize],
            dtype,
            31,
            -1.0,
            1.0,
        ),
        NDArray::random(&[32], dtype, 32, -1.0, 1.0),
        NDArray::random(&[80], dtype, 33, -1.0, 1.0),
        NDArray::random(&[e_len], dtype, 34, -1.0, 1.0),
    ];
    let last_j_runs = guard.is_none_or(|(form, op, off)| {
        let lhs = if form == 1 { ej - 1 } else { 2 * (ej - 1) };
        (0..ei).any(|i| match op {
            CmpOp::Lt => lhs < i + off,
            CmpOp::Le => lhs <= i + off,
            CmpOp::Gt => lhs > i + off,
            _ => lhs >= i + off,
        })
    });
    let near_miss = miss.is_some() && (miss != Some("bounds check") || last_j_runs);
    (func, args, context, near_miss)
}

/// A generated matmul tile nest — the shape the interchange pass moves a
/// tile loop into, and its near misses: `parallel yo { for xo { for k {
/// for yi in [0, ty) { for xi in [0, tx) { C[(yo·ty + yi)·N + xo·tx + xi]
/// += A[yo·ty + yi, k]·B[k, xo·tx + xi] } } } } }` over a flat `C` (`B`
/// three tiles wide), the x-tile 2 under y-tiles of 1–4 (a narrow row,
/// which collapses into `xo`) or 1 under y-tiles of 2–4 (a column, under
/// which `xo` goes innermost). The near misses the pass must leave alone:
/// overlapping tiles (`xo + xi`, and a row stride of `N − 1` under the
/// column), gapped tiles (`xo·(tx + 1) + xi`), a guard on `xo`, a
/// vectorized row or an unrolled `k` in the way, and a second store beside
/// the row. Returns whether it is a near miss; every other nest is moved.
pub fn tile_nest(rng: &mut SmallRng) -> (PrimFunc, Vec<NDArray>, String, bool) {
    let dtype = DType::F64;
    let tx = rng.gen_range(1..=2i64);
    let ty = rng.gen_range(if tx == 1 { 2 } else { 1 }..=4i64);
    let (my, nx, ek) = (
        rng.gen_range(1..=3i64),
        rng.gen_range(3..=5i64),
        rng.gen_range(2..=4i64),
    );
    let miss = [
        None,
        None,
        None,
        None,
        Some("overlapping tiles"),
        Some("gapped tiles"),
        Some("guard on xo"),
        Some("vectorized row"),
        Some("unrolled k"),
        Some("second store"),
    ][rng.gen_range(0..10usize)];
    let context = format!("tile {ty}x{tx} over {my}x{nx} tiles, k {ek}, miss {miss:?}");
    let (m, n) = (my * ty, nx * tx);
    let c_len = (m * n + 3 * nx + 4) as usize;
    let c = placeholder([c_len], dtype, "C");
    let a = placeholder([m as usize, ek as usize], dtype, "A");
    // Wide enough for the gapped tiles' columns.
    let b = placeholder([ek as usize, 3 * nx as usize], dtype, "B");
    let w = placeholder([nx as usize], dtype, "W");
    let mut fb = FuncBuilder::new("tiles");
    let (_, _, cb, wb) = (fb.param(&a), fb.param(&b), fb.param(&c), fb.param(&w));
    let (row_kind, k_kind) = match miss {
        Some("vectorized row") => (ForKind::Vectorized, ForKind::Serial),
        Some("unrolled k") => (ForKind::Serial, ForKind::Unrolled),
        _ => (ForKind::Serial, ForKind::Serial),
    };
    let body = par("yo", my, |yo| {
        ser("xo", nx, |xo| {
            let row = |k: PrimExpr| {
                // The loop the row is: `xi` at the x-tile 2, else `yi`.
                let cell = |yi: PrimExpr, xi: PrimExpr| {
                    let y = yo.clone() * ty + yi;
                    let (stride, x) = match miss {
                        Some("overlapping tiles") if tx == 1 => (n - 1, xo.clone()),
                        Some("overlapping tiles") => (n, xo.clone() + xi),
                        Some("gapped tiles") => (n, xo.clone() * (tx + 1) + xi),
                        _ => (n, xo.clone() * tx + xi),
                    };
                    let flat = y.clone() * stride + x.clone();
                    let product = a.at(&[y, k.clone()]) * b.at(&[k.clone(), x.clone()]);
                    let st = store(
                        &cb,
                        std::slice::from_ref(&flat),
                        c.at(std::slice::from_ref(&flat)) + product,
                    );
                    match miss {
                        Some("guard on xo") => {
                            when(PrimExpr::cmp(CmpOp::Lt, x, PrimExpr::from(n - 1)), st)
                        }
                        _ => st,
                    }
                };
                match tx {
                    1 => for_kind("yi", ty, row_kind, |yi| cell(yi, PrimExpr::from(0i64))),
                    _ => ser("yi", ty, |yi| {
                        for_kind("xi", tx, row_kind, |xi| cell(yi, xi))
                    }),
                }
            };
            for_kind("k", ek, k_kind, |k| match miss {
                Some("second store") => seq([
                    row(k.clone()),
                    store(
                        &wb,
                        std::slice::from_ref(&xo),
                        w.at(std::slice::from_ref(&xo)) + b.at(&[k, xo.clone()]),
                    ),
                ]),
                _ => row(k),
            })
        })
    });
    let func = fb.build(body);
    let args = vec![
        NDArray::random(&[m as usize, ek as usize], dtype, 41, -1.0, 1.0),
        NDArray::random(&[ek as usize, 3 * nx as usize], dtype, 42, -1.0, 1.0),
        NDArray::random(&[c_len], dtype, 43, -1.0, 1.0),
        NDArray::random(&[nx as usize], dtype, 44, -1.0, 1.0),
    ];
    (func, args, context, miss.is_some())
}

/// Order of [`scheduled_matmul`]'s matrices.
const N: usize = 8;

/// Randomized schedule shape for the matmul nest under test.
#[derive(Debug, Clone)]
pub struct Plan {
    split_y: i64,
    split_x: i64,
    reorder: bool,
    fuse_y: bool,
    parallel_outer: bool,
    vectorize_inner: bool,
}

/// Plans with splits of 1 to 5, each transformation on or off.
pub fn plan_strategy() -> impl Strategy<Value = Plan> {
    (
        (1i64..=5, 1i64..=5),
        (any::<bool>(), any::<bool>()),
        (any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |((split_y, split_x), (reorder, fuse_y), (parallel_outer, vectorize_inner))| Plan {
                split_y,
                split_x,
                reorder,
                fuse_y,
                parallel_outer,
                vectorize_inner,
            },
        )
}

/// Lower an `N`×`N` matmul under `plan`. Non-divisible split factors
/// produce tail guards — exactly the expressions LICM and
/// strength reduction exist to move and rewrite.
pub fn scheduled_matmul(plan: &Plan) -> PrimFunc {
    let a = placeholder([N, N], DType::F64, "A");
    let b = placeholder([N, N], DType::F64, "B");
    let k = reduce_axis(0, N as i64, "k");
    let c = compute([N, N], "C", |i| {
        sum(
            a.at(&[i[0].clone(), k.var_expr()]) * b.at(&[k.var_expr(), i[1].clone()]),
            std::slice::from_ref(&k),
        )
    });
    let mut s = Schedule::create(std::slice::from_ref(&c));
    let (y, x) = (c.axis(0), c.axis(1));
    let (yo, yi) = s.split(&c, &y, plan.split_y);
    let (xo, xi) = s.split(&c, &x, plan.split_x);
    if plan.fuse_y {
        // Fusing the split back introduces div/mod recovery indexing.
        let f = s.fuse(&c, &yo, &yi);
        if plan.parallel_outer {
            s.parallel(&c, &f);
        }
    } else {
        if plan.reorder {
            s.reorder(
                &c,
                &[yo.clone(), xo.clone(), k.clone(), yi.clone(), xi.clone()],
            );
        }
        if plan.parallel_outer {
            s.parallel(&c, &yo);
        }
    }
    if plan.vectorize_inner {
        s.vectorize(&c, &xi);
    }
    lower(&s, &[a, b, c], "mm_prop")
}

/// Arguments of [`scheduled_matmul`].
pub fn matmul_args(seed: u64) -> Vec<NDArray> {
    vec![
        NDArray::random(&[N, N], DType::F64, seed, -1.0, 1.0),
        NDArray::random(&[N, N], DType::F64, seed ^ 0x9e37_79b9, -1.0, 1.0),
        NDArray::zeros(&[N, N], DType::F64),
    ]
}

/// `B[i] = A[i·stride + offset] · A[i·stride + offset] + A[offset]`
/// with the `i` axis marked vectorized and proven race-free: a strided
/// loop like any other on every rung.
pub fn strided_map(extent: usize, stride: i64, offset: i64) -> (PrimFunc, Vec<NDArray>) {
    let src = offset as usize + stride as usize * extent + 1;
    let a = placeholder([src], DType::F64, "A");
    let b = compute([extent], "B", |i| {
        let at = a.at(&[i[0].clone() * stride + offset]);
        at.clone() * at + a.at(&[tvm_te::ops::int(offset)])
    });
    let mut s = Schedule::create(std::slice::from_ref(&b));
    let x = b.axis(0);
    s.vectorize(&b, &x);
    let func = lower(&s, &[a, b], "strided_map");
    let args = vec![
        NDArray::random(
            &[src],
            DType::F64,
            0x51_3d ^ (extent as u64) << 8,
            -2.0,
            2.0,
        ),
        NDArray::zeros(&[extent], DType::F64),
    ];
    (func, args)
}

/// `C[i, j] = Σₖ A[i, k]·B[k, j]` over `[2·yt, 2·row]` with `k` outside
/// the `yt × row` tile: the `j.inner` row is a mul-add microkernel of
/// extent `row`, straight under `k` when `yt` is 1 (the jammed shape).
pub fn row_matmul(row: usize, yt: usize, kext: usize) -> (PrimFunc, Vec<NDArray>) {
    let (m, n) = (2 * yt, 2 * row);
    let a = placeholder([m, kext], DType::F64, "A");
    let b = placeholder([kext, n], DType::F64, "B");
    let k = reduce_axis(0, kext as i64, "k");
    let c = compute([m, n], "C", |i| {
        sum(
            a.at(&[i[0].clone(), k.var_expr()]) * b.at(&[k.var_expr(), i[1].clone()]),
            std::slice::from_ref(&k),
        )
    });
    let mut s = Schedule::create(std::slice::from_ref(&c));
    let (y, x) = (c.axis(0), c.axis(1));
    let (yo, yi) = s.split(&c, &y, yt as i64);
    let (xo, xi) = s.split(&c, &x, row as i64);
    s.reorder(&c, &[yo, xo, k.clone(), yi, xi]);
    let func = lower(&s, &[a, b, c], "row_matmul");
    let args = vec![
        NDArray::random(&[m, kext], DType::F64, 0xa0 + row as u64, -2.0, 2.0),
        NDArray::random(&[kext, n], DType::F64, 0xb0 + row as u64, -2.0, 2.0),
        NDArray::zeros(&[m, n], DType::F64),
    ];
    (func, args)
}
