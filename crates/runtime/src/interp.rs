//! Reference interpreter for lowered TIR.
//!
//! Executes a [`PrimFunc`] against host [`NDArray`]s with exact loop-nest
//! semantics. `Parallel`/`Vectorized`/`Unrolled` loops execute with
//! *sequential semantics* here (like TVM's reference interpreter); their
//! kinds are exploited by the timing devices (`CpuDevice` repeats, the
//! `gpu-sim` cost model) rather than by this functional path.

use crate::ndarray::NDArray;
use std::fmt;
use std::sync::Arc;
use tvm_te::{BinOp, CmpOp, DType, PrimExpr};
use tvm_tir::{Buffer, PrimFunc, Stmt};

/// Interpretation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// Argument count differs from parameter count.
    ArityMismatch {
        /// Parameters declared.
        expected: usize,
        /// Arguments supplied.
        got: usize,
    },
    /// Argument shape/dtype differs from the parameter buffer.
    ArgMismatch {
        /// Parameter name.
        name: String,
        /// Human-readable detail.
        detail: String,
    },
    /// An expression could not be evaluated (e.g. unbound variable —
    /// normally prevented by the verifier).
    BadExpr(String),
    /// An index evaluated out of bounds.
    OutOfBounds {
        /// Buffer name.
        buffer: String,
        /// Offending indices.
        indices: Vec<i64>,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::ArityMismatch { expected, got } => {
                write!(f, "expected {expected} arguments, got {got}")
            }
            ExecError::ArgMismatch { name, detail } => {
                write!(f, "argument `{name}` mismatch: {detail}")
            }
            ExecError::BadExpr(s) => write!(f, "cannot evaluate expression: {s}"),
            ExecError::OutOfBounds { buffer, indices } => {
                write!(f, "indices {indices:?} out of bounds for `{buffer}`")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Runtime scalar value.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Value {
    I(i64),
    F(f64),
}

impl Value {
    #[inline]
    fn as_f64(self) -> f64 {
        match self {
            Value::I(v) => v as f64,
            Value::F(v) => v,
        }
    }
    #[inline]
    fn as_i64(self) -> i64 {
        match self {
            Value::I(v) => v,
            Value::F(v) => v as i64,
        }
    }
    #[inline]
    fn truthy(self) -> bool {
        match self {
            Value::I(v) => v != 0,
            Value::F(v) => v != 0.0,
        }
    }
}

struct Machine<'a> {
    /// All buffers' storage; params first, then allocs.
    storage: &'a mut [NDArray],
    /// Row-major strides of each storage slot.
    strides: Vec<Vec<usize>>,
    /// Buffer id of each storage slot.
    buf_slot: Vec<u64>,
    /// (TE op id, storage slot) pairs, for `TensorRead`.
    op_slot: Vec<(u64, usize)>,
    /// Loop bindings, innermost last: (var id, value, or `None` once an
    /// inner loop over the same id has ended).
    env: Vec<(u64, Option<i64>)>,
}

impl<'a> Machine<'a> {
    fn eval_index(&self, e: &PrimExpr) -> Result<i64, ExecError> {
        Ok(self.eval(e)?.0.as_i64())
    }

    /// The indices `idx` evaluate to: only built for an error report.
    fn eval_indices(&self, idx: &[PrimExpr]) -> Result<Vec<i64>, ExecError> {
        idx.iter().map(|ie| self.eval_index(ie)).collect()
    }

    fn read_tensor(&self, op_id: u64, name: &str, idx: &[PrimExpr]) -> Result<f64, ExecError> {
        let slot = self
            .op_slot
            .iter()
            .rfind(|&&(op, _)| op == op_id)
            .ok_or_else(|| ExecError::BadExpr(format!("tensor `{name}` has no storage")))?
            .1;
        let arr = &self.storage[slot];
        let (shape, strides) = (arr.shape(), &self.strides[slot]);
        let mut lin = 0usize;
        for (d, ie) in idx.iter().enumerate() {
            let i = self.eval_index(ie)?;
            if i < 0 || i as usize >= shape[d] {
                let mut indices = self.eval_indices(&idx[..d])?;
                indices.push(i);
                let buffer = name.to_string();
                return Err(ExecError::OutOfBounds { buffer, indices });
            }
            lin += i as usize * strides[d];
        }
        Ok(arr.get_f64_linear(lin))
    }

    /// [`Self::eval_node`], with literals and bound variables, about half
    /// of all nodes, answered where they are read.
    #[inline(always)]
    fn eval(&self, e: &PrimExpr) -> Result<(Value, DType), ExecError> {
        match e {
            PrimExpr::IntImm(v, t) => Ok((Value::I(*v), *t)),
            PrimExpr::FloatImm(v, t) => Ok((Value::F(*v), *t)),
            PrimExpr::Var(v) => match self.env.iter().rfind(|b| b.0 == v.id) {
                Some(&(_, Some(x))) => Ok((Value::I(x), v.dtype)),
                _ => self.eval_node(e),
            },
            _ => self.eval_node(e),
        }
    }

    /// The value of `e` and its static dtype, which is what
    /// [`PrimExpr::dtype`] returns, computed in the same walk.
    #[inline(never)]
    fn eval_node(&self, e: &PrimExpr) -> Result<(Value, DType), ExecError> {
        match e {
            PrimExpr::IntImm(v, t) => Ok((Value::I(*v), *t)),
            PrimExpr::FloatImm(v, t) => Ok((Value::F(*v), *t)),
            PrimExpr::BoolImm(b) => Ok((Value::I(*b as i64), DType::Bool)),
            PrimExpr::Var(v) => match self.env.iter().rfind(|b| b.0 == v.id) {
                Some(&(_, Some(x))) => Ok((Value::I(x), v.dtype)),
                _ => Err(ExecError::BadExpr(format!("unbound variable `{}`", v.name))),
            },
            PrimExpr::Binary(op, a, b) => {
                let ((va, da), (vb, db)) = (self.eval(a)?, self.eval(b)?);
                let dt = da.unify(db);
                if dt.is_float() {
                    let (x, y) = (va.as_f64(), vb.as_f64());
                    Ok((
                        Value::F(match op {
                            BinOp::Add => x + y,
                            BinOp::Sub => x - y,
                            BinOp::Mul => x * y,
                            BinOp::Div => x / y,
                            BinOp::FloorDiv => (x / y).floor(),
                            BinOp::FloorMod => x - (x / y).floor() * y,
                            BinOp::Min => x.min(y),
                            BinOp::Max => x.max(y),
                        }),
                        dt,
                    ))
                } else {
                    let (x, y) = (va.as_i64(), vb.as_i64());
                    let r = match op {
                        BinOp::Add => x + y,
                        BinOp::Sub => x - y,
                        BinOp::Mul => x * y,
                        BinOp::Div => {
                            if y == 0 {
                                return Err(ExecError::BadExpr("integer division by zero".into()));
                            }
                            x / y
                        }
                        BinOp::FloorDiv => {
                            if y == 0 {
                                return Err(ExecError::BadExpr("floordiv by zero".into()));
                            }
                            x.div_euclid(y)
                        }
                        BinOp::FloorMod => {
                            if y == 0 {
                                return Err(ExecError::BadExpr("floormod by zero".into()));
                            }
                            x.rem_euclid(y)
                        }
                        BinOp::Min => x.min(y),
                        BinOp::Max => x.max(y),
                    };
                    Ok((Value::I(r), dt))
                }
            }
            PrimExpr::Cmp(op, a, b) => {
                let ((va, da), (vb, db)) = (self.eval(a)?, self.eval(b)?);
                let r = if da.unify(db).is_float() {
                    let (x, y) = (va.as_f64(), vb.as_f64());
                    match op {
                        CmpOp::Eq => x == y,
                        CmpOp::Ne => x != y,
                        CmpOp::Lt => x < y,
                        CmpOp::Le => x <= y,
                        CmpOp::Gt => x > y,
                        CmpOp::Ge => x >= y,
                    }
                } else {
                    let (x, y) = (va.as_i64(), vb.as_i64());
                    match op {
                        CmpOp::Eq => x == y,
                        CmpOp::Ne => x != y,
                        CmpOp::Lt => x < y,
                        CmpOp::Le => x <= y,
                        CmpOp::Gt => x > y,
                        CmpOp::Ge => x >= y,
                    }
                };
                Ok((Value::I(r as i64), DType::Bool))
            }
            PrimExpr::And(a, b) => Ok((
                Value::I((self.eval(a)?.0.truthy() && self.eval(b)?.0.truthy()) as i64),
                DType::Bool,
            )),
            PrimExpr::Or(a, b) => Ok((
                Value::I((self.eval(a)?.0.truthy() || self.eval(b)?.0.truthy()) as i64),
                DType::Bool,
            )),
            PrimExpr::Not(a) => Ok((Value::I(!self.eval(a)?.0.truthy() as i64), DType::Bool)),
            PrimExpr::Sqrt(a) => {
                let (v, t) = self.eval(a)?;
                Ok((Value::F(v.as_f64().sqrt()), t))
            }
            PrimExpr::TensorRead(t, idx) => Ok((
                Value::F(self.read_tensor(t.op.id, t.name(), idx)?),
                t.dtype(),
            )),
            PrimExpr::Reduce { .. } => Err(ExecError::BadExpr(
                "Reduce must be lowered before execution".into(),
            )),
        }
    }

    fn exec(&mut self, s: &Stmt) -> Result<(), ExecError> {
        match s {
            Stmt::For {
                var,
                min,
                extent,
                body,
                ..
            } => {
                let top = self.env.len();
                self.env.push((var.id, None));
                for it in *min..(min + extent) {
                    self.env[top].1 = Some(it);
                    self.exec(body)?;
                }
                self.env.pop();
                for b in self.env.iter_mut().filter(|b| b.0 == var.id) {
                    b.1 = None;
                }
                Ok(())
            }
            Stmt::BufferStore {
                buffer,
                indices,
                value,
            } => {
                let val = self.eval(value)?.0;
                let slot = self
                    .buf_slot
                    .iter()
                    .rposition(|&id| id == buffer.id)
                    .ok_or_else(|| {
                        ExecError::BadExpr(format!("no storage for `{}`", buffer.name))
                    })?;
                let mut lin = 0usize;
                for (d, ie) in indices.iter().enumerate() {
                    let i = self.eval_index(ie)?;
                    if i < 0 || i as usize >= self.storage[slot].shape()[d] {
                        return Err(ExecError::OutOfBounds {
                            buffer: buffer.name.clone(),
                            indices: self.eval_indices(indices)?,
                        });
                    }
                    lin += i as usize * self.strides[slot][d];
                }
                self.storage[slot].set_f64_linear(lin, val.as_f64());
                Ok(())
            }
            Stmt::IfThenElse { cond, then, else_ } => {
                if self.eval(cond)?.0.truthy() {
                    self.exec(then)
                } else if let Some(e) = else_ {
                    self.exec(e)
                } else {
                    Ok(())
                }
            }
            Stmt::Seq(items) => {
                for st in items {
                    self.exec(st)?;
                }
                Ok(())
            }
            Stmt::Nop => Ok(()),
        }
    }
}

fn check_arg(param: &Arc<Buffer>, arg: &NDArray) -> Result<(), ExecError> {
    if param.shape != arg.shape() {
        return Err(ExecError::ArgMismatch {
            name: param.name.clone(),
            detail: format!("shape {:?} != expected {:?}", arg.shape(), param.shape),
        });
    }
    if param.dtype != arg.dtype() {
        return Err(ExecError::ArgMismatch {
            name: param.name.clone(),
            detail: format!("dtype {} != expected {}", arg.dtype(), param.dtype),
        });
    }
    Ok(())
}

/// Execute `func` over `args` (one array per parameter buffer, in order;
/// output parameters are written in place).
pub fn execute(func: &PrimFunc, args: &mut [NDArray]) -> Result<(), ExecError> {
    if args.len() != func.params.len() {
        return Err(ExecError::ArityMismatch {
            expected: func.params.len(),
            got: args.len(),
        });
    }
    for (p, a) in func.params.iter().zip(args.iter()) {
        check_arg(p, a)?;
    }

    // Storage layout: caller arrays first, then internal allocations.
    let mut alloc_storage: Vec<NDArray> = func
        .allocs
        .iter()
        .map(|b| NDArray::zeros(&b.shape, b.dtype))
        .collect();

    let mut all: Vec<NDArray> = Vec::with_capacity(args.len() + alloc_storage.len());
    // Move caller arrays in; moved back out after execution.
    for a in args.iter() {
        all.push(a.clone());
    }
    all.append(&mut alloc_storage);

    let buffers = || func.params.iter().chain(func.allocs.iter());
    let op_slot = buffers()
        .enumerate()
        .filter(|(_, b)| b.source_op != 0)
        .map(|(i, b)| (b.source_op, i))
        .collect();
    let mut m = Machine {
        strides: all.iter().map(NDArray::strides).collect(),
        buf_slot: buffers().map(|b| b.id).collect(),
        op_slot,
        env: Vec::new(),
        storage: &mut all,
    };
    m.exec(&func.body)?;

    for (a, s) in args.iter_mut().zip(all) {
        *a = s;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_te::{compute, placeholder, reduce_axis, sum, DType, Schedule};
    use tvm_tir::lower::lower;

    fn run_matmul(n: usize, tile: i64) -> (NDArray, NDArray, NDArray) {
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
        if tile > 1 {
            let (y, x) = (c.axis(0), c.axis(1));
            let (yo, yi) = s.split(&c, &y, tile);
            let (xo, xi) = s.split(&c, &x, tile);
            s.reorder(&c, &[yo, xo, k.clone(), yi, xi]);
        }
        let f = lower(&s, &[a, b, c], "mm");
        let av = NDArray::random(&[n, n], DType::F64, 1, -1.0, 1.0);
        let bv = NDArray::random(&[n, n], DType::F64, 2, -1.0, 1.0);
        let cv = NDArray::zeros(&[n, n], DType::F64);
        let mut args = [av.clone(), bv.clone(), cv];
        execute(&f, &mut args).expect("execution");
        (av, bv, args[2].clone())
    }

    fn reference_matmul(a: &NDArray, b: &NDArray) -> NDArray {
        let n = a.shape()[0];
        let mut c = NDArray::zeros(&[n, n], DType::F64);
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += a.get(&[i, k]) * b.get(&[k, j]);
                }
                c.set(&[i, j], acc);
            }
        }
        c
    }

    #[test]
    fn matmul_matches_reference() {
        let (a, b, c) = run_matmul(12, 1);
        let r = reference_matmul(&a, &b);
        assert!(c.allclose(&r, 1e-5, 1e-6), "diff={}", c.max_abs_diff(&r));
    }

    #[test]
    fn tiled_matmul_matches_untiled() {
        let (_, _, c1) = run_matmul(16, 1);
        let (_, _, c4) = run_matmul(16, 4);
        assert!(c1.allclose(&c4, 1e-5, 1e-6));
    }

    #[test]
    fn nondivisible_tile_still_correct() {
        let (a, b, c) = run_matmul(10, 3);
        let r = reference_matmul(&a, &b);
        assert!(c.allclose(&r, 1e-5, 1e-6), "diff={}", c.max_abs_diff(&r));
    }

    #[test]
    fn arity_checked() {
        let a = placeholder([2], DType::F64, "A");
        let b = compute([2], "B", |i| a.at(&[i[0].clone()]));
        let s = Schedule::create(std::slice::from_ref(&b));
        let f = lower(&s, &[a, b], "id");
        let mut args = [NDArray::zeros(&[2], DType::F64)];
        assert!(matches!(
            execute(&f, &mut args),
            Err(ExecError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn shape_checked() {
        let a = placeholder([2], DType::F64, "A");
        let b = compute([2], "B", |i| a.at(&[i[0].clone()]));
        let s = Schedule::create(std::slice::from_ref(&b));
        let f = lower(&s, &[a, b], "id");
        let mut args = [
            NDArray::zeros(&[3], DType::F64),
            NDArray::zeros(&[2], DType::F64),
        ];
        assert!(matches!(
            execute(&f, &mut args),
            Err(ExecError::ArgMismatch { .. })
        ));
    }

    #[test]
    fn dtype_checked() {
        let a = placeholder([2], DType::F64, "A");
        let b = compute([2], "B", |i| a.at(&[i[0].clone()]));
        let s = Schedule::create(std::slice::from_ref(&b));
        let f = lower(&s, &[a, b], "id");
        let mut args = [
            NDArray::zeros(&[2], DType::I64),
            NDArray::zeros(&[2], DType::F64),
        ];
        assert!(matches!(
            execute(&f, &mut args),
            Err(ExecError::ArgMismatch { .. })
        ));
    }

    #[test]
    fn intermediate_alloc_chain() {
        let a = placeholder([4], DType::F64, "A");
        let t = compute([4], "T", |i| a.at(&[i[0].clone()]) * 2i64);
        let o = compute([4], "O", |i| t.at(&[i[0].clone()]) + 1i64);
        let s = Schedule::create(std::slice::from_ref(&o));
        let f = lower(&s, &[a, o], "chain");
        let mut args = [
            NDArray::from_f64(&[4], &[1.0, 2.0, 3.0, 4.0]),
            NDArray::zeros(&[4], DType::F64),
        ];
        execute(&f, &mut args).expect("run");
        assert_eq!(args[1].to_f64_vec(), vec![3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn in_place_builder_kernel() {
        // Built via the imperative builder: A[i] = A[i] + i (in place)
        use tvm_tir::builder::{ser, store, FuncBuilder};
        let a = placeholder([4], DType::F64, "A");
        let mut fb = FuncBuilder::new("inc");
        let ab = fb.param(&a);
        let body = ser("i", 4, |i| {
            store(
                &ab,
                std::slice::from_ref(&i),
                a.at(std::slice::from_ref(&i)) + i.clone(),
            )
        });
        let f = fb.build(body);
        let mut args = [NDArray::from_f64(&[4], &[10.0, 10.0, 10.0, 10.0])];
        execute(&f, &mut args).expect("run");
        assert_eq!(args[0].to_f64_vec(), vec![10.0, 11.0, 12.0, 13.0]);
    }

    #[test]
    fn out_of_bounds_detected() {
        use tvm_tir::builder::{ser, store, FuncBuilder};
        let a = placeholder([4], DType::F64, "A");
        let mut fb = FuncBuilder::new("oob");
        let ab = fb.param(&a);
        let body = ser("i", 5, |i| {
            store(&ab, &[i], tvm_te::PrimExpr::FloatImm(1.0, DType::F64))
        });
        let f = fb.build(body);
        let mut args = [NDArray::zeros(&[4], DType::F64)];
        assert_eq!(execute(&f, &mut args), Err(oob("A", &[4])));
    }

    // The error tests below build their bodies by hand, without the
    // builder's simplification and verification, so that ill-formed code
    // reaches the interpreter as written.

    fn int(v: i64) -> PrimExpr {
        PrimExpr::IntImm(v, DType::I64)
    }

    fn flt(v: f64) -> PrimExpr {
        PrimExpr::FloatImm(v, DType::F64)
    }

    fn bin(op: BinOp, a: PrimExpr, b: PrimExpr) -> PrimExpr {
        PrimExpr::binary(op, a, b)
    }

    fn serial(var: &tvm_te::Var, extent: i64, body: Stmt) -> Stmt {
        Stmt::For {
            var: var.clone(),
            min: 0,
            extent,
            kind: tvm_tir::ForKind::Serial,
            body: Box::new(body),
        }
    }

    fn put(buf: &Arc<Buffer>, indices: Vec<PrimExpr>, value: PrimExpr) -> Stmt {
        Stmt::BufferStore {
            buffer: buf.clone(),
            indices,
            value,
        }
    }

    fn raw_func(params: &[&Arc<Buffer>], body: Stmt) -> PrimFunc {
        PrimFunc {
            name: "raw".into(),
            params: params.iter().map(|&b| b.clone()).collect(),
            allocs: Vec::new(),
            body,
        }
    }

    fn oob(buffer: &str, indices: &[i64]) -> ExecError {
        ExecError::OutOfBounds {
            buffer: buffer.into(),
            indices: indices.to_vec(),
        }
    }

    fn bad(msg: &str) -> ExecError {
        ExecError::BadExpr(msg.into())
    }

    /// Runs `body` over a 3×4×5 input `A` (holding its linear offsets)
    /// and a 2×3 output `O` (zeros). Returns the result and the arrays
    /// as they are afterwards.
    fn run_on_a_and_o(
        body: impl FnOnce(&tvm_te::Tensor, &Arc<Buffer>) -> Stmt,
    ) -> (Result<(), ExecError>, [NDArray; 2]) {
        let a = placeholder([3, 4, 5], DType::F64, "A");
        let ab = Buffer::from_tensor(&a);
        let ob = Buffer::new("O", vec![2, 3], DType::F64);
        let f = raw_func(&[&ab, &ob], body(&a, &ob));
        let vals: Vec<f64> = (0..60).map(|x| x as f64).collect();
        let mut args = [
            NDArray::from_f64(&[3, 4, 5], &vals),
            NDArray::zeros(&[2, 3], DType::F64),
        ];
        let r = execute(&f, &mut args);
        (r, args)
    }

    #[test]
    fn an_out_of_bounds_read_reports_the_indices_up_to_the_failing_dimension() {
        // A[1, 7, 1 / 0]: dimension 1 fails, and the third index, which
        // would divide by zero, is never evaluated.
        let (r, _) = run_on_a_and_o(|a, o| {
            let idx = vec![int(1), int(7), bin(BinOp::Div, int(1), int(0))];
            put(
                o,
                vec![int(0), int(0)],
                PrimExpr::TensorRead(a.clone(), idx),
            )
        });
        assert_eq!(r, Err(oob("A", &[1, 7])));
        let (r, _) = run_on_a_and_o(|a, o| {
            let idx = vec![int(-1), int(0), int(0)];
            put(
                o,
                vec![int(0), int(0)],
                PrimExpr::TensorRead(a.clone(), idx),
            )
        });
        assert_eq!(r, Err(oob("A", &[-1])));
        let (r, args) = run_on_a_and_o(|a, o| {
            let idx = vec![int(2), int(3), int(4)];
            put(
                o,
                vec![int(1), int(2)],
                PrimExpr::TensorRead(a.clone(), idx),
            )
        });
        assert_eq!(r, Ok(()));
        assert_eq!(args[1].get(&[1, 2]), 59.0);
    }

    #[test]
    fn an_out_of_bounds_store_evaluates_its_value_first_and_reports_every_index() {
        // Every index is evaluated before any is checked: O[5, 9].
        let (r, _) = run_on_a_and_o(|_, o| put(o, vec![int(5), int(9)], flt(1.0)));
        assert_eq!(r, Err(oob("O", &[5, 9])));
        let (r, _) = run_on_a_and_o(|_, o| put(o, vec![int(0), int(3)], flt(1.0)));
        assert_eq!(r, Err(oob("O", &[0, 3])));
        // An index that fails to evaluate after the failing dimension
        // wins over the bounds check.
        let (r, _) = run_on_a_and_o(|_, o| {
            let idx = vec![int(5), bin(BinOp::FloorMod, int(1), int(0))];
            put(o, idx, flt(1.0))
        });
        assert_eq!(r, Err(bad("floormod by zero")));
        // The value's out-of-bounds read comes before the store's own.
        let (r, _) = run_on_a_and_o(|a, o| {
            let read = PrimExpr::TensorRead(a.clone(), vec![int(3), int(0), int(0)]);
            put(o, vec![int(5), int(9)], read)
        });
        assert_eq!(r, Err(oob("A", &[3])));
    }

    #[test]
    fn an_error_in_the_value_comes_before_an_error_in_an_index() {
        let (r, _) = run_on_a_and_o(|_, o| {
            let idx = vec![bin(BinOp::Div, int(1), int(0)), int(0)];
            put(o, idx, bin(BinOp::FloorDiv, int(1), int(0)))
        });
        assert_eq!(r, Err(bad("floordiv by zero")));
    }

    #[test]
    fn an_unbound_variable_is_reported_by_name() {
        let ghost = tvm_te::Var::index("ghost");
        let (r, args) = run_on_a_and_o(|_, o| put(o, vec![int(0), int(0)], ghost.expr()));
        assert_eq!(r, Err(bad("unbound variable `ghost`")));
        assert_eq!(args[1].to_f64_vec(), vec![0.0; 6]);
    }

    #[test]
    fn a_shadowed_loop_id_is_unbound_after_the_inner_loop_until_the_outer_sets_it() {
        let i = tvm_te::Var::index("i");
        // for i { for i { O[0, i] = 1 }; O[1, i] = 2 }: the outer binding
        // is gone once the inner loop ends, and the arrays are untouched.
        let (r, args) = run_on_a_and_o(|_, o| {
            let inner = serial(&i, 3, put(o, vec![int(0), i.expr()], flt(1.0)));
            let after = put(o, vec![int(1), i.expr()], flt(2.0));
            serial(&i, 2, Stmt::Seq(vec![inner, after]))
        });
        assert_eq!(r, Err(bad("unbound variable `i`")));
        assert_eq!(args[1].to_f64_vec(), vec![0.0; 6]);
        // A loop that runs no iteration still unbinds the id.
        let (r, _) = run_on_a_and_o(|_, o| {
            let inner = serial(&i, 0, Stmt::Nop);
            let after = put(o, vec![int(1), i.expr()], flt(2.0));
            serial(&i, 2, Stmt::Seq(vec![inner, after]))
        });
        assert_eq!(r, Err(bad("unbound variable `i`")));
        // for i { O[1, i] = 2 + i; for i { O[0, i] = 1 + i } }: each outer
        // iteration binds i again.
        let (r, args) = run_on_a_and_o(|_, o| {
            let before = put(
                o,
                vec![int(1), i.expr()],
                bin(BinOp::Add, flt(2.0), i.expr()),
            );
            let inner = serial(
                &i,
                3,
                put(
                    o,
                    vec![int(0), i.expr()],
                    bin(BinOp::Add, flt(1.0), i.expr()),
                ),
            );
            serial(&i, 2, Stmt::Seq(vec![before, inner]))
        });
        assert_eq!(r, Ok(()));
        assert_eq!(args[1].to_f64_vec(), vec![1.0, 2.0, 3.0, 2.0, 3.0, 0.0]);
    }

    #[test]
    fn division_by_zero_fails_on_integers_only() {
        for (op, msg) in [
            (BinOp::Div, "integer division by zero"),
            (BinOp::FloorDiv, "floordiv by zero"),
            (BinOp::FloorMod, "floormod by zero"),
        ] {
            let (r, _) =
                run_on_a_and_o(|_, o| put(o, vec![int(0), int(0)], bin(op, int(3), int(0))));
            assert_eq!(r, Err(bad(msg)), "{op:?}");
        }
        // An integer over a float zero is a float division.
        let (r, args) =
            run_on_a_and_o(|_, o| put(o, vec![int(0), int(0)], bin(BinOp::Div, int(3), flt(0.0))));
        assert_eq!(r, Ok(()));
        assert_eq!(args[1].get(&[0, 0]), f64::INFINITY);
    }

    #[test]
    fn arithmetic_follows_the_static_dtype_not_the_value() {
        // A read of an i64 tensor is integer-typed: I[0] / 2 divides
        // 7 by 2 as integers, and 0.5 > 0 compares as floats.
        let t = placeholder([1], DType::I64, "I");
        let tb = Buffer::from_tensor(&t);
        let ob = Buffer::new("O", vec![2], DType::F64);
        let quotient = bin(BinOp::Div, t.at(&[int(0)]), int(2));
        let gt = PrimExpr::cmp(CmpOp::Gt, flt(0.5), int(0));
        let body = Stmt::Seq(vec![
            put(&ob, vec![int(0)], quotient),
            put(&ob, vec![int(1)], gt),
        ]);
        let f = raw_func(&[&tb, &ob], body);
        let mut seven = NDArray::zeros(&[1], DType::I64);
        seven.set(&[0], 7.0);
        let mut args = [seven, NDArray::zeros(&[2], DType::F64)];
        assert_eq!(execute(&f, &mut args), Ok(()));
        assert_eq!(args[1].to_f64_vec(), vec![3.0, 1.0]);
    }
}
