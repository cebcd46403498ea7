//! Reference interpreter for lowered TIR.
//!
//! Executes a [`PrimFunc`] against host [`NDArray`]s with exact loop-nest
//! semantics. `Parallel`/`Vectorized`/`Unrolled` loops execute with
//! *sequential semantics* here (like TVM's reference interpreter); their
//! kinds are exploited by the timing devices (`CpuDevice` repeats, the
//! `gpu-sim` cost model) rather than by this functional path.

use crate::ndarray::NDArray;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use tvm_te::{BinOp, CmpOp, PrimExpr};
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
    /// buffer id -> storage slot.
    buf_slot: HashMap<u64, usize>,
    /// TE op id -> storage slot (for `TensorRead`).
    op_slot: HashMap<u64, usize>,
    /// loop var id -> current value.
    env: HashMap<u64, i64>,
}

impl<'a> Machine<'a> {
    fn eval_index(&self, e: &PrimExpr) -> Result<i64, ExecError> {
        Ok(self.eval(e)?.as_i64())
    }

    fn read_tensor(&self, op_id: u64, name: &str, idx: &[PrimExpr]) -> Result<f64, ExecError> {
        let slot = *self
            .op_slot
            .get(&op_id)
            .ok_or_else(|| ExecError::BadExpr(format!("tensor `{name}` has no storage")))?;
        let arr = &self.storage[slot];
        let mut lin = 0usize;
        let strides = arr.strides();
        let shape = arr.shape();
        let mut raw = Vec::with_capacity(idx.len());
        for (d, ie) in idx.iter().enumerate() {
            let i = self.eval_index(ie)?;
            raw.push(i);
            if i < 0 || i as usize >= shape[d] {
                return Err(ExecError::OutOfBounds {
                    buffer: name.to_string(),
                    indices: raw,
                });
            }
            lin += i as usize * strides[d];
        }
        Ok(arr.get_f64_linear(lin))
    }

    fn eval(&self, e: &PrimExpr) -> Result<Value, ExecError> {
        match e {
            PrimExpr::IntImm(v, _) => Ok(Value::I(*v)),
            PrimExpr::FloatImm(v, _) => Ok(Value::F(*v)),
            PrimExpr::BoolImm(b) => Ok(Value::I(*b as i64)),
            PrimExpr::Var(v) => self
                .env
                .get(&v.id)
                .map(|&x| Value::I(x))
                .ok_or_else(|| ExecError::BadExpr(format!("unbound variable `{}`", v.name))),
            PrimExpr::Binary(op, a, b) => {
                let (va, vb) = (self.eval(a)?, self.eval(b)?);
                let dt = e.dtype();
                if dt.is_float() {
                    let (x, y) = (va.as_f64(), vb.as_f64());
                    Ok(Value::F(match op {
                        BinOp::Add => x + y,
                        BinOp::Sub => x - y,
                        BinOp::Mul => x * y,
                        BinOp::Div => x / y,
                        BinOp::FloorDiv => (x / y).floor(),
                        BinOp::FloorMod => x - (x / y).floor() * y,
                        BinOp::Min => x.min(y),
                        BinOp::Max => x.max(y),
                    }))
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
                    Ok(Value::I(r))
                }
            }
            PrimExpr::Cmp(op, a, b) => {
                let (va, vb) = (self.eval(a)?, self.eval(b)?);
                let r = if a.dtype().unify(b.dtype()).is_float() {
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
                Ok(Value::I(r as i64))
            }
            PrimExpr::And(a, b) => Ok(Value::I(
                (self.eval(a)?.truthy() && self.eval(b)?.truthy()) as i64,
            )),
            PrimExpr::Or(a, b) => Ok(Value::I(
                (self.eval(a)?.truthy() || self.eval(b)?.truthy()) as i64,
            )),
            PrimExpr::Not(a) => Ok(Value::I(!self.eval(a)?.truthy() as i64)),
            PrimExpr::Sqrt(a) => Ok(Value::F(self.eval(a)?.as_f64().sqrt())),
            PrimExpr::TensorRead(t, idx) => {
                Ok(Value::F(self.read_tensor(t.op.id, t.name(), idx)?))
            }
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
                for it in *min..(min + extent) {
                    self.env.insert(var.id, it);
                    self.exec(body)?;
                }
                self.env.remove(&var.id);
                Ok(())
            }
            Stmt::BufferStore {
                buffer,
                indices,
                value,
            } => {
                let val = self.eval(value)?;
                let slot = *self.buf_slot.get(&buffer.id).ok_or_else(|| {
                    ExecError::BadExpr(format!("no storage for `{}`", buffer.name))
                })?;
                let mut raw = Vec::with_capacity(indices.len());
                for ie in indices {
                    raw.push(self.eval_index(ie)?);
                }
                let arr = &mut self.storage[slot];
                let shape = arr.shape().to_vec();
                let strides = arr.strides();
                let mut lin = 0usize;
                for (d, &i) in raw.iter().enumerate() {
                    if i < 0 || i as usize >= shape[d] {
                        return Err(ExecError::OutOfBounds {
                            buffer: buffer.name.clone(),
                            indices: raw,
                        });
                    }
                    lin += i as usize * strides[d];
                }
                arr.set_f64_linear(lin, val.as_f64());
                Ok(())
            }
            Stmt::IfThenElse { cond, then, else_ } => {
                if self.eval(cond)?.truthy() {
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

    let mut buf_slot = HashMap::new();
    let mut op_slot = HashMap::new();
    for (i, b) in func.params.iter().chain(func.allocs.iter()).enumerate() {
        buf_slot.insert(b.id, i);
        if b.source_op != 0 {
            op_slot.insert(b.source_op, i);
        }
    }

    let mut m = Machine {
        storage: &mut all,
        buf_slot,
        op_slot,
        env: HashMap::new(),
    };
    m.exec(&func.body)?;

    for (i, a) in args.iter_mut().enumerate() {
        *a = all[i].clone();
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
        assert!(matches!(
            execute(&f, &mut args),
            Err(ExecError::OutOfBounds { .. })
        ));
    }
}
