//! Register VM executing [`CompiledFunc`] programs.
//!
//! The VM holds two flat register files (`i64` and `f64`) and the buffer
//! storage; the steady state allocates nothing — error paths materialise
//! their index vectors only on failure. Semantics are bit-identical to
//! [`crate::interp`]: every arithmetic step, coercion, rounding and error
//! message matches the interpreter's, which the differential tests in the
//! workspace enforce across all PolyBench kernels.

use crate::compile::{live_range, Block, CompiledFunc, Instr, Item, LoopKind, Reg, SlotAccess};
use crate::interp::ExecError;
use crate::ndarray::NDArray;
use crate::pool;
use std::sync::Mutex;
use tvm_te::{BinOp, CmpOp, DType};
use tvm_tir::PrimFunc;

struct Vm<'a> {
    iregs: Vec<i64>,
    fregs: Vec<f64>,
    cf: &'a CompiledFunc,
    /// Storage base pointers handed to every [`Item::JitCall`], built
    /// once per VM by [`slot_table`] (empty when nothing is jitted).
    slots: Vec<*mut u8>,
}

/// The slot base-pointer table of the JIT ABI, one entry per storage
/// slot. The pointers stay valid for as long as `storage` is neither
/// dropped nor resized, which no execution does, so one table serves
/// every `JitCall` of a run.
fn slot_table(cf: &CompiledFunc, storage: &mut [NDArray]) -> Vec<*mut u8> {
    if cf.jit.is_none() {
        return Vec::new();
    }
    storage.iter_mut().map(|a| a.base_ptr_mut()).collect()
}

impl<'a> Vm<'a> {
    fn exec_block(&mut self, b: &Block, storage: &mut [NDArray]) -> Result<(), ExecError> {
        for item in &b.items {
            match item {
                Item::Code(code) => self.exec_code(code, storage)?,
                Item::Loop {
                    var,
                    min,
                    extent,
                    clamp,
                    pre,
                    bumps,
                    body,
                    kind,
                } => {
                    // One range computation for static and trimmed
                    // loops alike (no clamp = the static range).
                    let (start, end) = live_range(*min, *extent, *clamp, &self.iregs);
                    if let LoopKind::Parallel { proven } = kind {
                        if let Some(plan) =
                            pool::begin_parallel(*proven, end - start, self.cf.par.as_deref())
                        {
                            // Hoisted registers are sequential state: the
                            // optimizer leaves a loop with work to split
                            // as it is.
                            debug_assert!(pre.is_empty());
                            self.exec_parallel(
                                *var,
                                start,
                                end - start,
                                body,
                                plan.n_chunks,
                                storage,
                            )?;
                            continue;
                        }
                    }
                    if !pre.is_empty() {
                        // The hoisted registers, computed for the first
                        // live iteration by the very instructions that
                        // computed them every iteration (pure: an empty
                        // range runs them and nothing else).
                        self.iregs[*var as usize] = start;
                        self.exec_code(pre, storage)?;
                    }
                    for it in start..end {
                        self.iregs[*var as usize] = it;
                        self.exec_block(body, storage)?;
                        self.bump(bumps);
                    }
                }
                Item::StridedLoop {
                    min,
                    extent,
                    clamp,
                    pre,
                    bumps,
                    body,
                    carry,
                    kind,
                    ..
                } => {
                    let (start, end) = live_range(*min, *extent, *clamp, &self.iregs);
                    // The prelude computes every affine register for
                    // iteration `min`; a trimmed loop then advances them
                    // to its first live iteration, and each iteration
                    // advances them by their constant stride instead of
                    // recomputing. An empty live range runs the (pure)
                    // prelude and nothing else.
                    self.exec_code(pre, storage)?;
                    let skip = start - min;
                    if skip != 0 {
                        for &(r, s) in bumps.iter() {
                            // Same wrapping arithmetic as `skip`
                            // per-iteration bumps.
                            let v = &mut self.iregs[r as usize];
                            *v = v.wrapping_add(s.wrapping_mul(skip));
                        }
                    }
                    if let Some(c) = carry {
                        // A carry is sequential state: the optimizer
                        // never forwards a loop whose iterations may be
                        // split, and strided loops never reach the pool.
                        debug_assert!(*kind != LoopKind::Parallel { proven: true });
                        // The load is proven in bounds for iterations
                        // that run; an empty range must not issue it.
                        if start < end {
                            let lin = self.iregs[c.addr as usize] as usize;
                            self.fregs[c.acc as usize] =
                                storage[c.slot as usize].get_f64_linear(lin);
                        }
                    }
                    for _ in start..end {
                        self.exec_code(body, storage)?;
                        if let Some(c) = carry {
                            self.fregs[c.acc as usize] = self.fregs[c.next as usize];
                        }
                        self.bump(bumps);
                    }
                }
                Item::MulAddLoop {
                    extent,
                    pre,
                    dst,
                    a,
                    b,
                } => {
                    self.exec_code(pre, storage)?;
                    self.exec_muladd(*extent, dst, a, b, storage);
                }
                Item::If { cond, then, else_ } => {
                    if self.iregs[*cond as usize] != 0 {
                        self.exec_block(then, storage)?;
                    } else if let Some(e) = else_ {
                        self.exec_block(e, storage)?;
                    }
                }
                Item::JitCall { entry } => {
                    let program = self.cf.jit.as_ref().expect("JitCall without program");
                    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
                    {
                        assert_eq!(self.slots.len(), storage.len());
                        let f = program.entry_fn(*entry);
                        // Safety: the backend only compiles nests whose
                        // every memory access was statically proven
                        // in-bounds (no Bound/StoreChecked instructions;
                        // a trimmed loop visits a subset of the
                        // iterations the proofs cover, see
                        // `compile::live_range`), register indices are
                        // < n_iregs/n_fregs by construction, and the
                        // storage base pointers in `self.slots` stay
                        // valid for the whole execution (the VM never
                        // resizes storage mid-execution).
                        unsafe {
                            f(
                                self.iregs.as_mut_ptr(),
                                self.fregs.as_mut_ptr(),
                                self.slots.as_ptr(),
                            )
                        };
                    }
                    #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
                    {
                        // Non-native targets use NoopBackend, which never
                        // produces JitCall items.
                        let _ = (entry, program);
                        unreachable!("JitCall on a target without native codegen");
                    }
                }
            }
        }
        Ok(())
    }

    /// Advance every bumped register by one iteration's stride. Wrapping:
    /// the bump after the final iteration computes a value the scalar
    /// program never does; it is never read.
    fn bump(&mut self, bumps: &[(Reg, i64)]) {
        for &(r, s) in bumps {
            let v = &mut self.iregs[r as usize];
            *v = v.wrapping_add(s);
        }
    }

    /// Run a proven-race-free `Parallel` loop by splitting its iteration
    /// range into contiguous chunks executed on the persistent worker pool.
    ///
    /// Bit-exactness argument:
    /// - The analyzer proved no iteration reads or writes an element another
    ///   iteration writes, and every access proven is affine in the loop
    ///   variables, so each chunk's loads, stores and error checks are
    ///   independent of whether other chunks have run.
    /// - Each chunk executes on a *clone* of the caller's register files.
    ///   That is sound because the compiler is single-assignment apart from
    ///   loop variables and stride bumps, both of which are defined and
    ///   consumed strictly inside their loop: no register written inside the
    ///   loop body is ever read after the loop, so discarding the clones
    ///   cannot lose state the sequential program would have kept.
    /// - Error classification is preserved by returning the error of the
    ///   *lowest-indexed* failing chunk: chunks are contiguous ascending
    ///   ranges run sequentially within themselves, so that error is exactly
    ///   the first one sequential execution would hit. Later chunks may have
    ///   stored into the shared buffers before the error surfaces, but
    ///   `execute` only copies storage back to the caller on success, so
    ///   those writes are unobservable — same as sequential never reaching
    ///   them.
    fn exec_parallel(
        &mut self,
        var: Reg,
        min: i64,
        extent: i64,
        body: &Block,
        n_chunks: usize,
        storage: &mut [NDArray],
    ) -> Result<(), ExecError> {
        /// Raw view of the storage slice shared across worker threads.
        ///
        /// Safety: the race-freedom proof guarantees chunks touch disjoint
        /// elements (or read only elements no chunk writes), and the caller
        /// blocks in `run_chunks` until every chunk finished, so the
        /// pointer outlives all accesses.
        struct SharedStorage(*mut NDArray, usize);
        unsafe impl Sync for SharedStorage {}

        let shared = SharedStorage(storage.as_mut_ptr(), storage.len());
        // Borrow the wrapper (not its raw-pointer field): edition-2021
        // closures capture disjoint fields, and a bare `*mut NDArray`
        // capture would not be `Sync`.
        let shared = &shared;
        // First error per ascending chunk index wins (see doc comment).
        let first_err: Mutex<Option<(usize, ExecError)>> = Mutex::new(None);
        let iregs = &self.iregs;
        let fregs = &self.fregs;
        let cf = self.cf;
        pool::run_chunks(n_chunks, &|c| {
            let (lo, hi) = pool::chunk_range(min, extent, c, n_chunks);
            let st = unsafe { std::slice::from_raw_parts_mut(shared.0, shared.1) };
            let mut vm = Vm {
                iregs: iregs.clone(),
                fregs: fregs.clone(),
                cf,
                slots: slot_table(cf, st),
            };
            for it in lo..hi {
                vm.iregs[var as usize] = it;
                if let Err(e) = vm.exec_block(body, st) {
                    let mut g = pool::lock(&first_err);
                    if g.as_ref().is_none_or(|(pc, _)| c < *pc) {
                        *g = Some((c, e));
                    }
                    break;
                }
            }
        });
        let first = pool::lock(&first_err).take();
        match first {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }

    fn exec_code(&mut self, code: &[Instr], storage: &mut [NDArray]) -> Result<(), ExecError> {
        for instr in code {
            match instr {
                Instr::IConst(d, v) => self.iregs[*d as usize] = *v,
                Instr::FConst(d, v) => self.fregs[*d as usize] = *v,
                Instr::IToF(d, s) => self.fregs[*d as usize] = self.iregs[*s as usize] as f64,
                Instr::FToI(d, s) => self.iregs[*d as usize] = self.fregs[*s as usize] as i64,
                Instr::FBool(d, s) => {
                    self.iregs[*d as usize] = (self.fregs[*s as usize] != 0.0) as i64;
                }
                Instr::IBin(op, d, a, b) => {
                    let (x, y) = (self.iregs[*a as usize], self.iregs[*b as usize]);
                    self.iregs[*d as usize] = match op {
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
                }
                Instr::FBin(op, d, a, b) => {
                    let (x, y) = (self.fregs[*a as usize], self.fregs[*b as usize]);
                    self.fregs[*d as usize] = fbin(*op, x, y);
                }
                Instr::ICmp(op, d, a, b) => {
                    let (x, y) = (self.iregs[*a as usize], self.iregs[*b as usize]);
                    self.iregs[*d as usize] = icmp(*op, x, y) as i64;
                }
                Instr::FCmp(op, d, a, b) => {
                    let (x, y) = (self.fregs[*a as usize], self.fregs[*b as usize]);
                    self.iregs[*d as usize] = fcmp(*op, x, y) as i64;
                }
                Instr::And(d, a, b) => {
                    self.iregs[*d as usize] =
                        (self.iregs[*a as usize] != 0 && self.iregs[*b as usize] != 0) as i64;
                }
                Instr::Or(d, a, b) => {
                    self.iregs[*d as usize] =
                        (self.iregs[*a as usize] != 0 || self.iregs[*b as usize] != 0) as i64;
                }
                Instr::Not(d, a) => {
                    self.iregs[*d as usize] = (self.iregs[*a as usize] == 0) as i64;
                }
                Instr::Sqrt(d, x) => {
                    self.fregs[*d as usize] = self.fregs[*x as usize].sqrt();
                }
                Instr::Bound { buf, extent, idx } => {
                    let i = self.iregs[idx[idx.len() - 1] as usize];
                    if i < 0 || i >= *extent {
                        return Err(ExecError::OutOfBounds {
                            buffer: self.cf.slot_names[*buf as usize].clone(),
                            indices: idx.iter().map(|&r| self.iregs[r as usize]).collect(),
                        });
                    }
                }
                Instr::Load(d, buf, addr) => {
                    let lin = self.iregs[*addr as usize] as usize;
                    self.fregs[*d as usize] = storage[*buf as usize].get_f64_linear(lin);
                }
                Instr::Store(buf, addr, val) => {
                    let lin = self.iregs[*addr as usize] as usize;
                    storage[*buf as usize].set_f64_linear(lin, self.fregs[*val as usize]);
                }
                Instr::FMulAdd { dst, add, a, b } => {
                    // Fused dispatch, unfused rounding: the product and
                    // the sum each round exactly like the FBin pair this
                    // instruction replaces.
                    let m = self.fregs[*a as usize] * self.fregs[*b as usize];
                    self.fregs[*dst as usize] = self.fregs[*add as usize] + m;
                }
                Instr::StoreChecked { buf, idx, val } => {
                    let shape = &self.cf.slot_shapes[*buf as usize];
                    let strides = &self.cf.slot_strides[*buf as usize];
                    let mut lin = 0usize;
                    for (d, &r) in idx.iter().enumerate() {
                        let i = self.iregs[r as usize];
                        if i < 0 || i as usize >= shape[d] {
                            return Err(ExecError::OutOfBounds {
                                buffer: self.cf.slot_names[*buf as usize].clone(),
                                indices: idx.iter().map(|&r| self.iregs[r as usize]).collect(),
                            });
                        }
                        lin += i as usize * strides[d];
                    }
                    storage[*buf as usize].set_f64_linear(lin, self.fregs[*val as usize]);
                }
            }
        }
        Ok(())
    }

    /// Execute a recognized `dst[·] = dst[·] + a[·]·b[·]` inner loop.
    ///
    /// Every address the loop touches was proven in-bounds at compile
    /// time (the pattern admits no `Bound` instructions), so this path
    /// is infallible. Reductions (`dst` stride 0) keep one accumulator
    /// updated in strictly ascending iteration order — the same fixed
    /// order as the scalar program — and are never lane-split, so
    /// results are bit-identical.
    fn exec_muladd(
        &mut self,
        extent: i64,
        d: &SlotAccess,
        a: &SlotAccess,
        b: &SlotAccess,
        storage: &mut [NDArray],
    ) {
        let n = extent as usize;
        let d0 = self.iregs[d.addr as usize];
        let a0 = self.iregs[a.addr as usize];
        let b0 = self.iregs[b.addr as usize];
        let (ds, asl, bsl) = (d.slot as usize, a.slot as usize, b.slot as usize);
        let f64_slot = |s: usize| storage[s].dtype() == DType::F64;
        if ds != asl && ds != bsl && f64_slot(ds) && f64_slot(asl) && f64_slot(bsl) {
            let (dd, aa, bb) = disjoint3(storage, ds, asl, bsl);
            muladd_f64(
                dd.as_f64_mut(),
                aa.as_f64(),
                bb.as_f64(),
                n,
                (d0, d.stride),
                (a0, a.stride),
                (b0, b.stride),
            );
            return;
        }
        // Generic path: replicate the scalar instruction sequence
        // (load, load, load, fmuladd, store) element by element for
        // mixed dtypes or an in-place destination.
        let (mut di, mut ai, mut bi) = (d0, a0, b0);
        for _ in 0..n {
            let c = storage[ds].get_f64_linear(di as usize);
            let x = storage[asl].get_f64_linear(ai as usize);
            let y = storage[bsl].get_f64_linear(bi as usize);
            storage[ds].set_f64_linear(di as usize, c + x * y);
            di = di.wrapping_add(d.stride);
            ai = ai.wrapping_add(a.stride);
            bi = bi.wrapping_add(b.stride);
        }
    }
}

/// Split storage into one mutable and two shared disjoint-slot borrows
/// (`d` must differ from `a` and `b`; `a == b` is fine).
fn disjoint3(
    st: &mut [NDArray],
    d: usize,
    a: usize,
    b: usize,
) -> (&mut NDArray, &NDArray, &NDArray) {
    debug_assert!(d != a && d != b);
    let (lo, hi) = st.split_at_mut(d);
    let (dref, rest) = hi.split_first_mut().expect("slot in range");
    let pa = if a < d { &lo[a] } else { &rest[a - d - 1] };
    let pb = if b < d { &lo[b] } else { &rest[b - d - 1] };
    (dref, pa, pb)
}

// The chunked element-wise arms of `muladd_f64`. Every destination lane
// is written exactly once, so splitting the loop into 4-lane blocks (plus
// a scalar tail) keeps each element's load → multiply → add → store
// sequence intact — accumulation order is per-element, never across the
// block — while handing LLVM an obvious packed shape it can autovectorize
// without reassociation. Multiply operand order matches the scalar arm.

/// `d[i] += x * b[i]` in 4-lane blocks.
fn axpy_f64(d: &mut [f64], x: f64, b: &[f64]) {
    let mut dc = d.chunks_exact_mut(4);
    let mut bc = b.chunks_exact(4);
    for (dv, y) in (&mut dc).zip(&mut bc) {
        dv[0] += x * y[0];
        dv[1] += x * y[1];
        dv[2] += x * y[2];
        dv[3] += x * y[3];
    }
    for (dv, y) in dc.into_remainder().iter_mut().zip(bc.remainder()) {
        *dv += x * *y;
    }
}

/// `d[i] += a[i] * y` in 4-lane blocks.
fn xpay_f64(d: &mut [f64], a: &[f64], y: f64) {
    let mut dc = d.chunks_exact_mut(4);
    let mut ac = a.chunks_exact(4);
    for (dv, x) in (&mut dc).zip(&mut ac) {
        dv[0] += x[0] * y;
        dv[1] += x[1] * y;
        dv[2] += x[2] * y;
        dv[3] += x[3] * y;
    }
    for (dv, x) in dc.into_remainder().iter_mut().zip(ac.remainder()) {
        *dv += *x * y;
    }
}

/// `d[i] += a[i] * b[i]` in 4-lane blocks.
fn hadamard_f64(d: &mut [f64], a: &[f64], b: &[f64]) {
    let mut dc = d.chunks_exact_mut(4);
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    for ((dv, x), y) in (&mut dc).zip(&mut ac).zip(&mut bc) {
        dv[0] += x[0] * y[0];
        dv[1] += x[1] * y[1];
        dv[2] += x[2] * y[2];
        dv[3] += x[3] * y[3];
    }
    for ((dv, x), y) in dc
        .into_remainder()
        .iter_mut()
        .zip(ac.remainder())
        .zip(bc.remainder())
    {
        *dv += *x * *y;
    }
}

/// `f64` multiply-accumulate microkernel. Operates directly on the
/// stored values, so it is trivially bit-identical to the scalar VM.
#[allow(clippy::needless_range_loop)]
fn muladd_f64(
    d: &mut [f64],
    a: &[f64],
    b: &[f64],
    n: usize,
    (d0, sd): (i64, i64),
    (a0, sa): (i64, i64),
    (b0, sb): (i64, i64),
) {
    let (d0, a0, b0) = (d0 as usize, a0 as usize, b0 as usize);
    match (sd, sa, sb) {
        (0, 1, 1) => {
            // Dot-product reduction: single accumulator, ascending order.
            let mut acc = d[d0];
            for (x, y) in a[a0..a0 + n].iter().zip(&b[b0..b0 + n]) {
                acc += x * y;
            }
            d[d0] = acc;
        }
        (1, 0, 1) => axpy_f64(&mut d[d0..d0 + n], a[a0], &b[b0..b0 + n]),
        (1, 1, 0) => xpay_f64(&mut d[d0..d0 + n], &a[a0..a0 + n], b[b0]),
        (1, 1, 1) => hadamard_f64(&mut d[d0..d0 + n], &a[a0..a0 + n], &b[b0..b0 + n]),
        _ => {
            let (mut di, mut ai, mut bi) = (d0 as i64, a0 as i64, b0 as i64);
            if sd == 0 {
                let mut acc = d[d0];
                for _ in 0..n {
                    acc += a[ai as usize] * b[bi as usize];
                    ai = ai.wrapping_add(sa);
                    bi = bi.wrapping_add(sb);
                }
                d[d0] = acc;
            } else {
                for _ in 0..n {
                    d[di as usize] += a[ai as usize] * b[bi as usize];
                    di = di.wrapping_add(sd);
                    ai = ai.wrapping_add(sa);
                    bi = bi.wrapping_add(sb);
                }
            }
        }
    }
}

#[inline]
fn fbin(op: BinOp, x: f64, y: f64) -> f64 {
    match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => x / y,
        BinOp::FloorDiv => (x / y).floor(),
        BinOp::FloorMod => x - (x / y).floor() * y,
        BinOp::Min => x.min(y),
        BinOp::Max => x.max(y),
    }
}

#[inline]
fn icmp(op: CmpOp, x: i64, y: i64) -> bool {
    match op {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Lt => x < y,
        CmpOp::Le => x <= y,
        CmpOp::Gt => x > y,
        CmpOp::Ge => x >= y,
    }
}

#[inline]
fn fcmp(op: CmpOp, x: f64, y: f64) -> bool {
    match op {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Lt => x < y,
        CmpOp::Le => x <= y,
        CmpOp::Gt => x > y,
        CmpOp::Ge => x >= y,
    }
}

/// Execute a compiled function over `args` (one array per parameter, in
/// order; outputs are written in place on success, untouched on failure) —
/// the same contract and the same error classification as
/// [`crate::interp::execute`].
pub fn execute(cf: &CompiledFunc, args: &mut [NDArray]) -> Result<(), ExecError> {
    if args.len() != cf.params.len() {
        return Err(ExecError::ArityMismatch {
            expected: cf.params.len(),
            got: args.len(),
        });
    }
    for (p, a) in cf.params.iter().zip(args.iter()) {
        if p.shape != a.shape() {
            return Err(ExecError::ArgMismatch {
                name: p.name.clone(),
                detail: format!("shape {:?} != expected {:?}", a.shape(), p.shape),
            });
        }
        if p.dtype != a.dtype() {
            return Err(ExecError::ArgMismatch {
                name: p.name.clone(),
                detail: format!("dtype {} != expected {}", a.dtype(), p.dtype),
            });
        }
    }
    let mut storage: Vec<NDArray> = Vec::with_capacity(cf.params.len() + cf.allocs.len());
    for a in args.iter() {
        storage.push(a.clone());
    }
    for (shape, dtype) in &cf.allocs {
        storage.push(NDArray::zeros(shape, *dtype));
    }
    let mut vm = Vm {
        iregs: vec![0; cf.n_iregs],
        fregs: vec![0.0; cf.n_fregs],
        cf,
        slots: slot_table(cf, &mut storage),
    };
    vm.exec_block(&cf.body, &mut storage)?;
    for (i, a) in args.iter_mut().enumerate() {
        *a = storage[i].clone();
    }
    Ok(())
}

/// Execute `func` through the optimized compiled VM when it compiles,
/// falling back to the reference interpreter otherwise — the engine entry
/// point behind [`crate::Module::run`] and [`crate::CpuDevice`].
pub fn run(func: &PrimFunc, args: &mut [NDArray]) -> Result<(), ExecError> {
    match crate::optimize::compile_optimized(func) {
        Ok(cf) => execute(&cf, args),
        Err(_) => crate::interp::execute(func, args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::interp;
    use tvm_te::{compute, placeholder, reduce_axis, sum, DType, Schedule};
    use tvm_tir::lower::lower;

    fn matmul_func(n: usize, tile: i64) -> PrimFunc {
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
        lower(&s, &[a, b, c], "mm")
    }

    fn differential(f: &PrimFunc, args: &[NDArray]) {
        let mut a1: Vec<NDArray> = args.to_vec();
        let mut a2: Vec<NDArray> = args.to_vec();
        let r1 = interp::execute(f, &mut a1);
        let cf = compile(f).expect("compile");
        let r2 = execute(&cf, &mut a2);
        assert_eq!(r1, r2, "error classification must match the interpreter");
        for (x, y) in a1.iter().zip(a2.iter()) {
            assert_eq!(x, y, "outputs must be bit-identical to the interpreter");
        }
    }

    #[test]
    fn matmul_bit_identical_to_interp() {
        for (n, tile) in [(12usize, 1i64), (16, 4), (10, 3)] {
            let f = matmul_func(n, tile);
            let args = vec![
                NDArray::random(&[n, n], DType::F64, 1, -1.0, 1.0),
                NDArray::random(&[n, n], DType::F64, 2, -1.0, 1.0),
                NDArray::zeros(&[n, n], DType::F64),
            ];
            differential(&f, &args);
        }
    }

    #[test]
    fn intermediate_alloc_chain_matches() {
        let a = placeholder([4], DType::F64, "A");
        let t = compute([4], "T", |i| a.at(&[i[0].clone()]) * 2i64);
        let o = compute([4], "O", |i| t.at(&[i[0].clone()]) + 1i64);
        let s = Schedule::create(std::slice::from_ref(&o));
        let f = lower(&s, &[a, o], "chain");
        let args = vec![
            NDArray::from_f64(&[4], &[1.0, 2.0, 3.0, 4.0]),
            NDArray::zeros(&[4], DType::F64),
        ];
        differential(&f, &args);
        let mut run_args = args.clone();
        run(&f, &mut run_args).expect("run");
        assert_eq!(run_args[1].to_f64_vec(), vec![3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn arity_shape_dtype_errors_match() {
        let a = placeholder([2], DType::F64, "A");
        let b = compute([2], "B", |i| a.at(&[i[0].clone()]));
        let s = Schedule::create(std::slice::from_ref(&b));
        let f = lower(&s, &[a, b], "id");
        let cf = compile(&f).expect("compile");
        // Arity.
        let mut one = vec![NDArray::zeros(&[2], DType::F64)];
        assert_eq!(
            execute(&cf, &mut one),
            interp::execute(&f, &mut one.clone())
        );
        // Shape.
        let mut bad_shape = vec![
            NDArray::zeros(&[3], DType::F64),
            NDArray::zeros(&[2], DType::F64),
        ];
        assert_eq!(
            execute(&cf, &mut bad_shape),
            interp::execute(&f, &mut bad_shape.clone())
        );
        // DType.
        let mut bad_dtype = vec![
            NDArray::zeros(&[2], DType::I64),
            NDArray::zeros(&[2], DType::F64),
        ];
        assert_eq!(
            execute(&cf, &mut bad_dtype),
            interp::execute(&f, &mut bad_dtype.clone())
        );
    }

    #[test]
    fn out_of_bounds_matches_interp() {
        use tvm_tir::builder::{ser, store, FuncBuilder};
        let a = placeholder([4], DType::F64, "A");
        let mut fb = FuncBuilder::new("oob");
        let ab = fb.param(&a);
        let body = ser("i", 5, |i| {
            store(&ab, &[i], tvm_te::PrimExpr::FloatImm(1.0, DType::F64))
        });
        let f = fb.build(body);
        let args = vec![NDArray::zeros(&[4], DType::F64)];
        differential(&f, &args);
        // And the error really is OutOfBounds with the full index vector.
        let cf = compile(&f).expect("compile");
        let mut a2 = args.clone();
        let err = execute(&cf, &mut a2).expect_err("oob");
        assert_eq!(
            err,
            ExecError::OutOfBounds {
                buffer: "A".into(),
                indices: vec![4],
            }
        );
        // Failed runs leave the caller's arrays untouched.
        assert_eq!(a2[0], args[0]);
    }

    #[test]
    fn in_place_builder_kernel_matches() {
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
        let args = vec![NDArray::from_f64(&[4], &[10.0, 10.0, 10.0, 10.0])];
        differential(&f, &args);
    }

    #[test]
    fn division_by_zero_matches_interp() {
        use tvm_tir::builder::{ser, store, FuncBuilder};
        let a = placeholder([4], DType::F64, "A");
        let mut fb = FuncBuilder::new("divz");
        let ab = fb.param(&a);
        let body = ser("i", 4, |i| {
            // i / (i - i): divisor is a non-literal zero, caught at runtime.
            let zero = i.clone() - i.clone();
            store(&ab, &[i.clone() / zero], a.at(&[i]))
        });
        let f = fb.build(body);
        let args = vec![NDArray::zeros(&[4], DType::F64)];
        differential(&f, &args);
    }

    #[test]
    fn run_falls_back_to_interp_on_reject() {
        use tvm_te::PrimExpr;
        use tvm_tir::Stmt;
        let buf = tvm_tir::Buffer::new("A", vec![1usize], DType::F64);
        let f = PrimFunc {
            name: "bad".into(),
            params: vec![buf.clone()],
            allocs: vec![],
            body: Stmt::BufferStore {
                buffer: buf,
                indices: vec![PrimExpr::IntImm(0, DType::I64)],
                value: PrimExpr::Reduce {
                    source: std::sync::Arc::new(PrimExpr::FloatImm(0.0, DType::F64)),
                    axes: vec![],
                },
            },
        };
        let mut args = vec![NDArray::zeros(&[1], DType::F64)];
        // The VM rejects at compile time; `run` must fall back and report
        // the interpreter's own BadExpr.
        let err = run(&f, &mut args).expect_err("reduce");
        assert_eq!(
            err,
            ExecError::BadExpr("Reduce must be lowered before execution".into())
        );
    }

    /// Tiled matmul whose outer row-tile loop carries a `Parallel`
    /// annotation (the shape the polybench molds emit).
    fn parallel_matmul_func(n: usize, tile: i64) -> PrimFunc {
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
        let (yo, yi) = s.split(&c, &y, tile);
        let (xo, xi) = s.split(&c, &x, tile);
        s.reorder(&c, &[yo.clone(), xo, k.clone(), yi, xi]);
        s.parallel(&c, &yo);
        lower(&s, &[a, b, c], "pmm")
    }

    #[test]
    fn proven_parallel_matmul_is_dispatched_and_bit_identical() {
        let _guard = crate::pool::test_threads_lock();
        let f = parallel_matmul_func(16, 4);
        let counters = std::sync::Arc::new(crate::pool::ParCounters::new());
        let mut cf = crate::optimize::compile_optimized(&f).expect("compile_optimized");
        assert_eq!(
            cf.parallel_loop_counts(),
            (1, 0),
            "divisible row tiling must prove race-free"
        );
        cf.par = Some(std::sync::Arc::clone(&counters));
        for threads in [1usize, 2, 4, 7] {
            crate::pool::set_num_threads(threads);
            let args = vec![
                NDArray::random(&[16, 16], DType::F64, 31, -1.0, 1.0),
                NDArray::random(&[16, 16], DType::F64, 32, -1.0, 1.0),
                NDArray::zeros(&[16, 16], DType::F64),
            ];
            let mut seq = args.clone();
            let mut par = args;
            let r1 = interp::execute(&f, &mut seq);
            let r2 = execute(&cf, &mut par);
            assert_eq!(r1, r2);
            for (x, y) in seq.iter().zip(par.iter()) {
                assert_eq!(x, y, "{threads} threads must be bit-identical");
            }
        }
        let stats = counters.snapshot();
        assert_eq!(stats.dispatches, 3, "threads 2/4/7 dispatch: {stats:?}");
        assert!(
            stats
                .fallback_reasons
                .iter()
                .any(|(r, n)| r == "single-thread" && *n == 1),
            "the 1-thread run must fall back with a reason: {stats:?}"
        );
    }

    #[test]
    fn parallel_error_classification_matches_interp() {
        use tvm_tir::builder::{par, store, FuncBuilder};
        let _guard = crate::pool::test_threads_lock();
        crate::pool::set_num_threads(4);
        let a = placeholder([8], DType::F64, "A");
        let b = placeholder([8], DType::F64, "B");
        let mut fb = FuncBuilder::new("oob_par");
        let _ab = fb.param(&a);
        let bb = fb.param(&b);
        // Race-free (every iteration writes a distinct element) but every
        // write lands out of bounds: the loop dispatches in parallel and
        // must still report the exact error sequential execution hits
        // first (iteration 0, in chunk 0).
        let body = par("i", 8, move |i| {
            store(&bb, &[i.clone() + 100i64], a.at(&[i]))
        });
        let f = fb.build(body);
        let cf = crate::optimize::compile_optimized(&f).expect("compile_optimized");
        assert_eq!(cf.parallel_loop_counts(), (1, 0), "OOB is not a race");
        let args = vec![
            NDArray::random(&[8], DType::F64, 33, -1.0, 1.0),
            NDArray::zeros(&[8], DType::F64),
        ];
        let mut seq = args.clone();
        let mut par_args = args;
        let r1 = interp::execute(&f, &mut seq);
        let r2 = execute(&cf, &mut par_args);
        assert!(r1.is_err(), "the kernel must fail");
        assert_eq!(r1, r2, "parallel error classification must match");
        for (x, y) in seq.iter().zip(par_args.iter()) {
            assert_eq!(x, y, "failed runs must leave arguments untouched");
        }
    }
}
