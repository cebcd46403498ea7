//! The backend and the templates: [`X86Backend`] replaces every
//! jittable nest of a function by a call into code [`NestCompiler`]
//! emits, one template per bytecode item, through [`Asm`]'s layers.

use super::asm::*;
use super::plan::*;
use crate::codegen::exec_mem::ExecBuf;
use crate::codegen::{CodegenBackend, JitProgram, SimdReport};
use crate::compile::{
    forwarded_in, Block, Carry, Clamp, CompileError, CompiledFunc, Instr, Item, LoopKind, Reg,
    SlotAccess,
};
use std::rc::Rc;
use std::sync::Arc;
use tvm_te::{BinOp, CmpOp, DType, Intrinsic};

// ------------------------------------------------------------ nest codegen

/// Hand-rolled x86-64 backend (the only native backend today; the
/// [`CodegenBackend`] trait keeps aarch64/Cranelift additive).
#[derive(Debug, Clone)]
pub struct X86Backend {
    /// The widest float instructions emitted: VEX-256 (4×f64) where AVX
    /// is detected, SSE2 128-bit otherwise, in the microkernels and the
    /// jam; `Scalar` is the fully scalar tier — bit-identical output,
    /// every microkernel row counted under the `simd-disabled` reason.
    shape: Shape,
}

impl X86Backend {
    /// Detect host features.
    pub fn detect() -> X86Backend {
        X86Backend {
            shape: if std::arch::is_x86_feature_detected!("avx") {
                Shape::Avx
            } else {
                Shape::Sse
            },
        }
    }

    /// SSE2-only variant (what a pre-AVX host would produce); used by
    /// tests to cover both vector paths on one machine.
    pub fn sse2_only() -> X86Backend {
        X86Backend { shape: Shape::Sse }
    }

    /// Fully scalar variant; tests compare the packed tiers against it
    /// on one machine.
    pub fn scalar_only() -> X86Backend {
        X86Backend {
            shape: Shape::Scalar,
        }
    }

    /// The AVX tier whatever the host: for tests that emit and never run.
    #[cfg(test)]
    fn avx() -> X86Backend {
        X86Backend { shape: Shape::Avx }
    }

    /// The widest float instruction this configuration emits.
    fn width(&self) -> Width {
        Width::new(self.shape)
    }
}

impl CodegenBackend for X86Backend {
    fn name(&self) -> &'static str {
        "x86_64"
    }

    fn jit_compile(&self, cf: &CompiledFunc) -> Result<CompiledFunc, CompileError> {
        let dts: Vec<DType> = cf
            .params
            .iter()
            .map(|p| p.dtype)
            .chain(cf.allocs.iter().map(|(_, dt)| *dt))
            .collect();
        let mut rw = Rewriter {
            dts: &dts,
            opts: self,
            asm: Asm::new(),
            entries: Vec::new(),
            first_reason: None,
            simd: SimdReport::default(),
            walk: Walk::with_iregs(cf.n_iregs),
        };
        let body = rw.block(&cf.body);
        let Rewriter {
            asm,
            entries,
            first_reason,
            simd,
            ..
        } = rw;
        if entries.is_empty() {
            let why = first_reason.unwrap_or_else(|| "no loop nest in function".into());
            return Err(CompileError(format!("no jittable loop nest: {why}")));
        }
        let bytes = asm.code.len();
        let buf = ExecBuf::from_code(&asm.code)?;
        let program = JitProgram {
            buf,
            entries,
            bytes,
            simd,
            // Whatever forwarded loop left the bytecode is in a nest.
            forwarded_loops: forwarded_in(&cf.body) - forwarded_in(&body),
        };
        Ok(CompiledFunc {
            jit: Some(Arc::new(program)),
            ..cf.with_body(body)
        })
    }

    fn f64_lanes(&self) -> u32 {
        self.width().lanes() as u32
    }
}

/// One function's pass: the code emitted so far, an entry offset per
/// compiled nest, the first reason a nest was refused, the vector-site
/// tally, the nest planner's tables.
struct Rewriter<'a> {
    dts: &'a [DType],
    opts: &'a X86Backend,
    asm: Asm,
    entries: Vec<usize>,
    first_reason: Option<String>,
    simd: SimdReport,
    walk: Walk,
}

impl Rewriter<'_> {
    /// Replace every maximal jittable nest — a loop or conditional whose
    /// every item is in the subset — with a [`Item::JitCall`], recursing
    /// into loops and conditionals that are not jittable as a whole so
    /// inner nests still compile.
    fn block(&mut self, b: &Block) -> Block {
        let items = b.items.iter().map(|item| self.item(item)).collect();
        Block { items }
    }

    fn item(&mut self, item: &Item) -> Item {
        if matches!(item, Item::Code(_) | Item::JitCall { .. }) {
            return item.clone();
        }
        // A nest holding a proven-parallel loop stays in bytecode: jitting
        // it whole would run the loop sequentially inside the nest and
        // silently lose pool dispatch. Recursing below still compiles the
        // serial nests *inside* the parallel body — jitted entries are
        // sealed-RX and take their register files as arguments, so
        // worker-thread chunk VMs call them reentrantly.
        let verdict = if contains_proven_parallel(item) {
            Err("parallel loop kept in bytecode for pool dispatch".to_string())
        } else {
            check_item(item, self.dts)
        };
        match verdict {
            Ok(()) => {
                self.entries.push(self.asm.here());
                let mut nc = NestCompiler {
                    asm: &mut self.asm,
                    opts: self.opts,
                    simd: &mut self.simd,
                    nest: Rc::new([]),
                };
                nc.emit_nest(item, &mut self.walk);
                nc.asm.ret();
                Item::JitCall {
                    entry: self.entries.len() - 1,
                }
            }
            Err(why) => {
                self.first_reason.get_or_insert(why);
                // A rejected loop or conditional may still hold jittable
                // nests.
                match item {
                    Item::Loop {
                        var,
                        min,
                        extent,
                        clamp,
                        pre,
                        bumps,
                        body,
                        kind,
                    } => Item::Loop {
                        var: *var,
                        min: *min,
                        extent: *extent,
                        clamp: *clamp,
                        pre: pre.clone(),
                        bumps: bumps.clone(),
                        body: self.block(body),
                        kind: *kind,
                    },
                    Item::If { cond, then, else_ } => Item::If {
                        cond: *cond,
                        then: self.block(then),
                        else_: else_.as_ref().map(|e| self.block(e)),
                    },
                    other => other.clone(),
                }
            }
        }
    }
}

/// Does this item contain (or is it) a `Parallel` loop the analyzer
/// proved race-free with enough iterations to split? Such loops must
/// remain bytecode `Item::Loop`s so the VM can dispatch them to the
/// worker pool. `StridedLoop`/`MulAddLoop` never qualify: the block
/// optimizer refuses to convert dispatchable parallel loops.
fn contains_proven_parallel(item: &Item) -> bool {
    match item {
        Item::Loop {
            extent, body, kind, ..
        } => {
            (matches!(kind, LoopKind::Parallel { proven: true }) && *extent >= 2)
                || body.items.iter().any(contains_proven_parallel)
        }
        Item::If { then, else_, .. } => {
            then.items.iter().any(contains_proven_parallel)
                || else_
                    .as_ref()
                    .is_some_and(|e| e.items.iter().any(contains_proven_parallel))
        }
        _ => false,
    }
}

pub(super) struct NestCompiler<'a> {
    asm: &'a mut Asm,
    opts: &'a X86Backend,
    simd: &'a mut SimdReport,
    /// Where the nest's integer registers live ([`plan_nest`]); every
    /// template outside a strided loop resolves its operands through it,
    /// and a strided loop's own plan extends it.
    nest: Rc<[(Reg, R)]>,
}

/// Destination vectors kept live per jammed j-trip (the register-tile
/// width: independent accumulator chains that hide the add latency).
const JAM_U: usize = 4;
/// (Product, accumulator) register pairs of a tiled microkernel trip.
const TILE_PAIRS: [(X, X); 4] = [(X(4), X(8)), (X(5), X(9)), (X(6), X(10)), (X(7), X(11))];
/// (Accumulator, product scratch) register pairs of the jammed j-trip.
const JAM_PAIRS: [(X, X); JAM_U] = [(X(6), X(7)), (X(8), X(9)), (X(10), X(11)), (X(12), X(13))];

/// A factor of a packed multiply: a value broadcast into a register
/// before the loop, or the elements a pointer walks.
#[derive(Clone, Copy)]
enum Factor {
    Bcast(X),
    At(R),
}

/// The `jcc` condition under which an integer compare holds.
fn cc_of(op: CmpOp) -> u8 {
    match op {
        CmpOp::Lt => CC_L,
        CmpOp::Le => CC_LE,
        CmpOp::Gt => CC_G,
        CmpOp::Ge => CC_GE,
        CmpOp::Eq => CC_E,
        CmpOp::Ne => CC_NZ,
    }
}

impl NestCompiler<'_> {
    /// One nest, entry to the instruction before its `ret`: plan its
    /// integer registers over [`NEST_GPRS`], save the ones the plan uses,
    /// emit the item, restore them.
    pub(super) fn emit_nest(&mut self, root: &Item, walk: &mut Walk) {
        let gprs = plan_nest(root, &NEST_GPRS, walk);
        let used = NEST_GPRS.map(|g| gprs.iter().any(|e| e.1 == g));
        let saved = NEST_GPRS.into_iter().zip(used).filter(|s| s.1).map(|s| s.0);
        saved.clone().for_each(|g| self.asm.push_r(g));
        self.nest = gprs.into();
        self.emit_item(root);
        saved.rev().for_each(|g| self.asm.pop_r(g));
    }

    pub(super) fn emit_item(&mut self, item: &Item) {
        match item {
            Item::Code(c) => self.emit_code(c),
            Item::Loop {
                var,
                min,
                extent,
                clamp,
                pre,
                bumps,
                body,
                ..
            } => {
                if *extent < 1 {
                    return;
                }
                if let Some(plan) = plan_jam(item, self.opts.width()) {
                    let done = (plan.kextent / JAM) * JAM;
                    let rem = plan.kextent - done;
                    self.emit_jammed(&plan);
                    if rem > 0 {
                        // Leftover k iterations run through the plain
                        // templates, continuing where the jammed groups
                        // left the loop variable: the hoisted registers
                        // set again for it are the values they were
                        // bumped to.
                        self.emit_item(&Item::Loop {
                            var: *var,
                            min: *min + done,
                            extent: rem,
                            clamp: Clamp::default(),
                            pre: pre.clone(),
                            bumps: bumps.clone(),
                            body: body.clone(),
                            kind: LoopKind::Serial,
                        });
                    }
                    return;
                }
                // The counter is an integer register like any other: in
                // the GPR the nest plan gave it, else in `iregs`.
                let end = min + extent; // cannot overflow: check_item
                let counter = self.i(*var);
                let empty = if clamp.is_none() {
                    self.emit_code(&[Instr::IConst(*var, *min)]);
                    None
                } else {
                    // A trimmed loop runs `start..end` of its live range,
                    // `end` in the stack's top slot: every leaf clobbers
                    // `R11`, and what the body pushes it pops.
                    self.emit_live_range(*min, end, *clamp);
                    self.asm.cmp_rr(R8, R11);
                    let empty = self.asm.jcc_fwd(CC_GE);
                    self.asm.push_r(R11);
                    self.istore(counter, R8);
                    Some(empty)
                };
                // The hoisted registers, for the first iteration that
                // runs (none of them is read past an empty range).
                self.emit_code(pre);
                let top = self.asm.here();
                for it in &body.items {
                    self.emit_item(it);
                }
                self.emit_bumps(bumps);
                let c = self.step(counter);
                if empty.is_some() {
                    self.asm.mov_rm(RCX, RSP, 0);
                    self.asm.cmp_rr(c, RCX);
                } else if end as i32 as i64 == end {
                    self.asm.cmp_ri(c, end as i32);
                } else {
                    self.asm.mov_ri(RCX, end);
                    self.asm.cmp_rr(c, RCX);
                }
                self.asm.jcc_back(CC_L, top);
                if let Some(empty) = empty {
                    self.asm.pop_r(RCX);
                    self.asm.land(empty);
                }
            }
            Item::If { cond, then, else_ } => {
                let c = self.ireg(self.i(*cond), RAX);
                self.asm.cmp_ri(c, 0);
                let to_else = self.asm.jcc_fwd(CC_E);
                then.items.iter().for_each(|it| self.emit_item(it));
                match else_ {
                    Some(e) => {
                        let to_end = self.asm.jmp_fwd();
                        self.asm.land(to_else);
                        e.items.iter().for_each(|it| self.emit_item(it));
                        self.asm.land(to_end);
                    }
                    None => self.asm.land(to_else),
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
                ..
            } => {
                // One scalar site either way: the strided loop has no
                // packed template, and a trimmed one's trip count is only
                // known at loop entry.
                self.emit_code(pre);
                if clamp.is_none() {
                    self.simd.scalar("strided-loop");
                    self.asm.mov_ri(R11, *extent);
                    self.emit_strided_trips(bumps, body, *carry);
                } else {
                    self.simd.scalar("dynamic-extent");
                    self.emit_trimmed_strided(*min, *extent, *clamp, bumps, body, *carry);
                }
            }
            Item::MulAddLoop {
                extent,
                pre,
                dst,
                a,
                b,
                ..
            } => {
                self.emit_code(pre);
                self.emit_muladd(*extent, dst, a, b);
            }
            // Checked away before codegen.
            Item::JitCall { .. } => unreachable!("rejected by check_item"),
        }
    }

    /// The plain-loop template of `jit/v4`, verbatim — counter loaded,
    /// incremented and stored back through `RAX` every iteration — kept
    /// as the oracle the resident nest is compared against. It knows
    /// neither conditionals nor trimmed plain loops; everything below a
    /// plain loop is the shared leaf templates with nothing resident.
    #[cfg(test)]
    fn emit_item_in_memory(&mut self, item: &Item) {
        let Item::Loop {
            var,
            min,
            extent,
            clamp,
            body,
            ..
        } = item
        else {
            return self.emit_item(item);
        };
        debug_assert!(clamp.is_none(), "rejected by check_item");
        if *extent < 1 {
            return;
        }
        if let Some(plan) = plan_jam(item, self.opts.width()) {
            let done = (plan.kextent / JAM) * JAM;
            let rem = plan.kextent - done;
            self.emit_jammed(&plan);
            if rem > 0 {
                self.emit_item_in_memory(&Item::Loop {
                    var: *var,
                    min: *min + done,
                    extent: rem,
                    clamp: Clamp::default(),
                    pre: Vec::new(),
                    bumps: Vec::new(),
                    body: body.clone(),
                    kind: LoopKind::Serial,
                });
            }
            return;
        }
        let end = min + extent;
        self.asm.mov_ri(RAX, *min);
        self.asm.mov_mr(RDI, off(*var), RAX);
        let top = self.asm.here();
        for it in &body.items {
            self.emit_item_in_memory(it);
        }
        self.asm.mov_rm(RAX, RDI, off(*var));
        self.asm.add_ri(RAX, 1);
        self.asm.mov_mr(RDI, off(*var), RAX);
        if end as i32 as i64 == end {
            self.asm.cmp_ri(RAX, end as i32);
        } else {
            self.asm.mov_ri(RCX, end);
            self.asm.cmp_rr(RAX, RCX);
        }
        self.asm.jcc_back(CC_L, top);
    }

    /// Straight-line code outside a strided loop: integer operands where
    /// the nest plan put them, float operands in their in-memory form.
    fn emit_code(&mut self, code: &[Instr]) {
        let nest = Rc::clone(&self.nest);
        let res = Resident::of_nest(&nest);
        code.iter().for_each(|i| self.emit_instr(i, &res));
    }

    /// Where the nest keeps ireg `r`.
    fn i(&self, r: Reg) -> I {
        Resident::of_nest(&self.nest).i(r)
    }

    /// `dst ← src` (nothing when `src` is `dst`).
    fn fload(&mut self, dst: X, src: F) {
        match src {
            F::Reg(s) if s == dst => {}
            F::Reg(s) => self.asm.movaps(dst, s),
            F::Mem(disp) => self.asm.vload(SD, dst, Mem::at(RSI, disp)),
        }
    }

    /// `dst ← src` (nothing when `dst` is `src`).
    fn fstore(&mut self, dst: F, src: X) {
        match dst {
            F::Reg(d) if d == src => {}
            F::Reg(d) => self.asm.movaps(d, src),
            F::Mem(disp) => self.asm.vstore(SD, Mem::at(RSI, disp), src),
        }
    }

    /// Scalar-double ALU op `dst ← dst op src`; x86 takes the second
    /// operand from memory as readily as from a register.
    fn fop(&mut self, op: u8, dst: X, src: F) {
        match src {
            F::Reg(s) => self.asm.vop_rr(SD, op, dst, dst, s),
            F::Mem(disp) => self.asm.vop_rm(SD, op, dst, dst, Mem::at(RSI, disp), None),
        }
    }

    /// `dst ← src` (nothing when `src` is `dst`).
    fn iload(&mut self, dst: R, src: I) {
        match src {
            I::Reg(s) if s == dst => {}
            I::Reg(s) => self.asm.mov_rr(dst, s),
            I::Mem(disp) => self.asm.mov_rm(dst, RDI, disp),
        }
    }

    /// `dst ← src` (nothing when `dst` is `src`).
    fn istore(&mut self, dst: I, src: R) {
        match dst {
            I::Reg(d) if d == src => {}
            I::Reg(d) => self.asm.mov_rr(d, src),
            I::Mem(disp) => self.asm.mov_mr(RDI, disp, src),
        }
    }

    /// The machine register holding `src`: its own, or `scratch` once
    /// loaded from `iregs`.
    fn ireg(&mut self, src: I, scratch: R) -> R {
        match src {
            I::Reg(r) => r,
            I::Mem(_) => {
                self.iload(scratch, src);
                scratch
            }
        }
    }

    /// `at ← at + 1`, wherever `at` lives; returns the register that
    /// holds the sum.
    fn step(&mut self, at: I) -> R {
        let c = self.ireg(at, RAX);
        self.asm.add_ri(c, 1);
        self.istore(at, c);
        c
    }

    /// `at ← at + src`.
    fn iadd(&mut self, at: I, src: R) {
        match at {
            I::Reg(r) => self.asm.add_rr(r, src),
            I::Mem(disp) => self.asm.add_mr(RDI, disp, src),
        }
    }

    /// `into ← (src != 0)` under `CC_NZ`, `(src == 0)` under `CC_E`.
    fn truth(&mut self, cc: u8, src: I, into: R) {
        let r = self.ireg(src, into);
        self.asm.cmp_ri(r, 0);
        self.asm.setcc(cc, into);
    }

    /// Address the element a `Load`/`Store` touches: through its resident
    /// pointer, or as `[RCX + index·esize]` after loading the slot base,
    /// the index in the address register's GPR or in `RAX`.
    fn elem(&mut self, slot: u16, addr: Reg, res: &Resident) -> Mem {
        match res.ptr(slot, addr) {
            Some(p) => Mem::at(p, 0),
            None => {
                let index = self.ireg(res.i(addr), RAX);
                self.asm.mov_rm(RCX, RDX, (slot as i32) * 8);
                Mem::indexed(RCX, index)
            }
        }
    }

    /// One bytecode instruction as a short template in the VM's own
    /// evaluation order. `res` says which integer operands live in GPRs,
    /// which float operands in XMM registers and which elements have a
    /// pointer in a GPR; every other operand is read from and written to
    /// the in-memory register files, operand by operand, so an empty
    /// `res` is the `Item::Code` form of a function with no nest around
    /// it, and a nest or loop that runs out of registers degrades one
    /// operand at a time. A value is built in its destination's own
    /// register when it has one, else in scratch (`X0`/`X1`,
    /// `RAX`/`RCX`). Distinct integer registers that are live at one
    /// instruction never share a GPR ([`plan_nest`]'s ranges are closed).
    fn emit_instr(&mut self, i: &Instr, res: &Resident) {
        let f = |r: Reg| res.f(r);
        let target = |d: F, scratch: X| match d {
            F::Reg(x) => x,
            F::Mem(_) => scratch,
        };
        let itarget = |d: I| match d {
            I::Reg(r) => r,
            I::Mem(_) => RAX,
        };
        match *i {
            Instr::IConst(d, v) => {
                let t = itarget(res.i(d));
                self.asm.mov_ri(t, v);
                self.istore(res.i(d), t);
            }
            Instr::FConst(d, v) => {
                self.asm.mov_ri(RAX, v.to_bits() as i64);
                match f(d) {
                    F::Reg(x) => self.asm.movq_xr(x, RAX),
                    F::Mem(disp) => self.asm.mov_mr(RSI, disp, RAX),
                }
            }
            Instr::IToF(d, s) => {
                let t = target(f(d), X0);
                let s = self.ireg(res.i(s), RAX);
                self.asm.cvtsi2sd(t, s);
                self.fstore(f(d), t);
            }
            Instr::IBin(op, d, x, y) => {
                let (id, ix, iy) = (res.i(d), res.i(x), res.i(y));
                // As below for floats: never copy `x` over a `y` that
                // shares `d`'s register.
                let t = if id == iy && id != ix {
                    RAX
                } else {
                    itarget(id)
                };
                self.iload(t, ix);
                let y = self.ireg(iy, RCX);
                match op {
                    BinOp::Add => self.asm.add_rr(t, y),
                    BinOp::Sub => self.asm.sub_rr(t, y),
                    BinOp::Mul => self.asm.imul_rr(t, y),
                    _ => unreachable!("rejected by check_instr"),
                }
                self.istore(id, t);
            }
            Instr::ICmp(op, d, x, y) => {
                let x = self.ireg(res.i(x), RAX);
                let y = self.ireg(res.i(y), RCX);
                self.asm.cmp_rr(x, y);
                self.asm.setcc(cc_of(op), RAX);
                self.istore(res.i(d), RAX);
            }
            Instr::And(d, x, y) | Instr::Or(d, x, y) => {
                self.truth(CC_NZ, res.i(x), RAX);
                self.truth(CC_NZ, res.i(y), RCX);
                if matches!(i, Instr::And(..)) {
                    self.asm.and_rr(RAX, RCX);
                } else {
                    self.asm.or_rr(RAX, RCX);
                }
                self.istore(res.i(d), RAX);
            }
            Instr::Not(d, x) => {
                self.truth(CC_E, res.i(x), RAX);
                self.istore(res.i(d), RAX);
            }
            Instr::FBin(op, d, x, y) => {
                let (fd, fx, fy) = (f(d), f(x), f(y));
                // `d` may share `y`'s register (a carry's `next` shares
                // `acc`'s): copying `x` into it first would lose `y`.
                let t = if fd == fy && fd != fx {
                    X0
                } else {
                    target(fd, X0)
                };
                self.fload(t, fx);
                self.fop(arith(op), t, fy);
                self.fstore(fd, t);
            }
            Instr::FMulAdd { dst, add, a, b, .. } => {
                // The product is complete in scratch before the sum's
                // register is written, so `dst` may share any operand's.
                self.fload(X0, f(a));
                self.fop(FMUL, X0, f(b));
                let t = target(f(dst), X1);
                self.fload(t, f(add));
                self.fop(FADD, t, F::Reg(X0)); // add + m
                self.fstore(f(dst), t);
            }
            Instr::Call1(Intrinsic::Sqrt, d, x) => {
                let t = target(f(d), X0);
                self.fload(t, f(x));
                self.asm.vop1(SD, FSQRT, t, t);
                self.fstore(f(d), t);
            }
            Instr::Load(d, slot, addr) => {
                let e = self.elem(slot, addr, res);
                let t = target(f(d), X0);
                self.asm.vload(SD, t, e);
                self.fstore(f(d), t);
            }
            Instr::Store(slot, addr, val) => {
                let e = self.elem(slot, addr, res);
                let v = target(f(val), X0);
                self.fload(v, f(val));
                self.asm.vstore(SD, e, v);
            }
            _ => unreachable!("rejected by check_instr"),
        }
    }

    /// The loop of the scalar strided template, register-resident as far
    /// as the budgets go: `R11` holds the trip count (≥ 1), an immediate
    /// for a static loop, computed at loop entry for a trimmed one, and
    /// the register files in memory hold the state of the first iteration
    /// to run (the prelude and the trimmed prologue's advance leave it
    /// there).
    fn emit_strided_trips(&mut self, bumps: &[(Reg, i64)], body: &[Instr], carry: Option<Carry>) {
        let nest = Rc::clone(&self.nest);
        let mut plan = plan_resident(bumps, body, carry, &PTR_REGS, XMM_POOL);
        plan.res.gprs = &nest;
        self.emit_planned_trips(body, carry, &plan);
    }

    /// [`NestCompiler::emit_strided_trips`] under a given plan. At entry
    /// each resident element pointer is formed from its address register
    /// and slot base, and the carry's accumulator is loaded — here, past
    /// the caller's empty-range test. Each iteration runs the body
    /// through the plan, forwards the carry (nothing to emit when `acc`
    /// and `next` share a register), steps the pointers and bumps the
    /// strided registers something still reads as values.
    fn emit_planned_trips(&mut self, body: &[Instr], carry: Option<Carry>, plan: &ResidentPlan) {
        for &((slot, addr), p) in &plan.res.ptrs {
            self.element_pointer(p, slot, addr);
        }
        if let Some(c) = carry {
            self.emit_instr(&Instr::Load(c.acc, c.slot, c.addr), &plan.res);
        }
        let top = self.asm.here();
        body.iter().for_each(|i| self.emit_instr(i, &plan.res));
        if let Some(c) = carry {
            let (acc, next) = (plan.res.f(c.acc), plan.res.f(c.next));
            if acc != next {
                self.fload(X0, next);
                self.fstore(acc, X0);
            }
        }
        for &(p, step) in &plan.steps {
            self.asm.add_ri(p, step);
        }
        self.emit_bumps(&plan.mem_bumps);
        self.asm.dec_r(R11);
        self.asm.jcc_back(CC_NZ, top);
    }

    /// `[RAX]`, `RAX ← &slot[addr]`. Clobbers `RCX`.
    fn element(&mut self, slot: u16, addr: Reg) -> Mem {
        let index = self.ireg(self.i(addr), RAX);
        self.asm.mov_rm(RCX, RDX, (slot as i32) * 8);
        self.asm.lea_sib(RAX, RCX, index, ESIZE);
        Mem::at(RAX, 0)
    }

    /// `p ← &slot[addr]`, the address register read where the nest keeps
    /// it. Clobbers `RAX`.
    fn element_pointer(&mut self, p: R, slot: u16, addr: Reg) {
        let index = self.ireg(self.i(addr), RAX);
        self.asm.mov_rm(p, RDX, (slot as i32) * 8);
        self.asm.lea_sib(p, p, index, ESIZE);
    }

    /// The scalar strided template over a trimmed loop's live range
    /// ([`NestCompiler::emit_live_range`]), the strided registers
    /// advanced from iteration `min` (where the prelude left them) to
    /// `start`, a forward jump over an empty range, then the same loop a
    /// static extent gets. `RDX` holds the slot table and is never
    /// scratch.
    fn emit_trimmed_strided(
        &mut self,
        min: i64,
        extent: i64,
        clamp: Clamp,
        bumps: &[(Reg, i64)],
        body: &[Instr],
        carry: Option<Carry>,
    ) {
        self.emit_live_range(min, min + extent, clamp); // cannot overflow: check_item
        if clamp.lo.is_some() {
            // RAX = start − min iterations to skip; every strided
            // register moves by that many strides, with the wrapping
            // arithmetic of the per-iteration bump.
            self.asm.mov_ri(RAX, min.wrapping_neg());
            self.asm.add_rr(RAX, R8);
            for &(r, s) in bumps {
                self.asm.mov_ri(RCX, s);
                self.asm.imul_rr(RCX, RAX);
                self.iadd(self.i(r), RCX);
            }
        }
        self.asm.sub_rr(R11, R8);
        let empty = self.asm.jcc_fwd(CC_LE);
        self.emit_strided_trips(bumps, body, carry);
        self.asm.land(empty);
    }

    /// [`crate::compile::live_range`] in machine code, for the trimmed
    /// strided template and the trimmed plain loop alike: `R8` = start,
    /// `R11` = end, both inside the static `[min, end]` whatever the bound
    /// registers hold, so the in-bounds proofs behind the unchecked loads
    /// and stores of the body keep covering every iteration run. Clobbers
    /// `R9` and `RCX`.
    fn emit_live_range(&mut self, min: i64, end: i64, clamp: Clamp) {
        match clamp.lo {
            Some(lo) => {
                self.asm.mov_ri(R9, min);
                self.emit_clamp_bound(R8, lo, R9, end);
            }
            None => self.asm.mov_ri(R8, min),
        }
        match clamp.hi {
            Some(hi) => self.emit_clamp_bound(R11, hi, R8, end),
            None => self.asm.mov_ri(R11, end),
        }
    }

    /// `dst ← clamp(reg + plus, floor, end)`, one side of
    /// [`crate::compile::live_range`]. The register is capped at
    /// `end − plus` *before* `plus` (≥ 0, checked with `end − plus` in
    /// `check_item`) is added, so the add cannot wrap: the result equals
    /// the saturating form for every register value. `floor` holds a
    /// value in `[min, end]`. Clobbers `RCX`.
    fn emit_clamp_bound(&mut self, dst: R, (reg, plus): (Reg, i64), floor: R, end: i64) {
        self.iload(dst, self.i(reg));
        let a = &mut *self.asm;
        a.mov_ri(RCX, end - plus);
        a.cmp_rr(dst, RCX);
        a.cmov_rr(CC_G, dst, RCX);
        if plus != 0 {
            a.add_ri(dst, plus as i32);
        }
        a.cmp_rr(dst, floor);
        a.cmov_rr(CC_L, dst, floor);
    }

    /// Advance every strided register by its stride, where it lives.
    fn emit_bumps(&mut self, bumps: &[(Reg, i64)]) {
        for &(r, s) in bumps {
            match (self.i(r), i32::try_from(s)) {
                (I::Reg(g), Ok(s)) => self.asm.add_ri(g, s),
                (I::Mem(disp), Ok(s)) => self.asm.add_mi(RDI, disp, s),
                (at, Err(_)) => {
                    self.asm.mov_ri(RAX, s);
                    self.iadd(at, RAX);
                }
            }
        }
    }

    /// A microkernel: its three element pointers in `r8` (dst), `r9` (a)
    /// and `r10` (b), then the loop its operands allow.
    fn emit_muladd(&mut self, extent: i64, dst: &SlotAccess, sa: &SlotAccess, sb: &SlotAccess) {
        for (acc, preg) in [(dst, R8), (sa, R9), (sb, R10)] {
            self.element_pointer(preg, acc.slot, acc.addr);
        }
        match classify_muladd(dst, sa, sb) {
            MulAdd::Reduction { stored_once } => {
                self.simd.scalar("reduction-chain");
                if stored_once {
                    self.muladd_reduction(extent, sa.stride, sb.stride);
                } else {
                    self.muladd_generic(extent, dst, sa, sb);
                }
            }
            MulAdd::Parallel => self.muladd_parallel(extent, sa.stride, sb.stride),
            MulAdd::Generic(reason) => {
                self.simd.scalar(reason);
                self.muladd_generic(extent, dst, sa, sb);
            }
        }
    }

    /// `body`, `trips` (≥ 1) times: counted down in `R11` when more than
    /// one.
    fn repeat(&mut self, trips: i64, body: impl FnOnce(&mut Self)) {
        if trips == 1 {
            return body(self);
        }
        self.asm.mov_ri(R11, trips);
        let top = self.asm.here();
        body(self);
        self.asm.dec_r(R11);
        self.asm.jcc_back(CC_NZ, top);
    }

    /// `m ← a · b` at `disp` bytes past the pointers, the factors in the
    /// multiply's own operand order (which of two NaN payloads survives
    /// depends on it).
    fn product(&mut self, w: Width, m: X, a: Factor, b: Factor, disp: i32, scratch: X) {
        match (a, b) {
            (Factor::Bcast(x), Factor::At(p)) => {
                self.asm
                    .vop_rm(w, FMUL, m, x, Mem::at(p, disp), Some(scratch))
            }
            (Factor::At(p), b) => {
                self.asm.vload(w, m, Mem::at(p, disp));
                match b {
                    Factor::Bcast(y) => self.asm.vop_rr(w, FMUL, m, m, y),
                    Factor::At(q) => {
                        self.asm
                            .vop_rm(w, FMUL, m, m, Mem::at(q, disp), Some(scratch))
                    }
                }
            }
            (Factor::Bcast(_), Factor::Bcast(_)) => unreachable!("one factor walks"),
        }
    }

    /// Reduction into one element (`dst` stride 0, any factor strides)
    /// whose slot neither factor reads: a single serial accumulator chain,
    /// kept scalar to preserve accumulation order. Nothing in the loop can
    /// observe the element, so it is stored once, after the loop — the
    /// only thing that keeps this apart from the generic path, which
    /// stores every iteration: an untiled 200³ matmul runs 0.66 ns a
    /// multiply-add here against 0.72–1.1 there.
    fn muladd_reduction(&mut self, extent: i64, sa: i64, sb: i64) {
        self.asm.vload(SD, X1, Mem::at(R8, 0)); // acc = dst[d0]
        self.repeat(extent, |s| {
            s.product(SD, X0, Factor::At(R9), Factor::At(R10), 0, X3); // x * y
            s.asm.vop_rr(SD, FADD, X1, X1, X0); // acc += m
            for (preg, stride) in [(R9, sa), (R10, sb)] {
                if stride != 0 {
                    // range-checked in check_item
                    s.asm.add_ri(preg, (stride * i64::from(ESIZE)) as i32);
                }
            }
        });
        self.asm.vstore(SD, Mem::at(R8, 0), X1);
    }

    /// Parallel patterns — `dst` stride 1, each factor stride 0 or 1, not
    /// both 0: every element is an independent multiply+add, so
    /// lane-splitting preserves per-element rounding exactly. The row is
    /// swept at the widest width the backend has, then each narrower one
    /// over what is left — VEX-256, SSE2, scalar — so the width a row gets
    /// follows from its extent: two `f64` elements are one SSE2 operation
    /// on any packed tier, and a 110-wide row's last two are one as well.
    /// When at least four packed iterations remain at a width, a
    /// register-tiled 4× unroll-and-jam main loop runs first: four
    /// accumulator blocks in distinct registers per trip, amortising the
    /// loop overhead and letting the independent mul/add chains overlap.
    /// Elements stay independent with per-element rounding, so tiling is
    /// bit-neutral. The scalar sweep is the same product and accumulation
    /// one element wide; on the scalar tier it carries every iteration.
    /// The site is tallied packed when some sweep ran wider than scalar.
    fn muladd_parallel(&mut self, extent: i64, sa: i64, sb: i64) {
        // The loop-invariant factor is broadcast once (X2), at the widest
        // width that runs — a narrower sweep reads its low lanes — and the
        // scalar sweep reads it where it is.
        let factor = |stride: i64, p: R, w: Width| {
            if stride == 0 && w.lanes() > 1 {
                Factor::Bcast(X2)
            } else {
                Factor::At(p)
            }
        };
        // One pass over `pairs.len()` vectors of width `w`, each a
        // (product, accumulator) register pair: the products first, then
        // `d = dst + m` for each, stored back.
        let sweep = |s: &mut Self, trips: i64, w: Width, pairs: &[(X, X)]| {
            if trips == 0 {
                return;
            }
            let disp = |k: usize| k as i32 * w.step();
            s.repeat(trips, |s| {
                let (a, b) = (factor(sa, R9, w), factor(sb, R10, w));
                for (k, &(m, _)) in pairs.iter().enumerate() {
                    s.product(w, m, a, b, disp(k), X3);
                }
                for (k, &(m, d)) in pairs.iter().enumerate() {
                    s.asm.vload(w, d, Mem::at(R8, disp(k)));
                    s.asm.vop_rr(w, FADD, d, d, m);
                    s.asm.vstore(w, Mem::at(R8, disp(k)), d);
                }
                for (stride, p) in [(1, R8), (sa, R9), (sb, R10)] {
                    if stride == 1 {
                        s.asm.add_ri(p, disp(pairs.len()));
                    }
                }
            });
        };
        let (mut packed, mut tiled) = (false, false);
        for (w, iters) in self.opts.width().sweeps(extent) {
            let vectors = if w.lanes() > 1 { iters } else { 0 };
            if vectors > 0 && !packed {
                for (stride, p) in [(sa, R9), (sb, R10)] {
                    if stride == 0 {
                        self.asm.bcast(w, X2, Mem::at(p, 0));
                    }
                }
            }
            packed |= vectors > 0;
            tiled |= vectors >= 4;
            sweep(self, vectors / 4, w, &TILE_PAIRS);
            sweep(self, iters - vectors / 4 * 4, w, &[(X0, X1)]);
            if iters > 0 {
                self.asm.vend(w);
            }
        }
        if packed {
            self.simd.packed(tiled);
        } else if self.opts.width().lanes() > 1 {
            self.simd.scalar("short-extent");
        } else {
            self.simd.scalar("simd-disabled");
        }
    }

    /// The jammed microkernel (see [`plan_jam`] for the shape and its
    /// proof obligations). Per group of [`JAM`] `k` iterations: run each
    /// iteration's address code in scalar order (loop variable advanced
    /// exactly as the plain template would), broadcast its stride-0
    /// factor into `X2..X5`, stack its stride-1 pointer, then sweep `j`
    /// once — [`JAM_U`] destination vectors per trip ([`JAM_PAIRS`]), each
    /// loaded, given the four products `inv_k · vec_k[j..]` in `k` order
    /// (operand order preserved), stored once. Leftover vectors and what
    /// they leave of the row — at each narrower width, down to scalar —
    /// are the same sweep over one register pair, so they keep the same
    /// per-element `k` sequence.
    fn emit_jammed(&mut self, plan: &JamPlan) {
        let w = plan.w;
        let groups = plan.kextent / JAM;
        let jvecs = plan.extent / w.lanes();
        let jtrips = jvecs / JAM_U as i64;
        let jsingle = jvecs % JAM_U as i64;
        // One vector site, packed and register-tiled.
        self.simd.packed(true);
        // Stride-1 factor pointers for the group's four k's, k ascending.
        let bp = [R9, R10, RCX, RAX];
        let kvar = self.i(plan.kvar);
        self.emit_code(&[Instr::IConst(plan.kvar, plan.kmin)]);
        self.emit_code(plan.hoisted);
        // Every scratch GPR is claimed below, so the group counter lives
        // in the stack's top slot (restored before returning).
        self.asm.mov_ri(RAX, groups);
        self.asm.push_r(RAX);
        let gtop = self.asm.here();
        for jk in 0..JAM as u8 {
            // This k's address code, exactly as the scalar loop runs it
            // (pure register arithmetic: only RAX/RCX/X0/X1 scratch).
            self.emit_code(plan.code);
            self.emit_code(plan.pre);
            if jk == 0 {
                // Destination row pointer: k-invariant per the plan.
                self.element_pointer(R8, plan.dst.slot, plan.dst.addr);
            }
            let inv = self.element(plan.inv.slot, plan.inv.addr);
            self.asm.bcast(w, X(2 + jk), inv);
            self.element(plan.vec.slot, plan.vec.addr);
            self.asm.push_r(RAX);
            // Advance the hoisted registers and the loop variable (the
            // scalar template's bumps and post-body increment).
            self.emit_bumps(plan.bumps);
            self.step(kvar);
        }
        for r in bp.iter().rev() {
            self.asm.pop_r(*r);
        }
        // One pass over `pairs.len()` destination vectors of width `w`,
        // each an (accumulator, product scratch) register pair.
        let sweep = |s: &mut Self, w: Width, pairs: &[(X, X)]| {
            let disp = |u: usize| u as i32 * w.step();
            for (u, &(acc, _)) in pairs.iter().enumerate() {
                s.asm.vload(w, acc, Mem::at(R8, disp(u)));
            }
            for (jk, &bptr) in bp.iter().enumerate() {
                let (inv, vec) = (Factor::Bcast(X(2 + jk as u8)), Factor::At(bptr));
                let (a, b) = if plan.inv_first {
                    (inv, vec)
                } else {
                    (vec, inv)
                };
                for (u, &(acc, scr)) in pairs.iter().enumerate() {
                    s.product(w, scr, a, b, disp(u), XSCRATCH);
                    s.asm.vop_rr(w, FADD, acc, acc, scr);
                }
            }
            for (u, &(acc, _)) in pairs.iter().enumerate() {
                s.asm.vstore(w, Mem::at(R8, disp(u)), acc);
            }
            for r in [R8].into_iter().chain(bp) {
                s.asm.add_ri(r, disp(pairs.len()));
            }
        };
        if jtrips > 0 {
            self.repeat(jtrips, |s| sweep(s, w, &JAM_PAIRS));
        }
        for _ in 0..jsingle {
            sweep(self, w, &JAM_PAIRS[..1]);
        }
        // What the vectors leave of the row, at each narrower width in
        // turn; the next group rebroadcasts X2..X5 anyway, so the upper
        // halves can go before the legacy encodings run.
        if plan.extent % w.lanes() > 0 {
            self.asm.vend(w);
        }
        for (n, iters) in w.sweeps(plan.extent).skip(1) {
            // The low lanes of each broadcast are the narrower factor.
            if iters > 0 {
                self.repeat(iters, |s| sweep(s, n, &[(X0, X1)]));
            }
        }
        self.asm.dec_m(RSP, 0);
        self.asm.jcc_back(CC_NZ, gtop);
        self.asm.pop_r(RAX);
        self.asm.vend(w);
    }

    /// Generic element-order path: arbitrary strides, or an aliased
    /// destination. Replicates the VM's generic loop (load dst, load a,
    /// load b, multiply, add, store) exactly, including its strict
    /// ascending element order. A stride-0 destination is loaded once,
    /// before the loop, and carried in a register: the value just stored
    /// is the value the next iteration would load. The store stays in
    /// every iteration, so a factor that reads the destination's slot —
    /// even its very element — still reads what it read before.
    fn muladd_generic(&mut self, extent: i64, dst: &SlotAccess, sa: &SlotAccess, sb: &SlotAccess) {
        let carried = dst.stride == 0;
        self.asm.mov_ri(R11, extent);
        if carried {
            self.asm.vload(SD, X1, Mem::at(R8, 0)); // c, once
        }
        let top = self.asm.here();
        if !carried {
            self.asm.vload(SD, X1, Mem::at(R8, 0)); // c
        }
        self.asm.vload(SD, X0, Mem::at(R9, 0)); // x
        self.asm.vload(SD, X2, Mem::at(R10, 0)); // y
        self.asm.vop_rr(SD, FMUL, X0, X0, X2); // m = x*y
        self.asm.vop_rr(SD, FADD, X1, X1, X0); // s = c + m
        self.asm.vstore(SD, Mem::at(R8, 0), X1);
        for (acc, preg) in [(dst, R8), (sa, R9), (sb, R10)] {
            let step = acc.stride * i64::from(ESIZE);
            if step != 0 {
                self.asm.add_ri(preg, step as i32); // range-checked in check_item
            }
        }
        self.asm.dec_r(R11);
        self.asm.jcc_back(CC_NZ, top);
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::{
        access, assert_same_lines, fmuladd, hex, nest_function, pick_of, JamNest, NestGen, LEN,
        POISON,
    };
    use super::*;
    use crate::ndarray::NDArray;
    use crate::optimize::float_dst;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    fn run_code(code: &[u8], iregs: &mut [i64], fregs: &mut [f64], slots: &[*mut u8]) {
        let buf = ExecBuf::from_code(code).expect("map");
        let f: crate::codegen::JitFn = unsafe { std::mem::transmute(buf.entry(0)) };
        unsafe { f(iregs.as_mut_ptr(), fregs.as_mut_ptr(), slots.as_ptr()) }
    }

    /// The nest function `emit` writes on `opts` (its `ret` included),
    /// and its packed-or-scalar tally.
    fn compiled(opts: &X86Backend, emit: impl FnOnce(&mut NestCompiler)) -> (Vec<u8>, SimdReport) {
        let mut a = Asm::new();
        let mut simd = SimdReport::default();
        emit(&mut NestCompiler {
            asm: &mut a,
            opts,
            simd: &mut simd,
            nest: Rc::new([]),
        });
        a.ret();
        (a.code, simd)
    }

    /// [`compiled`] on the SSE2 tier, for tests that execute the code.
    fn compiled_sse2(emit: impl FnOnce(&mut NestCompiler)) -> (Vec<u8>, SimdReport) {
        compiled(&X86Backend::sse2_only(), emit)
    }

    #[test]
    fn in_memory_templates_are_byte_for_byte_the_item_code_path() {
        // With nothing resident every instruction lowers to the template
        // it always had; these bytes were emitted by the commit before
        // the resolver existed (`vm/v3`, `jit/v3`), and re-recorded by
        // `jit/v6`. The resident forms are compared against this path, so
        // it must not drift with them.
        let code = [
            Instr::IConst(3, -7_000_000_000),
            Instr::FConst(20, 1.5),
            Instr::IToF(1, 2),
            Instr::IBin(BinOp::Add, 4, 0, 1),
            Instr::IBin(BinOp::Sub, 5, 4, 17),
            Instr::IBin(BinOp::Mul, 6, 5, 5),
            Instr::FBin(BinOp::Div, 3, 1, 2),
            Instr::FBin(BinOp::Mul, 4, 3, 3),
            Instr::FBin(BinOp::Sub, 5, 20, 4),
            fmuladd(6, 5, 3, 4),
            fmuladd(7, 6, 6, 17),
            Instr::Call1(Intrinsic::Sqrt, 8, 7),
            Instr::Load(9, 0, 4),
            Instr::Load(10, 1, 16),
            Instr::Store(0, 5, 9),
            Instr::Store(1, 6, 10),
        ];
        let (mut code_bytes, _) = compiled_sse2(|nc| nc.emit_code(&code));
        code_bytes.pop(); // the `ret`
        assert_eq!(
            hex(&code_bytes),
            "48b8007ac45efeffffff4889471848b8000000000000f83f488986a000000048\
             8b4710f2480f2ac0f20f114608488b07488b4f084803c148894720488b472048\
             8b8f88000000482bc148894728488b4728488b4f28480fafc148894730f20f10\
             4608f20f5e4610f20f114618f20f104618f20f594618f20f114620f20f1086a0\
             000000f20f5c4620f20f114628f20f104618f20f594620f20f104e28f20f58c8\
             f20f114e30f20f104630f20f598688000000f20f104e30f20f58c8f20f114e38\
             f20f104638f20f51c0f20f114640488b4720488b0af20f1004c1f20f11464848\
             8b8780000000488b4a08f20f1004c1f20f114650488b4728488b0af20f104648\
             f20f1104c1488b4730488b4a08f20f104650f20f1104c1"
        );
    }

    #[test]
    fn integer_templates_execute() {
        // iregs[2] = iregs[0] + iregs[1]; iregs[3] = iregs[0] * iregs[1]
        let (code, _) = compiled_sse2(|nc| {
            nc.emit_code(&[
                Instr::IBin(BinOp::Add, 2, 0, 1),
                Instr::IBin(BinOp::Mul, 3, 0, 1),
                Instr::IConst(4, -7_000_000_000),
            ])
        });
        let mut ir = [6i64, 7, 0, 0, 0];
        let mut fr = [0f64];
        run_code(&code, &mut ir, &mut fr, &[]);
        assert_eq!(ir[2], 13);
        assert_eq!(ir[3], 42);
        assert_eq!(ir[4], -7_000_000_000);
    }

    #[test]
    fn float_templates_match_rust_semantics() {
        let (code, _) = compiled_sse2(|nc| {
            nc.emit_code(&[
                Instr::FBin(BinOp::Div, 2, 0, 1),
                fmuladd(4, 2, 0, 1),
                Instr::Call1(Intrinsic::Sqrt, 5, 0),
                Instr::IToF(3, 0),
            ])
        });
        let (x, y) = (1.9371823_f64, -0.3718_f64);
        let mut ir = [123456789i64, 0];
        let mut fr = [x, y, 0.0, 0.0, 0.0, 0.0];
        run_code(&code, &mut ir, &mut fr, &[]);
        assert_eq!(fr[2], x / y);
        assert_eq!(fr[3], 123456789_f64);
        assert_eq!(fr[4], x / y + x * y);
        assert_eq!(fr[5], x.sqrt());
    }

    #[test]
    fn loop_and_memory_templates_execute() {
        // for i in 2..6 { B[i] = A[i] }
        let mut av: Vec<f64> = (0..8).map(|v| v as f64 * 1.5).collect();
        let mut bv: Vec<f64> = vec![0.0; 8];
        let slots = [av.as_mut_ptr().cast::<u8>(), bv.as_mut_ptr().cast::<u8>()];
        let copy = Item::Loop {
            var: 0,
            min: 2,
            extent: 4,
            clamp: Clamp::default(),
            pre: vec![],
            bumps: vec![],
            body: Block {
                items: vec![Item::Code(vec![
                    Instr::Load(0, 0, 0),
                    Instr::Store(1, 0, 0),
                ])],
            },
            kind: LoopKind::Serial,
        };
        let (code, _) = compiled_sse2(|nc| nc.emit_item(&copy));
        let mut ir = [0i64];
        let mut fr = [0f64];
        run_code(&code, &mut ir, &mut fr, &slots);
        assert_eq!(&bv[..2], &[0.0, 0.0]);
        assert_eq!(&bv[2..6], &av[2..6]);
        assert_eq!(&bv[6..], &[0.0, 0.0]);
        assert_eq!(ir[0], 6, "loop var left at end bound");
    }

    #[test]
    fn trimmed_strided_loop_writes_exactly_the_live_elements() {
        // for i in 2..6, trimmed to its live range { B[i] = A[2·i] }:
        // ireg 0 = i (stride 1), ireg 1 = 2·i (stride 2, so the advance
        // to the first live iteration is not a unit step), ireg 2 = 2,
        // iregs 3/4 = the lower/upper bound registers.
        let item = |clamp: Clamp| Item::StridedLoop {
            min: 2,
            extent: 4,
            clamp,
            pre: vec![Instr::IConst(0, 2), Instr::IBin(BinOp::Mul, 1, 0, 2)],
            bumps: vec![(0, 1), (1, 2)],
            body: vec![Instr::Load(0, 0, 1), Instr::Store(1, 0, 0)],
            carry: None,
            kind: LoopKind::Serial,
        };
        let dts = [DType::F64, DType::F64];
        let bounds = [i64::MIN, -3, 0, 2, 3, 4, 5, 6, 7, 100, i64::MAX];
        let mut ranges_seen = HashSet::new();
        for lo in [None, Some(0), Some(1)] {
            for hi in [None, Some(0), Some(1)] {
                let clamp = Clamp {
                    lo: lo.map(|plus| (3, plus)),
                    hi: hi.map(|plus| (4, plus)),
                };
                if clamp.is_none() {
                    continue;
                }
                let it = item(clamp);
                check_item(&it, &dts).expect("trimmed strided loops are in the JIT subset");
                let (code, simd) = compiled_sse2(|nc| nc.emit_item(&it));
                assert_eq!(simd.scalar_reasons.get("dynamic-extent"), Some(&1));
                assert_eq!(simd.sites(), 1);
                for lo_v in bounds {
                    for hi_v in bounds {
                        let mut av: Vec<f64> = (0..16).map(|v| v as f64 + 0.5).collect();
                        let mut bv: Vec<f64> = vec![-1.0; 8];
                        let slots = [av.as_mut_ptr().cast::<u8>(), bv.as_mut_ptr().cast::<u8>()];
                        let mut ir = [0i64, 0, 2, lo_v, hi_v];
                        let mut fr = [0f64];
                        let (start, end) = crate::compile::live_range(2, 4, clamp, &ir);
                        assert!(2 <= start && start <= end && end <= 6);
                        ranges_seen.insert((start, end));
                        run_code(&code, &mut ir, &mut fr, &slots);
                        for (i, got) in bv.iter().enumerate() {
                            let live = start <= i as i64 && (i as i64) < end;
                            let want = if live { av[2 * i] } else { -1.0 };
                            assert_eq!(
                                *got, want,
                                "B[{i}] under {clamp:?} with lo={lo_v} hi={hi_v}: live {start}..{end}"
                            );
                        }
                    }
                }
            }
        }
        // Non-vacuity: empty, full, clamped-low, clamped-high and both.
        for want in [(2, 2), (6, 6), (2, 6), (4, 6), (2, 4), (3, 5)] {
            assert!(
                ranges_seen.contains(&want),
                "live range {want:?} never exercised"
            );
        }
    }

    /// Bit patterns of every element, so NaNs compare like any value.
    fn bits(arrays: &[NDArray]) -> Vec<Vec<u64>> {
        arrays
            .iter()
            .map(|a| a.to_f64_vec().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    fn slot_ptrs(arrays: &mut [NDArray]) -> Vec<*mut u8> {
        arrays.iter_mut().map(|a| a.base_ptr_mut()).collect()
    }

    /// Emit `n` trips of a strided body under the register budgets
    /// `gprs`/`xmms`, run it over copies of the register files and
    /// arrays, and return the arrays' bits and the register files. Empty
    /// budgets are the in-memory templates — the `Item::Code` path, which
    /// every resident form is compared against.
    #[allow(clippy::too_many_arguments)]
    fn run_strided(
        bumps: &[(Reg, i64)],
        body: &[Instr],
        carry: Option<Carry>,
        n: i64,
        (gprs, xmms): (&[R], u8),
        iregs: &[i64],
        fregs: &[f64],
        arrays: &[NDArray],
    ) -> (Vec<Vec<u64>>, Vec<i64>, Vec<f64>) {
        let plan = plan_resident(bumps, body, carry, gprs, xmms);
        let (code, _) = compiled_sse2(|nc| {
            nc.asm.mov_ri(R11, n);
            nc.emit_planned_trips(body, carry, &plan);
        });
        let (mut ir, mut fr, mut arrays) = (iregs.to_vec(), fregs.to_vec(), arrays.to_vec());
        let slots = slot_ptrs(&mut arrays);
        run_code(&code, &mut ir, &mut fr, &slots);
        (bits(&arrays), ir, fr)
    }

    /// A random straight-line strided body over three 64-element arrays:
    /// `n_ptrs` distinct `(slot, address register)` pairs with strides
    /// from `{0, 1, 2, 3, −1, −2}`, `n_defs` body-defined fregs on top of
    /// three external ones, the loop variable read as a value, stores
    /// that may alias earlier loads, and optionally a carried
    /// accumulator whose `next` is built with `acc` in any operand
    /// position. Every address stays inside its array for `extent` trips.
    struct Generated {
        iregs: Vec<i64>,
        fregs: Vec<f64>,
        bumps: Vec<(Reg, i64)>,
        body: Vec<Instr>,
        carry: Option<Carry>,
        arrays: Vec<NDArray>,
    }

    fn generate(rng: &mut SmallRng, n_ptrs: usize, n_defs: usize, extent: i64) -> Generated {
        const STRIDES: [i64; 6] = [0, 1, 2, 3, -1, -2];
        const OPS: [BinOp; 4] = [BinOp::Add, BinOp::Mul, BinOp::Sub, BinOp::Div];
        let arrays: Vec<NDArray> = (0..3)
            .map(|i| NDArray::random(&[64], DType::F64, 40 + i, 0.5, 2.0))
            .collect();
        // ireg 0 is the loop variable; iregs 1..=n_ptrs address slot
        // `(r − 1) % 3`.
        let mut iregs = vec![0i64];
        let mut bumps = vec![(0, 1)];
        let with_carry = rng.gen_bool(0.5);
        for r in 1..=n_ptrs as Reg {
            let fixed = with_carry && r == 1;
            let s = if fixed {
                0
            } else {
                STRIDES[rng.gen_range(0..STRIDES.len())]
            };
            let base = rng.gen_range(0..8i64) + if s < 0 { (extent - 1) * -s } else { 0 };
            iregs.push(base);
            if s != 0 {
                bumps.push((r, s));
            }
        }
        let pair = |r: Reg| (((r - 1) % 3) as u16, r);
        // fregs 0..3 are external, 3.. defined by the body; the carry's
        // `acc`/`next` come last.
        let mut avail: Vec<Reg> = vec![0, 1, 2];
        let mut body = Vec::new();
        for k in 0..n_defs {
            let d = 3 + k as Reg;
            let pick = |rng: &mut SmallRng| pick_of(&avail, rng);
            let instr = if k < n_ptrs {
                let (slot, addr) = pair(1 + k as Reg);
                Instr::Load(d, slot, addr)
            } else {
                match rng.gen_range(0..8) {
                    0 | 1 => Instr::FBin(OPS[rng.gen_range(0..4usize)], d, pick(rng), pick(rng)),
                    2 | 3 => fmuladd(d, pick(rng), pick(rng), pick(rng)),
                    4 => Instr::IToF(d, 0),
                    5 => Instr::FConst(d, rng.gen_range(0.5..2.0)),
                    6 => Instr::Call1(Intrinsic::Sqrt, d, pick(rng)),
                    _ => {
                        let (slot, addr) = pair(rng.gen_range(1..=n_ptrs as Reg));
                        Instr::Load(d, slot, addr)
                    }
                }
            };
            body.push(instr);
            avail.push(d);
            if rng.gen_bool(0.25) {
                let (slot, addr) = pair(rng.gen_range(1..=n_ptrs as Reg));
                body.push(Instr::Store(slot, addr, pick_of(&avail, rng)));
            }
        }
        let pick = |rng: &mut SmallRng| pick_of(&avail, rng);
        let (slot, addr) = pair(1);
        let carry = with_carry.then(|| {
            let (acc, next) = (3 + n_defs as Reg, 4 + n_defs as Reg);
            let (x, y) = (pick(rng), pick(rng));
            body.push(match rng.gen_range(0..5) {
                0 => Instr::FBin(BinOp::Add, next, acc, x),
                1 => Instr::FBin(BinOp::Sub, next, x, acc),
                2 => Instr::FBin(BinOp::Mul, next, acc, acc),
                3 => fmuladd(next, acc, x, y),
                _ => fmuladd(next, x, acc, y),
            });
            body.push(Instr::Store(slot, addr, next));
            Carry {
                acc,
                slot,
                addr,
                next,
            }
        });
        if carry.is_none() {
            body.push(Instr::Store(slot, addr, pick(rng)));
        }
        let fregs: Vec<f64> = (0..n_defs + 5).map(|k| 0.75 + k as f64 * 0.125).collect();
        Generated {
            iregs,
            fregs,
            bumps,
            body,
            carry,
            arrays,
        }
    }

    #[test]
    fn resident_template_matches_the_in_memory_one() {
        // 1–6 pointers against a budget of 3 GPRs, 3–20 body-defined
        // fregs against 14 XMM registers: both budgets are crossed, and
        // the operands left over keep their in-memory form one by one.
        let mut rng = SmallRng::seed_from_u64(0x5ca1a2);
        let (mut spilled_ptrs, mut spilled_fregs, mut carried, mut dropped_bumps) = (0, 0, 0, 0);
        for case in 0..400 {
            let n_ptrs = 1 + case % 6;
            let n_defs = n_ptrs.max(3) + rng.gen_range(0..=(20 - n_ptrs.max(3)));
            let extent = rng.gen_range(1..=8);
            let g = generate(&mut rng, n_ptrs, n_defs, extent);
            let run = |budgets| {
                run_strided(
                    &g.bumps, &g.body, g.carry, extent, budgets, &g.iregs, &g.fregs, &g.arrays,
                )
            };
            let (want, _, want_fregs) = run((&[], 0));
            // The full budgets, and budgets so tight that almost every
            // operand is left in memory beside a resident one.
            for budgets in [(&PTR_REGS[..], XMM_POOL), (&PTR_REGS[..1], 2)] {
                let (got, _, got_fregs) = run(budgets);
                assert_eq!(got, want, "case {case}: {:?} carry {:?}", g.body, g.carry);
                // External fregs are read where they are, never written.
                assert_eq!(got_fregs[..3], want_fregs[..3], "case {case}");
                assert_eq!(got_fregs[..3], g.fregs[..3], "case {case}");
            }
            let plan = plan_resident(&g.bumps, &g.body, g.carry, &PTR_REGS, XMM_POOL);
            spilled_ptrs += (plan.res.ptrs.len() < n_ptrs) as u32;
            spilled_fregs += g
                .body
                .iter()
                .filter_map(float_dst)
                .any(|d| plan.res.xmm(d).is_none()) as u32;
            dropped_bumps += (plan.mem_bumps.len() < g.bumps.len()) as u32;
            if let Some(c) = g.carry {
                carried += 1;
                assert_eq!(plan.res.xmm(c.acc), plan.res.xmm(c.next));
                assert!(plan.res.xmm(c.acc).is_some());
            }
        }
        // Non-vacuity of each branch the comparison is meant to cover.
        assert!(
            spilled_ptrs > 50 && spilled_fregs > 20,
            "{spilled_ptrs} {spilled_fregs}"
        );
        assert!(
            carried > 100 && dropped_bumps > 100,
            "{carried} {dropped_bumps}"
        );
    }

    #[test]
    fn resident_loop_reads_its_loop_variable_and_walks_backwards() {
        // for i in 0..6 { B[10 − 2·i] = A[3·i] · f64(i) + 0.5 }: the loop
        // variable is read as a value (its in-memory bump must stay), the
        // two address registers only feed pointers (their bumps go), and
        // the strides are non-unit and negative.
        let bumps = [(0, 1), (1, 3), (2, -2)];
        let body = [
            Instr::Load(0, 0, 1),
            Instr::IToF(1, 0),
            Instr::FConst(2, 0.5),
            fmuladd(3, 2, 0, 1),
            Instr::Store(1, 2, 3),
        ];
        let plan = plan_resident(&bumps, &body, None, &PTR_REGS, XMM_POOL);
        assert_eq!(plan.mem_bumps, vec![(0, 1)]);
        assert_eq!(plan.steps, vec![(R8, 24), (R9, -16)]);
        let arrays = [
            NDArray::random(&[16], DType::F64, 1, -1.0, 1.0),
            NDArray::zeros(&[11], DType::F64),
        ];
        let (iregs, fregs) = ([0i64, 0, 10], [0f64; 4]);
        let run = |budgets| run_strided(&bumps, &body, None, 6, budgets, &iregs, &fregs, &arrays);
        let (got, ..) = run((&PTR_REGS[..], XMM_POOL));
        let (want, ..) = run((&[], 0));
        assert_eq!(got, want);
        let a = arrays[0].to_f64_vec();
        for i in 0..6usize {
            let v = 0.5 + a[3 * i] * i as f64;
            assert_eq!(got[1][10 - 2 * i], v.to_bits(), "B[{}]", 10 - 2 * i);
        }
    }

    #[test]
    fn trimmed_prologue_feeds_the_resident_reduction() {
        // for i in 2..6, trimmed from below { B[1] = B[1] + A[2·i] } with
        // the accumulator forwarded: the prologue advances the strided
        // registers in memory, the resident loop forms its pointers from
        // them, and an empty range neither loads nor stores `B[1]`.
        let dts = [DType::F64, DType::F64];
        let clamp = Clamp {
            lo: Some((3, 1)),
            hi: None,
        };
        let item = Item::StridedLoop {
            min: 2,
            extent: 4,
            clamp,
            pre: vec![Instr::IConst(0, 2), Instr::IBin(BinOp::Mul, 1, 0, 2)],
            bumps: vec![(0, 1), (1, 2)],
            body: vec![
                Instr::Load(1, 0, 1),
                Instr::FBin(BinOp::Add, 2, 0, 1),
                Instr::Store(1, 4, 2),
            ],
            carry: Some(Carry {
                acc: 0,
                slot: 1,
                addr: 4,
                next: 2,
            }),
            kind: LoopKind::Serial,
        };
        check_item(&item, &dts).expect("forwarded trimmed loops are in the JIT subset");
        let (code, _) = compiled_sse2(|nc| nc.emit_item(&item));
        // A signalling-NaN bit pattern: any load-and-store-back through
        // an arithmetic path would quiet it.
        let snan = f64::from_bits(0x7FF0_0000_0000_0001);
        for lo in [i64::MIN, 0, 1, 2, 3, 4, 5, 9, i64::MAX] {
            let mut av: Vec<f64> = (0..16).map(|v| v as f64 + 0.5).collect();
            let mut bv = vec![-1.0, snan, -1.0];
            let slots = [av.as_mut_ptr().cast::<u8>(), bv.as_mut_ptr().cast::<u8>()];
            let mut ir = [0i64, 0, 2, lo, 1];
            let (start, end) = crate::compile::live_range(2, 4, clamp, &ir);
            run_code(&code, &mut ir, &mut [0f64; 3], &slots);
            if start == end {
                assert_eq!(bv[1].to_bits(), snan.to_bits(), "lo {lo}: empty range");
            } else {
                // (snan + A[2·start]) quiets, then the rest accumulate.
                let want = (start..end).fold(snan, |acc, i| acc + av[2 * i as usize]);
                assert_eq!(bv[1].to_bits(), want.to_bits(), "lo {lo}: {start}..{end}");
            }
            assert_eq!((bv[0], bv[2]), (-1.0, -1.0));
        }
    }

    #[test]
    fn stride_zero_muladd_matches_the_vm_loop_on_aliased_operands() {
        // (dst/a/b slots, a stride, b stride): an in-place destination
        // whose element the `a` walk crosses, and the reduction stored once
        // over non-unit, negative and zero factor strides.
        let cases = [
            ([0, 0, 1], 1, 2),
            ([0, 1, 0], 2, 1),
            ([0, 1, 2], 3, -1),
            ([0, 1, 2], 1, 5),
            ([0, 1, 2], -2, 0),
            ([0, 1, 1], 0, -3),
        ];
        for ([sd, sa, sb], stride_a, stride_b) in cases {
            let context = format!("slots {sd}/{sa}/{sb} strides {stride_a}/{stride_b}");
            let extent = 7i64;
            let arrays: Vec<NDArray> = (0..3)
                .map(|i| NDArray::random(&[LEN as usize], DType::F64, 70 + i, -1.0, 1.0))
                .collect();
            let start = |s: i64| if s < 0 { 6 * -s + 1 } else { 2 };
            // The destination sits on an element the `a` walk reaches.
            let iregs = [
                start(stride_a) + 3 * stride_a,
                start(stride_a),
                start(stride_b),
            ];
            let (d, x, y) = (
                access(sd, 0, 0),
                access(sa, 1, stride_a),
                access(sb, 2, stride_b),
            );
            // The VM's generic loop, element by element through memory.
            let mut want = arrays.clone();
            for k in 0..extent {
                let at = |acc: &SlotAccess| (iregs[acc.addr as usize] + k * acc.stride) as usize;
                let c = want[sd as usize].get_f64_linear(at(&d));
                let m = want[sa as usize].get_f64_linear(at(&x))
                    * want[sb as usize].get_f64_linear(at(&y));
                want[sd as usize].set_f64_linear(at(&d), c + m);
            }
            let row = Item::MulAddLoop {
                extent,
                pre: vec![],
                dst: d,
                a: x,
                b: y,
            };
            let cf = nest_function(&row, &iregs, 3, &[DType::F64; 3]);
            let run = |cf: &CompiledFunc| {
                let mut args = arrays.clone();
                crate::vm::execute(cf, &mut args).expect("runs");
                bits(&args)
            };
            assert_eq!(run(&cf), bits(&want), "{context}: VM");
            let native = X86Backend::sse2_only().jit_compile(&cf).expect(&context);
            let simd = native.jit_simd_report().expect("jitted");
            assert_eq!(simd.scalar_reasons.get("reduction-chain"), Some(&1));
            assert_eq!(simd.sites(), 1);
            assert_eq!(run(&native), bits(&want), "{context}: JIT");
        }
    }

    #[test]
    fn resident_nest_matches_the_in_memory_one() {
        // Depth 1–4 against 0–12 nest-level registers plus the loop
        // counters and every leaf's prelude: the six-GPR budget is
        // crossed in most cases, and what does not fit keeps its
        // in-memory form beside what does.
        let opts = X86Backend::sse2_only();
        let mut rng = SmallRng::seed_from_u64(0x2e57ed);
        let (mut spilled, mut all_booked, mut shapes, mut jammed) = (0, 0, [0u32; 4], 0);
        for case in 0..400 {
            let extras = rng.gen_range(0..=12);
            let mut g = NestGen::new(&mut rng, vec![DType::F64; 4], extras);
            let root = g.plain_loop(case % 4);
            let (dts, iregs, n_fregs) = (g.dts.clone(), g.iregs.clone(), g.n_fregs);
            for (total, seen) in shapes.iter_mut().zip(g.shapes) {
                *total += seen;
            }
            check_item(&root, &dts).unwrap_or_else(|why| panic!("case {case}: {why}"));
            let arrays: Vec<NDArray> = (0..dts.len() as u64)
                .map(|i| NDArray::random(&[LEN as usize], DType::F64, 90 + i, 0.5, 2.0))
                .collect();
            let fregs: Vec<f64> = (0..n_fregs).map(|k| 0.75 + k as f64 * 0.125).collect();
            let run = |code: &[u8]| {
                let (mut ir, mut fr, mut arrays) = (iregs.clone(), fregs.clone(), arrays.clone());
                let slots = slot_ptrs(&mut arrays);
                run_code(code, &mut ir, &mut fr, &slots);
                let fr: Vec<u64> = fr.iter().map(|v| v.to_bits()).collect();
                (bits(&arrays), ir, fr)
            };
            let (resident, simd) = compiled(&opts, |nc| nc.emit_nest(&root, &mut Walk::default()));
            let (in_memory, _) = compiled(&opts, |nc| nc.emit_item(&root));
            jammed += simd.tiled_loops.min(1);
            // Where the old template can say anything — no conditional,
            // no trimmed plain loop — the resolver with nothing resident
            // writes its bytes.
            if g.shapes[0] == 0 && !format!("{root:?}").contains("If {") {
                let (old, _) = compiled(&opts, |nc| nc.emit_item_in_memory(&root));
                assert_eq!(hex(&in_memory), hex(&old), "case {case}: {root:?}");
            }
            let (got, got_iregs, got_fregs) = run(&resident);
            let (want, _, want_fregs) = run(&in_memory);
            assert_eq!(got, want, "case {case}: {root:?}");
            // No float lives in a register at nest level.
            assert_eq!(got_fregs, want_fregs, "case {case}");
            let gprs = plan_nest(&root, &NEST_GPRS, &mut Walk::default());
            let candidates = live_ranges(&root, &mut Walk::default());
            for (r, &at_entry) in iregs.iter().enumerate() {
                // A register the nest defines is written back only if it
                // has no GPR; one it only reads is never written.
                let booked = gprs.iter().any(|e| e.0 == r as Reg);
                if at_entry != POISON || booked {
                    assert_eq!(got_iregs[r], at_entry, "case {case}: ireg {r} {root:?}");
                }
            }
            spilled += (gprs.len() < candidates.len()) as u32;
            all_booked += (gprs.len() == candidates.len() && !gprs.is_empty()) as u32;
        }
        // Non-vacuity of each branch the comparison is meant to cover.
        assert!(spilled > 100 && all_booked > 50, "{spilled} {all_booked}");
        assert!(
            shapes.iter().all(|&n| n > 40) && jammed > 10,
            "{shapes:?} {jammed}"
        );
    }

    #[test]
    fn hoisted_nest_matches_the_unhoisted_one_on_every_engine() {
        // Generated nests of depth 1–4 through the block optimizer — level
        // hoisting at every plain loop, trimmed ones included, a leaf's own
        // bumped registers and the ones read after their loop left where
        // they are — against the nest as generated, on the VM and on the
        // packed and the scalar JIT tier: six runs, one set of arrays.
        let tiers = [X86Backend::sse2_only(), X86Backend::scalar_only()];
        let mut rng = SmallRng::seed_from_u64(0x401571);
        let (mut hoisted, mut bumped, mut trimmed, mut read_after, mut jammed) = (0, 0, 0, 0, 0);
        for case in 0..300 {
            let extras = rng.gen_range(0..=12);
            let mut g = NestGen::new(&mut rng, vec![DType::F64; 4], extras);
            let root = g.plain_loop(case % 4);
            let plain = nest_function(&root, &g.iregs, g.n_fregs, &g.dts);
            let optimized = crate::optimize::optimize_compiled(&plain);
            let dump = format!("{:?}", optimized.body);
            hoisted += optimized.hoisted_loop_count();
            bumped += dump.contains("bumps: [(") as u32;
            trimmed += dump
                .contains("clamp: Clamp { lo: Some")
                .min(dump.contains("pre: [I")) as u32;
            // A register the generator reads after its loop must keep its
            // definition in the body: had it moved, the value read would be
            // one bump further.
            read_after += g.shapes[3];
            let arrays: Vec<NDArray> = (g.dts.iter().enumerate())
                .map(|(i, &dt)| NDArray::random(&[LEN as usize], dt, 70 + i as u64, 0.5, 2.0))
                .collect();
            let run = |cf: &CompiledFunc| {
                let mut args = arrays.clone();
                crate::vm::execute(cf, &mut args).expect("generated nests cannot fail");
                bits(&args)
            };
            let want = run(&plain);
            assert_eq!(run(&optimized), want, "case {case}: VM, {root:?}");
            for opts in &tiers {
                for cf in [&plain, &optimized] {
                    let jitted = opts
                        .jit_compile(cf)
                        .unwrap_or_else(|why| panic!("case {case}: {why:?}"));
                    assert_eq!(run(&jitted), want, "case {case}: {opts:?}, {:?}", cf.body);
                    // A jammed `k` loop that carries bumps of its own.
                    let tiled = jitted.jit_simd_report().map_or(0, |r| r.tiled_loops);
                    jammed += (tiled > 0 && dump.contains("bumps: [(")) as u32;
                }
            }
        }
        assert!(
            hoisted > 100 && bumped > 50 && trimmed > 5 && read_after > 25 && jammed > 10,
            "{hoisted} {bumped} {trimmed} {read_after} {jammed}"
        );
    }

    #[test]
    fn a_bump_that_wraps_past_the_last_iteration_changes_nothing() {
        // for i in 0..8 { S0[i + 3] = f64(i · 2⁶⁰); <a one-element row> }:
        // `i · 2⁶⁰` is hoisted and bumped by 2⁶⁰ — too wide for an
        // immediate, and after the eighth iteration the bump wraps to
        // `i64::MIN`, a value the unhoisted loop never computes and
        // nothing reads.
        const K: i64 = 1 << 60;
        let iregs = [K, 3, POISON, POISON, POISON];
        let row = Item::MulAddLoop {
            extent: 1,
            pre: vec![],
            dst: access(1, 1, 1),
            a: access(2, 1, 0),
            b: access(3, 1, 1),
        };
        let code = vec![
            Instr::IBin(BinOp::Mul, 3, 2, 0),
            Instr::IToF(3, 3),
            Instr::IBin(BinOp::Add, 4, 2, 1),
            Instr::Store(0, 4, 3),
        ];
        let root = Item::Loop {
            var: 2,
            min: 0,
            extent: 8,
            clamp: Clamp::default(),
            pre: vec![],
            bumps: vec![],
            body: Block {
                items: vec![Item::Code(code), row],
            },
            kind: LoopKind::Serial,
        };
        let dts = [DType::F64; 4];
        let plain = nest_function(&root, &iregs, 4, &dts);
        let optimized = crate::optimize::optimize_compiled(&plain);
        let Item::Loop { bumps, .. } = &optimized.body.items[1] else {
            panic!("{:?}", optimized.body);
        };
        assert_eq!(bumps, &[(3, K), (4, 1)]);
        let arrays = vec![NDArray::zeros(&[LEN as usize], DType::F64); 4];
        let run = |cf: &CompiledFunc| {
            let mut args = arrays.clone();
            crate::vm::execute(cf, &mut args).expect("runs");
            args[0].to_f64_vec()
        };
        let want = run(&plain);
        assert_eq!(want[10], (7 * K) as f64);
        assert_eq!(run(&optimized), want);
        for opts in [X86Backend::sse2_only(), X86Backend::scalar_only()] {
            let jitted = opts.jit_compile(&optimized).expect("in the subset");
            assert_eq!(run(&jitted), want, "{opts:?}");
        }
    }

    // ------------------------------------------------------ template goldens

    fn muladd(extent: i64, slots: [u16; 3], strides: [i64; 3]) -> Item {
        let [dst, a, b] = [0, 1, 2].map(|k| access(slots[k], k as Reg, strides[k]));
        Item::MulAddLoop {
            extent,
            pre: vec![],
            dst,
            a,
            b,
        }
    }

    /// A strided loop from 2 over `bumps`, each strided register starting
    /// at 3.
    fn strided(
        extent: i64,
        clamp: Clamp,
        bumps: &[(Reg, i64)],
        body: Vec<Instr>,
        carry: Option<Carry>,
    ) -> Item {
        Item::StridedLoop {
            min: 2,
            extent,
            clamp,
            pre: bumps.iter().map(|&(r, _)| Instr::IConst(r, 3)).collect(),
            bumps: bumps.to_vec(),
            body,
            carry,
            kind: LoopKind::Serial,
        }
    }

    fn serial(var: Reg, extent: i64, clamp: Clamp, items: Vec<Item>) -> Item {
        Item::Loop {
            var,
            min: 0,
            extent,
            clamp,
            pre: vec![],
            bumps: vec![],
            body: Block { items },
            kind: LoopKind::Serial,
        }
    }

    /// lu's `(i, j)` cell under its `j` loop, `i` (ireg 0) and `N` (ireg 1)
    /// the caller's: `for j { if j < i { A[i,j] = (A[i,j] − Σ_{k<j}
    /// A[i,k]·A[k,j]) / A[j,j] } else { A[i,j] −= Σ_{k<i} A[i,k]·A[k,j] } }`,
    /// both reductions trimmed and forwarded.
    fn lu_cell_nest() -> Item {
        let reduction = |var: Reg, bound: Reg, acc: Reg| {
            // iregs: var = k, var+1 = i·N + k, var+2 = k·N + j.
            let (row, col) = (var + 1, var + 2);
            let clamp = Clamp {
                lo: None,
                hi: Some((bound, 0)),
            };
            let carry = Carry {
                acc,
                slot: 0,
                addr: 5,
                next: acc + 3,
            };
            Item::StridedLoop {
                min: 0,
                extent: 8,
                clamp,
                pre: vec![
                    Instr::IConst(var, 0),
                    Instr::IBin(BinOp::Add, row, 3, var),
                    Instr::IBin(BinOp::Add, col, 2, var),
                ],
                bumps: vec![(var, 1), (row, 1), (col, 8)],
                body: vec![
                    Instr::Load(acc + 1, 0, row),
                    Instr::Load(acc + 2, 0, col),
                    fmuladd(acc + 3, acc, acc + 1, acc + 2),
                    Instr::Store(0, 5, acc + 3),
                ],
                carry: Some(carry),
                kind: LoopKind::Serial,
            }
        };
        let cell = vec![
            Instr::IBin(BinOp::Mul, 3, 0, 1), // i·N
            Instr::IBin(BinOp::Mul, 4, 2, 1), // j·N
            Instr::IBin(BinOp::Add, 5, 3, 2), // &A[i,j]
            Instr::IBin(BinOp::Add, 6, 4, 2), // &A[j,j]
            Instr::ICmp(CmpOp::Lt, 7, 2, 0),
        ];
        let divide = vec![
            Instr::Load(8, 0, 5),
            Instr::Load(9, 0, 6),
            Instr::FBin(BinOp::Div, 10, 8, 9),
            Instr::Store(0, 5, 10),
        ];
        let below = Block {
            items: vec![reduction(8, 2, 0), Item::Code(divide)],
        };
        let above = Block {
            items: vec![reduction(11, 0, 4)],
        };
        let branch = Item::If {
            cond: 7,
            then: below,
            else_: Some(above),
        };
        serial(2, 8, Clamp::default(), vec![Item::Code(cell), branch])
    }

    /// A split tail: `for xo in 0..3 { for xi in 0..4 { if xo·4 + xi < 10
    /// { C[x] += A[x]·B[x] } } }`, the guard tested every iteration, with
    /// the `xo` loop itself trimmed by a bound of the caller's (ireg 9).
    fn guarded_tail_nest() -> Item {
        let inner = vec![
            Instr::IBin(BinOp::Add, 4, 3, 2),
            Instr::ICmp(CmpOp::Lt, 5, 4, 6),
        ];
        let guarded = vec![
            Instr::Load(0, 0, 4),
            Instr::Load(1, 1, 4),
            Instr::Load(2, 2, 4),
            fmuladd(3, 2, 0, 1),
            Instr::Store(2, 4, 3),
        ];
        let tail = Item::If {
            cond: 5,
            then: Block {
                items: vec![Item::Code(guarded)],
            },
            else_: None,
        };
        let xi = serial(2, 4, Clamp::default(), vec![Item::Code(inner), tail]);
        let outer = vec![Instr::IBin(BinOp::Mul, 3, 0, 1)];
        let clamp = Clamp {
            lo: None,
            hi: Some((9, 1)),
        };
        serial(0, 3, clamp, vec![Item::Code(outer), xi])
    }

    /// gemm `{1, 2}`'s `j.outer` nest as level hoisting leaves it, `i·N`
    /// (ireg 9) and `i·K` (ireg 15) the caller's: `for jo { for k { T[i,
    /// jo·2 ..+2] += A[i, k] · B[k, jo·2 ..+2] } }`, every address set at
    /// its loop's entry and bumped, the row one microkernel with nothing
    /// left in its prelude. Six `k` steps: one jammed group and two
    /// leftover, which set the hoisted registers again. `jo` is trimmed by
    /// a bound of the caller's (ireg 1).
    fn hoisted_matmul_nest() -> Item {
        let row = Item::MulAddLoop {
            extent: 2,
            pre: vec![],
            dst: access(2, 13, 1),
            a: access(0, 16, 0),
            b: access(1, 19, 1),
        };
        let k = Item::Loop {
            var: 7,
            min: 0,
            extent: 6,
            clamp: Clamp::default(),
            pre: vec![
                Instr::IBin(BinOp::Add, 16, 15, 7),
                Instr::IBin(BinOp::Mul, 17, 7, 2),
                Instr::IBin(BinOp::Add, 18, 11, 17),
                Instr::IConst(8, 0),
                Instr::IBin(BinOp::Add, 13, 12, 8),
                Instr::IBin(BinOp::Add, 19, 18, 8),
            ],
            bumps: vec![(16, 1), (19, 220)],
            body: Block { items: vec![row] },
            kind: LoopKind::Serial,
        };
        Item::Loop {
            var: 6,
            min: 0,
            extent: 110,
            clamp: Clamp {
                lo: None,
                hi: Some((1, 0)),
            },
            pre: vec![
                Instr::IBin(BinOp::Mul, 11, 6, 10),
                Instr::IBin(BinOp::Add, 12, 9, 11),
            ],
            bumps: vec![(11, 2), (12, 2)],
            body: Block { items: vec![k] },
            kind: LoopKind::Serial,
        }
    }

    #[test]
    fn templates_are_byte_for_byte_the_recorded_ones() {
        // Recorded from the single-file emitter of `jit/v4` (the commit
        // before the vector layer existed) on all three tiers, re-recorded
        // on `jit/v5` for the rows the one live-range template moved (the
        // trimmed strided loop; the jam's counter set-up is the same
        // bytes) plus the two whole nests, and on `jit/v6` for the rows
        // that sweep a row at more than one width or run a counted loop
        // once (CHANGES.md lists them) plus the short rows and the hoisted
        // nest; nothing is executed, so the AVX rows are checked on any
        // host. The `(1,1,0)` and `(1,1,1)` microkernels see no benchmark
        // traffic, so these bytes are the only thing that holds them
        // still; a change that moves emitted code on purpose re-records
        // the file.
        let mut cases: Vec<(String, Item)> = Vec::new();
        // Microkernels: the parallel patterns, the reduction stored once
        // and the generic path's refusals (a walking destination with a
        // non-unit stride, an aliased destination). Extent 27 leaves a
        // tiled main loop, leftover vectors and a scalar tail at both
        // vector widths.
        let apart = [0, 1, 2];
        let microkernels = [
            (27, apart, [1, 0, 1]),
            (27, apart, [1, 1, 0]),
            (27, apart, [1, 1, 1]),
            (27, apart, [0, 1, 3]),
            (27, apart, [2, 1, 1]),
            (9, [0, 0, 1], [1, 1, 0]),
        ];
        // Short rows (`jit/v6`): the width follows the extent, so a row
        // of two is one SSE2 operation on either packed tier and five are
        // a VEX-256 one and a scalar one.
        let short_rows = [
            (2, apart, [1, 0, 1]),
            (3, apart, [1, 1, 0]),
            (5, apart, [1, 0, 1]),
        ];
        for (n, slots, strides) in microkernels.into_iter().chain(short_rows) {
            let name = format!("muladd n={n} {slots:?} {strides:?}");
            cases.push((name, muladd(n, slots, strides)));
        }
        for (j, inv_first) in [(27, true), (8, false)] {
            let name = format!("jam j={j} inv_first={inv_first}");
            cases.push((name, JamNest::new(j, inv_first).item()));
        }
        // The register-resident scalar loop: a static extent with every
        // scalar template in the body (re-recorded on `jit/v6`), and a
        // trimmed reduction with its accumulator forwarded.
        let every_template = vec![
            Instr::Load(0, 0, 1),
            Instr::IToF(1, 0),
            Instr::FConst(4, -2.5),
            fmuladd(3, 4, 0, 1),
            Instr::FBin(BinOp::Sub, 5, 3, 9),
            Instr::FBin(BinOp::Div, 6, 5, 4),
            Instr::Call1(Intrinsic::Sqrt, 7, 6),
            Instr::Store(1, 2, 7),
            Instr::Store(0, 1, 7),
        ];
        let walks = [(0, 1), (1, 3), (2, -2)];
        let item = strided(6, Clamp::default(), &walks, every_template, None);
        cases.push(("scalar strided resident".into(), item));
        let clamp = Clamp {
            lo: Some((3, 1)),
            hi: Some((5, 0)),
        };
        let carry = Carry {
            acc: 0,
            slot: 1,
            addr: 4,
            next: 2,
        };
        let reduction = vec![
            Instr::Load(1, 0, 1),
            Instr::FBin(BinOp::Add, 2, 0, 1),
            Instr::Store(1, 4, 2),
        ];
        let item = strided(4, clamp, &[(0, 1), (1, 2)], reduction, Some(carry));
        cases.push(("trimmed strided carry".into(), item));
        let tiers = [
            ("scalar", X86Backend::scalar_only()),
            ("sse2", X86Backend::sse2_only()),
            ("avx", X86Backend::avx()),
        ];
        // Whole nests, planned over the nest GPRs (`jit/v5`), and one
        // whose loops carry hoisted registers (`jit/v6`).
        let nests = [
            ("nest lu cell", lu_cell_nest()),
            ("nest guarded tail", guarded_tail_nest()),
            ("nest hoisted matmul", hoisted_matmul_nest()),
        ];
        let mut got = String::new();
        for (tier, opts) in &tiers {
            let mut row = |name: &str, (code, simd): (Vec<u8>, SimdReport)| {
                let mut reasons: Vec<_> = simd.scalar_reasons.iter().collect();
                reasons.sort();
                let (packed, tiled) = (simd.packed_loops, simd.tiled_loops);
                let tally = format!("packed {packed} tiled {tiled} scalar {reasons:?}");
                got.push_str(&format!("{tier} {name}: {tally} {}\n", hex(&code)));
            };
            for (name, item) in &cases {
                row(name, compiled(opts, |nc| nc.emit_item(item)));
            }
            for (name, item) in &nests {
                row(
                    name,
                    compiled(opts, |nc| nc.emit_nest(item, &mut Walk::default())),
                );
            }
        }
        assert_same_lines(&got, include_str!("goldens/templates.txt"));
    }
}
