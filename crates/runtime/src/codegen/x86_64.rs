//! Hand-rolled x86-64 emitter and loop-nest compiler.
//!
//! The backend compiles whole *nests* of an optimized bytecode program —
//! a loop or conditional whose subtree is built from `Loop` (static or
//! trimmed), `If`, `StridedLoop`, `MulAddLoop` and straight-line `Code`
//! whose every instruction is in the infallible JIT subset — into single
//! native functions, eliminating the VM's per-item dispatch and
//! per-instruction interpretation. A nest holding a proven-parallel loop
//! stays in bytecode for the pool; the nests inside it still compile.
//!
//! # Bit-exactness contract
//!
//! Emitted code must match the optimized VM (and therefore the
//! reference interpreter) bit for bit:
//!
//! - Each bytecode instruction lowers to one short template, emitted in
//!   program order, so the order of evaluation — every operation, every
//!   rounding, every load and store — is the VM's whatever holds the
//!   operands. There is one instruction emitter
//!   ([`emit::NestCompiler::emit_instr`]) and it takes each operand from
//!   where a plan put it, else from the register files in memory
//!   (`iregs`/`fregs` arrays passed in `rdi`/`rsi`) through scratch
//!   registers, operand by operand — x86 ALU ops take a memory operand.
//!   Two plans say where:
//!   - **The nest** ([`plan::plan_nest`]): loop counters and the integer
//!     registers the nest defines (nest-level code, the preludes of its
//!     strided loops and microkernels) live in the callee-saved GPRs
//!     `rbx`, `rbp`, `r12`–`r15` for as long as something reads them,
//!     innermost definitions first; the registers are saved once at the
//!     nest's entry and restored at its `ret`, and no leaf template
//!     touches them. Nothing is written back: a nest is one loop or
//!     conditional, and a register defined inside one is dead after it.
//!     A register read where its definition may not have run — outside
//!     its loop, past the conditional arm that holds it — keeps its
//!     in-memory form, and a nest that is one leaf plans nothing.
//!     A plain loop's hoisted registers ([`crate::optimize`]'s level
//!     hoisting) are booked like its counter — set once at loop entry,
//!     bumped by `add r, imm` at the bottom — so an outer level's index
//!     arithmetic costs an add an iteration, not a recomputation.
//!     Integer templates are the same wrapping `add`/`sub`/`imul`;
//!     compares and `And`/`Or`/`Not` are `cmp`/`setcc`, exact by
//!     construction. Float operands of nest-level code stay in `fregs`.
//!   - **The scalar strided loop** ([`plan::plan_resident`], emitted by
//!     [`emit::NestCompiler::emit_strided_trips`], the one loop the
//!     static and the trimmed template both end in) adds to the nest's
//!     plan an element pointer in a GPR for each `(slot, address
//!     register)` pair, stepped by the stride the address register had;
//!     an XMM register for each freg the body defines, never written
//!     back (post-loop state of body-defined registers is
//!     unobservable); one XMM register for a forwarded
//!     accumulator ([`crate::compile::Carry`]: loaded once behind the
//!     empty-range test, stored by every iteration).
//!
//!   Every unchecked access a resident form issues is one the in-memory
//!   form issued, at the same address, covered by the same proof.
//! - Float ops use scalar SSE2 (`mulsd`/`addsd`/`divsd`/`sqrtsd`),
//!   which are IEEE-correctly-rounded exactly like Rust's `f64` ops.
//! - Packed SIMD (`movupd`/`mulpd`/`addpd` f64x2, or their VEX-256
//!   f64x4 forms when AVX is detected) is used in two places, both
//!   remainder-safe — what a sweep leaves over runs at the next narrower
//!   width, VEX-256 then SSE2 then scalar, so a short row gets the width
//!   its extent fills — and neither on the scalar tier
//!   ([`X86Backend::scalar_only`]):
//!   mul-add microkernels with *parallel* stride patterns, where every
//!   lane performs one multiply and one add with per-element rounding —
//!   bit-identical to the scalar order, with a register-tiled 4×
//!   unroll-and-jam main loop; and a cross-iteration unroll-and-jam of
//!   the *reduction* loop itself, when a serial loop wraps exactly one
//!   axpy-like mul-add whose
//!   destination row is invariant in the loop variable (the y-tile-1
//!   matmul shape): four consecutive reduction steps are fused into
//!   one sweep that loads and stores the destination once per four
//!   multiply-adds. Each destination cell still sees the identical
//!   per-op-rounded sequence `(((d+m₀)+m₁)+m₂)+m₃` in ascending
//!   reduction order — only the interleaving across *distinct* cells
//!   changes — and a dataflow scan ([`plan::plan_jam`]) proves
//!   the destination address and broadcast factor invariant before the
//!   jam fires. A reduction into one element (`dst` stride 0, any factor
//!   strides) has a serial accumulation chain and always stays scalar
//!   (`reduction-chain`), with the accumulator in a register; a strided
//!   loop is one scalar site (`strided-loop`); and every vector site is
//!   tallied packed-or-scalar-with-reason in [`super::SimdReport`].
//! - A *trimmed* loop ([`crate::optimize`]'s loop trimming: a guard on
//!   the loop's own variable turned into a live range) computes its range
//!   at loop entry — [`emit::NestCompiler::emit_live_range`],
//!   [`crate::compile::live_range`] in machine code, one template for the
//!   plain and the strided loop — and runs the iterations whose guard
//!   held, in ascending order. A trimmed strided loop runs the scalar
//!   strided template ([`emit::NestCompiler::emit_trimmed_strided`]) and
//!   is tallied under `dynamic-extent`; a trimmed plain loop is never
//!   jammed — the jam splits a static extent.
//! - A conditional tests its condition register against zero and jumps
//!   over the arm not taken; both arms are checked, so a store that a
//!   false guard protects is never reached and one a true guard admits
//!   was proven in bounds by the compiler or the nest is not compiled.
//!
//! Anything outside the subset — bounds checks, checked stores, failable
//! integer division, float min/max (NaN semantics differ from Rust's),
//! float→int casts (saturation differs), float compares and selects
//! (NaN-faithful flag handling), and integer-typed buffers — rejects the
//! nest; the VM executes those items unchanged and the nests inside them
//! still compile.
//!
//! # One place knows the ISA
//!
//! A template names a float instruction by what it does and how wide it
//! is — [`asm::Width`]: scalar, SSE2 128-bit or VEX 256-bit over `f64`
//! elements — and [`asm::Asm`]'s vector layer (`vload`, `vstore`,
//! `vop_rr`, `vop_rm`, `vop1`, `vmov`, `bcast`, `vend`) picks the
//! encoding: the legacy two-operand forms with their copy-then-operate
//! and load-then-operate sequences, or the three-operand VEX forms. The
//! width comes from [`X86Backend::width`] for what the host can run and
//! is [`asm::SD`] for the in-order templates and every tail, so
//! a template is written once for all three tiers and lane counts and
//! byte steps are read off the width it was handed.

mod asm;
mod emit;
mod plan;

pub use emit::X86Backend;

/// What the encoder, planner and template tests share.
#[cfg(test)]
mod fixtures {
    use crate::compile::{Block, Carry, Clamp, Instr, Item, LoopKind, Reg, SlotAccess};
    use rand::rngs::SmallRng;
    use rand::Rng;
    use tvm_te::{BinOp, CmpOp, DType};

    pub(super) fn hex(code: &[u8]) -> String {
        code.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// First line where two dumps differ, with both sides.
    pub(super) fn assert_same_lines(got: &str, want: &str) {
        for (g, w) in got.lines().zip(want.lines()) {
            assert_eq!(g, w, "first differing row");
        }
        assert_eq!(got.lines().count(), want.lines().count(), "row count");
    }

    pub(super) fn access(slot: u16, addr: Reg, stride: i64) -> SlotAccess {
        SlotAccess { slot, addr, stride }
    }

    pub(super) fn fmuladd(dst: Reg, add: Reg, a: Reg, b: Reg) -> Instr {
        Instr::FMulAdd { dst, add, a, b }
    }

    /// A serial `k` loop (six iterations: one jammed group of four and two
    /// leftover) around a `j` microkernel whose destination row does not
    /// move with `k`, and whatever `tail` holds after it.
    pub(super) struct JamNest {
        pub(super) k: i64,
        pub(super) code: Vec<Instr>,
        pub(super) pre: Vec<Instr>,
        pub(super) dst: SlotAccess,
        pub(super) a: SlotAccess,
        pub(super) b: SlotAccess,
        pub(super) j: i64,
        pub(super) tail: Vec<Item>,
    }

    impl JamNest {
        /// `inv_first` puts the stride-0 factor in the multiply's first
        /// operand.
        pub(super) fn new(j: i64, inv_first: bool) -> JamNest {
            let (inv, vec) = (access(1, 7, 0), access(2, 4, 1));
            let (a, b) = if inv_first { (inv, vec) } else { (vec, inv) };
            let (row, col, dst) = (4, 7, 9);
            JamNest {
                k: 6,
                code: vec![Instr::IConst(5, 32), Instr::IBin(BinOp::Mul, 3, 0, 5)],
                pre: vec![
                    Instr::IBin(BinOp::Add, row, 3, 6),
                    Instr::IBin(BinOp::Add, col, 0, 8),
                    Instr::IConst(dst, 2),
                ],
                dst: access(0, dst, 1),
                a,
                b,
                j,
                tail: vec![],
            }
        }

        pub(super) fn item(self) -> Item {
            let kernel = Item::MulAddLoop {
                extent: self.j,
                pre: self.pre,
                dst: self.dst,
                a: self.a,
                b: self.b,
            };
            let items = [Item::Code(self.code), kernel].into_iter().chain(self.tail);
            Item::Loop {
                var: 0,
                min: 1,
                extent: self.k,
                clamp: Clamp::default(),
                pre: vec![],
                bumps: vec![],
                body: Block {
                    items: items.collect(),
                },
                kind: LoopKind::Serial,
            }
        }
    }

    /// A generated nest as a function over [`LEN`]-element arrays of
    /// `dts`: a prologue that sets the registers the nest only reads
    /// (`iregs` entries other than [`POISON`]; the ones it defines start at
    /// zero) and the caller's fregs, then the nest. What the block
    /// optimizer and the VM take.
    pub(super) fn nest_function(
        root: &Item,
        iregs: &[i64],
        n_fregs: Reg,
        dts: &[DType],
    ) -> crate::compile::CompiledFunc {
        let konsts = iregs.iter().enumerate().filter(|(_, &v)| v != POISON);
        let mut prologue: Vec<Instr> = konsts.map(|(r, &v)| Instr::IConst(r as Reg, v)).collect();
        prologue.extend((0..3).map(|k| Instr::FConst(k, 0.75 + f64::from(k) * 0.125)));
        let shape = vec![LEN as usize];
        crate::compile::CompiledFunc {
            name: "nest".into(),
            params: (0..dts.len())
                .map(|k| crate::compile::ParamSpec {
                    name: format!("S{k}"),
                    shape: shape.clone(),
                    dtype: dts[k],
                })
                .collect(),
            allocs: vec![],
            slot_names: (0..dts.len()).map(|k| format!("S{k}")).collect(),
            slot_shapes: vec![shape; dts.len()],
            slot_strides: vec![vec![1]; dts.len()],
            n_iregs: iregs.len(),
            n_fregs: n_fregs as usize,
            body: Block {
                items: vec![Item::Code(prologue), root.clone()],
            },
            jit: None,
            par: None,
        }
    }

    pub(super) fn pick_of(avail: &[Reg], rng: &mut SmallRng) -> Reg {
        avail[rng.gen_range(0..avail.len())]
    }

    // ------------------------------------------------------- generated nests

    /// Elements per array of a generated nest.
    pub(super) const LEN: i64 = 256;
    /// What an integer register holds before the nest defines it: read as
    /// an address it faults, read as a value it shows.
    pub(super) const POISON: i64 = 0x5A5A_5A5A_5A5A_5A5A;

    /// A generated loop nest: plain loops `depth` deep (static or trimmed,
    /// extents 1–3, any of them the jammed microkernel wrapper), with
    /// conditionals on integer compares and their `And`/`Or`/`Not`, up to
    /// `extras` nest-level integer registers built from loop variables,
    /// constants and each other, every one written to an array through
    /// `IToF` so its value is observable (some of them past the arm that
    /// defines them, where the arm may not have run), and at the bottom a
    /// leaf of every kind — a microkernel of any stride pattern, a
    /// strided loop that is static, trimmed or carries its accumulator,
    /// reads its loop variable as a value and walks backwards — whose
    /// address, bound and condition registers come from any level of the
    /// nest or from outside it. One plain loop in three is followed by a
    /// read of a register its body defines, as a value, after the loop.
    /// Every address stays inside its array.
    pub(super) struct NestGen<'r> {
        pub(super) rng: &'r mut SmallRng,
        pub(super) dts: Vec<DType>,
        /// The integer file at entry: the constants the nest reads,
        /// [`POISON`] in every register it defines.
        pub(super) iregs: Vec<i64>,
        pub(super) n_fregs: Reg,
        /// Registers code generated now may read, with the interval of
        /// the values each takes.
        pub(super) avail: Vec<(Reg, i64, i64)>,
        pub(super) extras: usize,
        /// Trimmed plain loops, conditionals with an `else`, jam wrappers,
        /// reads of a loop's register after the loop.
        pub(super) shapes: [u32; 4],
        /// A register the body of the plain loop generated last defines.
        pub(super) defined_in_loop: Option<Reg>,
    }

    impl<'r> NestGen<'r> {
        /// A generator over arrays of `dts` with a budget of `extras`
        /// nest-level registers; fregs 0..3 are the caller's.
        pub(super) fn new(rng: &'r mut SmallRng, dts: Vec<DType>, extras: usize) -> Self {
            NestGen {
                rng,
                dts,
                iregs: Vec::new(),
                n_fregs: 3,
                avail: Vec::new(),
                extras,
                shapes: [0; 4],
                defined_in_loop: None,
            }
        }

        fn below(&mut self, n: i64) -> i64 {
            self.rng.gen_range(0..n)
        }

        fn defined(&mut self) -> Reg {
            self.iregs.push(POISON);
            (self.iregs.len() - 1) as Reg
        }

        /// A register the caller of the nest holds `v` in.
        fn konst(&mut self, v: i64) -> Reg {
            self.iregs.push(v);
            (self.iregs.len() - 1) as Reg
        }

        fn freg(&mut self) -> Reg {
            self.n_fregs += 1;
            self.n_fregs - 1
        }

        /// Something to read: a register of the nest, or a constant.
        fn operand(&mut self) -> (Reg, i64, i64) {
            if self.avail.is_empty() || self.rng.gen_bool(0.2) {
                let v = self.below(7) - 2;
                (self.konst(v), v, v)
            } else {
                self.avail[self.rng.gen_range(0..self.avail.len())]
            }
        }

        /// One more nest-level integer register, if the budget has one.
        fn extra(&mut self, code: &mut Vec<Instr>) {
            if self.extras == 0 {
                return;
            }
            let ((x, xl, xh), (y, yl, yh)) = (self.operand(), self.operand());
            let d = self.defined();
            let (instr, lo, hi) = match self.below(8) {
                0 | 1 => (Instr::IBin(BinOp::Add, d, x, y), xl + yl, xh + yh),
                2 => (Instr::IBin(BinOp::Sub, d, x, y), xl - yh, xh - yl),
                3 => {
                    let p = [xl * yl, xl * yh, xh * yl, xh * yh];
                    let (lo, hi) = (*p.iter().min().unwrap(), *p.iter().max().unwrap());
                    (Instr::IBin(BinOp::Mul, d, x, y), lo, hi)
                }
                4 => {
                    const OPS: [CmpOp; 6] = [
                        CmpOp::Lt,
                        CmpOp::Le,
                        CmpOp::Gt,
                        CmpOp::Ge,
                        CmpOp::Eq,
                        CmpOp::Ne,
                    ];
                    let op = OPS[self.rng.gen_range(0..OPS.len())];
                    (Instr::ICmp(op, d, x, y), 0, 1)
                }
                5 => (Instr::And(d, x, y), 0, 1),
                6 => (Instr::Or(d, x, y), 0, 1),
                _ => (Instr::Not(d, x), 0, 1),
            };
            if lo.abs().max(hi.abs()) > 40 {
                // Too wide to address with: leave it defined and unread.
                code.push(Instr::IConst(d, lo));
                return;
            }
            code.push(instr);
            self.avail.push((d, lo, hi));
            self.extras -= 1;
        }

        /// An address register every value of which leaves `back`
        /// elements before it and `fwd` after it inside an array: a
        /// register of the nest plus a constant, or — unless the caller
        /// will bump it — a constant alone.
        fn addr(&mut self, code: &mut Vec<Instr>, (back, fwd): (i64, i64), bumped: bool) -> Reg {
            let slack = self.below(8);
            if !bumped && self.rng.gen_bool(0.2) {
                return self.konst(back + slack);
            }
            let (base, lo, hi) = if self.avail.is_empty() {
                (self.konst(0), 0, 0)
            } else {
                self.avail[self.rng.gen_range(0..self.avail.len())]
            };
            assert!(back + slack + (hi - lo) + fwd < LEN);
            let (a, c) = (self.defined(), self.konst(back + slack - lo));
            code.push(Instr::IBin(BinOp::Add, a, base, c));
            a
        }

        /// Make one available register's value observable.
        fn observe(&mut self, code: &mut Vec<Instr>) {
            if self.avail.is_empty() {
                return;
            }
            let (r, ..) = self.avail[self.rng.gen_range(0..self.avail.len())];
            self.observe_reg(r, code);
        }

        fn observe_reg(&mut self, r: Reg, code: &mut Vec<Instr>) {
            let (f, slot) = (self.freg(), self.below(4) as u16);
            let at = self.addr(code, (0, 0), false);
            code.push(Instr::IToF(f, r));
            code.push(Instr::Store(slot, at, f));
        }

        fn span(stride: i64, n: i64) -> (i64, i64) {
            let reach = stride * (n - 1);
            ((-reach).max(0), reach.max(0))
        }

        fn muladd(&mut self, n: i64, slots: [u16; 3], strides: [i64; 3]) -> Item {
            let mut pre = Vec::new();
            let [dst, a, b] = [0, 1, 2].map(|k| {
                let at = self.addr(&mut pre, Self::span(strides[k], n), false);
                access(slots[k], at, strides[k])
            });
            Item::MulAddLoop {
                extent: n,
                pre,
                dst,
                a,
                b,
            }
        }

        fn any_muladd(&mut self) -> Item {
            const PATTERNS: [[i64; 3]; 9] = [
                [1, 0, 1],
                [1, 1, 0],
                [1, 1, 1],
                [0, 1, 1],
                [0, 1, 3],
                [0, -2, 0],
                [2, 1, 1],
                [1, 2, 1],
                [-1, 1, 1],
            ];
            let strides = PATTERNS[self.rng.gen_range(0..PATTERNS.len())];
            let slots = [0, 1, 2].map(|_| self.below(4) as u16);
            let n = 1 + self.below(9);
            self.muladd(n, slots, strides)
        }

        /// A serial `k` loop around a microkernel whose destination row
        /// does not move with `k`: jammed when the three slots agree.
        fn jam_wrapper(&mut self) -> Item {
            self.shapes[2] += 1;
            let (j, kext, kmin) = (2 + self.below(4), 4 + self.below(4), self.below(2));
            let k = self.defined();
            // The destination's address is built before `k` is readable.
            let mut pre = Vec::new();
            let row = Self::span(1, j);
            let dst = access(0, self.addr(&mut pre, row, false), 1);
            let mark = self.avail.len();
            self.avail.push((k, kmin, kmin + kext - 1));
            let mut code = Vec::new();
            self.extra(&mut code);
            let inv_first = self.rng.gen_bool(0.5);
            let inv = access(1, self.addr(&mut pre, (0, 0), false), 0);
            let vec = access(2, self.addr(&mut pre, row, false), 1);
            self.avail.truncate(mark);
            let (a, b) = if inv_first { (inv, vec) } else { (vec, inv) };
            let kernel = Item::MulAddLoop {
                extent: j,
                pre,
                dst,
                a,
                b,
            };
            Item::Loop {
                var: k,
                min: kmin,
                extent: kext,
                clamp: Clamp::default(),
                pre: vec![],
                bumps: vec![],
                body: Block {
                    items: vec![Item::Code(code), kernel],
                },
                kind: LoopKind::Serial,
            }
        }

        /// A bound of a live range: a register of the nest or a constant,
        /// near the static range or far outside it.
        fn clamp(&mut self, p: f64) -> Clamp {
            let side = |s: &mut Self| {
                s.rng.gen_bool(p).then(|| {
                    let reg = if s.rng.gen_bool(0.5) {
                        s.operand().0
                    } else {
                        let v = [i64::MIN, -3, 0, 1, 2, 3, 5, i64::MAX][s.below(8) as usize];
                        s.konst(v)
                    };
                    (reg, s.below(2))
                })
            };
            Clamp {
                lo: side(self),
                hi: side(self),
            }
        }

        fn strided(&mut self) -> Item {
            const STRIDES: [i64; 6] = [0, 1, 2, 3, -1, -2];
            const OPS: [BinOp; 4] = [BinOp::Add, BinOp::Mul, BinOp::Sub, BinOp::Div];
            let (n, min) = (1 + self.below(8), [0, 0, 2, -1][self.below(4) as usize]);
            let var = self.defined();
            let mut pre = vec![Instr::IConst(var, min)];
            let mut bumps = vec![(var, 1)];
            let carried = self.rng.gen_bool(0.4);
            // Pointer 0 is the carry's: fixed, and its slot stored to by
            // nothing else.
            let n_ptrs = 1 + self.below(4) as usize;
            let mut ptrs = Vec::new();
            for k in 0..n_ptrs {
                let stride = if carried && k == 0 {
                    0
                } else {
                    STRIDES[self.rng.gen_range(0..STRIDES.len())]
                };
                let slot = if carried && k > 0 {
                    1 + self.below(3) as u16
                } else {
                    self.below(4) as u16
                };
                let a = self.addr(&mut pre, Self::span(stride, n), stride != 0);
                if stride != 0 {
                    bumps.push((a, stride));
                }
                ptrs.push((if carried && k == 0 { 0 } else { slot }, a));
            }
            // fregs 0..3 are the caller's.
            let mut vals: Vec<Reg> = vec![0, 1, 2];
            let mut body = Vec::new();
            for &(slot, a) in ptrs.iter().skip(carried as usize) {
                let d = self.freg();
                body.push(Instr::Load(d, slot, a));
                vals.push(d);
            }
            if self.rng.gen_bool(0.5) {
                let d = self.freg();
                body.push(Instr::IToF(d, var));
                vals.push(d);
            }
            for _ in 0..self.below(4) {
                let (d, x, y) = (
                    self.freg(),
                    pick_of(&vals, self.rng),
                    pick_of(&vals, self.rng),
                );
                let op = OPS[self.rng.gen_range(0..OPS.len())];
                body.push(if self.rng.gen_bool(0.5) {
                    Instr::FBin(op, d, x, y)
                } else {
                    fmuladd(d, x, y, pick_of(&vals, self.rng))
                });
                vals.push(d);
            }
            for &(slot, a) in ptrs.iter().skip(carried as usize) {
                if self.rng.gen_bool(0.5) {
                    body.push(Instr::Store(slot, a, pick_of(&vals, self.rng)));
                }
            }
            let carry = carried.then(|| {
                let (acc, next, (slot, addr)) = (self.freg(), self.freg(), ptrs[0]);
                body.push(Instr::FBin(BinOp::Add, next, acc, pick_of(&vals, self.rng)));
                body.push(Instr::Store(slot, addr, next));
                Carry {
                    acc,
                    slot,
                    addr,
                    next,
                }
            });
            Item::StridedLoop {
                min,
                extent: n,
                clamp: self.clamp(0.3),
                pre,
                bumps,
                body,
                carry,
                kind: LoopKind::Serial,
            }
        }

        pub(super) fn plain_loop(&mut self, depth_left: usize) -> Item {
            let (var, extent, min) = (self.defined(), 1 + self.below(3), self.below(3) - 1);
            let clamp = self.clamp(0.2);
            self.shapes[0] += !clamp.is_none() as u32;
            let mark = self.avail.len();
            self.avail.push((var, min, min + extent - 1));
            let body = self.block(depth_left);
            self.defined_in_loop = self.avail.get(mark + 1).map(|a| a.0);
            self.avail.truncate(mark);
            Item::Loop {
                var,
                min,
                extent,
                clamp,
                pre: vec![],
                bumps: vec![],
                body,
                kind: LoopKind::Serial,
            }
        }

        /// A conditional on a register of the nest (a compare's 0/1, or
        /// any value), its arms one level further down — and, one time in
        /// three, a register its `then` arm defines read as a value where
        /// that arm may not have run: in the `else` arm, or after the
        /// conditional.
        fn conditional(&mut self, depth_left: usize) -> Vec<Item> {
            let (cond, ..) = self.operand();
            let mark = self.avail.len();
            let then = self.block(depth_left);
            let stray = self.avail.get(mark).map(|a| a.0);
            let stray = stray.filter(|_| self.rng.gen_bool(0.33));
            self.avail.truncate(mark);
            let mut else_ = self.rng.gen_bool(0.5).then(|| self.block(depth_left));
            self.avail.truncate(mark);
            self.shapes[1] += else_.is_some() as u32;
            let mut after = Vec::new();
            if let Some(r) = stray {
                let mut code = Vec::new();
                self.observe_reg(r, &mut code);
                match &mut else_ {
                    Some(e) if self.rng.gen_bool(0.5) => e.items.push(Item::Code(code)),
                    _ => after.push(Item::Code(code)),
                }
            }
            let mut items = vec![Item::If { cond, then, else_ }];
            items.append(&mut after);
            items
        }

        /// One or two stretches of nest-level code, each ahead of a loop,
        /// a conditional or — always, at the bottom — a leaf.
        fn block(&mut self, depth_left: usize) -> Block {
            let mut items = Vec::new();
            for _ in 0..1 + self.below(2) {
                let mut code = Vec::new();
                for _ in 0..self.below(4) {
                    self.extra(&mut code);
                }
                if self.rng.gen_bool(0.6) {
                    self.observe(&mut code);
                }
                if !code.is_empty() {
                    items.push(Item::Code(code));
                }
                let roll = if depth_left == 0 { 0 } else { self.below(8) };
                match roll {
                    0 => items.push(match self.below(4) {
                        0 => self.any_muladd(),
                        1 => self.jam_wrapper(),
                        _ => self.strided(),
                    }),
                    1 | 2 => items.extend(self.conditional(depth_left - 1)),
                    _ => {
                        items.push(self.plain_loop(depth_left - 1));
                        let after = self.defined_in_loop.take();
                        if let Some(r) = after.filter(|_| self.rng.gen_bool(0.33)) {
                            self.shapes[3] += 1;
                            let mut code = Vec::new();
                            self.observe_reg(r, &mut code);
                            items.push(Item::Code(code));
                        }
                    }
                }
            }
            Block { items }
        }
    }
}
