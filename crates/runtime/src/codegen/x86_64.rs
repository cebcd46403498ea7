//! Hand-rolled x86-64 emitter and loop-nest compiler.
//!
//! The backend compiles whole *loop nests* of an optimized bytecode
//! program — subtrees built from `Loop`, `StridedLoop`, `MulAddLoop`
//! and straight-line `Code` whose every instruction is in the
//! infallible JIT subset — into single native functions, eliminating
//! the VM's per-item dispatch and per-instruction interpretation.
//!
//! # Bit-exactness contract
//!
//! Emitted code must match the optimized VM (and therefore the
//! reference interpreter) bit for bit:
//!
//! - Each bytecode instruction lowers to one short template, emitted in
//!   program order, so the order of evaluation — every operation, every
//!   rounding, every load and store — is the VM's whatever holds the
//!   operands. Outside a strided loop they are in the register files in
//!   memory (`iregs`/`fregs` arrays passed in `rdi`/`rsi`), read and
//!   written through scratch registers. Inside the scalar strided loop
//!   ([`emit::NestCompiler::emit_strided_trips`], the one loop the static
//!   template, the trimmed template and the packed tier's tail all end
//!   in) the same templates take their operands from a per-loop plan
//!   ([`plan::plan_resident`]): an element pointer in a GPR for each
//!   `(slot, address register)` pair, stepped by the stride the address
//!   register had; an XMM register for each freg the body defines, never
//!   written back (post-loop state of body-defined registers is
//!   unobservable); one XMM register for a forwarded accumulator
//!   ([`crate::compile::Carry`]: loaded once behind the empty-range test,
//!   stored by every iteration). Whatever does not fit the budgets keeps
//!   its in-memory form, operand by operand — x86 ALU ops take a memory
//!   operand — so there is one instruction emitter, and every unchecked
//!   access the resident loop issues is one the in-memory loop issued,
//!   at the same address, covered by the same proof.
//! - Float ops use scalar SSE2 (`mulsd`/`addsd`/`divsd`/`sqrtsd`),
//!   which are IEEE-correctly-rounded exactly like Rust's `f64` ops.
//!   `f32` rounding replicates the VM's `as f32 as f64` with
//!   `cvtsd2ss`/`cvtss2sd` pairs after each operation.
//! - Packed SIMD (`movupd`/`mulpd`/`addpd` f64x2, `movups`/`mulps`/
//!   `addps` f32x4, or their VEX-256 f64x4/f32x8 forms when AVX is
//!   detected) is used in three places, all remainder-safe via scalar
//!   epilogues and none of them on the scalar tier
//!   ([`X86Backend::scalar_only`]):
//!   mul-add microkernels with *parallel* stride patterns, where every
//!   lane performs one multiply and one add with per-element rounding —
//!   bit-identical to the scalar order, with a register-tiled 4×
//!   unroll-and-jam main loop; strided-loop bodies whose enclosing
//!   loop carries the analyzer's race-freedom proof
//!   (`LoopKind::Vectorized { proven: true }`), where each lane writes
//!   a disjoint element and keeps its own operation sequence; and a
//!   cross-iteration unroll-and-jam of the *reduction* loop itself,
//!   when a serial loop wraps exactly one axpy-like mul-add whose
//!   destination row is invariant in the loop variable (the y-tile-1
//!   matmul shape): four consecutive reduction steps are fused into
//!   one sweep that loads and stores the destination once per four
//!   multiply-adds. Each destination cell still sees the identical
//!   per-op-rounded sequence `(((d+m₀)+m₁)+m₂)+m₃` in ascending
//!   reduction order — only the interleaving across *distinct* cells
//!   changes — and a dataflow scan ([`plan::plan_jam`]) proves
//!   the destination address and broadcast factor invariant before the
//!   jam fires. `f32`
//!   lanes compute natively in f32: the result is bit-identical to the
//!   VM's widen→op→round double rounding because products of 24-bit
//!   significands are exact in f64 and 53 ≥ 2·24+2 makes the double
//!   rounding innocuous for add/sub/div (Figueroa, 1995). A reduction
//!   into one element (`dst` stride 0, any factor strides) has a serial
//!   accumulation chain and always stays scalar (`reduction-chain`),
//!   with the accumulator in a register, and every vector site
//!   is tallied packed-or-scalar-with-reason in
//!   [`super::SimdReport`].
//! - A *trimmed* strided loop ([`crate::optimize`]'s loop trimming: a
//!   guard on the loop's own variable turned into a live range) runs the
//!   same scalar strided template with its trip count computed at loop
//!   entry ([`emit::NestCompiler::emit_trimmed_strided`]): the iterations run
//!   are the ones whose guard held, in ascending order. It is never
//!   packed or jammed — those plans split a static extent — and is
//!   tallied scalar under `dynamic-extent`.
//!
//! Anything outside the subset — conditionals, trimmed loops that are
//! not in strided form, bounds checks, checked
//! stores, failable integer division, float min/max (NaN semantics
//!   differ from Rust's), float→int casts (saturation differs), and
//! integer-typed buffers — rejects the nest; the VM executes those
//! items unchanged.
//!
//! # One place knows the ISA
//!
//! A template names a float instruction by what it does and how wide it
//! is — [`asm::Width`]: `f64` or `f32` elements × scalar, SSE2 128-bit or
//! VEX 256-bit — and [`asm::Asm`]'s vector layer (`vload`, `vstore`,
//! `vop_rr`, `vop_rm`, `vop1`, `vmov`, `bcast`, `vend`) picks the
//! encoding: the legacy two-operand forms with their copy-then-operate
//! and load-then-operate sequences, or the three-operand VEX forms. The
//! width comes from [`X86Backend::width`] for what the host can run and
//! from [`asm::Width::scalar`] for the in-order templates and every tail, so
//! a template is written once for all three tiers and lane counts and
//! byte steps are read off the width it was handed.

mod asm;
mod emit;
mod plan;

pub use emit::X86Backend;

/// What the encoder, planner and template tests share.
#[cfg(test)]
mod fixtures {
    use crate::compile::{Block, Clamp, Instr, Item, LoopKind, Reg, SlotAccess};
    use tvm_te::BinOp;

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

    pub(super) fn fmuladd(dst: Reg, add: Reg, a: Reg, b: Reg, round32: bool) -> Instr {
        Instr::FMulAdd {
            dst,
            add,
            a,
            b,
            round32,
        }
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
        pub(super) round32: bool,
        pub(super) tail: Vec<Item>,
    }

    impl JamNest {
        /// `inv_first` puts the stride-0 factor in the multiply's first
        /// operand.
        pub(super) fn new(j: i64, inv_first: bool, round32: bool) -> JamNest {
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
                round32,
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
                round32: self.round32,
            };
            let items = [Item::Code(self.code), kernel].into_iter().chain(self.tail);
            Item::Loop {
                var: 0,
                min: 1,
                extent: self.k,
                clamp: Clamp::default(),
                body: Block {
                    items: items.collect(),
                },
                kind: LoopKind::Serial,
            }
        }
    }
}
