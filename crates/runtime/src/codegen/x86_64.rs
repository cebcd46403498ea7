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
//!   ([`NestCompiler::emit_strided_trips`], the one loop the static
//!   template, the trimmed template and the packed tier's tail all end
//!   in) the same templates take their operands from a per-loop plan
//!   ([`plan_resident`]): an element pointer in a GPR for each
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
//!   changes — and a dataflow scan ([`plan_jam`]) proves
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
//!   entry ([`NestCompiler::emit_trimmed_strided`]): the iterations run
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
//! is — [`Width`]: `f64` or `f32` elements × scalar, SSE2 128-bit or
//! VEX 256-bit — and [`Asm`]'s vector layer (`vload`, `vstore`,
//! `vop_rr`, `vop_rm`, `vop1`, `vmov`, `bcast`, `vend`) picks the
//! encoding: the legacy two-operand forms with their copy-then-operate
//! and load-then-operate sequences, or the three-operand VEX forms. The
//! width comes from [`X86Backend::width`] for what the host can run and
//! from [`Width::scalar`] for the in-order templates and every tail, so
//! a template is written once for all three tiers and lane counts and
//! byte steps are read off the width it was handed.

use super::exec_mem::ExecBuf;
use super::{CodegenBackend, JitProgram, SimdReport};
use crate::compile::{
    forwarded_in, Block, Carry, Clamp, CompileError, CompiledFunc, Instr, Item, LoopKind, Reg,
    SlotAccess,
};
use crate::optimize::{float_dst, float_uses, int_dst, reads_ireg};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use tvm_te::{BinOp, DType, Intrinsic};

// ---------------------------------------------------------------- registers

/// General-purpose register number (REX numbering).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct R(u8);

const RAX: R = R(0);
const RCX: R = R(1);
/// Slot base-pointer table argument.
const RDX: R = R(2);
/// Stack pointer (jam group counter lives in its top slot).
const RSP: R = R(4);
/// `fregs` argument.
const RSI: R = R(6);
/// `iregs` argument.
const RDI: R = R(7);
const R8: R = R(8);
const R9: R = R(9);
const R10: R = R(10);
/// Innermost-loop trip counter.
const R11: R = R(11);

/// XMM/YMM register number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct X(u8);

/// `X0`/`X1` are the scalar templates' scratch (never resident).
const X0: X = X(0);
const X1: X = X(1);
const X2: X = X(2);
const X3: X = X(3);
/// Scratch for packed strided-loop bodies (never mapped to a freg).
const XSCRATCH: X = X(15);

/// GPRs free inside the scalar strided loop: they hold element pointers
/// (`RAX`/`RCX` stay template scratch, `R11` counts trips).
const PTR_REGS: [R; 3] = [R8, R9, R10];
/// How many XMM registers a scalar strided loop may keep fregs in:
/// `X2` upwards, through `X15`.
const XMM_POOL: u8 = 14;

/// What the scalar templates compute in, and what an `f32` slot holds.
const SD: Width = Width::scalar(DType::F64);
const SS: Width = Width::scalar(DType::F32);

/// Condition code for `jcc`/`cmovcc` (low nibble of the `0F 8x`/`0F 4x`
/// opcode).
const CC_NZ: u8 = 0x5;
const CC_L: u8 = 0xC;
const CC_LE: u8 = 0xE;
const CC_G: u8 = 0xF;

// ------------------------------------------------------------ operand types

/// A memory operand: `[base + disp]`, or `[base + index·esize]` with the
/// index scaled by the element size of the instruction's [`Width`].
#[derive(Debug, Clone, Copy)]
struct Mem {
    base: R,
    index: Option<R>,
    disp: i32,
}

impl Mem {
    fn at(base: R, disp: i32) -> Mem {
        Mem {
            base,
            index: None,
            disp,
        }
    }

    fn indexed(base: R, index: R) -> Mem {
        Mem {
            base,
            index: Some(index),
            disp: 0,
        }
    }
}

/// How many elements one float instruction carries, and in which
/// encoding: legacy-SSE scalar, legacy-SSE 128-bit packed, VEX 256-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Scalar,
    Sse,
    Avx,
}

/// Element type × [`Shape`] of a float instruction: all a template knows
/// about the ISA. Lanes and byte steps are read off it; prefixes and the
/// choice between two- and three-operand encodings stay inside [`Asm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Width {
    /// `F64` or `F32`.
    dt: DType,
    shape: Shape,
}

/// Opcodes of the float arithmetic the layer's `op` parameters take (the
/// same byte in every [`Width`]; the prefix picks `ss`/`sd`/`ps`/`pd`).
const FADD: u8 = 0x58;
const FMUL: u8 = 0x59;
const FSQRT: u8 = 0x51;

/// The opcode of a binary float op of the JIT subset.
fn arith(op: BinOp) -> u8 {
    match op {
        BinOp::Add => FADD,
        BinOp::Mul => FMUL,
        BinOp::Sub => 0x5C,
        BinOp::Div => 0x5E,
        _ => unreachable!("rejected by check_instr"),
    }
}

impl Width {
    fn new(dt: DType, shape: Shape) -> Width {
        debug_assert!(matches!(dt, DType::F64 | DType::F32));
        Width { dt, shape }
    }

    /// One element of `dt`: the width of every scalar template and tail.
    const fn scalar(dt: DType) -> Width {
        Width {
            dt,
            shape: Shape::Scalar,
        }
    }

    /// Elements per instruction (1 = scalar).
    fn lanes(self) -> i64 {
        match self.shape {
            Shape::Scalar => 1,
            Shape::Sse => 16 / i64::from(self.esize()),
            Shape::Avx => 32 / i64::from(self.esize()),
        }
    }

    /// Bytes per element.
    fn esize(self) -> u8 {
        if self.dt == DType::F64 {
            8
        } else {
            4
        }
    }

    /// Bytes per instruction: what a unit-stride pointer moves by.
    fn step(self) -> i32 {
        self.lanes() as i32 * i32::from(self.esize())
    }

    /// Mandatory prefix of the legacy moves and arithmetic.
    fn prefix(self) -> Option<u8> {
        match (self.shape, self.dt == DType::F64) {
            (Shape::Scalar, true) => Some(0xF2),
            (Shape::Scalar, false) => Some(0xF3),
            (_, true) => Some(0x66),
            (_, false) => None,
        }
    }

    /// Prefix of the legacy whole-register copy, `movapd`/`movaps`.
    fn movap_prefix(self) -> Option<u8> {
        (self.dt == DType::F64).then_some(0x66)
    }

    /// VEX `pp` field of the packed moves and arithmetic.
    fn pp(self) -> u8 {
        (self.dt == DType::F64) as u8
    }
}

// ---------------------------------------------------------------- assembler

/// Byte-level x86-64 assembler with forward-label fixups and backward
/// (loop back-edge) jump relocation.
struct Asm {
    code: Vec<u8>,
}

/// A forward `jcc` whose 32-bit displacement is patched later (the skip
/// over a trimmed loop whose live range came out empty).
struct Fwd(usize);

impl Asm {
    fn new() -> Asm {
        Asm { code: Vec::new() }
    }

    fn here(&self) -> usize {
        self.code.len()
    }

    fn b(&mut self, byte: u8) {
        self.code.push(byte);
    }

    fn imm32(&mut self, v: i32) {
        self.code.extend_from_slice(&v.to_le_bytes());
    }

    fn imm64(&mut self, v: i64) {
        self.code.extend_from_slice(&v.to_le_bytes());
    }

    /// REX prefix; always emitted when `w` (64-bit operand) is set,
    /// otherwise only when an extended register is referenced.
    fn rex(&mut self, w: bool, reg: u8, index: u8, base: u8) {
        let rex =
            0x40 | ((w as u8) << 3) | ((reg >> 3) << 2) | ((index >> 3) << 1) | (base >> 3);
        if rex != 0x40 || w {
            self.b(rex);
        }
    }

    /// ModRM + optional SIB + displacement for `[base + disp]`.
    fn mem(&mut self, reg: u8, base: R, disp: i32) {
        let b = base.0 & 7;
        let (md, small) = if disp == 0 && b != 5 {
            (0x00u8, true)
        } else if (-128..=127).contains(&disp) {
            (0x40, true)
        } else {
            (0x80, false)
        };
        if b == 4 {
            // rsp/r12 as base require a SIB byte (index = none).
            self.b(md | (reg & 7) << 3 | 4);
            self.b(0x24);
        } else {
            self.b(md | (reg & 7) << 3 | b);
        }
        if md == 0x40 {
            self.b(disp as u8);
        } else if md == 0x80 || !small {
            self.imm32(disp);
        }
    }

    /// ModRM + SIB for `[base + index*scale]` (scale ∈ {1,4,8}).
    fn mem_sib(&mut self, reg: u8, base: R, index: R, scale: u8) {
        let ss = match scale {
            1 => 0,
            4 => 2,
            8 => 3,
            _ => unreachable!("unsupported scale"),
        };
        let b = base.0 & 7;
        if b == 5 {
            // rbp/r13 base needs an explicit disp8.
            self.b(0x40 | (reg & 7) << 3 | 4);
            self.b(ss << 6 | (index.0 & 7) << 3 | b);
            self.b(0);
        } else {
            self.b((reg & 7) << 3 | 4);
            self.b(ss << 6 | (index.0 & 7) << 3 | b);
        }
    }

    fn modrm_rr(&mut self, reg: u8, rm: u8) {
        self.b(0xC0 | (reg & 7) << 3 | (rm & 7));
    }

    // ---- integer ops (64-bit) ----

    fn mov_ri(&mut self, r: R, v: i64) {
        if v as i32 as i64 == v {
            self.rex(true, 0, 0, r.0);
            self.b(0xC7);
            self.modrm_rr(0, r.0);
            self.imm32(v as i32);
        } else {
            self.rex(true, 0, 0, r.0);
            self.b(0xB8 + (r.0 & 7));
            self.imm64(v);
        }
    }

    /// `mov r, [base+disp]`
    fn mov_rm(&mut self, r: R, base: R, disp: i32) {
        self.rex(true, r.0, 0, base.0);
        self.b(0x8B);
        self.mem(r.0, base, disp);
    }

    /// `mov [base+disp], r`
    fn mov_mr(&mut self, base: R, disp: i32, r: R) {
        self.rex(true, r.0, 0, base.0);
        self.b(0x89);
        self.mem(r.0, base, disp);
    }

    /// Two-register ALU op (dst = dst op src): opcodes with /r form.
    fn alu_rr(&mut self, opcode: &[u8], dst: R, src: R) {
        self.rex(true, dst.0, 0, src.0);
        self.code.extend_from_slice(opcode);
        self.modrm_rr(dst.0, src.0);
    }

    fn add_rr(&mut self, dst: R, src: R) {
        self.alu_rr(&[0x03], dst, src);
    }

    fn sub_rr(&mut self, dst: R, src: R) {
        self.alu_rr(&[0x2B], dst, src);
    }

    fn imul_rr(&mut self, dst: R, src: R) {
        self.alu_rr(&[0x0F, 0xAF], dst, src);
    }

    fn cmp_rr(&mut self, a: R, b: R) {
        self.alu_rr(&[0x3B], a, b);
    }

    /// `cmovcc dst, src`
    fn cmov_rr(&mut self, cc: u8, dst: R, src: R) {
        self.alu_rr(&[0x0F, 0x40 + cc], dst, src);
    }

    /// `add r, imm32` (sign-extended).
    fn add_ri(&mut self, r: R, imm: i32) {
        self.rex(true, 0, 0, r.0);
        if (-128..=127).contains(&imm) {
            self.b(0x83);
            self.modrm_rr(0, r.0);
            self.b(imm as u8);
        } else {
            self.b(0x81);
            self.modrm_rr(0, r.0);
            self.imm32(imm);
        }
    }

    /// `add qword [base+disp], imm32`
    fn add_mi(&mut self, base: R, disp: i32, imm: i32) {
        self.rex(true, 0, 0, base.0);
        if (-128..=127).contains(&imm) {
            self.b(0x83);
            self.mem(0, base, disp);
            self.b(imm as u8);
        } else {
            self.b(0x81);
            self.mem(0, base, disp);
            self.imm32(imm);
        }
    }

    /// `add qword [base+disp], r`
    fn add_mr(&mut self, base: R, disp: i32, r: R) {
        self.rex(true, r.0, 0, base.0);
        self.b(0x01);
        self.mem(r.0, base, disp);
    }

    fn cmp_ri(&mut self, r: R, imm: i32) {
        self.rex(true, 0, 0, r.0);
        if (-128..=127).contains(&imm) {
            self.b(0x83);
            self.modrm_rr(7, r.0);
            self.b(imm as u8);
        } else {
            self.b(0x81);
            self.modrm_rr(7, r.0);
            self.imm32(imm);
        }
    }

    fn dec_r(&mut self, r: R) {
        self.rex(true, 0, 0, r.0);
        self.b(0xFF);
        self.modrm_rr(1, r.0);
    }

    /// `dec qword [base+disp]`
    fn dec_m(&mut self, base: R, disp: i32) {
        self.rex(true, 1, 0, base.0);
        self.b(0xFF);
        self.mem(1, base, disp);
    }

    fn push_r(&mut self, r: R) {
        if r.0 >= 8 {
            self.b(0x41);
        }
        self.b(0x50 + (r.0 & 7));
    }

    fn pop_r(&mut self, r: R) {
        if r.0 >= 8 {
            self.b(0x41);
        }
        self.b(0x58 + (r.0 & 7));
    }

    /// `lea dst, [base + index*scale]`
    fn lea_sib(&mut self, dst: R, base: R, index: R, scale: u8) {
        self.rex(true, dst.0, index.0, base.0);
        self.b(0x8D);
        self.mem_sib(dst.0, base, index, scale);
    }

    // ---- control flow ----

    fn ret(&mut self) {
        self.b(0xC3);
    }

    /// Backward conditional jump to an already-emitted position: the
    /// rel32 back-edge displacement is resolved immediately.
    fn jcc_back(&mut self, cc: u8, target: usize) {
        self.b(0x0F);
        self.b(0x80 + cc);
        let rel = target as i64 - (self.here() as i64 + 4);
        self.imm32(i32::try_from(rel).expect("back-edge in range"));
    }

    /// Forward conditional jump; patch with [`Asm::land`].
    fn jcc_fwd(&mut self, cc: u8) -> Fwd {
        self.b(0x0F);
        self.b(0x80 + cc);
        let at = self.here();
        self.imm32(0);
        Fwd(at)
    }

    /// Resolve a forward jump to land here.
    fn land(&mut self, f: Fwd) {
        let rel = self.here() as i64 - (f.0 as i64 + 4);
        let bytes = i32::try_from(rel).expect("forward jump in range").to_le_bytes();
        self.code[f.0..f.0 + 4].copy_from_slice(&bytes);
    }

    // ---- raw float encoders (legacy SSE, VEX) ----

    /// ModRM, SIB and displacement bytes of a memory operand; an index is
    /// scaled by `scale`.
    fn modrm_m(&mut self, reg: u8, m: Mem, scale: u8) {
        match m.index {
            None => self.mem(reg, m.base, m.disp),
            Some(index) => {
                debug_assert_eq!(m.disp, 0, "indexed operands carry no displacement");
                self.mem_sib(reg, m.base, index, scale);
            }
        }
    }

    /// Legacy-SSE op with a memory operand: `prefix 0F op /r [m]`.
    fn sse_m(&mut self, prefix: Option<u8>, op: u8, x: X, m: Mem, scale: u8) {
        if let Some(p) = prefix {
            self.b(p);
        }
        self.rex(false, x.0, m.index.map_or(0, |i| i.0), m.base.0);
        self.b(0x0F);
        self.b(op);
        self.modrm_m(x.0, m, scale);
    }

    /// Legacy-SSE register-register op.
    fn sse_rr(&mut self, prefix: Option<u8>, op: u8, dst: X, src: X) {
        if let Some(p) = prefix {
            self.b(p);
        }
        self.rex(false, dst.0, 0, src.0);
        self.b(0x0F);
        self.b(op);
        self.modrm_rr(dst.0, src.0);
    }

    /// 3-byte VEX prefix. `r`/`x`/`b` are the *full* register numbers
    /// (bit 3 is extracted), `mm` the opcode map (1=0F, 2=0F38),
    /// `pp` the mandatory-prefix code (0=none, 1=66, 2=F3, 3=F2).
    fn vex(&mut self, r: u8, xi: u8, b: u8, mm: u8, vvvv: u8, pp: u8) {
        self.b(0xC4);
        self.b(((!(r >> 3) & 1) << 7) | ((!(xi >> 3) & 1) << 6) | ((!(b >> 3) & 1) << 5) | mm);
        // W0, 256-bit.
        self.b(((!vvvv & 0xF) << 3) | (1 << 2) | pp);
    }

    /// VEX-256 op, `dst, vvvv_src, [m]` (map 0F). `src1` is a plain
    /// register *number* (the helper 1's-complements it); pass 0 when the
    /// instruction ignores vvvv — that encodes the mandatory 1111.
    fn vex_m(&mut self, pp: u8, op: u8, dst: X, src1: u8, m: Mem, scale: u8) {
        self.vex(dst.0, m.index.map_or(0, |i| i.0), m.base.0, 1, src1, pp);
        self.b(op);
        self.modrm_m(dst.0, m, scale);
    }

    /// VEX-256 op, `dst, vvvv_src, src2` (map 0F).
    fn vex_rr(&mut self, pp: u8, op: u8, dst: X, src1: u8, src2: X) {
        self.vex(dst.0, 0, src2.0, 1, src1, pp);
        self.b(op);
        self.modrm_rr(dst.0, src2.0);
    }

    // ---- scalar-double helpers of the in-order templates ----

    /// `movaps dst, src`: a whole-register copy between scalar values.
    fn movaps(&mut self, dst: X, src: X) {
        self.sse_rr(None, 0x28, dst, src);
    }

    fn cvtss2sd_rr(&mut self, dst: X, src: X) {
        self.sse_rr(Some(0xF3), 0x5A, dst, src);
    }

    fn cvtsd2ss_rr(&mut self, dst: X, src: X) {
        self.sse_rr(Some(0xF2), 0x5A, dst, src);
    }

    /// `cvtsi2sd x, r64`
    fn cvtsi2sd(&mut self, x: X, r: R) {
        self.b(0xF2);
        self.rex(true, x.0, 0, r.0);
        self.b(0x0F);
        self.b(0x2A);
        self.modrm_rr(x.0, r.0);
    }

    /// `movq x, r64`
    fn movq_xr(&mut self, x: X, r: R) {
        self.b(0x66);
        self.rex(true, x.0, 0, r.0);
        self.b(0x0F);
        self.b(0x6E);
        self.modrm_rr(x.0, r.0);
    }

    /// Round an f64 in `x` through f32 (`as f32 as f64`).
    fn round32(&mut self, x: X) {
        self.cvtsd2ss_rr(x, x);
        self.cvtss2sd_rr(x, x);
    }

    // ---- the vector layer: one float instruction at a `Width` ----
    //
    // Everything above this line that starts `sse_`/`vex` is reached only
    // from here. VEX forms are three-operand; the legacy forms compute in
    // place, so `dst ← a op b` first copies `a` into `dst` (`movap*`,
    // nothing when they are the same register), and packed legacy
    // arithmetic, which faults on an unaligned memory operand, takes it
    // through an unaligned `movup*` into the caller's scratch register.

    fn vmov_m(&mut self, w: Width, op: u8, x: X, m: Mem) {
        match w.shape {
            Shape::Avx => self.vex_m(w.pp(), op, x, 0, m, w.esize()),
            _ => self.sse_m(w.prefix(), op, x, m, w.esize()),
        }
    }

    /// `x ← [m]`, unaligned (`movs*`, `movup*`, `vmovup*`).
    fn vload(&mut self, w: Width, x: X, m: Mem) {
        self.vmov_m(w, 0x10, x, m);
    }

    /// `[m] ← x`, unaligned.
    fn vstore(&mut self, w: Width, m: Mem, x: X) {
        self.vmov_m(w, 0x11, x, m);
    }

    /// `dst ← src`, the whole register (`movap*`).
    fn vmov(&mut self, w: Width, dst: X, src: X) {
        match w.shape {
            Shape::Avx => self.vex_rr(w.pp(), 0x28, dst, 0, src),
            _ => self.sse_rr(w.movap_prefix(), 0x28, dst, src),
        }
    }

    /// `dst ← a op b`.
    fn vop_rr(&mut self, w: Width, op: u8, dst: X, a: X, b: X) {
        if w.shape == Shape::Avx {
            return self.vex_rr(w.pp(), op, dst, a.0, b);
        }
        if dst != a {
            debug_assert!(dst != b, "copying `a` into `dst` would lose `b`");
            self.vmov(w, dst, a);
        }
        self.sse_rr(w.prefix(), op, dst, b);
    }

    /// `dst ← a op [m]`. `scratch` is required, and clobbered, only by
    /// the packed legacy form.
    fn vop_rm(&mut self, w: Width, op: u8, dst: X, a: X, m: Mem, scratch: Option<X>) {
        if w.shape == Shape::Avx {
            return self.vex_m(w.pp(), op, dst, a.0, m, w.esize());
        }
        if dst != a {
            self.vmov(w, dst, a);
        }
        if w.shape == Shape::Scalar {
            return self.sse_m(w.prefix(), op, dst, m, w.esize());
        }
        let scratch = scratch.expect("packed legacy SSE loads its memory operand first");
        debug_assert!(scratch != dst);
        self.vload(w, scratch, m);
        self.sse_rr(w.prefix(), op, dst, scratch);
    }

    /// `dst ← op src` (`sqrt`).
    fn vop1(&mut self, w: Width, op: u8, dst: X, src: X) {
        match w.shape {
            Shape::Avx => self.vex_rr(w.pp(), op, dst, 0, src),
            _ => self.sse_rr(w.prefix(), op, dst, src),
        }
    }

    /// Every lane of `x` ← the scalar at `[m]`.
    fn bcast(&mut self, w: Width, x: X, m: Mem) {
        match (w.shape, w.dt == DType::F64) {
            (Shape::Avx, f64m) => {
                // vbroadcastsd/ss: map 0F38, prefix 66 for both.
                self.vex(x.0, m.index.map_or(0, |i| i.0), m.base.0, 2, 0, 1);
                self.b(if f64m { 0x19 } else { 0x18 });
                self.modrm_m(x.0, m, w.esize());
            }
            (Shape::Sse, true) => {
                self.vload(Width::scalar(w.dt), x, m);
                self.sse_rr(Some(0x66), 0x14, x, x); // unpcklpd
            }
            (Shape::Sse, false) => {
                self.vload(Width::scalar(w.dt), x, m);
                self.sse_rr(None, 0xC6, x, x); // shufps x, x, 0
                self.b(0x00);
            }
            (Shape::Scalar, _) => unreachable!("a broadcast fills vector lanes"),
        }
    }

    /// Leave vector code: `vzeroupper` after VEX-256, so the legacy-SSE
    /// scalar code that follows pays no dirty-upper-half penalty.
    fn vend(&mut self, w: Width) {
        if w.shape == Shape::Avx {
            self.b(0xC5);
            self.b(0xF8);
            self.b(0x77);
        }
    }
}

// ------------------------------------------------------------ nest checking

fn reject<T>(msg: impl Into<String>) -> Result<T, String> {
    Err(msg.into())
}

fn float_slot(dts: &[DType], slot: u16) -> Result<DType, String> {
    match dts[slot as usize] {
        dt @ (DType::F32 | DType::F64) => Ok(dt),
        other => reject(format!("integer-typed buffer ({other:?})")),
    }
}

/// Is this instruction in the infallible, bit-exact JIT subset?
fn check_instr(i: &Instr, dts: &[DType]) -> Result<(), String> {
    match i {
        Instr::IConst(..) | Instr::FConst(..) | Instr::IToF(..) | Instr::IToF32(..) => Ok(()),
        Instr::F32Round(..) | Instr::FMulAdd { .. } => Ok(()),
        Instr::IBin(op, ..) => match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul => Ok(()),
            // Div/FloorDiv/FloorMod can fail; Min/Max are cheap enough
            // that the VM handles the (rare) nests using them.
            other => reject(format!("integer op {other:?}")),
        },
        Instr::FBin(op, ..) | Instr::FBin32(op, ..) => match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => Ok(()),
            // minsd/maxsd NaN and ±0 semantics differ from Rust's
            // f64::min/max; floor ops need roundsd (SSE4.1) — rejected.
            other => reject(format!("float op {other:?}")),
        },
        Instr::Call1(Intrinsic::Sqrt, ..) => Ok(()),
        Instr::Call1(intr, ..) | Instr::Call2(intr, ..) => {
            reject(format!("intrinsic {intr:?}"))
        }
        Instr::Load(_, slot, _) | Instr::Store(slot, _, _) => {
            float_slot(dts, *slot).map(|_| ())
        }
        Instr::Bound { .. } => reject("runtime bounds check"),
        Instr::StoreChecked { .. } => reject("checked store"),
        // cvttsd2si saturation differs from Rust's `as i64`; FBool and
        // the compare/select family need NaN-faithful flag handling —
        // all left to the VM.
        Instr::FToI(..) => reject("float-to-int cast"),
        Instr::FBool(..)
        | Instr::ICmp(..)
        | Instr::FCmp(..)
        | Instr::And(..)
        | Instr::Or(..)
        | Instr::Not(..)
        | Instr::ISel(..)
        | Instr::FSel(..) => reject("compare/select"),
    }
}

fn check_code(code: &[Instr], dts: &[DType]) -> Result<(), String> {
    code.iter().try_for_each(|i| check_instr(i, dts))
}

/// Is this item compilable as (part of) a native nest?
fn check_item(item: &Item, dts: &[DType]) -> Result<(), String> {
    match item {
        Item::Code(c) => check_code(c, dts),
        Item::Loop {
            min,
            extent,
            clamp,
            body,
            ..
        } => {
            if min.checked_add(*extent).is_none() {
                return reject("loop bound overflow");
            }
            // Only the strided template has a dynamic-trip form; the
            // VM runs this loop and the nests inside it still compile.
            if !clamp.is_none() {
                return reject("trimmed loop outside strided form");
            }
            body.items.iter().try_for_each(|it| check_item(it, dts))
        }
        Item::StridedLoop {
            min,
            extent,
            clamp,
            pre,
            body,
            carry,
            ..
        } => {
            if *extent < 1 {
                return reject("empty strided loop");
            }
            if let Some(c) = carry {
                // The load forwarding took out of the body.
                check_instr(&Instr::Load(c.acc, c.slot, c.addr), dts)?;
            }
            // The trimmed template caps a bound register at
            // `min+extent − off` before adding `off`, both as immediates.
            let end = min.checked_add(*extent);
            let encodable = |&(_, plus): &(Reg, i64)| {
                (0..=i64::from(i32::MAX)).contains(&plus)
                    && end.and_then(|e| e.checked_sub(plus)).is_some()
            };
            if ![clamp.lo, clamp.hi].iter().flatten().all(encodable) {
                return reject("trimmed loop bound out of range");
            }
            check_code(pre, dts)?;
            check_code(body, dts)
        }
        Item::MulAddLoop {
            extent,
            pre,
            dst,
            a,
            b,
            ..
        } => {
            if *extent < 1 {
                return reject("empty microkernel loop");
            }
            check_code(pre, dts)?;
            for acc in [dst, a, b] {
                float_slot(dts, acc.slot)?;
                let esize = i64::from(elem_size(dts, acc.slot));
                if acc.stride.checked_mul(esize).and_then(|v| i32::try_from(v).ok()).is_none() {
                    return reject("microkernel stride out of range");
                }
            }
            Ok(())
        }
        Item::If { .. } => reject("conditional"),
        Item::JitCall { .. } => reject("already compiled"),
    }
}

// ------------------------------------------------------------ nest codegen

/// Hand-rolled x86-64 backend (the only native backend today; the
/// [`CodegenBackend`] trait keeps aarch64/Cranelift additive).
#[derive(Debug, Clone)]
pub struct X86Backend {
    /// The widest float instructions emitted: VEX-256 (4×f64 / 8×f32)
    /// where AVX is detected, SSE2 128-bit otherwise, in the microkernels
    /// *and* the proven vectorized strided loops; `Scalar` is the fully
    /// scalar tier — bit-identical output, every vector site counted
    /// under the `simd-disabled` reason.
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

    /// The width this configuration gives a float instruction over `dt`.
    fn width(&self, dt: DType) -> Width {
        Width::new(dt, self.shape)
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
        let mut asm = Asm::new();
        let mut entries: Vec<usize> = Vec::new();
        let mut first_reason: Option<String> = None;
        let mut simd = SimdReport::default();
        let body = rewrite_block(
            &cf.body,
            &dts,
            self,
            &mut asm,
            &mut entries,
            &mut first_reason,
            &mut simd,
        );
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
            body,
            jit: Some(Arc::new(program)),
            ..cf.clone()
        })
    }

    fn vector_widths(&self) -> (u32, u32) {
        let lanes = |dt| self.width(dt).lanes() as u32;
        (lanes(DType::F64), lanes(DType::F32))
    }
}

/// Replace every maximal jittable loop nest with a [`Item::JitCall`],
/// recursing into loops and conditionals that are not jittable as a
/// whole so inner nests still compile.
#[allow(clippy::too_many_arguments)]
fn rewrite_block(
    b: &Block,
    dts: &[DType],
    opts: &X86Backend,
    asm: &mut Asm,
    entries: &mut Vec<usize>,
    first_reason: &mut Option<String>,
    simd: &mut SimdReport,
) -> Block {
    let items = b
        .items
        .iter()
        .map(|item| match item {
            Item::Loop { .. } | Item::StridedLoop { .. } | Item::MulAddLoop { .. } => {
                // A nest holding a proven-parallel loop stays in
                // bytecode: jitting it whole would run the loop
                // sequentially inside the nest and silently lose pool
                // dispatch. Recursing below still compiles the serial
                // nests *inside* the parallel body — jitted entries are
                // sealed-RX and take their register files as arguments,
                // so worker-thread chunk VMs call them reentrantly.
                let verdict = if contains_proven_parallel(item) {
                    Err("parallel loop kept in bytecode for pool dispatch".to_string())
                } else {
                    check_item(item, dts)
                };
                match verdict {
                    Ok(()) => {
                        let entry = asm.here();
                        let mut nc = NestCompiler {
                            asm,
                            dts,
                            opts,
                            simd,
                        };
                        nc.emit_item(item);
                        nc.asm.ret();
                        entries.push(entry);
                        Item::JitCall {
                            entry: entries.len() - 1,
                        }
                    }
                    Err(why) => {
                        first_reason.get_or_insert(why);
                        match item {
                            // A rejected outer loop may still hold
                            // jittable inner nests.
                            Item::Loop {
                                var,
                                min,
                                extent,
                                clamp,
                                body,
                                kind,
                            } => Item::Loop {
                                var: *var,
                                min: *min,
                                extent: *extent,
                                clamp: *clamp,
                                body: rewrite_block(
                                    body,
                                    dts,
                                    opts,
                                    asm,
                                    entries,
                                    first_reason,
                                    simd,
                                ),
                                kind: *kind,
                            },
                            other => other.clone(),
                        }
                    }
                }
            }
            Item::If { cond, then, else_ } => Item::If {
                cond: *cond,
                then: rewrite_block(then, dts, opts, asm, entries, first_reason, simd),
                else_: else_
                    .as_ref()
                    .map(|e| rewrite_block(e, dts, opts, asm, entries, first_reason, simd)),
            },
            other => other.clone(),
        })
        .collect();
    Block { items }
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

/// Offset of register `r` inside its (8-byte-element) register file.
fn off(r: Reg) -> i32 {
    (r as i32) * 8
}

struct NestCompiler<'a> {
    asm: &'a mut Asm,
    dts: &'a [DType],
    opts: &'a X86Backend,
    simd: &'a mut SimdReport,
}

/// Where a loop-invariant packed register gets its (broadcast) value.
enum InvSrc {
    /// A body `FConst` hoisted out of the loop: materialise the bits in
    /// the destination freg's slot (unobservable post-loop; the scalar
    /// tail re-executes the `FConst`) and broadcast from there.
    Const { dst: Reg, v: f64 },
    /// An freg defined outside the loop body (f64 mode only — an
    /// external freg holds a full f64, which native-f32 lanes can't
    /// represent): broadcast from its register-file slot.
    Freg(Reg),
    /// A stride-0 `Load`: the address register is never bumped, so the
    /// element is the same every iteration. Hoisting it above the
    /// loop's stores is sound *because* the loop is proven race-free:
    /// any store hitting the loaded element would be a cross-iteration
    /// read/write dependence the analyzer flags.
    Load { dst: Reg, slot: u16, addr: Reg },
}

/// k-iterations fused per trip of a jammed microkernel (the
/// "unroll-and-jam" depth: one destination load/store feeds this many
/// multiply-accumulate steps).
const JAM: i64 = 4;
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

/// Validated unroll-and-jam plan for a serial loop whose body is only
/// per-iteration address code plus one parallel-pattern microkernel
/// with a loop-invariant destination row. See
/// [`NestCompiler::plan_jam`] for the eligibility proof obligations.
struct JamPlan<'p> {
    /// The jammed ("k") loop's variable register.
    kvar: Reg,
    /// Its inclusive start.
    kmin: i64,
    /// Its trip count (≥ [`JAM`]).
    kextent: i64,
    /// Straight-line body code preceding the microkernel (address math).
    code: &'p [Instr],
    /// The microkernel's own prelude.
    pre: &'p [Instr],
    /// Destination operand (stride 1, address k-invariant).
    dst: SlotAccess,
    /// The stride-1 factor operand (varies along j).
    vec: SlotAccess,
    /// The stride-0 factor operand (the per-k broadcast scalar).
    inv: SlotAccess,
    /// Whether the invariant factor is the multiply's *first* operand
    /// (`a`), preserving the VM's NaN-payload operand order.
    inv_first: bool,
    /// The packed width: `f64` or native-`f32` lanes.
    w: Width,
    /// The microkernel's ("j") trip count (≥ `w.lanes()`).
    extent: i64,
}

/// Validated vectorization plan for one proven `StridedLoop` body.
struct PackedPlan {
    /// The packed width: `f64` or native-`f32` lanes.
    w: Width,
    /// freg → xmm assignment (X0..X14; X15 stays scratch).
    xmap: HashMap<Reg, X>,
    /// Pre-loop invariant broadcasts, in first-use order.
    inv: Vec<InvSrc>,
    /// fregs whose defining instruction was hoisted (consts and
    /// stride-0 loads): skipped in the packed body.
    hoisted: HashSet<Reg>,
}

/// A float operand of a scalar template: resident in an XMM register,
/// or in the `fregs` file at this displacement off `RSI`.
#[derive(Clone, Copy, PartialEq)]
enum F {
    Reg(X),
    Mem(i32),
}

/// Which operands of the scalar templates live in machine registers
/// (see [`NestCompiler::emit_instr`]). Empty outside a strided loop.
#[derive(Default)]
struct Resident {
    /// freg → the XMM register holding it.
    xmms: Vec<(Reg, X)>,
    /// `(slot, address register)` → the GPR holding the element pointer.
    ptrs: Vec<((u16, Reg), R)>,
}

impl Resident {
    fn xmm(&self, r: Reg) -> Option<X> {
        self.xmms.iter().find(|e| e.0 == r).map(|e| e.1)
    }

    fn ptr(&self, slot: u16, addr: Reg) -> Option<R> {
        self.ptrs.iter().find(|e| e.0 == (slot, addr)).map(|e| e.1)
    }

    /// Where the templates find freg `r`.
    fn f(&self, r: Reg) -> F {
        self.xmm(r).map_or(F::Mem(off(r)), F::Reg)
    }
}

/// Element size in bytes of a (float) storage slot.
fn elem_size(dts: &[DType], slot: u16) -> u8 {
    Width::scalar(dts[slot as usize]).esize()
}

/// Register plan of one scalar strided loop.
struct ResidentPlan {
    res: Resident,
    /// Per-iteration byte step of each resident pointer that moves.
    steps: Vec<(R, i32)>,
    /// The strided registers the body still reads from memory.
    mem_bumps: Vec<(Reg, i64)>,
}

/// Plan the registers of a scalar strided loop over the budgets `gprs`
/// and `xmms` (first come, first served, in body order; whatever does not
/// fit keeps its in-memory form, so empty budgets plan today's loop):
///
/// - each `(slot, address register)` pair a `Load`/`Store` names becomes
///   an element pointer, unless the body itself writes the address
///   register or the byte step does not fit an immediate. The pointer
///   takes the step of the address register it replaces, so every access
///   is the one the in-memory template issues, at the same address;
/// - the carry's `acc` and `next` share the first XMM register;
/// - each freg the body defines before reading it gets an XMM register
///   for the iteration and is never written to `fregs`: post-loop state
///   of body-defined registers is unobservable ([`crate::optimize`]);
/// - fregs defined outside the body are never written, so they are read
///   as memory operands where they are;
/// - a strided register keeps its in-memory bump only if something still
///   reads it there (an instruction using it as a value, or an access
///   left without a pointer).
fn plan_resident(
    bumps: &[(Reg, i64)],
    body: &[Instr],
    carry: Option<Carry>,
    dts: &[DType],
    gprs: &[R],
    xmms: u8,
) -> ResidentPlan {
    let mut res = Resident::default();
    let mut steps = Vec::new();
    let stride = |r: Reg| bumps.iter().find(|b| b.0 == r).map_or(0, |b| b.1);
    for i in body {
        let (Instr::Load(_, slot, addr) | Instr::Store(slot, addr, _)) = *i else {
            continue;
        };
        let step = stride(addr)
            .checked_mul(i64::from(elem_size(dts, slot)))
            .map(i32::try_from);
        let (Some(&p), Some(Ok(step))) = (gprs.get(res.ptrs.len()), step) else {
            continue;
        };
        if res.ptr(slot, addr).is_none() && !body.iter().any(|j| int_dst(j) == Some(addr)) {
            res.ptrs.push(((slot, addr), p));
            if step != 0 {
                steps.push((p, step));
            }
        }
    }
    let mut free = (0..xmms).map(|k| X(2 + k));
    if let Some(c) = carry {
        if let Some(x) = free.next() {
            res.xmms.push((c.acc, x));
            res.xmms.push((c.next, x));
        }
    }
    // fregs read before the body defines them: external, or carried
    // through memory from the previous iteration.
    let mut in_memory: Vec<Reg> = Vec::new();
    for i in body {
        in_memory.extend(float_uses(i).filter(|&r| res.xmm(r).is_none()));
        if let Some(d) = float_dst(i) {
            if res.xmm(d).is_none() && !in_memory.contains(&d) {
                match free.next() {
                    Some(x) => res.xmms.push((d, x)),
                    None => in_memory.push(d),
                }
            }
        }
    }
    let read_in_memory = |r: Reg| {
        body.iter().any(|i| match *i {
            Instr::Load(_, slot, addr) | Instr::Store(slot, addr, _) => {
                addr == r && res.ptr(slot, addr).is_none()
            }
            _ => reads_ireg(i, r),
        })
    };
    let mem_bumps = bumps
        .iter()
        .copied()
        .filter(|b| read_in_memory(b.0))
        .collect();
    ResidentPlan {
        res,
        steps,
        mem_bumps,
    }
}

/// Decide whether a strided-loop body can run packed, and how. The
/// `Err` string is the per-reason scalar-fallback tag tallied in
/// [`SimdReport`]; together with the packed count these partition
/// every strided vector site.
fn plan_packed(
    extent: i64,
    bumps: &[(Reg, i64)],
    body: &[Instr],
    kind: &LoopKind,
    dts: &[DType],
    shape: Shape,
) -> Result<PackedPlan, &'static str> {
    if shape == Shape::Scalar {
        return Err("simd-disabled");
    }
    // Packing reorders iterations across lanes, so it is gated on
    // the dependence analyzer's race-freedom proof exactly like
    // pool dispatch is for `Parallel` loops.
    match kind {
        LoopKind::Vectorized { proven: true } => {}
        LoopKind::Vectorized { proven: false } => return Err("unproven-vectorize"),
        _ => return Err("no-vectorize-annotation"),
    }
    // Mode: the uniform dtype of every load/store in the body.
    let mut mode: Option<DType> = None;
    for i in body {
        if let Instr::Load(_, slot, _) | Instr::Store(slot, _, _) = i {
            let dt = dts[*slot as usize];
            match mode {
                None => mode = Some(dt),
                Some(m) if m != dt => return Err("mixed-precision"),
                _ => {}
            }
        }
    }
    let Some(dt) = mode else {
        return Err("body-op");
    };
    let w = Width::new(dt, shape);
    let f64m = dt == DType::F64;
    if extent < w.lanes() {
        return Err("short-extent");
    }
    for &(_, s) in bumps {
        if s.checked_mul(w.lanes()).is_none() {
            return Err("stride-overflow");
        }
    }
    let strides: HashMap<Reg, i64> = bumps.iter().copied().collect();
    let mut plan = PackedPlan {
        w,
        xmap: HashMap::new(),
        inv: Vec::new(),
        hoisted: HashSet::new(),
    };
    // fregs defined by the body vs. read from outside it.
    let mut defined: HashSet<Reg> = HashSet::new();
    let mut external: HashSet<Reg> = HashSet::new();
    fn alloc(xmap: &mut HashMap<Reg, X>, r: Reg) -> Result<X, &'static str> {
        if let Some(&x) = xmap.get(&r) {
            return Ok(x);
        }
        // X15 stays scratch for in-body multiply-add temporaries.
        if xmap.len() >= 15 {
            return Err("register-pressure");
        }
        let x = X(xmap.len() as u8);
        xmap.insert(r, x);
        Ok(x)
    }
    macro_rules! def {
        ($d:expr) => {{
            if defined.contains(&$d) {
                return Err("freg-reassign");
            }
            if external.contains(&$d) {
                return Err("loop-carried-freg");
            }
            defined.insert($d);
            alloc(&mut plan.xmap, $d)?;
        }};
    }
    macro_rules! read {
        ($r:expr) => {{
            if !defined.contains(&$r) && !external.contains(&$r) {
                // Defined outside the loop: loop-invariant (the
                // body holds no integer/float redefinitions — they
                // were rejected above or live in `pre`). Broadcast
                // once. Native-f32 lanes can't hold an arbitrary
                // f64, so this is an f64-mode-only trick.
                if !f64m {
                    return Err("operand-precision");
                }
                external.insert($r);
                alloc(&mut plan.xmap, $r)?;
                plan.inv.push(InvSrc::Freg($r));
            }
        }};
    }
    for i in body {
        match *i {
            Instr::FConst(d, v) => {
                if !f64m && f64::from(v as f32) != v {
                    return Err("const-precision");
                }
                def!(d);
                plan.hoisted.insert(d);
                plan.inv.push(InvSrc::Const { dst: d, v });
            }
            Instr::Load(d, slot, addr) => match strides.get(&addr).copied().unwrap_or(0) {
                1 => def!(d),
                0 => {
                    def!(d);
                    plan.hoisted.insert(d);
                    plan.inv.push(InvSrc::Load { dst: d, slot, addr });
                }
                _ => return Err("load-stride"),
            },
            Instr::Store(_, addr, val) => {
                if strides.get(&addr).copied().unwrap_or(0) != 1 {
                    return Err("store-stride");
                }
                read!(val);
            }
            Instr::FBin(op, d, x, y) | Instr::FBin32(op, d, x, y) => {
                if f64m != matches!(i, Instr::FBin(..)) {
                    return Err("mixed-precision");
                }
                debug_assert!(matches!(
                    op,
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div
                ));
                read!(x);
                read!(y);
                def!(d);
            }
            Instr::FMulAdd {
                dst,
                add,
                a,
                b,
                round32,
            } => {
                if round32 == f64m {
                    return Err("rounding-mismatch");
                }
                read!(add);
                read!(a);
                read!(b);
                def!(dst);
            }
            Instr::F32Round(d, s) => {
                if f64m {
                    return Err("mixed-precision");
                }
                read!(s);
                def!(d);
            }
            Instr::Call1(Intrinsic::Sqrt, d, x, round) => {
                if round == f64m {
                    return Err("rounding-mismatch");
                }
                read!(x);
                def!(d);
            }
            _ => return Err("body-op"),
        }
    }
    Ok(plan)
}

/// What the three operands of a `MulAddLoop` allow.
#[derive(Debug, Clone, Copy, PartialEq)]
enum MulAdd {
    /// `dst` stride 0: one element accumulates every product, in order —
    /// a serial chain whatever the factors' strides, always scalar, and
    /// carried in a register. `native` is the common dtype when the chain
    /// can run in it ([`NestCompiler::muladd_reduction`]).
    Reduction { native: Option<DType> },
    /// `dst` stride 1 and factor strides `(0,1)`, `(1,0)` or `(1,1)` over
    /// one dtype, rounding matched to it, the destination slot read by
    /// neither factor: every element is an independent multiply and add.
    Parallel(DType),
    /// The element-order loop, with the reason it is not packed.
    Generic(&'static str),
}

fn classify_muladd(
    dst: &SlotAccess,
    a: &SlotAccess,
    b: &SlotAccess,
    round32: bool,
    dts: &[DType],
) -> MulAdd {
    let dt = dts[dst.slot as usize];
    let refusal = if dts[a.slot as usize] != dt || dts[b.slot as usize] != dt {
        Some("mixed-dtype")
    } else if (dt == DType::F64) == round32 {
        Some("rounding-mismatch")
    } else if dst.slot == a.slot || dst.slot == b.slot {
        Some("aliased-dst")
    } else {
        None
    };
    if dst.stride == 0 {
        return MulAdd::Reduction {
            native: refusal.is_none().then_some(dt),
        };
    }
    match refusal {
        Some(reason) => MulAdd::Generic(reason),
        None if matches!(
            (dst.stride, a.stride, b.stride),
            (1, 0, 1) | (1, 1, 0) | (1, 1, 1)
        ) =>
        {
            MulAdd::Parallel(dt)
        }
        None => MulAdd::Generic("stride-pattern"),
    }
}

/// Decide whether a serial loop is a jammable microkernel wrapper:
/// `for k { addr-code; dst[j] += inv_k * vec_k[j] }` where the
/// destination row is the same for every `k`. Jamming [`JAM`]
/// consecutive `k` iterations into one fused `j` sweep then loads
/// and stores each `dst[j]` once per group instead of once per `k`
/// — and stays bit-exact *by construction*: every memory cell sees
/// the identical operation sequence (`(((d+m₀)+m₁)+m₂)+m₃`, each
/// multiply and add individually rounded, `k` ascending), only the
/// interleaving across distinct cells changes.
///
/// Eligibility (each check discharges a soundness obligation):
/// - body is exactly `[Code?, MulAddLoop]`, the microkernel
///   [`MulAdd::Parallel`] (uniform dtype, matched rounding, a
///   destination slot distinct from both factors) with stride
///   pattern `(1,0,1)` or `(1,1,0)`;
/// - the address code is memory-free (pure register arithmetic),
///   so running four iterations' worth up front has no observable
///   effect beyond the register file, which sees the exact scalar
///   write sequence;
/// - it never writes the loop variable (the jam advances it);
/// - a dataflow pass proves `dst.addr` independent of `k`,
///   treating loop-carried register reads as varying.
fn plan_jam<'p>(item: &'p Item, dts: &[DType], shape: Shape) -> Option<JamPlan<'p>> {
    if shape == Shape::Scalar {
        return None;
    }
    let Item::Loop {
        var,
        min,
        extent: kextent,
        body,
        ..
    } = item
    else {
        return None;
    };
    if *kextent < JAM {
        return None;
    }
    let (code, ma): (&[Instr], &Item) = match body.items.as_slice() {
        [ma @ Item::MulAddLoop { .. }] => (&[], ma),
        [Item::Code(c), ma @ Item::MulAddLoop { .. }] => (c.as_slice(), ma),
        _ => return None,
    };
    let Item::MulAddLoop {
        extent,
        pre,
        dst,
        a,
        b,
        round32,
    } = ma
    else {
        unreachable!("matched above")
    };
    let MulAdd::Parallel(dt) = classify_muladd(dst, a, b, *round32, dts) else {
        return None;
    };
    let (inv, vec, inv_first) = match (a.stride, b.stride) {
        (0, 1) => (*a, *b, true),
        (1, 0) => (*b, *a, false),
        _ => return None,
    };
    let w = Width::new(dt, shape);
    if *extent < w.lanes() {
        return None;
    }
    // Setup-code scan: pure register arithmetic only, loop variable
    // never overwritten. (`FToI` — the only other ireg writer in
    // the ISA — is outside the JIT subset and cannot appear here.)
    let mut written: HashSet<Reg> = HashSet::new();
    for i in code.iter().chain(pre.iter()) {
        match i {
            Instr::IConst(d, _) | Instr::IBin(_, d, _, _) => {
                if d == var {
                    return None;
                }
                written.insert(*d);
            }
            Instr::FConst(..)
            | Instr::IToF(..)
            | Instr::IToF32(..)
            | Instr::F32Round(..)
            | Instr::FBin(..)
            | Instr::FBin32(..)
            | Instr::FMulAdd { .. }
            | Instr::Call1(..) => {}
            _ => return None,
        }
    }
    // k-invariance of the destination address: a register is
    // varying if it derives from the loop variable or from a
    // loop-carried value (read of a setup-written register before
    // its write this iteration).
    let mut varying: HashSet<Reg> = HashSet::new();
    varying.insert(*var);
    let mut seen: HashSet<Reg> = HashSet::new();
    for i in code.iter().chain(pre.iter()) {
        match i {
            Instr::IConst(d, _) => {
                seen.insert(*d);
                varying.remove(d);
            }
            Instr::IBin(_, d, x, y) => {
                let tainted = |r: &Reg| {
                    varying.contains(r) || (written.contains(r) && !seen.contains(r))
                };
                if tainted(x) || tainted(y) {
                    varying.insert(*d);
                } else {
                    varying.remove(d);
                }
                seen.insert(*d);
            }
            _ => {}
        }
    }
    if varying.contains(&dst.addr) {
        return None;
    }
    Some(JamPlan {
        kvar: *var,
        kmin: *min,
        kextent: *kextent,
        code,
        pre,
        dst: *dst,
        vec,
        inv,
        inv_first,
        w,
        extent: *extent,
    })
}

impl NestCompiler<'_> {
    fn emit_item(&mut self, item: &Item) {
        match item {
            Item::Code(c) => self.emit_code(c),
            Item::Loop {
                var,
                min,
                extent,
                clamp,
                body,
                ..
            } => {
                debug_assert!(clamp.is_none(), "rejected by check_item");
                if *extent < 1 {
                    return;
                }
                if let Some(plan) = plan_jam(item, self.dts, self.opts.shape) {
                    let done = (plan.kextent / JAM) * JAM;
                    let rem = plan.kextent - done;
                    self.emit_jammed(&plan);
                    if rem > 0 {
                        // Leftover k iterations run through the plain
                        // templates, continuing where the jammed groups
                        // left the loop variable.
                        self.emit_item(&Item::Loop {
                            var: *var,
                            min: *min + done,
                            extent: rem,
                            clamp: Clamp::default(),
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
                    self.emit_item(it);
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
            Item::StridedLoop {
                min,
                extent,
                clamp,
                pre,
                bumps,
                body,
                carry,
                kind,
            } => {
                self.emit_code(pre);
                if !clamp.is_none() {
                    // Packed and jammed plans split a static extent into
                    // main loop and epilogue; a trimmed loop's trip
                    // count is only known at loop entry.
                    self.simd.scalar("dynamic-extent");
                    self.emit_trimmed_strided(*min, *extent, *clamp, bumps, body, *carry);
                    return;
                }
                match plan_packed(*extent, bumps, body, kind, self.dts, self.opts.shape) {
                    Ok(plan) => {
                        // A carry is sequential state; the optimizer
                        // forwards no loop that is proven vectorized.
                        debug_assert!(carry.is_none());
                        self.simd.packed(false);
                        self.emit_packed_strided(*extent, bumps, body, &plan);
                    }
                    Err(reason) => {
                        self.simd.scalar(reason);
                        self.emit_scalar_strided(*extent, bumps, body, *carry);
                    }
                }
            }
            Item::MulAddLoop {
                extent,
                pre,
                dst,
                a,
                b,
                round32,
            } => {
                self.emit_code(pre);
                self.emit_muladd(*extent, dst, a, b, *round32);
            }
            // Checked away before codegen.
            Item::If { .. } | Item::JitCall { .. } => unreachable!("rejected by check_item"),
        }
    }

    /// Straight-line code outside a resident loop: every operand in its
    /// in-memory form.
    fn emit_code(&mut self, code: &[Instr]) {
        let in_memory = Resident::default();
        code.iter().for_each(|i| self.emit_instr(i, &in_memory));
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

    /// Address the element a `Load`/`Store` touches: through its resident
    /// pointer, or as `[RCX + RAX·esize]` after loading the address
    /// register and the slot base.
    fn elem(&mut self, slot: u16, addr: Reg, res: &Resident) -> Mem {
        match res.ptr(slot, addr) {
            Some(p) => Mem::at(p, 0),
            None => {
                self.asm.mov_rm(RAX, RDI, off(addr));
                self.asm.mov_rm(RCX, RDX, (slot as i32) * 8);
                Mem::indexed(RCX, RAX)
            }
        }
    }

    /// One bytecode instruction as a short template in the VM's own
    /// evaluation order. `res` says which float operands live in XMM
    /// registers and which elements have a pointer in a GPR; every other
    /// operand is read from and written to the in-memory register files,
    /// operand by operand, so an empty `res` is the `Item::Code` form and
    /// a loop that runs out of registers degrades one operand at a time.
    /// A value is built in its destination's own register when it has
    /// one, else in scratch (`X0`/`X1`, `RAX`/`RCX`). Integer registers
    /// are always in memory.
    fn emit_instr(&mut self, i: &Instr, res: &Resident) {
        let f = |r: Reg| res.f(r);
        let target = |d: F, scratch: X| match d {
            F::Reg(x) => x,
            F::Mem(_) => scratch,
        };
        match *i {
            Instr::IConst(d, v) => {
                self.asm.mov_ri(RAX, v);
                self.asm.mov_mr(RDI, off(d), RAX);
            }
            Instr::FConst(d, v) => {
                self.asm.mov_ri(RAX, v.to_bits() as i64);
                match f(d) {
                    F::Reg(x) => self.asm.movq_xr(x, RAX),
                    F::Mem(disp) => self.asm.mov_mr(RSI, disp, RAX),
                }
            }
            Instr::IToF(d, s) | Instr::IToF32(d, s) => {
                let t = target(f(d), X0);
                self.asm.mov_rm(RAX, RDI, off(s));
                self.asm.cvtsi2sd(t, RAX);
                if matches!(i, Instr::IToF32(..)) {
                    self.asm.round32(t);
                }
                self.fstore(f(d), t);
            }
            Instr::F32Round(d, s) => {
                let t = target(f(d), X0);
                self.fload(t, f(s));
                self.asm.round32(t);
                self.fstore(f(d), t);
            }
            Instr::IBin(op, d, x, y) => {
                let a = &mut *self.asm;
                a.mov_rm(RAX, RDI, off(x));
                a.mov_rm(RCX, RDI, off(y));
                match op {
                    BinOp::Add => a.add_rr(RAX, RCX),
                    BinOp::Sub => a.sub_rr(RAX, RCX),
                    BinOp::Mul => a.imul_rr(RAX, RCX),
                    _ => unreachable!("rejected by check_instr"),
                }
                a.mov_mr(RDI, off(d), RAX);
            }
            Instr::FBin(op, d, x, y) | Instr::FBin32(op, d, x, y) => {
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
                if matches!(i, Instr::FBin32(..)) {
                    self.asm.round32(t);
                }
                self.fstore(fd, t);
            }
            Instr::FMulAdd {
                dst,
                add,
                a,
                b,
                round32,
            } => {
                // The product is complete in scratch before the sum's
                // register is written, so `dst` may share any operand's.
                self.fload(X0, f(a));
                self.fop(FMUL, X0, f(b));
                if round32 {
                    self.asm.round32(X0);
                }
                let t = target(f(dst), X1);
                self.fload(t, f(add));
                self.fop(FADD, t, F::Reg(X0)); // add + m
                if round32 {
                    self.asm.round32(t);
                }
                self.fstore(f(dst), t);
            }
            Instr::Call1(Intrinsic::Sqrt, d, x, round) => {
                let t = target(f(d), X0);
                self.fload(t, f(x));
                self.asm.vop1(SD, FSQRT, t, t);
                if round {
                    self.asm.round32(t);
                }
                self.fstore(f(d), t);
            }
            Instr::Load(d, slot, addr) => {
                let e = self.elem(slot, addr, res);
                let t = target(f(d), X0);
                self.load_widen(t, e, self.dts[slot as usize]);
                self.fstore(f(d), t);
            }
            Instr::Store(slot, addr, val) => {
                let e = self.elem(slot, addr, res);
                let v = target(f(val), X0);
                self.fload(v, f(val));
                if self.dts[slot as usize] == DType::F64 {
                    self.asm.vstore(SD, e, v);
                } else {
                    // Narrow in scratch: a resident value stays `f64`.
                    self.asm.cvtsd2ss_rr(X0, v);
                    self.asm.vstore(SS, e, X0);
                }
            }
            _ => unreachable!("rejected by check_instr"),
        }
    }

    /// The scalar strided-loop template (also the packed path's tail:
    /// after the packed main loop the strided registers sit exactly
    /// `vec_iters·lanes` iterations in, so this continues bit-for-bit).
    fn emit_scalar_strided(
        &mut self,
        extent: i64,
        bumps: &[(Reg, i64)],
        body: &[Instr],
        carry: Option<Carry>,
    ) {
        self.asm.mov_ri(R11, extent);
        self.emit_strided_trips(bumps, body, carry);
    }

    /// The loop of the scalar strided template, register-resident as far
    /// as the budgets go: `R11` holds the trip count (≥ 1), an immediate
    /// for a static loop, computed at loop entry for a trimmed one, and
    /// the register files in memory hold the state of the first iteration
    /// to run (the prelude, the trimmed prologue's advance and the packed
    /// main loop all leave it there).
    fn emit_strided_trips(&mut self, bumps: &[(Reg, i64)], body: &[Instr], carry: Option<Carry>) {
        let plan = plan_resident(bumps, body, carry, self.dts, &PTR_REGS, XMM_POOL);
        self.emit_planned_trips(body, carry, &plan);
    }

    /// [`NestCompiler::emit_strided_trips`] under a given plan. At entry
    /// each resident element pointer is formed from its address register
    /// and slot base, and the carry's accumulator is loaded — here, past
    /// the caller's empty-range test. Each iteration runs the body
    /// through the plan, forwards the carry (nothing to emit when `acc`
    /// and `next` share a register), steps the pointers and bumps the
    /// strided registers something still reads from memory.
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
        self.emit_bumps(&plan.mem_bumps, 1);
        self.asm.dec_r(R11);
        self.asm.jcc_back(CC_NZ, top);
    }

    /// `p ← &slot[iregs[addr]]`. Clobbers `RAX`.
    fn element_pointer(&mut self, p: R, slot: u16, addr: Reg) {
        self.asm.mov_rm(RAX, RDI, off(addr));
        self.asm.mov_rm(p, RDX, (slot as i32) * 8);
        self.asm.lea_sib(p, p, RAX, elem_size(self.dts, slot));
    }

    /// The scalar strided template over a trimmed loop's live range:
    /// [`crate::compile::live_range`] in machine code (`R8` = start,
    /// `R11` = end, both inside the static `[min, min+extent]` whatever
    /// the bound registers hold, so the in-bounds proofs behind the
    /// body's unchecked loads and stores keep covering every iteration
    /// run), the strided registers advanced from iteration `min` (where
    /// the prelude left them) to `start`, a forward jump over an empty
    /// range, then the same loop a static extent gets. `RDX` holds the
    /// slot table and is never scratch.
    fn emit_trimmed_strided(
        &mut self,
        min: i64,
        extent: i64,
        clamp: Clamp,
        bumps: &[(Reg, i64)],
        body: &[Instr],
        carry: Option<Carry>,
    ) {
        let end = min + extent; // cannot overflow: check_item
        self.asm.mov_ri(R8, min);
        if let Some(lo) = clamp.lo {
            self.asm.mov_ri(R9, min);
            self.emit_clamp_bound(R8, lo, R9, end);
            // RAX = start − min iterations to skip; every strided
            // register moves by that many strides, with the wrapping
            // arithmetic of the per-iteration bump.
            self.asm.mov_ri(RAX, min.wrapping_neg());
            self.asm.add_rr(RAX, R8);
            for &(r, s) in bumps {
                self.asm.mov_ri(RCX, s);
                self.asm.imul_rr(RCX, RAX);
                self.asm.add_mr(RDI, off(r), RCX);
            }
        }
        self.asm.mov_ri(R11, end);
        if let Some(hi) = clamp.hi {
            self.emit_clamp_bound(R11, hi, R8, end);
        }
        self.asm.sub_rr(R11, R8);
        let empty = self.asm.jcc_fwd(CC_LE);
        self.emit_strided_trips(bumps, body, carry);
        self.asm.land(empty);
    }

    /// `dst ← clamp(iregs[reg] + plus, floor, end)`, one side of
    /// [`crate::compile::live_range`]. The register is capped at
    /// `end − plus` *before* `plus` (≥ 0, checked with `end − plus` in
    /// `check_item`) is added, so the add cannot wrap: the result equals
    /// the saturating form for every register value. `floor` holds a
    /// value in `[min, end]`. Clobbers `RCX`.
    fn emit_clamp_bound(&mut self, dst: R, (reg, plus): (Reg, i64), floor: R, end: i64) {
        let a = &mut *self.asm;
        a.mov_rm(dst, RDI, off(reg));
        a.mov_ri(RCX, end - plus);
        a.cmp_rr(dst, RCX);
        a.cmov_rr(CC_G, dst, RCX);
        if plus != 0 {
            a.add_ri(dst, plus as i32);
        }
        a.cmp_rr(dst, floor);
        a.cmov_rr(CC_L, dst, floor);
    }

    /// Advance every strided register by `scale` iterations' worth.
    fn emit_bumps(&mut self, bumps: &[(Reg, i64)], scale: i64) {
        for &(r, s) in bumps {
            let s = s.checked_mul(scale).expect("checked in plan_packed");
            if s as i32 as i64 == s {
                self.asm.add_mi(RDI, off(r), s as i32);
            } else {
                self.asm.mov_ri(RAX, s);
                self.asm.add_mr(RDI, off(r), RAX);
            }
        }
    }

    /// Packed main loop + scalar epilogue for a proven vectorized
    /// strided loop. Lane `j` of every packed instruction is iteration
    /// `i+j`'s scalar instruction: instructions execute in body order
    /// at full width, so each lane sees the exact scalar operation
    /// sequence, every store writes a disjoint element (stride-1,
    /// proven race-free), and per-element IEEE rounding is preserved.
    fn emit_packed_strided(
        &mut self,
        extent: i64,
        bumps: &[(Reg, i64)],
        body: &[Instr],
        plan: &PackedPlan,
    ) {
        let w = plan.w;
        let vec_iters = extent / w.lanes();
        let tail = extent % w.lanes();
        for src in &plan.inv {
            match *src {
                InvSrc::Const { dst, v } => {
                    let bits = if w.dt == DType::F64 {
                        v.to_bits() as i64
                    } else {
                        i64::from((v as f32).to_bits())
                    };
                    // Materialise through the destination freg's slot:
                    // post-loop register state is unobservable and the
                    // scalar epilogue re-executes the `FConst` first.
                    self.asm.mov_ri(RAX, bits);
                    self.asm.mov_mr(RSI, off(dst), RAX);
                    self.asm.bcast(w, plan.xmap[&dst], Mem::at(RSI, off(dst)));
                }
                InvSrc::Freg(r) => self.asm.bcast(w, plan.xmap[&r], Mem::at(RSI, off(r))),
                InvSrc::Load { dst, slot, addr } => {
                    self.asm.mov_rm(RAX, RDI, off(addr));
                    self.asm.mov_rm(RCX, RDX, (slot as i32) * 8);
                    self.asm.lea_sib(RAX, RCX, RAX, w.esize());
                    self.asm.bcast(w, plan.xmap[&dst], Mem::at(RAX, 0));
                }
            }
        }
        self.asm.mov_ri(R11, vec_iters);
        let top = self.asm.here();
        for i in body {
            self.emit_packed_instr(i, plan);
        }
        self.emit_bumps(bumps, w.lanes());
        self.asm.dec_r(R11);
        self.asm.jcc_back(CC_NZ, top);
        self.asm.vend(w);
        if tail > 0 {
            self.emit_scalar_strided(tail, bumps, body, None);
        }
    }

    /// One body instruction at full vector width (see
    /// [`NestCompiler::emit_packed_strided`] for the lane contract).
    /// Every destination is single-assignment-fresh, so distinct from
    /// its operands' registers.
    fn emit_packed_instr(&mut self, i: &Instr, plan: &PackedPlan) {
        let (w, x) = (plan.w, |r: Reg| plan.xmap[&r]);
        match *i {
            // Hoisted to a pre-loop broadcast.
            Instr::FConst(..) => {}
            Instr::Load(d, slot, addr) => {
                if plan.hoisted.contains(&d) {
                    return; // stride-0: broadcast pre-loop
                }
                self.asm.mov_rm(RAX, RDI, off(addr));
                self.asm.mov_rm(RCX, RDX, (slot as i32) * 8);
                self.asm.vload(w, x(d), Mem::indexed(RCX, RAX));
            }
            Instr::Store(slot, addr, val) => {
                self.asm.mov_rm(RAX, RDI, off(addr));
                self.asm.mov_rm(RCX, RDX, (slot as i32) * 8);
                self.asm.vstore(w, Mem::indexed(RCX, RAX), x(val));
            }
            Instr::FBin(op, d, a, b) | Instr::FBin32(op, d, a, b) => {
                self.asm.vop_rr(w, arith(op), x(d), x(a), x(b));
            }
            Instr::FMulAdd { dst, add, a, b, .. } => {
                self.asm.vop_rr(w, FMUL, XSCRATCH, x(a), x(b));
                self.asm.vop_rr(w, FADD, x(dst), x(add), XSCRATCH);
            }
            // Native-f32 lanes are already rounded: a plain copy.
            Instr::F32Round(d, s) => self.asm.vmov(w, x(d), x(s)),
            Instr::Call1(Intrinsic::Sqrt, d, s, _) => self.asm.vop1(w, FSQRT, x(d), x(s)),
            _ => unreachable!("rejected by plan_packed"),
        }
    }

    /// Materialise the three element pointers of a microkernel into
    /// `r8` (dst), `r9` (a), `r10` (b).
    fn muladd_pointers(&mut self, dst: &SlotAccess, sa: &SlotAccess, sb: &SlotAccess) {
        for (acc, preg) in [(dst, R8), (sa, R9), (sb, R10)] {
            self.element_pointer(preg, acc.slot, acc.addr);
        }
    }

    fn emit_muladd(
        &mut self,
        extent: i64,
        dst: &SlotAccess,
        sa: &SlotAccess,
        sb: &SlotAccess,
        round32: bool,
    ) {
        self.muladd_pointers(dst, sa, sb);
        match classify_muladd(dst, sa, sb, round32, self.dts) {
            MulAdd::Reduction { native } => {
                self.simd.scalar("reduction-chain");
                match native {
                    Some(dt) => self.muladd_reduction(extent, dt, sa.stride, sb.stride),
                    None => self.muladd_generic(extent, dst, sa, sb, round32),
                }
            }
            MulAdd::Parallel(dt) => self.muladd_parallel(extent, dt, sa.stride, sb.stride),
            MulAdd::Generic(reason) => {
                self.simd.scalar(reason);
                self.muladd_generic(extent, dst, sa, sb, round32);
            }
        }
    }

    /// `mov R11, trips`, then `body` that many times (`trips` ≥ 1).
    fn repeat(&mut self, trips: i64, body: impl FnOnce(&mut Self)) {
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
    /// of uniform dtype, matched rounding and a destination slot neither
    /// factor reads: a single serial accumulator chain in native
    /// precision, kept scalar to preserve accumulation order. Nothing in
    /// the loop can observe the element, so it is stored once, after the
    /// loop. Native `f32` is what keeps this apart from the generic path,
    /// whose chain is `addsd` plus a `cvtsd2ss`/`cvtss2sd` pair where this
    /// one's is a single `addss`: an untiled 200³ matmul runs 0.63 ns a
    /// multiply-add here against 5.0 there in `f32` (0.66 against 0.72–1.1
    /// in `f64`, where the two differ only by the store).
    fn muladd_reduction(&mut self, extent: i64, dt: DType, sa: i64, sb: i64) {
        let w = Width::scalar(dt);
        self.asm.vload(w, X1, Mem::at(R8, 0)); // acc = dst[d0]
        self.repeat(extent, |s| {
            s.product(w, X0, Factor::At(R9), Factor::At(R10), 0, X3); // x * y
            s.asm.vop_rr(w, FADD, X1, X1, X0); // acc += m
            for (preg, stride) in [(R9, sa), (R10, sb)] {
                if stride != 0 {
                    // range-checked in check_item
                    s.asm.add_ri(preg, (stride * i64::from(w.esize())) as i32);
                }
            }
        });
        self.asm.vstore(w, Mem::at(R8, 0), X1);
    }

    /// Parallel patterns — `dst` stride 1, each factor stride 0 or 1, not
    /// both 0: every element is an independent multiply+add, so
    /// lane-splitting preserves per-element rounding exactly — vectorize
    /// with AVX-256 when available, SSE2 128-bit otherwise, scalar tail.
    /// When at least four packed iterations remain, a register-tiled 4×
    /// unroll-and-jam main loop runs first: four accumulator blocks in
    /// distinct registers per trip, amortising the loop overhead and
    /// letting the independent mul/add chains overlap. Elements stay
    /// independent with per-element rounding, so tiling is bit-neutral.
    /// The scalar tail is the same product and accumulation one element
    /// wide, in native precision (bit-exact for both f64 and — via
    /// Figueroa double-rounding innocuity — native f32); on the scalar
    /// tier it carries every iteration.
    fn muladd_parallel(&mut self, extent: i64, dt: DType, sa: i64, sb: i64) {
        let w = self.opts.width(dt);
        let packed = w.lanes() > 1;
        let vec_iters = if packed { extent / w.lanes() } else { 0 };
        let tail = extent - vec_iters * w.lanes();
        let blocks = vec_iters / 4;
        if packed {
            self.simd.packed(blocks > 0);
        } else {
            self.simd.scalar("simd-disabled");
        }
        // The loop-invariant factor is broadcast once (X2) for the
        // vector loops; the tail reads it where it is.
        let factor = |stride: i64, p: R, w: Width| {
            if stride == 0 && w.lanes() > 1 {
                Factor::Bcast(X2)
            } else {
                Factor::At(p)
            }
        };
        if vec_iters > 0 {
            for (stride, p) in [(sa, R9), (sb, R10)] {
                if stride == 0 {
                    self.asm.bcast(w, X2, Mem::at(p, 0));
                }
            }
        }
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
        sweep(self, blocks, w, &TILE_PAIRS);
        sweep(self, vec_iters - blocks * 4, w, &[(X0, X1)]);
        if vec_iters > 0 {
            self.asm.vend(w);
        }
        sweep(self, tail, Width::scalar(dt), &[(X0, X1)]);
    }

    /// The jammed microkernel (see [`plan_jam`] for the shape and its
    /// proof obligations). Per group of [`JAM`] `k` iterations: run each
    /// iteration's address code in scalar order (loop variable advanced
    /// exactly as the plain template would), broadcast its stride-0
    /// factor into `X2..X5`, stack its stride-1 pointer, then sweep `j`
    /// once — [`JAM_U`] destination vectors per trip ([`JAM_PAIRS`]), each
    /// loaded, given the four products `inv_k · vec_k[j..]` in `k` order
    /// (operand order preserved), stored once. Leftover vectors and the
    /// scalar tail are the same sweep over one register pair, so they
    /// keep the same per-element `k` sequence.
    fn emit_jammed(&mut self, plan: &JamPlan) {
        let w = plan.w;
        let groups = plan.kextent / JAM;
        let jvecs = plan.extent / w.lanes();
        let jtrips = jvecs / JAM_U as i64;
        let jsingle = jvecs % JAM_U as i64;
        let jtail = plan.extent % w.lanes();
        // One vector site, packed and register-tiled.
        self.simd.packed(true);
        // Stride-1 factor pointers for the group's four k's, k ascending.
        let bp = [R9, R10, RCX, RAX];
        self.asm.mov_ri(RAX, plan.kmin);
        self.asm.mov_mr(RDI, off(plan.kvar), RAX);
        // Every GPR is claimed below, so the group counter lives in the
        // stack's top slot (restored before returning).
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
            self.asm.mov_rm(RAX, RDI, off(plan.inv.addr));
            self.asm.mov_rm(RCX, RDX, (plan.inv.slot as i32) * 8);
            self.asm.lea_sib(RAX, RCX, RAX, w.esize());
            self.asm.bcast(w, X(2 + jk), Mem::at(RAX, 0));
            self.asm.mov_rm(RAX, RDI, off(plan.vec.addr));
            self.asm.mov_rm(RCX, RDX, (plan.vec.slot as i32) * 8);
            self.asm.lea_sib(RAX, RCX, RAX, w.esize());
            self.asm.push_r(RAX);
            // Advance the loop variable (the scalar template's
            // post-body increment).
            self.asm.mov_rm(RAX, RDI, off(plan.kvar));
            self.asm.add_ri(RAX, 1);
            self.asm.mov_mr(RDI, off(plan.kvar), RAX);
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
        if jtail > 0 {
            // Keep the low-lane scalar tail out of dirty-upper stalls;
            // the next group rebroadcasts X2..X5 anyway.
            self.asm.vend(w);
            // The low lane of each broadcast is the scalar factor.
            self.repeat(jtail, |s| sweep(s, Width::scalar(w.dt), &[(X0, X1)]));
        }
        self.asm.dec_m(RSP, 0);
        self.asm.jcc_back(CC_NZ, gtop);
        self.asm.pop_r(RAX);
        self.asm.vend(w);
    }

    /// Generic element-order path: mixed dtypes, arbitrary strides, or
    /// an aliased destination. Replicates the VM's generic loop (load
    /// dst, load a, load b, round-per-op multiply-add, store) exactly,
    /// including its strict ascending element order. A stride-0
    /// destination is loaded once, before the loop, and carried in a
    /// register: the value just stored is the value the next iteration
    /// would load. The store stays in every iteration, so a factor that
    /// reads the destination's slot — even its very element — still reads
    /// what it read before.
    fn muladd_generic(
        &mut self,
        extent: i64,
        dst: &SlotAccess,
        sa: &SlotAccess,
        sb: &SlotAccess,
        round32: bool,
    ) {
        let dt_d = self.dts[dst.slot as usize];
        let dt_a = self.dts[sa.slot as usize];
        let dt_b = self.dts[sb.slot as usize];
        let carried = dst.stride == 0;
        self.asm.mov_ri(R11, extent);
        if carried {
            self.load_widen(X1, Mem::at(R8, 0), dt_d); // c, once
        }
        let top = self.asm.here();
        if !carried {
            self.load_widen(X1, Mem::at(R8, 0), dt_d); // c
        }
        self.load_widen(X0, Mem::at(R9, 0), dt_a); // x
        self.load_widen(X2, Mem::at(R10, 0), dt_b); // y
        self.asm.vop_rr(SD, FMUL, X0, X0, X2); // m = x*y (f64)
        if round32 {
            self.asm.round32(X0);
        }
        self.asm.vop_rr(SD, FADD, X1, X1, X0); // s = c + m
        if round32 {
            self.asm.round32(X1);
        }
        if dt_d == DType::F64 {
            self.asm.vstore(SD, Mem::at(R8, 0), X1);
        } else {
            // Narrow like `set_f64_linear`'s `as f32`, beside the sum.
            self.asm.cvtsd2ss_rr(X3, X1);
            self.asm.vstore(SS, Mem::at(R8, 0), X3);
            if carried && !round32 {
                // The store narrowed a sum that was not `f32`-rounded:
                // carry what a reload would return.
                self.asm.cvtss2sd_rr(X1, X3);
            }
        }
        for (acc, preg) in [(dst, R8), (sa, R9), (sb, R10)] {
            let step = acc.stride * i64::from(elem_size(self.dts, acc.slot));
            if step != 0 {
                self.asm.add_ri(preg, step as i32); // range-checked in check_item
            }
        }
        self.asm.dec_r(R11);
        self.asm.jcc_back(CC_NZ, top);
    }

    /// `x ← f64([m])` honoring the slot dtype (f32 widens).
    fn load_widen(&mut self, x: X, m: Mem, dt: DType) {
        self.asm.vload(Width::scalar(dt), x, m);
        if dt != DType::F64 {
            self.asm.cvtss2sd_rr(x, x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ndarray::NDArray;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn run_code(code: &[u8], iregs: &mut [i64], fregs: &mut [f64], slots: &[*mut u8]) {
        let buf = ExecBuf::from_code(code).expect("map");
        let f: super::super::JitFn = unsafe { std::mem::transmute(buf.entry(0)) };
        unsafe { f(iregs.as_mut_ptr(), fregs.as_mut_ptr(), slots.as_ptr()) }
    }

    /// The nest function `emit` writes on `opts` (its `ret` included),
    /// and its packed-or-scalar tally.
    fn compiled(
        opts: &X86Backend,
        dts: &[DType],
        emit: impl FnOnce(&mut NestCompiler),
    ) -> (Vec<u8>, SimdReport) {
        let mut a = Asm::new();
        let mut simd = SimdReport::default();
        emit(&mut NestCompiler {
            asm: &mut a,
            dts,
            opts,
            simd: &mut simd,
        });
        a.ret();
        (a.code, simd)
    }

    /// [`compiled`] on the SSE2 tier, for tests that execute the code.
    fn compiled_sse2(dts: &[DType], emit: impl FnOnce(&mut NestCompiler)) -> (Vec<u8>, SimdReport) {
        compiled(&X86Backend::sse2_only(), dts, emit)
    }

    #[test]
    fn in_memory_templates_are_byte_for_byte_the_item_code_path() {
        // With nothing resident every instruction lowers to the template
        // it always had; these bytes were emitted by the commit before
        // the resolver existed (`vm/v3`, `jit/v3`). The resident forms
        // are compared against this path, so it must not drift with them.
        let code = [
            Instr::IConst(3, -7_000_000_000),
            Instr::FConst(20, 1.5),
            Instr::IToF(1, 2),
            Instr::IToF32(17, 0),
            Instr::F32Round(2, 1),
            Instr::IBin(BinOp::Add, 4, 0, 1),
            Instr::IBin(BinOp::Sub, 5, 4, 17),
            Instr::IBin(BinOp::Mul, 6, 5, 5),
            Instr::FBin(BinOp::Div, 3, 1, 2),
            Instr::FBin32(BinOp::Mul, 4, 3, 3),
            Instr::FBin(BinOp::Sub, 5, 20, 4),
            Instr::FMulAdd {
                dst: 6,
                add: 5,
                a: 3,
                b: 4,
                round32: false,
            },
            Instr::FMulAdd {
                dst: 7,
                add: 6,
                a: 6,
                b: 17,
                round32: true,
            },
            Instr::Call1(Intrinsic::Sqrt, 8, 7, true),
            Instr::Load(9, 0, 4),
            Instr::Load(10, 1, 16),
            Instr::Store(0, 5, 9),
            Instr::Store(1, 6, 10),
        ];
        let mut a = Asm::new();
        let mut simd = SimdReport::default();
        let mut nc = NestCompiler {
            asm: &mut a,
            dts: &[DType::F64, DType::F32],
            opts: &X86Backend::sse2_only(),
            simd: &mut simd,
        };
        nc.emit_code(&code);
        let hex: String = a.code.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "48b8007ac45efeffffff4889471848b8000000000000f83f488986a000000048\
             8b4710f2480f2ac0f20f114608488b07f2480f2ac0f20f5ac0f30f5ac0f20f11\
             8688000000f20f104608f20f5ac0f30f5ac0f20f114610488b07488b4f084803\
             c148894720488b4720488b8f88000000482bc148894728488b4728488b4f2848\
             0fafc148894730f20f104608f20f5e4610f20f114618f20f104618f20f594618\
             f20f5ac0f30f5ac0f20f114620f20f1086a0000000f20f5c4620f20f114628f2\
             0f104618f20f594620f20f104e28f20f58c8f20f114e30f20f104630f20f5986\
             88000000f20f5ac0f30f5ac0f20f104e30f20f58c8f20f5ac9f30f5ac9f20f11\
             4e38f20f104638f20f51c0f20f5ac0f30f5ac0f20f114640488b4720488b0af2\
             0f1004c1f20f114648488b8780000000488b4a08f30f100481f30f5ac0f20f11\
             4650488b4728488b0af20f104648f20f1104c1488b4730488b4a08f20f104650\
             f20f5ac0f30f110481"
        );
    }

    #[test]
    fn integer_templates_execute() {
        // iregs[2] = iregs[0] + iregs[1]; iregs[3] = iregs[0] * iregs[1]
        let (code, _) = compiled_sse2(&[], |nc| {
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
        let (code, _) = compiled_sse2(&[], |nc| {
            nc.emit_code(&[
                Instr::FBin(BinOp::Div, 2, 0, 1),
                Instr::FBin32(BinOp::Mul, 3, 0, 1),
                Instr::FMulAdd {
                    dst: 4,
                    add: 2,
                    a: 0,
                    b: 1,
                    round32: false,
                },
                Instr::Call1(Intrinsic::Sqrt, 5, 0, false),
                Instr::IToF32(1, 0),
            ])
        });
        let (x, y) = (1.9371823_f64, -0.3718_f64);
        let mut ir = [123456789i64, 0];
        let mut fr = [x, y, 0.0, 0.0, 0.0, 0.0];
        run_code(&code, &mut ir, &mut fr, &[]);
        assert_eq!(fr[2], x / y);
        assert_eq!(fr[3], (x * y) as f32 as f64);
        assert_eq!(fr[4], x / y + x * y);
        assert_eq!(fr[5], x.sqrt());
        assert_eq!(fr[1], 123456789i64 as f64 as f32 as f64);
    }

    #[test]
    fn loop_and_memory_templates_execute() {
        // for i in 2..6 { B[i] = A[i] (f32, widened/narrowed) }
        let mut av: Vec<f32> = (0..8).map(|v| v as f32 * 1.5).collect();
        let mut bv: Vec<f32> = vec![0.0; 8];
        let slots = [av.as_mut_ptr().cast::<u8>(), bv.as_mut_ptr().cast::<u8>()];
        let copy = Item::Loop {
            var: 0,
            min: 2,
            extent: 4,
            clamp: Clamp::default(),
            body: Block {
                items: vec![Item::Code(vec![
                    Instr::Load(0, 0, 0),
                    Instr::Store(1, 0, 0),
                ])],
            },
            kind: crate::compile::LoopKind::Serial,
        };
        let (code, _) = compiled_sse2(&[DType::F32, DType::F32], |nc| nc.emit_item(&copy));
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
                let (code, simd) = compiled_sse2(&dts, |nc| nc.emit_item(&it));
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
        dts: &[DType],
        bumps: &[(Reg, i64)],
        body: &[Instr],
        carry: Option<Carry>,
        n: i64,
        (gprs, xmms): (&[R], u8),
        iregs: &[i64],
        fregs: &[f64],
        arrays: &[NDArray],
    ) -> (Vec<Vec<u64>>, Vec<i64>, Vec<f64>) {
        let plan = plan_resident(bumps, body, carry, dts, gprs, xmms);
        let (code, _) = compiled_sse2(dts, |nc| {
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
        dts: Vec<DType>,
        iregs: Vec<i64>,
        fregs: Vec<f64>,
        bumps: Vec<(Reg, i64)>,
        body: Vec<Instr>,
        carry: Option<Carry>,
        arrays: Vec<NDArray>,
    }

    fn pick_of(avail: &[Reg], rng: &mut SmallRng) -> Reg {
        avail[rng.gen_range(0..avail.len())]
    }

    fn generate(rng: &mut SmallRng, n_ptrs: usize, n_defs: usize, extent: i64) -> Generated {
        const STRIDES: [i64; 6] = [0, 1, 2, 3, -1, -2];
        const OPS: [BinOp; 4] = [BinOp::Add, BinOp::Mul, BinOp::Sub, BinOp::Div];
        let dts: Vec<DType> = (0..3)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    DType::F64
                } else {
                    DType::F32
                }
            })
            .collect();
        let arrays: Vec<NDArray> = dts
            .iter()
            .enumerate()
            .map(|(i, &dt)| NDArray::random(&[64], dt, 40 + i as u64, 0.5, 2.0))
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
                match rng.gen_range(0..9) {
                    0 => Instr::FBin(OPS[rng.gen_range(0..4usize)], d, pick(rng), pick(rng)),
                    1 => Instr::FBin32(OPS[rng.gen_range(0..4usize)], d, pick(rng), pick(rng)),
                    2 | 3 => Instr::FMulAdd {
                        dst: d,
                        add: pick(rng),
                        a: pick(rng),
                        b: pick(rng),
                        round32: rng.gen_bool(0.5),
                    },
                    4 => Instr::F32Round(d, pick(rng)),
                    5 => {
                        if rng.gen_bool(0.5) {
                            Instr::IToF(d, 0)
                        } else {
                            Instr::IToF32(d, 0)
                        }
                    }
                    6 => Instr::FConst(d, rng.gen_range(0.5..2.0)),
                    7 => Instr::Call1(Intrinsic::Sqrt, d, pick(rng), rng.gen_bool(0.5)),
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
                2 => Instr::FBin32(BinOp::Mul, next, acc, acc),
                3 => Instr::FMulAdd {
                    dst: next,
                    add: acc,
                    a: x,
                    b: y,
                    round32: dts[slot as usize] == DType::F32,
                },
                _ => Instr::FMulAdd {
                    dst: next,
                    add: x,
                    a: acc,
                    b: y,
                    round32: false,
                },
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
            dts,
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
                    &g.dts, &g.bumps, &g.body, g.carry, extent, budgets, &g.iregs, &g.fregs,
                    &g.arrays,
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
            let plan = plan_resident(&g.bumps, &g.body, g.carry, &g.dts, &PTR_REGS, XMM_POOL);
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
        // for i in 0..6 { B[10 − 2·i] = A[3·i] · f64(i) + f32(i) }:
        // the loop variable is read as a value (its in-memory bump must
        // stay), the two address registers only feed pointers (their
        // bumps go), strides are non-unit and negative, A is f32.
        let dts = [DType::F32, DType::F64];
        let bumps = [(0, 1), (1, 3), (2, -2)];
        let body = [
            Instr::Load(0, 0, 1),
            Instr::IToF(1, 0),
            Instr::IToF32(2, 0),
            Instr::FMulAdd {
                dst: 3,
                add: 2,
                a: 0,
                b: 1,
                round32: false,
            },
            Instr::Store(1, 2, 3),
        ];
        let plan = plan_resident(&bumps, &body, None, &dts, &PTR_REGS, XMM_POOL);
        assert_eq!(plan.mem_bumps, vec![(0, 1)]);
        assert_eq!(plan.steps, vec![(R8, 12), (R9, -16)]);
        let arrays = [
            NDArray::random(&[16], DType::F32, 1, -1.0, 1.0),
            NDArray::zeros(&[11], DType::F64),
        ];
        let (iregs, fregs) = ([0i64, 0, 10], [0f64; 4]);
        let resident = (&PTR_REGS[..], XMM_POOL);
        let (got, ..) = run_strided(
            &dts, &bumps, &body, None, 6, resident, &iregs, &fregs, &arrays,
        );
        let (want, ..) = run_strided(
            &dts,
            &bumps,
            &body,
            None,
            6,
            (&[], 0),
            &iregs,
            &fregs,
            &arrays,
        );
        assert_eq!(got, want);
        let a = arrays[0].to_f64_vec();
        for i in 0..6usize {
            let v = i as f64 as f32 as f64 + a[3 * i] * i as f64;
            assert_eq!(got[1][10 - 2 * i], v.to_bits(), "B[{}]", 10 - 2 * i);
        }
    }

    #[test]
    fn packed_main_loop_hands_over_to_the_resident_tail() {
        // for i in 0..n { B[i] = A[i] · c + A[i] } proven vectorized, at
        // every extent `lanes·q + r`: the packed main loop leaves the
        // strided registers in memory, the resident tail picks them up.
        let dts = [DType::F64, DType::F64];
        let bumps = vec![(0, 1), (1, 1), (2, 1)];
        let body = vec![
            Instr::Load(1, 0, 1),
            Instr::FMulAdd {
                dst: 2,
                add: 1,
                a: 1,
                b: 0,
                round32: false,
            },
            Instr::Store(1, 2, 2),
        ];
        for opts in [X86Backend::sse2_only(), X86Backend::detect()] {
            let lanes = opts.width(DType::F64).lanes();
            for q in 1..=3 {
                for r in 0..lanes {
                    let extent = lanes * q + r;
                    let item = Item::StridedLoop {
                        min: 0,
                        extent,
                        clamp: Clamp::default(),
                        pre: vec![
                            Instr::IConst(0, 0),
                            Instr::IConst(1, 3),
                            Instr::IConst(2, 1),
                        ],
                        bumps: bumps.clone(),
                        body: body.clone(),
                        carry: None,
                        kind: LoopKind::Vectorized { proven: true },
                    };
                    let (code, simd) = compiled(&opts, &dts, |nc| nc.emit_item(&item));
                    assert_eq!(simd.packed_loops, 1, "{opts:?}");
                    let mut arrays = vec![
                        NDArray::random(&[40], DType::F64, 9, -1.0, 1.0),
                        NDArray::zeros(&[40], DType::F64),
                    ];
                    let (iregs, fregs) = ([0i64, 3, 1], [1.0 / 3.0, 0.0, 0.0]);
                    let (want, ..) = run_strided(
                        &dts,
                        &bumps,
                        &body,
                        None,
                        extent,
                        (&[], 0),
                        &iregs,
                        &fregs,
                        &arrays,
                    );
                    let slots = slot_ptrs(&mut arrays);
                    run_code(&code, &mut iregs.clone(), &mut fregs.clone(), &slots);
                    assert_eq!(bits(&arrays), want, "{opts:?} extent {extent}");
                }
            }
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
        let (code, _) = compiled_sse2(&dts, |nc| nc.emit_item(&item));
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
    fn stride_zero_muladd_matches_the_vm_loop_on_aliased_and_mixed_operands() {
        use DType::{F32, F64};
        // (slot dtypes, dst/a/b slots, a stride, b stride, round32): an
        // in-place destination whose element the `a` walk crosses, mixed
        // dtypes with and without per-op rounding, and the native
        // reduction over non-unit, negative and zero factor strides.
        let cases = [
            ([F64, F64, F64], [0, 0, 1], 1, 2, false),
            ([F32, F32, F32], [0, 1, 0], 2, 1, true),
            ([F32, F64, F32], [0, 1, 2], 1, 3, false),
            ([F32, F64, F32], [0, 1, 2], 1, 3, true),
            ([F64, F32, F32], [0, 1, 2], 3, -1, true),
            ([F32, F32, F32], [0, 1, 2], 1, 1, false),
            ([F64, F64, F64], [0, 1, 2], 1, 5, false),
            ([F32, F32, F32], [0, 1, 2], -2, 0, true),
            ([F64, F64, F64], [0, 1, 1], 0, -3, false),
        ];
        for (dts, [sd, sa, sb], stride_a, stride_b, round32) in cases {
            let extent = 7i64;
            let arrays: Vec<NDArray> = dts
                .iter()
                .enumerate()
                .map(|(i, &dt)| NDArray::random(&[48], dt, 70 + i as u64, -1.0, 1.0))
                .collect();
            let start = |s: i64| if s < 0 { 6 * -s + 1 } else { 2 };
            // The destination sits on an element the `a` walk reaches.
            let iregs = [
                start(stride_a) + 3 * stride_a,
                start(stride_a),
                start(stride_b),
            ];
            let access = |slot, addr, stride| SlotAccess { slot, addr, stride };
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
                let mut m = want[sa as usize].get_f64_linear(at(&x))
                    * want[sb as usize].get_f64_linear(at(&y));
                if round32 {
                    m = m as f32 as f64;
                }
                let mut sum = c + m;
                if round32 {
                    sum = sum as f32 as f64;
                }
                want[sd as usize].set_f64_linear(at(&d), sum);
            }
            let (code, simd) =
                compiled_sse2(&dts, |nc| nc.emit_muladd(extent, &d, &x, &y, round32));
            assert_eq!(simd.scalar_reasons.get("reduction-chain"), Some(&1));
            assert_eq!(simd.sites(), 1);
            let mut got = arrays.clone();
            let slots = slot_ptrs(&mut got);
            run_code(&code, &mut iregs.clone(), &mut [0f64], &slots);
            assert_eq!(
                bits(&got),
                bits(&want),
                "{dts:?} slots {sd}/{sa}/{sb} strides {stride_a}/{stride_b} round32 {round32}"
            );
        }
    }

    #[test]
    fn trimmed_loops_outside_the_template_are_rejected_not_guessed() {
        let dts = [DType::F64];
        let clamp = Clamp {
            hi: Some((1, 0)),
            ..Clamp::default()
        };
        // A trimmed loop that did not reach strided form stays on the VM.
        let plain = Item::Loop {
            var: 0,
            min: 0,
            extent: 4,
            clamp,
            body: Block::default(),
            kind: LoopKind::Serial,
        };
        assert!(check_item(&plain, &dts).is_err());
        // Offsets the template cannot encode are refused as well.
        for plus in [-1, i64::from(i32::MAX) + 1] {
            let strided = Item::StridedLoop {
                min: 0,
                extent: 4,
                clamp: Clamp {
                    lo: Some((1, plus)),
                    ..Clamp::default()
                },
                pre: vec![Instr::IConst(0, 0)],
                bumps: vec![(0, 1)],
                body: vec![],
                carry: None,
                kind: LoopKind::Serial,
            };
            assert!(check_item(&strided, &dts).is_err(), "offset {plus}");
        }
    }

    fn hex(code: &[u8]) -> String {
        code.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// First line where two dumps differ, with both sides.
    fn assert_same_lines(got: &str, want: &str) {
        for (g, w) in got.lines().zip(want.lines()) {
            assert_eq!(g, w, "first differing row");
        }
        assert_eq!(got.lines().count(), want.lines().count(), "row count");
    }

    // ------------------------------------------------------ template goldens

    fn access(slot: u16, addr: Reg, stride: i64) -> SlotAccess {
        SlotAccess { slot, addr, stride }
    }

    fn fmuladd(dst: Reg, add: Reg, a: Reg, b: Reg, round32: bool) -> Instr {
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
    struct JamNest {
        k: i64,
        code: Vec<Instr>,
        pre: Vec<Instr>,
        dst: SlotAccess,
        a: SlotAccess,
        b: SlotAccess,
        j: i64,
        round32: bool,
        tail: Vec<Item>,
    }

    impl JamNest {
        /// `inv_first` puts the stride-0 factor in the multiply's first
        /// operand.
        fn new(j: i64, inv_first: bool, round32: bool) -> JamNest {
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

        fn item(self) -> Item {
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

    /// A proven-vectorized strided body with a hoisted constant, a
    /// stride-0 load and every packed instruction form; the `f64` one
    /// also reads a freg defined outside the loop.
    fn packed_body(f64m: bool) -> Vec<Instr> {
        let head = [
            Instr::FConst(1, 0.5),
            Instr::Load(2, 0, 1),
            Instr::Load(3, 0, 4),
            fmuladd(5, 3, 2, 1, !f64m),
        ];
        let rest = if f64m {
            [
                Instr::FBin(BinOp::Mul, 6, 5, 0),
                Instr::FBin(BinOp::Sub, 8, 6, 2),
                Instr::Call1(Intrinsic::Sqrt, 7, 8, false),
            ]
        } else {
            [
                Instr::F32Round(6, 5),
                Instr::FBin32(BinOp::Div, 8, 6, 2),
                Instr::Call1(Intrinsic::Sqrt, 7, 8, true),
            ]
        };
        let store = [Instr::Store(1, 2, 7)];
        head.into_iter().chain(rest).chain(store).collect()
    }

    fn muladd(extent: i64, slots: [u16; 3], strides: [i64; 3], round32: bool) -> Item {
        let [dst, a, b] = [0, 1, 2].map(|k| access(slots[k], k as Reg, strides[k]));
        Item::MulAddLoop {
            extent,
            pre: vec![],
            dst,
            a,
            b,
            round32,
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
        kind: LoopKind,
    ) -> Item {
        Item::StridedLoop {
            min: 2,
            extent,
            clamp,
            pre: bumps.iter().map(|&(r, _)| Instr::IConst(r, 3)).collect(),
            bumps: bumps.to_vec(),
            body,
            carry,
            kind,
        }
    }

    #[test]
    fn templates_are_byte_for_byte_the_recorded_ones() {
        // Recorded from the single-file emitter of `jit/v4` (the commit
        // before the vector layer existed) on all three tiers; nothing is
        // executed, so the AVX rows are checked on any host. The `(1,1,0)`
        // and `(1,1,1)` microkernels, the packed strided tier and every
        // `f32` lane see no benchmark traffic, so these bytes are the
        // only thing that holds them still; a change that moves emitted
        // code on purpose re-records the file.
        use DType::{F32, F64};
        let mut cases: Vec<(String, Vec<DType>, Item)> = Vec::new();
        // Microkernels: the parallel patterns, native reductions and the
        // generic path's refusals (mixed dtypes with and without per-op
        // rounding over a carried and a walking destination, an aliased
        // destination, mismatched rounding). Extents 27 (f64) and 45
        // (f32) leave a tiled main loop, leftover vectors and a scalar
        // tail at both vector widths.
        let (f64s, f32s, apart) = ([F64; 3], [F32; 3], [0, 1, 2]);
        let microkernels = [
            (f64s, 27, apart, [1, 0, 1], false),
            (f64s, 27, apart, [1, 1, 0], false),
            (f64s, 27, apart, [1, 1, 1], false),
            (f32s, 45, apart, [1, 0, 1], true),
            (f32s, 45, apart, [1, 1, 0], true),
            (f32s, 45, apart, [1, 1, 1], true),
            (f64s, 27, apart, [0, 1, 3], false),
            (f32s, 45, apart, [0, -2, 0], true),
            (f64s, 27, apart, [2, 1, 1], false),
            (f32s, 45, apart, [1, 2, 1], true),
            ([F32, F64, F32], 9, apart, [0, 1, 0], false),
            ([F32, F64, F32], 9, apart, [0, 1, 0], true),
            ([F64, F32, F64], 9, apart, [1, 1, 0], true),
            (f64s, 9, [0, 0, 1], [1, 1, 0], false),
            (f64s, 9, apart, [1, 1, 0], true),
        ];
        for (dts, n, slots, strides, round32) in microkernels {
            let name = format!("muladd {dts:?} n={n} {slots:?} {strides:?} round32={round32}");
            cases.push((name, dts.to_vec(), muladd(n, slots, strides, round32)));
        }
        for (dt, j, inv_first) in [(F64, 27, true), (F32, 45, false), (F64, 8, false)] {
            let name = format!("jam {dt:?} j={j} inv_first={inv_first}");
            let nest = JamNest::new(j, inv_first, dt == F32).item();
            cases.push((name, vec![dt; 3], nest));
        }
        let unit = [(0, 1), (1, 1), (2, 1)];
        let proven = LoopKind::Vectorized { proven: true };
        for (dt, n) in [(F64, 11), (F32, 21), (F64, 8)] {
            let name = format!("packed strided {dt:?} n={n}");
            let body = packed_body(dt == F64);
            let item = strided(n, Clamp::default(), &unit, body, None, proven);
            cases.push((name, vec![dt; 2], item));
        }
        // The register-resident scalar loop: a static extent over mixed
        // dtypes with every scalar template in the body, and a trimmed
        // reduction with its accumulator forwarded.
        let every_template = vec![
            Instr::Load(0, 0, 1),
            Instr::IToF(1, 0),
            Instr::IToF32(2, 0),
            Instr::FConst(4, -2.5),
            fmuladd(3, 2, 0, 1, true),
            Instr::FBin(BinOp::Sub, 5, 3, 9),
            Instr::FBin32(BinOp::Div, 6, 5, 4),
            Instr::Call1(Intrinsic::Sqrt, 7, 6, true),
            Instr::F32Round(8, 7),
            Instr::Store(1, 2, 8),
            Instr::Store(0, 1, 8),
        ];
        let walks = [(0, 1), (1, 3), (2, -2)];
        let serial = LoopKind::Serial;
        let item = strided(6, Clamp::default(), &walks, every_template, None, serial);
        cases.push(("scalar strided resident".into(), vec![F32, F64], item));
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
        let item = strided(4, clamp, &[(0, 1), (1, 2)], reduction, Some(carry), serial);
        cases.push(("trimmed strided carry".into(), vec![F64; 2], item));
        let tiers = [
            ("scalar", X86Backend::scalar_only()),
            ("sse2", X86Backend::sse2_only()),
            ("avx", X86Backend::avx()),
        ];
        let mut got = String::new();
        for (tier, opts) in &tiers {
            for (name, dts, item) in &cases {
                let (code, simd) = compiled(opts, dts, |nc| nc.emit_item(item));
                let mut reasons: Vec<_> = simd.scalar_reasons.iter().collect();
                reasons.sort();
                let (packed, tiled) = (simd.packed_loops, simd.tiled_loops);
                let tally = format!("packed {packed} tiled {tiled} scalar {reasons:?}");
                got.push_str(&format!("{tier} {name}: {tally} {}\n", hex(&code)));
            }
        }
        assert_same_lines(&got, include_str!("x86_64/goldens/templates.txt"));
    }

    // -------------------------------------------------------------- planners

    /// One call of `plan_packed` over `B[i] = A[i] · c`: as built,
    /// accepted at every shape but `Scalar`.
    struct Packable {
        extent: i64,
        bumps: Vec<(Reg, i64)>,
        body: Vec<Instr>,
        kind: LoopKind,
        dts: [DType; 2],
        shape: Shape,
    }

    fn packable() -> Packable {
        let mul = Instr::FBin(BinOp::Mul, 2, 1, 0);
        Packable {
            extent: 8,
            bumps: vec![(0, 1), (1, 1), (2, 1)],
            body: vec![Instr::Load(1, 0, 1), mul, Instr::Store(1, 2, 2)],
            kind: LoopKind::Vectorized { proven: true },
            dts: [DType::F64; 2],
            shape: Shape::Sse,
        }
    }

    #[test]
    fn plan_packed_names_every_refusal() {
        use DType::{F32, F64};
        let plan = |c: &Packable| {
            plan_packed(c.extent, &c.bumps, &c.body, &c.kind, &c.dts, c.shape).map(|p| p.w)
        };
        let sqrt = |round| Instr::Call1(Intrinsic::Sqrt, 2, 1, round);
        let in_f32 = |c: &mut Packable, i: Instr| (c.dts, c.body[1]) = ([F32; 2], i);
        // Accepted at each shape's own width, and at no extent below it.
        for dt in [F64, F32] {
            for shape in [Shape::Sse, Shape::Avx] {
                let (mut case, want) = (packable(), Width::new(dt, shape));
                if dt == F32 {
                    in_f32(&mut case, sqrt(true));
                }
                (case.shape, case.extent) = (shape, want.lanes());
                assert_eq!(plan(&case), Ok(want));
                case.extent -= 1;
                assert_eq!(plan(&case), Err("short-extent"));
            }
        }
        // Each refusal changes one thing about the accepted call.
        let refuses = |reason: &str, edit: &dyn Fn(&mut Packable)| {
            let mut case = packable();
            edit(&mut case);
            assert_eq!(plan(&case), Err(reason), "{:?} {:?}", case.body, case.dts);
        };
        let add = |d, x, y| Instr::FBin(BinOp::Add, d, x, y);
        let add32 = |d, x, y| Instr::FBin32(BinOp::Add, d, x, y);
        refuses("simd-disabled", &|c| c.shape = Shape::Scalar);
        refuses("unproven-vectorize", &|c| {
            c.kind = LoopKind::Vectorized { proven: false }
        });
        refuses("no-vectorize-annotation", &|c| c.kind = LoopKind::Serial);
        refuses("no-vectorize-annotation", &|c| {
            c.kind = LoopKind::Parallel { proven: true }
        });
        refuses("mixed-precision", &|c| c.dts = [F64, F32]);
        refuses("mixed-precision", &|c| c.body[1] = add32(2, 1, 1));
        refuses("mixed-precision", &|c| c.dts = [F32; 2]);
        refuses("mixed-precision", &|c| c.body[1] = Instr::F32Round(2, 1));
        refuses("body-op", &|c| c.body = vec![Instr::FConst(1, 1.0)]);
        refuses("body-op", &|c| c.body[1] = Instr::IToF(2, 0));
        refuses("stride-overflow", &|c| c.bumps.push((3, i64::MAX)));
        refuses("register-pressure", &|c| {
            c.body.splice(1..2, (2..17).map(|d| add(d, 1, 1)));
            c.body[16] = Instr::Store(1, 2, 16);
        });
        refuses("freg-reassign", &|c| c.body[1] = add(1, 1, 1));
        refuses("loop-carried-freg", &|c| c.body[1] = add(0, 0, 1));
        refuses("operand-precision", &|c| in_f32(c, add32(2, 1, 0)));
        refuses("const-precision", &|c| in_f32(c, Instr::FConst(2, 0.1)));
        refuses("load-stride", &|c| c.bumps[1].1 = 2);
        refuses("store-stride", &|c| c.bumps.truncate(2));
        refuses("rounding-mismatch", &|c| c.body[1] = sqrt(true));
        refuses("rounding-mismatch", &|c| {
            in_f32(c, fmuladd(2, 1, 1, 1, false))
        });
    }

    #[test]
    fn classify_muladd_names_every_refusal() {
        use DType::{F32, F64};
        use MulAdd::{Generic, Parallel, Reduction};
        let (f64s, f32s, mixed, apart) = ([F64; 3], [F32; 3], [F64, F32, F64], [0, 1, 2]);
        let native = |dt| Reduction { native: dt };
        // Refusals in the order they are tested: a mixed, mis-rounded,
        // aliased operand set names the first. A stride-0 destination is
        // a reduction whatever else holds, in native precision only when
        // nothing refuses.
        let table = [
            (Parallel(F64), f64s, apart, [1, 0, 1], false),
            (Parallel(F64), f64s, apart, [1, 1, 0], false),
            (Parallel(F32), f32s, apart, [1, 1, 1], true),
            (Generic("mixed-dtype"), mixed, apart, [1, 0, 1], false),
            (
                Generic("mixed-dtype"),
                [F32, F32, F64],
                apart,
                [1, 0, 1],
                true,
            ),
            (Generic("mixed-dtype"), mixed, [0, 1, 0], [2, 1, 1], true),
            (Generic("rounding-mismatch"), f64s, apart, [1, 0, 1], true),
            (
                Generic("rounding-mismatch"),
                f32s,
                [0, 0, 1],
                [1, 0, 1],
                false,
            ),
            (Generic("aliased-dst"), f64s, [0, 0, 2], [1, 0, 1], false),
            (Generic("aliased-dst"), f64s, [0, 1, 0], [1, 5, 1], false),
            (Generic("stride-pattern"), f64s, apart, [1, 0, 0], false),
            (Generic("stride-pattern"), f64s, apart, [2, 1, 1], false),
            (Generic("stride-pattern"), f64s, apart, [1, 2, 1], false),
            (Generic("stride-pattern"), f64s, apart, [-1, 1, 1], false),
            (native(Some(F64)), f64s, apart, [0, 1, 5], false),
            (native(Some(F32)), f32s, [0, 1, 1], [0, -2, 0], true),
            (native(None), [F32, F64, F32], apart, [0, 1, 1], true),
            (native(None), f64s, apart, [0, 1, 1], true),
            (native(None), f64s, [0, 0, 1], [0, 1, 1], false),
        ];
        for (want, dts, slots, strides, round32) in table {
            let [dst, a, b] = [0, 1, 2].map(|k| access(slots[k], k as Reg, strides[k]));
            let got = classify_muladd(&dst, &a, &b, round32, &dts);
            assert_eq!(got, want, "{dts:?} {slots:?} {strides:?} {round32}");
        }
    }

    #[test]
    fn plan_jam_refuses_each_unproven_shape() {
        use DType::{F32, F64};
        let planned = |nest: JamNest, dts: [DType; 3], shape| {
            let item = nest.item();
            plan_jam(&item, &dts, shape).map(|p| (p.inv.slot, p.vec.slot, p.inv_first, p.w))
        };
        let ok = || JamNest::new(27, true, false);
        let want = (1, 2, true, Width::new(F64, Shape::Sse));
        assert_eq!(planned(ok(), [F64; 3], Shape::Sse), Some(want));
        let want = (1, 2, false, Width::new(F32, Shape::Avx));
        let f32_nest = JamNest::new(45, false, true);
        assert_eq!(planned(f32_nest, [F32; 3], Shape::Avx), Some(want));
        assert_eq!(planned(ok(), [F64; 3], Shape::Scalar), None, "scalar tier");
        assert_eq!(planned(ok(), [F64, F32, F64], Shape::Sse), None, "dtypes");
        // Each refusal changes one thing about the accepted nest.
        let refuses = |why: &str, edit: &dyn Fn(&mut JamNest)| {
            let mut nest = ok();
            edit(&mut nest);
            assert_eq!(planned(nest, [F64; 3], Shape::Sse), None, "{why}");
        };
        let dst_addr = |x| Instr::IBin(BinOp::Add, 9, x, 8);
        refuses("fewer than JAM k iterations", &|n| n.k = JAM - 1);
        refuses("a third body item", &|n| n.tail.push(Item::Code(vec![])));
        refuses("mismatched rounding", &|n| n.round32 = true);
        refuses("destination slot read by a factor", &|n| n.a.slot = 0);
        refuses("both factors walk", &|n| n.a.stride = 1);
        refuses("a reduction", &|n| n.dst.stride = 0);
        refuses("j shorter than one vector", &|n| n.j = 1);
        refuses("code writes the loop variable", &|n| {
            n.pre[2] = Instr::IConst(0, 0)
        });
        refuses("code touches memory", &|n| n.code[0] = Instr::Load(0, 1, 3));
        refuses("destination row moves with k", &|n| n.pre[2] = dst_addr(0));
        refuses("destination row is loop-carried", &|n| {
            n.pre[2] = dst_addr(9)
        });
    }

    // ------------------------------------------------------------ encoder table

    const RBP: R = R(5);
    const R12: R = R(12);
    const R13: R = R(13);
    const R15: R = R(15);
    /// A low and an extended register of each file (REX/VEX `R`, `X`, `B`).
    const GPRS: [R; 2] = [RCX, R9];
    const XMMS: [X; 2] = [X1, X(9)];
    /// Plain, forced-SIB (`rsp`/`r12`) and forced-disp8 (`rbp`/`r13`) bases.
    const BASES: [R; 6] = [RCX, R9, RSP, R12, RBP, R13];
    /// Zero, disp8/imm8 at both ends, disp32/imm32 just past them.
    const DISPS: [i32; 5] = [0, 127, -128, 128, -129];
    /// One base of each kind with one displacement of each size, for the
    /// methods that share the loads' ModRM path.
    const FEW: [(R, i32); 4] = [(RCX, 0), (R12, 127), (R13, 0), (R9, -129)];

    /// `name (operands): hex` of one call on a fresh assembler.
    macro_rules! row {
        ($rows:ident, $method:ident($($arg:expr),*)) => {{
            let mut a = Asm::new();
            a.$method($($arg),*);
            let args = format!("{:?}", ($($arg,)*));
            $rows.push_str(&format!("{} {args}: {}\n", stringify!($method), hex(&a.code)));
        }};
    }

    #[test]
    fn encoder_rows_are_byte_for_byte_the_recorded_ones() {
        // One row per method × the operand classes that change the
        // encoding, recorded from the assembler of `jit/v4` (the integer
        // and control rows by the same calls, the layer rows by the raw
        // legacy/VEX sequences its templates spelled out at each site).
        let mut rows = String::new();
        for r in GPRS {
            // imm32 at both ends, imm64 just past them.
            for v in [0, -1, 0x7FFF_FFFF, -0x8000_0000, 0x8000_0000, i64::MIN] {
                row!(rows, mov_ri(r, v));
            }
            for imm in DISPS {
                row!(rows, add_ri(r, imm));
                row!(rows, cmp_ri(r, imm));
            }
            row!(rows, dec_r(r));
            row!(rows, push_r(r));
            row!(rows, pop_r(r));
            for s in GPRS {
                row!(rows, add_rr(r, s));
                row!(rows, sub_rr(r, s));
                row!(rows, imul_rr(r, s));
                row!(rows, cmp_rr(r, s));
                row!(rows, cmov_rr(CC_L, r, s));
                row!(rows, cmov_rr(CC_G, r, s));
            }
            for x in XMMS {
                row!(rows, cvtsi2sd(x, r));
                row!(rows, movq_xr(x, r));
            }
            for base in BASES {
                for disp in DISPS {
                    row!(rows, mov_rm(r, base, disp));
                }
            }
            for (base, disp) in FEW {
                row!(rows, mov_mr(base, disp, r));
                row!(rows, add_mr(base, disp, r));
            }
            for base in [RCX, R9, RBP, R13] {
                for index in [RAX, R15] {
                    for scale in [1, 4, 8] {
                        row!(rows, lea_sib(r, base, index, scale));
                    }
                }
            }
        }
        for (base, disp) in FEW {
            for imm in [1, -128, 128] {
                row!(rows, add_mi(base, disp, imm));
            }
            row!(rows, dec_m(base, disp));
        }
        row!(rows, ret());
        let mut a = Asm::new();
        let skip = a.jcc_fwd(CC_LE);
        let top = a.here();
        a.dec_r(R11);
        a.jcc_back(CC_NZ, top);
        a.land(skip);
        rows.push_str(&format!("jcc_fwd jcc_back land: {}\n", hex(&a.code)));
        for d in XMMS {
            for s in XMMS {
                row!(rows, movaps(d, s));
                row!(rows, cvtss2sd_rr(d, s));
                row!(rows, cvtsd2ss_rr(d, s));
            }
            row!(rows, round32(d));
        }
        // The vector layer: every width through every function, `dst == a`
        // and `dst != a`, low and extended registers, every memory class.
        let few = FEW.map(|(base, disp)| Mem::at(base, disp));
        let indexed = [RCX, R9, RBP, R13].map(|b| [RAX, R15].map(|i| Mem::indexed(b, i)));
        let operands = [
            (X1, X1, X2),
            (X1, X2, X3),
            (X(9), X(9), X1),
            (X1, X(9), X(10)),
            (X(10), X1, X(9)),
        ];
        for shape in [Shape::Scalar, Shape::Sse, Shape::Avx] {
            for w in [DType::F64, DType::F32].map(|dt| Width::new(dt, shape)) {
                for base in BASES {
                    for disp in DISPS {
                        row!(rows, vload(w, X1, Mem::at(base, disp)));
                    }
                }
                for x in XMMS {
                    for m in indexed.concat() {
                        row!(rows, vload(w, x, m));
                        row!(rows, vstore(w, m, x));
                    }
                    for m in few {
                        row!(rows, vload(w, x, m));
                        row!(rows, vstore(w, m, x));
                        if shape != Shape::Scalar {
                            row!(rows, bcast(w, x, m));
                        }
                    }
                }
                for (dst, x, y) in operands {
                    row!(rows, vmov(w, dst, y));
                    row!(rows, vop1(w, FSQRT, dst, y));
                    for op in [FADD, FMUL, arith(BinOp::Sub), arith(BinOp::Div)] {
                        row!(rows, vop_rr(w, op, dst, x, y));
                    }
                    for m in few {
                        row!(rows, vop_rm(w, FMUL, dst, x, m, Some(y)));
                    }
                }
                row!(rows, vend(w));
            }
        }
        assert_same_lines(&rows, include_str!("x86_64/goldens/asm.txt"));
    }
}
