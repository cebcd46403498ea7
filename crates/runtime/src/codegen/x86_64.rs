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
//! - Register files stay in memory (`iregs`/`fregs` arrays passed in
//!   `rdi`/`rsi`); each bytecode instruction lowers to a short template
//!   over scratch registers, so evaluation order is the VM's order.
//! - Float ops use scalar SSE2 (`mulsd`/`addsd`/`divsd`/`sqrtsd`),
//!   which are IEEE-correctly-rounded exactly like Rust's `f64` ops.
//!   `f32` rounding replicates the VM's `as f32 as f64` with
//!   `cvtsd2ss`/`cvtss2sd` pairs after each operation.
//! - Packed SIMD (`movupd`/`mulpd`/`addpd` f64x2, `movups`/`mulps`/
//!   `addps` f32x4, or their VEX-256 f64x4/f32x8 forms when AVX is
//!   detected) is used in three places, all remainder-safe via scalar
//!   epilogues and all gated on `TVM_JIT_SIMD` ([`X86Backend::simd`]):
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
//!   changes — and a dataflow scan ([`NestCompiler::plan_jam`]) proves
//!   the destination address and broadcast factor invariant before the
//!   jam fires. `f32`
//!   lanes compute natively in f32: the result is bit-identical to the
//!   VM's widen→op→round double rounding because products of 24-bit
//!   significands are exact in f64 and 53 ≥ 2·24+2 makes the double
//!   rounding innocuous for add/sub/div (Figueroa, 1995). The
//!   dot-product reduction pattern (`dst` stride 0) has a serial
//!   accumulation chain and always stays scalar, and every vector site
//!   is tallied packed-or-scalar-with-reason in
//!   [`super::SimdReport`].
//! - FMA (`vfmadd231pd`) rounds *once* where the VM rounds twice, so
//!   it is **not** bit-exact and is gated behind the off-by-default
//!   [`X86Backend::allow_fma`] option (never enabled on the engine
//!   ladder or the differential path).
//!
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

use super::exec_mem::ExecBuf;
use super::{CodegenBackend, JitProgram, SimdReport};
use crate::compile::{
    Block, Clamp, CompileError, CompiledFunc, Instr, Item, LoopKind, Reg, SlotAccess,
};
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

const X0: X = X(0);
const X1: X = X(1);
const X2: X = X(2);
const X3: X = X(3);
/// Scratch for packed strided-loop bodies (never mapped to a freg).
const XSCRATCH: X = X(15);

/// Condition code for `jcc`/`cmovcc` (low nibble of the `0F 8x`/`0F 4x`
/// opcode).
const CC_NZ: u8 = 0x5;
const CC_L: u8 = 0xC;
const CC_LE: u8 = 0xE;
const CC_G: u8 = 0xF;

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

    // ---- SSE scalar / packed ----

    /// Legacy-SSE op with a memory operand: `prefix 0F op /r [base+disp]`.
    fn sse_rm(&mut self, prefix: Option<u8>, op: u8, x: X, base: R, disp: i32) {
        if let Some(p) = prefix {
            self.b(p);
        }
        self.rex(false, x.0, 0, base.0);
        self.b(0x0F);
        self.b(op);
        self.mem(x.0, base, disp);
    }

    /// Legacy-SSE op with an indexed memory operand `[base + index*scale]`.
    fn sse_rm_sib(&mut self, prefix: Option<u8>, op: u8, x: X, base: R, index: R, scale: u8) {
        if let Some(p) = prefix {
            self.b(p);
        }
        self.rex(false, x.0, index.0, base.0);
        self.b(0x0F);
        self.b(op);
        self.mem_sib(x.0, base, index, scale);
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

    fn movsd_rm(&mut self, x: X, base: R, disp: i32) {
        self.sse_rm(Some(0xF2), 0x10, x, base, disp);
    }

    fn movsd_mr(&mut self, base: R, disp: i32, x: X) {
        self.sse_rm(Some(0xF2), 0x11, x, base, disp);
    }

    fn movss_rm(&mut self, x: X, base: R, disp: i32) {
        self.sse_rm(Some(0xF3), 0x10, x, base, disp);
    }

    fn movss_mr(&mut self, base: R, disp: i32, x: X) {
        self.sse_rm(Some(0xF3), 0x11, x, base, disp);
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

    /// Round an f64 in `x` through f32 (`as f32 as f64`).
    fn round32(&mut self, x: X) {
        self.cvtsd2ss_rr(x, x);
        self.cvtss2sd_rr(x, x);
    }

    // ---- VEX (AVX) ----

    /// 3-byte VEX prefix. `r`/`x`/`b` are the *full* register numbers
    /// (bit 3 is extracted), `mm` the opcode map (1=0F, 2=0F38),
    /// `pp` the mandatory-prefix code (0=none, 1=66, 2=F3, 3=F2).
    fn vex(&mut self, r: u8, xi: u8, b: u8, mm: u8, w: bool, vvvv: u8, l256: bool, pp: u8) {
        self.b(0xC4);
        self.b(((!(r >> 3) & 1) << 7) | ((!(xi >> 3) & 1) << 6) | ((!(b >> 3) & 1) << 5) | mm);
        self.b(((w as u8) << 7) | ((!vvvv & 0xF) << 3) | ((l256 as u8) << 2) | pp);
    }

    /// VEX op, `dst, vvvv_src, [base+disp]` (map 0F). `src1` is a plain
    /// register *number* (the helper 1's-complements it); pass 0 when the
    /// instruction ignores vvvv — that encodes the mandatory 1111.
    fn vex_rm(&mut self, pp: u8, op: u8, dst: X, src1: u8, base: R, disp: i32) {
        self.vex(dst.0, 0, base.0, 1, false, src1, true, pp);
        self.b(op);
        self.mem(dst.0, base, disp);
    }

    fn vex_rr(&mut self, pp: u8, op: u8, dst: X, src1: u8, src2: X) {
        self.vex(dst.0, 0, src2.0, 1, false, src1, true, pp);
        self.b(op);
        self.modrm_rr(dst.0, src2.0);
    }

    /// VEX op, `dst, vvvv_src, [base + index*scale]` (map 0F).
    fn vex_rm_sib(&mut self, pp: u8, op: u8, dst: X, src1: u8, base: R, index: R, scale: u8) {
        self.vex(dst.0, index.0, base.0, 1, false, src1, true, pp);
        self.b(op);
        self.mem_sib(dst.0, base, index, scale);
    }

    /// `vbroadcastsd/ss ymm, [base]` (map 0F38, W0).
    fn vbroadcast(&mut self, op: u8, dst: X, base: R) {
        self.vbroadcast_m(op, dst, base, 0);
    }

    /// `vbroadcastsd/ss ymm, [base+disp]` (map 0F38, W0).
    fn vbroadcast_m(&mut self, op: u8, dst: X, base: R, disp: i32) {
        self.vex(dst.0, 0, base.0, 2, false, 0, true, 1);
        self.b(op);
        self.mem(dst.0, base, disp);
    }

    /// `vfmadd231pd ymm_dst, ymm_src1, [base]`: dst = src1*mem + dst.
    fn vfmadd231pd_rm(&mut self, dst: X, src1: u8, base: R) {
        self.vex(dst.0, 0, base.0, 2, true, src1, true, 1);
        self.b(0xB8);
        self.mem(dst.0, base, 0);
    }

    fn vzeroupper(&mut self) {
        self.b(0xC5);
        self.b(0xF8);
        self.b(0x77);
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
            ..
        } => {
            if *extent < 1 {
                return reject("empty strided loop");
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
                let esize = if dts[acc.slot as usize] == DType::F64 { 8 } else { 4 };
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
    /// Emit packed-SIMD main loops at all (microkernels *and* proven
    /// vectorized strided loops). Off forces the fully scalar tier —
    /// bit-identical output, every vector site counted under the
    /// `simd-disabled` reason. Controlled by the `TVM_JIT_SIMD`
    /// environment variable in [`X86Backend::detect`] (default on).
    pub simd: bool,
    /// Use VEX-256 (4×f64 / 8×f32) vectors instead of SSE2 128-bit
    /// ones. Detected at construction.
    pub avx: bool,
    /// Allow single-rounded `vfmadd231pd` in f64 microkernels. **Not
    /// bit-exact** with the VM's two-rounding contract — off by
    /// default and never enabled on the differential or ladder paths.
    pub allow_fma: bool,
    /// FMA units present (gates `allow_fma` actually emitting FMA).
    pub fma_available: bool,
}

impl X86Backend {
    /// Detect host features; bit-exact defaults. `TVM_JIT_SIMD=0`
    /// forces the scalar tier.
    pub fn detect() -> X86Backend {
        X86Backend {
            simd: !matches!(
                std::env::var("TVM_JIT_SIMD").as_deref(),
                Ok("0") | Ok("false") | Ok("off")
            ),
            avx: std::arch::is_x86_feature_detected!("avx"),
            allow_fma: false,
            fma_available: std::arch::is_x86_feature_detected!("fma"),
        }
    }

    /// SSE2-only variant (what a pre-AVX host would produce); used by
    /// tests to cover both vector paths on one machine.
    pub fn sse2_only() -> X86Backend {
        X86Backend {
            simd: true,
            avx: false,
            allow_fma: false,
            fma_available: false,
        }
    }

    /// Fully scalar variant (the `TVM_JIT_SIMD=0` tier, pinned
    /// programmatically); used by tests and the bench binaries to
    /// measure the packed tier's speedup on one machine.
    pub fn scalar_only() -> X86Backend {
        X86Backend {
            simd: false,
            ..X86Backend::detect()
        }
    }

    /// `(f64, f32)` packed lane widths this configuration emits.
    fn lanes(&self) -> (u32, u32) {
        if !self.simd {
            (1, 1)
        } else if self.avx {
            (4, 8)
        } else {
            (2, 4)
        }
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
        };
        Ok(CompiledFunc {
            body,
            jit: Some(Arc::new(program)),
            ..cf.clone()
        })
    }

    fn vector_widths(&self) -> (u32, u32) {
        self.lanes()
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
/// Accumulator registers for the jammed j-trip (X6/X8/X10/X12).
const JAM_ACC: [X; JAM_U] = [X(6), X(8), X(10), X(12)];
/// Product scratch registers paired with [`JAM_ACC`] (X7/X9/X11/X13).
const JAM_SCR: [X; JAM_U] = [X(7), X(9), X(11), X(13)];

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
    /// f64 (pd) vs native-f32 (ps) mode.
    f64m: bool,
    /// Packed lane count for this mode.
    lanes: i64,
    /// The microkernel's ("j") trip count (≥ `lanes`).
    extent: i64,
}

/// Validated vectorization plan for one proven `StridedLoop` body.
struct PackedPlan {
    /// f64 (pd, 2/4 lanes) vs native-f32 (ps, 4/8 lanes) mode.
    f64m: bool,
    /// Emitted lane count (AVX doubles the planner's base width).
    lanes: i64,
    /// freg → xmm assignment (X0..X14; X15 stays scratch).
    xmap: HashMap<Reg, X>,
    /// Pre-loop invariant broadcasts, in first-use order.
    inv: Vec<InvSrc>,
    /// fregs whose defining instruction was hoisted (consts and
    /// stride-0 loads): skipped in the packed body.
    hoisted: HashSet<Reg>,
}

impl NestCompiler<'_> {
    fn emit_item(&mut self, item: &Item) {
        match item {
            Item::Code(c) => c.iter().for_each(|i| self.emit_instr(i)),
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
                if let Some(plan) = self.plan_jam(item) {
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
                kind,
                lanes,
            } => {
                pre.iter().for_each(|i| self.emit_instr(i));
                if !clamp.is_none() {
                    // Packed and jammed plans split a static extent into
                    // main loop and epilogue; a trimmed loop's trip
                    // count is only known at loop entry.
                    self.simd.scalar("dynamic-extent");
                    self.emit_trimmed_strided(*min, *extent, *clamp, bumps, body);
                    return;
                }
                match self.plan_packed(*extent, bumps, body, kind, *lanes) {
                    Ok(plan) => {
                        self.simd.packed(false);
                        self.emit_packed_strided(*extent, bumps, body, &plan);
                    }
                    Err(reason) => {
                        self.simd.scalar(reason);
                        self.emit_scalar_strided(*extent, bumps, body);
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
                pre.iter().for_each(|i| self.emit_instr(i));
                self.emit_muladd(*extent, dst, a, b, *round32);
            }
            // Checked away before codegen.
            Item::If { .. } | Item::JitCall { .. } => unreachable!("rejected by check_item"),
        }
    }

    fn emit_instr(&mut self, i: &Instr) {
        let a = &mut *self.asm;
        match *i {
            Instr::IConst(d, v) => {
                a.mov_ri(RAX, v);
                a.mov_mr(RDI, off(d), RAX);
            }
            Instr::FConst(d, v) => {
                a.mov_ri(RAX, v.to_bits() as i64);
                a.mov_mr(RSI, off(d), RAX);
            }
            Instr::IToF(d, s) => {
                a.mov_rm(RAX, RDI, off(s));
                a.cvtsi2sd(X0, RAX);
                a.movsd_mr(RSI, off(d), X0);
            }
            Instr::IToF32(d, s) => {
                a.mov_rm(RAX, RDI, off(s));
                a.cvtsi2sd(X0, RAX);
                a.round32(X0);
                a.movsd_mr(RSI, off(d), X0);
            }
            Instr::F32Round(d, s) => {
                a.movsd_rm(X0, RSI, off(s));
                a.round32(X0);
                a.movsd_mr(RSI, off(d), X0);
            }
            Instr::IBin(op, d, x, y) => {
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
                let r32 = matches!(i, Instr::FBin32(..));
                a.movsd_rm(X0, RSI, off(x));
                let opc = match op {
                    BinOp::Add => 0x58,
                    BinOp::Mul => 0x59,
                    BinOp::Sub => 0x5C,
                    BinOp::Div => 0x5E,
                    _ => unreachable!("rejected by check_instr"),
                };
                a.sse_rm(Some(0xF2), opc, X0, RSI, off(y));
                if r32 {
                    a.round32(X0);
                }
                a.movsd_mr(RSI, off(d), X0);
            }
            Instr::FMulAdd {
                dst,
                add,
                a: fa,
                b: fb,
                round32,
            } => {
                a.movsd_rm(X0, RSI, off(fa));
                a.sse_rm(Some(0xF2), 0x59, X0, RSI, off(fb)); // mulsd
                if round32 {
                    a.round32(X0);
                }
                a.movsd_rm(X1, RSI, off(add));
                a.sse_rr(Some(0xF2), 0x58, X1, X0); // addsd: add + m
                if round32 {
                    a.round32(X1);
                }
                a.movsd_mr(RSI, off(dst), X1);
            }
            Instr::Call1(Intrinsic::Sqrt, d, x, round) => {
                a.movsd_rm(X0, RSI, off(x));
                a.sse_rr(Some(0xF2), 0x51, X0, X0); // sqrtsd
                if round {
                    a.round32(X0);
                }
                a.movsd_mr(RSI, off(d), X0);
            }
            Instr::Load(d, slot, addr) => {
                a.mov_rm(RAX, RDI, off(addr));
                a.mov_rm(RCX, RDX, (slot as i32) * 8);
                if self.dts[slot as usize] == DType::F64 {
                    a.sse_rm_sib(Some(0xF2), 0x10, X0, RCX, RAX, 8); // movsd
                } else {
                    a.sse_rm_sib(Some(0xF3), 0x10, X0, RCX, RAX, 4); // movss
                    a.cvtss2sd_rr(X0, X0);
                }
                a.movsd_mr(RSI, off(d), X0);
            }
            Instr::Store(slot, addr, val) => {
                a.mov_rm(RAX, RDI, off(addr));
                a.mov_rm(RCX, RDX, (slot as i32) * 8);
                a.movsd_rm(X0, RSI, off(val));
                if self.dts[slot as usize] == DType::F64 {
                    a.sse_rm_sib(Some(0xF2), 0x11, X0, RCX, RAX, 8);
                } else {
                    a.cvtsd2ss_rr(X0, X0);
                    a.sse_rm_sib(Some(0xF3), 0x11, X0, RCX, RAX, 4);
                }
            }
            _ => unreachable!("rejected by check_instr"),
        }
    }

    /// The scalar strided-loop template (also the packed path's tail:
    /// after the packed main loop the strided registers sit exactly
    /// `vec_iters·lanes` iterations in, so this continues bit-for-bit).
    fn emit_scalar_strided(&mut self, extent: i64, bumps: &[(Reg, i64)], body: &[Instr]) {
        self.asm.mov_ri(R11, extent);
        self.emit_strided_trips(bumps, body);
    }

    /// The loop of the scalar strided template: `R11` holds the trip
    /// count (≥ 1), an immediate for a static loop, computed at loop
    /// entry for a trimmed one.
    fn emit_strided_trips(&mut self, bumps: &[(Reg, i64)], body: &[Instr]) {
        let top = self.asm.here();
        body.iter().for_each(|i| self.emit_instr(i));
        self.emit_bumps(bumps, 1);
        self.asm.dec_r(R11);
        self.asm.jcc_back(CC_NZ, top);
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
        self.emit_strided_trips(bumps, body);
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

    /// Decide whether a strided-loop body can run packed, and how. The
    /// `Err` string is the per-reason scalar-fallback tag tallied in
    /// [`SimdReport`]; together with the packed count these partition
    /// every strided vector site.
    fn plan_packed(
        &self,
        extent: i64,
        bumps: &[(Reg, i64)],
        body: &[Instr],
        kind: &LoopKind,
        planned: u8,
    ) -> Result<PackedPlan, &'static str> {
        if !self.opts.simd {
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
                let dt = self.dts[*slot as usize];
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
        let f64m = dt == DType::F64;
        let base: i64 = if f64m { 2 } else { 4 };
        let lanes = if self.opts.avx { base * 2 } else { base };
        if extent < lanes {
            return Err("short-extent");
        }
        if i64::from(planned) < base {
            // The block optimizer plans the base vector width on every
            // strided item; disagreeing here would mean the item was
            // built outside `compile_optimized`.
            return Err("planner-scalar");
        }
        for &(_, s) in bumps {
            if s.checked_mul(lanes).is_none() {
                return Err("stride-overflow");
            }
        }
        let strides: HashMap<Reg, i64> = bumps.iter().copied().collect();
        let mut plan = PackedPlan {
            f64m,
            lanes,
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

    /// Broadcast the scalar at `[base+disp]` across every lane of `x`.
    fn bcast(&mut self, f64m: bool, x: X, base: R, disp: i32) {
        if self.opts.avx {
            self.asm
                .vbroadcast_m(if f64m { 0x19 } else { 0x18 }, x, base, disp);
        } else if f64m {
            self.asm.movsd_rm(x, base, disp);
            self.asm.sse_rr(Some(0x66), 0x14, x, x); // unpcklpd
        } else {
            self.asm.movss_rm(x, base, disp);
            self.asm.sse_rr(None, 0xC6, x, x); // shufps x,x,0
            self.asm.b(0x00);
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
        let f64m = plan.f64m;
        let esize: u8 = if f64m { 8 } else { 4 };
        let pp: u8 = if f64m { 1 } else { 0 };
        let sse_p: Option<u8> = if f64m { Some(0x66) } else { None };
        let vec_iters = extent / plan.lanes;
        let tail = extent % plan.lanes;
        for src in &plan.inv {
            match *src {
                InvSrc::Const { dst, v } => {
                    let bits = if f64m {
                        v.to_bits() as i64
                    } else {
                        i64::from((v as f32).to_bits())
                    };
                    // Materialise through the destination freg's slot:
                    // post-loop register state is unobservable and the
                    // scalar epilogue re-executes the `FConst` first.
                    self.asm.mov_ri(RAX, bits);
                    self.asm.mov_mr(RSI, off(dst), RAX);
                    self.bcast(f64m, plan.xmap[&dst], RSI, off(dst));
                }
                InvSrc::Freg(r) => self.bcast(f64m, plan.xmap[&r], RSI, off(r)),
                InvSrc::Load { dst, slot, addr } => {
                    self.asm.mov_rm(RAX, RDI, off(addr));
                    self.asm.mov_rm(RCX, RDX, (slot as i32) * 8);
                    self.asm.lea_sib(RAX, RCX, RAX, esize);
                    self.bcast(f64m, plan.xmap[&dst], RAX, 0);
                }
            }
        }
        self.asm.mov_ri(R11, vec_iters);
        let top = self.asm.here();
        for i in body {
            self.emit_packed_instr(i, plan, pp, sse_p, esize);
        }
        self.emit_bumps(bumps, plan.lanes);
        self.asm.dec_r(R11);
        self.asm.jcc_back(CC_NZ, top);
        if self.opts.avx {
            self.asm.vzeroupper();
        }
        if tail > 0 {
            self.emit_scalar_strided(tail, bumps, body);
        }
    }

    /// One body instruction at full vector width (see
    /// [`NestCompiler::emit_packed_strided`] for the lane contract).
    fn emit_packed_instr(
        &mut self,
        i: &Instr,
        plan: &PackedPlan,
        pp: u8,
        sse_p: Option<u8>,
        esize: u8,
    ) {
        let x = |r: Reg| plan.xmap[&r];
        match *i {
            // Hoisted to a pre-loop broadcast.
            Instr::FConst(..) => {}
            Instr::Load(d, slot, addr) => {
                if plan.hoisted.contains(&d) {
                    return; // stride-0: broadcast pre-loop
                }
                self.asm.mov_rm(RAX, RDI, off(addr));
                self.asm.mov_rm(RCX, RDX, (slot as i32) * 8);
                if self.opts.avx {
                    self.asm.vex_rm_sib(pp, 0x10, x(d), 0, RCX, RAX, esize);
                } else {
                    self.asm.sse_rm_sib(sse_p, 0x10, x(d), RCX, RAX, esize);
                }
            }
            Instr::Store(slot, addr, val) => {
                self.asm.mov_rm(RAX, RDI, off(addr));
                self.asm.mov_rm(RCX, RDX, (slot as i32) * 8);
                if self.opts.avx {
                    self.asm.vex_rm_sib(pp, 0x11, x(val), 0, RCX, RAX, esize);
                } else {
                    self.asm.sse_rm_sib(sse_p, 0x11, x(val), RCX, RAX, esize);
                }
            }
            Instr::FBin(op, d, a, b) | Instr::FBin32(op, d, a, b) => {
                let opc = match op {
                    BinOp::Add => 0x58,
                    BinOp::Mul => 0x59,
                    BinOp::Sub => 0x5C,
                    BinOp::Div => 0x5E,
                    _ => unreachable!("rejected by plan_packed"),
                };
                if self.opts.avx {
                    self.asm.vex_rr(pp, opc, x(d), x(a).0, x(b));
                } else {
                    // `d` is single-assignment-fresh, so distinct from
                    // `a`/`b`: a movap*-then-op pair is safe.
                    self.asm.sse_rr(sse_p, 0x28, x(d), x(a));
                    self.asm.sse_rr(sse_p, opc, x(d), x(b));
                }
            }
            Instr::FMulAdd { dst, add, a, b, .. } => {
                if self.opts.avx {
                    self.asm.vex_rr(pp, 0x59, XSCRATCH, x(a).0, x(b));
                    self.asm.vex_rr(pp, 0x58, x(dst), x(add).0, XSCRATCH);
                } else {
                    self.asm.sse_rr(sse_p, 0x28, XSCRATCH, x(a));
                    self.asm.sse_rr(sse_p, 0x59, XSCRATCH, x(b));
                    self.asm.sse_rr(sse_p, 0x28, x(dst), x(add));
                    self.asm.sse_rr(sse_p, 0x58, x(dst), XSCRATCH);
                }
            }
            Instr::F32Round(d, s) => {
                // Native-f32 lanes are already rounded: a plain copy.
                if self.opts.avx {
                    self.asm.vex_rr(pp, 0x28, x(d), 0, x(s));
                } else {
                    self.asm.sse_rr(sse_p, 0x28, x(d), x(s));
                }
            }
            Instr::Call1(Intrinsic::Sqrt, d, s, _) => {
                if self.opts.avx {
                    self.asm.vex_rr(pp, 0x51, x(d), 0, x(s));
                } else {
                    self.asm.sse_rr(sse_p, 0x51, x(d), x(s));
                }
            }
            _ => unreachable!("rejected by plan_packed"),
        }
    }

    /// Materialise the three element pointers of a microkernel into
    /// `r8` (dst), `r9` (a), `r10` (b).
    fn muladd_pointers(&mut self, dst: &SlotAccess, sa: &SlotAccess, sb: &SlotAccess) {
        for (acc, preg) in [(dst, R8), (sa, R9), (sb, R10)] {
            let esize = if self.dts[acc.slot as usize] == DType::F64 { 8 } else { 4 };
            self.asm.mov_rm(RAX, RDI, off(acc.addr));
            self.asm.mov_rm(preg, RDX, (acc.slot as i32) * 8);
            self.asm.lea_sib(preg, preg, RAX, esize);
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
        let dt = self.dts[dst.slot as usize];
        let uniform = self.dts[sa.slot as usize] == dt && self.dts[sb.slot as usize] == dt;
        let matched_rounding =
            (dt == DType::F64 && !round32) || (dt == DType::F32 && round32);
        let disjoint = dst.slot != sa.slot && dst.slot != sb.slot;
        let fast = uniform && matched_rounding && disjoint;
        let strides = (dst.stride, sa.stride, sb.stride);
        if fast && strides.0 == 0 && strides.1 == 1 && strides.2 == 1 {
            // Serial accumulation order is observable: always scalar.
            self.simd.scalar("reduction-chain");
            self.muladd_reduction(extent, dt);
            return;
        }
        if fast && matches!(strides, (1, 0, 1) | (1, 1, 0) | (1, 1, 1)) {
            self.muladd_parallel(extent, dt, strides);
            return;
        }
        self.simd.scalar(if !uniform {
            "mixed-dtype"
        } else if !matched_rounding {
            "rounding-mismatch"
        } else if !disjoint {
            "aliased-dst"
        } else {
            "stride-pattern"
        });
        self.muladd_generic(extent, dst, sa, sb, round32);
    }

    /// Dot-product pattern `(sd, sa, sb) = (0, 1, 1)`: a single serial
    /// accumulator chain, kept scalar to preserve accumulation order.
    fn muladd_reduction(&mut self, extent: i64, dt: DType) {
        let a = &mut *self.asm;
        let (mov_rm, mov_mr, mul, add, step): (
            fn(&mut Asm, X, R, i32),
            fn(&mut Asm, R, i32, X),
            u8,
            u8,
            i32,
        ) = if dt == DType::F64 {
            (Asm::movsd_rm, Asm::movsd_mr, 0x59, 0x58, 8)
        } else {
            (Asm::movss_rm, Asm::movss_mr, 0x59, 0x58, 4)
        };
        let p = if dt == DType::F64 { Some(0xF2) } else { Some(0xF3) };
        mov_rm(a, X1, R8, 0); // acc = dst[d0]
        a.mov_ri(R11, extent);
        let top = a.here();
        mov_rm(a, X0, R9, 0);
        a.sse_rm(p, mul, X0, R10, 0); // x * y
        a.sse_rr(p, add, X1, X0); // acc += m
        a.add_ri(R9, step);
        a.add_ri(R10, step);
        a.dec_r(R11);
        a.jcc_back(CC_NZ, top);
        mov_mr(a, R8, 0, X1);
    }

    /// Parallel patterns `(1,0,1)`, `(1,1,0)`, `(1,1,1)`: every element
    /// is an independent multiply+add, so lane-splitting preserves
    /// per-element rounding exactly — vectorize with AVX-256 when
    /// available, SSE2 128-bit otherwise, scalar tail. When at least
    /// four packed iterations remain, a register-tiled 4× unroll-and-jam
    /// main loop runs first: four accumulator blocks in distinct
    /// registers per trip, amortising the loop overhead and letting the
    /// independent mul/add chains overlap. Elements stay independent
    /// with per-element rounding, so tiling is bit-neutral.
    fn muladd_parallel(&mut self, extent: i64, dt: DType, strides: (i64, i64, i64)) {
        let f64p = dt == DType::F64;
        let esize: i32 = if f64p { 8 } else { 4 };
        let lanes: i64 = if self.opts.avx {
            if f64p { 4 } else { 8 }
        } else if f64p {
            2
        } else {
            4
        };
        // `TVM_JIT_SIMD=0` forces the (bit-identical) scalar tail to
        // carry every iteration.
        let (vec_iters, tail) = if self.opts.simd {
            (extent / lanes, extent % lanes)
        } else {
            (0, extent)
        };
        let pp: u8 = if f64p { 1 } else { 0 }; // VEX pp for pd/ps
        let sse_p: Option<u8> = if f64p { Some(0x66) } else { None };
        let fma = self.opts.allow_fma && self.opts.fma_available && self.opts.avx && f64p;
        // Register tiling keeps the plain mul+add pipeline; the FMA
        // variant stays on the single-vector loop.
        let blocks = if fma { 0 } else { vec_iters / 4 };
        let single = vec_iters - blocks * 4;
        if self.opts.simd {
            self.simd.packed(blocks > 0);
        } else {
            self.simd.scalar("simd-disabled");
        }
        if vec_iters > 0 {
            // Broadcast the loop-invariant factor once (X2).
            match strides {
                (1, 0, 1) | (1, 1, 0) => {
                    let inv = if strides.1 == 0 { R9 } else { R10 };
                    if self.opts.avx {
                        self.asm.vbroadcast(if f64p { 0x19 } else { 0x18 }, X2, inv);
                    } else if f64p {
                        self.asm.movsd_rm(X2, inv, 0);
                        self.asm.sse_rr(Some(0x66), 0x14, X2, X2); // unpcklpd
                    } else {
                        self.asm.movss_rm(X2, inv, 0);
                        self.asm.sse_rr(None, 0xC6, X2, X2); // shufps x2,x2,0
                        self.asm.b(0x00);
                    }
                }
                _ => {}
            }
        }
        let vstep = (lanes as i32) * esize;
        if blocks > 0 {
            self.asm.mov_ri(R11, blocks);
            let top = self.asm.here();
            // Products first (X4..X7), in the multiply's operand order.
            for k in 0..4i32 {
                let m = X(4 + k as u8);
                let disp = k * vstep;
                match strides {
                    (1, 0, 1) => {
                        if self.opts.avx {
                            self.asm.vex_rm(pp, 0x59, m, X2.0, R10, disp);
                        } else {
                            self.asm.sse_rr(sse_p, 0x28, m, X2);
                            self.asm.sse_rm(sse_p, 0x10, X3, R10, disp);
                            self.asm.sse_rr(sse_p, 0x59, m, X3);
                        }
                    }
                    (1, 1, 0) => {
                        if self.opts.avx {
                            self.asm.vex_rm(pp, 0x10, m, 0, R9, disp);
                            self.asm.vex_rr(pp, 0x59, m, m.0, X2);
                        } else {
                            self.asm.sse_rm(sse_p, 0x10, m, R9, disp);
                            self.asm.sse_rr(sse_p, 0x59, m, X2);
                        }
                    }
                    _ => {
                        if self.opts.avx {
                            self.asm.vex_rm(pp, 0x10, m, 0, R9, disp);
                            self.asm.vex_rm(pp, 0x59, m, m.0, R10, disp);
                        } else {
                            self.asm.sse_rm(sse_p, 0x10, m, R9, disp);
                            self.asm.sse_rm(sse_p, 0x10, X3, R10, disp);
                            self.asm.sse_rr(sse_p, 0x59, m, X3);
                        }
                    }
                }
            }
            // Then the four dst accumulator blocks (X8..X11).
            for k in 0..4i32 {
                let (m, d) = (X(4 + k as u8), X(8 + k as u8));
                let disp = k * vstep;
                if self.opts.avx {
                    self.asm.vex_rm(pp, 0x10, d, 0, R8, disp);
                    self.asm.vex_rr(pp, 0x58, d, d.0, m);
                    self.asm.vex_rm(pp, 0x11, d, 0, R8, disp);
                } else {
                    self.asm.sse_rm(sse_p, 0x10, d, R8, disp);
                    self.asm.sse_rr(sse_p, 0x58, d, m);
                    self.asm.sse_rm(sse_p, 0x11, d, R8, disp);
                }
            }
            self.asm.add_ri(R8, 4 * vstep);
            if strides.1 == 1 {
                self.asm.add_ri(R9, 4 * vstep);
            }
            if strides.2 == 1 {
                self.asm.add_ri(R10, 4 * vstep);
            }
            self.asm.dec_r(R11);
            self.asm.jcc_back(CC_NZ, top);
        }
        if single > 0 {
            self.asm.mov_ri(R11, single);
            let top = self.asm.here();
            // X0 = a * b in the multiply's operand order.
            match strides {
                (1, 0, 1) => {
                    // x = a (invariant), y = b[i]. Legacy-SSE arithmetic
                    // requires aligned memory operands, so go through an
                    // unaligned movup* into a scratch register.
                    if self.opts.avx {
                        self.asm.vex_rm(pp, 0x59, X0, X2.0, R10, 0);
                    } else {
                        self.asm.sse_rr(sse_p, 0x28, X0, X2); // movap* x0, x2
                        self.asm.sse_rm(sse_p, 0x10, X3, R10, 0);
                        self.asm.sse_rr(sse_p, 0x59, X0, X3);
                    }
                }
                (1, 1, 0) => {
                    // x = a[i], y = b (invariant)
                    if self.opts.avx {
                        self.asm.vex_rm(pp, 0x10, X0, 0, R9, 0); // vmovup*
                        self.asm.vex_rr(pp, 0x59, X0, X0.0, X2);
                    } else {
                        self.asm.sse_rm(sse_p, 0x10, X0, R9, 0); // movup*
                        self.asm.sse_rr(sse_p, 0x59, X0, X2);
                    }
                }
                _ => {
                    // (1,1,1): x = a[i], y = b[i]
                    if self.opts.avx {
                        self.asm.vex_rm(pp, 0x10, X0, 0, R9, 0);
                        self.asm.vex_rm(pp, 0x59, X0, X0.0, R10, 0);
                    } else {
                        self.asm.sse_rm(sse_p, 0x10, X0, R9, 0);
                        self.asm.sse_rm(sse_p, 0x10, X3, R10, 0);
                        self.asm.sse_rr(sse_p, 0x59, X0, X3);
                    }
                }
            }
            if fma && strides == (1, 0, 1) {
                // dst += a*b single-rounded (opt-in, not bit-exact):
                // reload dst and fuse instead of the mul+add pair.
                self.asm.vex_rm(pp, 0x10, X1, 0, R8, 0);
                self.asm.vfmadd231pd_rm(X1, X2.0, R10);
            } else if self.opts.avx {
                self.asm.vex_rm(pp, 0x10, X1, 0, R8, 0);
                self.asm.vex_rr(pp, 0x58, X1, X1.0, X0); // dst + m
            } else {
                self.asm.sse_rm(sse_p, 0x10, X1, R8, 0);
                self.asm.sse_rr(sse_p, 0x58, X1, X0);
            }
            if self.opts.avx {
                self.asm.vex_rm(pp, 0x11, X1, 0, R8, 0);
            } else {
                self.asm.sse_rm(sse_p, 0x11, X1, R8, 0);
            }
            self.asm.add_ri(R8, vstep);
            if strides.1 == 1 {
                self.asm.add_ri(R9, vstep);
            }
            if strides.2 == 1 {
                self.asm.add_ri(R10, vstep);
            }
            self.asm.dec_r(R11);
            self.asm.jcc_back(CC_NZ, top);
        }
        if vec_iters > 0 && self.opts.avx {
            self.asm.vzeroupper();
        }
        if tail > 0 {
            let p: Option<u8> = if f64p { Some(0xF2) } else { Some(0xF3) };
            self.asm.mov_ri(R11, tail);
            let top = self.asm.here();
            // Scalar per-element op in native precision (bit-exact for
            // both f64 and — via Figueroa double-rounding innocuity —
            // native f32).
            if f64p {
                self.asm.movsd_rm(X0, R9, 0);
            } else {
                self.asm.movss_rm(X0, R9, 0);
            }
            self.asm.sse_rm(p, 0x59, X0, R10, 0);
            if f64p {
                self.asm.movsd_rm(X1, R8, 0);
            } else {
                self.asm.movss_rm(X1, R8, 0);
            }
            self.asm.sse_rr(p, 0x58, X1, X0);
            if f64p {
                self.asm.movsd_mr(R8, 0, X1);
            } else {
                self.asm.movss_mr(R8, 0, X1);
            }
            self.asm.add_ri(R8, esize);
            if strides.1 == 1 {
                self.asm.add_ri(R9, esize);
            }
            if strides.2 == 1 {
                self.asm.add_ri(R10, esize);
            }
            self.asm.dec_r(R11);
            self.asm.jcc_back(CC_NZ, top);
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
    /// - body is exactly `[Code?, MulAddLoop]` with parallel stride
    ///   pattern `(1,0,1)` or `(1,1,0)`, uniform dtype, matched
    ///   rounding, and a destination slot distinct from both factors;
    /// - the address code is memory-free (pure register arithmetic),
    ///   so running four iterations' worth up front has no observable
    ///   effect beyond the register file, which sees the exact scalar
    ///   write sequence;
    /// - it never writes the loop variable (the jam advances it);
    /// - a dataflow pass proves `dst.addr` independent of `k`,
    ///   treating loop-carried register reads as varying.
    fn plan_jam<'p>(&self, item: &'p Item) -> Option<JamPlan<'p>> {
        if !self.opts.simd || self.opts.allow_fma {
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
        let dt = self.dts[dst.slot as usize];
        if self.dts[a.slot as usize] != dt || self.dts[b.slot as usize] != dt {
            return None;
        }
        let f64m = dt == DType::F64;
        if f64m == *round32 {
            return None;
        }
        if dst.slot == a.slot || dst.slot == b.slot {
            return None;
        }
        let (inv, vec, inv_first) = match (dst.stride, a.stride, b.stride) {
            (1, 0, 1) => (*a, *b, true),
            (1, 1, 0) => (*b, *a, false),
            _ => return None,
        };
        let lanes: i64 = if self.opts.avx {
            if f64m {
                4
            } else {
                8
            }
        } else if f64m {
            2
        } else {
            4
        };
        if *extent < lanes {
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
            f64m,
            lanes,
            extent: *extent,
        })
    }

    /// Emit `m ← inv_k · vec_k[j..]` (packed, operand order preserved)
    /// into `scr`, then `acc ← acc + m`.
    fn jam_step(&mut self, plan: &JamPlan, jk: usize, bptr: R, disp: i32, acc: X, scr: X) {
        let pp: u8 = if plan.f64m { 1 } else { 0 };
        let sse_p: Option<u8> = if plan.f64m { Some(0x66) } else { None };
        let bc = X(2 + jk as u8);
        if self.opts.avx {
            if plan.inv_first {
                self.asm.vex_rm(pp, 0x59, scr, bc.0, bptr, disp);
            } else {
                self.asm.vex_rm(pp, 0x10, scr, 0, bptr, disp);
                self.asm.vex_rr(pp, 0x59, scr, scr.0, bc);
            }
            self.asm.vex_rr(pp, 0x58, acc, acc.0, scr);
        } else {
            // Legacy-SSE arithmetic needs aligned memory operands, so
            // the stride-1 factor goes through an unaligned movup*.
            if plan.inv_first {
                self.asm.sse_rr(sse_p, 0x28, scr, bc);
                self.asm.sse_rm(sse_p, 0x10, XSCRATCH, bptr, disp);
                self.asm.sse_rr(sse_p, 0x59, scr, XSCRATCH);
            } else {
                self.asm.sse_rm(sse_p, 0x10, scr, bptr, disp);
                self.asm.sse_rr(sse_p, 0x59, scr, bc);
            }
            self.asm.sse_rr(sse_p, 0x58, acc, scr);
        }
    }

    /// The jammed microkernel (see [`NestCompiler::plan_jam`] for the
    /// shape and its proof obligations). Per group of [`JAM`] `k`
    /// iterations: run each iteration's address code in scalar order
    /// (loop variable advanced exactly as the plain template would),
    /// broadcast its stride-0 factor into `X2..X5`, stack its stride-1
    /// pointer, then sweep `j` once — [`JAM_U`] destination vectors per
    /// trip ([`JAM_ACC`]), each receiving the four products in `k`
    /// order, stored once. Leftover vectors and the scalar tail keep
    /// the same per-element `k` sequence.
    fn emit_jammed(&mut self, plan: &JamPlan) {
        let f64m = plan.f64m;
        let esize: u8 = if f64m { 8 } else { 4 };
        let pp: u8 = if f64m { 1 } else { 0 };
        let sse_p: Option<u8> = if f64m { Some(0x66) } else { None };
        let p_sc: Option<u8> = if f64m { Some(0xF2) } else { Some(0xF3) };
        let groups = plan.kextent / JAM;
        let vstep = (plan.lanes as i32) * i32::from(esize);
        let jvecs = plan.extent / plan.lanes;
        let jtrips = jvecs / JAM_U as i64;
        let jsingle = (jvecs % JAM_U as i64) as usize;
        let jtail = plan.extent % plan.lanes;
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
        for jk in 0..JAM as usize {
            // This k's address code, exactly as the scalar loop runs it
            // (pure register arithmetic: only RAX/RCX/X0/X1 scratch).
            for i in plan.code {
                self.emit_instr(i);
            }
            for i in plan.pre {
                self.emit_instr(i);
            }
            if jk == 0 {
                // Destination row pointer: k-invariant per the plan.
                self.asm.mov_rm(RAX, RDI, off(plan.dst.addr));
                self.asm.mov_rm(R8, RDX, (plan.dst.slot as i32) * 8);
                self.asm.lea_sib(R8, R8, RAX, esize);
            }
            self.asm.mov_rm(RAX, RDI, off(plan.inv.addr));
            self.asm.mov_rm(RCX, RDX, (plan.inv.slot as i32) * 8);
            self.asm.lea_sib(RAX, RCX, RAX, esize);
            self.bcast(f64m, X(2 + jk as u8), RAX, 0);
            self.asm.mov_rm(RAX, RDI, off(plan.vec.addr));
            self.asm.mov_rm(RCX, RDX, (plan.vec.slot as i32) * 8);
            self.asm.lea_sib(RAX, RCX, RAX, esize);
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
        if jtrips > 0 {
            self.asm.mov_ri(R11, jtrips);
            let top = self.asm.here();
            for (u, acc) in JAM_ACC.iter().enumerate() {
                let disp = u as i32 * vstep;
                if self.opts.avx {
                    self.asm.vex_rm(pp, 0x10, *acc, 0, R8, disp);
                } else {
                    self.asm.sse_rm(sse_p, 0x10, *acc, R8, disp);
                }
            }
            for jk in 0..JAM as usize {
                for u in 0..JAM_U {
                    self.jam_step(plan, jk, bp[jk], u as i32 * vstep, JAM_ACC[u], JAM_SCR[u]);
                }
            }
            for (u, acc) in JAM_ACC.iter().enumerate() {
                let disp = u as i32 * vstep;
                if self.opts.avx {
                    self.asm.vex_rm(pp, 0x11, *acc, 0, R8, disp);
                } else {
                    self.asm.sse_rm(sse_p, 0x11, *acc, R8, disp);
                }
            }
            self.asm.add_ri(R8, JAM_U as i32 * vstep);
            for r in bp {
                self.asm.add_ri(r, JAM_U as i32 * vstep);
            }
            self.asm.dec_r(R11);
            self.asm.jcc_back(CC_NZ, top);
        }
        for _ in 0..jsingle {
            if self.opts.avx {
                self.asm.vex_rm(pp, 0x10, JAM_ACC[0], 0, R8, 0);
            } else {
                self.asm.sse_rm(sse_p, 0x10, JAM_ACC[0], R8, 0);
            }
            for jk in 0..JAM as usize {
                self.jam_step(plan, jk, bp[jk], 0, JAM_ACC[0], JAM_SCR[0]);
            }
            if self.opts.avx {
                self.asm.vex_rm(pp, 0x11, JAM_ACC[0], 0, R8, 0);
            } else {
                self.asm.sse_rm(sse_p, 0x11, JAM_ACC[0], R8, 0);
            }
            self.asm.add_ri(R8, vstep);
            for r in bp {
                self.asm.add_ri(r, vstep);
            }
        }
        if jtail > 0 {
            if self.opts.avx {
                // Keep the low-lane scalar tail out of dirty-upper
                // stalls; the next group rebroadcasts X2..X5 anyway.
                self.asm.vzeroupper();
            }
            self.asm.mov_ri(R11, jtail);
            let top = self.asm.here();
            if f64m {
                self.asm.movsd_rm(X0, R8, 0);
            } else {
                self.asm.movss_rm(X0, R8, 0);
            }
            for (jk, bptr) in bp.iter().enumerate() {
                let bc = X(2 + jk as u8);
                // m = inv·vec[j] in operand order (low lane of the
                // broadcast), then d = d + m — per-op rounding intact.
                if plan.inv_first {
                    self.asm.sse_rr(sse_p, 0x28, X1, bc);
                    self.asm.sse_rm(p_sc, 0x59, X1, *bptr, 0);
                } else {
                    if f64m {
                        self.asm.movsd_rm(X1, *bptr, 0);
                    } else {
                        self.asm.movss_rm(X1, *bptr, 0);
                    }
                    self.asm.sse_rr(p_sc, 0x59, X1, bc);
                }
                self.asm.sse_rr(p_sc, 0x58, X0, X1);
            }
            if f64m {
                self.asm.movsd_mr(R8, 0, X0);
            } else {
                self.asm.movss_mr(R8, 0, X0);
            }
            self.asm.add_ri(R8, i32::from(esize));
            for r in bp {
                self.asm.add_ri(r, i32::from(esize));
            }
            self.asm.dec_r(R11);
            self.asm.jcc_back(CC_NZ, top);
        }
        self.asm.dec_m(RSP, 0);
        self.asm.jcc_back(CC_NZ, gtop);
        self.asm.pop_r(RAX);
        if self.opts.avx {
            self.asm.vzeroupper();
        }
    }

    /// Generic element-order path: mixed dtypes, arbitrary strides, or
    /// an aliased destination. Replicates the VM's generic loop (load
    /// dst, load a, load b, round-per-op multiply-add, store) exactly,
    /// including its strict ascending element order.
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
        let esize = |dt: DType| if dt == DType::F64 { 8i64 } else { 4 };
        self.asm.mov_ri(R11, extent);
        let top = self.asm.here();
        self.load_widen(X1, R8, dt_d); // c
        self.load_widen(X0, R9, dt_a); // x
        self.load_widen(X2, R10, dt_b); // y
        self.asm.sse_rr(Some(0xF2), 0x59, X0, X2); // m = x*y (f64)
        if round32 {
            self.asm.round32(X0);
        }
        self.asm.sse_rr(Some(0xF2), 0x58, X1, X0); // s = c + m
        if round32 {
            self.asm.round32(X1);
        }
        self.store_narrow(R8, dt_d, X1);
        for (acc, preg, dt) in [(dst, R8, dt_d), (sa, R9, dt_a), (sb, R10, dt_b)] {
            let step = acc.stride * esize(dt);
            if step != 0 {
                self.asm.add_ri(preg, step as i32); // range-checked in check_item
            }
        }
        self.asm.dec_r(R11);
        self.asm.jcc_back(CC_NZ, top);
    }

    /// `x ← f64(*ptr)` honoring the slot dtype (f32 widens).
    fn load_widen(&mut self, x: X, ptr: R, dt: DType) {
        if dt == DType::F64 {
            self.asm.movsd_rm(x, ptr, 0);
        } else {
            self.asm.movss_rm(x, ptr, 0);
            self.asm.cvtss2sd_rr(x, x);
        }
    }

    /// `*ptr ← x` honoring the slot dtype (f32 narrows, like
    /// `set_f64_linear`'s `as f32`).
    fn store_narrow(&mut self, ptr: R, dt: DType, x: X) {
        if dt == DType::F64 {
            self.asm.movsd_mr(ptr, 0, x);
        } else {
            self.asm.cvtsd2ss_rr(x, x);
            self.asm.movss_mr(ptr, 0, x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_code(code: &[u8], iregs: &mut [i64], fregs: &mut [f64], slots: &[*mut u8]) {
        let buf = ExecBuf::from_code(code).expect("map");
        let f: super::super::JitFn = unsafe { std::mem::transmute(buf.entry(0)) };
        unsafe { f(iregs.as_mut_ptr(), fregs.as_mut_ptr(), slots.as_ptr()) }
    }

    #[test]
    fn integer_templates_execute() {
        // iregs[2] = iregs[0] + iregs[1]; iregs[3] = iregs[0] * iregs[1]
        let mut a = Asm::new();
        let mut simd = SimdReport::default();
        let mut nc = NestCompiler {
            asm: &mut a,
            dts: &[],
            opts: &X86Backend::sse2_only(),
            simd: &mut simd,
        };
        nc.emit_instr(&Instr::IBin(BinOp::Add, 2, 0, 1));
        nc.emit_instr(&Instr::IBin(BinOp::Mul, 3, 0, 1));
        nc.emit_instr(&Instr::IConst(4, -7_000_000_000));
        a.ret();
        let mut ir = [6i64, 7, 0, 0, 0];
        let mut fr = [0f64];
        run_code(&a.code, &mut ir, &mut fr, &[]);
        assert_eq!(ir[2], 13);
        assert_eq!(ir[3], 42);
        assert_eq!(ir[4], -7_000_000_000);
    }

    #[test]
    fn float_templates_match_rust_semantics() {
        let mut a = Asm::new();
        let mut simd = SimdReport::default();
        let mut nc = NestCompiler {
            asm: &mut a,
            dts: &[],
            opts: &X86Backend::sse2_only(),
            simd: &mut simd,
        };
        nc.emit_instr(&Instr::FBin(BinOp::Div, 2, 0, 1));
        nc.emit_instr(&Instr::FBin32(BinOp::Mul, 3, 0, 1));
        nc.emit_instr(&Instr::FMulAdd {
            dst: 4,
            add: 2,
            a: 0,
            b: 1,
            round32: false,
        });
        nc.emit_instr(&Instr::Call1(Intrinsic::Sqrt, 5, 0, false));
        nc.emit_instr(&Instr::IToF32(1, 0));
        a.ret();
        let (x, y) = (1.9371823_f64, -0.3718_f64);
        let mut ir = [123456789i64, 0];
        let mut fr = [x, y, 0.0, 0.0, 0.0, 0.0];
        run_code(&a.code, &mut ir, &mut fr, &[]);
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
        let mut a = Asm::new();
        let dts = [DType::F32, DType::F32];
        let mut simd = SimdReport::default();
        let mut nc = NestCompiler {
            asm: &mut a,
            dts: &dts,
            opts: &X86Backend::sse2_only(),
            simd: &mut simd,
        };
        nc.emit_item(&Item::Loop {
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
        });
        a.ret();
        let mut ir = [0i64];
        let mut fr = [0f64];
        run_code(&a.code, &mut ir, &mut fr, &slots);
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
            kind: LoopKind::Serial,
            lanes: 1,
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
                let mut a = Asm::new();
                let mut simd = SimdReport::default();
                let mut nc = NestCompiler {
                    asm: &mut a,
                    dts: &dts,
                    opts: &X86Backend::sse2_only(),
                    simd: &mut simd,
                };
                nc.emit_item(&it);
                a.ret();
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
                        run_code(&a.code, &mut ir, &mut fr, &slots);
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
                kind: LoopKind::Serial,
                lanes: 1,
            };
            assert!(check_item(&strided, &dts).is_err(), "offset {plus}");
        }
    }

    #[test]
    fn fma_encoding_single_rounds() {
        // The opt-in FMA path must produce f64::mul_add (single
        // rounding) — demonstrably different plumbing from the
        // bit-exact default.
        if !std::arch::is_x86_feature_detected!("fma") {
            return;
        }
        // a = b = 1+2⁻⁵², c = −(1+2⁻⁵¹): a·b = 1+2⁻⁵¹+2⁻¹⁰⁴, so the
        // two-rounding result is exactly 0 while FMA keeps the 2⁻¹⁰⁴.
        let n = 4usize;
        let one_ulp = f64::from_bits(0x3FF0000000000001);
        let c = -(1.0 + 2f64.powi(-51));
        let mut d = vec![c; n];
        let a_inv = [one_ulp];
        let mut b: Vec<f64> = vec![one_ulp; n];
        let expect: Vec<f64> = d.iter().map(|&c| a_inv[0].mul_add(b[0], c)).collect();
        let mut asm = Asm::new();
        // r8=dst, r9=a(invariant), r10=b
        asm.mov_rm(R8, RDX, 0);
        asm.mov_rm(R9, RDX, 8);
        asm.mov_rm(R10, RDX, 16);
        asm.vbroadcast(0x19, X2, R9);
        asm.vex_rm(1, 0x10, X1, 0, R8, 0);
        asm.vfmadd231pd_rm(X1, X2.0, R10);
        asm.vex_rm(1, 0x11, X1, 0, R8, 0);
        asm.vzeroupper();
        asm.ret();
        let slots = [
            d.as_mut_ptr().cast::<u8>(),
            a_inv.as_ptr() as *mut u8,
            b.as_mut_ptr().cast::<u8>(),
        ];
        let mut ir = [0i64];
        let mut fr = [0f64];
        run_code(&asm.code, &mut ir, &mut fr, &slots);
        assert_eq!(d, expect, "fused multiply-add semantics");
        // And it differs from the two-rounding contract on this input.
        let two_round = c + a_inv[0] * b[0];
        assert_ne!(d[0], two_round, "FMA must single-round");
    }
}
