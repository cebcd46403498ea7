//! The x86-64 encoder: registers, operands, [`Width`] and the
//! byte-level assembler. Prefix, REX, ModRM/SIB and VEX bytes are written
//! nowhere else.

use tvm_te::BinOp;

// ---------------------------------------------------------------- registers

/// General-purpose register number (REX numbering).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct R(u8);

pub(super) const RAX: R = R(0);
pub(super) const RCX: R = R(1);
/// Slot base-pointer table argument.
pub(super) const RDX: R = R(2);
pub(super) const RBX: R = R(3);
/// Stack pointer (jam group counter lives in its top slot).
pub(super) const RSP: R = R(4);
pub(super) const RBP: R = R(5);
/// `fregs` argument.
pub(super) const RSI: R = R(6);
/// `iregs` argument.
pub(super) const RDI: R = R(7);
pub(super) const R8: R = R(8);
pub(super) const R9: R = R(9);
pub(super) const R10: R = R(10);
/// Innermost-loop trip counter.
pub(super) const R11: R = R(11);
pub(super) const R12: R = R(12);
pub(super) const R13: R = R(13);
pub(super) const R14: R = R(14);
pub(super) const R15: R = R(15);

/// XMM/YMM register number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct X(pub(super) u8);

/// `X0`/`X1` are the scalar templates' scratch (never resident).
pub(super) const X0: X = X(0);
pub(super) const X1: X = X(1);
pub(super) const X2: X = X(2);
pub(super) const X3: X = X(3);
/// Scratch of the jammed sweep's packed legacy loads (never mapped to a
/// freg).
pub(super) const XSCRATCH: X = X(15);

/// Condition code for `jcc`/`cmovcc`/`setcc` (low nibble of the
/// `0F 8x`/`0F 4x`/`0F 9x` opcode).
pub(super) const CC_E: u8 = 0x4;
pub(super) const CC_NZ: u8 = 0x5;
pub(super) const CC_L: u8 = 0xC;
pub(super) const CC_GE: u8 = 0xD;
pub(super) const CC_LE: u8 = 0xE;
pub(super) const CC_G: u8 = 0xF;

// ------------------------------------------------------------ operand types

/// A memory operand: `[base + disp]`, or `[base + index·esize]` with the
/// index scaled by the element size of the instruction's [`Width`].
#[derive(Debug, Clone, Copy)]
pub(super) struct Mem {
    base: R,
    index: Option<R>,
    disp: i32,
}

impl Mem {
    pub(super) fn at(base: R, disp: i32) -> Mem {
        Mem {
            base,
            index: None,
            disp,
        }
    }

    pub(super) fn indexed(base: R, index: R) -> Mem {
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
pub(super) enum Shape {
    Scalar,
    Sse,
    Avx,
}

/// The [`Shape`] of a float instruction over `f64` elements, the only
/// ones the JIT computes in: all a template knows about the ISA. Lanes and
/// byte steps are read off it; prefixes and the choice between two- and
/// three-operand encodings stay inside [`Asm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Width {
    shape: Shape,
}

/// Opcodes of the float arithmetic the layer's `op` parameters take (the
/// same byte in every [`Width`]; the prefix picks `sd` or `pd`).
pub(super) const FADD: u8 = 0x58;
pub(super) const FMUL: u8 = 0x59;
pub(super) const FSQRT: u8 = 0x51;

/// The opcode of a binary float op of the JIT subset.
pub(super) fn arith(op: BinOp) -> u8 {
    match op {
        BinOp::Add => FADD,
        BinOp::Mul => FMUL,
        BinOp::Sub => 0x5C,
        BinOp::Div => 0x5E,
        _ => unreachable!("rejected by check_instr"),
    }
}

impl Width {
    pub(super) const fn new(shape: Shape) -> Width {
        Width { shape }
    }

    /// The next narrower width — VEX-256, then SSE2, then scalar — for
    /// what a wider sweep leaves over.
    pub(super) fn narrower(self) -> Option<Width> {
        let shape = match self.shape {
            Shape::Avx => Shape::Sse,
            Shape::Sse => Shape::Scalar,
            Shape::Scalar => return None,
        };
        Some(Width { shape })
    }

    /// How a row of `extent` elements is swept from this width down: each
    /// width with the iterations it takes of what the wider ones left.
    pub(super) fn sweeps(self, extent: i64) -> impl Iterator<Item = (Width, i64)> {
        let mut left = extent;
        std::iter::successors(Some(self), |w| w.narrower()).map(move |w| {
            let iters = left / w.lanes();
            left -= iters * w.lanes();
            (w, iters)
        })
    }

    /// Elements per instruction (1 = scalar).
    pub(super) fn lanes(self) -> i64 {
        match self.shape {
            Shape::Scalar => 1,
            Shape::Sse => 16 / i64::from(ESIZE),
            Shape::Avx => 32 / i64::from(ESIZE),
        }
    }

    /// Bytes per instruction: what a unit-stride pointer moves by.
    pub(super) fn step(self) -> i32 {
        self.lanes() as i32 * i32::from(ESIZE)
    }

    /// Mandatory prefix of the legacy moves and arithmetic: `sd` or `pd`.
    fn prefix(self) -> Option<u8> {
        Some(if self.shape == Shape::Scalar {
            0xF2
        } else {
            0x66
        })
    }
}

/// Bytes per element: an `f64`.
pub(super) const ESIZE: u8 = 8;

/// One element: the width of every scalar template and tail.
pub(super) const SD: Width = Width::new(Shape::Scalar);

/// VEX `pp` field of the packed `f64` moves and arithmetic (`66`).
const PP_66: u8 = 1;

// ---------------------------------------------------------------- assembler

/// Byte-level x86-64 assembler with forward-label fixups and backward
/// (loop back-edge) jump relocation.
pub(super) struct Asm {
    pub(super) code: Vec<u8>,
}

/// A forward `jcc`/`jmp` whose 32-bit displacement is patched later (the
/// skip over a trimmed loop whose live range came out empty, over the arm
/// of a conditional that is not taken).
pub(super) struct Fwd(usize);

impl Asm {
    pub(super) fn new() -> Asm {
        // A page: what the smallest function's code is mapped into.
        Asm {
            code: Vec::with_capacity(4096),
        }
    }

    pub(super) fn here(&self) -> usize {
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
        let rex = 0x40 | ((w as u8) << 3) | ((reg >> 3) << 2) | ((index >> 3) << 1) | (base >> 3);
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

    pub(super) fn mov_ri(&mut self, r: R, v: i64) {
        self.rex(true, 0, 0, r.0);
        if v as i32 as i64 == v {
            self.b(0xC7);
            self.modrm_rr(0, r.0);
            self.imm32(v as i32);
        } else {
            self.b(0xB8 + (r.0 & 7));
            self.imm64(v);
        }
    }

    /// `mov r, [base+disp]`
    pub(super) fn mov_rm(&mut self, r: R, base: R, disp: i32) {
        self.rex(true, r.0, 0, base.0);
        self.b(0x8B);
        self.mem(r.0, base, disp);
    }

    /// `mov [base+disp], r`
    pub(super) fn mov_mr(&mut self, base: R, disp: i32, r: R) {
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

    pub(super) fn mov_rr(&mut self, dst: R, src: R) {
        self.alu_rr(&[0x8B], dst, src);
    }

    pub(super) fn add_rr(&mut self, dst: R, src: R) {
        self.alu_rr(&[0x03], dst, src);
    }

    pub(super) fn and_rr(&mut self, dst: R, src: R) {
        self.alu_rr(&[0x23], dst, src);
    }

    pub(super) fn or_rr(&mut self, dst: R, src: R) {
        self.alu_rr(&[0x0B], dst, src);
    }

    pub(super) fn sub_rr(&mut self, dst: R, src: R) {
        self.alu_rr(&[0x2B], dst, src);
    }

    pub(super) fn imul_rr(&mut self, dst: R, src: R) {
        self.alu_rr(&[0x0F, 0xAF], dst, src);
    }

    pub(super) fn cmp_rr(&mut self, a: R, b: R) {
        self.alu_rr(&[0x3B], a, b);
    }

    /// `cmovcc dst, src`
    pub(super) fn cmov_rr(&mut self, cc: u8, dst: R, src: R) {
        self.alu_rr(&[0x0F, 0x40 + cc], dst, src);
    }

    /// `r ← cc ? 1 : 0` in 64 bits: `setcc r8; movzx r32, r8`. `r` is a
    /// register whose low byte needs no REX to name (`RAX`–`RBX`) or an
    /// extended one.
    pub(super) fn setcc(&mut self, cc: u8, r: R) {
        debug_assert!(!(4..8).contains(&r.0), "spl..dil need a bare REX");
        for (op, reg) in [(0x90 + cc, 0), (0xB6, r.0)] {
            self.rex(false, reg, 0, r.0);
            self.b(0x0F);
            self.b(op);
            self.modrm_rr(reg, r.0);
        }
    }

    /// Group-1 ALU op on a 64-bit `rm` operand with a sign-extended
    /// immediate: the imm8 form when it fits, imm32 otherwise.
    fn alu_imm(&mut self, rm: R, imm: i32, modrm: impl FnOnce(&mut Asm)) {
        let small = (-128..=127).contains(&imm);
        self.rex(true, 0, 0, rm.0);
        self.b(if small { 0x83 } else { 0x81 });
        modrm(self);
        if small {
            self.b(imm as u8);
        } else {
            self.imm32(imm);
        }
    }

    /// `add r, imm32` (sign-extended).
    pub(super) fn add_ri(&mut self, r: R, imm: i32) {
        self.alu_imm(r, imm, |a| a.modrm_rr(0, r.0));
    }

    /// `add qword [base+disp], imm32`
    pub(super) fn add_mi(&mut self, base: R, disp: i32, imm: i32) {
        self.alu_imm(base, imm, |a| a.mem(0, base, disp));
    }

    /// `add qword [base+disp], r`
    pub(super) fn add_mr(&mut self, base: R, disp: i32, r: R) {
        self.rex(true, r.0, 0, base.0);
        self.b(0x01);
        self.mem(r.0, base, disp);
    }

    pub(super) fn cmp_ri(&mut self, r: R, imm: i32) {
        self.alu_imm(r, imm, |a| a.modrm_rr(7, r.0));
    }

    pub(super) fn dec_r(&mut self, r: R) {
        self.rex(true, 0, 0, r.0);
        self.b(0xFF);
        self.modrm_rr(1, r.0);
    }

    /// `dec qword [base+disp]`
    pub(super) fn dec_m(&mut self, base: R, disp: i32) {
        self.rex(true, 1, 0, base.0);
        self.b(0xFF);
        self.mem(1, base, disp);
    }

    pub(super) fn push_r(&mut self, r: R) {
        self.rex(false, 0, 0, r.0);
        self.b(0x50 + (r.0 & 7));
    }

    pub(super) fn pop_r(&mut self, r: R) {
        self.rex(false, 0, 0, r.0);
        self.b(0x58 + (r.0 & 7));
    }

    /// `lea dst, [base + index*scale]`
    pub(super) fn lea_sib(&mut self, dst: R, base: R, index: R, scale: u8) {
        self.rex(true, dst.0, index.0, base.0);
        self.b(0x8D);
        self.mem_sib(dst.0, base, index, scale);
    }

    // ---- control flow ----

    pub(super) fn ret(&mut self) {
        self.b(0xC3);
    }

    /// Backward conditional jump to an already-emitted position: the
    /// rel32 back-edge displacement is resolved immediately.
    pub(super) fn jcc_back(&mut self, cc: u8, target: usize) {
        self.b(0x0F);
        self.b(0x80 + cc);
        let rel = target as i64 - (self.here() as i64 + 4);
        self.imm32(i32::try_from(rel).expect("back-edge in range"));
    }

    /// Forward conditional jump; patch with [`Asm::land`].
    pub(super) fn jcc_fwd(&mut self, cc: u8) -> Fwd {
        self.b(0x0F);
        self.b(0x80 + cc);
        let at = self.here();
        self.imm32(0);
        Fwd(at)
    }

    /// Forward unconditional jump (over an `else` arm); patch with
    /// [`Asm::land`].
    pub(super) fn jmp_fwd(&mut self) -> Fwd {
        self.b(0xE9);
        let at = self.here();
        self.imm32(0);
        Fwd(at)
    }

    /// Resolve a forward jump to land here.
    pub(super) fn land(&mut self, f: Fwd) {
        let rel = self.here() as i64 - (f.0 as i64 + 4);
        let bytes = i32::try_from(rel)
            .expect("forward jump in range")
            .to_le_bytes();
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
    pub(super) fn movaps(&mut self, dst: X, src: X) {
        self.sse_rr(None, 0x28, dst, src);
    }

    /// `cvtsi2sd x, r64`
    pub(super) fn cvtsi2sd(&mut self, x: X, r: R) {
        self.b(0xF2);
        self.rex(true, x.0, 0, r.0);
        self.b(0x0F);
        self.b(0x2A);
        self.modrm_rr(x.0, r.0);
    }

    /// `movq x, r64`
    pub(super) fn movq_xr(&mut self, x: X, r: R) {
        self.b(0x66);
        self.rex(true, x.0, 0, r.0);
        self.b(0x0F);
        self.b(0x6E);
        self.modrm_rr(x.0, r.0);
    }

    // ---- the vector layer: one float instruction at a `Width` ----
    //
    // The raw `sse_*`/`vex*` encoders are reached only from here and from
    // the helpers above. VEX forms are three-operand; the legacy forms
    // compute in place, so `dst ← a op b` first copies `a` into `dst` (`movap*`,
    // nothing when they are the same register), and packed legacy
    // arithmetic, which faults on an unaligned memory operand, takes it
    // through an unaligned `movup*` into the caller's scratch register.

    fn vmov_m(&mut self, w: Width, op: u8, x: X, m: Mem) {
        match w.shape {
            Shape::Avx => self.vex_m(PP_66, op, x, 0, m, ESIZE),
            _ => self.sse_m(w.prefix(), op, x, m, ESIZE),
        }
    }

    /// `x ← [m]`, unaligned (`movs*`, `movup*`, `vmovup*`).
    pub(super) fn vload(&mut self, w: Width, x: X, m: Mem) {
        self.vmov_m(w, 0x10, x, m);
    }

    /// `[m] ← x`, unaligned.
    pub(super) fn vstore(&mut self, w: Width, m: Mem, x: X) {
        self.vmov_m(w, 0x11, x, m);
    }

    /// `dst ← src`, the whole register (`movapd`).
    pub(super) fn vmov(&mut self, w: Width, dst: X, src: X) {
        match w.shape {
            Shape::Avx => self.vex_rr(PP_66, 0x28, dst, 0, src),
            _ => self.sse_rr(Some(0x66), 0x28, dst, src),
        }
    }

    /// `dst ← a op b`.
    pub(super) fn vop_rr(&mut self, w: Width, op: u8, dst: X, a: X, b: X) {
        if w.shape == Shape::Avx {
            return self.vex_rr(PP_66, op, dst, a.0, b);
        }
        if dst != a {
            debug_assert!(dst != b, "copying `a` into `dst` would lose `b`");
            self.vmov(w, dst, a);
        }
        self.sse_rr(w.prefix(), op, dst, b);
    }

    /// `dst ← a op [m]`. `scratch` is required, and clobbered, only by
    /// the packed legacy form.
    pub(super) fn vop_rm(&mut self, w: Width, op: u8, dst: X, a: X, m: Mem, scratch: Option<X>) {
        if w.shape == Shape::Avx {
            return self.vex_m(PP_66, op, dst, a.0, m, ESIZE);
        }
        if dst != a {
            self.vmov(w, dst, a);
        }
        if w.shape == Shape::Scalar {
            return self.sse_m(w.prefix(), op, dst, m, ESIZE);
        }
        let scratch = scratch.expect("packed legacy SSE loads its memory operand first");
        debug_assert!(scratch != dst);
        self.vload(w, scratch, m);
        self.sse_rr(w.prefix(), op, dst, scratch);
    }

    /// `dst ← op src` (`sqrt`).
    pub(super) fn vop1(&mut self, w: Width, op: u8, dst: X, src: X) {
        match w.shape {
            Shape::Avx => self.vex_rr(PP_66, op, dst, 0, src),
            _ => self.sse_rr(w.prefix(), op, dst, src),
        }
    }

    /// Every lane of `x` ← the scalar at `[m]`.
    pub(super) fn bcast(&mut self, w: Width, x: X, m: Mem) {
        match w.shape {
            Shape::Avx => {
                // vbroadcastsd: map 0F38, prefix 66.
                self.vex(x.0, m.index.map_or(0, |i| i.0), m.base.0, 2, 0, PP_66);
                self.b(0x19);
                self.modrm_m(x.0, m, ESIZE);
            }
            Shape::Sse => {
                self.vload(SD, x, m);
                self.sse_rr(Some(0x66), 0x14, x, x); // unpcklpd
            }
            Shape::Scalar => unreachable!("a broadcast fills vector lanes"),
        }
    }

    /// Leave vector code: `vzeroupper` after VEX-256, so the legacy-SSE
    /// scalar code that follows pays no dirty-upper-half penalty.
    pub(super) fn vend(&mut self, w: Width) {
        if w.shape == Shape::Avx {
            self.b(0xC5);
            self.b(0xF8);
            self.b(0x77);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::{assert_same_lines, hex};
    use super::*;

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
            }
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
            let w = Width::new(shape);
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
        // What the resident nest added (`jit/v5`): register moves and 0/1
        // logic over the scratch and the callee-saved nest registers
        // (`r12`/`r13` are the forced-SIB / forced-disp8 bases), their
        // saves, and the jump over an `else` arm.
        const NEST: [R; 8] = [RAX, RCX, RBX, RBP, R12, R13, R14, R15];
        for r in NEST {
            row!(rows, push_r(r));
            row!(rows, pop_r(r));
            row!(rows, add_ri(r, 1));
            row!(rows, cmp_ri(r, 0));
            row!(rows, lea_sib(R8, R8, r, 8));
            for s in [RAX, RCX, RBP, R12] {
                row!(rows, mov_rr(r, s));
                row!(rows, mov_rr(s, r));
                row!(rows, and_rr(s, r));
                row!(rows, or_rr(s, r));
            }
            for (base, disp) in FEW {
                row!(rows, mov_rm(r, base, disp));
                row!(rows, mov_mr(base, disp, r));
            }
        }
        for cc in [CC_E, CC_NZ, CC_L, CC_GE, CC_LE, CC_G] {
            for r in [RAX, RCX, R9] {
                row!(rows, setcc(cc, r));
            }
        }
        row!(rows, mov_rm(RCX, RSP, 0));
        let mut a = Asm::new();
        let to_else = a.jcc_fwd(CC_E);
        a.dec_r(R11);
        let to_end = a.jmp_fwd();
        a.land(to_else);
        a.dec_r(RBX);
        a.land(to_end);
        rows.push_str(&format!("jcc_fwd jmp_fwd land land: {}\n", hex(&a.code)));
        assert_same_lines(&rows, include_str!("goldens/asm.txt"));
    }
}
