//! Planning: which nests are in the JIT subset and how each is laid out
//! in registers — pure functions of the bytecode, the slot dtypes and the
//! backend's widest [`Width`], so every decision is testable without
//! emitting or executing anything.

use super::asm::{Width, ESIZE, R, R10, R12, R13, R14, R15, R8, R9, RBP, RBX, X};
use crate::compile::{Block, Carry, Clamp, Instr, Item, Reg, SlotAccess};
use crate::optimize::{float_dst, float_uses, int_dst, int_uses, reads_ireg};
use std::collections::HashSet;
use tvm_te::{BinOp, DType, Intrinsic};

/// Offset of register `r` inside its (8-byte-element) register file.
pub(super) fn off(r: Reg) -> i32 {
    (r as i32) * 8
}

/// GPRs free inside the scalar strided loop: they hold element pointers
/// (`RAX`/`RCX` stay template scratch, `R11` counts trips).
pub(super) const PTR_REGS: [R; 3] = [R8, R9, R10];
/// How many XMM registers a scalar strided loop may keep fregs in:
/// `X2` upwards, through `X15`.
pub(super) const XMM_POOL: u8 = 14;
/// GPRs a nest keeps integer registers in: the callee-saved ones, which
/// no leaf template touches, saved once at the nest's entry.
pub(super) const NEST_GPRS: [R; 6] = [RBX, RBP, R12, R13, R14, R15];

// ------------------------------------------------------------ nest checking

fn reject<T>(msg: impl Into<String>) -> Result<T, String> {
    Err(msg.into())
}

fn float_slot(dts: &[DType], slot: u16) -> Result<(), String> {
    match dts[slot as usize] {
        DType::F64 => Ok(()),
        other => reject(format!("integer-typed buffer ({other:?})")),
    }
}

/// Is this instruction in the infallible, bit-exact JIT subset?
fn check_instr(i: &Instr, dts: &[DType]) -> Result<(), String> {
    match i {
        Instr::IConst(..) | Instr::FConst(..) | Instr::IToF(..) | Instr::FMulAdd { .. } => Ok(()),
        Instr::IBin(op, ..) => match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul => Ok(()),
            // Div/FloorDiv/FloorMod can fail; Min/Max are cheap enough
            // that the VM handles the (rare) nests using them.
            other => reject(format!("integer op {other:?}")),
        },
        Instr::FBin(op, ..) => match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => Ok(()),
            // minsd/maxsd NaN and ±0 semantics differ from Rust's
            // f64::min/max; floor ops need roundsd (SSE4.1) — rejected.
            other => reject(format!("float op {other:?}")),
        },
        Instr::Call1(Intrinsic::Sqrt, ..) => Ok(()),
        Instr::Call1(intr, ..) | Instr::Call2(intr, ..) => reject(format!("intrinsic {intr:?}")),
        Instr::Load(_, slot, _) | Instr::Store(slot, _, _) => float_slot(dts, *slot),
        Instr::Bound { .. } => reject("runtime bounds check"),
        Instr::StoreChecked { .. } => reject("checked store"),
        // Integer 0/1 logic is exact by construction.
        Instr::ICmp(..) | Instr::And(..) | Instr::Or(..) | Instr::Not(..) => Ok(()),
        // cvttsd2si saturation differs from Rust's `as i64`; FBool and
        // the float compare/select family need NaN-faithful flag
        // handling — all left to the VM.
        Instr::FToI(..) => reject("float-to-int cast"),
        Instr::FBool(..) | Instr::FCmp(..) | Instr::ISel(..) | Instr::FSel(..) => {
            reject("float compare/select")
        }
    }
}

fn check_code(code: &[Instr], dts: &[DType]) -> Result<(), String> {
    code.iter().try_for_each(|i| check_instr(i, dts))
}

fn check_block(b: &Block, dts: &[DType]) -> Result<(), String> {
    b.items.iter().try_for_each(|it| check_item(it, dts))
}

/// Can the live-range template compute this clamp over `[min, min+extent)`?
/// It caps a bound register at `min+extent − off` before adding `off`,
/// both as immediates.
fn check_clamp(min: i64, extent: i64, clamp: &Clamp) -> Result<(), String> {
    let Some(end) = min.checked_add(extent) else {
        return reject("loop bound overflow");
    };
    let encodable = |&(_, plus): &(Reg, i64)| {
        (0..=i64::from(i32::MAX)).contains(&plus) && end.checked_sub(plus).is_some()
    };
    if ![clamp.lo, clamp.hi].iter().flatten().all(encodable) {
        return reject("trimmed loop bound out of range");
    }
    Ok(())
}

/// Is this item compilable as (part of) a native nest?
pub(super) fn check_item(item: &Item, dts: &[DType]) -> Result<(), String> {
    match item {
        Item::Code(c) => check_code(c, dts),
        Item::Loop {
            min,
            extent,
            clamp,
            pre,
            body,
            ..
        } => {
            check_clamp(*min, *extent, clamp)?;
            check_code(pre, dts)?;
            check_block(body, dts)
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
            check_clamp(*min, *extent, clamp)?;
            check_code(pre, dts)?;
            check_code(body, dts)
        }
        Item::MulAddLoop {
            extent,
            pre,
            dst,
            a,
            b,
        } => {
            if *extent < 1 {
                return reject("empty microkernel loop");
            }
            check_code(pre, dts)?;
            for acc in [dst, a, b] {
                float_slot(dts, acc.slot)?;
                if acc
                    .stride
                    .checked_mul(i64::from(ESIZE))
                    .and_then(|v| i32::try_from(v).ok())
                    .is_none()
                {
                    return reject("microkernel stride out of range");
                }
            }
            Ok(())
        }
        Item::If { then, else_, .. } => {
            check_block(then, dts)?;
            else_.as_ref().map_or(Ok(()), |e| check_block(e, dts))
        }
        Item::JitCall { .. } => reject("already compiled"),
    }
}

/// A float operand of a scalar template: resident in an XMM register,
/// or in the `fregs` file at this displacement off `RSI`.
#[derive(Clone, Copy, PartialEq)]
pub(super) enum F {
    Reg(X),
    Mem(i32),
}

/// An integer operand of a scalar template: resident in a GPR, or in the
/// `iregs` file at this displacement off `RDI`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum I {
    Reg(R),
    Mem(i32),
}

/// Which operands of the scalar templates live in machine registers
/// (see [`super::emit::NestCompiler::emit_instr`]). Empty outside a nest.
#[derive(Default)]
pub(super) struct Resident<'n> {
    /// freg → the XMM register holding it.
    pub(super) xmms: Vec<(Reg, X)>,
    /// `(slot, address register)` → the GPR holding the element pointer.
    pub(super) ptrs: Vec<((u16, Reg), R)>,
    /// ireg → the GPR holding it, for the whole nest: [`plan_nest`]'s
    /// result, in register order.
    pub(super) gprs: &'n [(Reg, R)],
}

impl<'n> Resident<'n> {
    /// The nest's plan alone: what every template outside a strided loop
    /// resolves its operands through.
    pub(super) fn of_nest(gprs: &'n [(Reg, R)]) -> Resident<'n> {
        Resident {
            gprs,
            ..Resident::default()
        }
    }

    pub(super) fn xmm(&self, r: Reg) -> Option<X> {
        self.xmms.iter().find(|e| e.0 == r).map(|e| e.1)
    }

    pub(super) fn ptr(&self, slot: u16, addr: Reg) -> Option<R> {
        self.ptrs.iter().find(|e| e.0 == (slot, addr)).map(|e| e.1)
    }

    /// Where the templates find freg `r`.
    pub(super) fn f(&self, r: Reg) -> F {
        self.xmm(r).map_or(F::Mem(off(r)), F::Reg)
    }

    /// Where the templates find ireg `r`.
    pub(super) fn i(&self, r: Reg) -> I {
        let gpr = self.gprs.binary_search_by_key(&r, |e| e.0);
        gpr.map_or(I::Mem(off(r)), |at| I::Reg(self.gprs[at].1))
    }
}

// ------------------------------------------------------------ the nest plan

/// The stretch of a nest over which an integer register it defines holds
/// a value something still reads: positions count the nest's instructions
/// and loop edges in program order.
#[derive(Debug)]
pub(super) struct Live {
    pub(super) reg: Reg,
    /// Position of the definition (a loop counter's: its loop's entry).
    pub(super) start: u32,
    /// Position of the last read, moved to the end of every loop that
    /// holds the read but not the definition; a counter's is its loop's.
    pub(super) end: u32,
    /// Loops around the definition: innermost registers are booked first.
    pub(super) depth: u32,
}

/// "Not inside any loop or conditional arm of the nest".
const NO_SCOPE: u32 = u32::MAX;

/// Where a walk saw an integer register defined.
#[derive(Clone, Copy, PartialEq)]
enum Def {
    /// Not by this nest (so far), and not read by it either.
    Outside,
    /// Not by this nest (so far): the caller's, read where it is.
    Read,
    /// Once, at this position, inside this scope (or [`NO_SCOPE`]).
    At(u32, u32),
    /// More than once, after a read, or away from where it is read: a
    /// register that keeps its in-memory form.
    Refused,
}

/// What a walk knows of one integer register.
#[derive(Clone, Copy)]
struct Seen {
    /// The walk that wrote this record; an older one's says nothing.
    nest: u32,
    def: Def,
    /// Last read with no loop between it and the definition, if any.
    last: u32,
    /// Last loop holding a read that the definition is outside of — the
    /// outermost such loop around that read — or [`NO_SCOPE`].
    through: u32,
}

/// A loop body or a conditional arm of the nest being walked.
struct Scope {
    /// The scope around it, or [`NO_SCOPE`].
    around: u32,
    /// Loops around and including it.
    depth: u32,
    is_loop: bool,
    /// Position of its last instruction, once the walk has left it.
    end: u32,
}

/// The walk over a nest in program order that records where each integer
/// register is defined and how far it is read. One serves every nest of a
/// function: the per-register table is written only where a nest names a
/// register, and stamped with the nest.
#[derive(Default)]
pub(super) struct Walk {
    nest: u32,
    pos: u32,
    /// The innermost open scope, by index into `scopes`.
    inside: u32,
    scopes: Vec<Scope>,
    /// Per register.
    regs: Vec<Seen>,
    /// The registers this nest defined, in program order.
    defs: Vec<Reg>,
}

impl Walk {
    /// The walk for the nests of a function with `n` integer registers.
    pub(super) fn with_iregs(n: usize) -> Walk {
        Walk {
            scopes: Vec::with_capacity(8),
            regs: Vec::with_capacity(n),
            defs: Vec::with_capacity(n),
            ..Walk::default()
        }
    }

    fn seen(&mut self, r: Reg) -> &mut Seen {
        let unseen = Seen {
            nest: self.nest,
            def: Def::Outside,
            last: 0,
            through: NO_SCOPE,
        };
        if self.regs.len() <= r as usize {
            self.regs.resize(r as usize + 1, unseen);
        }
        let seen = &mut self.regs[r as usize];
        if seen.nest != self.nest {
            *seen = unseen;
        }
        seen
    }

    fn def(&mut self, r: Reg) {
        let (pos, inside) = (self.pos, self.inside);
        let seen = self.seen(r);
        if seen.def == Def::Outside {
            seen.def = Def::At(pos, inside);
            self.defs.push(r);
        } else {
            seen.def = Def::Refused;
        }
    }

    /// A register a strided body writes: it changes under a loop this
    /// walk sees as one position.
    fn unbookable(&mut self, r: Reg) {
        self.seen(r).def = Def::Refused;
    }

    fn read(&mut self, r: Reg) {
        let (pos, inside) = (self.pos, self.inside);
        let seen = self.seen(r);
        let Def::At(_, def_inside) = seen.def else {
            if seen.def == Def::Outside {
                seen.def = Def::Read;
            }
            return;
        };
        let through = self.below(def_inside, inside);
        let seen = &mut self.regs[r as usize];
        match through {
            Ok(None) => seen.last = pos,
            // Live until that loop is done; loops open in program order.
            Ok(Some(lp)) => seen.through = lp,
            // Read where the definition may not have run: outside its
            // loop, or past the conditional arm that holds it.
            Err(()) => seen.def = Def::Refused,
        }
    }

    fn code(&mut self, code: &[Instr]) {
        for i in code {
            self.pos += 1;
            int_uses(i, |r| self.read(r));
            if let Some(d) = int_dst(i) {
                self.def(d);
            }
        }
    }

    fn enter(&mut self, is_loop: bool) {
        self.scopes.push(Scope {
            around: self.inside,
            depth: self.depth(self.inside) + is_loop as u32,
            is_loop,
            end: 0,
        });
        self.inside = self.scopes.len() as u32 - 1;
    }

    fn leave(&mut self) {
        self.pos += 1;
        let this = &mut self.scopes[self.inside as usize];
        this.end = self.pos;
        self.inside = this.around;
    }

    /// How many loops of the nest are around (and including) `scope`.
    fn depth(&self, scope: u32) -> u32 {
        self.scopes.get(scope as usize).map_or(0, |s| s.depth)
    }

    /// The outermost loop on the way from `outer` down to the scope `at`
    /// (`None`: they are the same scope, or only conditional arms
    /// apart), or `Err` when `at` is not inside `outer`.
    fn below(&self, outer: u32, mut at: u32) -> Result<Option<u32>, ()> {
        let mut lp = None;
        while at != outer {
            let scope = self.scopes.get(at as usize).ok_or(())?;
            if scope.is_loop {
                lp = Some(at);
            }
            at = scope.around;
        }
        Ok(lp)
    }

    fn arm(&mut self, b: &Block) {
        self.enter(false);
        b.items.iter().for_each(|it| self.item(it));
        self.leave();
    }

    fn bounds(&mut self, clamp: &Clamp) {
        for &(r, _) in [clamp.lo, clamp.hi].iter().flatten() {
            self.read(r);
        }
    }

    fn item(&mut self, item: &Item) {
        match item {
            Item::Code(c) => self.code(c),
            Item::Loop {
                var,
                clamp,
                pre,
                body,
                ..
            } => {
                self.pos += 1;
                self.bounds(clamp);
                self.enter(true);
                self.def(*var);
                // The hoisted registers are defined once, ahead of the
                // first iteration, and booked like the counter: whatever
                // the body reads (or the bottom bumps) lives to the
                // loop's end, whatever only `pre` reads dies there.
                self.code(pre);
                let body_from = self.pos;
                body.items.iter().for_each(|it| self.item(it));
                // The bumps, the increment and the compare at the bottom.
                self.pos += 1;
                for d in pre.iter().filter_map(int_dst) {
                    let seen = self.seen(d);
                    if seen.last > body_from || seen.through != NO_SCOPE {
                        self.read(d);
                    }
                }
                self.read(*var);
                self.leave();
            }
            Item::If { cond, then, else_ } => {
                self.pos += 1;
                self.read(*cond);
                self.arm(then);
                else_.iter().for_each(|e| self.arm(e));
            }
            Item::StridedLoop {
                clamp,
                pre,
                bumps,
                body,
                carry,
                ..
            } => {
                self.code(pre);
                // Loop entry: the live range, the advance to its first
                // iteration, the element pointers and the carry's load.
                self.pos += 1;
                self.bounds(clamp);
                if let Some(c) = carry {
                    self.read(c.addr);
                }
                // The loop itself, conservatively: every register it
                // names is live to its end (the resident form reads fewer
                // — the address registers it turned into pointers, the
                // bumps nothing reads — and a shorter range would only let
                // the prelude's registers share a GPR).
                self.enter(true);
                self.pos += 1;
                for i in body {
                    int_uses(i, |r| self.read(r));
                    int_dst(i).into_iter().for_each(|d| self.unbookable(d));
                }
                bumps.iter().for_each(|b| self.read(b.0));
                self.leave();
            }
            Item::MulAddLoop { pre, dst, a, b, .. } => {
                self.code(pre);
                self.pos += 1;
                [dst, a, b].iter().for_each(|acc| self.read(acc.addr));
            }
            Item::JitCall { .. } => unreachable!("rejected by check_item"),
        }
    }
}

/// The live range of every integer register `root` defines and could keep
/// in a GPR, in the order of their definitions. Left out — they keep their
/// in-memory form — are registers defined twice, written by a strided
/// body, or read somewhere their definition does not dominate: before it
/// in program order, outside the loop that holds it, or past the
/// conditional arm that holds it.
pub(super) fn live_ranges(root: &Item, w: &mut Walk) -> Vec<Live> {
    (w.nest, w.pos, w.inside) = (w.nest + 1, 0, NO_SCOPE);
    w.scopes.clear();
    w.defs.clear();
    w.item(root);
    let live = |&reg: &Reg| match w.regs[reg as usize] {
        Seen {
            def: Def::At(start, inside),
            last,
            through,
            ..
        } => Some(Live {
            reg,
            start,
            end: start
                .max(last)
                .max(w.scopes.get(through as usize).map_or(0, |s| s.end)),
            depth: w.depth(inside),
        }),
        _ => None,
    };
    let mut lives = Vec::with_capacity(w.defs.len());
    lives.extend(w.defs.iter().filter_map(live));
    lives
}

/// Plan the integer registers of a nest over the GPR budget `pool`: which
/// of the registers the nest defines — loop counters, nest-level code,
/// the preludes of its strided loops and microkernels — live in a GPR for
/// as long as something reads them. One pass in program order: a
/// definition takes the first register of `pool` nothing live holds
/// (ranges are closed: two registers live at one instruction never
/// share), and when all are taken the outermost definition among the
/// holders gives its register up for good to one defined further in —
/// first come, first served among equals, innermost definitions first.
/// Whatever does not fit keeps its in-memory form, operand by operand.
/// Registers the nest only reads are where the caller left them, in
/// memory. Nothing is written back: a nest is one loop or conditional,
/// and a register defined inside one is dead after it
/// ([`crate::optimize`]). A nest that is one leaf has only its prelude to
/// book, run once a call: it plans nothing. The result is in register
/// order.
pub(super) fn plan_nest(root: &Item, pool: &[R], walk: &mut Walk) -> Vec<(Reg, R)> {
    if !matches!(root, Item::Loop { .. } | Item::If { .. }) {
        return Vec::new();
    }
    let lives = live_ranges(root, walk);
    // Per register of `pool`: its holder's last position (0: none yet),
    // depth and index in `lives`.
    let mut held = [(0u32, 0u32, 0usize); NEST_GPRS.len()];
    let mut gprs: Vec<(Reg, R)> = Vec::with_capacity(lives.len());
    for (n, l) in lives.iter().enumerate() {
        // Free — the holder's range is over — before taken, then the
        // outermost holder; the first of `pool` among equals.
        let rank = |&(end, depth, _): &(u32, u32, usize)| (end >= l.start) as u32 * (depth + 1);
        let Some(k) = (0..pool.len()).min_by_key(|&k| rank(&held[k])) else {
            break; // an empty pool books nothing
        };
        let (end, depth, o) = held[k];
        if end >= l.start {
            if depth >= l.depth {
                continue;
            }
            gprs.retain(|e| e.0 != lives[o].reg);
        }
        held[k] = (l.end, l.depth, n);
        // In register order: the compiler numbers registers as it goes,
        // so this is nearly always the end.
        let at = gprs.partition_point(|e| e.0 < l.reg);
        gprs.insert(at, (l.reg, pool[k]));
    }
    gprs
}

/// Register plan of one scalar strided loop.
pub(super) struct ResidentPlan<'n> {
    pub(super) res: Resident<'n>,
    /// Per-iteration byte step of each resident pointer that moves.
    pub(super) steps: Vec<(R, i32)>,
    /// The strided registers the body still reads from memory.
    pub(super) mem_bumps: Vec<(Reg, i64)>,
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
pub(super) fn plan_resident(
    bumps: &[(Reg, i64)],
    body: &[Instr],
    carry: Option<Carry>,
    gprs: &[R],
    xmms: u8,
) -> ResidentPlan<'static> {
    let mut res = Resident::default();
    let mut steps = Vec::new();
    let stride = |r: Reg| bumps.iter().find(|b| b.0 == r).map_or(0, |b| b.1);
    for i in body {
        let (Instr::Load(_, slot, addr) | Instr::Store(slot, addr, _)) = *i else {
            continue;
        };
        let step = stride(addr)
            .checked_mul(i64::from(ESIZE))
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

/// What the three operands of a `MulAddLoop` allow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum MulAdd {
    /// `dst` stride 0: one element accumulates every product, in order —
    /// a serial chain whatever the factors' strides, always scalar, and
    /// carried in a register. `stored_once` when neither factor reads the
    /// destination's slot, so nothing in the loop can observe the element
    /// ([`super::emit::NestCompiler::muladd_reduction`]).
    Reduction { stored_once: bool },
    /// `dst` stride 1 and factor strides `(0,1)`, `(1,0)` or `(1,1)`, the
    /// destination slot read by neither factor: every element is an
    /// independent multiply and add.
    Parallel,
    /// The element-order loop, with the reason it is not packed.
    Generic(&'static str),
}

pub(super) fn classify_muladd(dst: &SlotAccess, a: &SlotAccess, b: &SlotAccess) -> MulAdd {
    let aliased = dst.slot == a.slot || dst.slot == b.slot;
    if dst.stride == 0 {
        return MulAdd::Reduction {
            stored_once: !aliased,
        };
    }
    if aliased {
        MulAdd::Generic("aliased-dst")
    } else if matches!(
        (dst.stride, a.stride, b.stride),
        (1, 0, 1) | (1, 1, 0) | (1, 1, 1)
    ) {
        MulAdd::Parallel
    } else {
        MulAdd::Generic("stride-pattern")
    }
}

/// k-iterations fused per trip of a jammed microkernel (the
/// "unroll-and-jam" depth: one destination load/store feeds this many
/// multiply-accumulate steps).
pub(super) const JAM: i64 = 4;

/// Validated unroll-and-jam plan for a serial loop whose body is only
/// per-iteration address code plus one parallel-pattern microkernel
/// with a loop-invariant destination row. See
/// [`plan_jam`] for the eligibility proof obligations.
pub(super) struct JamPlan<'p> {
    /// The jammed ("k") loop's variable register.
    pub(super) kvar: Reg,
    /// Its inclusive start.
    pub(super) kmin: i64,
    /// Its trip count (≥ [`JAM`]).
    pub(super) kextent: i64,
    /// Its hoisted registers: set once, and moved after each `k`.
    pub(super) hoisted: &'p [Instr],
    pub(super) bumps: &'p [(Reg, i64)],
    /// Straight-line body code preceding the microkernel (address math).
    pub(super) code: &'p [Instr],
    /// The microkernel's own prelude.
    pub(super) pre: &'p [Instr],
    /// Destination operand (stride 1, address k-invariant).
    pub(super) dst: SlotAccess,
    /// The stride-1 factor operand (varies along j).
    pub(super) vec: SlotAccess,
    /// The stride-0 factor operand (the per-k broadcast scalar).
    pub(super) inv: SlotAccess,
    /// Whether the invariant factor is the multiply's *first* operand
    /// (`a`), preserving the VM's NaN-payload operand order.
    pub(super) inv_first: bool,
    /// The widest packed width the row fills.
    pub(super) w: Width,
    /// The microkernel's ("j") trip count (≥ `w.lanes()`).
    pub(super) extent: i64,
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
///   [`MulAdd::Parallel`] (a destination slot distinct from both factors)
///   with stride pattern `(1,0,1)` or `(1,1,0)`;
/// - the address code is memory-free (pure register arithmetic),
///   so running four iterations' worth up front has no observable
///   effect beyond the register file, which sees the exact scalar
///   write sequence;
/// - it never writes the loop variable (the jam advances it);
/// - a dataflow pass proves `dst.addr` independent of `k`,
///   treating loop-carried register reads and the loop's bumped
///   registers as varying (a hoisted register that is not bumped is set
///   once, outside the code the pass scans).
pub(super) fn plan_jam(item: &Item, widest: Width) -> Option<JamPlan<'_>> {
    let Item::Loop {
        var,
        min,
        extent: kextent,
        clamp,
        pre: hoisted,
        bumps,
        body,
        ..
    } = item
    else {
        return None;
    };
    // A trimmed loop's trip count is only known at loop entry.
    if *kextent < JAM || !clamp.is_none() {
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
        ..
    } = ma
    else {
        unreachable!("matched above")
    };
    if classify_muladd(dst, a, b) != MulAdd::Parallel {
        return None;
    }
    let (inv, vec, inv_first) = match (a.stride, b.stride) {
        (0, 1) => (*a, *b, true),
        (1, 0) => (*b, *a, false),
        _ => return None,
    };
    // The widest width the row fills at least once: a scalar one jams
    // nothing.
    let mut w = widest;
    while *extent < w.lanes() {
        w = w.narrower()?;
    }
    if w.lanes() == 1 {
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
            | Instr::FBin(..)
            | Instr::FMulAdd { .. }
            | Instr::Call1(..) => {}
            _ => return None,
        }
    }
    // k-invariance of the destination address: a register is
    // varying if it derives from the loop variable or from a
    // loop-carried value (read of a setup-written register before
    // its write this iteration).
    let mut varying: HashSet<Reg> = bumps.iter().map(|b| b.0).collect();
    varying.insert(*var);
    let mut seen: HashSet<Reg> = HashSet::new();
    for i in code.iter().chain(pre.iter()) {
        match i {
            Instr::IConst(d, _) => {
                seen.insert(*d);
                varying.remove(d);
            }
            Instr::IBin(_, d, x, y) => {
                let tainted =
                    |r: &Reg| varying.contains(r) || (written.contains(r) && !seen.contains(r));
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
        hoisted,
        bumps,
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

#[cfg(test)]
mod tests {
    use super::super::asm::{Shape, R11, RAX, RCX, RDI, RDX, RSI, RSP};
    use super::super::fixtures::{access, nest_function, JamNest, NestGen};
    use super::*;
    use crate::compile::LoopKind;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use tvm_te::CmpOp;

    #[test]
    fn trimmed_loops_are_admitted_with_encodable_bounds_only() {
        let dts = [DType::F64];
        let plain = |clamp| Item::Loop {
            var: 0,
            min: 0,
            extent: 4,
            clamp,
            pre: vec![],
            bumps: vec![],
            body: Block::default(),
            kind: LoopKind::Serial,
        };
        let strided = |clamp| Item::StridedLoop {
            min: 0,
            extent: 4,
            clamp,
            pre: vec![Instr::IConst(0, 0)],
            bumps: vec![(0, 1)],
            body: vec![],
            carry: None,
            kind: LoopKind::Serial,
        };
        // One live-range template serves the plain and the strided loop.
        let hi = Clamp {
            hi: Some((1, 0)),
            ..Clamp::default()
        };
        assert_eq!(check_item(&plain(hi), &dts), Ok(()));
        assert_eq!(check_item(&strided(hi), &dts), Ok(()));
        // Offsets it cannot encode are refused on both.
        for plus in [-1, i64::from(i32::MAX) + 1] {
            let lo = Clamp {
                lo: Some((1, plus)),
                ..Clamp::default()
            };
            assert!(check_item(&plain(lo), &dts).is_err(), "offset {plus}");
            assert!(check_item(&strided(lo), &dts).is_err(), "offset {plus}");
        }
    }

    #[test]
    fn conditionals_are_admitted_when_both_arms_are() {
        let dts = [DType::F64];
        let arm = |i: Instr| Block {
            items: vec![Item::Code(vec![i])],
        };
        let (fine, checked) = (
            Instr::ICmp(CmpOp::Ne, 2, 0, 1),
            Instr::StoreChecked {
                buf: 0,
                idx: vec![0].into(),
                val: 0,
            },
        );
        let cond = |then: &Instr, else_: Option<&Instr>| Item::If {
            cond: 0,
            then: arm(then.clone()),
            else_: else_.map(|i| arm(i.clone())),
        };
        assert_eq!(check_item(&cond(&fine, None), &dts), Ok(()));
        assert_eq!(check_item(&cond(&fine, Some(&fine)), &dts), Ok(()));
        let refused = Err("checked store".to_string());
        assert_eq!(check_item(&cond(&checked, None), &dts), refused);
        assert_eq!(check_item(&cond(&checked, Some(&fine)), &dts), refused);
        assert_eq!(check_item(&cond(&fine, Some(&checked)), &dts), refused);
        // Integer 0/1 logic is in the subset; whatever needs NaN- or
        // saturation-faithful handling keeps its reason.
        for op in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ] {
            assert_eq!(check_instr(&Instr::ICmp(op, 2, 0, 1), &dts), Ok(()));
        }
        for i in [Instr::And(2, 0, 1), Instr::Or(2, 0, 1), Instr::Not(2, 0)] {
            assert_eq!(check_instr(&i, &dts), Ok(()));
        }
        let float = Err("float compare/select".to_string());
        for i in [
            Instr::FCmp(CmpOp::Lt, 2, 0, 1),
            Instr::FBool(2, 0),
            Instr::ISel(2, 0, 1, 1),
            Instr::FSel(2, 0, 1, 1),
        ] {
            assert_eq!(check_instr(&i, &dts), float);
        }
        let cast = Err("float-to-int cast".to_string());
        assert_eq!(check_instr(&Instr::FToI(2, 0), &dts), cast);
    }

    /// Run a nest the way the emitter lays it out — every loop body twice,
    /// each arm of every conditional from the state before it — tracking
    /// which integer register each GPR of `plan` holds, and fail on a read
    /// that finds another's value there.
    struct Replay<'p> {
        plan: &'p Resident<'p>,
        holds: Vec<(R, Reg)>,
        reads: usize,
    }

    impl Replay<'_> {
        fn read(&mut self, r: Reg) {
            if let I::Reg(g) = self.plan.i(r) {
                let held = self.holds.iter().rev().find(|h| h.0 == g).map(|h| h.1);
                assert_eq!(held, Some(r), "read of ireg {r} in {g:?}");
                self.reads += 1;
            }
        }

        fn write(&mut self, r: Reg) {
            if let I::Reg(g) = self.plan.i(r) {
                self.holds.push((g, r));
            }
        }

        fn code(&mut self, code: &[Instr]) {
            for i in code {
                int_uses(i, |r| self.read(r));
                int_dst(i).into_iter().for_each(|d| self.write(d));
            }
        }

        fn bounds(&mut self, clamp: &Clamp) {
            for &(r, _) in [clamp.lo, clamp.hi].iter().flatten() {
                self.read(r);
            }
        }

        fn block(&mut self, b: &Block) {
            b.items.iter().for_each(|it| self.item(it));
        }

        fn item(&mut self, item: &Item) {
            match item {
                Item::Code(c) => self.code(c),
                Item::Loop {
                    var,
                    clamp,
                    pre,
                    bumps,
                    body,
                    ..
                } => {
                    self.bounds(clamp);
                    self.write(*var);
                    self.code(pre);
                    for _ in 0..2 {
                        self.block(body);
                        for &(r, _) in bumps {
                            self.read(r);
                            self.write(r);
                        }
                        self.read(*var);
                        self.write(*var);
                    }
                }
                Item::If { cond, then, else_ } => {
                    self.read(*cond);
                    // Either arm may be the one that runs: afterwards a
                    // GPR holds what both leave in it, or nothing a read
                    // may rely on.
                    let before = self.holds.clone();
                    self.block(then);
                    let after_then = std::mem::replace(&mut self.holds, before);
                    else_.iter().for_each(|e| self.block(e));
                    let held = |holds: &[(R, Reg)], g: R| {
                        holds.iter().rev().find(|h| h.0 == g).map(|h| h.1)
                    };
                    for g in NEST_GPRS {
                        if held(&after_then, g) != held(&self.holds, g) {
                            self.holds.push((g, Reg::MAX));
                        }
                    }
                }
                Item::StridedLoop {
                    clamp,
                    pre,
                    bumps,
                    body,
                    carry,
                    ..
                } => {
                    self.code(pre);
                    self.bounds(clamp);
                    if clamp.lo.is_some() {
                        // The advance to the first live iteration.
                        for &(r, _) in bumps {
                            self.read(r);
                            self.write(r);
                        }
                    }
                    let plan = plan_resident(bumps, body, *carry, &PTR_REGS, XMM_POOL);
                    for &((_, addr), _) in &plan.res.ptrs {
                        self.read(addr);
                    }
                    carry.iter().for_each(|c| self.read(c.addr));
                    for _ in 0..2 {
                        for i in body {
                            match *i {
                                Instr::Load(_, slot, addr) | Instr::Store(slot, addr, _)
                                    if plan.res.ptr(slot, addr).is_some() => {}
                                _ => int_uses(i, |r| self.read(r)),
                            }
                            int_dst(i).into_iter().for_each(|d| self.write(d));
                        }
                        for &(r, _) in &plan.mem_bumps {
                            self.read(r);
                            self.write(r);
                        }
                    }
                }
                Item::MulAddLoop { pre, dst, a, b, .. } => {
                    self.code(pre);
                    [dst, a, b].iter().for_each(|acc| self.read(acc.addr));
                }
                Item::JitCall { .. } => unreachable!("not generated"),
            }
        }
    }

    #[test]
    fn nest_plans_book_no_register_twice_and_leave_the_rest_in_memory() {
        // Nothing is emitted and nothing runs: the plan is checked
        // against its own live ranges, and against a replay of the nest
        // that knows nothing of them.
        let clobbered = [RAX, RCX, RDX, RSI, RDI, RSP, R8, R9, R10, R11];
        assert!(NEST_GPRS.iter().all(|g| !clobbered.contains(g)));
        assert!(PTR_REGS.iter().all(|p| clobbered.contains(p)));
        let mut rng = SmallRng::seed_from_u64(0x91a);
        let (mut shared, mut unbooked, mut replayed, mut bumped) = (0, 0, 0, 0);
        // One walk for all of them, as one serves every nest of a function.
        let mut walk = Walk::default();
        for case in 0..600 {
            let extras = rng.gen_range(0..=12);
            let mut g = NestGen::new(&mut rng, vec![DType::F64; 4], extras);
            let generated = g.plain_loop(case % 4);
            let n_iregs = g.iregs.len() as Reg;
            // The nest as generated, and as the block optimizer leaves it:
            // index arithmetic hoisted to each loop's entry and bumped.
            let plain = nest_function(&generated, &g.iregs, g.n_fregs, &g.dts);
            let mut optimized = crate::optimize::optimize_compiled(&plain).body.items;
            let hoisted = optimized.pop().expect("the prologue, then the nest");
            bumped += format!("{hoisted:?}").matches("bumps: [(").count();
            for root in [generated, hoisted] {
                let lives = live_ranges(&root, &mut walk);
                for pool in [&NEST_GPRS[..], &NEST_GPRS[..2], &[]] {
                    let gprs = plan_nest(&root, pool, &mut walk);
                    let plan = Resident::of_nest(&gprs);
                    let live = |r: Reg| lives.iter().find(|l| l.reg == r);
                    for (k, &(r, g)) in gprs.iter().enumerate() {
                        assert!(pool.contains(&g), "case {case}");
                        let l = live(r).expect("only a register with a live range is booked");
                        for &(other, h) in &gprs[..k] {
                            let o = live(other).expect("booked");
                            assert_ne!(other, r, "case {case}: booked twice");
                            let apart = l.end < o.start || o.end < l.start;
                            assert!(g != h || apart, "case {case}: {l:?} and {o:?} in {g:?}");
                            shared += (g == h) as u32;
                        }
                    }
                    // Whatever is not booked resolves to its place in `iregs`.
                    for r in 0..n_iregs {
                        if !gprs.iter().any(|e| e.0 == r) {
                            assert_eq!(plan.i(r), I::Mem(off(r)), "case {case}");
                            unbooked += live(r).is_some() as u32;
                        }
                    }
                    assert!(gprs.len() <= lives.len());
                    let mut replay = Replay {
                        plan: &plan,
                        holds: Vec::new(),
                        reads: 0,
                    };
                    replay.item(&root);
                    replayed += replay.reads;
                }
            }
        }
        assert!(bumped > 300, "{bumped}");
        assert!(shared > 1000 && unbooked > 1000 && replayed > 10_000);
    }

    #[test]
    fn classify_muladd_names_every_refusal() {
        use MulAdd::{Generic, Parallel, Reduction};
        let apart = [0, 1, 2];
        let once = |stored_once| Reduction { stored_once };
        // An aliased destination is refused before the stride pattern is
        // looked at. A stride-0 destination is a reduction whatever else
        // holds, stored once only when no factor reads its slot.
        let table = [
            (Parallel, apart, [1, 0, 1]),
            (Parallel, apart, [1, 1, 0]),
            (Parallel, apart, [1, 1, 1]),
            (Generic("aliased-dst"), [0, 0, 2], [1, 0, 1]),
            (Generic("aliased-dst"), [0, 1, 0], [1, 5, 1]),
            (Generic("stride-pattern"), apart, [1, 0, 0]),
            (Generic("stride-pattern"), apart, [2, 1, 1]),
            (Generic("stride-pattern"), apart, [1, 2, 1]),
            (Generic("stride-pattern"), apart, [-1, 1, 1]),
            (once(true), apart, [0, 1, 5]),
            (once(true), [0, 1, 1], [0, -2, 0]),
            (once(false), [0, 0, 1], [0, 1, 1]),
            (once(false), [0, 1, 0], [0, 1, 1]),
        ];
        for (want, slots, strides) in table {
            let [dst, a, b] = [0, 1, 2].map(|k| access(slots[k], k as Reg, strides[k]));
            let got = classify_muladd(&dst, &a, &b);
            assert_eq!(got, want, "{slots:?} {strides:?}");
        }
    }

    #[test]
    fn plan_jam_refuses_each_unproven_shape() {
        let planned = |nest: JamNest, shape| {
            let item = nest.item();
            let plan = plan_jam(&item, Width::new(shape));
            plan.map(|p| (p.inv.slot, p.vec.slot, p.inv_first, p.w))
        };
        let ok = || JamNest::new(27, true);
        let want = (1, 2, true, Width::new(Shape::Sse));
        assert_eq!(planned(ok(), Shape::Sse), Some(want));
        let want = (1, 2, false, Width::new(Shape::Avx));
        assert_eq!(planned(JamNest::new(45, false), Shape::Avx), Some(want));
        assert_eq!(planned(ok(), Shape::Scalar), None, "scalar tier");
        // Each refusal changes one thing about the accepted nest.
        let refuses = |why: &str, edit: &dyn Fn(&mut JamNest)| {
            let mut nest = ok();
            edit(&mut nest);
            assert_eq!(planned(nest, Shape::Sse), None, "{why}");
        };
        let dst_addr = |x| Instr::IBin(BinOp::Add, 9, x, 8);
        let mut trimmed = ok().item();
        if let Item::Loop { clamp, .. } = &mut trimmed {
            clamp.hi = Some((6, 0));
        }
        let sse = Width::new(Shape::Sse);
        assert!(plan_jam(&trimmed, sse).is_none(), "a trimmed loop");
        refuses("fewer than JAM k iterations", &|n| n.k = JAM - 1);
        refuses("a third body item", &|n| n.tail.push(Item::Code(vec![])));
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
}
