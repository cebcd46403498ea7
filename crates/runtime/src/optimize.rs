//! Bytecode block optimizer: fused multiply-add, loop trimming,
//! strided-pointer-bump loops, microkernel recognition, accumulator
//! forwarding, and level hoisting.
//!
//! [`compile_optimized`] is the optimizing counterpart of
//! [`crate::compile()`]: it first runs the TIR pass pipeline
//! ([`tvm_tir::optimize`] — strength reduction, guard unswitching LICM,
//! simplification, each re-verified), compiles the result, then applies
//! six bytecode-level transforms (numbered in the order they landed;
//! trimming runs before the strided rewrite so that rewrite sees the
//! straight-line body trimming leaves, forwarding on the strided body the
//! microkernel recognizer declined, level hoisting on each loop the
//! strided rewrite left a plain loop, innermost first):
//!
//! 1. **FMA peephole** — adjacent `FBin(Mul)`/`FBin(Add)` pairs whose
//!    product register has exactly one use fuse into
//!    [`Instr::FMulAdd`]. Rounding is preserved per-operation, so this
//!    is a dispatch optimization, not a numeric one.
//! 2. **Strided loops** — for each innermost loop whose body is
//!    straight-line code, integer registers that are *affine* in the
//!    loop variable (built from `+`, `-`, and multiplication by
//!    loop-invariant constants) are computed once for iteration 0 in a
//!    loop prelude and thereafter advanced by their constant
//!    per-iteration stride ([`Item::StridedLoop`]). This removes the
//!    per-element index arithmetic that `split`/`fuse` reconstruction
//!    leaves behind. Only pure instructions move: loads, stores, bounds
//!    checks and anything that can fail keep their original order, so
//!    outputs and error classification stay bit-identical.
//! 3. **Microkernel recognition** — a strided body of exactly
//!    `load dst; load a; load b; fmuladd; store dst` with known address
//!    strides becomes [`Item::MulAddLoop`], executed by tight slice
//!    kernels in the VM (a contiguous fast path, generic fallback). This
//!    is the 3mm/gemm hot loop.
//! 4. **Loop trimming** — a loop whose whole body is pure register code
//!    followed by one `If` without `else` on `var ⋄ e` (`⋄` one of `<`,
//!    `≤`, `>`, `≥`, either operand order, `e` an integer register the
//!    loop never writes) stops testing the guard on every iteration and
//!    instead visits only the iterations on which it holds: the compare
//!    is dropped, the `then` block becomes the body, and the loop carries
//!    a [`Clamp`] that [`crate::compile::live_range`] turns into
//!    `max(min, lo) .. min(min+extent, hi)` at loop entry. This is the
//!    triangular reduction of lu, cholesky and trmm (`for k in 0..N { if
//!    k < j { … } }`); with the `If` gone the body is straight-line, so
//!    transform 2 and the JIT's scalar strided template apply to it
//!    unchanged. The iterations removed are exactly those whose guard is
//!    false, on which the untrimmed loop executes pure code whose results
//!    nothing reads; the iterations kept run in the same ascending order
//!    with the same instruction sequence, so every reduction keeps its
//!    accumulation order and the first failing iteration, if any, is the
//!    same one. See [`try_trim`] for what is refused.
//! 5. **Accumulator forwarding** — a strided body that loads an element
//!    and later stores to the same element, at an address that does not
//!    move (`C[i,j] += …` with the reduction innermost: syrk, and lu,
//!    cholesky and trmm once trimmed), loses the load: *the value just
//!    stored is the value about to be loaded*, so the loop carries it in
//!    a register ([`Carry`]: load once before the first live iteration,
//!    `acc ← next` after each). The store stays in the body, every
//!    iteration, so memory is current at all times: another load of the
//!    slot that happens to alias the accumulator (lu and cholesky update
//!    `A` in place, trmm reads `B` twice) reads what it read before, and
//!    nothing has to be sunk, proven pure or proven alias-free. What it
//!    removes is the store→load round trip on the reduction's dependency
//!    chain. See [`try_forward`] for what is refused.
//! 6. **Level hoisting** — transform 2 at every other loop level. A loop
//!    that stays a plain [`Item::Loop`] gets a `pre` and `bumps` like a
//!    strided loop's: the pure integer instructions of its body's `Code`
//!    items, and of the `pre` of the strided loops and microkernels
//!    directly under it, that are affine in its variable move to `pre`
//!    (stride 0: hoisted; otherwise bumped after each iteration, unless
//!    only `pre` reads them). With the compiler's affine addresses
//!    (`compile.rs`: one register per distinct address, each partial sum
//!    at its own level) a `k` step of a small matmul tile is left with
//!    its multiply-adds and two `add r, imm`. See [`try_hoist`] for what
//!    is refused.
//!
//! Why the incremental address update is exact: a register classified
//! affine holds `base + i·s` at iteration `i`, so bumping by `s` per
//! iteration reproduces the recomputed value exactly (the intermediate
//! values are the same ones the scalar program computes, so overflow
//! behaviour is unchanged too). Registers defined inside a loop are
//! never read after it — the compiler places every consumer at its
//! operands' definition block — so post-loop register state is
//! unobservable; level hoisting checks it all the same ([`escaping`]).

use crate::compile::{
    compile_with_proofs, Block, Carry, Clamp, CompileError, CompiledFunc, Instr, Item, LoopKind,
    Reg, SlotAccess,
};
use std::collections::{HashMap, HashSet};
use tvm_te::{BinOp, CmpOp, DType};
use tvm_tir::PrimFunc;

/// Version tag of the bytecode engine (compiler + block optimizer +
/// VM). Bump on any change to instruction semantics or the optimizer.
pub(crate) const ENGINE_VERSION: &str = "vm/v6";

/// Fingerprint of the full optimization pipeline an execution engine
/// applies between TIR and measurement: the bytecode engine version,
/// the TIR pass-pipeline version, and the parallel-dispatch protocol
/// version. Memo caches and measurement journals embed this string so
/// results produced by one pipeline are never silently replayed under
/// another.
pub fn engine_fingerprint() -> String {
    format!(
        "{ENGINE_VERSION}+{}+{}",
        tvm_tir::PIPELINE_VERSION,
        crate::pool::PAR_VERSION
    )
}

/// Compile with the full optimization pipeline: TIR passes (falling
/// back to the unoptimized function if a pass or its verification
/// fails), bytecode compilation, then the block optimizer. Parallel
/// loops the dependence analyzer proves race-free are marked
/// dispatchable; the proof runs on whichever function actually
/// compiles, so pass-pipeline rewrites can't invalidate it silently.
pub fn compile_optimized(func: &PrimFunc) -> Result<CompiledFunc, CompileError> {
    use tvm_tir::analyze::deps::race_free_parallel_vars;
    if let Ok(opt) = tvm_tir::optimize(func) {
        if let Ok(cf) = compile_with_proofs(&opt, &race_free_parallel_vars(&opt)) {
            return Ok(optimize_compiled(&cf));
        }
    }
    // The optimized IR failed to compile (e.g. a rewrite surfaced a
    // short-circuit shape the compiler rejects): keep the scalar
    // engine's exact behaviour on the original function.
    compile_with_proofs(func, &race_free_parallel_vars(func)).map(|cf| optimize_compiled(&cf))
}

/// Apply the bytecode-level transforms to an already-compiled function.
pub fn optimize_compiled(cf: &CompiledFunc) -> CompiledFunc {
    let consts = collect_consts(&cf.body);
    let fuse = freg_use_counts(&cf.body);
    let vn = value_numbers(&cf.body);
    let escapes = escaping(&cf.body, cf.n_iregs);
    let dts: Vec<DType> = cf
        .params
        .iter()
        .map(|p| p.dtype)
        .chain(cf.allocs.iter().map(|(_, dt)| *dt))
        .collect();
    let body = optimize_block(&cf.body, &consts, &fuse, &vn, &dts, &escapes);
    cf.with_body(body)
}

/// Integer destination register of an instruction, if any.
pub(crate) fn int_dst(i: &Instr) -> Option<Reg> {
    match i {
        Instr::IConst(d, _)
        | Instr::FToI(d, _)
        | Instr::FBool(d, _)
        | Instr::IBin(_, d, _, _)
        | Instr::ICmp(_, d, _, _)
        | Instr::FCmp(_, d, _, _)
        | Instr::And(d, _, _)
        | Instr::Or(d, _, _)
        | Instr::Not(d, _)
        | Instr::ISel(d, _, _, _) => Some(*d),
        _ => None,
    }
}

/// `IConst` values: every `IConst` is an interned prologue constant
/// (single assignment, defined before any loop body that reads it).
fn collect_consts(b: &Block) -> HashMap<Reg, i64> {
    fn go(b: &Block, out: &mut HashMap<Reg, i64>) {
        for it in &b.items {
            match it {
                Item::Code(c) => {
                    for i in c {
                        if let Instr::IConst(r, v) = i {
                            out.insert(*r, *v);
                        }
                    }
                }
                Item::Loop { body, .. } => go(body, out),
                Item::If { then, else_, .. } => {
                    go(then, out);
                    if let Some(e) = else_ {
                        go(e, out);
                    }
                }
                Item::StridedLoop { .. } | Item::MulAddLoop { .. } | Item::JitCall { .. } => {}
            }
        }
    }
    let mut out = HashMap::new();
    go(b, &mut out);
    out
}

/// Float destination register of an instruction, if any.
pub(crate) fn float_dst(i: &Instr) -> Option<Reg> {
    match i {
        Instr::FConst(d, _)
        | Instr::IToF(d, _)
        | Instr::FBin(_, d, _, _)
        | Instr::FSel(d, _, _, _)
        | Instr::Call1(_, d, _)
        | Instr::Call2(_, d, _, _)
        | Instr::Load(d, _, _)
        | Instr::FMulAdd { dst: d, .. } => Some(*d),
        _ => None,
    }
}

/// The float registers an instruction reads (one entry per read).
pub(crate) fn float_uses(i: &Instr) -> impl Iterator<Item = Reg> {
    let uses = match *i {
        Instr::FToI(_, s) | Instr::FBool(_, s) => [Some(s), None, None],
        Instr::FBin(_, _, a, b) | Instr::FCmp(_, _, a, b) => [Some(a), Some(b), None],
        Instr::FSel(_, _, t, f) => [Some(t), Some(f), None],
        Instr::Call1(_, _, x) => [Some(x), None, None],
        Instr::Call2(_, _, x, y) => [Some(x), Some(y), None],
        Instr::Store(_, _, v) | Instr::StoreChecked { val: v, .. } => [Some(v), None, None],
        Instr::FMulAdd { add, a, b, .. } => [Some(add), Some(a), Some(b)],
        _ => [None, None, None],
    };
    uses.into_iter().flatten()
}

/// How many times each float register is read anywhere in the program
/// (gates the FMA peephole: the fused product register must be dead
/// outside the pair).
fn freg_use_counts(b: &Block) -> HashMap<Reg, usize> {
    fn go(b: &Block, out: &mut HashMap<Reg, usize>) {
        for it in &b.items {
            match it {
                Item::Code(c) => {
                    for r in c.iter().flat_map(float_uses) {
                        *out.entry(r).or_insert(0) += 1;
                    }
                }
                Item::Loop { body, .. } => go(body, out),
                Item::If { then, else_, .. } => {
                    go(then, out);
                    if let Some(e) = else_ {
                        go(e, out);
                    }
                }
                Item::StridedLoop { .. } | Item::MulAddLoop { .. } | Item::JitCall { .. } => {}
            }
        }
    }
    let mut out = HashMap::new();
    go(b, &mut out);
    out
}

/// Global value numbering over the integer register file: two registers
/// receive the same number iff they provably compute the same expression
/// (same constant, same loop variable, or the same operation over
/// value-equal operands). Sound because every non-loop-var register is
/// assigned exactly once and consumers live at (or below) their
/// operands' definition block, so number-equal registers read within one
/// loop body hold equal values in every iteration. Used to prove that a
/// load and a store address the same element when the compiler emitted
/// the index arithmetic twice (it performs no CSE).
fn value_numbers(b: &Block) -> HashMap<Reg, u32> {
    #[derive(Hash, PartialEq, Eq)]
    enum Key {
        Const(i64),
        Var(Reg),
        Opaque(Reg),
        Bin(u8, u32, u32),
    }
    struct Ctx {
        intern: HashMap<Key, u32>,
        vn: HashMap<Reg, u32>,
    }
    impl Ctx {
        fn id(&mut self, k: Key) -> u32 {
            let next = self.intern.len() as u32;
            *self.intern.entry(k).or_insert(next)
        }
        fn reg(&mut self, r: Reg) -> u32 {
            match self.vn.get(&r) {
                Some(&v) => v,
                None => {
                    let v = self.id(Key::Opaque(r));
                    self.vn.insert(r, v);
                    v
                }
            }
        }
    }
    fn go(b: &Block, cx: &mut Ctx) {
        for it in &b.items {
            match it {
                Item::Code(c) => {
                    for i in c {
                        match i {
                            Instr::IConst(d, v) => {
                                let id = cx.id(Key::Const(*v));
                                cx.vn.insert(*d, id);
                            }
                            Instr::IBin(op, d, a, b) => {
                                let (va, vb) = (cx.reg(*a), cx.reg(*b));
                                let id = cx.id(Key::Bin(*op as u8, va, vb));
                                cx.vn.insert(*d, id);
                            }
                            _ => {
                                if let Some(d) = int_dst(i) {
                                    let id = cx.id(Key::Opaque(d));
                                    cx.vn.insert(d, id);
                                }
                            }
                        }
                    }
                }
                Item::Loop { var, body, .. } => {
                    let id = cx.id(Key::Var(*var));
                    cx.vn.insert(*var, id);
                    go(body, cx);
                }
                Item::If { then, else_, .. } => {
                    go(then, cx);
                    if let Some(e) = else_ {
                        go(e, cx);
                    }
                }
                Item::StridedLoop { .. } | Item::MulAddLoop { .. } | Item::JitCall { .. } => {}
            }
        }
    }
    let mut cx = Ctx {
        intern: HashMap::new(),
        vn: HashMap::new(),
    };
    go(b, &mut cx);
    cx.vn
}

/// Fuse adjacent `mul`/`add` pairs into [`Instr::FMulAdd`]. The product
/// register must have exactly one use in the whole program (the add).
fn fma_peephole(code: &[Instr], fuse: &HashMap<Reg, usize>) -> Vec<Instr> {
    let mut out: Vec<Instr> = Vec::with_capacity(code.len());
    let mut i = 0;
    while i < code.len() {
        if let [Instr::FBin(BinOp::Mul, m, a, b), Instr::FBin(BinOp::Add, d, x, y), ..] = code[i..]
        {
            let add = if y == m && x != m {
                Some(x)
            } else if x == m && y != m {
                Some(y)
            } else {
                None
            };
            if let Some(add) = add {
                if fuse.get(&m).copied().unwrap_or(0) == 1 {
                    out.push(Instr::FMulAdd { dst: d, add, a, b });
                    i += 2;
                    continue;
                }
            }
        }
        out.push(code[i].clone());
        i += 1;
    }
    out
}

/// Per-iteration stride of an int register inside a loop over `var`:
/// the loop variable advances by 1, registers never written in the body
/// are invariant (stride 0), and registers the affine scan classified
/// carry their computed stride.
fn stride_of(
    r: Reg,
    var: Reg,
    written: &impl Fn(Reg) -> bool,
    strides: &HashMap<Reg, i64>,
) -> Option<i64> {
    if r == var {
        Some(1)
    } else if let Some(&s) = strides.get(&r) {
        Some(s)
    } else if !written(r) {
        Some(0)
    } else {
        None
    }
}

fn optimize_block(
    b: &Block,
    consts: &HashMap<Reg, i64>,
    fuse: &HashMap<Reg, usize>,
    vn: &HashMap<Reg, u32>,
    dts: &[DType],
    escapes: &[bool],
) -> Block {
    let items = b
        .items
        .iter()
        .map(|it| match it {
            Item::Code(c) => Item::Code(fma_peephole(c, fuse)),
            Item::If { cond, then, else_ } => Item::If {
                cond: *cond,
                then: optimize_block(then, consts, fuse, vn, dts, escapes),
                else_: else_
                    .as_ref()
                    .map(|e| optimize_block(e, consts, fuse, vn, dts, escapes)),
            },
            Item::Loop {
                var,
                min,
                extent,
                clamp,
                body,
                kind,
                ..
            } => {
                let body = optimize_block(body, consts, fuse, vn, dts, escapes);
                let (body, clamp) =
                    try_trim(*var, *extent, *kind, *clamp, &body).unwrap_or((body, *clamp));
                let strided =
                    try_strided(*var, *min, *extent, clamp, *kind, &body, consts, vn, dts);
                strided.unwrap_or_else(|| {
                    let (pre, bumps, body) = try_hoist(*var, *extent, *kind, body, consts, escapes);
                    Item::Loop {
                        var: *var,
                        min: *min,
                        extent: *extent,
                        clamp,
                        pre,
                        bumps,
                        body,
                        kind: *kind,
                    }
                })
            }
            other => other.clone(),
        })
        .collect();
    Block { items }
}

/// Can this instruction neither fail nor touch memory? Such an
/// instruction may run on fewer iterations unobserved, as long as nothing
/// outside those iterations reads its result.
fn is_pure(i: &Instr) -> bool {
    match i {
        Instr::IBin(op, ..) => !matches!(op, BinOp::Div | BinOp::FloorDiv | BinOp::FloorMod),
        Instr::IConst(..)
        | Instr::FConst(..)
        | Instr::IToF(..)
        | Instr::FToI(..)
        | Instr::FBool(..)
        | Instr::FBin(..)
        | Instr::ICmp(..)
        | Instr::FCmp(..)
        | Instr::And(..)
        | Instr::Or(..)
        | Instr::Not(..)
        | Instr::ISel(..)
        | Instr::FSel(..)
        | Instr::FMulAdd { .. } => true,
        Instr::Call1(..)
        | Instr::Call2(..)
        | Instr::Bound { .. }
        | Instr::Load(..)
        | Instr::Store(..)
        | Instr::StoreChecked { .. } => false,
    }
}

/// The integer registers an instruction reads, one call per read.
pub(crate) fn int_uses(i: &Instr, mut f: impl FnMut(Reg)) {
    match i {
        Instr::IToF(_, s) | Instr::Not(_, s) => f(*s),
        Instr::IBin(_, _, a, b)
        | Instr::ICmp(_, _, a, b)
        | Instr::And(_, a, b)
        | Instr::Or(_, a, b) => {
            f(*a);
            f(*b);
        }
        Instr::ISel(_, c, t, e) => {
            f(*c);
            f(*t);
            f(*e);
        }
        Instr::FSel(_, c, _, _) => f(*c),
        Instr::Bound { idx, .. } | Instr::StoreChecked { idx, .. } => {
            idx.iter().for_each(|&r| f(r))
        }
        Instr::Load(_, _, addr) | Instr::Store(_, addr, _) => f(*addr),
        Instr::IConst(..)
        | Instr::FConst(..)
        | Instr::FToI(..)
        | Instr::FBool(..)
        | Instr::FBin(..)
        | Instr::FCmp(..)
        | Instr::Call1(..)
        | Instr::Call2(..)
        | Instr::FMulAdd { .. } => {}
    }
}

/// Does this instruction read integer register `r`?
pub(crate) fn reads_ireg(i: &Instr, r: Reg) -> bool {
    let mut hit = false;
    int_uses(i, |u| hit |= u == r);
    hit
}

/// One step of [`int_accesses`].
#[derive(Clone, Copy, PartialEq)]
enum Access {
    Read(Reg),
    Write(Reg),
    /// A plain loop opens (its variable's write follows) and closes.
    EnterLoop,
    LeaveLoop,
}

/// Every integer register access in `b`, in program order: an
/// instruction's reads before its write, a loop's bumps as a read and a
/// write at its bottom. Returns `false` if `b` holds an already-jitted
/// nest, which is opaque.
fn int_accesses(b: &Block, f: &mut impl FnMut(Access)) -> bool {
    fn code(c: &[Instr], f: &mut impl FnMut(Access)) {
        for i in c {
            int_uses(i, |r| f(Access::Read(r)));
            int_dst(i).into_iter().for_each(|d| f(Access::Write(d)));
        }
    }
    fn entry(clamp: &Clamp, f: &mut impl FnMut(Access)) {
        for &(r, _) in [clamp.lo, clamp.hi].iter().flatten() {
            f(Access::Read(r));
        }
    }
    fn bottom(bumps: &[(Reg, i64)], f: &mut impl FnMut(Access)) {
        for &(r, _) in bumps {
            f(Access::Read(r));
            f(Access::Write(r));
        }
    }
    b.items.iter().all(|it| match it {
        Item::Code(c) => {
            code(c, f);
            true
        }
        Item::Loop {
            var,
            clamp,
            pre,
            bumps,
            body,
            ..
        } => {
            entry(clamp, f);
            f(Access::EnterLoop);
            f(Access::Write(*var));
            code(pre, f);
            let seen = int_accesses(body, f);
            bottom(bumps, f);
            f(Access::LeaveLoop);
            seen
        }
        Item::If { cond, then, else_ } => {
            f(Access::Read(*cond));
            int_accesses(then, f) && else_.as_ref().is_none_or(|e| int_accesses(e, f))
        }
        Item::StridedLoop {
            clamp,
            pre,
            bumps,
            body,
            carry,
            ..
        } => {
            code(pre, f);
            entry(clamp, f);
            carry.iter().for_each(|c| f(Access::Read(c.addr)));
            code(body, f);
            bottom(bumps, f);
            true
        }
        Item::MulAddLoop { pre, dst, a, b, .. } => {
            code(pre, f);
            [dst, a, b].iter().for_each(|acc| f(Access::Read(acc.addr)));
            true
        }
        Item::JitCall { .. } => false,
    })
}

/// Does anything in `b` read integer register `read` or write integer
/// register `written`? (Already-jitted nests are opaque: yes.)
fn block_touches(b: &Block, read: Reg, written: Reg) -> bool {
    let mut hit = false;
    let seen = int_accesses(b, &mut |a| {
        hit |= a == Access::Read(read) || a == Access::Write(written);
    });
    hit || !seen
}

/// Per integer register: may its value be seen where its one definition
/// does not reach — is it read outside the loop that holds the
/// definition, read before it in program order, or defined twice? The
/// compiler emits none of these (every consumer sits at or below its
/// operands' definition block); level hoisting leaves such a register
/// where it is instead of assuming so.
fn escaping(b: &Block, n_iregs: usize) -> Vec<bool> {
    const UNDEFINED: u32 = u32::MAX;
    const OUTSIDE_LOOPS: u32 = u32::MAX - 1;
    let mut escapes = vec![false; n_iregs];
    let mut defined_in = vec![UNDEFINED; n_iregs];
    let (mut open, mut loops) = (Vec::new(), 0u32);
    int_accesses(b, &mut |a| match a {
        Access::EnterLoop => {
            open.push(loops);
            loops += 1;
        }
        Access::LeaveLoop => {
            open.pop();
        }
        Access::Write(r) if defined_in[r as usize] == UNDEFINED => {
            defined_in[r as usize] = open.last().copied().unwrap_or(OUTSIDE_LOOPS);
        }
        Access::Write(r) => escapes[r as usize] = true,
        Access::Read(r) => {
            let held = defined_in[r as usize];
            escapes[r as usize] |= held != OUTSIDE_LOOPS && !open.contains(&held);
        }
    });
    escapes
}

/// Loop trimming (transform 4 of the module docs): turn a guard on the
/// loop's own variable into the loop's live range. Returns the new body
/// and clamp, or `None` to leave the loop exactly as it is. Refused:
///
/// - an `else` branch, or any body shape other than `[Code, If]`;
/// - a condition that is not a single integer `<`/`≤`/`>`/`≥` between
///   the loop variable and a register the loop never writes — a
///   conjunction (`cond` defined by `And`) or an affine left side
///   (`xo·T + xi < N`, the aggressive spaces' split tails) included;
/// - anything but the `If` reading the condition register;
/// - an instruction beside the compare that can fail or touch memory:
///   untrimmed it runs on every iteration, trimmed it would not;
/// - a proven-parallel loop with work to split: the pool chunks the
///   static range (the same rule [`try_strided`] applies);
/// - a loop that is already trimmed.
fn try_trim(
    var: Reg,
    extent: i64,
    kind: LoopKind,
    clamp: Clamp,
    body: &Block,
) -> Option<(Block, Clamp)> {
    if !clamp.is_none() || (matches!(kind, LoopKind::Parallel { proven: true }) && extent >= 2) {
        return None;
    }
    let [Item::Code(code), Item::If {
        cond,
        then,
        else_: None,
    }] = body.items.as_slice()
    else {
        return None;
    };
    let at = code.iter().position(|i| int_dst(i) == Some(*cond))?;
    let Instr::ICmp(op, _, a, b) = code[at] else {
        return None;
    };
    // `var ⋄ e`, or `e ⋄ var` read right to left.
    let (e, var_left) = if a == var {
        (b, true)
    } else if b == var {
        (a, false)
    } else {
        return None;
    };
    let (lo, hi) = match (op, var_left) {
        (CmpOp::Lt, true) | (CmpOp::Gt, false) => (None, Some((e, 0))),
        (CmpOp::Le, true) | (CmpOp::Ge, false) => (None, Some((e, 1))),
        (CmpOp::Gt, true) | (CmpOp::Lt, false) => (Some((e, 1)), None),
        (CmpOp::Ge, true) | (CmpOp::Le, false) => (Some((e, 0)), None),
        (CmpOp::Eq | CmpOp::Ne, _) => return None,
    };
    let mut head: Vec<Instr> = code.clone();
    head.remove(at);
    let pure = head.iter().all(is_pure);
    // Splice `then` after what is left of the code, as one `Code` item
    // when `then` opens with code: a straight-line body stays a single
    // item, which is what `try_strided` looks for.
    let mut items = then.items.clone();
    match items.first_mut() {
        Some(Item::Code(first)) => {
            head.append(first);
            *first = head;
        }
        _ if !head.is_empty() => items.insert(0, Item::Code(head)),
        _ => {}
    }
    // What is left is everything but the compare and the `If`: none of
    // it may read the guard's result or write the bound.
    let body = Block { items };
    if e == var || !pure || block_touches(&body, *cond, e) {
        return None;
    }
    Some((body, Clamp { lo, hi }))
}

/// Level hoisting (transform 6 of the module docs): what
/// [`try_strided`] does for the innermost loop, for a loop that stays a
/// plain [`Item::Loop`]. Returns the loop's `pre`, its `bumps` and the
/// body without the instructions that moved — no `pre` and the body as
/// it was when nothing moves. Candidates are the `IConst`s and the integer
/// `+`/`−`/`·` of the body's own `Code` items and of the `pre` of the
/// strided loops and microkernels directly under it, taken in program
/// order; one moves when its operands are the loop variable, registers
/// nothing in the body writes, or registers that moved before it, `·`
/// only by an interned constant — so its value is `base + var·s`, and
/// `s` is its bump (none for `s = 0`, none for a register only `pre`
/// itself reads). Refused:
///
/// - a proven-`Parallel` loop with work to split (the pool hands each
///   worker a copy of the registers as they were at loop entry), and a
///   loop that never runs;
/// - a register the body writes anywhere else: a second definition, a
///   leaf's own bump (the leaf steps it from the value its `pre` sets on
///   every entry), an inner loop's variable;
/// - a register that is [`escaping`]: read after the loop, it would show
///   one stride past the value the unhoisted loop leaves; read before its
///   definition, the previous iteration's value;
/// - anything that is not pure integer arithmetic, and everything when
///   the body holds an already-jitted nest or writes the loop variable.
fn try_hoist(
    var: Reg,
    extent: i64,
    kind: LoopKind,
    body: Block,
    consts: &HashMap<Reg, i64>,
    escapes: &[bool],
) -> (Vec<Instr>, Vec<(Reg, i64)>, Block) {
    let untouched = |body| (Vec::new(), Vec::new(), body);
    if extent < 1 || (matches!(kind, LoopKind::Parallel { proven: true }) && extent >= 2) {
        return untouched(body);
    }
    // Per register: the body's writes and reads of it.
    let mut touched = vec![(0u32, 0u32); escapes.len()];
    let seen = int_accesses(&body, &mut |a| match a {
        Access::Write(r) => touched[r as usize].0 += 1,
        Access::Read(r) => touched[r as usize].1 += 1,
        Access::EnterLoop | Access::LeaveLoop => {}
    });
    if !seen || touched[var as usize].0 > 0 {
        return untouched(body);
    }
    let written = |r: Reg| touched[r as usize].0 > 0;
    let mut strides: HashMap<Reg, i64> = HashMap::new();
    let mut pre: Vec<Instr> = Vec::new();
    // Keep the instructions of `code` that stay; the rest go to `pre`.
    let mut sift = |code: &mut Vec<Instr>| {
        code.retain(|instr| {
            let (d, s) = match *instr {
                Instr::IConst(d, _) => (d, Some(0)),
                Instr::IBin(op, d, a, b) => {
                    let sa = stride_of(a, var, &written, &strides);
                    let sb = stride_of(b, var, &written, &strides);
                    (d, affine_stride(op, (a, sa), (b, sb), consts, &written))
                }
                _ => (var, None),
            };
            match s {
                Some(s) if d != var && touched[d as usize].0 == 1 && !escapes[d as usize] => {
                    strides.insert(d, s);
                    pre.push(instr.clone());
                    false
                }
                _ => true,
            }
        })
    };
    let mut items = body.items;
    for it in &mut items {
        if let Item::Code(code)
        | Item::StridedLoop { pre: code, .. }
        | Item::MulAddLoop { pre: code, .. } = it
        {
            sift(code);
        }
    }
    items.retain(|it| !matches!(it, Item::Code(code) if code.is_empty()));
    // A register only `pre` reads needs no bump: nothing sees it move.
    for i in &pre {
        int_uses(i, |r| touched[r as usize].1 -= 1);
    }
    let mut bumps: Vec<(Reg, i64)> = strides
        .into_iter()
        .filter(|&(r, s)| s != 0 && touched[r as usize].1 > 0)
        .collect();
    bumps.sort_by_key(|&(r, _)| r); // deterministic order
    (pre, bumps, Block { items })
}

/// Per-iteration stride of `x op y` given its operands' strides (`None`:
/// not affine in the loop variable): `+`, `−`, and `·` by a constant the
/// loop never writes. Checked: a stride that overflows is not a stride.
fn affine_stride(
    op: BinOp,
    (a, sa): (Reg, Option<i64>),
    (b, sb): (Reg, Option<i64>),
    consts: &HashMap<Reg, i64>,
    written: &impl Fn(Reg) -> bool,
) -> Option<i64> {
    match op {
        BinOp::Add => sa.zip(sb).and_then(|(x, y)| x.checked_add(y)),
        BinOp::Sub => sa.zip(sb).and_then(|(x, y)| x.checked_sub(y)),
        BinOp::Mul => match (sa, sb) {
            (Some(0), Some(0)) => Some(0),
            (Some(x), _) if consts.contains_key(&b) && !written(b) => x.checked_mul(consts[&b]),
            (_, Some(y)) if consts.contains_key(&a) && !written(a) => y.checked_mul(consts[&a]),
            _ => None,
        },
        _ => None,
    }
}

/// Rewrite an innermost straight-line loop into strided-pointer-bump
/// form, and further into a multiply-accumulate microkernel when the
/// residual body matches. A trimmed loop (`clamp` set) is planned scalar
/// and never promoted to a microkernel: those keep a static extent. A
/// body that stays strided has its accumulator forwarded
/// ([`try_forward`]) when it carries one.
#[allow(clippy::too_many_arguments)]
fn try_strided(
    var: Reg,
    min: i64,
    extent: i64,
    clamp: Clamp,
    kind: LoopKind,
    body: &Block,
    consts: &HashMap<Reg, i64>,
    vn: &HashMap<Reg, u32>,
    dts: &[DType],
) -> Option<Item> {
    if extent < 1 {
        return None;
    }
    // A proven-parallel loop with work to split stays a plain `Loop` so
    // the VM can dispatch its chunks to the worker pool; `StridedLoop`
    // carries mutable register state across iterations and is only ever
    // run sequentially.
    if matches!(kind, LoopKind::Parallel { proven: true }) && extent >= 2 {
        return None;
    }
    let code = match body.items.as_slice() {
        [Item::Code(c)] => c,
        _ => return None,
    };
    let defined: HashSet<Reg> = code.iter().filter_map(int_dst).collect();
    let written = |r: Reg| defined.contains(&r);
    // Affine scan: which int registers advance by a constant stride per
    // iteration? Only pure `+`/`-`/`·const` chains qualify; their
    // defining instructions move to the loop prelude.
    let mut strides: HashMap<Reg, i64> = HashMap::new();
    let mut moved: Vec<bool> = vec![false; code.len()];
    for (idx, instr) in code.iter().enumerate() {
        let Instr::IBin(op, d, a, b) = instr else {
            continue;
        };
        let sa = stride_of(*a, var, &written, &strides);
        let sb = stride_of(*b, var, &written, &strides);
        let s = affine_stride(*op, (*a, sa), (*b, sb), consts, &written);
        if let Some(s) = s {
            strides.insert(*d, s);
            moved[idx] = true;
        }
    }
    let mut pre: Vec<Instr> = vec![Instr::IConst(var, min)];
    let mut rest: Vec<Instr> = Vec::new();
    for (idx, instr) in code.iter().enumerate() {
        if moved[idx] {
            pre.push(instr.clone());
        } else {
            rest.push(instr.clone());
        }
    }
    let mut bumps: Vec<(Reg, i64)> = vec![(var, 1)];
    bumps.extend(
        strides
            .iter()
            .filter(|(_, &s)| s != 0)
            .map(|(&r, &s)| (r, s)),
    );
    bumps.sort_by_key(|&(r, _)| r); // deterministic order
    if clamp.is_none() {
        if let Some(item) = try_muladd(extent, &pre, &rest, var, &written, &strides, vn) {
            return Some(item);
        }
    }
    if pre.len() <= 1 && clamp.is_none() {
        // Nothing hoisted and no microkernel: the plain loop is as good.
        // (Not so for a trimmed loop: the strided form is the one the
        // native backend has a dynamic-trip template for.)
        return None;
    }
    let fixed = |r: Reg| stride_of(r, var, &written, &strides) == Some(0);
    let (body, carry) = match try_forward(&rest, kind, &fixed, vn, dts) {
        Some((body, carry)) => (body, Some(carry)),
        None => (rest, None),
    };
    Some(Item::StridedLoop {
        min,
        extent,
        clamp,
        pre,
        bumps,
        body,
        carry,
        kind,
    })
}

/// Do two address registers provably hold the same value on every
/// iteration? The compiler emits index arithmetic once per access,
/// without CSE, so a load and a store of one element usually name
/// different registers that value numbering proves equal.
fn same_address(a: Reg, b: Reg, vn: &HashMap<Reg, u32>) -> bool {
    a == b || matches!((vn.get(&a), vn.get(&b)), (Some(x), Some(y)) if x == y)
}

/// Accumulator forwarding (transform 5 of the module docs): find
/// `Load(acc, s, ra)` … `Store(s, rb, next)` in a strided body with `ra`
/// and `rb` the same address, fixed for the whole loop (`fixed`: stride
/// 0), and return the body without the load plus the [`Carry`] that
/// replaces it. The store is kept. `None` leaves the body exactly as it
/// is. Refused:
///
/// - a loop that is proven `Parallel`: its iterations may be split
///   across workers, a carry is sequential state;
/// - any other write to slot `s` in the body (a second `Store`, a
///   `StoreChecked`): it may hit the accumulator's element behind the
///   register's back;
/// - a `Bound` check on slot `s`: the load's address is then not proven
///   in bounds, and the check must fail before the load, not after it;
/// - the load after the store, `acc` read before the load or defined
///   twice, `next` not defined exactly once in the body before the store
///   or read before that definition: not the reduction shape;
/// - `acc` read after `next` is defined: a native backend keeps both in
///   one machine register;
/// - a slot that is not `f64`: the store narrows the value to an
///   integer, a register would not.
fn try_forward(
    body: &[Instr],
    kind: LoopKind,
    fixed: &dyn Fn(Reg) -> bool,
    vn: &HashMap<Reg, u32>,
    dts: &[DType],
) -> Option<(Vec<Instr>, Carry)> {
    if kind == (LoopKind::Parallel { proven: true }) {
        return None;
    }
    let reads = |code: &[Instr], r: Reg| code.iter().flat_map(float_uses).any(|u| u == r);
    let defs = |r: Reg| body.iter().filter(|i| float_dst(i) == Some(r)).count();
    let carried = |st: usize, slot: u16, rb: Reg, next: Reg| -> Option<(usize, Carry)> {
        if !fixed(rb) {
            return None;
        }
        let clobbers = |(k, i): (usize, &Instr)| match i {
            Instr::Store(s, ..) => k != st && *s == slot,
            Instr::StoreChecked { buf, .. } | Instr::Bound { buf, .. } => *buf == slot,
            _ => false,
        };
        if body.iter().enumerate().any(clobbers) {
            return None;
        }
        let (ld, acc, addr) = body[..st].iter().enumerate().find_map(|(k, i)| match *i {
            Instr::Load(acc, s, ra) if s == slot && fixed(ra) && same_address(ra, rb, vn) => {
                Some((k, acc, ra))
            }
            _ => None,
        })?;
        let df = body[..st].iter().position(|i| float_dst(i) == Some(next))?;
        let shape = acc != next
            && defs(acc) == 1
            && defs(next) == 1
            && !reads(&body[..ld], acc)
            && !reads(&body[..df], next)
            && !reads(&body[df + 1..], acc);
        let exact = dts[slot as usize] == DType::F64;
        (shape && exact).then_some((
            ld,
            Carry {
                acc,
                slot,
                addr,
                next,
            },
        ))
    };
    let (ld, carry) = body.iter().enumerate().find_map(|(st, i)| match *i {
        Instr::Store(slot, rb, next) => carried(st, slot, rb, next),
        _ => None,
    })?;
    let mut body = body.to_vec();
    body.remove(ld);
    Some((body, carry))
}

/// Recognize the contiguous multiply-accumulate body
/// `dst[·] = dst[·] + a[·]·b[·]` left after address hoisting, with all
/// three address strides known.
fn try_muladd(
    extent: i64,
    pre: &[Instr],
    rest: &[Instr],
    var: Reg,
    written: &impl Fn(Reg) -> bool,
    strides: &HashMap<Reg, i64>,
    vn: &HashMap<Reg, u32>,
) -> Option<Item> {
    let [Instr::Load(c, slot_d, rc), Instr::Load(x, slot_a, ra), Instr::Load(y, slot_b, rb), Instr::FMulAdd { dst, add, a, b }, Instr::Store(slot_s, rs, vs)] =
        rest
    else {
        return None;
    };
    if add != c || slot_s != slot_d || vs != dst {
        return None;
    }
    // The store's address register usually differs from the load's (the
    // compiler emits index arithmetic twice, without CSE): accept it when
    // value numbering proves both registers compute the same expression,
    // and both advance by the same stride.
    if !same_address(*rc, *rs, vn) {
        return None;
    }
    // Map the microkernel's factor operands in the multiply's own order
    // so the slice kernel computes exactly `fregs[a] * fregs[b]`.
    let ((slot_a, ra), (slot_b, rb)) = if a == x && b == y {
        ((*slot_a, *ra), (*slot_b, *rb))
    } else if a == y && b == x {
        ((*slot_b, *rb), (*slot_a, *ra))
    } else {
        return None;
    };
    let sd = stride_of(*rc, var, written, strides)?;
    if stride_of(*rs, var, written, strides)? != sd {
        return None;
    }
    let sa = stride_of(ra, var, written, strides)?;
    let sb = stride_of(rb, var, written, strides)?;
    Some(Item::MulAddLoop {
        extent,
        pre: pre.to_vec(),
        dst: SlotAccess {
            slot: *slot_d,
            addr: *rc,
            stride: sd,
        },
        a: SlotAccess {
            slot: slot_a,
            addr: ra,
            stride: sa,
        },
        b: SlotAccess {
            slot: slot_b,
            addr: rb,
            stride: sb,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::ndarray::NDArray;
    use crate::{interp, vm};
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

    fn assert_three_way(f: &PrimFunc, args: &[NDArray]) {
        let mut a1: Vec<NDArray> = args.to_vec();
        let mut a2: Vec<NDArray> = args.to_vec();
        let mut a3: Vec<NDArray> = args.to_vec();
        let r1 = interp::execute(f, &mut a1);
        let scalar = compile(f).expect("compile");
        let r2 = vm::execute(&scalar, &mut a2);
        let opt = compile_optimized(f).expect("compile_optimized");
        let r3 = vm::execute(&opt, &mut a3);
        assert_eq!(r1, r2);
        assert_eq!(r1, r3, "optimized VM error must match interpreter");
        for ((x, y), z) in a1.iter().zip(&a2).zip(&a3) {
            assert_eq!(x, y);
            assert_eq!(x, z, "optimized VM output must be bit-identical");
        }
    }

    #[test]
    fn tiled_matmul_hits_microkernel_and_matches() {
        let f = matmul_func(16, 4);
        let opt = compile_optimized(&f).expect("compile_optimized");
        assert!(
            opt.microkernel_count() > 0,
            "tiled matmul inner loop must dispatch to the muladd microkernel"
        );
        let args = vec![
            NDArray::random(&[16, 16], DType::F64, 11, -1.0, 1.0),
            NDArray::random(&[16, 16], DType::F64, 12, -1.0, 1.0),
            NDArray::zeros(&[16, 16], DType::F64),
        ];
        assert_three_way(&f, &args);
    }

    #[test]
    fn untiled_and_ragged_matmuls_match() {
        for (n, tile) in [(8usize, 1i64), (10, 3), (12, 5)] {
            let f = matmul_func(n, tile);
            let args = vec![
                NDArray::random(&[n, n], DType::F64, 21, -1.0, 1.0),
                NDArray::random(&[n, n], DType::F64, 22, -1.0, 1.0),
                NDArray::zeros(&[n, n], DType::F64),
            ];
            assert_three_way(&f, &args);
        }
    }

    #[test]
    fn strided_transform_applies_to_tiled_nest() {
        let f = matmul_func(16, 4);
        let opt = compile_optimized(&f).expect("compile_optimized");
        assert!(opt.strided_loop_count() > 0);
        // The scalar program must be untouched by the optimized path.
        let scalar = compile(&f).expect("compile");
        assert_eq!(scalar.strided_loop_count(), 0);
    }

    #[test]
    fn fma_peephole_requires_single_use() {
        // d = m + m where m = a*b: the product register has two uses in
        // the add, so fusing would read a stale register. Must not fuse.
        let fuse: HashMap<Reg, usize> = [(2u32, 2usize)].into_iter().collect();
        let code = vec![
            Instr::FBin(BinOp::Mul, 2, 0, 1),
            Instr::FBin(BinOp::Add, 3, 2, 2),
        ];
        let out = fma_peephole(&code, &fuse);
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0], Instr::FBin(BinOp::Mul, ..)));
    }

    #[test]
    fn fma_peephole_fuses_single_use_product() {
        let fuse: HashMap<Reg, usize> = [(2u32, 1usize), (4, 1)].into_iter().collect();
        let code = vec![
            Instr::FBin(BinOp::Mul, 2, 0, 1),
            Instr::FBin(BinOp::Add, 3, 4, 2),
        ];
        let out = fma_peephole(&code, &fuse);
        assert_eq!(out.len(), 1);
        match &out[0] {
            Instr::FMulAdd { dst, add, a, b } => {
                assert_eq!((*dst, *add, *a, *b), (3, 4, 0, 1));
            }
            other => panic!("expected FMulAdd, got {other:?}"),
        }
    }

    /// `for r0 in 0..8 { r3 = r0 + r4; <extra>; r2 = cmp; if r2 { A[r3] = A[r3] } }`
    /// with `r1` the bound register (defined outside the loop).
    fn guarded_body(cmp: Instr, extra: Vec<Instr>, else_: Option<Block>) -> Block {
        let mut code = vec![Instr::IBin(BinOp::Add, 3, 0, 4)];
        code.extend(extra);
        code.push(cmp);
        Block {
            items: vec![
                Item::Code(code),
                Item::If {
                    cond: 2,
                    then: Block {
                        items: vec![Item::Code(vec![
                            Instr::Load(0, 0, 3),
                            Instr::Store(0, 3, 0),
                        ])],
                    },
                    else_,
                },
            ],
        }
    }

    fn trim(body: &Block) -> Option<(Block, Clamp)> {
        try_trim(0, 8, LoopKind::Serial, Clamp::default(), body)
    }

    #[test]
    fn every_comparison_trims_to_its_clamp_in_both_operand_orders() {
        let lo = |off| Clamp {
            lo: Some((1, off)),
            ..Clamp::default()
        };
        let hi = |off| Clamp {
            hi: Some((1, off)),
            ..Clamp::default()
        };
        // (op, loop variable on the left?) -> clamp on `var ⋄ r1` / `r1 ⋄ var`.
        let table = [
            (CmpOp::Lt, true, hi(0)),
            (CmpOp::Le, true, hi(1)),
            (CmpOp::Gt, true, lo(1)),
            (CmpOp::Ge, true, lo(0)),
            (CmpOp::Lt, false, lo(1)),
            (CmpOp::Le, false, lo(0)),
            (CmpOp::Gt, false, hi(0)),
            (CmpOp::Ge, false, hi(1)),
        ];
        for (op, var_left, want) in table {
            let (a, b) = if var_left { (0, 1) } else { (1, 0) };
            let body = guarded_body(Instr::ICmp(op, 2, a, b), vec![], None);
            let (trimmed, clamp) = trim(&body).unwrap_or_else(|| panic!("{op:?} must trim"));
            assert_eq!(clamp, want, "{op:?}, loop variable on the left: {var_left}");
            // The compare is gone and `then` follows the remaining code
            // in one straight-line item.
            let [Item::Code(c)] = trimmed.items.as_slice() else {
                panic!("{op:?}: body must be one Code item, got {trimmed:?}");
            };
            assert!(matches!(
                c.as_slice(),
                [
                    Instr::IBin(BinOp::Add, 3, 0, 4),
                    Instr::Load(0, 0, 3),
                    Instr::Store(0, 3, 0)
                ]
            ));
            // ... which the strided rewrite then takes, scalar-planned
            // and never as a microkernel.
            let item = try_strided(
                0,
                0,
                8,
                clamp,
                LoopKind::Serial,
                &trimmed,
                &HashMap::new(),
                &HashMap::new(),
                &[DType::F64],
            );
            assert!(matches!(item, Some(Item::StridedLoop { clamp: c, min: 0, .. }) if c == want));
        }
    }

    #[test]
    fn every_refusal_leaves_the_loop_untouched() {
        let lt = || Instr::ICmp(CmpOp::Lt, 2, 0, 1);
        let idx: Box<[Reg]> = vec![3].into_boxed_slice();
        let refused: Vec<(&str, Block)> = vec![
            (
                "else branch",
                guarded_body(lt(), vec![], Some(Block::default())),
            ),
            (
                "second reader of the condition",
                guarded_body(lt(), vec![Instr::Not(5, 2)], None),
            ),
            (
                "fallible division",
                guarded_body(lt(), vec![Instr::IBin(BinOp::FloorMod, 5, 0, 4)], None),
            ),
            (
                "bounds check",
                guarded_body(
                    lt(),
                    vec![Instr::Bound {
                        buf: 0,
                        extent: 8,
                        idx: idx.clone(),
                    }],
                    None,
                ),
            ),
            ("load", guarded_body(lt(), vec![Instr::Load(1, 0, 3)], None)),
            (
                "store",
                guarded_body(lt(), vec![Instr::Store(0, 3, 1)], None),
            ),
            (
                "checked store",
                guarded_body(
                    lt(),
                    vec![Instr::StoreChecked {
                        buf: 0,
                        idx,
                        val: 1,
                    }],
                    None,
                ),
            ),
            (
                "call",
                guarded_body(
                    lt(),
                    vec![Instr::Call1(tvm_te::Intrinsic::Sqrt, 1, 1)],
                    None,
                ),
            ),
            (
                "bound register written in the loop",
                guarded_body(lt(), vec![Instr::IBin(BinOp::Add, 1, 0, 4)], None),
            ),
            (
                "equality",
                guarded_body(Instr::ICmp(CmpOp::Eq, 2, 0, 1), vec![], None),
            ),
            (
                "variable against itself",
                guarded_body(Instr::ICmp(CmpOp::Lt, 2, 0, 0), vec![], None),
            ),
            (
                "affine left side",
                guarded_body(Instr::ICmp(CmpOp::Lt, 2, 3, 1), vec![], None),
            ),
            (
                "float compare",
                guarded_body(Instr::FCmp(CmpOp::Lt, 2, 0, 1), vec![], None),
            ),
            (
                "conjunction",
                guarded_body(
                    Instr::And(2, 5, 6),
                    vec![
                        Instr::ICmp(CmpOp::Lt, 5, 0, 1),
                        Instr::ICmp(CmpOp::Ge, 6, 0, 4),
                    ],
                    None,
                ),
            ),
        ];
        for (why, body) in &refused {
            assert!(trim(body).is_none(), "{why}: must not trim");
            // Through the optimizer the loop comes out exactly as it
            // went in (no trimming, an `If` in the body keeps the strided
            // rewrite away, and every register marked escaping keeps
            // level hoisting away).
            let item = Item::Loop {
                var: 0,
                min: 0,
                extent: 8,
                clamp: Clamp::default(),
                pre: vec![],
                bumps: vec![],
                body: body.clone(),
                kind: LoopKind::Serial,
            };
            let before = format!("{item:?}");
            let out = optimize_block(
                &Block { items: vec![item] },
                &HashMap::new(),
                &HashMap::new(),
                &HashMap::new(),
                &[DType::F64],
                &[true; 8],
            );
            assert_eq!(format!("{:?}", out.items[0]), before, "{why}");
        }
        // The guard read, or the bound written, inside `then`.
        let mut reads_in_then = guarded_body(lt(), vec![], None);
        let mut writes_in_then = reads_in_then.clone();
        for (body, instr) in [
            (&mut reads_in_then, Instr::IToF(1, 2)),
            (&mut writes_in_then, Instr::IConst(1, 0)),
        ] {
            let Item::If { then, .. } = &mut body.items[1] else {
                unreachable!()
            };
            then.items.push(Item::Code(vec![instr]));
            assert!(trim(body).is_none());
        }
        // A proven-parallel loop with work to split keeps its static
        // range for the pool; unproven or single-iteration ones trim,
        // and an already-trimmed loop is not trimmed again.
        let body = guarded_body(lt(), vec![], None);
        let proven = LoopKind::Parallel { proven: true };
        assert!(try_trim(0, 8, proven, Clamp::default(), &body).is_none());
        assert!(try_trim(0, 1, proven, Clamp::default(), &body).is_some());
        let unproven = LoopKind::Parallel { proven: false };
        assert!(try_trim(0, 8, unproven, Clamp::default(), &body).is_some());
        let (_, clamp) = trim(&body).expect("serial loop trims");
        assert!(try_trim(0, 8, LoopKind::Serial, clamp, &body).is_none());
    }

    #[test]
    fn trimmed_muladd_body_stays_a_strided_loop() {
        // trmm's guarded body matches the multiply-accumulate pattern;
        // the microkernels assume a static extent, so a trimmed loop
        // must stop at strided form.
        let rest = vec![
            Instr::Load(0, 0, 3),
            Instr::Load(1, 1, 3),
            Instr::Load(2, 2, 3),
            Instr::FMulAdd {
                dst: 3,
                add: 0,
                a: 1,
                b: 2,
            },
            Instr::Store(0, 3, 3),
        ];
        let mut code = vec![Instr::IBin(BinOp::Add, 3, 0, 4)];
        code.extend(rest);
        let body = Block {
            items: vec![Item::Code(code)],
        };
        let strided = |clamp| {
            try_strided(
                0,
                0,
                8,
                clamp,
                LoopKind::Serial,
                &body,
                &HashMap::new(),
                &HashMap::new(),
                &[DType::F64; 3],
            )
        };
        assert!(matches!(
            strided(Clamp::default()),
            Some(Item::MulAddLoop { .. })
        ));
        let clamp = Clamp {
            lo: Some((1, 1)),
            ..Clamp::default()
        };
        assert!(matches!(strided(clamp), Some(Item::StridedLoop { .. })));
    }

    /// lu's reduction as the strided rewrite sees it, over slot 0:
    /// `for r0 in 0..8 { A[r1] = A[r1] − A[r3 + r0] · A[r0·r5 + r4] }`,
    /// the store's address a second register (`r2`) that value numbering
    /// proves equal to the load's.
    fn reduction_body() -> Vec<Instr> {
        vec![
            Instr::IBin(BinOp::Add, 6, 3, 0),
            Instr::IBin(BinOp::Mul, 7, 0, 5),
            Instr::IBin(BinOp::Add, 8, 7, 4),
            Instr::Load(0, 0, 1),
            Instr::Load(1, 0, 6),
            Instr::Load(2, 0, 8),
            Instr::FBin(BinOp::Mul, 3, 1, 2),
            Instr::FBin(BinOp::Sub, 4, 0, 3),
            Instr::Store(0, 2, 4),
        ]
    }

    /// `for r0 in 0..8 { code }` through the block optimizer, with `r5`
    /// the constant 40 and `r1`/`r2` value-equal.
    fn optimize_loop(code: Vec<Instr>, kind: LoopKind, clamp: Clamp, dts: &[DType]) -> Item {
        let item = Item::Loop {
            var: 0,
            min: 0,
            extent: 8,
            clamp,
            pre: vec![],
            bumps: vec![],
            body: Block {
                items: vec![Item::Code(code)],
            },
            kind,
        };
        let consts: HashMap<Reg, i64> = [(5, 40)].into_iter().collect();
        let vn: HashMap<Reg, u32> = [(1, 100), (2, 100), (9, 101)].into_iter().collect();
        let mut out = optimize_block(
            &Block { items: vec![item] },
            &consts,
            &HashMap::new(),
            &vn,
            dts,
            &[false; 10],
        );
        out.items.remove(0)
    }

    /// The strided form of [`reduction_body`]-like code with nothing
    /// forwarded: every non-affine instruction still in the body.
    fn unforwarded(code: &[Instr], kind: LoopKind, clamp: Clamp) -> Item {
        Item::StridedLoop {
            min: 0,
            extent: 8,
            clamp,
            pre: vec![
                Instr::IConst(0, 0),
                Instr::IBin(BinOp::Add, 6, 3, 0),
                Instr::IBin(BinOp::Mul, 7, 0, 5),
                Instr::IBin(BinOp::Add, 8, 7, 4),
            ],
            bumps: vec![(0, 1), (6, 1), (7, 40), (8, 40)],
            body: code[3..].to_vec(),
            carry: None,
            kind,
        }
    }

    #[test]
    fn reduction_shaped_bodies_forward_their_accumulator() {
        let hi = Clamp {
            hi: Some((4, 0)),
            ..Clamp::default()
        };
        // lu / cholesky: `acc − a·b`, trimmed.
        let lu = reduction_body();
        // trmm: one fused multiply-add, trimmed.
        let mut trmm = reduction_body();
        trmm.splice(
            6..8,
            [Instr::FMulAdd {
                dst: 4,
                add: 0,
                a: 1,
                b: 2,
            }],
        );
        // syrk: `acc + (α·a)·b` with `α` an external register, static
        // extent (the microkernel recognizer declines the extra multiply).
        let mut syrk = reduction_body();
        syrk.splice(
            6..8,
            [
                Instr::FBin(BinOp::Mul, 3, 9, 1),
                Instr::FMulAdd {
                    dst: 4,
                    add: 0,
                    a: 3,
                    b: 2,
                },
            ],
        );
        let unproven = LoopKind::Parallel { proven: false };
        for (what, code, kind, clamp, dt) in [
            ("lu", lu, LoopKind::Serial, hi, DType::F64),
            ("trmm", trmm, LoopKind::Serial, hi, DType::F64),
            ("syrk", syrk, LoopKind::Serial, Clamp::default(), DType::F64),
            (
                "unproven parallel",
                reduction_body(),
                unproven,
                hi,
                DType::F64,
            ),
        ] {
            let Item::StridedLoop { body, carry, .. } =
                optimize_loop(code.clone(), kind, clamp, &[dt])
            else {
                panic!("{what}: must reach strided form");
            };
            assert_eq!(
                carry,
                Some(Carry {
                    acc: 0,
                    slot: 0,
                    addr: 1,
                    next: 4
                }),
                "{what}"
            );
            // Only the accumulator's load left the body; the store stays.
            let mut want = code[3..].to_vec();
            want.remove(0);
            assert_eq!(format!("{body:?}"), format!("{want:?}"), "{what}");
            assert!(matches!(body.last(), Some(Instr::Store(0, 2, 4))), "{what}");
        }
    }

    #[test]
    fn every_forwarding_refusal_leaves_the_strided_loop_untouched() {
        let edit = |f: &dyn Fn(&mut Vec<Instr>)| {
            let mut code = reduction_body();
            f(&mut code);
            code
        };
        let idx: Box<[Reg]> = vec![1].into_boxed_slice();
        let f64s = [DType::F64];
        let serial = LoopKind::Serial;
        let refused: Vec<(&str, Vec<Instr>, LoopKind, &[DType])> = vec![
            (
                "second store to the slot",
                edit(&|c| c.push(Instr::Store(0, 8, 3))),
                serial,
                &f64s,
            ),
            (
                "checked store to the slot",
                edit(&|c| {
                    c.push(Instr::StoreChecked {
                        buf: 0,
                        idx: idx.clone(),
                        val: 3,
                    })
                }),
                serial,
                &f64s,
            ),
            (
                "checked load",
                edit(&|c| {
                    c.insert(
                        3,
                        Instr::Bound {
                            buf: 0,
                            extent: 8,
                            idx: idx.clone(),
                        },
                    )
                }),
                serial,
                &f64s,
            ),
            (
                "load after the store",
                edit(&|c| {
                    let load = c.remove(3);
                    c[6] = Instr::FBin(BinOp::Sub, 4, 5, 3);
                    c.push(load);
                }),
                serial,
                &f64s,
            ),
            (
                "accumulator read after the stored value is defined",
                edit(&|c| c.insert(8, Instr::FBin(BinOp::Add, 5, 0, 4))),
                serial,
                &f64s,
            ),
            (
                "accumulator read before its load",
                edit(&|c| c.insert(3, Instr::FBin(BinOp::Add, 5, 0, 0))),
                serial,
                &f64s,
            ),
            (
                "stored value defined twice",
                edit(&|c| c.insert(8, Instr::FBin(BinOp::Mul, 4, 4, 1))),
                serial,
                &f64s,
            ),
            (
                "stored value read before it is defined",
                edit(&|c| c.insert(4, Instr::FBin(BinOp::Add, 5, 4, 4))),
                serial,
                &f64s,
            ),
            (
                "stored value defined outside the loop",
                edit(&|c| {
                    c.remove(7);
                }),
                serial,
                &f64s,
            ),
            (
                "addresses not provably equal",
                edit(&|c| c[8] = Instr::Store(0, 9, 4)),
                serial,
                &f64s,
            ),
            (
                "address that moves",
                edit(&|c| {
                    c[3] = Instr::Load(0, 0, 6);
                    c[8] = Instr::Store(0, 6, 4);
                }),
                serial,
                &f64s,
            ),
            ("integer slot", reduction_body(), serial, &[DType::I64]),
        ];
        let hi = Clamp {
            hi: Some((4, 0)),
            ..Clamp::default()
        };
        for (why, code, kind, dts) in refused {
            let got = optimize_loop(code.clone(), kind, hi, dts);
            let want = unforwarded(&code, kind, hi);
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{why}");
        }
        // A proven-parallel loop reaches strided form only with a single
        // iteration; it is not forwarded either.
        let proven = LoopKind::Parallel { proven: true };
        let fixed = |r: Reg| r == 1 || r == 2;
        let vn: HashMap<Reg, u32> = [(1, 100), (2, 100)].into_iter().collect();
        let rest = &reduction_body()[3..];
        assert!(try_forward(rest, proven, &fixed, &vn, &f64s).is_none());
        assert!(try_forward(rest, serial, &fixed, &vn, &f64s).is_some());
    }

    /// `for r0 in 0..8 { r3 = r0·r5; r4 = r3 + r1; <leaf over r7 = r4 + r6> }`
    /// with `r5` the constant 40, `r1` and `r2` the caller's: the shape
    /// level hoisting takes whole.
    fn hoistable_body(strided: bool) -> Block {
        let code = vec![
            Instr::IBin(BinOp::Mul, 3, 0, 5),
            Instr::IBin(BinOp::Add, 4, 3, 1),
        ];
        let leaf_pre = vec![Instr::IConst(6, 0), Instr::IBin(BinOp::Add, 7, 4, 6)];
        let leaf = if strided {
            Item::StridedLoop {
                min: 0,
                extent: 2,
                clamp: Clamp::default(),
                pre: leaf_pre,
                bumps: vec![(6, 1), (7, 1)],
                body: vec![Instr::Load(0, 0, 7), Instr::Store(1, 7, 0)],
                carry: None,
                kind: LoopKind::Serial,
            }
        } else {
            let at = |slot, addr, stride| SlotAccess { slot, addr, stride };
            Item::MulAddLoop {
                extent: 2,
                pre: leaf_pre,
                dst: at(0, 7, 1),
                a: at(1, 4, 0),
                b: at(2, 7, 1),
            }
        };
        Block {
            items: vec![Item::Code(code), leaf],
        }
    }

    /// What [`try_hoist`] moved out of `body`: the registers `pre` defines
    /// and the bumps, or `None` when the loop stays as it is.
    fn hoist(body: &Block, kind: LoopKind, extent: i64, escapes: &[bool]) -> Option<Hoisted> {
        let consts: HashMap<Reg, i64> = [(5, 40), (9, i64::MAX)].into_iter().collect();
        let (pre, bumps, rest) = try_hoist(0, extent, kind, body.clone(), &consts, escapes);
        let moved: Vec<Reg> = pre.iter().filter_map(int_dst).collect();
        if moved.is_empty() {
            // The loop comes back exactly as it went in.
            assert!(bumps.is_empty());
            assert_eq!(format!("{rest:?}"), format!("{body:?}"));
            return None;
        }
        Some((moved, bumps, rest))
    }
    type Hoisted = (Vec<Reg>, Vec<(Reg, i64)>, Block);

    #[test]
    fn level_hoisting_moves_what_is_affine_and_bumps_what_the_body_reads() {
        let serial = LoopKind::Serial;
        let (pre, bumps, rest) =
            hoist(&hoistable_body(false), serial, 8, &[false; 10]).expect("hoists");
        // Code and the microkernel's prelude, in program order; `r3` is
        // read by `pre` alone and `r6` does not move: neither is bumped.
        assert_eq!(pre, [3, 4, 6, 7]);
        assert_eq!(bumps, [(4, 40), (7, 40)]);
        let [Item::MulAddLoop { pre: left, .. }] = rest.items.as_slice() else {
            panic!("the emptied Code item goes, the leaf stays: {rest:?}");
        };
        assert!(left.is_empty());
        // A proven-parallel loop that never splits, an unproven one and a
        // trimmed one are plain sequential loops: through the optimizer
        // each carries the same `pre`.
        let unproven = LoopKind::Parallel { proven: false };
        for (kind, extent) in [(LoopKind::Parallel { proven: true }, 1), (unproven, 8)] {
            let moved = hoist(&hoistable_body(false), kind, extent, &[false; 10]);
            assert_eq!(moved.expect("hoists").0, pre, "{kind:?}");
        }
        let hi = Clamp {
            hi: Some((2, 0)),
            ..Clamp::default()
        };
        let item = Item::Loop {
            var: 0,
            min: 0,
            extent: 8,
            clamp: hi,
            pre: vec![],
            bumps: vec![],
            body: hoistable_body(false),
            kind: serial,
        };
        let consts: HashMap<Reg, i64> = [(5, 40)].into_iter().collect();
        let (none, dts) = (HashMap::new(), [DType::F64; 3]);
        let block = Block { items: vec![item] };
        let out = optimize_block(&block, &consts, &none, &HashMap::new(), &dts, &[false; 10]);
        assert!(matches!(
            &out.items[0],
            Item::Loop { clamp, pre, bumps, .. } if *clamp == hi && pre.len() == 4 && bumps.len() == 2
        ));
    }

    #[test]
    fn every_hoisting_refusal_leaves_the_register_where_it_is() {
        fn code(b: &mut Block) -> &mut Vec<Instr> {
            let Item::Code(c) = &mut b.items[0] else {
                unreachable!()
            };
            c
        }
        let serial = LoopKind::Serial;
        let free = [false; 12];
        let body = || hoistable_body(false);
        // The whole loop: nothing moves.
        let proven = LoopKind::Parallel { proven: true };
        assert!(hoist(&body(), proven, 8, &free).is_none(), "pool dispatch");
        assert!(hoist(&body(), serial, 0, &free).is_none(), "never runs");
        let mut jitted = body();
        jitted.items.push(Item::JitCall { entry: 0 });
        assert!(hoist(&jitted, serial, 8, &free).is_none(), "opaque nest");
        let mut stepped = body();
        code(&mut stepped).push(Instr::IBin(BinOp::Add, 0, 0, 1));
        assert!(
            hoist(&stepped, serial, 8, &free).is_none(),
            "writes its variable"
        );
        let mut nothing = body();
        nothing.items.truncate(1);
        nothing.items[0] = Item::Code(vec![Instr::Load(0, 0, 1)]);
        assert!(hoist(&nothing, serial, 8, &free).is_none(), "no candidate");
        // One register: it stays, and so does whatever is computed from
        // it; the rest moves as before. (registers left in `pre`, bumps)
        type Edit<'a> = &'a dyn Fn(&mut Block, &mut [bool; 12]);
        type Case<'a> = (&'a str, Edit<'a>, Vec<Reg>, Vec<(Reg, i64)>);
        let table: Vec<Case> = vec![
            (
                "a second definition in the body",
                &|b, _| {
                    b.items
                        .push(Item::Code(vec![Instr::IBin(BinOp::Add, 4, 3, 1)]))
                },
                vec![3, 6],
                vec![(3, 40)],
            ),
            (
                "the leaf bumps it",
                &|b, _| *b = hoistable_body(true),
                vec![3, 4],
                vec![(4, 40)],
            ),
            (
                "read after the loop, or before its definition",
                &|_, escapes| escapes[4] = true,
                vec![3, 6],
                vec![(3, 40)],
            ),
            (
                "a product of two registers",
                &|b, _| code(b)[0] = Instr::IBin(BinOp::Mul, 3, 0, 1),
                vec![6],
                vec![],
            ),
            (
                "a division",
                &|b, _| code(b)[1] = Instr::IBin(BinOp::FloorDiv, 4, 3, 5),
                vec![3, 6],
                vec![(3, 40)],
            ),
            (
                "a compare",
                &|b, _| code(b)[1] = Instr::ICmp(CmpOp::Lt, 4, 3, 1),
                vec![3, 6],
                vec![(3, 40)],
            ),
            (
                "a stride that overflows",
                &|b, _| {
                    code(b)[0] = Instr::IBin(BinOp::Mul, 3, 0, 9);
                    code(b)[1] = Instr::IBin(BinOp::Add, 4, 3, 3);
                },
                vec![3, 6],
                vec![(3, i64::MAX)],
            ),
            (
                "an operand an inner loop writes",
                &|b, _| {
                    let inner = Item::Loop {
                        var: 1,
                        min: 0,
                        extent: 2,
                        clamp: Clamp::default(),
                        pre: vec![],
                        bumps: vec![],
                        body: Block::default(),
                        kind: LoopKind::Serial,
                    };
                    b.items.insert(0, inner);
                    b.items.swap(0, 1);
                },
                vec![3, 6],
                vec![(3, 40)],
            ),
        ];
        for (why, edit, want_pre, want_bumps) in table {
            let (mut b, mut escapes) = (body(), free);
            edit(&mut b, &mut escapes);
            let (pre, bumps, rest) = hoist(&b, serial, 8, &escapes).expect(why);
            assert_eq!((pre, bumps), (want_pre.clone(), want_bumps), "{why}");
            // Nothing is lost: what did not move is still in the body.
            let mut left = 0;
            int_accesses(&rest, &mut |a| {
                left += matches!(a, Access::Write(_)) as usize
            });
            let mut before = 0;
            int_accesses(&b, &mut |a| {
                before += matches!(a, Access::Write(_)) as usize
            });
            assert_eq!(left + want_pre.len(), before, "{why}");
        }
    }

    #[test]
    fn a_register_escapes_when_a_read_may_miss_its_one_definition() {
        // r0 = const (outside every loop); for r1 { r2 = r1 + r0; for r3 {
        // r4 = r2 + r3; read r4 }; read r2 }; read r2 (after its loop);
        // r5 read before it is defined; r6 defined twice.
        let add = |d, a, b| Instr::IBin(BinOp::Add, d, a, b);
        let read = |r| Instr::IToF(0, r);
        let lp = |var, items| Item::Loop {
            var,
            min: 0,
            extent: 2,
            clamp: Clamp::default(),
            pre: vec![],
            bumps: vec![],
            body: Block { items },
            kind: LoopKind::Serial,
        };
        let inner = lp(3, vec![Item::Code(vec![add(4, 2, 3), read(4)])]);
        let outer = lp(
            1,
            vec![
                Item::Code(vec![add(2, 1, 0), read(5)]),
                inner,
                Item::Code(vec![read(2), add(5, 1, 0), add(6, 1, 0)]),
            ],
        );
        let block = Block {
            items: vec![
                Item::Code(vec![Instr::IConst(0, 7)]),
                outer,
                Item::Code(vec![read(2), read(0), add(6, 0, 0)]),
            ],
        };
        let escapes = escaping(&block, 8);
        assert_eq!(
            escapes,
            [false, false, true, false, false, true, true, false],
            "r2 after its loop, r5 before its definition, r6 twice"
        );
    }

    #[test]
    fn fingerprint_names_both_layers() {
        let fp = engine_fingerprint();
        assert!(fp.contains(ENGINE_VERSION));
        assert!(fp.contains(tvm_tir::PIPELINE_VERSION));
    }
}
