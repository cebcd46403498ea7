//! One-pass compiler from lowered TIR to a flat register program.
//!
//! [`compile`] turns a [`PrimFunc`] into a [`CompiledFunc`]: loop bounds are
//! resolved, every variable lives in a flat register file instead of a
//! `HashMap`, buffer accesses become precomputed strided offsets — an
//! affine address one register however many accesses name it, built from
//! partial sums that each sit at their own loop level — and pure
//! loop-invariant index arithmetic is hoisted into the enclosing loop's
//! preheader. An access is unchecked when its index registers' static
//! intervals — narrowed, under a conditional, by what the condition says of
//! that very index expression — lie inside the buffer. The companion
//! [`crate::vm`] executes the result with zero allocation in the steady
//! state.
//!
//! The compiler is *semantics-preserving with respect to the interpreter*:
//! for every function it accepts, the VM produces bit-identical outputs and
//! identical [`crate::interp::ExecError`]s. Anything it cannot prove it can
//! reproduce exactly (`Reduce` nodes, unbound variables, short-circuit
//! operands that may fail) is rejected with a [`CompileError`], and the
//! engine falls back to the interpreter — so fallback behaviour is *always*
//! the authoritative interpreter behaviour.

use std::collections::HashMap;
use tvm_te::{BinOp, CmpOp, DType, PrimExpr, Tensor};
use tvm_tir::analyze::interval::{constraints_from_guard, IntervalEnv};
use tvm_tir::{PrimFunc, Stmt};

/// Register index into the VM's `i64` or `f64` register file.
pub(crate) type Reg = u32;

/// Why a function could not be compiled (the engine then falls back to the
/// reference interpreter, which defines the authoritative behaviour).
#[derive(Debug, Clone, PartialEq)]
pub struct CompileError(pub String);

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot compile: {}", self.0)
    }
}

impl std::error::Error for CompileError {}

/// A single VM instruction. Register classes mirror the interpreter's
/// dynamic `Value` classes exactly: `I*` operate on the `i64` file, `F*` on
/// the `f64` file, and every cross-file move corresponds to an
/// `as_f64`/`as_i64`/`truthy` coercion the interpreter performs at the same
/// point.
#[derive(Debug, Clone)]
pub(crate) enum Instr {
    /// `ireg[dst] = v`
    IConst(Reg, i64),
    /// `freg[dst] = v`
    FConst(Reg, f64),
    /// `freg[dst] = ireg[src] as f64` (`Value::as_f64` on an int)
    IToF(Reg, Reg),
    /// `ireg[dst] = freg[src] as i64` (`Value::as_i64` on a float)
    FToI(Reg, Reg),
    /// `ireg[dst] = (freg[src] != 0.0) as i64` (`truthy` on a float)
    FBool(Reg, Reg),
    /// Integer binary op; `Div`/`FloorDiv`/`FloorMod` check for zero at
    /// runtime and fail with the interpreter's exact `BadExpr` messages.
    IBin(BinOp, Reg, Reg, Reg),
    /// Float binary op in `f64`.
    FBin(BinOp, Reg, Reg, Reg),
    /// Integer compare, result 0/1 in an int register.
    ICmp(CmpOp, Reg, Reg, Reg),
    /// Float compare, result 0/1 in an int register.
    FCmp(CmpOp, Reg, Reg, Reg),
    /// `ireg[dst] = (ireg[a] != 0 && ireg[b] != 0) as i64`
    And(Reg, Reg, Reg),
    /// `ireg[dst] = (ireg[a] != 0 || ireg[b] != 0) as i64`
    Or(Reg, Reg, Reg),
    /// `ireg[dst] = (ireg[a] == 0) as i64`
    Not(Reg, Reg),
    /// `freg[dst] = freg[x].sqrt()`
    Sqrt(Reg, Reg),
    /// Check `ireg[*idx.last()]` against `[0, extent)`; on failure report
    /// the index prefix evaluated so far (the interpreter's partial-index
    /// out-of-bounds shape for tensor reads).
    Bound {
        /// Storage slot.
        buf: u16,
        /// Extent of the checked dimension.
        extent: i64,
        /// Index registers for dimensions `0..=d` (last is checked).
        idx: Box<[Reg]>,
    },
    /// `freg[dst] = storage[buf].get_f64_linear(ireg[addr])`; the address
    /// is proven or checked in-bounds before this executes.
    Load(Reg, u16, Reg),
    /// Unchecked store at a proven-in-bounds linear address.
    Store(u16, Reg, Reg),
    /// Checked store: evaluates dims against the buffer shape in order,
    /// reporting the *full* index vector on failure (the interpreter's
    /// store semantics), then writes.
    StoreChecked {
        /// Storage slot.
        buf: u16,
        /// One index register per dimension.
        idx: Box<[Reg]>,
        /// Value register (`f64` file).
        val: Reg,
    },
    /// `freg[dst] = freg[add] + freg[a] * freg[b]`. This is a fused
    /// *instruction*, not a fused *rounding*: the product is rounded exactly
    /// as by the separate `FBin` pair it replaces, so results stay
    /// bit-identical to the unfused program (and the interpreter).
    FMulAdd {
        /// Destination (`f64` file).
        dst: Reg,
        /// Addend register.
        add: Reg,
        /// First factor.
        a: Reg,
        /// Second factor.
        b: Reg,
    },
}

/// Execution flavor of a loop, from the schedule's `ForKind`. `Unrolled`,
/// vectorized and thread-bound loops run serially on the CPU VM and in
/// the JIT, so they map to [`LoopKind::Serial`]: a vectorize annotation
/// decides what the analyzer prunes (`TIR-VEC-*`), not how the loop runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LoopKind {
    /// Ordinary sequential loop.
    Serial,
    /// Schedule-declared parallel loop. When `proven` is set the
    /// analyzer's race-freedom proof
    /// ([`tvm_tir::analyze::deps::race_free_parallel_vars`]) covers this
    /// loop, and the VM may chunk its iteration range across the
    /// persistent worker pool ([`crate::pool`]) — results stay
    /// bit-identical to sequential order because no element is touched
    /// by two distinct iterations with a write involved. Unproven
    /// parallel loops execute sequentially (with a counted fallback
    /// reason), and the optimizer must not reorder observable effects
    /// across either form.
    Parallel {
        /// Race-freedom proof carried from the analyzer.
        proven: bool,
    },
}

/// One buffer operand of a [`Item::MulAddLoop`] microkernel: the storage
/// slot, the register holding the linear address at iteration 0, and the
/// address stride per iteration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotAccess {
    pub(crate) slot: u16,
    pub(crate) addr: Reg,
    pub(crate) stride: i64,
}

/// Dynamic live range of a *trimmed* loop ([`crate::optimize`]'s loop
/// trimming): the loop body used to be guarded by `var ⋄ e`, and instead
/// of testing the guard on every iteration the loop visits only the
/// iterations on which it held. Each side names the integer register
/// holding `e` (never written inside the loop) and the offset that turns
/// the comparison into a half-open bound: `var ≥ e` / `var > e` give
/// `lo = (e, 0)` / `(e, 1)`, `var < e` / `var ≤ e` give `hi = (e, 0)` /
/// `(e, 1)`. The default — no bound on either side — is an ordinary
/// loop over its static range.
///
/// [`live_range`] is the only place the VM reads a clamp register, and
/// the x86-64 emitter's trimmed-loop template is that function in machine
/// code; nothing else may interpret a clamp.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Clamp {
    /// Iterate only where `var >= iregs[reg] + off`.
    pub(crate) lo: Option<(Reg, i64)>,
    /// Iterate only where `var < iregs[reg] + off`.
    pub(crate) hi: Option<(Reg, i64)>,
}

impl Clamp {
    /// Does the loop run its full static range?
    pub(crate) fn is_none(&self) -> bool {
        self.lo.is_none() && self.hi.is_none()
    }
}

/// The accumulator a *forwarded* strided loop carries in a register
/// ([`crate::optimize`]'s accumulator forwarding): the body used to open
/// with `Load(acc, slot, addr)` and still holds the `Store` of `next` to
/// the same element, whose address never moves. The value just stored is
/// the value the next iteration would load, so the `Load` is gone: if the
/// live range is non-empty, `acc` is loaded once before the first
/// iteration — behind the empty-range test, because the load's in-bounds
/// proof was made for iterations that run — and after each iteration
/// `fregs[acc] ← fregs[next]`. The `Store` runs every iteration, so
/// memory is current at all times and every other access of the slot
/// reads what it read before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Carry {
    /// Float register the dropped `Load` defined.
    pub(crate) acc: Reg,
    /// Storage slot of the accumulator element.
    pub(crate) slot: u16,
    /// Integer register holding its (loop-invariant) linear address.
    pub(crate) addr: Reg,
    /// Float register the body stores to that element.
    pub(crate) next: Reg,
}

/// The iterations `start..end` a loop over the static range
/// `[min, min+extent)` actually visits under `clamp`, with the clamp
/// registers read from `iregs` at loop entry.
///
/// **Invariant everything below the optimizer rests on:**
/// `min ≤ start ≤ end ≤ min+extent` for every register value, so the
/// live range is a subset of the static range. The compiler derived each
/// in-bounds proof (the reason the VM and the JIT may use unchecked
/// `Load`/`Store`) from the loop variable's static interval; visiting
/// fewer of those iterations keeps every proof valid, visiting any other
/// would not. Adds saturate, so a bound register holding `i64::MAX` or
/// `i64::MIN` clamps to the static range instead of wrapping into it.
pub(crate) fn live_range(min: i64, extent: i64, clamp: Clamp, iregs: &[i64]) -> (i64, i64) {
    let end = min.saturating_add(extent.max(0));
    let bound = |(reg, off): (Reg, i64), floor: i64| {
        iregs[reg as usize].saturating_add(off).clamp(floor, end)
    };
    let start = clamp.lo.map_or(min, |b| bound(b, min));
    (start, clamp.hi.map_or(end, |b| bound(b, start)))
}

/// One node of the structured program: straight-line code, a counted loop,
/// or a conditional. Loops keep their bodies as nested blocks so the VM
/// needs no jump resolution.
#[derive(Debug, Clone)]
pub(crate) enum Item {
    /// Straight-line instructions.
    Code(Vec<Instr>),
    /// `for ireg[var] in live_range(min, extent, clamp) { body }`. With a
    /// `pre` (the block optimizer's level hoisting): `pre` runs once per
    /// loop entry with the loop variable at the first live iteration, and
    /// after each iteration every register in `bumps` advances by its
    /// stride — the form [`Item::StridedLoop`] has, one level up.
    Loop {
        /// Loop variable register.
        var: Reg,
        /// Inclusive start of the static range.
        min: i64,
        /// Static trip count.
        extent: i64,
        /// Live range within the static one (none as compiled; set by
        /// the block optimizer's loop trimming).
        clamp: Clamp,
        /// Loop-entry prelude: the values, at the first live iteration,
        /// of the body's integer registers that are affine in the loop
        /// variable, in original program order (empty as compiled).
        pre: Vec<Instr>,
        /// `(register, per-iteration stride)` of the `pre` registers the
        /// body reads that move with the loop variable.
        bumps: Vec<(Reg, i64)>,
        /// Loop body.
        body: Block,
        /// Execution flavor (drives the block optimizer's choices).
        kind: LoopKind,
    },
    /// `if ireg[cond] != 0 { then } else { else_ }`
    If {
        /// Condition register (already truthy-normalised or raw int).
        cond: Reg,
        /// Taken branch.
        then: Block,
        /// Fallback branch.
        else_: Option<Block>,
    },
    /// An innermost loop rewritten by the block optimizer
    /// ([`crate::optimize`]) into strided-pointer-bump form: `pre` runs
    /// once per loop entry (loop variable set to `min`, affine index
    /// registers computed for iteration `min`), every register in `bumps`
    /// is advanced to the first live iteration (`(start − min)·stride`,
    /// nothing for an untrimmed loop), a non-empty live range loads the
    /// `carry` accumulator, then each live iteration runs `body`, forwards
    /// the carry and adds `stride` to every register in `bumps`.
    /// Registers defined inside an innermost loop are never read
    /// after it (the compiler emits consumers at the definition block), so
    /// the bumped registers' post-loop values are unobservable.
    StridedLoop {
        /// Inclusive start of the static range.
        min: i64,
        /// Static trip count.
        extent: i64,
        /// Live range within the static one (see [`Item::Loop`]).
        clamp: Clamp,
        /// Loop-entry prelude: loop-var init plus iteration-0 values of
        /// the affine registers, in original program order.
        pre: Vec<Instr>,
        /// `(register, per-iteration stride)` bumps applied after each
        /// iteration.
        bumps: Vec<(Reg, i64)>,
        /// Per-iteration instructions (everything non-affine; without
        /// the accumulator's `Load` when `carry` is set).
        body: Vec<Instr>,
        /// Accumulator forwarded from each iteration's store to the next
        /// iteration in a register (none as rewritten; set by the block
        /// optimizer's accumulator forwarding, never on a loop that is
        /// proven `Parallel`).
        carry: Option<Carry>,
        /// Original loop kind.
        kind: LoopKind,
    },
    /// A recognized contiguous multiply-accumulate inner loop:
    /// `dst[i·sd] = dst[i·sd] + a[i·sa] * b[i·sb]` for `extent`
    /// iterations. Executes as a tight slice microkernel; semantics
    /// (including accumulation order — strictly ascending, one element at a
    /// time) are bit-identical to the scalar instruction sequence it
    /// replaces.
    MulAddLoop {
        /// Trip count.
        extent: i64,
        /// Loop-entry prelude (computes the iteration-0 addresses).
        pre: Vec<Instr>,
        /// Destination/accumulator operand.
        dst: SlotAccess,
        /// First factor operand.
        a: SlotAccess,
        /// Second factor operand.
        b: SlotAccess,
    },
    /// A loop nest compiled to native machine code by a
    /// [`crate::codegen::CodegenBackend`]: the VM calls entry point
    /// `entry` of the owning function's [`crate::codegen::JitProgram`],
    /// passing its register files and storage base pointers. Emitted
    /// code is bit-exact with the items it replaced.
    JitCall {
        /// Entry-point index into [`CompiledFunc::jit`].
        entry: usize,
    },
}

/// A sequence of [`Item`]s.
#[derive(Debug, Clone, Default)]
pub(crate) struct Block {
    pub(crate) items: Vec<Item>,
}

/// Forwarded strided loops ([`Carry`]) among the bytecode items of `b`.
pub(crate) fn forwarded_in(b: &Block) -> usize {
    b.items
        .iter()
        .map(|it| match it {
            Item::Code(_) | Item::MulAddLoop { .. } | Item::JitCall { .. } => 0,
            Item::Loop { body, .. } => forwarded_in(body),
            Item::If { then, else_, .. } => {
                forwarded_in(then) + else_.as_ref().map_or(0, forwarded_in)
            }
            Item::StridedLoop { carry, .. } => carry.is_some() as usize,
        })
        .sum()
}

/// Parameter signature entry (drives the same arity/shape/dtype checks the
/// interpreter performs, in the same order).
#[derive(Debug, Clone)]
pub(crate) struct ParamSpec {
    pub(crate) name: String,
    pub(crate) shape: Vec<usize>,
    pub(crate) dtype: DType,
}

/// A compiled function: flat register program plus the metadata the VM
/// needs to validate arguments and allocate storage. Plain data —
/// `Send + Sync` — so evaluators can cache and share it across measurement
/// threads.
#[derive(Debug, Clone)]
pub struct CompiledFunc {
    pub(crate) name: String,
    pub(crate) params: Vec<ParamSpec>,
    /// Internal allocations (shape, dtype), slots after the params.
    pub(crate) allocs: Vec<(Vec<usize>, DType)>,
    /// Per storage slot: buffer name (error messages).
    pub(crate) slot_names: Vec<String>,
    /// Per storage slot: shape (checked stores).
    pub(crate) slot_shapes: Vec<Vec<usize>>,
    /// Per storage slot: row-major strides (checked stores).
    pub(crate) slot_strides: Vec<Vec<usize>>,
    pub(crate) n_iregs: usize,
    pub(crate) n_fregs: usize,
    pub(crate) body: Block,
    /// Native code for the function's [`Item::JitCall`]s, when a
    /// codegen backend compiled any loop nests (`None` on the plain
    /// interpreter/VM paths).
    pub(crate) jit: Option<std::sync::Arc<crate::codegen::JitProgram>>,
    /// Parallel-execution counters shared with the owning device
    /// ([`crate::pool::ParCounters`]); the VM records dispatches and
    /// sequential fallbacks here at execution time. `None` on paths
    /// that never parallelize (plain `compile`, the scalar rung).
    pub(crate) par: Option<std::sync::Arc<crate::pool::ParCounters>>,
}

impl CompiledFunc {
    /// Kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// This function over another body: a clone that never copies the
    /// body it is about to replace.
    pub(crate) fn with_body(&self, body: Block) -> CompiledFunc {
        CompiledFunc {
            name: self.name.clone(),
            params: self.params.clone(),
            allocs: self.allocs.clone(),
            slot_names: self.slot_names.clone(),
            slot_shapes: self.slot_shapes.clone(),
            slot_strides: self.slot_strides.clone(),
            n_iregs: self.n_iregs,
            n_fregs: self.n_fregs,
            body,
            jit: self.jit.clone(),
            par: self.par.clone(),
        }
    }

    /// Total instruction count (static, not dynamic).
    pub fn instr_count(&self) -> usize {
        fn count(b: &Block) -> usize {
            b.items
                .iter()
                .map(|it| match it {
                    Item::Code(c) => c.len(),
                    Item::Loop { pre, body, .. } => pre.len() + count(body),
                    Item::If { then, else_, .. } => count(then) + else_.as_ref().map_or(0, count),
                    Item::StridedLoop { pre, body, .. } => pre.len() + body.len(),
                    Item::MulAddLoop { pre, .. } => pre.len() + 1,
                    Item::JitCall { .. } => 1,
                })
                .sum()
        }
        count(&self.body)
    }

    /// Number of runtime bounds checks left after static elision (a proxy
    /// for how much of the index arithmetic was proven safe).
    pub fn bounds_check_count(&self) -> usize {
        fn in_code(c: &[Instr]) -> usize {
            c.iter()
                .filter(|i| matches!(i, Instr::Bound { .. } | Instr::StoreChecked { .. }))
                .count()
        }
        fn count(b: &Block) -> usize {
            b.items
                .iter()
                .map(|it| match it {
                    Item::Code(c) => in_code(c),
                    Item::Loop { body, .. } => count(body),
                    Item::If { then, else_, .. } => count(then) + else_.as_ref().map_or(0, count),
                    Item::StridedLoop { pre, body, .. } => in_code(pre) + in_code(body),
                    Item::MulAddLoop { pre, .. } => in_code(pre),
                    // Jitted nests contain no checks by construction.
                    Item::JitCall { .. } => 0,
                })
                .sum()
        }
        count(&self.body)
    }

    /// Number of innermost loops the block optimizer turned into
    /// strided-pointer-bump form (includes microkernel loops).
    pub fn strided_loop_count(&self) -> usize {
        fn count(b: &Block) -> usize {
            b.items
                .iter()
                .map(|it| match it {
                    Item::Code(_) | Item::JitCall { .. } => 0,
                    Item::Loop { body, .. } => count(body),
                    Item::If { then, else_, .. } => count(then) + else_.as_ref().map_or(0, count),
                    Item::StridedLoop { .. } | Item::MulAddLoop { .. } => 1,
                })
                .sum()
        }
        count(&self.body)
    }

    /// Number of loops the block optimizer trimmed to a dynamic live
    /// range (a guard on the loop's own variable turned into bounds).
    pub fn trimmed_loop_count(&self) -> usize {
        fn count(b: &Block) -> usize {
            b.items
                .iter()
                .map(|it| match it {
                    Item::Code(_) | Item::MulAddLoop { .. } | Item::JitCall { .. } => 0,
                    Item::Loop { clamp, body, .. } => !clamp.is_none() as usize + count(body),
                    Item::If { then, else_, .. } => count(then) + else_.as_ref().map_or(0, count),
                    Item::StridedLoop { clamp, .. } => !clamp.is_none() as usize,
                })
                .sum()
        }
        count(&self.body)
    }

    /// Number of plain loops the block optimizer hoisted index arithmetic
    /// out of (a `pre`, and bumps for what moves), still in bytecode.
    pub fn hoisted_loop_count(&self) -> usize {
        fn count(b: &Block) -> usize {
            b.items
                .iter()
                .map(|it| match it {
                    Item::Loop { pre, body, .. } => !pre.is_empty() as usize + count(body),
                    Item::If { then, else_, .. } => count(then) + else_.as_ref().map_or(0, count),
                    _ => 0,
                })
                .sum()
        }
        count(&self.body)
    }

    /// Number of conditionals left in bytecode (none inside a jitted
    /// nest: the native backend compiles an `If` whose arms it can).
    pub fn conditional_count(&self) -> usize {
        fn count(b: &Block) -> usize {
            b.items
                .iter()
                .map(|it| match it {
                    Item::Loop { body, .. } => count(body),
                    Item::If { then, else_, .. } => {
                        1 + count(then) + else_.as_ref().map_or(0, count)
                    }
                    _ => 0,
                })
                .sum()
        }
        count(&self.body)
    }

    /// Number of strided reduction loops whose accumulator the block
    /// optimizer forwards in a register instead of reloading it from the
    /// element every iteration just stored — still in bytecode, or
    /// compiled into this function's jitted nests.
    pub fn forwarded_loop_count(&self) -> usize {
        forwarded_in(&self.body) + self.jit.as_ref().map_or(0, |p| p.forwarded_loops)
    }

    /// Number of inner loops dispatched to the multiply-accumulate slice
    /// microkernel.
    pub fn microkernel_count(&self) -> usize {
        fn count(b: &Block) -> usize {
            b.items
                .iter()
                .map(|it| match it {
                    Item::Code(_) | Item::StridedLoop { .. } | Item::JitCall { .. } => 0,
                    Item::Loop { body, .. } => count(body),
                    Item::If { then, else_, .. } => count(then) + else_.as_ref().map_or(0, count),
                    Item::MulAddLoop { .. } => 1,
                })
                .sum()
        }
        count(&self.body)
    }

    /// Register file sizes `(int, float)`.
    pub fn reg_counts(&self) -> (usize, usize) {
        (self.n_iregs, self.n_fregs)
    }

    /// Number of loop nests compiled to native machine code (0 unless a
    /// [`crate::codegen::CodegenBackend`] processed this function).
    pub fn jit_nest_count(&self) -> usize {
        self.jit.as_ref().map_or(0, |p| p.nest_count())
    }

    /// Machine-code bytes backing this function's jitted nests.
    pub fn jit_code_bytes(&self) -> usize {
        self.jit.as_ref().map_or(0, |p| p.code_bytes())
    }

    /// The machine code backing this function's jitted nests.
    pub fn jit_code(&self) -> &[u8] {
        self.jit.as_ref().map_or(&[], |p| p.code())
    }

    /// Packed-SIMD emission report of this function's jitted nests
    /// (`None` unless a [`crate::codegen::CodegenBackend`] processed
    /// this function). The tests use it to assert non-vacuity — that a
    /// kernel actually took the packed path — without going through a
    /// device's aggregate counters.
    pub fn jit_simd_report(&self) -> Option<&crate::codegen::SimdReport> {
        self.jit.as_ref().map(|p| p.simd_report())
    }

    /// `(proven, unproven)` schedule-parallel loop counts. Proven loops
    /// carry the analyzer's race-freedom certificate and are eligible
    /// for worker-pool dispatch; unproven ones always run sequentially.
    /// Loops the optimizer rewrote to strided/microkernel form are
    /// included (they execute sequentially regardless of proof).
    pub fn parallel_loop_counts(&self) -> (usize, usize) {
        fn count(b: &Block, acc: &mut (usize, usize)) {
            for it in &b.items {
                match it {
                    Item::Code(_) | Item::MulAddLoop { .. } | Item::JitCall { .. } => {}
                    Item::Loop { body, kind, .. } => {
                        tally(kind, acc);
                        count(body, acc);
                    }
                    Item::If { then, else_, .. } => {
                        count(then, acc);
                        if let Some(e) = else_ {
                            count(e, acc);
                        }
                    }
                    Item::StridedLoop { kind, .. } => tally(kind, acc),
                }
            }
        }
        fn tally(kind: &LoopKind, acc: &mut (usize, usize)) {
            match kind {
                LoopKind::Parallel { proven: true } => acc.0 += 1,
                LoopKind::Parallel { proven: false } => acc.1 += 1,
                _ => {}
            }
        }
        let mut acc = (0, 0);
        count(&self.body, &mut acc);
        acc
    }
}

/// Register class, mirroring the interpreter's dynamic `Value` class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cls {
    I,
    F,
}

struct BlockBuilder {
    items: Vec<Item>,
}

impl BlockBuilder {
    fn new() -> BlockBuilder {
        BlockBuilder { items: Vec::new() }
    }

    fn push_instr(&mut self, i: Instr) {
        if let Some(Item::Code(c)) = self.items.last_mut() {
            c.push(i);
        } else {
            self.items.push(Item::Code(vec![i]));
        }
    }
}

struct Compiler {
    /// Open block stack; index 0 is the function prologue. Pure
    /// instructions are emitted into the outermost block where all their
    /// operands are defined (loop-invariant code motion); anything that can
    /// fail or touch memory stays in the innermost block to preserve the
    /// interpreter's error ordering.
    blocks: Vec<BlockBuilder>,
    /// Per int register: def position (block stack index) and known-value
    /// interval for bounds-check elision (`None` = unknown).
    idef: Vec<u32>,
    ival: Vec<Option<(i64, i64)>>,
    /// Per float register: def position.
    fdef: Vec<u32>,
    /// Interned integer/float constants (defined once in the prologue).
    iconsts: HashMap<i64, Reg>,
    fconsts: HashMap<u64, Reg>,
    /// Loop variable id -> register.
    env: HashMap<u64, Reg>,
    /// Loop-variable ids the analyzer proved race-free (parallel loops
    /// only; empty on the plain `compile` path).
    par_proven: std::collections::HashSet<u64>,
    /// Buffer id / TE op id -> storage slot.
    buf_slot: HashMap<u64, u16>,
    op_slot: HashMap<u64, u16>,
    slot_names: Vec<String>,
    slot_shapes: Vec<Vec<usize>>,
    slot_strides: Vec<Vec<usize>>,
    /// What the guards around the statement being compiled establish:
    /// `expr ∈ [lo, hi]` wherever that statement runs (see
    /// [`guard_facts`]).
    guards: Vec<(PrimExpr, i64, i64)>,
    /// Interned address arithmetic ([`Compiler::affine_addr`]): the one
    /// register holding `a · b` (the flag set) or `a + b`. Keyed by
    /// registers that die with their loop, so an entry is never looked up
    /// past the block that defines it.
    addr_ops: HashMap<(bool, Reg, Reg), Reg>,
}

/// Is `e` integer arithmetic over loop variables and literals alone — a
/// value nothing the guarded statement does can change?
fn index_only(e: &PrimExpr) -> bool {
    match e {
        PrimExpr::IntImm(..) | PrimExpr::Var(_) => true,
        PrimExpr::Binary(_, a, b) => !e.dtype().is_float() && index_only(a) && index_only(b),
        _ => false,
    }
}

/// The integer ranges `cond` holding pins down, by the analyzer's own
/// derivation ([`constraints_from_guard`]: comparisons against a constant
/// side, through `And` and `Not`; an `Or` says nothing), kept for the
/// expressions that are [`index_only`]. The interpreter evaluates exactly
/// these comparisons in `i64`, so inside the guarded statement every
/// evaluation of an expression structurally equal to one of them lies in
/// its range — the split tail `if (xo·T + xi < N) { … A[xo·T + xi] … }` is
/// the case that matters.
fn guard_facts(cond: &PrimExpr, out: &mut Vec<(PrimExpr, i64, i64)>) {
    let mut facts = Vec::new();
    constraints_from_guard(cond, &IntervalEnv::default(), &mut facts);
    let kept = facts.into_iter().filter(|c| index_only(&c.expr));
    out.extend(kept.map(|c| (c.expr, c.range.lo, c.range.hi)));
}

fn reject<T>(msg: impl Into<String>) -> Result<T, CompileError> {
    Err(CompileError(msg.into()))
}

impl Compiler {
    fn top(&self) -> usize {
        self.blocks.len() - 1
    }

    fn ireg_at(&mut self, def: usize, ival: Option<(i64, i64)>) -> Reg {
        let r = self.idef.len() as Reg;
        self.idef.push(def as u32);
        self.ival.push(ival);
        r
    }

    fn freg_at(&mut self, def: usize) -> Reg {
        let r = self.fdef.len() as Reg;
        self.fdef.push(def as u32);
        r
    }

    fn emit_at(&mut self, at: usize, i: Instr) {
        debug_assert!(at < self.blocks.len());
        self.blocks[at].push_instr(i);
    }

    fn emit(&mut self, i: Instr) {
        let top = self.top();
        self.emit_at(top, i);
    }

    /// Interned constant: defined once in the prologue (def position 0).
    fn iconst(&mut self, v: i64) -> Reg {
        if let Some(&r) = self.iconsts.get(&v) {
            return r;
        }
        let r = self.ireg_at(0, Some((v, v)));
        self.emit_at(0, Instr::IConst(r, v));
        self.iconsts.insert(v, r);
        r
    }

    fn fconst(&mut self, v: f64) -> Reg {
        if let Some(&r) = self.fconsts.get(&v.to_bits()) {
            return r;
        }
        let r = self.freg_at(0);
        self.emit_at(0, Instr::FConst(r, v));
        self.fconsts.insert(v.to_bits(), r);
        r
    }

    /// Exact value of an int register, when statically known.
    fn const_of(&self, r: Reg) -> Option<i64> {
        match self.ival[r as usize] {
            Some((lo, hi)) if lo == hi => Some(lo),
            _ => None,
        }
    }

    /// Coerce to the float file (`Value::as_f64`); pure, hoistable.
    fn coerce_f(&mut self, r: Reg, c: Cls) -> Reg {
        match c {
            Cls::F => r,
            Cls::I => {
                if let Some(v) = self.const_of(r) {
                    return self.fconst(v as f64);
                }
                let at = self.idef[r as usize] as usize;
                let dst = self.freg_at(at);
                self.emit_at(at, Instr::IToF(dst, r));
                dst
            }
        }
    }

    /// Coerce to the int file (`Value::as_i64`); pure, hoistable.
    fn coerce_i(&mut self, r: Reg, c: Cls) -> Reg {
        match c {
            Cls::I => r,
            Cls::F => {
                let at = self.fdef[r as usize] as usize;
                let dst = self.ireg_at(at, None);
                self.emit_at(at, Instr::FToI(dst, r));
                dst
            }
        }
    }

    /// Truthiness as a raw int register (`truthy`): int values are used
    /// directly (the VM tests `!= 0`), floats go through [`Instr::FBool`].
    fn truthy(&mut self, r: Reg, c: Cls) -> Reg {
        match c {
            Cls::I => r,
            Cls::F => {
                let at = self.fdef[r as usize] as usize;
                let dst = self.ireg_at(at, Some((0, 1)));
                self.emit_at(at, Instr::FBool(dst, r));
                dst
            }
        }
    }

    /// Can evaluating `e` produce an `ExecError` (or is it outside what we
    /// compile)? Conservative: used to reject short-circuit (`And`/`Or`)
    /// operands whose skipped evaluation the flat program cannot
    /// reproduce.
    fn failable(&self, e: &PrimExpr) -> bool {
        match e {
            PrimExpr::IntImm(..) | PrimExpr::FloatImm(..) | PrimExpr::BoolImm(_) => false,
            PrimExpr::Var(v) => !self.env.contains_key(&v.id),
            PrimExpr::Binary(op, a, b) => {
                let int_div = !e.dtype().is_float()
                    && matches!(op, BinOp::Div | BinOp::FloorDiv | BinOp::FloorMod)
                    && b.as_int().is_none_or(|y| y == 0);
                int_div || self.failable(a) || self.failable(b)
            }
            PrimExpr::Cmp(_, a, b) | PrimExpr::And(a, b) | PrimExpr::Or(a, b) => {
                self.failable(a) || self.failable(b)
            }
            PrimExpr::Not(a) | PrimExpr::Sqrt(a) => self.failable(a),
            PrimExpr::TensorRead(..) | PrimExpr::Reduce { .. } => true,
        }
    }

    /// Integer binary op with constant folding, interval tracking and
    /// hoisting. Division by a non-constant (or zero-constant) divisor is
    /// pinned to the innermost block so the interpreter's error ordering
    /// survives.
    fn ibin(&mut self, op: BinOp, a: Reg, b: Reg) -> Reg {
        let (ca, cb) = (self.const_of(a), self.const_of(b));
        if let (Some(x), Some(y)) = (ca, cb) {
            let folded = match op {
                BinOp::Add => x.checked_add(y),
                BinOp::Sub => x.checked_sub(y),
                BinOp::Mul => x.checked_mul(y),
                BinOp::Div if y != 0 => x.checked_div(y),
                BinOp::FloorDiv if y != 0 => x.checked_div_euclid(y),
                BinOp::FloorMod if y != 0 => x.checked_rem_euclid(y),
                BinOp::Min => Some(x.min(y)),
                BinOp::Max => Some(x.max(y)),
                _ => None,
            };
            if let Some(v) = folded {
                return self.iconst(v);
            }
        }
        let failable = matches!(op, BinOp::Div | BinOp::FloorDiv | BinOp::FloorMod)
            && cb.is_none_or(|y| y == 0);
        let ia = self.ival[a as usize];
        let ib = self.ival[b as usize];
        let interval = interval_of(op, ia, ib, cb);
        let at = if failable {
            self.top()
        } else {
            (self.idef[a as usize].max(self.idef[b as usize])) as usize
        };
        let dst = self.ireg_at(at, interval);
        self.emit_at(at, Instr::IBin(op, dst, a, b));
        dst
    }

    /// Intersect the known interval of `r`, the register `e` was just
    /// compiled into, with what the enclosing guards say of `e`. Only a
    /// register this evaluation alone reads is narrowed — the one `ibin`
    /// allocated last: the compiler shares no register but interned
    /// constants and loop variables, so every consumer of `r` sits inside
    /// the guards. (The instruction itself may be hoisted out of them; on
    /// the iterations where a guard fails it computes a value outside the
    /// interval that nothing reads.)
    fn narrow_by_guards(&mut self, e: &PrimExpr, r: Reg) {
        let fresh = r as usize + 1 == self.idef.len() && self.const_of(r).is_none();
        if fresh {
            self.ival[r as usize] = self.guarded(e, self.ival[r as usize]);
        }
    }

    /// `ival`, the interval arithmetic gives the value of `e`, intersected
    /// with what the enclosing guards say of `e`.
    fn guarded(&self, e: &PrimExpr, ival: Option<(i64, i64)>) -> Option<(i64, i64)> {
        let (mut lo, mut hi) = ival.unwrap_or((i64::MIN, i64::MAX));
        for (guarded, glo, ghi) in &self.guards {
            if guarded == e {
                (lo, hi) = (lo.max(*glo), hi.min(*ghi));
            }
        }
        // An empty range is a guard that never holds: claim nothing.
        let narrowed = lo <= hi && (lo, hi) != (i64::MIN, i64::MAX);
        if narrowed {
            Some((lo, hi))
        } else {
            ival
        }
    }

    /// Adds `scale · e` to the affine form `form` (terms `coefficient ·
    /// register` of the loop variables `e` names, and a constant) and
    /// returns the interval [`Compiler::compile_expr`] would give the
    /// register of `e` — without compiling it. `None` unless `e` is sums,
    /// differences and constant multiples of bound loop variables and
    /// literals, and the interval arithmetic bounds every node of it: then
    /// no operation of `e` can wrap, and its value is its form's. (The
    /// grammar of [`tvm_tir::passes::affine::affine_of`] less the
    /// quotients; walked here over registers because its `Var`s clone a
    /// name each, too dear for every access of every trial.)
    fn index_form(
        &self,
        e: &PrimExpr,
        scale: i64,
        form: &mut (Vec<(Reg, i64)>, i64),
    ) -> Option<(i64, i64)> {
        match e {
            PrimExpr::IntImm(v, _) => {
                form.1 = form.1.checked_add(scale.checked_mul(*v)?)?;
                Some((*v, *v))
            }
            PrimExpr::Var(v) => {
                let r = *self.env.get(&v.id)?;
                match form.0.iter_mut().find(|t| t.0 == r) {
                    Some(term) => term.1 = term.1.checked_add(scale)?,
                    None => form.0.push((r, scale)),
                }
                self.ival[r as usize]
            }
            PrimExpr::Binary(op, a, b) if !e.dtype().is_float() => {
                let (sa, sb) = match (op, a.as_int(), b.as_int()) {
                    (BinOp::Add, ..) => (scale, scale),
                    (BinOp::Sub, ..) => (scale, scale.checked_neg()?),
                    (BinOp::Mul, _, Some(c)) => (scale.checked_mul(c)?, 0),
                    (BinOp::Mul, Some(c), _) => (0, scale.checked_mul(c)?),
                    _ => return None,
                };
                let (ia, ib) = (self.index_form(a, sa, form)?, self.index_form(b, sb, form)?);
                let cb = (ib.0 == ib.1).then_some(ib.0);
                let (lo, hi) = interval_of(*op, Some(ia), Some(ib), cb)?;
                if lo == hi {
                    Some((lo, hi))
                } else {
                    self.guarded(e, Some((lo, hi)))
                }
            }
            _ => None,
        }
    }

    /// The linear address of an access whose every index is proven in
    /// bounds, compiled from its affine form `Σ cᵥ·v + k` instead of
    /// index by index: one interned multiply per (variable, coefficient),
    /// the terms added outermost-defined first so each partial sum settles
    /// at its own loop level, every sum interned — equal addresses (a
    /// cell's load and its store, the same cell of two arrays of one
    /// shape) are one register, and addresses that agree on their outer
    /// terms share those. `None` keeps the index-by-index path: an index
    /// that is not affine, not proven, or not bounded node by node.
    ///
    /// The interned registers are shared between statements, so no guard
    /// may narrow them ([`Compiler::narrow_by_guards`] never sees one: it
    /// is handed what `compile_expr` allocates); their intervals come from
    /// the loop variables' static ranges and hold wherever they are read.
    fn affine_addr(&mut self, idx: &[PrimExpr], shape: &[usize], strides: &[usize]) -> Option<Reg> {
        #[cfg(test)]
        if tests::INDEX_BY_INDEX.with(|on| on.get()) {
            return None;
        }
        let mut form = (Vec::with_capacity(4), 0i64);
        for ((e, &extent), &stride) in idx.iter().zip(shape).zip(strides) {
            let (lo, hi) = self.index_form(e, stride as i64, &mut form)?;
            if lo < 0 || hi >= extent as i64 {
                return None;
            }
        }
        let (vars, constant) = form;
        let mut terms: Vec<Reg> = Vec::with_capacity(vars.len() + 1);
        for (r, c) in vars {
            match c {
                0 => {}
                1 => terms.push(r),
                _ => {
                    let k = self.iconst(c);
                    terms.push(self.addr_op(BinOp::Mul, r, k));
                }
            }
        }
        if constant != 0 || terms.is_empty() {
            terms.push(self.iconst(constant));
        }
        terms.sort_by_key(|&r| self.idef[r as usize]);
        let sum = |acc, &t| self.addr_op(BinOp::Add, acc, t);
        Some(terms[1..].iter().fold(terms[0], sum))
    }

    /// The one register holding `a op b` (`·` or `+`) of an address.
    fn addr_op(&mut self, op: BinOp, a: Reg, b: Reg) -> Reg {
        let key = (op == BinOp::Mul, a, b);
        if let Some(&r) = self.addr_ops.get(&key) {
            return r;
        }
        let r = self.ibin(op, a, b);
        self.addr_ops.insert(key, r);
        r
    }

    fn compile_expr(&mut self, e: &PrimExpr) -> Result<(Reg, Cls), CompileError> {
        match e {
            PrimExpr::IntImm(v, _) => Ok((self.iconst(*v), Cls::I)),
            PrimExpr::FloatImm(v, _) => Ok((self.fconst(*v), Cls::F)),
            PrimExpr::BoolImm(b) => Ok((self.iconst(*b as i64), Cls::I)),
            PrimExpr::Var(v) => match self.env.get(&v.id) {
                Some(&r) => Ok((r, Cls::I)),
                None => reject(format!("unbound variable `{}`", v.name)),
            },
            PrimExpr::Binary(op, a, b) => {
                let dt = e.dtype();
                let (ra, ca) = self.compile_expr(a)?;
                let (rb, cb) = self.compile_expr(b)?;
                if dt.is_float() {
                    let fa = self.coerce_f(ra, ca);
                    let fb = self.coerce_f(rb, cb);
                    let at = (self.fdef[fa as usize].max(self.fdef[fb as usize])) as usize;
                    let dst = self.freg_at(at);
                    self.emit_at(at, Instr::FBin(*op, dst, fa, fb));
                    Ok((dst, Cls::F))
                } else {
                    let ia = self.coerce_i(ra, ca);
                    let ib = self.coerce_i(rb, cb);
                    let r = self.ibin(*op, ia, ib);
                    self.narrow_by_guards(e, r);
                    Ok((r, Cls::I))
                }
            }
            PrimExpr::Cmp(op, a, b) => {
                let float = a.dtype().unify(b.dtype()).is_float();
                let (ra, ca) = self.compile_expr(a)?;
                let (rb, cb) = self.compile_expr(b)?;
                if float {
                    let fa = self.coerce_f(ra, ca);
                    let fb = self.coerce_f(rb, cb);
                    let at = (self.fdef[fa as usize].max(self.fdef[fb as usize])) as usize;
                    let dst = self.ireg_at(at, Some((0, 1)));
                    self.emit_at(at, Instr::FCmp(*op, dst, fa, fb));
                    Ok((dst, Cls::I))
                } else {
                    let ia = self.coerce_i(ra, ca);
                    let ib = self.coerce_i(rb, cb);
                    if let (Some(x), Some(y)) = (self.const_of(ia), self.const_of(ib)) {
                        let r = match op {
                            CmpOp::Eq => x == y,
                            CmpOp::Ne => x != y,
                            CmpOp::Lt => x < y,
                            CmpOp::Le => x <= y,
                            CmpOp::Gt => x > y,
                            CmpOp::Ge => x >= y,
                        };
                        return Ok((self.iconst(r as i64), Cls::I));
                    }
                    let at = (self.idef[ia as usize].max(self.idef[ib as usize])) as usize;
                    let dst = self.ireg_at(at, Some((0, 1)));
                    self.emit_at(at, Instr::ICmp(*op, dst, ia, ib));
                    Ok((dst, Cls::I))
                }
            }
            PrimExpr::And(a, b) | PrimExpr::Or(a, b) => {
                // The interpreter short-circuits: `b` is only evaluated when
                // `a` doesn't decide the result. The flat program evaluates
                // both, which is only unobservable when `b` cannot fail.
                if self.failable(b) {
                    return reject("short-circuit operand may fail");
                }
                let (ra, ca) = self.compile_expr(a)?;
                let ta = self.truthy(ra, ca);
                let (rb, cb) = self.compile_expr(b)?;
                let tb = self.truthy(rb, cb);
                let at = (self.idef[ta as usize].max(self.idef[tb as usize])) as usize;
                let dst = self.ireg_at(at, Some((0, 1)));
                let instr = if matches!(e, PrimExpr::And(..)) {
                    Instr::And(dst, ta, tb)
                } else {
                    Instr::Or(dst, ta, tb)
                };
                self.emit_at(at, instr);
                Ok((dst, Cls::I))
            }
            PrimExpr::Not(a) => {
                let (ra, ca) = self.compile_expr(a)?;
                let ta = self.truthy(ra, ca);
                let at = self.idef[ta as usize] as usize;
                let dst = self.ireg_at(at, Some((0, 1)));
                self.emit_at(at, Instr::Not(dst, ta));
                Ok((dst, Cls::I))
            }
            PrimExpr::Sqrt(a) => {
                let (rx, cx) = self.compile_expr(a)?;
                let fx = self.coerce_f(rx, cx);
                let at = self.fdef[fx as usize] as usize;
                let dst = self.freg_at(at);
                self.emit_at(at, Instr::Sqrt(dst, fx));
                Ok((dst, Cls::F))
            }
            PrimExpr::TensorRead(t, idx) => self.compile_read(t, idx),
            PrimExpr::Reduce { .. } => reject("Reduce must be lowered before execution"),
        }
    }

    /// Compile a tensor read: per-dimension index code and bounds checks
    /// interleaved exactly like the interpreter (so a bad index in dim 1
    /// never masks an out-of-bounds in dim 0), address arithmetic hoisted.
    fn compile_read(&mut self, t: &Tensor, idx: &[PrimExpr]) -> Result<(Reg, Cls), CompileError> {
        let Some(&slot) = self.op_slot.get(&t.op.id) else {
            return reject(format!("tensor `{}` has no storage", t.name()));
        };
        let shape = self.slot_shapes[slot as usize].clone();
        if idx.len() != shape.len() {
            return reject(format!(
                "read of `{}` with {} indices, rank {}",
                t.name(),
                idx.len(),
                shape.len()
            ));
        }
        let strides = self.slot_strides[slot as usize].clone();
        if let Some(addr) = self.affine_addr(idx, &shape, &strides) {
            let dst = self.freg_at(self.top());
            self.emit(Instr::Load(dst, slot, addr));
            return Ok((dst, Cls::F));
        }
        let mut regs: Vec<Reg> = Vec::with_capacity(idx.len());
        for (d, ie) in idx.iter().enumerate() {
            let (r, c) = self.compile_expr(ie)?;
            let ir = self.coerce_i(r, c);
            regs.push(ir);
            let extent = shape[d] as i64;
            let proven = matches!(self.ival[ir as usize], Some((lo, hi)) if lo >= 0 && hi < extent);
            if !proven {
                self.emit(Instr::Bound {
                    buf: slot,
                    extent,
                    idx: regs.clone().into_boxed_slice(),
                });
            }
        }
        let addr = self.linear_addr(&regs, &strides);
        let top = self.top();
        let dst = self.freg_at(top);
        // Loads stay in the innermost block even when the address is
        // invariant: the buffer may be written inside the loop.
        self.emit(Instr::Load(dst, slot, addr));
        Ok((dst, Cls::F))
    }

    /// Row-major linear address as hoistable scalar arithmetic. Terms are
    /// summed outermost-defined first so partial sums settle in the
    /// shallowest possible loop (integer adds: reassociation is exact).
    fn linear_addr(&mut self, idx: &[Reg], strides: &[usize]) -> Reg {
        let mut terms: Vec<Reg> = Vec::with_capacity(idx.len());
        for (d, &r) in idx.iter().enumerate() {
            let s = strides[d] as i64;
            if s == 0 {
                continue; // zero-sized trailing dim: contributes nothing
            }
            if s == 1 {
                terms.push(r);
            } else {
                let sc = self.iconst(s);
                terms.push(self.ibin(BinOp::Mul, r, sc));
            }
        }
        if terms.is_empty() {
            return self.iconst(0);
        }
        terms.sort_by_key(|&r| self.idef[r as usize]);
        let mut acc = terms[0];
        for &t in &terms[1..] {
            acc = self.ibin(BinOp::Add, acc, t);
        }
        acc
    }

    fn compile_stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::For {
                var,
                min,
                extent,
                body,
                kind,
            } => {
                self.blocks.push(BlockBuilder::new());
                let at = self.top();
                let hi = if *extent >= 1 {
                    min.checked_add(extent - 1)
                } else {
                    Some(*min)
                };
                let vr = self.ireg_at(at, hi.map(|h| (*min, h)));
                let saved = self.env.insert(var.id, vr);
                let res = self.compile_stmt(body);
                match saved {
                    Some(prev) => {
                        self.env.insert(var.id, prev);
                    }
                    None => {
                        self.env.remove(&var.id);
                    }
                }
                let blk = self.blocks.pop().expect("loop block");
                res?;
                let item = Item::Loop {
                    var: vr,
                    min: *min,
                    extent: *extent,
                    clamp: Clamp::default(),
                    pre: Vec::new(),
                    bumps: Vec::new(),
                    body: Block { items: blk.items },
                    kind: match kind {
                        tvm_tir::ForKind::Parallel => LoopKind::Parallel {
                            proven: self.par_proven.contains(&var.id),
                        },
                        _ => LoopKind::Serial,
                    },
                };
                self.blocks
                    .last_mut()
                    .expect("parent block")
                    .items
                    .push(item);
                Ok(())
            }
            Stmt::BufferStore {
                buffer,
                indices,
                value,
            } => {
                // The interpreter evaluates the value before the indices.
                let (rv, cv) = self.compile_expr(value)?;
                let fv = self.coerce_f(rv, cv);
                let Some(&slot) = self.buf_slot.get(&buffer.id) else {
                    return reject(format!("no storage for `{}`", buffer.name));
                };
                let shape = self.slot_shapes[slot as usize].clone();
                if indices.len() != shape.len() {
                    return reject(format!(
                        "store to `{}` with {} indices, rank {}",
                        buffer.name,
                        indices.len(),
                        shape.len()
                    ));
                }
                let strides = self.slot_strides[slot as usize].clone();
                if let Some(addr) = self.affine_addr(indices, &shape, &strides) {
                    self.emit(Instr::Store(slot, addr, fv));
                    return Ok(());
                }
                let mut regs: Vec<Reg> = Vec::with_capacity(indices.len());
                for ie in indices {
                    let (r, c) = self.compile_expr(ie)?;
                    regs.push(self.coerce_i(r, c));
                }
                let all_proven = regs.iter().zip(shape.iter()).all(|(&r, &ext)| {
                    matches!(self.ival[r as usize], Some((lo, hi)) if lo >= 0 && hi < ext as i64)
                });
                if all_proven {
                    let addr = self.linear_addr(&regs, &strides);
                    self.emit(Instr::Store(slot, addr, fv));
                } else {
                    self.emit(Instr::StoreChecked {
                        buf: slot,
                        idx: regs.into_boxed_slice(),
                        val: fv,
                    });
                }
                Ok(())
            }
            Stmt::IfThenElse { cond, then, else_ } => {
                let (rc, cc) = self.compile_expr(cond)?;
                // A condition the compiler already decided needs no branch.
                if let Some(v) = if cc == Cls::I {
                    self.const_of(rc)
                } else {
                    None
                } {
                    return if v != 0 {
                        self.compile_stmt(then)
                    } else if let Some(e) = else_ {
                        self.compile_stmt(e)
                    } else {
                        Ok(())
                    };
                }
                let tc = self.truthy(rc, cc);
                // Each arm compiles under what the condition says there.
                let outer = self.guards.len();
                guard_facts(cond, &mut self.guards);
                self.blocks.push(BlockBuilder::new());
                let res = self.compile_stmt(then);
                let tb = self.blocks.pop().expect("then block");
                self.guards.truncate(outer);
                res?;
                let eb = match else_ {
                    Some(e) => {
                        let negated = PrimExpr::Not(std::sync::Arc::new(cond.clone()));
                        guard_facts(&negated, &mut self.guards);
                        self.blocks.push(BlockBuilder::new());
                        let res = self.compile_stmt(e);
                        let b = self.blocks.pop().expect("else block");
                        self.guards.truncate(outer);
                        res?;
                        Some(Block { items: b.items })
                    }
                    None => None,
                };
                let item = Item::If {
                    cond: tc,
                    then: Block { items: tb.items },
                    else_: eb,
                };
                self.blocks
                    .last_mut()
                    .expect("parent block")
                    .items
                    .push(item);
                Ok(())
            }
            Stmt::Seq(items) => {
                for st in items {
                    self.compile_stmt(st)?;
                }
                Ok(())
            }
            Stmt::Nop => Ok(()),
        }
    }
}

/// Interval arithmetic for int ops (`None` = unknown). Overflow makes the
/// interval unknown rather than wrong.
fn interval_of(
    op: BinOp,
    a: Option<(i64, i64)>,
    b: Option<(i64, i64)>,
    bconst: Option<i64>,
) -> Option<(i64, i64)> {
    match op {
        BinOp::Add => {
            let ((al, ah), (bl, bh)) = (a?, b?);
            Some((al.checked_add(bl)?, ah.checked_add(bh)?))
        }
        BinOp::Sub => {
            let ((al, ah), (bl, bh)) = (a?, b?);
            Some((al.checked_sub(bh)?, ah.checked_sub(bl)?))
        }
        BinOp::Mul => {
            let ((al, ah), (bl, bh)) = (a?, b?);
            let p = [
                al.checked_mul(bl)?,
                al.checked_mul(bh)?,
                ah.checked_mul(bl)?,
                ah.checked_mul(bh)?,
            ];
            Some((*p.iter().min().unwrap(), *p.iter().max().unwrap()))
        }
        BinOp::Min => {
            let ((al, ah), (bl, bh)) = (a?, b?);
            Some((al.min(bl), ah.min(bh)))
        }
        BinOp::Max => {
            let ((al, ah), (bl, bh)) = (a?, b?);
            Some((al.max(bl), ah.max(bh)))
        }
        // Monotone for positive constant divisors; that covers lowering's
        // split-factor arithmetic.
        BinOp::Div => {
            let c = bconst.filter(|&c| c > 0)?;
            let (al, ah) = a?;
            Some((al / c, ah / c))
        }
        BinOp::FloorDiv => {
            let c = bconst.filter(|&c| c > 0)?;
            let (al, ah) = a?;
            Some((al.div_euclid(c), ah.div_euclid(c)))
        }
        BinOp::FloorMod => {
            let c = bconst.filter(|&c| c > 0)?;
            Some((0, c - 1))
        }
    }
}

/// Compile `func` to a register program, or explain why it must run on the
/// interpreter instead.
///
/// Every schedule-parallel loop is marked *unproven* (it executes
/// sequentially): this entry backs the scalar rung, whose `vm/v6`
/// fingerprint promises sequential semantics. The optimized pipeline
/// threads race-freedom proofs through [`compile_with_proofs`].
pub fn compile(func: &PrimFunc) -> Result<CompiledFunc, CompileError> {
    compile_with_proofs(func, &std::collections::HashSet::new())
}

/// [`compile`], with the analyzer's race-freedom proof set
/// ([`tvm_tir::analyze::deps::race_free_parallel_vars`]) threaded into
/// the loop metadata: a `ForKind::Parallel` loop whose variable id is in
/// `par_proven` compiles to `LoopKind::Parallel { proven: true }` and
/// becomes eligible for worker-pool dispatch.
pub(crate) fn compile_with_proofs(
    func: &PrimFunc,
    par_proven: &std::collections::HashSet<u64>,
) -> Result<CompiledFunc, CompileError> {
    let n_slots = func.params.len() + func.allocs.len();
    if n_slots > u16::MAX as usize {
        return reject("too many buffers");
    }
    let mut buf_slot = HashMap::new();
    let mut op_slot = HashMap::new();
    let mut slot_names = Vec::with_capacity(n_slots);
    let mut slot_shapes = Vec::with_capacity(n_slots);
    let mut slot_strides = Vec::with_capacity(n_slots);
    for (i, b) in func.params.iter().chain(func.allocs.iter()).enumerate() {
        buf_slot.insert(b.id, i as u16);
        if b.source_op != 0 {
            op_slot.insert(b.source_op, i as u16);
        }
        slot_names.push(b.name.clone());
        slot_shapes.push(b.shape.clone());
        slot_strides.push(b.strides());
    }
    let mut c = Compiler {
        blocks: vec![BlockBuilder::new()],
        idef: Vec::new(),
        ival: Vec::new(),
        fdef: Vec::new(),
        iconsts: HashMap::new(),
        fconsts: HashMap::new(),
        env: HashMap::new(),
        par_proven: par_proven.clone(),
        buf_slot,
        op_slot,
        slot_names,
        slot_shapes,
        slot_strides,
        guards: Vec::new(),
        addr_ops: HashMap::new(),
    };
    c.compile_stmt(&func.body)?;
    debug_assert_eq!(c.blocks.len(), 1);
    let root = c.blocks.pop().expect("root block");
    Ok(CompiledFunc {
        name: func.name.clone(),
        params: func
            .params
            .iter()
            .map(|b| ParamSpec {
                name: b.name.clone(),
                shape: b.shape.clone(),
                dtype: b.dtype,
            })
            .collect(),
        allocs: func
            .allocs
            .iter()
            .map(|b| (b.shape.clone(), b.dtype))
            .collect(),
        slot_names: c.slot_names,
        slot_shapes: c.slot_shapes,
        slot_strides: c.slot_strides,
        n_iregs: c.idef.len(),
        n_fregs: c.fdef.len(),
        body: Block { items: root.items },
        jit: None,
        par: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_te::{compute, placeholder, reduce_axis, sum, Schedule};
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

    thread_local! {
        /// Compile every address index by index, as `vm/v5` did: the
        /// oracle the affine addresses are compared against.
        pub(super) static INDEX_BY_INDEX: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    fn compile_index_by_index(f: &PrimFunc) -> CompiledFunc {
        INDEX_BY_INDEX.with(|on| on.set(true));
        let cf = compile(f);
        INDEX_BY_INDEX.with(|on| on.set(false));
        cf.expect("compile")
    }

    #[test]
    fn affine_addresses_compute_what_the_index_by_index_ones_did() {
        use tvm_tir::builder::{seq, ser, store, when, FuncBuilder};
        // Tiled and ragged matmuls (split tails under their guard), and a
        // nest whose accesses differ by a constant, repeat an address in
        // two arrays and go through an exact quotient: the same arrays as
        // the interpreter and as the index-by-index compile, with the
        // same bounds checks and fewer instructions.
        let mut funcs: Vec<(String, PrimFunc, Vec<usize>)> = Vec::new();
        for (n, tile) in [(8usize, 1i64), (16, 4), (10, 3), (12, 5)] {
            funcs.push((
                format!("matmul {n}/{tile}"),
                matmul_func(n, tile),
                vec![n, n],
            ));
        }
        let a = placeholder([6, 10], DType::F64, "A");
        let b = placeholder([6, 10], DType::F64, "B");
        let mut fb = FuncBuilder::new("stencil");
        let (ab, bb) = (fb.param(&a), fb.param(&b));
        let body = ser("i", 6, |i| {
            ser("j", 4, |j| {
                let (at, next) = (
                    [i.clone(), j.clone() * 2i64],
                    [i.clone(), j.clone() * 2i64 + 1i64],
                );
                let halved = [(i.clone() * 2i64) / 2i64, j.clone() + 5i64];
                seq([
                    store(&bb, &at, a.at(&at) + a.at(&next)),
                    store(&ab, &next, b.at(&at) * a.at(&halved)),
                    when(
                        PrimExpr::cmp(
                            CmpOp::Lt,
                            j.clone() * 3i64 + i.clone(),
                            PrimExpr::IntImm(10, DType::I64),
                        ),
                        store(&bb, &[i.clone(), j.clone() * 3i64 + i.clone()], a.at(&at)),
                    ),
                ])
            })
        });
        funcs.push(("stencil".into(), fb.build(body), vec![6, 10]));
        for (what, f, shape) in funcs {
            let args: Vec<crate::NDArray> = (0..f.params.len())
                .map(|k| crate::NDArray::random(&shape, DType::F64, 40 + k as u64, -1.0, 1.0))
                .collect();
            let (affine, oracle) = (compile(&f).expect("compile"), compile_index_by_index(&f));
            let mut want = args.clone();
            crate::interp::execute(&f, &mut want).expect("interpreter");
            for cf in [&affine, &oracle] {
                let mut got = args.clone();
                crate::vm::execute(cf, &mut got).expect("vm");
                assert_eq!(got, want, "{what}");
            }
            assert_eq!(
                affine.bounds_check_count(),
                oracle.bounds_check_count(),
                "{what}"
            );
            assert!(affine.instr_count() < oracle.instr_count(), "{what}");
        }
        // One cell, loaded and stored: one address register.
        let cf = compile(&matmul_func(16, 4)).expect("compile");
        let mut cells = Vec::new();
        fn accesses(b: &Block, out: &mut Vec<(bool, u16, Reg)>) {
            for it in &b.items {
                match it {
                    Item::Code(c) => out.extend(c.iter().filter_map(|i| match *i {
                        Instr::Load(_, slot, addr) => Some((false, slot, addr)),
                        Instr::Store(slot, addr, _) => Some((true, slot, addr)),
                        _ => None,
                    })),
                    Item::Loop { body, .. } => accesses(body, out),
                    _ => {}
                }
            }
        }
        accesses(&cf.body, &mut cells);
        let stored = cells.iter().rfind(|c| c.0).expect("the update's store");
        assert!(cells.contains(&(false, stored.1, stored.2)), "{cells:?}");
    }

    #[test]
    fn compiles_lowered_matmul() {
        let f = matmul_func(8, 1);
        let cf = compile(&f).expect("compile");
        assert_eq!(cf.name(), "mm");
        assert!(cf.instr_count() > 0);
        let (ni, nf) = cf.reg_counts();
        assert!(ni > 0 && nf > 0);
    }

    #[test]
    fn divisible_tiling_elides_all_bounds_checks() {
        // Every index is affine in loop vars with proven ranges, so the
        // compiler should prove all accesses in-bounds.
        let f = matmul_func(16, 4);
        let cf = compile(&f).expect("compile");
        assert_eq!(
            cf.bounds_check_count(),
            0,
            "all accesses of a divisible tiling should be proven safe"
        );
    }

    #[test]
    fn a_guard_proves_exactly_the_accesses_it_covers() {
        use tvm_tir::builder::{if_else, ser, store, when, FuncBuilder};
        // for xo in 0..3 { for xi in 0..4 { <guarded> } } over ten elements:
        // `xo·4 + xi` reaches 11, so an access at it is proven only by a
        // guard on that very expression, tight enough, in the arm it holds
        // in. Each function runs on the interpreter and the VM: the same
        // arrays, or the same error.
        let v = placeholder([10], DType::F64, "V");
        let lit = |c: i64| PrimExpr::IntImm(c, DType::I64);
        let lt = |a: PrimExpr, c: i64| PrimExpr::cmp(CmpOp::Lt, a, lit(c));
        let build = |body: &dyn Fn(&std::sync::Arc<tvm_tir::Buffer>, PrimExpr) -> Stmt| {
            let mut fb = FuncBuilder::new("tail");
            let vb = fb.param(&v);
            fb.build(ser("xo", 3, |xo| {
                ser("xi", 4, |xi| body(&vb, xo * 4i64 + xi))
            }))
        };
        let bump = |vb: &std::sync::Arc<tvm_tir::Buffer>, at: PrimExpr| {
            let at = [at];
            store(vb, &at, v.at(&at) + PrimExpr::FloatImm(1.0, DType::F64))
        };
        type Body<'a> = &'a dyn Fn(&std::sync::Arc<tvm_tir::Buffer>, PrimExpr) -> Stmt;
        let not = |e: PrimExpr| PrimExpr::Not(std::sync::Arc::new(e));
        let and = |a: PrimExpr, b: PrimExpr| {
            PrimExpr::And(std::sync::Arc::new(a), std::sync::Arc::new(b))
        };
        let ge10 = |x: PrimExpr| PrimExpr::cmp(CmpOp::Ge, x, lit(10));
        let cases: [(&str, usize, bool, Body); 10] = [
            ("split tail", 0, true, &|vb, x| {
                when(lt(x.clone(), 10), bump(vb, x))
            }),
            ("literal on the left", 0, true, &|vb, x| {
                when(PrimExpr::cmp(CmpOp::Gt, lit(10), x.clone()), bump(vb, x))
            }),
            ("<= 9", 0, true, &|vb, x| {
                when(PrimExpr::cmp(CmpOp::Le, x.clone(), lit(9)), bump(vb, x))
            }),
            ("in the else of its negation", 0, true, &|vb, x| {
                if_else(ge10(x.clone()), Stmt::Nop, bump(vb, x))
            }),
            ("under Not", 0, true, &|vb, x| {
                when(not(ge10(x.clone())), bump(vb, x))
            }),
            ("under And", 0, true, &|vb, x| {
                when(and(lt(x.clone(), 10), lt(x.clone(), 12)), bump(vb, x))
            }),
            // Near misses: every one keeps its checks, and the ones that
            // leave the array say so on every engine.
            ("guard too loose", 2, false, &|vb, x| {
                when(lt(x.clone(), 11), bump(vb, x))
            }),
            ("another expression", 2, false, &|vb, x| {
                when(lt(x.clone(), 10), bump(vb, x + 1i64))
            }),
            ("in the arm where it fails", 2, false, &|vb, x| {
                if_else(lt(x.clone(), 10), Stmt::Nop, bump(vb, x))
            }),
            ("unguarded", 2, false, &|vb, x| bump(vb, x)),
        ];
        for (what, checks, runs, body) in cases {
            let f = build(body);
            let cf = compile(&f).expect("compile");
            assert_eq!(cf.bounds_check_count(), checks, "{what}");
            let args = vec![crate::NDArray::random(&[10], DType::F64, 3, -1.0, 1.0)];
            let (mut via_interp, mut via_vm) = (args.clone(), args.clone());
            let want = crate::interp::execute(&f, &mut via_interp);
            assert_eq!(want.is_ok(), runs, "{what}: {want:?}");
            assert_eq!(crate::vm::execute(&cf, &mut via_vm), want, "{what}");
            assert_eq!(via_vm, via_interp, "{what}");
        }
        // A guard on a loop variable itself narrows nothing: its register
        // is shared with code outside the guard.
        let mut fb = FuncBuilder::new("shared");
        let vb = fb.param(&v);
        let f = fb.build(ser("i", 12, |i| {
            tvm_tir::builder::seq([
                when(lt(i.clone(), 10), bump(&vb, i.clone())),
                when(lt(i.clone(), 0), bump(&vb, i)),
            ])
        }));
        assert_eq!(compile(&f).expect("compile").bounds_check_count(), 4);
    }

    #[test]
    fn unlowered_reduce_is_rejected() {
        // Built by hand: the builder's verifier would refuse a residual
        // Reduce, but defence in depth matters for hand-assembled TIR.
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
        assert!(compile(&f).is_err());
    }

    #[test]
    fn live_range_is_the_guarded_subset_of_the_static_range() {
        const MIN: i64 = i64::MIN;
        const MAX: i64 = i64::MAX;
        // Bound registers: ireg 0 (lower), ireg 1 (upper).
        let clamp = |lo: Option<i64>, hi: Option<i64>| Clamp {
            lo: lo.map(|off| (0, off)),
            hi: hi.map(|off| (1, off)),
        };
        // (min, extent, clamp, lower reg, upper reg) -> expected range.
        let table = [
            // No clamp: the static range, whatever the registers hold.
            (0, 8, clamp(None, None), MIN, MIN, (0, 8)),
            // Full: bounds outside the static range on both sides.
            (0, 8, clamp(Some(0), Some(0)), -5, 100, (0, 8)),
            // Clamped low (`var > e`), clamped high (`var <= e`), both.
            (0, 8, clamp(Some(1), None), 2, 0, (3, 8)),
            (0, 8, clamp(None, Some(1)), 0, 4, (0, 5)),
            (0, 8, clamp(Some(0), Some(0)), 2, 6, (2, 6)),
            // Empty: bounds crossed, below the range, above the range.
            (0, 8, clamp(Some(0), Some(0)), 6, 2, (6, 6)),
            (0, 8, clamp(None, Some(0)), 0, -3, (0, 0)),
            (0, 8, clamp(Some(0), None), 50, 0, (8, 8)),
            // Negative static range and bounds.
            (-10, 6, clamp(Some(0), Some(1)), -8, -6, (-8, -5)),
            // Registers at the ends of i64: saturate, never wrap.
            (0, 8, clamp(Some(1), None), MAX, 0, (8, 8)),
            (0, 8, clamp(None, Some(1)), 0, MAX, (0, 8)),
            (0, 8, clamp(Some(0), None), MIN, 0, (0, 8)),
            (0, 8, clamp(None, Some(0)), 0, MIN, (0, 0)),
            (MIN, 3, clamp(None, Some(1)), 0, MIN, (MIN, MIN + 1)),
            (MAX - 3, 3, clamp(Some(1), None), MAX, 0, (MAX, MAX)),
            // Degenerate static ranges.
            (5, 0, clamp(Some(0), Some(0)), 0, 9, (5, 5)),
            (5, -2, clamp(None, None), 0, 0, (5, 5)),
        ];
        for (min, extent, c, lo, hi, want) in table {
            assert_eq!(
                live_range(min, extent, c, &[lo, hi]),
                want,
                "min {min} extent {extent} {c:?} lo {lo} hi {hi}"
            );
        }
        // Exhaustively against the guard it replaces, evaluated without
        // overflow: the live iterations are exactly those on which the
        // guard holds, inside the static range, never `end < start`.
        let values = [MIN, MIN + 1, -7, -1, 0, 1, 3, 4, 5, 9, MAX - 1, MAX];
        for (min, extent) in [(0i64, 5i64), (-3, 7), (4, 1), (2, 0)] {
            for lo_off in [None, Some(0), Some(1)] {
                for hi_off in [None, Some(0), Some(1)] {
                    for lo in values {
                        for hi in values {
                            let c = clamp(lo_off, hi_off);
                            let (start, end) = live_range(min, extent, c, &[lo, hi]);
                            assert!(min <= start && start <= end && end <= min + extent);
                            for v in min..min + extent {
                                let v128 = i128::from(v);
                                let holds = lo_off
                                    .is_none_or(|o| v128 >= i128::from(lo) + i128::from(o))
                                    && hi_off.is_none_or(|o| v128 < i128::from(hi) + i128::from(o));
                                assert_eq!(
                                    start <= v && v < end,
                                    holds,
                                    "v {v} in {min}+{extent} under {c:?}, lo {lo} hi {hi}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn constant_folding_and_interning() {
        use tvm_tir::builder::{ser, store, FuncBuilder};
        let a = placeholder([8], DType::F64, "A");
        let mut fb = FuncBuilder::new("fold");
        let ab = fb.param(&a);
        // A[i] = A[(i*2 + 4 - 4) / 2]: the index simplifies but the divide
        // is by a nonzero literal, so the whole chain stays compilable.
        let body = ser("i", 8, |i| {
            let idx = (i.clone() * 2i64 + 4i64 - 4i64) / 2i64;
            store(&ab, &[idx], a.at(&[i]) + 0i64)
        });
        let f = fb.build(body);
        let cf = compile(&f).expect("compile");
        assert!(cf.instr_count() < 40);
    }
}
