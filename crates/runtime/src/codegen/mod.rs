//! Native code generation behind the engine ladder.
//!
//! The [`CodegenBackend`] trait turns an already-optimized
//! [`CompiledFunc`] (strided pointer-bump loops and multiply-add
//! microkernels from [`crate::optimize`]) into one whose jittable loop
//! nests are replaced by calls into freshly emitted machine code. The
//! only native backend today is the hand-rolled x86-64 emitter in
//! [`x86_64`]; every other target gets [`NoopBackend`], which always
//! reports a [`CompileError`] so devices fall back to the optimized VM
//! — the JIT is strictly an *additional* rung, never a requirement.
//!
//! Compiled code lives in a W^X [`exec_mem::ExecBuf`] owned by the
//! [`JitProgram`]; functions are addressed by entry-point index, and
//! back-edge relocations are resolved at emission time (the buffer is
//! sealed read+execute before any pointer escapes).
//!
//! The x86-64 emitter has a packed-SIMD tier: parallel-pattern mul-add
//! microkernels, and the reduction loop jammed around them, run as f64x2
//! bodies (VEX-256 f64x4 when AVX is detected) with register-tiled main
//! loops; what a sweep leaves over runs at the next narrower width, down
//! to scalar. A strided loop runs the scalar
//! template, with a trip count computed at loop entry when it is
//! *trimmed* (a guard on the loop's own variable turned into a live range
//! by [`crate::optimize`]). That loop is register-resident: element
//! pointers in GPRs, body-defined fregs in XMM registers, a forwarded
//! reduction accumulator in one XMM register for the whole loop, and
//! in-memory operands only where the budgets run out. The nest around it
//! is resident the same way: a maximal loop or conditional whose every
//! item is in the subset is one native entry, its loop counters and the
//! integer registers it defines in callee-saved GPRs. Every vector site is
//! accounted in [`SimdStats`]: packed, or scalar with a counted reason
//! (`strided-loop`, `dynamic-extent` for trimmed ones), so
//! `packed + scalar-by-reason = total` always holds. [`scalar_backend`]
//! is the fully scalar tier (outputs are bit-identical either way, so
//! the fingerprint does not depend on it).
//!
//! Fingerprints: a JIT-mode device reports
//! [`jit_fingerprint`] = `vm/v6+tir-opt/v1+par/v1+jit/v7`, distinct from the
//! optimized VM's [`crate::optimize::engine_fingerprint`] so the
//! service's engine ladder can attribute trial records to the exact
//! engine that produced them.

use crate::compile::{CompileError, CompiledFunc};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub(crate) mod exec_mem;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod x86_64;

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub use x86_64::X86Backend;

/// Version tag of the native codegen rung, appended to the optimized
/// engine fingerprint. Bump on any change to emitted code semantics.
/// v2: packed-SIMD tier (proof-gated f64x2/f32x4 strided-loop bodies,
/// register-tiled mul-add microkernels). v3: the dynamic-trip scalar
/// strided template for trimmed loops. v4: the register-resident scalar
/// strided loop and stride-0 microkernel destinations carried in a
/// register. v5: the resident nest — conditionals, integer compares and
/// trimmed plain loops in the subset, loop counters and nest-level
/// integer registers in callee-saved GPRs for a whole nest. v6: plain
/// loops carry hoisted registers (set at entry, bumped per iteration), a
/// microkernel row is swept at each width its extent fills, and the jam
/// takes rows shorter than the widest vector. v7: `f64` only, and no
/// packed strided loop, so a vectorize annotation no longer changes the
/// code a loop gets.
pub const JIT_VERSION: &str = "jit/v7";

/// Fingerprint reported by a JIT-mode device: the optimized engine's
/// fingerprint plus the codegen version.
pub fn jit_fingerprint() -> String {
    format!("{}+{}", crate::optimize::engine_fingerprint(), JIT_VERSION)
}

/// ABI of an emitted nest function: `(iregs, fregs, slot_base_ptrs)`.
/// All state stays in the VM's register files and storage buffers, so a
/// nest call is observably identical to interpreting the nest.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub(crate) type JitFn = unsafe extern "sysv64" fn(*mut i64, *mut f64, *const *mut u8);

/// Per-function packed-SIMD emission tally, produced while a backend
/// compiles one function. Every vector site (an innermost
/// `StridedLoop` or `MulAddLoop` inside a jitted nest) is recorded
/// exactly once: packed, or scalar with a reason — so
/// `packed_loops + scalar_loops == sites()` by construction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimdReport {
    /// Vector sites emitted with a packed main loop (scalar epilogue
    /// for remainder iterations allowed).
    pub packed_loops: u64,
    /// Subset of `packed_loops` whose main loop is register-tiled
    /// (4× unroll-and-jam accumulator blocks).
    pub tiled_loops: u64,
    /// Vector sites emitted fully scalar.
    pub scalar_loops: u64,
    /// Scalar reason → count; sums to `scalar_loops`.
    pub scalar_reasons: HashMap<String, u64>,
}

impl SimdReport {
    /// Record a packed site (`tiled` marks the register-tiled form).
    pub(crate) fn packed(&mut self, tiled: bool) {
        self.packed_loops += 1;
        if tiled {
            self.tiled_loops += 1;
        }
    }

    /// Record a scalar site with its reason.
    pub(crate) fn scalar(&mut self, reason: &str) {
        self.scalar_loops += 1;
        *self.scalar_reasons.entry(reason.to_string()).or_insert(0) += 1;
    }

    /// Total vector sites seen (packed + scalar).
    pub fn sites(&self) -> u64 {
        self.packed_loops + self.scalar_loops
    }
}

/// Executable machine code for every jitted nest of one function.
#[derive(Debug)]
pub struct JitProgram {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    pub(crate) buf: exec_mem::ExecBuf,
    /// Byte offset of each nest's entry point inside the buffer.
    pub(crate) entries: Vec<usize>,
    /// Total machine-code bytes emitted.
    pub(crate) bytes: usize,
    /// Packed-vs-scalar tally over this function's vector sites.
    pub(crate) simd: SimdReport,
    /// Forwarded strided loops compiled into the nests (they left the
    /// bytecode, so [`CompiledFunc::forwarded_loop_count`] adds them).
    pub(crate) forwarded_loops: usize,
}

impl JitProgram {
    /// Number of loop nests compiled to native code.
    pub fn nest_count(&self) -> usize {
        self.entries.len()
    }

    /// Total machine-code bytes emitted for this function.
    pub fn code_bytes(&self) -> usize {
        self.bytes
    }

    /// The machine code of every nest, in emission order (read-only: the
    /// region is sealed read+execute). Tests count instructions in it.
    pub fn code(&self) -> &[u8] {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        // SAFETY: the mapping holds `bytes` initialised bytes of code,
        // readable for as long as `self.buf` lives.
        unsafe {
            std::slice::from_raw_parts(self.buf.entry(0), self.bytes)
        }
        #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
        &[]
    }

    /// Callable entry point of nest `idx`.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    pub(crate) fn entry_fn(&self, idx: usize) -> JitFn {
        unsafe { std::mem::transmute(self.buf.entry(self.entries[idx])) }
    }

    /// Packed-vs-scalar vector-site tally for this function.
    pub fn simd_report(&self) -> &SimdReport {
        &self.simd
    }
}

/// A native code generator for optimized bytecode programs.
///
/// `jit_compile` either returns a new function in which at least one
/// loop nest has been replaced by a [`crate::compile::Item::JitCall`]
/// (holding a shared [`JitProgram`]), or a [`CompileError`] naming the
/// first reason nothing could be compiled — the caller then runs the
/// optimized VM program unchanged (fallback is never an error).
pub trait CodegenBackend: Send + Sync + std::fmt::Debug {
    /// Short target name (`"x86_64"`, `"noop"`), for stats and logs.
    fn name(&self) -> &'static str;

    /// Compile every jittable loop nest of `cf` to machine code.
    fn jit_compile(&self, cf: &CompiledFunc) -> Result<CompiledFunc, CompileError>;

    /// The packed `f64` lane width this backend emits, in elements (1 =
    /// scalar). Purely informational — surfaced through [`SimdStats`] and
    /// the bench JSON `cpu` blocks.
    fn f64_lanes(&self) -> u32 {
        1
    }
}

/// Backend for targets without a native emitter: always falls back.
#[derive(Debug, Clone, Default)]
pub struct NoopBackend;

impl CodegenBackend for NoopBackend {
    fn name(&self) -> &'static str {
        "noop"
    }

    fn jit_compile(&self, _cf: &CompiledFunc) -> Result<CompiledFunc, CompileError> {
        Err(CompileError(
            "native codegen unsupported on this target".into(),
        ))
    }
}

/// The best backend for the build target: the x86-64 emitter on
/// x86-64 Linux, the always-fallback [`NoopBackend`] everywhere else.
pub fn default_backend() -> Arc<dyn CodegenBackend> {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    {
        Arc::new(X86Backend::detect())
    }
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
    {
        Arc::new(NoopBackend)
    }
}

/// The default backend with packed-SIMD emission forced off: scalar
/// SSE2 on x86-64 Linux, [`NoopBackend`] everywhere else. The
/// differential suites run every kernel on both tiers in one process.
pub fn scalar_backend() -> Arc<dyn CodegenBackend> {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    {
        Arc::new(X86Backend::scalar_only())
    }
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
    {
        Arc::new(NoopBackend)
    }
}

/// Snapshot of JIT compile activity (see [`JitCounters`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JitStats {
    /// Functions where at least one nest compiled to native code.
    pub functions_jitted: u64,
    /// Total loop nests compiled across those functions.
    pub nests_compiled: u64,
    /// Total machine-code bytes emitted.
    pub bytes_emitted: u64,
    /// Functions that fell back entirely to the optimized VM.
    pub fallbacks: u64,
    /// Fallback reason → count, sorted by reason for stable output.
    pub fallback_reasons: Vec<(String, u64)>,
}

/// Thread-safe JIT compile counters, shared by all clones of a device.
#[derive(Debug, Default)]
pub struct JitCounters {
    functions_jitted: AtomicU64,
    nests_compiled: AtomicU64,
    bytes_emitted: AtomicU64,
    fallbacks: AtomicU64,
    reasons: Mutex<HashMap<String, u64>>,
}

impl JitCounters {
    /// A function compiled with `nests` native nests totalling `bytes`.
    pub fn record_success(&self, nests: u64, bytes: u64) {
        self.functions_jitted.fetch_add(1, Ordering::Relaxed);
        self.nests_compiled.fetch_add(nests, Ordering::Relaxed);
        self.bytes_emitted.fetch_add(bytes, Ordering::Relaxed);
    }

    /// A function fell back to the optimized VM for `reason`.
    pub fn record_fallback(&self, reason: &str) {
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
        let mut m = self.reasons.lock().expect("jit reason lock");
        *m.entry(reason.to_string()).or_insert(0) += 1;
    }

    /// Consistent-enough snapshot for status reporting.
    pub fn snapshot(&self) -> JitStats {
        let mut fallback_reasons: Vec<(String, u64)> = self
            .reasons
            .lock()
            .expect("jit reason lock")
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        fallback_reasons.sort();
        JitStats {
            functions_jitted: self.functions_jitted.load(Ordering::Relaxed),
            nests_compiled: self.nests_compiled.load(Ordering::Relaxed),
            bytes_emitted: self.bytes_emitted.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            fallback_reasons,
        }
    }
}

/// Snapshot of packed-SIMD emission activity (see [`SimdCounters`]).
///
/// Invariant: `packed_loops + scalar_loops` equals the total vector
/// sites compiled, and `scalar_reasons` sums to `scalar_loops` — the
/// accounting partitions every site.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimdStats {
    /// Vector sites emitted with a packed main loop.
    pub packed_loops: u64,
    /// Subset of `packed_loops` with a register-tiled main loop.
    pub tiled_loops: u64,
    /// Vector sites emitted fully scalar.
    pub scalar_loops: u64,
    /// Packed lane width for f64 sites (1 = scalar tier).
    pub f64_lanes: u32,
    /// Scalar reason → count, sorted by reason for stable output.
    pub scalar_reasons: Vec<(String, u64)>,
}

impl SimdStats {
    /// Total vector sites compiled (packed + scalar).
    pub fn sites(&self) -> u64 {
        self.packed_loops + self.scalar_loops
    }
}

/// Thread-safe packed-SIMD emission counters, shared by all clones of
/// a JIT-mode device (like [`JitCounters`]).
#[derive(Debug, Default)]
pub struct SimdCounters {
    packed_loops: AtomicU64,
    tiled_loops: AtomicU64,
    scalar_loops: AtomicU64,
    f64_lanes: AtomicU64,
    reasons: Mutex<HashMap<String, u64>>,
}

impl SimdCounters {
    /// Fold one function's emission report into the shared counters.
    pub fn record_report(&self, r: &SimdReport) {
        self.packed_loops
            .fetch_add(r.packed_loops, Ordering::Relaxed);
        self.tiled_loops.fetch_add(r.tiled_loops, Ordering::Relaxed);
        self.scalar_loops
            .fetch_add(r.scalar_loops, Ordering::Relaxed);
        if !r.scalar_reasons.is_empty() {
            let mut m = self.reasons.lock().expect("simd reason lock");
            for (k, v) in &r.scalar_reasons {
                *m.entry(k.clone()).or_insert(0) += v;
            }
        }
    }

    /// Record the backend's packed lane width (idempotent).
    pub fn set_lanes(&self, f64_lanes: u32) {
        self.f64_lanes.store(f64_lanes as u64, Ordering::Relaxed);
    }

    /// Consistent-enough snapshot for status reporting.
    pub fn snapshot(&self) -> SimdStats {
        let mut scalar_reasons: Vec<(String, u64)> = self
            .reasons
            .lock()
            .expect("simd reason lock")
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        scalar_reasons.sort();
        SimdStats {
            packed_loops: self.packed_loops.load(Ordering::Relaxed),
            tiled_loops: self.tiled_loops.load(Ordering::Relaxed),
            scalar_loops: self.scalar_loops.load(Ordering::Relaxed),
            f64_lanes: self.f64_lanes.load(Ordering::Relaxed) as u32,
            scalar_reasons,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_backend_always_falls_back() {
        let f = tvm_te::placeholder([2], tvm_te::DType::F64, "A");
        let b = tvm_te::compute([2], "B", |i| f.at(&[i[0].clone()]) + 1i64);
        let s = tvm_te::Schedule::create(std::slice::from_ref(&b));
        let pf = tvm_tir::lower::lower(&s, &[f, b], "idf");
        let cf = crate::compile::compile(&pf).expect("compile");
        assert!(NoopBackend.jit_compile(&cf).is_err());
    }

    #[test]
    fn counters_snapshot_is_sorted_and_complete() {
        let c = JitCounters::default();
        c.record_success(3, 512);
        c.record_success(1, 128);
        c.record_fallback("zebra reason");
        c.record_fallback("alpha reason");
        c.record_fallback("alpha reason");
        let s = c.snapshot();
        assert_eq!(s.functions_jitted, 2);
        assert_eq!(s.nests_compiled, 4);
        assert_eq!(s.bytes_emitted, 640);
        assert_eq!(s.fallbacks, 3);
        assert_eq!(
            s.fallback_reasons,
            vec![("alpha reason".into(), 2), ("zebra reason".into(), 1)]
        );
    }

    #[test]
    fn jit_fingerprint_extends_engine_fingerprint() {
        let fp = jit_fingerprint();
        assert!(fp.starts_with(&crate::optimize::engine_fingerprint()));
        assert!(fp.ends_with(JIT_VERSION));
        assert_ne!(fp, crate::optimize::engine_fingerprint());
    }
}
