//! The engine counters a device reports: native-codegen compiles
//! ([`JitStats`]), packed-SIMD emission ([`SimdStats`]) and worker-pool
//! dispatch ([`ParStats`]).
//!
//! These are the types the tuner copies into its result and the tuning
//! service merges and serializes for its status endpoint
//! (`ytopt_bo::problem` re-exports them), so their field order is a wire
//! format. Every reason list is a `(reason, count)` vector sorted by
//! reason, kept that way by [`count_reason`].

use serde::{Deserialize, Serialize};

/// Add `n` occurrences of `reason` to a `(reason, count)` list sorted by
/// reason: the entry's count grows, or a new entry goes in its place.
pub fn count_reason(reasons: &mut Vec<(String, u64)>, reason: &str, n: u64) {
    match reasons.binary_search_by(|(r, _)| r.as_str().cmp(reason)) {
        Ok(i) => reasons[i].1 += n,
        Err(i) => reasons.insert(i, (reason.to_string(), n)),
    }
}

/// Fold every entry of `other` into `reasons` (both sorted by reason).
pub fn merge_reasons(reasons: &mut Vec<(String, u64)>, other: &[(String, u64)]) {
    for (reason, n) in other {
        count_reason(reasons, reason, *n);
    }
}

/// Native-codegen compile counters of a JIT-mode device: how many
/// functions reached machine code, how many fell back to the optimized
/// bytecode VM, and why.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct JitStats {
    /// Functions where at least one nest compiled to native code.
    pub functions_jitted: u64,
    /// Loop nests compiled to machine code across those functions.
    pub nests_compiled: u64,
    /// Total machine-code bytes emitted.
    pub bytes_emitted: u64,
    /// Functions that fell back entirely to the optimized VM.
    pub fallbacks: u64,
    /// Fallback reasons with occurrence counts, sorted by reason.
    pub fallback_reasons: Vec<(String, u64)>,
}

impl JitStats {
    /// Total compile attempts (jitted + fallbacks).
    pub fn attempts(&self) -> u64 {
        self.functions_jitted + self.fallbacks
    }

    /// Fold `other` into `self`: counter-wise sums, reasons merged.
    pub fn merge(&mut self, other: &JitStats) {
        self.functions_jitted += other.functions_jitted;
        self.nests_compiled += other.nests_compiled;
        self.bytes_emitted += other.bytes_emitted;
        self.fallbacks += other.fallbacks;
        merge_reasons(&mut self.fallback_reasons, &other.fallback_reasons);
    }
}

/// Packed-SIMD emission counters of a JIT-mode device: how many vector
/// sites (innermost strided / mul-add loops in jitted nests) were
/// emitted packed, how many of those got the register-tiled
/// microkernel, how many stayed scalar and why, and the lane width the
/// backend emits at.
///
/// Invariant: `packed_loops + scalar_loops == sites()` is every vector
/// site compiled, and `scalar_reasons` sums to `scalar_loops`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimdStats {
    /// Vector sites emitted with a packed main loop.
    pub packed_loops: u64,
    /// Subset of `packed_loops` with a register-tiled main loop.
    pub tiled_loops: u64,
    /// Vector sites emitted fully scalar.
    pub scalar_loops: u64,
    /// Elements per packed `f64` operation (2 for SSE2, 4 for AVX; 1
    /// when packed emission is off).
    pub f64_lanes: u64,
    /// Scalar-fallback reasons with occurrence counts, sorted by reason.
    pub scalar_reasons: Vec<(String, u64)>,
}

impl SimdStats {
    /// Total vector sites compiled (packed + scalar).
    pub fn sites(&self) -> u64 {
        self.packed_loops + self.scalar_loops
    }

    /// Fold `other` into `self`: counter-wise sums, reasons merged; the
    /// lane width is a backend fact, so take the larger (scalar rungs
    /// report 1).
    pub fn merge(&mut self, other: &SimdStats) {
        self.packed_loops += other.packed_loops;
        self.tiled_loops += other.tiled_loops;
        self.scalar_loops += other.scalar_loops;
        self.f64_lanes = self.f64_lanes.max(other.f64_lanes);
        merge_reasons(&mut self.scalar_reasons, &other.scalar_reasons);
    }

    /// Add one compiled function's emission tally.
    pub(crate) fn add_report(&mut self, r: &crate::codegen::SimdReport) {
        self.packed_loops += r.packed_loops;
        self.tiled_loops += r.tiled_loops;
        self.scalar_loops += r.scalar_loops;
        for (reason, n) in &r.scalar_reasons {
            count_reason(&mut self.scalar_reasons, reason, *n);
        }
    }
}

/// Worker-pool counters of a device: how many parallel loops carried a
/// race-freedom proof, how often proven loops dispatched on the pool,
/// and why the rest ran sequentially. Snapshotted from a
/// [`crate::ParCounters`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParStats {
    /// Parallel loops carrying a race-freedom proof, over every
    /// function prepared against these counters.
    pub loops_proven: u64,
    /// Parallel loops without a proof (always sequential).
    pub loops_unproven: u64,
    /// Worker-pool dispatches of proven loops at execution time.
    pub dispatches: u64,
    /// Sequential executions a parallel loop fell back to.
    pub fallbacks: u64,
    /// Fallback reasons with occurrence counts, sorted by reason.
    pub fallback_reasons: Vec<(String, u64)>,
    /// Thread budget the pool is configured for.
    pub pool_threads: u64,
    /// Threads the process-wide pool has ever spawned (monotonic;
    /// steady-state trials must not move it).
    pub threads_spawned: u64,
}

impl ParStats {
    /// Fold `other` into `self`: counter-wise sums, reasons merged; the
    /// pool facts are process-global, so take the larger.
    pub fn merge(&mut self, other: &ParStats) {
        self.loops_proven += other.loops_proven;
        self.loops_unproven += other.loops_unproven;
        self.dispatches += other.dispatches;
        self.fallbacks += other.fallbacks;
        merge_reasons(&mut self.fallback_reasons, &other.fallback_reasons);
        self.pool_threads = self.pool_threads.max(other.pool_threads);
        self.threads_spawned = self.threads_spawned.max(other.threads_spawned);
    }
}
