//! The shared evaluator-side counters: memo cache, static checks, JIT,
//! worker pool, packed SIMD and batch pruning. Evaluators snapshot them,
//! the trial loop copies them into its result, and the tuning service
//! merges and serializes them for its status endpoint.

use serde::{Deserialize, Serialize};

/// Hit/miss counters of an evaluator-side memo cache (lowering /
/// compilation artifacts reused across repeated proposals).
/// Serializable so the tuning service can report aggregate counters
/// through its status endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Evaluations served from the cache (no re-lowering, no rebuild).
    pub hits: u64,
    /// Evaluations that had to lower and build from scratch.
    pub misses: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Accept/reject counters of an evaluator-side static schedule-safety
/// analyzer (configs vetted before any compilation or measurement).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StaticCheckStats {
    /// Configurations the analyzer proved safe to measure.
    pub accepted: u64,
    /// Configurations rejected before compilation (`Deny` findings).
    pub rejected: u64,
}

impl StaticCheckStats {
    /// Total analyzed configurations.
    pub fn total(&self) -> u64 {
        self.accepted + self.rejected
    }
}

/// Native-codegen compile counters of an evaluator-side JIT rung.
/// Mirrors the runtime's JIT accounting in a serializable form so the
/// tuning service can report it through its status endpoint: how many
/// functions reached machine code, how many declined into the bytecode
/// VM, and why.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct JitStats {
    /// Functions fully compiled to native code.
    pub functions_jitted: u64,
    /// Loop nests emitted as machine code across those functions.
    pub nests_compiled: u64,
    /// Total bytes of executable code emitted.
    pub bytes_emitted: u64,
    /// Functions that fell back to the bytecode VM.
    pub fallbacks: u64,
    /// Fallback reasons with occurrence counts, sorted by reason.
    pub fallback_reasons: Vec<(String, u64)>,
}

impl JitStats {
    /// Total compile attempts (jitted + fallbacks).
    pub fn attempts(&self) -> u64 {
        self.functions_jitted + self.fallbacks
    }

    /// Fold `other` into `self` (used by the service to aggregate the
    /// per-session counters into one status line). Fallback reasons are
    /// merged by reason and kept sorted.
    pub fn merge(&mut self, other: &JitStats) {
        self.functions_jitted += other.functions_jitted;
        self.nests_compiled += other.nests_compiled;
        self.bytes_emitted += other.bytes_emitted;
        self.fallbacks += other.fallbacks;
        for (reason, n) in &other.fallback_reasons {
            match self.fallback_reasons.iter_mut().find(|(r, _)| r == reason) {
                Some((_, count)) => *count += n,
                None => self.fallback_reasons.push((reason.clone(), *n)),
            }
        }
        self.fallback_reasons.sort();
    }
}

/// Multicore-dispatch counters of an evaluator-side parallel execution
/// layer. Mirrors the runtime's worker-pool accounting in a
/// serializable form: how many parallel loops carried a race-freedom
/// proof, how often proven loops actually dispatched on the pool, and
/// why the remainder ran sequentially.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParStats {
    /// Parallel loops carrying a race-freedom proof across all prepared
    /// functions.
    pub loops_proven: u64,
    /// Parallel loops without a proof (always run sequentially).
    pub loops_unproven: u64,
    /// Worker-pool dispatches of proven loops at execution time.
    pub dispatches: u64,
    /// Sequential executions a parallel loop fell back to.
    pub fallbacks: u64,
    /// Fallback reasons with occurrence counts, sorted by reason.
    pub fallback_reasons: Vec<(String, u64)>,
    /// Thread budget the pool is configured for.
    pub pool_threads: u64,
    /// Threads the process-wide pool has ever spawned (monotonic; pool
    /// reuse means steady-state trials do not move it).
    pub threads_spawned: u64,
}

impl ParStats {
    /// Fold `other` into `self` (counter-wise sums; reasons merged by
    /// name and kept sorted; pool facts are process-global, so take the
    /// max).
    pub fn merge(&mut self, other: &ParStats) {
        self.loops_proven += other.loops_proven;
        self.loops_unproven += other.loops_unproven;
        self.dispatches += other.dispatches;
        self.fallbacks += other.fallbacks;
        for (reason, n) in &other.fallback_reasons {
            match self.fallback_reasons.iter_mut().find(|(r, _)| r == reason) {
                Some((_, count)) => *count += n,
                None => self.fallback_reasons.push((reason.clone(), *n)),
            }
        }
        self.fallback_reasons.sort();
        self.pool_threads = self.pool_threads.max(other.pool_threads);
        self.threads_spawned = self.threads_spawned.max(other.threads_spawned);
    }
}

/// Packed-SIMD emission counters of an evaluator-side native codegen
/// rung. Mirrors the runtime's vectorizer accounting in a serializable
/// form: how many vector sites (innermost strided / mul-add loops in
/// jitted nests) were emitted packed, how many of those got the
/// register-tiled microkernel, how many stayed scalar and why, and the
/// lane widths the backend emits at. Packed + scalar partitions every
/// vector site: `packed_loops + scalar_loops == sites()`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimdStats {
    /// Vector sites emitted with packed lanes.
    pub packed_loops: u64,
    /// Subset of `packed_loops` that used the register-tiled
    /// (accumulator-blocked) mul-add microkernel.
    pub tiled_loops: u64,
    /// Vector sites emitted scalar.
    pub scalar_loops: u64,
    /// Elements per packed `f64` operation (2 for SSE2, 4 for AVX; 1
    /// when packed emission is off).
    pub f64_lanes: u64,
    /// Scalar-fallback reasons with occurrence counts, sorted by reason.
    pub scalar_reasons: Vec<(String, u64)>,
}

impl SimdStats {
    /// Total vector sites seen (packed + scalar).
    pub fn sites(&self) -> u64 {
        self.packed_loops + self.scalar_loops
    }

    /// Fold `other` into `self` (counter-wise sums; reasons merged by
    /// name and kept sorted; lane widths are backend facts, so take the
    /// max across rungs — scalar rungs report 1).
    pub fn merge(&mut self, other: &SimdStats) {
        self.packed_loops += other.packed_loops;
        self.tiled_loops += other.tiled_loops;
        self.scalar_loops += other.scalar_loops;
        for (reason, n) in &other.scalar_reasons {
            match self.scalar_reasons.iter_mut().find(|(r, _)| r == reason) {
                Some((_, count)) => *count += n,
                None => self.scalar_reasons.push((reason.clone(), *n)),
            }
        }
        self.scalar_reasons.sort();
        self.f64_lanes = self.f64_lanes.max(other.f64_lanes);
    }
}

/// Batch static-pruning counters of an evaluator-side analyzer pipeline:
/// how many candidate configurations were admitted to compilation and
/// measurement, how many were cut by the pre-lowering legality prelint
/// (never instantiated), how many by the full analyzer, and under which
/// stable diagnostic codes.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PruneStats {
    /// Candidates admitted to compile/measure.
    pub admitted: u64,
    /// Candidates denied by the schedule legality prelint.
    pub prelint_denied: u64,
    /// Candidates denied by the analyzer on the instantiated function.
    pub analyzer_denied: u64,
    /// Denial counts per stable diagnostic code, sorted by code.
    pub denied_by_code: Vec<(String, u64)>,
}

impl PruneStats {
    /// Total candidates examined.
    pub fn total(&self) -> u64 {
        self.admitted + self.prelint_denied + self.analyzer_denied
    }

    /// Fold `other` into `self` (counter-wise sums; per-code counts
    /// merged by code and kept sorted).
    pub fn merge(&mut self, other: &PruneStats) {
        self.admitted += other.admitted;
        self.prelint_denied += other.prelint_denied;
        self.analyzer_denied += other.analyzer_denied;
        for (code, n) in &other.denied_by_code {
            match self.denied_by_code.iter_mut().find(|(c, _)| c == code) {
                Some((_, count)) => *count += n,
                None => self.denied_by_code.push((code.clone(), *n)),
            }
        }
        self.denied_by_code.sort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jit_stats_attempts() {
        assert_eq!(JitStats::default().attempts(), 0);
        let s = JitStats {
            functions_jitted: 3,
            nests_compiled: 5,
            bytes_emitted: 4096,
            fallbacks: 1,
            fallback_reasons: vec![("float op Max".into(), 1)],
        };
        assert_eq!(s.attempts(), 4);
    }

    #[test]
    fn jit_stats_merge_sums_counters_and_reasons() {
        let mut a = JitStats {
            functions_jitted: 2,
            nests_compiled: 4,
            bytes_emitted: 1000,
            fallbacks: 1,
            fallback_reasons: vec![("float op Max".into(), 1)],
        };
        let b = JitStats {
            functions_jitted: 1,
            nests_compiled: 1,
            bytes_emitted: 200,
            fallbacks: 3,
            fallback_reasons: vec![("float op Max".into(), 2), ("int buffer".into(), 1)],
        };
        a.merge(&b);
        assert_eq!(a.functions_jitted, 3);
        assert_eq!(a.nests_compiled, 5);
        assert_eq!(a.bytes_emitted, 1200);
        assert_eq!(a.fallbacks, 4);
        assert_eq!(
            a.fallback_reasons,
            vec![
                ("float op Max".to_string(), 3),
                ("int buffer".to_string(), 1)
            ]
        );
        let mut empty = JitStats::default();
        empty.merge(&a);
        assert_eq!(empty, a);
    }

    #[test]
    fn static_check_stats_total() {
        assert_eq!(StaticCheckStats::default().total(), 0);
        let s = StaticCheckStats {
            accepted: 3,
            rejected: 1,
        };
        assert_eq!(s.total(), 4);
    }

    #[test]
    fn prune_stats_total_and_merge() {
        assert_eq!(PruneStats::default().total(), 0);
        let mut a = PruneStats {
            admitted: 6,
            prelint_denied: 1,
            analyzer_denied: 1,
            denied_by_code: vec![("TIR-RACE-WW".into(), 1), ("TIR-TRIP-ZERO".into(), 1)],
        };
        assert_eq!(a.total(), 8);
        let b = PruneStats {
            admitted: 2,
            prelint_denied: 2,
            analyzer_denied: 0,
            denied_by_code: vec![("TIR-TRIP-ZERO".into(), 1), ("TIR-VEC-OVER".into(), 1)],
        };
        a.merge(&b);
        assert_eq!(a.admitted, 8);
        assert_eq!(a.prelint_denied, 3);
        assert_eq!(
            a.denied_by_code,
            vec![
                ("TIR-RACE-WW".to_string(), 1),
                ("TIR-TRIP-ZERO".to_string(), 2),
                ("TIR-VEC-OVER".to_string(), 1)
            ]
        );
    }
}
