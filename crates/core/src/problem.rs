//! The evaluator-side counters: memo cache, static checks, JIT, worker
//! pool, packed SIMD and batch pruning. Evaluators snapshot them, the
//! trial loop copies them into its result, and the tuning service merges
//! and serializes them for its status endpoint.
//!
//! [`JitStats`], [`ParStats`] and [`SimdStats`] are the runtime's own
//! types, re-exported: a device counts into them and they travel
//! unconverted. [`PruneStats`] merges its reason list with the same
//! [`merge_reasons`] theirs use.

use serde::{Deserialize, Serialize};
use tvm_runtime::stats::merge_reasons;
pub use tvm_runtime::{JitStats, ParStats, SimdStats};

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
        merge_reasons(&mut self.denied_by_code, &other.denied_by_code);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Debug;
    use tvm_runtime::stats::count_reason;

    fn reasons(list: &[(&str, u64)]) -> Vec<(String, u64)> {
        list.iter().map(|&(r, n)| (r.to_string(), n)).collect()
    }

    /// `a` merged with `b` is `want`, and `a` merged into a default is `a`.
    fn check_merge<T: Clone + Debug + Default + PartialEq>(
        a: &T,
        b: &T,
        want: &T,
        merge: fn(&mut T, &T),
    ) {
        let mut got = a.clone();
        merge(&mut got, b);
        assert_eq!(&got, want);
        let mut from_empty = T::default();
        merge(&mut from_empty, a);
        assert_eq!(&from_empty, a);
    }

    #[test]
    fn reason_lists_and_every_merge_sum_counts_and_stay_sorted() {
        // `count_reason`: start, reason, count, result.
        type Row<'a> = (&'a [(&'a str, u64)], &'a str, u64, &'a [(&'a str, u64)]);
        let table: [Row; 4] = [
            (&[], "b", 1, &[("b", 1)]),
            (&[("b", 1)], "a", 2, &[("a", 2), ("b", 1)]),
            (
                &[("a", 2), ("c", 1)],
                "b",
                1,
                &[("a", 2), ("b", 1), ("c", 1)],
            ),
            (&[("a", 2), ("b", 1)], "b", 3, &[("a", 2), ("b", 4)]),
        ];
        for (start, reason, n, want) in table {
            let mut list = reasons(start);
            count_reason(&mut list, reason, n);
            assert_eq!(list, reasons(want), "{start:?} + {reason} x{n}");
        }

        let jit = |f: [u64; 4], r: &[(&str, u64)]| JitStats {
            functions_jitted: f[0],
            nests_compiled: f[1],
            bytes_emitted: f[2],
            fallbacks: f[3],
            fallback_reasons: reasons(r),
        };
        let want = jit([3, 5, 1200, 4], &[("float op Max", 3), ("int buffer", 1)]);
        check_merge(
            &jit([2, 4, 1000, 1], &[("float op Max", 1)]),
            &jit([1, 1, 200, 3], &[("float op Max", 2), ("int buffer", 1)]),
            &want,
            JitStats::merge,
        );
        assert_eq!((JitStats::default().attempts(), want.attempts()), (0, 7));

        // The pool facts (the last two) take the larger value, each
        // from a different side.
        let par = |f: [u64; 6], r: &[(&str, u64)]| ParStats {
            loops_proven: f[0],
            loops_unproven: f[1],
            dispatches: f[2],
            fallbacks: f[3],
            fallback_reasons: reasons(r),
            pool_threads: f[4],
            threads_spawned: f[5],
        };
        check_merge(
            &par([1, 0, 3, 2, 4, 3], &[("unproven-race", 2)]),
            &par(
                [2, 1, 1, 3, 2, 7],
                &[("single-thread", 2), ("unproven-race", 1)],
            ),
            &par(
                [3, 1, 4, 5, 4, 7],
                &[("single-thread", 2), ("unproven-race", 3)],
            ),
            ParStats::merge,
        );

        // `f64_lanes` (the fourth) takes the larger value, from either side.
        let simd = |f: [u64; 4], r: &[(&str, u64)]| SimdStats {
            packed_loops: f[0],
            tiled_loops: f[1],
            scalar_loops: f[2],
            f64_lanes: f[3],
            scalar_reasons: reasons(r),
        };
        let (narrow, wide) = (
            simd([3, 1, 2, 2], &[("dynamic-extent", 2)]),
            simd([1, 0, 4, 4], &[("dynamic-extent", 1), ("strided-loop", 3)]),
        );
        let want = simd([4, 1, 6, 4], &[("dynamic-extent", 3), ("strided-loop", 3)]);
        check_merge(&narrow, &wide, &want, SimdStats::merge);
        check_merge(&wide, &narrow, &want, SimdStats::merge);
        assert_eq!((SimdStats::default().sites(), want.sites()), (0, 10));

        let prune = |f: [u64; 3], r: &[(&str, u64)]| PruneStats {
            admitted: f[0],
            prelint_denied: f[1],
            analyzer_denied: f[2],
            denied_by_code: reasons(r),
        };
        let want = prune(
            [8, 3, 1],
            &[
                ("TIR-RACE-WW", 1),
                ("TIR-TRIP-ZERO", 2),
                ("TIR-VEC-OVER", 1),
            ],
        );
        check_merge(
            &prune([6, 1, 1], &[("TIR-RACE-WW", 1), ("TIR-TRIP-ZERO", 1)]),
            &prune([2, 2, 0], &[("TIR-TRIP-ZERO", 1), ("TIR-VEC-OVER", 1)]),
            &want,
            PruneStats::merge,
        );
        assert_eq!((PruneStats::default().total(), want.total()), (0, 12));
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
}
