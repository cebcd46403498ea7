//! The serialized shape of the engine counters, byte for byte.
//!
//! The tuning service writes these types into `done/` markers and its
//! status lines, and reads old markers back on restart, so a renamed or
//! reordered field is a format change. Each type here carries fixed
//! non-default values and non-empty reason lists; the expected strings
//! are literals, not a serialize/deserialize round trip.

use ytopt_bo::problem::{CacheStats, JitStats, ParStats, PruneStats, SimdStats, StaticCheckStats};

fn reasons(list: &[(&str, u64)]) -> Vec<(String, u64)> {
    list.iter().map(|&(r, n)| (r.to_string(), n)).collect()
}

#[test]
fn cache_stats_wire_shape() {
    let s = CacheStats { hits: 7, misses: 3 };
    assert_eq!(
        serde_json::to_string(&s).unwrap(),
        r#"{"hits":7,"misses":3}"#
    );
}

#[test]
fn static_check_stats_wire_shape() {
    let s = StaticCheckStats {
        accepted: 11,
        rejected: 4,
    };
    assert_eq!(
        serde_json::to_string(&s).unwrap(),
        r#"{"accepted":11,"rejected":4}"#
    );
}

#[test]
fn jit_stats_wire_shape() {
    let s = JitStats {
        functions_jitted: 5,
        nests_compiled: 9,
        bytes_emitted: 4096,
        fallbacks: 2,
        fallback_reasons: reasons(&[("float op Max", 1), ("int buffer", 1)]),
    };
    assert_eq!(
        serde_json::to_string(&s).unwrap(),
        r#"{"functions_jitted":5,"nests_compiled":9,"bytes_emitted":4096,"fallbacks":2,"fallback_reasons":[["float op Max",1],["int buffer",1]]}"#
    );
}

#[test]
fn par_stats_wire_shape() {
    let s = ParStats {
        loops_proven: 6,
        loops_unproven: 2,
        dispatches: 40,
        fallbacks: 3,
        fallback_reasons: reasons(&[("serial-context", 2), ("unproven-race", 1)]),
        pool_threads: 4,
        threads_spawned: 3,
    };
    assert_eq!(
        serde_json::to_string(&s).unwrap(),
        r#"{"loops_proven":6,"loops_unproven":2,"dispatches":40,"fallbacks":3,"fallback_reasons":[["serial-context",2],["unproven-race",1]],"pool_threads":4,"threads_spawned":3}"#
    );
}

#[test]
fn simd_stats_wire_shape() {
    let s = SimdStats {
        packed_loops: 8,
        tiled_loops: 2,
        scalar_loops: 5,
        f64_lanes: 4,
        scalar_reasons: reasons(&[("dynamic-extent", 4), ("short-extent", 1)]),
    };
    assert_eq!(
        serde_json::to_string(&s).unwrap(),
        r#"{"packed_loops":8,"tiled_loops":2,"scalar_loops":5,"f64_lanes":4,"scalar_reasons":[["dynamic-extent",4],["short-extent",1]]}"#
    );
}

#[test]
fn prune_stats_wire_shape() {
    let s = PruneStats {
        admitted: 12,
        prelint_denied: 3,
        analyzer_denied: 1,
        denied_by_code: reasons(&[("TIR-RACE-WW", 1), ("TIR-TRIP-ZERO", 3)]),
    };
    assert_eq!(
        serde_json::to_string(&s).unwrap(),
        r#"{"admitted":12,"prelint_denied":3,"analyzer_denied":1,"denied_by_code":[["TIR-RACE-WW",1],["TIR-TRIP-ZERO",3]]}"#
    );
}
