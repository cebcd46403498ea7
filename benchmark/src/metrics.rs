//! The fixed lists of workloads and metrics. `BENCHMARK.json` at the root of
//! the repository states the same lists; a unit test keeps the two equal.
//! Later issues cite these names unchanged.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 4] = [
    WorkloadInfo {
        name: "sim-paper",
        why: "the paper's five tuners x lu, cholesky, 3mm on the simulated device: cost model, proposing and lowering are all of the time, execute/JIT/journal/service are bypassed, tuning quality repeats exactly",
    },
    WorkloadInfo {
        name: "compile-cold",
        why: "random configs of 7 mini kernels on the JIT device, every trial a memo miss, no worker pool: lowering, analysis and the compile chain take their largest share here (about half)",
    },
    WorkloadInfo {
        name: "execute-hot",
        why: "few configs x 5 repeats of medium/small kernels on the JIT device and worker pool: kernel execution is nearly all of the time and compilation is noise",
    },
    WorkloadInfo {
        name: "service-mixed",
        why: "90 short journaled sessions burst into the 2-worker service, each tenant twice: queueing, journal fsync, serde and memo-cache hits under contention, the only multi-session workload",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "trials_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "session_p50_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "session_p90_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "tuned_runtime_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "cpu_s_per_ktrial",
        unit: "s",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn low(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn high(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Layer = `crate.module`. A metric a workload does not exercise reads 0.
pub const PER_LAYER: [PerLayer; 70] = [
    // polybench / te / tir
    low("polybench.molds.prelint_us", "us"),
    low("polybench.molds.instantiate_us", "us"),
    low("polybench.molds.init_args_us", "us"),
    high("polybench.spaces.admitted_share", "share"),
    low("tir.analyze.check_us", "us"),
    low("tir.passes.optimize_us", "us"),
    low("tir.passes.ir_bytes_after", "B"),
    // runtime, compile side
    low("runtime.compile.compile_us", "us"),
    low("runtime.compile.bytecode_items", "count"),
    low("runtime.optimize.optimize_compiled_us", "us"),
    high("runtime.optimize.strided_loops", "count"),
    high("runtime.optimize.microkernels", "count"),
    low("runtime.codegen.jit_compile_us", "us"),
    low("runtime.codegen.code_bytes", "B"),
    high("runtime.codegen.nests_compiled", "count"),
    low("runtime.codegen.fallback_share", "share"),
    high("runtime.codegen.packed_site_share", "share"),
    low("runtime.device.prepare_us", "us"),
    // runtime, execute side
    low("runtime.vm.jit_ns_per_elem", "ns"),
    low("runtime.vm.optimized_ns_per_elem", "ns"),
    low("runtime.interp.ns_per_elem", "ns"),
    low("runtime.device.run_prepared_us", "us"),
    high("runtime.pool.dispatches", "count"),
    low("runtime.pool.fallback_share", "share"),
    low("runtime.pool.threads_spawned", "count"),
    // surrogate / ytopt-bo / autotvm / configspace
    low("surrogate.forest.fit_ms", "ms"),
    low("surrogate.forest.predict_batch_us", "us"),
    low("surrogate.gbt.fit_ms", "ms"),
    low("ytopt-bo.search.ask_ms", "ms"),
    low("ytopt-bo.search.tell_us", "us"),
    low("autotvm.tuner.next_batch_us.ga", "us"),
    low("autotvm.tuner.next_batch_us.random", "us"),
    low("autotvm.tuner.next_batch_us.grid", "us"),
    low("autotvm.tuner.next_batch_us.xgb", "us"),
    low("autotvm.tuner.next_batch_us.ytopt", "us"),
    low("autotvm.tuner.update_us.ga", "us"),
    low("autotvm.tuner.update_us.random", "us"),
    low("autotvm.tuner.update_us.grid", "us"),
    low("autotvm.tuner.update_us.xgb", "us"),
    low("autotvm.tuner.update_us.ytopt", "us"),
    low("autotvm.driver.think_share", "share"),
    low("autotvm.harness.overhead_us", "us"),
    low("configspace.space.sample_us", "us"),
    low("configspace.space.encode_us", "us"),
    // gpu-sim
    low("gpu-sim.device.run_us", "us"),
    low("gpu-sim.device.build_cost_us", "us"),
    // tvm-autotune (umbrella)
    low("tvm-autotune.evaluator.evaluate_miss_us", "us"),
    low("tvm-autotune.evaluator.evaluate_hit_us", "us"),
    high("tvm-autotune.evaluator.cache_hit_share", "share"),
    low("tvm-autotune.evaluator.prune_us_per_config", "us"),
    // ytopt-bo journal / service
    low("ytopt-bo.journal.append_us", "us"),
    low("ytopt-bo.journal.append_fsync_us", "us"),
    low("ytopt-bo.journal.load_us_per_record", "us"),
    low("service.service.submit_us", "us"),
    low("service.service.open_recover_ms", "ms"),
    low("service.service.status_us", "us"),
    low("service.session.trial_wall_us_p50", "us"),
    low("service.session.nontrial_share", "share"),
    low("service.queue.high_water", "count"),
    low("service.proto.roundtrip_us", "us"),
    // the trace itself
    low("bench.trace_overhead_pct", "%"),
    high("bench.trace_coverage_share", "share"),
    // where the traced round's wall time went, by layer group (self time)
    low("bench.share.propose", "share"),
    low("bench.share.lower_analyze", "share"),
    low("bench.share.compile_chain", "share"),
    low("bench.share.execute", "share"),
    low("bench.share.cost_model", "share"),
    low("bench.share.driver_harness", "share"),
    low("bench.share.journal_service", "share"),
    low("bench.share.untraced", "share"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn name_ok(name: &str) -> bool {
        let first_ok = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit_ok(u), "bad unit {u}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` is what the driver reads; it must say what this file says.
    #[test]
    fn benchmark_json_states_the_same_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("valid JSON");
        let mut keys: Vec<&str> = doc
            .as_object()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(doc["paths"], serde_json::json!(["benchmark"]));

        let workloads = doc["workloads"].as_array().expect("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (w, want) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(w["name"], want.name);
            assert_eq!(w["why"], want.why);
        }
        let e2e = doc["end_to_end"].as_array().expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(m["name"], want.name);
            assert_eq!(m["unit"], want.unit);
            assert_eq!(m["better"], want.better.as_str());
            assert_eq!(m["bound"].as_f64(), Some(want.bound), "{}", want.name);
        }
        let layers = doc["per_layer"].as_array().expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(m["name"], want.name);
            assert_eq!(m["unit"], want.unit);
            assert_eq!(m["better"], want.better.as_str());
        }
    }
}
