//! The traced run of one workload: one round through the span decorators,
//! the staged replay, and the per-layer metrics both yield.

use crate::metrics::PER_LAYER;
use crate::replay;
use crate::run::{metrics_object, report_errors, set_up, RunResult};
use crate::stats;
use crate::trace::{layer_of, self_time_table, NameTotals, Tracer};
use crate::workloads::{self, Round, Sample, Workload};
use crate::Args;
use serde_json::json;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Which layer group a span's self time belongs to (`bench.share.*`).
fn share_group(span_name: &str) -> &'static str {
    match layer_of(span_name) {
        "autotvm.tuner" => "bench.share.propose",
        "polybench.molds" if span_name.ends_with("init_args") => "bench.share.execute",
        "polybench.molds" | "tvm-autotune.evaluator" => "bench.share.lower_analyze",
        "runtime.device" if span_name.ends_with("prepare") => "bench.share.compile_chain",
        "runtime.device" => "bench.share.execute",
        "gpu-sim.device" => "bench.share.cost_model",
        "autotvm.driver" | "autotvm.harness" => "bench.share.driver_harness",
        "service.session" => "bench.share.journal_service",
        _ => "bench.share.untraced",
    }
}

fn us_per_call(table: &BTreeMap<String, NameTotals>, name: &str) -> f64 {
    table
        .get(name)
        .map_or(0.0, |t| t.total_ns as f64 / 1e3 / t.count as f64)
}

/// The per-layer metrics of a traced run.
fn per_layer(
    workload: &dyn Workload,
    untraced: &Round,
    traced: &Round,
    table: &BTreeMap<String, NameTotals>,
    ledger: &replay::Ledger,
) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|p| (p.name, 0.0)).collect();
    let count = |r: &Round, k: &str| r.counts.get(k).copied().unwrap_or(0) as f64;
    // `+ 0.0` turns the -0.0 an empty f64 sum yields into 0.0.
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b + 0.0 } else { 0.0 };

    // Spans of the traced round.
    m.insert(
        "polybench.molds.prelint_us",
        us_per_call(table, "polybench.molds.prelint"),
    );
    m.insert(
        "polybench.molds.instantiate_us",
        us_per_call(table, "polybench.molds.instantiate"),
    );
    m.insert(
        "polybench.molds.init_args_us",
        us_per_call(table, "polybench.molds.init_args"),
    );
    m.insert(
        "runtime.device.prepare_us",
        us_per_call(table, "runtime.device.prepare"),
    );
    m.insert(
        "runtime.device.run_prepared_us",
        us_per_call(table, "runtime.device.run_prepared"),
    );
    m.insert(
        "gpu-sim.device.run_us",
        us_per_call(table, "gpu-sim.device.run"),
    );
    m.insert(
        "gpu-sim.device.build_cost_us",
        us_per_call(table, "gpu-sim.device.build_cost"),
    );
    m.insert(
        "tvm-autotune.evaluator.evaluate_miss_us",
        us_per_call(table, "tvm-autotune.evaluator.evaluate_miss"),
    );
    m.insert(
        "tvm-autotune.evaluator.evaluate_hit_us",
        us_per_call(table, "tvm-autotune.evaluator.evaluate_hit"),
    );
    for p in &PER_LAYER {
        for (metric, span) in [
            ("autotvm.tuner.next_batch_us.", "autotvm.tuner.next_batch."),
            ("autotvm.tuner.update_us.", "autotvm.tuner.update."),
        ] {
            if let Some(kind) = p.name.strip_prefix(metric) {
                m.insert(p.name, us_per_call(table, &format!("{span}{kind}")));
            }
        }
    }
    let total_of = |prefix: &str| -> f64 {
        table
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, t)| t.total_ns as f64)
            .sum()
    };
    let sessions_ns = total_of("autotvm.driver.tune") + total_of("service.session.run_session");
    m.insert(
        "autotvm.driver.think_share",
        ratio(total_of("autotvm.tuner."), sessions_ns),
    );
    let harness_self: f64 = table
        .iter()
        .filter(|(name, _)| name.starts_with("autotvm.harness."))
        .map(|(_, t)| t.self_ns as f64)
        .sum();
    let harness_calls: f64 = table
        .iter()
        .filter(|(name, _)| name.starts_with("autotvm.harness."))
        .map(|(_, t)| t.count as f64)
        .sum();
    m.insert(
        "autotvm.harness.overhead_us",
        ratio(harness_self / 1e3, harness_calls),
    );
    m.insert(
        "tvm-autotune.evaluator.prune_us_per_config",
        ratio(
            total_of("tvm-autotune.evaluator.prune_batch") / 1e3,
            count(traced, "trials"),
        ),
    );

    // Exact counters of the traced round.
    let rejects: f64 = traced
        .counts
        .iter()
        .filter(|(k, _)| k.starts_with("static_reject."))
        .map(|(_, v)| *v as f64)
        .sum();
    m.insert(
        "polybench.spaces.admitted_share",
        1.0 - ratio(rejects, count(traced, "trials")),
    );
    let (hits, misses) = (count(traced, "cache.hits"), count(traced, "cache.misses"));
    m.insert(
        "tvm-autotune.evaluator.cache_hit_share",
        ratio(hits, hits + misses),
    );
    let (dispatches, fallbacks) = (
        count(untraced, "pool.dispatches"),
        count(untraced, "pool.fallbacks"),
    );
    m.insert("runtime.pool.dispatches", dispatches);
    m.insert(
        "runtime.pool.fallback_share",
        ratio(fallbacks, dispatches + fallbacks),
    );
    m.insert(
        "runtime.pool.threads_spawned",
        tvm_autotune::runtime::pool::threads_spawned() as f64,
    );

    // Staged replay.
    for name in [
        "tir.analyze.check_us",
        "tir.passes.optimize_us",
        "tir.passes.ir_bytes_after",
        "runtime.compile.compile_us",
        "runtime.compile.bytecode_items",
        "runtime.optimize.optimize_compiled_us",
        "runtime.codegen.jit_compile_us",
        "runtime.vm.jit_ns_per_elem",
        "runtime.vm.optimized_ns_per_elem",
        "surrogate.forest.fit_ms",
        "surrogate.forest.predict_batch_us",
        "surrogate.gbt.fit_ms",
        "ytopt-bo.search.ask_ms",
        "ytopt-bo.search.tell_us",
        "configspace.space.sample_us",
        "configspace.space.encode_us",
        "ytopt-bo.journal.append_us",
        "ytopt-bo.journal.append_fsync_us",
        "ytopt-bo.journal.load_us_per_record",
        "service.service.submit_us",
        "service.service.open_recover_ms",
        "service.service.status_us",
        "service.proto.roundtrip_us",
    ] {
        m.insert(name, ledger.mean(name).unwrap_or(0.0));
    }
    for name in [
        "runtime.optimize.strided_loops",
        "runtime.optimize.microkernels",
        "runtime.codegen.code_bytes",
        "runtime.codegen.nests_compiled",
    ] {
        m.insert(name, ledger.sum(name).unwrap_or(0.0));
    }
    let sum = |name: &str| ledger.sum(name).unwrap_or(0.0);
    m.insert(
        "runtime.codegen.fallback_share",
        ratio(sum("replay.jit_fallbacks"), sum("replay.jit_attempts")),
    );
    m.insert(
        "runtime.codegen.packed_site_share",
        ratio(sum("replay.simd_packed"), sum("replay.simd_sites")),
    );
    let oracle_rates: Vec<f64> = workload
        .oracle()
        .unwrap_or_default()
        .iter()
        .filter_map(|c| c.interp_ns_per_elem)
        .collect();
    m.insert(
        "runtime.interp.ns_per_elem",
        ratio(oracle_rates.iter().sum(), oracle_rates.len() as f64),
    );

    // The service's own reports, from the untraced round.
    if let Some(svc) = workload.service() {
        m.insert(
            "service.session.trial_wall_us_p50",
            stats::median(&untraced.trial_walls_s).unwrap_or(0.0) * 1e6,
        );
        let busy: f64 = untraced.trial_walls_s.iter().sum();
        m.insert(
            "service.session.nontrial_share",
            1.0 - ratio(busy, svc.workers() as f64 * untraced.wall_s),
        );
        m.insert(
            "service.queue.high_water",
            untraced.queue_high_water.unwrap_or(0) as f64,
        );
    }

    // The trace itself.
    let tps = |r: &Round| ratio(r.trials() as f64, r.wall_s);
    m.insert(
        "bench.trace_overhead_pct",
        100.0 * (1.0 - ratio(tps(traced), tps(untraced))),
    );
    // Every thread that runs sessions wraps them in one `bench.round` span.
    let roots_ns = total_of("bench.round");
    for (name, totals) in table {
        let group = share_group(name);
        *m.get_mut(group)
            .expect("share groups are per-layer metrics") += ratio(totals.self_ns as f64, roots_ns);
    }
    m.insert(
        "bench.trace_coverage_share",
        1.0 - m["bench.share.untraced"],
    );
    m
}

/// Traced run: one set-up, one untraced round, the same round through the
/// span decorators, then the staged replay.
pub fn run_traced(name: &str, args: &Args) -> RunResult {
    let (workload, warm, _) = set_up(name, args.seed, args.scale());
    println!(
        "workload {name}, seed {}, traced: {}",
        args.seed,
        workload.describe()
    );

    // Untraced rounds on both sides of the traced one: the overhead is taken
    // against the faster of the two, so a slow first round does not hide it.
    let untraced = workload.round(None);
    let tracer = Arc::new(Tracer::new());
    let traced = workload.round(Some(&tracer));
    let after = workload.round(None);
    let untraced = if after.wall_s < untraced.wall_s && after.errors.is_empty() {
        after
    } else {
        untraced
    };
    let spans = tracer.spans();
    let table = self_time_table(&spans);

    let mut errors = warm.errors.clone();
    errors.extend(untraced.errors.iter().cloned());
    errors.extend(traced.errors.iter().cloned());
    // Tracing must not change the work: same trials, same proposals.
    for key in [
        "trials",
        "sessions",
        "sequence_hash",
        "cache.hits",
        "cache.misses",
    ] {
        if untraced.counts.get(key) != traced.counts.get(key) {
            errors.push(format!(
                "count {key}: untraced round has {:?}, traced round has {:?}",
                untraced.counts.get(key),
                traced.counts.get(key)
            ));
        }
    }

    let mut samples: Vec<Sample> = untraced.samples.clone();
    // Spread the replay over the session kinds rather than the first few.
    let stride = (samples.len() / 14).max(1);
    samples = samples.into_iter().step_by(stride).collect();
    let mut ledger = replay::Ledger::default();
    replay::compile_chain(&samples, workload.oracle().is_some(), &mut ledger);
    replay::models(&samples, args.seed, &mut ledger);
    let state = workloads::service_mixed::state_root().join("replay");
    if let Err(e) = replay::journal(&samples, &state, &mut ledger) {
        errors.push(e);
    }
    if let Some(svc) = workload.service() {
        if let Err(e) = replay::service(svc, &mut ledger) {
            errors.push(e);
        }
    }
    errors.extend(workload.verify());
    let _ = std::fs::remove_dir_all(workloads::service_mixed::state_root());

    let values = per_layer(workload.as_ref(), &untraced, &traced, &table, &ledger);
    println!(
        "self-time table of the traced round ({:.4} s):",
        traced.wall_s
    );
    println!(
        "  {:<44} {:>8} {:>12} {:>12}",
        "span", "calls", "total ms", "self ms"
    );
    for (span, t) in &table {
        println!(
            "  {span:<44} {:>8} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    let units: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    for (metric, unit) in &units {
        println!("  {metric:<44} {:>16.4} {unit}", values[metric]);
    }

    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = json!({
        "workload": name,
        "seed": args.seed,
        "round_wall_s": traced.wall_s,
        "self_time": table,
        "spans": spans,
    });
    let path = out_dir.join(format!("trace-{name}.json"));
    let written =
        std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&path, file.to_string()));
    match written {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => errors.push(format!("cannot write {}: {e}", path.display())),
    }
    report_errors(&errors);

    let failed = untraced.failed() + traced.failed();
    RunResult {
        correct: errors.is_empty() && failed == 0,
        attempted: untraced.trials() + traced.trials(),
        failed: failed + errors.len() as u64,
        metrics: metrics_object(&values, &units),
    }
}
