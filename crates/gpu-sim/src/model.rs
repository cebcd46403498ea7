//! The analytical cost model: blocked-cache roofline over lowered TIR.

use crate::spec::GpuSpec;
use tvm_tir::analysis::{analyze, AccessInfo, StmtFeatures};
use tvm_tir::PrimFunc;

/// Cost of one store statement (one "kernel" in GPU terms).
#[derive(Debug, Clone)]
pub struct StmtCost {
    /// Roofline compute time, seconds.
    pub compute_s: f64,
    /// L2-level memory time, seconds.
    pub l2_s: f64,
    /// DRAM-level memory time, seconds.
    pub dram_s: f64,
    /// Launch + sync + block-scheduling overhead, seconds.
    pub overhead_s: f64,
    /// Grid blocks per launch.
    pub blocks: f64,
    /// Threads per block (pre-cap).
    pub threads_per_block: f64,
    /// Number of sequential launches (trips of the sequential prefix).
    pub launches: f64,
}

impl StmtCost {
    /// Total modeled time of the statement.
    pub fn total(&self) -> f64 {
        self.compute_s.max(self.l2_s).max(self.dram_s) + self.overhead_s
    }
}

/// Full cost breakdown of a function.
#[derive(Debug, Clone)]
pub struct CostBreakdown {
    /// Per-statement costs, in program order.
    pub stmts: Vec<StmtCost>,
}

impl CostBreakdown {
    /// Total modeled runtime, seconds.
    pub fn total(&self) -> f64 {
        self.stmts.iter().map(|s| s.total()).sum()
    }
}

/// Footprint (elements) of one access over the loop suffix starting at
/// `from`: the product of extents of suffix loops the access varies with,
/// capped at the buffer size.
fn footprint(acc: &AccessInfo, feats: &StmtFeatures, from: usize) -> f64 {
    let mut fp = 1.0f64;
    for (l, loopinfo) in feats.loops.iter().enumerate().skip(from) {
        if acc.strides[l] != 0 {
            fp *= loopinfo.extent as f64;
        }
    }
    fp.min(acc.buffer_numel as f64)
}

/// Trips an access makes over the loops *outside* the suffix: the product
/// of outer-loop extents, with the trailing run of invariant outer loops
/// dropped (consecutive invariant iterations find the working set still
/// cached — LRU reuse credit).
fn trips(acc: &AccessInfo, feats: &StmtFeatures, suffix_start: usize) -> f64 {
    let mut last_varying = None;
    for l in 0..suffix_start {
        if acc.strides[l] != 0 {
            last_varying = Some(l);
        }
    }
    match last_varying {
        None => 1.0,
        Some(lv) => feats.loops[..=lv].iter().map(|l| l.extent as f64).product(),
    }
}

/// Cache-line waste factor of an access over a loop suffix: how many
/// bytes move per useful byte, given line (or coalescing) granularity of
/// `spec.warp_size` elements.
///
/// * a stride-1 loop in the suffix makes runs of its extent `e`
///   contiguous — waste is `line / min(e, line)` (full lines ⇒ 1);
/// * only strided loops varying ⇒ every element sits on its own line, up
///   to the line size;
/// * nothing varying ⇒ a single element (factor 1).
fn line_factor(acc: &AccessInfo, feats: &StmtFeatures, from: usize, spec: &GpuSpec) -> f64 {
    let line = spec.warp_size as f64;
    let mut min_stride: Option<u64> = None;
    let mut unit_run: i64 = 0;
    for (l, info) in feats.loops.iter().enumerate().skip(from) {
        let s = acc.strides[l].unsigned_abs();
        if s == 0 {
            continue;
        }
        if s == 1 {
            unit_run = unit_run.max(info.extent);
        }
        min_stride = Some(min_stride.map_or(s, |m| m.min(s)));
    }
    match (unit_run, min_stride) {
        (e, _) if e > 0 => (line / (e as f64).min(line)).max(1.0),
        (_, Some(s)) => (s as f64).min(line),
        (_, None) => 1.0,
    }
}

/// Working set (bytes of touched cache lines) of all accesses over the
/// suffix starting at `from`.
fn working_set(feats: &StmtFeatures, accesses: &[&AccessInfo], from: usize, spec: &GpuSpec) -> f64 {
    accesses
        .iter()
        .map(|a| {
            footprint(a, feats, from) * a.elem_bytes as f64 * line_factor(a, feats, from, spec)
        })
        .sum()
}

/// Smallest suffix start (within `[lo, n]`) whose working set fits in
/// `capacity` bytes; `n` (empty suffix) always fits.
fn reuse_level(
    feats: &StmtFeatures,
    accesses: &[&AccessInfo],
    lo: usize,
    capacity: f64,
    spec: &GpuSpec,
) -> usize {
    let n = feats.loops.len();
    for d in lo..=n {
        if working_set(feats, accesses, d, spec) <= capacity {
            return d;
        }
    }
    n
}

/// Traffic (bytes) flowing in from above the given reuse level.
fn traffic_at(feats: &StmtFeatures, accesses: &[&AccessInfo], level: usize, spec: &GpuSpec) -> f64 {
    accesses
        .iter()
        .map(|a| {
            trips(a, feats, level)
                * footprint(a, feats, level)
                * a.elem_bytes as f64
                * line_factor(a, feats, level, spec)
        })
        .sum::<f64>()
        * feats.guard_selectivity
}

fn stmt_cost(feats: &StmtFeatures, spec: &GpuSpec) -> StmtCost {
    let n = feats.loops.len();
    let accesses: Vec<&AccessInfo> = feats
        .reads
        .iter()
        .chain(std::iter::once(&feats.write))
        .collect();

    // Sequential prefix: leading loops the *write* does not vary with
    // (elimination loops like LU's `k`). Each iteration is a separate
    // grid launch with a device-wide sync.
    let mut prefix = 0usize;
    while prefix < n && feats.write.strides[prefix] == 0 {
        prefix += 1;
    }
    let launches: f64 = feats.loops[..prefix]
        .iter()
        .map(|l| l.extent as f64)
        .product();

    // Inner (shared-memory) reuse level: at least past the prefix.
    let d1 = reuse_level(feats, &accesses, prefix, spec.smem_bytes as f64, spec);
    // Outer (L2) reuse level: between prefix and d1.
    let d2 = reuse_level(feats, &accesses, prefix, spec.l2_bytes as f64, spec).min(d1);

    let l2_traffic = traffic_at(feats, &accesses, d1, spec);
    let dram_traffic = traffic_at(feats, &accesses, d2, spec);

    // Grid decomposition: loops between the prefix and the smem suffix
    // become blocks; parallel suffix iterations (those indexing the
    // output) become threads.
    let blocks: f64 = feats.loops[prefix..d1]
        .iter()
        .map(|l| l.extent as f64)
        .product();
    let threads_per_block: f64 = feats.loops[d1..]
        .iter()
        .enumerate()
        .filter(|(off, _)| feats.write.strides[d1 + off] != 0)
        .map(|(_, l)| l.extent as f64)
        .product();

    let util = if spec.max_threads_per_block <= 1 {
        // Single-core model: utilization is the SIMD efficiency of the
        // innermost loop. A unit-stride (or reduction, stride-0) store
        // with enough iterations vectorizes; a strided store is scalar.
        let inner_stride = feats
            .write
            .strides
            .last()
            .copied()
            .unwrap_or(1)
            .unsigned_abs();
        let inner_extent = feats.loops.last().map(|l| l.extent).unwrap_or(1) as f64;
        if inner_stride <= 1 {
            (inner_extent / spec.warp_size as f64)
                .min(1.0)
                .max(1.0 / spec.warp_size as f64)
        } else {
            1.0 / spec.warp_size as f64
        }
    } else {
        let capped_tpb = threads_per_block.min(spec.max_threads_per_block as f64);
        // Sub-warp blocks waste issue slots.
        let warp_eff = (capped_tpb / spec.warp_size as f64)
            .min(1.0)
            .max(1.0 / spec.warp_size as f64);
        ((blocks * capped_tpb) / spec.device_threads() as f64).clamp(1e-6, 1.0) * warp_eff
    };

    let flops = feats.total_flops();
    let peak = spec.peak_flops(feats.write.elem_bytes);
    let compute_s = flops / (peak * util);

    let l2_s = l2_traffic / spec.l2_bw;
    let dram_s = dram_traffic / spec.dram_bw;

    // Loop-management/scheduling cost: on the single-core model, one
    // charge per entry of the innermost loop; on the GPU model, one per
    // scheduled block (amortized over SMs).
    let inner_extent = feats.loops.last().map(|l| l.extent as f64).unwrap_or(1.0);
    let sched_iters = if spec.max_threads_per_block <= 1 {
        feats.raw_iterations / inner_extent
    } else {
        launches * blocks
    };
    let overhead_s = launches * (spec.launch_overhead_s + spec.sync_overhead_s)
        + sched_iters * spec.block_overhead_s / spec.num_sms as f64;

    StmtCost {
        compute_s,
        l2_s,
        dram_s,
        overhead_s,
        blocks,
        threads_per_block,
        launches,
    }
}

/// Predict the runtime of a lowered function on `spec`.
pub fn cost_model(func: &PrimFunc, spec: &GpuSpec) -> CostBreakdown {
    let stmts = analyze(func).iter().map(|f| stmt_cost(f, spec)).collect();
    CostBreakdown { stmts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_te::{compute, placeholder, reduce_axis, sum, DType, Schedule, Tensor};
    use tvm_tir::lower::lower;

    fn tiled_matmul(n: usize, ty: i64, tx: i64) -> PrimFunc {
        let a = placeholder([n, n], DType::F32, "A");
        let b = placeholder([n, n], DType::F32, "B");
        let k = reduce_axis(0, n as i64, "k");
        let c: Tensor = compute([n, n], "C", |i| {
            sum(
                a.at(&[i[0].clone(), k.var_expr()]) * b.at(&[k.var_expr(), i[1].clone()]),
                std::slice::from_ref(&k),
            )
        });
        let mut s = Schedule::create(std::slice::from_ref(&c));
        let (y, x) = (c.axis(0), c.axis(1));
        let (yo, yi) = s.split(&c, &y, ty);
        let (xo, xi) = s.split(&c, &x, tx);
        s.reorder(&c, &[yo, xo, k.clone(), yi, xi]);
        lower(&s, &[a, b, c], "mm")
    }

    fn mm_time(n: usize, ty: i64, tx: i64) -> f64 {
        cost_model(&tiled_matmul(n, ty, tx), &GpuSpec::a100()).total()
    }

    #[test]
    fn interior_tile_optimum() {
        let n = 1024;
        let tiny = mm_time(n, 1, 1);
        let mid = mm_time(n, 32, 32);
        let huge = mm_time(n, 1024, 1024);
        assert!(
            mid < tiny,
            "mid tiles ({mid:.6}s) should beat 1x1 ({tiny:.6}s)"
        );
        assert!(
            mid < huge,
            "mid tiles ({mid:.6}s) should beat full-matrix tiles ({huge:.6}s)"
        );
    }

    #[test]
    fn model_is_deterministic() {
        assert_eq!(mm_time(512, 16, 16), mm_time(512, 16, 16));
    }

    #[test]
    fn bigger_problem_costs_more() {
        assert!(mm_time(1024, 32, 32) > mm_time(256, 32, 32));
    }

    #[test]
    fn narrow_tx_hurts_coalescing() {
        // tx=2 gives 2-wide contiguous runs; tx=64 is fully coalesced.
        let n = 1024;
        let narrow = mm_time(n, 512, 2);
        let wide = mm_time(n, 16, 64);
        assert!(
            wide < narrow,
            "coalesced ({wide:.6}) should beat stride-y-heavy ({narrow:.6})"
        );
    }

    #[test]
    fn sequential_prefix_charges_syncs() {
        // An in-place kernel whose write is invariant over the outer loop:
        // for k { for i { A[i] = A[i] + B[k] } } -> k is a sync'd prefix.
        use tvm_tir::builder::{ser, store, FuncBuilder};
        let nk = 500i64;
        let a = placeholder([64], DType::F32, "A");
        let b = placeholder([500], DType::F32, "B");
        let mut fb = FuncBuilder::new("seq");
        let ab = fb.param(&a);
        let _bb = fb.param(&b);
        let body = ser("k", nk, |k| {
            ser("i", 64, move |i| {
                store(
                    &ab,
                    std::slice::from_ref(&i),
                    a.at(std::slice::from_ref(&i)) + b.at(std::slice::from_ref(&k)),
                )
            })
        });
        let f = fb.build(body);
        let cost = cost_model(&f, &GpuSpec::a100());
        assert_eq!(cost.stmts.len(), 1);
        assert_eq!(cost.stmts[0].launches, nk as f64);
        let spec = GpuSpec::a100();
        assert!(cost.stmts[0].overhead_s >= nk as f64 * spec.sync_overhead_s);
    }

    #[test]
    fn fp64_slower_than_fp32() {
        let n = 512usize;
        let build = |dt: DType| {
            let a = placeholder([n, n], dt, "A");
            let b = placeholder([n, n], dt, "B");
            let k = reduce_axis(0, n as i64, "k");
            let c = compute([n, n], "C", |i| {
                sum(
                    a.at(&[i[0].clone(), k.var_expr()]) * b.at(&[k.var_expr(), i[1].clone()]),
                    std::slice::from_ref(&k),
                )
            });
            let s = Schedule::create(std::slice::from_ref(&c));
            lower(&s, &[a, b, c], "mm")
        };
        let t32 = cost_model(&build(DType::F32), &GpuSpec::a100()).total();
        let t64 = cost_model(&build(DType::F64), &GpuSpec::a100()).total();
        assert!(t64 > t32);
    }

    #[test]
    fn cpu_core_slower_than_a100() {
        let f = tiled_matmul(1024, 32, 32);
        let ta = cost_model(&f, &GpuSpec::a100()).total();
        let tc = cost_model(&f, &GpuSpec::swing_cpu_core()).total();
        assert!(tc > ta);
    }

    #[test]
    fn guarded_nest_cheaper_than_full() {
        // Triangular guard halves effective work.
        use tvm_te::ops::cmp;
        use tvm_tir::builder::{ser2, store, when, FuncBuilder};
        let n = 256i64;
        let a = placeholder([n as usize, n as usize], DType::F32, "A");
        let build = |guarded: bool| {
            let mut fb = FuncBuilder::new("tri");
            let ab = fb.param(&a);
            let body = ser2("i", n, "j", n, |i, j| {
                let st = store(
                    &ab,
                    &[i.clone(), j.clone()],
                    a.at(&[i.clone(), j.clone()]) * tvm_te::PrimExpr::FloatImm(2.0, DType::F32),
                );
                if guarded {
                    when(cmp::lt(j, i), st)
                } else {
                    st
                }
            });
            fb.build(body)
        };
        let full = cost_model(&build(false), &GpuSpec::a100()).total();
        let tri = cost_model(&build(true), &GpuSpec::a100()).total();
        assert!(tri < full, "tri={tri}, full={full}");
    }
}
