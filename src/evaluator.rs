//! The mold evaluator: configuration → instantiate → build → run,
//! with the paper's process-time accounting.

use autotvm::measure::{Evaluator, MeasureError, MeasureResult};
use configspace::{ConfigSpace, Configuration};
use polybench::molds::CodeMold;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tvm_runtime::{CompiledFunc, Device, NDArray};
use tvm_tir::analyze::{Diagnostic, PruneReport, PruneStage, Severity, Verdict};
use tvm_tir::PrimFunc;
use ytopt_bo::problem::{CacheStats, JitStats, ParStats, PruneStats, SimdStats, StaticCheckStats};

/// Modeled host↔device transfer bandwidth (PCIe 4.0 ×16), bytes/s.
const TRANSFER_BW: f64 = 16e9;

/// How argument data is handled per evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalMode {
    /// Analytical device: runtime is modeled from the lowered function;
    /// no data is allocated (the paper-scale experiments).
    Simulated,
    /// Real execution: arrays are initialized and the kernel actually
    /// runs on the device (correctness runs, CPU examples).
    Real,
}

/// A cached static rejection: which pipeline stage denied the config and
/// the diagnostics justifying it, so batch pruning can replay the full
/// verdict and the error message stays stable across replays.
struct Rejection {
    stage: PruneStage,
    summary: String,
    diagnostics: Vec<Diagnostic>,
}

/// One memoized lowering: the instantiated function, its (modeled or
/// real) build cost, and the device's compiled artifact when it has one.
/// Statically rejected configs cache the verdict instead of a build —
/// prelint denials never even instantiate, so `func` is `None` there —
/// and every re-proposal replays the rejection without re-analysis.
struct CacheEntry {
    func: Option<PrimFunc>,
    build_s: f64,
    prepared: Option<Arc<CompiledFunc>>,
    reject: Option<Rejection>,
}

/// Process-wide lowering + compilation memo cache, shareable across
/// evaluators and tuning sessions.
///
/// Keys already fold in the kernel name, problem size, configuration and
/// the device's pipeline fingerprint (see [`MoldEvaluator::cache_key`]'s
/// doc), so one cache can safely serve many concurrent sessions tuning
/// different kernels on different engines: distinct workloads can never
/// collide, and a pipeline change can never replay a stale artifact.
/// Every [`MoldEvaluator`] gets a private cache by default; pass one
/// [`Arc<MemoCache>`] to several evaluators via
/// [`MoldEvaluator::with_cache`] to share builds across them — the
/// multi-tenant tuning service does exactly that and surfaces the
/// aggregate counters through its status endpoint.
#[derive(Default)]
pub struct MemoCache {
    entries: Mutex<HashMap<u64, Arc<CacheEntry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl MemoCache {
    /// Fresh, empty cache.
    pub fn new() -> MemoCache {
        MemoCache::default()
    }

    /// Aggregate hit/miss counters across every evaluator using this
    /// cache.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of memoized lowerings.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache lock").len()
    }

    /// True when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookup, counting a hit on success.
    fn get(&self, key: u64) -> Option<Arc<CacheEntry>> {
        let found = self.entries.lock().expect("cache lock").get(&key).cloned();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Insert a freshly computed entry, counting the miss that led here.
    fn insert(&self, key: u64, entry: Arc<CacheEntry>) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.entries.lock().expect("cache lock").insert(key, entry);
    }
}

/// Positions, among `func`'s parameters, of the buffers its body stores
/// to: the arrays a run changes, the only ones a repeat must get back.
fn stored_params(func: &PrimFunc) -> Vec<usize> {
    let mut stored = vec![false; func.params.len()];
    func.body.walk(&mut |s| {
        if let tvm_tir::Stmt::BufferStore { buffer, .. } = s {
            if let Some(p) = func.params.iter().position(|b| b.id == buffer.id) {
                stored[p] = true;
            }
        }
    });
    (0..stored.len()).filter(|&p| stored[p]).collect()
}

/// Measures configurations of one code mold on one device.
///
/// Process time per evaluation = mold instantiation (real wall clock) +
/// modeled/real build cost + one data transfer + `repeats` timed runs —
/// the ingredients of the paper's "overall autotuning process time".
///
/// After instantiation — and before any compilation or measurement —
/// the lowered function passes through the static schedule-safety
/// analyzer ([`tvm_tir::analyze`]). A `Deny` verdict short-circuits the
/// evaluation into [`MeasureError::StaticReject`], charged only the
/// analysis time; accept/reject counters are surfaced through
/// [`Evaluator::static_check_stats`] next to the cache counters.
///
/// Lowering and compilation are memoized per `(kernel, size, config)`
/// hash: repeated proposals (GridSearch revisits, GA duplicates, repeated
/// measurement) reuse the cached [`PrimFunc`] and compiled artifact and
/// skip both re-lowering and the build cost. Hit/miss counters are
/// surfaced through [`Evaluator::cache_stats`] into tuning results.
///
/// All interior state is behind a `Mutex`/atomics, so one evaluator can
/// be shared by the parallel measurement driver (`tune_parallel`).
pub struct MoldEvaluator {
    mold: Box<dyn CodeMold>,
    device: Box<dyn Device>,
    mode: EvalMode,
    /// Timed runs per evaluation (AutoTVM measures multiple times; ytopt
    /// evaluates once).
    pub repeats: usize,
    cache: Arc<MemoCache>,
    accepted: AtomicU64,
    rejected: AtomicU64,
    prelint_denied: AtomicU64,
    denied_by_code: Mutex<HashMap<String, u64>>,
    /// Lowered-but-unbuilt functions by memo key: what the latest
    /// [`MoldEvaluator::prune`] admitted and no evaluation has taken yet.
    /// The evaluation that follows builds from here instead of lowering
    /// (and charging the lowering) a second time.
    lowered: Mutex<HashMap<u64, PrimFunc>>,
}

impl MoldEvaluator {
    /// Evaluator over the analytical device (no data allocation).
    pub fn simulated(mold: Box<dyn CodeMold>, device: impl Device + 'static) -> MoldEvaluator {
        MoldEvaluator {
            mold,
            device: Box::new(device),
            mode: EvalMode::Simulated,
            repeats: 1,
            cache: Arc::new(MemoCache::new()),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            prelint_denied: AtomicU64::new(0),
            denied_by_code: Mutex::new(HashMap::new()),
            lowered: Mutex::new(HashMap::new()),
        }
    }

    /// Evaluator that really executes kernels (compiled VM on the CPU
    /// device, interpreter fallback).
    pub fn real(mold: Box<dyn CodeMold>, device: impl Device + 'static) -> MoldEvaluator {
        MoldEvaluator {
            mold,
            device: Box::new(device),
            mode: EvalMode::Real,
            repeats: 1,
            cache: Arc::new(MemoCache::new()),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            prelint_denied: AtomicU64::new(0),
            denied_by_code: Mutex::new(HashMap::new()),
            lowered: Mutex::new(HashMap::new()),
        }
    }

    /// Builder: timed runs per evaluation.
    pub fn with_repeats(mut self, repeats: usize) -> Self {
        self.repeats = repeats.max(1);
        self
    }

    /// Builder: share a process-wide [`MemoCache`] instead of the private
    /// per-evaluator one. Safe across kernels, sizes and engines because
    /// all of them are folded into the memo key.
    pub fn with_cache(mut self, cache: Arc<MemoCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The underlying mold.
    pub fn mold(&self) -> &dyn CodeMold {
        self.mold.as_ref()
    }

    /// The tuning space (inherent, so callers need not import the
    /// `Evaluator` trait).
    pub fn space(&self) -> &ConfigSpace {
        self.mold.space()
    }

    /// Workload id for records, e.g. `"lu-large"`.
    pub fn workload(&self) -> String {
        format!("{}-{}", self.mold.name(), self.mold.size())
    }

    /// Snapshot of the memo cache's hit/miss counters. With a shared
    /// [`MemoCache`] these are the *aggregate* counters across every
    /// evaluator on that cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Snapshot of the static analyzer's accept/reject counters (one
    /// count per analyzed config, i.e. per cache miss).
    pub fn static_check_stats(&self) -> StaticCheckStats {
        StaticCheckStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }

    /// Memo key: hash of (kernel, problem size, configuration, and the
    /// device's compile-pipeline fingerprint). Including the fingerprint
    /// means a pipeline change can never replay a stale cached build.
    fn cache_key(&self, config: &Configuration) -> u64 {
        let mut h = DefaultHasher::new();
        self.mold.name().hash(&mut h);
        self.mold.size().to_string().hash(&mut h);
        config.key().hash(&mut h);
        self.device.fingerprint().hash(&mut h);
        h.finish()
    }

    /// Count one denial into the lifetime pruning counters (called
    /// exactly once per denied config, at reject-entry insertion — cache
    /// replays never recount).
    fn count_denial(&self, stage: PruneStage, diagnostics: &[Diagnostic]) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        if stage == PruneStage::Prelint {
            self.prelint_denied.fetch_add(1, Ordering::Relaxed);
        }
        let mut codes: Vec<&str> = diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .map(|d| d.code)
            .collect();
        codes.sort_unstable();
        codes.dedup();
        let mut by_code = self.denied_by_code.lock().expect("prune counters lock");
        for code in codes {
            *by_code.entry(code.to_string()).or_insert(0) += 1;
        }
    }

    /// Run the static gate on an uncached config: the cheap pre-lowering
    /// legality prelint first (denied configs are never instantiated),
    /// then the full analyzer over the lowered function. Returns the
    /// rejection to cache, or the admitted function.
    fn static_gate(&self, config: &Configuration) -> Result<PrimFunc, Arc<CacheEntry>> {
        let lint = self.mold.prelint(config);
        if lint.iter().any(|d| d.severity == Severity::Deny) {
            let summary = tvm_tir::analyze::AnalysisReport {
                function: self.mold.name().to_string(),
                diagnostics: lint.clone(),
            }
            .reject_summary();
            self.count_denial(PruneStage::Prelint, &lint);
            return Err(Arc::new(CacheEntry {
                func: None,
                build_s: 0.0,
                prepared: None,
                reject: Some(Rejection {
                    stage: PruneStage::Prelint,
                    summary,
                    diagnostics: lint,
                }),
            }));
        }
        let func = self.mold.instantiate(config);
        let report = tvm_tir::analyze::check(&func);
        if report.is_rejected() {
            let summary = report.reject_summary();
            self.count_denial(PruneStage::Analysis, &report.diagnostics);
            return Err(Arc::new(CacheEntry {
                func: Some(func),
                build_s: 0.0,
                prepared: None,
                reject: Some(Rejection {
                    stage: PruneStage::Analysis,
                    summary,
                    diagnostics: report.diagnostics,
                }),
            }));
        }
        Ok(func)
    }

    /// Cached lowering for `config`: prelint + instantiate + analyze +
    /// build-cost + compile on the first request, a map lookup afterwards.
    /// A function the preceding `prune` already lowered and admitted is
    /// taken over as is; building and all counting still happen here.
    fn lower_cached(&self, config: &Configuration) -> (Arc<CacheEntry>, bool) {
        let key = self.cache_key(config);
        if let Some(entry) = self.cache.get(key) {
            return (entry, true);
        }
        let handed = self.lowered.lock().expect("lowered lock").remove(&key);
        let entry = match handed.map_or_else(|| self.static_gate(config), Ok) {
            Err(reject) => reject,
            Ok(func) => {
                self.accepted.fetch_add(1, Ordering::Relaxed);
                let build_s = self.device.build_cost(&func);
                let prepared = self.device.prepare(&func);
                Arc::new(CacheEntry {
                    func: Some(func),
                    build_s,
                    prepared,
                    reject: None,
                })
            }
        };
        self.cache.insert(key, Arc::clone(&entry));
        (entry, false)
    }

    /// Statically filter a batch of candidates before any compilation or
    /// measurement: per config, the prelint runs first (denied schedules
    /// are never instantiated), then the full analyzer. Denials are
    /// cached so the later `evaluate` replays the verdict; admitted
    /// candidates are *not* cached here — their lowered functions wait
    /// for the evaluations of this batch, whose cache miss still pays
    /// (and accounts) the build. Lowering is thus done, and charged to
    /// process time by the driver, once: here.
    pub fn prune(&self, batch: &[Configuration]) -> PruneReport {
        let mut report = PruneReport::default();
        let mut lowered = HashMap::new();
        for config in batch {
            let key = self.cache_key(config);
            if let Some(entry) = self.cache.get(key) {
                match &entry.reject {
                    Some(r) => report.deny(r.stage, r.diagnostics.clone()),
                    None => report.admit(),
                }
                continue;
            }
            if lowered.contains_key(&key) {
                report.admit();
                continue;
            }
            match self.static_gate(config) {
                Err(reject) => {
                    let r = reject.reject.as_ref().expect("static_gate rejection");
                    report.deny(r.stage, r.diagnostics.clone());
                    self.cache.insert(key, reject);
                }
                Ok(func) => {
                    lowered.insert(key, func);
                    report.admit();
                }
            }
        }
        // Replacing drops what an earlier batch left unevaluated, so at
        // most one batch of lowered functions is ever held.
        *self.lowered.lock().expect("lowered lock") = lowered;
        report
    }
}

impl Evaluator for MoldEvaluator {
    fn space(&self) -> &ConfigSpace {
        self.mold.space()
    }

    fn evaluate(&self, config: &Configuration) -> MeasureResult {
        let t0 = Instant::now();
        if !self.mold.space().validate(config) {
            return MeasureResult::fail(
                MeasureError::InvalidSchedule(format!("configuration {config} not in space")),
                t0.elapsed().as_secs_f64(),
            );
        }
        let (entry, cache_hit) = self.lower_cached(config);
        // Real wall clock of this evaluation's lowering work: the full
        // instantiate + static analysis on a miss, a map lookup on a hit.
        let instantiate_s = t0.elapsed().as_secs_f64();
        if let Some(rejection) = &entry.reject {
            // Rejected before compilation: only analysis time is charged.
            return MeasureResult::fail(
                MeasureError::StaticReject(format!("statically rejected: {}", rejection.summary)),
                instantiate_s,
            );
        }
        // The build cost is paid once; cache hits reuse the artifact.
        let build_s = if cache_hit { 0.0 } else { entry.build_s };
        let func = entry
            .func
            .as_ref()
            .expect("admitted cache entry carries its lowered function");
        let transfer_bytes: usize = func.params.iter().map(|b| b.size_bytes()).sum();
        let transfer_s = transfer_bytes as f64 / TRANSFER_BW;

        let mut best = f64::INFINITY;
        let mut process = instantiate_s + build_s + transfer_s;
        // The kernels run in place, so every repeat needs fresh arrays —
        // the same ones: built once, and before every repeat but the first
        // the parameters the kernel stores to are copied back, in place,
        // from the pristine copies taken of them alone.
        let mut arrays: Option<Vec<NDArray>> = None;
        let mut pristine: Vec<(usize, NDArray)> = Vec::new();
        for repeat in 0..self.repeats {
            let run = match self.mode {
                EvalMode::Simulated => {
                    let mut no_args: [NDArray; 0] = [];
                    self.device.run(func, &mut no_args)
                }
                EvalMode::Real => {
                    let args = arrays.get_or_insert_with(|| self.mold.init_args());
                    if repeat > 0 {
                        for (p, original) in &pristine {
                            args[*p].copy_from(original);
                        }
                    } else if self.repeats > 1 {
                        let kept = stored_params(func).into_iter();
                        pristine = kept.map(|p| (p, args[p].clone())).collect();
                    }
                    match entry.prepared.as_deref() {
                        // Compiled once per configuration; every repeat
                        // (and every cache hit) reuses the artifact.
                        Some(prepared) => self.device.run_prepared(prepared, args),
                        None => self.device.run(func, args),
                    }
                }
            };
            match run {
                Ok(t) => {
                    best = best.min(t);
                    process += t;
                }
                Err(e) => {
                    // Classify the device's free-form error into the
                    // taxonomy (e.g. an injected "transient device fault"
                    // becomes retryable for the harness).
                    return MeasureResult::fail(MeasureError::classify(e.to_string()), process);
                }
            }
        }
        MeasureResult::ok(best, process)
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        Some(MoldEvaluator::cache_stats(self))
    }

    fn static_check_stats(&self) -> Option<StaticCheckStats> {
        Some(MoldEvaluator::static_check_stats(self))
    }

    fn pipeline_fingerprint(&self) -> Option<String> {
        self.device.fingerprint()
    }

    // The three device snapshots below are converted from the runtime's
    // counter types into the serializable mirrors the tuning/service
    // layers report; each is `None` on an engine without that rung.

    fn jit_stats(&self) -> Option<JitStats> {
        self.device.jit_stats().map(|s| JitStats {
            functions_jitted: s.functions_jitted,
            nests_compiled: s.nests_compiled,
            bytes_emitted: s.bytes_emitted,
            fallbacks: s.fallbacks,
            fallback_reasons: s.fallback_reasons,
        })
    }

    fn par_stats(&self) -> Option<ParStats> {
        self.device.par_stats().map(|s| ParStats {
            loops_proven: s.loops_proven,
            loops_unproven: s.loops_unproven,
            dispatches: s.dispatches,
            fallbacks: s.fallbacks,
            fallback_reasons: s.fallback_reasons,
            pool_threads: s.pool_threads,
            threads_spawned: s.threads_spawned,
        })
    }

    fn simd_stats(&self) -> Option<SimdStats> {
        self.device.simd_stats().map(|s| SimdStats {
            packed_loops: s.packed_loops,
            tiled_loops: s.tiled_loops,
            scalar_loops: s.scalar_loops,
            f64_lanes: u64::from(s.f64_lanes),
            f32_lanes: u64::from(s.f32_lanes),
            scalar_reasons: s.scalar_reasons,
        })
    }

    /// The batch verdicts of [`MoldEvaluator::prune`] as the admission
    /// mask: `Some(message)` is the exact `StaticReject` message
    /// `evaluate` replays, so pre-filtered trial streams are
    /// byte-identical to evaluated ones.
    fn prune_batch(&self, batch: &[Configuration]) -> Option<Vec<Option<String>>> {
        let mask = self.prune(batch).verdicts.into_iter().map(|v| match v {
            Verdict::Admit => None,
            Verdict::Deny { diagnostics, .. } => {
                let summary = tvm_tir::analyze::AnalysisReport {
                    function: self.mold.name().to_string(),
                    diagnostics,
                }
                .reject_summary();
                Some(format!("statically rejected: {summary}"))
            }
        });
        Some(mask.collect())
    }

    /// Lifetime pruning counters: admitted = configs that passed the
    /// full gate at evaluation time, denials split by pipeline stage
    /// with per-code counts.
    fn prune_stats(&self) -> Option<PruneStats> {
        let rejected = self.rejected.load(Ordering::Relaxed);
        let prelint_denied = self.prelint_denied.load(Ordering::Relaxed);
        let mut denied_by_code: Vec<(String, u64)> = self
            .denied_by_code
            .lock()
            .expect("prune counters lock")
            .iter()
            .map(|(c, n)| (c.clone(), *n))
            .collect();
        denied_by_code.sort();
        Some(PruneStats {
            admitted: self.accepted.load(Ordering::Relaxed),
            prelint_denied,
            analyzer_denied: rejected - prelint_denied,
            denied_by_code,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{GpuSpec, SimDevice};
    use polybench::molds::mold_for;
    use polybench::{KernelName, ProblemSize};
    use tvm_runtime::CpuDevice;

    #[test]
    fn simulated_evaluation_charges_build_and_run() {
        let mold = mold_for(KernelName::Lu, ProblemSize::Large);
        let ev = MoldEvaluator::simulated(mold, SimDevice::new(GpuSpec::a100()));
        let cfg = Evaluator::space(&ev).default_configuration();
        let r = Evaluator::evaluate(&ev, &cfg);
        assert!(r.is_ok(), "error: {:?}", r.error);
        let runtime = r.runtime_s.expect("ok");
        assert!(runtime > 0.0);
        // Process includes build (~0.8 s) + transfer + the run itself.
        assert!(r.process_s > runtime, "process must exceed bare runtime");
        assert_eq!(ev.workload(), "lu-large");
    }

    #[test]
    fn repeats_increase_process_time_not_runtime() {
        let mold = mold_for(KernelName::Cholesky, ProblemSize::Large);
        let once = MoldEvaluator::simulated(
            mold_for(KernelName::Cholesky, ProblemSize::Large),
            SimDevice::new(GpuSpec::a100()),
        );
        let thrice =
            MoldEvaluator::simulated(mold, SimDevice::new(GpuSpec::a100())).with_repeats(3);
        let cfg = Evaluator::space(&once).default_configuration();
        let r1 = Evaluator::evaluate(&once, &cfg);
        let r3 = Evaluator::evaluate(&thrice, &cfg);
        assert_eq!(r1.runtime_s, r3.runtime_s, "deterministic device");
        assert!(r3.process_s > r1.process_s);
    }

    /// A mold that counts how often its arrays are built.
    struct CountingMold(Box<dyn CodeMold>, Arc<std::sync::atomic::AtomicUsize>);

    impl CodeMold for CountingMold {
        fn name(&self) -> &str {
            self.0.name()
        }

        fn size(&self) -> ProblemSize {
            self.0.size()
        }

        fn space(&self) -> &configspace::ConfigSpace {
            self.0.space()
        }

        fn instantiate(&self, config: &Configuration) -> tvm_tir::PrimFunc {
            self.0.instantiate(config)
        }

        fn init_args(&self) -> Vec<NDArray> {
            self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.0.init_args()
        }

        fn reference_args(&self) -> Vec<Option<NDArray>> {
            self.0.reference_args()
        }
    }

    /// A JIT device that keeps the arrays every run was handed.
    struct RecordingDevice(CpuDevice, Arc<Mutex<Vec<Vec<NDArray>>>>);

    impl Device for RecordingDevice {
        fn name(&self) -> &str {
            self.0.name()
        }

        fn run(
            &self,
            func: &tvm_tir::PrimFunc,
            args: &mut [NDArray],
        ) -> Result<f64, tvm_runtime::DeviceError> {
            self.1.lock().expect("record lock").push(args.to_vec());
            self.0.run(func, args)
        }

        fn prepare(&self, func: &tvm_tir::PrimFunc) -> Option<Arc<CompiledFunc>> {
            self.0.prepare(func)
        }

        fn run_prepared(
            &self,
            prepared: &CompiledFunc,
            args: &mut [NDArray],
        ) -> Result<f64, tvm_runtime::DeviceError> {
            self.1.lock().expect("record lock").push(args.to_vec());
            self.0.run_prepared(prepared, args)
        }
    }

    #[test]
    fn every_repeat_of_every_mold_starts_from_the_arrays_init_args_builds() {
        // Only the parameters a kernel stores to are copied back between
        // repeats (`Out` for gemm, `A` for lu): the run must not have
        // changed any other. Seven molds, paper and aggressive spaces,
        // the default and two sampled configurations each.
        use polybench::molds::mold_for_mode;
        use polybench::SpaceMode;
        use rand::SeedableRng;
        const KERNELS: [KernelName; 7] = [
            KernelName::Mm3,
            KernelName::Lu,
            KernelName::Cholesky,
            KernelName::Gemm,
            KernelName::Mm2,
            KernelName::Syrk,
            KernelName::Trmm,
        ];
        let mut rng = rand::rngs::SmallRng::seed_from_u64(22);
        let (mut runs, mut restored, mut params) = (0, 0, 0);
        for kernel in KERNELS {
            for mode in [SpaceMode::Paper, SpaceMode::Aggressive] {
                let mold = || mold_for_mode(kernel, ProblemSize::Mini, mode);
                let record = Arc::new(Mutex::new(Vec::new()));
                let device = RecordingDevice(CpuDevice::jit(), record.clone());
                let ev = MoldEvaluator::real(mold(), device).with_repeats(3);
                let space = Evaluator::space(&ev).clone();
                let mut configs = vec![space.default_configuration()];
                configs.extend((0..2).map(|_| space.sample(&mut rng)));
                let pristine = mold().init_args();
                for cfg in configs {
                    let before = record.lock().expect("record lock").len();
                    let r = Evaluator::evaluate(&ev, &cfg);
                    let record = record.lock().expect("record lock");
                    // A statically rejected configuration runs nothing.
                    assert_eq!(r.is_ok(), record.len() == before + 3, "{kernel:?} {cfg}");
                    for args in &record[before..] {
                        assert_eq!(args, &pristine, "{kernel:?} {mode:?} {cfg}");
                        runs += 1;
                    }
                    if r.is_ok() {
                        let func = mold().instantiate(&cfg);
                        let stored = stored_params(&func);
                        assert!(!stored.is_empty(), "{kernel:?}");
                        restored += stored.len();
                        params += func.params.len();
                    }
                }
            }
        }
        // Every kernel but the two in-place ones reads arrays it never
        // writes: those are built once and never copied.
        assert!(runs >= 7 * 2 * 3 && restored >= 7 * 2, "{runs} {restored}");
        assert!(2 * restored < params, "{restored} of {params}");
    }

    #[test]
    fn arrays_are_built_once_per_evaluation_and_every_repeat_starts_fresh() {
        // lu runs in place: a repeat that started from the previous
        // repeat's output would factor a factored matrix. One repeat and
        // three must agree with the reference, from one `init_args` each.
        let built = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        for (repeats, calls) in [(1, 1), (3, 2)] {
            let mold = CountingMold(mold_for(KernelName::Lu, ProblemSize::Mini), built.clone());
            let ev = MoldEvaluator::real(Box::new(mold), CpuDevice::new()).with_repeats(repeats);
            let cfg = Evaluator::space(&ev).default_configuration();
            let r = Evaluator::evaluate(&ev, &cfg);
            assert!(r.is_ok(), "error: {:?}", r.error);
            assert_eq!(built.load(std::sync::atomic::Ordering::Relaxed), calls);
        }
        // What every repeat runs on is what a lone run gets.
        let mold = mold_for(KernelName::Lu, ProblemSize::Mini);
        let func = mold.instantiate(&mold.space().default_configuration());
        let (original, mut first) = (mold.init_args(), mold.init_args());
        let mut copy = original.clone();
        CpuDevice::new().run(&func, &mut first).expect("runs");
        CpuDevice::new().run(&func, &mut copy).expect("runs");
        assert_eq!(first, copy);
        assert_ne!(first, original, "lu overwrites its argument");
    }

    #[test]
    fn real_mode_executes_on_cpu() {
        let mold = mold_for(KernelName::Lu, ProblemSize::Mini);
        let ev = MoldEvaluator::real(mold, CpuDevice::new());
        let cfg = Evaluator::space(&ev).default_configuration();
        let r = Evaluator::evaluate(&ev, &cfg);
        assert!(r.is_ok(), "error: {:?}", r.error);
        assert!(r.runtime_s.expect("ok") > 0.0);
    }

    #[test]
    fn jit_device_stats_surface_through_evaluator() {
        let mold = mold_for(KernelName::Gemm, ProblemSize::Mini);
        let ev = MoldEvaluator::real(mold, CpuDevice::jit());
        let cfg = Evaluator::space(&ev).default_configuration();
        let r = Evaluator::evaluate(&ev, &cfg);
        assert!(r.is_ok(), "error: {:?}", r.error);
        let stats = Evaluator::jit_stats(&ev).expect("jit device surfaces stats");
        assert_eq!(stats.attempts(), 1, "one compile attempt for one config");
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        assert_eq!(
            stats.functions_jitted, 1,
            "gemm must jit on x86-64: {:?}",
            stats.fallback_reasons
        );
        // Non-JIT devices surface nothing.
        let plain = MoldEvaluator::real(
            mold_for(KernelName::Gemm, ProblemSize::Mini),
            CpuDevice::new(),
        );
        assert!(Evaluator::jit_stats(&plain).is_none());
    }

    #[test]
    fn repeated_config_hits_cache_and_skips_rebuild() {
        let mold = mold_for(KernelName::Lu, ProblemSize::Large);
        let ev = MoldEvaluator::simulated(mold, SimDevice::new(GpuSpec::a100()));
        let cfg = Evaluator::space(&ev).default_configuration();
        let other = Evaluator::space(&ev).at(1);

        let first = Evaluator::evaluate(&ev, &cfg);
        let second = Evaluator::evaluate(&ev, &cfg);
        let _third = Evaluator::evaluate(&ev, &other);
        assert_eq!(
            first.runtime_s, second.runtime_s,
            "same artifact, same time"
        );
        // The hit skips instantiation and the ~0.8 s simulated build.
        assert!(
            second.process_s < first.process_s - 0.5,
            "hit must not re-pay the build: {} vs {}",
            second.process_s,
            first.process_s
        );
        let stats = ev.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2, "distinct configs miss");
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(Evaluator::cache_stats(&ev), Some(stats));
    }

    #[test]
    fn real_mode_reuses_compiled_artifact_across_evaluations() {
        let mold = mold_for(KernelName::Lu, ProblemSize::Mini);
        let ev = MoldEvaluator::real(mold, CpuDevice::new());
        let cfg = Evaluator::space(&ev).default_configuration();
        let first = Evaluator::evaluate(&ev, &cfg);
        let second = Evaluator::evaluate(&ev, &cfg);
        assert!(first.is_ok() && second.is_ok());
        let stats = ev.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn shared_cache_serves_hits_across_evaluators() {
        let shared = Arc::new(MemoCache::new());
        let a = MoldEvaluator::simulated(
            mold_for(KernelName::Lu, ProblemSize::Large),
            SimDevice::new(GpuSpec::a100()),
        )
        .with_cache(Arc::clone(&shared));
        let b = MoldEvaluator::simulated(
            mold_for(KernelName::Lu, ProblemSize::Large),
            SimDevice::new(GpuSpec::a100()),
        )
        .with_cache(Arc::clone(&shared));
        let cfg = Evaluator::space(&a).default_configuration();

        let first = Evaluator::evaluate(&a, &cfg);
        let second = Evaluator::evaluate(&b, &cfg);
        assert_eq!(first.runtime_s, second.runtime_s);
        // The second evaluator never lowered or built: cross-evaluator hit.
        assert!(
            second.process_s < first.process_s - 0.5,
            "shared cache must skip the build: {} vs {}",
            second.process_s,
            first.process_s
        );
        assert_eq!((shared.stats().hits, shared.stats().misses), (1, 1));
        assert_eq!(shared.len(), 1);

        // A different kernel on the same cache cannot collide.
        let c = MoldEvaluator::simulated(
            mold_for(KernelName::Cholesky, ProblemSize::Large),
            SimDevice::new(GpuSpec::a100()),
        )
        .with_cache(Arc::clone(&shared));
        let ccfg = Evaluator::space(&c).default_configuration();
        assert!(Evaluator::evaluate(&c, &ccfg).is_ok());
        assert_eq!(shared.stats().misses, 2, "distinct workload is a miss");
        assert_eq!(shared.len(), 2);
    }

    #[test]
    fn devices_sharing_a_cache_keep_their_own_runtimes() {
        // Analytical devices have no pipeline fingerprint, so an a100 and a
        // CPU-core evaluator on one cache share memo entries — the lowered
        // function, never a modeled time.
        let shared = Arc::new(MemoCache::new());
        let on = |spec: GpuSpec| {
            MoldEvaluator::simulated(
                mold_for(KernelName::Lu, ProblemSize::Large),
                SimDevice::new(spec),
            )
            .with_cache(Arc::clone(&shared))
        };
        let (a100, core) = (on(GpuSpec::a100()), on(GpuSpec::swing_cpu_core()));
        let cfg = Evaluator::space(&a100).default_configuration();
        let alone = |spec: GpuSpec| {
            let ev = MoldEvaluator::simulated(
                mold_for(KernelName::Lu, ProblemSize::Large),
                SimDevice::new(spec),
            );
            Evaluator::evaluate(&ev, &cfg).runtime_s
        };

        let first = Evaluator::evaluate(&a100, &cfg).runtime_s;
        let second = Evaluator::evaluate(&core, &cfg).runtime_s;
        let again = Evaluator::evaluate(&a100, &cfg).runtime_s;
        assert_eq!((shared.stats().hits, shared.stats().misses), (2, 1));
        assert_eq!(first, alone(GpuSpec::a100()));
        assert_eq!(second, alone(GpuSpec::swing_cpu_core()));
        assert_ne!(first, second, "each device reports its own model");
        assert_eq!(again, first);
    }

    #[test]
    fn prune_hands_its_lowering_to_the_evaluation() {
        let ev =
            MoldEvaluator::simulated(Box::new(RacyMold::new()), SimDevice::new(GpuSpec::a100()));
        let safe = Evaluator::space(&ev).at(0);
        let racy = Evaluator::space(&ev).at(1);
        let report = ev.prune(&[safe.clone(), racy.clone(), safe.clone()]);
        assert_eq!((report.admitted, report.analyzer_denied), (2, 1));
        // Nothing is built or counted as accepted until evaluation.
        assert_eq!(ev.cache_stats().misses, 1, "only the denial is cached");
        assert_eq!(ev.static_check_stats().accepted, 0);
        assert_eq!(ev.lowered.lock().expect("lowered lock").len(), 1);

        let fresh =
            MoldEvaluator::simulated(Box::new(RacyMold::new()), SimDevice::new(GpuSpec::a100()));
        let handed = Evaluator::evaluate(&ev, &safe);
        let lowered_here = Evaluator::evaluate(&fresh, &safe);
        assert_eq!(handed.runtime_s, lowered_here.runtime_s);
        assert!(ev.lowered.lock().expect("lowered lock").is_empty());
        let stats = ev.static_check_stats();
        assert_eq!((stats.accepted, stats.rejected), (1, 1));
        assert_eq!((ev.cache_stats().hits, ev.cache_stats().misses), (0, 2));

        // The next batch replaces what the previous one left behind.
        let other = MoldEvaluator::simulated(
            mold_for(KernelName::Lu, ProblemSize::Mini),
            SimDevice::new(GpuSpec::a100()),
        );
        let space = Evaluator::space(&other).clone();
        other.prune(&[space.at(0), space.at(1)]);
        other.prune(&[space.at(2)]);
        assert_eq!(other.lowered.lock().expect("lowered lock").len(), 1);
    }

    #[test]
    fn foreign_configuration_fails_gracefully() {
        use configspace::ParamValue;
        let mold = mold_for(KernelName::Lu, ProblemSize::Mini);
        let ev = MoldEvaluator::simulated(mold, SimDevice::new(GpuSpec::a100()));
        let bad = Configuration::new(
            vec!["P0".into(), "P1".into()],
            vec![ParamValue::Int(7), ParamValue::Int(7)], // 7 ∤ 40
        );
        let r = Evaluator::evaluate(&ev, &bad);
        assert!(!r.is_ok());
    }

    /// Test mold that lowers to a safe elementwise kernel for `P0 = 0`
    /// and to a parallel reduction race for `P0 = 1`.
    struct RacyMold {
        space: configspace::ConfigSpace,
    }

    impl RacyMold {
        fn new() -> RacyMold {
            let mut space = configspace::ConfigSpace::new();
            space.add(configspace::Hyperparameter::ordinal_ints("P0", &[0, 1]));
            RacyMold { space }
        }
    }

    impl CodeMold for RacyMold {
        fn name(&self) -> &str {
            "racy"
        }

        fn size(&self) -> ProblemSize {
            ProblemSize::Mini
        }

        fn space(&self) -> &configspace::ConfigSpace {
            &self.space
        }

        fn instantiate(&self, config: &Configuration) -> tvm_tir::PrimFunc {
            use tvm_te::{ops, DType, Var};
            use tvm_tir::{Buffer, ForKind, PrimFunc, Stmt};
            let i = Var::index("i");
            let c = Buffer::new("C", [8usize], DType::F32);
            let c_read = tvm_te::placeholder([8], DType::F32, "C");
            let store = if config.int("P0") == 1 {
                // parallel i: C[0] = C[0] + 1 — write-write race.
                Stmt::BufferStore {
                    buffer: c.clone(),
                    indices: vec![ops::int(0)],
                    value: c_read.at(&[ops::int(0)]) + ops::float(1.0),
                }
            } else {
                Stmt::BufferStore {
                    buffer: c.clone(),
                    indices: vec![i.expr()],
                    value: ops::float(0.0),
                }
            };
            PrimFunc {
                name: "racy".into(),
                params: vec![c],
                allocs: vec![],
                body: Stmt::For {
                    var: i,
                    min: 0,
                    extent: 8,
                    kind: ForKind::Parallel,
                    body: Box::new(store),
                },
            }
        }

        fn init_args(&self) -> Vec<tvm_runtime::NDArray> {
            vec![tvm_runtime::NDArray::zeros(&[8], tvm_te::DType::F32)]
        }

        fn reference_args(&self) -> Vec<Option<tvm_runtime::NDArray>> {
            vec![None]
        }
    }

    #[test]
    fn racy_config_is_rejected_before_compilation() {
        let ev =
            MoldEvaluator::simulated(Box::new(RacyMold::new()), SimDevice::new(GpuSpec::a100()));
        let safe = Evaluator::space(&ev).at(0);
        let racy = Evaluator::space(&ev).at(1);

        let good = Evaluator::evaluate(&ev, &safe);
        assert!(good.is_ok(), "safe config must measure: {:?}", good.error);

        let bad = Evaluator::evaluate(&ev, &racy);
        assert!(!bad.is_ok());
        let err = bad.error.as_ref().expect("rejection carries an error");
        assert_eq!(err.kind(), "static_reject");
        assert!(
            err.message().contains("TIR-RACE"),
            "verdict names the finding: {}",
            err.message()
        );
        // No build or run was charged: only the (fast) analysis time.
        assert!(
            bad.process_s < good.process_s,
            "rejection must be cheaper than a measurement: {} vs {}",
            bad.process_s,
            good.process_s
        );

        // Counters: one accept, one reject, surfaced via the trait.
        let stats = MoldEvaluator::static_check_stats(&ev);
        assert_eq!((stats.accepted, stats.rejected), (1, 1));
        assert_eq!(Evaluator::static_check_stats(&ev), Some(stats));

        // Replaying the rejected config hits the cache, replays the same
        // verdict, and does not re-run the analyzer.
        let again = Evaluator::evaluate(&ev, &racy);
        assert_eq!(again.error, bad.error);
        let stats = MoldEvaluator::static_check_stats(&ev);
        assert_eq!((stats.accepted, stats.rejected), (1, 1));
        assert_eq!(ev.cache_stats().hits, 1);
    }

    #[test]
    fn static_reject_round_trips_through_the_journal() {
        use autotvm::{resume_from_journal, tune_journaled, TuneOptions, YtoptTuner};
        use ytopt_bo::search::SearchConfig;
        let path = std::env::temp_dir().join(format!(
            "tvm-autotune-static-reject-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);

        let opts = TuneOptions {
            max_evals: 6,
            batch: 1,
            max_process_s: None,
        };
        let tuner = |ev: &MoldEvaluator| {
            YtoptTuner::with_config(
                ev.space().clone(),
                SearchConfig {
                    n_initial: 4,
                    seed: 11,
                    ..Default::default()
                },
            )
        };
        let ev =
            MoldEvaluator::simulated(Box::new(RacyMold::new()), SimDevice::new(GpuSpec::a100()));
        let result = tune_journaled(&mut tuner(&ev), &ev, opts, &path).expect("journaled run");
        let rejected = result
            .trials
            .iter()
            .filter(|t| {
                t.error
                    .as_ref()
                    .is_some_and(|e| e.kind() == "static_reject")
            })
            .count();
        assert!(
            rejected > 0,
            "a 2-point space over 6 evals must hit the racy config"
        );
        assert_eq!(
            result.static_checks.map(|s| s.total()),
            Some(2),
            "both configs analyzed exactly once"
        );

        // Resume replays the journaled rejections instead of re-measuring.
        let fresh =
            MoldEvaluator::simulated(Box::new(RacyMold::new()), SimDevice::new(GpuSpec::a100()));
        let resumed = resume_from_journal(&mut tuner(&fresh), &fresh, opts, &path).expect("resume");
        assert_eq!(resumed.trials.len(), result.trials.len());
        for (a, b) in result.trials.iter().zip(&resumed.trials) {
            assert_eq!(a.error, b.error, "replayed verdicts match");
        }
        let replayed = MoldEvaluator::static_check_stats(&fresh);
        assert_eq!(
            replayed.total(),
            0,
            "resume must not re-analyze journaled trials"
        );
        let _ = std::fs::remove_file(&path);
    }
}
