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
use tvm_runtime::stats::count_reason;
use tvm_runtime::{CompiledFunc, Device, NDArray};
use tvm_tir::analyze::{deny_codes, AnalysisReport};
use tvm_tir::PrimFunc;
use ytopt_bo::problem::{CacheStats, JitStats, ParStats, PruneStats, SimdStats, StaticCheckStats};

/// Modeled host↔device transfer bandwidth (PCIe 4.0 ×16), bytes/s.
const TRANSFER_BW: f64 = 16e9;

/// How argument data is handled per evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvalMode {
    /// Analytical device: runtime is modeled from the lowered function;
    /// no data is allocated (the paper-scale experiments).
    Simulated,
    /// Real execution: arrays are initialized and the kernel actually
    /// runs on the device (correctness runs, CPU examples).
    Real,
}

/// One memoized configuration: what the static gate decided about it.
enum CacheEntry {
    /// Denied: the `statically rejected: …` message the gate rendered,
    /// the one every later proposal gets, from the batch mask and from
    /// `evaluate` alike, without re-analysis.
    Rejected(String),
    /// Admitted: the lowered function, its (modeled or real) build cost,
    /// and the device's compiled artifact when it has one.
    Admitted {
        func: PrimFunc,
        build_s: f64,
        prepared: Option<Arc<CompiledFunc>>,
    },
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
        let found = self.peek(key);
        if found.is_some() {
            self.count_hit();
        }
        found
    }

    /// Lookup without counting: the batch gate's, which counts a hit
    /// itself only where no evaluation follows.
    fn peek(&self, key: u64) -> Option<Arc<CacheEntry>> {
        self.entries.lock().expect("cache lock").get(&key).cloned()
    }

    fn count_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
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
    /// Timed runs per evaluation, at least one (AutoTVM measures multiple
    /// times; ytopt evaluates once). Set by [`MoldEvaluator::with_repeats`].
    repeats: usize,
    cache: Arc<MemoCache>,
    /// Lifetime pruning counters, one count per analyzed configuration
    /// (per memo miss); [`MoldEvaluator::static_check_stats`] reads them
    /// too.
    prune: Mutex<PruneStats>,
    /// Lowered-but-unbuilt functions by memo key: what the latest
    /// [`Evaluator::prune_batch`] admitted and no evaluation has taken yet.
    /// The evaluation that follows builds from here instead of lowering
    /// (and charging the lowering) a second time.
    lowered: Mutex<HashMap<u64, PrimFunc>>,
}

impl MoldEvaluator {
    /// Evaluator over the analytical device (no data allocation).
    pub fn simulated(mold: Box<dyn CodeMold>, device: impl Device + 'static) -> MoldEvaluator {
        MoldEvaluator::new(mold, Box::new(device), EvalMode::Simulated)
    }

    /// Evaluator that really executes kernels (compiled VM on the CPU
    /// device, interpreter fallback).
    pub fn real(mold: Box<dyn CodeMold>, device: impl Device + 'static) -> MoldEvaluator {
        MoldEvaluator::new(mold, Box::new(device), EvalMode::Real)
    }

    fn new(mold: Box<dyn CodeMold>, device: Box<dyn Device>, mode: EvalMode) -> MoldEvaluator {
        MoldEvaluator {
            mold,
            device,
            mode,
            repeats: 1,
            cache: Arc::new(MemoCache::new()),
            prune: Mutex::new(PruneStats::default()),
            lowered: Mutex::new(HashMap::new()),
        }
    }

    fn prune_counters(&self) -> std::sync::MutexGuard<'_, PruneStats> {
        self.prune.lock().expect("prune counters lock")
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
    /// count per analyzed config, i.e. per cache miss): the pruning
    /// counters' admissions, and their denials at either stage.
    pub fn static_check_stats(&self) -> StaticCheckStats {
        let prune = self.prune_counters();
        StaticCheckStats {
            accepted: prune.admitted,
            rejected: prune.prelint_denied + prune.analyzer_denied,
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

    /// Run the static gate on an uncached config: the cheap pre-lowering
    /// legality prelint first (denied configs are never instantiated),
    /// then the full analyzer over the lowered function. A denial is
    /// counted here, once per memo miss, and rendered into the message
    /// every replay returns; an admission hands back the function.
    fn static_gate(&self, config: &Configuration) -> Result<PrimFunc, String> {
        let lint = AnalysisReport {
            diagnostics: self.mold.prelint(config),
        };
        let prelint = lint.is_rejected();
        let report = if prelint {
            lint
        } else {
            let func = self.mold.instantiate(config);
            let report = tvm_tir::analyze::check(&func);
            if !report.is_rejected() {
                return Ok(func);
            }
            report
        };
        let mut prune = self.prune_counters();
        if prelint {
            prune.prelint_denied += 1;
        } else {
            prune.analyzer_denied += 1;
        }
        for code in deny_codes(&report.diagnostics) {
            count_reason(&mut prune.denied_by_code, code, 1);
        }
        Err(format!("statically rejected: {}", report.reject_summary()))
    }

    /// Cached lowering for `config`: prelint + instantiate + analyze +
    /// build-cost + compile on the first request, a map lookup afterwards.
    /// A function the preceding `prune_batch` already lowered and admitted
    /// is taken over as is; building and counting the admission still
    /// happen here.
    fn lower_cached(&self, config: &Configuration) -> (Arc<CacheEntry>, bool) {
        let key = self.cache_key(config);
        if let Some(entry) = self.cache.get(key) {
            return (entry, true);
        }
        let handed = self.lowered.lock().expect("lowered lock").remove(&key);
        let entry = Arc::new(match handed.map_or_else(|| self.static_gate(config), Ok) {
            Err(message) => CacheEntry::Rejected(message),
            Ok(func) => {
                self.prune_counters().admitted += 1;
                let build_s = self.device.build_cost(&func);
                let prepared = self.device.prepare(&func);
                CacheEntry::Admitted {
                    func,
                    build_s,
                    prepared,
                }
            }
        });
        self.cache.insert(key, Arc::clone(&entry));
        (entry, false)
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
        let (func, build_s, prepared) = match &*entry {
            // Rejected before compilation: only analysis time is charged.
            CacheEntry::Rejected(message) => {
                let error = MeasureError::StaticReject(message.clone());
                return MeasureResult::fail(error, instantiate_s);
            }
            CacheEntry::Admitted {
                func,
                build_s,
                prepared,
            } => (func, *build_s, prepared),
        };
        // The build cost is paid once; cache hits reuse the artifact.
        let build_s = if cache_hit { 0.0 } else { build_s };
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
                    match prepared.as_deref() {
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
                    // taxonomy (e.g. a simulated "kernel rejected" becomes
                    // an invalid schedule, an out-of-bounds access a
                    // runtime crash).
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

    // Each is `None` on an engine without that rung.

    fn jit_stats(&self) -> Option<JitStats> {
        self.device.jit_stats()
    }

    fn par_stats(&self) -> Option<ParStats> {
        self.device.par_stats()
    }

    fn simd_stats(&self) -> Option<SimdStats> {
        self.device.simd_stats()
    }

    /// The one batch gate, before any compilation or measurement: per
    /// config, the memo entry's verdict, else the static gate. A denial is
    /// cached here, and its entry in the mask is the message `evaluate`
    /// returns for it. An admitted function is *not* cached: it waits for
    /// this batch's evaluations, whose cache miss still pays (and
    /// accounts) the build, so lowering is done, and charged to process
    /// time by the driver, once: here. A configuration outside the space
    /// is admitted unjudged, for `evaluate` to fail as it would unpruned.
    fn prune_batch(&self, batch: &[Configuration]) -> Option<Vec<Option<String>>> {
        let mut lowered = HashMap::new();
        let verdict = |config: &Configuration| {
            if !self.mold.space().validate(config) {
                return None;
            }
            let key = self.cache_key(config);
            // A cached rejection is the trial's one hit; an admitted entry
            // is counted by the evaluation that follows.
            if let Some(entry) = self.cache.peek(key) {
                return match &*entry {
                    CacheEntry::Rejected(message) => {
                        self.cache.count_hit();
                        Some(message.clone())
                    }
                    CacheEntry::Admitted { .. } => None,
                };
            }
            if lowered.contains_key(&key) {
                return None;
            }
            match self.static_gate(config) {
                Err(message) => {
                    let entry = CacheEntry::Rejected(message.clone());
                    self.cache.insert(key, Arc::new(entry));
                    Some(message)
                }
                Ok(func) => {
                    lowered.insert(key, func);
                    None
                }
            }
        };
        let mask = batch.iter().map(verdict).collect();
        // Replacing drops what an earlier batch left unevaluated, so at
        // most one batch of lowered functions is ever held.
        *self.lowered.lock().expect("lowered lock") = lowered;
        Some(mask)
    }

    /// Lifetime pruning counters: admitted = configs that passed the
    /// full gate at evaluation time, denials split by pipeline stage
    /// with per-code counts.
    fn prune_stats(&self) -> Option<PruneStats> {
        Some(self.prune_counters().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{GpuSpec, SimDevice};
    use polybench::molds::mold_for;
    use polybench::{KernelName, ProblemSize};
    use tvm_runtime::CpuDevice;
    use tvm_tir::analyze::Severity;

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

    #[test]
    fn zero_repeats_still_measure_once() {
        let ev = |repeats| {
            let mold = mold_for(KernelName::Cholesky, ProblemSize::Large);
            MoldEvaluator::simulated(mold, SimDevice::new(GpuSpec::a100())).with_repeats(repeats)
        };
        let (none, once) = (ev(0), ev(1));
        let cfg = Evaluator::space(&once).default_configuration();
        let r0 = Evaluator::evaluate(&none, &cfg);
        let r1 = Evaluator::evaluate(&once, &cfg);
        assert!(r0.runtime_s.is_some_and(f64::is_finite), "{r0:?}");
        assert_eq!(r0.runtime_s, r1.runtime_s);
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
        let mut rng = rand::rngs::SmallRng::seed_from_u64(22);
        let (mut runs, mut restored, mut params) = (0, 0, 0);
        for kernel in KernelName::all() {
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
        assert_eq!(Evaluator::cache_stats(&ev), Some(stats));
    }

    #[test]
    fn a_reproposed_admitted_configuration_counts_one_hit() {
        // The batch gate looks an admitted entry up without counting it:
        // the evaluation that follows is the one hit of the trial.
        use autotvm::{tune, GridSearchTuner, TuneOptions};
        let mold = mold_for(KernelName::Mm3, ProblemSize::Mini);
        let ev = MoldEvaluator::simulated(mold, SimDevice::new(GpuSpec::a100()));
        let opts = TuneOptions {
            max_evals: 4,
            batch: 4,
            max_process_s: None,
        };
        for _ in 0..2 {
            let result = tune(
                &mut GridSearchTuner::new(Evaluator::space(&ev).clone()),
                &ev,
                opts,
            );
            assert_eq!(result.trials.len(), 4);
        }
        assert_eq!(ev.cache_stats(), CacheStats { hits: 4, misses: 4 });
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
    fn evaluators_sharing_a_cache_count_their_own_dispatches() {
        // A cached artifact carries no device state: a hit runs on the
        // evaluator's own device and counts there, not on the device that
        // prepared it. Two threads, so the proven row-tile loop dispatches.
        let budget = tvm_runtime::pool::num_threads();
        tvm_runtime::pool::set_num_threads(2);
        let shared = Arc::new(MemoCache::new());
        let on_cpu = || {
            let mold = mold_for(KernelName::Gemm, ProblemSize::Mini);
            MoldEvaluator::real(mold, CpuDevice::new()).with_cache(Arc::clone(&shared))
        };
        fn dispatches(ev: &impl Evaluator) -> u64 {
            ev.par_stats().expect("the CPU device counts").dispatches
        }
        let (a, b) = (on_cpu(), on_cpu());
        let cfg = Evaluator::space(&a).default_configuration();
        assert!(Evaluator::evaluate(&a, &cfg).is_ok());
        let own = dispatches(&a);
        assert!(own > 0, "{cfg} must dispatch its row-tile loop");
        assert!(Evaluator::evaluate(&b, &cfg).is_ok());
        assert_eq!((shared.stats().hits, shared.stats().misses), (1, 1));
        assert_eq!((dispatches(&a), dispatches(&b)), (own, own));
        tvm_runtime::pool::set_num_threads(budget);
    }

    #[test]
    fn prune_hands_its_lowering_to_the_evaluation() {
        let ev =
            MoldEvaluator::simulated(Box::new(RacyMold::new()), SimDevice::new(GpuSpec::a100()));
        let safe = Evaluator::space(&ev).at(0);
        let racy = Evaluator::space(&ev).at(1);
        let batch = [safe.clone(), racy.clone(), safe.clone()];
        let mask = Evaluator::prune_batch(&ev, &batch).expect("the mold evaluator gates");
        assert!(mask[0].is_none() && mask[2].is_none(), "{mask:?}");
        assert!(mask[1].as_deref().is_some_and(|m| m.contains("TIR-RACE")));
        let prune = ev.prune_counters().clone();
        assert_eq!((prune.admitted, prune.analyzer_denied), (0, 1));
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
        Evaluator::prune_batch(&other, &[space.at(0), space.at(1)]);
        Evaluator::prune_batch(&other, &[space.at(2)]);
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

    #[test]
    fn a_grid_wider_than_the_space_tunes_as_it_would_unpruned() {
        // Tiles 1..=10 against lu-mini, whose space holds only the
        // divisors of 40: the batch gate admits the 64 foreign
        // configurations unjudged, and `evaluate` fails each as an invalid
        // schedule, so the run records what a run without the gate does.
        use autotvm::{tune, GridSearchTuner, TuneOptions};
        struct Unpruned(MoldEvaluator);
        impl Evaluator for Unpruned {
            fn space(&self) -> &ConfigSpace {
                self.0.space()
            }
            fn evaluate(&self, config: &Configuration) -> MeasureResult {
                Evaluator::evaluate(&self.0, config)
            }
        }
        let mut wide = ConfigSpace::new();
        let tiles: Vec<i64> = (1..=10).collect();
        wide.add(configspace::Hyperparameter::ordinal_ints("P0", &tiles));
        wide.add(configspace::Hyperparameter::ordinal_ints("P1", &tiles));
        let opts = TuneOptions {
            max_evals: 100,
            batch: 8,
            max_process_s: None,
        };
        let lu = || {
            let mold = mold_for(KernelName::Lu, ProblemSize::Mini);
            MoldEvaluator::simulated(mold, SimDevice::new(GpuSpec::a100()))
        };
        let run = |ev: &dyn Evaluator| {
            let result = tune(&mut GridSearchTuner::new(wide.clone()), ev, opts);
            let trial = |t: &autotvm::Trial| {
                let error = t.error.as_ref();
                (
                    t.config.key(),
                    error.map(|e| (e.kind(), e.message().to_string())),
                )
            };
            result.trials.iter().map(trial).collect::<Vec<_>>()
        };
        let gated = run(&lu());
        assert_eq!(gated, run(&Unpruned(lu())));
        assert_eq!(gated.len(), 100);
        let foreign = (gated.iter())
            .filter(|(_, e)| e.as_ref().is_some_and(|(_, m)| m.ends_with("not in space")))
            .count();
        assert_eq!(foreign, 64);
    }

    /// Test mold that lowers to a safe elementwise kernel for `P0 = 0`
    /// and to a parallel reduction race for `P0 = 1`. `P0 = 2`, in the
    /// space of [`RacyMold::linted`] only, is a zero tile the prelint
    /// denies.
    struct RacyMold {
        space: configspace::ConfigSpace,
    }

    impl RacyMold {
        fn new() -> RacyMold {
            RacyMold::over(&[0, 1])
        }

        fn linted() -> RacyMold {
            RacyMold::over(&[0, 1, 2])
        }

        fn over(values: &[i64]) -> RacyMold {
            let mut space = configspace::ConfigSpace::new();
            space.add(configspace::Hyperparameter::ordinal_ints("P0", values));
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

        fn prelint(&self, config: &Configuration) -> Vec<tvm_tir::analyze::Diagnostic> {
            use tvm_tir::analyze::{codes, Diagnostic};
            match config.int("P0") {
                2 => vec![Diagnostic::deny(
                    codes::TRIP_ZERO,
                    "split of `i` by factor 0 yields an empty trip count",
                )],
                _ => Vec::new(),
            }
        }

        fn instantiate(&self, config: &Configuration) -> tvm_tir::PrimFunc {
            use tvm_te::{ops, DType, Var};
            use tvm_tir::{Buffer, ForKind, PrimFunc, Stmt};
            let i = Var::index("i");
            let c = Buffer::new("C", [8usize], DType::F64);
            let c_read = tvm_te::placeholder([8], DType::F64, "C");
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
            vec![tvm_runtime::NDArray::zeros(&[8], tvm_te::DType::F64)]
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
    fn batch_mask_and_evaluation_give_one_message_per_configuration() {
        // A prelint denial, an analyzer denial and an admission on 3mm-mini's
        // aggressive space and on the racy mold, each on a fresh evaluator
        // reached first by the batch gate or first by an evaluation, then
        // both again from the cache: the mask entry is the `StaticReject`
        // message `evaluate` returns (or `None`), it names the first
        // `Deny` code of the stage that denied, and the configuration is
        // counted once.
        use polybench::molds::mold_for_mode;
        use polybench::SpaceMode;
        use rand::SeedableRng;
        use tvm_tir::analyze::{check, Diagnostic, Severity};
        let mm3 = || mold_for_mode(KernelName::Mm3, ProblemSize::Mini, SpaceMode::Aggressive);
        let first_deny = |ds: Vec<Diagnostic>| {
            let mut denials = ds.into_iter().filter(|d| d.severity == Severity::Deny);
            denials.next().map(|d| d.code)
        };
        // (mold, configuration, the code expected to lead the message,
        // and the (admitted, prelint, analyzer) counts afterwards).
        let mut cases = Vec::new();
        let lint = mm3();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(50);
        let (mut prelint, mut analyzer, mut admitted) = (None, None, None);
        while prelint.is_none() || analyzer.is_none() || admitted.is_none() {
            let c = lint.space().sample(&mut rng);
            if let Some(code) = first_deny(lint.prelint(&c)) {
                prelint.get_or_insert((c, code));
            } else if let Some(code) = first_deny(check(&lint.instantiate(&c)).diagnostics) {
                analyzer.get_or_insert((c, code));
            } else {
                admitted.get_or_insert(c);
            }
        }
        let (c, code) = prelint.expect("a prelint-denied draw");
        cases.push(("3mm", c, Some(code), (0, 1, 0)));
        let (c, code) = analyzer.expect("an analyzer-denied draw");
        cases.push(("3mm", c, Some(code), (0, 0, 1)));
        cases.push(("3mm", admitted.expect("an admitted draw"), None, (1, 0, 0)));
        let racy = RacyMold::linted();
        cases.push(("racy", racy.space.at(2), Some("TIR-TRIP-ZERO"), (0, 1, 0)));
        cases.push(("racy", racy.space.at(1), Some("TIR-RACE-WW"), (0, 0, 1)));
        cases.push(("racy", racy.space.at(0), None, (1, 0, 0)));

        for (kernel, cfg, code, counts) in &cases {
            for batch_first in [true, false] {
                let label = format!("{kernel} {cfg} batch_first={batch_first}");
                let ev = match *kernel {
                    "3mm" => MoldEvaluator::simulated(mm3(), SimDevice::new(GpuSpec::a100())),
                    _ => MoldEvaluator::simulated(
                        Box::new(RacyMold::linted()),
                        SimDevice::new(GpuSpec::a100()),
                    ),
                };
                let gate = || {
                    let mask = Evaluator::prune_batch(&ev, std::slice::from_ref(cfg));
                    let mut mask = mask.expect("the mold evaluator gates batches");
                    assert_eq!(mask.len(), 1, "{label}");
                    mask.remove(0)
                };
                let judge = || match Evaluator::evaluate(&ev, cfg).error {
                    Some(MeasureError::StaticReject(message)) => Some(message),
                    _ => None,
                };
                let (mask, message) = if batch_first {
                    let mask = gate();
                    (mask, judge())
                } else {
                    let message = judge();
                    (gate(), message)
                };
                assert_eq!(mask, message, "{label}");
                match code {
                    Some(code) => {
                        let lead = format!("statically rejected: {code}: ");
                        let message = message.as_deref().unwrap_or("");
                        assert!(message.starts_with(&lead), "{label}: {message}");
                    }
                    None => assert_eq!(message, None, "{label}"),
                }
                assert_eq!(gate(), mask, "{label}: the cached mask entry");
                assert_eq!(judge(), message, "{label}: the cached message");
                let stats = Evaluator::prune_stats(&ev).expect("prune stats");
                let got = (stats.admitted, stats.prelint_denied, stats.analyzer_denied);
                assert_eq!(got, *counts, "{label}");
                let led = (stats.denied_by_code.iter()).find(|(c, _)| Some(c.as_str()) == *code);
                assert_eq!(led.map(|(_, n)| *n), code.map(|_| 1), "{label}");
                assert_eq!(stats.denied_by_code.is_empty(), code.is_none(), "{label}");
            }
        }
    }

    #[test]
    fn prune_snapshots_taken_mid_run_never_go_back() {
        // Two threads count prelint denials on one evaluator while a
        // third snapshots: every snapshot is a state the counters passed
        // through, so its total only grows and stays within what was
        // submitted. Twenty rounds, a fresh evaluator each.
        use polybench::molds::mold_for_mode;
        use polybench::SpaceMode;
        use rand::SeedableRng;
        let mold = || mold_for_mode(KernelName::Mm3, ProblemSize::Mini, SpaceMode::Aggressive);
        let (space, lint) = (mold().space().clone(), mold());
        let mut rng = rand::rngs::SmallRng::seed_from_u64(49);
        let mut keys = std::collections::HashSet::new();
        let denied: Vec<Configuration> = (0..600)
            .map(|_| space.sample(&mut rng))
            .filter(|c| lint.prelint(c).iter().any(|d| d.severity == Severity::Deny))
            .filter(|c| keys.insert(c.key()))
            .collect();
        assert!(denied.len() >= 100, "only {} denied draws", denied.len());
        let submitted = denied.len() as u64;
        for _ in 0..20 {
            let ev = MoldEvaluator::simulated(mold(), SimDevice::new(GpuSpec::a100()));
            let running = std::sync::atomic::AtomicUsize::new(2);
            std::thread::scope(|s| {
                for half in denied.chunks(denied.len().div_ceil(2)) {
                    let (ev, running) = (&ev, &running);
                    s.spawn(move || {
                        for cfg in half {
                            assert!(!Evaluator::evaluate(ev, cfg).is_ok());
                        }
                        running.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                let mut last = 0;
                while running.load(Ordering::SeqCst) > 0 {
                    let total = Evaluator::prune_stats(&ev).expect("prune stats").total();
                    assert!(last <= total && total <= submitted, "{last} → {total}");
                    last = total;
                }
            });
            let end = Evaluator::prune_stats(&ev).expect("prune stats");
            assert_eq!((end.prelint_denied, end.total()), (submitted, submitted));
        }
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
