//! In-memory span recorder and the decorators that feed it.
//!
//! Spans are recorded from the benchmark's side of the library's public
//! traits: [`TracedTuner`], [`TracedEvaluator`], [`TracedDevice`] and
//! [`TracedMold`] wrap the real objects and time each call. A span carries a
//! name (`crate.module.function`), start, end, the span that was open on the
//! same thread when it started (its parent) and the session it belongs to.
//! Nothing is written until the run ends.

use serde::Serialize;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tvm_autotune::autotvm::{Evaluator, MeasureResult, Tuner};
use tvm_autotune::bo::problem::{
    CacheStats, JitStats, ParStats, PruneStats, SimdStats, StaticCheckStats,
};
use tvm_autotune::configspace::{ConfigSpace, Configuration};
use tvm_autotune::polybench::{CodeMold, ProblemSize, SpaceMode};
use tvm_autotune::runtime::{CompiledFunc, Device, DeviceError, NDArray};
use tvm_autotune::tir::analyze::Diagnostic;
use tvm_autotune::tir::PrimFunc;

#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub id: u64,
    /// Span open on the same thread when this one started.
    pub parent: Option<u64>,
    /// Tuning session the span belongs to (0 outside any session).
    pub session: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Open spans of this thread, innermost last, and the current session.
    static OPEN: RefCell<(Vec<u64>, u64)> = const { RefCell::new((Vec::new(), 0)) };
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Finished spans, in the order they closed.
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    session: u64,
    name: &'a str,
    start_ns: u64,
    /// For a span that opened a session: the session to return to.
    outer_session: Option<u64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under whatever span this thread has open.
    pub fn span<'a>(&'a self, name: &'a str) -> SpanGuard<'a> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, session) = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.0.last().copied();
            open.0.push(id);
            (parent, open.1)
        });
        SpanGuard {
            tracer: self,
            id,
            parent,
            session,
            name,
            start_ns: self.now_ns(),
            outer_session: None,
        }
    }

    /// Open a span that starts a new session on this thread; the session
    /// ends with the span.
    pub fn session_span<'a>(&'a self, name: &'a str, session: u64) -> SpanGuard<'a> {
        let outer = OPEN.with(|open| std::mem::replace(&mut open.borrow_mut().1, session));
        let mut guard = self.span(name);
        guard.outer_session = Some(outer);
        guard
    }

    /// Every finished span, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span store lock").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let top = open.0.pop();
            debug_assert_eq!(top, Some(self.id), "spans close innermost first");
            if let Some(outer) = self.outer_session {
                open.1 = outer;
            }
        });
        let mut spans = self.tracer.spans.lock().expect("span store lock");
        spans.push(Span {
            id: self.id,
            parent: self.parent,
            session: self.session,
            name: self.name.to_string(),
            start_ns: self.start_ns,
            end_ns,
        });
    }
}

/// Per-name totals: how often the span ran, its summed duration, and its
/// summed self time (duration minus the part its direct children cover).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self-time table of a set of spans, keyed by span name.
///
/// Children of one parent on one thread never overlap (they are opened and
/// closed in stack order), so the covered part of a parent is the sum of its
/// children's durations.
pub fn self_time_table(spans: &[Span]) -> BTreeMap<String, NameTotals> {
    let mut children_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *children_ns.entry(p).or_insert(0) += s.duration_ns();
        }
    }
    let mut table: BTreeMap<String, NameTotals> = BTreeMap::new();
    for s in spans {
        let covered = children_ns.get(&s.id).copied().unwrap_or(0);
        let row = table.entry(s.name.clone()).or_default();
        row.count += 1;
        row.total_ns += s.duration_ns();
        row.self_ns += s.duration_ns().saturating_sub(covered);
    }
    table
}

/// The layer of a span name: `crate.module` of `crate.module.function[.x]`.
pub fn layer_of(name: &str) -> &str {
    match name.match_indices('.').nth(1) {
        Some((at, _)) => &name[..at],
        None => name,
    }
}

// ------------------------------------------------------------- decorators

/// Times `next_batch` and `update` of any tuner.
pub struct TracedTuner {
    inner: Box<dyn Tuner>,
    tracer: Arc<Tracer>,
    next_batch: String,
    update: String,
}

impl TracedTuner {
    /// `kind` is the short tuner name used in metric names (`ga`, `xgb`, ...).
    pub fn new(inner: Box<dyn Tuner>, kind: &str, tracer: Arc<Tracer>) -> TracedTuner {
        TracedTuner {
            inner,
            tracer,
            next_batch: format!("autotvm.tuner.next_batch.{kind}"),
            update: format!("autotvm.tuner.update.{kind}"),
        }
    }
}

impl Tuner for TracedTuner {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_batch(&mut self, n: usize) -> Vec<Configuration> {
        let _s = self.tracer.span(&self.next_batch);
        self.inner.next_batch(n)
    }

    fn update(&mut self, results: &[(Configuration, MeasureResult)]) {
        let _s = self.tracer.span(&self.update);
        self.inner.update(results)
    }

    fn has_next(&self) -> bool {
        self.inner.has_next()
    }
}

/// Times `evaluate` (split into memo hits and misses by watching the
/// evaluator's own cache counters) and `prune_batch`.
pub struct TracedEvaluator<E> {
    inner: E,
    tracer: Arc<Tracer>,
    /// `<prefix>.evaluate_hit`, `.evaluate_miss`, `.evaluate`, `.prune_batch`.
    names: [String; 4],
}

impl<E: Evaluator> TracedEvaluator<E> {
    /// `prefix` is the layer, e.g. `tvm-autotune.evaluator` or `autotvm.harness`.
    pub fn new(inner: E, prefix: &str, tracer: Arc<Tracer>) -> TracedEvaluator<E> {
        TracedEvaluator {
            inner,
            tracer,
            names: [
                format!("{prefix}.evaluate_hit"),
                format!("{prefix}.evaluate_miss"),
                format!("{prefix}.evaluate"),
                format!("{prefix}.prune_batch"),
            ],
        }
    }
}

impl<E: Evaluator> Evaluator for TracedEvaluator<E> {
    fn space(&self) -> &ConfigSpace {
        self.inner.space()
    }

    fn evaluate(&self, config: &Configuration) -> MeasureResult {
        // Whether this call hits is only known afterwards, so the span is
        // opened under a provisional name and renamed on close.
        let hits_before = self.inner.cache_stats().map(|c| c.hits);
        let mut span = self.tracer.span(&self.names[2]);
        let result = self.inner.evaluate(config);
        if let (Some(before), Some(after)) = (hits_before, self.inner.cache_stats().map(|c| c.hits))
        {
            span.name = if after > before {
                &self.names[0]
            } else {
                &self.names[1]
            };
        }
        drop(span);
        result
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache_stats()
    }

    fn static_check_stats(&self) -> Option<StaticCheckStats> {
        self.inner.static_check_stats()
    }

    fn pipeline_fingerprint(&self) -> Option<String> {
        self.inner.pipeline_fingerprint()
    }

    fn jit_stats(&self) -> Option<JitStats> {
        self.inner.jit_stats()
    }

    fn par_stats(&self) -> Option<ParStats> {
        self.inner.par_stats()
    }

    fn simd_stats(&self) -> Option<SimdStats> {
        self.inner.simd_stats()
    }

    fn prune_batch(&self, batch: &[Configuration]) -> Option<Vec<Option<String>>> {
        let _s = self.tracer.span(&self.names[3]);
        self.inner.prune_batch(batch)
    }

    fn prune_stats(&self) -> Option<PruneStats> {
        self.inner.prune_stats()
    }
}

/// Times the four device entry points under `<layer>.device.*`.
pub struct TracedDevice<D> {
    inner: D,
    tracer: Arc<Tracer>,
    names: [String; 4],
}

impl<D: Device> TracedDevice<D> {
    /// `layer` is `runtime` for the CPU device and `gpu-sim` for the model.
    pub fn new(inner: D, layer: &str, tracer: Arc<Tracer>) -> TracedDevice<D> {
        TracedDevice {
            inner,
            tracer,
            names: [
                format!("{layer}.device.run"),
                format!("{layer}.device.build_cost"),
                format!("{layer}.device.prepare"),
                format!("{layer}.device.run_prepared"),
            ],
        }
    }
}

impl<D: Device> Device for TracedDevice<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn run(&self, func: &PrimFunc, args: &mut [NDArray]) -> Result<f64, DeviceError> {
        let _s = self.tracer.span(&self.names[0]);
        self.inner.run(func, args)
    }

    fn build_cost(&self, func: &PrimFunc) -> f64 {
        let _s = self.tracer.span(&self.names[1]);
        self.inner.build_cost(func)
    }

    fn prepare(&self, func: &PrimFunc) -> Option<Arc<CompiledFunc>> {
        let _s = self.tracer.span(&self.names[2]);
        self.inner.prepare(func)
    }

    fn run_prepared(
        &self,
        prepared: &CompiledFunc,
        args: &mut [NDArray],
    ) -> Result<f64, DeviceError> {
        let _s = self.tracer.span(&self.names[3]);
        self.inner.run_prepared(prepared, args)
    }

    fn fingerprint(&self) -> Option<String> {
        self.inner.fingerprint()
    }

    fn jit_stats(&self) -> Option<tvm_autotune::runtime::JitStats> {
        self.inner.jit_stats()
    }

    fn par_stats(&self) -> Option<tvm_autotune::runtime::ParStats> {
        self.inner.par_stats()
    }

    fn simd_stats(&self) -> Option<tvm_autotune::runtime::SimdStats> {
        self.inner.simd_stats()
    }
}

/// Times the mold's three per-trial entry points.
pub struct TracedMold {
    inner: Box<dyn CodeMold>,
    tracer: Arc<Tracer>,
}

impl TracedMold {
    pub fn new(inner: Box<dyn CodeMold>, tracer: Arc<Tracer>) -> TracedMold {
        TracedMold { inner, tracer }
    }
}

impl CodeMold for TracedMold {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn size(&self) -> ProblemSize {
        self.inner.size()
    }

    fn mode(&self) -> SpaceMode {
        self.inner.mode()
    }

    fn space(&self) -> &ConfigSpace {
        self.inner.space()
    }

    fn prelint(&self, config: &Configuration) -> Vec<Diagnostic> {
        let _s = self.tracer.span("polybench.molds.prelint");
        self.inner.prelint(config)
    }

    fn instantiate(&self, config: &Configuration) -> PrimFunc {
        let _s = self.tracer.span("polybench.molds.instantiate");
        self.inner.instantiate(config)
    }

    fn init_args(&self) -> Vec<NDArray> {
        let _s = self.tracer.span("polybench.molds.init_args");
        self.inner.init_args()
    }

    fn reference_args(&self) -> Vec<Option<NDArray>> {
        self.inner.reference_args()
    }

    fn baseline_configuration(&self) -> Configuration {
        self.inner.baseline_configuration()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            session: 1,
            name: name.into(),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span(1, None, "a.driver.tune", 0, 100),
            span(2, Some(1), "a.tuner.next_batch", 10, 30),
            span(3, Some(1), "b.evaluator.evaluate", 30, 90),
            span(4, Some(3), "c.device.run", 40, 80),
            span(5, Some(1), "a.tuner.next_batch", 90, 95),
        ];
        let t = self_time_table(&spans);
        assert_eq!(
            t["a.driver.tune"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 100 - 20 - 60 - 5
            }
        );
        assert_eq!(
            t["a.tuner.next_batch"],
            NameTotals {
                count: 2,
                total_ns: 25,
                self_ns: 25
            }
        );
        // The grandchild is charged to its parent only.
        assert_eq!(t["b.evaluator.evaluate"].self_ns, 20);
        assert_eq!(t["c.device.run"].self_ns, 40);
        let total_self: u64 = t.values().map(|r| r.self_ns).sum();
        assert_eq!(total_self, 100, "self times partition the root");
    }

    #[test]
    fn layer_is_the_first_two_name_components() {
        assert_eq!(layer_of("autotvm.tuner.next_batch.ga"), "autotvm.tuner");
        assert_eq!(layer_of("runtime.device.run"), "runtime.device");
        assert_eq!(layer_of("bench.round"), "bench.round");
    }

    #[test]
    fn guards_record_parents_and_sessions_per_thread() {
        let tracer = Tracer::new();
        {
            let _root = tracer.session_span("x.y.session", 7);
            {
                let _child = tracer.span("x.y.child");
            }
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _other = tracer.span("x.y.other_thread");
                });
            });
        }
        {
            let _after = tracer.span("x.y.after");
        }
        let spans = tracer.spans();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect("span recorded");
        let root = by_name("x.y.session");
        assert_eq!((root.parent, root.session), (None, 7));
        assert_eq!(
            by_name("x.y.after").session,
            0,
            "the session ended with its span"
        );
        let child = by_name("x.y.child");
        assert_eq!((child.parent, child.session), (Some(root.id), 7));
        let other = by_name("x.y.other_thread");
        assert_eq!((other.parent, other.session), (None, 0));
        assert!(child.start_ns >= root.start_ns && child.end_ns <= root.end_ns);
    }
}
