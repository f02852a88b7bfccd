//! Engine-wide observability: span traces, a metrics registry, and the
//! level knob that turns the per-query span tree on.
//!
//! The environment is offline, so — like the shim crates — this is a
//! homegrown, zero-dependency stand-in for the `tracing`/`metrics`
//! ecosystem, sized to what the engine actually needs:
//!
//! * [`MetricsRegistry`] ([`metrics`]): one atomic slot per [`Metric`]
//!   in the typed catalogue (counters, gauges, one fixed-bucket
//!   histogram), snapshotted by name into a serializable
//!   [`MetricsSnapshot`] (hand-rolled JSON, no serde).
//! * [`TraceCollector`] ([`span`]): a per-query tree of timed regions
//!   (stage 1, optimizer passes, chunk decode/pipeline nodes) rendered
//!   by `EXPLAIN ANALYZE` and exposed as `QueryResult::span_trace`.
//! * [`Obs`]: the cheap cloneable handle threaded through the existing
//!   seams (`TwoStageConfig`, the cellar, the adapter chunk source).
//!   A counter is one relaxed atomic add; [`ObsLevel::Spans`]
//!   additionally records the tree. [`Obs::off`] is the detached
//!   handle (no registry) for code run outside a system.
//!
//! Morsel tasks run by [`crate::exec::run_indexed_policy`] — on a
//! shared-pool worker, or inline as worker 0 — carry a thread-local
//! worker id ([`current_worker`]) so per-chunk spans can say *which*
//! worker ran them.

pub mod metrics;
pub mod span;

pub use metrics::{HistogramSnapshot, Metric, MetricsRegistry, MetricsSnapshot};
pub use span::{Edges, SpanRecord, SpanTrace, StageTimer, TraceCollector};

use std::cell::Cell;
use std::fmt;
use std::sync::Arc;

/// How much the engine records. The default (`Counters`) is the level
/// every `benchmark/` workload runs at; answers never depend on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObsLevel {
    /// Atomic counters/gauges/histogram only.
    #[default]
    Counters,
    /// Counters plus a per-query span tree.
    Spans,
}

impl ObsLevel {
    /// Span trees are recorded.
    pub fn spans(self) -> bool {
        matches!(self, ObsLevel::Spans)
    }
}

/// The observability handle threaded through the engine: the system's
/// registry and, when the query records spans, its trace collector.
/// Cloning is two refcount bumps.
#[derive(Clone, Default)]
pub struct Obs {
    metrics: Option<Arc<MetricsRegistry>>,
    tracer: Option<Arc<TraceCollector>>,
}

impl Obs {
    /// A detached handle (no registry, no tracer): every probe is a
    /// single branch.
    pub fn off() -> Self {
        Obs::default()
    }

    /// A handle over `metrics`, without a trace collector.
    pub fn new(metrics: Arc<MetricsRegistry>) -> Self {
        Obs { metrics: Some(metrics), tracer: None }
    }

    /// The same handle with the query's trace collector, if it records
    /// spans.
    pub fn with_tracer(mut self, tracer: Option<Arc<TraceCollector>>) -> Self {
        self.tracer = tracer;
        self
    }

    /// The registry, unless the handle is detached.
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref()
    }

    /// The per-query trace collector, when spans are on.
    pub fn tracer(&self) -> Option<&Arc<TraceCollector>> {
        self.tracer.as_ref()
    }

    /// Bump counter `metric` by `n` (no-op on a detached handle).
    pub fn count(&self, metric: Metric, n: u64) {
        if let Some(m) = &self.metrics {
            m.add(metric, n);
        }
    }
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs").field("tracer", &self.tracer.is_some()).finish()
    }
}

thread_local! {
    static WORKER_ID: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The pool worker id of the current thread, when it is running a
/// [`crate::exec::run_indexed_policy`] task. Set by the pool worker (or
/// the inline batch), read by span probes.
pub fn current_worker() -> Option<usize> {
    WORKER_ID.with(Cell::get)
}

/// Tag the current thread as pool worker `id` for the duration of the
/// returned guard (restores the previous tag on drop, so nested pools
/// — e.g. the cellar's decode pool under the executor — unwind
/// correctly).
pub fn worker_scope(id: usize) -> WorkerScope {
    let prev = WORKER_ID.with(|w| w.replace(Some(id)));
    WorkerScope { prev }
}

/// RAII guard of [`worker_scope`].
pub struct WorkerScope {
    prev: Option<usize>,
}

impl Drop for WorkerScope {
    fn drop(&mut self) {
        WORKER_ID.with(|w| w.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_level_has_metrics_but_no_tracer() {
        let reg = Arc::new(MetricsRegistry::new());
        let obs = Obs::new(reg.clone());
        assert!(obs.metrics().is_some());
        assert!(obs.tracer().is_none(), "no collector until a query attaches one");
        obs.count(Metric::ZoneProbes, 3);
        assert_eq!(reg.get(Metric::ZoneProbes), 3);
        Obs::off().count(Metric::ZoneProbes, 1); // detached: a no-op
    }

    #[test]
    fn worker_scope_nests_and_restores() {
        assert_eq!(current_worker(), None);
        {
            let _outer = worker_scope(2);
            assert_eq!(current_worker(), Some(2));
            {
                let _inner = worker_scope(7);
                assert_eq!(current_worker(), Some(7));
            }
            assert_eq!(current_worker(), Some(2));
        }
        assert_eq!(current_worker(), None);
    }
}
