//! System configuration.

use crate::fault::{FaultPlan, RetryPolicy};
use sommelier_engine::ObsLevel;

/// The cellar budget when [`SommelierConfig::cellar_bytes`] is `None`:
/// 256 MiB of decoded chunks.
pub const DEFAULT_CELLAR_BYTES: usize = 256 * 1024 * 1024;

/// Configuration of a [`crate::Sommelier`] instance.
///
/// What the loaded system already determines is not configured: lazy
/// chunk loads skip FK checks ("safe by design", §VI-A), a join runs as
/// an index join wherever the loading mode built the join index, and
/// queued morsel batches gain one priority rank per
/// [`sommelier_engine::sched::DEFAULT_AGING`] of queue wait.
#[derive(Debug, Clone)]
pub struct SommelierConfig {
    /// Buffer-pool capacity for persistent base tables (bytes).
    pub buffer_pool_bytes: usize,
    /// Chunk-residency (cellar) budget (bytes): decoded chunks are always
    /// kept resident across queries, so a later query over the same
    /// chunk is a cache hit (the role MonetDB's Recycler plays in the
    /// paper). The paper's workload experiments limit it to main-memory
    /// size. `None` = [`DEFAULT_CELLAR_BYTES`].
    pub cellar_bytes: Option<usize>,
    /// Drop chunks whose registered zone maps contradict the pushed-
    /// down predicate before any decode is scheduled (the optimizer's
    /// `zone_map_pruning` pass). Kept as a knob: turned off, it is the
    /// reference the optimizer equivalence tests compare against.
    pub zone_map_pruning: bool,
    /// Worker threads: the size of the shared morsel pool that runs
    /// every query's decode waves (one task per chunk) and per-chunk
    /// pipelines, hence the cap on workers per wave, and `prepare`'s
    /// header scan and eager decode. `1` runs every batch serially on
    /// the caller's thread. Answers do not depend on it.
    pub max_threads: usize,
    /// Observability level: `Counters` (the metric catalogue's atomic
    /// counters, default — what the benchmark measures) or `Spans`
    /// (counters plus a per-query span trace on every run, what
    /// `EXPLAIN ANALYZE` forces for its one query).
    pub observability: ObsLevel,
    /// Admission control: how many queries may execute concurrently;
    /// the rest queue (priority-ordered, FIFO within a priority).
    pub admission_max_concurrent: usize,
    /// Admission control: queries queued beyond this limit are rejected
    /// with a typed "overloaded" error instead of waiting.
    pub admission_queue_limit: usize,
    /// Deterministic fault injection at the chunk-load seam (default
    /// off — `None`), the one way to slow or fail a chunk load: tests
    /// and benches use it to make transient IO errors, corrupt
    /// payloads, truncated reads and latency spikes reproducible, and
    /// to park loads on a [`crate::FaultInjector::hold`].
    /// `Some(FaultPlan::default())` injects nothing.
    pub fault_plan: Option<FaultPlan>,
    /// Retry budget for transient chunk-IO failures (bounded
    /// exponential backoff; applied by the cellar around every chunk
    /// decode).
    pub io_retry: RetryPolicy,
    /// Async raw-byte prefetch window: while workers decode chunk `k`,
    /// dedicated IO threads read the bytes of chunks `k+1..k+depth`
    /// from the surviving (post-pruning) chunk list. `0` disables
    /// prefetch entirely (each load then fetches on its decode worker,
    /// through the same read seam). Staged bytes count against the
    /// cellar budget, so prefetch degrades to depth 0 under a tiny
    /// budget instead of busting it.
    pub prefetch_depth: usize,
}

impl SommelierConfig {
    /// The effective cellar byte budget.
    pub fn effective_cellar_bytes(&self) -> usize {
        self.cellar_bytes.unwrap_or(DEFAULT_CELLAR_BYTES)
    }

    /// Dedicated prefetch IO threads: enough to keep the window moving,
    /// never more than four (reads are seek-bound, not CPU-bound).
    pub fn prefetch_io_threads(&self) -> usize {
        self.prefetch_depth.clamp(1, 4)
    }
}

impl Default for SommelierConfig {
    fn default() -> Self {
        SommelierConfig {
            buffer_pool_bytes: 256 * 1024 * 1024,
            cellar_bytes: None,
            zone_map_pruning: true,
            max_threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(8),
            observability: ObsLevel::Counters,
            admission_max_concurrent: 32,
            admission_queue_limit: 1024,
            fault_plan: None,
            io_retry: RetryPolicy::default(),
            prefetch_depth: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sensible() {
        let c = SommelierConfig::default();
        assert!(c.buffer_pool_bytes > 0);
        assert_eq!(c.effective_cellar_bytes(), DEFAULT_CELLAR_BYTES);
        let c = SommelierConfig { cellar_bytes: Some(1234), ..c };
        assert_eq!(c.effective_cellar_bytes(), 1234);
        assert!(c.admission_max_concurrent > 0);
        assert!(c.admission_queue_limit > 0);
        assert!(c.fault_plan.is_none(), "fault injection is off by default");
        assert!(c.io_retry.max_attempts > 1, "transient failures retry by default");
        assert!(c.prefetch_depth > 0, "prefetch is on by default");
        assert!(c.prefetch_depth <= 4, "...with a conservative window");
        assert!(c.prefetch_io_threads() >= 1 && c.prefetch_io_threads() <= 4);
        let off = SommelierConfig { prefetch_depth: 0, ..c };
        assert_eq!(off.prefetch_io_threads(), 1, "clamped even when disabled");
    }
}
