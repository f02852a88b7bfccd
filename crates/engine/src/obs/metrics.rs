//! The metric catalogue, the registry it indexes, and the serializable
//! snapshot.
//!
//! Every counter, gauge and histogram is declared once, in the
//! `catalogue!` table below, as a [`Metric`] variant with its
//! dotted name and [`Kind`]. [`MetricsRegistry`] holds one relaxed
//! atomic per entry, so recording is one add on a fixed slot and an
//! undeclared metric does not compile. Names are stable: they are the
//! scrape contract documented in the README's metric table, and
//! snapshots are read back by name.
//!
//! The registry is the only store of a counter: each subsystem counts
//! into it where the event happens and sets each gauge under the lock
//! that guards the state it reports, so taking a snapshot writes
//! nothing.

use std::sync::atomic::{AtomicU64, Ordering};

/// What a catalogue entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Counter,
    Gauge,
    /// Fixed buckets over [`COUNT_BUCKETS`].
    Histogram,
}

macro_rules! catalogue {
    ($($metric:ident = $name:literal, $kind:ident;)*) => {
        /// Every metric the system records.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Metric {
            $($metric),*
        }

        impl Metric {
            /// The catalogue in declaration (= name) order.
            pub const ALL: &'static [Metric] = &[$(Metric::$metric),*];
            const ENTRIES: &'static [(&'static str, Kind)] = &[$(($name, Kind::$kind)),*];

            /// The stable dotted name (`family.metric`).
            pub fn name(self) -> &'static str {
                Self::ENTRIES[self as usize].0
            }

            pub fn kind(self) -> Kind {
                Self::ENTRIES[self as usize].1
            }
        }
    };
}

// In name order: a snapshot walks this table and stays sorted.
catalogue! {
    AdmissionAdmitted = "admission.admitted", Counter;
    AdmissionCancelled = "admission.cancelled", Counter;
    AdmissionQueueDepth = "admission.queue_depth", Gauge;
    AdmissionQueueWaitNs = "admission.queue_wait_ns", Counter;
    AdmissionRejected = "admission.rejected", Counter;
    AdmissionRetryAfterMs = "admission.retry_after_ms", Gauge;
    AdmissionRunning = "admission.running", Gauge;
    AdmissionTimeouts = "admission.timeouts", Counter;
    BytesLoaded = "bytes.loaded", Counter;
    CellarEvictions = "cellar.evictions", Counter;
    CellarHits = "cellar.hits", Counter;
    CellarJoins = "cellar.joins", Counter;
    CellarLoads = "cellar.loads", Counter;
    CellarPeakResidentBytes = "cellar.peak_resident_bytes", Gauge;
    CellarPinWaitNs = "cellar.pin_wait_ns", Counter;
    CellarReloads = "cellar.reloads", Counter;
    CellarResidentBytes = "cellar.resident_bytes", Gauge;
    CellarResidentChunks = "cellar.resident_chunks", Gauge;
    ChunksCacheHits = "chunks.cache_hits", Counter;
    ChunksLoadJoins = "chunks.load_joins", Counter;
    ChunksLoaded = "chunks.loaded", Counter;
    ChunksPruned = "chunks.pruned", Counter;
    ChunksSelected = "chunks.selected", Counter;
    ChunksSkipped = "chunks.skipped", Counter;
    // Retired, never counted: chunk loads decode fetched bytes with no
    // scratch buffer to reuse. Declared because the benchmark reads
    // both by name.
    DecodeArenaAlloc = "decode.arena_alloc", Counter;
    DecodeArenaReuse = "decode.arena_reuse", Counter;
    DecodeBytes = "decode.bytes", Counter;
    DecodeChunks = "decode.chunks", Counter;
    DecodeNs = "decode.ns", Counter;
    DecodeRows = "decode.rows", Counter;
    FaultChunksQuarantined = "fault.chunks_quarantined", Counter;
    FaultFaultsInjected = "fault.faults_injected", Counter;
    FaultIoRetries = "fault.io_retries", Counter;
    FaultQueriesDegraded = "fault.queries_degraded", Counter;
    PoolBatchTasks = "pool.batch_tasks", Histogram;
    PoolBatches = "pool.batches", Counter;
    PoolBusyNs = "pool.busy_ns", Counter;
    PoolIdleNs = "pool.idle_ns", Counter;
    PoolTasks = "pool.tasks", Counter;
    PrefetchHits = "prefetch.hits", Counter;
    PrefetchIoWaitNs = "prefetch.io_wait_ns", Counter;
    PrefetchIssued = "prefetch.issued", Counter;
    PrefetchStagedBytes = "prefetch.staged_bytes", Gauge;
    PrefetchWastedBytes = "prefetch.wasted_bytes", Counter;
    QueryCount = "query.count", Counter;
    QueryLoadNs = "query.load_ns", Counter;
    QueryPanicked = "query.panicked", Counter;
    QueryStage1Ns = "query.stage1_ns", Counter;
    QueryStage2Ns = "query.stage2_ns", Counter;
    RegistrarChunksRegistered = "registrar.chunks_registered", Counter;
    RegistrarSegments = "registrar.segments", Counter;
    RegistrarZonesIndexed = "registrar.zones_indexed", Counter;
    RowsLoaded = "rows.loaded", Counter;
    SchedBatches = "sched.batches", Counter;
    SchedBusyNs = "sched.busy_ns", Counter;
    SchedPanics = "sched.panics", Counter;
    SchedQueueDepth = "sched.queue_depth", Gauge;
    SchedTasks = "sched.tasks", Counter;
    SchedWorkers = "sched.workers", Gauge;
    ServerActiveSessions = "server.active_sessions", Gauge;
    ServerControlThreads = "server.control_threads", Gauge;
    ZoneChunksConsidered = "zone.chunks_considered", Counter;
    ZoneChunksPruned = "zone.chunks_pruned", Counter;
    ZoneProbes = "zone.probes", Counter;
}

const N: usize = Metric::ALL.len();

/// Small-count bucket bounds (tasks per batch): `COUNT_BUCKETS[i]` is
/// the inclusive upper bound of bucket `i`; one implicit overflow
/// bucket catches the rest.
pub const COUNT_BUCKETS: [u64; 8] = [1, 2, 4, 8, 16, 64, 256, 1024];

/// A fixed-bucket histogram over [`COUNT_BUCKETS`].
#[derive(Debug, Default)]
struct Histogram {
    counts: [AtomicU64; COUNT_BUCKETS.len() + 1],
    sum: AtomicU64,
    total: AtomicU64,
}

impl Histogram {
    fn observe(&self, v: u64) {
        let idx = COUNT_BUCKETS.partition_point(|&b| b < v);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            bounds: COUNT_BUCKETS.to_vec(),
            counts: self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.total.load(Ordering::Relaxed),
        }
    }
}

/// One slot per cache line: pool workers bump neighbouring metrics
/// (`decode.*`, `pool.*`) concurrently, and packed slots made the
/// decode-heavy first warm-up query of `server_mix` ~15 % slower on a
/// 2-core x86_64 box.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Slot(AtomicU64);

/// The registry: one atomic slot per catalogue entry, plus the one
/// histogram.
#[derive(Debug)]
pub struct MetricsRegistry {
    slots: [Slot; N],
    histogram: Histogram,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            slots: std::array::from_fn(|_| Slot::default()),
            histogram: Histogram::default(),
        }
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Bump counter `metric` by `n`, or raise gauge `metric` by `n`
    /// (a gauge moved by deltas from threads that share no lock).
    pub fn add(&self, metric: Metric, n: u64) {
        debug_assert_ne!(metric.kind(), Kind::Histogram, "{}", metric.name());
        self.slots[metric as usize].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Lower gauge `metric` by `n` (the inverse of a gauge [`Self::add`]).
    pub fn sub(&self, metric: Metric, n: u64) {
        debug_assert_eq!(metric.kind(), Kind::Gauge, "{}", metric.name());
        self.slots[metric as usize].0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Overwrite gauge `metric` with its new value (set under the lock
    /// that guards the state it reports). Counters only ever grow.
    pub fn set(&self, metric: Metric, v: u64) {
        debug_assert_eq!(metric.kind(), Kind::Gauge, "{}", metric.name());
        self.slots[metric as usize].0.store(v, Ordering::Relaxed);
    }

    pub fn get(&self, metric: Metric) -> u64 {
        self.slots[metric as usize].0.load(Ordering::Relaxed)
    }

    /// Record `v` in histogram `metric`.
    pub fn observe(&self, metric: Metric, v: u64) {
        debug_assert_eq!(metric.kind(), Kind::Histogram, "{}", metric.name());
        self.histogram.observe(v);
    }

    /// A point-in-time copy of every declared metric, names sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for &m in Metric::ALL {
            match m.kind() {
                Kind::Counter => snap.counters.push((m.name().to_string(), self.get(m))),
                Kind::Gauge => snap.gauges.push((m.name().to_string(), self.get(m))),
                Kind::Histogram => snap.histograms.push(self.histogram.snapshot(m.name())),
            }
        }
        snap
    }
}

/// One histogram in a snapshot: `counts` has one entry per bound plus
/// the trailing overflow bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    pub name: String,
    pub bounds: Vec<u64>,
    pub counts: Vec<u64>,
    pub sum: u64,
    pub count: u64,
}

/// A stable, serializable point-in-time view of the registry —
/// `(name, value)` pairs sorted by name, so two snapshots diff cleanly.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, u64)>,
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The counter named `name`, or `None` if no counter of that name
    /// is declared.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// The gauge named `name`, or `None` if no gauge of that name is
    /// declared.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.gauges[i].1)
    }

    /// Per-counter increase since `earlier` (counters absent earlier
    /// count from zero). Gauges and histograms are not diffed.
    pub fn counter_deltas(&self, earlier: &MetricsSnapshot) -> Vec<(String, u64)> {
        self.counters
            .iter()
            .map(|(n, v)| (n.clone(), v.saturating_sub(earlier.counter(n).unwrap_or(0))))
            .collect()
    }

    /// Serialize as JSON (hand-rolled — mirrors `Table::to_json` in the
    /// bench reporter; the workspace has no serde).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (n, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", esc(n), v));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (n, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", esc(n), v));
        }
        out.push_str("\n  },\n  \"histograms\": [");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let bounds: Vec<String> = h.bounds.iter().map(u64::to_string).collect();
            let counts: Vec<String> = h.counts.iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"bounds\": [{}], \"counts\": [{}], \"sum\": {}, \"count\": {}}}",
                esc(&h.name),
                bounds.join(", "),
                counts.join(", "),
                h.sum,
                h.count
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// A human-readable listing (what the `somm-top` example prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(self.gauges.iter().map(|(n, _)| n.len()))
            .chain(self.histograms.iter().map(|h| h.name.len()))
            .max()
            .unwrap_or(0);
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (n, v) in &self.counters {
                out.push_str(&format!("  {n:<width$}  {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (n, v) in &self.gauges {
                out.push_str(&format!("  {n:<width$}  {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for h in &self.histograms {
                let mean = h.sum.checked_div(h.count).unwrap_or(0);
                out.push_str(&format!(
                    "  {:<width$}  count={} sum={} mean={}\n",
                    h.name, h.count, h.sum, mean
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_sorted_unique_and_prefixed() {
        let names: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
        assert!(
            names.windows(2).all(|w| w[0] < w[1]),
            "out of order or duplicate: {names:?}"
        );
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(*m as usize, i, "{m:?} sits in its own slot");
            let (family, leaf) = m.name().split_once('.').expect("a family. prefix");
            assert!(!family.is_empty() && !leaf.is_empty(), "{}", m.name());
        }
    }

    #[test]
    fn snapshot_is_sorted_and_diffable() {
        let reg = MetricsRegistry::new();
        reg.add(Metric::ZoneProbes, 5);
        reg.add(Metric::BytesLoaded, 1);
        reg.set(Metric::SchedWorkers, 42);
        let s0 = reg.snapshot();
        let names: Vec<&str> = s0.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(
            s0.counters.len() + s0.gauges.len() + s0.histograms.len(),
            Metric::ALL.len(),
            "every declared metric is listed"
        );
        assert_eq!(s0.counter("admission.admitted"), Some(0), "untouched metrics read 0");
        reg.add(Metric::ZoneProbes, 7);
        let s1 = reg.snapshot();
        let deltas: Vec<(String, u64)> =
            s1.counter_deltas(&s0).into_iter().filter(|(_, d)| *d > 0).collect();
        assert_eq!(deltas, vec![("zone.probes".to_string(), 7)]);
        assert_eq!(s1.gauge("sched.workers"), Some(42));
        assert_eq!(s1.counter("sched.workers"), None, "a gauge is not a counter");
        assert_eq!(s1.counter("missing"), None);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let h = Histogram::default();
        h.observe(1);
        h.observe(2); // inclusive upper bound
        h.observe(50);
        h.observe(5000); // overflow bucket
        let s = h.snapshot("h");
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 5053);
        assert_eq!(s.counts, vec![1, 1, 0, 0, 0, 1, 0, 0, 1]);
    }

    #[test]
    fn json_shape() {
        let reg = MetricsRegistry::new();
        reg.add(Metric::DecodeRows, 9);
        reg.set(Metric::CellarResidentBytes, 128);
        reg.observe(Metric::PoolBatchTasks, 3);
        let json = reg.snapshot().to_json();
        assert!(json.contains("\"decode.rows\": 9"));
        assert!(json.contains("\"cellar.resident_bytes\": 128"));
        assert!(json.contains("\"name\": \"pool.batch_tasks\""));
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    }
}
