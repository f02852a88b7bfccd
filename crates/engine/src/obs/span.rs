//! Per-query span traces: a tree of timed regions collected while the
//! two-stage driver runs, rendered by `EXPLAIN ANALYZE`.
//!
//! A stage is timed by a [`StageTimer`], which reads each of its two
//! clock edges once: the stage's span and every figure its caller
//! derives from the returned [`Edges`] (an `ExecStats` field, a
//! `query.*_ns` counter) carry the same duration. Regions whose timing
//! is already known (an optimizer pass replayed from its `PassTrace`,
//! a chunk's decode plus pipeline) are recorded complete. Parent links
//! make the tree; the *ambient* parent lets deeply nested probes (a
//! chunk pipeline inside the cellar's decode pool) attach to the right
//! stage span without threading an id through every call signature.

use sommelier_storage::sync::unpoison;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const NO_SPAN: usize = usize::MAX;

/// One timed region of a query.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Index into the trace (also the parent link target).
    pub id: usize,
    pub parent: Option<usize>,
    /// Stable region name (`"stage1"`, `"pass:zone_map_pruning"`,
    /// `"chunk"`, …).
    pub name: &'static str,
    /// Free-form annotation (chunk URI, pass detail, …).
    pub detail: String,
    /// Nanoseconds since the collector's epoch (the query start).
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Pool worker that ran the region, when inside a worker.
    pub worker: Option<usize>,
    pub rows: Option<u64>,
    pub bytes: Option<u64>,
}

/// The two clock edges of one timed stage.
#[derive(Debug, Clone, Copy)]
pub struct Edges {
    pub start: Instant,
    pub end: Instant,
}

impl Edges {
    /// The edges from `start` to now.
    pub fn since(start: Instant) -> Self {
        Edges { start, end: Instant::now() }
    }

    /// The time between the two edges.
    pub fn dur(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

/// Collects one query's spans. Shared (`Arc`) between the driver and
/// the worker pools; recording is a short mutex-guarded push.
#[derive(Debug)]
pub struct TraceCollector {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    ambient: AtomicUsize,
}

impl TraceCollector {
    /// A collector whose spans count time from `epoch` (the query
    /// start).
    pub fn new(epoch: Instant) -> Self {
        TraceCollector {
            epoch,
            spans: Mutex::new(Vec::new()),
            ambient: AtomicUsize::new(NO_SPAN),
        }
    }

    /// Nanoseconds from the query epoch to `t` (0 before it).
    pub(crate) fn offset_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a region whose timing is already known. Returns its id.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        parent: Option<usize>,
        name: &'static str,
        detail: impl Into<String>,
        start_ns: u64,
        dur_ns: u64,
        worker: Option<usize>,
        rows: Option<u64>,
        bytes: Option<u64>,
    ) -> usize {
        let mut spans = unpoison(self.spans.lock());
        let id = spans.len();
        spans.push(SpanRecord {
            id,
            parent,
            name,
            detail: detail.into(),
            start_ns,
            dur_ns,
            worker,
            rows,
            bytes,
        });
        id
    }

    /// Record a finished stage from its clock edges. Returns its id.
    pub fn record_stage(
        &self,
        parent: Option<usize>,
        name: &'static str,
        detail: impl Into<String>,
        edges: Edges,
        rows: Option<u64>,
        bytes: Option<u64>,
    ) -> usize {
        let (start, dur) = (self.offset_ns(edges.start), edges.dur().as_nanos() as u64);
        self.record(parent, name, detail, start, dur, None, rows, bytes)
    }

    /// Set the ambient parent: spans recorded by nested probes that do
    /// not know their parent id attach here. `None` clears it.
    pub fn set_ambient(&self, id: Option<usize>) {
        self.ambient.store(id.unwrap_or(NO_SPAN), Ordering::Release);
    }

    /// The current ambient parent.
    pub fn ambient(&self) -> Option<usize> {
        match self.ambient.load(Ordering::Acquire) {
            NO_SPAN => None,
            id => Some(id),
        }
    }

    /// Freeze the collected spans into a [`SpanTrace`].
    pub fn finish(&self) -> SpanTrace {
        SpanTrace { spans: unpoison(self.spans.lock()).clone() }
    }
}

/// Times one stage of a query, reading each clock edge once (see the
/// module docs). Without a collector it is only a clock.
pub struct StageTimer<'t> {
    start: Instant,
    name: &'static str,
    tracer: Option<&'t TraceCollector>,
    /// An ambient stage's span, opened at the start edge, and the
    /// ambient parent it displaced.
    open: Option<(usize, Option<usize>)>,
}

impl<'t> StageTimer<'t> {
    /// Start a stage now. Its span is recorded under the ambient parent
    /// when the stage stops.
    pub fn start(tracer: Option<&'t TraceCollector>, name: &'static str) -> Self {
        StageTimer { start: Instant::now(), name, tracer, open: None }
    }

    /// Start a stage at `start` whose span opens at once under the
    /// ambient parent and is the ambient parent until the stage stops,
    /// so spans recorded inside the stage — on this thread or on pool
    /// workers — attach under it.
    pub fn ambient(
        tracer: Option<&'t TraceCollector>,
        name: &'static str,
        start: Instant,
    ) -> Self {
        let open = tracer.map(|tc| {
            let outer = tc.ambient();
            let id = tc.record(outer, name, "", tc.offset_ns(start), 0, None, None, None);
            tc.set_ambient(Some(id));
            (id, outer)
        });
        StageTimer { start, name, tracer, open }
    }

    /// Read the end edge and give the stage's span `detail` and its
    /// row and byte counts: record it, or close the open one and
    /// restore the ambient parent. Returns both edges.
    pub fn stop(
        self,
        detail: impl FnOnce() -> String,
        rows: Option<u64>,
        bytes: Option<u64>,
    ) -> Edges {
        let edges = Edges::since(self.start);
        let Some(tc) = self.tracer else { return edges };
        match self.open {
            None => {
                tc.record_stage(tc.ambient(), self.name, detail(), edges, rows, bytes);
            }
            Some((id, outer)) => {
                if let Some(span) = unpoison(tc.spans.lock()).get_mut(id) {
                    span.dur_ns = edges.dur().as_nanos() as u64;
                    span.detail = detail();
                    (span.rows, span.bytes) = (rows, bytes);
                }
                tc.set_ambient(outer);
            }
        }
        edges
    }
}

/// A query's finished span tree (spans in recording order; parents
/// always precede children).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpanTrace {
    pub spans: Vec<SpanRecord>,
}

/// When one parent has more same-named children than this, the tree
/// rendering shows the first few and folds the rest into a summary
/// line (a T4 over 100k chunks must not print 100k lines).
const RENDER_FOLD_AT: usize = 8;
const RENDER_SHOWN: usize = 4;

impl SpanTrace {
    /// The first span named `name`.
    pub fn find(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// How many spans are named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Summed duration of every span named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns).sum()
    }

    /// Render the tree as indented lines, folding long runs of
    /// same-named siblings (per-chunk spans) into summary lines.
    pub fn render_tree(&self) -> String {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        let mut roots = Vec::new();
        for span in &self.spans {
            match span.parent {
                Some(p) if p < self.spans.len() => children[p].push(span.id),
                _ => roots.push(span.id),
            }
        }
        let mut out = String::new();
        for root in roots {
            self.render_node(root, 0, &children, &mut out);
        }
        out
    }

    fn render_node(
        &self,
        id: usize,
        depth: usize,
        children: &[Vec<usize>],
        out: &mut String,
    ) {
        let span = &self.spans[id];
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&format!("{} {}", span.name, fmt_ns(span.dur_ns)));
        if !span.detail.is_empty() {
            out.push_str(&format!(" ({})", span.detail));
        }
        if let Some(w) = span.worker {
            out.push_str(&format!(" [w{w}]"));
        }
        if let Some(r) = span.rows {
            out.push_str(&format!(" rows={r}"));
        }
        if let Some(b) = span.bytes {
            out.push_str(&format!(" bytes={b}"));
        }
        out.push('\n');

        // Fold long same-named sibling runs (per-chunk spans).
        let kids = &children[id];
        let mut i = 0;
        while i < kids.len() {
            let name = self.spans[kids[i]].name;
            let mut j = i;
            while j < kids.len() && self.spans[kids[j]].name == name {
                j += 1;
            }
            if j - i > RENDER_FOLD_AT {
                for &kid in &kids[i..i + RENDER_SHOWN] {
                    self.render_node(kid, depth + 1, children, out);
                }
                let rest = &kids[i + RENDER_SHOWN..j];
                let total: u64 = rest.iter().map(|&k| self.spans[k].dur_ns).sum();
                let rows: u64 = rest.iter().filter_map(|&k| self.spans[k].rows).sum();
                for _ in 0..=depth {
                    out.push_str("  ");
                }
                out.push_str(&format!(
                    "… {} more \"{}\" spans, {} total, rows={}\n",
                    rest.len(),
                    name,
                    fmt_ns(total),
                    rows
                ));
            } else {
                for &kid in &kids[i..j] {
                    self.render_node(kid, depth + 1, children, out);
                }
            }
            i = j;
        }
    }
}

/// `1234567` → `"1.235ms"` — fixed, locale-free formatting.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn start_end_builds_tree() {
        let tc = TraceCollector::new(Instant::now());
        let root = StageTimer::ambient(Some(&tc), "query", Instant::now());
        let child = StageTimer::start(Some(&tc), "stage1");
        let child_edges = child.stop(|| "Qf".into(), Some(3), None);
        let root_edges = root.stop(|| "t4".into(), Some(10), None);
        assert_eq!(tc.ambient(), None, "the root restores the ambient parent");
        let trace = tc.finish();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[1].parent, Some(0));
        let (q, s1) = (trace.find("query").unwrap(), trace.find("stage1").unwrap());
        assert_eq!(q.rows, Some(10));
        assert_eq!(q.dur_ns, root_edges.dur().as_nanos() as u64);
        assert_eq!(s1.dur_ns, child_edges.dur().as_nanos() as u64);
        assert!(q.dur_ns >= s1.dur_ns);
        let tree = trace.render_tree();
        assert!(tree.contains("query"));
        assert!(tree.contains("\n  stage1"), "child must be indented: {tree}");
    }

    #[test]
    fn ambient_parent_round_trips() {
        let tc = TraceCollector::new(Instant::now());
        assert_eq!(tc.ambient(), None);
        let id = tc.record(None, "load", "", 0, 0, None, None, None);
        tc.set_ambient(Some(id));
        assert_eq!(tc.ambient(), Some(id));
        tc.set_ambient(None);
        assert_eq!(tc.ambient(), None);
    }

    #[test]
    fn render_folds_long_sibling_runs() {
        let tc = TraceCollector::new(Instant::now());
        let root = tc.record(None, "load", "", 0, 2000, None, None, None);
        for i in 0..20 {
            tc.record(Some(root), "chunk", format!("uri{i}"), 0, 100, Some(0), Some(5), None);
        }
        let tree = tc.finish().render_tree();
        assert_eq!(tree.matches("\n  chunk").count(), RENDER_SHOWN);
        assert!(tree.contains("16 more \"chunk\" spans"), "{tree}");
        assert!(tree.contains("rows=80"), "{tree}");
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(750), "750ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.500ms");
        assert_eq!(fmt_ns(3_200_000_000), "3.200s");
    }
}
