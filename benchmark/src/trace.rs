//! The harness's own spans for the traced run.
//!
//! Spans are recorded from outside the program, around the calls into
//! each layer (`bench.setup.*`, `bench.warmup`, `bench.query`,
//! `layer.*`); the span tree the program itself reports for a query
//! (`QueryResult::span_trace`) is hung below that query's `bench.query`
//! span under `somm.*` names. Everything stays in memory until the run
//! ends, then goes to one JSONL file.

use sommelier_core::SpanTrace;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Origin {
    /// Recorded by the harness.
    Bench,
    /// Imported from the program's own span tree.
    Program,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub origin: Origin,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same log.
    pub parent: Option<u32>,
    /// Spans of one query share its id.
    pub query: Option<u32>,
    pub client: u16,
}

impl Span {
    pub fn label(&self) -> String {
        match self.origin {
            Origin::Bench => self.name.to_string(),
            Origin::Program => format!("somm.{}", self.name),
        }
    }

    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span log. Each client thread fills its own and the
/// logs are merged when the phase ends, so recording takes no lock.
#[derive(Debug, Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
    client: u16,
}

impl SpanLog {
    pub fn for_client(client: usize) -> SpanLog {
        SpanLog { spans: Vec::new(), client: client as u16 }
    }

    /// Record a finished harness span; returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        query: Option<u32>,
    ) -> u32 {
        self.spans.push(Span {
            name,
            origin: Origin::Bench,
            start_ns,
            end_ns,
            parent,
            query,
            client: self.client,
        });
        (self.spans.len() - 1) as u32
    }

    /// Hang the program's span tree for one query below `parent` (that
    /// query's `bench.query` span). The program's clock starts when it
    /// creates its collector, which the harness cannot see, so the tree
    /// is aligned by its end: the root span closes just before the call
    /// returns. Spans are clipped to the parent.
    pub fn import_program(&mut self, trace: &SpanTrace, parent: u32, query: u32) {
        let (p_start, p_end) = {
            let p = &self.spans[parent as usize];
            (p.start_ns, p.end_ns)
        };
        let tree_end = trace.spans.iter().map(|s| s.start_ns + s.dur_ns).max().unwrap_or(0);
        let shift = p_end.saturating_sub(tree_end);
        let base = self.spans.len() as u32;
        for s in &trace.spans {
            let start = (shift + s.start_ns).clamp(p_start, p_end);
            let end = (shift + s.start_ns + s.dur_ns).clamp(start, p_end);
            self.spans.push(Span {
                name: s.name,
                origin: Origin::Program,
                start_ns: start,
                end_ns: end,
                parent: Some(s.parent.map_or(parent, |p| base + p as u32)),
                query: Some(query),
                client: self.client,
            });
        }
    }

    /// Append another log, re-basing its parent links.
    pub fn merge(&mut self, other: SpanLog) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its child spans cover (children running in parallel
/// overlap; the union is subtracted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.clamp(parent.start_ns, parent.end_ns);
            let end = s.end_ns.clamp(start, parent.end_ns);
            children[p as usize].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// One row of the traced layer budget.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetRow {
    pub name: String,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Count, total and self time per span name, largest self time first.
pub fn budget(spans: &[Span]) -> Vec<BudgetRow> {
    let selfs = self_times(spans);
    // Keyed by the static name: a label is built once per row, not
    // once per span.
    let mut rows: BTreeMap<(Origin, &'static str), BudgetRow> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let row = rows.entry((s.origin, s.name)).or_insert_with(|| BudgetRow {
            name: s.label(),
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.count += 1;
        row.total_ns += s.dur_ns();
        row.self_ns += self_ns;
    }
    let mut rows: Vec<BudgetRow> = rows.into_values().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.name.cmp(&b.name)));
    rows
}

/// One JSON object per line: id, parent, name, start, end, query id.
/// Span names are identifiers (no character needs escaping).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let opt = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        writeln!(
            out,
            r#"{{"id": {id}, "parent": {}, "name": "{}", "start_ns": {}, "end_ns": {}, "query": {}, "client": {}}}"#,
            opt(s.parent),
            s.label(),
            s.start_ns,
            s.end_ns,
            opt(s.query),
            s.client
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::for_client(0);
        let root = log.push("bench.query", 0, 100, None, Some(0));
        // Two overlapping children cover [10, 60); a third [70, 80).
        let a = log.push("a", 10, 50, Some(root), Some(0));
        log.push("b", 30, 60, Some(root), Some(0));
        log.push("c", 70, 80, Some(root), Some(0));
        // A grandchild only reduces its own parent.
        log.push("a.inner", 10, 20, Some(a), Some(0));
        // A child sticking out of its parent is clipped to it.
        log.push("late", 95, 130, Some(root), Some(0));
        let selfs = self_times(&log.spans);
        assert_eq!(selfs[root as usize], 100 - 50 - 10 - 5);
        assert_eq!(selfs[a as usize], 30);
        assert_eq!(selfs[2], 30);
    }

    #[test]
    fn budget_groups_by_name() {
        let mut log = SpanLog::for_client(0);
        for q in 0..3u64 {
            let root = log.push("bench.query", q * 100, q * 100 + 50, None, Some(q as u32));
            log.push("x", q * 100 + 10, q * 100 + 30, Some(root), Some(q as u32));
        }
        let rows = budget(&log.spans);
        let q = rows.iter().find(|r| r.name == "bench.query").unwrap();
        assert_eq!((q.count, q.total_ns, q.self_ns), (3, 150, 90));
        let x = rows.iter().find(|r| r.name == "x").unwrap();
        assert_eq!((x.count, x.total_ns, x.self_ns), (3, 60, 60));
        assert_eq!(rows[0].name, "bench.query", "largest self time first");
    }

    #[test]
    fn merged_logs_keep_their_parent_links() {
        let mut a = SpanLog::for_client(0);
        a.push("p", 0, 10, None, None);
        let mut b = SpanLog::for_client(1);
        let p = b.push("p", 0, 10, None, None);
        b.push("k", 2, 4, Some(p), None);
        a.merge(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.spans[2].client, 1);
    }

    #[test]
    fn program_trees_align_by_their_end() {
        use sommelier_engine::obs::span::SpanRecord;
        let rec = |id, parent, name, start_ns, dur_ns| SpanRecord {
            id,
            parent,
            name,
            detail: String::new(),
            start_ns,
            dur_ns,
            worker: None,
            rows: None,
            bytes: None,
        };
        let trace = SpanTrace {
            spans: vec![rec(0, None, "query", 0, 80), rec(1, Some(0), "load", 20, 50)],
        };
        let mut log = SpanLog::for_client(0);
        let q = log.push("bench.query", 1000, 1100, None, Some(7));
        log.import_program(&trace, q, 7);
        let root = &log.spans[1];
        assert_eq!((root.start_ns, root.end_ns, root.parent), (1020, 1100, Some(q)));
        let load = &log.spans[2];
        assert_eq!((load.start_ns, load.end_ns, load.parent), (1040, 1090, Some(1)));
        assert_eq!(load.label(), "somm.load");
        // bench.query's self time is what the program's tree does not see.
        assert_eq!(self_times(&log.spans)[q as usize], 20);
    }
}
