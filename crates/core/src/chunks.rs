//! Chunk registry and the adapter-backed [`AdapterChunkSource`].
//!
//! The registry is the system's mapping between chunk URIs and the
//! system-generated keys that the metadata tables carry — what lets a
//! `chunk-access` produce rows that join correctly against eagerly
//! loaded metadata. It is format-neutral; everything format-specific
//! happens behind the [`crate::source::SourceAdapter`] the source was
//! registered with.

use crate::fault::FaultInjector;
use crate::prefetch::{PrefetchStage, RawFetcher};
use crate::source::{RawChunk, SourceAdapter};
use sommelier_engine::optimizer::zone_conjunct_contradicted;
use sommelier_engine::{
    CmpOp, ColumnZone, EngineError, Metric, Obs, Relation, ZoneCandidates, ZoneConstraint,
};
use sommelier_storage::sync::unpoison;
use sommelier_storage::{DataType, Database, Value};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One registered chunk file.
#[derive(Debug, Clone)]
pub struct FileEntry {
    pub uri: String,
    pub file_id: i64,
    /// First sub-unit id of this chunk (e.g. the first mSEED segment);
    /// unit `k` has id `seg_base + k`. Sources without sub-units use 0.
    pub seg_base: i64,
    /// Number of sub-units (1 for sources without sub-units).
    pub seg_count: u32,
    /// Per-chunk min/max zone maps for the source's declared prunable
    /// columns, recorded by the adapter at registration time (from
    /// header information only). Empty = no zone maps; the chunk is
    /// never pruned.
    pub zones: Vec<ColumnZone>,
}

// ---- The sorted zone interval index -----------------------------------
//
// At repository scale (the north star: millions of registered files),
// stage-1 candidate selection must not walk the registry chunk by
// chunk. The index below answers "which chunks may satisfy
// `col ⟨op⟩ literal` constraints" in O(log n + hits): per prunable
// column, the chunks' zone intervals are sorted by their min (with a
// max segment tree for two-sided range stabbing) and by their max —
// the metadata-layer indexing that AsterixDB-style ingest pipelines
// use to keep selection sub-linear. The answers are exactly the chunks
// the per-chunk zone check would keep, so the pruning pass can use the
// index as a prefilter and stay byte-identical with the linear scan.

/// Sort key of one index lane. The sentinel [`LaneKey::MIN_KEY`] pads
/// the segment tree to a power of two.
trait LaneKey: Copy + PartialOrd {
    const MIN_KEY: Self;
}

impl LaneKey for i64 {
    const MIN_KEY: i64 = i64::MIN;
}

impl LaneKey for f64 {
    const MIN_KEY: f64 = f64::NEG_INFINITY;
}

/// An inclusive/exclusive query bound.
#[derive(Clone, Copy)]
struct Bound<T> {
    key: T,
    inclusive: bool,
}

impl<T: LaneKey> Bound<T> {
    /// Tighten an upper bound: the smaller key wins; on a tie the
    /// exclusive (strict) form wins.
    fn tighten_upper(current: &mut Option<Bound<T>>, next: Bound<T>) {
        match current {
            Some(b) if b.key < next.key || (b.key == next.key && !b.inclusive) => {}
            _ => *current = Some(next),
        }
    }

    /// Tighten a lower bound: the larger key wins; on a tie the
    /// exclusive (strict) form wins.
    fn tighten_lower(current: &mut Option<Bound<T>>, next: Bound<T>) {
        match current {
            Some(b) if b.key > next.key || (b.key == next.key && !b.inclusive) => {}
            _ => *current = Some(next),
        }
    }
}

/// One column's zone intervals of a single value family, sorted for
/// logarithmic candidate selection.
#[derive(Debug)]
struct IntervalLane<T> {
    /// Registry positions ordered by zone min ascending.
    by_min: Vec<u32>,
    /// Zone mins, aligned with `by_min`.
    mins: Vec<T>,
    /// Registry positions ordered by zone max descending.
    by_max_desc: Vec<u32>,
    /// Zone maxs, aligned with `by_max_desc`.
    maxs_desc: Vec<T>,
    /// Segment tree of the max over `maxs` (power-of-two padded, root
    /// at 1) for two-sided range stabbing.
    tree: Vec<T>,
    /// Number of real leaves.
    leaves: usize,
}

impl<T: LaneKey> IntervalLane<T> {
    fn build(mut intervals: Vec<(u32, T, T)>) -> Self {
        intervals.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN excluded at build"));
        let by_min: Vec<u32> = intervals.iter().map(|&(p, _, _)| p).collect();
        let mins: Vec<T> = intervals.iter().map(|&(_, m, _)| m).collect();
        let maxs: Vec<T> = intervals.iter().map(|&(_, _, m)| m).collect();
        let mut by_max: Vec<(u32, T)> = intervals.iter().map(|&(p, _, m)| (p, m)).collect();
        by_max.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("NaN excluded at build"));
        let by_max_desc: Vec<u32> = by_max.iter().map(|&(p, _)| p).collect();
        let maxs_desc: Vec<T> = by_max.iter().map(|&(_, m)| m).collect();
        let leaves = maxs.len();
        let width = leaves.next_power_of_two().max(1);
        let mut tree = vec![T::MIN_KEY; 2 * width];
        tree[width..width + leaves].copy_from_slice(&maxs);
        for i in (1..width).rev() {
            tree[i] =
                if tree[2 * i] < tree[2 * i + 1] { tree[2 * i + 1] } else { tree[2 * i] };
        }
        IntervalLane { by_min, mins, by_max_desc, maxs_desc, tree, leaves }
    }

    /// Entries whose min lies below the upper bound — a sorted prefix.
    fn upper_prefix(&self, upper: Bound<T>) -> usize {
        // min <= key (inclusive) or min < key (exclusive).
        self.mins.partition_point(|&m| {
            if upper.inclusive {
                m <= upper.key
            } else {
                m < upper.key
            }
        })
    }

    /// Candidate positions for the combined column bounds.
    fn candidates(
        &self,
        upper: Option<Bound<T>>,
        lower: Option<Bound<T>>,
        out: &mut Vec<u32>,
    ) {
        match (upper, lower) {
            (None, None) => out.extend_from_slice(&self.by_min),
            (Some(u), None) => out.extend_from_slice(&self.by_min[..self.upper_prefix(u)]),
            (None, Some(l)) => {
                // max >= key (inclusive) or max > key (exclusive), on
                // the descending-max order: a prefix again.
                let k = self.maxs_desc.partition_point(|&m| {
                    if l.inclusive {
                        m >= l.key
                    } else {
                        m > l.key
                    }
                });
                out.extend_from_slice(&self.by_max_desc[..k]);
            }
            (Some(u), Some(l)) => {
                // Two-sided stab: prefix by min, segment-tree descent
                // for the max condition within it.
                let prefix = self.upper_prefix(u);
                if prefix > 0 {
                    self.collect(1, 0, self.tree.len() / 2, prefix, l, out);
                }
            }
        }
    }

    /// Collect every leaf in `[0, prefix)` whose max passes `lower`,
    /// descending only into subtrees whose aggregate max passes.
    fn collect(
        &self,
        node: usize,
        l: usize,
        r: usize,
        prefix: usize,
        lower: Bound<T>,
        out: &mut Vec<u32>,
    ) {
        let passes = |m: T| if lower.inclusive { m >= lower.key } else { m > lower.key };
        if l >= prefix || l >= self.leaves || !passes(self.tree[node]) {
            return;
        }
        if r - l == 1 {
            out.push(self.by_min[l]);
            return;
        }
        let m = (l + r) / 2;
        self.collect(2 * node, l, m, prefix, lower, out);
        self.collect(2 * node + 1, m, r, prefix, lower, out);
    }
}

/// All lanes of one column. Entries with no zone for the column land
/// in `always` (the per-chunk check keeps them no matter the literal);
/// zones that cannot be lane-sorted are checked per entry at query
/// time so the index never diverges from the per-chunk scan.
#[derive(Debug, Default)]
struct ColumnLanes {
    always: Vec<u32>,
    /// Integer-family lanes, one per declared zone type (`Int64`,
    /// `Timestamp`) — kept apart because literal coercion is per type:
    /// a quoted timestamp binds to a `Timestamp` lane but not to an
    /// `Int64` one, exactly as the per-chunk coercion behaves.
    i64_lanes: Vec<(DataType, IntervalLane<i64>)>,
    f64_lane: Option<IntervalLane<f64>>,
    /// Unlaned zones — text bounds, mixed-family bounds, NaN floats —
    /// checked per entry at query time with the exact per-chunk
    /// contradiction logic (such zones CAN still contradict, e.g. a
    /// text interval against a text literal, or a mixed zone through
    /// its min bound alone, so parking them in `always` would break
    /// the exact-equality contract with the linear scan). Built-in
    /// adapters record none of these, so the list is empty in
    /// practice.
    unlaned: Vec<(u32, ColumnZone)>,
}

/// The sorted interval index over a registry's zone maps.
#[derive(Debug, Default)]
pub struct ZoneIndex {
    columns: HashMap<String, ColumnLanes>,
}

impl ZoneIndex {
    /// Build the index from registration-ordered entries.
    fn build(entries: &[FileEntry]) -> Self {
        let mut raw: HashMap<String, Vec<(u32, &Value, &Value)>> = HashMap::new();
        for (i, e) in entries.iter().enumerate() {
            // Only the first zone per column counts — mirroring the
            // per-chunk check, which resolves a column to its first
            // matching zone.
            let mut seen_columns: HashSet<&str> = HashSet::new();
            for z in &e.zones {
                if seen_columns.insert(&z.column) {
                    raw.entry(z.column.clone()).or_default().push((i as u32, &z.min, &z.max));
                }
            }
        }
        let mut columns = HashMap::new();
        for (column, zones) in raw {
            let mut lanes = ColumnLanes::default();
            let mut i64_ints: Vec<(u32, i64, i64)> = Vec::new();
            let mut i64_times: Vec<(u32, i64, i64)> = Vec::new();
            let mut f64s: Vec<(u32, f64, f64)> = Vec::new();
            let mut zoned: HashSet<u32> = HashSet::new();
            for (pos, min, max) in zones {
                zoned.insert(pos);
                match (min, max) {
                    (Value::Int(a), Value::Int(b)) => i64_ints.push((pos, *a, *b)),
                    (Value::Time(a), Value::Time(b)) => i64_times.push((pos, *a, *b)),
                    (Value::Float(a), Value::Float(b)) if !a.is_nan() && !b.is_nan() => {
                        f64s.push((pos, *a, *b))
                    }
                    // Anything else — text intervals, mixed-family
                    // bounds, NaN floats — is checked per entry at
                    // query time, exactly like the per-chunk scan.
                    _ => lanes.unlaned.push((
                        pos,
                        ColumnZone {
                            column: column.clone(),
                            min: min.clone(),
                            max: max.clone(),
                        },
                    )),
                }
            }
            // Entries with no zone for this column are always kept.
            lanes.always.extend((0..entries.len() as u32).filter(|p| !zoned.contains(p)));
            if !i64_ints.is_empty() {
                lanes.i64_lanes.push((DataType::Int64, IntervalLane::build(i64_ints)));
            }
            if !i64_times.is_empty() {
                lanes.i64_lanes.push((DataType::Timestamp, IntervalLane::build(i64_times)));
            }
            if !f64s.is_empty() {
                lanes.f64_lane = Some(IntervalLane::build(f64s));
            }
            columns.insert(column, lanes);
        }
        ZoneIndex { columns }
    }

    /// Candidate registry positions for the constraint set: the exact
    /// set of chunks the per-chunk zone check would keep. `None` when
    /// no constraint touches an indexed column (the caller should fall
    /// back to — or simply skip — the per-chunk scan).
    pub fn candidates(&self, constraints: &[ZoneConstraint]) -> Option<Vec<u32>> {
        // Group the constraints per indexed column; columns with no
        // recorded zones constrain nothing (every chunk survives the
        // per-chunk check for them).
        let mut per_column: HashMap<&str, Vec<&ZoneConstraint>> = HashMap::new();
        for c in constraints {
            if self.columns.contains_key(&c.column) {
                per_column.entry(c.column.as_str()).or_default().push(c);
            }
        }
        if per_column.is_empty() {
            return None;
        }
        let mut intersected: Option<HashSet<u32>> = None;
        for (column, constraints) in per_column {
            let positions = self.column_candidates(&self.columns[column], &constraints);
            intersected = Some(match intersected {
                None => positions.into_iter().collect(),
                Some(prev) => positions.into_iter().filter(|p| prev.contains(p)).collect(),
            });
        }
        let mut out: Vec<u32> =
            intersected.expect("at least one column").into_iter().collect();
        out.sort_unstable();
        Some(out)
    }

    /// One column's candidates: per lane, fold the constraints into the
    /// tightest upper/lower bounds the lane's type can absorb (literals
    /// that do not coerce constrain nothing, mirroring the per-chunk
    /// coercion), then stab the lane; plus the always-kept entries.
    fn column_candidates(
        &self,
        lanes: &ColumnLanes,
        constraints: &[&ZoneConstraint],
    ) -> Vec<u32> {
        let mut out: Vec<u32> = lanes.always.clone();
        for (dtype, lane) in &lanes.i64_lanes {
            let mut upper: Option<Bound<i64>> = None;
            let mut lower: Option<Bound<i64>> = None;
            for c in constraints {
                let Ok(lit) = c.value.coerce_to(*dtype) else { continue };
                let key = match lit {
                    Value::Int(v) | Value::Time(v) => v,
                    _ => continue,
                };
                apply_bound(c.op, key, &mut upper, &mut lower);
            }
            lane.candidates(upper, lower, &mut out);
        }
        if let Some(lane) = &lanes.f64_lane {
            let mut upper: Option<Bound<f64>> = None;
            let mut lower: Option<Bound<f64>> = None;
            for c in constraints {
                let Ok(lit) = c.value.coerce_to(DataType::Float64) else { continue };
                let key = match lit {
                    Value::Float(v) if !v.is_nan() => v,
                    _ => continue,
                };
                apply_bound(c.op, key, &mut upper, &mut lower);
            }
            lane.candidates(upper, lower, &mut out);
        }
        // Unlaned zones: the per-entry check itself (one zone per
        // call), so these chunks prune exactly as in the linear scan.
        for (pos, zone) in &lanes.unlaned {
            let contradicted = constraints.iter().any(|c| {
                zone_conjunct_contradicted(
                    c.op,
                    &c.column,
                    &c.value,
                    std::slice::from_ref(zone),
                )
            });
            if !contradicted {
                out.push(*pos);
            }
        }
        out
    }
}

/// Fold one comparison into the running zone-overlap bounds. A chunk's
/// zone `[min, max]` survives `col ⟨op⟩ L` exactly when (mirroring
/// [`zone_conjunct_contradicted`]):
///
/// * `<`  — `min <  L` (exclusive upper)
/// * `<=` — `min <= L` (inclusive upper)
/// * `>`  — `max >  L` (exclusive lower)
/// * `>=` — `max >= L` (inclusive lower)
/// * `=`  — `min <= L && max >= L` (both, inclusive)
/// * `!=` — always (no bound)
fn apply_bound<T: LaneKey>(
    op: CmpOp,
    key: T,
    upper: &mut Option<Bound<T>>,
    lower: &mut Option<Bound<T>>,
) {
    match op {
        CmpOp::Lt => Bound::tighten_upper(upper, Bound { key, inclusive: false }),
        CmpOp::Le => Bound::tighten_upper(upper, Bound { key, inclusive: true }),
        CmpOp::Gt => Bound::tighten_lower(lower, Bound { key, inclusive: false }),
        CmpOp::Ge => Bound::tighten_lower(lower, Bound { key, inclusive: true }),
        CmpOp::Eq => {
            Bound::tighten_upper(upper, Bound { key, inclusive: true });
            Bound::tighten_lower(lower, Bound { key, inclusive: true });
        }
        CmpOp::Ne => {}
    }
}

/// The uri ↔ system-key mapping established at registration time,
/// carrying the sorted zone interval index for stage-1 candidate
/// selection.
#[derive(Debug, Default)]
pub struct ChunkRegistry {
    entries: Vec<FileEntry>,
    /// Lookup map sharing [`Self::uri_arcs`]'s interned strings
    /// (`Arc<str>: Borrow<str>`, so `&str` lookups work).
    by_uri: HashMap<Arc<str>, usize>,
    zone_index: ZoneIndex,
    /// Shared URI per entry, interned once so candidate answers cost a
    /// refcount bump per hit instead of a `String` allocation.
    uri_arcs: Vec<Arc<str>>,
    /// Chunks found permanently unreadable (uri → reason). Stage 1
    /// consults this before scheduling decodes, so a quarantined
    /// chunk's file is never touched again for the life of the system.
    quarantined: Mutex<HashMap<String, String>>,
}

impl ChunkRegistry {
    /// Build from registration-ordered entries (zone maps must already
    /// be attached — the interval index is built here).
    pub fn new(entries: Vec<FileEntry>) -> Self {
        let zone_index = ZoneIndex::build(&entries);
        let uri_arcs: Vec<Arc<str>> =
            entries.iter().map(|e| Arc::<str>::from(e.uri.as_str())).collect();
        let by_uri = uri_arcs.iter().enumerate().map(|(i, u)| (Arc::clone(u), i)).collect();
        ChunkRegistry {
            entries,
            by_uri,
            zone_index,
            uri_arcs,
            quarantined: Mutex::new(HashMap::new()),
        }
    }

    /// Record a chunk as permanently unreadable, and say whether it is
    /// newly quarantined. Idempotent (the first reason wins).
    pub fn quarantine(&self, uri: &str, reason: impl Into<String>) -> bool {
        let mut quarantined = unpoison(self.quarantined.lock());
        !quarantined.contains_key(uri)
            && quarantined.insert(uri.into(), reason.into()).is_none()
    }

    /// The quarantine reason of a chunk, if it is quarantined.
    pub fn quarantined(&self, uri: &str) -> Option<String> {
        unpoison(self.quarantined.lock()).get(uri).cloned()
    }

    /// Look up a chunk by URI.
    pub fn get(&self, uri: &str) -> Option<&FileEntry> {
        self.by_uri.get(uri).map(|&i| &self.entries[i])
    }

    /// All registered entries in file-id order.
    pub fn entries(&self) -> &[FileEntry] {
        &self.entries
    }

    /// Number of registered chunks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no chunks are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of registered sub-units.
    pub fn total_segments(&self) -> u64 {
        self.entries.iter().map(|e| e.seg_count as u64).sum()
    }

    /// The zone maps recorded for one chunk, if any (`None` when the
    /// chunk is unknown or has no zones — it is then never pruned).
    pub fn zones_of(&self, uri: &str) -> Option<Vec<ColumnZone>> {
        let entry = self.get(uri)?;
        if entry.zones.is_empty() {
            None
        } else {
            Some(entry.zones.clone())
        }
    }

    /// Indexed stage-1 candidate selection: registry positions of the
    /// chunks that may satisfy the constraints, in O(log n + hits) via
    /// the sorted interval index. `None` when no constraint touches an
    /// indexed column. The result is sorted and exactly equals the
    /// linear per-chunk scan (the oracle in this module's tests).
    pub fn indexed_candidate_positions(
        &self,
        constraints: &[ZoneConstraint],
    ) -> Option<Vec<u32>> {
        self.zone_index.candidates(constraints)
    }

    /// The pre-index linear scan: walk every registered chunk and apply
    /// the per-chunk zone contradiction check (what the pruning pass
    /// did before the interval index existed). The equivalence oracle
    /// of the indexed selection.
    #[cfg(test)]
    fn linear_candidate_positions(&self, constraints: &[ZoneConstraint]) -> Vec<u32> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| {
                let Some(zones) = self.zones_of(&e.uri) else { return true };
                !constraints
                    .iter()
                    .any(|c| zone_conjunct_contradicted(c.op, &c.column, &c.value, &zones))
            })
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// [`sommelier_engine::ChunkResidency::zone_candidates`] over this
    /// registry: the indexed positions mapped back to URIs
    /// (or [`ZoneCandidates::All`] when nothing is excluded).
    pub fn zone_candidates(&self, constraints: &[ZoneConstraint]) -> Option<ZoneCandidates> {
        let positions = self.indexed_candidate_positions(constraints)?;
        if positions.len() == self.entries.len() {
            return Some(ZoneCandidates::All);
        }
        Some(ZoneCandidates::Uris(
            positions.iter().map(|&p| Arc::clone(&self.uri_arcs[p as usize])).collect(),
        ))
    }
}

/// The chunk source of one registered source: resolves URIs through
/// the registry and decodes through the source's adapter. The cellar is
/// its only caller.
pub struct AdapterChunkSource {
    adapter: Arc<dyn SourceAdapter>,
    registry: Arc<ChunkRegistry>,
    db: Arc<Database>,
    /// Verify FK integrity of every ingested row against the metadata
    /// PK indices — the work the paper's lazy variant skips (§VI-A).
    verify_fk: bool,
    /// Where `decode.*` is counted ([`Self::with_obs`]; detached by
    /// default).
    obs: Obs,
    /// Deterministic fault injection at the decode seam (see
    /// [`crate::FaultPlan`]); `None` in production.
    faults: Option<Arc<FaultInjector>>,
    /// The system's prefetch stage: decodes claim staged raw bytes from
    /// here before falling back to the direct (fused fetch+decode)
    /// path. `None` = prefetch off; the hot path is untouched.
    prefetch: Option<Arc<PrefetchStage>>,
}

impl AdapterChunkSource {
    /// Create a source over `registry`, decoding through `adapter`.
    pub fn new(
        adapter: Arc<dyn SourceAdapter>,
        registry: Arc<ChunkRegistry>,
        db: Arc<Database>,
        verify_fk: bool,
    ) -> Self {
        AdapterChunkSource {
            adapter,
            registry,
            db,
            verify_fk,
            obs: Obs::off(),
            faults: None,
            prefetch: None,
        }
    }

    /// Claim prefetched raw bytes from `stage` before decoding (see
    /// [`crate::prefetch::PrefetchStage`]); default off.
    pub fn with_prefetch(mut self, prefetch: Option<Arc<PrefetchStage>>) -> Self {
        self.prefetch = prefetch;
        self
    }

    /// Gate every decode attempt through a shared [`FaultInjector`]
    /// (tests and benches; default off).
    pub fn with_faults(mut self, faults: Option<Arc<FaultInjector>>) -> Self {
        self.faults = faults;
        self
    }

    /// Record `decode.*` metrics (chunks, rows, bytes, ns) into
    /// `obs`'s registry on every decode.
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.obs = obs.clone();
        self
    }

    /// The fetch closure the prefetch stage runs on its IO threads:
    /// fault injection fires *inside* it, so an injected spike or hold
    /// lands on the IO thread and genuinely overlaps with decode work
    /// (the direct path gates on the decode worker instead).
    pub fn raw_fetcher(&self) -> RawFetcher {
        let adapter = Arc::clone(&self.adapter);
        let registry = Arc::clone(&self.registry);
        let faults = self.faults.clone();
        Arc::new(move |uri: &str| -> sommelier_engine::Result<RawChunk> {
            if let Some(f) = &faults {
                f.before_load(uri)?;
            }
            let entry = registry.get(uri).ok_or_else(|| {
                EngineError::Chunk(format!("chunk {uri:?} is not registered"))
            })?;
            adapter.fetch_bytes(entry)
        })
    }

    /// Claim staged bytes for `uri` if a prefetch fetched them:
    /// `Some(raw)` means the IO cost (fault gate, file read) was
    /// already paid on the IO thread and the caller only
    /// decodes; `None` means no prefetch covered this chunk (or it
    /// failed, already surfaced as an error by `claim`) and the caller
    /// runs the classic fused path.
    fn claim_prefetched(&self, uri: &str) -> sommelier_engine::Result<Option<RawChunk>> {
        match self.prefetch.as_ref().and_then(|s| s.claim(uri)) {
            None => Ok(None),
            Some(Ok(raw)) => Ok(Some(raw)),
            // A failed prefetch surfaces exactly like a failed load;
            // the entry was consumed, so the caller's retry loop falls
            // back to the direct read path.
            Some(Err(e)) => Err(e),
        }
    }

    /// The registry backing this source.
    pub fn registry(&self) -> &Arc<ChunkRegistry> {
        &self.registry
    }

    fn entry(&self, uri: &str) -> sommelier_engine::Result<&crate::chunks::FileEntry> {
        self.registry
            .get(uri)
            .ok_or_else(|| EngineError::Chunk(format!("chunk {uri:?} is not registered")))
    }

    /// Probe every foreign key of the actual-data table against its
    /// parent's primary-key index (schema-driven; no format knowledge).
    fn verify(&self, rel: &Relation) -> sommelier_engine::Result<()> {
        if !self.verify_fk {
            return Ok(());
        }
        let d = self.adapter.descriptor();
        let schema = self
            .db
            .table_schema(&d.ad_table)
            .map_err(|e| EngineError::Chunk(e.to_string()))?;
        for fk in &schema.foreign_keys {
            let [col] = fk.columns.as_slice() else { continue };
            let keys = rel.column(&format!("{}.{col}", d.ad_table))?.as_i64()?.to_vec();
            self.db.pk_probe_i64(&fk.parent_table, &keys).map_err(|e| {
                EngineError::Chunk(format!("lazy FK verification failed: {e}"))
            })?;
        }
        Ok(())
    }

    /// Ingest one chunk, full width, as a relation in the actual-data
    /// table's schema (qualified column names, e.g. `D.sample_time`).
    /// The cellar retains it for later queries over any column set.
    pub(crate) fn load_chunk(&self, uri: &str) -> sommelier_engine::Result<Relation> {
        // Prefetched chunk: the IO (and its fault gate) already ran on
        // an IO thread — only decode here.
        let raw = self.claim_prefetched(uri)?;
        if raw.is_none() {
            if let Some(f) = &self.faults {
                f.before_load(uri)?;
            }
        }
        let entry = self.entry(uri)?;
        let t = Instant::now();
        let rel = match raw {
            Some(raw) => self.adapter.decode_bytes(entry, raw, None)?,
            None => self.adapter.decode(entry, None)?,
        };
        self.verify(&rel)?;
        let o = &self.obs;
        o.count(Metric::DecodeChunks, 1);
        o.count(Metric::DecodeRows, rel.rows() as u64);
        o.count(Metric::DecodeBytes, rel.approx_bytes() as u64);
        o.count(Metric::DecodeNs, t.elapsed().as_nanos() as u64);
        Ok(rel)
    }
}

/// Convenience: absolute URI (string) for a repository file path.
pub fn uri_of(path: &Path) -> String {
    path.to_string_lossy().into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_lookup() {
        let reg = ChunkRegistry::new(vec![
            FileEntry {
                uri: "a".into(),
                file_id: 0,
                seg_base: 0,
                seg_count: 3,
                zones: vec![],
            },
            FileEntry {
                uri: "b".into(),
                file_id: 1,
                seg_base: 3,
                seg_count: 2,
                zones: vec![],
            },
        ]);
        assert_eq!(reg.len(), 2);
        assert!(!reg.is_empty());
        assert_eq!(reg.get("b").unwrap().seg_base, 3);
        assert!(reg.get("c").is_none());
        assert_eq!(reg.total_segments(), 5);
    }

    #[test]
    fn uri_of_roundtrips() {
        let p = Path::new("/tmp/x/chunk-0001.evl");
        assert_eq!(uri_of(p), "/tmp/x/chunk-0001.evl");
    }

    // ---- Zone interval index -----------------------------------------

    fn entry(i: i64, zones: Vec<ColumnZone>) -> FileEntry {
        FileEntry { uri: format!("u{i}"), file_id: i, seg_base: 0, seg_count: 1, zones }
    }

    fn tz(lo: i64, hi: i64) -> ColumnZone {
        ColumnZone { column: "D.t".into(), min: Value::Time(lo), max: Value::Time(hi) }
    }

    fn vz(lo: f64, hi: f64) -> ColumnZone {
        ColumnZone { column: "D.v".into(), min: Value::Float(lo), max: Value::Float(hi) }
    }

    fn con(column: &str, op: CmpOp, value: Value) -> ZoneConstraint {
        ZoneConstraint { column: column.into(), op, value }
    }

    /// Day-partitioned registry: chunk `i` covers `[i*100, i*100+99]`,
    /// every third chunk also carries a float value zone, every fifth
    /// a text station zone, and a few chunks have no zones at all.
    fn zoned_registry(n: i64) -> ChunkRegistry {
        let entries = (0..n)
            .map(|i| {
                let mut zones = vec![tz(i * 100, i * 100 + 99)];
                if i % 3 == 0 {
                    zones.push(vz(i as f64, i as f64 + 0.5));
                }
                if i % 5 == 0 {
                    let (lo, hi) = if i % 10 == 0 { ("AQU", "FIAM") } else { ("ISK", "TRI") };
                    zones.push(ColumnZone {
                        column: "D.station".into(),
                        min: Value::Text(lo.into()),
                        max: Value::Text(hi.into()),
                    });
                }
                if i % 11 == 0 {
                    // Mixed-family bounds: unlaned, but still prunable
                    // through the min bound (Lt/Le) like the scan.
                    zones.push(ColumnZone {
                        column: "D.m".into(),
                        min: Value::Int(i * 10),
                        max: Value::Float(i as f64 * 10.0 + 5.0),
                    });
                }
                if i % 13 == 0 {
                    // A duplicate zone for D.t: the per-chunk check
                    // consults the first only; the index must too.
                    zones.push(tz(-1_000_000, 1_000_000));
                }
                if i % 17 == 0 {
                    zones.clear(); // unzoned chunks: never pruned
                }
                entry(i, zones)
            })
            .collect();
        ChunkRegistry::new(entries)
    }

    /// The index must agree with the per-chunk linear scan on every
    /// operator and bound placement — including bounds on zone edges,
    /// ranges, point lookups and float-typed constraints.
    #[test]
    fn indexed_candidates_match_linear_scan() {
        let reg = zoned_registry(60);
        let queries: Vec<Vec<ZoneConstraint>> = vec![
            vec![con("D.t", CmpOp::Ge, Value::Time(1_230))],
            vec![con("D.t", CmpOp::Gt, Value::Time(1_299))],
            vec![con("D.t", CmpOp::Lt, Value::Time(500))],
            vec![con("D.t", CmpOp::Le, Value::Time(499))],
            vec![con("D.t", CmpOp::Eq, Value::Time(1_250))],
            vec![con("D.t", CmpOp::Ne, Value::Time(1_250))],
            vec![
                con("D.t", CmpOp::Ge, Value::Time(1_000)),
                con("D.t", CmpOp::Lt, Value::Time(1_400)),
            ],
            // Empty range (lo > hi): only unzoned chunks survive.
            vec![
                con("D.t", CmpOp::Ge, Value::Time(5_000)),
                con("D.t", CmpOp::Lt, Value::Time(4_000)),
            ],
            // Int literal against the Time lane (coerces).
            vec![con("D.t", CmpOp::Ge, Value::Int(5_900))],
            // Float lane, int literal (coerces to float).
            vec![con("D.v", CmpOp::Gt, Value::Int(30))],
            vec![con("D.v", CmpOp::Le, Value::Float(9.25))],
            // Cross-column conjunction.
            vec![
                con("D.t", CmpOp::Ge, Value::Time(900)),
                con("D.v", CmpOp::Ge, Value::Float(10.0)),
            ],
            // Text literal that parses as a timestamp.
            vec![con("D.t", CmpOp::Lt, Value::Text("1970-01-01T00:00:01.000".into()))],
            // Text literal that does not parse: constrains nothing.
            vec![con("D.t", CmpOp::Lt, Value::Text("not-a-time".into()))],
            // Text zones: pruned per entry, exactly like the scan.
            vec![con("D.station", CmpOp::Eq, Value::Text("ZZZ".into()))],
            vec![con("D.station", CmpOp::Ge, Value::Text("GARR".into()))],
            vec![
                con("D.station", CmpOp::Le, Value::Text("FIAM".into())),
                con("D.t", CmpOp::Ge, Value::Time(900)),
            ],
            // Mixed-family zone bounds: the Lt form contradicts through
            // the (Int) min bound alone; the scan and the index agree.
            vec![con("D.m", CmpOp::Lt, Value::Int(100))],
            vec![con("D.m", CmpOp::Gt, Value::Int(200))],
            // Duplicate D.t zones on some chunks: first zone wins in
            // both paths (the wide second zone must not resurrect
            // chunks the first zone contradicts).
            vec![con("D.t", CmpOp::Ge, Value::Time(2_700))],
        ];
        for q in &queries {
            let linear = reg.linear_candidate_positions(q);
            let indexed = reg
                .indexed_candidate_positions(q)
                .unwrap_or_else(|| (0..reg.len() as u32).collect());
            assert_eq!(indexed, linear, "for constraints {q:?}");
        }
    }

    #[test]
    fn unindexed_columns_answer_none() {
        let reg = zoned_registry(10);
        assert!(reg
            .indexed_candidate_positions(&[con("D.other", CmpOp::Ge, Value::Int(1))])
            .is_none());
        assert!(reg.zone_candidates(&[con("D.other", CmpOp::Ge, Value::Int(1))]).is_none());
    }

    #[test]
    fn zone_candidates_collapse_to_all() {
        let reg = zoned_registry(10);
        // A bound below every zone keeps everything → All, no URI set.
        match reg.zone_candidates(&[con("D.t", CmpOp::Ge, Value::Time(-5))]) {
            Some(ZoneCandidates::All) => {}
            other => panic!("expected All, got {other:?}"),
        }
        // A selective bound yields the URI set.
        match reg.zone_candidates(&[con("D.t", CmpOp::Ge, Value::Time(901))]) {
            Some(ZoneCandidates::Uris(uris)) => {
                assert!(uris.contains("u9"));
                assert!(!uris.contains("u8"));
                assert!(uris.contains("u0"), "unzoned chunks always survive");
            }
            other => panic!("expected Uris, got {other:?}"),
        }
    }

    #[test]
    fn empty_registry_index_is_inert() {
        let reg = ChunkRegistry::new(vec![]);
        assert!(reg
            .indexed_candidate_positions(&[con("D.t", CmpOp::Ge, Value::Time(0))])
            .is_none());
        assert!(reg.linear_candidate_positions(&[]).is_empty());
    }
}
