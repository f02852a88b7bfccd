//! Reference decoders: the oracle the decode-equivalence tests hold the
//! production adapters' single-pass decode against. Each wrapper
//! registers, describes and sizes its source through the production
//! adapter it holds, and decodes a chunk the plain way — per-segment
//! relations and unions for mSEED, unsized vectors over an owned file
//! text for event logs. Answers must be byte-identical either way.

use sommelier_core::adapters::EventLogAdapter;
use sommelier_core::chunks::FileEntry;
use sommelier_core::source::{empty_ad_relation, SourceAdapter, SourceDescriptor};
use sommelier_core::Result;
use sommelier_engine::{EngineError, Relation, SchedPolicy};
use sommelier_mseed::{MseedAdapter, SegmentData};
use sommelier_storage::{ColumnData, Database};
use std::path::Path;

/// Whether `col` is materialized under `projection` (all columns when
/// there is none).
fn wanted(projection: Option<&[String]>, col: &str) -> bool {
    projection.is_none_or(|p| p.iter().any(|c| c == col))
}

/// [`MseedAdapter`] with the reference decode; `.0` is the production
/// adapter.
pub struct ReferenceMseed(pub MseedAdapter);

impl SourceAdapter for ReferenceMseed {
    fn descriptor(&self) -> &SourceDescriptor {
        self.0.descriptor()
    }

    fn register(&self, db: &Database, policy: &SchedPolicy) -> Result<Vec<FileEntry>> {
        self.0.register(db, policy)
    }

    /// One relation per segment, unioned into the output — O(segments)
    /// column re-copies per chunk.
    fn decode(
        &self,
        entry: &FileEntry,
        projection: Option<&[String]>,
    ) -> sommelier_engine::Result<Relation> {
        let file = sommelier_mseed::read_full(Path::new(&entry.uri))
            .map_err(|e| EngineError::Chunk(e.to_string()))?;
        let mut out = Relation::empty();
        for (k, seg) in file.segments.iter().enumerate() {
            let rel =
                segment_relation(entry.file_id, entry.seg_base + k as i64, seg, projection);
            out.union_in_place(&rel)?;
        }
        if out.width() == 0 {
            // Zero-segment chunk: produce an empty D-shaped relation.
            out = empty_ad_relation(self.descriptor(), projection)?;
        }
        Ok(out)
    }

    fn source_bytes(&self) -> Result<u64> {
        self.0.source_bytes()
    }
}

/// The D-schema relation of one decoded segment, materializing only the
/// projected columns.
fn segment_relation(
    file_id: i64,
    seg_id: i64,
    seg: &SegmentData,
    projection: Option<&[String]>,
) -> Relation {
    let n = seg.samples.len();
    let mut cols: Vec<(String, ColumnData)> = Vec::with_capacity(4);
    if wanted(projection, "D.file_id") {
        cols.push(("D.file_id".into(), ColumnData::Int64(vec![file_id; n])));
    }
    if wanted(projection, "D.seg_id") {
        cols.push(("D.seg_id".into(), ColumnData::Int64(vec![seg_id; n])));
    }
    if wanted(projection, "D.sample_time") {
        let times: Vec<i64> = (0..n as u32).map(|i| seg.meta.sample_time(i)).collect();
        cols.push(("D.sample_time".into(), ColumnData::Timestamp(times)));
    }
    if wanted(projection, "D.sample_value") {
        let values: Vec<f64> = seg.samples.iter().map(|&v| v as f64).collect();
        cols.push(("D.sample_value".into(), ColumnData::Float64(values)));
    }
    Relation::new(cols).expect("columns are aligned by construction")
}

/// [`EventLogAdapter`] with the reference decode; `.0` is the
/// production adapter.
pub struct ReferenceEventLog(pub EventLogAdapter);

impl SourceAdapter for ReferenceEventLog {
    fn descriptor(&self) -> &SourceDescriptor {
        self.0.descriptor()
    }

    fn register(&self, db: &Database, policy: &SchedPolicy) -> Result<Vec<FileEntry>> {
        self.0.register(db, policy)
    }

    /// A per-chunk allocation of the file text and unsized column
    /// vectors.
    fn decode(
        &self,
        entry: &FileEntry,
        projection: Option<&[String]>,
    ) -> sommelier_engine::Result<Relation> {
        let (want_id, want_ts, want_val) = (
            wanted(projection, "E.log_id"),
            wanted(projection, "E.ts"),
            wanted(projection, "E.val"),
        );
        let text = std::fs::read_to_string(&entry.uri)
            .map_err(|e| EngineError::Chunk(format!("reading {}: {e}", entry.uri)))?;
        let mut ids = Vec::new();
        let mut ts = Vec::new();
        let mut vals = Vec::new();
        for line in text.lines().skip(1) {
            if line.is_empty() {
                continue;
            }
            let bad =
                || EngineError::Chunk(format!("malformed event {line:?} in {}", entry.uri));
            let (t, v) = line.split_once(',').ok_or_else(bad)?;
            let t = t.parse::<i64>().map_err(|_| bad())?;
            let v = v.parse::<f64>().map_err(|_| bad())?;
            if want_id {
                ids.push(entry.file_id);
            }
            if want_ts {
                ts.push(t);
            }
            if want_val {
                vals.push(v);
            }
        }
        let mut cols: Vec<(String, ColumnData)> = Vec::new();
        if want_id {
            cols.push(("E.log_id".into(), ColumnData::Int64(ids)));
        }
        if want_ts {
            cols.push(("E.ts".into(), ColumnData::Timestamp(ts)));
        }
        if want_val {
            cols.push(("E.val".into(), ColumnData::Float64(vals)));
        }
        Relation::new(cols)
    }

    fn source_bytes(&self) -> Result<u64> {
        self.0.source_bytes()
    }
}
