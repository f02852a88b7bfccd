//! The Registrar (§V.1): eager ingestion of *given metadata*.
//!
//! When a source is registered, its adapter iterates over the
//! repository's chunk files, extracts the control headers (never
//! touching the payloads) and bulk-loads the source's given-metadata
//! tables. This is the entire up-front cost of the paper's lazy
//! variant — "extracting only the metadata is orders of magnitude
//! faster than extracting and loading all data" (§VI-B).
//!
//! The format-specific scan lives in
//! [`crate::source::SourceAdapter::register`]; this module only times
//! it and assembles the chunk registry.

use crate::chunks::ChunkRegistry;
use crate::error::Result;
use crate::source::SourceAdapter;
use sommelier_engine::{MorselScheduler, SchedPolicy};
use sommelier_storage::Database;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Registration outcome.
#[derive(Debug, Clone, Default)]
pub struct RegistrarReport {
    /// Chunk files registered.
    pub files: u64,
    /// Sub-units (e.g. mSEED segments) registered.
    pub segments: u64,
    pub duration: Duration,
}

/// Register one source into `db`: the adapter extracts headers on
/// `policy`'s pool, assigns system keys and bulk-loads its
/// given-metadata tables; we time it and build the chunk registry.
pub fn register(
    db: &Database,
    adapter: &dyn SourceAdapter,
    policy: &SchedPolicy,
) -> Result<(ChunkRegistry, RegistrarReport)> {
    let t0 = Instant::now();
    let entries = adapter.register(db, policy)?;
    let report = RegistrarReport {
        files: entries.len() as u64,
        segments: entries.iter().map(|e| e.seg_count as u64).sum(),
        duration: t0.elapsed(),
    };
    Ok((ChunkRegistry::new(entries), report))
}

/// [`register`] for a caller without a system to borrow a pool from:
/// the header scan runs on a pool of `max_threads` workers that lives
/// for this call only (inline when `max_threads <= 1`).
/// [`crate::Sommelier::prepare`] registers on the system's own pool.
pub fn register_source(
    db: &Database,
    adapter: &dyn SourceAdapter,
    max_threads: usize,
) -> Result<(ChunkRegistry, RegistrarReport)> {
    let pool = (max_threads > 1)
        .then(|| Arc::new(MorselScheduler::new(max_threads, Default::default())));
    register(db, adapter, &SchedPolicy::default().with_scheduler(pool))
}
