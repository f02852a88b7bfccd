//! # sommelier-storage
//!
//! Columnar storage substrate for the `sommelier` partial-loading-aware
//! DBMS (a reproduction of *"The DBMS – your Big Data Sommelier"*,
//! ICDE 2015).
//!
//! This crate plays the role MonetDB's kernel plays in the paper: it
//! stores relational tables column-wise, both memory-resident and as
//! paged files on disk behind a byte-budgeted [`buffer::BufferPool`],
//! and offers primary-key hash indices and foreign-key join indices
//! (the paper's *eager index* loading variant materializes the latter).
//!
//! The design is deliberately append-only: the paper's workload
//! (scientific sensor-data ingestion + analytics) never updates rows in
//! place, and the paper itself argues (§VI-A) that all key constraints
//! are on system-generated keys.
//!
//! Modules:
//! * [`value`] / [`time`] — scalar values, types, civil-time conversion.
//! * [`mod@column`] — typed in-memory column vectors with dictionary-encoded
//!   text.
//! * [`page`] / [`colfile`] / [`buffer`] — the paged on-disk
//!   representation and the buffer pool (with optional simulated I/O
//!   latency so that scaled-down datasets reproduce the paper's
//!   "does-not-fit-in-RAM" regimes).
//! * [`schema`] / [`catalog`] / [`table`] / [`db`] — table metadata, the
//!   persisted catalog, and the database façade.
//! * [`index`] — PK hash indices and FK join indices.
//! * [`order`] — the primary-key row order metadata tables keep, and
//!   the comparisons readers binary-search it with.
//! * [`sync`] — the one lock-poison policy, [`sync::unpoison`].
//! * [`rng`] / [`tempdir`] — the one seeded generator (the dataset
//!   generators' and the tests'), the property-case runner, and the
//!   tests' scratch-directory guard.

pub mod buffer;
pub mod catalog;
pub mod colfile;
pub mod column;
pub mod db;
pub mod error;
pub mod index;
pub mod order;
pub mod page;
pub mod rng;
pub mod schema;
pub mod sync;
pub mod table;
pub mod tempdir;
pub mod time;
pub mod value;

pub use buffer::{BufferPool, BufferPoolConfig, PoolStats};
pub use catalog::Catalog;
pub use column::{ColumnData, TextColumn};
pub use db::{ConstraintPolicy, Database, SharedScan};
pub use error::{classify_io, ErrorKind, Result, StorageError};
pub use schema::{ColumnDef, ForeignKey, TableClass, TableSchema};
pub use table::{RowOrder, Table};
pub use value::{DataType, Value};
