//! Built-in source adapters.
//!
//! The flagship seismology adapter lives with its binary format in
//! the paper-scenario crate; this module holds small adapters
//! with no format dependencies — currently [`EventLogAdapter`], a
//! CSV/event-log source that doubles as the proof that the
//! [`crate::source::SourceAdapter`] abstraction is format-agnostic.

pub mod eventlog;

pub use eventlog::{
    generate_event_logs, value_stats_midpoint, write_log_file, EventLogAdapter, EventLogSpec,
};
