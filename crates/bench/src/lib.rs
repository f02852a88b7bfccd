//! # sommelier-bench
//!
//! The paper-figure harness: one module per concern, one binary per
//! table or figure of the paper's evaluation (§VI), plus the fault and
//! chaos robustness sweeps. See EXPERIMENTS.md at the workspace root
//! for the experiment ↔ binary index. Performance is measured by the
//! `benchmark/` package, not here.
//!
//! Scale is controlled by environment variables (all optional):
//!
//! | variable | default | meaning |
//! |---|---|---|
//! | `SOMM_SFS` | `1,3` (`1,3,9,27` with `SOMM_FULL=1`) | scale factors to run |
//! | `SOMM_SAMPLES_PER_SEG` | `256` | samples per segment (the scale-down knob) |
//! | `SOMM_DATA_DIR` | `target/sommelier-data` | dataset & scratch-database cache |
//! | `SOMM_RUNS` | `3` | repetitions averaged for hot timings (paper: 3) |
//! | `SOMM_SIM_IO` | `1` | every chunk load sleeps a 2 ms `FaultPlan` latency spike |
//! | `SOMM_POOL_MB` | `64` | buffer-pool budget (MiB) — small enough that big sfs spill |
//! | `SOMM_FULL` | unset | paper-scale defaults (all four sfs, more sweep points) |

pub mod datasets;
pub mod experiments;
pub mod queries;
pub mod report;
pub mod runner;

pub use datasets::{dataset, BenchScale, DatasetKind};
pub use report::Table;
pub use runner::{fresh_system, time_it};
