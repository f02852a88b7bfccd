//! Quickstart: generate a small synthetic seismic repository, register
//! it lazily, and run the paper's Query 1 — watching the two-stage
//! execution load only the chunks it needs.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sommelier_core::{LoadingMode, Sommelier, SommelierConfig};
use sommelier_mseed::{DatasetSpec, MseedAdapter, Repository};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A synthetic INGV-like repository: 4 stations × 40 days = 160
    //    chunk files (the paper's sf-1 structure, scaled-down samples).
    let dir = std::env::temp_dir().join("sommelier-quickstart");
    let _ = std::fs::remove_dir_all(&dir);
    let repo = Repository::at(dir.join("repo"));
    let spec = DatasetSpec::ingv(1, 256);
    println!("generating {} chunk files ...", spec.expected_files());
    let stats = repo.generate(&spec)?;
    println!(
        "  {} files, {} segments, {} samples, {:.1} MiB on disk",
        stats.files,
        stats.segments,
        stats.samples,
        stats.bytes as f64 / (1024.0 * 1024.0)
    );

    // 2. Register lazily: the Registrar extracts only the control
    //    headers (given metadata) — the actual data stays in the files.
    let somm = Sommelier::builder()
        .source(MseedAdapter::new(repo))
        .config(SommelierConfig::default())
        .build()?;
    let report = somm.prepare(LoadingMode::Lazy)?;
    println!(
        "\nregistered in {:?}: F = {} rows, S = {} rows, D = {} rows",
        report.total(),
        somm.db().table_rows("F")?,
        somm.db().table_rows("S")?,
        somm.db().table_rows("D")?,
    );

    // 3. The paper's Query 1: short-term average over a one-hour window
    //    at station ISK. Stage 1 uses metadata to find the one relevant
    //    chunk; stage 2 ingests it and aggregates.
    let sql = "SELECT AVG(D.sample_value) \
               FROM dataview \
               WHERE F.station = 'ISK' AND F.channel = 'BHE' \
               AND D.sample_time > '2010-01-12T22:15:00.000' \
               AND D.sample_time < '2010-01-12T23:15:00.000'";
    println!("\n{}", somm.explain(sql)?);
    let result = somm.query(sql)?;
    println!("result:\n{}", result.relation.pretty(5));
    println!(
        "query type {}: stage1 {:?}, loaded {} of {} registered chunks in {:?}, stage2 {:?}",
        result.qtype.label(),
        result.stats.stage1,
        result.stats.files_loaded,
        somm.registered_chunks(),
        result.stats.load,
        result.stats.stage2,
    );

    // 4. Run it again: the cellar serves the chunk it kept resident.
    let again = somm.query(sql)?;
    println!(
        "again: {} cache hits, {} chunk loads, total {:?}",
        again.stats.cache_hits,
        again.stats.files_loaded,
        again.stats.total()
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
