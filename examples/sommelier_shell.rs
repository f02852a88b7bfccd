//! An interactive shell over a sommelier instance: type SQL against the
//! seismology schema, `EXPLAIN <query>` to see the two-stage plan,
//! `EXPLAIN ANALYZE <query>` to run it and see its span tree,
//! `.stats` for cache/DMd state, `.mode <m>` to re-prepare.
//!
//! ```sh
//! cargo run --release --example sommelier_shell
//! ```

use sommelier_core::{LoadingMode, Metric, Sommelier, SommelierConfig};
use sommelier_mseed::{DatasetSpec, MseedAdapter, Repository};
use std::io::{BufRead, Write};
use std::time::Instant;

fn print_help() {
    println!(
        "commands:\n\
         \x20 <SELECT ...>       run a query (tables F, S, D, H; views dataview,\n\
         \x20                    windowdataview, segview, windowview)\n\
         \x20 EXPLAIN <SELECT>   show the logical plan\n\
         \x20 EXPLAIN ANALYZE <SELECT>  run it; show the plan and its span tree\n\
         \x20 .mode <lazy|eager_plain|eager_index|eager_dmd|eager_csv>  re-prepare\n\
         \x20 .stats             cellar / buffer-pool / DMd state\n\
         \x20 .cold              flush caches (simulate a cold restart)\n\
         \x20 .help              this text\n\
         \x20 .quit              exit\n\
         example:\n\
         \x20 SELECT station, COUNT(*) AS files FROM F GROUP BY station ORDER BY files DESC"
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("sommelier-shell");
    let _ = std::fs::remove_dir_all(&dir);
    let repo_dir = dir.join("repo");
    println!("generating an sf-1 INGV-like repository (160 files) ...");
    let repo = Repository::at(&repo_dir);
    repo.generate(&DatasetSpec::ingv(1, 256))?;

    let mut somm = Sommelier::builder()
        .source(MseedAdapter::new(Repository::at(&repo_dir)))
        .config(SommelierConfig::default())
        .build()?;
    somm.prepare(LoadingMode::Lazy)?;
    println!(
        "prepared lazily: {} chunks registered. Type .help for help.\n",
        somm.registered_chunks()
    );

    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    loop {
        print!("somm> ");
        std::io::stdout().flush()?;
        let Some(Ok(line)) = lines.next() else { break };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let lower = line.to_ascii_lowercase();
        if lower == ".quit" || lower == ".exit" {
            break;
        } else if lower == ".help" {
            print_help();
        } else if lower == ".cold" {
            somm.flush_caches();
            println!("caches flushed.");
        } else if lower == ".stats" {
            let m = somm.metrics();
            println!(
                "mode: {:?}\ncellar: {:?}\ncellar counters: {} hits, {} loads, {} joins, \
                 {} reloads, {} evictions\nbuffer pool: {:?}\nDMd windows covered: {}",
                somm.mode().map(|m| m.label()),
                somm.cellar(),
                m.get(Metric::CellarHits),
                m.get(Metric::CellarLoads),
                m.get(Metric::CellarJoins),
                m.get(Metric::CellarReloads),
                m.get(Metric::CellarEvictions),
                somm.db().pool(),
                somm.dmd_manager().covered_count()
            );
        } else if let Some(rest) = lower.strip_prefix(".mode ") {
            let mode = match rest.trim() {
                "lazy" => LoadingMode::Lazy,
                "eager_plain" => LoadingMode::EagerPlain,
                "eager_index" => LoadingMode::EagerIndex,
                "eager_dmd" => LoadingMode::EagerDmd,
                "eager_csv" => LoadingMode::EagerCsv,
                other => {
                    println!("unknown mode {other:?}");
                    continue;
                }
            };
            // Re-preparing needs a fresh database.
            somm = Sommelier::builder()
                .source(MseedAdapter::new(Repository::at(&repo_dir)))
                .config(SommelierConfig::default())
                .build()?;
            let t = Instant::now();
            somm.prepare(mode)?;
            println!("prepared {} in {:?}", mode.label(), t.elapsed());
        } else if let Some(q) =
            line.strip_prefix("EXPLAIN ").or_else(|| line.strip_prefix("explain "))
        {
            let plan = match q.strip_prefix("ANALYZE ").or_else(|| q.strip_prefix("analyze "))
            {
                Some(q) => somm.explain_analyze(q),
                None => somm.explain(q),
            };
            match plan {
                Ok(plan) => println!("{plan}"),
                Err(e) => println!("error: {e}"),
            }
        } else {
            let t = Instant::now();
            match somm.query(line) {
                Ok(r) => {
                    println!("{}", r.relation.pretty(25));
                    print!(
                        "-- {} rows, {:?} ({}), {} chunks loaded, {} cache hits",
                        r.relation.rows(),
                        t.elapsed(),
                        r.qtype.label(),
                        r.stats.files_loaded,
                        r.stats.cache_hits
                    );
                    if let Some(dmd) = &r.dmd {
                        print!(", DMd derived {}/{}", dmd.missing, dmd.requested);
                    }
                    println!();
                }
                Err(e) => println!("error: {e}"),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
