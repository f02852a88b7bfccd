//! Observability overhead sweep: T4/T5 under the decode-bound
//! configuration (FIAM sf-1, cold cellar, 1 worker, simulated I/O
//! off) at each observability level. `Off` is the baseline row per
//! query; `Counters` — the default level — must stay within noise,
//! and `result_bits` must be byte-identical across levels.
//!
//! Set `SOMM_JSON_OUT=<path>` to additionally record the table as JSON
//! (how `BENCH_obs.json` at the workspace root was produced).
fn main() {
    let scale = sommelier_bench::BenchScale::from_env();
    let table = sommelier_bench::experiments::obs_overhead(&scale).expect("obs sweep");
    table.print();
    if let Ok(path) = std::env::var("SOMM_JSON_OUT") {
        std::fs::write(&path, table.to_json()).expect("write JSON baseline");
        eprintln!("wrote {path}");
    }
}
