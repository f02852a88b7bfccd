//! Sweeps the optimizer's zone-map chunk pruning pass off vs on across
//! both built-in adapters, reporting decoded chunks/rows/bytes and
//! exact result bits (which must be identical across both settings).
//!
//! Set `SOMM_JSON_OUT=<path>` to additionally record the table as JSON
//! (how `BENCH_optimizer.json` at the workspace root was produced).
fn main() {
    let scale = sommelier_bench::BenchScale::from_env();
    let table =
        sommelier_bench::experiments::optimizer_sweep(&scale).expect("optimizer sweep");
    table.print();
    if let Ok(path) = std::env::var("SOMM_JSON_OUT") {
        std::fs::write(&path, table.to_json()).expect("write JSON baseline");
        eprintln!("wrote {path}");
    }
}
