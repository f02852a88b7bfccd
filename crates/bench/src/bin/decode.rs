//! Sweeps the decode hot path: the single-pass arena-backed chunk
//! decode vs the retained reference decode on T4/T5 (sf-1, caches
//! flushed before every run, 1 worker, simulated I/O off), and indexed vs linear stage-1
//! candidate selection over the `sf-reg` headers-only registry
//! (`SOMM_REG_CHUNKS`, default 100 000 chunks). `result_bits` must be
//! identical across the decode variants of each query.
//!
//! Set `SOMM_JSON_OUT=<path>` to additionally record the table as JSON
//! (how `BENCH_decode.json` at the workspace root was produced).
fn main() {
    let scale = sommelier_bench::BenchScale::from_env();
    let table = sommelier_bench::experiments::decode_hotpath(&scale).expect("decode sweep");
    table.print();
    if let Ok(path) = std::env::var("SOMM_JSON_OUT") {
        std::fs::write(&path, table.to_json()).expect("write JSON baseline");
        eprintln!("wrote {path}");
    }
}
