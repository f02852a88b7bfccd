//! Sweeps the cellar's residency budget (100 %/50 %/10 % of the
//! workload's decoded bytes) under a repeated sliding-window workload
//! and reports hit/evict/reload counts alongside wall-clock time.
fn main() {
    let scale = sommelier_bench::BenchScale::from_env();
    sommelier_bench::experiments::cellar_sweep(&scale).expect("cellar sweep").print();
}
