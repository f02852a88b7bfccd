//! Runs the full experiment suite (every table and figure of §VI).
fn main() {
    let scale = sommelier_bench::BenchScale::from_env();
    println!("# sommelier experiment suite\n# scale: {scale:?}\n");
    sommelier_bench::experiments::table2(&scale).print();
    let (t3, f6) =
        sommelier_bench::experiments::table3_and_fig6(&scale).expect("table3/fig6");
    t3.print();
    f6.print();
    sommelier_bench::experiments::fig7(&scale).expect("fig7").print();
    sommelier_bench::experiments::fig8(&scale).expect("fig8").print();
    sommelier_bench::experiments::fig9(&scale).expect("fig9").print();
    sommelier_bench::experiments::fault_sweep(&scale).expect("fault sweep").print();
}
