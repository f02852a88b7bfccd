//! The sommelier benchmark: four workloads, end-to-end and per-layer
//! metrics, one instrument for every later change. See README.md.
//!
//! ```text
//! benchmark run --workload W --seed N --seconds S --trace 0|1 [--verify-eager]
//! benchmark suite [--seed N] [--seconds S] [--traced] [--quick] [--verify-eager]
//! benchmark compare A.json B.json [--manifest BENCHMARK.json]
//! benchmark manifest
//! ```

mod compare;
mod fixtures;
mod harness;
mod json;
mod layers;
mod metrics;
mod report;
mod stats;
mod trace;
mod verify;
mod workloads;

use harness::RunOptions;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

/// `--key value` pairs, bare `--flag`s and positional arguments.
struct Args {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
    positional: Vec<String>,
}

const FLAGS: [&str; 3] = ["--traced", "--quick", "--verify-eager"];

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args { pairs: Vec::new(), flags: Vec::new(), positional: Vec::new() };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if FLAGS.contains(&a.as_str()) {
                args.flags.push(a.clone());
            } else if let Some(key) = a.strip_prefix("--") {
                let value = it.next().ok_or(format!("--{key} needs a value"))?;
                args.pairs.push((key.to_string(), value.clone()));
            } else {
                args.positional.push(a.clone());
            }
        }
        Ok(args)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot read {v:?}")),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Fixtures live beside the build (`<target>/benchmark-data`), so a
    /// checkout is self-contained and `cargo clean` removes them.
    fn data_dir(&self) -> Result<PathBuf, String> {
        if let Some(dir) = self.get("data-dir") {
            return Ok(PathBuf::from(dir));
        }
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let target =
            exe.parent().and_then(|p| p.parent()).ok_or("binary outside a target dir")?;
        Ok(target.join("benchmark-data"))
    }

    fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.get("out-dir").unwrap_or("benchmark/out"))
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let name = args.get("workload").ok_or("run needs --workload")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?;
    let opts = RunOptions {
        workload,
        seed: args.num("seed", 1)?,
        seconds: args.num("seconds", metrics::RUN_SECONDS as f64)?,
        traced: args.num::<u8>("trace", 0)? != 0,
        verify_eager: args.flag("--verify-eager"),
        setups: args.num("setups", harness::SETUP_REPEATS)?,
        data_dir: args.data_dir()?,
        out_dir: args.out_dir(),
    };
    let result = harness::run(&opts)?;
    report::print_run(&result);
    let file = format!("run-{}-trace{}.json", workload.name(), opts.traced as u8);
    report::write(&opts.out_dir.join(file), &report::result_json(&result))?;
    println!("{}", report::driver_line(&result));
    Ok(true)
}

/// Every workload in its own process, untraced, then (with `--traced`)
/// traced; the per-run files are merged into one result.
fn suite(args: &Args) -> Result<bool, String> {
    let seed: u64 = args.num("seed", 1)?;
    let quick = args.flag("--quick");
    // The smoke mode runs a twentieth of the work and sets up once.
    let default_seconds = metrics::RUN_SECONDS as f64 / if quick { 20.0 } else { 1.0 };
    let seconds: f64 = args.num("seconds", default_seconds)?;
    let out_dir = args.out_dir();
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut merged: Option<json::Json> = None;
    let mut all_correct = true;
    for workload in workloads::ALL {
        for trace in 0..=(args.flag("--traced") as u8) {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["run", "--workload", workload.name()])
                .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
                .args(["--trace", &trace.to_string()])
                .args([
                    "--setups",
                    &if quick { 1 } else { harness::SETUP_REPEATS }.to_string(),
                ])
                .arg("--data-dir")
                .arg(args.data_dir()?)
                .arg("--out-dir")
                .arg(&out_dir);
            if args.flag("--verify-eager") {
                cmd.arg("--verify-eager");
            }
            let status =
                cmd.status().map_err(|e| format!("starting {}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!("{} (trace {trace}) did not complete", workload.name()));
            }
            let file = out_dir.join(format!("run-{}-trace{trace}.json", workload.name()));
            let result = report::read(&file)?;
            let run_key = if trace == 1 { "traced_run" } else { "run" };
            all_correct &= result
                .get("workloads")
                .and_then(|w| w.get(workload.name())?.get(run_key)?.get("correct"))
                == Some(&json::Json::Bool(true));
            match &mut merged {
                None => merged = Some(result),
                Some(m) => report::merge_results(m, &result),
            }
        }
    }
    let merged = merged.expect("four workloads ran");
    if let Some(workloads) = merged.get("workloads").and_then(json::Json::as_obj) {
        for (name, entry) in workloads {
            let value = |section: &str, metric: &str| {
                entry.get(section)?.get(metric)?.get("value")?.as_f64()
            };
            if let (Some(plain), Some(traced)) =
                (value("end_to_end", "throughput_qps"), value("per_layer", "obs.traced_qps"))
            {
                println!(
                    "{name}: obs.tracing_overhead_pct = {:.2} % (traced {traced:.1} vs {plain:.1} 1/s)",
                    100.0 * (1.0 - traced / plain)
                );
            }
        }
    }
    let path = out_dir.join(format!("result-seed{seed}.json"));
    report::write(&path, &merged)?;
    println!("result written to {}", path.display());
    Ok(all_correct)
}

fn compare_cmd(args: &Args) -> Result<bool, String> {
    let [a, b] = &args.positional[..] else {
        return Err("compare needs two result files".into());
    };
    let manifest = report::read(args.get("manifest").unwrap_or("BENCHMARK.json").as_ref())?;
    let rows =
        compare::compare(&report::read(a.as_ref())?, &report::read(b.as_ref())?, &manifest)?;
    Ok(!compare::print(&rows))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match raw.split_first() {
        Some((cmd, rest)) => Args::parse(rest).and_then(|args| match cmd.as_str() {
            "run" => run(&args),
            "suite" => suite(&args),
            "compare" => compare_cmd(&args),
            "manifest" => {
                println!("{}", metrics::manifest(metrics::RUN_SECONDS).render());
                Ok(true)
            }
            other => Err(format!("unknown command {other:?}")),
        }),
        None => Err("usage: benchmark run|suite|compare|manifest (see README.md)".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
