//! One run of one workload: set up, warm, measure a closed loop for a
//! fixed time, check answers.
//!
//! Everything is measured from outside the program: the harness times
//! calls into public functions and reads public result structs
//! (`ExecStats`, `PassTrace`, `metrics_snapshot()`, `span_trace`).

use crate::fixtures::Rng;
use crate::layers;
use crate::stats::{block_of, block_spread, median, quantile_sorted, supported_tail, BLOCKS};
use crate::trace::{self, BudgetRow, SpanLog};
use crate::verify;
use crate::workloads::{Class, Fixture, Stream, Workload};
use sommelier_core::{LoadingMode, MetricsSnapshot, Priority, QueryResult, Sommelier};
use sommelier_engine::Relation;
use sommelier_server::{Server, Session, SessionOptions};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Times the untraced run sets the system up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

pub struct RunOptions {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub verify_eager: bool,
    /// Set-ups behind the untraced run's `setup_s` (the first is the
    /// measured system's; the traced run sets up once).
    pub setups: usize,
    pub data_dir: PathBuf,
    pub out_dir: PathBuf,
}

/// Worker threads of the system under test, and sessions of the
/// server workload.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(4)
}

/// One reported value. `spread` is the run's own noise floor for it
/// (range over median of the per-block values); `samples` is how many
/// observations the value rests on.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub spread: f64,
    pub samples: usize,
}

pub struct RunReport {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub threads: usize,
    pub clients: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Measured queries whose answer was compared with the serial twin.
    pub verified: usize,
    pub correct: bool,
    pub measured_s: f64,
    pub metrics: Vec<Metric>,
    pub budget: Vec<BudgetRow>,
    pub notes: Vec<String>,
}

// ---------------------------------------------------------------------
// The system under test

pub struct System {
    pub somm: Arc<Sommelier>,
    server: Option<Server>,
}

enum Caller {
    Library(Arc<Sommelier>),
    Session(Session),
}

impl Caller {
    fn call(&self, sql: &str) -> Result<QueryResult, String> {
        match self {
            Caller::Library(somm) => somm.query(sql).map_err(|e| e.to_string()),
            Caller::Session(s) => {
                s.submit(sql).and_then(|h| h.wait()).map_err(|e| e.to_string())
            }
        }
    }
}

impl System {
    /// `Sommelier::builder()` → ready for the first measured query:
    /// build, `prepare(Lazy)`, `Server::new`, warm-up. Returns the
    /// seconds it took; with a span log, also records where they went.
    fn set_up(
        workload: Workload,
        fixture: &Fixture,
        seed: u64,
        traced: bool,
        epoch: Instant,
        mut log: Option<&mut SpanLog>,
    ) -> Result<(System, f64), String> {
        let mut mark = |name: &'static str, from: Instant| {
            if let Some(log) = log.as_deref_mut() {
                log.push(
                    name,
                    ns_since(epoch, from),
                    ns_since(epoch, Instant::now()),
                    None,
                    None,
                );
            }
        };
        let t0 = Instant::now();
        let somm = Sommelier::builder()
            .source_arc(fixture.adapter())
            .config(workload.config(fixture, threads(), traced))
            .build()
            .map_err(|e| format!("build: {e}"))?;
        mark("bench.setup.build", t0);
        let t = Instant::now();
        somm.prepare(LoadingMode::Lazy).map_err(|e| format!("prepare: {e}"))?;
        mark("bench.setup.prepare", t);
        let somm = Arc::new(somm);
        let server = workload.through_server().then(|| Server::new(Arc::clone(&somm)));
        let t = Instant::now();
        for sql in workload.warmup(fixture, seed) {
            if workload.flush_before_query() {
                somm.flush_caches();
            }
            somm.query(&sql).map_err(|e| format!("warm-up: {e}: {sql}"))?;
        }
        mark("bench.warmup", t);
        Ok((System { somm, server }, t0.elapsed().as_secs_f64()))
    }

    fn callers(&self, clients: usize) -> Vec<Caller> {
        (0..clients)
            .map(|c| match &self.server {
                None => Caller::Library(Arc::clone(&self.somm)),
                // Client 0 is the latency-sensitive tenant.
                Some(server) => Caller::Session(server.open_session(SessionOptions {
                    priority: if c == 0 { Priority::High } else { Priority::Normal },
                    ..Default::default()
                })),
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// The measured phase

fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Completion, nanoseconds since the phase started.
    end_ns: u64,
    lat_ns: u64,
    /// Untimed harness work before the query (`flush_caches`).
    pre_ns: u64,
    class: Class,
    client: usize,
}

/// Sums over queries of what the program reports about each.
#[derive(Debug, Clone, Default)]
pub struct Sums {
    pub queries: u64,
    pub lat_ns: u64,
    pub stage1_ns: u64,
    pub load_ns: u64,
    pub stage2_ns: u64,
    pub selected: u64,
    pub pruned: u64,
    pub loaded: u64,
    pub hits: u64,
    pub bytes_loaded: u64,
    pub rows_union: u64,
    pub partial_agg: u64,
    pub evictions: u64,
    pub passes_ns: u64,
    pub zone_pass_ns: u64,
    /// From the program's own span tree (traced runs only).
    pub span_root_ns: u64,
    pub span_load_ns: u64,
    pub span_stage2_ns: u64,
}

impl Sums {
    fn add(&mut self, r: &QueryResult, lat_ns: u64) {
        let s = &r.stats;
        self.queries += 1;
        self.lat_ns += lat_ns;
        self.stage1_ns += s.stage1.as_nanos() as u64;
        self.load_ns += s.load.as_nanos() as u64;
        self.stage2_ns += s.stage2.as_nanos() as u64;
        self.selected += s.files_selected as u64;
        self.pruned += s.files_pruned as u64;
        self.loaded += s.files_loaded as u64;
        self.hits += s.cache_hits as u64;
        self.bytes_loaded += s.bytes_loaded;
        self.rows_union += s.rows_union_materialized;
        self.partial_agg += s.partial_agg_chunks;
        self.evictions += s.cellar_evictions;
        for p in &r.trace {
            self.passes_ns += p.nanos;
            if p.name == "zone_map_pruning" {
                self.zone_pass_ns += p.nanos;
            }
        }
        if let Some(t) = &r.span_trace {
            self.span_root_ns += t.find("query").map_or(0, |s| s.dur_ns);
            self.span_load_ns += t.total_ns("load");
            self.span_stage2_ns += t.total_ns("stage2");
        }
    }

    fn merge(&mut self, o: &Sums) {
        self.queries += o.queries;
        self.lat_ns += o.lat_ns;
        self.stage1_ns += o.stage1_ns;
        self.load_ns += o.load_ns;
        self.stage2_ns += o.stage2_ns;
        self.selected += o.selected;
        self.pruned += o.pruned;
        self.loaded += o.loaded;
        self.hits += o.hits;
        self.bytes_loaded += o.bytes_loaded;
        self.rows_union += o.rows_union;
        self.partial_agg += o.partial_agg;
        self.evictions += o.evictions;
        self.passes_ns += o.passes_ns;
        self.zone_pass_ns += o.zone_pass_ns;
        self.span_root_ns += o.span_root_ns;
        self.span_load_ns += o.span_load_ns;
        self.span_stage2_ns += o.span_stage2_ns;
    }
}

#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    sums: Sums,
    /// Sums over the count window (client 0's first queries).
    window: Sums,
    /// Answers of sampled queries, checked after the phase.
    stash: Vec<(usize, Relation)>,
    failed: u64,
    first_errors: Vec<String>,
    spans: SpanLog,
}

pub struct Phase {
    samples: Vec<Sample>,
    pub sums: Sums,
    pub window: Sums,
    stash: Vec<(usize, Relation)>,
    pub failed: u64,
    first_errors: Vec<String>,
    pub spans: SpanLog,
    /// Nominal length the clients were given.
    phase_ns: u64,
    /// Phase start to the last completion.
    pub wall_ns: u64,
    /// Process CPU time at the phase start, at the four inner block
    /// boundaries, and after the last completion.
    cpu_ms: [f64; BLOCKS + 1],
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
    pub clients: usize,
}

struct ClientPlan<'a> {
    workload: Workload,
    client: usize,
    seconds: f64,
    traced: bool,
    epoch: Instant,
    sample_slots: &'a HashMap<String, usize>,
}

/// One closed-loop client: the next query is sent only after the
/// previous answer arrived.
fn client_loop(
    plan: &ClientPlan<'_>,
    caller: &Caller,
    somm: &Sommelier,
    mut stream: Stream,
    start: &Barrier,
) -> ClientLog {
    let mut log = ClientLog { spans: SpanLog::for_client(plan.client), ..Default::default() };
    let window = if plan.client == 0 { plan.workload.count_window() as u64 } else { 0 };
    start.wait();
    let begin = Instant::now();
    let deadline = begin + Duration::from_secs_f64(plan.seconds);
    loop {
        let query = stream.next_query();
        let t_pre = Instant::now();
        if t_pre >= deadline {
            break;
        }
        if plan.workload.flush_before_query() {
            somm.flush_caches();
        }
        let t0 = Instant::now();
        let result = caller.call(&query.sql);
        let t1 = Instant::now();
        let lat_ns = (t1 - t0).as_nanos() as u64;
        log.samples.push(Sample {
            end_ns: ns_since(plan.epoch, t1),
            lat_ns,
            pre_ns: (t0 - t_pre).as_nanos() as u64,
            class: query.class,
            client: plan.client,
        });
        let problem = match &result {
            Err(e) => Some(format!("error: {e}")),
            Ok(r) if r.degraded.is_some() => Some("degraded answer".to_string()),
            Ok(r) if !r.stats.accounting_balanced() => {
                Some("unbalanced chunk accounting".into())
            }
            Ok(_) => None,
        };
        if let Some(p) = problem {
            log.failed += 1;
            if log.first_errors.len() < 3 {
                log.first_errors.push(format!("{p}: {}", query.sql));
            }
        }
        let Ok(result) = result else { continue };
        log.sums.add(&result, lat_ns);
        if log.sums.queries <= window {
            log.window.add(&result, lat_ns);
        }
        if plan.traced {
            let id = log.samples.len() as u32 - 1;
            let span = log.spans.push(
                "bench.query",
                ns_since(plan.epoch, t0),
                ns_since(plan.epoch, t1),
                None,
                Some(id),
            );
            if let Some(tree) = &result.span_trace {
                log.spans.import_program(tree, span, id);
            }
        }
        if let Some(&slot) = plan.sample_slots.get(&query.sql) {
            log.stash.push((slot, result.relation));
        }
    }
    log
}

/// Milliseconds of CPU (user + system, all threads) this process has
/// used. `/proc/self/stat` counts in clock ticks; Linux's `USER_HZ` is
/// 100 on every supported architecture.
fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<f64>().ok()).unwrap_or(f64::NAN);
    (tick() + tick()) * 10.0
}

/// The process's resident-set high-water mark (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.split_whitespace().next()?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn measure(
    opts: &RunOptions,
    system: &System,
    fixture: &Fixture,
    sample_slots: &HashMap<String, usize>,
    epoch: Instant,
) -> Phase {
    let clients = opts.workload.clients(threads());
    let callers = system.callers(clients);
    let start = Barrier::new(clients + 1);
    let before = system.somm.metrics_snapshot();
    let mut cpu = [0.0; BLOCKS + 1];
    let mut phase_start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .iter()
            .enumerate()
            .map(|(client, caller)| {
                let plan = ClientPlan {
                    workload: opts.workload,
                    client,
                    seconds: opts.seconds,
                    traced: opts.traced,
                    epoch,
                    sample_slots,
                };
                let stream = Stream::new(opts.workload, fixture, opts.seed, client);
                let (somm, start) = (&system.somm, &start);
                scope.spawn(move || client_loop(&plan, caller, somm, stream, start))
            })
            .collect();
        // The coordinator only wakes at block boundaries to read the
        // process's CPU time.
        start.wait();
        phase_start = Instant::now();
        cpu[0] = cpu_ms();
        for (k, reading) in cpu.iter_mut().enumerate().take(BLOCKS).skip(1) {
            let boundary = phase_start
                + Duration::from_secs_f64(opts.seconds * k as f64 / BLOCKS as f64);
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            *reading = cpu_ms();
        }
        let logs =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        // Queries in flight at the deadline finish inside the last block.
        cpu[BLOCKS] = cpu_ms();
        logs
    });
    let after = system.somm.metrics_snapshot();
    let start_ns = ns_since(epoch, phase_start);
    let mut phase = Phase {
        samples: Vec::new(),
        sums: Sums::default(),
        window: Sums::default(),
        stash: Vec::new(),
        failed: 0,
        first_errors: Vec::new(),
        spans: SpanLog::default(),
        phase_ns: (opts.seconds * 1e9) as u64,
        wall_ns: 0,
        cpu_ms: cpu,
        before,
        after,
        clients,
    };
    for log in logs {
        phase.samples.extend(
            log.samples
                .iter()
                .map(|s| Sample { end_ns: s.end_ns.saturating_sub(start_ns), ..*s }),
        );
        phase.sums.merge(&log.sums);
        phase.window.merge(&log.window);
        phase.stash.extend(log.stash);
        phase.failed += log.failed;
        phase.first_errors.extend(log.first_errors);
        phase.spans.merge(log.spans);
    }
    phase.wall_ns =
        phase.samples.iter().map(|s| s.end_ns).max().unwrap_or(0).max(phase.phase_ns);
    phase
}

// ---------------------------------------------------------------------
// End-to-end metrics

fn latencies_ms(samples: &[&Sample]) -> Vec<f64> {
    let mut v: Vec<f64> = samples.iter().map(|s| s.lat_ns as f64 / 1e6).collect();
    v.sort_by(f64::total_cmp);
    v
}

impl Phase {
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Seconds the clients spent in the closed loop proper: the wall
    /// minus the untimed harness work (`flush_caches`) between queries.
    pub fn busy_s(&self) -> f64 {
        let pre: u64 = self.samples.iter().map(|s| s.pre_ns).sum();
        (self.wall_ns as f64 - pre as f64 / self.clients as f64) / 1e9
    }

    fn blocks(&self) -> [Vec<&Sample>; BLOCKS] {
        let mut blocks: [Vec<&Sample>; BLOCKS] = Default::default();
        for s in &self.samples {
            blocks[block_of(s.end_ns, self.phase_ns)].push(s);
        }
        blocks
    }

    fn block_seconds(&self, k: usize, samples: &[&Sample]) -> f64 {
        let width = self.phase_ns / BLOCKS as u64;
        let nominal =
            if k + 1 < BLOCKS { width } else { self.wall_ns - width * (BLOCKS as u64 - 1) };
        let pre: u64 = samples.iter().map(|s| s.pre_ns).sum();
        (nominal as f64 - pre as f64 / self.clients as f64) / 1e9
    }

    /// The tail percentile this run's sample count supports (p95 when
    /// at least ten samples lie beyond it).
    pub fn tail(&self) -> f64 {
        supported_tail(self.samples.len(), 0.95)
    }

    /// The `q`-quantile of latency in ms, over one class and/or one
    /// client when given.
    pub fn latency_ms(&self, q: f64, class: Option<Class>, client: Option<usize>) -> f64 {
        let picked: Vec<&Sample> = self
            .samples
            .iter()
            .filter(|s| {
                class.is_none_or(|c| s.class == c) && client.is_none_or(|c| s.client == c)
            })
            .collect();
        quantile_sorted(&latencies_ms(&picked), q)
    }

    /// Throughput, latency and CPU per query. Each value is the median
    /// of the five per-block values, which a stall in one block cannot
    /// move; the spread of the same five values is the noise floor.
    fn end_to_end(&self) -> Vec<Metric> {
        let blocks = self.blocks();
        let tail = self.tail();
        let per_block = |f: &dyn Fn(usize, &[&Sample]) -> f64| -> Vec<f64> {
            blocks
                .iter()
                .enumerate()
                .map(|(k, b)| if b.is_empty() { f64::NAN } else { f(k, b) })
                .collect()
        };
        let n = self.samples.len();
        let metric = |name, unit, per_block: Vec<f64>| {
            let finite: Vec<f64> =
                per_block.iter().copied().filter(|v| v.is_finite()).collect();
            Metric {
                name,
                unit,
                value: median(&finite),
                spread: block_spread(&per_block),
                samples: n,
            }
        };
        vec![
            metric(
                "throughput_qps",
                "1/s",
                per_block(&|k, b| b.len() as f64 / self.block_seconds(k, b)),
            ),
            metric(
                "query_p50_ms",
                "ms",
                per_block(&|_, b| quantile_sorted(&latencies_ms(b), 0.5)),
            ),
            metric(
                "query_p95_ms",
                "ms",
                per_block(&|_, b| quantile_sorted(&latencies_ms(b), tail)),
            ),
            metric(
                "cpu_ms_per_query",
                "ms",
                per_block(&|k, b| (self.cpu_ms[k + 1] - self.cpu_ms[k]) / b.len() as f64),
            ),
        ]
    }
}

// ---------------------------------------------------------------------
// One run

pub fn run(opts: &RunOptions) -> Result<RunReport, String> {
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let epoch = Instant::now();
    let mut lap = epoch;
    let mut laps = Vec::new();
    let mut lap_done = |what: &str| {
        laps.push(format!("{what} {:.2} s", lap.elapsed().as_secs_f64()));
        lap = Instant::now();
    };
    let workload = opts.workload;
    let fixture = workload.fixture(&opts.data_dir, opts.seed)?;
    lap_done("fixture");
    let sample = verify::sample_texts(workload, &fixture, opts.seed);
    let sample_slots: HashMap<String, usize> =
        sample.iter().enumerate().map(|(i, s)| (s.clone(), i)).collect();
    let mut notes = Vec::new();
    let mut setup_log = SpanLog::default();

    // The measured system is the first thing this process builds, so
    // the resident-set high-water mark read after the phase belongs to
    // one set-up, one warm-up and one measured phase.
    let set_up = |log: Option<&mut SpanLog>| {
        System::set_up(workload, &fixture, opts.seed, opts.traced, epoch, log)
    };
    let (system, first_setup_s) = set_up(opts.traced.then_some(&mut setup_log))?;
    lap_done("set-up");
    let mut phase = measure(opts, &system, &fixture, &sample_slots, epoch);
    let peak_rss_mb = peak_rss_mb();
    lap_done("measured phase");

    let mut metrics = Vec::new();
    let mut budget = Vec::new();
    if opts.traced {
        let mut spans = std::mem::take(&mut setup_log);
        spans.merge(std::mem::take(&mut phase.spans));
        let layer_metrics = layers::per_layer(
            opts, &system, &fixture, &phase, epoch, &mut spans, &mut notes,
        )?;
        metrics.extend(layer_metrics);
        budget = trace::budget(&spans.spans);
        std::fs::create_dir_all(&opts.out_dir).map_err(|e| e.to_string())?;
        let path = opts.out_dir.join(format!("trace-{}.jsonl", workload.name()));
        trace::write_jsonl(&path, &spans.spans)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!("{} spans written to {}", spans.spans.len(), path.display()));
        drop(system);
        lap_done("layer replay");
    } else {
        // `setup_s` is the median of several set-ups; the others are
        // made, and dropped, on fresh systems now.
        drop(system);
        let mut setups = vec![first_setup_s];
        for _ in 1..opts.setups.max(1) {
            setups.push(set_up(None)?.1);
        }
        lap_done("further set-ups");
        metrics.extend(phase.end_to_end());
        // One high-water mark and three set-ups per run: neither has a
        // per-block spread, their noise floor shows only across runs.
        metrics.push(Metric {
            name: "peak_rss_mb",
            unit: "MB",
            value: peak_rss_mb,
            spread: f64::NAN,
            samples: 1,
        });
        metrics.push(Metric {
            name: "setup_s",
            unit: "s",
            value: median(&setups),
            spread: f64::NAN,
            samples: setups.len(),
        });
    }
    if phase.tail() < 0.95 {
        notes.push(format!(
            "only {} samples: the reported tail is p{:.1}, the highest with ten beyond it",
            phase.attempted(),
            phase.tail() * 100.0
        ));
    }

    // Answers, after every measurement is taken: the twin's memory and
    // CPU must not show up in the numbers above.
    let stash = std::mem::take(&mut phase.stash);
    let expected = verify::serial_answers(&fixture, &sample)?;
    let mut wrong = 0u64;
    for (slot, got) in &stash {
        if let Some(diff) = verify::difference(got, &expected[*slot]) {
            wrong += 1;
            if wrong <= 3 {
                notes.push(format!("WRONG ANSWER ({diff}): {}", sample[*slot]));
            }
        }
    }
    if opts.verify_eager {
        let mut picks: Vec<usize> = (0..sample.len()).collect();
        Rng::derive(opts.seed, "verify-eager").shuffle(&mut picks);
        picks.truncate(verify::EAGER_SAMPLE);
        let texts: Vec<String> = picks.iter().map(|&i| sample[i].clone()).collect();
        let (eager, load_s) = verify::eager_answers(&fixture, &texts, threads())?;
        for (i, got) in picks.iter().zip(&eager) {
            if let Some(diff) = verify::difference(got, &expected[*i]) {
                wrong += 1;
                notes.push(format!("LAZY != EAGER ({diff}): {}", sample[*i]));
            }
        }
        notes.push(format!(
            "storage.eager_load_s = {load_s:.3} s; {} lazy answers re-checked on the eager twin",
            picks.len()
        ));
    }
    lap_done("answer check");
    notes.push(format!("where the run's time went: {}", laps.join(", ")));
    for e in &phase.first_errors {
        notes.push(format!("FAILED {e}"));
    }
    let failed = phase.failed + wrong;
    if stash.is_empty() {
        notes.push("no sampled query was reached: answers unverified".to_string());
    }
    Ok(RunReport {
        workload,
        seed: opts.seed,
        seconds: opts.seconds,
        traced: opts.traced,
        threads: threads(),
        clients: phase.clients,
        attempted: phase.attempted(),
        failed,
        verified: stash.len(),
        correct: failed == 0 && !stash.is_empty(),
        measured_s: phase.wall_ns as f64 / 1e9,
        metrics,
        budget,
        notes,
    })
}
