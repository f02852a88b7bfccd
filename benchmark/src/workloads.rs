//! The four workloads: what each system looks like, how it is warmed,
//! and the seeded stream of SQL text each client sends.
//!
//! Every workload runs the shipping configuration
//! (`SommelierConfig::default()`) except for the fields set in
//! [`Workload::config`]; `sim_io`, `sim_chunk_io` and `fault_plan` stay
//! `None`, so every chunk read is a real file read (served by the OS
//! page cache in this sandbox).

use crate::fixtures::{self, EventFixture, MseedFixture, Rng, DECODED_BYTES_PER_ROW};
use sommelier_core::adapters::EventLogAdapter;
use sommelier_core::{ObsLevel, SommelierConfig, SourceAdapter};
use sommelier_mseed::{MseedAdapter, Repository};
use sommelier_storage::time::{format_ts, MS_PER_DAY, MS_PER_HOUR};
use std::path::Path;
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdScan,
    WarmMix,
    PruneWindow,
    ServerMix,
}

pub const ALL: [Workload; 4] =
    [Workload::ColdScan, Workload::WarmMix, Workload::PruneWindow, Workload::ServerMix];

/// Latency class of a query: answered from metadata only (T1–T3), or
/// touching actual data (T4, T5 and every event-log aggregate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Meta,
    Data,
}

#[derive(Debug, Clone)]
pub struct Query {
    pub sql: String,
    pub class: Class,
}

#[derive(Debug, Clone)]
pub enum Fixture {
    Mseed(MseedFixture),
    Events(EventFixture),
}

impl Fixture {
    pub fn chunks(&self) -> u64 {
        match self {
            Fixture::Mseed(f) => f.files,
            Fixture::Events(f) => f.files,
        }
    }

    /// Bytes the whole repository occupies once decoded.
    pub fn decoded_bytes(&self) -> u64 {
        DECODED_BYTES_PER_ROW
            * match self {
                Fixture::Mseed(f) => f.rows,
                Fixture::Events(f) => f.rows,
            }
    }

    pub fn adapter(&self) -> Arc<dyn SourceAdapter> {
        match self {
            Fixture::Mseed(f) => Arc::new(MseedAdapter::new(Repository::at(&f.dir))),
            Fixture::Events(f) => Arc::new(EventLogAdapter::new(&f.dir)),
        }
    }

    /// The actual-data column the registrar keeps zone maps for.
    pub fn zone_column(&self) -> &'static str {
        match self {
            Fixture::Mseed(_) => "D.sample_time",
            Fixture::Events(_) => "E.ts",
        }
    }

    /// `[start, end)` of the data, epoch ms.
    pub fn time_range(&self) -> (i64, i64) {
        match self {
            Fixture::Mseed(f) => (f.spec.start_ms(), f.spec.end_ms()),
            Fixture::Events(f) => {
                let a = f.spec.start_day * MS_PER_DAY;
                (a, a + f.spec.days as i64 * MS_PER_DAY)
            }
        }
    }
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdScan => "cold_scan",
            Workload::WarmMix => "warm_mix",
            Workload::PruneWindow => "prune_window",
            Workload::ServerMix => "server_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop clients: one caller for the library-call workloads,
    /// one session per worker thread for the server.
    pub fn clients(self, threads: usize) -> usize {
        match self {
            Workload::ServerMix => threads,
            _ => 1,
        }
    }

    pub fn through_server(self) -> bool {
        self == Workload::ServerMix
    }

    /// `flush_caches()` (untimed) before every query.
    pub fn flush_before_query(self) -> bool {
        self == Workload::ColdScan
    }

    /// Client 0's first this-many measured queries form the *count
    /// window*: counts summed over it repeat exactly for a given seed,
    /// however many queries the time-bounded run completes after it.
    pub fn count_window(self) -> usize {
        match self {
            Workload::ColdScan => 48,
            Workload::WarmMix => 2000,
            Workload::PruneWindow => 1000,
            Workload::ServerMix => 400,
        }
    }

    fn warmup_queries(self) -> usize {
        match self {
            Workload::ColdScan => 4,
            Workload::WarmMix | Workload::PruneWindow => 64,
            // The cellar holds half the repository: let eviction and
            // DMd re-derivation settle.
            Workload::ServerMix => 256,
        }
    }

    pub fn fixture(self, data_dir: &Path, seed: u64) -> Result<Fixture, String> {
        match self {
            Workload::PruneWindow => fixtures::eventlog(data_dir, seed).map(Fixture::Events),
            _ => fixtures::mseed(data_dir, seed).map(Fixture::Mseed),
        }
    }

    /// The shipping configuration plus the worker count and this
    /// workload's cellar budget, stated as a share of the decoded
    /// repository. The traced run also asks the program for its span
    /// tree on every query.
    pub fn config(self, fixture: &Fixture, threads: usize, traced: bool) -> SommelierConfig {
        let decoded = fixture.decoded_bytes() as usize;
        let cellar_bytes = match self {
            // Every query starts from an empty cellar; the budget only
            // has to hold one query's chunks.
            Workload::ColdScan => None,
            Workload::WarmMix => Some(decoded * 5 / 2),
            Workload::PruneWindow => Some(decoded / 10),
            Workload::ServerMix => Some(decoded / 2),
        };
        let shipping = SommelierConfig::default();
        SommelierConfig {
            max_threads: threads,
            cellar_bytes,
            observability: if traced { ObsLevel::Spans } else { shipping.observability },
            ..shipping
        }
    }

    /// Statements run (untimed by the measured phase, timed as part of
    /// `setup_s`) before the first measured query. The first statement
    /// is the one that derives the workload's derived metadata.
    pub fn warmup(self, fixture: &Fixture, seed: u64) -> Vec<String> {
        let (a, b) = fixture.time_range();
        // One scan of the derived table derives every window (H: of
        // every station, Y: of every host and service), reading every
        // chunk once on the way.
        let (table, column) = match fixture {
            Fixture::Mseed(_) => ("H", "window_start_ts"),
            Fixture::Events(_) => ("Y", "day_start_ts"),
        };
        let mut out = vec![format!(
            "SELECT {column} FROM {table} WHERE {column} >= '{}' AND {column} < '{}'",
            format_ts(a),
            format_ts(b)
        )];
        // Then a stretch of the workload itself, from a stream of its
        // own, until caches and derived metadata are in steady state.
        let mut s = Stream::new(self, fixture, seed, usize::MAX);
        out.extend((0..self.warmup_queries()).map(|_| s.next_query().sql));
        out
    }
}

// ---------------------------------------------------------------------
// SQL text. The five query types follow the paper's taxonomy (§VI-A):
// T1 GMd only, T2 DMd only, T3 DMd ⋈ GMd, T4 GMd ⋈ AD, T5 all three.

fn t1(station: &str, from: i64, to: i64) -> String {
    format!(
        "SELECT COUNT(*) AS segments, SUM(S.sample_count) AS samples FROM segview \
         WHERE F.station = '{station}' AND S.start_time >= '{}' AND S.start_time < '{}'",
        format_ts(from),
        format_ts(to)
    )
}

fn t2(station: &str, channel: &str, from: i64, to: i64) -> String {
    format!(
        "SELECT window_start_ts, window_max_val, window_min_val, window_mean_val, \
         window_std_dev FROM H \
         WHERE window_station = '{station}' AND window_channel = '{channel}' \
         AND window_start_ts >= '{}' AND window_start_ts < '{}'",
        format_ts(from),
        format_ts(to)
    )
}

fn t3(station: &str, channel: &str, from: i64, to: i64) -> String {
    format!(
        "SELECT H.window_start_ts, H.window_max_val, F.network FROM windowview \
         WHERE F.station = '{station}' AND F.channel = '{channel}' \
         AND H.window_start_ts >= '{}' AND H.window_start_ts < '{}'",
        format_ts(from),
        format_ts(to)
    )
}

fn t4(station: &str, channel: &str, from: i64, to: i64) -> String {
    format!(
        "SELECT AVG(D.sample_value) FROM dataview \
         WHERE F.station = '{station}' AND F.channel = '{channel}' \
         AND D.sample_time >= '{}' AND D.sample_time < '{}'",
        format_ts(from),
        format_ts(to)
    )
}

/// The paper's Query 2 shape: hunt for windows with events.
fn t5(station: &str, channel: &str, from: i64, to: i64) -> String {
    format!(
        "SELECT AVG(D.sample_value) FROM windowdataview \
         WHERE F.station = '{station}' AND F.channel = '{channel}' \
         AND H.window_start_ts >= '{}' AND H.window_start_ts < '{}' \
         AND H.window_max_val > 10000 AND H.window_std_dev > 10",
        format_ts(from),
        format_ts(to)
    )
}

/// §VI-D: only the time-range predicate, every station.
fn t4_selectivity(from: i64, to: i64) -> String {
    format!(
        "SELECT AVG(D.sample_value) FROM dataview \
         WHERE D.sample_time >= '{}' AND D.sample_time < '{}'",
        format_ts(from),
        format_ts(to)
    )
}

/// The 16 texts `cold_scan` rotates through: one T5 and two T4 per
/// station over its full range (40 chunks each), and time-range-only
/// scans of every station over 25 %, 50 % and 75 % (×2, same days) of
/// the range (40–120 chunks). The edges carry a seeded jitter of under
/// six hours, which changes answers and text but not the chunks
/// touched. Every station weighs the same, so a seed's luck with one
/// station's data does not move the run; the T4 texts are the middle
/// half of the rotation and the two 75 % scans its top eighth, so the
/// median and the 95th percentile each lie inside one class of query.
fn cold_pool(fixture: &Fixture, seed: u64) -> Vec<String> {
    let Fixture::Mseed(f) = fixture else {
        unreachable!("cold_scan reads the mSEED fixture")
    };
    let mut rng = Rng::derive(seed, "cold_scan-pool");
    let (a, b) = fixture.time_range();
    let jitter = |rng: &mut Rng| rng.range(0, 6 * MS_PER_HOUR);
    let mut pool = Vec::new();
    for st in &f.spec.stations {
        pool.push(t5(&st.station, &st.channel, a + jitter(&mut rng), b - jitter(&mut rng)));
        for _ in 0..2 {
            pool.push(t4(
                &st.station,
                &st.channel,
                a + jitter(&mut rng),
                b - jitter(&mut rng),
            ));
        }
    }
    let quarter = (b - a) / 4;
    let day = |rng: &mut Rng, quarters: i64| {
        a + rng.range(0, (b - a - quarters * quarter) / MS_PER_DAY + 1) * MS_PER_DAY
    };
    let mut scans = vec![(1, day(&mut rng, 1)), (2, day(&mut rng, 2))];
    scans.extend([(3, day(&mut rng, 3)); 2]);
    for (quarters, from) in scans {
        pool.push(t4_selectivity(
            from + jitter(&mut rng),
            from + quarters * quarter - jitter(&mut rng),
        ));
    }
    rng.shuffle(&mut pool);
    pool
}

// ---------------------------------------------------------------------
// Streams

/// One client's endless, seeded sequence of queries. The same
/// `(workload, seed, client)` always yields the same sequence.
pub struct Stream {
    workload: Workload,
    rng: Rng,
    fixture: Fixture,
    pool: Vec<String>,
    cursor: usize,
}

impl Stream {
    /// `client == usize::MAX` is the warm-up stream, disjoint from
    /// every measured client's.
    pub fn new(workload: Workload, fixture: &Fixture, seed: u64, client: usize) -> Stream {
        let pool = match workload {
            Workload::ColdScan => cold_pool(fixture, seed),
            _ => Vec::new(),
        };
        Stream {
            workload,
            rng: Rng::derive(seed, &format!("{}-client-{client}", workload.name())),
            fixture: fixture.clone(),
            pool,
            cursor: 0,
        }
    }

    /// Distinct SQL texts the stream can produce, when finite.
    pub fn pool_len(&self) -> Option<usize> {
        (!self.pool.is_empty()).then_some(self.pool.len())
    }

    pub fn next_query(&mut self) -> Query {
        match self.workload {
            Workload::ColdScan => {
                let sql = self.pool[self.cursor % self.pool.len()].clone();
                self.cursor += 1;
                Query { sql, class: Class::Data }
            }
            // Equal shares of T1–T5.
            Workload::WarmMix => {
                let kind = self.rng.below(5);
                self.mseed_query(kind, 6 * MS_PER_HOUR)
            }
            // 70 % metadata class (40 % T1, 15 % each T2 and T3), 30 %
            // data class (T4, T5): the median request is a lookup in
            // the given metadata, the tail a scan of actual data.
            Workload::ServerMix => {
                let kind = match self.rng.below(20) {
                    0..=7 => 0,
                    r => 1 + (r - 8) / 3,
                };
                self.mseed_query(kind, 4 * MS_PER_DAY)
            }
            Workload::PruneWindow => self.event_query(),
        }
    }

    /// A window of 1 ms granularity: `[from, from + len)` with `len` in
    /// `[min_len, max_len]`, inside the data's range. The server's
    /// tenants favour recent data: metadata queries (dashboards) stay
    /// within the last ten days and four in five data queries start
    /// there, so a hot set stays resident while the rest of the
    /// repository churns through the other half of the cellar.
    fn window(&mut self, class: Class, min_len: i64, max_len: i64) -> (i64, i64) {
        let (mut a, b) = self.fixture.time_range();
        if self.workload == Workload::ServerMix
            && (class == Class::Meta || self.rng.below(5) != 0)
        {
            a = b - 10 * MS_PER_DAY;
        }
        let len = self.rng.range(min_len, max_len + 1);
        let from = self.rng.range(a, b - len);
        (from, from + len)
    }

    /// T1–T5 (`kind` 0–4) on a seeded station. Every window spans one
    /// to three days except T4's, which spans an hour to `t4_max`.
    fn mseed_query(&mut self, kind: usize, t4_max: i64) -> Query {
        let Fixture::Mseed(f) = &self.fixture else { unreachable!("mSEED workloads only") };
        let st = f.spec.stations[self.rng.below(f.spec.stations.len())].clone();
        let class = if kind < 3 { Class::Meta } else { Class::Data };
        let (from, to) = match kind {
            3 => self.window(class, MS_PER_HOUR, t4_max),
            _ => self.window(class, MS_PER_DAY, 3 * MS_PER_DAY),
        };
        let sql = match kind {
            0 => t1(&st.station, from, to),
            1 => t2(&st.station, &st.channel, from, to),
            2 => t3(&st.station, &st.channel, from, to),
            3 => t4(&st.station, &st.channel, from, to),
            _ => t5(&st.station, &st.channel, from, to),
        };
        Query { sql, class }
    }

    /// An aggregate over a 1–7-day `E.ts` window: a quarter with a
    /// `G.host` predicate (a half would put the median on the edge
    /// between the two classes), a quarter with an `E.val` predicate no
    /// zone map can prune on (every file's values straddle 30), a
    /// quarter through `daylogview` (T5 shape: incident days only).
    fn event_query(&mut self) -> Query {
        let Fixture::Events(f) = &self.fixture else {
            unreachable!("event-log workload only")
        };
        let host = f.spec.hosts[self.rng.below(f.spec.hosts.len())].clone();
        let (from, to) = self.window(Class::Data, MS_PER_DAY, 7 * MS_PER_DAY);
        let mut preds = Vec::new();
        if self.rng.below(4) == 0 {
            preds.push(format!("G.host = '{host}'"));
        }
        let view = if self.rng.below(4) == 0 {
            let day_from = from.div_euclid(MS_PER_DAY) * MS_PER_DAY;
            preds.push(format!(
                "Y.day_start_ts >= '{}' AND Y.day_start_ts < '{}' AND Y.day_max_val > 500",
                format_ts(day_from),
                format_ts(to)
            ));
            "daylogview"
        } else {
            "eventview"
        };
        preds.push(format!("E.ts >= '{}' AND E.ts < '{}'", format_ts(from), format_ts(to)));
        if self.rng.below(4) == 0 {
            preds.push("E.val > 30.0".to_string());
        }
        let sql = format!(
            "SELECT COUNT(*) AS events, AVG(E.val) AS mean_val, MAX(E.val) AS peak_val \
             FROM {view} WHERE {}",
            preds.join(" AND ")
        );
        Query { sql, class: Class::Data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sommelier_core::query::{classify, QueryType};
    use sommelier_core::source::assemble_catalog;
    use std::collections::HashSet;
    use std::path::PathBuf;

    fn fixtures() -> (Fixture, Fixture) {
        let m = MseedFixture {
            dir: PathBuf::from("/nonexistent"),
            spec: fixtures::mseed_spec(1),
            files: 160,
            rows: 7_800_000,
        };
        let e = EventFixture {
            dir: PathBuf::from("/nonexistent"),
            spec: fixtures::eventlog_spec(1),
            files: 8192,
            rows: 1_638_400,
        };
        (Fixture::Mseed(m), Fixture::Events(e))
    }

    #[test]
    fn streams_repeat_for_a_seed_and_differ_between_clients() {
        let (m, _) = fixtures();
        let take = |seed, client| {
            let mut s = Stream::new(Workload::ServerMix, &m, seed, client);
            (0..50).map(|_| s.next_query().sql).collect::<Vec<_>>()
        };
        assert_eq!(take(1, 0), take(1, 0));
        assert_ne!(take(1, 0), take(2, 0));
        assert_ne!(take(1, 0), take(1, 1));
    }

    #[test]
    fn every_text_compiles_to_its_query_type() {
        let (m, e) = fixtures();
        let (madapter, eadapter) = (m.adapter(), e.adapter());
        let mcat = assemble_catalog(&[madapter.descriptor()]).unwrap();
        let ecat = assemble_catalog(&[eadapter.descriptor()]).unwrap();
        for w in ALL {
            let (fx, cat) =
                if w == Workload::PruneWindow { (&e, &ecat) } else { (&m, &mcat) };
            let mut s = Stream::new(w, fx, 3, 0);
            let texts = (0..400).map(|_| s.next_query()).chain(
                w.warmup(fx, 3).into_iter().map(|sql| Query { sql, class: Class::Data }),
            );
            for q in texts {
                let spec = sommelier_sql::compile(&q.sql, cat)
                    .unwrap_or_else(|err| panic!("{}: {err}: {}", w.name(), q.sql));
                let ty = classify(&spec);
                if q.class == Class::Meta {
                    assert!(
                        matches!(ty, QueryType::T1 | QueryType::T2 | QueryType::T3),
                        "{ty:?} for {}",
                        q.sql
                    );
                }
            }
        }
    }

    #[test]
    fn warm_mix_texts_are_all_distinct() {
        let (m, _) = fixtures();
        let mut s = Stream::new(Workload::WarmMix, &m, 1, 0);
        let texts: HashSet<String> = (0..20_000).map(|_| s.next_query().sql).collect();
        assert!(texts.len() > 19_990, "{} distinct of 20000", texts.len());
    }

    #[test]
    fn server_mix_keeps_the_median_in_the_metadata_class() {
        let (m, _) = fixtures();
        let mut s = Stream::new(Workload::ServerMix, &m, 1, 0);
        let meta = (0..10_000).filter(|_| s.next_query().class == Class::Meta).count();
        assert!((6_700..7_300).contains(&meta), "{meta} of 10000 in the metadata class");
    }

    #[test]
    fn cold_pool_is_sixteen_full_scans() {
        let (m, _) = fixtures();
        let pool = cold_pool(&m, 5);
        assert_eq!(pool.len(), 16);
        assert_eq!(pool.iter().collect::<HashSet<_>>().len(), 16);
        assert_eq!(pool, cold_pool(&m, 5));
        assert_eq!(pool.iter().filter(|q| q.contains("windowdataview")).count(), 4);
        assert_eq!(pool.iter().filter(|q| q.contains("F.station")).count(), 12);
    }
}
