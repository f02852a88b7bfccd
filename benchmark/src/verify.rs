//! Answer checking: a sample of the measured queries is re-run on a
//! serial twin (one worker, no prefetch, fresh system) after the
//! measured phase, and `--verify-eager` also checks the paper's lazy ≡
//! eager claim against an `EagerIndex` twin.

use crate::fixtures::Rng;
use crate::workloads::{Fixture, Stream, Workload};
use sommelier_core::{LoadingMode, Sommelier, SommelierConfig};
use sommelier_engine::Relation;
use sommelier_storage::Value;
use std::collections::BTreeSet;
use std::time::Instant;

/// Queries compared per workload when the stream is unbounded.
pub const SAMPLE: usize = 64;
/// Of those, how many `--verify-eager` also runs on the eager twin.
pub const EAGER_SAMPLE: usize = 8;
/// Relative tolerance for floats: parallel partial aggregation sums in
/// a different order than the serial twin.
const FLOAT_TOLERANCE: f64 = 1e-9;

/// The SQL texts whose answers get checked: the whole pool when the
/// stream rotates through a finite one, otherwise [`SAMPLE`] seeded
/// picks from client 0's count window (texts the measured phase is
/// certain to reach).
pub fn sample_texts(workload: Workload, fixture: &Fixture, seed: u64) -> Vec<String> {
    let mut stream = Stream::new(workload, fixture, seed, 0);
    if let Some(n) = stream.pool_len() {
        return (0..n).map(|_| stream.next_query().sql).collect();
    }
    let window = workload.count_window();
    let mut rng = Rng::derive(seed, "verify-sample");
    let mut picks = BTreeSet::new();
    while picks.len() < SAMPLE.min(window) {
        picks.insert(rng.below(window));
    }
    (0..window)
        .filter_map(|i| {
            let q = stream.next_query();
            picks.contains(&i).then_some(q.sql)
        })
        .collect()
}

/// A relation as rows, ordered by their exact (non-float) cells so two
/// executions that emit rows in a different order still line up.
pub fn canonical_rows(rel: &Relation) -> Vec<Vec<Value>> {
    let cols: Vec<_> = rel.columns().iter().map(|(_, c)| c).collect();
    let mut rows: Vec<Vec<Value>> =
        (0..rel.rows()).map(|r| cols.iter().map(|c| c.get(r)).collect()).collect();
    let key = |row: &Vec<Value>| {
        row.iter()
            .filter(|v| !matches!(v, Value::Float(_)))
            .map(|v| format!("{v:?}"))
            .collect::<Vec<_>>()
    };
    rows.sort_by_cached_key(key);
    rows
}

fn cells_agree(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            x == y
                || (x.is_nan() && y.is_nan())
                || (x - y).abs() <= FLOAT_TOLERANCE * x.abs().max(y.abs())
        }
        _ => a == b,
    }
}

/// `None` when the answers agree, otherwise what differs.
pub fn difference(got: &Relation, expected: &Relation) -> Option<String> {
    if got.names() != expected.names() {
        return Some(format!("columns {:?} vs {:?}", got.names(), expected.names()));
    }
    let (g, e) = (canonical_rows(got), canonical_rows(expected));
    if g.len() != e.len() {
        return Some(format!("{} rows vs {}", g.len(), e.len()));
    }
    g.iter().zip(&e).enumerate().find_map(|(i, (gr, er))| {
        gr.iter()
            .zip(er)
            .position(|(a, b)| !cells_agree(a, b))
            .map(|c| format!("row {i} column {c}: {:?} vs {:?}", gr[c], er[c]))
    })
}

/// A fresh system over the same chunk files in the given mode.
fn twin(
    fixture: &Fixture,
    mode: LoadingMode,
    config: SommelierConfig,
) -> Result<Sommelier, String> {
    let somm = Sommelier::builder()
        .source_arc(fixture.adapter())
        .config(config)
        .build()
        .map_err(|e| format!("twin build: {e}"))?;
    somm.prepare(mode).map_err(|e| format!("twin prepare: {e}"))?;
    Ok(somm)
}

fn answers(somm: &Sommelier, texts: &[String]) -> Result<Vec<Relation>, String> {
    texts
        .iter()
        .map(|sql| {
            somm.query(sql).map(|r| r.relation).map_err(|e| format!("twin: {e}: {sql}"))
        })
        .collect()
}

/// Reference answers from the serial twin: the simplest path through
/// the program (no parallel merge, no prefetch hand-off).
pub fn serial_answers(fixture: &Fixture, texts: &[String]) -> Result<Vec<Relation>, String> {
    let config = SommelierConfig { max_threads: 1, prefetch_depth: 0, ..Default::default() };
    answers(&twin(fixture, LoadingMode::Lazy, config)?, texts)
}

/// Answers from a fully loaded system, and how long loading it took.
pub fn eager_answers(
    fixture: &Fixture,
    texts: &[String],
    threads: usize,
) -> Result<(Vec<Relation>, f64), String> {
    let t = Instant::now();
    let config = SommelierConfig { max_threads: threads, ..Default::default() };
    let somm = twin(fixture, LoadingMode::EagerIndex, config)?;
    let load_s = t.elapsed().as_secs_f64();
    Ok((answers(&somm, texts)?, load_s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sommelier_storage::ColumnData;

    fn rel(ts: Vec<i64>, vals: Vec<f64>) -> Relation {
        Relation::new(vec![
            ("t".to_string(), ColumnData::Timestamp(ts)),
            ("v".to_string(), ColumnData::Float64(vals)),
        ])
        .unwrap()
    }

    #[test]
    fn row_order_and_float_noise_are_not_differences() {
        let a = rel(vec![1, 2, 3], vec![10.0, 20.0, 30.0]);
        let b = rel(vec![3, 1, 2], vec![30.0 * (1.0 + 1e-12), 10.0, 20.0]);
        assert_eq!(difference(&a, &b), None);
    }

    #[test]
    fn wrong_values_rows_and_columns_are() {
        let a = rel(vec![1, 2], vec![10.0, 20.0]);
        assert!(difference(&a, &rel(vec![1, 2], vec![10.0, 20.001])).is_some());
        assert!(difference(&a, &rel(vec![1], vec![10.0])).is_some());
        assert!(difference(&a, &rel(vec![1, 4], vec![10.0, 20.0])).is_some());
        let renamed =
            Relation::new(vec![("t".to_string(), ColumnData::Timestamp(vec![1, 2]))])
                .unwrap();
        assert!(difference(&a, &renamed).is_some());
    }
}
