//! SQL builders for the paper's five benchmark query types (§VI-A) and
//! the selectivity-sweep variants (§VI-D/E).

use sommelier_storage::time::{format_ts, MS_PER_DAY};

/// T1 — GMd only: aggregate over F ⋈ S with a station predicate.
pub fn t1(station: &str) -> String {
    format!(
        "SELECT COUNT(*) AS segments, SUM(S.sample_count) AS samples \
         FROM segview WHERE F.station = '{station}'"
    )
}

/// T2 — DMd only: window rows for one sensor and time range.
pub fn t2(station: &str, channel: &str, from_ms: i64, to_ms: i64) -> String {
    format!(
        "SELECT window_start_ts, window_max_val, window_min_val, window_mean_val, \
         window_std_dev FROM H \
         WHERE window_station = '{station}' AND window_channel = '{channel}' \
         AND window_start_ts >= '{}' AND window_start_ts < '{}'",
        format_ts(from_ms),
        format_ts(to_ms)
    )
}

/// T3 — DMd ⋈ GMd: like T2, joined with the file metadata.
pub fn t3(station: &str, channel: &str, from_ms: i64, to_ms: i64) -> String {
    format!(
        "SELECT H.window_start_ts, H.window_max_val, F.network \
         FROM windowview \
         WHERE F.station = '{station}' AND F.channel = '{channel}' \
         AND H.window_start_ts >= '{}' AND H.window_start_ts < '{}'",
        format_ts(from_ms),
        format_ts(to_ms)
    )
}

/// T4 — GMd & AD with an AD selection (the paper's Query 1 shape).
pub fn t4(station: &str, channel: &str, from_ms: i64, to_ms: i64) -> String {
    format!(
        "SELECT AVG(D.sample_value) FROM dataview \
         WHERE F.station = '{station}' AND F.channel = '{channel}' \
         AND D.sample_time >= '{}' AND D.sample_time < '{}'",
        format_ts(from_ms),
        format_ts(to_ms)
    )
}

/// T5 — GMd & DMd & AD, selection on GMd + DMd only (the paper's
/// Query 2 shape, aggregated).
pub fn t5(
    station: &str,
    channel: &str,
    from_ms: i64,
    to_ms: i64,
    max_threshold: f64,
    stddev_threshold: f64,
) -> String {
    format!(
        "SELECT AVG(D.sample_value) FROM windowdataview \
         WHERE F.station = '{station}' AND F.channel = '{channel}' \
         AND H.window_start_ts >= '{}' AND H.window_start_ts < '{}' \
         AND H.window_max_val > {max_threshold} AND H.window_std_dev > {stddev_threshold}",
        format_ts(from_ms),
        format_ts(to_ms)
    )
}

/// §VI-D selectivity variants: "remove all selection predicates ...
/// except the range predicate on the time".
pub fn t4_selectivity(from_ms: i64, to_ms: i64) -> String {
    format!(
        "SELECT AVG(D.sample_value) FROM dataview \
         WHERE D.sample_time >= '{}' AND D.sample_time < '{}'",
        format_ts(from_ms),
        format_ts(to_ms)
    )
}

/// T5 selectivity variant: range predicate on the window start only.
pub fn t5_selectivity(from_ms: i64, to_ms: i64) -> String {
    format!(
        "SELECT AVG(D.sample_value) FROM windowdataview \
         WHERE H.window_start_ts >= '{}' AND H.window_start_ts < '{}'",
        format_ts(from_ms),
        format_ts(to_ms)
    )
}

/// T3 selectivity variant (Fig. 9 workloads).
pub fn t3_selectivity(from_ms: i64, to_ms: i64) -> String {
    format!(
        "SELECT H.window_start_ts, H.window_max_val FROM windowview \
         WHERE H.window_start_ts >= '{}' AND H.window_start_ts < '{}'",
        format_ts(from_ms),
        format_ts(to_ms)
    )
}

/// A closed day range `[start_day, start_day + days)` in epoch ms.
pub fn day_range(start_day: i64, days: i64) -> (i64, i64) {
    (start_day * MS_PER_DAY, (start_day + days) * MS_PER_DAY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sommelier_core::source::assemble_catalog;

    #[test]
    fn all_query_shapes_compile_and_classify() {
        use sommelier_core::query::{classify, QueryType};
        let cat = assemble_catalog(&[&sommelier_mseed::mseed_descriptor()]).unwrap();
        let day = 14_610 * MS_PER_DAY; // 2010-01-01
        let cases: Vec<(String, QueryType)> = vec![
            (t1("ISK"), QueryType::T1),
            (t2("ISK", "BHE", day, day + MS_PER_DAY), QueryType::T2),
            (t3("ISK", "BHE", day, day + MS_PER_DAY), QueryType::T3),
            (t4("ISK", "BHE", day, day + MS_PER_DAY), QueryType::T4),
            (t5("ISK", "BHE", day, day + MS_PER_DAY, 10_000.0, 10.0), QueryType::T5),
            (t4_selectivity(day, day + MS_PER_DAY), QueryType::T4),
            (t5_selectivity(day, day + MS_PER_DAY), QueryType::T5),
            (t3_selectivity(day, day + MS_PER_DAY), QueryType::T3),
        ];
        for (sql, expected) in cases {
            let spec = sommelier_sql::compile(&sql, &cat)
                .unwrap_or_else(|e| panic!("failed to compile {sql:?}: {e}"));
            assert_eq!(classify(&spec), expected, "for {sql}");
        }
    }

    #[test]
    fn day_range_spans_days() {
        let (a, b) = day_range(10, 2);
        assert_eq!(b - a, 2 * MS_PER_DAY);
    }
}
