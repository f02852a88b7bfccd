//! CSV export/import — the *eager csv* loading baseline.
//!
//! The paper's `Eager csv` variant "writes mSEED data into CSV files and
//! loads the CSV files with COPY INTO" (§VI-B), paying textual
//! serialization + parsing on top of decoding. One CSV row per sample:
//!
//! ```text
//! seg_index,sample_time_iso,sample_value
//! ```
//!
//! Timestamps serialize as ISO-8601 text — deliberately: the paper's
//! Table III shows CSV at ~35× the mSEED size precisely because of the
//! "explicit materialization of timestamps".

use crate::error::{MseedError, Result};
use crate::record::MseedFile;
use sommelier_storage::time::{format_ts, parse_ts};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// One parsed CSV row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CsvRow {
    pub seg_index: u32,
    pub sample_time: i64,
    pub sample_value: f64,
}

/// Export a decoded chunk file as CSV; returns bytes written.
pub fn export_csv(file: &MseedFile, csv_path: &Path) -> Result<u64> {
    let out = std::fs::File::create(csv_path)
        .map_err(|e| MseedError::io(format!("creating {}", csv_path.display()), e))?;
    let mut w = BufWriter::new(out);
    let mut bytes = 0u64;
    for seg in &file.segments {
        for (i, &v) in seg.samples.iter().enumerate() {
            let t = seg.meta.sample_time(i as u32);
            let line = format!("{},{},{}\n", seg.meta.seg_index, format_ts(t), v);
            bytes += line.len() as u64;
            w.write_all(line.as_bytes()).map_err(|e| MseedError::io("writing csv", e))?;
        }
    }
    w.flush().map_err(|e| MseedError::io("flushing csv", e))?;
    Ok(bytes)
}

/// Parse a CSV file written by [`export_csv`].
pub fn import_csv(csv_path: &Path) -> Result<Vec<CsvRow>> {
    let f = std::fs::File::open(csv_path)
        .map_err(|e| MseedError::io(format!("opening {}", csv_path.display()), e))?;
    let mut reader = BufReader::new(f);
    let mut rows = Vec::new();
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        let n = reader.read_line(&mut line).map_err(|e| MseedError::io("reading csv", e))?;
        if n == 0 {
            break;
        }
        lineno += 1;
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            continue;
        }
        let bad = |what: &str| {
            MseedError::Corrupt(format!(
                "{}:{lineno}: {what}: {trimmed:?}",
                csv_path.display()
            ))
        };
        let mut parts = trimmed.splitn(3, ',');
        let seg_index: u32 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad segment index"))?;
        let sample_time = parse_ts(parts.next().ok_or_else(|| bad("missing timestamp"))?)
            .map_err(|_| bad("bad timestamp"))?;
        let sample_value: f64 =
            parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| bad("bad value"))?;
        rows.push(CsvRow { seg_index, sample_time, sample_value });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{FileMeta, SegmentData, SegmentMeta};
    use sommelier_storage::tempdir::TempDir;

    fn sample_file() -> MseedFile {
        MseedFile {
            meta: FileMeta::new("IV", "ISK", "", "BHE"),
            segments: vec![SegmentData {
                meta: SegmentMeta {
                    seg_index: 3,
                    start_time: 1_000,
                    frequency: 10.0,
                    sample_count: 3,
                },
                samples: vec![7, -8, 9],
            }],
        }
    }

    #[test]
    fn roundtrip() {
        let dir = TempDir::new("csv-roundtrip");
        let path = dir.join("x.csv");
        let bytes = export_csv(&sample_file(), &path).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        let rows = import_csv(&path).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], CsvRow { seg_index: 3, sample_time: 1_000, sample_value: 7.0 });
        assert_eq!(rows[1].sample_time, 1_100);
        assert_eq!(rows[1].sample_value, -8.0);
    }

    #[test]
    fn csv_is_much_larger_than_binary() {
        // The Table III effect in miniature.
        let dir = TempDir::new("csv-size");
        let path = dir.join("x.csv");
        let mut file = sample_file();
        file.segments[0].samples = (0..10_000).map(|i| (i % 100) - 50).collect();
        file.segments[0].meta.sample_count = 10_000;
        let csv_bytes = export_csv(&file, &path).unwrap();
        let msd_bytes = crate::writer::to_bytes(&file).unwrap().len() as u64;
        assert!(csv_bytes > 10 * msd_bytes, "csv {csv_bytes} vs msd {msd_bytes}");
    }

    #[test]
    fn malformed_lines_rejected() {
        let dir = TempDir::new("csv-bad");
        for (i, content) in [
            "notanumber,1970-01-01T00:00:00.000,1\n",
            "1,not-a-time,1\n",
            "1,1970-01-01T00:00:00.000,notanumber\n",
            "1,1970-01-01T00:00:00.000\n",
        ]
        .iter()
        .enumerate()
        {
            let path = dir.join(format!("bad{i}.csv"));
            std::fs::write(&path, content).unwrap();
            assert!(import_csv(&path).is_err(), "should reject {content:?}");
        }
    }

    #[test]
    fn blank_lines_skipped() {
        let dir = TempDir::new("csv-blank");
        let path = dir.join("x.csv");
        std::fs::write(&path, "1,1970-01-01T00:00:00.000,5\n\n2,1970-01-01T00:00:01.000,6\n")
            .unwrap();
        let rows = import_csv(&path).unwrap();
        assert_eq!(rows.len(), 2);
    }
}
