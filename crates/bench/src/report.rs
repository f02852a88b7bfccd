//! Plain-text result tables (aligned columns + a machine-readable CSV
//! echo), shared by every experiment binary.

use std::time::Duration;

/// One printable result table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Render as CSV (for plotting).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Render as JSON (`{"title", "rows": [{header: cell, ...}]}`) for
    /// recorded baselines like `BENCH_faults.json`. Hand-rolled — the
    /// build environment has no serde — so cells are emitted as JSON
    /// strings with minimal escaping.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut out = String::new();
        out.push_str(&format!("{{\n  \"title\": \"{}\",\n  \"rows\": [\n", esc(&self.title)));
        for (ri, row) in self.rows.iter().enumerate() {
            let fields: Vec<String> = self
                .headers
                .iter()
                .zip(row)
                .map(|(h, c)| format!("\"{}\": \"{}\"", esc(h), esc(c)))
                .collect();
            let comma = if ri + 1 < self.rows.len() { "," } else { "" };
            out.push_str(&format!("    {{{}}}{comma}\n", fields.join(", ")));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Print both renderings to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
        println!("-- csv --\n{}", self.to_csv());
    }
}

/// Human duration (`12.3ms`, `4.56s`).
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.0}us", s * 1e6)
    }
}

/// Duration as fractional seconds (CSV-friendly).
pub fn secs(d: Duration) -> String {
    format!("{:.6}", d.as_secs_f64())
}

/// Human byte size.
pub fn fmt_bytes(b: u64) -> String {
    const KIB: f64 = 1024.0;
    let b = b as f64;
    if b >= KIB * KIB * KIB {
        format!("{:.2} GiB", b / (KIB * KIB * KIB))
    } else if b >= KIB * KIB {
        format!("{:.2} MiB", b / (KIB * KIB))
    } else if b >= KIB {
        format!("{:.1} KiB", b / KIB)
    } else {
        format!("{b:.0} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["a", "long_header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["100".into(), "xyz".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("long_header"));
        let csv = t.to_csv();
        assert!(csv.starts_with("a,long_header\n"));
        assert!(csv.contains("100,xyz"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_duration(Duration::from_millis(1500)), "1.50s");
        assert_eq!(fmt_duration(Duration::from_micros(1500)), "1.50ms");
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12us");
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert!(fmt_bytes(5 * 1024 * 1024).contains("MiB"));
    }
}
