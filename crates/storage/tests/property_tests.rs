//! Property-based tests on the storage substrate: on-disk column
//! round trips across page boundaries, catalog serialization, civil
//! time conversion, and dictionary encoding.

use sommelier_storage::buffer::{BufferPool, BufferPoolConfig};
use sommelier_storage::catalog::{Catalog, Disposition};
use sommelier_storage::colfile::ColumnFile;
use sommelier_storage::column::TextColumn;
use sommelier_storage::rng::{check, Rng};
use sommelier_storage::tempdir::TempDir;
use sommelier_storage::time::{civil_from_days, days_from_civil, format_ts, parse_ts};
use sommelier_storage::{ColumnData, DataType, TableClass, TableSchema};

/// `len` (drawn from `lens`) strings of `chars` letters from `alphabet`.
fn words(
    rng: &mut Rng,
    lens: std::ops::Range<i64>,
    chars: std::ops::RangeInclusive<i64>,
    alphabet: &[u8],
) -> Vec<String> {
    (0..rng.range(lens.clone()))
        .map(|_| (0..rng.range(chars.clone())).map(|_| rng.pick(alphabet) as char).collect())
        .collect()
}

/// Writing any i64 column in arbitrary batches and reading any
/// sub-range returns exactly the written values.
#[test]
fn colfile_int_roundtrip() {
    check("colfile_int_roundtrip", |rng| {
        let batches: Vec<Vec<i64>> = (0..rng.range(1..5))
            .map(|_| (0..rng.range(0..3000)).map(|_| rng.next_u64() as i64).collect())
            .collect();
        let dir = TempDir::new("prop-int");
        let path = dir.join("c.col");
        let mut cf = ColumnFile::create(&path, DataType::Int64).unwrap();
        let mut all = Vec::new();
        for batch in &batches {
            cf.append(&ColumnData::Int64(batch.clone())).unwrap();
            all.extend_from_slice(batch);
        }
        let pool = BufferPool::new(BufferPoolConfig::default());
        let back = cf.read_all(&pool).unwrap();
        assert_eq!(back.as_i64().unwrap(), &all[..]);
        // Arbitrary range (clamped by the implementation).
        let (a, b) =
            (rng.range(0..=u16::MAX as i64) as u64, rng.range(0..=u16::MAX as i64) as u64);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let sub = cf.read_range(&pool, lo, hi).unwrap();
        let lo_c = (lo as usize).min(all.len());
        let hi_c = (hi as usize).min(all.len());
        assert_eq!(sub.as_i64().unwrap(), &all[lo_c..hi_c.max(lo_c)]);
    });
}

/// Text columns round-trip through the dictionary-coded file,
/// including re-opening from disk.
#[test]
fn colfile_text_roundtrip() {
    check("colfile_text_roundtrip", |rng| {
        let strings = words(rng, 1..200, 0..=8, b"abcdefghijklmnopqrstuvwxyz");
        let dir = TempDir::new("prop-text");
        let path = dir.join("c.col");
        let mut cf = ColumnFile::create(&path, DataType::Text).unwrap();
        cf.append(&ColumnData::Text(TextColumn::from_strs(
            strings.iter().map(String::as_str),
        )))
        .unwrap();
        let pool = BufferPool::new(BufferPoolConfig::default());
        let reopened = ColumnFile::open(&path).unwrap();
        let back = reopened.read_all(&pool).unwrap();
        let got: Vec<String> = (0..back.len())
            .map(|i| match back.get(i) {
                sommelier_storage::Value::Text(s) => s,
                other => panic!("{other:?} is not text"),
            })
            .collect();
        assert_eq!(got, strings);
    });
}

/// Catalog text serialization is loss-free for arbitrary schemas.
#[test]
fn catalog_roundtrip() {
    check("catalog_roundtrip", |rng| {
        let n_cols = rng.range(1..6) as usize;
        let pk = rng.one_in(2);
        let class = rng.pick(&[
            TableClass::MetadataGiven,
            TableClass::MetadataDerived,
            TableClass::ActualData,
        ]);
        let mut schema = TableSchema::new("T", class);
        for i in 0..n_cols {
            let dtype = match i % 4 {
                0 => DataType::Int64,
                1 => DataType::Float64,
                2 => DataType::Timestamp,
                _ => DataType::Text,
            };
            schema = schema.column(format!("c{i}"), dtype);
        }
        if pk {
            schema = schema.primary_key(["c0"]);
        }
        let mut catalog = Catalog::new();
        catalog.add_table(schema, Disposition::Persistent).unwrap();
        let text = catalog.serialize();
        let back = Catalog::deserialize(&text).unwrap();
        assert_eq!(back.serialize(), text);
        let entry = back.get("T").unwrap();
        assert_eq!(entry.schema.columns.len(), n_cols);
        assert_eq!(entry.schema.class, class);
    });
}

/// Civil-date conversion is a bijection over a wide day range.
#[test]
fn civil_days_bijection() {
    check("civil_days_bijection", |rng| {
        let day = rng.range(-1_000_000..1_000_000);
        let (y, m, d) = civil_from_days(day);
        assert_eq!(days_from_civil(y, m, d), day);
        assert!((1..=12).contains(&m));
        assert!((1..=31).contains(&d));
    });
}

/// Timestamp formatting parses back to the same instant.
#[test]
fn timestamp_format_parse_roundtrip() {
    check("timestamp_format_parse_roundtrip", |rng| {
        let ms = rng.range(-4_102_444_800_000..4_102_444_800_000);
        assert_eq!(parse_ts(&format_ts(ms)).unwrap(), ms);
    });
}

/// Dictionary append between arbitrary columns preserves content.
#[test]
fn text_append_remap() {
    check("text_append_remap", |rng| {
        let a = words(rng, 0..30, 1..=3, b"abcd");
        let b = words(rng, 0..30, 1..=3, b"cdef");
        let mut ca = TextColumn::from_strs(a.iter().map(|s| s.as_str()));
        let cb = TextColumn::from_strs(b.iter().map(|s| s.as_str()));
        ca.append(&cb);
        let want: Vec<&String> = a.iter().chain(b.iter()).collect();
        assert_eq!(ca.len(), want.len());
        for (i, w) in want.iter().enumerate() {
            assert_eq!(ca.get(i), w.as_str());
        }
        // Dictionary stays minimal: only distinct strings.
        let mut distinct: Vec<&String> = want.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(ca.dict.len(), distinct.len());
    });
}
