//! The row order of metadata tables, defined once.
//!
//! A table in primary-key order ([`crate::table::RowOrder`]) sorts its
//! rows lexicographically by the key columns: integers and timestamps
//! by value, floats by their partial order, text by content (never by
//! dictionary code, which differs between columns). Storage checks and
//! keeps the order with these functions, and a reader that
//! binary-searches the rows compares with the same ones, so the two
//! cannot drift apart.

use crate::column::ColumnData;
use std::cmp::Ordering;

/// One value of a key column as the row order compares it.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub enum SortKey<'v> {
    /// An integer or timestamp.
    Int(i64),
    /// A float (unordered when NaN).
    Float(f64),
    /// Text, by content.
    Text(&'v str),
}

impl<'v> SortKey<'v> {
    /// Row `i` of `col`.
    pub fn at(col: &'v ColumnData, i: usize) -> SortKey<'v> {
        match col {
            ColumnData::Int64(v) | ColumnData::Timestamp(v) => SortKey::Int(v[i]),
            ColumnData::Float64(v) => SortKey::Float(v[i]),
            ColumnData::Text(t) => SortKey::Text(t.get(i)),
        }
    }
}

/// How row `i` of `col` compares with `key`. `None` when the two are
/// unordered: a NaN, or a key of another type family than the column's
/// (integers and timestamps, floats, text).
pub fn cmp_key(col: &ColumnData, i: usize, key: SortKey) -> Option<Ordering> {
    match (col, key) {
        (ColumnData::Int64(v) | ColumnData::Timestamp(v), SortKey::Int(x)) => {
            Some(v[i].cmp(&x))
        }
        (ColumnData::Float64(v), SortKey::Float(x)) => v[i].partial_cmp(&x),
        (ColumnData::Text(t), SortKey::Text(s)) => Some(t.get(i).cmp(s)),
        _ => None,
    }
}

/// How row `a` of the key columns `a_key` compares with row `b` of
/// `b_key`, lexicographically (`None`: unordered).
pub fn cmp_rows(
    a_key: &[&ColumnData],
    a: usize,
    b_key: &[&ColumnData],
    b: usize,
) -> Option<Ordering> {
    for (x, y) in a_key.iter().zip(b_key) {
        match cmp_key(x, a, SortKey::at(y, b))? {
            Ordering::Equal => {}
            ord => return Some(ord),
        }
    }
    Some(Ordering::Equal)
}

/// Is every row of `key` (key columns of equal length) ordered and no
/// greater than the next?
pub fn is_sorted(key: &[&ColumnData]) -> bool {
    let n = key.first().map_or(0, |c| c.len());
    (1..n).all(|r| cmp_rows(key, r - 1, key, r).is_some_and(Ordering::is_le))
}

/// The row permutation that sorts `key` (key columns of equal length),
/// stably: equal and unordered rows keep their relative order.
pub fn sort_permutation(key: &[&ColumnData]) -> Vec<u32> {
    let n = key.first().map_or(0, |c| c.len());
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.sort_by(|&a, &b| {
        cmp_rows(key, a as usize, key, b as usize).unwrap_or(Ordering::Equal)
    });
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::TextColumn;

    #[test]
    fn text_compares_by_content_across_dictionaries() {
        // Codes 0, 1 in one column, 1, 0 in the other.
        let a = ColumnData::Text(TextColumn::from_strs(["B", "A"]));
        let b = ColumnData::Text(TextColumn::from_strs(["A", "B"]));
        assert_eq!(cmp_rows(&[&a], 0, &[&b], 1), Some(Ordering::Equal));
        assert_eq!(cmp_rows(&[&a], 1, &[&b], 1), Some(Ordering::Less));
        assert!(!is_sorted(&[&a]) && is_sorted(&[&b]));
        assert_eq!(sort_permutation(&[&a]), [1, 0]);
    }

    #[test]
    fn rows_compare_lexicographically_and_nan_is_unordered() {
        let s = ColumnData::Int64(vec![1, 1, 2, 2]);
        let t = ColumnData::Timestamp(vec![5, 3, 0, 0]);
        let key = [&s, &t];
        assert_eq!(cmp_rows(&key, 0, &key, 1), Some(Ordering::Greater));
        assert_eq!(cmp_rows(&key, 1, &key, 2), Some(Ordering::Less));
        assert_eq!(cmp_rows(&key, 2, &key, 3), Some(Ordering::Equal));
        assert_eq!(sort_permutation(&key), [1, 0, 2, 3], "stable on equal rows");
        let f = ColumnData::Float64(vec![1.0, f64::NAN, 2.0]);
        assert_eq!(cmp_rows(&[&f], 0, &[&f], 1), None);
        assert!(!is_sorted(&[&f]));
        // Integers and timestamps are one family; text is another.
        assert_eq!(cmp_key(&t, 0, SortKey::at(&s, 0)), Some(Ordering::Greater));
        assert_eq!(cmp_key(&t, 0, SortKey::Text("5")), None);
    }
}
