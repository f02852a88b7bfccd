//! Primary-key hash indices and foreign-key join indices.
//!
//! The paper's *eager index* loading variant "constructs foreign key
//! indices, which serve as join indices" (§VI-A). We model both flavors:
//!
//! * [`HashIndex`] — a multi-column hash index used (a) to verify PK
//!   uniqueness on insert and (b) as the build side of index-assisted
//!   joins.
//! * [`JoinIndex`] — the materialized FK→parent-position mapping: for
//!   every child row, the row position of its (unique) parent. Probing
//!   it during a join is a positional gather, the paper's observation
//!   that "constructing the join index is actually computing the join
//!   itself".

use crate::column::ColumnData;
use crate::error::{Result, StorageError};
use crate::value::Value;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A multiply-shift hasher for the single-`i64`-key fast lane. SipHash
/// (the default hasher) costs more than the rest of a probe put
/// together on the decode/ingest hot path — every chunk probes the
/// shared join build side, and eager FK verification probes every
/// appended row. HashDoS resistance is irrelevant here: keys are
/// system-assigned ids, not attacker-controlled input.
#[derive(Default)]
pub struct I64KeyHasher(u64);

impl Hasher for I64KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (not used by `i64` keys, which go through
        // `write_i64`): fold bytes with the same multiplier.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_i64(&mut self, v: i64) {
        // Mix, don't overwrite: tuple keys write one i64 per element.
        self.0 = (self.0 ^ v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        // The multiply pushes entropy to the high bits; fold them back
        // down for HashMap's low-bit bucket masking.
        self.0 ^ (self.0 >> 32)
    }
}

/// Is this a column the `i64` fast lane can key on?
fn i64_keyable(col: &ColumnData) -> Option<&[i64]> {
    match col {
        ColumnData::Int64(v) | ColumnData::Timestamp(v) => Some(v),
        _ => None,
    }
}

/// Hash one composite key (the values at `row` across `cols`).
///
/// Text values hash by string content so that columns with different
/// dictionaries still agree.
pub fn hash_row(cols: &[&ColumnData], row: usize) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for col in cols {
        match col {
            ColumnData::Int64(v) | ColumnData::Timestamp(v) => v[row].hash(&mut h),
            ColumnData::Float64(v) => v[row].to_bits().hash(&mut h),
            ColumnData::Text(t) => t.get(row).hash(&mut h),
        }
    }
    h.finish()
}

/// True if the composite keys at `(a_cols, a_row)` and `(b_cols, b_row)`
/// are equal value-wise.
pub fn rows_equal(
    a_cols: &[&ColumnData],
    a_row: usize,
    b_cols: &[&ColumnData],
    b_row: usize,
) -> bool {
    debug_assert_eq!(a_cols.len(), b_cols.len());
    a_cols.iter().zip(b_cols.iter()).all(|(a, b)| match (a, b) {
        (
            ColumnData::Int64(x) | ColumnData::Timestamp(x),
            ColumnData::Int64(y) | ColumnData::Timestamp(y),
        ) => x[a_row] == y[b_row],
        (ColumnData::Float64(x), ColumnData::Float64(y)) => x[a_row] == y[b_row],
        (ColumnData::Text(x), ColumnData::Text(y)) => x.get(a_row) == y.get(b_row),
        _ => false,
    })
}

/// End (exclusive) of the maximal run of rows from `start` (`< rows`)
/// whose composite key has the same representation as row `start`'s:
/// equal integers, equal text codes, equal float bits. A NaN ends its
/// run at once, since it equals nothing. Rows of one run hash alike and
/// compare equal to exactly the same keys, so one probe or group lookup
/// made for `start` serves the whole run.
///
/// The rows are checked in blocks that double in size, every column
/// per block, so finding a run costs about its length times the key
/// width: a leading column that is constant down the relation is not
/// scanned to its end for every run.
pub fn key_run_end(cols: &[&ColumnData], start: usize, rows: usize) -> usize {
    if cols.iter().any(|c| matches!(c, ColumnData::Float64(v) if v[start].is_nan())) {
        return start + 1;
    }
    let (mut lo, mut width) = (start + 1, 16);
    while lo < rows {
        let hi = (lo + width).min(rows);
        let mut end = hi;
        for col in cols {
            let differs = match col {
                ColumnData::Int64(v) | ColumnData::Timestamp(v) => {
                    let k = v[start];
                    v[lo..end].iter().position(|&x| x != k)
                }
                ColumnData::Float64(v) => {
                    let k = v[start].to_bits();
                    v[lo..end].iter().position(|x| x.to_bits() != k)
                }
                ColumnData::Text(t) => {
                    let k = t.codes[start];
                    t.codes[lo..end].iter().position(|&c| c != k)
                }
            };
            if let Some(p) = differs {
                end = lo + p;
            }
        }
        if end < hi {
            return end;
        }
        lo = hi;
        width *= 2;
    }
    rows
}

/// The index payload: generic hashed composite keys, or the exact
/// single-`i64`-key map of the fast lane (no collision re-check needed
/// — the key *is* the map key).
#[derive(Debug)]
enum Buckets {
    /// hash → candidate row positions (collisions resolved by re-check).
    Generic(HashMap<u64, Vec<u32>>),
    /// key → row positions, multiply-shift hashed.
    I64(HashMap<i64, Vec<u32>, BuildHasherDefault<I64KeyHasher>>),
    /// Two-integer composite key → row positions (e.g. the
    /// `(seg_id, file_id)` probe of the chunk-side join).
    I64Pair(HashMap<(i64, i64), Vec<u32>, BuildHasherDefault<I64KeyHasher>>),
    /// Three-integer composite key → row positions (e.g. the
    /// `(seg_id, file_id, hour_bucket)` probe of a windowed join).
    I64Triple(HashMap<(i64, i64, i64), Vec<u32>, BuildHasherDefault<I64KeyHasher>>),
}

impl Default for Buckets {
    fn default() -> Self {
        Buckets::Generic(HashMap::new())
    }
}

/// A multi-column hash index mapping composite keys to row positions.
/// Single integer-family keys (the system-assigned chunk/segment ids
/// every FK join and PK probe here uses) take an exact-keyed fast lane.
#[derive(Debug, Default)]
pub struct HashIndex {
    buckets: Buckets,
    rows: usize,
}

impl HashIndex {
    /// Build over the given key columns (all must share a length).
    pub fn build(cols: &[&ColumnData]) -> Self {
        let rows = cols.first().map_or(0, |c| c.len());
        match cols {
            [col] => {
                if let Some(keys) = i64_keyable(col) {
                    let mut map: HashMap<i64, Vec<u32>, BuildHasherDefault<I64KeyHasher>> =
                        HashMap::with_capacity_and_hasher(rows, Default::default());
                    for (r, &k) in keys.iter().enumerate() {
                        map.entry(k).or_default().push(r as u32);
                    }
                    return HashIndex { buckets: Buckets::I64(map), rows };
                }
            }
            [a, b] => {
                if let (Some(ka), Some(kb)) = (i64_keyable(a), i64_keyable(b)) {
                    let mut map: HashMap<
                        (i64, i64),
                        Vec<u32>,
                        BuildHasherDefault<I64KeyHasher>,
                    > = HashMap::with_capacity_and_hasher(rows, Default::default());
                    for (r, (&x, &y)) in ka.iter().zip(kb).enumerate() {
                        map.entry((x, y)).or_default().push(r as u32);
                    }
                    return HashIndex { buckets: Buckets::I64Pair(map), rows };
                }
            }
            [a, b, c] => {
                if let (Some(ka), Some(kb), Some(kc)) =
                    (i64_keyable(a), i64_keyable(b), i64_keyable(c))
                {
                    let mut map: HashMap<
                        (i64, i64, i64),
                        Vec<u32>,
                        BuildHasherDefault<I64KeyHasher>,
                    > = HashMap::with_capacity_and_hasher(rows, Default::default());
                    for (r, ((&x, &y), &z)) in ka.iter().zip(kb).zip(kc).enumerate() {
                        map.entry((x, y, z)).or_default().push(r as u32);
                    }
                    return HashIndex { buckets: Buckets::I64Triple(map), rows };
                }
            }
            _ => {}
        }
        let mut buckets: HashMap<u64, Vec<u32>> = HashMap::with_capacity(rows);
        for r in 0..rows {
            buckets.entry(hash_row(cols, r)).or_default().push(r as u32);
        }
        HashIndex { buckets: Buckets::Generic(buckets), rows }
    }

    /// Build and verify uniqueness (for primary keys). Returns an error
    /// naming the first duplicate found.
    pub fn build_unique(cols: &[&ColumnData], table: &str) -> Result<Self> {
        let rows = cols.first().map_or(0, |c| c.len());
        if let [col] = cols {
            if let Some(keys) = i64_keyable(col) {
                let mut map: HashMap<i64, Vec<u32>, BuildHasherDefault<I64KeyHasher>> =
                    HashMap::with_capacity_and_hasher(rows, Default::default());
                for (r, &k) in keys.iter().enumerate() {
                    match map.entry(k) {
                        Entry::Vacant(e) => {
                            e.insert(vec![r as u32]);
                        }
                        Entry::Occupied(_) => {
                            return Err(StorageError::Constraint(format!(
                                "duplicate primary key [{}] in table {table}",
                                col.get(r)
                            )));
                        }
                    }
                }
                return Ok(HashIndex { buckets: Buckets::I64(map), rows });
            }
        }
        let mut buckets: HashMap<u64, Vec<u32>> = HashMap::with_capacity(rows);
        for r in 0..rows {
            match buckets.entry(hash_row(cols, r)) {
                Entry::Vacant(e) => {
                    e.insert(vec![r as u32]);
                }
                Entry::Occupied(mut e) => {
                    for &prev in e.get().iter() {
                        if rows_equal(cols, prev as usize, cols, r) {
                            let key: Vec<Value> = cols.iter().map(|c| c.get(r)).collect();
                            return Err(StorageError::Constraint(format!(
                                "duplicate primary key {key:?} in table {table}"
                            )));
                        }
                    }
                    e.get_mut().push(r as u32);
                }
            }
        }
        Ok(HashIndex { buckets: Buckets::Generic(buckets), rows })
    }

    /// Number of indexed rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Insert the composite key at `(cols, row)`, failing if an equal key
    /// is already present. Used for incremental primary-key maintenance
    /// on append.
    pub fn try_insert(
        &mut self,
        cols: &[&ColumnData],
        row: usize,
        table: &str,
    ) -> Result<()> {
        // A default-constructed (empty) index adopts a fast lane on
        // first insert when the key shape allows it.
        if self.rows == 0 {
            if let Buckets::Generic(_) = &self.buckets {
                match cols {
                    [col] if i64_keyable(col).is_some() => {
                        self.buckets = Buckets::I64(HashMap::default());
                    }
                    [a, b] if i64_keyable(a).is_some() && i64_keyable(b).is_some() => {
                        self.buckets = Buckets::I64Pair(HashMap::default());
                    }
                    [a, b, c]
                        if i64_keyable(a).is_some()
                            && i64_keyable(b).is_some()
                            && i64_keyable(c).is_some() =>
                    {
                        self.buckets = Buckets::I64Triple(HashMap::default());
                    }
                    _ => {}
                }
            }
        }
        match &mut self.buckets {
            Buckets::I64(map) => {
                let [col] = cols else {
                    return Err(StorageError::Value(
                        "composite key inserted into a single-key index".into(),
                    ));
                };
                let Some(keys) = i64_keyable(col) else {
                    return Err(StorageError::Value(
                        "non-integer key inserted into an i64-keyed index".into(),
                    ));
                };
                match map.entry(keys[row]) {
                    Entry::Vacant(e) => {
                        e.insert(vec![row as u32]);
                    }
                    Entry::Occupied(_) => {
                        return Err(StorageError::Constraint(format!(
                            "duplicate primary key [{}] in table {table}",
                            col.get(row)
                        )));
                    }
                }
            }
            Buckets::I64Pair(map) => {
                let [a, b] = cols else {
                    return Err(StorageError::Value(
                        "key arity mismatch on a two-key index".into(),
                    ));
                };
                let (Some(ka), Some(kb)) = (i64_keyable(a), i64_keyable(b)) else {
                    return Err(StorageError::Value(
                        "non-integer key inserted into an i64-keyed index".into(),
                    ));
                };
                match map.entry((ka[row], kb[row])) {
                    Entry::Vacant(e) => {
                        e.insert(vec![row as u32]);
                    }
                    Entry::Occupied(_) => {
                        return Err(StorageError::Constraint(format!(
                            "duplicate primary key [{}, {}] in table {table}",
                            a.get(row),
                            b.get(row)
                        )));
                    }
                }
            }
            Buckets::I64Triple(map) => {
                let [a, b, c] = cols else {
                    return Err(StorageError::Value(
                        "key arity mismatch on a three-key index".into(),
                    ));
                };
                let (Some(ka), Some(kb), Some(kc)) =
                    (i64_keyable(a), i64_keyable(b), i64_keyable(c))
                else {
                    return Err(StorageError::Value(
                        "non-integer key inserted into an i64-keyed index".into(),
                    ));
                };
                match map.entry((ka[row], kb[row], kc[row])) {
                    Entry::Vacant(e) => {
                        e.insert(vec![row as u32]);
                    }
                    Entry::Occupied(_) => {
                        return Err(StorageError::Constraint(format!(
                            "duplicate primary key [{}, {}, {}] in table {table}",
                            a.get(row),
                            b.get(row),
                            c.get(row)
                        )));
                    }
                }
            }
            Buckets::Generic(buckets) => {
                let h = hash_row(cols, row);
                if let Some(bucket) = buckets.get(&h) {
                    for &prev in bucket {
                        if rows_equal(cols, prev as usize, cols, row) {
                            let key: Vec<Value> = cols.iter().map(|c| c.get(row)).collect();
                            return Err(StorageError::Constraint(format!(
                                "duplicate primary key {key:?} in table {table}"
                            )));
                        }
                    }
                }
                buckets.entry(h).or_default().push(row as u32);
            }
        }
        self.rows += 1;
        Ok(())
    }

    /// Probe with the composite key at `(probe_cols, probe_row)`;
    /// returns matching build-side positions.
    pub fn probe(
        &self,
        build_cols: &[&ColumnData],
        probe_cols: &[&ColumnData],
        probe_row: usize,
    ) -> impl Iterator<Item = u32> + '_ {
        let mut hits = Vec::new();
        self.probe_into(build_cols, probe_cols, probe_row, &mut hits);
        hits.into_iter()
    }

    /// Allocation-free probe: append the matching build-side positions
    /// to `out`. The bulk join probe calls this once per run of equal
    /// probe keys ([`key_run_end`]) with a reused scratch vector.
    pub fn probe_into(
        &self,
        build_cols: &[&ColumnData],
        probe_cols: &[&ColumnData],
        probe_row: usize,
        out: &mut Vec<u32>,
    ) {
        match &self.buckets {
            Buckets::I64(map) => {
                // Exact-keyed: no hash collisions, no row re-check. A
                // probe whose key shape cannot match an integer key
                // matches nothing (as the generic re-check would rule).
                let [col] = probe_cols else { return };
                let Some(keys) = i64_keyable(col) else { return };
                if let Some(candidates) = map.get(&keys[probe_row]) {
                    out.extend_from_slice(candidates);
                }
            }
            Buckets::I64Pair(map) => {
                let [a, b] = probe_cols else { return };
                let (Some(ka), Some(kb)) = (i64_keyable(a), i64_keyable(b)) else { return };
                if let Some(candidates) = map.get(&(ka[probe_row], kb[probe_row])) {
                    out.extend_from_slice(candidates);
                }
            }
            Buckets::I64Triple(map) => {
                let [a, b, c] = probe_cols else { return };
                let (Some(ka), Some(kb), Some(kc)) =
                    (i64_keyable(a), i64_keyable(b), i64_keyable(c))
                else {
                    return;
                };
                if let Some(candidates) =
                    map.get(&(ka[probe_row], kb[probe_row], kc[probe_row]))
                {
                    out.extend_from_slice(candidates);
                }
            }
            Buckets::Generic(buckets) => {
                let hash = hash_row(probe_cols, probe_row);
                if let Some(candidates) = buckets.get(&hash) {
                    for &b in candidates {
                        if rows_equal(build_cols, b as usize, probe_cols, probe_row) {
                            out.push(b);
                        }
                    }
                }
            }
        }
    }

    /// Approximate heap bytes (for the Table III "+keys" column).
    pub fn approx_bytes(&self) -> usize {
        let keys = match &self.buckets {
            Buckets::Generic(b) => b.len(),
            Buckets::I64(m) => m.len(),
            Buckets::I64Pair(m) => m.len(),
            Buckets::I64Triple(m) => m.len(),
        };
        keys * 48 + self.rows * 4
    }
}

/// The materialized FK→parent join index: `positions[child_row]` is the
/// parent row position.
#[derive(Debug)]
pub struct JoinIndex {
    pub parent_table: String,
    pub positions: Vec<u32>,
}

impl JoinIndex {
    /// Build by probing the parent PK index with every child FK value.
    /// Fails if a child row has no parent (dangling FK) — this is the
    /// constraint-verification work the paper's *lazy* variant skips.
    pub fn build(
        parent_table: &str,
        parent_pk: &HashIndex,
        parent_cols: &[&ColumnData],
        child_cols: &[&ColumnData],
    ) -> Result<Self> {
        let child_rows = child_cols.first().map_or(0, |c| c.len());
        let mut positions = Vec::with_capacity(child_rows);
        for r in 0..child_rows {
            let mut matches = parent_pk.probe(parent_cols, child_cols, r);
            match matches.next() {
                Some(p) => positions.push(p),
                None => {
                    let key: Vec<Value> = child_cols.iter().map(|c| c.get(r)).collect();
                    return Err(StorageError::Constraint(format!(
                        "foreign key {key:?} has no parent in {parent_table}"
                    )));
                }
            }
        }
        Ok(JoinIndex { parent_table: parent_table.to_string(), positions })
    }

    /// Approximate heap bytes.
    pub fn approx_bytes(&self) -> usize {
        self.positions.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::TextColumn;

    /// `key_run_end` against its row-by-row definition, on generated
    /// keys whose leading column is often constant for long stretches
    /// (runs longer than the first blocks), with NaNs and ±0.0.
    #[test]
    fn key_run_end_matches_the_row_wise_definition() {
        let same = |c: &ColumnData, a: usize, b: usize| match c {
            ColumnData::Int64(v) | ColumnData::Timestamp(v) => v[a] == v[b],
            ColumnData::Float64(v) => !v[a].is_nan() && v[a].to_bits() == v[b].to_bits(),
            ColumnData::Text(t) => t.codes[a] == t.codes[b],
        };
        let mut rng = crate::rng::Rng::new(0);
        for _ in 0..300 {
            let n = 1 + rng.below(200);
            let mut lead = Vec::with_capacity(n);
            let (mut tail, mut floats, mut text) = (Vec::new(), Vec::new(), Vec::new());
            let floats_of = [0.0, -0.0, 1.5, f64::NAN];
            for _ in 0..n {
                if lead.is_empty() || rng.one_in(90) {
                    lead.push(rng.range(0..3));
                } else {
                    lead.push(*lead.last().unwrap());
                }
                tail.push(rng.range(0..40) / 39);
                floats.push(floats_of[usize::from(rng.one_in(30)) * (1 + rng.below(3))]);
                text.push(["a", "b"][usize::from(rng.one_in(50))]);
            }
            let cols = [
                ColumnData::Int64(lead),
                ColumnData::Timestamp(tail),
                ColumnData::Float64(floats),
                ColumnData::Text(TextColumn::from_strs(text)),
            ];
            for width in 1..=cols.len() {
                let keys: Vec<&ColumnData> = cols[..width].iter().collect();
                for start in 0..n {
                    let want = (start + 1..n)
                        .find(|&r| !keys.iter().all(|c| same(c, start, r)))
                        .unwrap_or(n);
                    let want = if keys.iter().any(|c| !same(c, start, start)) {
                        start + 1
                    } else {
                        want
                    };
                    assert_eq!(
                        key_run_end(&keys, start, n),
                        want,
                        "start {start}, {width} keys"
                    );
                }
            }
        }
    }

    #[test]
    fn hash_index_probe_finds_rows() {
        let keys = ColumnData::Int64(vec![10, 20, 10, 30]);
        let idx = HashIndex::build(&[&keys]);
        let probe = ColumnData::Int64(vec![10, 99]);
        let hits: Vec<u32> = idx.probe(&[&keys], &[&probe], 0).collect();
        assert_eq!(hits, vec![0, 2]);
        let misses: Vec<u32> = idx.probe(&[&keys], &[&probe], 1).collect();
        assert!(misses.is_empty());
    }

    #[test]
    fn composite_text_keys() {
        let station = ColumnData::Text(TextColumn::from_strs(["ISK", "FIAM", "ISK"]));
        let channel = ColumnData::Text(TextColumn::from_strs(["BHE", "HHZ", "BHZ"]));
        let idx = HashIndex::build(&[&station, &channel]);
        // Probe with columns using a *different* dictionary ordering.
        let p_station = ColumnData::Text(TextColumn::from_strs(["ISK"]));
        let p_channel = ColumnData::Text(TextColumn::from_strs(["BHZ"]));
        let hits: Vec<u32> =
            idx.probe(&[&station, &channel], &[&p_station, &p_channel], 0).collect();
        assert_eq!(hits, vec![2]);
    }

    #[test]
    fn unique_build_rejects_duplicates() {
        let keys = ColumnData::Int64(vec![1, 2, 1]);
        match HashIndex::build_unique(&[&keys], "F") {
            Err(StorageError::Constraint(msg)) => assert!(msg.contains('F')),
            other => panic!("expected constraint violation, got {other:?}"),
        }
        assert!(HashIndex::build_unique(&[&ColumnData::Int64(vec![1, 2, 3])], "F").is_ok());
    }

    #[test]
    fn join_index_maps_children_to_parents() {
        let parent = ColumnData::Int64(vec![100, 200, 300]);
        let pk = HashIndex::build_unique(&[&parent], "F").unwrap();
        let child = ColumnData::Int64(vec![300, 100, 100]);
        let ji = JoinIndex::build("F", &pk, &[&parent], &[&child]).unwrap();
        assert_eq!(ji.positions, vec![2, 0, 0]);
    }

    #[test]
    fn join_index_detects_dangling_fk() {
        let parent = ColumnData::Int64(vec![1]);
        let pk = HashIndex::build_unique(&[&parent], "F").unwrap();
        let child = ColumnData::Int64(vec![1, 7]);
        assert!(matches!(
            JoinIndex::build("F", &pk, &[&parent], &[&child]),
            Err(StorageError::Constraint(_))
        ));
    }

    #[test]
    fn empty_index() {
        let keys = ColumnData::Int64(vec![]);
        let idx = HashIndex::build(&[&keys]);
        assert_eq!(idx.rows(), 0);
        let probe = ColumnData::Int64(vec![1]);
        assert_eq!(idx.probe(&[&keys], &[&probe], 0).count(), 0);
    }
}
