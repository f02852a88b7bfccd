//! On-disk paged column files.
//!
//! A column is stored as a little-endian fixed-width array in the data
//! region of its file (`i64`/`f64`/timestamp: 8 bytes per row; text:
//! 4-byte dictionary codes, with the dictionary in a companion
//! `<name>.dict` file). The header lives in the first
//! [`crate::page::DATA_START`] bytes so that page `n` of the data region
//! maps to a fixed file offset.
//!
//! Reads go through the [`crate::buffer::BufferPool`]; writes are
//! buffered appends directly to the file (the caller invalidates the
//! pool afterwards). [`crate::page::PAGE_SIZE`] is a multiple of both
//! value widths, so values never straddle pages.

use crate::buffer::BufferPool;
use crate::column::{ColumnData, Dict, TextColumn};
use crate::error::{Result, StorageError};
use crate::page::{locate, PageKey, DATA_START, PAGE_SIZE};
use crate::value::DataType;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"SOMC";
const DICT_MAGIC: &[u8; 4] = b"SOMD";
const VERSION: u32 = 1;

/// Handle to one on-disk column.
#[derive(Debug)]
pub struct ColumnFile {
    path: PathBuf,
    dtype: DataType,
    rows: u64,
    /// Loaded dictionary for text columns (kept in memory; dictionaries
    /// are metadata-sized).
    dict: Option<Arc<Dict>>,
}

impl ColumnFile {
    /// Create a new, empty column file (truncates any existing one).
    pub fn create(path: &Path, dtype: DataType) -> Result<Self> {
        let mut f = File::create(path)
            .map_err(|e| StorageError::io(format!("creating {}", path.display()), e))?;
        write_header(&mut f, dtype, 0)?;
        let dict = if dtype == DataType::Text {
            let d = Arc::new(Dict::new());
            write_dict(&dict_path(path), &d)?;
            Some(d)
        } else {
            None
        };
        Ok(ColumnFile { path: path.to_path_buf(), dtype, rows: 0, dict })
    }

    /// Open an existing column file, reading its header and dictionary.
    pub fn open(path: &Path) -> Result<Self> {
        let mut f = File::open(path)
            .map_err(|e| StorageError::io(format!("opening {}", path.display()), e))?;
        let (dtype, rows) = read_header(&mut f, path)?;
        let dict = if dtype == DataType::Text {
            Some(Arc::new(read_dict(&dict_path(path))?))
        } else {
            None
        };
        Ok(ColumnFile { path: path.to_path_buf(), dtype, rows, dict })
    }

    /// The column's type.
    pub fn data_type(&self) -> DataType {
        self.dtype
    }

    /// Number of rows currently stored.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes on disk (data file plus dictionary file).
    pub fn disk_bytes(&self) -> u64 {
        let mut total = std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0);
        if self.dtype == DataType::Text {
            total += std::fs::metadata(dict_path(&self.path)).map(|m| m.len()).unwrap_or(0);
        }
        total
    }

    /// Flush the column's files (data and dictionary) to the device.
    pub fn sync_all(&self) -> Result<()> {
        let mut paths = vec![self.path.clone()];
        if self.dict.is_some() {
            paths.push(dict_path(&self.path));
        }
        for p in paths {
            File::open(&p)
                .and_then(|f| f.sync_all())
                .map_err(|e| StorageError::io(format!("syncing {}", p.display()), e))?;
        }
        Ok(())
    }

    /// Move this column's files over those of the column at `path`,
    /// replacing them (the dictionary first, then the data file); the
    /// handle then names `path`.
    pub fn rename_over(&mut self, path: &Path) -> Result<()> {
        let rename = |from: &Path, to: &Path| {
            std::fs::rename(from, to).map_err(|e| {
                StorageError::io(
                    format!("renaming {} to {}", from.display(), to.display()),
                    e,
                )
            })
        };
        if self.dict.is_some() {
            rename(&dict_path(&self.path), &dict_path(path))?;
        }
        rename(&self.path, path)?;
        self.path = path.to_path_buf();
        Ok(())
    }

    /// Append a column vector. The caller must invalidate the buffer
    /// pool for this file afterwards (see [`crate::db::Database`]).
    pub fn append(&mut self, data: &ColumnData) -> Result<()> {
        if data.data_type() != self.dtype {
            return Err(StorageError::Schema(format!(
                "cannot append {} data to {} column {}",
                data.data_type(),
                self.dtype,
                self.path.display()
            )));
        }
        let mut f =
            OpenOptions::new().read(true).write(true).open(&self.path).map_err(|e| {
                StorageError::io(format!("opening {}", self.path.display()), e)
            })?;
        let width = self.dtype.disk_width() as u64;
        f.seek(SeekFrom::Start(DATA_START + self.rows * width))
            .map_err(|e| StorageError::io("seeking to append position", e))?;
        let mut w = BufWriter::new(&mut f);
        match data {
            ColumnData::Int64(v) | ColumnData::Timestamp(v) => {
                for x in v {
                    w.write_all(&x.to_le_bytes())
                        .map_err(|e| StorageError::io("append", e))?;
                }
            }
            ColumnData::Float64(v) => {
                for x in v {
                    w.write_all(&x.to_le_bytes())
                        .map_err(|e| StorageError::io("append", e))?;
                }
            }
            ColumnData::Text(t) => {
                // Remap the incoming codes into this file's dictionary.
                let dict = self.dict.as_mut().expect("text column has a dict");
                let mut remap: Vec<Option<u32>> = vec![None; t.dict.len()];
                for &c in &t.codes {
                    let mapped = match remap[c as usize] {
                        Some(m) => m,
                        None => {
                            let s = t.dict.get(c);
                            let m = match dict.code_of(s) {
                                Some(m) => m,
                                None => Arc::make_mut(dict).intern(s),
                            };
                            remap[c as usize] = Some(m);
                            m
                        }
                    };
                    w.write_all(&mapped.to_le_bytes())
                        .map_err(|e| StorageError::io("append", e))?;
                }
            }
        }
        w.flush().map_err(|e| StorageError::io("flushing append", e))?;
        drop(w);
        self.rows += data.len() as u64;
        write_header(&mut f, self.dtype, self.rows)?;
        if let Some(dict) = &self.dict {
            write_dict(&dict_path(&self.path), dict)?;
        }
        Ok(())
    }

    /// Read rows `[from, to)` through the buffer pool.
    pub fn read_range(&self, pool: &BufferPool, from: u64, to: u64) -> Result<ColumnData> {
        let to = to.min(self.rows);
        if from >= to {
            return Ok(match self.dtype {
                DataType::Text => ColumnData::Text(TextColumn {
                    dict: self.dict.clone().unwrap_or_default(),
                    codes: Vec::new(),
                }),
                dt => ColumnData::empty(dt),
            });
        }
        let fid = pool.disk().register(&self.path)?;
        let width = self.dtype.disk_width() as u64;
        let n = (to - from) as usize;
        let mut raw = Vec::with_capacity(n * width as usize);
        let mut offset = from * width;
        let end = to * width;
        while offset < end {
            let (page_no, in_page) = locate(offset);
            let page = pool.get_page(PageKey { file: fid, page_no })?;
            let take = ((end - offset) as usize).min(PAGE_SIZE - in_page);
            if in_page + take > page.valid {
                return Err(StorageError::Corrupt(format!(
                    "column {} shorter than header row count",
                    self.path.display()
                )));
            }
            raw.extend_from_slice(&page.bytes()[in_page..in_page + take]);
            offset += take as u64;
        }
        Ok(match self.dtype {
            DataType::Int64 => ColumnData::Int64(decode_i64(&raw)),
            DataType::Timestamp => ColumnData::Timestamp(decode_i64(&raw)),
            DataType::Float64 => ColumnData::Float64(
                raw.chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            ),
            DataType::Text => ColumnData::Text(TextColumn {
                dict: Arc::clone(self.dict.as_ref().expect("text column has a dict")),
                codes: raw
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            }),
        })
    }

    /// Read the whole column through the buffer pool.
    pub fn read_all(&self, pool: &BufferPool) -> Result<ColumnData> {
        self.read_range(pool, 0, self.rows)
    }
}

fn decode_i64(raw: &[u8]) -> Vec<i64> {
    raw.chunks_exact(8).map(|c| i64::from_le_bytes(c.try_into().unwrap())).collect()
}

fn dict_path(path: &Path) -> PathBuf {
    let mut p = path.as_os_str().to_owned();
    p.push(".dict");
    PathBuf::from(p)
}

fn write_header(f: &mut File, dtype: DataType, rows: u64) -> Result<()> {
    f.seek(SeekFrom::Start(0)).map_err(|e| StorageError::io("seek header", e))?;
    let mut header = [0u8; 24];
    header[0..4].copy_from_slice(MAGIC);
    header[4..8].copy_from_slice(&VERSION.to_le_bytes());
    header[8] = dtype.tag();
    header[16..24].copy_from_slice(&rows.to_le_bytes());
    f.write_all(&header).map_err(|e| StorageError::io("write header", e))?;
    Ok(())
}

fn read_header(f: &mut File, path: &Path) -> Result<(DataType, u64)> {
    let mut header = [0u8; 24];
    f.read_exact(&mut header)
        .map_err(|e| StorageError::io(format!("reading header of {}", path.display()), e))?;
    if &header[0..4] != MAGIC {
        return Err(StorageError::Corrupt(format!("{}: bad magic", path.display())));
    }
    let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if version != VERSION {
        return Err(StorageError::Corrupt(format!(
            "{}: unsupported version {version}",
            path.display()
        )));
    }
    let dtype = DataType::from_tag(header[8])?;
    let rows = u64::from_le_bytes(header[16..24].try_into().unwrap());
    Ok((dtype, rows))
}

fn write_dict(path: &Path, dict: &Dict) -> Result<()> {
    let f = File::create(path)
        .map_err(|e| StorageError::io(format!("creating {}", path.display()), e))?;
    let mut w = BufWriter::new(f);
    w.write_all(DICT_MAGIC).map_err(|e| StorageError::io("dict write", e))?;
    w.write_all(&(dict.len() as u64).to_le_bytes())
        .map_err(|e| StorageError::io("dict write", e))?;
    for s in dict.strings() {
        w.write_all(&(s.len() as u32).to_le_bytes())
            .map_err(|e| StorageError::io("dict write", e))?;
        w.write_all(s.as_bytes()).map_err(|e| StorageError::io("dict write", e))?;
    }
    w.flush().map_err(|e| StorageError::io("dict flush", e))?;
    Ok(())
}

fn read_dict(path: &Path) -> Result<Dict> {
    let mut raw = Vec::new();
    File::open(path)
        .map_err(|e| StorageError::io(format!("opening {}", path.display()), e))?
        .read_to_end(&mut raw)
        .map_err(|e| StorageError::io("dict read", e))?;
    let corrupt = || StorageError::Corrupt(format!("{}: bad dictionary", path.display()));
    if raw.len() < 12 || &raw[0..4] != DICT_MAGIC {
        return Err(corrupt());
    }
    let count = u64::from_le_bytes(raw[4..12].try_into().unwrap()) as usize;
    let mut dict = Dict::new();
    let mut pos = 12usize;
    for _ in 0..count {
        if pos + 4 > raw.len() {
            return Err(corrupt());
        }
        let len = u32::from_le_bytes(raw[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4;
        if pos + len > raw.len() {
            return Err(corrupt());
        }
        let s = std::str::from_utf8(&raw[pos..pos + len]).map_err(|_| corrupt())?;
        dict.intern(s);
        pos += len;
    }
    Ok(dict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferPoolConfig;
    use crate::value::Value;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "somm-colfile-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn pool() -> BufferPool {
        BufferPool::new(BufferPoolConfig::default())
    }

    #[test]
    fn int_roundtrip() {
        let dir = TempDir::new("int");
        let path = dir.0.join("c.col");
        let mut cf = ColumnFile::create(&path, DataType::Int64).unwrap();
        cf.append(&ColumnData::Int64(vec![1, -2, 3])).unwrap();
        cf.append(&ColumnData::Int64(vec![4])).unwrap();
        assert_eq!(cf.rows(), 4);

        let pool = pool();
        let back = cf.read_all(&pool).unwrap();
        assert_eq!(back.as_i64().unwrap(), &[1, -2, 3, 4]);

        // Reopen from disk.
        let cf2 = ColumnFile::open(&path).unwrap();
        assert_eq!(cf2.rows(), 4);
        assert_eq!(cf2.read_all(&pool).unwrap().as_i64().unwrap(), &[1, -2, 3, 4]);
    }

    #[test]
    fn float_and_range_reads() {
        let dir = TempDir::new("float");
        let path = dir.0.join("c.col");
        let mut cf = ColumnFile::create(&path, DataType::Float64).unwrap();
        let vals: Vec<f64> = (0..20_000).map(|i| i as f64 * 0.5).collect();
        cf.append(&ColumnData::Float64(vals.clone())).unwrap();
        let pool = pool();
        // A range crossing the first page boundary (8192 f64 per page).
        let r = cf.read_range(&pool, 8190, 8194).unwrap();
        assert_eq!(r.as_f64().unwrap(), &vals[8190..8194]);
        // Past-the-end clamps.
        let r = cf.read_range(&pool, 19_999, 50_000).unwrap();
        assert_eq!(r.len(), 1);
        // Empty range.
        assert_eq!(cf.read_range(&pool, 5, 5).unwrap().len(), 0);
    }

    #[test]
    fn text_roundtrip_with_dict_merge() {
        let dir = TempDir::new("text");
        let path = dir.0.join("c.col");
        let mut cf = ColumnFile::create(&path, DataType::Text).unwrap();
        cf.append(&ColumnData::Text(TextColumn::from_strs(["ISK", "FIAM", "ISK"]))).unwrap();
        // Second append with a different dictionary ordering.
        cf.append(&ColumnData::Text(TextColumn::from_strs(["AQU", "FIAM"]))).unwrap();
        let pool = pool();
        let back = cf.read_all(&pool).unwrap();
        let got: Vec<String> = (0..back.len())
            .map(|i| match back.get(i) {
                Value::Text(s) => s,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(got, vec!["ISK", "FIAM", "ISK", "AQU", "FIAM"]);

        // Reopened handle sees the merged dictionary.
        let cf2 = ColumnFile::open(&path).unwrap();
        let back2 = cf2.read_all(&pool).unwrap();
        assert_eq!(back2.as_text().unwrap().dict.len(), 3);
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let dir = TempDir::new("magic");
        let path = dir.0.join("c.col");
        std::fs::write(&path, b"NOPExxxxxxxxxxxxxxxxxxxxxxxx").unwrap();
        match ColumnFile::open(&path) {
            Err(StorageError::Corrupt(_)) => {}
            other => panic!("expected corrupt error, got {other:?}"),
        }
    }

    #[test]
    fn type_mismatch_on_append() {
        let dir = TempDir::new("mismatch");
        let path = dir.0.join("c.col");
        let mut cf = ColumnFile::create(&path, DataType::Int64).unwrap();
        assert!(cf.append(&ColumnData::Float64(vec![1.0])).is_err());
    }

    #[test]
    fn disk_bytes_grows_with_data() {
        let dir = TempDir::new("size");
        let path = dir.0.join("c.col");
        let mut cf = ColumnFile::create(&path, DataType::Int64).unwrap();
        let empty = cf.disk_bytes();
        cf.append(&ColumnData::Int64(vec![0; 1000])).unwrap();
        assert!(cf.disk_bytes() >= empty + 8_000);
    }
}
