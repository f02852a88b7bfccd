//! Reading chunk files, at two granularities.
//!
//! * [`read_metadata`] parses only the control header and segment
//!   directory — the *given metadata*. This is what makes the paper's
//!   lazy registration "orders of magnitude faster than extracting and
//!   loading all data" (§VI-B): the payload bytes are never touched.
//! * [`read_full`] additionally decodes every payload (the
//!   `chunk-access` operator's job).

use crate::error::{MseedError, Result};
use crate::format::{read_str8, DIR_ENTRY_BYTES, ENCODING_STEIM, MAGIC, VERSION};
use crate::record::{FileMeta, MseedFile, SegmentData, SegmentMeta};
use crate::steim;
use std::io::Read;
use std::path::Path;

/// Parsed header + directory, before payload decoding.
#[derive(Debug, Clone)]
pub struct FileHeader {
    pub meta: FileMeta,
    pub segments: Vec<SegmentMeta>,
    /// Byte ranges of each segment's payload, parallel to `segments`.
    pub payload_spans: Vec<(u64, u32)>,
    /// Size of the header + directory prefix in bytes.
    pub header_bytes: usize,
}

fn parse_header(bytes: &[u8], what: &str) -> Result<FileHeader> {
    let corrupt = |msg: &str| MseedError::Corrupt(format!("{what}: {msg}"));
    if bytes.len() < 8 || &bytes[..4] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != VERSION {
        return Err(corrupt(&format!("unsupported version {version}")));
    }
    let mut pos = 8;
    let mut next_str = |field: &str| -> Result<String> {
        let (s, next) = read_str8(bytes, pos)
            .ok_or_else(|| MseedError::Corrupt(format!("{what}: truncated {field}")))?;
        pos = next;
        Ok(s)
    };
    let network = next_str("network")?;
    let station = next_str("station")?;
    let location = next_str("location")?;
    let channel = next_str("channel")?;
    let data_quality = next_str("data_quality")?;
    let tail = bytes.get(pos..pos + 6).ok_or_else(|| corrupt("truncated fixed header"))?;
    let encoding = tail[0];
    let byte_order = tail[1];
    if encoding != ENCODING_STEIM {
        return Err(corrupt(&format!("unknown encoding {encoding}")));
    }
    if byte_order != 0 {
        return Err(corrupt(&format!("unknown byte order {byte_order}")));
    }
    let seg_count = u32::from_le_bytes(tail[2..6].try_into().unwrap()) as usize;
    pos += 6;

    let mut segments = Vec::with_capacity(seg_count);
    let mut payload_spans = Vec::with_capacity(seg_count);
    for _ in 0..seg_count {
        let entry = bytes
            .get(pos..pos + DIR_ENTRY_BYTES)
            .ok_or_else(|| corrupt("truncated segment directory"))?;
        let seg_index = u32::from_le_bytes(entry[0..4].try_into().unwrap());
        let start_time = i64::from_le_bytes(entry[4..12].try_into().unwrap());
        let frequency = f64::from_le_bytes(entry[12..20].try_into().unwrap());
        let sample_count = u32::from_le_bytes(entry[20..24].try_into().unwrap());
        let payload_offset = u64::from_le_bytes(entry[24..32].try_into().unwrap());
        let payload_len = u32::from_le_bytes(entry[32..36].try_into().unwrap());
        if frequency <= 0.0 || frequency.is_nan() {
            return Err(corrupt("non-positive frequency"));
        }
        let meta = SegmentMeta { seg_index, start_time, frequency, sample_count };
        // The last sample's time, and the end just after it, must fit in
        // an i64; every earlier time then fits too and the times never
        // decrease within the segment (the decoder's sortedness proof
        // relies on it).
        let last = sample_count.checked_sub(1).map(|i| meta.checked_sample_time(i));
        if matches!(last, Some(None) | Some(Some(i64::MAX))) {
            return Err(corrupt("sample times overflow"));
        }
        segments.push(meta);
        payload_spans.push((payload_offset, payload_len));
        pos += DIR_ENTRY_BYTES;
    }
    Ok(FileHeader {
        meta: FileMeta {
            network,
            station,
            location,
            channel,
            data_quality,
            encoding,
            byte_order,
        },
        segments,
        payload_spans,
        header_bytes: pos,
    })
}

/// Parse the header + segment directory out of a chunk file's full
/// bytes, fetched elsewhere (every chunk load reads through
/// `SourceAdapter::fetch_bytes` first; `what` labels errors in place of
/// a path).
pub fn parse_full_bytes(bytes: &[u8], what: &str) -> Result<FileHeader> {
    parse_header(bytes, what)
}

/// Read only the given metadata of `path` (cheap: header + directory).
pub fn read_metadata(path: &Path) -> Result<FileHeader> {
    // Headers are small; read a bounded prefix, growing if the segment
    // directory turns out to be larger.
    let mut f = std::fs::File::open(path)
        .map_err(|e| MseedError::io(format!("opening {}", path.display()), e))?;
    let mut buf = Vec::with_capacity(16 * 1024);
    let mut chunk = [0u8; 16 * 1024];
    loop {
        let n = f
            .read(&mut chunk)
            .map_err(|e| MseedError::io(format!("reading {}", path.display()), e))?;
        buf.extend_from_slice(&chunk[..n]);
        match parse_header(&buf, &path.display().to_string()) {
            Ok(h) => return Ok(h),
            Err(e) if n == 0 => return Err(e), // EOF: genuinely corrupt
            Err(_) => continue,                // maybe truncated: read more
        }
    }
}

/// Read and fully decode `path`.
pub fn read_full(path: &Path) -> Result<MseedFile> {
    let bytes = std::fs::read(path)
        .map_err(|e| MseedError::io(format!("reading {}", path.display()), e))?;
    let header = parse_header(&bytes, &path.display().to_string())?;
    let mut segments = Vec::with_capacity(header.segments.len());
    for (meta, &(offset, len)) in header.segments.iter().zip(&header.payload_spans) {
        let span =
            bytes.get(offset as usize..offset as usize + len as usize).ok_or_else(|| {
                MseedError::Corrupt(format!("{}: payload span out of bounds", path.display()))
            })?;
        let samples = steim::decode(span, meta.sample_count as usize)?;
        segments.push(SegmentData { meta: meta.clone(), samples });
    }
    Ok(MseedFile { meta: header.meta, segments })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{FileMeta, SegmentData, SegmentMeta};
    use crate::writer::write_file;
    use sommelier_storage::tempdir::TempDir;

    fn sample_file() -> MseedFile {
        MseedFile {
            meta: FileMeta::new("IV", "ISK", "", "BHE"),
            segments: vec![
                SegmentData {
                    meta: SegmentMeta {
                        seg_index: 0,
                        start_time: 1_263_334_500_000,
                        frequency: 20.0,
                        sample_count: 4,
                    },
                    samples: vec![10, 12, 9, 11],
                },
                SegmentData {
                    meta: SegmentMeta {
                        seg_index: 1,
                        start_time: 1_263_334_600_000,
                        frequency: 20.0,
                        sample_count: 2,
                    },
                    samples: vec![-3, 100_000],
                },
            ],
        }
    }

    #[test]
    fn full_roundtrip() {
        let dir = TempDir::new("roundtrip");
        let path = dir.join("x.msd");
        let original = sample_file();
        write_file(&path, &original).unwrap();
        let back = read_full(&path).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn metadata_only_matches() {
        let dir = TempDir::new("meta");
        let path = dir.join("x.msd");
        let original = sample_file();
        write_file(&path, &original).unwrap();
        let header = read_metadata(&path).unwrap();
        assert_eq!(header.meta, original.meta);
        assert_eq!(header.segments.len(), 2);
        assert_eq!(header.segments[0], original.segments[0].meta);
        assert_eq!(header.segments[1].sample_count, 2);
    }

    #[test]
    fn corrupt_magic_rejected() {
        let dir = TempDir::new("magic");
        let path = dir.join("x.msd");
        std::fs::write(&path, b"JUNKJUNKJUNK").unwrap();
        assert!(matches!(read_metadata(&path), Err(MseedError::Corrupt(_))));
        assert!(read_full(&path).is_err());
    }

    #[test]
    fn truncated_payload_rejected() {
        let dir = TempDir::new("trunc");
        let path = dir.join("x.msd");
        let original = sample_file();
        let bytes = crate::writer::to_bytes(&original).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        // Metadata still parses (header intact)...
        assert!(read_metadata(&path).is_ok());
        // ...but a full read detects the damage.
        assert!(read_full(&path).is_err());
    }

    #[test]
    fn overflowing_sample_times_rejected() {
        // At 1e-300 Hz the second sample lies ~1e303 ms after the first.
        // Unchecked, its time saturates and wraps (in release builds) to
        // one before the segment's start.
        let mut tiny = sample_file();
        tiny.segments[1].meta.frequency = 1e-300;
        // A start so late that the last sample (or the end just after
        // it) passes i64::MAX.
        let mut late = sample_file();
        late.segments[0].meta.start_time = i64::MAX - 150;
        let mut at_end = sample_file();
        at_end.segments[1].meta.start_time = i64::MAX - 50;
        for (what, f) in
            [("tiny frequency", tiny), ("late start", late), ("ends at MAX", at_end)]
        {
            let bytes = crate::writer::to_bytes(&f).unwrap();
            let err = parse_full_bytes(&bytes, what).unwrap_err();
            assert!(
                matches!(&err, MseedError::Corrupt(m) if m.contains("sample times overflow")),
                "{what}: {err}"
            );
        }
        // The latest start that still fits is accepted.
        let mut edge = sample_file();
        edge.segments[1].meta.start_time = i64::MAX - 51;
        let bytes = crate::writer::to_bytes(&edge).unwrap();
        let header = parse_full_bytes(&bytes, "edge").unwrap();
        assert_eq!(header.segments[1].end_time(), i64::MAX);
    }

    #[test]
    fn zero_segment_file() {
        let dir = TempDir::new("empty");
        let path = dir.join("x.msd");
        let f = MseedFile { meta: FileMeta::new("IV", "ISK", "", "BHE"), segments: vec![] };
        write_file(&path, &f).unwrap();
        let back = read_full(&path).unwrap();
        assert!(back.segments.is_empty());
    }

    #[test]
    fn many_segments_force_header_regrowth() {
        // A directory larger than the reader's first 16 KiB read.
        let dir = TempDir::new("grow");
        let path = dir.join("x.msd");
        let segments: Vec<SegmentData> = (0..1_000)
            .map(|i| SegmentData {
                meta: SegmentMeta {
                    seg_index: i,
                    start_time: i as i64 * 1_000,
                    frequency: 1.0,
                    sample_count: 1,
                },
                samples: vec![i as i32],
            })
            .collect();
        let f = MseedFile { meta: FileMeta::new("IV", "ISK", "", "BHE"), segments };
        write_file(&path, &f).unwrap();
        let header = read_metadata(&path).unwrap();
        assert_eq!(header.segments.len(), 1_000);
        assert!(header.header_bytes > 16 * 1024);
    }
}
