//! Steim-style waveform compression.
//!
//! Real SEED volumes use the Steim-1/2 codecs: first differences of the
//! integer sample stream packed into variable-width fields. We implement
//! the same idea as **delta + zig-zag + varint**: the first sample is
//! stored raw, every further sample as the varint of the zig-zag-encoded
//! difference to its predecessor. Smooth seismic traces compress to
//! ~1–2 bytes/sample, reproducing the mSEED-vs-CSV/DB expansion ratios
//! of the paper's Table III.

use crate::error::{MseedError, Result};

/// Zig-zag encode a signed 32-bit delta into an unsigned value.
#[inline]
pub fn zigzag(v: i32) -> u32 {
    ((v << 1) ^ (v >> 31)) as u32
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u32) -> i32 {
    ((v >> 1) as i32) ^ -((v & 1) as i32)
}

/// Append `v` as a LEB128 varint.
#[inline]
fn push_varint(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read a LEB128 varint starting at `pos`; returns (value, next_pos).
#[inline]
fn read_varint(bytes: &[u8], mut pos: usize) -> Result<(u32, usize)> {
    let mut v: u32 = 0;
    let mut shift = 0;
    loop {
        let byte =
            *bytes.get(pos).ok_or_else(|| MseedError::Corrupt("truncated varint".into()))?;
        pos += 1;
        if shift >= 32 {
            return Err(MseedError::Corrupt("varint overflow".into()));
        }
        v |= ((byte & 0x7f) as u32) << shift;
        if byte & 0x80 == 0 {
            return Ok((v, pos));
        }
        shift += 7;
    }
}

/// Compress a sample stream.
pub fn encode(samples: &[i32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(samples.len() * 2 + 4);
    let Some((&first, rest)) = samples.split_first() else {
        return out;
    };
    out.extend_from_slice(&first.to_le_bytes());
    let mut prev = first;
    for &s in rest {
        let delta = s.wrapping_sub(prev);
        push_varint(&mut out, zigzag(delta));
        prev = s;
    }
    out
}

/// Decompress exactly `expected` samples, handing each to `emit` in
/// stream order — the single-pass decode path: callers write samples
/// straight into their destination column buffers (as `f64` values,
/// say) with no intermediate `Vec<i32>` per segment. Validation is
/// identical to [`decode`] (truncation, overlong varints and trailing
/// bytes are all errors), so error behaviour never depends on what the
/// caller materializes.
pub fn decode_each(bytes: &[u8], expected: usize, mut emit: impl FnMut(i32)) -> Result<()> {
    if expected == 0 {
        if bytes.is_empty() {
            return Ok(());
        }
        return Err(MseedError::Corrupt("payload bytes for zero samples".into()));
    }
    if bytes.len() < 4 {
        return Err(MseedError::Corrupt("payload shorter than first sample".into()));
    }
    let first = i32::from_le_bytes(bytes[0..4].try_into().unwrap());
    emit(first);
    let mut pos = 4;
    let mut prev = first;
    let mut left = expected - 1;
    while left > 0 {
        // Smooth traces average about one byte per delta: take the run
        // of one-byte varints straight off the slice, and anything else
        // (every error included) from `read_varint`. `pos` never passes
        // the end of `bytes`.
        let run = &bytes[pos..];
        let mut taken = 0;
        for &byte in &run[..run.len().min(left)] {
            if byte >= 0x80 {
                break;
            }
            prev = prev.wrapping_add(unzigzag(u32::from(byte)));
            emit(prev);
            taken += 1;
        }
        pos += taken;
        left -= taken;
        if left == 0 {
            break;
        }
        let (zz, next) = read_varint(bytes, pos)?;
        pos = next;
        prev = prev.wrapping_add(unzigzag(zz));
        emit(prev);
        left -= 1;
    }
    if pos != bytes.len() {
        return Err(MseedError::Corrupt(format!(
            "payload has {} trailing bytes",
            bytes.len() - pos
        )));
    }
    Ok(())
}

/// Decompress exactly `expected` samples.
pub fn decode(bytes: &[u8], expected: usize) -> Result<Vec<i32>> {
    let mut out = Vec::with_capacity(expected);
    decode_each(bytes, expected, |s| out.push(s))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sommelier_storage::rng::{check, Rng};

    #[test]
    fn zigzag_roundtrip_edges() {
        for v in [0, 1, -1, 2, -2, i32::MAX, i32::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v, "for {v}");
        }
        // Small magnitudes map to small codes (that's the point).
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn empty_stream() {
        assert!(encode(&[]).is_empty());
        assert!(decode(&[], 0).unwrap().is_empty());
        assert!(decode(&[1], 0).is_err());
    }

    #[test]
    fn simple_roundtrip() {
        let samples = vec![100, 101, 99, 99, -5, 1_000_000, i32::MIN, i32::MAX];
        let enc = encode(&samples);
        assert_eq!(decode(&enc, samples.len()).unwrap(), samples);
    }

    #[test]
    fn smooth_signals_compress_well() {
        // A smooth ramp: deltas of 1 → 1 byte per sample after the first.
        let samples: Vec<i32> = (0..10_000).collect();
        let enc = encode(&samples);
        assert!(enc.len() < 10_004 + 4, "got {} bytes", enc.len());
        assert!(enc.len() as f64 <= samples.len() as f64 * 1.1);
    }

    #[test]
    fn truncated_payload_detected() {
        let enc = encode(&[1, 2, 3, 4]);
        assert!(decode(&enc[..enc.len() - 1], 4).is_err());
        assert!(decode(&enc[..2], 4).is_err());
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut enc = encode(&[1, 2, 3]);
        enc.push(0);
        assert!(decode(&enc, 3).is_err());
    }

    #[test]
    fn overlong_varint_detected() {
        // First sample (4 bytes) then an absurd varint.
        let mut bytes = 7i32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0x01]);
        assert!(decode(&bytes, 2).is_err());
    }

    /// The differential oracle for `decode_each`: the same loop with
    /// every delta read through `read_varint`.
    fn decode_each_via_read_varint(
        bytes: &[u8],
        expected: usize,
        mut emit: impl FnMut(i32),
    ) -> Result<()> {
        if expected == 0 {
            if bytes.is_empty() {
                return Ok(());
            }
            return Err(MseedError::Corrupt("payload bytes for zero samples".into()));
        }
        if bytes.len() < 4 {
            return Err(MseedError::Corrupt("payload shorter than first sample".into()));
        }
        let first = i32::from_le_bytes(bytes[0..4].try_into().unwrap());
        emit(first);
        let mut pos = 4;
        let mut prev = first;
        for _ in 1..expected {
            let (zz, next) = read_varint(bytes, pos)?;
            pos = next;
            prev = prev.wrapping_add(unzigzag(zz));
            emit(prev);
        }
        if pos != bytes.len() {
            return Err(MseedError::Corrupt(format!(
                "payload has {} trailing bytes",
                bytes.len() - pos
            )));
        }
        Ok(())
    }

    /// The one-byte fast path accepts, yields and rejects exactly what
    /// the `read_varint` loop does, error messages included, on seeded
    /// payloads of mixed 1- to 5-byte deltas, whole or damaged:
    /// truncated, with a trailing `0x80`, a 6-byte overlong varint,
    /// trailing bytes, or random bytes overwritten.
    #[test]
    fn fast_path_matches_read_varint_loop() {
        let run = |bytes: &[u8], expected: usize| {
            let mut samples = Vec::new();
            let res = decode_each(bytes, expected, |s| samples.push(s));
            (samples, res.map_err(|e| e.to_string()))
        };
        let run_reference = |bytes: &[u8], expected: usize| {
            let mut samples = Vec::new();
            let res = decode_each_via_read_varint(bytes, expected, |s| samples.push(s));
            (samples, res.map_err(|e| e.to_string()))
        };
        let mut rng = Rng::new(96);
        let (mut accepted, mut rejected) = (0, 0);
        for case in 0..4_000 {
            let n = rng.range(0..=300) as usize;
            let mut samples = vec![rng.next_u64() as i32];
            for _ in 1..n {
                // A zig-zag code of 1 to 5 varint bytes.
                let width = rng.range(1..=5);
                let lo = if width == 1 { 0 } else { 1 << (7 * (width - 1)) };
                let hi = (1 << (7 * width)).min(1 << 32);
                let zz = rng.range(lo..hi) as u32;
                samples.push(samples.last().unwrap().wrapping_add(unzigzag(zz)));
            }
            samples.truncate(n);
            let mut bytes = encode(&samples);
            let mut expected = n;
            match case % 6 {
                0 => {}
                1 => bytes.truncate(rng.range(0..=bytes.len() as i64) as usize),
                2 => bytes.push(0x80),
                3 => {
                    let overlong = [0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
                    let at =
                        rng.range(4.min(bytes.len()) as i64..=bytes.len() as i64) as usize;
                    bytes.splice(at..at, overlong);
                    expected += 1;
                }
                4 => bytes.extend((0..rng.range(1..4)).map(|_| rng.next_u64() as u8)),
                _ => {
                    for _ in 0..rng.range(1..4) {
                        if !bytes.is_empty() {
                            let at = rng.below(bytes.len());
                            bytes[at] = rng.next_u64() as u8;
                        }
                    }
                    expected = (expected as i64 + rng.range(-1..=1)).max(0) as usize;
                }
            }
            let got = run(&bytes, expected);
            assert_eq!(got, run_reference(&bytes, expected), "case {case}: {bytes:x?}");
            if got.1.is_ok() {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        // Both outcomes are well represented.
        assert!(accepted > 500 && rejected > 500, "{accepted} accepted, {rejected} rejected");
    }

    /// Up to 2 000 samples of any value.
    fn any_samples(rng: &mut Rng) -> Vec<i32> {
        (0..rng.range(0..2_000)).map(|_| rng.next_u64() as i32).collect()
    }

    #[test]
    fn roundtrip_random() {
        check("roundtrip_random", |rng| {
            let samples = any_samples(rng);
            let enc = encode(&samples);
            let dec = decode(&enc, samples.len()).unwrap();
            assert_eq!(dec, samples);
        });
    }

    /// The direct-to-column decode must agree with the segment
    /// decode sample for sample — the round-trip guarantee behind
    /// the adapter's single-pass columnar decode path.
    #[test]
    fn decode_each_matches_decode() {
        check("decode_each_matches_decode", |rng| {
            let samples = any_samples(rng);
            let enc = encode(&samples);
            let mut direct: Vec<f64> = Vec::new();
            decode_each(&enc, samples.len(), |s| direct.push(s as f64)).unwrap();
            let via_vec: Vec<f64> =
                decode(&enc, samples.len()).unwrap().iter().map(|&v| v as f64).collect();
            assert_eq!(direct, via_vec);
        });
    }

    #[test]
    fn roundtrip_smooth() {
        check("roundtrip_smooth", |rng| {
            let mut samples = vec![rng.range(-1_000_000..1_000_000) as i32];
            for _ in 0..rng.range(1..2_000) {
                let d = rng.range(-50..50) as i32;
                samples.push(samples.last().unwrap().wrapping_add(d));
            }
            let enc = encode(&samples);
            // Small deltas: at most 2 bytes each.
            assert!(enc.len() <= 4 + (samples.len() - 1) * 2);
            assert_eq!(decode(&enc, samples.len()).unwrap(), samples);
        });
    }
}
