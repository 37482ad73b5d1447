//! LEB128 variable-length integers — the primitive every block encoding
//! in this subsystem is built from.
//!
//! Little-endian base-128: each byte carries 7 payload bits, the high bit
//! flags continuation. Values the payload actually stores — node-id
//! deltas inside a run, run lengths, walk steps, dictionary indices —
//! are overwhelmingly small, so most encode to a single byte; the worst
//! case for a `u64` is 10 bytes.
//!
//! The decoder is hardened for untrusted input: it rejects truncation,
//! encodings past 10 bytes, non-minimal encodings (a zero final byte
//! after a continuation byte), and overflow of the 64-bit value, always
//! as [`SlingError::CorruptIndex`] — never a panic. [`write_u64`] only
//! emits minimal encodings, so every value has exactly one accepted
//! byte form; in particular zero is always the lone byte `0x00`, which
//! is what lets `skip_varints` count zero values by counting bytes.

use crate::error::SlingError;

/// Maximum encoded length of a `u64` (⌈64 / 7⌉ bytes).
pub const MAX_VARINT_LEN: usize = 10;

/// Append the LEB128 encoding of `v` to `out`.
#[inline]
pub fn write_u64(out: &mut Vec<u8>, mut v: u64) {
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

/// Encoded length of `v` in bytes (without encoding it).
#[inline]
pub fn len_u64(v: u64) -> usize {
    // bits needed, rounded up to 7-bit groups; zero still takes one byte.
    (64 - v.leading_zeros() as usize).max(1).div_ceil(7)
}

/// Decode one LEB128 `u64` from the front of `buf`, advancing it.
#[inline]
pub fn read_u64(buf: &mut &[u8]) -> Result<u64, SlingError> {
    // One-byte values (run lengths, steps, most deltas) skip the loop.
    if let Some((&byte, rest)) = buf.split_first() {
        if byte < 0x80 {
            *buf = rest;
            return Ok(byte as u64);
        }
    }
    let mut value = 0u64;
    let mut shift = 0u32;
    for (i, &byte) in buf.iter().enumerate() {
        if i >= MAX_VARINT_LEN {
            break;
        }
        let payload = (byte & 0x7f) as u64;
        // The 10th byte may only carry the single remaining bit.
        if shift == 63 && payload > 1 {
            return Err(SlingError::CorruptIndex(
                "varint overflows 64 bits".to_string(),
            ));
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            if byte == 0 && i > 0 {
                return Err(non_minimal());
            }
            *buf = &buf[i + 1..];
            return Ok(value);
        }
        shift += 7;
    }
    Err(SlingError::CorruptIndex(
        if buf.len() >= MAX_VARINT_LEN {
            "varint longer than 10 bytes"
        } else {
            "truncated varint"
        }
        .to_string(),
    ))
}

/// Decode a varint that must fit `u32` (node ids, run lengths, counts).
#[inline]
pub fn read_u32(buf: &mut &[u8]) -> Result<u32, SlingError> {
    let v = read_u64(buf)?;
    u32::try_from(v)
        .map_err(|_| SlingError::CorruptIndex(format!("varint {v} exceeds the u32 field range")))
}

/// Decode a varint that must fit `u16` (walk steps).
#[inline]
pub fn read_u16(buf: &mut &[u8]) -> Result<u16, SlingError> {
    let v = read_u64(buf)?;
    u16::try_from(v)
        .map_err(|_| SlingError::CorruptIndex(format!("varint {v} exceeds the u16 field range")))
}

/// Skip `k` varints from the front of `buf` without decoding them,
/// advancing it past them. Returns how many of them encode zero.
///
/// Works a word at a time: a varint ends at every byte whose high bit is
/// clear, so the `k`-th end is found by counting such bytes per 8-byte
/// word.
/// Non-minimal encodings are rejected exactly as [`read_u64`] rejects
/// them, so a zero value is exactly a lone `0x00` byte and the zero
/// count is a byte count. The value range and the 10-byte limit are not
/// checked: a skipped varint is never used as a value.
pub(crate) fn skip_varints(buf: &mut &[u8], k: usize) -> Result<usize, SlingError> {
    let mut left = k;
    let mut zeros = 0usize;
    // Bit 7 set when the byte before the next word continued a varint.
    let mut carry = 0u64;
    let mut overlong = 0u64;
    let mut pos = 0usize;
    // Whole 32-byte groups that end before the k-th varint: per-byte flag
    // counts (≤ 4 each) summed across the group, totalled with one
    // multiply; the non-minimal check folded into one accumulator.
    while left > 0 && buf.len() - pos >= 32 {
        let words: [u64; 4] = std::array::from_fn(|i| load_word(&buf[pos + 8 * i..]));
        let (mut ends, mut zero) = (0u64, 0u64);
        for &w in &words {
            let (e, _, z) = flags(w);
            ends += e >> 7;
            zero += z >> 7;
        }
        let n = byte_sum(ends);
        if n >= left {
            break;
        }
        for &w in &words {
            let (_, c, z) = flags(w);
            overlong |= z & ((c << 8) | carry);
            carry = (c >> 56) & 0x80;
        }
        left -= n;
        zeros += byte_sum(zero);
        pos += 32;
    }
    if overlong != 0 {
        return Err(non_minimal());
    }
    // Word by word through the k-th end.
    while left > 0 {
        let rest = &buf[pos..];
        if rest.is_empty() {
            return Err(SlingError::CorruptIndex(
                "truncated varint section".to_string(),
            ));
        }
        let w = if rest.len() >= 8 {
            load_word(rest)
        } else {
            // Pad the short tail with continuation bytes: they end
            // nothing and are not zero, so only real bytes count.
            let mut word = [0x80u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            u64::from_le_bytes(word)
        };
        let (ends, cont, zero) = flags(w);
        let overlong = zero & ((cont << 8) | carry);
        let n = byte_sum(ends >> 7);
        if n < left {
            if overlong != 0 {
                return Err(non_minimal());
            }
            zeros += byte_sum(zero >> 7);
            left -= n;
            carry = (cont >> 56) & 0x80;
            pos += rest.len().min(8);
            continue;
        }
        let mut e = ends;
        for _ in 1..left {
            e &= e - 1;
        }
        let last = e.trailing_zeros() as usize / 8;
        let mask = u64::MAX >> (8 * (7 - last));
        if overlong & mask != 0 {
            return Err(non_minimal());
        }
        zeros += byte_sum((zero & mask) >> 7);
        pos += last + 1;
        left = 0;
    }
    *buf = &buf[pos..];
    Ok(zeros)
}

#[inline(always)]
fn load_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(
        bytes[..8]
            .try_into()
            .expect("an 8-byte slice converts to [u8; 8]"),
    )
}

/// Per-byte flags of a little-endian word, each in bit 7 of its byte:
/// `(ends a varint, continues one, is zero)`. The zero test is exact:
/// `(x & 0x7f) + 0x7f` never carries out of its byte and leaves bit 7
/// clear only when `x & 0x7f == 0`.
#[inline(always)]
fn flags(w: u64) -> (u64, u64, u64) {
    const HIGH: u64 = 0x8080_8080_8080_8080;
    const LOW: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    (!w & HIGH, w & HIGH, !(((w & LOW) + LOW) | w) & HIGH)
}

/// Sum of the eight byte lanes of `x` (the sum must fit a byte): one
/// multiply, cheaper than `count_ones` on targets built without a
/// `popcnt` instruction, which is the x86-64 default.
#[inline(always)]
fn byte_sum(x: u64) -> usize {
    (x.wrapping_mul(0x0101_0101_0101_0101) >> 56) as usize
}

fn non_minimal() -> SlingError {
    SlingError::CorruptIndex("non-minimal varint encoding".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            255,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut out = Vec::new();
            write_u64(&mut out, v);
            assert_eq!(out.len(), len_u64(v), "length of {v}");
            let mut buf = out.as_slice();
            assert_eq!(read_u64(&mut buf).unwrap(), v);
            assert!(buf.is_empty(), "decoder left bytes behind for {v}");
        }
    }

    #[test]
    fn small_values_take_one_byte() {
        for v in 0..128u64 {
            let mut out = Vec::new();
            write_u64(&mut out, v);
            assert_eq!(out, vec![v as u8]);
        }
    }

    #[test]
    fn rejects_truncation() {
        let mut out = Vec::new();
        write_u64(&mut out, u64::MAX);
        for cut in 0..out.len() {
            let mut buf = &out[..cut];
            assert!(read_u64(&mut buf).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn rejects_overlong_and_overflow() {
        // 11 continuation bytes: too long even if it would terminate.
        let mut buf: &[u8] = &[0x80u8; 11];
        assert!(read_u64(&mut buf).is_err());
        // 10 bytes whose last carries more than the 1 remaining bit.
        let overflow: &[u8] = &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        let mut buf = overflow;
        assert!(read_u64(&mut buf).is_err());
        // The same prefix with a legal final byte is u64::MAX.
        let max: &[u8] = &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        let mut buf = max;
        assert_eq!(read_u64(&mut buf).unwrap(), u64::MAX);
    }

    #[test]
    fn narrow_reads_enforce_their_range() {
        let mut out = Vec::new();
        write_u64(&mut out, u16::MAX as u64 + 1);
        assert!(read_u16(&mut out.as_slice()).is_err());
        assert_eq!(read_u32(&mut out.as_slice()).unwrap(), 65_536);
        let mut out = Vec::new();
        write_u64(&mut out, u32::MAX as u64 + 1);
        assert!(read_u32(&mut out.as_slice()).is_err());
    }

    #[test]
    fn skip_matches_sequential_reads() {
        let values: Vec<u64> = (0..200u64)
            .map(|i| match i % 5 {
                0 => 0,
                1 => i,
                2 => i * 1000,
                3 => u64::MAX >> (i % 60),
                _ => 127,
            })
            .collect();
        let mut bytes = Vec::new();
        for &v in &values {
            write_u64(&mut bytes, v);
        }
        for k in 0..=values.len() {
            let mut skipped = bytes.as_slice();
            let zeros = skip_varints(&mut skipped, k).unwrap();
            let mut buf = bytes.as_slice();
            for _ in 0..k {
                read_u64(&mut buf).unwrap();
            }
            assert_eq!(skipped.len(), buf.len(), "k = {k}");
            assert_eq!(zeros, values[..k].iter().filter(|&&v| v == 0).count());
        }
        assert!(skip_varints(&mut bytes.as_slice(), values.len() + 1).is_err());
    }

    #[test]
    fn both_readers_reject_non_minimal_encodings() {
        for overlong in [&[0x80u8, 0x00][..], &[0x81, 0x80, 0x00], &[0xff, 0x00]] {
            assert!(read_u64(&mut &overlong[..]).is_err());
            // Land the zero byte at every offset of a word, including
            // right after a word boundary.
            for pad in 0..10 {
                let mut bytes = vec![1u8; pad];
                bytes.extend_from_slice(overlong);
                assert!(
                    skip_varints(&mut bytes.as_slice(), pad + 1).is_err(),
                    "pad {pad}"
                );
            }
        }
        // Lone zero bytes are minimal, and are what the zero count counts.
        let mut buf: &[u8] = &[0x00, 0x85, 0x01, 0x00, 0x07];
        assert_eq!(skip_varints(&mut buf, 3).unwrap(), 2);
        assert_eq!(buf, &[0x07]);
    }
}
