//! Frame-of-Reference (FOR) encoding followed by bit-packing.
//!
//! Values are stored as unsigned offsets from the column minimum, packed at
//! the minimal width that covers the range. This is one half of the paper's
//! baseline ("We use FOR- or Dict-encoding schemes, followed by a
//! bit-packing") and also the physical layout Corra uses for the diff column
//! in non-hierarchical encoding.

use bytes::{Buf, BufMut};
use corra_columnar::bitpack::BitPackedVec;
use corra_columnar::error::{Error, Result};
use corra_columnar::predicate::IntRange;
use corra_columnar::selection::SelectionVector;

use crate::traits::{check_rows, stream_packed, IntAccess};

/// FOR + bit-packed integer column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForInt {
    base: i64,
    packed: BitPackedVec,
}

impl ForInt {
    /// Encodes `values` with base = min(values).
    pub fn encode(values: &[i64]) -> Self {
        let base = values.iter().copied().min().unwrap_or(0);
        let offsets: Vec<u64> = values
            .iter()
            .map(|&v| (v as i128 - base as i128) as u64)
            .collect();
        Self {
            base,
            packed: BitPackedVec::pack_minimal(&offsets),
        }
    }

    /// Encodes with an explicit width (≥ minimal), e.g. for ablations.
    pub fn encode_with_bits(values: &[i64], bits: u8) -> Result<Self> {
        let base = values.iter().copied().min().unwrap_or(0);
        let offsets: Vec<u64> = values
            .iter()
            .map(|&v| (v as i128 - base as i128) as u64)
            .collect();
        Ok(Self {
            base,
            packed: BitPackedVec::pack(&offsets, bits)?,
        })
    }

    /// The frame base (column minimum).
    pub fn base(&self) -> i64 {
        self.base
    }

    /// Bit width per value.
    pub fn bits(&self) -> u8 {
        self.packed.bits()
    }

    /// Serialized length of [`write_to`](Self::write_to).
    pub fn serialized_len(&self) -> usize {
        8 + self.packed.serialized_len()
    }

    /// Writes `base (i64) | packed`.
    pub fn write_to(&self, buf: &mut impl BufMut) {
        buf.put_i64_le(self.base);
        self.packed.write_to(buf);
    }

    /// Reads back a [`write_to`](Self::write_to) payload.
    pub fn read_from(buf: &mut impl Buf) -> Result<Self> {
        if buf.remaining() < 8 {
            return Err(Error::corrupt("for-int header truncated"));
        }
        let base = buf.get_i64_le();
        let packed = BitPackedVec::read_from(buf)?;
        Ok(Self { base, packed })
    }

    /// Direct offset access without adding the base (used by diff encodings).
    #[inline]
    pub fn offset_at(&self, i: usize) -> u64 {
        self.packed.get(i)
    }

    /// A hoisted-mask reader over the packed offsets (hot query loops).
    #[inline]
    pub fn offset_reader(&self) -> corra_columnar::bitpack::PackedReader<'_> {
        self.packed.reader()
    }

    /// Value access skipping the per-call bounds assertion; the caller must
    /// have validated `i < len` (hot query path).
    #[inline]
    pub fn value_at_unchecked(&self, i: usize) -> i64 {
        (self.base as i128 + self.packed.get_unchecked_len(i) as i128) as i64
    }
}

impl IntAccess for ForInt {
    fn len(&self) -> usize {
        self.packed.len()
    }

    #[inline]
    fn get(&self, i: usize) -> i64 {
        (self.base as i128 + self.packed.get(i) as i128) as i64
    }

    fn compressed_bytes(&self) -> usize {
        // base + width byte + tightly packed payload.
        8 + 1 + self.packed.tight_bytes()
    }

    fn for_each_chunk(&self, f: &mut dyn FnMut(usize, &[i64])) {
        let base = self.base;
        stream_packed(&self.packed, |_, off| base.wrapping_add(off as i64), f);
    }

    fn decode_into(&self, out: &mut Vec<i64>) {
        // Fused batched kernel: offsets decode and the frame add happen in
        // one width-specialized pass.
        self.packed.unpack_add_into(self.base, out);
    }

    fn gather_into(&self, rows: &[u32], out: &mut Vec<i64>) {
        check_rows(rows, self.len());
        out.clear();
        out.reserve(rows.len());
        let base = self.base;
        let r = self.packed.reader();
        for &p in rows {
            out.push(base.wrapping_add(r.get(p as usize) as i64));
        }
    }

    /// Rewrites `[lo, hi]` into the packed offset domain (`v - base`) once
    /// and compares raw offsets per row — no per-row reconstruction to
    /// `i64`.
    fn filter_into(&self, range: &IntRange, out: &mut SelectionVector) {
        // Offset-domain interval. Offsets live in [0, u64::MAX]; anything
        // outside means the positive interval misses the whole frame.
        let lo_wide = range.lo as i128 - self.base as i128;
        let hi_wide = range.hi as i128 - self.base as i128;
        if range.interval_is_empty() || hi_wide < 0 || lo_wide > u64::MAX as i128 {
            *out = SelectionVector::all_or_none(self.len(), range.negate);
            return;
        }
        let lo_off = lo_wide.max(0) as u64;
        let hi_off = hi_wide.min(u64::MAX as i128) as u64;
        // Fused decode+compare in the packed offset domain: one SIMD sweep
        // over the compressed words, no materialized column.
        self.packed
            .filter_range_into(lo_off, hi_off, range.negate, out);
    }

    /// Sums in the packed offset domain: `n · base + Σ offsets`, mod 2^64
    /// like every reconstruction `base + offset` — no per-row `i64` value.
    fn sum_wrapping(&self) -> i64 {
        let mut offsets = 0u64;
        self.packed.unpack_chunks(|_, chunk| {
            offsets = chunk.iter().fold(offsets, |s, &o| s.wrapping_add(o));
        });
        (self.len() as i64)
            .wrapping_mul(self.base)
            .wrapping_add(offsets as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_basic() {
        let values = vec![100i64, 107, 100, 115, 103];
        let enc = ForInt::encode(&values);
        assert_eq!(enc.base(), 100);
        assert_eq!(enc.bits(), 4); // range 15
        let mut out = Vec::new();
        enc.decode_into(&mut out);
        assert_eq!(out, values);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(enc.get(i), v);
        }
    }

    #[test]
    fn constant_column_is_free() {
        let enc = ForInt::encode(&[42; 1000]);
        assert_eq!(enc.bits(), 0);
        assert_eq!(enc.compressed_bytes(), 9); // base + width byte only
        assert_eq!(enc.get(999), 42);
    }

    #[test]
    fn negative_values() {
        let values = vec![-5i64, -1, -9, 0];
        let enc = ForInt::encode(&values);
        assert_eq!(enc.base(), -9);
        let mut out = Vec::new();
        enc.decode_into(&mut out);
        assert_eq!(out, values);
    }

    #[test]
    fn extreme_range_needs_64_bits() {
        let values = vec![i64::MIN, i64::MAX];
        let enc = ForInt::encode(&values);
        assert_eq!(enc.bits(), 64);
        assert_eq!(enc.get(0), i64::MIN);
        assert_eq!(enc.get(1), i64::MAX);
    }

    #[test]
    fn paper_date_column_size() {
        // shipdate domain: 2557 days -> 12 bits; 1M rows -> 1.5 MB + 9B meta.
        let lo = corra_columnar::temporal::parse_date("1992-01-01").unwrap();
        let hi = corra_columnar::temporal::parse_date("1998-12-31").unwrap();
        let values: Vec<i64> = (0..1_000_000)
            .map(|i| lo + (i as i64 % (hi - lo + 1)))
            .collect();
        let enc = ForInt::encode(&values);
        assert_eq!(enc.bits(), 12);
        assert_eq!(enc.compressed_bytes(), 1_500_000 + 9);
    }

    #[test]
    fn explicit_width() {
        let enc = ForInt::encode_with_bits(&[0, 1, 2], 8).unwrap();
        assert_eq!(enc.bits(), 8);
        assert_eq!(enc.get(2), 2);
        assert!(ForInt::encode_with_bits(&[0, 300], 8).is_err());
    }

    #[test]
    fn serialization_roundtrip() {
        let values: Vec<i64> = (0..500).map(|i| i * 3 - 700).collect();
        let enc = ForInt::encode(&values);
        let mut buf = Vec::new();
        enc.write_to(&mut buf);
        assert_eq!(buf.len(), enc.serialized_len());
        let back = ForInt::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, enc);
        assert!(ForInt::read_from(&mut &buf[..4]).is_err());
    }

    #[test]
    fn gather() {
        let enc = ForInt::encode(&(0..1000i64).map(|i| i + 5000).collect::<Vec<_>>());
        let mut out = Vec::new();
        enc.gather_into(&[0, 500, 999], &mut out);
        assert_eq!(out, vec![5000, 5500, 5999]);
    }

    #[test]
    fn filter_in_packed_domain() {
        let values: Vec<i64> = (0..100).map(|i| 1_000 + i % 16).collect();
        let enc = ForInt::encode(&values);
        let mut out = SelectionVector::empty();
        enc.filter_into(&IntRange::new(1_003, 1_005), &mut out);
        assert_eq!(
            out.positions(),
            crate::filter::filter_naive(&values, &IntRange::new(1_003, 1_005))
        );
        // Range entirely below / above the frame.
        enc.filter_into(&IntRange::new(0, 999), &mut out);
        assert!(out.is_empty());
        enc.filter_into(&IntRange::negated(0, 999), &mut out);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn filter_extreme_base() {
        let values = vec![i64::MIN, -1, i64::MAX];
        let enc = ForInt::encode(&values);
        let mut out = SelectionVector::empty();
        for range in [
            IntRange::new(i64::MIN, -1),
            IntRange::new(0, i64::MAX),
            IntRange::negated(i64::MIN, i64::MIN),
        ] {
            enc.filter_into(&range, &mut out);
            assert_eq!(
                out.positions(),
                crate::filter::filter_naive(&values, &range),
                "{range:?}"
            );
        }
    }

    #[test]
    fn empty_column() {
        let enc = ForInt::encode(&[]);
        assert!(enc.is_empty());
        assert_eq!(enc.compressed_bytes(), 9);
        let mut out = vec![1];
        enc.decode_into(&mut out);
        assert!(out.is_empty());
    }
}
