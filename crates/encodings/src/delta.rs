//! Delta encoding with miniblock restarts ("checkpoints").
//!
//! Stores zig-zag deltas between consecutive values, bit-packed at a global
//! width, with the first value of every [`MINIBLOCK`]-sized miniblock stored
//! verbatim. Random access decodes at most `MINIBLOCK - 1` deltas — the
//! checkpoint cost the paper cites when excluding Delta from its baseline.

use bytes::{Buf, BufMut};
use corra_columnar::aggregate::IntAggState;
use corra_columnar::bitpack::{zigzag_decode, zigzag_encode, BitPackedVec};
use corra_columnar::error::{Error, Result};
use corra_columnar::selection::SelectionVector;
use corra_columnar::topk::TopKHeap;

use crate::traits::{check_rows, stream_packed, IntAccess};

/// Rows per miniblock (restart interval); defined beside the stats pass
/// that sizes this codec.
pub use corra_columnar::stats::MINIBLOCK;

/// Delta-encoded integer column with per-miniblock restart values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaInt {
    len: usize,
    /// First value of each miniblock.
    restarts: Vec<i64>,
    /// Zig-zag deltas for all rows (0 at restart positions), bit-packed.
    deltas: BitPackedVec,
}

impl DeltaInt {
    /// Encodes `values`.
    pub fn encode(values: &[i64]) -> Self {
        let mut restarts = Vec::with_capacity(values.len().div_ceil(MINIBLOCK));
        let mut deltas = Vec::with_capacity(values.len());
        for (i, &v) in values.iter().enumerate() {
            if i % MINIBLOCK == 0 {
                restarts.push(v);
                deltas.push(0);
            } else {
                deltas.push(zigzag_encode(v.wrapping_sub(values[i - 1])));
            }
        }
        Self {
            len: values.len(),
            restarts,
            deltas: BitPackedVec::pack_minimal(&deltas),
        }
    }

    /// Delta bit width.
    pub fn bits(&self) -> u8 {
        self.deltas.bits()
    }

    /// Serialized length of [`write_to`](Self::write_to).
    pub fn serialized_len(&self) -> usize {
        8 + 8 + self.restarts.len() * 8 + self.deltas.serialized_len()
    }

    /// Writes `len (u64) | n_restarts (u64) | restarts | deltas`.
    pub fn write_to(&self, buf: &mut impl BufMut) {
        buf.put_u64_le(self.len as u64);
        buf.put_u64_le(self.restarts.len() as u64);
        for &v in &self.restarts {
            buf.put_i64_le(v);
        }
        self.deltas.write_to(buf);
    }

    /// Reads back a [`write_to`](Self::write_to) payload.
    pub fn read_from(buf: &mut impl Buf) -> Result<Self> {
        if buf.remaining() < 16 {
            return Err(Error::corrupt("delta header truncated"));
        }
        let len = buf.get_u64_le() as usize;
        let n_restarts = buf.get_u64_le() as usize;
        if n_restarts != len.div_ceil(MINIBLOCK) {
            return Err(Error::corrupt("delta restart count mismatch"));
        }
        if buf.remaining() < n_restarts.saturating_mul(8) {
            return Err(Error::corrupt("delta restarts truncated"));
        }
        let mut restarts = Vec::with_capacity(n_restarts);
        for _ in 0..n_restarts {
            restarts.push(buf.get_i64_le());
        }
        let deltas = BitPackedVec::read_from(buf)?;
        if deltas.len() != len {
            return Err(Error::corrupt("delta payload length mismatch"));
        }
        Ok(Self {
            len,
            restarts,
            deltas,
        })
    }

    /// Calls `f(row, value)` for every row of `rows`, in order. The rows
    /// ascend, so the prefix sum resumes from the previous row while the
    /// next one lies in the same miniblock and pays the restart only when
    /// it does not.
    fn for_each_row(&self, rows: &[u32], mut f: impl FnMut(u32, i64)) {
        check_rows(rows, self.len);
        // `v` is the value of row `at`; row 0 is the first restart.
        let (mut at, mut v) = (0, self.restarts.first().copied().unwrap_or(0));
        for &p in rows {
            let i = p as usize;
            let restart = i - i % MINIBLOCK;
            if at < restart {
                (at, v) = (restart, self.restarts[i / MINIBLOCK]);
            }
            while at < i {
                at += 1;
                v = v.wrapping_add(zigzag_decode(self.deltas.get_unchecked_len(at)));
            }
            f(p, v);
        }
    }
}

/// Delta has no compressed-domain shortcut — values only exist as prefix
/// sums — so the whole-column kernels are the trait's provided bodies over
/// the chunk stream, one sequential reconstruction that never pays the
/// O(MINIBLOCK) random-access cost of `get`, and the selected-row kernels
/// walk the sorted selection with one forward cursor.
impl IntAccess for DeltaInt {
    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, i: usize) -> i64 {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let block = i / MINIBLOCK;
        let mut v = self.restarts[block];
        for j in (block * MINIBLOCK + 1)..=i {
            v = v.wrapping_add(zigzag_decode(self.deltas.get_unchecked_len(j)));
        }
        v
    }

    fn compressed_bytes(&self) -> usize {
        self.restarts.len() * 8 + 1 + self.deltas.tight_bytes()
    }

    /// Batched delta unpack; the prefix sum with miniblock restarts runs
    /// over cache-hot decoded chunks (MINIBLOCK divides the chunk size).
    fn for_each_chunk(&self, f: &mut dyn FnMut(usize, &[i64])) {
        let mut v = 0i64;
        let value = |i: usize, d: u64| {
            v = if i % MINIBLOCK == 0 {
                self.restarts[i / MINIBLOCK]
            } else {
                v.wrapping_add(zigzag_decode(d))
            };
            v
        };
        stream_packed(&self.deltas, value, f);
    }

    fn gather_into(&self, rows: &[u32], out: &mut Vec<i64>) {
        out.clear();
        out.reserve(rows.len());
        self.for_each_row(rows, |_, v| out.push(v));
    }

    fn aggregate_selected(&self, sel: &SelectionVector, state: &mut IntAggState) {
        self.for_each_row(&sel.positions(), |_, v| state.update(v));
    }

    fn top_k_selected(&self, base: u64, sel: &SelectionVector, heap: &mut TopKHeap) {
        if heap.k() == 0 {
            return;
        }
        self.for_each_row(&sel.positions(), |p, v| heap.offer(v, base + p as u64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corra_columnar::predicate::IntRange;
    use corra_columnar::selection::SelectionVector;
    use corra_columnar::stats::ZoneMap;

    #[test]
    fn roundtrip_sorted() {
        let values: Vec<i64> = (0..1000).map(|i| i * 3 + 100).collect();
        let enc = DeltaInt::encode(&values);
        // Constant delta of 3 -> zigzag 6 -> 3 bits.
        assert_eq!(enc.bits(), 3);
        let mut out = Vec::new();
        enc.decode_into(&mut out);
        assert_eq!(out, values);
    }

    #[test]
    fn random_access_across_miniblocks() {
        let values: Vec<i64> = (0..500).map(|i| (i * i) as i64 % 977).collect();
        let enc = DeltaInt::encode(&values);
        for i in [0, 1, 127, 128, 129, 255, 256, 300, 499] {
            assert_eq!(enc.get(i), values[i], "row {i}");
        }
    }

    #[test]
    fn unsorted_values() {
        let values = vec![100i64, -50, 700, 0, 3];
        let enc = DeltaInt::encode(&values);
        let mut out = Vec::new();
        enc.decode_into(&mut out);
        assert_eq!(out, values);
    }

    #[test]
    fn wrapping_extremes() {
        let values = vec![i64::MIN, i64::MAX, 0, i64::MIN];
        let enc = DeltaInt::encode(&values);
        let mut out = Vec::new();
        enc.decode_into(&mut out);
        assert_eq!(out, values);
        assert_eq!(enc.get(3), i64::MIN);
    }

    #[test]
    fn empty_and_single() {
        let enc = DeltaInt::encode(&[]);
        assert!(enc.is_empty());
        let enc = DeltaInt::encode(&[42]);
        assert_eq!(enc.len(), 1);
        assert_eq!(enc.get(0), 42);
        assert_eq!(enc.bits(), 0); // only the restart, delta payload all zero
    }

    #[test]
    fn exact_miniblock_boundary() {
        let values: Vec<i64> = (0..(MINIBLOCK as i64 * 2)).collect();
        let enc = DeltaInt::encode(&values);
        let mut out = Vec::new();
        enc.decode_into(&mut out);
        assert_eq!(out, values);
        assert_eq!(enc.get(MINIBLOCK - 1), (MINIBLOCK - 1) as i64);
        assert_eq!(enc.get(MINIBLOCK), MINIBLOCK as i64);
    }

    #[test]
    fn gather() {
        let values: Vec<i64> = (0..1000).map(|i| i / 3).collect();
        let enc = DeltaInt::encode(&values);
        let mut out = Vec::new();
        enc.gather_into(&[10, 400, 999], &mut out);
        assert_eq!(out, vec![values[10], values[400], values[999]]);
    }

    #[test]
    fn filter_streams_across_miniblocks() {
        let values: Vec<i64> = (0..500).map(|i| (i * i) as i64 % 977).collect();
        let enc = DeltaInt::encode(&values);
        let mut out = SelectionVector::empty();
        for range in [
            IntRange::new(0, 100),
            IntRange::negated(500, 976),
            IntRange::new(977, i64::MAX),
        ] {
            enc.filter_into(&range, &mut out);
            assert_eq!(
                out.positions(),
                crate::filter::filter_naive(&values, &range),
                "{range:?}"
            );
        }
    }

    /// A Delta column's zone is the encoder's exact min / max; a bare
    /// deserialized block recomputes it from the decoded values. The
    /// decode must hand back those exact extremes — empty, flat, and where
    /// the wrapping prefix sum crosses either end of the `i64` domain.
    #[test]
    fn value_bounds_cover_or_give_up() {
        let steps: Vec<i64> = (0..1000).map(|i| i * 2).collect();
        for values in [
            Vec::new(),
            vec![7; 300],
            steps,
            vec![i64::MAX - 1, i64::MAX],
            vec![i64::MIN, i64::MAX, 0],
        ] {
            let mut out = Vec::new();
            DeltaInt::encode(&values).decode_into(&mut out);
            assert_eq!(ZoneMap::from_values(&out), ZoneMap::from_values(&values));
        }
    }

    #[test]
    fn serialization_roundtrip() {
        let values: Vec<i64> = (0..300).map(|i| i * 7 - 1000).collect();
        let enc = DeltaInt::encode(&values);
        let mut buf = Vec::new();
        enc.write_to(&mut buf);
        assert_eq!(buf.len(), enc.serialized_len());
        let back = DeltaInt::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, enc);
        assert!(DeltaInt::read_from(&mut &buf[..12]).is_err());
    }

    #[test]
    fn sorted_data_beats_for() {
        // Sorted timestamps with small steps: delta >> FOR.
        let values: Vec<i64> = (0..10_000).map(|i| 1_600_000_000 + i * 2).collect();
        let delta = DeltaInt::encode(&values);
        let ffor = crate::ffor::ForInt::encode(&values);
        assert!(delta.compressed_bytes() < ffor.compressed_bytes());
    }
}
