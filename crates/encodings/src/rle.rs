//! Run-Length Encoding with a run-boundary index for random access.
//!
//! The paper excludes RLE from its baseline because "both RLE and Delta
//! require checkpoints" (§3) for random access. We implement it anyway —
//! with exactly that checkpoint structure (the array of run end positions,
//! searched by binary search) — so the trade-off can be measured in the
//! ablation benches.

use bytes::{Buf, BufMut};
use corra_columnar::aggregate::IntAggState;
use corra_columnar::bitpack::UNPACK_CHUNK;
use corra_columnar::error::{Error, Result};
use corra_columnar::predicate::IntRange;
use corra_columnar::selection::SelectionVector;
use corra_columnar::topk::TopKHeap;

use crate::traits::{check_selection, IntAccess};

/// RLE-encoded integer column: `(value, run)` pairs plus cumulative run ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RleInt {
    /// Value of each run.
    run_values: Vec<i64>,
    /// Exclusive end position of each run (strictly increasing); acts as the
    /// checkpoint index for random access.
    run_ends: Vec<u32>,
}

impl RleInt {
    /// Encodes `values`.
    pub fn encode(values: &[i64]) -> Self {
        let mut run_values = Vec::new();
        let mut run_ends = Vec::new();
        let mut iter = values.iter().copied().enumerate();
        if let Some((_, first)) = iter.next() {
            let mut current = first;
            for (i, v) in iter {
                if v != current {
                    run_values.push(current);
                    run_ends.push(i as u32);
                    current = v;
                }
            }
            run_values.push(current);
            run_ends.push(values.len() as u32);
        }
        Self {
            run_values,
            run_ends,
        }
    }

    /// Number of runs.
    pub fn runs(&self) -> usize {
        self.run_values.len()
    }

    /// The per-run values (one entry per run, adjacent runs differ).
    pub fn run_values(&self) -> &[i64] {
        &self.run_values
    }

    /// The exclusive end position of each run (strictly increasing).
    pub fn run_ends(&self) -> &[u32] {
        &self.run_ends
    }

    /// Serialized length of [`write_to`](Self::write_to).
    pub fn serialized_len(&self) -> usize {
        8 + self.run_values.len() * 8 + self.run_ends.len() * 4
    }

    /// Writes `runs (u64) | run_values | run_ends`.
    pub fn write_to(&self, buf: &mut impl BufMut) {
        buf.put_u64_le(self.run_values.len() as u64);
        for &v in &self.run_values {
            buf.put_i64_le(v);
        }
        for &e in &self.run_ends {
            buf.put_u32_le(e);
        }
    }

    /// Reads back a [`write_to`](Self::write_to) payload.
    pub fn read_from(buf: &mut impl Buf) -> Result<Self> {
        if buf.remaining() < 8 {
            return Err(Error::corrupt("rle header truncated"));
        }
        let runs = buf.get_u64_le() as usize;
        if buf.remaining() < runs.saturating_mul(12) {
            return Err(Error::corrupt("rle payload truncated"));
        }
        let mut run_values = Vec::with_capacity(runs);
        for _ in 0..runs {
            run_values.push(buf.get_i64_le());
        }
        let mut run_ends = Vec::with_capacity(runs);
        for _ in 0..runs {
            run_ends.push(buf.get_u32_le());
        }
        let out = Self {
            run_values,
            run_ends,
        };
        out.validate()?;
        Ok(out)
    }

    /// The invariants `read_from` enforces on outside bytes.
    fn validate(&self) -> Result<()> {
        if self.run_values.len() != self.run_ends.len() {
            return Err(Error::corrupt("rle arrays misaligned"));
        }
        let mut prev = 0u32;
        for &e in &self.run_ends {
            if e <= prev && !(prev == 0 && e == 0) {
                return Err(Error::corrupt("rle run ends not strictly increasing"));
            }
            prev = e;
        }
        // Adjacent runs must differ (canonical form).
        if self.run_values.windows(2).any(|w| w[0] == w[1]) {
            return Err(Error::corrupt("rle adjacent runs equal"));
        }
        Ok(())
    }

    /// Index of the run containing row `i` (binary search over checkpoints).
    #[inline]
    fn run_of(&self, i: usize) -> usize {
        debug_assert!(i < self.len());
        self.run_ends.partition_point(|&e| e as usize <= i)
    }
}

impl IntAccess for RleInt {
    fn len(&self) -> usize {
        self.run_ends.last().map_or(0, |&e| e as usize)
    }

    #[inline]
    fn get(&self, i: usize) -> i64 {
        self.run_values[self.run_of(i)]
    }

    fn compressed_bytes(&self) -> usize {
        self.run_values.len() * 8 + self.run_ends.len() * 4
    }

    /// One fill per run, handed out in pieces of at most a chunk.
    fn for_each_chunk(&self, f: &mut dyn FnMut(usize, &[i64])) {
        let mut buf = [0i64; UNPACK_CHUNK];
        let mut start = 0usize;
        for (&v, &end) in self.run_values.iter().zip(&self.run_ends) {
            let end = end as usize;
            buf[..(end - start).min(UNPACK_CHUNK)].fill(v);
            while start < end {
                let n = (end - start).min(UNPACK_CHUNK);
                f(start, &buf[..n]);
                start += n;
            }
        }
    }

    fn decode_into(&self, out: &mut Vec<i64>) {
        out.clear();
        out.reserve(self.len());
        // One resize-fill per run instead of a per-element push loop.
        for (&v, &end) in self.run_values.iter().zip(&self.run_ends) {
            out.resize(end as usize, v);
        }
    }

    /// Evaluates the predicate once per *run*: a non-matching run is skipped
    /// wholesale, a matching run contributes all of its positions.
    fn filter_into(&self, range: &IntRange, out: &mut SelectionVector) {
        *out = SelectionVector::none(self.len());
        let mut start = 0;
        for (&v, &end) in self.run_values.iter().zip(&self.run_ends) {
            if range.matches(v) {
                out.set_range(start, end as usize);
            }
            start = end as usize;
        }
    }

    /// Sums once per *run* (`value · run_len`) — O(runs), not O(rows).
    fn sum_wrapping(&self) -> i64 {
        let mut start = 0u32;
        let mut sum = 0i64;
        for (&v, &end) in self.run_values.iter().zip(&self.run_ends) {
            sum = sum.wrapping_add(v.wrapping_mul((end - start) as i64));
            start = end;
        }
        sum
    }

    /// Sorted-merge of the selection against the run index: each run folds
    /// the number of selected positions it contains in one `update_n` —
    /// O(runs + selected), never a per-row value reconstruction.
    fn aggregate_selected(&self, sel: &SelectionVector, state: &mut IntAggState) {
        check_selection(sel, self.len());
        let pos = sel.positions();
        let mut p = 0usize;
        for (&v, &end) in self.run_values.iter().zip(&self.run_ends) {
            let begin = p;
            while p < pos.len() && pos[p] < end {
                p += 1;
            }
            state.update_n(v, (p - begin) as u64);
            if p == pos.len() {
                break;
            }
        }
    }

    /// One bound check per *run*; an accepted run offers only its first
    /// `min(run_len, k)` positions (equal values at ascending positions —
    /// later ones can never beat them on the tie-break).
    fn top_k_into(&self, base: u64, heap: &mut TopKHeap) {
        let k = heap.k();
        if k == 0 {
            return;
        }
        let mut start = 0u32;
        for (&v, &end) in self.run_values.iter().zip(&self.run_ends) {
            if heap.would_accept(v) {
                let take = ((end - start) as usize).min(k) as u32;
                for p in start..start + take {
                    heap.offer(v, base + p as u64);
                }
            }
            start = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_basic() {
        let values = vec![1i64, 1, 1, 2, 2, 3, 1, 1];
        let enc = RleInt::encode(&values);
        assert_eq!(enc.runs(), 4);
        let mut out = Vec::new();
        enc.decode_into(&mut out);
        assert_eq!(out, values);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(enc.get(i), v, "row {i}");
        }
    }

    #[test]
    fn single_run() {
        let enc = RleInt::encode(&[9; 10_000]);
        assert_eq!(enc.runs(), 1);
        assert_eq!(enc.len(), 10_000);
        assert_eq!(enc.get(9_999), 9);
        assert_eq!(enc.compressed_bytes(), 12);
    }

    #[test]
    fn no_runs_worst_case() {
        let values: Vec<i64> = (0..100).collect();
        let enc = RleInt::encode(&values);
        assert_eq!(enc.runs(), 100);
        // Worse than plain: 12 bytes per run vs 8 plain.
        assert!(enc.compressed_bytes() > values.len() * 8);
    }

    #[test]
    fn empty() {
        let enc = RleInt::encode(&[]);
        assert!(enc.is_empty());
        assert_eq!(enc.runs(), 0);
        let mut out = vec![5];
        enc.decode_into(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn run_boundaries() {
        let values = vec![5i64, 5, 7, 7, 7, 2];
        let enc = RleInt::encode(&values);
        assert_eq!(enc.get(1), 5);
        assert_eq!(enc.get(2), 7);
        assert_eq!(enc.get(4), 7);
        assert_eq!(enc.get(5), 2);
    }

    #[test]
    fn gather() {
        let values = vec![1i64, 1, 2, 2, 2, 3];
        let enc = RleInt::encode(&values);
        let mut out = Vec::new();
        enc.gather_into(&[0, 2, 5], &mut out);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn filter_skips_runs() {
        let values = vec![1i64, 1, 2, 2, 2, 3, 1, 1];
        let enc = RleInt::encode(&values);
        let mut out = SelectionVector::empty();
        for range in [
            IntRange::new(2, 2),
            IntRange::negated(1, 1),
            IntRange::new(1, 3),
            IntRange::new(9, 9),
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
    fn serialization_roundtrip() {
        let enc = RleInt::encode(&[4, 4, 6, 6, 6, 1]);
        let mut buf = Vec::new();
        enc.write_to(&mut buf);
        assert_eq!(buf.len(), enc.serialized_len());
        let back = RleInt::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, enc);
        assert!(RleInt::read_from(&mut &buf[..10]).is_err());
    }

    #[test]
    fn serialization_rejects_noncanonical() {
        // Hand-craft equal adjacent runs.
        let mut buf = Vec::new();
        buf.extend_from_slice(&2u64.to_le_bytes());
        buf.extend_from_slice(&5i64.to_le_bytes());
        buf.extend_from_slice(&5i64.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&2u32.to_le_bytes());
        assert!(RleInt::read_from(&mut buf.as_slice()).is_err());
    }
}
