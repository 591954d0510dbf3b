//! Frequency encoding: store the hot values compactly, exceptions aside.
//!
//! One of the "by now already ad-hoc" vertical schemes the paper lists in its
//! introduction. The top-k most frequent values get dense codes; every other
//! row is an exception stored as (position, value) — structurally the same
//! two-array exception region Corra's outlier storage uses (Fig. 4), which is
//! why it lives here as a baseline relative.

use bytes::{Buf, BufMut};
use corra_columnar::bitpack::{BitPackedVec, UNPACK_CHUNK};
use corra_columnar::error::{Error, Result};
use corra_columnar::predicate::IntRange;
use corra_columnar::selection::SelectionVector;
use rustc_hash::FxHashMap;

use crate::traits::{code_counts, IntAccess};

/// Frequency-encoded integer column.
///
/// Rows holding one of the `hot` values store that value's code; exception
/// rows store code 0 (any code — the exception index disambiguates, the same
/// trick Corra's multi-reference scheme uses to avoid a sentinel).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequencyInt {
    /// The frequent values, code = position.
    hot: Vec<i64>,
    /// Per-row code into `hot`.
    codes: BitPackedVec,
    /// Sorted exception positions.
    exc_pos: Vec<u32>,
    /// Exception values aligned with `exc_pos`.
    exc_val: Vec<i64>,
}

impl FrequencyInt {
    /// Encodes keeping at most `max_hot` frequent values.
    pub fn encode(values: &[i64], max_hot: usize) -> Self {
        let mut counts: FxHashMap<i64, u32> = FxHashMap::default();
        for &v in values {
            *counts.entry(v).or_default() += 1;
        }
        Self::encode_counted(values, &counts, max_hot)
    }

    /// [`encode`](Self::encode) over the per-value row counts of `values`
    /// the caller already holds (the full chooser's stats pass).
    pub fn encode_counted(values: &[i64], counts: &FxHashMap<i64, u32>, max_hot: usize) -> Self {
        let mut by_freq: Vec<(i64, u32)> = counts.iter().map(|(&v, &c)| (v, c)).collect();
        // Descending frequency, ties by value for determinism: a total
        // order, so selecting the hottest before sorting them is exact.
        let order = |a: &(i64, u32), b: &(i64, u32)| b.1.cmp(&a.1).then(a.0.cmp(&b.0));
        let keep = max_hot.max(1);
        if by_freq.len() > keep {
            by_freq.select_nth_unstable_by(keep - 1, order);
            by_freq.truncate(keep);
        }
        by_freq.sort_unstable_by(order);
        let hot: Vec<i64> = by_freq.iter().map(|&(v, _)| v).collect();
        let index: FxHashMap<i64, u64> = hot
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u64))
            .collect();
        let mut codes = Vec::with_capacity(values.len());
        let mut exc_pos = Vec::new();
        let mut exc_val = Vec::new();
        for (i, &v) in values.iter().enumerate() {
            match index.get(&v) {
                Some(&c) => codes.push(c),
                None => {
                    codes.push(0);
                    exc_pos.push(i as u32);
                    exc_val.push(v);
                }
            }
        }
        Self {
            hot,
            codes: BitPackedVec::pack_minimal(&codes),
            exc_pos,
            exc_val,
        }
    }

    /// Number of exception rows.
    pub fn exceptions(&self) -> usize {
        self.exc_pos.len()
    }

    /// Code bit width.
    pub fn bits(&self) -> u8 {
        self.codes.bits()
    }

    /// Serialized length of [`write_to`](Self::write_to).
    pub fn serialized_len(&self) -> usize {
        8 + self.hot.len() * 8 + self.codes.serialized_len() + 8 + self.exc_pos.len() * 12
    }

    /// Writes `n_hot | hot | codes | n_exc | exc_pos | exc_val`.
    pub fn write_to(&self, buf: &mut impl BufMut) {
        buf.put_u64_le(self.hot.len() as u64);
        for &v in &self.hot {
            buf.put_i64_le(v);
        }
        self.codes.write_to(buf);
        buf.put_u64_le(self.exc_pos.len() as u64);
        for &p in &self.exc_pos {
            buf.put_u32_le(p);
        }
        for &v in &self.exc_val {
            buf.put_i64_le(v);
        }
    }

    /// Reads back a [`write_to`](Self::write_to) payload.
    pub fn read_from(buf: &mut impl Buf) -> Result<Self> {
        if buf.remaining() < 8 {
            return Err(Error::corrupt("frequency header truncated"));
        }
        let n_hot = buf.get_u64_le() as usize;
        if buf.remaining() < n_hot.saturating_mul(8) {
            return Err(Error::corrupt("frequency hot values truncated"));
        }
        let mut hot = Vec::with_capacity(n_hot);
        for _ in 0..n_hot {
            hot.push(buf.get_i64_le());
        }
        let codes = BitPackedVec::read_from(buf)?;
        if buf.remaining() < 8 {
            return Err(Error::corrupt("frequency exception header truncated"));
        }
        let n_exc = buf.get_u64_le() as usize;
        if buf.remaining() < n_exc.saturating_mul(12) {
            return Err(Error::corrupt("frequency exceptions truncated"));
        }
        let mut exc_pos = Vec::with_capacity(n_exc);
        for _ in 0..n_exc {
            exc_pos.push(buf.get_u32_le());
        }
        let mut exc_val = Vec::with_capacity(n_exc);
        for _ in 0..n_exc {
            exc_val.push(buf.get_i64_le());
        }
        let out = Self {
            hot,
            codes,
            exc_pos,
            exc_val,
        };
        out.validate()?;
        Ok(out)
    }

    /// The invariants `read_from` enforces on outside bytes.
    fn validate(&self) -> Result<()> {
        if self.exc_pos.len() != self.exc_val.len() {
            return Err(Error::corrupt("frequency exception arrays misaligned"));
        }
        if self.exc_pos.windows(2).any(|w| w[0] >= w[1]) {
            return Err(Error::corrupt("frequency exception positions not sorted"));
        }
        if let Some(&last) = self.exc_pos.last() {
            if last as usize >= self.codes.len() {
                return Err(Error::corrupt("frequency exception position out of range"));
            }
        }
        if !self.codes.all_below(self.hot.len().max(1) as u64) {
            return Err(Error::corrupt("frequency code out of range"));
        }
        Ok(())
    }
}

impl IntAccess for FrequencyInt {
    fn len(&self) -> usize {
        self.codes.len()
    }

    fn get(&self, i: usize) -> i64 {
        match self.exc_pos.binary_search(&(i as u32)) {
            Ok(k) => self.exc_val[k],
            Err(_) => self.hot[self.codes.get(i) as usize],
        }
    }

    fn compressed_bytes(&self) -> usize {
        self.hot.len() * 8 + 1 + self.codes.tight_bytes() + self.exc_pos.len() * 12
    }

    /// Hot codes map through the table a chunk at a time; exception rows
    /// (whose code slot is meaningless) are then patched in by a sorted
    /// walk over the exception index, so the per-row loop stays branch-free.
    fn for_each_chunk(&self, f: &mut dyn FnMut(usize, &[i64])) {
        let mut vals = [0i64; UNPACK_CHUNK];
        let mut e = 0usize;
        self.codes.unpack_chunks(|start, chunk| {
            for (v, &c) in vals.iter_mut().zip(chunk) {
                *v = self.hot[c as usize];
            }
            let end = start + chunk.len();
            while e < self.exc_pos.len() && (self.exc_pos[e] as usize) < end {
                vals[self.exc_pos[e] as usize - start] = self.exc_val[e];
                e += 1;
            }
            f(start, &vals[..chunk.len()]);
        });
    }

    /// Histograms the hot codes (`code_counts`), takes back the
    /// meaningless padding code at each exception row, sums each hot value
    /// once weighted by its count and each exception verbatim — O(rows)
    /// counter increments plus O(hot + exceptions) products.
    fn sum_wrapping(&self) -> i64 {
        let mut counts = code_counts(&self.codes, self.hot.len().max(1));
        let mut sum = 0i64;
        for (&p, &v) in self.exc_pos.iter().zip(&self.exc_val) {
            counts[self.codes.get(p as usize) as usize] -= 1;
            sum = sum.wrapping_add(v);
        }
        self.hot
            .iter()
            .zip(counts)
            .fold(sum, |s, (&v, n)| s.wrapping_add(v.wrapping_mul(n as i64)))
    }

    /// Evaluates the predicate once per distinct *hot* value, turns the
    /// codes into bitmap words against the precomputed verdicts, then sets
    /// each exception row's bit from its verbatim value.
    fn filter_into(&self, range: &IntRange, out: &mut SelectionVector) {
        // Codes are below `max(hot, 1)`; an exception row's code is padding.
        let mut hot_match: Vec<u64> = self
            .hot
            .iter()
            .map(|&v| u64::from(range.matches(v)))
            .collect();
        hot_match.resize(self.hot.len().max(1), 0);
        let mut words = vec![0u64; self.len().div_ceil(64)];
        self.codes.unpack_chunks(|start, chunk| {
            for (word, codes) in words[start / 64..].iter_mut().zip(chunk.chunks(64)) {
                *word = codes
                    .iter()
                    .rev()
                    .fold(0, |w, &c| w << 1 | hot_match[c as usize]);
            }
        });
        for (&p, &v) in self.exc_pos.iter().zip(&self.exc_val) {
            let (w, bit) = (p as usize / 64, p % 64);
            words[w] = words[w] & !(1 << bit) | u64::from(range.matches(v)) << bit;
        }
        *out = SelectionVector::from_words(words, self.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_past_the_hot_values_are_corrupt() {
        let mut codes = vec![1u64; 2_000];
        codes[1_999] = 2;
        let enc = FrequencyInt {
            hot: vec![7, 9],
            codes: BitPackedVec::pack(&codes, 2).unwrap(),
            exc_pos: Vec::new(),
            exc_val: Vec::new(),
        };
        assert!(matches!(
            enc.validate(),
            Err(Error::Corrupt(m)) if m == "frequency code out of range"
        ));
    }

    #[test]
    fn skewed_distribution() {
        // 95% zeros, a few odd values.
        let mut values = vec![0i64; 950];
        values.extend((0..50).map(|i| 1000 + i));
        let enc = FrequencyInt::encode(&values, 1);
        assert_eq!(enc.exceptions(), 50);
        assert_eq!(enc.bits(), 0);
        let mut out = Vec::new();
        enc.decode_into(&mut out);
        assert_eq!(out, values);
        assert_eq!(enc.get(0), 0);
        assert_eq!(enc.get(951), 1001);
    }

    #[test]
    fn top_k_selection() {
        let values = vec![5i64, 5, 5, 9, 9, 1];
        let enc = FrequencyInt::encode(&values, 2);
        // 5 (3x) and 9 (2x) are hot, 1 is the exception.
        assert_eq!(enc.exceptions(), 1);
        let mut out = Vec::new();
        enc.decode_into(&mut out);
        assert_eq!(out, values);
    }

    #[test]
    fn all_hot_no_exceptions() {
        let values = vec![1i64, 2, 1, 2];
        let enc = FrequencyInt::encode(&values, 4);
        assert_eq!(enc.exceptions(), 0);
        let mut out = Vec::new();
        enc.decode_into(&mut out);
        assert_eq!(out, values);
    }

    #[test]
    fn random_access_hits_exceptions() {
        let values = vec![7i64, 3, 7, 7, 4, 7];
        let enc = FrequencyInt::encode(&values, 1);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(enc.get(i), v, "row {i}");
        }
    }

    #[test]
    fn serialization_roundtrip() {
        let values = vec![7i64, 3, 7, 7, 4, 7, 9, 7];
        let enc = FrequencyInt::encode(&values, 1);
        let mut buf = Vec::new();
        enc.write_to(&mut buf);
        assert_eq!(buf.len(), enc.serialized_len());
        let back = FrequencyInt::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, enc);
        assert!(FrequencyInt::read_from(&mut &buf[..6]).is_err());
    }

    #[test]
    fn empty() {
        let enc = FrequencyInt::encode(&[], 4);
        assert!(enc.is_empty());
        assert_eq!(enc.exceptions(), 0);
    }

    #[test]
    fn filter_hot_and_exceptions() {
        let values = vec![7i64, 3, 7, 7, 4, 7, 9, 7];
        let enc = FrequencyInt::encode(&values, 1);
        assert_eq!(enc.exceptions(), 3);
        let mut out = SelectionVector::empty();
        for range in [
            IntRange::new(7, 7),
            IntRange::negated(7, 7),
            IntRange::new(3, 4),
            IntRange::new(100, 200),
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
    fn beats_dict_on_heavy_skew() {
        // One dominant value + long tail of uniques: frequency wins over dict
        // because dict must store every distinct value at full width.
        let mut values = vec![0i64; 100_000];
        for i in 0..500 {
            values[i * 200] = 1_000_000 + i as i64;
        }
        let freq = FrequencyInt::encode(&values, 1);
        let dict = crate::dict::DictInt::encode(&values);
        assert!(freq.compressed_bytes() < dict.compressed_bytes());
    }
}
