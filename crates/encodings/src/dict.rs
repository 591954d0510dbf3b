//! Dictionary encoding followed by bit-packing, for integers and strings.
//!
//! The second half of the paper's baseline. Distinct values are collected
//! into a dictionary (sorted for integers so codes preserve order; flattened
//! [`StringPool`] for strings, per §3: "To store column strings, we use Dict
//! encoding and pack the distinct strings into a flattened array"), and each
//! row stores a bit-packed code.

use bytes::{Buf, BufMut};
use corra_columnar::aggregate::IntAggState;
use corra_columnar::bitpack::BitPackedVec;
use corra_columnar::error::{Error, Result};
use corra_columnar::predicate::IntRange;
use corra_columnar::selection::SelectionVector;
use corra_columnar::strings::{StringDictBuilder, StringPool};
use corra_columnar::topk::TopKHeap;
use rustc_hash::FxHashMap;

use crate::traits::{check_rows, check_selection, code_counts, stream_packed, IntAccess};

/// Dictionary-encoded integer column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DictInt {
    /// Sorted distinct values.
    dict: Vec<i64>,
    /// Per-row bit-packed code into `dict`.
    codes: BitPackedVec,
}

impl DictInt {
    /// Encodes `values`.
    pub fn encode(values: &[i64]) -> Self {
        let mut counts: FxHashMap<i64, u32> = FxHashMap::default();
        for &v in values {
            *counts.entry(v).or_default() += 1;
        }
        Self::encode_counted(values, counts)
    }

    /// [`encode`](Self::encode) over the per-value row counts of `values`
    /// the caller already holds (a chooser's stats pass): the dictionary is
    /// the sorted keys, and the map, renumbered, becomes the code index.
    pub fn encode_counted(values: &[i64], mut counts: FxHashMap<i64, u32>) -> Self {
        let mut dict: Vec<i64> = counts.keys().copied().collect();
        dict.sort_unstable();
        for (code, v) in dict.iter().enumerate() {
            counts.insert(*v, code as u32);
        }
        let codes: Vec<u64> = values.iter().map(|v| counts[v] as u64).collect();
        Self {
            dict,
            codes: BitPackedVec::pack_minimal(&codes),
        }
    }

    /// The sorted dictionary.
    pub fn dict(&self) -> &[i64] {
        &self.dict
    }

    /// Code bit width.
    pub fn bits(&self) -> u8 {
        self.codes.bits()
    }

    /// The code at row `i` (used when a dict column serves as hierarchical
    /// reference).
    #[inline]
    pub fn code_at(&self, i: usize) -> u32 {
        self.codes.get(i) as u32
    }

    /// Code access skipping the bounds assertion (validated hot paths).
    #[inline]
    pub fn code_at_unchecked(&self, i: usize) -> u32 {
        self.codes.get_unchecked_len(i) as u32
    }

    /// Value access skipping the bounds assertion (validated hot paths).
    #[inline]
    pub fn value_at_unchecked(&self, i: usize) -> i64 {
        self.dict[self.codes.get_unchecked_len(i) as usize]
    }

    /// A hoisted-mask reader over the packed codes (hot query loops).
    #[inline]
    pub fn code_reader(&self) -> corra_columnar::bitpack::PackedReader<'_> {
        self.codes.reader()
    }

    /// The per-row bit-packed codes into [`dict`](Self::dict).
    pub fn codes(&self) -> &BitPackedVec {
        &self.codes
    }

    /// Bulk-decodes the per-row codes into `out` (cleared first) through the
    /// batched kernels — the parent-code fetch of hierarchical encoding.
    pub fn codes_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.reserve(self.len());
        self.codes.unpack_chunks(|_, chunk| {
            out.extend(chunk.iter().map(|&c| c as u32));
        });
    }

    /// Serialized length of [`write_to`](Self::write_to).
    pub fn serialized_len(&self) -> usize {
        8 + self.dict.len() * 8 + self.codes.serialized_len()
    }

    /// Writes `dict_len (u64) | dict | codes`.
    pub fn write_to(&self, buf: &mut impl BufMut) {
        buf.put_u64_le(self.dict.len() as u64);
        for &v in &self.dict {
            buf.put_i64_le(v);
        }
        self.codes.write_to(buf);
    }

    /// Reads back a [`write_to`](Self::write_to) payload.
    pub fn read_from(buf: &mut impl Buf) -> Result<Self> {
        if buf.remaining() < 8 {
            return Err(Error::corrupt("dict-int header truncated"));
        }
        let dict_len = buf.get_u64_le() as usize;
        if buf.remaining() < dict_len.saturating_mul(8) {
            return Err(Error::corrupt("dict-int dictionary truncated"));
        }
        let mut dict = Vec::with_capacity(dict_len);
        for _ in 0..dict_len {
            dict.push(buf.get_i64_le());
        }
        let codes = BitPackedVec::read_from(buf)?;
        let out = Self { dict, codes };
        out.validate()?;
        Ok(out)
    }

    /// The invariants `read_from` enforces on outside bytes. Strict
    /// sortedness is what makes code order value order — the property
    /// `filter_into`'s code intervals and the TOP-K code-domain path rely
    /// on.
    fn validate(&self) -> Result<()> {
        if self.dict.windows(2).any(|w| w[0] >= w[1]) {
            return Err(Error::corrupt("dict-int dictionary not strictly sorted"));
        }
        if !self.codes.all_below(self.dict.len() as u64) {
            return Err(Error::corrupt("dict-int code out of range"));
        }
        Ok(())
    }
}

impl IntAccess for DictInt {
    fn len(&self) -> usize {
        self.codes.len()
    }

    #[inline]
    fn get(&self, i: usize) -> i64 {
        self.dict[self.codes.get(i) as usize]
    }

    fn compressed_bytes(&self) -> usize {
        // dictionary values + width byte + tightly packed codes.
        self.dict.len() * 8 + 1 + self.codes.tight_bytes()
    }

    fn for_each_chunk(&self, f: &mut dyn FnMut(usize, &[i64])) {
        stream_packed(&self.codes, |_, c| self.dict[c as usize], f);
    }

    fn decode_into(&self, out: &mut Vec<i64>) {
        out.clear();
        out.reserve(self.len());
        self.codes.unpack_chunks(|_, chunk| {
            out.extend(chunk.iter().map(|&c| self.dict[c as usize]));
        });
    }

    fn gather_into(&self, rows: &[u32], out: &mut Vec<i64>) {
        check_rows(rows, self.len());
        out.clear();
        out.reserve(rows.len());
        let r = self.codes.reader();
        for &p in rows {
            out.push(self.dict[r.get(p as usize) as usize]);
        }
    }

    /// The sorted dictionary turns a value range into a contiguous *code*
    /// interval (two binary searches — one evaluation per distinct value
    /// boundary), after which only bit-packed codes are compared.
    fn filter_into(&self, range: &IntRange, out: &mut SelectionVector) {
        if range.interval_is_empty() {
            *out = SelectionVector::all_or_none(self.len(), range.negate);
            return;
        }
        // Codes in [lo_code, hi_code) hold dictionary values inside the
        // positive interval.
        let lo_code = self.dict.partition_point(|&v| v < range.lo) as u64;
        let hi_code = self.dict.partition_point(|&v| v <= range.hi) as u64;
        if lo_code >= hi_code {
            *out = SelectionVector::all_or_none(self.len(), range.negate);
            return;
        }
        // Fused decode+compare in the code domain (hi_code is exclusive and
        // lo_code < hi_code here, so the inclusive bound cannot underflow).
        self.codes
            .filter_range_into(lo_code, hi_code - 1, range.negate, out);
    }

    /// Histograms the bit-packed codes (`code_counts`), then sums once
    /// per *distinct* value weighted by its count (`value · count`) — the
    /// per-row work is one counter increment, never an `i64`
    /// reconstruction.
    fn sum_wrapping(&self) -> i64 {
        let counts = code_counts(&self.codes, self.dict.len());
        self.dict
            .iter()
            .zip(counts)
            .fold(0i64, |s, (&v, n)| s.wrapping_add(v.wrapping_mul(n as i64)))
    }

    fn aggregate_selected(&self, sel: &SelectionVector, state: &mut IntAggState) {
        check_selection(sel, self.len());
        let mut counts = vec![0u64; self.dict.len()];
        let r = self.codes.reader();
        for p in sel.positions() {
            counts[r.get(p as usize) as usize] += 1;
        }
        for (&v, &n) in self.dict.iter().zip(&counts) {
            state.update_n(v, n);
        }
    }

    /// Code-domain selection, valid because the dictionary is sorted:
    /// histogram the packed codes, walk codes best-value-first until `k`
    /// rows are covered, then collect the first occurrences of the winning
    /// codes in one row-order pass — `O(rows + distinct)` with at most `k`
    /// heap offers, no per-row comparisons.
    fn top_k_into(&self, base: u64, heap: &mut TopKHeap) {
        let k = heap.k();
        if k == 0 || self.is_empty() {
            return;
        }
        let dict = self.dict();
        let mut codes = Vec::new();
        self.codes_into(&mut codes);
        let mut counts = vec![0u32; dict.len()];
        for &c in &codes {
            counts[c as usize] += 1;
        }
        // Walk codes from the best value onward; `take[c]` is how many of
        // code `c`'s rows can still make the top-k.
        let mut take = vec![0u32; dict.len()];
        let order: &mut dyn Iterator<Item = usize> = if heap.descending() {
            &mut (0..dict.len()).rev()
        } else {
            &mut (0..dict.len())
        };
        let mut remaining = k;
        for c in order {
            if remaining == 0 || !heap.would_accept(dict[c]) {
                break;
            }
            let t = (counts[c] as usize).min(remaining);
            take[c] = t as u32;
            remaining -= t;
        }
        // Offer the first `take[c]` occurrences of each winning code, in
        // row order — exactly the positions the tie-break would keep.
        for (i, &c) in codes.iter().enumerate() {
            let c = c as usize;
            if take[c] > 0 {
                take[c] -= 1;
                heap.offer(dict[c], base + i as u64);
            }
        }
    }
}

/// Dictionary-encoded string column with a flattened distinct-string pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DictStr {
    /// Distinct strings in first-occurrence order.
    pool: StringPool,
    /// Per-row bit-packed code into `pool`.
    codes: BitPackedVec,
}

impl DictStr {
    /// Encodes an iterator of rows, interning each as it arrives.
    pub fn encode(values: impl IntoIterator<Item = impl AsRef<str>>) -> Self {
        let mut builder = StringDictBuilder::new();
        let codes: Vec<u64> = values
            .into_iter()
            .map(|s| builder.intern(s.as_ref()) as u64)
            .collect();
        Self {
            pool: builder.finish(),
            codes: BitPackedVec::pack_minimal(&codes),
        }
    }

    /// Encodes from a per-row pool.
    pub fn encode_pool(pool: &StringPool) -> Self {
        Self::encode(pool.iter())
    }

    /// The distinct-string pool (dictionary).
    pub fn pool(&self) -> &StringPool {
        &self.pool
    }

    /// Code bit width.
    pub fn bits(&self) -> u8 {
        self.codes.bits()
    }

    /// Number of distinct strings.
    pub fn distinct(&self) -> usize {
        self.pool.len()
    }

    /// The code at row `i` — the reference accessor used by hierarchical
    /// encoding ("the city … has been dict-encoded in advance", Alg. 1).
    #[inline]
    pub fn code_at(&self, i: usize) -> u32 {
        self.codes.get(i) as u32
    }

    /// The per-row bit-packed codes into [`pool`](Self::pool).
    pub fn codes(&self) -> &BitPackedVec {
        &self.codes
    }

    /// Serialized length of [`write_to`](Self::write_to).
    pub fn serialized_len(&self) -> usize {
        self.pool.serialized_len() + self.codes.serialized_len()
    }

    /// Writes `pool | codes`.
    pub fn write_to(&self, buf: &mut impl BufMut) {
        self.pool.write_to(buf);
        self.codes.write_to(buf);
    }

    /// Reads back a [`write_to`](Self::write_to) payload.
    pub fn read_from(buf: &mut impl Buf) -> Result<Self> {
        let pool = StringPool::read_from(buf)?;
        let codes = BitPackedVec::read_from(buf)?;
        let out = Self { pool, codes };
        out.validate()?;
        Ok(out)
    }

    /// The invariant `read_from` enforces on outside bytes.
    fn validate(&self) -> Result<()> {
        if !self.codes.all_below(self.pool.len() as u64) {
            return Err(Error::corrupt("dict-str code out of range"));
        }
        Ok(())
    }

    /// Number of encoded rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decodes the string at row `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        self.pool.get(self.codes.get(i) as usize)
    }

    /// Compressed size in bytes including metadata.
    pub fn compressed_bytes(&self) -> usize {
        // flattened distinct strings + offsets + width byte + packed codes.
        self.pool.heap_bytes() + 1 + self.codes.tight_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dict_int_roundtrip() {
        let values = vec![500i64, 100, 500, 300, 100, 500];
        let enc = DictInt::encode(&values);
        assert_eq!(enc.dict(), &[100, 300, 500]);
        assert_eq!(enc.bits(), 2);
        let mut out = Vec::new();
        enc.decode_into(&mut out);
        assert_eq!(out, values);
        assert_eq!(enc.get(3), 300);
    }

    #[test]
    fn dict_int_codes_preserve_order() {
        // Sorted dictionary means code comparison == value comparison.
        let enc = DictInt::encode(&[30, 10, 20]);
        assert!(enc.code_at(1) < enc.code_at(2));
        assert!(enc.code_at(2) < enc.code_at(0));
    }

    #[test]
    fn dict_int_single_value() {
        let enc = DictInt::encode(&[7; 100]);
        assert_eq!(enc.bits(), 0);
        assert_eq!(enc.get(50), 7);
        // dictionary 8B + width byte
        assert_eq!(enc.compressed_bytes(), 9);
    }

    #[test]
    fn dict_int_serialization() {
        let enc = DictInt::encode(&[5, 1, 5, 9, 1]);
        let mut buf = Vec::new();
        enc.write_to(&mut buf);
        assert_eq!(buf.len(), enc.serialized_len());
        let back = DictInt::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, enc);
    }

    #[test]
    fn dict_int_rejects_corrupt_dictionary() {
        let enc = DictInt::encode(&[1, 2, 3]);
        let mut buf = Vec::new();
        enc.write_to(&mut buf);
        // Swap first two dictionary entries to break sortedness.
        let (a, b) = (buf[8], buf[16]);
        buf[8] = b;
        buf[16] = a;
        assert!(DictInt::read_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn dict_codes_past_the_dictionary_are_corrupt() {
        // Three entries at two bits: code 3 is packable but names nothing.
        let mut codes = vec![0u64; 2_000];
        codes[1_500] = 3;
        let codes = BitPackedVec::pack(&codes, 2).unwrap();
        let int = DictInt {
            dict: vec![1, 2, 3],
            codes: codes.clone(),
        };
        let str = DictStr {
            pool: StringPool::from_iter(["a", "b", "c"]),
            codes,
        };
        for err in [int.validate(), str.validate()] {
            assert!(matches!(err, Err(Error::Corrupt(m)) if m.contains("code out of range")));
        }
    }

    #[test]
    fn dict_str_roundtrip() {
        let enc = DictStr::encode(["NYC", "Naples", "NYC", "Cortland", "NYC"]);
        assert_eq!(enc.len(), 5);
        assert_eq!(enc.distinct(), 3);
        assert_eq!(enc.bits(), 2);
        assert_eq!(enc.get(0), "NYC");
        assert_eq!(enc.get(3), "Cortland");
        // First-occurrence order codes.
        assert_eq!(enc.code_at(0), 0);
        assert_eq!(enc.code_at(1), 1);
        assert_eq!(enc.code_at(3), 2);
    }

    #[test]
    fn dict_str_gather() {
        // Selected rows materialize as owned copies of their pool entries.
        let enc = DictStr::encode(["a", "b", "c", "a"]);
        let sel = SelectionVector::new(vec![1, 3]);
        let out: Vec<String> = sel
            .positions()
            .iter()
            .map(|&p| enc.get(p as usize).to_owned())
            .collect();
        assert_eq!(out, vec!["b".to_owned(), "a".to_owned()]);
    }

    #[test]
    fn dict_str_serialization() {
        let enc = DictStr::encode(["x", "yy", "x", "zzz"]);
        let mut buf = Vec::new();
        enc.write_to(&mut buf);
        assert_eq!(buf.len(), enc.serialized_len());
        let back = DictStr::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, enc);
        assert!(DictStr::read_from(&mut &buf[..3]).is_err());
    }

    #[test]
    fn dict_str_size_accounting() {
        let enc = DictStr::encode(["ab", "cd", "ab", "ab"]);
        // pool: 4 bytes + 3 offsets * 4 = 16; codes: 1 bit * 4 rows -> 1 byte (+1 width byte)
        assert_eq!(enc.compressed_bytes(), 4 + 12 + 1 + 1);
    }

    #[test]
    fn empty_columns() {
        let enc = DictInt::encode(&[]);
        assert!(enc.is_empty());
        let enc = DictStr::encode([""; 0]);
        assert!(enc.is_empty());
    }

    #[test]
    fn dict_int_filter_code_interval() {
        let values = vec![500i64, 100, 500, 300, 100, 500, 900];
        let enc = DictInt::encode(&values);
        let mut out = SelectionVector::empty();
        for range in [
            IntRange::new(100, 300),
            IntRange::new(150, 450),
            IntRange::negated(500, 500),
            IntRange::new(901, i64::MAX),
            IntRange::empty(),
            IntRange::all(),
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
    fn code_order_capability() {
        // Int dictionaries are sorted: code order is value order.
        let enc = DictInt::encode(&[30, 10, 20]);
        assert!(enc.code_at(1) < enc.code_at(0));
        assert!(enc.get(1) < enc.get(0));
        // String pools are first-occurrence-ordered: code order disagrees
        // with value order, so only equality (code identity) is meaningful
        // in a string code domain.
        let enc = DictStr::encode(["zebra", "apple"]);
        assert!(enc.code_at(0) < enc.code_at(1));
        assert!(enc.get(0) > enc.get(1));
    }

    #[test]
    fn dict_str_filter_eq() {
        // Pool entries are distinct, so string equality is code identity:
        // one pool lookup, then a compare per packed code.
        let enc = DictStr::encode(["NYC", "Naples", "NYC", "Cortland"]);
        let code_of = |v: &str| (0..enc.distinct()).find(|&k| enc.pool().get(k) == v);
        let rows = |target: Option<usize>, negate: bool| -> Vec<u32> {
            (0..enc.len() as u32)
                .filter(|&i| (Some(enc.codes().get(i as usize) as usize) == target) != negate)
                .collect()
        };
        assert_eq!(rows(code_of("NYC"), false), vec![0, 2]);
        assert_eq!(rows(code_of("NYC"), true), vec![1, 3]);
        assert_eq!(code_of("Miami"), None);
        assert!(rows(code_of("Miami"), false).is_empty());
        assert_eq!(rows(code_of("Miami"), true), vec![0, 1, 2, 3]);
    }
}
