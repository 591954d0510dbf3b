//! Hierarchical encoding (paper §2.2, Fig. 3, Alg. 1).
//!
//! Targets column pairs with a parent→child hierarchy such as
//! (`city`, `zip-code`): the child has many distinct values globally but only
//! a few per parent. The encoder collects, per parent dictionary code, the
//! distinct child values into a flattened `values` array indexed by an
//! `offsets` array; each row then stores only the child's index *within its
//! parent's group*, whose bit-width is ⌈log₂ max-group-size⌉.
//!
//! Decompression is Alg. 1 verbatim:
//! ```text
//! ref  ← Fetch(city)[tid]                  (parent dict code)
//! diff ← Fetch(zip-code)[tid]              (per-row group index)
//! return zip_codes[offset[ref] + diff]
//! ```

use bytes::{Buf, BufMut};
use corra_columnar::aggregate::IntAggState;
use corra_columnar::bitpack::{BitPackedVec, UNPACK_CHUNK};
use corra_columnar::error::{Error, Result};
use corra_columnar::predicate::IntRange;
use corra_columnar::selection::SelectionVector;
use corra_columnar::strings::{StringDictBuilder, StringPool};
use corra_encodings::IntAccess;
use rustc_hash::FxHashMap;

use crate::query::{stream_reconstructed, CodeAccess, DecodeScratch};

/// Hierarchically encoded column with integer child values
/// (e.g. zip codes w.r.t. city, IPs w.r.t. country).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierInt {
    /// Per-row index of the child value within its parent's group.
    codes: BitPackedVec,
    /// Distinct child values, grouped by parent code (metadata array
    /// "zip_codes" in Fig. 3).
    values: Vec<i64>,
    /// Start of each parent's group in `values` (metadata array "offsets");
    /// `offsets.len() == n_parents + 1`.
    offsets: Vec<u32>,
}

impl HierInt {
    /// Encodes `child` w.r.t. parent dictionary codes `parent_codes`
    /// (values in `0..n_parents`).
    ///
    /// The paper's compression pass: *"we maintain a hashtable of cities on
    /// the fly and their corresponding zip-codes"* — here a per-parent map
    /// from child value to group index.
    pub fn encode(child: &[i64], parent_codes: &[u32], n_parents: usize) -> Result<Self> {
        if child.len() != parent_codes.len() {
            return Err(Error::LengthMismatch {
                left: child.len(),
                right: parent_codes.len(),
            });
        }
        // Per-parent insertion-ordered distinct child values.
        let mut groups: Vec<Vec<i64>> = vec![Vec::new(); n_parents];
        let mut index: FxHashMap<(u32, i64), u32> = FxHashMap::default();
        let mut codes = Vec::with_capacity(child.len());
        for (&c, &p) in child.iter().zip(parent_codes) {
            let p_us = p as usize;
            if p_us >= n_parents {
                return Err(Error::IndexOutOfBounds {
                    index: p_us,
                    len: n_parents,
                });
            }
            let code = *index.entry((p, c)).or_insert_with(|| {
                let g = &mut groups[p_us];
                g.push(c);
                (g.len() - 1) as u32
            });
            codes.push(code as u64);
        }
        // Flatten groups into values + offsets in a single pass (paper: "can
        // then be computed once the compression has been finalized, in a
        // single pass as well").
        let total: usize = groups.iter().map(Vec::len).sum();
        let mut values = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(n_parents + 1);
        offsets.push(0u32);
        for g in &groups {
            values.extend_from_slice(g);
            offsets.push(values.len() as u32);
        }
        Ok(Self {
            codes: BitPackedVec::pack_minimal(&codes),
            values,
            offsets,
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Per-row code bit width (⌈log₂ max-group-size⌉).
    pub fn bits(&self) -> u8 {
        self.codes.bits()
    }

    /// Number of parent groups.
    pub fn n_parents(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The per-row group indexes, the child values grouped by parent and
    /// the group starts — what the block's structural check reads.
    pub(crate) fn parts(&self) -> (&BitPackedVec, &[i64], &[u32]) {
        (&self.codes, &self.values, &self.offsets)
    }

    /// Total distinct (parent, child) pairs stored in metadata.
    pub fn metadata_entries(&self) -> usize {
        self.values.len()
    }

    /// Size of the group of parent `p`.
    pub fn group_len(&self, p: u32) -> usize {
        let p = p as usize;
        (self.offsets[p + 1] - self.offsets[p]) as usize
    }

    /// Alg. 1: reconstructs row `i` given the parent's dict code at `i`.
    #[inline]
    pub fn get(&self, i: usize, parent_code: u32) -> i64 {
        let off = self.offsets[parent_code as usize];
        self.values[(off + self.codes.get(i) as u32) as usize]
    }

    /// [`get`](Self::get) skipping the bounds assertion (validated hot paths).
    #[inline]
    pub fn get_unchecked_len(&self, i: usize, parent_code: u32) -> i64 {
        let off = self.offsets[parent_code as usize];
        self.values[(off + self.codes.get_unchecked_len(i) as u32) as usize]
    }

    /// Compressed size: packed codes + metadata arrays (the paper includes
    /// metadata in the reported compression size).
    pub fn compressed_bytes(&self) -> usize {
        1 + self.codes.tight_bytes() + self.values.len() * 8 + self.offsets.len() * 4
    }

    /// Serialized length of [`write_to`](Self::write_to).
    pub fn serialized_len(&self) -> usize {
        self.codes.serialized_len() + 8 + self.values.len() * 8 + 8 + self.offsets.len() * 4
    }

    /// Writes `codes | n_values | values | n_offsets | offsets`.
    pub fn write_to(&self, buf: &mut impl BufMut) {
        self.codes.write_to(buf);
        buf.put_u64_le(self.values.len() as u64);
        for &v in &self.values {
            buf.put_i64_le(v);
        }
        buf.put_u64_le(self.offsets.len() as u64);
        for &o in &self.offsets {
            buf.put_u32_le(o);
        }
    }

    /// Reads back a [`write_to`](Self::write_to) payload.
    pub fn read_from(buf: &mut impl Buf) -> Result<Self> {
        let codes = BitPackedVec::read_from(buf)?;
        if buf.remaining() < 8 {
            return Err(Error::corrupt("hier values header truncated"));
        }
        let n_values = buf.get_u64_le() as usize;
        if buf.remaining() < n_values.saturating_mul(8) {
            return Err(Error::corrupt("hier values truncated"));
        }
        let mut values = Vec::with_capacity(n_values);
        for _ in 0..n_values {
            values.push(buf.get_i64_le());
        }
        let offsets = read_offsets(buf, values.len(), "hier")?;
        Ok(Self {
            codes,
            values,
            offsets,
        })
    }
}

/// Reads the group starts of a hierarchical column over `entries` metadata
/// entries (`what` names the codec in errors): at least one, from 0 up to
/// `entries`, never falling.
fn read_offsets(buf: &mut impl Buf, entries: usize, what: &str) -> Result<Vec<u32>> {
    let corrupt = |problem: &str| Error::corrupt(format!("{what} offsets {problem}"));
    if buf.remaining() < 8 {
        return Err(corrupt("header truncated"));
    }
    let n_offsets = buf.get_u64_le() as usize;
    if n_offsets == 0 {
        return Err(corrupt("empty"));
    }
    if buf.remaining() < n_offsets.saturating_mul(4) {
        return Err(corrupt("truncated"));
    }
    let offsets: Vec<u32> = (0..n_offsets).map(|_| buf.get_u32_le()).collect();
    if offsets[0] != 0
        || *offsets.last().unwrap() as usize != entries
        || offsets.windows(2).any(|w| w[0] > w[1])
    {
        return Err(corrupt("inconsistent"));
    }
    Ok(offsets)
}

/// Alg. 1 over a whole block, and the only loop that computes it: calls
/// `f(start, addresses)` with the metadata address `offsets[parent] + code`
/// of rows `start..start + addresses.len()`, in row order. The child's
/// group indexes and the parent's codes unpack through the batched kernels
/// in step, one [`UNPACK_CHUNK`] of each at a time. Both hierarchical
/// families read it: the integer column's filter, folds and decode, and
/// the string column's entry stream.
#[inline]
pub(crate) fn for_each_address_chunk(
    codes: &BitPackedVec,
    offsets: &[u32],
    parent: &CodeAccess<'_>,
    mut f: impl FnMut(usize, &[u32]),
) {
    let mut addresses = [0u32; UNPACK_CHUNK];
    codes.unpack_chunks_with(parent.codes, |start, codes, parents| {
        let addresses = &mut addresses[..codes.len()];
        for ((at, &code), &p) in addresses.iter_mut().zip(codes).zip(parents) {
            *at = offsets[p as usize] + code as u32;
        }
        f(start, addresses);
    });
}

/// A hierarchical column resolved against its parent ([`int_column`]):
/// Alg. 1 per row, and the whole-block kernels over the address stream
/// ([`for_each_address_chunk`]), which work per distinct (parent, child)
/// metadata entry instead of per row — a predicate is evaluated once per
/// entry, sums and folds histogram the addresses, and the decode looks
/// each one up.
///
/// [`int_column`]: crate::query::int_column
pub(crate) struct HierColumn<'a> {
    enc: &'a HierInt,
    parent: CodeAccess<'a>,
    scratch: &'a DecodeScratch,
}

impl<'a> HierColumn<'a> {
    /// `enc` under `parent`, which the block's assembly checked
    /// (`check_column`): one code per row, and every row's group index
    /// inside its parent's group.
    pub(crate) fn new(
        enc: &'a HierInt,
        parent: CodeAccess<'a>,
        scratch: &'a DecodeScratch,
    ) -> Self {
        Self {
            enc,
            parent,
            scratch,
        }
    }

    /// The Alg. 1 metadata address of row `i` whose group index is `code`.
    #[inline]
    fn address(&self, i: usize, code: u64) -> usize {
        (self.enc.offsets[self.parent.code(i) as usize] + code as u32) as usize
    }

    /// The block's address stream.
    #[inline]
    fn for_each_address_chunk(&self, f: impl FnMut(usize, &[u32])) {
        for_each_address_chunk(&self.enc.codes, &self.enc.offsets, &self.parent, f);
    }
}

impl IntAccess for HierColumn<'_> {
    fn len(&self) -> usize {
        self.enc.len()
    }

    // `always`: the per-row step of the provided selected kernels (gather,
    // selected fold, selected TOP-K); left to the hint it stayed a call.
    #[inline(always)]
    fn get(&self, i: usize) -> i64 {
        // One bounds check for both reads: the parent has one code per row
        // (checked when the block was assembled).
        assert!(i < self.len(), "row out of bounds");
        self.enc.get_unchecked_len(i, self.parent.code(i))
    }

    fn compressed_bytes(&self) -> usize {
        self.enc.compressed_bytes()
    }

    fn for_each_chunk(&self, f: &mut dyn FnMut(usize, &[i64])) {
        stream_reconstructed(self, self.scratch, f);
    }

    fn decode_into(&self, out: &mut Vec<i64>) {
        out.clear();
        out.reserve(self.len());
        let values = &self.enc.values;
        self.for_each_address_chunk(|_, at| out.extend(at.iter().map(|&a| values[a as usize])));
    }

    /// Evaluates `range` once per metadata entry, then turns each chunk's
    /// addresses into the selection's bitmap words.
    fn filter_into(&self, range: &IntRange, out: &mut SelectionVector) {
        let values = &self.enc.values;
        let verdicts: Vec<u64> = values
            .iter()
            .map(|&v| u64::from(range.matches(v)))
            .collect();
        let mut words = vec![0u64; self.len().div_ceil(64)];
        self.for_each_address_chunk(|start, at| {
            for (word, at) in words[start / 64..].iter_mut().zip(at.chunks(64)) {
                *word = at
                    .iter()
                    .rev()
                    .fold(0, |w, &a| w << 1 | verdicts[a as usize]);
            }
        });
        *out = SelectionVector::from_words(words, self.len());
    }

    /// Histograms the rows' metadata addresses, then sums once per entry.
    fn sum_wrapping(&self) -> i64 {
        let mut counts = vec![0u64; self.enc.values.len()];
        self.for_each_address_chunk(|_, at| at.iter().for_each(|&a| counts[a as usize] += 1));
        self.enc
            .values
            .iter()
            .zip(&counts)
            .fold(0i64, |s, (&v, &n)| s.wrapping_add(v.wrapping_mul(n as i64)))
    }

    fn aggregate_selected(&self, sel: &SelectionVector, state: &mut IntAggState) {
        assert!(sel.validate(self.len()), "selection out of bounds");
        let mut counts = vec![0u64; self.enc.values.len()];
        for p in sel.positions() {
            let i = p as usize;
            counts[self.address(i, self.enc.codes.get_unchecked_len(i))] += 1;
        }
        for (&v, &n) in self.enc.values.iter().zip(&counts) {
            state.update_n(v, n);
        }
    }

    fn aggregate_grouped(&self, group_of: &[u32], states: &mut [IntAggState]) {
        assert_eq!(group_of.len(), self.len(), "group codes misaligned");
        let values = &self.enc.values;
        self.for_each_address_chunk(|start, at| {
            for (&a, &g) in at.iter().zip(&group_of[start..]) {
                states[g as usize].update(values[a as usize]);
            }
        });
    }
}

/// Hierarchically encoded column with *string* child values
/// (e.g. city w.r.t. state). The metadata pool stores each distinct
/// (parent, child) pair's string once, grouped by parent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierStr {
    codes: BitPackedVec,
    /// Distinct child strings grouped by parent code.
    values: StringPool,
    /// Group starts; `offsets.len() == n_parents + 1`.
    offsets: Vec<u32>,
}

impl HierStr {
    /// Encodes string `child` rows w.r.t. parent dictionary codes.
    pub fn encode(child: &StringPool, parent_codes: &[u32], n_parents: usize) -> Result<Self> {
        if child.len() != parent_codes.len() {
            return Err(Error::LengthMismatch {
                left: child.len(),
                right: parent_codes.len(),
            });
        }
        let mut groups: Vec<StringDictBuilder> = Vec::new();
        groups.resize_with(n_parents, StringDictBuilder::new);
        let mut codes = Vec::with_capacity(child.len());
        for (i, &p) in parent_codes.iter().enumerate() {
            let p_us = p as usize;
            if p_us >= n_parents {
                return Err(Error::IndexOutOfBounds {
                    index: p_us,
                    len: n_parents,
                });
            }
            codes.push(groups[p_us].intern(child.get(i)) as u64);
        }
        let mut values = StringPool::new();
        let mut offsets = Vec::with_capacity(n_parents + 1);
        offsets.push(0u32);
        for g in groups {
            let pool = g.finish();
            for s in pool.iter() {
                values.push(s);
            }
            offsets.push(values.len() as u32);
        }
        Ok(Self {
            codes: BitPackedVec::pack_minimal(&codes),
            values,
            offsets,
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Per-row code bit width.
    pub fn bits(&self) -> u8 {
        self.codes.bits()
    }

    /// Number of parent groups.
    pub fn n_parents(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The per-row group indexes, the child strings grouped by parent and
    /// the group starts — what the string-column view and the block's
    /// structural check read.
    pub(crate) fn parts(&self) -> (&BitPackedVec, &StringPool, &[u32]) {
        (&self.codes, &self.values, &self.offsets)
    }

    /// Compressed size: packed codes + flattened string metadata + offsets.
    pub fn compressed_bytes(&self) -> usize {
        1 + self.codes.tight_bytes() + self.values.heap_bytes() + self.offsets.len() * 4
    }

    /// Serialized length of [`write_to`](Self::write_to).
    pub fn serialized_len(&self) -> usize {
        self.codes.serialized_len() + self.values.serialized_len() + 8 + self.offsets.len() * 4
    }

    /// Writes `codes | values | n_offsets | offsets`.
    pub fn write_to(&self, buf: &mut impl BufMut) {
        self.codes.write_to(buf);
        self.values.write_to(buf);
        buf.put_u64_le(self.offsets.len() as u64);
        for &o in &self.offsets {
            buf.put_u32_le(o);
        }
    }

    /// Reads back a [`write_to`](Self::write_to) payload.
    pub fn read_from(buf: &mut impl Buf) -> Result<Self> {
        let codes = BitPackedVec::read_from(buf)?;
        let values = StringPool::read_from(buf)?;
        let offsets = read_offsets(buf, values.len(), "hier-str")?;
        Ok(Self {
            codes,
            values,
            offsets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::ColumnCodec;
    use corra_encodings::{DictInt, IntEncoding};

    /// The paper's Fig. 3 worked example.
    fn fig3() -> (Vec<i64>, Vec<u32>) {
        // city: Cortland=0, Naples=1, NYC=2
        let cities = vec![0u32, 1, 1, 1, 2, 2];
        let zips = vec![13_045i64, 34_102, 34_112, 34_102, 10_016, 10_001];
        (zips, cities)
    }

    /// `enc` decoded under the per-row parent codes `parent`, through the
    /// resolved column: the parent is an integer dictionary over the codes
    /// themselves, which encode to themselves when every code up to the
    /// largest occurs.
    fn decode(enc: &HierInt, parent: &[u32]) -> Vec<i64> {
        let parent = DictInt::encode(&parent.iter().map(|&c| i64::from(c)).collect::<Vec<_>>());
        let parent = ColumnCodec::Int(IntEncoding::Dict(parent));
        let scratch = DecodeScratch::default();
        let column = HierColumn::new(enc, CodeAccess::of(&parent).unwrap(), &scratch);
        let mut out = Vec::new();
        column.decode_into(&mut out);
        out
    }

    #[test]
    fn fig3_metadata_layout() {
        let (zips, cities) = fig3();
        let enc = HierInt::encode(&zips, &cities, 3).unwrap();
        // zip_codes: [13045, 34102, 34112, 10016, 10001]; offsets: [0,1,3,5]
        assert_eq!(enc.metadata_entries(), 5);
        assert_eq!(enc.group_len(0), 1);
        assert_eq!(enc.group_len(1), 2);
        assert_eq!(enc.group_len(2), 2);
        // Per-row codes from Fig. 3(b): [0, 0, 1, 0, 0, 1]
        assert_eq!(decode(&enc, &cities), zips);
        // Alg. 1 point accesses.
        assert_eq!(enc.get(2, 1), 34_112);
        assert_eq!(enc.get(5, 2), 10_001);
        // Max group size 2 -> 1 bit per row.
        assert_eq!(enc.bits(), 1);
    }

    #[test]
    fn bitwidth_drops_vs_global_dict() {
        // 1000 parents, 16 children each, all children globally distinct:
        // global dict needs 14 bits; per-parent index needs 4.
        let mut child = Vec::new();
        let mut parent = Vec::new();
        for row in 0..64_000usize {
            let p = (row % 1_000) as u32;
            let c = (p as i64) * 100 + (row / 1_000 % 16) as i64;
            parent.push(p);
            child.push(c);
        }
        let enc = HierInt::encode(&child, &parent, 1_000).unwrap();
        assert_eq!(enc.bits(), 4);
        assert_eq!(enc.metadata_entries(), 16_000);
        assert_eq!(decode(&enc, &parent), child);
    }

    #[test]
    fn rejects_parent_code_out_of_range() {
        assert!(HierInt::encode(&[1], &[5], 3).is_err());
        assert!(HierInt::encode(&[1, 2], &[0], 1).is_err());
    }

    #[test]
    fn empty_hierarchy() {
        let enc = HierInt::encode(&[], &[], 0).unwrap();
        assert!(enc.is_empty());
        assert_eq!(enc.n_parents(), 0);
        assert_eq!(enc.metadata_entries(), 0);
    }

    #[test]
    fn single_parent_all_children() {
        let child: Vec<i64> = (0..100).map(|i| i * 3).collect();
        let parent = vec![0u32; 100];
        let enc = HierInt::encode(&child, &parent, 1).unwrap();
        assert_eq!(enc.group_len(0), 100);
        assert_eq!(enc.bits(), 7);
        assert_eq!(decode(&enc, &parent), child);
    }

    #[test]
    fn gather_through_accessor() {
        let (zips, cities) = fig3();
        let enc = HierInt::encode(&zips, &cities, 3).unwrap();
        // City codes 0..3 dictionary-encode to themselves.
        let parent = DictInt::encode(&cities.iter().map(|&c| i64::from(c)).collect::<Vec<_>>());
        let parent = ColumnCodec::Int(IntEncoding::Dict(parent));
        let scratch = DecodeScratch::default();
        let column = HierColumn::new(&enc, CodeAccess::of(&parent).unwrap(), &scratch);
        let mut out = Vec::new();
        column.gather_into(&[0, 3, 5], &mut out);
        assert_eq!(out, vec![13_045, 34_102, 10_001]);
    }

    #[test]
    fn int_serialization_roundtrip() {
        let (zips, cities) = fig3();
        let enc = HierInt::encode(&zips, &cities, 3).unwrap();
        let mut buf = Vec::new();
        enc.write_to(&mut buf);
        assert_eq!(buf.len(), enc.serialized_len());
        let back = HierInt::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, enc);
        assert!(HierInt::read_from(&mut &buf[..5]).is_err());
    }

    #[test]
    fn str_roundtrip_state_city() {
        // state -> city (the paper's DMV (state, city) pair). The decode runs
        // through the string-column view:
        // `tests/string_columns.rs::hier_str_decode_and_gather_state_city`.
        let states = vec![0u32, 0, 1, 1, 0, 1];
        let cities = StringPool::from_iter(["NYC", "Albany", "Miami", "Naples", "NYC", "Miami"]);
        let enc = HierStr::encode(&cities, &states, 2).unwrap();
        assert_eq!(enc.n_parents(), 2);
        assert_eq!(enc.bits(), 1);
        assert_eq!(enc.offsets, [0, 2, 4]);
        let groups: Vec<&str> = enc.values.iter().collect();
        assert_eq!(groups, ["NYC", "Albany", "Miami", "Naples"]);
    }

    #[test]
    fn str_gather_and_serialization() {
        // The gather runs through the string-column view:
        // `tests/string_columns.rs::hier_str_decode_and_gather_state_city`.
        let states = vec![0u32, 1, 0];
        let cities = StringPool::from_iter(["A", "B", "C"]);
        let enc = HierStr::encode(&cities, &states, 2).unwrap();
        let mut buf = Vec::new();
        enc.write_to(&mut buf);
        assert_eq!(buf.len(), enc.serialized_len());
        let back = HierStr::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, enc);
    }

    #[test]
    fn str_rejects_misaligned() {
        let cities = StringPool::from_iter(["A"]);
        assert!(HierStr::encode(&cities, &[0, 1], 2).is_err());
        assert!(HierStr::encode(&cities, &[9], 2).is_err());
    }

    #[test]
    fn metadata_counted_in_size() {
        let (zips, cities) = fig3();
        let enc = HierInt::encode(&zips, &cities, 3).unwrap();
        // 6 rows * 1 bit -> 1 byte, +1 width byte, +5 values * 8, +4 offsets * 4.
        assert_eq!(enc.compressed_bytes(), 1 + 1 + 40 + 16);
    }
}
