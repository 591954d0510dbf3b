//! Cost-based selection of the best single-column encoding.
//!
//! The paper's baseline (§3): *"a baseline that employs the best
//! single-column encoding scheme for each column. We use FOR- or
//! Dict-encoding schemes, followed by a bit-packing. We chose these because
//! they allow for fast random access into the compressed column; both RLE
//! and Delta require checkpoints."*
//!
//! [`choose_int_baseline`] implements exactly that (FOR vs. Dict by
//! compressed size). [`choose_int_full`] additionally considers RLE, Delta
//! and Frequency for the ablation benches.

use bytes::{Buf, BufMut};
use corra_columnar::aggregate::IntAggState;
use corra_columnar::error::{Error, Result};
use corra_columnar::predicate::IntRange;
use corra_columnar::selection::SelectionVector;
use corra_columnar::stats::IntStats;
use corra_columnar::topk::TopKHeap;

use crate::delta::DeltaInt;
use crate::dict::{DictInt, DictStr};
use crate::ffor::ForInt;
use crate::frequency::FrequencyInt;
use crate::plain::PlainInt;
use crate::rle::RleInt;
use crate::traits::IntAccess;

/// Any of the integer encodings, chosen at compression time.
#[derive(Debug, Clone, PartialEq)]
pub enum IntEncoding {
    /// No compression.
    Plain(PlainInt),
    /// Frame-of-reference + bit-packing.
    For(ForInt),
    /// Dictionary + bit-packing.
    Dict(DictInt),
    /// Run-length with checkpoint index.
    Rle(RleInt),
    /// Delta with miniblock restarts.
    Delta(DeltaInt),
    /// Frequency with exception region.
    Frequency(FrequencyInt),
}

impl IntEncoding {
    /// The chosen codec behind the one interface — where every kernel but
    /// `get` dispatches, once per block.
    fn codec(&self) -> &dyn IntAccess {
        match self {
            IntEncoding::Plain(e) => e,
            IntEncoding::For(e) => e,
            IntEncoding::Dict(e) => e,
            IntEncoding::Rle(e) => e,
            IntEncoding::Delta(e) => e,
            IntEncoding::Frequency(e) => e,
        }
    }

    /// A short scheme name for experiment output.
    pub fn scheme(&self) -> &'static str {
        match self {
            IntEncoding::Plain(_) => "plain",
            IntEncoding::For(_) => "for",
            IntEncoding::Dict(_) => "dict",
            IntEncoding::Rle(_) => "rle",
            IntEncoding::Delta(_) => "delta",
            IntEncoding::Frequency(_) => "frequency",
        }
    }

    /// Discriminant tag used in the serialized block format.
    fn tag(&self) -> u8 {
        match self {
            IntEncoding::Plain(_) => 0,
            IntEncoding::For(_) => 1,
            IntEncoding::Dict(_) => 2,
            IntEncoding::Rle(_) => 3,
            IntEncoding::Delta(_) => 4,
            IntEncoding::Frequency(_) => 5,
        }
    }

    /// Writes `tag | payload`.
    pub fn write_to(&self, buf: &mut impl BufMut) {
        buf.put_u8(self.tag());
        match self {
            IntEncoding::Plain(e) => e.write_to(buf),
            IntEncoding::For(e) => e.write_to(buf),
            IntEncoding::Dict(e) => e.write_to(buf),
            IntEncoding::Rle(e) => e.write_to(buf),
            IntEncoding::Delta(e) => e.write_to(buf),
            IntEncoding::Frequency(e) => e.write_to(buf),
        }
    }

    /// Serialized length of [`write_to`](Self::write_to).
    pub fn serialized_len(&self) -> usize {
        1 + match self {
            IntEncoding::Plain(e) => e.serialized_len(),
            IntEncoding::For(e) => e.serialized_len(),
            IntEncoding::Dict(e) => e.serialized_len(),
            IntEncoding::Rle(e) => e.serialized_len(),
            IntEncoding::Delta(e) => e.serialized_len(),
            IntEncoding::Frequency(e) => e.serialized_len(),
        }
    }

    /// Reads back a [`write_to`](Self::write_to) payload.
    pub fn read_from(buf: &mut impl Buf) -> Result<Self> {
        if buf.remaining() < 1 {
            return Err(Error::corrupt("int encoding tag truncated"));
        }
        match buf.get_u8() {
            0 => Ok(IntEncoding::Plain(PlainInt::read_from(buf)?)),
            1 => Ok(IntEncoding::For(ForInt::read_from(buf)?)),
            2 => Ok(IntEncoding::Dict(DictInt::read_from(buf)?)),
            3 => Ok(IntEncoding::Rle(RleInt::read_from(buf)?)),
            4 => Ok(IntEncoding::Delta(DeltaInt::read_from(buf)?)),
            5 => Ok(IntEncoding::Frequency(FrequencyInt::read_from(buf)?)),
            t => Err(Error::corrupt(format!("unknown int encoding tag {t}"))),
        }
    }
}

/// Forwards every kernel to the chosen codec, so its compressed-domain
/// overrides run; only `get` is matched statically, because horizontal
/// codecs call it per row on their reference column.
impl IntAccess for IntEncoding {
    fn len(&self) -> usize {
        self.codec().len()
    }

    #[inline]
    fn get(&self, i: usize) -> i64 {
        match self {
            IntEncoding::Plain(e) => e.get(i),
            IntEncoding::For(e) => e.get(i),
            IntEncoding::Dict(e) => e.get(i),
            IntEncoding::Rle(e) => e.get(i),
            IntEncoding::Delta(e) => e.get(i),
            IntEncoding::Frequency(e) => e.get(i),
        }
    }

    fn compressed_bytes(&self) -> usize {
        self.codec().compressed_bytes()
    }

    fn for_each_chunk(&self, f: &mut dyn FnMut(usize, &[i64])) {
        self.codec().for_each_chunk(f)
    }

    fn decode_into(&self, out: &mut Vec<i64>) {
        self.codec().decode_into(out)
    }

    fn gather_into(&self, sel: &SelectionVector, out: &mut Vec<i64>) {
        self.codec().gather_into(sel, out)
    }

    fn filter_into(&self, range: &IntRange, out: &mut Vec<u32>) {
        self.codec().filter_into(range, out)
    }

    fn sum_wrapping(&self) -> i64 {
        self.codec().sum_wrapping()
    }

    fn aggregate_selected(&self, sel: &SelectionVector, state: &mut IntAggState) {
        self.codec().aggregate_selected(sel, state)
    }

    fn aggregate_grouped(&self, group_of: &[u32], states: &mut [IntAggState]) {
        self.codec().aggregate_grouped(group_of, states)
    }

    fn top_k_into(&self, base: u64, heap: &mut TopKHeap) {
        self.codec().top_k_into(base, heap)
    }

    fn top_k_selected(&self, base: u64, sel: &SelectionVector, heap: &mut TopKHeap) {
        self.codec().top_k_selected(base, sel, heap)
    }
}

/// Estimates the FOR compressed size from statistics without encoding.
pub fn estimate_for_bytes(stats: &IntStats) -> usize {
    8 + 1 + ((stats.count as u64 * stats.for_bits() as u64).div_ceil(8)) as usize
}

/// Estimates the Dict compressed size from statistics without encoding.
pub fn estimate_dict_bytes(stats: &IntStats) -> usize {
    stats.distinct * 8 + 1 + ((stats.count as u64 * stats.dict_bits() as u64).div_ceil(8)) as usize
}

/// The paper's baseline chooser: best of FOR and Dict by compressed size.
pub fn choose_int_baseline(values: &[i64]) -> IntEncoding {
    choose_int_baseline_with(values, &IntStats::compute(values))
}

/// [`choose_int_baseline`] over `stats` the caller already computed for
/// `values` — the block compressor keeps them for the column's zone.
pub fn choose_int_baseline_with(values: &[i64], stats: &IntStats) -> IntEncoding {
    if estimate_dict_bytes(stats) < estimate_for_bytes(stats) {
        IntEncoding::Dict(DictInt::encode(values))
    } else {
        IntEncoding::For(ForInt::encode(values))
    }
}

/// Extended chooser over all implemented schemes (used in ablations; the
/// paper's experiments use [`choose_int_baseline`]).
pub fn choose_int_full(values: &[i64]) -> IntEncoding {
    let candidates = [
        IntEncoding::For(ForInt::encode(values)),
        IntEncoding::Dict(DictInt::encode(values)),
        IntEncoding::Rle(RleInt::encode(values)),
        IntEncoding::Delta(DeltaInt::encode(values)),
        IntEncoding::Frequency(FrequencyInt::encode(values, 16)),
        IntEncoding::Plain(PlainInt::encode(values)),
    ];
    candidates
        .into_iter()
        .min_by_key(IntAccess::compressed_bytes)
        .expect("non-empty candidate list")
}

/// String columns always use Dict in the baseline.
pub fn choose_str_baseline(values: impl IntoIterator<Item = impl AsRef<str>>) -> DictStr {
    let owned: Vec<String> = values.into_iter().map(|s| s.as_ref().to_owned()).collect();
    DictStr::encode(owned.iter().map(String::as_str))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_prefers_for_on_dense_range() {
        // Dates: dense small range, few-distinct but range-packed FOR wins
        // (dict would store 2500 distinct values * 8B).
        let values: Vec<i64> = (0..100_000).map(|i| 8_035 + (i % 2_500) as i64).collect();
        let enc = choose_int_baseline(&values);
        assert_eq!(enc.scheme(), "for");
    }

    #[test]
    fn baseline_prefers_dict_on_sparse_values() {
        // Few distinct, widely spread values: dict wins.
        let values: Vec<i64> = (0..100_000)
            .map(|i| ((i % 4) as i64) * 1_000_000_007)
            .collect();
        let enc = choose_int_baseline(&values);
        assert_eq!(enc.scheme(), "dict");
    }

    #[test]
    fn estimates_match_actual() {
        let values: Vec<i64> = (0..10_000).map(|i| (i % 97) as i64 * 13).collect();
        let stats = IntStats::compute(&values);
        assert_eq!(
            estimate_for_bytes(&stats),
            ForInt::encode(&values).compressed_bytes()
        );
        assert_eq!(
            estimate_dict_bytes(&stats),
            DictInt::encode(&values).compressed_bytes()
        );
    }

    #[test]
    fn full_chooser_never_worse_than_baseline() {
        for gen in [
            |i: usize| i as i64,              // sorted: delta wins
            |i: usize| (i / 1000) as i64,     // runs: rle wins
            |i: usize| (i as i64 * 7919) % 3, // few distinct
            |i: usize| (i as i64).wrapping_mul(0x9E3779B97F4A7C15u64 as i64), // random
        ] {
            let values: Vec<i64> = (0..5_000).map(gen).collect();
            let full = choose_int_full(&values);
            let base = choose_int_baseline(&values);
            assert!(full.compressed_bytes() <= base.compressed_bytes());
            // And both decode correctly.
            let mut a = Vec::new();
            let mut b = Vec::new();
            full.decode_into(&mut a);
            base.decode_into(&mut b);
            assert_eq!(a, values);
            assert_eq!(b, values);
        }
    }

    #[test]
    fn enum_serialization_roundtrip_all_variants() {
        let values: Vec<i64> = (0..300).map(|i| (i % 10) as i64 * 5).collect();
        let variants = vec![
            IntEncoding::Plain(PlainInt::encode(&values)),
            IntEncoding::For(ForInt::encode(&values)),
            IntEncoding::Dict(DictInt::encode(&values)),
            IntEncoding::Rle(RleInt::encode(&values)),
            IntEncoding::Delta(DeltaInt::encode(&values)),
            IntEncoding::Frequency(FrequencyInt::encode(&values, 4)),
        ];
        for enc in variants {
            let mut buf = Vec::new();
            enc.write_to(&mut buf);
            assert_eq!(buf.len(), enc.serialized_len(), "{}", enc.scheme());
            let back = IntEncoding::read_from(&mut buf.as_slice()).unwrap();
            assert_eq!(back, enc);
            let mut out = Vec::new();
            back.decode_into(&mut out);
            assert_eq!(out, values);
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let buf = [99u8, 0, 0];
        assert!(IntEncoding::read_from(&mut &buf[..]).is_err());
    }

    #[test]
    fn str_baseline_is_dict() {
        let enc = choose_str_baseline(["a", "b", "a"]);
        assert_eq!(enc.distinct(), 2);
    }
}
