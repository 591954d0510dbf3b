//! Cost-based selection of the best single-column encoding.
//!
//! The paper's baseline (§3): *"a baseline that employs the best
//! single-column encoding scheme for each column. We use FOR- or
//! Dict-encoding schemes, followed by a bit-packing. We chose these because
//! they allow for fast random access into the compressed column; both RLE
//! and Delta require checkpoints."*
//!
//! [`choose_int_baseline`] implements exactly that (FOR vs. Dict by
//! compressed size); [`choose_int_full`] picks the smallest of all six
//! schemes (FOR, Dict, RLE, Delta, Frequency, Plain) and is what
//! `ColumnPlan::AutoFull` columns and compaction run.
//!
//! Neither encodes a candidate to measure it: every codec's
//! `compressed_bytes` is a closed form over [`IntStats`] from one ordered
//! pass and a per-value count that stops once the dictionary candidates
//! provably lose. Only the winner is encoded, a Dict or Frequency winner
//! from that count. The pick is the encode-everything minimum, ties
//! resolved in menu order.

use bytes::{Buf, BufMut};
use corra_columnar::aggregate::IntAggState;
use corra_columnar::bitpack::bits_needed;
use corra_columnar::error::{Error, Result};
use corra_columnar::predicate::IntRange;
use corra_columnar::selection::SelectionVector;
use corra_columnar::stats::{IntStats, HOT_VALUES};
use corra_columnar::topk::TopKHeap;

use crate::delta::{DeltaInt, MINIBLOCK};
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

    /// The value every row holds, when the codec's metadata alone proves
    /// it: FOR at width 0, a one-entry dictionary, a single RLE run. `None`
    /// otherwise, though the column may still happen to be constant.
    pub fn constant(&self) -> Option<i64> {
        match self {
            IntEncoding::For(e) if e.bits() == 0 => Some(e.base()),
            IntEncoding::Dict(e) if e.dict().len() == 1 => Some(e.dict()[0]),
            IntEncoding::Rle(e) if e.runs() == 1 => Some(e.run_values()[0]),
            _ => None,
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

    fn gather_into(&self, rows: &[u32], out: &mut Vec<i64>) {
        self.codec().gather_into(rows, out)
    }

    fn filter_into(&self, range: &IntRange, out: &mut SelectionVector) {
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

/// Bytes of `n` values bit-packed at the width of `max` — the codecs'
/// `tight_bytes`.
fn packed_bytes(n: usize, max: u64) -> usize {
    (n as u64 * bits_needed(max) as u64).div_ceil(8) as usize
}

/// The full menu, in its tie-break order: of equal sizes the first wins.
#[derive(Debug, Clone, Copy)]
enum Candidate {
    For,
    Dict,
    Rle,
    Delta,
    Frequency,
    Plain,
}

const MENU: [Candidate; 6] = [
    Candidate::For,
    Candidate::Dict,
    Candidate::Rle,
    Candidate::Delta,
    Candidate::Frequency,
    Candidate::Plain,
];

impl Candidate {
    /// The codec's exact `compressed_bytes` over a column with `stats`;
    /// Dict and Frequency read `distinct` / `hot_mass`, so they need a
    /// count that ran to the end.
    fn bytes(self, stats: &IntStats) -> usize {
        let n = stats.count;
        let hot = stats.distinct.min(HOT_VALUES);
        match self {
            // Base, width byte, offsets at the range's width.
            Candidate::For => 9 + packed_bytes(n, stats.range()),
            // Sorted values, width byte, codes.
            Candidate::Dict => {
                8 * stats.distinct + 1 + packed_bytes(n, stats.distinct.saturating_sub(1) as u64)
            }
            // A value and an end per run.
            Candidate::Rle => 12 * stats.runs,
            // A restart per miniblock, width byte, deltas.
            Candidate::Delta => {
                8 * n.div_ceil(MINIBLOCK) + 1 + (n * stats.delta_bits as usize).div_ceil(8)
            }
            // Hot values, width byte, codes, a 12-byte exception per other
            // row.
            Candidate::Frequency => {
                8 * hot
                    + 1
                    + packed_bytes(n, hot.saturating_sub(1) as u64)
                    + 12 * (n - stats.hot_mass)
            }
            Candidate::Plain => 8 * n,
        }
    }
}

/// FOR's exact compressed size over a column with `stats`.
pub fn estimate_for_bytes(stats: &IntStats) -> usize {
    Candidate::For.bytes(stats)
}

/// Dict's exact compressed size over a column with `stats`.
pub fn estimate_dict_bytes(stats: &IntStats) -> usize {
    Candidate::Dict.bytes(stats)
}

/// The paper's baseline chooser: best of FOR and Dict by compressed size.
pub fn choose_int_baseline(values: &[i64]) -> IntEncoding {
    choose_int_baseline_stats(values).0
}

/// [`choose_int_baseline`], also returning the stats its pass computed —
/// the block compressor keeps them for the column's zone. Dict wins only
/// when strictly smaller, so the distinct count stops once Dict's size at
/// the count so far reaches FOR's.
pub fn choose_int_baseline_stats(values: &[i64]) -> (IntEncoding, IntStats) {
    let mut stats = IntStats::scan(values);
    let (mut at, for_bytes) = (stats, Candidate::For.bytes(&stats));
    let enc = match stats.count_values(values, |d| {
        at.distinct = d;
        Candidate::Dict.bytes(&at) >= for_bytes
    }) {
        Some(counts) if Candidate::Dict.bytes(&stats) < for_bytes => {
            IntEncoding::Dict(DictInt::encode_counted(values, counts))
        }
        _ => IntEncoding::For(ForInt::encode(values)),
    };
    (enc, stats)
}

/// The smallest of all six schemes by compressed size; of equal sizes the
/// first in menu order wins. The block compressor runs it for
/// `ColumnPlan::AutoFull` columns, and compaction for every column.
pub fn choose_int_full(values: &[i64]) -> IntEncoding {
    choose_int_full_stats(values).0
}

/// [`choose_int_full`], also returning the stats its pass computed. Every
/// size is a closed form over the stats, so only the winner is encoded.
/// Dict and Frequency only grow with the distinct count, which stops once
/// both exceed the best of the other four — exceed, not reach, since Dict
/// wins a tie against every later candidate.
pub fn choose_int_full_stats(values: &[i64]) -> (IntEncoding, IntStats) {
    let mut stats = IntStats::scan(values);
    let uncounted = |c: &Candidate| !matches!(c, Candidate::Dict | Candidate::Frequency);
    let cheap = MENU.into_iter().filter(uncounted).map(|c| c.bytes(&stats));
    let cheap = cheap.min().unwrap_or(usize::MAX);
    let mut at = stats;
    let counts = stats.count_values(values, |d| {
        // At `d` values Frequency is smallest when each value outside the
        // hot list holds a single row.
        let exceptions = d.saturating_sub(HOT_VALUES);
        (at.distinct, at.hot_mass) = (d, at.count - exceptions);
        Candidate::Dict.bytes(&at) > cheap && Candidate::Frequency.bytes(&at) > cheap
    });
    let pick = MENU
        .into_iter()
        .filter(|c| counts.is_some() || uncounted(c))
        .min_by_key(|c| c.bytes(&stats))
        .unwrap_or(Candidate::Plain);
    let enc = match (pick, counts) {
        (Candidate::For, _) => IntEncoding::For(ForInt::encode(values)),
        (Candidate::Dict, Some(counts)) => {
            IntEncoding::Dict(DictInt::encode_counted(values, counts))
        }
        (Candidate::Rle, _) => IntEncoding::Rle(RleInt::encode(values)),
        (Candidate::Delta, _) => IntEncoding::Delta(DeltaInt::encode(values)),
        (Candidate::Frequency, Some(counts)) => {
            IntEncoding::Frequency(FrequencyInt::encode_counted(values, &counts, HOT_VALUES))
        }
        // An uncounted Dict / Frequency was filtered out above.
        _ => IntEncoding::Plain(PlainInt::encode(values)),
    };
    (enc, stats)
}

/// String columns always use Dict in the baseline.
pub fn choose_str_baseline(values: impl IntoIterator<Item = impl AsRef<str>>) -> DictStr {
    DictStr::encode(values)
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
        // Every closed form equals the encoded size: small ranges, sparse
        // values, runs (one starting on a miniblock's first row), sorted,
        // hot values with exceptions, the domain ends, and the lengths
        // around a miniblock edge.
        let columns: Vec<Vec<i64>> = vec![
            (0..10_000).map(|i| (i % 97) * 13).collect(),
            (0..5_000).map(|i| (i % 4) * 1_000_000_007).collect(),
            (0..3_000).map(|i| i / 640 * 1_000_000).collect(),
            (0..129).map(|i| 1_700_000_000_000 + 7 * i).collect(),
            (0..2_000)
                .map(|i| if i % 37 == 0 { i * 1_000_003 } else { i % 20 })
                .collect(),
            // Many values, each with its own count: the hot 16 are a
            // proper selection.
            (0..200)
                .flat_map(|k| std::iter::repeat_n(k * 7_919 % 200, k as usize + 1))
                .collect(),
            vec![i64::MIN, i64::MAX, 0, i64::MAX, i64::MIN],
            vec![42],
            Vec::new(),
        ];
        for values in &columns {
            let stats = IntStats::compute(values);
            let encoded = [
                ForInt::encode(values).compressed_bytes(),
                DictInt::encode(values).compressed_bytes(),
                RleInt::encode(values).compressed_bytes(),
                DeltaInt::encode(values).compressed_bytes(),
                FrequencyInt::encode(values, HOT_VALUES).compressed_bytes(),
                PlainInt::encode(values).compressed_bytes(),
            ];
            for (candidate, actual) in MENU.into_iter().zip(encoded) {
                let rows = values.len();
                assert_eq!(
                    candidate.bytes(&stats),
                    actual,
                    "{candidate:?}, {rows} rows"
                );
            }
        }
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
        // Owned rows are interned as they arrive, byte-identical to
        // encoding the borrowed rows.
        let rows = ["NYC", "", "Naples", "NYC", "Zürich", "", "NYC"];
        let owned = choose_str_baseline(rows.iter().map(|s| s.to_string()));
        let borrowed = DictStr::encode(rows);
        assert_eq!(owned, borrowed);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        owned.write_to(&mut a);
        borrowed.write_to(&mut b);
        assert_eq!(a, b);
    }
}
