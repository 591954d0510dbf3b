//! Property-based tests: every encoding is a lossless, random-access
//! bijection and survives serialization.

use corra_columnar::aggregate::IntAggState;
use corra_columnar::predicate::IntRange;
use corra_columnar::selection::SelectionVector;
use corra_columnar::stats::{IntStats, ZoneMap};
use corra_columnar::topk::TopKHeap;
use corra_encodings::filter::filter_naive;
use corra_encodings::{
    choose_int_baseline, choose_int_baseline_stats, choose_int_full, choose_int_full_stats,
    DeltaInt, DictInt, DictStr, ForInt, FrequencyInt, IntAccess, IntEncoding, PlainInt, RleInt,
};
use proptest::prelude::*;

/// Value generators covering the paper's data shapes: dense ranges (dates),
/// few-distinct (dictionary material), runs, and adversarial randoms.
fn int_column() -> impl Strategy<Value = Vec<i64>> {
    prop_oneof![
        prop::collection::vec(8_000i64..11_000, 0..400), // date-like
        prop::collection::vec(-100i64..100, 0..400),     // small diffs
        prop::collection::vec(prop::sample::select(vec![1i64, 5, 1_000_000, -7]), 0..400),
        prop::collection::vec(any::<i64>(), 0..200), // adversarial
    ]
}

/// The encode-everything full chooser: all six codecs encoded, the first
/// minimum in menu order kept — the oracle for `choose_int_full`.
fn exhaustive_full(values: &[i64]) -> IntEncoding {
    [
        IntEncoding::For(ForInt::encode(values)),
        IntEncoding::Dict(DictInt::encode(values)),
        IntEncoding::Rle(RleInt::encode(values)),
        IntEncoding::Delta(DeltaInt::encode(values)),
        IntEncoding::Frequency(FrequencyInt::encode(values, 16)),
        IntEncoding::Plain(PlainInt::encode(values)),
    ]
    .into_iter()
    .min_by_key(IntAccess::compressed_bytes)
    .expect("six candidates")
}

/// The paper's baseline by encoding both: Dict only when strictly smaller
/// than FOR — the oracle for `choose_int_baseline`.
fn exhaustive_baseline(values: &[i64]) -> IntEncoding {
    let (ffor, dict) = (ForInt::encode(values), DictInt::encode(values));
    if dict.compressed_bytes() < ffor.compressed_bytes() {
        IntEncoding::Dict(dict)
    } else {
        IntEncoding::For(ffor)
    }
}

/// A column of `len` rows in one of seven shapes, drawn from `seed` (the
/// shim has no `prop_map`): 0 sorted / monotone (Delta), 1 long runs
/// (RLE), 2 at most 16 hot values with rare exceptions (Frequency),
/// 3 all distinct (the bounded count's cut), 4 `i64::MIN` / `MAX` mixes,
/// 5 a small random range (FOR), 6 a sparse two-value alphabet (Dict).
fn shaped_column(shape: u8, len: usize, seed: u64) -> Vec<i64> {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    match shape {
        0 => {
            let anchors = [i64::MIN, -5, 1_700_000_000_000, i64::MAX - 1_000];
            let mut v = anchors[next() as usize % anchors.len()];
            let span = 1 + next() % 300;
            (0..len)
                .map(|_| {
                    v = v.wrapping_add((next() % span) as i64);
                    v
                })
                .collect()
        }
        1 => {
            let mut out = Vec::with_capacity(len);
            while out.len() < len {
                let v = (next() % 1_000) as i64 - 500;
                let run = (1 + next() as usize % 600).min(len - out.len());
                out.extend(std::iter::repeat_n(v, run));
            }
            out
        }
        2 => {
            let hot: Vec<i64> = (0..1 + next() % 16).map(|_| next() as i64).collect();
            let rate = 8 + next() % 200;
            (0..len)
                .map(|_| match next() % rate {
                    0 => next() as i64,
                    _ => hot[next() as usize % hot.len()],
                })
                .collect()
        }
        3 => {
            // An odd multiplier permutes the domain: every row distinct.
            let (m, b) = (next() | 1, next());
            (0..len as u64)
                .map(|i| i.wrapping_mul(m).wrapping_add(b) as i64)
                .collect()
        }
        4 => {
            let pool = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
            let k = 1 + next() as usize % pool.len();
            (0..len).map(|_| pool[next() as usize % k]).collect()
        }
        5 => {
            let (base, span) = (next() as i64, 1 + next() % 5_000);
            (0..len)
                .map(|_| base.wrapping_add((next() % span) as i64))
                .collect()
        }
        _ => (0..len)
            .map(|_| if next() % 3 == 0 { 1 << 40 } else { 0 })
            .collect(),
    }
}

fn check_roundtrip(enc: &impl IntAccess, values: &[i64]) -> Result<(), TestCaseError> {
    prop_assert_eq!(enc.len(), values.len());
    let mut out = Vec::new();
    enc.decode_into(&mut out);
    prop_assert_eq!(&out, values);
    // Random access agrees at a few probes.
    for i in [0, values.len() / 2, values.len().saturating_sub(1)] {
        if i < values.len() {
            prop_assert_eq!(enc.get(i), values[i]);
        }
    }
    Ok(())
}

/// A codec seen through its four required methods only, so every other
/// method is the trait's provided body — the reference each override is
/// measured against.
struct Provided<'a, E>(&'a E);

impl<E: IntAccess> IntAccess for Provided<'_, E> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn get(&self, i: usize) -> i64 {
        self.0.get(i)
    }

    fn compressed_bytes(&self) -> usize {
        self.0.compressed_bytes()
    }

    fn for_each_chunk(&self, f: &mut dyn FnMut(usize, &[i64])) {
        self.0.for_each_chunk(f)
    }
}

/// Every kernel of `enc`, overridden or not, answers exactly what the
/// provided body answers on the same input; and the zone a block records
/// for the column is the fold's exact min / max.
fn check_overrides(
    enc: &impl IntAccess,
    ranges: &[IntRange],
    sels: &[SelectionVector],
    group_of: &[u32],
    seed: i64,
) -> Result<(), TestCaseError> {
    let reference = Provided(enc);
    let (mut got, mut want) = (Vec::new(), Vec::new());
    enc.decode_into(&mut got);
    reference.decode_into(&mut want);
    prop_assert_eq!(&got, &want);
    for range in ranges {
        let (mut got, mut want) = (SelectionVector::new(vec![7]), SelectionVector::new(vec![9]));
        enc.filter_into(range, &mut got);
        reference.filter_into(range, &mut want);
        prop_assert!(got == want, "filter {:?}: {:?} != {:?}", range, got, want);
        prop_assert_eq!(got.bit_len(), enc.len());
    }

    // The whole-column sum, overridden or not, is the decoded column's sum
    // mod 2^64 — adversarial columns wrap it many times over.
    let want_sum = got.iter().fold(0i64, |s, &v| s.wrapping_add(v));
    prop_assert_eq!(enc.sum_wrapping(), want_sum);
    prop_assert_eq!(reference.sum_wrapping(), want_sum);
    // The stored zone — what the encoder records, and what a bare block
    // recomputes from the decoded column — is the oracle min / max, and
    // absent exactly when the column is empty.
    let zone = ZoneMap::from_values(&got).map(|z| (z.min, z.max));
    prop_assert_eq!(
        zone,
        got.iter().min().copied().zip(got.iter().max().copied())
    );
    prop_assert_eq!(zone.is_none(), enc.is_empty());
    let n_groups = group_of.iter().max().map_or(0, |&g| g as usize + 1);
    let mut got = vec![IntAggState::default(); n_groups];
    let mut want = got.clone();
    enc.aggregate_grouped(group_of, &mut got);
    reference.aggregate_grouped(group_of, &mut want);
    prop_assert_eq!(got, want);

    for sel in sels {
        let (mut got, mut want) = (vec![7], vec![9]);
        enc.gather_into(&sel.positions(), &mut got);
        reference.gather_into(&sel.positions(), &mut want);
        prop_assert_eq!(got, want);
        let (mut got, mut want) = (IntAggState::default(), IntAggState::default());
        enc.aggregate_selected(sel, &mut got);
        reference.aggregate_selected(sel, &mut want);
        prop_assert_eq!(got, want);
    }
    // TOP-K into an empty heap and into one already holding a candidate
    // from "another block", whose bound lets overrides skip rows.
    let base = 1u64 << 32;
    for (k, descending, preload) in [
        (0, false, false),
        (1, true, false),
        (3, false, true),
        (3, true, true),
        (enc.len() + 2, true, false),
    ] {
        let heap = || {
            let mut heap = TopKHeap::new(k, descending);
            if preload {
                heap.offer(seed, 0);
            }
            heap
        };
        let (mut got, mut want) = (heap(), heap());
        enc.top_k_into(base, &mut got);
        reference.top_k_into(base, &mut want);
        prop_assert_eq!(got.into_sorted(), want.into_sorted());
        for sel in sels {
            let (mut got, mut want) = (heap(), heap());
            enc.top_k_selected(base, sel, &mut got);
            reference.top_k_selected(base, sel, &mut want);
            prop_assert_eq!(got.into_sorted(), want.into_sorted());
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn for_roundtrip(values in int_column()) {
        check_roundtrip(&ForInt::encode(&values), &values)?;
    }

    #[test]
    fn dict_roundtrip(values in int_column()) {
        check_roundtrip(&DictInt::encode(&values), &values)?;
    }

    #[test]
    fn rle_roundtrip(values in int_column()) {
        check_roundtrip(&RleInt::encode(&values), &values)?;
    }

    #[test]
    fn delta_roundtrip(values in int_column()) {
        check_roundtrip(&DeltaInt::encode(&values), &values)?;
    }

    #[test]
    fn frequency_roundtrip(values in int_column(), k in 1usize..16) {
        check_roundtrip(&FrequencyInt::encode(&values, k), &values)?;
    }

    #[test]
    fn plain_roundtrip(values in int_column()) {
        check_roundtrip(&PlainInt::encode(&values), &values)?;
    }

    /// get(i) == full decode[i] at every position, for the chosen encoding;
    /// and `constant()`, on every codec, names a value only when every row
    /// holds it, and names it for FOR, Dict and RLE of a constant column.
    #[test]
    fn chooser_random_access_consistent(values in int_column()) {
        for enc in [choose_int_baseline(&values), choose_int_full(&values)] {
            let mut full = Vec::new();
            enc.decode_into(&mut full);
            for (i, &v) in full.iter().enumerate() {
                prop_assert_eq!(enc.get(i), v);
            }
        }
        let same = vec![values.first().copied().unwrap_or(0); values.len()];
        for column in [&values, &same] {
            let all = [
                IntEncoding::For(ForInt::encode(column)),
                IntEncoding::Dict(DictInt::encode(column)),
                IntEncoding::Rle(RleInt::encode(column)),
                IntEncoding::Delta(DeltaInt::encode(column)),
                IntEncoding::Frequency(FrequencyInt::encode(column, 16)),
                IntEncoding::Plain(PlainInt::encode(column)),
            ];
            for enc in &all {
                if let Some(c) = enc.constant() {
                    prop_assert!(column.iter().all(|&v| v == c), "{}", enc.scheme());
                }
            }
            if !column.is_empty() && column.iter().all(|&v| v == column[0]) {
                for enc in &all[..3] {
                    prop_assert_eq!(enc.constant(), Some(column[0]));
                }
            }
        }
    }

    /// gather == decode-then-index for arbitrary selections.
    #[test]
    fn gather_equals_pointwise(
        values in prop::collection::vec(-5_000i64..5_000, 1..300),
        raw_sel in prop::collection::vec(any::<u32>(), 0..50),
    ) {
        let n = values.len() as u32;
        let sel = SelectionVector::new(raw_sel.into_iter().map(|p| p % n).collect());
        let enc = choose_int_full(&values);
        let mut got = Vec::new();
        enc.gather_into(&sel.positions(), &mut got);
        let want: Vec<i64> = sel.positions().iter().map(|&p| values[p as usize]).collect();
        prop_assert_eq!(got, want);
    }

    /// Serialization roundtrip for the chosen encoding of arbitrary data.
    #[test]
    fn encoding_serde_roundtrip(values in int_column()) {
        let enc = choose_int_full(&values);
        let mut buf = Vec::new();
        enc.write_to(&mut buf);
        prop_assert_eq!(buf.len(), enc.serialized_len());
        let back = IntEncoding::read_from(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(back, enc);
    }

    /// Truncated serialized encodings error, never panic.
    #[test]
    fn encoding_truncation_errors(values in prop::collection::vec(0i64..100, 1..100), frac in 0.0f64..1.0) {
        let enc = choose_int_full(&values);
        let mut buf = Vec::new();
        enc.write_to(&mut buf);
        let cut = ((buf.len() - 1) as f64 * frac) as usize;
        let slice = &buf[..cut];
        prop_assert!(IntEncoding::read_from(&mut &slice[..]).is_err());
    }

    /// Dict-str roundtrips arbitrary strings.
    #[test]
    fn dict_str_roundtrip(strings in prop::collection::vec("[a-zA-Z ]{0,12}", 0..100)) {
        let enc = DictStr::encode(strings.iter().map(String::as_str));
        prop_assert_eq!(enc.len(), strings.len());
        for (i, s) in strings.iter().enumerate() {
            prop_assert_eq!(enc.get(i), s.as_str());
        }
        let mut buf = Vec::new();
        enc.write_to(&mut buf);
        let back = DictStr::read_from(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(back, enc);
    }

    /// Pushdown parity: every codec's compressed-domain filter kernel finds
    /// exactly the positions decompress-then-filter would, for arbitrary
    /// ranges (including negated, empty, and all-covering ones).
    #[test]
    fn filter_kernels_match_naive(
        values in int_column(),
        a in any::<i64>(),
        b in any::<i64>(),
        negate in any::<bool>(),
    ) {
        let (lo, hi) = (a.min(b), a.max(b));
        let ranges = [
            IntRange { lo, hi, negate },
            // Constants drawn from the data exercise exact-hit paths.
            IntRange { lo: values.first().copied().unwrap_or(0), hi: values.last().copied().unwrap_or(0), negate },
            IntRange::empty(),
            IntRange::all(),
        ];
        let encodings = [
            IntEncoding::Plain(PlainInt::encode(&values)),
            IntEncoding::For(ForInt::encode(&values)),
            IntEncoding::Dict(DictInt::encode(&values)),
            IntEncoding::Rle(RleInt::encode(&values)),
            IntEncoding::Delta(DeltaInt::encode(&values)),
            IntEncoding::Frequency(FrequencyInt::encode(&values, 4)),
        ];
        for range in &ranges {
            let want = filter_naive(&values, range);
            for enc in &encodings {
                let mut got = SelectionVector::empty();
                enc.filter_into(range, &mut got);
                let got = got.positions();
                prop_assert!(got == want, "{} {:?}: {:?} != {:?}", enc.scheme(), range, got, want);
            }
        }
    }

    /// Every codec's stored zone is the oracle min / max. A block records it
    /// at encode — from the baseline chooser's stats pass or one fold over
    /// the raw values — and a bare deserialized block recomputes it from
    /// the decoded column; all three agree with the data's extremes.
    #[test]
    fn value_bounds_cover_data(values in int_column()) {
        let oracle = values.iter().min().zip(values.iter().max()).map(|(&min, &max)| ZoneMap { min, max });
        prop_assert_eq!(ZoneMap::from_stats(&IntStats::compute(&values)), oracle);
        prop_assert_eq!(ZoneMap::from_values(&values), oracle);
        let encodings = [
            IntEncoding::Plain(PlainInt::encode(&values)),
            IntEncoding::For(ForInt::encode(&values)),
            IntEncoding::Dict(DictInt::encode(&values)),
            IntEncoding::Rle(RleInt::encode(&values)),
            IntEncoding::Delta(DeltaInt::encode(&values)),
            IntEncoding::Frequency(FrequencyInt::encode(&values, 4)),
        ];
        for enc in &encodings {
            let mut decoded = Vec::new();
            enc.decode_into(&mut decoded);
            prop_assert!(ZoneMap::from_values(&decoded) == oracle, "{}", enc.scheme());
        }
    }

    /// A Delta column's zone, recomputed from the decode, is exactly the
    /// encoder's — also hard against either end of the `i64` domain, where
    /// the prefix sum wraps.
    #[test]
    fn delta_bounds_cover_every_decoded_value(
        anchor in prop::sample::select(vec![i64::MIN, i64::MIN + 70_000, -3, i64::MAX - 70_000, i64::MAX - 499]),
        steps in prop::collection::vec(0i64..500, 0..600),
        wild in prop::collection::vec(any::<i64>(), 0..3),
    ) {
        let mut values: Vec<i64> = steps.iter().map(|s| anchor + s).collect();
        values.extend(&wild);
        let enc = DeltaInt::encode(&values);
        let mut decoded = Vec::new();
        enc.decode_into(&mut decoded);
        prop_assert_eq!(&decoded, &values);
        let zone = ZoneMap::from_values(&decoded);
        prop_assert_eq!(zone, ZoneMap::from_values(&values));
        prop_assert_eq!(zone.is_some(), !values.is_empty());
    }

    /// The full chooser's pick is no larger than any of the six codecs'
    /// encodings, Frequency with its 16 hot values included.
    #[test]
    fn full_chooser_is_minimal(values in int_column()) {
        let chosen = choose_int_full(&values);
        let sizes = [
            ForInt::encode(&values).compressed_bytes(),
            DictInt::encode(&values).compressed_bytes(),
            RleInt::encode(&values).compressed_bytes(),
            DeltaInt::encode(&values).compressed_bytes(),
            FrequencyInt::encode(&values, 16).compressed_bytes(),
            PlainInt::encode(&values).compressed_bytes(),
        ];
        prop_assert!(sizes.iter().all(|&size| chosen.compressed_bytes() <= size));
    }

    /// Both choosers size their candidates from one stats pass and encode
    /// only the winner; the pick is exactly the encode-everything oracle's,
    /// ties included, on the shapes each codec wins and at the lengths
    /// where the arithmetic turns (miniblock edges, a 16 K-row block).
    #[test]
    fn choosers_pick_the_exhaustive_minimum(
        shape in 0u8..7,
        len in prop_oneof![
            prop::sample::select(vec![0usize, 1, 127, 128, 129, 16_384]),
            0usize..3_000,
        ],
        seed in any::<u64>(),
    ) {
        let values = shaped_column(shape, len, seed);
        prop_assert_eq!(choose_int_full(&values), exhaustive_full(&values));
        prop_assert_eq!(choose_int_baseline(&values), exhaustive_baseline(&values));
    }

    /// The same on the suite's general column mix.
    #[test]
    fn choosers_pick_the_exhaustive_minimum_on_any_column(values in int_column()) {
        prop_assert_eq!(choose_int_full(&values), exhaustive_full(&values));
        prop_assert_eq!(choose_int_baseline(&values), exhaustive_baseline(&values));
    }

    /// The trait's provided bodies are the reference: each of the six
    /// codecs, and `IntEncoding` dispatching to the chooser's pick, answers
    /// every kernel exactly as they do — on empty columns, empty and
    /// all-rows selections, and plain, negated, empty and all-covering
    /// ranges.
    #[test]
    fn overrides_match_provided_bodies(
        values in int_column(),
        a in any::<i64>(),
        b in any::<i64>(),
        raw_sel in prop::collection::vec(any::<u32>(), 0..50),
        raw_groups in prop::collection::vec(0u32..4, 400),
    ) {
        let n = values.len();
        let (lo, hi) = (a.min(b), a.max(b));
        // Constants drawn from the data exercise exact-hit paths.
        let (first, last) = (values.first().copied().unwrap_or(0), values.last().copied().unwrap_or(0));
        let ranges = [
            IntRange::new(lo, hi),
            IntRange::negated(lo, hi),
            IntRange::new(first.min(last), first.max(last)),
            IntRange::negated(first, first),
            IntRange::empty(),
            IntRange::all(),
        ];
        let sels = [
            SelectionVector::empty(),
            SelectionVector::all(n),
            SelectionVector::new(raw_sel.iter().filter_map(|p| p.checked_rem(n as u32)).collect()),
            // Bursts that start mid-miniblock and run across a restart,
            // then skip one: every move of Delta's forward cursor.
            SelectionVector::new((0..n as u32).filter(|p| p % 200 >= 90 && p % 3 != 0).collect()),
        ];
        let group_of = &raw_groups[..n];
        let seed = values.get(n / 2).copied().unwrap_or(a);
        check_overrides(&PlainInt::encode(&values), &ranges, &sels, group_of, seed)?;
        check_overrides(&ForInt::encode(&values), &ranges, &sels, group_of, seed)?;
        check_overrides(&DictInt::encode(&values), &ranges, &sels, group_of, seed)?;
        check_overrides(&RleInt::encode(&values), &ranges, &sels, group_of, seed)?;
        check_overrides(&DeltaInt::encode(&values), &ranges, &sels, group_of, seed)?;
        check_overrides(&FrequencyInt::encode(&values, 4), &ranges, &sels, group_of, seed)?;
        check_overrides(&choose_int_full(&values), &ranges, &sels, group_of, seed)?;
    }
}

/// Hand-built columns on which two or more codecs' sizes tie exactly at
/// the minimum: the pick is the first in menu order (FOR, Dict, RLE,
/// Delta, Frequency, Plain), as the encode-everything chooser's
/// `min_by_key` resolves it.
#[test]
fn ties_resolve_in_menu_order() {
    let runs = |parts: &[(i64, usize)]| -> Vec<i64> {
        parts
            .iter()
            .flat_map(|&(v, n)| std::iter::repeat_n(v, n))
            .collect()
    };
    let spread: Vec<(i64, usize)> = (0..32)
        .map(|k| (k << 40, if k == 0 { 17 } else { 6 }))
        .collect();
    // (column, the tied schemes in menu order)
    let cases = [
        (
            runs(&[(1_000, 5)]),
            &["for", "dict", "delta", "frequency"][..],
        ),
        (
            runs(&[(0, 25), (1 << 40, 25)]),
            &["dict", "rle", "frequency"][..],
        ),
        // 32 spread values in runs: Dict ties RLE past the hot list, where
        // the distinct count may stop — but only once Dict exceeds RLE.
        (runs(&spread), &["dict", "rle"][..]),
        (runs(&[(2, 50), (1, 50), (0, 50)]), &["rle", "delta"][..]),
        (runs(&[(5, 34), (6, 61), (7, 8)]), &["for", "delta"][..]),
        (runs(&[(1, 44), (0, 71)]), &["for", "rle", "delta"][..]),
        (Vec::new(), &["rle", "plain"][..]),
    ];
    for (values, tied) in cases {
        let sizes = [
            ("for", ForInt::encode(&values).compressed_bytes()),
            ("dict", DictInt::encode(&values).compressed_bytes()),
            ("rle", RleInt::encode(&values).compressed_bytes()),
            ("delta", DeltaInt::encode(&values).compressed_bytes()),
            (
                "frequency",
                FrequencyInt::encode(&values, 16).compressed_bytes(),
            ),
            ("plain", PlainInt::encode(&values).compressed_bytes()),
        ];
        let min = sizes.iter().map(|&(_, size)| size).min().unwrap();
        let at_min: Vec<&str> = sizes
            .iter()
            .filter(|&&(_, size)| size == min)
            .map(|&(name, _)| name)
            .collect();
        assert_eq!(at_min, tied, "{sizes:?}");
        let chosen = choose_int_full(&values);
        assert_eq!(chosen.scheme(), tied[0], "{sizes:?}");
        assert_eq!(chosen, exhaustive_full(&values));
    }
    // The baseline's tie (a constant column: FOR 9 = Dict 9) goes to FOR.
    assert_eq!(choose_int_baseline(&[1_000; 5]).scheme(), "for");
}

/// On an all-distinct 16 K-row block neither dictionary candidate can
/// win, and the distinct count stops before the last row — the sooner
/// the smaller the best other size: the stats the choosers return hold a
/// lower bound, not the exact count.
#[test]
fn the_distinct_count_stops_once_dict_and_frequency_lose() {
    let scattered: Vec<i64> = (0..16_384u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) as i64)
        .collect();
    let timestamps: Vec<i64> = (0..16_384).map(|i| 1_700_000_000_000 + 3 * i).collect();
    // Plain (8 bytes a row) is the best of the rest on the scattered
    // column; on the timestamps Delta (3 bits a row) beats Dict at 17
    // values, FOR (16 bits a row) only past a thousand.
    for (values, full_cut, baseline_cut) in [(&scattered, 16_384, 16_384), (&timestamps, 32, 2_048)]
    {
        let (full, stats) = choose_int_full_stats(values);
        assert_eq!(full, exhaustive_full(values));
        assert!(stats.distinct < full_cut, "{stats:?}");
        let (baseline, stats) = choose_int_baseline_stats(values);
        assert_eq!(baseline, exhaustive_baseline(values));
        assert!(stats.distinct < baseline_cut, "{stats:?}");
    }
    // A low-cardinality column is counted to the end.
    let few: Vec<i64> = (0..16_384).map(|i| (i % 40) * 1_000_003).collect();
    let (enc, stats) = choose_int_full_stats(&few);
    assert_eq!(enc, exhaustive_full(&few));
    assert_eq!(stats.distinct, 40);
}
