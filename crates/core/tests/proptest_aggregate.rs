//! The differential oracle harness for the compressed-domain aggregation
//! engine — the headline test deliverable of the aggregate PR.
//!
//! Every aggregate kernel must equal decompress-then-fold:
//!
//! * at the **encoding level**, for all six vertical codecs (Plain, FOR,
//!   Dict, RLE, Delta, Frequency) over full columns, empty/full/sparse
//!   selections and grouped folds, plus the zone a block stores;
//! * at the **block level**, for every codec family a block plan can
//!   produce (dict/plain strings, FOR/dict ints, hier, nonhier, multiref)
//!   × every aggregate function × no/partial/empty filters × grouped by
//!   both string- and integer-dictionary columns;
//! * at the **store level**, where footer-driven aggregation must match
//!   the in-memory engine result for result and the serial/parallel
//!   drivers must agree for any thread count;
//! * on the **overflow edges**: `i64::MIN`/`i64::MAX` columns sum exactly
//!   (`i128`), with serial == parallel merges for 1..=8 threads.

mod common;

use std::collections::BTreeMap;

use corra_columnar::aggregate::{IntAggState, StrAggState};
use corra_columnar::block::DataBlock;
use corra_columnar::column::{Column, DataType};
use corra_columnar::schema::{Field, Schema};
use corra_columnar::selection::SelectionVector;
use corra_core::store::{TableReader, TableWriter};
use corra_core::{
    aggregate, aggregate_blocks, AggExpr, AggFunc, AggResult, AggValue, BlockView, ColumnPlan,
    CompressedBlock, CompressionConfig, GroupKey, Predicate,
};
use corra_encodings::aggregate::{
    aggregate_naive, aggregate_naive_grouped, aggregate_naive_selected,
};
use corra_encodings::{
    DeltaInt, DictInt, ForInt, FrequencyInt, IntAccess, IntEncoding, PlainInt, RleInt,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Encoding-level oracle: all six vertical codecs.
// ---------------------------------------------------------------------------

/// Shapes raw values into each codec's natural territory so every kernel's
/// fast path actually runs (runs for RLE, skew for Frequency, small ranges
/// for FOR/Dict) while mode 0 keeps the full-domain extremes.
fn shape(mode: u8, raw: &[i64]) -> Vec<i64> {
    match mode % 4 {
        0 => raw.to_vec(),
        1 => raw.iter().map(|&v| v.rem_euclid(1_000)).collect(),
        2 => raw.iter().map(|&v| v.rem_euclid(50_000) / 5_000).collect(),
        _ => raw
            .iter()
            .map(|&v| {
                if v.rem_euclid(10) < 9 {
                    7
                } else {
                    v.rem_euclid(97)
                }
            })
            .collect(),
    }
}

fn all_encodings(values: &[i64]) -> Vec<(&'static str, IntEncoding)> {
    vec![
        ("plain", IntEncoding::Plain(PlainInt::encode(values))),
        ("for", IntEncoding::For(ForInt::encode(values))),
        ("dict", IntEncoding::Dict(DictInt::encode(values))),
        ("rle", IntEncoding::Rle(RleInt::encode(values))),
        ("delta", IntEncoding::Delta(DeltaInt::encode(values))),
        (
            "frequency",
            IntEncoding::Frequency(FrequencyInt::encode(values, 4)),
        ),
    ]
}

/// A deterministic sparse selection from a seed (possibly empty).
fn sparse_selection(n: usize, seed: u64) -> SelectionVector {
    let k = (seed % 7) + 2;
    SelectionVector::new(
        (0..n as u64)
            .filter(|i| (i.wrapping_mul(2_654_435_761).wrapping_add(seed) >> 3) % k == 0)
            .map(|i| i as u32)
            .collect(),
    )
}

proptest! {
    /// Full-column, selected, grouped folds and the stored zone all equal
    /// the decompress-then-fold oracle, for every vertical codec.
    #[test]
    fn vertical_aggregates_match_oracle(
        raw in prop::collection::vec(any::<i64>(), 0..400),
        mode in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let values = shape(mode, &raw);
        let n = values.len();
        let want_full = aggregate_naive(&values);
        let selections = [
            SelectionVector::empty(),
            SelectionVector::all(n),
            sparse_selection(n, seed),
        ];
        let n_groups = 5usize;
        let group_of: Vec<u32> = (0..n).map(|i| (i % n_groups) as u32).collect();
        let want_grouped = aggregate_naive_grouped(&values, &group_of, n_groups);
        for (label, enc) in all_encodings(&values) {
            // The whole-column sum is the exact sum mod 2^64.
            let got = enc.sum_wrapping();
            prop_assert!(
                got == want_full.sum as i64,
                "{}: sum {} != {}", label, got, want_full.sum
            );
            for sel in &selections {
                let want = aggregate_naive_selected(&values, sel);
                let mut got = IntAggState::default();
                enc.aggregate_selected(sel, &mut got);
                prop_assert!(
                    got == want,
                    "{}: selected({}) {:?} != {:?}", label, sel.len(), got, want
                );
            }
            let mut got = vec![IntAggState::default(); n_groups];
            enc.aggregate_grouped(&group_of, &mut got);
            prop_assert!(
                got == want_grouped,
                "{}: grouped {:?} != {:?}", label, got, want_grouped
            );
        }
        // The zone a block stores for the column is the true min / max
        // (None when empty), whichever vertical plan encodes it, and
        // survives serialization.
        let want_zone = want_full.min.zip(want_full.max);
        for plan in [ColumnPlan::Auto, ColumnPlan::AutoFull, ColumnPlan::Dict, ColumnPlan::Plain] {
            let raw = DataBlock::new(
                Schema::new(vec![Field::new("v", DataType::Int64)]).unwrap(),
                vec![Column::Int64(values.clone())],
            )
            .unwrap();
            let cfg = CompressionConfig::baseline().with("v", plan.clone());
            let block = CompressedBlock::compress(&raw, &cfg).unwrap();
            let back = CompressedBlock::from_bytes(&block.to_bytes().unwrap()).unwrap();
            for zone in [block.zone(0), back.zone(0)] {
                let zone = zone.map(|z| (z.min, z.max));
                prop_assert!(zone == want_zone, "{:?}: zone {:?} != {:?}", plan, zone, want_zone);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Block-level oracle: every codec family × function × filter × grouping.
// ---------------------------------------------------------------------------

/// A block covering every serializable codec family: dict string, hier
/// (string parent), FOR dates, nonhier, dict-int group column, FOR/dict
/// ints, multiref.
fn build_block(
    cities: &[u8],
    refs: &[i32],
    diffs: &[i16],
    fees: &[i16],
) -> (DataBlock, CompressionConfig) {
    let n = cities.len();
    let city_names = ["NYC", "Albany", "Naples", "Cortland"];
    let city: Vec<&str> = cities.iter().map(|&c| city_names[c as usize % 4]).collect();
    let zip: Vec<i64> = cities
        .iter()
        .enumerate()
        .map(|(i, &c)| 10_000 + (c as i64 % 4) * 100 + (i as i64 % 5))
        .collect();
    let bucket: Vec<i64> = (0..n).map(|i| ((i % 3) as i64) * 1_000).collect();
    let reference: Vec<i64> = refs.iter().map(|&r| r as i64).collect();
    let target: Vec<i64> = reference
        .iter()
        .zip(diffs)
        .map(|(&r, &d)| r.wrapping_add(d as i64))
        .collect();
    let fee: Vec<i64> = fees.iter().map(|&f| f as i64).collect();
    let extra: Vec<i64> = (0..n).map(|i| (i % 3) as i64 * 7).collect();
    let total: Vec<i64> = (0..n)
        .map(|i| {
            if i % 2 == 0 {
                fee[i]
            } else {
                fee[i].wrapping_add(extra[i])
            }
        })
        .collect();
    let block = DataBlock::new(
        Schema::new(vec![
            Field::new("city", DataType::Utf8),
            Field::new("zip", DataType::Int64),
            Field::new("bucket", DataType::Int64),
            Field::new("reference", DataType::Int64),
            Field::new("target", DataType::Int64),
            Field::new("fee", DataType::Int64),
            Field::new("extra", DataType::Int64),
            Field::new("total", DataType::Int64),
        ])
        .unwrap(),
        vec![
            Column::Utf8(city.into_iter().collect()),
            Column::Int64(zip),
            Column::Int64(bucket),
            Column::Int64(reference),
            Column::Int64(target),
            Column::Int64(fee),
            Column::Int64(extra),
            Column::Int64(total),
        ],
    )
    .unwrap();
    let cfg = CompressionConfig::baseline()
        .with(
            "zip",
            ColumnPlan::Hier {
                reference: "city".into(),
            },
        )
        .with("bucket", ColumnPlan::Dict)
        .with(
            "target",
            ColumnPlan::NonHier {
                reference: "reference".into(),
            },
        )
        .with(
            "total",
            ColumnPlan::MultiRef {
                groups: vec![vec!["fee".into()], vec!["extra".into()]],
                code_bits: 2,
            },
        );
    (block, cfg)
}

/// Finalizes a naive integer fold exactly like the engine does.
fn finalize_int_oracle(func: AggFunc, s: &IntAggState) -> AggValue {
    match func {
        AggFunc::Count => AggValue::Count(s.count),
        AggFunc::Sum => AggValue::Sum((s.count > 0).then_some(s.sum)),
        AggFunc::Min => AggValue::Int(s.min),
        AggFunc::Max => AggValue::Int(s.max),
        AggFunc::Avg => AggValue::Avg(s.avg()),
    }
}

fn finalize_str_oracle(func: AggFunc, s: &StrAggState) -> AggValue {
    match func {
        AggFunc::Count => AggValue::Count(s.count),
        AggFunc::Min => AggValue::Str(s.min.clone()),
        AggFunc::Max => AggValue::Str(s.max.clone()),
        AggFunc::Sum | AggFunc::Avg => unreachable!("skipped for string targets"),
    }
}

/// Decompress-then-fold oracle over one raw block, with row filter `keep`.
fn oracle_scalar(
    raw: &DataBlock,
    column: Option<&str>,
    func: AggFunc,
    keep: &dyn Fn(usize) -> bool,
) -> AggValue {
    let Some(column) = column else {
        let count = (0..raw.rows()).filter(|&i| keep(i)).count() as u64;
        return AggValue::Count(count);
    };
    match raw.column(column).unwrap() {
        Column::Int64(values) => {
            let mut s = IntAggState::default();
            for (i, &v) in values.iter().enumerate() {
                if keep(i) {
                    s.update(v);
                }
            }
            finalize_int_oracle(func, &s)
        }
        Column::Utf8(pool) => {
            let mut s = StrAggState::default();
            for i in 0..pool.len() {
                if keep(i) {
                    s.update(pool.get(i));
                }
            }
            finalize_str_oracle(func, &s)
        }
    }
}

/// Decompress-then-fold oracle for grouped aggregation.
fn oracle_grouped(
    raw: &DataBlock,
    column: Option<&str>,
    func: AggFunc,
    group_by: &str,
    keep: &dyn Fn(usize) -> bool,
) -> Vec<(GroupKey, AggValue)> {
    let keys: Vec<GroupKey> = match raw.column(group_by).unwrap() {
        Column::Int64(v) => v.iter().map(|&k| GroupKey::Int(k)).collect(),
        Column::Utf8(p) => (0..p.len())
            .map(|i| GroupKey::Str(p.get(i).to_owned()))
            .collect(),
    };
    match column.map(|c| raw.column(c).unwrap()) {
        None | Some(Column::Int64(_)) => {
            let values: Option<&[i64]> = match column.map(|c| raw.column(c).unwrap()) {
                Some(Column::Int64(v)) => Some(v),
                _ => None,
            };
            let mut groups: BTreeMap<GroupKey, IntAggState> = BTreeMap::new();
            for (i, key) in keys.iter().enumerate() {
                if !keep(i) {
                    continue;
                }
                let s = groups.entry(key.clone()).or_default();
                match values {
                    Some(v) => s.update(v[i]),
                    None => s.count += 1,
                }
            }
            groups
                .into_iter()
                .map(|(k, s)| (k, finalize_int_oracle(func, &s)))
                .collect()
        }
        Some(Column::Utf8(pool)) => {
            let mut groups: BTreeMap<GroupKey, StrAggState> = BTreeMap::new();
            for (i, key) in keys.iter().enumerate() {
                if keep(i) {
                    groups.entry(key.clone()).or_default().update(pool.get(i));
                }
            }
            groups
                .into_iter()
                .map(|(k, s)| (k, finalize_str_oracle(func, &s)))
                .collect()
        }
    }
}

/// One filter scenario: the pushed-down predicate plus its row oracle.
type FilterCase = (Option<Predicate>, Box<dyn Fn(usize) -> bool>);

const FUNCS: [AggFunc; 5] = [
    AggFunc::Count,
    AggFunc::Sum,
    AggFunc::Min,
    AggFunc::Max,
    AggFunc::Avg,
];

fn exprs_for(column: Option<&str>, string_target: bool) -> Vec<AggExpr> {
    FUNCS
        .iter()
        .filter(|f| column.is_some() || matches!(f, AggFunc::Count))
        .filter(|f| !(string_target && matches!(f, AggFunc::Sum | AggFunc::Avg)))
        .map(|&f| match column {
            None => AggExpr::count(),
            Some(c) => AggExpr::of(f, c),
        })
        .collect()
}

proptest! {
    /// Block-level aggregates — every codec family × every function ×
    /// no/partial/empty filters — equal the decompress-then-fold oracle.
    #[test]
    fn block_aggregates_match_oracle(
        cities in prop::collection::vec(any::<u8>(), 1..150),
        seed in -2_000i32..2_000,
        lo in -3_000i64..3_000,
        width in 0i64..2_500,
    ) {
        let n = cities.len();
        let refs: Vec<i32> = (0..n).map(|i| seed.wrapping_add((i as i32) % 101)).collect();
        let diffs: Vec<i16> = (0..n).map(|i| (i as i16) % 30).collect();
        let fees: Vec<i16> = (0..n).map(|i| (i as i16) % 25).collect();
        let (raw, cfg) = build_block(&cities, &refs, &diffs, &fees);
        let compressed = CompressedBlock::compress(&raw, &cfg).unwrap();
        let reference = raw.column("reference").unwrap().as_i64().unwrap().to_vec();
        let filters: [FilterCase; 3] = [
            (None, Box::new(|_| true)),
            (
                Some(Predicate::between("reference", lo, lo + width)),
                Box::new(move |i: usize| (lo..=lo + width).contains(&reference[i])),
            ),
            (
                Some(Predicate::lt("bucket", -1)),
                Box::new(|_| false),
            ),
        ];
        for column in [None, Some("city"), Some("zip"), Some("bucket"), Some("reference"),
                       Some("target"), Some("fee"), Some("total")] {
            let string_target = column == Some("city");
            for (filter, keep) in &filters {
                for base in exprs_for(column, string_target) {
                    let expr = match filter {
                        None => base.clone(),
                        Some(p) => base.clone().with_filter(p.clone()),
                    };
                    let want = oracle_scalar(&raw, column, expr.func(), keep);
                    let got = aggregate(&compressed, &expr).unwrap();
                    prop_assert!(
                        got.as_scalar().unwrap() == &want,
                        "{:?}: {:?} != {:?}", expr, got, want
                    );
                }
            }
        }
    }

    /// Grouped block aggregates — string- and integer-dictionary group
    /// keys, hier-parent grouping included — equal the oracle.
    #[test]
    fn grouped_block_aggregates_match_oracle(
        cities in prop::collection::vec(any::<u8>(), 1..120),
        seed in -1_000i32..1_000,
        lo in -2_000i64..2_000,
    ) {
        let n = cities.len();
        let refs: Vec<i32> = (0..n).map(|i| seed.wrapping_add((i as i32) % 53)).collect();
        let diffs: Vec<i16> = (0..n).map(|i| (i as i16) % 12).collect();
        let fees: Vec<i16> = (0..n).map(|i| (i as i16) % 9).collect();
        let (raw, cfg) = build_block(&cities, &refs, &diffs, &fees);
        let compressed = CompressedBlock::compress(&raw, &cfg).unwrap();
        let reference = raw.column("reference").unwrap().as_i64().unwrap().to_vec();
        let filters: [FilterCase; 2] = [
            (None, Box::new(|_| true)),
            (
                Some(Predicate::ge("reference", lo)),
                Box::new(move |i: usize| reference[i] >= lo),
            ),
        ];
        // `city` keys grouped string-keyed; `bucket` keys grouped
        // int-keyed; targets span every codec family incl. strings.
        for group in ["city", "bucket"] {
            for column in [None, Some("zip"), Some("target"), Some("total"), Some("city")] {
                let string_target = column == Some("city");
                for (filter, keep) in &filters {
                    for base in exprs_for(column, string_target) {
                        let expr = match filter {
                            None => base.clone().with_group_by(group),
                            Some(p) => base.clone().with_filter(p.clone()).with_group_by(group),
                        };
                        let want = oracle_grouped(&raw, column, expr.func(), group, keep);
                        let got = aggregate(&compressed, &expr).unwrap();
                        prop_assert!(
                            got.as_groups().unwrap() == &want[..],
                            "{:?}: {:?} != {:?}", expr, got, want
                        );
                    }
                }
            }
        }
    }

    /// Store-backed aggregation equals the in-memory engine (serial and
    /// parallel, any thread count) over multi-block tables.
    #[test]
    fn store_aggregates_match_in_memory(
        cities in prop::collection::vec(any::<u8>(), 1..100),
        seed in -1_000i32..1_000,
        lo in -2_000i64..2_000,
    ) {
        let n = cities.len();
        let refs: Vec<i32> = (0..n).map(|i| seed.wrapping_add((i as i32) % 67)).collect();
        let diffs: Vec<i16> = (0..n).map(|i| (i as i16) % 20).collect();
        let fees: Vec<i16> = (0..n).map(|i| (i as i16) % 15).collect();
        let (raw, cfg) = build_block(&cities, &refs, &diffs, &fees);
        let block = CompressedBlock::compress(&raw, &cfg).unwrap();
        let blocks = vec![block.clone(), block];
        let mut writer = TableWriter::new(Vec::new()).unwrap();
        for b in &blocks {
            writer.write_block(b).unwrap();
        }
        let reader = TableReader::from_bytes(writer.finish().unwrap()).unwrap();
        for expr in [
            AggExpr::count(),
            AggExpr::sum("target"),
            AggExpr::min("reference"),
            AggExpr::max("zip"),
            AggExpr::avg("total").with_filter(Predicate::ge("reference", lo)),
            AggExpr::count().with_filter(Predicate::lt("reference", lo)),
            AggExpr::min("city"),
            AggExpr::sum("zip").with_group_by("city"),
            AggExpr::count().with_group_by("bucket"),
        ] {
            let (want, want_stats) = aggregate_blocks(&blocks, &expr).unwrap();
            let (got, stats) = reader.aggregate(&expr).unwrap();
            prop_assert!(got == want, "{:?}: {:?} != {:?}", expr, got, want);
            prop_assert!(
                stats.rows_matched == want_stats.rows_matched,
                "{:?}: rows_matched {} != {}", expr, stats.rows_matched, want_stats.rows_matched
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic regressions: overflow edges, zero-I/O store answers.
// ---------------------------------------------------------------------------

/// SUM accumulates in `i128`: `i64::MIN`/`i64::MAX` columns sum exactly
/// instead of silently wrapping, and the store path over the same blocks
/// lands the same exact answers.
#[test]
fn sum_overflow_edges_are_exact_serial_and_parallel() {
    // Enough extreme values that any i64 accumulation would wrap many
    // times over, spread across blocks and codecs (FOR at 64-bit width,
    // Dict, Plain).
    let mut blocks = Vec::new();
    for (plan, dup) in [
        (ColumnPlan::Auto, 400usize),
        (ColumnPlan::Dict, 300),
        (ColumnPlan::Plain, 200),
    ] {
        let mut values = vec![i64::MAX; dup];
        values.extend(vec![i64::MIN; dup / 2]);
        values.push(-1);
        let raw = DataBlock::new(
            Schema::new(vec![Field::new("v", DataType::Int64)]).unwrap(),
            vec![Column::Int64(values)],
        )
        .unwrap();
        let cfg = CompressionConfig::baseline().with("v", plan);
        blocks.push(CompressedBlock::compress(&raw, &cfg).unwrap());
    }
    let want_sum: i128 =
        (i64::MAX as i128) * (400 + 300 + 200) + (i64::MIN as i128) * (200 + 150 + 100) - 3;
    let (got, _) = aggregate_blocks(&blocks, &AggExpr::sum("v")).unwrap();
    assert_eq!(got, AggResult::Scalar(AggValue::Sum(Some(want_sum))));
    // The true sum does not fit an i64 — the exact path is observable.
    assert!(want_sum > i64::MAX as i128);
    let (got_min, _) = aggregate_blocks(&blocks, &AggExpr::min("v")).unwrap();
    assert_eq!(got_min, AggResult::Scalar(AggValue::Int(Some(i64::MIN))));
    let (got_max, _) = aggregate_blocks(&blocks, &AggExpr::max("v")).unwrap();
    assert_eq!(got_max, AggResult::Scalar(AggValue::Int(Some(i64::MAX))));
    let mut writer = TableWriter::new(Vec::new()).unwrap();
    for block in &blocks {
        writer.write_block(block).unwrap();
    }
    let reader = TableReader::from_bytes(writer.finish().unwrap()).unwrap();
    for expr in [AggExpr::sum("v"), AggExpr::avg("v"), AggExpr::min("v")] {
        let (want, want_stats) = aggregate_blocks(&blocks, &expr).unwrap();
        let (got, stats) = reader.aggregate(&expr).unwrap();
        assert_eq!(got, want, "{expr:?}");
        assert_eq!(stats.rows_matched, want_stats.rows_matched, "{expr:?}");
    }
}

fn date_table(salts: &[i64]) -> (Vec<CompressedBlock>, Vec<u8>) {
    let mut blocks = Vec::new();
    for &salt in salts {
        let n = 2_000;
        let ship: Vec<i64> = (0..n)
            .map(|i| salt + 8_035 + (i as i64 * 17 % 2_000))
            .collect();
        let receipt: Vec<i64> = ship
            .iter()
            .enumerate()
            .map(|(i, &s)| s + 1 + (i as i64 % 30))
            .collect();
        let city: Vec<&str> = (0..n).map(|i| ["NYC", "Albany", "Naples"][i % 3]).collect();
        let raw = DataBlock::new(
            Schema::new(vec![
                Field::new("l_shipdate", DataType::Date),
                Field::new("l_receiptdate", DataType::Date),
                Field::new("city", DataType::Utf8),
            ])
            .unwrap(),
            vec![
                Column::Int64(ship),
                Column::Int64(receipt),
                Column::Utf8(city.into_iter().collect()),
            ],
        )
        .unwrap();
        let cfg = CompressionConfig::baseline().with(
            "l_receiptdate",
            ColumnPlan::NonHier {
                reference: "l_shipdate".into(),
            },
        );
        blocks.push(CompressedBlock::compress(&raw, &cfg).unwrap());
    }
    let mut writer = TableWriter::new(Vec::new()).unwrap();
    for b in &blocks {
        writer.write_block(b).unwrap();
    }
    (blocks.clone(), writer.finish().unwrap())
}

/// Acceptance: a store-backed MIN/MAX/COUNT over fully-covered blocks is
/// answered purely from exact footer zone maps — zero payload bytes read,
/// every block skipped — while still agreeing with the in-memory engine.
#[test]
fn store_min_max_count_over_covered_blocks_reads_zero_bytes() {
    let (blocks, bytes) = date_table(&[0, 100_000, 200_000]);
    let reader = TableReader::from_bytes(bytes).unwrap();
    for expr in [
        AggExpr::count(),
        AggExpr::min("l_shipdate"),
        AggExpr::max("l_shipdate"),
        // A filter the footer proves vacuous still reads nothing.
        AggExpr::count().with_filter(Predicate::lt("l_shipdate", 0)),
        AggExpr::sum("l_shipdate").with_filter(Predicate::gt("l_shipdate", 1 << 40)),
        // A filter the footer proves full still answers COUNT for free.
        AggExpr::count().with_filter(Predicate::ge("l_shipdate", -5)),
    ] {
        let (want, _) = aggregate_blocks(&blocks, &expr).unwrap();
        let (got, stats) = reader.aggregate(&expr).unwrap();
        assert_eq!(got, want, "{expr:?}");
        assert_eq!(stats.bytes_read, 0, "{expr:?} read payload bytes");
        assert_eq!(stats.blocks_skipped_io, 3, "{expr:?}");
    }
    // MIN over the true extremes: the FOR covering zone would overshoot
    // the max; the exact footer zone must not.
    let (got, _) = reader.aggregate(&AggExpr::max("l_shipdate")).unwrap();
    assert_eq!(
        got,
        AggResult::Scalar(AggValue::Int(Some(200_000 + 8_035 + 1_999)))
    );
    // SUM and filtered (partial) aggregates must touch payloads.
    let (want, _) = aggregate_blocks(&blocks, &AggExpr::sum("l_receiptdate")).unwrap();
    let (got, stats) = reader.aggregate(&AggExpr::sum("l_receiptdate")).unwrap();
    assert_eq!(got, want);
    assert!(stats.bytes_read > 0);
    // A straddling filter only reads the middle block's bytes.
    let expr = AggExpr::count().with_filter(Predicate::between("l_shipdate", 108_000, 109_000));
    let (want, _) = aggregate_blocks(&blocks, &expr).unwrap();
    let (got, stats) = reader.aggregate(&expr).unwrap();
    assert_eq!(got, want);
    assert_eq!(stats.blocks_skipped_io, 2);
    assert!(stats.bytes_read > 0);
    // The nonhier diff column carries an exact zone too: its MIN / MAX
    // reads nothing either.
    let (want, _) = aggregate_blocks(&blocks, &AggExpr::min("l_receiptdate")).unwrap();
    let (got, stats) = reader.aggregate(&AggExpr::min("l_receiptdate")).unwrap();
    assert_eq!(got, want);
    assert_eq!(stats.bytes_read, 0);
    assert_eq!(stats.blocks_skipped_io, 3);
}

/// Store-level validation mirrors the in-memory engine: unknown columns
/// and type mismatches error deterministically even when every block would
/// be skipped.
#[test]
fn store_aggregate_validates_like_in_memory() {
    let (_, bytes) = date_table(&[0]);
    let reader = TableReader::from_bytes(bytes).unwrap();
    assert!(reader.aggregate(&AggExpr::sum("nope")).is_err());
    assert!(reader
        .aggregate(&AggExpr::count().with_filter(Predicate::eq("typo", 1)))
        .is_err());
    // GROUP BY a horizontal (diff-encoded) column is rejected from the
    // footer header alone.
    assert!(reader
        .aggregate(&AggExpr::count().with_group_by("l_receiptdate"))
        .is_err());
    // GROUP BY a non-dictionary vertical column errors in the kernel path.
    assert!(reader
        .aggregate(&AggExpr::count().with_group_by("l_shipdate"))
        .is_err());
    // ... and errors the same way when the filter zone-prunes every block
    // (the in-memory engine validates before pruning, so must the store).
    let pruned = AggExpr::count()
        .with_group_by("l_shipdate")
        .with_filter(Predicate::lt("l_shipdate", 0));
    assert!(reader.aggregate(&pruned).is_err());
}

/// The shared corruption sweep over the aggregate-oriented date table:
/// every bit flip an aggregate could consume is either rejected by a
/// checksum or leaves the answer identical to the clean baseline (the
/// sweep's op suite includes SUM/MIN/filtered COUNT/grouped SUM).
#[test]
fn aggregate_paths_survive_corruption_sweep() {
    let (_, bytes) = date_table(&[0, 100_000]);
    let report = common::corruption_sweep(
        &bytes,
        &common::SweepOptions {
            truncation: false, // covered exhaustively by tests/store.rs
            ..common::SweepOptions::quick(bytes.len(), 256)
        },
    );
    assert!(report.flips_rejected_by_ops > 0, "{report:?}");
}

/// COUNT over a *string* column with mixed footer verdicts across blocks:
/// the covered block's fast-path partial must carry the string kind so it
/// merges with the straddling block's kernel partial — and the result
/// must equal the in-memory engine's.
#[test]
fn store_count_on_string_column_merges_across_mixed_verdicts() {
    let (blocks, bytes) = date_table(&[0, 100_000]);
    let reader = TableReader::from_bytes(bytes).unwrap();
    // Block 0 straddles 8_500 (Partial → kernel), block 1 is fully
    // covered (All → footer fast path).
    let expr = AggExpr::of(AggFunc::Count, "city").with_filter(Predicate::ge("l_shipdate", 8_500));
    let (want, _) = aggregate_blocks(&blocks, &expr).unwrap();
    let (got, _) = reader.aggregate(&expr).unwrap();
    assert_eq!(got, want);
    // Fully-covered string COUNT still answers from the footer alone.
    let expr = AggExpr::of(AggFunc::Count, "city");
    let (want, _) = aggregate_blocks(&blocks, &expr).unwrap();
    let (got, stats) = reader.aggregate(&expr).unwrap();
    assert_eq!(got, want);
    assert_eq!(stats.bytes_read, 0);
    // MIN over the string column with a provably-empty filter stays
    // string-typed on both paths.
    let expr = AggExpr::min("city").with_filter(Predicate::lt("l_shipdate", 0));
    let (want, _) = aggregate_blocks(&blocks, &expr).unwrap();
    let (got, _) = reader.aggregate(&expr).unwrap();
    assert_eq!(got, want);
    assert_eq!(got, AggResult::Scalar(AggValue::Str(None)));
}
