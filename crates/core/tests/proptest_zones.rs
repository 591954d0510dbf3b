//! Zones are data: every integer column's exact `(min, max)` is recorded
//! once by `CompressedBlock::compress`, carried by the block and the table
//! footer, and read through `BlockView::zone`.
//!
//! * every plan kind (FOR, Delta, Dict, RLE, Frequency, Plain, NonHier,
//!   Hier, MultiRef) answers an unfiltered `MIN` / `MAX` from its zone — no
//!   kernel in memory, no payload byte from a table;
//! * a descending TOP-K over a NonHier target skips every block but the
//!   best one, in memory and in the store;
//! * a footer zone written under flag 1 (the covering bounds of older
//!   writers) reads as absent, so those blocks decode and answer exactly;
//! * the stored zone equals the oracle min / max after `compress`, after
//!   `to_bytes` → `from_bytes`, after `TableReader::read_block` and through
//!   a `BlockHandle` — on 0-, 1- and 1 025-row blocks, NonHier outliers at
//!   both `i64` ends and MultiRef group sums that wrap;
//! * over every row of a block, `COUNT` is the row count and `SUM` / `AVG`
//!   one wrapping sum inside the zone's exactness bound — the exact `i128`
//!   fold outside it or without a zone — and all three equal a naive
//!   `i128` oracle, in memory and from a table.

mod common;

use common::one_segment;
use corra_columnar::aggregate::IntAggState;
use corra_columnar::block::DataBlock;
use corra_columnar::column::{Column, DataType};
use corra_columnar::error::Error;
use corra_columnar::schema::{Field, Schema};
use corra_columnar::stats::ZoneMap;
use corra_core::store::{SegmentedTable, TableReader, TableWriter};
use corra_core::{
    aggregate_blocks, checksum64, scan_blocks, top_k_blocks, AggExpr, AggFunc, AggResult, AggValue,
    BlockView, ColumnPlan, CompressedBlock, CompressionConfig, NonHierInt, Predicate, TopKExpr,
};
use corra_encodings::{DeltaInt, DictInt, ForInt, IntEncoding, PlainInt};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every integer column of [`plan_block`], and the codec each is built to
/// get.
const PLANNED: [(&str, &str); 11] = [
    ("for", "for"),
    ("delta", "delta"),
    ("dict", "dict"),
    ("rle", "rle"),
    ("freq", "frequency"),
    ("plain", "plain"),
    ("nonhier", "corra-nonhier"),
    ("zip", "corra-hier"),
    ("total", "corra-multiref"),
    ("fee", "for"),
    ("extra", "for"),
];

fn int(name: &str) -> Field {
    Field::new(name, DataType::Int64)
}

/// One block with a column per plan kind, every value offset by `salt`.
fn plan_block(n: usize, salt: i64) -> (DataBlock, CompressionConfig) {
    let col = |f: &dyn Fn(i64) -> i64| Column::Int64((0..n as i64).map(|i| salt + f(i)).collect());
    let reference: Vec<i64> = (0..n as i64).map(|i| salt + i * 13 % 700).collect();
    // One outlier row outside the diff window.
    let target = reference
        .iter()
        .enumerate()
        .map(|(i, &r)| r + if i == 7 { 100_000 } else { 1 + i as i64 % 30 })
        .collect();
    let fee: Vec<i64> = (0..n as i64).map(|i| salt + 100 + i % 10).collect();
    let extra: Vec<i64> = (0..n as i64).map(|i| 25 + i % 2).collect();
    let total = (0..n)
        .map(|i| fee[i] + if i % 3 == 0 { extra[i] } else { 0 })
        .collect();
    let city = (0..n).map(|i| ["NYC", "Albany", "Naples"][i % 3]).collect();
    let block = DataBlock::new(
        Schema::new(vec![
            int("for"),
            int("delta"),
            int("dict"),
            int("rle"),
            int("freq"),
            int("plain"),
            int("ref"),
            int("nonhier"),
            Field::new("city", DataType::Utf8),
            int("zip"),
            int("fee"),
            int("extra"),
            int("total"),
        ])
        .unwrap(),
        vec![
            col(&|i| i * 7 % 1_000),
            col(&|i| 1_000 + 2 * i),
            col(&|i| i % 5 * 1_003),
            col(&|i| i / 500),
            // Sixteen hot values cycling row by row, and a distinct wide
            // exception on every twentieth row.
            col(&|i| if i % 20 == 0 { i << 40 } else { i * 7 % 16 }),
            col(&|i| i * 31 % 977),
            Column::Int64(reference),
            Column::Int64(target),
            Column::Utf8(city),
            col(&|i| 10_000 + i % 3 * 50 + i / 3 % 4),
            Column::Int64(fee),
            Column::Int64(extra),
            Column::Int64(total),
        ],
    )
    .unwrap();
    let cfg = CompressionConfig::baseline()
        .with("delta", ColumnPlan::AutoFull)
        .with("dict", ColumnPlan::Dict)
        .with("rle", ColumnPlan::AutoFull)
        .with("freq", ColumnPlan::AutoFull)
        .with("plain", ColumnPlan::Plain)
        .with(
            "nonhier",
            ColumnPlan::NonHier {
                reference: "ref".into(),
            },
        )
        .with(
            "zip",
            ColumnPlan::Hier {
                reference: "city".into(),
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

/// `n_blocks` blocks of 2 000 rows whose values ascend block by block.
fn plan_table(n_blocks: usize) -> (Vec<DataBlock>, Vec<CompressedBlock>) {
    (0..n_blocks)
        .map(|b| {
            let (raw, cfg) = plan_block(2_000, b as i64 * 1_000_000);
            let block = CompressedBlock::compress(&raw, &cfg).unwrap();
            (raw, block)
        })
        .unzip()
}

fn table_bytes(blocks: &[CompressedBlock]) -> Vec<u8> {
    let mut writer = TableWriter::new(Vec::new()).unwrap();
    for b in blocks {
        writer.write_block(b).unwrap();
    }
    writer.finish().unwrap()
}

/// `MIN` / `MAX` of `column` over every raw block.
fn oracle(raws: &[DataBlock], column: &str, max: bool) -> AggResult {
    let values = raws
        .iter()
        .flat_map(|r| r.column(column).unwrap().as_i64().unwrap().iter().copied());
    let v = if max { values.max() } else { values.min() };
    AggResult::Scalar(AggValue::Int(v))
}

#[test]
fn min_max_answer_from_zones_for_every_plan_kind() {
    let n_blocks = 4;
    let (raws, blocks) = plan_table(n_blocks);
    for (column, scheme) in PLANNED {
        assert_eq!(
            blocks[0].codec(column).unwrap().scheme(),
            scheme,
            "{column}"
        );
    }
    let reader = one_segment(TableReader::from_bytes(table_bytes(&blocks)).unwrap());
    for (column, _) in PLANNED {
        for max in [false, true] {
            let expr = if max {
                AggExpr::max(column)
            } else {
                AggExpr::min(column)
            };
            let want = oracle(&raws, column, max);
            let (got, stats) = aggregate_blocks(&blocks, &expr).unwrap();
            assert_eq!(got, want, "{expr:?} in memory");
            assert_eq!(stats.blocks_pruned, n_blocks, "{expr:?} ran a kernel");
            let (got, stats) = reader.aggregate(&expr).unwrap();
            assert_eq!(got, want, "{expr:?} from the store");
            assert_eq!(stats.blocks_skipped_io, n_blocks, "{expr:?}");
            assert_eq!(stats.bytes_read, 0, "{expr:?} read payload bytes");
        }
    }
}

#[test]
fn descending_top_k_over_nonhier_skips_all_but_the_best_block() {
    let n_blocks = 5;
    let (raws, blocks) = plan_table(n_blocks);
    let expr = TopKExpr::desc("nonhier", 10);
    let mut want: Vec<i64> = raws
        .iter()
        .flat_map(|r| r.column("nonhier").unwrap().as_i64().unwrap().to_vec())
        .collect();
    want.sort_unstable_by(|a, b| b.cmp(a));
    want.truncate(10);
    let (rows, stats) = top_k_blocks(&blocks, &expr).unwrap();
    assert_eq!(rows.iter().map(|r| r.value).collect::<Vec<_>>(), want);
    assert_eq!(stats.blocks_pruned, n_blocks - 1);
    let reader = one_segment(TableReader::from_bytes(table_bytes(&blocks)).unwrap());
    let (store_rows, stats) = reader.top_k(&expr).unwrap();
    assert_eq!(store_rows, rows);
    assert_eq!(stats.blocks_skipped_io, n_blocks - 1);
}

/// Rewrites the footer zone of `column` in every block as an older writer
/// stored covering bounds: flag 1 and an interval `pad` wider than the data
/// on each side. The footer self-checksum is recomputed, so the file opens.
fn widen_as_covering(bytes: &mut [u8], reader: &TableReader, column: usize, pad: i64) {
    let end = bytes.len() - 16;
    let footer_len = u64::from_le_bytes(bytes[end..end + 8].try_into().unwrap()) as usize;
    let start = end - footer_len;
    for b in 0..reader.n_blocks() {
        let zone = reader.footer().zone(b, column).unwrap();
        let mut exact = vec![2u8];
        exact.extend(zone.min.to_le_bytes());
        exact.extend(zone.max.to_le_bytes());
        let at = start
            + bytes[start..end]
                .windows(exact.len())
                .position(|w| w == exact)
                .expect("the exact zone is in the footer");
        bytes[at] = 1;
        bytes[at + 1..at + 9].copy_from_slice(&(zone.min - pad).to_le_bytes());
        bytes[at + 9..at + 17].copy_from_slice(&(zone.max + pad).to_le_bytes());
    }
    let sum = checksum64(&bytes[start..end - 8]);
    bytes[end - 8..end].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn covering_footer_zones_of_older_writers_read_as_absent() {
    let (raws, blocks) = plan_table(3);
    let mut bytes = table_bytes(&blocks);
    let clean = TableReader::from_bytes(bytes.clone()).unwrap();
    let idx = clean.schema().index_of("for").unwrap();
    widen_as_covering(&mut bytes, &clean, idx, 500);
    let table = one_segment(TableReader::from_bytes(bytes).unwrap());
    let reader = &table.segments()[0];
    for b in 0..3 {
        assert_eq!(reader.footer().zone(b, idx), None);
        let block = reader.read_block(b).unwrap();
        assert_eq!(block.zone(idx), None);
        assert_eq!(
            block.decompress("for").unwrap(),
            raws[b].column("for").unwrap().clone()
        );
        // The other columns keep their exact zones.
        for i in (0..block.names().len()).filter(|&i| i != idx) {
            assert_eq!(block.zone(i), blocks[b].zone(i), "column {i}");
        }
    }
    // MIN / MAX decode those blocks and answer exactly — never the widened
    // interval.
    for max in [false, true] {
        let expr = if max {
            AggExpr::max("for")
        } else {
            AggExpr::min("for")
        };
        let (got, stats) = table.aggregate(&expr).unwrap();
        assert_eq!(got, oracle(&raws, "for", max), "{expr:?}");
        assert!(
            stats.bytes_read > 0,
            "{expr:?} answered from a covering zone"
        );
    }
    // Scans at and just past the true extremes select exactly what the
    // in-memory blocks do.
    let (lo, hi) = (
        blocks[0].zone(idx).unwrap().min,
        blocks[2].zone(idx).unwrap().max,
    );
    for pred in [
        Predicate::gt("for", hi),
        Predicate::lt("for", lo),
        Predicate::between("for", hi + 1, hi + 500),
        Predicate::ge("for", lo),
        Predicate::le("for", hi),
        Predicate::between("for", 1_000_000, 1_000_400),
    ] {
        let (want, _) = scan_blocks(&blocks, &pred).unwrap();
        let (got, _) = table.scan_blocks(&pred).unwrap();
        assert_eq!(got, want, "{pred:?}");
    }
    let expr = TopKExpr::desc("for", 5);
    assert_eq!(
        table.top_k(&expr).unwrap().0,
        top_k_blocks(&blocks, &expr).unwrap().0
    );
}

/// A block of `n` random rows with one column per plan kind; the NonHier
/// target may carry outliers at both ends of the `i64` domain and the
/// MultiRef group sums wrap.
fn random_block(n: usize, seed: u64, extremes: bool) -> (DataBlock, CompressionConfig) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut draw =
        |lo: i64, hi: i64| -> Vec<i64> { (0..n).map(|_| rng.gen_range(lo..hi)).collect() };
    let wide = draw(i64::MIN, i64::MAX);
    let narrow = draw(-50, 50);
    let reference = draw(-1 << 40, 1 << 40);
    let diffs = draw(0, 64);
    let m0 = draw(i64::MAX - 1_000, i64::MAX);
    let m1 = draw(0, 5_000);
    let m2 = draw(-3, 3);
    let coins = draw(0, 4);
    let mut target: Vec<i64> = reference.iter().zip(&diffs).map(|(r, d)| r + d).collect();
    if extremes && n > 0 {
        target[0] = i64::MIN;
        target[n - 1] = i64::MAX;
        target[n / 2] = i64::MAX;
    }
    // Group A is m0 + m1 (wrapping past i64::MAX), group B is m2.
    let total = (0..n)
        .map(|i| {
            let a = m0[i].wrapping_add(m1[i]);
            match coins[i] {
                0 => a,
                1 => a.wrapping_add(m2[i]),
                2 => m2[i],
                _ => wide[i],
            }
        })
        .collect();
    let city = (0..n)
        .map(|i| ["a", "b", "c", "d"][coins[i] as usize])
        .collect();
    let zip = (0..n).map(|i| coins[i] * 100 + narrow[i]).collect();
    let block = DataBlock::new(
        Schema::new(vec![
            int("auto"),
            int("full"),
            int("dict"),
            int("plain"),
            int("ref"),
            int("nonhier"),
            Field::new("city", DataType::Utf8),
            int("zip"),
            int("m0"),
            int("m1"),
            int("m2"),
            int("total"),
        ])
        .unwrap(),
        vec![
            Column::Int64(narrow.clone()),
            Column::Int64(wide.clone()),
            Column::Int64(narrow),
            Column::Int64(wide),
            Column::Int64(reference),
            Column::Int64(target),
            Column::Utf8(city),
            Column::Int64(zip),
            Column::Int64(m0),
            Column::Int64(m1),
            Column::Int64(m2),
            Column::Int64(total),
        ],
    )
    .unwrap();
    let cfg = CompressionConfig::baseline()
        .with("full", ColumnPlan::AutoFull)
        .with("dict", ColumnPlan::Dict)
        .with("plain", ColumnPlan::Plain)
        .with(
            "nonhier",
            ColumnPlan::NonHier {
                reference: "ref".into(),
            },
        )
        .with(
            "zip",
            ColumnPlan::Hier {
                reference: "city".into(),
            },
        )
        .with(
            "total",
            ColumnPlan::MultiRef {
                groups: vec![vec!["m0".into(), "m1".into()], vec!["m2".into()]],
                code_bits: 2,
            },
        );
    (block, cfg)
}

proptest! {
    /// Every column's stored zone is the oracle min / max wherever a block
    /// can live: fresh from `compress`, through a bare serialized block,
    /// from a table's `read_block` and through a lazy `BlockHandle`.
    #[test]
    fn stored_zone_equals_oracle_everywhere(
        n in prop::sample::select(vec![0usize, 1, 2, 1_025]),
        seed in any::<u64>(),
        extremes in any::<bool>(),
    ) {
        let (raw, cfg) = random_block(n, seed, extremes);
        let block = CompressedBlock::compress(&raw, &cfg).unwrap();
        let back = CompressedBlock::from_bytes(&block.to_bytes().unwrap()).unwrap();
        prop_assert!(back == block, "from_bytes(to_bytes(b)) != b");
        let reader = TableReader::from_bytes(table_bytes(std::slice::from_ref(&block))).unwrap();
        let read = reader.read_block(0).unwrap();
        prop_assert!(read == block, "read_block differs from the written block");
        let handle = reader.block_handle(0).unwrap();
        for (i, column) in raw.columns().iter().enumerate() {
            let want = match column {
                Column::Int64(v) => ZoneMap::from_values(v),
                Column::Utf8(_) => None,
            };
            let name = &block.names()[i];
            for (site, got) in [
                ("compress", block.zone(i)),
                ("from_bytes", back.zone(i)),
                ("read_block", read.zone(i)),
                ("handle", handle.zone(i)),
            ] {
                prop_assert!(got == want, "{} {}: {:?} != {:?}", name, site, got, want);
            }
        }
        prop_assert_eq!(handle.loaded_columns(), 0);
    }
}

/// `COUNT` / `SUM` / `AVG` of `column` over every raw block, from a naive
/// `i128` fold finalized as the engine finalizes.
fn exact(raws: &[DataBlock], column: &str, func: AggFunc) -> AggResult {
    let mut state = IntAggState::default();
    for raw in raws {
        raw.column(column)
            .unwrap()
            .as_i64()
            .unwrap()
            .iter()
            .for_each(|&v| state.update(v));
    }
    AggResult::Scalar(match func {
        AggFunc::Count => AggValue::Count(state.count),
        AggFunc::Sum => AggValue::Sum((state.count > 0).then_some(state.sum)),
        AggFunc::Avg => AggValue::Avg(state.avg()),
        AggFunc::Min | AggFunc::Max => unreachable!("zones answer MIN / MAX"),
    })
}

/// Every integer column's unfiltered `COUNT` / `SUM` / `AVG` equals the
/// exact oracle in memory and through `reader`.
fn check_sums(
    raws: &[DataBlock],
    blocks: &[CompressedBlock],
    reader: &SegmentedTable,
) -> Result<(), TestCaseError> {
    for (field, column) in raws[0].schema().fields().iter().zip(raws[0].columns()) {
        if !matches!(column, Column::Int64(_)) {
            continue;
        }
        for func in [AggFunc::Count, AggFunc::Sum, AggFunc::Avg] {
            let expr = AggExpr::of(func, field.name());
            let want = exact(raws, field.name(), func);
            let (got, _) = aggregate_blocks(blocks, &expr).unwrap();
            prop_assert!(got == want, "{:?} in memory: {:?} != {:?}", expr, got, want);
            let (got, _) = reader.aggregate(&expr).unwrap();
            prop_assert!(
                got == want,
                "{:?} from the store: {:?} != {:?}",
                expr,
                got,
                want
            );
        }
    }
    Ok(())
}

/// The wrapping sum of every value of `values`.
fn wrapped(values: &[i64]) -> i64 {
    values.iter().fold(0, |s, &v| s.wrapping_add(v))
}

proptest! {
    /// The whole-block rule answers `COUNT` from the row count and `SUM` /
    /// `AVG` from one wrapping sum where the zone bounds it — the exact
    /// `i128` fold elsewhere — and every answer equals the naive oracle:
    /// for every plan kind (FOR, Delta, Dict, RLE, Frequency, Plain,
    /// NonHier, Hier, MultiRef) in memory and through `TableReader`; with
    /// NonHier outliers at both `i64` ends and MultiRef group sums that
    /// wrap; with footer zones rewritten under flag 1, which read as
    /// absent; and, on the NonHier codec itself, `Σ ref + n · base + Σ diff`
    /// equals the decoded sum at diff widths 0, 64 and between, and a
    /// reference of the wrong length is an error.
    #[test]
    fn whole_block_sums_equal_the_exact_oracle(
        n in prop::sample::select(vec![0usize, 1, 2, 1_025]),
        seed in any::<u64>(),
        extremes in any::<bool>(),
        salt in -1_000_000i64..1_000_000,
        width in prop::sample::select(vec![0u8, 5, 64]),
    ) {
        let (raws, blocks): (Vec<DataBlock>, Vec<CompressedBlock>) = (0..2)
            .map(|b| {
                let (raw, cfg) = random_block(n, seed.wrapping_add(b), extremes);
                let block = CompressedBlock::compress(&raw, &cfg).unwrap();
                (raw, block)
            })
            .unzip();
        let reader = one_segment(TableReader::from_bytes(table_bytes(&blocks)).unwrap());
        check_sums(&raws, &blocks, &reader)?;

        // Every plan kind on data inside the bound, then with the `for`
        // and `nonhier` footer zones written under flag 1.
        let (raws, blocks): (Vec<DataBlock>, Vec<CompressedBlock>) = (0..2)
            .map(|b| {
                let (raw, cfg) = plan_block(1_500, salt + b * 1_000_000);
                let block = CompressedBlock::compress(&raw, &cfg).unwrap();
                (raw, block)
            })
            .unzip();
        let mut bytes = table_bytes(&blocks);
        let reader = one_segment(TableReader::from_bytes(bytes.clone()).unwrap());
        check_sums(&raws, &blocks, &reader)?;
        for column in ["for", "nonhier"] {
            let clean = TableReader::from_bytes(bytes.clone()).unwrap();
            let idx = clean.schema().index_of(column).unwrap();
            widen_as_covering(&mut bytes, &clean, idx, 0);
        }
        let reader = TableReader::from_bytes(bytes).unwrap();
        prop_assert_eq!(reader.footer().zone(0, reader.schema().index_of("nonhier").unwrap()), None);
        check_sums(&raws, &blocks, &one_segment(reader))?;

        // The NonHier identity on the codec, at a chosen diff width: the
        // window-planned encode for widths 0 and 5 (with outliers at both
        // `i64` ends when `extremes`), the outlier-free one for 64.
        let mut rng = StdRng::seed_from_u64(seed);
        let reference: Vec<i64> = (0..n).map(|_| rng.gen_range(-1 << 40..1 << 40)).collect();
        let mut target: Vec<i64> = reference
            .iter()
            .map(|&r| match width {
                0 => r + 3,
                5 => r + rng.gen_range(0i64..32),
                _ => r.wrapping_add(rng.gen()),
            })
            .collect();
        if extremes && n > 2 {
            target[0] = i64::MIN;
            target[n - 1] = i64::MAX;
        }
        let enc = if width == 64 {
            NonHierInt::encode_no_outliers(&target, &reference).unwrap()
        } else {
            NonHierInt::encode(&target, &reference).unwrap()
        };
        prop_assert!(n < 3 || enc.bits() == width, "bits {} != {}", enc.bits(), width);
        for r in [
            IntEncoding::For(ForInt::encode(&reference)),
            IntEncoding::Dict(DictInt::encode(&reference)),
            IntEncoding::Delta(DeltaInt::encode(&reference)),
            IntEncoding::Plain(PlainInt::encode(&reference)),
        ] {
            prop_assert_eq!(enc.sum_wrapping(&r).unwrap(), wrapped(&target));
        }
        let short = IntEncoding::Plain(PlainInt::encode(&reference[..n.saturating_sub(1)]));
        let long = IntEncoding::Plain(PlainInt::encode(&[reference.clone(), vec![7]].concat()));
        for r in [long, short].iter().take(if n == 0 { 1 } else { 2 }) {
            let got = enc.sum_wrapping(r);
            prop_assert!(matches!(got, Err(Error::LengthMismatch { .. })), "{:?}", got);
        }
    }
}

/// A block whose zone bound fails takes the exact fallback: four rows of
/// `±2^62` sum to `±2^64`, which a wrapping `i64` sum would report as 0.
#[test]
fn sums_past_the_i64_domain_take_the_exact_fold() {
    const BIG: i64 = 1 << 62;
    for sign in [1, -1] {
        let v = vec![sign * BIG; 4];
        let raw = DataBlock::new(
            Schema::new(
                [
                    "for", "dict", "plain", "full", "ref", "nonhier", "m0", "total",
                ]
                .map(int)
                .to_vec(),
            )
            .unwrap(),
            vec![Column::Int64(v.clone()); 8],
        )
        .unwrap();
        let cfg = CompressionConfig::baseline()
            .with("dict", ColumnPlan::Dict)
            .with("plain", ColumnPlan::Plain)
            .with("full", ColumnPlan::AutoFull)
            .with(
                "nonhier",
                ColumnPlan::NonHier {
                    reference: "ref".into(),
                },
            )
            .with(
                "total",
                ColumnPlan::MultiRef {
                    groups: vec![vec!["m0".into()]],
                    code_bits: 2,
                },
            );
        let block = CompressedBlock::compress(&raw, &cfg).unwrap();
        let reader = one_segment(
            TableReader::from_bytes(table_bytes(std::slice::from_ref(&block))).unwrap(),
        );
        for column in ["for", "dict", "plain", "full", "nonhier", "total"] {
            let want = AggResult::Scalar(AggValue::Sum(Some(i128::from(sign) << 64)));
            let got = aggregate_blocks(std::slice::from_ref(&block), &AggExpr::sum(column));
            assert_eq!(got.unwrap().0, want, "{column} in memory");
            assert_eq!(
                reader.aggregate(&AggExpr::sum(column)).unwrap().0,
                want,
                "{column}"
            );
            let avg = AggResult::Scalar(AggValue::Avg(Some((sign * BIG) as f64)));
            assert_eq!(
                reader.aggregate(&AggExpr::avg(column)).unwrap().0,
                avg,
                "{column}"
            );
        }
    }
}

/// `COUNT(column)` over every row of a block is its row count — no kernel
/// in memory, as the store has always answered it from the footer — for
/// every plan kind, NonHier included.
#[test]
fn count_of_a_column_reads_no_payload() {
    let n_blocks = 3;
    let (raws, blocks) = plan_table(n_blocks);
    let reader = one_segment(TableReader::from_bytes(table_bytes(&blocks)).unwrap());
    for (column, _) in PLANNED {
        let expr = AggExpr::of(AggFunc::Count, column);
        let want = exact(&raws, column, AggFunc::Count);
        let (got, stats) = aggregate_blocks(&blocks, &expr).unwrap();
        assert_eq!(got, want, "{column}");
        assert_eq!(stats.blocks_pruned, n_blocks, "{column} ran a kernel");
        let (got, stats) = reader.aggregate(&expr).unwrap();
        assert_eq!(got, want, "{column}");
        assert_eq!(stats.bytes_read, 0, "{column} read payload bytes");
    }
}
