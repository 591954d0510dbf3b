//! Pushdown parity properties: `scan()` over a compressed block returns
//! exactly the positions decompress-then-filter would, for every codec the
//! compressor can emit (vertical FOR/Dict/Plain, non-hierarchical,
//! hierarchical, multi-reference), including the empty-selection and
//! all-rows edges. Zone-map pruning must never change results, only skip
//! work.

use corra_columnar::block::DataBlock;
use corra_columnar::column::{Column, DataType};
use corra_columnar::predicate::IntRange;
use corra_columnar::schema::{Field, Schema};
use corra_core::scan::{scan, scan_pruned, CmpOp, Predicate};
use corra_core::{ColumnPlan, CompressedBlock, CompressionConfig};
use proptest::prelude::*;

/// A block exercising every codec family at once: `base` is the vertical
/// reference, `shifted` diff-encodes against it, `child` is hierarchical
/// under `parent`, and `total` multi-references (`base`, `fee`).
fn corra_block(rows: &[(i64, i64, i64, i64)]) -> (DataBlock, CompressionConfig) {
    let n = rows.len();
    let base: Vec<i64> = rows.iter().map(|r| r.0).collect();
    // Bounded diff plus a sprinkle of outliers driven by the tuple data.
    let shifted: Vec<i64> = rows
        .iter()
        .map(|r| {
            if r.3 % 97 == 0 {
                r.1 // arbitrary value: an outlier candidate
            } else {
                r.0 + (r.1.rem_euclid(30))
            }
        })
        .collect();
    let parent: Vec<i64> = rows.iter().map(|r| r.2.rem_euclid(7)).collect();
    let child: Vec<i64> = rows
        .iter()
        .map(|r| r.2.rem_euclid(7) * 1_000 + r.3.rem_euclid(5))
        .collect();
    let fee: Vec<i64> = rows.iter().map(|r| r.3.rem_euclid(400)).collect();
    let total: Vec<i64> = (0..n)
        .map(|i| {
            if rows[i].2 % 3 == 0 {
                base[i]
            } else if rows[i].2 % 3 == 1 {
                base[i] + fee[i]
            } else {
                rows[i].1 // outlier candidate
            }
        })
        .collect();
    let block = DataBlock::new(
        Schema::new(vec![
            Field::new("base", DataType::Int64),
            Field::new("shifted", DataType::Int64),
            Field::new("parent", DataType::Int64),
            Field::new("child", DataType::Int64),
            Field::new("fee", DataType::Int64),
            Field::new("total", DataType::Int64),
        ])
        .unwrap(),
        vec![
            Column::Int64(base),
            Column::Int64(shifted),
            Column::Int64(parent),
            Column::Int64(child),
            Column::Int64(fee),
            Column::Int64(total),
        ],
    )
    .unwrap();
    let cfg = CompressionConfig::baseline()
        .with(
            "shifted",
            ColumnPlan::NonHier {
                reference: "base".into(),
            },
        )
        .with(
            "child",
            ColumnPlan::Hier {
                reference: "parent".into(),
            },
        )
        .with(
            "total",
            ColumnPlan::MultiRef {
                groups: vec![vec!["base".into()], vec!["fee".into()]],
                code_bits: 2,
            },
        );
    (block, cfg)
}

fn tuples() -> impl Strategy<Value = Vec<(i64, i64, i64, i64)>> {
    prop::collection::vec(
        (
            8_000i64..12_000,
            -1_000_000i64..1_000_000,
            0i64..1_000,
            0i64..1_000,
        ),
        0..300,
    )
}

fn op_for(k: u8) -> CmpOp {
    match k % 6 {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        _ => CmpOp::Ge,
    }
}

fn naive(block: &DataBlock, column: &str, range: &IntRange) -> Vec<u32> {
    let raw = block.column(column).unwrap().as_i64().unwrap();
    raw.iter()
        .enumerate()
        .filter(|&(_, &v)| range.matches(v))
        .map(|(i, _)| i as u32)
        .collect()
}

proptest! {
    /// scan() == decompress-then-filter for every codec family the block
    /// compressor can produce, under arbitrary comparison operators.
    #[test]
    fn scan_matches_decompress_then_filter(
        rows in tuples(),
        op_k in any::<u8>(),
        value in 7_000i64..13_000,
    ) {
        let (block, cfg) = corra_block(&rows);
        let compressed = CompressedBlock::compress(&block, &cfg).unwrap();
        let op = op_for(op_k);
        for column in ["base", "shifted", "parent", "child", "fee", "total"] {
            let pred = Predicate::cmp(column, op, value);
            let sel = scan(&compressed, &pred).unwrap();
            let want = naive(&block, column, &op.to_range(value));
            prop_assert!(
                sel.positions() == want,
                "{} {:?} {}: {:?} != {:?}", column, op, value, sel.positions(), want
            );
            prop_assert!(sel.validate(compressed.rows()));
        }
    }

    /// The empty-selection and all-rows edges hold on every codec, and
    /// pruned results agree with kernel results.
    #[test]
    fn scan_edges_and_pruning_agree(rows in tuples()) {
        let (block, cfg) = corra_block(&rows);
        let compressed = CompressedBlock::compress(&block, &cfg).unwrap();
        for column in ["base", "shifted", "parent", "child", "fee", "total"] {
            // Nothing matches far outside the value domain...
            let (sel, _) = scan_pruned(&compressed, &Predicate::gt(column, i64::MAX - 1)).unwrap();
            prop_assert!(sel.is_empty(), "{column} high");
            // ...everything matches the unbounded range.
            let (sel, _) = scan_pruned(&compressed, &Predicate::ge(column, i64::MIN)).unwrap();
            prop_assert_eq!(sel.len(), compressed.rows());
        }
    }

    /// Conjunctions equal the intersection of their members' naive results.
    #[test]
    fn conjunction_matches_naive(rows in tuples(), lo in 8_000i64..10_000, width in 0i64..2_000) {
        let (block, cfg) = corra_block(&rows);
        let compressed = CompressedBlock::compress(&block, &cfg).unwrap();
        let pred = Predicate::and(vec![
            Predicate::between("base", lo, lo + width),
            Predicate::le("shifted", lo + width),
        ]);
        let sel = scan(&compressed, &pred).unwrap();
        let base = block.column("base").unwrap().as_i64().unwrap();
        let shifted = block.column("shifted").unwrap().as_i64().unwrap();
        let want: Vec<u32> = (0..block.rows())
            .filter(|&i| base[i] >= lo && base[i] <= lo + width && shifted[i] <= lo + width)
            .map(|i| i as u32)
            .collect();
        prop_assert_eq!(sel.positions(), &want[..]);
    }

    /// Serialization does not change scan results (zone maps are derived
    /// from codecs, so a deserialized block prunes identically).
    #[test]
    fn scan_survives_serialization(rows in tuples(), value in 7_000i64..13_000) {
        let (block, cfg) = corra_block(&rows);
        let compressed = CompressedBlock::compress(&block, &cfg).unwrap();
        let back = CompressedBlock::from_bytes(&compressed.to_bytes().unwrap()).unwrap();
        for column in ["base", "shifted", "child", "total"] {
            let pred = Predicate::ge(column, value);
            let a = scan(&compressed, &pred).unwrap();
            let b = scan(&back, &pred).unwrap();
            prop_assert_eq!(a, b);
        }
    }
}
