//! Property tests for the indexed table store: projected reads through the
//! footer must equal full-block decompression for every codec family, over
//! arbitrary data — and store-driven scans must match the in-memory scan
//! kernels row for row. Also the store checksum's detection contract.

mod common;

use corra_columnar::block::DataBlock;
use corra_columnar::column::{Column, DataType};
use corra_columnar::schema::{Field, Schema};
use corra_core::store::{TableReader, TableWriter};
use corra_core::{
    checksum64, scan_blocks, ColumnPlan, CompressedBlock, CompressionConfig, Predicate,
};
use proptest::prelude::*;

/// Builds a block whose columns cover every serializable codec family:
/// dict string, plain string, FOR/dict ints, hier (string parent), nonhier,
/// multiref.
fn build_block(
    cities: &[u8],
    refs: &[i32],
    diffs: &[i16],
    fees: &[i16],
    plain: bool,
) -> (DataBlock, CompressionConfig) {
    let n = cities.len();
    let city_names = ["NYC", "Albany", "Naples", "Cortland"];
    let city: Vec<&str> = cities.iter().map(|&c| city_names[c as usize % 4]).collect();
    let zip: Vec<i64> = cities
        .iter()
        .enumerate()
        .map(|(i, &c)| 10_000 + (c as i64 % 4) * 100 + (i as i64 % 5))
        .collect();
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
            Column::Int64(reference),
            Column::Int64(target),
            Column::Int64(fee),
            Column::Int64(extra),
            Column::Int64(total),
        ],
    )
    .unwrap();
    let mut cfg = CompressionConfig::baseline()
        .with(
            "zip",
            ColumnPlan::Hier {
                reference: "city".into(),
            },
        )
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
    if plain {
        cfg.set("city", ColumnPlan::Plain);
        // A plain string parent cannot back a hier child; use dict zip.
        cfg.set("zip", ColumnPlan::Auto);
        cfg.set("fee", ColumnPlan::Plain);
    }
    (block, cfg)
}

proptest! {
    /// Projected reads through the table footer equal full-block
    /// decompression for every column of every codec family.
    #[test]
    fn projected_reads_equal_full_decompression(
        cities in prop::collection::vec(any::<u8>(), 1..200),
        seed in any::<i32>(),
        plain in any::<bool>(),
    ) {
        let n = cities.len();
        let refs: Vec<i32> = (0..n).map(|i| seed.wrapping_add(i as i32 * 31)).collect();
        let diffs: Vec<i16> = (0..n).map(|i| (i as i16).wrapping_mul(7)).collect();
        let fees: Vec<i16> = (0..n).map(|i| 100 + (i as i16 % 40)).collect();
        let (raw, cfg) = build_block(&cities, &refs, &diffs, &fees, plain);
        let block = CompressedBlock::compress(&raw, &cfg).unwrap();
        let mut writer = TableWriter::new(Vec::new()).unwrap();
        writer.write_block(&block).unwrap();
        let reader = TableReader::from_bytes(writer.finish().unwrap()).unwrap();
        for name in ["city", "zip", "reference", "target", "fee", "extra", "total"] {
            // Fresh handle per column: the projected load path runs from
            // scratch (payload + reference closure only).
            let projected = reader.block_handle(0).unwrap().decompress(name).unwrap();
            let full = reader.read_block(0).unwrap().decompress(name).unwrap();
            prop_assert_eq!(&projected, &full);
            prop_assert_eq!(&projected, raw.column(name).unwrap());
        }
    }

    /// Store-driven scans (footer pruning included) produce selections
    /// byte-identical to the in-memory serial scan, for arbitrary data and
    /// boolean predicate trees.
    #[test]
    fn store_scans_match_in_memory(
        cities in prop::collection::vec(any::<u8>(), 1..150),
        seed in -2_000i32..2_000,
        lo in -3_000i64..3_000,
        width in 0i64..2_000,
    ) {
        let n = cities.len();
        let refs: Vec<i32> = (0..n).map(|i| seed.wrapping_add((i as i32) % 101)).collect();
        let diffs: Vec<i16> = (0..n).map(|i| (i as i16) % 30).collect();
        let fees: Vec<i16> = (0..n).map(|i| (i as i16) % 25).collect();
        let (raw, cfg) = build_block(&cities, &refs, &diffs, &fees, false);
        let block = CompressedBlock::compress(&raw, &cfg).unwrap();
        let blocks = vec![block.clone(), block];
        let mut writer = TableWriter::new(Vec::new()).unwrap();
        for b in &blocks {
            writer.write_block(b).unwrap();
        }
        let reader = common::one_segment(TableReader::from_bytes(writer.finish().unwrap()).unwrap());
        let _ = raw;
        for pred in [
            Predicate::between("target", lo, lo + width),
            Predicate::lt("reference", lo),
            Predicate::or(vec![
                Predicate::between("total", lo, lo + width),
                Predicate::str_eq("city", "Naples"),
            ]),
            Predicate::not(Predicate::between("zip", lo, lo + width)),
            Predicate::and(vec![
                Predicate::ge("fee", 5),
                Predicate::not(Predicate::eq("extra", 7)),
            ]),
        ] {
            let (want, _) = scan_blocks(&blocks, &pred).unwrap();
            let (got, _) = reader.scan_blocks(&pred).unwrap();
            prop_assert_eq!(&got, &want);
        }
    }

    /// The shared corruption sweep holds for arbitrary property-generated
    /// tables, not just the hand-shaped fixtures: every bit flip is caught
    /// or provably harmless. Bounded flip budget keeps the case fast.
    #[test]
    fn corruption_sweep_on_arbitrary_tables(
        cities in prop::collection::vec(any::<u8>(), 1..80),
        seed in any::<i32>(),
        plain in any::<bool>(),
    ) {
        let n = cities.len();
        let refs: Vec<i32> = (0..n).map(|i| seed.wrapping_add(i as i32 * 13)).collect();
        let diffs: Vec<i16> = (0..n).map(|i| (i as i16).wrapping_mul(5)).collect();
        let fees: Vec<i16> = (0..n).map(|i| 10 + (i as i16 % 20)).collect();
        let (raw, cfg) = build_block(&cities, &refs, &diffs, &fees, plain);
        let block = CompressedBlock::compress(&raw, &cfg).unwrap();
        let mut writer = TableWriter::new(Vec::new()).unwrap();
        writer.write_block(&block).unwrap();
        let bytes = writer.finish().unwrap();
        let opts = common::SweepOptions {
            truncation: false, // O(n²) over the file; covered by tests/store.rs
            ..common::SweepOptions::quick(bytes.len(), 48)
        };
        let report = common::corruption_sweep(&bytes, &opts);
        prop_assert!(report.flips_tested > 0);
    }

    /// `checksum64` on arbitrary inputs: replacing any one aligned word (the
    /// partial last one included), truncating, or appending zero bytes
    /// changes the value, and so does swapping two unequal words of one
    /// stripe — the four lanes are seeded differently, so position inside a
    /// stripe counts.
    #[test]
    fn checksum64_detects_word_replacement_length_change_and_stripe_swap(
        mut words in prop::collection::vec(any::<u64>(), 4..48),
        tail in prop::collection::vec(any::<u8>(), 0..8),
        at in any::<usize>(),
        mask in 1u64..=u64::MAX,
        cut in 1usize..=40,
        lanes in (0usize..4, 1usize..4),
    ) {
        // Two different lanes of one whole stripe, holding unequal words.
        let stripe = at % (words.len() / 4) * 4;
        let (a, b) = (stripe + lanes.0, stripe + (lanes.0 + lanes.1) % 4);
        if words[a] == words[b] {
            words[b] ^= 1;
        }
        let to_bytes = |words: &[u64]| -> Vec<u8> {
            let mut out: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            out.extend_from_slice(&tail);
            out
        };
        let bytes = to_bytes(&words);
        let clean = checksum64(&bytes);

        let mut swapped = words.clone();
        swapped.swap(a, b);
        prop_assert!(checksum64(&to_bytes(&swapped)) != clean, "swap {} <-> {}", a, b);

        let start = at % bytes.len() / 8 * 8;
        let mut replaced = bytes.clone();
        for (byte, m) in replaced[start..].iter_mut().zip(mask.to_le_bytes()) {
            *byte ^= m;
        }
        if replaced == bytes {
            replaced[start] ^= 1; // the mask's set bits all fell past a partial word
        }
        prop_assert!(checksum64(&replaced) != clean, "word at {}", start);

        let kept = bytes.len().saturating_sub(cut);
        prop_assert!(checksum64(&bytes[..kept]) != clean, "truncated to {}", kept);
        let mut extended = bytes.clone();
        extended.resize(bytes.len() + cut, 0);
        prop_assert!(checksum64(&extended) != clean, "{} zero bytes appended", cut);
    }
}
