//! One body per operator: in-memory blocks, one table file and a segmented
//! table run the same footer-first kernels through the same drivers, so
//! they agree on answers, on errors and on every block counter — not only
//! on results.

mod common;

use std::sync::Arc;

use corra_core::store::{SegmentedTable, TableReader, TableWriter};
use corra_core::{
    aggregate_blocks, hash_join_blocks, scan_blocks, top_k_blocks, AggExpr, AggFunc,
    CompressedBlock, JoinExpr, Predicate, ScanStats, TopKExpr,
};

const BLOCKS: usize = 4;

/// Four mixed-codec blocks over disjoint date domains.
fn blocks() -> Vec<CompressedBlock> {
    (0..BLOCKS)
        .map(|b| {
            let (raw, cfg) = common::mixed_block(64, b as i64 * 10_000);
            CompressedBlock::compress(&raw, &cfg).unwrap()
        })
        .collect()
}

fn reader_of(blocks: &[CompressedBlock]) -> TableReader {
    let mut writer = TableWriter::new(Vec::new()).unwrap();
    for block in blocks {
        writer.write_block(block).unwrap();
    }
    TableReader::from_bytes(writer.finish().unwrap()).unwrap()
}

/// The blocks in one table file: the one-segment table.
fn file_of(blocks: &[CompressedBlock]) -> SegmentedTable {
    common::one_segment(reader_of(blocks))
}

/// The same blocks as one single-block segment each.
fn segmented_of(blocks: &[CompressedBlock]) -> SegmentedTable {
    let readers = blocks
        .iter()
        .map(|b| Arc::new(reader_of(std::slice::from_ref(b))))
        .collect();
    SegmentedTable::from_readers(readers)
}

/// The counters every source defines alike.
fn blocks_counters(stats: &ScanStats) -> (usize, usize, usize, usize) {
    (
        stats.blocks,
        stats.blocks_pruned,
        stats.rows_total,
        stats.rows_matched,
    )
}

/// The predicates of `segmented_drivers.rs`, plus the conjunction whose
/// string leaf sits on blocks the date zones prove empty.
fn predicates() -> Vec<Predicate> {
    vec![
        Predicate::ge("fee", 105),
        Predicate::between("l_shipdate", 28_000, 52_000),
        Predicate::lt("l_shipdate", 0),
        Predicate::and(vec![
            Predicate::ge("l_shipdate", 40_000),
            Predicate::str_eq("city", "Naples"),
        ]),
        Predicate::not(Predicate::between("total", 100, 104)),
        Predicate::and(vec![
            Predicate::str_eq("city", "NYC"),
            Predicate::lt("l_shipdate", 0),
        ]),
    ]
}

#[test]
fn top_k_on_a_string_target_fails_alike_from_every_source() {
    let blocks = blocks();
    let file = file_of(&blocks);
    let segmented = segmented_of(&blocks);
    for expr in [
        TopKExpr::asc("city", 3),
        TopKExpr::desc("city", 0),
        TopKExpr::asc("note", 3).with_filter(Predicate::lt("l_shipdate", 0)),
    ] {
        let memory = top_k_blocks(&blocks, &expr).unwrap_err().to_string();
        let from_file = file.top_k(&expr).unwrap_err().to_string();
        let from_segments = segmented.top_k(&expr).unwrap_err().to_string();
        assert!(memory.contains("TOP-K"), "{expr:?}: {memory}");
        assert_eq!(memory, from_file, "{expr:?}");
        assert_eq!(memory, from_segments, "{expr:?}");
    }
}

#[test]
fn memory_and_store_count_every_block_alike() {
    let blocks = blocks();
    let file = file_of(&blocks);
    let segmented = segmented_of(&blocks);
    let preds = predicates();

    for pred in &preds {
        let (sels, memory) = scan_blocks(&blocks, pred).unwrap();
        let (file_sels, stored) = file.scan_blocks(pred).unwrap();
        let (seg_sels, seg) = segmented.scan_blocks(pred).unwrap();
        assert_eq!(sels, file_sels, "{pred:?}");
        assert_eq!(sels, seg_sels, "{pred:?}");
        assert_eq!(
            blocks_counters(&memory),
            blocks_counters(&stored),
            "{pred:?}"
        );
        assert_eq!(blocks_counters(&memory), blocks_counters(&seg), "{pred:?}");
    }

    let mut aggregates = vec![
        AggExpr::count(),
        AggExpr::of(AggFunc::Count, "city"),
        AggExpr::min("fee"),
        AggExpr::sum("total"),
        AggExpr::max("city"),
        AggExpr::count().with_group_by("city"),
    ];
    aggregates.extend(
        preds
            .iter()
            .map(|p| AggExpr::count().with_filter(p.clone())),
    );
    aggregates.extend(
        preds
            .iter()
            .map(|p| AggExpr::sum("fee").with_filter(p.clone())),
    );
    for expr in &aggregates {
        let (result, memory) = aggregate_blocks(&blocks, expr).unwrap();
        let (file_result, stored) = file.aggregate(expr).unwrap();
        let (seg_result, seg) = segmented.aggregate(expr).unwrap();
        assert_eq!(result, file_result, "{expr:?}");
        assert_eq!(result, seg_result, "{expr:?}");
        assert_eq!(
            blocks_counters(&memory),
            blocks_counters(&stored),
            "{expr:?}"
        );
        assert_eq!(blocks_counters(&memory), blocks_counters(&seg), "{expr:?}");
    }

    for expr in [
        TopKExpr::desc("l_shipdate", 7),
        TopKExpr::asc("total", 40),
        TopKExpr::desc("fee", 5).with_filter(Predicate::str_eq("city", "Albany")),
        TopKExpr::asc("l_receiptdate", 0),
        TopKExpr::desc("fee", 3).with_filter(preds[5].clone()),
    ] {
        let (rows, memory) = top_k_blocks(&blocks, &expr).unwrap();
        let (file_rows, stored) = file.top_k(&expr).unwrap();
        let (seg_rows, seg) = segmented.top_k(&expr).unwrap();
        assert_eq!(rows, file_rows, "{expr:?}");
        assert_eq!(rows, seg_rows, "{expr:?}");
        assert_eq!(
            blocks_counters(&memory),
            blocks_counters(&stored),
            "{expr:?}"
        );
        assert_eq!(blocks_counters(&memory), blocks_counters(&seg), "{expr:?}");
    }

    let join = JoinExpr::on("city", "city");
    let (pairs, memory) = hash_join_blocks(&blocks, &blocks, &join).unwrap();
    let (file_pairs, stored) = file.hash_join(&file, &join).unwrap();
    assert_eq!(pairs, file_pairs);
    assert_eq!(blocks_counters(&memory.io), blocks_counters(&stored.io));
}

#[test]
fn blocks_the_zones_decide_run_no_kernel_in_memory_either() {
    let blocks = blocks();
    let pruned = |stats: ScanStats| stats.blocks_pruned;
    let count = |expr: &AggExpr| pruned(aggregate_blocks(&blocks, expr).unwrap().1);
    assert_eq!(count(&AggExpr::count()), BLOCKS);
    assert_eq!(count(&AggExpr::of(AggFunc::Count, "city")), BLOCKS);
    let top_k = top_k_blocks(&blocks, &TopKExpr::asc("l_receiptdate", 0)).unwrap();
    assert_eq!(pruned(top_k.1), BLOCKS);
    let empty = Predicate::and(vec![
        Predicate::str_eq("city", "NYC"),
        Predicate::lt("l_shipdate", 0),
    ]);
    assert_eq!(pruned(scan_blocks(&blocks, &empty).unwrap().1), BLOCKS);
}

#[test]
fn a_store_scan_loads_only_the_leaves_it_runs() {
    // `fee >= 105` never runs once `city = 'Nowhere'` empties each block,
    // and validating it reads the footer, not `fee`'s payload.
    let file = file_of(&blocks());
    let alone = Predicate::str_eq("city", "Nowhere");
    let both = Predicate::and(vec![alone.clone(), Predicate::ge("fee", 105)]);
    let (_, alone_stats) = file.scan_blocks(&alone).unwrap();
    let (sels, both_stats) = file.scan_blocks(&both).unwrap();
    assert!(sels.iter().all(|s| s.is_empty()));
    assert!(alone_stats.bytes_read > 0);
    assert_eq!(both_stats.bytes_read, alone_stats.bytes_read);
}
