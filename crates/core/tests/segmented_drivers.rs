//! The store's whole-table operators run over one global block list, so a
//! table of single-block segments — every un-compacted append — answers
//! exactly like one file holding the same blocks: scan, aggregate, TOP-K,
//! join, and every point read by global block number.

mod common;

use std::sync::Arc;

use corra_columnar::error::{Error, Result};
use corra_core::store::{SegmentedTable, TableReader, TableWriter};
use corra_core::{
    AggExpr, CompressedBlock, JoinExpr, Predicate, ServeRequest, ServeSession, TopKExpr,
};

const SEGMENTS: usize = 10;

/// One single-block table file per segment, each over its own value
/// domain so footer zones differ.
fn segment_bytes() -> Vec<Vec<u8>> {
    (0..SEGMENTS)
        .map(|seg| {
            let (raw, cfg) = common::mixed_block(32, seg as i64 * 10_000);
            let block = CompressedBlock::compress(&raw, &cfg).unwrap();
            let mut writer = TableWriter::new(Vec::new()).unwrap();
            writer.write_block(&block).unwrap();
            writer.finish().unwrap()
        })
        .collect()
}

fn segmented() -> SegmentedTable {
    let readers = segment_bytes()
        .into_iter()
        .map(|bytes| Arc::new(TableReader::from_bytes(bytes).unwrap()))
        .collect();
    SegmentedTable::from_readers(readers)
}

#[test]
fn segmented_drivers_match_one_file_over_single_block_segments() {
    let table = segmented();
    assert_eq!(table.n_segments(), SEGMENTS);
    assert_eq!(table.n_blocks(), SEGMENTS, "one block per segment");
    let single = single_file();
    let preds = [
        Predicate::ge("fee", 105),
        Predicate::between("l_shipdate", 28_000, 52_000), // prunes most segments
        Predicate::lt("l_shipdate", 0),                   // prunes everything
        Predicate::and(vec![
            Predicate::ge("l_shipdate", 40_000),
            Predicate::str_eq("city", "Naples"),
        ]),
        Predicate::not(Predicate::between("total", 100, 104)),
    ];
    for pred in &preds {
        let (sels, stats) = table.scan_blocks(pred).unwrap();
        assert_eq!(sels.len(), SEGMENTS);
        // Every field but the segment count: one file opens one segment.
        let (one_sels, one_stats) = single.scan_blocks(pred).unwrap();
        assert_eq!(sels, one_sels, "{pred:?}");
        assert_eq!(stats.segments_opened, SEGMENTS);
        let one_stats = corra_core::ScanStats {
            segments_opened: SEGMENTS,
            ..one_stats
        };
        assert_eq!(stats, one_stats, "{pred:?}");
        // The store aggregate folds the same blocks in the same order.
        let count = AggExpr::count().with_filter(pred.clone());
        let (agg, agg_stats) = table.aggregate(&count).unwrap();
        assert_eq!(agg, single.aggregate(&count).unwrap().0, "{pred:?}");
        let matched: usize = sels.iter().map(|s| s.len()).sum();
        assert_eq!(agg_stats.rows_matched, matched, "{pred:?}");
        assert_eq!(agg_stats.segments_opened, SEGMENTS);
    }

    for expr in [
        TopKExpr::desc("l_shipdate", 7),
        TopKExpr::asc("total", 40),
        TopKExpr::desc("fee", 5).with_filter(Predicate::str_eq("city", "Albany")),
        TopKExpr::asc("l_receiptdate", 0),
    ] {
        let (rows, stats) = table.top_k(&expr).unwrap();
        assert_eq!(stats.blocks, SEGMENTS);
        // Global block numbering: identical to one file holding the blocks.
        let (one_rows, one_stats) = single.top_k(&expr).unwrap();
        assert_eq!(rows, one_rows, "{expr:?}");
        assert_eq!(stats.segments_opened, SEGMENTS);
        assert_eq!(
            (stats.rows_total, stats.blocks_skipped_io, stats.bytes_read),
            (
                one_stats.rows_total,
                one_stats.blocks_skipped_io,
                one_stats.bytes_read
            ),
            "{expr:?}"
        );
    }

    let join = JoinExpr::on("city", "city");
    let (pairs, stats) = table.hash_join(&table, &join).unwrap();
    assert!(!pairs.is_empty());
    assert_eq!(stats.io.segments_opened, 2 * SEGMENTS);
    let (one_pairs, one_stats) = single.hash_join(&single, &join).unwrap();
    assert_eq!(pairs, one_pairs);
    assert_eq!(
        (stats.probe_rows, stats.distinct_keys, stats.pairs),
        (
            one_stats.probe_rows,
            one_stats.distinct_keys,
            one_stats.pairs
        )
    );
}

/// The same blocks as [`segmented`], in one file: the one-segment table.
fn single_file() -> SegmentedTable {
    let mut writer = TableWriter::new(Vec::new()).unwrap();
    for seg in 0..SEGMENTS {
        let (raw, cfg) = common::mixed_block(32, seg as i64 * 10_000);
        writer
            .write_block(&CompressedBlock::compress(&raw, &cfg).unwrap())
            .unwrap();
    }
    common::one_segment(TableReader::from_bytes(writer.finish().unwrap()).unwrap())
}

/// A table file with no blocks.
fn empty_segment() -> Arc<TableReader> {
    let bytes = TableWriter::new(Vec::new()).unwrap().finish().unwrap();
    Arc::new(TableReader::from_bytes(bytes).unwrap())
}

fn is_out_of_bounds<T: std::fmt::Debug>(result: Result<T>, len: usize) -> bool {
    matches!(result, Err(Error::IndexOutOfBounds { index, len: l }) if index == len && l == len)
}

#[test]
fn global_block_numbers_address_the_same_blocks_as_one_file() {
    let single = single_file();
    let names: Vec<String> = single.segments()[0]
        .schema()
        .fields()
        .iter()
        .map(|f| f.name().to_owned())
        .collect();
    // Empty segments own no block number: interleaved at the start, the
    // middle and the end, they shift nothing.
    let mut readers: Vec<Arc<TableReader>> = segment_bytes()
        .into_iter()
        .map(|bytes| Arc::new(TableReader::from_bytes(bytes).unwrap()))
        .collect();
    for at in [SEGMENTS, SEGMENTS / 2, 0] {
        readers.insert(at, empty_segment());
    }
    let padded = SegmentedTable::from_readers(readers);
    assert_eq!(padded.n_segments(), SEGMENTS + 3);
    for table in [segmented(), padded] {
        assert_eq!(table.n_blocks(), single.n_blocks());
        for b in 0..table.n_blocks() {
            assert_eq!(
                table.read_block(b).unwrap(),
                single.read_block(b).unwrap(),
                "block {b}"
            );
            let handle = table.block_handle(b).unwrap();
            for name in &names {
                let want = single.read_column(b, name).unwrap();
                assert_eq!(
                    table.read_column(b, name).unwrap(),
                    want,
                    "block {b} {name}"
                );
                assert_eq!(handle.decompress(name).unwrap(), want, "block {b} {name}");
            }
        }
        let n = table.n_blocks();
        assert!(is_out_of_bounds(table.read_block(n), n));
        assert!(is_out_of_bounds(table.read_column(n, "fee"), n));
        assert!(is_out_of_bounds(table.block_handle(n).map(|_| ()), n));
        let session = ServeSession::new(Arc::new(table));
        assert!(is_out_of_bounds(
            session.run(&[ServeRequest::point(n, "fee")], 1),
            n
        ));
    }
}
