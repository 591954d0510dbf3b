//! Integration coverage for the indexed table format: hostile-input
//! sweeps over the whole file (footer included), rejection of the retired
//! format versions, the `IoBackend` fault seam, and the projection /
//! pruning byte-accounting guarantees.

mod common;

use common::{corruption_sweep, mixed_block, one_segment, small_table, SweepOptions};
use std::sync::Arc;

use corra_columnar::selection::SelectionVector;
use corra_columnar::{Column, DataType, Error, Field, Schema, Table};
use corra_core::ingest::{IngestConfig, IngestTable};
use corra_core::io::{FaultPlan, FaultyBackend, MemBackend};
use corra_core::store::{SegmentedTable, TableReader, TableWriter};
use corra_core::vfs::SimVfs;
use corra_core::{
    compress_blocks, scan_blocks, top_k_blocks, AggExpr, CompressedBlock, CompressionConfig,
    Predicate, TopKExpr,
};

#[test]
fn corruption_sweep_catches_every_mutation() {
    // The shared sweep: every truncated prefix is rejected, and every
    // single-bit flip either fails at open (footer self-checksum), fails
    // the op that touches it (segment/payload checksums), or provably
    // changes nothing. Silently wrong data panics inside the sweep.
    let (_, _, bytes) = small_table();
    let report = corruption_sweep(&bytes, &SweepOptions::default());
    assert_eq!(report.truncations_rejected, bytes.len());
    assert_eq!(report.flips_tested, bytes.len());
    assert!(report.flips_rejected_at_open > 0, "{report:?}");
    assert!(report.flips_rejected_by_ops > 0, "{report:?}");
}

#[test]
fn footer_version_word_2_is_rejected_as_corrupt() {
    // There is one footer version: a file whose footer claims the retired
    // checksum-free layout (2) or the retired FNV-1a-checksummed one (3) is
    // corrupt, not a second format to parse.
    let (_, _, bytes) = small_table();
    let footer_len = u64::from_le_bytes(bytes[bytes.len() - 16..][..8].try_into().unwrap());
    let footer_at = bytes.len() - 16 - footer_len as usize;
    for retired in [2u16, 3] {
        let mut hostile = bytes.clone();
        hostile[footer_at..footer_at + 2].copy_from_slice(&retired.to_le_bytes());
        match TableReader::from_bytes(hostile) {
            Err(Error::Corrupt(msg)) => assert_eq!(
                msg,
                format!("unsupported footer version {retired}"),
                "the version word is judged before the checksum"
            ),
            other => panic!("version {retired} opened: {:?}", other.map(|_| ())),
        }
    }
}

#[test]
fn short_reads_are_healed_by_the_read_loop() {
    // Satellite regression for the old single-call `read_at`: a backend
    // that returns partial reads on most calls must be fully transparent —
    // same results as the clean reader, no errors, nothing silently wrong.
    let (raws, blocks, bytes) = small_table();
    let clean = one_segment(TableReader::from_bytes(bytes.clone()).unwrap());
    let plan = FaultPlan::none(0xC0FFEE).with_short_reads(0.85);
    assert!(plan.is_benign());
    let faulty = FaultyBackend::new(MemBackend::new(bytes), plan);
    let reader = one_segment(TableReader::from_backend(Box::new(faulty)).unwrap());
    for (i, raw) in raws.iter().enumerate() {
        assert_eq!(&reader.read_block(i).unwrap(), &blocks[i]);
        for name in ["city", "note", "zip", "l_receiptdate", "total", "sparse"] {
            assert_eq!(
                &reader.read_column(i, name).unwrap(),
                raw.column(name).unwrap(),
                "block {i} column {name}"
            );
        }
    }
    let pred = Predicate::between("l_shipdate", 8_100, 58_000);
    let (want, _) = clean.scan_blocks(&pred).unwrap();
    let (got, _) = reader.scan_blocks(&pred).unwrap();
    assert_eq!(got, want);
    let expr = AggExpr::sum("total").with_group_by("city");
    assert_eq!(
        reader.aggregate(&expr).unwrap().0,
        clean.aggregate(&expr).unwrap().0
    );
}

#[test]
fn hostile_fault_backends_error_and_never_serve_wrong_data() {
    // Bit flips + transient errors + a torn tail: every operation must
    // either error or return the clean result; and the fault schedule is
    // deterministic, so two identical runs agree outcome-for-outcome.
    let (_, _, bytes) = small_table();
    let clean = one_segment(TableReader::from_bytes(bytes.clone()).unwrap());
    let clean_sum = clean.aggregate(&AggExpr::sum("total")).unwrap().0;
    let run = |seed: u64| {
        let plan = FaultPlan::none(seed)
            .with_bit_flips(0.10)
            .with_transient_errors(0.05);
        let faulty = FaultyBackend::new(MemBackend::new(bytes.clone()), plan);
        let mut outcomes = Vec::new();
        match TableReader::from_backend(Box::new(faulty)) {
            Err(e) => outcomes.push(format!("open: {e}")),
            Ok(reader) => {
                let reader = one_segment(reader);
                for b in 0..reader.n_blocks() {
                    outcomes.push(match reader.read_column(b, "total") {
                        Ok(col) => format!("col{b}: {col:?}"),
                        Err(e) => format!("col{b} err: {e}"),
                    });
                }
                outcomes.push(match reader.aggregate(&AggExpr::sum("total")) {
                    Ok((r, _)) => {
                        assert_eq!(r, clean_sum, "seed {seed}: silently wrong aggregate");
                        format!("sum: {r:?}")
                    }
                    Err(e) => format!("sum err: {e}"),
                });
            }
        }
        outcomes
    };
    for seed in 0..16 {
        assert_eq!(run(seed), run(seed), "seed {seed} not deterministic");
    }
    // A torn tail must always fail at open: the trailer is gone.
    for cut in [0u64, 10, 100] {
        let faulty = FaultyBackend::new(
            MemBackend::new(bytes.clone()),
            FaultPlan::none(1).with_truncation(bytes.len() as u64 - 1 - cut),
        );
        assert!(TableReader::from_backend(Box::new(faulty)).is_err());
    }
}

#[test]
fn block_version_word_1_is_rejected_as_corrupt() {
    // There is one block version: the retired unframed layout's version
    // word is corrupt input, not a second format to parse.
    let (raw, cfg) = mixed_block(500, 0);
    let mut bytes = CompressedBlock::compress(&raw, &cfg)
        .unwrap()
        .to_bytes()
        .unwrap();
    bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
    assert!(matches!(
        CompressedBlock::from_bytes(&bytes),
        Err(Error::Corrupt(_))
    ));
}

#[test]
fn projected_read_bytes_accounting() {
    // Acceptance: a projected single-column read through TableReader
    // deserializes only that column's (and its reference chain's) payload
    // bytes — under 50% of the file for a wide block.
    let (raw, cfg) = mixed_block(20_000, 0);
    let block = CompressedBlock::compress(&raw, &cfg).unwrap();
    let mut writer = TableWriter::new(Vec::new()).unwrap();
    writer.write_block(&block).unwrap();
    let bytes = writer.finish().unwrap();
    let file_len = bytes.len() as u64;
    for (column, closure_cols) in [
        ("fee", 1),           // vertical: one payload
        ("zip", 2),           // hier: child + string parent
        ("l_receiptdate", 2), // nonhier: diffs + date reference
        ("total", 3),         // multiref: codes + two group members
    ] {
        let reader = TableReader::from_bytes(bytes.clone()).unwrap();
        let handle = reader.block_handle(0).unwrap();
        let col = handle.decompress(column).unwrap();
        assert_eq!(&col, raw.column(column).unwrap(), "{column}");
        assert_eq!(handle.loaded_columns(), closure_cols, "{column}");
        let read = reader.bytes_read();
        assert!(
            read * 2 < file_len,
            "{column}: projected read fetched {read} of {file_len} bytes"
        );
    }
}

#[test]
fn pruned_store_scan_reads_zero_bytes_and_matches_serial_in_memory() {
    // Acceptance: a footer-pruned scan reads zero payload bytes from pruned
    // blocks while producing SelectionVectors byte-identical to the serial
    // in-memory path.
    let mut raws = Vec::new();
    let mut blocks = Vec::new();
    for salt in [0, 100_000, 200_000] {
        let (raw, cfg) = mixed_block(2_000, salt);
        blocks.push(CompressedBlock::compress(&raw, &cfg).unwrap());
        raws.push(raw);
    }
    let mut writer = TableWriter::new(Vec::new()).unwrap();
    for b in &blocks {
        writer.write_block(b).unwrap();
    }
    let table = one_segment(TableReader::from_bytes(writer.finish().unwrap()).unwrap());
    // Straddles only the middle block's domain.
    let pred = Predicate::between("l_shipdate", 108_000, 109_000);
    let (want_sels, want_stats) = scan_blocks(&blocks, &pred).unwrap();
    let (sels, stats) = table.scan_blocks(&pred).unwrap();
    assert_eq!(sels, want_sels, "selections must be byte-identical");
    assert_eq!(stats.rows_matched, want_stats.rows_matched);
    assert_eq!(stats.blocks_skipped_io, 2, "two blocks pruned via footer");
    // Zero bytes of the pruned blocks were read: everything fetched lies
    // within the middle block's segment.
    let middle = &table.segments()[0].footer().blocks[1];
    let touched = stats.bytes_read;
    assert!(touched > 0);
    assert!(
        touched <= middle.len,
        "scan read {touched} B > middle block segment of {} B",
        middle.len
    );
    // Fully disjoint predicate: zero bytes total.
    let (sels, stats) = table.scan_blocks(&Predicate::lt("l_shipdate", 0)).unwrap();
    assert_eq!(stats.bytes_read, 0);
    assert_eq!(stats.blocks_skipped_io, 3);
    assert!(sels.iter().all(SelectionVector::is_empty));
    let (want_sels, _) = scan_blocks(&blocks, &Predicate::lt("l_shipdate", 0)).unwrap();
    assert_eq!(sels, want_sels);
}

/// A one-column `ts` table of 512-row blocks, three ways: compressed in
/// memory, as one file (the one-segment table), and as `segments` appended
/// segments.
fn ts_tables(
    values: Vec<i64>,
    segments: usize,
) -> (Vec<CompressedBlock>, SegmentedTable, SegmentedTable) {
    let block_rows = 512;
    let schema = Schema::new(vec![Field::new("ts", DataType::Timestamp)]).unwrap();
    let table = |rows: &[i64]| Table::new(schema.clone(), vec![Column::Int64(rows.to_vec())]);
    let blocks = compress_blocks(
        &table(&values).unwrap().into_blocks(block_rows),
        &CompressionConfig::baseline(),
        1,
    )
    .unwrap();
    let mut writer = TableWriter::new(Vec::new()).unwrap();
    for b in &blocks {
        writer.write_block(b).unwrap();
    }
    let reader = one_segment(TableReader::from_bytes(writer.finish().unwrap()).unwrap());
    let config = IngestConfig {
        block_rows,
        ..IngestConfig::default()
    };
    let mut ingest = IngestTable::create(Arc::new(SimVfs::new(11)), config).unwrap();
    for chunk in values.chunks(values.len() / segments) {
        ingest.append(table(chunk).unwrap()).unwrap();
    }
    (blocks, reader, ingest.reader().unwrap())
}

#[test]
fn store_top_k_prunes_every_block_past_the_first_from_footer_zones() {
    // Ascending `ts` in 8 blocks: footer zones are disjoint, and blocks are
    // visited best zone first, so in *either* direction the heap fills
    // inside the first block visited and every other block's best value is
    // strictly worse than the bound — decided from the footer, payload
    // never fetched. Descending is "the latest k events": visited in file
    // order it met every block with a zone still beating the bound.
    let (n_blocks, k) = (8usize, 100usize);
    let rows = n_blocks * 512;
    let (blocks, reader, segmented) = ts_tables((0..rows as i64).collect(), 4);
    assert_eq!(reader.n_blocks(), n_blocks);
    assert_eq!(segmented.n_segments(), 4);
    for expr in [TopKExpr::asc("ts", k), TopKExpr::desc("ts", k)] {
        let want: Vec<i64> = if expr.descending() {
            (0..rows as i64).rev().take(k).collect()
        } else {
            (0..k as i64).collect()
        };
        let (mem, mem_stats) = top_k_blocks(&blocks, &expr).unwrap();
        assert_eq!(mem.iter().map(|r| r.value).collect::<Vec<_>>(), want);
        assert_eq!(mem_stats.blocks_pruned, n_blocks - 1, "{expr:?}");

        let full_pass = reader.aggregate(&AggExpr::sum("ts")).unwrap().1;
        let (top, stats) = reader.top_k(&expr).unwrap();
        assert_eq!(top, mem, "{expr:?}");
        assert_eq!(stats.blocks_skipped_io, n_blocks - 1, "{expr:?}");
        assert!(
            0 < stats.bytes_read && stats.bytes_read < full_pass.bytes_read,
            "{expr:?}: top-k read {} B, one full pass {} B",
            stats.bytes_read,
            full_pass.bytes_read
        );

        let full_pass = segmented.aggregate(&AggExpr::sum("ts")).unwrap().1;
        let (seg_top, seg_stats) = segmented.top_k(&expr).unwrap();
        assert_eq!(seg_top, mem, "{expr:?}");
        assert_eq!(seg_stats.blocks_skipped_io, n_blocks - 1, "{expr:?}");
        assert!(
            0 < seg_stats.bytes_read && seg_stats.bytes_read < full_pass.bytes_read,
            "{expr:?}: top-k read {} B, one full pass {} B",
            seg_stats.bytes_read,
            full_pass.bytes_read
        );
    }
}

#[test]
fn top_k_over_a_constant_column_visits_one_block() {
    // Every zone equals the bound, so only the tie-aware half of the skip
    // rule can prune: once block 0 has filled the heap, each later block
    // starts at a position past the k-th entry's and no row of it can win
    // the (value, block, row) tie-break.
    let (n_blocks, k) = (6usize, 100usize);
    let (blocks, reader, segmented) = ts_tables(vec![7; n_blocks * 512], 3);
    for expr in [TopKExpr::asc("ts", k), TopKExpr::desc("ts", k)] {
        let (mem, mem_stats) = top_k_blocks(&blocks, &expr).unwrap();
        let first_rows: Vec<(i64, u32, u32)> = (0..k as u32).map(|row| (7, 0, row)).collect();
        let got: Vec<(i64, u32, u32)> = mem.iter().map(|r| (r.value, r.block, r.row)).collect();
        assert_eq!(got, first_rows, "{expr:?}");
        assert_eq!(mem_stats.blocks_pruned, n_blocks - 1, "{expr:?}");
        let (top, stats) = reader.top_k(&expr).unwrap();
        assert_eq!((top, stats.blocks_skipped_io), (mem.clone(), n_blocks - 1));
        let (top, stats) = segmented.top_k(&expr).unwrap();
        assert_eq!((top, stats.blocks_skipped_io), (mem, n_blocks - 1));
    }
}
