//! Integration coverage for the indexed table format: hostile-input
//! sweeps over the whole file (footer included), rejection of the retired
//! format versions, the `IoBackend` fault seam, and the projection /
//! pruning byte-accounting guarantees.

mod common;

use common::{corruption_sweep, mixed_block, small_table, SweepOptions};
use corra_columnar::selection::SelectionVector;
use corra_columnar::{Column, DataType, Error, Field, Schema, Table};
use corra_core::io::{FaultPlan, FaultyBackend, MemBackend};
use corra_core::store::{TableReader, TableWriter};
use corra_core::{
    compress_blocks, scan_blocks, AggExpr, CompressedBlock, CompressionConfig, Predicate, TopKExpr,
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
    let clean = TableReader::from_bytes(bytes.clone()).unwrap();
    let plan = FaultPlan::none(0xC0FFEE).with_short_reads(0.85);
    assert!(plan.is_benign());
    let faulty = FaultyBackend::new(MemBackend::new(bytes), plan);
    let reader = TableReader::from_backend(Box::new(faulty)).unwrap();
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
    let clean = TableReader::from_bytes(bytes.clone()).unwrap();
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
    let reader = TableReader::from_bytes(writer.finish().unwrap()).unwrap();
    // Straddles only the middle block's domain.
    let pred = Predicate::between("l_shipdate", 108_000, 109_000);
    let (want_sels, want_stats) = scan_blocks(&blocks, &pred).unwrap();
    let (sels, stats) = reader.scan_blocks(&pred).unwrap();
    assert_eq!(sels, want_sels, "selections must be byte-identical");
    assert_eq!(stats.rows_matched, want_stats.rows_matched);
    assert_eq!(stats.blocks_skipped_io, 2, "two blocks pruned via footer");
    // Zero bytes of the pruned blocks were read: everything fetched lies
    // within the middle block's segment.
    let middle = &reader.footer().blocks[1];
    let touched = stats.bytes_read;
    assert!(touched > 0);
    assert!(
        touched <= middle.len,
        "scan read {touched} B > middle block segment of {} B",
        middle.len
    );
    // Fully disjoint predicate: zero bytes total.
    let (sels, stats) = reader.scan_blocks(&Predicate::lt("l_shipdate", 0)).unwrap();
    assert_eq!(stats.bytes_read, 0);
    assert_eq!(stats.blocks_skipped_io, 3);
    assert!(sels.iter().all(SelectionVector::is_empty));
    let (want_sels, _) = scan_blocks(&blocks, &Predicate::lt("l_shipdate", 0)).unwrap();
    assert_eq!(sels, want_sels);
}

#[test]
fn store_top_k_prunes_every_block_past_the_first_from_footer_zones() {
    // Ascending `ts` in 8 blocks: footer zones are disjoint, so an ascending
    // TOP-K fills its heap inside block 0 and every later block's zone
    // minimum is strictly worse than the running bound — decided from the
    // footer, payload never fetched.
    let (n_blocks, block_rows, k) = (8usize, 512usize, 100usize);
    let rows = n_blocks * block_rows;
    let schema = Schema::new(vec![Field::new("ts", DataType::Timestamp)]).unwrap();
    let table = Table::new(schema, vec![Column::Int64((0..rows as i64).collect())]).unwrap();
    let blocks = compress_blocks(
        &table.into_blocks(block_rows),
        &CompressionConfig::baseline(),
        1,
    )
    .unwrap();
    let mut writer = TableWriter::new(Vec::new()).unwrap();
    for b in &blocks {
        writer.write_block(b).unwrap();
    }
    let reader = TableReader::from_bytes(writer.finish().unwrap()).unwrap();
    assert_eq!(reader.n_blocks(), n_blocks);

    let expr = TopKExpr::asc("ts", k);
    let (top, stats) = reader.top_k(&expr).unwrap();
    let values: Vec<i64> = top.iter().map(|r| r.value).collect();
    assert_eq!(values, (0..k as i64).collect::<Vec<_>>());
    assert_eq!(stats.blocks_skipped_io, n_blocks - 1);
    let segments: u64 = reader.footer().blocks.iter().map(|b| b.len).sum();
    assert!(
        stats.bytes_read < segments,
        "top-k read {} B of {segments} B of segments",
        stats.bytes_read
    );
    let (parallel, _) = reader.top_k_parallel(&expr, 4).unwrap();
    assert_eq!(parallel, top);
}
