//! Shared fixtures for the `corra-core` integration tests: the mixed-codec
//! block builders plus a re-export of the crate's [`corruption_sweep`], so
//! every hostile-input suite (and the `corra-sim` harness, which calls the
//! same `corra_core::torture` entry point) drives one implementation.

// Each integration test binary compiles this module independently and uses
// a different subset of it.
#![allow(dead_code)]
#![allow(unused_imports)]

pub use corra_core::torture::{corruption_sweep, SweepOptions};

use corra_columnar::block::DataBlock;
use corra_columnar::column::{Column, DataType};
use corra_columnar::schema::{Field, Schema};
use std::sync::Arc;

use corra_core::store::{ColumnMeta, SegmentedTable, TableFooter, TableReader, TableWriter};
use corra_core::{checksum64, ColumnPlan, CompressedBlock, CompressionConfig};

/// A block exercising every codec family the block format serializes:
/// dict-string, hier-int-under-string, FOR dates, nonhier, plain string,
/// FOR/dict ints, multiref.
pub fn mixed_block(n: usize, salt: i64) -> (DataBlock, CompressionConfig) {
    let city: Vec<&str> = (0..n).map(|i| ["NYC", "Albany", "Naples"][i % 3]).collect();
    let note: Vec<String> = (0..n).map(|i| format!("note-{}", i % 7)).collect();
    let zip: Vec<i64> = (0..n)
        .map(|i| 10_000 + (i % 3) as i64 * 50 + (i / 3 % 4) as i64)
        .collect();
    let ship: Vec<i64> = (0..n)
        .map(|i| salt + 8_035 + (i as i64 * 17 % 2_000))
        .collect();
    let receipt: Vec<i64> = ship
        .iter()
        .enumerate()
        .map(|(i, &s)| s + 1 + (i as i64 % 30))
        .collect();
    let fee: Vec<i64> = (0..n).map(|i| 100 + (i as i64 % 10)).collect();
    let extra: Vec<i64> = vec![25; n];
    let total: Vec<i64> = (0..n)
        .map(|i| {
            if i % 2 == 0 {
                fee[i]
            } else {
                fee[i] + extra[i]
            }
        })
        .collect();
    let sparse: Vec<i64> = (0..n).map(|i| ((i % 4) as i64) * 1_000_000_007).collect();
    let block = DataBlock::new(
        Schema::new(vec![
            Field::new("city", DataType::Utf8),
            Field::new("note", DataType::Utf8),
            Field::new("zip", DataType::Int64),
            Field::new("l_shipdate", DataType::Date),
            Field::new("l_receiptdate", DataType::Date),
            Field::new("fee", DataType::Int64),
            Field::new("extra", DataType::Int64),
            Field::new("total", DataType::Int64),
            Field::new("sparse", DataType::Int64),
        ])
        .unwrap(),
        vec![
            Column::Utf8(city.into_iter().collect()),
            Column::Utf8(note.iter().map(String::as_str).collect()),
            Column::Int64(zip),
            Column::Int64(ship),
            Column::Int64(receipt),
            Column::Int64(fee),
            Column::Int64(extra),
            Column::Int64(total),
            Column::Int64(sparse),
        ],
    )
    .unwrap();
    let cfg = CompressionConfig::baseline()
        .with("note", ColumnPlan::Plain)
        .with(
            "zip",
            ColumnPlan::Hier {
                reference: "city".into(),
            },
        )
        .with(
            "l_receiptdate",
            ColumnPlan::NonHier {
                reference: "l_shipdate".into(),
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

/// A two-block mixed-codec table: raw blocks, compressed blocks, and the
/// serialized (footer v4, checksummed) file bytes.
pub fn small_table() -> (Vec<DataBlock>, Vec<CompressedBlock>, Vec<u8>) {
    let mut raws = Vec::new();
    let mut blocks = Vec::new();
    for salt in [0, 50_000] {
        let (raw, cfg) = mixed_block(96, salt);
        blocks.push(CompressedBlock::compress(&raw, &cfg).unwrap());
        raws.push(raw);
    }
    let mut writer = TableWriter::new(Vec::new()).unwrap();
    for b in &blocks {
        writer.write_block(b).unwrap();
    }
    let bytes = writer.finish().unwrap();
    (raws, blocks, bytes)
}

/// One table file as a table: the one-segment [`SegmentedTable`].
pub fn one_segment(reader: TableReader) -> SegmentedTable {
    SegmentedTable::from_readers(vec![Arc::new(reader)])
}

/// Re-seals a table file whose block bytes were rewritten in place, as a
/// writer that encoded the rewritten bytes would have sealed them: every
/// column and block checksum in the footer is recomputed, every zone is
/// marked as an older writer's covering bounds (flag 1, which a reader
/// ignores — the rewritten payloads no longer match the zones), and the
/// footer's own checksum is recomputed. `footer` is the file's footer
/// before the rewrite.
pub fn reseal(bytes: &mut [u8], footer: &TableFooter) {
    for block in &footer.blocks {
        let at = block.offset as usize;
        let image = at..at + block.len as usize;
        for col in &block.columns {
            let payload = at + col.span.offset as usize;
            let sum = checksum64(&bytes[payload..payload + col.span.len as usize]);
            let pos = span_entry(bytes, col);
            bytes[pos + 12..pos + 20].copy_from_slice(&sum.to_le_bytes());
            if bytes[pos + 20] == 2 {
                bytes[pos + 20] = 1;
            }
        }
        let mut field = block.offset.to_le_bytes().to_vec();
        field.extend(block.len.to_le_bytes());
        field.extend(block.rows.to_le_bytes());
        field.extend(block.checksum.to_le_bytes());
        let pos = find_in_footer(bytes, &field);
        let sum = checksum64(&bytes[image]);
        bytes[pos + 20..pos + 28].copy_from_slice(&sum.to_le_bytes());
    }
    reseal_footer(bytes);
}

/// The footer of a table file: the bytes before its self-checksum,
/// length and trailing magic.
fn footer_range(bytes: &[u8]) -> std::ops::Range<usize> {
    let end = bytes.len() - 16;
    let footer_len = u64::from_le_bytes(bytes[end..end + 8].try_into().unwrap()) as usize;
    end - footer_len..end - 8
}

/// Where `pattern` first occurs in the footer, as a file offset.
fn find_in_footer(bytes: &[u8], pattern: &[u8]) -> usize {
    let footer = footer_range(bytes);
    footer.start
        + bytes[footer]
            .windows(pattern.len())
            .position(|w| w == pattern)
            .expect("the field is in the footer")
}

/// The file offset of `col`'s footer span entry: `payload_off u64 |
/// payload_len u32 | checksum u64`, then the zone flag.
pub fn span_entry(bytes: &[u8], col: &ColumnMeta) -> usize {
    let mut field = col.span.offset.to_le_bytes().to_vec();
    field.extend(col.span.len.to_le_bytes());
    field.extend(col.checksum.to_le_bytes());
    find_in_footer(bytes, &field)
}

/// Recomputes the footer self-checksum of a table file whose footer was
/// patched in place.
pub fn reseal_footer(bytes: &mut [u8]) {
    let footer = footer_range(bytes);
    let sum = checksum64(&bytes[footer.clone()]);
    bytes[footer.end..footer.end + 8].copy_from_slice(&sum.to_le_bytes());
}
