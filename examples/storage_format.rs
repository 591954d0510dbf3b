//! Storage-format walkthrough: stream a compressed multi-block table into
//! an indexed table file, then read it back three ways — full blocks,
//! single projected columns (only the referenced payloads are fetched),
//! and a footer-pruned scan that never touches pruned blocks' bytes. The
//! file is read as a table of one segment, the same type an ingest
//! directory of many segment files opens as.
//!
//! ```sh
//! cargo run --release --example storage_format
//! ```

use std::sync::Arc;

use corra::core::store::{SegmentedTable, TableReader, TableWriter};
use corra::core::Predicate;
use corra::datagen::{MessageParams, MessageTable};
use corra::prelude::*;

fn main() {
    let rows = 2_500_000; // 3 blocks: 1M + 1M + 0.5M
    let table = MessageTable::generate(MessageParams::scaled(rows), 31).into_table();
    println!("LDBC message table, {rows} rows -> blocks of {DEFAULT_BLOCK_ROWS}");

    let cfg = CompressionConfig::baseline().with(
        "ip",
        ColumnPlan::Hier {
            reference: "countryid".into(),
        },
    );
    let schema = table.schema().clone();
    let blocks = table.into_blocks(DEFAULT_BLOCK_ROWS);
    let compressed = corra::core::compress_blocks(&blocks, &cfg, 4).expect("parallel compression");

    // Stream the blocks through the table writer: each segment goes to disk
    // as it is serialized, only footer metadata is buffered.
    // Process-unique scratch dir: concurrent example runs must not
    // clobber each other's table file.
    let dir = std::env::temp_dir().join(format!("corra_storage_example_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("message.corra");
    let file = std::fs::File::create(&path).expect("create file");
    let mut writer = TableWriter::with_schema(file, schema).expect("start table");
    for block in &compressed {
        writer.write_block(block).expect("stream block");
    }
    writer.finish().expect("finish table");

    let reader = Arc::new(TableReader::open(&path).expect("open table"));
    let table = SegmentedTable::from_readers(vec![Arc::clone(&reader)]);
    println!(
        "wrote {} blocks, {} B total to {}",
        reader.n_blocks(),
        reader.file_bytes(),
        path.display()
    );

    // Read back only the *middle* block — the footer knows its byte range,
    // so no other block is touched.
    let middle = table.read_block(1).expect("read middle block");
    println!(
        "independently decoded block 1: {} rows, ip column = {} B ({})",
        middle.rows(),
        middle.column_bytes("ip").unwrap(),
        middle.codec("ip").unwrap().scheme(),
    );

    // Projection pushdown: one column of one block. The reader fetches the
    // ip payload plus its countryid reference payload — nothing else.
    let before = reader.bytes_read();
    let ips = table.read_column(1, "ip").expect("projected read");
    println!(
        "projected ip read: {} values, {} B fetched ({:.1}% of file)",
        ips.len(),
        reader.bytes_read() - before,
        (reader.bytes_read() - before) as f64 / reader.file_bytes() as f64 * 100.0,
    );

    // Footer-driven pruning: a predicate outside every block's zone map
    // answers from metadata alone — zero payload bytes read.
    let before = reader.bytes_read();
    let (sels, stats) = table
        .scan_blocks(&Predicate::lt("ip", 0))
        .expect("pruned scan");
    println!(
        "pruned scan: {} blocks skipped via footer, {} B read, {} rows matched",
        stats.blocks_skipped_io,
        reader.bytes_read() - before,
        sels.iter().map(SelectionVector::len).sum::<usize>(),
    );

    // Corruption detection: flip a byte of the trailing magic.
    let mut bytes = std::fs::read(&path).expect("read file");
    let n = bytes.len();
    bytes[n - 1] ^= 0xFF;
    match TableReader::from_bytes(bytes) {
        Err(e) => println!("corrupted trailer correctly rejected: {e}"),
        Ok(_) => unreachable!("corruption must be detected"),
    }

    std::fs::remove_dir_all(&dir).ok();
}
