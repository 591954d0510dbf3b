//! The store's whole-table operators run over one global block list, so a
//! table of single-block segments — every un-compacted append — fans out
//! across segments exactly like a multi-block file, and every parallel
//! driver lands the serial answer.

mod common;

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::ThreadId;

use corra_columnar::error::Result;
use corra_core::io::{IoBackend, MemBackend};
use corra_core::store::{SegmentedTable, TableReader, TableWriter};
use corra_core::{AggExpr, CompressedBlock, JoinExpr, Predicate, TopKExpr};

const SEGMENTS: usize = 10;

/// Watches which threads read payload bytes, and makes the first two
/// readers that are not the test thread meet at a barrier — which only
/// returns if two workers are inside the scan at the same time.
struct Probe {
    armed: AtomicBool,
    caller: ThreadId,
    readers: Mutex<HashSet<ThreadId>>,
    arrivals: AtomicUsize,
    meet: Barrier,
}

struct ProbedBackend {
    inner: MemBackend,
    probe: Arc<Probe>,
}

impl IoBackend for ProbedBackend {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let probe = &self.probe;
        let me = std::thread::current().id();
        if probe.armed.load(Ordering::SeqCst) {
            probe.readers.lock().unwrap().insert(me);
            if me != probe.caller && probe.arrivals.fetch_add(1, Ordering::SeqCst) < 2 {
                probe.meet.wait();
            }
        }
        self.inner.read_at(offset, buf)
    }

    fn len(&self) -> Result<u64> {
        self.inner.len()
    }
}

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

fn segmented(probe: Option<&Arc<Probe>>) -> SegmentedTable {
    let readers = segment_bytes()
        .into_iter()
        .map(|bytes| {
            let inner = MemBackend::new(bytes);
            let reader = match probe {
                None => TableReader::from_backend(Box::new(inner)),
                Some(probe) => TableReader::from_backend(Box::new(ProbedBackend {
                    inner,
                    probe: Arc::clone(probe),
                })),
            };
            Arc::new(reader.unwrap())
        })
        .collect();
    SegmentedTable::from_readers(readers)
}

#[test]
fn parallel_scan_fans_out_across_single_block_segments() {
    let probe = Arc::new(Probe {
        armed: AtomicBool::new(false),
        caller: std::thread::current().id(),
        readers: Mutex::new(HashSet::new()),
        arrivals: AtomicUsize::new(0),
        meet: Barrier::new(2),
    });
    let table = segmented(Some(&probe));
    assert_eq!(table.n_segments(), SEGMENTS);
    assert_eq!(table.n_blocks(), SEGMENTS, "one block per segment");
    // `fee` spans 100..=109 in every block: no zone decides it, so every
    // segment's payload is read by whichever thread scans it.
    let pred = Predicate::ge("fee", 105);
    probe.armed.store(true, Ordering::SeqCst);
    let (sels, stats) = table.scan_blocks_parallel(&pred, 4).unwrap();
    probe.armed.store(false, Ordering::SeqCst);
    let readers = probe.readers.lock().unwrap().clone();
    assert!(
        !readers.contains(&probe.caller) && readers.len() >= 2,
        "a scan over {SEGMENTS} single-block segments ran on {} thread(s), caller included: {}",
        readers.len(),
        readers.contains(&probe.caller)
    );
    assert_eq!(stats.blocks, SEGMENTS);
    assert_eq!(stats.segments_opened, SEGMENTS);
    let (want, _) = segmented(None).scan_blocks(&pred).unwrap();
    assert_eq!(sels, want);
}

#[test]
fn parallel_drivers_match_serial_over_single_block_segments() {
    let table = segmented(None);
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
        for threads in [2, 3, 8, 64] {
            let (psels, pstats) = table.scan_blocks_parallel(pred, threads).unwrap();
            assert_eq!(psels, sels, "{pred:?} threads {threads}");
            // Every field: `ScanStats` compares (and prints) all nine.
            assert_eq!(pstats, stats, "{pred:?} threads {threads}");
        }
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
        assert_eq!(rows, single.top_k(&expr).unwrap().0, "{expr:?}");
        for threads in [2, 5, 16] {
            let (prows, pstats) = table.top_k_parallel(&expr, threads).unwrap();
            assert_eq!(prows, rows, "{expr:?} threads {threads}");
            assert_eq!(pstats.blocks, stats.blocks);
            assert_eq!(pstats.rows_total, stats.rows_total);
            assert_eq!(pstats.segments_opened, stats.segments_opened);
        }
    }

    let join = JoinExpr::on("city", "city");
    let (pairs, stats) = table.hash_join(&table, &join).unwrap();
    assert!(!pairs.is_empty());
    assert_eq!(stats.io.segments_opened, 2 * SEGMENTS);
    assert_eq!(pairs, single.hash_join(&single, &join).unwrap().0);
    for threads in [2, 4, 32] {
        let (ppairs, pstats) = table.hash_join_parallel(&table, &join, threads).unwrap();
        assert_eq!(ppairs, pairs, "join threads {threads}");
        assert_eq!(pstats, stats, "join threads {threads}");
    }
}

/// The same blocks as [`segmented`], in one file.
fn single_file() -> TableReader {
    let mut writer = TableWriter::new(Vec::new()).unwrap();
    for seg in 0..SEGMENTS {
        let (raw, cfg) = common::mixed_block(32, seg as i64 * 10_000);
        writer
            .write_block(&CompressedBlock::compress(&raw, &cfg).unwrap())
            .unwrap();
    }
    TableReader::from_bytes(writer.finish().unwrap()).unwrap()
}
