//! Crash-point torture tests for the ingest subsystem.
//!
//! The centerpiece is the **crash matrix**: a fixed append + compact
//! workload runs over [`SimVfs`] once per possible crash point (every
//! mutating filesystem op), the crash is applied (durable state + a
//! seeded prefix of unsynced bytes and namespace ops), the table is
//! reopened, and the recovered rows are compared against a model-table
//! oracle:
//!
//! * every **acknowledged** append is present, byte-for-byte;
//! * at most **one in-flight** append may additionally appear, and then
//!   only in full (all-or-nothing) — never a torn prefix;
//! * a crash during **compaction** never changes row content at all
//!   (the old and new states hold the same rows);
//! * after recovery the table accepts new appends and never reuses file
//!   numbers.

use std::sync::Arc;

use corra_columnar::block::Table;
use corra_columnar::column::{Column, DataType};
use corra_columnar::schema::{Field, Schema};
use corra_core::compressor::CompressionConfig;
use corra_core::ingest::{IngestConfig, IngestTable};
use corra_core::io::MemBackend;
use corra_core::store::{SegmentedTable, TableReader, TableWriter};
use corra_core::vfs::{SimVfs, Vfs};
use corra_core::{compact, compress_blocks, CompactionConfig};

fn int_table(range: std::ops::Range<i64>) -> Table {
    Table::new(
        Schema::new(vec![Field::new("v", DataType::Int64)]).unwrap(),
        vec![Column::from(range.collect::<Vec<i64>>())],
    )
    .unwrap()
}

fn ingest_config() -> IngestConfig {
    IngestConfig {
        block_rows: 128,
        ..IngestConfig::default()
    }
}

fn compaction_config() -> CompactionConfig {
    CompactionConfig {
        block_rows: 256,
        ..CompactionConfig::default()
    }
}

fn read_all(t: &IngestTable) -> Vec<i64> {
    read_all_segmented(&t.reader().unwrap())
}

fn read_all_segmented(reader: &SegmentedTable) -> Vec<i64> {
    let mut all = Vec::new();
    for b in 0..reader.n_blocks() {
        all.extend_from_slice(reader.read_column(b, "v").unwrap().as_i64().unwrap());
    }
    all
}

/// The scripted workload: five appends with a compaction after the
/// third. Returns the chunks acknowledged before any failure and the
/// chunk that was in flight when the failure hit (if it was an append).
type Chunk = (i64, i64);
const CHUNKS: [Chunk; 5] = [(0, 230), (230, 480), (480, 700), (700, 760), (760, 1000)];

fn run_workload(vfs: Arc<dyn Vfs>) -> (Vec<Chunk>, Option<Chunk>) {
    let mut acked = Vec::new();
    let Ok(mut t) = IngestTable::create(vfs, ingest_config()) else {
        return (acked, None);
    };
    for (i, &(lo, hi)) in CHUNKS.iter().enumerate() {
        match t.append(int_table(lo..hi)) {
            Ok(_) => acked.push((lo, hi)),
            Err(_) => return (acked, Some((lo, hi))),
        }
        if i == 2 && compact(&mut t, &compaction_config()).is_err() {
            // Compaction failures never change row content; the crash
            // has tripped, so the rest of the workload would fail too.
            return (acked, None);
        }
    }
    (acked, None)
}

fn expand(chunks: &[Chunk]) -> Vec<i64> {
    chunks.iter().flat_map(|&(lo, hi)| lo..hi).collect()
}

/// Every crash point of the append + compact workload recovers to
/// exactly the last durable state: all acknowledged rows, at most one
/// fully-present in-flight append, nothing torn — and the recovered
/// table keeps working.
#[test]
fn crash_matrix_recovers_exactly_the_acknowledged_state() {
    for seed in [3u64, 17, 40] {
        // Dry run to learn the op budget of the full workload.
        let dry = SimVfs::new(seed);
        run_workload(Arc::new(dry.clone()));
        let total = dry.op_count();
        assert!(total > 40, "workload too small to be interesting: {total}");

        let mut saw_inflight_present = false;
        let mut saw_inflight_absent = false;
        for k in 0..total {
            let sim = SimVfs::new(seed);
            sim.crash_after(k);
            let (acked, in_flight) = run_workload(Arc::new(sim.clone()));
            assert!(sim.has_crashed(), "crash point {k} never tripped");
            sim.apply_crash();

            let recovered = match IngestTable::open(Arc::new(sim.clone()), ingest_config()) {
                Ok(t) => t,
                Err(_) => {
                    // Only legal before the very first manifest became
                    // durable — nothing was ever acknowledged.
                    assert!(
                        acked.is_empty(),
                        "crash point {k} (seed {seed}): open failed after acks"
                    );
                    // The directory must still be usable from scratch.
                    let mut t = IngestTable::open_or_create(Arc::new(sim.clone()), ingest_config())
                        .unwrap();
                    t.append(int_table(0..7)).unwrap();
                    assert_eq!(read_all(&t), (0..7).collect::<Vec<i64>>());
                    continue;
                }
            };
            let got = read_all(&recovered);
            let want_acked = expand(&acked);
            let matches_oracle = if got == want_acked {
                saw_inflight_absent |= in_flight.is_some();
                true
            } else if let Some(chunk) = in_flight {
                // The unacknowledged append may survive, but only whole.
                let mut with_inflight = acked.clone();
                with_inflight.push(chunk);
                let present = got == expand(&with_inflight);
                saw_inflight_present |= present;
                present
            } else {
                false
            };
            assert!(
                matches_oracle,
                "crash point {k} (seed {seed}): recovered {} rows, acked {} rows, \
                 in-flight {in_flight:?}",
                got.len(),
                want_acked.len(),
            );

            // The recovered table must accept appends with fresh numbers.
            let max_seg_seq = recovered
                .manifest()
                .segments
                .iter()
                .map(|s| s.seq)
                .max()
                .unwrap_or(0);
            let mut resumed = recovered;
            let receipt = resumed.append(int_table(-50..0)).unwrap();
            assert!(receipt.segment_seq > max_seg_seq);
            let mut want = got.clone();
            want.extend(-50..0);
            assert_eq!(read_all(&resumed), want, "resume after crash point {k}");
        }
        // The sweep must exercise both sides of the in-flight boundary,
        // or the oracle is vacuous.
        assert!(
            saw_inflight_present && saw_inflight_absent,
            "seed {seed}: crash sweep never saw both in-flight outcomes \
             (present={saw_inflight_present}, absent={saw_inflight_absent})"
        );
    }
}

/// The full append → compact → read cycle produces exactly the rows a
/// write-once [`TableWriter`] baseline produces from the same data.
#[test]
fn append_compact_read_matches_write_once_baseline() {
    // Ingest path: five appends, compact, then read everything.
    let vfs: Arc<dyn Vfs> = Arc::new(SimVfs::new(91));
    let mut t = IngestTable::create(Arc::clone(&vfs), ingest_config()).unwrap();
    for &(lo, hi) in &CHUNKS {
        t.append(int_table(lo..hi)).unwrap();
    }
    let result = compact(&mut t, &compaction_config()).unwrap();
    assert!(result.compacted);
    assert_eq!(result.segments_after, 1);
    let ingested = read_all(&t);

    // Write-once baseline: one table, one file, one reader.
    let blocks = int_table(0..1000).into_blocks(256);
    let compressed = compress_blocks(&blocks, &CompressionConfig::baseline(), 1).unwrap();
    let mut writer = TableWriter::new(Vec::new()).unwrap();
    for block in &compressed {
        writer.write_block(block).unwrap();
    }
    let bytes = writer.finish().unwrap();
    let baseline = TableReader::from_backend(Box::new(MemBackend::new(bytes))).unwrap();
    let expected = read_all_segmented(&SegmentedTable::from_readers(vec![Arc::new(baseline)]));

    assert_eq!(ingested, expected);
    assert_eq!(ingested, (0..1000).collect::<Vec<i64>>());
}

/// In-place corruption of the newest manifest record makes recovery fall
/// back to the previous durable manifest (kept by the append GC depth).
#[test]
fn corrupting_the_newest_manifest_falls_back_to_the_previous_state() {
    let sim = SimVfs::new(23);
    let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
    let mut t = IngestTable::create(Arc::clone(&vfs), ingest_config()).unwrap();
    t.append(int_table(0..100)).unwrap();
    let prev_manifest = t.manifest().file_name();
    t.append(int_table(100..250)).unwrap();
    let newest_manifest = t.manifest().file_name();
    drop(t);

    // Flip one byte in the newest manifest.
    let handle = vfs.open(&newest_manifest).unwrap();
    let mut byte = [0u8; 1];
    handle.read_at(5, &mut byte).unwrap();
    byte[0] ^= 0x40;
    handle.write_at(5, &byte).unwrap();
    handle.fsync().unwrap();

    let recovered = IngestTable::open(Arc::clone(&vfs), ingest_config()).unwrap();
    assert_eq!(
        recovered.manifest().file_name(),
        prev_manifest,
        "recovery did not fall back to the previous manifest"
    );
    assert_eq!(read_all(&recovered), (0..100).collect::<Vec<i64>>());
}

/// A directory another build wrote (a published record with the manifest
/// magic and another version word) is refused by every entry point and left
/// byte-for-byte as found — not read as empty, which would let `create`
/// publish over it and the next append's GC delete its segments.
#[test]
fn a_directory_of_another_manifest_version_is_refused_and_left_untouched() {
    let sim = SimVfs::new(31);
    let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
    let segment = b"stands in for a segment the other build wrote".to_vec();
    let seg_name = "seg-000001.corra";
    // The version-1 record by hand: the layout is unchanged, only the
    // version word and the checksum function differ — and the version is
    // judged first, so any trailing eight bytes do.
    let mut record = b"CORRAMAN".to_vec();
    record.extend_from_slice(&1u32.to_le_bytes()); // version
    record.extend_from_slice(&1u64.to_le_bytes()); // manifest seq
    record.extend_from_slice(&1u32.to_le_bytes()); // one segment
    record.extend_from_slice(&1u64.to_le_bytes()); // segment seq
    record.extend_from_slice(&100u64.to_le_bytes()); // rows
    record.extend_from_slice(&(segment.len() as u64).to_le_bytes());
    record.extend_from_slice(&(seg_name.len() as u16).to_le_bytes());
    record.extend_from_slice(seg_name.as_bytes());
    record.extend_from_slice(&[0xAB; 8]); // self-checksum of another function
    let files = [(seg_name, segment), ("manifest-000001.man", record)];
    for (name, bytes) in &files {
        let f = vfs.create(name).unwrap();
        corra_core::io::write_full_at(f.as_ref(), 0, bytes).unwrap();
        f.fsync().unwrap();
    }
    vfs.sync_dir().unwrap();
    let listing = vfs.list().unwrap();

    type Entry = fn(Arc<dyn Vfs>, IngestConfig) -> corra_columnar::error::Result<IngestTable>;
    let entries: [(&str, Entry); 3] = [
        ("open", IngestTable::open),
        ("create", IngestTable::create),
        ("open_or_create", IngestTable::open_or_create),
    ];
    for (what, entry) in entries {
        match entry(Arc::clone(&vfs), ingest_config()) {
            Err(corra_columnar::error::Error::Corrupt(msg)) => {
                assert_eq!(msg, "unsupported manifest version 1", "{what}");
            }
            Err(other) => panic!("{what}: wrong error {other}"),
            Ok(_) => panic!("{what} adopted or overwrote another build's table"),
        }
        assert_eq!(vfs.list().unwrap(), listing, "{what} changed the directory");
        for (name, bytes) in &files {
            assert_eq!(
                &corra_core::vfs::read_file(vfs.as_ref(), name).unwrap(),
                bytes,
                "{what} rewrote {name}"
            );
        }
    }
}

/// A segment whose tail is damaged (the torn-tail shape: checksum no
/// longer matches) invalidates the manifest naming it; recovery falls
/// back to the previous durable state instead of serving bad bytes.
#[test]
fn corrupting_a_segment_tail_falls_back_to_the_previous_state() {
    let sim = SimVfs::new(29);
    let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
    let mut t = IngestTable::create(Arc::clone(&vfs), ingest_config()).unwrap();
    t.append(int_table(0..100)).unwrap();
    t.append(int_table(100..300)).unwrap();
    let newest_seg = t.manifest().segments.last().unwrap().clone();
    drop(t);

    // Damage the last 3 bytes of the newest segment (footer checksum
    // region — exactly what a torn tail destroys).
    let handle = vfs.open(&newest_seg.name).unwrap();
    let off = newest_seg.file_len - 3;
    let mut tail = [0u8; 3];
    handle.read_at(off, &mut tail).unwrap();
    for b in &mut tail {
        *b ^= 0xFF;
    }
    handle.write_at(off, &tail).unwrap();
    handle.fsync().unwrap();

    let recovered = IngestTable::open(Arc::clone(&vfs), ingest_config()).unwrap();
    assert_eq!(
        read_all(&recovered),
        (0..100).collect::<Vec<i64>>(),
        "recovery served rows from a damaged segment"
    );
}

/// Compaction re-runs the codec chooser on the merged distribution:
/// values that are FOR-friendly within each small segment (narrow local
/// band) stop being FOR-friendly once the bands pool into a range
/// spanning ~3 * 10^12, and the full-menu re-chooser moves the column to
/// a structure-aware codec a fraction of FOR's merged size.
#[test]
fn compaction_rechooses_codecs_for_the_merged_distribution() {
    let vfs: Arc<dyn Vfs> = Arc::new(SimVfs::new(31));
    let config = IngestConfig {
        block_rows: 4096,
        ..IngestConfig::default()
    };
    let mut t = IngestTable::create(Arc::clone(&vfs), config).unwrap();
    // Segment i: 4096 rows cycling over 64 values in a narrow band near
    // i * 10^12. Locally: range 64 → FOR at 6 bits/row beats Dict (same
    // bit width plus a dictionary table).
    for seg in 0..4i64 {
        let base = seg * 1_000_000_000_000;
        let vals: Vec<i64> = (0..4096).map(|j| base + (j % 64)).collect();
        let table = Table::new(
            Schema::new(vec![Field::new("v", DataType::Int64)]).unwrap(),
            vec![Column::from(vals)],
        )
        .unwrap();
        t.append(table).unwrap();
    }
    let before = t.reader().unwrap();
    for seg in before.segments() {
        let block = seg.read_block(0).unwrap();
        assert_eq!(
            block.codec_at(0).scheme(),
            "for",
            "narrow per-segment bands should encode as FOR"
        );
    }

    // Merged: 256 distinct values spanning ~3 * 10^12 → keeping FOR
    // would need 42 bits/row; the re-chooser must flip the codec.
    let result = compact(
        &mut t,
        &CompactionConfig {
            block_rows: 16_384,
            ..CompactionConfig::default()
        },
    )
    .unwrap();
    assert!(result.compacted);
    // Keeping FOR across the merged range (~3 * 10^12) would cost at
    // least 42 bits/row ≈ 86 KB of payload; the re-chosen Dict stays
    // within a fraction of that.
    assert!(
        result.bytes_after < 43_000,
        "merged segment did not re-encode compactly ({} bytes)",
        result.bytes_after
    );
    let after = t.reader().unwrap();
    assert_eq!(after.segments().len(), 1);
    let block = after.segments()[0].read_block(0).unwrap();
    assert_ne!(
        block.codec_at(0).scheme(),
        "for",
        "re-chooser kept FOR on a distribution where FOR is hopeless"
    );
    // And the data still round-trips.
    let rows = read_all_segmented(&after);
    assert_eq!(rows.len(), 4 * 4096);
    assert_eq!(rows[0], 0);
    assert_eq!(rows[4096], 1_000_000_000_000);
}

/// Multi-segment scans report one `segments_opened` per segment and the
/// serving front door serves a [`SegmentedTable`] directly.
#[test]
fn serve_session_runs_against_a_segmented_table() {
    use corra_columnar::selection::SelectionVector;
    use corra_core::scan::Predicate;
    use corra_core::serve::{ServeRequest, ServeResult, ServeSession};

    let vfs: Arc<dyn Vfs> = Arc::new(SimVfs::new(37));
    let mut t = IngestTable::create(Arc::clone(&vfs), ingest_config()).unwrap();
    t.append(int_table(0..300)).unwrap();
    t.append(int_table(300..500)).unwrap();
    t.append(int_table(500..900)).unwrap();
    let reader = Arc::new(t.reader().unwrap());

    let (_, stats) = reader
        .scan_blocks(&Predicate::between("v", 100, 200))
        .unwrap();
    assert_eq!(stats.segments_opened, 3);

    let session = ServeSession::new(Arc::clone(&reader));
    let requests = vec![
        ServeRequest::point(0, "v"),
        ServeRequest::Scan(Predicate::between("v", 250, 320)),
        ServeRequest::point(3, "v"),
    ];
    let outcome = session.run(&requests, 2).unwrap();
    assert_eq!(outcome.results.len(), 3);
    let ServeResult::Column(col) = &outcome.results[0] else {
        panic!("expected a column result");
    };
    assert_eq!(col.as_i64().unwrap()[0], 0);
    let ServeResult::Scan(sels) = &outcome.results[1] else {
        panic!("expected a scan result");
    };
    let hits: usize = sels.iter().map(SelectionVector::len).sum();
    assert_eq!(hits, 71, "250..=320 inclusive");
    assert!(outcome.stats.segments_opened >= 3);
}
